"""Certificates that stand in for full wrapper checks: the Gram defect of a
product of checked unitaries, of D(alpha) and S(z) from their real
orthogonal cores, and the positivity of tilde_rho_s built from a diagonal
state.  Each stated bound must be at least the dense defect it replaces,
each certified constructor must accept only what the full check accepts,
and a bound past its tolerance must reach the full check."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_unitary
from switchwork import cvcase, qmat, switchcore
from switchwork.cvcase import DisplacementParams, SqueezeParams, displacement_op, squeeze_op
from switchwork.qmat import (
    TOL_PSD,
    TOL_UNITARY,
    DensityMatrix,
    HermitianOperator,
    UnitaryOperator,
    _CertifiedState,
    _CertifiedUnitary,
    _DiagonalState,
    _gram_defect,
    _product_defect_bound,
    _unitary_product,
)
from switchwork.states import (
    BlochState,
    ControlHamiltonianParams,
    hamiltonian_control,
    hamiltonian_fock,
)
from switchwork.switchcore import SwitchScenario, _switch_blocks, activation_report

_SEED = st.integers(min_value=0, max_value=2**31 - 1)
_ALPHA = st.builds(
    DisplacementParams,
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
)
_SQUEEZE = st.builds(
    SqueezeParams,
    st.floats(min_value=0.0, max_value=0.8),
    st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
)
_N_MAX = st.sampled_from([1, 2, 40, 172])
_QUIET = pytest.mark.filterwarnings("ignore::switchwork.cvcase.TruncationInadequacyWarning")


def _near_unitary(rng: np.random.Generator, d: int, size: float) -> UnitaryOperator:
    """A checked unitary whose Gram defect is about `size` (at least round-off)."""
    return UnitaryOperator(random_unitary(rng, d) * (1.0 + size * rng.normal(size=(d, d))))


def _unchecked_unitary(mat: np.ndarray) -> UnitaryOperator:
    """A UnitaryOperator wrapper that skipped its own validation, and so
    records no defect."""
    u = object.__new__(UnitaryOperator)
    object.__setattr__(u, "mat", mat)
    object.__setattr__(u, "dim", mat.shape[0])
    return u


def _fock_pair(a: DisplacementParams, b, n_max: int) -> tuple[UnitaryOperator, UnitaryOperator]:
    u2 = squeeze_op(b, n_max) if isinstance(b, SqueezeParams) else displacement_op(b, n_max)
    return displacement_op(a, n_max), u2


def _certified(u: UnitaryOperator) -> bool:
    """Accepted on its proof: the recorded defect is not the measured one."""
    return isinstance(u, _CertifiedUnitary) and u._defect != _gram_defect(u.mat)


@pytest.fixture
def full_checks(monkeypatch):
    """Counts the full Gram checks that run."""
    calls = []
    original = qmat._gram_defect

    def counted(m):
        calls.append(m.shape[0])
        return original(m)

    monkeypatch.setattr(qmat, "_gram_defect", counted)
    return calls


class TestProductCertificate:
    @settings(max_examples=30, deadline=None)
    @given(seed=_SEED, d=st.sampled_from([2, 5, 30]), size=st.sampled_from([0.0, 1e-14, 1e-12]))
    def test_bound_covers_the_dense_defect(self, seed, d, size):
        rng = np.random.default_rng(seed)
        a, b = _near_unitary(rng, d, size), _near_unitary(rng, d, size)
        p = _unitary_product(a, b)
        assert _certified(p)
        assert p._defect <= TOL_UNITARY
        assert _gram_defect(p.mat) <= p._defect
        assert np.array_equal(p.mat, a.mat @ b.mat) and not p.mat.flags.writeable

    @_QUIET
    @settings(max_examples=12, deadline=None)
    @given(a=_ALPHA, b=st.one_of(_ALPHA, _SQUEEZE), n_max=_N_MAX)
    def test_bound_covers_the_dense_defect_of_fock_pairs(self, a, b, n_max):
        u1, u2 = _fock_pair(a, b, n_max)
        for w in _switch_blocks(u1, u2):
            assert _certified(w)
            assert _gram_defect(w.mat) <= w._defect <= TOL_UNITARY

    @settings(max_examples=40, deadline=None)
    @given(seed=_SEED, d=st.sampled_from([2, 5, 30]), log_size=st.floats(-14.0, -10.0))
    def test_accepts_only_what_the_full_check_accepts(self, seed, d, log_size):
        """Factors near the tolerance: some products pass on their bound,
        some reach the full check, and some of those fail it."""
        rng = np.random.default_rng(seed)
        try:
            a, b = (_near_unitary(rng, d, 10.0**log_size) for _ in range(2))
        except ValueError:
            assume(False)  # a factor failed its own check
        try:
            _unitary_product(a, b)
            accepted = True
        except ValueError as exc:
            assert str(exc).startswith("UnitaryOperator defect")
            accepted = False
        assert accepted == (_gram_defect(a.mat @ b.mat) <= TOL_UNITARY)

    def test_factor_defects_past_the_tolerance_reach_the_full_check(self, rng, full_checks):
        # Each factor passes its own check at 0.9 TOL_UNITARY on [0, 0]; the
        # product's defect there is about 1.8 TOL_UNITARY.
        stretch = np.ones(3)
        stretch[0] = math.sqrt(1.0 + 0.9 * TOL_UNITARY)
        a = UnitaryOperator(np.eye(3, dtype=complex) * stretch)
        b = UnitaryOperator(np.eye(3, dtype=complex) * stretch)
        assert _product_defect_bound(a._defect, b._defect, 3) > TOL_UNITARY
        full_checks.clear()
        with pytest.raises(ValueError, match=r"^UnitaryOperator defect 1\.8\d\de-10 exceeds tolerance$"):
            _unitary_product(a, b)
        assert full_checks == [3]

    def test_a_size_past_the_tolerance_reaches_the_full_check(self, rng, full_checks):
        # At d = 400 the round-off terms alone exceed TOL_UNITARY.
        a, b = (UnitaryOperator(random_unitary(rng, 400)) for _ in range(2))
        assert _product_defect_bound(a._defect, b._defect, 400) > TOL_UNITARY
        full_checks.clear()
        p = _unitary_product(a, b)
        assert full_checks == [400]
        assert p._defect == _gram_defect(p.mat) <= TOL_UNITARY

    def test_a_factor_with_no_recorded_defect_reaches_the_full_check(self, rng, full_checks):
        good = UnitaryOperator(random_unitary(rng, 4))
        full_checks.clear()
        p = _unitary_product(_unchecked_unitary(good.mat), good)
        assert full_checks == [4] and p._defect == _gram_defect(p.mat)
        bad = _unchecked_unitary(np.diag([1.0, 1.0 + 1e-9]).astype(complex))
        with pytest.raises(ValueError, match="UnitaryOperator defect"):
            _unitary_product(bad, UnitaryOperator(np.eye(2, dtype=complex)))


class TestPhasedCertificate:
    """D(alpha) and S(z) are certified from the real Gram of their
    orthogonal cores, S per parity block."""

    @_QUIET
    @settings(max_examples=20, deadline=None)
    @given(a=_ALPHA, s=_SQUEEZE, n_max=_N_MAX)
    def test_bound_covers_the_dense_defect(self, a, s, n_max):
        for u in (displacement_op(a, n_max), squeeze_op(s, n_max)):
            assert _certified(u)
            assert _gram_defect(u.mat) <= u._defect <= TOL_UNITARY
            UnitaryOperator(u.mat)  # the full check accepts it too

    @_QUIET
    @pytest.mark.parametrize("op", ["displacement", "squeeze"])
    def test_defective_core_reaches_the_full_check(self, monkeypatch, full_checks, op):
        # Stretch the left singular vectors by 1e-9: the core's real Gram
        # defect is about 2e-9, so the bound fails and so does the check.
        svd = np.linalg.svd

        def stretched(c, *args, **kwargs):
            u, s, vt = svd(c, *args, **kwargs)
            return u * (1.0 + 1e-9), s, vt

        monkeypatch.setattr(cvcase.np.linalg, "svd", stretched)
        full_checks.clear()
        with pytest.raises(ValueError, match="UnitaryOperator defect"):
            if op == "displacement":
                displacement_op(DisplacementParams(1.0, 0.9), 40)
            else:
                squeeze_op(SqueezeParams(0.5, 0.4), 40)
        assert full_checks == [41]

    @_QUIET
    def test_the_operator_keeps_the_core_bytes_and_records_its_bound(self):
        u, bound = cvcase._phased_tridiagonal_exp(0.3 * np.sqrt(np.arange(1.0, 3.0)), 0.7)
        d = displacement_op(DisplacementParams(0.3, 0.7), 2)
        assert d.mat.tobytes() == u.tobytes() and d._defect == bound


def _diagonal_scenario(rng, u1, u2, p, control) -> SwitchScenario:
    d = p.size
    return SwitchScenario(
        rho_s=_DiagonalState(p),
        control=control,
        u1=u1,
        u2=u2,
        h_s=hamiltonian_fock(1.0, d - 1),
        h_c=hamiltonian_control(ControlHamiltonianParams(1.0, 0.5, 0.3)),
    )


def _psd_defect(rho: DensityMatrix) -> float:
    return max(0.0, -float(np.linalg.eigvalsh(rho.mat).min()))


class TestMixtureCertificate:
    """tilde_rho_s = rc00 R12 + rc11 R21 from a diagonal rho is positive by
    construction; only round-off, bounded by _mixture_psd_unit, can move
    its smallest eigenvalue below 0."""

    @settings(max_examples=30, deadline=None)
    @given(seed=_SEED, d=st.sampled_from([2, 5, 30]), theta=st.floats(0.0, math.pi))
    def test_bound_covers_the_dense_defect(self, seed, d, theta):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.full(d, 0.3))
        u1, u2 = (UnitaryOperator(random_unitary(rng, d)) for _ in range(2))
        s = _diagonal_scenario(rng, u1, u2, p, BlochState(theta, 1.0))
        tilde = activation_report(s).tilde_rho_s
        assert isinstance(tilde, _CertifiedState) and tilde._psd_bound <= TOL_PSD
        assert _psd_defect(tilde) <= tilde._psd_bound
        DensityMatrix(tilde.mat)  # the full check accepts it too

    @_QUIET
    @settings(max_examples=12, deadline=None)
    @given(seed=_SEED, a=_ALPHA, b=st.one_of(_ALPHA, _SQUEEZE), n_max=_N_MAX)
    def test_bound_covers_the_dense_defect_of_fock_pairs(self, seed, a, b, n_max):
        rng = np.random.default_rng(seed)
        p = np.exp(-rng.uniform(0.2, 3.0) * np.arange(n_max + 1))
        s = _diagonal_scenario(rng, *_fock_pair(a, b, n_max), p / p.sum(), BlochState(1.1, 0.6))
        tilde = activation_report(s).tilde_rho_s
        assert not math.isnan(tilde._psd_bound)
        assert _psd_defect(tilde) <= tilde._psd_bound <= TOL_PSD

    def test_columns_are_scaled_bit_for_bit(self):
        """The diagonal route's terms equal the dense products' bits."""
        s = cvcase.disp_squeeze_scenario(
            1.0, 1.0, 0.5, 0.0, DisplacementParams(1.0, 0.9), SqueezeParams(0.5, 0.4),
            BlochState(1.1, 0.6), n_max=84,
        )
        assert isinstance(s.rho_s, _DiagonalState)
        dense = dataclasses.replace(s, rho_s=DensityMatrix(s.rho_s.mat))
        for name in ("r12", "r21", "a12"):
            assert getattr(s._terms, name).tobytes() == getattr(dense._terms, name).tobytes()
        assert s._terms.kernel == dense._terms.kernel
        assert math.isinf(dense._terms.psd_unit)

    @pytest.mark.parametrize("fault", ["negative_weight", "negative_control_weight", "large_bound"])
    def test_outside_the_certificate_the_cholesky_decides(self, rng, monkeypatch, fault):
        p, control = np.array([0.7, 0.3 + 1e-12, -1e-12]), BlochState(1.0, 0.2)
        if fault == "negative_weight":
            pass
        elif fault == "negative_control_weight":
            p = np.array([0.7, 0.2, 0.1])
            control = DensityMatrix(np.array([[1.0 + 5e-10, 0.0], [0.0, -5e-10]], dtype=complex))
        else:
            p = np.array([0.7, 0.2, 0.1])
            monkeypatch.setattr(switchcore, "_mixture_psd_unit", lambda p, w: 2.0 * TOL_PSD)
        u1, u2 = (UnitaryOperator(random_unitary(rng, 3)) for _ in range(2))
        tilde = switchcore._tilde_states(_diagonal_scenario(rng, u1, u2, p, control), 0.5)[0]
        assert isinstance(tilde, _CertifiedState) and math.isnan(tilde._psd_bound)

    def test_certified_state_rejects_with_the_public_messages(self):
        negative = np.diag([1.0 + 1e-6, -1e-6]).astype(complex)
        for bound, message in ((1e-12, "not Hermitian"), (2.0 * TOL_PSD, "negative eigenvalue")):
            mat = negative.copy() if bound > TOL_PSD else np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
            with pytest.raises(ValueError, match=message) as certified:
                _CertifiedState(mat, bound)
            with pytest.raises(ValueError) as checked:
                DensityMatrix(mat)
            assert str(certified.value) == str(checked.value)
        with pytest.raises(ValueError, match="trace"):
            _CertifiedState(np.diag([0.5, 0.5 + 1e-9]).astype(complex), 0.0)


class TestDiagonalHamiltonian:
    @pytest.mark.parametrize("omega, n_max", [(1.0, 172), (2.0, 5), (0.3, 1)])
    def test_fock_hamiltonian_keeps_the_checked_bytes(self, omega, n_max):
        h = hamiltonian_fock(omega, n_max)
        n = np.arange(n_max + 1)
        checked = HermitianOperator(np.diag(omega * (n + 0.5)).astype(complex))
        assert isinstance(h, qmat._DiagonalHermitian) and h.dim == checked.dim
        assert h.mat.tobytes() == checked.mat.tobytes() and not h.mat.flags.writeable

    @pytest.mark.parametrize("omega", [math.nan, math.inf])
    def test_non_finite_energies_raise_the_public_message(self, omega):
        with pytest.raises(ValueError) as fast:
            hamiltonian_fock(omega, 4)
        with pytest.raises(ValueError) as checked:
            HermitianOperator(np.diag(omega * (np.arange(5) + 0.5)).astype(complex))
        assert str(fast.value) == str(checked.value) == "HermitianOperator contains non-finite entries"
