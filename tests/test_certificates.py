"""Certificates that stand in for full wrapper checks: the Gram defect of a
product of checked unitaries, of D(alpha) and S(z) from their real
orthogonal cores, and the positivity of tilde_rho_s and rho_sm, whose
terms live on the system state's working-precision support in its
eigenbasis.  Each
stated bound must be at least the dense defect it replaces, each certified
constructor must accept only what the full check accepts, and a bound past
its tolerance must reach the full check."""
from __future__ import annotations

import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import random_unitary
from switchwork import cvcase, qmat, switchcore
from switchwork.cvcase import DisplacementParams, SqueezeParams, displacement_op, squeeze_op
from switchwork.qmat import (
    TOL_PSD,
    TOL_UNITARY,
    DensityMatrix,
    HermitianOperator,
    UnitaryOperator,
    _CertifiedUnitary,
    _DeferredState,
    _DiagonalState,
    _gram_defect,
    _product_defect_bound,
    _unitary_product,
)
from switchwork.qubitcase import rotation_unitary
from switchwork.states import (
    BlochState,
    ControlHamiltonianParams,
    hamiltonian_control,
    hamiltonian_fock,
)
from switchwork.switchcore import (
    NearZeroPostSelectionError,
    SwitchScenario,
    _switch_blocks,
    activation_report,
    measure_control,
)

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
    records an unbounded defect."""
    u = object.__new__(UnitaryOperator)
    object.__setattr__(u, "mat", mat)
    object.__setattr__(u, "dim", mat.shape[0])
    object.__setattr__(u, "_defect", math.inf)
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

    @settings(max_examples=30, deadline=None)
    @given(
        seed=_SEED,
        d=st.sampled_from([2, 5, 30]),
        size=st.sampled_from([0.0, 1e-14, 1e-12]),
        stretch=st.sampled_from([0.0, 5e-11]),
    )
    def test_bound_covers_the_gram_defect_of_basis_columns(self, seed, d, size, stretch):
        """A dense rho's eigenbasis B is a third certified factor: the bound
        _switch_blocks returns for W12 B[:, S] and W21 B[:, S] covers their
        measured Gram defect, and the columns are the full products'.  A
        kept column of B stretched to a defect of 5e-11 passes B's own
        check, and only a bound that chains B's defect covers it."""
        rng = np.random.default_rng(seed)
        cols = np.sort(rng.choice(d, size=max(1, d // 2), replace=False))
        u1, u2 = (_near_unitary(rng, d, size) for _ in range(2))
        scale = np.ones(d)
        scale[cols[0]] = math.sqrt(1.0 + stretch)
        basis = UnitaryOperator(_near_unitary(rng, d, size).mat * scale)
        w12, w21, t = _switch_blocks(u1, u2, cols, basis)
        assert t <= TOL_UNITARY
        for w, full in ((w12, u2.mat @ u1.mat @ basis.mat), (w21, u1.mat @ u2.mat @ basis.mat)):
            gram = w.conj().T @ w - np.eye(cols.size)
            assert float(np.abs(gram).max()) <= t
            assert np.max(np.abs(w - full[:, cols])) <= 1e-13

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

    def test_a_factor_with_an_unbounded_defect_reaches_the_full_check(self, rng, full_checks):
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
    @pytest.mark.parametrize("n_max", [1, 2, 41, 172])
    def test_the_dense_form_is_built_lazily_with_the_eager_bits(self, n_max):
        """`.mat` is formed on first read, read-only and cached, with the
        bits of the eager construction r * outer(phi, conj(phi)) on each
        sublattice, and the recorded defect is the cores' bound."""
        a, z = DisplacementParams(1.3, 0.7), SqueezeParams(0.6, -1.1)
        cores = {
            "displacement": ((cvcase._tridiagonal_core(a.alpha_abs * np.sqrt(np.arange(1.0, n_max + 1.0))), a.alpha_phase),),
            "squeeze": tuple(
                (cvcase._tridiagonal_core(0.5 * z.z_abs * np.sqrt((n + 1.0) * (n + 2.0))), z.z_phase)
                for n in (np.arange(parity, n_max - 1, 2, dtype=float) for parity in (0, 1))
            ),
        }
        for name, u in (("displacement", displacement_op(a, n_max)), ("squeeze", squeeze_op(z, n_max))):
            assert isinstance(u, cvcase._PhasedUnitary) and "mat" not in u.__dict__
            eager = np.zeros((n_max + 1, n_max + 1), dtype=complex)
            bounds = []
            for b, (r, phase) in enumerate(cores[name]):
                phi = np.exp(1j * phase * np.arange(r.shape[0]))
                step = len(cores[name])
                eager[b::step, b::step] = r * np.outer(phi, phi.conj())
                bounds.append(cvcase._phased_defect_bound(r, phi))
            if name == "displacement":
                r, phase = cores[name][0]
                phi = np.exp(1j * phase * np.arange(r.shape[0]))
                assert u.mat.tobytes() == (r * np.outer(phi, phi.conj())).tobytes()
            assert u.mat.tobytes() == eager.tobytes() and u.mat is u.mat
            assert not u.mat.flags.writeable and u._defect == max(bounds)

    @_QUIET
    @settings(max_examples=12, deadline=None)
    @given(seed=_SEED, a=_ALPHA, s=_SQUEEZE, n_max=_N_MAX)
    def test_the_core_products_match_the_dense_ones(self, seed, a, s, n_max):
        """UnitaryOperator's trio on the cores: U y and U^T y within the
        real product's round-off of the dense products, on one block and on
        a stack, and the columns within the phase rounding of mat[:, cols]
        (bit for bit unless a product underflows)."""
        rng = np.random.default_rng(seed)
        d = n_max + 1
        cols = np.sort(rng.choice(d, size=max(1, d // 3), replace=False))
        for u in (displacement_op(a, n_max), squeeze_op(s, n_max)):
            dense = UnitaryOperator(u.mat)  # the default trio on the same matrix
            y = rng.normal(size=(2, d, 5)) + 1j * rng.normal(size=(2, d, 5))
            for block in (y, y[1], np.sign(y.real[0])):
                tol = 4.0 * qmat._gamma(d + 2) * float(np.abs(block).max()) * d
                assert np.max(np.abs(u._apply(block) - dense._apply(block))) <= tol
                assert np.max(np.abs(u._apply_t(block) - dense._apply_t(block))) <= tol
            for c in (cols, slice(None)):
                assert np.max(np.abs(u._columns(c) - dense._columns(c)), initial=0.0) <= 4.0 * qmat._UNIT_ROUNDOFF
            assert "mat" in u.__dict__  # only the reference read it


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
        assert isinstance(tilde, _DeferredState) and tilde._psd_bound <= TOL_PSD
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
        """The diagonal route keeps the columns of W12 and W21 over the
        state's working-precision support S with their weights, and the
        dense blocks it forms for the oracle equal the bits of
        W[:, S] (diag(p_S) W[:, S]†).  The same state given dense is
        factored by eigh, whose eigenbasis here is a permutation: its
        terms carry a certificate too, keep as many levels, and its kernel
        is the diagonal route's up to round-off."""
        s = cvcase.disp_squeeze_scenario(
            1.0, 1.0, 0.5, 0.0, DisplacementParams(1.0, 0.9), SqueezeParams(0.5, 0.4),
            BlochState(1.1, 0.6), n_max=84,
        )
        assert isinstance(s.rho_s, _DiagonalState)
        p = s.rho_s._weights
        cols = switchcore._support(p)
        w12, w21, _ = _switch_blocks(s.u1, s.u2, cols)
        t = s._terms
        assert t.v[:, 0].tobytes() == w12.tobytes() and t.v[:, 1].tobytes() == w21.tobytes()
        assert t.p.tobytes() == p[cols].tobytes()
        rho = np.diag(p[cols]).astype(complex)
        products = (w12 @ (rho @ w12.conj().T), w21 @ (rho @ w21.conj().T), w12 @ (rho @ w21.conj().T))
        for block, product in zip(t.blocks(), products):
            assert block.tobytes() == product.tobytes()
        dense = dataclasses.replace(s, rho_s=DensityMatrix(s.rho_s.mat))
        assert np.max(np.abs(np.subtract(t.kernel, dense._terms.kernel))) < 1e-13
        assert dense._terms.psd_unit <= 2.0 * t.psd_unit and dense._terms.p.size == t.p.size

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
        assert isinstance(tilde, _DeferredState) and "mat" in vars(tilde) and math.isnan(tilde._psd_bound)

    def test_certified_state_rejects_with_the_public_messages(self):
        """A derived state formed from a given matrix raises DensityMatrix's
        messages: the Cholesky runs only past its positivity bound."""

        def formed(mat, bound):
            terms = types.SimpleNamespace(mix=lambda w: mat.copy())
            return _DeferredState(terms, None, 1.0, mat.diagonal().copy(), bound, 0.0).mat

        negative = np.diag([1.0 + 1e-6, -1e-6]).astype(complex)
        assert np.array_equal(formed(negative, 0.0), negative)  # a bound within TOL_PSD is taken
        for bound, message in ((1e-12, "not Hermitian"), (2.0 * TOL_PSD, "negative eigenvalue")):
            mat = negative.copy() if bound > TOL_PSD else np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
            with pytest.raises(ValueError, match=message) as certified:
                formed(mat, bound)
            with pytest.raises(ValueError) as checked:
                DensityMatrix(mat)
            assert str(certified.value) == str(checked.value)
        with pytest.raises(ValueError, match="trace"):
            formed(np.diag([0.5, 0.5 + 1e-9]).astype(complex), 0.0)


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


def _thermal(beta: float, n_max: int) -> np.ndarray:
    if math.isinf(beta):
        return np.eye(1, n_max + 1)[0]
    p = np.exp(-beta * np.arange(n_max + 1))
    return p / p.sum()


_U = qmat._UNIT_ROUNDOFF


class TestWorkingPrecisionSupport:
    """A thermal state's terms are formed on the levels whose weights
    matter at working precision: the smallest weights go while their
    running sum stays <= u max p / 4, and every entry of R12, R21 and A12
    stays within u max p (1 + t) / 4, plus round-off, of the full
    products."""

    @pytest.mark.parametrize(
        "p, kept",
        [
            ([0.3, 1e-17, 0.7, 2e-17, 0.0], [0, 2, 3]),  # unsorted; a zero in the middle
            ([1.0, 1e-17, 1e-17, 1e-17], [0, 3]),  # a running sum, not each weight
            ([0.6, 0.0, 0.4], [0, 2]),
            ([1.0, 0.0, 0.0, 0.0], [0]),  # beta = inf: one level
        ],
    )
    def test_the_rule_keeps_these_levels(self, p, kept):
        cols = switchcore._support(np.array(p))
        assert isinstance(cols, np.ndarray) and cols.tolist() == kept

    def test_nothing_dropped_keeps_the_full_slice(self):
        assert switchcore._support(np.array([0.5, 0.5])) == slice(None)

    @pytest.mark.parametrize("n_max", [46, 84, 172])
    @pytest.mark.parametrize("beta", [0.3, 1.0, math.inf])
    def test_the_dropped_mass_is_at_most_a_quarter_of_u_max_p(self, n_max, beta):
        p = _thermal(beta, n_max)
        kept = np.zeros(p.size, dtype=bool)
        kept[switchcore._support(p)] = True
        limit = 0.25 * _U * p.max()
        assert p[~kept].sum() <= limit
        if kept.sum() > 1:  # and the rule drops as much as it may
            assert p[~kept].sum() + p[kept].min() > limit
        if math.isinf(beta):
            assert kept.tolist() == [True] + [False] * n_max

    @_QUIET
    @pytest.mark.parametrize("n_max", [1, 46, 84, 172])
    @pytest.mark.parametrize("beta", [0.3, 1.0, math.inf])
    def test_terms_match_the_full_products(self, rng, n_max, beta):
        """The blocks, mix(w) and probe(x) from the kept columns against
        the full d x d products, and the scalars against the dense traces;
        n_max = 1 is a thermal qubit."""
        p = _thermal(beta, n_max)
        u1, u2 = _fock_pair(DisplacementParams(1.0, 0.9), SqueezeParams(0.5, 0.4), n_max)
        s = _diagonal_scenario(rng, u1, u2, p, BlochState(1.1, 0.6))
        t, d = s._terms, p.size
        defect = _switch_blocks(u1, u2, slice(None))[2]
        w12, w21 = u2.mat @ u1.mat, u1.mat @ u2.mat
        full = ((w12 * p) @ w12.conj().T, (w21 * p) @ w21.conj().T, (w12 * p) @ w21.conj().T)
        support = 0.25 * _U * p.max() * (1.0 + defect)
        roundoff = 2.0 * 2.0 * qmat._gamma(d + 4) * p.max() * (1.0 + d * defect)
        for name, block, product in zip(("r12", "r21", "a12"), t.blocks(), full):
            assert np.max(np.abs(block - product)) <= support + roundoff, name
        w = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]])
        expected = w[0, 0] * full[0] + w[1, 1] * full[1] + w[0, 1] * full[2] + w[1, 0] * full[2].conj().T
        mix_round = t.mix_error * t.r_norm
        assert np.max(np.abs(t.mix(w) - expected)) <= np.abs(w).sum() * (support + roundoff + mix_round)
        x = switchcore._probes(d)
        for probed, product in zip(t.probe(x), (full[0], full[2], full[1])):
            assert np.max(np.abs(probed - product @ x)) <= x.shape[0] * (support + roundoff + mix_round)
        if math.isinf(beta):  # one level: R12 is the outer product of W12's first column
            assert np.max(np.abs(t.blocks()[0] - np.outer(w12[:, 0], w12[:, 0].conj()))) <= 4.0 * _U
        h = s.h_s._energies
        traces = {
            "chi": np.trace(full[2]),
            "e12": np.real(full[0].diagonal()) @ h,
            "e21": np.real(full[1].diagonal()) @ h,
            "f_s": full[2].diagonal() @ h,
        }
        for name, value in traces.items():
            assert abs(getattr(t, name) - value) <= 1e-14 * max(1.0, abs(value)), name

    def test_energies_are_diagonal_sums_against_a_diagonal_hamiltonian(self, rng):
        a = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        h = hamiltonian_fock(1.3, 29)
        assert isinstance(h, qmat._DiagonalHermitian)
        einsum = switchcore._tr(a, h.mat)
        assert abs(switchcore._energy(a, h) - einsum) <= 1e-12 * abs(np.diag(a) * 40).sum()
        dense = HermitianOperator(h.mat + 1e-3 * np.eye(30, k=1) + 1e-3 * np.eye(30, k=-1))
        assert switchcore._energy(a, dense) == switchcore._tr(a, dense.mat)

    @pytest.mark.parametrize("dense", ["u1", "u2"])
    def test_a_dense_factor_pairs_with_a_fock_core(self, dense):
        """A Fock operator applies its real core to C-contiguous columns, and
        a dense partner's columns on the support come laid out that way:
        the reports match the all-Fock pair's."""
        s = _readme_point(1.0, 0.5, n_max=84)
        mixed = dataclasses.replace(s, **{dense: UnitaryOperator(getattr(s, dense).mat)})
        assert switchcore._support(s.rho_s._weights).size < s.rho_s.dim
        for report, names in (
            (activation_report, ("chi", "delta_qs", "delta_s")),
            (lambda x: measure_control(x, BlochState(1.0, 0.4)), ("n_m", "delta_sm")),
        ):
            a, b = report(s), report(mixed)
            for name in names:
                assert abs(getattr(a, name) - getattr(b, name)) <= 1e-13, name


def _post_selection(s: SwitchScenario, m: BlochState):
    """measure_control's report and the w it weighs the blocks with."""
    ket = m.to_ket()
    return measure_control(s, m), np.outer(ket.conj(), ket) * s.rho_c.mat


@pytest.fixture
def cholesky_sizes(monkeypatch):
    """The sizes of the Cholesky factorizations that run."""
    sizes = []
    original = np.linalg.cholesky

    def counted(m):
        sizes.append(m.shape[0])
        return original(m)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return sizes


class TestPostSelectedCertificate:
    """rho_sm = sum_ab w_ab T_ab / n_m with w = outer(conj(m), m) o rho_c,
    PSD by the Schur product theorem: its positivity is proved, and the
    Cholesky runs only where the bound over n_m exceeds TOL_PSD."""

    @_QUIET
    @settings(max_examples=40, deadline=None)
    @given(
        seed=_SEED,
        n_max=st.sampled_from([1, 2, 40]),
        beta=st.sampled_from([0.3, 1.0, math.inf]),
        size=st.sampled_from([0.05, 1.0]),
        theta=st.floats(0.2, math.pi - 0.2),
        log_gap=st.floats(-4.0, 0.0),
    )
    # bound / n_m within a factor 2 of TOL_PSD, on both sides of it
    @example(seed=0, n_max=1, beta=1.0, size=0.05, theta=1.1, log_gap=-2.3)
    @example(seed=0, n_max=1, beta=1.0, size=0.05, theta=1.1, log_gap=-2.6)
    @example(seed=0, n_max=40, beta=1.0, size=0.05, theta=1.1, log_gap=-1.4)
    @example(seed=0, n_max=40, beta=1.0, size=0.05, theta=1.1, log_gap=-1.6)
    def test_bound_covers_the_smallest_eigenvalue(self, seed, n_max, beta, size, theta, log_gap):
        """Qubit (n_max = 1) and Fock pairs, with the terms kept as columns
        and mixed by one product: tilde_rho_s and rho_sm.  The measurement
        sits 10^log_gap in polar angle from antipodal, so with nearly
        commuting unitaries (size 0.05) n_m reaches down past the
        certificate's floor."""
        rng = np.random.default_rng(seed)
        if n_max == 1 and size < 1.0:
            u1, u2 = rotation_unitary("x", size), rotation_unitary("y", size)
        elif n_max == 1:
            u1, u2 = (UnitaryOperator(random_unitary(rng, 2)) for _ in range(2))
        else:
            u1, u2 = _fock_pair(DisplacementParams(size, 0.9), SqueezeParams(0.5 * size, 0.4), n_max)
        s = _diagonal_scenario(rng, u1, u2, _thermal(beta, n_max), BlochState(theta, 0.3))
        m = BlochState(abs(math.pi - theta - 10.0**log_gap), 0.3 + math.pi)
        try:
            report, w = _post_selection(s, m)
        except NearZeroPostSelectionError:
            assume(False)
        tilde = activation_report(s).tilde_rho_s
        assert not math.isnan(tilde._psd_bound) and _psd_defect(tilde) <= tilde._psd_bound
        bound = switchcore._post_selected_psd_bound(s._terms, w, s.rho_s.dim) / report.n_m
        assert _psd_defect(report.rho_sm) <= bound
        if bound <= TOL_PSD:
            assert report.rho_sm._psd_bound == bound
        else:
            assert math.isnan(report.rho_sm._psd_bound)
        for rho in (tilde, report.rho_sm):  # the Hermiticity bound holds too
            assert qmat._hermitian_defect(rho.mat) <= rho._herm_bound

    def test_bound_is_attained_by_an_indefinite_weight(self):
        """X and Z anticommute, so W21 = -W12 and sum_ab w_ab T_ab =
        (w00 + w11 - w01 - w10) R12.  With w = [[a, a + e], [a + e, a]],
        lambda_min(w) = -e and the sum is -2 e R12, whose smallest
        eigenvalue -2 e max p is what the bound's first term allows."""
        x = UnitaryOperator(np.array([[0, 1], [1, 0]], dtype=complex))
        z = UnitaryOperator(np.diag([1.0, -1.0]).astype(complex))
        p = np.array([0.7, 0.3])
        s = _diagonal_scenario(None, x, z, p, BlochState(1.0, 0.2))
        t, e = s._terms, 1e-3
        w = np.array([[0.25, 0.25 + e], [0.25 + e, 0.25]], dtype=complex)
        defect = -float(np.linalg.eigvalsh(t.mix(w)).min())
        assert defect == pytest.approx(2.0 * e * p.max(), rel=1e-12)
        assert defect <= switchcore._post_selected_psd_bound(t, w, 2) <= defect * (1.0 + 1e-9)

    @_QUIET
    def test_the_cholesky_runs_past_the_floor_and_for_a_dense_state(self, cholesky_sizes):
        """Nearly commuting D and S: n_m falls from 0.23 to 1.1e-5 as the
        measurement nears antipodal, and bound / n_m crosses TOL_PSD, for
        the thermal state and for the same state given dense, whose terms
        are formed in its eigh basis against the Fock operators' cores."""
        s = cvcase.disp_squeeze_scenario(
            1.0, 1.0, 0.5, 0.0, DisplacementParams(0.05, 0.9), SqueezeParams(0.1, 0.4),
            BlochState(1.1, 0.6), n_max=40,
        )
        dense = dataclasses.replace(s, rho_s=DensityMatrix(s.rho_s.mat))
        d, runs = s.rho_s.dim, []
        for scenario in (s, dense):
            activation_report(scenario)
            for gap in (1.0, 1e-1, 1e-2, 1e-3):
                cholesky_sizes.clear()
                report, w = _post_selection(scenario, BlochState(math.pi - 1.1 + gap, 0.6 + math.pi))
                bound = switchcore._post_selected_psd_bound(scenario._terms, w, d) / report.n_m
                assert cholesky_sizes.count(d) == (0 if bound <= TOL_PSD else 1)
                runs.append((scenario is s, bound <= TOL_PSD))
        for thermal in (True, False):  # both sides of the floor
            assert (thermal, True) in runs and (thermal, False) in runs


def _readme_point(alpha: float, z: float, n_max: int | None = None) -> SwitchScenario:
    """A README-sweep point: control on the equator at phi = 0."""
    return cvcase.disp_squeeze_scenario(
        1.0, 1.0, 0.5, 0.0, DisplacementParams(alpha, 0.9), SqueezeParams(z, 0.4),
        BlochState(math.pi / 2.0, 0.0), n_max=n_max,
    )


class TestDeferredStates:
    """Terms kept as columns: tilde_rho_s and rho_sm are settled on their
    O(d) diagonals and formed only when read; where a bound misses its
    tolerance they are formed and checked at once."""

    M = BlochState(1.0, 0.4)

    def _states(self, s: SwitchScenario):
        """(state, w, n) of tilde_rho_s and rho_sm, as the reports weigh them."""
        rc = s.rho_c.mat
        tilde = activation_report(s).tilde_rho_s
        report, w = _post_selection(s, self.M)
        return [(tilde, np.array([[rc[0, 0].real, 0.0], [0.0, rc[1, 1].real]]), 1.0), (report.rho_sm, w, report.n_m)]

    def test_reports_form_neither_state(self):
        """The probe reads the columns, so even mix's right factor stays
        unbuilt."""
        s = _readme_point(1.0, 0.5, n_max=84)
        for rho, _, _ in self._states(s):
            assert isinstance(rho, _DeferredState) and "mat" not in vars(rho)
        assert "_right" not in vars(s._terms)

    def test_mat_is_the_weighted_sum_over_n_bit_for_bit(self, rng):
        """A Fock point, and a qubit scenario with a dense H_S, whose
        energies are read from the formed matrix."""
        from switchwork.qubitcase import qubit_scenario

        u1, u2 = (UnitaryOperator(random_unitary(rng, 2)) for _ in range(2))
        qubit = qubit_scenario(1.0, 1.0, 0.5, 0.0, u1, u2, BlochState(1.1, 0.6))
        for s in (_readme_point(1.0, 0.5, n_max=84), qubit):
            for rho, w, n in self._states(s):
                expected = s._terms.mix(w)
                expected /= n
                assert isinstance(rho, _DeferredState)
                assert np.array_equal(rho.mat, expected) and rho.mat is rho.mat
                assert not rho.mat.flags.writeable
                DensityMatrix(rho.mat)  # the full check accepts it
                assert _psd_defect(rho) <= rho._psd_bound <= TOL_PSD
                assert qmat._hermitian_defect(rho.mat) <= rho._herm_bound <= qmat.TOL_HERM
                assert np.max(np.abs(rho.mat.diagonal() - rho._diagonal)) <= rho._herm_bound

    def test_the_formed_matrix_is_checked(self, monkeypatch):
        """The checks run again when `.mat` is formed: a weighted sum that
        turned non-Hermitian after the reports settled raises then."""
        s = _readme_point(1.0, 0.5, n_max=40)
        states = self._states(s)
        original = switchcore._SwitchTerms.mix

        def skewed(t, w):
            out = original(t, w)
            out[0, 1] += 1e-9
            return out

        monkeypatch.setattr(switchcore._SwitchTerms, "mix", skewed)
        for rho, _, _ in states:
            with pytest.raises(ValueError, match="not Hermitian"):
                rho.mat

    @pytest.mark.parametrize("missed", ["psd", "hermitian", "trace"])
    def test_a_bound_past_its_tolerance_forms_the_state_at_once(self, monkeypatch, missed):
        s = _readme_point(1.0, 0.5, n_max=40)
        clean = (activation_report(s), measure_control(s, self.M))
        s = _readme_point(1.0, 0.5, n_max=40)
        if missed == "psd":
            monkeypatch.setattr(switchcore, "_mixture_psd_unit", lambda p, w: 2.0 * TOL_PSD)
        elif missed == "hermitian":
            monkeypatch.setattr(switchcore, "_hermitian_bound", lambda t, w, n: 2.0 * qmat.TOL_HERM)
        else:  # an imaginary trace of 1e-9 / n
            original = switchcore._SwitchTerms.diagonal
            monkeypatch.setattr(
                switchcore._SwitchTerms, "diagonal", lambda t, w: original(t, w) + 1e-9j / t.v.shape[0]
            )
        reports = (activation_report(s), measure_control(s, self.M))
        for rho in (reports[0].tilde_rho_s, reports[1].rho_sm):
            assert isinstance(rho, _DeferredState) and "mat" in vars(rho)
            assert math.isnan(rho._psd_bound) == (missed == "psd")
        for report, reference in zip(reports, clean):
            for name in ("delta_s", "delta_c", "delta_qs") if report is reports[0] else ("n_m", "delta_sm"):
                assert abs(getattr(report, name) - getattr(reference, name)) <= 1e-12, name

    @_QUIET
    def test_small_n_m_takes_the_eager_path(self):
        """A Fock point with n_m near 1e-6, where neither the Hermiticity
        nor the positivity bound over n_m is within its tolerance, and the
        near-antipodal U(2) optimum of the qubit tests, whose states are
        formed by the time the reports return: their energies are read
        from the matrix against the qubit's dense H_S."""
        s = _readme_point(0.04, 0.04)
        report, w = _post_selection(s, BlochState(math.pi / 2.0, math.pi))
        assert 3e-7 < report.n_m < 3e-6
        assert switchcore._hermitian_bound(s._terms, w, report.n_m) > qmat.TOL_HERM
        assert switchcore._post_selected_psd_bound(s._terms, w, s.rho_s.dim) / report.n_m > TOL_PSD
        assert "mat" in vars(report.rho_sm) and math.isnan(report.rho_sm._psd_bound)
        assert "mat" not in vars(activation_report(s).tilde_rho_s)

        from switchwork.qubitcase import minimize_delta_sm_u2, qubit_scenario, u2_unitary

        c, m = BlochState(0.3, 0.0), BlochState(math.pi - 0.3, math.pi)
        res = minimize_delta_sm_u2(1.0, 1.0, c, m, budget=2000, seed=1)
        s = qubit_scenario(1.0, 1.0, 0.0, 0.0, *map(u2_unitary, res.params), c)
        for rho in (activation_report(s).tilde_rho_s, measure_control(s, m).rho_sm):
            assert "mat" in vars(rho)

    def test_a_vanishing_n_m_forms_no_state(self, monkeypatch):
        """A divergent point of the README sweep (z = 0, so the unitaries
        commute and n_m is round-off): n_m is read on the diagonal, and the
        flag is raised before any weighted sum is formed."""
        s = _readme_point(1.0, 0.0)

        def forbidden(t, w):
            raise AssertionError("a weighted sum was formed")

        monkeypatch.setattr(switchcore._SwitchTerms, "mix", forbidden)
        with pytest.raises(NearZeroPostSelectionError):
            measure_control(s, BlochState(math.pi / 2.0, math.pi))
