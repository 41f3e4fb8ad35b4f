"""Qubit unitary families: rotation closed forms and the general-unitary
multi-start optimizers."""
from __future__ import annotations

import linecache
import math
import multiprocessing
import pickle
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import minimize as scipy_minimize

from switchwork import qubitcase
from switchwork.qmat import UnitaryOperator
from switchwork.qubitcase import (
    RotationParams,
    U2Params,
    activation_conditions_rotations,
    delta_qs_rotations,
    delta_sm_rotations_beta0,
    implied_epsilon,
    implied_f,
    minimize_delta_qs_u2,
    minimize_delta_sm_u2,
    qubit_scenario,
    rotation_unitary,
    u2_unitary,
)
from switchwork.states import BlochState
from switchwork.switchcore import (
    NearZeroPostSelectionError,
    activation_report,
    assemble_nm,
    assemble_qs,
    assemble_sm,
    measure_control,
    measurement_angles,
    post_selection_vanishes,
)

_SEED = st.integers(min_value=0, max_value=2**31 - 1)
_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


class TestRotationUnitaries:
    def test_x_rotation_matrix(self):
        a = 0.9
        u = rotation_unitary("x", a).mat
        expected = np.array(
            [
                [math.cos(a / 2.0), -1j * math.sin(a / 2.0)],
                [-1j * math.sin(a / 2.0), math.cos(a / 2.0)],
            ]
        )
        assert np.max(np.abs(u - expected)) < 1e-14

    def test_y_rotation_matrix(self):
        a = 1.3
        u = rotation_unitary("y", a).mat
        expected = np.array(
            [
                [math.cos(a / 2.0), -math.sin(a / 2.0)],
                [math.sin(a / 2.0), math.cos(a / 2.0)],
            ],
            dtype=complex,
        )
        assert np.max(np.abs(u - expected)) < 1e-14

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            rotation_unitary("w", 1.0)

    def test_u2_is_unitary(self):
        u = u2_unitary(U2Params(0.3, 1.1, 2.2, 0.7))
        assert isinstance(u, UnitaryOperator)

    def test_u2_global_phase_factor(self):
        base = u2_unitary(U2Params(0.0, 1.1, 2.2, 0.7)).mat
        shifted = u2_unitary(U2Params(0.5, 1.1, 2.2, 0.7)).mat
        assert np.max(np.abs(shifted - np.exp(0.5j) * base)) < 1e-12


class TestRotationClosedForm:
    def test_frozen_value(self):
        v = delta_qs_rotations(
            1.0, 1.3, 0.7, 0.4, RotationParams(math.pi / 3.0, 1.1), BlochState(0.8, 5.1)
        )
        assert v == pytest.approx(0.094238532944610515, abs=1e-14)

    def test_cross_check_agrees_on_random_points(self, rng):
        # cross_check=True re-evaluates the generic matrix path internally
        # and raises on any mismatch beyond 1e-8.
        for _ in range(200):
            delta_qs_rotations(
                rng.uniform(0.5, 2.0),
                rng.uniform(0.0, 3.0),
                rng.uniform(0.0, 2.0),
                rng.uniform(0.0, 2.0 * math.pi),
                RotationParams(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)),
                BlochState(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)),
                cross_check=True,
            )

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(seed=_SEED)
    def test_zero_coupling_never_activates(self, seed):
        rng = np.random.default_rng(seed)
        v = delta_qs_rotations(
            rng.uniform(0.5, 2.0),
            rng.uniform(0.0, 3.0),
            0.0,
            0.0,
            RotationParams(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)),
            BlochState(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)),
        )
        assert v >= -1e-12

    def test_equator_control_with_phase_can_activate(self):
        v = delta_qs_rotations(
            1.0, 1.0, 2.0, 0.0, RotationParams(math.pi, math.pi), BlochState(math.pi / 2.0, 0.0)
        )
        assert v == pytest.approx(-4.0, abs=1e-10)


class TestMeasuredRotationClosedForm:
    def test_frozen_value(self):
        v = delta_sm_rotations_beta0(1.0, math.pi / 4.0, 1.2, 2.0)
        assert v == pytest.approx(0.16848340744339432, abs=1e-12)

    def test_degenerate_rotation_rejected(self):
        with pytest.raises(ValueError, match="multiple of pi"):
            delta_sm_rotations_beta0(1.0, math.pi, 1.0, 1.0)

    def test_cross_check_agrees_on_random_points(self, rng):
        for _ in range(50):
            delta_sm_rotations_beta0(
                1.0,
                rng.uniform(0.3, math.pi - 0.3),
                rng.uniform(0.2, math.pi - 0.2),
                rng.uniform(0.0, 2.0 * math.pi),
                cross_check=True,
            )

    def test_sign_follows_measurement_phase(self):
        # The numerator is w sin(pm); the denominator stays positive.
        neg = delta_sm_rotations_beta0(1.0, math.pi / 2.0, math.pi / 2.0, 4.0)
        pos = delta_sm_rotations_beta0(1.0, math.pi / 2.0, math.pi / 2.0, 2.0)
        assert neg < 0.0 < pos

    def test_interference_cross_check_runs_where_n_m_vanishes(self, monkeypatch):
        # alpha_x = 0 makes the pair commute, so chi = 1 and the anti-aligned
        # measurement has n_m = 0: no renormalized state exists there.
        r, c = RotationParams(0.0, 0.7), BlochState(math.pi / 2.0, 0.0)
        m = BlochState(math.pi / 2.0, math.pi)
        scenario = qubitcase.qubit_scenario(1.0, 0.8, 0.0, 0.0, *qubitcase._rotation_pair(r), c)
        with pytest.raises(NearZeroPostSelectionError):
            measure_control(scenario, m)
        assert activation_conditions_rotations(1.0, 0.8, r, c, m) == (True, True, True)
        original = qubitcase._rotation_delta_f
        monkeypatch.setattr(qubitcase, "_rotation_delta_f", lambda *a: original(*a) + 1.0)
        with pytest.raises(AssertionError, match="rotation interference term"):
            activation_conditions_rotations(1.0, 0.8, r, c, m)

    @pytest.mark.parametrize(
        "c, m",
        [(BlochState(math.pi, 0.0), BlochState(1.0, 4.0)), (BlochState(1.0, 0.0), BlochState(math.pi, 4.0))],
        ids=["control_south_pole", "measurement_south_pole"],
    )
    def test_south_pole_fails_condition_i_and_iii(self, c, m):
        conds = activation_conditions_rotations(1.0, 0.5, RotationParams(1.0, 0.7), c, m)
        assert conds == (False, True, False)

    def test_activation_conditions_flag_negative_points(self, rng):
        hits = 0
        for _ in range(80):
            r = RotationParams(rng.uniform(0.3, 2.8), rng.uniform(0.3, 2.8))
            c = BlochState(rng.uniform(0.2, math.pi - 0.2), rng.uniform(0.0, 2.0 * math.pi))
            m = BlochState(rng.uniform(0.2, math.pi - 0.2), rng.uniform(0.0, 2.0 * math.pi))
            conds = activation_conditions_rotations(1.0, 0.8, r, c, m)
            assert isinstance(conds, tuple) and len(conds) == 3
            hits += all(conds)
        assert hits > 0


class TestU2Optimizers:
    def test_deterministic_given_seed(self):
        a = minimize_delta_qs_u2(1.0, 0.5, 1.0, 0.0, BlochState(math.pi / 2.0, 0.0), budget=2000, seed=7)
        b = minimize_delta_qs_u2(1.0, 0.5, 1.0, 0.0, BlochState(math.pi / 2.0, 0.0), budget=2000, seed=7)
        assert a.value == b.value
        assert a.params == b.params
        assert a.evaluations == b.evaluations

    def test_budget_monotone_improvement(self):
        c = BlochState(math.pi / 2.0, 0.0)
        small = minimize_delta_qs_u2(1.0, 0.5, 1.0, 0.0, c, budget=2000, seed=3)
        large = minimize_delta_qs_u2(1.0, 0.5, 1.0, 0.0, c, budget=6000, seed=3)
        assert large.value <= small.value + 1e-12
        assert large.starts > small.starts

    def test_budget_floor_enforced(self):
        with pytest.raises(ValueError):
            minimize_delta_qs_u2(1.0, 0.5, 1.0, 0.0, BlochState(1.0, 0.0), budget=500)

    def test_known_global_minimum_equator_control(self):
        # At infinite temperature with equator control and zero coupling
        # phase the reachable minimum is -2 |t|.
        res = minimize_delta_qs_u2(
            1.0, 0.0, 1.0, 0.0, BlochState(math.pi / 2.0, 0.0), budget=8000, seed=11
        )
        assert res.value == pytest.approx(-2.0, abs=1e-6)

    def test_measured_minimum_at_quarter_phase(self):
        res = minimize_delta_sm_u2(
            1.0, 0.0, BlochState(math.pi / 2.0, 0.0), BlochState(math.pi / 2.0, math.pi / 2.0),
            budget=8000, seed=11,
        )
        assert res.value == pytest.approx(-0.5, abs=1e-3)
        assert res.divergent_evaluations >= 0

    @pytest.mark.parametrize("c_theta, m_theta", [(0.0, math.pi), (math.pi, 0.0)])
    def test_antipodal_measurement_rejected_before_any_start(self, monkeypatch, c_theta, m_theta):
        # n_m <= (1 + cos(theta_c - theta_m)) / 2 = 0 for every unitary pair.
        def no_starts(*args):
            raise AssertionError("a Nelder-Mead start ran")

        monkeypatch.setattr(qubitcase, "_multistart_minimize", no_starts)
        with pytest.raises(ValueError, match="antipodal"):
            minimize_delta_sm_u2(
                1.0, 1.0, BlochState(c_theta, 0.0), BlochState(m_theta, 0.0), budget=4000, seed=0
            )

    def test_implied_slope_inversions(self):
        assert implied_epsilon(-2.0, 0.0, 1.0) == pytest.approx(-20.0)
        assert implied_epsilon(0.0, 0.0, 1.0) == pytest.approx(12.0)
        assert implied_f(-0.5, 1.0) == pytest.approx(-16.0)


# Stub objectives for the multistart driver.  They are module-level so that
# they pickle into pool workers.
_stub_divergent_calls = 0


def _half_divergent_stub(x: np.ndarray) -> float:
    """+inf wherever the first angle lies in [0, pi) (mod 2 pi), else a
    smooth bowl; counts its +inf returns in the calling process."""
    global _stub_divergent_calls
    if x[0] % (2.0 * math.pi) < math.pi:
        _stub_divergent_calls += 1
        return math.inf
    return float(np.sum(np.cos(x)))


_FIRST_START_ANGLE = qubitcase._sobol_starts(4, 3)[0, 0]  # the others lie > 1 rad away


def _flat_slow_first_stub(x: np.ndarray) -> float:
    """Constant, so every start ties; slow near the first start, so that it
    finishes last in a pool."""
    if abs(x[0] - _FIRST_START_ANGLE) < 0.5:
        time.sleep(5e-4)
    return 0.0


def _failing_stub(x: np.ndarray) -> float:
    raise ValueError("stub objective failed at the first evaluation")


def _force_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(qubitcase, "_pool_workers", lambda n_starts: workers)


@pytest.mark.skipif(not _HAS_FORK, reason="the start pool needs the fork start method")
class TestMultistartPool:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_pooled_delta_qs_equals_in_process(self, monkeypatch, workers):
        args = (1.0, 0.7, 1.3, 0.4, BlochState(1.1, 0.5))
        _force_workers(monkeypatch, workers)
        pooled = minimize_delta_qs_u2(*args, budget=3000, seed=4)
        _force_workers(monkeypatch, 1)
        serial = minimize_delta_qs_u2(*args, budget=3000, seed=4)
        assert pooled == serial
        assert repr(pooled) == repr(serial)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pooled_delta_sm_equals_in_process(self, monkeypatch, workers):
        args = (1.0, 0.4, BlochState(1.2, 0.3), BlochState(1.0, 2.0))
        _force_workers(monkeypatch, workers)
        pooled = minimize_delta_sm_u2(*args, budget=3000, seed=9)
        _force_workers(monkeypatch, 1)
        serial = minimize_delta_sm_u2(*args, budget=3000, seed=9)
        assert pooled == serial
        assert repr(pooled) == repr(serial)

    # A simplex made only of +inf points must not warn (scipy's inf - inf did).
    @pytest.mark.filterwarnings("error")
    def test_divergent_counts_are_summed_over_starts(self, monkeypatch):
        global _stub_divergent_calls
        _force_workers(monkeypatch, 1)
        _stub_divergent_calls = 0
        serial = qubitcase._multistart_minimize(_half_divergent_stub, 2000, 5)
        assert serial[3] == _stub_divergent_calls > 0
        _force_workers(monkeypatch, 2)
        pooled = qubitcase._multistart_minimize(_half_divergent_stub, 2000, 5)
        assert pooled == serial

    def test_ties_go_to_the_lowest_start_even_when_it_finishes_last(self, monkeypatch):
        _force_workers(monkeypatch, 2)
        value, params, _, _, starts = qubitcase._multistart_minimize(_flat_slow_first_stub, 2000, 3)
        assert starts == 4
        first = qubitcase._nelder_mead_start((_flat_slow_first_stub, qubitcase._sobol_starts(4, 3)[0]))
        assert value == first[0] == 0.0
        x = first[1]
        assert params == (U2Params(0.0, *x[:3]), U2Params(0.0, *x[3:]))

    def test_worker_exception_reaches_caller(self, monkeypatch):
        _force_workers(monkeypatch, 2)
        with pytest.raises(ValueError, match="stub objective failed at the first evaluation"):
            qubitcase._multistart_minimize(_failing_stub, 2000, 0)
        # The pool survives a failed call.
        res = minimize_delta_qs_u2(1.0, 0.5, 1.0, 0.0, BlochState(math.pi / 2.0, 0.0), budget=2000, seed=7)
        assert res.starts == 4

    def test_worker_count_rule(self, monkeypatch):
        monkeypatch.setattr(qubitcase.os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
        assert qubitcase._pool_workers(100) == 8
        assert qubitcase._pool_workers(3) == 3
        monkeypatch.setattr(qubitcase.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert qubitcase._pool_workers(16) == 1


def _terraced_stub(x) -> float:
    """Piecewise constant in steps of 0.05 rad, so nearby vertices tie at
    finite values."""
    return float(math.floor(20.0 * x[0]) + 2 * math.floor(20.0 * x[1]) % 7)


_ZERO_START = qubitcase._sobol_starts(1, 0)[0]


def _signed_zero_stub(x) -> float:
    """-0.0 at _ZERO_START, the best vertex throughout, and 0.0 elsewhere:
    every score ties, and np.min of the scores is 0.0."""
    return -0.0 if x == _ZERO_START.tolist() else 0.0


def _divergent_stub(x) -> float:
    return math.inf


# The line of scipy's Nelder-Mead loop that asks for each kind of step.
_STEP_CALLS = {
    "expansion": "func(xe)",
    "outside contraction": "func(xc)",
    "inside contraction": "func(xcc)",
    "shrink": "func(sim[j])",
}


def _scipy_nelder_mead(objective, x0: np.ndarray, maxfev: int):
    """The reference: scipy's Nelder-Mead with the optimizer's settings.
    Returns its result, the number of evaluations scored +inf and, per
    evaluation, the source line of scipy's loop that asked for it."""
    divergent = 0
    callers = []

    def counted(x: np.ndarray) -> float:
        nonlocal divergent
        frame = sys._getframe(2)  # counted <- scipy's counting wrapper <- its loop
        callers.append(linecache.getline(frame.f_code.co_filename, frame.f_lineno))
        value = objective(x.tolist())
        divergent += value == math.inf
        return value

    with np.errstate(invalid="ignore"):  # scipy subtracts inf from inf on a +inf simplex
        res = scipy_minimize(
            counted, x0, method="Nelder-Mead",
            options={"maxfev": maxfev, "xatol": 1e-10, "fatol": 1e-12, "adaptive": False},
        )
    return res, divergent, callers


class TestSimplexMatchesScipy:
    """The in-module simplex loop repeats scipy's iterates bit for bit, also
    where the budget runs out in the middle of a step."""

    def _assert_same(self, objective, x0: np.ndarray, maxfev: int) -> list[str]:
        """The final simplex, its scores, nfev and the +inf count agree."""
        res, divergent, callers = _scipy_nelder_mead(objective, x0, maxfev)
        want = (*(a.tolist() for a in res.final_simplex), res.nfev, divergent)
        got = qubitcase._simplex_minimize(objective, x0.tolist(), maxfev)
        assert got == want and repr(got) == repr(want), maxfev
        return callers

    def _check_start(self, objective, x0: np.ndarray) -> set[str]:
        """The optimizer's start against scipy's result; then budgets that
        run out in the initial simplex, at the first evaluation of each kind
        of step and at the third evaluation of the first shrink, whose
        vertex has moved but keeps its old score.  Returns the kinds of step
        that were cut."""
        res, divergent, _ = _scipy_nelder_mead(objective, x0, qubitcase._EVALS_PER_START)
        want = (float(res.fun), np.mod(res.x, 2.0 * math.pi).tolist(), int(res.nfev), divergent)
        fun, x, nfev, start_divergent = qubitcase._nelder_mead_start((objective, x0))
        got = (fun, x.tolist(), nfev, start_divergent)
        assert got == want and repr(got) == repr(want)
        callers = self._assert_same(objective, x0, qubitcase._EVALS_PER_START)
        self._assert_same(objective, x0, 3)
        cut = set()
        for kind, call in _STEP_CALLS.items():
            first = next((i for i, line in enumerate(callers) if call in line), None)
            if first is not None:
                self._assert_same(objective, x0, first)
                cut.add(kind)
        first = next((i for i, line in enumerate(callers) if "func(sim[j])" in line), None)
        if first is not None:
            assert "func(sim[j])" in callers[first + 2]
            self._assert_same(objective, x0, first + 2)
        return cut

    def test_delta_qs_starts(self):
        cut = set()
        for i, beta in enumerate(_BETAS):
            objective = qubitcase._delta_qs_objective(1.0, beta, 1.3, 0.4, BlochState(1.1, 0.5))
            for x0 in qubitcase._sobol_starts(2, i):
                cut |= self._check_start(objective, x0)
        assert cut == set(_STEP_CALLS)

    def test_delta_sm_starts(self):
        # The anti-aligned measurement scores +inf on part of the torus.
        c = BlochState(1.2, 0.3)
        cut = set()
        for i, beta in enumerate(_BETAS):
            for m in (BlochState(1.0, 2.0), BlochState(math.pi - 1.2, 0.3 + math.pi)):
                objective = qubitcase._delta_sm_objective(1.0, beta, c, m)
                for x0 in qubitcase._sobol_starts(1, i):
                    cut |= self._check_start(objective, x0)
        assert cut == set(_STEP_CALLS)

    def test_finite_ties_keep_numpys_order(self, monkeypatch):
        tied = 0
        argsort = qubitcase._argsort

        def counting_argsort(f):
            nonlocal tied
            tied += len(set(f)) < len(f)
            return argsort(f)

        monkeypatch.setattr(qubitcase, "_argsort", counting_argsort)
        for x0 in qubitcase._sobol_starts(4, 2):
            self._check_start(_terraced_stub, x0)
        assert tied >= 100

    def test_signed_zero_scores(self):
        self._check_start(_signed_zero_stub, _ZERO_START)
        fun, x, _, _ = qubitcase._nelder_mead_start((_signed_zero_stub, _ZERO_START))
        assert repr(fun) == "0.0" and np.array_equal(x, _ZERO_START)

    def test_all_divergent_start(self):
        x0 = qubitcase._sobol_starts(1, 0)[0]
        self._check_start(_divergent_stub, x0)
        fun, _, nfev, divergent = qubitcase._nelder_mead_start((_divergent_stub, x0))
        assert fun == math.inf and nfev == divergent == qubitcase._EVALS_PER_START


def _numpy_rzyz(lam, gamma, delta) -> np.ndarray:
    """R_z(lam) R_y(gamma) R_z(delta) as a numpy array."""
    cl, sl = math.cos(lam / 2.0), math.sin(lam / 2.0)
    cg, sg = math.cos(gamma / 2.0), math.sin(gamma / 2.0)
    cd, sd = math.cos(delta / 2.0), math.sin(delta / 2.0)
    ez_l, ez_lc = complex(cl, -sl), complex(cl, sl)
    ez_d, ez_dc = complex(cd, -sd), complex(cd, sd)
    return np.array(
        [[ez_l * cg * ez_d, -ez_l * sg * ez_dc], [ez_lc * sg * ez_d, ez_lc * cg * ez_dc]],
        dtype=complex,
    )


def _numpy_pair_terms(x, omega, p0, p1):
    """The U(2) objective kernel written with np.mod, two 2x2 `@` products
    and numpy-scalar arithmetic: the bit reference for _u2_pair_terms."""
    w = np.mod(x, 2.0 * math.pi)
    u1, u2 = _numpy_rzyz(w[0], w[1], w[2]), _numpy_rzyz(w[3], w[4], w[5])
    w12, w21 = u2 @ u1, u1 @ u2
    e12 = omega * (abs(w12[1, 0]) ** 2 * p0 + abs(w12[1, 1]) ** 2 * p1)
    e21 = omega * (abs(w21[1, 0]) ** 2 * p0 + abs(w21[1, 1]) ** 2 * p1)
    x_chi = p0 * (w12[0, 0] * w21[0, 0].conjugate() + w12[1, 0] * w21[1, 0].conjugate()) + p1 * (
        w12[0, 1] * w21[0, 1].conjugate() + w12[1, 1] * w21[1, 1].conjugate()
    )
    return w12, w21, e12, e21, x_chi


def _numpy_delta_qs(o, x):
    _, _, e12, e21, x_chi = _numpy_pair_terms(x, o.omega, o.p0, o.p1)
    return assemble_qs(o.rc00, o.rc11, o.k, x_chi, e12 - o.e_s, e21 - o.e_s)[0]


def _numpy_delta_sm(o, x):
    w12, w21, e12, e21, x_chi = _numpy_pair_terms(x, o.omega, o.p0, o.p1)
    f_s = o.omega * (o.p0 * w12[1, 0] * w21[1, 0].conjugate() + o.p1 * w12[1, 1] * w21[1, 1].conjugate())
    n_m, bracket = assemble_sm(o.angles, x_chi, e12 - o.e_s, e21 - o.e_s, f_s - x_chi * o.e_s)
    if post_selection_vanishes(n_m):
        return math.inf
    return bracket / n_m


_BETAS = (0.2, 1.0, math.inf)


def _bit_pin_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """Angles in [-10, 20), so the wrap to [0, 2 pi) acts; every third pair
    has U1 = U2, which commute."""
    x = rng.uniform(-10.0, 20.0, size=(n, 6))
    x[::3, 3:] = x[::3, :3]
    return x


class TestObjectiveKernelBits:
    """The objectives equal the numpy-scalar kernel bit for bit."""

    def _assert_bits_equal(self, objective, reference, points) -> int:
        """Compare at every point; return how many scored +inf."""
        infinite = 0
        for x in points:
            got, want = objective(x.tolist()), reference(objective, x)
            assert got == want and repr(got) == repr(float(want)), x
            infinite += got == math.inf
        return infinite

    def test_delta_qs(self, rng):
        for beta in _BETAS:
            objective = qubitcase._delta_qs_objective(1.0, beta, 1.3, 0.4, BlochState(1.1, 0.5))
            self._assert_bits_equal(objective, _numpy_delta_qs, _bit_pin_points(rng, 700))

    def test_delta_sm(self, rng):
        # The anti-aligned pair scores +inf at the commuting points.
        c = BlochState(1.2, 0.3)
        infinite = 0
        for beta in _BETAS:
            for m in (BlochState(1.0, 2.0), BlochState(math.pi - 1.2, 0.3 + math.pi)):
                objective = qubitcase._delta_sm_objective(1.0, beta, c, m)
                infinite += self._assert_bits_equal(objective, _numpy_delta_sm, _bit_pin_points(rng, 350))
        assert infinite >= 300


_ANGLES6 = st.lists(st.floats(min_value=-10.0, max_value=20.0), min_size=6, max_size=6)
_BLOCH = st.builds(
    BlochState,
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
)


def _pair(x) -> tuple[UnitaryOperator, UnitaryOperator]:
    return u2_unitary(U2Params(0.0, *x[:3])), u2_unitary(U2Params(0.0, *x[3:]))


class TestObjectivesMatchCheckedPath:
    """Away from any optimum, each objective agrees with the checked
    generic path on the same pair."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        x=_ANGLES6,
        beta=st.sampled_from(_BETAS),
        t_abs=st.floats(min_value=0.0, max_value=2.0),
        t_phase=st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
        c=_BLOCH,
    )
    def test_delta_qs(self, x, beta, t_abs, t_phase, c):
        want = activation_report(qubit_scenario(1.0, beta, t_abs, t_phase, *_pair(x), c)).delta_qs
        got = qubitcase._delta_qs_objective(1.0, beta, t_abs, t_phase, c)(x)
        assert abs(got - want) <= 1e-12

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(x=_ANGLES6, beta=st.sampled_from(_BETAS), c=_BLOCH, m=_BLOCH)
    def test_delta_sm(self, x, beta, c, m):
        s = qubit_scenario(1.0, beta, 0.0, 0.0, *_pair(x), c)
        n_m = assemble_nm(measurement_angles(c, m), s._terms.chi)
        assume(n_m > 1e-9)
        want = measure_control(s, m).delta_sm
        got = qubitcase._delta_sm_objective(1.0, beta, c, m)(x)
        # delta_sm = bracket / n_m: the round-off of a few tens of eps in
        # bracket and n_m grows as 1/n_m once n_m falls below 1e-2.
        assert abs(got - want) <= max(1e-12, 1e-14 / n_m)


class TestObjectivesPickle:
    @pytest.mark.parametrize(
        "objective",
        [
            qubitcase._delta_qs_objective(1.0, 0.7, 1.3, 0.4, BlochState(1.1, 0.5)),
            qubitcase._delta_sm_objective(1.0, 0.4, BlochState(1.2, 0.3), BlochState(1.0, 2.0)),
        ],
        ids=["delta_qs", "delta_sm"],
    )
    def test_round_trip_is_bit_equal(self, objective, rng):
        restored = pickle.loads(pickle.dumps(objective))
        assert restored == objective
        for x in rng.uniform(-1.0, 8.0, size=(50, 6)).tolist():
            before, after = objective(x), restored(x)
            assert repr(before) == repr(after)
