"""Qubit unitary families: rotation closed forms and the general-unitary
multi-start optimizers."""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from switchwork import qubitcase
from switchwork.qmat import DensityMatrix, UnitaryOperator, _DeferredState
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
from switchwork.states import BlochState, ThermalParams, gibbs_qubit
from switchwork.switchcore import (
    TOL_ENERGY,
    KernelTerms,
    NearZeroPostSelectionError,
    activation_report,
    assemble_qs,
    assemble_sm,
    measure_control,
    measurement_angles,
    post_selection_vanishes,
    pure_control_weights,
)

_SEED = st.integers(min_value=0, max_value=2**31 - 1)


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

    def test_closed_form_matches_generic_path_on_random_points(self, rng):
        for _ in range(200):
            args = (rng.uniform(0.5, 2.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0),
                    rng.uniform(0.0, 2.0 * math.pi))
            r = RotationParams(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi))
            c = BlochState(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
            generic = activation_report(
                qubit_scenario(*args, *qubitcase._rotation_pair(r), c)
            ).delta_qs
            assert abs(delta_qs_rotations(*args, r, c) - generic) <= TOL_ENERGY

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

    def test_rotation_terms_match_generic_path_on_random_points(self, rng):
        # The module docstring's chi, delta_12 = delta_21 and df against the
        # scenario's d-space terms.
        for _ in range(100):
            omega, beta = rng.uniform(0.5, 2.0), rng.uniform(0.0, 3.0)
            r = RotationParams(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi))
            c = BlochState(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
            t = qubit_scenario(omega, beta, 0.0, 0.0, *qubitcase._rotation_pair(r), c)._terms
            terms = qubitcase._rotation_terms(omega, beta, r)
            assert abs(terms.chi_m1 - (t.chi - 1.0)) <= TOL_ENERGY
            assert abs(terms.d12 - (t.e12 - t.e_s)) <= TOL_ENERGY
            assert abs(terms.d21 - (t.e21 - t.e_s)) <= TOL_ENERGY
            assert abs(terms.df - (t.f_s - t.chi * t.e_s)) <= TOL_ENERGY

    @pytest.mark.parametrize("angle", [1e-2, 1e-4, 1e-6])
    def test_tiny_angles_keep_their_digits(self, angle):
        # At beta = 0 only the control term -2 |t| cos(theta + pc) sin(tc)
        # sin^2(ax/2) sin^2(ay/2), of order angle^4, is left.  Formed from
        # chi and then 1 subtracted, it would round to 0 at angle = 1e-4.
        omega, t_abs, t_phase, c = 1.0, 0.7, 0.4, BlochState(0.8, 5.1)
        value = delta_qs_rotations(omega, 0.0, t_abs, t_phase, RotationParams(angle, angle), c)
        with mpmath.workdps(50):
            ax = ay = mpmath.mpf(angle)
            tau = mpmath.tanh(0)
            phase = mpmath.mpf(t_phase) + mpmath.mpf(c.phi)
            tc = mpmath.mpf(c.theta)
            bracket = (
                1 - mpmath.cos(ax) * mpmath.cos(ay)
                + (t_abs / mpmath.mpf(omega)) * mpmath.sin(ax) * mpmath.sin(ay)
                * mpmath.sin(tc) * mpmath.sin(phase)
            )
            exact = (omega / mpmath.mpf(2)) * bracket * tau - 2 * t_abs * mpmath.cos(
                phase
            ) * mpmath.sin(tc) * mpmath.sin(ax / 2) ** 2 * mpmath.sin(ay / 2) ** 2
            exact = float(exact)
        assert exact != 0.0
        assert abs(value - exact) <= 1e-12 * abs(exact)


class TestMeasuredRotationClosedForm:
    def test_frozen_value(self):
        v = delta_sm_rotations_beta0(1.0, math.pi / 4.0, 1.2, 2.0)
        assert v == pytest.approx(0.16848340744339432, abs=1e-12)

    def test_degenerate_rotation_rejected(self):
        with pytest.raises(ValueError, match="multiple of pi"):
            delta_sm_rotations_beta0(1.0, math.pi, 1.0, 1.0)

    def test_closed_form_matches_generic_path_on_random_points(self, rng):
        # The closed form is the beta -> 0 limit; the generic path runs at 1e-9.
        for _ in range(50):
            alpha = rng.uniform(0.3, math.pi - 0.3)
            m = BlochState(rng.uniform(0.2, math.pi - 0.2), rng.uniform(0.0, 2.0 * math.pi))
            scenario = qubit_scenario(
                1.0, 1e-9, 0.0, 0.0, *qubitcase._rotation_pair(RotationParams(alpha, alpha)),
                BlochState(math.pi / 2.0, 0.0),
            )
            closed = delta_sm_rotations_beta0(1.0, alpha, m.theta, m.phi)
            assert abs(closed - measure_control(scenario, m).delta_sm) <= 1e-6

    def test_sign_follows_measurement_phase(self):
        # The numerator is w sin(pm); the denominator stays positive.
        neg = delta_sm_rotations_beta0(1.0, math.pi / 2.0, math.pi / 2.0, 4.0)
        pos = delta_sm_rotations_beta0(1.0, math.pi / 2.0, math.pi / 2.0, 2.0)
        assert neg < 0.0 < pos

    def test_interference_term_matches_scenario_where_n_m_vanishes(self):
        # alpha_x = 0 makes the pair commute, so chi = 1 and the anti-aligned
        # measurement has n_m = 0: no renormalized state exists there, but
        # the scenario's d-space F_S - chi E_S does not involve n_m.
        r, c = RotationParams(0.0, 0.7), BlochState(math.pi / 2.0, 0.0)
        m = BlochState(math.pi / 2.0, math.pi)
        scenario = qubit_scenario(1.0, 0.8, 0.0, 0.0, *qubitcase._rotation_pair(r), c)
        with pytest.raises(NearZeroPostSelectionError):
            measure_control(scenario, m)
        assert activation_conditions_rotations(1.0, 0.8, r, c, m) == (True, True, True)
        t = scenario._terms
        generic = t.f_s - t.chi * t.e_s
        assert abs(qubitcase._rotation_terms(1.0, 0.8, r).df - generic) <= TOL_ENERGY

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: delta_sm_rotations_beta0(math.nan, 1.0, 1.0, 1.0), "omega"),
            (lambda: delta_sm_rotations_beta0(1.0, 1.0, 1.0, math.nan), "phi_m"),
            (lambda: delta_sm_rotations_beta0(1.0, 1.0, 1.0, 7.0), "phi_m"),
            (lambda: delta_sm_rotations_beta0(1.0, math.nan, 1.0, 1.0), "alpha"),
            (lambda: activation_conditions_rotations(
                math.nan, 1.0, RotationParams(1.0, 1.0), BlochState(1.0), BlochState(1.0)
            ), "omega"),
            (lambda: activation_conditions_rotations(
                1.0, math.nan, RotationParams(1.0, 1.0), BlochState(1.0), BlochState(1.0)
            ), "beta"),
            (lambda: delta_qs_rotations(
                1.0, math.nan, 0.5, 0.0, RotationParams(1.0, 1.0), BlochState(1.0)
            ), "beta"),
        ],
        ids=["sm_nan_omega", "sm_nan_phi_m", "sm_phi_m_7", "sm_nan_alpha",
             "conditions_nan_omega", "conditions_nan_beta", "qs_nan_beta"],
    )
    def test_rotation_forms_reject_a_bad_input(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

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
            # The closed-form df the conditions read is the scenario's.
            t = qubit_scenario(1.0, 0.8, 0.0, 0.0, *qubitcase._rotation_pair(r), c)._terms
            df = qubitcase._rotation_terms(1.0, 0.8, r).df
            assert abs(df - (t.f_s - t.chi * t.e_s)) <= TOL_ENERGY
        assert hits > 0


class TestU2Optimizers:
    def test_deterministic_given_seed(self):
        a = minimize_delta_qs_u2(1.0, 0.5, 1.0, 0.0, BlochState(math.pi / 2.0, 0.0), budget=2000, seed=7)
        b = minimize_delta_qs_u2(1.0, 0.5, 1.0, 0.0, BlochState(math.pi / 2.0, 0.0), budget=2000, seed=7)
        assert a.value == b.value
        assert a.params == b.params
        assert a.evaluations == b.evaluations

    def test_budget_monotone_improvement(self):
        # A certified call stops at the same start for every budget that
        # reaches it; an uncertified one (off the equator, so -E_S is out of
        # reach) runs every start, and a larger budget appends starts.
        c = BlochState(math.pi / 2.0, 0.0)
        small = minimize_delta_qs_u2(1.0, 0.5, 1.0, 0.0, c, budget=2000, seed=3)
        large = minimize_delta_qs_u2(1.0, 0.5, 1.0, 0.0, c, budget=6000, seed=3)
        assert large == small
        args = (1.0, 0.4, BlochState(1.2, 0.3), BlochState(1.0, 2.0))
        small = minimize_delta_sm_u2(*args, budget=2000, seed=9)
        large = minimize_delta_sm_u2(*args, budget=4000, seed=9)
        assert large.value <= small.value
        assert (small.starts, large.starts) == (4, 8)

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

    def test_near_antipodal_measurement_returns_a_bounded_value(self):
        """(0.3, 0) and (pi - 0.3, pi) are antipodal on the sphere, not in
        theta alone, and lie on a meridian; with seed 13 the search settles
        at n_m = 8.1e-6 with a value of -1.5e-12.  The result is finite,
        lies in [-E_S, omega - E_S] with E_S = omega p1 of the Gibbs qubit,
        and agrees with the checked path.  Its rho_sm stays unformed until
        read (its energy is read on its diagonal against the qubit's
        diagonal H_S), and then passes the full check."""
        omega, beta = 1.0, 1.0
        c, m = BlochState(0.3, 0.0), BlochState(math.pi - 0.3, math.pi)
        e_s = omega * gibbs_qubit(ThermalParams(beta, omega)).mat[1, 1].real
        res = minimize_delta_sm_u2(omega, beta, c, m, budget=2000, seed=13)
        s = qubit_scenario(omega, beta, 0.0, 0.0, *map(u2_unitary, res.params), c)
        report = measure_control(s, m)
        assert 1e-6 < report.n_m < 1e-5
        assert isinstance(report.rho_sm, _DeferredState) and "mat" not in vars(report.rho_sm)
        DensityMatrix(report.rho_sm.mat)
        assert math.isfinite(res.value)
        assert -e_s <= res.value <= omega - e_s
        assert abs(report.delta_sm - res.value) <= TOL_ENERGY

    def test_implied_slope_inversions(self):
        assert implied_epsilon(-2.0, 0.0, 1.0) == pytest.approx(-20.0)
        assert implied_epsilon(0.0, 0.0, 1.0) == pytest.approx(12.0)
        assert implied_f(-0.5, 1.0) == pytest.approx(-16.0)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: implied_epsilon(-1.0, math.pi / 2.0, 1.0), "undetermined"),
            (lambda: implied_epsilon(-1.0, 0.3, 0.0), "t_abs"),
            (lambda: implied_f(-0.1, 0.0), "omega"),
            (lambda: implied_f(-0.1, -1.0), "omega"),
            (lambda: implied_f(-0.1, math.nan), "omega"),
        ],
        ids=["eps_cos_zero", "eps_t_zero", "f_omega_zero", "f_omega_negative", "f_omega_nan"],
    )
    def test_implied_inversions_reject_a_bad_input(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


# Stub objectives for the multistart driver.
_GAP = qubitcase._CERTIFIED_GAP
_stub_divergent_calls = 0


def _half_divergent_stub(x: list[float]) -> float:
    """+inf wherever the first angle lies in [0, pi) (mod 2 pi), else a
    smooth bowl; counts its +inf returns."""
    global _stub_divergent_calls
    if x[0] % (2.0 * math.pi) < math.pi:
        _stub_divergent_calls += 1
        return math.inf
    return float(np.sum(np.cos(x)))


def _flat_stub(x: list[float]) -> float:
    """Constant, so every start ties."""
    return 0.0


def _failing_stub(x: list[float]) -> float:
    raise ValueError("stub objective failed at the first evaluation")


def _start(stub, x0) -> tuple[float, list[float], int, int]:
    """One start as _multistart_minimize runs it: (best score, best vertex, nfev,
    evaluations scored +inf)."""
    sim, fsim, nfev, divergent = qubitcase._simplex_minimize(stub, x0, qubitcase._EVALS_PER_START)
    return fsim[0], sim[0], nfev, divergent


def _recheck(stub):
    """A _multistart_minimize recheck that scores the returned pair with the stub itself."""
    return lambda params: stub([v for p in params for v in (p.lam, p.gamma, p.delta)])


def _counts(res) -> tuple[int, int, int]:
    return res.evaluations, res.divergent_evaluations, res.starts


class TestMultistart:
    # A simplex made only of +inf points must not warn (scipy's inf - inf did).
    @pytest.mark.filterwarnings("error")
    def test_divergent_counts_are_summed_over_the_starts_that_ran(self):
        global _stub_divergent_calls
        outcomes = [_start(_half_divergent_stub, x0) for x0 in qubitcase._starts(4, 5)]
        recheck = _recheck(_half_divergent_stub)
        _stub_divergent_calls = 0
        every = qubitcase._multistart_minimize(_half_divergent_stub, -math.inf, _GAP, 2000, 5, recheck)
        assert _counts(every) == (sum(o[2] for o in outcomes), sum(o[3] for o in outcomes), 4)
        assert every.divergent_evaluations == _stub_divergent_calls > 0
        # With the best start's value as the bound, the call stops there.
        funs = [o[0] for o in outcomes]
        last = funs.index(min(funs))
        stopped = qubitcase._multistart_minimize(_half_divergent_stub, min(funs), _GAP, 2000, 5, recheck)
        ran = outcomes[: last + 1]
        assert stopped.value == min(funs)
        assert _counts(stopped) == (sum(o[2] for o in ran), sum(o[3] for o in ran), last + 1)

    def test_ties_go_to_the_lowest_start(self):
        res = qubitcase._multistart_minimize(_flat_stub, -math.inf, _GAP, 2000, 3, _recheck(_flat_stub))
        assert res.starts == 4
        first = _start(_flat_stub, qubitcase._starts(4, 3)[0])
        assert res.value == first[0] == 0.0
        x = [v % (2.0 * math.pi) for v in first[1]]
        assert res.params == (U2Params(0.0, *x[:3]), U2Params(0.0, *x[3:]))

    def test_objective_exception_reaches_caller(self):
        with pytest.raises(ValueError, match="stub objective failed at the first evaluation"):
            qubitcase._multistart_minimize(_failing_stub, -math.inf, _GAP, 2000, 0, _recheck(_failing_stub))


# Results of the driver when it runs every start, pinned bit for bit.
_ALL_STARTS_QS_REPR = (
    "U2MinimizeResult(value=-1.5023861836985737, params=(U2Params(alpha=0.0, "
    "lam=0.23407653165442, gamma=3.141592659351735, delta=5.339849468854892), "
    "U2Params(alpha=0.0, lam=0.4678146076172367, gamma=3.1415926599579125, "
    "delta=2.8329219277690387)), evaluations=2890, divergent_evaluations=0, starts=6, seed=4)"
)
_ALL_STARTS_SM_REPR = (
    "U2MinimizeResult(value=-0.27785894324704863, params=(U2Params(alpha=0.0, "
    "lam=0.8499446091651901, gamma=3.1415926562784957, delta=3.7347856909192227), "
    "U2Params(alpha=0.0, lam=3.3784621783422484, gamma=3.1415926656406885, "
    "delta=4.777113702809231)), evaluations=3000, divergent_evaluations=0, starts=6, seed=9)"
)
_QS_ARGS = (1.0, 0.7, 1.3, 0.4, BlochState(1.1, 0.5))
_SM_ARGS = (1.0, 0.4, BlochState(1.2, 0.3), BlochState(1.0, 2.0))
_SM_EQUATOR_ARGS = (1.0, 0.0, BlochState(math.pi / 2.0, 0.0), BlochState(math.pi / 2.0, math.pi / 2.0))


class TestCertifiedStop:
    def test_without_a_bound_every_start_runs(self, monkeypatch):
        monkeypatch.setattr(qubitcase, "_delta_qs_lower_bound", lambda *args: -math.inf)
        monkeypatch.setattr(qubitcase, "_delta_sm_lower_bound", lambda *args: -math.inf)
        assert repr(minimize_delta_qs_u2(*_QS_ARGS, budget=3000, seed=4)) == _ALL_STARTS_QS_REPR
        assert repr(minimize_delta_sm_u2(*_SM_ARGS, budget=3000, seed=9)) == _ALL_STARTS_SM_REPR

    def test_certified_call_keeps_the_value_and_stops_early(self):
        qs = minimize_delta_qs_u2(*_QS_ARGS, budget=3000, seed=4)
        assert qs.value == -1.5023861836985737
        assert abs(qs.value - qubitcase._delta_qs_lower_bound(*_QS_ARGS)) <= qubitcase._CERTIFIED_GAP
        assert (qs.starts, qs.evaluations) == (1, 456)
        # Off the equator -E_S is out of reach, so every start runs.
        assert repr(minimize_delta_sm_u2(*_SM_ARGS, budget=3000, seed=9)) == _ALL_STARTS_SM_REPR

    @pytest.mark.parametrize(
        "minimize, args",
        [
            (minimize_delta_qs_u2, (1.0, 0.5, 1e4, 0.3, BlochState(math.pi / 2.0, 0.0))),
            # The bound is 0 here, while the control term is of order |t|.
            (minimize_delta_qs_u2, (1.0, 0.0, 1e6, math.pi, BlochState(math.pi / 2.0, 0.0))),
            (minimize_delta_sm_u2, (1e4, 1e-4, BlochState(math.pi / 2.0, 0.0), BlochState(math.pi / 2.0, 1.0))),
        ],
        ids=["qs_t1e4", "qs_t1e6_zero_bound", "sm_omega1e4"],
    )
    def test_large_energy_scales_do_not_fail_on_round_off(self, minimize, args):
        # Each call comes a few ulps of its energy scale below the bound,
        # which is more than 1e-12; the gap grows with the scale.
        res = minimize(*args, budget=4000, seed=0)
        assert math.isfinite(res.value)

    @pytest.mark.parametrize(
        "name, minimize, args",
        [
            ("_delta_qs_lower_bound", minimize_delta_qs_u2, _QS_ARGS),
            ("_delta_sm_lower_bound", minimize_delta_sm_u2, _SM_EQUATOR_ARGS),
        ],
        ids=["delta_qs", "delta_sm"],
    )
    def test_an_overstated_bound_fails_loudly(self, monkeypatch, name, minimize, args):
        honest = getattr(qubitcase, name)
        monkeypatch.setattr(qubitcase, name, lambda *a: honest(*a) + 1e-9)
        with pytest.raises(AssertionError, match="below the proved lower bound"):
            minimize(*args, budget=2000, seed=0)


class TestDriverChecks:
    """The checks _multistart_minimize makes after the search, reached through both public
    optimizers and the module bindings they look up at call time."""

    @pytest.mark.parametrize(
        "name, field, minimize, args",
        [
            ("activation_report", "delta_qs", minimize_delta_qs_u2, _QS_ARGS),
            ("measure_control", "delta_sm", minimize_delta_sm_u2, _SM_EQUATOR_ARGS),
        ],
        ids=["delta_qs", "delta_sm"],
    )
    def test_a_checked_path_that_disagrees_fails_loudly(self, monkeypatch, name, field, minimize, args):
        honest = getattr(qubitcase, name)

        def shifted(*a):
            report = honest(*a)
            return replace(report, **{field: getattr(report, field) + 2.0 * TOL_ENERGY})

        monkeypatch.setattr(qubitcase, name, shifted)
        with pytest.raises(AssertionError, match="disagrees with checked path"):
            minimize(*args, budget=2000, seed=0)

    def test_post_selection_vanishing_everywhere_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(qubitcase, "post_selection_vanishes", lambda n_m: True)
        with pytest.raises(RuntimeError, match="near-zero post-selection regime"):
            minimize_delta_sm_u2(*_SM_ARGS, budget=2000, seed=0)

    @pytest.mark.parametrize(
        "name, minimize, args",
        [
            ("activation_report", minimize_delta_qs_u2, _QS_ARGS),
            ("measure_control", minimize_delta_sm_u2, _SM_ARGS),
        ],
        ids=["delta_qs", "delta_sm"],
    )
    def test_the_recheck_runs_once_through_the_module_binding(self, monkeypatch, name, minimize, args):
        # perfbench/layers.py times the recheck by wrapping this binding; a
        # recheck that captured the function would escape it.
        honest, calls = getattr(qubitcase, name), 0

        def counted(*a):
            nonlocal calls
            calls += 1
            return honest(*a)

        monkeypatch.setattr(qubitcase, name, counted)
        minimize(*args, budget=2000, seed=0)
        assert calls == 1


def _divergent_stub(x) -> float:
    return math.inf


class TestStarts:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=_SEED, n=st.integers(0, 64), extra=st.integers(1, 64))
    def test_starts_lie_on_the_torus_and_extend_by_appending(self, seed, n, extra):
        longer = qubitcase._starts(n + extra, seed)
        assert len(longer) == n + extra and all(len(x) == 6 for x in longer)
        assert all(0.0 <= v < 2.0 * math.pi for x in longer for v in x)
        assert qubitcase._starts(n, seed) == longer[:n]


class TestSimplex:
    def test_all_divergent_start(self):
        x0 = qubitcase._starts(1, 0)[0]
        _, fsim, nfev, divergent = qubitcase._simplex_minimize(_divergent_stub, x0, qubitcase._EVALS_PER_START)
        assert fsim[0] == math.inf and nfev == divergent == qubitcase._EVALS_PER_START

    @pytest.mark.parametrize("maxfev", [3, 7, 13])
    def test_evaluations_never_exceed_the_budget(self, maxfev):
        """Budgets that run out inside the initial simplex, right after it
        and inside a later step."""
        objective = qubitcase._delta_qs_objective(1.0, 0.7, 1.3, 0.4, BlochState(1.1, 0.5))
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return objective(x)

        sim, fsim, nfev, _ = qubitcase._simplex_minimize(counted, qubitcase._starts(1, 2)[0], maxfev)
        assert calls == nfev == maxfev
        assert fsim == sorted(fsim) and fsim[0] == objective(sim[0])


_BETAS = (0.2, 1.0, math.inf)
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
        n_m = assemble_sm(measurement_angles(c, m), s._terms.kernel)[0]
        assume(n_m > 1e-9)
        want = measure_control(s, m).delta_sm
        got = qubitcase._delta_sm_objective(1.0, beta, c, m)(x)
        # delta_sm = bracket / n_m: the round-off of a few tens of eps in
        # bracket and n_m grows as 1/n_m once n_m falls below 1e-2.
        assert abs(got - want) <= max(1e-12, 1e-14 / n_m)


_OMEGA = st.floats(min_value=0.1, max_value=5.0)
# Angle sextuples with each gamma_k often near pi, where both unitaries are
# nearly off-diagonal and the optimizers find their minima.
_ANGLE = st.floats(min_value=0.0, max_value=2.0 * math.pi)
_GAMMA = st.one_of(st.floats(min_value=math.pi - 1e-3, max_value=math.pi + 1e-3), _ANGLE)
_NEAR_MINIMA6 = st.tuples(_ANGLE, _GAMMA, _ANGLE, _ANGLE, _GAMMA, _ANGLE).map(list)
# Anywhere on the sphere, and often on the equator, where -E_S is reached.
_PHASE = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True)
_SPHERE = st.one_of(st.builds(BlochState, st.just(math.pi / 2.0), _PHASE), _BLOCH)
_BOUND_BETAS = st.one_of(st.sampled_from([0.0, math.inf]), st.floats(min_value=0.01, max_value=20.0))


class TestLowerBoundsAreSound:
    """No unitary pair scores below either proved lower bound."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        x=_NEAR_MINIMA6,
        omega=_OMEGA,
        beta=_BOUND_BETAS,
        t_abs=st.floats(min_value=0.0, max_value=3.0),
        t_phase=_PHASE,
        c=_SPHERE,
    )
    def test_delta_qs(self, x, omega, beta, t_abs, t_phase, c):
        value = qubitcase._delta_qs_objective(omega, beta, t_abs, t_phase, c)(x)
        assert value >= qubitcase._delta_qs_lower_bound(omega, beta, t_abs, t_phase, c) - 1e-12

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        x=_NEAR_MINIMA6,
        omega=_OMEGA,
        beta=_BOUND_BETAS,
        c=_SPHERE,
        m=_SPHERE,
    )
    def test_delta_sm(self, x, omega, beta, c, m):
        value = qubitcase._delta_sm_objective(omega, beta, c, m)(x)
        assume(math.isfinite(value))
        assert value >= qubitcase._delta_sm_lower_bound(omega, beta) - 1e-12


# The full-product kernel and the re-sorting simplex loop that the hot
# paths replaced, kept as the oracles they must match bit for bit.


def _reference_rzyz_entries(lam: float, gamma: float, delta: float) -> tuple[complex, ...]:
    cl, sl = math.cos(lam / 2.0), math.sin(lam / 2.0)
    cg, sg = math.cos(gamma / 2.0), math.sin(gamma / 2.0)
    cd, sd = math.cos(delta / 2.0), math.sin(delta / 2.0)
    ez_l = complex(cl, -sl)
    ez_lc = complex(cl, sl)
    ez_d = complex(cd, -sd)
    ez_dc = complex(cd, sd)
    return ez_l * cg * ez_d, -ez_l * sg * ez_dc, ez_lc * sg * ez_d, ez_lc * cg * ez_dc


def _reference_pair_terms(x, omega, p0, p1, unit_rows=False) -> KernelTerms:
    """All four entries of U1, U2, W12 and W21.  unit_rows=True is a broken
    kernel that forms |w11|^2 = |w00|^2 as 1 - |w10|^2 = 1 - |w01|^2."""
    l1, g1, d1, l2, g2, d2 = [v % (2.0 * math.pi) for v in x]
    a00, a01, a10, a11 = _reference_rzyz_entries(l1, g1, d1)
    b00, b01, b10, b11 = _reference_rzyz_entries(l2, g2, d2)
    w12 = ((b00 * a00 + b01 * a10, b00 * a01 + b01 * a11),
           (b10 * a00 + b11 * a10, b10 * a01 + b11 * a11))
    w21 = ((a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
           (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11))

    def energy(w) -> float:
        w11_sq = 1.0 - abs(w[1][0]) ** 2 if unit_rows else abs(w[1][1]) ** 2
        return omega * (abs(w[1][0]) ** 2 * p0 + w11_sq * p1)

    x_chi = p0 * (w12[0][0] * w21[0][0].conjugate() + w12[1][0] * w21[1][0].conjugate()) + p1 * (
        w12[0][1] * w21[0][1].conjugate() + w12[1][1] * w21[1][1].conjugate()
    )
    e_s = omega * p1
    f_s = omega * (p0 * w12[1][0] * w21[1][0].conjugate() + p1 * w12[1][1] * w21[1][1].conjugate())
    return KernelTerms(x_chi - 1.0, energy(w12) - e_s, energy(w21) - e_s, f_s - x_chi * e_s)


def _bits(values) -> str:
    """repr of the values with -0.0 read as 0.0.  The SU(2) row identity can
    flip the sign of an exact zero (a wrapped angle of exactly 0, or a sine
    that underflows), which no comparison and no nonzero result sees."""
    return repr([
        complex(v.real + 0.0, v.imag + 0.0) if isinstance(v, complex) else v + 0.0 for v in values
    ])


def _check_objectives(x, omega, beta, c, m, t_abs, t_phase) -> None:
    """Both objective closures give the bits of the reference kernel."""
    want = _reference_pair_terms(x, omega, *qubitcase._thermal_populations(omega, beta))
    qs = qubitcase._delta_qs_objective(omega, beta, t_abs, t_phase, c)
    assert _bits([qs(x)]) == _bits([assemble_qs(*pure_control_weights(c, t_abs, t_phase), want)[0]])
    sm = qubitcase._delta_sm_objective(omega, beta, c, m)
    n_m, bracket = assemble_sm(measurement_angles(c, m), want)
    assert _bits([sm(x)]) == _bits([math.inf if post_selection_vanishes(n_m) else bracket / n_m])


def _check_kernel(x, omega, beta, c, m, t_abs, t_phase) -> None:
    """qubitcase's kernel and both objectives give the reference's bits."""
    p0, p1 = qubitcase._thermal_populations(omega, beta)
    want = _reference_pair_terms(x, omega, p0, p1)
    assert _bits(qubitcase._u2_pair_terms(x, omega, p0, p1)) == _bits(want)
    _check_objectives(x, omega, beta, c, m, t_abs, t_phase)


_KERNEL_BETAS = st.one_of(
    st.sampled_from([0.0, math.inf]), st.floats(min_value=0.0, max_value=20.0, exclude_min=True)
)


class TestKernelOracle:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        x=_ANGLES6,
        omega=st.floats(min_value=0.0, max_value=3.0, exclude_min=True),
        beta=_KERNEL_BETAS,
        c=_BLOCH,
        m=_BLOCH,
        t_abs=st.floats(min_value=0.0, max_value=2.0),
        t_phase=st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
    )
    # At this point the two kernels give delta_f imaginary parts of +0.0 and -0.0.
    @example(
        x=[0.0, math.pi, 0.0, -10.0, math.pi, math.pi], omega=1.0, beta=math.inf,
        c=BlochState(1.1, 0.5), m=BlochState(1.0, 2.0), t_abs=1.3, t_phase=0.4,
    )
    def test_row0_kernel_matches_the_full_products(self, x, omega, beta, c, m, t_abs, t_phase):
        _check_kernel(x, omega, beta, c, m, t_abs, t_phase)

    def test_a_unitarity_shortcut_fails_the_check(self, rng, monkeypatch):
        points = rng.uniform(-10.0, 20.0, size=(20, 6)).tolist()
        args = (1.0, 0.85, BlochState(1.1, 0.5), BlochState(1.0, 2.0), 1.3, 0.4)
        for x in points:
            _check_kernel(x, *args)
        broken = functools.partial(_reference_pair_terms, unit_rows=True)
        monkeypatch.setattr(qubitcase, "_u2_pair_terms", broken)  # the objectives read it too
        # The closures reach the broken kernel: the objective half of the
        # check fails on its own.
        for check in (_check_kernel, _check_objectives):
            failed = 0
            for x in points:
                try:
                    check(x, *args)
                except AssertionError:
                    failed += 1
            assert failed >= 10

    def test_objectives_build_no_kernel_record(self, monkeypatch):
        built = 0
        new = KernelTerms.__new__

        def spy(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(KernelTerms, "__new__", spy)
        KernelTerms(0j, 0.0, 0.0, 0j)
        assert built == 1  # the spy sees a record being built
        for objective in (
            qubitcase._delta_qs_objective(1.0, 0.7, 1.3, 0.4, BlochState(1.1, 0.5)),
            qubitcase._delta_sm_objective(1.0, 0.4, BlochState(1.2, 0.3), BlochState(1.0, 2.0)),
        ):
            for x in qubitcase._starts(100, 0):
                objective(x)
        assert built == 1


class _BudgetSpent(Exception):
    pass


def _reference_simplex(objective, x0, maxfev):
    """The re-sorting Nelder-Mead loop, with the budget counted by a closure
    that raises past it.  Also returns the nfev at which each shrink began
    and whether the budget ran out inside a shrink."""
    n = len(x0)
    nfev = divergent = 0
    shrink_starts, cut_in_shrink = [], False

    def f(x):
        nonlocal nfev, divergent
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        value = objective(x)
        if value == math.inf:
            divergent += 1
        return value

    sim = [list(x0)]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    while True:
        order = sorted(range(n + 1), key=fsim.__getitem__)
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
        best, worst = sim[0], sim[-1]
        if nfev >= maxfev or (
            fsim[-1] - fsim[0] <= 1e-12
            and all(abs(v - b) <= 1e-10 for row in sim[1:] for v, b in zip(row, best))
        ):
            return (sim, fsim, nfev, divergent), shrink_starts, cut_in_shrink
        shrink = False
        try:
            xbar = [math.fsum(col) / n for col in zip(*sim[:-1])]
            xr = [2 * b - w for b, w in zip(xbar, worst)]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = [3 * b - 2 * w for b, w in zip(xbar, worst)]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = [1.5 * b - 0.5 * w for b, w in zip(xbar, worst)]
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = [0.5 * b + 0.5 * w for b, w in zip(xbar, worst)]
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                shrink_starts.append(nfev)
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (v - b) for b, v in zip(best, sim[j])]
                    fsim[j] = f(sim[j])
        except _BudgetSpent:
            cut_in_shrink = shrink


def _control_term(x: list[float]) -> float:
    """numeric_delta_c_minimum's objective for one draw of k."""
    return math.sin(x[0]) * (cmath.exp(-1j * x[1]) * complex(0.3, -0.7)).real


class TestSimplexOracle:
    @pytest.mark.parametrize(
        "objective, x0",
        [
            (qubitcase._delta_qs_objective(1.0, 0.7, 1.3, 0.4, BlochState(1.1, 0.5)), qubitcase._starts(1, 2)[0]),
            (qubitcase._delta_sm_objective(1.0, 0.4, BlochState(1.2, 0.3), BlochState(1.0, 2.0)), qubitcase._starts(1, 2)[0]),
            (_half_divergent_stub, qubitcase._starts(1, 2)[0]),
            (lambda x: 0.0, qubitcase._starts(1, 0)[0]),
            (_control_term, [1.2, 0.0]),
        ],
        ids=["delta_qs", "delta_sm", "half_divergent", "constant", "control_term"],
    )
    def test_loop_repeats_the_re_sorting_loop(self, objective, x0):
        shrink_starts = _reference_simplex(objective, x0, 500)[1]
        assert shrink_starts, "no shrink within 500 evaluations"
        in_shrink = shrink_starts[0] + 1  # the shrink evaluates one vertex, then moves one more
        for maxfev in (3, 7, 13, 500, in_shrink):
            want, _, cut_in_shrink = _reference_simplex(objective, x0, maxfev)
            assert repr(qubitcase._simplex_minimize(objective, x0, maxfev)) == repr(want)
            if maxfev == in_shrink:
                assert cut_in_shrink
