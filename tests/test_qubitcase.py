"""Qubit unitary families: rotation closed forms and the general-unitary
multi-start optimizers."""
from __future__ import annotations

import math
import multiprocessing
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    rotation_unitary,
    u2_unitary,
)
from switchwork.states import BlochState

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

    # A simplex made only of +inf points makes scipy subtract inf from inf.
    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
    def test_divergent_counts_are_summed_over_starts(self, monkeypatch):
        global _stub_divergent_calls
        _force_workers(monkeypatch, 1)
        _stub_divergent_calls = 0
        serial = qubitcase._multistart_minimize(_half_divergent_stub, 2000, 5)
        assert serial[3] == _stub_divergent_calls > 0
        _force_workers(monkeypatch, 2)
        pooled = qubitcase._multistart_minimize(_half_divergent_stub, 2000, 5)
        assert pooled[0] == serial[0]
        assert np.array_equal(pooled[1], serial[1])
        assert pooled[2:] == serial[2:]

    def test_ties_go_to_the_lowest_start_even_when_it_finishes_last(self, monkeypatch):
        _force_workers(monkeypatch, 2)
        value, x, _, _, starts = qubitcase._multistart_minimize(_flat_slow_first_stub, 2000, 3)
        assert starts == 4
        first = qubitcase._nelder_mead_start((_flat_slow_first_stub, qubitcase._sobol_starts(4, 3)[0]))
        assert value == first[0] == 0.0
        assert np.array_equal(x, first[1])

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
        for x in rng.uniform(-1.0, 8.0, size=(50, 6)):
            before, after = objective(x), restored(x)
            assert repr(before) == repr(after)
