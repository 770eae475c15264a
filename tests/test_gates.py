"""Gates at their edges: each suite's bound, strict or closed, decides a
statistic that lands exactly on it."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate

from combandit import analysis, environments, learners
from combandit.analysis import ClipEventReport
from combandit.gates import SUITES, Gate, run_suite


def _up(x):
    return math.nextafter(x, math.inf)


def _down(x):
    return math.nextafter(x, -math.inf)


@pytest.mark.parametrize("gate", [
    Gate("open", math.nan),
    Gate("closed", math.nan, 0.0, 1.0),
    Gate("point", math.nan, 0.0, 0.0),
])
def test_nan_passes_no_gate(gate):
    assert not gate.passed


def test_a_gate_names_its_statistic_and_interval():
    gate = Gate("row 0: play-count sum", 32, 16, 16)
    assert not gate.passed
    assert str(gate) == "row 0: play-count sum 32 outside [16, 16]"


@pytest.mark.parametrize("error,passed", [(0.05, False), (_down(0.05), True)])
def test_variance_bound_is_strict(error, passed, monkeypatch):
    monkeypatch.setattr(analysis, "variance_report",
                        lambda *a, **kw: SimpleNamespace(relative_error=error))
    assert run_suite("variance", 7)[0] is passed


@pytest.mark.parametrize("gap,passed", [(1e-6, False), (_down(1e-6), True)])
def test_kl_bound_is_strict(gap, passed, monkeypatch):
    # |closed - quadrature| is exactly ``gap`` in all 12 cases
    monkeypatch.setattr(analysis, "gaussian_kl", lambda mean_gap, var: 0.0)
    monkeypatch.setattr(scipy.integrate, "quad", lambda *a, **kw: (gap, 0.0))
    assert run_suite("kl", 7)[0] is passed


@pytest.mark.parametrize("lhs,passed", [(2.0 + 1e-12, True),
                                        (_up(2.0 + 1e-12), False)])
def test_lemma7_bound_is_closed(lhs, passed, monkeypatch):
    monkeypatch.setattr(analysis, "verify_ranking_tj_bound",
                        lambda *a, **kw: (lhs, 2.0))
    assert run_suite("lemma7", 7)[0] is passed


def _clip_report(upper, epsilon_over_8):
    return ClipEventReport(reps=10**4, event_count=0, frequency=0.0,
                           epsilon_over_8=epsilon_over_8, union_bound=0.0,
                           upper_conf_99=upper, epsilon_ok=True)


@pytest.mark.parametrize("upper,passed", [(0.01, True), (_up(0.01), False)])
def test_clip_event_bound_is_closed(upper, passed, monkeypatch):
    monkeypatch.setattr(analysis, "verify_clip_event",
                        lambda config, reps, seed: _clip_report(upper, 0.01))
    assert run_suite("clip", 7)[0] is passed


@pytest.mark.parametrize("epsilon,passed", [(0.25, True), (_up(0.25), False)])
def test_clip_epsilon_bound_is_closed(epsilon, passed, monkeypatch):
    # the gap schedule, at every tested T and in the game the suite builds
    monkeypatch.setattr(environments, "compute_epsilon", lambda *a: epsilon)
    monkeypatch.setattr(analysis, "verify_clip_event",
                        lambda config, reps, seed: _clip_report(0.0, 0.01))
    ok, line = run_suite("clip", 7)
    assert ok is passed
    assert passed or line == (f"FAIL clip: T=256 game epsilon {epsilon} "
                              f"outside [-inf, 0.25]")


def test_estimator_bias_under_allclose_rtol_fails(monkeypatch):
    # a bias of 1e-6 on every action passes np.allclose(atol=1e-10), whose
    # default rtol allows 1e-5 times each true loss, but not the 1e-10 gate
    original = learners.EnumeratedExp2Learner.estimates
    monkeypatch.setattr(learners.EnumeratedExp2Learner, "estimates",
                        lambda *a, **kw: original(*a, **kw) + 1e-6)
    ok, line = run_suite("estimator", 7)
    assert not ok
    assert line.startswith("FAIL estimator: largest |bias| 1.0000000")


def test_a_suite_names_its_first_failing_gate(monkeypatch):
    # the round-robin play record counted twice: both rows fail
    original = analysis.play_losses
    monkeypatch.setattr(analysis, "play_losses", lambda *a, **kw: (
        lambda r: (r[0], np.concatenate([r[1], r[1]])))(original(*a, **kw)))
    gates, _ = SUITES["lemma5"](7)
    assert [g.passed for g in gates] == [False, False]
    assert run_suite("lemma5", 7) == (
        False, "FAIL lemma5: row 0: play-count sum 32 outside [16, 16]")
