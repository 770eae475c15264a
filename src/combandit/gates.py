"""The numerical verification suites, each a list of :class:`Gate` values
(a statistic and the closed interval it must lie in) and the detail of its
``PASS`` line; :func:`run_suite` makes the line a suite prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, analysis, environments, learners
from .action_sets import build_layered_path_graph, build_matching, build_multitask
from .engine import AdversaryFactory
from .environments import NoiseMode


@dataclass(frozen=True)
class Gate:
    """``statistic`` must lie in ``[low, high]``.  A strict bound is the
    next float inside it (``x < b`` is ``high=math.nextafter(b, -math.inf)``),
    so every check is this one comparison; NaN passes no gate."""

    name: str
    statistic: float
    low: float = -math.inf
    high: float = math.inf

    @property
    def passed(self) -> bool:
        return self.low <= self.statistic <= self.high

    def __str__(self) -> str:
        return f"{self.name} {self.statistic} outside [{self.low}, {self.high}]"


def _suite_cardinalities(seed):
    grid = ([(build_multitask(k, n), n**k, f"multitask k={k} n={n}")
             for n in range(2, 9) for k in range(1, 9)]
            + [(build_layered_path_graph(k, k * fan), fan ** (k // 2),
                f"path k={k} d={k * fan}")
               for k in (2, 4, 6, 8) for fan in range(2, 9)]
            + [(build_matching(k, n),
                math.factorial(n) // math.factorial(n - k),
                f"matching k={k} n={n}")
               for n in range(1, 9) for k in range(1, n + 1)])
    gates = [Gate(f"{label}: |S|", s.enumerate_actions().shape[0], expect, expect)
             for s, expect, label in grid if s.cardinality <= 10**5]
    return gates, f"{len(gates)} instances match their closed forms exactly"


def _suite_bijection(seed):
    graph = build_layered_path_graph(4, 16)
    image = graph.multitask_image()
    rng = environments.make_rng(seed)
    paths = graph.active_coords()
    mapped = np.array([np.flatnonzero(graph.path_to_multitask(bits))
                       for bits in graph.enumerate_actions()])
    gates = []
    for trial in range(1000):
        mt_loss = rng.random(image.dims.d)
        edge_loss = environments.shortest_path_losses(mt_loss, graph)
        mismatched = (_kernels.round_loss(edge_loss, paths)
                      != _kernels.round_loss(mt_loss, mapped)).sum()
        gates.append(Gate(f"trial {trial}: paths with a loss mismatch",
                          mismatched, 0, 0))
    return gates, f"{len(paths)} paths x 1000 loss vectors, exact equality"


def _suite_variance(seed):
    gates = []
    for k in (2, 4, 8):
        action_set = build_multitask(k, 2)
        for mode in (NoiseMode.CORRELATED, NoiseMode.INDEPENDENT):
            config = environments.make_adversary(
                action_set, T=1, seed_seq=seed, noise_mode=mode,
                sigma=0.1, epsilon=0.0)
            rep = analysis.variance_report(
                config, action_set.first_action(), samples=10**5,
                seed=seed + k)
            gates.append(Gate(f"k={k} {mode.value}: relative error",
                              rep.relative_error,
                              high=math.nextafter(0.05, -math.inf)))
    worst = max(g.statistic for g in gates)
    return gates, (f"observed-loss variance within 5% of k^2 s^2 / k s^2 "
                   f"targets (worst {worst:.2%})")


def _suite_kl(seed):
    from scipy.integrate import quad
    from scipy.stats import norm

    gates = []
    for gap in (0.0, 0.01, 0.1, 1.0):
        for var in (0.01, 1.0, 25.0):
            closed = analysis.gaussian_kl(gap, var)
            s = math.sqrt(var)

            def integrand(x):
                return (norm.pdf(x, 0.0, s) *
                        (norm.logpdf(x, 0.0, s) - norm.logpdf(x, gap, s)))

            numeric, _ = quad(integrand, -12 * s, 12 * s + gap, limit=200)
            gates.append(Gate(f"gap={gap} var={var}: |closed - quadrature|",
                              abs(closed - numeric),
                              high=math.nextafter(1e-6, -math.inf)))
    worst = max(g.statistic for g in gates)
    return gates, (f"closed form matches quadrature within 1e-6 on 12 cases "
                   f"(worst {worst:.2e})")


def _suite_lemma5(seed):
    action_set = build_multitask(2, 2)
    gates = []
    for j in (0, 1):
        total, expected = analysis.verify_tj_row_identity(
            lambda s, T: learners.RoundRobinLearner(), action_set, j=j, T=8,
            seed=seed)
        gates.append(Gate(f"row {j}: play-count sum", total, expected, expected))
    return gates, (f"sum of play counts over S = {total} = n^(k-1) T exactly "
                   f"on rows 0 and 1")


def _suite_lemma7(seed):
    action_set = build_matching(2, 4)
    gates, bounds = [], []
    for j in (0, 1):
        lhs, rhs = analysis.verify_ranking_tj_bound(
            lambda s, T: learners.RoundRobinLearner(), action_set, j=j, T=8,
            seed=seed)
        gates.append(Gate(f"row {j}: averaged play count", lhs, high=rhs + 1e-12))
        bounds.append(f"{lhs:.6f} <= {rhs:.6f}")
    return gates, f"averaged play count of rows 0, 1: {', '.join(bounds)}"


def _suite_clip(seed):
    action_set = build_multitask(4, 2)
    config = AdversaryFactory(T=256, theorem4=True)(action_set, seed)
    report = analysis.verify_clip_event(config, reps=10**4, seed=seed + 1)
    gates = [Gate("T=256 game epsilon", config.epsilon, high=0.25),
             Gate("event rate 99% upper limit", report.upper_conf_99,
                  high=report.epsilon_over_8)]
    # every tested T is >= k*d = 32, where the clipped construction applies
    for T in (32, 64, 128, 256, 1024, 4096, 2**16, 2**20):
        eps = environments.compute_epsilon(environments.compute_sigma(T),
                                           action_set.dims, T)
        gates.append(Gate(f"T={T}: epsilon", eps, high=0.25))
    return gates, (f"0.25-exceedance rate {report.frequency:.2e} <= "
                   f"epsilon/8 = {report.epsilon_over_8:.2e} at 99% confidence; "
                   f"epsilon <= 1/4 at the 8 tested T from 32 to 2^20")


def _suite_estimator(seed):
    action_set = build_multitask(2, 2)
    learner = learners.EnumeratedExp2Learner(eta=0.1, gamma=0.2)
    learner.start(action_set, horizon=4, rng=environments.make_rng(seed))
    learner.act([0.0])  # the first round's play distribution
    probs = learner.probs[0]
    rng = environments.make_rng(seed + 1)
    loss = rng.random(action_set.dims.d)
    matrix = action_set.enumerate_actions().astype(np.float64)
    expect = np.zeros(matrix.shape[0])
    for a in range(matrix.shape[0]):
        lam = float(np.dot(matrix[a], loss))
        expect += probs[a] * learner.estimates([probs], [a], [lam])[0]
    bias = np.abs(expect - matrix @ loss).max()
    return ([Gate("largest |bias|", bias, high=1e-10)],
            "estimator unbiased on span(S) within 1e-10")


SUITES = {
    "cardinalities": _suite_cardinalities,
    "bijection": _suite_bijection,
    "variance": _suite_variance,
    "kl": _suite_kl,
    "lemma5": _suite_lemma5,
    "lemma7": _suite_lemma7,
    "clip": _suite_clip,
    "estimator": _suite_estimator,
}


def run_suite(name: str, seed: int) -> tuple[bool, str]:
    """Run one suite; return whether every gate passed, and the line
    ``PASS name: detail`` or ``FAIL name: <first failing gate>``.  EXP2
    losing rank fails the suite with the exception's text."""
    try:
        gates, detail = SUITES[name](seed)
    except learners.Exp2SingularError as exc:
        return False, f"FAIL {name}: {exc}"
    failed = next((g for g in gates if not g.passed), None)
    if failed is None:
        return True, f"PASS {name}: {detail}"
    return False, f"FAIL {name}: {failed}"
