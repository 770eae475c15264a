"""Empirical regret, Monte Carlo aggregation, and numerical checks of the
quantities the lower-bound argument turns on: observed-loss variance,
per-round KL, exact play-count identities, and the clip-event tail.
A :class:`Cell` names one experiment, and :func:`play_cells` plays and
summarizes a list of them in one replication pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .action_sets import (
    ActionSet,
    Dimensions,
    MatchingSet,
    MultitaskSet,
    hindsight_best,
)
from .engine import (
    AdversaryFactory,
    GameRecord,
    Transcript,
    play_losses,
    replicate,
    replication_pool,
)
from .environments import (
    AdversaryConfig,
    NoiseMode,
    compute_sigma,
    draw_losses,
    make_rng,
    standard_normals,
)
from .learners import LearnerSpec, make_learner


def empirical_regret(transcript: Transcript, action_set: ActionSet) -> float:
    """Realized cumulative loss minus the hindsight-best cumulative loss."""
    return (transcript.cumulative_loss()
            - hindsight_best(transcript.losses, action_set))


def lower_bound_value(dims: Dimensions, T: int) -> float:
    """Expected-regret floor of the clipped correlated construction,
    sigma(T) * k^{3/2} * sqrt(dT) / 16, with sigma(T) = 1/sqrt(192 + 96 ln T).

    Where the /16 comes from, at the multitask gap eps = sigma sqrt(kd/(4T)):
    a covering round of block j reveals eps^2/(2 k^2 sigma^2) nats, since the
    shared noise enters the observed loss k times.  By Pinsker, averaged over
    the n arms of block j, the rounds that cover x*'s arm number at most
    T/n + T/4 <= 3T/4, so the regret eps * sum_j (T - T_j) is at least
    eps k T / 4 = sigma k^{3/2} sqrt(dT) / 8.  Clipping the losses to [0, 1]
    keeps half of that while T >= k*d, where eps <= 1/4 and the clip event
    {some Z_t > 1/4} has probability at most eps/8 (the ``clip`` suite checks
    both).  Every family gets this value, derived for the multitask schedule.
    """
    if T < dims.k * dims.d:
        raise ValueError(
            f"clipped bound requires T >= k*d = {dims.k * dims.d}, got {T}")
    return compute_sigma(T) * dims.k**1.5 * math.sqrt(dims.d * T) / 16.0


@dataclass(frozen=True)
class RegretSummary:
    """Monte Carlo aggregate of per-replication empirical regrets, with each
    replication's realized and hindsight-best cumulative losses."""

    regrets: np.ndarray
    best_losses: np.ndarray
    cumulative_losses: np.ndarray
    mean: float
    std_error: float
    bound_value: float | None

    @property
    def reps(self) -> int:
        return self.regrets.shape[0]

    def exceeds_bound(self) -> bool | None:
        """mean - 2*SE >= bound, or None when no bound applies."""
        if self.bound_value is None:
            return None
        return self.mean - 2.0 * self.std_error >= self.bound_value


def summarize_regret(records: list[GameRecord],
                     bound_value: float | None = None) -> RegretSummary:
    """Aggregate the regrets of scored games, each its record's cumulative
    loss minus its hindsight-best loss (``replicate(..., records=True)``,
    or :meth:`Transcript.record`).

    Under correlated noise x* has the least loss in every round (clipping is
    monotone), so no learner beats it and a regret below -1e-9 is a bug.
    Under independent noise an adaptive learner can beat every fixed action,
    so those regrets go unchecked.
    """
    if not records:
        raise ValueError("summarize_regret needs at least one game record")
    best = np.array([r.best_loss for r in records])
    cumulative = np.array([r.cumulative_loss for r in records])
    regrets = cumulative - best
    correlated = np.array([r.config.noise_mode is NoiseMode.CORRELATED
                           for r in records])
    if np.any(correlated & (regrets < -1e-9)):
        raise AssertionError(
            "empirical regret of a correlated-noise game fell below the -1e-9 floor")
    se = float(regrets.std(ddof=1) / math.sqrt(len(regrets))) if len(regrets) > 1 else 0.0
    return RegretSummary(regrets=regrets, best_losses=best,
                         cumulative_losses=cumulative, mean=float(regrets.mean()),
                         std_error=se, bound_value=bound_value)


@dataclass(frozen=True)
class Cell:
    """One experiment: ``reps`` games of ``spec`` on ``action_set``
    against ``factory``'s adversaries, their seeds spawned from ``seed``.

    Building a cell meets, before any game, every limit its games meet:
    reps >= 1, the hindsight oracle's state cap, the learner's own
    ``start`` (enumeration cap, family, fixed action's membership) and the
    factory's :meth:`~combandit.engine.AdversaryFactory.check` (T >= k*d
    for the clipped construction).  What they build stays cached on the
    set.
    """

    action_set: ActionSet
    factory: AdversaryFactory
    spec: LearnerSpec
    reps: int
    seed: int

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        T = self.factory.T
        self.action_set.oracle_layout()
        make_learner(self.spec, self.action_set, T).start(self.action_set, T, None)
        self.factory.check(self.action_set)

    def normalized(self, summary: RegretSummary) -> float:
        """The summary's mean regret over sqrt(dT), the scale on which the
        sweep fits its power of k."""
        return summary.mean / math.sqrt(self.action_set.dims.d * self.factory.T)


def play_cells(cells, jobs: int = 1, records: bool = True):
    """Play each cell's games and yield ``(cell, games, summary)`` in the
    cells' order, the games as :func:`~combandit.engine.replicate` returns
    them (records, or with ``records=False`` whole transcripts).  One
    :func:`~combandit.engine.replication_pool` at ``jobs`` plays every
    cell, so each yields what it would alone.  A summary carries
    :func:`lower_bound_value` exactly when the cell's factory is the
    clipped correlated construction (``theorem4``)."""
    cells = list(cells)
    with replication_pool(jobs, max((c.reps for c in cells), default=1)) as pool:
        for cell in cells:
            games = replicate(cell.spec, cell.factory, cell.action_set,
                              cell.reps, cell.seed, jobs=jobs, records=records,
                              pool=pool)
            scored = games if records else [tr.record(cell.action_set)
                                            for tr in games]
            bound = (lower_bound_value(cell.action_set.dims, cell.factory.T)
                     if cell.factory.theorem4 else None)
            yield cell, games, summarize_regret(scored, bound)


@dataclass(frozen=True)
class ScalingFit:
    """OLS fit of ln(regret) on ln(k)."""

    points: tuple[tuple[float, float], ...]
    exponent: float
    intercept: float
    residual: float


def scaling_fit(points) -> ScalingFit:
    """Least-squares exponent of regret as a power of k.

    ``points`` is a sequence of (k, regret) pairs with positive regrets and
    at least 3 distinct k values.
    """
    points = tuple((float(k), float(r)) for k, r in points)
    ks = np.array([p[0] for p in points])
    rs = np.array([p[1] for p in points])
    if np.unique(ks).size < 3:
        raise ValueError("scaling fit needs at least 3 distinct k values")
    if np.any(rs <= 0):
        raise ValueError("scaling fit needs positive regret values")
    design = np.column_stack([np.log(ks), np.ones_like(ks)])
    coef, _, _, _ = np.linalg.lstsq(design, np.log(rs), rcond=None)
    resid = float(np.sum((np.log(rs) - design @ coef) ** 2))
    return ScalingFit(points=points, exponent=float(coef[0]),
                      intercept=float(coef[1]), residual=resid)


def normalized_exponent(played) -> float:
    """Fitted power of k in the sqrt(dT)-normalized mean regret of the
    ``(cell, games, summary)`` triples :func:`play_cells` yields, or NaN
    when a mean regret is not positive (a fixed learner on x*, an adaptive
    one under independent noise): no power law fits it."""
    points = [(cell.action_set.dims.k, cell.normalized(summary))
              for cell, _, summary in played]
    if not all(r > 0 for _, r in points):
        return math.nan
    return scaling_fit(points).exponent


def gaussian_kl(mean_gap: float, variance: float) -> float:
    """KL divergence between equal-variance Gaussians: gap^2 / (2 var)."""
    if variance <= 0:
        raise ValueError(f"variance must be positive, got {variance}")
    return mean_gap**2 / (2.0 * variance)


# ---------------------------------------------------------------------------
# Play-count identities
#
# Both checks below run a deterministic learner against the "neutralized"
# law in which the planted coordinate of block j carries no gap: the
# unclipped draw_losses law 1/2 - eps * x(i) + Z_t, x's block j zeroed.
# That law is identical for every candidate planted coordinate of block j,
# so one run per off-block assignment covers all candidates at once and the
# play-count sums come out as exact integers.  The identities hold for any
# gap and noise scale; the law takes 0.1 for both.
# ---------------------------------------------------------------------------


def _neutralized_play(factory, action_set: ActionSet, choices, j: int,
                      T: int, seed) -> np.ndarray:
    """The (T, k) active coordinates a deterministic learner plays under the
    neutralized law planted at ``choices``, block j reading the off-x* level."""
    learner = factory(action_set, T)
    if not getattr(learner, "deterministic", False):
        raise ValueError("play-count identities require a deterministic learner")
    if T == 0:  # no round to play, and a config draws at least one
        return np.empty((0, action_set.dims.k), dtype=np.int64)
    losses, _ = draw_losses(AdversaryConfig(
        dims=action_set.dims, T=T, sigma=0.1, epsilon=0.1,
        noise_mode=NoiseMode.CORRELATED, clipped=False,
        x_star=action_set._choices_to_bits(choices), seed=seed))
    losses.cols[action_set._block_coords[j]] = 0  # a fresh array of this draw
    _, coords = play_losses(learner, action_set, losses)
    return coords


def _row_play_total(factory, action_set: ActionSet, j: int, T: int,
                    seed) -> int:
    """Sum over every planted optimum x in S of T_j(x), the rounds whose
    action covers x's block-j coordinates, under the neutralized law.

    The actions that share the other blocks' choices share one neutralized
    law, so one play per such group counts the rounds of all its members.
    Lists S, so the set's cap applies before the first play.
    """
    action_set.check_cap()
    groups: dict[tuple, list] = {}
    for choices in action_set._choices().tolist():
        groups.setdefault(tuple(choices[:j] + choices[j + 1:]), []).append(choices)
    width = action_set._block_coords.shape[2]
    total = 0
    for members in groups.values():
        coords = _neutralized_play(factory, action_set, members[0], j, T, seed)
        # an action's coordinates increase block by block, width per block
        played = coords[:, None, j * width:(j + 1) * width]
        block_j = action_set._block_coords[j, [c[j] for c in members]]
        total += int((played == block_j).all(axis=-1).sum())
    return total


def verify_tj_row_identity(factory, action_set: MultitaskSet, j: int,
                           T: int, seed=0) -> tuple[int, int]:
    """Sum of block-j play counts over every planted optimum, vs n^{k-1} T.

    Averaged over the n^k planted optima this is the exact T/n identity;
    returned as the integer pair (sum over S of T_j, n^{k-1} * T).  For each
    assignment of the other blocks the learner sees the same losses
    whichever arm of block j is planted, and plays exactly one of them per
    round, so each group contributes exactly T.
    """
    if not isinstance(action_set, MultitaskSet):
        raise ValueError("row identity applies to the multitask family")
    k, n = action_set.dims.k, action_set.dims.n
    return _row_play_total(factory, action_set, j, T, seed), n ** (k - 1) * T


def verify_ranking_tj_bound(factory, action_set: MatchingSet, j: int,
                            T: int, seed=0) -> tuple[float, float]:
    """Row-j play-count average over all matchings vs the T/(n-k+1) ceiling.

    Returns (lhs, rhs) with lhs = ((n-k)!/n!) * sum over S of T_j.  For each
    assignment of the other rows there are exactly n-k+1 ways to complete
    row j, all sharing the neutralized law, so their counts sum to at most T.
    """
    if not isinstance(action_set, MatchingSet):
        raise ValueError("ranking bound applies to the matching family")
    k, n = action_set.dims.k, action_set.dims.n
    if 2 * k > n:
        raise ValueError(f"ranking bound requires k <= n/2, got k={k}, n={n}")
    total = _row_play_total(factory, action_set, j, T, seed)
    lhs = total * math.factorial(n - k) / math.factorial(n)
    rhs = T / (n - k + 1)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Clip event and variance reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClipEventReport:
    """Monte Carlo rate of the clipping-relevant event {exists t: Z_t > 1/4},
    with its analytic companions."""

    reps: int
    event_count: int
    frequency: float
    epsilon_over_8: float
    union_bound: float
    upper_conf_99: float


def verify_clip_event(config: AdversaryConfig, reps: int, seed=0) -> ClipEventReport:
    """Frequency of any per-round shared noise draw exceeding 1/4.

    The union bound T * exp(-1/(32 sigma^2)) collapses to e^-6 / T^2 at the
    clipped construction's sigma; the report also carries the one-sided 99%
    Clopper-Pearson upper confidence limit on the event probability.
    """
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    from scipy.stats import beta as beta_dist

    rng = make_rng(seed)
    count = 0
    chunk = max(1, min(reps, 10**7 // max(config.T, 1)))
    done = 0
    while done < reps:
        b = min(chunk, reps - done)
        z = config.sigma * standard_normals(rng, (b, config.T))
        count += int((z > 0.25).any(axis=1).sum())
        done += b
    freq = count / reps
    union = config.T * math.exp(-(0.25**2) / (2.0 * config.sigma**2))
    if count == reps:
        upper = 1.0
    else:
        upper = float(beta_dist.ppf(0.99, count + 1, reps - count))
    return ClipEventReport(reps=reps, event_count=count, frequency=freq,
                           epsilon_over_8=config.epsilon / 8.0,
                           union_bound=union, upper_conf_99=upper)


@dataclass(frozen=True)
class VarianceReport:
    estimate: float
    target: float

    @property
    def relative_error(self) -> float:
        if self.target == 0:
            return abs(self.estimate)
        return abs(self.estimate - self.target) / self.target


def variance_report(config: AdversaryConfig, x_bits: np.ndarray,
                    samples: int, seed=0) -> VarianceReport:
    """Sample variance of the observed loss of a fixed action vs its target:
    k^2 sigma^2 under correlated noise, k sigma^2 under the independent
    control.  Unclipped losses only.  The samples are ``draw_losses`` of the
    config run for ``samples`` rounds with its noise keyed by ``seed``."""
    if config.clipped:
        raise ValueError("variance targets apply to the unclipped construction")
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")
    if config.sigma == 0.0:
        # the observed loss is a constant; np.var would report the ~1e-30
        # residue of non-dyadic mean subtraction instead of an exact zero
        return VarianceReport(estimate=0.0, target=0.0)
    # the shared draw enters the sum once per active coordinate
    k = config.dims.k
    scale = k * k if config.noise_mode is NoiseMode.CORRELATED else k
    losses, _ = draw_losses(replace(config, T=samples, seed=seed))
    observed = losses.round_loss(np.flatnonzero(x_bits))
    return VarianceReport(estimate=float(np.var(observed, ddof=1)),
                          target=scale * config.sigma**2)
