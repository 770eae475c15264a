"""Baseline learners the adversaries are run against.

None of these is tuned to be optimal; they are adversary targets spanning
the non-adaptive (fixed, uniform, round-robin) to adaptive (per-task EXP3,
enumerated EXP2) range.  Each learner is one :class:`Learner` class that
sets itself up in ``start`` and then plays a game either round by round
(``choose``/``observe``, the reference engine path) or through one call to
its fused kernel from :mod:`combandit._kernels`.  :func:`play_with_kernel`
plays a block of games, one learner per replication, on their loss tables
side by side (:class:`~combandit.environments.LossTable`), and returns
``(observed, coords)``, each game's active coordinates per round, or
raises.  The non-adaptive learners ``play`` each game of the block on its
own, consume no feedback, read only the horizon and return no observed
losses (None): the engine scores their coordinates.  The adaptive
learners share one exponential-weights core, a list of blocks of arms:
EXP3 has k blocks of n one-coordinate arms, EXP2 one block whose arms are
the actions.  Its ``act`` draws every block's arm from the round's
uniforms, and the class's ``close_rounds`` closes the round of a block of
learners on their observed losses.  The kernel plays the block in
lockstep in the one game loop, calling every learner's ``act``, then
``close_rounds`` for the whole block, every round; ``choose``/``observe``
play one game, ``act`` and then ``close_rounds`` on a block of one.
EXP3's close is a float loop over the block; EXP2's is one estimator
call for it.  Both paths consume the same uniform stream, so their
transcripts agree bit for bit.  EXP2's lost rank is one exception,
:class:`Exp2SingularError`, raised in one place,
:meth:`EnumeratedExp2Learner.estimates`, at a block's earliest such round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import _inverse_cdf, _mixed_weights
from .action_sets import (
    ActionSet,
    ActionSetError,
    Family,
    MatchingSet,
    action_to_string,
)
from .environments import LossTable, compute_sigma

ADAPTIVE_KINDS = ("exp3", "exp2")
LEARNER_KINDS = ("fixed", "uniform", "round_robin") + ADAPTIVE_KINDS


class Learner:
    """Interface: ``choose`` an action, ``observe`` the scalar loss.

    A learner may keep any state derived from the action-set description,
    the horizon, its own past actions and the observed scalars; the engine
    hands it nothing else.  ``deterministic`` marks learners whose action
    sequence is a pure function of the observation sequence, which the
    play-count identity checks require.
    """

    deterministic = False

    def start(self, action_set: ActionSet, horizon: int,
              rng: np.random.Generator | None) -> None:
        raise NotImplementedError

    def choose(self) -> np.ndarray:
        raise NotImplementedError

    def observe(self, observed_loss: float) -> None:
        raise NotImplementedError


def default_eta(action_set: ActionSet, horizon: int) -> float:
    """sqrt(ln|S| / (T k^2)); conventional exponential-weights scale."""
    return math.sqrt(math.log(action_set.cardinality) /
                     (horizon * action_set.dims.k**2))


def default_gamma(action_set: ActionSet, horizon: int) -> float:
    """min(1/2, sqrt(d/T)); uniform-exploration mixture weight."""
    return min(0.5, math.sqrt(action_set.dims.d / horizon))


def exhibit_eta(action_set: ActionSet, horizon: int) -> float:
    """Learning rate for the correlation-mechanism exhibit.

    The centered per-task surrogate moves on the scale of the noise, so the
    variance-matched exponential-weights rate is proportional to
    sqrt(k ln n / T) / sigma(T).  The extra factor of sqrt(k) here (giving
    k/sigma * sqrt(ln n / T)) pushes the learner into commit-style behavior
    exactly where the independent-noise control leaves enough signal to
    commit correctly, which is what makes the regret-vs-k slopes of the two
    noise structures separate cleanly at desk scale.
    """
    dims = action_set.dims
    return (dims.k / compute_sigma(horizon)) * math.sqrt(math.log(dims.n) / horizon)


@dataclass(frozen=True)
class LearnerSpec:
    """Serializable learner description.

    eta/gamma default to the conventional schedules above when left None;
    ``eta`` is a number or "exhibit", the schedule of :func:`exhibit_eta`.
    ``baseline`` tunes the per-task EXP3 surrogate: None feeds the raw
    importance-weighted observation, a float subtracts that constant, and
    "mean" subtracts the running mean of past observations (a control
    variate; see :class:`PerTaskExp3Learner`).  The fixed learner plays the
    set's first action in canonical order.  A spec takes only what its kind
    reads: eta and gamma only the adaptive kinds, a baseline only exp3.
    """

    kind: str
    eta: float | str | None = None
    gamma: float | None = None
    baseline: float | str | None = None

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"unknown learner kind {self.kind!r}; "
                             f"expected one of {LEARNER_KINDS}")
        if isinstance(self.eta, str):
            if self.eta != "exhibit":
                raise ValueError(f"eta must be a number or 'exhibit', "
                                 f"got {self.eta!r}")
        elif self.eta is not None and not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")
        if self.gamma is not None and not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if isinstance(self.baseline, str):
            if self.baseline != "mean":
                raise ValueError(f"baseline must be a number or 'mean', "
                                 f"got {self.baseline!r}")
        elif self.baseline is not None and not math.isfinite(self.baseline):
            raise ValueError(f"baseline must be finite, got {self.baseline}")
        tuned = [name for name, value in (("eta", self.eta), ("gamma", self.gamma))
                 if value is not None]
        if tuned and self.kind not in ADAPTIVE_KINDS:
            raise ValueError(f"{tuned[0]} applies only to {' and '.join(ADAPTIVE_KINDS)}, "
                             f"not {self.kind}")
        if self.baseline is not None and self.kind != "exp3":
            raise ValueError(f"baseline applies only to exp3, not {self.kind}")

    def bind(self, action_set: ActionSet, horizon: int) -> tuple[float | None, ...]:
        """Effective (eta, gamma) for this set and horizon, or (None, None)
        for a kind that reads neither."""
        if self.kind not in ADAPTIVE_KINDS:
            return None, None
        if self.eta == "exhibit":
            eta = exhibit_eta(action_set, horizon)
        elif self.eta is not None:
            eta = self.eta
        else:
            eta = default_eta(action_set, horizon)
        gamma = (self.gamma if self.gamma is not None
                 else default_gamma(action_set, horizon))
        return eta, gamma

    def describe(self) -> str:
        desc = self.kind
        if self.baseline is not None:
            desc += f"[b={self.baseline}]"
        if self.eta == "exhibit":
            desc += "[eta=exhibit]"
        return desc


class FixedActionLearner(Learner):
    """Plays one membership-checked action every round."""

    deterministic = True

    def __init__(self, bits: np.ndarray):
        self.bits = np.asarray(bits, dtype=np.uint8)

    def start(self, action_set, horizon, rng):
        if not action_set.contains(self.bits):
            raise ActionSetError(
                f"fixed action {action_to_string(self.bits)} is not in the set")

    def choose(self):
        return self.bits

    def observe(self, observed_loss):
        pass

    def play(self, losses):
        return _kernels.play_fixed(losses, self.bits)


class UniformRandomLearner(Learner):
    """Fresh uniform draw from the action set every round."""

    def start(self, action_set, horizon, rng):
        self.action_set = action_set
        self.rng = rng

    def choose(self):
        return self.action_set.sample_uniform(self.rng)

    def observe(self, observed_loss):
        pass

    def play(self, losses):
        s = self.action_set
        uniforms = self.rng.random((losses.shape[0], s.uniforms_per_round()))
        kernel = (_kernels.play_uniform_matching if isinstance(s, MatchingSet)
                  else _kernels.play_uniform_blocks)
        return kernel(losses, s.dims.n, s._coords, uniforms)


class RoundRobinLearner(Learner):
    """Cycles through the enumerated action set in canonical order, read
    from its active-coordinate table: ``choose`` scatters row ``t % |S|``."""

    deterministic = True

    def start(self, action_set, horizon, rng):
        self.d = action_set.dims.d
        self.active = action_set.active_coords()
        self.t = 0

    def choose(self):
        bits = np.zeros(self.d, dtype=np.uint8)
        bits[self.active[self.t % self.active.shape[0]]] = 1
        return bits

    def observe(self, observed_loss):
        self.t += 1

    def play(self, losses):
        return _kernels.play_round_robin(losses, self.active)


class Exp2SingularError(RuntimeError):
    """The play distribution's second-moment matrix lost rank on span(S)."""


class _ExpWeightsLearner(Learner):
    """Exponential weights mixed with uniform exploration, block by block.

    Block j holds ``cum_est[j]``, a float list of its arms' summed loss
    estimates, and ``arm_coords[j][a]``, the active coordinates arm a adds
    to the action, increasing.  A subclass's ``start`` builds them and its
    state, its ``close_rounds`` is its estimator, and ``kernel`` names its
    game in :mod:`combandit._kernels`.
    """

    def __init__(self, eta: float, gamma: float):
        self.eta = eta
        self.gamma = gamma

    def start(self, action_set, horizon, rng):
        self.rng = rng
        self.d = action_set.dims.d
        self.t = 0
        self.arms = self.probs = None

    def act(self, uniforms):
        """The round's active coordinates, an int list: block j's arm is
        drawn with the float ``uniforms[j]`` from the mixed weights of
        ``cum_est[j]``.  ``arms`` and ``probs`` keep each block's arm and
        play distribution."""
        eta, gamma = self.eta, self.gamma
        arms, probs, coords = [], [], []
        for est, arm_coords, u in zip(self.cum_est, self.arm_coords, uniforms):
            p = _mixed_weights(est, eta, gamma)
            a = _inverse_cdf(p, u)
            arms.append(a)
            probs.append(p)
            coords += arm_coords[a]
        self.arms, self.probs = arms, probs
        return coords

    def choose(self):
        bits = np.zeros(self.d, dtype=np.uint8)
        bits[self.act(self.rng.random(len(self.cum_est)).tolist())] = 1
        return bits

    def observe(self, observed_loss):
        self.close_rounds([self], [observed_loss])


class PerTaskExp3Learner(_ExpWeightsLearner):
    """k independent EXP3 instances over the n arms of each block.

    Task j feeds the importance-weighted surrogate (lam - b)/(k * p_j(a_j))
    to its chosen arm only.  The default b = 0 uses the raw observation;
    because lam sits near k/2 regardless of the action, that surrogate
    carries O(1) importance-weighting variance per round, which at the
    lower-bound noise scales drowns the planted gap.  Subtracting a baseline
    (fixed k/2, or the running observation mean) removes that variance
    without changing the surrogate's arm-to-arm differences.

    Its blocks are the k tasks, read from the set's ``_block_coords``: arm
    a of task j is the coordinate j*n + a.
    ``obs_sum`` holds the sum of the ``t`` observations so far.
    """

    kernel = "play_exp3_multitask"

    def __init__(self, eta: float, gamma: float,
                 baseline: float | str | None = None):
        super().__init__(eta, gamma)
        self.baseline = ("mean" if baseline == "mean"
                         else 0.0 if baseline is None else float(baseline))

    def start(self, action_set, horizon, rng):
        if action_set.dims.family is not Family.MULTITASK:
            raise ActionSetError("per-task EXP3 requires the multitask family")
        super().start(action_set, horizon, rng)
        self.k = k = action_set.dims.k
        self.cum_est = [[0.0] * action_set.dims.n for _ in range(k)]
        self.arm_coords = action_set._block_coords.tolist()
        self.obs_sum = 0.0

    @staticmethod
    def close_rounds(learners, observed):
        """Close the round of every learner in ``learners``, a block played
        in lockstep, on its observed loss, a float of the list
        ``observed``: each chosen arm gains the surrogate, the other arms
        are unchanged.  The baseline b of a learner's round ``t`` (0-based)
        is the constant itself (0.0 for None), or for ``"mean"`` the mean
        ``obs_sum / t`` of the past observations, seeded with k/2 (the
        a-priori observation level) before the first."""
        for learner, x in zip(learners, observed):
            b, t, k = learner.baseline, learner.t, learner.k
            if b == "mean":
                b = learner.obs_sum / t if t else k / 2.0
            learner.obs_sum += x
            learner.t = t + 1
            centred = x - b
            for row, a, p in zip(learner.cum_est, learner.arms, learner.probs):
                row[a] += centred / (k * p[a])


class EnumeratedExp2Learner(_ExpWeightsLearner):
    """Exponential weights over the full enumerated action set, mixed with
    uniform exploration over S.

    The loss estimator applies the pseudo-inverse of the play distribution's
    second-moment matrix to x_t * lam_t; with uniform mixing over a spanning
    set the estimator is unbiased on span(S).  Its one block's arms are the
    actions, the rows of the set's active-coordinate table; ``span_rank``
    is the rank of S^T S, a bincount over the second moment's cells.
    ``est_sum`` sums every action's estimates; ``cum_est[0]`` lists it.
    """

    kernel = "play_exp2"

    def start(self, action_set, horizon, rng):
        super().start(action_set, horizon, rng)
        self.active = active = action_set.active_coords()
        d, m = self.d, active.shape[0]
        # the second moment's index array, built once per game: the flat
        # (i, i2) cell of every (action, j, j2) triple in that order, each
        # weighted by its action's probability (np.repeat(probs, k * k))
        self.pairs = (active[:, :, None] * d + active[:, None, :]).ravel()
        # R -> the pairs of R replications, offset by d * d, and their rows
        self.block_index = {}
        self.span_rank = int(np.linalg.matrix_rank(
            np.bincount(self.pairs, minlength=d * d).reshape(d, d)))
        self.arm_coords = [active.tolist()]
        self.est_sum = np.zeros(m, dtype=np.float64)
        self.cum_est = [self.est_sum.tolist()]

    def estimates(self, probs, chosen, observed):
        """Least-squares loss estimates of every enumerated action, an
        ``(R, |S|)`` array, for a block of R replications at this learner's
        round: row r is replication r's, which drew the action of index
        ``chosen[r]`` from the play distribution ``probs[r]`` (a float list
        or an array) and observed the float ``observed[r]``.
        Raises :class:`Exp2SingularError`, naming round ``t + 1``, when
        any of the R second moments lost rank on span(S) (gamma too small
        at extreme weights).

        The R second moments are one ``np.bincount`` (a running sum in
        input order), replication r's cells offset by ``r * d * d``, and
        their pseudo-inverses one ``np.linalg.svd`` of the ``(R, d, d)``
        stack; the SVD of each matrix is the one a single call gives.  The
        algebra after it is a fixed number of numpy calls, whatever R and d
        are: each sum is one ``np.add.accumulate``, a running sum in the
        order of the scalar loops it replaced (coordinates i; singular
        directions q; an action's coordinates), so each row is
        bit-identical to them.  ``coef[q]`` adds the chosen action's
        coordinates only: ``x_t * observed`` is exactly 0.0 elsewhere.  The
        directions q past a replication's rank enter with ``coef[q] =
        0.0``.  Each sum starts from its first term, not from 0.0: such a
        sum, or an added zero term, can differ from the loops only in the
        sign of a zero, which every later product and sum keeps among
        zeros, and the final ``+ 0.0`` turns a -0.0 estimate into the
        loops' +0.0.
        """
        d, k = self.d, self.active.shape[1]
        reps = len(probs)
        if reps not in self.block_index:
            self.block_index[reps] = (
                (self.pairs + np.arange(0, reps * d * d, d * d)[:, None]).ravel(),
                np.arange(reps)[:, None])
        pairs, rows = self.block_index[reps]
        second_moment = np.bincount(
            pairs, weights=np.array(probs, dtype=np.float64).repeat(k * k),
            minlength=reps * d * d).reshape(reps, d, d)
        u_mat, s_vals, vt_mat = np.linalg.svd(second_moment)
        within = s_vals > s_vals[:, :1] * d * 1e-12  # the first rank[r]
        if False in within[:, self.span_rank - 1].tolist():
            raise Exp2SingularError(f"second-moment matrix lost rank at "
                                    f"round {self.t + 1}; increase gamma")
        # pseudo-inverse applied to x_t * observed, via the SVD factors:
        # coef[r, q] sums u[r, i, q] * observed[r] over the chosen
        # coordinates i, then divides by s[r, q] within the rank
        arm_coords = self.arm_coords[0]
        terms = u_mat[rows, [arm_coords[a] for a in chosen]]
        terms *= np.array(observed, dtype=np.float64)[:, None, None]
        coef = np.divide(np.add.accumulate(terms, axis=1)[:, -1], s_vals,
                         out=np.zeros((reps, d)), where=within)
        # loss_hat[r, i] sums vt[r, q, i] * coef[r, q] over the directions q
        loss_hat = np.add.accumulate(vt_mat * coef[:, :, None], axis=1)[:, -1]
        est = np.add.accumulate(loss_hat[:, self.active.T], axis=1)[:, -1]
        return est + 0.0

    @staticmethod
    def close_rounds(learners, observed):
        """Close the round of every learner in ``learners``, a block played
        in lockstep, on its chosen action's observed loss, a float of the
        list ``observed``: one :meth:`estimates` call for the block, whose
        row r each learner adds to its ``est_sum``.  A lost rank raises
        from it before any learner's ``est_sum`` or ``t`` moves."""
        est = learners[0].estimates([learner.probs[0] for learner in learners],
                                    [learner.arms[0] for learner in learners],
                                    observed)
        for learner, row in zip(learners, est):
            learner.est_sum += row
            learner.cum_est[0] = learner.est_sum.tolist()
            learner.t += 1


def make_learner(spec: LearnerSpec, action_set: ActionSet, horizon: int) -> Learner:
    """Instantiate the learner described by ``spec``, not yet started."""
    eta, gamma = spec.bind(action_set, horizon)
    if spec.kind == "fixed":
        return FixedActionLearner(action_set.first_action())
    if spec.kind == "uniform":
        return UniformRandomLearner()
    if spec.kind == "round_robin":
        return RoundRobinLearner()
    if spec.kind == "exp3":
        return PerTaskExp3Learner(eta, gamma, spec.baseline)
    return EnumeratedExp2Learner(eta, gamma)


def play_with_kernel(spec: LearnerSpec, action_set: ActionSet,
                     losses: LossTable, rngs: list[np.random.Generator | None]
                     ) -> tuple[np.ndarray | None, list[np.ndarray] | np.ndarray]:
    """Run a block of games through the fused kernel of the learner ``spec``
    describes, one learner per generator in ``rngs`` (None for a
    deterministic learner).

    ``losses`` is the block's :class:`~combandit.environments.LossTable`,
    its R = ``len(rngs)`` games' tables side by side
    (:meth:`~combandit.environments.LossTable.side_by_side`; one game's
    own table is a block of one).  The adaptive kinds play the block in
    lockstep on its rows, read through its ``cols``, each learner drawing
    its uniforms from its own generator; the non-adaptive kinds play each
    game on its own and read only the horizon.  Returns (observed,
    coords): each game's observed losses (R, T), None for a kind that
    consumes no feedback, and each game's active coordinates, (T, k) and
    increasing in every round: a list, unstacked, for a non-adaptive kind,
    and the (R, T, k) array of the adaptive kernels.  Consumes the same
    uniforms in the same order as the round-by-round path, so outputs are
    bit-identical.  A block that loses EXP2's rank raises its earliest such
    round's error, not always serial play's (the engine's ``_play``).
    """
    horizon = losses.shape[0]
    learners = [make_learner(spec, action_set, horizon) for _ in rngs]
    for learner, rng in zip(learners, rngs):
        learner.start(action_set, horizon, rng)
    if spec.kind not in ADAPTIVE_KINDS:
        return None, [learner.play(losses)[1] for learner in learners]
    uniforms = np.stack([learner.rng.random((horizon, len(learner.cum_est)))
                         for learner in learners], axis=1)
    return getattr(_kernels, learners[0].kernel)(losses, learners, uniforms)
