"""Baseline learners the adversaries are run against.

None of these is tuned to be optimal; they are adversary targets spanning
the non-adaptive (fixed, uniform, round-robin) to adaptive (per-task EXP3,
enumerated EXP2) range.  Each learner is one :class:`Learner` class that
sets itself up in ``start`` and then plays a game either round by round
(``choose``/``observe``, the reference engine path) or in ``play``, one call
to its fused kernel from :mod:`combandit._kernels`, which returns
``(observed, coords)``, each round's active coordinates, or raises.
``play`` takes the game's :class:`~combandit.environments.LossTable`.  The
non-adaptive learners consume no feedback, read only the horizon and return
no observed losses (None): the engine scores their coordinates.  The
adaptive learners share one exponential-weights core, a list of blocks of
arms: EXP3 has k blocks of n one-coordinate arms, EXP2 one block whose arms
are the actions.  Its ``act`` draws every block's arm from the round's
uniforms, and ``update``, each learner's estimator, closes the round on the
observed loss.  ``choose``/``observe`` call them once per round, and
``play`` hands the learner to the one game loop, which calls them for every
round.  Both paths consume the same uniform stream, so their transcripts
agree bit for bit.  EXP2's lost rank is one exception,
:class:`Exp2SingularError`, raised in one place,
:meth:`EnumeratedExp2Learner.estimates`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import _inverse_cdf, _mixed_weights, ordered_sum
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
    state, and ``kernel`` names its game in :mod:`combandit._kernels`.
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
        self.update(observed_loss)

    def play(self, losses):
        uniforms = self.rng.random((losses.shape[0], len(self.cum_est)))
        return getattr(_kernels, self.kernel)(losses, self, uniforms)


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

    def update(self, observed):
        """Close the round on its observed loss, a float: each chosen arm
        gains the surrogate, the other arms are unchanged.  The baseline b
        of round ``t`` (0-based) is the constant itself (0.0 for None), or
        for ``"mean"`` the mean ``obs_sum / t`` of the past observations,
        seeded with k/2 (the a-priori observation level) before the
        first."""
        baseline, t, k = self.baseline, self.t, self.k
        if baseline == "mean":
            b = self.obs_sum / t if t else k / 2.0
        else:
            b = baseline
        self.obs_sum += observed
        self.t = t + 1
        centred = observed - b
        for row, a, p in zip(self.cum_est, self.arms, self.probs):
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
        d = self.d
        m, k = active.shape
        # the second moment's index arrays, built once per game: the flat
        # (i, i2) cell of every (action, j, j2) triple in that order, and
        # the action each triple belongs to (probs[owner] is
        # np.repeat(probs, k * k))
        self.pairs = (active[:, :, None] * d + active[:, None, :]).ravel()
        self.owner = np.repeat(np.arange(m), k * k)
        self.span_rank = int(np.linalg.matrix_rank(
            np.bincount(self.pairs, minlength=d * d).reshape(d, d)))
        self.arm_coords = [active.tolist()]
        self.est_sum = np.zeros(m, dtype=np.float64)
        self.cum_est = [self.est_sum.tolist()]

    def estimates(self, chosen, observed):
        """Least-squares loss estimates for every enumerated action, as an
        array, when the action of index ``chosen`` was drawn from the play
        distribution ``probs[0]`` (an array or a float list) and observed
        the float ``observed``.
        Raises :class:`Exp2SingularError`, naming round ``t + 1``, when the
        second moment lost rank on span(S) (gamma too small at extreme
        weights).

        The second moment is one ``np.bincount`` and its pseudo-inverse one
        ``np.linalg.svd``.  The d-sized algebra after it runs on
        ``tolist()`` values, where a numpy call costs more than the
        arithmetic it does; the |S|-sized last step is one
        :func:`~combandit._kernels.ordered_sum` over ``loss_hat[active]``,
        so it stays numpy as S grows.  Every sum is a running sum from
        ``0.0`` in the order of the scalar loops it replaced (actions, then
        coordinate pairs; coordinates i; singular directions r; an action's
        coordinates), so the estimates are bit-identical to them.
        ``coef[r]`` adds the chosen action's coordinates only: ``x_t *
        observed`` is exactly 0.0 elsewhere, and adding +-0.0 leaves a
        running sum from +0.0 unchanged, since such a sum is never -0.0.
        """
        d = self.d
        second_moment = np.bincount(
            self.pairs, weights=np.asarray(self.probs[0])[self.owner],
            minlength=d * d).reshape(d, d)
        u_mat, s_vals, vt_mat = np.linalg.svd(second_moment)
        s = s_vals.tolist()
        tol = s[0] * d * 1e-12
        rank = sum(v > tol for v in s)
        if rank < self.span_rank:
            raise Exp2SingularError(f"second-moment matrix lost rank at "
                                    f"round {self.t + 1}; increase gamma")
        # pseudo-inverse applied to x_t * observed, via the SVD factors
        chosen_coords = self.arm_coords[0][chosen]
        coef = []
        for u_col, s_r in zip(u_mat.T[:rank].tolist(), s):
            acc = 0.0
            for i in chosen_coords:
                acc += u_col[i] * observed
            coef.append(acc / s_r)
        loss_hat = []
        for vt_col in vt_mat[:rank].T.tolist():
            acc = 0.0
            for v, c in zip(vt_col, coef):
                acc += v * c
            loss_hat.append(acc)
        return ordered_sum(np.array(loss_hat)[self.active])

    def update(self, observed):
        """Close the round on the chosen action's observed loss, a float.
        A lost rank raises from :meth:`estimates` and leaves the state as
        it was."""
        self.est_sum += self.estimates(self.arms[0], observed)
        self.cum_est[0] = self.est_sum.tolist()
        self.t += 1


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
                     losses: LossTable, rng: np.random.Generator | None
                     ) -> tuple[np.ndarray | None, np.ndarray]:
    """Run one game through the fused kernel of the learner ``spec`` describes.

    ``losses`` is the game's :class:`~combandit.environments.LossTable`:
    the non-adaptive kinds read only its horizon, and the adaptive kinds
    play on its rows, read through its ``cols``.  Returns (observed,
    coords), each round's active coordinates (T, k) in increasing order;
    observed is None for a kind that consumes no feedback.
    Consumes the same uniforms in the same order as the round-by-round path,
    so outputs are bit-identical.
    """
    learner = make_learner(spec, action_set, losses.shape[0])
    learner.start(action_set, losses.shape[0], rng)
    return learner.play(losses)
