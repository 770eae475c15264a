"""T-round game protocol under strict bandit feedback.

The engine pre-draws the entire loss sequence from the adversary config
before round 1 (obliviousness is structural, not behavioral), then reveals
to the learner one scalar per round: the inner product of its action with
the hidden loss vector.  The losses are drawn as a
:class:`~combandit.environments.LossTable`, each round's distinct values
and the column each coordinate reads, and every reader of a game takes
the table: no game builds the dense (T, d) matrix, which the tests build as
their reference.  A learner played round by round (``choose`` /
``observe``) sees only those scalars.  A fused kernel (``play``) is handed
the game's table but reads only the chosen coordinates' columns of each
row, which ``tests/test_kernels.py`` checks against scalar loops over the
matrix; the kernels that consume no feedback read only the horizon.
Either way a game's play travels as each round's k active coordinates, in
increasing order.  A :class:`Transcript` checks them where it is built
and scores the game with one gather of the table at those coordinates'
columns: a kernel whose rounds consumed no feedback hands over no observed
losses and takes the gather as its own; any other observed loss must equal
it bit for bit.

:func:`replicate` returns each game's :class:`Transcript`, or, with
``records=True``, its :class:`GameRecord`: the config, learner seed,
cumulative loss and hindsight-best loss, scored where the game ran from
the loss table's column sums, so that its losses are freed before the next
game draws.  :func:`_run_replication` maps a replication's seed to it, here
or in a pool of at most one worker per CPU fed contiguous chunks; a
caller with many :func:`replicate` calls to make, such as a sweep, opens
one :func:`replication_pool` and passes it to each.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import os
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .action_sets import ActionSet, action_to_string, hindsight_best
from .environments import (
    AdversaryConfig,
    LossTable,
    NoiseMode,
    draw_losses,
    make_adversary,
    make_rng,
    seed_fields,
    seed_sequence,
)
from .learners import Learner, LearnerSpec, make_learner, play_with_kernel


class GameProtocolError(RuntimeError):
    """A learner broke the protocol (played an action outside S)."""


@dataclass(frozen=True)
class GameRecord:
    """What a game's score needs, kept once its losses are gone: its
    adversary config, its learner seed, its realized cumulative loss and
    the hindsight-best action's cumulative loss."""

    config: AdversaryConfig
    learner_seed: np.random.SeedSequence | None
    cumulative_loss: float
    best_loss: float


@dataclass
class Transcript:
    """Full record of one game, checked where it is built.

    ``coords[t]`` holds round t's k active coordinates: k strictly
    increasing indices in [0, d), or a flat index could alias into the next
    round's losses, and :class:`GameProtocolError` names the first bad
    round.  They are stored in the narrowest signed integer type that holds
    d - 1.  ``losses`` is the game's
    :class:`~combandit.environments.LossTable`, and one gather of it
    (:meth:`~combandit.environments.LossTable.round_loss`) scores the game:
    ``observed`` is None when the game's rounds consumed no feedback, and
    the gather becomes the observed losses; otherwise every observed scalar
    must equal the gather bit for bit, and AssertionError names the first
    round that does not (feedback soundness).  So ``observed[t]`` equals the
    sum of round t's losses at ``coords[t]`` exactly, added in increasing
    index order.  A transcript unpickled from a pool worker is not checked
    again.  ``learner_seed`` keys the learner's own stream when it drew
    from one, so a recorded game's actions can be played again.
    """

    coords: np.ndarray
    observed: np.ndarray | None
    losses: LossTable
    noise: np.ndarray
    config: AdversaryConfig
    learner: str
    learner_seed: np.random.SeedSequence | None = None

    def __post_init__(self):
        coords = self.coords
        horizon, d = self.losses.shape
        k = self.config.dims.k
        if coords.shape != (horizon, k):
            raise GameProtocolError(f"played coordinates have shape "
                                    f"{coords.shape}, expected {(horizon, k)}")
        if not ((coords[:, 1:] > coords[:, :-1]).all() and coords[:, 0].min() >= 0
                and coords[:, -1].max() < d):
            bad = ((coords[:, 0] < 0) | (coords[:, -1] >= d)
                   | (coords[:, 1:] <= coords[:, :-1]).any(axis=1))
            t = int(np.flatnonzero(bad)[0])
            raise GameProtocolError(
                f"round {t + 1}: played coordinates {coords[t].tolist()} are "
                f"not {k} increasing indices in [0, {d})")
        gathered = self.losses.round_loss(coords)
        if self.observed is None:
            self.observed = gathered
        else:
            unsound = np.flatnonzero(gathered != self.observed)
            if unsound.size:
                raise AssertionError(f"observed loss mismatch at round "
                                     f"{unsound[0] + 1}")
        self.coords = coords.astype(np.min_scalar_type(-d))

    @property
    def horizon(self) -> int:
        return self.coords.shape[0]

    def cumulative_loss(self) -> float:
        return float(np.sum(self.observed))

    def to_lines(self) -> list[str]:
        """Line-oriented record: a config header, then one row per round
        (t, action string, observed loss, shared noise draw, hidden loss
        vector).

        The ``learner_seed`` and ``learner_spawn_key`` fields of the first
        header line (see :func:`~combandit.environments.seed_fields`)
        rebuild the learner's stream; they are absent when the game gave
        the learner none.
        """
        dims = self.config.dims
        game = (f"family={dims.family.value} d={dims.d} k={dims.k} n={dims.n} "
                f"T={self.config.T} learner={self.learner}")
        if self.learner_seed is not None:
            game += " " + seed_fields(self.learner_seed, "learner_")
        lines = ["# combandit transcript", game, self.config.describe()]
        # every round's action from one scatter of '1' into a (T, d) array
        # of '0' characters, viewed as one d-character string per row
        chars = np.full(self.losses.shape, ord("0"), dtype=np.uint32)
        np.put_along_axis(chars, self.coords, ord("1"), axis=1)
        cols = self.losses.cols.tolist()
        # the independent (T, d) noise is never printed
        noise = ([repr(z) for z in self.noise.tolist()]
                 if self.config.noise_mode is NoiseMode.CORRELATED
                 else [""] * len(chars))
        rounds = zip(chars.view(f"U{dims.d}").ravel().tolist(),
                     self.losses.table.tolist(), self.observed.tolist(), noise)
        for t, (action, row, observed, z) in enumerate(rounds):
            # each distinct value of the round is formatted once
            text = [repr(v) for v in row]
            hidden = ",".join([text[c] for c in cols])
            lines.append(f"{t + 1}\t{action}\t{observed!r}\t{z}\t{hidden}")
        return lines

    def record(self, action_set: ActionSet) -> GameRecord:
        """This game's :class:`GameRecord`, scored against ``action_set``
        from the loss table (no dense matrix is built)."""
        return GameRecord(
            config=self.config, learner_seed=self.learner_seed,
            cumulative_loss=self.cumulative_loss(),
            best_loss=hindsight_best(self.losses, action_set))


def play_losses(learner: Learner, action_set: ActionSet, losses: LossTable,
                rng: np.random.Generator | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Run a learner against the loss table ``losses``, revealing only scalars.

    Returns the observed losses (T,) and each round's active coordinates
    (T, k), increasing.  Raises :class:`GameProtocolError` the moment the
    learner leaves the action set, an entry outside {0, 1} included.
    """
    horizon, d = losses.shape
    learner.start(action_set, horizon, rng)
    coords = np.empty((horizon, action_set.dims.k), dtype=np.int64)
    observed = np.empty(horizon, dtype=np.float64)
    for t in range(horizon):
        bits = np.asarray(learner.choose())
        binary = bits.shape == (d,) and ((bits == 0) | (bits == 1)).all()
        if not binary or not action_set.contains(bits):
            raise GameProtocolError(
                f"round {t + 1}: learner played an action outside the set: "
                f"{action_to_string(bits) if binary else bits!r}"
            )
        coords[t] = np.flatnonzero(bits)
        observed[t] = _kernels.round_loss(losses.table[t], coords[t], losses.cols)
        learner.observe(float(observed[t]))
    return observed, coords


def run_game(learner, adversary: AdversaryConfig, action_set: ActionSet,
             learner_seed=None) -> Transcript:
    """One full game of the bandit protocol.

    ``learner`` is a :class:`~combandit.learners.LearnerSpec`, played through
    its fused kernel, or a :class:`Learner`, played round by round.  The
    adversary's losses are fully determined by its config (oblivious by
    construction); the learner draws its own randomness from a stream keyed
    by ``learner_seed``, which a randomized learner cannot go without.
    """
    if adversary.dims != action_set.dims:
        raise ValueError("learner and adversary must share the same dimensions")
    spec = learner if isinstance(learner, LearnerSpec) else None
    desc = spec.describe() if spec else type(learner).__name__
    if learner_seed is None:
        instance = make_learner(spec, action_set, adversary.T) if spec else learner
        if not instance.deterministic:
            raise ValueError(f"learner {desc} is randomized and needs a "
                             f"learner_seed")
        rng = None
    else:
        learner_seed = seed_sequence(learner_seed)
        rng = make_rng(learner_seed)
    losses, noise = draw_losses(adversary)
    if spec:
        observed, coords = play_with_kernel(spec, action_set, losses, rng)
    else:
        observed, coords = play_losses(learner, action_set, losses, rng)
    return Transcript(coords, observed, losses, noise, adversary, desc,
                      learner_seed)


@dataclass(frozen=True)
class AdversaryFactory:
    """Picklable recipe for per-replication adversaries.

    ``theorem4`` is the clipped correlated construction, and calling this
    factory is the one way to build it: with correlated noise either flag
    sets both, and a call refuses T < k*d.  Otherwise the noise mode and
    clipping apply, under the default sigma/epsilon schedules.  The factory
    converts ``noise_mode`` (a :class:`NoiseMode` or its value) and refuses
    T < 1 where it is built.  A callable ``(action_set, seed_seq) ->
    AdversaryConfig`` over :func:`make_adversary` sets other values.
    """

    T: int
    noise_mode: NoiseMode = NoiseMode.CORRELATED
    clipped: bool = False
    theorem4: bool = False

    def __post_init__(self):
        object.__setattr__(self, "noise_mode", NoiseMode(self.noise_mode))
        if self.T < 1:
            raise ValueError(f"horizon must be >= 1, got {self.T}")
        correlated = self.noise_mode is NoiseMode.CORRELATED
        if self.theorem4 and not correlated:
            raise ValueError("theorem4 is the correlated construction, not independent")
        construction = correlated and (self.clipped or self.theorem4)
        object.__setattr__(self, "clipped", self.clipped or construction)
        object.__setattr__(self, "theorem4", construction)

    def __call__(self, action_set: ActionSet, seed_seq) -> AdversaryConfig:
        dims = action_set.dims
        if self.theorem4 and self.T < dims.k * dims.d:
            raise ValueError(f"clipped construction requires T >= k*d = "
                             f"{dims.k * dims.d}, got T={self.T}")
        return make_adversary(action_set, self.T, seed_seq,
                              noise_mode=self.noise_mode, clipped=self.clipped)


def _run_replication(learner_or_spec, factory, action_set, records, rep_seed):
    """``rep_seed``'s game result.  Its transcript lives only in this call,
    so with ``records`` its losses are freed before the next game draws."""
    env_seq, learner_seq = rep_seed.spawn(2)
    config = factory(action_set, env_seq)
    learner = (learner_or_spec if isinstance(learner_or_spec, LearnerSpec)
               else learner_or_spec(action_set, config.T))
    transcript = run_game(learner, config, action_set, learner_seq)
    return transcript.record(action_set) if records else transcript


def _workers(jobs: int, reps: int) -> int:
    """Pool size at ``jobs``: at most one worker per replication and CPU."""
    return min(jobs, reps, os.cpu_count() or 1)


def replication_pool(jobs: int, reps: int):
    """The process pool that :func:`replicate` at ``jobs`` plays ``reps``
    replications in, as a context manager, for callers that share one pool
    across calls: ``min(jobs, reps, os.cpu_count())`` workers, or a null
    context yielding None when the games run serially."""
    workers = _workers(jobs, reps)
    if workers == 1:
        return contextlib.nullcontext()
    return concurrent.futures.ProcessPoolExecutor(max_workers=workers)


def replicate(learner_or_spec, adversary_factory, action_set: ActionSet,
              reps: int, seed, jobs: int = 1, records: bool = False,
              pool: concurrent.futures.Executor | None = None
              ) -> list[Transcript] | list[GameRecord]:
    """Independent games with disjoint seed streams.

    Each replication gets a fresh planted optimum, fresh noise and fresh
    learner state.  ``learner_or_spec`` is either a :class:`LearnerSpec`
    (dispatched to the fused kernels) or a factory ``(action_set, T) ->
    Learner`` run through the reference engine.  Returns one
    :class:`Transcript` per replication, or with ``records`` one
    :class:`GameRecord`, scored where its game ran, so that no game's
    losses outlive it.  Every replication is one call of
    :func:`_run_replication` on its own seed, spawned from ``seed``, so
    results are the same and in replication order whatever ``jobs`` is.
    With w = ``min(jobs, reps, os.cpu_count())`` workers above one, the
    seeds go to ``pool.map`` in chunks of ceil(reps / w) contiguous seeds,
    never more chunks than workers; they run in ``pool`` when one is given
    (see :func:`replication_pool`), otherwise in a pool of w workers opened
    and closed by this call.  With one worker the games run in this
    process, and a given ``pool`` is unused.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    play = functools.partial(_run_replication, learner_or_spec,
                             adversary_factory, action_set, records)
    rep_seeds = seed_sequence(seed).spawn(reps)
    workers = _workers(jobs, reps)
    if workers == 1:
        return [play(rep_seed) for rep_seed in rep_seeds]
    shared = (contextlib.nullcontext(pool) if pool is not None
              else replication_pool(jobs, reps))
    with shared as pool:
        return list(pool.map(play, rep_seeds, chunksize=-(-reps // workers)))
