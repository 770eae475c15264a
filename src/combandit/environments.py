"""Randomized adversaries that plant an epsilon-advantaged optimum under
correlated or independent Gaussian noise, with optional [0,1] clipping.

The correlated adversary adds one shared draw Z_t ~ N(0, sigma^2) to every
coordinate of round t's loss vector, so any k-sparse action observes a sum
whose variance is k^2 sigma^2; the independent control adds a fresh draw per
coordinate (variance k sigma^2).  Both use the same gap schedule

    epsilon = sigma * sqrt(k*d / (4*T))   (multitask / layered path)
    epsilon = sigma * sqrt(k*d / (8*T))   (ranking / matching)

and the clipped construction fixes sigma^2 = 1/(192 + 96*ln T).  The natural
logarithm is the right reading of "log" here: the Gaussian tail bound
exp(-(1/4)^2 / (2 sigma^2)) = exp(-(6 + 3 ln T)) collapses to e^-6 / T^2
only with ln.

Gaussian noise is produced by inverse-CDF transform of uniforms from a
counter-based Philox stream.  Loss sequences are bit-identical under one
numpy, scipy and libm variant; across glibc's FMA and non-FMA variants the
CSVs held, but ``--record-hidden`` transcripts did not.

Every seed argument takes an int, a sequence of ints or a SeedSequence;
:func:`seed_sequence` is the one conversion, and :class:`AdversaryConfig`
converts its own fields where it is built.

A game's losses are drawn as a :class:`LossTable`: the distinct loss values
of each round, and the column each coordinate reads.  Under correlated noise
a round has two values, clip(1/2 + sigma Z_t) off x* and clip(1/2 - epsilon
+ sigma Z_t) on it, so the table is (T, 2) whatever d is; the independent
control keeps one column per coordinate.  Every game reads the table, and
only the tests build the dense (T, d) loss matrix, as their reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ndtri

from . import _kernels
from .action_sets import (
    ActionSet,
    ActionSetError,
    Dimensions,
    Family,
    LayeredPathSet,
    action_to_string,
)


class NoiseMode(str, Enum):
    CORRELATED = "CorrelatedGaussian"
    INDEPENDENT = "IndependentGaussian"


def seed_sequence(seed) -> np.random.SeedSequence:
    """An int, a sequence of ints or a SeedSequence as a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def make_rng(seed) -> np.random.Generator:
    """Generator over the counter-based Philox stream keyed by ``seed``."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed)))


def standard_normals(rng: np.random.Generator, shape) -> np.ndarray:
    """N(0,1) draws via the inverse normal CDF applied to uniforms.

    Uniforms are taken on the grid (i + 1/2) * 2^-53, i in [0, 2^53), an
    explicit, platform-independent map from the bit stream to normals.  The
    grid is centred for i < 2^52 only: above, i + 1/2 rounds to an integer
    (ties to even), and i = 2^53 - 1 gives u = 1.0, clamped to the largest
    double below 1 so that no draw is infinite.  The uniforms and the
    normals share one float64 array: each element goes through the same
    operations as ``ndtri((i + 0.5) * 2^-53)``, plus that clamp, in place.
    """
    u = rng.integers(0, 1 << 53, size=shape, dtype=np.uint64).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    np.minimum(u, np.nextafter(1.0, 0.0), out=u)
    return ndtri(u, out=u)


def clip(a, out=None):
    """Truncate to [0, 1]: max(min(a, 1), 0).  Works on scalars and arrays;
    ``out=a`` clips an array in place and returns it."""
    return np.minimum(np.maximum(a, 0.0, out=out), 1.0, out=out)


def compute_sigma(T) -> float:
    """Noise scale of the clipped construction, 1/sqrt(192 + 96 ln T)."""
    if T < 1:
        raise ValueError(f"horizon must be >= 1, got {T}")
    return 1.0 / math.sqrt(192.0 + 96.0 * math.log(T))


def compute_epsilon(sigma: float, dims: Dimensions, T: int) -> float:
    """Planted gap of the family's schedule: sigma*sqrt(kd/(8T)) for matching
    (the ranking case), sigma*sqrt(kd/(4T)) for multitask and layered path."""
    if T < 1:
        raise ValueError(f"horizon must be >= 1, got {T}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    denom = 8.0 if dims.family is Family.MATCHING else 4.0
    return sigma * math.sqrt(dims.k * dims.d / (denom * T))


@dataclass(frozen=True)
class AdversaryConfig:
    """Frozen description of one environment realization.

    ``seed`` keys the noise stream only; ``x_star`` is already sampled.  The
    full loss sequence is a deterministic function of this object.  Each
    field is converted or refused (ValueError) here: ``noise_mode`` to a
    :class:`NoiseMode`, ``seed`` by :func:`seed_sequence` and ``x_star``, a
    0/1 vector with k ones, to uint8.
    """

    dims: Dimensions
    T: int
    sigma: float
    epsilon: float
    noise_mode: NoiseMode
    clipped: bool
    x_star: np.ndarray
    seed: np.random.SeedSequence

    def __post_init__(self):
        if self.T < 1:
            raise ValueError(f"horizon must be >= 1, got {self.T}")
        if self.sigma < 0 or self.epsilon < 0:
            raise ValueError("sigma and epsilon must be nonnegative")
        x = np.asarray(self.x_star)  # k nonzeros, all ones: 0/1 with k ones
        if (x.shape != (self.dims.d,) or np.count_nonzero(x) != self.dims.k
                or np.count_nonzero(x == 1) != self.dims.k):
            raise ValueError("x_star must be a 0/1 vector, length d, k ones")
        object.__setattr__(self, "x_star", x.astype(np.uint8, copy=False))
        object.__setattr__(self, "noise_mode", NoiseMode(self.noise_mode))
        object.__setattr__(self, "seed", seed_sequence(self.seed))

    def describe(self) -> str:
        """One header line; its ``seed`` and ``spawn_key`` fields (see
        :func:`seed_fields`) rebuild the noise stream."""
        return (
            f"noise_mode={self.noise_mode.value} clipped={str(self.clipped).lower()} "
            f"sigma={self.sigma!r} epsilon={self.epsilon!r} "
            f"{seed_fields(self.seed)} x_star={action_to_string(self.x_star)}"
        )


def seed_fields(seed_seq: np.random.SeedSequence, prefix: str = "") -> str:
    """Header fields ``<prefix>seed=`` and ``<prefix>spawn_key=``, each a
    comma-separated list of integers, from which ``SeedSequence(seed,
    spawn_key=...)`` rebuilds ``seed_seq`` (``seed`` is one integer unless
    the entropy was a sequence)."""
    seed = ",".join(str(v) for v in np.atleast_1d(seed_seq.entropy))
    spawn_key = ",".join(str(v) for v in seed_seq.spawn_key)
    return f"{prefix}seed={seed} {prefix}spawn_key={spawn_key}"


def make_adversary(action_set: ActionSet, T: int, seed_seq,
                   noise_mode: NoiseMode = NoiseMode.CORRELATED,
                   clipped: bool = False,
                   sigma: float | None = None,
                   epsilon: float | None = None) -> AdversaryConfig:
    """Build an adversary for this action set.

    sigma defaults to the clipped-construction schedule and epsilon to the
    family's gap schedule.  The seed is split: one child samples x*, the
    other keys the per-round noise.
    """
    dims = action_set.dims
    if sigma is None:
        sigma = compute_sigma(T)
    if epsilon is None:
        epsilon = compute_epsilon(sigma, dims, T)
    xstar_seq, noise_seq = seed_sequence(seed_seq).spawn(2)
    x_star = action_set.sample_uniform(make_rng(xstar_seq))
    return AdversaryConfig(
        dims=dims, T=T, sigma=sigma, epsilon=epsilon,
        noise_mode=noise_mode, clipped=clipped,
        x_star=x_star, seed=noise_seq,
    )


@dataclass(frozen=True)
class LossTable:
    """A game's (T, d) losses as distinct values per round: coordinate i's
    loss in round t is ``table[t, cols[i]]``.

    ``table`` is a C-contiguous (T, m) float64 array and ``cols`` a (d,)
    signed int array (``np.intp``) of its columns.  Under correlated noise
    m = 2 (column 0 is off x*, column 1 on it) and ``cols`` is x* itself;
    under independent noise the table is the matrix and ``cols`` is
    ``arange(d)``.  Every reader gets the bits it would get from the dense
    matrix, which :meth:`matrix` builds for the tests: :meth:`column_sums`
    adds each column over the rounds in round order, as a loop ``acc +=
    row[j]`` over the matrix's rows does (d = 1 aside, see there), and
    :meth:`round_loss` gathers as :func:`~combandit._kernels.round_loss`
    of the matrix does.
    """

    table: np.ndarray
    cols: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        """(T, d), the dense matrix's shape."""
        return self.table.shape[0], self.cols.shape[0]

    def matrix(self) -> np.ndarray:
        """The dense (T, d) loss matrix, a fresh C-contiguous array.

        ``np.take`` along axis 1 keeps C order, so the tests' row loops
        read it in round order; ``table[:, cols]`` would give an F-ordered
        copy, whose columns a reduction such as ``np.sum(axis=0)`` adds
        pairwise.
        """
        return np.take(self.table, self.cols, axis=1)

    def column_sums(self) -> np.ndarray:
        """Each coordinate's cumulative loss, (d,): the table's columns
        summed over the rounds in round order, then gathered.

        ``einsum`` adds the C-contiguous table row after row into one (m,)
        accumulator: the bits of ``np.sum(axis=0)`` without its T inner
        loops of m elements.  A lone column (d = 1) is one contiguous run,
        which both add in blocks, not in round order; it keeps
        ``np.sum``'s pairwise sum.
        """
        table = self.table
        sums = (np.einsum("ij->j", table) if table.shape[1] > 1
                else np.sum(table, axis=0))
        return sums[self.cols]

    @classmethod
    def side_by_side(cls, tables) -> LossTable:
        """The tables of R games of one shape as one table over R * d
        coordinates, the block that :func:`~combandit._kernels._play_rounds`
        plays: game r's coordinate i is coordinate ``r * d + i``, and reads
        column ``r * m + cols[i]`` of the joined (T, R * m) rows.  One table
        is its own block."""
        first = tables[0]
        if len(tables) == 1:
            return first
        if any(t.table.shape != first.table.shape or t.cols.shape != first.cols.shape
               for t in tables):
            raise ValueError("a block's loss tables must share one shape")
        width = first.table.shape[1]
        return cls(np.concatenate([t.table for t in tables], axis=1),
                   np.concatenate([t.cols + r * width
                                   for r, t in enumerate(tables)]))

    def round_loss(self, coords) -> np.ndarray:
        """Each round's observed loss at its active coordinates ``coords``
        (``(k,)`` for every round, or ``(T, k)``), added in the order
        listed."""
        return _kernels.round_loss(self.table, coords, self.cols)


def draw_losses(config: AdversaryConfig) -> tuple[LossTable, np.ndarray]:
    """All T rounds' losses, as a :class:`LossTable`, plus the recorded
    noise draws.

    Returns ``(losses, noise)`` where noise is (T,) for the correlated mode
    or (T, d) for the independent control.  Rounds are i.i.d.; the whole
    sequence is a pure function of the config.  The table's levels are
    ``0.5 - epsilon * x`` for x = [0, 1] (correlated; columns picked by
    x*) or x = x* (independent); the noise is added to them in one fresh
    C-contiguous array (under correlated noise one column at a time, an
    add along the rounds) and the clip runs on it in place, so each dense
    entry goes through the same IEEE operations as ``clip(0.5 - epsilon *
    x*_i + noise)``.
    """
    rng = make_rng(config.seed)
    T, d = config.T, config.dims.d
    correlated = config.noise_mode is NoiseMode.CORRELATED
    x = (np.array([0.0, 1.0]) if correlated
         else config.x_star.astype(np.float64))
    levels = 0.5 - config.epsilon * x
    noise = standard_normals(rng, (T,) if correlated else (T, d))
    noise *= config.sigma
    if correlated:
        table = np.empty((T, 2))
        for j in range(2):
            np.add(levels[j], noise, out=table[:, j])
    else:
        table = np.add(levels, noise)
    if config.clipped:
        clip(table, out=table)
    cols = (config.x_star.astype(np.intp) if correlated
            else np.arange(d, dtype=np.intp))
    return LossTable(table, cols), noise


def shortest_path_losses(multitask_losses: np.ndarray, graph) -> np.ndarray:
    """Lift multitask losses onto the layered graph's edges.

    Layer j's fan-out edges (``graph._block_coords[j, :, 0]``) carry block j
    of the multitask loss vector, one vector or a (T, ...) stack of them (the
    induced problem has k/2 tasks of d/k arms); fan-in edges carry 0.  For
    every path x, the edge losses of x sum to the multitask losses of its
    arm tuple, exactly.
    """
    if not isinstance(graph, LayeredPathSet):
        raise ActionSetError("shortest_path_losses requires a layered path set")
    multitask_losses = np.asarray(multitask_losses, dtype=np.float64)
    fan_out = graph._block_coords[:, :, 0].reshape(-1)
    if multitask_losses.shape[-1] != fan_out.size:
        raise ActionSetError(
            f"expected {fan_out.size} multitask coordinates, "
            f"got {multitask_losses.shape[-1]}"
        )
    out = np.zeros(multitask_losses.shape[:-1] + (graph.dims.d,))
    out[..., fan_out] = multitask_losses
    return out
