"""Combinatorial action families: multitask arm tuples, layered s-t paths,
and bipartite matchings.

Every action is a k-sparse 0/1 incidence vector over d coordinates.  The
three families share a canonical coordinate layout:

* multitask — block j (of k) owns coordinates ``j*n .. j*n+n-1``; an action
  activates exactly one coordinate per block.
* layered path — the graph has k/2 layers, each fanning out from one
  incoming vertex to d/k intermediate vertices that reconnect at one
  outgoing vertex.  Edges are numbered layer by layer, fan-out edges before
  fan-in edges, so layer j owns edges ``j*2m .. j*2m+2m-1`` with m = d/k.
* matching — coordinate ``j*n + l`` is the edge (row j, column l) of the
  complete bipartite graph between k rows and n columns; an action is a
  maximum matching (one column per row, one row per column).

Each action is indexed by its per-block choices: the arm of each task, the
intermediate vertex of each layer, the column of each row.  One table per
set, ``_block_coords`` of shape ``(blocks, arms, width)``, owns the layout
and membership: the coordinates, in increasing order, that block j's choice
c activates (``j*n + c`` for multitask and matching, the fan-out and fan-in
edge of vertex c for a path layer).  Every conversion from choices to
coordinates is a gather from it, and every conversion back reads it too: a
0/1 vector is an action when each block has exactly one choice whose
coordinates are all set and nothing else is set (a matching adds that no
column is taken twice), which also recovers the vector's choice tuple.  The
path-to-multitask lift, the loss lift onto a graph's edges and the
play-count identities all go through the table.  The hindsight oracle folds
its cumulative losses block by block (see :func:`hindsight_best`), so
only round robin, EXP2 and the play-count identities enumerate S, as
``active_coords``; the incidence matrix is built only where its 0/1 rows
are printed (``enumerate``) or checked (verification suites).

The canonical order is lexicographic over the choice tuples
(``itertools.product`` for multitask and path, ``itertools.permutations``
for matching), which makes the layered-path-to-multitask correspondence an
index permutation.  A set is enumerated as one int64 choice array of shape
``(|S|, blocks)`` in that order; its active coordinates and incidence matrix
are derived from the array by numpy indexing, never one action at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels

DEFAULT_ENUMERATION_CAP = 10**6


class Family(str, Enum):
    MULTITASK = "multitask"
    LAYERED_PATH = "path"
    MATCHING = "matching"


class ActionSetError(ValueError):
    """Inadmissible dimensions or malformed actions."""


class EnumerationCapExceeded(ActionSetError):
    """The action set, or the matching oracle's widest layer of states, is
    too large to materialize."""


@dataclass(frozen=True)
class Dimensions:
    """Instance triple (d, k, n) plus its family tag.

    d is the ambient dimension, k the sparsity (and loss scale), n the arms
    per sub-problem (d = k*n for all three families).
    """

    d: int
    k: int
    n: int
    family: Family

    def __post_init__(self):
        # a layered path's n is derived as d // k; the checks below cover it
        path = self.family is Family.LAYERED_PATH
        for name in ("k", "d") if path else ("k", "n", "d"):
            value = getattr(self, name)
            if value < 1:
                raise ActionSetError(f"{name} must be >= 1, got {value}")
        if self.family is Family.MULTITASK and self.n < 2:
            raise ActionSetError(f"multitask requires n >= 2, got n={self.n}")
        if path:
            if self.k % 2 != 0:
                raise ActionSetError(f"layered path requires even k, got k={self.k}")
            if self.d % 2 != 0:
                raise ActionSetError(f"layered path requires even d, got d={self.d}")
            if self.d % self.k != 0:
                raise ActionSetError(
                    f"layered path requires d divisible by k, got d={self.d}, k={self.k}"
                )
            if self.k > self.d // 2:
                raise ActionSetError(
                    f"layered path requires k <= d/2, got k={self.k}, d={self.d}"
                )
        if self.family is Family.MATCHING and self.k > self.n:
            raise ActionSetError(f"matching requires k <= n, got k={self.k}, n={self.n}")
        if self.d != self.k * self.n:
            raise ActionSetError(
                f"d={self.d} must equal k*n={self.k * self.n} for family {self.family.value}"
            )


def action_to_string(bits: np.ndarray) -> str:
    """Serialize an incidence vector as a 0/1 string, coordinate 1 leftmost."""
    return "".join("1" if b else "0" for b in bits)


def _product_choices(arms: int, blocks: int) -> np.ndarray:
    """Every ``blocks``-tuple over ``range(arms)``, (arms**blocks, blocks)
    int64, in ``itertools.product`` order."""
    grid = np.indices((arms,) * blocks, dtype=np.int64)
    return np.ascontiguousarray(grid.reshape(blocks, -1).T)


class ActionSet:
    """Base class: an enumerable family of k-sparse incidence vectors.

    ``cap`` bounds what the set materializes: |S| when it enumerates, and
    the widest layer of its hindsight oracle's states.  Every check reads it.
    """

    def __init__(self, dims: Dimensions, cap: int = DEFAULT_ENUMERATION_CAP):
        if cap < 1:
            raise ActionSetError(f"cap must be >= 1, got {cap}")
        self.dims = dims
        self.cap = cap
        self._matrix: np.ndarray | None = None
        self._active: np.ndarray | None = None

    def __getstate__(self):
        # pickled once per --jobs task: no caches; a worker rebuilds what it uses
        return {**self.__dict__, "_matrix": None, "_active": None}

    @property
    def cardinality(self) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        d = self.dims
        return (
            f"family={d.family.value} d={d.d} k={d.k} n={d.n} "
            f"cardinality={self.cardinality}"
        )

    # -- choice-tuple codec -------------------------------------------------
    # Each family indexes its actions by a tuple of per-block choices; the
    # methods below convert between tuples and incidence vectors.

    @functools.cached_property
    def _block_coords(self) -> np.ndarray:
        """Coordinates each block's choices activate, ``(blocks, arms,
        width)`` int64: block j of n arms owns ``j*n .. j*n+n-1``, one
        coordinate per choice (the multitask and matching layout).  Read in
        block order, a choice tuple's coordinates are increasing."""
        k, n = self.dims.k, self.dims.n
        return (np.arange(k)[:, None, None] * n
                + np.arange(n)[None, :, None])

    def _choices(self) -> np.ndarray:
        """Every action's choices, (|S|, blocks) int64, in canonical order:
        every tuple of arms (the product families)."""
        blocks, arms, _ = self._block_coords.shape
        return _product_choices(arms, blocks)

    def _coords(self, choices: np.ndarray) -> np.ndarray:
        """Active coordinates, in increasing order, of choices of any leading
        shape: ``(..., blocks)`` -> ``(..., k)``, gathered from
        ``_block_coords``."""
        table = self._block_coords
        picked = table[np.arange(table.shape[0]), choices]
        return picked.reshape(*choices.shape[:-1], self.dims.k)

    def _choices_to_bits(self, choices) -> np.ndarray:
        bits = np.zeros(self.dims.d, dtype=np.uint8)
        bits[self._coords(np.asarray(choices, dtype=np.int64))] = 1
        return bits

    def first_action(self) -> np.ndarray:
        """The first action in canonical order, built from its choice tuple
        (arm 0 in every block) without enumerating."""
        return self._choices_to_bits(np.zeros(self._block_coords.shape[0],
                                              dtype=np.int64))

    def uniforms_per_round(self) -> int:
        """How many uniforms a single uniform draw from this set consumes:
        one per block."""
        return self._block_coords.shape[0]

    def _uniform_choices(self, uniforms: np.ndarray) -> np.ndarray:
        """Choices of uniform draws, one per row of the ``(rounds, blocks)``
        uniforms: block j takes slot ``uniform_index(u, n)`` of its n."""
        return _kernels.uniform_index(uniforms, self.dims.n)

    def sample_uniform(self, rng: np.random.Generator) -> np.ndarray:
        """One uniform draw from the set, consuming ``uniforms_per_round()``
        uniforms from ``rng``."""
        uniforms = rng.random((1, self.uniforms_per_round()))
        return self._choices_to_bits(self._uniform_choices(uniforms)[0])

    # -- enumeration ----------------------------------------------------------

    def check_cap(self) -> None:
        if self.cardinality > self.cap:
            raise EnumerationCapExceeded(
                f"cardinality {self.cardinality} exceeds enumeration cap {self.cap}")

    def enumerate_actions(self) -> np.ndarray:
        """All actions as a (|S|, d) uint8 matrix in canonical order."""
        self.check_cap()
        if self._matrix is None:
            active = self.active_coords()
            matrix = np.zeros((active.shape[0], self.dims.d), dtype=np.uint8)
            np.put_along_axis(matrix, active, 1, axis=1)
            self._matrix = matrix
        return self._matrix

    def active_coords(self) -> np.ndarray:
        """Active coordinates of every action, (|S|, k) int64, rows sorted."""
        self.check_cap()
        if self._active is None:
            self._active = self._coords(self._choices())
        return self._active

    def oracle_layout(self) -> tuple | None:
        """None: a product family's hindsight oracle keeps no state."""
        return None

    # -- membership -----------------------------------------------------------

    def _choices_of(self, bits) -> np.ndarray | None:
        """The choice tuple whose coordinates are exactly those ``bits``
        sets, or None when there is none: each block has exactly one arm
        whose ``_block_coords`` are all set, and k coordinates are set."""
        bits = self._check_length(bits)
        full = bits[self._block_coords].all(axis=-1)
        if int(bits.sum()) != self.dims.k or not (full.sum(axis=1) == 1).all():
            return None
        return full.argmax(axis=1)

    def contains(self, bits: np.ndarray) -> bool:
        return self._choices_of(bits) is not None

    def _check_length(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits)
        if bits.ndim != 1 or bits.shape[0] != self.dims.d:
            raise ActionSetError(
                f"action has length {bits.shape}, expected ({self.dims.d},)"
            )
        if not ((bits == 0) | (bits == 1)).all():
            raise ActionSetError("action entries must be 0 or 1")
        return bits.astype(np.uint8)


class MultitaskSet(ActionSet):
    """k simultaneous n-armed choices: one active coordinate per block."""

    def __init__(self, k: int, n: int, cap: int = DEFAULT_ENUMERATION_CAP):
        super().__init__(Dimensions(d=k * n, k=k, n=n, family=Family.MULTITASK), cap)

    @property
    def cardinality(self) -> int:
        return self.dims.n ** self.dims.k


class MatchingSet(ActionSet):
    """Maximum matchings of the complete bipartite graph K_{k,n}."""

    def __init__(self, k: int, n: int, cap: int = DEFAULT_ENUMERATION_CAP):
        super().__init__(Dimensions(d=k * n, k=k, n=n, family=Family.MATCHING), cap)

    @property
    def cardinality(self) -> int:
        return math.perm(self.dims.n, self.dims.k)

    def oracle_layout(self) -> tuple:
        """Transitions of the hindsight oracle
        (``_kernels.distinct_layout``), built once per process for each
        (n, k) and shared by every set of that shape.  After row j the
        oracle keeps one state per set of j used columns, so its widest
        layer holds C(n, min(k, n // 2)) states, at most the set's cap.
        """
        n, k = self.dims.n, self.dims.k
        states = math.comb(n, min(k, n // 2))
        if states > self.cap:
            raise EnumerationCapExceeded(
                f"matching hindsight oracle keeps {states} used-column states "
                f"in its widest layer, over the cap {self.cap}")
        return _kernels.distinct_layout(n, k)

    def first_action(self) -> np.ndarray:
        """The first matching in canonical order: row j takes column j."""
        return self._choices_to_bits(np.arange(self.dims.k))

    def _choices(self) -> np.ndarray:
        """Grow the prefixes one row at a time: each prefix, in order, is
        extended by its free columns in increasing order (the row-major
        order of ``np.nonzero``), which is ``itertools.permutations`` order."""
        n = self.dims.n
        choices = np.zeros((1, 0), dtype=np.int64)
        for _ in range(self.dims.k):
            free = np.ones((choices.shape[0], n), dtype=bool)
            np.put_along_axis(free, choices, False, axis=1)
            prefix, column = np.nonzero(free)
            choices = np.column_stack((choices[prefix], column))
        return choices

    def _uniform_choices(self, uniforms: np.ndarray) -> np.ndarray:
        """Row j takes a column uniformly among those rows 0..j-1 left free."""
        return _kernels.draw_injection(self.dims.n, uniforms)

    def contains(self, bits: np.ndarray) -> bool:
        """One column per row, and no column twice."""
        choices = self._choices_of(bits)
        return choices is not None and len(set(choices.tolist())) == choices.size


class LayeredPathSet(ActionSet):
    """s-t paths of the layered fan graph.

    The graph has ``layers = k/2`` layers of ``fan = d/k`` intermediate
    vertices each, d edges and d/2 + k/2 + 1 vertices; every s-t path
    traverses exactly one intermediate vertex per layer and has exactly k
    edges.
    """

    def __init__(self, k: int, d: int, cap: int = DEFAULT_ENUMERATION_CAP):
        # max(k, 1) leaves a non-positive k for Dimensions to report
        super().__init__(Dimensions(d=d, k=k, n=d // max(k, 1),
                                    family=Family.LAYERED_PATH), cap)
        self.layers = k // 2
        self.fan = d // k

    @property
    def cardinality(self) -> int:
        return self.fan ** self.layers

    @property
    def num_vertices(self) -> int:
        return self.dims.d // 2 + self.dims.k // 2 + 1

    @property
    def num_edges(self) -> int:
        return self.dims.d

    def fan_out_edge(self, layer: int, vertex: int) -> int:
        """Edge from layer ``layer``'s incoming vertex to intermediate ``vertex``."""
        return layer * 2 * self.fan + vertex

    def fan_in_edge(self, layer: int, vertex: int) -> int:
        """Edge from intermediate ``vertex`` to layer ``layer``'s outgoing vertex."""
        return layer * 2 * self.fan + self.fan + vertex

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges as (tail, head) vertex-id pairs, in edge-index order.

        Vertex ids: 0 is s; layer j's intermediates are ``1 + j*(fan+1) ..
        fan + j*(fan+1)``; layer j's outgoing vertex is ``(j+1)*(fan+1)``;
        the last outgoing vertex is t.
        """
        edges = []
        for j in range(self.layers):
            incoming = j * (self.fan + 1)
            outgoing = (j + 1) * (self.fan + 1)
            for v in range(self.fan):
                edges.append((incoming, incoming + 1 + v))
            for v in range(self.fan):
                edges.append((incoming + 1 + v, outgoing))
        return edges

    @functools.cached_property
    def _block_coords(self) -> np.ndarray:
        """Layer j through vertex v takes its fan-out edge, then its fan-in
        edge, ``(layers, fan, 2)``; layer by layer these are increasing."""
        layer = np.arange(self.layers)[:, None]
        vertex = np.arange(self.fan)[None, :]
        return np.stack((self.fan_out_edge(layer, vertex),
                         self.fan_in_edge(layer, vertex)), axis=-1)

    # -- reduction to the multitask problem ---------------------------------

    def multitask_image(self) -> MultitaskSet:
        """The multitask set (k/2 tasks of d/k arms) this graph simulates."""
        return MultitaskSet(k=self.layers, n=self.fan, cap=self.cap)

    def path_to_multitask(self, bits: np.ndarray) -> np.ndarray:
        """Map a path to its arm tuple: block j selects the intermediate
        vertex the path traverses in layer j."""
        choices = self._choices_of(bits)
        if choices is None:
            raise ActionSetError("input is not an s-t path of this graph")
        return self.multitask_image()._choices_to_bits(choices)

    def multitask_to_path(self, bits: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`path_to_multitask`."""
        choices = self.multitask_image()._choices_of(bits)
        if choices is None:
            raise ActionSetError("input is not a multitask action of the image set")
        return self._choices_to_bits(choices)


def hindsight_best(losses, action_set: ActionSet) -> float:
    """Cumulative loss of the best fixed action for a game's loss table
    ``losses``, by an exact dynamic program (``_kernels.ordered_min``) over
    in-order partial sums of its ``column_sums()``, each coordinate's
    column summed in round order.

    The loss of an action adds its cumulative loss at its active coordinates
    in increasing index order, as ``round_loss`` does, so actions related by
    a pure index permutation score alike.  The program folds the set's per-block
    coordinates (``_block_coords``) in that order, keeping the least partial
    sum per state; round-to-nearest addition is monotone, so the value
    equals the minimum over every action of S bit for bit, with no action
    listed.  The set's ``oracle_layout`` decides the states: multitask and
    path carry none; a matching's state is its set of used columns, and the
    set's cap bounds the widest layer of those states.
    """
    return _kernels.ordered_min(losses.column_sums()[action_set._block_coords],
                                action_set.oracle_layout())


def build_multitask(k: int, n: int) -> MultitaskSet:
    """Action set of k simultaneous n-armed problems (rejects n < 2)."""
    return MultitaskSet(k, n)


def build_layered_path_graph(k: int, d: int) -> LayeredPathSet:
    """Action set of s-t paths in the k/2-layer fan graph with d edges."""
    return LayeredPathSet(k, d)


def build_matching(k: int, n: int) -> MatchingSet:
    """Action set of maximum matchings in K_{k,n} (rejects k > n)."""
    return MatchingSet(k, n)


def build_action_set(family: Family | str, k: int, n: int | None = None,
                     d: int | None = None,
                     cap: int = DEFAULT_ENUMERATION_CAP) -> ActionSet:
    """Family dispatch used by the CLI: multitask/matching take (k, n),
    layered path takes (k, d), or (k, n) with d = k*n.  A d that contradicts
    k*n is an error, not dropped.  ``cap`` is the built set's cap."""
    family = Family(family)
    if n is not None and d is not None and d != k * n:
        raise ActionSetError(f"d={d} contradicts k*n={k * n}")
    if family is Family.LAYERED_PATH:
        if d is None and n is None:
            raise ActionSetError("layered path requires d (or n = d/k)")
        return LayeredPathSet(k, k * n if d is None else d, cap)
    if n is None:
        raise ActionSetError(f"{family.value} requires n")
    set_class = MultitaskSet if family is Family.MULTITASK else MatchingSet
    return set_class(k, n, cap)
