"""Hot inner loops for game simulation.

Every game ``play_*`` returns ``(observed, coords)`` or raises: each
round's active coordinates, a ``(T, k)`` int array whose rows increase, and
the observed losses its rounds consumed.  The engine's ``Transcript`` scores
every game with one :func:`round_loss` gather at those coordinates, read
through the game's loss table.  Two groups, split by whether a game's
rounds depend on one another:

* Independent rounds are plain numpy, and consume no feedback:
  ``play_fixed``, ``play_round_robin``, ``play_uniform_blocks`` and
  ``play_uniform_matching`` read only the horizon of the losses they are
  handed and return ``(None, coords)``, and the engine's gather is their
  observed losses.  ``ordered_sum`` is the one summation
  primitive: every observed loss (``round_loss`` gathers a round's k active
  losses, then calls it) sums the active coordinates in increasing index
  order through it, which is what makes the layered-path/multitask loss
  correspondence exact in floating point.  The hindsight oracle
  ``ordered_min`` adds in that same order but never lists S: a dynamic
  program over in-order partial sums that keeps the least one per state and
  returns only the least total, exact because round-to-nearest addition is
  monotone.  ``uniform_index`` is the one clamp from a uniform to a slot,
  and ``draw_injection`` draws every round's matching at once, as a Lehmer
  code of ranks decoded by one compare-and-add per draw; the uniform games
  take their coordinate layout from the action set.
* Sequential rounds, where the next draw depends on the last observation,
  run in one per-round loop, ``_play_rounds``, on Python floats rather than
  numpy scalars, over the loss table's rows read through its ``cols``.  It
  drives a started adaptive learner (:mod:`combandit.learners`): each round
  ``act(uniforms)`` returns the active coordinates, the observed loss adds
  their losses in that increasing order, the order ``round_loss`` adds
  them in, and ``update(observed)`` consumes it.  The engine checks every
  observed loss against its gather.  ``play_exp3_multitask`` and
  ``play_exp2`` both call the loop, and stay two functions because
  perfbench's tracer wraps module attributes and labels a game by the name
  it calls.  One float core, ``_mixed_weights`` (min-shift, ``math.exp``, a
  running weight sum) and ``_inverse_cdf``, draws every round.  The floats
  are bit-identical to the numpy-scalar loops they replace: a Python float
  and a numpy float64 scalar run the same IEEE double operations, and the
  core keeps their order (``math.exp`` throughout: ``np.exp`` can differ
  from it in the last bit, for about 5% of arguments on numpy 2.4's
  AVX-512 code path, which would change the sampled actions).  The EXP2
  estimator, ``EnumeratedExp2Learner.estimates``, ends in one
  ``ordered_sum``.

All randomness is drawn *outside* these kernels and passed in as arrays of
uniforms; kernels are deterministic functions of their inputs.
"""

import math

import numpy as np


def jit_status() -> str:
    """Human-readable description of the kernel path: always plain Python
    and numpy, nothing compiled."""
    return "pure-python"


def ordered_sum(terms):
    """Sum along the last axis in increasing index order; the one summation
    rule behind every observed and hindsight loss.

    Each sum adds its terms one column at a time, in the order of a scalar
    loop ``acc = 0.0; acc += terms[i]``, so results are bit-identical to it.
    """
    acc = np.zeros(terms.shape[:-1], dtype=np.float64)
    for i in range(terms.shape[-1]):
        acc += terms[..., i]
    return acc[()]


def round_loss(losses, coords, cols=None):
    """Sum of the losses at the active coordinates ``coords``, in the order
    listed (increasing, for an action).

    One loss row ``(d,)`` takes coordinates of any shape ``(..., k)``: one
    action gives a scalar, a list of actions ``(m, k)`` gives ``m`` sums.  A
    stack ``(T, d)`` takes one action ``(k,)`` for every round, or one per
    round ``(T, k)``, and gives ``T`` sums; it gathers through flat indices,
    so a coordinate outside [0, d) reads another round's loss.  ``cols``
    reads a loss table instead: coordinate i's loss is column ``cols[i]``
    of the row (see :class:`~combandit.environments.LossTable`).  Only the
    k active terms are gathered and summed, in the order of
    :func:`ordered_sum`; a stack gathers and adds one listed coordinate of
    every round at a time, so no ``(T, k)`` scratch is written.  Adding the
    inactive coordinates as ``+0.0`` would change nothing: the sum starts
    at +0.0 and a round-to-nearest sum is -0.0 only when both terms are.  A
    bool or unsigned ``coords`` is an incidence vector (this package's are
    uint8), not coordinates: it raises TypeError rather than gather
    ``losses[0]`` and ``losses[1]``.
    """
    coords = np.asarray(coords)
    if coords.dtype.kind in "bu":
        raise TypeError(f"round_loss takes active coordinates, not a "
                        f"{coords.dtype} incidence vector")
    if losses.ndim == 1:
        return ordered_sum(losses[coords if cols is None else cols[coords]])
    horizon, width = losses.shape
    flat = losses.ravel()
    rows = np.arange(0, horizon * width, width)
    acc = np.zeros(horizon, dtype=np.float64)
    for j in range(coords.shape[-1]):
        col = coords[..., j]
        acc += flat[rows + (col if cols is None else cols[col])]
    return acc


def ordered_min(terms, layout=None):
    """Least in-order sum over choice tuples.

    ``terms`` is a ``(blocks, arms, width)`` float array: choosing arm c in
    block j adds ``terms[j, c]``, its ``width`` terms in order.  A tuple
    picks one arm per block (no arm twice with a ``layout``, as a matching's
    rows take distinct columns); its sum folds the blocks left to right from
    ``acc = 0.0``, the order in which ``ordered_sum`` adds the tuple's terms
    when the table lists coordinates in increasing order.

    Round-to-nearest ``fl(a + x)`` is nondecreasing in ``a``, so among the
    prefixes that reach the same state (the block index, plus the used arms
    when arms are distinct) the least partial sum ends no higher than any
    other under every completion.  Keeping only that one per state, the
    result is the minimum over all tuples bit for bit, for finite terms.
    Without a ``layout`` the state is the block alone, and the fold runs on
    Python floats.  With one, each block is one vectorised step over its
    transitions (:func:`distinct_layout`).  Returns the value as a float.
    """
    if layout is not None:
        return _ordered_min_distinct(terms, layout)
    acc = 0.0
    for block in terms.tolist():
        best = math.inf
        for arm in block:
            part = acc
            for x in arm:
                part += x
            if part < best:
                best = part
        acc = best
    return acc


def distinct_layout(arms, blocks):
    """Transitions of :func:`ordered_min`'s distinct-arm program; they depend
    on the shape only, so a set builds them once.

    A state after block j is a set of j used arms, one bit per arm in uint64
    words.  Per block, ``src`` and ``col`` list every (state, free arm)
    transition grouped by the set it reaches, and ``starts`` holds the first
    transition of each group, the index of the next state.
    """
    word = np.arange(arms) // 64
    bit = np.left_shift(np.uint64(1), (np.arange(arms) % 64).astype(np.uint64))
    used = np.zeros((1, (arms + 63) // 64), dtype=np.uint64)
    layout = []
    for _ in range(blocks):
        src, col = np.nonzero((used[:, word] & bit) == 0)
        nxt = used[src]
        nxt[np.arange(src.size), word[col]] |= bit[col]
        order = np.lexsort(nxt.T)  # stable: a group keeps (state, arm) order
        nxt = nxt[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (nxt[1:] != nxt[:-1]).any(axis=1)
        used = nxt[first]
        layout.append((src[order], col[order], np.flatnonzero(first)))
    return layout


def _ordered_min_distinct(terms, layout):
    """Each block gathers its transitions' partial sums and keeps the least
    per reached state (``np.minimum.reduceat``)."""
    width = terms.shape[2]
    acc = np.zeros(1, dtype=np.float64)
    for j, (src, col, starts) in enumerate(layout):
        part = acc[src]
        for w in range(width):
            part = part + terms[j, col, w]
        acc = np.minimum.reduceat(part, starts)
    return float(acc.min())


def _inverse_cdf(probs, u):
    """Index the uniform ``u`` in [0, 1) selects from the float list
    ``probs``: the first i whose running sum exceeds ``u``, or the last
    index when rounding leaves the total short of ``u``."""
    acc = 0.0
    last = len(probs) - 1
    for i in range(last):
        acc += probs[i]
        if u < acc:
            return i
    return last


def uniform_index(uniforms, n):
    """Slot in ``range(n)`` that each uniform in [0, 1) selects,
    ``min(int(u * n), n - 1)``; the clamp keeps a ``u * n`` that rounds up
    to n in the last slot.  ``n`` may be an int or an int array of slot
    counts that broadcasts against ``uniforms``, one count per column."""
    return np.minimum((uniforms * n).astype(np.int64), n - 1)


def draw_injection(n, uniforms):
    """Sequential without-replacement draws of ``k`` columns out of ``n``,
    one draw per row of the ``(rounds, k)`` array ``uniforms``.

    Draw j picks uniformly among the columns its round has not taken yet:
    the r_j-th free column, r_j = uniform_index(u_j, n - j), so each round's
    injection is uniform over all n!/(n-k)! of them.  The ranks
    (r_0, ..., r_{k-1}) are a Lehmer code, taken for every round at once
    and decoded right to left: once columns j+1.. are placed among the
    columns draws 0..j left free, inserting draw j's column c moves each of
    them at or above c up by one.  That is one compare-and-add over the
    tail per draw, in place of a scan over all n columns.  The ranks are
    the same IEEE products ``u * (n - j)`` under the same clamp as one draw
    at a time, and the decode is integer arithmetic, so the columns are
    exactly those of the sequential draws.  Returns the ``(rounds, k)``
    int64 columns.
    """
    k = uniforms.shape[1]
    cols = uniform_index(uniforms, n - np.arange(k))
    for j in range(k - 2, -1, -1):
        tail = cols[:, j + 1:]
        tail += tail >= cols[:, j:j + 1]
    return cols


def play_fixed(losses, bits):
    """Play one fixed incidence vector for all rounds."""
    return None, np.tile(np.flatnonzero(bits), (losses.shape[0], 1))


def play_round_robin(losses, active):
    """Cycle through the enumerated actions, whose active coordinates are
    the rows of ``active``, in canonical order: round t plays row
    ``t % |S|`` (``np.resize`` repeats the rows cyclically)."""
    return None, np.resize(active, (losses.shape[0], active.shape[1]))


def play_uniform_blocks(losses, n, coords, uniforms):
    """Uniform play for block-structured families (multitask, layered path).

    Each round picks slot ``uniform_index(u, n)`` in every block, one uniform
    per block; ``coords`` (the set's ``_coords``) maps the ``(T, blocks)``
    choices to their active coordinates.
    """
    return None, coords(uniform_index(uniforms, n))


def play_uniform_matching(losses, n, coords, uniforms):
    """Uniform play over maximum matchings of the k-by-n bipartite graph:
    each round's columns come from ``draw_injection``, and ``coords`` (the
    set's ``_coords``) maps them to their active coordinates."""
    return None, coords(draw_injection(n, uniforms))


def _mixed_weights(cum_est, eta, gamma):
    """Play distribution (1-gamma) * softmax(-eta * cum_est) + gamma/m of
    the float list ``cum_est``, as a float list.

    Computed in log-space: the smallest estimate is subtracted before
    exponentiation, so the weights never underflow to all-zero.  ``min``
    picks the minimum the loop ``if c < lo: lo = c`` picks, and the weight
    sum is a running sum in index order.
    """
    exp = math.exp
    lo = min(cum_est)
    neg_eta = -eta
    weights = []
    w_sum = 0.0
    for c in cum_est:
        w = exp(neg_eta * (c - lo))
        weights.append(w)
        w_sum += w
    keep = 1.0 - gamma
    floor = gamma / len(weights)
    return [keep * w / w_sum + floor for w in weights]


def _play_rounds(losses, learner, uniforms):
    """The adaptive game: one round of the started ``learner`` per row of
    the ``(T, blocks)`` array ``uniforms``, on the loss table ``losses``.

    Each round ``learner.act`` returns its active coordinates, the observed
    loss adds their table columns ``cols[i]`` in that order, and
    ``learner.update`` consumes it.  The table rows and uniforms are Python
    floats throughout the game.
    """
    cols = losses.cols.tolist()
    act, update = learner.act, learner.update
    lam, played = [], []
    for row, u in zip(losses.table.tolist(), uniforms.tolist()):
        coords = act(u)
        acc = 0.0
        for i in coords:
            acc += row[cols[i]]
        lam.append(acc)
        played += coords
        update(acc)
    return (np.array(lam, dtype=np.float64),
            np.array(played, dtype=np.int64).reshape(len(lam), -1))


def play_exp3_multitask(losses, learner, uniforms):
    """Per-task EXP3's game (a started
    :class:`~combandit.learners.PerTaskExp3Learner`), one uniform per task
    and round."""
    return _play_rounds(losses, learner, uniforms)


def play_exp2(losses, learner, uniforms):
    """EXP2's game (a started
    :class:`~combandit.learners.EnumeratedExp2Learner`), one uniform per
    round.  A round whose second moment lost rank on span(S) raises
    ``Exp2SingularError`` from ``learner.update``."""
    return _play_rounds(losses, learner, uniforms)
