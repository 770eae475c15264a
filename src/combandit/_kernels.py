"""Hot inner loops for game simulation.

Every game ``play_*`` returns ``(observed, coords)`` or raises: each
round's active coordinates, a ``(T, k)`` int array whose rows increase, and
the observed losses its rounds consumed.  The engine's ``_assemble`` scores
every game with one :func:`round_loss` gather at those coordinates.  Two
groups, split by whether a game's rounds depend on one another:

* Independent rounds are plain numpy, and consume no feedback:
  ``play_fixed``, ``play_round_robin``, ``play_uniform_blocks`` and
  ``play_uniform_matching`` return ``(None, coords)``, and the engine's
  gather is their observed losses.  ``ordered_sum`` is the one summation
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
  keep per-round loops, and their scalar work runs on Python floats rather
  than numpy scalars.  ``play_exp3_multitask`` and ``play_exp2`` return
  the observed losses their updates consumed, each a float sum over its
  round's coordinates in increasing order, the order ``round_loss`` adds
  them in, and the engine checks every one against its gather.
  Each adaptive learner's round is written once, as a float state with
  ``act(uniforms)`` and ``update(observed)``: :class:`Exp3State` for
  per-task EXP3 and :class:`Exp2State` for EXP2.
  The game loops ``play_exp3_multitask`` and ``play_exp2`` drive a state
  over all rounds, and the learners' ``choose``/``observe`` drive the same
  state one round at a time.  One float core, ``_mixed_weights``
  (min-shift, ``math.exp``, a running weight sum) and ``_inverse_cdf``,
  draws every round.  The floats are bit-identical to the numpy-scalar
  loops they replace: a Python float and a numpy float64 scalar run the
  same IEEE double operations, and the core keeps their order
  (``math.exp`` throughout: ``np.exp`` can differ from it in the last bit,
  for about 5% of arguments on numpy 2.4's AVX-512 code path, which would
  change the sampled actions).  The EXP2 estimator is one function,
  ``exp2_estimates``: its second moment is one ``np.bincount`` and its
  pseudo-inverse one ``np.linalg.svd``, the d-sized algebra after the SVD
  runs on Python floats, and the |S|-sized last step is one
  ``ordered_sum``, all in the summation order of the scalar loops it
  replaced.  Its index arrays (``exp2_layout``) are built once per game,
  by the state, whose ``update`` raises :class:`Exp2SingularError`, naming
  the round, when the second moment loses rank on span(S).

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


def round_loss(losses, coords):
    """Sum of the losses at the active coordinates ``coords``, in the order
    listed (increasing, for an action).

    One loss row ``(d,)`` takes coordinates of any shape ``(..., k)``: one
    action gives a scalar, a list of actions ``(m, k)`` gives ``m`` sums.  A
    stack ``(T, d)`` takes one action ``(k,)`` for every round, or one per
    round ``(T, k)``, and gives ``T`` sums; it gathers through flat indices,
    so a coordinate outside [0, d) reads another round's loss.  Only the k
    active terms are gathered and summed, by :func:`ordered_sum`.  Adding
    the inactive coordinates as ``+0.0`` would change nothing: the sum
    starts at +0.0 and a round-to-nearest sum is -0.0 only when both terms
    are.  A bool or unsigned ``coords`` is an incidence vector (this
    package's are uint8), not coordinates: it raises TypeError rather than
    gather ``losses[0]`` and ``losses[1]``.
    """
    coords = np.asarray(coords)
    if coords.dtype.kind in "bu":
        raise TypeError(f"round_loss takes active coordinates, not a "
                        f"{coords.dtype} incidence vector")
    if losses.ndim == 2:
        horizon, d = losses.shape
        coords = coords + np.arange(0, horizon * d, d)[:, None]
    return ordered_sum(losses.ravel()[coords])


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


def exp2_layout(active, d):
    """Index arrays of the EXP2 second moment for the action set whose
    active coordinates are ``active``; they depend on the set only, so a
    game builds them once.

    ``pairs`` holds the flat ``(i, i2)`` cell of every (action, j, j2)
    triple in that order, and ``owner`` the action each triple belongs to,
    so ``probs[owner]`` is ``np.repeat(probs, k * k)``.
    """
    m, k = active.shape
    pairs = (active[:, :, None] * d + active[:, None, :]).ravel()
    owner = np.repeat(np.arange(m), k * k)
    return pairs, owner


def exp2_estimates(probs, layout, d, active, chosen_coords, observed,
                   span_rank):
    """Least-squares loss estimates for every enumerated action, as an
    array, or None when the second moment lost rank on span(S) (gamma too
    small at extreme weights).

    Builds the second-moment matrix of the play distribution ``probs`` (an
    array or a float list), applies its pseudo-inverse to ``x_t *
    observed`` and returns each action's estimated round loss.  ``active``
    has sorted rows, as ``ActionSet.active_coords`` gives them, ``layout``
    is :func:`exp2_layout` of it, ``chosen_coords`` the chosen action's
    row as an int list and ``observed`` a float.  The second moment is one
    ``np.bincount`` and its pseudo-inverse one ``np.linalg.svd``.  The
    d-sized algebra after it runs on ``tolist()`` values, where a numpy
    call costs more than the arithmetic it does; the |S|-sized last step is
    one :func:`ordered_sum` over ``loss_hat[active]``, so it stays numpy as
    S grows.  Every sum is a running sum from ``0.0`` in the order of the
    scalar loops it replaced (actions, then coordinate pairs; coordinates
    i; singular directions r; an action's coordinates), so the estimates
    are bit-identical to them.  ``coef[r]`` adds the chosen action's
    coordinates only: ``x_t * observed`` is exactly 0.0 elsewhere, and
    adding +-0.0 leaves a running sum from +0.0 unchanged, since such a sum
    is never -0.0.
    """
    pairs, owner = layout
    second_moment = np.bincount(pairs, weights=np.asarray(probs)[owner],
                                minlength=d * d).reshape(d, d)
    u_mat, s_vals, vt_mat = np.linalg.svd(second_moment)
    s = s_vals.tolist()
    tol = s[0] * d * 1e-12
    rank = sum(v > tol for v in s)
    if rank < span_rank:
        return None
    # pseudo-inverse applied to x_t * observed, via the SVD factors
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
    return ordered_sum(np.array(loss_hat)[active])


class Exp2SingularError(RuntimeError):
    """The play distribution's second-moment matrix lost rank on span(S)."""


class Exp3State:
    """Per-task EXP3 on the multitask action set, one round at a time: k
    independent exponential-weights instances over n arms.

    ``act`` draws each task's arm from the mixed weights of its row of
    ``cum_est`` (k float lists).  ``update`` feeds each chosen arm the
    importance-weighted surrogate ``(observed - b) / (k * p_j)`` and leaves
    the other arms unchanged.  The baseline b of round ``t`` (0-based) is 0
    for None, the constant itself, or for ``"mean"`` the mean ``obs_sum /
    t`` of the past observations, seeded with k/2 (the a-priori observation
    level) before the first.
    """

    def __init__(self, k, n, eta, gamma, baseline):
        self.k, self.n = k, n
        self.eta, self.gamma, self.baseline = eta, gamma, baseline
        self.cum_est = [[0.0] * n for _ in range(k)]
        self.obs_sum = 0.0
        self.t = 0
        self.arms = self.probs = None

    def act(self, uniforms):
        """Every task's arm (a list of ints), task j's drawn with the float
        ``uniforms[j]``; ``probs`` keeps each task's play distribution."""
        eta, gamma = self.eta, self.gamma
        arms, probs = [], []
        for row, u in zip(self.cum_est, uniforms):
            p = _mixed_weights(row, eta, gamma)
            arms.append(_inverse_cdf(p, u))
            probs.append(p)
        self.arms, self.probs = arms, probs
        return arms

    def update(self, observed):
        """Close the round on its observed loss, a float."""
        baseline, t, k = self.baseline, self.t, self.k
        if baseline is None:
            b = 0.0
        elif baseline == "mean":
            b = self.obs_sum / t if t else k / 2.0
        else:
            b = baseline
        self.obs_sum += observed
        self.t = t + 1
        centred = observed - b
        for row, a, p in zip(self.cum_est, self.arms, self.probs):
            row[a] += centred / (k * p[a])


class Exp2State:
    """Exponential weights over the enumerated action set with the
    least-squares loss estimator, mixed with uniform exploration over S,
    one round at a time.

    ``active`` lists every action's sorted active coordinates, as
    ``ActionSet.active_coords`` gives them, and ``span_rank`` is the rank
    of S.  ``act`` draws an action from the mixed weights of ``cum_est``;
    ``update`` adds every action's :func:`exp2_estimates` for the round.
    """

    def __init__(self, active, d, eta, gamma, span_rank):
        self.active, self.d = active, d
        self.coords = active.tolist()
        self.layout = exp2_layout(active, d)
        self.eta, self.gamma, self.span_rank = eta, gamma, span_rank
        self.cum_est = np.zeros(active.shape[0], dtype=np.float64)
        self.t = 0
        self.chosen = self.probs = None

    def act(self, u):
        """Index of the action the float ``u`` draws; ``probs`` keeps the
        round's play distribution."""
        self.probs = _mixed_weights(self.cum_est.tolist(), self.eta,
                                    self.gamma)
        self.chosen = _inverse_cdf(self.probs, u)
        return self.chosen

    def update(self, observed):
        """Close the round on the chosen action's observed loss, a float.
        Raises :class:`Exp2SingularError`, and leaves the state as it was,
        when the second moment lost rank."""
        estimates = exp2_estimates(self.probs, self.layout, self.d,
                                   self.active, self.coords[self.chosen],
                                   observed, self.span_rank)
        if estimates is None:
            raise Exp2SingularError(f"second-moment matrix lost rank at "
                                    f"round {self.t + 1}; increase gamma")
        self.cum_est += estimates
        self.t += 1


def play_exp3_multitask(losses, state, uniforms):
    """Per-task EXP3's game: one round of the :class:`Exp3State` ``state``
    per row of the ``(T, k)`` array ``uniforms``.

    Each round's observed loss ``lam`` adds the chosen arms' losses in
    block order.  The loss rows and uniforms are Python floats throughout
    the game.
    """
    horizon = losses.shape[0]
    k, n = state.k, state.n
    rows = losses.tolist()
    lam = [0.0] * horizon
    chosen = [None] * horizon
    offsets = range(0, k * n, n)
    act, update = state.act, state.update
    for t, u in enumerate(uniforms.tolist()):
        arms = act(u)
        row = rows[t]
        acc = 0.0
        for offset, a in zip(offsets, arms):
            acc += row[offset + a]
        lam[t] = acc
        chosen[t] = arms
        update(acc)
    coords = np.array(chosen, dtype=np.int64).reshape(horizon, k) + offsets
    return np.array(lam, dtype=np.float64), coords


def play_exp2(losses, state, uniforms):
    """EXP2's game: one round of the :class:`Exp2State` ``state`` per
    uniform in ``uniforms``.

    A round whose second moment lost rank on span(S) raises
    :class:`Exp2SingularError` from ``state.update``.  The loss rows and
    uniforms are Python floats throughout the game.
    """
    coords = state.coords
    act, update = state.act, state.update
    lam, idx = [], []
    for row, u in zip(losses.tolist(), uniforms.tolist()):
        a_t = act(u)
        acc = 0.0
        for i in coords[a_t]:
            acc += row[i]
        lam.append(acc)
        idx.append(a_t)
        update(acc)
    return np.array(lam, dtype=np.float64), state.active[idx]
