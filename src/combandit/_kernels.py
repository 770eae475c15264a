"""Hot inner loops for game simulation.

Two groups, split by whether a game's rounds depend on one another:

* Independent rounds are plain numpy on both kernel paths.  ``ordered_sum``
  is the one summation primitive: every observed loss (``round_loss`` masks
  a loss row by an action, then calls it), hindsight score and soundness
  check sums the active coordinates in increasing index order through it,
  which is what makes the layered-path/multitask loss correspondence exact
  in floating point.  ``first_unsound_round``,
  ``hindsight_scores``, ``play_fixed``, ``play_round_robin``,
  ``play_uniform_blocks`` and ``play_uniform_matching`` call it once on all
  rounds (or all actions) at once, and ``draw_injection`` draws every
  round's matching in one vectorised pass.
* Sequential rounds, where the next draw depends on the last observation,
  keep per-round loops with their own sums.  The four ``@_jit`` functions
  (``sample_categorical``, ``mixed_exponential_weights``, ``exp3_surrogate``
  and ``play_exp3_multitask``) are plain Python loops compiled with
  ``numba.njit`` when available; setting ``COMBANDIT_DISABLE_NUMBA=1`` (or
  running without numba) runs the same source uncompiled, so both paths
  agree bit for bit.  The EXP2 estimator ``exp2_estimates`` and its game
  loop ``play_exp2`` are numpy on both paths and keep the summation order
  of the scalar loops they replaced.  The exponential weights stay a scalar
  loop over ``math.exp``: ``np.exp`` can differ from it in the last bit
  (numpy 2.4 on its AVX-512 code path does so for about 5% of arguments, so
  for most 16-action weight vectors), which would change the sampled actions.

All randomness is drawn *outside* these kernels and passed in as arrays of
uniforms; kernels are deterministic functions of their inputs.
"""

import math
import os

import numpy as np

try:
    import numba
except ImportError:  # numba is an optional extra
    numba = None

NUMBA_ENABLED = numba is not None and os.environ.get(
    "COMBANDIT_DISABLE_NUMBA", ""
).lower() not in ("1", "true", "yes")


def _jit(fn):
    if NUMBA_ENABLED:
        return numba.njit(cache=True)(fn)
    return fn


def jit_status() -> str:
    """Human-readable description of the active kernel path."""
    return "numba" if NUMBA_ENABLED else "pure-python"


# Baseline modes for the per-task EXP3 surrogate.
BASELINE_NONE = 0
BASELINE_FIXED = 1
BASELINE_RUNNING_MEAN = 2


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


def round_loss(losses, bits):
    """Sum of the loss coordinates active in ``bits``, in increasing index
    order.

    ``losses`` and ``bits`` broadcast against each other along their leading
    axes: one round ``(d,)`` gives a scalar, a stack ``(T, d)`` gives ``T``
    sums.  The terms are masked in one call (a broadcast-shape float
    scratch) and summed by :func:`ordered_sum`.  Inactive coordinates add an
    exact ``+0.0`` (even where the loss is NaN); that changes nothing, since
    the sum starts at +0.0 and a round-to-nearest sum is -0.0 only when both
    terms are.
    """
    return ordered_sum(np.where(bits, losses, 0.0))


def first_unsound_round(losses, actions, observed):
    """First round whose observed scalar differs from ``round_loss`` of its
    hidden loss row and action, or -1 when every round reproduces exactly."""
    bad = np.flatnonzero(round_loss(losses, actions) != observed)
    return int(bad[0]) if bad.size else -1


def hindsight_scores(cum_loss, active):
    """Cumulative loss of every enumerated action.

    ``active`` holds each action's active coordinates in increasing order,
    one row per action, so summing its gathered columns in order matches
    ``round_loss`` of the action's incidence vector.
    """
    return ordered_sum(cum_loss[active])


@_jit
def sample_categorical(probs, u):
    """Inverse-CDF draw from ``probs`` using one uniform ``u`` in [0, 1)."""
    acc = 0.0
    last = probs.shape[0] - 1
    for i in range(last):
        acc += probs[i]
        if u < acc:
            return i
    return last


def draw_injection(n, uniforms):
    """Sequential without-replacement draws of ``k`` columns out of ``n``,
    one draw per row of the ``(rounds, k)`` array ``uniforms``.

    Draw j picks uniformly among the columns its round has not taken yet
    (the r-th free column, r = min(int(u * (n - j)), n - j - 1)), so each
    round's injection is uniform over all n!/(n-k)! of them.  Returns the
    ``(rounds, k)`` int64 columns.
    """
    rounds, k = uniforms.shape
    rows = np.arange(rounds)
    free = np.ones((rounds, n), dtype=bool)
    cols = np.empty((rounds, k), dtype=np.int64)
    for j in range(k):
        r = np.minimum((uniforms[:, j] * (n - j)).astype(np.int64), n - j - 1)
        rank = np.cumsum(free, axis=1) - 1
        cols[:, j] = np.argmax(free & (rank == r[:, None]), axis=1)
        free[rows, cols[:, j]] = False
    return cols


def _actions_from_coords(shape, coords):
    """``(T, d)`` incidence vectors with ones at the ``(T, c)`` coordinates."""
    actions = np.zeros(shape, dtype=np.uint8)
    actions[np.arange(shape[0])[:, None], coords] = 1
    return actions


def play_fixed(losses, bits):
    """Play one fixed incidence vector for all rounds."""
    return round_loss(losses, bits)


def play_round_robin(losses, matrix):
    """Cycle through the enumerated action matrix in canonical order."""
    idx = np.arange(losses.shape[0], dtype=np.int64) % matrix.shape[0]
    return round_loss(losses, matrix[idx]), idx


def play_uniform_blocks(losses, n_blocks, block_size, path_layout, uniforms):
    """Uniform play for block-structured families.

    Each round picks one slot uniformly in each of ``n_blocks`` blocks.  With
    ``path_layout`` false the active coordinate of block j is ``j*block_size
    + c`` (multitask); with it true, block j activates the fan-out/fan-in
    edge pair ``j*2*block_size + c`` and ``j*2*block_size + block_size + c``
    of the layered graph.
    """
    choice = np.minimum((uniforms * block_size).astype(np.int64),
                        block_size - 1)
    if path_layout:
        e_out = np.arange(n_blocks) * 2 * block_size + choice
        coords = np.concatenate([e_out, e_out + block_size], axis=1)
    else:
        coords = np.arange(n_blocks) * block_size + choice
    actions = _actions_from_coords(losses.shape, coords)
    return round_loss(losses, actions), actions


def play_uniform_matching(losses, k, n, uniforms):
    """Uniform play over maximum matchings of the k-by-n bipartite graph."""
    coords = np.arange(k) * n + draw_injection(n, uniforms)
    actions = _actions_from_coords(losses.shape, coords)
    return round_loss(losses, actions), actions


@_jit
def mixed_exponential_weights(cum_est, eta, gamma):
    """Play distribution (1-gamma) * softmax(-eta * cum_est) + gamma/m.

    Computed in log-space: the smallest cumulative estimate is subtracted
    before exponentiation so weights never underflow to all-zero.
    """
    m = cum_est.shape[0]
    probs = np.empty(m, dtype=np.float64)
    lo = cum_est[0]
    for a in range(1, m):
        if cum_est[a] < lo:
            lo = cum_est[a]
    w_sum = 0.0
    for a in range(m):
        w = math.exp(-eta * (cum_est[a] - lo))
        probs[a] = w
        w_sum += w
    for a in range(m):
        probs[a] = (1.0 - gamma) * probs[a] / w_sum + gamma / m
    return probs


@_jit
def exp3_surrogate(observed, baseline, k, prob_chosen):
    """Importance-weighted per-task loss estimate (observed - b)/(k p)."""
    return (observed - baseline) / (k * prob_chosen)


def exp2_estimates(probs, active, d, chosen, observed, span_rank):
    """Least-squares loss estimates for every enumerated action.

    Builds the second-moment matrix of the play distribution, applies its
    pseudo-inverse to ``x_t * observed`` and returns each action's estimated
    round loss.  The second return value is 0 when the matrix lost rank on
    span(S) (signals gamma too small at extreme weights), else 1.

    Plain numpy on both kernel paths.  Every sum adds its terms in the order
    of the scalar loops it replaces (actions, then coordinate pairs;
    coordinates i; singular directions r; an action's coordinates), so the
    estimates are bit-identical to those loops: ``np.bincount`` accumulates
    its weights in input order and ``np.cumsum`` is a running sum.  The
    ``+ 0.0`` after each running sum turns an all-(-0.0) sum into the
    +0.0 a loop starting from ``acc = 0.0`` gives.
    """
    m, k = active.shape
    pairs = (active[:, :, None] * d + active[:, None, :]).ravel()
    second_moment = np.bincount(pairs, weights=np.repeat(probs, k * k),
                                minlength=d * d).reshape(d, d)
    u_mat, s_vals, vt_mat = np.linalg.svd(second_moment)
    tol = s_vals[0] * d * 1e-12
    rank = int(np.count_nonzero(s_vals > tol))
    if rank < span_rank:
        return np.zeros(m, dtype=np.float64), 0
    x_lam = np.zeros(d, dtype=np.float64)
    x_lam[active[chosen]] = observed
    # pseudo-inverse applied to x_t * observed, via the SVD factors
    coef = np.cumsum(u_mat[:, :rank] * x_lam[:, None], axis=0)[-1] + 0.0
    coef /= s_vals[:rank]
    loss_hat = np.cumsum(vt_mat[:rank] * coef[:, None], axis=0)[-1] + 0.0
    return np.cumsum(loss_hat[active], axis=1)[:, -1] + 0.0, 1


@_jit
def play_exp3_multitask(losses, k, n, eta, gamma, uniforms,
                        baseline_mode, baseline_value):
    """Per-task EXP3 on the multitask action set.

    Runs k independent exponential-weights instances over n arms.  After
    observing the round's summed loss ``lam``, task j feeds the importance
    weighted surrogate ``(lam - b) / (k * p_j(a_j))`` to its chosen arm only,
    where the baseline b is 0, a fixed value, or the running mean of past
    observations depending on ``baseline_mode``.
    """
    horizon, d = losses.shape
    lam = np.empty(horizon, dtype=np.float64)
    actions = np.zeros((horizon, d), dtype=np.uint8)
    cum_est = np.zeros((k, n), dtype=np.float64)
    chosen = np.empty(k, dtype=np.int64)
    chosen_prob = np.empty(k, dtype=np.float64)
    obs_sum = 0.0
    for t in range(horizon):
        acc = 0.0
        for j in range(k):
            probs = mixed_exponential_weights(cum_est[j], eta, gamma)
            a_j = sample_categorical(probs, uniforms[t, j])
            chosen[j] = a_j
            chosen_prob[j] = probs[a_j]
            i = j * n + a_j
            actions[t, i] = 1
            acc += losses[t, i]
        lam[t] = acc
        if baseline_mode == BASELINE_FIXED:
            b = baseline_value
        elif baseline_mode == BASELINE_RUNNING_MEAN:
            b = baseline_value if t == 0 else obs_sum / t
        else:
            b = 0.0
        obs_sum += acc
        for j in range(k):
            cum_est[j, chosen[j]] += exp3_surrogate(acc, b, k, chosen_prob[j])
    return lam, actions


def play_exp2(losses, active, eta, gamma, uniforms, span_rank):
    """Exponential weights over the enumerated action set with the
    least-squares loss estimator, mixed with uniform exploration over S.

    Returns -1 as the error round when the second-moment matrix stays full
    rank on span(S) throughout, else the first round where it degenerated
    (``lam`` and ``idx`` then end with that round).  Not compiled: the
    per-round work is numpy calls in ``exp2_estimates``.
    """
    horizon, d = losses.shape
    m, k = active.shape
    lam = np.empty(horizon, dtype=np.float64)
    idx = np.empty(horizon, dtype=np.int64)
    cum_est = np.zeros(m, dtype=np.float64)
    for t in range(horizon):
        probs = mixed_exponential_weights(cum_est, eta, gamma)
        a_t = sample_categorical(probs, uniforms[t])
        idx[t] = a_t
        acc = 0.0
        for j in range(k):
            acc += losses[t, active[a_t, j]]
        lam[t] = acc
        estimates, ok = exp2_estimates(probs, active, d, a_t, acc, span_rank)
        if ok == 0:
            return lam[:t + 1], idx[:t + 1], t
        cum_est += estimates
    return lam, idx, -1
