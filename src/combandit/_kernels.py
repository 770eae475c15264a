"""Hot inner loops for game simulation.

Every ``@_jit`` function in this module is written as a plain Python loop
over numpy arrays and compiled with ``numba.njit`` when available.  Setting
the environment variable ``COMBANDIT_DISABLE_NUMBA=1`` (or running without
numba installed) selects the uncompiled fallback path.  Both paths execute
the identical source, so results are bit-for-bit reproducible across them.

The EXP2 estimator ``exp2_estimates`` and its game loop ``play_exp2`` are
plain numpy on both paths: they keep the summation order of the scalar loops
they replaced, so their outputs are bit-identical to those loops.  The
exponential weights they draw from, ``mixed_exponential_weights``, stay a
scalar loop over ``math.exp``: ``np.exp`` can differ from it in the last bit
(numpy 2.4 on its AVX-512 code path does so for about 5% of arguments, so
for most 16-action weight vectors), which would change the sampled actions.

All randomness is drawn *outside* these kernels and passed in as arrays of
uniforms; kernels are deterministic functions of their inputs.

Scalar accumulation order is load-bearing: observed losses and hindsight
scores sum coordinates in increasing index order, which is what makes the
layered-path/multitask loss correspondence exact in floating point.
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


@_jit
def round_loss(loss_row, bits):
    """Sum of loss coordinates active in ``bits``, in increasing index order."""
    acc = 0.0
    for i in range(loss_row.shape[0]):
        if bits[i]:
            acc += loss_row[i]
    return acc


@_jit
def first_unsound_round(losses, actions, observed):
    """First round whose observed scalar differs from ``round_loss`` of its
    hidden loss row and action, or -1 when every round reproduces exactly."""
    for t in range(losses.shape[0]):
        if round_loss(losses[t], actions[t]) != observed[t]:
            return t
    return -1


@_jit
def hindsight_scores(cum_loss, active):
    """Cumulative loss of every enumerated action.

    ``active`` holds each action's active coordinates in increasing order,
    one row per action; summation order therefore matches ``round_loss``.
    """
    m = active.shape[0]
    out = np.empty(m, dtype=np.float64)
    for a in range(m):
        acc = 0.0
        for j in range(active.shape[1]):
            acc += cum_loss[active[a, j]]
        out[a] = acc
    return out


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


@_jit
def draw_injection(n, uniforms_row, out_cols):
    """Sequential without-replacement draw of ``k`` columns out of ``n``.

    Row j picks uniformly among the columns not yet taken, so the resulting
    injection is uniform over all n!/(n-k)! of them.
    """
    k = out_cols.shape[0]
    used = np.zeros(n, dtype=np.uint8)
    for j in range(k):
        r = int(uniforms_row[j] * (n - j))
        if r > n - j - 1:
            r = n - j - 1
        # locate the r-th unused column
        seen = -1
        col = 0
        for c in range(n):
            if not used[c]:
                seen += 1
                if seen == r:
                    col = c
                    break
        used[col] = 1
        out_cols[j] = col


@_jit
def play_fixed(losses, bits):
    """Play one fixed incidence vector for all rounds."""
    horizon = losses.shape[0]
    lam = np.empty(horizon, dtype=np.float64)
    for t in range(horizon):
        lam[t] = round_loss(losses[t], bits)
    return lam


@_jit
def play_round_robin(losses, matrix):
    """Cycle through the enumerated action matrix in canonical order."""
    horizon = losses.shape[0]
    m = matrix.shape[0]
    lam = np.empty(horizon, dtype=np.float64)
    idx = np.empty(horizon, dtype=np.int64)
    for t in range(horizon):
        a = t % m
        idx[t] = a
        lam[t] = round_loss(losses[t], matrix[a])
    return lam, idx


@_jit
def play_uniform_blocks(losses, n_blocks, block_size, path_layout, uniforms):
    """Uniform play for block-structured families.

    Each round picks one slot uniformly in each of ``n_blocks`` blocks.  With
    ``path_layout`` false the active coordinate of block j is ``j*block_size
    + c`` (multitask); with it true, block j activates the fan-out/fan-in
    edge pair ``j*2*block_size + c`` and ``j*2*block_size + block_size + c``
    of the layered graph.
    """
    horizon, d = losses.shape
    lam = np.empty(horizon, dtype=np.float64)
    actions = np.zeros((horizon, d), dtype=np.uint8)
    for t in range(horizon):
        acc = 0.0
        for j in range(n_blocks):
            c = int(uniforms[t, j] * block_size)
            if c > block_size - 1:
                c = block_size - 1
            if path_layout:
                e_out = j * 2 * block_size + c
                e_in = e_out + block_size
                actions[t, e_out] = 1
                actions[t, e_in] = 1
                acc += losses[t, e_out]
                acc += losses[t, e_in]
            else:
                i = j * block_size + c
                actions[t, i] = 1
                acc += losses[t, i]
        lam[t] = acc
    return lam, actions


@_jit
def play_uniform_matching(losses, k, n, uniforms):
    """Uniform play over maximum matchings of the k-by-n bipartite graph."""
    horizon, d = losses.shape
    lam = np.empty(horizon, dtype=np.float64)
    actions = np.zeros((horizon, d), dtype=np.uint8)
    cols = np.empty(k, dtype=np.int64)
    for t in range(horizon):
        draw_injection(n, uniforms[t], cols)
        acc = 0.0
        for j in range(k):
            i = j * n + cols[j]
            actions[t, i] = 1
            acc += losses[t, i]
        lam[t] = acc
    return lam, actions


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
    (``lam`` and ``idx`` are filled up to and including that round).  Not
    compiled: the per-round work is numpy calls in ``exp2_estimates``.
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
            return lam, idx, t
        cum_est += estimates
    return lam, idx, -1
