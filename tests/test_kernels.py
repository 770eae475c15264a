"""Kernel-level checks: accumulation-order exactness, inverse-CDF sampling,
agreement of the numpy EXP2 estimator with its scalar loops, and agreement
between the numba-compiled and pure-Python paths."""

import numpy as np
import pytest

from combandit import (
    _kernels,
    build_layered_path_graph,
    build_matching,
    build_multitask,
    make_rng,
)
from combandit._kernels import (
    NUMBA_ENABLED,
    draw_injection,
    hindsight_scores,
    jit_status,
    mixed_exponential_weights,
    round_loss,
    sample_categorical,
)


def test_jit_status_string():
    assert jit_status() in ("numba", "pure-python")
    assert (jit_status() == "numba") == NUMBA_ENABLED


def test_round_loss_matches_ordered_python_sum():
    rng = make_rng(0)
    for _ in range(50):
        d = int(rng.integers(1, 20))
        loss = rng.random(d)
        bits = (rng.random(d) < 0.4).astype(np.uint8)
        acc = 0.0
        for i in range(d):
            if bits[i]:
                acc += loss[i]
        assert round_loss(loss, bits) == acc


def test_hindsight_scores_ordered_accumulation():
    s = build_multitask(3, 3)
    active = s.active_coords()
    cum = make_rng(1).random(9)
    scores = hindsight_scores(cum, active)
    for a in range(active.shape[0]):
        acc = 0.0
        for idx in active[a]:
            acc += cum[idx]
        assert scores[a] == acc


def test_sample_categorical_inverse_cdf():
    probs = np.array([0.2, 0.5, 0.3])
    cum = np.cumsum(probs)
    for u in (0.0, 0.1999, 0.2, 0.69, 0.7001, 0.999999):
        expect = min(int(np.searchsorted(cum, u, side="right")), 2)
        assert sample_categorical(probs, u) == expect


def test_sample_categorical_handles_rounding_tail():
    # cumulative sum may fall just short of 1; the last index absorbs it
    probs = np.full(3, 1.0 / 3.0)
    assert sample_categorical(probs, 0.9999999999999999) == 2


def test_draw_injection_is_valid_and_uniform():
    n, k = 4, 2
    rng = make_rng(2)
    counts = {}
    for _ in range(24000):
        cols = np.empty(k, dtype=np.int64)
        draw_injection(n, rng.random(k), cols)
        assert len(set(cols.tolist())) == k
        counts[tuple(cols)] = counts.get(tuple(cols), 0) + 1
    assert len(counts) == 12
    freqs = np.array(list(counts.values())) / 24000
    assert np.all(np.abs(freqs - 1 / 12) < 0.01)


def test_mixed_weights_simplex_and_mixing():
    cum = np.array([0.0, 3.0, -2.0, 1e6])
    probs = mixed_exponential_weights(cum, 0.7, 0.2)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert (probs >= 0.2 / 4 - 1e-15).all()
    uniform = mixed_exponential_weights(cum, 0.7, 1.0)
    assert np.allclose(uniform, 0.25, atol=1e-15)


def test_mixed_weights_log_space_stability():
    cum = np.array([0.0, 1e307])
    probs = mixed_exponential_weights(cum, 1.0, 0.0)
    assert np.isfinite(probs).all()
    assert probs[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.skipif(not NUMBA_ENABLED, reason="pure-python mode already active")
class TestCompiledMatchesSource:
    """The jitted kernels and their uncompiled Python source must produce
    bit-identical outputs (the fallback path is the same source)."""

    def test_round_loss(self):
        rng = make_rng(3)
        loss = rng.random(16)
        bits = (rng.random(16) < 0.5).astype(np.uint8)
        assert round_loss(loss, bits) == round_loss.py_func(loss, bits)

    def test_play_exp3(self):
        rng = make_rng(4)
        losses = rng.random((32, 8))
        uniforms = rng.random((32, 4))
        args = (losses, 4, 2, 0.8, 0.1, uniforms, _kernels.BASELINE_RUNNING_MEAN, 2.0)
        lam_a, act_a = _kernels.play_exp3_multitask(*args)
        lam_b, act_b = _kernels.play_exp3_multitask.py_func(*args)
        assert np.array_equal(lam_a, lam_b)
        assert np.array_equal(act_a, act_b)

    def test_play_uniform_matching(self):
        rng = make_rng(6)
        losses = rng.random((16, 6))
        uniforms = rng.random((16, 2))
        lam_a, act_a = _kernels.play_uniform_matching(losses, 2, 3, uniforms)
        lam_b, act_b = _kernels.play_uniform_matching.py_func(losses, 2, 3, uniforms)
        assert np.array_equal(lam_a, lam_b)
        assert np.array_equal(act_a, act_b)

    def test_play_uniform_blocks_path_layout(self):
        rng = make_rng(7)
        losses = rng.random((16, 8))
        uniforms = rng.random((16, 2))
        lam_a, act_a = _kernels.play_uniform_blocks(losses, 2, 2, True, uniforms)
        lam_b, act_b = _kernels.play_uniform_blocks.py_func(losses, 2, 2, True,
                                                            uniforms)
        assert np.array_equal(lam_a, lam_b)
        assert np.array_equal(act_a, act_b)


def test_exp2_estimates_projects_onto_span():
    # with full-support probabilities the estimator averages to the span
    # projection of any loss vector; on the multitask span this is exact for
    # differences of actions
    s = build_multitask(2, 2)
    active = s.active_coords()
    matrix = s.enumerate_actions().astype(np.float64)
    probs = np.full(4, 0.25)
    loss = np.array([0.3, 0.9, 0.5, 0.1])
    averaged = np.zeros(4)
    for a in range(4):
        lam = float(matrix[a] @ loss)
        est, ok = _kernels.exp2_estimates(probs, active, 4, a, lam, 3)
        assert ok == 1
        averaged += 0.25 * est
    assert np.allclose(averaged, matrix @ loss, atol=1e-10)


def test_exp2_estimates_flags_rank_deficiency():
    s = build_multitask(2, 2)
    active = s.active_coords()
    probs = np.array([1.0, 0.0, 0.0, 0.0])
    _, ok = _kernels.exp2_estimates(probs, active, 4, 0, 1.0, 3)
    assert ok == 0


# Scalar loops of the EXP2 estimator and game, kept as the reference the
# numpy kernels must reproduce bit for bit.

def _scalar_exp2_estimates(probs, active, d, chosen, observed, span_rank):
    m, k = active.shape
    second_moment = np.zeros((d, d), dtype=np.float64)
    for a in range(m):
        pa = probs[a]
        for j in range(k):
            ia = active[a, j]
            for j2 in range(k):
                second_moment[ia, active[a, j2]] += pa
    u_mat, s_vals, vt_mat = np.linalg.svd(second_moment)
    rank = 0
    tol = s_vals[0] * d * 1e-12
    for i in range(d):
        if s_vals[i] > tol:
            rank += 1
    out = np.zeros(m, dtype=np.float64)
    if rank < span_rank:
        return out, 0
    x_lam = np.zeros(d, dtype=np.float64)
    for j in range(k):
        x_lam[active[chosen, j]] = observed
    loss_hat = np.zeros(d, dtype=np.float64)
    for r in range(rank):
        coef = 0.0
        for i in range(d):
            coef += u_mat[i, r] * x_lam[i]
        coef /= s_vals[r]
        for i in range(d):
            loss_hat[i] += vt_mat[r, i] * coef
    for a in range(m):
        est = 0.0
        for j in range(k):
            est += loss_hat[active[a, j]]
        out[a] = est
    return out, 1


def _scalar_play_exp2(losses, active, eta, gamma, uniforms, span_rank):
    horizon, d = losses.shape
    m, k = active.shape
    lam = np.zeros(horizon, dtype=np.float64)
    idx = np.zeros(horizon, dtype=np.int64)
    cum_est = np.zeros(m, dtype=np.float64)
    for t in range(horizon):
        probs = mixed_exponential_weights(cum_est, eta, gamma)
        a_t = sample_categorical(probs, uniforms[t])
        idx[t] = a_t
        acc = 0.0
        for j in range(k):
            acc += losses[t, active[a_t, j]]
        lam[t] = acc
        estimates, ok = _scalar_exp2_estimates(probs, active, d, a_t, acc,
                                               span_rank)
        if ok == 0:
            return lam, idx, t
        for a in range(m):
            cum_est[a] += estimates[a]
    return lam, idx, -1


EXP2_FAMILIES = {
    "multitask": lambda: build_multitask(3, 2),
    "matching": lambda: build_matching(2, 3),
    "path": lambda: build_layered_path_graph(4, 12),
}


def _span_rank(action_set):
    matrix = action_set.enumerate_actions().astype(np.float64)
    return int(np.linalg.matrix_rank(matrix))


@pytest.mark.parametrize("family", sorted(EXP2_FAMILIES))
def test_exp2_estimates_match_scalar_loops(family):
    s = EXP2_FAMILIES[family]()
    active, d, span_rank = s.active_coords(), s.dims.d, _span_rank(s)
    m = active.shape[0]
    rng = make_rng(20)
    flags = set()
    for _ in range(300):
        # skewed weights, some exactly zero, so that some cases lose rank
        weights = rng.random(m) ** int(rng.integers(1, 60))
        weights[rng.random(m) < 0.2] = 0.0
        if not weights.any():
            weights[0] = 1.0
        probs = weights / weights.sum()
        chosen = int(rng.integers(m))
        observed = float(rng.random() * s.dims.k)
        est, ok = _kernels.exp2_estimates(probs, active, d, chosen, observed,
                                          span_rank)
        ref, ref_ok = _scalar_exp2_estimates(probs, active, d, chosen,
                                             observed, span_rank)
        assert ok == ref_ok
        assert est.tobytes() == ref.tobytes()
        flags.add(ok)
    assert flags == {0, 1}


@pytest.mark.parametrize("gamma", [0.2, 1e-3, 1e-14])
@pytest.mark.parametrize("family", sorted(EXP2_FAMILIES))
def test_play_exp2_matches_scalar_loops(family, gamma):
    s = EXP2_FAMILIES[family]()
    active, d, span_rank = s.active_coords(), s.dims.d, _span_rank(s)
    rng = make_rng(21)
    horizon = 48
    losses = rng.random((horizon, d))
    uniforms = rng.random(horizon)
    lam, idx, err = _kernels.play_exp2(losses, active, 3.0, gamma, uniforms,
                                       span_rank)
    ref_lam, ref_idx, ref_err = _scalar_play_exp2(losses, active, 3.0, gamma,
                                                  uniforms, span_rank)
    assert err == ref_err
    if gamma == 1e-14:
        assert 0 < err < horizon  # rank is lost mid-game
    else:
        assert err == -1
    # rounds after a lost rank are never played, so only the played prefix
    played = horizon if err < 0 else err + 1
    assert lam[:played].tobytes() == ref_lam[:played].tobytes()
    assert idx[:played].tobytes() == ref_idx[:played].tobytes()
