"""Kernel-level checks: accumulation-order exactness, inverse-CDF sampling,
and agreement of the kernels with the scalar loops they replaced."""

import math

import numpy as np
import pytest

from combandit import (
    AdversaryFactory,
    EnumeratedExp2Learner,
    EnumerationCapExceeded,
    Exp2SingularError,
    LearnerSpec,
    LossTable,
    MatchingSet,
    NoiseMode,
    PerTaskExp3Learner,
    Transcript,
    _kernels,
    build_layered_path_graph,
    build_matching,
    build_multitask,
    hindsight_best,
    make_adversary,
    make_rng,
    replicate,
)
from combandit._kernels import (
    draw_injection,
    jit_status,
    round_loss,
)
from combandit import engine, learners
from combandit.engine import draw_losses, play_losses
from combandit.learners import default_eta, default_gamma


def test_jit_status_string():
    assert jit_status() == "pure-python"


# Scalar loops the numpy kernels replaced, kept as the reference they must
# reproduce bit for bit.

def _scalar_round_loss(loss_row, bits):
    acc = 0.0
    for i in range(loss_row.shape[0]):
        if bits[i]:
            acc += loss_row[i]
    return acc


def _coords_of(actions):
    """Each row's active coordinates, in increasing order, of (T, d)
    incidence vectors that all have the same number of ones."""
    return np.nonzero(actions)[1].reshape(actions.shape[0], -1)


def _scalar_first_unsound_round(losses, actions, observed):
    for t in range(losses.shape[0]):
        if _scalar_round_loss(losses[t], actions[t]) != observed[t]:
            return t
    return -1


def _scalar_hindsight_scores(cum_loss, active):
    m = active.shape[0]
    out = np.empty(m, dtype=np.float64)
    for a in range(m):
        acc = 0.0
        for j in range(active.shape[1]):
            acc += cum_loss[active[a, j]]
        out[a] = acc
    return out


def _scalar_draw_injection(n, uniforms_row, out_cols):
    k = out_cols.shape[0]
    used = np.zeros(n, dtype=np.uint8)
    for j in range(k):
        r = int(uniforms_row[j] * (n - j))
        if r > n - j - 1:
            r = n - j - 1
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


def _scalar_play_fixed(losses, bits):
    horizon = losses.shape[0]
    lam = np.empty(horizon, dtype=np.float64)
    for t in range(horizon):
        lam[t] = _scalar_round_loss(losses[t], bits)
    return lam


def _scalar_play_round_robin(losses, matrix):
    horizon = losses.shape[0]
    m = matrix.shape[0]
    lam = np.empty(horizon, dtype=np.float64)
    idx = np.empty(horizon, dtype=np.int64)
    for t in range(horizon):
        a = t % m
        idx[t] = a
        lam[t] = _scalar_round_loss(losses[t], matrix[a])
    return lam, idx


def _scalar_play_uniform_blocks(losses, n_blocks, block_size, path_layout,
                                uniforms):
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


def _scalar_play_uniform_matching(losses, k, n, uniforms):
    horizon, d = losses.shape
    lam = np.empty(horizon, dtype=np.float64)
    actions = np.zeros((horizon, d), dtype=np.uint8)
    cols = np.empty(k, dtype=np.int64)
    for t in range(horizon):
        _scalar_draw_injection(n, uniforms[t], cols)
        acc = 0.0
        for j in range(k):
            i = j * n + cols[j]
            actions[t, i] = 1
            acc += losses[t, i]
        lam[t] = acc
    return lam, actions


def _scalar_mixed_exponential_weights(cum_est, eta, gamma):
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


def _scalar_sample_categorical(probs, u):
    acc = 0.0
    last = probs.shape[0] - 1
    for i in range(last):
        acc += probs[i]
        if u < acc:
            return i
    return last


FAMILIES = {
    "multitask": lambda: build_multitask(3, 2),
    "matching": lambda: build_matching(2, 3),
    "path": lambda: build_layered_path_graph(4, 12),
}


def _signed_losses(rng, shape):
    """Gaussian losses of both signs, with exact -0.0, +0.0 and NaN entries
    (every scalar loop must still agree where they are inactive)."""
    losses = rng.standard_normal(shape)
    u = rng.random(shape)
    losses[u < 0.1] = -0.0
    losses[(u >= 0.1) & (u < 0.15)] = 0.0
    return losses


def _random_coords(rng, horizon, d, k):
    """(horizon, k) increasing coordinates, k of d drawn per row, and their
    (horizon, d) incidence vectors."""
    order = np.argsort(rng.random((horizon, d)), axis=1)
    coords = np.sort(order[:, :k], axis=1)
    bits = np.zeros((horizon, d), dtype=np.uint8)
    np.put_along_axis(bits, coords, 1, axis=1)
    return coords, bits


def test_round_loss_matches_ordered_python_sum():
    rng = make_rng(0)
    for _ in range(50):
        d = int(rng.integers(1, 20))
        loss = rng.random(d)
        bits = (rng.random(d) < 0.4).astype(np.uint8)
        value = round_loss(loss, np.flatnonzero(bits))
        assert value.tobytes() == np.float64(
            _scalar_round_loss(loss, bits)).tobytes()


def test_round_loss_on_stacks_matches_scalar_loop():
    rng = make_rng(30)
    for _ in range(300):
        horizon, d = int(rng.integers(1, 40)), int(rng.integers(1, 20))
        k = int(rng.integers(0, d + 1))
        losses = _signed_losses(rng, (horizon, d))
        coords, bits = _random_coords(rng, horizon, d, k)
        # NaN only where inactive: an inactive NaN must contribute nothing
        losses[(bits == 0) & (rng.random((horizon, d)) < 0.1)] = np.nan
        # rows whose active terms are all -0.0, around inactive NaNs
        zero = rng.random(horizon) < 0.1
        losses[zero] = np.where(bits[zero] == 1, -0.0, np.nan)
        ref = np.array([_scalar_round_loss(losses[t], bits[t])
                        for t in range(horizon)])
        assert round_loss(losses, coords).tobytes() == ref.tobytes()
        # one action for every round, and one loss row for a list of actions
        ref = np.array([_scalar_round_loss(losses[t], bits[0])
                        for t in range(horizon)])
        assert round_loss(losses, coords[0]).tobytes() == ref.tobytes()
        ref = np.array([_scalar_round_loss(losses[0], bits[t])
                        for t in range(horizon)])
        assert round_loss(losses[0], coords).tobytes() == ref.tobytes()
    # an all-(-0.0) active sum is the loop's +0.0, never -0.0
    zeros = np.full((2, 3), -0.0)
    assert round_loss(zeros, np.tile(np.arange(3), (2, 1))).tobytes() == \
        np.zeros(2).tobytes()


def test_round_loss_refuses_incidence_vectors():
    row = np.arange(8.0)
    s = build_multitask(4, 2)
    for bits in (s.first_action(), s.first_action().astype(bool),
                 s.enumerate_actions().astype(np.uint64)):
        with pytest.raises(TypeError, match=f"not a {bits.dtype} incidence"):
            round_loss(row, bits)
    with pytest.raises(TypeError, match="not a uint8 incidence"):
        round_loss(np.tile(row, (3, 1)), s.first_action())
    # signed coordinates of any width, and lists of them, still gather
    for coords in (np.flatnonzero(s.first_action()), [0, 2, 4, 6],
                   np.array([0, 2, 4, 6], dtype=np.int8)):
        assert round_loss(row, coords) == 12.0


def _dense(losses):
    """A (T, d) loss matrix as the engine's loss table: one column per
    coordinate, as the independent-noise draw gives."""
    return LossTable(losses, np.arange(losses.shape[1]))


def _engine_observed(s, losses, played):
    """Observed losses and coordinates the engine records for a kernel game
    that consumed no feedback: the ``Transcript`` gathers them itself."""
    observed, coords = played
    assert observed is None
    horizon = losses.shape[0]
    cfg = make_adversary(s, T=horizon, seed_seq=0)
    tr = Transcript(coords, None, _dense(losses), np.zeros(horizon), cfg,
                    "kernel")
    assert np.array_equal(tr.coords, coords)
    return tr.observed, coords


def test_transcript_finds_the_first_unsound_round_as_the_scalar_loop_does():
    rng = make_rng(31)
    horizon, d = 64, 8
    losses = _signed_losses(rng, (horizon, d))
    coords, actions = _random_coords(rng, horizon, d, 4)
    cfg = make_adversary(build_multitask(4, 2), T=horizon, seed_seq=0)
    observed = np.array([_scalar_round_loss(losses[t], actions[t])
                         for t in range(horizon)])
    assert _scalar_first_unsound_round(losses, actions, observed) == -1
    for given in (observed, None):  # without observed losses it adopts the gather
        tr = Transcript(coords, given, _dense(losses), np.zeros(horizon), cfg,
                        "x")
        assert tr.observed.tobytes() == observed.tobytes()
    for forged, toward in ((0, np.inf), (17, -np.inf), (horizon - 1, np.inf)):
        bad = observed.copy()
        bad[forged] = np.nextafter(bad[forged], toward)  # one ulp off
        bad[forged + 1:] += 1.0  # later mismatches must not win
        assert _scalar_first_unsound_round(losses, actions, bad) == forged
        with pytest.raises(AssertionError,
                           match=f"mismatch at round {forged + 1}$"):
            Transcript(coords, bad, _dense(losses), np.zeros(horizon), cfg,
                       "x")


ORACLE_SETS = {
    "multitask-4x3": lambda: build_multitask(4, 3),
    "multitask-2x6": lambda: build_multitask(2, 6),
    "path-6x18": lambda: build_layered_path_graph(6, 18),
    "path-4x16": lambda: build_layered_path_graph(4, 16),
    "matching-3x5": lambda: build_matching(3, 5),
    "matching-5x7": lambda: build_matching(5, 7),
    "matching-2x66": lambda: build_matching(2, 66),  # two words of used columns
}


def _oracle_instance(rng, mode, d):
    """Cumulative losses where the summation order and exact ties matter."""
    if mode == "ties":
        return rng.integers(-2, 3, d) * 0.5
    if mode == "near_ties":  # a few ulps around one magnitude
        base = float(rng.choice([1.0, 3.0, 1e8, -7.5]))
        return base + np.spacing(base) * rng.integers(-3, 4, d)
    if mode == "signed_mixed":
        return rng.choice([-1.0, 1.0], d) * 10.0 ** rng.uniform(-8, 8, d)
    return rng.standard_normal(d) * 10.0 ** rng.integers(-8, 9, d)


@pytest.mark.parametrize("name", sorted(ORACLE_SETS))
def test_hindsight_oracle_matches_enumerated_minimum(name):
    s = ORACLE_SETS[name]()
    active = s.active_coords()
    assert active.shape[0] <= 5000
    rng = make_rng(sorted(ORACLE_SETS).index(name))
    for mode in ("ties", "near_ties", "signed_mixed", "gaussian_scaled"):
        for _ in range(16):
            cum = _oracle_instance(rng, mode, s.dims.d)
            ref = _scalar_hindsight_scores(cum, active).min()
            value = hindsight_best(_dense(cum[None, :]), s)
            assert type(value) is float
            assert np.float64(value).tobytes() == ref.tobytes(), mode
            # transitions built afresh (past the process's cache) give what
            # the cached ones do
            fresh = (None if s.oracle_layout() is None
                     else _kernels.distinct_layout.__wrapped__(s.dims.n, s.dims.k))
            again = _kernels.ordered_min(cum[s._block_coords], fresh)
            assert np.float64(again).tobytes() == ref.tobytes()


def test_cached_oracle_layout_is_one_read_only_object_per_shape():
    layout = build_matching(3, 5).oracle_layout()
    assert MatchingSet(3, 5, cap=10).oracle_layout() is layout
    assert _kernels.distinct_layout(5, 3) is layout
    assert build_matching(2, 5).oracle_layout() is not layout
    assert isinstance(layout, tuple)
    for step in layout:
        for array in step:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
    # a set of a cached shape still meets its own cap
    with pytest.raises(EnumerationCapExceeded):
        MatchingSet(3, 5, cap=9).oracle_layout()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_play_fixed_and_round_robin_match_scalar_loops(family):
    s = FAMILIES[family]()
    matrix, active = s.enumerate_actions(), s.active_coords()
    rng = make_rng(33)
    losses = _signed_losses(rng, (50, s.dims.d))
    for a, bits in enumerate(matrix):
        lam, coords = _engine_observed(s, losses,
                                       _kernels.play_fixed(losses, bits))
        assert lam.tobytes() == _scalar_play_fixed(losses, bits).tobytes()
        assert coords.tobytes() == active[[a] * len(losses)].tobytes()
    lam, coords = _engine_observed(s, losses,
                                   _kernels.play_round_robin(losses, active))
    ref_lam, ref_idx = _scalar_play_round_robin(losses, matrix)
    assert lam.tobytes() == ref_lam.tobytes()
    assert coords.tobytes() == _coords_of(matrix[ref_idx]).tobytes()


@pytest.mark.parametrize("path_layout", [False, True])
def test_play_uniform_blocks_matches_scalar_loop(path_layout):
    rng = make_rng(34)
    n_blocks, block_size = 3, 4
    s = (build_layered_path_graph(2 * n_blocks, 2 * n_blocks * block_size)
         if path_layout else build_multitask(n_blocks, block_size))
    losses = _signed_losses(rng, (200, s.dims.d))
    uniforms = rng.random((200, n_blocks))
    uniforms[0] = np.nextafter(1.0, 0.0)  # the clamp to the last slot
    lam, coords = _engine_observed(s, losses, _kernels.play_uniform_blocks(
        losses, s.dims.n, s._coords, uniforms))
    ref_lam, ref_actions = _scalar_play_uniform_blocks(
        losses, n_blocks, block_size, path_layout, uniforms)
    assert lam.tobytes() == ref_lam.tobytes()
    assert coords.tobytes() == _coords_of(ref_actions).tobytes()


def test_play_uniform_matching_matches_scalar_loop():
    rng = make_rng(35)
    k, n = 3, 5
    s = build_matching(k, n)
    losses = _signed_losses(rng, (300, k * n))
    uniforms = rng.random((300, k))
    uniforms[0] = np.nextafter(1.0, 0.0)
    lam, coords = _engine_observed(s, losses, _kernels.play_uniform_matching(
        losses, n, s._coords, uniforms))
    ref_lam, ref_actions = _scalar_play_uniform_matching(losses, k, n, uniforms)
    assert lam.tobytes() == ref_lam.tobytes()
    assert coords.tobytes() == _coords_of(ref_actions).tobytes()


def _mixed_weights(cum, eta, gamma):
    return np.array(_kernels._mixed_weights(cum.tolist(), eta, gamma))


def _inverse_cdf(probs, u):
    return _kernels._inverse_cdf(probs.tolist(), float(u))


def test_sample_categorical_inverse_cdf():
    probs = np.array([0.2, 0.5, 0.3])
    cum = np.cumsum(probs)
    for u in (0.0, 0.1999, 0.2, 0.69, 0.7001, 0.999999):
        expect = min(int(np.searchsorted(cum, u, side="right")), 2)
        assert _inverse_cdf(probs, u) == expect


def test_sample_categorical_handles_rounding_tail():
    # cumulative sum may fall just short of 1; the last index absorbs it
    probs = np.full(3, 1.0 / 3.0)
    assert _inverse_cdf(probs, 0.9999999999999999) == 2


def test_draw_injection_is_valid_and_uniform():
    n, k = 4, 2
    rng = make_rng(2)
    counts = {}
    for cols in draw_injection(n, rng.random((24000, k))):
        assert len(set(cols.tolist())) == k
        counts[tuple(cols)] = counts.get(tuple(cols), 0) + 1
    assert len(counts) == 12
    freqs = np.array(list(counts.values())) / 24000
    assert np.all(np.abs(freqs - 1 / 12) < 0.01)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 8)
                                 for k in range(1, n + 1)] + [(70, 5)])
def test_draw_injection_matches_scalar_draws(n, k):
    rng = make_rng(n * 100 + k)
    uniforms = rng.random((400, k))
    # rows at either end of [0, 1) in every column, and rows mixing both
    last = np.nextafter(1.0, 0.0)
    uniforms[0] = 0.0
    uniforms[1] = last
    uniforms[2:34] = np.where(rng.random((32, k)) < 0.5, 0.0, last)
    cols = draw_injection(n, uniforms)
    assert cols.dtype == np.int64 and cols.shape == (400, k)
    expect = np.empty((400, k), dtype=np.int64)
    for t in range(400):
        _scalar_draw_injection(n, uniforms[t], expect[t])
    assert np.array_equal(cols, expect)


def test_draw_injection_takes_zero_rows():
    cols = draw_injection(5, np.empty((0, 3)))
    assert cols.dtype == np.int64 and cols.shape == (0, 3)


def test_mixed_weights_simplex_and_mixing():
    cum = np.array([0.0, 3.0, -2.0, 1e6])
    probs = _mixed_weights(cum, 0.7, 0.2)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert (probs >= 0.2 / 4 - 1e-15).all()
    uniform = _mixed_weights(cum, 0.7, 1.0)
    assert np.allclose(uniform, 0.25, atol=1e-15)


def test_mixed_weights_log_space_stability():
    cum = np.array([0.0, 1e307])
    probs = _mixed_weights(cum, 1.0, 0.0)
    assert np.isfinite(probs).all()
    assert probs[0] == pytest.approx(1.0, abs=1e-12)


WEIGHT_EDGES = {
    "ties": [0.5, 0.5, 0.5, 0.5],
    "signed_zeros": [-0.0, 0.0, -0.0, 1.0],
    "zero_first": [0.0, -0.0, 2.0],
    "wide_spread": [0.0, 1e307],
    "wide_spread_reversed": [1e307, 0.0, -1e307],
    "nan_entry": [0.0, float("nan"), 1.0],
    "nan_first": [float("nan"), -1.0, 1.0],
    "overflowing_spread": [1e308, -1e308],
    "single": [3.0],
}


@pytest.mark.parametrize("eta", [0.0, 0.7, 1e300])
@pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("case", sorted(WEIGHT_EDGES))
def test_mixed_weights_match_scalar_loop_on_edges(case, gamma, eta):
    cum = np.array(WEIGHT_EDGES[case])
    with np.errstate(all="ignore"):
        ref = _scalar_mixed_exponential_weights(cum, eta, gamma)
    assert _mixed_weights(cum, eta, gamma).tobytes() == ref.tobytes()


def test_mixed_weights_match_scalar_loop_on_random_inputs():
    rng = make_rng(40)
    for _ in range(400):
        m = int(rng.integers(1, 40))
        cum = rng.standard_normal(m) * 10.0 ** int(rng.integers(-3, 6))
        cum[rng.random(m) < 0.2] = cum[0]  # exact ties with the first
        eta, gamma = float(rng.random() * 5), float(rng.random())
        ref = _scalar_mixed_exponential_weights(cum, eta, gamma)
        got = _mixed_weights(cum, eta, gamma)
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("probs", [
    [1.0 / 3.0] * 3,
    [0.2, 0.5, 0.3],
    [0.0, 1.0, 0.0],
    [0.5, 0.0, 0.5],
    [-0.0, 0.0, 1.0],
    [0.25, float("nan"), 0.75],
    [1.0],
])
def test_sample_categorical_matches_scalar_loop(probs):
    probs = np.array(probs)
    for u in (0.0, 1e-300, 0.2, 0.25, 0.5, 0.7, 0.75, 0.9999999999999999,
              np.float64(0.5)):
        assert _inverse_cdf(probs, u) == \
            _scalar_sample_categorical(probs, u)


def _scalar_play_exp3(losses, k, n, eta, gamma, uniforms, baseline):
    """The per-task EXP3 game loop as it was written before its round was
    split into draw, baseline and update; kept as the reference."""
    if baseline is None:
        mode, value = 0, 0.0
    elif baseline == "mean":
        mode, value = 2, k / 2.0
    else:
        mode, value = 1, float(baseline)
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
            probs = _scalar_mixed_exponential_weights(cum_est[j], eta, gamma)
            a_j = _scalar_sample_categorical(probs, uniforms[t, j])
            chosen[j] = a_j
            chosen_prob[j] = probs[a_j]
            i = j * n + a_j
            actions[t, i] = 1
            acc += losses[t, i]
        lam[t] = acc
        if mode == 1:
            b = value
        elif mode == 2:
            b = value if t == 0 else obs_sum / t
        else:
            b = 0.0
        obs_sum += acc
        for j in range(k):
            cum_est[j, chosen[j]] += (acc - b) / (k * chosen_prob[j])
    return lam, actions, cum_est


def _one_game(kernel, losses, learner, uniforms):
    """One game of the adaptive ``kernel``: a block of one ``learner``,
    whose ``(T, blocks)`` uniforms gain the block's replication axis."""
    lam, coords = kernel(losses, [learner], uniforms[:, None])
    return lam[0], coords[0]


def _started(learner, action_set):
    """``learner`` started on ``action_set``; the game kernels are handed
    their uniforms, so it needs no generator."""
    learner.start(action_set, horizon=1, rng=None)
    return learner


def _exp3(k, n, eta, gamma, baseline):
    return _started(PerTaskExp3Learner(eta, gamma, baseline),
                    build_multitask(k, n))


@pytest.mark.parametrize("baseline", [None, 1.75, "mean"])
def test_play_exp3_matches_scalar_loop(baseline):
    rng = make_rng(4)
    k, n, horizon = 3, 4, 200
    losses = _signed_losses(rng, (horizon, k * n))
    uniforms = make_rng(5).random((horizon, k))
    lam, coords = _one_game(_kernels.play_exp3_multitask, _dense(losses),
                            _exp3(k, n, 0.8, 0.1, baseline), uniforms)
    ref_lam, ref_actions, ref_cum_est = _scalar_play_exp3(
        losses, k, n, 0.8, 0.1, uniforms, baseline)
    ref_coords = _coords_of(ref_actions)
    assert lam.tobytes() == ref_lam.tobytes()
    assert coords.tobytes() == ref_coords.tobytes()
    # round by round, the learner draws the same uniforms from the same
    # stream and ends with the same weights, bit for bit
    learner = PerTaskExp3Learner(0.8, 0.1, baseline)
    observed, coords = play_losses(learner, build_multitask(k, n),
                                   _dense(losses), make_rng(5))
    assert observed.tobytes() == ref_lam.tobytes()
    assert coords.tobytes() == ref_coords.tobytes()
    assert np.array(learner.cum_est).tobytes() == ref_cum_est.tobytes()
    if baseline is not None:  # the baseline must change the game
        _, plain = _one_game(_kernels.play_exp3_multitask, _dense(losses),
                             _exp3(k, n, 0.8, 0.1, None), uniforms)
        assert not np.array_equal(coords, plain)


def _exp2(action_set, eta=1.0, gamma=0.5):
    return _started(EnumeratedExp2Learner(eta, gamma), action_set)


def _estimates(learner, probs, chosen, observed):
    """The started EXP2 ``learner``'s estimates had it drawn action
    ``chosen`` from ``probs``."""
    return learner.estimates([probs], [chosen], [observed])[0]


def test_exp2_estimates_projects_onto_span():
    # with full-support probabilities the estimator averages to the span
    # projection of any loss vector; on the multitask span this is exact for
    # differences of actions
    s = build_multitask(2, 2)
    learner = _exp2(s)
    assert learner.span_rank == 3
    matrix = s.enumerate_actions().astype(np.float64)
    probs = np.full(4, 0.25)
    loss = np.array([0.3, 0.9, 0.5, 0.1])
    averaged = np.zeros(4)
    for a in range(4):
        lam = float(matrix[a] @ loss)
        averaged += 0.25 * _estimates(learner, probs, a, lam)
    assert np.allclose(averaged, matrix @ loss, atol=1e-10)


def test_exp2_estimates_flags_rank_deficiency():
    learner = _exp2(build_multitask(2, 2))
    probs = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(Exp2SingularError, match="lost rank at round 1;"):
        _estimates(learner, probs, 0, 1.0)


def test_exp2_estimates_of_a_block_are_its_rows_alone():
    learner = _exp2(build_multitask(2, 2))
    spread, point = np.full(4, 0.25), np.array([1.0, 0.0, 0.0, 0.0])
    # the error names the block's first replication that lost rank
    with pytest.raises(Exp2SingularError, match="lost rank at round 1;") as info:
        learner.estimates([spread, point, point], [0, 0, 0], [1.0, 1.0, 1.0])
    assert info.value.replication == 1
    probs = [spread, np.array([0.1, 0.2, 0.3, 0.4])]
    block = learner.estimates(probs, [1, 3], [0.5, -0.0])
    for row, p, chosen, observed in zip(block, probs, [1, 3], [0.5, -0.0]):
        assert row.tobytes() == _estimates(learner, p, chosen, observed).tobytes()


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
        probs = _scalar_mixed_exponential_weights(cum_est, eta, gamma)
        a_t = _scalar_sample_categorical(probs, uniforms[t])
        idx[t] = a_t
        acc = 0.0
        for j in range(k):
            acc += losses[t, active[a_t, j]]
        lam[t] = acc
        estimates, ok = _scalar_exp2_estimates(probs, active, d, a_t, acc,
                                               span_rank)
        if ok == 0:
            return lam[:t + 1], idx[:t + 1], t, cum_est
        for a in range(m):
            cum_est[a] += estimates[a]
    return lam, idx, -1, cum_est


def _span_rank(action_set):
    matrix = action_set.enumerate_actions().astype(np.float64)
    return int(np.linalg.matrix_rank(matrix))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_exp2_estimates_match_scalar_loops(family):
    s = FAMILIES[family]()
    active, d, span_rank = s.active_coords(), s.dims.d, _span_rank(s)
    learner = _exp2(s)
    assert learner.span_rank == span_rank
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
        ref, ref_ok = _scalar_exp2_estimates(probs, active, d, chosen,
                                             observed, span_rank)
        if ref_ok:
            est = _estimates(learner, probs, chosen, observed)
            assert est.tobytes() == ref.tobytes()
        else:
            with pytest.raises(Exp2SingularError):
                _estimates(learner, probs, chosen, observed)
        flags.add(ref_ok)
    assert flags == {0, 1}
    # signed-zero and subnormal observations: the kernel adds only the
    # chosen action's coordinates, where the loops also add the exact zeros
    for observed in (0.0, -0.0, 5e-324, -2.5):
        for _ in range(20):
            probs = rng.random(m)
            probs /= probs.sum()
            chosen = int(rng.integers(m))
            est = _estimates(learner, probs, chosen, observed)
            ref, ref_ok = _scalar_exp2_estimates(probs, active, d, chosen,
                                                 observed, span_rank)
            assert ref_ok == 1
            assert est.tobytes() == ref.tobytes()


@pytest.mark.parametrize("gamma", [0.2, 1e-3, 1e-14])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_play_exp2_matches_scalar_loops(family, gamma):
    s = FAMILIES[family]()
    active, d, span_rank = s.active_coords(), s.dims.d, _span_rank(s)
    rng = make_rng(21)
    horizon = 48
    losses = rng.random((horizon, d))
    uniforms = rng.random(horizon)
    matrix = s.enumerate_actions()
    fused = _exp2(s, 3.0, gamma)
    ref_lam, ref_idx, ref_err, ref_cum_est = _scalar_play_exp2(
        losses, active, 3.0, gamma, uniforms, span_rank)
    if gamma == 1e-14:
        assert 0 < ref_err < horizon  # rank is lost mid-game
        # the error names the reference's round, and the learner holds the
        # rounds before it: the failed round's estimates are not added
        with pytest.raises(Exp2SingularError,
                           match=f"lost rank at round {ref_err + 1};"):
            _one_game(_kernels.play_exp2, _dense(losses), fused,
                      uniforms[:, None])
        assert fused.t == ref_err
        assert fused.arms[0] == ref_idx[-1]
        assert fused.est_sum.tobytes() == ref_cum_est.tobytes()
        return
    assert ref_err == -1
    lam, coords = _one_game(_kernels.play_exp2, _dense(losses), fused,
                            uniforms[:, None])
    assert lam.tobytes() == ref_lam.tobytes()
    assert coords.tobytes() == _coords_of(matrix[ref_idx]).tobytes()
    assert fused.est_sum.tobytes() == ref_cum_est.tobytes()
    # round by round, a fresh learner draws the same uniforms from the same
    # stream and ends with the same estimates, bit for bit
    replay = make_rng(21)
    replay.random((horizon, d))
    learner = EnumeratedExp2Learner(3.0, gamma)
    observed, coords = play_losses(learner, s, _dense(losses), replay)
    assert observed.tobytes() == ref_lam.tobytes()
    assert coords.tobytes() == _coords_of(matrix[ref_idx]).tobytes()
    assert learner.est_sum.tobytes() == ref_cum_est.tobytes()


# Games at the benchmark's lower-bound config: multitask k=4, n=2, T=256,
# default eta/gamma.  The kernel reads each game's loss table, and the
# scalar loop the dense matrix it stands for: the clipped correlated
# construction and the unclipped correlated adversary (a (T, 2) table,
# cols = x*), and the clipped independent control (cols = arange(d)).

GAME_FACTORIES = (
    AdversaryFactory(T=256, theorem4=True),
    AdversaryFactory(T=256),
    AdversaryFactory(T=256, noise_mode=NoiseMode.INDEPENDENT, clipped=True),
)


def _lower_bound_games(games, seed):
    s = build_multitask(4, 2)
    for factory in GAME_FACTORIES:
        for rep_seed in np.random.SeedSequence(seed).spawn(games):
            env_seq, learner_seq = rep_seed.spawn(2)
            table, _ = draw_losses(factory(s, env_seq))
            yield s, table, table.matrix(), make_rng(learner_seq)


@pytest.mark.parametrize("baseline", [None, 1.75, "mean"])
def test_play_exp3_matches_scalar_loop_on_theorem4_games(baseline):
    for s, table, losses, rng in _lower_bound_games(6, 50):
        k, n = s.dims.k, s.dims.n
        eta, gamma = default_eta(s, 256), default_gamma(s, 256)
        uniforms = rng.random((losses.shape[0], k))
        lam, coords = _one_game(_kernels.play_exp3_multitask, table,
                                _exp3(k, n, eta, gamma, baseline), uniforms)
        ref_lam, ref_actions, _ = _scalar_play_exp3(losses, k, n, eta, gamma,
                                                    uniforms, baseline)
        assert lam.tobytes() == ref_lam.tobytes()
        assert coords.tobytes() == _coords_of(ref_actions).tobytes()


def test_play_exp2_matches_scalar_loops_on_theorem4_games():
    for s, table, losses, rng in _lower_bound_games(6, 51):
        eta, gamma = default_eta(s, 256), default_gamma(s, 256)
        active, span_rank = s.active_coords(), _span_rank(s)
        uniforms = rng.random(256)
        lam, coords = _one_game(_kernels.play_exp2, table, _exp2(s, eta, gamma),
                                uniforms[:, None])
        ref_lam, ref_idx, ref_err, _ = _scalar_play_exp2(
            losses, active, eta, gamma, uniforms, span_rank)
        assert ref_err == -1
        assert lam.tobytes() == ref_lam.tobytes()
        assert coords.tobytes() == _coords_of(
            s.enumerate_actions()[ref_idx]).tobytes()


def test_adaptive_games_call_their_own_kernel_name(monkeypatch):
    # both names run one game loop, but a profiler that wraps module
    # attributes labels a game by the name it calls: the names stay two
    # objects, and each learner calls its own through the module
    assert _kernels.play_exp3_multitask is not _kernels.play_exp2
    calls = []

    def counting(name):
        original = getattr(_kernels, name)

        def kernel(*args):
            calls.append(name)
            return original(*args)
        return kernel

    for name in ("play_exp3_multitask", "play_exp2"):
        monkeypatch.setattr(_kernels, name, counting(name))
    s = build_multitask(2, 2)
    factory = AdversaryFactory(T=16, theorem4=True)
    for kind, name in (("exp3", "play_exp3_multitask"), ("exp2", "play_exp2")):
        calls.clear()
        replicate(LearnerSpec(kind=kind), factory, s, reps=1, seed=3)
        assert calls == [name]


# Blocks of replications played in lockstep.  Each replication of a
# ``replicate`` block, whatever the block's size, plays its own serial game:
# the scalar loops above, on its own losses and uniforms, give its observed
# losses, coordinates and final summed estimates bit for bit.

BLOCK_HORIZON = 48
LOCKSTEP = [("exp2", family) for family in sorted(FAMILIES)] + [
    ("exp3", "multitask")]


def _block_factory(family):
    # the matching games read an independent-noise table (cols = arange(d))
    if family == "matching":
        return AdversaryFactory(T=BLOCK_HORIZON, noise_mode=NoiseMode.INDEPENDENT,
                                clipped=True)
    return AdversaryFactory(T=BLOCK_HORIZON, clipped=True)


def _serial_game(kind, s, factory, rep_seed):
    """One replication's game by the scalar loop: its observed losses,
    active coordinates and final summed estimates."""
    env_seq, learner_seq = rep_seed.spawn(2)
    losses = draw_losses(factory(s, env_seq))[0].matrix()
    eta, gamma = default_eta(s, BLOCK_HORIZON), default_gamma(s, BLOCK_HORIZON)
    rng = make_rng(learner_seq)
    if kind == "exp2":
        active = s.active_coords()
        lam, idx, err, cum_est = _scalar_play_exp2(
            losses, active, eta, gamma, rng.random((BLOCK_HORIZON, 1))[:, 0],
            _span_rank(s))
        assert err == -1
        return lam, active[idx], cum_est
    k, n = s.dims.k, s.dims.n
    lam, actions, cum_est = _scalar_play_exp3(
        losses, k, n, eta, gamma, rng.random((BLOCK_HORIZON, k)), None)
    return lam, _coords_of(actions), cum_est


@pytest.mark.parametrize("reps", [1, 2, 5, 40])
@pytest.mark.parametrize("kind, family", LOCKSTEP)
def test_replicate_blocks_play_each_replications_serial_game(kind, family, reps,
                                                             monkeypatch):
    s = FAMILIES[family]()
    factory = _block_factory(family)
    started, blocks = [], []
    make = learners.make_learner
    monkeypatch.setattr(learners, "make_learner",
                        lambda *args: started.append(make(*args)) or started[-1])
    name = {"exp2": "play_exp2", "exp3": "play_exp3_multitask"}[kind]
    kernel = getattr(_kernels, name)
    monkeypatch.setattr(_kernels, name, lambda losses, block, uniforms: (
        blocks.append(len(block)) or kernel(losses, block, uniforms)))
    games = replicate(LearnerSpec(kind=kind), factory, s, reps=reps, seed=31)
    # 40 replications span two blocks; fewer fit in one
    assert blocks == ([20, 20] if reps == 40 else [reps])
    seeds = np.random.SeedSequence(31).spawn(reps)
    assert len(games) == len(started) == reps
    for tr, learner, rep_seed in zip(games, started, seeds):
        lam, coords, cum_est = _serial_game(kind, s, factory, rep_seed)
        assert tr.observed.tobytes() == lam.tobytes()
        assert tr.coords.astype(np.int64).tobytes() == coords.tobytes()
        assert np.array(learner.cum_est).tobytes() == cum_est.tobytes()
        if kind == "exp2":
            assert learner.est_sum.tobytes() == cum_est.tobytes()


@pytest.mark.parametrize("kind, family", [("exp2", "matching"),
                                          ("exp3", "multitask")])
def test_pooled_blocks_play_the_serial_games(kind, family):
    s = FAMILIES[family]()
    spec, factory = LearnerSpec(kind=kind), _block_factory(family)
    serial = replicate(spec, factory, s, reps=40, seed=32)
    pooled = replicate(spec, factory, s, reps=40, seed=32, jobs=2)
    assert len(pooled) == 40
    for a, b in zip(serial, pooled):
        assert a.observed.tobytes() == b.observed.tobytes()
        assert a.coords.tobytes() == b.coords.tobytes()


def test_a_lost_rank_in_a_block_raises_what_serial_play_raises(monkeypatch):
    s = build_multitask(3, 2)
    spec = LearnerSpec(kind="exp2", eta=3.0, gamma=1e-14)
    factory = AdversaryFactory(T=64)
    seeds = np.random.SeedSequence(2).spawn(40)
    alone = []
    for rep_seed in seeds[:2]:
        env_seq, learner_seq = rep_seed.spawn(2)
        with pytest.raises(Exp2SingularError) as info:
            engine.run_game(spec, factory(s, env_seq), s, learner_seq)
        alone.append(str(info.value))
    # played alone, replication 1 loses rank before replication 0 does
    assert alone == [f"second-moment matrix lost rank at round {t}; increase "
                     f"gamma" for t in (13, 4)]
    draws = []
    draw = engine.draw_losses
    monkeypatch.setattr(engine, "draw_losses",
                        lambda config: draws.append(config) or draw(config))
    # serial play reaches replication 0 first, and stops there; in the
    # block, replication 1's lost rank waits for replication 0's
    with pytest.raises(Exp2SingularError) as info:
        replicate(spec, factory, s, reps=40, seed=2)
    assert type(info.value) is Exp2SingularError
    assert str(info.value) == alone[0]
    # the failing block holds replications 0-19; the next one never drew
    assert len(draws) == 20
