"""Adversary schedules, noise structure, clipping, and the loss lift onto
the layered graph."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtri

from combandit import (
    ActionSetError,
    AdversaryFactory,
    LossTable,
    NoiseMode,
    build_layered_path_graph,
    build_matching,
    build_multitask,
    clip,
    compute_epsilon,
    compute_sigma,
    draw_losses,
    hindsight_best,
    make_adversary,
    make_rng,
    shortest_path_losses,
    standard_normals,
)
from combandit._kernels import round_loss
from combandit.environments import seed_sequence


class TestSchedules:
    def test_epsilon_multitask_unit_case(self):
        dims = build_multitask(1, 4).dims
        assert compute_epsilon(1.0, dims, 1) == 1.0

    def test_epsilon_zero_sigma(self):
        dims = build_matching(2, 3).dims
        assert compute_epsilon(0.0, dims, 10) == 0.0

    def test_epsilon_ranking_hand_case(self):
        dims = build_matching(2, 4).dims  # k=2, d=8
        assert compute_epsilon(1.0, dims, 8) == pytest.approx(0.5, abs=1e-15)

    def test_sigma_at_t1(self):
        assert compute_sigma(1) == pytest.approx(1 / math.sqrt(192), abs=1e-12)
        assert compute_sigma(1) == pytest.approx(0.0721688, abs=1e-6)

    def test_sigma_at_log_one(self):
        # at ln T = 1 the formula gives 1/sqrt(288)
        assert compute_sigma(math.e) == pytest.approx(1 / math.sqrt(288), abs=1e-12)
        assert compute_sigma(math.e) == pytest.approx(0.0589256, abs=1e-6)

    def test_sigma_strictly_decreasing(self):
        values = [compute_sigma(T) for T in (1, 2, 8, 64, 1024, 10**6)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_preconditions(self):
        dims = build_multitask(2, 2).dims
        with pytest.raises(ValueError):
            compute_sigma(0)
        with pytest.raises(ValueError):
            compute_epsilon(-0.1, dims, 4)
        with pytest.raises(ValueError):
            compute_epsilon(1.0, dims, 0)


class TestClip:
    def test_saturation_and_identity(self):
        assert clip(1.3) == 1.0
        assert clip(-0.2) == 0.0
        assert clip(0.5) == 0.5

    def test_vectorized(self):
        out = clip(np.array([-1.0, 0.25, 2.0]))
        assert np.array_equal(out, [0.0, 0.25, 1.0])

    def test_in_place_returns_its_argument_with_the_same_values(self):
        values = [-1.5, -1e-300, 0.0, 1e-300, 0.25, 1.0 - 2**-53, 1.0,
                  1.0 + 2**-52, 7.0]
        expected = clip(np.array(values))
        a = np.array(values)
        out = clip(a, out=a)
        assert out is a
        assert a.tobytes() == expected.tobytes()
        assert a[2] == 0.0 and a[6] == 1.0


class TestDrawLosses:
    def test_zero_noise_exact_values(self):
        s = build_multitask(2, 2)
        cfg = make_adversary(s, T=4, seed_seq=0, sigma=0.0, epsilon=0.125)
        losses, noise = draw_losses(cfg)
        losses = losses.matrix()
        planted = cfg.x_star.astype(bool)
        assert np.all(losses[:, planted] == 0.375)
        assert np.all(losses[:, ~planted] == 0.5)
        assert np.all(noise == 0.0)

    def test_correlated_differences_cancel_noise(self):
        s = build_multitask(3, 2)
        cfg = make_adversary(s, T=32, seed_seq=1, sigma=0.3, epsilon=0.01)
        losses = draw_losses(cfg)[0].matrix()
        eps, x = cfg.epsilon, cfg.x_star.astype(np.float64)
        for i in range(s.dims.d):
            for j in range(s.dims.d):
                assert np.allclose(losses[:, i] - losses[:, j],
                                   -eps * (x[i] - x[j]), atol=1e-15)

    def test_independent_mode_varies_per_coordinate(self):
        s = build_multitask(2, 2)
        cfg = make_adversary(s, T=16, seed_seq=2, sigma=0.3, epsilon=0.0,
                             noise_mode=NoiseMode.INDEPENDENT)
        losses, noise = draw_losses(cfg)
        losses = losses.matrix()
        assert noise.shape == (16, 4)
        assert np.std(losses[0]) > 0

    def test_clipped_losses_in_unit_interval(self):
        s = build_multitask(2, 2)
        cfg = make_adversary(s, T=64, seed_seq=3, sigma=5.0, epsilon=0.01,
                             clipped=True)
        losses, noise = draw_losses(cfg)
        losses = losses.matrix()
        assert losses.min() >= 0.0 and losses.max() <= 1.0
        # recorded noise stays unclipped
        assert abs(noise).max() > 1.0

    def test_fixed_seed_bit_identical(self):
        s = build_matching(2, 4)
        a, _ = draw_losses(make_adversary(s, T=32, seed_seq=7))
        b, _ = draw_losses(make_adversary(s, T=32, seed_seq=7))
        assert np.array_equal(a.matrix(), b.matrix())

    @pytest.mark.parametrize("mode", list(NoiseMode))
    @pytest.mark.parametrize("clipped", [False, True])
    def test_each_draw_returns_fresh_arrays(self, mode, clipped):
        # transcripts keep every game's loss table, so no two draws may
        # share a buffer
        cfg = make_adversary(build_multitask(2, 3), T=16, seed_seq=4,
                             noise_mode=mode, clipped=clipped)
        first, second = [(losses.table, noise) for losses, noise in
                         (draw_losses(cfg), draw_losses(cfg))]
        for arrays in (first, second):
            for a in arrays:
                assert a.dtype == np.float64
                assert a.flags.c_contiguous and a.flags.owndata
        for a, b in zip(first, second):
            assert not np.shares_memory(a, b)
        assert not np.shares_memory(first[0], first[1])


class TestAdversaryConfig:
    """A config converts its own fields, or refuses them, where it is built."""

    def test_seed_sequence_converts_once(self):
        seq = np.random.SeedSequence(5)
        assert seed_sequence(seq) is seq
        for seed in (5, [5, 6]):
            assert seed_sequence(seed).entropy == np.random.SeedSequence(seed).entropy
        assert make_rng(5).random(3).tobytes() == make_rng(seq).random(3).tobytes()

    def test_noise_mode_value_draws_the_members_law(self):
        cfg = make_adversary(build_multitask(3, 2), T=16, seed_seq=4)
        by_value = replace(cfg, noise_mode="CorrelatedGaussian")
        assert by_value.noise_mode is NoiseMode.CORRELATED
        (ref, ref_noise), (got, noise) = draw_losses(cfg), draw_losses(by_value)
        assert got.table.shape == (16, 2)
        assert got.table.tobytes() == ref.table.tobytes()
        assert got.cols.tobytes() == ref.cols.tobytes()
        assert noise.tobytes() == ref_noise.tobytes()
        assert by_value.describe() == cfg.describe()

    def test_unknown_noise_mode_fails_at_construction(self):
        cfg = make_adversary(build_multitask(2, 2), T=4, seed_seq=0)
        with pytest.raises(ValueError, match="correlated"):
            replace(cfg, noise_mode="correlated")
        with pytest.raises(ValueError, match="correlated"):
            make_adversary(build_multitask(2, 2), T=4, seed_seq=0,
                           noise_mode="correlated")

    @pytest.mark.parametrize("x_star", [[2, 0, 0, 0], [1, 1, 1, -1],
                                        [1.5, 0.5, 0, 0], [1, 0, 1]])
    def test_x_star_must_be_a_k_hot_0_1_vector(self, x_star):
        cfg = make_adversary(build_multitask(2, 2), T=4, seed_seq=0)
        with pytest.raises(ValueError, match="x_star"):
            replace(cfg, x_star=x_star)

    def test_x_star_is_stored_as_uint8(self):
        cfg = make_adversary(build_multitask(2, 2), T=4, seed_seq=0)
        floats = replace(cfg, x_star=[1.0, 0.0, 0.0, 1.0])
        assert floats.x_star.dtype == np.uint8
        assert floats.x_star.tolist() == [1, 0, 0, 1]
        assert replace(cfg, x_star=cfg.x_star).x_star is cfg.x_star


def _reference_normals(rng, shape):
    """Reference transform: ``ndtri((i + 0.5) * 2^-53)``, one fresh array
    per step."""
    u = (rng.integers(0, 1 << 53, size=shape, dtype=np.uint64) + 0.5) * 2.0**-53
    return ndtri(u)


def _reference_draw(cfg):
    """Reference loss draw: tile the base row, add the noise, then clip,
    each step into a fresh array."""
    rng = make_rng(cfg.seed)
    T, d = cfg.T, cfg.dims.d
    base = 0.5 - cfg.epsilon * cfg.x_star.astype(np.float64)
    if cfg.noise_mode is NoiseMode.CORRELATED:
        noise = cfg.sigma * _reference_normals(rng, (T,))
        losses = np.tile(base, (T, 1)) + noise[:, None]
    else:
        noise = cfg.sigma * _reference_normals(rng, (T, d))
        losses = base + noise
    if cfg.clipped:
        losses = np.minimum(np.maximum(losses, 0.0), 1.0)
    return np.ascontiguousarray(losses), noise


class TestDrawAgainstReference:
    """The in-place draw runs every element through the same IEEE
    operations, in the same order, as the reference draw."""

    @pytest.mark.parametrize("build,args,T", [
        (build_multitask, (3, 4), 48),
        (build_multitask, (3, 4), 257),
        (build_matching, (3, 5), 45),
        (build_matching, (3, 5), 300),
        (build_layered_path_graph, (4, 8), 32),
        (build_layered_path_graph, (8, 32), 4096),
    ])
    @pytest.mark.parametrize("mode", list(NoiseMode))
    @pytest.mark.parametrize("clipped", [False, True])
    def test_losses_and_noise_byte_equal(self, build, args, T, mode, clipped):
        s = build(*args)
        # sigma = 0.3 makes the clip fire at both ends
        for cfg in (make_adversary(s, T, seed_seq=11, noise_mode=mode,
                                   clipped=clipped),
                    make_adversary(s, T, seed_seq=12, noise_mode=mode,
                                   clipped=clipped, sigma=0.3)):
            losses, noise = draw_losses(cfg)
            losses = losses.matrix()
            ref_losses, ref_noise = _reference_draw(cfg)
            assert losses.shape == ref_losses.shape
            assert noise.shape == ref_noise.shape
            assert losses.tobytes() == ref_losses.tobytes()
            assert noise.tobytes() == ref_noise.tobytes()
        if clipped:
            assert losses.min() == 0.0 and losses.max() == 1.0


class TestLossTable:
    """The table reads as the dense matrix it stands for, bit for bit: the
    matrix itself, the hindsight oracle on its column sums, and each
    round's gathered loss."""

    @pytest.mark.parametrize("build,args", [
        (build_multitask, (3, 4)),
        (build_layered_path_graph, (4, 12)),
        (build_matching, (3, 5)),
    ])
    @pytest.mark.parametrize("mode", list(NoiseMode))
    @pytest.mark.parametrize("clipped", [False, True])
    def test_reads_as_the_dense_matrix(self, build, args, mode, clipped):
        s = build(*args)
        k, d = s.dims.k, s.dims.d
        for seed in range(20):
            rng = make_rng(seed)
            T = int(rng.integers(1, 300))
            # sigma = 0.3 on odd seeds makes the clip fire at both ends
            cfg = make_adversary(s, T, seed_seq=seed, noise_mode=mode,
                                 clipped=clipped,
                                 sigma=0.3 if seed % 2 else None)
            losses, noise = draw_losses(cfg)
            assert losses.shape == (T, d)
            assert losses.cols.dtype == np.intp
            matrix = losses.matrix()
            assert matrix.flags.c_contiguous
            # clip(0.5 - eps * x* + noise), rebuilt from the returned noise
            shared = noise[:, None] if mode is NoiseMode.CORRELATED else noise
            expected = 0.5 - cfg.epsilon * cfg.x_star.astype(np.float64) + shared
            if clipped:
                expected = np.minimum(np.maximum(expected, 0.0), 1.0)
            assert matrix.tobytes() == expected.tobytes()
            assert (losses.column_sums().tobytes()
                    == np.sum(matrix, axis=0).tobytes())
            assert (hindsight_best(losses, s).hex()
                    == hindsight_best(LossTable(matrix, np.arange(d)), s).hex())
            # every round's k coordinates, increasing, drawn at random
            coords = np.sort(rng.permuted(np.tile(np.arange(d), (T, 1)),
                                          axis=1)[:, :k], axis=1)
            dense = round_loss(matrix, coords).tobytes()
            assert round_loss(losses.table, losses.cols[coords]).tobytes() == dense
            assert losses.round_loss(coords).tobytes() == dense
            action = coords[0]  # one action for every round
            assert (losses.round_loss(action).tobytes()
                    == round_loss(matrix, action).tobytes())

    @pytest.mark.parametrize("T", [4096, 4099])
    @pytest.mark.parametrize("mode", list(NoiseMode))
    @pytest.mark.parametrize("clipped", [False, True])
    def test_column_sums_add_in_round_order(self, T, mode, clipped):
        s = build_layered_path_graph(8, 32)
        # sigma = 0.3 makes the clip fire at both ends
        cfg = make_adversary(s, T, seed_seq=T, noise_mode=mode,
                             clipped=clipped, sigma=0.3)
        losses, _ = draw_losses(cfg)
        table = losses.table
        assert table.dtype == np.float64 and table.flags.c_contiguous
        assert table.shape == (T, 2 if mode is NoiseMode.CORRELATED else 32)
        sums = [0.0] * 32
        for row in losses.matrix().tolist():
            for i, value in enumerate(row):
                sums[i] += value
        assert losses.column_sums().tolist() == sums

    def test_column_sums_of_one_column(self):
        # d = 1 under independent noise: the (T, 1) table keeps the pairwise
        # sum of np.sum(matrix, axis=0)
        s = build_matching(1, 1)
        for seed in range(5):
            cfg = make_adversary(s, 4099, seed_seq=seed,
                                 noise_mode=NoiseMode.INDEPENDENT, sigma=0.3)
            losses, _ = draw_losses(cfg)
            assert losses.table.shape == (4099, 1)
            assert (losses.column_sums().tobytes()
                    == np.sum(losses.matrix(), axis=0).tobytes())

    def test_correlated_table_has_two_levels(self):
        s = build_layered_path_graph(8, 32)
        cfg = make_adversary(s, T=4096, seed_seq=5)
        losses, _ = draw_losses(cfg)
        assert losses.table.shape == (4096, 2)
        assert losses.cols.tolist() == cfg.x_star.tolist()
        assert losses.matrix().shape == (4096, 32)


class TestSampleOptimal:
    def test_multitask_uniformity(self):
        s = build_multitask(2, 2)
        rng = make_rng(11)
        counts = {}
        for _ in range(10**5):
            key = tuple(s.sample_uniform(rng))
            counts[key] = counts.get(key, 0) + 1
        freqs = np.array(list(counts.values())) / 10**5
        assert len(counts) == 4
        assert np.all(np.abs(freqs - 0.25) < 0.02)

    def test_matching_uniformity(self):
        s = build_matching(2, 3)
        rng = make_rng(12)
        counts = {}
        for _ in range(6 * 10**4):
            key = tuple(s.sample_uniform(rng))
            counts[key] = counts.get(key, 0) + 1
        freqs = np.array(list(counts.values())) / (6 * 10**4)
        assert len(counts) == 6
        assert np.all(np.abs(freqs - 1 / 6) < 0.02)

    def test_path_sampling_stays_in_set(self):
        g = build_layered_path_graph(4, 8)
        rng = make_rng(13)
        for _ in range(200):
            assert g.contains(g.sample_uniform(rng))

    def test_fixed_seed_deterministic(self):
        s = build_multitask(1, 2)
        a = s.sample_uniform(make_rng(42))
        b = s.sample_uniform(make_rng(42))
        assert np.array_equal(a, b)


class TestTheorem4Recipe:
    def test_hand_evaluated_parameters(self):
        s = build_multitask(4, 2)
        cfg = AdversaryFactory(T=32, theorem4=True)(s, 0)
        sigma = 1 / math.sqrt(192 + 96 * math.log(32))
        assert cfg.sigma == pytest.approx(sigma, abs=1e-15)
        assert cfg.sigma == pytest.approx(0.043666, abs=1e-4)
        assert cfg.epsilon == pytest.approx(sigma / 2, abs=1e-15)
        assert cfg.epsilon == pytest.approx(0.021833, abs=1e-4)
        assert cfg.clipped and cfg.noise_mode is NoiseMode.CORRELATED

    def test_boundary_horizon_accepted(self):
        s = build_multitask(1, 2)
        cfg = AdversaryFactory(T=2, theorem4=True)(s, 0)
        assert cfg.T == 2

    def test_short_horizon_rejected(self):
        s = build_multitask(4, 2)
        with pytest.raises(ValueError, match="T >= k\\*d"):
            AdversaryFactory(T=16, theorem4=True)(s, 0)

    @pytest.mark.parametrize("k,n", [(1, 2), (2, 2), (4, 2), (2, 8), (8, 4)])
    def test_epsilon_never_exceeds_quarter(self, k, n):
        # direct arithmetic: eps = sigma*sqrt(kd/4T) <= sqrt(1/192) <= 1/4
        s = build_multitask(k, n)
        d = s.dims.d
        for T in (k * d, 4 * k * d, 64 * k * d):
            cfg = AdversaryFactory(T=T, theorem4=True)(s, 0)
            assert cfg.epsilon <= math.sqrt(1 / 192) <= 0.25

    @pytest.mark.parametrize("family", ["matching", "multitask", "path"])
    def test_matching_uses_ranking_schedule(self, family):
        # matching takes the ranking schedule kd/8T, the others kd/4T
        s, denom = {"matching": (build_matching(2, 4), 8),
                    "multitask": (build_multitask(2, 4), 4),
                    "path": (build_layered_path_graph(2, 8), 4)}[family]
        assert (s.dims.k, s.dims.d) == (2, 8)
        T = 64
        cfg = AdversaryFactory(T=T, theorem4=True)(s, 0)
        sigma = compute_sigma(T)
        assert cfg.epsilon == pytest.approx(
            sigma * math.sqrt(2 * 8 / (denom * T)), abs=1e-15)


class TestGaussianStream:
    def test_moments(self):
        z = standard_normals(make_rng(0), 10**6)
        assert abs(z.mean()) < 4e-3
        assert abs(z.std() - 1.0) < 4e-3

    def test_tail_mass_two_sided(self):
        z = standard_normals(make_rng(1), 10**6)
        # P(|Z| > 1.959964) = 0.05
        assert abs(np.mean(np.abs(z) > 1.959964) - 0.05) < 0.002

    def test_counter_based_reproducibility(self):
        a = standard_normals(make_rng(99), (3, 5))
        b = standard_normals(make_rng(99), (3, 5))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape", [7, (64,), (33, 9), (4096, 32)])
    def test_byte_equal_to_reference_transform(self, shape):
        for seed in range(10):
            z = standard_normals(make_rng(seed), shape)
            ref = _reference_normals(make_rng(seed), shape)
            assert z.dtype == np.float64 and z.shape == ref.shape
            assert z.tobytes() == ref.tobytes()

    def test_top_of_the_grid_stays_finite(self):
        # i = 2^53 - 1 rounds to u = 1.0, where ndtri is +inf
        ints = np.array([0, 2**52 - 1, 2**52 + 1, 2**53 - 2, 2**53 - 1],
                        dtype=np.uint64)

        class StubRng:
            def integers(self, low, high, size, dtype):
                assert (low, high, size, dtype) == (0, 2**53, ints.shape, np.uint64)
                return ints.copy()

        z = standard_normals(StubRng(), ints.shape)
        assert np.isfinite(z).all()
        for i, v in zip(ints[:-1].tolist(), z[:-1]):
            assert v.tobytes() == np.float64(ndtri((i + 0.5) * 2.0**-53)).tobytes()
        assert z[-1] == ndtri(np.nextafter(1.0, 0.0)) > z[-2]


class TestShortestPathLosses:
    def test_single_layer_layout(self):
        g = build_layered_path_graph(2, 4)
        out = shortest_path_losses(np.array([0.7, 0.2]), g)
        assert np.array_equal(out, [0.7, 0.2, 0.0, 0.0])

    def test_all_zeros(self):
        g = build_layered_path_graph(4, 8)
        assert np.array_equal(shortest_path_losses(np.zeros(4), g), np.zeros(8))

    def test_dimension_mismatch(self):
        g = build_layered_path_graph(4, 8)
        with pytest.raises(ActionSetError, match="coordinates"):
            shortest_path_losses(np.zeros(5), g)
        with pytest.raises(ActionSetError, match="layered"):
            shortest_path_losses(np.zeros(4), build_multitask(2, 2))

    def test_loss_preservation_exact_over_all_paths(self):
        g = build_layered_path_graph(4, 16)
        rng = make_rng(21)
        for _ in range(50):
            mt_loss = rng.random(8)
            edge_loss = shortest_path_losses(mt_loss, g)
            for bits in g.enumerate_actions():
                mapped = g.path_to_multitask(bits)
                assert round_loss(edge_loss, np.flatnonzero(bits)).tobytes() \
                    == round_loss(mt_loss, np.flatnonzero(mapped)).tobytes()

    def test_matrix_form(self):
        g = build_layered_path_graph(2, 4)
        mt = np.arange(6, dtype=np.float64).reshape(3, 2)
        out = shortest_path_losses(mt, g)
        assert out.shape == (3, 4)
        assert np.array_equal(out[:, :2], mt)
        assert np.array_equal(out[:, 2:], np.zeros((3, 2)))
