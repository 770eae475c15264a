"""Regret computation, bound values, scaling fits, KL kernel, play-count
identities, clip-event rates, and variance targets."""

import concurrent.futures
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from combandit import (
    AdversaryFactory,
    Cell,
    EnumerationCapExceeded,
    FixedActionLearner,
    GameRecord,
    LayeredPathSet,
    Learner,
    LearnerSpec,
    LossTable,
    MatchingSet,
    MultitaskSet,
    NoiseMode,
    RoundRobinLearner,
    Transcript,
    UniformRandomLearner,
    build_layered_path_graph,
    build_matching,
    build_multitask,
    compute_sigma,
    empirical_regret,
    gaussian_kl,
    hindsight_best,
    lower_bound_value,
    make_adversary,
    make_rng,
    play_cells,
    replicate,
    run_game,
    scaling_fit,
    shortest_path_losses,
    standard_normals,
    summarize_regret,
    variance_report,
    verify_clip_event,
    verify_ranking_tj_bound,
    verify_tj_row_identity,
)
from combandit import analysis, engine
from combandit._kernels import round_loss
from combandit.analysis import _neutralized_play
from combandit.gates import run_suite


def _dense(losses):
    """A (T, d) loss matrix as a loss table, one column per coordinate."""
    return LossTable(losses, np.arange(losses.shape[1]))


class GreedyProbe(Learner):
    """Deterministic follow-the-leader: row by row, play the arm whose
    rounds produced the lower average observed loss so far (ties to the
    lower index), skipping columns already taken this round when the family
    forbids collisions.  Depends only on its own actions and the observed
    scalars."""

    deterministic = True

    def start(self, action_set, horizon, rng):
        from combandit import Family

        self.k = action_set.dims.k
        self.n = action_set.dims.n
        self.matching = action_set.dims.family is Family.MATCHING
        self.sums = np.zeros((self.k, self.n))
        self.counts = np.zeros((self.k, self.n), dtype=np.int64)
        self.last = np.zeros(self.k, dtype=np.int64)

    def choose(self):
        bits = np.zeros(self.k * self.n, dtype=np.uint8)
        taken = set()
        for j in range(self.k):
            order = sorted(
                (a for a in range(self.n) if not (self.matching and a in taken)),
                key=lambda a: (self.counts[j, a] > 0,
                               self.sums[j, a] / max(self.counts[j, a], 1), a))
            arm = order[0]
            taken.add(arm)
            self.last[j] = arm
            bits[j * self.n + arm] = 1
        return bits

    def observe(self, observed_loss):
        for j in range(self.k):
            self.sums[j, self.last[j]] += observed_loss
            self.counts[j, self.last[j]] += 1


class TestEmpiricalRegret:
    def test_hindsight_player_has_zero_regret(self):
        s = build_multitask(2, 2)
        cfg = make_adversary(s, T=8, seed_seq=0, sigma=0.0, epsilon=0.25)
        tr = run_game(FixedActionLearner(cfg.x_star), cfg, s)
        assert empirical_regret(tr, s) == 0.0

    def test_two_round_hand_instance(self):
        s = build_multitask(1, 2)
        cfg = make_adversary(s, T=2, seed_seq=0, sigma=0.0, epsilon=0.0)
        losses = LossTable(np.array([[1.0, 0.0], [1.0, 0.0]]), np.arange(2))
        coords = np.array([[0], [0]])
        observed = np.array([1.0, 1.0])
        tr = Transcript(coords, observed, losses, np.zeros(2), cfg, "hand")
        assert tr.coords.tolist() == [[0], [0]]
        # brute force over both actions: best is 01 with cumulative loss 0
        assert empirical_regret(tr, s) == 2.0

    def test_bounded_by_kT_and_nonnegative(self):
        s = build_multitask(3, 2)
        factory = AdversaryFactory(T=32, clipped=True, theorem4=True)
        for tr in replicate(LearnerSpec(kind="uniform"), factory, s, 10, seed=4):
            r = empirical_regret(tr, s)
            assert -1e-9 <= r <= 3 * 32

    def test_hindsight_best_is_planted_under_correlated_noise(self):
        # the shared draw cancels across actions, so x* minimizes hindsight
        s = build_multitask(3, 2)
        cfg = make_adversary(s, T=64, seed_seq=5)
        tr = run_game(UniformRandomLearner(), cfg, s, learner_seed=6)
        cum = np.sum(tr.losses.matrix(), axis=0)
        best = hindsight_best(tr.losses, s)
        x_star = np.flatnonzero(cfg.x_star)
        assert np.float64(best).tobytes() == round_loss(cum, x_star).tobytes()

    def test_hindsight_best_scores_without_the_matrix(self):
        rng = make_rng(13)
        for s in (build_multitask(3, 2), build_layered_path_graph(4, 8),
                  build_matching(3, 4)):
            losses = rng.random((16, s.dims.d))
            loss = hindsight_best(_dense(losses), s)
            assert s._matrix is None  # scoring needs only the active coords
            sums = round_loss(losses.sum(axis=0), s.active_coords())
            assert type(loss) is float and loss == sums.min()

    def test_cap_bounds_only_the_matching_oracle_states(self):
        losses = make_rng(14).random((8, 60))
        # C(12, 5) = 792 used-column states after row 5 of matching k=5 n=12
        s = MatchingSet(5, 12, cap=791)
        assert s.cardinality == 95040
        with pytest.raises(EnumerationCapExceeded, match="792 used-column states.*cap 791"):
            hindsight_best(_dense(losses), s)
        s = MatchingSet(5, 12, cap=792)
        hindsight_best(_dense(losses), s)
        assert s._active is None
        for s in (MultitaskSet(30, 2, cap=1), LayeredPathSet(20, 60, cap=1)):
            value = hindsight_best(_dense(losses), s)
            assert s._active is None
            first = np.flatnonzero(s.first_action())
            assert value <= round_loss(losses.sum(axis=0), first)

    def test_summarize_regret(self):
        s = build_multitask(2, 2)
        factory = AdversaryFactory(T=16, clipped=True, theorem4=True)
        trs = replicate(LearnerSpec(kind="uniform"), factory, s, 8, seed=7)
        summary = summarize_regret([t.record(s) for t in trs], bound_value=0.01)
        assert summary.reps == 8
        assert summary.mean == pytest.approx(
            np.mean([empirical_regret(t, s) for t in trs]))
        assert summary.exceeds_bound() in (True, False)

    def test_summary_carries_each_games_hindsight_best_loss(self):
        s = build_matching(2, 3)
        factory = AdversaryFactory(T=16, clipped=True, theorem4=True)
        trs = replicate(LearnerSpec(kind="round_robin"), factory, s, 4, seed=8)
        summary = summarize_regret(
            replicate(LearnerSpec(kind="round_robin"), factory, s, 4, seed=8,
                      records=True))
        assert summary.best_losses.tolist() == [
            hindsight_best(t.losses, s) for t in trs]
        assert summary.regrets.tolist() == [
            t.cumulative_loss() - hindsight_best(t.losses, s) for t in trs]

    def test_independent_noise_regret_may_be_negative(self):
        # an adaptive learner can beat every fixed action when coordinates
        # carry independent noise, so the floor does not apply there
        s = build_multitask(2, 2)
        spec = LearnerSpec(kind="exp3", baseline="mean", eta="exhibit",
                           gamma=0.1)
        factory = AdversaryFactory(T=64, noise_mode=NoiseMode.INDEPENDENT,
                                   clipped=True)
        summary = summarize_regret(replicate(spec, factory, s, 100, seed=3,
                                             records=True))
        assert summary.regrets.min() < -0.1

    def test_correlated_noise_regret_floor(self):
        s = build_multitask(2, 2)
        factory = AdversaryFactory(T=16, clipped=True, theorem4=True)
        tr = replicate(LearnerSpec(kind="uniform"), factory, s, 1, seed=7)[0]
        best = hindsight_best(tr.losses, s)
        below = tr.cumulative_loss() - best + 1e-6
        beaten = GameRecord(
            config=tr.config, learner_seed=None,
            cumulative_loss=float(np.sum(tr.observed - below / 16)),
            best_loss=best)
        with pytest.raises(AssertionError, match="floor"):
            summarize_regret([beaten])

    def test_summarize_regret_refuses_no_records(self):
        with pytest.raises(ValueError, match="^summarize_regret needs at "
                                             "least one game record$"):
            summarize_regret([])


def _mixed_cells():
    """Cells of every family, kind and noise mode, clipped and not; the
    33-rep EXP2 cell spans two lockstep blocks."""
    cor, ind = NoiseMode.CORRELATED, NoiseMode.INDEPENDENT
    grid = [
        (build_multitask(3, 2), 32, cor, True, "exp3", 3),
        (build_layered_path_graph(4, 8), 32, ind, True, "round_robin", 2),
        (build_matching(2, 3), 32, cor, False, "exp2", 4),
        (build_multitask(2, 2), 16, ind, False, "uniform", 3),
        (build_matching(2, 4), 32, cor, True, "exp2", 33),
        (build_layered_path_graph(4, 8), 32, cor, True, "fixed", 2),
        (build_multitask(2, 2), 16, ind, True, "exp3", 5),
    ]
    return [Cell(s, AdversaryFactory(T=T, noise_mode=mode, clipped=clipped),
                 LearnerSpec(kind=kind), reps=reps, seed=60 + i)
            for i, (s, T, mode, clipped, kind, reps) in enumerate(grid)]


def _record_key(rec):
    seed = rec.learner_seed
    return (rec.cumulative_loss.hex(), rec.best_loss.hex(),
            rec.config.describe(), seed and (seed.entropy, seed.spawn_key))


def _summary_key(summary):
    return (summary.regrets.tobytes(), summary.best_losses.tobytes(),
            summary.cumulative_losses.tobytes(), summary.mean.hex(),
            summary.std_error.hex(), summary.bound_value)


class TestCells:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_play_cells_is_replicate_and_summarize_per_cell(self, jobs, monkeypatch):
        opened = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                opened.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            CountingPool)
        cells = _mixed_cells()
        played = list(play_cells(cells, jobs))
        kept = list(play_cells(cells, jobs, records=False))
        # at most one pool per call, sized for the largest cell
        workers = engine._workers(jobs, 33)
        assert opened == ([workers] * 2 if workers > 1 else [])
        assert [c for c, _, _ in played] == [c for c, _, _ in kept] == cells
        for (cell, records, summary), (_, transcripts, whole) in zip(played, kept):
            s, factory = cell.action_set, cell.factory
            expected = replicate(cell.spec, factory, s, cell.reps, cell.seed,
                                 records=True)
            theorem4 = factory.clipped and factory.noise_mode is NoiseMode.CORRELATED
            bound = lower_bound_value(s.dims, factory.T) if theorem4 else None
            assert summary.bound_value == bound
            reference = _summary_key(summarize_regret(expected, bound))
            assert _summary_key(summary) == _summary_key(whole) == reference
            assert ([_record_key(r) for r in records]
                    == [_record_key(tr.record(s)) for tr in transcripts]
                    == [_record_key(r) for r in expected])
            assert cell.normalized(summary) == (
                summary.mean / math.sqrt(s.dims.d * factory.T))

    @pytest.mark.parametrize("build,error,message", [
        # the matching oracle's widest layer holds C(12, 5) = 792 states
        (lambda: Cell(MatchingSet(5, 12, cap=791),
                      AdversaryFactory(T=300, clipped=True),
                      LearnerSpec(kind="uniform"), reps=2, seed=1),
         EnumerationCapExceeded, "over the cap 791"),
        (lambda: Cell(build_multitask(4, 2), AdversaryFactory(T=16, theorem4=True),
                      LearnerSpec(kind="uniform"), reps=2, seed=1),
         ValueError, r"requires T >= k\*d = 32, got T=16"),
        (lambda: Cell(build_matching(2, 4), AdversaryFactory(T=64),
                      LearnerSpec(kind="exp3"), reps=2, seed=1),
         ValueError, "requires the multitask family"),
        (lambda: Cell(build_multitask(2, 2), AdversaryFactory(T=16),
                      LearnerSpec(kind="uniform"), reps=0, seed=1),
         ValueError, "reps must be >= 1"),
    ])
    def test_cell_refuses_before_any_draw(self, build, error, message, monkeypatch):
        monkeypatch.setattr(engine, "draw_losses",
                            lambda config: pytest.fail("drew losses"))
        with pytest.raises(error, match=message):
            build()


class TestLowerBoundValue:
    def test_clipped_form_hand_case(self):
        dims = build_multitask(4, 2).dims
        sigma = 1 / math.sqrt(192 + 96 * math.log(32))
        expect = sigma * 8 * 16 / 16  # k^{3/2}=8, sqrt(dT)=16
        got = lower_bound_value(dims, 32)
        assert got == pytest.approx(expect, abs=1e-15)
        assert got == pytest.approx(0.3493, abs=1e-3)

    def test_preconditions(self):
        dims = build_multitask(4, 2).dims
        with pytest.raises(ValueError, match="T >= k\\*d"):
            lower_bound_value(dims, 16)


class TestScalingFit:
    def test_exact_power_law(self):
        pts = [(k, 3 * k**1.5) for k in (2, 4, 8)]
        fit = scaling_fit(pts)
        assert fit.exponent == pytest.approx(1.5, abs=1e-12)
        assert fit.residual < 1e-24
        assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-12)

    def test_constant_points(self):
        fit = scaling_fit([(2, 5.0), (4, 5.0), (8, 5.0)])
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_noisy_linear_power(self):
        rng = np.random.default_rng(0)
        ks = np.array([2, 3, 4, 6, 8, 12])
        pts = [(k, 2.0 * k * math.exp(rng.normal(0, 0.01))) for k in ks]
        fit = scaling_fit(pts)
        assert 0.9 <= fit.exponent <= 1.1

    def test_validation(self):
        with pytest.raises(ValueError, match="3 distinct"):
            scaling_fit([(2, 1.0), (2, 2.0), (4, 3.0)])
        with pytest.raises(ValueError, match="positive"):
            scaling_fit([(2, 1.0), (4, 0.0), (8, 3.0)])


class TestGaussianKL:
    def test_zero_gap(self):
        assert gaussian_kl(0.0, 1.0) == 0.0

    def test_hand_case(self):
        # gap 0.1 with variance (k sigma)^2 = 1 at k=2, sigma=0.5
        assert gaussian_kl(0.1, (2 * 0.5) ** 2) == pytest.approx(0.005, abs=1e-15)

    @pytest.mark.parametrize("gap", [0.0, 0.01, 0.1, 1.0])
    @pytest.mark.parametrize("var", [0.01, 1.0, 25.0])
    def test_matches_quadrature(self, gap, var):
        s = math.sqrt(var)

        def integrand(x):
            return norm.pdf(x, 0, s) * (norm.logpdf(x, 0, s) - norm.logpdf(x, gap, s))

        numeric, err = quad(integrand, -12 * s, 12 * s + gap, limit=200)
        assert abs(gaussian_kl(gap, var) - numeric) < 1e-6

    def test_nonpositive_variance(self):
        with pytest.raises(ValueError):
            gaussian_kl(0.1, 0.0)


class TestPlayCountIdentities:
    def test_round_robin_partition_splits_evenly(self):
        # one task: the n planted arms share one law, so their counts sum to T
        s = build_multitask(1, 2)
        total, expected = verify_tj_row_identity(
            lambda st, T: RoundRobinLearner(), s, j=0, T=4)
        assert total == expected == 4

    def test_partition_always_sums_to_horizon(self):
        s = build_multitask(2, 3)
        for factory in (lambda st, T: RoundRobinLearner(), lambda st, T: GreedyProbe()):
            for j in (0, 1):
                total, expected = verify_tj_row_identity(factory, s, j=j, T=9)
                assert total == expected == 3 * 9

    def test_row_identity_exact_for_greedy(self):
        s = build_multitask(2, 2)
        total, expected = verify_tj_row_identity(
            lambda st, T: GreedyProbe(), s, j=0, T=8)
        assert total == expected == 2 * 8

    def test_row_identity_exact_for_round_robin(self):
        s = build_multitask(2, 2)
        total, expected = verify_tj_row_identity(
            lambda st, T: RoundRobinLearner(), s, j=1, T=8)
        assert total == expected

    def test_randomized_learner_rejected(self):
        s = build_multitask(2, 2)
        with pytest.raises(ValueError, match="deterministic"):
            verify_tj_row_identity(lambda st, T: UniformRandomLearner(), s, 0, 4)

    def test_ranking_bound_equality_for_loss_blind_learner(self):
        s = build_matching(1, 2)
        lhs, rhs = verify_ranking_tj_bound(lambda st, T: RoundRobinLearner(), s, j=0, T=4)
        assert rhs == 2.0
        assert lhs == pytest.approx(2.0, abs=1e-12)

    def test_ranking_bound_on_twelve_matchings(self):
        s = build_matching(2, 4)
        for factory in (lambda st, T: RoundRobinLearner(), lambda st, T: GreedyProbe()):
            lhs, rhs = verify_ranking_tj_bound(factory, s, j=0, T=8)
            assert lhs <= rhs + 1e-12
            assert rhs == pytest.approx(8 / 3, abs=1e-15)

    def test_ranking_bound_zero_horizon(self):
        s = build_matching(2, 4)
        lhs, rhs = verify_ranking_tj_bound(lambda st, T: RoundRobinLearner(), s, j=0, T=0)
        assert lhs == 0.0 and rhs == 0.0

    @pytest.mark.parametrize("check,set_class,k,n", [
        (verify_tj_row_identity, MultitaskSet, 4, 3),
        (verify_ranking_tj_bound, MatchingSet, 2, 4)], ids=["row", "ranking"])
    def test_over_cap_refuses_before_the_first_play(self, check, set_class, k, n):
        s = set_class(k, n, cap=10)
        built = []

        def factory(st, T):
            built.append(T)
            return FixedActionLearner(st.first_action())

        with pytest.raises(EnumerationCapExceeded, match="enumeration cap 10"):
            check(factory, s, j=0, T=8)
        assert built == []

    @pytest.mark.parametrize("set_class,k,n", [
        (MultitaskSet, 2, 2), (MultitaskSet, 3, 3),
        (MatchingSet, 2, 4), (MatchingSet, 3, 6)])
    def test_neutralized_law_is_the_correlated_law_without_block_j_gap(
            self, set_class, k, n, monkeypatch):
        # the table played, against the formula written out:
        # 1/2 - eps * x + sigma * Z_t, x the planted action with block j zeroed
        played = []
        monkeypatch.setattr(analysis, "play_losses",
                            lambda learner, s, losses: played.append(losses)
                            or (None, None))
        s = set_class(k, n)
        T, cases = 37, 0
        for choices in s._choices().tolist():
            for j in range(k):
                for seed in range(5):
                    _neutralized_play(lambda st, T: RoundRobinLearner(), s,
                                      choices, j, T, seed)
                    x = s._choices_to_bits(choices).astype(np.float64)
                    x[s._block_coords[j]] = 0.0
                    noise = 0.1 * standard_normals(make_rng(seed), (T,))
                    expected = 0.5 - 0.1 * x + noise[:, None]
                    assert played.pop().matrix().tobytes() == expected.tobytes()
                    cases += 1
        assert cases == s.cardinality * k * 5

    def test_ranking_requires_small_k(self):
        s = build_matching(3, 4)
        with pytest.raises(ValueError, match="n/2"):
            verify_ranking_tj_bound(lambda st, T: RoundRobinLearner(), s, j=0, T=4)


class TestClipEvent:
    def _theorem4_config(self, T=256):
        return AdversaryFactory(T=T, theorem4=True)(build_multitask(4, 2), 0)

    def test_no_events_at_schedule_sigma(self):
        # 10^4 games are needed for the 99% upper confidence limit at zero
        # events (1 - 0.01^(1/reps)) to fit under epsilon/8
        report = verify_clip_event(self._theorem4_config(), reps=10**4, seed=1)
        assert report.event_count == 0
        assert report.upper_conf_99 <= report.epsilon_over_8
        # analytic union bound collapses to e^-6 / T^2
        assert report.union_bound == pytest.approx(math.exp(-6) / 256**2, rel=1e-9)

    def test_corrupted_sigma_fails_the_check(self):
        from dataclasses import replace

        config = replace(self._theorem4_config(), sigma=10 * compute_sigma(256))
        report = verify_clip_event(config, reps=400, seed=2)
        assert report.event_count > 0
        assert report.upper_conf_99 > report.epsilon_over_8

    def test_event_rate_monotone_in_sigma(self):
        from dataclasses import replace

        base = self._theorem4_config()
        r1 = verify_clip_event(replace(base, sigma=0.08), reps=2000, seed=3)
        r2 = verify_clip_event(replace(base, sigma=0.16), reps=2000, seed=3)
        assert r2.frequency > r1.frequency

    def test_epsilon_above_quarter_fails_the_clip_suite(self, monkeypatch):
        from dataclasses import replace

        # the report counts the noise it drew, whatever the gap
        base = self._theorem4_config()
        assert (verify_clip_event(replace(base, epsilon=0.3), reps=100, seed=4)
                == replace(verify_clip_event(base, reps=100, seed=4),
                           epsilon_over_8=0.3 / 8))
        # the suite's epsilon gates decide: a gap over 1/4 fails at the game's
        monkeypatch.setattr("combandit.environments.compute_epsilon",
                            lambda *a: 0.3)
        assert run_suite("clip", 7) == (
            False, "FAIL clip: T=256 game epsilon 0.3 outside [-inf, 0.25]")

    @pytest.mark.parametrize("reps", [0, -3])
    def test_rejects_fewer_than_one_rep_before_drawing(self, reps, monkeypatch):
        monkeypatch.setattr("combandit.analysis.standard_normals",
                            lambda *a, **kw: pytest.fail("drew noise"))
        with pytest.raises(ValueError, match="reps must be at least 1"):
            verify_clip_event(self._theorem4_config(), reps=reps)


class TestVarianceReport:
    def test_correlated_target(self):
        s = build_multitask(4, 2)
        cfg = make_adversary(s, T=1, seed_seq=0, sigma=0.1, epsilon=0.0)
        rep = variance_report(cfg, s.enumerate_actions()[0], samples=10**5, seed=5)
        assert rep.target == pytest.approx(0.16, abs=1e-15)
        assert rep.relative_error < 0.05

    def test_independent_target(self):
        s = build_multitask(4, 2)
        cfg = make_adversary(s, T=1, seed_seq=0, sigma=0.1, epsilon=0.0,
                             noise_mode=NoiseMode.INDEPENDENT)
        rep = variance_report(cfg, s.enumerate_actions()[0], samples=10**5, seed=6)
        assert rep.target == pytest.approx(0.04, abs=1e-15)
        assert rep.relative_error < 0.05

    def test_zero_sigma_exact(self):
        s = build_multitask(4, 2)
        for mode in NoiseMode:
            cfg = make_adversary(s, T=1, seed_seq=0, sigma=0.0, epsilon=0.1,
                                 noise_mode=mode)
            rep = variance_report(cfg, s.enumerate_actions()[0], samples=100, seed=7)
            assert rep.estimate == 0.0

    def test_rejects_clipped_mode(self):
        s = build_multitask(2, 2)
        cfg = make_adversary(s, T=4, seed_seq=0, clipped=True)
        with pytest.raises(ValueError, match="unclipped"):
            variance_report(cfg, s.enumerate_actions()[0], samples=10)

    @pytest.mark.parametrize("samples", [1, 0])
    def test_rejects_fewer_than_two_samples_before_drawing(self, samples,
                                                           monkeypatch):
        monkeypatch.setattr("combandit.analysis.standard_normals",
                            lambda *a, **kw: pytest.fail("drew noise"))
        s = build_multitask(4, 2)
        cfg = make_adversary(s, T=1, seed_seq=0, sigma=0.1, epsilon=0.0)
        with pytest.raises(ValueError, match="samples must be at least 2"):
            variance_report(cfg, s.enumerate_actions()[0], samples=samples)


class TestPathReductionRegret:
    def test_path_and_multitask_regrets_agree_exactly(self):
        from combandit import draw_losses, make_rng
        from combandit.engine import play_losses

        graph = build_layered_path_graph(4, 16)
        image = graph.multitask_image()
        mt_cfg = make_adversary(image, T=64, seed_seq=9, clipped=True)
        mt_table, noise = draw_losses(mt_cfg)
        mt_losses = mt_table.matrix()
        edge_losses = shortest_path_losses(mt_losses, graph)

        edge_table = _dense(edge_losses)
        observed, coords = play_losses(UniformRandomLearner(), graph, edge_table,
                                       make_rng(10))
        path_cfg = make_adversary(graph, T=64, seed_seq=9, clipped=True)
        tr_path = Transcript(coords, observed, edge_table, noise, path_cfg, "u")
        paths = np.zeros((64, graph.dims.d), dtype=np.uint8)
        np.put_along_axis(paths, tr_path.coords.astype(np.intp), 1, axis=1)
        mapped = np.array([graph.path_to_multitask(a) for a in paths])
        mapped_observed = np.array([
            float(np.dot(mt_losses[t], mapped[t])) for t in range(64)])
        assert np.array_equal(observed, mapped_observed)

        mapped_coords = np.nonzero(mapped)[1].reshape(64, image.dims.k)
        tr_mt = Transcript(mapped_coords, mapped_observed, mt_table, noise,
                           mt_cfg, "u")
        assert np.array_equal(tr_mt.coords, mapped_coords)
        assert empirical_regret(tr_path, graph) == empirical_regret(tr_mt, image)

    def test_soundness_helper(self):
        s = build_multitask(2, 2)
        cfg = make_adversary(s, T=8, seed_seq=11)
        tr = run_game(UniformRandomLearner(), cfg, s, learner_seed=12)
        Transcript(tr.coords, tr.observed, tr.losses, tr.noise, cfg, "x")
        with pytest.raises(AssertionError, match="mismatch at round 1$"):
            Transcript(tr.coords, tr.observed + 1e-9, tr.losses,
                       tr.noise, cfg, "x")
