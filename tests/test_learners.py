"""Learner behavior: closed-form regrets for the non-adaptive baselines,
simplex invariants and estimator unbiasedness for the weighted ones."""

import math

import numpy as np
import pytest

from combandit import (
    ActionSetError,
    AdversaryFactory,
    EnumeratedExp2Learner,
    EnumerationCapExceeded,
    Exp2SingularError,
    FixedActionLearner,
    LearnerSpec,
    LossTable,
    MultitaskSet,
    PerTaskExp3Learner,
    build_layered_path_graph,
    build_matching,
    build_multitask,
    compute_sigma,
    default_eta,
    default_gamma,
    draw_losses,
    empirical_regret,
    make_adversary,
    make_learner,
    make_rng,
    play_with_kernel,
    replicate,
    run_game,
)
from combandit._kernels import _mixed_weights
from combandit.learners import ADAPTIVE_KINDS, exhibit_eta


class TestFixedAction:
    def test_zero_overlap_regret_is_eps_k_T(self):
        s = build_multitask(2, 2)
        cfg = make_adversary(s, T=8, seed_seq=0, sigma=0.0, epsilon=0.25)
        complement = 1 - cfg.x_star
        tr = run_game(FixedActionLearner(complement), cfg, s)
        assert empirical_regret(tr, s) == 0.25 * 2 * 8

    def test_playing_hindsight_best_gives_zero_regret(self):
        s = build_multitask(2, 2)
        cfg = make_adversary(s, T=8, seed_seq=1, sigma=0.0, epsilon=0.25)
        tr = run_game(FixedActionLearner(cfg.x_star), cfg, s)
        assert empirical_regret(tr, s) == 0.0

    def test_membership_enforced(self):
        s = build_multitask(2, 2)
        cfg = make_adversary(s, T=2, seed_seq=2)
        bad = np.array([1, 1, 0, 0], dtype=np.uint8)
        with pytest.raises(ActionSetError):
            run_game(FixedActionLearner(bad), cfg, s)

    def test_default_action_needs_no_enumeration(self):
        s = MultitaskSet(32, 2, cap=10)
        learner = make_learner(LearnerSpec(kind="fixed"), s, horizon=4)
        learner.start(s, horizon=4, rng=make_rng(0))
        assert s._matrix is None and s._active is None
        assert learner.choose().tolist() == [1, 0] * 32

    def test_transcript_length(self):
        s = build_multitask(2, 2)
        cfg = make_adversary(s, T=5, seed_seq=3)
        tr = run_game(FixedActionLearner(cfg.x_star), cfg, s)
        assert tr.horizon == 5


class TestUniformRandom:
    def test_noiseless_mean_regret_matches_closed_form(self):
        # expected regret eps*k*T*(1 - 1/n): each planted arm matched w.p. 1/n
        s = build_multitask(2, 3)
        eps, T, reps = 0.2, 60, 400

        def factory(action_set, seed_seq):
            return make_adversary(action_set, T, seed_seq, sigma=0.0,
                                  epsilon=eps)

        trs = replicate(LearnerSpec(kind="uniform"), factory, s, reps, seed=11)
        regrets = np.array([empirical_regret(tr, s) for tr in trs])
        closed = eps * 2 * T * (1 - 1 / 3)
        se = regrets.std(ddof=1) / math.sqrt(reps)
        assert abs(regrets.mean() - closed) < 3 * se + 1e-12

    def test_theorem4_schedule_closed_form_identity(self):
        # eps*k*T*(1-1/n) with eps = sigma*sqrt(kd/4T) and d = kn equals
        # (sigma/2)(1-1/n) k^{3/2} sqrt(dT)
        for k, n, T in ((2, 2, 64), (4, 2, 256), (3, 4, 1000)):
            sigma = compute_sigma(T)
            d = k * n
            eps = sigma * math.sqrt(k * d / (4 * T))
            lhs = eps * k * T * (1 - 1 / n)
            rhs = (sigma / 2) * (1 - 1 / n) * k**1.5 * math.sqrt(d * T)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestPerTaskExp3:
    def _started(self, eta, gamma, baseline=None, k=2, n=2):
        learner = PerTaskExp3Learner(eta, gamma, baseline)
        learner.start(build_multitask(k, n), horizon=16, rng=make_rng(0))
        return learner

    @staticmethod
    def _task_probs(learner, j):
        """Task j's play distribution at the learner's current weights."""
        return np.array(_mixed_weights(learner.cum_est[j], learner.eta,
                                       learner.gamma))

    @staticmethod
    def _chosen(learner):
        """Each task's chosen arm and its probability in the last round."""
        return learner.arms, [p[a] for p, a in zip(learner.probs, learner.arms)]

    def test_full_exploration_is_uniform(self):
        learner = self._started(eta=0.5, gamma=1.0)
        learner.cum_est[0] = [5.0, -3.0]
        assert np.allclose(self._task_probs(learner, 0), 0.5, atol=1e-15)

    def test_zero_rate_keeps_uniform_weights(self):
        learner = self._started(eta=0.0, gamma=0.0)
        learner.cum_est[0] = [5.0, -3.0]
        assert np.allclose(self._task_probs(learner, 0), 0.5, atol=1e-15)

    def test_surrogate_feeds_chosen_arm_only(self):
        learner = self._started(eta=0.5, gamma=0.2)
        learner.choose()
        chosen, probs = self._chosen(learner)
        learner.observe(1.7)
        cum_est = learner.cum_est
        for j in range(2):
            expect = 1.7 / (2 * probs[j])
            assert cum_est[j][chosen[j]] == expect
            other = 1 - chosen[j]
            assert cum_est[j][other] == 0.0

    def test_running_mean_baseline_centers_updates(self):
        learner = self._started(eta=0.5, gamma=0.2, baseline="mean")
        cum_est = learner.cum_est
        learner.choose()
        chosen0, probs0 = self._chosen(learner)
        learner.observe(1.25)  # first round: baseline is the prior k/2 = 1
        assert cum_est[0][chosen0[0]] == (1.25 - 1.0) / (2 * probs0[0])
        learner.choose()
        chosen1, probs1 = self._chosen(learner)
        before = cum_est[0][chosen1[0]]
        learner.observe(0.75)  # baseline is now the mean of past observations
        expect = before + (0.75 - 1.25) / (2 * probs1[0])
        assert cum_est[0][chosen1[0]] == pytest.approx(expect, abs=1e-15)

    def test_simplex_invariant_through_a_game(self):
        s = build_multitask(3, 4)
        cfg = make_adversary(s, T=64, seed_seq=4, clipped=True)
        learner = PerTaskExp3Learner(eta=0.8, gamma=0.05)
        run_game(learner, cfg, s, learner_seed=5)
        for j in range(3):
            probs = self._task_probs(learner, j)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert (probs > 0).all()

    def test_extreme_weights_stay_finite(self):
        learner = self._started(eta=1.0, gamma=0.1)
        learner.cum_est[0] = [0.0, 1e6]
        probs = self._task_probs(learner, 0)
        assert np.isfinite(probs).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_requires_multitask_family(self):
        learner = PerTaskExp3Learner(0.1, 0.1)
        with pytest.raises(ActionSetError, match="multitask"):
            learner.start(build_matching(2, 3), horizon=4, rng=make_rng(0))

    def test_all_exploration_matches_uniform_frequencies(self):
        s = build_multitask(1, 4)
        cfg = make_adversary(s, T=4000, seed_seq=6, clipped=True)
        learner = PerTaskExp3Learner(eta=0.7, gamma=1.0)
        tr = run_game(learner, cfg, s, learner_seed=7)
        freqs = np.bincount(tr.coords.ravel(), minlength=4) / 4000
        assert np.all(np.abs(freqs - 0.25) < 3 * math.sqrt(0.25 * 0.75 / 4000))

    def test_long_horizon_regret_between_bound_and_ceiling(self):
        from combandit import lower_bound_value

        s = build_multitask(1, 2)
        T, reps = 10**4, 100
        factory = AdversaryFactory(T=T, clipped=True, theorem4=True)
        trs = replicate(LearnerSpec(kind="exp3"), factory, s, reps, seed=14)
        regrets = np.array([empirical_regret(tr, s) for tr in trs])
        mean = regrets.mean()
        assert np.isfinite(mean)
        assert mean < 1 * T  # trivial k*T ceiling
        assert mean > lower_bound_value(s.dims, T)


class TestEnumeratedExp2:
    @staticmethod
    def _probs(learner):
        """The play distribution at the learner's current weights."""
        return np.array(_mixed_weights(learner.cum_est[0], learner.eta,
                                       learner.gamma))

    def test_estimator_unbiased_on_span(self):
        s = build_multitask(2, 2)
        learner = EnumeratedExp2Learner(eta=0.3, gamma=0.25)
        learner.start(s, horizon=8, rng=make_rng(8))
        # non-uniform weights
        learner.cum_est[0] = make_rng(9).random(4).tolist()
        learner.act([0.5])
        probs = np.array(learner.probs[0])
        assert probs.tobytes() == self._probs(learner).tobytes()
        matrix = s.enumerate_actions().astype(np.float64)
        loss = np.array([0.9, 0.1, 0.4, 0.7])
        averaged = np.zeros(4)
        for a in range(4):
            lam = float(matrix[a] @ loss)
            averaged += probs[a] * learner.estimates([probs], [a], [lam])[0]
        # span(S) contains every action, so projection is exact on actions
        assert np.allclose(averaged, matrix @ loss, atol=1e-10)

    def test_degenerate_tuning_is_uniform(self):
        s = build_multitask(2, 2)
        learner = EnumeratedExp2Learner(eta=0.0, gamma=1.0)
        learner.start(s, horizon=4, rng=make_rng(0))
        learner.cum_est[0] = [9.0, -1.0, 0.0, 3.0]
        assert np.allclose(self._probs(learner), 0.25, atol=1e-15)

    def test_simplex_invariant_through_a_game(self):
        s = build_multitask(2, 3)
        cfg = make_adversary(s, T=48, seed_seq=10, clipped=True)
        learner = EnumeratedExp2Learner(eta=0.5, gamma=0.1)
        run_game(learner, cfg, s, learner_seed=11)
        probs = self._probs(learner)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert (probs > 0).all()

    def test_span_rank_is_the_rank_of_the_incidence_matrix(self):
        # span_rank counts the rank of S^T S from the active-coordinate
        # table; it must be the rank of the dense 0/1 matrix on every small
        # set of every family
        sets = ([build_multitask(k, n) for k in range(1, 7) for n in range(2, 9)]
                + [build_matching(k, n) for n in range(1, 10)
                   for k in range(1, n + 1)]
                + [build_layered_path_graph(k, k * fan) for k in range(2, 11, 2)
                   for fan in range(2, 8)])
        sets = [s for s in sets if s.cardinality <= 10**4]
        assert len(sets) == 102
        for s in sets:
            learner = EnumeratedExp2Learner(eta=0.1, gamma=0.1)
            learner.start(s, horizon=4, rng=make_rng(0))
            assert learner.span_rank == np.linalg.matrix_rank(
                s.enumerate_actions()), s.describe()

    def test_cap_exceeded(self):
        s = build_multitask(10, 4)
        learner = EnumeratedExp2Learner(eta=0.1, gamma=0.1)
        with pytest.raises(EnumerationCapExceeded):
            learner.start(s, horizon=4, rng=make_rng(0))

    def test_singular_second_moment_raises(self):
        # gamma = 0 with weights collapsed on one action: rank-1 moment matrix
        s = build_multitask(2, 2)
        learner = EnumeratedExp2Learner(eta=1.0, gamma=0.0)
        learner.start(s, horizon=4, rng=make_rng(0))
        learner.cum_est[0] = [0.0, 1e9, 1e9, 1e9]
        assert learner.choose().tolist() == s.enumerate_actions()[0].tolist()
        with pytest.raises(Exp2SingularError):
            learner.observe(0.5)


class TestTuning:
    def test_default_formulas(self):
        s = build_multitask(2, 2)
        assert default_eta(s, 16) == pytest.approx(
            math.sqrt(math.log(4) / (16 * 4)), abs=1e-15)
        assert default_gamma(s, 16) == pytest.approx(0.5, abs=1e-15)
        assert default_gamma(s, 400) == pytest.approx(0.1, abs=1e-15)

    def test_exhibit_eta_formula(self):
        s = build_multitask(4, 2)
        T = 256
        expect = 4 / compute_sigma(T) * math.sqrt(math.log(2) / T)
        assert exhibit_eta(s, T) == pytest.approx(expect, abs=1e-15)

    def test_spec_binding_and_describe(self):
        s = build_multitask(2, 2)
        spec = LearnerSpec(kind="exp3", baseline="mean", eta="exhibit")
        eta, gamma = spec.bind(s, 64)
        assert eta == pytest.approx(exhibit_eta(s, 64), abs=1e-15)
        assert spec.describe() == "exp3[b=mean][eta=exhibit]"
        plain = LearnerSpec(kind="exp3", eta=0.2, gamma=0.3)
        assert plain.bind(s, 64) == (0.2, 0.3)
        assert plain.describe() == "exp3"

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LearnerSpec(kind="bogus")
        with pytest.raises(ValueError):
            LearnerSpec(kind="exp3", gamma=1.5)
        with pytest.raises(ValueError):
            LearnerSpec(kind="exp3", eta=-1.0)
        with pytest.raises(ValueError):
            LearnerSpec(kind="exp3", baseline="median")
        with pytest.raises(ValueError, match="eta must be a number or 'exhibit'"):
            LearnerSpec(kind="exp3", eta="bogus")

    @pytest.mark.parametrize("fields,message", [
        ({"kind": "uniform", "eta": 0.3}, "eta applies only to exp3 and exp2"),
        ({"kind": "fixed", "gamma": 0.3}, "gamma applies only to exp3 and exp2"),
        ({"kind": "round_robin", "eta": "exhibit"},
         "eta applies only to exp3 and exp2"),
        ({"kind": "uniform", "baseline": "mean"}, "baseline applies only to exp3"),
        ({"kind": "exp2", "baseline": 0.5}, "baseline applies only to exp3"),
    ])
    def test_spec_takes_only_what_its_kind_reads(self, fields, message):
        with pytest.raises(ValueError, match=message):
            LearnerSpec(**fields)

    def test_spec_binds_nothing_for_non_adaptive_kinds(self):
        s = build_multitask(2, 2)
        for kind in ("fixed", "uniform", "round_robin"):
            assert LearnerSpec(kind=kind).bind(s, 64) == (None, None)
        for kind in ADAPTIVE_KINDS:
            eta, gamma = LearnerSpec(kind=kind, gamma=0.3).bind(s, 64)
            assert eta == default_eta(s, 64) and gamma == 0.3
        exp2 = LearnerSpec(kind="exp2", eta="exhibit")
        assert exp2.bind(s, 64)[0] == exhibit_eta(s, 64)

    @pytest.mark.parametrize("baseline", [math.nan, math.inf, -math.inf])
    def test_spec_rejects_non_finite_baseline(self, baseline):
        with pytest.raises(ValueError, match="baseline"):
            LearnerSpec(kind="exp3", baseline=baseline)

    def test_make_learner_dispatch(self):
        s = build_multitask(2, 2)
        for kind in ("fixed", "uniform", "round_robin", "exp3", "exp2"):
            learner = make_learner(LearnerSpec(kind=kind), s, horizon=8)
            assert learner is not None

    def test_kernel_path_runs_the_learners_setup_checks(self):
        with pytest.raises(ActionSetError, match="multitask"):
            replicate(LearnerSpec(kind="exp3"), AdversaryFactory(T=4),
                      build_matching(2, 3), reps=1, seed=0)


@pytest.mark.parametrize("family", ["multitask", "path", "matching"])
@pytest.mark.parametrize("kind", ["fixed", "uniform", "round_robin"])
def test_non_adaptive_block_plays_each_game_as_alone(kind, family):
    s = {"multitask": lambda: build_multitask(3, 2),
         "path": lambda: build_layered_path_graph(4, 8),
         "matching": lambda: build_matching(2, 3)}[family]()
    spec = LearnerSpec(kind=kind)
    tables = [draw_losses(make_adversary(s, T=12, seed_seq=i))[0]
              for i in range(3)]
    observed, coords = play_with_kernel(spec, s, LossTable.side_by_side(tables),
                                        [make_rng(seed) for seed in (1, 2, 3)])
    assert observed is None and len(coords) == 3
    for game, table, seed in zip(coords, tables, (1, 2, 3)):
        alone_observed, (alone,) = play_with_kernel(spec, s, table,
                                                    [make_rng(seed)])
        assert alone_observed is None
        assert game.tobytes() == alone.tobytes()
