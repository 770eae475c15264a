"""Protocol enforcement, feedback soundness, obliviousness, and replication
plumbing of the game engine."""

import concurrent.futures
import functools
import io
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from combandit import (
    ActionSet,
    AdversaryFactory,
    EnumeratedExp2Learner,
    EnumerationCapExceeded,
    FixedActionLearner,
    GameProtocolError,
    Learner,
    LearnerSpec,
    LossTable,
    MultitaskSet,
    NoiseMode,
    PerTaskExp3Learner,
    RoundRobinLearner,
    Transcript,
    UniformRandomLearner,
    build_layered_path_graph,
    build_matching,
    build_multitask,
    draw_losses,
    hindsight_best,
    make_adversary,
    make_learner,
    make_rng,
    play_with_kernel,
    replicate,
    run_game,
)
from combandit import engine
from combandit._kernels import round_loss
from combandit.cli import main
from combandit.engine import play_losses
from combandit.learners import Exp2SingularError


class RogueLearner(Learner):
    """Plays the vector ``bad``, outside the action set, on round 2."""

    deterministic = True

    def __init__(self, bad):
        self.bad = np.array(bad)

    def start(self, action_set, horizon, rng):
        self.matrix = action_set.enumerate_actions()
        self.t = 0

    def choose(self):
        return self.bad if self.t == 1 else self.matrix[0]

    def observe(self, observed_loss):
        self.t += 1


def test_fixed_on_planted_optimum_sees_constant_loss():
    s = build_multitask(2, 2)
    cfg = make_adversary(s, T=8, seed_seq=0, sigma=0.0, epsilon=0.25)
    tr = run_game(FixedActionLearner(cfg.x_star), cfg, s)
    # k/2 - eps*k per round, exactly
    assert np.all(tr.observed == 1.0 - 0.25 * 2)


def test_fixed_overlap_decomposition():
    s = build_multitask(4, 2)
    cfg = make_adversary(s, T=32, seed_seq=3, sigma=0.2, epsilon=0.01)
    x = s.enumerate_actions()[5]
    overlap = int(np.dot(x.astype(int), cfg.x_star.astype(int)))
    tr = run_game(FixedActionLearner(x), cfg, s)
    k = s.dims.k
    expect = k / 2 - cfg.epsilon * overlap + k * tr.noise
    assert np.allclose(tr.observed, expect, atol=1e-12)


def test_round_robin_tj_split():
    s = build_multitask(1, 2)
    cfg = make_adversary(s, T=4, seed_seq=1)
    tr = run_game(RoundRobinLearner(), cfg, s)
    # alternation plays each arm twice whichever arm is planted
    assert np.bincount(tr.coords.ravel()).tolist() == [2, 2]


def test_feedback_soundness_and_one_arm_per_block():
    s = build_multitask(3, 2)
    cfg = make_adversary(s, T=16, seed_seq=2, clipped=True)
    tr = run_game(UniformRandomLearner(), cfg, s, learner_seed=10)
    assert tr.observed.tobytes() == round_loss(tr.losses.matrix(),
                                               tr.coords).tobytes()
    # round t's coordinate in block j is one of that block's two arms
    assert tr.coords.shape == (16, 3)
    assert (tr.coords // 2 == np.arange(3)).all()


def test_transcript_names_the_first_unsound_round():
    s = build_multitask(2, 2)
    cfg = make_adversary(s, T=6, seed_seq=2)
    tr = run_game(UniformRandomLearner(), cfg, s, learner_seed=3)
    rebuilt = Transcript(tr.coords, tr.observed, tr.losses, tr.noise,
                         cfg, "u")
    assert rebuilt.coords.tobytes() == tr.coords.tobytes()
    observed = tr.observed.copy()
    observed[[2, 4]] += 1e-9
    with pytest.raises(AssertionError, match="mismatch at round 3$"):
        Transcript(tr.coords, observed, tr.losses, tr.noise, cfg, "u")


@pytest.mark.parametrize("k,n,dtype", [
    (2, 2, np.int8), (2, 64, np.int8), (3, 43, np.int16), (2, 2**14, np.int16),
    (2, 2**14 + 1, np.int32),
])
def test_transcript_stores_narrow_signed_coordinates(k, n, dtype):
    # the narrowest signed type that holds d - 1: signed, so round_loss never
    # takes the stored coordinates for an incidence vector
    s = build_multitask(k, n)
    cfg = make_adversary(s, T=8, seed_seq=1)
    tr = run_game(LearnerSpec(kind="fixed"), cfg, s)
    assert tr.coords.dtype == dtype
    assert np.array_equal(tr.coords, np.tile(np.arange(0, k * n, n), (8, 1)))
    assert tr.observed.tobytes() == round_loss(tr.losses.matrix(),
                                               tr.coords).tobytes()


@pytest.mark.parametrize("row,why", [
    ([0, 4], "out of range"),
    ([-1, 2], "out of range"),
    ([1, 1], "repeated"),
    ([3, 0], "decreasing"),
])
def test_transcript_rejects_bad_coordinates(row, why):
    # k=2, d=4: a flat index past a row's end would alias into the next row
    s = build_multitask(2, 2)
    cfg = make_adversary(s, T=6, seed_seq=2)
    tr = run_game(RoundRobinLearner(), cfg, s)
    coords = tr.coords
    for t in (0, 3, 5):
        bad = coords.copy()
        bad[t] = row
        bad[t + 1:] = [2, 1]  # later bad rounds must not win
        message = (f"round {t + 1}: played coordinates {row} are not 2 "
                   f"increasing indices in [0, 4)")
        with pytest.raises(GameProtocolError, match=f"^{re.escape(message)}$"):
            Transcript(bad, tr.observed, tr.losses, tr.noise, cfg, why)


def _verdict(coords, tr, cfg):
    """The message a transcript of ``coords`` raises, or None if it is built."""
    try:
        Transcript(coords, None, tr.losses, tr.noise, cfg, "u")
    except GameProtocolError as exc:
        return str(exc)
    return None


def test_transcript_checks_each_row_not_across_rows():
    # k=2, d=6: a row may start below the last row's end
    s = build_multitask(2, 3)
    cfg = make_adversary(s, T=6, seed_seq=2)
    tr = run_game(RoundRobinLearner(), cfg, s)
    assert _verdict(np.tile([[0, 5], [1, 2]], (3, 1)), tr, cfg) is None


def test_transcript_rejects_a_repeat_in_the_last_pair():
    s = build_multitask(3, 2)
    cfg = make_adversary(s, T=6, seed_seq=2)
    tr = run_game(RoundRobinLearner(), cfg, s)
    bad = tr.coords.astype(np.int64)
    bad[-1] = [0, 4, 4]
    assert _verdict(bad, tr, cfg) == ("round 6: played coordinates [0, 4, 4] "
                                      "are not 3 increasing indices in [0, 6)")


def test_transcript_of_one_coordinate_per_round():
    s = build_multitask(1, 4)
    cfg = make_adversary(s, T=6, seed_seq=2)
    tr = run_game(RoundRobinLearner(), cfg, s)
    assert _verdict(np.array([[3], [2], [1], [0], [0], [3]]), tr, cfg) is None
    assert _verdict(np.array([[3], [2], [4], [0], [0], [3]]), tr, cfg) == (
        "round 3: played coordinates [4] are not 1 increasing indices in [0, 4)")


@pytest.mark.parametrize("row", [[1, 4], [2, 2], [4, 1], [-1, 3]])
def test_transcript_verdict_ignores_the_memory_layout(row):
    s = build_multitask(2, 3)
    cfg = make_adversary(s, T=6, seed_seq=2)
    tr = run_game(RoundRobinLearner(), cfg, s)
    coords = tr.coords.astype(np.int64)
    coords[4] = row
    wide = np.zeros((6, 4), dtype=np.int64)
    wide[:, ::2] = coords
    views = [wide[:, ::2], np.asfortranarray(coords),
             np.repeat(coords, 2, axis=0)[::2]]
    assert not any(v.flags.c_contiguous for v in views)
    for view in views:
        assert _verdict(view, tr, cfg) == _verdict(view.copy(), tr, cfg)
    assert _verdict(coords, tr, cfg) == (
        None if row == [1, 4] else
        f"round 5: played coordinates {row} are not 2 increasing indices "
        f"in [0, 6)")


def test_transcript_rejects_coordinates_of_the_wrong_shape():
    s = build_multitask(2, 2)
    cfg = make_adversary(s, T=6, seed_seq=2)
    tr = run_game(RoundRobinLearner(), cfg, s)
    coords = tr.coords
    incidence = np.zeros((6, 4), dtype=np.int64)  # (T, d), not (T, k)
    np.put_along_axis(incidence, coords.astype(np.intp), 1, axis=1)
    for bad in (coords[:5], coords[:, :1], coords.ravel(), incidence):
        with pytest.raises(GameProtocolError,
                           match=re.escape(f"shape {bad.shape}, expected (6, 2)")):
            Transcript(bad, tr.observed, tr.losses, tr.noise, cfg, "u")


def test_obliviousness_losses_do_not_depend_on_learner():
    s = build_multitask(2, 2)
    cfg = make_adversary(s, T=12, seed_seq=4)
    tr_a = run_game(UniformRandomLearner(), cfg, s, learner_seed=1)
    tr_b = run_game(FixedActionLearner(s.enumerate_actions()[0]), cfg, s)
    assert np.array_equal(tr_a.losses.matrix(), tr_b.losses.matrix())
    assert np.array_equal(tr_a.noise, tr_b.noise)


@pytest.mark.parametrize("bad", [
    [1, 1, 0, 0],  # two ones in the first block
    [2, 0, 1, 0],
    [0.5, 0, 1, 0],
], ids=["two-ones", "entry-2", "entry-half"])
def test_protocol_violation_aborts(bad):
    s = build_multitask(2, 2)
    cfg = make_adversary(s, T=4, seed_seq=5)
    with pytest.raises(GameProtocolError, match="round 2"):
        run_game(RogueLearner(bad), cfg, s)


def test_replicate_single_rep_matches_run_game():
    s = build_multitask(2, 2)
    factory = AdversaryFactory(T=16, clipped=True, theorem4=True)
    trs = replicate(LearnerSpec(kind="uniform"), factory, s, reps=1, seed=123)
    master = np.random.SeedSequence(123)
    env_seq, learner_seq = master.spawn(1)[0].spawn(2)
    cfg = factory(s, env_seq)
    spec = LearnerSpec(kind="uniform")
    for learner in (UniformRandomLearner(), spec):
        tr = run_game(learner, cfg, s, learner_seed=learner_seq)
        assert trs[0].coords.tobytes() == tr.coords.tobytes()
        assert trs[0].observed.tobytes() == tr.observed.tobytes()
        assert trs[0].losses.matrix().tobytes() == tr.losses.matrix().tobytes()
    assert tr.to_lines() == trs[0].to_lines()


def test_deterministic_spec_needs_no_seed():
    s = build_matching(2, 3)
    cfg = make_adversary(s, T=9, seed_seq=4)
    tr = run_game(LearnerSpec(kind="round_robin"), cfg, s)
    ref = run_game(RoundRobinLearner(), cfg, s)
    assert tr.coords.tobytes() == ref.coords.tobytes()
    assert tr.learner == "round_robin" and tr.learner_seed is None


@pytest.mark.parametrize("learner", [
    UniformRandomLearner(), PerTaskExp3Learner(0.1, 0.1),
    EnumeratedExp2Learner(0.1, 0.1), LearnerSpec(kind="uniform"),
], ids=["uniform", "exp3", "exp2", "uniform-spec"])
def test_randomized_learner_without_seed_fails_before_the_draw(learner,
                                                               monkeypatch):
    s = build_multitask(2, 2)
    cfg = make_adversary(s, T=4, seed_seq=0)
    drawn = []
    monkeypatch.setattr(engine, "draw_losses",
                        lambda config: drawn.append(config) or draw_losses(config))
    name = getattr(learner, "kind", type(learner).__name__)
    with pytest.raises(ValueError, match=f"learner {name} is randomized"):
        run_game(learner, cfg, s)
    assert drawn == []


def test_replications_resample_planted_optimum():
    s = build_multitask(2, 2)
    factory = AdversaryFactory(T=4)
    trs = replicate(LearnerSpec(kind="uniform"), factory, s, reps=24, seed=6)
    stars = {tuple(tr.config.x_star) for tr in trs}
    assert len(stars) >= 3  # collision of all 24 in one of 4 cells is absurd


@pytest.mark.parametrize("family", ["multitask", "path", "matching"])
def test_kernel_and_reference_paths_agree(family):
    s = {"multitask": lambda: build_multitask(3, 2),
         "path": lambda: build_layered_path_graph(4, 8),
         "matching": lambda: build_matching(2, 3)}[family]()
    factory = AdversaryFactory(T=32, clipped=True, theorem4=True)
    specs = [LearnerSpec(kind=kind)
             for kind in ("fixed", "uniform", "round_robin", "exp2")]
    if family == "multitask":
        specs += [LearnerSpec(kind="exp3", baseline=b)
                  for b in (None, 1.5, "mean")]
    for spec in specs:
        fast = replicate(spec, factory, s, reps=2, seed=77)
        ref = replicate(functools.partial(make_learner, spec), factory, s,
                        reps=2, seed=77)
        for a, b in zip(fast, ref):
            assert a.coords.tobytes() == b.coords.tobytes(), spec.describe()
            assert a.observed.tobytes() == b.observed.tobytes(), spec.describe()
    # a degenerate EXP2 loses rank mid-game: both paths name the same round
    singular = LearnerSpec(kind="exp2", eta=3.0, gamma=1e-14)
    lost_round = {"multitask": 10, "path": 13, "matching": 10}[family]
    for learner in (singular, functools.partial(make_learner, singular)):
        with pytest.raises(Exp2SingularError,
                           match=f"lost rank at round {lost_round};"):
            replicate(learner, AdversaryFactory(T=64), s, reps=2, seed=5)


KIND_FAMILIES = [(kind, family)
                 for kind in ("fixed", "uniform", "round_robin", "exp2")
                 for family in ("multitask", "path", "matching")]
KIND_FAMILIES.append(("exp3", "multitask"))  # exp3 plays multitask only


def _seed_key(seed_seq):
    return (seed_seq.entropy, seed_seq.spawn_key)


def _dense_best(tr, s):
    """The game's hindsight-best loss scored from its dense matrix, one
    table column per coordinate: the reference for the table's score."""
    matrix = tr.losses.matrix()
    return hindsight_best(LossTable(matrix, np.arange(matrix.shape[1])), s)


@pytest.mark.parametrize("kind,family", KIND_FAMILIES)
def test_records_score_as_their_transcripts(kind, family):
    s = {"multitask": lambda: build_multitask(3, 2),
         "path": lambda: build_layered_path_graph(4, 8),
         "matching": lambda: build_matching(2, 3)}[family]()
    spec, factory = LearnerSpec(kind=kind), AdversaryFactory(T=32, clipped=True)
    trs = replicate(spec, factory, s, reps=3, seed=41)
    records = replicate(spec, factory, s, reps=3, seed=41, records=True)
    assert len(records) == len(trs)
    for rec, tr in zip(records, trs):
        assert rec.cumulative_loss.hex() == tr.cumulative_loss().hex()
        assert rec.best_loss.hex() == _dense_best(tr, s).hex()
        assert (rec.config.dims, rec.config.T) == (tr.config.dims, tr.config.T)
        assert rec.config.describe() == tr.config.describe()
        assert _seed_key(rec.learner_seed) == _seed_key(tr.learner_seed)


@pytest.mark.parametrize("mode", list(NoiseMode))
@pytest.mark.parametrize("family", ["multitask", "path", "matching"])
def test_records_build_no_dense_matrix(family, mode, monkeypatch):
    # every reader of a game takes its loss table (the kernels, the
    # round-by-round path, the scoring and the transcript writer), so no
    # game builds its (T, d) matrix, whether it returns records or
    # transcripts
    s = {"multitask": lambda: build_multitask(3, 2),
         "path": lambda: build_layered_path_graph(4, 8),
         "matching": lambda: build_matching(2, 3)}[family]()
    factory = AdversaryFactory(T=32, noise_mode=mode, clipped=True)
    kinds = ["fixed", "uniform", "round_robin", "exp2"]
    if family == "multitask":
        kinds.append("exp3")
    for kind in kinds:
        spec = LearnerSpec(kind=kind)
        for learner in (spec, functools.partial(make_learner, spec)):
            trs = replicate(learner, factory, s, reps=3, seed=43)
            expected = [(tr.cumulative_loss().hex(), _dense_best(tr, s).hex())
                        for tr in trs]
            lines = [tr.to_lines() for tr in trs]
            with monkeypatch.context() as m:
                m.setattr(LossTable, "matrix",
                          lambda self: pytest.fail("built the dense matrix"))
                records = replicate(learner, factory, s, reps=3, seed=43,
                                    records=True)
                played = replicate(learner, factory, s, reps=3, seed=43)
                scores = [(tr.cumulative_loss().hex(),
                           hindsight_best(tr.losses, s).hex()) for tr in played]
                written = [tr.to_lines() for tr in played]
            assert [(rec.cumulative_loss.hex(), rec.best_loss.hex())
                    for rec in records] == expected, kind
            assert scores == expected, kind
            assert written == lines, kind


@pytest.mark.parametrize("family", ["multitask", "path", "matching", "cli"])
def test_no_game_builds_the_incidence_matrix(family, monkeypatch):
    # every game reads S as its (|S|, k) active-coordinate table: no
    # learner, on either path, and no check the CLI makes before its games
    # builds the dense (|S|, d) matrix
    monkeypatch.setattr(ActionSet, "enumerate_actions",
                        lambda self: pytest.fail("built the incidence matrix"))
    if family == "cli":
        for kind in ("round_robin", "exp2"):
            assert main(["simulate", "--family", "matching", "--k", "2",
                         "--n", "3", "--T", "32", "--clipped", "--learner",
                         kind, "--reps", "2", "--seed", "1"],
                        stdout=io.StringIO()) == 0
        return
    s = {"multitask": lambda: build_multitask(3, 2),
         "path": lambda: build_layered_path_graph(4, 8),
         "matching": lambda: build_matching(2, 3)}[family]()
    factory = AdversaryFactory(T=32, clipped=True)
    for kind in [kind for kind, fam in KIND_FAMILIES if fam == family]:
        spec = LearnerSpec(kind=kind)
        for learner in (spec, functools.partial(make_learner, spec)):
            for records in (True, False):
                assert len(replicate(learner, factory, s, reps=2, seed=47,
                                     records=records)) == 2


def _traced_peak(records, reps):
    s = build_layered_path_graph(4, 16)
    factory = AdversaryFactory(T=1024, clipped=True)
    tracemalloc.start()
    try:
        replicate(LearnerSpec(kind="uniform"), factory, s, reps=reps, seed=3,
                  records=records)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_records_free_each_games_losses():
    # one path game's dense (T, d) float64 losses: 1024 * 16 * 8 bytes
    losses = 1024 * 16 * 8
    # its (T, 2) loss table under correlated noise, which transcripts keep
    table = 1024 * 2 * 8
    _traced_peak(True, 1)  # warm every cache before measuring
    # records: 36 more games keep less than one more game's losses alive
    assert _traced_peak(True, 40) - _traced_peak(True, 4) < losses
    # transcripts keep every game's loss table
    assert _traced_peak(False, 40) - _traced_peak(False, 4) > 30 * table


def test_parallel_jobs_match_serial():
    s = build_multitask(2, 2)
    factory = AdversaryFactory(T=8)
    serial = replicate(LearnerSpec(kind="uniform"), factory, s, reps=4, seed=9)
    parallel = replicate(LearnerSpec(kind="uniform"), factory, s, reps=4, seed=9,
                         jobs=2)
    for a, b in zip(serial, parallel):
        assert a.coords.tobytes() == b.coords.tobytes()
        assert np.array_equal(a.observed, b.observed)


def test_reference_factory_runs_in_worker_processes():
    s = build_multitask(2, 2)
    factory = AdversaryFactory(T=8)
    make = functools.partial(make_learner, LearnerSpec(kind="exp3"))
    serial = replicate(make, factory, s, reps=4, seed=9)
    parallel = replicate(make, factory, s, reps=4, seed=9, jobs=2)
    for a, b in zip(serial, parallel):
        assert a.coords.tobytes() == b.coords.tobytes()
        assert np.array_equal(a.observed, b.observed)


def test_cap_travels_with_the_set_into_worker_processes():
    s = MultitaskSet(4, 3, cap=10)
    with pytest.raises(EnumerationCapExceeded, match="enumeration cap 10"):
        replicate(LearnerSpec(kind="round_robin"), AdversaryFactory(T=8), s,
                  reps=2, seed=9, jobs=2)


def test_reps_validation():
    s = build_multitask(2, 2)
    with pytest.raises(ValueError, match="reps"):
        replicate(LearnerSpec(kind="uniform"), AdversaryFactory(T=4), s, 0, 1)


def test_jobs_validation():
    s = build_multitask(2, 2)
    for jobs in (0, -2):
        with pytest.raises(ValueError, match="jobs"):
            replicate(LearnerSpec(kind="uniform"), AdversaryFactory(T=4), s, 2,
                      1, jobs=jobs)


class RecordingPool:
    """Stands in for the process pool: records its size and runs each task
    in this process, so no worker is ever started."""

    sizes: list = []
    chunksizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        self.chunksizes.append(chunksize)
        return map(fn, iterable)


def test_pool_never_outsizes_reps(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    s = build_multitask(2, 2)
    spec, factory = LearnerSpec(kind="uniform"), AdversaryFactory(T=8)
    serial = replicate(spec, factory, s, reps=3, seed=9)
    pooled = replicate(spec, factory, s, reps=3, seed=9, jobs=1000)
    replicate(spec, factory, s, reps=1, seed=9, jobs=1000)  # no pool at all
    replicate(spec, factory, s, reps=3, seed=9, jobs=2)
    assert RecordingPool.sizes == [3, 2]
    for a, b in zip(serial, pooled):
        assert a.coords.tobytes() == b.coords.tobytes()
    # nor the machine: a pool forks every worker at its first task (the
    # stand-in pool starts none), and an unknown CPU count plays serially
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pooled = replicate(spec, factory, s, reps=3, seed=9, jobs=5000)
    with engine.replication_pool(5000, 5000):
        pass
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    replicate(spec, factory, s, reps=3, seed=9, jobs=1000)
    assert RecordingPool.sizes == [3, 2, 2, 2]
    for a, b in zip(serial, pooled):
        assert a.coords.tobytes() == b.coords.tobytes()


def test_pooled_chunks_are_ceil_reps_over_workers(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "chunksizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    s = build_multitask(2, 2)
    spec, factory = LearnerSpec(kind="uniform"), AdversaryFactory(T=8)
    for reps, jobs in ((3, 1000), (5, 2)):
        serial = replicate(spec, factory, s, reps=reps, seed=9, records=True)
        pooled = replicate(spec, factory, s, reps=reps, seed=9, jobs=jobs,
                           records=True)
        assert [(r.config.describe(), r.cumulative_loss, r.best_loss)
                for r in pooled] == [(r.config.describe(), r.cumulative_loss,
                                      r.best_loss) for r in serial]
    assert RecordingPool.sizes == [3, 2]
    assert RecordingPool.chunksizes == [1, 3]


@pytest.mark.parametrize("reps, workers, most, sizes", [
    (1, 1, 32, [1]),
    (40, 1, 32, [20, 20]),
    (400, 1, 32, [31] * 12 + [28]),
    (400, 2, 32, [29] * 13 + [23]),  # 7 blocks per worker: 203 and 197
    (5, 2, 32, [3, 2]),
    (5, 2, 1, [1] * 5),  # outside lockstep, one seed per block
])
def test_blocks_are_contiguous_and_split_evenly_over_workers(reps, workers,
                                                            most, sizes):
    seeds = list(range(reps))
    blocks = engine._blocks(seeds, workers, most)
    assert [len(block) for block in blocks] == sizes
    assert [seed for block in blocks for seed in block] == seeds
    assert engine.BLOCK == 32


def test_adaptive_pooled_chunks_are_blocks(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "chunksizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    s = build_multitask(2, 2)
    spec, factory = LearnerSpec(kind="exp3"), AdversaryFactory(T=8)
    serial = replicate(spec, factory, s, reps=5, seed=9)
    pooled = replicate(spec, factory, s, reps=5, seed=9, jobs=2)
    # blocks of 3 and 2 replications, one pool.map task each
    assert RecordingPool.sizes == [2]
    assert RecordingPool.chunksizes == [1]
    for a, b in zip(serial, pooled):
        assert a.coords.tobytes() == b.coords.tobytes()
        assert a.observed.tobytes() == b.observed.tobytes()


def test_shared_pool_serves_every_call(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    s = build_multitask(2, 2)
    spec, factory = LearnerSpec(kind="uniform"), AdversaryFactory(T=8)
    serial = replicate(spec, factory, s, reps=3, seed=9)
    with engine.replication_pool(2, 3) as pool:
        for _ in range(3):
            shared = replicate(spec, factory, s, reps=3, seed=9, jobs=2,
                               pool=pool)
            for a, b in zip(serial, shared):
                assert a.coords.tobytes() == b.coords.tobytes()
    assert RecordingPool.sizes == [2]
    with engine.replication_pool(4, 1) as pool:
        assert pool is None


def test_factory_owns_the_construction_rule():
    # theorem4 and the clipped correlated construction are one thing
    for factory in (AdversaryFactory(T=256, theorem4=True),
                    AdversaryFactory(T=256, clipped=True)):
        assert factory.clipped and factory.theorem4
        config = factory(build_multitask(4, 2), 0)
        assert config.clipped and config.noise_mode is NoiseMode.CORRELATED
    independent = AdversaryFactory(T=256, noise_mode=NoiseMode.INDEPENDENT,
                                   clipped=True)
    assert independent.clipped and not independent.theorem4
    assert not AdversaryFactory(T=256).clipped
    with pytest.raises(ValueError, match="independent"):
        AdversaryFactory(T=256, theorem4=True,
                         noise_mode=NoiseMode.INDEPENDENT)
    # a clipped correlated factory checks T >= k*d like theorem4 does
    with pytest.raises(ValueError, match="requires T >= k\\*d = 32"):
        AdversaryFactory(T=16, clipped=True)(build_multitask(4, 2), 0)
    # check meets the same refusal without building an adversary
    with pytest.raises(ValueError, match="requires T >= k\\*d = 32, got T=16$"):
        AdversaryFactory(T=16, clipped=True).check(build_multitask(4, 2))
    AdversaryFactory(T=32, clipped=True).check(build_multitask(4, 2))
    AdversaryFactory(T=16, noise_mode=NoiseMode.INDEPENDENT,
                     clipped=True).check(build_multitask(4, 2))


def test_factory_converts_and_checks_its_fields_where_it_is_built():
    # a noise mode's value converts, and the construction rule sees it
    factory = AdversaryFactory(T=64, noise_mode="CorrelatedGaussian",
                               clipped=True)
    assert factory.noise_mode is NoiseMode.CORRELATED
    assert factory.theorem4 is True
    with pytest.raises(ValueError, match="'correlated' is not a valid"):
        AdversaryFactory(T=64, noise_mode="correlated", clipped=True)
    with pytest.raises(ValueError, match="^horizon must be >= 1, got 0$"):
        AdversaryFactory(T=0)


def test_desk_scale_replication_budget():
    import time

    s = build_multitask(2, 2)
    factory = AdversaryFactory(T=64, clipped=True, theorem4=True)
    start = time.perf_counter()
    trs = replicate(LearnerSpec(kind="uniform"), factory, s, reps=200, seed=15)
    assert len(trs) == 200
    assert time.perf_counter() - start < 60.0


def test_transcript_lines():
    s = build_multitask(2, 2)
    cfg = make_adversary(s, T=3, seed_seq=8)
    tr = run_game(RoundRobinLearner(), cfg, s)
    lines = tr.to_lines()
    assert len(lines) == 3 + 3
    assert lines[0].startswith("# combandit transcript")
    assert "family=multitask" in lines[1]
    t, action, lam, z, hidden = lines[3].split("\t")
    assert t == "1" and set(action) <= {"0", "1"}
    assert float(lam) == tr.observed[0]
    assert float(z) == tr.noise[0]
    row = np.array([float(v) for v in hidden.split(",")])
    assert np.array_equal(row, tr.losses.matrix()[0])


def test_transcript_headers_tell_replications_apart_and_replay():
    s = build_multitask(2, 2)
    trs = replicate(LearnerSpec(kind="uniform"), AdversaryFactory(T=6), s,
                    reps=3, seed=5)
    headers = [dict(f.split("=", 1) for f in tr.to_lines()[2].split())
               for tr in trs]
    # the planted optimum may repeat across replications; the key may not
    assert len({fields["spawn_key"] for fields in headers}) == 3
    for tr, fields in zip(trs, headers):
        assert fields["seed"] == "5"
        key = tuple(int(v) for v in fields["spawn_key"].split(","))
        seed = np.random.SeedSequence(int(fields["seed"]), spawn_key=key)
        losses, noise = draw_losses(replace(tr.config, seed=seed))
        assert losses.matrix().tobytes() == tr.losses.matrix().tobytes()
        assert noise.tobytes() == tr.noise.tobytes()
        # the learner's stream replays the recorded actions
        game = dict(f.split("=", 1) for f in tr.to_lines()[1].split())
        key = tuple(int(v) for v in game["learner_spawn_key"].split(","))
        seed = np.random.SeedSequence(int(game["learner_seed"]), spawn_key=key)
        observed, (coords,) = play_with_kernel(LearnerSpec(kind="uniform"), s,
                                               losses, [make_rng(seed)])
        assert observed is None  # uniform play consumes no feedback
        assert np.array_equal(coords, tr.coords)
        assert round_loss(tr.losses.matrix(), coords).tobytes() == \
            tr.observed.tobytes()


def test_transcript_headers_rebuild_sequence_entropy_seeds():
    # entropy given as a list must not break the space-separated fields
    s = build_multitask(2, 2)
    cfg = make_adversary(s, T=4, seed_seq=[1, 2])
    tr = run_game(UniformRandomLearner(), cfg, s, learner_seed=[3, 4])
    lines = tr.to_lines()
    game = dict(f.split("=", 1) for f in lines[1].split())
    noise = dict(f.split("=", 1) for f in lines[2].split())
    assert game["learner_seed"] == "3,4" and noise["seed"] == "1,2"
    seed = np.random.SeedSequence([int(v) for v in game["learner_seed"].split(",")])
    replayed = run_game(UniformRandomLearner(), cfg, s, learner_seed=seed)
    assert replayed.coords.tobytes() == tr.coords.tobytes()


def test_independent_mode_transcript_omits_scalar_noise():
    s = build_multitask(2, 2)
    cfg = make_adversary(s, T=2, seed_seq=8, noise_mode=NoiseMode.INDEPENDENT)
    tr = run_game(RoundRobinLearner(), cfg, s)
    assert tr.to_lines()[3].split("\t")[3] == ""


def test_config_converts_an_int_seed():
    # an int seed is the SeedSequence it names, in the header and the game
    s = build_multitask(2, 2)
    cfg = make_adversary(s, T=5, seed_seq=8)
    by_int, by_seq = (replace(cfg, seed=seed)
                      for seed in (5, np.random.SeedSequence(5)))
    assert isinstance(by_int.seed, np.random.SeedSequence)
    assert by_int.describe() == by_seq.describe()
    lines = [run_game(RoundRobinLearner(), c, s).to_lines()
             for c in (by_int, by_seq)]
    assert lines[0] == lines[1]


def test_play_losses_against_explicit_matrix():
    s = build_multitask(1, 2)
    losses = LossTable(np.array([[1.0, 0.0], [1.0, 0.0]]), np.arange(2))
    observed, coords = play_losses(FixedActionLearner(np.array([1, 0])), s, losses)
    assert observed.tolist() == [1.0, 1.0]
    assert coords.tolist() == [[0], [0]]


def test_dims_mismatch_rejected():
    s = build_multitask(2, 2)
    other = build_multitask(2, 3)
    cfg = make_adversary(other, T=4, seed_seq=0)
    with pytest.raises(ValueError, match="dimensions"):
        run_game(UniformRandomLearner(), cfg, s, learner_seed=0)
