"""CLI surface: subcommands, exact CSV schema, byte determinism, and error
exits."""

import concurrent.futures
import io
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import combandit
from combandit import _kernels, analysis, cli, engine, environments, learners
from combandit.action_sets import ActionSet
from combandit.cli import CSV_HEADER, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, stdout=out)
    return code, out.getvalue()


def fresh_interpreter_env():
    """The environment of a child interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(combandit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_cli_expect_exit(argv):
    out = io.StringIO()
    with pytest.raises(SystemExit) as info:
        main(argv, stdout=out)
    return info.value.code


class TestEnumerate:
    def test_multitask_four_lines(self):
        code, text = run_cli(["enumerate", "--family", "multitask",
                              "--k", "2", "--n", "2"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "family=multitask d=4 k=2 n=2 cardinality=4"
        assert lines[1:] == ["1010", "1001", "0110", "0101"]

    def test_matching_six_lines(self):
        code, text = run_cli(["enumerate", "--family", "matching",
                              "--k", "2", "--n", "3"])
        assert code == 0
        assert len(text.strip().splitlines()) == 1 + 6

    def test_path_four_lines_four_ones(self):
        code, text = run_cli(["enumerate", "--family", "path",
                              "--k", "4", "--d", "8"])
        assert code == 0
        action_lines = text.strip().splitlines()[1:]
        assert len(action_lines) == 4
        assert all(line.count("1") == 4 for line in action_lines)

    def test_inadmissible_dims_exit(self):
        assert run_cli_expect_exit(["enumerate", "--family", "path",
                                    "--k", "3", "--d", "12"]) == 2

    def test_over_cap_prints_cardinality_only(self):
        code, text = run_cli(["enumerate", "--family", "multitask",
                              "--k", "10", "--n", "4", "--cap", "1000"])
        assert code == 0
        assert "1048576" in text
        assert len(text.strip().splitlines()) == 2


class TestSimulate:
    BASE = ["simulate", "--family", "multitask", "--k", "2", "--n", "2",
            "--T", "16", "--clipped", "--learner", "uniform",
            "--reps", "4", "--seed", "21"]

    def test_header_and_row_count(self, tmp_path):
        out_file = tmp_path / "runs.csv"
        code, summary = run_cli(self.BASE + ["--out", str(out_file)])
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 4
        assert "mean_regret=" in summary
        assert "bound_value=" in summary
        assert "exceeds_bound=" in summary

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _, sum_a = run_cli(self.BASE + ["--out", str(a)])
        _, sum_b = run_cli(self.BASE + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert sum_a == sum_b

    def test_jobs_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(self.BASE + ["--out", str(a), "--jobs", "1"])
        run_cli(self.BASE + ["--out", str(b), "--jobs", "2"])
        assert a.read_bytes() == b.read_bytes()

    def test_uneven_chunks_write_the_serial_bytes(self, tmp_path):
        # 5 reps over 3 workers: chunks of 1, 2 and 2 games
        base = self.BASE[:-4] + ["--reps", "5", "--seed", "21"]
        outputs = []
        for jobs in ("1", "3"):
            out_file = tmp_path / f"jobs{jobs}.csv"
            _, summary = run_cli(base + ["--out", str(out_file), "--jobs", jobs])
            outputs.append((out_file.read_bytes(), summary))
        assert outputs[0] == outputs[1]

    def test_unclipped_independent_has_no_bound(self):
        code, summary = run_cli([
            "simulate", "--family", "multitask", "--k", "2", "--n", "2",
            "--T", "16", "--adversary", "independent", "--learner", "uniform",
            "--reps", "2", "--seed", "3"])
        assert code == 0
        assert "bound_value=" not in summary

    def test_zero_reps_usage_error(self):
        assert run_cli_expect_exit(self.BASE[:-4] + ["--reps", "0", "--seed", "1"]) == 2

    @pytest.mark.parametrize("flags", [
        ["--learner", "exp3", "--baseline", "nan"],
        ["--learner", "exp3", "--baseline", "inf"],
        ["--learner", "uniform", "--jobs", "0"],
        ["--learner", "uniform", "--jobs", "-2"],
        # a value the kind never reads would mislabel the CSV
        ["--learner", "uniform", "--baseline", "mean", "--eta", "exhibit"],
        ["--learner", "exp3", "--eta", "bogus"],
        ["--learner", "exp3", "--baseline", "median"],
        ["--learner", "exp2", "--baseline", "0.5"],
        ["--learner", "fixed", "--gamma", "0.3"],
    ])
    def test_bad_run_flags_exit_before_running(self, flags, capsys):
        out = io.StringIO()
        argv = [a for a in self.BASE if a not in ("--learner", "uniform")]
        with pytest.raises(SystemExit) as info:
            main(argv + flags, stdout=out)
        assert info.value.code == 2
        assert out.getvalue() == ""
        assert flags[-2].lstrip("-") in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--baseline", "-inf", "baseline must be finite, got -inf"),
        ("--base", "-inf", "baseline must be finite, got -inf"),
        ("--eta", "-1e-3", "eta must be finite and >= 0, got -0.001"),
        ("--eta", "-0.5", "eta must be finite and >= 0, got -0.5"),
        ("--gamma", "-1e-3", "gamma must lie in [0, 1], got -0.001"),
    ], ids=["baseline", "abbreviated", "eta", "eta-decimal", "gamma"])
    def test_values_that_start_with_a_dash_reach_the_spec(self, flag, value,
                                                          message, capsys):
        # argparse would read -inf or -1e-3 after its flag as a flag itself
        argv = [a for a in self.BASE if a not in ("--learner", "uniform")]
        argv += ["--learner", "exp3"]
        errors = []
        for flags in ([flag, value], [f"{flag}={value}"]):
            assert run_cli_expect_exit(argv + flags) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].endswith(f"error: {message}\n")

    def test_negative_baseline_in_scientific_notation_runs(self):
        argv = [a for a in self.BASE if a not in ("--learner", "uniform")]
        argv += ["--learner", "exp3"]
        code, spaced = run_cli(argv + ["--baseline", "-1e-3"])
        assert code == 0
        assert (code, spaced) == run_cli(argv + ["--baseline=-1e-3"])

    CAPPED = ["simulate", "--family", "multitask", "--k", "4", "--n", "3",
              "--T", "48", "--clipped", "--reps", "3", "--seed", "9"]

    @pytest.mark.parametrize("learner", ["uniform", "fixed", "exp3"])
    def test_cap_below_cardinality_leaves_unenumerated_runs_alone(self, learner):
        # |S| = 81 > 10, but these learners and the hindsight oracle never
        # enumerate S
        argv = self.CAPPED + ["--learner", learner]
        code, capped = run_cli(argv + ["--cap", "10"])
        assert code == 0
        assert capped == run_cli(argv)[1]

    @pytest.mark.parametrize("learner", ["round_robin", "exp2"])
    def test_cap_below_cardinality_refuses_enumerating_learners(self, learner,
                                                                 capsys):
        out = io.StringIO()
        with pytest.raises(SystemExit) as info:
            main(self.CAPPED + ["--learner", learner, "--cap", "10"], stdout=out)
        assert info.value.code == 2
        assert out.getvalue() == ""
        assert "cardinality 81 exceeds enumeration cap 10" in capsys.readouterr().err

    def test_cap_refuses_with_parallel_jobs(self, capsys):
        # test_engine checks that the workers' pickled sets keep the cap too
        out = io.StringIO()
        with pytest.raises(SystemExit) as info:
            main(self.CAPPED + ["--learner", "round_robin", "--cap", "10",
                                "--jobs", "2"], stdout=out)
        assert info.value.code == 2
        assert out.getvalue() == ""
        assert "cardinality 81 exceeds enumeration cap 10" in capsys.readouterr().err

    MATCHING = ["simulate", "--family", "matching", "--k", "5", "--n", "12",
                "--T", "300", "--clipped", "--learner", "uniform",
                "--reps", "2", "--seed", "9"]

    def test_oracle_over_cap_refuses_before_the_first_draw(self, monkeypatch,
                                                           capsys):
        # C(12, 5) = 792 used-column states after row 5
        draws, original = [], engine.draw_losses
        monkeypatch.setattr(engine, "draw_losses",
                            lambda config: draws.append(config) or original(config))
        out = io.StringIO()
        with pytest.raises(SystemExit) as info:
            main(self.MATCHING + ["--cap", "791"], stdout=out)
        assert info.value.code == 2
        assert out.getvalue() == "" and draws == []
        assert "792 used-column states" in capsys.readouterr().err
        code, summary = run_cli(self.MATCHING + ["--cap", "792"])
        assert code == 0 and len(draws) == 2
        assert "exceeds_bound=" in summary

    def test_uniform_at_k32_runs_past_the_default_cap(self):
        # |S| = 2**32 is far over the default cap of 10**6
        code, summary = run_cli([
            "simulate", "--family", "multitask", "--k", "32", "--n", "2",
            "--T", "2048", "--clipped", "--learner", "uniform",
            "--reps", "2", "--seed", "1"])
        assert code == 0
        assert "exceeds_bound=" in summary

    def test_seed_required(self):
        assert run_cli_expect_exit(self.BASE[:-2]) == 2

    def test_record_hidden_transcripts(self, tmp_path):
        out_file = tmp_path / "runs.csv"
        code, _ = run_cli(self.BASE + ["--out", str(out_file), "--record-hidden"])
        assert code == 0
        text = (tmp_path / "runs.csv.transcripts.txt").read_text()
        assert text.count("# combandit transcript") == 4

    def test_unwritable_transcripts_fail_before_any_game(self, tmp_path,
                                                         monkeypatch, capsys):
        out_file = tmp_path / "runs.csv"
        (tmp_path / "runs.csv.transcripts.txt").mkdir()
        draws, original = [], engine.draw_losses
        monkeypatch.setattr(engine, "draw_losses",
                            lambda config: draws.append(config) or original(config))
        out = io.StringIO()
        with pytest.raises(SystemExit) as info:
            main(self.BASE + ["--out", str(out_file), "--record-hidden"],
                 stdout=out)
        assert info.value.code == 2
        assert out.getvalue() == "" and draws == []
        assert not out_file.exists()
        assert "error: [Errno 21] Is a directory" in capsys.readouterr().err

    def test_unwritable_out_leaves_no_transcripts_file(self, tmp_path,
                                                       monkeypatch, capsys):
        out_dir = tmp_path / "runs.csv"
        out_dir.mkdir()
        draws, original = [], engine.draw_losses
        monkeypatch.setattr(engine, "draw_losses",
                            lambda config: draws.append(config) or original(config))
        out = io.StringIO()
        with pytest.raises(SystemExit) as info:
            main(self.BASE + ["--out", str(out_dir), "--record-hidden"],
                 stdout=out)
        assert info.value.code == 2
        assert out.getvalue() == "" and draws == []
        assert list(tmp_path.iterdir()) == [out_dir]
        assert "error: [Errno 21] Is a directory" in capsys.readouterr().err

    def test_record_hidden_without_out_fails_before_running(self, capsys):
        out = io.StringIO()
        with pytest.raises(SystemExit) as info:
            main(self.BASE + ["--record-hidden"], stdout=out)
        assert info.value.code == 2
        assert out.getvalue() == ""
        assert "--record-hidden requires --out" in capsys.readouterr().err

    def test_independent_exp3_with_negative_regrets_exits_0(self, tmp_path):
        # under independent noise exp3 beats the hindsight-best fixed action
        # in some of these games; that is not a bug
        out_file = tmp_path / "runs.csv"
        code, summary = run_cli([
            "simulate", "--family", "multitask", "--k", "2", "--n", "2",
            "--T", "64", "--adversary", "independent", "--clipped",
            "--learner", "exp3", "--baseline", "mean", "--eta", "exhibit",
            "--gamma", "0.1", "--reps", "100", "--seed", "3",
            "--out", str(out_file)])
        assert code == 0
        assert "mean_regret=" in summary
        header = CSV_HEADER.split(",")
        regrets = [float(line.split(",")[header.index("regret")])
                   for line in out_file.read_text().splitlines()[1:]]
        assert len(regrets) == 100
        assert min(regrets) < 0

    def test_exp3_effective_tuning_echoed(self, tmp_path):
        out_file = tmp_path / "runs.csv"
        run_cli(["simulate", "--family", "multitask", "--k", "2", "--n", "2",
                 "--T", "16", "--learner", "exp3", "--baseline", "mean",
                 "--reps", "2", "--seed", "5", "--out", str(out_file)])
        row = out_file.read_text().splitlines()[1].split(",")
        header = CSV_HEADER.split(",")
        assert row[header.index("learner")] == "exp3[b=mean]"
        assert float(row[header.index("eta")]) > 0
        assert float(row[header.index("gamma")]) > 0

    def test_theorem4_requires_long_horizon(self, tmp_path, capsys):
        out_file = tmp_path / "o.csv"
        assert run_cli_expect_exit([
            "simulate", "--family", "multitask", "--k", "4", "--n", "2",
            "--T", "16", "--clipped", "--learner", "uniform",
            "--reps", "2", "--seed", "3", "--out", str(out_file)]) == 2
        assert "requires T >= k*d = 32" in capsys.readouterr().err
        assert not out_file.exists()

    def test_the_up_front_check_draws_no_adversary(self, monkeypatch):
        # one adversary per replication; the check before the games meets
        # the T >= k*d refusal without sampling an x*
        drawn = []
        original = engine.make_adversary
        monkeypatch.setattr(engine, "make_adversary",
                            lambda *a, **kw: drawn.append(1) or original(*a, **kw))
        code, _ = run_cli(self.BASE)
        assert code == 0
        assert len(drawn) == 4


@pytest.mark.parametrize("argv", [
    TestSimulate.BASE,
    ["sweep", "--family", "multitask", "--k", "2,4,8", "--n", "2",
     "--t-mult", "2", "--learner", "uniform", "--reps", "3", "--seed", "5"],
], ids=["simulate", "sweep"])
def test_unwritable_out_fails_before_any_game(argv, tmp_path, monkeypatch,
                                              capsys):
    draws, original = [], engine.draw_losses
    monkeypatch.setattr(engine, "draw_losses",
                        lambda config: draws.append(config) or original(config))
    out_file = tmp_path / "missing" / "o.csv"
    out = io.StringIO()
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(out_file)], stdout=out)
    assert info.value.code == 2
    assert out.getvalue() == "" and draws == []
    assert "error: [Errno 2] No such file" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    TestSimulate.BASE[:-2],
    ["sweep", "--family", "multitask", "--k", "2,4,8", "--n", "2",
     "--t-mult", "2", "--learner", "uniform", "--reps", "3"],
    ["verify", "kl"],
], ids=["simulate", "sweep", "verify"])
def test_negative_seed_is_a_usage_error(argv, tmp_path, capsys):
    out_file = tmp_path / "F"
    out_flags = [] if argv[0] == "verify" else ["--out", str(out_file)]
    out = io.StringIO()
    with pytest.raises(SystemExit) as info:
        main(argv + ["--seed", "-1"] + out_flags, stdout=out)
    assert info.value.code == 2
    assert out.getvalue() == ""
    assert "argument --seed: expected a non-negative integer, got '-1'" in (
        capsys.readouterr().err)
    assert not out_file.exists()


class TestSweep:
    def test_single_k_usage_error(self):
        assert run_cli_expect_exit([
            "sweep", "--family", "multitask", "--k", "4", "--n", "2",
            "--learner", "uniform", "--reps", "2", "--seed", "1"]) == 2

    def test_bad_k_fails_before_any_game(self, tmp_path, capsys):
        # k=5 has no layered path: every k's set is built before --out opens
        out_file = tmp_path / "F"
        out = io.StringIO()
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--family", "path", "--k", "2,4,5", "--d", "20",
                  "--learner", "uniform", "--reps", "50", "--seed", "1",
                  "--out", str(out_file)], stdout=out)
        assert info.value.code == 2
        assert out.getvalue() == ""
        assert not out_file.exists()
        assert "k=5" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--k", "4,5,6", "--learner", "uniform", "--cap", "791"],
         "792 used-column states"),
        (["--k", "2,3,4", "--learner", "round_robin", "--cap", "2000"],
         "cardinality 11880 exceeds enumeration cap 2000"),
    ], ids=["oracle", "enumeration"])
    def test_over_cap_fails_before_any_game(self, flags, message, tmp_path,
                                           monkeypatch, capsys):
        # the last k is over the cap: every k's limits are met before the
        # first block plays or --out opens
        draws, original = [], engine.draw_losses
        monkeypatch.setattr(engine, "draw_losses",
                            lambda config: draws.append(config) or original(config))
        out_file = tmp_path / "sw.csv"
        out = io.StringIO()
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--family", "matching", "--n", "12", "--t-mult", "2",
                  "--reps", "20", "--seed", "9", "--out", str(out_file), *flags],
                 stdout=out)
        assert info.value.code == 2
        assert out.getvalue() == "" and draws == []
        assert not out_file.exists()
        assert message in capsys.readouterr().err

    def test_repeated_k_fails_before_any_game(self, tmp_path, capsys):
        # a repeated k would play its block twice and weigh it twice in the fit
        out_file = tmp_path / "F"
        out = io.StringIO()
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--family", "multitask", "--k", "2,2,4,8", "--n", "2",
                  "--t-mult", "2", "--learner", "uniform", "--reps", "3",
                  "--seed", "1", "--out", str(out_file)], stdout=out)
        assert info.value.code == 2
        assert out.getvalue() == ""
        assert not out_file.exists()
        assert "at least 3 k values, none repeated" in capsys.readouterr().err

    def test_t_mult_below_one_usage_error(self, capsys):
        out = io.StringIO()
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--family", "multitask", "--k", "2,4,8", "--n", "2",
                  "--t-mult", "0", "--learner", "uniform", "--reps", "2",
                  "--seed", "1"], stdout=out)
        assert info.value.code == 2
        assert out.getvalue() == ""
        assert "--t-mult must be >= 1" in capsys.readouterr().err

    def test_small_sweep_reports_exponents(self, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, report = run_cli([
            "sweep", "--family", "multitask", "--k", "2,4,8", "--n", "2",
            "--t-mult", "2", "--learner", "uniform", "--reps", "3",
            "--seed", "13", "--out", str(out_file)])
        assert code == 0
        assert "exponent_correlated=" in report
        assert "exponent_independent=" in report
        assert "exponent_gap=" in report
        lines = out_file.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 3 * 2  # reps x k-values x adversaries

    def test_zero_mean_regret_leaves_the_exponent_undefined(self, tmp_path):
        # the fixed learner plays x* at k=2 under this seed: regret exactly
        # 0.0 in both blocks, which no power law fits
        out_file = tmp_path / "sweep.csv"
        code, report = run_cli([
            "sweep", "--family", "multitask", "--k", "2,4,8", "--n", "2",
            "--t-mult", "1", "--learner", "fixed", "--reps", "1",
            "--seed", "3", "--out", str(out_file)])
        assert code == 0
        lines = report.splitlines()
        assert len(lines) == 1 + 2 * (3 + 1) + 1
        assert lines[1].startswith("k=2 d=4 T=8 adversary=correlated "
                                   "mean_regret=0.0 ")
        for name in ("correlated", "independent", "gap"):
            assert f"exponent_{name}=nan" in lines
        assert len(out_file.read_text().splitlines()) == 1 + 3 * 2

    def test_header_names_the_dimension_given(self):
        code, report = run_cli([
            "sweep", "--family", "path", "--k", "2,4,6", "--d", "12",
            "--t-mult", "1", "--learner", "uniform", "--reps", "4",
            "--seed", "3"])
        assert code == 0
        headers = [line for line in report.splitlines() if line.startswith("sweep ")]
        assert headers == ["sweep family=path d=12 t_mult=1 learner=uniform reps=4 seed=3"]

    def test_sweep_determinism(self, tmp_path):
        args = ["sweep", "--family", "multitask", "--k", "2,4,8", "--n", "2",
                "--t-mult", "2", "--learner", "uniform", "--reps", "2",
                "--seed", "13"]
        _, a = run_cli(args)
        _, b = run_cli(args)
        assert a == b

    def test_jobs_do_not_change_bytes(self, tmp_path):
        # 5 reps divide evenly over neither 2 nor 3 workers
        args = ["sweep", "--family", "multitask", "--k", "2,4,8", "--n", "2",
                "--t-mult", "2", "--learner", "uniform", "--reps", "5",
                "--seed", "13"]
        outputs = []
        for jobs in ("1", "2", "3"):
            out_file = tmp_path / f"jobs{jobs}.csv"
            _, report = run_cli(args + ["--out", str(out_file), "--jobs", jobs])
            outputs.append((out_file.read_bytes(), report))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_one_pool_plays_the_whole_sweep(self, monkeypatch):
        opened = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                opened.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            CountingPool)
        args = ["sweep", "--family", "matching", "--k", "2,3,4", "--n", "6",
                "--t-mult", "2", "--learner", "uniform", "--reps", "5",
                "--seed", "7"]
        _, serial = run_cli(args + ["--jobs", "1"])
        assert opened == []
        _, pooled = run_cli(args + ["--jobs", "2"])
        # six (noise mode, k) cells, one pool
        assert opened == [2] and pooled == serial


class TestVerify:
    # each suite's check, broken through the one library quantity it checks
    BROKEN = {
        "cardinalities": (ActionSet, "enumerate_actions", lambda m: m[1:]),
        "bijection": (environments, "shortest_path_losses", lambda x: x + 1e-9),
        "variance": (environments, "standard_normals", lambda z: 1.1 * z),
        "kl": (analysis, "gaussian_kl", lambda v: v + 1e-5),
        # the learner's play record counted twice
        "lemma5": (analysis, "play_losses",
                   lambda r: (r[0], np.concatenate([r[1], r[1]]))),
        "lemma7": (analysis, "play_losses",
                   lambda r: (r[0], np.concatenate([r[1], r[1]]))),
        "clip": (analysis, "standard_normals", lambda z: 10.0 * z),
        "estimator": (learners.EnumeratedExp2Learner, "estimates",
                      lambda r: r + 0.01),
    }

    def test_unknown_suite_usage_error(self, capsys):
        out = io.StringIO()
        with pytest.raises(SystemExit) as info:
            main(["verify", "variance", "bogus"], stdout=out)
        assert info.value.code == 2
        assert out.getvalue() == ""
        assert "unknown suite 'bogus'; expected one of cardinalities," in (
            capsys.readouterr().err)

    def test_fast_suites_pass(self):
        # every suite: no names runs them all, and prints these bytes
        assert run_cli(["verify", "--seed", "7"]) == (0, (
            "PASS cardinalities: 111 instances match their closed forms exactly\n"
            "PASS bijection: 16 paths x 1000 loss vectors, exact equality\n"
            "PASS variance: observed-loss variance within 5% of k^2 s^2 / k s^2 "
            "targets (worst 0.91%)\n"
            "PASS kl: closed form matches quadrature within 1e-6 on 12 cases "
            "(worst 7.11e-15)\n"
            "PASS lemma5: sum of play counts over S = 16 = n^(k-1) T exactly "
            "on rows 0 and 1\n"
            "PASS lemma7: averaged play count of rows 0, 1: 2.000000 <= "
            "2.666667, 2.000000 <= 2.666667\n"
            "PASS clip: 0.25-exceedance rate 0.00e+00 <= epsilon/8 = 8.21e-04 "
            "at 99% confidence; epsilon <= 1/4 at the 8 tested T from 32 to "
            "2^20\n"
            "PASS estimator: estimator unbiased on span(S) within 1e-10\n"))

    @pytest.mark.parametrize("suite", sorted(BROKEN))
    def test_broken_quantity_fails_its_suite(self, suite, monkeypatch):
        owner, name, change = self.BROKEN[suite]
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, **kw: change(original(*a, **kw)))
        code, text = run_cli(["verify", suite])
        assert code == 1
        assert text.startswith(f"FAIL {suite}: ")
        assert text.count("\n") == 1

    def test_lost_rank_fails_the_estimator_suite(self, monkeypatch):
        # all weight on one action: the second moment has rank 1 of 3, and
        # the estimator's exception is the suite's result, not an exit 2
        monkeypatch.setattr(learners, "_mixed_weights",
                            lambda cum_est, eta, gamma:
                            [1.0] + [0.0] * (len(cum_est) - 1))
        code, text = run_cli(["verify", "estimator"])
        assert code == 1
        assert text == ("FAIL estimator: second-moment matrix lost rank at "
                        "round 1; increase gamma\n")

    def test_independent_noise_in_correlated_draws_fails_variance(self, monkeypatch):
        # the adversary adds a fresh draw per coordinate where it should add
        # one shared draw: the observed variance drops from k^2 s^2 to k s^2
        original = analysis.draw_losses
        monkeypatch.setattr(analysis, "draw_losses", lambda config: original(
            replace(config, noise_mode=environments.NoiseMode.INDEPENDENT)))
        code, text = run_cli(["verify", "variance"])
        assert code == 1
        assert text.startswith("FAIL variance: k=2 CorrelatedGaussian: ")


@pytest.mark.parametrize("argv", [
    ["sweep", "--family", "multitask", "--k", "2,4,8", "--n", "2",
     "--t-mult", "0", "--learner", "uniform", "--reps", "2", "--seed", "1"],
    TestSimulate.BASE[:-4] + ["--reps", "0", "--seed", "1"],
    TestSimulate.BASE + ["--record-hidden"],
    ["verify", "nosuch"],
    TestSimulate.BASE + ["--T", "0"],
], ids=["sweep-t-mult", "simulate-reps", "simulate-record-hidden",
        "verify-suite", "simulate-T"])
def test_usage_errors_name_their_subcommand(argv, capsys):
    # errors found after parsing print the subcommand's usage line
    assert run_cli_expect_exit(argv) == 2
    assert capsys.readouterr().err.startswith(f"usage: combandit {argv[0]} ")


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--family", "multitask", "--k", "2", "--n", "2", "--d", "99",
      "--T", "16", "--clipped", "--learner", "uniform", "--reps", "1",
      "--seed", "1"], "d=99 contradicts k*n=4"),
    (["enumerate", "--family", "path", "--k", "2", "--n", "3", "--d", "8"],
     "d=8 contradicts k*n=6"),
    (["simulate", "--family", "matching", "--k", "2", "--n", "3", "--d", "100",
      "--T", "16", "--clipped", "--learner", "uniform", "--reps", "1",
      "--seed", "1"], "d=100 contradicts k*n=6"),
    (["sweep", "--family", "multitask", "--k", "2,4,8", "--n", "2", "--d", "8",
      "--learner", "uniform", "--reps", "1", "--seed", "1"],
     "d=8 contradicts k*n=4"),
], ids=["simulate-multitask", "enumerate-path", "simulate-matching", "sweep"])
def test_contradictory_dimensions_are_an_error(argv, message, capsys):
    # a --d that does not equal k*n is refused, never dropped
    out = io.StringIO()
    with pytest.raises(SystemExit) as info:
        main(argv, stdout=out)
    assert info.value.code == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--family", "multitask", "--k", "2", "--n", "2", "--cap", "-1"],
    TestSimulate.BASE + ["--cap", "0"],
    ["sweep", "--family", "multitask", "--k", "2,4,8", "--n", "2",
     "--learner", "uniform", "--reps", "1", "--seed", "1", "--cap", "0"],
], ids=["enumerate", "simulate", "sweep"])
def test_cap_below_one_is_an_error(argv, capsys):
    out = io.StringIO()
    with pytest.raises(SystemExit) as info:
        main(argv, stdout=out)
    assert info.value.code == 2
    assert out.getvalue() == ""
    cap = argv[-1]
    assert capsys.readouterr().err == f"error: cap must be >= 1, got {cap}\n"


def test_consistent_dimensions_are_accepted():
    code, text = run_cli(["enumerate", "--family", "path", "--k", "2",
                          "--n", "2", "--d", "4"])
    assert code == 0
    assert text.splitlines()[0] == "family=path d=4 k=2 n=2 cardinality=2"


@pytest.mark.parametrize("argv,message", [
    (["enumerate", "--family", "multitask", "--k", "2,4", "--n", "2"],
     "expected one integer, got '2,4'; a comma list of k values belongs to sweep"),
    (["simulate", "--family", "multitask", "--k", "2,4", "--n", "2", "--T", "8",
      "--learner", "uniform", "--reps", "1", "--seed", "1"],
     "expected one integer, got '2,4'; a comma list of k values belongs to sweep"),
    (["sweep", "--family", "multitask", "--k", "2,x,8", "--n", "2",
      "--learner", "uniform", "--reps", "1", "--seed", "1"],
     "expected a comma list of integers, got '2,x,8'"),
], ids=["enumerate", "simulate", "sweep"])
def test_non_integer_k_is_a_usage_error(argv, message, capsys):
    out = io.StringIO()
    with pytest.raises(SystemExit) as info:
        main(argv, stdout=out)
    assert info.value.code == 2
    assert out.getvalue() == ""
    err = capsys.readouterr().err
    assert err.startswith(f"usage: combandit {argv[0]} ")
    assert f"error: argument --k: {message}\n" in err


def test_import_leaves_scipy_stats_and_integrate_unloaded():
    # a fresh interpreter: this one has scipy.stats from test_analysis.py.
    # Only the clip and kl verify suites use them, and they import them.
    code = ("import sys, combandit, combandit.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code],
                         env=fresh_interpreter_env(), capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[]\n"


def test_exp2_rank_loss_exits_1_with_one_error_line(tmp_path):
    # a runtime failure mid-run: status 1 (not the usage status 2), one
    # `error:` line and no traceback; the opened --out file is removed
    out_file = tmp_path / "o.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "combandit.cli", "simulate",
         "--family", "multitask", "--k", "3", "--n", "2", "--T", "64",
         "--learner", "exp2", "--eta", "3.0", "--gamma", "1e-14",
         "--reps", "2", "--seed", "5", "--out", str(out_file)],
        env=fresh_interpreter_env(), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == ("error: second-moment matrix lost rank at round "
                           "10; increase gamma\n")
    assert "Traceback" not in proc.stderr
    assert not out_file.exists()


RANK_LOSS = ["--family", "multitask", "--n", "2", "--learner", "exp2",
             "--eta", "3.0", "--gamma", "1e-14", "--reps", "40", "--seed", "2"]


@pytest.mark.parametrize("argv, round_", [
    (["simulate", "--k", "3", "--T", "64", *RANK_LOSS, "--record-hidden"], 13),
    (["sweep", "--k", "2,4,8", "--t-mult", "2", *RANK_LOSS], 12),
])
def test_a_failed_run_leaves_no_output_file(tmp_path, capsys, argv, round_):
    # --out and the transcripts file open before the first game, and a
    # game that fails removes them
    out_file = tmp_path / "rank.csv"
    assert run_cli_expect_exit(argv + ["--out", str(out_file)]) == 1
    assert capsys.readouterr().err == (
        f"error: second-moment matrix lost rank at round {round_}; "
        f"increase gamma\n")
    assert list(tmp_path.iterdir()) == []


class TestOneProcessManyCommands:
    """:func:`main` parses with one parser per process, and a matching
    oracle's transitions are built once per shape; a run of commands in one
    process writes what each command writes alone."""

    SEQUENCE = [
        ["simulate", "--family", "matching", "--k", "3", "--n", "5", "--T",
         "64", "--clipped", "--learner", "uniform", "--reps", "3", "--seed",
         "4", "--record-hidden", "--out", "hidden.csv"],
        ["simulate", "--family", "multitask", "--k", "2", "--n", "3", "--T",
         "64", "--clipped", "--learner", "exp3", "--eta", "0.5", "--gamma",
         "0.1", "--baseline", "mean", "--reps", "2", "--seed", "4"],
        ["verify", "lemma7", "estimator", "--seed", "7"],
        ["simulate", "--family", "multitask", "--k", "2", "--n", "2", "--T",
         "16", "--learner", "uniform", "--reps", "0", "--seed", "1"],
        # the same oracle shape as the first command; an eta, gamma or
        # baseline left over from the exp3 command would be refused here
        ["simulate", "--family", "matching", "--k", "3", "--n", "5", "--T",
         "64", "--clipped", "--learner", "round_robin", "--reps", "2",
         "--seed", "5", "--out", "plain.csv"],
    ]

    @staticmethod
    def _run(argv, capsys):
        out = io.StringIO()
        try:
            code = main(argv, stdout=out)
        except SystemExit as exc:
            code = exc.code
        files = {path.name: path.read_bytes() for path in Path().iterdir()}
        for name in files:
            os.remove(name)
        return code, out.getvalue(), capsys.readouterr().err, files

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_sequence_writes_what_each_command_writes_alone(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        # alone: each command meets cold caches, as in a fresh process
        alone = []
        for argv in self.SEQUENCE:
            cli.build_parser.cache_clear()
            _kernels.distinct_layout.cache_clear()
            alone.append(self._run(argv, capsys))
        cli.build_parser.cache_clear()
        _kernels.distinct_layout.cache_clear()
        together = [self._run(argv, capsys) for argv in self.SEQUENCE]
        assert cli.build_parser.cache_info().misses == 1
        assert _kernels.distinct_layout.cache_info().misses == 1
        assert together == alone
        assert [result[0] for result in together] == [0, 0, 0, 2, 0]
        assert sorted(together[0][3]) == ["hidden.csv",
                                          "hidden.csv.transcripts.txt"]
        assert together[3][2].startswith("usage: combandit simulate ")
        assert together[4][3]["plain.csv"].count(b"\n") == 3

    def test_no_flag_leaks_into_the_next_namespace(self):
        base = self.SEQUENCE[1][:5] + ["--T", "64", "--learner", "uniform",
                                        "--reps", "2", "--seed", "4"]
        parser = cli.build_parser()
        parser.parse_args(base + [
            "--n", "3", "--d", "6", "--cap", "99", "--adversary",
            "independent", "--clipped", "--record-hidden", "--eta", "0.5",
            "--gamma", "0.1", "--baseline", "mean", "--jobs", "2", "--out",
            "o.csv"])
        bare = vars(parser.parse_args(base))
        fresh = vars(cli.build_parser.__wrapped__().parse_args(base))
        assert bare.pop("parser").prog == fresh.pop("parser").prog
        assert bare == fresh
        # a list one call's namespace holds is not the next call's default
        parser.parse_args(["verify"]).suite.append("lemma5")
        assert parser.parse_args(["verify"]).suite == []

    def test_help_wraps_at_the_width_columns_gives(self, monkeypatch, capsys):
        helps = []
        for columns in ("50", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            for parse in (main, cli.build_parser.__wrapped__().parse_args):
                with pytest.raises(SystemExit) as info:
                    parse(["simulate", "--help"])
                assert info.value.code == 0
                helps.append(capsys.readouterr().out)
        narrow, narrow_fresh, wide, wide_fresh = helps
        assert narrow == narrow_fresh and wide == wide_fresh
        assert narrow != wide
        assert narrow.count("\n") > wide.count("\n")
        assert narrow.startswith("usage: combandit simulate ")
