"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload for one unit, untraced and traced, and checks that each
metric BENCHMARK.json declares is emitted, that outputs pass their checks,
and that the benchmark refuses to run without the program's sources.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracer import KINDS, LAYERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = {"setup_s", "games_per_s", "peak_rss_mb"}
PER_LAYER = (
    {f"learners.play_us_per_round.{k}" for k in KINDS}
    | {f"_kernels.kernel_us_per_round.{k}" for k in KINDS}
    | {f"learners.dispatch_us_per_game.{k}" for k in KINDS}
    | {f"{layer}.share" for layer in LAYERS}
    | {"environments.draw_losses_us_per_round", "environments.adversary_us_per_game",
       "engine.self_us_per_round", "analysis.hindsight_us_per_game",
       "analysis.hindsight_calls_per_game", "analysis.actions_scored_per_game",
       "action_sets.enumerate_s", "action_sets.cardinality", "cli.self_us_per_game",
       "cli.csv_bytes", "games", "rounds", "trace.overhead_frac", "trace.coverage",
       "failed_ratio"}
)


def test_declared_metrics_cover_the_required_names():
    assert {m["name"] for m in SPEC["end_to_end"]} == END_TO_END
    assert PER_LAYER <= {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    result, meta = bench.run(workload, seed=3, seconds=0.01, trace=trace, probes=0)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    assert meta["kernel_path"] in ("numba", "pure-python")
    if trace:
        assert result["metrics"]["games"]["value"] >= 1
        assert result["metrics"]["trace.coverage"]["value"] > 0.9
    else:
        assert result["metrics"]["setup_s"]["value"] > 0
        assert result["metrics"]["games_per_s"]["value"] > 0


def test_refuses_to_run_without_program_sources():
    with tempfile.TemporaryDirectory(prefix=".perfbench_out-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lower_bound_exhibit",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
