"""combandit benchmark: one workload, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each process below runs alone, one after another: ``SETUP_PROBES`` processes
that only set up (import, build and enumerate, one warm-up unit), then one
process that sets up and runs the workload in a closed loop for ``--seconds``.
``setup_s`` is the median set-up time over all of them, from process spawn
to the first timed unit.

The machine this was built on drifts in speed by up to a quarter, for
seconds or minutes at a time, so both timings are scaled to a fixed machine
speed: a reference loop that uses no combandit code runs around every timed
interval, and the interval is measured in reference loops times
``REFERENCE_S``.  That kept the spread of ``games_per_s`` over five runs at
2-7% where the raw figure spread 8-20%.

With ``--trace 0`` the main process reports ``games_per_s`` and
``peak_rss_mb``; with ``--trace 1`` it runs every unit twice, once traced,
and reports the per-layer figures (see ``tracer.py``).

Every unit's output is checked (see ``workloads.py``); the warm-up unit runs
at the golden seed and its output digest must match the pinned one.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (named and with units as in ``BENCHMARK.json``).
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import reference_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
# worker.reference_time on a quiet core of the x86_64 machine the benchmark
# was built on (Python 3.11, numpy 2.4); both timings are scaled to it.
REFERENCE_S = 0.005


class BenchmarkError(RuntimeError):
    pass


def spawn_worker(workload: str, seed: int, seconds: float, trace: int,
                 setup_only: bool = False) -> dict:
    """Run one worker process to completion; its report plus ``setup_s``,
    scaled like ``games_per_s`` by reference times taken just before the
    spawn and just after the set-up."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    # A fixed hash seed keeps dict and set layouts, and so their speed, the
    # same from one process to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    ref_before = reference_time()
    # time.monotonic is one system-wide clock, so the worker's reading is
    # comparable with the spawn time taken here.
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=seconds + 90)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    speed = (ref_before + report["setup_ref_s"]) / 2 / REFERENCE_S
    report["setup_s"] = (report["first_game"] - spawned) / speed
    return report


def games_per_s(games_per_unit: int, unit_s: list[float],
                ref_s: list[float]) -> float:
    """Games per second at the machine speed ``REFERENCE_S`` stands for.

    Each unit's time is divided by the mean of the reference times taken
    just before and after it, and the mean of the fastest quarter of these
    ratios (at least one) is the unit's cost in reference loops.  Other
    tenants of a shared machine slow it by up to a quarter, for seconds or
    minutes at a time; the ratio cancels slowdowns that last a unit, and the
    fastest quarter drops units that a shorter slowdown hit.
    """
    ratios = sorted(u / ((a + b) / 2) for u, a, b in zip(unit_s, ref_s, ref_s[1:]))
    fastest = ratios[:max(1, len(ratios) // 4)]
    return games_per_unit / (statistics.fmean(fastest) * REFERENCE_S)


def run(workload: str, seed: int, seconds: float, trace: int,
        probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, metadata)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchmarkError(f"unknown workload {workload!r}")
    if not (ROOT / "src" / "combandit" / "__init__.py").is_file():
        raise BenchmarkError("no combandit sources under src/")

    reports = [spawn_worker(workload, seed, seconds, trace, setup_only=True)
               for _ in range(probes)]
    main = spawn_worker(workload, seed, seconds, trace)
    reports.append(main)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)

    if trace:
        values = dict(main["layers"])
        values["failed_ratio"] = failed / attempted
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in reports),
            "games_per_s": games_per_s(main["games_per_unit"], main["unit_s"],
                                       main["ref_s"]),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise BenchmarkError(f"emitted metrics differ from BENCHMARK.json: "
                             f"{sorted(set(values) ^ set(units))}")
    result = {
        "correct": failed == 0 and all(r["golden_ok"] for r in reports),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    return result, main["metadata"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    try:
        result, meta = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchmarkError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"# metadata {json.dumps(meta, sort_keys=True)}")
    print(f"# workload={args.workload} seed={args.seed} "
          f"failed_ratio={result['failed'] / result['attempted']!r} "
          f"({result['failed']}/{result['attempted']} games)")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
