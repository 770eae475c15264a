"""One benchmark process: set up, run one workload in a closed loop, report.

Run by ``run.py``; not meant to be called by hand.  The process imports
combandit from ``src/`` of the checkout it sits in, runs one warm-up unit at
the golden seed (its digest is checked), then runs units with program seeds
derived from ``--seed`` until ``--seconds`` have passed.  With ``--trace 1``
each unit runs twice, untraced and traced, which gives the tracing overhead.
It prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDED_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS",
              "COMBANDIT_DISABLE_NUMBA")


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import combandit

    src = (ROOT / "src").resolve()
    if src not in Path(combandit.__file__).resolve().parents:
        raise ImportError(f"combandit imported from {combandit.__file__}, "
                          f"not from {src}")
    return combandit


def metadata(combandit) -> dict:
    import numpy
    import scipy

    return {
        "kernel_path": combandit.jit_status(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "env": {k: os.environ.get(k) for k in RECORDED_ENV},
    }


class Loop:
    """Counts of a closed loop of units: one caller, each unit waits for the
    previous one."""

    def __init__(self, workload, out_dir):
        self.workload = workload
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0

    def unit(self, seed: int):
        w = self.workload
        self.attempted += w.games
        try:
            outcome = w.run(seed, self.out_dir)
        except Exception:
            traceback.print_exc()
            self.failed += w.games
            return None
        self.failed += outcome.failed
        return outcome

    def timed(self, seeds, seconds: float) -> tuple[list[float], list[float]]:
        """Run units until ``seconds`` pass, with the machine's speed taken
        before each unit and after the last.  Returns the wall time of each
        of the n units and the n + 1 reference times."""
        units, refs = [], [reference_time()]
        start = time.perf_counter()
        while not units or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            self.unit(next(seeds))
            units.append(time.perf_counter() - t0)
            refs.append(reference_time())
        return units, refs

    def paired(self, seeds, seconds: float, tracer) -> dict:
        """Run each seed twice, plain and traced, until ``seconds`` pass.

        Pairing on the seed makes the two halves do the same work, and
        alternating which runs first cancels what the first run leaves warm
        for the second, so their time ratio is the tracing overhead.
        Returns the per-layer figures of the traced half.
        """
        units = csv_bytes = 0
        busy = {False: 0.0, True: 0.0}
        start = time.perf_counter()
        while units == 0 or time.perf_counter() - start < seconds:
            seed = next(seeds)
            for traced in ((False, True) if units % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    t0 = time.perf_counter()
                    outcome = self.unit(seed)
                    busy[traced] += time.perf_counter() - t0
                finally:
                    tracer.uninstall()
                if traced and outcome is not None:
                    csv_bytes += outcome.csv_bytes
            units += 1
        w = self.workload
        layers = tracer.metrics(busy[True], units * w.games, units * w.rounds,
                                csv_bytes)
        layers["trace.overhead_frac"] = busy[True] / busy[False] - 1.0
        return layers


def reference_time(samples: int = 5) -> float:
    """Fastest of ``samples`` runs of a fixed loop that uses no combandit
    code: scalar reads of a numpy array in a Python loop, the operation the
    pure-Python kernels spend most time on.  It tracks the speed the
    machine gives this process at the moment."""
    import numpy as np

    a = np.arange(64, dtype=np.float64)
    best = math.inf
    for _ in range(samples):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(500):
            for i in range(64):
                acc += a[i] * 0.5
        best = min(best, time.perf_counter() - t0)
    return best


def program_seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(2, 2**31)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    combandit = import_program()
    from workloads import GOLDEN_SEED, WORKLOADS
    workload = WORKLOADS[args.workload]

    out_base = ROOT / ".perfbench_out"
    out_base.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=out_base))
    try:
        loop = Loop(workload, out_dir)
        warm = loop.unit(GOLDEN_SEED)
        golden_ok = warm is not None and warm.digest == workload.golden
        if warm is not None and not golden_ok:
            loop.failed += workload.games - warm.failed
            print(f"golden digest mismatch for {workload.name}: "
                  f"{warm.digest} != {workload.golden}", file=sys.stderr)
        result = {"golden_ok": golden_ok, "metadata": metadata(combandit),
                  "first_game": time.monotonic()}
        result["setup_ref_s"] = reference_time()
        if not args.setup_only:
            seeds = program_seeds(workload.name, args.seed)
            if args.trace:
                from tracer import Tracer
                result["layers"] = loop.paired(seeds, args.seconds, Tracer())
            else:
                result["unit_s"], result["ref_s"] = loop.timed(seeds, args.seconds)
                result["games_per_unit"] = workload.games
        result.update(
            attempted=loop.attempted, failed=loop.failed,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_base.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
