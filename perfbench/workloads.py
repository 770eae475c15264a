"""The benchmark's workloads: what one unit of work is and how its output is
checked.

A unit is what a user runs to get one result: one ``combandit`` command run
in-process through ``cli.main``, or one criterion-6 experiment through the
library API.  Units are sized so that several complete within a run; each
runs ``games`` games of ``rounds`` rounds in total.  ``run(seed, out_dir)``
executes a unit with the program seed it is given, checks every output it
can check without the program's help, and returns the number of games that
failed a check together with a SHA-256 digest of the output; at
``GOLDEN_SEED`` that digest must equal ``golden``.
"""

from __future__ import annotations

import hashlib
import io
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracer import KINDS

GOLDEN_SEED = 1
REGRET_FLOOR = -1e-9

CSV_HEADER = ("run_id,family,k,n,d,T,adversary,noise_mode,clipped,sigma,"
              "epsilon,learner,eta,gamma,seed,regret,hindsight_best_loss,cum_loss")


@dataclass(frozen=True)
class Outcome:
    failed: int
    digest: str
    csv_bytes: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    games: int
    rounds: int
    golden: str
    run: Callable[[int, Path], Outcome]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _summary_values(text: str, key: str) -> list[float]:
    return [float(tok.split("=", 1)[1]) for line in text.splitlines()
            for tok in line.split() if tok.startswith(key + "=")]


def _check_rows(rows: list[str], T: int, seed: int) -> tuple[int, list[float]]:
    """Games whose CSV row is wrong, and the regrets of the others.

    A row must carry its game's index, the horizon, the correlated adversary
    and the seed, and a regret equal to its cumulative loss minus its
    hindsight-best loss.  Under correlated noise x* has the least loss in
    every round (clipping is monotone), so no learner beats it and the
    regret is >= 0 up to rounding.
    """
    failed, regrets = 0, []
    for i, row in enumerate(rows):
        f = row.split(",")
        try:
            ok = (len(f) == 18 and f[0] == str(i) and f[5] == str(T)
                  and f[6] == "correlated" and f[14] == str(seed))
            regret, best, cum = float(f[15]), float(f[16]), float(f[17])
        except (IndexError, ValueError):
            ok = False
        if ok and regret >= REGRET_FLOOR and regret == cum - best:
            regrets.append(regret)
        else:
            failed += 1
    return failed, regrets


# -- cli_matching_hindsight / cli_path_round_robin -------------------------------

SIMULATE_REPS = 4


def _simulate(family_args: list[str], T: int, learner: str):
    """A unit that runs one ``combandit simulate`` command in-process."""
    def run(seed: int, out_dir: Path) -> Outcome:
        from combandit import cli

        out = out_dir / "out.csv"
        out.unlink(missing_ok=True)
        argv = ["simulate", *family_args, "--T", str(T), "--clipped",
                "--learner", learner, "--reps", str(SIMULATE_REPS),
                "--seed", str(seed), "--out", str(out)]
        stdout = io.StringIO()
        try:
            status = cli.main(argv, stdout=stdout)
        except SystemExit as exc:  # the CLI reports bad input this way
            status = exc.code
        data = out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        header, *rows = data.decode().splitlines()
        if status != 0 or header != CSV_HEADER or len(rows) != SIMULATE_REPS:
            return Outcome(SIMULATE_REPS, digest, len(data))
        failed, regrets = _check_rows(rows, T, seed)
        means = _summary_values(stdout.getvalue(), "mean_regret")
        if not (len(means) == 1 and not failed
                and _close(means[0], statistics.fmean(regrets))):
            failed = SIMULATE_REPS
        return Outcome(failed, digest, len(data))
    return run


# -- lower_bound_exhibit -----------------------------------------------------------

LOWER_BOUND_REPS = 2
LOWER_BOUND_T = 256


def _lower_bound(seed: int, out_dir: Path) -> Outcome:
    import combandit as cb

    action_set = cb.build_multitask(4, 2)
    factory = cb.AdversaryFactory(T=LOWER_BOUND_T, theorem4=True)
    regrets, failed = [], 0
    for i, kind in enumerate(KINDS):
        transcripts = cb.replicate(cb.LearnerSpec(kind=kind), factory, action_set,
                                   reps=LOWER_BOUND_REPS, seed=seed + i)
        failed += max(0, LOWER_BOUND_REPS - len(transcripts))
        for tr in transcripts:
            regret = cb.empirical_regret(tr, action_set)
            regrets.append(regret)
            if tr.horizon != LOWER_BOUND_T or not regret >= REGRET_FLOOR:
                failed += 1
    return Outcome(failed, hashlib.sha256(repr(regrets).encode()).hexdigest())


WORKLOADS = {w.name: w for w in (
    Workload(
        "lower_bound_exhibit",
        "criterion-6 config via the library API, all five learner kinds: exp2 "
        "dominates, exp3 comes next, and every kind gets its per-round costs",
        games=len(KINDS) * LOWER_BOUND_REPS,
        rounds=len(KINDS) * LOWER_BOUND_REPS * LOWER_BOUND_T,
        golden="e15913e975fdce236f70c02c1282f71f429aee0de722d63892cdf13c9933d275",
        run=_lower_bound,
    ),
    Workload(
        "cli_matching_hindsight",
        "matching k=6 n=8 (|S|=20160) with a cheap learner: enumeration and "
        "hindsight_best dominate, so oracle changes show only here",
        games=SIMULATE_REPS,
        rounds=SIMULATE_REPS * 320,
        golden="644c5fdd5a9d7a950f1241ec18519bff81821020176671614adac77eddfa6505",
        run=_simulate(["--family", "matching", "--k", "6", "--n", "8"], 320,
                      "uniform"),
    ),
    Workload(
        "cli_path_round_robin",
        "long horizon path run with a cheap learner: engine soundness loop and "
        "loss draws carry weight; exp3/exp2 changes must not move it",
        games=SIMULATE_REPS,
        rounds=SIMULATE_REPS * 4096,
        golden="5aa561be354fa44aab759424819d0edfa59f2f8758dc362a3a75210f47fbb6f0",
        run=_simulate(["--family", "path", "--k", "8", "--d", "32"], 4096,
                      "round_robin"),
    ),
)}
