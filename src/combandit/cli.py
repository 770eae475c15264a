"""Batch experiment runner.

Subcommands: ``enumerate`` (list an action set), ``simulate`` (replicated
games, CSV + summary), ``sweep`` (regret-vs-k scaling under both noise
structures), ``verify`` (the suites of :mod:`combandit.gates`).  Identical
(config, seed) pairs produce byte-identical output, for every ``--jobs``;
the seed flag is mandatory everywhere randomness is involved.  ``simulate``
is one :class:`~combandit.analysis.Cell` and ``sweep`` one per (noise mode,
k), all built, and so checked, before any game, and played by
:func:`~combandit.analysis.play_cells`.  Each game is scored where it ran
and only its record kept, so memory does not grow with ``--reps``;
``simulate --record-hidden`` keeps whole transcripts to write.

:func:`main` may run many commands in one process: each call parses into
its own namespace with the one parser :func:`build_parser` builds per
process, and ``--help`` wraps at the ``COLUMNS`` width when it prints.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

import numpy as np

from . import analysis, gates, learners
from .action_sets import (
    ActionSetError,
    DEFAULT_ENUMERATION_CAP,
    Family,
    build_action_set,
)
from .analysis import Cell, play_cells
from .engine import AdversaryFactory
from .environments import NoiseMode
from .learners import Exp2SingularError, LearnerSpec

# the --adversary names, also written in the CSV's adversary column
ADVERSARIES = {"correlated": NoiseMode.CORRELATED,
               "independent": NoiseMode.INDEPENDENT}
_ADVERSARY_NAMES = {mode: name for name, mode in ADVERSARIES.items()}

CSV_HEADER = ("run_id,family,k,n,d,T,adversary,noise_mode,clipped,sigma,"
              "epsilon,learner,eta,gamma,seed,regret,hindsight_best_loss,cum_loss")


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return "" if x is None else str(x)


def _one_k(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected one integer, got {text!r}; a comma list of k values "
            f"belongs to sweep") from None


def _k_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers, got {text!r}") from None


def _seed(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _number_or_word(text: str) -> float | str:
    """A float, or else the text as given; :class:`LearnerSpec` decides
    which words a flag accepts."""
    try:
        return float(text)
    except ValueError:
        return text


_SIGNED_VALUE_FLAGS = ("--eta", "--gamma", "--baseline")


def _join_signed_values(argv: list[str]) -> list[str]:
    """``--eta -inf`` as ``--eta=-inf``, for each flag whose value may be
    negative, or an abbreviation argparse accepts for it (``--base``):
    argparse reads a value that starts with '-' as a flag unless it is a
    plain decimal such as ``-0.5``, so ``-inf`` or ``-1e-3`` would never
    reach :class:`LearnerSpec`."""
    joined = []
    for arg in argv:
        flag = joined[-1] if joined else ""
        if (len(flag) > 2 and flag.startswith("--")
                and any(f.startswith(flag) for f in _SIGNED_VALUE_FLAGS)
                and arg.startswith("-") and not arg.startswith("--")):
            arg = f"{joined.pop()}={arg}"
        joined.append(arg)
    return joined


def _add_common_dims(p: argparse.ArgumentParser, k_type=_one_k) -> None:
    p.add_argument("--family", required=True,
                   choices=[f.value for f in Family])
    p.add_argument("--k", required=True, type=k_type,
                   help="sparsity (comma list for sweep)")
    p.add_argument("--n", type=int, help="arms per sub-problem")
    p.add_argument("--d", type=int, help="dimension (layered path)")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help="largest |S| that enumerate, round_robin and exp2 "
                        "list, and largest layer of used-column states the "
                        "matching hindsight oracle keeps")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--learner", required=True, choices=learners.LEARNER_KINDS)
    p.add_argument("--eta", type=_number_or_word, default=None,
                   help="learning rate: a number or 'exhibit'")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--baseline", type=_number_or_word, default=None,
                   help="per-task EXP3 surrogate baseline: a number or 'mean'")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")


def _learner_spec(args) -> LearnerSpec:
    return LearnerSpec(kind=args.learner, eta=args.eta, gamma=args.gamma,
                       baseline=args.baseline)


def _csv_rows(out, cell, games, summary, offset):
    """One CSV row per game of ``cell``, numbered from ``offset``."""
    dims = cell.action_set.dims
    eta, gamma = cell.spec.bind(cell.action_set, cell.factory.T)
    adversary = _ADVERSARY_NAMES[cell.factory.noise_mode]
    rows = []
    for r, game in enumerate(games):
        config = game.config
        rows.append(",".join([
            str(offset + r), dims.family.value, str(dims.k), str(dims.n),
            str(dims.d), str(config.T), adversary,
            config.noise_mode.value, str(config.clipped).lower(),
            _fmt(config.sigma), _fmt(config.epsilon), cell.spec.describe(),
            _fmt(eta), _fmt(gamma), str(cell.seed), _fmt(summary.regrets[r]),
            _fmt(summary.best_losses[r]), _fmt(summary.cumulative_losses[r]),
        ]))
    out.write("\n".join(rows) + "\n")


@contextlib.contextmanager
def _output_files(paths):
    """Each path opened for writing, in order; if anything raises while
    they are open, or a later one opens, every file opened here is removed,
    so a failed run leaves no output behind."""
    opened = []
    try:
        with contextlib.ExitStack() as stack:
            for path in paths:
                opened.append(stack.enter_context(open(path, "w")))
            yield opened
    except BaseException:
        for f in opened:
            os.remove(f.name)
        raise


def cmd_enumerate(args, stdout) -> int:
    action_set = build_action_set(args.family, args.k, args.n, args.d, args.cap)
    stdout.write(action_set.describe() + "\n")
    if action_set.cardinality <= action_set.cap:
        matrix = action_set.enumerate_actions()
        # each 0/1 row becomes one ASCII string of d bytes
        rows = (matrix + ord("0")).view(f"S{action_set.dims.d}").ravel()
        stdout.write(b"\n".join(rows).decode("ascii") + "\n")
    else:
        stdout.write(f"# not listing {action_set.cardinality} actions "
                     f"(cap {action_set.cap})\n")
    return 0


def cmd_simulate(args, stdout) -> int:
    action_set = build_action_set(args.family, args.k, args.n, args.d, args.cap)
    dims = action_set.dims
    spec = _learner_spec(args)
    factory = AdversaryFactory(T=args.T, noise_mode=ADVERSARIES[args.adversary],
                               clipped=args.clipped)
    cell = Cell(action_set, factory, spec, args.reps, args.seed)
    paths = [args.out] if args.out else []
    if args.record_hidden:  # main has checked that --out is given
        paths.insert(0, args.out + ".transcripts.txt")
    with _output_files(paths) as files:
        out = files[-1] if args.out else stdout
        # games are kept whole only to be written out; otherwise each is
        # scored where it ran and its losses freed before the next one draws
        [(_, games, summary)] = play_cells([cell], args.jobs,
                                           records=not args.record_hidden)
        out.write(CSV_HEADER + "\n")
        _csv_rows(out, cell, games, summary, 0)
        if args.record_hidden:
            for tr in games:
                files[0].write("\n".join(tr.to_lines()) + "\n")

    stdout.write(f"summary family={dims.family.value} k={dims.k} n={dims.n} "
                 f"d={dims.d} T={args.T} adversary={args.adversary} "
                 f"clipped={str(args.clipped).lower()} learner={spec.describe()} "
                 f"reps={args.reps} seed={args.seed}\n")
    stdout.write(f"mean_regret={_fmt(summary.mean)}\n")
    stdout.write(f"std_error={_fmt(summary.std_error)}\n")
    if summary.bound_value is not None:
        stdout.write(f"bound_value={_fmt(summary.bound_value)}\n")
        stdout.write(f"mean_minus_2se={_fmt(summary.mean - 2 * summary.std_error)}\n")
        stdout.write(f"exceeds_bound={str(summary.exceeds_bound()).lower()}\n")
    return 0


def cmd_sweep(args, parser, stdout) -> int:
    spec = _learner_spec(args)
    if len(args.k) < 3 or len(set(args.k)) < len(args.k):
        parser.error("sweep needs at least 3 k values, none repeated")
    if args.t_mult < 1:
        parser.error("--t-mult must be >= 1")
    # every cell is built, and so checked, before any game runs or --out
    # opens: a bad grid, --t-mult or cap fails first, not after a block of
    # games
    action_sets = [build_action_set(args.family, k, args.n, args.d, args.cap)
                   for k in args.k]
    cells = [Cell(s, AdversaryFactory(T=args.t_mult * s.dims.k * s.dims.d,
                                      noise_mode=mode, clipped=True),
                  spec, args.reps, args.seed)
             for mode in ADVERSARIES.values() for s in action_sets]
    given = f"d={args.d}" if args.n is None else f"n={args.n}"
    lines = [f"sweep family={args.family} {given} t_mult={args.t_mult} "
             f"learner={spec.describe()} reps={args.reps} seed={args.seed}"]
    exponents, played = {}, []
    with _output_files([args.out] if args.out else []) as files:
        out = files[0] if args.out else stdout
        out.write(CSV_HEADER + "\n")
        for i, (cell, records, summary) in enumerate(play_cells(cells, args.jobs)):
            _csv_rows(out, cell, records, summary, i * args.reps)
            dims, T = cell.action_set.dims, cell.factory.T
            name = _ADVERSARY_NAMES[cell.factory.noise_mode]
            played.append((cell, records, summary))
            lines.append(f"k={dims.k} d={dims.d} T={T} adversary={name} "
                         f"mean_regret={_fmt(summary.mean)} "
                         f"std_error={_fmt(summary.std_error)} "
                         f"normalized={_fmt(cell.normalized(summary))}")
            if len(played) == len(action_sets):
                exponents[name] = analysis.normalized_exponent(played)
                lines.append(f"exponent_{name}={_fmt(exponents[name])}")
                played = []
    lines.append(f"exponent_gap={_fmt(exponents['correlated'] - exponents['independent'])}")
    stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_verify(args, stdout) -> int:
    failures = 0
    for name in args.suite or gates.SUITES:
        ok, line = gates.run_suite(name, args.seed)
        stdout.write(line + "\n")
        failures += 0 if ok else 1
    return 1 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Every subcommand's parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="combandit",
        description="bandit combinatorial optimization lower-bound experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list an action set")
    _add_common_dims(p_enum)

    p_sim = sub.add_parser("simulate", help="replicated games, CSV + summary")
    _add_common_dims(p_sim)
    p_sim.add_argument("--T", type=int, required=True)
    p_sim.add_argument("--adversary", choices=list(ADVERSARIES),
                       default="correlated")
    p_sim.add_argument("--clipped", action="store_true")
    p_sim.add_argument("--record-hidden", action="store_true",
                       help="also write full transcripts next to --out")
    _add_run_flags(p_sim)

    p_sweep = sub.add_parser("sweep", help="regret-vs-k scaling exhibit")
    _add_common_dims(p_sweep, k_type=_k_list)
    p_sweep.add_argument("--t-mult", type=int, default=8,
                         help="horizon multiplier: T = t_mult * k * d")
    _add_run_flags(p_sweep)

    p_verify = sub.add_parser("verify", help="numerical verification suites")
    p_verify.add_argument("suite", nargs="*",
                          help=f"suites to run (default: all of "
                               f"{', '.join(gates.SUITES)})")
    p_verify.add_argument("--seed", type=_seed, default=20260810)
    for command_parser in sub.choices.values():
        # usage errors found after parsing print the subcommand's usage
        command_parser.set_defaults(parser=command_parser)
    return parser


def main(argv=None, stdout=None) -> int:
    stdout = stdout or sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_signed_values(argv))
    parser = args.parser
    try:
        if args.command == "enumerate":
            return cmd_enumerate(args, stdout)
        if args.command == "verify":
            unknown = [name for name in args.suite if name not in gates.SUITES]
            if unknown:
                parser.error(f"unknown suite {unknown[0]!r}; expected one of "
                             f"{', '.join(gates.SUITES)}")
            return cmd_verify(args, stdout)
        if args.reps < 1:
            parser.error("--reps must be >= 1")
        if args.jobs < 1:
            parser.error("--jobs must be >= 1")
        if args.command == "simulate":
            if args.T < 1:
                parser.error("--T must be >= 1")
            if args.record_hidden and not args.out:
                parser.error("--record-hidden requires --out")
            return cmd_simulate(args, stdout)
        return cmd_sweep(args, parser, stdout)
    except (ActionSetError, OSError, ValueError) as exc:
        parser.exit(2, f"error: {exc}\n")
    except Exp2SingularError as exc:
        # a runtime failure mid-run, not a usage error
        parser.exit(1, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
