"""Batch experiment runner.

Subcommands: ``enumerate`` (list an action set), ``simulate`` (replicated
games, CSV + summary), ``sweep`` (regret-vs-k scaling under both noise
structures), ``verify`` (numerical verification suites).  Identical
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
import math
import os
import sys

import numpy as np

from . import _kernels, analysis, environments, learners
from .action_sets import (
    ActionSetError,
    DEFAULT_ENUMERATION_CAP,
    Family,
    build_action_set,
    build_layered_path_graph,
    build_matching,
    build_multitask,
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
    # both files open before the first game; a run refused here leaves
    # neither behind
    with contextlib.ExitStack() as files:
        transcripts = (files.enter_context(open(args.out + ".transcripts.txt", "w"))
                       if args.record_hidden else None)
        try:
            out = files.enter_context(open(args.out, "w")) if args.out else stdout
        except OSError:
            if transcripts:
                transcripts.close()
                os.remove(transcripts.name)
            raise
        # games are kept whole only to be written out; otherwise each is
        # scored where it ran and its losses freed before the next one draws
        [(_, games, summary)] = play_cells([cell], args.jobs,
                                           records=not args.record_hidden)
        out.write(CSV_HEADER + "\n")
        _csv_rows(out, cell, games, summary, 0)
        if transcripts:
            for tr in games:
                transcripts.write("\n".join(tr.to_lines()) + "\n")

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
    exponents, points = {}, []
    with (open(args.out, "w") if args.out
          else contextlib.nullcontext(stdout)) as out:
        out.write(CSV_HEADER + "\n")
        for i, (cell, records, summary) in enumerate(play_cells(cells, args.jobs)):
            _csv_rows(out, cell, records, summary, i * args.reps)
            dims, T = cell.action_set.dims, cell.factory.T
            name = _ADVERSARY_NAMES[cell.factory.noise_mode]
            normalized = cell.normalized(summary)
            points.append((dims.k, normalized))
            lines.append(f"k={dims.k} d={dims.d} T={T} adversary={name} "
                         f"mean_regret={_fmt(summary.mean)} "
                         f"std_error={_fmt(summary.std_error)} "
                         f"normalized={_fmt(normalized)}")
            if len(points) == len(action_sets):
                # a zero or negative mean regret (a fixed learner on x*, an
                # adaptive one under independent noise) has no power law
                exponents[name] = (analysis.scaling_fit(points).exponent
                                   if all(r > 0 for _, r in points) else math.nan)
                lines.append(f"exponent_{name}={_fmt(exponents[name])}")
                points = []
    lines.append(f"exponent_gap={_fmt(exponents['correlated'] - exponents['independent'])}")
    stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_cardinalities(seed):
    grid = ([(build_multitask(k, n), n**k, f"multitask k={k} n={n}")
             for n in range(2, 9) for k in range(1, 9)]
            + [(build_layered_path_graph(k, k * fan), fan ** (k // 2),
                f"path k={k} d={k * fan}")
               for k in (2, 4, 6, 8) for fan in range(2, 9)]
            + [(build_matching(k, n),
                math.factorial(n) // math.factorial(n - k),
                f"matching k={k} n={n}")
               for n in range(1, 9) for k in range(1, n + 1)])
    checked = 0
    for s, expect, label in grid:
        if s.cardinality > 10**5:
            continue
        if s.enumerate_actions().shape[0] != expect:
            return False, label
        checked += 1
    return True, f"{checked} instances match their closed forms exactly"


def _suite_bijection(seed):
    graph = build_layered_path_graph(4, 16)
    image = graph.multitask_image()
    rng = environments.make_rng(seed)
    paths = graph.active_coords()
    mapped = np.array([np.flatnonzero(graph.path_to_multitask(bits))
                       for bits in graph.enumerate_actions()])
    for trial in range(1000):
        mt_loss = rng.random(image.dims.d)
        edge_loss = environments.shortest_path_losses(mt_loss, graph)
        if (_kernels.round_loss(edge_loss, paths)
                != _kernels.round_loss(mt_loss, mapped)).any():
            return False, f"loss mismatch on trial {trial}"
    return True, f"{len(paths)} paths x 1000 loss vectors, exact equality"


def _suite_variance(seed):
    worst = 0.0
    for k in (2, 4, 8):
        action_set = build_multitask(k, 2)
        for mode in (NoiseMode.CORRELATED, NoiseMode.INDEPENDENT):
            config = environments.make_adversary(
                action_set, T=1, seed_seq=seed, noise_mode=mode,
                sigma=0.1, epsilon=0.0)
            rep = analysis.variance_report(
                config, action_set.first_action(), samples=10**5,
                seed=seed + k)
            if not rep.relative_error < 0.05:
                return False, (f"k={k} {mode.value}: estimate {rep.estimate:.5f} "
                               f"vs target {rep.target:.5f}")
            worst = max(worst, rep.relative_error)
    return True, (f"observed-loss variance within 5% of k^2 s^2 / k s^2 targets "
                  f"(worst {worst:.2%})")


def _suite_kl(seed):
    from scipy.integrate import quad
    from scipy.stats import norm

    worst = 0.0
    for gap in (0.0, 0.01, 0.1, 1.0):
        for var in (0.01, 1.0, 25.0):
            closed = analysis.gaussian_kl(gap, var)
            s = math.sqrt(var)

            def integrand(x):
                return (norm.pdf(x, 0.0, s) *
                        (norm.logpdf(x, 0.0, s) - norm.logpdf(x, gap, s)))

            numeric, _ = quad(integrand, -12 * s, 12 * s + gap, limit=200)
            if not abs(closed - numeric) < 1e-6:
                return False, f"gap={gap} var={var}: {closed} vs {numeric}"
            worst = max(worst, abs(closed - numeric))
    return True, (f"closed form matches quadrature within 1e-6 on 12 cases "
                  f"(worst {worst:.2e})")


def _suite_lemma5(seed):
    action_set = build_multitask(2, 2)
    for j in (0, 1):
        total, expected = analysis.verify_tj_row_identity(
            lambda s, T: learners.RoundRobinLearner(), action_set, j=j, T=8,
            seed=seed)
        if total != expected:
            return False, f"row {j}: sum {total} != {expected}"
    return True, (f"sum of play counts over S = {total} = n^(k-1) T exactly "
                  f"on rows 0 and 1")


def _suite_lemma7(seed):
    action_set = build_matching(2, 4)
    bounds = []
    for j in (0, 1):
        lhs, rhs = analysis.verify_ranking_tj_bound(
            lambda s, T: learners.RoundRobinLearner(), action_set, j=j, T=8,
            seed=seed)
        if not lhs <= rhs + 1e-12:
            return False, f"row {j}: {lhs} > {rhs}"
        bounds.append(f"{lhs:.6f} <= {rhs:.6f}")
    return True, f"averaged play count of rows 0, 1: {', '.join(bounds)}"


def _suite_clip(seed):
    action_set = build_multitask(4, 2)
    config = AdversaryFactory(T=256, theorem4=True)(action_set, seed)
    report = analysis.verify_clip_event(config, reps=10**4, seed=seed + 1)
    if not report.within_bound:
        return False, (f"event rate {report.frequency} (99% upper "
                       f"{report.upper_conf_99:.2e}) vs epsilon/8 = "
                       f"{report.epsilon_over_8:.2e}")
    # every tested T is >= k*d = 32, where the clipped construction applies
    for T in (32, 64, 128, 256, 1024, 4096, 2**16, 2**20):
        eps = environments.compute_epsilon(environments.compute_sigma(T),
                                           action_set.dims, T)
        if not eps <= 0.25:
            return False, f"epsilon {eps} > 1/4 at T={T}"
    return True, (f"0.25-exceedance rate {report.frequency:.2e} <= "
                  f"epsilon/8 = {report.epsilon_over_8:.2e} at 99% confidence; "
                  f"epsilon <= 1/4 at the 8 tested T from 32 to 2^20")


def _suite_estimator(seed):
    action_set = build_multitask(2, 2)
    learner = learners.EnumeratedExp2Learner(eta=0.1, gamma=0.2)
    learner.start(action_set, horizon=4, rng=environments.make_rng(seed))
    learner.act([0.0])  # the first round's play distribution
    probs = learner.probs[0]
    rng = environments.make_rng(seed + 1)
    loss = rng.random(action_set.dims.d)
    matrix = action_set.enumerate_actions().astype(np.float64)
    expect = np.zeros(matrix.shape[0])
    try:
        for a in range(matrix.shape[0]):
            lam = float(np.dot(matrix[a], loss))
            expect += probs[a] * learner.estimates([probs], [a], [lam])[0]
    except Exp2SingularError as exc:
        return False, str(exc)
    truth = matrix @ loss
    if not np.allclose(expect, truth, atol=1e-10):
        return False, f"bias {np.abs(expect - truth).max():.2e}"
    return True, "estimator unbiased on span(S) within 1e-10"


SUITE_FUNCS = {
    "cardinalities": _suite_cardinalities,
    "bijection": _suite_bijection,
    "variance": _suite_variance,
    "kl": _suite_kl,
    "lemma5": _suite_lemma5,
    "lemma7": _suite_lemma7,
    "clip": _suite_clip,
    "estimator": _suite_estimator,
}


def cmd_verify(args, stdout) -> int:
    failures = 0
    for name in args.suite or SUITE_FUNCS:
        ok, detail = SUITE_FUNCS[name](args.seed)
        status = "PASS" if ok else "FAIL"
        stdout.write(f"{status} {name}: {detail}\n")
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
                               f"{', '.join(SUITE_FUNCS)})")
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
            unknown = [name for name in args.suite if name not in SUITE_FUNCS]
            if unknown:
                parser.error(f"unknown suite {unknown[0]!r}; expected one of "
                             f"{', '.join(SUITE_FUNCS)}")
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
