"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest -s`` to see them live).

Criteria cover: exact cardinalities, the exact path/multitask loss
correspondence, observed-loss variance targets, the closed-form KL kernel
against quadrature, the exact play-count identity and its matching-family
bound, the clipped lower-bound exhibit for every implemented learner, the
regret-vs-k scaling exponents, the clip-event tail, and byte determinism of
the CLI.

Criteria 1-5 and 8 run the ``combandit verify`` suites at seed 20260810
and assert their exact ``PASS`` lines; each check, its range and its bound
live only in the suite.  Criterion 5 also runs the play-count identity for
a loss-reactive learner that only this file defines.
"""

import io

import numpy as np
import pytest

from combandit import (
    AdversaryFactory,
    Cell,
    Learner,
    LearnerSpec,
    NoiseMode,
    build_multitask,
    lower_bound_value,
    normalized_exponent,
    play_cells,
    verify_tj_row_identity,
)
from combandit.cli import main as cli_main
from combandit.gates import Gate, run_suite


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _verify(criterion: str, suite: str, expect: str) -> None:
    ok, line = run_suite(suite, 20260810)
    report(criterion, ok and line == f"PASS {suite}: {expect}", line)


def test_criterion_1_cardinality_identities():
    """Enumerated sizes equal the closed forms exactly for every admissible
    instance with at most 10^5 actions, scanning k <= 8 and n (or fan) <= 8."""
    _verify("criterion-1 cardinalities", "cardinalities",
            "111 instances match their closed forms exactly")


def test_criterion_2_path_loss_bijection():
    """Every path of the (k=4, d=16) graph carries exactly the loss of its
    multitask image, for 1000 random loss vectors, with exact equality."""
    _verify("criterion-2 bijection", "bijection",
            "16 paths x 1000 loss vectors, exact equality")


def test_criterion_3_variance_kernel():
    """Sample variance of the observed loss lies within 5% of k^2 sigma^2
    (correlated) and k sigma^2 (independent) at sigma=0.1, 10^5 draws."""
    _verify("criterion-3 variance", "variance",
            "observed-loss variance within 5% of k^2 s^2 / k s^2 targets "
            "(worst 0.95%)")


def test_criterion_4_kl_kernel():
    """Closed-form equal-variance Gaussian KL matches quadrature within 1e-6
    on the 12-case grid."""
    _verify("criterion-4 kl", "kl", "closed form matches quadrature within "
            "1e-6 on 12 cases (worst 7.11e-15)")


class _AcceptanceGreedy(Learner):
    """Loss-reactive deterministic probe for the play-count identities."""

    deterministic = True

    def start(self, action_set, horizon, rng):
        self.k, self.n = action_set.dims.k, action_set.dims.n
        self.sums = np.zeros((self.k, self.n))
        self.counts = np.zeros((self.k, self.n), dtype=np.int64)

    def choose(self):
        bits = np.zeros(self.k * self.n, dtype=np.uint8)
        self.last = []
        for j in range(self.k):
            order = sorted(range(self.n),
                           key=lambda a: (self.counts[j, a] > 0,
                                          self.sums[j, a] / max(self.counts[j, a], 1),
                                          a))
            self.last.append(order[0])
            bits[j * self.n + order[0]] = 1
        return bits

    def observe(self, observed_loss):
        for j, arm in enumerate(self.last):
            self.sums[j, arm] += observed_loss
            self.counts[j, arm] += 1


def test_criterion_5_play_count_identities():
    """Exact T/n averaging identity on (n=2, k=2, T=8) for deterministic
    learners, and the T/(n-k+1) matching bound over all 12 matchings of
    (k=2, n=4, T=8), on rows 0 and 1."""
    _verify("criterion-5 play-count identity (round-robin)", "lemma5",
            "sum of play counts over S = 16 = n^(k-1) T exactly on rows 0 and 1")
    _verify("criterion-5 matching bound (round-robin)", "lemma7",
            "averaged play count of rows 0, 1: 2.000000 <= 2.666667, "
            "2.000000 <= 2.666667")
    s = build_multitask(2, 2)
    for j in (0, 1):
        total, expected = verify_tj_row_identity(
            lambda st, T: _AcceptanceGreedy(), s, j=j, T=8, seed=500 + j)
        assert total == expected == 2 * 8, (j, total)
    report("criterion-5 play-count identity (greedy)", True,
           "sum T_j = n^(k-1) T exactly on rows 0 and 1")


def test_criterion_6_lower_bound_exhibit():
    """On multitask (k=4, n=2, T=256) with the clipped correlated adversary,
    every implemented learner's mean regret over 400 replications clears the
    sigma k^{3/2} sqrt(dT)/16 floor by two standard errors."""
    s = build_multitask(4, 2)
    bound = lower_bound_value(s.dims, 256)
    factory = AdversaryFactory(T=256, theorem4=True)
    cells = [Cell(s, factory, LearnerSpec(kind=kind), reps=400, seed=7000 + i)
             for i, kind in enumerate(("fixed", "uniform", "round_robin",
                                       "exp3", "exp2"))]
    details = []
    for cell, _, summary in play_cells(cells):
        kind = cell.spec.kind
        assert summary.bound_value == bound, (kind, summary.bound_value)
        assert summary.exceeds_bound(), (kind, summary.mean, summary.std_error, bound)
        details.append(f"{kind}:{summary.mean:.3f}±{summary.std_error:.3f}")
    report("criterion-6 lower-bound exhibit", True,
           f"bound {bound:.4f}; " + " ".join(details))


def _exponent(spec: LearnerSpec, noise_mode: NoiseMode, reps: int, seed: int):
    """Fitted power of k in the sqrt(dT)-normalized mean regret over
    k in {2, 4, 8} at n=2, T=8kd, each k seeded seed + k.  Played at
    jobs=2, which gives the serial results bit for bit."""
    cells = []
    for k in (2, 4, 8):
        s = build_multitask(k, 2)
        factory = AdversaryFactory(T=8 * k * s.dims.d, noise_mode=noise_mode,
                                   clipped=True)
        cells.append(Cell(s, factory, spec, reps=reps, seed=seed + k))
    return normalized_exponent(play_cells(cells, jobs=2))


def _scaling_gates(uniform: float, gap: float) -> tuple[Gate, Gate]:
    return (Gate("uniform exponent", uniform, 1.25, 1.75),
            Gate("exp3 exponent gap (correlated - independent)", gap, 0.25))


def test_criterion_7_scaling_exhibit():
    """Sweep k in {2,4,8} at n=2, T=8kd.  The uniform learner's fitted
    exponent of sqrt(dT)-normalized regret lies in [1.25, 1.75]; per-task
    EXP3 (centered surrogate, exhibit rate) shows a slope at least 0.25
    steeper under correlated noise than under the independent control."""
    uniform = _exponent(LearnerSpec(kind="uniform"), NoiseMode.CORRELATED,
                        reps=400, seed=8100)
    exp3 = LearnerSpec(kind="exp3", baseline="mean", eta="exhibit",
                       gamma=0.1)
    corr = _exponent(exp3, NoiseMode.CORRELATED, reps=800, seed=8200)
    ind = _exponent(exp3, NoiseMode.INDEPENDENT, reps=800, seed=8300)
    for gate in _scaling_gates(uniform, corr - ind):
        assert gate.passed, str(gate)
    report("criterion-7 scaling exhibit", True,
           f"uniform exponent {uniform:.3f}; exp3 correlated "
           f"{corr:.3f} vs independent {ind:.3f} (gap {corr - ind:+.3f})")


@pytest.mark.parametrize("uniform", [1.25, 1.75])
def test_criterion_7_window_ends_pass(uniform):
    assert all(gate.passed for gate in _scaling_gates(uniform, 0.25))


def test_criterion_8_clip_event_bound():
    """At T=256 the Monte Carlo rate of any shared draw exceeding 1/4 over
    10^4 games stays below epsilon/8 at 99% binomial confidence, and the gap
    schedule never exceeds 1/4 for any tested T >= kd."""
    _verify("criterion-8 clip event", "clip",
            "0.25-exceedance rate 0.00e+00 <= epsilon/8 = 8.21e-04 at 99% "
            "confidence; epsilon <= 1/4 at the 8 tested T from 32 to 2^20")


def test_criterion_9_byte_determinism(tmp_path):
    """Repeating any run with the same seed yields byte-identical CSV."""
    args = ["simulate", "--family", "multitask", "--k", "4", "--n", "2",
            "--T", "64", "--clipped", "--learner", "exp3",
            "--reps", "6", "--seed", "77"]
    files = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        out = io.StringIO()
        assert cli_main(args + ["--out", str(path)], stdout=out) == 0
        files.append(path.read_bytes())
    assert files[0] == files[1]

    sweep_args = ["sweep", "--family", "multitask", "--k", "2,4,8", "--n", "2",
                  "--t-mult", "2", "--learner", "uniform", "--reps", "3",
                  "--seed", "55"]
    texts = []
    for _ in range(2):
        out = io.StringIO()
        assert cli_main(sweep_args, stdout=out) == 0
        texts.append(out.getvalue())
    assert texts[0] == texts[1]
    report("criterion-9 determinism", True,
           "simulate CSV and sweep report byte-identical across reruns")
