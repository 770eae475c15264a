"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest -s`` to see them live).

Criteria cover: exact cardinalities, the exact path/multitask loss
correspondence, observed-loss variance targets, the closed-form KL kernel
against quadrature, the exact play-count identity and its matching-family
bound, the clipped lower-bound exhibit for every implemented learner, the
regret-vs-k scaling exponents, the clip-event tail, and byte determinism of
the CLI.

Criteria 1-5 and 8 run the ``combandit verify`` suites at seed 20260810;
each check, its range and its bound live only in the suite.  Criterion 5
also runs the play-count identity for a loss-reactive learner that only
this file defines.
"""

import io
import math

import numpy as np

from combandit import (
    AdversaryFactory,
    Learner,
    LearnerSpec,
    NoiseMode,
    build_multitask,
    lower_bound_value,
    replicate,
    scaling_fit,
    summarize_regret,
    verify_tj_row_identity,
)
from combandit.cli import main as cli_main


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _verify(criterion: str, suite: str) -> None:
    out = io.StringIO()
    code = cli_main(["verify", suite, "--seed", "20260810"], stdout=out)
    line = out.getvalue().strip()
    report(criterion, code == 0 and line.startswith(f"PASS {suite}: "), line)


def test_criterion_1_cardinality_identities():
    """Enumerated sizes equal the closed forms exactly for every admissible
    instance with at most 10^5 actions, scanning k <= 8 and n (or fan) <= 8."""
    _verify("criterion-1 cardinalities", "cardinalities")


def test_criterion_2_path_loss_bijection():
    """Every path of the (k=4, d=16) graph carries exactly the loss of its
    multitask image, for 1000 random loss vectors, with exact equality."""
    _verify("criterion-2 bijection", "bijection")


def test_criterion_3_variance_kernel():
    """Sample variance of the observed loss lies within 5% of k^2 sigma^2
    (correlated) and k sigma^2 (independent) at sigma=0.1, 10^5 draws."""
    _verify("criterion-3 variance", "variance")


def test_criterion_4_kl_kernel():
    """Closed-form equal-variance Gaussian KL matches quadrature within 1e-6
    on the 12-case grid."""
    _verify("criterion-4 kl", "kl")


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
    _verify("criterion-5 play-count identity (round-robin)", "lemma5")
    _verify("criterion-5 matching bound (round-robin)", "lemma7")
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
    T, reps = 256, 400
    bound = lower_bound_value(s.dims, T)
    factory = AdversaryFactory(T=T, theorem4=True)
    details = []
    for i, kind in enumerate(("fixed", "uniform", "round_robin", "exp3", "exp2")):
        spec = LearnerSpec(kind=kind)
        records = replicate(spec, factory, s, reps=reps, seed=7000 + i,
                            records=True)
        summary = summarize_regret(records, bound)
        assert summary.exceeds_bound(), (kind, summary.mean, summary.std_error, bound)
        details.append(f"{kind}:{summary.mean:.3f}±{summary.std_error:.3f}")
    report("criterion-6 lower-bound exhibit", True,
           f"bound {bound:.4f}; " + " ".join(details))


def _sweep_points(spec: LearnerSpec, noise_mode: NoiseMode, reps: int, seed: int):
    points = []
    for k in (2, 4, 8):
        s = build_multitask(k, 2)
        d = s.dims.d
        T = 8 * k * d
        factory = AdversaryFactory(T=T, noise_mode=noise_mode, clipped=True,
                                   theorem4=(noise_mode is NoiseMode.CORRELATED))
        records = replicate(spec, factory, s, reps=reps, seed=seed + k,
                            records=True)
        points.append((k, summarize_regret(records).mean / math.sqrt(d * T)))
    return points


def test_criterion_7_scaling_exhibit():
    """Sweep k in {2,4,8} at n=2, T=8kd.  The uniform learner's fitted
    exponent of sqrt(dT)-normalized regret lies in [1.25, 1.75]; per-task
    EXP3 (centered surrogate, exhibit rate) shows a slope at least 0.25
    steeper under correlated noise than under the independent control."""
    uniform_fit = scaling_fit(_sweep_points(
        LearnerSpec(kind="uniform"), NoiseMode.CORRELATED, reps=400, seed=8100))
    assert 1.25 <= uniform_fit.exponent <= 1.75, uniform_fit

    exp3 = LearnerSpec(kind="exp3", baseline="mean", eta="exhibit",
                       gamma=0.1)
    corr = scaling_fit(_sweep_points(exp3, NoiseMode.CORRELATED,
                                     reps=800, seed=8200)).exponent
    ind = scaling_fit(_sweep_points(exp3, NoiseMode.INDEPENDENT,
                                    reps=800, seed=8300)).exponent
    assert corr - ind >= 0.25, (corr, ind)
    report("criterion-7 scaling exhibit", True,
           f"uniform exponent {uniform_fit.exponent:.3f}; exp3 correlated "
           f"{corr:.3f} vs independent {ind:.3f} (gap {corr - ind:+.3f})")


def test_criterion_8_clip_event_bound():
    """At T=256 the Monte Carlo rate of any shared draw exceeding 1/4 over
    10^4 games stays below epsilon/8 at 99% binomial confidence, and the gap
    schedule never exceeds 1/4 for any tested T >= kd."""
    _verify("criterion-8 clip event", "clip")


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
