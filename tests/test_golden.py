"""Golden output digests: small ``combandit`` runs whose stdout (CSV rows and
summary) must stay byte-identical across refactors.

Rerun determinism (criterion 9) compares two runs of the same code; these
digests compare against output recorded once, so they also catch a change
that alters the bytes consistently.  Every learner kind is covered: exp3 on
the multitask family (the only one it accepts), the others on all three
families, plus independent-noise and sweep runs, and the ``enumerate``
listing of each family (one of them over its cap).  The ``--record-hidden``
transcript files are pinned the same way: their action strings, observed
losses, noise column (empty under independent noise) and hidden loss rows.
"""

import hashlib
import io

import pytest

from combandit.cli import main

FAMILIES = {
    "multitask": ["--family", "multitask", "--k", "2", "--n", "2"],
    "path": ["--family", "path", "--k", "4", "--d", "8"],
    "matching": ["--family", "matching", "--k", "2", "--n", "3"],
}
RUN = ["--reps", "3", "--seed", "5"]


def _simulate(family, *flags):
    return ["simulate", *FAMILIES[family], "--T", "32", "--clipped", *flags, *RUN]


CASES = {
    "fixed-multitask": (
        _simulate("multitask", "--learner", "fixed"),
        "ef107879d69b974e5f0d03646eaf66bcaa16d5a03a41a69f01378d6012f849a4"),
    "uniform-multitask": (
        _simulate("multitask", "--learner", "uniform"),
        "8c795a1597ec81835150c11543e577ab74c395534497fb616dd52c746ac6baea"),
    "round_robin-multitask": (
        _simulate("multitask", "--learner", "round_robin"),
        "17b8b0b807720935e9df37eceaafefb89f11cf8ec899380e98bf44d00623adcf"),
    "exp2-multitask": (
        _simulate("multitask", "--learner", "exp2"),
        "13d1d5e627e87afc2bdc03ac245bab0bd2c912525587908c56e332e921acb909"),
    "exp3-multitask": (
        _simulate("multitask", "--learner", "exp3"),
        "62cfe9326e246b16d80d6bed0dfb32a9e9c15d2f706f56dd2cb46480093308a1"),
    "exp3-multitask-fixed-baseline": (
        _simulate("multitask", "--learner", "exp3", "--baseline", "1.0"),
        "6fae4ff4bc0066aa0264733065976802a0f86a066f142fab5af08323adef06f7"),
    "exp3-multitask-independent": (
        _simulate("multitask", "--adversary", "independent", "--learner", "exp3",
                  "--baseline", "mean", "--eta", "exhibit",
                  "--gamma", "0.1"),
        "988b6cad0a0bfc497b9816aaf3eb87437943a80bbe2f1540850b6bdf35f16440"),
    "fixed-path": (
        _simulate("path", "--learner", "fixed"),
        "e02635ed5658c4179a90dc61e771f89341434fa16657e6b3d759f23be84bddaa"),
    "uniform-path": (
        _simulate("path", "--learner", "uniform"),
        "72f971a8f2bae1df1e93131a4aa590bd09598c18fa28ef7bf310edda3c0f5b0d"),
    "round_robin-path": (
        _simulate("path", "--learner", "round_robin"),
        "10e6c02a86bbacc7b6d8b8fd262f2f2452318e59dcf319b9900b3074f97e5379"),
    "exp2-path": (
        _simulate("path", "--learner", "exp2"),
        "f92927d7cba8cf9c823cb1fc08b040f91ebb9985831ba7bb9c917a090364e3af"),
    "fixed-matching": (
        _simulate("matching", "--learner", "fixed"),
        "5c613248f4187b608ea9b01eaeeefcfd0ef2fcf2eb5ba7703a196933fa01c941"),
    "uniform-matching": (
        _simulate("matching", "--learner", "uniform"),
        "43c285558ab50e4be49a30cc26d4c92ccc78f7dd9237ec69081d25da95c5d5b3"),
    "round_robin-matching": (
        _simulate("matching", "--learner", "round_robin"),
        "ca8ba570112bdbb6e2f87d8c40346fad65e7c1e0c0d7f01c04fd357f9d008a81"),
    "exp2-matching": (
        _simulate("matching", "--learner", "exp2"),
        "6583f620284b4357731f4141cd9d1caaa4ffa5a37438cc862bf31bbafb22538b"),
    "sweep-uniform-multitask": (
        ["sweep", "--family", "multitask", "--k", "2,4,8", "--n", "2",
         "--t-mult", "2", "--learner", "uniform", "--reps", "3", "--seed", "13"],
        "d76db74b7570b619f5b4f85dac35c6226bd5b1e03d3fc3ce9718ea42881985b8"),
    "enumerate-multitask": (
        ["enumerate", "--family", "multitask", "--k", "3", "--n", "4"],
        "57ab379bf2649737ddf3c0796c319aafd6b9372765633f28a0f1f10d4e057dbd"),
    "enumerate-multitask-over-cap": (
        ["enumerate", "--family", "multitask", "--k", "4", "--n", "3", "--cap", "10"],
        "0eca0d6c254e5ae0791f7e6355f5dcdff80218b7c10fd95335115cc87b4ea815"),
    "enumerate-path": (
        ["enumerate", "--family", "path", "--k", "8", "--d", "32"],
        "0ef1eb809ffb93e882ac665f1160be4d38cbfa7ac8108d73743bbc693288a685"),
    "enumerate-matching": (
        ["enumerate", "--family", "matching", "--k", "6", "--n", "8"],
        "86abf8fb44f31588a99954cbc84d6b443b4e1462aae4b4ecb14824d33e0b6fcf"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_digest_is_pinned(name):
    argv, digest = CASES[name]
    out = io.StringIO()
    assert main(argv, stdout=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


RECORD_HIDDEN = {
    "round_robin-path": (
        [*FAMILIES["path"], "--T", "32", "--clipped", "--learner", "round_robin"],
        "f4d7b6bc15316fd4fe8e7e28dab2bf9367ad4fb24cef1a72b091640bcb21b813"),
    "exp3-multitask-independent": (
        [*FAMILIES["multitask"], "--T", "32", "--adversary", "independent",
         "--learner", "exp3"],
        "c5e8d3684c3eff30ba915a0fed16d4a51d83c8a4d2645b1b4d41037d59258a62"),
    "uniform-matching": (
        [*FAMILIES["matching"], "--T", "32", "--clipped", "--learner", "uniform"],
        "86917b9bb310ed3adac473afde93b98f7f5440feb324cc3871fb62365dfa3a99"),
    "exp2-multitask": (
        [*FAMILIES["multitask"], "--T", "32", "--clipped", "--learner", "exp2"],
        "86987fd5a05ef0d430e2b04d8d8fd1a4df14b132338da6984b3d1114bb9c8e78"),
}


@pytest.mark.parametrize("name", sorted(RECORD_HIDDEN))
def test_record_hidden_digest_is_pinned(name, tmp_path):
    flags, digest = RECORD_HIDDEN[name]
    out = tmp_path / "run.csv"
    argv = ["simulate", *flags, "--reps", "2", "--seed", "5", "--out", str(out),
            "--record-hidden"]
    assert main(argv, stdout=io.StringIO()) == 0
    written = (tmp_path / "run.csv.transcripts.txt").read_bytes()
    assert hashlib.sha256(written).hexdigest() == digest
