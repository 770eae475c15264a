"""Span tracing of combandit's layers, installed from outside the package.

``Tracer.install`` replaces the public entry points of each module with
wrappers that record one span per call (name, start, end, parent, rounds,
items) in memory; ``uninstall`` puts the originals back.  Nothing under
``src/`` knows about it.  A layer is the module a span belongs to; a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

LAYERS = ("action_sets", "environments", "learners", "_kernels", "engine",
          "analysis", "cli")
# learner kinds with their own per-layer figures, in BENCHMARK.json order
KINDS = ("fixed", "uniform", "round_robin", "exp3", "exp2")

# kernel function -> learner kind it plays
KERNEL_KINDS = {
    "play_fixed": "fixed",
    "play_round_robin": "round_robin",
    "play_uniform_blocks": "uniform",
    "play_uniform_matching": "uniform",
    "play_exp3_multitask": "exp3",
    "play_exp2": "exp2",
}


@dataclass
class Span:
    name: str
    layer: str
    parent: int
    start: float
    end: float = 0.0
    rounds: int = 0
    items: int = 0
    kind: str = ""
    fresh: bool = False
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans around combandit's module entry points."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, layer, fn, describe=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, open_[-1] if open_ else -1, 0.0)
            if describe is not None:
                describe(span, args, kwargs)
            spans.append(span)
            open_.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.duration

        return traced

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def _patch_function(self, fn, name, layer, describe=None):
        """Replace ``fn`` under every name a combandit module binds it to."""
        wrapped = self._wrap(name, layer, fn, describe)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "combandit" and not mod_name.startswith("combandit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapped)

    def install(self) -> None:
        from combandit import _kernels, action_sets, analysis, cli, engine, learners

        def replicate_desc(span, args, kwargs):
            span.kind = getattr(args[0], "kind", "custom")
            reps = kwargs.get("reps", args[3] if len(args) > 3 else 0)
            span.rounds = reps * args[1].T

        def draw_desc(span, args, kwargs):
            span.rounds = args[0].T

        def play_desc(span, args, kwargs):
            span.kind = args[0].kind
            span.rounds = args[2].shape[0]

        def hindsight_desc(span, args, kwargs):
            span.items = args[1].cardinality

        def enum_desc(span, args, kwargs):
            span.fresh = args[0]._matrix is None
            span.items = args[0].cardinality

        self._patch_function(cli.main, "cli.main", "cli")
        self._patch_function(engine.replicate, "engine.replicate", "engine",
                             replicate_desc)
        self._patch(engine.AdversaryFactory, "__call__", self._wrap(
            "environments.adversary", "environments",
            engine.AdversaryFactory.__call__))
        self._patch_function(engine.draw_losses, "environments.draw_losses",
                             "environments", draw_desc)
        self._patch_function(learners.play_with_kernel,
                             "learners.play_with_kernel", "learners", play_desc)
        for fn_name, kind in KERNEL_KINDS.items():
            def kernel_desc(span, args, kwargs, kind=kind):
                span.kind = kind
                span.rounds = args[0].shape[0]
            self._patch_function(getattr(_kernels, fn_name),
                                 f"_kernels.{fn_name}", "_kernels", kernel_desc)
        self._patch_function(analysis.hindsight_best, "analysis.hindsight_best",
                             "analysis", hindsight_desc)
        for method in ("enumerate_actions", "active_coords"):
            self._patch(action_sets.ActionSet, method, self._wrap(
                f"action_sets.{method}", "action_sets",
                getattr(action_sets.ActionSet, method), enum_desc))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- derived per-layer metrics ---------------------------------------------

    def metrics(self, wall_s: float, games: int, rounds: int,
                csv_bytes: int) -> dict[str, float]:
        """Per-layer figures for a traced phase of ``wall_s`` seconds that
        completed ``games`` games of ``rounds`` rounds in total."""
        if self._open:
            raise RuntimeError("metrics requested while spans are still open")
        spans = self.spans
        self_s = {layer: 0.0 for layer in LAYERS}
        for s in spans:
            self_s[s.layer] += s.self_s

        def total(name, kind=None):
            sel = [s for s in spans if s.name.startswith(name)
                   and (kind is None or s.kind == kind)]
            return (sum(s.duration for s in sel), sum(s.rounds for s in sel),
                    len(sel))

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        out = {}
        for kind in KINDS:
            play_s, play_rounds, play_games = total("learners.play_with_kernel", kind)
            kern_s, kern_rounds, _ = total("_kernels.play_", kind)
            rep_s, rep_rounds, _ = total("engine.replicate", kind)
            out[f"learners.play_us_per_round.{kind}"] = per(play_s, play_rounds, 1e6)
            out[f"_kernels.kernel_us_per_round.{kind}"] = per(kern_s, kern_rounds, 1e6)
            out[f"learners.dispatch_us_per_game.{kind}"] = per(
                play_s - kern_s, play_games, 1e6)
            out[f"engine.replicate_us_per_round.{kind}"] = per(rep_s, rep_rounds, 1e6)

        draw_s, draw_rounds, _ = total("environments.draw_losses")
        adv_s, _, adv_calls = total("environments.adversary")
        out["environments.draw_losses_us_per_round"] = per(draw_s, draw_rounds, 1e6)
        out["environments.adversary_us_per_game"] = per(adv_s, adv_calls, 1e6)
        out["engine.self_us_per_round"] = per(self_s["engine"], rounds, 1e6)

        hindsight = [s for s in spans if s.name == "analysis.hindsight_best"]
        out["analysis.hindsight_us_per_game"] = per(self_s["analysis"], games, 1e6)
        out["analysis.hindsight_calls_per_game"] = per(len(hindsight), games)
        out["analysis.actions_scored_per_game"] = per(
            sum(s.items for s in hindsight), games)

        fresh = [s for s in spans
                 if s.name == "action_sets.enumerate_actions" and s.fresh]
        out["action_sets.enumerate_s"] = per(self_s["action_sets"], len(fresh))
        out["action_sets.cardinality"] = max((s.items for s in fresh), default=0)

        out["cli.self_us_per_game"] = per(self_s["cli"], games, 1e6)
        out["cli.csv_bytes"] = per(csv_bytes, games)

        for layer in LAYERS:
            out[f"{layer}.share"] = per(self_s[layer], wall_s)
        out["trace.coverage"] = per(sum(self_s.values()), wall_s)
        out["games"] = games
        out["rounds"] = rounds
        return out
