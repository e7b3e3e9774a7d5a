"""Per-layer tracing from outside the package.

``Tracer.install`` rebinds each traced function of ``strongedge`` to a
wrapper that records a span (name, start, end, parent, job id).  Every
module attribute that refers to the same function object is rebound too,
so names that ``cli`` or another module imported are traced as well.  No
file under ``src/`` is touched.

Spans are kept in memory and written once, by ``write``.  A span's self
time is its duration minus the time of its direct children; the job's root
span is ``cli``, so ``cli`` self time is the part of a job spent outside
every traced function.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

#: (module, attribute, span name).  "Class.method" names a method.
SPANS = (
    ("graph", "parse_graph", "graph.parse"),
    ("graph", "Graph.girth", "graph.girth"),
    ("graph", "Graph.subgraph_without_edges", "graph.rebuild"),
    ("graph", "Graph.n2_edges", "graph.n2"),
    ("embedding", "planar_embed", "embedding.planar_embed"),
    ("girth6", "colour_girth6", "girth6.loop"),
    ("girth6", "find_configuration", "girth6.find"),
    ("girth6", "plan_reduction", "girth6.plan"),
    ("girth6", "extend", "girth6.extend"),
    ("exact", "strong_chromatic_index", "exact.solve"),
    ("exact", "is_strong_k_colourable", "exact.decide"),
    ("pipeline", "colour_pipeline", "pipeline.loop"),
    ("pipeline", "vizing_edge_colour", "pipeline.vizing"),
    ("pipeline", "class1_edge_colour", "pipeline.class1"),
    ("pipeline", "conflict_graph", "pipeline.conflict"),
    ("pipeline", "colour_planar_nodes", "pipeline.node_colour"),
    ("pipeline", "compose", "pipeline.compose"),
    ("colouring", "verify_strong", "colouring.verify"),
    ("discharging", "initial_charges", "discharging.initial"),
    ("discharging", "apply_rules", "discharging.rules"),
    ("discharging", "audit", "discharging.audit"),
)

#: Functions that are counted but get no span, so their time stays with
#: the caller: the five-colour fallback is part of node colouring.
COUNTED = (("pipeline", "_five_colour_planar", "pipeline.five_colour_classes"),)

ROOT = "cli"

#: Printed per-layer metrics: name -> (unit, how it is derived).
#: "self:X" is the self time of span X, "calls:X" its call count, "count:X"
#: a counter fed by a result hook.
LAYER_METRICS = {
    "cli.self_s": ("s", "self:cli"),
    "cli.verify_calls": ("count", "count:cli.verify_calls"),
    "graph.parse_s": ("s", "self:graph.parse"),
    "graph.girth_s": ("s", "self:graph.girth"),
    "graph.girth_calls": ("count", "calls:graph.girth"),
    "graph.rebuild_s": ("s", "self:graph.rebuild"),
    "graph.rebuild_calls": ("count", "calls:graph.rebuild"),
    "graph.n2_s": ("s", "self:graph.n2"),
    "graph.n2_calls": ("count", "calls:graph.n2"),
    "embedding.planar_embed_s": ("s", "self:embedding.planar_embed"),
    "embedding.planar_embed_calls": ("count", "calls:embedding.planar_embed"),
    "girth6.loop_s": ("s", "self:girth6.loop"),
    "girth6.find_s": ("s", "self:girth6.find"),
    "girth6.find_calls": ("count", "calls:girth6.find"),
    "girth6.plan_s": ("s", "self:girth6.plan"),
    "girth6.extend_s": ("s", "self:girth6.extend"),
    "girth6.steps": ("count", "calls:girth6.extend"),
    **{f"girth6.config.C{i}": ("count", f"count:girth6.config.C{i}") for i in range(1, 10)},
    "exact.solve_s": ("s", "self:exact.solve"),
    "exact.decide_s": ("s", "self:exact.decide"),
    "exact.decide_calls": ("count", "calls:exact.decide"),
    "exact.nodes": ("count", "count:exact.nodes"),
    "exact.nodes_per_s": ("1/s", "derived"),
    "pipeline.loop_s": ("s", "self:pipeline.loop"),
    "pipeline.vizing_s": ("s", "self:pipeline.vizing"),
    "pipeline.class1_s": ("s", "self:pipeline.class1"),
    "pipeline.class1_hit_ratio": ("ratio", "derived"),
    "pipeline.conflict_s": ("s", "self:pipeline.conflict"),
    "pipeline.node_colour_s": ("s", "self:pipeline.node_colour"),
    "pipeline.five_colour_classes": ("count", "count:pipeline.five_colour_classes"),
    "pipeline.compose_s": ("s", "self:pipeline.compose"),
    "colouring.verify_s": ("s", "self:colouring.verify"),
    "colouring.verify_calls": ("count", "calls:colouring.verify"),
    "discharging.initial_s": ("s", "self:discharging.initial"),
    "discharging.rules_s": ("s", "self:discharging.rules"),
    "discharging.audit_s": ("s", "self:discharging.audit"),
    "discharging.ledger_size": ("count", "count:discharging.ledger_size"),
    "trace.overhead": ("ratio", "derived"),
}


def _on_find(tracer: "Tracer", cfg) -> None:
    if cfg is not None:
        tracer.counts[f"girth6.config.{cfg.kind}"] += 1


def _on_class1(tracer: "Tracer", ec) -> None:
    tracer.counts["pipeline.class1_found"] += ec is not None


def _on_rules(tracer: "Tracer", final) -> None:
    tracer.counts["discharging.ledger_size"] += len(final.ledger)


RESULT_HOOKS = {
    "girth6.find": _on_find,
    "pipeline.class1": _on_class1,
    "discharging.rules": _on_rules,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.job = -1
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._open: list[list] = []  # [span index, name, child seconds]
        self._searches: list = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run ``fn`` inside a span called ``name``."""
        parent = self._open[-1] if self._open else None
        parent_index = parent[0] if parent else -1
        frame = [len(self.spans), name, 0.0]
        self.spans.append((name, 0.0, 0.0, parent_index, self.job))  # filled in below
        self._open.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            self._open.pop()
            duration = end - start
            self.spans[frame[0]] = (name, start, end, parent_index, self.job)
            self.self_s[name] += duration - frame[2]
            self.calls[name] += 1
            if parent is not None:
                parent[2] += duration
                if parent[1] == ROOT and name == "colouring.verify":
                    self.counts["cli.verify_calls"] += 1
        hook = RESULT_HOOKS.get(name)
        if hook is not None:
            hook(self, result)
        return result

    def run_job(self, job: int, fn, *args):
        """Run one job under a root span; search node counts are collected
        when it ends, whatever the outcome."""
        self.job = job
        self._open.clear()
        try:
            return self.call(ROOT, fn, args)
        finally:
            self.counts["exact.nodes"] += sum(s.nodes for s in self._searches)
            self._searches.clear()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind the traced functions in every loaded strongedge module."""
        mods = {
            name.split(".", 1)[1]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("strongedge.") and mod is not None
        }
        for mod_name, attr, span in SPANS:
            self._rebind(mods, mod_name, attr, self._span_wrapper(span))
        for mod_name, attr, counter in COUNTED:
            self._rebind(mods, mod_name, attr, self._count_wrapper(counter))
        self._hook_search(mods["exact"])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, mods: dict, mod_name: str, attr: str, make) -> None:
        owner = mods[mod_name]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            self._set(owner, attr, make(original))
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for mod in mods.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span_wrapper(self, name: str):
        def make(fn):
            def traced(*args, **kwargs):
                return self.call(name, fn, args, kwargs)

            traced.__wrapped__ = fn
            return traced

        return make

    def _count_wrapper(self, counter: str):
        def make(fn):
            def counted(*args, **kwargs):
                self.counts[counter] += 1
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            return counted

        return make

    def _hook_search(self, exact) -> None:
        """Collect each exact search object so its node count can be read
        after the job; the recursive search itself stays unwrapped."""
        base = getattr(exact, "_Search", None)
        if base is None:
            return
        searches = self._searches

        class CountedSearch(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                searches.append(self)

        self._set(exact, "_Search", CountedSearch)

    # -- results -----------------------------------------------------------

    def metrics(self, rounds: int, overhead: float) -> dict[str, dict]:
        """Per-layer metrics, each summed over the traced rounds and divided
        by their number, so a value is per pass over the workload's jobs."""
        out = {}
        for metric, (unit, source) in LAYER_METRICS.items():
            if source == "derived":
                continue
            kind, key = source.split(":", 1)
            table = {"self": self.self_s, "calls": self.calls, "count": self.counts}[kind]
            out[metric] = {"value": table[key] / rounds, "unit": unit}
        decide_s = self.self_s["exact.decide"]
        out["exact.nodes_per_s"] = {
            "value": self.counts["exact.nodes"] / decide_s if decide_s else 0.0,
            "unit": "1/s",
        }
        attempts = self.calls["pipeline.class1"]
        out["pipeline.class1_hit_ratio"] = {
            "value": self.counts["pipeline.class1_found"] / attempts if attempts else 0.0,
            "unit": "ratio",
        }
        out["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        return {m: out[m] for m in LAYER_METRICS}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")
