"""Outside-in tracing of holoscene's layers.

Each traced function is wrapped where its callers look it up: a module
attribute for functions called as ``module.name(...)``, the name bound in the
importing module for ``from x import name`` (``textfilter.expand``), and the
class attribute for methods. Spans (name, start, end, parent, op id) are kept
in memory; counts are derived from the arguments and return values after the
span has closed. Only calls made while an op is running are recorded.
Nothing inside the program is edited, and :meth:`uninstall`
restores every original.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from holoscene import blending, cli, hrr, memory, ontology, pipeline, scenario, textfilter
from holoscene.lexicon import split_sentences

STAGES = ("ontology", "parse", "spaces", "generic", "confabulate", "scenario", "holographic-check")


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.counts: dict = defaultdict(float)
        self.op = None
        self._stack: list = []
        self._patches: list = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None, before=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper. ``before(args)``
        runs ahead of the call; ``after(args, result, state)`` gets its value
        once the span has closed and returns counts to add."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.op is None:  # between ops: output checks are not traced
                return original(*args, **kwargs)
            state = before(args) if before else None
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None, self.op])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if after:
                for key, value in after(args, result, state).items():
                    self.counts[key] += value
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> "Tracer":
        w = self.wrap
        w(cli, "main", "cli.main")
        w(pipeline, "run_pipeline", "pipeline.run_pipeline", after=_after_run_pipeline)
        w(pipeline, "build_ontology", "pipeline.build_ontology")
        w(ontology, "load_graph", "ontology.load_graph",
          before=lambda a: os.path.getsize(a[0]), after=_after_load_graph)
        w(ontology, "build_from_corpus", "ontology.build_from_corpus", after=_after_build)
        w(ontology, "extract_dk", "ontology.extract_dk",
          after=lambda a, r, s: {"ontology.dk.triples": len(r.k3)})
        w(ontology, "save_graph", "ontology.save_graph")
        w(ontology.OntologyGraph, "induced", "ontology.OntologyGraph.induced")
        w(ontology.OntologyGraph, "edges", "ontology.OntologyGraph.edges")
        w(textfilter, "expand", "ontology.expand")
        w(textfilter, "parse_text", "textfilter.parse_text",
          after=lambda a, r, s: {"textfilter.clauses": len(r)})
        w(textfilter, "build_mental_space", "textfilter.build_mental_space")
        w(blending, "generic_space", "blending.generic_space")
        w(blending, "confabulate", "blending.confabulate",
          after=lambda a, r, s: {"accepted": len(r.scores) - len(a[0].shared)})
        w(blending, "candidate_scores", "blending.candidate_scores",
          after=lambda a, r, s: {"candidates": len(r)})
        w(blending, "reach_scores", "blending.reach_scores",
          after=lambda a, r, s: {"reach_targets": len(r)})
        w(blending, "absorb_anchored", "blending.absorb_anchored")
        w(blending, "encode_subgraph", "blending.encode_subgraph")
        w(blending, "decode_probe", "blending.decode_probe")
        w(blending, "save_blend", "blending.save_blend")
        w(blending, "blend_to_dot", "blending.blend_to_dot")
        w(hrr, "convolve", "hrr.convolve")
        w(hrr, "correlate", "hrr.correlate")
        w(hrr, "cleanup", "hrr.cleanup",
          after=lambda a, r, s: {"comparisons": len(a[1])})
        w(hrr.Codebook, "__init__", "hrr.Codebook",
          after=lambda a, r, s: {"codebook_entries": len(a[0])})
        w(memory.HolographicMemory, "observe", "memory.observe",
          before=lambda a: a[0]._counter, after=_after_observe)
        w(memory.HolographicMemory, "_best_match", "memory.match",
          before=lambda a: len(a[0].nodes),
          after=lambda a, r, s: {"match_scans": s})
        w(memory.HolographicMemory, "save", "memory.save",
          after=lambda a, r, s: {"snapshot_bytes": os.path.getsize(a[1])})
        w(scenario, "plan_scenario", "scenario.plan_scenario",
          after=lambda a, r, s: {"scenario.scenes": len(r.scenes)})
        return self

    # -- reduction -----------------------------------------------------------

    def totals(self) -> dict:
        """name -> [calls, inclusive seconds, self seconds]."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[index]
        return out


def _after_run_pipeline(args, result, state):
    diagnostics = result[2]
    counts = {f"stage.{stage}": diagnostics.timings.get(stage, 0.0) for stage in STAGES}
    counts["decode_checks"] = len(diagnostics.decode_checks)
    counts["decode_hits"] = sum(d["recovered"] == d["expected"] for d in diagnostics.decode_checks)
    return counts


def _after_load_graph(args, result, size):
    graph, dk = result
    return {
        "load_bytes": size,
        "ontology.graph.nodes": len(graph),
        "ontology.graph.edges": len(graph._edges),
        "ontology.dk.triples": len(dk.k3) if dk is not None else 0,
    }


def _after_build(args, graph, state):
    return {
        "sentences": sum(len(split_sentences(doc)) for doc in args[0]),
        "ontology.graph.nodes": len(graph),
        "ontology.graph.edges": len(graph._edges),
    }


def _after_observe(args, result, counter_before):
    return {"observes": 1, "recalls": args[0]._counter == counter_before}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-op layer metrics, as (value, unit) pairs, from one traced run of
    ``ops`` ops."""
    t = tracer.totals()  # a name never traced reads [0, 0.0, 0.0]
    c = tracer.counts
    per_op = lambda v: v / ops  # noqa: E731
    out: dict = {}
    for name in ("blending.reach_scores", "blending.confabulate", "hrr.cleanup", "hrr.convolve",
                 "hrr.correlate", "ontology.load_graph", "ontology.OntologyGraph.induced",
                 "ontology.OntologyGraph.edges", "textfilter.build_mental_space",
                 "ontology.build_from_corpus", "ontology.extract_dk", "ontology.save_graph",
                 "memory.save", "memory.observe", "textfilter.parse_text",
                 "scenario.plan_scenario", "blending.save_blend", "blending.blend_to_dot",
                 "cli.main", "pipeline.run_pipeline"):
        out[f"{name}.self_ms"] = (per_op(t[name][2] * 1e3), "ms")
    for name in ("blending.reach_scores", "hrr.cleanup", "hrr.convolve", "hrr.correlate",
                 "ontology.OntologyGraph.induced", "ontology.OntologyGraph.edges", "memory.observe"):
        out[f"{name}.calls"] = (per_op(t[name][0]), "count")
    out["blending.reach_scores.targets"] = (per_op(c["reach_targets"]), "count")
    out["blending.accept_ratio"] = (_ratio(c["accepted"], c["candidates"]), "1")
    out["hrr.cleanup.comparisons"] = (per_op(c["comparisons"]), "count")
    out["hrr.Codebook.build_ms"] = (per_op(t["hrr.Codebook"][1] * 1e3), "ms")
    out["hrr.Codebook.entries"] = (per_op(c["codebook_entries"]), "count")
    out["hrr.decode_hit_ratio"] = (_ratio(c["decode_hits"], c["decode_checks"]), "1")
    load_s = t["ontology.load_graph"][1]
    out["ontology.load_graph.mb_per_s"] = (_ratio(c["load_bytes"] / 1e6, load_s), "MB/s")
    scan_s = t["ontology.build_from_corpus"][1] + t["ontology.extract_dk"][1]
    out["ontology.sentences_per_s"] = (_ratio(c["sentences"], scan_s), "1/s")
    out["memory.snapshot_mb"] = (per_op(c["snapshot_bytes"] / 1e6), "MB")
    out["memory.match_scans"] = (_ratio(c["match_scans"], c["observes"]), "count")
    out["memory.recall_ratio"] = (_ratio(c["recalls"], c["observes"]), "1")
    out["scenario.scenes"] = (per_op(c["scenario.scenes"]), "count")
    for stage in STAGES:
        out[f"pipeline.stage.{stage}_ms"] = (per_op(c[f"stage.{stage}"] * 1e3), "ms")
    for name in ("ontology.graph.nodes", "ontology.graph.edges", "ontology.dk.triples",
                 "textfilter.clauses"):
        out[name] = (per_op(c[name]), "count")
    return out
