"""The benchmark's workloads: their inputs, their ops and the checks on every
op's output.

One op is one ``holoscene imagine`` of one text, with every side output, or
one ``holoscene build-ontology`` of one corpus directory, both driven
in-process through ``holoscene.cli.main``.

Why each workload (sizes are for the default seed; op times are medians on a
2-vCPU Xeon VM with the numpy FFT kernel backend):

* ``dense-walk`` -- a seeded corpus of the demo nouns plus 280 filler words
  (~314 nodes, ~2,250 edges, average degree ~14) and three-clause stories
  that share an actor, a place and an object, as the demo text does, at the
  demo config's ``max_path = 3``. The reach walk over every simple path takes
  most of each ~250 ms op; this is where a walk rewrite must show, and once the
  walk is fast, graph loading becomes visible.
* ``long-story`` -- a larger vocabulary (~634 nodes, ~8.9k edges, ~1.3 MB
  graph file) and 12-clause stories at ``max_path = 1``, so the walk is a
  small share and the read path dominates (~450 ms per op): cleanup of every
  decoded scene against a codebook of every node and graph loading take ~60%,
  the memory snapshot and induced subgraphs most of the rest. A big graph with
  a shallow walk: a per-call walk precompute would show a cost here. No
  candidate neighbours all ~13 generic sources, so nothing is confabulated;
  the blend and script are still checked.
* ``corpus-build`` -- ``build-ontology`` on three seeded corpus directories
  (~1,850 sentences in ~310 files each, ~934 nodes, ~1.9 MB graph), cycled
  (~350 ms per op). The write side of the ontology layer: corpus scan, dK
  statistics and graph file writing. No walk or holographic code runs.

The ops are smaller than a first sketch of these workloads (2-4 s per op) so
that a run holds enough ops for a median and a tail at a high percentile. There is no workload on
the shipped demo files: on this kind of shared host, latency swings by up to
1.75x for tens of seconds at a time, so runs must be long, and the run budget
does not allow a fourth workload at that length. The demo's end-to-end gate
stays in the test suite (acceptance criterion 7).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import gen

_WROTE_RE = re.compile(r"^wrote .*: (\d+) nodes, (\d+) edges$", re.M)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: gen.CorpusSpec
    stories: gen.StorySpec | None = None  # None: a build-ontology workload
    corpora: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-walk", "~314-node graph of degree ~14, 3-clause stories, max_path 3: the reach walk dominates",
                 gen.CorpusSpec(fillers=280, uses=1),
                 gen.StorySpec(count=12, clauses=3, max_path=3)),
        Workload("long-story", "~634-node graph, 12-clause stories, max_path 1: cleanup and graph loading dominate",
                 gen.CorpusSpec(fillers=600, uses=3),
                 gen.StorySpec(count=6, clauses=12, max_path=1)),
        Workload("corpus-build", "build-ontology on 3 cycled ~1,850-sentence corpora: the write side, no walk or HRR code",
                 gen.CorpusSpec(fillers=900, uses=3), corpora=3),
    )
}


def make_inputs(workload: Workload, seed: int, work: Path) -> dict:
    """Generate the workload's input files under ``work``; returns a JSON
    description for the child processes."""
    (work / "out").mkdir(parents=True)
    if workload.stories is None:
        inputs = gen.write_corpus_inputs(work, seed, workload.corpus, workload.corpora)
    else:
        inputs = gen.write_story_inputs(work, seed, workload.corpus, workload.stories)
        inputs["graph"] = str(work / "bench.graph")
    inputs["out"] = str(work / "out")
    return inputs


def ops(workload: Workload, inputs: dict) -> list:
    """(key, argv) per distinct op, in cycle order."""
    out = Path(inputs["out"])
    if workload.stories is None:
        return [
            (Path(c).name, ["build-ontology", c, "-o", str(out / f"{Path(c).name}.graph")])
            for c in inputs["corpora"]
        ]
    return [
        (
            Path(text).stem,
            [
                "imagine", text, "--ontology", inputs["graph"], "--config", inputs["config"],
                "-o", str(out / "script.json"), "--blend-out", str(out / "bench.blend"),
                "--dot-out", str(out / "bench.dot"), "--memory-out", str(out / "memory.json"),
            ],
        )
        for text in inputs["texts"]
    ]


def setup_argv(workload: Workload, inputs: dict):
    """The ``build-ontology`` call a child makes before its first op, if any."""
    if workload.stories is not None:
        return ["build-ontology", inputs["corpus"], "-o", inputs["graph"]]
    return None


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _blend_provenance(path) -> dict:
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        fields = line.split()
        if fields and fields[0] == "score":
            out[fields[1]] = fields[3]
    return out


class Checker:
    """Checks one op's outputs. Facts are verified once per distinct output
    digest; run.py then compares digests across ops and with the digests
    recorded from the seed code."""

    def __init__(self, workload: Workload, inputs: dict):
        self.workload = workload
        self.inputs = inputs
        self._verdicts: dict = {}

    def check(self, key: str, argv: list, stdout: str) -> tuple:
        """Returns (ok, digest, problem)."""
        if self.workload.stories is None:
            digest = _digest(argv[3])
            verdict = self._verdicts.get(digest) or self._check_graph(argv[3])
            problem = verdict["problem"]
            reported = _WROTE_RE.search(stdout)
            counts = (int(reported[1]), int(reported[2])) if reported else None
            if problem is None and counts != (verdict["nodes"], verdict["edges"]):
                problem = f"build reported {counts}, reload gives {verdict['nodes']}, {verdict['edges']}"
        else:
            out = Path(self.inputs["out"])
            digest = _digest(out / "script.json", out / "bench.blend")
            verdict = self._verdicts.get(digest) or self._check_scene(key, out)
            problem = verdict["problem"]
        self._verdicts[digest] = verdict
        return problem is None, digest, problem

    def _check_graph(self, path) -> dict:
        from holoscene import ontology

        graph, dk = ontology.load_graph(path)
        verdict = {"nodes": len(graph), "edges": len(graph.edges()), "problem": None}
        if dk is None or not dk.k3:
            verdict["problem"] = "graph reloads without triple statistics"
        return verdict

    def _check_scene(self, key: str, out: Path) -> dict:
        """One scene per clause with the story's actions in order, and every
        mentioned term in the blend as anchored."""
        expect = self.inputs["expect"][key]
        script = json.loads((out / "script.json").read_text(encoding="utf-8"))
        actions = [scene["action"] for scene in script["scenes"]]
        provenance = _blend_provenance(out / "bench.blend")
        unanchored = [t for t in expect["mentioned"] if provenance.get(t) != "anchored"]
        if actions != expect["actions"]:
            return {"problem": f"scene actions {actions}, expected {expect['actions']}"}
        if unanchored:
            return {"problem": f"mentioned terms not anchored in the blend: {unanchored}"}
        return {"problem": None}
