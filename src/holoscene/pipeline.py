"""End-to-end pipeline: graph file and text in, blended space and scene
script out; and the corpus scan that builds a graph file.

Stages: load the ontology with its word statistics, parse the input
text, build one mental space per clause, intersect them into the generic
space, confabulate the blend, absorb the mentioned terms, and plan the
scene script. A decaying concept memory observes each clause as it goes
(for inspection; the blend itself is a pure function of graph + text), and
a holographic round-trip check encodes each scene triple and decodes it
back through a codebook of the concepts the scene is made of: the blend
subgraph's terms and labels, and the scene's own graph terms.

Every stage is deterministic given (config, graph bytes, input bytes), so
repeated runs write byte-identical outputs.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import blending, hrr, memory, ontology, scenario, textfilter
from .errors import ConfigError, EmptyTextError, HolosceneError, StageError, read_lines, read_text
from .lexicon import default_lexicon

_DEMO_DIR = Path(__file__).parent / "data" / "demo"

ENV_SEED = "HOLOSCENE_SEED"
ENV_OBJECTS = "HOLOSCENE_OBJECTS"
ENV_VALUES = "HOLOSCENE_VALUES"
ENV_FUNCTIONS = "HOLOSCENE_FUNCTIONS"


@dataclass(frozen=True)
class PipelineConfig:
    dim: int = 512
    seed: int = 7
    depth: int = 1
    threshold: float = 0.001
    base_decay: float = 10.0
    prune_threshold: float = 0.1
    match_threshold: float = 0.8
    max_path: int = 3
    mix: float = 0.5
    time_window: int = 5
    relations: tuple | None = (
        "wears",
        "has-a",
        "part-of",
        "near",
        "located-on",
        "is-a",
        "attribute-of",
        "used-for",
    )
    objects_path: str = str(_DEMO_DIR / "demo.objects")
    values_path: str = str(_DEMO_DIR / "demo.values")
    functions_path: str = str(_DEMO_DIR / "demo.functions")
    rules_path: str | None = None

    _RANGES = {
        "dim": (1, hrr._MAX_DIM),
        "depth": (0, 64),
        "threshold": (0.0, 2.0),
        "base_decay": (1e-9, 1e9),
        "prune_threshold": (0.0, 1e9),
        "match_threshold": (1e-9, 1.0 - 1e-9),
        "max_path": (1, blending.MAX_PATH),
        "mix": (0.0, 1.0),
        "time_window": (1, 1 << 20),
    }

    def __post_init__(self):
        for name, (lo, hi) in self._RANGES.items():
            value = getattr(self, name)
            if not (lo <= value <= hi):
                raise ConfigError(f"{name}={value!r} outside [{lo}, {hi}]")


def _number(kind, value: str, name: str):
    """``kind(value)``, or a :class:`ConfigError` that says what ``name`` must be."""
    try:
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {noun}, not {value!r}") from None


def load_config(path) -> PipelineConfig:
    """key = value file; each value is read as its field's annotation says.
    Any fault, an empty required path too, is a :class:`ConfigError` at its line."""
    kinds = {f.name: f.type for f in fields(PipelineConfig)}
    config, seen = PipelineConfig(), set()
    for line_no, line in read_lines(path):
        key, eq, value = (piece.strip() for piece in line.partition("="))
        try:
            if eq != "=":
                raise ConfigError(f"expected key = value, got {line!r}")
            if key not in kinds:
                raise ConfigError(f"unknown configuration key {key!r}")
            if key in seen:
                raise ConfigError(f"second value for {key!r}")
            seen.add(key)
            kind = kinds[key]
            if kind in ("int", "float"):
                value = _number(int if kind == "int" else float, value, key)
            elif kind == "tuple | None":
                value = tuple(r.strip() for r in value.split(",") if r.strip()) or None
            elif not value and kind == "str":
                raise ConfigError(f"{key} must name a file")
            else:
                value = str((Path(path).parent / value).resolve()) if value else None
            config = replace(config, **{key: value})
        except ConfigError as exc:
            raise ConfigError(f"{path}:{line_no}: {exc}") from None
        except ValueError as exc:  # a NUL byte, which no path can hold
            raise ConfigError(f"{path}:{line_no}: {key}: {exc}") from None
    return config


def apply_env_overrides(config: PipelineConfig, environ=None) -> PipelineConfig:
    env = os.environ if environ is None else environ
    updates = {}
    if env.get(ENV_SEED):
        updates["seed"] = _number(int, env[ENV_SEED], ENV_SEED)
    for var, key in ((ENV_OBJECTS, "objects_path"), (ENV_VALUES, "values_path"),
                     (ENV_FUNCTIONS, "functions_path")):
        if env.get(var):
            updates[key] = env[var]
    return replace(config, **updates)


@dataclass
class Diagnostics:
    timings: dict = field(default_factory=dict)
    parses: list = field(default_factory=list)
    decode_checks: list = field(default_factory=list)
    memory: "memory.HolographicMemory | None" = None
    counts: dict = field(default_factory=dict)

    def summary_lines(self) -> list:
        lines = [
            "stage timings (s): "
            + ", ".join(f"{k}={v:.3f}" for k, v in self.timings.items())
        ]
        for record in self.parses:
            lines.append(f"parse [{record['index']}] {record['clause']!r} -> {record['frame']}")
        for check in self.decode_checks:
            lines.append(
                f"decode scene {check['index']}: probe {check['probe']} -> "
                f"{check['recovered']} (sim {check['similarity']:.3f})"
            )
        lines.append(
            "counts: " + ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        )
        return lines


class _StageTimer:
    """Times a stage. A :class:`HolosceneError` or OSError leaves as a
    :class:`StageError` naming the stage; any other exception, a bug, as it is."""

    def __init__(self, diagnostics: Diagnostics, stage: str):
        self.diagnostics = diagnostics
        self.stage = stage

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.diagnostics.timings[self.stage] = time.perf_counter() - self.start
        if isinstance(exc, (HolosceneError, OSError)) and not isinstance(exc, StageError):
            raise StageError(self.stage, exc) from exc
        return False


def read_corpus_dir(corpus_dir) -> list:
    """One document per file, sorted by name for reproducibility."""
    paths = sorted(p for p in Path(corpus_dir).iterdir() if p.is_file())
    if not paths:
        raise HolosceneError(f"corpus directory {corpus_dir} has no files")
    return [read_text(p) for p in paths]


def build_ontology(corpus_dir, lexicon=None):
    """The graph and word statistics of the corpus in ``corpus_dir``, from
    one scan of it. A corpus with no content term raises
    :class:`HolosceneError`: its graph would have no node to imagine from."""
    corpus = read_corpus_dir(corpus_dir)
    scan = ontology._scan_corpus(corpus, lexicon)
    if not scan.terms:
        raise HolosceneError(f"corpus directory {corpus_dir} holds no content term")
    graph = ontology.build_from_corpus(corpus, lexicon=lexicon, scan=scan)
    dk = ontology.extract_dk(corpus, graph, lexicon=lexicon, scan=scan)
    return graph, dk


def _checked_terms(scene) -> tuple | None:
    """The (active, action, tail) triple a scene's decode check binds, or
    None for a scene without an actor or a tail."""
    tail = scene.passive or scene.location
    if scene.active is None or tail is None:
        return None
    return scene.active, scene.action, tail


def scene_codebook(script, blend, graph, dim: int, seed: int) -> hrr.Codebook:
    """The decode codebook: the blend subgraph's terms and labels, plus each
    checked scene term that is a term or label of ``graph``. A scene term
    is in it exactly when it would be in a codebook of the whole graph, so
    the same scenes are checked; the vectors are the same too, since each
    depends only on ``(seed, dim, term)``."""
    scene_terms = [
        term for scene in script.scenes for term in _checked_terms(scene) or ()
        if term in graph.nodes or term in graph.labels
    ]
    return hrr.Codebook([*blend.subgraph.terms, *blend.subgraph.labels, *scene_terms],
                        dim=dim, seed=seed)


def decode_checks(script, book: hrr.Codebook) -> list:
    """Encode each scene's (active, action, tail) triple, unbind the tail
    with the active*action probe and clean it up against ``book``. A scene
    with a term outside ``book`` is skipped: stative copulas are not graph
    concepts."""
    checks = []
    for scene in script.scenes:
        terms = _checked_terms(scene)
        if terms is None or any(term not in book for term in terms):
            continue
        active, action, tail = terms
        trace = blending.encode_subgraph([active, action, tail], book)
        probe = hrr.convolve(book.vector(active), book.vector(action))
        recovered, similarity = blending.decode_probe(trace, probe, book)
        checks.append(
            {
                "index": scene.index,
                "probe": f"{active}*{action}",
                "recovered": recovered,
                "expected": tail,
                "similarity": similarity,
            }
        )
    return checks


def run_pipeline(
    config: PipelineConfig,
    input_text: str,
    ontology_path,
    lexicon=None,
):
    """Run the full text-to-script pipeline on the graph file with
    statistics at ``ontology_path``. Returns (blended space, scene script,
    diagnostics). A text of nothing but whitespace raises
    :class:`EmptyTextError`.
    """
    if not input_text.strip():
        raise EmptyTextError("input text is empty")
    lex = lexicon or default_lexicon()
    diagnostics = Diagnostics()

    with _StageTimer(diagnostics, "ontology"):
        graph, dk = ontology.load_graph(ontology_path)
        if dk is None:
            raise HolosceneError(
                f"{ontology_path} carries no freq records; rebuild it with build-ontology"
            )
        rules = ontology.load_rewrite_rules(config.rules_path) if config.rules_path else None

    with _StageTimer(diagnostics, "parse"):
        structures = textfilter.parse_text(input_text, lexicon=lex)
        for index, structure in enumerate(structures):
            diagnostics.parses.append(
                {
                    "index": index,
                    "clause": structure.action,
                    "frame": {
                        "active": structure.active_actor,
                        "action": structure.action,
                        "passive": structure.passive_actor,
                        "attributes": [list(a) for a in structure.attributes],
                        "location": structure.location,
                    },
                }
            )

    with _StageTimer(diagnostics, "spaces"):
        spaces = [
            textfilter.build_mental_space(
                structure,
                graph,
                depth=config.depth,
                relations=set(config.relations) if config.relations else None,
                rules=rules,
                sentence_index=index,
            )
            for index, structure in enumerate(structures)
        ]
        mem = memory.HolographicMemory(
            dim=config.dim,
            seed=config.seed,
            time_window=config.time_window,
            prune_threshold=config.prune_threshold,
            match_threshold=config.match_threshold,
            base_decay=config.base_decay,
        )
        for index, structure in enumerate(structures):
            mem.observe({(term, index) for term in structure.terms()})
        diagnostics.memory = mem

    with _StageTimer(diagnostics, "generic"):
        generic = blending.generic_space(spaces)

    with _StageTimer(diagnostics, "confabulate"):
        anchored_union = frozenset().union(*(space.anchored for space in spaces))
        blend = blending.confabulate(
            generic,
            graph,
            dk,
            threshold=config.threshold,
            max_path=config.max_path,
            mix=config.mix,
            counts=diagnostics.counts,
        )
        blend = blending.absorb_anchored(blend, anchored_union, graph)

    with _StageTimer(diagnostics, "scenario"):
        objects = ontology.TermObjectMap.load(config.objects_path)
        values = ontology.ValueMap.load(config.values_path)
        functions = scenario.load_actor_functions(config.functions_path)
        script = scenario.plan_scenario(
            blend, structures, objects, values, functions, lexicon=lex
        )

    with _StageTimer(diagnostics, "holographic-check"):
        book = scene_codebook(script, blend, graph, dim=config.dim, seed=config.seed)
        diagnostics.decode_checks = decode_checks(script, book)

    diagnostics.counts.update({
        "sentences": len(structures),
        "graph_nodes": len(graph),
        "generic_terms": len(generic.shared),
        "blend_terms": len(blend.terms),
        "confabulated": len(blend.by_provenance(blending.CONFABULATED)),
        "memory_nodes": len(mem.nodes),
        "decode_entries": len(book),
    })
    return blend, script, diagnostics
