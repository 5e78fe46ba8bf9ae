"""Blending: shared structure across mental spaces, holographic subgraph
coding, and graph confabulation.

Confabulation pulls unmentioned concepts into the blend. A candidate d is
scored by the product, over the generic-space terms g, of the probability
of walking from g to d in at most ``max_path`` steps (1 to ``MAX_PATH``).
Step weights come from the word statistics: the observed pair frequency
relative to the source's frequency, smoothed by ``mix`` (0 to 1) with the
target's relative frequency, and a boost when a step triple was itself
observed. Scores are normalized by the maximum so the acceptance threshold
is scale-free, and scaling every frequency by a positive constant provably
leaves the ranking unchanged.

The walk reads the graph's CSR rows, less any self-loop. Once per
``candidate_scores`` call, for every generic source, it builds only what
depends on the statistics and ``mix``: one step weight per directed edge,
the subtree bounds, and the statistics' triple counts over the graph's
terms (only when ``max_path >= 2``), which ``TripleCounts.count`` looks up
by term ids a whole level of steps at a time. Paths grow one level at a
time as one array of node ids per step, and a step onto a node already on
the path is dropped. Consecutive first steps are walked together in
chunks; a chunk holds at most ``_CHUNK_PATHS`` paths plus one first step's
subtree, so memory does not grow with the degree of the source.

Scores are bit-identical to a recursive depth-first walk over sorted
neighbours, not just close to it. Each path's score is built in the same
order of multiplications: previous score times (step weight times triple
boost). Within a chunk, the paths are made in depth-first pre-order: one
``np.insert`` per level puts its paths right after their parents, siblings
in neighbour order. ``np.add.at`` then adds them to each target's running
sum one at a time, across chunks too. The walk hands back, per source, the
ids it reached in order of first visit and a mass array over graph ids;
each source's total adds in that order, and only ``reach_scores`` gives
the targets their term names.

A blend file is a graph file's ``node`` and ``edge`` records plus one
``score`` record per term, read by the one reader of both in ``ontology``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import hrr
from .errors import GraphFormatError, NoSharedTermError, UnknownTermError
from .ontology import (PROVENANCES, DkStatistics, OntologyGraph, _blend_fields, _graph_from_columns,
                       _graph_records, _read_records, running_sum)
from .textfilter import MentalSpace

ANCHORED, EXPANDED, CONFABULATED = PROVENANCES

DOT_COLORS = {ANCHORED: "yellow", EXPANDED: "red", CONFABULATED: "blue"}

BLEND_HEADER = "# holoscene blend v1"  # a file that starts with it is read as a blend


@dataclass(frozen=True)
class GenericSpace:
    """Terms the input spaces have in common, with the space pairs each
    shared term connects."""

    shared: frozenset
    correspondences: frozenset  # (space_index, space_index, term)


@dataclass(frozen=True)
class BlendedSpace:
    """The imagined concept set: per-term score in [0, 1], how each term
    entered the blend, and the induced ontology fragment."""

    scores: dict
    provenance: dict
    subgraph: OntologyGraph = field(compare=False)

    @property
    def terms(self) -> frozenset:
        return frozenset(self.scores)

    def by_provenance(self, kind: str) -> frozenset:
        return frozenset(t for t, p in self.provenance.items() if p == kind)


def generic_space(spaces) -> GenericSpace:
    """Terms present in at least two spaces; a lone space contributes its
    anchored terms."""
    spaces = list(spaces)
    if not spaces:
        raise ValueError("generic_space requires at least one mental space")
    if len(spaces) == 1:
        return GenericSpace(shared=frozenset(spaces[0].anchored), correspondences=frozenset())
    holders: dict[str, list] = {}
    for space in spaces:
        for term in space.terms:
            holders.setdefault(term, []).append(space.sentence_index)
    shared = frozenset(t for t, idx in holders.items() if len(idx) >= 2)
    correspondences = frozenset(
        (i, j, term)
        for term in shared
        for n, i in enumerate(holders[term])
        for j in holders[term][n + 1 :]
    )
    return GenericSpace(shared=shared, correspondences=correspondences)


def encode_subgraph(path_terms, book: hrr.Codebook) -> hrr.Vector:
    """Fold an alternating node/edge/node... term path into one vector by
    chained convolution."""
    if len(path_terms) % 2 == 0:
        raise ValueError("path must alternate node, edge, node: odd length required")
    trace = book.vector(path_terms[0])
    for term in path_terms[1:]:
        trace = hrr.convolve(trace, book.vector(term))
    return trace


def decode_probe(trace, probe, book: hrr.Codebook):
    """Unbind ``probe`` from ``trace`` and clean the result up against the
    codebook; returns (term, similarity)."""
    return hrr.cleanup(hrr.correlate(probe, trace), book)


# -- dK walk scoring -----------------------------------------------------------


MAX_PATH = 3  # the longest walk: shipped and benchmarked configs take 1 or 3 steps

# A chunk of a walk takes consecutive first steps until their path bounds
# pass this, so it holds at most this many paths plus one first step's.
_CHUNK_PATHS = 1 << 15


class _WalkIndex:
    """The walk's arrays over a graph and its statistics, built once and
    shared by every source walked with the same ``max_path`` and ``mix``
    (``ValueError`` outside [1, MAX_PATH] and [0, 1]).

    ``indptr`` and ``indices`` are the graph's CSR rows less its
    self-loops, so array order is the order the walk takes neighbours in.
    Every directed edge carries its pair count, the graph's edge weight, and
    its step weight. ``triples`` are the statistics' triple counts over the
    graph's terms, read only when a path can take two steps. ``paths``
    counts the simple paths scored so far.
    """

    def __init__(self, graph: OntologyGraph, dk: DkStatistics, max_path: int, mix: float):
        if not 1 <= max_path <= MAX_PATH:
            raise ValueError(f"max_path must be in [1, {MAX_PATH}], not {max_path!r}")
        if not 0.0 <= mix <= 1.0:
            raise ValueError(f"mix must be in [0, 1], not {mix!r}")
        self.terms, self.number = graph.terms, graph.ids
        self.max_path = max_path
        self.paths = 0
        freq = np.array(list(map(dk.k1.get, self.terms)), dtype=float)  # None reads nan
        bad = np.flatnonzero(~((freq > 0) & (freq < math.inf)))
        if len(bad):
            term = self.terms[bad[0]]
            value = dk.k1.get(term)
            raise ValueError(f"term {term!r} needs a finite, positive frequency, not {value!r}")

        rows = np.repeat(np.arange(len(self.terms)), np.diff(graph.indptr))
        steps = rows != graph.indices  # a self-loop never steps off its path
        src, dst, self.pair = rows[steps], graph.indices[steps], graph.weight[steps]
        self.indptr, self.indices = np.searchsorted(src, np.arange(len(self.terms) + 1)), dst
        self.weight = mix * (self.pair / freq[src]) + (1.0 - mix) * (freq[dst] / dk.total_frequency)

        # at most this many paths run under each first step: 1 + walks of 1..max_path-1 steps
        self.subtree = walks = np.ones(len(self.terms))
        for _ in range(1, max_path):
            walks = np.bincount(src, weights=walks[dst], minlength=len(self.terms))
            self.subtree = self.subtree + walks

        self.triples = dk.k3.over(self.terms)

    def _extend(self, columns, score, pair):
        """Every simple path one step longer than a path of ``columns`` (its
        node ids, one array per step from the source), with its score, its
        last step's pair count and the index of the path it extends. Paths
        stay grouped by parent, neighbours in order."""
        last = columns[-1]
        start = self.indptr[last]
        degree = self.indptr[last + 1] - start
        parent = np.repeat(np.arange(len(last)), degree)
        edge = np.arange(len(parent)) + np.repeat(start - (np.cumsum(degree) - degree), degree)
        nxt = self.indices[edge]
        columns = [column[parent] for column in columns]
        fresh = np.logical_and.reduce([column != nxt for column in columns])
        columns = [column[fresh] for column in (*columns, nxt)]
        parent, edge = parent[fresh], edge[fresh]
        step = self.weight[edge]
        if self.triples:
            observed = self.triples.count(*columns[-3:])
            boosted = observed != 0
            with np.errstate(divide="raise"):  # a zero pair count under a triple
                step[boosted] *= 1.0 + observed[boosted] / pair[parent][boosted]
        return columns, score[parent] * step, self.pair[edge], parent

    def _subtree(self, source, hops):
        """Targets and scores of every path whose first step is one of the
        edges ``hops``, in depth-first pre-order: each level's paths go in
        right after their parents, siblings in neighbour order."""
        columns = [np.full(len(hops), source), self.indices[hops]]
        score, pair = self.weight[hops], self.pair[hops]
        targets, scores, at = columns[-1], score, np.arange(len(hops))  # at: the last level's places
        for _ in range(1, self.max_path):
            columns, score, pair, parent = self._extend(columns, score, pair)
            if not len(score):
                break
            after = at[parent] + 1
            targets, scores = np.insert(targets, after, columns[-1]), np.insert(scores, after, score)
            at = after + np.arange(len(after))
        return targets, scores

    def reach(self, source: str):
        """The ids reached from ``source`` in order of first visit, and the
        raw reachability mass over all graph ids."""
        s = self.number[source]
        mass = np.zeros(len(self.terms))
        unseen = np.iinfo(np.int64).max
        first = np.full(len(self.terms), unseen)  # pre-order place of first visit
        hops = np.arange(self.indptr[s], self.indptr[s + 1])
        bound = self.subtree[self.indices[hops]]
        chunk = (np.cumsum(bound) - bound) // _CHUNK_PATHS
        groups = np.split(hops, np.flatnonzero(np.diff(chunk)) + 1)
        seen = 0
        for group in groups:
            targets, scores = self._subtree(s, group)
            np.add.at(mass, targets, scores)  # sequential, so sums add in pre-order
            np.minimum.at(first, targets, seen + np.arange(len(targets)))
            seen += len(targets)
        self.paths += seen
        visited = np.flatnonzero(first != unseen)
        return visited[np.argsort(first[visited])], mass

    def probabilities(self, source: str):
        """Transition probability from ``source`` to every graph id: its
        mass over the total, added in order of first visit; all zeros if
        nothing is reached."""
        visited, mass = self.reach(source)
        total = running_sum(mass[visited].tolist())
        return mass / total if total else np.zeros(len(mass))


def reach_scores(
    graph: OntologyGraph, dk: DkStatistics, source: str, max_path: int = 3, mix: float = 0.5
) -> dict:
    """Raw reachability mass from ``source`` to every other node, summed
    over all simple paths of at most ``max_path`` steps, keyed in the order
    a depth-first walk over sorted neighbours first reaches each node."""
    if source not in graph.nodes:
        raise UnknownTermError(f"term not in graph: {source!r}", [source])
    visited, mass = _WalkIndex(graph, dk, max_path, mix).reach(source)
    return dict(zip([graph.terms[i] for i in visited], mass[visited].tolist()))


def transition_probability(
    graph: OntologyGraph,
    dk: DkStatistics,
    from_term: str,
    to_term: str,
    max_path: int = 3,
    mix: float = 0.5,
) -> float:
    """Probability of reaching ``to_term`` from ``from_term``, normalized
    so one source's probabilities over all targets sum to at most 1."""
    for term in (from_term, to_term):
        if term not in graph.nodes:
            raise UnknownTermError(f"term not in graph: {term!r}", [term])
    index = _WalkIndex(graph, dk, max_path, mix)
    return 1.0 if from_term == to_term else float(index.probabilities(from_term)[graph.ids[to_term]])


def candidate_scores(
    generic_terms,
    graph: OntologyGraph,
    dk: DkStatistics,
    max_path: int = 3,
    mix: float = 0.5,
    counts: dict | None = None,
) -> dict:
    """Raw confabulation score for every non-generic node, keyed in sorted
    term order: the product of per-source transition probabilities.

    Every source walks one shared index. If ``counts`` is given, its
    ``"walk_paths"`` entry grows by the number of simple paths scored.
    """
    sources = sorted(generic_terms)
    missing = [t for t in sources if t not in graph.nodes]
    if missing:
        raise UnknownTermError("generic terms not in graph", missing)
    index = _WalkIndex(graph, dk, max_path, mix)
    product = np.ones(len(graph.terms))
    for source in sources:
        product *= index.probabilities(source)
    if counts is not None:
        counts["walk_paths"] = counts.get("walk_paths", 0) + index.paths
    return {term: score for term, score in zip(graph.terms, product.tolist()) if term not in generic_terms}


def confabulate(
    generic: GenericSpace,
    graph: OntologyGraph,
    dk: DkStatistics,
    threshold: float = 0.05,
    max_path: int = 3,
    mix: float = 0.5,
    counts: dict | None = None,
) -> BlendedSpace:
    """Blend the generic space with the best-supported outside concepts.

    The highest-scoring candidate always joins; others join when their
    score is above 0 and, relative to that maximum, clears ``threshold``,
    so a candidate no source reaches never joins. Every term is
    expanded or confabulated; :func:`absorb_anchored` marks the mentioned
    ones. ``counts`` is passed on to :func:`candidate_scores`. An empty
    generic space raises :class:`NoSharedTermError`.
    """
    if not generic.shared:
        raise NoSharedTermError("the clauses share no term, so there is nothing to blend")
    raw = candidate_scores(generic.shared, graph, dk, max_path, mix, counts=counts)
    peak = max(raw.values(), default=0.0)

    accepted: dict[str, float] = {}
    if peak > 0.0:
        argmax = next(t for t in raw if raw[t] == peak)
        for term in raw:
            relative = raw[term] / peak
            if raw[term] > 0.0 and (term == argmax or relative >= threshold):
                accepted[term] = relative

    scores = {t: 1.0 for t in generic.shared}
    scores.update(accepted)
    provenance = {t: EXPANDED if t in generic.shared else CONFABULATED for t in scores}
    return BlendedSpace(
        scores=scores, provenance=provenance, subgraph=graph.induced(scores)
    )


def absorb_anchored(blend: BlendedSpace, anchored, graph: OntologyGraph) -> BlendedSpace:
    """Fold the mentioned terms into a blend at full score: the text's own
    words are always part of the imagined scene."""
    scores = dict(blend.scores)
    provenance = dict(blend.provenance)
    for term in sorted(anchored):
        if term not in graph.nodes:
            raise UnknownTermError(f"anchored term not in graph: {term!r}", [term])
        scores[term] = 1.0
        provenance[term] = ANCHORED
    return BlendedSpace(scores=scores, provenance=provenance, subgraph=graph.induced(scores))


# -- blend file format ---------------------------------------------------------


def save_blend(blend: BlendedSpace, path) -> None:
    """Graph-format file with extra ``score <term> <value> <provenance>``
    records."""
    lines = [BLEND_HEADER, *_graph_records(blend.subgraph)]
    for term in sorted(blend.scores):
        lines.append(f"score {term} {blend.scores[term]!r} {blend.provenance[term]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_blend(path) -> BlendedSpace:
    """Read a blend file. A second ``node``, ``edge`` or ``score`` record
    for the same term or term pair is a :class:`GraphFormatError` at its
    line, as is any record that does not parse and any score that is not a
    number in [0, 1] for a ``node`` of the file."""
    (nodes, edges, scores, provenance), line_no = _read_records(
        path, ("node", "edge", "score"), _blend_fields)
    subgraph = _graph_from_columns(path, nodes, edges, line_no)
    at, term = next(((at, term) for at, term in enumerate(scores) if term not in nodes), (None, None))
    if at is not None:
        raise GraphFormatError(path, line_no("score", at), f"score for {term!r}, which has no node record")
    return BlendedSpace(scores=scores, provenance=provenance, subgraph=subgraph)


def blend_to_dot(blend: BlendedSpace, name: str = "blend") -> str:
    """DOT with the provenance coloring convention (anchored yellow,
    expanded red, confabulated blue)."""
    from .ontology import to_dot

    colors = {t: DOT_COLORS[p] for t, p in blend.provenance.items()}
    return to_dot(blend.subgraph, colors=colors, name=name)
