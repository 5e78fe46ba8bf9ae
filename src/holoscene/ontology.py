"""Term-graph ontology built from plain-text corpora.

Nodes are the normalized vocabulary; an edge joins every pair of terms
that co-occur within one sentence or two adjacent sentences, weighted by
the raw number of such windows. When a relation pattern (e.g. "part of")
appears between two terms, the pair's edge carries that label instead of
the generic "related-to".

The word statistics that drive the confabulation scoring come at four
orders. Per-word frequency (order 1) and triple frequency over 3-sentence
windows (order 3) are counted by ``extract_dk``; the average word
frequency (order 0) is the mean of order 1. The pair frequency over
2-sentence windows (order 2) is the edge weight, which only
``build_from_corpus`` counts.

Each window's sorted term pairs (or triples) are counted with one
``Counter.update``, in C. A sentence is searched only for the relation
patterns whose surface it contains, and tokenised a second time, to find
the labelled pairs, only when one of them matches.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, combinations
from pathlib import Path
from typing import NamedTuple

from .errors import GraphFormatError, UnknownTermError, UnmappedTermError, read_lines
from .lexicon import Lexicon, _TOKEN_RE, default_lexicon, load_word_map, read_arrows, split_sentences

GENERIC_RELATION = "related-to"


class EdgeRec(NamedTuple):
    """One edge; an immutable tuple, which is cheaper to build than a frozen
    dataclass."""

    src: str
    dst: str
    label: str
    weight: float

    @property
    def pair(self) -> tuple:
        return tuple(sorted((self.src, self.dst)))


class OntologyGraph:
    """Undirected term graph; labeled edges keep their source direction.

    ``_edges`` keys each edge by its sorted term pair; ``_adjacency`` holds
    one row per term, ``{neighbour: EdgeRec}``, for the reads by term."""

    def __init__(self):
        self.nodes: dict[str, str] = {}
        self._edges: dict[tuple, EdgeRec] = {}
        self._adjacency: defaultdict[str, dict] = defaultdict(dict)

    def __contains__(self, term: str) -> bool:
        return term in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def add_node(self, term: str, semantic_type: str = "entity") -> None:
        self.nodes.setdefault(term, semantic_type)

    def add_edge(self, src: str, dst: str, label: str, weight: float) -> None:
        self.add_edges([(src, dst, label, weight)])

    def add_edges(self, records) -> None:
        """Add ``(src, dst, label, weight)`` records in order; the one writer
        of the edge tables. Both ends must be nodes, the weight finite and
        non-negative, and a term pair holds at most one edge."""
        nodes, edges, adjacency = self.nodes, self._edges, self._adjacency
        for src, dst, label, weight in records:
            if src not in nodes or dst not in nodes:
                raise UnknownTermError(
                    f"edge endpoints must be nodes: {src!r}, {dst!r}",
                    [t for t in (src, dst) if t not in nodes],
                )
            if not 0.0 <= weight < math.inf:
                raise ValueError(f"edge weight must be finite and non-negative, not {weight!r}")
            pair = (src, dst) if src <= dst else (dst, src)
            if pair in edges:
                raise ValueError(f"second edge between {pair[0]!r} and {pair[1]!r}")
            edges[pair] = adjacency[src][dst] = adjacency[dst][src] = EdgeRec(src, dst, label, weight)

    def edges(self) -> list:
        return [self._edges[k] for k in sorted(self._edges)]

    def edge_between(self, a: str, b: str) -> EdgeRec | None:
        return self._adjacency.get(a, {}).get(b)

    def neighbors(self, term: str, relations=None) -> list:
        """Sorted neighbor terms, optionally restricted to edge labels."""
        row = self._adjacency.get(term, {})
        return sorted(other for other, rec in row.items() if relations is None or rec.label in relations)

    def induced(self, terms) -> "OntologyGraph":
        """The kept terms that are nodes, and the edges among them, each
        added in sorted order; only the kept terms' rows are read."""
        sub = OntologyGraph()
        keep = sorted(set(terms) & self.nodes.keys())
        for term in keep:
            sub.add_node(term, self.nodes[term])
        for term in keep:
            row = self._adjacency.get(term, {})
            sub.add_edges(row[other] for other in sorted(row.keys() & sub.nodes.keys()) if term <= other)
        return sub


@dataclass(frozen=True)
class DkStatistics:
    """Word statistics at orders 1 and 3 (single and triple), with order 0
    (average) derived from order 1. Order 2, the pair counts, is the graph's
    edge weights."""

    k1: dict
    k3: dict  # sorted (a, b, c) -> window count

    def triple(self, a: str, b: str, c: str) -> float:
        return self.k3.get(tuple(sorted((a, b, c))), 0)

    @property
    def total_frequency(self) -> float:
        return sum(self.k1.values())

    @property
    def k0(self) -> float:
        return self.total_frequency / len(self.k1) if self.k1 else 0.0


# -- corpus scanning ---------------------------------------------------------


def _count_windows(term_lists, width: int, counts: Counter) -> None:
    """Add to ``counts`` the sorted ``width``-term combinations of each window
    of ``width`` consecutive sentences, or of the one window of all the
    sentences when there are fewer."""
    for start in range(max(1, len(term_lists) - width + 1)):
        window = set(chain.from_iterable(term_lists[start:start + width]))
        counts.update(combinations(sorted(window), width))


def _match_relations(sentence: str, patterns, lex: Lexicon) -> list:
    """(src, dst, label) for each relation pattern between two content terms.

    ``patterns`` come from ``compile_patterns``, so each regex matches only
    where its surface occurs: a pattern whose surface is not in the
    sentence is not searched, and a sentence no pattern matches is not
    tokenised."""
    lowered = sentence.lower()
    spans = []
    for regex, surface, label in patterns:  # already longest-first
        if surface not in lowered:
            continue
        for m in regex.finditer(lowered):
            if any(m.start() < e and s < m.end() for s, e, _ in spans):
                continue
            spans.append((m.start(), m.end(), label))
    if not spans:
        return []

    tokens = []
    for m in _TOKEN_RE.finditer(lowered):
        token = m.group(0)
        if token in lex.stopwords:
            continue
        term = lex.normalize(token)
        if term and term not in lex.stopwords:
            tokens.append((m.start(), m.end(), term))

    out = []
    for start, end, label in sorted(spans):
        before = [t for s, e, t in tokens if e <= start]
        after = [t for s, e, t in tokens if s >= end]
        if before and after and before[-1] != after[0]:
            out.append((before[-1], after[0], label))
    return out


def build_from_corpus(corpus, lexicon: Lexicon | None = None) -> OntologyGraph:
    """Vocabulary graph with co-occurrence edge weights over a corpus.

    ``corpus`` is a list of document strings; sentences split on .!? and
    windows never cross document boundaries. The lexicon's relation
    patterns map a surface pattern to an edge label; unmatched pairs get
    "related-to".
    """
    lex = lexicon or default_lexicon()

    terms_seen: dict[str, None] = {}
    pair_counts: Counter = Counter()
    labels: dict[tuple, tuple] = {}
    for document in corpus:
        sentences = split_sentences(document)
        term_lists = [lex.content_terms(s) for s in sentences]
        terms_seen.update(dict.fromkeys(chain.from_iterable(term_lists)))
        _count_windows(term_lists, 2, pair_counts)
        for sentence in sentences:
            for src, dst, label in _match_relations(sentence, lex.relation_patterns, lex):
                labels.setdefault(tuple(sorted((src, dst))), (src, dst, label))

    graph = OntologyGraph()
    for term in terms_seen:
        graph.add_node(term, lex.semantic_type(term))
    graph.add_edges(
        (*labels.get(pair, (*pair, GENERIC_RELATION)), count)
        for pair, count in sorted(pair_counts.items())
    )
    return graph


def extract_dk(corpus, graph: OntologyGraph | None = None, lexicon: Lexicon | None = None) -> DkStatistics:
    """Word and triple frequencies over the same sentences the graph was
    built from; the pair counts are ``graph``'s edge weights. If ``graph``
    is given, every counted term must be one of its nodes."""
    lex = lexicon or default_lexicon()
    k1: Counter = Counter()
    k3: Counter = Counter()
    for document in corpus:
        term_lists = [lex.content_terms(s) for s in split_sentences(document)]
        k1.update(chain.from_iterable(term_lists))
        _count_windows(term_lists, 3, k3)
    stats = DkStatistics(k1=dict(k1), k3=dict(k3))
    if graph is not None:
        missing = [t for t in stats.k1 if t not in graph.nodes]
        if missing:
            raise UnknownTermError("statistics cover terms absent from the graph", missing)
    return stats


# -- expansion ---------------------------------------------------------------


@dataclass(frozen=True)
class Expansion:
    anchored: frozenset
    expanded: frozenset

    @property
    def reached(self) -> frozenset:
        return self.anchored | self.expanded


def expand(
    graph: OntologyGraph,
    anchors,
    relations=None,
    depth: int = 1,
    rules: dict | None = None,
) -> Expansion:
    """Breadth-first closure from the anchors along selected relations.

    ``relations`` limits which edge labels are followed (None follows all).
    ``rules`` is an optional term -> [term] rewrite table applied at each
    step, covering domain inferences that plain edges do not carry.
    """
    anchors = set(anchors)
    missing = sorted(a for a in anchors if a not in graph.nodes)
    if missing:
        raise UnknownTermError(f"anchors not in graph: {', '.join(missing)}", missing)

    reached = set(anchors)
    frontier = set(anchors)
    for _ in range(depth):
        nxt = set()
        for term in sorted(frontier):
            nxt.update(graph.neighbors(term, relations))
            for target in (rules or {}).get(term, ()):
                if target in graph.nodes:
                    nxt.add(target)
        nxt -= reached
        if not nxt:
            break
        reached |= nxt
        frontier = nxt
    return Expansion(anchored=frozenset(anchors), expanded=frozenset(reached - anchors))


def load_rewrite_rules(path) -> dict:
    rules: dict[str, list] = {}
    for src, dst in read_arrows(path, "term -> term"):
        rules.setdefault(src, []).append(dst)
    return rules


# -- asset and value mappings ------------------------------------------------


@dataclass(frozen=True)
class TermObjectMap:
    """Terms to renderable asset identifiers."""

    entries: dict

    def lookup(self, term: str) -> str:
        try:
            return self.entries[term]
        except KeyError:
            raise UnmappedTermError(f"no asset mapped for term {term!r}", [term]) from None

    def __contains__(self, term: str) -> bool:
        return term in self.entries

    @classmethod
    def load(cls, path) -> "TermObjectMap":
        return cls(load_word_map(path))


@dataclass(frozen=True)
class ValueMap:
    """(fuzzy term, attribute type) to a numeric attribute value."""

    entries: dict

    def lookup(self, fuzzy: str, attribute: str) -> float:
        try:
            return self.entries[(fuzzy, attribute)]
        except KeyError:
            raise UnmappedTermError(
                f"no value mapped for ({fuzzy!r}, {attribute!r})", [fuzzy]
            ) from None

    def __contains__(self, key) -> bool:
        return tuple(key) in self.entries

    @classmethod
    def load(cls, path) -> "ValueMap":
        entries = {}
        for line_no, line in read_lines(path):
            fields = line.split()
            try:
                if len(fields) != 3:
                    raise ValueError(f"expected a term, an attribute and a value, got {line!r}")
                value = float(fields[2])
                if not math.isfinite(value):
                    raise ValueError(f"value must be a finite number, not {fields[2]!r}")
            except ValueError as exc:
                raise GraphFormatError(path, line_no, str(exc)) from None
            entries[(fields[0], fields[1])] = value
        return cls(entries)


# -- graph file format ---------------------------------------------------------


def _graph_records(graph: OntologyGraph) -> list:
    """The ``node`` and ``edge`` lines of ``graph``, shared by the graph and
    blend files."""
    lines = [f"node {term} {graph.nodes[term]}" for term in sorted(graph.nodes)]
    lines += [f"edge {rec.src} {rec.dst} {rec.label} {rec.weight:g}" for rec in graph.edges()]
    return lines


def _add_edge_records(graph: OntologyGraph, path, records, positive: bool) -> None:
    """Add the ``(line number, src, dst, label, weight)`` edge records that
    a graph or blend file put aside until its nodes were read. A record
    :class:`OntologyGraph.add_edges` refuses, or a zero weight when
    ``positive``, is a :class:`GraphFormatError` at its line."""
    for line_no, src, dst, label, weight in records:
        try:
            graph.add_edge(src, dst, label, weight)
            if weight == 0.0 and positive:
                raise ValueError("edge weight is a pair count and must be positive, not 0.0")
        except (UnknownTermError, ValueError) as exc:
            raise GraphFormatError(path, line_no, str(exc)) from None


def save_graph(graph: OntologyGraph, path, dk: DkStatistics | None = None) -> None:
    """Line-oriented graph file: node/edge records plus optional freq and
    triple records carrying the word statistics."""
    lines = ["# holoscene graph v1", *_graph_records(graph)]
    if dk is not None:
        for term in sorted(dk.k1):
            lines.append(f"freq {term} {dk.k1[term]:g}")
        for triple in sorted(dk.k3):
            lines.append(f"triple {triple[0]} {triple[1]} {triple[2]} {dk.k3[triple]:g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _first_record(path, kind: str, terms) -> int:
    """Line number of the first ``kind`` record that names one of ``terms``."""
    for line_no, line in read_lines(path):
        fields = line.split()
        if fields[0] == kind and not terms.isdisjoint(fields[1:-1]):
            return line_no
    raise AssertionError(f"no {kind} record names {sorted(terms)}")


def load_graph(path):
    """Read a graph file; returns (graph, statistics or None).

    A term has at most one ``node`` record, a term pair one ``edge`` and a
    sorted term triple one ``triple``. Edge weights must be finite and
    non-negative. A file with ``freq`` records carries statistics. Then
    every node needs exactly one ``freq``, every ``freq`` and ``triple``
    record must name declared nodes, and every count, edge weights (the
    pair counts) included, must be finite and positive. Any breach is a
    :class:`GraphFormatError` naming its line.
    """
    graph = OntologyGraph()
    node_lines: dict[str, int] = {}
    freq: dict[str, float] = {}
    k3: dict[tuple, float] = {}
    edge_lines = []
    for line_no, line in read_lines(path):
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "node" and len(fields) == 3:
                if fields[1] in node_lines:
                    raise ValueError(f"second node record for {fields[1]!r}")
                graph.add_node(fields[1], fields[2])
                node_lines[fields[1]] = line_no
            elif kind == "edge" and len(fields) == 5:
                edge_lines.append((line_no, fields[1], fields[2], fields[3], float(fields[4])))
            elif kind == "freq" and len(fields) == 3:
                if fields[1] in freq:
                    raise ValueError(f"second freq record for {fields[1]!r}")
                freq[fields[1]] = count = float(fields[2])
                if not 0.0 < count < math.inf:
                    raise ValueError(f"freq count must be finite and positive, not {count!r}")
            elif kind == "triple" and len(fields) == 5:
                triple = tuple(sorted(fields[1:4]))
                if triple in k3:
                    raise ValueError(f"second triple record for {' '.join(triple)!r}")
                k3[triple] = count = float(fields[4])
                if not 0.0 < count < math.inf:
                    raise ValueError(f"triple count must be finite and positive, not {count!r}")
            else:
                raise ValueError(f"unrecognized record {kind!r}")
        except ValueError as exc:
            raise GraphFormatError(path, line_no, str(exc)) from None
    _add_edge_records(graph, path, edge_lines, positive=bool(freq))
    if not freq:
        return graph, None

    declared = graph.nodes.keys()
    unmeasured = declared - freq.keys()
    if unmeasured:
        line_no, term = min((node_lines[t], t) for t in unmeasured)
        raise GraphFormatError(path, line_no, f"node {term!r} has no freq record")
    stray = freq.keys() - declared
    if stray:
        raise GraphFormatError(path, _first_record(path, "freq", stray), "freq for an undeclared node")
    # k1 now covers exactly the declared nodes, and the edges join declared
    # nodes: only a triple can name a term without statistics
    stray = set(chain.from_iterable(k3)) - declared
    if stray:
        raise GraphFormatError(path, _first_record(path, "triple", stray),
                               f"k3 term {min(stray)!r} missing from k1")
    return graph, DkStatistics(k1=freq, k3=k3)


def to_dot(graph: OntologyGraph, colors: dict | None = None, name: str = "ontology") -> str:
    """DOT rendering; optional term -> fill color map."""
    lines = [f"graph {name} {{", "  node [style=filled, fillcolor=white];"]
    for term in sorted(graph.nodes):
        attrs = [f'label="{term}"']
        if colors and term in colors:
            attrs.append(f'fillcolor="{colors[term]}"')
        lines.append(f'  "{term}" [{", ".join(attrs)}];')
    for rec in graph.edges():
        lines.append(f'  "{rec.src}" -- "{rec.dst}" [label="{rec.label}", weight={rec.weight:g}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
