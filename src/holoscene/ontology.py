"""Term-graph ontology built from plain-text corpora.

Nodes are the normalized vocabulary; an edge joins every pair of terms
that co-occur within one sentence or two adjacent sentences, weighted by
the raw number of such windows. When a relation pattern (e.g. "part of")
appears between two terms, the pair's edge carries that label instead of
the generic "related-to".

A graph (:class:`OntologyGraph`) is built once from its nodes and edge
records, which it checks in bulk, and held in one form: CSR rows over the
sorted terms. Its reads and the walk in ``blending`` read those arrays.

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

Triple counts are held as arrays (:class:`TripleCounts`): the sorted term
table, one sorted int64 code ``(lo·n + mid)·n + hi`` per triple of term
ids, and the counts in code order. ``DkStatistics.k3`` reads as a mapping
from sorted term triples to counts, in sorted order, and the walk in
``blending`` searches the codes directly.

``load_graph`` reads a graph file in one pass that only puts each line,
and its line number, aside by record kind. Each kind's lines are then
split at once, their counts parsed with one ``map(float, ...)``, repeated
terms found by comparing lengths, and the graph built from all the edge
records at once; it names the first record it refuses. Only when another
check fails are the lines read one by one, to name the first bad one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, combinations, islice, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

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

    Built once, from a ``{term: type}`` mapping and ``(src, dst, label,
    weight)`` edge records, into CSR rows over the ids of the sorted
    ``terms`` (Saad, *Iterative Methods for Sparse Linear Systems*, §3.4).
    Row ``i`` is ``indptr[i]:indptr[i + 1]``: one entry per edge at term
    ``i`` (a self-loop once), in neighbour order, each with its neighbour
    id, its edge's weight and label id (into ``labels``), and whether term
    ``i`` is the edge's source. ``_edges`` holds each edge's row and entry,
    in sorted pair order. A record with an end that is not a node, a weight
    that is not finite and non-negative, or a pair already given raises
    :class:`UnknownTermError` or ValueError, its ``record`` the index of the
    first such record."""

    def __init__(self, nodes=(), edges=()):
        self.nodes: dict[str, str] = dict(nodes)
        self.terms = sorted(self.nodes)
        self.ids = dict(zip(self.terms, range(len(self.terms))))
        records = list(edges)
        src, dst, label, weight = zip(*records) if records else ((),) * 4
        n, m = len(self.terms), len(records)
        a, b = (np.fromiter(map(self.ids.get, ends, repeat(-1)), dtype=np.int64, count=m)
                for ends in (src, dst))
        weight = np.array(weight, dtype=float)
        pair = np.minimum(a, b) * n + np.maximum(a, b)
        refused = (a < 0) | (b < 0) | ~((weight >= 0.0) & (weight < math.inf))
        order = np.argsort(pair, kind="stable")  # a pair's first record comes first
        refused[order[1:][np.diff(pair[order]) == 0]] = True  # a second edge for the pair
        if refused.any():
            at = int(np.argmax(refused))
            exc = self._refusal(*records[at])
            exc.record = at
            raise exc

        self.labels = sorted(set(label))
        label_id = dict(zip(self.labels, range(len(self.labels))))
        label = np.fromiter(map(label_id.__getitem__, label), dtype=np.int64, count=m)
        back = np.flatnonzero(a != b)  # a self-loop has one entry, forward
        rows, cols = np.concatenate([a, b[back]]), np.concatenate([b, a[back]])
        order = np.argsort(rows * n + cols)
        record, rows = np.concatenate([np.arange(m), back])[order], rows[order]
        self.indptr = np.searchsorted(rows, np.arange(n + 1))
        self.indices = cols[order]
        self.weight, self.label = weight[record], label[record]
        self.forward = order < m
        upper = np.flatnonzero(self.indices >= rows)
        self._edges = np.column_stack([rows[upper], upper])

    def _refusal(self, src, dst, label, weight) -> Exception:
        """The error that refuses the edge record ``(src, dst, label, weight)``."""
        if src not in self.nodes or dst not in self.nodes:
            return UnknownTermError(
                f"edge endpoints must be nodes: {src!r}, {dst!r}",
                [t for t in (src, dst) if t not in self.nodes],
            )
        if not 0.0 <= weight < math.inf:
            return ValueError(f"edge weight must be finite and non-negative, not {weight!r}")
        lo, hi = sorted((src, dst))
        return ValueError(f"second edge between {lo!r} and {hi!r}")

    def __contains__(self, term: str) -> bool:
        return term in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def _records(self, rows, at) -> list:
        """The edge of each entry ``at`` of rows ``rows``, as an :class:`EdgeRec`."""
        terms = np.array(self.terms, dtype=object)
        here, there, forward = terms[rows], terms[self.indices[at]], self.forward[at]
        labels = np.array(self.labels, dtype=object)[self.label[at]]
        records = zip(np.where(forward, here, there).tolist(), np.where(forward, there, here).tolist(),
                      labels.tolist(), self.weight[at].tolist())
        return list(map(tuple.__new__, repeat(EdgeRec), records))  # not EdgeRec's Python __new__

    def _row(self, term) -> np.ndarray:
        """The entries of ``term``'s row; none if it is not a node."""
        i = self.ids.get(term)
        return np.arange(0) if i is None else np.arange(self.indptr[i], self.indptr[i + 1])

    def edges(self) -> list:
        """Every edge, in sorted term pair order."""
        return self._records(*self._edges.T)

    def edge_between(self, a: str, b: str) -> EdgeRec | None:
        at = self._row(a)
        at = at[self.indices[at] == self.ids.get(b, -1)]
        return self._records([self.ids[a]], at)[0] if len(at) else None

    def neighbors(self, term: str, relations=None) -> list:
        """Sorted neighbor terms, optionally restricted to edge labels."""
        at = self._row(term)
        if relations is not None:
            at = at[[self.labels[label] in relations for label in self.label[at].tolist()]]
        return [self.terms[j] for j in self.indices[at].tolist()]

    def induced(self, terms) -> "OntologyGraph":
        """The kept terms that are nodes, in sorted order, and the edges
        among them."""
        keep = sorted(set(terms) & self.nodes.keys())
        kept = np.zeros(len(self.terms), dtype=bool)
        kept[[self.ids[term] for term in keep]] = True
        rows, at = self._edges[kept[self._edges[:, 0]] & kept[self.indices[self._edges[:, 1]]]].T
        return OntologyGraph({term: self.nodes[term] for term in keep}, self._records(rows, at))


def triple_code(a, b, c, n: int):
    """The int64 code ``(lo·n + mid)·n + hi`` of each unordered triple of term
    ids below ``n``, sorted into ``lo <= mid <= hi``: codes sort as the
    sorted triples do. Codes of up to 2^21 terms fit in int64."""
    lo, hi = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
    return (lo * n + (a + b + c - lo - hi)) * n + hi


_BLOCK = 8192  # triples read or decoded at a time


class TripleCounts(Mapping):
    """Read-only map from sorted term triples to their window counts.

    Stored as arrays: ``terms``, the sorted term table; ``codes``, the
    sorted :func:`triple_code` of each triple's term ids; and ``counts``,
    floats in code order. Iteration yields the triples in sorted order."""

    def __init__(self, terms: list, codes, counts):
        self.terms, self.codes, self.counts = terms, codes, counts

    @classmethod
    def from_counts(cls, terms: list, triples) -> "TripleCounts":
        """From a mapping of sorted triples of ``terms`` (a sorted list) to
        their counts."""
        number = dict(zip(terms, range(len(terms))))
        ids = np.fromiter(map(number.__getitem__, chain.from_iterable(triples)),
                          dtype=np.int64, count=3 * len(triples)).reshape(-1, 3)
        codes = triple_code(*ids.T, len(terms))
        order = np.argsort(codes)
        counts = np.fromiter(triples.values(), dtype=float, count=len(triples))
        return cls(terms, codes[order], counts[order])

    def ids(self, at: int = 0, end: int | None = None) -> tuple:
        """The term ids of the triples ``at:end``, as arrays lo, mid and hi
        in code order."""
        n = max(len(self.terms), 1)
        high, hi = np.divmod(self.codes[at:end], n)
        return (*np.divmod(high, n), hi)

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        return (triple for triple, _ in self.items())

    def __getitem__(self, triple):
        terms, n = self.terms, len(self.terms)
        ids = [bisect_left(terms, term) for term in triple] if isinstance(triple, tuple) else []
        named = len(ids) == 3 and all(i < n and terms[i] == term for i, term in zip(ids, triple))
        if named and ids == sorted(ids):  # a key is a sorted triple of terms
            code = triple_code(*ids, n)
            at = np.searchsorted(self.codes, code)
            if at < len(self.codes) and self.codes[at] == code:
                return float(self.counts[at])
        raise KeyError(triple)

    def items(self):
        """(sorted triple, count) pairs in sorted order, decoded a block at a
        time so that few temporaries are alive at once."""
        terms = np.array(self.terms, dtype=object)  # indexing yields the term strings, not copies
        for at in range(0, len(self.codes), _BLOCK):
            names = (terms[ids].tolist() for ids in self.ids(at, at + _BLOCK))
            yield from zip(zip(*names), self.counts[at:at + _BLOCK].tolist())

    def __repr__(self) -> str:
        return f"TripleCounts({dict(self.items())!r})"


@dataclass(frozen=True)
class DkStatistics:
    """Word statistics at orders 1 and 3 (single and triple), with order 0
    (average) derived from order 1. Order 2, the pair counts, is the graph's
    edge weights. ``k3`` is held over ``sorted(k1)``; any other mapping of
    sorted triples to counts is converted to that form."""

    k1: dict
    k3: TripleCounts

    def __post_init__(self):
        if not isinstance(self.k3, TripleCounts):
            object.__setattr__(self, "k3", TripleCounts.from_counts(sorted(self.k1), self.k3))

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

    records = ((*labels.get(pair, (*pair, GENERIC_RELATION)), count) for pair, count in pair_counts.items())
    return OntologyGraph({term: lex.semantic_type(term) for term in terms_seen}, records)


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
    stats = DkStatistics(k1=dict(k1), k3=k3)  # k3 becomes a TripleCounts
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
    lines = [f"node {term} {graph.nodes[term]}" for term in graph.terms]
    lines += [f"edge {rec.src} {rec.dst} {rec.label} {rec.weight:g}" for rec in graph.edges()]
    return lines


def _graph_from_records(path, nodes: dict, line_nos: list, records) -> OntologyGraph:
    """The graph of a graph or blend file's ``nodes`` and ``(src, dst,
    label, weight)`` edge records, read at ``line_nos``. A record the graph
    refuses is a :class:`GraphFormatError` at its line."""
    try:
        return OntologyGraph(nodes, records)
    except (UnknownTermError, ValueError) as exc:
        raise GraphFormatError(path, line_nos[exc.record], str(exc)) from None


def save_graph(graph: OntologyGraph, path, dk: DkStatistics | None = None) -> None:
    """Line-oriented graph file: node/edge records plus optional freq and
    triple records carrying the word statistics."""
    lines = ["# holoscene graph v1", *_graph_records(graph)]
    if dk is not None:
        lines += [f"freq {term} {dk.k1[term]:g}" for term in sorted(dk.k1)]
        lines += [f"triple {a} {b} {c} {count:g}" for (a, b, c), count in dk.k3.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_WIDTHS = {"node": 3, "edge": 5, "freq": 3, "triple": 5}  # fields per record, the kind included
_KINDS = {kind[0]: kind for kind in _WIDTHS}  # no two kinds start with the same letter


def _fields(kind: str, lines: list) -> list:
    """The fields after the kind of ``lines``, which should each be a
    ``kind`` record, one list per field; ValueError if one is not. All
    lines are split at once, joined by a NUL token, which must then fall
    after every record and nowhere else. A NUL in a line sends the lines
    to a split each."""
    width, n = _WIDTHS[kind], len(lines)
    joined = " \0 ".join(lines)
    tokens = joined.split()
    stride = width + 1
    if n and (len(tokens) != n * stride - 1 or joined.count("\0") != n - 1
              or tokens[width::stride].count("\0") != n - 1):
        tokens = list(chain.from_iterable([*line.split(), "\0"] for line in lines))
        if len(tokens) != n * stride or tokens[width::stride].count("\0") != n:
            raise ValueError(f"a {kind} record with another number of fields")
    columns = [tokens[i::stride] for i in range(width)]
    if columns[0].count(kind) != n:
        raise ValueError(f"a record that is not {kind}")
    return columns[1:]


def _positive(counts: list) -> np.ndarray:
    """``counts`` as floats; ValueError unless each parses and is finite
    and positive."""
    values = np.fromiter(map(float, counts), dtype=float, count=len(counts))
    if not ((values > 0.0) & (values < math.inf)).all():
        raise ValueError("a count that is not finite and positive")
    return values


def _first_fault(kind: str, lines: list, line_nos: list):
    """``(line number, message)`` of the first of ``lines`` that is not a
    ``kind`` record with the right number of fields, or that repeats the
    term (or sorted term triple) of an earlier one, or holds a number that
    does not parse or a count that is not finite and positive; None if
    there is none. The graph checks the edge weights."""
    seen = set()
    for line_no, line in zip(line_nos, lines):
        fields = line.split()
        try:
            if fields[0] != kind or len(fields) != _WIDTHS[kind]:
                raise ValueError(f"unrecognized record {fields[0]!r}")
            if kind != "edge":
                key = " ".join(sorted(fields[1:4])) if kind == "triple" else fields[1]
                if key in seen:
                    raise ValueError(f"second {kind} record for {key!r}")
                seen.add(key)
            if kind != "node":
                count = float(fields[-1])
                if kind != "edge" and not 0.0 < count < math.inf:
                    raise ValueError(f"{kind} count must be finite and positive, not {count!r}")
        except ValueError as exc:
            return line_no, str(exc)
    return None


def load_graph(path):
    """Read a graph file; returns (graph, statistics or None).

    A term has at most one ``node`` record, a term pair one ``edge`` and a
    sorted term triple one ``triple``. Edge weights must be finite and
    non-negative. A file with ``freq`` records carries statistics. Then
    every node needs exactly one ``freq``, every ``freq`` and ``triple``
    record must name declared nodes, and every count, edge weights (the
    pair counts) included, must be finite and positive. Any breach is a
    :class:`GraphFormatError` naming its line.

    One loop puts each line, and its line number, aside by its kind; each
    kind is then split, parsed and checked in bulk. Only when a check fails
    are the lines read one by one, to find the first bad one.
    """
    lines = {kind: [] for kind in _WIDTHS}
    line_nos = {kind: [] for kind in _WIDTHS}
    faults = []  # (line number, message)
    for line_no, line in read_lines(path):
        kind = _KINDS.get(line[0])
        if kind is None:  # no line after this one can fail first
            faults.append((line_no, f"unrecognized record {line.split()[0]!r}"))
            break
        lines[kind].append(line)
        line_nos[kind].append(line_no)

    try:
        if faults:
            raise ValueError("a line of no record kind")
        (terms, types), (src, dst, label, weight), (freq_terms, freq) = (
            _fields(kind, lines[kind]) for kind in ("node", "edge", "freq"))
        weight = list(map(float, weight))
        k1 = dict(zip(freq_terms, _positive(freq).tolist()))
        if len(k1) < len(freq_terms) or len(set(terms)) < len(terms):
            raise ValueError("a second node or freq record for a term")
        k3 = _read_triples(sorted(k1), lines["triple"])
        if k3 is None and _first_fault("triple", lines["triple"], line_nos["triple"]):
            raise ValueError("a bad triple record")
    except ValueError:
        faults += filter(None, (_first_fault(kind, lines[kind], line_nos[kind]) for kind in _WIDTHS))
        raise GraphFormatError(path, *min(faults)) from None

    zero = weight.index(0.0) if k1 and 0.0 in weight else len(weight)
    graph = _graph_from_records(path, dict(zip(terms, types)), line_nos["edge"],
                                islice(zip(src, dst, label, weight), zero + 1))
    if zero < len(weight):
        raise GraphFormatError(path, line_nos["edge"][zero],
                               "edge weight is a pair count and must be positive, not 0.0")
    if not k1:
        return graph, None

    declared = graph.nodes.keys()
    if k1.keys() != declared:
        at = next((i for i, term in enumerate(terms) if term not in k1), None)
        if at is not None:
            raise GraphFormatError(path, line_nos["node"][at], f"node {terms[at]!r} has no freq record")
        at = next(i for i, term in enumerate(freq_terms) if term not in declared)
        raise GraphFormatError(path, line_nos["freq"][at], "freq for an undeclared node")
    if k3 is None:  # k1 covers exactly the declared nodes: a triple names another term
        named = [line.split()[1:4] for line in lines["triple"]]
        at = next(i for i, triple in enumerate(named) if any(t not in declared for t in triple))
        missing = min(set(chain.from_iterable(named)) - declared)
        raise GraphFormatError(path, line_nos["triple"][at], f"k3 term {missing!r} missing from k1")
    return graph, DkStatistics(k1=k1, k3=k3)


def _read_triples(terms: list, lines: list) -> TripleCounts | None:
    """The counts of the triple records ``lines`` over ``terms`` (the sorted
    ``k1`` terms), or None if one names another term. ValueError if a
    record does not parse, a count is not finite and positive or a sorted
    triple has two records."""
    number = dict(zip(terms, range(len(terms))))
    ids, counts = [np.empty((3, 0), dtype=np.int64)], [np.empty(0)]
    for at in range(0, len(lines), _BLOCK):  # a block at a time: few field strings live at once
        *names, block_counts = _fields("triple", lines[at:at + _BLOCK])
        counts.append(_positive(block_counts))
        ids.append(np.fromiter(map(number.get, chain(*names), repeat(-1)), dtype=np.int64,
                               count=3 * len(block_counts)).reshape(3, -1))
    ids, counts = np.concatenate(ids, axis=1), np.concatenate(counts)
    if (ids < 0).any():
        return None
    codes = triple_code(*ids, len(terms))
    order = np.argsort(codes)
    codes = codes[order]
    if (codes[1:] == codes[:-1]).any():
        raise ValueError("a second triple record")
    return TripleCounts(terms, codes, counts[order])


def to_dot(graph: OntologyGraph, colors: dict | None = None, name: str = "ontology") -> str:
    """DOT rendering; optional term -> fill color map."""
    lines = [f"graph {name} {{", "  node [style=filled, fillcolor=white];"]
    for term in graph.terms:
        attrs = [f'label="{term}"']
        if colors and term in colors:
            attrs.append(f'fillcolor="{colors[term]}"')
        lines.append(f'  "{term}" [{", ".join(attrs)}];')
    for rec in graph.edges():
        lines.append(f'  "{rec.src}" -- "{rec.dst}" [label="{rec.label}", weight={rec.weight:g}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
