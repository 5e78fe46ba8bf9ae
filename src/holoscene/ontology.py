"""Term-graph ontology built from plain-text corpora.

Nodes are the normalized vocabulary; an edge joins every pair of terms
that co-occur within one sentence or two adjacent sentences, weighted by
the raw number of such windows. When a relation pattern (e.g. "part of")
appears between two terms, the pair's edge carries that label instead of
the generic "related-to".

A graph (:class:`OntologyGraph`) is built once from its nodes and four
edge columns (source, target, label and weight), which it checks in bulk,
and held in one form: CSR rows over the sorted terms. Its reads, its
induced subgraphs, the graph and blend file writers and the walk in
``blending`` read those arrays; no edge is held as a tuple.

The word statistics that drive the confabulation scoring come at four
orders. Per-word frequency (order 1) and triple frequency over 3-sentence
windows (order 3) are counted by ``extract_dk``; the average word
frequency (order 0) is the mean of order 1. The pair frequency over
2-sentence windows (order 2) is the edge weight, which only
``build_from_corpus`` counts.

Each window's sorted term pairs (or sorted triples of term ids) are
counted with one ``Counter.update``, in C. A sentence is searched only for
the relation patterns whose surface it contains, and tokenised a second
time, to find the labelled pairs, only when one of them matches.

Triple counts are held as arrays (:class:`TripleCounts`): the sorted term
table, one sorted int64 code ``(lo·n + mid)·n + hi`` per triple of term
ids, and the counts in code order. Only that class knows the code. Its
one constructor takes columns of term ids, computes and sorts the codes
and refuses a repeated triple; the graph file reader, ``extract_dk`` and
a ``DkStatistics`` given a plain mapping all build through it. Its
``count`` looks triples of term ids up a whole array at a time, and its
``over`` renumbers them over another term table, such as a graph's.
``DkStatistics.k3`` reads as a mapping from sorted term triples to
counts, in sorted order.

Graph and blend files share one record grammar and one reader,
``_read_records``, given the kinds a file may hold (a blend holds
``score`` records where a graph holds ``freq`` and ``triple``). It sets a
file's stripped lines aside by kind with ``itertools.groupby`` on their
first character, so no Python statement runs once per line. Each kind's
lines are then split and parsed at once, and repeated terms found by
comparing lengths. Line numbers are worked out only when a check fails,
in one pass over the same lines, which then reads each kind line by line
to name the first bad one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations, groupby, islice, repeat
from operator import add, itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (GraphFormatError, UnknownTermError, UnmappedTermError, add_once, read_lines,
                     stripped_lines)
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

    Built once, from a ``{term: type}`` mapping and the edge columns
    ``src``, ``dst``, ``label`` and ``weight`` (row ``i`` is one edge),
    into CSR rows over the ids of the sorted ``terms`` (Saad, *Iterative
    Methods for Sparse Linear Systems*, §3.4). Row ``i`` is
    ``indptr[i]:indptr[i + 1]``: one entry per edge at term ``i`` (a
    self-loop once), in neighbour order, each with its neighbour id, its
    edge's weight and label id (into ``labels``), and whether term ``i`` is
    the edge's source. ``_edges`` holds each edge's row and entry, in sorted
    pair order. An edge with an end that is not a node, a weight that is not
    finite and non-negative, or a pair already given raises
    :class:`UnknownTermError` or ValueError, its ``record`` the index of the
    first such edge."""

    def __init__(self, nodes=(), src=(), dst=(), label=(), weight=()):
        nodes = dict(nodes)
        terms = sorted(nodes)
        ids = dict(zip(terms, range(len(terms))))
        n, m = len(terms), len(src)
        a, b = (np.fromiter(map(ids.get, ends, repeat(-1)), dtype=np.int64, count=m) for ends in (src, dst))
        weight = np.asarray(weight, dtype=float)
        pair = np.minimum(a, b) * n + np.maximum(a, b)
        refused = (a < 0) | (b < 0) | ~((weight >= 0.0) & (weight < math.inf))
        order = np.argsort(pair, kind="stable")  # a pair's first edge comes first
        refused[order[1:][np.diff(pair[order]) == 0]] = True  # a second edge for the pair
        if refused.any():
            at = int(np.argmax(refused))
            exc = _refusal(nodes, src[at], dst[at], float(weight[at]))
            exc.record = at
            raise exc
        labels = sorted(set(label))
        label_id = dict(zip(labels, range(len(labels))))
        label = np.fromiter(map(label_id.__getitem__, label), dtype=np.int64, count=m)
        self._build(nodes, terms, ids, labels, a, b, label, weight)

    def _build(self, nodes, terms, ids, labels, a, b, label, weight) -> None:
        """Set every attribute from the node tables and the checked edges
        from term id ``a[i]`` to ``b[i]``, with label ids ``label``."""
        self.nodes: dict[str, str] = nodes
        self.terms, self.ids, self.labels = terms, ids, labels
        n, m = len(terms), len(a)
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

    def __contains__(self, term: str) -> bool:
        return term in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def _columns(self, rows, at) -> tuple:
        """The source, target and label lists, and the weight array, of the
        edge of each entry ``at`` of rows ``rows``."""
        terms = np.array(self.terms, dtype=object)
        here, there, forward = terms[rows], terms[self.indices[at]], self.forward[at]
        labels = np.array(self.labels, dtype=object)[self.label[at]]
        return (np.where(forward, here, there).tolist(), np.where(forward, there, here).tolist(),
                labels.tolist(), self.weight[at])

    def _records(self, rows, at) -> list:
        """The edge of each entry ``at`` of rows ``rows``, as an :class:`EdgeRec`."""
        src, dst, label, weight = self._columns(rows, at)
        records = zip(src, dst, label, weight.tolist())
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
        among them, taken from this graph's arrays as they are: they were
        checked when it was built."""
        keep = sorted(set(terms) & self.nodes.keys())
        number = np.full(len(self.terms), -1, dtype=np.int64)  # the id of each kept term in the subgraph
        number[[self.ids[term] for term in keep]] = np.arange(len(keep))
        rows, at = self._edges.T
        rows, cols = number[rows], number[self.indices[at]]
        inside = (rows >= 0) & (cols >= 0)
        rows, cols, at = rows[inside], cols[inside], at[inside]
        forward = self.forward[at]
        used, label = np.unique(self.label[at], return_inverse=True)
        sub = object.__new__(OntologyGraph)
        sub._build({term: self.nodes[term] for term in keep}, keep, dict(zip(keep, range(len(keep)))),
                   [self.labels[i] for i in used.tolist()], np.where(forward, rows, cols),
                   np.where(forward, cols, rows), label, self.weight[at])
        return sub


def _refusal(nodes: dict, src, dst, weight) -> Exception:
    """The error that refuses an edge from ``src`` to ``dst`` of ``weight``
    among ``nodes``."""
    if src not in nodes or dst not in nodes:
        return UnknownTermError(
            f"edge endpoints must be nodes: {src!r}, {dst!r}",
            [t for t in (src, dst) if t not in nodes],
        )
    if not 0.0 <= weight < math.inf:
        return ValueError(f"edge weight must be finite and non-negative, not {weight!r}")
    lo, hi = sorted((src, dst))
    return ValueError(f"second edge between {lo!r} and {hi!r}")


_BLOCK = 8192  # triples read or decoded at a time
_MAX_TERMS = 1 << 21  # codes over at most this many terms fit in int64


class _TooManyTerms(ValueError):
    """A term table larger than triple codes can number. It is a fault of a
    whole graph file, not of one line, so ``load_graph`` names no line."""


class TripleCounts(Mapping):
    """Read-only map from sorted term triples to their window counts.

    Built from three columns ``a``, ``b``, ``c`` of ids into ``terms`` (a
    sorted term list of at most 2^21 terms), one triple per row in any
    order within it, and each triple's count, finite and positive. Stored
    as arrays: ``terms``; ``codes``, the sorted int64 code ``(lo·n + mid)·n
    + hi`` of each triple, its ids sorted into ``lo <= mid <= hi`` and ``n``
    the number of terms; and ``counts``, floats in code order. Codes sort
    as the sorted triples do, so iteration yields the triples in sorted
    order. A repeated triple, a larger table or a count that is not finite
    and positive raises ValueError.

    Only this class computes codes: :meth:`count` looks triples of ids
    up and :meth:`over` renumbers the table over other terms."""

    def __init__(self, terms, a, b, c, counts):
        if len(terms) > _MAX_TERMS:
            raise _TooManyTerms(f"{len(terms)} terms: triple codes fit in int64 for at most {_MAX_TERMS}")
        self.terms = terms
        codes = self._code(a, b, c)
        order = np.argsort(codes)
        self.codes, self.counts = codes[order], np.asarray(counts, dtype=float)[order]
        repeated = np.flatnonzero(self.codes[1:] == self.codes[:-1])
        if len(repeated):
            triple, _ = next(islice(self.items(), int(repeated[0]), None))
            raise ValueError(f"second count for triple {triple}")
        if not ((self.counts > 0.0) & (self.counts < math.inf)).all():
            raise ValueError("a triple count that is not finite and positive")

    @classmethod
    def from_counts(cls, terms: list, triples) -> "TripleCounts":
        """From a mapping of sorted triples of ``terms`` (a sorted list) to
        their counts."""
        number = dict(zip(terms, range(len(terms))))
        ids = np.fromiter(map(number.__getitem__, chain.from_iterable(triples)),
                          dtype=np.int64, count=3 * len(triples)).reshape(-1, 3)
        return cls(terms, *ids.T, np.fromiter(triples.values(), dtype=float, count=len(triples)))

    def _code(self, a, b, c):
        """The code of each triple of term ids ``(a[i], b[i], c[i])``."""
        lo, hi = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
        n = len(self.terms)
        return (lo * n + (a + b + c - lo - hi)) * n + hi

    def count(self, a, b, c):
        """The count of each triple of term ids ``(a[i], b[i], c[i])``, in
        any order within it; 0 for a triple that is not counted."""
        codes = self._code(a, b, c)
        if not len(self.codes):
            return np.zeros(np.shape(codes))
        at = np.minimum(np.searchsorted(self.codes, codes), len(self.codes) - 1)
        return np.where(self.codes[at] == codes, self.counts[at], 0.0)

    def over(self, terms: list) -> "TripleCounts":
        """The counts of the triples of ``terms`` (a sorted list), ids
        renumbered into it; itself when ``terms`` is its own table."""
        if terms == self.terms:
            return self
        number = dict(zip(terms, range(len(terms))))
        ids = np.fromiter(map(number.get, self.terms, repeat(-1)), dtype=np.int64,
                          count=len(self.terms))[np.stack(self.ids())]
        known = (ids >= 0).all(axis=0)
        return TripleCounts(terms, *ids[:, known], self.counts[known])

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
            count = float(self.count(*ids))
            if count:
                return count
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


def running_sum(values):
    """``values`` added one at a time, in order, from 0, as ``sum`` adds
    them up to Python 3.11. From 3.12 ``sum`` compensates the rounding of a
    float total (Neumaier's algorithm), which moves its last bits, and so
    would make blend scores depend on the Python version."""
    return reduce(add, values, 0)


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
        return running_sum(self.k1.values())

    @property
    def k0(self) -> float:
        return self.total_frequency / len(self.k1) if self.k1 else 0.0


# -- corpus scanning ---------------------------------------------------------


def _count_windows(term_lists, width: int, counts: Counter) -> None:
    """Add to ``counts`` the sorted ``width``-term combinations of each window
    of ``width`` consecutive sentences, or of the one window of all the
    sentences when there are fewer. Terms may be strings or term ids."""
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

    src, dst = (list(ends) for ends in zip(*pair_counts)) if pair_counts else ([], [])
    label = [GENERIC_RELATION] * len(src)
    row = dict(zip(pair_counts, range(len(src))))
    for pair, (a, b, name) in labels.items():  # the few pairs a relation pattern labelled
        if pair in row:
            src[row[pair]], dst[row[pair]], label[row[pair]] = a, b, name
    return OntologyGraph({term: lex.semantic_type(term) for term in terms_seen},
                         src, dst, label, list(pair_counts.values()))


def extract_dk(corpus, graph: OntologyGraph | None = None, lexicon: Lexicon | None = None) -> DkStatistics:
    """Word and triple frequencies over the same sentences the graph was
    built from; the pair counts are ``graph``'s edge weights. If ``graph``
    is given, every counted term must be one of its nodes."""
    lex = lexicon or default_lexicon()
    documents = [[lex.content_terms(s) for s in split_sentences(document)] for document in corpus]
    k1 = Counter(chain.from_iterable(chain.from_iterable(documents)))
    terms = sorted(k1)
    number = dict(zip(terms, range(len(terms))))
    k3: Counter = Counter()  # sorted triples of term ids
    for term_lists in documents:
        _count_windows([list(map(number.__getitem__, t)) for t in term_lists], 3, k3)
    ids = np.fromiter(chain.from_iterable(k3), dtype=np.int64, count=3 * len(k3)).reshape(-1, 3)
    counts = np.fromiter(k3.values(), dtype=float, count=len(k3))
    stats = DkStatistics(k1=dict(k1), k3=TripleCounts(terms, *ids.T, counts))
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
    for _, src, dst in read_arrows(path, "term -> term"):
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
            add_once(entries, (fields[0], fields[1]), value, path, line_no)
        return cls(entries)


# -- graph file format ---------------------------------------------------------


def _counts(values: np.ndarray) -> list:
    """Each float of ``values`` as a record writes it, so that it reads back
    as the same float: a whole number in [0, 10^6), as nearly every count
    is, as an int, which formats as ``:g`` would format the float; any
    other as its ``:g`` text where that is exact, else as its ``repr``."""
    other = (values != np.trunc(values)) | ~(np.abs(values) < 1e6) | np.signbit(values)
    texts = np.where(other, 0, values).astype(np.int64).tolist()
    for at in np.flatnonzero(other).tolist():
        value = float(values[at])
        texts[at] = f"{value:g}" if float(f"{value:g}") == value else repr(value)
    return texts


def _graph_records(graph: OntologyGraph) -> list:
    """The ``node`` and ``edge`` lines of ``graph``, shared by the graph and
    blend files; the edge lines are formatted from its arrays."""
    lines = list(map("node {} {}".format, graph.terms, map(graph.nodes.__getitem__, graph.terms)))
    src, dst, label, weight = graph._columns(*graph._edges.T)
    lines += map("edge {} {} {} {}".format, src, dst, label, _counts(weight))
    return lines


def _graph_from_columns(path, nodes: dict, columns, line_no) -> OntologyGraph:
    """The graph of a graph or blend file's ``nodes`` and edge ``columns``
    (src, dst, label and weight). An edge the graph refuses is a
    :class:`GraphFormatError` at ``line_no("edge", i)``, ``i`` its index."""
    try:
        return OntologyGraph(nodes, *columns)
    except (UnknownTermError, ValueError) as exc:
        raise GraphFormatError(path, line_no("edge", exc.record), str(exc)) from None


def save_graph(graph: OntologyGraph, path, dk: DkStatistics | None = None) -> None:
    """Line-oriented graph file: node/edge records plus optional freq and
    triple records carrying the word statistics. Every weight and count is
    written so that it reads back as the same float."""
    lines = ["# holoscene graph v1", *_graph_records(graph)]
    if dk is not None:
        terms = sorted(dk.k1)
        freq = _counts(np.fromiter(map(dk.k1.__getitem__, terms), dtype=float, count=len(terms)))
        lines += [f"freq {term} {count}" for term, count in zip(terms, freq)]
        triples = zip(dk.k3.items(), _counts(dk.k3.counts))
        lines += [f"triple {a} {b} {c} {count}" for ((a, b, c), _), count in triples]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_WIDTHS = {"node": 3, "edge": 5, "freq": 3, "triple": 5, "score": 4}  # fields per record, the kind included
_FIRST = itemgetter(slice(0, 1))  # a line's first character, "" for a blank one
PROVENANCES = ("anchored", "expanded", "confabulated")  # how a term entered a blend


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


def _graph_fields(records: dict) -> tuple:
    """The nodes, a dict in file order, and the edge columns of ``records``;
    ValueError if one does not parse or a term has two nodes."""
    (terms, types), (src, dst, label, weight) = (_fields(kind, records[kind]) for kind in ("node", "edge"))
    nodes = dict(zip(terms, types))
    if len(nodes) < len(terms):
        raise ValueError("a second node record for a term")
    return nodes, [src, dst, label, np.fromiter(map(float, weight), dtype=float, count=len(weight))]


def _blend_fields(records: dict) -> tuple:
    """The :func:`_graph_fields` of a blend file's ``records``, then its
    scores and provenances in file order; ValueError if a score record does
    not parse, repeats a term, or holds an unknown provenance or a score
    outside [0, 1]."""
    terms, texts, provenance = _fields("score", records["score"])
    scores = np.fromiter(map(float, texts), dtype=float, count=len(texts))
    if (len(set(terms)) < len(terms) or not set(provenance) <= set(PROVENANCES)
            or not ((scores >= 0.0) & (scores <= 1.0)).all()):
        raise ValueError("a bad score record")
    return (*_graph_fields(records), dict(zip(terms, scores.tolist())), dict(zip(terms, provenance)))


def _positive(counts: list) -> np.ndarray:
    """``counts`` as floats; ValueError unless each parses and is finite
    and positive."""
    values = np.fromiter(map(float, counts), dtype=float, count=len(counts))
    if not ((values > 0.0) & (values < math.inf)).all():
        raise ValueError("a count that is not finite and positive")
    return values


def _first_fault(kind: str, lines: list):
    """``(index, message)`` of the first of ``lines`` that is not a ``kind``
    record of the right width, or names an unknown provenance, repeats the
    term (or sorted term triple) of an earlier one, or holds a number that
    does not parse, a count that is not finite and positive or a score
    outside [0, 1]; None if there is none. The graph checks edge weights."""
    seen = set()
    for at, line in enumerate(lines):
        fields = line.split()
        try:
            if fields[0] != kind or len(fields) != _WIDTHS[kind]:
                raise ValueError(f"unrecognized record {fields[0]!r}")
            if kind == "score" and fields[3] not in PROVENANCES:
                raise ValueError(f"unknown provenance {fields[3]!r}")
            if kind != "edge":
                key = " ".join(sorted(fields[1:4])) if kind == "triple" else fields[1]
                if key in seen:
                    raise ValueError(f"second {kind} record for {key!r}")
                seen.add(key)
            if kind != "node":
                count = float(fields[2 if kind == "score" else -1])
                if kind == "score" and not 0.0 <= count <= 1.0:
                    raise ValueError(f"score must be a number in [0, 1], not {fields[2]!r}")
                if kind in ("freq", "triple") and not 0.0 < count < math.inf:
                    raise ValueError(f"{kind} count must be finite and positive, not {count!r}")
        except ValueError as exc:
            return at, str(exc)
    return None


def _read_records(path, kinds: tuple, parse):
    """``parse(records)`` of a graph or blend file of records of ``kinds``,
    ``records`` mapping each kind to its lines, and ``line_no(kind, i)``, the
    line of record ``i`` of a kind. If ``parse`` raises ValueError, the first
    bad line, found by :func:`_first_fault` on each kind, is a
    :class:`GraphFormatError`."""
    lines = stripped_lines(path)
    first = {kind[0]: kind for kind in kinds}  # no two kinds start with the same letter

    def line_numbers():  # each kind's line numbers up to the first line of no kind; that line's fault
        line_nos = {kind: [] for kind in kinds}
        for line_no, line in read_lines(path, lines):
            if line[0] not in first:
                return line_nos, [(line_no, f"unrecognized record {line.split()[0]!r}")]
            line_nos[first[line[0]]].append(line_no)
        return line_nos, []

    records = {kind: [] for kind in kinds}
    try:
        for char, group in groupby(lines, _FIRST):
            if char in first:
                records[first[char]].extend(group)
            elif char not in ("", "#"):  # a line of no record kind: no line after it can fail first
                raise ValueError("a line of no record kind")
        parsed = parse(records)
    except _TooManyTerms as exc:
        raise GraphFormatError(path, None, str(exc)) from None
    except ValueError:
        line_nos, faults = line_numbers()
        for kind in kinds:
            fault = _first_fault(kind, records[kind])
            if fault:
                faults.append((line_nos[kind][fault[0]], fault[1]))
        raise GraphFormatError(path, *min(faults)) from None

    return parsed, lambda kind, at: line_numbers()[0][kind][at]


def load_graph(path):
    """Read a graph file; returns (graph, statistics or None).

    A term has at most one ``node`` record, a term pair one ``edge`` and a
    sorted term triple one ``triple``. Edge weights must be finite and
    non-negative. A file with ``freq`` records carries statistics. Then
    every node needs exactly one ``freq``, every ``freq`` and ``triple``
    record must name declared nodes, and every count, edge weights (the
    pair counts) included, must be finite and positive. Any breach is a
    :class:`GraphFormatError` naming its line.

    The file is read by :func:`_read_records`, each kind split, parsed and
    checked in bulk, and the graph built from the edge columns.
    """
    def parse(records):  # k3 is None if a triple names a term with no freq
        nodes, columns = _graph_fields(records)
        freq_terms, freq = _fields("freq", records["freq"])
        k1 = dict(zip(freq_terms, _positive(freq).tolist()))
        if len(k1) < len(freq_terms):
            raise ValueError("a second freq record for a term")
        k3 = _read_triples(sorted(k1), records["triple"])
        if k3 is None and _first_fault("triple", records["triple"]):
            raise ValueError("a bad triple record")
        return nodes, columns, freq_terms, k1, k3, records["triple"]

    (nodes, columns, freq_terms, k1, k3, triples), line_no = _read_records(
        path, ("node", "edge", "freq", "triple"), parse)
    weight = columns[3]
    zero = int(np.argmax(weight == 0.0)) if k1 and (weight == 0.0).any() else len(weight)
    if zero < len(weight):  # the graph checks the edges before it first
        columns = [column[:zero + 1] for column in columns]
    graph = _graph_from_columns(path, nodes, columns, line_no)
    if zero < len(weight):
        raise GraphFormatError(path, line_no("edge", zero),
                               "edge weight is a pair count and must be positive, not 0.0")
    if not k1:
        return graph, None

    declared = graph.nodes.keys()
    if k1.keys() != declared:
        at, term = next(((at, term) for at, term in enumerate(nodes) if term not in k1), (None, None))
        if at is not None:
            raise GraphFormatError(path, line_no("node", at), f"node {term!r} has no freq record")
        at = next(i for i, term in enumerate(freq_terms) if term not in declared)
        raise GraphFormatError(path, line_no("freq", at), "freq for an undeclared node")
    if k3 is None:  # k1 covers exactly the declared nodes: a triple names another term
        named = [line.split()[1:4] for line in triples]
        at = next(i for i, triple in enumerate(named) if any(t not in declared for t in triple))
        missing = min(set(chain.from_iterable(named)) - declared)
        raise GraphFormatError(path, line_no("triple", at), f"k3 term {missing!r} missing from k1")
    return graph, DkStatistics(k1=k1, k3=k3)


def _read_triples(terms: list, lines: list) -> TripleCounts | None:
    """The counts of the triple records ``lines`` over ``terms`` (the sorted
    ``k1`` terms), or None if one names another term. ValueError if a
    record does not parse, a count is not finite and positive or a sorted
    triple has two records; :class:`_TooManyTerms` if there are more terms
    than :class:`TripleCounts` holds."""
    number = dict(zip(terms, range(len(terms))))
    ids, counts = [np.empty((3, 0), dtype=np.int64)], [np.empty(0)]
    for at in range(0, len(lines), _BLOCK):  # a block at a time: few field strings live at once
        *names, block_counts = _fields("triple", lines[at:at + _BLOCK])
        counts.append(np.fromiter(map(float, block_counts), dtype=float, count=len(block_counts)))
        ids.append(np.fromiter(map(number.get, chain(*names), repeat(-1)), dtype=np.int64,
                               count=3 * len(block_counts)).reshape(3, -1))
    ids = np.concatenate(ids, axis=1)
    return None if (ids < 0).any() else TripleCounts(terms, *ids, np.concatenate(counts))


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
