"""Term-graph ontology built from plain-text corpora.

Nodes are the normalized vocabulary; an edge joins every pair of terms
that co-occur within one sentence or two adjacent sentences, weighted by
the raw number of such windows. When a relation pattern (e.g. "part of")
appears between two terms, the pair's edge carries that label instead of
the generic "related-to".

A graph (:class:`OntologyGraph`) is built once from its nodes and four
edge columns (source, target, label and weight), which it checks in bulk.
It holds each edge once, in an edge list in sorted term pair order, and
CSR rows over the sorted terms point into it. ``edges()``, the induced
subgraphs and the file writers read the list as it is; ``neighbors`` and
the walk in ``blending`` read the rows. No edge is held as a tuple.

The word statistics that drive the confabulation scoring come at four
orders. Per-word frequency (order 1) and triple frequency over 3-sentence
windows (order 3) are counted by ``extract_dk``; the average word
frequency (order 0) is the mean of order 1. The pair frequency over
2-sentence windows (order 2) is the edge weight, which only
``build_from_corpus`` counts.

A corpus is scanned once (``_scan_corpus``): each sentence is split off
and its content terms taken, as ids into the sorted term table.
``pipeline.build_ontology`` hands that one scan to both ``build_from_corpus``
and ``extract_dk``; either, called alone, scans for itself. Windows are
counted by ``_window_rows``: the windows are grouped by their number of
distinct term ids, every combination of a group is gathered at once
through one index table, and the rows are counted by ``np.unique``, the
pairs' in ``build_from_corpus`` and the triples' in :class:`TripleCounts`.
A sentence is searched only for the relation patterns whose surface it
contains, and tokenised a second time, to find the labelled pairs, only
when one of them matches.

Triple counts are held as arrays (:class:`TripleCounts`): the sorted term
table, one sorted int64 code ``(lo·n + mid)·n + hi`` per triple of term
ids, and the counts in code order. Only that class knows the code. Its
one constructor takes columns of term ids, computes and sorts the codes
and refuses a repeated triple, or, given no counts, counts the repeated
rows of a triple as its count; the graph file reader and ``extract_dk``
both build through it, and ``DkStatistics`` takes nothing else. Its
``count`` looks triples of term ids up a whole array at a time, and its
``over`` renumbers them over another term table, such as a graph's.
``DkStatistics.k3`` reads as a mapping from sorted term triples to
counts, in sorted order.

Graph and blend files share one record grammar, read and written by
``records``, which knows columns, not graphs. Here the nodes, ``k1`` and
the triple counts are built from the reader's columns, the graph from the
edges' name ids, which, like the triples', are renumbered onto the sorted
terms; repeated terms are found by comparing lengths.

``load_graph`` reads a file's bytes once and keys them by SHA-256. The
process keeps one load: the graph and statistics of bytes loaded twice in
a row, which it hands back again, without a parse, while the same bytes
are loaded. A load of other bytes drops it, so that loads that do not
repeat hold nothing (a process that loads a graph once, to check it, does
not hold it through its later work), and a load that fails keeps
nothing. What it hands out is therefore shared and read-only: every
array of a graph and of its triple counts is not writeable, a graph's
``terms`` and ``labels`` and the triple counts' ``terms`` are tuples,
and a graph's ``nodes`` and ``ids`` and the statistics' ``k1`` are
:class:`ReadOnlyDict`. Each still pickles and copies, and its copies
are read-only too.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, combinations, islice, repeat
from operator import add
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import GraphFormatError, UnknownTermError, UnmappedTermError, add_once, decode_text, read_lines
from .lexicon import Lexicon, _TOKEN_RE, default_lexicon, load_word_map, read_arrows, split_sentences
from .records import (PROVENANCES, _BLOCK, _TooManyTerms, _first_fault, _number_column, _read_records,
                      _record_text, _text_column, _write_records)

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


class ReadOnlyDict(dict):
    """A dict that refuses every change with TypeError. It pickles and
    copies as itself; ``copy()`` gives a plain dict."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a ReadOnlyDict cannot be changed")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


class OntologyGraph:
    """Undirected term graph; labeled edges keep their source direction.

    Built once, from a ``{term: type}`` mapping and the edge columns
    ``src``, ``dst``, ``label`` and ``weight`` (row ``i`` is one edge).
    Each edge is held once, in sorted term pair order: ``_edges`` holds its
    source and target ids into the sorted ``terms``, one row per edge,
    ``label`` its label id (into ``labels``) and ``weight`` its weight. CSR
    rows point into that list (Saad, *Iterative Methods for Sparse Linear
    Systems*, §3.4): row ``i`` is ``indptr[i]:indptr[i + 1]``, one entry
    per edge at term ``i`` (a self-loop once), in neighbour order, each
    with its neighbour id in ``indices`` and its edge's row of the list in
    ``edge_of``. An edge with an end that is not a node, a weight that is not
    finite and non-negative, or a pair already given raises
    :class:`UnknownTermError` or ValueError, its ``record`` the index of the
    first such edge.

    The constructor maps the edge ends to term ids and builds through
    :meth:`_checked`, which ``build_from_corpus`` and the graph and blend
    file readers call with the ids they already hold."""

    def __init__(self, nodes=(), src=(), dst=(), label=(), weight=()):
        nodes = dict(nodes)
        terms = sorted(nodes)
        ids = dict(zip(terms, range(len(terms))))
        a, b = (np.fromiter(map(ids.get, ends, repeat(-1)), dtype=np.int64, count=len(src)) for ends in (src, dst))
        self._checked(nodes, terms, ids, a, b, label, weight, lambda at: (src[at], dst[at]))

    def _checked(self, nodes, terms, ids, a, b, label, weight, ends, positive=False) -> None:
        """Check the edges from term id ``a[i]`` to ``b[i]`` (-1 for an end
        that is not a node), with labels ``label``, and build from them.
        ``ends(i)`` names edge ``i``'s ends for a refusal. With ``positive``
        a zero weight is refused too, after the other faults of its edge."""
        n, m = len(terms), len(a)
        weight = np.asarray(weight, dtype=float)
        pair = np.minimum(a, b) * n + np.maximum(a, b)
        order = np.argsort(pair, kind="stable")  # a pair's first edge comes first
        second = np.zeros(m, dtype=bool)
        second[order[1:][np.diff(pair[order]) == 0]] = True
        del pair
        refused = (a < 0) | (b < 0) | ~((weight >= 0.0) & (weight < math.inf)) | second
        if positive:
            refused |= weight == 0.0
        if refused.any():
            at = int(np.argmax(refused))
            exc = _refusal(nodes, *ends(at), float(weight[at]), bool(second[at]))
            exc.record = at
            raise exc
        del second, refused
        labels = sorted(set(label))
        label_id = dict(zip(labels, range(len(labels))))
        label = np.fromiter(map(label_id.__getitem__, label), dtype=np.int64, count=m)[order]
        ends, weight = np.column_stack([a, b])[order], weight[order]
        del order
        self._build(nodes, terms, ids, labels, ends, label, weight)

    def _build(self, nodes, terms, ids, labels, ends, label, weight) -> None:
        """Set every attribute from the node tables and the checked edges,
        which arrive in sorted pair order: ``ends``, their (source, target)
        term ids, one row each, and their label ids ``label``. The graph is
        read-only: its arrays are not writeable, ``terms`` and ``labels``
        are tuples, and ``nodes`` and ``ids`` are read-only."""
        self.nodes: Mapping[str, str] = ReadOnlyDict(nodes)
        self.terms, self.ids, self.labels = tuple(terms), ReadOnlyDict(ids), tuple(labels)
        self._edges, self.label, self.weight = ends, label, weight
        # an entry is one end of an edge: its row is that end, its neighbour
        # the other end, and its edge the end's slot in ``ends`` halved
        once = np.ones(ends.shape, dtype=bool)
        once[:, 1] = ends[:, 0] != ends[:, 1]  # a self-loop has one entry
        slots, ends = np.flatnonzero(once), ends.ravel()
        # in pair order a term's edges to lower terms come before its others,
        # each in neighbour order, so a stable sort by row is the CSR order
        slots = slots[np.argsort(ends[slots], kind="stable")]
        self.edge_of, self.indices = slots >> 1, ends[slots ^ 1]
        self.indptr = np.searchsorted(ends[slots], np.arange(len(terms) + 1))
        for array in (self._edges, self.label, self.weight, self.indices, self.edge_of, self.indptr):
            array.flags.writeable = False

    def __contains__(self, term: str) -> bool:
        return term in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def edges(self) -> list:
        """Every edge, as an :class:`EdgeRec`, in sorted term pair order."""
        src, dst = np.array(self.terms, dtype=object)[self._edges].T.tolist()
        records = zip(src, dst, np.array(self.labels, dtype=object)[self.label].tolist(), self.weight.tolist())
        return list(map(tuple.__new__, repeat(EdgeRec), records))  # not EdgeRec's Python __new__

    def neighbors(self, term: str, relations=None) -> list:
        """Sorted neighbor terms, optionally restricted to edge labels; none
        if ``term`` is not a node."""
        i = self.ids.get(term)
        at = np.arange(0) if i is None else np.arange(self.indptr[i], self.indptr[i + 1])
        if relations is not None:
            at = at[[self.labels[label] in relations for label in self.label[self.edge_of[at]].tolist()]]
        return [self.terms[j] for j in self.indices[at].tolist()]

    def induced(self, terms) -> "OntologyGraph":
        """The kept terms that are nodes, in sorted order, and the edges
        among them, taken from this graph's edge list as it is: checked when
        it was built, and in pair order, as kept terms keep their order."""
        keep = sorted(set(terms) & self.nodes.keys())
        number = np.full(len(self.terms), -1, dtype=np.int64)  # the id of each kept term in the subgraph
        number[[self.ids[term] for term in keep]] = np.arange(len(keep))
        ends = number[self._edges]
        inside = np.flatnonzero(np.logical_and(*(ends.T >= 0)))
        used, label = np.unique(self.label[inside], return_inverse=True)
        sub = object.__new__(OntologyGraph)
        sub._build({term: self.nodes[term] for term in keep}, keep, dict(zip(keep, range(len(keep)))),
                   [self.labels[i] for i in used.tolist()], ends[inside], label, self.weight[inside])
        return sub


def _refusal(nodes: dict, src, dst, weight, second: bool) -> Exception:
    """The error that refuses an edge from ``src`` to ``dst`` of ``weight``
    among ``nodes``, ``second`` if an earlier edge joins the same pair; a
    zero weight if nothing else is wrong."""
    if src not in nodes or dst not in nodes:
        return UnknownTermError(
            f"edge endpoints must be nodes: {src!r}, {dst!r}",
            [t for t in (src, dst) if t not in nodes],
        )
    if not 0.0 <= weight < math.inf:
        return ValueError(f"edge weight must be finite and non-negative, not {weight!r}")
    if second:
        lo, hi = sorted((src, dst))
        return ValueError(f"second edge between {lo!r} and {hi!r}")
    return ValueError("edge weight is a pair count and must be positive, not 0.0")


_MAX_TERMS = 1 << 21  # codes over at most this many terms fit in int64


class TripleCounts(Mapping):
    """Read-only map from sorted term triples to their window counts.

    Built from three columns ``a``, ``b``, ``c`` of ids into ``terms`` (a
    sorted sequence of at most 2^21 terms, held as a tuple), one triple per row in any
    order within it, and each triple's count, finite and positive; or,
    with no counts, one row per occurrence, each triple counted as often
    as rows repeat it. Stored as arrays: ``terms``; ``codes``, the sorted
    int64 code ``(lo·n + mid)·n + hi`` of each triple, its ids sorted into
    ``lo <= mid <= hi`` and ``n`` the number of terms; and ``counts``,
    floats in code order. Codes sort as the sorted triples do, so
    iteration yields the triples in sorted order. A repeated triple given
    with counts, a larger table or a count that is not finite and
    positive raises ValueError. The arrays are not writeable.

    Only this class computes codes: :meth:`count` looks triples of ids
    up and :meth:`over` renumbers the table over other terms."""

    def __init__(self, terms, a, b, c, counts=None):
        if len(terms) > _MAX_TERMS:
            raise _TooManyTerms(f"{len(terms)} terms: triple codes fit in int64 for at most {_MAX_TERMS}")
        self.terms = tuple(terms)
        codes = self._code(a, b, c)
        if counts is None:
            self.codes, counts = np.unique(codes, return_counts=True)
            self.counts = counts.astype(float)
        else:
            order = np.argsort(codes)
            codes = codes[order]  # the unsorted codes are freed before the counts are sorted
            self.codes, self.counts = codes, np.asarray(counts, dtype=float)[order]
            repeated = np.flatnonzero(self.codes[1:] == self.codes[:-1])
            if len(repeated):
                triple, _ = next(islice(self.items(), int(repeated[0]), None))
                raise ValueError(f"second count for triple {triple}")
            if not ((self.counts > 0.0) & (self.counts < math.inf)).all():
                raise ValueError("a triple count that is not finite and positive")
        self.codes.flags.writeable = self.counts.flags.writeable = False

    def _code(self, a, b, c):
        """The code of each triple of term ids ``(a[i], b[i], c[i])``."""
        lo, hi = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
        n = len(self.terms)
        mid = a + b  # then updated in place, as lo is, so that few temporaries are alive at once
        mid += c
        mid -= lo
        mid -= hi
        lo *= n
        lo += mid
        lo *= n
        lo += hi
        return lo

    def count(self, a, b, c):
        """The count of each triple of term ids ``(a[i], b[i], c[i])``, in
        any order within it; 0 for a triple that is not counted."""
        codes = self._code(a, b, c)
        if not len(self.codes):
            return np.zeros(np.shape(codes))
        at = np.minimum(np.searchsorted(self.codes, codes), len(self.codes) - 1)
        return np.where(self.codes[at] == codes, self.counts[at], 0.0)

    def over(self, terms) -> "TripleCounts":
        """The counts of the triples of ``terms`` (a sorted sequence), ids
        renumbered into it; itself when ``terms`` is its own table."""
        if tuple(terms) == self.terms:
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
    edge weights. ``k3`` is a :class:`TripleCounts`, which ``extract_dk``
    and ``load_graph`` build over ``sorted(k1)``; anything else is a
    TypeError. ``k1`` is held as a :class:`ReadOnlyDict` copy of the
    mapping given."""

    k1: Mapping
    k3: TripleCounts

    def __post_init__(self):
        if not isinstance(self.k3, TripleCounts):
            raise TypeError(f"k3 must be TripleCounts, not {type(self.k3).__name__}")
        object.__setattr__(self, "k1", ReadOnlyDict(self.k1))

    @property
    def total_frequency(self) -> float:
        return running_sum(self.k1.values())

    @property
    def k0(self) -> float:
        return self.total_frequency / len(self.k1) if self.k1 else 0.0


# -- corpus scanning ---------------------------------------------------------


class _Scan(NamedTuple):
    """One pass over a corpus: each document's sentences, the terms in
    first-seen order, the sorted term table, and each document's sentences
    as lists of ids into that table, one per content term occurrence."""

    sentences: list
    seen: list
    terms: list
    ids: list


def _scan_corpus(corpus, lexicon: Lexicon | None = None) -> _Scan:
    """Split each document of ``corpus`` into sentences and take each
    sentence's content terms, once."""
    lex = lexicon or default_lexicon()
    sentences = [split_sentences(document) for document in corpus]
    term_lists = [[lex.content_terms(s) for s in document] for document in sentences]
    seen = list(dict.fromkeys(chain.from_iterable(chain.from_iterable(term_lists))))
    terms = sorted(seen)
    number = dict(zip(terms, range(len(terms)))).__getitem__
    ids = [[list(map(number, t)) for t in document] for document in term_lists]
    return _Scan(sentences, seen, terms, ids)


@lru_cache(maxsize=64)
def _picks(size: int, width: int) -> np.ndarray:
    """The ``width``-combinations of ``range(size)``, one row each."""
    return np.array(list(combinations(range(size), width)), dtype=np.intp).reshape(-1, width)


def _window_rows(documents, width: int) -> np.ndarray:
    """One row per sorted ``width``-combination of the term ids of each
    window of ``width`` consecutive sentences, or of the one window of all
    of a document's sentences when it has fewer. ``documents`` holds each
    document's sentences as id lists. Windows are grouped by their number
    of distinct ids, and each group's combinations are gathered at once."""
    by_size = defaultdict(list)
    for id_lists in documents:
        for start in range(max(1, len(id_lists) - width + 1)):
            window = sorted(set(chain.from_iterable(id_lists[start:start + width])))
            by_size[len(window)].append(window)
    rows = [np.array(windows, dtype=np.int64)[:, _picks(size, width)].reshape(-1, width)
            for size, windows in by_size.items() if size >= width]
    return np.concatenate(rows) if rows else np.zeros((0, width), dtype=np.int64)


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


def build_from_corpus(corpus, lexicon: Lexicon | None = None, *, scan: _Scan | None = None) -> OntologyGraph:
    """Vocabulary graph with co-occurrence edge weights over a corpus.

    ``corpus`` is a list of document strings; sentences split on .!? and
    windows never cross document boundaries. The lexicon's relation
    patterns map a surface pattern to an edge label; unmatched pairs get
    "related-to". ``scan``, if given, is ``_scan_corpus(corpus, lexicon)``,
    so that the corpus is not scanned again.
    """
    lex = lexicon or default_lexicon()
    scan = scan or _scan_corpus(corpus, lex)
    labels: dict[tuple, tuple] = {}
    for sentence in chain.from_iterable(scan.sentences):
        for src, dst, label in _match_relations(sentence, lex.relation_patterns, lex):
            labels.setdefault(tuple(sorted((src, dst))), (src, dst, label))

    terms, n = scan.terms, max(len(scan.terms), 1)
    rows = _window_rows(scan.ids, 2)
    pairs, weight = np.unique(rows[:, 0] * n + rows[:, 1], return_counts=True)
    src, dst = np.divmod(pairs, n)
    label = [GENERIC_RELATION] * len(pairs)
    number = dict(zip(terms, range(len(terms))))
    ends = np.fromiter(map(number.__getitem__, chain.from_iterable(labels)), dtype=np.int64,
                       count=2 * len(labels)).reshape(-1, 2)
    at = np.searchsorted(pairs, ends[:, 0] * n + ends[:, 1])  # both terms share a sentence: the pair is counted
    for i, (a, b, name) in zip(at.tolist(), labels.values()):
        src[i], dst[i], label[i] = number[a], number[b], name
    graph = object.__new__(OntologyGraph)
    graph._checked({term: lex.semantic_type(term) for term in scan.seen}, terms, number, src, dst, label, weight,
                   lambda at: (terms[src[at]], terms[dst[at]]))
    return graph


def extract_dk(corpus, graph: OntologyGraph | None = None, lexicon: Lexicon | None = None, *,
               scan: _Scan | None = None) -> DkStatistics:
    """Word and triple frequencies over the same sentences the graph was
    built from; the pair counts are ``graph``'s edge weights. If ``graph``
    is given, every counted term must be one of its nodes. ``scan``, if
    given, is ``_scan_corpus(corpus, lexicon)``."""
    scan = scan or _scan_corpus(corpus, lexicon)
    every = np.fromiter(chain.from_iterable(chain.from_iterable(scan.ids)), dtype=np.int64)
    k1 = dict.fromkeys(scan.seen)  # in first-seen order, as a Counter keeps it
    k1.update(zip(scan.terms, np.bincount(every, minlength=len(scan.terms)).tolist()))
    stats = DkStatistics(k1=k1, k3=TripleCounts(scan.terms, *_window_rows(scan.ids, 3).T))
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


def _graph_records(graph: OntologyGraph):
    """The text blocks of the ``node`` and ``edge`` records of ``graph``,
    shared by the graph and blend files; the columns come from its arrays."""
    terms = graph.terms
    return chain(
        _record_text("node", (terms, np.arange(len(terms))), _text_column([graph.nodes[t] for t in terms])),
        _record_text("edge", *((terms, ends) for ends in graph._edges.T), (graph.labels, graph.label),
                     _number_column(graph.weight)))


def save_graph(graph: OntologyGraph, path, dk: DkStatistics | None = None) -> None:
    """Line-oriented graph file: node/edge records plus optional freq and
    triple records carrying the word statistics. Every weight and count is
    written so that it reads back as the same float."""
    blocks = [_graph_records(graph)]
    if dk is not None:
        terms = sorted(dk.k1)
        freq = np.fromiter(map(dk.k1.__getitem__, terms), dtype=float, count=len(terms))
        triples = [(dk.k3.terms, ids) for ids in dk.k3.ids()]
        blocks += [_record_text("freq", (terms, np.arange(len(terms))), _number_column(freq)),
                   _record_text("triple", *triples, _number_column(dk.k3.counts))]
    _write_records(path, "# holoscene graph v1", *blocks)


def _graph_fields(columns: dict, names: np.ndarray) -> tuple:
    """The nodes, a dict in file order, and the edges of the
    :func:`_read_records` ``columns``: ``names`` and each edge's end ids
    into it, label and weight; ValueError if a term has two nodes."""
    (terms, types), (src, dst, label, weight) = columns["node"], columns["edge"]
    nodes = dict(zip(names[terms].tolist(), types))
    if len(nodes) < len(types):
        raise ValueError("a second node record for a term")
    return nodes, (names, src, dst, label, weight)


def _blend_fields(columns: dict, names: np.ndarray, lines) -> tuple:
    """The :func:`_graph_fields` of a blend file's ``columns``, then its
    scores and provenances in file order; ValueError if a score record
    repeats a term, or holds an unknown provenance or a score outside
    [0, 1]."""
    terms, scores, provenance = columns["score"]
    if (len(np.unique(terms)) < len(terms) or not set(provenance) <= set(PROVENANCES)
            or not ((scores >= 0.0) & (scores <= 1.0)).all()):
        raise ValueError("a bad score record")
    terms = names[terms].tolist()
    return (*_graph_fields(columns, names), dict(zip(terms, scores.tolist())), dict(zip(terms, provenance)))


def _graph_from_columns(path, nodes: dict, edges: tuple, line_no, positive: bool = False) -> OntologyGraph:
    """The graph of a graph or blend file's ``nodes`` and ``edges`` (see
    :func:`_graph_fields`), the edge ends renumbered onto the sorted terms.
    An edge the graph refuses, or with ``positive`` one of zero weight, is
    a :class:`GraphFormatError` at ``line_no("edge", i)``, ``i`` its index."""
    names, src, dst, label, weight = edges
    terms = sorted(nodes)
    ids = dict(zip(terms, range(len(terms))))
    number = np.fromiter(map(ids.get, names.tolist(), repeat(-1)), dtype=np.int64, count=len(names))
    graph = object.__new__(OntologyGraph)
    try:
        graph._checked(nodes, terms, ids, number[src], number[dst], label, weight,
                       lambda at: names[[src[at], dst[at]]].tolist(), positive)
    except (UnknownTermError, ValueError) as exc:
        raise GraphFormatError(path, line_no("edge", exc.record), str(exc)) from None
    return graph


_kept = (b"", None)  # the SHA-256 digest of the last graph file loaded, and its load if it was loaded twice in a row


def load_graph(path):
    """Read a graph file; returns (graph, statistics or None).

    A term has at most one ``node`` record, a term pair one ``edge`` and a
    sorted term triple one ``triple``. Edge weights must be finite and
    non-negative. A file with ``freq`` records carries statistics. Then
    every node needs exactly one ``freq``, every ``freq`` and ``triple``
    record must name declared nodes, and every count, edge weights (the
    pair counts) included, must be finite and positive. Any breach is a
    :class:`GraphFormatError` naming its line.

    The file's bytes are read once and hashed. The load of bytes loaded
    twice in a row is kept, and handed back, the same graph and statistics,
    while the same bytes are loaded again; any other load parses the bytes
    it hashed, and a load that fails keeps nothing. What is handed back is
    shared and read-only.
    """
    global _kept
    data = Path(path).read_bytes()
    digest = hashlib.sha256(data).digest()
    last, loaded = _kept
    if digest == last and loaded is not None:
        return loaded
    _kept = (digest, None)  # a kept load of other bytes is dropped before this one parses
    text = decode_text(path, data)
    del data
    loaded = _parse_graph(path, text)
    if digest == last:
        _kept = (digest, loaded)
    return loaded


def _parse_graph(path, text: str) -> tuple:
    """The :func:`load_graph` of ``text``, the decoded graph file ``path``.

    The text is read by :func:`_read_records`, each kind parsed and checked
    in bulk, the graph built from the edges' term ids and the triple counts
    from the triples', each renumbered onto the sorted terms."""
    def parse(columns, names, lines):  # k3 is None if a triple names a term with no freq
        nodes, edges = _graph_fields(columns, names)
        freq_ids, freq = columns["freq"]
        freq_terms = names[freq_ids].tolist()
        if not ((freq > 0.0) & (freq < math.inf)).all():
            raise ValueError("a count that is not finite and positive")
        k1 = dict(zip(freq_terms, freq.tolist()))
        if len(k1) < len(freq_terms):
            raise ValueError("a second freq record for a term")
        terms = sorted(k1)
        number = dict(zip(terms, range(len(terms))))
        renumber = np.fromiter(map(number.get, names.tolist(), repeat(-1)), dtype=np.int64, count=len(names))
        *ids, counts = columns["triple"]
        for column in ids:  # each name id becomes its term's id in place, -1 for a name with no freq
            np.take(renumber, column, out=column)
        if all((column >= 0).all() for column in ids):
            return nodes, edges, freq_terms, k1, TripleCounts(terms, *ids, counts), None
        triples = lines("triple")
        if _first_fault("triple", triples):
            raise ValueError("a bad triple record")
        return nodes, edges, freq_terms, k1, None, triples

    (nodes, edges, freq_terms, k1, k3, triples), line_no = _read_records(
        path, text, ("node", "edge", "freq", "triple"), parse)
    graph = _graph_from_columns(path, nodes, edges, line_no, positive=bool(k1))
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


def _dot_id(text: str) -> str:
    """``text`` as a quoted DOT id, its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(graph: OntologyGraph, colors: dict | None = None, name: str = "ontology") -> str:
    """DOT rendering; optional term -> fill color map."""
    lines = [f"graph {name} {{", "  node [style=filled, fillcolor=white];"]
    for term in graph.terms:
        quoted = _dot_id(term)
        attrs = [f"label={quoted}"]
        if colors and term in colors:
            attrs.append(f'fillcolor="{colors[term]}"')
        lines.append(f'  {quoted} [{", ".join(attrs)}];')
    for rec in graph.edges():
        lines.append(f"  {_dot_id(rec.src)} -- {_dot_id(rec.dst)} "
                     f"[label={_dot_id(rec.label)}, weight={rec.weight:g}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
