"""Ontology tests.

The counting oracle below recomputes word, pair and triple frequencies by
scanning window membership per candidate tuple, structurally unlike the
package's per-window combination counting. ``reference_build``,
``reference_dk`` and ``reference_match_relations`` keep the corpus scan as
it was before windows were counted in C and sentences were skipped by
relation surface, so the faster scan is pinned to it record for record.
``reference_load_graph`` keeps the graph file reader as it was before
records were read in bulk by kind: the bulk reader must load what it
loaded, and refuse what it refused at the same line with the same message,
whatever the size of the blocks of lines it reads.
``reference_save_graph`` keeps the graph file writer that formatted each
line with its own f-string: ``save_graph`` must write its bytes.
"""

import copy
import dataclasses
import math
import os
import pickle
import random
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import chain, combinations, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from holoscene import errors, ontology, records
from holoscene.errors import GraphFormatError, HolosceneError, UnknownTermError, UnmappedTermError
from holoscene.lexicon import _TOKEN_RE, compile_patterns, default_lexicon, split_sentences
from holoscene.ontology import (
    GENERIC_RELATION,
    DkStatistics,
    EdgeRec,
    OntologyGraph,
    TermObjectMap,
    TripleCounts,
    ValueMap,
    _match_relations,
    build_from_corpus,
    expand,
    extract_dk,
    load_graph,
    load_rewrite_rules,
    save_graph,
    to_dot,
)
from holoscene.pipeline import build_ontology

from test_parsers import GRAPH, reshaped, written

DATA = Path(__file__).parent / "data"
TOY_CORPUS = [(DATA / "toy_corpus.txt").read_text()]
DEMO = Path(__file__).parents[1] / "src" / "holoscene" / "data" / "demo"
DEMO_CORPUS = [p.read_text() for p in sorted((DEMO / "corpus").iterdir())]


def dk_stats(k1, k3) -> DkStatistics:
    """The statistics of the word counts ``k1`` and the triple counts
    ``k3``, a mapping of term triples (sorted, unless a test wants one
    refused) to counts, built as the package builds them: from columns of
    ids into ``sorted(k1)``."""
    terms = sorted(k1)
    number = dict(zip(terms, range(len(terms))))
    ids = np.array([[number[term] for term in triple] for triple in k3], dtype=np.int64).reshape(-1, 3)
    return DkStatistics(k1=dict(k1), k3=TripleCounts(terms, *ids.T, list(k3.values())))


def edge_at(graph, a, b):
    """The edge of ``graph`` that joins ``a`` and ``b``, read from a map
    over ``edges()``; None if there is none."""
    return {rec.pair: rec for rec in graph.edges()}.get(tuple(sorted((a, b))))


def reference_match_relations(sentence, patterns, lex):
    """The relation matcher that tokenises every sentence and searches it
    for every pattern."""
    lowered = sentence.lower()
    tokens = []
    for m in _TOKEN_RE.finditer(lowered):
        token = m.group(0)
        if token in lex.stopwords:
            continue
        term = lex.normalize(token)
        if term and term not in lex.stopwords:
            tokens.append((m.start(), m.end(), term))

    spans = []
    for regex, _, label in patterns:
        for m in regex.finditer(lowered):
            if any(m.start() < e and s < m.end() for s, e, _ in spans):
                continue
            spans.append((m.start(), m.end(), label))

    out = []
    for start, end, label in sorted(spans):
        before = [t for s, e, t in tokens if e <= start]
        after = [t for s, e, t in tokens if s >= end]
        if before and after and before[-1] != after[0]:
            out.append((before[-1], after[0], label))
    return out


def reference_windows(term_lists, width):
    """The merged term sets of every ``width`` consecutive sentences; one set
    of all the sentences when there are fewer, none when there are none."""
    sets = [set(terms) for terms in term_lists]
    if not sets:
        return []
    if len(sets) <= width:
        return [set().union(*sets)]
    return [set().union(*sets[i : i + width]) for i in range(len(sets) - width + 1)]


def with_patterns(relation_lexicon):
    """The default lexicon, with its relation patterns replaced by the
    pattern -> label map ``relation_lexicon`` unless that is None."""
    lex = default_lexicon()
    if relation_lexicon is None:
        return lex
    return replace(lex, relation_patterns=compile_patterns(relation_lexicon))


def reference_build(corpus, lex):
    """The graph scan one window and one sentence at a time: a ``+= 1`` per
    pair, every pattern searched in every tokenised sentence, a node per
    term at its first occurrence and the edges in sorted pair order."""
    patterns = lex.relation_patterns
    nodes = {}
    pair_counts = Counter()
    labels = {}
    for document in corpus:
        term_lists = [lex.content_terms(s) for s in split_sentences(document)]
        for terms in term_lists:
            for term in terms:
                nodes.setdefault(term, lex.semantic_type(term))
        for window in reference_windows(term_lists, 2):
            for a, b in combinations(sorted(window), 2):
                pair_counts[(a, b)] += 1
        for sentence in split_sentences(document):
            for src, dst, label in reference_match_relations(sentence, patterns, lex):
                labels.setdefault(tuple(sorted((src, dst))), (src, dst, label))
    edges = [(*labels.get(pair, (*pair, GENERIC_RELATION)), count)
             for pair, count in sorted(pair_counts.items())]
    return nodes, edges


def reference_dk(corpus):
    """The statistics scan with a ``+= 1`` per triple."""
    lex = default_lexicon()
    k1, k3 = Counter(), Counter()
    for document in corpus:
        term_lists = [lex.content_terms(s) for s in split_sentences(document)]
        for terms in term_lists:
            k1.update(terms)
        for window in reference_windows(term_lists, 3):
            for a, b, c in combinations(sorted(window), 3):
                k3[(a, b, c)] += 1
    return dk_stats(k1, k3)


def assert_scan_matches_reference(corpus, relation_lexicon=None):
    lex = with_patterns(relation_lexicon)
    graph = build_from_corpus(corpus, lexicon=lex)
    nodes, edges = reference_build(corpus, lex)
    assert_reads_match_model(graph, nodes, edges)
    want = OntologyGraph(nodes, *zip(*edges))
    dk = extract_dk(corpus, graph)
    want_dk = reference_dk(corpus)
    for order in ("k1", "k3"):
        assert list(getattr(dk, order).items()) == list(getattr(want_dk, order).items())
    assert dk.k0 == want_dk.k0
    with tempfile.TemporaryDirectory() as tmp:
        got_path, want_path = Path(tmp, "got.graph"), Path(tmp, "want.graph")
        save_graph(graph, got_path, dk)
        save_graph(want, want_path, want_dk)
        assert got_path.read_bytes() == want_path.read_bytes()
        assert_shared_scan_writes(corpus, lex, graph, got_path.read_bytes(), Path(tmp))


def assert_shared_scan_writes(corpus, lex, graph, want: bytes, tmp: Path):
    """``pipeline.build_ontology``, which scans the corpus once for both
    ``build_from_corpus`` and ``extract_dk``, writes the graph file ``want``
    that separate calls wrote (``graph`` their graph), and keeps the node
    order; a corpus with no content term is refused, naming its directory."""
    corpus_dir = tmp / "corpus"
    corpus_dir.mkdir()
    for i, document in enumerate(corpus):
        (corpus_dir / f"{i:04d}.txt").write_bytes(document.encode("utf-8"))
    if not graph.nodes:
        with pytest.raises(HolosceneError, match=f"corpus directory {corpus_dir}"):
            build_ontology(corpus_dir, lexicon=lex)
        return
    shared, shared_dk = build_ontology(corpus_dir, lexicon=lex)
    assert list(shared.nodes.items()) == list(graph.nodes.items())
    save_graph(shared, tmp / "shared.graph", shared_dk)
    assert (tmp / "shared.graph").read_bytes() == want


# stop-words, verbs, adjectives, possessives, sentence ends and every
# relation surface (some capitalised, some before a comma), plus words that
# hold a surface inside them
_SCAN_WORDS = (
    "the", "a", "is", "of", "with", "The", "ball", "Ball", "woman", "woman's", "girl's",
    "beach", "sand", "head", "body", "kick", "kicks", "wore", "takes", "blue", "big",
    "fast", "part", "parts", "nearby", "neared", "hasten", "onto", "near", "has", "have",
    "wear", "wears", "on", "in", "at", "is a", "part of", "used for", "causes", "becomes",
    "expressed by", "Near", "Has", "Part Of", "near,", "on,", "beach,", ".", "!", "?",
)
_CORPORA = st.lists(st.lists(st.sampled_from(_SCAN_WORDS), max_size=40).map(" ".join), max_size=4)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_CORPORA, st.sampled_from([None, {}, {"Part of": "part-of", "of the": "of", "near": "near", "by": "by"}]))
def test_scan_matches_reference_on_random_corpora(corpus, relation_lexicon):
    assert_scan_matches_reference(corpus, relation_lexicon)
    lex = with_patterns(relation_lexicon)
    for sentence in (s for doc in corpus for s in split_sentences(doc)):
        want = reference_match_relations(sentence, lex.relation_patterns, lex)
        assert _match_relations(sentence, lex.relation_patterns, lex) == want


@pytest.mark.parametrize("corpus", [TOY_CORPUS, DEMO_CORPUS], ids=["toy", "demo"])
def test_scan_matches_reference_on_shipped_corpora(corpus):
    assert_scan_matches_reference(corpus)


_WINDOW_CASES = {  # each document's sentences as term id lists
    "fewer-sentences-than-width": [[[0, 1]], [[2, 0], [1, 3]]],
    "sentences-without-terms": [[[], [0, 1], [], [2], []]],
    "fewer-terms-than-width": [[[0], [0], [1]], [[2], [2, 2]]],
    "term-repeated-in-window": [[[0, 1, 0], [1, 2, 2], [2, 0, 3]]],
    "only-empty-documents": [[], [], []],
    "only-termless-sentences": [[[]], [[], [], []]],
}


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("documents", _WINDOW_CASES.values(), ids=_WINDOW_CASES.keys())
def test_window_rows_match_reference_windows(documents, width):
    want = Counter(combo for document in documents for window in reference_windows(document, width)
                   for combo in combinations(sorted(window), width))
    rows = ontology._window_rows(documents, width)
    assert rows.shape == (sum(want.values()), width)
    assert Counter(map(tuple, rows.tolist())) == want


@pytest.mark.parametrize(
    "corpus",
    [["Ball sand."], ["The ball sand. Is the. The sun. Of the."], ["Ball. Ball sand. Ball."],
     ["Ball sand ball. Sand ball sand. Sun ball."], ["", ""], ["The a. Is of."]],
    ids=["fewer-sentences-than-width", "sentences-without-terms", "fewer-terms-than-width",
         "term-repeated-in-window", "only-empty-documents", "only-stop-words"],
)
def test_scan_matches_reference_on_window_edge_cases(corpus):
    assert_scan_matches_reference(corpus)


def assert_doubled_corpus_doubles_counts(corpus):
    """Listing every document twice doubles every edge weight and every
    ``k1`` and ``k3`` count, and changes no node, label or triple."""
    graph, dk = build_from_corpus(corpus), extract_dk(corpus)
    twice = corpus + corpus
    doubled, doubled_dk = build_from_corpus(twice), extract_dk(twice)
    assert list(doubled.nodes.items()) == list(graph.nodes.items())
    assert doubled.edges() == [rec._replace(weight=2 * rec.weight) for rec in graph.edges()]
    assert list(doubled_dk.k1.items()) == [(term, 2 * count) for term, count in dk.k1.items()]
    assert list(doubled_dk.k3.items()) == [(triple, 2 * count) for triple, count in dk.k3.items()]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_CORPORA)
def test_doubling_the_corpus_doubles_every_count(corpus):
    assert_doubled_corpus_doubles_counts(corpus)


@pytest.mark.parametrize("corpus", [TOY_CORPUS, DEMO_CORPUS], ids=["toy", "demo"])
def test_doubling_a_shipped_corpus_doubles_every_count(corpus):
    assert_doubled_corpus_doubles_counts(corpus)


def oracle_counts(corpus):
    """Brute-force frequencies: per-candidate membership scans."""
    lex = default_lexicon()
    doc_sentences = []
    k1 = {}
    for doc in corpus:
        sents = [lex.content_terms(s) for s in split_sentences(doc)]
        doc_sentences.append(sents)
        for sent in sents:
            for term in sent:
                k1[term] = k1.get(term, 0) + 1

    pair_windows = []
    triple_windows = []
    for sents in doc_sentences:
        if not sents:
            continue
        sets = [set(s) for s in sents]
        for i in range(max(1, len(sets) - 1)):
            merged = set()
            for s in sets[i : i + 2]:
                merged |= s
            pair_windows.append(merged)
        for i in range(max(1, len(sets) - 2)):
            merged = set()
            for s in sets[i : i + 3]:
                merged |= s
            triple_windows.append(merged)

    vocab = sorted(k1)
    k2 = {}
    for i in range(len(vocab)):
        for j in range(i + 1, len(vocab)):
            n = sum(1 for w in pair_windows if vocab[i] in w and vocab[j] in w)
            if n:
                k2[(vocab[i], vocab[j])] = n
    k3 = {}
    for i in range(len(vocab)):
        for j in range(i + 1, len(vocab)):
            for k in range(j + 1, len(vocab)):
                n = sum(
                    1
                    for w in triple_windows
                    if vocab[i] in w and vocab[j] in w and vocab[k] in w
                )
                if n:
                    k3[(vocab[i], vocab[j], vocab[k])] = n
    k0 = sum(k1.values()) / len(k1) if k1 else 0.0
    return k0, k1, k2, k3


class TestBuildFromCorpus:
    def test_relation_pattern_labels_edge(self):
        graph = build_from_corpus(["head is part of body."], lexicon=with_patterns({"part of": "part-of"}))
        assert set(graph.nodes) == {"head", "body"}
        rec = edge_at(graph, "head", "body")
        assert (rec.src, rec.dst, rec.label, rec.weight) == ("head", "body", "part-of", 1)

    @pytest.mark.parametrize(
        "sentence", ["The ball is nearby the sand.", "The head parts of the body."]
    )
    def test_pattern_inside_a_longer_word_labels_nothing(self, sentence):
        graph = build_from_corpus([sentence])
        assert graph.edges()
        assert {rec.label for rec in graph.edges()} == {GENERIC_RELATION}
        assert _match_relations(sentence, default_lexicon().relation_patterns, default_lexicon()) == []

    def test_sentence_with_two_patterns_labels_both_pairs(self):
        graph = build_from_corpus(["The head is part of the body near the beach."])
        labelled = {(r.src, r.dst, r.label) for r in graph.edges() if r.label != GENERIC_RELATION}
        assert labelled == {("head", "body", "part-of"), ("body", "beach", "near")}
        assert edge_at(graph, "head", "beach").label == GENERIC_RELATION

    def test_overlapping_patterns_keep_the_longest(self):
        corpus = ["The ball is part of the sand."]
        graph = build_from_corpus(corpus, lexicon=with_patterns({"of the": "of", "part of": "part-of"}))
        assert edge_at(graph, "ball", "sand").label == "part-of"
        assert_scan_matches_reference(corpus, {"of the": "of", "part of": "part-of"})

    @pytest.mark.parametrize("corpus", [["Ball sand near."], ["Near ball sand."], ["Ball near ball."]])
    def test_pattern_between_no_two_content_terms_labels_nothing(self, corpus):
        graph = build_from_corpus(corpus)
        assert {rec.label for rec in graph.edges()} <= {GENERIC_RELATION}
        assert_scan_matches_reference(corpus)

    def test_empty_corpus(self):
        graph = build_from_corpus([])
        assert len(graph) == 0

    def test_weights_are_hand_counted_cooccurrences(self):
        corpus = ["The sun shines. The sun warms the sand. Waves reach the sand."]
        graph = build_from_corpus(corpus, lexicon=with_patterns({}))
        # windows: {sun, shine, warm, sand}, {sun, warm, sand, waves, reach}
        assert edge_at(graph, "sand", "sun").weight == 2
        assert edge_at(graph, "shine", "sun").weight == 1
        assert edge_at(graph, "sand", "waves").weight == 1
        assert edge_at(graph, "shine", "waves") is None

    def test_weights_match_oracle_on_toy_corpus(self):
        graph = build_from_corpus(TOY_CORPUS)
        _, _, k2, _ = oracle_counts(TOY_CORPUS)
        got = {rec.pair: rec.weight for rec in graph.edges()}
        assert got == k2

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.graph", tmp_path / "b.graph"
        save_graph(build_from_corpus(TOY_CORPUS), a)
        save_graph(build_from_corpus(TOY_CORPUS), b)
        assert a.read_bytes() == b.read_bytes()

    def test_documents_do_not_share_windows(self):
        joined = build_from_corpus(["The sun shines. The sand is warm."])
        split = build_from_corpus(["The sun shines.", "The sand is warm."])
        assert edge_at(joined, "sun", "warm") is not None
        assert edge_at(split, "sun", "warm") is None


class TestExtractDk:
    def test_word_frequency_counts_tokens(self):
        corpus = ["The beach is warm. A beach has sand. I like the beach."]
        dk = extract_dk(corpus)
        assert dk.k1["beach"] == 3

    def test_single_sentence_corpus_uses_lone_window(self):
        dk = extract_dk(["The girl kicks the ball."])
        assert dk.k3 == {("ball", "girl", "kick"): 1}

    def test_matches_oracle_exactly_on_toy_corpus(self):
        graph = build_from_corpus(TOY_CORPUS)
        dk = extract_dk(TOY_CORPUS, graph)
        k0, k1, _, k3 = oracle_counts(TOY_CORPUS)
        assert dk.k1 == k1
        assert dk.k3 == k3
        assert dk.k0 == k0

    def test_k0_is_mean_of_k1(self):
        dk = extract_dk(TOY_CORPUS)
        assert dk.k0 == pytest.approx(sum(dk.k1.values()) / len(dk.k1))
        assert {t for triple in dk.k3 for t in triple} <= dk.k1.keys()

    def test_projection_consistency_on_single_window_corpus(self):
        # one 2-sentence document: pair and triple windows coincide
        corpus = ["The girl kicks the ball. The ball flies."]
        dk = extract_dk(corpus)
        assert {t for triple in dk.k3 for t in triple} <= dk.k1.keys()
        projected = set()
        for a, b, c in dk.k3:
            projected.update({(a, b), (a, c), (b, c)})
        assert projected == {rec.pair for rec in build_from_corpus(corpus).edges()}

    def test_stats_must_cover_graph(self):
        graph = build_from_corpus(["The sun shines."])
        with pytest.raises(UnknownTermError):
            extract_dk(["The moon glows."], graph)


class TestExpand:
    @pytest.fixture()
    def graph(self):
        corpus = [
            "The woman wears clothing. The woman has a body. "
            "The beach has sand. The ocean is near the beach. The sky is near the beach. "
            "The horizon is near the ocean."
        ]
        return build_from_corpus(corpus)

    def test_depth_zero_is_anchors_only(self, graph):
        result = expand(graph, {"woman", "beach"}, depth=0)
        assert result.expanded == frozenset()
        assert result.anchored == {"woman", "beach"}

    def test_depth_one_follows_labeled_edges(self, graph):
        labels = {"wears", "has-a", "near"}
        result = expand(graph, {"woman", "beach"}, relations=labels, depth=1)
        assert {"clothing", "body", "sand", "ocean", "sky"} <= result.expanded
        assert "horizon" not in result.expanded

    def test_unknown_anchor_lists_missing_term(self, graph):
        with pytest.raises(UnknownTermError) as err:
            expand(graph, {"woman", "zeppelin"}, depth=1)
        assert "zeppelin" in str(err.value)

    def test_monotone_in_depth(self, graph):
        labels = {"wears", "has-a", "near"}
        previous = frozenset()
        for depth in range(4):
            result = expand(graph, {"woman"}, relations=labels, depth=depth)
            assert previous <= result.reached
            previous = result.reached

    def test_saturates_to_connected_component(self, graph):
        # oracle: transitive closure over the permitted labels
        labels = {"wears", "has-a", "near"}
        closure = {"beach"}
        while True:
            grown = set(closure)
            for term in closure:
                grown.update(graph.neighbors(term, labels))
            if grown == closure:
                break
            closure = grown
        result = expand(graph, {"beach"}, relations=labels, depth=len(graph))
        assert result.reached == closure

    def test_rewrite_rules_add_domain_inferences(self, graph, tmp_path):
        rules_file = tmp_path / "rules.txt"
        rules_file.write_text("beach -> horizon\n")
        rules = load_rewrite_rules(rules_file)
        result = expand(graph, {"beach"}, relations={"wears"}, depth=1, rules=rules)
        assert "horizon" in result.expanded


class TestMappings:
    def test_term_object_lookup(self, tmp_path):
        path = tmp_path / "objects.txt"
        path.write_text("ball asset:ball_01\nwoman asset:woman_01\n")
        tom = TermObjectMap.load(path)
        assert tom.lookup("ball") == "asset:ball_01"

    def test_unmapped_term(self):
        tom = TermObjectMap({"ball": "asset:ball_01"})
        with pytest.raises(UnmappedTermError) as err:
            tom.lookup("zeppelin")
        assert "zeppelin" in str(err.value)

    def test_value_map(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("fast speed 2.0\nslow speed 0.5\n")
        vm = ValueMap.load(path)
        assert vm.lookup("fast", "speed") == 2.0
        assert vm.lookup("slow", "speed") < vm.lookup("fast", "speed")

    def test_value_map_unknown_pair(self):
        vm = ValueMap({("fast", "speed"): 2.0})
        with pytest.raises(UnmappedTermError):
            vm.lookup("fast", "color")


class TestGraphFile:
    def test_roundtrip_with_statistics(self, tmp_path):
        graph = build_from_corpus(TOY_CORPUS)
        dk = extract_dk(TOY_CORPUS, graph)
        path = tmp_path / "toy.graph"
        save_graph(graph, path, dk)
        loaded, loaded_dk = load_graph(path)
        assert loaded.nodes == graph.nodes
        assert [(r.src, r.dst, r.label, r.weight) for r in loaded.edges()] == [
            (r.src, r.dst, r.label, r.weight) for r in graph.edges()
        ]
        assert loaded_dk.k1 == dk.k1
        assert loaded_dk.k3 == dk.k3
        assert loaded_dk.k0 == pytest.approx(dk.k0)

    def test_graph_without_stats_loads_none(self, tmp_path):
        path = tmp_path / "bare.graph"
        path.write_text("node sun entity\nnode sky entity\nedge sun sky related-to 1\n")
        graph, dk = load_graph(path)
        assert dk is None
        assert set(graph.nodes) == {"sun", "sky"}

    def test_corrupt_file_names_line(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("node sun entity\nedge sun moon related-to x\n")
        with pytest.raises(GraphFormatError) as err:
            load_graph(path)
        assert err.value.line_no == 2

    def test_edge_to_undeclared_node_names_line(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("node sun entity\nedge sun moon related-to 1\n")
        with pytest.raises(GraphFormatError) as err:
            load_graph(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "-1"])
    def test_non_finite_or_negative_edge_weight_names_line(self, tmp_path, weight):
        path = tmp_path / "bad.graph"
        path.write_text(f"node sun entity\nnode sky entity\nedge sun sky related-to {weight}\n")
        with pytest.raises(GraphFormatError) as err:
            load_graph(path)
        assert err.value.line_no == 3

    def test_zero_edge_weight_loads_without_statistics(self, tmp_path):
        path = tmp_path / "bare.graph"
        path.write_text("node sun entity\nnode sky entity\nedge sun sky related-to 0\n")
        graph, dk = load_graph(path)
        assert dk is None
        assert [rec.weight for rec in graph.edges()] == [0.0]

    @pytest.mark.parametrize(
        "records, line_no",
        [
            (["freq sun 2", "freq sun 2", "freq sky 1"], 4),
            (["freq sun 2", "freq sky 1", "freq moon 1"], 5),
            (["freq sun 2", "freq sky 1", "triple sun sky moon 1"], 5),
            (["freq sun 2", "freq sky 1", "triple sun sky sun 0"], 5),
            (["edge sun sky related-to 0", "freq sun 2", "freq sky 1"], 3),
        ],
        ids=["second-freq", "freq-undeclared", "triple-undeclared", "triple-zero", "edge-zero"],
    )
    def test_corrupt_statistics_name_line(self, tmp_path, records, line_no):
        path = tmp_path / "bad.graph"
        path.write_text("\n".join(["node sun entity", "node sky entity"] + records) + "\n")
        with pytest.raises(GraphFormatError) as err:
            load_graph(path)
        assert err.value.line_no == line_no

    @pytest.mark.parametrize(
        "records, line_no",
        [(["node sky attribute"], 3),
         (["edge sun sky related-to 2", "edge sky sun part-of 5"], 4),
         (["freq sun 2", "freq sky 1", "triple sun sky sun 1", "triple sun sun sky 7"], 6)],
        ids=["node", "edge", "triple"],
    )
    def test_second_record_names_line(self, tmp_path, records, line_no):
        path = tmp_path / "bad.graph"
        path.write_text("\n".join(["node sun entity", "node sky entity"] + records) + "\n")
        with pytest.raises(GraphFormatError, match="second") as err:
            load_graph(path)
        assert err.value.line_no == line_no

    def test_counts_of_a_million_or_more_reload_exactly(self, tmp_path):
        graph = OntologyGraph(dict.fromkeys(["sky", "sun", "moon"], "entity"),
                              ["sun", "moon"], ["sky", "sky"], ["near", "related-to"], [1234567, 123456.5])
        dk = dk_stats({"moon": 2345678, "sky": 3, "sun": 0.5}, {("moon", "sky", "sun"): 3e6})
        path = tmp_path / "big.graph"
        save_graph(graph, path, dk)
        loaded, loaded_dk = load_graph(path)
        assert loaded.edges() == graph.edges()
        assert loaded_dk.k1 == dk.k1
        assert list(loaded_dk.k3.items()) == [(("moon", "sky", "sun"), 3e6)]
        # a count that six significant digits hold keeps its %g bytes; the rest are written by repr
        assert {"edge moon sky related-to 123456.5", "edge sun sky near 1234567.0", "freq moon 2345678.0",
                "freq sky 3", "freq sun 0.5", "triple moon sky sun 3e+06"} <= set(path.read_text().split("\n"))

    def test_term_table_larger_than_codes_hold_names_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "wide.graph"
        path.write_text("node sun entity\nnode sky entity\nnode moon entity\n"
                        "freq sun 1\nfreq sky 2\nfreq moon 3\n")
        assert load_graph(path)[1].k1 == {"sun": 1.0, "sky": 2.0, "moon": 3.0}
        monkeypatch.setattr(ontology, "_MAX_TERMS", 2)
        with pytest.raises(GraphFormatError, match="3 terms") as err:
            parsed_load(path)
        assert (err.value.path, err.value.line_no) == (str(path), None)

    @pytest.mark.parametrize("line", ["node moon", "edge sun sky near one"], ids=["node", "edge"])
    def test_record_fault_is_named_before_a_term_table_larger_than_codes_hold(self, tmp_path, monkeypatch,
                                                                             line):
        path = tmp_path / "wide.graph"
        path.write_text("node sun entity\nnode sky entity\nnode moon entity\n"
                        f"freq sun 1\nfreq sky 2\nfreq moon 3\n{line}\n")
        monkeypatch.setattr(ontology, "_MAX_TERMS", 2)
        with pytest.raises(GraphFormatError) as err:
            parsed_load(path)
        assert err.value.line_no == 7
        assert "terms" not in str(err.value)

    def test_dot_export(self):
        graph = build_from_corpus(["The sun shines."])
        dot = to_dot(graph, colors={"sun": "yellow"})
        assert '"sun" -- "shine"' in dot or '"shine" -- "sun"' in dot
        assert 'fillcolor="yellow"' in dot

    def test_dot_export_escapes_quotes_and_backslashes(self, tmp_path):
        path = tmp_path / "odd.graph"
        path.write_text('node a"b entity\nnode c entity\nnode d\\e entity\n'
                        'edge a"b c qu"ote 1\nedge c d\\e x\\y 2\n')
        graph, _ = load_graph(path)
        lines = to_dot(graph).splitlines()
        assert '  "a\\"b" [label="a\\"b"];' in lines
        assert '  "d\\\\e" [label="d\\\\e"];' in lines
        assert '  "a\\"b" -- "c" [label="qu\\"ote", weight=1];' in lines
        assert '  "c" -- "d\\\\e" [label="x\\\\y", weight=2];' in lines


class TestDkScaled:
    def test_scaling_multiplies_all_orders(self):
        dk = extract_dk(TOY_CORPUS)
        big = dk_stats({t: 10 * v for t, v in dk.k1.items()}, {t: 10 * v for t, v in dk.k3.items()})
        assert big.k0 == pytest.approx(10 * dk.k0)
        assert big.total_frequency == 10 * dk.total_frequency
        assert list(big.k3.items()) == [(t, 10 * v) for t, v in dk.k3.items()]


def assert_reads_match_model(graph, nodes, records, strangers=("zzz",)):
    """``graph``'s public reads agree with a plain-dict model of ``nodes``
    and the edge ``records``, which name no term pair twice: the nodes in
    order, ``edges()`` in sorted pair order, ``neighbors`` of every node
    (all of them and by each label), and no neighbour for the
    ``strangers``, which are not nodes."""
    edges = {tuple(sorted(record[:2])): EdgeRec(*record) for record in records}
    rows = {term: {} for term in nodes}
    for (a, b), rec in edges.items():
        rows[a][b] = rows[b][a] = rec
    assert list(graph.nodes.items()) == list(nodes.items())
    assert graph.edges() == [edges[pair] for pair in sorted(edges)]
    assert graph.edge_count == len(edges)
    labels = {rec.label for rec in edges.values()} | {"no-such-label"}
    for term, row in rows.items():
        assert graph.neighbors(term) == sorted(row)
        for label in labels:
            assert graph.neighbors(term, {label}) == sorted(b for b, rec in row.items() if rec.label == label)
    for stranger in strangers:
        assert stranger not in graph
        assert graph.neighbors(stranger) == []


_TERMS = st.sampled_from(["ball", "beach", "hand", "sand", "sun", "woman"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_TERMS, _TERMS, st.sampled_from(["related-to", "near"]),
                          st.integers(0, 3))), st.sets(_TERMS | st.just("moon")))
def test_edge_rows_match_the_edge_table(records, keep):
    """The graph's reads, and those of an induced subgraph, against a model
    built here from the same records; a record may join a term to itself."""
    nodes = dict.fromkeys(["woman", "sun", "sand", "hand", "beach", "ball"], "entity")
    seen, kept = set(), []
    for src, dst, label, weight in records:
        if frozenset((src, dst)) not in seen:
            seen.add(frozenset((src, dst)))
            kept.append((src, dst, label, weight))
    graph = OntologyGraph(nodes, *zip(*kept))
    assert_reads_match_model(graph, nodes, kept, strangers=["moon", ""])
    sub = graph.induced(keep)
    assert_reads_match_model(sub, {t: "entity" for t in sorted(keep) if t in nodes},
                             [r for r in kept if r[0] in keep and r[1] in keep], strangers=["moon"])


@pytest.mark.parametrize("records, index, kind, message", [
    ([("a", "b", "near", 1), ("b", "a", "near", 2)], 1, ValueError, "second edge between 'a' and 'b'"),
    ([("a", "b", "near", 1), ("c", "d", "near", 1), ("b", "a", "near", 1)], 1, UnknownTermError,
     "edge endpoints must be nodes: 'c', 'd'"),
    ([("a", "a", "near", 1), ("a", "c", "near", -1.0)], 1, ValueError,
     "edge weight must be finite and non-negative, not -1.0"),
    ([("c", "b", "near", math.nan), ("b", "c", "near", 1)], 0, ValueError,
     "edge weight must be finite and non-negative, not nan"),
], ids=["second", "first-of-two-faults", "negative", "nan"])
def test_refused_edge_record_is_named_by_its_index(records, index, kind, message):
    with pytest.raises(kind) as err:
        OntologyGraph(dict.fromkeys("abc", "entity"), *zip(*records))
    assert (str(err.value), err.value.record) == (message, index)


# -- the graph file reader against the line-by-line one ---------------------------


def walked_lines(text: str):
    """``(line number, line)`` of each line of ``text``, stripped, that is
    neither blank nor a ``#`` comment, where only a line feed ends a line:
    the line rule walked a line at a time, so that the references read no
    line through the rule of the readers they check."""
    for line_no, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield line_no, line


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(st.sampled_from(["\n", "\r", "\t", " ", "#", "\x0c", "\x1c", "\x85", "\u2028", "\u3000", "\0",
                                "n", "o", "d", "e"])))
def test_line_rule_is_the_line_walk(text):
    assert list(errors.text_lines(text)) == list(walked_lines(text))


def reference_load_graph(path):
    """The graph file reader that split and checked each line as it read it;
    returns (nodes, edge records, k1, k3) with k3 a dict in file order, or
    (nodes, edge records, None, None) for a file without freq records. It
    checks each edge record itself, in file order."""
    text = Path(path).read_bytes().decode("utf-8")

    def first_record(kind, terms):
        for line_no, line in walked_lines(text):
            fields = line.split()
            if fields[0] == kind and not terms.isdisjoint(fields[1:-1]):
                return line_no
        raise AssertionError(f"no {kind} record names {sorted(terms)}")

    nodes, node_lines, freq, k3, edge_lines = {}, {}, {}, {}, []
    for line_no, line in walked_lines(text):
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "node" and len(fields) == 3:
                if fields[1] in node_lines:
                    raise ValueError(f"second node record for {fields[1]!r}")
                nodes[fields[1]] = fields[2]
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
    edges, pairs = [], set()
    for line_no, src, dst, label, weight in edge_lines:
        pair = tuple(sorted((src, dst)))
        try:
            if src not in nodes or dst not in nodes:
                raise ValueError(f"edge endpoints must be nodes: {src!r}, {dst!r}")
            if not 0.0 <= weight < math.inf:
                raise ValueError(f"edge weight must be finite and non-negative, not {weight!r}")
            if pair in pairs:
                raise ValueError(f"second edge between {pair[0]!r} and {pair[1]!r}")
            if weight == 0.0 and freq:
                raise ValueError("edge weight is a pair count and must be positive, not 0.0")
        except ValueError as exc:
            raise GraphFormatError(path, line_no, str(exc)) from None
        pairs.add(pair)
        edges.append((src, dst, label, weight))
    if not freq:
        return nodes, edges, None, None
    declared = nodes.keys()
    unmeasured = declared - freq.keys()
    if unmeasured:
        line_no, term = min((node_lines[t], t) for t in unmeasured)
        raise GraphFormatError(path, line_no, f"node {term!r} has no freq record")
    stray = freq.keys() - declared
    if stray:
        raise GraphFormatError(path, first_record("freq", stray), "freq for an undeclared node")
    stray = set(chain.from_iterable(k3)) - declared
    if stray:
        raise GraphFormatError(path, first_record("triple", stray),
                               f"k3 term {min(stray)!r} missing from k1")
    return nodes, edges, freq, k3


# the reader's character budgets besides its own: with 0 every line is a
# block of its own; with the others a block of a small file holds one, two
# or several lines, so every record, blank or comment line and fault falls
# on a block's edge and runs of one kind are split at once
BLOCK_SIZES = (0, 13, 40, 100)


def parsed_load(path):
    """``load_graph(path)`` parsed from the file, not handed back from a
    load the process kept: for a test that changes how the reader parses."""
    with mock.patch.object(ontology, "_kept", (b"", None)):
        return load_graph(path)


def assert_loads_as_reference(path):
    """``load_graph`` and the reference give the same nodes, edges, k1 and
    k3 (k3 in sorted order), or the same error at the same line, with the
    reader's own character budget and each of :data:`BLOCK_SIZES`, each
    load parsed. The graph is read through its public reads."""
    try:
        want = reference_load_graph(path)
    except GraphFormatError as exc:
        for block in (records._READ, *BLOCK_SIZES):
            with mock.patch.object(records, "_READ", block), pytest.raises(GraphFormatError) as err:
                parsed_load(path)
            assert (str(err.value), err.value.line_no) == (str(exc), exc.line_no)
        return
    want_nodes, want_edges, want_k1, want_k3 = want
    for block in (records._READ, *BLOCK_SIZES):
        with mock.patch.object(records, "_READ", block):
            graph, dk = parsed_load(path)
        assert_reads_match_model(graph, want_nodes, want_edges)
        if want_k1 is None:
            assert dk is None
        else:
            assert list(dk.k1.items()) == list(want_k1.items())
            assert list(dk.k3.items()) == sorted(want_k3.items())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(reshaped(GRAPH))
def test_bulk_reader_matches_line_reader(data):
    """Faults, several at once, records in another order, any blank
    between fields and blank or comment lines anywhere give the
    reference's graph and statistics, or its error at the same line."""
    with written(data, "mutated.graph") as path:
        assert_loads_as_reference(path)


# blank and comment lines, indented and CR-ended records and interleaved
# kinds, which the reader skips, strips or sets aside before it checks
_SKIPPED_LINES = ("# holoscene graph v1\n\nnode a entity\n  node b entity\r\n# a comment\nfreq a 1\n"
                  "edge a b near 2\r\n\n\tnode c entity\nfreq b 1\r\n   \n  # indented\nfreq c 2\n"
                  "edge b c near 1\ntriple a b c 1\n\r\n")


# runs of one kind of record, as the writer leaves them
_RUN = "# holoscene graph v1\nnode a entity\nnode b entity\nnode c entity\nedge a b near 2\nedge b c near 1\n"


@pytest.mark.parametrize("text", [
    "node a\nnode node b c\n",  # two bad records whose fields add up
    "node a entity\nfreq a 1\ntriple a a\ntriple a a a a 1\n",
    "node node entity\nnode edge entity\nedge node edge freq 2\n",  # terms named as kinds
    "node a\x00b entity\nnode c entity\nedge a\x00b c x 1\n",  # a NUL inside a term
    "node\ta\tentity\nnode b\x85entity\nedge a\u2028b near 1\n",
    "nodes a entity\n", "n\n", "freq\n", "edge a b\n", "tripled a b c 1\n",
    "node a entity\nnode b entity\nfreq a 1\nfreq b 1\ntriple a b c 1\ntriple a b zz 1\n",
    _SKIPPED_LINES,
    _SKIPPED_LINES + "bogus a b\nnode d entity\n",
    _SKIPPED_LINES + "\n  edge a zz near 1\r\n",
    _SKIPPED_LINES + "# zero\nedge a c near 0\n",
    _SKIPPED_LINES + "\nnode d entity\r\n",
    _SKIPPED_LINES + "  freq zz 1\n# after\n",
    _SKIPPED_LINES + "\ttriple a b zz 1\n\n",
    # odd lines inside runs of one kind, which the reader splits a run at a time
    _RUN + "  node d entity\nnode\te\tentity\nnode f entity\nedge d e near 1\nedge\te f near 1\nedge f a near 1\n",
    _RUN + "  node d\nnode e entity\n",
    _RUN + "edge c a near 4",
    _RUN + "edge c a near",
    _RUN.replace("\n", "\r\n") + "freq a 1\r\nfreq b 2\r\nfreq c 3\r\ntriple a b c 1\r\ntriple a a b 2\r\n",
    _RUN.replace("\n", "\r\n") + "freq a 1\r\nfreq b 2\r\nfreq c 3\r\nfreq d 1\r\n",
    _RUN + "node a\x00 entity\nnode d entity\nedge a\x00 d x 1\nedge d a x 1\n",
    _RUN + "  node\n  node \x00 node y z\n",  # a NUL field where the record end would fall
    _RUN + "node node entity\nnode edge entity\nnode freq entity\nedge node edge freq 2\nedge edge a node 1\n",
    _RUN + "node d entity\n\nnode e entity\n# a comment\nnode f entity\nedge d e x 1\n\nedge e f x 1\n"
           "# a comment\nedge f d x 1\n\nedge d e y 1\n",
    _RUN + "node d entity\n\t# a comment\nnode e entity\n",
    # lines that begin with blanks that are no space or tab, and only a line feed ends
    "\x0cnode a entity\nnode b entity\n\x85node c entity\n\u2028node d entity\n\u3000node e entity\n"
    "\x1cnode f entity\n\u3000edge a b x 1\n\x0cedge b c x 1\nedge c d x 1\n\x1cedge d e x 1\n",
    "node a entity\n\x85node b entity\n\u2028node c\n\x1cnode d entity\n",
    _RUN + "\x0c# first\nnode d entity\n\x85# inside\nnode e entity\n\u2028# inside\n\u3000# inside\n"
           "node f entity\n\x1c# last\nedge d e x 1\n\u2028# first\n\x85edge e f x 1\n\x0c# last\n",
], ids=["misaligned", "triple-short", "kind-terms", "nul-term", "blanks", "nodes", "n", "bare-freq",
        "short-edge", "tripled", "stray-terms", "skipped-lines", "skipped-then-unknown-kind",
        "skipped-then-refused-edge", "skipped-then-zero-weight", "skipped-then-node-without-freq",
        "skipped-then-undeclared-freq", "skipped-then-stray-triple", "run-indented-and-tabbed",
        "run-then-short-indented-node", "run-last-line-unended", "run-last-line-unended-short", "run-crlf",
        "run-crlf-undeclared-freq", "run-nul-field", "run-nul-token-aligned", "run-kind-terms",
        "run-broken-by-blank-and-comment", "run-broken-by-tabbed-comment", "runs-odd-blanks",
        "run-odd-blanks-short-node", "runs-broken-by-odd-blank-comments"])
def test_bulk_reader_matches_line_reader_on_hard_cases(tmp_path, text):
    path = tmp_path / "hard.graph"
    path.write_text(text, encoding="utf-8")
    assert_loads_as_reference(path)


def test_a_surrogate_encoded_as_utf_8_fails_at_its_line(tmp_path):
    # ED A0 80 would encode U+D800, which marks the line ends of a text with
    # a NUL; strict UTF-8 decoding refuses it, so no text read holds one
    path = tmp_path / "surrogate.graph"
    path.write_bytes(b"node a entity\nnode a\x00 entity\nnode b\xed\xa0\x80 entity\n")
    with pytest.raises(GraphFormatError, match="not UTF-8 text") as err:
        load_graph(path)
    assert err.value.line_no == 3


def bench_sized_graph(path, seed: int = 1) -> None:
    """A seeded graph file the size of the long-story benchmark's: 634
    terms, ~8,800 edges and ~31,600 triples."""
    rng = random.Random(seed)
    terms = [f"t{i:03d}" for i in range(634)]
    nodes = {term: rng.choice(["entity", "action", "attribute"]) for term in terms}
    pairs = {tuple(sorted(rng.sample(terms, 2))) for _ in range(9000)}
    graph = OntologyGraph(nodes, *zip(*[(a, b, rng.choice(["related-to", "near", "part-of"]), rng.randint(1, 9))
                                        for a, b in sorted(pairs)]))
    k3 = {tuple(sorted(rng.sample(terms, 3))): rng.randint(1, 5) for _ in range(32000)}
    save_graph(graph, path, dk_stats({t: rng.randint(1, 50) for t in terms}, k3))


@pytest.mark.parametrize("edit", [None, "repeat-triple", "stray-triple", "zero-edge", "bad-node"])
def test_bulk_reader_matches_line_reader_on_a_bench_sized_graph(tmp_path, edit):
    path = tmp_path / "bench.graph"
    bench_sized_graph(path)
    lines = path.read_text(encoding="utf-8").split("\n")
    last = len(lines) - 2  # the last record, a triple
    edge = max(i for i, line in enumerate(lines) if line.startswith("edge "))
    if edit == "repeat-triple":
        kind, *terms, _ = lines[last - 1000].split()  # the same triple, in another order
        lines.insert(last, " ".join([kind, *reversed(terms), "7"]))
    elif edit == "stray-triple":
        lines[last] = "triple t001 t002 zzz 1"
    elif edit == "zero-edge":
        lines[edge] = " ".join(lines[edge].split()[:-1] + ["0"])
    elif edit == "bad-node":
        lines[1] = "node t000"
    path.write_text("\n".join(lines), encoding="utf-8")
    assert_loads_as_reference(path)


def test_bench_sized_graph_loads_in_less_than_four_times_its_size(tmp_path):
    """The reader holds the text and compact columns (term ids, floats, one
    string per distinct label), never every line or field as a string."""
    path = tmp_path / "bench.graph"
    bench_sized_graph(path)
    load_graph(path)  # compiled patterns and other first-call caches are not the load's
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        parsed_load(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 4 * path.stat().st_size


# -- load reuse ----------------------------------------------------------------


SMALL_GRAPH = ("# holoscene graph v1\nnode moon entity\nnode sky entity\nnode sun entity\n"
               "edge moon sky near 2\nedge sky sun related-to 1\nfreq moon 1\nfreq sky 2\nfreq sun 3\n"
               "triple moon sky sun 1\n")


@pytest.fixture
def parses(monkeypatch):
    """The texts ``load_graph`` parses, from a process that has kept no
    load."""
    monkeypatch.setattr(ontology, "_kept", (b"", None))
    texts = []
    parse = ontology._parse_graph

    def counted(path, text):
        texts.append(text)
        return parse(path, text)

    monkeypatch.setattr(ontology, "_parse_graph", counted)
    return texts


def loaded_as(loaded) -> tuple:
    """What a load reads as, through its public reads."""
    graph, dk = loaded
    return (list(graph.nodes.items()), graph.edges(), None if dk is None else
            (list(dk.k1.items()), list(dk.k3.items())))


def test_unchanged_bytes_loaded_again_are_not_parsed_again(tmp_path, parses):
    path = tmp_path / "small.graph"
    path.write_text(SMALL_GRAPH, encoding="utf-8")
    first, second, third, fourth = (load_graph(path) for _ in range(4))
    assert len(parses) == 2  # bytes are kept once they have been loaded twice in a row
    assert third is second and fourth is second
    assert loaded_as(first) == loaded_as(second) == loaded_as(parsed_load(path))


def test_a_file_rewritten_with_its_size_and_mtime_is_parsed_again(tmp_path, parses):
    path = tmp_path / "small.graph"
    path.write_text(SMALL_GRAPH, encoding="utf-8")
    load_graph(path)
    load_graph(path)
    stat = path.stat()
    path.write_text(SMALL_GRAPH.replace("near 2", "near 5"), encoding="utf-8")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    graph, _ = load_graph(path)
    assert len(parses) == 3
    assert EdgeRec("moon", "sky", "near", 5.0) in graph.edges()


def test_a_corrupt_file_fails_at_its_line_on_every_load(tmp_path, parses):
    path = tmp_path / "small.graph"
    path.write_text(SMALL_GRAPH, encoding="utf-8")
    load_graph(path)
    load_graph(path)
    path.write_text(SMALL_GRAPH.replace("freq sky 2", "freq sky two"), encoding="utf-8")
    faults = []
    for _ in range(3):
        with pytest.raises(GraphFormatError) as err:
            load_graph(path)
        faults.append((str(err.value), err.value.line_no))
    assert faults == [(f"{path}:8: could not convert string to float: 'two'", 8)] * 3
    assert len(parses) == 5
    assert ontology._kept[1] is None


def test_a_fault_is_named_from_the_bytes_that_were_parsed(tmp_path, monkeypatch):
    """The file is rewritten, good, once its bytes are decoded: the line
    named is still the line of the bytes that failed."""
    path = tmp_path / "small.graph"
    bad = SMALL_GRAPH.replace("edge sky sun related-to 1", "edge sky sun related-to -1")
    path.write_text(bad, encoding="utf-8")
    decode = ontology.decode_text

    def decode_then_mend(where, data):
        text = decode(where, data)
        path.write_text("\n" * 20 + SMALL_GRAPH, encoding="utf-8")
        return text

    monkeypatch.setattr(ontology, "decode_text", decode_then_mend)
    with pytest.raises(GraphFormatError) as err:
        parsed_load(path)
    assert err.value.line_no == 6


def test_loads_that_do_not_repeat_keep_nothing(tmp_path, parses):
    a, b = tmp_path / "a.graph", tmp_path / "b.graph"
    a.write_text(SMALL_GRAPH, encoding="utf-8")
    b.write_text(SMALL_GRAPH.replace("near 2", "near 3"), encoding="utf-8")
    for path in (a, b, a, b):
        load_graph(path)
    assert len(parses) == 4
    assert ontology._kept[1] is None


def test_a_kept_load_is_read_only(tmp_path, parses):
    path = tmp_path / "small.graph"
    path.write_text(SMALL_GRAPH, encoding="utf-8")
    load_graph(path)
    graph, dk = load_graph(path)
    arrays = [v for v in (*vars(graph).values(), *vars(dk.k3).values()) if isinstance(v, np.ndarray)]
    assert len(arrays) == 8
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            array += 1
    for table, key in ((graph.nodes, "moon"), (graph.ids, "moon"), (dk.k1, "moon")):
        with pytest.raises(TypeError):
            table[key] = table[key]
        with pytest.raises(TypeError):
            table["comet"] = table[key]
        with pytest.raises((TypeError, AttributeError)):
            table.pop(key)
    for terms in (graph.terms, graph.labels, dk.k3.terms):
        assert isinstance(terms, tuple)
    assert load_graph(path)[0] is graph
    assert loaded_as((graph, dk)) == loaded_as(parsed_load(path))


def test_a_load_pickles_and_copies_read_only(tmp_path):
    """A loaded graph and its statistics survive a pickle round trip and a
    deep copy, and the copies are read-only too; ``asdict`` reads ``k1``."""
    path = tmp_path / "small.graph"
    path.write_text(SMALL_GRAPH, encoding="utf-8")
    loaded = load_graph(path)
    for again in (pickle.loads(pickle.dumps(loaded)), copy.deepcopy(loaded)):
        graph, dk = again
        assert loaded_as(again) == loaded_as(loaded)
        assert graph.neighbors("sky") == ["moon", "sun"] and dk.k3.over(graph.terms) is dk.k3
        for table in (graph.nodes, graph.ids, dk.k1):
            with pytest.raises(TypeError):
                table["comet"] = table["moon"]
    graph, dk = loaded
    assert dataclasses.asdict(dk)["k1"] == {"moon": 1.0, "sky": 2.0, "sun": 3.0}
    mutable = graph.nodes.copy()
    mutable["comet"] = "entity"
    assert type(mutable) is dict and "comet" not in graph


# -- triple counts -------------------------------------------------------------


_NAMES = ["ball", "beach", "hand", "sand", "sun", "woman"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sets(st.sampled_from(_NAMES)).map(sorted).flatmap(lambda terms: st.tuples(
    st.just(terms),
    st.dictionaries(st.tuples(*[st.sampled_from(terms)] * 3).map(lambda t: tuple(sorted(t))),
                    st.integers(1, 9).map(float)) if terms else st.just({}),
    st.sets(st.sampled_from(_NAMES)).map(sorted),
    st.randoms(use_true_random=False))))
def test_triple_counts_agree_with_a_dict(case):
    """Built from id columns in any order within each triple, ``count``,
    ``over``, ``[...]``, ``get``, ``in`` and ``items()`` read as the dict
    they were built from; a repeated triple is refused."""
    terms, want, other, rng = case
    number = {term: i for i, term in enumerate(terms)}
    rows = [rng.sample([number[t] for t in triple], 3) for triple in want]
    a, b, c = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    counts = TripleCounts(terms, a, b, c, list(want.values()))

    ids = np.array(list(product(range(len(terms)), repeat=3)), dtype=np.int64).reshape(-1, 3)
    got = counts.count(*ids.T)
    assert got.tolist() == [want.get(tuple(sorted(terms[i] for i in row)), 0.0) for row in ids.tolist()]
    assert list(counts.items()) == sorted(want.items())
    assert len(counts) == len(want) and list(counts) == sorted(want)
    repeated = [row for row, count in zip(rows, want.values()) for _ in range(int(count))]
    tallied = TripleCounts(terms, *np.array(repeated, dtype=np.int64).reshape(-1, 3).T)
    assert list(tallied.items()) == sorted(want.items())
    for key in [*product(terms + ["zzz"], repeat=3), ("ball",), "ball", ()]:
        assert (key in counts) == (key in want)
        assert counts.get(key) == want.get(key)
        if key in want:
            assert counts[key] == want[key]
        else:
            with pytest.raises(KeyError):
                counts[key]

    assert counts.over(list(terms)) is counts
    narrow = counts.over(other)
    assert narrow.terms == tuple(other) and counts.over(tuple(terms)) is counts
    assert list(narrow.items()) == sorted((t, n) for t, n in want.items() if set(t) <= set(other))

    if want:
        again = rng.choice(rows)
        with pytest.raises(ValueError, match="second count"):
            TripleCounts(terms, *np.array([*rows, again[::-1]], dtype=np.int64).T, [*want.values(), 1.0])


def test_two_orderings_of_a_triple_are_refused_not_saved(tmp_path):
    # both keys name the triple ("a", "b", "c"): a graph file could hold only one
    with pytest.raises(ValueError, match="second count for triple"):
        dk_stats({"a": 1, "b": 1, "c": 1}, {("a", "b", "c"): 1, ("b", "a", "c"): 2})


@pytest.mark.parametrize("count", [0.0, -1.0, math.inf, math.nan])
def test_triple_count_must_be_finite_and_positive(count):
    with pytest.raises(ValueError, match="finite and positive"):
        dk_stats({"a": 1, "b": 1, "c": 1}, {("a", "b", "c"): count})


def test_statistics_take_triple_counts_only():
    # triple counts are built one way: from columns of term ids
    with pytest.raises(TypeError, match="TripleCounts"):
        DkStatistics(k1={"a": 1, "b": 1, "c": 1}, k3={("a", "b", "c"): 1})


def test_term_table_bound_is_where_codes_fill_int64():
    top = np.array([2**21 - 1])
    widest = TripleCounts(range(2**21), top, top, top, [5.0])  # a stand-in for 2^21 terms
    assert widest.codes.tolist() == [2**63 - 1]
    assert widest.count(np.append(top, 0), np.append(top, 0), np.append(top, 1)).tolist() == [5.0, 0.0]
    with pytest.raises(ValueError, match="2097153 terms"):
        TripleCounts(range(2**21 + 1), *[np.zeros(0, dtype=np.int64)] * 3, [])


# -- the graph file writer against the line-by-line one ---------------------------


def reference_number(value: float) -> str:
    """A weight or count as the writer formatted each one alone: a whole
    number in [0, 10^6) without a sign bit as an int, any other as its
    ``:g`` text where that reads back as the same float, else its ``repr``."""
    if math.copysign(1.0, value) > 0 and value < 1e6 and value == math.trunc(value):
        return str(int(value))
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def reference_graph_lines(graph) -> list:
    """The ``node`` and ``edge`` lines of ``graph``, one f-string each, from
    its public reads."""
    return ([f"node {term} {graph.nodes[term]}" for term in graph.terms]
            + [f"edge {rec.src} {rec.dst} {rec.label} {reference_number(rec.weight)}" for rec in graph.edges()])


def reference_save_graph(graph, path, dk=None) -> None:
    """The graph file writer that formatted each line with its own f-string
    and decoded every triple to its terms first."""
    lines = ["# holoscene graph v1", *reference_graph_lines(graph)]
    if dk is not None:
        lines += [f"freq {term} {reference_number(float(dk.k1[term]))}" for term in sorted(dk.k1)]
        lines += [f"triple {a} {b} {c} {reference_number(count)}" for (a, b, c), count in dk.k3.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# halves, a million and more, 1e-300 and a third: texts from int, from :g
# and from repr
_COUNTS = (st.sampled_from([0.5, 2.5, 123456.5, 999999.0, 1e6, 2345678.0, 3e6, 1e-300, 1 / 3, 7.0])
           | st.integers(1, 10**7).map(float) | st.floats(1e-300, 1e9))
_WEIGHTS = _COUNTS | st.sampled_from([0.0, -0.0])
_TYPES = st.sampled_from(["entity", "action", "attribute"])
_LABELS = st.sampled_from([GENERIC_RELATION, "near", "part-of"])


@st.composite
def graphs(draw):
    """A graph over some of ``_NAMES``; an edge may join a term to itself."""
    terms = draw(st.lists(st.sampled_from(_NAMES), unique=True))
    nodes = {term: draw(_TYPES) for term in terms}
    pairs = draw(st.lists(st.tuples(*[st.sampled_from(terms)] * 2), unique_by=frozenset)) if terms else []
    return OntologyGraph(nodes, *zip(*[(a, b, draw(_LABELS), draw(_WEIGHTS)) for a, b in pairs]))


@st.composite
def statistics(draw):
    """Word statistics over some of ``_NAMES``, with any finite positive
    counts, whole or not, ``k1``'s as ``extract_dk`` counts them too (ints);
    ``k3`` may be empty."""
    k1 = draw(st.dictionaries(st.sampled_from(_NAMES), _COUNTS | st.integers(1, 10**7)))
    terms = st.sampled_from(sorted(k1)) if k1 else st.nothing()
    triples = st.tuples(terms, terms, terms).map(lambda t: tuple(sorted(t)))
    return dk_stats(k1, draw(st.dictionaries(triples, _COUNTS)))


_SIGNED_ZEROS = OntologyGraph(dict.fromkeys(["moon", "sky", "sun"], "entity"),
                              ["moon", "sky", "sun"], ["sky", "sun", "moon"], ["near"] * 3, [0.0, -0.0, 0.0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.tuples(graphs(), st.none() | statistics()))
@example((OntologyGraph(), None))
@example((_SIGNED_ZEROS, None))
@example((_SIGNED_ZEROS, dk_stats({"moon": 0.5, "sky": 1 / 3, "sun": 2345678.0}, {})))
def test_writer_matches_line_writer(case):
    """``save_graph`` writes the bytes the line-by-line writer wrote, for
    any graph, with or without statistics."""
    graph, dk = case
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.graph", Path(tmp) / "want.graph"
        save_graph(graph, got, dk)
        reference_save_graph(graph, want, dk)
        assert got.read_bytes() == want.read_bytes()


def test_zero_and_minus_zero_weights_keep_their_signs(tmp_path):
    # a table of distinct weights keyed by value would hold one zero for both
    path = tmp_path / "zeros.graph"
    save_graph(_SIGNED_ZEROS, path)
    edges = [line for line in path.read_text().splitlines() if line.startswith("edge ")]
    assert edges == ["edge moon sky near 0", "edge sun moon near 0", "edge sky sun near -0"]
    graph, dk = load_graph(path)
    assert dk is None
    assert [(rec.src, rec.dst, math.copysign(1.0, rec.weight)) for rec in graph.edges()] == [
        ("moon", "sky", 1.0), ("sun", "moon", 1.0), ("sky", "sun", -1.0)]
