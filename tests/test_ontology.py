"""Ontology tests.

The counting oracle below recomputes word, pair and triple frequencies by
scanning window membership per candidate tuple, structurally unlike the
package's per-window combination counting. ``reference_build``,
``reference_dk`` and ``reference_match_relations`` keep the corpus scan as
it was before windows were counted in C and sentences were skipped by
relation surface, so the faster scan is pinned to it record for record.
``reference_load_graph`` keeps the graph file reader as it was before
records were read in bulk by kind: the bulk reader must load what it
loaded, and refuse what it refused at the same line with the same message.
"""

import math
import random
import tempfile
from collections import Counter
from dataclasses import replace
from itertools import chain, combinations, combinations_with_replacement, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holoscene import ontology
from holoscene.errors import GraphFormatError, UnknownTermError, UnmappedTermError, read_lines
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

from test_parsers import GRAPH, reshaped, written

DATA = Path(__file__).parent / "data"
TOY_CORPUS = [(DATA / "toy_corpus.txt").read_text()]
DEMO = Path(__file__).parents[1] / "src" / "holoscene" / "data" / "demo"
DEMO_CORPUS = [p.read_text() for p in sorted((DEMO / "corpus").iterdir())]


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
    return DkStatistics(k1=dict(k1), k3=dict(k3))


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
        rec = graph.edge_between("head", "body")
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
        assert graph.edge_between("head", "beach").label == GENERIC_RELATION

    def test_overlapping_patterns_keep_the_longest(self):
        corpus = ["The ball is part of the sand."]
        graph = build_from_corpus(corpus, lexicon=with_patterns({"of the": "of", "part of": "part-of"}))
        assert graph.edge_between("ball", "sand").label == "part-of"
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
        assert graph.edge_between("sand", "sun").weight == 2
        assert graph.edge_between("shine", "sun").weight == 1
        assert graph.edge_between("sand", "waves").weight == 1
        assert graph.edge_between("shine", "waves") is None

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
        assert joined.edge_between("sun", "warm") is not None
        assert split.edge_between("sun", "warm") is None


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
        dk = DkStatistics(k1={"moon": 2345678, "sky": 3, "sun": 0.5}, k3={("moon", "sky", "sun"): 3e6})
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
            load_graph(path)
        assert (err.value.path, err.value.line_no) == (str(path), None)

    def test_dot_export(self):
        graph = build_from_corpus(["The sun shines."])
        dot = to_dot(graph, colors={"sun": "yellow"})
        assert '"sun" -- "shine"' in dot or '"shine" -- "sun"' in dot
        assert 'fillcolor="yellow"' in dot


class TestDkScaled:
    def test_scaling_multiplies_all_orders(self):
        dk = extract_dk(TOY_CORPUS)
        big = DkStatistics(k1={t: 10 * v for t, v in dk.k1.items()},
                           k3={t: 10 * v for t, v in dk.k3.items()})
        assert big.k0 == pytest.approx(10 * dk.k0)
        assert big.total_frequency == 10 * dk.total_frequency
        assert all(big.triple(*t) == 10 * dk.triple(*t) for t in dk.k3)


def assert_reads_match_model(graph, nodes, records, strangers=("zzz",)):
    """``graph``'s public reads agree with a plain-dict model of ``nodes``
    and the edge ``records``, which name no term pair twice: the nodes in
    order, ``edges()`` in sorted pair order, ``neighbors`` of every node
    (all of them and by each label), ``edge_between`` both ways for every
    edge and for every pair of nodes that has none, and no neighbour or
    edge for the ``strangers``, which are not nodes."""
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
    for (a, b), rec in edges.items():
        assert graph.edge_between(a, b) == graph.edge_between(b, a) == rec
    if len(nodes) * len(nodes) <= 10_000:
        for a, b in combinations_with_replacement(nodes, 2):
            if b not in rows[a]:
                assert graph.edge_between(a, b) is None
    for stranger in strangers:
        assert stranger not in graph
        assert graph.neighbors(stranger) == []
        assert all(graph.edge_between(term, stranger) is None for term in [*nodes, stranger])


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


def reference_load_graph(path):
    """The graph file reader that split and checked each line as it read it;
    returns (nodes, edge records, k1, k3) with k3 a dict in file order, or
    (nodes, edge records, None, None) for a file without freq records. It
    checks each edge record itself, in file order."""
    def first_record(kind, terms):
        for line_no, line in read_lines(path):
            fields = line.split()
            if fields[0] == kind and not terms.isdisjoint(fields[1:-1]):
                return line_no
        raise AssertionError(f"no {kind} record names {sorted(terms)}")

    nodes, node_lines, freq, k3, edge_lines = {}, {}, {}, {}, []
    for line_no, line in read_lines(path):
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


def assert_loads_as_reference(path):
    """``load_graph`` and the reference give the same nodes, edges, k1 and
    k3 (k3 in sorted order), or the same error at the same line. The graph
    is read through its public reads."""
    try:
        want_nodes, want_edges, want_k1, want_k3 = reference_load_graph(path)
    except GraphFormatError as exc:
        with pytest.raises(GraphFormatError) as err:
            load_graph(path)
        assert (str(err.value), err.value.line_no) == (str(exc), exc.line_no)
        return
    graph, dk = load_graph(path)
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
], ids=["misaligned", "triple-short", "kind-terms", "nul-term", "blanks", "nodes", "n", "bare-freq",
        "short-edge", "tripled", "stray-terms", "skipped-lines", "skipped-then-unknown-kind",
        "skipped-then-refused-edge", "skipped-then-zero-weight", "skipped-then-node-without-freq",
        "skipped-then-undeclared-freq", "skipped-then-stray-triple"])
def test_bulk_reader_matches_line_reader_on_hard_cases(tmp_path, text):
    path = tmp_path / "hard.graph"
    path.write_text(text, encoding="utf-8")
    assert_loads_as_reference(path)


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
    save_graph(graph, path, DkStatistics(k1={t: rng.randint(1, 50) for t in terms}, k3=k3))


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
    assert narrow.terms == other
    assert list(narrow.items()) == sorted((t, n) for t, n in want.items() if set(t) <= set(other))

    if want:
        again = rng.choice(rows)
        with pytest.raises(ValueError, match="second count"):
            TripleCounts(terms, *np.array([*rows, again[::-1]], dtype=np.int64).T, [*want.values(), 1.0])


def test_two_orderings_of_a_triple_are_refused_not_saved(tmp_path):
    # both keys name the triple ("a", "b", "c"): a graph file could hold only one
    with pytest.raises(ValueError, match="second count for triple"):
        DkStatistics(k1={"a": 1, "b": 1, "c": 1}, k3={("a", "b", "c"): 1, ("b", "a", "c"): 2})


@pytest.mark.parametrize("count", [0.0, -1.0, math.inf, math.nan])
def test_triple_count_must_be_finite_and_positive(count):
    with pytest.raises(ValueError, match="finite and positive"):
        DkStatistics(k1={"a": 1, "b": 1, "c": 1}, k3={("a", "b", "c"): count})


def test_term_table_bound_is_where_codes_fill_int64():
    top = np.array([2**21 - 1])
    widest = TripleCounts(range(2**21), top, top, top, [5.0])  # a stand-in for 2^21 terms
    assert widest.codes.tolist() == [2**63 - 1]
    assert widest.count(np.append(top, 0), np.append(top, 0), np.append(top, 1)).tolist() == [5.0, 0.0]
    with pytest.raises(ValueError, match="2097153 terms"):
        TripleCounts(range(2**21 + 1), *[np.zeros(0, dtype=np.int64)] * 3, [])
