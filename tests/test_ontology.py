"""Ontology tests.

The counting oracle below recomputes word, pair and triple frequencies by
scanning window membership per candidate tuple, structurally unlike the
package's per-window combination counting.
"""

from pathlib import Path

import pytest

from holoscene.errors import GraphFormatError, UnknownTermError, UnmappedTermError
from holoscene.lexicon import default_lexicon, split_sentences
from holoscene.ontology import (
    DkStatistics,
    TermObjectMap,
    ValueMap,
    build_from_corpus,
    expand,
    extract_dk,
    load_graph,
    load_rewrite_rules,
    save_graph,
    to_dot,
)

DATA = Path(__file__).parent / "data"
TOY_CORPUS = [(DATA / "toy_corpus.txt").read_text()]


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
        graph = build_from_corpus(["head is part of body."], {"part of": "part-of"})
        assert set(graph.nodes) == {"head", "body"}
        rec = graph.edge_between("head", "body")
        assert (rec.src, rec.dst, rec.label, rec.weight) == ("head", "body", "part-of", 1)

    def test_empty_corpus(self):
        graph = build_from_corpus([])
        assert len(graph) == 0

    def test_weights_are_hand_counted_cooccurrences(self):
        corpus = ["The sun shines. The sun warms the sand. Waves reach the sand."]
        graph = build_from_corpus(corpus, {})
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
        k0, k1, k2, k3 = oracle_counts(TOY_CORPUS)
        assert dk.k1 == k1
        assert dk.k2 == k2
        assert dk.k3 == k3
        assert dk.k0 == k0

    def test_k0_is_mean_of_k1(self):
        dk = extract_dk(TOY_CORPUS)
        assert dk.k0 == pytest.approx(sum(dk.k1.values()) / len(dk.k1))
        dk.validate()

    def test_projection_consistency_on_single_window_corpus(self):
        # one 2-sentence document: pair and triple windows coincide
        dk = extract_dk(["The girl kicks the ball. The ball flies."])
        dk.validate()
        projected = set()
        for a, b, c in dk.k3:
            projected.update({(a, b), (a, c), (b, c)})
        assert projected == set(dk.k2)

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
        assert loaded_dk.k2 == dk.k2
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

    def test_dot_export(self):
        graph = build_from_corpus(["The sun shines."])
        dot = to_dot(graph, colors={"sun": "yellow"})
        assert '"sun" -- "shine"' in dot or '"shine" -- "sun"' in dot
        assert 'fillcolor="yellow"' in dot


class TestDkScaled:
    def test_scaling_multiplies_all_orders(self):
        dk = extract_dk(TOY_CORPUS)
        big = dk.scaled(10)
        assert big.k0 == pytest.approx(10 * dk.k0)
        assert all(big.k1[t] == 10 * dk.k1[t] for t in dk.k1)
        big.validate()
