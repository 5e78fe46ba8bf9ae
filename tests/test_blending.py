"""Blending tests.

The walk-scoring oracle enumerates candidate paths by brute force over
permutations of intermediate nodes, independent of the package's walk. The
reference walk is the recursive depth-first search the package used before
its array walk; the two must agree bit for bit, key order included. Both
read the pair and triple counts from plain dicts (``plain_counts``), not
through the lookups the walk uses.
``reference_load_blend`` keeps the blend file reader that parsed each line
as it read it, before blend files were read in bulk by the graph file's
reader: ``load_blend`` must load what it loaded, and refuse what it refused
at the same line with the same message, whatever the size of the blocks of
lines it reads. ``reference_save_blend`` keeps the
blend file writer that formatted each line with its own f-string:
``save_blend`` must write its bytes.
"""

import random
import tempfile
from dataclasses import replace
from itertools import combinations, permutations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from holoscene import blending, errors, hrr, ontology, records
from holoscene.blending import (
    ANCHORED,
    BLEND_HEADER,
    CONFABULATED,
    EXPANDED,
    BlendedSpace,
    GenericSpace,
    absorb_anchored,
    blend_to_dot,
    candidate_scores,
    confabulate,
    decode_probe,
    encode_subgraph,
    generic_space,
    load_blend,
    reach_scores,
    save_blend,
    transition_probability,
)
from holoscene.errors import GraphFormatError, NoSharedTermError, UnknownTermError
from holoscene.ontology import OntologyGraph, load_graph, save_graph
from holoscene.textfilter import MentalSpace, UniversalStructure

from test_ontology import (
    BLOCK_SIZES,
    SMALL_GRAPH,
    dk_stats,
    graphs,
    parsed_load,
    reference_graph_lines,
    reference_load_graph,
    walked_lines,
)
from test_parsers import reshaped, written

MIX = 0.5
MAX_PATH = 3


# -- oracle --------------------------------------------------------------------


def added_in_order(values, start=0):
    """``values`` added one at a time, in order, as the package adds each
    source's total and the word frequencies; ``sum`` does so only up to
    Python 3.11."""
    total = start
    for value in values:
        total += value
    return total


def key(*terms) -> tuple:
    """The sorted tuple of ``terms``: a key of the :func:`plain_counts`."""
    return tuple(sorted(terms))


def plain_counts(graph, dk) -> tuple:
    """The pair counts, each edge's weight, and the triple counts of
    ``graph`` and ``dk``, as dicts keyed by :func:`key`. Each is read once,
    from ``edges()`` and ``dk.k3.items()``, so that no count reaches an
    oracle through the lookups the walk uses."""
    return {rec.pair: rec.weight for rec in graph.edges()}, dict(dk.k3.items())


def oracle_path_score(pairs, triples, dk, path, mix=MIX):
    score = 1.0
    for a, b in zip(path, path[1:]):
        score *= mix * (pairs[key(a, b)] / dk.k1[a]) + (1 - mix) * (dk.k1[b] / dk.total_frequency)
    for a, b, c in zip(path, path[1:], path[2:]):
        if key(a, b, c) in triples:
            score *= 1 + triples[key(a, b, c)] / pairs[key(a, b)]
    return score


def oracle_raw(graph, dk, src, max_path=MAX_PATH, mix=MIX):
    pairs, triples = plain_counts(graph, dk)
    raw = {}
    others = [n for n in sorted(graph.nodes) if n != src]
    for dst in others:
        pool = [n for n in others if n != dst]
        total = 0.0
        for length in range(1, max_path + 1):
            for mids in permutations(pool, length - 1):
                path = (src, *mids, dst)
                if all(key(a, b) in pairs for a, b in zip(path, path[1:])):
                    total += oracle_path_score(pairs, triples, dk, path, mix)
        if total:
            raw[dst] = total
    return raw


def oracle_transition(graph, dk, src, dst, max_path=MAX_PATH, mix=MIX):
    if src == dst:
        return 1.0
    raw = oracle_raw(graph, dk, src, max_path, mix)
    total = added_in_order(raw.values())
    return raw.get(dst, 0.0) / total if total else 0.0


def oracle_accepted(generic_terms, graph, dk, threshold, max_path=MAX_PATH, mix=MIX):
    scores = {}
    for d in sorted(graph.nodes):
        if d in generic_terms:
            continue
        product = 1.0
        for g in sorted(generic_terms):
            product *= oracle_transition(graph, dk, g, d, max_path, mix)
        scores[d] = product
    peak = max(scores.values(), default=0.0)
    if peak == 0.0:
        return set(), scores
    argmax = min(t for t in scores if scores[t] == peak)
    return {t for t in scores if scores[t] > 0 and (t == argmax or scores[t] / peak >= threshold)}, scores


# -- reference walk ------------------------------------------------------------


def reference_reach(graph, dk, source, max_path=MAX_PATH, mix=MIX, paths=None):
    """Recursive depth-first walk over sorted neighbours: sums each target's
    path scores in pre-order and keys targets by first visit. Appends every
    scored path to ``paths`` if given."""
    pairs, triples = plain_counts(graph, dk)
    raw = {}

    def step_weight(a, b):
        observed = pairs[key(a, b)] / dk.k1[a]
        background = dk.k1[b] / dk.total_frequency
        return mix * observed + (1.0 - mix) * background

    def segment(path, nxt):
        # incremental step weight plus the triple boost it completes
        weight = step_weight(path[-1], nxt)
        if len(path) >= 2:
            observed = triples.get(key(path[-2], path[-1], nxt), 0)
            if observed:
                weight *= 1.0 + observed / pairs[key(path[-2], path[-1])]
        return weight

    def walk(path, score):
        here = path[-1]
        if len(path) > 1:
            raw[here] = raw.get(here, 0.0) + score
            if paths is not None:
                paths.append(path)
        if len(path) > max_path:
            return
        for nxt in graph.neighbors(here):
            if nxt in path:
                continue
            walk(path + (nxt,), score * segment(path, nxt))

    walk((source,), 1.0)
    return raw


def reference_candidates(generic_terms, graph, dk, max_path=MAX_PATH, mix=MIX):
    per_source = []
    for source in sorted(generic_terms):
        raw = reference_reach(graph, dk, source, max_path, mix)
        per_source.append((raw, added_in_order(raw.values())))
    scores = {}
    for term in sorted(graph.nodes):
        if term in generic_terms:
            continue
        product = 1.0
        for raw, total in per_source:
            product *= raw.get(term, 0.0) / total if total else 0.0
        scores[term] = product
    return scores


def assert_subtree_in_pre_order(index, graph, dk, source, max_path, mix=MIX):
    """The targets ``index.reach`` takes from ``_subtree``, chunk after
    chunk, are the last terms of the reference walk's paths, in its order."""
    got = []

    def recorded(s, hops):
        targets, scores = type(index)._subtree(index, s, hops)
        got.extend(graph.terms[t] for t in targets)
        return targets, scores

    index._subtree = recorded
    try:
        index.reach(source)
    finally:
        del index._subtree
    paths = []
    reference_reach(graph, dk, source, max_path, mix, paths=paths)
    assert got == [path[-1] for path in paths]


def assert_walks_match_reference(graph, dk, sources, generic, max_path, mix=MIX):
    for source in sources:
        got = reach_scores(graph, dk, source, max_path, mix)
        want = reference_reach(graph, dk, source, max_path, mix)
        assert list(got.items()) == list(want.items())
    got = candidate_scores(generic, graph, dk, max_path, mix)
    assert list(got.items()) == list(reference_candidates(generic, graph, dk, max_path, mix).items())


# -- fixtures ------------------------------------------------------------------


def graph_from(edges, k1, k3=()):
    records = [(a, b, "related-to", w) for a, b, w in edges]
    graph = OntologyGraph(dict.fromkeys(sorted(k1), "entity"), *zip(*records))
    return graph, dk_stats(k1, {key(*t[:3]): t[3] for t in k3})


def reweighted(graph, weight):
    """A copy of ``graph`` in which each edge ``rec`` weighs ``weight(rec)``."""
    return OntologyGraph(graph.nodes, *zip(*[rec._replace(weight=weight(rec)) for rec in graph.edges()]))


def scaled(graph, dk, factor):
    """Copies of ``graph`` and ``dk`` with every count times ``factor``:
    k1, k3 and the edge weights, which are the pair counts."""
    return reweighted(graph, lambda rec: rec.weight * factor), dk_stats(
        {t: v * factor for t, v in dk.k1.items()}, {t: v * factor for t, v in dk.k3.items()})


def toy_six():
    k1 = {"a": 4, "b": 3, "c": 5, "d": 2, "e": 1, "f": 6}
    edges = [
        ("a", "b", 2),
        ("b", "c", 3),
        ("a", "c", 1),
        ("c", "d", 2),
        ("d", "e", 1),
        ("b", "d", 1),
    ]
    k3 = [("a", "b", "c", 1), ("b", "c", "d", 2)]
    return graph_from(edges, k1, k3)


def space(index, anchored, expanded=()):
    return MentalSpace(
        sentence_index=index,
        structure=UniversalStructure(action="walk"),
        anchored=frozenset(anchored),
        expanded=frozenset(expanded),
    )


class TestGenericSpace:
    def test_terms_shared_by_two_spaces(self):
        spaces = [
            space(0, {"woman", "walk", "beach"}, {"ocean", "sky", "clothing"}),
            space(1, {"leave", "ball", "beach"}, {"ocean", "sky"}),
            space(2, {"woman", "take", "ball"}, {"clothing"}),
        ]
        generic = generic_space(spaces)
        assert {"woman", "beach", "ball"} <= generic.shared
        assert {"walk", "take", "leave"}.isdisjoint(generic.shared)
        assert (0, 2, "woman") in generic.correspondences

    def test_single_space_shares_its_anchors(self):
        generic = generic_space([space(0, {"woman", "walk"}, {"clothing"})])
        assert generic.shared == {"woman", "walk"}

    def test_disjoint_spaces_share_nothing(self):
        generic = generic_space([space(0, {"woman"}), space(1, {"ball"})])
        assert generic.shared == frozenset()

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            generic_space([])


@pytest.fixture(scope="module")
def book():
    return hrr.Codebook(
        ["woman", "wear", "clothing"] + [f"d{i:02d}" for i in range(17)], dim=512, seed=3
    )


class TestHolographicCoding:

    def test_encode_chain(self, book):
        trace = encode_subgraph(["woman", "wear", "clothing"], book)
        by_hand = hrr.convolve(
            hrr.convolve(book.vector("woman"), book.vector("wear")), book.vector("clothing")
        )
        assert trace.tobytes() == by_hand.tobytes()

    def test_single_node_path(self, book):
        trace = encode_subgraph(["woman"], book)
        assert trace.tobytes() == book.vector("woman").tobytes()

    def test_even_length_rejected(self, book):
        with pytest.raises(ValueError):
            encode_subgraph(["woman", "wear"], book)

    def test_missing_term(self, book):
        with pytest.raises(UnknownTermError):
            encode_subgraph(["woman", "wear", "zeppelin"], book)

    def test_probe_recovers_open_slot(self, book):
        trace = encode_subgraph(["woman", "wear", "clothing"], book)
        # probe with the open-ended "woman wear ..." prefix
        probe = hrr.convolve(book.vector("woman"), book.vector("wear"))
        term, sim = decode_probe(trace, probe, book)
        assert term == "clothing"
        assert sim > 0.2

    def test_delta_probe_is_cleanup(self, book):
        trace = book.vector("wear")
        impulse = np.zeros(512)
        impulse[0] = 1.0  # the identity of convolution and correlation
        term, sim = decode_probe(trace, impulse, book)
        assert term == "wear"
        assert sim == pytest.approx(1.0)

    def test_unrelated_probe_scores_low(self, book, frozen_bounds):
        trace = encode_subgraph(["woman", "wear", "clothing"], book)
        probe = hrr.convolve(book.vector("d00"), book.vector("d01"))
        decoded = hrr.correlate(probe, trace)
        sims = [hrr.similarity(decoded, book.vector(t)) for t in book.terms]
        assert max(sims) < frozen_bounds["path_decode_50"]["mean_similarity"] / 2

    def test_three_term_decode_accuracy(self, frozen_bounds):
        import numpy as np

        book = hrr.Codebook([f"w{i:02d}" for i in range(50)], dim=512, seed=77)
        rng = np.random.default_rng(77)
        hit = 0
        for _ in range(1000):
            ai, ri, bi = rng.choice(50, size=3, replace=False)
            a, r, b = book.terms[ai], book.terms[ri], book.terms[bi]
            trace = encode_subgraph([a, r, b], book)
            probe = hrr.convolve(book.vector(a), book.vector(r))
            got, _ = decode_probe(trace, probe, book)
            hit += got == b
        assert hit / 1000 > 0.95
        assert hit / 1000 == frozen_bounds["path_decode_50"]["accuracy"]


class TestTransitionProbability:
    def test_self_transition_is_one(self):
        graph, dk = toy_six()
        assert transition_probability(graph, dk, "a", "a") == 1.0

    def test_disconnected_pair_is_zero(self):
        graph, dk = toy_six()
        assert transition_probability(graph, dk, "a", "f") == 0.0

    def test_unknown_term_rejected(self):
        graph, dk = toy_six()
        with pytest.raises(UnknownTermError):
            transition_probability(graph, dk, "a", "zeppelin")

    def test_matches_oracle_on_toy_graph(self):
        graph, dk = toy_six()
        for src in sorted(graph.nodes):
            for dst in sorted(graph.nodes):
                got = transition_probability(graph, dk, src, dst)
                want = oracle_transition(graph, dk, src, dst)
                assert got == pytest.approx(want, abs=1e-12)

    def test_source_probabilities_sum_to_at_most_one(self):
        graph, dk = toy_six()
        for src in sorted(graph.nodes):
            total = sum(
                transition_probability(graph, dk, src, dst)
                for dst in sorted(graph.nodes)
                if dst != src
            )
            assert total <= 1 + 1e-12


class TestConfabulate:
    def test_accepted_set_matches_oracle_on_toy_graph(self):
        graph, dk = toy_six()
        generic = GenericSpace(shared=frozenset({"a", "b"}), correspondences=frozenset())
        blend = confabulate(generic, graph, dk, threshold=0.3)
        want, oracle_scores = oracle_accepted({"a", "b"}, graph, dk, 0.3)
        assert blend.by_provenance("confabulated") == want
        raw = candidate_scores({"a", "b"}, graph, dk)
        for term, value in oracle_scores.items():
            assert raw[term] == pytest.approx(value, abs=1e-12)

    def test_threshold_above_one_keeps_only_argmax(self):
        graph, dk = toy_six()
        generic = GenericSpace(shared=frozenset({"a", "b"}), correspondences=frozenset())
        blend = confabulate(generic, graph, dk, threshold=1.0 + 1e-9)
        assert len(blend.by_provenance("confabulated")) == 1

    def test_threshold_zero_imagines_no_term_that_no_source_reaches(self):
        # "f" has no edge, so its raw score is 0 and 0 / peak clears a threshold of 0
        graph, dk = toy_six()
        generic = GenericSpace(shared=frozenset({"a", "b"}), correspondences=frozenset())
        assert candidate_scores({"a", "b"}, graph, dk)["f"] == 0.0
        blend = confabulate(generic, graph, dk, threshold=0.0)
        assert blend.by_provenance("confabulated") == {"c", "d", "e"}
        assert oracle_accepted({"a", "b"}, graph, dk, 0.0)[0] == {"c", "d", "e"}

    def test_empty_generic_space_rejected(self):
        graph, dk = toy_six()
        with pytest.raises(NoSharedTermError, match="share no term") as err:
            confabulate(GenericSpace(frozenset(), frozenset()), graph, dk, 0.1)
        assert isinstance(err.value, ValueError)

    def test_scaling_counts_leaves_scores_identical(self):
        graph, dk = toy_six()
        raw = candidate_scores({"a", "b"}, graph, dk)
        assert raw == candidate_scores({"a", "b"}, *scaled(graph, dk, 10))

    def test_score_monotone_under_generic_removal(self):
        graph, dk = toy_six()
        full = candidate_scores({"a", "b", "c"}, graph, dk)
        reduced = candidate_scores({"a", "b"}, graph, dk)
        for term in full:
            assert reduced[term] >= full[term]

    def test_provenance_marking(self):
        graph, dk = toy_six()
        generic = GenericSpace(shared=frozenset({"a", "b"}), correspondences=frozenset())
        blend = absorb_anchored(confabulate(generic, graph, dk, threshold=0.3), {"a"}, graph)
        assert blend.provenance["a"] == "anchored"
        assert blend.provenance["b"] == "expanded"
        assert all(
            blend.provenance[t] == "confabulated" for t in blend.terms - {"a", "b"}
        )

    def test_absorb_anchored(self):
        graph, dk = toy_six()
        generic = GenericSpace(shared=frozenset({"a", "b"}), correspondences=frozenset())
        blend = confabulate(generic, graph, dk, threshold=0.3)
        merged = absorb_anchored(blend, {"f"}, graph)
        assert merged.scores["f"] == 1.0
        assert merged.provenance["f"] == "anchored"

    def test_confabulated_terms_reachable_from_generic(self):
        graph, dk = toy_six()
        generic = GenericSpace(shared=frozenset({"a", "b"}), correspondences=frozenset())
        blend = confabulate(generic, graph, dk, threshold=0.3)
        for term in blend.by_provenance("confabulated"):
            assert any(
                transition_probability(graph, dk, g, term) > 0 for g in generic.shared
            )


# -- property test over random graphs ------------------------------------------


@st.composite
def random_graph_case(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    terms = [f"t{i}" for i in range(n)]
    k1 = {t: draw(st.integers(1, 9)) for t in terms}
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((terms[i], terms[j], draw(st.integers(1, 5))))
    k3 = []
    pairs = {tuple(sorted((a, b))) for a, b, _ in edges}
    for a, b, c in combinations(terms, 3):
        if {(a, b), (a, c), (b, c)} <= pairs and draw(st.booleans()):
            k3.append((a, b, c, draw(st.integers(1, 3))))
    generic_size = draw(st.integers(1, min(3, n)))
    generic = frozenset(terms[:generic_size])
    return edges, k1, k3, generic


@settings(max_examples=200, deadline=None, derandomize=True)
@given(random_graph_case())
def test_confabulation_matches_exhaustive_oracle(case):
    edges, k1, k3, generic = case
    graph, dk = graph_from(edges, k1, k3)
    for dst in sorted(graph.nodes):
        src = sorted(generic)[0]
        got = transition_probability(graph, dk, src, dst)
        assert got == pytest.approx(oracle_transition(graph, dk, src, dst), abs=1e-12)
    blend = confabulate(GenericSpace(generic, frozenset()), graph, dk, threshold=0.3)
    want, _ = oracle_accepted(generic, graph, dk, 0.3)
    assert blend.by_provenance("confabulated") == want
    # ranking is invariant under scaling every statistic
    assert candidate_scores(generic, graph, dk) == candidate_scores(generic, *scaled(graph, dk, 10))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_graph_case(), st.integers(1, blending.MAX_PATH), st.sampled_from([0.0, 0.3, MIX, 1.0]))
def test_walk_equals_reference_exactly(case, max_path, mix):
    edges, k1, k3, generic = case
    graph, dk = graph_from(edges, k1, k3)
    assert_walks_match_reference(graph, dk, sorted(graph.nodes), generic, max_path, mix)
    index = blending._WalkIndex(graph, dk, max_path, mix)
    for source in sorted(graph.nodes):
        assert_subtree_in_pre_order(index, graph, dk, source, max_path, mix)
        ref = reference_reach(graph, dk, source, max_path, mix)
        total = added_in_order(ref.values())
        for target in sorted(graph.nodes):
            want = 1.0 if target == source else ref[target] / total if target in ref else 0.0
            assert transition_probability(graph, dk, source, target, max_path, mix) == want


def seeded_graph(n=300, degree=10, seed=11):
    """A connected random graph with fractional word frequencies and
    triple counts on ~3,000 of its two-step paths."""
    rng = random.Random(seed)
    terms = [f"w{i:03d}" for i in range(n)]
    k1 = {t: rng.randint(1, 400) / 8 for t in terms}
    pairs = {tuple(sorted((terms[i - 1], terms[i]))) for i in range(1, n)}
    while len(pairs) < n * degree // 2:
        a, b = rng.sample(terms, 2)
        pairs.add(tuple(sorted((a, b))))
    edges = [(a, b, rng.randint(1, 6)) for a, b in sorted(pairs)]
    neighbours = {t: [] for t in terms}
    for a, b in pairs:
        neighbours[a].append(b)
        neighbours[b].append(a)
    k3 = []
    for _ in range(3000):
        b = rng.choice(terms)
        a, c = rng.sample(sorted(neighbours[b]), 2)
        k3.append((a, b, c, rng.randint(1, 4)))
    return graph_from(edges, k1, k3)


def test_walk_equals_reference_on_a_300_node_graph():
    graph, dk = seeded_graph()
    sources = random.Random(5).sample(sorted(graph.nodes), 6)
    assert_walks_match_reference(graph, dk, sources, frozenset(sources[:3]), max_path=3)


def test_walk_equals_reference_across_chunks_of_several_first_steps(monkeypatch):
    # chunks of 400 paths: each source's walk spans several chunks of several
    # first steps; chunks one path below the smallest first-step bound: every
    # first step is walked alone, and the sums carry across chunks
    graph, dk = seeded_graph()
    sources = random.Random(5).sample(sorted(graph.nodes), 5)
    generic = frozenset(sources[:3])
    smallest = int(blending._WalkIndex(graph, dk, 3, MIX).subtree.min())
    for alone in (False, True):
        monkeypatch.setattr(blending, "_CHUNK_PATHS", smallest - 1 if alone else 400)
        index = blending._WalkIndex(graph, dk, 3, MIX)
        for source in sources:
            s = graph.ids[source]
            bound = index.subtree[index.indices[index.indptr[s] : index.indptr[s + 1]]]
            chunk = (np.cumsum(bound) - bound) // blending._CHUNK_PATHS
            per_chunk = np.unique(chunk, return_counts=True)[1]  # first steps in each chunk
            assert len(per_chunk) >= 2
            assert (per_chunk == 1).all() if alone else per_chunk.min() >= 2
            assert_subtree_in_pre_order(index, graph, dk, source, max_path=3)
        assert_walks_match_reference(graph, dk, sources, generic, max_path=3)
        counts, paths = {}, []
        candidate_scores(generic, graph, dk, 3, counts=counts)
        for source in sorted(generic):
            reference_reach(graph, dk, source, 3, paths=paths)
        assert counts["walk_paths"] == len(paths)


@pytest.mark.parametrize(
    "max_path, mix, message",
    [(0, MIX, r"max_path must be in \[1, 3\], not 0"), (4, MIX, r"max_path must be in \[1, 3\], not 4"),
     (3, -0.1, r"mix must be in \[0, 1\], not -0.1"), (3, 1.1, r"mix must be in \[0, 1\], not 1.1"),
     (3, float("nan"), r"mix must be in \[0, 1\], not nan")],
    ids=["max_path-0", "max_path-4", "mix-below-0", "mix-above-1", "mix-nan"],
)
def test_every_walk_entry_refuses_a_walk_out_of_range(max_path, mix, message):
    graph, dk = toy_six()
    generic = GenericSpace(frozenset({"a", "d"}), frozenset())
    walks = [lambda: reach_scores(graph, dk, "a", max_path, mix),
             lambda: transition_probability(graph, dk, "a", "b", max_path, mix),
             lambda: transition_probability(graph, dk, "a", "a", max_path, mix),
             lambda: candidate_scores(generic.shared, graph, dk, max_path, mix),
             lambda: confabulate(generic, graph, dk, 0.3, max_path, mix)]
    for walk in walks:
        with pytest.raises(ValueError, match=message):
            walk()


def test_walk_reads_each_pair_count_from_its_edge():
    # the same statistics over a graph with one heavier edge: the walk must
    # move exactly as the reference and the oracle, both reading edge weights
    graph, dk = toy_six()
    heavier = reweighted(graph, lambda rec: 7 if rec.pair == ("b", "c") else rec.weight)
    generic = frozenset({"a", "d"})
    before, after = candidate_scores(generic, graph, dk), candidate_scores(generic, heavier, dk)
    assert after != before
    assert list(after.items()) == list(reference_candidates(generic, heavier, dk).items())
    _, want = oracle_accepted(generic, heavier, dk, 0.3)
    assert after == pytest.approx(want, abs=1e-12)
    assert before == pytest.approx(oracle_accepted(generic, graph, dk, 0.3)[1], abs=1e-12)


def test_oracle_reads_no_triple_count_through_the_walks_lookup():
    # the walk reads triple counts through TripleCounts.count and the oracle
    # from a plain dict, so a fault in count must part them
    graph, dk = toy_six()
    with mock.patch.object(ontology.TripleCounts, "count", lambda self, a, b, c: np.zeros(np.shape(a))):
        got = [transition_probability(graph, dk, "a", term) for term in sorted(graph.nodes)]
        want = [oracle_transition(graph, dk, "a", term) for term in sorted(graph.nodes)]
    assert got != pytest.approx(want, abs=1e-12)


def test_walk_renumbers_triples_over_the_graph_terms():
    # statistics over more terms than the graph: "aa" shifts every later
    # term's id, and the triples naming a term the graph lacks never apply
    graph, dk = toy_six()
    wider = dk_stats({**dk.k1, "aa": 2, "zz": 3},
                     {**dict(dk.k3.items()), ("a", "b", "zz"): 4, ("aa", "b", "c"): 2})
    assert wider.k3.terms != tuple(sorted(graph.nodes))
    assert_walks_match_reference(graph, wider, sorted(graph.nodes), frozenset({"a", "d"}), max_path=3)


def test_a_self_loop_is_one_edge_the_walk_never_steps(tmp_path):
    path = tmp_path / "loop.graph"
    path.write_text("\n".join([
        "node a entity", "node b entity", "node c entity", "node d entity",
        "edge a a near 2", "edge a b related-to 3", "edge c b near 1", "edge c d related-to 2",
        "freq a 2", "freq b 3", "freq c 1", "freq d 4", "triple a a b 1", "triple a b c 2",
    ]) + "\n")
    graph, dk = load_graph(path)
    loop = ("a", "a", "near", 2.0)
    assert graph.edges() == [loop, ("a", "b", "related-to", 3.0), ("c", "b", "near", 1.0),
                             ("c", "d", "related-to", 2.0)]
    assert graph.neighbors("a") == ["a", "b"]
    assert graph.neighbors("a", {"near"}) == ["a"]
    assert graph.induced({"a", "c"}).edges() == [loop]
    for source in sorted(graph.nodes):
        got = reach_scores(graph, dk, source)
        assert list(got.items()) == list(reference_reach(graph, dk, source).items())
        assert source not in got
    counts = {}
    candidate_scores({"a"}, graph, dk, counts=counts)
    paths = []
    reference_reach(graph, dk, "a", paths=paths)
    assert counts["walk_paths"] == len(paths) == 3  # a-b, a-b-c, a-b-c-d
    again, twice = tmp_path / "again.graph", tmp_path / "twice.graph"
    save_graph(graph, again, dk)
    reloaded, reloaded_dk = load_graph(again)
    save_graph(reloaded, twice, reloaded_dk)
    assert twice.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("frequency", [None, 0, -2, float("nan"), float("inf")])
def test_walk_rejects_a_bad_frequency_by_term(frequency):
    graph, dk = toy_six()
    k1 = {t: v for t, v in dk.k1.items() if t != "f"}  # "f" has no edges at all
    if frequency is not None:
        k1["f"] = frequency
    with pytest.raises(ValueError, match="'f'"):
        reach_scores(graph, replace(dk, k1=k1), "a")


class TestBlendFile:
    def test_roundtrip_and_dot(self, tmp_path):
        graph, dk = toy_six()
        generic = GenericSpace(shared=frozenset({"a", "b"}), correspondences=frozenset())
        blend = absorb_anchored(confabulate(generic, graph, dk, threshold=0.3), {"a"}, graph)
        path = tmp_path / "toy.blend"
        save_blend(blend, path)
        again = load_blend(path)
        assert again.scores == blend.scores
        assert again.provenance == blend.provenance
        dot = blend_to_dot(again)
        assert 'fillcolor="yellow"' in dot
        assert 'fillcolor="red"' in dot
        assert 'fillcolor="blue"' in dot

    def test_corrupt_blend_names_line(self, tmp_path):
        from holoscene.errors import GraphFormatError

        path = tmp_path / "bad.blend"
        path.write_text("node a entity\nscore a one anchored\n")
        with pytest.raises(GraphFormatError) as err:
            load_blend(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "records, line_no",
        [(["node a entity", "node b entity", "node a attribute"], 3),
         (["node a entity", "node b entity", "edge a b related-to 2", "edge b a part-of 5"], 4),
         (["node a entity", "score a 1.0 anchored", "score a 0.5 confabulated"], 3)],
        ids=["node", "edge", "score"],
    )
    def test_second_record_names_line(self, tmp_path, records, line_no):
        from holoscene.errors import GraphFormatError

        path = tmp_path / "bad.blend"
        path.write_text("\n".join(records) + "\n")
        with pytest.raises(GraphFormatError, match="second") as err:
            load_blend(path)
        assert err.value.line_no == line_no

    @pytest.mark.parametrize(
        "record",
        ["score a nan anchored", "score a inf anchored", "score a -0.5 confabulated",
         "score a 1.5 expanded", "score b 0.5 confabulated"],
        ids=["nan", "inf", "negative", "above-one", "no-node"],
    )
    def test_score_outside_unit_interval_or_without_node_names_line(self, tmp_path, record):
        from holoscene.errors import GraphFormatError

        path = tmp_path / "bad.blend"
        path.write_text("\n".join(["node a entity", "score c 1.0 anchored", record, "node c entity"]) + "\n")
        with pytest.raises(GraphFormatError) as err:
            load_blend(path)
        assert err.value.line_no == 3


# -- the blend file reader against the line-by-line one ---------------------------


def reference_load_blend(path) -> BlendedSpace:
    """The blend file reader that split and checked each line as it read it;
    the graph refuses an edge, naming it by its index."""
    nodes: dict[str, str] = {}
    scores: dict[str, float] = {}
    provenance: dict[str, str] = {}
    src, dst, label, weight = edges = ([], [], [], [])  # the edge columns
    edge_lines = []
    score_lines = []
    for line_no, line in walked_lines(Path(path).read_bytes().decode("utf-8")):
        fields = line.split()
        try:
            if fields[0] == "node" and len(fields) == 3:
                if fields[1] in nodes:
                    raise ValueError(f"second node record for {fields[1]!r}")
                nodes[fields[1]] = fields[2]
            elif fields[0] == "edge" and len(fields) == 5:
                weight.append(float(fields[4]))
                src.append(fields[1])
                dst.append(fields[2])
                label.append(fields[3])
                edge_lines.append(line_no)
            elif fields[0] == "score" and len(fields) == 4:
                if fields[3] not in (ANCHORED, EXPANDED, CONFABULATED):
                    raise ValueError(f"unknown provenance {fields[3]!r}")
                if fields[1] in scores:
                    raise ValueError(f"second score record for {fields[1]!r}")
                scores[fields[1]] = score = float(fields[2])
                if not 0.0 <= score <= 1.0:
                    raise ValueError(f"score must be a number in [0, 1], not {fields[2]!r}")
                provenance[fields[1]] = fields[3]
                score_lines.append((line_no, fields[1]))
            else:
                raise ValueError(f"unrecognized record {fields[0]!r}")
        except ValueError as exc:
            raise GraphFormatError(path, line_no, str(exc)) from None
    try:
        subgraph = OntologyGraph(nodes, *edges)
    except (UnknownTermError, ValueError) as exc:
        raise GraphFormatError(path, edge_lines[exc.record], str(exc)) from None
    for line_no, term in score_lines:
        if term not in nodes:
            raise GraphFormatError(path, line_no, f"score for {term!r}, which has no node record")
    return BlendedSpace(scores=scores, provenance=provenance, subgraph=subgraph)


def assert_blend_loads_as_reference(path):
    """``load_blend`` and the reference give the same scores (to the bit),
    provenances, nodes and edges, each in the same order, or the same error
    at the same line, with the reader's own character budget and each of
    ``BLOCK_SIZES``."""
    try:
        want = reference_load_blend(path)
    except GraphFormatError as exc:
        for block in (records._READ, *BLOCK_SIZES):
            with mock.patch.object(records, "_READ", block), pytest.raises(GraphFormatError) as err:
                load_blend(path)
            assert (str(err.value), err.value.line_no) == (str(exc), exc.line_no)
        return
    for block in (records._READ, *BLOCK_SIZES):
        with mock.patch.object(records, "_READ", block):
            got = load_blend(path)
        assert [(t, repr(s)) for t, s in got.scores.items()] == [(t, repr(s)) for t, s in want.scores.items()]
        assert list(got.provenance.items()) == list(want.provenance.items())
        assert list(got.subgraph.nodes.items()) == list(want.subgraph.nodes.items())
        assert repr(got.subgraph.edges()) == repr(want.subgraph.edges())


BLEND = """# holoscene blend v1
node ball entity
node beach entity
node sand entity
node hand entity
edge ball beach located-on 2
edge beach sand related-to 1
edge hand ball held-by 0.5
score ball 1.0 anchored
score beach 0.25 expanded
score hand 1 anchored
score sand 0.0625 confabulated"""


@settings(max_examples=400, deadline=None, derandomize=True)
@given(reshaped(BLEND))
def test_blend_reader_matches_line_reader(data):
    """Faults, several at once, records in another order, any blank
    between fields and blank or comment lines anywhere give the
    reference's blend, or its error at the same line."""
    with written(data, "mutated.blend") as path:
        assert_blend_loads_as_reference(path)


@pytest.mark.parametrize("text", [
    "node a entity\nscore b 0.5 expanded\nnode b entity\nscore a 1 anchored\n",
    "score c 1.0 anchored\nnode a entity\nscore a 1 anchored\n",
    "node a entity\nfreq a 1\nscore a 1 anchored\n",
    "node a entity\nscore a 1 anchored\nnode b entity\ntriple a a b 1\n",
    "node a\x00b entity\nnode c entity\nedge a\x00b c x 1\nscore a\x00b 0.5 expanded\nscore c 1 anchored\n",
    "node a entity\nscore a 1 anchored\nscore a 0.5 bogus\n",
    "node a entity\nscore a 1 anchored\nscore a one expanded\n",
    "node a entity\nscore a nan anchored\n",
    "node a entity\nscore a inf anchored\n",
    "node a entity\nscore a -0.5 confabulated\n",
    "node a entity\nscore a -0 confabulated\nscore b 1e-999 expanded\nnode b entity\n",
    "node a entity\nnode b entity\nscore a 1 anchored\nscore zz 1 expanded\nedge a zz near 1\n",
    "node a entity\nnode b entity\nscore a 1 anchored\nedge a b near 1\nedge b a near 2\n",
    "node a entity\nscore a 1 anchored expanded\nscores a 1 anchored\n",
    "node a entity\ns\n",
    "node a entity\nedge a a self 1\nscore a 1 anchored\n\n# end\n",
    "node a entity\r\nnode b entity\r\n  node c entity\r\nscore a 1 anchored\r\nscore b 0.5 expanded\r\n"
    "\tscore c 0 confabulated\r\nscore c 1 anchored",
], ids=["score-before-node", "score-without-node", "freq", "triple", "nul-term", "provenance-and-repeat",
        "repeat-and-no-number", "nan", "inf", "negative", "minus-zero-and-underflow",
        "refused-edge-after-scores", "second-edge-after-scores", "wide-score-then-scores", "bare-s",
        "self-loop", "runs-crlf-indented-unended"])
def test_blend_reader_matches_line_reader_on_hard_cases(tmp_path, text):
    path = tmp_path / "hard.blend"
    path.write_text(text, encoding="utf-8")
    assert_blend_loads_as_reference(path)


def blend_read(blend) -> tuple:
    """What a blend reads as, through its public reads."""
    return blend.scores, blend.provenance, blend.subgraph.nodes, blend.subgraph.edges()


@pytest.mark.parametrize("name, text, load, reference", [
    ("small.graph", SMALL_GRAPH, parsed_load, reference_load_graph),
    ("small.blend", BLEND, load_blend, lambda path: blend_read(reference_load_blend(path))),
], ids=["graph", "blend"])
def test_references_read_lines_apart_from_the_readers(tmp_path, name, text, load, reference):
    """With a line rule that drops a file's first run, its node records, the
    reader refuses the file and the reference still reads it whole: the two
    share no line rule, so that each checks the other's."""
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    rule = errors.line_runs

    def dropping(text):
        runs = rule(text)
        next(runs, None)
        return runs

    want = reference(path)
    with mock.patch.object(errors, "line_runs", dropping), mock.patch.object(records, "line_runs", dropping):
        assert reference(path) == want
        with pytest.raises(GraphFormatError, match="must be nodes"):
            load(path)


# -- the blend file writer against the line-by-line one ---------------------------


def reference_save_blend(blend, path) -> None:
    """The blend file writer that formatted each line with its own f-string,
    each score the ``repr`` of its float."""
    lines = [BLEND_HEADER, *reference_graph_lines(blend.subgraph)]
    for term in sorted(blend.scores):
        lines.append(f"score {term} {float(blend.scores[term])!r} {blend.provenance[term]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# zeros of both signs, a half, a third, 1e-300 and NumPy floats, which a
# plain repr would write as np.float64(...)
_SCORES = (st.sampled_from([0.0, -0.0, 0.5, 1 / 3, 1e-300, 1.0]) | st.floats(0.0, 1.0)
           | st.floats(0.0, 1.0).map(np.float64))


@st.composite
def blends(draw):
    """A blend over a drawn graph: a score and a provenance for some of its
    nodes."""
    graph = draw(graphs())
    terms = draw(st.lists(st.sampled_from(graph.terms), unique=True)) if graph.terms else []
    return BlendedSpace(scores={term: draw(_SCORES) for term in terms},
                        provenance={term: draw(st.sampled_from([ANCHORED, EXPANDED, CONFABULATED])) for term in terms},
                        subgraph=graph)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(blends())
@example(BlendedSpace(scores={}, provenance={}, subgraph=OntologyGraph()))
def test_blend_writer_matches_line_writer(blend):
    """``save_blend`` writes the bytes the line-by-line writer wrote, and
    the file loads back as the blend."""
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.blend", Path(tmp) / "want.blend"
        save_blend(blend, got)
        reference_save_blend(blend, want)
        assert got.read_bytes() == want.read_bytes()
        again = load_blend(got)
    assert [(t, repr(s)) for t, s in again.scores.items()] == [
        (t, repr(float(blend.scores[t]))) for t in sorted(blend.scores)]
    assert again.provenance == blend.provenance
    assert repr(again.subgraph.edges()) == repr(blend.subgraph.edges())


def test_numpy_score_is_written_as_its_float(tmp_path):
    graph = OntologyGraph(dict.fromkeys("ab", "entity"), ["a"], ["b"], ["near"], [2])
    blend = BlendedSpace(scores={"a": 1.0, "b": np.float64(0.5)},
                         provenance={"a": ANCHORED, "b": CONFABULATED}, subgraph=graph)
    path = tmp_path / "numpy.blend"
    save_blend(blend, path)
    assert "score b 0.5 confabulated" in path.read_text().splitlines()
    assert load_blend(path).scores == {"a": 1.0, "b": 0.5}
