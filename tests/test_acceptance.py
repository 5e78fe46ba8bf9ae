"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from holoscene import hrr
from holoscene.blending import GenericSpace, candidate_scores, confabulate, transition_probability
from holoscene.memory import HolographicMemory
from holoscene.ontology import build_from_corpus, extract_dk
from holoscene.pipeline import load_config, run_pipeline

from test_blending import graph_from, oracle_accepted, oracle_transition, random_graph_case, scaled
from test_hrr import direct_convolve, direct_correlate
from test_ontology import oracle_counts

DATA = Path(__file__).parent / "data"
DEMO = Path(__file__).parents[1] / "src" / "holoscene" / "data" / "demo"


def report(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS — {message}")


def test_criterion_1_kernel_oracle_equivalence():
    started = time.perf_counter()
    for dim in (4, 8, 512):
        for seed in range(3):
            x = hrr.random_vector(seed, dim, term="x")
            y = hrr.random_vector(seed, dim, term="y")
            np.testing.assert_allclose(hrr.convolve(x, y), direct_convolve(x, y), atol=1e-9)
            np.testing.assert_allclose(hrr.correlate(x, y), direct_correlate(x, y), atol=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(1, f"kernels match direct sums at dims 4/8/512 within 1e-9 ({elapsed:.2f}s < 5s)")


def test_criterion_2_unbinding_and_cleanup(frozen_bounds):
    sims = []
    for seed in range(1000):
        x = hrr.random_vector(seed, 512, term="x")
        y = hrr.random_vector(seed, 512, term="y")
        x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
        sims.append(hrr.similarity(hrr.correlate(x, hrr.convolve(x, y)), y))
    mean = sum(sims) / len(sims)
    assert mean > 0.7
    assert mean == pytest.approx(frozen_bounds["unbind_cosine"]["mean"], abs=1e-6)

    book = hrr.Codebook([f"t{i:03d}" for i in range(100)], dim=512, seed=2024)
    rng = np.random.default_rng(2024)
    hits = 0
    for _ in range(1000):
        xi, yi = rng.choice(100, size=2, replace=False)
        x, y = book.terms[xi], book.terms[yi]
        got, _ = hrr.cleanup(hrr.correlate(book.vector(x), hrr.convolve(book.vector(x), book.vector(y))), book)
        hits += got == y
    accuracy = hits / 1000
    assert accuracy > 0.99
    assert accuracy == frozen_bounds["cleanup_100"]["accuracy"]
    report(2, f"mean unbind cosine {mean:.4f} > 0.7; cleanup accuracy {accuracy:.1%} > 99%")


def test_criterion_3_worked_example_all_seeds():
    vocab = ["woman", "wear", "clothing"] + [f"d{i:02d}" for i in range(17)]
    hits = 0
    for seed in range(100):
        book = hrr.Codebook(vocab, dim=512, seed=seed)
        trace = hrr.convolve(
            hrr.convolve(book.vector("woman"), book.vector("wear")), book.vector("clothing")
        )
        probe = hrr.convolve(book.vector("woman"), book.vector("wear"))
        got, _ = hrr.cleanup(hrr.correlate(probe, trace), book)
        hits += got == "clothing"
    assert hits == 100
    report(3, 'probing woman*wear against woman*wear*clothing returns "clothing" on 100/100 seeds')


def test_criterion_4_decay_law_and_reinforcement():
    def memory_with_node():
        mem = HolographicMemory(dim=64, seed=1, time_window=50, prune_threshold=0.1, base_decay=10.0)
        mem.observe([("a", 0), ("b", 0)])
        return mem

    boundary = 10 * math.log(10)
    assert 23 < boundary < 24

    plain = memory_with_node()
    assert plain.prune(23) == []
    assert "c0001" in plain.prune(24)

    boosted = memory_with_node()
    boosted.reinforce("c0001", 20)
    survivors = boosted.prune(41)
    assert "c0001" not in survivors and "c0001" in boosted.nodes
    extinction = None
    for tick in range(41, 80):
        if "c0001" in boosted.prune(tick):
            extinction = tick
            break
    assert extinction is not None and extinction > 40
    report(4, f"signature dies between ticks 23 and 24 (10*ln10 ~ {boundary:.3f}); "
              f"tick-20 reinforcement defers extinction to tick {extinction} > 40")


def test_criterion_5_dk_statistics_exact():
    corpus = [(DATA / "toy_corpus.txt").read_text()]
    sentence_count = sum(corpus[0].count(c) for c in ".!?")
    assert sentence_count == 20
    graph = build_from_corpus(corpus)
    dk = extract_dk(corpus, graph)
    k0, k1, k2, k3 = oracle_counts(corpus)
    assert dk.k1 == k1
    assert dk.k3 == k3
    assert dk.k0 == k0
    edge_weights = {rec.pair: rec.weight for rec in graph.edges()}
    assert edge_weights == k2
    report(5, f"k0/k1/k3 and the edge weights (k2) on the 20-sentence corpus equal the "
              f"brute-force oracle exactly ({len(k1)} words, {len(k2)} pairs, {len(k3)} triples)")


counter = {"cases": 0}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(random_graph_case())
def test_criterion_6_confabulation_matches_oracle(case):
    edges, k1, k3, generic = case
    graph, dk = graph_from(edges, k1, k3)
    source = sorted(generic)[0]
    for target in sorted(graph.nodes):
        got = transition_probability(graph, dk, source, target)
        want = oracle_transition(graph, dk, source, target)
        assert got == pytest.approx(want, abs=1e-12)
    blend = confabulate(GenericSpace(generic, frozenset()), graph, dk, threshold=0.3)
    accepted, _ = oracle_accepted(generic, graph, dk, 0.3)
    assert blend.by_provenance("confabulated") == accepted
    assert candidate_scores(generic, graph, dk) == candidate_scores(generic, *scaled(graph, dk, 10))
    counter["cases"] += 1


def test_criterion_6_report():
    assert counter["cases"] >= 200
    report(6, f"transition probabilities and accepted sets match exhaustive enumeration "
              f"within 1e-12 over {counter['cases']} random graphs; x10 scaling preserves scores")


def test_criterion_7_end_to_end_demo(tmp_path):
    started = time.perf_counter()
    config = load_config(DEMO / "demo.config")
    text = (DEMO / "demo.txt").read_text()

    outputs = []
    for n in range(2):
        blend, script, _ = run_pipeline(config, text, ontology_path=DEMO / "demo.graph")
        path = tmp_path / f"script{n}.json"
        script.save(path)
        outputs.append(path.read_bytes())
    elapsed = time.perf_counter() - started

    assert {"woman", "walk", "beach", "ball", "take"} <= blend.terms
    imagined = {"clothing", "ocean", "sky"}
    assert imagined <= blend.terms
    for term in imagined:
        assert blend.provenance[term] != "anchored"  # never mentioned in the text
    assert blend.by_provenance("confabulated")  # scoring added concepts of its own

    assert [s.action for s in script.scenes] == ["walk", "leave", "take"]
    assert [s.index for s in script.scenes] == [0, 1, 2]
    assert outputs[0] == outputs[1]
    assert elapsed < 10.0
    report(7, f"demo blend holds the five mentioned terms plus imagined "
              f"{sorted(imagined)}; confabulated {sorted(blend.by_provenance('confabulated'))}; "
              f"3 scenes in order; byte-identical reruns; {elapsed:.2f}s < 10s")
