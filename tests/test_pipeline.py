"""Pipeline orchestration tests: configuration, determinism, stage error
tagging and the memory side channel."""

import builtins
import math
import os
import random
from dataclasses import replace
from pathlib import Path

import pytest

from holoscene import blending, hrr
from holoscene.blending import load_blend, save_blend
from holoscene.errors import (
    ConfigError,
    GraphFormatError,
    HolosceneError,
    NoSharedTermError,
    StageError,
    UnparseableSentenceError,
)
from holoscene.lexicon import load_lexicon
from holoscene.memory import HolographicMemory
from holoscene.ontology import (
    OntologyGraph,
    TermObjectMap,
    ValueMap,
    build_from_corpus,
    extract_dk,
    load_graph,
    load_rewrite_rules,
    save_graph,
)
from holoscene.pipeline import (
    ENV_SEED,
    PipelineConfig,
    apply_env_overrides,
    build_ontology,
    decode_checks,
    load_config,
    read_corpus_dir,
    run_pipeline,
    scene_codebook,
)
from holoscene.scenario import Scene, SceneScript, load_actor_functions

from test_blending import added_in_order, reference_reach

DEMO = Path(__file__).parents[1] / "src" / "holoscene" / "data" / "demo"
DEMO_TEXT = (DEMO / "demo.txt").read_text()


def demo_config():
    return load_config(DEMO / "demo.config")


def neumaier_sum(values, start=0):
    """``sum`` as Python 3.12 adds a run of floats: the first added plainly
    to ``start``, the rest with Neumaier's compensation of the rounding
    error. Any other values are added as the built-in adds them."""
    values = list(values)
    if not values or not all(type(value) is float for value in values):
        return BUILTIN_SUM(values, start)
    total, compensation = start + values[0], 0.0
    for value in values[1:]:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


BUILTIN_SUM = builtins.sum


class TestConfig:
    def test_demo_file_values(self):
        config = demo_config()
        assert config.dim == 512
        assert config.seed == 7
        assert config.depth == 1
        assert config.threshold == 0.001
        assert config.relations == (
            "wears", "has-a", "part-of", "near", "located-on", "is-a",
            "attribute-of", "used-for",
        )

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.config"
        path.write_text("flux_capacitance = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(match_threshold=1.5)
        with pytest.raises(ConfigError):
            PipelineConfig(depth=-1)

    def test_empty_rules_path_means_no_rules(self, tmp_path):
        path = tmp_path / "story.config"
        path.write_text("rules_path =\n")
        assert load_config(path).rules_path is None

    def test_env_overrides_seed_and_paths(self):
        config = apply_env_overrides(
            PipelineConfig(), {ENV_SEED: "99", "HOLOSCENE_OBJECTS": "/tmp/objects.txt"}
        )
        assert config.seed == 99
        assert config.objects_path == "/tmp/objects.txt"

    def test_missing_equals_sign(self, tmp_path):
        path = tmp_path / "bad.config"
        path.write_text("dim 512\n")
        with pytest.raises(ConfigError):
            load_config(path)


class TestRunPipeline:
    def test_empty_input_rejected(self):
        with pytest.raises(HolosceneError):
            run_pipeline(demo_config(), "   ", ontology_path=DEMO / "demo.graph")

    def test_deterministic_outputs(self, tmp_path):
        config = demo_config()
        runs = []
        for n in range(2):
            blend, script, _ = run_pipeline(config, DEMO_TEXT, ontology_path=DEMO / "demo.graph")
            path = tmp_path / f"script{n}.json"
            script.save(path)
            runs.append((path.read_bytes(), blend.scores, blend.provenance))
        assert runs[0] == runs[1]

    def test_blend_bytes_do_not_depend_on_how_sum_rounds(self, tmp_path, monkeypatch):
        """The demo blend is the same whether ``sum`` adds floats one at a
        time (Python <= 3.11) or with Neumaier's compensation (3.12 on)."""
        blends = []
        for adder in (added_in_order, neumaier_sum):
            monkeypatch.setattr(builtins, "sum", adder)
            blend, _, _ = run_pipeline(demo_config(), DEMO_TEXT, ontology_path=DEMO / "demo.graph")
            monkeypatch.undo()
            save_blend(blend, tmp_path / "demo.blend")
            blends.append((tmp_path / "demo.blend").read_bytes())
        assert blends[0] == blends[1]

    def test_corpus_build_equals_committed_graph(self, tmp_path):
        from holoscene.ontology import save_graph

        graph, dk = build_ontology(DEMO / "corpus")
        rebuilt = tmp_path / "demo.graph"
        save_graph(graph, rebuilt, dk)
        assert rebuilt.read_bytes() == (DEMO / "demo.graph").read_bytes()

    def test_stage_errors_carry_stage_name(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("node sun entity\nedge sun moon related-to 1\n")
        with pytest.raises(StageError) as err:
            run_pipeline(demo_config(), DEMO_TEXT, ontology_path=bad)
        assert err.value.stage == "ontology"
        assert "2" in str(err.value)  # offending line number

    def test_graph_without_stats_is_rejected(self, tmp_path):
        bare = tmp_path / "bare.graph"
        bare.write_text("node woman entity\nnode walk action\nedge woman walk related-to 1\n")
        with pytest.raises(StageError) as err:
            run_pipeline(demo_config(), "A woman walks.", ontology_path=bare)
        assert "freq" in str(err.value)

    def test_unparseable_sentence_is_a_parse_stage_error(self):
        with pytest.raises(StageError) as err:
            run_pipeline(demo_config(), "The green door.", ontology_path=DEMO / "demo.graph")
        assert err.value.stage == "parse"

    def test_text_with_no_clause_is_a_parse_stage_error(self):
        with pytest.raises(StageError) as err:
            run_pipeline(demo_config(), "..", ontology_path=DEMO / "demo.graph")
        assert err.value.stage == "parse"
        assert isinstance(err.value.cause, UnparseableSentenceError)

    def test_clauses_sharing_no_term_fail_as_a_typed_error(self):
        text = "blue takes kicks on ball. The woman left is A"
        with pytest.raises(StageError) as err:
            run_pipeline(PipelineConfig(), text, ontology_path=DEMO / "demo.graph")
        assert isinstance(err.value.cause, NoSharedTermError)
        assert isinstance(err.value.cause, ValueError)
        assert "share no term" in str(err.value)

    def test_vocabulary_gap_is_a_spaces_stage_error(self):
        with pytest.raises(StageError) as err:
            run_pipeline(
                demo_config(), "A zeppelin flies over the beach.", ontology_path=DEMO / "demo.graph"
            )
        assert err.value.stage == "spaces"
        assert "zeppelin" in str(err.value)

    def test_diagnostics_cover_stages_and_parses(self):
        _, _, diagnostics = run_pipeline(demo_config(), DEMO_TEXT, ontology_path=DEMO / "demo.graph")
        for stage in ("ontology", "parse", "spaces", "generic", "confabulate", "scenario"):
            assert stage in diagnostics.timings
        assert len(diagnostics.parses) == 3
        assert diagnostics.counts["sentences"] == 3
        assert diagnostics.decode_checks  # holographic round-trip ran
        for check in diagnostics.decode_checks:
            assert check["recovered"] == check["expected"]

    def test_demo_decode_checks_are_pinned(self):
        _, _, diagnostics = run_pipeline(demo_config(), DEMO_TEXT, ontology_path=DEMO / "demo.graph")
        assert [(c["probe"], c["recovered"], c["similarity"]) for c in diagnostics.decode_checks] == [
            ("woman*walk", "beach", float.fromhex("0x1.f964646725cc4p-2")),
            ("woman*take", "ball", float.fromhex("0x1.182af16160ab3p-1")),
        ]

    def test_walk_counter_counts_the_reference_paths(self, monkeypatch):
        generic_sets = []
        walk = blending.candidate_scores

        def spy(generic_terms, *args, **kwargs):
            generic_sets.append(sorted(generic_terms))
            return walk(generic_terms, *args, **kwargs)

        monkeypatch.setattr(blending, "candidate_scores", spy)
        config = demo_config()
        _, _, diagnostics = run_pipeline(config, DEMO_TEXT, ontology_path=DEMO / "demo.graph")
        graph, dk = load_graph(DEMO / "demo.graph")
        paths = []
        for source in generic_sets[0]:
            reference_reach(graph, dk, source, config.max_path, config.mix, paths=paths)
        assert len(generic_sets) == 1
        assert diagnostics.counts["walk_paths"] == len(paths) == 3441

    def test_a_bug_in_a_stage_leaves_unwrapped(self, monkeypatch):
        def broken(spaces):
            raise RuntimeError("a bug in the generic stage")

        monkeypatch.setattr(blending, "generic_space", broken)
        with pytest.raises(RuntimeError, match="a bug in the generic stage") as err:
            run_pipeline(demo_config(), DEMO_TEXT, ontology_path=DEMO / "demo.graph")
        assert err.type is RuntimeError

    def test_only_the_blend_builds_a_subgraph(self, monkeypatch):
        calls = []
        induced = OntologyGraph.induced

        def counting(graph, terms):
            calls.append(len(graph))
            return induced(graph, terms)

        monkeypatch.setattr(OntologyGraph, "induced", counting)
        run_pipeline(demo_config(), DEMO_TEXT, ontology_path=DEMO / "demo.graph")
        assert len(calls) == 2  # confabulate, then absorb_anchored

    def test_memory_observes_each_clause(self, tmp_path):
        _, _, diagnostics = run_pipeline(demo_config(), DEMO_TEXT, ontology_path=DEMO / "demo.graph")
        mem = diagnostics.memory
        assert mem.clock == 2  # three clauses, ticks 0..2
        snapshot = tmp_path / "memory.json"
        mem.save(snapshot)
        again = HolographicMemory.load(snapshot)
        assert set(again.nodes) == set(mem.nodes)

    def test_alternate_demo_text_runs_end_to_end(self):
        # existential copula + pronoun variant of the demo story
        text = (DEMO / "demo_alt.txt").read_text()
        blend, script, _ = run_pipeline(demo_config(), text, ontology_path=DEMO / "demo.graph")
        assert [s.action for s in script.scenes] == ["walk", "be", "kick"]
        assert script.scenes[1].active == "ball"  # "there was a blue ball"
        assert script.scenes[2].active == "woman"  # "she kicks the ball"
        assert script.scenes[1].asset_bindings["be"] == "clip:idle_01"
        assert {"clothing", "ocean", "sky"} <= blend.terms

    def test_conjoined_verbs_make_two_scenes(self):
        text = "A woman takes the ball and kicks it."
        _, script, _ = run_pipeline(demo_config(), text, ontology_path=DEMO / "demo.graph")
        assert [s.action for s in script.scenes] == ["take", "kick"]
        assert script.scenes[1].active == "woman"
        assert script.scenes[1].passive == "ball"

    def test_rewrite_rules_feed_expansion(self, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("beach -> girl\n")
        from dataclasses import replace

        config = replace(demo_config(), rules_path=str(rules))
        blend, _, _ = run_pipeline(config, DEMO_TEXT, ontology_path=DEMO / "demo.graph")
        assert "girl" in blend.terms  # pulled in via the rule during expansion


NOUNS = ("woman", "girl", "beach", "sand", "ocean", "sky", "sun", "horizon", "clothing", "body",
         "hand", "leg", "ball")
VERBS = {"walk": ("walks", "walked"), "take": ("takes", "taken"), "kick": ("kicks", "kicked"),
         "see": ("sees", "seen"), "leave": ("leaves", "left")}
ADJECTIVES = ("blue", "red", "big", "small")
FILLERS = ("cup", "tree", "rock", "shell", "boat", "wave", "cloud", "bird", "towel", "chair", "kite",
           "bottle", "rope", "flag", "stone", "crab", "net", "lamp", "wall", "road")


def generated_story(tmp_path, seed):
    """A seeded co-occurrence corpus over the demo vocabulary and filler
    nouns, with one labelled fact per noun, built into a graph file; an
    object table that binds every graph term; and an eight-clause story
    that shares an actor, a place and an object, in the demo text's shape.
    Returns the config
    (the demo's, walking one step, so the blend is a small part of the
    graph), the story and the graph path."""
    rng = random.Random(seed)
    nouns = NOUNS + FILLERS
    deck = [w for w in (*nouns, *(forms[0] for forms in VERBS.values()), *ADJECTIVES)
            for _ in range(4)]
    rng.shuffle(deck)
    deck += deck[: -len(deck) % 3]
    sentences = [f"The {a} with the {b} and the {c}." for a, b, c in zip(*[iter(deck)] * 3)]
    order = rng.sample(nouns, len(nouns))
    facts = ("The {a} has a {b}.", "The {a} is near the {b}.", "The {a} on the {b}.")
    sentences += [rng.choice(facts).format(a=a, b=b) for a, b in zip(order, order[1:] + order[:1])]
    rng.shuffle(sentences)
    documents = [" ".join(sentences[i : i + 6]) for i in range(0, len(sentences), 6)]
    graph = build_from_corpus(documents)
    graph_path = tmp_path / "story.graph"
    save_graph(graph, graph_path, extract_dk(documents, graph))
    objects = tmp_path / "story.objects"
    objects.write_text("".join(f"{term} asset:{term}_01\n" for term in graph.terms))
    actor = rng.choice(("woman", "girl"))
    place, obj, *others = rng.sample([n for n in NOUNS if n not in ("woman", "girl")], 8)
    verbs = [rng.choice(sorted(VERBS)) for _ in range(8)]
    lines = [f"The {actor} {VERBS[verbs[0]][0]} the {obj} on the {place}.",
             f"The {rng.choice(ADJECTIVES)} {obj} was {VERBS[verbs[1]][1]} on the {place}."]
    lines += [f"The {actor} {VERBS[verb][0]} the {other} on the {place}."
              for verb, other in zip(verbs[2:-1], others)]
    lines.append(f"The {actor} {VERBS[verbs[-1]][0]} this {obj}.")
    return replace(demo_config(), objects_path=str(objects), max_path=1), " ".join(lines), graph_path


def graph_wide_checks(script, graph, config):
    """The decode checks against a codebook of every graph term and label."""
    book = hrr.Codebook([*graph.terms, *graph.labels], dim=config.dim, seed=config.seed)
    return decode_checks(script, book)


class TestDecodeChecks:
    """The decode codebook holds the blend's concepts, not the whole graph,
    and every check comes out as against a codebook of the whole graph."""

    def test_demo_codebook_size_is_pinned(self):
        _, _, diagnostics = run_pipeline(demo_config(), DEMO_TEXT, ontology_path=DEMO / "demo.graph")
        assert diagnostics.counts["decode_entries"] == 20
        assert any(line.startswith("decode scene ") for line in diagnostics.summary_lines())
        assert "decode_entries=20" in diagnostics.summary_lines()[-1]

    def test_demo_checks_equal_a_graph_wide_codebook(self):
        config = demo_config()
        _, script, diagnostics = run_pipeline(config, DEMO_TEXT, ontology_path=DEMO / "demo.graph")
        graph, _ = load_graph(DEMO / "demo.graph")
        assert diagnostics.counts["decode_entries"] < len(graph.terms) + len(graph.labels)
        assert diagnostics.decode_checks == graph_wide_checks(script, graph, config)

    def test_generated_story_checks_equal_a_graph_wide_codebook(self, tmp_path):
        config, text, graph_path = generated_story(tmp_path, seed=3)
        _, script, diagnostics = run_pipeline(config, text, ontology_path=graph_path)
        graph, _ = load_graph(graph_path)
        assert len(diagnostics.decode_checks) >= 6
        assert diagnostics.counts["decode_entries"] < len(graph.terms) + len(graph.labels)
        assert diagnostics.decode_checks == graph_wide_checks(script, graph, config)

    def test_scene_term_that_is_a_label_outside_the_blend_is_still_checked(self):
        # "walk" is only the label of an edge the blend does not hold; "be"
        # is no graph concept at all, so its scene is skipped either way
        graph = OntologyGraph(dict.fromkeys(["beach", "sky", "sun", "woman"], "entity"),
                              ["woman", "sky"], ["beach", "sun"], ["near", "walk"], [1.0, 1.0])
        blend = blending.BlendedSpace(scores={"beach": 1.0, "woman": 1.0},
                                      provenance={"beach": "anchored", "woman": "anchored"},
                                      subgraph=graph.induced(["beach", "woman"]))
        scenes = [Scene(index=i, action=action, active="woman", passive=None, location="beach",
                        attributes=(), actors_present=("woman",), dressing=(), effect=None,
                        asset_bindings={})
                  for i, action in enumerate(["walk", "be"])]
        script = SceneScript(scenes=tuple(scenes))
        assert "walk" not in blend.subgraph.labels
        book = scene_codebook(script, blend, graph, dim=64, seed=7)
        assert book.terms == ("beach", "near", "walk", "woman")
        checks = decode_checks(script, book)
        assert [(c["index"], c["probe"], c["expected"]) for c in checks] == [(0, "woman*walk", "beach")]
        assert checks == graph_wide_checks(script, graph, PipelineConfig(dim=64, seed=7))


class TestCorpusDir:
    def test_reads_sorted_files(self, tmp_path):
        (tmp_path / "b.txt").write_text("The sun shines.")
        (tmp_path / "a.txt").write_text("The woman walks.")
        docs = read_corpus_dir(tmp_path)
        assert docs == ["The woman walks.", "The sun shines."]

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(HolosceneError):
            read_corpus_dir(tmp_path)


@pytest.mark.parametrize(
    "read",
    [
        load_config,
        lambda path: read_corpus_dir(path.parent),
        load_graph,
        load_rewrite_rules,
        TermObjectMap.load,
        ValueMap.load,
        load_blend,
        load_actor_functions,
        lambda path: load_lexicon(stopwords=path),
    ],
    ids=["config", "corpus", "graph", "rules", "objects", "values", "blend", "functions",
         "lexicon"],
)
def test_every_reader_names_the_line_that_is_not_utf8(tmp_path, read):
    path = tmp_path / "input.txt"
    path.write_bytes(b"# first line\nterm \xff\n")
    with pytest.raises(GraphFormatError, match="input.txt:2: not UTF-8 text"):
        read(path)
