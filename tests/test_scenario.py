"""Scenario planning tests against the demo fixtures and the hand-written
gold scene list."""

import json
from pathlib import Path

import pytest

from holoscene.blending import BlendedSpace
from holoscene.errors import UnmappedTermError
from holoscene.ontology import OntologyGraph, TermObjectMap, ValueMap
from holoscene.pipeline import PipelineConfig, load_config, run_pipeline
from holoscene.scenario import load_actor_functions, plan_scenario
from holoscene.textfilter import UniversalStructure, parse_text

DATA = Path(__file__).parent / "data"
DEMO = Path(__file__).parents[1] / "src" / "holoscene" / "data" / "demo"
GOLD_SCENES = json.loads((DATA / "demo_scenes.json").read_text())


@pytest.fixture(scope="module")
def demo_run():
    config = load_config(DEMO / "demo.config")
    text = (DEMO / "demo.txt").read_text()
    return run_pipeline(config, text, ontology_path=DEMO / "demo.graph")


def simple_blend(terms):
    return BlendedSpace(
        scores={t: 1.0 for t in terms},
        provenance={t: "anchored" for t in terms},
        subgraph=OntologyGraph(dict.fromkeys(terms, "entity")),
    )


def simple_maps(terms):
    return TermObjectMap({t: f"asset:{t}" for t in terms}), ValueMap({})


class TestDemoScenes:
    def test_scenes_match_gold(self, demo_run):
        _, script, _ = demo_run
        got = [scene.to_record() for scene in script.scenes]
        for record, want in zip(got, GOLD_SCENES):
            for key, value in want.items():
                assert record[key] == value, f"scene {want['index']} field {key}"

    def test_scene_count_equals_clause_count(self, demo_run):
        _, script, _ = demo_run
        assert len(script.scenes) == 3

    def test_dressing_includes_unmentioned_scenery(self, demo_run):
        _, script, _ = demo_run
        for scene in script.scenes:
            assert {"clothing", "ocean", "sky"} <= set(scene.dressing)

    def test_every_scene_term_is_bound(self, demo_run):
        _, script, _ = demo_run
        tom = TermObjectMap.load(DEMO / "demo.objects")
        for scene in script.scenes:
            terms = set(scene.dressing) | set(scene.actors_present) | {scene.action}
            for term in (scene.passive, scene.location):
                if term is not None:
                    terms.add(term)
            for term in terms:
                assert term in scene.asset_bindings
                assert scene.asset_bindings[term] == tom.lookup(term)

    def test_unknown_agent_scene_has_no_agent_asset(self, demo_run):
        _, script, _ = demo_run
        scene = script.scenes[1]
        assert scene.active is None
        assert scene.asset_bindings  # dressing etc. still bound

    def test_effects_come_from_function_table(self, demo_run):
        _, script, _ = demo_run
        assert script.scenes[0].effect == {
            "function": "walk",
            "output": "position",
            "type": "position",
        }
        assert script.scenes[2].effect["output"] == "hand_position"


class TestPlanning:
    def test_single_sentence_single_scene(self):
        structures = parse_text("A woman walks on the beach.")
        blend = simple_blend({"woman", "walk", "beach"})
        tom, vm = simple_maps({"woman", "walk", "beach"})
        script = plan_scenario(blend, structures, tom, vm)
        assert len(script.scenes) == 1

    def test_reversed_input_reverses_scenes(self):
        text = "A woman walks on the beach. The girl kicks the ball."
        reverse = "The girl kicks the ball. A woman walks on the beach."
        terms = {"woman", "walk", "beach", "girl", "kick", "ball"}
        tom, vm = simple_maps(terms)
        actions = [
            s.action for s in plan_scenario(simple_blend(terms), parse_text(text), tom, vm).scenes
        ]
        reversed_actions = [
            s.action
            for s in plan_scenario(simple_blend(terms), parse_text(reverse), tom, vm).scenes
        ]
        assert actions == list(reversed(reversed_actions))

    def test_actor_persists_until_replaced(self):
        text = "A woman walks on the beach. The ball was left on the beach. The girl kicks the ball."
        terms = {"woman", "walk", "beach", "ball", "leave", "girl", "kick"}
        tom, vm = simple_maps(terms)
        script = plan_scenario(simple_blend(terms), parse_text(text), tom, vm)
        assert script.scenes[0].actors_present == ("woman",)
        assert script.scenes[1].actors_present == ("woman",)  # unknown agent keeps her
        assert script.scenes[2].actors_present == ("girl",)  # replacement drops her

    def test_unmapped_term_is_named(self):
        structures = parse_text("A woman walks on the beach.")
        blend = simple_blend({"woman", "walk", "beach"})
        tom = TermObjectMap({"woman": "asset:w", "walk": "clip:w"})
        with pytest.raises(UnmappedTermError) as err:
            plan_scenario(blend, structures, tom, ValueMap({}))
        assert "beach" in str(err.value)

    def test_empty_blend_rejected(self):
        structures = parse_text("A woman walks.")
        empty = simple_blend(set())
        with pytest.raises(ValueError):
            plan_scenario(empty, structures, *simple_maps(set()))

    def test_structure_terms_must_be_in_blend(self):
        structures = parse_text("A woman walks on the beach.")
        blend = simple_blend({"woman", "walk"})
        with pytest.raises(ValueError) as err:
            plan_scenario(blend, structures, *simple_maps({"woman", "walk"}))
        assert "beach" in str(err.value)

    def test_unknown_attribute_value_falls_back_to_term(self):
        structures = parse_text("The naked man swims in the ocean.")
        terms = {"man", "swim", "ocean"}
        blend = simple_blend(terms | {"naked"})
        tom, _ = simple_maps(terms)
        script = plan_scenario(blend, structures, tom, ValueMap({}))
        assert script.scenes[0].attributes == (("man", "naked", "naked"),)


class TestActorFunctions:
    def test_demo_table_loads(self):
        functions = load_actor_functions(DEMO / "demo.functions")
        assert functions["take"].bound_args == (("actor", "human"), ("object", "prop"))
        assert functions["take"].free_output == ("hand_position", "position")

    def test_single_free_output_enforced(self, tmp_path):
        bad = tmp_path / "f.txt"
        bad.write_text("kick actor:human -> a:x,b:y\n")
        with pytest.raises(ValueError):
            load_actor_functions(bad)

    def test_output_required(self, tmp_path):
        bad = tmp_path / "f.txt"
        bad.write_text("kick actor:human ->\n")
        with pytest.raises(ValueError):
            load_actor_functions(bad)
