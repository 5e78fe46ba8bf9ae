"""Scenario planning: turn parsed structures plus a blended space into an
ordered scene script.

The script is a JSON-serializable record, one scene per parsed clause in
source order. Actors persist across consecutive scenes until a different
actor takes over, blended-only terms ride along as scene dressing, fuzzy
attributes resolve to numeric values where the value map knows them, and
every entity, action and dressing term is bound to a renderable asset id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .blending import BlendedSpace
from .errors import GraphFormatError, UnmappedTermError, add_once, read_lines
from .lexicon import Lexicon, default_lexicon
from .ontology import TermObjectMap, ValueMap


@dataclass(frozen=True)
class ActorFunction:
    """An action's binding pattern: bound arguments in, one free output."""

    name: str
    bound_args: tuple  # (arg name, semantic type) pairs
    free_output: tuple  # (name, semantic type)


def load_actor_functions(path) -> dict:
    """Parse a functions file: ``name arg:type,arg:type -> out:type``."""
    functions = {}
    for line_no, line in read_lines(path):
        head, _, out = line.partition("->")
        if not out.strip():
            raise GraphFormatError(path, line_no, f"function line lacks a free output: {line!r}")
        outs = out.strip().split(",")
        if len(outs) != 1:
            raise GraphFormatError(path, line_no, f"exactly one free output required: {line!r}")
        name, _, args = head.strip().partition(" ")
        if not name:
            raise GraphFormatError(path, line_no, f"function line lacks a name: {line!r}")
        bound = tuple(_typed(piece, path, line_no) for piece in args.split(",") if piece.strip())
        function = ActorFunction(name=name, bound_args=bound, free_output=_typed(outs[0], path, line_no))
        add_once(functions, name, function, path, line_no)
    return functions


def _typed(piece: str, path, line_no: int) -> tuple:
    """A functions file's ``name:type`` pair; either side empty or holding
    whitespace is a :class:`GraphFormatError` at the line."""
    name, _, kind = piece.strip().partition(":")
    if name.split() != [name] or kind.split() != [kind]:
        raise GraphFormatError(path, line_no, f"argument or output is not name:type: {piece.strip()!r}")
    return name, kind


@dataclass(frozen=True)
class Scene:
    index: int
    action: str
    active: str | None
    passive: str | None
    location: str | None
    attributes: tuple  # (noun, adjective, numeric value or the adjective)
    actors_present: tuple
    dressing: tuple
    effect: dict | None
    asset_bindings: dict

    def to_record(self) -> dict:
        return {
            "index": self.index,
            "action": self.action,
            "active": self.active,
            "passive": self.passive,
            "location": self.location,
            "attributes": [list(a) for a in self.attributes],
            "actors_present": list(self.actors_present),
            "dressing": list(self.dressing),
            "effect": self.effect,
            "asset_bindings": dict(sorted(self.asset_bindings.items())),
        }


@dataclass(frozen=True)
class SceneScript:
    scenes: tuple

    def to_record(self) -> dict:
        return {
            "version": 1,
            "scene_count": len(self.scenes),
            "scenes": [scene.to_record() for scene in self.scenes],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_record(), indent=2, sort_keys=True) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.dumps(), encoding="utf-8")


def plan_scenario(
    blend: BlendedSpace,
    structures,
    objects: TermObjectMap,
    values: ValueMap,
    functions: dict | None = None,
    lexicon: Lexicon | None = None,
) -> SceneScript:
    """One scene per structure, in order, dressed with the blended-only
    terms and fully bound to assets."""
    structures = list(structures)
    if not blend.terms:
        raise ValueError("cannot plan a scenario over an empty blended space")
    lex = lexicon or default_lexicon()
    functions = functions or {}

    mentioned = set()
    for structure in structures:
        mentioned.update(structure.terms())
    missing = sorted(mentioned - blend.terms)
    if missing:
        raise ValueError(f"structure terms missing from the blend: {', '.join(missing)}")

    attribute_words = {adj for s in structures for _, adj in s.attributes}
    dressing = tuple(
        sorted(
            term
            for term in blend.terms - mentioned
            if blend.subgraph.nodes.get(term) != "attribute"
        )
    )

    scenes = []
    carried: str | None = None
    for index, structure in enumerate(structures):
        active = structure.active_actor
        if active is not None:
            carried = active
        actors = tuple(t for t in (active or carried,) if t is not None)

        attributes = []
        for noun, adjective in structure.attributes:
            attr_type = lex.adjectives.get(adjective, "quality")
            if (adjective, attr_type) in values:
                attributes.append((noun, adjective, values.lookup(adjective, attr_type)))
            else:
                attributes.append((noun, adjective, adjective))

        needs_asset = set(actors) | set(dressing)
        needs_asset.add(structure.action)
        for term in (structure.passive_actor, structure.location):
            if term is not None:
                needs_asset.add(term)
        needs_asset -= attribute_words
        bindings = {term: objects.lookup(term) for term in sorted(needs_asset)}

        function = functions.get(structure.action)
        effect = None
        if function is not None:
            effect = {
                "function": function.name,
                "output": function.free_output[0],
                "type": function.free_output[1],
            }

        scenes.append(
            Scene(
                index=index,
                action=structure.action,
                active=active,
                passive=structure.passive_actor,
                location=structure.location,
                attributes=tuple(attributes),
                actors_present=actors,
                dressing=dressing,
                effect=effect,
                asset_bindings=bindings,
            )
        )
    return SceneScript(scenes=tuple(scenes))
