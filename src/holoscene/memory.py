"""Decaying concept memory.

Concepts emerge from co-occurring signals, carry time-stamped signatures
whose intensity decays exponentially, get reinforced when they take part
in new assemblies, and vanish once every signature has faded below a
threshold. The decay time of a signature grows with the node's assembly
connectivity, so well-connected concepts outlive one-off noise.

Each fact is held once: a node's connection count is the number of its
assembly links, and its parents are the reverse of the other nodes'
members, kept as an index for :meth:`HolographicMemory.prune`. A node's
vector is derived from ``(seed, dim)`` and the node's recipe, the JSON
value that says how it was made:

- ``"<id>"`` is ``random_vector(seed, dim, id)``, a sensory node's draw;
- ``{"sum": [[recipe, offset], ...]}`` is the normalised sum of the
  vectors, each rolled by its offset (an observed pattern);
- ``{"bind": [recipe, recipe, ...]}`` is the normalised convolution chain
  (an assembly). It nests its members' recipes, because a member may be
  pruned after it.

A snapshot (version 4) is compact JSON holding the memory's scalar
settings, the nodes, each with its recipe, members and signatures, and
``"vectors_sha256"``, the SHA-256 of every node's vector bytes in sorted
id order. The loader rebuilds each vector from its recipe with the same
helpers that :meth:`HolographicMemory.observe` and
:meth:`HolographicMemory.assemble` use, and each node's parents from the
members. So a snapshot loads only where NumPy makes the same bits for the
draw, the sum and the FFT: anywhere else the digest differs and the file
is refused. A version other than 4, a missing key, a value of the wrong
kind, a malformed recipe or one nested too deep, a member that repeats,
names its own node or names no node, a signature recorded after the clock
or a digest that does not match is a :class:`GraphFormatError` naming the
file.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import reprlib
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import hrr
from .errors import (
    GraphFormatError,
    StaleSignalError,
    TimeTravelError,
    UnknownTermError,
    read_text,
)


class Level(str, Enum):
    SENSORY = "sensory"
    PRIMARY = "primary"
    SECONDARY = "secondary"
    HIGHER = "higher"

    @staticmethod
    def above(levels) -> "Level":
        """The level after the highest of ``levels`` (the top one is its own)."""
        order = list(Level)
        return order[min(max(map(order.index, levels)) + 1, len(order) - 1)]


@dataclass
class Signature:
    """One recorded occurrence of a concept's pattern."""

    recorded_at: int
    initial_intensity: float
    decay_time: float


def intensity(sig: Signature, now: int) -> float:
    """Decayed intensity S1 * exp(-(now - recorded_at) / d)."""
    if now < sig.recorded_at:
        raise TimeTravelError(f"tick {now} precedes recording tick {sig.recorded_at}")
    return sig.initial_intensity * math.exp(-(now - sig.recorded_at) / sig.decay_time)


@dataclass
class ConceptNode:
    id: str
    level: Level
    vector: hrr.Vector
    recipe: str | dict  # how ``vector`` is made; see the module docstring
    signatures: list[Signature] = field(default_factory=list)
    assembly_parents: set[str] = field(default_factory=set)  # the nodes that list it as a member
    assembly_members: list[str] = field(default_factory=list)

    @property
    def connection_count(self) -> int:
        return len(self.assembly_members) + len(self.assembly_parents)


class HolographicMemory:
    """Single-writer store of concept nodes with a monotone clock."""

    def __init__(
        self,
        dim: int = 512,
        seed: int = 0,
        time_window: int = 5,
        prune_threshold: float = 0.1,
        match_threshold: float = 0.8,
        base_decay: float = 10.0,
        base_intensity: float = 1.0,
    ):
        if time_window < 1 or prune_threshold < 0 or not (0 < match_threshold < 1) or not base_decay > 0:
            raise ValueError("invalid memory parameters")
        self.dim = dim
        self.seed = seed
        self.time_window = time_window
        self.prune_threshold = prune_threshold
        self.match_threshold = match_threshold
        self.base_decay = base_decay
        self.base_intensity = base_intensity
        self.clock = 0
        self.nodes: dict[str, ConceptNode] = {}
        self._counter = 0

    # -- internals ---------------------------------------------------------

    def _advance(self, now: int) -> None:
        if now < self.clock:
            raise TimeTravelError(f"tick {now} precedes clock {self.clock}")
        self.clock = now

    def _decay_time(self, node: ConceptNode) -> float:
        # connectivity stretches decay: d = d0 * (1 + connections)
        return self.base_decay * (1 + node.connection_count)

    def _new_id(self) -> str:
        """The next ``c<counter>`` id that names no living node."""
        while True:
            self._counter += 1
            node_id = f"c{self._counter:04d}"
            if node_id not in self.nodes:
                return node_id

    def _require(self, node_id: str) -> ConceptNode:
        node = self.nodes.get(node_id)
        if node is None:
            raise UnknownTermError(f"no living concept {node_id!r}", [node_id])
        return node

    def _record(self, node: ConceptNode, now: int) -> None:
        node.signatures.append(Signature(now, self.base_intensity, self._decay_time(node)))

    def _sensory(self, sensory_id: str, tick: int) -> ConceptNode:
        node = self.nodes.get(sensory_id)
        if node is None:
            vector = hrr.random_vector(self.seed, self.dim, term=sensory_id)
            node = self.nodes[sensory_id] = ConceptNode(sensory_id, Level.SENSORY, vector, sensory_id)
        self._record(node, tick)
        return node

    def _best_match(self, vector: hrr.Vector, level: Level | None = None):
        """The id of the node (on ``level``, if given) nearest ``vector`` by
        cosine similarity, the smaller id of a tie, and that similarity;
        ``(None, -2.0)`` if there is no such node. All nodes are scored in
        one product, as :func:`hrr.cleanup` scores a codebook."""
        ids = sorted(node_id for node_id, node in self.nodes.items()
                     if level is None or node.level is level)
        if not ids:
            return None, -2.0
        return hrr._nearest(vector, np.array([self.nodes[node_id].vector for node_id in ids]), ids)

    def _recall_or_add(self, vector: hrr.Vector, recipe: dict, level: Level, members=()) -> ConceptNode:
        """The node nearest ``vector`` if its similarity clears
        ``match_threshold``, else a new node on ``level`` made by
        ``recipe``. An assembly (a non-empty ``members``) recalls only a
        node on its own level; each member of a new one is linked to it as
        its parent."""
        match_id, sim = self._best_match(vector, level if members else None)
        if match_id is not None and sim >= self.match_threshold:
            return self.nodes[match_id]
        node = ConceptNode(self._new_id(), level, vector, recipe, assembly_members=[m.id for m in members])
        self.nodes[node.id] = node
        for m in members:
            m.assembly_parents.add(node.id)
        return node

    # -- operations --------------------------------------------------------

    def observe(self, activations) -> list[str]:
        """Record a set of (sensory_id, tick) activations.

        The encoded activation pattern either recalls a matching concept
        (appending a fresh signature next to the previously stored ones) or,
        when it differs enough from everything known, becomes a new node
        one level up, whose recipe sums each activation's recipe with its
        tick offset. Returns the affected concept ids.
        """
        activations = sorted(set(activations))
        if not activations:
            return []
        ticks = [t for _, t in activations]
        now = max(self.clock, max(ticks))
        stale = [f"{s}@{t}" for s, t in activations if t < now - self.time_window]
        if stale:
            raise StaleSignalError(
                f"activations outside window [{now - self.time_window}, {now}]: {stale}"
            )
        if min(ticks) < 0:
            raise StaleSignalError("negative tick")
        self._advance(now)

        base = min(ticks)
        nodes = [self._sensory(sensory_id, tick) for sensory_id, tick in activations]
        affected = [node.id for node in nodes]
        # a shift encodes the firing offset, so sequences differ from
        # pure co-occurrence while repeats of a pattern still match
        offsets = [tick - base for _, tick in activations]
        node = self._recall_or_add(_rolled_sum([n.vector for n in nodes], offsets),
                                   {"sum": [[n.recipe, k] for n, k in zip(nodes, offsets)]},
                                   Level.above([n.level for n in nodes]))
        if node.id not in affected:  # a sensory self-match is already recorded
            self._record(node, now)
            affected.append(node.id)
        return affected

    def assemble(self, member_ids, now: int) -> str:
        """Bind living concepts into a higher-level node.

        Re-assembling the same members recalls the existing node instead of
        duplicating it; a new node's recipe binds its members' recipes.
        Either way every member is reinforced.
        """
        self._advance(now)
        unique = sorted(set(member_ids))
        if len(unique) < 2:
            raise ValueError("assembly requires at least two distinct members")
        members = [self._require(m) for m in unique]

        node = self._recall_or_add(_bound([m.vector for m in members]), {"bind": [m.recipe for m in members]},
                                   Level.above([m.level for m in members]), members)
        self._record(node, now)
        for m in members:
            self.reinforce(m.id, now)
        return node.id

    def reinforce(self, node_id: str, now: int) -> None:
        """Append a full-intensity signature; decay time reflects current
        connectivity."""
        self._advance(now)
        node = self._require(node_id)
        self._record(node, now)

    def prune(self, now: int) -> list[str]:
        """Drop faded signatures, then nodes with none left."""
        self._advance(now)
        removed = []
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            node.signatures = [
                s for s in node.signatures if intensity(s, now) >= self.prune_threshold
            ]
            if not node.signatures:
                removed.append(node_id)
        for node_id in removed:
            node = self.nodes.pop(node_id)
            for parent_id in node.assembly_parents:
                parent = self.nodes.get(parent_id)
                if parent is not None:
                    parent.assembly_members = [
                        m for m in parent.assembly_members if m != node_id
                    ]
            for member_id in node.assembly_members:
                member = self.nodes.get(member_id)
                if member is not None:
                    member.assembly_parents.discard(node_id)
        return removed

    # -- serialization -----------------------------------------------------

    def snapshot(self) -> dict:
        """The version 4 snapshot: the scalar settings, the nodes with their
        recipes, and the digest of the vectors they make. It shares no list
        or dict with the memory, so a change to it leaves the memory as is."""
        nodes = [{"id": n.id, "level": n.level.value, "assembly_members": list(n.assembly_members),
                  "recipe": _copied(n.recipe), "signatures": [dict(vars(s)) for s in n.signatures]}
                 for _, n in sorted(self.nodes.items())]
        return {"version": 4, "dim": self.dim, "seed": self.seed, "time_window": self.time_window,
                "prune_threshold": self.prune_threshold, "match_threshold": self.match_threshold,
                "base_decay": self.base_decay, "base_intensity": self.base_intensity, "clock": self.clock,
                "counter": self._counter, "nodes": nodes, "vectors_sha256": self._vectors_sha256()}

    def _vectors_sha256(self) -> str:
        """The SHA-256 of every node's vector bytes in sorted id order."""
        digest = hashlib.sha256()
        for node_id in sorted(self.nodes):
            digest.update(self.nodes[node_id].vector.tobytes())
        return digest.hexdigest()

    def save(self, path) -> None:
        # json.dumps without indent runs the C encoder; json.dump would
        # stream through the pure-Python one
        text = json.dumps(self.snapshot(), sort_keys=True, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")

    @classmethod
    def load(cls, path) -> "HolographicMemory":
        """Read a snapshot written by :meth:`save`. Text that is not UTF-8
        or not JSON, a version other than 4, a missing key, a value of the
        wrong kind, a node id listed twice, a malformed recipe or one nested
        too deep, a member that repeats, names its own node or names no
        node, a signature recorded after the clock and a ``vectors_sha256``
        that does not match the vectors the recipes make raise
        :class:`GraphFormatError` naming the file."""
        text = read_text(path)
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(path, exc.lineno, f"not a JSON snapshot: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:  # an integer too long, or nesting too deep
            raise GraphFormatError(path, None, f"not a JSON snapshot: {exc}") from None
        if not isinstance(data, dict):
            raise GraphFormatError(path, None, "bad snapshot value: not a JSON object")
        try:
            return cls._from_snapshot(data)
        except KeyError as exc:
            raise GraphFormatError(path, None, f"snapshot lacks key {exc.args[0]!r}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise GraphFormatError(path, None, f"bad snapshot value: {exc}") from None

    @classmethod
    def _from_snapshot(cls, data: dict) -> "HolographicMemory":
        """The memory a version 4 snapshot describes; the version is read
        before any other key. A missing key raises ``KeyError``; a value of
        the wrong kind ``TypeError`` or ``ValueError``."""
        version = data["version"]
        if not _is_int(version) or version != 4:
            raise ValueError(f"unknown snapshot version {version!r}")
        mem = cls(
            dim=_int(data, "dim"),
            seed=_int(data, "seed"),
            time_window=_int(data, "time_window"),
            prune_threshold=_number(data, "prune_threshold"),
            match_threshold=_number(data, "match_threshold"),
            base_decay=_positive(data, "base_decay"),  # every decay time is a multiple of it
            base_intensity=_number(data, "base_intensity"),
        )
        if not 1 <= mem.dim <= hrr._MAX_DIM:  # checked before a vector is made
            raise ValueError(f"dim must be in [1, {hrr._MAX_DIM}], not {mem.dim!r}")
        mem.clock = _int(data, "clock")
        mem._counter = _int(data, "counter")
        digest = data["vectors_sha256"]
        draw = functools.cache(functools.partial(hrr.random_vector, mem.seed, mem.dim))
        for rec in data["nodes"]:
            node_id = rec["id"]
            if not isinstance(node_id, str):
                raise TypeError(f"node id must be a string, not {node_id!r}")
            if node_id in mem.nodes:
                raise ValueError(f"node id {node_id!r} is listed twice")
            level, recipe = Level(rec["level"]), rec["recipe"]
            try:
                vector = _made(recipe, draw)
            except RecursionError:
                raise ValueError(f"recipe of node {node_id!r} is nested too deep") from None
            except ValueError as exc:
                raise ValueError(f"recipe of node {node_id!r}: {exc}") from None
            node = ConceptNode(node_id, level, vector, recipe, assembly_members=_ids(rec, "assembly_members"))
            for s in rec["signatures"]:
                sig = Signature(
                    recorded_at=_int(s, "recorded_at"),
                    initial_intensity=_number(s, "initial_intensity"),
                    decay_time=_positive(s, "decay_time"),
                )
                if sig.recorded_at > mem.clock:
                    raise ValueError(f"node {node_id!r} has a signature recorded at tick "
                                     f"{sig.recorded_at}, after the clock {mem.clock}")
                node.signatures.append(sig)
            mem.nodes[node_id] = node
        for node in mem.nodes.values():
            if len(set(node.assembly_members)) < len(node.assembly_members):
                raise ValueError(f"node {node.id!r} lists a member twice: {node.assembly_members}")
            for member_id in node.assembly_members:
                if member_id == node.id:
                    raise ValueError(f"node {node.id!r} lists itself as a member")
                if member_id not in mem.nodes:
                    raise ValueError(f"assembly link {member_id!r} of node {node.id!r} names no node")
                mem.nodes[member_id].assembly_parents.add(node.id)
        if digest != mem._vectors_sha256():
            raise ValueError("vectors_sha256 does not match the vectors the recipes make here "
                             "(another random stream, sum or FFT, or a vector changed by hand)")
        return mem


def _rolled_sum(vectors, offsets) -> hrr.Vector:
    """The normalised sum of ``vectors``, each rolled by its offset."""
    pattern = hrr.superpose([np.roll(v, k) for v, k in zip(vectors, offsets)])
    return pattern / np.linalg.norm(pattern)


def _bound(vectors) -> hrr.Vector:
    """The normalised circular convolution chain of ``vectors``."""
    chain = functools.reduce(hrr.convolve, vectors)
    return chain / np.linalg.norm(chain)


def _made(recipe, draw) -> hrr.Vector:
    """The vector ``recipe`` makes, with ``draw(id)`` a sensory id's draw."""
    if isinstance(recipe, str):
        return draw(recipe)
    if isinstance(recipe, dict) and len(recipe) == 1:
        (kind, parts), = recipe.items()
        if kind == "sum" and isinstance(parts, list) and parts and all(
                isinstance(p, list) and len(p) == 2 and _is_int(p[1]) for p in parts):
            return _rolled_sum([_made(r, draw) for r, _ in parts], [k for _, k in parts])
        if kind == "bind" and isinstance(parts, list) and len(parts) >= 2:
            return _bound([_made(r, draw) for r in parts])
    raise ValueError(f"malformed recipe {reprlib.repr(recipe)}")


def _copied(recipe):
    """A copy of the well-formed ``recipe`` that shares no list or dict."""
    if isinstance(recipe, str):
        return recipe
    (kind, parts), = recipe.items()
    return {kind: [[_copied(r), k] for r, k in parts] if kind == "sum" else list(map(_copied, parts))}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int(record: dict, key: str) -> int:
    value = record[key]
    if not _is_int(value):
        raise TypeError(f"{key} must be an integer, not {value!r}")
    return value


def _number(record: dict, key: str) -> float:
    value = record[key]
    if not (_is_int(value) or isinstance(value, float)) or not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, not {value!r}")
    return value


def _positive(record: dict, key: str) -> float:
    value = _number(record, key)
    if value <= 0:
        raise ValueError(f"{key} must be positive, not {value!r}")
    return value


def _ids(record: dict, key: str) -> list:
    value = record[key]
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise TypeError(f"{key} must be a list of node ids, not {value!r}")
    return list(value)

