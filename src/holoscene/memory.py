"""Decaying concept memory.

Concepts emerge from co-occurring signals, carry time-stamped signatures
whose intensity decays exponentially, get reinforced when they take part
in new assemblies, and vanish once every signature has faded below a
threshold. The decay time of a signature grows with the node's assembly
connectivity, so well-connected concepts outlive one-off noise.
"""

from __future__ import annotations

import json
import math
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

    @property
    def rank(self) -> int:
        return _LEVEL_ORDER.index(self)

    @staticmethod
    def above(levels) -> "Level":
        top = max(l.rank for l in levels)
        return _LEVEL_ORDER[min(top + 1, len(_LEVEL_ORDER) - 1)]


_LEVEL_ORDER = [Level.SENSORY, Level.PRIMARY, Level.SECONDARY, Level.HIGHER]


@dataclass
class Signature:
    """One recorded occurrence of a concept's pattern."""

    vector: hrr.Vector
    recorded_at: int
    initial_intensity: float
    decay_time: float

    def intensity(self, now: int) -> float:
        return intensity(self, now)


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
    base_intensity: float
    signatures: list[Signature] = field(default_factory=list)
    assembly_parents: set[str] = field(default_factory=set)
    assembly_members: list[str] = field(default_factory=list)
    connection_count: int = 0


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
        if time_window < 1 or prune_threshold < 0 or not (0 < match_threshold < 1):
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

    def _require(self, node_id: str) -> ConceptNode:
        node = self.nodes.get(node_id)
        if node is None:
            raise UnknownTermError(f"no living concept {node_id!r}", [node_id])
        return node

    def _record(self, node: ConceptNode, vector: hrr.Vector, now: int) -> None:
        node.signatures.append(
            Signature(vector, now, node.base_intensity, self._decay_time(node))
        )

    def _sensory(self, sensory_id: str, tick: int) -> ConceptNode:
        node = self.nodes.get(sensory_id)
        if node is None:
            node = ConceptNode(
                id=sensory_id,
                level=Level.SENSORY,
                vector=hrr.random_vector(self.seed, self.dim, term=sensory_id),
                base_intensity=self.base_intensity,
            )
            self.nodes[sensory_id] = node
        self._record(node, node.vector, tick)
        return node

    def _best_match(self, vector: hrr.Vector, level: Level | None = None):
        best_id, best_sim = None, -2.0
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if level is not None and node.level is not level:
                continue
            sim = hrr.similarity(vector, node.vector)
            if sim > best_sim:
                best_id, best_sim = node_id, sim
        return best_id, best_sim

    # -- operations --------------------------------------------------------

    def observe(self, activations) -> list[str]:
        """Record a set of (sensory_id, tick) activations.

        The encoded activation pattern either recalls a matching concept
        (appending a fresh signature next to the previously stored ones) or,
        when it differs enough from everything known, becomes a new primary
        node. Returns the affected concept ids.
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

        affected = []
        vectors = []
        base = min(ticks)
        for sensory_id, tick in activations:
            node = self._sensory(sensory_id, tick)
            affected.append(node.id)
            # a shift encodes the firing offset, so sequences differ from
            # pure co-occurrence while repeats of a pattern still match
            vectors.append(np.roll(node.vector, tick - base))

        pattern = hrr.superpose(vectors)
        pattern = pattern / np.linalg.norm(pattern)
        match_id, sim = self._best_match(pattern)
        if match_id is not None and sim >= self.match_threshold:
            node = self.nodes[match_id]
            if node.id not in affected:  # sensory self-match already recorded
                self._record(node, pattern, now)
                affected.append(node.id)
            return affected

        self._counter += 1
        new_id = f"c{self._counter:04d}"
        members = [self.nodes[s] for s, _ in activations]
        node = ConceptNode(
            id=new_id,
            level=Level.above([m.level for m in members]),
            vector=pattern,
            base_intensity=self.base_intensity,
        )
        self.nodes[new_id] = node
        self._record(node, pattern, now)
        affected.append(new_id)
        return affected

    def assemble(self, member_ids, now: int) -> str:
        """Bind living concepts into a higher-level node.

        Re-assembling the same members recalls the existing node instead of
        duplicating it. Either way every member is reinforced.
        """
        self._advance(now)
        unique = sorted(set(member_ids))
        if len(unique) < 2:
            raise ValueError("assembly requires at least two distinct members")
        members = [self._require(m) for m in unique]

        chain = members[0].vector
        for m in members[1:]:
            chain = hrr.convolve(chain, m.vector)
        chain = chain / np.linalg.norm(chain)
        level = Level.above([m.level for m in members])

        match_id, sim = self._best_match(chain, level=level)
        if match_id is not None and sim >= self.match_threshold:
            node = self.nodes[match_id]
            self._record(node, chain, now)
        else:
            self._counter += 1
            node = ConceptNode(
                id=f"c{self._counter:04d}",
                level=level,
                vector=chain,
                base_intensity=self.base_intensity,
                assembly_members=list(unique),
                connection_count=len(unique),
            )
            self.nodes[node.id] = node
            self._record(node, chain, now)
            for m in members:
                m.assembly_parents.add(node.id)
                m.connection_count += 1
        for m in members:
            self.reinforce(m.id, now)
        return node.id

    def reinforce(self, node_id: str, now: int) -> None:
        """Append a full-intensity signature; decay time reflects current
        connectivity."""
        self._advance(now)
        node = self._require(node_id)
        self._record(node, node.vector, now)

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
                    parent.connection_count -= 1
                    parent.assembly_members = [
                        m for m in parent.assembly_members if m != node_id
                    ]
            for member_id in node.assembly_members:
                member = self.nodes.get(member_id)
                if member is not None:
                    member.assembly_parents.discard(node_id)
                    member.connection_count -= 1
        return removed

    # -- serialization -----------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "version": 1,
            "dim": self.dim,
            "seed": self.seed,
            "time_window": self.time_window,
            "prune_threshold": self.prune_threshold,
            "match_threshold": self.match_threshold,
            "base_decay": self.base_decay,
            "base_intensity": self.base_intensity,
            "clock": self.clock,
            "counter": self._counter,
            "nodes": [
                {
                    "id": n.id,
                    "level": n.level.value,
                    "base_intensity": n.base_intensity,
                    "connection_count": n.connection_count,
                    "assembly_parents": sorted(n.assembly_parents),
                    "assembly_members": list(n.assembly_members),
                    "vector": n.vector.tolist(),
                    "signatures": [
                        {
                            "recorded_at": s.recorded_at,
                            "initial_intensity": s.initial_intensity,
                            "decay_time": s.decay_time,
                            "vector": s.vector.tolist(),
                        }
                        for s in n.signatures
                    ],
                }
                for _, n in sorted(self.nodes.items())
            ],
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "HolographicMemory":
        """Read a snapshot written by :meth:`save`. Text that is not UTF-8
        or not JSON, a missing key and a value of the wrong kind raise
        :class:`GraphFormatError`."""
        try:
            data = json.loads(read_text(path))
        except json.JSONDecodeError as exc:
            raise GraphFormatError(path, exc.lineno, f"not a JSON snapshot: {exc.msg}") from None
        try:
            mem = cls(
                dim=data["dim"],
                seed=data["seed"],
                time_window=data["time_window"],
                prune_threshold=data["prune_threshold"],
                match_threshold=data["match_threshold"],
                base_decay=data["base_decay"],
                base_intensity=data["base_intensity"],
            )
            mem.clock = data["clock"]
            mem._counter = data["counter"]
            for rec in data["nodes"]:
                node = ConceptNode(
                    id=rec["id"],
                    level=Level(rec["level"]),
                    vector=np.array(rec["vector"], dtype=np.float64),
                    base_intensity=rec["base_intensity"],
                    assembly_parents=set(rec["assembly_parents"]),
                    assembly_members=list(rec["assembly_members"]),
                    connection_count=rec["connection_count"],
                )
                node.signatures = [
                    Signature(
                        vector=np.array(s["vector"], dtype=np.float64),
                        recorded_at=s["recorded_at"],
                        initial_intensity=s["initial_intensity"],
                        decay_time=s["decay_time"],
                    )
                    for s in rec["signatures"]
                ]
                mem.nodes[node.id] = node
        except KeyError as exc:
            raise GraphFormatError(path, None, f"snapshot lacks key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise GraphFormatError(path, None, f"bad snapshot value: {exc}") from None
        return mem
