"""Decaying concept memory.

Concepts emerge from co-occurring signals, carry time-stamped signatures
whose intensity decays exponentially, get reinforced when they take part
in new assemblies, and vanish once every signature has faded below a
threshold. The decay time of a signature grows with the node's assembly
connectivity, so well-connected concepts outlive one-off noise.

A snapshot (version 2) is compact JSON holding the memory's scalar
settings, one ``"vectors"`` table and the nodes. Each node's and each
signature's ``"vector"`` is an index into that table, which stores every
distinct vector once, or ``null``: the ``random_vector(seed, dim, id)``
of a sensory node, written only when the vector equals it bit for bit.
A snapshot with a ``null`` also holds ``"stream_sha256"``, the SHA-256 of
``random_vector(seed, dim, "")``, so a NumPy that draws another stream is
refused instead of regenerating other vectors. A version other than 2, a
missing key, a value of the wrong kind, an assembly link that is not the id
of a node of the snapshot, a signature recorded after the clock, a bad
vector reference or a stream fingerprint that does not match is a
:class:`GraphFormatError` naming the file.
"""

from __future__ import annotations

import hashlib
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

    @staticmethod
    def above(levels) -> "Level":
        """The level after the highest of ``levels`` (the top one is its own)."""
        order = list(Level)
        return order[min(max(map(order.index, levels)) + 1, len(order) - 1)]


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
        """The id of the node (on ``level``, if given) nearest ``vector`` by
        cosine similarity, the smaller id of a tie, and that similarity;
        ``(None, -2.0)`` if there is no such node. All nodes are scored in
        one product, as :func:`hrr.cleanup` scores a codebook."""
        ids = sorted(node_id for node_id, node in self.nodes.items()
                     if level is None or node.level is level)
        if not ids:
            return None, -2.0
        return hrr._nearest(vector, np.array([self.nodes[node_id].vector for node_id in ids]), ids)

    def _recall_or_add(self, vector: hrr.Vector, level: Level, members=()) -> ConceptNode:
        """The node nearest ``vector`` if its similarity clears
        ``match_threshold``, else a new node on ``level``. An assembly (a
        non-empty ``members``) recalls only a node on its own level; each
        member of a new one is linked to it as its parent."""
        match_id, sim = self._best_match(vector, level if members else None)
        if match_id is not None and sim >= self.match_threshold:
            return self.nodes[match_id]
        node = ConceptNode(self._new_id(), level, vector, self.base_intensity,
                           assembly_members=[m.id for m in members], connection_count=len(members))
        self.nodes[node.id] = node
        for m in members:
            m.assembly_parents.add(node.id)
            m.connection_count += 1
        return node

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
        node = self._recall_or_add(pattern, Level.above([self.nodes[s].level for s, _ in activations]))
        if node.id not in affected:  # a sensory self-match is already recorded
            self._record(node, pattern, now)
            affected.append(node.id)
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
        node = self._recall_or_add(chain, Level.above([m.level for m in members]), members)
        self._record(node, chain, now)
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
        """The version 2 snapshot: the scalar settings, one table of the
        distinct vectors that cannot be regenerated, and the nodes, whose
        vectors are row indices into that table or ``None`` for a sensory
        node's ``random_vector(seed, dim, id)``; beside any ``None``, the
        fingerprint of the stream that regenerates it."""
        table: list = []
        rows: dict[bytes, int] = {}
        regenerates = False

        def ref(vector, regenerated):
            nonlocal regenerates
            vector = np.asarray(vector, dtype=np.float64)
            key = vector.tobytes()
            if key == regenerated:
                regenerates = True
                return None
            index = rows.get(key)
            if index is None:
                index = rows[key] = len(table)
                table.append(vector.tolist())
            return index

        nodes = []
        for node_id, n in sorted(self.nodes.items()):
            regenerated = None
            if n.level is Level.SENSORY:
                regenerated = hrr.random_vector(self.seed, self.dim, term=node_id).tobytes()
            nodes.append({
                "id": n.id,
                "level": n.level.value,
                "base_intensity": n.base_intensity,
                "connection_count": n.connection_count,
                "assembly_parents": sorted(n.assembly_parents),
                "assembly_members": list(n.assembly_members),
                "vector": ref(n.vector, regenerated),
                "signatures": [
                    {
                        "recorded_at": s.recorded_at,
                        "initial_intensity": s.initial_intensity,
                        "decay_time": s.decay_time,
                        "vector": ref(s.vector, regenerated),
                    }
                    for s in n.signatures
                ],
            })
        snapshot = {
            "version": 2,
            "dim": self.dim,
            "seed": self.seed,
            "time_window": self.time_window,
            "prune_threshold": self.prune_threshold,
            "match_threshold": self.match_threshold,
            "base_decay": self.base_decay,
            "base_intensity": self.base_intensity,
            "clock": self.clock,
            "counter": self._counter,
            "vectors": table,
            "nodes": nodes,
        }
        if regenerates:
            snapshot["stream_sha256"] = _stream_sha256(self.seed, self.dim)
        return snapshot

    def save(self, path) -> None:
        # json.dumps without indent runs the C encoder; json.dump would
        # stream through the pure-Python one
        text = json.dumps(self.snapshot(), sort_keys=True, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")

    @classmethod
    def load(cls, path) -> "HolographicMemory":
        """Read a snapshot written by :meth:`save`. Text that is not UTF-8
        or not JSON, a version other than 2, a missing key, a value of the
        wrong kind, a node id listed twice, an assembly link that names no
        node, a signature recorded after the clock, a bad vector reference
        and a stream fingerprint that does not match raise
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
        """The memory a version 2 snapshot describes; the version is read
        before any other key. A missing key raises ``KeyError``; a value of
        the wrong kind ``TypeError`` or ``ValueError``."""
        version = data["version"]
        if not _is_int(version) or version != 2:
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
        if not 1 <= mem.dim <= hrr._MAX_DIM:  # checked before a vector is regenerated
            raise ValueError(f"dim must be in [1, {hrr._MAX_DIM}], not {mem.dim!r}")
        mem.clock = _int(data, "clock")
        mem._counter = _int(data, "counter")
        if "stream_sha256" in data and data["stream_sha256"] != _stream_sha256(mem.seed, mem.dim):
            raise ValueError("stream_sha256 does not match this NumPy's random stream, "
                             "so the sensory vectors would not regenerate")
        table = [_row(values, mem.dim) for values in data["vectors"]]
        for rec in data["nodes"]:
            if not isinstance(rec["id"], str):
                raise TypeError(f"node id must be a string, not {rec['id']!r}")
            if rec["id"] in mem.nodes:
                raise ValueError(f"node id {rec['id']!r} is listed twice")
            level = Level(rec["level"])
            regenerated = None
            if level is Level.SENSORY:
                regenerated = hrr.random_vector(mem.seed, mem.dim, term=rec["id"])
            node = ConceptNode(
                id=rec["id"],
                level=level,
                vector=_lookup(rec["vector"], table, regenerated),
                base_intensity=_number(rec, "base_intensity"),
                assembly_parents=set(_ids(rec, "assembly_parents")),
                assembly_members=_ids(rec, "assembly_members"),
                connection_count=_count(rec, "connection_count"),
            )
            for s in rec["signatures"]:
                sig = Signature(
                    vector=_lookup(s["vector"], table, regenerated),
                    recorded_at=_int(s, "recorded_at"),
                    initial_intensity=_number(s, "initial_intensity"),
                    decay_time=_positive(s, "decay_time"),
                )
                if sig.recorded_at > mem.clock:
                    raise ValueError(f"node {node.id!r} has a signature recorded at tick "
                                     f"{sig.recorded_at}, after the clock {mem.clock}")
                node.signatures.append(sig)
            mem.nodes[node.id] = node
        for node in mem.nodes.values():
            for link in [*sorted(node.assembly_parents), *node.assembly_members]:
                if link not in mem.nodes:
                    raise ValueError(f"assembly link {link!r} of node {node.id!r} names no node")
        return mem


def _stream_sha256(seed: int, dim: int) -> str:
    """Fingerprint of the random stream that regenerates sensory vectors."""
    return hashlib.sha256(hrr.random_vector(seed, dim, term="").tobytes()).hexdigest()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int(record: dict, key: str) -> int:
    value = record[key]
    if not _is_int(value):
        raise TypeError(f"{key} must be an integer, not {value!r}")
    return value


def _count(record: dict, key: str) -> int:
    value = _int(record, key)
    if value < 0:
        raise ValueError(f"{key} must be a count of 0 or more, not {value!r}")
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


def _row(values, dim: int) -> hrr.Vector:
    """One row of the vector table: a list of ``dim`` finite numbers."""
    if (isinstance(values, list) and len(values) == dim
            and all(type(x) in (float, int) for x in values)):
        vector = np.array(values, dtype=np.float64)
        if np.isfinite(vector).all():
            return vector
    raise ValueError(f"vector table row is not {dim} finite numbers")


def _lookup(ref, table: list, regenerated) -> hrr.Vector:
    """The vector a snapshot reference names: a table row, or for ``None``
    the regenerated vector of a sensory node (``regenerated`` is ``None``
    on any other node)."""
    if ref is None:
        if regenerated is None:
            raise ValueError("null vector reference on a node that is not sensory")
        return regenerated
    if not _is_int(ref) or not 0 <= ref < len(table):
        raise ValueError(f"vector reference {ref!r} is not a row of the {len(table)}-row table")
    return table[ref]
