"""Concept memory tests: decay law, emergence, assembly, reinforcement,
pruning and snapshot round-trips."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from holoscene.errors import (
    GraphFormatError,
    StaleSignalError,
    TimeTravelError,
    UnknownTermError,
    ZeroVectorError,
)
from holoscene.memory import ConceptNode, HolographicMemory, Level, Signature, intensity

from holoscene import hrr

V1_FIXTURE = Path(__file__).parent / "data" / "memory_v1.json"


def make_sig(s1=1.0, d=10.0, at=0):
    return Signature(vector=np.ones(4), recorded_at=at, initial_intensity=s1, decay_time=d)


def fresh(**kwargs):
    defaults = dict(dim=256, seed=42, time_window=5, prune_threshold=0.1, base_decay=10.0)
    defaults.update(kwargs)
    return HolographicMemory(**defaults)


class TestIntensity:
    def test_at_recording_tick(self):
        assert intensity(make_sig(), 0) == 1.0

    def test_one_decay_time(self):
        assert intensity(make_sig(), 10) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_analytic_threshold_crossing(self):
        # S1 * exp(-t/d) = 0.1 at t = d * ln(S1/0.1); check with S1=2, d=5
        sig = make_sig(s1=2.0, d=5.0)
        t = 5 * math.log(20)
        assert intensity(sig, t) == pytest.approx(0.1, abs=1e-9)

    def test_time_travel_rejected(self):
        with pytest.raises(TimeTravelError):
            intensity(make_sig(at=5), 4)

    def test_strictly_decreasing(self):
        sig = make_sig()
        values = [intensity(sig, t) for t in range(0, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestObserve:
    def test_empty_is_noop(self):
        mem = fresh()
        assert mem.observe([]) == []
        assert mem.nodes == {}

    def test_co_occurrence_creates_primary(self):
        mem = fresh()
        affected = mem.observe([("sight", 0), ("sound", 0)])
        assert set(affected) == {"sight", "sound", "c0001"}
        assert mem.nodes["c0001"].level is Level.PRIMARY
        assert mem.nodes["sight"].level is Level.SENSORY

    def test_repeat_recalls_not_duplicates(self):
        mem = fresh()
        mem.observe([("sight", 0), ("sound", 0)])
        mem.observe([("sight", 1), ("sound", 1)])
        primaries = [n for n in mem.nodes.values() if n.level is Level.PRIMARY]
        assert len(primaries) == 1
        assert len(primaries[0].signatures) == 2  # current and previous pattern

    def test_distinct_pattern_spawns_second_node(self):
        mem = fresh()
        mem.observe([("sight", 0), ("sound", 0)])
        mem.observe([("touch", 1), ("smell", 1)])
        primaries = [n for n in mem.nodes.values() if n.level is Level.PRIMARY]
        assert len(primaries) == 2

    def test_single_signal_refreshes_sensor(self):
        mem = fresh()
        mem.observe([("sight", 0)])
        mem.observe([("sight", 1)])
        assert set(mem.nodes) == {"sight"}
        assert len(mem.nodes["sight"].signatures) == 2

    def test_stale_activation_rejected(self):
        mem = fresh(time_window=5)
        with pytest.raises(StaleSignalError):
            mem.observe([("a", 0), ("b", 10)])

    def test_order_encoded_in_pattern(self):
        mem = fresh()
        mem.observe([("a", 0), ("b", 2)])
        mem.observe([("b", 3), ("a", 5)])  # reversed firing order
        primaries = [n for n in mem.nodes.values() if n.level is Level.PRIMARY]
        assert len(primaries) == 2

    def test_new_concept_skips_a_sensory_id_of_its_name(self):
        mem = fresh()
        mem.observe([("c0002", 0)])
        mem.observe([("sight", 1), ("sound", 1)])
        mem.observe([("touch", 2), ("smell", 2)])
        assert mem.nodes["c0002"].level is Level.SENSORY
        assert len(mem.nodes["c0002"].signatures) == 1
        assert {n.id for n in mem.nodes.values() if n.level is Level.PRIMARY} == {"c0001", "c0003"}

    def test_new_concept_skips_an_id_a_snapshot_holds_past_its_counter(self, tmp_path):
        snapshot = fixture_memory().snapshot()
        snapshot["counter"] = 0
        mem = HolographicMemory.load(write_snapshot(tmp_path, snapshot))
        kept = mem.nodes["c0001"].vector.copy()
        affected = mem.observe([("x", 5), ("y", 5)])
        assert np.array_equal(mem.nodes["c0001"].vector, kept)
        assert affected[-1] not in fixture_memory().nodes
        assert mem.assemble(["c0001", "c0002"], 6) == "c0003"  # recalled, not a new node


class TestAssemble:
    def build_three(self, mem):
        mem.observe([("a", 0), ("b", 0)])
        mem.observe([("c", 0), ("d", 0)])
        mem.observe([("e", 0), ("f", 0)])
        return [n.id for n in mem.nodes.values() if n.level is Level.PRIMARY]

    def test_creates_secondary_and_reinforces(self):
        mem = fresh()
        ids = self.build_three(mem)
        before = len(mem.nodes[ids[1]].signatures)
        new_id = mem.assemble(ids, 1)
        node = mem.nodes[new_id]
        assert node.level is Level.SECONDARY
        assert mem.nodes[ids[1]].connection_count == 1
        assert len(mem.nodes[ids[1]].signatures) == before + 1
        assert new_id in mem.nodes[ids[1]].assembly_parents

    def test_single_member_rejected(self):
        mem = fresh()
        ids = self.build_three(mem)
        with pytest.raises(ValueError):
            mem.assemble([ids[0]], 1)

    def test_reassembly_recalls(self):
        mem = fresh()
        ids = self.build_three(mem)
        first = mem.assemble(ids, 1)
        second = mem.assemble(ids, 2)
        assert first == second
        assert len(mem.nodes[first].signatures) == 2

    def test_dead_member_rejected(self):
        mem = fresh()
        ids = self.build_three(mem)
        with pytest.raises(UnknownTermError):
            mem.assemble([ids[0], "ghost"], 1)

    def test_level_caps_at_higher(self):
        mem = fresh()
        ids = self.build_three(mem)
        s1 = mem.assemble(ids[:2], 1)
        s2 = mem.assemble(ids[1:], 1)
        h1 = mem.assemble([s1, s2], 2)
        assert mem.nodes[h1].level is Level.HIGHER
        mem.observe([("g", 2), ("h", 2)])
        other = [n.id for n in mem.nodes.values() if n.level is Level.PRIMARY][-1]
        h2 = mem.assemble([h1, other], 3)
        assert mem.nodes[h2].level is Level.HIGHER  # capped


def reference_match(mem, vector, level=None):
    """Scan the nodes (on ``level``, if given) in sorted id order with
    ``similarity``; the first strict maximum wins."""
    best_id, best_sim = None, -2.0
    for node_id in sorted(mem.nodes):
        node = mem.nodes[node_id]
        if level is not None and node.level is not level:
            continue
        sim = hrr.similarity(vector, node.vector)
        if sim > best_sim:
            best_id, best_sim = node_id, sim
    return best_id, best_sim


def memory_of(vectors, levels):
    """A memory holding node ``n<i>`` with ``vectors[i]`` on ``levels[i]``,
    added in reverse id order so that only sorting puts them in order."""
    mem = HolographicMemory(dim=len(vectors[0]) if vectors else 8)
    for i in reversed(range(len(vectors))):
        mem.nodes[f"n{i:02d}"] = ConceptNode(f"n{i:02d}", levels[i], vectors[i], 1.0)
    return mem


@st.composite
def match_case(draw):
    """A memory on several levels, some nodes sharing one vector, maybe a
    zero node; a level filter; and a probe: noise, a node's vector, the sum
    of two as unit vectors (a near-tie), a scaled or negated one, or zero. At dim 1 every
    cosine is +1 or -1, so most nodes tie."""
    dim = draw(st.sampled_from([1, 8, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(0, 40))
    vectors = [rng.standard_normal(dim) for _ in range(size)]
    for i in range(size):
        twin = draw(st.one_of(st.none(), st.integers(0, size - 1)))
        if twin is not None:  # a duplicate vector under another id
            vectors[i] = vectors[twin].copy()
    if size and draw(st.booleans()) and draw(st.booleans()):
        vectors[draw(st.integers(0, size - 1))] = np.zeros(dim)
    levels = [draw(st.sampled_from(list(Level))) for _ in range(size)]
    level = draw(st.one_of(st.none(), st.sampled_from(list(Level))))

    def node():
        return vectors[draw(st.integers(0, size - 1))] if size else rng.standard_normal(dim)

    kind = draw(st.sampled_from(["gaussian", "node", "near-tie", "scaled", "negated", "zero"]))
    if kind == "gaussian":
        probe = rng.standard_normal(dim)
    elif kind == "node":
        probe = node()
    elif kind == "near-tie":
        probe = sum(v / (np.linalg.norm(v) or 1.0) for v in (node(), node()))
    elif kind == "scaled":
        probe = node() * draw(st.sampled_from([1e-150, 1e-8, 3.0, 1e8, 1e150]))
    elif kind == "negated":
        probe = -node()
    else:
        probe = np.zeros(dim)
    return memory_of(vectors, levels), probe, level


class TestBestMatch:
    """``_best_match`` scores every node in one product and must answer
    exactly as the node-by-node ``similarity`` scan."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(match_case())
    def test_matches_reference_scan_exactly(self, case):
        mem, probe, level = case
        try:
            expected = reference_match(mem, probe, level)
        except ZeroVectorError:
            with pytest.raises(ZeroVectorError):
                mem._best_match(probe, level)
            return
        best_id, sim = mem._best_match(probe, level)
        assert best_id == expected[0]
        assert sim.hex() == expected[1].hex()

    def test_level_filter(self):
        rng = np.random.default_rng(1)
        vectors = [rng.standard_normal(16) for _ in range(3)]
        mem = memory_of(vectors, [Level.SENSORY, Level.PRIMARY, Level.SECONDARY])
        assert mem._best_match(vectors[0])[0] == "n00"
        assert mem._best_match(vectors[0], Level.PRIMARY)[0] == "n01"

    def test_duplicate_vectors_tie_to_the_smaller_id(self):
        v = np.random.default_rng(2).standard_normal(16)
        mem = memory_of([-v, v.copy(), v.copy()], [Level.PRIMARY] * 3)
        assert mem._best_match(v) == ("n01", hrr.similarity(v, v))

    def test_no_candidate(self):
        assert memory_of([], [])._best_match(np.ones(8)) == (None, -2.0)
        mem = memory_of([np.ones(8)], [Level.SENSORY])
        assert mem._best_match(np.zeros(8), Level.HIGHER) == (None, -2.0)

    def test_zero_vector_raises(self):
        mem = memory_of([np.ones(8), np.zeros(8)], [Level.SENSORY] * 2)
        with pytest.raises(ZeroVectorError):
            mem._best_match(np.ones(8))
        with pytest.raises(ZeroVectorError):
            memory_of([np.ones(8)], [Level.SENSORY])._best_match(np.zeros(8))


class TestReinforce:
    def test_resets_intensity(self):
        mem = fresh()
        mem.observe([("a", 0), ("b", 0)])
        node_id = "c0001"
        mem.reinforce(node_id, 4)
        last = mem.nodes[node_id].signatures[-1]
        assert intensity(last, 4) == mem.nodes[node_id].base_intensity

    def test_connection_count_stretches_decay(self):
        mem = fresh()
        mem.observe([("a", 0), ("b", 0)])
        mem.observe([("c", 0), ("d", 0)])
        mem.observe([("e", 0), ("f", 0)])
        mem.observe([("g", 0), ("h", 0)])
        p = [n.id for n in mem.nodes.values() if n.level is Level.PRIMARY]
        hub, others = p[0], p[1:]
        for other in others:
            mem.assemble([hub, other], 1)
        assert mem.nodes[hub].connection_count == 3
        mem.reinforce(hub, 2)
        lone = others[0]
        assert mem.nodes[lone].connection_count == 1
        d_hub = mem.nodes[hub].signatures[-1].decay_time
        mem.reinforce(lone, 2)
        d_lone = mem.nodes[lone].signatures[-1].decay_time
        assert d_hub == 10.0 * (1 + 3)
        assert d_hub > d_lone

    def test_unknown_id(self):
        mem = fresh()
        with pytest.raises(UnknownTermError):
            mem.reinforce("nope", 0)

    def test_clock_monotonicity(self):
        mem = fresh()
        mem.observe([("a", 3)])
        with pytest.raises(TimeTravelError):
            mem.reinforce("a", 2)


def extinction_tick(mem, node_id, horizon=500):
    """First tick at which prune removes the node (simulation oracle)."""
    for t in range(mem.clock, horizon):
        if node_id in mem.prune(t):
            return t
    raise AssertionError("node never pruned")


class TestPrune:
    def test_boundary_at_ten_ln_ten(self):
        # S1=1, d=10, theta=0.1: survives tick 23, gone at 24 (10*ln10 ~ 23.026)
        mem = fresh()
        mem.observe([("a", 0), ("b", 0)])
        assert mem.prune(23) == []
        removed = mem.prune(24)
        assert set(removed) == {"a", "b", "c0001"}

    def test_zero_threshold_never_prunes(self):
        mem = fresh(prune_threshold=0.0)
        mem.observe([("a", 0), ("b", 0)])
        assert mem.prune(400) == []

    def test_no_empty_nodes_survive(self):
        mem = fresh()
        mem.observe([("a", 0), ("b", 0)])
        mem.observe([("c", 2), ("d", 2)])
        mem.prune(100)
        for node in mem.nodes.values():
            assert node.signatures

    def test_reinforced_twin_outlives_plain_twin(self):
        plain = fresh()
        plain.observe([("a", 0), ("b", 0)])
        boosted = fresh()
        boosted.observe([("a", 0), ("b", 0)])
        boosted.reinforce("c0001", 20)
        t_plain = extinction_tick(plain, "c0001")
        t_boosted = extinction_tick(boosted, "c0001")
        assert t_plain == 24
        assert t_boosted > 40

    def test_connectivity_extends_extinction(self):
        # same S1, more connections -> strictly later extinction
        def build(connections):
            mem = fresh()
            mem.observe([("a", 0), ("b", 0)])
            mem.observe([("c", 0), ("d", 0)])
            mem.observe([("e", 0), ("f", 0)])
            p = [n.id for n in mem.nodes.values() if n.level is Level.PRIMARY]
            for other in p[1 : 1 + connections]:
                mem.assemble([p[0], other], 1)
            # fresh signature at tick 2 under the final connection count
            mem.reinforce(p[0], 2)
            return mem, p[0]

        mem0, n0 = build(0)
        mem2, n2 = build(2)
        assert mem2.nodes[n2].connection_count > mem0.nodes[n0].connection_count
        assert extinction_tick(mem2, n2) > extinction_tick(mem0, n0)

    def test_removal_cascades_to_parent_connections(self):
        mem = fresh()
        mem.observe([("a", 0), ("b", 0)])
        mem.observe([("c", 0), ("d", 0)])
        p = [n.id for n in mem.nodes.values() if n.level is Level.PRIMARY]
        sec = mem.assemble(p, 1)
        mem.reinforce(sec, 20)
        cc_before = mem.nodes[sec].connection_count
        # primaries: last signature tick 1 with d=20 -> extinct after 1+20*ln10 ~ 47
        # secondary: last signature tick 20 with d=30 -> survives well past 50
        removed = mem.prune(50)
        assert set(p) <= set(removed)
        assert mem.nodes[sec].connection_count == cc_before - 2

    def test_noise_vanishes_supported_persists(self):
        mem = fresh()
        mem.observe([("a", 0), ("b", 0)])  # will be assembled -> supported
        mem.observe([("c", 0), ("d", 0)])  # conceptual noise
        mem.observe([("e", 0), ("f", 0)])
        p = [n.id for n in mem.nodes.values() if n.level is Level.PRIMARY]
        noise = p[1]
        for t in range(1, 40, 4):
            mem.assemble([p[0], p[2]], t)
        mem.prune(40)
        assert noise not in mem.nodes
        assert p[0] in mem.nodes and p[2] in mem.nodes


def assert_same_memory(a, b):
    """Every setting, node field and signature equal; vectors bit for bit."""
    settings_ = ("dim", "seed", "time_window", "prune_threshold", "match_threshold",
                 "base_decay", "base_intensity", "clock", "_counter")
    assert [getattr(a, k) for k in settings_] == [getattr(b, k) for k in settings_]
    assert sorted(a.nodes) == sorted(b.nodes)
    for node_id, node in a.nodes.items():
        twin = b.nodes[node_id]
        assert (twin.id, twin.level, twin.base_intensity, twin.connection_count) == (
            node.id, node.level, node.base_intensity, node.connection_count)
        assert twin.assembly_parents == node.assembly_parents
        assert twin.assembly_members == node.assembly_members
        assert np.array_equal(twin.vector, node.vector)
        assert len(twin.signatures) == len(node.signatures)
        for s, t in zip(node.signatures, twin.signatures):
            assert (s.recorded_at, s.initial_intensity, s.decay_time) == (
                t.recorded_at, t.initial_intensity, t.decay_time)
            assert np.array_equal(s.vector, t.vector)


def fixture_memory():
    """The memory that ``tests/data/memory_v1.json`` holds, written there by
    the version 1 writer; load refuses that file for its version."""
    mem = HolographicMemory(dim=16, seed=3)
    mem.observe([("a", 0), ("b", 0)])
    mem.observe([("c", 1), ("d", 1)])
    mem.observe([("a", 2), ("b", 2)])
    mem.assemble([n.id for n in mem.nodes.values() if n.level is Level.PRIMARY], 3)
    mem.prune(4)
    return mem


_SENSORS = ("a", "b", "c", "d", "e")
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("observe"),
                  st.lists(st.tuples(st.sampled_from(_SENSORS), st.integers(0, 2)),
                           min_size=1, max_size=3),
                  st.integers(0, 2)),
        st.tuples(st.just("assemble"), st.lists(st.integers(0, 40), min_size=2, max_size=3),
                  st.integers(0, 2)),
        st.tuples(st.just("reinforce"), st.integers(0, 40), st.integers(0, 2)),
        st.tuples(st.just("prune"), st.integers(0, 30)),
    ),
    max_size=12,
)
# two primaries, their secondary, then a higher node over the secondary
_TO_HIGHER = [
    ("observe", [("a", 0), ("b", 0)], 0),
    ("observe", [("c", 0), ("d", 0)], 1),
    ("assemble", [3, 4], 1),
    ("assemble", [3, 5], 1),
    ("reinforce", 0, 1),
    ("prune", 5),
]


def replay(ops):
    """Apply ``_OPS``-style operations; node indices wrap over the sorted
    living ids, and each operation moves the clock forward by its last
    field."""
    mem = HolographicMemory(dim=16, seed=5)
    for kind, *args in ops:
        now = mem.clock + args[-1]
        ids = sorted(mem.nodes)
        if kind == "observe":
            mem.observe([(sensor, now + dt) for sensor, dt in args[0]])
        elif kind == "assemble" and ids:
            members = {ids[i % len(ids)] for i in args[0]}
            if len(members) >= 2:
                mem.assemble(members, now)
        elif kind == "reinforce" and ids:
            mem.reinforce(ids[args[0] % len(ids)], now)
        elif kind == "prune":
            mem.prune(now)
    return mem


def write_snapshot(tmp_path, snapshot):
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(snapshot))
    return path


def node_record(snapshot, node_id):
    return next(rec for rec in snapshot["nodes"] if rec["id"] == node_id)


class TestSnapshot:
    def test_roundtrip_lossless(self, tmp_path):
        mem = fresh()
        mem.observe([("a", 0), ("b", 0)])
        mem.observe([("c", 1), ("d", 1)])
        p = [n.id for n in mem.nodes.values() if n.level is Level.PRIMARY]
        mem.assemble(p, 2)
        mem.prune(5)
        path = tmp_path / "mem.json"
        mem.save(path)
        again = HolographicMemory.load(path)
        path2 = tmp_path / "mem2.json"
        again.save(path2)
        assert path.read_bytes() == path2.read_bytes()
        assert_same_memory(mem, again)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(ops=_OPS)
    @example(ops=_TO_HIGHER)
    def test_roundtrip_over_random_operations(self, tmp_path_factory, ops):
        mem = replay(ops)
        path = tmp_path_factory.mktemp("snap") / "mem.json"
        mem.save(path)
        again = HolographicMemory.load(path)
        assert_same_memory(mem, again)
        saved = path.read_bytes()
        again.save(path)
        assert path.read_bytes() == saved

    def test_replayed_operations_reach_the_higher_level(self):
        levels = {n.level for n in replay(_TO_HIGHER).nodes.values()}
        assert levels == set(Level)

    def test_each_vector_stored_once_and_sensory_vectors_regenerated(self):
        mem = fixture_memory()
        snapshot = mem.snapshot()
        rows = [tuple(row) for row in snapshot["vectors"]]
        assert len(set(rows)) == len(rows)
        for rec in snapshot["nodes"]:
            refs = [rec["vector"]] + [s["vector"] for s in rec["signatures"]]
            if rec["level"] == "sensory":
                assert refs == [None] * len(refs)
            else:
                assert all(isinstance(ref, int) for ref in refs)
        # a primary node's first signature is its pattern
        primary = node_record(snapshot, "c0001")
        assert primary["signatures"][0]["vector"] == primary["vector"]

    def test_sensory_vector_that_is_not_regenerable_goes_in_the_table(self, tmp_path):
        mem = fresh(dim=8)
        mem.observe([("a", 0)])
        mem.nodes["a"].vector = mem.nodes["a"].vector * 2.0
        snapshot = mem.snapshot()
        rec = node_record(snapshot, "a")
        assert rec["vector"] == 0 and rec["signatures"][0]["vector"] is None
        path = tmp_path / "mem.json"
        mem.save(path)
        assert_same_memory(mem, HolographicMemory.load(path))

    def test_save_writes_compact_json(self, tmp_path):
        path = tmp_path / "mem.json"
        fixture_memory().save(path)
        text = path.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        assert ", " not in text and ": " not in text
        assert json.loads(text)["version"] == 2

    def test_stream_fingerprint_written_only_beside_a_null(self):
        assert "stream_sha256" not in fresh().snapshot()
        mem = fresh(dim=8)
        mem.observe([("a", 0)])
        mem.nodes["a"].vector = mem.nodes["a"].vector * 2.0
        mem.nodes["a"].signatures[0].vector = mem.nodes["a"].vector
        assert "stream_sha256" not in mem.snapshot()
        assert len(fixture_memory().snapshot()["stream_sha256"]) == 64

    def test_changed_random_stream_is_refused(self, tmp_path, monkeypatch):
        path = tmp_path / "mem.json"
        fixture_memory().save(path)
        seed_for = hrr._seed_for
        monkeypatch.setattr(hrr, "_seed_for", lambda seed, dim, term=None: seed_for(seed + 1, dim, term))
        with pytest.raises(GraphFormatError, match=r"mem.json: bad snapshot value: stream_sha256 does not match"):
            HolographicMemory.load(path)

    def test_version_2_without_the_fingerprint_still_loads(self, tmp_path):
        snapshot = fixture_memory().snapshot()
        del snapshot["stream_sha256"]
        assert_same_memory(fixture_memory(), HolographicMemory.load(write_snapshot(tmp_path, snapshot)))

    def test_signature_recorded_after_the_clock_is_refused(self, tmp_path):
        snapshot = fixture_memory().snapshot()
        snapshot["clock"] = 0
        path = write_snapshot(tmp_path, snapshot)
        with pytest.raises(GraphFormatError, match=r"snap.json: bad snapshot value: node 'a' has a signature "
                                                   r"recorded at tick 2, after the clock 0"):
            HolographicMemory.load(path)


class TestVersion1:
    def test_fixture_is_refused_naming_the_file(self):
        assert json.loads(V1_FIXTURE.read_text())["version"] == 1
        with pytest.raises(GraphFormatError) as info:
            HolographicMemory.load(V1_FIXTURE)
        assert str(info.value) == f"{V1_FIXTURE}: bad snapshot value: unknown snapshot version 1"


def _v2_snapshot():
    """A version 2 snapshot (dim 8): sensory a and b, primary c0001 with
    table row 0 as its vector and its one signature."""
    mem = fresh(dim=8)
    mem.observe([("a", 0), ("b", 0)])
    return mem.snapshot()


class TestVersion2Rejections:
    @pytest.mark.parametrize("ref", ["0", True, 0.0, [0]], ids=["str", "bool", "float", "list"])
    @pytest.mark.parametrize("where", ["node", "signature"])
    def test_reference_that_is_not_an_int(self, tmp_path, ref, where):
        snapshot = _v2_snapshot()
        rec = node_record(snapshot, "c0001")
        (rec if where == "node" else rec["signatures"][0])["vector"] = ref
        path = write_snapshot(tmp_path, snapshot)
        with pytest.raises(GraphFormatError, match=r"snap.json: bad snapshot value: vector reference"):
            HolographicMemory.load(path)

    @pytest.mark.parametrize("ref", [1, -1, 10**30])
    def test_reference_out_of_range(self, tmp_path, ref):
        snapshot = _v2_snapshot()
        assert len(snapshot["vectors"]) == 1
        node_record(snapshot, "c0001")["vector"] = ref
        path = write_snapshot(tmp_path, snapshot)
        with pytest.raises(GraphFormatError, match=r"is not a row of the 1-row table"):
            HolographicMemory.load(path)

    @pytest.mark.parametrize("where", ["node", "signature"])
    def test_null_reference_on_a_node_that_is_not_sensory(self, tmp_path, where):
        snapshot = _v2_snapshot()
        rec = node_record(snapshot, "c0001")
        (rec if where == "node" else rec["signatures"][0])["vector"] = None
        path = write_snapshot(tmp_path, snapshot)
        with pytest.raises(GraphFormatError, match=r"snap.json: bad snapshot value: null vector"):
            HolographicMemory.load(path)

    @pytest.mark.parametrize(
        "spoil",
        [lambda row: row.pop(), lambda row: row.append(0.5), lambda row: row.__setitem__(3, "0.5"),
         lambda row: row.__setitem__(3, float("nan")), lambda row: row.__setitem__(3, float("inf")),
         lambda row: row.__setitem__(3, True), lambda row: row.__setitem__(3, None)],
        ids=["short", "long", "str", "nan", "inf", "bool", "null"],
    )
    def test_table_row_that_is_not_dim_finite_numbers(self, tmp_path, spoil):
        snapshot = _v2_snapshot()
        spoil(snapshot["vectors"][0])
        path = write_snapshot(tmp_path, snapshot)
        with pytest.raises(GraphFormatError, match=r"vector table row is not 8 finite numbers"):
            HolographicMemory.load(path)

    def test_table_row_that_is_not_a_list(self, tmp_path):
        snapshot = _v2_snapshot()
        snapshot["vectors"][0] = {"0": 0.5}
        path = write_snapshot(tmp_path, snapshot)
        with pytest.raises(GraphFormatError, match=r"vector table row is not 8 finite numbers"):
            HolographicMemory.load(path)

    @pytest.mark.parametrize("version", [3, 0, "2", True, 2.0])
    def test_unknown_version(self, tmp_path, version):
        snapshot = _v2_snapshot()
        snapshot["version"] = version
        path = write_snapshot(tmp_path, snapshot)
        with pytest.raises(GraphFormatError, match=r"snap.json: bad snapshot value: unknown snapshot version"):
            HolographicMemory.load(path)

    def test_top_level_that_is_not_an_object(self, tmp_path):
        path = write_snapshot(tmp_path, [_v2_snapshot()])
        with pytest.raises(GraphFormatError, match=r"snap.json: bad snapshot value: not a JSON object"):
            HolographicMemory.load(path)


def _set_top(snapshot, key, value):
    snapshot[key] = value


def _set_node(snapshot, key, value):
    node_record(snapshot, "c0001")[key] = value


def _set_signature(snapshot, key, value):
    node_record(snapshot, "c0001")["signatures"][0][key] = value


def snapshot_of(source):
    """The fixture memory's snapshot as the ``source`` writer wrote it."""
    return json.loads(V1_FIXTURE.read_text()) if source == "v1" else fixture_memory().snapshot()


def assert_refused(tmp_path, source, snapshot, message):
    """Loading ``snapshot`` fails with ``message``; from the version 1
    writer, with the version alone, because it is read before any other
    key."""
    if source == "v1":
        message = "unknown snapshot version 1$"
    with pytest.raises(GraphFormatError, match=rf"snap.json: bad snapshot value: {message}"):
        HolographicMemory.load(write_snapshot(tmp_path, snapshot))


@pytest.mark.parametrize("source", ["v1", "v2"])
@pytest.mark.parametrize(
    "where, key, value",
    [(_set_top, "clock", "4"), (_set_top, "counter", 3.0), (_set_top, "dim", True),
     (_set_top, "base_intensity", "x"), (_set_top, "base_decay", float("inf")),
     (_set_node, "connection_count", None), (_set_node, "base_intensity", float("nan")),
     (_set_signature, "recorded_at", "x"), (_set_signature, "recorded_at", 1.5),
     (_set_signature, "initial_intensity", [1.0]), (_set_signature, "decay_time", float("-inf")),
     (_set_signature, "decay_time", 0.0), (_set_node, "connection_count", -1),
     (_set_top, "base_decay", 0.0), (_set_top, "base_decay", -1.0)],
    ids=["clock", "counter", "dim", "base_intensity", "base_decay", "connection_count",
         "node_base_intensity", "recorded_at-str", "recorded_at-float", "initial_intensity",
         "decay_time-inf", "decay_time-zero", "connection_count-negative", "base_decay-zero",
         "base_decay-negative"],
)
def test_numeric_field_of_wrong_kind_is_rejected(tmp_path, source, where, key, value):
    snapshot = snapshot_of(source)
    where(snapshot, key, value)
    assert_refused(tmp_path, source, snapshot, f"{key} must be")


@pytest.mark.parametrize("source", ["v1", "v2"])
def test_node_id_listed_twice_is_rejected(tmp_path, source):
    snapshot = snapshot_of(source)
    snapshot["nodes"].append({**node_record(snapshot, "a"), "base_intensity": 0.5})
    assert_refused(tmp_path, source, snapshot, "node id 'a' is listed twice")


@pytest.mark.parametrize("source", ["v1", "v2"])
@pytest.mark.parametrize(
    "node_id, key, value",
    [("c0003", "assembly_members", "c0001"), ("c0003", "assembly_members", ["c0001", 2]),
     ("c0001", "assembly_parents", {"c0003": 1}), ("c0003", "assembly_members", ["c0001", "c9999"]),
     ("c0001", "assembly_parents", ["zz"])],
    ids=["members-string", "members-number", "parents-object", "members-unknown-id",
         "parents-unknown-id"],
)
def test_assembly_link_that_is_not_a_node_id_is_rejected(tmp_path, source, node_id, key, value):
    snapshot = snapshot_of(source)
    node_record(snapshot, node_id)[key] = value
    assert_refused(tmp_path, source, snapshot, ".*(node ids|names no node)")


def test_assembly_links_load_as_written(tmp_path):
    mem = HolographicMemory.load(write_snapshot(tmp_path, fixture_memory().snapshot()))
    assert mem.nodes["c0003"].assembly_members == ["c0001", "c0002"]
    assert mem.nodes["c0001"].assembly_parents == {"c0003"}
