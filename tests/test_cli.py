"""CLI tests, driving the argv entry point directly."""

import json
import re
from pathlib import Path

import pytest

from holoscene import blending, cli, errors, lexicon, ontology
from holoscene.cli import main
from holoscene.memory import HolographicMemory

from test_memory import V1_FIXTURE, V2_FIXTURE, V3_FIXTURE, fixture_memory

DEMO = Path(__file__).parents[1] / "src" / "holoscene" / "data" / "demo"


@pytest.fixture()
def built_graph(tmp_path):
    out = tmp_path / "demo.graph"
    assert main(["build-ontology", str(DEMO / "corpus"), "-o", str(out)]) == 0
    return out


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["imagine", "--frobnicate"]) == 2

    def test_unknown_command_is_usage_error(self):
        assert main(["dream"]) == 2

    @pytest.mark.parametrize("option", [["--config", "x"], ["--seed", "99"]], ids=["config", "seed"])
    @pytest.mark.parametrize(
        "argv",
        [["build-ontology", "corpus", "-o", "g.graph"], ["inspect-memory", "m.json"],
         ["export-dot", "g.graph"]],
        ids=["build-ontology", "inspect-memory", "export-dot"],
    )
    def test_only_imagine_takes_config_and_seed(self, capsys, argv, option):
        assert main(argv + option) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestBuildOntology:
    def test_writes_graph_file(self, built_graph):
        text = built_graph.read_text()
        assert text.startswith("# holoscene graph v1")
        assert "node woman entity" in text
        assert "freq woman" in text

    def test_matches_committed_fixture(self, built_graph):
        assert built_graph.read_bytes() == (DEMO / "demo.graph").read_bytes()

    def test_printed_edge_count_is_the_file_edge_count(self, tmp_path, capsys):
        out = tmp_path / "demo.graph"
        assert main(["build-ontology", str(DEMO / "corpus"), "-o", str(out)]) == 0
        edges = sum(1 for line in out.read_text().splitlines() if line.startswith("edge "))
        assert f" nodes, {edges} edges" in capsys.readouterr().out

    def test_corpus_without_content_terms_is_refused(self, tmp_path, capsys):
        corpus = tmp_path / "stopwords"
        corpus.mkdir()
        (corpus / "a.txt").write_text("The a of. Is the!\n")
        (corpus / "b.txt").write_text("")
        out = tmp_path / "empty.graph"
        assert main(["build-ontology", str(corpus), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"corpus directory {corpus} holds no content term" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestImagine:
    def test_writes_script_and_blend(self, built_graph, tmp_path, capsys):
        script = tmp_path / "demo.script.json"
        blend = tmp_path / "demo.blend"
        code = main(
            [
                "imagine",
                str(DEMO / "demo.txt"),
                "--ontology",
                str(built_graph),
                "-o",
                str(script),
                "--blend-out",
                str(blend),
                "--config",
                str(DEMO / "demo.config"),
            ]
        )
        assert code == 0
        record = json.loads(script.read_text())
        assert record["scene_count"] == 3
        assert [s["action"] for s in record["scenes"]] == ["walk", "leave", "take"]
        assert "score woman 1.0 anchored" in blend.read_text()
        out = capsys.readouterr().out
        assert "3 scenes" in out

    def test_default_output_next_to_text(self, built_graph, tmp_path):
        text = tmp_path / "story.txt"
        text.write_text((DEMO / "demo.txt").read_text())
        assert main(["imagine", str(text), "--ontology", str(built_graph)]) == 0
        assert (tmp_path / "story.script.json").exists()

    def test_seed_repetition_is_byte_identical(self, built_graph, tmp_path):
        outputs = []
        for n in range(2):
            script = tmp_path / f"out{n}.json"
            mem = tmp_path / f"mem{n}.json"
            code = main(
                [
                    "imagine",
                    str(DEMO / "demo.txt"),
                    "--ontology",
                    str(built_graph),
                    "-o",
                    str(script),
                    "--memory-out",
                    str(mem),
                    "--seed",
                    "7",
                ]
            )
            assert code == 0
            outputs.append(script.read_bytes() + mem.read_bytes())
        assert outputs[0] == outputs[1]

    def test_corrupt_ontology_reports_stage_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("node sun entity\nedge sun moon related-to 1\n")
        code = main(["imagine", str(DEMO / "demo.txt"), "--ontology", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert "[ontology]" in err and "bad.graph:2" in err

    @pytest.mark.parametrize(
        "record, line_no",
        [("", 2), ("freq ball 0", 92), ("freq ball -3", 92), ("freq ball nan", 92), ("freq ball inf", 92)],
        ids=["missing", "zero", "negative", "nan", "inf"],
    )
    def test_corrupt_frequency_reports_file_and_line(self, tmp_path, capsys, record, line_no):
        lines = (DEMO / "demo.graph").read_text().splitlines()
        at = lines.index(next(line for line in lines if line.startswith("freq ball ")))
        lines[at] = record
        bad = tmp_path / "bad.graph"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "story.script.json"
        code = main(["imagine", str(DEMO / "demo.txt"), "--ontology", str(bad), "-o", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "[ontology]" in err and f"bad.graph:{line_no}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("weight", ["nan", "inf", "0"])
    def test_corrupt_edge_weight_reports_file_and_line(self, tmp_path, capsys, weight):
        lines = (DEMO / "demo.graph").read_text().splitlines()
        at = lines.index("edge ball beach located-on 2")
        lines[at] = f"edge ball beach located-on {weight}"
        bad = tmp_path / "bad.graph"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "story.script.json"
        code = main(["imagine", str(DEMO / "demo.txt"), "--ontology", str(bad), "-o", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "[ontology]" in err and f"bad.graph:{at + 1}:" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_text_file(self, built_graph, capsys):
        code = main(["imagine", "/nowhere/story.txt", "--ontology", str(built_graph)])
        assert code == 1

    def test_non_utf8_text_reports_file_and_line(self, tmp_path, capsys):
        text = tmp_path / "story.txt"
        text.write_bytes(b"A woman walks on the beach.\nThe blue ball \xff was left.\n")
        code = main(["imagine", str(text), "--ontology", str(DEMO / "demo.graph")])
        assert code == 1
        err = capsys.readouterr().err
        assert "story.txt:2: not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, line_no, clause",
        [("..\n", 1, ".."),
         ("\n\n  !?\n", 3, "!?"),
         ("A woman walks on the beach.\n\nThe blue\nball. She kicks it.\n", 3, "the blue ball")],
        ids=["dots", "late-dots", "verbless-sentence"],
    )
    def test_unparseable_text_reports_file_and_line(self, tmp_path, capsys, text, line_no, clause):
        story = tmp_path / "story.txt"
        story.write_text(text)
        assert main(["imagine", str(story), "--ontology", str(DEMO / "demo.graph")]) == 1
        assert capsys.readouterr().err == (
            f"error: [parse] {story}:{line_no}: no verb found in sentence: {clause!r}\n")

    def test_blank_text_reports_file(self, tmp_path, capsys):
        story = tmp_path / "blank.txt"
        story.write_text("  \n\n \t\n")
        assert main(["imagine", str(story), "--ontology", str(DEMO / "demo.graph")]) == 1
        assert capsys.readouterr().err == f"error: {story}: input text is empty\n"

    @pytest.mark.parametrize(
        "records, line_no, message",
        [("dim = abc", 2, "dim must be an integer, not 'abc'"),
         ("mix = half", 2, "mix must be a number, not 'half'"),
         ("dim = 0", 2, "dim=0 outside [1, 1048576]"),
         ("mix = 1.5", 2, "mix=1.5 outside [0.0, 1.0]"),
         ("max_path = 4", 2, "max_path=4 outside [1, 3]"),
         ("dim = 8\ndim = 16", 3, "second value for 'dim'"),
         ("objects_path =", 2, "objects_path must name a file"),
         ("values_path =", 2, "values_path must name a file"),
         ("functions_path =", 2, "functions_path must name a file")],
        ids=["int", "float", "dim-range", "mix-range", "max_path-range", "repeated-key",
             "empty-objects", "empty-values", "empty-functions"],
    )
    def test_unparseable_config_value_reports_file_and_line(self, tmp_path, capsys, records, line_no,
                                                            message):
        config = tmp_path / "bad.config"
        config.write_text(f"# holoscene config\n{records}\n")
        code = main(["imagine", str(DEMO / "demo.txt"), "--ontology", str(DEMO / "demo.graph"),
                     "-o", str(tmp_path / "s.json"), "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {config}:{line_no}: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["objects_path", "values_path", "functions_path", "rules_path"])
    def test_nul_byte_in_config_path_reports_file_and_line(self, tmp_path, capsys, key):
        config = tmp_path / "bad.config"
        config.write_text(f"# holoscene config\n{key} = a\0b\n")
        code = main(["imagine", str(DEMO / "demo.txt"), "--ontology", str(DEMO / "demo.graph"),
                     "-o", str(tmp_path / "s.json"), "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {config}:2: {key}:" in err
        assert "Traceback" not in err

    def test_unparseable_seed_variable_is_named(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HOLOSCENE_SEED", "x")
        code = main(["imagine", str(DEMO / "demo.txt"), "--ontology", str(DEMO / "demo.graph"),
                     "-o", str(tmp_path / "s.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: HOLOSCENE_SEED must be an integer, not 'x'" in err
        assert "Traceback" not in err


class TestInspectAndDot:
    def test_inspect_memory(self, built_graph, tmp_path, capsys):
        mem = tmp_path / "mem.json"
        main(
            [
                "imagine",
                str(DEMO / "demo.txt"),
                "--ontology",
                str(built_graph),
                "-o",
                str(tmp_path / "s.json"),
                "--memory-out",
                str(mem),
            ]
        )
        capsys.readouterr()
        assert main(["inspect-memory", str(mem)]) == 0
        out = capsys.readouterr().out
        assert "clock 2" in out
        assert "sensory" in out and "primary" in out

    @pytest.mark.parametrize(
        "content, where",
        [(b'{\n  "dim": 512,\n  oops\n}\n', "snap.json:3: not a JSON snapshot"),
         (b'{"version": 4, "dim": 512}\n', "snap.json: snapshot lacks key 'seed'"),
         (b'{\n  "dim": "\xff"\n}\n', "snap.json:2: not UTF-8 text")],
        ids=["not-json", "missing-key", "not-utf8"],
    )
    def test_corrupt_snapshot_reports_file(self, tmp_path, capsys, content, where):
        snap = tmp_path / "snap.json"
        snap.write_bytes(content)
        assert main(["inspect-memory", str(snap)]) == 1
        err = capsys.readouterr().err
        assert where in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, value",
        [("level", "bogus"), ("recipe", ["x"]), ("recipe", "man"), ("nodes", 3)],
        ids=["level", "recipe", "recipe-of-another-vector", "nodes"],
    )
    def test_snapshot_value_of_wrong_kind_reports_file(self, tmp_path, capsys, field, value):
        mem = HolographicMemory(dim=8)
        mem.observe({("woman", 0)})
        snapshot = mem.snapshot()
        if field == "nodes":
            snapshot["nodes"] = value
        else:
            snapshot["nodes"][0][field] = value
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps(snapshot))
        assert main(["inspect-memory", str(snap)]) == 1
        err = capsys.readouterr().err
        assert f"error: {snap}: bad snapshot value" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, value",
        [("level", "bogus"), ("vector", ["x"]), ("nodes", 3)],
        ids=["level", "vector", "nodes"],
    )
    def test_v1_snapshot_value_of_wrong_kind_reports_file(self, tmp_path, capsys, field, value):
        # refused for its version, which is read before any other key
        snapshot = json.loads(V1_FIXTURE.read_text())
        if field == "nodes":
            snapshot["nodes"] = value
        else:
            snapshot["nodes"][0][field] = value
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps(snapshot))
        assert main(["inspect-memory", str(snap)]) == 1
        err = capsys.readouterr().err
        assert f"error: {snap}: bad snapshot value: unknown snapshot version 1\n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value",
        [("recorded_at", "x"), ("decay_time", 0), ("initial_intensity", None)],
    )
    def test_snapshot_numeric_value_of_wrong_kind_reports_file(self, tmp_path, capsys, key, value):
        mem = HolographicMemory(dim=8)
        mem.observe({("woman", 0)})
        snapshot = mem.snapshot()
        snapshot["nodes"][0]["signatures"][0][key] = value
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps(snapshot))
        assert main(["inspect-memory", str(snap)]) == 1
        err = capsys.readouterr().err
        assert f"error: {snap}: bad snapshot value: {key} must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "value, message",
        [("c0001", "assembly_members must be a list of node ids"),
         (["c0001", 7], "assembly_members must be a list of node ids"),
         (["c0001", "c9999"], "assembly link 'c9999' of node 'c0003' names no node")],
        ids=["string", "number", "unknown-id"],
    )
    def test_snapshot_assembly_link_that_is_not_a_node_id_reports_file(self, tmp_path, capsys, value,
                                                                       message):
        snapshot = fixture_memory().snapshot()
        next(rec for rec in snapshot["nodes"] if rec["id"] == "c0003")["assembly_members"] = value
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps(snapshot))
        assert main(["inspect-memory", str(snap)]) == 1
        err = capsys.readouterr().err
        assert f"error: {snap}: bad snapshot value: {message}" in err
        assert "Traceback" not in err

    def test_demo_snapshot_stores_each_vector_once(self, tmp_path):
        mem = tmp_path / "mem.json"
        assert main(["imagine", str(DEMO / "demo.txt"), "--ontology", str(DEMO / "demo.graph"),
                     "-o", str(tmp_path / "s.json"), "--memory-out", str(mem)]) == 0
        snapshot = json.loads(mem.read_text())
        assert snapshot["version"] == 4 and "vectors" not in snapshot
        assert not any("vector" in rec or any("vector" in s for s in rec["signatures"]) for rec in snapshot["nodes"])
        assert all(rec["recipe"] == rec["id"] for rec in snapshot["nodes"] if rec["level"] == "sensory")
        made = [rec["recipe"] for rec in snapshot["nodes"] if rec["level"] != "sensory"]
        assert made and all(set(recipe) == {"sum"} for recipe in made)
        assert re.fullmatch("[0-9a-f]{64}", snapshot["vectors_sha256"])

    def test_v2_snapshot_is_refused_naming_the_file(self, capsys):
        assert main(["inspect-memory", str(V2_FIXTURE)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {V2_FIXTURE}: bad snapshot value: unknown snapshot version 2\n"

    def test_v3_snapshot_is_refused_naming_the_file(self, capsys):
        assert main(["inspect-memory", str(V3_FIXTURE)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {V3_FIXTURE}: bad snapshot value: unknown snapshot version 3\n"

    def test_export_dot_graph_and_blend(self, built_graph, tmp_path, capsys):
        blend = tmp_path / "demo.blend"
        main(
            [
                "imagine",
                str(DEMO / "demo.txt"),
                "--ontology",
                str(built_graph),
                "-o",
                str(tmp_path / "s.json"),
                "--blend-out",
                str(blend),
                "--config",
                str(DEMO / "demo.config"),
            ]
        )
        capsys.readouterr()
        dot_file = tmp_path / "blend.dot"
        assert main(["export-dot", str(blend), "-o", str(dot_file)]) == 0
        dot = dot_file.read_text()
        assert 'fillcolor="yellow"' in dot and 'fillcolor="blue"' in dot
        assert main(["export-dot", str(built_graph)]) == 0
        out = capsys.readouterr().out
        assert "graph ontology {" in out

    def test_export_dot_reads_a_graph_that_names_a_blender(self, tmp_path, capsys):
        # only the header save_blend writes makes a file a blend, not the
        # word "blend" on its first line
        graph = tmp_path / "g.graph"
        graph.write_text("node blender entity\nnode sun entity\nedge blender sun related-to 1\n"
                         "freq blender 1\nfreq sun 1\n")
        assert main(["export-dot", str(graph)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph ontology {")
        assert '"blender" -- "sun"' in out


@pytest.mark.parametrize("kind", ["graph", "blend"])
def test_export_dot_decodes_its_input_once(tmp_path, capsys, monkeypatch, kind):
    """The DOT of a graph or blend file is its loader's, and the file is
    decoded once, by the loader, which parses it afresh here: the CLI reads
    only the header's bytes."""
    if kind == "graph":
        path = DEMO / "demo.graph"
        want = ontology.to_dot(ontology.load_graph(path)[0])
    else:
        path = tmp_path / "small.blend"
        path.write_text("# holoscene blend v1\nnode ball entity\nnode sand entity\nedge ball sand near 1\n"
                        "score ball 1 anchored\nscore sand 0.5 expanded\n", encoding="utf-8")
        want = blending.blend_to_dot(blending.load_blend(path))
    decoded = []

    def decode_text(path, data):
        decoded.append(path)
        return decode(path, data)

    decode = errors.decode_text
    monkeypatch.setattr(errors, "decode_text", decode_text)  # read_text's, wherever it is called
    monkeypatch.setattr(ontology, "decode_text", decode_text)
    monkeypatch.setattr(ontology, "_kept", (b"", None))
    assert main(["export-dot", str(path)]) == 0
    assert capsys.readouterr().out == want
    assert decoded == [str(path)]


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    """Calls of ``main`` share one parser, and one call's options do not
    leak into the next."""
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        out = tmp_path / "demo.dot"
        assert main(["export-dot", str(DEMO / "demo.graph"), "-o", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert main(["export-dot", str(DEMO / "demo.graph")]) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def _spoiled(source, path, line_no):
    """Copy ``source`` to ``path`` with a 0xff byte opening line ``line_no``."""
    lines = Path(source).read_bytes().splitlines(keepends=True)
    lines[line_no - 1] = b"\xff" + lines[line_no - 1]
    Path(path).write_bytes(b"".join(lines))
    return str(path)


def _config_case(tmp, monkeypatch):
    config = _spoiled(DEMO / "demo.config", tmp / "bad.config", 2)
    return ["imagine", str(DEMO / "demo.txt"), "--ontology", str(DEMO / "demo.graph"),
            "-o", str(tmp / "s.json"), "--config", config], "bad.config:2:"


def _imagine_graph_case(tmp, monkeypatch):
    graph = _spoiled(DEMO / "demo.graph", tmp / "bad.graph", 7)
    return ["imagine", str(DEMO / "demo.txt"), "--ontology", graph,
            "-o", str(tmp / "s.json")], "bad.graph:7:"


def _dot_graph_case(tmp, monkeypatch):
    return ["export-dot", _spoiled(DEMO / "demo.graph", tmp / "bad.graph", 7)], "bad.graph:7:"


def _blend_case(tmp, monkeypatch):
    blend = tmp / "bad.blend"
    blend.write_bytes(b"# holoscene blend v1\nnode ball entity\nnode \xff entity\n")
    return ["export-dot", str(blend)], "bad.blend:3:"


def _objects_case(tmp, monkeypatch):
    monkeypatch.setenv("HOLOSCENE_OBJECTS", _spoiled(DEMO / "demo.objects", tmp / "bad.objects", 4))
    return ["imagine", str(DEMO / "demo.txt"), "--ontology", str(DEMO / "demo.graph"),
            "-o", str(tmp / "s.json")], "bad.objects:4:"


def _corpus_case(tmp, monkeypatch):
    corpus = tmp / "corpus"
    corpus.mkdir()
    for doc in sorted((DEMO / "corpus").iterdir()):
        (corpus / doc.name).write_bytes(doc.read_bytes())
    _spoiled(DEMO / "corpus" / "scene.txt", corpus / "scene.txt", 2)
    return ["build-ontology", str(corpus), "-o", str(tmp / "out.graph")], "scene.txt:2:"


@pytest.mark.parametrize(
    "case",
    [_config_case, _imagine_graph_case, _dot_graph_case, _blend_case, _objects_case, _corpus_case],
    ids=["config", "imagine-graph", "export-dot-graph", "blend", "objects", "corpus"],
)
def test_input_that_is_not_utf8_reports_file_and_line(tmp_path, capsys, monkeypatch, case):
    argv, where = case(tmp_path, monkeypatch)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{where} not UTF-8 text" in err
    assert "Traceback" not in err


def _malformed(source, path, record):
    """Copy ``source`` to ``path`` with ``record`` appended as a last line;
    returns the ``FILE:LINE:`` that names it."""
    text = Path(source).read_text() if source else "# written by a test\n"
    Path(path).write_text(text + record + "\n")
    return f"{Path(path).name}:{text.count(chr(10)) + 1}:"


def _imagine(tmp, *extra):
    return ["imagine", str(DEMO / "demo.txt"), "--ontology", str(DEMO / "demo.graph"),
            "-o", str(tmp / "s.json"), *extra]


def _env_case(variable, source, record):
    def case(tmp, monkeypatch):
        path = tmp / Path(source).name
        where = _malformed(source, path, record)
        monkeypatch.setenv(variable, str(path))
        return _imagine(tmp), where
    return case


def _rules_case(tmp, monkeypatch):
    where = _malformed(None, tmp / "bad.rules", "rock-region ->")
    config = tmp / "bad.config"
    config.write_text("rules_path = bad.rules\n")
    return _imagine(tmp, "--config", str(config)), where


def _lexicon_case(name, record):
    def case(tmp, monkeypatch):
        data_path = lexicon._data_path
        path = tmp / name
        where = _malformed(data_path(name), path, record)
        monkeypatch.setattr(lexicon, "_data_path", lambda n: path if n == name else data_path(n))
        lexicon.default_lexicon.cache_clear()
        return _imagine(tmp), where
    return case


@pytest.mark.parametrize(
    "case",
    [_env_case("HOLOSCENE_OBJECTS", DEMO / "demo.objects", "woman"),
     _env_case("HOLOSCENE_VALUES", DEMO / "demo.values", "tall height"),
     _env_case("HOLOSCENE_FUNCTIONS", DEMO / "demo.functions", "take actor:human"),
     _env_case("HOLOSCENE_FUNCTIONS", DEMO / "demo.functions", "-> hand:position"),
     _rules_case,
     _lexicon_case("adjectives.txt", "blue"),
     _lexicon_case("relations.txt", "part of")],
    ids=["objects", "values", "functions", "functions-no-name", "rewrite-rules", "word-map",
         "relation-patterns"],
)
def test_malformed_line_reports_file_and_line(tmp_path, capsys, monkeypatch, case):
    argv, where = case(tmp_path, monkeypatch)
    try:
        assert main(argv) == 1
    finally:
        lexicon.default_lexicon.cache_clear()
    err = capsys.readouterr().err
    assert where in err
    assert "Traceback" not in err
