"""CLI tests, driving the argv entry point directly."""

import json
from pathlib import Path

import pytest

from holoscene.cli import main

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


class TestBuildOntology:
    def test_writes_graph_file(self, built_graph):
        text = built_graph.read_text()
        assert text.startswith("# holoscene graph v1")
        assert "node woman entity" in text
        assert "freq woman" in text

    def test_matches_committed_fixture(self, built_graph):
        assert built_graph.read_bytes() == (DEMO / "demo.graph").read_bytes()


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
        "record, message",
        [("dim = abc", "dim must be an integer, not 'abc'"),
         ("mix = half", "mix must be a number, not 'half'")],
        ids=["int", "float"],
    )
    def test_unparseable_config_value_reports_file_and_line(self, tmp_path, capsys, record, message):
        config = tmp_path / "bad.config"
        config.write_text(f"# holoscene config\n{record}\n")
        code = main(["imagine", str(DEMO / "demo.txt"), "--ontology", str(DEMO / "demo.graph"),
                     "-o", str(tmp_path / "s.json"), "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {config}:2: {message}" in err
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
         (b'{"dim": 512}\n', "snap.json: snapshot lacks key 'seed'"),
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
