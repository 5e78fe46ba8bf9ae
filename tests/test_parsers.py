"""Property tests for every input file parser.

Each parser reads arbitrary bytes and well-formed records with fields
replaced, dropped or repeated. Whatever it reads, it either loads or raises
a :class:`HolosceneError`; nothing else may escape. The CLI commands that
read these files exit 0 or 1, never with a traceback, and exit 1 whenever
the parser refuses the file. Every line-oriented parser reads its lines the
same way: blank lines, ``#`` comments and CRLF ends change neither what it
loads nor the line its errors name, and only a line feed ends a line (a
lone carriage return does not).
``imagine`` on random texts over the demo vocabulary fails, if at all, with
a typed error in every stage.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from holoscene import lexicon
from holoscene.blending import BlendedSpace, load_blend
from holoscene.cli import main
from holoscene.errors import GraphFormatError, HolosceneError, StageError
from holoscene.memory import HolographicMemory
from holoscene.ontology import OntologyGraph, TermObjectMap, ValueMap, load_graph, load_rewrite_rules
from holoscene.pipeline import PipelineConfig, load_config, run_pipeline
from holoscene.scenario import load_actor_functions

DEMO = Path(__file__).parents[1] / "src" / "holoscene" / "data" / "demo"

GRAPH = """# holoscene graph v1
node ball entity
node beach entity
node sand entity
edge ball beach located-on 2
edge beach sand related-to 1
freq ball 2
freq beach 3
freq sand 1
triple ball beach sand 1"""

BLEND = """# holoscene blend v1
node ball entity
node beach entity
edge ball beach located-on 2
score ball 1.0 anchored
score beach 0.25 confabulated"""

CONFIG = "\n".join(
    [line for line in (DEMO / "demo.config").read_text().splitlines() if "=" in line]
    + [f"{key}_path = {DEMO / f'demo.{key}'}" for key in ("objects", "values", "functions")]
    + ["rules_path = rules.txt"]
)

TABLES = {
    "stopwords": (lexicon.load_stopwords, "a about above\nbe been"),
    "verbs": (lexicon.load_verbs, "walk walks walked walking\ntake takes took taken taking"),
    "word-map": (lexicon.load_word_map, "blue color\nwoman female"),
    "relation-patterns": (lexicon.load_relation_patterns, "part of -> part-of\nhas -> has-a"),
    "rewrite-rules": (load_rewrite_rules, "beach -> sand\nball -> hand"),
    "objects": (TermObjectMap.load, (DEMO / "demo.objects").read_text()),
    "values": (ValueMap.load, (DEMO / "demo.values").read_text()),
    "functions": (load_actor_functions, (DEMO / "demo.functions").read_text()),
}

LINE_PARSERS = {**TABLES, "graph": (load_graph, GRAPH), "blend": (load_blend, BLEND),
                "config": (load_config, CONFIG)}
# a line each parser refuses; any line is a stop-word or verb record
MALFORMED = {
    "word-map": "blue", "relation-patterns": "part of", "rewrite-rules": "beach ->",
    "objects": "woman", "values": "tall height", "functions": "take actor:human",
    "graph": "edge ball", "blend": "score ball", "config": "dim 5",
}

_FIELDS = st.sampled_from(
    ["", "x", "0", "-1", "2", "0.5", "1e999", "nan", "inf", "\x00", "a\x00b", "#", "->", ":", ",",
     "=", "node", "score", "ball"]
) | st.text(max_size=6)


@st.composite
def mutated(draw, text):
    """``text`` with one to three of its lines changed: a space-separated
    field replaced or appended, a NUL byte put in, or the line dropped or
    repeated."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        at = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["field", "field", "field", "nul", "drop", "repeat"]))
        if action == "drop":
            del lines[at]
        elif action == "repeat":
            lines.insert(at, lines[at])
        elif action == "nul":
            i = draw(st.integers(0, len(lines[at])))
            lines[at] = lines[at][:i] + "\x00" + lines[at][i:]
        else:
            fields = lines[at].split(" ")
            i = draw(st.integers(0, len(fields)))
            fields[i:i + 1] = [draw(_FIELDS)]
            lines[at] = " ".join(fields)
    return ("\n".join(lines) + "\n").encode("utf-8")


# blanks a reader must treat as a field break, as str.split does
_BREAKS = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u3000"])


# lines a reader must skip, and a record's surroundings it must strip
_SKIPPED = st.sampled_from(["", "   ", "\r", "# a comment", "  # indented comment", "#node x entity"])


@st.composite
def reshaped(draw, text):
    """``text`` :func:`mutated`, then its lines sorted or not, blank and
    comment lines put in anywhere and some of its spaces made other
    blanks."""
    lines = draw(mutated(text)).decode("utf-8").split("\n")
    lines = sorted(lines) if draw(st.booleans()) else lines
    for at, line in draw(st.lists(st.tuples(st.integers(0, 99), _SKIPPED), max_size=4)):
        lines.insert(at % len(lines), line)  # before the at-th line (cyclically)
    text = "\n".join(lines)
    for at, blank in draw(st.lists(st.tuples(st.integers(0, 99), _BREAKS), max_size=6)):
        spaces = [i for i, char in enumerate(text) if char == " "]
        if spaces:  # the at-th space (cyclically) becomes the blank
            i = spaces[at % len(spaces)]
            text = text[:i] + blank + text[i + 1:]
    return text.encode("utf-8")


def inputs(text):
    return st.binary(max_size=200) | mutated(text)


@contextlib.contextmanager
def written(data: bytes, name: str = "input"):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, name)
        path.write_bytes(data)
        yield path


def refuses(load, path) -> bool:
    """Whether ``load`` refuses ``path``; any error but a
    :class:`HolosceneError` escapes and fails the test."""
    try:
        load(path)
    except HolosceneError:
        return True
    return False


def run_cli(argv, refused: bool) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    assert code in (0, 1)
    assert (code == 1) == err.getvalue().startswith("error:")
    if refused:
        assert code == 1


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)
CLI_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@PROPERTY
@given(inputs(GRAPH))
def test_graph_parser_raises_only_typed_errors(data):
    with written(b"# holoscene graph v1\n" + data) as path:
        refused = refuses(load_graph, path)
        run_cli(["export-dot", str(path)], refused)


@PROPERTY
@given(inputs(BLEND))
def test_blend_parser_raises_only_typed_errors(data):
    with written(b"# holoscene blend v1\n" + data) as path:
        refused = refuses(load_blend, path)
        run_cli(["export-dot", str(path)], refused)


@PROPERTY
@given(inputs(CONFIG))
@example(b"objects_path = a\x00b\n")
def test_config_parser_raises_only_typed_errors(data):
    with written(data) as path:
        refuses(load_config, path)


@CLI_PROPERTY
@given(inputs(CONFIG))
@example(b"values_path = a\x00b\n")
@example(b"objects_path =\n")
def test_imagine_with_any_config_exits_without_traceback(data):
    with written(data, "story.config") as path:
        path.with_name("rules.txt").write_text("beach -> sand\n")
        refused = refuses(load_config, path)
        run_cli(["imagine", str(DEMO / "demo.txt"), "--ontology", str(DEMO / "demo.graph"),
                 "-o", str(path.with_name("s.json")), "--config", str(path)], refused)


@pytest.mark.parametrize("name", sorted(TABLES))
@PROPERTY
@given(data=st.data())
def test_table_parsers_raise_only_typed_errors(name, data):
    load, text = TABLES[name]
    with written(data.draw(inputs(text))) as path:
        refuses(load, path)


def _decorated(text: str) -> bytes:
    """``text`` with a blank line, a line of spaces and an indented ``#``
    comment before each of its lines, and CRLF line ends; its line ``n``
    becomes line ``4 * n``."""
    lines = []
    for line in text.splitlines():
        lines += ["", "  \t", "   # a comment", line]
    return ("\r\n".join(lines) + "\r\n").encode("utf-8")


def _view(loaded):
    """``loaded`` with each graph in it replaced by its nodes and edges,
    which compare by value."""
    if isinstance(loaded, OntologyGraph):
        return loaded.nodes, loaded.edges()
    if isinstance(loaded, BlendedSpace):
        return loaded, _view(loaded.subgraph)
    if isinstance(loaded, tuple):
        return tuple(_view(item) for item in loaded)
    return loaded


@pytest.mark.parametrize("name", sorted(LINE_PARSERS))
def test_line_parsers_skip_blanks_comments_and_crlf_alike(tmp_path, name):
    load, text = LINE_PARSERS[name]
    plain, decorated = tmp_path / "plain", tmp_path / "decorated"
    plain.write_text(text + "\n")
    decorated.write_bytes(_decorated(text))
    assert _view(load(decorated)) == _view(load(plain))
    if name not in MALFORMED:
        return
    text += "\n" + MALFORMED[name]
    plain.write_text(text + "\n")
    decorated.write_bytes(_decorated(text))
    line_no = len(text.splitlines())
    messages = []
    for path, where in ((plain, f"{plain}:{line_no}: "), (decorated, f"{decorated}:{4 * line_no}: ")):
        with pytest.raises(HolosceneError) as err:
            load(path)
        assert str(err.value).startswith(where)
        messages.append(str(err.value)[len(where):])
    assert messages[0] == messages[1]


@pytest.mark.parametrize("name, text", [
    ("word-map", "blue color\nwoman female\nblue shade"),
    ("objects", "ball ball_01\nwoman woman_01\nball ball_02"),
    ("values", "blue color 240\nblue size 1\nblue color 0"),
    ("functions", "take a:human -> hand:position\ngive a:human -> gift:prop\ntake x:prop -> y:prop"),
    ("relation-patterns", "part of -> part-of\nhas -> has-a\npart of -> near"),
], ids=["word-map", "objects", "values", "functions", "relation-patterns"])
def test_a_second_record_for_a_table_key_fails_at_its_line(tmp_path, name, text):
    path = tmp_path / "table"
    path.write_text(text + "\n")
    with pytest.raises(GraphFormatError, match="second record for") as err:
        TABLES[name][0](path)
    assert err.value.line_no == 3


@pytest.mark.parametrize("name, text, loaded", [
    ("rewrite-rules", "beach -> sand\nbeach -> shore", {"beach": ["sand", "shore"]}),
    ("stopwords", "a the\na", frozenset({"a", "the"})),
    ("verbs", "walk walks\nwalk walked", {"walk": "walk", "walks": "walk", "walked": "walk"}),
], ids=["rewrite-rules", "stopwords", "verbs"])
def test_tables_of_several_records_per_key_keep_them(tmp_path, name, text, loaded):
    path = tmp_path / "table"
    path.write_text(text + "\n")
    assert TABLES[name][0](path) == loaded


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_only_newlines_number_lines(tmp_path, name, separator):
    # other line breaks that str.splitlines knows, at the end of the first
    # line, shift no later line's number
    load, text = LINE_PARSERS[name]
    first, *rest = text.splitlines()
    path = tmp_path / "input"
    path.write_text("\n".join([first + separator, *rest, MALFORMED[name]]) + "\n")
    with pytest.raises(HolosceneError, match=f"^{re.escape(str(path))}:{len(rest) + 2}: "):
        load(path)


def test_export_dot_names_the_line_after_a_form_feed(tmp_path, capsys):
    path = tmp_path / "ff.graph"
    path.write_text("node a entity\x0c\nnode b entity\nbogus record\n")
    assert main(["export-dot", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:3: unrecognized record 'bogus'\n"


def test_a_lone_carriage_return_ends_no_line(tmp_path, capsys):
    # both files are one line, so both errors name line 1, whether the
    # record fails to parse or a byte is not UTF-8
    for name, data in (("cr.graph", b"node a entity\rnode b entity\rbogus record\n"),
                       ("crff.graph", b"node a entity\rnode b entity\rnode c\xff entity\n")):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["export-dot", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:1: ")


def test_a_term_holding_a_next_line_fails_at_its_own_line(tmp_path):
    # split at \x85, "node sand en" would load and "tity" fail a line later
    path = tmp_path / "nel.graph"
    path.write_text(GRAPH.replace("node sand entity", "node sand en\x85tity") + "\n")
    with pytest.raises(GraphFormatError, match="unrecognized record 'node'") as err:
        load_graph(path)
    assert err.value.line_no == 4


_STORY_WORDS = sorted(set(re.findall(r"\w+", (DEMO / "demo.txt").read_text() + (DEMO / "demo_alt.txt").read_text()))
                      | {"and", "is", "left", "hand", "sand", "kicks", "A"})
_STORIES = st.lists(st.sampled_from(_STORY_WORDS + [".", ".", ",", "!", "?"]), max_size=14).map(" ".join)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_STORIES)
@example("..")
@example("blue takes kicks on ball. The woman left is A")
def test_imagine_on_any_story_fails_only_with_typed_errors(text):
    # a failing stage wraps a typed error, never a bare one
    try:
        run_pipeline(PipelineConfig(), text, ontology_path=DEMO / "demo.graph")
    except StageError as exc:
        assert isinstance(exc.cause, HolosceneError), repr(exc.cause)
    except HolosceneError:
        pass
    with written(text.encode("utf-8"), "story.txt") as path:
        run_cli(["imagine", str(path), "--ontology", str(DEMO / "demo.graph"),
                 "-o", str(path.with_name("s.json"))], refused=False)


def _snapshot_v2():
    mem = HolographicMemory(dim=4)
    mem.observe({("woman", 0), ("ball", 0)})
    mem.observe({("woman", 1)})
    return mem.snapshot()


SNAPSHOT = _snapshot_v2()
_JSON_VALUES = st.sampled_from(
    [None, True, False, -1, 0, 1, 2, 1.5, 2 ** 40, -(2 ** 40), float("nan"), float("inf"),
     "x", "", "sensory", "woman", [], {}, [None], [0.5, 0.5, 0.5, 0.5], {"id": "x"}]
)


def _places(value, at=()):
    """The key paths of every value nested in a JSON document."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, inner in items:
        yield at + (key,)
        yield from _places(inner, at + (key,))


@st.composite
def mutated_snapshot(draw):
    """A snapshot with one to three values replaced or their keys deleted;
    half of them top-level values."""
    snapshot = json.loads(json.dumps(SNAPSHOT))
    for _ in range(draw(st.integers(1, 3))):
        places = list(_places(snapshot))
        place = draw(st.sampled_from([p for p in places if len(p) == 1]) | st.sampled_from(places))
        holder = snapshot
        for key in place[:-1]:
            holder = holder[key]
        if isinstance(holder, dict) and draw(st.booleans()):
            del holder[place[-1]]
        else:
            holder[place[-1]] = draw(_JSON_VALUES)
    return json.dumps(snapshot).encode("utf-8")


@PROPERTY
@given(st.binary(max_size=200) | mutated_snapshot())
@example(b"1" * 5000)
@example(b"[" * 100_000)
@example(json.dumps({**SNAPSHOT, "dim": 2 ** 40}).encode())
def test_snapshot_parser_raises_only_typed_errors(data):
    with written(data) as path:
        refused = refuses(HolographicMemory.load, path)
        run_cli(["inspect-memory", str(path)], refused)
