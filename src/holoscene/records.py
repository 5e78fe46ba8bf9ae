"""The line-record format of graph and blend files: one reader and one
writer for both, which know records and columns, not graphs.

A file is a header comment and one record per line: a kind's word, then
its fields, split at whitespace. Graph files hold ``node``, ``edge``,
``freq`` and ``triple`` records, blend files ``node``, ``edge`` and
``score`` records. ``ontology`` builds graphs and statistics from what is
read here, and hands the graph's columns to the writer.

The reader, :func:`_read_records`, is given the decoded text and the kinds
a file may hold. It cuts the text at line ends into blocks of about
``_READ`` characters, and each block into lines by the rule every input
file is read by, :func:`errors.line_runs`: stripped lines, no blank or
comment line, in runs that start with one character, which names the
kind. A run costs one ``str.split``: its lines are joined with an end
token (a NUL, or a lone surrogate in a text with a NUL) that must then
fall after every record, and its fields are taken by stride. Every kind's fields become compact columns: each term an int id
into one first-seen name table per file, each number a float, parsed once
per distinct text, and each label, node type or provenance the one shared
string of its value. A block's strings are then dropped, so no kind's
fields are ever all alive as strings at once. Line numbers are worked out
only when a check fails, from the same text and by the same rule, to name
the first bad line.

The writer, :func:`_record_text`, takes each field of a kind's records as
a column: a table of distinct strings (the terms, the labels, the node
types, the provenances, or the text of each distinct weight, count or
score) and each record's index into it. Each string is formatted once,
with the separator that follows it; ``_BLOCK`` records at a time are
gathered by index and joined into one string, and :func:`_write_records`
writes the file a block at a time, never held whole. Distinct numbers are
told apart by bit pattern, so that 0.0 and -0.0 keep their own texts.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import chain, count

import numpy as np

from .errors import GraphFormatError, line_runs

_BLOCK = 1024  # records decoded or written at a time
_READ = 1 << 15  # characters of a graph or blend file parsed at a time, about _BLOCK lines
PROVENANCES = ("anchored", "expanded", "confabulated")  # how a term entered a blend


class _TooManyTerms(ValueError):
    """A term table larger than triple codes can number. It is a fault of a
    whole graph file, not of one line, so ``load_graph`` names no line."""


# -- writing -------------------------------------------------------------------


def _counts(values: np.ndarray) -> list:
    """Each float of ``values`` as a record writes it, so that it reads back
    as the same float: a whole number in [0, 10^6), as nearly every count
    is, as an int, which formats as ``:g`` would format the float; any
    other as its ``:g`` text where that is exact, else as its ``repr``."""
    other = (values != np.trunc(values)) | ~(np.abs(values) < 1e6) | np.signbit(values)
    texts = np.where(other, 0, values).astype(np.int64).tolist()
    for at in np.flatnonzero(other).tolist():
        value = float(values[at])
        texts[at] = f"{value:g}" if float(f"{value:g}") == value else repr(value)
    return texts


def _number_column(values: np.ndarray) -> tuple:
    """The floats ``values`` as a :func:`_record_text` column: the
    :func:`_counts` text of each distinct float, told apart by bit pattern
    so that 0.0 and -0.0 keep their own texts, and each value's index into
    them."""
    bits, ids = np.unique(values.view(np.int64), return_inverse=True)
    return _counts(bits.view(float)), ids


def _text_column(texts: list) -> tuple:
    """``texts`` as a :func:`_record_text` column: its distinct strings and
    each one's index into them."""
    table = list(dict.fromkeys(texts))
    number = dict(zip(table, range(len(table))))
    return table, np.fromiter(map(number.__getitem__, texts), dtype=np.intp, count=len(texts))


def _record_text(kind: str, *columns):
    """The text of one ``kind`` record per row of ``columns``, a block of
    ``_BLOCK`` lines at a time. Each column is a pair ``(table, ids)``: its
    distinct strings and an array of each row's index into them. Each table
    entry is formatted once, with the separator that follows it; a block's
    lines are gathered by ids into an object array, the kind first, and
    joined once."""
    ends = [" "] * (len(columns) - 1) + ["\n"]
    tables = [np.array([f"{text}{end}" for text in table], dtype=object)
              for (table, _), end in zip(columns, ends)]
    n = len(columns[0][1])
    for at in range(0, n, _BLOCK):
        rows = np.empty((min(_BLOCK, n - at), len(columns) + 1), dtype=object)
        rows[:, 0] = kind + " "
        for j, (table, (_, ids)) in enumerate(zip(tables, columns), 1):
            rows[:, j] = table[ids[at:at + _BLOCK]]
        yield "".join(rows.ravel().tolist())


def _write_records(path, header: str, *blocks) -> None:
    """Write ``header`` and then the text blocks of each of ``blocks`` to
    ``path``, one block at a time."""
    with open(path, "w", encoding="utf-8") as out:
        out.write(header + "\n")
        out.writelines(chain(*blocks))


# -- reading -------------------------------------------------------------------


_COLUMNS = {"node": "ts", "edge": "ttsf", "freq": "tf", "triple": "tttf", "score": "tfs"}  # see _columns
_WIDTHS = {kind: 1 + len(types) for kind, types in _COLUMNS.items()}  # fields per record, the kind included


class _Numbers(dict):
    """Each number text of a file read so far, mapped to its float. A file
    holds few distinct counts, so each is parsed once."""

    def __missing__(self, text):
        self[text] = value = float(text)
        return value


def _fields(kind: str, lines: list, end: str) -> list:
    """The fields after the kind of ``lines``, stripped lines that should
    each be a ``kind`` record, one list per field; ValueError if one is
    not. All lines are split at once, each ended by the token ``end``,
    which no line holds and which must then fall after every record and
    nowhere else."""
    width, n = _WIDTHS[kind], len(lines)
    stride = width + 1
    tokens = f" {end} ".join([*lines, ""]).split()
    if len(tokens) != n * stride or tokens[width::stride].count(end) != n:
        raise ValueError(f"a {kind} record with another number of fields")
    columns = [tokens[i::stride] for i in range(width)]
    if columns[0].count(kind) != n:
        raise ValueError(f"a record that is not {kind}")
    return columns[1:]


def _columns(kind: str, lines: list, end: str, names: defaultdict, shared: dict, numbers: _Numbers) -> list:
    """The :func:`_fields` of the ``kind`` records ``lines``, each ended by
    ``end``, as compact columns, by the field's letter in ``_COLUMNS``: a
    term (``t``) as an int64 array of ids into ``names``, a term to id
    table that numbers each new term as it comes; a number (``f``) as a
    float array, each distinct text parsed once by ``numbers``; any other
    text (``s``) as a list holding the one string of ``shared`` equal to
    it. ValueError if a record or a number does not parse."""
    columns = []
    for letter, fields in zip(_COLUMNS[kind], _fields(kind, lines, end)):
        if letter == "t":
            columns.append(np.fromiter(map(names.__getitem__, fields), dtype=np.int64, count=len(fields)))
        elif letter == "f":
            columns.append(np.fromiter(map(numbers.__getitem__, fields), dtype=float, count=len(fields)))
        else:
            columns.append(list(map(shared.setdefault, fields, fields)))
    return columns


def _first_fault(kind: str, lines: list):
    """``(index, message)`` of the first of ``lines`` that is not a ``kind``
    record of the right width, or names an unknown provenance, repeats the
    term (or sorted term triple) of an earlier one, or holds a number that
    does not parse, a count that is not finite and positive or a score
    outside [0, 1]; None if there is none. The graph checks edge weights."""
    seen = set()
    for at, line in enumerate(lines):
        fields = line.split()
        try:
            if fields[0] != kind or len(fields) != _WIDTHS[kind]:
                raise ValueError(f"unrecognized record {fields[0]!r}")
            if kind == "score" and fields[3] not in PROVENANCES:
                raise ValueError(f"unknown provenance {fields[3]!r}")
            if kind != "edge":
                key = " ".join(sorted(fields[1:4])) if kind == "triple" else fields[1]
                if key in seen:
                    raise ValueError(f"second {kind} record for {key!r}")
                seen.add(key)
            if kind != "node":
                count = float(fields[2 if kind == "score" else -1])
                if kind == "score" and not 0.0 <= count <= 1.0:
                    raise ValueError(f"score must be a number in [0, 1], not {fields[2]!r}")
                if kind in ("freq", "triple") and not 0.0 < count < math.inf:
                    raise ValueError(f"{kind} count must be finite and positive, not {count!r}")
        except ValueError as exc:
            return at, str(exc)
    return None


def _lines_by_kind(text: str, kinds: tuple) -> tuple:
    """Each kind's stripped lines of ``text`` and their line numbers, up to
    the first line of no kind, and that line's fault in a list, if there is
    one. This runs only to name a bad line."""
    first = {kind[0]: kind for kind in kinds}
    lines, line_nos = {kind: [] for kind in kinds}, {kind: [] for kind in kinds}
    for line_no, run in line_runs(text):
        kind = first.get(run[0][0])
        if kind is None:
            return lines, line_nos, [(line_no, f"unrecognized record {run[0].split()[0]!r}")]
        lines[kind] += run
        line_nos[kind] += range(line_no, line_no + len(run))
    return lines, line_nos, []


def _joined(parts: list):
    """The column of which ``parts`` holds a block each, which are then
    dropped, so that one column at a time is held twice."""
    column = list(chain.from_iterable(parts)) if isinstance(parts[0], list) else np.concatenate(parts)
    parts.clear()
    return column


def _read_records(path, text: str, kinds: tuple, parse):
    """``parse(columns, names, lines)`` of ``text``, the decoded graph or
    blend file ``path`` of records of ``kinds``, and ``line_no(kind, i)``,
    the line of record ``i`` of a kind. ``columns`` maps each kind to its
    :func:`_columns`, ``names`` is the object array of the file's terms by
    id and ``lines(kind)`` gives a kind's stripped lines.

    The text is cut into blocks of about ``_READ`` characters at line ends,
    and each block into the runs of :func:`errors.line_runs`. A run's first
    character names its kind, and its lines are split at once by
    :func:`_fields`. A fault is named from the same text, never from the
    file read again. If ``parse`` raises ValueError, the first bad line,
    found by :func:`_first_fault` on each kind, is a
    :class:`GraphFormatError`."""
    first = {kind[0]: kind for kind in kinds}  # no two kinds start with the same letter
    # each line's end token: a NUL, whose text splits fastest, unless the text holds one, which
    # may be a field; then a lone surrogate, which no text decoded from UTF-8 holds
    end = "\ud800" if "\0" in text else "\0"
    names, shared, numbers = defaultdict(count().__next__), {}, _Numbers()  # term ids in first-seen order
    # each column's blocks, the first an empty column of its type
    parts = {kind: [[column] for column in _columns(kind, [], end, names, shared, numbers)] for kind in kinds}
    try:
        at = 0
        while at < len(text):
            stop = text.find("\n", at + _READ) + 1 or len(text)
            for _, lines in line_runs(text[at:stop]):
                kind = first.get(lines[0][0])
                if kind is None:  # a line of no record kind: no line after it can fail first
                    raise ValueError("a line of no record kind")
                for part, column in zip(parts[kind], _columns(kind, lines, end, names, shared, numbers)):
                    part.append(column)
            at = stop
        columns = {kind: list(map(_joined, parts[kind])) for kind in kinds}
        parsed = parse(columns, np.array(list(names), dtype=object), lambda kind: _lines_by_kind(text, kinds)[0][kind])
    except _TooManyTerms as exc:
        raise GraphFormatError(path, None, str(exc)) from None
    except ValueError:
        lines, line_nos, faults = _lines_by_kind(text, kinds)
        for kind in kinds:
            fault = _first_fault(kind, lines[kind])
            if fault:
                faults.append((line_nos[kind][fault[0]], fault[1]))
        raise GraphFormatError(path, *min(faults)) from None

    return parsed, lambda kind, at: _lines_by_kind(text, kinds)[1][kind][at]
