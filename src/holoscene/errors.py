"""Exception types shared across the package, and the UTF-8 text and line
readers that raise one of them. A file is read as bytes and decoded in two
steps (:func:`decode_text`), so that a caller that hashes a file's bytes
parses the very bytes it hashed. What a line of an input file is, is said
once, by :func:`line_runs`."""

from itertools import groupby
from operator import itemgetter
from pathlib import Path


class HolosceneError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(HolosceneError, ValueError):
    """Vector dimension is invalid or two operands disagree on it."""


class ZeroVectorError(HolosceneError, ValueError):
    """Cosine similarity requested against an all-zero vector."""


class EmptyCodebookError(HolosceneError, ValueError):
    """Cleanup attempted against a codebook with no entries."""


class UnknownTermError(HolosceneError, KeyError):
    """A term is missing from a codebook, graph or mapping."""

    def __init__(self, message, terms=()):
        super().__init__(message)
        self.terms = tuple(terms)

    def __str__(self):
        return self.args[0]


class UnmappedTermError(UnknownTermError):
    """A scene term has no entry in the term-object map or value map."""


class TimeTravelError(HolosceneError, ValueError):
    """An operation was issued for a tick earlier than the current clock."""


class StaleSignalError(HolosceneError, ValueError):
    """An activation fell outside the memory's time window."""


class UnparseableSentenceError(HolosceneError, ValueError):
    """No verb could be found in the sentence. ``line_no`` is the line of
    the text where it starts, once the text's parser has set it."""

    line_no = None

    def __init__(self, text):
        super().__init__(f"no verb found in sentence: {text!r}")
        self.text = text


class EmptyTextError(HolosceneError, ValueError):
    """The input text holds nothing but whitespace."""


class VocabularyGapError(HolosceneError, ValueError):
    """Sentence terms are missing from the ontology vocabulary."""

    def __init__(self, terms):
        missing = ", ".join(sorted(terms))
        super().__init__(f"terms not in ontology: {missing}")
        self.terms = tuple(sorted(terms))


class NoSharedTermError(HolosceneError, ValueError):
    """The clauses of a text share no term, so their blend has no generic
    space."""


class GraphFormatError(HolosceneError, ValueError):
    """An input file (a graph or blend file, a memory snapshot, an input
    text, a lexicon, rewrite-rule, object, value or function file, or any
    file that is not UTF-8) could not be read or parsed; carries the file
    and, where one applies, the line number (``line_no`` is ``None``
    otherwise)."""

    def __init__(self, path, line_no, message):
        where = str(path) if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.line_no = line_no


class ConfigError(HolosceneError, ValueError):
    """A pipeline configuration value is missing or out of range."""


class StageError(HolosceneError):
    """Wraps a failure with the pipeline stage that produced it."""

    def __init__(self, stage, cause):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


def read_text(path) -> str:
    """The UTF-8 text of ``path``, every line end kept as it is in the file;
    bytes that are not UTF-8 raise :class:`GraphFormatError` at their line.
    A line ends at a line feed alone, here and in :func:`line_runs`."""
    return decode_text(path, Path(path).read_bytes())


def decode_text(path, data: bytes) -> str:
    """The text of ``data``, the bytes read from ``path``, as
    :func:`read_text` gives it: for a caller that reads the bytes itself,
    to hash them, and parses the very bytes it read."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise GraphFormatError(path, line_no, f"not UTF-8 text: {exc.reason}") from None


def line_runs(text: str):
    """``(line number, lines)`` for each run of consecutive lines of
    ``text``, each stripped, that start with one character: the one rule
    for what a line of an input file is. Only a line feed ends a line, as
    :func:`read_text` counts them (``splitlines`` would also break at
    ``\\x0c``, ``\\x85``, ``\\u2028`` and others); blank lines and ``#``
    comments are skipped. The line number is that of the run's first line."""
    line_no = 1
    for first, run in groupby(map(str.strip, text.split("\n")), itemgetter(slice(0, 1))):
        run = list(run)
        if first not in ("", "#"):
            yield line_no, run
        line_no += len(run)


def text_lines(text: str):
    """``(line number, line)`` for each line of ``text`` that
    :func:`line_runs` yields."""
    for line_no, run in line_runs(text):
        yield from enumerate(run, line_no)


def read_lines(path):
    """The :func:`text_lines` of ``path``: the line reader of every
    line-oriented input file but graph and blend files, which are read a
    run at a time."""
    yield from text_lines(read_text(path))


def add_once(table: dict, key, value, path, line_no) -> None:
    """Set ``table[key]`` from line ``line_no`` of ``path``; a second record
    for a key is a :class:`GraphFormatError` at its line."""
    if key in table:
        raise GraphFormatError(path, line_no, f"second record for {key!r}")
    table[key] = value
