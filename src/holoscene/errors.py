"""Exception types shared across the package, and the UTF-8 text and line
readers that raise one of them."""

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
    A line ends at a line feed alone, here and in :func:`read_lines`."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise GraphFormatError(path, line_no, f"not UTF-8 text: {exc.reason}") from None


def stripped_lines(path) -> list:
    """Every line of ``path``, stripped, blank and ``#`` comment lines
    included, so that line ``n`` is item ``n - 1``."""
    # split on "\n" alone, as read_text counts lines; splitlines() would also
    # break at \x0c, \x85, \u2028 and others
    return list(map(str.strip, read_text(path).split("\n")))


def read_lines(path, lines: list | None = None):
    """``(line number, line)`` for each of the :func:`stripped_lines` of
    ``path`` that is neither blank nor a ``#`` comment: the one line reader
    of every line-oriented input file. ``lines``, when given, are those
    stripped lines, already read."""
    for line_no, line in enumerate(stripped_lines(path) if lines is None else lines, start=1):
        if line and line[0] != "#":  # not startswith: ~6 ms slower on a 41,694-line graph
            yield line_no, line


def add_once(table: dict, key, value, path, line_no) -> None:
    """Set ``table[key]`` from line ``line_no`` of ``path``; a second record
    for a key is a :class:`GraphFormatError` at its line."""
    if key in table:
        raise GraphFormatError(path, line_no, f"second record for {key!r}")
    table[key] = value
