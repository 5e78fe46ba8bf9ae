"""Exception types shared across the package, and the UTF-8 text reader
that raises one of them."""

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
    """No verb could be found in the sentence."""

    def __init__(self, text):
        super().__init__(f"no verb found in sentence: {text!r}")
        self.text = text


class VocabularyGapError(HolosceneError, ValueError):
    """Sentence terms are missing from the ontology vocabulary."""

    def __init__(self, terms):
        missing = ", ".join(sorted(terms))
        super().__init__(f"terms not in ontology: {missing}")
        self.terms = tuple(sorted(terms))


class GraphFormatError(HolosceneError, ValueError):
    """A graph or blend file, a memory snapshot or an input text could not
    be read or parsed; carries the file and, where one applies, the line
    number (``line_no`` is ``None`` otherwise)."""

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
    """The UTF-8 text of ``path``; bytes that are not UTF-8 raise
    :class:`GraphFormatError` at their line."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # read() decodes the whole file at once, so exc.object is all of it
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        raise GraphFormatError(path, line_no, f"not UTF-8 text: {exc.reason}") from None
