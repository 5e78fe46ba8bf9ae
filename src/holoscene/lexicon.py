"""Word lists and normalization shared by the corpus builder and the
sentence parser.

All lexica are plain text files shipped as package data: stop-words, a
verb lemma table, adjectives with their attribute types, gendered nouns
and relation patterns. Callers may point any of them at their own files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .errors import GraphFormatError, read_lines

_TOKEN_RE = re.compile(r"[a-z']+")
_SENTENCE_SPLIT_RE = re.compile(r"[.!?]+")

PRONOUNS = {
    "she": "female",
    "he": "male",
    "it": "inanimate",
    "they": "any",
    "her": "female",
    "him": "male",
}

ARTICLES = {"a", "an", "the", "this", "that", "these", "those"}
LOCATION_PREPOSITIONS = {"on", "at", "in"}


@dataclass(frozen=True)
class Lexicon:
    stopwords: frozenset
    verb_lemmas: dict  # surface form -> lemma (lemmas map to themselves)
    adjectives: dict  # word -> attribute type
    genders: dict  # noun -> gender marker
    relation_patterns: tuple  # compile_patterns output: (regex, surface, label), longest first

    def is_verb(self, token: str) -> bool:
        return token in self.verb_lemmas

    def lemma(self, token: str) -> str:
        return self.verb_lemmas.get(token, token)

    def normalize(self, token: str) -> str:
        token = token.strip("'")
        if token.endswith("'s"):
            token = token[:-2]
        return self.verb_lemmas.get(token, token)

    def semantic_type(self, term: str) -> str:
        if term in self.verb_lemmas and self.verb_lemmas[term] == term:
            return "action"
        if term in self.adjectives:
            return "attribute"
        return "entity"

    def content_terms(self, sentence: str) -> list:
        """Normalized non-stopword tokens of one sentence, in order."""
        out = []
        for token in _TOKEN_RE.findall(sentence.lower()):
            if token in self.stopwords:
                continue
            term = self.normalize(token)
            if term and term not in self.stopwords:
                out.append(term)
        return out


def split_sentences(text: str) -> list:
    return [s.strip() for s in _SENTENCE_SPLIT_RE.split(text) if s.strip()]


def tokenize(sentence: str) -> list:
    return _TOKEN_RE.findall(sentence.lower())


def _data_path(name: str) -> Path:
    return Path(resources.files("holoscene").joinpath("data", name))


def load_stopwords(path) -> frozenset:
    words = set()
    for _, line in read_lines(path):
        words.update(line.split())
    return frozenset(words)


def load_verbs(path) -> dict:
    lemmas = {}
    for _, line in read_lines(path):
        forms = line.split()
        for form in forms:
            lemmas[form] = forms[0]
    return lemmas


def load_word_map(path) -> dict:
    out = {}
    for line_no, line in read_lines(path):
        fields = line.split(None, 1)
        if len(fields) != 2:
            raise GraphFormatError(path, line_no, f"expected a word and its value, got {line!r}")
        out[fields[0]] = fields[1]
    return out


def read_arrows(path, shape: str):
    """``(left, right)`` for each ``left -> right`` line of ``path``; a line
    without both sides is a :class:`GraphFormatError` that names ``shape``."""
    for line_no, line in read_lines(path):
        left, _, right = line.partition("->")
        left, right = left.strip(), right.strip()
        if not left or not right:
            raise GraphFormatError(path, line_no, f"expected {shape!r}, got {line!r}")
        yield left, right


def load_relation_patterns(path) -> tuple:
    return compile_patterns(dict(read_arrows(path, "pattern -> label")))


def compile_patterns(lexicon: dict) -> tuple:
    """Compile a pattern->label map, longest surface first."""
    compiled = []
    for surface in sorted(lexicon, key=lambda s: (-len(s), s)):
        regex = re.compile(r"\b" + re.escape(surface.lower()) + r"\b")
        compiled.append((regex, surface.lower(), lexicon[surface]))
    return tuple(compiled)


def load_lexicon(
    stopwords=None, verbs=None, adjectives=None, genders=None, relations=None
) -> Lexicon:
    return Lexicon(
        stopwords=load_stopwords(stopwords or _data_path("stopwords.txt")),
        verb_lemmas=load_verbs(verbs or _data_path("verbs.txt")),
        adjectives=load_word_map(adjectives or _data_path("adjectives.txt")),
        genders=load_word_map(genders or _data_path("genders.txt")),
        relation_patterns=load_relation_patterns(relations or _data_path("relations.txt")),
    )


@lru_cache(maxsize=1)
def default_lexicon() -> Lexicon:
    return load_lexicon()
