"""Rule-based sentence parsing into three-role structures, and per-sentence
mental spaces anchored to the ontology.

Each parsed sentence fills a fixed frame: an active actor, an action, an
optional passive actor, adjective attributes and an optional location.
There is no statistical model; a deterministic cascade over closed word
lists (articles, prepositions, pronouns, a verb lemma table) keeps every
run reproducible. Out-of-lexicon words default to nouns so unseen actors
still parse.

Parsing rules, in order:

* the first verb-table token is the verb; no verb is a parse error
* "was/were" + participle is a passive: the surface subject becomes the
  passive actor and the active actor is unknown ("-ing" forms instead
  keep the subject active); a bare copula keeps the subject and maps to
  the action "be", with "there was X" taking its subject from X
* the last noun before the verb is the subject; adjectives attach to the
  following noun
* after the verb, the first noun outside a location phrase is the object;
  "on/at/in X" binds X as the location
* subject pronouns resolve to the most recent gender-compatible actor
  within a two-sentence horizon; a clause with no subject (e.g. after
  "... and kicks it") inherits the most recent active actor
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnparseableSentenceError, VocabularyGapError
from .lexicon import (
    ARTICLES,
    LOCATION_PREPOSITIONS,
    PRONOUNS,
    Lexicon,
    default_lexicon,
    split_sentences,
    tokenize,
)
from .ontology import OntologyGraph, expand

BE_FORMS = {"is", "are", "was", "were", "am", "be", "been", "being"}
SKIP_WORDS = {"with", "to", "from", "for", "of", "by", "over", "under", "toward", "towards"}

COPULA = "be"
CONTEXT_HORIZON = 2


@dataclass(frozen=True)
class UniversalStructure:
    """Three-role sentence frame. ``active_actor`` None means unknown
    (passive voice or unresolved pronoun); ``passive_actor``/``location``
    None mean absent."""

    action: str
    active_actor: str | None = None
    passive_actor: str | None = None
    attributes: tuple = ()  # (noun, adjective) pairs
    location: str | None = None

    def terms(self) -> list:
        """Concrete terms of the frame, attribute words included. The
        stative copula is a linker, not a scene concept, so a "be" action
        contributes its participants only."""
        out = []
        for term in (self.active_actor, self.action, self.passive_actor, self.location):
            if term is not None and term != COPULA:
                out.append(term)
        for noun, adjective in self.attributes:
            out.extend((noun, adjective))
        seen = set()
        return [t for t in out if not (t in seen or seen.add(t))]


def _resolve_pronoun(pronoun: str, context, lex: Lexicon) -> str | None:
    wanted = PRONOUNS[pronoun]
    for structure in list(context)[-CONTEXT_HORIZON:][::-1]:
        for candidate in (structure.active_actor, structure.passive_actor):
            if candidate is None or candidate in PRONOUNS:
                continue
            gender = lex.genders.get(candidate, "inanimate")
            if wanted == "any" or gender == wanted:
                return candidate
    return None


def _recent_active(context) -> str | None:
    for structure in list(context)[-CONTEXT_HORIZON:][::-1]:
        if structure.active_actor is not None:
            return structure.active_actor
    return None


class _NounPhrase:
    """Accumulates articles/adjectives until a head noun appears."""

    def __init__(self, lex: Lexicon, context):
        self.lex = lex
        self.context = context
        self.head: str | None = None
        self.pending: list = []
        self.attributes: list = []

    def feed(self, token: str) -> bool:
        """Returns True once the head noun is found."""
        if token in ARTICLES or token in SKIP_WORDS:
            return False
        if token in self.lex.adjectives:
            self.pending.append(token)
            return False
        if token in PRONOUNS:
            self.head = _resolve_pronoun(token, self.context, self.lex)
        else:
            self.head = self.lex.normalize(token)
        if self.head is not None:
            for adjective in self.pending:
                self.attributes.append((self.head, adjective))
        self.pending = []
        return True


def parse_sentence(text: str, context=(), lexicon: Lexicon | None = None) -> UniversalStructure:
    """Parse one clause into a UniversalStructure.

    ``context`` holds the structures of prior sentences, newest last; it
    feeds pronoun resolution and implicit subjects.
    """
    lex = lexicon or default_lexicon()
    tokens = tokenize(text)
    if not tokens:
        raise UnparseableSentenceError(text)

    verb_idx = next((i for i, t in enumerate(tokens) if lex.is_verb(t)), None)
    if verb_idx is None:
        raise UnparseableSentenceError(text)

    verb = tokens[verb_idx]
    after = tokens[verb_idx + 1 :]
    passive = False
    action = lex.lemma(verb)
    if verb in BE_FORMS:
        nxt = after[0] if after else None
        if nxt is not None and lex.is_verb(nxt) and nxt not in BE_FORMS:
            action = lex.lemma(nxt)
            passive = not nxt.endswith("ing")  # progressive keeps the subject active
            after = after[1:]
        else:
            action = "be"

    # subject
    before = tokens[:verb_idx]
    existential = before and before[-1] == "there"
    subject_np = _NounPhrase(lex, context)
    subject: str | None = None
    if not existential:
        for token in before:
            if subject_np.feed(token):
                subject = subject_np.head
    attributes = list(subject_np.attributes)

    # object and location
    object_np = _NounPhrase(lex, context)
    location_np = _NounPhrase(lex, context)
    obj: str | None = None
    location: str | None = None
    in_location = False
    for token in after:
        if token in LOCATION_PREPOSITIONS:
            in_location = True
            continue
        if in_location:
            if location is None and location_np.feed(token):
                location = location_np.head
        elif not passive and obj is None:
            if object_np.feed(token):
                obj = object_np.head
    attributes += object_np.attributes + location_np.attributes
    if action == "be" and obj is None and subject is not None:
        # predicative adjectives ("the ball is red") describe the subject
        attributes += [(subject, adj) for adj in object_np.pending]

    if existential and subject is None:
        subject, obj = obj, None

    if passive:
        active, passive_actor = None, subject
    else:
        active, passive_actor = subject, obj
        if active is None and not before:
            active = _recent_active(context)

    return UniversalStructure(
        action=action,
        active_actor=active,
        passive_actor=passive_actor,
        attributes=tuple(attributes),
        location=location,
    )


def split_clauses(sentence: str, lexicon: Lexicon | None = None) -> list:
    """Split conjoined verb phrases ("takes the ball and kicks it") into
    separate clauses; noun conjunctions are left alone."""
    lex = lexicon or default_lexicon()
    tokens = tokenize(sentence)
    clauses = []
    current: list = []
    for i, token in enumerate(tokens):
        if token == "and" and i + 1 < len(tokens) and lex.is_verb(tokens[i + 1]):
            if current:
                clauses.append(" ".join(current))
            current = []
            continue
        current.append(token)
    if current:
        clauses.append(" ".join(current))
    return clauses or [sentence]


def parse_text(text: str, lexicon: Lexicon | None = None) -> list:
    """Parse a whole text into structures, threading context through. A
    text with no clause (only punctuation, say) is unparseable. The
    :class:`UnparseableSentenceError` names the line where the clause
    starts: only the first clause of a sentence can lack a verb, since the
    others start with one."""
    lex = lexicon or default_lexicon()
    structures: list = []
    start = 0
    try:
        for sentence in split_sentences(text):
            start = text.index(sentence, start)
            for clause in split_clauses(sentence, lex):
                structures.append(parse_sentence(clause, structures, lex))
        if not structures:
            start = len(text) - len(text.lstrip())
            raise UnparseableSentenceError(text.strip())
    except UnparseableSentenceError as exc:
        exc.line_no = text.count("\n", 0, start) + 1
        raise
    return structures


@dataclass(frozen=True)
class MentalSpace:
    """Per-clause packet: the parsed frame, its terms anchored in the
    ontology, and the terms of the neighborhood pulled in around them."""

    sentence_index: int
    structure: UniversalStructure
    anchored: frozenset
    expanded: frozenset

    @property
    def terms(self) -> frozenset:
        return self.anchored | self.expanded


def build_mental_space(
    structure: UniversalStructure,
    graph: OntologyGraph,
    depth: int = 1,
    relations=None,
    rules: dict | None = None,
    sentence_index: int = 0,
) -> MentalSpace:
    """Anchor a parsed frame in the ontology and expand around it."""
    anchors = structure.terms()
    missing = sorted(t for t in anchors if t not in graph.nodes)
    if missing:
        raise VocabularyGapError(missing)
    expansion = expand(graph, anchors, relations=relations, depth=depth, rules=rules)
    return MentalSpace(
        sentence_index=sentence_index,
        structure=structure,
        anchored=expansion.anchored,
        expanded=expansion.expanded,
    )
