"""Seeded inputs for the benchmark: corpus directories, story texts, and the
config / objects / values / functions files that go with them.

Everything here is a pure function of the seed. The program under test only
ever sees the files written here.

Vocabulary. Filler nouns are letter-only strings, checked against the shipped
stop-word, verb and adjective lists and against every closed word class the
parser or the relation matcher reacts to, so a filler word is always a plain
noun. The demo nouns ride along so the synthetic graphs share the demo's
vocabulary.

Corpus. Co-occurrence sentences ("The ball with the kicks and the red.") give
"related-to" edges; every term is drawn from a shuffled deck in which each
noun, verb and adjective appears the same number of times, so node degrees are
close to uniform and op cost depends little on which story is drawn. Labeled
facts ("The ball has a sand.", "The sky is near the beach.", "The ball on the
sand.") are dealt the same way, one per noun, so each story term expands to
about two labeled neighbours and the generic space has a steady size.

Stories. Each story shares an actor, a place and an object across its clauses,
as the demo text does, so the generic space is never empty. Every story is
checked to parse, to use only corpus vocabulary, and to share a term between
clauses before it is written.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from holoscene import textfilter
from holoscene.lexicon import (
    ARTICLES,
    LOCATION_PREPOSITIONS,
    PRONOUNS,
    default_lexicon,
    split_sentences,
)

DEMO_NOUNS = (
    "woman", "girl", "beach", "sand", "ocean", "sky", "sun",
    "horizon", "clothing", "body", "hand", "leg", "ball",
)
ACTORS = ("woman", "girl")
# present / participle forms; all are in the shipped verb table
VERBS = {
    "walk": ("walks", "walked"),
    "take": ("takes", "taken"),
    "leave": ("leaves", "left"),
    "kick": ("kicks", "kicked"),
    "see": ("sees", "seen"),
    "hold": ("holds", "held"),
    "throw": ("throws", "thrown"),
    "reach": ("reaches", "reached"),
    "climb": ("climbs", "climbed"),
    "play": ("plays", "played"),
}
ADJECTIVES = ("blue", "red", "green", "white", "black", "big", "small", "fast", "slow", "old", "young")
VALUES = {
    ("blue", "color"): 240.0, ("red", "color"): 0.0, ("green", "color"): 120.0,
    ("white", "color"): 0.0, ("black", "color"): 0.0, ("big", "size"): 2.0,
    ("small", "size"): 0.5, ("fast", "speed"): 2.0, ("slow", "speed"): 0.5,
}
FUNCTIONS = (
    "walk actor:human -> position:position",
    "take actor:human,object:prop -> hand_position:position",
    "leave object:prop -> object_position:position",
    "kick actor:human,object:prop -> object_velocity:vector",
    "see actor:human,object:prop -> gaze:direction",
    "hold actor:human,object:prop -> hand_position:position",
    "throw actor:human,object:prop -> object_velocity:vector",
)
# one template per labeled relation of the shipped relation table
FACTS = ("The {a} has a {b}.", "The {a} is near the {b}.", "The {a} on the {b}.")
RELATIONS = "wears,has-a,part-of,near,located-on,is-a,attribute-of,used-for"

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"


SENTENCES_PER_DOC = 6


@dataclass(frozen=True)
class CorpusSpec:
    fillers: int  # letter-only filler nouns besides the demo nouns
    uses: int  # times each term appears in co-occurrence sentences


@dataclass(frozen=True)
class StorySpec:
    count: int  # distinct stories
    clauses: int  # clauses per story (3 uses the demo's shape)
    max_path: int


def _forbidden_words() -> set:
    lex = default_lexicon()
    words = set(lex.stopwords) | set(lex.verb_lemmas) | set(lex.adjectives) | set(lex.genders)
    words |= set(ARTICLES) | set(LOCATION_PREPOSITIONS) | set(PRONOUNS)
    words |= textfilter.BE_FORMS | textfilter.SKIP_WORDS | {"and", "there"}
    for _, surface, _ in lex.relation_patterns:
        words.update(surface.split())
    return words | set(DEMO_NOUNS)


def filler_words(rng: random.Random, count: int) -> list:
    forbidden = _forbidden_words()
    out: list = []
    seen: set = set()
    while len(out) < count:
        syllables = rng.randint(2, 3)
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))
        word += rng.choice(_CONSONANTS)
        if word in forbidden or word in seen:
            continue
        seen.add(word)
        out.append(word)
    return out


def _deck(rng: random.Random, items, copies: int) -> list:
    deck = [item for item in items for _ in range(copies)]
    rng.shuffle(deck)
    return deck


def corpus_documents(rng: random.Random, nouns: list, spec: CorpusSpec) -> list:
    """Co-occurrence sentences over a uniform deck of terms plus one dealt
    labeled fact per noun, grouped into documents of SENTENCES_PER_DOC
    sentences.

    Verbs and adjectives sit in the deck like nouns, the same number of
    times each, so no term becomes a hub that every walk passes through."""
    words = nouns + [forms[0] for forms in VERBS.values()] + list(ADJECTIVES)
    deck = _deck(rng, words, spec.uses)
    deck += deck[: -len(deck) % 3]  # fill the last sentence, so no term is left out
    sentences = [
        "The {} with the {} and the {}.".format(*deck[i : i + 3])
        for i in range(0, len(deck), 3)
    ]
    order = list(nouns)
    rng.shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        sentences.append(rng.choice(FACTS).format(a=a, b=b))
    rng.shuffle(sentences)
    n = SENTENCES_PER_DOC
    return [" ".join(sentences[i : i + n]) for i in range(0, len(sentences), n)]


def corpus_vocabulary(documents) -> set:
    lex = default_lexicon()
    vocab: set = set()
    for doc in documents:
        for sentence in split_sentences(doc):
            vocab.update(lex.content_terms(sentence))
    return vocab


def story(rng: random.Random, nouns: list, clauses: int) -> tuple:
    """``clauses`` clauses sharing one actor, place and object. Three clauses
    reproduce the demo's shape: act on the object at the place, the object
    left there (passive), act on the object again. Returns the text, the
    action of each clause, and every term the text mentions."""
    actor = rng.choice(ACTORS)
    place, obj = rng.sample(nouns, 2)
    adjective = rng.choice(ADJECTIVES)
    actions = [rng.choice(sorted(VERBS)) for _ in range(clauses)]
    others = [n for n in nouns if n not in (place, obj)]
    middle = [rng.choice(others) for _ in range(clauses - 3)]
    lines = [
        f"The {actor} {VERBS[actions[0]][0]} the {obj} on the {place}.",
        f"The {adjective} {obj} was {VERBS[actions[1]][1]} on the {place}.",
    ]
    lines += [
        f"The {actor} {VERBS[verb][0]} the {other} on the {place}."
        for verb, other in zip(actions[2:-1], middle)
    ]
    lines.append(f"The {actor} {VERBS[actions[-1]][0]} this {obj}.")
    mentioned = {actor, place, obj, adjective, *actions, *middle}
    return " ".join(lines), actions, sorted(mentioned)


def check_story(text: str, vocab: set) -> None:
    """Raise ValueError unless the story parses, stays in the corpus
    vocabulary, and shares at least one term between two clauses."""
    structures = textfilter.parse_text(text)
    terms = [set(s.terms()) for s in structures]
    missing = set().union(*terms) - vocab
    if missing:
        raise ValueError(f"story uses terms outside the corpus: {sorted(missing)}")
    if not any(a & b for i, a in enumerate(terms) for b in terms[i + 1 :]):
        raise ValueError("story clauses share no term, so the generic space would be empty")


def write_tables(out: Path, vocab: set, max_path: int) -> Path:
    """objects / values / functions / config files; every corpus term is
    bound to an asset, since any of them can end up as scene dressing."""
    lemmas = set(default_lexicon().verb_lemmas.values())
    objects = [f"{t} {'clip' if t in lemmas else 'asset'}:{t}_01" for t in sorted(vocab)]
    (out / "bench.objects").write_text("\n".join(objects) + "\n", encoding="utf-8")
    values = [f"{a} {t} {v}" for (a, t), v in sorted(VALUES.items())]
    (out / "bench.values").write_text("\n".join(values) + "\n", encoding="utf-8")
    (out / "bench.functions").write_text("\n".join(FUNCTIONS) + "\n", encoding="utf-8")
    config = out / "bench.config"
    config.write_text(
        "\n".join(
            [
                "dim = 512", "seed = 7", "depth = 1", "threshold = 0.001",
                "base_decay = 10", "prune_threshold = 0.1", "match_threshold = 0.8",
                f"max_path = {max_path}", "mix = 0.5", "time_window = 5",
                f"relations = {RELATIONS}",
                "objects_path = bench.objects", "values_path = bench.values",
                "functions_path = bench.functions",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    return config


def write_corpus(out: Path, documents) -> Path:
    out.mkdir(parents=True)
    for i, doc in enumerate(documents):
        (out / f"doc{i:04d}.txt").write_text(doc + "\n", encoding="utf-8")
    return out


def write_story_inputs(out: Path, seed: int, corpus: CorpusSpec, stories: StorySpec) -> dict:
    """Corpus, tables and checked stories for an ``imagine`` workload."""
    rng = random.Random(seed)
    nouns = list(DEMO_NOUNS) + filler_words(rng, corpus.fillers)
    documents = corpus_documents(rng, nouns, corpus)
    vocab = corpus_vocabulary(documents)
    story_nouns = [n for n in nouns if n not in ACTORS]
    texts, expect = [], {}
    for i in range(stories.count):
        text, actions, mentioned = story(rng, story_nouns, stories.clauses)
        check_story(text, vocab)
        path = out / f"story{i:02d}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        texts.append(str(path))
        expect[path.stem] = {"actions": actions, "mentioned": mentioned}
    return {
        "corpus": str(write_corpus(out / "corpus", documents)),
        "config": str(write_tables(out, vocab, stories.max_path)),
        "texts": texts,
        "expect": expect,
        "sentences": sum(len(split_sentences(d)) for d in documents),
    }


def write_corpus_inputs(out: Path, seed: int, corpus: CorpusSpec, count: int) -> dict:
    """``count`` independent corpus directories for ``build-ontology``."""
    dirs, sentences = [], 0
    seeds = [seed * 1000 + i for i in range(count)]
    for corpus_seed in seeds:
        rng = random.Random(corpus_seed)
        nouns = list(DEMO_NOUNS) + filler_words(rng, corpus.fillers)
        documents = corpus_documents(rng, nouns, corpus)
        sentences += sum(len(split_sentences(d)) for d in documents)
        dirs.append(str(write_corpus(out / f"corpus{len(dirs)}", documents)))
    return {"corpora": dirs, "sentences": sentences, "seeds": seeds}
