"""Deterministic English-like corpora with per-token category tags.

Stands in wherever a licensed real-text corpus cannot be shipped. Sentences
are sampled from a small phrase grammar over a fixed lexicon, so every token
has a known lexical category and the categories are recoverable from
distributional context, which is exactly what the probing harness measures.
"""

from __future__ import annotations

import random

from .probe import LabeledTokenDataset

LEXICON: dict[str, tuple[str, ...]] = {
    "DET": ("the", "a", "this", "that", "every", "some", "each", "another"),
    "ADJ": (
        "old", "young", "small", "large", "quick", "slow", "bright", "dark",
        "quiet", "loud", "happy", "angry", "cold", "warm", "heavy", "light",
        "clean", "dirty", "sharp", "dull", "strange", "common", "narrow",
        "wide", "early", "late", "soft", "hard", "empty", "full", "fresh",
        "stale", "rough", "smooth", "tall", "short", "deep", "shallow",
        "brave", "calm",
    ),
    "NOUN": (
        "dog", "cat", "bird", "horse", "farmer", "teacher", "doctor",
        "sailor", "child", "woman", "man", "friend", "stranger", "river",
        "mountain", "forest", "village", "city", "road", "bridge", "house",
        "garden", "window", "door", "table", "chair", "book", "letter",
        "story", "song", "picture", "lamp", "clock", "basket", "bottle",
        "knife", "spoon", "plate", "coat", "hat", "shoe", "boat", "train",
        "wagon", "market", "school", "church", "castle", "tower", "field",
        "meadow", "stone", "tree", "flower", "apple", "bread", "cheese",
        "water", "fire", "wind", "rain", "snow", "morning", "evening",
        "winter", "summer", "soldier", "king", "queen", "baker", "miller",
        "hunter", "fisherman", "neighbor", "cousin", "uncle", "aunt",
        "shadow", "candle", "mirror",
    ),
    "VERB": (
        "saw", "chased", "found", "carried", "watched", "followed", "helped",
        "called", "visited", "greeted", "feared", "loved", "hated",
        "remembered", "forgot", "built", "broke", "opened", "closed",
        "painted", "washed", "cleaned", "moved", "lifted", "dropped",
        "caught", "threw", "brought", "took", "gave", "sold", "bought",
        "made", "repaired", "crossed", "climbed", "entered", "left",
        "reached", "touched", "heard", "smelled", "tasted", "held",
        "dragged", "pushed", "pulled", "guarded", "trusted", "praised",
    ),
    "PREP": ("in", "on", "under", "over", "near", "behind", "beside",
             "through", "across", "toward", "against", "beyond"),
    "PRON": ("he", "she", "it", "they", "we", "you", "i", "one"),
    "ADV": (
        "quickly", "slowly", "quietly", "loudly", "carefully", "suddenly",
        "often", "rarely", "always", "never", "gently", "bravely",
        "calmly", "eagerly", "sadly", "proudly", "secretly", "openly",
        "barely", "nearly",
    ),
    "CONJ": ("and", "but", "or", "because", "while"),
    "PUNCT": (".", ",", "!", "?"),
}

CATEGORIES = tuple(LEXICON)


def _noun_phrase(rng: random.Random, words) -> list[tuple[str, str]]:
    if rng.random() < 0.15:
        return [(rng.choice(words["PRON"]), "PRON")]
    phrase = [(rng.choice(words["DET"]), "DET")]
    if rng.random() < 0.45:
        phrase.append((rng.choice(words["ADJ"]), "ADJ"))
        if rng.random() < 0.15:
            phrase.append((rng.choice(words["ADJ"]), "ADJ"))
    phrase.append((rng.choice(words["NOUN"]), "NOUN"))
    return phrase


def _prep_phrase(rng: random.Random, words) -> list[tuple[str, str]]:
    return [(rng.choice(words["PREP"]), "PREP")] + _noun_phrase(rng, words)


def _clause(rng: random.Random, words) -> list[tuple[str, str]]:
    clause = _noun_phrase(rng, words)
    if rng.random() < 0.25:
        clause.append((rng.choice(words["ADV"]), "ADV"))
    clause.append((rng.choice(words["VERB"]), "VERB"))
    clause += _noun_phrase(rng, words)
    if rng.random() < 0.35:
        clause += _prep_phrase(rng, words)
    if rng.random() < 0.15:
        clause.append((rng.choice(words["ADV"]), "ADV"))
    return clause


def generate_tagged_sentences(n_tokens: int, seed: int = 0,
                              lexicon: dict[str, tuple[str, ...]] | None = None
                              ) -> list[list[tuple[str, str]]]:
    """Sample tagged sentences until at least ``n_tokens`` tokens exist."""
    words = lexicon if lexicon is not None else LEXICON
    rng = random.Random(seed)
    sentences: list[list[tuple[str, str]]] = []
    total = 0
    while total < n_tokens:
        sentence = _clause(rng, words)
        if rng.random() < 0.2:
            sentence.append((rng.choice(words["CONJ"]), "CONJ"))
            sentence += _clause(rng, words)
        end = rng.choice((".", ".", ".", "!", "?"))
        sentence.append((end, "PUNCT"))
        sentences.append(sentence)
        total += len(sentence)
    return sentences


def sentences_to_text(sentences: list[list[tuple[str, str]]]) -> str:
    """One sentence per line, tokens space-separated (line = document)."""
    return "\n".join(" ".join(tok for tok, _ in sent) for sent in sentences) + "\n"


def split_types(seed: int = 0, holdout_fraction: float = 0.2,
                categories: tuple[str, ...] = ("NOUN", "VERB", "ADJ", "ADV")
                ) -> tuple[set[str], set[str]]:
    """Partition word types into seen and held-out sets, per category.

    Only open-class categories are held out; closed-class words (determiners,
    prepositions, pronouns, conjunctions, punctuation) stay in the seen set
    so the grammar remains representable on both sides.
    """
    rng = random.Random(seed)
    seen: set[str] = set()
    holdout: set[str] = set()
    for category, words in LEXICON.items():
        if category not in categories:
            seen.update(words)
            continue
        shuffled = list(words)
        rng.shuffle(shuffled)
        cut = max(1, int(len(shuffled) * holdout_fraction))
        holdout.update(shuffled[:cut])
        seen.update(shuffled[cut:])
    return seen, holdout


def type_split_datasets(sentences: list[list[tuple[str, str]]],
                        holdout_types: set[str],
                        dev_fraction: float = 0.1,
                        seed: int = 0) -> tuple[LabeledTokenDataset,
                                                LabeledTokenDataset,
                                                LabeledTokenDataset]:
    """Token datasets where the test split covers only held-out word types.

    The probe therefore cannot score on the test split by memorizing type
    identities; it has to read category information out of the embedding.
    """
    rng = random.Random(seed)
    train_seqs: list[list[tuple[str, str]]] = []
    test_seqs: list[list[tuple[str, str]]] = []
    for sentence in sentences:
        for token, tag in sentence:
            if token in holdout_types:
                test_seqs.append([(token, tag)])
            else:
                train_seqs.append([(token, tag)])
    rng.shuffle(train_seqs)
    n_dev = max(1, int(len(train_seqs) * dev_fraction))
    dev_seqs = train_seqs[:n_dev]
    train_seqs = train_seqs[n_dev:]
    label_set = tuple(CATEGORIES)
    return (LabeledTokenDataset(train_seqs, label_set, "train"),
            LabeledTokenDataset(dev_seqs, label_set, "dev"),
            LabeledTokenDataset(test_seqs, label_set, "test"))
