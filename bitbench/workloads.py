"""Seeded workload inputs and the CLI chain each workload runs.

Every workload runs the README's chain -- ``count`` -> ``embed`` ->
``postproc`` -> ``probe`` -- on a corpus and a type-held-out tagging split
generated here from the benchmark seed. The workloads differ in the shape of
their data, which decides the layers that carry the cost:

* ``grammar-sum``: the package's phrase-grammar corpus (226 types, many
  tokens). Tokenizing, counting, co-occurrence updates on few hot cells and
  probe training dominate; every per-row stage touches only 227 rows.
* ``zipf-cat``: a Zipf corpus over a finite lexicon, embedded in Cat mode
  (dimension 2rb = 200) with the pool-based ``count --threads 2``. Cat
  aggregation, wide-row text write/read, many-cell accumulation and
  whitening dominate, together with peak RSS; ranking, the cipher walker
  and the noise model run over its ~10k types.

The Zipf corpus is drawn from a class-based model: each type belongs to
one of ``CLASSES`` latent classes (balanced over frequency ranks), the
class sequence of a line is a fixed Markov chain, and each token is drawn
Zipf-wise from its class. Type frequencies stay Zipf-shaped, and the class
is recoverable from context, which gives that workload a real tagging task
for ``probe``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from bitcipher.synth import (generate_tagged_sentences, sentences_to_text,
                             split_types, type_split_datasets)

CLASSES = 8
HOLDOUT_FRACTION = 0.2
# Zipf tagging splits use only types seen this often: a rarer type's context
# row is too thin a sample to say anything about its class. Capping the
# tokens per type keeps a few frequent types from deciding the accuracy.
MIN_TAGGED_COUNT = 5
MAX_TAGGED_PER_TYPE = 10


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str                 # "grammar" or "zipf"
    tokens: int                 # corpus size (the grammar stops at a sentence end)
    count_threads: int
    mode: str
    radius: int
    train_tokens: int
    dev_tokens: int
    test_tokens: int
    probe_epochs: int           # fixed: patience = epochs, so no early stop
    accuracy_floor: float       # probe accuracy (%) floor, well below the
                                # seed code's worst seed
    bits: int = 25
    types: int = 0              # zipf: lexicon size
    zipf_s: float = 0.0         # zipf: exponent
    line_min: int = 0           # zipf: tokens per line, inclusive range
    line_max: int = 0

    def embed_dim(self) -> int:
        return self.bits if self.mode == "sum" else 2 * self.radius * self.bits

    def chain(self) -> list[tuple[str, list[str], str]]:
        """The CLI commands of one run: (name, argv, main artifact), with
        paths relative to the input directory."""
        embed = ["embed", "corpus.txt", "--freq", "freq.tsv", "--out", "emb.txt",
                 "--bits", str(self.bits), "--radius", str(self.radius),
                 "--mode", self.mode, "--log", "--dtype", "df", "--postproc"]
        return [
            ("count", ["count", "corpus.txt", "--out", "freq.tsv",
                       "--threads", str(self.count_threads)], "freq.tsv"),
            ("embed", embed, "emb.txt"),
            ("postproc", ["postproc", "emb.txt", "--out", "emb.bin",
                          "--format", "binary"], "emb.bin"),
            ("probe", ["probe", "emb.bin", "--train", "train.conll",
                       "--dev", "dev.conll", "--test", "test.conll",
                       "--metrics-out", "metrics.json", "--seed", "0",
                       "--epochs", str(self.probe_epochs),
                       "--patience", str(self.probe_epochs)], "metrics.json"),
        ]


WORKLOADS = {w.name: w for w in (
    Workload("grammar-sum", "grammar", tokens=200_000, count_threads=1,
             mode="sum", radius=4,
             train_tokens=15_000, dev_tokens=5_000, test_tokens=10_000,
             probe_epochs=6, accuracy_floor=80.0),
    Workload("zipf-cat", "zipf", tokens=100_000, count_threads=2,
             mode="cat", radius=4,
             train_tokens=10_000, dev_tokens=2_500, test_tokens=2_500,
             probe_epochs=6, accuracy_floor=60.0, types=15_000, zipf_s=1.05,
             line_min=4, line_max=30),
)}


def _write_conll(path: Path, pairs) -> None:
    """One token per sequence, as ``token label`` lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.writelines(f"{token} {label}\n\n" for token, label in pairs)


def _grammar(w: Workload, seed: int, out: Path) -> int:
    sentences = generate_tagged_sentences(w.tokens, seed=seed)
    (out / "corpus.txt").write_text(sentences_to_text(sentences),
                                    encoding="utf-8", newline="\n")
    _, holdout = split_types(seed=seed)
    splits = type_split_datasets(sentences, holdout, seed=seed)
    for split, limit in zip(splits, (w.train_tokens, w.dev_tokens,
                                     w.test_tokens)):
        pairs = [pair for seq in split.sequences[:limit] for pair in seq]
        _write_conll(out / f"{split.split}.conll", pairs)
    return sum(len(s) for s in sentences)


def _word(code: int) -> str:
    """Distinct lowercase word for each non-negative code (little-endian base 26)."""
    letters = []
    while True:
        letters.append(chr(97 + code % 26))
        code //= 26
        if code == 0:
            return "".join(letters)


def _capped(ids: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Corpus positions of allowed types, at most MAX_TAGGED_PER_TYPE each."""
    uses = np.zeros(len(allowed), dtype=np.int64)
    keep = []
    for pos, i in enumerate(ids.tolist()):
        if allowed[i] and uses[i] < MAX_TAGGED_PER_TYPE:
            uses[i] += 1
            keep.append(pos)
    return np.array(keep, dtype=np.int64)


def _transition_matrix() -> np.ndarray:
    """Fixed class chain: mostly one class ahead, often two.

    Steps of +1 and +2 keep the classes apart even for Sum mode, which
    pools left and right neighbours; with +3 steps classes c and c+4 would
    share the same neighbour classes.
    """
    eye = np.eye(CLASSES)
    return (0.6 * np.roll(eye, 1, axis=1) + 0.3 * np.roll(eye, 2, axis=1)
            + 0.1 / CLASSES)


def _zipf(w: Workload, seed: int, out: Path) -> int:
    rng = np.random.default_rng(seed)
    weights = np.arange(1, w.types + 1, dtype=np.float64) ** -w.zipf_s
    # Every CLASSES consecutive frequency ranks go to distinct classes, so
    # each class gets the same share of the Zipf mass and the corpus's shape
    # (types, co-occurrence cells, taggable tokens) hardly varies by seed.
    blocks = np.tile(np.arange(CLASSES), (w.types // CLASSES + 1, 1))
    type_class = rng.permuted(blocks, axis=1).ravel()[:w.types]
    words = rng.permutation(w.types)

    lengths = rng.integers(w.line_min, w.line_max + 1,
                           size=w.tokens // w.line_min + 1)
    lengths = lengths[:np.searchsorted(np.cumsum(lengths), w.tokens) + 1]
    cum = _transition_matrix().cumsum(axis=1)
    classes = np.empty((len(lengths), w.line_max), dtype=np.int64)
    classes[:, 0] = rng.integers(CLASSES, size=len(lengths))
    for pos in range(1, w.line_max):
        u = rng.random(len(lengths))
        classes[:, pos] = (u[:, None] > cum[classes[:, pos - 1]]).sum(axis=1)
    classes = classes[np.arange(w.line_max) < lengths[:, None]]

    ids = np.empty(len(classes), dtype=np.int64)
    for c in range(CLASSES):
        members = np.flatnonzero(type_class == c)
        at = np.flatnonzero(classes == c)
        p = weights[members] / weights[members].sum()
        ids[at] = members[rng.choice(len(members), size=len(at), p=p)]

    vocab = {int(i): _word(int(words[i])) for i in np.unique(ids)}
    tokens = [vocab[i] for i in ids.tolist()]
    with open(out / "corpus.txt", "w", encoding="utf-8", newline="\n") as dst:
        pos = 0
        for n in lengths.tolist():
            dst.write(" ".join(tokens[pos:pos + n]) + "\n")
            pos += n

    held_out = rng.random(w.types) < HOLDOUT_FRACTION
    labels = [f"C{c}" for c in range(CLASSES)]
    taggable = np.bincount(ids, minlength=w.types) >= MIN_TAGGED_COUNT
    seen = _capped(ids, taggable & ~held_out)
    splits = {
        "dev": seen[:w.dev_tokens],
        "train": seen[w.dev_tokens:w.dev_tokens + w.train_tokens],
        "test": _capped(ids, taggable & held_out)[:w.test_tokens],
    }
    for name, at in splits.items():
        _write_conll(out / f"{name}.conll",
                     ((tokens[i], labels[classes[i]]) for i in at.tolist()))
    return len(tokens)


def generate(w: Workload, seed: int, out: Path) -> int:
    """Write corpus.txt and the train/dev/test CoNLL files; return tokens."""
    out.mkdir(parents=True, exist_ok=True)
    return (_grammar if w.corpus == "grammar" else _zipf)(w, seed, out)
