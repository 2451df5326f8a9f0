"""Corpus streaming, frequency counting, and frequency-ranked vocabularies."""

from __future__ import annotations

import gzip
import io
import re
import zlib
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from ._lazy import np

GZIP_MAGIC = b"\x1f\x8b"

# The label of the out-of-vocabulary row in embedding files; reserved, so a
# corpus token spelled this way is never given a row of its own.
OOV_TOKEN = "<oov>"

# A maximal alphanumeric run, or a maximal run of the other non-space
# characters: ``\w`` is ``isalnum()`` plus "_", ``\s`` is ``isspace()``.
_TOKEN = re.compile(r"[^\W_]+|(?:[^\w\s]|_)+")


class EncodingError(ValueError):
    """Corpus bytes are not valid UTF-8; the message names a path source."""

    def __init__(self, offset: int, source=None):
        self.offset = offset
        where = f"{source}: " if isinstance(source, (str, Path)) else ""
        super().__init__(f"{where}invalid UTF-8 at byte offset {offset}")


@contextmanager
def open_text(path: str | Path) -> Iterator[io.TextIOWrapper]:
    """Open ``path`` for reading as UTF-8 text. Invalid UTF-8 raises
    :class:`EncodingError` with the path and the absolute byte offset, found
    by decoding the whole file once more: the decoder's own position counts
    from the start of its buffer."""
    with open(path, "r", encoding="utf-8") as src:
        try:
            yield src
        except UnicodeDecodeError:
            try:
                Path(path).read_bytes().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise EncodingError(exc.start, path) from None
            raise


@dataclass(frozen=True)
class TokenizerConfig:
    """Rules for the built-in splitter.

    Tokens are maximal runs of alphanumeric characters; when
    ``split_punctuation`` is set, every maximal run of remaining non-space
    characters becomes its own token, otherwise chunks are split on
    whitespace only. ``doc_boundary`` is "line" (one document per line) or
    "blank" (blank-line-separated blocks).
    """

    lowercase: bool = True
    split_punctuation: bool = True
    doc_boundary: str = "line"

    def __post_init__(self):
        if self.doc_boundary not in ("line", "blank"):
            raise ValueError(f"unknown doc_boundary: {self.doc_boundary!r}")


def tokenize_line(text: str, config: TokenizerConfig) -> list[str]:
    """Split one line of text into tokens under ``config``."""
    if config.lowercase:
        text = text.lower()
    if not config.split_punctuation:
        return text.split()
    return _TOKEN.findall(text)


def _binary_stream(source) -> BinaryIO:
    """Raw bytes as a stream, or a path opened for binary reading, inflating
    gzip, which is told by its magic bytes."""
    if isinstance(source, (bytes, bytearray)):
        return io.BytesIO(source)
    with open(source, "rb") as fh:
        gzipped = fh.read(2) == GZIP_MAGIC
    return gzip.open(source) if gzipped else open(source, "rb")


def stream_documents(source, config: TokenizerConfig = TokenizerConfig()
                     ) -> Iterator[list[str]]:
    """Yield the tokens of each document in corpus order.

    ``source`` is a path (plain or gzip) or raw bytes. With line-bounded
    documents every line is a document, an empty one included; with
    blank-line-bounded documents only blocks holding tokens are yielded.
    Invalid UTF-8 raises :class:`EncodingError`, and truncated or corrupt
    gzip a ``ValueError``; both name a path ``source`` and give the byte
    offset (decompressed, for gzip).
    """
    offset = 0
    block: list[str] = []
    with _binary_stream(source) as stream:
        try:
            for raw in stream:
                try:
                    text = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise EncodingError(offset + exc.start, source) from exc
                offset += len(raw)
                if config.doc_boundary == "line":
                    yield tokenize_line(text, config)
                elif text.strip():
                    block.extend(tokenize_line(text, config))
                elif block:
                    yield block
                    block = []
            if block:
                yield block
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise ValueError(f"{source}: corrupt gzip data after decompressed "
                             f"byte offset {offset}: {exc}") from exc


def stream_tokens(source, config: TokenizerConfig = TokenizerConfig()
                  ) -> Iterator[tuple[int, str]]:
    """Yield (document index, token) pairs of :func:`stream_documents`."""
    for doc_id, tokens in enumerate(stream_documents(source, config)):
        for token in tokens:
            yield doc_id, token


@dataclass
class FrequencyTable:
    """Per-token unigram (f) and document (d) counts plus corpus totals.

    ``total_tokens`` is the corpus token count M; ``total_documents`` is the
    number of token-bearing documents D. Counts are 64-bit safe Python ints.
    """

    counts: dict[str, tuple[int, int]] = field(default_factory=dict)
    total_tokens: int = 0
    total_documents: int = 0


def count_frequencies(documents: Iterable[list[str]]) -> FrequencyTable:
    """Count unigram and document frequencies over tokenized documents.

    Only documents holding tokens count towards ``total_documents``.
    """
    freqs: Counter[str] = Counter()
    doc_freqs: Counter[str] = Counter()
    docs = 0
    for tokens in documents:
        if tokens:
            freqs.update(tokens)
            doc_freqs.update(set(tokens))
            docs += 1
    counts = {t: (freqs[t], doc_freqs[t]) for t in freqs}
    return FrequencyTable(counts, freqs.total(), docs)


# types, ids, lengths: what intern_documents returns (quoted, so that
# numpy stays unloaded)
Interned = tuple[list[str], "np.ndarray", "np.ndarray"]


def intern_documents(documents: Iterable[list[str]]) -> Interned:
    """Walk ``documents`` once: the distinct tokens in first-seen order, the
    int64 index of each token among them, and each document's length."""
    index = defaultdict(count().__next__)
    ids, lengths = array("q"), array("q")
    for tokens in documents:
        ids.extend(map(index.__getitem__, tokens))
        lengths.append(len(tokens))
    return (list(index), np.frombuffer(ids, dtype=np.int64),
            np.frombuffer(lengths, dtype=np.int64))


def interned_frequencies(interned: Interned) -> FrequencyTable:
    """The counts of :func:`count_frequencies` from interned documents, the
    tokens in first-seen order."""
    types, ids, lengths = interned
    n = len(types)
    # Sorted (document, type) keys: each distinct one is a document holding
    # the type. The keys fit int64 unless documents and types both number in
    # the billions.
    keys = np.repeat(np.arange(len(lengths), dtype=np.int64) * n, lengths)
    keys += ids
    keys.sort()
    first = np.diff(keys, prepend=-1) != 0
    f = np.bincount(ids, minlength=n).tolist()
    d = np.bincount(keys[first] % n, minlength=n).tolist()
    return FrequencyTable(dict(zip(types, zip(f, d))), len(keys),
                          int(np.count_nonzero(lengths)))


def count_corpus(path: str | Path, config: TokenizerConfig = TokenizerConfig(),
                 workers: int = 1) -> FrequencyTable:
    """Count one corpus file in a single sequential pass.

    ``workers`` is accepted and ignored, because ``run_layers`` in
    ``bitbench/tracer.py`` still calls ``count_corpus(corpus, workers=1)``.
    """
    return count_frequencies(stream_documents(path, config))


@dataclass(frozen=True)
class Vocabulary:
    """Frequency-ranked token inventory.

    ``ranked[0]`` is the most frequent token (rank 1). ``index`` maps tokens
    to 0-based matrix rows; out-of-vocabulary tokens share the dedicated row
    ``oov_index == size``.
    """

    ranked: tuple[str, ...]
    index: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.ranked)

    @property
    def oov_index(self) -> int:
        return len(self.ranked)

    def row_for(self, token: str) -> int:
        return self.index.get(token, self.oov_index)


def rank_tokens(table: FrequencyTable) -> list[str]:
    """All tokens by descending unigram count, ties by ascending token order."""
    return sorted(table.counts, key=lambda t: (-table.counts[t][0], t))


def build_vocabulary(table: FrequencyTable, bits: int,
                     max_vocab: int | None = None) -> Vocabulary:
    """Keep the top tokens that fit in ``bits`` (capacity 2^bits - 1).

    :data:`OOV_TOKEN` is never kept: like a token cut by the capacity, its
    occurrences fall on the out-of-vocabulary row.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    capacity = (1 << bits) - 1
    ranked = rank_tokens(table)
    if OOV_TOKEN in table.counts:
        ranked.remove(OOV_TOKEN)
    size = min(len(ranked), capacity)
    if max_vocab is not None:
        if max_vocab < 1:
            raise ValueError(f"max_vocab must be >= 1, got {max_vocab}")
        size = min(size, max_vocab)
    if size == 0:
        raise ValueError("empty vocabulary: no tokens fit the requested capacity")
    kept = tuple(ranked[:size])
    return Vocabulary(kept, {t: i for i, t in enumerate(kept)})


def write_frequency_table(table: FrequencyTable, path: str | Path) -> None:
    """Serialize as ``#M=<int> D=<int>`` header plus rank-ordered TSV rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(f"#M={table.total_tokens} D={table.total_documents}\n")
        for token in rank_tokens(table):
            f, d = table.counts[token]
            out.write(f"{token}\t{f}\t{d}\n")


def read_frequency_table(path: str | Path) -> FrequencyTable:
    with open_text(path) as src:
        header = src.readline().rstrip("\n")
        totals = re.fullmatch(r"#M=(\d+)\s+D=(\d+)\s*", header)
        if totals is None:
            raise ValueError(f"{path}:1: malformed header {header!r}, "
                             "expected '#M=<tokens> D=<documents>'")
        total_tokens, total_documents = map(int, totals.groups())
        counts: dict[str, tuple[int, int]] = {}
        for lineno, line in enumerate(src, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                token, f, d = line.split("\t")
                row = (int(f), int(d))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row {line!r}") from exc
            if not (1 <= row[1] <= row[0] <= total_tokens
                    and row[1] <= total_documents):
                raise ValueError(f"{path}:{lineno}: counts f={f} d={d} break "
                                 f"1 <= d <= f <= M={total_tokens} and "
                                 f"d <= D={total_documents}")
            if token in counts:
                raise ValueError(f"{path}:{lineno}: token {token!r} repeats "
                                 "an earlier row")
            counts[token] = row
    total = sum(f for f, _ in counts.values())
    if total != total_tokens:
        raise ValueError(f"{path}: the f column sums to {total}, but the "
                         f"header declares M={total_tokens}")
    return FrequencyTable(counts, total_tokens, total_documents)
