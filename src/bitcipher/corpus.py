"""Corpus streaming, frequency counting, and frequency-ranked vocabularies."""

from __future__ import annotations

import gzip
import io
import marshal
import os
import re
import signal
import tempfile
import warnings
import zlib
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from ._lazy import np

GZIP_MAGIC = b"\x1f\x8b"
# Bytes of plain text from which `count` forks. Paired CLI runs on 2 cores:
# the grammar corpus (1.1 MB, 226 types) ties, zipf-cat's (394 KB, 10k types)
# loses 15 ms and the 1M corpus (4.8 MB, 92k types) wins 0.11-0.22 s.
_SPLIT_BYTES = 256 * 1024
# Documents the forked counter reads between checks that its parent lives.
_CHILD_BLOCK_DOCS = 1024

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


def _has_magic(path, magic: bytes) -> bool:
    """Whether the file starts with ``magic`` or is a non-empty prefix of
    it: a file cut inside its magic goes to the reader that names the cut."""
    with open(path, "rb") as fh:
        head = fh.read(len(magic))
    return bool(head) and magic.startswith(head)


def _binary_stream(source) -> BinaryIO:
    """Raw bytes as a stream, or a path opened for binary reading, inflating
    gzip, which is told by its magic bytes."""
    if isinstance(source, (bytes, bytearray)):
        return io.BytesIO(source)
    gzipped = _has_magic(source, GZIP_MAGIC)
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
    block: list[str] = []
    with _binary_stream(source) as stream:
        for text in _lines(stream, source):
            if config.doc_boundary == "line":
                yield tokenize_line(text, config)
            elif text.strip():
                block.extend(tokenize_line(text, config))
            elif block:
                yield block
                block = []
    if block:
        yield block


def _lines(stream: BinaryIO, source, offset: int = 0,
           stop: int | None = None) -> Iterator[str]:
    r"""Decode each line of ``stream`` (only "\n" ends one) from byte
    ``offset`` to the first at/after ``stop``; errors name ``source``."""
    stream.seek(offset)
    try:
        for raw in stream:
            if stop is not None and offset >= stop:
                return
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise EncodingError(offset + exc.start, source) from exc
            offset += len(raw)
            yield text
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


def _second_cpu() -> bool:
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1)


def _run_halves(first, second, merge, what: str, dir=None):
    """Call ``first()`` while a forked child calls ``second(file, check)``
    into an unnamed temporary file in ``dir``; reap it, then return
    ``merge(first's result, file)``. The child calls no BLAS (its threads are
    gone there), leaves only by ``os._exit`` (flushing no inherited buffer),
    and at ``check()`` once this process has died. It is killed when ``first``
    fails; a failed child raises a ``ValueError`` naming ``what``."""
    parent = os.getpid()

    def check() -> None:
        if os.getppid() != parent:
            os._exit(1)

    with tempfile.TemporaryFile(dir=dir) as part:
        with warnings.catch_warnings():
            # Python 3.12+ warns on forking a process with (BLAS) threads
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded, "
                r"use of fork\(\) may lead to deadlocks in the child",
                DeprecationWarning)
            pid = os.fork()
        if not pid:
            try:
                second(part, check)
                part.flush()
                os._exit(0)
            finally:
                os._exit(1)
        try:
            result = first()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(pid, 0)
        if status:
            raise ValueError(f"{what} failed (exit status "
                             f"{os.waitstatus_to_exitcode(status)})")
        part.seek(0)
        return merge(result, part)


def count_corpus(path: str | Path, config: TokenizerConfig = TokenizerConfig(),
                 workers: int = 1) -> FrequencyTable:
    """Count one corpus file; the counts are those of one sequential pass.
    From :data:`_SPLIT_BYTES` of plain text with line-bounded documents, and
    with a second CPU, a forked process counts the lines from the first that
    starts at or after the middle byte (see :func:`_run_halves`). ``workers``
    is ignored; bitbench's ``run_layers`` still passes ``workers=1``."""
    with open(path, "rb") as src:
        size = os.fstat(src.fileno()).st_size
        if (_has_magic(path, GZIP_MAGIC) or config.doc_boundary != "line"
                or size < max(_SPLIT_BYTES, 2) or not _second_cpu()):
            return count_frequencies(stream_documents(path, config))
        src.seek(size // 2 - 1)
        mid = src.tell() + len(src.readline())

    def documents(start: int, stop: int | None = None, check=lambda: None):
        with _binary_stream(path) as stream:
            for i, text in enumerate(_lines(stream, path, start, stop)):
                if not i % _CHILD_BLOCK_DOCS:
                    check()
                yield tokenize_line(text, config)

    def second(part, check) -> None:
        try:
            counted = vars(count_frequencies(documents(mid, check=check)))
        except EncodingError as exc:
            counted = exc.offset
        marshal.dump(counted, part)

    def merge(table: FrequencyTable, part) -> FrequencyTable:
        counted = marshal.loads(part.read())  # load() reads in small pieces
        if isinstance(counted, int):
            raise EncodingError(counted, path)
        for token, (f, d) in counted["counts"].items():
            f0, d0 = table.counts.get(token, (0, 0))
            table.counts[token] = (f0 + f, d0 + d)
        table.total_tokens += counted["total_tokens"]
        table.total_documents += counted["total_documents"]
        return table

    return _run_halves(lambda: count_frequencies(documents(0, mid)), second,
                      merge, f"{path}: the process counting bytes {mid} to "
                      f"{size - 1}")


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


def _cut(where: str, stream: BinaryIO) -> ValueError:
    return ValueError(f"{where} ends at byte {stream.tell()} without a "
                      "newline; the file may be truncated")


def _terminated(stream: BinaryIO, path) -> Iterator[tuple[int, str]]:
    r"""Each line of ``stream`` with its number, less its "\n" or "\r\n";
    a line cut before its "\n" (a truncated file) or a lone "\r" is refused."""
    for lineno, line in enumerate(_lines(stream, path), start=1):
        if "\r" in line[:-2]:  # anywhere but in a final "\r\n"
            raise ValueError(f"{path}:{lineno}: a lone carriage return")
        if not line.endswith("\n"):
            raise _cut(f"{path}:{lineno}:", stream)
        yield lineno, line.rstrip("\r\n")


def read_frequency_table(path: str | Path) -> FrequencyTable:
    with open(path, "rb") as stream:
        lines = _terminated(stream, path)
        _, header = next(lines, (1, ""))
        totals = re.fullmatch(r"#M=(\d+)\s+D=(\d+)\s*", header)
        if totals is None:
            raise ValueError(f"{path}:1: malformed header {header!r}, "
                             "expected '#M=<tokens> D=<documents>'")
        total_tokens, total_documents = map(int, totals.groups())
        counts: dict[str, tuple[int, int]] = {}
        for lineno, line in lines:
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
