"""Interoperable embedding files: whitespace text and little-endian binary.

Text format: a ``<rows> <dim>`` header line, then one ``token v1 ... vd``
line per row with 6 significant digits. It is read in one streamed pass by
numpy's C ``loadtxt``, so values follow numpy's float grammar: ``1_0``,
which ``float()`` accepts, is refused, as hex such as ``0x10`` always was.
Binary format: magic ``BCEM``, version, row count, dimension (all
little-endian 32-bit), row-major float32 values, then a length-prefixed
UTF-8 token table. The out-of-vocabulary row is always written last under
the reserved token ``<oov>``.
"""

from __future__ import annotations

import re
import struct
from collections import Counter
from pathlib import Path
from typing import Sequence

from ._lazy import np
from .corpus import OOV_TOKEN, EncodingError, Vocabulary, open_text

EMBED_MAGIC = b"BCEM"
EMBED_VERSION = 1
_BIN_HEADER = struct.Struct("<4sIII")

# Characters that would break the whitespace-delimited text format. '%' is
# escaped too so the mapping stays injective; each direction is one pass.
_ESCAPES = {"%": "%25", " ": "%20", "\t": "%09", "\n": "%0A", "\r": "%0D"}
_UNESCAPES = {v: k for k, v in _ESCAPES.items()}
_ESCAPE_TABLE = str.maketrans(_ESCAPES)
_ESCAPED = re.compile("|".join(_UNESCAPES))


class ByteReader:
    """Bounds-checked reads over a whole binary file.

    Every error names the path and the byte offset where reading stopped.
    """

    def __init__(self, path: str | Path):
        self.path = path
        self.data = memoryview(Path(path).read_bytes())
        self.offset = 0

    def take(self, size: int, what: str) -> memoryview:
        if size > len(self.data) - self.offset:
            raise ValueError(f"{self.path}: truncated {what} at byte "
                             f"{self.offset}")
        self.offset += size
        return self.data[self.offset - size:self.offset]

    def take_text(self, size: int, what: str) -> str:
        """The next ``size`` bytes decoded as UTF-8."""
        raw = self.take(size, what)
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(self.offset - size + exc.start,
                                self.path) from None

    def finish(self) -> None:
        """Reject bytes after the last field read."""
        if self.offset != len(self.data):
            raise ValueError(f"{self.path}: {len(self.data) - self.offset} "
                             f"trailing bytes at byte {self.offset}")


def escape_token(token: str) -> str:
    return token.translate(_ESCAPE_TABLE)


def unescape_token(token: str) -> str:
    return _ESCAPED.sub(lambda m: _UNESCAPES[m.group()], token)


def row_tokens(vocab: Vocabulary) -> list[str]:
    """Token labels for the (N+1)-row embedding layout, OOV last."""
    return list(vocab.ranked) + [OOV_TOKEN]


def vocabulary_from_tokens(tokens: Sequence[str]) -> Vocabulary:
    """Rebuild the row mapping from an embedding file's token column."""
    if not tokens or tokens[-1] != OOV_TOKEN:
        raise ValueError(f"embedding file must end with the {OOV_TOKEN} row")
    ranked = tuple(tokens[:-1])
    return Vocabulary(ranked, {t: i for i, t in enumerate(ranked)})


def _check_tokens(tokens: Sequence[str], rows: int,
                  path: str | Path) -> list[str]:
    if len(tokens) != rows:
        raise ValueError(f"{path}: {len(tokens)} tokens for {rows} matrix rows")
    escaped = [escape_token(t) for t in tokens]
    dupes = sorted(t for t, seen in Counter(escaped).items() if seen > 1)
    if dupes:
        raise ValueError(f"{path}: token collision after escaping: {dupes[:5]}")
    return escaped


def write_embeddings_text(rows: np.ndarray, tokens: Sequence[str],
                          path: str | Path) -> None:
    n, dim = rows.shape
    escaped = _check_tokens(tokens, n, path)
    # The reader splits each line on whitespace, so a token must escape to
    # exactly one field.
    for i, token in enumerate(escaped):
        if token.split() != [token]:
            raise ValueError(f"{path}: row {i} token {tokens[i]!r} is empty "
                             "or holds whitespace the text format cannot "
                             "escape")
    line = "%s " + " ".join(["%.6g"] * dim) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(f"{n} {dim}\n")
        for token, row in zip(escaped, rows):
            out.write(line % (token, *row.tolist()))


def read_embeddings_text(path: str | Path) -> tuple[np.ndarray, list[str]]:
    """Read a text embedding file in one streamed pass.

    numpy's C ``loadtxt`` parses each line, with a throwaway converter for
    the token column; the rows returned are a view past that column, and the
    tokens are collected as the lines stream by. Any failure re-reads the
    file with :func:`_check_text_rows` to name the first bad row.
    """
    with open_text(path) as src:
        header = src.readline()
        fields = header.split()
        if len(fields) != 2 or not all(f.isdecimal() for f in fields):
            raise ValueError(f"{path}: malformed header {header.strip()!r}, "
                             "expected '<rows> <dim>'")
        n, dim = int(fields[0]), int(fields[1])
        tokens: list[str] = []

        def lines():
            # loadtxt would skip a blank line, warn on no lines at all, and
            # count blank lines against max_rows differently across versions
            for _ in range(n):
                line = src.readline()
                if not line.strip():
                    raise ValueError("a blank line or the end of the file")
                tokens.append(unescape_token(line.split(None, 1)[0]))
                yield line

        detail = f"the rows do not match the header's {n} x {dim}"
        try:
            # max_rows lets loadtxt allocate the matrix once, not grow it
            rows = np.loadtxt(lines(), dtype=np.float64, comments=None,
                              ndmin=2, max_rows=n,
                              converters={0: lambda s: 0.0}
                              ) if n else np.empty((0, dim + 1))
            if rows.shape == (n, dim + 1) and not src.read(1):
                # a copy would hold a second matrix at the peak
                return rows[:, 1:], tokens
        except UnicodeDecodeError:
            raise
        except ValueError as exc:
            detail = str(exc)
    _check_text_rows(path, n, dim)
    raise ValueError(f"{path}: {detail}")


def _check_text_rows(path: str | Path, n: int, dim: int) -> None:
    """Raise the first error a per-line ``float()`` reader finds in the
    ``n`` rows of width ``dim`` after the header of ``path``."""
    with open_text(path) as src:
        src.readline()
        for i in range(n):
            line = src.readline()
            if not line:
                raise ValueError(f"{path}: ends before row {i} of the {n} "
                                 "rows its header declares")
            parts = line.split()
            if len(parts) != dim + 1:
                raise ValueError(f"{path}: row {i} has {len(parts) - 1} values, "
                                 f"expected {dim}")
            try:
                for value in parts[1:]:
                    float(value)
            except ValueError as exc:
                raise ValueError(f"{path}: row {i}: {exc}") from None
        if src.read(1):
            raise ValueError(f"{path}: text after row {n - 1}: the header "
                             f"declares {n} rows")


def write_embeddings_binary(rows: np.ndarray, tokens: Sequence[str],
                            path: str | Path) -> None:
    n, dim = rows.shape
    _check_tokens(tokens, n, path)
    with open(path, "wb") as out:
        out.write(_BIN_HEADER.pack(EMBED_MAGIC, EMBED_VERSION, n, dim))
        out.write(np.ascontiguousarray(rows, dtype="<f4").tobytes())
        for token in tokens:
            raw = token.encode("utf-8")
            out.write(struct.pack("<I", len(raw)))
            out.write(raw)


def read_embeddings_binary(path: str | Path) -> tuple[np.ndarray, list[str]]:
    reader = ByteReader(path)
    magic, version, n, dim = _BIN_HEADER.unpack(
        reader.take(_BIN_HEADER.size, "header"))
    if magic != EMBED_MAGIC:
        raise ValueError(f"{path}: not an embedding file")
    if version != EMBED_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    rows = np.frombuffer(reader.take(n * dim * 4, "float block"), dtype="<f4")
    rows = rows.reshape(n, dim).astype(np.float32)
    tokens = []
    for i in range(n):
        (length,) = struct.unpack("<I", reader.take(4, f"length of token {i}"))
        tokens.append(reader.take_text(length, f"token {i}"))
    reader.finish()
    return rows, tokens


def is_binary_embedding_file(path: str | Path) -> bool:
    with open(path, "rb") as src:
        return src.read(4) == EMBED_MAGIC


def read_embeddings(path: str | Path) -> tuple[np.ndarray, list[str]]:
    """Read either format, sniffing the binary magic.

    Rows holding NaN or infinity, and a token that repeats an earlier row,
    are rejected with the path and the first such row, so no command turns
    them into an artifact.
    """
    if is_binary_embedding_file(path):
        rows, tokens = read_embeddings_binary(path)
    else:
        rows, tokens = read_embeddings_text(path)
    if len(set(tokens)) != len(tokens):
        first: dict[str, int] = {}
        row = next(i for i, t in enumerate(tokens)
                   if first.setdefault(t, i) != i)
        raise ValueError(f"{path}: row {row} token {tokens[row]!r} repeats "
                         f"row {first[tokens[row]]}")
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"{path}: row {row} ({tokens[row]!r}) holds a "
                         "non-finite value")
    return rows, tokens
