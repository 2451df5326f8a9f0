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

import os
import re
import shutil
import struct
from collections import Counter
from pathlib import Path
from typing import Sequence

from ._lazy import np
from .corpus import (OOV_TOKEN, EncodingError, Vocabulary, _run_halves,
                     _second_cpu, open_text)

EMBED_MAGIC = b"BCEM"
EMBED_VERSION = 1
_BIN_HEADER = struct.Struct("<4sIII")
# Fewest values (rows x dim) a text file must hold before a second process
# formats half of them. On a 2-core host, from a process holding 100 MB, the
# fork, the wait and the append cost as much as the half saves at 20,000 to
# 50,000 values, and two processes win from 100,000 (45 -> 30 ms).
_SPLIT_VALUES = 100_000
# Rows the forked child formats between checks that its parent still lives.
_CHILD_BLOCK_ROWS = 1024

# Characters that would break the whitespace-delimited text format. '%' is
# escaped too so the mapping stays injective; each direction is one pass.
_ESCAPES = {"%": "%25", " ": "%20", "\t": "%09", "\n": "%0A", "\r": "%0D"}
_UNESCAPES = {v: k for k, v in _ESCAPES.items()}
_ESCAPE_TABLE = str.maketrans(_ESCAPES)
_ESCAPED = re.compile("|".join(_UNESCAPES))


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
    """From :data:`_SPLIT_VALUES` values up, and where a second CPU can be
    used, a forked process formats the second half of the rows (see
    :func:`_write_halves`); the bytes are those of one process."""
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

    def write(out, start: int, stop: int) -> None:
        _write_rows(out, line, escaped[start:stop], rows[start:stop])

    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(f"{n} {dim}\n")
        if n * dim < _SPLIT_VALUES or not _second_cpu():
            write(out, 0, n)
        else:
            _write_halves(out, write, n, path)


def _write_rows(out, line: str, tokens: Sequence[str],
                rows: np.ndarray) -> None:
    for token, row in zip(tokens, rows):
        out.write(line % (token, *row.tolist()))


def _write_halves(out, write, n: int, path: str | Path) -> None:
    """The first half of the rows here, the rest by :func:`_run_halves`."""
    half = n // 2

    def second(part, check) -> None:
        with open(part.fileno(), "w", encoding="utf-8", newline="\n",
                  closefd=False) as child_out:
            for start in range(half, n, _CHILD_BLOCK_ROWS):
                check()
                write(child_out, start, min(n, start + _CHILD_BLOCK_ROWS))

    def append(_, part) -> None:
        out.flush()
        shutil.copyfileobj(part, out.buffer)

    _run_halves(lambda: write(out, 0, half), second, append,
               f"{path}: the process writing rows {half} to {n - 1}",
               Path(path).parent)


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
            # max_rows makes loadtxt allocate all n rows up front, so first
            # refuse more rows than fit (each takes >= 2 (dim + 1) bytes)
            if 2 * n * (dim + 1) > Path(path).stat().st_size:
                raise ValueError(detail)
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
            if not parts:
                raise ValueError(f"{path}: row {i} is blank")
            if len(parts) != dim + 1:
                raise ValueError(f"{path}: row {i} has {len(parts) - 1} values, "
                                 f"expected {dim}")
            try:
                for value in parts[1:]:
                    float(value)
            except ValueError as exc:
                raise ValueError(f"{path}: row {i}: {exc}") from None
        if src.read(1):
            if not n:
                raise ValueError(f"{path}: text after the header, which "
                                 "declares 0 rows")
            raise ValueError(f"{path}: text after row {n - 1}: the header "
                             f"declares {n} rows")


def write_embeddings_binary(rows: np.ndarray, tokens: Sequence[str],
                            path: str | Path) -> None:
    n, dim = rows.shape
    _check_tokens(tokens, n, path)
    with open(path, "wb") as out:
        out.write(_BIN_HEADER.pack(EMBED_MAGIC, EMBED_VERSION, n, dim))
        out.write(np.ascontiguousarray(rows, dtype="<f4"))
        out.write(b"".join(struct.pack("<I", len(raw)) + raw
                           for raw in map(str.encode, tokens)))


def read_embeddings_binary(path: str | Path) -> tuple[np.ndarray, list[str]]:
    """Every error names the path and the byte offset where reading stopped.
    The float block is read, once the file is known to hold it, straight
    into the rows returned."""
    with open(path, "rb") as src:
        size, at = os.fstat(src.fileno()).st_size, 0

        def claim(count: int, what: str) -> int:
            nonlocal at
            if count > size - at:
                raise ValueError(f"{path}: truncated {what} at byte {at}")
            at += count
            return count

        magic, version, n, dim = _BIN_HEADER.unpack(
            src.read(claim(_BIN_HEADER.size, "header")))
        if magic != EMBED_MAGIC:
            raise ValueError(f"{path}: not an embedding file")
        if version != EMBED_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        rows = np.fromfile(src, dtype="<f4",
                           count=claim(4 * n * dim, "float block") // 4)
        tokens = []
        for i in range(n):
            (length,) = struct.unpack(
                "<I", src.read(claim(4, f"length of token {i}")))
            try:
                tokens.append(str(src.read(claim(length, f"token {i}")),
                                  "utf-8"))
            except UnicodeDecodeError as exc:
                raise EncodingError(at - length + exc.start, path) from None
    if at != size:
        raise ValueError(f"{path}: {size - at} trailing bytes at byte {at}")
    return rows.reshape(n, dim).astype(np.float32, copy=False), tokens


def is_binary_embedding_file(path: str | Path) -> bool:
    with open(path, "rb") as src:
        return src.read(4) == EMBED_MAGIC


def read_embeddings(path: str | Path) -> tuple[np.ndarray, list[str]]:
    """Read either format, sniffing the binary magic.

    Rows of dimension 0, rows holding NaN or infinity, and a token that
    repeats an earlier row are rejected with the path and the first such
    row, so no command turns them into an artifact.
    """
    if is_binary_embedding_file(path):
        rows, tokens = read_embeddings_binary(path)
    else:
        rows, tokens = read_embeddings_text(path)
    if not rows.shape[1]:
        raise ValueError(f"{path}: the rows hold no values (dimension 0)")
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
