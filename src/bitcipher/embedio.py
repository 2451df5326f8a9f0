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
from typing import Iterator, Sequence

from ._lazy import np
from .corpus import (OOV_TOKEN, EncodingError, Vocabulary, _cut,
                     _has_magic, _lines, _run_halves, _second_cpu)
from .postprocess import _NORM_BLOCK_ROWS

EMBED_MAGIC = b"BCEM"
EMBED_VERSION = 1
_BIN_HEADER = struct.Struct("<4sIII")
# Fewest values (rows x dim) a text file must hold before a second process
# formats half of them. In paired CLI runs on 2 cores, zipf-cat's `embed`
# (2.1M values) is 0.17-0.18 s faster forked; its break-even is unmeasured.
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
    """Parse the lines :func:`_text_rows` yields in one pass of numpy's C
    ``loadtxt``, the token column by a throwaway converter; on a failure,
    re-read the file to name the first bad row, by the walker or float()."""
    tokens: list[str] = []
    walk = _text_rows(path, tokens)
    n, dim = next(walk)
    detail = f"the rows do not match the header's {n} x {dim}"
    try:
        # max_rows makes loadtxt allocate all n rows up front, so first
        # refuse more rows than fit (each takes >= 2 (dim + 1) bytes)
        if 2 * n * (dim + 1) > os.path.getsize(path):
            raise ValueError(detail)
        rows = np.loadtxt(walk, dtype=np.float64, comments=None, ndmin=2,
                          max_rows=n, converters={0: lambda s: 0.0}
                          ) if n else np.empty((0, dim + 1))
        next(walk, None)  # the walker's check for text after the rows
        if rows.shape == (n, dim + 1):
            # a copy would hold a second matrix at the peak
            return rows[:, 1:], tokens
    except ValueError as exc:
        detail = str(exc)
    walk = _text_rows(path, [])  # again, to name the first bad row
    _, dim = next(walk)
    for i, line in enumerate(walk):
        parts = line.split()
        if len(parts) != dim + 1:
            raise ValueError(f"{path}: row {i} has {len(parts) - 1} values, "
                             f"expected {dim}")
        try:
            for value in parts[1:]:
                float(value)
        except ValueError as exc:
            raise ValueError(f"{path}: row {i}: {exc}") from None
    raise ValueError(f"{path}: {detail}")


def _text_rows(path: str | Path, tokens: list[str]) -> Iterator:
    """Yield the header's ``(rows, dim)``, then each row's line, its token
    appended to ``tokens``. Refuse a malformed header, a missing, cut or
    blank row (loadtxt would skip a blank line, warn on no lines at all, and
    count blank lines against max_rows differently across versions) and,
    resumed after the last row, any text after it."""
    with open(path, "rb") as stream:
        lines = _lines(stream, path)
        header = next(lines, "")
        fields = header.split()
        if len(fields) != 2 or not all(f.isdecimal() for f in fields):
            raise ValueError(f"{path}: malformed header {header.strip()!r}, "
                             "expected '<rows> <dim>'")
        if not header.endswith("\n"):
            raise _cut(f"{path}: the header", stream)
        n = int(fields[0])
        yield n, int(fields[1])
        for i in range(n):
            line = next(lines, "")
            if not line:
                raise ValueError(f"{path}: ends before row {i} of the {n} "
                                 "rows its header declares")
            if not line.endswith("\n"):
                raise _cut(f"{path}: row {i}", stream)
            if not line.strip():
                raise ValueError(f"{path}: row {i} is blank")
            tokens.append(unescape_token(line.split(None, 1)[0]))
            yield line
        if next(lines, None) is not None:
            if not n:
                raise ValueError(f"{path}: text after the header, which "
                                 "declares 0 rows")
            raise ValueError(f"{path}: text after row {n - 1}: the header "
                             f"declares {n} rows")


def write_embeddings_binary(rows: np.ndarray, tokens: Sequence[str],
                            path: str | Path) -> None:
    n, dim = rows.shape
    _check_tokens(tokens, n, path)
    with np.errstate(over="ignore"):  # an overflow is refused below
        values = np.ascontiguousarray(rows, dtype="<f4")
    # float64 sums of finite float32 values stay finite
    bad = np.flatnonzero(~np.isfinite(values.sum(axis=1, dtype=np.float64)))
    if len(bad):
        raise ValueError(f"{path}: row {bad[0]} token {tokens[bad[0]]!r} "
                         "holds a value that is not finite in float32")
    with open(path, "wb") as out:
        out.write(_BIN_HEADER.pack(EMBED_MAGIC, EMBED_VERSION, n, dim))
        out.write(values)
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


def read_embeddings(path: str | Path) -> tuple[np.ndarray, list[str]]:
    """Read either format, sniffing the binary magic.

    Rows of dimension 0, rows holding NaN or infinity, and a token that
    repeats an earlier row are rejected with the path and the first such
    row, so no command turns them into an artifact.
    """
    if _has_magic(path, EMBED_MAGIC):
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
    for start in range(0, len(rows), _NORM_BLOCK_ROWS):
        finite = np.isfinite(rows[start:start + _NORM_BLOCK_ROWS]).all(axis=1)
        if not finite.all():
            row = start + int(np.argmin(finite))
            raise ValueError(f"{path}: row {row} ({tokens[row]!r}) holds a "
                             "non-finite value")
    return rows, tokens
