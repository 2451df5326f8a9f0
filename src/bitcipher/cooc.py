"""Windowed co-occurrence counting and Sum/Cat context aggregation."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

from ._lazy import np
from .corpus import Vocabulary

BLOCK = 1 << 16  # sorted keys per ``aggregate`` step, run on to a row end


@dataclass(frozen=True)
class ContextConfig:
    """Window shape and aggregation settings.

    ``radius`` is the half-width r: neighbors at offsets 1..r on each side.
    Sum mode adds weighted context vectors elementwise (output dimension b);
    cat mode aggregates each signed offset into its own slot and
    concatenates them (output dimension 2*r*b). ``log_weighting`` replaces
    raw counts x with log(1+x) as aggregation weights. ``include_center``
    adds the center token's own vector to its Sum row; cat rows are purely
    contextual and ignore it.
    """

    radius: int
    mode: str = "sum"
    log_weighting: bool = False
    include_center: bool = False

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("radius must be >= 1")
        if self.mode not in ("sum", "cat"):
            raise ValueError(f"unknown aggregation mode: {self.mode!r}")

    def output_dim(self, bits: int) -> int:
        return bits if self.mode == "sum" else 2 * self.radius * bits

    def offsets(self) -> list[int]:
        r = self.radius
        return list(range(-r, 0)) + list(range(1, r + 1))


@dataclass
class CoocCounts:
    """Window counts as parallel arrays sorted by key.

    With ``n = n_rows`` (vocab + OOV) and ``S`` slots per row (1 for sum,
    ``2*radius`` for cat), a key is ``(center*S + slot)*n + context``, where
    ``slot`` indexes ``ContextConfig.offsets()`` (always 0 for sum). So
    ``key // n`` is the row of the output seen as ``(n*S, bits)``. Keys are
    unique, and ``counts[i]`` is the positive count of ``keys[i]``.
    """

    mode: str
    radius: int
    n_rows: int
    keys: np.ndarray
    counts: np.ndarray


def _row_ids(documents: Iterable[list[str]],
             vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """Row id of each token, and the index of the document holding it."""
    rows, lengths = array("q"), array("q")
    get, oov = vocab.index.get, vocab.oov_index
    for tokens in documents:
        rows.extend(map(get, tokens, repeat(oov)))
        lengths.append(len(tokens))
    docs = np.repeat(np.arange(len(lengths), dtype=np.int64),
                     np.frombuffer(lengths, dtype=np.int64))
    return np.frombuffer(rows, dtype=np.int64), docs


def _offset_counts(ids: np.ndarray, docs: np.ndarray, n: int,
                   config: ContextConfig) -> tuple[np.ndarray, np.ndarray]:
    """Each offset's sorted (key, count) arrays, concatenated."""
    radius, slots = config.radius, config.output_dim(1)
    parts = [(np.empty(0, dtype=np.int64),) * 2]
    for k in range(1, min(radius, len(ids) - 1) + 1):
        same = docs[:-k] == docs[k:]
        # offset -k is slot radius-k, +k is slot radius+k-1 (sum: always 0)
        for slot, center, context in ((radius - k, ids[k:], ids[:-k]),
                                      (radius + k - 1, ids[:-k], ids[k:])):
            keys = (center * slots + slot % slots) * n + context
            parts.append(np.unique(keys[same], return_counts=True))
    return (np.concatenate([keys for keys, _ in parts]),
            np.concatenate([counts for _, counts in parts]))


def accumulate_cooccurrence(documents: Iterable[list[str]], vocab: Vocabulary,
                            config: ContextConfig) -> CoocCounts:
    """Count windowed neighbor pairs, never crossing document boundaries.

    Every neighbor at offset o, 1 <= |o| <= radius, within the same document
    increments the (center[, o], context) cell by one. Out-of-vocabulary
    tokens participate on both sides through the shared OOV row.
    """
    n = vocab.size + 1
    if 2 * config.radius * n * n >= 2 ** 63:
        raise ValueError(f"radius {config.radius} over {n} rows overflows "
                         f"the int64 co-occurrence key space")
    keys, counts = _offset_counts(*_row_ids(documents, vocab), n, config)
    # Merge the sorted runs (timsort finds them) and add a cell's counts over
    # sum offsets, compacting in place so freed temporaries go back to the OS.
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    counts = counts[order]
    del order
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    cells = len(starts)
    keys[:cells] = keys[starts]
    counts[:cells] = np.add.reduceat(counts, starts)
    return CoocCounts(config.mode, config.radius, n, keys[:cells],
                      counts[:cells])


def aggregate(counts: CoocCounts, nu: np.ndarray,
              config: ContextConfig) -> np.ndarray:
    """Blend the noisy token vectors ``nu`` into per-center context rows.

    Returns the (N+1) x d rows, d = ``config.output_dim(bits)``, OOV last.
    """
    if counts.mode != config.mode or counts.radius != config.radius:
        raise ValueError("counts were accumulated under a different context config")
    n_rows, bits = nu.shape
    if counts.n_rows != n_rows:
        raise ValueError(f"counts cover {counts.n_rows} rows but noisy "
                         f"embedding has {n_rows}")
    slots = config.output_dim(1)
    out = np.zeros((n_rows * slots, bits))
    nu_t = np.ascontiguousarray(nu.T)
    keys = counts.keys
    # Keys ascend, and each block of about BLOCK keys ends on a row boundary,
    # so one bincount per bit fills the block's rows, each adding its
    # contexts in ascending order from 0.0: a canonical CSR product's sums,
    # which digests pin.
    lo = 0
    while lo < len(keys):
        hi = min(lo + BLOCK, len(keys))
        hi = int(np.searchsorted(keys, (keys[hi - 1] // n_rows + 1) * n_rows))
        row, context = np.divmod(keys[lo:hi], n_rows)
        weights = counts.counts[lo:hi].astype(np.float64)
        if config.log_weighting:
            np.log1p(weights, out=weights)
        first = int(row[0])
        row -= first
        span = int(row[-1]) + 1
        for j in range(bits):
            out[first:first + span, j] = np.bincount(
                row, weights=nu_t[j][context] * weights, minlength=span)
        lo = hi
    if config.include_center and config.mode == "sum":
        centers = np.unique(counts.keys // n_rows)
        out[centers] += nu[centers]
    return out.reshape(n_rows, slots * bits)


def embed_corpus(documents: Iterable[list[str]], vocab: Vocabulary,
                 nu: np.ndarray, config: ContextConfig) -> np.ndarray:
    """Count the documents' windows and aggregate the noisy vectors ``nu``."""
    return aggregate(accumulate_cooccurrence(documents, vocab, config), nu,
                     config)
