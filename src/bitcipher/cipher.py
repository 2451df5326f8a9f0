"""Deterministic bit-vector assignment and frequency-derived noise encoding.

A b-bit cipher assigns each vocabulary rank a unique nonzero pattern from
{0,1}^b in order of Hamming weight, so that the most frequent tokens get the
most discernible (lowest-weight) patterns. Weight 1 is the standard basis in
index order; each heavier class sets a new top bit h, from b - 1 down to 0,
in every pattern of the class below (read in reverse) whose top bit is
below h. L1-normalizing the patterns yields probabilistic "plain" vectors,
which are then blended with a corpus-wide noise distribution to produce
dense token vectors.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ._lazy import np
from .corpus import FrequencyTable, Vocabulary

CIPHER_MAGIC = b"BCIP"
CIPHER_VERSION = 1
_CIPHER_HEADER = struct.Struct("<4sBIIB")

# Clamp for the document/unigram frequency ratio, keeping fidelities off the
# degenerate endpoints 0 and 1.
DF_CLAMP = 1e-6


class CapacityError(ValueError):
    """More vectors requested than distinct nonzero b-bit patterns exist."""


@dataclass(frozen=True)
class CipherPair:
    """Raw bit rows and their L1-normalized counterparts.

    ``bit_rows`` (N x b, entries in {0,1}) maps b-dimensional predictions
    back to ranks; ``plain_rows`` is the same matrix with each row divided
    by its L1 norm, usable directly as probabilistic token vectors.
    """

    bit_rows: np.ndarray
    plain_rows: np.ndarray
    bits: int

    @property
    def size(self) -> int:
        return self.bit_rows.shape[0]


def cipher_capacity(bits: int) -> int:
    return (1 << bits) - 1


def _bit_rows(n_vectors: int, bits: int) -> np.ndarray:
    """The first ``n_vectors`` cipher rows as an n x bits array of 0s and 1s.

    Weight class 1 is the standard basis in index order. Class k >= 2 is
    built from class k - 1 read in reverse: for each top bit h from
    ``bits - 1`` down to 0, take the rows whose highest set bit is below h,
    in that order, and set bit h in each. This is the order of the scan that
    XORs each basis vector, in reversed index order, into each pattern of
    the reversed class below and keeps the new weight-k patterns: the scan
    first meets a pattern at its highest set bit.
    """
    rows = np.zeros((n_vectors, bits), dtype=np.uint8)
    head = np.arange(min(n_vectors, bits))
    rows[head, head] = 1
    start, end, top = 0, len(head), head
    while end < n_vectors:
        prev, prev_top = rows[start:end][::-1], top[::-1]
        start, tops = end, []
        for h in range(bits - 1, -1, -1):
            block = prev[prev_top < h][:n_vectors - end]
            rows[end:end + len(block)] = block
            rows[end:end + len(block), h] = 1
            tops.append(np.full(len(block), h))
            end += len(block)
            if end == n_vectors:
                break
        top = np.concatenate(tops)
    return rows


def build_cipher(n_vectors: int, bits: int) -> CipherPair:
    """Construct the cipher for ``n_vectors`` ranks in ``bits`` dimensions.

    The first min(n_vectors, bits) ranks are the standard basis vectors in
    index order; Hamming weight never decreases with rank. Output is a pure
    function of (n_vectors, bits).
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    if n_vectors < 1:
        raise ValueError("n_vectors must be >= 1")
    capacity = cipher_capacity(bits)
    if n_vectors > capacity:
        raise CapacityError(
            f"{n_vectors} vectors requested but only {capacity} distinct "
            f"nonzero {bits}-bit patterns exist"
        )
    bit_rows = _bit_rows(n_vectors, bits)
    weights = bit_rows.sum(axis=1, dtype=np.float64)
    plain_rows = bit_rows / weights[:, None]
    return CipherPair(bit_rows, plain_rows, bits)


def _vocab_frequencies(table: FrequencyTable, vocab: Vocabulary,
                       column: int) -> np.ndarray:
    try:
        return np.array([table.counts[t][column] for t in vocab.ranked],
                        dtype=np.float64)
    except KeyError as exc:
        raise ValueError(f"vocabulary token {exc.args[0]!r} missing from "
                         "frequency table") from exc


def compute_beta(table: FrequencyTable, vocab: Vocabulary,
                 mode: str = "unigram") -> np.ndarray:
    """Fidelity per rank: f/(f+1) for unigram mode, clamped d/f for df mode."""
    f = _vocab_frequencies(table, vocab, 0)
    if mode == "unigram":
        return f / (f + 1.0)
    if mode == "df":
        d = _vocab_frequencies(table, vocab, 1)
        return np.clip(d / f, DF_CLAMP, 1.0 - DF_CLAMP)
    raise ValueError(f"unknown noise mode: {mode!r}")


def compute_sigma(table: FrequencyTable, vocab: Vocabulary,
                  plain_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alternative-token distribution over the vocabulary and in cipher space.

    Each token's weight is proportional to 1 minus its unigram probability.
    When the vocabulary covers the whole corpus the weights sum to 1
    analytically (divided by N - 1); a truncated vocabulary leaves excess
    mass, so the result is explicitly normalized to keep the L1 invariant.
    """
    n = vocab.size
    if n < 2:
        raise ValueError("sigma requires a vocabulary of at least 2 tokens")
    if plain_rows.shape[0] != n:
        raise ValueError(f"plain rows for {plain_rows.shape[0]} ranks but "
                         f"vocabulary has {n}")
    f = _vocab_frequencies(table, vocab, 0)
    raw = (1.0 - f / table.total_tokens) / (n - 1)
    sigma_vocab = raw / raw.sum()
    sigma_cipher = plain_rows.T @ sigma_vocab
    return sigma_vocab, sigma_cipher


def build_noise_model(table: FrequencyTable, vocab: Vocabulary,
                      pair: CipherPair, mode: str = "unigram") -> np.ndarray:
    """The (N+1) x b noisy token vectors of ``pair`` (see ``noisy_vectors``)."""
    beta = compute_beta(table, vocab, mode)
    _, sigma_cipher = compute_sigma(table, vocab, pair.plain_rows)
    return noisy_vectors(pair, beta, sigma_cipher)


def noisy_vectors(pair: CipherPair, beta: np.ndarray,
                  sigma_cipher: np.ndarray) -> np.ndarray:
    """Blend plain rows with the noise centroid: beta*v + (1-beta)*sigma.

    ``beta[i]`` is the fraction of rank i's observations trusted as
    non-erroneous; ``sigma_cipher`` is the L1-unit noise centroid in cipher
    space (see ``compute_sigma``). Returns the (N+1) x b token vectors:
    every row is a convex combination of L1-unit vectors, so it sums to 1
    with entries in [0, 1]. The last row, used for out-of-vocabulary
    tokens, is the pure noise centroid.
    """
    if beta.shape[0] != pair.size:
        raise ValueError(f"beta has {beta.shape[0]} entries for "
                         f"{pair.size} cipher rows")
    if sigma_cipher.shape[0] != pair.bits:
        raise ValueError(f"sigma_cipher has {sigma_cipher.shape[0]} "
                         f"entries for {pair.bits} bits")
    trust = beta[:, None]
    body = trust * pair.plain_rows + (1.0 - trust) * sigma_cipher
    return np.vstack([body, sigma_cipher[None, :]])


def save_cipher(pair: CipherPair, path, mode: str = "") -> None:
    """Binary cipher file: header, packed bit rows, float32 plain rows.

    Header is magic, version, N, b (all little-endian) plus a short mode
    tag. Bit rows are packed 8 per byte in little bit order.
    """
    mode_bytes = mode.encode("utf-8")
    if len(mode_bytes) > 255:
        raise ValueError("mode tag too long")
    packed = np.packbits(pair.bit_rows, axis=1, bitorder="little")
    with open(path, "wb") as out:
        out.write(_CIPHER_HEADER.pack(CIPHER_MAGIC, CIPHER_VERSION, pair.size,
                                      pair.bits, len(mode_bytes)))
        out.write(mode_bytes)
        out.write(packed.tobytes())
        out.write(pair.plain_rows.astype("<f4").tobytes())

