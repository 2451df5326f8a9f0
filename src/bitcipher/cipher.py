"""Deterministic bit-vector assignment and frequency-derived noise encoding.

A b-bit cipher assigns each vocabulary rank a unique nonzero pattern from
{0,1}^b, walking Hamming-weight classes in order so that the most frequent
tokens get the most discernible (lowest-weight) patterns. L1-normalizing the
patterns yields probabilistic "plain" vectors, which are then blended with a
corpus-wide noise distribution to produce dense token vectors.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ._lazy import np
from .corpus import FrequencyTable, Vocabulary
from .embedio import ByteReader

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


def _walk_bit_patterns(n_vectors: int, bits: int) -> list[int]:
    """Enumerate the first ``n_vectors`` patterns in assignment order.

    Patterns are generated weight class by weight class: each candidate is
    the componentwise absolute difference between an already-assigned
    pattern of one lower weight and a standard basis vector (an XOR on the
    packed representation). Scanning advances through the lower-weight list
    for a fixed basis vector, then moves to the next basis vector; when a
    weight class is exhausted both the finished list and (after the first
    class) the basis order are reversed, which keeps consecutive ranks
    maximally similar across the class boundary.
    """
    prev_level = [0]
    cur_level: list[int] = []
    seen: set[int] = set()
    basis = list(range(bits))
    rows: list[int] = []
    i = j = 0
    k = 1
    while len(rows) < n_vectors:
        u = prev_level[j] ^ (1 << basis[i])
        if u.bit_count() == k and u not in seen:
            cur_level.append(u)
            seen.add(u)
            rows.append(u)
        j += 1
        if j == len(prev_level):
            j = 0
            i += 1
            if i == bits:
                if k == 1:
                    basis.reverse()
                i = 0
                cur_level.reverse()
                prev_level, cur_level, seen = cur_level, [], set()
                k += 1
    return rows


def _unpack_bit_rows(packed: bytes, n: int, bits: int) -> np.ndarray:
    """Unpack n rows of ceil(bits / 8) bytes, 8 bits per byte in little bit
    order, into an n x bits array of 0s and 1s."""
    rows = np.frombuffer(packed, dtype=np.uint8).reshape(n, (bits + 7) // 8)
    return np.unpackbits(rows, axis=1, bitorder="little")[:, :bits]


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
    row_bytes = (bits + 7) // 8
    packed = b"".join(mask.to_bytes(row_bytes, "little")
                      for mask in _walk_bit_patterns(n_vectors, bits))
    bit_rows = _unpack_bit_rows(packed, n_vectors, bits)
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


def load_cipher(path) -> tuple[CipherPair, str]:
    reader = ByteReader(path)
    magic, version, n, bits, mode_len = _CIPHER_HEADER.unpack(
        reader.take(_CIPHER_HEADER.size, "header"))
    if magic != CIPHER_MAGIC:
        raise ValueError(f"{path}: not a cipher file")
    if version != CIPHER_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    mode = str(reader.take(mode_len, "mode tag"), "utf-8")
    packed = reader.take(n * ((bits + 7) // 8), "bit rows")
    bit_rows = _unpack_bit_rows(packed, n, bits)
    plain = np.frombuffer(reader.take(n * bits * 4, "plain rows"), dtype="<f4")
    plain_rows = plain.reshape(n, bits).astype(np.float64)
    reader.finish()
    return CipherPair(bit_rows, plain_rows, bits), mode

