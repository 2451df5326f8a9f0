import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bitcipher.cipher import (CapacityError, build_cipher, build_noise_model,
                              cipher_capacity, compute_beta, compute_sigma,
                              noisy_vectors, save_cipher)
from bitcipher.corpus import FrequencyTable, Vocabulary, build_vocabulary


def _vocab(n):
    ranked = tuple(f"t{i:04d}" for i in range(n))
    return Vocabulary(ranked, {t: i for i, t in enumerate(ranked)})


def _table(freqs, doc_freqs=None):
    tokens = [f"t{i:04d}" for i in range(len(freqs))]
    doc_freqs = doc_freqs if doc_freqs is not None else [1] * len(freqs)
    counts = {t: (int(f), int(d)) for t, f, d in zip(tokens, freqs, doc_freqs)}
    return FrequencyTable(counts, int(sum(freqs)), int(max(doc_freqs)))


# ---------------------------------------------------------------------------
# cipher construction
# ---------------------------------------------------------------------------

def test_five_bit_first_ranks_are_basis():
    pair = build_cipher(5, 5)
    assert np.array_equal(pair.bit_rows, np.eye(5, dtype=np.uint8))
    assert np.array_equal(pair.plain_rows, np.eye(5))


def test_five_bit_weight_two_block_has_half_entries():
    pair = build_cipher(31, 5)
    for rank in range(6, 16):
        row = pair.plain_rows[rank - 1]
        assert np.count_nonzero(row == 0.5) == 2
        assert np.count_nonzero(row) == 2


def test_five_bit_rank_six_positions():
    # After the weight-1 class both the basis order and the finished list
    # reverse, so the first admissible weight-2 pattern combines the last
    # two components: positions 4 and 5, 1-indexed.
    pair = build_cipher(31, 5)
    assert list(np.nonzero(pair.bit_rows[5])[0]) == [3, 4]


def test_five_bit_full_interval_structure():
    pair = build_cipher(31, 5)
    weights = pair.bit_rows.sum(axis=1)
    assert list(weights) == [1] * 5 + [2] * 10 + [3] * 10 + [4] * 5 + [5]
    values = {1: 1.0, 2: 0.5, 3: 1 / 3, 4: 0.25, 5: 0.2}
    for row, weight in zip(pair.plain_rows, weights):
        nonzero = row[row > 0]
        assert np.allclose(nonzero, values[weight])


def test_five_bit_covers_all_nonzero_patterns():
    pair = build_cipher(31, 5)
    ints = {sum(int(b) << i for i, b in enumerate(row))
            for row in pair.bit_rows}
    assert ints == set(range(1, 32))


def test_build_cipher_deterministic():
    a = build_cipher(100, 8)
    b = build_cipher(100, 8)
    assert np.array_equal(a.bit_rows, b.bit_rows)
    assert np.array_equal(a.plain_rows, b.plain_rows)


def _walk_bit_patterns(n_vectors, bits):
    """The scalar search the cipher was first built with, kept as the
    reference: each candidate XORs a basis vector into a pattern of the
    class below, scanning the class for a fixed basis vector before moving
    to the next; repeats are dropped with a set. When a class is exhausted
    the finished list and (after the first class) the basis order are
    reversed."""
    prev_level = [0]
    cur_level = []
    seen = set()
    basis = list(range(bits))
    rows = []
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


def _bit_rows_by_walk(n, bits):
    """The reference walk's patterns, unpacked with a per-row bit loop."""
    rows = np.zeros((n, bits), dtype=np.uint8)
    for row, mask in enumerate(_walk_bit_patterns(n, bits)):
        while mask:
            low = mask & -mask
            rows[row, low.bit_length() - 1] = 1
            mask ^= low
    return rows


def _assert_matches_walk(n, bits):
    pair = build_cipher(n, bits)
    expected = _bit_rows_by_walk(n, bits)
    assert pair.bit_rows.dtype == expected.dtype
    assert np.array_equal(pair.bit_rows, expected)
    assert np.array_equal(pair.plain_rows,
                          expected / expected.sum(axis=1)[:, None])


@pytest.mark.parametrize("n,bits", [(cipher_capacity(b), b)
                                    for b in range(1, 17)] + [(1000, 70)])
def test_bit_rows_match_per_row_loop(n, bits):
    _assert_matches_walk(n, bits)


@given(st.integers(1, 12), st.data())
def test_bit_row_prefixes_match_reference_walk(bits, data):
    _assert_matches_walk(data.draw(st.integers(1, cipher_capacity(bits))),
                         bits)


def test_million_row_cipher_digests():
    # SHA-256 of the arrays' bytes as the reference walk builds them
    pair = build_cipher(2**20, 25)
    digests = [hashlib.sha256(rows.tobytes()).hexdigest()
               for rows in (pair.bit_rows, pair.plain_rows)]
    assert digests == [
        "606d4f0c509be23967400c8be33e3539"
        "3b4c93c7220e0620bf77bc4d7d819592",
        "df3c7de481d6555b4010577278f99904"
        "290e4bd9a296fda0d4da87140c44f274",
    ]


def test_wide_cipher_allocates_rows_not_bits_squared(traced_peak):
    n, bits = 3, 100_000
    with traced_peak() as peak:
        pair = build_cipher(n, bits)
    assert np.array_equal(pair.bit_rows, np.eye(n, bits, dtype=np.uint8))
    # the bit rows (n*b bytes) and the float64 plain rows (8*n*b bytes);
    # b*b bytes would be 10 GB
    assert peak.bytes < 16 * n * bits


def test_capacity_error_names_both_values():
    with pytest.raises(CapacityError) as err:
        build_cipher(32, 5)
    assert "32" in str(err.value)
    assert "31" in str(err.value)
    with pytest.raises(ValueError):
        build_cipher(0, 5)
    with pytest.raises(ValueError):
        build_cipher(1, 0)


@given(st.integers(1, 10), st.data())
def test_cipher_structural_properties(bits, data):
    n = data.draw(st.integers(1, cipher_capacity(bits)))
    pair = build_cipher(n, bits)
    weights = pair.bit_rows.sum(axis=1)
    # rows unique and nonzero
    ints = [sum(int(b) << i for i, b in enumerate(row)) for row in pair.bit_rows]
    assert len(set(ints)) == n
    assert all(v > 0 for v in ints)
    # weight never decreases with rank
    assert np.all(np.diff(weights) >= 0)
    # leading ranks are the standard basis in index order
    head = min(n, bits)
    assert np.array_equal(pair.bit_rows[:head], np.eye(bits, dtype=np.uint8)[:head])
    # plain rows are L1-unit
    assert np.allclose(pair.plain_rows.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# noise model
# ---------------------------------------------------------------------------

def test_beta_unigram_values():
    table = _table([1, 3])
    beta = compute_beta(table, _vocab(2), "unigram")
    assert beta[0] == pytest.approx(0.5)
    assert beta[1] == pytest.approx(0.75)


def test_beta_df_ratio():
    table = _table([10], [5])
    beta = compute_beta(table, _vocab(1), "df")
    assert beta[0] == pytest.approx(0.5)


def test_beta_df_clamped():
    table = _table([10, 7], [10, 7])
    beta = compute_beta(table, _vocab(2), "df")
    assert np.all(beta < 1.0)
    assert np.all(beta > 0.0)


def test_beta_unknown_mode():
    with pytest.raises(ValueError):
        compute_beta(_table([1]), _vocab(1), "nope")


def test_beta_missing_token():
    vocab = _vocab(2)
    table = FrequencyTable({"t0000": (1, 1)}, 1, 1)
    with pytest.raises(ValueError, match="t0001"):
        compute_beta(table, vocab, "unigram")


@given(st.integers(2, 300), st.integers(0, 2**32 - 1))
def test_beta_strictly_monotone_in_frequency(n, seed):
    rng = np.random.default_rng(seed)
    freqs = rng.integers(1, 10**6, size=n)
    beta = compute_beta(_table(freqs), _vocab(n), "unigram")
    order = np.argsort(freqs, kind="stable")
    sorted_beta = beta[order]
    sorted_f = freqs[order]
    diffs = np.diff(sorted_beta)
    assert np.all(diffs >= 0)
    assert np.all(diffs[np.diff(sorted_f) > 0] > 0)


def test_sigma_two_token_example():
    table = _table([3, 1])
    vocab = _vocab(2)
    pair = build_cipher(2, 5)
    sigma, sigma_cipher = compute_sigma(table, vocab, pair.plain_rows)
    assert sigma == pytest.approx([0.25, 0.75])
    assert sigma_cipher.sum() == pytest.approx(1.0, abs=1e-12)


def test_sigma_uniform_frequencies_give_mean_row():
    table = _table([7, 7, 7])
    vocab = _vocab(3)
    pair = build_cipher(3, 5)
    _, sigma_cipher = compute_sigma(table, vocab, pair.plain_rows)
    expected = pair.plain_rows.mean(axis=0)
    assert np.allclose(sigma_cipher, expected, atol=1e-12)


def test_sigma_requires_two_tokens():
    with pytest.raises(ValueError):
        compute_sigma(_table([5]), _vocab(1), build_cipher(1, 3).plain_rows)


def test_sigma_matches_raw_formula_on_full_vocab():
    rng = np.random.default_rng(11)
    freqs = rng.integers(1, 1000, size=50)
    table = _table(freqs)
    vocab = _vocab(50)
    pair = build_cipher(50, 7)
    sigma, _ = compute_sigma(table, vocab, pair.plain_rows)
    raw = (1.0 - freqs / freqs.sum()) / 49
    assert np.allclose(sigma, raw, atol=1e-12)
    assert abs(sigma.sum() - 1.0) < 1e-12


def test_sigma_truncated_vocab_still_unit():
    # vocabulary covers only part of the corpus mass
    freqs = [100, 50, 25, 10, 5, 2, 1]
    table = _table(freqs)
    vocab = build_vocabulary(table, bits=2)  # capacity 3
    pair = build_cipher(vocab.size, 2)
    sigma, sigma_cipher = compute_sigma(table, vocab, pair.plain_rows)
    assert abs(sigma.sum() - 1.0) < 1e-12
    assert abs(sigma_cipher.sum() - 1.0) < 1e-12


def test_noisy_vectors_identity_when_beta_one():
    pair = build_cipher(4, 5)
    sigma_cipher = np.full(5, 0.2)
    nu = noisy_vectors(pair, np.ones(4), sigma_cipher)
    assert np.allclose(nu[:4], pair.plain_rows)


def test_noisy_vectors_pure_noise_when_beta_zero():
    pair = build_cipher(4, 5)
    sigma_cipher = np.full(5, 0.2)
    nu = noisy_vectors(pair, np.zeros(4), sigma_cipher)
    assert np.allclose(nu, sigma_cipher)


def test_noisy_vectors_blend_arithmetic():
    pair = build_cipher(1, 5)  # single row: e1
    sigma_cipher = np.full(5, 0.2)
    nu = noisy_vectors(pair, np.array([0.75]), sigma_cipher)
    assert np.allclose(nu[0], [0.8, 0.05, 0.05, 0.05, 0.05])


def test_noisy_vectors_oov_row_is_noise_centroid():
    table = _table([5, 3, 2])
    vocab = _vocab(3)
    pair = build_cipher(3, 4)
    _, sigma_cipher = compute_sigma(table, vocab, pair.plain_rows)
    nu = build_noise_model(table, vocab, pair, "unigram")
    assert np.array_equal(nu[-1], sigma_cipher)
    assert nu.shape == (4, 4)


def test_noisy_vectors_dimension_mismatch():
    pair = build_cipher(3, 4)
    with pytest.raises(ValueError):
        noisy_vectors(pair, np.ones(2), np.full(4, 0.25))


@given(st.integers(2, 400), st.integers(0, 2**32 - 1))
def test_noise_rows_are_probability_vectors(n, seed):
    rng = np.random.default_rng(seed)
    freqs = rng.integers(1, 10**6, size=n)
    doc_freqs = np.minimum(freqs, rng.integers(1, 10**4, size=n))
    table = _table(freqs, doc_freqs)
    vocab = _vocab(n)
    bits = max(2, n.bit_length())
    pair = build_cipher(n, bits)
    mode = "df" if seed % 2 else "unigram"
    nu = build_noise_model(table, vocab, pair, mode)
    assert np.allclose(nu.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(nu >= 0.0)
    assert np.all(nu <= 1.0)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_save_cipher_file_layout(tmp_path):
    # 100 x 9: 14-byte header (N at byte 5, b at byte 9), 2-byte mode tag,
    # 200 bytes of bit rows (2 per row, 7 padding bits in the second), then
    # 3600 bytes of float32 plain rows
    pair = build_cipher(100, 9)
    path = tmp_path / "cipher.bin"
    save_cipher(pair, path, mode="df")
    data = path.read_bytes()
    assert len(data) == 3816
    assert hashlib.sha256(data).hexdigest() == (
        "60a9307deba3cc405e2949b69dac20e75529deccd8f95fd7d2d139f783598287")
    assert struct.unpack_from("<4sBIIB", data) == (b"BCIP", 1, 100, 9, 2)
    assert data[14:16] == b"df"
    packed = np.frombuffer(data, np.uint8, 200, 16).reshape(100, 2)
    bits = np.unpackbits(packed, axis=1, bitorder="little")
    assert not bits[:, 9:].any()
    assert np.array_equal(bits[:, :9], pair.bit_rows)
    plain = np.frombuffer(data, "<f4", offset=216).reshape(100, 9)
    assert np.array_equal(plain, pair.plain_rows.astype(np.float32))
