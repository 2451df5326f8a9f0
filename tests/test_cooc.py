import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bitcipher import cooc
from bitcipher.cipher import build_cipher, build_noise_model
from bitcipher.cooc import (ContextConfig, CoocCounts, accumulate_cooccurrence,
                            aggregate, embed_corpus)
from bitcipher.corpus import (build_vocabulary, count_frequencies,
                              stream_documents)
from bitcipher.synth import generate_tagged_sentences, sentences_to_text


def _setup(text, bits, noise_mode="unigram", max_vocab=None):
    table = count_frequencies(stream_documents(text))
    vocab = build_vocabulary(table, bits, max_vocab=max_vocab)
    pair = build_cipher(vocab.size, bits)
    nu = build_noise_model(table, vocab, pair, noise_mode)
    return table, vocab, pair, nu


def _cells(counts):
    """Decode the sorted key/count arrays into {(center[, offset], context): count}."""
    n = counts.n_rows
    offsets = ContextConfig(counts.radius, counts.mode).offsets()
    cells = {}
    for key, c in zip(counts.keys.tolist(), counts.counts.tolist()):
        rest, context = divmod(key, n)
        if counts.mode == "cat":
            center, slot = divmod(rest, 2 * counts.radius)
            cells[(center, offsets[slot], context)] = c
        else:
            cells[(rest, context)] = c
    return cells


def _fold(*groups):
    """Sum the counts of equal keys over iterables of (key, count) pairs."""
    out = {}
    for pairs in groups:
        for key, c in pairs:
            out[key] = out.get(key, 0) + c
    return out


def _brute_force_counts(docs, vocab, config):
    """Independent window recount: all position pairs within distance r."""
    counts = {}
    for doc in docs:
        ids = [vocab.row_for(t) for t in doc]
        for p in range(len(ids)):
            for q in range(len(ids)):
                if p != q and abs(p - q) <= config.radius:
                    if config.mode == "cat":
                        key = (ids[p], q - p, ids[q])
                    else:
                        key = (ids[p], ids[q])
                    counts[key] = counts.get(key, 0) + 1
    return counts


def _brute_force_rows(counts, nu, config, n_rows):
    """Independent aggregation: per-row python loops, no sparse algebra."""
    weight = (lambda x: math.log1p(x)) if config.log_weighting else float
    if config.mode == "sum":
        rows = np.zeros((n_rows, nu.shape[1]))
        for (center, context), c in counts.items():
            rows[center] += weight(c) * nu[context]
        if config.include_center:
            for center in {c for c, _ in counts}:
                rows[center] += nu[center]
        return rows
    offsets = config.offsets()
    slot = {o: i for i, o in enumerate(offsets)}
    bits = nu.shape[1]
    rows = np.zeros((n_rows, len(offsets) * bits))
    for (center, offset, context), c in counts.items():
        s = slot[offset]
        rows[center, s * bits:(s + 1) * bits] += weight(c) * nu[context]
    return rows


def test_hand_enumerated_sum_counts():
    text = b"a b a\n"
    _, vocab, _, _ = _setup(text, 3)
    a, b = vocab.row_for("a"), vocab.row_for("b")
    counts = accumulate_cooccurrence(stream_documents(text), vocab,
                                     ContextConfig(radius=1, mode="sum"))
    assert _cells(counts) == {(a, b): 2, (b, a): 2}


def test_hand_enumerated_cat_counts():
    text = b"a b a\n"
    _, vocab, _, _ = _setup(text, 3)
    a, b = vocab.row_for("a"), vocab.row_for("b")
    counts = accumulate_cooccurrence(stream_documents(text), vocab,
                                     ContextConfig(radius=1, mode="cat"))
    assert _cells(counts) == {(a, 1, b): 1, (a, -1, b): 1,
                              (b, -1, a): 1, (b, 1, a): 1}


def test_windows_do_not_cross_documents():
    text = b"a b\nc d\n"
    _, vocab, _, _ = _setup(text, 3)
    counts = accumulate_cooccurrence(stream_documents(text), vocab,
                                     ContextConfig(radius=4, mode="sum"))
    first = {vocab.row_for("a"), vocab.row_for("b")}
    second = {vocab.row_for("c"), vocab.row_for("d")}
    for (center, context) in _cells(counts):
        assert {center, context} <= first or {center, context} <= second


def test_every_document_id_change_starts_a_new_window():
    # equal tokens in a later document are a new window, not a continuation
    documents = [["a"], ["b"], ["a", "b"]]
    _, vocab, _, _ = _setup(b"a b\n", 3)
    a, b = vocab.row_for("a"), vocab.row_for("b")
    counts = accumulate_cooccurrence(documents, vocab,
                                     ContextConfig(radius=3, mode="sum"))
    assert _cells(counts) == {(a, b): 1, (b, a): 1}


def _random_corpus(rng, n_tokens, n_types=30, line_len=12):
    words = [f"w{i}" for i in range(n_types)]
    tokens = [rng.choice(words) for _ in range(n_tokens)]
    lines = [" ".join(tokens[i:i + line_len])
             for i in range(0, n_tokens, line_len)]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("mode", ["sum", "cat"])
def test_counts_match_brute_force(mode):
    rng = random.Random(5)
    text = _random_corpus(rng, 1000)
    _, vocab, _, _ = _setup(text, 6)  # capacity 63 > 30 types
    config = ContextConfig(radius=4, mode=mode)
    counts = accumulate_cooccurrence(stream_documents(text), vocab, config)
    docs = [line.split() for line in text.decode().splitlines()]
    assert _cells(counts) == _brute_force_counts(docs, vocab, config)


def test_oov_neighbors_use_oov_row():
    text = b"a b c a b c rare\n"
    _, vocab, _, _ = _setup(text, 3, max_vocab=3)
    assert vocab.row_for("rare") == vocab.oov_index
    counts = accumulate_cooccurrence(stream_documents(text), vocab,
                                     ContextConfig(radius=1, mode="sum"))
    oov = vocab.oov_index
    c = vocab.row_for("c")
    cells = _cells(counts)
    assert cells[(c, oov)] == 1
    assert cells[(oov, c)] == 1


def test_aggregate_single_count_identity():
    text = b"a b\n"
    _, vocab, pair, nu = _setup(text, 4)
    a, b = vocab.row_for("a"), vocab.row_for("b")
    n = vocab.size + 1
    counts = CoocCounts("sum", 1, n, np.array([a * n + b]), np.array([1]))
    out = aggregate(counts, nu, ContextConfig(radius=1, mode="sum"))
    assert np.allclose(out[a], nu[b], atol=1e-12)


def test_aggregate_log_weight_of_e_minus_one_is_unit():
    text = b"a b\n"
    _, vocab, pair, nu = _setup(text, 4)
    a, b = vocab.row_for("a"), vocab.row_for("b")
    n = vocab.size + 1
    counts = CoocCounts("sum", 1, n, np.array([a * n + b]),
                        np.array([math.e - 1]))
    out = aggregate(counts, nu,
                    ContextConfig(radius=1, mode="sum", log_weighting=True))
    assert np.allclose(out[a], nu[b], atol=1e-12)


def test_self_cooccurrence_of_repeated_token():
    # second document only exists so the noise model has two vocab tokens
    text = b"x x x x\ny\n"
    _, vocab, pair, nu = _setup(text, 3)
    x = vocab.row_for("x")
    config = ContextConfig(radius=1, mode="sum")
    out = embed_corpus(stream_documents(text), vocab, nu, config)
    # neighbors are the token itself: 6 windowed pairs in the first document
    assert np.allclose(out[x], 6 * nu[x], atol=1e-12)


def test_include_center_adds_own_vector_once():
    text = b"a b\n"
    _, vocab, pair, nu = _setup(text, 4)
    a = vocab.row_for("a")
    base = embed_corpus(stream_documents(text), vocab, nu,
                        ContextConfig(radius=1, mode="sum"))
    with_center = embed_corpus(stream_documents(text), vocab, nu,
                               ContextConfig(radius=1, mode="sum",
                                             include_center=True))
    assert np.allclose(with_center[a], base[a] + nu[a])


def test_cat_ignores_include_center():
    text = b"a b c\n"
    _, vocab, pair, nu = _setup(text, 4)
    plain = embed_corpus(stream_documents(text), vocab, nu,
                         ContextConfig(radius=2, mode="cat"))
    flagged = embed_corpus(stream_documents(text), vocab, nu,
                           ContextConfig(radius=2, mode="cat",
                                         include_center=True))
    assert np.array_equal(plain, flagged)


@pytest.mark.parametrize("bits,radius", [(5, 1), (5, 2), (5, 4),
                                         (25, 1), (25, 2), (25, 4),
                                         (50, 1), (50, 2), (50, 4)])
def test_dimension_law(bits, radius):
    text = b"a b c d e f g h\n"
    _, vocab, pair, nu = _setup(text, bits)
    sum_out = embed_corpus(stream_documents(text), vocab, nu,
                           ContextConfig(radius=radius, mode="sum"))
    cat_out = embed_corpus(stream_documents(text), vocab, nu,
                           ContextConfig(radius=radius, mode="cat"))
    assert sum_out.shape[1] == bits
    assert cat_out.shape[1] == 2 * radius * bits
    assert sum_out.shape[0] == vocab.size + 1
    assert cat_out.shape[0] == vocab.size + 1


def test_cat_slot_sum_equals_sum_row():
    rng = random.Random(9)
    text = _random_corpus(rng, 800)
    _, vocab, pair, nu = _setup(text, 6)
    radius = 3
    cat = embed_corpus(stream_documents(text), vocab, nu,
                       ContextConfig(radius=radius, mode="cat"))
    summed = embed_corpus(stream_documents(text), vocab, nu,
                          ContextConfig(radius=radius, mode="sum"))
    bits = pair.bits
    folded = sum(cat[:, s * bits:(s + 1) * bits]
                 for s in range(2 * radius))
    scale = np.maximum(np.abs(summed), 1.0)
    assert np.all(np.abs(folded - summed) / scale < 1e-6)


def test_offset_marginal_matches_sum_counts():
    rng = random.Random(13)
    text = _random_corpus(rng, 600)
    _, vocab, _, _ = _setup(text, 6)
    cat = accumulate_cooccurrence(stream_documents(text), vocab,
                                  ContextConfig(radius=2, mode="cat"))
    summed = accumulate_cooccurrence(stream_documents(text), vocab,
                                     ContextConfig(radius=2, mode="sum"))
    marginal = _fold(((center, context), c)
                     for (center, _, context), c in _cells(cat).items())
    assert marginal == _cells(summed)


@pytest.mark.parametrize("seed,tokens,noise_mode,modes", [
    (2, 1500, "unigram", ("sum", "cat")),
    (21, 2000, "df", ("cat",)),
], ids=["unigram", "df"])
def test_fused_matches_independent_brute_force(seed, tokens, noise_mode,
                                               modes):
    rng = random.Random(seed)
    text = _random_corpus(rng, tokens)
    _, vocab, pair, nu = _setup(text, 6, noise_mode=noise_mode)
    for mode in modes:
        config = ContextConfig(radius=4, mode=mode, log_weighting=True)
        fused = embed_corpus(stream_documents(text), vocab, nu, config)
        docs = [line.split() for line in text.decode().splitlines()]
        counts = _brute_force_counts(docs, vocab, config)
        expected = _brute_force_rows(counts, nu, config, vocab.size + 1)
        assert np.all(np.abs(fused - expected) < 1e-9)


def test_rows_with_neighbors_are_nonzero():
    rng = random.Random(41)
    text = _random_corpus(rng, 500)
    _, vocab, pair, nu = _setup(text, 6)
    config = ContextConfig(radius=2, mode="sum")
    counts = accumulate_cooccurrence(stream_documents(text), vocab, config)
    out = embed_corpus(stream_documents(text), vocab, nu, config)
    centers_with_neighbors = {c for c, _ in _cells(counts)}
    for center in centers_with_neighbors:
        assert np.any(out[center] != 0.0)


def test_empty_corpus_gives_zero_matrix():
    text = b""
    table, vocab, pair, nu = _setup(b"a b\n", 4)  # vocab from a real corpus
    config = ContextConfig(radius=2, mode="cat")
    out = embed_corpus(stream_documents(text), vocab, nu, config)
    assert out.shape == (vocab.size + 1, 2 * 2 * 4)
    assert np.all(out == 0.0)


@given(st.lists(st.lists(st.integers(0, 5), max_size=8), max_size=8),
       st.integers(0, 7), st.integers(1, 3), st.sampled_from(["sum", "cat"]))
def test_shard_merge_equals_single_pass(docs, cut, radius, mode):
    words = [f"w{i}" for i in range(6)]
    documents = [[words[t] for t in doc] for doc in docs]
    table = count_frequencies(documents)
    if not table.counts:
        return
    vocab = build_vocabulary(table, 4)
    config = ContextConfig(radius=radius, mode=mode)
    whole = accumulate_cooccurrence(documents, vocab, config)
    first, second = documents[:cut], documents[cut:]
    merged = _fold(_cells(accumulate_cooccurrence(first, vocab, config)).items(),
                   _cells(accumulate_cooccurrence(second, vocab, config)).items())
    assert merged == _cells(whole)


def test_monotone_growth_when_adding_documents():
    rng = random.Random(31)
    base = _random_corpus(rng, 400)
    extra = base + _random_corpus(rng, 100)
    _, vocab, _, _ = _setup(extra, 6)
    config = ContextConfig(radius=2, mode="sum")
    before = accumulate_cooccurrence(stream_documents(base), vocab, config)
    after = accumulate_cooccurrence(stream_documents(extra), vocab, config)
    after_cells = _cells(after)
    for key, c in _cells(before).items():
        assert after_cells.get(key, 0) >= c


def test_aggregate_rejects_mismatched_config():
    text = b"a b\n"
    _, vocab, pair, nu = _setup(text, 4)
    counts = accumulate_cooccurrence(stream_documents(text), vocab,
                                     ContextConfig(radius=1, mode="sum"))
    with pytest.raises(ValueError):
        aggregate(counts, nu, ContextConfig(radius=2, mode="sum"))
    with pytest.raises(ValueError):
        aggregate(counts, nu, ContextConfig(radius=1, mode="cat"))


def test_context_config_validation():
    with pytest.raises(ValueError):
        ContextConfig(radius=0, mode="sum")
    with pytest.raises(ValueError):
        ContextConfig(radius=1, mode="mean")


def test_key_space_overflow_is_rejected():
    text = b"a b c\n"
    _, vocab, _, _ = _setup(text, 3)
    with pytest.raises(ValueError, match="key space"):
        accumulate_cooccurrence(stream_documents(text), vocab,
                                ContextConfig(radius=2 ** 62, mode="cat"))


def _golden_inputs():
    text = sentences_to_text(generate_tagged_sentences(5_000, seed=3)).encode()
    table = count_frequencies(stream_documents(text))
    vocab = build_vocabulary(table, 8, max_vocab=150)
    pair = build_cipher(vocab.size, 8)
    return text, table, vocab, build_noise_model(table, vocab, pair, "df")


# SHA-256 of embed_corpus(...).tobytes(), recorded with the scipy CSR
# implementation; any change to summation order or weighting shows up here.
GOLDEN_ROWS_SHA256 = {
    "sum": "36be569568a152c46299ee45c983799cba67b6e3cb08679d72d4be539ac81c65",
    "cat": "4c1f6fc56599b6c34cdbed9dfdd8112bab31f1ff9b1d3fca84490127bd574af5",
}


@pytest.mark.parametrize("config", [
    ContextConfig(radius=3, mode="sum", log_weighting=True, include_center=True),
    ContextConfig(radius=3, mode="cat", log_weighting=True),
], ids=["sum", "cat"])
def test_embedding_bytes_match_golden_digest(config):
    text, table, vocab, nu = _golden_inputs()
    assert vocab.size < len(table.counts)  # some tokens land on the OOV row
    rows = embed_corpus(stream_documents(text), vocab, nu, config)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == \
        GOLDEN_ROWS_SHA256[config.mode]


@pytest.mark.parametrize("config", [
    ContextConfig(radius=3, mode="sum", log_weighting=True, include_center=True),
    ContextConfig(radius=3, mode="cat", log_weighting=True),
    ContextConfig(radius=2, mode="cat", include_center=True),
], ids=["golden-sum", "golden-cat", "cat-include-center"])
def test_aggregate_blocks_split_rows_without_changing_bytes(monkeypatch,
                                                            config):
    # The default block holds every cell of these corpora. A smaller block
    # runs on to the end of the row it stops in, so with 1 or 3 keys a block
    # holds one or a few whole rows; no block ever splits a row.
    text, _, vocab, nu = _golden_inputs()
    counts = accumulate_cooccurrence(stream_documents(text), vocab, config)
    assert np.all(np.diff(counts.keys) > 0)
    assert np.all(counts.counts >= 1)
    assert len(counts.keys) > 4096
    expected = aggregate(counts, nu, config).tobytes()
    for block in (1, 3, 4096):
        monkeypatch.setattr(cooc, "BLOCK", block)
        assert embed_corpus(stream_documents(text), vocab, nu,
                            config).tobytes() == expected


def _aggregate_add_at(counts, nu, config):
    """Reference ``aggregate``: one ``np.add.at`` over every key.

    ``np.add.at`` adds each key's weighted vector into its row in key order,
    so every row is the sequential sum of its contexts from 0.0.
    """
    n_rows, bits = nu.shape
    slots = config.output_dim(1)
    out = np.zeros((n_rows * slots, bits))
    row, context = np.divmod(counts.keys, n_rows)
    weights = counts.counts.astype(np.float64)
    if config.log_weighting:
        weights = np.log1p(weights)
    contexts = nu[context]
    contexts *= weights[:, None]
    np.add.at(out, row, contexts)
    if config.include_center and config.mode == "sum":
        centers = np.unique(counts.keys // n_rows)
        out[centers] += nu[centers]
    return out.reshape(n_rows, slots * bits)


@st.composite
def _random_counts(draw):
    """A config and sorted unique keys with positive counts, plus ``nu``.

    With ``wide``, row 1 holds a cell for every one of 4,100 contexts, more
    than the largest block the test sets.
    """
    config = ContextConfig(radius=draw(st.integers(1, 3)),
                           mode=draw(st.sampled_from(["sum", "cat"])),
                           log_weighting=draw(st.booleans()),
                           include_center=draw(st.booleans()))
    wide = draw(st.booleans())
    n = 4_100 if wide else draw(st.integers(1, 12))
    bits = draw(st.integers(1, 4))
    space = n * n * config.output_dim(1)
    keys = set(draw(st.lists(st.integers(0, space - 1), max_size=80)))
    if wide:
        keys.update(range(n, 2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    keys = np.array(sorted(keys), dtype=np.int64)
    counts = rng.integers(1, 10 ** 6, size=len(keys), dtype=np.int64)
    return (CoocCounts(config.mode, config.radius, n, keys, counts),
            rng.normal(size=(n, bits)), config)


@pytest.mark.parametrize("block", [1, 3, 4096])
@given(case=_random_counts())
def test_aggregate_matches_add_at_reference(block, case):
    counts, nu, config = case
    expected = _aggregate_add_at(counts, nu, config).tobytes()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cooc, "BLOCK", block)
        assert aggregate(counts, nu, config).tobytes() == expected


def _row_ids_per_token(documents, vocab):
    """Reference ``_row_ids``: one id lookup and one document index
    appended per token."""
    rows, docs = [], []
    for doc, tokens in enumerate(documents):
        rows.extend([vocab.index.get(t, vocab.oov_index) for t in tokens])
        docs.extend([doc] * len(tokens))
    return (np.array(rows, dtype=np.int64), np.array(docs, dtype=np.int64))


@given(docs=st.lists(st.lists(st.sampled_from("abcdxy"), max_size=6),
                     max_size=8))
@example(docs=[])
@example(docs=[[]])
@example(docs=[[], ["a"], [], ["b", "x"], []])
def test_row_ids_match_per_token_reference(docs):
    _, vocab, _, _ = _setup(b"a b c a b a d\n", 3)  # x and y are OOV
    rows, doc_ids = cooc._row_ids(iter(docs), vocab)
    want_rows, want_docs = _row_ids_per_token(docs, vocab)
    assert rows.dtype == doc_ids.dtype == np.int64
    assert rows.tobytes() == want_rows.tobytes()
    assert doc_ids.tobytes() == want_docs.tobytes()
