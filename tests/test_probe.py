import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bitcipher import probe
from bitcipher.corpus import Vocabulary
from bitcipher.probe import (LabeledTokenDataset, ProbeHyperparams,
                             ProbeModel, evaluate_probe, load_conll,
                             train_probe)

CONLL_SAMPLE = """\
-DOCSTART- -X- -X- O

EU NNP B-NP B-ORG
rejects VBZ B-VP O
German JJ B-NP B-MISC
call NN I-NP O

Peter NNP B-NP B-PER
Blackburn NNP I-NP I-PER
"""


def _dataset_from_pairs(pairs, label_set, split=""):
    return LabeledTokenDataset([[p] for p in pairs], tuple(label_set), split)


def _embedding(vocab_size, dim, seed=0, rows=None):
    if rows is None:
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(vocab_size + 1, dim))
    return np.asarray(rows, dtype=np.float64)


def _vocab(tokens):
    ranked = tuple(tokens)
    return Vocabulary(ranked, {t: i for i, t in enumerate(ranked)})


# ---------------------------------------------------------------------------
# CoNLL parsing
# ---------------------------------------------------------------------------

def test_load_conll_tiny(tmp_path):
    path = tmp_path / "tiny.conll"
    path.write_text("dog NN\n\n")
    ds = load_conll(path)
    assert len(ds.sequences) == 1
    assert ds.sequences[0] == [("dog", "NN")]
    assert ds.label_set == ("NN",)


def test_load_conll_sample(tmp_path):
    path = tmp_path / "sample.conll"
    path.write_text(CONLL_SAMPLE)
    ds = load_conll(path, token_column=0, label_column=-1)
    crlf = tmp_path / "crlf.conll"
    crlf.write_bytes(CONLL_SAMPLE.replace("\n", "\r\n").encode())
    again = load_conll(crlf, token_column=0, label_column=-1)
    assert (again.sequences, again.label_set) == (ds.sequences, ds.label_set)
    assert len(ds.sequences) == 2
    distinct = {label for seq in ds.sequences for _, label in seq}
    assert set(ds.label_set) == distinct
    assert ds.label_set[0] == "B-ORG"  # first appearance order
    assert ds.sequences[1][0] == ("Peter", "B-PER")


def test_load_conll_column_selection(tmp_path):
    path = tmp_path / "cols.conll"
    path.write_text(CONLL_SAMPLE)
    ds = load_conll(path, token_column=0, label_column=1)
    assert ds.sequences[0][0] == ("EU", "NNP")


def test_load_conll_ragged_row_reports_line(tmp_path):
    path = tmp_path / "bad.conll"
    path.write_text("a X\nb Y\nc\n")
    with pytest.raises(ValueError, match=":3"):
        load_conll(path)


# ---------------------------------------------------------------------------
# model mechanics
# ---------------------------------------------------------------------------

def test_log_softmax_outputs_normalize():
    rng = np.random.default_rng(0)
    model = ProbeModel(6, ("a", "b", "c", "d"),
                       ProbeHyperparams(hidden=8), rng)
    logp = model.log_proba(rng.normal(size=(20, 6)))
    sums = np.exp(logp).sum(axis=1)
    assert np.all(np.abs(sums - 1.0) < 1e-6)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    hp = ProbeHyperparams(hidden=6, dropout=0.5, seed=1)
    model = ProbeModel(8, ("a", "b", "c"), hp, rng)
    x = rng.normal(size=(10, 8))
    y = rng.integers(0, 3, size=10)
    _, grads = model.loss_and_grads(x, y)  # dropout disabled without rng
    step = 1e-5
    for name, param in model.params.items():
        numeric = np.zeros_like(param)
        flat = param.ravel()
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            plus, _ = model.loss_and_grads(x, y)
            flat[idx] = original - step
            minus, _ = model.loss_and_grads(x, y)
            flat[idx] = original
            numeric.ravel()[idx] = (plus - minus) / (2 * step)
        denom = np.maximum(np.abs(grads[name]) + np.abs(numeric), 1e-8)
        rel = np.abs(grads[name] - numeric) / denom
        assert rel.max() < 1e-4, f"{name}: max rel err {rel.max():.3e}"


def test_loss_and_grads_returns_arrays_the_caller_owns():
    # The finite-difference checks keep `grads` across later calls.
    rng = np.random.default_rng(6)
    model = ProbeModel(5, ("a", "b", "c"), ProbeHyperparams(hidden=7), rng)
    x, y = rng.normal(size=(10, 5)), rng.integers(0, 3, size=10)
    _, first = model.loss_and_grads(x, y)
    expected = {name: grad.copy() for name, grad in first.items()}
    _, second = model.loss_and_grads(x[:4], y[:4], np.random.default_rng(1))
    arrays = [*first.values(), *second.values(), *model.params.values()]
    for i, one in enumerate(arrays):
        for other in arrays[i + 1:]:
            assert not np.shares_memory(one, other)
    for name, grad in first.items():
        assert grad.tobytes() == expected[name].tobytes(), name


def _separable_task(n_types=120, dim=10, seed=3):
    """Label is the sign of the first embedding coordinate."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n_types + 1, dim))
    rows[:, 0] = np.where(np.arange(n_types + 1) % 2 == 0, 1.5, -1.5)
    rows[:, 0] += rng.normal(scale=0.1, size=n_types + 1)
    tokens = [f"tok{i}" for i in range(n_types)]
    vocab = _vocab(tokens)
    matrix = _embedding(n_types, dim, rows=rows)
    labels = ["POS" if i % 2 == 0 else "NEG" for i in range(n_types)]
    pairs = [(tokens[i], labels[i]) for i in range(n_types)]
    occurrences = [pairs[rng.integers(0, n_types)] for _ in range(1500)]
    train = _dataset_from_pairs(occurrences[:1000], ("POS", "NEG"), "train")
    dev = _dataset_from_pairs(occurrences[1000:1200], ("POS", "NEG"), "dev")
    test = _dataset_from_pairs(occurrences[1200:], ("POS", "NEG"), "test")
    return matrix, vocab, train, dev, test


def test_probe_learns_separable_task():
    matrix, vocab, train, dev, test = _separable_task()
    hp = ProbeHyperparams(hidden=32, epochs=200, batch_size=64, seed=0,
                          dropout=0.2)
    model = train_probe(matrix, vocab, train, dev, hp)
    train_metrics = evaluate_probe(model, matrix, vocab, train)
    test_metrics = evaluate_probe(model, matrix, vocab, test)
    assert train_metrics.accuracy >= 99.0
    assert test_metrics.accuracy >= 95.0


def test_single_label_dataset_scores_perfectly():
    matrix = _embedding(4, 5)
    vocab = _vocab(["a", "b", "c", "d"])
    data = _dataset_from_pairs([("a", "X"), ("b", "X"), ("c", "X")], ("X",))
    hp = ProbeHyperparams(hidden=4, epochs=3, seed=0)
    model = train_probe(matrix, vocab, data, data, hp)
    metrics = evaluate_probe(model, matrix, vocab, data)
    assert metrics.accuracy == 100.0
    assert metrics.macro_f1 == 100.0


def test_all_one_class_predictions_metrics():
    # Closed form on a balanced 2-class set predicted all as one class:
    # accuracy 1/2; F1 = 2/3 for the predicted class, 0 for the other,
    # macro-F1 = 1/3.
    matrix = _embedding(2, 4, rows=np.zeros((3, 4)))
    vocab = _vocab(["a", "b"])
    rng = np.random.default_rng(0)
    model = ProbeModel(4, ("X", "Y"), ProbeHyperparams(hidden=4), rng)
    model.params["b2"] = np.array([10.0, -10.0])  # forces every prediction to class X
    model.params["w1"][:] = 0.0
    model.params["w2"][:] = 0.0
    test = _dataset_from_pairs([("a", "X"), ("b", "Y")] * 10, ("X", "Y"))
    metrics = evaluate_probe(model, matrix, vocab, test)
    assert metrics.accuracy == pytest.approx(50.0)
    assert metrics.macro_f1 == pytest.approx(100.0 / 3.0, abs=0.01)
    assert metrics.per_label["X"][2] == pytest.approx(200.0 / 3.0, abs=0.01)
    assert metrics.per_label["Y"] == (0.0, 0.0, 0.0)


def test_training_is_seed_reproducible():
    matrix, vocab, train, dev, test = _separable_task()
    hp = ProbeHyperparams(hidden=16, epochs=10, seed=42)
    first = train_probe(matrix, vocab, train, dev, hp)
    second = train_probe(matrix, vocab, train, dev, hp)
    for name in first.params:
        assert np.array_equal(first.params[name], second.params[name])
    m1 = evaluate_probe(first, matrix, vocab, test)
    m2 = evaluate_probe(second, matrix, vocab, test)
    assert m1.accuracy == m2.accuracy
    assert m1.macro_f1 == m2.macro_f1


def test_embeddings_stay_frozen():
    matrix, vocab, train, dev, _ = _separable_task()
    before = hashlib.sha256(matrix.tobytes()).hexdigest()
    hp = ProbeHyperparams(hidden=16, epochs=5, seed=0)
    train_probe(matrix, vocab, train, dev, hp)
    after = hashlib.sha256(matrix.tobytes()).hexdigest()
    assert before == after


def test_empty_train_set_rejected():
    matrix = _embedding(2, 4)
    vocab = _vocab(["a", "b"])
    empty = LabeledTokenDataset([], ("X",), "train")
    dev = _dataset_from_pairs([("a", "X")], ("X",), "dev")
    with pytest.raises(ValueError):
        train_probe(matrix, vocab, empty, dev, ProbeHyperparams())


def test_unseen_dev_label_rejected():
    matrix = _embedding(2, 4)
    vocab = _vocab(["a", "b"])
    train = _dataset_from_pairs([("a", "X"), ("b", "X")], ("X",), "train")
    dev = _dataset_from_pairs([("a", "Z")], ("Z",), "dev")
    with pytest.raises(ValueError, match="Z"):
        train_probe(matrix, vocab, train, dev, ProbeHyperparams(epochs=1))


def test_oov_and_case_fallback():
    matrix = _embedding(2, 4, seed=5)
    vocab = _vocab(["cat", "dog"])
    train = _dataset_from_pairs(
        [("cat", "A"), ("dog", "B"), ("Cat", "A"), ("unknown", "B")],
        ("A", "B"), "train")
    dev = _dataset_from_pairs([("dog", "B"), ("CAT", "A"), ("other", "A")],
                              ("A", "B"), "dev")
    hp = ProbeHyperparams(hidden=4, epochs=2, seed=0)
    model = train_probe(matrix, vocab, train, dev, hp)
    metrics = evaluate_probe(model, matrix, vocab, train)
    assert 0.0 <= metrics.accuracy <= 100.0


def test_lookup_lowercases_only_a_token_without_a_row():
    class Token(str):
        lowered = 0

        def lower(self):
            Token.lowered += 1
            return str.lower(self)

    vocab = _vocab(["cat", "Dog", "dog"])
    tokens = ["cat", "Dog", "CAT", "DOG", "bird", "dog"]
    data = _dataset_from_pairs([(Token(t), "X") for t in tokens], ("X",))
    idx, y = probe._examples(vocab, data, ("X",))
    assert idx.tolist() == [0, 1, 0, 2, vocab.oov_index, 2]
    assert y.tolist() == [0] * 6
    assert Token.lowered == 3  # CAT, DOG and bird


@pytest.mark.parametrize("block", [1, 7, 10_000])
def test_metrics_do_not_depend_on_the_prediction_block(monkeypatch, block):
    matrix, vocab, train, dev, test = _separable_task()
    hp = ProbeHyperparams(hidden=16, epochs=12, patience=3, seed=4)

    def run():
        model = train_probe(matrix, vocab, train, dev, hp)
        return model, evaluate_probe(model, matrix, vocab, test).to_dict()

    expected_model, expected = run()
    monkeypatch.setattr(probe, "_PREDICT_BLOCK_ROWS", block)
    model, metrics = run()
    assert metrics == expected  # train_loss included
    for name, param in model.params.items():  # the dev-selected checkpoint
        assert param.tobytes() == expected_model.params[name].tobytes(), name


def test_predict_runs_the_model_once_per_distinct_row(monkeypatch):
    tokens = [f"w{i}" for i in range(50)]
    vocab = _vocab(tokens)
    matrix = _embedding(50, 6, seed=8)
    rng = np.random.default_rng(8)
    words = tokens + ["W7", "unseen"]  # a lowercase fallback, the OOV row
    data = _dataset_from_pairs(
        [(words[i], "A") for i in rng.integers(0, len(words), size=5_000)],
        ("A",))
    idx, _ = probe._examples(vocab, data, ("A",))
    model = ProbeModel(6, ("A", "B", "C"), ProbeHyperparams(hidden=8), rng)
    row_of = {row.tobytes(): i for i, row in enumerate(matrix)}
    predict, fed = ProbeModel.predict, []

    def recording_predict(self, x):
        fed.extend(row_of[row.tobytes()] for row in x)
        return predict(self, x)

    monkeypatch.setattr(ProbeModel, "predict", recording_predict)
    distinct = sorted(set(idx.tolist()))
    assert len(distinct) == 51 and vocab.oov_index in distinct
    for block in (1024, 7, 1):
        monkeypatch.setattr(probe, "_PREDICT_BLOCK_ROWS", block)
        fed.clear()
        labels = probe._predict(model, matrix, idx)
        assert sorted(fed) == distinct, block
    per_token = [predict(model, matrix[[i]])[0] for i in idx]
    assert labels.tolist() == per_token


def test_probe_memory_does_not_grow_with_tokens_times_hidden(traced_peak):
    tokens = [f"w{i}" for i in range(50)]
    vocab = _vocab(tokens)
    matrix = _embedding(50, 16, seed=2).astype(np.float32)
    rng = np.random.default_rng(2)
    data = _dataset_from_pairs(
        [(tokens[i], "AB"[i % 2]) for i in rng.integers(0, 50, size=20_000)],
        ("A", "B"))
    hp = ProbeHyperparams(hidden=256, epochs=1)
    with traced_peak() as peak:
        model = train_probe(matrix, vocab, data, data, hp)
        evaluate_probe(model, matrix, vocab, data)
    # one float64 matrix of tokens x hidden is 41 MB; a block of 1,024
    # tokens is 2 MB
    assert peak.bytes < 20_000 * hp.hidden * 8 / 4


@pytest.mark.parametrize("slope", [0.0, 1.0, -0.01, float("nan")])
def test_hyperparams_reject_leaky_slope_out_of_range(slope):
    # The CLI has no flag for the slope; test_cli covers the other fields.
    with pytest.raises(ValueError, match="leaky_slope"):
        ProbeHyperparams(leaky_slope=slope)


def test_hyperparams_accept_range_edges():
    ProbeHyperparams(hidden=1, batch_size=1, epochs=1, patience=1,
                     dropout=0.0, momentum=0.0, leaky_slope=0.999,
                     learning_rate=1e-300)


# ---------------------------------------------------------------------------
# bit identity of the branch-free, in-place training step
# ---------------------------------------------------------------------------

# Quiet NaNs only: the hidden pre-activation is an arithmetic result, and
# arithmetic never yields a signalling NaN (max would pass one through where
# slope * z quiets it).
_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                   2.2250738585072014e-308, -2.2250738585072014e-308,
                   1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan]


@given(values=st.lists(st.floats(allow_subnormal=True), max_size=40),
       slope=st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                       exclude_max=True))
def test_branch_free_leaky_relu_is_bit_identical(values, slope):
    with np.errstate(invalid="ignore"):
        z = np.array(_SPECIAL_FLOATS + values, dtype=np.float64) * 1.0
        active = np.maximum(z, slope * z)
        assert (active.view(np.uint64).tolist()
                == np.where(z > 0, z, slope * z).view(np.uint64).tolist())
    assert np.array_equal(active > 0, z > 0)
    assert (np.maximum(active > 0, slope).view(np.uint64).tolist()
            == np.where(z > 0, 1.0, slope).view(np.uint64).tolist())


def test_dropout_draws_into_a_buffer_follow_the_fresh_stream():
    # Generator.random(out=) needs numpy 1.17
    hidden = 32
    buffer = np.empty((64, hidden))
    into, fresh = np.random.default_rng(9), np.random.default_rng(9)
    for rows in (64, 64, 44, 1, 64, 3):
        drawn = into.random(out=buffer[:rows])
        assert np.shares_memory(drawn, buffer)
        assert drawn.tobytes() == fresh.random((rows, hidden)).tobytes()


@pytest.mark.parametrize("rows", [1, 44, 128])
@pytest.mark.parametrize("dim", [8, 25, 200])
def test_matmul_into_a_view_equals_the_fresh_product(dim, rows):
    # matmul(out=) needs numpy 1.16; the training step's four products, on
    # row views of batch-sized buffers as train_probe passes them
    hidden, labels, size = 256, 9, 128
    rng = np.random.default_rng(dim + rows)
    x, a1, da1 = (rng.normal(size=(size, width))[:rows]
                  for width in (dim, hidden, hidden))
    w1, w2 = rng.normal(size=(dim, hidden)), rng.normal(size=(hidden, labels))
    dz2 = rng.normal(size=(rows, labels))
    into_rows = np.empty((size, hidden))[:rows]
    for left, right, out in [(x, w1, into_rows),
                             (a1.T, dz2, np.empty((hidden, labels))),
                             (dz2, w2.T, into_rows),
                             (x.T, da1, np.empty((dim, hidden)))]:
        # np.copy keeps the layout, so a transposed view stays transposed
        expected = (np.copy(left) @ np.copy(right)).tobytes()
        assert np.matmul(left, right, out=out).tobytes() == expected


def _reference_log_softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _reference_hidden(params, hp, x):
    z1 = x @ params["w1"] + params["b1"]
    return z1, np.where(z1 > 0, z1, hp.leaky_slope * z1)


def _reference_loss_and_grads(params, hp, x, y, dropout_rng):
    """The training step written with np.where and fresh arrays."""
    z1, a1 = _reference_hidden(params, hp, x)
    keep = 1.0 - hp.dropout
    mask = None
    if hp.dropout > 0.0:
        mask = (dropout_rng.random(a1.shape) < keep) / keep
        a1 = a1 * mask
    logp = _reference_log_softmax(a1 @ params["w2"] + params["b2"])
    batch = x.shape[0]
    loss = -logp[np.arange(batch), y].mean()
    dz2 = np.exp(logp)
    dz2[np.arange(batch), y] -= 1.0
    dz2 /= batch
    grads = {"w2": a1.T @ dz2, "b2": dz2.sum(axis=0)}
    da1 = dz2 @ params["w2"].T
    if mask is not None:
        da1 = da1 * mask
    dz1 = da1 * np.where(z1 > 0, 1.0, hp.leaky_slope)
    grads["w1"] = x.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    return loss, grads


def _reference_train(x, y, x_dev, y_dev, n_labels, hp):
    """train_probe's loop with the reference step and momentum update."""
    rng = np.random.default_rng(hp.seed)
    dim = x.shape[1]
    params = {
        "w1": rng.normal(0.0, np.sqrt(2.0 / dim), size=(dim, hp.hidden)),
        "b1": np.zeros(hp.hidden),
        "w2": rng.normal(0.0, np.sqrt(2.0 / hp.hidden),
                         size=(hp.hidden, n_labels)),
        "b2": np.zeros(n_labels),
    }
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    best_acc, best, since, history = -1.0, None, 0, []
    n = x.shape[0]
    for _epoch in range(hp.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, hp.batch_size):
            batch = order[start:start + hp.batch_size]
            loss, grads = _reference_loss_and_grads(params, hp, x[batch],
                                                    y[batch], rng)
            epoch_loss += loss * len(batch)
            for name, grad in grads.items():
                velocity[name] = (hp.momentum * velocity[name]
                                  - hp.learning_rate * grad)
                params[name] += velocity[name]
        history.append(epoch_loss / n)
        _, hidden = _reference_hidden(params, hp, x_dev)
        logp = _reference_log_softmax(hidden @ params["w2"] + params["b2"])
        acc = float((logp.argmax(axis=1) == y_dev).mean())
        if acc > best_acc:
            best_acc, best, since = acc, {k: v.copy() for k, v in params.items()}, 0
        else:
            since += 1
            if since >= hp.patience:
                break
    return best, history


# Cases at batch size 64 are named by dropout and dim alone.
@pytest.mark.parametrize("dropout, dim, batch_size", [
    pytest.param(dropout, dim, batch_size, id=f"{dropout}-{dim}"
                 + ("" if batch_size == 64 else f"-{batch_size}"))
    for batch_size in (64, 1, 10**9)  # 10**9: one batch, sized by the split
    for dim in (8, 200) for dropout in (0.0, 0.3, 0.5)])
def test_training_matches_reference_bit_for_bit(dropout, dim, batch_size):
    rng = np.random.default_rng(11)
    n_types, labels = 60, ("A", "B", "C", "D")
    tokens = [f"w{i}" for i in range(n_types)]
    vocab = _vocab(tokens)
    matrix = _embedding(n_types, dim, seed=dim)
    tag = rng.integers(0, len(labels), size=n_types)

    def split(size, name):
        ids = rng.integers(0, n_types, size=size)
        noisy = np.where(rng.random(size) < 0.2,
                         rng.integers(0, len(labels), size=size), tag[ids])
        pairs = [(tokens[i], labels[t]) for i, t in zip(ids, noisy)]
        return (_dataset_from_pairs(pairs, labels, name),
                matrix[ids], noisy)

    train, x, y = split(300, "train")  # 300 = 4 * 64 + 44: a ragged batch
    dev, x_dev, y_dev = split(80, "dev")
    hp = ProbeHyperparams(hidden=32, dropout=dropout, batch_size=batch_size,
                          epochs=6, patience=2, seed=5)
    model = train_probe(matrix, vocab, train, dev, hp)
    expected, history = _reference_train(x, y, x_dev, y_dev, len(labels), hp)
    for name, param in model.params.items():
        assert param.tobytes() == expected[name].tobytes(), name
    assert (np.array(model.train_loss).tobytes()
            == np.array(history).tobytes())


def test_summary_line_format():
    from bitcipher.probe import ProbeMetrics
    metrics = ProbeMetrics(86.049, 86.321, {})
    assert metrics.summary_line() == "86.05 (86.32)"
