"""Per-token tagging datasets and a frozen-feature 2-layer MLP probe.

The probe reads each token's embedding row (never updating it), feeds it
through linear -> LeakyReLU -> dropout -> linear -> log-softmax, and is
trained by mini-batch SGD with momentum on the negative log-likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._lazy import np
from .corpus import Vocabulary, _lines

_PREDICT_BLOCK_ROWS = 1024  # distinct rows predicted at once (see _predict)


@dataclass
class LabeledTokenDataset:
    """Token sequences with one label per token.

    ``label_set`` holds the distinct labels in first-appearance order, which
    makes the label-to-index mapping deterministic for a given file;
    ``path``, the file read, if any, is named in error messages.
    """

    sequences: list[list[tuple[str, str]]]
    label_set: tuple[str, ...]
    split: str = ""
    path: str = ""

    def __len__(self) -> int:
        return sum(len(seq) for seq in self.sequences)


def load_conll(path, token_column: int = 0, label_column: int = -1,
               split: str = "") -> LabeledTokenDataset:
    """Read a column-layout tagging file.

    Non-blank lines are whitespace-separated columns; a blank line ends the
    current sequence; ``-DOCSTART-`` lines are ignored. All data rows must
    have the same number of columns, and only "\\n" or "\\r\\n" ends a line;
    otherwise the offending line number is reported.
    """
    sequences: list[list[tuple[str, str]]] = []
    current: list[tuple[str, str]] = []
    label_set: list[str] = []
    seen_labels: set[str] = set()
    ncols: int | None = None
    with open(path, "rb") as stream:
        for lineno, line in enumerate(_lines(stream, path), start=1):
            stripped = line.strip()
            if not stripped:
                if current:
                    sequences.append(current)
                    current = []
                continue
            if "\r" in stripped:
                raise ValueError(f"{path}:{lineno}: a lone carriage return")
            cols = stripped.split()
            if cols[0] == "-DOCSTART-":
                continue
            if ncols is None:
                ncols = len(cols)
                if not (-ncols <= token_column < ncols):
                    raise ValueError(f"{path}: token column {token_column} out "
                                     f"of range for {ncols} columns")
                if not (-ncols <= label_column < ncols):
                    raise ValueError(f"{path}: label column {label_column} out "
                                     f"of range for {ncols} columns")
            elif len(cols) != ncols:
                raise ValueError(f"{path}:{lineno}: expected {ncols} columns, "
                                 f"got {len(cols)}")
            token = cols[token_column]
            label = cols[label_column]
            if label not in seen_labels:
                seen_labels.add(label)
                label_set.append(label)
            current.append((token, label))
    if current:
        sequences.append(current)
    return LabeledTokenDataset(sequences, tuple(label_set), split, str(path))


@dataclass(frozen=True)
class ProbeHyperparams:
    hidden: int = 256
    dropout: float = 0.5
    leaky_slope: float = 0.01
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 128
    epochs: int = 50
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("hidden", "batch_size", "epochs", "patience"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1, got "
                                 f"{getattr(self, name)}")
        # Comparisons are written so that NaN fails them.
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ValueError(f"leaky_slope must be in (0, 1), got "
                             f"{self.leaky_slope}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and positive, "
                             f"got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got "
                             f"{self.momentum}")


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


class ProbeModel:
    """2-layer MLP over frozen embedding features; ``params`` holds its
    weights ``w1``, ``b1``, ``w2`` and ``b2``."""

    def __init__(self, dim: int, label_set: tuple[str, ...],
                 hp: ProbeHyperparams, rng: np.random.Generator):
        self.hp = hp
        self.label_set = label_set
        self.train_loss: list[float] = []
        self.params = {
            "w1": rng.normal(0.0, np.sqrt(2.0 / dim), size=(dim, hp.hidden)),
            "b1": np.zeros(hp.hidden),
            "w2": rng.normal(0.0, np.sqrt(2.0 / hp.hidden),
                             size=(hp.hidden, len(label_set))),
            "b2": np.zeros(len(label_set)),
        }

    def _hidden(self, x: np.ndarray, out: np.ndarray | None = None,
                scratch: np.ndarray | None = None) -> np.ndarray:
        """LeakyReLU(x @ w1 + b1) in ``out``, ``slope * z`` in ``scratch``.

        For 0 < slope < 1, ``max(z, slope*z)`` equals
        ``where(z > 0, z, slope*z)`` bit for bit, without the per-element
        branch that mispredicts on random signs.
        """
        h = np.matmul(x, self.params["w1"], out=out)
        h += self.params["b1"]
        return np.maximum(h, np.multiply(self.hp.leaky_slope, h, out=scratch),
                          out=h)

    def log_proba(self, x: np.ndarray) -> np.ndarray:
        """Forward pass with dropout disabled (deterministic)."""
        return _log_softmax(self._hidden(x) @ self.params["w2"]
                            + self.params["b2"])

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.log_proba(x).argmax(axis=1)

    def _workspace(self, batch: int) -> dict:
        """The arrays a training step of up to ``batch`` examples writes."""
        shape = (batch, self.hp.hidden)
        ws = {k: np.empty(shape) for k in ("a1", "scratch", "draw", "mask")}
        ws.update(sign=np.empty(shape, bool), keep=np.empty(shape, bool),
                  grads={k: np.empty_like(v) for k, v in self.params.items()})
        return ws

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray,
                       dropout_rng: np.random.Generator | None = None,
                       workspace: dict | None = None):
        """Mean negative log-likelihood and its analytic gradients.

        Passing ``dropout_rng`` enables inverted dropout on the hidden layer;
        without it the pass is deterministic (used at evaluation time and by
        the finite-difference gradient check). The step writes into
        ``workspace`` (see ``_workspace``), a fresh one by default.
        """
        batch = x.shape[0]
        ws = self._workspace(batch) if workspace is None else workspace
        a1 = self._hidden(x, ws["a1"][:batch], ws["scratch"][:batch])
        pos = np.greater(a1, 0, out=ws["sign"][:batch])  # before dropout
        keep = 1.0 - self.hp.dropout
        mask = None
        if dropout_rng is not None and self.hp.dropout > 0.0:
            draw = dropout_rng.random(out=ws["draw"][:batch])
            mask = np.divide(np.less(draw, keep, out=ws["keep"][:batch]), keep,
                             out=ws["mask"][:batch])
            a1 *= mask
        w2 = self.params["w2"]
        logp = _log_softmax(a1 @ w2 + self.params["b2"])
        loss = -logp[np.arange(batch), y].mean()

        dz2 = np.exp(logp)
        dz2[np.arange(batch), y] -= 1.0
        dz2 /= batch
        grads = ws["grads"]
        np.matmul(a1.T, dz2, out=grads["w2"])
        np.sum(dz2, axis=0, out=grads["b2"])
        da1 = np.matmul(dz2, w2.T, out=ws["scratch"][:batch])
        if mask is not None:
            da1 *= mask
        # LeakyReLU derivative, in a1's buffer (a1 is not read again)
        da1 *= np.maximum(pos, self.hp.leaky_slope, out=a1)
        np.matmul(x.T, da1, out=grads["w1"])
        np.sum(da1, axis=0, out=grads["b1"])
        return loss, grads

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}


@dataclass
class ProbeMetrics:
    """Evaluation scores on a percent scale (0-100)."""

    accuracy: float
    macro_f1: float
    per_label: dict[str, tuple[float, float, float]]
    train_loss: list[float] = field(default_factory=list)

    def summary_line(self) -> str:
        return f"{self.accuracy:.2f} ({self.macro_f1:.2f})"

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "per_label": {
                label: {"precision": p, "recall": r, "f1": f}
                for label, (p, r, f) in self.per_label.items()
            },
            "train_loss": list(self.train_loss),
        }


def label_ids(data: LabeledTokenDataset,
              label_set: tuple[str, ...]) -> np.ndarray:
    """The index in ``label_set`` of each token's label; ``data`` must hold
    a token, and each of its labels must be in ``label_set``."""
    where = f"{data.path}: " if data.path else ""
    split = data.split or "a"
    labels = [label for seq in data.sequences for _, label in seq]
    if not labels:
        raise ValueError(f"{where}{split} split holds no tokens")
    ids = {label: i for i, label in enumerate(label_set)}
    try:
        return np.array([ids[label] for label in labels], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"{where}label {exc.args[0]!r} in {split} split was "
                         "never seen in training") from None


def _examples(vocab: Vocabulary, data: LabeledTokenDataset,
              label_set: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Row indices and label ids of the tokens of ``data`` (see ``label_ids``);
    a token with no row falls back to its lowercase form, then the OOV row."""
    y = label_ids(data, label_set)
    get, oov = vocab.index.get, vocab.oov_index
    return np.fromiter((r if (r := get(t)) is not None else get(t.lower(), oov)
                        for seq in data.sequences for t, _ in seq),
                       np.int64, len(y)), y


def _predict(model: ProbeModel, rows: np.ndarray,
             idx: np.ndarray) -> np.ndarray:
    """``model.predict`` of the rows ``idx`` names. With dropout off a
    prediction depends on its row alone, so each distinct row is predicted
    once, over blocks of ``_PREDICT_BLOCK_ROWS`` rows."""
    distinct, inverse = np.unique(idx, return_inverse=True)
    blocks = (distinct[i:i + _PREDICT_BLOCK_ROWS]
              for i in range(0, len(distinct), _PREDICT_BLOCK_ROWS))
    return np.concatenate([model.predict(np.asarray(rows[block], np.float64))
                           for block in blocks])[inverse]


def train_probe(rows: np.ndarray, vocab: Vocabulary,
                train: LabeledTokenDataset, dev: LabeledTokenDataset,
                hp: ProbeHyperparams = ProbeHyperparams()) -> ProbeModel:
    """Fit the probe on frozen features, keeping the best-dev checkpoint.

    Training stops once dev accuracy has not improved for ``hp.patience``
    consecutive epochs. An empty split raises ``ValueError``. With the same
    seed and data the run is reproducible at equal thread counts.
    """
    idx_train, y_train = _examples(vocab, train, train.label_set)
    idx_dev, y_dev = _examples(vocab, dev, train.label_set)

    rng = np.random.default_rng(hp.seed)
    model = ProbeModel(rows.shape[1], train.label_set, hp, rng)
    velocity = {k: np.zeros_like(v) for k, v in model.params.items()}

    best_acc = -1.0
    epochs_since_best = 0
    history: list[float] = []
    n = len(idx_train)
    features = np.empty((min(hp.batch_size, n), rows.shape[1]))
    workspace = model._workspace(len(features))
    for _epoch in range(hp.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, hp.batch_size):
            batch = order[start:start + hp.batch_size]
            x = features[:len(batch)]
            x[...] = rows[idx_train[batch]]
            loss, grads = model.loss_and_grads(x, y_train[batch], rng,
                                               workspace)
            epoch_loss += loss * len(batch)
            for name, grad in grads.items():
                # v = momentum * v - learning_rate * grad, in place
                v = velocity[name]
                v *= hp.momentum
                grad *= hp.learning_rate
                v -= grad
                model.params[name] += v
        history.append(epoch_loss / n)
        acc = float((_predict(model, rows, idx_dev) == y_dev).mean())
        if acc > best_acc:
            best_acc = acc
            best_state = model.snapshot()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= hp.patience:
                break
    model.params = best_state
    model.train_loss = history
    return model


def _per_label_scores(y_true: np.ndarray, y_pred: np.ndarray,
                      n_labels: int) -> np.ndarray:
    confusion = np.bincount(y_true * n_labels + y_pred,
                            minlength=n_labels * n_labels)
    confusion = confusion.reshape(n_labels, n_labels)
    tp = np.diag(confusion).astype(np.float64)
    predicted = confusion.sum(axis=0).astype(np.float64)
    actual = confusion.sum(axis=1).astype(np.float64)
    precision = np.divide(tp, predicted, out=np.zeros(n_labels),
                          where=predicted > 0)
    recall = np.divide(tp, actual, out=np.zeros(n_labels), where=actual > 0)
    denom = precision + recall
    f1 = np.divide(2 * precision * recall, denom, out=np.zeros(n_labels),
                   where=denom > 0)
    return np.stack([precision, recall, f1], axis=1)


def evaluate_probe(model: ProbeModel, rows: np.ndarray,
                   vocab: Vocabulary,
                   test: LabeledTokenDataset) -> ProbeMetrics:
    """Token-level accuracy and macro-F1 (percent), dropout disabled."""
    idx, y = _examples(vocab, test, model.label_set)
    pred = _predict(model, rows, idx)
    accuracy = 100.0 * float((pred == y).mean())
    scores = _per_label_scores(y, pred, len(model.label_set))
    macro_f1 = 100.0 * float(scores[:, 2].mean())
    per_label = {
        label: (100.0 * scores[i, 0], 100.0 * scores[i, 1], 100.0 * scores[i, 2])
        for i, label in enumerate(model.label_set)
    }
    return ProbeMetrics(accuracy, macro_f1, per_label, list(model.train_loss))
