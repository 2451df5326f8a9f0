import tracemalloc

import numpy as np
import pytest

from bitcipher.embedio import read_embeddings_text, write_embeddings_text
from bitcipher.postprocess import (PostprocReport, center_and_normalize,
                                   pipeline, whiten)


def _matrix(rows):
    return np.asarray(rows, dtype=np.float64)


def _exactly_white(n, dim, seed):
    """Independent construction of zero-mean, identity-covariance data."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dim))
    x -= x.mean(axis=0)
    cov = x.T @ x / (n - 1)
    lam, q = np.linalg.eigh(cov)
    x = x @ (q / np.sqrt(lam)) @ q.T
    return x


def _sample_covariance(rows):
    centered = rows - rows.mean(axis=0)
    return centered.T @ centered / (rows.shape[0] - 1)


def test_whiten_fixed_point_on_white_input():
    white = _exactly_white(500, 10, seed=0)
    out = whiten(_matrix(white))
    assert np.all(np.abs(out - white) < 1e-9)


def test_whiten_makes_covariance_identity():
    rng = np.random.default_rng(1)
    raw = rng.normal(size=(1000, 25)) @ rng.normal(size=(25, 25))
    out = whiten(_matrix(raw))
    cov = _sample_covariance(out)
    assert np.all(np.abs(cov - np.eye(25)) < 1e-6)
    assert np.all(np.abs(out.mean(axis=0)) < 1e-9)


def test_whiten_zero_variance_column_flagged():
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(200, 8))
    raw[:, 3] = 2.5
    report = PostprocReport()
    out = whiten(_matrix(raw), report=report)
    assert np.isfinite(out).all()
    assert report.degenerate_directions >= 1


def test_whiten_requires_enough_rows():
    with pytest.raises(ValueError):
        whiten(_matrix(np.zeros((5, 5))))


def test_whiten_rejects_non_finite():
    rows = np.zeros((10, 2))
    rows[3, 1] = np.nan
    with pytest.raises(ValueError):
        whiten(_matrix(rows))


def test_center_and_normalize_unit_rows():
    rng = np.random.default_rng(3)
    out = center_and_normalize(_matrix(rng.normal(size=(50, 7))))
    norms = np.linalg.norm(out, axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-9)


def test_center_and_normalize_opposite_rows():
    x = np.array([1.0, 2.0, -1.0])
    out = center_and_normalize(_matrix(np.stack([x, -x])))
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
    cosine = out[0] @ out[1]
    assert cosine == pytest.approx(-1.0, abs=1e-12)


def test_center_and_normalize_zero_row_flagged():
    # third row equals the column mean, so centering zeroes it out
    rows = np.array([[1.0, 2.0], [3.0, 4.0], [2.0, 3.0]])
    report = PostprocReport()
    out = center_and_normalize(_matrix(rows), report=report)
    assert report.zero_rows == 1
    assert report.rows_normalized == 2
    assert np.all(out[2] == 0.0)


def test_center_row_mean_variant():
    rows = np.array([[1.0, 3.0], [5.0, 9.0]])
    out = center_and_normalize(_matrix(rows), row_mean=True)
    # each row has its own mean removed before normalization
    assert np.allclose(out[0], [-1, 1] / np.sqrt(2))
    assert np.allclose(out[1], [-1, 1] / np.sqrt(2))


def test_pipeline_order_and_report():
    rng = np.random.default_rng(4)
    out, report = pipeline(_matrix(rng.normal(size=(100, 6))))
    assert report.steps == ["whiten", "center", "l2_normalize"]
    assert report.epsilon == 1e-5
    norms = np.linalg.norm(out, axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-9)


def test_pipeline_preserves_shape():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(300, 25))
    out, _ = pipeline(_matrix(raw))
    assert out.shape == raw.shape


def test_pipeline_direction_stability():
    # Applying the pipeline twice leaves row directions nearly unchanged.
    # Row normalization perturbs the covariance away from a scalar matrix
    # by O(1/sqrt(rows)), so the directions move by a small but nonzero
    # amount; 1000 x 25 inputs land around |1 - cos| ~ 5e-4.
    rng = np.random.default_rng(6)
    raw = rng.normal(size=(1000, 25)) @ rng.normal(size=(25, 25))
    once, _ = pipeline(_matrix(raw))
    twice, _ = pipeline(once)
    cosines = np.sum(once * twice, axis=1)
    assert np.all(np.abs(1.0 - cosines) < 2e-3)


def test_pipeline_identity_covariance_input():
    white = _exactly_white(400, 12, seed=7)
    out, _ = pipeline(_matrix(white))
    norms = np.linalg.norm(out, axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-9)


def test_whiten_report_conditions():
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(500, 10)) * np.array([10.0] + [1.0] * 9)
    report = PostprocReport()
    whiten(_matrix(raw), report=report)
    assert report.pre_covariance_condition > report.post_covariance_condition
    assert report.post_covariance_condition == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan"), float("inf")])
def test_epsilon_must_be_finite_and_positive(epsilon):
    rows = np.random.default_rng(9).normal(size=(50, 4))
    for step in (whiten, pipeline):
        with pytest.raises(ValueError, match=f"got {epsilon}"):
            step(rows, epsilon=epsilon)


_STEPS = {
    "whiten": whiten,
    "center": center_and_normalize,
    "center_row_mean": lambda rows: center_and_normalize(rows, row_mean=True),
    "pipeline": pipeline,
}


@pytest.mark.parametrize("layout", ["contiguous", "read_text_view"])
@pytest.mark.parametrize("step", sorted(_STEPS))
def test_postprocessing_leaves_its_input_alone(tmp_path, step, layout):
    rng = np.random.default_rng(10)
    rows = rng.normal(size=(60, 9)) @ rng.normal(size=(9, 9))
    if layout == "read_text_view":
        # the reader returns a view past its token column
        path = tmp_path / "emb.txt"
        write_embeddings_text(rows, [f"t{i}" for i in range(60)], path)
        rows, _ = read_embeddings_text(path)
        assert not rows.flags.c_contiguous
    before = rows.copy()
    _STEPS[step](rows)
    assert rows.tobytes() == before.tobytes()


def _reported(step, rows, **kwargs):
    report = PostprocReport()
    return step(rows, report=report, **kwargs), report


_OVERWRITING = {
    "whiten": lambda rows, overwrite: _reported(
        whiten, rows, overwrite_rows=overwrite),
    "center": lambda rows, overwrite: _reported(
        center_and_normalize, rows, overwrite_rows=overwrite),
    "center_row_mean": lambda rows, overwrite: _reported(
        center_and_normalize, rows, row_mean=True, overwrite_rows=overwrite),
    "pipeline": lambda rows, overwrite: pipeline(
        rows, overwrite_rows=overwrite),
}


@pytest.mark.parametrize("layout", ["contiguous", "read_text_view", "float32"])
@pytest.mark.parametrize("step", sorted(_OVERWRITING))
def test_overwriting_the_input_gives_the_same_bits(tmp_path, step, layout):
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(300, 12)) @ rng.normal(size=(12, 12))
    rows[7] = rows.mean(axis=0)  # a zero row once centred
    path = tmp_path / "emb.txt"
    write_embeddings_text(rows, [f"t{i}" for i in range(300)], path)

    def fresh():
        if layout == "read_text_view":
            return read_embeddings_text(path)[0]
        return rows.astype(np.float32 if layout == "float32" else np.float64)

    kept, kept_report = _OVERWRITING[step](fresh(), False)
    spent_input = fresh()
    spent, spent_report = _OVERWRITING[step](spent_input, True)
    assert spent.tobytes() == kept.tobytes()
    assert spent_report == kept_report
    if layout == "float32":
        # only a float64 buffer can be overwritten
        assert spent_input.tobytes() == fresh().tobytes()


def test_pipeline_overwriting_its_input_holds_one_more_matrix():
    rows = np.random.default_rng(12).normal(size=(8192, 64))
    tracemalloc.start()
    try:
        pipeline(rows, overwrite_rows=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result, plus a finiteness mask and a 256-row block (1.13 measured)
    assert peak <= 1.25 * rows.nbytes


def test_pipeline_checks_finiteness_without_a_full_mask():
    # the whitened matrix is checked over 256-row blocks: 1.05 measured,
    # against 1.13 with a mask of the whole matrix
    rows = np.random.default_rng(12).normal(size=(8192, 64))
    tracemalloc.start()
    try:
        pipeline(rows, overwrite_rows=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * rows.nbytes


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_center_and_normalize_refuses_a_non_finite_row_past_a_block(bad):
    rows = np.random.default_rng(13).normal(size=(600, 3))
    rows[555, 1] = bad
    with pytest.raises(ValueError, match="normalization requires finite"):
        center_and_normalize(rows)
