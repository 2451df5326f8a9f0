"""Embedding refinement: ZCA whitening, centering, and row normalization."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._lazy import np

# Eigenvalues at or below this are treated as zero-variance directions; they
# cannot be rescaled to unit variance and get the epsilon-regularized scale.
RANK_CUTOFF = 1e-8

DEFAULT_EPSILON = 1e-5

# Rows checked for finiteness, or squared for their norms, at once. Each row's
# sum is the same at any height; 256 rows are a small fraction of the matrix.
_NORM_BLOCK_ROWS = 256


@dataclass
class PostprocReport:
    """Record of the transforms applied, in order, with diagnostics."""

    steps: list[str] = field(default_factory=list)
    epsilon: float | None = None
    degenerate_directions: int = 0
    pre_covariance_condition: float | None = None
    post_covariance_condition: float | None = None
    rows_normalized: int = 0
    zero_rows: int = 0


def _condition(eigenvalues: np.ndarray) -> float | None:
    """max / min eigenvalue; None, not infinity, for a singular matrix."""
    top = float(eigenvalues.max())
    bottom = float(eigenvalues.min())
    return None if bottom <= 0 else top / bottom


def check_epsilon(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")


def whiten(rows: np.ndarray, epsilon: float = DEFAULT_EPSILON,
           report: PostprocReport | None = None,
           overwrite_rows: bool = False) -> np.ndarray:
    """Decorrelate columns so the feature covariance is the identity.

    Uses the symmetric inverse square root of the covariance, which rotates
    back into the original basis. Directions whose eigenvalue falls at or
    below RANK_CUTOFF are rescaled with an epsilon-regularized denominator
    instead of being blown up, and counted in the report.

    ``overwrite_rows`` lets a float64 ``rows`` be centred in place and then
    reused as scratch, as scipy's ``overwrite_a`` does: its contents are
    undefined afterwards, and the result is the same bits either way.
    """
    check_epsilon(epsilon)
    rows = np.asarray(rows, dtype=np.float64)
    n, dim = rows.shape
    if n < dim + 1:
        raise ValueError(f"whitening needs at least {dim + 1} rows, got {n}")
    if not np.isfinite(rows).all():
        raise ValueError("whitening requires finite entries")
    report = report if report is not None else PostprocReport()
    report.epsilon = epsilon

    centered = np.subtract(rows, rows.mean(axis=0),
                           out=rows if overwrite_rows else None)
    cov = centered.T @ centered / (n - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    report.pre_covariance_condition = _condition(eigenvalues)

    degenerate = eigenvalues <= RANK_CUTOFF
    report.degenerate_directions = int(degenerate.sum())
    safe = np.where(degenerate, 1.0, eigenvalues)
    scale = np.where(degenerate, 1.0 / np.sqrt(eigenvalues + epsilon),
                     1.0 / np.sqrt(safe))
    transform = (eigenvectors * scale) @ eigenvectors.T
    out = centered @ transform

    # the post-whitening covariance, from the spent centred buffer
    np.subtract(out, out.mean(axis=0), out=centered)
    post_cov = centered.T @ centered / (n - 1)
    post_eig = np.clip(np.linalg.eigvalsh(post_cov), 0.0, None)
    report.post_covariance_condition = _condition(post_eig)
    report.steps.append("whiten")
    return out


def center_and_normalize(rows: np.ndarray,
                         report: PostprocReport | None = None,
                         row_mean: bool = False,
                         overwrite_rows: bool = False) -> np.ndarray:
    """Subtract the column mean, then scale each row to unit L2 norm.

    ``row_mean`` switches to subtracting each row's own mean instead (kept
    for comparison; the column variant is the default). Rows that are zero
    after centering are left zero and counted in the report. With
    ``overwrite_rows``, a float64 ``rows`` is refined in place and returned.
    """
    rows = np.asarray(rows, dtype=np.float64)
    for start in range(0, len(rows), _NORM_BLOCK_ROWS):
        if not np.isfinite(rows[start:start + _NORM_BLOCK_ROWS]).all():
            raise ValueError("normalization requires finite entries")
    report = report if report is not None else PostprocReport()
    mean = rows.mean(axis=1, keepdims=True) if row_mean else rows.mean(axis=0)
    centered = np.subtract(rows, mean, out=rows if overwrite_rows else None)
    # np.linalg.norm's reduction, over blocks of rows: no full-size square
    norms = np.empty(len(centered))
    for start in range(0, len(centered), _NORM_BLOCK_ROWS):
        block = centered[start:start + _NORM_BLOCK_ROWS]
        np.sqrt(np.add.reduce(block * block, axis=1),
                out=norms[start:start + _NORM_BLOCK_ROWS])
    zero = norms == 0.0
    np.divide(centered, norms[:, None], out=centered, where=~zero[:, None])
    report.zero_rows = int(zero.sum())
    report.rows_normalized = int((~zero).sum())
    report.steps.append("center_row_mean" if row_mean else "center")
    report.steps.append("l2_normalize")
    return centered


def pipeline(rows: np.ndarray, epsilon: float = DEFAULT_EPSILON,
             row_mean: bool = False, overwrite_rows: bool = False
             ) -> tuple[np.ndarray, PostprocReport]:
    """Whiten, then center and L2-normalize; shape is always preserved.

    The whitened matrix is refined in place. With ``overwrite_rows`` the
    input is whitening's scratch too (see :func:`whiten`), so the steps
    hold the input and one more matrix; drop the input once this returns.
    """
    report = PostprocReport()
    whitened = whiten(rows, epsilon=epsilon, report=report,
                      overwrite_rows=overwrite_rows)
    refined = center_and_normalize(whitened, report=report, row_mean=row_mean,
                                   overwrite_rows=True)
    return refined, report
