"""Scalar training losses: cross entropy, KL divergence, mean squared error."""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Tensor


class InvalidDistributionError(ValueError):
    """A KL operand is not a valid probability distribution."""


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross entropy against integer labels, mean over the batch."""
    labels = np.asarray(labels, dtype=np.int64)
    logp = ag.log_softmax(logits)
    picked = ag.gather_rows(logp, labels)
    return ag.neg(picked.mean())


def _check_distribution(arr: np.ndarray, name: str, tol: float = 1e-6) -> None:
    if np.any(arr < 0):
        raise InvalidDistributionError(f"{name} has negative entries")
    sums = arr.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > tol):
        raise InvalidDistributionError(f"{name} rows do not sum to 1 (max dev {np.abs(sums - 1.0).max():.3g})")


def kl_divergence(target, student) -> Tensor:
    """KL(target || student) over probability vectors on the last axis.

    Rows are distributions; the per-row divergences are averaged over
    all leading axes.  Zero target entries contribute zero by the usual
    0*log(0) = 0 convention.
    """
    target = ag.as_tensor(target)
    student = ag.as_tensor(student)
    _check_distribution(target.data, "target")
    _check_distribution(student.data, "student")
    # Shift zero entries of the target to 1 so its log term vanishes there.
    zero_mask = (target.data <= 0.0).astype(np.float64)
    safe_target = target + zero_mask
    with np.errstate(divide="ignore", invalid="ignore"):
        per_elem = target * (ag.log(safe_target) - ag.log(student))
    per_row = per_elem.sum(axis=-1)
    return per_row.mean() if per_row.ndim > 0 else per_row


def mse(a, b) -> Tensor:
    """Mean squared error over all elements."""
    a, b = ag.as_tensor(a), ag.as_tensor(b)
    diff = a - b
    return (diff * diff).mean()
