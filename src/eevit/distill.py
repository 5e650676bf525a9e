"""Self-distillation losses for the exit branches.

Stage two trains every exit head against the frozen backbone: token
features of selected exits match an aligned copy of the final-layer
features (heterogeneous term), convolutional heads match the deepest
convolutional head and attention heads match Gram matrices of the
deepest attention head (homogeneous terms), and the two deepest heads
of each kind distill the final classifier's logits (prediction term).
Teachers are detached everywhere.  The heterogeneous teacher is a
parameter-free function of the final tokens (``align_teacher``): window
averages down to the exit's grid, GELU, a fixed scale and a channel
softmax.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor, no_grad
from .layers import BatchNorm
from .losses import cross_entropy, kl_divergence, mse


class MissingExitError(ValueError):
    """A distillation term needs an exit that the placement lacks."""


class AlignmentError(ValueError):
    """No integer stride reaches the target token count."""


def align_teacher(final_patches: np.ndarray, target_tokens: int) -> np.ndarray:
    """Final-layer patch tokens [B, N, D] reduced to an exit's grid, as channel distributions.

    The sqrt(N) x sqrt(N) grid is cut into non-overlapping s x s windows
    with s = sqrt(N / target_tokens); each window is averaged, passed
    through GELU and scaled, and each of the ``target_tokens`` rows is
    softened over its D channels: [B, target_tokens, D].  Nothing here is
    trained.
    """
    b, n, d = final_patches.shape
    src_side, tgt_side = math.isqrt(n), math.isqrt(target_tokens)
    if src_side**2 != n or tgt_side**2 != target_tokens:
        raise AlignmentError("token counts must form square grids")
    if tgt_side == 0 or src_side % tgt_side != 0:
        raise AlignmentError(
            f"no integer stride maps a {src_side}x{src_side} grid to {tgt_side}x{tgt_side}"
        )
    s = src_side // tgt_side
    # Every window as a [B, t, t, D, s, s] view.  The einsum adds each
    # window's taps in (u, v) order, as ``ag.depthwise_conv2d`` does, and the
    # bytes of every stage-2 teacher, checkpoint and metric depend on it.
    grid = final_patches.reshape(b, tgt_side, s, tgt_side, s, d)
    windows = grid.transpose(0, 1, 3, 5, 2, 4)
    pooled = np.einsum("bhwcuv,uvc->bhwc", windows, np.full((s, s, d), 1.0 / (s * s)))
    with no_grad():
        act = ag.gelu(pooled).data
    # The scale of an eval-mode BatchNorm at mean 0 and variance 1.  It
    # stays so that stage-2 bytes stay.
    act *= 1.0 / np.sqrt(1.0 + BatchNorm.eps)
    return ag.softmax_array(act.reshape(b, target_tokens, d))


def heterogeneous_ordinals(count: int) -> tuple[int, ...]:
    """Exit ordinals supervised by the final-layer features: first and last of each kind."""
    if count < 2 or count % 2 != 0:
        raise MissingExitError(f"heterogeneous distillation needs an even exit count >= 2, got {count}")
    return tuple(sorted({1, count // 2, count // 2 + 1, count}))


def aligned_teachers(targets: dict[int, int], final_patches: np.ndarray) -> dict[int, np.ndarray]:
    """``align_teacher`` at each exit's target token count, keyed by exit ordinal."""
    return {m: align_teacher(final_patches, t) for m, t in targets.items()}


def heterogeneous_loss(exit_features: list[Tensor], teachers: dict[int, np.ndarray]) -> Tensor:
    """Channel-softmax KL from ``aligned_teachers`` to selected exit features."""
    ordinals = heterogeneous_ordinals(len(exit_features))
    missing = [m for m in ordinals if m not in teachers]
    if missing:
        raise MissingExitError(f"no aligned teacher for exit ordinals {missing}")
    total: Tensor | None = None
    for m in ordinals:
        student = ag.softmax(exit_features[m - 1])
        term = kl_divergence(teachers[m], student)
        total = term if total is None else total + term
    return total * 0.25


def _homogeneous_loss(features: list[Tensor], view, kind: str) -> Tensor:
    """Mean of ``mse(view(student), view(teacher))`` over the students, the deepest exit teaching.

    Fewer than two exits warn, pointing at the public loss's caller, and give 0.
    """
    if len(features) < 2:
        warnings.warn(f"fewer than two {kind} exits; homogeneous {kind} loss is 0", stacklevel=3)
        return Tensor(0.0)
    teacher = view(features[-1].detach()).detach()
    total: Tensor | None = None
    for f in features[:-1]:
        term = mse(view(f), teacher)
        total = term if total is None else total + term
    return total * (1.0 / (len(features) - 1))


def homogeneous_lph_loss(lph_features: list[Tensor]) -> Tensor:
    """Mean squared error of each shallow conv head against the deepest one."""
    return _homogeneous_loss(lph_features, lambda t: t, "conv")


def _gram(features: Tensor) -> Tensor:
    b, n, d = features.shape
    flat = features.reshape((b * n, d))
    return ag.matmul(flat.transpose((1, 0)), flat)


def homogeneous_gah_loss(gah_features: list[Tensor]) -> Tensor:
    """Gram-matrix MSE of each attention head against the deepest one.

    The D x D Gram form makes differently sized token maps comparable
    and is invariant to token-row permutations.
    """
    return _homogeneous_loss(gah_features, _gram, "attention")


def kd_loss(
    student_logits: Tensor,
    teacher_logits,
    labels: np.ndarray,
    gamma: float,
    temperature: float,
) -> Tensor:
    """Vanilla knowledge distillation: (1-g) CE(student, y) + g KL(teacher || student).

    Both logit sets are softened by the temperature before the KL term;
    there is no extra temperature-squared factor.  At gamma = 0 this is
    exactly the cross entropy.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    if not 0.0 < temperature < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    ce = cross_entropy(student_logits, labels)
    if gamma == 0.0:
        return ce
    teacher = ag.as_tensor(teacher_logits).detach()
    soft_teacher = ag.softmax(teacher * (1.0 / temperature))
    soft_student = ag.softmax(student_logits * (1.0 / temperature))
    kl = kl_divergence(soft_teacher, soft_student)
    if gamma == 1.0:
        return kl
    return ce * (1.0 - gamma) + kl * gamma


def prediction_loss(
    branch_logits: list[Tensor],
    final_logits,
    labels: np.ndarray,
    gamma: float,
    temperature: float,
) -> Tensor:
    """Distill the frozen final classifier into the deepest exit of each kind."""
    count = len(branch_logits)
    if count < 2 or count % 2 != 0:
        raise MissingExitError(f"prediction distillation needs an even exit count >= 2, got {count}")
    mid, last = count // 2, count
    out = kd_loss(branch_logits[mid - 1], final_logits, labels, gamma, temperature)
    return out + kd_loss(branch_logits[last - 1], final_logits, labels, gamma, temperature)


@dataclass
class DistillationParts:
    hete: Tensor
    homo_lph: Tensor
    homo_gah: Tensor
    pred: Tensor


def total_loss(parts: DistillationParts, alpha: float, beta: float) -> Tensor:
    """Weighted overall objective: alpha*hete + beta*(homo_lph + homo_gah) + pred."""
    return parts.hete * alpha + (parts.homo_lph + parts.homo_gah) * beta + parts.pred
