"""Self-distillation losses for the exit branches.

Stage two trains every exit head against the frozen backbone: token
features of selected exits match an aligned copy of the final-layer
features (heterogeneous term), convolutional heads match the deepest
convolutional head and attention heads match Gram matrices of the
deepest attention head (homogeneous terms), and the two deepest heads
of each kind distill the final classifier's logits (prediction term).
Teachers are detached everywhere, so the aligning modules act as fixed
feature projections rather than trainable parameters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor, no_grad
from .layers import BatchNorm, DepthwiseConv2d, Module, grid_to_tokens, tokens_to_grid
from .losses import cross_entropy, kl_divergence, mse


class MissingExitError(ValueError):
    """A distillation term needs an exit that the placement lacks."""


class AlignmentError(ValueError):
    """No integer stride reaches the target token count."""


class AlignModule(Module):
    """Reduce final-layer tokens to an exit's grid with a strided depthwise conv.

    Kernel size equals the stride, initialized to window averaging, and
    is followed by GELU and batch norm.
    """

    def __init__(self, dim: int, source_tokens: int, target_tokens: int):
        super().__init__()
        src_side = int(round(source_tokens**0.5))
        tgt_side = int(round(target_tokens**0.5))
        if src_side**2 != source_tokens or tgt_side**2 != target_tokens:
            raise AlignmentError("token counts must form square grids")
        if src_side % tgt_side != 0:
            raise AlignmentError(
                f"no integer stride maps a {src_side}x{src_side} grid to {tgt_side}x{tgt_side}"
            )
        stride = src_side // tgt_side
        rng = np.random.default_rng(0)
        self.conv = DepthwiseConv2d(dim, stride, rng, stride=stride, padding=0)
        self.conv.weight.data = np.full((stride, stride, dim), 1.0 / (stride * stride))
        self.norm = BatchNorm(dim)

    def __call__(self, final_tokens: Tensor) -> Tensor:
        out = self.conv(tokens_to_grid(final_tokens))
        return grid_to_tokens(self.norm(ag.gelu(out)))


def heterogeneous_ordinals(count: int) -> tuple[int, ...]:
    """Exit ordinals supervised by the final-layer features: first and last of each kind."""
    if count < 2 or count % 2 != 0:
        raise MissingExitError(f"heterogeneous distillation needs an even exit count >= 2, got {count}")
    return tuple(sorted({1, count // 2, count // 2 + 1, count}))


def aligned_teachers(
    align_modules: dict[int, AlignModule], final_tokens: Tensor
) -> dict[int, np.ndarray]:
    """Channel-softmax of each aligned final-layer map, keyed by exit ordinal, without a graph."""
    with no_grad():
        return {m: ag.softmax(a(final_tokens), axis=-1).data for m, a in align_modules.items()}


def heterogeneous_loss(exit_features: list[Tensor], teachers: dict[int, np.ndarray]) -> Tensor:
    """Channel-softmax KL from ``aligned_teachers`` to selected exit features."""
    ordinals = heterogeneous_ordinals(len(exit_features))
    missing = [m for m in ordinals if m not in teachers]
    if missing:
        raise MissingExitError(f"no aligned teacher for exit ordinals {missing}")
    total: Tensor | None = None
    for m in ordinals:
        student = ag.softmax(exit_features[m - 1], axis=-1)
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
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    ce = cross_entropy(student_logits, labels)
    if gamma == 0.0:
        return ce
    teacher = ag.as_tensor(teacher_logits).detach()
    soft_teacher = ag.softmax(teacher * (1.0 / temperature), axis=-1)
    soft_student = ag.softmax(student_logits * (1.0 / temperature), axis=-1)
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
