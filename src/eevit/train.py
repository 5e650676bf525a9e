"""Two-stage training: backbone first, then frozen-backbone branch distillation.

Stage one jointly optimizes the backbone and the final classifier with
plain cross entropy; exit branches are untouched.  Stage two freezes
the backbone and final classifier and trains every exit head and
internal classifier on the combined distillation objective plus a
per-exit cross entropy that gives label signal to the classifiers the
distillation terms skip.  Stage one steps with Adam, stage two with
momentum SGD at a cosine-decayed rate, and every step first clips the
global gradient norm to ``CLIP_NORM``.
"""

from __future__ import annotations

import math
import os
import warnings
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor, no_grad
from .checkpoint import save_checkpoint
from .data import LabeledDataset
from .distill import (
    AlignModule,
    DistillationParts,
    aligned_teachers,
    heterogeneous_loss,
    heterogeneous_ordinals,
    homogeneous_gah_loss,
    homogeneous_lph_loss,
    prediction_loss,
    total_loss,
)
from .costs import pooled_tokens_exact
from .heads import ExitBranch, ExitPlacement
from .inference import _cascade_chunks
from .layers import Module
from .losses import cross_entropy
from .metrics import MetricsWriter
from .optim import Optimizer
from .vit import EncoderOutput, ViTModel, collect_taps

CLIP_NORM = 1.0  # every step scales the global gradient norm down to at most this


class UnfrozenBackboneError(AssertionError):
    """Stage two modified a parameter the freeze mask was protecting."""


class NonFiniteLossError(FloatingPointError):
    """A training loss came out NaN or infinite."""

    def __init__(self, stage: int, epoch: int, batch: int, value: float):
        super().__init__(f"stage {stage} epoch {epoch} batch {batch}: loss is {value}")
        self.stage, self.epoch, self.batch = stage, epoch, batch


class NonFiniteGradientError(FloatingPointError):
    """A gradient came out NaN or infinite, or the global gradient norm overflowed."""

    def __init__(
        self, parameter: str | None, norm: float,
        stage: int | None = None, epoch: int | None = None, batch: int | None = None,
    ):
        if parameter is None:
            message = f"the global gradient norm overflowed to {norm}"
        else:
            message = f"gradient of {parameter!r} is not finite (global norm {norm})"
        if stage is not None:
            message = f"stage {stage} epoch {epoch} batch {batch}: {message}"
        super().__init__(message)
        self.parameter, self.norm = parameter, norm
        self.stage, self.epoch, self.batch = stage, epoch, batch


class StateShapeError(LookupError):
    """A checkpoint entry's shape differs from the configured system's."""


@dataclass
class FrozenOutputs:
    """What the frozen backbone gives stage 2 for a batch of images."""

    taps: dict[int, np.ndarray]  # exit position -> encoder tokens [b, N + 1, D]
    final_logits: np.ndarray  # [b, C]
    teachers: dict[int, np.ndarray]  # exit ordinal -> aligned teacher distribution [b, t, D]

    def rows(self, idx: np.ndarray) -> FrozenOutputs:
        return FrozenOutputs(
            {p: t[idx] for p, t in self.taps.items()},
            self.final_logits[idx],
            {m: t[idx] for m, t in self.teachers.items()},
        )


@dataclass
class TrainConfig:
    alpha: float = 0.1
    beta: float = 0.1
    gamma: float = 0.5
    temperature: float = 4.0
    lr_stage1: float = 1e-3
    lr_stage2: float = 1e-2
    epochs_stage1: int = 8
    epochs_stage2: int = 12
    batch_size: int = 32
    seed: int = 0

    def stage2_lr(self, epoch: int) -> float:
        """Cosine-decayed learning rate for a 1-based stage-2 epoch (``lr_stage2`` at epoch 1)."""
        progress = (epoch - 1) / self.epochs_stage2
        return self.lr_stage2 * 0.5 * (1.0 + math.cos(math.pi * progress))

    def __post_init__(self):
        # Written as ``not lo <= x < hi`` so that NaN fails too.
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")
        for name in ("alpha", "beta", "lr_stage1", "lr_stage2"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")
        for name in ("epochs_stage1", "epochs_stage2"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients down so their global L2 norm is at most max_norm.

    A non-finite norm raises ``NonFiniteGradientError`` naming the first
    parameter, in ``params`` order, whose gradient is not finite.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = total**0.5
    if not math.isfinite(norm):
        bad = (p.name for p in params if p.grad is not None and not np.isfinite(p.grad).all())
        raise NonFiniteGradientError(next(bad, None), norm)
    if norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


def _parts(model: ViTModel, branches: list[ExitBranch] | None) -> list[tuple[str, Module]]:
    """Each part of the system with its checkpoint prefix: ``model``, ``branch0``, ..."""
    return [("model", model)] + [(f"branch{i}", b) for i, b in enumerate(branches or [])]


def full_state(model: ViTModel, branches: list[ExitBranch] | None = None) -> dict[str, np.ndarray]:
    parts = _parts(model, branches)
    return {f"{part}.{k}": v for part, module in parts for k, v in module.state_dict().items()}


def load_full_state(
    state: dict[str, np.ndarray], model: ViTModel, branches: list[ExitBranch] | None = None
) -> None:
    """Load ``full_state`` entries strictly, checking every entry before loading any.

    An entry that no part consumes or a missing one raises ``KeyError``,
    and an entry of another shape ``StateShapeError``; both name the part
    (``branch0``), and the system is left unchanged.  Each parameter then
    gets a fresh float64 copy and no gradient; each buffer is written in
    place.
    """
    expected = {}
    for part, module in _parts(model, branches):
        for kind, named in (
            ("parameter", module.named_parameters()),
            ("buffer", module.named_buffers()),
        ):
            for name, target in named:
                expected[f"{part}.{name}"] = (part, kind, name, target)
    for key in state:
        if key not in expected:
            raise KeyError(f"unexpected entry {key!r}")
    for key, (part, kind, name, target) in expected.items():
        if key not in state:
            raise KeyError(f"{part}: missing {kind} {name!r}")
        if state[key].shape != target.shape:
            raise StateShapeError(
                f"{part}: shape mismatch for {name!r}: "
                f"checkpoint {state[key].shape}, system {target.shape}"
            )
    for key, (_, kind, _, target) in expected.items():
        if kind == "parameter":
            target.data = state[key].astype(np.float64)
            target.grad = None
        else:
            target[...] = state[key]


def _epoch_pass(
    dataset: LabeledDataset, cfg: TrainConfig, stage: int, epoch: int, step,
    opt: Optimizer | None, accuracy_names: list[str],
) -> dict[str, float]:
    """One seeded pass over ``dataset`` in ``cfg.batch_size`` batches; the one epoch loop.

    ``step(idx)`` computes batch ``idx`` and returns its loss, its
    scalars and one row of predictions per accuracy name.  A non-finite
    loss or gradient names the stage, epoch and batch.  With an
    optimizer, each batch is backpropagated, clipped and stepped; without
    one, ``step`` runs under ``no_grad`` and records no graph.  The
    record holds the per-sample mean of every scalar, then each accuracy.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, stage, epoch]))
    sums: dict[str, float] = {}
    hits = np.zeros(len(accuracy_names), dtype=np.int64)
    seen = 0
    for batch, idx in enumerate(_batches(len(dataset), cfg.batch_size, rng), 1):
        with no_grad() if opt is None else nullcontext():
            loss, scalars, preds = step(idx)
        value = loss.item()
        if not math.isfinite(value):
            raise NonFiniteLossError(stage, epoch, batch, value)
        if opt is not None:
            ag.backward(loss)
            try:
                clip_gradients(opt.params, CLIP_NORM)
            except NonFiniteGradientError as exc:
                raise NonFiniteGradientError(exc.parameter, exc.norm, stage, epoch, batch) from None
            opt.step()
        for key, value in scalars.items():
            sums[key] = sums.get(key, 0.0) + value * len(idx)
        hits += (preds == dataset.labels[idx]).sum(axis=1)
        seen += len(idx)
    record = {key: value / seen for key, value in sums.items()}
    for name, h in zip(accuracy_names, hits):
        record[name] = int(h) / seen
    return record


def stage1_train(
    model: ViTModel,
    dataset: LabeledDataset,
    cfg: TrainConfig,
    out_dir: str | None = None,
    writer: MetricsWriter | None = None,
) -> list[dict[str, float]]:
    """Cross-entropy training of backbone plus final classifier."""
    model.train()
    opt = Optimizer(model.parameters(), cfg.lr_stage1, "adam")

    def step(idx):
        logits = model.forward(Tensor(dataset.images[idx]))
        loss = cross_entropy(logits, dataset.labels[idx])
        return loss, {"loss_ce": loss.item()}, logits.data.argmax(axis=-1)[None]

    history = []
    for epoch in range(1, cfg.epochs_stage1 + 1):
        record = _epoch_pass(dataset, cfg, 1, epoch, step, opt, ["train_acc"])
        history.append(record)
        if writer is not None:
            writer.write("stage1", epoch, record)
        if out_dir is not None:
            save_checkpoint(os.path.join(out_dir, f"stage1_epoch_{epoch:03d}.ckpt"), full_state(model))
    if out_dir is not None:
        save_checkpoint(os.path.join(out_dir, "stage1_final.ckpt"), full_state(model))
    return history


def build_align_modules(model: ViTModel, branches: list[ExitBranch]) -> dict[int, AlignModule]:
    """One aligning module per heterogeneous-distillation ordinal.

    Targets must match each exit's pre-pool token count: the full grid
    for conv heads, the window-pooled grid for attention heads.  The
    modules are detached teachers and are never optimized.
    """
    n = model.config.num_patches
    modules: dict[int, AlignModule] = {}
    for ordinal in heterogeneous_ordinals(len(branches)):
        branch = branches[ordinal - 1]
        target = pooled_tokens_exact(n, branch.head.window) if branch.kind == "gah" else n
        modules[ordinal] = AlignModule(model.config.dim, n, target).eval()
    return modules


def _distillation_supported(placement: ExitPlacement) -> bool:
    count = placement.count
    if count < 2 or count % 2 != 0:
        return False
    kinds = placement.kinds
    half = count // 2
    return all(k == "lph" for k in kinds[:half]) and all(k == "gah" for k in kinds[half:])


def stage2_batch_losses(
    branches: list[ExitBranch],
    frozen: FrozenOutputs,
    labels: np.ndarray,
    cfg: TrainConfig,
) -> tuple[Tensor, dict[str, float], np.ndarray]:
    """Objective for one batch: distillation terms plus per-exit cross entropy.

    The distillation terms are added when ``frozen`` carries teachers,
    which ``stage2_train`` aligns only for LGViT's placement: conv exits
    in the first half of ``branches``, attention exits in the second.
    """
    branch_logits: list[Tensor] = []
    features: list[Tensor] = []
    ce_sum: Tensor | None = None
    for branch in branches:
        tap = EncoderOutput(Tensor(frozen.taps[branch.position]), branch.position)
        logits, _, fmap = branch(tap)
        branch_logits.append(logits)
        features.append(fmap)
        ce = cross_entropy(logits, labels)
        ce_sum = ce if ce_sum is None else ce_sum + ce
    if frozen.teachers:
        half = len(branches) // 2
        parts = DistillationParts(
            hete=heterogeneous_loss(features, frozen.teachers),
            homo_lph=homogeneous_lph_loss(features[:half]),
            homo_gah=homogeneous_gah_loss(features[half:]),
            pred=prediction_loss(
                branch_logits, Tensor(frozen.final_logits), labels, cfg.gamma, cfg.temperature
            ),
        )
        distill_total = total_loss(parts, cfg.alpha, cfg.beta)
        objective = distill_total + ce_sum
        scalars = {
            "loss_hete": parts.hete.item(),
            "loss_homo_lph": parts.homo_lph.item(),
            "loss_homo_gah": parts.homo_gah.item(),
            "loss_pred": parts.pred.item(),
            "loss_total": distill_total.item(),
            "loss_ce_exits": ce_sum.item(),
            "objective": objective.item(),
        }
    else:
        objective = ce_sum
        scalars = {"loss_ce_exits": ce_sum.item(), "objective": objective.item()}
    preds = np.stack([bl.data.argmax(axis=-1) for bl in branch_logits])
    return objective, scalars, preds


def _frozen_table(
    model: ViTModel,
    images: np.ndarray,
    batch_size: int,
    positions: tuple[int, ...],
    align_modules: dict[int, AlignModule],
) -> FrozenOutputs:
    """Taps at ``positions``, final logits and ``aligned_teachers`` for every image.

    The frozen backbone runs without a graph, one ``batch_size`` chunk
    at a time, and the chunks are concatenated in order.
    """
    chunks = []
    with no_grad():
        for start in range(0, len(images), batch_size):
            taps, final_state = collect_taps(
                model, Tensor(images[start : start + batch_size]), positions
            )
            chunks.append(FrozenOutputs(
                {p: taps[p].tokens.data for p in positions},
                model.final_classifier(final_state).data,
                aligned_teachers(align_modules, final_state.patches()),
            ))
    return FrozenOutputs(
        {p: np.concatenate([c.taps[p] for c in chunks]) for p in positions},
        np.concatenate([c.final_logits for c in chunks]),
        {m: np.concatenate([c.teachers[m] for c in chunks]) for m in align_modules},
    )


def exit_accuracies(
    model: ViTModel,
    branches: list[ExitBranch],
    dataset: LabeledDataset,
    placement: ExitPlacement,
    batch_size: int = 64,
) -> list[float]:
    """Eval-mode accuracy of every internal classifier over a dataset."""
    logits, _ = _cascade_chunks(model, branches, dataset.images, math.inf, batch_size)
    hits = (logits[:-1].argmax(axis=-1) == dataset.labels).sum(axis=1)
    return [h / len(dataset) for h in hits]


def stage2_train(
    model: ViTModel,
    branches: list[ExitBranch],
    dataset: LabeledDataset,
    cfg: TrainConfig,
    placement: ExitPlacement,
    out_dir: str | None = None,
    writer: MetricsWriter | None = None,
) -> list[dict[str, float]]:
    """Distillation training of the exit branches against the frozen backbone.

    The history starts with an epoch-0 record measuring the objective
    before any optimizer step.  That pass runs the branches in training
    mode, so it does update the LPH BatchNorms' running statistics, even
    with ``epochs_stage2 = 0``.  Raises UnfrozenBackboneError if any
    backbone or final-classifier parameter changed bit for bit.  Warns
    once when the placement is not LGViT's, so the distillation terms
    are off.

    The backbone is frozen, so its outputs and the aligned teachers
    depend only on the image.  They are computed once, before the first
    pass, into a table of ``FrozenOutputs`` rows in dataset order
    (``batch_size`` images per forward), and every pass gathers its
    batches from it.  The table holds n * (k*T*D + sum_m t_m*D + C)
    float64 values: n images, k exits, T = N + 1 tokens of width D,
    t_m aligned tokens for heterogeneous ordinal m (none without
    distillation), C classes; 54 MB for 1000 desk images (t = 16, 16,
    4, 1).
    """
    align_modules = build_align_modules(model, branches) if _distillation_supported(placement) else {}
    if not align_modules:
        warnings.warn(
            f"exit kinds {','.join(placement.kinds)} are not LGViT's placement (an even "
            "count, lph in the first half, gah in the second): stage 2 trains each exit "
            "with cross entropy alone, without the distillation terms",
            stacklevel=2,
        )
    backbone_before = {name: p.data.copy() for name, p in model.named_parameters()}

    model.eval()
    # Named as in the checkpoint (branch0.head...), which errors report.
    branch_params = [
        p for part, b in _parts(model, branches)[1:] for _, p in b.named_parameters(f"{part}.")
    ]
    # Momentum SGD, not Adam: the Gram-matrix distillation term diverges
    # under scale-invariant updates.
    opt = Optimizer(branch_params, cfg.lr_stage2, "sgd")
    table = _frozen_table(model, dataset.images, cfg.batch_size, placement.positions, align_modules)

    def step(idx):
        return stage2_batch_losses(branches, table.rows(idx), dataset.labels[idx], cfg)

    names = [f"exit{i + 1}_acc" for i in range(len(branches))]
    for branch in branches:
        branch.train()
    history = []
    # epoch 0 measures without an optimizer step, but moves the BatchNorm running statistics
    for epoch in range(cfg.epochs_stage2 + 1):
        if epoch:
            opt.lr = cfg.stage2_lr(epoch)
        record = _epoch_pass(dataset, cfg, 2, epoch, step, opt if epoch else None, names)
        history.append(record)
        if writer is not None:
            writer.write("stage2", epoch, record)

    for name, p in model.named_parameters():
        if not np.array_equal(backbone_before[name], p.data):
            raise UnfrozenBackboneError(f"frozen parameter {name!r} changed during stage 2")
    if out_dir is not None:
        save_checkpoint(os.path.join(out_dir, "stage2_final.ckpt"), full_state(model, branches))
    return history
