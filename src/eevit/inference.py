"""Confidence-threshold early-exit inference over one batched cascade walk.

``cascade`` walks a batch through the encoder blocks once.  At every
exit the internal classifier's softmax confidence is compared with the
threshold, and the samples that cross it leave the batch, so the
remaining blocks run only on the samples still undecided; the walk stops
once none are left.  Samples no exit claims are decided by the final
classifier.  At tau = inf no sample leaves and the walk yields every
classifier's logits.

Every inference path is built on that walk: single-sample inference is
a batch of one, dataset evaluation runs chunks of ``CHUNK`` images, and
a threshold sweep runs one tau = inf pass and replays
``ExitPolicy.decide`` over the cached confidences for each threshold.
Batch composition can move logits in the last bits (within 3e-14 on the
desk model), so a chunked decision can differ from a batch-of-one
decision only for a confidence that close to tau.  The same bound covers
the sample slabs a batch runs as (``slabs``): each slab is a smaller
batch, so a split walk's logits stay within it of a one-slab walk's, and
its decisions differ only for a confidence that close to tau.  Consumed
MACs follow the analytic path convention of the cost model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import slabs
from .autograd import Tensor, no_grad, softmax_array
from .costs import (
    ExitHistogram,
    MacProfile,
    expected_macs,
    path_macs,
    speedup,
)
from .data import EmptyDatasetError
from .heads import ExitBranch, ExitPlacement
from .layers import eval_mode
from .vit import EncoderOutput, ViTModel

CHUNK = 64  # images per cascade call on the dataset paths


class NonFiniteLogitsError(ValueError):
    """A classifier produced NaN or infinite logits, whose confidence can never fire."""


@dataclass(frozen=True)
class ExitPolicy:
    """Exit on the first classifier whose top-class probability exceeds tau.

    The comparison is strict, so tau >= 1 never exits early; tau above
    one is allowed and means the same thing.  NaN is rejected.
    """

    tau: float = 0.9

    def __post_init__(self):
        if not self.tau >= 0.0:
            raise ValueError(f"tau must be nonnegative, got {self.tau}")

    def fires(self, confidence):
        """Whether a confidence, or each of an array of them, crosses the threshold."""
        return confidence > self.tau

    def decide(self, confidences: np.ndarray) -> np.ndarray:
        """Per sample, the first exit that fires over [exits, n] confidences.

        A sample no exit claims gets the index ``exits``: the final classifier.
        With no exits that is index 0 for every sample.
        """
        fired = self.fires(confidences)
        if not len(fired):
            return np.zeros(fired.shape[1], dtype=np.intp)
        return np.where(fired.any(axis=0), fired.argmax(axis=0), len(confidences))


def _confidence(logits: np.ndarray):
    """Top-class softmax probability of each row of finite logits."""
    return softmax_array(logits).max(axis=-1)


@dataclass(frozen=True)
class InferenceResult:
    exit_layer: int
    predicted_label: int
    confidence: float
    macs: int
    exit_logits: dict[int, np.ndarray]


@dataclass(frozen=True)
class EvaluationSummary:
    tau: float
    accuracy: float
    histogram: ExitHistogram
    speedup: float
    expected_macs: float


@dataclass(frozen=True)
class _SampleTrace:
    """Per-exit confidences from one full cascade pass."""

    confidences: np.ndarray  # per configured exit, in order


def _finite(logits: np.ndarray, layer: int) -> np.ndarray:
    if not np.isfinite(logits).all():
        raise NonFiniteLogitsError(f"the classifier at layer {layer} produced non-finite logits")
    return logits


def cascade(
    model: ViTModel, branches: list[ExitBranch], images: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """Walk a batch through the block stack once, dropping samples as they exit.

    Returns every classifier's logits as [exits + 1, n, classes], the
    final classifier last, with NaN where a sample had already left, and
    per sample the index of the classifier that decided it.  The batch
    runs as contiguous sample slabs, one per BLAS thread (``slabs``),
    each walking and dropping its own samples; eval mode and ``no_grad``
    are entered once, here, for all of them.  ``ViTModel.forward`` cuts
    a graph-free batch into the same slabs, so at tau >= 1 the final
    logits stay bitwise the plain forward's.
    """
    policy = ExitPolicy(tau)
    images = np.asarray(images, dtype=np.float64)
    eval_mode(model, *branches)
    with no_grad():
        return slabs.run(
            lambda lo, hi: _walk(model, branches, images[lo:hi], policy), len(images), _join_walks
        )


def _join_walks(parts):
    logits, decided = zip(*parts)
    return np.concatenate(logits, axis=1), np.concatenate(decided)


def _walk(
    model: ViTModel, branches: list[ExitBranch], images: np.ndarray, policy: ExitPolicy
) -> tuple[np.ndarray, np.ndarray]:
    """``cascade`` on one slab, in eval mode and without a graph."""
    n, exits = len(images), len(branches)
    logits = np.full((exits + 1, n, model.config.num_classes), np.nan)
    confidences = np.full((exits, n), np.nan)
    active = np.arange(n)
    state = model.embed(Tensor(images))
    for i, branch in enumerate(branches):
        state = model.continue_forward(state, branch.position)
        rows = _finite(branch(state)[0].data, branch.position)
        conf = _confidence(rows)
        logits[i, active], confidences[i, active] = rows, conf
        stay = ~policy.fires(conf)
        if not stay.all():
            active = active[stay]
            if not active.size:
                break
            state = EncoderOutput(Tensor(state.tokens.data[stay]), state.layer_index)
    if active.size:
        state = model.continue_forward(state, model.config.layers)
        logits[exits, active] = _finite(model.final_classifier(state).data, model.config.layers)
    return logits, policy.decide(confidences)


def _cascade_chunks(
    model: ViTModel, branches: list[ExitBranch], images: np.ndarray, tau: float, chunk: int = CHUNK
) -> tuple[np.ndarray, np.ndarray]:
    """``cascade`` over ``images`` in ``chunk``-image calls, joined in order."""
    if len(images) == 0:
        raise EmptyDatasetError("the cascade needs at least one sample")
    starts = range(0, len(images), chunk)
    return _join_walks([cascade(model, branches, images[s : s + chunk], tau) for s in starts])


def infer_early_exit(
    model: ViTModel,
    branches: list[ExitBranch],
    image: np.ndarray,
    policy: ExitPolicy,
    profile: MacProfile,
    placement: ExitPlacement,
) -> InferenceResult:
    """Single-sample inference, stopping at the first confident exit."""
    logits, decided = cascade(model, branches, np.asarray(image)[None], policy.tau)
    first = int(decided[0])
    layers = placement.positions + (placement.layers_total,)
    row = logits[first, 0]
    return InferenceResult(
        exit_layer=layers[first],
        predicted_label=int(row.argmax()),
        confidence=float(_confidence(row)),
        macs=path_macs(profile, placement, layers[first]),
        exit_logits={layers[i]: logits[i, 0] for i in range(first + 1)},
    )


def _summary(
    decided: np.ndarray,
    predictions: np.ndarray,
    labels: np.ndarray,
    tau: float,
    profile: MacProfile,
    placement: ExitPlacement,
) -> EvaluationSummary:
    """Aggregate per-sample decisions; ``predictions`` holds every classifier's labels [exits + 1, n]."""
    layers_total = placement.layers_total
    layers = np.array(placement.positions + (layers_total,))
    hist = ExitHistogram.from_layers(layers[decided].tolist(), layers_total)
    predicted = predictions[decided, np.arange(len(decided))]
    return EvaluationSummary(
        tau=tau,
        accuracy=int((predicted == labels).sum()) / len(labels),
        histogram=hist,
        speedup=speedup(hist),
        expected_macs=expected_macs(profile, hist, placement),
    )


def evaluate_dataset(
    model: ViTModel,
    branches: list[ExitBranch],
    images: np.ndarray,
    labels: np.ndarray,
    policy: ExitPolicy,
    profile: MacProfile,
    placement: ExitPlacement,
) -> EvaluationSummary:
    """Early-exit inference aggregated over a labeled dataset."""
    logits, decided = _cascade_chunks(model, branches, images, policy.tau)
    return _summary(decided, logits.argmax(axis=-1), labels, policy.tau, profile, placement)


def trace_sample(
    model: ViTModel,
    branches: list[ExitBranch],
    image: np.ndarray,
    placement: ExitPlacement,
) -> _SampleTrace:
    """Run the full cascade once, caching every exit's confidence."""
    logits, _ = cascade(model, branches, np.asarray(image)[None], math.inf)
    return _SampleTrace(confidences=_confidence(logits[:-1, 0]))


def threshold_sweep(
    model: ViTModel,
    branches: list[ExitBranch],
    images: np.ndarray,
    labels: np.ndarray,
    taus: list[float],
    profile: MacProfile,
    placement: ExitPlacement,
) -> list[EvaluationSummary]:
    """One full cascade pass over the dataset; the policy replays over cached confidences."""
    if not taus:
        raise ValueError("tau list must not be empty")
    policies = [ExitPolicy(tau) for tau in taus]
    logits, _ = _cascade_chunks(model, branches, images, math.inf)
    confidences = _confidence(logits[:-1])
    predictions = logits.argmax(axis=-1)
    return [
        _summary(policy.decide(confidences), predictions, labels, policy.tau, profile, placement)
        for policy in policies
    ]
