"""Analytic multiply-accumulate accounting for backbone, heads, and exit paths.

All counts are exact integers.  The convention: one multiply-accumulate
is one MAC; activations, norms, softmax and pooling cost nothing, so
only matrix work is counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .heads import ExitPlacement, KernelSchedule, WindowSchedule
from .vit import ViTConfig


class EmptyHistogramError(ValueError):
    """An exit histogram with zero total mass was supplied."""


class InconsistentHistogramError(ValueError):
    """Histogram mass sits on layers that are not exits or the final layer."""


def mac_conv(n: int, d: int, k: int) -> int:
    """Standard k x k convolution over an N x D feature map."""
    return n * d * d * k * k


def mac_mhsa(n: int, d: int) -> int:
    """Multi-head self-attention: projections plus the two attention matmuls."""
    return 4 * n * d * d + 2 * n * n * d


def mac_lph(n: int, d: int, k: int) -> int:
    """Local-perception head: two pointwise convs and a depthwise k x k mix.

    ``k = 0`` is the bypass case, leaving only the pointwise work.
    """
    return 2 * n * d * d + n * d * k * k


def _ceil_sqrt(n: int) -> int:
    return math.isqrt(n - 1) + 1 if n > 0 else 0


def pooled_tokens_exact(n: int, s: int) -> int:
    """ceil(sqrt(N)/s)^2 in exact integer arithmetic."""
    return (-(-_ceil_sqrt(n) // s)) ** 2


def mac_gah(n: int, d: int, s: int) -> int:
    """Global-aggregation head: attention over the window-pooled token count.

    Uses the true pooled count ceil(sqrt(N)/s)^2, which reduces to
    N/s^2 whenever the grid divides evenly.
    """
    return mac_mhsa(pooled_tokens_exact(n, s), d)


def mac_pooled_linear(d: int) -> int:
    """Baseline head: a single D -> D linear map (the pool is free)."""
    return d * d


def ratio_checks(n: int, d: int, k: int, s: int) -> tuple[float, float]:
    """Head-to-standard cost ratios; both are below one in the valid region."""
    if d < 3 or k < 2 or s < 2:
        raise ValueError(f"ratios require d >= 3, k >= 2, s >= 2; got d={d}, k={k}, s={s}")
    lph_ratio = (2 * d + k * k) / (d * k * k)
    gah_ratio = (2 * d + n / s**2) / (2 * d + n)
    return lph_ratio, gah_ratio


@dataclass(frozen=True)
class MacProfile:
    patch_embed: int
    per_block: tuple[int, ...]
    head_by_position: dict[int, int]
    classifier_by_position: dict[int, int]
    final_classifier: int

    def __post_init__(self):
        entries = [self.patch_embed, self.final_classifier, *self.per_block]
        entries += list(self.head_by_position.values())
        entries += list(self.classifier_by_position.values())
        if any(e < 0 for e in entries):
            raise ValueError("MAC entries must be nonnegative")

    @property
    def layers_total(self) -> int:
        return len(self.per_block)

    def backbone_total(self) -> int:
        return self.patch_embed + sum(self.per_block) + self.final_classifier

    def heads_total(self) -> int:
        return sum(self.head_by_position.values()) + sum(self.classifier_by_position.values())

    def full_total(self) -> int:
        return self.backbone_total() + self.heads_total()


def model_macs(
    config: ViTConfig,
    placement: ExitPlacement | None = None,
    kernels: KernelSchedule | None = None,
    windows: WindowSchedule | None = None,
) -> MacProfile:
    """Walk the architecture statically and count every component's MACs."""
    n = config.num_patches
    t = config.seq_len
    d = config.dim
    patch = n * d * config.patch_side**2 * config.channels
    mlp_hidden = int(d * config.mlp_ratio)
    block = mac_mhsa(t, d) + 2 * t * d * mlp_hidden
    heads: dict[int, int] = {}
    classifiers: dict[int, int] = {}
    if placement is not None:
        for position, kind in zip(placement.positions, placement.kinds):
            if kind == "lph":
                heads[position] = mac_lph(n, d, kernels.kernel_for(position))
            elif kind == "gah":
                heads[position] = mac_gah(n, d, windows.window_for(position))
            else:
                heads[position] = mac_pooled_linear(d)
            classifiers[position] = d * config.num_classes
    return MacProfile(
        patch_embed=patch,
        per_block=tuple([block] * config.layers),
        head_by_position=heads,
        classifier_by_position=classifiers,
        final_classifier=d * config.num_classes,
    )


@dataclass(frozen=True)
class ExitHistogram:
    """Sample counts per exit layer, indexed 1..L."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("histogram counts must be nonnegative")

    @classmethod
    def from_layers(cls, layers, layers_total: int) -> "ExitHistogram":
        counts = [0] * layers_total
        for layer in layers:
            counts[layer - 1] += 1
        return cls(tuple(counts))

    @property
    def layers_total(self) -> int:
        return len(self.counts)

    def total(self) -> int:
        return sum(self.counts)


def speedup(hist: ExitHistogram) -> float:
    """Full-depth layer count over actually executed layers."""
    total = hist.total()
    if total == 0:
        raise EmptyHistogramError("histogram has no samples")
    layers_total = hist.layers_total
    executed = sum(i * m for i, m in enumerate(hist.counts, start=1))
    return (layers_total * total) / executed


def path_macs(profile: MacProfile, placement: ExitPlacement, exit_layer: int) -> int:
    """Cost of one sample that leaves at ``exit_layer``.

    The path runs the patch embedding, blocks 1..exit_layer, and every
    traversed exit head and internal classifier up to and including the
    exit taken; a sample reaching the final layer also pays the final
    classifier.
    """
    total = profile.patch_embed + sum(profile.per_block[:exit_layer])
    for position in placement.positions:
        if position <= exit_layer:
            total += profile.head_by_position[position]
            total += profile.classifier_by_position[position]
    if exit_layer == profile.layers_total:
        total += profile.final_classifier
    return total


def expected_macs(profile: MacProfile, hist: ExitHistogram, placement: ExitPlacement) -> float:
    """Sample-weighted mean path cost over an exit histogram."""
    total = hist.total()
    if total == 0:
        raise EmptyHistogramError("histogram has no samples")
    layers_total = profile.layers_total
    if hist.layers_total != layers_total:
        raise InconsistentHistogramError(
            f"histogram covers {hist.layers_total} layers, profile has {layers_total}"
        )
    allowed = {*placement.positions, layers_total}
    acc = 0
    for layer, count in enumerate(hist.counts, start=1):
        if count == 0:
            continue
        if layer not in allowed:
            raise InconsistentHistogramError(f"samples exit at layer {layer}, not an exit")
        acc += count * path_macs(profile, placement, layer)
    return acc / total
