"""Exit branches: placement, kernel/window schedules, and the three heads.

Shallow exits get a convolutional local-perception head, deep exits an
attention-based global-aggregation head, and a pooled-linear head is
available as the baseline.  Every head reduces an encoder tap to a
width-D feature vector that feeds a per-exit linear classifier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .layers import (
    BatchNorm,
    DepthwiseConv2d,
    Linear,
    Module,
    avg_pool_global,
    grid_to_tokens,
    tokens_to_grid,
)
from .vit import EncoderOutput, MultiHeadSelfAttention, ViTConfig

HEAD_KINDS = ("lph", "gah", "mlp")
# The linear schedules' bounds: kernels shrink from K_MAX, windows grow to G_MAX.
K_MAX = 5
G_MAX = 4


class PlacementError(ValueError):
    """Exit positions or head kinds violate the placement rules."""


def default_head_kind(position: int, layers_total: int) -> str:
    """Convolutional head in the lower half of the depth, attention above."""
    return "lph" if 2 * position <= layers_total else "gah"


@dataclass(frozen=True)
class ExitPlacement:
    layers_total: int
    positions: tuple[int, ...]
    kinds: tuple[str, ...]

    def __post_init__(self):
        if len(self.positions) != len(self.kinds):
            raise PlacementError("positions and kinds must align")
        if not self.positions:
            raise PlacementError("at least one exit position required")
        if any(k not in HEAD_KINDS for k in self.kinds):
            raise PlacementError(f"head kinds must be in {HEAD_KINDS}")
        if list(self.positions) != sorted(set(self.positions)):
            raise PlacementError("positions must be strictly increasing")
        if self.positions[0] < 1 or self.positions[-1] >= self.layers_total:
            raise PlacementError(
                f"positions must lie in 1..{self.layers_total - 1}, got {self.positions}"
            )

    @property
    def count(self) -> int:
        return len(self.positions)

    def lph_positions(self) -> tuple[int, ...]:
        return tuple(p for p, k in zip(self.positions, self.kinds) if k == "lph")

    def gah_positions(self) -> tuple[int, ...]:
        return tuple(p for p, k in zip(self.positions, self.kinds) if k == "gah")

    @classmethod
    def with_default_kinds(
        cls, layers_total: int, positions, kinds: tuple[str, ...] | None = None
    ) -> "ExitPlacement":
        """A placement whose ``kinds`` default to ``default_head_kind`` at every position."""
        positions = tuple(int(p) for p in positions)
        if kinds is None:
            kinds = tuple(default_head_kind(p, layers_total) for p in positions)
        return cls(layers_total, positions, kinds)


def place_exits(layers_total: int, num_exits: int) -> ExitPlacement:
    """Place the exits so the backbone segments between them have equal depth.

    Every encoder block costs the same, so equal depth is equal compute.
    The L blocks split into k + 1 segments of L // (k + 1) blocks (the
    tail from the last exit to the final layer included), the last
    L % (k + 1) of them one block longer, and the exits sit at the
    segment ends.  Of the even splits, this is the shallowest.
    """
    if num_exits >= layers_total:
        raise PlacementError(
            f"cannot place {num_exits} exits in a {layers_total}-layer backbone"
        )
    if num_exits < 1:
        raise PlacementError("need at least one exit")
    segments = num_exits + 1
    short, longer = divmod(layers_total, segments)
    lengths = [short + (i >= segments - longer) for i in range(num_exits)]
    return ExitPlacement.with_default_kinds(layers_total, itertools.accumulate(lengths))


def _nearest_odd_or_zero(x: float) -> int:
    """Snap to the admissible kernel sizes {0, 3, 5, 7, ...}."""
    if x < 1.5:
        return 0
    return max(3, 2 * round((x - 1.0) / 2.0) + 1)


@dataclass(frozen=True)
class KernelSchedule:
    """Kernel size per convolutional exit position; non-increasing in depth."""

    kernels: dict[int, int]

    def __post_init__(self):
        positions = sorted(self.kernels)
        sizes = [self.kernels[p] for p in positions]
        if any(k != 0 and (k < 3 or k % 2 == 0) for k in sizes):
            raise ValueError(f"kernels must be odd >= 3 or 0, got {sizes}")
        if any(a < b for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"kernel schedule must be non-increasing, got {sizes}")

    def kernel_for(self, position: int) -> int:
        return self.kernels[position]

    @classmethod
    def linear(cls, lph_positions, layers_total: int) -> "KernelSchedule":
        """Interpolate from K_MAX at the shallowest exit to zero just past mid-depth."""
        positions = sorted(lph_positions)
        if not positions:
            return cls({})
        zero_at = layers_total / 2.0 + 1.0
        first = positions[0]
        span = zero_at - first
        kernels = {}
        for p in positions:
            raw = K_MAX if span <= 0 else K_MAX * (zero_at - p) / span
            kernels[p] = _nearest_odd_or_zero(raw)
        return cls(kernels)


@dataclass(frozen=True)
class WindowSchedule:
    """Pooling window per attention exit position; non-decreasing, minimum 2."""

    windows: dict[int, int]

    def __post_init__(self):
        positions = sorted(self.windows)
        sizes = [self.windows[p] for p in positions]
        if any(s < 2 for s in sizes):
            raise ValueError(f"windows must be >= 2, got {sizes}")
        if any(a > b for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"window schedule must be non-decreasing, got {sizes}")

    def window_for(self, position: int) -> int:
        return self.windows[position]

    @classmethod
    def linear(cls, gah_positions, layers_total: int) -> "WindowSchedule":
        """Grow from 2 just past mid-depth to G_MAX at the last interior layer."""
        positions = sorted(gah_positions)
        if not positions:
            return cls({})
        start = layers_total / 2.0 + 1.0
        end = layers_total - 1.0
        span = max(end - start, 1.0)
        windows = {}
        for p in positions:
            raw = 2.0 + (G_MAX - 2.0) * (p - start) / span
            windows[p] = int(min(max(np.floor(raw), 2), G_MAX))
        return cls(windows)


def pool_token_grid(x: Tensor, window: int) -> Tensor:
    """Parameter-free token-grid average pooling: [B, N, D] -> [B, N', D].

    Ragged edge windows (grid side not divisible by the window) average
    over their true element count.
    """
    if window < 2:
        raise ValueError(f"pooling window must be >= 2, got {window}")
    return grid_to_tokens(ag.avg_pool2d(tokens_to_grid(x), window))


class _ConvStage(Module):
    """Convolution followed by GELU and batch norm."""

    def __init__(self, conv: Module, channels: int):
        super().__init__()
        self.conv = conv
        self.norm = BatchNorm(channels)

    def __call__(self, x: Tensor) -> Tensor:
        return self.norm(ag.gelu(self.conv(x)))


class LocalPerceptionHead(Module):
    """Convolutional exit head for shallow taps.

    A pointwise convolution, a depthwise convolution whose kernel comes
    from the schedule (zero means the stage is skipped entirely), and a
    second pointwise convolution, all at width D; then the class token is
    added to the pooled token map.
    """

    def __init__(self, dim: int, kernel: int, rng: np.random.Generator):
        super().__init__()
        # "expand" and "project" name the two pointwise stages in checkpoints.
        self.expand = _ConvStage(Linear(dim, dim, rng), dim)
        self.spatial = _ConvStage(DepthwiseConv2d(dim, kernel, rng), dim) if kernel > 0 else None
        self.project = _ConvStage(Linear(dim, dim, rng), dim)

    def spatial_mix(self, tokens: Tensor) -> Tensor:
        """Depthwise grid convolution; the zero-kernel schedule entry bypasses it."""
        if self.spatial is None:
            return tokens
        return grid_to_tokens(self.spatial(tokens_to_grid(tokens)))

    def __call__(self, patch_tokens: Tensor, cls_token: Tensor) -> tuple[Tensor, Tensor]:
        t = self.expand(patch_tokens)
        t = self.spatial_mix(t)
        fmap = self.project(t)
        pooled = avg_pool_global(fmap)
        return pooled + cls_token, fmap


class GlobalAggregationHead(Module):
    """Attention exit head for deep taps.

    Shrinks the token grid with parameter-free window pooling, runs
    multi-head self-attention over the surviving tokens, and adds the
    class token to the pooled result.
    """

    def __init__(self, dim: int, window: int, heads: int, rng: np.random.Generator):
        super().__init__()
        if window < 2:
            raise ValueError("window must be >= 2")
        self.window = window
        self.attn = MultiHeadSelfAttention(dim, heads, rng)

    def __call__(self, patch_tokens: Tensor, cls_token: Tensor) -> tuple[Tensor, Tensor]:
        pooled_tokens = pool_token_grid(patch_tokens, self.window)
        fmap = self.attn(pooled_tokens)
        pooled = avg_pool_global(fmap)
        return pooled + cls_token, fmap


class PooledLinearHead(Module):
    """Baseline head: global average pool over patch tokens, then one linear map."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.fc = Linear(dim, dim, rng)

    def __call__(self, patch_tokens: Tensor, cls_token: Tensor) -> tuple[Tensor, Tensor]:
        out = self.fc(avg_pool_global(patch_tokens))
        b, d = out.shape
        return out, out.reshape((b, 1, d))


class ExitBranch(Module):
    """One exit: a head bound to a backbone layer plus its internal classifier."""

    def __init__(
        self,
        position: int,
        kind: str,
        head: Module,
        dim: int,
        num_classes: int,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.position = position
        self.kind = kind
        self.head = head
        self.classifier = Linear(dim, num_classes, rng)

    def __call__(self, state: EncoderOutput) -> tuple[Tensor, Tensor, Tensor]:
        """Returns (logits, head feature vector, pre-pool feature map)."""
        if state.layer_index != self.position:
            raise ValueError(
                f"branch at layer {self.position} fed with layer {state.layer_index}"
            )
        vec, fmap = self.head(state.patches(), state.cls())
        return self.classifier(vec), vec, fmap


def build_exit_branches(
    config: ViTConfig,
    placement: ExitPlacement,
    kernels: KernelSchedule,
    windows: WindowSchedule,
    rng: np.random.Generator,
) -> list[ExitBranch]:
    if placement.layers_total != config.layers:
        raise PlacementError("placement depth does not match the backbone")
    branches = []
    for position, kind in zip(placement.positions, placement.kinds):
        if kind == "lph":
            head = LocalPerceptionHead(config.dim, kernels.kernel_for(position), rng)
        elif kind == "gah":
            head = GlobalAggregationHead(config.dim, windows.window_for(position), config.heads, rng)
        else:
            head = PooledLinearHead(config.dim, rng)
        branches.append(
            ExitBranch(position, kind, head, config.dim, config.num_classes, rng)
        )
    return branches
