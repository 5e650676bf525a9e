"""Plain vision transformer backbone with per-layer feature taps.

Pre-norm encoder blocks (LN -> attention -> residual; LN -> MLP ->
residual), a learned class token and positional embeddings, and a
linear classifier on the class token.  ``forward_to_layer`` and
``continue_forward`` run the block stack incrementally with prefix
semantics identical to a full pass, which is what the early-exit
cascade and the exit branches rely on; ``collect_taps`` gathers the
encoder outputs at chosen depths in one such pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import slabs
from .autograd import Tensor
from .layers import LayerNorm, Linear, Module, Parameter, trunc_normal


class WrongLayerError(ValueError):
    """An encoder output from the wrong depth was passed to a consumer."""


@dataclass(frozen=True)
class ViTConfig:
    image_side: int = 32
    channels: int = 3
    patch_side: int = 8
    layers: int = 8
    dim: int = 64
    heads: int = 4
    mlp_ratio: float = 4.0
    num_classes: int = 10

    def __post_init__(self):
        if self.image_side % self.patch_side != 0:
            raise ValueError("image_side must be divisible by patch_side")
        if self.dim % self.heads != 0:
            raise ValueError("dim must be divisible by heads")
        for field in ("image_side", "channels", "patch_side", "layers", "dim", "heads", "num_classes"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be positive")
        if not math.isfinite(self.mlp_ratio) or int(self.dim * self.mlp_ratio) < 1:
            raise ValueError(
                f"mlp_ratio must be finite with int(dim * mlp_ratio) >= 1, got {self.mlp_ratio}"
            )

    @property
    def tokens_per_side(self) -> int:
        return self.image_side // self.patch_side

    @property
    def num_patches(self) -> int:
        return self.tokens_per_side**2

    @property
    def seq_len(self) -> int:
        return self.num_patches + 1


@dataclass
class EncoderOutput:
    tokens: Tensor  # [batch, N + 1, D]; position 0 is the class token
    layer_index: int

    def cls(self) -> Tensor:
        return self.tokens[:, 0, :]

    def patches(self) -> Tensor:
        return self.tokens[:, 1:, :]


class MultiHeadSelfAttention(Module):
    """Scaled dot-product attention with per-head projections and output map.

    The four ``Linear`` children hold the parameters; ``ag.attention`` runs
    the whole sublayer as one graph node.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        super().__init__()
        if dim % heads != 0:
            raise ValueError("dim must be divisible by heads")
        self.heads = heads
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def weights(self, x: Tensor) -> Tensor:
        """Attention weights [batch, heads, T, T], without a graph; each query row sums to one.

        Bitwise the probabilities that ``__call__`` mixes the values with.
        """
        wq, wk = self.wq, self.wk
        return Tensor(
            ag.attention_probs(x.data, wq.weight.data, wq.bias.data, wk.weight.data, wk.bias.data, self.heads)[2]
        )

    def __call__(self, x: Tensor) -> Tensor:
        wq, wk, wv, wo = self.wq, self.wk, self.wv, self.wo
        return ag.attention(
            x, wq.weight, wq.bias, wk.weight, wk.bias, wv.weight, wv.bias, wo.weight, wo.bias, self.heads
        )


class EncoderBlock(Module):
    """Pre-norm block; ``fc1`` and ``fc2`` hold the MLP's parameters for ``ag.mlp``."""

    def __init__(self, dim: int, heads: int, mlp_ratio: float, rng: np.random.Generator):
        super().__init__()
        hidden = int(dim * mlp_ratio)
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, heads, rng)
        self.norm2 = LayerNorm(dim)
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.norm1(x))
        fc1, fc2 = self.fc1, self.fc2
        return x + ag.mlp(self.norm2(x), fc1.weight, fc1.bias, fc2.weight, fc2.bias)


class PatchEmbed(Module):
    def __init__(self, config: ViTConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        patch_dim = config.patch_side**2 * config.channels
        self.proj = Linear(patch_dim, config.dim, rng)
        self.cls_token = Parameter(np.zeros(config.dim))
        self.pos_embed = Parameter(trunc_normal(rng, (config.seq_len, config.dim)))

    def patchify(self, images: Tensor) -> Tensor:
        """Project non-overlapping patches: [B, C, H, W] -> [B, N, D]."""
        cfg = self.config
        b, c, h, w = images.shape
        if (c, h, w) != (cfg.channels, cfg.image_side, cfg.image_side):
            raise ValueError(
                f"image shape {(c, h, w)} does not match config "
                f"{(cfg.channels, cfg.image_side, cfg.image_side)}"
            )
        p, side = cfg.patch_side, cfg.tokens_per_side
        grid = images.reshape((b, c, side, p, side, p))
        patches = grid.transpose((0, 2, 4, 1, 3, 5)).reshape((b, cfg.num_patches, c * p * p))
        return self.proj(patches)

    def __call__(self, images: Tensor) -> Tensor:
        patches = self.patchify(images)
        b = patches.shape[0]
        cls = ag.broadcast_to(self.cls_token.reshape((1, 1, self.config.dim)), (b, 1, self.config.dim))
        tokens = ag.concat([cls, patches], axis=1)
        return tokens + self.pos_embed


class ViTModel(Module):
    def __init__(self, config: ViTConfig, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.config = config
        self.patch_embed = PatchEmbed(config, rng)
        self.blocks: list[EncoderBlock] = []
        for i in range(config.layers):
            block = EncoderBlock(config.dim, config.heads, config.mlp_ratio, rng)
            setattr(self, f"block{i + 1}", block)
            self.blocks.append(block)
        self.classifier = Linear(config.dim, config.num_classes, rng)

    # -- feature taps ----------------------------------------------------
    def embed(self, images: Tensor) -> EncoderOutput:
        return EncoderOutput(self.patch_embed(images), layer_index=0)

    def continue_forward(self, state: EncoderOutput, to_layer: int) -> EncoderOutput:
        if not state.layer_index <= to_layer <= self.config.layers:
            raise ValueError(
                f"cannot continue from layer {state.layer_index} to {to_layer}"
            )
        tokens = state.tokens
        for i in range(state.layer_index, to_layer):
            tokens = self.blocks[i](tokens)
        return EncoderOutput(tokens, layer_index=to_layer)

    def forward_to_layer(self, images: Tensor, m: int) -> EncoderOutput:
        if not 1 <= m <= self.config.layers:
            raise ValueError(f"layer index {m} out of range 1..{self.config.layers}")
        return self.continue_forward(self.embed(images), m)

    def final_classifier(self, state: EncoderOutput) -> Tensor:
        if state.layer_index != self.config.layers:
            raise WrongLayerError(
                f"final classifier expects layer {self.config.layers}, got {state.layer_index}"
            )
        return self.classifier(state.cls())

    def forward(self, images: Tensor) -> Tensor:
        """Final-classifier logits; without a graph, a batch runs as sample slabs (``slabs``)."""
        if images.shape[0] < 2 or ag.is_grad_enabled():
            return self._logits(images)
        data = images.data
        return slabs.run(lambda lo, hi: self._logits(Tensor(data[lo:hi])), len(data), _join_logits)

    def _logits(self, images: Tensor) -> Tensor:
        return self.final_classifier(self.forward_to_layer(images, self.config.layers))


def _join_logits(parts: list[Tensor]) -> Tensor:
    return Tensor(np.concatenate([part.data for part in parts]))


def collect_taps(
    model: ViTModel, images: Tensor, positions: tuple[int, ...]
) -> tuple[dict[int, EncoderOutput], EncoderOutput]:
    """One incremental pass yielding the encoder output at each position and at L."""
    state = model.embed(images)
    taps: dict[int, EncoderOutput] = {}
    for position in positions:
        state = model.continue_forward(state, position)
        taps[position] = state
    final_state = model.continue_forward(state, model.config.layers)
    return taps, final_state
