"""Representation-similarity and attention-map analysis tools.

Linear centered kernel alignment compares two feature sets over the
same probe inputs; the heatmap applies it pairwise across per-layer
taps of two models.  Attention export writes the class-token row of a
chosen layer as a patch grid.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, no_grad
from .vit import ViTModel, collect_taps

PROBE_BATCH = 64  # images per no-grad pass in ``layer_feature_taps``


class DegenerateFeaturesError(ValueError):
    """A feature matrix is all zeros after column centering."""


class ProbeMismatchError(ValueError):
    """Two tap sets were computed over different probe sizes."""


def cka(x: np.ndarray, y: np.ndarray) -> float:
    """Linear CKA in [0, 1]: ||Yc^T Xc||_F^2 / (||Xc^T Xc||_F ||Yc^T Yc||_F)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ProbeMismatchError(f"need [n, d] inputs over one probe set, got {x.shape} and {y.shape}")
    if x.shape[0] < 2:
        raise ValueError("CKA needs at least two probe samples")
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    cross = np.linalg.norm(yc.T @ xc, "fro") ** 2
    norm_x = np.linalg.norm(xc.T @ xc, "fro")
    norm_y = np.linalg.norm(yc.T @ yc, "fro")
    if norm_x == 0.0 or norm_y == 0.0:
        raise DegenerateFeaturesError("features are constant; similarity undefined")
    return float(cross / (norm_x * norm_y))


def layer_feature_taps(model: ViTModel, images: np.ndarray) -> list[np.ndarray]:
    """Flattened token features [n, T*D] at every encoder layer, input to output."""
    model.eval()
    layers = tuple(range(1, model.config.layers + 1))
    chunks: list[list[np.ndarray]] = [[] for _ in layers]
    with no_grad():
        for start in range(0, len(images), PROBE_BATCH):
            batch = Tensor(np.asarray(images[start : start + PROBE_BATCH], dtype=np.float64))
            taps, _ = collect_taps(model, batch, layers)
            for parts, state in zip(chunks, taps.values()):
                parts.append(state.tokens.data.reshape(len(batch.data), -1))
    return [np.concatenate(parts, axis=0) for parts in chunks]


def cka_heatmap(taps_a: list[np.ndarray], taps_b: list[np.ndarray]) -> np.ndarray:
    """Pairwise CKA matrix: rows index the first model's taps, columns the second's."""
    if not taps_a or not taps_b:
        raise ValueError("tap lists must be non-empty")
    n = taps_a[0].shape[0]
    if any(t.shape[0] != n for t in taps_a + taps_b):
        raise ProbeMismatchError("all taps must cover the same probe samples")
    matrix = np.empty((len(taps_a), len(taps_b)))
    for i, ta in enumerate(taps_a):
        for j, tb in enumerate(taps_b):
            matrix[i, j] = cka(ta, tb)
    return matrix


def attention_map_export(
    model: ViTModel, image: np.ndarray, layer: int
) -> tuple[np.ndarray, float]:
    """Class-token attention at one layer as a patch grid, heads averaged.

    Returns the sqrt(N) x sqrt(N) grid of attention mass on the patch
    tokens plus the class token's self-attention weight (the grid plus
    that weight sums to one).
    """
    if not 1 <= layer <= model.config.layers:
        raise ValueError(f"layer {layer} out of range 1..{model.config.layers}")
    model.eval()
    block = model.blocks[layer - 1]
    with no_grad():
        state = model.continue_forward(
            model.embed(Tensor(np.asarray(image, dtype=np.float64)[None, ...])), layer - 1
        )
        weights = block.attn.weights(block.norm1(state.tokens)).data
    cls_row = weights[0].mean(axis=0)[0]  # heads averaged, class-token query row
    side = model.config.tokens_per_side
    return cls_row[1:].reshape(side, side), float(cls_row[0])


def write_grid_csv(path: str, grid: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row in grid:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
