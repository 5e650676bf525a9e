"""Datasets: the raw binary image format and a synthetic generator.

Raw record layout: one unsigned label byte, then H*W*C unsigned pixel
bytes in channel-major order.  Pixels are scaled to [0, 1] and then
normalized with the dataset's per-channel constants.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np


class TruncatedRecordError(ValueError):
    """The raw byte stream is not a whole number of records."""


class LabelRangeError(ValueError):
    """A label is outside the configured class count or the one-byte label field."""


class EmptyDatasetError(ValueError):
    """A dataset, or a run over one, has zero samples."""


@dataclass
class DatasetSpec:
    source: str = "synthetic"  # "synthetic" or "raw"
    path: str = ""
    image_side: int = 32
    channels: int = 3
    num_classes: int = 10
    per_class: int = 100
    noise: float = 0.05
    mean: tuple[float, ...] = (0.5, 0.5, 0.5)
    std: tuple[float, ...] = (0.5, 0.5, 0.5)
    seed: int = 0

    def __post_init__(self):
        if self.source not in ("synthetic", "raw"):
            raise ValueError(f"source must be 'synthetic' or 'raw', got {self.source!r}")
        if len(self.mean) != self.channels or len(self.std) != self.channels:
            raise ValueError("normalization constants must have one entry per channel")
        # Written as ``not lo <= x < hi`` so that NaN fails too.
        if not all(0.0 < s < math.inf for s in self.std):
            raise ValueError(f"std entries must be positive and finite, got {self.std}")
        if not all(math.isfinite(m) for m in self.mean):
            raise ValueError(f"mean entries must be finite, got {self.mean}")
        if not 0.0 <= self.noise < math.inf:
            raise ValueError(f"noise must be nonnegative and finite, got {self.noise}")
        if self.per_class < 1:
            raise ValueError(f"data.per_class must be at least 1, got {self.per_class}")


@dataclass
class LabeledDataset:
    """Normalized float64 images [n, C, H, W] with integer labels [n]."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError("images and labels must align")

    def __len__(self) -> int:
        return len(self.labels)


def normalize_images(pixels01: np.ndarray, spec: DatasetSpec) -> np.ndarray:
    mean = np.asarray(spec.mean, dtype=np.float64).reshape(1, -1, 1, 1)
    std = np.asarray(spec.std, dtype=np.float64).reshape(1, -1, 1, 1)
    return (pixels01 - mean) / std


def load_raw_images(path: str, spec: DatasetSpec) -> LabeledDataset:
    """Read the fixed-stride label+pixels records and normalize them."""
    raw = np.fromfile(path, dtype=np.uint8)
    if not raw.size:
        raise EmptyDatasetError(f"{os.path.basename(path)}: the file holds no records")
    pixels_per_image = spec.channels * spec.image_side * spec.image_side
    stride = 1 + pixels_per_image
    if raw.size % stride != 0:
        raise TruncatedRecordError(
            f"{os.path.basename(path)}: {raw.size} bytes is not a multiple of the "
            f"{stride}-byte record stride"
        )
    records = raw.reshape(-1, stride)
    labels = records[:, 0].astype(np.int64)
    if labels.size and labels.max() >= spec.num_classes:
        raise LabelRangeError(
            f"label {labels.max()} exceeds class count {spec.num_classes}"
        )
    pixels = records[:, 1:].reshape(-1, spec.channels, spec.image_side, spec.image_side)
    images = normalize_images(pixels.astype(np.float64) / 255.0, spec)
    return LabeledDataset(images, labels)


def write_raw_images(path: str, pixels_uint8: np.ndarray, labels: np.ndarray) -> None:
    """Inverse of the reader: one label byte then channel-major pixel bytes."""
    if labels.size and (labels.min() < 0 or labels.max() > 255):
        raise LabelRangeError(
            f"labels {labels.min()}..{labels.max()} do not fit the one-byte label field"
        )
    n, c, h, w = pixels_uint8.shape
    records = np.empty((n, 1 + c * h * w), dtype=np.uint8)
    records[:, 0] = labels.astype(np.uint8)
    records[:, 1:] = pixels_uint8.reshape(n, -1)
    records.tofile(path)


def gen_synthetic(
    num_classes: int,
    per_class: int,
    image_side: int,
    channels: int,
    noise: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Class-conditional Gaussian blobs in [0, 1]: [n, C, H, W] pixels plus labels.

    Each class owns a blob center and color drawn once from the seed;
    samples differ only by pixel noise, so noise 0 collapses each class
    to a single image.
    """
    if num_classes < 1 or per_class < 1:
        raise ValueError("counts must be positive")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.25 * image_side, 0.75 * image_side, size=(num_classes, 2))
    colors = rng.uniform(0.3, 1.0, size=(num_classes, channels))
    sigma = image_side / 5.0
    ys, xs = np.mgrid[0:image_side, 0:image_side]
    images = np.empty((num_classes * per_class, channels, image_side, image_side))
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    for c in range(num_classes):
        bump = np.exp(
            -((ys - centers[c, 0]) ** 2 + (xs - centers[c, 1]) ** 2) / (2.0 * sigma**2)
        )
        base = colors[c][:, None, None] * bump[None, :, :]
        block = base[None, :, :, :] + noise * rng.standard_normal(
            (per_class, channels, image_side, image_side)
        )
        images[c * per_class : (c + 1) * per_class] = np.clip(block, 0.0, 1.0)
    return images, labels


def build_dataset(spec: DatasetSpec) -> LabeledDataset:
    if spec.source == "raw":
        return load_raw_images(spec.path, spec)
    pixels, labels = gen_synthetic(
        spec.num_classes, spec.per_class, spec.image_side, spec.channels, spec.noise, spec.seed
    )
    return LabeledDataset(normalize_images(pixels, spec), labels)


def quantize_to_bytes(pixels01: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(pixels01 * 255.0), 0, 255).astype(np.uint8)
