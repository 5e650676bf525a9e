"""Correctness checks on the program's outputs.

Every check compares the program against properties or against the
benchmark's own separate computation, never against stored output, and
raises CheckError on a wrong result.  ``selftest.py`` feeds each one a
deliberately wrong input.
"""

from __future__ import annotations

import math

import numpy as np


class CheckError(AssertionError):
    """The program returned a wrong result."""


def finite_histories(*histories: list[dict[str, float]]) -> None:
    for history in histories:
        for epoch, record in enumerate(history):
            for key, value in record.items():
                if not math.isfinite(value):
                    raise CheckError(f"record {epoch}: {key} = {value} is not finite")


def objective_drops(history: list[dict[str, float]], key: str) -> None:
    """The last record is lower than the first by more than rounding could explain."""
    first, last = history[0][key], history[-1][key]
    if not last < first - 1e-9 * abs(first):
        raise CheckError(f"{key} did not fall: first record {first}, last {last}")


def bitwise_equal(a: np.ndarray, b: np.ndarray, what: str) -> None:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
        raise CheckError(f"{what}: arrays differ bitwise")


def same_snapshot(before: dict[str, bytes], after: dict[str, bytes], what: str) -> None:
    if before.keys() != after.keys():
        raise CheckError(f"{what}: parameter names changed")
    changed = [name for name in before if before[name] != after[name]]
    if changed:
        raise CheckError(f"{what}: {len(changed)} parameters changed, first {changed[0]!r}")


def softmax_confidence(logits: np.ndarray) -> np.ndarray:
    """Top-class probability per row, computed independently of the program."""
    z = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return z.max(axis=-1) / z.sum(axis=-1)


def first_exits(
    confidences: np.ndarray, positions: tuple[int, ...], layers: int, tau: float, margin: float = 1e-9
) -> tuple[np.ndarray, np.ndarray]:
    """Exit layer per image under threshold ``tau`` and a mask of decidable images.

    ``confidences`` is [images, exits].  An image is undecidable when any
    of its exit confidences lies within ``margin`` of ``tau``: there the
    last bits of a batched pass may decide differently from batch 1.
    """
    fired = confidences > tau
    first = np.where(fired.any(axis=1), fired.argmax(axis=1), len(positions))
    exits = np.asarray(tuple(positions) + (layers,))[first]
    decidable = ~(np.abs(confidences - tau) <= margin).any(axis=1)
    return exits, decidable


def exit_layers_match(program: np.ndarray, expected: np.ndarray, decidable: np.ndarray) -> None:
    if decidable.sum() < len(decidable) // 2:
        raise CheckError("too few images far enough from tau to check")
    wrong = np.nonzero((np.asarray(program) != expected) & decidable)[0]
    if wrong.size:
        i = wrong[0]
        raise CheckError(
            f"{wrong.size} images left at the wrong exit; image {i}: {program[i]} not {expected[i]}"
        )


def layer_ratio_speedup(program: float, exit_layers: np.ndarray, layers: int) -> None:
    expected = (layers * len(exit_layers)) / int(np.sum(exit_layers))
    if program != expected:
        raise CheckError(f"layer-ratio speed-up {program} != L*n/sum(exit layers) = {expected}")


def path_macs(geometry: dict, exit_layer: int) -> int:
    """MACs of one image leaving at ``exit_layer``, from the benchmark's own formulas.

    ``geometry`` holds n (patches), d, channels, patch, hidden (MLP width),
    classes, layers and ``exits``, a list of (position, kind, kernel or window).
    """
    n, d, classes = geometry["n"], geometry["d"], geometry["classes"]
    t = n + 1
    total = n * d * geometry["patch"] ** 2 * geometry["channels"]
    total += exit_layer * (4 * t * d * d + 2 * t * t * d + 2 * t * d * geometry["hidden"])
    for position, kind, size in geometry["exits"]:
        if position > exit_layer:
            continue
        if kind == "lph":
            total += 2 * n * d * d + n * d * size * size
        else:
            pooled = math.ceil(math.sqrt(n) / size) ** 2
            total += 4 * pooled * d * d + 2 * pooled * pooled * d
        total += d * classes
    if exit_layer == geometry["layers"]:
        total += d * classes
    return total


def macs_match(program_per_image, program_expected: float, exit_layers, geometry: dict) -> None:
    own = np.array([path_macs(geometry, int(layer)) for layer in exit_layers])
    if program_per_image is not None and not np.array_equal(np.asarray(program_per_image), own):
        raise CheckError("per-image MACs differ from the benchmark's formulas")
    if not math.isclose(program_expected, float(own.mean()), rel_tol=1e-12):
        raise CheckError(f"expected MACs {program_expected} != {own.mean()}")


def histogram(exit_layers: np.ndarray, layers: int) -> tuple[int, ...]:
    return tuple(int(c) for c in np.bincount(np.asarray(exit_layers) - 1, minlength=layers))


def exits_never_shallower(histograms: list[tuple[int, ...]]) -> None:
    """Histograms in rising tau order: no layer may gain early leavers as tau rises."""
    previous = None
    for i, counts in enumerate(histograms):
        cumulative = np.cumsum(counts)
        if previous is not None and np.any(cumulative > previous):
            raise CheckError(f"more images leave early at tau #{i} than at the lower tau before it")
        previous = cumulative


def histogram_matches(program: tuple[int, ...], expected: tuple[int, ...], tau: float) -> None:
    if tuple(program) != tuple(expected):
        raise CheckError(f"tau {tau}: exit histogram {program} != recomputed {expected}")


def hits_match(program_hits: int, expected_hits: int, near_ties: int, what: str) -> None:
    """Correct-prediction counts agree up to images whose top two logits nearly tie."""
    if abs(program_hits - expected_hits) > near_ties:
        raise CheckError(f"{what}: {program_hits} correct, recomputed {expected_hits}")


def near_ties(logits: np.ndarray, margin: float = 1e-9) -> np.ndarray:
    top2 = np.sort(logits, axis=-1)[:, -2:]
    return (top2[:, 1] - top2[:, 0]) <= margin


def summaries_equal(a, b, what: str) -> None:
    fields = ("tau", "accuracy", "histogram", "speedup", "expected_macs")
    for field in fields:
        if getattr(a, field) != getattr(b, field):
            raise CheckError(f"{what}: {field} {getattr(a, field)} != {getattr(b, field)}")
