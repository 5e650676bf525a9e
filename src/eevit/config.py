"""Flat key-value run configuration: parsing, validation, system assembly.

Config files hold one ``section.key = value`` per line with ``#``
comments.  Values are typed per key; lists are comma separated.  The
full key table is documented in the README.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import MacProfile, model_macs
from .data import DatasetSpec
from .heads import (
    ExitBranch,
    ExitPlacement,
    KernelSchedule,
    WindowSchedule,
    build_exit_branches,
    place_exits,
)
from .inference import ExitPolicy
from .train import TrainConfig
from .vit import ViTConfig, ViTModel


class ConfigError(ValueError):
    """The configuration is malformed or internally inconsistent."""


def parse_config_text(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if "." not in key:
            raise ConfigError(f"line {lineno}: key {key!r} must be 'section.key'")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def parse_config_file(path: str) -> dict[str, str]:
    with open(path) as fh:
        return parse_config_text(fh.read())


def apply_overrides(entries: dict[str, str], overrides: list[str]) -> dict[str, str]:
    merged = dict(entries)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must be 'section.key=value'")
        key, value = (part.strip() for part in item.split("=", 1))
        merged[key] = value
    return merged


def _to_bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


class _Reader:
    def __init__(self, entries: dict[str, str]):
        self.entries = dict(entries)
        self.used: set[str] = set()

    def _raw(self, key: str, default):
        self.used.add(key)
        return self.entries.get(key, default)

    def get_int(self, key: str, default: int) -> int:
        value = self._raw(key, default)
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}: expected an integer, got {value!r}") from None

    def get_float(self, key: str, default: float) -> float:
        value = self._raw(key, default)
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}: expected a number, got {value!r}") from None

    def get_str(self, key: str, default: str) -> str:
        return str(self._raw(key, default))

    def get_bool(self, key: str, default: bool) -> bool:
        value = self._raw(key, default)
        return value if isinstance(value, bool) else _to_bool(value, key)

    def get_int_list(self, key: str, default: str) -> tuple[int, ...] | None:
        """Comma-separated integers; ``auto`` gives None."""
        parts = self.get_str_list(key, default)
        try:
            return None if parts is None else tuple(int(part) for part in parts)
        except ValueError:
            raise ConfigError(
                f"{key}: expected comma-separated integers or 'auto', got {','.join(parts)!r}"
            ) from None

    def get_float_list(self, key: str, default):
        value = self._raw(key, default)
        if not isinstance(value, str):
            return default
        try:
            return tuple(float(part.strip()) for part in value.split(",") if part.strip())
        except ValueError:
            raise ConfigError(f"{key}: expected comma-separated numbers") from None

    def get_str_list(self, key: str, default: str) -> tuple[str, ...] | None:
        """Comma-separated strings; ``auto`` gives None."""
        value = self.get_str(key, default)
        if value == "auto":
            return None
        return tuple(part.strip() for part in value.split(",") if part.strip())

    def reject_unknown(self):
        unknown = set(self.entries) - self.used
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")


@dataclass
class ExitSettings:
    positions: tuple[int, ...] | None = None  # None means computed placement
    count: int = 4
    kinds: tuple[str, ...] | None = None
    kernels: tuple[int, ...] | None = None
    windows: tuple[int, ...] | None = None
    k_max: int = 5
    g_max: int = 4
    expansion: int = 1


@dataclass
class RunConfig:
    model: ViTConfig
    exits: ExitSettings
    train: TrainConfig
    data: DatasetSpec
    policy: ExitPolicy
    seed: int = 0
    output_dir: str = "runs/default"
    timestamps: bool = False

    def resolve(self) -> tuple[ExitPlacement, KernelSchedule, WindowSchedule]:
        """Derive the placement and head schedules, validating consistency."""
        ex = self.exits
        positions = ex.positions
        if positions is None:
            positions = place_exits(model_macs(self.model).per_block, ex.count).positions
        overrides = None
        if ex.kinds is not None:
            if len(ex.kinds) != len(positions):
                raise ConfigError(f"exits.kinds must align with the {len(positions)} exit positions")
            overrides = dict(zip(positions, ex.kinds))
        placement = ExitPlacement.with_default_kinds(self.model.layers, positions, overrides)
        lph = placement.lph_positions()
        gah = placement.gah_positions()
        # The linear schedules check k_max and g_max even where an explicit list replaces them.
        kernels = KernelSchedule.linear(lph, self.model.layers, ex.k_max)
        if ex.kernels is not None:
            if len(ex.kernels) != len(lph):
                raise ConfigError("exits.kernels must align with the conv exits")
            kernels = KernelSchedule(dict(zip(lph, ex.kernels)))
        windows = WindowSchedule.linear(gah, self.model.layers, ex.g_max)
        if ex.windows is not None:
            if len(ex.windows) != len(gah):
                raise ConfigError("exits.windows must align with the attention exits")
            windows = WindowSchedule(dict(zip(gah, ex.windows)))
        return placement, kernels, windows


def build_run_config(entries: dict[str, str]) -> RunConfig:
    reader = _Reader(entries)
    try:
        model = ViTConfig(
            image_side=reader.get_int("model.image_side", 32),
            channels=reader.get_int("model.channels", 3),
            patch_side=reader.get_int("model.patch_side", 8),
            layers=reader.get_int("model.layers", 8),
            dim=reader.get_int("model.dim", 64),
            heads=reader.get_int("model.heads", 4),
            mlp_ratio=reader.get_float("model.mlp_ratio", 4.0),
            num_classes=reader.get_int("model.num_classes", 10),
        )
        exits = ExitSettings(
            positions=reader.get_int_list("exits.positions", "2,4,6,7"),
            count=reader.get_int("exits.count", 4),
            kinds=reader.get_str_list("exits.kinds", "auto"),
            kernels=reader.get_int_list("exits.kernels", "auto"),
            windows=reader.get_int_list("exits.windows", "auto"),
            k_max=reader.get_int("exits.k_max", 5),
            g_max=reader.get_int("exits.g_max", 4),
            expansion=reader.get_int("exits.expansion", 1),
        )
        seed = reader.get_int("run.seed", 0)
        train = TrainConfig(
            alpha=reader.get_float("train.alpha", 0.1),
            beta=reader.get_float("train.beta", 0.1),
            gamma=reader.get_float("train.gamma", 0.5),
            temperature=reader.get_float("train.temperature", 4.0),
            lr_stage1=reader.get_float("train.lr_stage1", 1e-3),
            lr_stage2=reader.get_float("train.lr_stage2", 1e-2),
            epochs_stage1=reader.get_int("train.epochs_stage1", 8),
            epochs_stage2=reader.get_int("train.epochs_stage2", 12),
            batch_size=reader.get_int("train.batch_size", 32),
            seed=reader.get_int("train.seed", seed),
            optimizer=reader.get_str("train.optimizer", "adam"),
            optimizer_stage2=reader.get_str("train.optimizer_stage2", "sgd"),
            momentum=reader.get_float("train.momentum", 0.9),
            weight_decay=reader.get_float("train.weight_decay", 0.0),
            clip_norm=reader.get_float("train.clip_norm", 1.0),
            lr_schedule=reader.get_str("train.lr_schedule", "cosine"),
        )
        data = DatasetSpec(
            source=reader.get_str("data.source", "synthetic"),
            path=reader.get_str("data.path", ""),
            image_side=model.image_side,
            channels=model.channels,
            num_classes=model.num_classes,
            per_class=reader.get_int("data.per_class", 100),
            noise=reader.get_float("data.noise", 0.05),
            mean=reader.get_float_list("data.mean", (0.5,) * model.channels),
            std=reader.get_float_list("data.std", (0.5,) * model.channels),
            random_crop=reader.get_bool("data.random_crop", False),
            random_flip=reader.get_bool("data.random_flip", False),
            seed=reader.get_int("data.seed", seed),
        )
        policy = ExitPolicy(tau=reader.get_float("policy.tau", 0.9))
        run = RunConfig(
            model=model,
            exits=exits,
            train=train,
            data=data,
            policy=policy,
            seed=seed,
            output_dir=reader.get_str("run.output_dir", "runs/default"),
            timestamps=reader.get_bool("run.timestamps", False),
        )
        reader.reject_unknown()
        run.resolve()  # fail fast on inconsistent placement settings
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return run


@dataclass
class System:
    """A constructed model, its exit branches, and the static cost profile."""

    run: RunConfig
    model: ViTModel
    branches: list[ExitBranch]
    placement: ExitPlacement
    kernels: KernelSchedule
    windows: WindowSchedule
    profile: MacProfile


def build_system(run: RunConfig) -> System:
    placement, kernels, windows = run.resolve()
    rng = np.random.default_rng(np.random.SeedSequence([run.seed, 0]))
    model = ViTModel(run.model, rng)
    branches = build_exit_branches(
        run.model, placement, kernels, windows, rng, run.exits.expansion
    )
    profile = model_macs(run.model, placement, kernels, windows, run.exits.expansion)
    return System(run, model, branches, placement, kernels, windows, profile)
