"""Flat key-value run configuration: parsing, validation, system assembly.

Config files hold one ``section.key = value`` per line with ``#``
comments.  Each key is ``section.field`` of the dataclass it fills, and
takes its type and default from that field; lists are comma separated.
The full key table is documented in the README.
"""

from __future__ import annotations

import dataclasses
import typing
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


def _to_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _to_float(value: str, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _to_str_list(value: str, key: str) -> tuple[str, ...] | None:
    """Comma-separated strings; ``auto`` gives None."""
    if value == "auto":
        return None
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _to_int_list(value: str, key: str) -> tuple[int, ...] | None:
    """Comma-separated integers; ``auto`` gives None."""
    parts = _to_str_list(value, key)
    try:
        return None if parts is None else tuple(int(part) for part in parts)
    except ValueError:
        raise ConfigError(
            f"{key}: expected comma-separated integers or 'auto', got {','.join(parts)!r}"
        ) from None


def _to_float_list(value: str, key: str) -> tuple[float, ...]:
    try:
        return tuple(float(part.strip()) for part in value.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated numbers") from None


# The parser of a config value, by the resolved type of the field it fills.
_PARSERS = {
    int: _to_int,
    float: _to_float,
    str: lambda value, key: value,
    tuple[int, ...] | None: _to_int_list,
    tuple[str, ...] | None: _to_str_list,
    tuple[float, ...]: _to_float_list,
}


class _Reader:
    """Typed reads of the entries, remembering every key read."""

    def __init__(self, entries: dict[str, str]):
        self.entries = dict(entries)
        self.used: set[str] = set()

    def fields(self, section: str, cls, skip: tuple[str, ...] = (), **defaults) -> dict:
        """Keyword arguments for dataclass ``cls`` from its ``section.<field>`` keys.

        A value is parsed by the field's type; an absent key gives the
        field's own default, or the one passed in ``defaults``.  Fields
        named in ``skip`` are not keys.
        """
        hints = typing.get_type_hints(cls)
        kwargs = {}
        for field in dataclasses.fields(cls):
            if field.name in skip:
                continue
            key = f"{section}.{field.name}"
            self.used.add(key)
            if key in self.entries:
                kwargs[field.name] = _PARSERS[hints[field.name]](self.entries[key], key)
            else:
                kwargs[field.name] = defaults.get(field.name, field.default)
        return kwargs

    def reject_unknown(self):
        unknown = set(self.entries) - self.used
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")


@dataclass
class ExitSettings:
    positions: tuple[int, ...] | None = (2, 4, 6, 7)  # None: placed from count
    count: int = 4
    kinds: tuple[str, ...] | None = None
    kernels: tuple[int, ...] | None = None
    windows: tuple[int, ...] | None = None


@dataclass
class RunConfig:
    model: ViTConfig
    exits: ExitSettings
    train: TrainConfig
    data: DatasetSpec
    policy: ExitPolicy
    seed: int = 0
    output_dir: str = "runs/default"

    def resolve(self) -> tuple[ExitPlacement, KernelSchedule, WindowSchedule]:
        """Derive the placement and head schedules, validating consistency."""
        ex = self.exits
        positions = ex.positions
        if positions is None:
            positions = place_exits(self.model.layers, ex.count).positions
        if ex.kinds is not None and len(ex.kinds) != len(positions):
            raise ConfigError(f"exits.kinds must align with the {len(positions)} exit positions")
        placement = ExitPlacement.with_default_kinds(self.model.layers, positions, ex.kinds)
        lph = placement.lph_positions()
        gah = placement.gah_positions()
        if ex.kernels is None:
            kernels = KernelSchedule.linear(lph, self.model.layers)
        elif len(ex.kernels) != len(lph):
            raise ConfigError("exits.kernels must align with the conv exits")
        else:
            kernels = KernelSchedule(dict(zip(lph, ex.kernels)))
        if ex.windows is None:
            windows = WindowSchedule.linear(gah, self.model.layers)
        elif len(ex.windows) != len(gah):
            raise ConfigError("exits.windows must align with the attention exits")
        else:
            windows = WindowSchedule(dict(zip(gah, ex.windows)))
        return placement, kernels, windows


# The dataset fields that the model fixes; they are not keys.
_FROM_MODEL = ("image_side", "channels", "num_classes")


def build_run_config(entries: dict[str, str]) -> RunConfig:
    reader = _Reader(entries)
    try:
        scalars = reader.fields("run", RunConfig, skip=("model", "exits", "train", "data", "policy"))
        seed = scalars["seed"]
        model = ViTConfig(**reader.fields("model", ViTConfig))
        exits = ExitSettings(**reader.fields("exits", ExitSettings))
        if "exits.count" in entries and exits.positions is not None:
            if exits.count != len(exits.positions):
                raise ConfigError(
                    f"exits.count = {exits.count} disagrees with the "
                    f"{len(exits.positions)} entries of exits.positions"
                )
        unit = (0.5,) * model.channels
        run = RunConfig(
            model=model,
            exits=exits,
            train=TrainConfig(**reader.fields("train", TrainConfig, seed=seed)),
            data=DatasetSpec(
                **{name: getattr(model, name) for name in _FROM_MODEL},
                **reader.fields("data", DatasetSpec, _FROM_MODEL, seed=seed, mean=unit, std=unit),
            ),
            policy=ExitPolicy(**reader.fields("policy", ExitPolicy)),
            **scalars,
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
    branches = build_exit_branches(run.model, placement, kernels, windows, rng)
    profile = model_macs(run.model, placement, kernels, windows)
    return System(run, model, branches, placement, kernels, windows, profile)
