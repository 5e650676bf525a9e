"""The accepted config keys: the fields of the dataclasses the config fills,
read by ``build_run_config``, listed in the README's key table and shown
in ``configs/desk.conf``.  Likewise, the CLI's flags are the README's."""

import argparse
import os
import re
from dataclasses import MISSING, fields, replace

import pytest

from eevit import cli, config
from eevit.cli import main
from eevit.config import ExitSettings, RunConfig, build_run_config, parse_config_file
from eevit.data import DatasetSpec
from eevit.inference import ExitPolicy
from eevit.train import TrainConfig
from eevit.vit import ViTConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")
DESK_CONF = os.path.join(ROOT, "configs", "desk.conf")
SECTIONS = {
    "model": ViTConfig,
    "exits": ExitSettings,
    "train": TrainConfig,
    "data": DatasetSpec,
    "policy": ExitPolicy,
}
# The dataset's geometry comes from the model and is not a key.
FROM_MODEL = {"data.image_side", "data.channels", "data.num_classes"}


def derived_keys() -> set[str]:
    """``section.field`` over the filled dataclasses, plus RunConfig's own scalars as ``run.*``."""
    keys = {f"{section}.{f.name}" for section, cls in SECTIONS.items() for f in fields(cls)}
    keys |= {f"run.{f.name}" for f in fields(RunConfig) if f.default is not MISSING}
    return keys - FROM_MODEL


def readme_keys() -> set[str]:
    with open(README) as fh:
        text = fh.read()
    table = text.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for section, cell in re.findall(r"^\| `(\w+)` \| (.*) \|$", table, flags=re.M):
        cell = re.sub(r"\([^)]*\)", "", cell)  # drop the notes on values
        for quoted in re.findall(r"`([^`]*)`", cell):
            keys |= {f"{section}.{name}" for name in quoted.split()}
    return keys


def test_reader_reads_exactly_the_derived_keys(monkeypatch):
    read = []
    monkeypatch.setattr(config._Reader, "reject_unknown", lambda self: read.append(set(self.used)))
    build_run_config({})
    assert read == [derived_keys()]
    assert len(derived_keys()) == 33


def test_readme_table_lists_the_accepted_keys():
    assert readme_keys() == derived_keys()


COMMON_FLAGS = {"--config", "--set"}


def parser_flags() -> dict[str, set[str]]:
    """Per subcommand of ``cli._parser()``, its long flags but ``--help``."""
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {flag for action in p._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


def readme_flags() -> tuple[str, dict[str, set[str]]]:
    """The README's "Command line" section, and its table: subcommand -> flags named in its row."""
    with open(README) as fh:
        section = fh.read().split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|$", section, flags=re.M)
    return section, {name: set(re.findall(r"`(--[\w-]+)", cell)) for name, cell in rows}


def test_readme_names_every_cli_flag():
    section, table = readme_flags()
    assert all(f"`{flag}" in section for flag in COMMON_FLAGS)
    assert table == {name: flags - COMMON_FLAGS for name, flags in parser_flags().items()}


def test_desk_conf_is_the_defaults_but_its_output_dir():
    entries = parse_config_file(DESK_CONF)
    assert set(entries) <= derived_keys()
    desk = build_run_config(entries)
    default = build_run_config({})
    assert desk.output_dir == "runs/desk"
    assert replace(desk, output_dir=default.output_dir) == default


# Former keys, each at its old default, are unknown like any other key: the
# training recipe is fixed in code (README, "Two-stage training"), the LPH runs
# at the model width, training does not augment its images, and the kernel and
# window schedule bounds are constants (heads.K_MAX, heads.G_MAX).
@pytest.mark.parametrize(
    "item",
    [
        "train.optimizer=adam",
        "train.optimizer_stage2=sgd",
        "train.momentum=0.9",
        "train.weight_decay=0",
        "train.clip_norm=1.0",
        "train.lr_schedule=cosine",
        "run.timestamps=false",
        "exits.expansion=1",
        "data.random_crop=false",
        "data.random_flip=false",
        "exits.k_max=5",
        "exits.g_max=4",
    ],
)
def test_removed_recipe_keys_are_unknown(item, tmp_path, capsys):
    # A small run, so that a key accepted by mistake fails fast instead of training at desk size.
    entries = [item, f"run.output_dir={tmp_path}", "data.per_class=1"]
    entries += ["train.epochs_stage1=1", "train.epochs_stage2=1"]
    assert main(["train", *(arg for entry in entries for arg in ("--set", entry))]) == 1
    err = capsys.readouterr().err
    assert "unknown config keys" in err and item.split("=")[0] in err
    assert os.listdir(tmp_path) == []
