"""The accepted config keys: the fields of the dataclasses the config fills,
read by ``build_run_config`` and listed in the README's key table."""

import os
import re
from dataclasses import MISSING, fields

from eevit import config
from eevit.config import ExitSettings, RunConfig, build_run_config
from eevit.data import DatasetSpec
from eevit.inference import ExitPolicy
from eevit.train import TrainConfig
from eevit.vit import ViTConfig

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
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
    assert len(derived_keys()) == 45


def test_readme_table_lists_the_accepted_keys():
    assert readme_keys() == derived_keys()
