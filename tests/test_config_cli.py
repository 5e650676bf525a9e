"""Config parsing, validation, CLI exit codes, and pipeline determinism."""

import os
import re

import numpy as np
import pytest

from eevit import autograd as ag
from eevit.checkpoint import save_checkpoint
from eevit.cli import main
from eevit.config import (
    ConfigError,
    apply_overrides,
    build_run_config,
    build_system,
    parse_config_text,
)
from eevit.train import full_state

TINY_CONF = """
# desk-scale tiny run
model.image_side = 16
model.patch_side = 8
model.layers = 6
model.dim = 16
model.heads = 2
model.mlp_ratio = 2
model.num_classes = 4
exits.positions = 2,3,4,5
data.per_class = 8
train.epochs_stage1 = 2
train.epochs_stage2 = 2
train.batch_size = 16
run.seed = 3
"""


class TestParsing:
    def test_basic_file(self):
        entries = parse_config_text(TINY_CONF)
        assert entries["model.layers"] == "6"
        assert entries["exits.positions"] == "2,3,4,5"

    def test_comments_and_blanks_ignored(self):
        entries = parse_config_text("# comment\n\nmodel.dim = 8  # tail\n")
        assert entries == {"model.dim": "8"}

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("model.dim 8")
        with pytest.raises(ConfigError):
            parse_config_text("dim = 8")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("model.dim = 8\nmodel.dim = 9")

    def test_overrides(self):
        entries = apply_overrides({"model.dim": "8"}, ["model.dim=16", "run.seed=4"])
        assert entries == {"model.dim": "16", "run.seed": "4"}
        with pytest.raises(ConfigError):
            apply_overrides({}, ["model.dim"])


class TestValidation:
    def test_defaults_build(self):
        run = build_run_config({})
        placement, kernels, windows = run.resolve()
        assert placement.positions == (2, 4, 6, 7)
        assert placement.kinds == ("lph", "lph", "gah", "gah")
        assert kernels.kernels == {2: 5, 4: 3}
        assert windows.windows == {6: 3, 7: 4}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config({"model.depth": "12"})

    def test_bad_types_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config({"model.layers": "twelve"})
        with pytest.raises(ConfigError):
            build_run_config({"policy.tau": "much"})

    def test_inconsistent_geometry_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config({"model.image_side": "30"})

    def test_negative_tau_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config({"policy.tau": "-0.5"})

    @pytest.mark.parametrize(
        "item",
        [
            "train.alpha=nan",
            "train.beta=nan",
            "train.beta=inf",
            "train.gamma=nan",
            "train.temperature=nan",
            "train.temperature=inf",
            "train.lr_stage1=nan",
            "train.lr_stage1=-1",
            "train.lr_stage2=inf",
            "train.epochs_stage1=-3",
            "train.epochs_stage2=-1",
            "data.noise=nan",
            "data.noise=-1",
            "data.std=0.5,nan,0.5",
            "data.mean=inf,0.5,0.5",
            "model.mlp_ratio=0",
            "model.mlp_ratio=0.001",
            "model.mlp_ratio=nan",
            "model.mlp_ratio=-1",
            "model.mlp_ratio=inf",
            "data.per_class=0",
        ],
    )
    def test_nan_or_out_of_range_number_fails_before_training(self, item, tmp_path, capsys):
        entries = [f"run.output_dir={tmp_path}", "data.per_class=1", item]
        assert main(["train", *(arg for entry in entries for arg in ("--set", entry))]) == 1
        err = capsys.readouterr().err
        assert "validation error" in err and item.split("=")[0].split(".")[1] in err
        assert os.listdir(tmp_path) == []

    def test_train_hyperparameter_bounds(self):
        with pytest.raises(ConfigError):
            build_run_config({"train.gamma": "1.5"})
        with pytest.raises(ConfigError):
            build_run_config({"train.temperature": "0"})
        with pytest.raises(ConfigError):
            build_run_config({"train.alpha": "-0.1"})

    def test_auto_placement(self):
        run = build_run_config({"exits.positions": "auto", "exits.count": "3"})
        placement, _, _ = run.resolve()
        assert len(placement.positions) == 3
        assert placement.positions[-1] < 8

    def test_kinds_apply_to_auto_placement(self):
        run = build_run_config({"exits.positions": "auto", "exits.kinds": "mlp,mlp,mlp,mlp"})
        placement, _, _ = run.resolve()
        assert placement.positions == (1, 2, 4, 6)
        assert placement.kinds == ("mlp",) * 4

    @pytest.mark.parametrize("kinds", ["mlp", "lph,lph,gah,gah,gah"])
    def test_kinds_misaligned_with_auto_placement_rejected(self, kinds):
        with pytest.raises(ConfigError, match="exits.kinds"):
            build_run_config({"exits.positions": "auto", "exits.kinds": kinds})

    def test_explicit_schedules(self):
        run = build_run_config({"exits.kernels": "5,5", "exits.windows": "2,2"})
        _, kernels, windows = run.resolve()
        assert kernels.kernels == {2: 5, 4: 5}
        assert windows.windows == {6: 2, 7: 2}

    def test_misaligned_schedules_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config({"exits.kernels": "5"}).resolve()

    def test_bad_exit_list_names_its_key(self):
        with pytest.raises(ConfigError, match="exits.kernels"):
            build_run_config({"exits.kernels": "5,x"})

    @pytest.mark.parametrize("count", ["3", "5"])
    def test_count_disagreeing_with_explicit_positions_rejected(self, count):
        with pytest.raises(ConfigError, match=f"exits.count = {count} disagrees with the 4 entries"):
            build_run_config({"exits.count": count})


class TestCli:
    def _conf(self, tmp_path, extra=""):
        path = tmp_path / "tiny.conf"
        path.write_text(TINY_CONF + f"run.output_dir = {tmp_path}/out\n" + extra)
        return str(path)

    def test_macs_succeeds(self, tmp_path, capsys):
        assert main(["macs", "--config", self._conf(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "backbone_macs" in out and "total_gmacs" in out

    def test_macs_vit_b16_figure(self, capsys):
        code = main([
            "macs",
            "--set", "model.image_side=224", "--set", "model.patch_side=16",
            "--set", "model.layers=12", "--set", "model.dim=768",
            "--set", "model.heads=12", "--set", "model.num_classes=100",
            "--set", "exits.positions=auto",
        ])
        assert code == 0
        out = capsys.readouterr().out
        total = float(out.split("total_gmacs = ")[1].split()[0])
        assert abs(total - 16.93) / 16.93 < 0.05
        # Equal depth: segments 2,2,2,3,3 put the four default exits at 2, 4, 6, 9.
        layers = {int(n) for n in re.findall(r"^path_macs_layer_(\d+) ", out, flags=re.M)}
        assert layers == {2, 4, 6, 9, 12}

    def test_macs_builds_no_weights(self, tmp_path, capsys, monkeypatch):
        def no_weights(run):
            raise AssertionError("macs must not build the model")

        monkeypatch.setattr("eevit.cli.build_system", no_weights)
        assert main(["macs", "--config", self._conf(tmp_path), "--set", "exits.positions=auto"]) == 0
        assert "total_gmacs" in capsys.readouterr().out

    def test_macs_misaligned_auto_kinds_validation_exit_code(self, tmp_path):
        args = ["--set", "exits.positions=auto", "--set", "exits.kinds=mlp"]
        assert main(["macs", "--config", self._conf(tmp_path), *args]) == 1

    def test_invalid_tau_validation_exit_code(self, tmp_path):
        conf = self._conf(tmp_path)
        assert main(["eval", "--config", conf, "--checkpoint", "x.ckpt", "--tau", "-1"]) == 1

    def test_nan_tau_sweep_validation_exit_code(self, tmp_path):
        conf = self._conf(tmp_path)
        assert main(["sweep", "--config", conf, "--checkpoint", "x.ckpt", "--taus", "nan"]) == 1

    def test_unknown_key_validation_exit_code(self, tmp_path):
        assert main(["macs", "--set", "model.banana=1"]) == 1

    @pytest.mark.parametrize("stage", ["all", "2"])
    def test_empty_raw_file_is_validation_error(self, tmp_path, capsys, stage):
        raw = tmp_path / "empty.bin"
        raw.write_bytes(b"")
        args = ["--stage", stage, "--set", "data.source=raw", "--set", f"data.path={raw}"]
        assert main(["train", "--config", self._conf(tmp_path), *args]) == 1
        assert "empty.bin" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("metrics_*"))

    def test_missing_checkpoint_is_runtime_error(self, tmp_path):
        conf = self._conf(tmp_path)
        assert main(["eval", "--config", conf, "--checkpoint", "/no/such.ckpt", "--tau", "0.5"]) == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["sweep", "--taus", ","], "--taus names no threshold: ','"),
            (["analyze", "--probe", "1"], "--probe must be at least 2, got 1"),
        ],
        ids=["sweep-taus-empty", "analyze-probe-1"],
    )
    def test_bad_argument_fails_before_the_checkpoint_is_read(self, tmp_path, capsys, args, message):
        conf = self._conf(tmp_path)
        command, *rest = args
        assert main([command, "--config", conf, "--checkpoint", "/no/such.ckpt", *rest]) == 1
        err = capsys.readouterr().err
        assert f"validation error: {message}" in err and "FileNotFoundError" not in err

    def test_checkpoint_without_branches_is_runtime_error(self, tmp_path, capsys):
        conf = self._conf(tmp_path)
        system = build_system(build_run_config(parse_config_text(TINY_CONF)))
        ckpt = str(tmp_path / "backbone_only.ckpt")
        save_checkpoint(ckpt, full_state(system.model))
        assert main(["eval", "--config", conf, "--checkpoint", ckpt, "--tau", "0.9"]) == 2
        assert "missing parameter" in capsys.readouterr().err

    def test_checkpoint_with_extra_entry_is_runtime_error(self, tmp_path, capsys):
        conf = self._conf(tmp_path)
        system = build_system(build_run_config(parse_config_text(TINY_CONF)))
        ckpt = str(tmp_path / "extra.ckpt")
        state = full_state(system.model, system.branches)
        save_checkpoint(ckpt, {**state, "model.extra": np.zeros(1)})
        assert main(["eval", "--config", conf, "--checkpoint", ckpt, "--tau", "0.9"]) == 2
        assert "unexpected entry 'model.extra'" in capsys.readouterr().err

    def test_checkpoint_of_another_geometry_is_runtime_error(self, tmp_path, capsys):
        conf = self._conf(tmp_path)
        entries = parse_config_text(TINY_CONF)
        entries["model.dim"] = "32"
        system = build_system(build_run_config(entries))
        ckpt = str(tmp_path / "dim32.ckpt")
        save_checkpoint(ckpt, full_state(system.model, system.branches))
        assert main(["eval", "--config", conf, "--checkpoint", ckpt, "--tau", "0.9"]) == 2
        assert (
            "model: shape mismatch for 'patch_embed.cls_token': checkpoint (32,), system (16,)"
            in capsys.readouterr().err
        )

    def test_non_finite_gradient_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        conf = self._conf(tmp_path)
        backward = ag.backward

        def poisoned(loss):
            backward(loss)
            tensors = ag.Tape.trace(loss).tensors
            leaf = next(p for t in tensors for p in t.node.inputs if p.grad is not None)
            leaf.grad = np.full_like(leaf.grad, np.nan)

        monkeypatch.setattr(ag, "backward", poisoned)
        assert main(["train", "--config", conf, "--stage", "1"]) == 2
        assert "NonFiniteGradientError: stage 1 epoch 1 batch 1: gradient of" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out" / "stage1_final.ckpt")

    def test_stage2_starts_from_a_checkpoint_holding_branches(self, tmp_path):
        conf = self._conf(tmp_path)
        system = build_system(build_run_config(parse_config_text(TINY_CONF)))
        ckpt = str(tmp_path / "with_branches.ckpt")
        save_checkpoint(ckpt, full_state(system.model, system.branches))
        assert main(["train", "--config", conf, "--stage", "2", "--checkpoint", ckpt]) == 0
        assert os.path.exists(tmp_path / "out" / "stage2_final.ckpt")

    def _analyze(self, tmp_path, *args) -> int:
        """``eevit analyze`` of a fresh tiny system, writing to ``tmp_path/analysis``."""
        conf = self._conf(tmp_path)
        system = build_system(build_run_config(parse_config_text(TINY_CONF)))
        ckpt = str(tmp_path / "init.ckpt")
        save_checkpoint(ckpt, full_state(system.model, system.branches))
        out = str(tmp_path / "analysis")
        return main([
            "analyze", "--config", conf, "--checkpoint", ckpt, "--set", f"run.output_dir={out}", *args
        ])

    def test_analyze_attention_layer_zero_is_validation_error(self, tmp_path, capsys):
        assert self._analyze(tmp_path, "--probe", "4", "--attn-layer", "0") == 1
        assert "layer 0 out of range 1..6" in capsys.readouterr().err
        assert os.listdir(tmp_path / "analysis") == []  # not even the CKA heatmap

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--attn-sample", "-1", "--attn-sample -1 out of range 0..31"),
            ("--attn-sample", "32", "--attn-sample 32 out of range 0..31"),
            ("--attn-sample", "100000", "--attn-sample 100000 out of range 0..31"),
            ("--probe", "1", "--probe must be at least 2"),
            ("--probe", "-4", "--probe must be at least 2"),
        ],
        ids=["attn-sample=-1", "attn-sample=32", "attn-sample=100000", "probe=1", "probe=-4"],
    )
    def test_analyze_sample_or_probe_out_of_range_is_validation_error(
        self, tmp_path, capsys, option, value, message
    ):
        assert self._analyze(tmp_path, option, value) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "analysis").exists()  # rejected before any CSV is written

    def test_gen_data_and_raw_eval_round_trip(self, tmp_path, capsys):
        conf = self._conf(tmp_path)
        raw = str(tmp_path / "synth.bin")
        assert main(["gen-data", "--config", conf, "--out", raw]) == 0
        assert os.path.getsize(raw) == 8 * 4 * (1 + 3 * 16 * 16)
        system = build_system(build_run_config(parse_config_text(TINY_CONF)))
        ckpt = str(tmp_path / "init.ckpt")
        save_checkpoint(ckpt, full_state(system.model, system.branches))
        raw_data = ["--set", "data.source=raw", "--set", f"data.path={raw}"]
        assert main(["eval", "--config", conf, "--checkpoint", ckpt, "--tau", "0.9", *raw_data]) == 0
        assert (tmp_path / "out" / "eval.txt").exists()

    def test_staged_training_resumes_from_checkpoint(self, tmp_path):
        conf = self._conf(tmp_path)
        assert main(["train", "--config", conf, "--stage", "1"]) == 0
        assert os.path.exists(tmp_path / "out" / "stage1_final.ckpt")
        assert main(["train", "--config", conf, "--stage", "2"]) == 0
        ckpt = str(tmp_path / "out" / "stage2_final.ckpt")
        assert main(["eval", "--config", conf, "--checkpoint", ckpt, "--tau", "0.9"]) == 0

    def test_full_cli_pipeline(self, tmp_path, capsys):
        conf = self._conf(tmp_path)
        assert main(["train", "--config", conf, "--stage", "all"]) == 0
        ckpt = str(tmp_path / "out" / "stage2_final.ckpt")
        assert os.path.exists(ckpt)
        assert main(["eval", "--config", conf, "--checkpoint", ckpt, "--tau", "0.9"]) == 0
        assert main([
            "sweep", "--config", conf, "--checkpoint", ckpt, "--taus", "0,0.5,1.01",
        ]) == 0
        csv_text = (tmp_path / "out" / "sweep.csv").read_text()
        assert csv_text.startswith("tau,accuracy,speedup,expected_macs")
        assert len(csv_text.strip().split("\n")) == 4
        assert main([
            "analyze", "--config", conf, "--checkpoint", ckpt,
            "--set", f"run.output_dir={tmp_path / 'analysis'}", "--probe", "16",
        ]) == 0
        assert (tmp_path / "analysis" / "cka_self.csv").exists()
        assert (tmp_path / "analysis" / "attention_layer6.csv").exists()


class TestPipelineDeterminism:
    def test_fixed_seed_reruns_produce_identical_metrics(self, tmp_path):
        from eevit.data import build_dataset
        from eevit.metrics import MetricsWriter
        from eevit.train import stage1_train, stage2_train

        streams = []
        for attempt in range(2):
            out = tmp_path / f"run{attempt}"
            out.mkdir()
            run = build_run_config(parse_config_text(TINY_CONF))
            system = build_system(run)
            dataset = build_dataset(run.data)
            w1 = MetricsWriter(str(out / "m1.txt"))
            stage1_train(system.model, dataset, run.train, str(out), w1)
            w2 = MetricsWriter(str(out / "m2.txt"))
            stage2_train(system.model, system.branches, dataset, run.train,
                         system.placement, str(out), w2)
            streams.append(
                (out / "m1.txt").read_bytes()
                + (out / "m2.txt").read_bytes()
                + (out / "stage2_final.ckpt").read_bytes()
            )
        assert streams[0] == streams[1]
