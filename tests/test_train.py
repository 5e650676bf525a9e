"""Two-stage training behavior: freezing, convergence, checkpointing."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

import eevit.distill as distill_mod
import eevit.train as train_mod

from eevit import autograd as ag

from eevit.checkpoint import load_checkpoint
from eevit.config import build_run_config, build_system
from eevit.data import build_dataset
from eevit.distill import heterogeneous_ordinals
from eevit.inference import cascade
from eevit.losses import cross_entropy
from eevit.metrics import MetricsWriter
from eevit.layers import Parameter
from eevit.train import (
    NonFiniteGradientError,
    NonFiniteLossError,
    StateShapeError,
    UnfrozenBackboneError,
    clip_gradients,
    collect_taps,
    exit_accuracies,
    full_state,
    load_full_state,
    stage1_train,
    stage2_train,
    teacher_targets,
)
from eevit.vit import EncoderOutput

from conftest import FD_TOL, sampled_grad_check

def small_run(per_class=10, epochs1=3, epochs2=3, seed=0, extra=None):
    entries = {
        "model.image_side": "16",
        "model.patch_side": "8",
        "model.layers": "6",
        "model.dim": "16",
        "model.heads": "2",
        "model.num_classes": "4",
        "model.mlp_ratio": "2",
        "exits.positions": "2,3,4,5",
        "data.per_class": str(per_class),
        "train.epochs_stage1": str(epochs1),
        "train.epochs_stage2": str(epochs2),
        "train.batch_size": "16",
        "run.seed": str(seed),
    }
    if extra:
        entries.update(extra)
    run = build_run_config(entries)
    system = build_system(run)
    dataset = build_dataset(run.data)
    return run, system, dataset


class TestStage1:
    def test_zero_lr_leaves_parameters_unchanged(self):
        run, system, dataset = small_run(epochs1=1)
        cfg = dataclasses.replace(run.train, lr_stage1=0.0)
        before = {k: v.copy() for k, v in system.model.state_dict().items()}
        stage1_train(system.model, dataset, cfg)
        after = system.model.state_dict()
        for key, value in before.items():
            np.testing.assert_array_equal(value, after[key])

    def test_loss_strictly_decreases_over_first_epochs(self):
        run, system, dataset = small_run(per_class=15, epochs1=5)
        history = stage1_train(system.model, dataset, run.train)
        losses = [r["loss_ce"] for r in history]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_exit_branches_untouched(self):
        run, system, dataset = small_run(epochs1=2)
        before = [
            {k: v.copy() for k, v in branch.state_dict().items()}
            for branch in system.branches
        ]
        stage1_train(system.model, dataset, run.train)
        for branch, snap in zip(system.branches, before):
            for key, value in branch.state_dict().items():
                np.testing.assert_array_equal(value, snap[key])

    def test_checkpoint_written_per_epoch(self, tmp_path):
        run, system, dataset = small_run(epochs1=2)
        stage1_train(system.model, dataset, run.train, out_dir=str(tmp_path))
        assert (tmp_path / "stage1_epoch_001.ckpt").exists()
        assert (tmp_path / "stage1_epoch_002.ckpt").exists()
        state = load_checkpoint(str(tmp_path / "stage1_final.ckpt"))
        for key, value in system.model.state_dict().items():
            np.testing.assert_array_equal(state[f"model.{key}"], value)


class TestCollectTaps:
    def test_taps_match_direct_forward(self, rng):
        run, system, dataset = small_run()
        from eevit.autograd import Tensor

        images = Tensor(dataset.images[:3])
        taps, final = collect_taps(system.model, images, system.placement.positions)
        for position, state in taps.items():
            direct = system.model.forward_to_layer(images, position)
            np.testing.assert_array_equal(state.tokens.data, direct.tokens.data)
        assert final.layer_index == run.model.layers


class TestStage2:
    def test_backbone_bitwise_frozen(self):
        run, system, dataset = small_run(epochs2=2)
        stage1_train(system.model, dataset, run.train)
        before = {k: v.copy() for k, v in system.model.state_dict().items()}
        stage2_train(system.model, system.branches, dataset, run.train, system.placement)
        for key, value in system.model.state_dict().items():
            np.testing.assert_array_equal(value, before[key])

    def test_tampering_detected(self):
        run, system, dataset = small_run(epochs2=1)

        class Saboteur(list):
            pass

        branches = system.branches
        # change a backbone parameter behind the trainer's back; the bitwise
        # check after stage 2 must still catch it
        stage1_train(system.model, dataset, run.train)
        param = next(p for _, p in system.model.named_parameters())

        import eevit.train as train_mod

        original = train_mod._epoch_pass

        def tampering_pass(*args, **kwargs):
            record = original(*args, **kwargs)
            param.data = param.data + 1.0
            return record

        train_mod._epoch_pass = tampering_pass
        try:
            with pytest.raises(UnfrozenBackboneError):
                stage2_train(system.model, branches, dataset, run.train, system.placement)
        finally:
            train_mod._epoch_pass = original

    def test_history_starts_with_baseline_epoch(self):
        run, system, dataset = small_run(epochs2=2)
        stage1_train(system.model, dataset, run.train)
        history = stage2_train(system.model, system.branches, dataset, run.train, system.placement)
        assert len(history) == run.train.epochs_stage2 + 1
        assert history[0]["objective"] > 0

    def test_exit_accuracies_above_chance_on_easy_data(self):
        run, system, dataset = small_run(per_class=15, epochs1=4, epochs2=4)
        stage1_train(system.model, dataset, run.train)
        stage2_train(system.model, system.branches, dataset, run.train, system.placement)
        accs = exit_accuracies(system.model, system.branches, dataset, system.placement)
        assert all(a > 1.0 / run.model.num_classes for a in accs)

    def test_exit_accuracies_do_not_depend_on_the_chunk(self):
        run, system, dataset = small_run(per_class=18)  # 72 images: 5 leaves a chunk of 2
        args = (system.model, system.branches, dataset, system.placement)
        assert exit_accuracies(*args, batch_size=5) == exit_accuracies(*args)

    def test_teacher_targets_are_each_exits_pre_pool_token_count(self):
        system = build_system(build_run_config({}))
        assert teacher_targets(system.model, system.branches) == {1: 16, 2: 16, 3: 4, 4: 1}
        for kinds in ("mlp,mlp,mlp,mlp", "gah,gah,lph,lph"):
            other = build_system(build_run_config({"exits.kinds": kinds}))
            assert teacher_targets(other.model, other.branches) == {}

    @pytest.mark.parametrize("epochs2", [1, 3])
    def test_frozen_backbone_runs_once_per_chunk_without_augmentation(self, monkeypatch, epochs2):
        run, system, dataset = small_run(epochs2=epochs2)
        calls = _count_collect_taps(monkeypatch)
        stage2_train(system.model, system.branches, dataset, run.train, system.placement)
        assert calls == [math.ceil(len(dataset) / run.train.batch_size)]

    @pytest.mark.parametrize("epochs2", [1, 3])
    def test_teachers_aligned_once_per_chunk_without_augmentation(self, monkeypatch, epochs2):
        run, system, dataset = small_run(epochs2=epochs2)
        calls = _count_align_calls(monkeypatch)
        stage2_train(system.model, system.branches, dataset, run.train, system.placement)
        ordinals = len(heterogeneous_ordinals(system.placement.count))
        assert calls == [ordinals * math.ceil(len(dataset) / run.train.batch_size)]

    def test_table_rows_match_a_recomputed_permuted_batch(self, rng):
        run, system, dataset = small_run(per_class=12)
        cfg, placement = run.train, system.placement
        targets = teacher_targets(system.model, system.branches)
        for branch in system.branches:
            branch.eval()
        table = train_mod._frozen_table(
            system.model, dataset.images, cfg.batch_size, placement.positions, targets
        )
        idx = rng.permutation(len(dataset))[: cfg.batch_size]
        recomputed = train_mod._frozen_table(
            system.model, dataset.images[idx], len(idx), placement.positions, targets
        )
        rows = table.rows(idx)
        assert rows.teachers.keys() == recomputed.teachers.keys() == targets.keys()
        for m, teacher in recomputed.teachers.items():
            np.testing.assert_array_equal(rows.teachers[m], teacher)
        _, from_table, _ = train_mod.stage2_batch_losses(
            system.branches, rows, dataset.labels[idx], cfg
        )
        _, from_images, _ = train_mod.stage2_batch_losses(
            system.branches, recomputed, dataset.labels[idx], cfg
        )
        assert from_table.keys() == from_images.keys()
        for key, value in from_images.items():
            assert from_table[key] == pytest.approx(value, rel=1e-12), key

    def test_mlp_placement_trains_with_plain_cross_entropy(self):
        run, system, dataset = small_run(
            per_class=15, epochs1=4, epochs2=6, extra={"exits.kinds": "mlp,mlp,mlp,mlp"}
        )
        stage1_train(system.model, dataset, run.train)
        with pytest.warns(UserWarning, match="without the distillation terms"):
            history = stage2_train(
                system.model, system.branches, dataset, run.train, system.placement
            )
        assert "loss_total" not in history[-1]
        assert history[-1]["loss_ce_exits"] < history[0]["loss_ce_exits"]


class TestDistillationNotice:
    def test_warns_once_when_placement_is_not_lgvit(self):
        run, system, dataset = small_run(
            per_class=2, epochs2=1, extra={"exits.kinds": "mlp,mlp,mlp,mlp"}
        )
        with pytest.warns(UserWarning, match="mlp,mlp,mlp,mlp.*without the distillation") as seen:
            stage2_train(system.model, system.branches, dataset, run.train, system.placement)
        assert sum("distillation terms" in str(w.message) for w in seen) == 1

    def test_silent_on_lgvit_placement(self):
        run, system, dataset = small_run(
            per_class=2, epochs2=1, extra={"exits.kinds": "lph,lph,gah,gah"}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stage2_train(system.model, system.branches, dataset, run.train, system.placement)


def test_stage1_batch_tape_size_on_desk():
    """One desk stage-1 batch of 32 traces 59 tape nodes: six per encoder block.

    It traced 203 while attention was seventeen ops and the MLP three: a
    change that splits either node again fails here.
    """
    run = build_run_config({"data.per_class": "4"})
    system = build_system(run)
    dataset = build_dataset(run.data)
    system.model.train()
    logits = system.model.forward(ag.Tensor(dataset.images[:32]))
    loss = cross_entropy(logits, dataset.labels[:32])
    assert len(ag.Tape.trace(loss).tensors) == 59


def test_stage2_batch_tape_size_on_desk_placement():
    """One stage-2 batch on the desk placement traces at most 129 tape nodes.

    It traced 211 while BatchNorm was nine ops and the depthwise conv's bias
    a separate add, and 161 while the GAHs' attention was seventeen ops: a
    change that splits any of these again fails here.
    """
    run = build_run_config({"data.per_class": "1"})
    system = build_system(run)
    dataset = build_dataset(run.data)
    targets = teacher_targets(system.model, system.branches)
    frozen = train_mod._frozen_table(
        system.model, dataset.images[:8], 8, system.placement.positions, targets
    )
    for branch in system.branches:
        branch.train()
    objective, _, _ = train_mod.stage2_batch_losses(
        system.branches, frozen, dataset.labels[:8], run.train
    )
    assert len(ag.Tape.trace(objective).tensors) <= 129


def test_stage2_baseline_pass_records_no_graph(monkeypatch):
    """Epoch 0 only measures, so its objectives carry no graph; the training epochs' do."""
    run, system, dataset = small_run(per_class=2, epochs2=1)
    objectives = []
    original = train_mod.stage2_batch_losses

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        objectives.append(result[0])
        return result

    monkeypatch.setattr(train_mod, "stage2_batch_losses", recording)
    stage2_train(system.model, system.branches, dataset, run.train, system.placement)
    batches = math.ceil(len(dataset) / run.train.batch_size)
    assert len(objectives) == 2 * batches
    assert all(o.node is None for o in objectives[:batches])
    assert all(o.node is not None for o in objectives[batches:])


def test_stage2_trains_its_branches_in_train_mode(monkeypatch):
    """Branches that inference left in eval mode train in train mode, in every batch of every epoch."""
    run, system, dataset = small_run(per_class=2, epochs2=2)
    cascade(system.model, system.branches, dataset.images[:2], math.inf)
    assert not any(branch.training for branch in system.branches)
    modes = []
    original = train_mod.stage2_batch_losses

    def recording(branches, *args, **kwargs):
        modes.extend(branch.training for branch in branches)
        return original(branches, *args, **kwargs)

    monkeypatch.setattr(train_mod, "stage2_batch_losses", recording)
    stage2_train(system.model, system.branches, dataset, run.train, system.placement)
    batches = math.ceil(len(dataset) / run.train.batch_size)
    assert len(modes) == (run.train.epochs_stage2 + 1) * batches * len(system.branches)
    assert all(modes)


def test_zero_distillation_weights_keep_the_doubled_prediction_terms():
    """At alpha = beta = gamma = 0, LGViT's objective is not cross entropy alone.

    The prediction term is still CE(exit count/2) + CE(exit count), so
    those two exits get cross entropy twice; any other placement trains
    each exit on it once.
    """
    run = build_run_config(
        {"data.per_class": "1", "train.alpha": "0", "train.beta": "0", "train.gamma": "0"}
    )
    system = build_system(run)
    dataset = build_dataset(run.data)
    for branch in system.branches:
        branch.eval()
    labels = dataset.labels[:8]
    targets = teacher_targets(system.model, system.branches)
    frozen = train_mod._frozen_table(
        system.model, dataset.images[:8], 8, system.placement.positions, targets
    )
    objective, scalars, _ = train_mod.stage2_batch_losses(system.branches, frozen, labels, run.train)
    ce = []
    for branch in system.branches:
        tap = EncoderOutput(ag.Tensor(frozen.taps[branch.position]), branch.position)
        ce.append(cross_entropy(branch(tap)[0], labels).item())
    doubled = ce[len(ce) // 2 - 1] + ce[-1]
    assert scalars["loss_ce_exits"] == pytest.approx(sum(ce), rel=1e-12)
    assert scalars["loss_pred"] == pytest.approx(doubled, rel=1e-12)
    assert objective.item() == pytest.approx(sum(ce) + doubled, rel=1e-12)


def _count_collect_taps(monkeypatch) -> list[int]:
    """Count calls to ``collect_taps`` made through ``eevit.train``."""
    calls = [0]
    original = train_mod.collect_taps

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(train_mod, "collect_taps", counted)
    return calls


def _count_align_calls(monkeypatch) -> list[int]:
    """Count ``align_teacher`` calls made through ``eevit.distill``."""
    calls = [0]
    original = distill_mod.align_teacher

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(distill_mod, "align_teacher", counted)
    return calls


class TestNonFiniteLoss:
    def _with_nan_image(self, dataset, sample):
        images = dataset.images.copy()
        images[sample, 0, 0, 0] = np.nan
        return dataclasses.replace(dataset, images=images)

    def test_stage1_names_epoch_and_batch(self):
        run, system, dataset = small_run(epochs1=2)
        sample = 7
        dataset = self._with_nan_image(dataset, sample)
        rng = np.random.default_rng(np.random.SeedSequence([run.train.seed, 1, 1]))
        order = rng.permutation(len(dataset))
        batch = int(np.flatnonzero(order == sample)[0]) // run.train.batch_size + 1
        message = f"stage 1 epoch 1 batch {batch}: loss is nan"
        with pytest.raises(NonFiniteLossError, match=message) as info:
            stage1_train(system.model, dataset, run.train)
        assert (info.value.stage, info.value.epoch, info.value.batch) == (1, 1, batch)

    def test_stage2_raises_in_the_baseline_pass(self):
        run, system, dataset = small_run()
        dataset = self._with_nan_image(dataset, 0)
        with pytest.raises(NonFiniteLossError, match="stage 2 epoch 0 batch") as info:
            stage2_train(system.model, system.branches, dataset, run.train, system.placement)
        assert info.value.stage == 2 and info.value.epoch == 0


class TestNonFiniteGradient:
    @staticmethod
    def _params(grads):
        params = []
        for name, grad in grads.items():
            p = Parameter(np.ones(3))
            p.name, p.grad = name, np.asarray(grad, dtype=np.float64)
            params.append(p)
        return params

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_names_the_first_parameter_in_order(self, bad):
        params = self._params({"a": [1.0, 2.0, 3.0], "b": [0.0, bad, 0.0], "c": [np.nan] * 3})
        with pytest.raises(NonFiniteGradientError, match="gradient of 'b' is not finite") as info:
            clip_gradients(params, 1.0)
        assert info.value.parameter == "b"
        np.testing.assert_array_equal(params[0].grad, [1.0, 2.0, 3.0])

    def test_overflowed_norm_of_finite_gradients(self):
        params = self._params({"a": [1e200, 0.0, 0.0]})
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteGradientError, match="overflowed") as info:
                clip_gradients(params, 1.0)
        assert info.value.parameter is None

    @staticmethod
    def _poison(monkeypatch, target, call: int):
        """Make ``target``'s gradient NaN after the ``call``-th backward pass."""
        backward, calls = ag.backward, [0]

        def poisoned(loss):
            backward(loss)
            calls[0] += 1
            if calls[0] == call:
                target.grad = np.full_like(target.data, np.nan)

        monkeypatch.setattr(ag, "backward", poisoned)

    # 40 images in batches of 16: three batches per epoch, so the fifth
    # backward pass is epoch 2 batch 2 (stage 2's epoch 0 runs none).
    def test_stage1_names_the_stage_epoch_and_batch(self, monkeypatch):
        run, system, dataset = small_run()
        target = dict(system.model.named_parameters())["block1.fc1.weight"]
        self._poison(monkeypatch, target, 5)
        message = "^stage 1 epoch 2 batch 2: gradient of 'block1.fc1.weight' is not finite"
        with pytest.raises(NonFiniteGradientError, match=message) as info:
            stage1_train(system.model, dataset, run.train)
        assert (info.value.stage, info.value.epoch, info.value.batch) == (1, 2, 2)
        assert info.value.parameter == "block1.fc1.weight"

    def test_stage2_names_the_stage_epoch_and_batch(self, monkeypatch):
        run, system, dataset = small_run()
        name, target = next(iter(system.branches[1].named_parameters("branch1.")))
        self._poison(monkeypatch, target, 5)
        message = f"^stage 2 epoch 2 batch 2: gradient of '{re.escape(name)}' is not finite"
        with pytest.raises(NonFiniteGradientError, match=message) as info:
            stage2_train(system.model, system.branches, dataset, run.train, system.placement)
        assert (info.value.stage, info.value.epoch, info.value.batch) == (2, 2, 2)

    def test_stage2_names_the_branch_and_leaves_weights_finite(self, monkeypatch):
        run, system, dataset = small_run(epochs2=1)
        named = dict(system.branches[1].named_parameters("branch1."))
        name, target = next(iter(named.items()))
        backward = ag.backward

        def poisoned(loss):
            backward(loss)
            target.grad = np.full_like(target.grad, np.nan)

        monkeypatch.setattr(ag, "backward", poisoned)
        with pytest.raises(NonFiniteGradientError) as info:
            stage2_train(system.model, system.branches, dataset, run.train, system.placement)
        assert info.value.parameter == name
        assert np.isfinite(target.data).all()


def test_metric_streams_hold_plain_numbers(tmp_path):
    run, system, dataset = small_run(epochs1=1, epochs2=1)
    paths = [tmp_path / "stage1.txt", tmp_path / "stage2.txt"]
    stage1_train(system.model, dataset, run.train, writer=MetricsWriter(str(paths[0])))
    stage2_train(
        system.model, system.branches, dataset, run.train, system.placement,
        writer=MetricsWriter(str(paths[1])),
    )
    for path in paths:
        lines = path.read_text().splitlines()
        assert lines
        for line in lines:
            fields = dict(field.split("=", 1) for field in line.split())
            for key, value in fields.items():
                if key not in ("run", "phase"):
                    float(value)


class TestFullStateRoundTrip:
    def test_model_and_branches(self, tmp_path):
        run, system, dataset = small_run()
        state = full_state(system.model, system.branches)
        run2, system2, _ = small_run(seed=1)
        load_full_state(state, system2.model, system2.branches)
        for key, value in full_state(system2.model, system2.branches).items():
            np.testing.assert_array_equal(value, state[key])

    @pytest.mark.parametrize("extra", ["model.extra", "branch9.bogus"])
    def test_unconsumed_entry_is_named(self, extra):
        run, system, dataset = small_run()
        state = full_state(system.model, system.branches)
        state[extra] = np.zeros(1)
        run2, system2, _ = small_run(seed=1)
        before = full_state(system2.model, system2.branches)
        with pytest.raises(KeyError, match=f"unexpected entry '{extra}'"):
            load_full_state(state, system2.model, system2.branches)
        for key, value in full_state(system2.model, system2.branches).items():
            np.testing.assert_array_equal(value, before[key])

    def test_shape_mismatch_is_named_and_loads_nothing(self):
        run, system, dataset = small_run(extra={"model.dim": "32"})
        state = full_state(system.model, system.branches)
        run2, system2, _ = small_run(seed=1)
        before = full_state(system2.model, system2.branches)
        message = re.escape(
            "model: shape mismatch for 'patch_embed.cls_token': checkpoint (32,), system (16,)"
        )
        with pytest.raises(StateShapeError, match=message):
            load_full_state(state, system2.model, system2.branches)
        for key, value in full_state(system2.model, system2.branches).items():
            np.testing.assert_array_equal(value, before[key])

    def test_buffer_shape_mismatch_is_named(self):
        run, system, dataset = small_run()
        state = full_state(system.model, system.branches)
        key = next(k for k in state if k.endswith("running_var"))
        state[key] = state[key][:1]
        with pytest.raises(StateShapeError, match=f"{key.split('.')[0]}: shape mismatch"):
            load_full_state(state, system.model, system.branches)

    def test_missing_branch_is_named(self):
        run, system, dataset = small_run()
        with pytest.raises(KeyError, match="branch0: missing parameter"):
            load_full_state(full_state(system.model), system.model, system.branches)


def test_stage2_objective_gradient_matches_finite_differences(rng):
    run, system, dataset = small_run(per_class=4)
    from eevit.train import _frozen_table, stage2_batch_losses

    targets = teacher_targets(system.model, system.branches)
    for branch in system.branches:
        branch.eval()  # eval-mode norms make the objective deterministic
    frozen = _frozen_table(system.model, dataset.images[:4], 4, system.placement.positions, targets)
    labels = dataset.labels[:4]

    def build():
        objective, _, _ = stage2_batch_losses(system.branches, frozen, labels, run.train)
        return objective

    params = [p for b in system.branches for p in b.parameters()]
    err = sampled_grad_check(build, params, rng, samples=8)
    assert err < FD_TOL
