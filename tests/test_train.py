"""Two-stage training behavior: freezing, convergence, checkpointing."""

import dataclasses

import numpy as np
import pytest

from eevit.checkpoint import load_checkpoint
from eevit.config import build_run_config, build_system
from eevit.data import build_dataset
from eevit.train import (
    UnfrozenBackboneError,
    build_align_modules,
    collect_taps,
    exit_accuracies,
    full_state,
    load_full_state,
    stage1_train,
    stage2_train,
)

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

    def test_align_modules_not_trainable(self):
        run, system, dataset = small_run()
        aligns = build_align_modules(system.model, system.placement, system.branches)
        assert set(aligns) == {1, 2, 3, 4}
        for align in aligns.values():
            assert not align.training

    def test_mlp_placement_trains_with_plain_cross_entropy(self):
        run, system, dataset = small_run(
            per_class=15, epochs1=4, epochs2=6, extra={"exits.kinds": "mlp,mlp,mlp,mlp"}
        )
        stage1_train(system.model, dataset, run.train)
        history = stage2_train(system.model, system.branches, dataset, run.train, system.placement)
        assert "loss_total" not in history[-1]
        assert history[-1]["loss_ce_exits"] < history[0]["loss_ce_exits"]


class TestFullStateRoundTrip:
    def test_model_and_branches(self, tmp_path):
        run, system, dataset = small_run()
        state = full_state(system.model, system.branches)
        run2, system2, _ = small_run(seed=1)
        load_full_state(state, system2.model, system2.branches)
        for key, value in full_state(system2.model, system2.branches).items():
            np.testing.assert_array_equal(value, state[key])


def test_stage2_objective_gradient_matches_finite_differences(rng):
    run, system, dataset = small_run(per_class=4)
    from eevit.autograd import Tensor
    from eevit.train import stage2_batch_losses

    aligns = build_align_modules(system.model, system.placement, system.branches)
    for branch in system.branches:
        branch.eval()  # eval-mode norms make the objective deterministic
    images = Tensor(dataset.images[:4])
    labels = dataset.labels[:4]

    def build():
        objective, _, _ = stage2_batch_losses(
            system.model, system.branches, aligns, images, labels,
            run.train, system.placement, use_distillation=True,
        )
        return objective

    params = [p for b in system.branches for p in b.parameters()]
    err = sampled_grad_check(build, params, rng, samples=8)
    assert err < FD_TOL
