"""Early-exit policy behavior: extremes, monotonicity, cache equivalence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eevit.autograd import Tensor, no_grad
from eevit.config import build_run_config, build_system
from eevit.costs import ExitHistogram, expected_macs, speedup
from eevit.data import LabeledDataset, build_dataset
from eevit.layers import Module
from eevit.inference import (
    EmptyDatasetError,
    ExitPolicy,
    NonFiniteLogitsError,
    cascade,
    evaluate_dataset,
    infer_early_exit,
    threshold_sweep,
)
from eevit.train import exit_accuracies, stage1_train, stage2_train


@pytest.fixture(scope="module")
def trained():
    run = build_run_config(
        {
            "model.image_side": "16",
            "model.patch_side": "8",
            "model.layers": "6",
            "model.dim": "16",
            "model.heads": "2",
            "model.num_classes": "4",
            "model.mlp_ratio": "2",
            "exits.positions": "2,3,4,5",
            "data.per_class": "12",
            "train.epochs_stage1": "4",
            "train.epochs_stage2": "4",
            "train.batch_size": "16",
        }
    )
    system = build_system(run)
    dataset = build_dataset(run.data)
    stage1_train(system.model, dataset, run.train)
    stage2_train(system.model, system.branches, dataset, run.train, system.placement)
    return run, system, dataset


class TestPolicy:
    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            ExitPolicy(-0.5)

    def test_nan_tau_rejected(self):
        with pytest.raises(ValueError):
            ExitPolicy(math.nan)

    def test_above_one_allowed(self):
        assert not ExitPolicy(1.0).fires(1.0)
        assert not ExitPolicy(1.5).fires(1.0)
        assert ExitPolicy(0.0).fires(1e-9)

    @given(
        st.integers(0, 2**31 - 1),
        st.integers(0, 5),
        st.integers(1, 12),
        st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_vectorised_decision_matches_scalar_loop(self, seed, exits, n, tau):
        r = np.random.default_rng(seed)
        # draw from a coarse grid too, so confidences land exactly on tau
        conf = np.where(r.random((exits, n)) < 0.5, r.random((exits, n)), r.integers(0, 5, (exits, n)) / 4)
        policy = ExitPolicy(tau)
        expected = []
        for column in conf.T:
            first = next((i for i, c in enumerate(column) if policy.fires(float(c))), exits)
            expected.append(first)
        np.testing.assert_array_equal(policy.decide(conf), expected)

    def test_no_exits_decide_the_final_classifier(self):
        for n in (0, 1, 5):
            decided = ExitPolicy(0.0).decide(np.empty((0, n)))
            assert decided.shape == (n,)
            assert (decided == 0).all()


class TestSingleSample:
    def test_tau_above_one_matches_plain_forward(self, trained):
        run, system, dataset = trained
        policy = ExitPolicy(1.0)
        for image in dataset.images[:10]:
            result = infer_early_exit(
                system.model, system.branches, image, policy, system.profile, system.placement
            )
            assert result.exit_layer == run.model.layers
            with no_grad():
                system.model.eval()
                plain = system.model.forward(Tensor(image[None])).data[0]
            assert result.predicted_label == int(plain.argmax())
            np.testing.assert_array_equal(result.exit_logits[run.model.layers], plain)

    def test_tau_zero_exits_at_first_position(self, trained):
        run, system, dataset = trained
        policy = ExitPolicy(0.0)
        first = system.placement.positions[0]
        for image in dataset.images[:10]:
            result = infer_early_exit(
                system.model, system.branches, image, policy, system.profile, system.placement
            )
            assert result.exit_layer == first

    def test_exit_layer_monotone_in_tau(self, trained):
        run, system, dataset = trained
        taus = np.linspace(0.0, 1.05, 21)
        for image in dataset.images[:20]:
            layers = [
                infer_early_exit(
                    system.model, system.branches, image, ExitPolicy(float(t)),
                    system.profile, system.placement,
                ).exit_layer
                for t in taus
            ]
            assert all(a <= b for a, b in zip(layers, layers[1:]))

    def test_confidence_meets_threshold_unless_final(self, trained):
        run, system, dataset = trained
        policy = ExitPolicy(0.6)
        for image in dataset.images[:20]:
            result = infer_early_exit(
                system.model, system.branches, image, policy, system.profile, system.placement
            )
            if result.exit_layer != run.model.layers:
                assert result.confidence > policy.tau

    def test_macs_follow_path_convention(self, trained):
        from eevit.costs import path_macs

        run, system, dataset = trained
        result = infer_early_exit(
            system.model, system.branches, dataset.images[0], ExitPolicy(0.0),
            system.profile, system.placement,
        )
        assert result.macs == path_macs(system.profile, system.placement, result.exit_layer)

    def test_determinism(self, trained):
        run, system, dataset = trained
        a = infer_early_exit(
            system.model, system.branches, dataset.images[0], ExitPolicy(0.7),
            system.profile, system.placement,
        )
        b = infer_early_exit(
            system.model, system.branches, dataset.images[0], ExitPolicy(0.7),
            system.profile, system.placement,
        )
        assert a.exit_layer == b.exit_layer
        assert a.predicted_label == b.predicted_label
        assert a.confidence == b.confidence
        for key in a.exit_logits:
            np.testing.assert_array_equal(a.exit_logits[key], b.exit_logits[key])


class TestDatasetEvaluation:
    def test_histogram_mass_conservation(self, trained):
        run, system, dataset = trained
        summary = evaluate_dataset(
            system.model, system.branches, dataset.images, dataset.labels,
            ExitPolicy(0.8), system.profile, system.placement,
        )
        assert summary.histogram.total() == len(dataset.images)

    def test_tau_above_one_matches_full_model_accuracy(self, trained):
        run, system, dataset = trained
        summary = evaluate_dataset(
            system.model, system.branches, dataset.images, dataset.labels,
            ExitPolicy(1.0), system.profile, system.placement,
        )
        system.model.eval()
        with no_grad():
            logits = system.model.forward(Tensor(dataset.images)).data
        full_acc = float((logits.argmax(-1) == dataset.labels).mean())
        assert summary.accuracy == pytest.approx(full_acc)
        assert summary.speedup == 1.0

    def test_compacted_batches_match_batch_of_one(self, trained):
        run, system, dataset = trained
        # flipped copies make the set span more than one chunk
        images = np.concatenate([dataset.images, dataset.images[..., ::-1]])
        labels = np.concatenate([dataset.labels, dataset.labels])
        layers_total = run.model.layers
        for tau in (0.0, 0.7, 0.9, 1.01):
            results = [
                infer_early_exit(
                    system.model, system.branches, image, ExitPolicy(tau),
                    system.profile, system.placement,
                )
                for image in images
            ]
            hist = ExitHistogram.from_layers([r.exit_layer for r in results], layers_total)
            batched = evaluate_dataset(
                system.model, system.branches, images, labels, ExitPolicy(tau),
                system.profile, system.placement,
            )
            hits = sum(r.predicted_label == label for r, label in zip(results, labels))
            assert batched.accuracy == hits / len(images)
            assert batched.histogram.counts == hist.counts
            assert batched.speedup == speedup(hist)
            assert batched.expected_macs == expected_macs(system.profile, hist, system.placement)

    def test_departed_samples_have_nan_logits(self, trained):
        run, system, dataset = trained
        logits, decided = cascade(system.model, system.branches, dataset.images, 0.7)
        for sample, first in enumerate(decided):
            assert np.isfinite(logits[: first + 1, sample]).all()
            assert np.isnan(logits[first + 1 :, sample]).all()
        logits, decided = cascade(system.model, system.branches, dataset.images, math.inf)
        assert np.isfinite(logits).all()
        assert (decided == len(system.branches)).all()

    @pytest.mark.parametrize("tau", [0.0, 0.9, math.inf])
    def test_no_branches_is_the_plain_forward(self, trained, tau):
        run, system, dataset = trained
        logits, decided = cascade(system.model, [], dataset.images, tau)
        with no_grad():
            plain = system.model.forward(Tensor(dataset.images)).data
        assert logits.shape == (1,) + plain.shape
        np.testing.assert_array_equal(logits[0], plain)
        np.testing.assert_array_equal(decided, np.zeros(len(dataset.images)))

    def test_non_finite_logits_rejected(self, trained):
        run, system, dataset = trained
        last = system.branches[-1]
        saved = [p.data for p in last.parameters()]
        for p in last.parameters():
            p.data = np.full_like(p.data, np.nan)
        try:
            with pytest.raises(NonFiniteLogitsError, match=f"layer {last.position}"):
                evaluate_dataset(
                    system.model, system.branches, dataset.images, dataset.labels,
                    ExitPolicy(1.0), system.profile, system.placement,
                )
        finally:
            for p, data in zip(last.parameters(), saved):
                p.data = data

    def test_empty_dataset_rejected(self, trained):
        run, system, dataset = trained
        images, labels = dataset.images[:0], dataset.labels[:0]
        with pytest.raises(EmptyDatasetError):
            evaluate_dataset(
                system.model, system.branches, images, labels,
                ExitPolicy(0.5), system.profile, system.placement,
            )
        with pytest.raises(EmptyDatasetError):
            threshold_sweep(
                system.model, system.branches, images, labels,
                [0.5], system.profile, system.placement,
            )
        with pytest.raises(EmptyDatasetError):
            exit_accuracies(
                system.model, system.branches, LabeledDataset(images, labels), system.placement
            )


class TestEvalMode:
    def test_second_cascade_walks_no_module(self, trained, monkeypatch):
        run, system, dataset = trained
        cascade(system.model, system.branches, dataset.images[:2], 0.9)
        walked = []
        train = Module.train

        def counted(self, mode=True):
            walked.append(self)
            return train(self, mode)

        monkeypatch.setattr(Module, "train", counted)
        cascade(system.model, system.branches, dataset.images[:2], 0.9)
        assert walked == []

    def test_sub_module_switched_to_training_is_reset(self, trained):
        run, system, dataset = trained
        images = dataset.images[:8]
        before, _ = cascade(system.model, system.branches, images, math.inf)
        norm = next(b for b in system.branches if b.kind == "lph").head.spatial.norm
        stats = norm.running_mean.copy(), norm.running_var.copy()
        norm.train()
        after, _ = cascade(system.model, system.branches, images, math.inf)
        assert not norm.training
        np.testing.assert_array_equal(after, before)
        np.testing.assert_array_equal(norm.running_mean, stats[0])
        np.testing.assert_array_equal(norm.running_var, stats[1])


class TestSweep:
    def test_extremes_bracket_speedups(self, trained):
        run, system, dataset = trained
        summaries = threshold_sweep(
            system.model, system.branches, dataset.images, dataset.labels,
            [0.0, 1.01], system.profile, system.placement,
        )
        first_exit = system.placement.positions[0]
        assert summaries[0].speedup == pytest.approx(run.model.layers / first_exit)
        assert summaries[1].speedup == 1.0

    def test_speedup_non_increasing_in_tau(self, trained):
        run, system, dataset = trained
        taus = list(np.linspace(0.0, 1.05, 21))
        summaries = threshold_sweep(
            system.model, system.branches, dataset.images, dataset.labels,
            taus, system.profile, system.placement,
        )
        values = [s.speedup for s in summaries]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_cached_sweep_equals_naive_reinference(self, trained):
        run, system, dataset = trained
        taus = [0.0, 0.4, 0.7, 0.9, 1.01]
        cached = threshold_sweep(
            system.model, system.branches, dataset.images, dataset.labels,
            taus, system.profile, system.placement,
        )
        for tau, summary in zip(taus, cached):
            naive = evaluate_dataset(
                system.model, system.branches, dataset.images, dataset.labels,
                ExitPolicy(tau), system.profile, system.placement,
            )
            assert summary.accuracy == naive.accuracy
            assert summary.speedup == naive.speedup
            assert summary.expected_macs == naive.expected_macs
            assert summary.histogram.counts == naive.histogram.counts

    def test_empty_tau_list_rejected(self, trained):
        run, system, dataset = trained
        with pytest.raises(ValueError):
            threshold_sweep(
                system.model, system.branches, dataset.images, dataset.labels,
                [], system.profile, system.placement,
            )

