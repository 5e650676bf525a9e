"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; the end-to-end
criterion trains the default desk-scale configuration from scratch.
"""

import functools
import math
import time

import numpy as np
import pytest

from eevit import autograd as ag
from eevit.autograd import Tensor, no_grad

SEEDS = range(20)


def criterion(number, label, limit_seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number} ({label}): FAIL")
                raise
            elapsed = time.monotonic() - start
            print(f"[acceptance] criterion {number} ({label}): PASS ({elapsed:.1f}s)")
            assert elapsed < limit_seconds, f"runtime {elapsed:.1f}s over {limit_seconds}s budget"

        return wrapper

    return decorate


# -- 1: cost formulas against independent re-derivations ------------------


@criterion(1, "cost-formula oracle", 5.0)
def test_criterion_1_cost_formulas():
    from eevit.costs import mac_conv, mac_gah, mac_lph, mac_mhsa, ratio_checks

    r = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(r.integers(1, 1025))
        d = int(r.integers(1, 1025))
        k = int(r.choice([0, 1, 3, 5, 7]))
        s = int(r.choice([2, 3, 4]))
        assert mac_conv(n, d, k) == n * d * d * k * k
        assert mac_mhsa(n, d) == 4 * n * d * d + 2 * n * n * d
        assert mac_lph(n, d, k) == 2 * n * d * d + n * d * k * k
        pooled = math.ceil(math.ceil(math.sqrt(n)) / s) ** 2
        assert mac_gah(n, d, s) == 4 * pooled * d * d + 2 * pooled * pooled * d
        if d >= 3 and k >= 2:
            lph_ratio, gah_ratio = ratio_checks(n, d, k, s)
            assert lph_ratio < 1.0
            assert gah_ratio < 1.0
            assert lph_ratio == pytest.approx((2 * d + k * k) / (d * k * k), rel=1e-15)
            assert gah_ratio == pytest.approx((2 * d + n / s**2) / (2 * d + n), rel=1e-15)
    for d in range(3, 40):
        for k in range(2, 10):
            for s in range(2, 7):
                lph_ratio, gah_ratio = ratio_checks(64, d, k, s)
                assert lph_ratio < 1.0 and gah_ratio < 1.0


# -- 2: ViT-B/16 static MACs ------------------------------------------------


@criterion(2, "ViT-B/16 static MACs", 1.0)
def test_criterion_2_vit_b16_macs():
    from eevit.costs import model_macs
    from eevit.vit import ViTConfig

    cfg = ViTConfig(image_side=224, channels=3, patch_side=16, layers=12,
                    dim=768, heads=12, mlp_ratio=4.0, num_classes=100)
    total = model_macs(cfg).backbone_total()
    assert abs(total - 16.93e9) / 16.93e9 < 0.05


# -- 3: gradient suite -------------------------------------------------------


def _op_inventory():
    inventory = []

    def op(name, make):
        inventory.append((name, make))

    op("add", lambda r, x, y: (x + y).sum())
    op("sub", lambda r, x, y: (x - y).sum())
    op("mul", lambda r, x, y: (x * y).sum())
    op("neg", lambda r, x, y: ag.neg(x).sum())
    op("power", lambda r, x, y: ((x * x + 1.0) ** 1.5).sum())
    op("log", lambda r, x, y: ag.log(x * x + 0.5).sum())
    op("gelu", lambda r, x, y: ag.gelu(x).sum())
    op("matmul", lambda r, x, y: ag.matmul(x.reshape((4, 6)), y.reshape((6, 4))).sum())
    op("softmax", lambda r, x, y: (ag.softmax(x, axis=-1) * y).sum())
    op("log_softmax", lambda r, x, y: (ag.log_softmax(x, axis=-1) * y).sum())
    op("sum", lambda r, x, y: (x.sum(axis=1, keepdims=True) * y[:, :1, :]).sum())
    op("mean", lambda r, x, y: (x.mean(axis=(0, 2)) ** 2).sum())
    op("reshape", lambda r, x, y: (x.reshape((6, 4)) ** 2).sum())
    op("transpose", lambda r, x, y: (x.transpose((2, 0, 1)) * 2.0).sum())
    op("getitem", lambda r, x, y: (x[:, 1:, ::2] ** 2).sum())
    op("concat", lambda r, x, y: (ag.concat([x, y], axis=2) ** 2).sum())
    op("broadcast_to", lambda r, x, y: (ag.broadcast_to(x[:, :1, :], (2, 3, 4)) * y).sum())
    # The encoder sublayers: x is the input [2, 3, 4], y's rows and entries the weights and biases.
    op("attention", lambda r, x, y: (ag.attention(
        x, y.reshape((6, 4))[:4], y[0, 0], y.reshape((6, 4))[1:5], y[0, 1],
        y.reshape((6, 4))[2:], y[1, 0], y.reshape((6, 4))[:4].transpose(), y[1, 1], 2) ** 2).sum())
    op("mlp", lambda r, x, y: (ag.mlp(
        x, y.reshape((6, 4))[:4], y[0, 0], y.reshape((6, 4))[2:], y[0, 1]) ** 3).sum())
    return inventory


@criterion(3, "gradient suite", 120.0)
def test_criterion_3_gradients():
    from conftest import FD_TOL, grad_check, sampled_grad_check
    from eevit.heads import ExitBranch, GlobalAggregationHead, LocalPerceptionHead
    from eevit.layers import BatchNorm, LayerNorm
    from eevit.losses import cross_entropy, kl_divergence, mse
    from eevit.vit import ViTConfig, ViTModel

    # Elementwise and structural operations over 20 random seeds each.
    for name, make in _op_inventory():
        for seed in SEEDS:
            r = np.random.default_rng(seed)
            x = Tensor(r.standard_normal((2, 3, 4)), requires_grad=True)
            y = Tensor(r.standard_normal((2, 3, 4)), requires_grad=True)
            err = grad_check(lambda: make(r, x, y), [x, y])
            assert err < FD_TOL, f"{name} seed {seed}: {err:.2e}"

    # Spatial primitives.
    for seed in SEEDS:
        r = np.random.default_rng(seed)
        x = Tensor(r.standard_normal((1, 4, 4, 2)), requires_grad=True)
        w = Tensor(0.3 * r.standard_normal((3, 3, 2)), requires_grad=True)
        err = grad_check(lambda: (ag.depthwise_conv2d(x, w, padding=1) ** 2).sum(), [x, w])
        assert err < FD_TOL, f"conv seed {seed}"
        err = grad_check(lambda: (ag.avg_pool2d(x, 3) ** 2).sum(), [x])
        assert err < FD_TOL, f"pool seed {seed}"

    # Norm layers in both modes and the loss functions.
    for seed in SEEDS:
        r = np.random.default_rng(seed)
        ln = LayerNorm(4)
        x = Tensor(r.standard_normal((3, 4)), requires_grad=True)
        err = grad_check(lambda: (ln(x) ** 2).sum(), [x, ln.gain, ln.bias])
        assert err < FD_TOL, f"layer_norm seed {seed}"
        for training in (True, False):
            bn = BatchNorm(4)
            bn.train(training)
            err = grad_check(lambda: (bn(x) ** 2).sum(), [x, bn.gain, bn.bias])
            assert err < FD_TOL, f"batch_norm training={training} seed {seed}"
        logits = Tensor(r.standard_normal((3, 5)), requires_grad=True)
        labels = r.integers(0, 5, 3)
        assert grad_check(lambda: cross_entropy(logits, labels), [logits]) < FD_TOL
        target = ag.softmax(Tensor(r.standard_normal((3, 5)))).data
        assert grad_check(lambda: kl_divergence(target, ag.softmax(logits)), [logits]) < FD_TOL
        other = r.standard_normal((3, 5))
        assert grad_check(lambda: mse(logits, other), [logits]) < FD_TOL

    # End-to-end micro model: two blocks, one conv exit, one attention exit.
    from eevit.losses import cross_entropy as ce

    for seed in SEEDS:
        r = np.random.default_rng(seed)
        cfg = ViTConfig(image_side=8, channels=1, patch_side=4, layers=2,
                        dim=8, heads=2, mlp_ratio=2.0, num_classes=3)
        model = ViTModel(cfg, r)
        lph = ExitBranch(1, "lph", LocalPerceptionHead(8, 3, r), 8, 3, r)
        gah = ExitBranch(2, "gah", GlobalAggregationHead(8, 2, 2, r), 8, 3, r)
        images = Tensor(r.standard_normal((2, 1, 8, 8)))
        labels = r.integers(0, 3, 2)

        def build():
            state1 = model.forward_to_layer(images, 1)
            logits1, _, _ = lph(state1)
            state2 = model.continue_forward(state1, 2)
            logits2, _, _ = gah(state2)
            final = model.final_classifier(state2)
            return ce(logits1, labels) + ce(logits2, labels) + ce(final, labels)

        params = model.parameters() + lph.parameters() + gah.parameters()
        from conftest import sampled_grad_check

        err = sampled_grad_check(build, params, r, samples=6)
        assert err < FD_TOL, f"micro model seed {seed}: {err:.2e}"


# -- 4: speed-up metric ------------------------------------------------------


@criterion(4, "speed-up metric", 1.0)
def test_criterion_4_speedup():
    from eevit.costs import ExitHistogram, speedup

    r = np.random.default_rng(7)
    for _ in range(100):
        layers_total = int(r.integers(2, 16))
        counts = r.integers(0, 40, size=layers_total)
        if counts.sum() == 0:
            counts[int(r.integers(layers_total))] = 1
        hist = ExitHistogram(tuple(int(c) for c in counts))
        expected = sum(layers_total * m for m in counts) / sum(
            (i + 1) * m for i, m in enumerate(counts)
        )
        value = speedup(hist)
        assert value == pytest.approx(expected, rel=1e-12)
        assert 1.0 <= value <= layers_total
        scaled = ExitHistogram(tuple(int(c) * 13 for c in counts))
        assert speedup(scaled) == pytest.approx(value, rel=1e-12)
    # worked examples
    assert speedup(ExitHistogram.from_layers([6] * 50 + [12] * 50, 12)) == pytest.approx(
        1200 / 900, rel=1e-15
    )
    assert speedup(ExitHistogram.from_layers([12] * 9, 12)) == 1.0
    assert speedup(ExitHistogram.from_layers([1] * 4, 12)) == 12.0


# -- shared trained system for criteria 5 and 7 ------------------------------


@pytest.fixture(scope="module")
def desk_run():
    """Train the default desk-scale configuration once, end to end."""
    from eevit.config import build_run_config, build_system
    from eevit.data import build_dataset
    from eevit.train import exit_accuracies, stage1_train, stage2_train

    start = time.monotonic()
    run = build_run_config({})
    system = build_system(run)
    dataset = build_dataset(run.data)
    history1 = stage1_train(system.model, dataset, run.train)
    history2 = stage2_train(system.model, system.branches, dataset, run.train, system.placement)
    accs = exit_accuracies(system.model, system.branches, dataset, system.placement)
    elapsed = time.monotonic() - start
    return run, system, dataset, history1, history2, accs, elapsed


@criterion(5, "exit-policy properties", 60.0)
def test_criterion_5_exit_policy(desk_run):
    from eevit.inference import ExitPolicy, evaluate_dataset, infer_early_exit, threshold_sweep, trace_sample

    run, system, dataset, _, _, _, _ = desk_run
    images = dataset.images[:200]
    labels = dataset.labels[:200]
    layers_total = run.model.layers
    positions = system.placement.positions

    # tau >= 1 reproduces the plain backbone bitwise (per-sample forward).
    system.model.eval()
    for i in range(32):
        with no_grad():
            plain = system.model.forward(Tensor(images[i][None])).data[0]
        result = infer_early_exit(
            system.model, system.branches, images[i], ExitPolicy(1.0),
            system.profile, system.placement,
        )
        assert result.exit_layer == layers_total
        np.testing.assert_array_equal(result.exit_logits[layers_total], plain)
        assert result.predicted_label == int(plain.argmax())

    # tau = 0 always exits at the first configured exit.
    for i in range(32):
        result = infer_early_exit(
            system.model, system.branches, images[i], ExitPolicy(0.0),
            system.profile, system.placement,
        )
        assert result.exit_layer == positions[0]

    # Per-sample exit layer is monotone over a 21-point grid on 200 samples.
    taus = np.linspace(0.0, 1.05, 21)
    for image in images:
        trace = trace_sample(system.model, system.branches, image, system.placement)
        layers = []
        for tau in taus:
            fired = np.nonzero(trace.confidences > tau)[0]
            layers.append(positions[fired[0]] if fired.size else layers_total)
        assert all(a <= b for a, b in zip(layers, layers[1:]))

    # Cached sweep equals naive per-threshold re-inference.
    check_taus = [0.0, 0.5, 0.8, 0.9, 0.97, 1.01]
    cached = threshold_sweep(
        system.model, system.branches, images, labels, check_taus,
        system.profile, system.placement,
    )
    for tau, summary in zip(check_taus, cached):
        naive = evaluate_dataset(
            system.model, system.branches, images, labels, ExitPolicy(tau),
            system.profile, system.placement,
        )
        assert summary.accuracy == naive.accuracy
        assert summary.histogram.counts == naive.histogram.counts
        assert summary.speedup == naive.speedup
        assert summary.expected_macs == naive.expected_macs


# -- 6: distillation identities ----------------------------------------------


@criterion(6, "distillation identities", 10.0)
def test_criterion_6_distillation():
    from eevit.config import build_run_config, build_system
    from eevit.data import build_dataset
    from eevit.distill import (
        AlignModule,
        aligned_teachers,
        heterogeneous_loss,
        homogeneous_gah_loss,
        homogeneous_lph_loss,
        kd_loss,
        prediction_loss,
    )
    from eevit.losses import cross_entropy
    from eevit.train import stage1_train, stage2_train

    r = np.random.default_rng(11)

    # Every distillation term is zero at student == teacher.
    aligns = {m: AlignModule(4, 16, 16) for m in (1, 2, 3, 4)}
    for align in aligns.values():
        align.eval()
    final = Tensor(r.standard_normal((2, 16, 4)))
    with no_grad():
        teachers = [aligns[m](final) for m in (1, 2, 3, 4)]
    features = [Tensor(t.data.copy()) for t in teachers]
    hete = heterogeneous_loss(features, aligned_teachers(aligns, final))
    assert hete.item() == pytest.approx(0.0, abs=1e-12)
    f = Tensor(r.standard_normal((2, 16, 4)))
    assert homogeneous_lph_loss([f, Tensor(f.data.copy())]).item() == 0.0
    g = Tensor(r.standard_normal((2, 4, 5)))
    assert homogeneous_gah_loss([g, Tensor(g.data.copy())]).item() == 0.0
    logits = r.standard_normal((3, 5))
    labels = r.integers(0, 5, 3)
    shared = [Tensor(r.standard_normal((3, 5))), Tensor(logits.copy()),
              Tensor(r.standard_normal((3, 5))), Tensor(logits.copy())]
    assert prediction_loss(shared, logits, labels, 1.0, 4.0).item() == pytest.approx(0.0, abs=1e-12)

    # kd_loss at gamma = 0 is exactly cross entropy.
    student = Tensor(r.standard_normal((4, 6)))
    teacher = r.standard_normal((4, 6))
    kd_labels = r.integers(0, 6, 4)
    assert kd_loss(student, teacher, kd_labels, 0.0, 4.0).item() == cross_entropy(
        student, kd_labels
    ).item()

    # Gram loss is exactly invariant under token-row permutation.
    student_g = Tensor(r.standard_normal((2, 4, 5)))
    teacher_g = Tensor(r.standard_normal((2, 1, 5)))
    base = homogeneous_gah_loss([student_g, teacher_g]).item()
    flat = student_g.data.reshape(8, 5)
    permuted = Tensor(flat[r.permutation(8)].reshape(2, 4, 5))
    assert homogeneous_gah_loss([permuted, teacher_g]).item() == base

    # Stage 2 leaves the frozen backbone bitwise unchanged.
    run = build_run_config(
        {
            "model.image_side": "16", "model.patch_side": "8", "model.layers": "6",
            "model.dim": "16", "model.heads": "2", "model.mlp_ratio": "2",
            "model.num_classes": "4", "exits.positions": "2,3,4,5",
            "data.per_class": "6", "train.epochs_stage1": "1",
            "train.epochs_stage2": "2", "train.batch_size": "12",
        }
    )
    system = build_system(run)
    dataset = build_dataset(run.data)
    stage1_train(system.model, dataset, run.train)
    before = {k: v.copy() for k, v in system.model.state_dict().items()}
    stage2_train(system.model, system.branches, dataset, run.train, system.placement)
    for key, value in system.model.state_dict().items():
        np.testing.assert_array_equal(value, before[key])


# -- 7: desk-scale end-to-end -------------------------------------------------


@criterion(7, "desk-scale end-to-end", 1800.0)
def test_criterion_7_end_to_end(desk_run):
    from eevit.inference import threshold_sweep

    run, system, dataset, history1, history2, accs, train_elapsed = desk_run
    assert train_elapsed < 1700.0

    assert history1[-1]["train_acc"] >= 0.95

    initial_total = history2[0]["loss_total"]
    final_total = history2[-1]["loss_total"]
    assert final_total <= 0.5 * initial_total

    assert all(a >= 0.80 for a in accs)

    taus = [0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 1.01]
    summaries = threshold_sweep(
        system.model, system.branches, dataset.images, dataset.labels,
        taus, system.profile, system.placement,
    )
    full_accuracy = summaries[-1].accuracy  # tau > 1 runs the plain backbone
    assert any(
        s.speedup >= 1.2 and s.accuracy >= full_accuracy - 0.05 for s in summaries
    ), "no threshold reaches speed-up 1.2 within 5 accuracy points"


# -- 8: CKA suite --------------------------------------------------------------


@criterion(8, "CKA suite", 30.0)
def test_criterion_8_cka():
    from eevit.analysis import cka, cka_heatmap, layer_feature_taps
    from eevit.config import build_run_config, build_system
    from eevit.data import build_dataset

    r = np.random.default_rng(5)
    x = r.standard_normal((200, 12))
    assert cka(x, x) == pytest.approx(1.0, abs=1e-10)
    q, _ = np.linalg.qr(r.standard_normal((12, 12)))
    assert cka(x, x @ q) == pytest.approx(1.0, abs=1e-10)
    assert cka(x, x * -2.5) == pytest.approx(1.0, abs=1e-10)
    assert cka(r.standard_normal((2000, 16)), r.standard_normal((2000, 16))) < 0.05

    run = build_run_config(
        {
            "model.image_side": "16", "model.patch_side": "8", "model.layers": "4",
            "model.dim": "16", "model.heads": "2", "model.mlp_ratio": "2",
            "model.num_classes": "4", "exits.positions": "1,2", "data.per_class": "8",
        }
    )
    system = build_system(run)
    dataset = build_dataset(run.data)
    taps = layer_feature_taps(system.model, dataset.images)
    heatmap = cka_heatmap(taps, taps)
    assert heatmap.shape == (4, 4)
    np.testing.assert_allclose(np.diagonal(heatmap), 1.0, atol=1e-10)


# -- 9: persistence -------------------------------------------------------------


@criterion(9, "persistence", 60.0)
def test_criterion_9_persistence(tmp_path):
    from eevit.checkpoint import load_checkpoint, save_checkpoint
    from eevit.config import build_run_config, build_system
    from eevit.data import DatasetSpec, build_dataset, load_raw_images, write_raw_images
    from eevit.metrics import MetricsWriter
    from eevit.train import stage1_train, stage2_train

    r = np.random.default_rng(13)

    # Checkpoint round trip is bit-exact.
    state = {f"p{i}": r.standard_normal(tuple(r.integers(1, 5, size=r.integers(0, 4)))) for i in range(8)}
    path = tmp_path / "rt.ckpt"
    save_checkpoint(str(path), state)
    loaded = load_checkpoint(str(path))
    for key, value in state.items():
        assert loaded[key].shape == value.shape
        assert loaded[key].tobytes() == value.tobytes()

    # Raw dataset write/read round trip is bit-exact.
    pixels = r.integers(0, 256, size=(6, 3, 16, 16), dtype=np.uint8)
    labels = r.integers(0, 4, size=6)
    raw_path = tmp_path / "d.bin"
    write_raw_images(str(raw_path), pixels, labels)
    spec = DatasetSpec(source="raw", path=str(raw_path), image_side=16, channels=3, num_classes=4)
    ds = load_raw_images(str(raw_path), spec)
    raw2 = tmp_path / "d2.bin"
    mean = np.asarray(spec.mean).reshape(1, -1, 1, 1)
    std = np.asarray(spec.std).reshape(1, -1, 1, 1)
    recovered = np.clip(np.rint((ds.images * std + mean) * 255.0), 0, 255).astype(np.uint8)
    write_raw_images(str(raw2), recovered, ds.labels)
    assert raw_path.read_bytes() == raw2.read_bytes()

    # Fixed-seed pipeline reruns produce identical metric streams.
    streams = []
    for attempt in range(2):
        out = tmp_path / f"rerun{attempt}"
        out.mkdir()
        run = build_run_config(
            {
                "model.image_side": "16", "model.patch_side": "8", "model.layers": "6",
                "model.dim": "16", "model.heads": "2", "model.mlp_ratio": "2",
                "model.num_classes": "4", "exits.positions": "2,3,4,5",
                "data.per_class": "6", "train.epochs_stage1": "2",
                "train.epochs_stage2": "2", "train.batch_size": "12",
            }
        )
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
            + (out / "stage1_final.ckpt").read_bytes()
            + (out / "stage2_final.ckpt").read_bytes()
        )
    assert streams[0] == streams[1]
