"""eevit benchmark: one workload per run, end-to-end or traced per-module metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload exit_stream_b1 --seed 1 --seconds 20 --trace 0

Each run sets the workload up SETUP_REPS times, then repeats whole rounds
of the workload's two timed phases until ``--seconds`` have passed, checks
the program's outputs and prints one JSON object as its last line.  With
``--trace 1`` the first half of the time runs untraced and the second half
traced, which gives the tracing overhead, and a per-layer probe follows.
README.md defines the workloads, phases and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import common
import numpy as np

import checks
import spans
from eevit import costs, inference, train
from eevit.autograd import Tensor, no_grad
from eevit.checkpoint import load_checkpoint
from eevit.config import build_system
from eevit.data import LabeledDataset, build_dataset

# Metric names, units and directions live in BENCHMARK.json at the checkout root.
with open(os.path.join(common.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

SETUP_REPS = 15
TAU = 0.9
SWEEP_TAUS = (0.0, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 1.01)
STREAM_IMAGES = 128  # a whole number of batches of 64
BATCH = 64
# Reduced training set: 12 images per class (four batches of at most 32), four
# epochs of stage 1 and two of stage 2.  Fewer stage-1 steps do not lower the
# mean epoch loss on every seed.
TRAIN_ENTRIES = {"data.per_class": "12", "train.epochs_stage1": "4", "train.epochs_stage2": "2"}


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def cascade_logits(system, images: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Every exit's logits and the final logits from the benchmark's own batched walk."""
    model, branches = system.model, system.branches
    model.eval()
    for branch in branches:
        branch.eval()
    exits: list[list[np.ndarray]] = [[] for _ in branches]
    final = []
    with no_grad():
        for start in range(0, len(images), BATCH):
            state = model.embed(Tensor(images[start : start + BATCH]))
            for i, branch in enumerate(branches):
                state = model.continue_forward(state, branch.position)
                exits[i].append(branch(state)[0].data)
            state = model.continue_forward(state, model.config.layers)
            final.append(model.final_classifier(state).data)
    return [np.concatenate(e) for e in exits], np.concatenate(final)


def geometry(system) -> dict:
    cfg, placement = system.run.model, system.placement
    exits = [
        (p, k, system.kernels.kernel_for(p) if k == "lph" else system.windows.window_for(p))
        for p, k in zip(placement.positions, placement.kinds)
    ]
    return {
        "n": cfg.num_patches, "d": cfg.dim, "channels": cfg.channels, "patch": cfg.patch_side,
        "hidden": int(cfg.dim * cfg.mlp_ratio), "classes": cfg.num_classes,
        "layers": cfg.layers, "exits": exits,
    }


class _Workload:
    """A round returns (images, seconds) for each phase, the calls made, and a detail for tracing."""

    def trace_extra(self, details, untraced) -> dict[str, float]:
        """Workload-specific per-module metrics from the traced rounds' details."""
        return {}


class TrainTwoStage(_Workload):
    """Phase 1: stage1_train; phase 2: stage2_train (epoch-0 pass included)."""

    def __init__(self, seed: int):
        self.run = common.desk_run(seed, os.path.join(common.OUT_DIR, "train"), **TRAIN_ENTRIES)
        os.makedirs(self.run.output_dir, exist_ok=True)

    def setup(self) -> dict[str, float]:
        self.system, build_s = _timed(lambda: build_system(self.run))
        self.dataset, data_s = _timed(lambda: build_dataset(self.run.data))
        self.probe_images = self.dataset.images
        return {"config.build_system_s": build_s, "data.build_s": data_s, "checkpoint.load_s": 0.0}

    def round(self):
        cfg, n = self.run.train, len(self.dataset)
        system = build_system(self.run)  # every round trains from the same initial weights
        out = self.run.output_dir
        h1, s1 = _timed(lambda: train.stage1_train(system.model, self.dataset, cfg, out))
        before = {k: v.tobytes() for k, v in system.model.state_dict().items()}
        h2, s2 = _timed(
            lambda: train.stage2_train(system.model, system.branches, self.dataset, cfg, system.placement, out)
        )
        after = {k: v.tobytes() for k, v in system.model.state_dict().items()}
        self.last = (system, h1, h2, before, after)
        return (cfg.epochs_stage1 * n, s1), ((cfg.epochs_stage2 + 1) * n, s2), 2, None

    def check(self) -> None:
        system, h1, h2, before, after = self.last
        checks.finite_histories(h1, h2)
        checks.objective_drops(h1, "loss_ce")
        checks.objective_drops(h2, "objective")
        checks.same_snapshot(before, after, "backbone across stage 2")
        reloaded = build_system(self.run)
        state = load_checkpoint(os.path.join(self.run.output_dir, "stage2_final.ckpt"))
        train.load_full_state(state, reloaded.model, reloaded.branches)
        images = self.dataset.images[:16]
        (ex_a, fin_a), (ex_b, fin_b) = cascade_logits(system, images), cascade_logits(reloaded, images)
        for i, (a, b) in enumerate(zip(ex_a + [fin_a], ex_b + [fin_b])):
            checks.bitwise_equal(a, b, f"reloaded checkpoint, classifier {i}")


class _Inference(_Workload):
    """Set-up shared by the two inference workloads: kept weights and a held-out stream."""

    def __init__(self, seed: int):
        self.seed = seed
        self.run = common.desk_run(common.WEIGHTS_SEED)

    def setup(self) -> dict[str, float]:
        self.system, build_s = _timed(lambda: build_system(self.run))

        def load():
            state = load_checkpoint(common.WEIGHTS)
            train.load_full_state(state, self.system.model, self.system.branches)

        _, load_s = _timed(load)
        (self.images, self.labels), data_s = _timed(
            lambda: common.held_out_stream(self.run, STREAM_IMAGES, self.seed)
        )
        self.probe_images = self.images
        return {"config.build_system_s": build_s, "data.build_s": data_s, "checkpoint.load_s": load_s}

    def _own_exits(self, exit_logits, tau):
        conf = np.stack([checks.softmax_confidence(e) for e in exit_logits], axis=1)
        layers = self.run.model.layers
        return checks.first_exits(conf, self.system.placement.positions, layers, tau)


class ExitStreamB1(_Inference):
    """Phase 1: infer_early_exit at tau 0.9, one image per call; phase 2: full-depth forward at batch 1."""

    def round(self):
        s = self.system
        policy = inference.ExitPolicy(TAU)
        results, times, full_times = [], [], []
        for image in self.images:
            result, seconds = _timed(
                lambda: inference.infer_early_exit(s.model, s.branches, image, policy, s.profile, s.placement)
            )
            results.append(result)
            times.append(seconds)
        with no_grad():
            for image in self.images:
                full_times.append(_timed(lambda: s.model.forward(Tensor(image[None])))[1])
        self.last = results
        n = len(self.images)
        return (n, sum(times)), (n, sum(full_times)), 2 * n, (results, times)

    def check(self) -> None:
        s, layers_total = self.system, self.run.model.layers
        program = np.array([r.exit_layer for r in self.last])
        exit_logits, _ = cascade_logits(s, self.images)
        expected, decidable = self._own_exits(exit_logits, TAU)
        checks.exit_layers_match(program, expected, decidable)
        hist = costs.ExitHistogram.from_layers(program.tolist(), layers_total)
        checks.layer_ratio_speedup(costs.speedup(hist), program, layers_total)
        checks.macs_match(
            [r.macs for r in self.last], costs.expected_macs(s.profile, hist, s.placement),
            program, geometry(s),
        )
        full = inference.ExitPolicy(1.0)
        with no_grad():
            for image in self.images[:4]:
                result = inference.infer_early_exit(s.model, s.branches, image, full, s.profile, s.placement)
                plain = s.model.forward(Tensor(image[None])).data[0]
                checks.bitwise_equal(result.exit_logits[layers_total], plain, "tau 1 against plain forward")

    def trace_extra(self, details, untraced) -> dict[str, float]:
        results = [r for rs, _ in details for r in rs]
        times = [t for _, ts in details for t in ts]
        positions = self.system.placement.positions
        out = {}
        for layer in positions + (self.run.model.layers,):
            picked = [t for r, t in zip(results, times) if r.exit_layer == layer]
            out[f"inference.latency_ms.exit{layer}"] = 1e3 * statistics.median(picked) if picked else 0.0
            out[f"inference.exit_count.exit{layer}"] = len(picked) / len(details)
        heads = sum(sum(1 for p in positions if p <= r.exit_layer) for r in results)
        early = sum(1 for r in results if r.exit_layer != self.run.model.layers)
        out["inference.heads_per_image"] = heads / len(results)
        out["inference.fired_ratio"] = early / heads
        hist = costs.ExitHistogram.from_layers([r.exit_layer for r in details[0][0]], self.run.model.layers)
        out["inference.layer_ratio_speedup"] = costs.speedup(hist)
        rates1, rates2 = untraced
        out["inference.measured_speedup"] = statistics.median(rates1) / statistics.median(rates2)
        return out


class SweepBatched(_Inference):
    """Phase 1: threshold_sweep over the tau grid; phase 2: exit_accuracies plus forward at batch 64."""

    def round(self):
        s, n = self.system, len(self.images)
        summaries, s1 = _timed(
            lambda: inference.threshold_sweep(
                s.model, s.branches, self.images, self.labels, list(SWEEP_TAUS), s.profile, s.placement
            )
        )

        def batched():
            accs = train.exit_accuracies(
                s.model, s.branches, LabeledDataset(self.images, self.labels), s.placement, BATCH
            )
            with no_grad():
                logits = [s.model.forward(Tensor(self.images[i : i + BATCH])).data for i in range(0, n, BATCH)]
            return accs, np.concatenate(logits)

        (accs, logits), s2 = _timed(batched)
        self.last = (summaries, accs, logits)
        return (n, s1), (n, s2), 2 + n // BATCH, None

    def check(self) -> None:
        s, n, layers_total = self.system, len(self.images), self.run.model.layers
        summaries, accs, logits = self.last
        exit_logits, _ = cascade_logits(s, self.images)
        checks.exits_never_shallower([summary.histogram.counts for summary in summaries])
        for summary in summaries:
            expected, decidable = self._own_exits(exit_logits, summary.tau)
            if decidable.all():
                checks.histogram_matches(summary.histogram.counts, checks.histogram(expected, layers_total), summary.tau)
                checks.layer_ratio_speedup(summary.speedup, expected, layers_total)
                checks.macs_match(None, summary.expected_macs, expected, geometry(s))
        ties = checks.near_ties(logits)
        hits = int((logits.argmax(axis=1) == self.labels).sum())
        checks.hits_match(round(summaries[-1].accuracy * n), hits, int(ties.sum()), f"accuracy at tau {SWEEP_TAUS[-1]}")
        for i, (acc, own) in enumerate(zip(accs, exit_logits)):
            own_hits = int((own.argmax(axis=1) == self.labels).sum())
            checks.hits_match(round(acc * n), own_hits, int(checks.near_ties(own).sum()), f"exit {i + 1} accuracy")
        subset = slice(0, 16)
        args = (s.model, s.branches, self.images[subset], self.labels[subset])
        swept = inference.threshold_sweep(*args, [TAU], s.profile, s.placement)[0]
        evaluated = inference.evaluate_dataset(*args, inference.ExitPolicy(TAU), s.profile, s.placement)
        checks.summaries_equal(swept, evaluated, "sweep against evaluate_dataset at tau 0.9")


WORKLOADS = {"train_two_stage": TrainTwoStage, "exit_stream_b1": ExitStreamB1, "sweep_batched": SweepBatched}


def measure(workload, seconds: float):
    """Whole rounds until ``seconds`` have passed: per-round phase rates, calls, round details."""
    rates1, rates2, details, ops = [], [], [], 0
    deadline = time.perf_counter() + seconds
    while True:
        (n1, s1), (n2, s2), count, detail = workload.round()
        rates1.append(n1 / s1)
        rates2.append(n2 / s2)
        details.append(detail)
        ops += count
        if time.perf_counter() >= deadline:
            return rates1, rates2, details, ops


def traced_metrics(workload, tracer, traced, untraced) -> dict[str, float]:
    """Per-module metrics from the spans of the traced rounds."""
    rates1, rates2, details, _ = traced
    totals = tracer.totals()
    rounds = len(rates1)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def per_call_ms(name, column=1):
        entry = totals.get(name, (0, 0.0, 0.0))
        return 1e3 * entry[column] / entry[0] if entry[0] else 0.0

    batches = calls("train.stage2_batch_losses")
    distill_s = sum(v[1] for k, v in totals.items() if k.startswith("distill."))
    sweeps = calls("inference.threshold_sweep")
    out = {
        "autograd.gelu_ms": per_call_ms("autograd.gelu", column=2),
        "autograd.gelu_calls": calls("autograd.gelu") / rounds,
        "autograd.backward_ms": per_call_ms("autograd.backward"),
        "autograd.tape_nodes": tracer.tape_nodes / calls("autograd.backward") if calls("autograd.backward") else 0.0,
        "optim.step_ms": per_call_ms("optim.step"),
        "train.collect_taps_s": totals.get("train.collect_taps", (0, 0.0))[1] / rounds,
        "train.collect_taps_calls": calls("train.collect_taps") / rounds,
        "distill.loss_ms": 1e3 * distill_s / batches if batches else 0.0,
        "checkpoint.save_ms": per_call_ms("checkpoint.save"),
        "inference.trace_ms": per_call_ms("inference.trace_sample"),
        "inference.replay_ms": 1e3 * totals["inference.threshold_sweep"][2] / (sweeps * len(SWEEP_TAUS))
        if sweeps else 0.0,
        "trace.spans": len(tracer.spans) / rounds,
    }
    slow = statistics.median(1 / a + 1 / b for a, b in zip(rates1, rates2))
    fast = statistics.median(1 / a + 1 / b for a, b in zip(*untraced[:2]))
    out["trace.overhead_pct"] = 100.0 * (slow / fast - 1.0)
    out.update(workload.trace_extra(details, untraced[:2]))
    return out


def probe_metrics(workload) -> dict[str, float]:
    s = workload.system
    names = {p: f"{k}{p}" for p, k in zip(s.placement.positions, s.placement.kinds)}
    out = spans.layer_probe(s, workload.probe_images, names)
    out["costs.block_macs"] = s.profile.per_block[0]
    for position, name in names.items():
        macs = s.profile.head_by_position[position] + s.profile.classifier_by_position[position]
        out[f"costs.{name}_macs"] = macs
        for tag, batch in (("b1", 1), ("b64", BATCH)):
            out[f"{name}.mmac_per_s.{tag}"] = macs * batch / out[f"heads.{name}_ms.{tag}"] / 1e3
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print("machine " + json.dumps(common.machine()), flush=True)
    os.makedirs(common.OUT_DIR, exist_ok=True)

    workload = WORKLOADS[args.workload](args.seed)
    setups = []
    for _ in range(SETUP_REPS):
        parts, seconds = _timed(workload.setup)
        setups.append((seconds, parts))
    setup_s = statistics.median(s for s, _ in setups)

    if args.trace:
        untraced = measure(workload, args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = measure(workload, args.seconds / 2)
        finally:
            tracer.restore()
        ops = untraced[3] + traced[3]
        tracer.write(os.path.join(common.OUT_DIR, f"spans_{args.workload}_{args.seed}.jsonl"))
        metrics = traced_metrics(workload, tracer, traced, untraced)
        for key in ("config.build_system_s", "data.build_s", "checkpoint.load_s"):
            metrics[key] = statistics.median(parts[key] for _, parts in setups)
        metrics.update(probe_metrics(workload))
        kind = "per_layer"
    else:
        rates1, rates2, _, ops = measure(workload, args.seconds)
        metrics = {
            "setup_s": setup_s,
            "phase1_images_per_s": statistics.median(rates1),
            "phase2_images_per_s": statistics.median(rates2),
        }
        kind = "end_to_end"

    correct = True
    try:
        workload.check()
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    if kind == "per_layer":
        # A layer the workload does not exercise reads 0.
        for entry in SPEC[kind]:
            metrics.setdefault(entry["name"], 0.0)
    result = {
        "correct": correct,
        "attempted": ops,
        "failed": 0,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in SPEC[kind]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
