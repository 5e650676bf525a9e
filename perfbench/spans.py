"""Spans around calls into eevit's public functions, and a per-layer probe.

The tracer replaces module attributes with timing wrappers from the
benchmark's side; nothing under ``src/`` changes.  A function imported
by name into another module (``from .checkpoint import save_checkpoint``
in ``train``) is wrapped where its caller looks it up.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

import numpy as np

from eevit import autograd, inference, optim, train
from eevit.autograd import Tensor, no_grad

# (span name, owner, attribute).  Distillation terms share one prefix so
# that their per-batch cost adds up to distill.loss_ms.
TRACED = [
    ("autograd.gelu", autograd, "gelu"),
    ("autograd.backward", autograd, "backward"),
    ("optim.step", optim.Optimizer, "step"),
    ("train.collect_taps", train, "collect_taps"),
    ("train.stage2_batch_losses", train, "stage2_batch_losses"),
    ("distill.heterogeneous_loss", train, "heterogeneous_loss"),
    ("distill.homogeneous_lph_loss", train, "homogeneous_lph_loss"),
    ("distill.homogeneous_gah_loss", train, "homogeneous_gah_loss"),
    ("distill.prediction_loss", train, "prediction_loss"),
    ("distill.total_loss", train, "total_loss"),
    ("checkpoint.save", train, "save_checkpoint"),
    ("inference.infer_early_exit", inference, "infer_early_exit"),
    ("inference.trace_sample", inference, "trace_sample"),
    ("inference.threshold_sweep", inference, "threshold_sweep"),
]


class Tracer:
    """Spans (name, start, end, parent index) kept in memory until ``write``."""

    def __init__(self):
        self.spans: list[list] = []
        self.tape_nodes = 0
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for name, owner, attr in TRACED:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
        tape_trace = autograd.Tape.trace

        def counted_trace(root):
            tape = tape_trace(root)
            self.tape_nodes += len(tape.tensors)
            return tape

        self._patches.append((autograd.Tape, "trace", vars(autograd.Tape)["trace"]))
        autograd.Tape.trace = counted_trace

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: calls, total seconds, self seconds (children subtracted)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - children
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")


def _median_s(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_probe(system, images: np.ndarray, names: dict[int, str]) -> dict[str, float]:
    """Median wall time of each layer at batch 1 and 64, forward and block backward.

    Heads are timed with their internal classifier, as an exit runs them;
    ``names`` maps exit position to the head's metric name (``lph2``).
    """
    model, branches = system.model, system.branches
    model.eval()
    for branch in branches:
        branch.eval()
    out: dict[str, float] = {}
    for tag, batch, reps in (("b1", 1, 40), ("b64", 64, 7)):
        x = Tensor(images[:batch])
        with no_grad():
            embedded = model.embed(x)
            out[f"vit.embed_ms.{tag}"] = 1e3 * _median_s(lambda: model.embed(x), reps)
            block = model.blocks[0]
            out[f"vit.block_ms.{tag}"] = 1e3 * _median_s(lambda: block(embedded.tokens), reps)
            state = embedded
            for branch in branches:
                state = model.continue_forward(state, branch.position)
                tapped = state
                seconds = _median_s(lambda: branch(tapped), reps)
                out[f"heads.{names[branch.position]}_ms.{tag}"] = 1e3 * seconds
            final = model.continue_forward(state, model.config.layers)
            out[f"vit.final_classifier_ms.{tag}"] = 1e3 * _median_s(
                lambda: model.final_classifier(final), reps
            )

        def backward():
            tokens = Tensor(embedded.tokens.data, requires_grad=True)
            loss = block(tokens).sum()
            start = time.perf_counter()
            autograd.backward(loss)
            return time.perf_counter() - start

        out[f"vit.block_bwd_ms.{tag}"] = 1e3 * statistics.median(backward() for _ in range(reps))
        block.zero_grad()
    return out
