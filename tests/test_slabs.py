"""Sample slabs: a split batch gives the one-slab walk's decisions and logits,
leaves the BLAS thread count and grad mode as it found them, and falls back
to the serial walk wherever it cannot split.

Most tests stand in a fake BLAS for numpy's and a fake set of 64 usable CPUs,
so that the slab count does not depend on the machine's cores or on
``OPENBLAS_NUM_THREADS``.
"""

import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eevit import autograd as ag
from eevit import inference, slabs
from eevit.autograd import Tensor, no_grad
from eevit.checkpoint import load_checkpoint
from eevit.config import build_run_config, build_system
from eevit.data import build_dataset
from eevit.layers import Module
from eevit.train import load_full_state
from eevit.vit import ViTModel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WEIGHTS = os.path.join(ROOT, "perfbench", "desk_seed0.ckpt")
# Batch composition moves logits by at most this much (inference's docstring).
LOGIT_BOUND = 3e-14


class FakeBlas:
    """Stands in for numpy's OpenBLAS: a thread count, and every count it was set to."""

    def __init__(self, threads: int):
        self.threads = threads
        self.calls: list[int] = []

    def get(self) -> int:
        return self.threads

    def set(self, threads: int) -> None:
        self.calls.append(threads)
        self.threads = threads


def with_blas(handles, fn, cpus=64):
    """``fn()`` with ``handles`` standing in for numpy's BLAS, on ``cpus`` usable CPUs."""
    saved = slabs._blas, os.sched_getaffinity
    slabs._blas = handles
    os.sched_getaffinity = lambda pid: set(range(cpus))
    try:
        return fn()
    finally:
        slabs._blas, os.sched_getaffinity = saved


@pytest.fixture(scope="module")
def desk():
    """The desk system on the kept stage-2 weights, and 130 noisy images of its classes."""
    run = build_run_config(
        {
            "model.layers": "8",
            "model.dim": "64",
            "exits.positions": "2,4,6,7",
            "exits.kinds": "lph,lph,gah,gah",
            "data.per_class": "13",
            "data.noise": "0.5",
        }
    )
    system = build_system(run)
    load_full_state(load_checkpoint(WEIGHTS), system.model, system.branches)
    return system, build_dataset(run.data).images


def walk(system, images, tau, handles):
    return with_blas(handles, lambda: inference.cascade(system.model, system.branches, images, tau))


def forward(model, images, handles):
    def plain():
        with no_grad():
            return model.forward(Tensor(images)).data

    return with_blas(handles, plain)


class TestEquivalence:
    @given(st.integers(1, 130), st.sampled_from([0.5, 0.9, math.inf]), st.sampled_from([2, 3]))
    @settings(max_examples=30, deadline=None)
    def test_split_walk_matches_one_slab(self, desk, n, tau, threads):
        system, images = desk
        one_logits, one_decided = walk(system, images[:n], tau, FakeBlas(1))
        logits, decided = walk(system, images[:n], tau, FakeBlas(threads))
        np.testing.assert_array_equal(decided, one_decided)
        np.testing.assert_array_equal(np.isnan(logits), np.isnan(one_logits))
        seen = ~np.isnan(one_logits[..., 0])
        np.testing.assert_array_equal(logits[seen].argmax(-1), one_logits[seen].argmax(-1))
        np.testing.assert_allclose(logits, one_logits, rtol=0, atol=LOGIT_BOUND)

    @pytest.mark.parametrize("n", [2, 5, 64])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_tau_one_is_bitwise_plain_forward(self, desk, n, threads):
        system, images = desk
        logits, decided = walk(system, images[:n], 1.0, FakeBlas(threads))
        assert (decided == len(system.branches)).all()
        np.testing.assert_array_equal(logits[-1], forward(system.model, images[:n], FakeBlas(threads)))

    def test_split_forward_matches_one_slab(self, desk):
        system, images = desk
        one = forward(system.model, images, FakeBlas(1))
        split = forward(system.model, images, FakeBlas(2))
        np.testing.assert_allclose(split, one, rtol=0, atol=LOGIT_BOUND)

    def test_slabs_are_contiguous_and_joined_in_order(self):
        blas = FakeBlas(3)
        seen = []

        def fn(lo, hi):
            seen.append((lo, hi))
            return list(range(lo, hi))

        joined = with_blas(blas, lambda: slabs.run(fn, 10, lambda parts: sum(parts, [])))
        assert joined == list(range(10))
        assert sorted(seen) == [(0, 3), (3, 6), (6, 10)]
        assert blas.calls == [1, 3]

    @pytest.mark.parametrize("threads, cpus, expected", [(8, 2, 2), (2, 2, 2), (2, 8, 2)])
    def test_never_more_slabs_than_usable_cpus(self, threads, cpus, expected):
        seen = []
        blas = FakeBlas(threads)
        with_blas(blas, lambda: slabs.run(lambda lo, hi: seen.append((lo, hi)), 10, list), cpus)
        assert len(seen) == expected
        assert blas.calls == [1, threads]

    def test_never_more_slabs_than_samples(self):
        seen = []
        with_blas(FakeBlas(4), lambda: slabs.run(lambda lo, hi: seen.append((lo, hi)), 2, list))
        assert sorted(seen) == [(0, 1), (1, 2)]


def record_threads(monkeypatch, owner, attr):
    """Wrap ``owner.attr`` so that each call appends its thread's id to the returned list."""
    threads = []
    original = getattr(owner, attr)

    def recorded(*args, **kwargs):
        threads.append(threading.get_ident())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, recorded)
    return threads


class TestStateSafety:
    def test_non_finite_logits_in_a_slab_reach_the_caller(self, desk):
        system, images = desk
        broken = images[:8].copy()
        broken[6] = np.nan  # in the second of two slabs, which a pool thread runs
        blas = FakeBlas(2)
        with pytest.raises(inference.NonFiniteLogitsError):
            walk(system, broken, 0.9, blas)
        assert ag.is_grad_enabled()
        assert blas.calls == [1, 2]
        with no_grad():
            with pytest.raises(inference.NonFiniteLogitsError):
                walk(system, broken, 0.9, blas)
            assert not ag.is_grad_enabled()
        assert blas.threads == 2

    def test_raising_slab_restores_the_real_blas(self, desk):
        handles = slabs.blas()
        if handles is None:
            pytest.skip("numpy's BLAS thread count cannot be set")
        system, images = desk
        broken = images[:8].copy()
        broken[6] = np.nan
        before = handles.get()
        handles.set(2)  # split even where the BLAS runs one thread
        try:
            with pytest.raises(inference.NonFiniteLogitsError):
                inference.cascade(system.model, system.branches, broken, 0.9)
            assert handles.get() == 2
            assert ag.is_grad_enabled()
        finally:
            handles.set(before)

    def test_split_inside_a_slab_runs_serially(self):
        inner = []

        def outer(lo, hi):
            inner.append(slabs.run(lambda a, b: [(a, b)], 6, lambda parts: sum(parts, [])))
            return []

        done = threading.Thread(
            target=lambda: with_blas(FakeBlas(2), lambda: slabs.run(outer, 4, list)), daemon=True
        )
        done.start()
        done.join(timeout=30)
        assert not done.is_alive(), "a split inside a slab deadlocked"
        assert inner == [[(0, 6)], [(0, 6)]]

    def test_workers_never_enter_no_grad_or_eval_mode(self, desk, monkeypatch):
        system, images = desk
        system.model.train()  # so that cascade's eval_mode walks the tree
        grad = record_threads(monkeypatch, ag.no_grad, "__enter__")
        evals = record_threads(monkeypatch, inference, "eval_mode")
        modes = record_threads(monkeypatch, Module, "train")
        walks = record_threads(monkeypatch, ViTModel, "embed")
        walk(system, images[:8], 0.9, FakeBlas(2))
        me = threading.get_ident()
        assert len(set(walks)) == 2  # the slabs ran on two threads
        assert grad == [me]
        assert evals == [me]
        assert modes and set(modes) == {me}


class TestFallback:
    @pytest.mark.parametrize("handles", [None, FakeBlas(1)], ids=["no-setter", "one-thread"])
    def test_one_slab_and_identical_outputs(self, desk, monkeypatch, handles):
        system, images = desk
        walks = record_threads(monkeypatch, ViTModel, "embed")
        logits, decided = walk(system, images[:64], 0.9, handles)
        plain = forward(system.model, images[:64], handles)
        assert len(walks) == 2 and set(walks) == {threading.get_ident()}
        one_logits, one_decided = walk(system, images[:64], 0.9, FakeBlas(1))
        np.testing.assert_array_equal(logits, one_logits)
        np.testing.assert_array_equal(decided, one_decided)
        np.testing.assert_array_equal(plain, forward(system.model, images[:64], FakeBlas(1)))

    def test_graph_mode_forward_is_not_split(self, desk, monkeypatch):
        system, images = desk
        walks = record_threads(monkeypatch, ViTModel, "embed")
        logits = with_blas(FakeBlas(2), lambda: system.model.forward(Tensor(images[:4])))
        assert len(walks) == 1
        assert logits.requires_grad

    def test_batch_of_one_is_not_split(self, desk):
        system, images = desk
        blas = FakeBlas(2)
        walk(system, images[:1], 0.9, blas)
        forward(system.model, images[:1], blas)
        assert blas.calls == []
