"""Loss functions and optimizer updates against hand-computed values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eevit import autograd as ag
from eevit.autograd import Tensor
from eevit.layers import Parameter
from eevit.losses import InvalidDistributionError, cross_entropy, kl_divergence, mse
from eevit.optim import MissingGradientError, Optimizer

from conftest import FD_TOL, grad_check


class TestCrossEntropy:
    def test_uniform_logits_give_log_num_classes(self):
        logits = Tensor(np.zeros((4, 10)))
        for label in (0, 3, 9):
            loss = cross_entropy(logits, np.full(4, label))
            assert loss.item() == pytest.approx(math.log(10), abs=1e-12)

    def test_nonnegative_and_zero_at_certainty(self, rng):
        logits = Tensor(rng.standard_normal((6, 5)) * 3)
        assert cross_entropy(logits, rng.integers(0, 5, 6)).item() >= 0.0

    def test_gradient(self, rng):
        logits = Tensor(rng.standard_normal((5, 7)), requires_grad=True)
        labels = rng.integers(0, 7, 5)
        err = grad_check(lambda: cross_entropy(logits, labels), [logits])
        assert err < FD_TOL


class TestKL:
    def test_zero_at_equality(self, rng):
        p = ag.softmax(Tensor(rng.standard_normal((3, 6)))).data
        assert kl_divergence(p, p).item() == pytest.approx(0.0, abs=1e-14)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(InvalidDistributionError):
            kl_divergence(np.array([0.5, 0.6]), np.array([0.5, 0.5]))
        with pytest.raises(InvalidDistributionError):
            kl_divergence(np.array([1.2, -0.2]), np.array([0.5, 0.5]))

    def test_zero_target_entries_contribute_zero(self):
        p = np.array([0.0, 1.0])
        q = np.array([0.5, 0.5])
        assert kl_divergence(p, q).item() == pytest.approx(math.log(2), rel=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, seed):
        r = np.random.default_rng(seed)
        p = ag.softmax(Tensor(r.standard_normal((2, 5)) * 2)).data
        q = ag.softmax(Tensor(r.standard_normal((2, 5)) * 2)).data
        assert kl_divergence(p, q).item() >= -1e-12

    def test_gradient_wrt_student(self, rng):
        p = ag.softmax(Tensor(rng.standard_normal((2, 4)))).data
        logits = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        err = grad_check(lambda: kl_divergence(p, ag.softmax(logits)), [logits])
        assert err < FD_TOL


class TestMSE:
    def test_zero_at_equality(self, rng):
        a = rng.standard_normal((3, 4))
        assert mse(a, a).item() == 0.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_and_symmetric(self, seed):
        r = np.random.default_rng(seed)
        a, b = r.standard_normal((2, 3, 4))
        assert mse(a, b).item() >= 0.0
        assert mse(a, b).item() == pytest.approx(mse(b, a).item(), rel=1e-12)


def _param(value):
    return Parameter(np.array(value, dtype=np.float64))


class TestOptimizer:
    def test_zero_lr_leaves_parameters(self):
        p = _param([1.0, 2.0])
        for kind in ("sgd", "adam"):
            q = _param([1.0, 2.0])
            opt = Optimizer([q], lr=0.0, kind=kind)
            q.grad = np.array([5.0, -3.0])
            opt.step()
            np.testing.assert_array_equal(q.data, p.data)

    def test_plain_descent(self):
        # The velocity starts at zero, so the first momentum step is plain descent.
        p = _param(1.0)
        opt = Optimizer([p], lr=0.1, kind="sgd")
        p.grad = np.array(2.0)
        opt.step()
        assert p.data == pytest.approx(0.8, abs=1e-15)

    def test_momentum_two_steps_match_hand_recurrence(self):
        # v1 = g = 2, w1 = 1 - 0.1*2 = 0.8; v2 = 0.9*2 + 2 = 3.8, w2 = 0.8 - 0.38 = 0.42
        p = _param(1.0)
        opt = Optimizer([p], lr=0.1, kind="sgd")
        p.grad = np.array(2.0)
        opt.step()
        assert p.data == pytest.approx(0.8, abs=1e-15)
        p.grad = np.array(2.0)
        opt.step()
        assert p.data == pytest.approx(0.42, abs=1e-14)

    def test_adam_first_step_is_signed_lr(self):
        p = _param([1.0, -1.0])
        opt = Optimizer([p], lr=0.01, kind="adam")
        p.grad = np.array([3.0, -0.5])
        opt.step()
        np.testing.assert_allclose(p.data, [1.0 - 0.01, -1.0 + 0.01], atol=1e-8)

    def test_missing_gradient_raises(self):
        p = _param(1.0)
        opt = Optimizer([p], lr=0.1)
        with pytest.raises(MissingGradientError):
            opt.step()

    def test_sgd_keeps_only_its_velocity(self):
        params = [_param([1.0, 2.0]), _param(3.0)]
        sgd = Optimizer(params, lr=0.1, kind="sgd")
        assert [set(st) for st in sgd._state] == [{"m"}, {"m"}]
        adam = Optimizer(params, lr=0.1, kind="adam")
        assert [set(st) for st in adam._state] == [{"m", "v"}, {"m", "v"}]

    def test_gradients_cleared_after_step(self):
        p = _param(1.0)
        opt = Optimizer([p], lr=0.1, kind="sgd")
        p.grad = np.array(1.0)
        opt.step()
        assert p.grad is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Optimizer([_param(1.0)], lr=0.1, kind="rmsprop")
