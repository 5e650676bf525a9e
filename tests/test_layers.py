"""Normalization layers, pooling, module registry, and parameter plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eevit import autograd as ag
from eevit.autograd import Tensor
from eevit.layers import (
    BatchNorm,
    DepthwiseConv2d,
    EmptyAxisError,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    avg_pool_global,
    grid_to_tokens,
    tokens_to_grid,
)
from eevit.train import StateShapeError, load_full_state

from conftest import FD_TOL, grad_check


def _layer_norm(gain: np.ndarray, bias: np.ndarray) -> LayerNorm:
    norm = LayerNorm(len(gain))
    norm.gain.data, norm.bias.data = gain, bias
    return norm


class TestLayerNorm:
    def test_zero_mean_unit_variance_pre_affine(self, rng):
        x = Tensor(rng.standard_normal((4, 6, 16)) * 3 + 1)
        out = _layer_norm(np.ones(16), np.zeros(16))(x)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-9)

    def test_constant_vector_gives_zeros(self):
        x = Tensor(np.full((2, 8), 3.7))
        out = _layer_norm(np.ones(8), np.zeros(8))(x)
        np.testing.assert_array_equal(out.data, np.zeros((2, 8)))

    def test_gradient(self, rng):
        x = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        norm = _layer_norm(rng.standard_normal(8), rng.standard_normal(8))
        err = grad_check(lambda: (norm(x) ** 2).sum(), [x, norm.gain, norm.bias])
        assert err < FD_TOL

    def test_empty_axis_error(self):
        with pytest.raises(EmptyAxisError):
            _layer_norm(np.ones(0), np.zeros(0))(Tensor(np.zeros((2, 0))))


class TestBatchNorm:
    def test_train_mode_normalizes_batch(self, rng):
        bn = BatchNorm(5)
        x = Tensor(rng.standard_normal((8, 3, 5)) * 2 + 4)
        out = bn(x)
        np.testing.assert_allclose(out.data.reshape(-1, 5).mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.reshape(-1, 5).var(axis=0), 1.0, atol=1e-6)

    def test_running_stats_updated_in_train_only(self, rng):
        bn = BatchNorm(4)
        x = Tensor(rng.standard_normal((8, 4)) + 10.0)
        bn(x)
        assert np.all(bn.running_mean > 0.5)
        frozen = bn.running_mean.copy()
        bn.eval()
        bn(x)
        np.testing.assert_array_equal(bn.running_mean, frozen)

    def test_eval_mode_uses_running_stats(self, rng):
        bn = BatchNorm(4)
        bn.running_mean[...] = 2.0
        bn.running_var[...] = 4.0
        bn.eval()
        x = Tensor(np.full((3, 4), 6.0))
        out = bn(x)
        np.testing.assert_allclose(out.data, (6.0 - 2.0) / np.sqrt(4.0 + bn.eps), rtol=1e-12)

    def test_single_sample_train_falls_back_to_running(self, rng):
        bn = BatchNorm(4)
        bn.running_mean[...] = 1.0
        bn.running_var[...] = 1.0
        x = Tensor(rng.standard_normal((1, 6, 4)))
        out_train = bn(x)
        frozen_mean = bn.running_mean.copy()
        bn.eval()
        out_eval = bn(x)
        np.testing.assert_array_equal(out_train.data, out_eval.data)
        np.testing.assert_array_equal(bn.running_mean, frozen_mean)

    def test_empty_batch_error(self):
        with pytest.raises(EmptyAxisError):
            BatchNorm(4)(Tensor(np.zeros((0, 3, 4))))

    def test_gradients_both_modes(self, rng):
        for training in (True, False):
            bn = BatchNorm(3)
            bn.train(training)
            x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
            err = grad_check(lambda: (bn(x) ** 2).sum(), [x, bn.gain, bn.bias])
            assert err < FD_TOL, f"training={training}"


class TestGlobalPool:
    def test_constant_preserved(self):
        x = Tensor(np.full((2, 5, 3), 1.25))
        np.testing.assert_array_equal(avg_pool_global(x).data, np.full((2, 3), 1.25))

    def test_empty_axis_error(self):
        with pytest.raises(EmptyAxisError):
            avg_pool_global(Tensor(np.zeros((2, 0, 3))))


class TestTokenGrid:
    def test_round_trip(self, rng):
        x = Tensor(rng.standard_normal((2, 16, 5)))
        back = grid_to_tokens(tokens_to_grid(x))
        np.testing.assert_array_equal(back.data, x.data)

    def test_non_square_rejected(self, rng):
        with pytest.raises(ValueError):
            tokens_to_grid(Tensor(rng.standard_normal((2, 12, 5))))


class TestModuleRegistry:
    def test_named_parameters_and_state_dict(self, rng):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(3, 2, rng)
                self.norm = BatchNorm(2)

        net = Net()
        names = {name for name, _ in net.named_parameters()}
        assert names == {"fc.weight", "fc.bias", "norm.gain", "norm.bias"}
        state = net.state_dict()
        assert "norm.running_mean" in state and "norm.running_var" in state
        net2 = Net()
        load_full_state({f"model.{k}": v for k, v in state.items()}, net2)
        for key, value in net2.state_dict().items():
            np.testing.assert_array_equal(value, state[key])

    def test_load_rejects_missing_and_mismatched(self, rng):
        lin = Linear(3, 2, rng)
        with pytest.raises(KeyError):
            load_full_state({}, lin)
        bad = {f"model.{name}": np.zeros((9, 9)) for name, _ in lin.named_parameters()}
        with pytest.raises(StateShapeError):
            load_full_state(bad, lin)

    def test_parameter_gradient_shape_contract(self, rng):
        p = Parameter(rng.standard_normal((3, 4)))
        ag.backward((p * p).sum())
        assert p.grad.shape == p.data.shape


@given(st.integers(0, 2**31 - 1), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_depthwise_conv_preserves_constants_with_uniform_kernel(seed, window):
    r = np.random.default_rng(seed)
    c = int(r.integers(1, 4))
    value = float(r.uniform(-3, 3))
    conv = DepthwiseConv2d(c, 3, r)
    conv.weight.data = np.full((3, 3, c), 1.0 / 9.0)
    x = Tensor(np.full((1, 4, 4, c), value))
    out = ag.avg_pool2d(conv(x), window)
    assert np.all(np.isfinite(out.data))
