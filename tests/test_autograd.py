"""Tensor arithmetic, softmax family, spatial primitives, and backprop."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eevit import autograd as ag
from eevit.autograd import NonScalarLossError, ShapeMismatchError, Tensor

from conftest import FD_TOL, grad_check


class TestMatmul:
    def test_identity_left(self, rng):
        b = rng.standard_normal((2, 2))
        out = ag.matmul(Tensor(np.eye(2)), Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_identity_right(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = ag.matmul(Tensor(a), Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, a)

    def test_row_times_column(self):
        out = ag.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ag.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_batched_broadcast_gradient(self, rng):
        x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        err = grad_check(lambda: ag.matmul(x, w).sum(), [x, w])
        assert err < FD_TOL


class TestSoftmax:
    def test_uniform(self):
        out = ag.softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_large_gap(self):
        out = ag.softmax(Tensor([100.0, 0.0]))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-10)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
           st.floats(-100, 100))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, values, shift):
        x = np.array(values)
        a = ag.softmax(Tensor(x)).data
        b = ag.softmax(Tensor(x + shift)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one(self, seed):
        r = np.random.default_rng(seed)
        x = r.standard_normal((3, 7)) * 10
        s = ag.softmax(Tensor(x), axis=-1).data
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(s > 0)


class TestBackward:
    def test_sum_gives_ones(self, rng):
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        ag.backward(w.sum())
        np.testing.assert_array_equal(w.grad, np.ones((3, 4)))

    def test_square_gives_two_w(self, rng):
        w = Tensor(rng.standard_normal(5), requires_grad=True)
        ag.backward((w * w).sum())
        np.testing.assert_allclose(w.grad, 2 * w.data, rtol=1e-15)

    def test_non_scalar_loss_rejected(self, rng):
        w = Tensor(rng.standard_normal(3), requires_grad=True)
        with pytest.raises(NonScalarLossError):
            ag.backward(w * 2)

    def test_reused_tensor_accumulates(self, rng):
        w = Tensor(rng.standard_normal(4), requires_grad=True)
        loss = (w * w).sum() + w.sum() * 3.0
        ag.backward(loss)
        np.testing.assert_allclose(w.grad, 2 * w.data + 3.0, rtol=1e-14)

    def test_unreachable_leaf_has_no_grad(self, rng):
        w = Tensor(rng.standard_normal(3), requires_grad=True)
        u = Tensor(rng.standard_normal(3), requires_grad=True)
        _ = u * 2  # side branch, never feeds the loss
        ag.backward(w.sum())
        assert w.grad is not None and u.grad is None

    def test_no_grad_suppresses_graph(self, rng):
        w = Tensor(rng.standard_normal(3), requires_grad=True)
        with ag.no_grad():
            out = (w * w).sum()
        assert out.node is None and not out.requires_grad


def _untiled_gelu(x):
    """GELU as one pass per operation over whole arrays: the reference for the tiled op.

    Returns the output and the gradient as a function of the cotangent.
    """
    t = np.multiply(x, x, out=np.empty_like(x))
    t *= x
    t *= ag._GELU_CUBIC
    t += x
    t *= ag._SQRT_2_OVER_PI
    np.tanh(t, out=t)
    out = np.multiply(x, 0.5, out=np.empty_like(x))
    out *= t + 1.0

    def grad(g):
        sech2 = np.multiply(t, t, out=np.empty_like(t))
        np.subtract(1.0, sech2, out=sech2)
        d_inner = np.multiply(x, 3.0 * ag._GELU_CUBIC, out=np.empty_like(x))
        d_inner *= x
        d_inner += 1.0
        d_inner *= ag._SQRT_2_OVER_PI
        tail = np.multiply(x, 0.5, out=np.empty_like(x))
        tail *= sech2
        tail *= d_inner
        head = np.add(t, 1.0, out=sech2)
        head *= 0.5
        head += tail
        head *= g
        return head

    return out, grad


def _matrix_shape(n):
    """The most nearly square (rows, cols) with n elements; (0, 3) when n is 0."""
    if n == 0:
        return (0, 3)
    rows = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    return (rows, n // rows)


def _laid_out(r, shape, layout):
    """Random values of ``shape``: C-contiguous, a transposed view, or every other column."""
    if layout == "transposed" and len(shape) == 2:
        return r.normal(0.0, 3.0, shape[::-1]).T
    if layout == "strided" and len(shape) == 2:
        return r.normal(0.0, 3.0, (shape[0], 2 * shape[1]))[:, ::2]
    return r.normal(0.0, 3.0, shape)


# 0-d, empty, and one tile less one, exactly one, one more, and two plus three elements.
_GELU_SHAPES = [()] + [
    _matrix_shape(n) for n in (0, ag._TILE - 1, ag._TILE, ag._TILE + 1, 2 * ag._TILE + 3)
]
_LAYOUTS = ["c", "transposed", "strided"]


class TestGelu:
    @given(
        shape=st.sampled_from(_GELU_SHAPES),
        x_layout=st.sampled_from(_LAYOUTS),
        g_layout=st.sampled_from(_LAYOUTS),
        graph=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_tiled_is_bitwise_the_untiled(self, shape, x_layout, g_layout, graph, seed):
        """Output and gradient equal the whole-array passes bit for bit, on any layout."""
        r = np.random.default_rng(seed)
        x, g = _laid_out(r, shape, x_layout), _laid_out(r, shape, g_layout)
        x_before, g_before = x.copy(), g.copy()
        want_out, want_grad = _untiled_gelu(x)
        if graph:
            out = ag.gelu(Tensor(x, requires_grad=True))
            (grad,) = out.node.grad_fn(g)
            assert grad.shape == shape
            np.testing.assert_array_equal(grad, want_grad(g))
        else:
            with ag.no_grad():
                out = ag.gelu(Tensor(x, requires_grad=True))
            assert out.node is None
        assert out.data.shape == shape
        np.testing.assert_array_equal(out.data, want_out)
        np.testing.assert_array_equal(x, x_before)
        np.testing.assert_array_equal(g, g_before)

    def test_zero_fixed_point(self):
        assert ag.gelu(Tensor(0.0)).item() == 0.0

    def test_asymptotes(self):
        assert ag.gelu(Tensor(20.0)).item() == pytest.approx(20.0, abs=1e-8)
        assert ag.gelu(Tensor(-20.0)).item() == pytest.approx(0.0, abs=1e-8)

    def test_matches_exactly_rounded_cube(self, rng):
        # Reference: the same tanh formula on the correctly rounded cube.
        # The fast cube is within one ulp of it; through tanh the output
        # moves by at most 4.5e-16 (seen on 40k samples), so 1e-15 absolute
        # plus 1e-15 relative.  Relative error alone is no bound: where
        # 1 + tanh cancels, the output is tiny and its last bits are noise.
        x = np.concatenate([rng.normal(0.0, 2.0, 1500), rng.uniform(-12.0, 12.0, 1500)])
        cube = np.array([float(Fraction(v) ** 3) for v in x])
        t = np.tanh(ag._SQRT_2_OVER_PI * (x + ag._GELU_CUBIC * cube))
        np.testing.assert_allclose(ag.gelu(Tensor(x)).data, 0.5 * x * (1.0 + t), rtol=1e-15, atol=1e-15)


    def test_in_place_form_is_bitwise_the_formula(self, rng):
        # The formula as an expression, one temporary per operation.
        x = rng.normal(0.0, 3.0, (64, 17, 256))
        g = rng.standard_normal(x.shape)
        t = np.tanh(ag._SQRT_2_OVER_PI * (x + ag._GELU_CUBIC * (x * x * x)))
        sech2 = 1.0 - t * t
        d_inner = ag._SQRT_2_OVER_PI * (1.0 + 3.0 * ag._GELU_CUBIC * x * x)
        expected_grad = g * (0.5 * (1.0 + t) + 0.5 * x * sech2 * d_inner)
        x_before, g_before = x.copy(), g.copy()
        out = ag.gelu(Tensor(x, requires_grad=True))
        np.testing.assert_array_equal(out.data, 0.5 * x * (1.0 + t))
        for _ in range(2):  # the backward leaves what its closure keeps intact
            (grad,) = out.node.grad_fn(g)
            np.testing.assert_array_equal(grad, expected_grad)
        np.testing.assert_array_equal(x, x_before)
        np.testing.assert_array_equal(g, g_before)

    def test_zero_dimensional_gradient(self):
        x = Tensor(1.5, requires_grad=True)
        ag.backward(ag.gelu(x))
        assert x.grad.shape == ()
        assert np.isfinite(x.grad)


def _affine_inputs(shape, params):
    """An input, parameters and the generator that then draws the cotangent, seeded alike."""
    r = np.random.default_rng(7)
    return r.standard_normal(shape) * 3.0 + 1.0, [r.standard_normal(p) for p in params], r


def _affine_run(fn, shape, params):
    """Output and every gradient of ``fn(x, *params)`` under a random cotangent."""
    x, values, r = _affine_inputs(shape, params)
    tensors = [Tensor(v, requires_grad=True) for v in [x, *values]]
    out = fn(*tensors)
    ag.backward((out * Tensor(r.standard_normal(out.shape))).sum())
    return [out.data] + [t.grad for t in tensors]


class TestLinear:
    # One 2-D gemm over [B * T, D] sums in another order than B gemms over
    # [T, D] once B > 1: the batched block [B, 17, D] and the window-4 GAH's
    # [B, 1, D].  Batch-1 inference relies on the shapes where it does not.
    COMPOSED_BITWISE = {(1, 17, 64), (5, 64)}

    @pytest.mark.parametrize("shape", [(1, 17, 64), (64, 17, 64), (64, 1, 64), (5, 64)])
    def test_bitwise_matmul_plus_bias(self, shape):
        """Bitwise the 2-D formula everywhere, and matmul + bias where batch 1 relies on it."""
        params = [(64, 48), (48,)]
        got = _affine_run(ag.linear, shape, params)
        x, (w, b), r = _affine_inputs(shape, params)
        x2 = x.reshape(-1, 64)
        out = x2 @ w + b
        g2 = r.standard_normal(out.shape)
        formula = [out.reshape(shape[:-1] + (48,)), (g2 @ w.T).reshape(shape), x2.T @ g2, g2.sum(axis=0)]
        for one, two in zip(got, formula):
            np.testing.assert_array_equal(one, two)
        composed = _affine_run(lambda x, w, b: ag.add(ag.matmul(x, w), b), shape, params)
        for one, two in zip(got, composed):
            if shape in self.COMPOSED_BITWISE:
                np.testing.assert_array_equal(one, two)
            else:
                np.testing.assert_allclose(one, two, rtol=0.0, atol=1e-12)

    def test_one_tape_node(self, rng):
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        out = ag.linear(Tensor(rng.standard_normal((2, 4))), w, Tensor(np.zeros(3)))
        assert len(ag.Tape.trace(out).tensors) == 1

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ag.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))
        with pytest.raises(ShapeMismatchError):
            ag.linear(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))

    def test_weight_and_bias_shapes(self):
        """The flattened gemm has no batched-weight form, so a stack of weights is refused."""
        with pytest.raises(ShapeMismatchError):
            ag.linear(Tensor(np.zeros((4, 2, 3))), Tensor(np.zeros((4, 3, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeMismatchError):
            ag.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))


def _composed_layer_norm(x, gain, bias, eps=1e-12):
    """LayerNorm as the nine elementary ops it used to be built from."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * ag.power(var + eps, -0.5) * gain + bias


class TestLayerNormNode:
    @pytest.mark.parametrize("shape", [(1, 17, 64), (32, 17, 64), (64, 17, 64)])
    def test_matches_the_composition(self, shape):
        params = [(64,), (64,)]
        one = _affine_run(lambda x, g, b: ag.layer_norm(x, g, b, 1e-12), shape, params)
        nine = _affine_run(_composed_layer_norm, shape, params)
        np.testing.assert_array_equal(one[0], nine[0])
        for a, b in zip(one[1:], nine[1:]):
            assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()

    def test_one_tape_node(self, rng):
        gain = Tensor(rng.standard_normal(8), requires_grad=True)
        out = ag.layer_norm(Tensor(rng.standard_normal((2, 3, 8))), gain, Tensor(np.zeros(8)), 1e-12)
        assert len(ag.Tape.trace(out).tensors) == 1

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ag.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)), 1e-12)


def _composed_batch_norm(x, gain, bias, running_mean, running_var, training):
    """BatchNorm as the elementary ops it used to be built from: nine with batch statistics."""
    momentum, eps = 0.1, 1e-8
    axes = tuple(range(x.ndim - 1))
    if training and x.shape[0] > 1:
        mu = x.mean(axis=axes, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=axes, keepdims=True)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu.data.reshape(-1)
        running_var *= 1.0 - momentum
        running_var += momentum * var.data.reshape(-1)
        normed = centered * ag.power(var + eps, -0.5)
    else:
        normed = (x - running_mean) * (1.0 / np.sqrt(running_var + eps))
    return normed * gain + bias


class TestBatchNormNode:
    @pytest.mark.parametrize(
        "shape,training",
        [
            ((32, 16, 64), True),  # the LPH's pointwise stages
            ((32, 4, 4, 64), True),  # its depthwise stage
            ((8, 3, 5), True),
            ((32, 4, 4, 64), False),  # eval mode
            ((1, 16, 64), True),  # a single-sample training batch uses the running statistics
            ((1, 4, 4, 64), False),
        ],
    )
    def test_bitwise_the_composition(self, shape, training):
        """Output, all three gradients and the updated running statistics, bit for bit."""
        c = shape[-1]

        def run(fn):
            r = np.random.default_rng(3)
            stats = [r.standard_normal(c) * 0.5, r.uniform(0.5, 2.0, c)]
            grads = _affine_run(lambda x, g, b: fn(x, g, b, *stats, training), shape, [(c,), (c,)])
            return grads + stats

        one = run(lambda x, g, b, rm, rv, t: ag.batch_norm(x, g, b, rm, rv, t, 0.1, 1e-8))
        nine = run(_composed_batch_norm)
        for a, b in zip(one, nine, strict=True):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("training", [True, False])
    def test_no_graph_bitwise_the_composition(self, training):
        """Without a graph: output and running statistics, bit for bit."""
        r = np.random.default_rng(4)
        x, gain, bias = r.standard_normal((32, 4, 4, 8)), r.standard_normal(8), r.standard_normal(8)
        results = []
        for fn in (lambda *a: ag.batch_norm(*a, 0.1, 1e-8), _composed_batch_norm):
            stats = [np.full(8, 0.25), np.full(8, 1.5)]
            with ag.no_grad():
                out = fn(*(Tensor(v, requires_grad=True) for v in (x, gain, bias)), *stats, training)
            assert out.node is None
            results.append([out.data, *stats])
        for a, b in zip(*results, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_one_tape_node(self, rng):
        gain = Tensor(rng.standard_normal(4), requires_grad=True)
        x = Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
        out = ag.batch_norm(x, gain, Tensor(np.zeros(4)), np.zeros(4), np.ones(4), True, 0.1, 1e-8)
        assert len(ag.Tape.trace(out).tensors) == 1

    def test_shape_mismatch(self):
        args = (np.zeros(4), np.ones(4), True, 0.1, 1e-8)
        with pytest.raises(ShapeMismatchError):
            ag.batch_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)), *args)
        with pytest.raises(ShapeMismatchError):
            ag.batch_norm(Tensor(np.zeros(4)), Tensor(np.ones(4)), Tensor(np.zeros(4)), *args)


def _check_against_reference(op, reference, arrays, graph, r):
    """``op`` on tensors of ``arrays`` against ``reference(*arrays, g)``, bit for bit.

    The output always, the gradients when a graph is recorded; neither the
    inputs nor the cotangent ``g`` may change.
    """
    g = r.standard_normal(arrays[0].shape)
    before = [a.copy() for a in (*arrays, g)]
    want_out, want_grads = reference(*arrays, g)
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    if graph:
        out = op(*tensors)
        for got, want in zip(out.node.grad_fn(g), want_grads, strict=True):
            np.testing.assert_array_equal(got, want)
    else:
        with ag.no_grad():
            out = op(*tensors)
        assert out.node is None
    np.testing.assert_array_equal(out.data, want_out)
    for now, then in zip((*arrays, g), before, strict=True):
        np.testing.assert_array_equal(now, then)


def _softmax_reference(x, g, axis):
    """Softmax and its gradient as whole-array expressions, one temporary per operation."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    return s, (s * (g - (g * s).sum(axis=axis, keepdims=True)),)


def _log_softmax_reference(x, g, axis):
    shifted = x - x.max(axis=axis, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return out, (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)


def _layer_norm_reference(x, gain, bias, g, eps=1e-6):
    d = x.shape[-1]
    centred = x - x.sum(axis=-1, keepdims=True) / d
    var = (centred * centred).sum(axis=-1, keepdims=True) / d
    r = (var + eps) ** -0.5
    n = centred * r
    gn = g * gain
    gx = (gn - gn.sum(axis=-1, keepdims=True) / d - n * ((gn * n).sum(axis=-1, keepdims=True) / d)) * r
    return n * gain + bias, (gx, (g * n).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0))


def _running_batch_norm_reference(x, gain, bias, g, running_mean, running_var, eps=1e-8):
    """BatchNorm on running statistics as whole-array expressions."""
    axes = tuple(range(x.ndim - 1))
    r = 1.0 / np.sqrt(running_var + eps)
    normed = (x - running_mean) * r
    grads = (g * gain * r, (g * normed).sum(axis=axes), g.sum(axis=axes))
    return normed * gain + bias, grads


class TestInPlaceOps:
    """The ops that write into arrays they allocated, against the expressions they compute."""

    @pytest.mark.parametrize("graph", [True, False])
    @pytest.mark.parametrize(
        "shape,axis,axes",
        [((64, 4, 17, 17), -1, None), ((9, 4), 0, None), ((5, 7, 6), 1, (2, 0, 1)), ((), -1, None)],
    )
    @pytest.mark.parametrize("name", ["softmax", "log_softmax"])
    def test_softmax_family(self, name, shape, axis, axes, graph):
        r = np.random.default_rng(5)
        x = r.standard_normal(shape) * 3.0
        if axes is not None:
            x = x.transpose(axes)
        op = getattr(ag, name)
        reference = {"softmax": _softmax_reference, "log_softmax": _log_softmax_reference}[name]
        _check_against_reference(
            lambda t: op(t, axis=axis), lambda x, g: reference(x, g, axis), [x], graph, r
        )

    @pytest.mark.parametrize("graph", [True, False])
    @pytest.mark.parametrize("shape,axes", [((1, 17, 64), None), ((64, 17, 64), None), ((17, 8, 64), (1, 0, 2))])
    def test_layer_norm(self, shape, axes, graph):
        r = np.random.default_rng(6)
        x = r.standard_normal(shape) * 3.0 + 1.0
        if axes is not None:
            x = x.transpose(axes)
        params = [r.standard_normal(shape[-1]) for _ in range(2)]
        op = lambda x, gain, bias: ag.layer_norm(x, gain, bias, 1e-6)  # noqa: E731
        _check_against_reference(op, _layer_norm_reference, [x, *params], graph, r)

    @pytest.mark.parametrize("graph", [True, False])
    @pytest.mark.parametrize(
        "shape,training", [((32, 4, 4, 64), False), ((1, 16, 64), True), ((8, 3, 5), False)]
    )
    def test_batch_norm_on_running_statistics(self, shape, training, graph):
        r = np.random.default_rng(7)
        c = shape[-1]
        x = r.standard_normal(shape) * 3.0 + 1.0
        params = [r.standard_normal(c) for _ in range(2)]
        stats = [r.standard_normal(c) * 0.5, r.uniform(0.5, 2.0, c)]
        stats_before = [s.copy() for s in stats]

        def op(x, gain, bias):
            return ag.batch_norm(x, gain, bias, *stats, training, 0.1, 1e-8)

        def reference(x, gain, bias, g):
            return _running_batch_norm_reference(x, gain, bias, g, *stats)

        _check_against_reference(op, reference, [x, *params], graph, r)
        for now, then in zip(stats, stats_before, strict=True):
            np.testing.assert_array_equal(now, then)


def _peak_bytes(fn):
    """Peak bytes traced while ``fn`` runs, its result included.

    numpy reports its data buffers to tracemalloc, so full-size
    temporaries show in the peak.
    """
    tracemalloc.start()
    try:
        result = fn()  # noqa: F841 (alive until the peak is read)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAllocations:
    """No-graph forwards allocate their output and little else."""

    def test_gelu_allocates_the_output_and_at_most_three_tiles(self, rng):
        x = Tensor(rng.standard_normal((64, 17, 256)))
        with ag.no_grad():
            peak = _peak_bytes(lambda: ag.gelu(x))
        assert peak <= x.data.nbytes + 3 * ag._TILE * x.data.itemsize

    def test_softmax_allocates_little_beyond_the_output(self, rng):
        x = Tensor(rng.standard_normal((64, 4, 17, 17)))
        with ag.no_grad():
            peak = _peak_bytes(lambda: ag.softmax(x))
        assert peak <= 1.25 * x.data.nbytes


class TestReductions:
    @pytest.mark.parametrize("axis", [None, 0, -1, 1, (0, 2), (1, 2)])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_bitwise_ndarray_sum_and_mean(self, rng, axis, keepdims):
        x = rng.standard_normal((6, 17, 64)) * 10.0 ** rng.integers(-8, 8, (6, 17, 64))
        np.testing.assert_array_equal(
            ag.sum_(Tensor(x), axis, keepdims).data, x.sum(axis=axis, keepdims=keepdims)
        )
        np.testing.assert_array_equal(
            ag.mean_(Tensor(x), axis, keepdims).data, x.mean(axis=axis, keepdims=keepdims)
        )


class TestPooling:
    def test_ones_pool_to_ones(self, rng):
        x = Tensor(np.ones((2, 4, 4, 3)))
        for window in (1, 2, 3, 4, 5):
            np.testing.assert_array_equal(
                ag.avg_pool2d(x, window).data, np.ones_like(ag.avg_pool2d(x, window).data)
            )

    def test_hand_values_divisible(self):
        grid = np.arange(1.0, 17.0).reshape(1, 4, 4, 1)
        out = ag.avg_pool2d(Tensor(grid), 2).data[0, :, :, 0]
        np.testing.assert_array_equal(out, [[3.5, 5.5], [11.5, 13.5]])

    def test_ragged_edges_use_true_counts(self):
        grid = np.arange(1.0, 17.0).reshape(1, 4, 4, 1)
        out = ag.avg_pool2d(Tensor(grid), 3).data[0, :, :, 0]
        # windows: 3x3 block, 3x1 edge, 1x3 edge, 1x1 corner
        expected = np.array(
            [[np.mean([1, 2, 3, 5, 6, 7, 9, 10, 11]), np.mean([4, 8, 12])],
             [np.mean([13, 14, 15]), 16.0]]
        )
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_window_larger_than_grid(self):
        grid = np.arange(1.0, 17.0).reshape(1, 4, 4, 1)
        out = ag.avg_pool2d(Tensor(grid), 7).data
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == pytest.approx(8.5)

    def test_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 5, 5, 3)), requires_grad=True)
        err = grad_check(lambda: (ag.avg_pool2d(x, 2) ** 2).sum(), [x])
        assert err < FD_TOL


def _hand_depthwise(x, w, stride=1, pad=0):
    b, h, wd, c = x.shape
    k = w.shape[0]
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    hout = (h + 2 * pad - k) // stride + 1
    wout = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((b, hout, wout, c))
    for bi in range(b):
        for i in range(hout):
            for j in range(wout):
                for ci in range(c):
                    patch = xp[bi, i * stride : i * stride + k, j * stride : j * stride + k, ci]
                    out[bi, i, j, ci] = (patch * w[:, :, ci]).sum()
    return out


def _per_tap_conv(x, w, g, stride, padding):
    """The reference: one numpy pass per kernel tap for the output and both gradients.

    Returns ``(out, gx, gw)`` for input ``x``, kernel ``w`` and output cotangent ``g``.
    """
    b, h, wd, c = x.shape
    k = w.shape[0]
    xp = np.zeros((b, h + 2 * padding, wd + 2 * padding, c))
    xp[:, padding : padding + h, padding : padding + wd, :] = x
    hout = (h + 2 * padding - k) // stride + 1
    wout = (wd + 2 * padding - k) // stride + 1

    def tap(u, v):
        rows = slice(u, u + stride * hout, stride)
        return (slice(None), rows, slice(v, v + stride * wout, stride))

    out = np.zeros((b, hout, wout, c))
    gxp = np.zeros_like(xp)
    gw = np.empty_like(w)
    for u in range(k):
        for v in range(k):
            out += xp[tap(u, v)] * w[u, v]
            gxp[tap(u, v)] += g * w[u, v]
            gw[u, v] = (xp[tap(u, v)] * g).sum(axis=(0, 1, 2))
    return out, gxp[:, padding : padding + h, padding : padding + wd, :], gw


def _conv_run(x, w, stride, padding, r):
    """Output and both gradients of the conv node under a random cotangent; also the cotangent."""
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = ag.depthwise_conv2d(xt, wt, stride=stride, padding=padding)
    g = r.standard_normal(out.shape)
    ag.backward((out * Tensor(g)).sum())
    return out.data, xt.grad, wt.grad, g


class TestDepthwiseConv:
    def test_matches_hand_convolution(self, rng):
        x = rng.standard_normal((2, 4, 4, 3))
        w = rng.standard_normal((3, 3, 3))
        out = ag.depthwise_conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
        np.testing.assert_allclose(out, _hand_depthwise(x, w, 1, 1), rtol=1e-12)

    def test_strided_matches_hand(self, rng):
        x = rng.standard_normal((1, 4, 4, 2))
        w = rng.standard_normal((2, 2, 2))
        out = ag.depthwise_conv2d(Tensor(x), Tensor(w), stride=2, padding=0).data
        np.testing.assert_allclose(out, _hand_depthwise(x, w, 2, 0), rtol=1e-12)

    def test_gradients(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 3, 2)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 3, 2)) * 0.5, requires_grad=True)
        err = grad_check(lambda: (ag.depthwise_conv2d(x, w, padding=1) ** 2).sum(), [x, w])
        assert err < FD_TOL

    @pytest.mark.parametrize(
        "shape,k,stride,padding",
        [((1, 4, 4, 64), 3, 1, 1), ((2, 5, 5, 3), 5, 2, 2), ((2, 6, 6, 4), 3, 1, 0)],
    )
    def test_bitwise_np_pad_reference(self, rng, shape, k, stride, padding):
        x = rng.standard_normal(shape)
        w = rng.standard_normal((k, k, shape[3]))
        xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
        hout = (shape[1] + 2 * padding - k) // stride + 1
        wout = (shape[2] + 2 * padding - k) // stride + 1
        expected = np.zeros((shape[0], hout, wout, shape[3]))
        for u in range(k):
            for v in range(k):
                window = xp[:, u : u + stride * hout : stride, v : v + stride * wout : stride]
                expected += window * w[u, v]
        out = ag.depthwise_conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
        np.testing.assert_array_equal(out, expected)

    def test_bad_kernel_shape(self, rng):
        with pytest.raises(ShapeMismatchError):
            ag.depthwise_conv2d(Tensor(np.zeros((1, 4, 4, 3))), Tensor(np.zeros((3, 3, 2))))

    def test_bad_bias_shape(self):
        with pytest.raises(ShapeMismatchError):
            ag.depthwise_conv2d(
                Tensor(np.zeros((1, 4, 4, 3))), Tensor(np.zeros((3, 3, 3))), Tensor(np.zeros(2))
            )

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one(self, stride):
        with pytest.raises(ShapeMismatchError, match="stride"):
            ag.depthwise_conv2d(
                Tensor(np.zeros((1, 4, 4, 3))), Tensor(np.zeros((3, 3, 3))), stride=stride
            )

    def test_negative_padding(self):
        with pytest.raises(ShapeMismatchError, match="padding"):
            ag.depthwise_conv2d(
                Tensor(np.zeros((1, 4, 4, 3))), Tensor(np.zeros((3, 3, 3))), padding=-1
            )

    @given(
        batch=st.integers(1, 3),
        side=st.integers(1, 7),
        channels=st.integers(2, 6),
        k=st.integers(1, 7),
        stride=st.integers(1, 3),
        padding=st.integers(0, 3),
        align=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_bitwise_per_tap_loop(self, batch, side, channels, k, stride, padding, align, seed):
        """Output and both gradients equal the per-tap loop bit for bit.

        ``align`` is AlignModule's geometry: stride k and no padding.
        """
        if align:
            stride, padding = k, 0
        assume(side + 2 * padding >= k)
        r = np.random.default_rng(seed)
        x = r.standard_normal((batch, side, side, channels))
        w = r.standard_normal((k, k, channels))
        *got, g = _conv_run(x, w, stride, padding, r)
        for one, two in zip(got, _per_tap_conv(x, w, g, stride, padding), strict=True):
            np.testing.assert_array_equal(one, two)

    @pytest.mark.parametrize("k,stride,padding", [(5, 1, 2), (7, 1, 3), (3, 2, 1)])
    def test_one_channel_within_rounding(self, rng, k, stride, padding):
        """With one channel the tap sum is einsum's innermost reduction, which
        numpy vectorises in another grouping: equal to the loop up to rounding."""
        x = rng.standard_normal((5, 7, 7, 1))
        w = rng.standard_normal((k, k, 1))
        *got, g = _conv_run(x, w, stride, padding, rng)
        for one, two in zip(got, _per_tap_conv(x, w, g, stride, padding), strict=True):
            np.testing.assert_allclose(one, two, rtol=0.0, atol=1e-13 * np.abs(two).max())

    def test_bias_is_folded_into_one_node(self, rng):
        """Conv plus bias: bitwise the conv node followed by ``add``, in one tape node."""
        x = Tensor(rng.standard_normal((2, 4, 4, 8)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 3, 8)), requires_grad=True)
        b = Tensor(rng.standard_normal(8), requires_grad=True)
        cot = Tensor(rng.standard_normal((2, 4, 4, 8)))

        def grads(out):
            for t in (x, w, b):
                t.grad = None
            ag.backward((out * cot).sum())
            return [out.data] + [t.grad for t in (x, w, b)]

        fused = ag.depthwise_conv2d(x, w, b, padding=1)
        assert len(ag.Tape.trace(fused).tensors) == 1
        one = grads(fused)
        two = grads(ag.add(ag.depthwise_conv2d(x, w, padding=1), b))
        for a, c in zip(one, two):
            np.testing.assert_array_equal(a, c)


def _composed_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads):
    """Multi-head self-attention as the seventeen ops it used to be built from."""
    b, t, d = x.shape

    def split(y):
        return y.reshape((b, t, heads, d // heads)).transpose((0, 2, 1, 3))

    q, k, v = split(ag.linear(x, wq, bq)), split(ag.linear(x, wk, bk)), split(ag.linear(x, wv, bv))
    scores = ag.matmul(q, k.transpose((0, 1, 3, 2))) * (1.0 / np.sqrt(d // heads))
    mixed = ag.matmul(ag.softmax(scores, axis=-1), v)
    return ag.linear(mixed.transpose((0, 2, 1, 3)).reshape((b, t, d)), wo, bo)


def _composed_mlp(x, w1, b1, w2, b2):
    """The MLP as the three nodes it used to be: linear, gelu, linear."""
    return ag.linear(ag.gelu(ag.linear(x, w1, b1)), w2, b2)


def _sublayer_run(fn, x, params, input_grad):
    """Output and every gradient of ``fn(x, *params)`` under a fixed random cotangent."""
    xt = Tensor(x, requires_grad=input_grad)
    tensors = [Tensor(p, requires_grad=True) for p in params]
    out = fn(xt, *tensors)
    cot = np.random.default_rng(11).standard_normal(out.shape)
    ag.backward((out * Tensor(cot)).sum())
    return out, [out.data, xt.grad] + [t.grad for t in tensors]


def _attention_params(r, d):
    return [r.standard_normal(s) * 0.3 for _ in range(4) for s in ((d, d), (d,))]


class TestFusedSublayers:
    """``attention`` and ``mlp`` are one tape node each and bitwise the ops they replace.

    Batches 1 and 3, the block's T = 17 and the desk GAHs' T = 4 and 1,
    with the input requiring grad (stage 1) and with only the weights doing
    so (a GAH in stage 2, whose input is the frozen backbone's).
    """

    CASES = [(b, t, input_grad) for b in (1, 3) for t in (17, 4, 1) for input_grad in (True, False)]

    @pytest.mark.parametrize("batch,tokens,input_grad", CASES)
    def test_attention_bitwise_the_composition(self, batch, tokens, input_grad):
        r = np.random.default_rng(batch * 100 + tokens)
        x, params = r.standard_normal((batch, tokens, 16)), _attention_params(r, 16)
        fused, one = _sublayer_run(lambda *a: ag.attention(*a, 4), x, params, input_grad)
        _, many = _sublayer_run(lambda *a: _composed_attention(*a, 4), x, params, input_grad)
        assert len(ag.Tape.trace(fused).tensors) == 1
        assert (one[1] is None) == (not input_grad)
        for a, c in zip(one, many, strict=True):
            np.testing.assert_array_equal(a, c)

    @pytest.mark.parametrize("batch,tokens,input_grad", CASES)
    def test_mlp_bitwise_the_composition(self, batch, tokens, input_grad):
        r = np.random.default_rng(batch * 100 + tokens)
        x = r.standard_normal((batch, tokens, 16))
        params = [r.standard_normal(s) * 0.3 for s in ((16, 64), (64,), (64, 16), (16,))]
        fused, one = _sublayer_run(ag.mlp, x, params, input_grad)
        _, many = _sublayer_run(_composed_mlp, x, params, input_grad)
        assert len(ag.Tape.trace(fused).tensors) == 1
        assert (one[1] is None) == (not input_grad)
        for a, c in zip(one, many, strict=True):
            np.testing.assert_array_equal(a, c)

    def test_mlp_over_many_gelu_tiles_bitwise_the_composition(self):
        """A hidden layer of more than one GELU tile: the desk block at batch 32."""
        r = np.random.default_rng(5)
        x = r.standard_normal((32, 17, 64))
        params = [r.standard_normal(s) * 0.1 for s in ((64, 256), (256,), (256, 64), (64,))]
        one = _sublayer_run(ag.mlp, x, params, True)[1]
        many = _sublayer_run(_composed_mlp, x, params, True)[1]
        for a, c in zip(one, many, strict=True):
            np.testing.assert_array_equal(a, c)

    def test_no_graph_outputs_bitwise_the_composition(self):
        r = np.random.default_rng(6)
        x, params = Tensor(r.standard_normal((1, 17, 16))), [Tensor(p) for p in _attention_params(r, 16)]
        with ag.no_grad():
            np.testing.assert_array_equal(
                ag.attention(x, *params, 4).data, _composed_attention(x, *params, 4).data
            )
            np.testing.assert_array_equal(
                ag.mlp(x, params[0], params[1], params[2], params[3]).data,
                _composed_mlp(x, params[0], params[1], params[2], params[3]).data,
            )

    def test_shape_mismatch(self):
        x = Tensor(np.zeros((1, 3, 8)))
        square, vec = Tensor(np.zeros((8, 8))), Tensor(np.zeros(8))
        with pytest.raises(ShapeMismatchError):
            ag.attention(x, *[square, vec] * 4, 3)  # 8 features do not split into 3 heads
        with pytest.raises(ShapeMismatchError):
            ag.attention(x, *[square, vec] * 3, Tensor(np.zeros((8, 4))), Tensor(np.zeros(4)), 2)
        with pytest.raises(ShapeMismatchError):
            ag.mlp(x, Tensor(np.zeros((8, 4))), Tensor(np.zeros(4)), Tensor(np.zeros((5, 8))), vec)


def _batch_norm_node(x, g, b, training):
    stats = (np.full(4, 0.3), np.full(4, 2.0))
    return ag.batch_norm(x, g[0, 0], b[0, 1], *stats, training, 0.1, 1e-8)


def _attention_node(x, w, b):
    """Two heads over [3, 2, 4]: four 4 x 4 weights cut from ``w``, four biases from ``b``."""
    rows = w.reshape((6, 4))
    return ag.attention(x, rows[:4], b[0, 0], rows[1:5], b[0, 1], rows[2:], b[1, 0], rows[:4].transpose(), b[1, 1], 2)


def _mlp_node(x, w, b):
    rows = w.reshape((6, 4))
    return ag.mlp(x, rows[:4], b[0, 0], rows[2:], b[0, 1])


OPS_FOR_FD = [
    ("add", lambda x, y: (x + y).sum(), 2),
    ("sub", lambda x, y: (x - y).sum(), 2),
    ("mul", lambda x, y: (x * y).sum(), 2),
    ("power", lambda x: ((x * x + 1.0) ** 1.5).sum(), 1),
    ("log", lambda x: ag.log(x * x + 1.0).sum(), 1),
    ("gelu", lambda x: ag.gelu(x).sum(), 1),
    ("softmax", lambda x: (ag.softmax(x, axis=-1) ** 2).sum(), 1),
    ("log_softmax", lambda x: (ag.log_softmax(x, axis=-1) * ag.log_softmax(x, axis=-1)).sum(), 1),
    ("mean", lambda x: (x.mean(axis=0) ** 2).sum(), 1),
    ("reshape", lambda x: (x.reshape((6, 4)) ** 2).sum(), 1),
    ("transpose", lambda x: (x.transpose((1, 0, 2)) ** 3).sum(), 1),
    ("getitem", lambda x: (x[:, 1:, :] ** 2).sum(), 1),
    ("concat", lambda x, y: (ag.concat([x, y], axis=1) ** 2).sum(), 2),
    ("broadcast", lambda x: (ag.broadcast_to(x[:, :1, :], (3, 2, 4)) ** 2).sum(), 1),
    ("linear", lambda x, w, b: (ag.linear(x, w[0].transpose(), b[0, 0, :2]) ** 2).sum(), 3),
    ("layer_norm", lambda x, g, b: (ag.layer_norm(x, g[0, 0], b[0, 1], 1e-12) ** 3).sum(), 3),
    ("batch_norm", lambda x, g, b: (_batch_norm_node(x, g, b, True) ** 3).sum(), 3),
    ("batch_norm_eval", lambda x, g, b: (_batch_norm_node(x, g, b, False) ** 3).sum(), 3),
    ("attention", lambda x, w, b: (_attention_node(x, w, b) ** 2).sum(), 3),
    ("mlp", lambda x, w, b: (_mlp_node(x, w, b) ** 3).sum(), 3),
]


@pytest.mark.parametrize("name,fn,arity", OPS_FOR_FD, ids=[o[0] for o in OPS_FOR_FD])
def test_op_gradients_match_finite_differences(name, fn, arity):
    for seed in range(3):
        r = np.random.default_rng(seed)
        tensors = [Tensor(r.standard_normal((3, 2, 4)), requires_grad=True) for _ in range(arity)]
        err = grad_check(lambda: fn(*tensors), tensors)
        assert err < FD_TOL, f"{name} seed {seed}: rel err {err:.2e}"


def test_gather_rows_gradient(rng):
    x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    idx = rng.integers(0, 6, size=4)
    err = grad_check(lambda: (ag.gather_rows(x, idx) ** 2).sum(), [x])
    assert err < FD_TOL


def test_getitem_rejects_an_array_key_before_recording():
    x = Tensor(np.arange(3.0), requires_grad=True)
    with pytest.raises(ag.AdvancedIndexError, match=r"array\(\[0, 0\]\)"):
        x[np.array([0, 0])]
    with pytest.raises(ag.AdvancedIndexError):
        x[np.array([True, False, True])]


def test_getitem_takes_numpy_integers_as_basic(rng):
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    err = grad_check(lambda: (x[np.int64(1), 1:] ** 2).sum(), [x])
    assert err < FD_TOL


def test_item_rejects_more_than_one_element():
    assert Tensor([[2.5]]).item() == 2.5
    with pytest.raises(ValueError, match=r"\(2,\)"):
        Tensor([1.0, 2.0]).item()


def test_tape_visits_each_node_once_in_topological_order(rng):
    w = Tensor(rng.standard_normal(4), requires_grad=True)
    a = w * 2.0
    b = a + 1.0
    c = a * b  # diamond: a feeds both b and c
    loss = c.sum()
    tape = ag.Tape.trace(loss)
    ids = [id(t) for t in tape.tensors]
    assert len(ids) == len(set(ids))
    position = {id(t): i for i, t in enumerate(tape.tensors)}
    for t in tape.tensors:
        for parent in t.node.inputs:
            if parent.node is not None:
                assert position[id(parent)] < position[id(t)]


def test_forward_determinism():
    def run():
        r = np.random.default_rng(42)
        x = Tensor(r.standard_normal((3, 5)))
        return (ag.softmax(ag.gelu(ag.matmul(x, Tensor(r.standard_normal((5, 4))))))).data

    np.testing.assert_array_equal(run(), run())


def test_finite_outputs_on_finite_inputs(rng):
    x = Tensor(rng.standard_normal((4, 8)) * 100)
    for out in (ag.softmax(x), ag.gelu(x), ag.log_softmax(x)):
        assert np.all(np.isfinite(out.data))
