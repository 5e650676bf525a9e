"""Dense float64 tensors with reverse-mode automatic differentiation.

Every tensor produced by a differentiable operation carries a node
linking back to its inputs.  ``backward`` traces the graph from a
scalar loss into a :class:`Tape` (a topological record of the executed
operations) and replays it once in reverse, accumulating gradients
into the leaf tensors that requested them.

All arrays are float64 and row-major; operations never mutate their
inputs.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

Array = np.ndarray

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715

# Elements per tile of ``gelu``: 128 KB of float64, so a tile and its
# scratch stay in a core's L2 across the op's passes.  On [64, 17, 256]
# with 2 MB of L2 per core, 16K and 32K elements ran the same, and 4K,
# 8K and 64K about 10-20% slower.
_TILE = 16384


class ShapeMismatchError(ValueError):
    """Operand extents are incompatible for the requested operation."""


class NonScalarLossError(ValueError):
    """backward() was called on a tensor with more than one element."""


class AdvancedIndexError(IndexError):
    """A tensor was indexed with an integer array or a mask, which ``getitem`` does not support."""


# Grad mode is one flag for the whole process, not per thread: ``no_grad``
# entered on one thread stops graph recording on every thread, which is
# what lets ``slabs`` workers run graph-free without entering it.
_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Whether operations record a graph for inputs that require grad."""
    return _GRAD_ENABLED


class no_grad:
    """Context manager suspending graph construction (pure evaluation), process-wide."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class _Node:
    __slots__ = ("inputs", "grad_fn")

    def __init__(self, inputs, grad_fn):
        self.inputs = inputs
        self.grad_fn = grad_fn


class Tensor:
    """A float64 n-d array plus the bookkeeping needed for backprop."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        if not (isinstance(data, np.ndarray) and data.dtype == np.float64):
            data = np.asarray(data, dtype=np.float64)
        self.data: Array = data
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self.node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, key):
        return getitem(self, key)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean_(self, axis=axis, keepdims=keepdims)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _records_graph(inputs: tuple) -> bool:
    """Whether an op on ``inputs`` records a graph node.

    Ops that keep arrays only for the backward, or that may write their
    affine in place, ask this before ``_result`` does.
    """
    if _GRAD_ENABLED:
        for t in inputs:
            if t.requires_grad:
                return True
    return False


def _result(data: Array, inputs: tuple, grad_fn) -> Tensor:
    # An op's output is already a float64 array, or a numpy scalar from a
    # full reduction or 0-d arithmetic, so Tensor.__init__'s isinstance and
    # dtype checks are skipped: they are overhead every batch-1 op pays.
    if data.__class__ is not np.ndarray:
        data = np.asarray(data, dtype=np.float64)
    out = object.__new__(Tensor)
    out.data = data
    out.grad = None
    if _records_graph(inputs):
        out.requires_grad = True
        out.node = _Node(inputs, grad_fn)
    else:
        out.requires_grad = False
        out.node = None
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient over the axes numpy broadcasting introduced."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tape:
    """Topologically ordered record of the operations reaching a root.

    Parents always precede children, so iterating the record in reverse
    visits every node exactly once after all of its consumers.
    """

    __slots__ = ("tensors",)

    def __init__(self, tensors: list[Tensor]):
        self.tensors = tensors

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                order.append(t)
                continue
            if id(t) in seen or t.node is None:
                continue
            seen.add(id(t))
            stack.append((t, True))
            for parent in t.node.inputs:
                if parent.node is not None and id(parent) not in seen:
                    stack.append((parent, False))
        return cls(order)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf tensor the scalar loss depends on."""
    if loss.data.size != 1:
        raise NonScalarLossError(f"loss must be scalar, got shape {loss.shape}")
    if loss.node is None:
        if loss.requires_grad:
            seed = np.ones_like(loss.data)
            loss.grad = seed if loss.grad is None else loss.grad + seed
        return
    tape = Tape.trace(loss)
    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    for t in reversed(tape.tensors):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        for parent, pg in zip(t.node.inputs, t.node.grad_fn(g)):
            if pg is None:
                continue
            if parent.node is None:
                if parent.requires_grad:
                    parent.grad = pg if parent.grad is None else parent.grad + pg
            else:
                key = id(parent)
                grads[key] = pg if key not in grads else grads[key] + pg


# -- elementwise arithmetic ---------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def grad_fn(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return _result(a.data + b.data, (a, b), grad_fn)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def grad_fn(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.data.shape) if b.requires_grad else None,
        )

    return _result(a.data - b.data, (a, b), grad_fn)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def grad_fn(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        )

    return _result(a.data * b.data, (a, b), grad_fn)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def grad_fn(g):
        return (-g,)

    return _result(-a.data, (a,), grad_fn)


def power(a, exponent: float) -> Tensor:
    """Elementwise power with a constant scalar exponent."""
    if isinstance(exponent, Tensor):
        raise TypeError("tensor exponents are not supported")
    a = as_tensor(a)
    p = float(exponent)
    out = a.data**p

    def grad_fn(g):
        return (g * p * a.data ** (p - 1.0),)

    return _result(out, (a,), grad_fn)


def log(a) -> Tensor:
    a = as_tensor(a)

    def grad_fn(g):
        return (g / a.data,)

    return _result(np.log(a.data), (a,), grad_fn)


def _gelu_tile(x: Array, t: Array, out: Array, one: Array) -> None:
    """GELU's forward passes over one tile: ``t`` and ``out`` from ``x``, ``one`` scratch."""
    # x * x * x, not x**3: libm pow costs about 50x more per element, and
    # neither is correctly rounded; both stay within one ulp of the cube.
    np.multiply(x, x, out=t)
    t *= x
    t *= _GELU_CUBIC
    t += x
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    np.multiply(x, 0.5, out=out)
    out *= np.add(t, 1.0, out=one)


def _gelu_grad_tile(x: Array, t: Array, g: Array, grad: Array, sech2: Array, d_inner: Array) -> None:
    """GELU's backward passes over one tile into ``grad``; ``sech2`` and ``d_inner`` are scratch."""
    np.multiply(t, t, out=sech2)
    np.subtract(1.0, sech2, out=sech2)
    np.multiply(x, 3.0 * _GELU_CUBIC, out=d_inner)
    d_inner *= x
    d_inner += 1.0
    d_inner *= _SQRT_2_OVER_PI
    # The tail is built in grad and the head added to it: IEEE addition
    # commutes, so tail + head is bitwise head + tail.
    np.multiply(x, 0.5, out=grad)
    grad *= sech2
    grad *= d_inner
    head = np.add(t, 1.0, out=sech2)
    head *= 0.5
    grad += head
    grad *= g


def _gelu_forward(x: Array, keep: bool) -> tuple[Array, Array, Array]:
    """GELU of ``x`` in tiles of ``_TILE`` elements: the output, and the ``x`` and ``t`` it read.

    The output is a fresh C-order array shaped as ``x``.  ``t`` is kept in
    full only when ``keep``; ``_gelu_backward`` reads the returned ``x``
    and ``t``, which are flat when there is more than one tile.
    """
    shape = x.shape
    out = np.empty(shape)  # C order, so reshape(-1) is a view, never a copy
    n = out.size
    if n <= _TILE:
        # One tile: the arrays themselves, whatever their layout. This skips
        # the loop's flattening and slicing, a fixed cost that shows at batch
        # 1: over 30 alternating rounds of 2000 no-grad calls (2 CPUs, numpy
        # 2.4.6), the loop took 11.7 us against 10.0 here at [1, 16, 64] and
        # won 0-2 rounds of 30 in three runs; at [1, 17, 256] it took 22.7-26.6
        # us against 22.9-25.5 and won 20, 5 and 2 rounds.
        t = np.empty(shape)
        _gelu_tile(x, t, out, np.empty(shape))
        return out, x, t
    # Flat C-order tiles; a non-contiguous x is copied into C order.
    x = np.ascontiguousarray(x).reshape(-1)
    t = np.empty(n if keep else _TILE)
    of, one = out.reshape(-1), np.empty(_TILE)
    for lo in range(0, n, _TILE):
        hi = lo + _TILE
        m = min(hi, n) - lo
        _gelu_tile(x[lo:hi], t[lo:hi] if keep else t[:m], of[lo:hi], one[:m])
    return out, x, t


def _gelu_backward(x: Array, t: Array, g: Array) -> Array:
    """GELU's input gradient under cotangent ``g``, from the ``x`` and ``t`` of ``_gelu_forward``."""
    grad = np.empty(g.shape)
    n = grad.size
    if n <= _TILE:
        _gelu_grad_tile(x, t, g, grad, np.empty(g.shape), np.empty(g.shape))
        return grad
    gf, gradf = np.ascontiguousarray(g).reshape(-1), grad.reshape(-1)
    sech2, d_inner = np.empty(_TILE), np.empty(_TILE)
    for lo in range(0, n, _TILE):
        hi = lo + _TILE
        m = min(hi, n) - lo
        _gelu_grad_tile(x[lo:hi], t[lo:hi], gf[lo:hi], gradf[lo:hi], sech2[:m], d_inner[:m])
    return grad


def gelu(a) -> Tensor:
    """Gaussian error linear unit (tanh form), in tiles of ``_TILE`` elements.

    ``t = tanh(S * (x + C * (x * x * x)))`` and ``out = 0.5 * x * (1.0 +
    t)``; the gradient is ``g * (0.5 * (1.0 + t) + 0.5 * x * sech2 *
    d_inner)`` with ``sech2 = 1.0 - t * t`` and ``d_inner = S * (1.0 +
    3.0 * C * x * x)``.  Each tile runs these binary operations one at a
    time in the expressions' order, so output and gradient are bitwise the
    expressions'.  The only full-size arrays are the result and, when a
    graph is recorded, ``t`` for the backward; every other temporary is one
    tile of scratch, which stays in cache across the passes.
    """
    a = as_tensor(a)
    out, x, t = _gelu_forward(a.data, _records_graph((a,)))

    def grad_fn(g):
        return (_gelu_backward(x, t, g),)

    return _result(out, (a,), grad_fn)


# -- shape manipulation ---------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    src_shape = a.data.shape

    def grad_fn(g):
        return (g.reshape(src_shape),)

    return _result(a.data.reshape(shape), (a,), grad_fn)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)

    def grad_fn(g):
        inv = None if axes is None else np.argsort(axes)
        return (np.transpose(g, inv),)

    return _result(np.transpose(a.data, axes), (a,), grad_fn)


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    src_shape = a.data.shape

    def grad_fn(g):
        return (_unbroadcast(g, src_shape),)

    return _result(np.broadcast_to(a.data, shape).copy(), (a,), grad_fn)


def _is_basic_key(key) -> bool:
    parts = key if isinstance(key, tuple) else (key,)
    return all(isinstance(p, (int, slice, type(None), type(Ellipsis), np.integer)) for p in parts)


def getitem(a, key) -> Tensor:
    """``a[key]`` for a basic key: integers, slices, ``None`` and ``...``, alone or in a tuple.

    A basic key picks each element at most once, so the gradient is ``g``
    written into zeros at ``key``.  An array or mask key raises
    ``AdvancedIndexError`` before any node is recorded.
    """
    a = as_tensor(a)
    if not _is_basic_key(key):
        raise AdvancedIndexError(f"getitem takes basic keys only (integers, slices, None, ...), got {key!r}")

    def grad_fn(g):
        buf = np.zeros_like(a.data)
        buf[key] += g
        return (buf,)

    return _result(a.data[key], (a,), grad_fn)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(as_tensor(t) for t in tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        pieces = np.split(g, splits, axis=axis)
        return tuple(p if t.requires_grad else None for t, p in zip(tensors, pieces))

    return _result(np.concatenate([t.data for t in tensors], axis=axis), tensors, grad_fn)


# -- reductions ------------------------------------------------------------


def _expand_reduced(g: Array, shape: tuple[int, ...], axis, keepdims: bool) -> Array:
    if axis is None:
        return np.broadcast_to(g, shape).copy()
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)

    def grad_fn(g):
        return (_expand_reduced(g, a.data.shape, axis, keepdims),)

    # np.add.reduce is what ndarray.sum calls, minus its Python wrapper.
    return _result(np.add.reduce(a.data, axis=axis, keepdims=keepdims), (a,), grad_fn)


def mean_(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for ax in axes:
            count *= a.data.shape[ax]

    def grad_fn(g):
        return (_expand_reduced(g, a.data.shape, axis, keepdims) / count,)

    # ndarray.mean's own arithmetic: np.add.reduce, then one division by the count.
    return _result(np.add.reduce(a.data, axis=axis, keepdims=keepdims) / count, (a,), grad_fn)


# -- linear algebra ---------------------------------------------------------


def _check_matmul(ad: Array, bd: Array) -> None:
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeMismatchError("matmul operands must have rank >= 2")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeMismatchError(f"inner extents differ: {ad.shape} x {bd.shape}")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    _check_matmul(ad, bd)

    def grad_fn(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape)
        return ga, gb

    return _result(ad @ bd, (a, b), grad_fn)


def _affine(rows: Array, w: Array, bias: Array) -> Array:
    """``rows @ w + bias``, adding into the fresh product: the same additions as ``+``."""
    out = rows @ w
    out += bias
    return out


def linear(x, w, b) -> Tensor:
    """Affine map ``x @ w + b`` on the last axis: one 2-D gemm and one graph node.

    ``x`` is flattened to ``[rows, D]``, so a batch of token rows is a single
    gemm and the weight gradient needs no per-sample temporary.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    xd, wd, bd = x.data, w.data, b.data
    _check_matmul(xd, wd)
    if wd.ndim != 2 or bd.shape != wd.shape[1:]:
        raise ShapeMismatchError(f"linear weight {wd.shape} is not [D, E] or bias {bd.shape} not [E]")
    x2 = xd.reshape(-1, xd.shape[-1])
    out = _affine(x2, wd, bd)

    def grad_fn(g):
        g2 = g.reshape(-1, g.shape[-1])
        gx = (g2 @ wd.T).reshape(xd.shape) if x.requires_grad else None
        gw = x2.T @ g2 if w.requires_grad else None
        gb = np.add.reduce(g2, axis=0) if b.requires_grad else None
        return gx, gw, gb

    return _result(out.reshape(xd.shape[:-1] + wd.shape[1:]), (x, w, b), grad_fn)


def layer_norm(x, gain, bias, eps: float) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then ``* gain + bias``.

    One graph node.  The forward performs the arithmetic of the composed
    ops (mean, centre, mean of squares, ``r = (var + eps) ** -0.5``, scale
    to ``n``, affine) in the same order, so it is bitwise theirs, with two
    full-size arrays: ``n`` is scaled in place in the centred array, and
    the affine is written into the array of squares once they are summed.
    The backward is the closed form ``r * (gn - mean(gn) - n * mean(gn *
    n))`` with ``gn = g * gain``; it keeps ``n`` and ``r``.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    xd, gd, bd = x.data, gain.data, bias.data
    d = xd.shape[-1]
    if gd.shape != (d,) or bd.shape != (d,):
        raise ShapeMismatchError(f"layer_norm over {d} features: gain {gd.shape}, bias {bd.shape}")
    n = xd - np.add.reduce(xd, axis=-1, keepdims=True) / d  # centred; scaled to n in place
    sq = n * n
    var = np.add.reduce(sq, axis=-1, keepdims=True) / d
    r = (var + eps) ** -0.5
    n *= r
    out = np.multiply(n, gd, out=sq)  # the squares are summed: their buffer takes the affine
    out += bd

    def grad_fn(g):
        gx = ggain = gbias = None
        if x.requires_grad:
            gn = g * gd
            gx = gn - np.add.reduce(gn, axis=-1, keepdims=True) / d
            gn *= n
            gx -= n * (np.add.reduce(gn, axis=-1, keepdims=True) / d)
            gx *= r
        if gain.requires_grad:
            ggain = np.add.reduce((g * n).reshape(-1, d), axis=0)
        if bias.requires_grad:
            gbias = np.add.reduce(g.reshape(-1, d), axis=0)
        return gx, ggain, gbias

    return _result(out, (x, gain, bias), grad_fn)


def batch_norm(
    x,
    gain,
    bias,
    running_mean: Array,
    running_var: Array,
    training: bool,
    momentum: float,
    eps: float,
) -> Tensor:
    """Normalize each channel (last axis) over every other axis, then ``* gain + bias``.

    One graph node, bitwise equal to the nine composed ops it replaces, in
    output, gradients and running statistics.  With batch statistics
    (training on more than one sample) the forward does their arithmetic
    in their order (mean, centre, mean of squares, ``r = (var + eps) **
    -0.5``, scale, affine) and updates the running estimates in place; the
    affine goes into the array of squares once they are summed, and the
    backward replays the chain rule in tape order.  Otherwise ``r = 1 /
    sqrt(running_var + eps)`` scales ``x - running_mean`` in place, the
    affine is applied in place too unless a graph is recorded, and the
    input gradient is ``g * gain * r``.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    xd, gd, bd = x.data, gain.data, bias.data
    if xd.ndim < 2 or any(
        v.shape != xd.shape[-1:] for v in (gd, bd, running_mean, running_var)
    ):
        raise ShapeMismatchError(
            f"batch_norm over {xd.shape}: gain {gd.shape}, bias {bd.shape}, "
            f"running {running_mean.shape}, {running_var.shape}"
        )
    axes = tuple(range(xd.ndim - 1))
    batch_stats = training and xd.shape[0] > 1
    if batch_stats:
        count = xd.size // xd.shape[-1]
        mu = np.add.reduce(xd, axis=axes, keepdims=True) / count
        centered = xd - mu
        sq = centered * centered
        var = np.add.reduce(sq, axis=axes, keepdims=True) / count
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu.reshape(-1)
        running_var *= 1.0 - momentum
        running_var += momentum * var.reshape(-1)
        ve = var + eps
        r = ve**-0.5
        normed = centered * r
        out = np.multiply(normed, gd, out=sq)  # the squares are summed: their buffer takes the affine
    else:
        r = 1.0 / np.sqrt(running_var + eps)
        normed = xd - running_mean
        normed *= r
        # The backward keeps normed only when a graph is recorded.
        out = normed * gd if _records_graph((x, gain, bias)) else np.multiply(normed, gd, out=normed)
    out += bd

    def grad_fn(g):
        gx = ggain = gbias = None
        if x.requires_grad:
            gn = g * gd
            gx = gn * r
            if batch_stats:
                # The composed graph's tape, last op first: normed = centered
                # * r with r = ve ** -0.5, ve = mean(sq) + eps, sq = centered
                # * centered (so centered gets sq's gradient twice), and
                # centered = x - mean(x).
                gr = np.add.reduce(gn * centered, axis=axes, keepdims=True)
                gsq = gr * -0.5 * ve**-1.5 / count
                per_factor = gsq * centered
                gx += per_factor
                gx += per_factor
                gx += np.add.reduce(-gx, axis=axes, keepdims=True) / count
        if gain.requires_grad:
            ggain = np.add.reduce(g * normed, axis=axes)
        if bias.requires_grad:
            gbias = np.add.reduce(g, axis=axes)
        return gx, ggain, gbias

    return _result(out, (x, gain, bias), grad_fn)


def gather_rows(a, index: Array) -> Tensor:
    """Pick one entry per row along the last axis: out[...] = a[..., index[...]]."""
    a = as_tensor(a)
    idx = np.asarray(index, dtype=np.int64)
    out = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]

    def grad_fn(g):
        buf = np.zeros_like(a.data)
        np.put_along_axis(buf, idx[..., None], g[..., None], axis=-1)
        return (buf,)

    return _result(out, (a,), grad_fn)


# -- softmax family ----------------------------------------------------------


def _shifted(x: Array) -> Array:
    """A fresh ``x - max(x)`` over the last axis, laid out as ``x``; fresh even for 0-d ``x``."""
    return np.subtract(x, np.maximum.reduce(x, axis=-1, keepdims=True), out=np.empty_like(x))


def softmax_array(x: Array) -> Array:
    """Numerically stable softmax of an array over its last axis (rows sum to one).

    ``exp(shifted) / sum(exp(shifted))`` bitwise, computed in place in the
    fresh shifted array, which is the only full-size allocation.
    """
    s = _shifted(x)
    np.exp(s, out=s)
    s /= np.add.reduce(s, axis=-1, keepdims=True)
    return s


def _softmax_backward(s: Array, g: Array) -> Array:
    """Softmax's input gradient under cotangent ``g``, from its output ``s``."""
    return s * (g - np.add.reduce(g * s, axis=-1, keepdims=True))


def softmax(a) -> Tensor:
    """``softmax_array`` as a graph node; the backward reads only the output."""
    a = as_tensor(a)
    s = softmax_array(a.data)

    def grad_fn(g):
        return (_softmax_backward(s, g),)

    return _result(s, (a,), grad_fn)


def log_softmax(a) -> Tensor:
    """``shifted - log(sum(exp(shifted)))`` over the last axis, bitwise, subtracting in place."""
    a = as_tensor(a)
    out = _shifted(a.data)
    out -= np.log(np.add.reduce(np.exp(out), axis=-1, keepdims=True))

    def grad_fn(g):
        return (g - np.exp(out) * np.add.reduce(g, axis=-1, keepdims=True),)

    return _result(out, (a,), grad_fn)


# -- encoder sublayers ---------------------------------------------------------
#
# Attention and the MLP are one graph node each.  Their forwards run the numpy
# calls of the ops they replace (``linear``, ``reshape``, ``transpose``,
# ``matmul``, ``mul``, ``softmax``, ``gelu``) on the same array layouts and in
# the same order, and their backwards replay the tape of those ops, so outputs
# and gradients are bitwise the composed ops'.  A gemm's rounding depends on
# its operands' strides, so the views below have the composed ops' strides.


def _heads(rows: Array, b: int, t: int, heads: int) -> Array:
    """Projected rows [B * T, D] as a [B, heads, T, D / heads] view."""
    return rows.reshape(b, t, heads, -1).transpose(0, 2, 1, 3)


def _merge_heads(a: Array, b: int, t: int) -> Array:
    """Per-head [B, heads, T, d] as rows [B * T, heads * d], heads side by side."""
    return a.transpose(0, 2, 1, 3).reshape(b * t, -1)


def attention_probs(x: Array, wq: Array, bq: Array, wk: Array, bk: Array, heads: int):
    """Queries, keys and ``softmax(q @ kᵀ / sqrt(D / heads))`` of ``x`` [B, T, D].

    ``q`` and ``k`` are [B, heads, T, D / heads] views; the probabilities are
    [B, heads, T, T] and each query row sums to one.  ``attention`` and the
    attention maps that ``analysis`` exports both come from here.
    """
    b, t, d = x.shape
    rows = x.reshape(-1, d)
    q = _heads(_affine(rows, wq, bq), b, t, heads)
    k = _heads(_affine(rows, wk, bk), b, t, heads)
    scores = q @ np.transpose(k, (0, 1, 3, 2))
    scores *= 1.0 / np.sqrt(d // heads)
    return q, k, softmax_array(scores)


def attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads: int) -> Tensor:
    """Multi-head self-attention on ``x`` [B, T, D] with its output map: one graph node.

    ``softmax(q @ kᵀ / sqrt(D / heads)) @ v`` per head, heads merged, then
    ``@ wo + bo``; ``q``, ``k`` and ``v`` are ``x @ w + b``.  Each weight is
    [D, D] and each bias [D].  Bitwise the seventeen composed ops it
    replaces (see above), in output and every gradient; the input
    gradient is summed as ``(gx_q + gx_k) + gx_v``, the composed tape's
    order.  A gradient is computed only for an input that requires one.
    """
    inputs = x, wq, bq, wk, bk, wv, bv, wo, bo = tuple(map(as_tensor, (x, wq, bq, wk, bk, wv, bv, wo, bo)))
    xd = x.data
    if xd.ndim != 3 or heads < 1 or xd.shape[2] % heads:
        raise ShapeMismatchError(f"attention over {xd.shape} with {heads} heads")
    b, t, d = xd.shape
    if [p.data.shape for p in inputs[1:]] != [(d, d), (d,)] * 4:
        raise ShapeMismatchError(f"attention over {d} features needs [D, D] weights and [D] biases")
    rows = xd.reshape(-1, d)
    q, k, p = attention_probs(xd, wq.data, bq.data, wk.data, bk.data, heads)
    v = _heads(_affine(rows, wv.data, bv.data), b, t, heads)
    merged = _merge_heads(p @ v, b, t)
    out = _affine(merged, wo.data, bo.data)

    def grad_fn(g):
        g2 = g.reshape(-1, d)
        gmixed = np.transpose((g2 @ wo.data.T).reshape(b, t, heads, -1), (0, 2, 1, 3))
        gp = gmixed @ np.swapaxes(v, -1, -2)
        gv = np.swapaxes(p, -1, -2) @ gmixed
        gs = _softmax_backward(p, gp)
        gs *= 1.0 / np.sqrt(d // heads)
        gq = gs @ k
        gk = np.transpose(np.swapaxes(q, -1, -2) @ gs, (0, 1, 3, 2))
        grads = [None] * 9
        gx = None
        for i, gh in ((1, gq), (3, gk), (5, gv)):
            gh2 = _merge_heads(gh, b, t)
            if x.requires_grad:
                part = gh2 @ inputs[i].data.T
                if gx is None:
                    gx = part
                else:
                    gx += part
            if inputs[i].requires_grad:
                grads[i] = rows.T @ gh2
            if inputs[i + 1].requires_grad:
                grads[i + 1] = np.add.reduce(gh2, axis=0)
        if x.requires_grad:
            grads[0] = gx.reshape(xd.shape)
        if wo.requires_grad:
            grads[7] = merged.T @ g2
        if bo.requires_grad:
            grads[8] = np.add.reduce(g2, axis=0)
        return grads

    return _result(out.reshape(b, t, d), inputs, grad_fn)


def mlp(x, w1, b1, w2, b2) -> Tensor:
    """``gelu(x @ w1 + b1) @ w2 + b2`` on the last axis: one graph node.

    Bitwise the two ``linear`` nodes and the ``gelu`` node it replaces, in
    output and every gradient: the GELU runs through the same tiles.  A
    gradient is computed only for an input that requires one.
    """
    inputs = x, w1, b1, w2, b2 = tuple(map(as_tensor, (x, w1, b1, w2, b2)))
    xd, w1d, w2d = x.data, w1.data, w2.data
    if (
        w1d.ndim != 2
        or w2d.ndim != 2
        or xd.shape[-1:] != w1d.shape[:1]
        or w2d.shape[:1] != w1d.shape[1:]
        or b1.data.shape != w1d.shape[1:]
        or b2.data.shape != w2d.shape[1:]
    ):
        raise ShapeMismatchError(
            f"mlp over {xd.shape}: w1 {w1d.shape}, b1 {b1.data.shape}, w2 {w2d.shape}, b2 {b2.data.shape}"
        )
    rows = xd.reshape(-1, xd.shape[-1])
    hidden = _affine(rows, w1d, b1.data)
    act, gelu_x, gelu_t = _gelu_forward(hidden, _records_graph(inputs))
    out = _affine(act, w2d, b2.data)

    def grad_fn(g):
        g2 = g.reshape(-1, g.shape[-1])
        gx = gw1 = gb1 = gw2 = gb2 = None
        if w2.requires_grad:
            gw2 = act.T @ g2
        if b2.requires_grad:
            gb2 = np.add.reduce(g2, axis=0)
        gh = _gelu_backward(gelu_x, gelu_t, g2 @ w2d.T)
        if x.requires_grad:
            gx = (gh @ w1d.T).reshape(xd.shape)
        if w1.requires_grad:
            gw1 = rows.T @ gh
        if b1.requires_grad:
            gb1 = np.add.reduce(gh, axis=0)
        return gx, gw1, gb1, gw2, gb2

    return _result(out.reshape(xd.shape[:-1] + w2d.shape[1:]), inputs, grad_fn)


# -- spatial primitives -------------------------------------------------------


def avg_pool2d(a, window: int) -> Tensor:
    """Non-overlapping window average over the two middle axes of [B, H, W, C].

    Edge windows that fall short of ``window`` average over their true
    element count, so constants are preserved for every grid size.
    """
    a = as_tensor(a)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    b, h, w, c = a.data.shape
    ih = np.arange(0, h, window)
    iw = np.arange(0, w, window)
    row_counts = np.diff(np.append(ih, h))
    col_counts = np.diff(np.append(iw, w))
    sums = np.add.reduceat(np.add.reduceat(a.data, ih, axis=1), iw, axis=2)
    counts = np.multiply.outer(row_counts, col_counts).astype(np.float64)
    out = sums / counts[None, :, :, None]

    def grad_fn(g):
        gn = g / counts[None, :, :, None]
        expanded = np.repeat(np.repeat(gn, row_counts, axis=1), col_counts, axis=2)
        return (expanded,)

    return _result(out, (a,), grad_fn)


def _windows(grid: Array, k: int) -> Array:
    """Read-only ``[B, H, W, C, k, k]`` view of the k x k window at every position of ``grid``.

    The grid is zero-padded by ``k // 2`` first (zeros plus one slice copy:
    the same array ``np.pad`` builds, at a tenth of its cost).  The view is
    bitwise ``sliding_window_view(padded, (k, k), axis=(1, 2))``, built with
    one ``as_strided`` call instead of that function's checks.
    """
    b, h, w, c = grid.shape
    p = k // 2
    padded = np.zeros((b, h + 2 * p, w + 2 * p, c))
    padded[:, p : p + h, p : p + w, :] = grid
    sb, sh, sw, sc = padded.strides
    return as_strided(padded, (b, h, w, c, k, k), (sb, sh, sw, sc, sh, sw), writeable=False)


def depthwise_conv2d(a, weight, bias) -> Tensor:
    """Depthwise 2-D cross-correlation on [B, H, W, C] with kernel [k, k, C], plus bias [C].

    The kernel size k is odd and the grid is zero-padded by ``k // 2``, so
    the output has the input's shape.  One graph node.  The output and
    the input and weight gradients are each one ``np.einsum`` over the
    k x k windows; the input gradient correlates the padded output
    gradient with the reversed kernel.  ``einsum`` without ``optimize``
    sums each output element over the taps in (u, v) order, or over
    (b, h, w) for the weight gradient, so for two or more channels all
    three are bitwise the per-tap loop (``out += window(u, v) *
    weight[u, v]``).  With one channel the tap axis is innermost and
    numpy's vectorised reduction regroups the sum, which moves the last
    bit.
    """
    a, weight, bias = as_tensor(a), as_tensor(weight), as_tensor(bias)
    wd = weight.data
    k = wd.shape[0]
    if wd.ndim != 3 or wd.shape[1] != k or k % 2 == 0:
        raise ShapeMismatchError(f"kernel must be [k, k, C] with k odd, got {wd.shape}")
    if a.data.ndim != 4 or a.data.shape[3] != wd.shape[2]:
        raise ShapeMismatchError(f"input {a.data.shape} incompatible with kernel {wd.shape}")
    if bias.data.shape != wd.shape[2:]:
        raise ShapeMismatchError(f"bias {bias.data.shape} does not match kernel {wd.shape}")
    win = _windows(a.data, k)
    out = np.einsum("bhwcuv,uvc->bhwc", win, wd)
    out += bias.data  # into the fresh sum: the same additions as out + bias

    def grad_fn(g):
        ga = gw = gb = None
        if a.requires_grad:
            # Input position y takes g[y + k // 2 - u] * wd[u]: the reversed
            # window of the padded g at y lines g up with wd.
            ga = np.einsum("bhwcuv,uvc->bhwc", _windows(g, k)[..., ::-1, ::-1], wd)
        if weight.requires_grad:
            gw = np.einsum("bhwcuv,bhwc->uvc", win, g)
        if bias.requires_grad:
            gb = np.add.reduce(g, axis=(0, 1, 2))
        return ga, gw, gb

    return _result(out, (a, weight, bias), grad_fn)
