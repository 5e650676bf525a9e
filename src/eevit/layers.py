"""Parameter containers and the neural layers shared by backbone and heads."""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Tensor


class EmptyAxisError(ValueError):
    """A normalization or pooling axis has no elements."""


class Parameter(Tensor):
    """A trainable leaf tensor; ``named_parameters`` sets its name."""

    __slots__ = ("name",)

    def __init__(self, value):
        super().__init__(np.array(value, dtype=np.float64), requires_grad=True)
        self.name = ""


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal draw truncated at two standard deviations."""
    return np.clip(rng.standard_normal(shape) * std, -2.0 * std, 2.0 * std)


# Bumped by every change to a module's training flag or children, so that
# ``eval_mode`` can tell that a tree it left in eval mode still is.
_mode_changes = 0


class Module:
    """Minimal parameter registry with named traversal and state dicts."""

    _eval_stamp = -1  # the ``_mode_changes`` at which eval_mode last walked this tree

    def __init__(self):
        self._params: dict[str, Parameter] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self._children: dict[str, "Module"] = {}
        self.training = True

    def __setattr__(self, name, value):
        global _mode_changes
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_params", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_children", {})[name] = value
            _mode_changes += 1
        if name == "training":
            _mode_changes += 1
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> np.ndarray:
        arr = np.asarray(value, dtype=np.float64)
        self._buffers[name] = arr
        object.__setattr__(self, name, arr)
        return arr

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            full = f"{prefix}{name}"
            p.name = full
            yield full, p
        for cname, child in self._children.items():
            yield from child.named_parameters(prefix=f"{prefix}{cname}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = ""):
        for name, b in self._buffers.items():
            yield f"{prefix}{name}", b
        for cname, child in self._children.items():
            yield from child.named_buffers(prefix=f"{prefix}{cname}.")

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        state.update({name: b.copy() for name, b in self.named_buffers()})
        return state

    def train(self, mode: bool = True):
        self.training = mode
        for child in self._children.values():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None


def eval_mode(*roots: Module) -> None:
    """Put every module of each tree in eval mode.

    The walk is skipped when every root was left in eval mode by this
    function and no module's training flag or children changed since.
    """
    if all(root._eval_stamp == _mode_changes for root in roots):
        return
    for root in roots:
        root.eval()
    for root in roots:
        object.__setattr__(root, "_eval_stamp", _mode_changes)


class Linear(Module):
    """Affine map on the last axis; doubles as a pointwise (1x1) convolution."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(trunc_normal(rng, (in_dim, out_dim)))
        self.bias = Parameter(np.zeros(out_dim))

    def __call__(self, x: Tensor) -> Tensor:
        return ag.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    """Normalize the last axis to zero mean and unit variance, then affine."""

    eps = 1e-12

    def __init__(self, dim: int):
        super().__init__()
        self.gain = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] == 0:
            raise EmptyAxisError("layer_norm over an empty axis")
        return ag.layer_norm(x, self.gain, self.bias, self.eps)


class BatchNorm(Module):
    """Channel-last batch normalization with running statistics: one graph node.

    In training mode the batch statistics are used (over every axis but
    the last) and the running estimates are updated in place.  In eval
    mode, and for single-sample training batches, the running estimates
    are used unchanged.  ``ag.batch_norm`` is bitwise the mean, centre,
    variance, scale and affine ops this layer used to compose.
    """

    eps = 1e-8
    momentum = 0.1

    def __init__(self, channels: int):
        super().__init__()
        self.gain = Parameter(np.ones(channels))
        self.bias = Parameter(np.zeros(channels))
        self.register_buffer("running_mean", np.zeros(channels))
        self.register_buffer("running_var", np.ones(channels))

    def __call__(self, x: Tensor) -> Tensor:
        if x.size == 0:
            raise EmptyAxisError("batch_norm on an empty tensor")
        return ag.batch_norm(
            x, self.gain, self.bias, self.running_mean, self.running_var, self.training,
            self.momentum, self.eps,
        )


class DepthwiseConv2d(Module):
    """Per-channel k x k convolution on [B, H, W, C] grids, k odd, padded to keep H and W."""

    def __init__(self, channels: int, kernel: int, rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(trunc_normal(rng, (kernel, kernel, channels)))
        self.bias = Parameter(np.zeros(channels))

    def __call__(self, x: Tensor) -> Tensor:
        return ag.depthwise_conv2d(x, self.weight, self.bias)


def avg_pool_global(x: Tensor) -> Tensor:
    """Mean over the token axis: [B, N, D] -> [B, D]."""
    if x.shape[1] == 0:
        raise EmptyAxisError("global average pool over an empty axis")
    return x.mean(axis=1)


def tokens_to_grid(x: Tensor) -> Tensor:
    """[B, N, D] -> [B, sqrt(N), sqrt(N), D]; the token count must be square."""
    b, n, d = x.shape
    side = int(round(n**0.5))
    if side * side != n:
        raise ValueError(f"token count {n} does not form a square grid")
    return x.reshape((b, side, side, d))


def grid_to_tokens(x: Tensor) -> Tensor:
    b, h, w, d = x.shape
    return x.reshape((b, h * w, d))
