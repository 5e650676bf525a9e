"""Gradient-descent optimizers over named parameters."""

from __future__ import annotations

import numpy as np

from .layers import Parameter

BETAS = (0.9, 0.999)  # Adam's first- and second-moment decay
EPS = 1e-8  # Adam's denominator floor
MOMENTUM = 0.9  # SGD's velocity decay


class MissingGradientError(RuntimeError):
    """step() was called while a managed parameter has no gradient."""


class Optimizer:
    """SGD with momentum or adaptive moment estimation over a parameter list.

    ``step`` applies the update to every managed parameter and clears
    the gradients afterwards.
    """

    def __init__(self, params, lr: float, kind: str = "adam"):
        if kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {kind!r}")
        self.params: list[Parameter] = list(params)
        self.lr = lr
        self.kind = kind
        self.t = 0
        moments = ("m", "v") if kind == "adam" else ("m",)  # SGD keeps only its velocity
        self._state: list[dict[str, np.ndarray]] = [
            {name: np.zeros_like(p.data) for name in moments} for p in self.params
        ]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:
                raise MissingGradientError(f"parameter {p.name!r} has no gradient")
        self.t += 1
        if self.kind == "sgd":
            for p, st in zip(self.params, self._state):
                st["m"] = MOMENTUM * st["m"] + p.grad
                p.data = p.data - self.lr * st["m"]
        else:
            b1, b2 = BETAS
            bc1 = 1.0 - b1**self.t
            bc2 = 1.0 - b2**self.t
            for p, st in zip(self.params, self._state):
                st["m"] = b1 * st["m"] + (1.0 - b1) * p.grad
                st["v"] = b2 * st["v"] + (1.0 - b2) * p.grad**2
                m_hat = st["m"] / bc1
                v_hat = st["v"] / bc2
                p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + EPS)
        self.zero_grad()
