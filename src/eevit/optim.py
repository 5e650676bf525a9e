"""Gradient-descent optimizers over named parameters."""

from __future__ import annotations

import numpy as np

from .layers import Parameter

BETAS = (0.9, 0.999)  # Adam's first- and second-moment decay
EPS = 1e-8  # Adam's denominator floor


class MissingGradientError(RuntimeError):
    """step() was called while a managed parameter has no gradient."""


class Optimizer:
    """SGD with momentum or adaptive moment estimation over a parameter list.

    ``step`` applies the update to every managed parameter and clears
    the gradients afterwards.
    """

    def __init__(
        self,
        params,
        lr: float,
        kind: str = "adam",
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ):
        if kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {kind!r}")
        self.params: list[Parameter] = list(params)
        self.lr = lr
        self.kind = kind
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.t = 0
        self._state: list[dict[str, np.ndarray]] = [
            {
                "m": np.zeros_like(p.data),
                "v": np.zeros_like(p.data),
            }
            for p in self.params
        ]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:
                raise MissingGradientError(f"parameter {p.name!r} has no gradient")
        self.t += 1
        if self.weight_decay > 0.0:
            # Decoupled decay: shrink weights directly, independent of the gradient.
            for p in self.params:
                p.data = p.data * (1.0 - self.lr * self.weight_decay)
        if self.kind == "sgd":
            for p, st in zip(self.params, self._state):
                if self.momentum > 0.0:
                    st["m"] = self.momentum * st["m"] + p.grad
                    update = st["m"]
                else:
                    update = p.grad
                p.data = p.data - self.lr * update
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
