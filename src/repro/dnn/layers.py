"""Neural-network layers on numpy.

A small inference/training substrate standing in for PyTorch in the fault
studies (README.md, "Substitutions"): dense layers with ReLU, softmax
cross-entropy, and enough backward-pass machinery for deterministic SGD
training on the synthetic tasks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ReproError


class Dense:
    """A fully-connected layer: ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ReproError("layer dimensions must be positive")
        rng = rng or np.random.default_rng(0)
        limit = np.sqrt(6.0 / (in_features + out_features))
        self.weight = rng.uniform(-limit, limit, size=(in_features, out_features)).astype(
            np.float32
        )
        self.bias = np.zeros(out_features, dtype=np.float32)
        self._input: Optional[np.ndarray] = None
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        return x @ self.weight + self.bias

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise ReproError("backward called before forward")
        self.grad_weight = self._input.T @ grad_out
        self.grad_bias = grad_out.sum(axis=0)
        return grad_out @ self.weight.T

    def step(self, learning_rate: float) -> None:
        self.weight -= learning_rate * self.grad_weight
        self.bias -= learning_rate * self.grad_bias

    @property
    def parameters(self) -> int:
        return self.weight.size + self.bias.size


class ReLU:
    """Rectified linear activation."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ReproError("backward called before forward")
        return grad_out * self._mask

    def step(self, learning_rate: float) -> None:  # stateless
        pass


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise numerically-stable softmax."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def cross_entropy_grad(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """(mean loss, dLoss/dLogits) for integer labels."""
    n = logits.shape[0]
    probs = softmax(logits)
    eps = 1e-12
    loss = float(-np.log(probs[np.arange(n), labels] + eps).mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n
