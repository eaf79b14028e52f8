"""Dense-layer building blocks: affine maps, losses, and Adam.

Everything operates on plain numpy arrays with batch-first shapes. Weight
matrices are stored (in_dim, out_dim) so a forward pass is `x @ W + b`;
gradients come back in the same layout. Losses return (value, dlogits) so
each model assembles its own backward pass from one chain of matmuls. Adam
works on one flat parameter vector, of which a model's trained arrays are
views, so a step costs a fixed number of array operations however many
arrays the model has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError


def glorot_uniform(
    rng: np.random.Generator, fan_in: int, fan_out: int, dtype=np.float32
) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


@dataclass
class Affine:
    W: np.ndarray  # (in_dim, out_dim)
    b: np.ndarray  # (out_dim,)

    @classmethod
    def create(
        cls, rng: np.random.Generator, in_dim: int, out_dim: int, dtype=np.float32
    ) -> "Affine":
        return cls(
            W=glorot_uniform(rng, in_dim, out_dim, dtype),
            b=np.zeros(out_dim, dtype=dtype),
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x @ self.W + self.b

    @property
    def in_dim(self) -> int:
        return self.W.shape[0]

    @property
    def out_dim(self) -> int:
        return self.W.shape[1]

    def copy(self) -> "Affine":
        return Affine(self.W.copy(), self.b.copy())


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stable under large logits."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def weighted_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean over the batch of w_i * CE(logits_i, label_i).

    Returns the loss and its gradient with respect to the logits.
    """
    n = logits.shape[0]
    if labels.shape[0] != n or weights.shape[0] != n:
        raise InputError(
            f"batch size mismatch: {n} logits, {labels.shape[0]} labels, "
            f"{weights.shape[0]} weights"
        )
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    z = ex.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    log_probs = shifted[rows, labels] - np.log(z[:, 0])
    loss = float((-weights * log_probs).mean())
    dlogits = np.divide(ex, z, out=ex)  # softmax(logits), from the same exp and sums
    dlogits[rows, labels] -= 1.0
    dlogits *= (weights / n)[:, None]
    return loss, dlogits


def bce_with_logits(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Multi-label binary cross-entropy, summed over outputs, batch-averaged.

    Uses the overflow-safe form max(z,0) - z*t + log(1 + exp(-|z|)); with
    all-zero logits every output contributes ln 2.
    """
    if logits.shape != targets.shape:
        raise InputError(
            f"logits shape {logits.shape} != targets shape {targets.shape}"
        )
    n = logits.shape[0]
    per_elem = (
        np.maximum(logits, 0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
    )
    loss = float(per_elem.sum() / n)
    sig = np.exp(-np.logaddexp(0.0, -logits))  # sigmoid without overflow
    dlogits = (sig - targets) / n
    return loss, dlogits


# Elements per chunk of an Adam step; its two scratch buffers are this long.
_ADAM_CHUNK = 16384


@dataclass
class Adam:
    """Adam with bias correction over one flat parameter vector, updated in
    place. The state is two arrays of its size, the first and second
    moments. A step makes one pass over the vector in _ADAM_CHUNK-element
    chunks, each a run of in-place ufuncs into two chunk-sized scratch
    buffers. Each ufunc is the IEEE operation of the plain per-array
    expression (commuted at most), so every element gets the bits of

        m += (1 - beta1) * (g - m)
        v += (1 - beta2) * (g * g - v)
        p -= lr * (m / m_corr) / (sqrt(v / v_corr) + eps)

    with m_corr = 1 - beta1**t and v_corr = 1 - beta2**t. An element whose
    gradient is always 0 keeps its value."""

    params: np.ndarray  # flat
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0

    def __post_init__(self) -> None:
        self._m = np.zeros_like(self.params)
        self._v = np.zeros_like(self.params)
        self._scratch = np.empty((2, min(self.params.size, _ADAM_CHUNK)), self.params.dtype)

    def step(self, grad: np.ndarray) -> None:
        """One update of the parameters by `grad`, a vector of their size."""
        self.t += 1
        m_corr = 1.0 - self.beta1**self.t
        v_corr = 1.0 - self.beta2**self.t
        c1, c2, lr, eps = 1.0 - self.beta1, 1.0 - self.beta2, self.lr, self.eps
        for start in range(0, self.params.size, _ADAM_CHUNK):
            end = start + _ADAM_CHUNK
            p, g, m, v = (a[start:end] for a in (self.params, grad, self._m, self._v))
            a, b = self._scratch[0, : p.size], self._scratch[1, : p.size]
            np.subtract(g, m, out=a)
            a *= c1
            m += a
            np.multiply(g, g, out=a)
            a -= v
            a *= c2
            v += a
            np.divide(m, m_corr, out=a)
            a *= lr
            np.divide(v, v_corr, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            p -= a
