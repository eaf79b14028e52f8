"""Dense-layer building blocks: affine maps, losses, and Adam.

Everything operates on plain numpy arrays with batch-first shapes. Weight
matrices are stored (in_dim, out_dim) so a forward pass is `x @ W + b`;
gradients come back in the same layout. Losses return (value, dlogits) so
each model assembles its own backward pass from one chain of matmuls. Adam
works on one flat parameter vector, of which a model's trained arrays are
views, so a step costs a fixed number of array operations however many
arrays the model has. It builds its chunk views once per gradient buffer,
not once per step, so a step runs nothing but those operations.
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


# Elements per chunk of an Adam step; its two scratch rows are this long.
# Stage 1 at the paper's widths has 199,938 parameters: 7 chunks of 32,768
# where 16,384 made 13, so a step makes 98 ufunc calls instead of 182, for
# 128 KiB more float32 scratch.
_ADAM_CHUNK = 32768


@dataclass
class Adam:
    """Adam with bias correction over one flat parameter vector, updated in
    place. The state is two arrays of its size, the first and second
    moments. A step makes one pass over the vector in _ADAM_CHUNK-element
    chunks, each a run of in-place ufuncs into two chunk-sized scratch
    rows. The chunk views of the parameters, the gradient buffer, both
    moments and the scratch are built once, at the first step with a given
    gradient buffer, and again only when a step is given another one, so a
    step makes no Python-level call per chunk: a trainer that refills one
    buffer pays per step only the ufuncs. Each ufunc is the IEEE operation
    of the plain per-array expression (commuted at most), so every element
    gets the bits of

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
        self._grad, self._chunks = None, []

    def _chunk_views(self, grad: np.ndarray) -> list[tuple[np.ndarray, ...]]:
        """Per chunk, the views (p, g, m, v, a, b) of the parameters, grad,
        the moments and the two scratch rows that a step works on."""
        chunks = []
        for start in range(0, self.params.size, _ADAM_CHUNK):
            span = slice(start, start + _ADAM_CHUNK)
            p = self.params[span]
            chunks.append((p, grad[span], self._m[span], self._v[span],
                           self._scratch[0, : p.size], self._scratch[1, : p.size]))
        return chunks

    def step(self, grad: np.ndarray) -> None:
        """One update of the parameters by `grad`, a vector of their size."""
        if grad is not self._grad:
            self._grad, self._chunks = grad, self._chunk_views(grad)
        self.t += 1
        # 0-d arrays of the parameters' dtype: a ufunc takes one in about half
        # the time it takes a Python float, which it rounds to that dtype too.
        c1, c2, m_corr, v_corr, lr, eps = [np.array(x, self.params.dtype) for x in (
            1.0 - self.beta1, 1.0 - self.beta2, 1.0 - self.beta1**self.t,
            1.0 - self.beta2**self.t, self.lr, self.eps)]
        add, subtract, multiply, divide, sqrt = np.add, np.subtract, np.multiply, np.divide, np.sqrt
        for p, g, m, v, a, b in self._chunks:
            subtract(g, m, a)
            multiply(a, c1, a)
            add(m, a, m)
            multiply(g, g, a)
            subtract(a, v, a)
            multiply(a, c2, a)
            add(v, a, v)
            divide(m, m_corr, a)
            multiply(a, lr, a)
            divide(v, v_corr, b)
            sqrt(b, b)
            add(b, eps, b)
            divide(a, b, a)
            subtract(p, a, p)
