"""Two-stage side classifier over image features with a text side channel.

Stage 1 trains a small feedforward trunk jointly with a fusion layer that
concatenates the trunk output and a per-document text embedding; the text
channel is available only during training. Stage 2 freezes everything
learned and fits a fresh linear head on the trunk output alone, so test-time
prediction needs no text. The fusion weights that multiply the embedding
occupy a contiguous row block and can be zeroed to ablate the text path.
A separate sigmoid head predicts which curated words co-occur with an image.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .binio import (
    expect_magic,
    read_matrix,
    read_str,
    read_u32,
    read_vector,
    write_matrix,
    write_str,
    write_u32,
    write_vector,
)
from .corpus import ClassWeights, Corpus, Sample, SideLabel
from .errors import InputError, NumericError
from .nn import Adam, Affine, bce_with_logits, relu, softmax, weighted_cross_entropy
from .seeding import derive_seed

CHECKPOINT_MAGIC = b"WBCK"
CHECKPOINT_VERSION = 1

_SIDE_INDEX = {SideLabel.LEFT: 0, SideLabel.RIGHT: 1}
_INDEX_SIDE = (SideLabel.LEFT, SideLabel.RIGHT)


@dataclass
class TrainSpec:
    epochs: int
    lr: float = 1e-4
    batch_size: int = 64
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    class_weights: ClassWeights | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise InputError(f"epochs must be >= 0, got {self.epochs}")
        if self.lr <= 0:
            raise InputError(f"learning rate must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise InputError(f"batch size must be >= 1, got {self.batch_size}")

    def optimizer(self) -> Adam:
        return Adam(lr=self.lr, beta1=self.beta1, beta2=self.beta2, eps=self.eps)


@dataclass
class BiasModel:
    trunk1: Affine
    trunk2: Affine
    fusion: Affine
    head1: Affine
    head2: Affine | None = None
    word_head: Affine | None = None
    visual_words: list[str] = field(default_factory=list)
    history: dict[str, list[float]] = field(default_factory=dict)

    @property
    def feature_dim(self) -> int:
        return self.trunk1.in_dim

    @property
    def hidden_dim(self) -> int:
        return self.trunk2.out_dim

    @property
    def fused_dim(self) -> int:
        return self.fusion.out_dim

    @property
    def text_dim(self) -> int:
        return self.fusion.in_dim - self.trunk2.out_dim

    def parameters(self) -> dict[str, np.ndarray]:
        """Live parameter arrays keyed by name; optimizers mutate these."""
        params = {
            "trunk1_W": self.trunk1.W,
            "trunk1_b": self.trunk1.b,
            "trunk2_W": self.trunk2.W,
            "trunk2_b": self.trunk2.b,
            "fusion_W": self.fusion.W,
            "fusion_b": self.fusion.b,
            "head1_W": self.head1.W,
            "head1_b": self.head1.b,
        }
        if self.head2 is not None:
            params["head2_W"] = self.head2.W
            params["head2_b"] = self.head2.b
        if self.word_head is not None:
            params["word_W"] = self.word_head.W
            params["word_b"] = self.word_head.b
        return params

    def copy(self) -> "BiasModel":
        return BiasModel(
            trunk1=self.trunk1.copy(),
            trunk2=self.trunk2.copy(),
            fusion=self.fusion.copy(),
            head1=self.head1.copy(),
            head2=None if self.head2 is None else self.head2.copy(),
            word_head=None if self.word_head is None else self.word_head.copy(),
            visual_words=list(self.visual_words),
            history={k: list(v) for k, v in self.history.items()},
        )


def build_model(
    feature_dim: int,
    *,
    hidden: int = 256,
    fused: int = 256,
    text_dim: int = 200,
    seed: int = 0,
    dtype=np.float32,
) -> BiasModel:
    """Fresh model with variance-scaled weights and zero biases."""
    if min(feature_dim, hidden, fused, text_dim) < 1:
        raise InputError("all model dimensions must be >= 1")
    rng = np.random.default_rng(derive_seed(seed, "classifier-init"))
    return BiasModel(
        trunk1=Affine.create(rng, feature_dim, hidden, dtype),
        trunk2=Affine.create(rng, hidden, hidden, dtype),
        fusion=Affine.create(rng, hidden + text_dim, fused, dtype),
        head1=Affine.create(rng, fused, 2, dtype),
    )


def _as_batch(x, dim: int, what: str) -> tuple[np.ndarray, bool]:
    x = np.asarray(x)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise InputError(f"{what} must have {dim} columns, got shape {x.shape}")
    return x, squeeze


def _trunk_forward(model: BiasModel, x: np.ndarray):
    h1_pre = x @ model.trunk1.W + model.trunk1.b
    h1 = relu(h1_pre)
    h2_pre = h1 @ model.trunk2.W + model.trunk2.b
    return h1_pre, h1, h2_pre, relu(h2_pre)


def _fused_forward(model: BiasModel, x: np.ndarray, text: np.ndarray):
    h1_pre, h1, h2_pre, h2 = _trunk_forward(model, x)
    joint = np.concatenate([h2, text], axis=1)
    f_pre = joint @ model.fusion.W + model.fusion.b
    return h1_pre, h1, h2_pre, h2, joint, f_pre, relu(f_pre)


def forward_stage1(model: BiasModel, feature, doc_embedding) -> np.ndarray:
    """Stage-1 logits head1(fusion([trunk(x); e])); accepts single rows or
    batches."""
    x, squeeze = _as_batch(feature, model.feature_dim, "feature")
    text, _ = _as_batch(doc_embedding, model.text_dim, "doc embedding")
    if text.shape[0] != x.shape[0]:
        raise InputError(
            f"{x.shape[0]} features but {text.shape[0]} doc embeddings"
        )
    fused = _fused_forward(model, x, text)[-1]
    logits = fused @ model.head1.W + model.head1.b
    return logits[0] if squeeze else logits


def _backprop_fused(model: BiasModel, cache, dfused_pre) -> dict[str, np.ndarray]:
    """Gradients of trunk and fusion given d loss / d pre-activation fusion."""
    x, text, h1_pre, h1, h2_pre, h2, joint = cache
    hidden = model.hidden_dim
    grads = {
        "fusion_W": joint.T @ dfused_pre,
        "fusion_b": dfused_pre.sum(axis=0),
    }
    djoint = dfused_pre @ model.fusion.W.T
    dh2 = djoint[:, :hidden] * (h2_pre > 0)
    grads["trunk2_W"] = h1.T @ dh2
    grads["trunk2_b"] = dh2.sum(axis=0)
    dh1 = (dh2 @ model.trunk2.W.T) * (h1_pre > 0)
    grads["trunk1_W"] = x.T @ dh1
    grads["trunk1_b"] = dh1.sum(axis=0)
    return grads


def stage1_loss_and_grads(
    model: BiasModel,
    features: np.ndarray,
    text: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Class-weighted cross-entropy of the stage-1 head and its gradients
    for every trainable stage-1 parameter."""
    h1_pre, h1, h2_pre, h2, joint, f_pre, fused = _fused_forward(
        model, features, text
    )
    logits = fused @ model.head1.W + model.head1.b
    loss, dlogits = weighted_cross_entropy(logits, labels, weights)
    grads = {
        "head1_W": fused.T @ dlogits,
        "head1_b": dlogits.sum(axis=0),
    }
    dfused_pre = (dlogits @ model.head1.W.T) * (f_pre > 0)
    cache = (features, text, h1_pre, h1, h2_pre, h2, joint)
    grads.update(_backprop_fused(model, cache, dfused_pre))
    return loss, grads


def stage2_loss_and_grads(
    head2: Affine, trunk_out: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Weighted cross-entropy of the stage-2 linear head over frozen trunk
    outputs."""
    logits = trunk_out @ head2.W + head2.b
    loss, dlogits = weighted_cross_entropy(logits, labels, weights)
    return loss, {
        "head2_W": trunk_out.T @ dlogits,
        "head2_b": dlogits.sum(axis=0),
    }


def image_only_loss_and_grads(
    model: BiasModel, features: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Weighted cross-entropy of head2(trunk(x)) with the trunk trainable;
    the direct no-text baseline."""
    if model.head2 is None:
        raise InputError("model has no stage-2 head")
    h1_pre, h1, h2_pre, h2 = _trunk_forward(model, features)
    logits = h2 @ model.head2.W + model.head2.b
    loss, dlogits = weighted_cross_entropy(logits, labels, weights)
    grads = {
        "head2_W": h2.T @ dlogits,
        "head2_b": dlogits.sum(axis=0),
    }
    dh2 = (dlogits @ model.head2.W.T) * (h2_pre > 0)
    grads["trunk2_W"] = h1.T @ dh2
    grads["trunk2_b"] = dh2.sum(axis=0)
    dh1 = (dh2 @ model.trunk2.W.T) * (h1_pre > 0)
    grads["trunk1_W"] = features.T @ dh1
    grads["trunk1_b"] = dh1.sum(axis=0)
    return loss, grads


def word_head_loss_and_grads(
    model: BiasModel, features: np.ndarray, text: np.ndarray, targets: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Multi-label BCE of the word head with trunk and fusion trainable."""
    if model.word_head is None:
        raise InputError("model has no word head")
    h1_pre, h1, h2_pre, h2, joint, f_pre, fused = _fused_forward(
        model, features, text
    )
    logits = fused @ model.word_head.W + model.word_head.b
    loss, dlogits = bce_with_logits(logits, targets)
    grads = {
        "word_W": fused.T @ dlogits,
        "word_b": dlogits.sum(axis=0),
    }
    dfused_pre = (dlogits @ model.word_head.W.T) * (f_pre > 0)
    cache = (features, text, h1_pre, h1, h2_pre, h2, joint)
    grads.update(_backprop_fused(model, cache, dfused_pre))
    return loss, grads


def _labels_and_weights(
    samples: list[Sample], class_weights: ClassWeights | None, dtype
) -> tuple[np.ndarray, np.ndarray]:
    labels = np.array([_SIDE_INDEX[s.side] for s in samples], dtype=np.int64)
    if class_weights is None:
        return labels, np.ones(len(samples), dtype=dtype)
    weights = np.array([class_weights.of(s.side) for s in samples], dtype=dtype)
    return labels, weights


def _embedding_matrix(
    samples: list[Sample], embeddings: dict[str, np.ndarray], dtype
) -> np.ndarray:
    rows = []
    for sample in samples:
        if sample.id not in embeddings:
            raise InputError(f"no document embedding for sample {sample.id!r}")
        rows.append(embeddings[sample.id])
    try:
        return np.asarray(rows, dtype=dtype)
    except ValueError:
        raise InputError("document embeddings have inconsistent lengths") from None


def _run_epochs(
    name: str,
    spec: TrainSpec,
    n: int,
    order_rng: np.random.Generator,
    batch_step,
) -> list[float]:
    """Shared minibatch loop: seeded shuffle each epoch, Adam step per batch,
    mean loss per epoch. `batch_step(idx, adam)` returns the batch loss."""
    adam = spec.optimizer()
    losses = []
    for _ in range(spec.epochs):
        perm = order_rng.permutation(n)
        total = 0.0
        for start in range(0, n, spec.batch_size):
            idx = perm[start : start + spec.batch_size]
            loss = batch_step(idx, adam)
            if not np.isfinite(loss):
                raise NumericError(f"{name} loss diverged to {loss}")
            total += loss * len(idx)
        losses.append(total / n)
    return losses


def train_stage1(
    corpus: Corpus,
    embeddings: dict[str, np.ndarray],
    spec: TrainSpec,
    *,
    hidden: int = 256,
    fused: int = 256,
    model: BiasModel | None = None,
    dtype=np.float32,
) -> BiasModel:
    """Jointly train trunk, fusion, and the stage-1 head on image features
    plus per-document embeddings."""
    if len(corpus) == 0:
        raise InputError("cannot train on an empty corpus")
    text = _embedding_matrix(corpus.samples, embeddings, dtype)
    if model is None:
        model = build_model(
            corpus.feature_dim,
            hidden=hidden,
            fused=fused,
            text_dim=text.shape[1],
            seed=spec.seed,
            dtype=dtype,
        )
    features = corpus.features().astype(dtype, copy=False)
    labels, weights = _labels_and_weights(corpus.samples, spec.class_weights, dtype)
    params = model.parameters()

    def batch_step(idx, adam):
        loss, grads = stage1_loss_and_grads(
            model, features[idx], text[idx], labels[idx], weights[idx]
        )
        adam.step(params, grads)
        return loss

    order = np.random.default_rng(derive_seed(spec.seed, "stage1-order"))
    model.history["stage1"] = _run_epochs(
        "stage-1", spec, len(corpus), order, batch_step
    )
    return model


def train_stage2(
    model: BiasModel, corpus: Corpus, spec: TrainSpec, *, dtype=np.float32
) -> BiasModel:
    """Freeze the stage-1 parameters and fit a fresh linear head on the
    trunk output alone. The returned model's trunk, fusion, and stage-1
    head are bit-identical to the input's."""
    if len(corpus) == 0:
        raise InputError("cannot train on an empty corpus")
    out = model.copy()
    init = np.random.default_rng(derive_seed(spec.seed, "stage2-init"))
    out.head2 = Affine.create(init, out.hidden_dim, 2, dtype)
    features = corpus.features().astype(dtype, copy=False)
    trunk_out = _trunk_forward(out, features)[-1]  # frozen: compute once
    labels, weights = _labels_and_weights(corpus.samples, spec.class_weights, dtype)
    params = {"head2_W": out.head2.W, "head2_b": out.head2.b}

    def batch_step(idx, adam):
        loss, grads = stage2_loss_and_grads(
            out.head2, trunk_out[idx], labels[idx], weights[idx]
        )
        adam.step(params, grads)
        return loss

    order = np.random.default_rng(derive_seed(spec.seed, "stage2-order"))
    out.history["stage2"] = _run_epochs(
        "stage-2", spec, len(corpus), order, batch_step
    )
    return out


def train_image_only(
    corpus: Corpus,
    spec: TrainSpec,
    *,
    hidden: int = 256,
    fused: int = 256,
    text_dim: int = 200,
    dtype=np.float32,
) -> BiasModel:
    """Direct baseline: the same trunk and linear head as stage 2, but
    trained end to end on features alone, with no text stage."""
    if len(corpus) == 0:
        raise InputError("cannot train on an empty corpus")
    model = build_model(
        corpus.feature_dim,
        hidden=hidden,
        fused=fused,
        text_dim=text_dim,
        seed=spec.seed,
        dtype=dtype,
    )
    init = np.random.default_rng(derive_seed(spec.seed, "stage2-init"))
    model.head2 = Affine.create(init, hidden, 2, dtype)
    features = corpus.features().astype(dtype, copy=False)
    labels, weights = _labels_and_weights(corpus.samples, spec.class_weights, dtype)
    trainable = {
        name: array
        for name, array in model.parameters().items()
        if name.startswith(("trunk", "head2"))
    }

    def batch_step(idx, adam):
        loss, grads = image_only_loss_and_grads(
            model, features[idx], labels[idx], weights[idx]
        )
        adam.step(trainable, grads)
        return loss

    order = np.random.default_rng(derive_seed(spec.seed, "image-only-order"))
    model.history["image-only"] = _run_epochs(
        "image-only", spec, len(corpus), order, batch_step
    )
    return model


def _argmax_side(probs: np.ndarray) -> SideLabel:
    # an exact 0.5/0.5 split resolves to Left
    return _INDEX_SIDE[0 if probs[0] >= probs[1] else 1]


def predict(model: BiasModel, feature) -> tuple[SideLabel, float]:
    """Image-only prediction through the stage-2 head."""
    if model.head2 is None:
        raise InputError("stage 2 head has not been trained")
    x, _ = _as_batch(feature, model.feature_dim, "feature")
    trunk_out = _trunk_forward(model, x)[-1]
    probs = softmax(trunk_out @ model.head2.W + model.head2.b)[0]
    side = _argmax_side(probs)
    return side, float(probs[_SIDE_INDEX[side]])


def predict_batch(model: BiasModel, features) -> tuple[list[SideLabel], np.ndarray]:
    """Stage-2 predictions for a feature matrix: (labels, softmax probs)."""
    if model.head2 is None:
        raise InputError("stage 2 head has not been trained")
    x, _ = _as_batch(features, model.feature_dim, "features")
    trunk_out = _trunk_forward(model, x)[-1]
    probs = softmax(trunk_out @ model.head2.W + model.head2.b)
    sides = [_argmax_side(row) for row in probs]
    return sides, probs


def predict_stage1(model: BiasModel, feature, doc_embedding) -> tuple[SideLabel, float]:
    """Prediction through the stage-1 head, which needs the text embedding."""
    logits = forward_stage1(model, feature, doc_embedding)
    probs = softmax(np.atleast_2d(logits))[0]
    side = _argmax_side(probs)
    return side, float(probs[_SIDE_INDEX[side]])


def ablate_zero_text(model: BiasModel) -> BiasModel:
    """Copy of the model with the fusion rows that multiply the document
    embedding set to zero; its stage-1 output ignores whatever embedding is
    supplied. The input model is untouched."""
    out = model.copy()
    out.fusion.W[model.hidden_dim :, :] = 0
    return out


def select_visual_words(
    corpus: Corpus, top_n_frequent: int = 10000, keep: int = 1000
) -> list[str]:
    """Frequent words ranked by how tightly their samples' features cluster.

    Among the `top_n_frequent` most frequent corpus words, each word is
    scored by the mean squared distance of its samples' features to their
    centroid; the `keep` lowest-dispersion words win, ties alphabetical.
    Words appearing in fewer than two samples are not scoreable.
    """
    if keep < 0 or top_n_frequent < 1:
        raise InputError("top_n_frequent must be >= 1 and keep >= 0")
    if keep == 0:
        return []
    counts = Counter(token for sample in corpus for token in sample.tokens)
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n_frequent]
    candidates = {word for word, _ in top}
    occurrences: dict[str, list[int]] = {}
    for i, sample in enumerate(corpus):
        for word in set(sample.tokens) & candidates:
            occurrences.setdefault(word, []).append(i)
    features = corpus.features().astype(np.float64)
    scored = []
    for word in candidates:
        rows = occurrences.get(word, [])
        if len(rows) < 2:
            continue
        pts = features[rows]
        diff = pts - pts.mean(axis=0)
        scored.append((float(np.einsum("ij,ij->i", diff, diff).mean()), word))
    scored.sort()
    if len(scored) < keep:
        warnings.warn(
            f"only {len(scored)} of {keep} requested visual words are scoreable",
            stacklevel=2,
        )
    return [word for _, word in scored[:keep]]


def train_word_head(
    model: BiasModel,
    corpus: Corpus,
    embeddings: dict[str, np.ndarray],
    words: list[str],
    spec: TrainSpec,
    *,
    dtype=np.float32,
) -> BiasModel:
    """Fit a multi-label presence head for the given words on the fusion
    output, with trunk and fusion trainable; the side heads are untouched.
    Works on a copy of the model."""
    if not words:
        raise InputError("visual-word list is empty")
    if len(set(words)) != len(words):
        raise InputError("visual-word list contains duplicates")
    if len(corpus) == 0:
        raise InputError("cannot train on an empty corpus")
    out = model.copy()
    init = np.random.default_rng(derive_seed(spec.seed, "word-head-init"))
    out.word_head = Affine.create(init, out.fused_dim, len(words), dtype)
    out.visual_words = list(words)
    features = corpus.features().astype(dtype, copy=False)
    text = _embedding_matrix(corpus.samples, embeddings, dtype)
    index = {word: j for j, word in enumerate(words)}
    targets = np.zeros((len(corpus), len(words)), dtype=dtype)
    for i, sample in enumerate(corpus):
        for word in set(sample.tokens):
            j = index.get(word)
            if j is not None:
                targets[i, j] = 1.0
    trainable = {
        name: array
        for name, array in out.parameters().items()
        if not name.startswith(("head1", "head2"))
    }

    def batch_step(idx, adam):
        loss, grads = word_head_loss_and_grads(
            out, features[idx], text[idx], targets[idx]
        )
        adam.step(trainable, grads)
        return loss

    order = np.random.default_rng(derive_seed(spec.seed, "word-order"))
    out.history["words"] = _run_epochs(
        "word-head", spec, len(corpus), order, batch_step
    )
    return out


def rank_images_for_word(
    model: BiasModel,
    corpus: Corpus,
    embeddings: dict[str, np.ndarray],
    word: str,
    top: int = 100,
) -> list[str]:
    """Sample ids sorted by the word head's presence score, best first."""
    if model.word_head is None:
        raise InputError("word head has not been trained")
    try:
        column = model.visual_words.index(word)
    except ValueError:
        raise InputError(f"{word!r} is not a trained visual word") from None
    if top <= 0:
        return []
    dtype = model.word_head.W.dtype
    features = corpus.features().astype(dtype, copy=False)
    text = _embedding_matrix(corpus.samples, embeddings, dtype)
    fused = _fused_forward(model, features, text)[-1]
    logits = fused @ model.word_head.W[:, column] + model.word_head.b[column]
    order = sorted(zip(-logits.astype(np.float64), corpus.ids()))
    return [sid for _, sid in order[:top]]


def save_checkpoint(model: BiasModel, path: str) -> None:
    """Binary checkpoint; arrays stored as little-endian float32. Training
    history is a run artifact and is not persisted."""
    if model.word_head is not None and model.word_head.out_dim != len(
        model.visual_words
    ):
        raise InputError(
            f"word head has {model.word_head.out_dim} outputs but "
            f"{len(model.visual_words)} visual words"
        )
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        write_u32(fh, CHECKPOINT_VERSION)
        write_u32(fh, model.feature_dim)
        write_u32(fh, model.hidden_dim)
        write_u32(fh, model.fused_dim)
        write_u32(fh, model.text_dim)
        write_u32(fh, 0 if model.head2 is None else 1)
        write_u32(fh, 0 if model.word_head is None else 1)
        write_u32(fh, len(model.visual_words))
        for word in model.visual_words:
            write_str(fh, word)
        for layer in (model.trunk1, model.trunk2, model.fusion, model.head1):
            write_matrix(fh, layer.W)
            write_vector(fh, layer.b)
        if model.head2 is not None:
            write_matrix(fh, model.head2.W)
            write_vector(fh, model.head2.b)
        if model.word_head is not None:
            write_matrix(fh, model.word_head.W)
            write_vector(fh, model.word_head.b)


def load_checkpoint(path: str) -> BiasModel:
    with open(path, "rb") as fh:
        expect_magic(fh, CHECKPOINT_MAGIC)
        version = read_u32(fh)
        if version != CHECKPOINT_VERSION:
            raise InputError(f"unsupported checkpoint version {version}")
        feature_dim = read_u32(fh)
        hidden = read_u32(fh)
        fused = read_u32(fh)
        text_dim = read_u32(fh)
        has_head2 = read_u32(fh)
        has_word_head = read_u32(fh)
        n_words = read_u32(fh)
        words = [read_str(fh) for _ in range(n_words)]
        if len(set(words)) != len(words):
            raise InputError("checkpoint visual words are not unique")

        def affine(name: str, in_dim: int, out_dim: int) -> Affine:
            layer = Affine(read_matrix(fh, in_dim, out_dim), read_vector(fh, out_dim))
            for array, values in (("W", layer.W), ("b", layer.b)):
                if not np.all(np.isfinite(values)):
                    raise InputError(f"checkpoint has a non-finite value in {name} {array}")
            return layer

        model = BiasModel(
            trunk1=affine("trunk1", feature_dim, hidden),
            trunk2=affine("trunk2", hidden, hidden),
            fusion=affine("fusion", hidden + text_dim, fused),
            head1=affine("head1", fused, 2),
            visual_words=words,
        )
        if has_head2:
            model.head2 = affine("head2", hidden, 2)
        if has_word_head:
            model.word_head = affine("word_head", fused, n_words)
        if fh.read(1):
            raise InputError("trailing bytes after checkpoint payload")
    return model
