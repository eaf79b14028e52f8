"""Two-stage side classifier over image features with a text side channel.

Stage 1 trains a small feedforward trunk jointly with a fusion layer that
concatenates the trunk output and a per-document text embedding; the text
channel is available only during training. Stage 2 freezes everything
learned and fits a fresh linear head on the trunk output alone, so test-time
prediction needs no text. The fusion weights that multiply the embedding
occupy a contiguous row block and can be zeroed to ablate the text path.
A separate sigmoid head predicts which curated words co-occur with an image.

One ordered table, LAYERS, names every layer: the model's layers, its
parameters, its copy and the checkpoint all follow it. Training and
prediction share one forward over a run of rectified layers, which keeps no
pre-activation; when training, it records each layer's input and output.
One loss function serves every head: the forward over the layers below the
head, the head's loss, then one affine backward step per recorded layer,
masked by that layer's output. The four trainers (stage 1, stage 2, the word
head and the direct image-only baseline) differ only in their set-up, loss
and trained layers; one minibatch Adam loop fits them all. It makes the
trained W and b arrays views of one flat parameter vector and has the
backward steps write their gradients into views of one flat gradient buffer,
so an Adam step is one pass over two vectors. Every prediction takes the
same argmax over (Left, Right) scores, in which a tie is Left.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .binio import (
    atomic_write,
    finite_in_float32,
    header_field,
    read_header,
    read_matrix,
    read_vector,
    write_header,
    write_matrix,
    write_vector,
)
from .corpus import ClassWeights, Corpus, Sample, SideLabel, row_block
from .errors import InputError, NumericError
from .nn import Adam, Affine, bce_with_logits, softmax, weighted_cross_entropy
from .seeding import derive_seed

CHECKPOINT_MAGIC = b"WBCK"
CHECKPOINT_VERSION = 2

# Every layer a model can have, in checkpoint order; a layer's name is the
# BiasModel field holding it and the prefix of its parameter names.
LAYERS = ("trunk1", "trunk2", "fusion", "head1", "head2", "word_head")
_TRUNK = LAYERS[:2]
_FUSED = LAYERS[:3]

_SIDE_INDEX = {SideLabel.LEFT: 0, SideLabel.RIGHT: 1}
_INDEX_SIDE = (SideLabel.LEFT, SideLabel.RIGHT)


@dataclass
class TrainSpec:
    epochs: int
    lr: float = 1e-4
    batch_size: int = 64
    class_weights: ClassWeights | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise InputError(f"epochs must be >= 0, got {self.epochs}")
        if not 0 < self.lr < np.inf:
            raise InputError(f"learning rate must be finite and > 0, got {self.lr}")
        if self.batch_size < 1:
            raise InputError(f"batch size must be >= 1, got {self.batch_size}")


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

    def layers(self) -> dict[str, Affine]:
        """The present layers in LAYERS order, keyed by name."""
        layers = {name: getattr(self, name) for name in LAYERS}
        return {name: layer for name, layer in layers.items() if layer is not None}

    def parameters(self) -> dict[str, np.ndarray]:
        """Live parameter arrays keyed by name, the names loss_and_grads
        stores their gradients under."""
        return {f"{name}_{attr}": getattr(layer, attr)
                for name, layer in self.layers().items() for attr in ("W", "b")}

    def copy(self) -> "BiasModel":
        layers = {name: layer.copy() for name, layer in self.layers().items()}
        return replace(self, **layers, visual_words=list(self.visual_words),
                       history={k: list(v) for k, v in self.history.items()})


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


def _dense_relu(x: np.ndarray, layer: Affine) -> np.ndarray:
    """max(x @ W + b, 0) in one array: the bias add and the rectifier run in
    place on the product. W and b share a dtype, so the add is the IEEE add
    of `x @ W + b`. loss_and_grads takes its masks from the output: h > 0
    exactly where x @ W + b > 0, for ±0, NaN and ±inf too."""
    h = x @ layer.W
    h += layer.b
    return np.maximum(h, 0, out=h)


def _forward(model: BiasModel, names, x: np.ndarray, text=None, steps=None) -> np.ndarray:
    """The output of the named rectified layers run in order on x, `text`
    joined to the input of the fusion layer. With a `steps` list, each
    layer's (name, input, output) is appended to it for the backward pass;
    without one, each array is dropped as soon as the next one exists."""
    for name in names:
        if name == "fusion":
            x = np.concatenate([x, text], axis=1)
        layer = getattr(model, name)
        if steps is None:
            x = _dense_relu(x, layer)
        else:
            steps.append((name, x, _dense_relu(x, layer)))
            x = steps[-1][2]
    return x


def forward_stage1(model: BiasModel, feature, doc_embedding) -> np.ndarray:
    """Stage-1 logits head1(fusion([trunk(x); e])); accepts single rows or
    batches."""
    x, squeeze = _as_batch(feature, model.feature_dim, "feature")
    text, _ = _as_batch(doc_embedding, model.text_dim, "doc embedding")
    if text.shape[0] != x.shape[0]:
        raise InputError(
            f"{x.shape[0]} features but {text.shape[0]} doc embeddings"
        )
    logits = model.head1(_forward(model, _FUSED, x, text))
    return logits[0] if squeeze else logits


def _affine_backward(grads: dict, name: str, x: np.ndarray, dy: np.ndarray, W=None):
    """Store the gradients of `<name>_W` and `<name>_b` in y = x @ W + b
    given d loss / d y, written into the arrays `grads` already holds under
    those names if it does; return d loss / d x when the layer's `W` is
    given."""
    grads[f"{name}_W"] = np.matmul(x.T, dy, out=grads.get(f"{name}_W"))
    grads[f"{name}_b"] = np.add.reduce(dy, axis=0, out=grads.get(f"{name}_b"))
    return None if W is None else dy @ W.T


def loss_and_grads(
    model: BiasModel, trained, loss_fn, inputs, targets, grads: dict | None = None
) -> tuple[float, dict[str, np.ndarray]]:
    """loss_fn(logits, *targets) of the head trained[-1] on the forward of
    the layers trained[:-1] over `inputs` (the features, or the frozen trunk
    output, then the text embedding if a fusion layer is trained), and the
    gradients of every trained layer, stored in `grads` (written into the
    arrays it holds, when given). Each rectified layer's gradient is masked
    by its output, and its arrays are dropped once its gradients are
    stored."""
    head = getattr(model, trained[-1])
    if head is None:
        raise InputError(f"model has no {trained[-1]} layer")
    steps = []
    x = _forward(model, trained[:-1], *inputs, steps=steps)
    loss, d = loss_fn(head(x), *targets)
    grads = {} if grads is None else grads
    d = _affine_backward(grads, trained[-1], x, d, head.W if steps else None)
    del x  # so that, popped, each layer's input and output are freed once it is done
    while steps:
        name, inp, out = steps.pop()
        d = d[:, : out.shape[1]] * (out > 0)
        d = _affine_backward(grads, name, inp, d, getattr(model, name).W if steps else None)
    return loss, grads


def _training_data(corpus: Corpus, spec: TrainSpec):
    """Features, side labels and per-sample loss weights of a non-empty
    corpus, in float32; the weights are all 1 without class weights."""
    if len(corpus) == 0:
        raise InputError("cannot train on an empty corpus")
    features = corpus.features().astype(np.float32, copy=False)
    labels = np.array([_SIDE_INDEX[s.side] for s in corpus], dtype=np.int64)
    if spec.class_weights is None:
        return features, labels, np.ones(len(corpus), dtype=np.float32)
    weights = [spec.class_weights.of(s.side) for s in corpus]
    return features, labels, np.array(weights, dtype=np.float32)


def embedding_matrix(
    samples: list[Sample], embeddings: dict[str, np.ndarray], dtype
) -> np.ndarray:
    """The samples' document embeddings in order, one row each. A sidecar
    from load_embeddings whose ids run in the samples' order comes back as
    its read-only float32 block (row_block) when dtype is float32; any other
    dict is stacked."""
    if np.dtype(dtype) == np.float32 and list(embeddings) == [s.id for s in samples]:
        block = row_block(list(embeddings.values()))
        if block is not None:
            return block
    rows = []
    for sample in samples:
        if sample.id not in embeddings:
            raise InputError(f"no document embedding for sample {sample.id!r}")
        rows.append(embeddings[sample.id])
    try:
        return np.asarray(rows, dtype=dtype)
    except ValueError:
        raise InputError("document embeddings have inconsistent lengths") from None


# history key -> (order sub-seed, name in a divergence error, trained layers
# ending with the head, loss)
_FITS = {
    "stage1": ("stage1-order", "stage-1", _FUSED + ("head1",), weighted_cross_entropy),
    "stage2": ("stage2-order", "stage-2", ("head2",), weighted_cross_entropy),
    "image-only": ("image-only-order", "image-only", _TRUNK + ("head2",),
                   weighted_cross_entropy),
    "words": ("word-order", "word-head", _FUSED + ("word_head",), bce_with_logits),
}


def _aligned_zeros(n: int, dtype) -> np.ndarray:
    """n zeros of dtype starting on a 64-byte boundary."""
    dtype = np.dtype(dtype)
    raw = np.zeros(n + 64 // dtype.itemsize, dtype)
    skip = -raw.ctypes.data % 64 // dtype.itemsize
    return raw[skip : skip + n]


def _flat_views(model: BiasModel, trained) -> tuple[np.ndarray, np.ndarray, dict]:
    """Rebind the W and b arrays of the trained layers as views of one flat
    vector holding their values, in layer order; return it, a flat gradient
    buffer laid out alike, and views of that buffer keyed by parameter name.
    Each view starts on a 64-byte boundary, zeros padding the gaps: some
    OpenBLAS kernels (Prescott) round a dot product of an array 8 bytes off
    a 16-byte boundary differently, and numpy allocates on 16 bytes."""
    layers = model.layers()
    arrays = [(f"{name}_{attr}", layers[name], attr) for name in trained for attr in ("W", "b")]
    dtype = layers[trained[0]].W.dtype
    unit, starts, size = 64 // dtype.itemsize, [], 0
    for _, layer, attr in arrays:
        starts.append(size)
        size += -(-getattr(layer, attr).size // unit) * unit
    flat, grad, grads = _aligned_zeros(size, dtype), _aligned_zeros(size, dtype), {}
    for (key, layer, attr), start in zip(arrays, starts):
        value = getattr(layer, attr)
        view = flat[start : start + value.size].reshape(value.shape)
        view[...] = value
        setattr(layer, attr, view)
        grads[key] = grad[start : start + value.size].reshape(value.shape)
    return flat, grad, grads


def _fit(model: BiasModel, key: str, spec: TrainSpec, inputs, targets):
    """Minibatch Adam over the rows of `inputs` and `targets`: a seeded
    shuffle each epoch, one step per batch on the layers _FITS trains for
    `key`, with its loss, and the mean loss per epoch recorded as
    model.history[key]. loss_and_grads writes each batch's gradients into
    views of one flat buffer, and the trained W and b arrays become views of
    one flat vector (_flat_views), which Adam updates in place. Returns the
    model."""
    order_seed, name, trained, loss_fn = _FITS[key]
    order = np.random.default_rng(derive_seed(spec.seed, order_seed))
    params, grad, grads = _flat_views(model, trained)
    adam = Adam(params, lr=spec.lr)
    n = len(inputs[0])
    losses = []
    for _ in range(spec.epochs):
        perm = order.permutation(n)
        total = 0.0
        for start in range(0, n, spec.batch_size):
            idx = perm[start : start + spec.batch_size]
            loss, _ = loss_and_grads(model, trained, loss_fn, [a[idx] for a in inputs],
                                     [a[idx] for a in targets], grads)
            adam.step(grad)
            if not np.isfinite(loss):
                raise NumericError(f"{name} loss diverged to {loss}")
            total += loss * len(idx)
        losses.append(total / n)
    model.history[key] = losses
    return model


def train_stage1(
    corpus: Corpus,
    embeddings: dict[str, np.ndarray],
    spec: TrainSpec,
    *,
    hidden: int = 256,
    fused: int = 256,
) -> BiasModel:
    """Jointly train trunk, fusion, and the stage-1 head on image features
    plus per-document embeddings."""
    features, labels, weights = _training_data(corpus, spec)
    text = embedding_matrix(corpus.samples, embeddings, np.float32)
    model = build_model(
        corpus.feature_dim, hidden=hidden, fused=fused, text_dim=text.shape[1], seed=spec.seed
    )
    return _fit(model, "stage1", spec, (features, text), (labels, weights))


def train_stage2(model: BiasModel, corpus: Corpus, spec: TrainSpec) -> BiasModel:
    """Freeze the stage-1 parameters and fit a fresh linear head on the
    trunk output alone. The returned model's trunk, fusion, and stage-1
    head are bit-identical to the input's."""
    features, labels, weights = _training_data(corpus, spec)
    out = model.copy()
    init = np.random.default_rng(derive_seed(spec.seed, "stage2-init"))
    out.head2 = Affine.create(init, out.hidden_dim, 2, np.float32)
    trunk_out = _forward(out, _TRUNK, features)  # frozen: compute once
    return _fit(out, "stage2", spec, (trunk_out,), (labels, weights))


def train_image_only(
    corpus: Corpus,
    spec: TrainSpec,
    *,
    hidden: int = 256,
    fused: int = 256,
    text_dim: int = 200,
) -> BiasModel:
    """Direct baseline: the same trunk and linear head as stage 2, but
    trained end to end on features alone, with no text stage."""
    features, labels, weights = _training_data(corpus, spec)
    model = build_model(
        corpus.feature_dim, hidden=hidden, fused=fused, text_dim=text_dim, seed=spec.seed
    )
    init = np.random.default_rng(derive_seed(spec.seed, "stage2-init"))
    model.head2 = Affine.create(init, hidden, 2, np.float32)
    return _fit(model, "image-only", spec, (features,), (labels, weights))


def argmax_sides(scores: np.ndarray) -> list[SideLabel]:
    """Per row of (Left, Right) scores, the side scored higher; an exact tie
    resolves to Left."""
    left = scores[:, 0] >= scores[:, 1]
    return [_INDEX_SIDE[0 if is_left else 1] for is_left in left.tolist()]


def predict_batch(model: BiasModel, features) -> tuple[list[SideLabel], np.ndarray]:
    """Stage-2 predictions for a feature matrix: (labels, softmax probs)."""
    if model.head2 is None:
        raise InputError("stage 2 head has not been trained")
    x, _ = _as_batch(features, model.feature_dim, "features")
    probs = softmax(model.head2(_forward(model, _TRUNK, x)))
    return argmax_sides(probs), probs


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
) -> BiasModel:
    """Fit a multi-label presence head for the given words on the fusion
    output, with trunk and fusion trainable; the side heads are untouched.
    Works on a copy of the model."""
    if not words:
        raise InputError("visual-word list is empty")
    if len(set(words)) != len(words):
        raise InputError("visual-word list contains duplicates")
    features = _training_data(corpus, spec)[0]
    out = model.copy()
    init = np.random.default_rng(derive_seed(spec.seed, "word-head-init"))
    out.word_head = Affine.create(init, out.fused_dim, len(words), np.float32)
    out.visual_words = list(words)
    text = embedding_matrix(corpus.samples, embeddings, np.float32)
    index = {word: j for j, word in enumerate(words)}
    targets = np.zeros((len(corpus), len(words)), dtype=np.float32)
    for i, sample in enumerate(corpus):
        for word in set(sample.tokens):
            j = index.get(word)
            if j is not None:
                targets[i, j] = 1.0
    return _fit(out, "words", spec, (features, text), (targets,))


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
    text = embedding_matrix(corpus.samples, embeddings, dtype)
    fused = _forward(model, _FUSED, features, text)
    logits = fused @ model.word_head.W[:, column] + model.word_head.b[column]
    order = sorted(zip(-logits.astype(np.float64), corpus.ids()))
    return [sid for _, sid in order[:top]]


def _layer_shapes(header: dict) -> dict[str, tuple[int, int]]:
    """(in, out) of each layer a checkpoint header says is present, in file
    order, from its dims, layer names and visual words."""
    dims = {key: header_field(header, key, int) for key in ("feature_dim", "hidden", "fused",
                                                             "text_dim")}
    for key, value in dims.items():
        if value < 1:
            raise InputError(f"checkpoint {key} must be >= 1, got {value}")
    words = header_field(header, "visual_words", list, str)
    if len(set(words)) != len(words):
        raise InputError("checkpoint visual words are not unique")
    feature, hidden, fused, text = dims.values()
    shapes = {"trunk1": (feature, hidden), "trunk2": (hidden, hidden),
              "fusion": (hidden + text, fused), "head1": (fused, 2), "head2": (hidden, 2),
              "word_head": (fused, len(words))}
    layers = header_field(header, "layers", list, str)
    if layers != [name for i, name in enumerate(LAYERS) if i < 4 or name in layers]:
        raise InputError("checkpoint layers must be trunk1, trunk2, fusion and head1, "
                         "then head2 and word_head if present")
    return {name: shapes[name] for name in layers}


def save_checkpoint(model: BiasModel, path: str) -> None:
    """Binary checkpoint: a header with the four dims, the present layers
    and the visual words, then each layer's W and b as little-endian
    float32. Training history is a run artifact and is not persisted. A
    model whose layers do not have the shapes the header gives, or hold a
    value not finite in float32, raises InputError before the file is
    opened."""
    layers = model.layers()
    header = {"feature_dim": model.feature_dim, "hidden": model.hidden_dim,
              "fused": model.fused_dim, "text_dim": model.text_dim, "layers": list(layers),
              "visual_words": model.visual_words}
    for name, (n_in, n_out) in _layer_shapes(header).items():
        W, b = layers[name].W, layers[name].b
        if W.shape != (n_in, n_out) or b.shape != (n_out,):
            raise InputError(f"{name} has shapes {W.shape} and {b.shape}, but the dims "
                             f"and {len(model.visual_words)} visual words need {(n_in, n_out)}")
        for array, values in (("W", W), ("b", b)):
            if not finite_in_float32(values):
                raise InputError(f"model has a non-finite value in {name} {array}")
    with atomic_write(path, binary=True) as fh:
        write_header(fh, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header)
        for layer in layers.values():
            write_matrix(fh, layer.W)
            write_vector(fh, layer.b)


def load_checkpoint(path: str) -> BiasModel:
    with open(path, "rb") as fh:
        header = read_header(fh, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
        layers = {}
        for name, (n_in, n_out) in _layer_shapes(header).items():
            layers[name] = Affine(read_matrix(fh, n_in, n_out), read_vector(fh, n_out))
            for array in ("W", "b"):
                if not np.all(np.isfinite(getattr(layers[name], array))):
                    raise InputError(f"checkpoint has a non-finite value in {name} {array}")
        if fh.read(1):
            raise InputError("trailing bytes after checkpoint payload")
    return BiasModel(**layers, visual_words=header["visual_words"])
