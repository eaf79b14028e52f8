"""Builders for tiny hand-made corpora used across the test suite, the
PV-DM oracles (the position plan, the per-position loss and its gradients,
and the hierarchical-softmax probability) and the classifier's oracles (a
forward that keeps every pre-activation and the gradients masked by them,
name-keyed Adam and the minibatch loop) that the trainers and the
acceptance checks are tested against, the mutations the binary-file fuzz
tests apply, and a counter of the Python-level calls a function makes."""

import gc
import json
import struct
import sys
from collections import Counter

import numpy as np
from hypothesis import strategies as st

from weakbias.classifier import _FITS, loss_and_grads
from weakbias.corpus import Corpus, Sample, SideLabel
from weakbias.doc2vec import PvdmModel
from weakbias.errors import InputError
from weakbias.nn import Affine
from weakbias.seeding import derive_seed


def make_sample(sample_id, text, side, source="src", topics=(), feature=None, dim=4):
    if feature is None:
        rng = np.random.default_rng(sum(ord(c) for c in sample_id) % (2**32))
        feature = rng.normal(size=dim)
    vec = np.asarray(feature, dtype=np.float32)
    return Sample(
        id=sample_id,
        feature=vec,
        side=side,
        source=source,
        topics=frozenset(topics),
        raw_text=text,
    )


def make_corpus(rows, dim=4):
    """rows: iterable of (id, text, side[, source])."""
    samples = []
    for row in rows:
        sample_id, text, side = row[0], row[1], row[2]
        source = row[3] if len(row) > 3 else "src"
        samples.append(make_sample(sample_id, text, side, source=source, dim=dim))
    return Corpus(dim, samples)


class NamedAdam:
    """The plain Adam expression, one parameter array at a time with state
    keyed by name: the oracle of nn.Adam's flat, chunked step."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t, self.state = 0, {}

    def step(self, params, grads):
        self.t += 1
        m_corr = 1.0 - self.beta1**self.t
        v_corr = 1.0 - self.beta2**self.t
        for name, grad in grads.items():
            param = params[name]
            m, v = self.state.setdefault(name, (np.zeros_like(param), np.zeros_like(param)))
            m += (1.0 - self.beta1) * (grad - m)
            v += (1.0 - self.beta2) * (grad * grad - v)
            param -= self.lr * (m / m_corr) / (np.sqrt(v / v_corr) + self.eps)


def reference_fit(model, key, spec, inputs, targets):
    """The minibatch loop classifier._fit restructures: the same seeded
    shuffle and batches, fresh gradients from loss_and_grads on each batch
    and a NamedAdam step on the parameters they are given for; the mean loss
    per epoch goes to model.history[key]."""
    order_seed, _, trained, loss_fn = _FITS[key]
    order = np.random.default_rng(derive_seed(spec.seed, order_seed))
    adam, params, n, losses = NamedAdam(spec.lr), model.parameters(), len(inputs[0]), []
    for _ in range(spec.epochs):
        perm = order.permutation(n)
        total = 0.0
        for start in range(0, n, spec.batch_size):
            idx = perm[start : start + spec.batch_size]
            loss, grads = loss_and_grads(model, trained, loss_fn, [a[idx] for a in inputs],
                                         [a[idx] for a in targets])
            adam.step(params, grads)
            total += loss * len(idx)
        losses.append(total / n)
    model.history[key] = losses
    return model


def reference_forward(model, x, text=None):
    """The classifier's forward with every pre-activation kept: a list of
    (layer name, input, x @ W + b) for trunk1, trunk2 and, given text, the
    fusion layer over [trunk output; text], and the rectified output of the
    last of them."""
    steps, out = [], x
    for name in ("trunk1", "trunk2") + (() if text is None else ("fusion",)):
        if name == "fusion":
            out = np.concatenate([out, text], axis=1)
        layer = getattr(model, name)
        pre = out @ layer.W + layer.b
        steps.append((name, out, pre))
        out = np.maximum(pre, 0)
    return steps, out


def reference_loss_and_grads(model, head, name, loss_fn, x, text=None):
    """loss_fn(logits) of `head` (whose gradients go under `name`) on the
    reference_forward output, and the gradients of the head and every layer
    below it, each rectifier's mask taken from its pre-activation."""
    steps, out = reference_forward(model, x, text)
    loss, dy = loss_fn(out @ head.W + head.b)
    grads = {f"{name}_W": out.T @ dy, f"{name}_b": dy.sum(axis=0)}
    dout = dy @ head.W.T
    for layer, inp, pre in reversed(steps):
        d = dout[:, : pre.shape[1]] * (pre > 0)
        grads[f"{layer}_W"], grads[f"{layer}_b"] = inp.T @ d, d.sum(axis=0)
        dout = d @ getattr(model, layer).W.T
    return loss, grads


def preactivation_margin(model, x, e=None):
    """Smallest |pre-activation| any rectifier sees for this batch."""
    return min(np.abs(pre).min() for _, _, pre in reference_forward(model, x, e)[0])


def clean_batch(model, rng, n, with_text=True, margin=1e-2):
    """Random batch whose rectifier inputs all sit clear of zero, so a
    1e-4 finite-difference probe cannot straddle a kink."""
    while True:
        x = rng.normal(size=(n, model.feature_dim))
        e = rng.normal(size=(n, model.text_dim)) if with_text else None
        if preactivation_margin(model, x, e) > margin:
            return x, e


def fd_check_loss(key, model, rng, n, n_words=3):
    """Check the gradients loss_and_grads gives for history key `key`
    against central differences (fd_check), on an n-row batch whose
    rectifier inputs sit clear of zero (clean_batch). The model gains a
    stage-2 head and an n_words word head in its dtype first; stage 2's
    input is a random frozen trunk output."""
    dtype = model.trunk1.W.dtype
    model.head2 = Affine.create(rng, model.hidden_dim, 2, dtype)
    model.word_head = Affine.create(rng, model.fused_dim, n_words, dtype)
    model.visual_words = [f"w{j}" for j in range(n_words)]
    x, e = clean_batch(model, rng, n)
    labels = (rng.integers(0, 2, size=n), rng.uniform(0.5, 2.0, size=n))
    inputs, targets = {
        "stage1": ((x, e), labels),
        "stage2": ((rng.normal(size=(n, model.hidden_dim)),), labels),
        "image-only": ((x,), labels),
        "words": ((x, e), (rng.integers(0, 2, size=(n, n_words)).astype(dtype),)),
    }[key]
    _, _, trained, loss_fn = _FITS[key]
    params = {f"{name}_{attr}": getattr(getattr(model, name), attr)
              for name in trained for attr in ("W", "b")}
    _, grads = loss_and_grads(model, trained, loss_fn, inputs, targets)
    assert grads.keys() == params.keys()
    fd_check(lambda: loss_and_grads(model, trained, loss_fn, inputs, targets)[0], params, grads)


def fd_check(loss_fn, params, grads, step=1e-4, rtol=1e-4, atol=1e-6):
    """Assert analytic gradients match central finite differences."""
    for name, grad in grads.items():
        flat = params[name].reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for j in range(flat.size):
            saved = flat[j]
            flat[j] = saved + step
            up = loss_fn()
            flat[j] = saved - step
            down = loss_fn()
            flat[j] = saved
            fd = (up - down) / (2 * step)
            err = abs(fd - gflat[j])
            assert err <= atol + rtol * max(abs(fd), abs(gflat[j])), (
                f"{name}[{j}]: analytic {gflat[j]}, finite difference {fd}"
            )


def feature_corpus(vectors, sides=None, ids=None):
    """Corpus whose samples carry the given feature rows verbatim."""
    vectors = np.asarray(vectors, dtype=np.float32)
    n = vectors.shape[0]
    if ids is None:
        ids = [f"s{i:04d}" for i in range(n)]
    if sides is None:
        sides = [SideLabel.LEFT if i % 2 == 0 else SideLabel.RIGHT for i in range(n)]
    samples = [
        make_sample(ids[i], f"text {i}", sides[i], feature=vectors[i])
        for i in range(n)
    ]
    return Corpus(vectors.shape[1], samples)


def planted_duplicate_corpus(
    n_groups=10, group_size=3, n_singletons=60, dim=16, seed=0, jitter=0.2
):
    """Clusters of near-identical vectors dropped into a Gaussian background.

    Group members sit within `jitter` of a shared center, so squared
    pairwise distances stay under (2*jitter)^2; distinct centers are unit
    Gaussian and land far apart in this dimension. Returns (corpus, groups)
    where groups maps a frozenset of member ids to its planted center.
    """
    rng = np.random.default_rng(seed)
    vectors, ids, sides = [], [], []
    groups = {}
    for g in range(n_groups):
        center = rng.normal(size=dim)
        members = []
        for j in range(group_size):
            offset = rng.normal(size=dim)
            offset *= jitter * rng.random() / np.linalg.norm(offset)
            vectors.append(center + offset)
            sid = f"g{g:03d}m{j}"
            members.append(sid)
            ids.append(sid)
            sides.append(SideLabel.LEFT if (g + j) % 2 == 0 else SideLabel.RIGHT)
        groups[frozenset(members)] = center
    for i in range(n_singletons):
        vectors.append(rng.normal(size=dim))
        ids.append(f"x{i:04d}")
        sides.append(SideLabel.LEFT if i % 2 == 0 else SideLabel.RIGHT)
    corpus = feature_corpus(np.asarray(vectors), sides=sides, ids=ids)
    return corpus, groups


def two_topic_corpus(n_docs=40, words_per_topic=8, tokens_per_doc=20, seed=0, dim=4):
    """Documents drawn from one of two disjoint topic vocabularies.

    Topic 0 docs are LEFT from source 'sl', topic 1 docs RIGHT from 'sr';
    the topic name is stored in topics. Even ids get topic 0.
    """
    rng = np.random.default_rng(seed)
    vocab = {
        0: [f"red{i}" for i in range(words_per_topic)],
        1: [f"blue{i}" for i in range(words_per_topic)],
    }
    samples = []
    for d in range(n_docs):
        topic = d % 2
        words = rng.choice(vocab[topic], size=tokens_per_doc)
        text = " ".join(words)
        side = SideLabel.LEFT if topic == 0 else SideLabel.RIGHT
        samples.append(
            make_sample(
                f"d{d:04d}",
                text,
                side,
                source="sl" if topic == 0 else "sr",
                topics=(f"topic{topic}",),
                dim=dim,
            )
        )
    return Corpus(dim, samples)


def position_plan(token_idx, window, dtype):
    """Static per-position context structure for one document.

    Entries are (target, unique context indices, occurrence counts, m) with
    m the averaging denominator (window size + 1 for the document vector).
    """
    plan = []
    tokens = token_idx.tolist()
    for t, target in enumerate(tokens):
        ctx = tokens[max(t - window, 0) : t] + tokens[t + 1 : t + 1 + window]
        counts = Counter(ctx)
        uniq = sorted(counts)
        plan.append(
            (
                target,
                np.array(uniq, dtype=token_idx.dtype),
                np.array([counts[u] for u in uniq], dtype=dtype),
                len(ctx) + 1,
            )
        )
    return plan


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Clipping -x at 60 keeps exp() finite. No clip at -60 is needed: below
    # it exp(-x) < 1e-26, so 1 + exp(-x) rounds to 1 in float32 and float64
    # alike, as it would with a clip.
    return 1.0 / (1.0 + np.exp(np.minimum(-x, 60.0)))


def path_gradients(
    context: np.ndarray, nodes: np.ndarray, bits: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss and gradients of -log p(word | context) along one tree path.

    Returns (loss, d_loss/d_context, d_loss/d_nodes). `nodes` holds the
    inner-node vectors on the word's path, `bits` its code (0 = left).
    """
    z = nodes @ context
    signs = 1.0 - 2.0 * np.asarray(bits, dtype=z.dtype)
    probs = _sigmoid(signs * z)
    loss = -float(np.add.reduce(np.log(probs)))  # = the sum of -log, exactly
    coef = (probs - 1.0) * signs  # d(-log sigmoid(s z)) / dz
    grad_context = coef @ nodes
    grad_nodes = coef[:, None] * context  # np.outer, without its overhead
    return loss, grad_context, grad_nodes


def position_loss(
    doc_vec: np.ndarray,
    context_word_vecs: np.ndarray,
    nodes: np.ndarray,
    bits: np.ndarray,
) -> float:
    """-log p(target | mean of doc vector and window word vectors).

    Pure function of its inputs; the trainer's updates are the gradients of
    exactly this quantity.
    """
    m = len(context_word_vecs) + 1
    context = (doc_vec + context_word_vecs.sum(axis=0)) / m if m > 1 else doc_vec
    z = nodes @ context
    signs = 1.0 - 2.0 * bits.astype(z.dtype)
    return float(-np.log(_sigmoid(signs * z)).sum())


def hs_probability(model: PvdmModel, context: np.ndarray, word: str) -> float:
    """p(word | context) under the hierarchical softmax, computed in float64."""
    vocab = model.vocabulary
    if word not in vocab:
        raise InputError(f"word {word!r} is not in the vocabulary")
    idx = vocab.index[word]
    path = vocab.paths[idx]
    if path.size == 0:
        return 1.0  # degenerate single-word vocabulary
    context = np.asarray(context, dtype=np.float64)
    if context.shape != (model.dim,):
        raise InputError(
            f"context must have shape ({model.dim},), got {context.shape}"
        )
    nodes = model.node_vectors[path].astype(np.float64)
    z = nodes @ context
    signs = 1.0 - 2.0 * vocab.codes[idx].astype(np.float64)
    return float(np.prod(_sigmoid(signs * z)))


U32_MAX = 2**32 - 1

# A value a binary file's header field is set to: the maximal u32, any int,
# or a value of another JSON type.
HEADER_VALUES = st.one_of(
    st.just(U32_MAX),
    st.integers(-(2**70), 2**70),
    st.sampled_from([None, True, 0.5, float("nan"), "a", [], ["a", "a"], [1], {"a": 1}]),
    st.lists(st.text(max_size=3) | st.integers(-2, 9), max_size=4),
)

# One mutation of a binary file: a truncation, a flipped byte, appended bytes,
# the header's byte length overwritten with a random or the maximal u32, or
# one header field set to a HEADER_VALUES draw.
BINARY_MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("length"), st.just(U32_MAX) | st.integers(0, U32_MAX)),
    st.tuples(st.just("field"), st.integers(0, 100), HEADER_VALUES),
)


def with_header_field(data, key, value):
    """A binary file with its header's `key` set to `value` and the header
    length rewritten to match; a file whose header does not decode is left
    as it is."""
    try:
        (n,) = struct.unpack("<I", data[8:12])
        header = json.loads(data[12 : 12 + n])
    except (struct.error, ValueError):
        return data
    if not isinstance(header, dict):
        return data
    header[key] = value
    raw = json.dumps(header).encode("ascii")
    return data[:8] + struct.pack("<I", len(raw)) + raw + data[12 + n :]


def with_float_replaced(data, old, new):
    """A binary file with the one float32 in it whose bytes are those of
    `old` set to `new`: how a test makes a file holding a value that the
    writers refuse to save."""
    old_bytes = struct.pack("<f", old)
    assert data.count(old_bytes) == 1
    return data.replace(old_bytes, struct.pack("<f", new))


def mutate_binary(data, mutation, keys):
    """Apply one BINARY_MUTATIONS draw to `data`. A field mutation sets one
    of the header keys `keys`; a length mutation leaves a file too short for
    the length field as it is."""
    kind, at, *rest = mutation
    if kind == "append":
        return data + at
    if kind == "length":
        return data if len(data) < 12 else data[:8] + struct.pack("<I", at) + data[12:]
    if kind == "field":
        return with_header_field(data, keys[at % len(keys)], rest[0])
    at %= len(data) + 1
    if kind == "truncate":
        return data[:at]
    if at == len(data):
        return data
    return data[:at] + bytes([data[at] ^ rest[0]]) + data[at + 1:]


def python_calls(fn, *args):
    """fn(*args) and the Python-level function calls it makes, its own
    included, as a Counter of "module.name": sys.setprofile "call" events.
    Calls into C (ufuncs, ndarray methods) are "c_call" events and are not
    counted. The call runs after a collection with the garbage collector
    paused, so no finalizer or weakref callback of a collection that happens
    to fall inside it (threading.RLock, abc.__instancecheck__) is counted."""
    calls, previous = Counter(), sys.getprofile()

    def count(frame, event, arg):
        if event == "call":
            name = getattr(frame.f_code, "co_qualname", frame.f_code.co_name)  # Python >= 3.11
            calls[f"{frame.f_globals.get('__name__')}.{name}"] += 1

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
        if enabled:
            gc.enable()
    return result, calls


def frames_apart(a, b):
    """Per frame name, how many more calls Counter b holds than a."""
    return {name: b[name] - a[name] for name in sorted(a.keys() | b.keys()) if a[name] != b[name]}
