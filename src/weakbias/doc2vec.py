"""Distributed-memory paragraph vectors with a hierarchical softmax output.

Each document owns a vector that is trained, together with the word vectors,
to predict every word of the document from the average of the document
vector and the word vectors inside a window around the target position. The
output layer is a binary Huffman tree over the vocabulary: the probability
of a word is the product over its root-to-leaf path of sigmoid(+-dot), where
the sign is + when the path goes left (code bit 0) and - when it goes right.
Leaf probabilities therefore sum to one by construction.

Plain SGD, one update per position, learning rate decayed linearly over the
whole schedule. Training is single-threaded and bit-reproducible by default;
an optional lock-free multi-worker mode trades determinism for speed.
"""

from __future__ import annotations

import json
import threading
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .binio import (
    expect_magic,
    read_matrix,
    read_str,
    read_u32,
    read_u64,
    write_matrix,
    write_str,
    write_u32,
    write_u64,
)
from .corpus import Corpus, Vocabulary, build_vocabulary, vocabulary_from_counts
from .errors import InputError, NumericError
from .seeding import derive_seed

PVDM_MAGIC = b"PVDM"
PVDM_VERSION = 1


@dataclass
class PvdmConfig:
    dim: int = 200
    window: int = 20
    epochs: int = 20
    min_count: int = 20
    initial_lr: float = 0.025
    final_lr: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InputError(f"dim must be >= 1, got {self.dim}")
        if self.window < 1:
            raise InputError(f"window must be >= 1, got {self.window}")
        if self.epochs < 0:
            raise InputError(f"epochs must be >= 0, got {self.epochs}")
        if self.min_count < 1:
            raise InputError(f"min_count must be >= 1, got {self.min_count}")
        if not 0 < self.final_lr <= self.initial_lr:
            raise InputError(
                f"need 0 < final_lr <= initial_lr, got "
                f"{self.final_lr} / {self.initial_lr}"
            )


@dataclass
class PvdmModel:
    word_vectors: np.ndarray  # (|V|, dim)
    node_vectors: np.ndarray  # (max(|V| - 1, 0), dim)
    doc_vectors: np.ndarray   # (n_docs, dim)
    vocabulary: Vocabulary
    config: PvdmConfig
    doc_ids: list[str] = field(default_factory=list)
    epoch_losses: list[float] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.word_vectors.shape[1]

    def doc_vector(self, doc_id: str) -> np.ndarray:
        if doc_id not in self._doc_index:
            raise InputError(f"unknown document id {doc_id!r}")
        return self.doc_vectors[self._doc_index[doc_id]]

    def __post_init__(self) -> None:
        self._doc_index = {d: i for i, d in enumerate(self.doc_ids)}


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Clipping at 60 keeps exp() finite; sigmoid is saturated far earlier.
    # np.minimum/np.maximum give np.clip's values without its Python-level
    # dispatch.
    return 1.0 / (1.0 + np.exp(-np.maximum(np.minimum(x, 60.0), -60.0)))


def path_gradients(
    context: np.ndarray, nodes: np.ndarray, bits: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss and gradients of -log p(word | context) along one tree path.

    Returns (loss, d_loss/d_context, d_loss/d_nodes). `nodes` holds the
    inner-node vectors on the word's path, `bits` its code (0 = left).
    """
    z = nodes @ context
    signs = 1.0 - 2.0 * np.asarray(bits, dtype=z.dtype)
    return _signed_path_gradients(context, nodes, signs, z)


def _signed_path_gradients(
    context: np.ndarray, nodes: np.ndarray, signs: np.ndarray, z: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """path_gradients given the path's signs (1 - 2 bits) and z = nodes @ context."""
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


def _doc_token_indices(corpus: Corpus, vocab: Vocabulary) -> tuple[list[np.ndarray], int]:
    """Per-document arrays of in-vocabulary token indices, plus skip count."""
    index = vocab.index
    rows = []
    skipped = 0
    for s in corpus:
        idx = [index[t] for t in s.tokens if t in index]
        if not idx:
            skipped += 1
        rows.append(np.asarray(idx, dtype=np.int64))
    return rows, skipped


def _position_plan(token_idx: np.ndarray, window: int, dtype) -> list[tuple]:
    """Static per-position context structure for one document.

    Entries are (target, unique context indices, occurrence counts, m) with
    m the averaging denominator (window size + 1 for the document vector).
    Window membership never changes across epochs, so this is built once.
    """
    plan = []
    tokens = token_idx.tolist()  # windows are a few ids: np.unique costs more
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


class _LinearDecay:
    """Learning rate falling linearly from initial to final over n updates."""

    def __init__(self, initial: float, final: float, total: int) -> None:
        self.initial = initial
        self.final = final
        self.total = max(total, 1)

    def at(self, update: int) -> float:
        frac = min(update / self.total, 1.0)
        return self.initial - (self.initial - self.final) * frac


def _train_document(
    doc_row: np.ndarray,
    word_vectors: np.ndarray,
    node_vectors: np.ndarray,
    plan: list[tuple],
    paths: list[np.ndarray],
    signs: list[np.ndarray],
    decay: _LinearDecay,
    update_base: int,
    shared: bool = False,
) -> float:
    """One SGD pass over a document, mutating all three parameter matrices
    in place. Returns the summed position loss (measured pre-update).

    Alone, the trainer writes back the node and word rows it read (paths
    and windows hold distinct rows, so this equals an in-place update
    without gathering them again). Shared with racing workers, it updates
    them in place, so a write loses only updates made since that gather."""
    total_loss = 0.0
    for t, (target, uniq, repeats, m) in enumerate(plan):
        if m > 1:
            words = word_vectors[uniq]
            context = (doc_row + repeats @ words) / m
        else:
            context = doc_row.copy()
        path = paths[target]
        nodes = node_vectors[path]
        loss, grad_context, grad_nodes = _signed_path_gradients(
            context, nodes, signs[target], nodes @ context
        )
        total_loss += loss
        lr = decay.at(update_base + t)
        delta = grad_context * (-lr / m)
        doc_row += delta
        if shared:
            node_vectors[path] -= lr * grad_nodes
            if m > 1:
                word_vectors[uniq] += repeats[:, None] * delta
        else:
            node_vectors[path] = nodes - lr * grad_nodes
            if m > 1:
                word_vectors[uniq] = words + repeats[:, None] * delta
    return total_loss


def train_pvdm(
    corpus: Corpus,
    config: PvdmConfig,
    *,
    workers: int = 1,
    dtype=np.float32,
    on_epoch=None,
) -> PvdmModel:
    """Train paragraph vectors over the corpus.

    Word and document vectors start uniform in [-0.5/dim, 0.5/dim], inner
    node vectors at zero. Documents with no in-vocabulary tokens are skipped
    (counted in a single warning). With workers > 1 the updates are applied
    without locking, so results are fast but not reproducible; the default
    is deterministic.
    """
    if len(corpus) == 0:
        raise InputError("cannot train on an empty corpus")
    vocab = build_vocabulary(corpus, config.min_count)
    dim = config.dim
    rng = np.random.default_rng(derive_seed(config.seed, "pvdm-init"))
    scale = 0.5 / dim
    word_vectors = rng.uniform(-scale, scale, (len(vocab), dim)).astype(dtype)
    doc_vectors = rng.uniform(-scale, scale, (len(corpus), dim)).astype(dtype)
    node_vectors = np.zeros((vocab.n_inner_nodes, dim), dtype=dtype)

    token_rows, skipped = _doc_token_indices(corpus, vocab)
    if skipped:
        warnings.warn(
            f"{skipped} of {len(corpus)} documents have no in-vocabulary tokens "
            "and were skipped",
            stacklevel=2,
        )
    model = PvdmModel(
        word_vectors=word_vectors,
        node_vectors=node_vectors,
        doc_vectors=doc_vectors,
        vocabulary=vocab,
        config=config,
        doc_ids=corpus.ids(),
    )
    positions = [row.size for row in token_rows]
    total_positions = sum(positions)
    if config.epochs == 0 or total_positions == 0:
        return model

    decay = _LinearDecay(
        config.initial_lr, config.final_lr, config.epochs * total_positions
    )
    trainable = [i for i, p in enumerate(positions) if p > 0]
    plans = {
        i: _position_plan(token_rows[i], config.window, dtype) for i in trainable
    }
    signs = [1.0 - 2.0 * c.astype(dtype) for c in vocab.codes]
    paths = vocab.paths

    if workers <= 1:
        update_count = 0
        for epoch in range(config.epochs):
            epoch_loss = 0.0
            for i in trainable:
                epoch_loss += _train_document(
                    doc_vectors[i],
                    word_vectors,
                    node_vectors,
                    plans[i],
                    paths,
                    signs,
                    decay,
                    update_count,
                )
                update_count += positions[i]
            mean_loss = epoch_loss / total_positions
            if not np.isfinite(mean_loss):
                raise NumericError(f"non-finite training loss at epoch {epoch}")
            model.epoch_losses.append(mean_loss)
            if on_epoch is not None:
                on_epoch(epoch=epoch, loss=mean_loss)
        return model

    # Lock-free multi-worker mode: shards of documents race on the shared
    # arrays. Each worker runs its own schedule slice.
    shards = [trainable[w::workers] for w in range(workers)]
    shard_positions = [sum(positions[i] for i in shard) for shard in shards]
    for epoch in range(config.epochs):
        losses = [0.0] * workers

        def run(w: int, epoch: int = epoch) -> None:
            base = epoch * shard_positions[w]
            shard_decay = _LinearDecay(
                config.initial_lr, config.final_lr, config.epochs * shard_positions[w]
            )
            for i in shards[w]:
                losses[w] += _train_document(
                    doc_vectors[i],
                    word_vectors,
                    node_vectors,
                    plans[i],
                    paths,
                    signs,
                    shard_decay,
                    base,
                    shared=True,
                )
                base += positions[i]

        threads = [threading.Thread(target=run, args=(w,)) for w in range(workers)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        mean_loss = sum(losses) / total_positions
        if not np.isfinite(mean_loss):
            raise NumericError(f"non-finite training loss at epoch {epoch}")
        model.epoch_losses.append(mean_loss)
        if on_epoch is not None:
            on_epoch(epoch=epoch, loss=mean_loss)
    return model


def infer_document(
    model: PvdmModel,
    tokens: list[str],
    steps: int = 50,
    seed: int | None = None,
) -> np.ndarray:
    """Embed an unseen document against frozen word and node vectors.

    A fresh document vector (same init distribution as training) is
    optimized by the training update for `steps` passes over the token
    sequence, with the learning rate schedule compressed to fit.
    """
    vocab = model.vocabulary
    token_idx = np.asarray(
        [vocab.index[t] for t in tokens if t in vocab.index], dtype=np.int64
    )
    if token_idx.size == 0:
        raise InputError("document has no in-vocabulary tokens, nothing to infer from")
    if steps < 1:
        raise InputError(f"steps must be >= 1, got {steps}")
    cfg = model.config
    if seed is None:
        seed = derive_seed(cfg.seed, "pvdm-infer")
    rng = np.random.default_rng(seed)
    dim = model.dim
    dtype = model.word_vectors.dtype
    doc_vec = rng.uniform(-0.5 / dim, 0.5 / dim, dim).astype(dtype)
    decay = _LinearDecay(cfg.initial_lr, cfg.final_lr, steps * token_idx.size)

    # Word and node vectors are frozen, so each position's window sum is a
    # constant; precompute everything and only move the document vector.
    plan = _position_plan(token_idx, cfg.window, dtype)
    positions = [
        (
            model.node_vectors[vocab.paths[target]],
            1.0 - 2.0 * vocab.codes[target].astype(dtype),
            repeats @ model.word_vectors[uniq] if m > 1 else None,
            m,
        )
        for (target, uniq, repeats, m) in plan
    ]
    update = 0
    for _ in range(steps):
        for nodes, signs, wsum, m in positions:
            context = (doc_vec + wsum) / m if m > 1 else doc_vec
            probs = _sigmoid(signs * (nodes @ context))
            coef = (probs - 1.0) * signs
            lr = decay.at(update)
            doc_vec += (coef @ nodes) * (-lr / m)
            update += 1
    if not np.all(np.isfinite(doc_vec)):
        raise NumericError("inference produced a non-finite document vector")
    return doc_vec


def nearest_words(
    model: PvdmModel,
    query_tokens: list[str],
    n: int = 10,
    *,
    steps: int = 50,
    seed: int | None = None,
    embed: str = "infer",
) -> list[tuple[str, float]]:
    """Vocabulary words closest (cosine) to the embedded query.

    The query is embedded with infer_document by default; embed="average"
    uses the mean of the query's word vectors instead. Query tokens are
    excluded from the ranking.
    """
    if embed == "infer":
        query_vec = infer_document(model, query_tokens, steps=steps, seed=seed)
    elif embed == "average":
        vocab = model.vocabulary
        idx = [vocab.index[t] for t in query_tokens if t in vocab.index]
        if not idx:
            raise InputError("query has no in-vocabulary tokens")
        query_vec = model.word_vectors[idx].mean(axis=0)
    else:
        raise InputError(f"embed must be 'infer' or 'average', got {embed!r}")
    if n <= 0:
        return []
    query_vec = query_vec.astype(np.float64)
    query_norm = np.linalg.norm(query_vec)
    words_mat = model.word_vectors.astype(np.float64)
    norms = np.linalg.norm(words_mat, axis=1)
    denom = np.maximum(norms * query_norm, 1e-12)
    sims = (words_mat @ query_vec) / denom
    exclude = set(query_tokens)
    ranked = sorted(
        (
            (model.vocabulary.words[i], float(sims[i]))
            for i in range(len(sims))
            if model.vocabulary.words[i] not in exclude
        ),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return ranked[:n]


def save_model(model: PvdmModel, path: str) -> None:
    """Serialize to the PVDM binary format (all matrices float32 LE)."""
    vocab = model.vocabulary
    with open(path, "wb") as fh:
        fh.write(PVDM_MAGIC)
        write_u32(fh, PVDM_VERSION)
        write_u32(fh, model.dim)
        write_u32(fh, len(vocab))
        write_u32(fh, model.doc_vectors.shape[0])
        for word, count in zip(vocab.words, vocab.counts):
            write_str(fh, word)
            write_u64(fh, count)
        write_matrix(fh, model.word_vectors)
        write_matrix(fh, model.node_vectors)
        write_matrix(fh, model.doc_vectors)


def load_model(path: str) -> PvdmModel:
    """Read a PVDM file back. The Huffman tree is rebuilt from the counts,
    which reproduces the saved tree exactly (construction is deterministic
    in the counts)."""
    with open(path, "rb") as fh:
        expect_magic(fh, PVDM_MAGIC)
        version = read_u32(fh)
        if version != PVDM_VERSION:
            raise InputError(f"unsupported model version {version}")
        dim = read_u32(fh)
        vocab_size = read_u32(fh)
        n_docs = read_u32(fh)
        words: list[str] = []
        counts: dict[str, int] = {}
        for _ in range(vocab_size):
            word = read_str(fh)
            counts[word] = read_u64(fh)
            words.append(word)
        if not words:
            raise InputError("model file has an empty vocabulary")
        if len(counts) != len(words):
            raise InputError("model vocabulary block has duplicate words")
        vocab = vocabulary_from_counts(counts, min_count=min(counts.values()))
        if vocab.words != words:
            raise InputError("model vocabulary block is not in canonical order")
        word_vectors = read_matrix(fh, vocab_size, dim)
        node_vectors = read_matrix(fh, max(vocab_size - 1, 0), dim)
        doc_vectors = read_matrix(fh, n_docs, dim)
        trailing = fh.read(1)
        if trailing:
            raise InputError("trailing bytes after model payload")
    config = PvdmConfig(dim=dim, min_count=vocab.min_count)
    return PvdmModel(
        word_vectors=word_vectors,
        node_vectors=node_vectors,
        doc_vectors=doc_vectors,
        vocabulary=vocab,
        config=config,
    )


def save_embeddings(embeddings: dict[str, np.ndarray], path: str) -> None:
    """Write an id -> embedding sidecar as JSONL."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, vec in embeddings.items():
            row = {"id": doc_id, "embedding": [float(x) for x in vec]}
            fh.write(json.dumps(row) + "\n")


def load_embeddings(path: str) -> dict[str, np.ndarray]:
    embeddings: dict[str, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"line {lineno}: invalid JSON: {exc}") from None
            if "id" not in row or "embedding" not in row:
                raise InputError(f"line {lineno}: embedding row needs id and embedding")
            if row["id"] in embeddings:
                raise InputError(f"line {lineno}: duplicate embedding id {row['id']!r}")
            embeddings[row["id"]] = np.asarray(row["embedding"], dtype=np.float32)
    return embeddings
