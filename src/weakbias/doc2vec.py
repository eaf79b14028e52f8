"""Distributed-memory paragraph vectors with a hierarchical softmax output.

Each document owns a vector that is trained, together with the word vectors,
to predict every word of the document from the average of the document
vector and the word vectors inside a window around the target position. The
output layer is a binary Huffman tree over the vocabulary: the probability
of a word is the product over its root-to-leaf path of sigmoid(+-dot), where
the sign is + when the path goes left (code bit 0) and - when it goes right.
Leaf probabilities therefore sum to one by construction.

Plain SGD, one update per position, learning rate decayed linearly over the
whole schedule. Training is single-threaded and bit-reproducible: word,
inner-node and document vectors are row blocks of one parameter array,
viewed as one opaque record per row. A position copies its rows (path
nodes, window words, document) into a buffer shared by the positions of its
shape, updates them there with in-place ufuncs and copies them back, which
gives the bits of updating the three matrices one at a time. Its products
are ndarray.dot into preallocated outputs and its ufuncs are bound to locals
once per pass, so a position runs no Python-level function. Its
probabilities wait in a row per position; per epoch, one log and one reduce
per path length give the losses, summed in the plain loop's order.
Inference fits only a fresh document vector against frozen word and node
vectors, so unseen documents are independent and are embedded together, one
position of every document per array update; what does not move with the
document vectors is tabled first, and a position writes into buffers
allocated once per call, through ufuncs bound once per call.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .binio import (
    U32_MAX,
    atomic_write,
    finite_in_float32,
    header_field,
    read_header,
    read_matrix,
    write_header,
    write_matrix,
)
from .corpus import (
    Corpus,
    Vocabulary,
    build_vocabulary,
    float_block,
    float_row_format,
    read_float_rows,
    vocabulary_from_counts,
)
from .errors import InputError, NumericError
from .seeding import derive_seed

PVDM_MAGIC = b"PVDM"
PVDM_VERSION = 2


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
        if not 1 <= self.dim <= U32_MAX:
            raise InputError(f"dim must be in [1, {U32_MAX}], got {self.dim}")
        if self.window < 1:
            raise InputError(f"window must be >= 1, got {self.window}")
        if self.epochs < 0:
            raise InputError(f"epochs must be >= 0, got {self.epochs}")
        if self.min_count < 1:
            raise InputError(f"min_count must be >= 1, got {self.min_count}")
        if not 0 < self.final_lr <= self.initial_lr < np.inf:
            raise InputError(
                f"need 0 < final_lr <= initial_lr < inf, got "
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


def _linear_decay(config: PvdmConfig, done, total) -> np.ndarray:
    """Learning rate (float64) after `done` of `total` updates, elementwise."""
    initial, final = config.initial_lr, config.final_lr
    return initial - (initial - final) * np.minimum(np.divide(done, total), 1.0)


def _document_plans(rows: list[np.ndarray], vocab: Vocabulary, window: int, dim: int,
                    dtype: np.dtype) -> tuple:
    """_sgd_pass's plan of the token-id rows, built once: (positions, m, path
    lengths, document ends, loss rows).

    The positions are those of the non-empty rows, in corpus order; m and
    the path lengths are each one's m (float64) and n (int8), and a
    document's positions end at its end offset. The loss rows are one
    (count, n) block per path length n, a row for each position of length n
    in the corpus. All of it grows with the positions, not with the longest
    document; a window wider than the longest document sees the words of
    one of that length less one, so the tables are sized by that. A position
    is (params rows: path nodes, sorted unique window words, document; the
    buffers shared with the positions of its n and u unique window words,
    then n; weights, None if m == 1; repeats as a column, None if all are 1;
    m as a 0-d array; 2 bits - 1). The buffers are the gathered records and
    float views of them: the path nodes, the window words, the document as
    a vector and as a row, and the window words with the document; the
    coefficients as a vector and as a column, g, the context as a vector
    and as a row, and delta."""
    n_words, depth = len(vocab), max(p.size for p in vocab.paths)
    node_rows = [(p + n_words).tolist() for p in vocab.paths]
    neg_signs = [2.0 * c.astype(dtype) - 1.0 for c in vocab.codes]
    window = min(window, max(row.size for row in rows) - 1)
    ones = np.ones(2 * window, dtype)
    ones = [ones[:k] for k in range(2 * window + 1)]  # views: memory linear in the window
    m_values = [np.array(m, dtype) for m in range(2 * window + 2)]  # 0-d: no scalar casts
    docs = [(doc_row, row) for doc_row, row in enumerate(rows, n_words + vocab.n_inner_nodes)
            if row.size]
    path_lengths = np.array([p.size for p in vocab.paths], np.int8)  # u64 counts: depth < 93
    lengths = np.concatenate([path_lengths[row] for _, row in docs])
    doc_ends = np.cumsum([row.size for _, row in docs]).tolist()
    counts = np.bincount(lengths, minlength=depth + 1).tolist()
    losses = [np.empty((count, n), dtype) for n, count in enumerate(counts)]
    # Positions run one at a time, so every shape's buffers are prefixes of one set.
    block = np.empty(depth + 2 * window + 1, np.dtype((np.void, dim * dtype.itemsize)))
    floats, coef = block.view(dtype).reshape(-1, dim), np.empty((depth, 1), dtype)
    g = np.empty((depth, dim), dtype)
    context, delta = np.empty(dim, dtype), np.empty(dim, dtype)
    buffers, repeated, positions = {}, {}, []
    m = np.empty(lengths.size)
    for doc_row, row in docs:  # a document at a time: its flat rows are one array
        flat, ends, doc_positions, tokens = [], [], [], row.tolist()
        for t, word in enumerate(tokens):
            ctx = tokens[max(t - window, 0) : t] + tokens[t + 1 : t + 1 + window]
            uniq, n = sorted(set(ctx)), len(node_rows[word])
            flat += node_rows[word] + uniq + [doc_row]
            ends.append(len(flat))
            shape = n, len(uniq)
            if shape not in buffers:
                view = floats[: n + len(uniq) + 1]
                buffers[shape] = (block[: n + len(uniq) + 1], view[:n], view[n:-1], view[-1],
                                  view[-1:], view[n:], coef[:n, 0], coef[:n], g[:n], context,
                                  context[None], delta, n)
            weights, repeats = (ones[len(ctx)] if ctx else None), None
            if len(uniq) < len(ctx):  # a word repeats: the weights are its counts
                key = tuple(map(ctx.count, uniq))
                if key not in repeated:
                    repeated[key] = np.array(key, dtype), np.array(key, dtype)[:, None]
                weights, repeats = repeated[key]
            doc_positions.append((buffers[shape], weights, repeats, m_values[len(ctx) + 1],
                                  neg_signs[word]))
            m[len(positions) + t] = len(ctx) + 1
        flat = np.array(flat, np.intp)
        positions += [(flat[a:b], *p) for a, b, p in zip([0] + ends, ends, doc_positions)]
    return positions, m, lengths, doc_ends, losses


def _sgd_pass(records: np.ndarray, plan: tuple, lrs, steps) -> float:
    """One SGD pass over the corpus through `records`, the parameters as one
    record per row; returns the summed pre-update position loss. steps[t] is
    -lrs[t] / m, rounded to the model dtype only after dividing. The bits are
    those of the plain update: the gather and the write-back copy whole
    records, each ufunc writing into its first operand is the IEEE operation
    of the plain expression (commuted at most), and ndarray.dot makes the
    BLAS call matmul would: it is np.dot's C function without np.dot's
    Python-level dispatcher. The gather, the write-back and the ufuncs are
    bound to locals once per pass, so a position calls no Python function.
    The node gradient g, the outer product of the coefficients and the
    context, is the dot of a column and a row: a gemm with K = 1 (an axpy
    when n or dim is 1), so on finite inputs each element is one rounded
    product, as in the broadcast multiply coef[:, None] * context, except
    that the kernel adds the product to a zero, which turns -0.0 into +0.0.
    That sign cannot reach the result: g only moves the node vectors, by
    nodes - g in place, and x - (+0.0) and x - (-0.0) differ only for
    x = -0.0, which no node holds: the node vectors start at +0.0, and in
    round-to-nearest x - y is -0.0 only when x is. The positions of path
    length n write their probabilities into the rows of its loss block in
    turn. After the pass, one log and one row-wise add.reduce per path
    length give each position's log-probability
    (a row of a (k, n) block sums as a reduce of that row alone does; padded
    rows would not), and the losses are summed as the plain loop does: a
    document's positions in order from 0.0, then the documents in order from
    0.0. Pairwise sums (add.reduce, reduceat) would not give those bits."""
    positions, _, lengths, ends, losses = plan
    one, clip = np.array(1.0, lrs.dtype), np.array(60.0, lrs.dtype)  # 0-d: no scalar casts
    loss_rows = [iter(loss) for loss in losses]
    # A ufunc takes a 0-d array faster than a scalar; filling one costs less than the difference.
    lr_now, step_now = np.empty((), lrs.dtype), np.empty((), lrs.dtype)
    take, store = records.take, records.__setitem__
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    minimum, exp = np.minimum, np.exp
    for (rows, buffers, weights, repeats, m, neg_signs), lr, step in zip(positions, lrs, steps):
        block, nodes, words, doc, doc_row, tail, coef, coef_col, g, ctx, ctx_row, delta, n = (
            buffers)
        take(rows, out=block, mode="clip")  # in range; "raise" would buffer `out`
        lr_now[()], step_now[()] = lr, step
        context, context_row = doc, doc_row
        if weights is not None:
            context, context_row = weights.dot(words, ctx), ctx_row
            add(context, doc, context)
            divide(context, m, context)
        probs = nodes.dot(context, next(loss_rows[n]))  # -s z, then its sigmoid, in place
        multiply(probs, neg_signs, probs)
        minimum(probs, clip, out=probs)  # exp() stays finite; below -60, 1 + exp rounds to 1
        exp(probs, probs)
        add(probs, one, probs)
        divide(one, probs, probs)
        subtract(one, probs, coef)  # d(-log sigmoid(s z)) / dz, over s
        multiply(coef, neg_signs, coef)
        coef.dot(nodes, delta)
        multiply(delta, step_now, delta)
        coef_col.dot(context_row, g)
        multiply(g, lr_now, g)
        subtract(nodes, g, nodes)
        if repeats is None:
            add(tail, delta, tail)
        else:
            add(words, multiply(repeats, delta), words)
            add(doc, delta, doc)
        store(rows, block)
    log_sums = np.empty(lengths.size)
    for n, loss in enumerate(losses):
        if len(loss):  # boolean indexing runs in corpus order, as the rows do
            log_sums[lengths == n] = np.add.reduce(np.log(loss, out=loss), axis=1)
    total_loss, start = 0.0, 0
    for end in ends:
        doc_loss = 0.0
        for log_sum in log_sums[start:end].tolist():
            doc_loss -= log_sum  # the loop's doc_loss + (-log_sum)
        total_loss += doc_loss
        start = end
    return total_loss


def train_pvdm(
    corpus: Corpus,
    config: PvdmConfig,
    *,
    dtype=np.float32,
) -> PvdmModel:
    """Train paragraph vectors over the corpus.

    Word and document vectors start uniform in [-0.5/dim, 0.5/dim], inner
    node vectors at zero. Documents with no in-vocabulary tokens are skipped
    (counted in a single warning). The three matrices of the model are row
    blocks of one array. An epoch is one _sgd_pass over the plan of every
    document: one schedule call gives its learning rates and steps, and one
    log and one reduce per path length its losses.
    """
    if len(corpus) == 0:
        raise InputError("cannot train on an empty corpus")
    vocab = build_vocabulary(corpus, config.min_count)
    dim, dtype = config.dim, np.dtype(dtype)
    n_words, n_nodes = len(vocab), vocab.n_inner_nodes
    params = np.empty((n_words + n_nodes + len(corpus), dim), dtype=dtype)
    word_vectors, node_vectors, doc_vectors = np.split(params, [n_words, n_words + n_nodes])
    rng = np.random.default_rng(derive_seed(config.seed, "pvdm-init"))
    scale = 0.5 / dim
    word_vectors[:] = rng.uniform(-scale, scale, word_vectors.shape)
    doc_vectors[:] = rng.uniform(-scale, scale, doc_vectors.shape)
    node_vectors[:] = 0.0

    index = vocab.index
    rows = [np.array([index[t] for t in s.tokens if t in index], np.int64) for s in corpus]
    skipped = sum(row.size == 0 for row in rows)
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
    total_positions = sum(row.size for row in rows)
    if config.epochs == 0 or total_positions == 0:
        return model

    plan = _document_plans(rows, vocab, config.window, dim, dtype)
    records = params.view(np.dtype((np.void, dim * dtype.itemsize))).reshape(-1)
    total_updates, m = config.epochs * total_positions, plan[1]
    for epoch in range(config.epochs):
        lr = _linear_decay(config, epoch * total_positions + np.arange(total_positions),
                           total_updates)
        steps = (-lr / m).astype(dtype)
        epoch_loss = _sgd_pass(records, plan, lr.astype(dtype), steps)
        mean_loss = epoch_loss / total_positions
        if not np.isfinite(mean_loss):
            raise NumericError(f"non-finite training loss at epoch {epoch}")
        model.epoch_losses.append(mean_loss)
    return model


def _inference_tables(model: PvdmModel, rows: list[np.ndarray]) -> tuple:
    """Path, negated signs, m and z_window (the path's dot products with the
    window sum) of each position of the token-id rows, concatenated. Paths are
    padded to the vocabulary's depth with the root, signs and z_window with 0.
    Window sums are float64 prefix-sum differences, left and right apart. A
    window as long as the longest row already spans every row, so it is
    clamped there: the bounds stay small ints, whatever the trained window."""
    vocab, nodes = model.vocabulary, model.node_vectors
    window = min(model.config.window, max(row.size for row in rows))
    index = {}  # the batch's words, first seen first: np.unique would page in sort code
    word = np.array([index.setdefault(w, len(index)) for w in np.concatenate(rows).tolist()])
    depth = max(p.size for p in vocab.paths)
    paths = np.full((len(index), depth), vocab.n_inner_nodes - 1, np.int32)
    m, neg_signs = np.empty(word.size, np.int64), np.zeros((len(index), depth), nodes.dtype)
    for j, w in enumerate(index):
        paths[j, : vocab.paths[w].size] = vocab.paths[w]
        neg_signs[j, : vocab.paths[w].size] = 2.0 * vocab.codes[w] - 1.0
    z_window = np.empty((word.size, depth), nodes.dtype)
    for row, at in zip(rows, np.split(np.arange(word.size), np.cumsum([len(r) for r in rows]))):
        t = np.arange(row.size)
        lo, hi = np.maximum(t - window, 0), np.minimum(t + window + 1, row.size)
        cum = np.zeros((row.size + 1, model.dim))
        np.cumsum(model.word_vectors[row], axis=0, dtype=np.float64, out=cum[1:])
        window_sum = ((cum[:-1] - cum[lo]) + (cum[hi] - cum[1:])).astype(nodes.dtype)
        m[at] = hi - lo
        for k, level in enumerate(paths[word[at]].T):  # a level at a time: O(L dim) memory
            z_window[at, k] = np.einsum("ld,ld->l", window_sum, nodes.take(level, axis=0))
    paths, neg_signs = paths[word], neg_signs[word]
    z_window[neg_signs == 0] = 0.0
    return paths, neg_signs, m, z_window


def infer_documents(
    model: PvdmModel,
    docs: list[list[str]],
    steps: int = 50,
    seeds: list[int | None] | None = None,
) -> np.ndarray:
    """Embed unseen documents against frozen word and node vectors.

    Each document gets a fresh vector (same init distribution as training,
    drawn from its seed; None picks the model's default inference seed)
    that the training update optimizes for `steps` passes over its tokens,
    with the learning rate schedule compressed to fit that document. Nothing
    shared moves, so row i of the (len(docs), dim) result is the same
    whichever other documents share the batch. A call builds its tables once
    (_inference_tables) with -sign / m beside them; a step scales the signs by
    its step sizes in one array operation, then moves the running documents
    a position at a time: a gather, two stacked matmuls and ufuncs that write
    into their first operand, all into prefixes of buffers allocated once per
    call and sized for position 0, where every document runs. The gather,
    matmul and the ufuncs are bound to locals once per call.
    """
    if steps < 1:
        raise InputError(f"steps must be >= 1, got {steps}")
    if seeds is None:
        seeds = [None] * len(docs)
    if len(seeds) != len(docs):
        raise InputError(f"got {len(seeds)} seeds for {len(docs)} documents")
    vocab, cfg = model.vocabulary, model.config
    dim, dtype = model.dim, model.word_vectors.dtype
    rows = [np.array([vocab.index[t] for t in d if t in vocab], np.int64) for d in docs]
    for i, row in enumerate(rows):
        if row.size == 0:
            raise InputError(f"document {i} has no in-vocabulary tokens, nothing to infer from")
    if not rows:
        return np.zeros((0, dim), dtype=dtype)

    # Longest first, so the documents still running at position t are the
    # prefix [:running[t]]; the batch is stored position-major, position t
    # at flat rows offsets[t]:offsets[t + 1].
    order = np.argsort([-r.size for r in rows], kind="stable")
    rows = [rows[i] for i in order]
    lengths = np.array([r.size for r in rows])
    running = len(rows) - np.cumsum(np.bincount(lengths))[: lengths[0]]
    offsets = np.concatenate([[0], np.cumsum(running)])
    position = np.repeat(np.arange(lengths[0]), running)
    length = np.concatenate([lengths[:k] for k in running])
    # Flat row j is position[j] of the (j - offsets[position[j]])-th document.
    at = (np.cumsum(lengths) - lengths)[np.arange(offsets[-1]) - offsets[position]] + position
    paths, neg_signs, m, z_window = (t[at] for t in _inference_tables(model, rows))
    a = (neg_signs / -m[:, None]).astype(dtype)  # v = (nodes . doc + z_window) a = -u, 0 in padding

    vecs = np.empty((len(rows), dim), dtype=dtype)
    for r, i in enumerate(order):
        seed = derive_seed(cfg.seed, "pvdm-infer") if seeds[i] is None else seeds[i]
        vecs[r] = np.random.default_rng(seed).uniform(-0.5 / dim, 0.5 / dim, dim)
    numer = np.empty_like(neg_signs)  # neg_sign * step: coef * step = numer / (1 + exp(v))
    # Position 0 runs every document, so its temporaries bound every position's:
    # a position writes into [:k] prefixes of these, the gather's also transposed.
    n, depth = len(rows), paths.shape[1]
    gather, v_buf = np.empty((n, depth, dim), dtype), np.empty((n, depth, 1), dtype)
    delta_buf = np.empty((n, dim, 1), dtype)
    plan = [(vecs[:k, :, None], paths[i:j], gather[:k], gather[:k].transpose(0, 2, 1), v_buf[:k],
             delta_buf[:k], *(t[i:j, :, None] for t in (z_window, a, numer)))
            for i, j, k in zip(offsets[:-1].tolist(), offsets[1:].tolist(), running.tolist())]
    one, clip = np.array(1.0, dtype), np.array(60.0, dtype)  # 0-d: no scalar casts
    take, matmul = model.node_vectors.take, np.matmul
    add, multiply, divide, minimum, exp = np.add, np.multiply, np.divide, np.minimum, np.exp
    for step in range(steps):
        # The schedule runs over each document's own steps * length updates;
        # the step size is rounded to the model dtype only after -lr / m.
        lr = _linear_decay(cfg, step * length + position, steps * length)
        multiply(neg_signs, (-lr / m).astype(dtype)[:, None], numer)
        for doc, path, nodes, nodes_t, v, delta, z_t, a_t, numer_t in plan:
            take(path, axis=0, out=nodes, mode="clip")  # in range, unbuffered
            matmul(nodes, doc, v)
            add(v, z_t, v)
            multiply(v, a_t, v)
            minimum(v, clip, out=v)  # keeps exp() finite, as in training
            exp(v, v)
            add(v, one, v)
            divide(numer_t, v, v)
            add(doc, matmul(nodes_t, v, delta), doc)
    if not np.all(np.isfinite(vecs)):
        raise NumericError("inference produced a non-finite document vector")
    return vecs[np.argsort(order, kind="stable")]  # stable, as above: other kinds page in code


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

    The query is embedded with infer_documents by default; embed="average"
    uses the mean of the query's word vectors instead. Either way a query
    with no in-vocabulary token is an InputError. Query tokens are excluded
    from the ranking.
    """
    if embed not in ("infer", "average"):
        raise InputError(f"embed must be 'infer' or 'average', got {embed!r}")
    if n <= 0:
        return []
    idx = [model.vocabulary.index[t] for t in query_tokens if t in model.vocabulary.index]
    if not idx:
        raise InputError("query has no in-vocabulary tokens")
    if embed == "infer":
        query_vec = infer_documents(model, [query_tokens], steps, [seed])[0]
    else:
        query_vec = model.word_vectors[idx].mean(axis=0)
    query_vec = query_vec.astype(np.float64)
    query_norm = np.linalg.norm(query_vec)
    words_mat = model.word_vectors.astype(np.float64)
    norms = np.linalg.norm(words_mat, axis=1)
    denom = np.maximum(norms * query_norm, 1e-12)
    sims = (words_mat @ query_vec) / denom
    exclude = set(query_tokens)
    ranked = [(w, float(s)) for w, s in zip(model.vocabulary.words, sims) if w not in exclude]
    return sorted(ranked, key=lambda pair: (-pair[1], pair[0]))[:n]


def _parse_model_header(header: dict) -> tuple[dict, dict[str, tuple[int, int]]]:
    """The config, vocabulary and document ids a model header holds, as
    PvdmModel fields, and the shapes of the matrices that follow it, in file
    order. The Huffman tree is rebuilt from the counts at the trained
    min_count, which reproduces the saved tree exactly (construction is
    deterministic in the counts)."""
    config = PvdmConfig(**{f.name: header_field(header, f.name, type(f.default))
                           for f in dataclasses.fields(PvdmConfig)})
    words = header_field(header, "words", list, str)
    counts = header_field(header, "counts", list, int)
    doc_ids = header_field(header, "doc_ids", list, str)
    if len(counts) != len(words):
        raise InputError(f"model header has {len(words)} words but {len(counts)} counts")
    by_word = dict(zip(words, counts))
    if len(by_word) != len(words):
        raise InputError("model vocabulary has duplicate words")
    vocab = vocabulary_from_counts(by_word, config.min_count)
    if vocab.words != words:
        raise InputError("model vocabulary is not in canonical order")
    if len(set(doc_ids)) != len(doc_ids):
        raise InputError("model document ids are not unique")
    rows = {"word_vectors": len(vocab), "node_vectors": vocab.n_inner_nodes,
            "doc_vectors": len(doc_ids)}
    fields = {"config": config, "vocabulary": vocab, "doc_ids": doc_ids}
    return fields, {name: (n, config.dim) for name, n in rows.items()}


def save_model(model: PvdmModel, path: str) -> None:
    """Serialize to the PVDM v2 format: a header with every PvdmConfig
    field, the words and their counts in vocabulary order and the document
    ids, then the word, inner-node and document vectors as float32 LE. A
    model the loader would refuse (a header it rejects, matrices of other
    shapes or with a value not finite in float32) raises InputError before
    the file is opened."""
    vocab = model.vocabulary
    header = {**dataclasses.asdict(model.config), "words": vocab.words, "counts": vocab.counts,
              "doc_ids": model.doc_ids}
    shapes = _parse_model_header(header)[1]
    for name, shape in shapes.items():
        matrix = getattr(model, name)
        if np.shape(matrix) != shape:
            raise InputError(f"{name} has shape {np.shape(matrix)}, the header needs {shape}")
        if not finite_in_float32(matrix):
            raise InputError(f"model has a non-finite value in its {name.replace('_', ' ')}")
    with atomic_write(path, binary=True) as fh:
        write_header(fh, PVDM_MAGIC, PVDM_VERSION, header)
        for name in shapes:
            write_matrix(fh, getattr(model, name))


def load_model(path: str) -> PvdmModel:
    """Read a PVDM v2 file back: the model as saved, epoch losses aside."""
    with open(path, "rb") as fh:
        fields, shapes = _parse_model_header(read_header(fh, PVDM_MAGIC, PVDM_VERSION, "model"))
        matrices = {name: read_matrix(fh, *shape) for name, shape in shapes.items()}
        if fh.read(1):
            raise InputError("trailing bytes after model payload")
    for name, matrix in matrices.items():
        if not np.all(np.isfinite(matrix)):
            raise InputError(f"model file has a non-finite value in its {name.replace('_', ' ')}")
    return PvdmModel(**matrices, **fields)


def save_embeddings(embeddings: dict[str, np.ndarray], path: str) -> None:
    """Write an id -> embedding sidecar as JSONL, one {"id", "embedding"}
    object per line and no header, each component rounded to float32 and
    written with float_row_format. Embeddings of unequal lengths, or with a
    component that is not finite in float32, raise InputError naming the
    id before the file is opened."""
    ids = list(embeddings)
    block = float_block(ids, list(embeddings.values()), "embedding of {!r}")
    line = '{"id": %s, "embedding": ' + float_row_format(block.shape[1]) + "}\n"
    with atomic_write(path) as fh:
        for doc_id, row in zip(ids, block):
            fh.write(line % (json.dumps(doc_id), *row.tolist()))


def _embedding_row(obj, lineno: int) -> tuple[str, object, str]:
    if not isinstance(obj, dict) or not isinstance(obj.get("id"), str):
        raise InputError(f"line {lineno}: embedding row needs a string id")
    if "embedding" not in obj:
        raise InputError(f"line {lineno}: embedding row needs an embedding")
    return obj["id"], obj["embedding"], obj["id"]


def load_embeddings(path: str) -> dict[str, np.ndarray]:
    """Read an embeddings sidecar into {id: row}, every row a row of one
    float32 block (read_float_rows). Every embedding has the first one's
    length. Older sidecars with 17-digit components load to the same
    arrays."""
    ids, block = read_float_rows(path, _embedding_row, "embedding of {!r}")
    return dict(zip(ids, block))
