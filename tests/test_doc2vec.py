"""Paragraph-vector model: tree output layer, training, inference, files."""

import dataclasses
import gc
import json
import math
import struct
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from weakbias import doc2vec
from weakbias.corpus import SideLabel, build_vocabulary, vocabulary_from_counts
from weakbias.doc2vec import (
    PvdmConfig,
    PvdmModel,
    _document_plans,
    _inference_tables,
    infer_documents,
    load_embeddings,
    load_model,
    nearest_words,
    save_embeddings,
    save_model,
    train_pvdm,
)
from weakbias.errors import InputError
from weakbias.pipeline import training_embeddings
from weakbias.seeding import derive_seed
from weakbias.synthetic import SyntheticSpec, make_synthetic

from helpers import (
    BINARY_MUTATIONS,
    U32_MAX,
    _sigmoid,
    frames_apart,
    hs_probability,
    make_corpus,
    mutate_binary,
    path_gradients,
    position_loss,
    position_plan,
    python_calls,
    two_topic_corpus,
    with_float_replaced,
    with_header_field,
)


def infer_document(model, tokens, steps=50, seed=None):
    """One document's vector: infer_documents on a batch of one."""
    return infer_documents(model, [tokens], steps, [seed])[0]


def tiny_model(word_counts, dim=8, seed=0, zero_nodes=False):
    """Model with random vectors over a fixed vocabulary, no training."""
    vocab = vocabulary_from_counts(word_counts, 1)
    rng = np.random.default_rng(seed)
    nodes = (
        np.zeros((vocab.n_inner_nodes, dim))
        if zero_nodes
        else rng.normal(size=(vocab.n_inner_nodes, dim))
    )
    return PvdmModel(
        word_vectors=rng.normal(size=(len(vocab), dim)),
        node_vectors=nodes,
        doc_vectors=np.zeros((0, dim)),
        vocabulary=vocab,
        config=PvdmConfig(dim=dim, min_count=1),
    )


class TestHsProbability:
    def test_zero_nodes_give_half_per_code_bit(self):
        """With all-zero inner nodes every branch is a coin flip."""
        model = tiny_model({"a": 5, "b": 3, "c": 2, "d": 1}, zero_nodes=True)
        ctx = np.random.default_rng(1).normal(size=model.dim)
        for word in model.vocabulary.words:
            code_len = len(model.vocabulary.huffman_code(word))
            assert hs_probability(model, ctx, word) == pytest.approx(0.5**code_len)

    def test_two_word_vocabulary_sums_to_one(self):
        model = tiny_model({"a": 5, "b": 1})
        ctx = np.random.default_rng(2).normal(size=model.dim)
        total = sum(hs_probability(model, ctx, w) for w in ("a", "b"))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_leaf_probabilities_sum_to_one(self):
        """Sigmoid pairs on each inner node make the leaves a distribution."""
        rng = np.random.default_rng(3)
        counts = {f"w{i}": int(rng.integers(1, 40)) for i in range(17)}
        model = tiny_model(counts, dim=12, seed=4)
        for trial in range(5):
            ctx = rng.normal(size=model.dim) * 3.0
            total = sum(
                hs_probability(model, ctx, w) for w in model.vocabulary.words
            )
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_single_word_vocabulary_is_certain(self):
        model = tiny_model({"only": 3})
        assert hs_probability(model, np.zeros(model.dim), "only") == 1.0

    def test_unknown_word_is_an_error(self):
        model = tiny_model({"a": 2, "b": 1})
        with pytest.raises(InputError, match="vocabulary"):
            hs_probability(model, np.zeros(model.dim), "zzz")

    def test_probability_in_open_interval(self):
        model = tiny_model({"a": 2, "b": 1, "c": 1})
        ctx = np.full(model.dim, 10.0)
        for w in ("a", "b", "c"):
            p = hs_probability(model, ctx, w)
            assert 0.0 < p < 1.0


class TestFoldedSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_the_two_sided_clip(self, dtype):
        """The oracles' _sigmoid clips only -x at 60; dropping the clip at
        x = 60 may not change a result, down to the bit."""
        big = np.finfo(dtype).max
        x = np.array([59.99, 60.0, 61.0, 89.0, 710.0, 1e30, np.inf, big, 0.0, 0.5])
        x = np.concatenate([x, -x, [np.nan]]).astype(dtype)
        clipped = 1.0 / (1.0 + np.exp(-np.maximum(np.minimum(x, 60.0), -60.0)))
        bits = np.uint32 if dtype == np.float32 else np.uint64
        np.testing.assert_array_equal(_sigmoid(x).view(bits), clipped.view(bits))


def analytic_position_grads(doc_vec, ctx_words, nodes, bits):
    """Gradients of position_loss routed exactly as the trainer routes them."""
    m = len(ctx_words) + 1
    context = (doc_vec + ctx_words.sum(axis=0)) / m
    _, grad_context, grad_nodes = path_gradients(context, nodes, bits)
    return grad_context / m, np.tile(grad_context / m, (len(ctx_words), 1)), grad_nodes


class TestGradients:
    def test_position_gradients_match_finite_differences(self):
        """Central differences on the pure loss agree with the update rule."""
        rng = np.random.default_rng(7)
        dim, n_ctx, path_len = 6, 4, 3
        step = 1e-5
        for trial in range(5):
            doc = rng.normal(size=dim)
            ctx_words = rng.normal(size=(n_ctx, dim))
            nodes = rng.normal(size=(path_len, dim))
            bits = rng.integers(0, 2, size=path_len).astype(np.uint8)
            g_doc, g_words, g_nodes = analytic_position_grads(
                doc, ctx_words, nodes, bits
            )

            def fd(setter):
                def loss_with(eps):
                    d, c, nd = doc.copy(), ctx_words.copy(), nodes.copy()
                    setter(d, c, nd, eps)
                    return position_loss(d, c, nd, bits)

                return (loss_with(step) - loss_with(-step)) / (2 * step)

            for j in range(dim):
                got = fd(lambda d, c, nd, e, j=j: d.__setitem__(j, d[j] + e))
                assert got == pytest.approx(g_doc[j], rel=1e-5, abs=1e-9)
            for i in range(n_ctx):
                for j in range(dim):
                    got = fd(
                        lambda d, c, nd, e, i=i, j=j: c.__setitem__(
                            (i, j), c[i, j] + e
                        )
                    )
                    assert got == pytest.approx(g_words[i, j], rel=1e-5, abs=1e-9)
            for i in range(path_len):
                for j in range(dim):
                    got = fd(
                        lambda d, c, nd, e, i=i, j=j: nd.__setitem__(
                            (i, j), nd[i, j] + e
                        )
                    )
                    assert got == pytest.approx(g_nodes[i, j], rel=1e-5, abs=1e-9)

    def test_duplicate_context_words_scale_the_gradient(self):
        """A word appearing twice in the window gets twice the update."""
        rng = np.random.default_rng(8)
        dim = 5
        doc = rng.normal(size=dim)
        word = rng.normal(size=dim)
        nodes = rng.normal(size=(2, dim))
        bits = np.array([0, 1], dtype=np.uint8)
        step = 1e-6
        ctx_words = np.stack([word, word])
        up = position_loss(doc, np.stack([word + step, word + step]), nodes, bits)
        down = position_loss(doc, np.stack([word - step, word - step]), nodes, bits)
        fd_total = (up - down) / (2 * step)  # directional: all-ones direction
        g_doc, g_words, _ = analytic_position_grads(doc, ctx_words, nodes, bits)
        assert fd_total == pytest.approx(g_words.sum(), rel=1e-4)


class TestTraining:
    def config(self, **kw):
        defaults = dict(
            dim=16, window=4, epochs=8, min_count=1, seed=3, initial_lr=0.05
        )
        defaults.update(kw)
        return PvdmConfig(**defaults)

    def test_zero_epochs_returns_initialization(self):
        corpus = two_topic_corpus(n_docs=10)
        a = train_pvdm(corpus, self.config(epochs=0))
        b = train_pvdm(corpus, self.config(epochs=0))
        np.testing.assert_array_equal(a.word_vectors, b.word_vectors)
        assert np.all(a.node_vectors == 0.0)
        assert a.epoch_losses == []

    def test_same_seed_bit_identical(self):
        corpus = two_topic_corpus(n_docs=12)
        a = train_pvdm(corpus, self.config())
        b = train_pvdm(corpus, self.config())
        np.testing.assert_array_equal(a.word_vectors, b.word_vectors)
        np.testing.assert_array_equal(a.node_vectors, b.node_vectors)
        np.testing.assert_array_equal(a.doc_vectors, b.doc_vectors)
        assert a.epoch_losses == b.epoch_losses

    def test_different_seed_differs(self):
        corpus = two_topic_corpus(n_docs=12)
        a = train_pvdm(corpus, self.config(seed=1))
        b = train_pvdm(corpus, self.config(seed=2))
        assert not np.array_equal(a.doc_vectors, b.doc_vectors)

    def test_loss_decreases(self):
        corpus = two_topic_corpus(n_docs=30, tokens_per_doc=30)
        model = train_pvdm(corpus, self.config(epochs=6))
        losses = model.epoch_losses
        assert losses[5] <= losses[1]
        for before, after in zip(losses, losses[1:]):
            assert after <= before * 1.01

    def test_documents_without_vocab_tokens_are_skipped(self):
        rows = [
            ("d1", "alpha alpha beta alpha beta", SideLabel.LEFT),
            ("d2", "???", SideLabel.RIGHT),
        ]
        corpus = make_corpus(rows)
        with pytest.warns(UserWarning, match="1 of 2"):
            model = train_pvdm(corpus, self.config(epochs=2))
        assert model.doc_vectors.shape[0] == 2

    def test_empty_corpus_is_an_error(self):
        from weakbias.corpus import Corpus

        with pytest.raises(InputError):
            train_pvdm(Corpus(4, []), self.config())

    def test_float64_mode(self):
        corpus = two_topic_corpus(n_docs=8)
        model = train_pvdm(corpus, self.config(epochs=2), dtype=np.float64)
        assert model.word_vectors.dtype == np.float64


def reference_train(corpus, config, dtype, position_losses=None):
    """The per-position, per-matrix SGD loop that train_pvdm restructures:
    the oracle its vectors and losses are compared against bit for bit.
    Returns (word, node, doc vectors, epoch losses). A `position_losses` list
    gets, per epoch, a list of each document's position losses."""
    position_losses = [] if position_losses is None else position_losses
    vocab = build_vocabulary(corpus, config.min_count)
    dim = config.dim
    rng = np.random.default_rng(derive_seed(config.seed, "pvdm-init"))
    scale = 0.5 / dim
    word_vectors = rng.uniform(-scale, scale, (len(vocab), dim)).astype(dtype)
    doc_vectors = rng.uniform(-scale, scale, (len(corpus), dim)).astype(dtype)
    node_vectors = np.zeros((vocab.n_inner_nodes, dim), dtype=dtype)
    token_rows = [
        np.asarray([vocab.index[t] for t in s.tokens if t in vocab], dtype=np.int64)
        for s in corpus
    ]
    total = sum(row.size for row in token_rows)
    losses = []
    update = 0
    for _ in range(config.epochs if total else 0):
        epoch_loss = 0.0
        position_losses.append([])
        for doc_row, row in zip(doc_vectors, token_rows):
            if row.size == 0:
                continue
            doc_loss = 0.0
            position_losses[-1].append([])
            for target, uniq, repeats, m in position_plan(row, config.window, dtype):
                if m > 1:
                    words = word_vectors[uniq]
                    context = (doc_row + repeats @ words) / m
                else:
                    context = doc_row.copy()
                path = vocab.paths[target]
                nodes = node_vectors[path]
                loss, grad_context, grad_nodes = path_gradients(
                    context, nodes, vocab.codes[target]
                )
                doc_loss += loss
                position_losses[-1][-1].append(loss)
                frac = min(update / (config.epochs * total), 1.0)
                lr = config.initial_lr - (config.initial_lr - config.final_lr) * frac
                delta = grad_context * (-lr / m)
                doc_row += delta
                node_vectors[path] = nodes - lr * grad_nodes
                if m > 1:
                    word_vectors[uniq] = words + repeats[:, None] * delta
                update += 1
            epoch_loss += doc_loss
        losses.append(epoch_loss / total)
    return word_vectors, node_vectors, doc_vectors, losses


@st.composite
def training_cases(draw):
    """Small corpora over w0..w{n-1} plus tokens seen once, which min_count=2
    drops: documents of one in-vocabulary token (m == 1) or of none, windows
    with repeated words, and one-word vocabularies (no inner nodes)."""
    n_words = draw(st.integers(1, 6))
    docs = draw(
        st.lists(
            st.lists(st.integers(0, n_words), min_size=1, max_size=14),
            min_size=1,
            max_size=12,  # enough documents that several share a path length
        )
    )
    rows = [
        (f"d{i}", " ".join(f"w{t}" if t < n_words else f"rare{i}x{j}" for j, t in enumerate(doc)),
         SideLabel.LEFT)
        for i, doc in enumerate(docs)
    ]
    counts = [sum(doc.count(w) for doc in docs) for w in range(n_words)]
    if max(counts) < 2:
        rows.append(("pad", "w0 w0", SideLabel.RIGHT))
    initial_lr = draw(st.sampled_from([0.025, 0.2, 1.0]))
    config = PvdmConfig(
        dim=draw(st.integers(1, 8)),
        window=draw(st.integers(1, 6)),
        epochs=draw(st.integers(1, 3)),
        min_count=2,
        initial_lr=initial_lr,
        final_lr=initial_lr * draw(st.sampled_from([1e-3, 0.5, 1.0])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return make_corpus(rows), config, draw(st.sampled_from([np.float32, np.float64]))


class TestTrainingOracle:
    @given(case=training_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_position_loop_exactly(self, case):
        corpus, config, dtype = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # documents skipped
            model = train_pvdm(corpus, config, dtype=dtype)
        words, nodes, docs, losses = reference_train(corpus, config, dtype)
        assert model.word_vectors.dtype == dtype
        np.testing.assert_array_equal(model.word_vectors, words)
        np.testing.assert_array_equal(model.node_vectors, nodes)
        np.testing.assert_array_equal(model.doc_vectors, docs)
        assert model.epoch_losses == losses

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_two_topic_corpus_matches_exactly(self, dtype):
        corpus = two_topic_corpus(n_docs=12, tokens_per_doc=20)
        config = PvdmConfig(dim=16, window=4, epochs=3, min_count=1, seed=3, initial_lr=0.05)
        model = train_pvdm(corpus, config, dtype=dtype)
        words, nodes, docs, losses = reference_train(corpus, config, dtype)
        np.testing.assert_array_equal(model.word_vectors, words)
        np.testing.assert_array_equal(model.node_vectors, nodes)
        np.testing.assert_array_equal(model.doc_vectors, docs)
        assert model.epoch_losses == losses

    def test_document_losses_sum_in_position_order(self):
        """Float64 documents whose pairwise add.reduce of position losses
        differs from the sequential sum enough to move the epoch loss: a
        trainer that summed a document's losses pairwise would fail here."""
        corpus = two_topic_corpus(n_docs=2, tokens_per_doc=16, seed=0)
        config = PvdmConfig(dim=4, window=2, epochs=1, min_count=1, seed=0)
        model = train_pvdm(corpus, config, dtype=np.float64)
        position_losses = []
        *_, losses = reference_train(corpus, config, np.float64, position_losses)
        pairwise = 0.0
        for doc_losses in position_losses[0]:
            pairwise += float(np.add.reduce(doc_losses))
        assert pairwise / sum(map(len, position_losses[0])) != losses[0]
        assert model.epoch_losses == losses


class TestOuterProduct:
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        n=st.integers(1, 40),
        dim=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.floats(0.0, 0.5),
    )
    @example(dtype=np.float32, n=1, dim=1, seed=0, zeros=0.0)
    @example(dtype=np.float64, n=40, dim=96, seed=1, zeros=0.3)
    @example(dtype=np.float64, n=1, dim=34, seed=473, zeros=0.5)
    @settings(max_examples=200, deadline=None)
    def test_dot_of_a_column_and_a_row_is_the_broadcast_multiply(self, dtype, n, dim, seed,
                                                                  zeros):
        """The trainer's g = coef_col.dot(context_row, g), a K = 1 gemm
        (an axpy when n or dim is 1) into a prefix of a larger buffer,
        against coef[:, None] * context on finite inputs of every scale,
        with zeros of both signs, subnormals and products that underflow or
        overflow: every element is equal, and differs in its bytes only
        where both are zeros."""
        rng = np.random.default_rng(seed)
        tiny, big = (math.log10(f) for f in (np.finfo(dtype).smallest_subnormal,
                                             np.finfo(dtype).max))
        with np.errstate(over="ignore"):
            drawn = [((rng.normal(size=k) * 10.0 ** rng.uniform(tiny, big, size=k)).astype(dtype),
                      rng.random(k) >= zeros) for k in (n, dim)]
        for x, kept in drawn:  # overflows become the maximum before the zeros go in
            x[~np.isfinite(x)] = np.finfo(dtype).max
            x *= kept
            x[rng.random(x.size) < zeros / 2] = -0.0
        (coef, _), (context, _) = drawn
        g = np.empty((n + 3, dim), dtype)
        coef_col, context_row = coef[:, None], context[None]
        with np.errstate(over="ignore", under="ignore"):
            got = coef_col.dot(context_row, g[:n])
            want = coef_col * context
        assert got.base is g
        np.testing.assert_array_equal(got, want)
        differ = got.view(np.uint8).reshape(n, -1) != want.view(np.uint8).reshape(n, -1)
        assert np.all(want.repeat(dtype().itemsize, axis=1)[differ] == 0)

    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        n=st.integers(1, 40),
        dim=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dtype=np.float32, n=1, dim=1, seed=0)
    @example(dtype=np.float64, n=40, dim=96, seed=1)
    @settings(max_examples=100, deadline=None)
    def test_method_dot_is_np_dot_bit_for_bit(self, dtype, n, dim, seed):
        """The trainer's products are ndarray.dot(b, out), which runs
        np.dot's C function without its Python-level dispatcher: at the
        trainer's three shapes (nodes . context, matrix . vector;
        coef . nodes, vector . matrix; coef_col . context_row, column .
        row), each into a prefix of a larger buffer, the bytes are np.dot's."""
        rng = np.random.default_rng(seed)
        nodes = rng.normal(size=(n, dim)).astype(dtype)
        coef, context = rng.normal(size=n).astype(dtype), rng.normal(size=dim).astype(dtype)
        for a, b in ((nodes, context), (coef, nodes), (coef[:, None], context[None])):
            shape = np.dot(a, b).shape
            outs = [np.empty((shape[0] + 3, *shape[1:]), dtype) for _ in range(2)]
            got = a.dot(b, outs[0][: shape[0]])
            want = np.dot(a, b, outs[1][: shape[0]])
            assert got.base is outs[0]
            assert got.tobytes() == want.tobytes()

    @given(case=training_cases())
    @settings(max_examples=40, deadline=None)
    def test_no_node_vector_holds_negative_zero(self, case):
        """The outer product differs from the broadcast multiply only in the
        sign of a zero, which reaches the result only through a node element
        that holds -0.0; after training none does."""
        corpus, config, dtype = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # documents skipped
            nodes = train_pvdm(corpus, config, dtype=dtype).node_vectors
        assert not np.any((nodes == 0) & np.signbit(nodes))


class TestTrainingAtWorkloadShape:
    @pytest.mark.parametrize("initial_lr", [0.025, 0.5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dim_96_window_2_matches_bit_for_bit(self, dtype, initial_lr):
        """The benchmark's width and window, which the drawn cases (dim 1-8)
        never reach: its BLAS kernels, compared byte for byte."""
        corpus = make_synthetic(SyntheticSpec(n_samples=20, seed=3))
        assert {len(s.tokens) for s in corpus} == {32}
        config = PvdmConfig(dim=96, window=2, epochs=2, min_count=2, seed=5, initial_lr=initial_lr)
        model = train_pvdm(corpus, config, dtype=dtype)
        words, nodes, docs, losses = reference_train(corpus, config, dtype)
        for got, expected in zip(
            (model.word_vectors, model.node_vectors, model.doc_vectors), (words, nodes, docs)
        ):
            assert got.tobytes() == expected.tobytes()
        assert model.epoch_losses == losses


@pytest.fixture(scope="module")
def inference_model():
    return train_pvdm(
        two_topic_corpus(n_docs=40, tokens_per_doc=30),
        PvdmConfig(dim=16, window=4, epochs=10, min_count=1, seed=5, initial_lr=0.05),
    )


@pytest.fixture(scope="module")
def float64_inference_model():
    return train_pvdm(
        two_topic_corpus(n_docs=40, tokens_per_doc=30),
        PvdmConfig(dim=16, window=4, epochs=10, min_count=1, seed=5, initial_lr=0.05),
        dtype=np.float64,
    )


@pytest.fixture(scope="module")
def ranking_model():
    return train_pvdm(
        two_topic_corpus(n_docs=60, tokens_per_doc=30),
        PvdmConfig(dim=16, window=4, epochs=12, min_count=1, seed=6, initial_lr=0.05),
    )


class TestInference:
    @pytest.fixture()
    def model(self, inference_model):
        return inference_model

    def test_deterministic_given_seed(self, model):
        tokens = ["red0", "red1", "red2"]
        a = infer_document(model, tokens, seed=9)
        b = infer_document(model, tokens, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_model_untouched_by_inference(self, model):
        before = model.word_vectors.copy()
        nodes_before = model.node_vectors.copy()
        docs_before = model.doc_vectors.copy()
        infer_document(model, ["red0", "blue1", "red3"])
        infer_documents(model, [["red0", "blue1", "red3"], ["blue2"]] * 3)
        np.testing.assert_array_equal(model.word_vectors, before)
        np.testing.assert_array_equal(model.node_vectors, nodes_before)
        np.testing.assert_array_equal(model.doc_vectors, docs_before)

    def test_no_vocab_tokens_is_an_error(self, model):
        with pytest.raises(InputError, match="in-vocabulary"):
            infer_document(model, ["zzz", "qqq"])
        with pytest.raises(InputError, match="document 1 has no in-vocabulary"):
            infer_documents(model, [["red0"], ["zzz", "qqq"]])

    def test_inferred_vector_lands_near_its_topic(self, model):
        """Re-embedding a training document finds same-topic neighbours."""
        hits = 0
        for row in range(0, 20, 2):
            doc_id = f"d{row:04d}"
            tokens = [s.tokens for s in two_topic_corpus(n_docs=40, tokens_per_doc=30) if s.id == doc_id][0]
            vec = infer_document(model, tokens, steps=30)
            sims = model.doc_vectors @ vec
            sims = sims / (
                np.linalg.norm(model.doc_vectors, axis=1) * np.linalg.norm(vec) + 1e-12
            )
            nearest = int(np.argmax(sims))
            hits += 1 if nearest % 2 == row % 2 else 0
        assert hits >= 8

    def test_single_step_runs(self, model):
        vec = infer_document(model, ["red0"], steps=1)
        assert vec.shape == (16,)


def reference_infer(model, tokens, steps, seed):
    """The per-document, per-position inference loop that infer_documents
    batches: the oracle its results are compared against."""
    vocab, cfg = model.vocabulary, model.config
    token_idx = np.asarray(
        [vocab.index[t] for t in tokens if t in vocab.index], dtype=np.int64
    )
    if seed is None:
        seed = derive_seed(cfg.seed, "pvdm-infer")
    dim, dtype = model.dim, model.word_vectors.dtype
    doc_vec = np.random.default_rng(seed).uniform(-0.5 / dim, 0.5 / dim, dim).astype(dtype)
    total = steps * token_idx.size
    positions = [
        (
            model.node_vectors[vocab.paths[target]],
            1.0 - 2.0 * vocab.codes[target].astype(dtype),
            repeats @ model.word_vectors[uniq] if m > 1 else None,
            m,
        )
        for (target, uniq, repeats, m) in position_plan(token_idx, cfg.window, dtype)
    ]
    update = 0
    for _ in range(steps):
        for nodes, signs, wsum, m in positions:
            context = (doc_vec + wsum) / m if m > 1 else doc_vec
            coef = (_sigmoid(signs * (nodes @ context)) - 1.0) * signs
            lr = cfg.initial_lr - (cfg.initial_lr - cfg.final_lr) * min(update / total, 1.0)
            doc_vec += (coef @ nodes) * (-lr / m)
            update += 1
    return doc_vec


def random_model(n_words, dim, window, dtype, seed):
    """Untrained model with random word and node vectors over n_words words
    with random counts (so Huffman paths of several lengths)."""
    rng = np.random.default_rng(seed)
    counts = {f"w{i}": int(c) for i, c in enumerate(rng.integers(1, 50, n_words))}
    vocab = vocabulary_from_counts(counts, 1)
    return PvdmModel(
        word_vectors=rng.normal(size=(len(vocab), dim)).astype(dtype),
        node_vectors=rng.normal(size=(vocab.n_inner_nodes, dim)).astype(dtype),
        doc_vectors=np.zeros((0, dim), dtype=dtype),
        vocabulary=vocab,
        config=PvdmConfig(dim=dim, window=window, min_count=1, seed=int(seed)),
    )


@st.composite
def ragged_batches(draw):
    n_words = draw(st.integers(1, 12))
    model = random_model(
        n_words,
        dim=draw(st.integers(1, 8)),
        window=draw(st.integers(1, 6)),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    # "oov" is never in the vocabulary; it is dropped before the windows.
    word = st.sampled_from([f"w{i}" for i in range(n_words)] + ["oov"])
    docs = draw(
        st.lists(
            st.lists(word, min_size=1, max_size=40).filter(lambda d: set(d) != {"oov"}),
            min_size=1,
            max_size=6,
        )
    )
    docs += [docs[i] for i in draw(st.lists(st.integers(0, len(docs) - 1), max_size=3))]
    seeds = draw(st.lists(st.one_of(st.none(), st.integers(0, 2**32 - 1)),
                          min_size=len(docs), max_size=len(docs)))
    return model, docs, seeds, draw(st.integers(1, 3))


def table_case(n_words, dim, window, dtype, seed, docs):
    return random_model(n_words, dim, window, dtype, seed), [np.array(d, np.int64) for d in docs]


@st.composite
def table_cases(draw):
    """Vocabularies of 1 word (depth 0) to 12, windows 1-25 against documents
    of 1-30 tokens, so windows often outgrow their document, drawn from few
    words, so windows repeat words."""
    n_words = draw(st.integers(1, 12))
    docs = draw(st.lists(st.lists(st.integers(0, n_words - 1), min_size=1, max_size=30),
                         min_size=1, max_size=4))
    return table_case(n_words, draw(st.integers(1, 8)), draw(st.integers(1, 25)),
                      draw(st.sampled_from([np.float32, np.float64])),
                      draw(st.integers(0, 2**32 - 1)), docs)


class TestInferenceTables:
    @given(case=table_cases())
    @example(case=table_case(1, 4, 3, np.float32, 1, [[0], [0, 0, 0]]))
    @example(case=table_case(5, 8, 25, np.float64, 2, [[3], [1, 1, 4, 1, 0, 2]]))
    @example(case=table_case(9, 8, 1, np.float32, 3, [[8] * 12 + [0, 5]]))
    @settings(max_examples=150, deadline=None)
    def test_tables_match_the_position_plan(self, case):
        """Paths, signs and m equal position_plan's exactly. z_window is within
        1e-6 of the float64 dot products, relative to the sum of their terms'
        magnitudes, and exactly 0 where the path is padded or the window empty."""
        model, docs = case
        vocab, dtype = model.vocabulary, model.word_vectors.dtype
        paths, neg_signs, m, z_window = _inference_tables(model, docs)
        depth = max(p.size for p in vocab.paths)
        n = sum(d.size for d in docs)
        assert paths.shape == neg_signs.shape == z_window.shape == (n, depth)
        assert m.shape == (n,) and neg_signs.dtype == z_window.dtype == dtype
        words = model.word_vectors.astype(np.float64)
        plan = [p for d in docs for p in position_plan(d, model.config.window, np.float64)]
        for j, (target, uniq, counts, m_t) in enumerate(plan):
            path, size = vocab.paths[target], vocab.paths[target].size
            assert m[j] == m_t
            np.testing.assert_array_equal(paths[j, :size], path)
            assert np.all(paths[j, size:] == vocab.n_inner_nodes - 1)
            np.testing.assert_array_equal(neg_signs[j, :size], 2.0 * vocab.codes[target] - 1.0)
            assert np.all(neg_signs[j, size:] == 0) and np.all(z_window[j, size:] == 0)
            nodes = model.node_vectors[path].astype(np.float64)
            expected = nodes @ (counts @ words[uniq])
            bound = 1e-6 * (np.abs(nodes) @ (counts @ np.abs(words[uniq])))
            assert np.all(np.abs(z_window[j, :size] - expected) <= bound)
            if m_t == 1:
                assert np.all(z_window[j] == 0)


def document_rows(model, docs):
    """The documents with an empty one first, as train_pvdm passes them."""
    return [np.zeros(0, np.int64)] + docs


class TestDocumentPlans:
    @given(case=table_cases())
    @example(case=table_case(1, 4, 3, np.float32, 1, [[0], [0, 0, 0]]))
    @example(case=table_case(5, 8, 25, np.float64, 2, [[3], [1, 1, 4, 1, 0, 2]]))
    @example(case=table_case(9, 8, 1, np.float32, 3, [[8] * 12 + [0, 5]]))
    @settings(max_examples=150, deadline=None)
    def test_positions_match_the_position_plan(self, case):
        """Every position's rows (ids and order), path length, weights,
        repeats, m and signs equal position_plan's, in corpus order; each path
        length's loss block has a row for each of its positions in the corpus,
        and the path lengths and document ends are flat, one per position and
        one per non-empty document."""
        model, docs = case
        vocab, dtype, dim = model.vocabulary, model.word_vectors.dtype, model.dim
        n_words = len(vocab)
        positions, m_float, lengths, ends, losses = _document_plans(
            document_rows(model, docs), vocab, model.config.window, dim, dtype
        )
        assert len(positions) == m_float.size == lengths.size == sum(len(doc) for doc in docs)
        assert m_float.dtype == np.float64 and lengths.dtype == np.int8
        assert ends == np.cumsum([len(doc) for doc in docs]).tolist()  # the empty one has none
        expected_lengths = []
        shared, counts, at = {}, [0] * len(losses), 0
        for i, doc in enumerate(docs):
            doc_row = n_words + vocab.n_inner_nodes + i + 1
            for t, (target, uniq, repeats_t, m_t) in enumerate(
                position_plan(doc, model.config.window, dtype)
            ):
                rows, buffers, weights, repeats, m, neg_signs = positions[at]
                n = vocab.paths[target].size
                expected_lengths.append(n)
                expected_rows = np.concatenate([vocab.paths[target] + n_words, uniq, [doc_row]])
                assert rows.dtype == np.intp
                np.testing.assert_array_equal(rows, expected_rows)
                block, nodes, words, doc, doc_2d, tail, coef, coef_col, g, ctx, ctx_2d, delta = (
                    buffers[:-1])
                assert block.shape == (n + uniq.size + 1,)
                assert g.shape == (n, dim) and ctx_2d.shape == doc_2d.shape == (1, dim)
                floats = block.view(dtype).reshape(-1, dim)  # views read what the block holds
                floats[:] = np.arange(floats.size).reshape(floats.shape)
                for view, rows_ in ((nodes, floats[:n]), (words, floats[n:-1]), (doc, floats[-1]),
                                    (doc_2d, floats[-1:]), (tail, floats[n:])):
                    assert view.shape == rows_.shape
                    np.testing.assert_array_equal(view, rows_)
                for vector, column in ((coef, coef_col[:, 0]), (ctx, ctx_2d[0])):
                    vector[:] = np.arange(vector.size)
                    np.testing.assert_array_equal(column, vector)
                assert coef.shape == (n,) and ctx.shape == delta.shape == (dim,)
                assert shared.setdefault((n, uniq.size), buffers) is buffers
                if m_t == 1:
                    assert weights is None
                else:
                    assert weights.dtype == dtype
                    np.testing.assert_array_equal(weights, repeats_t)
                if np.all(repeats_t == 1):
                    assert repeats is None
                else:
                    np.testing.assert_array_equal(repeats, repeats_t[:, None])
                assert m.shape == () and m == m_t and m.dtype == dtype and m_float[at] == m_t
                np.testing.assert_array_equal(neg_signs, 2.0 * vocab.codes[target] - 1.0)
                assert buffers[-1] == n
                counts[n] += 1
                at += 1
        np.testing.assert_array_equal(lengths, expected_lengths)
        assert [loss.shape for loss in losses] == [(k, n) for n, k in enumerate(counts)]

    def test_size_follows_the_positions_not_the_longest_document(self):
        """One document 2,000 tokens long among 500 of 2 tokens: the flat
        arrays hold one entry per position and the loss blocks one float per
        path node, where a (documents, longest) table would hold 1,002,000."""
        model = random_model(9, 4, 2, np.float32, 5)
        rng = np.random.default_rng(0)
        docs = [rng.integers(0, 9, 2000)] + [rng.integers(0, 9, 2) for _ in range(500)]
        positions, m_float, lengths, ends, losses = _document_plans(
            document_rows(model, docs), model.vocabulary, 2, 4, np.dtype(np.float32)
        )
        total = 2000 + 500 * 2
        assert len(positions) == m_float.size == lengths.size == total == ends[-1]
        assert len(ends) == len(docs)
        path_nodes = sum(model.vocabulary.paths[t].size for doc in docs for t in doc.tolist())
        assert sum(loss.size for loss in losses) == path_nodes

    def test_window_wider_than_every_document_is_free(self):
        """A window wider than the longest document sees the words of one its
        length less one, and the plan's tables are sized by that: on 20
        documents of 32 tokens, window 2,000 gives the bits and losses of
        window 32, and train_pvdm's tracemalloc peak is within 1 MiB of
        window 32's (tables that grew as window squared peaked 31 MiB above)."""
        corpus = make_synthetic(SyntheticSpec(n_samples=20, seed=3))
        assert max(len(s.tokens) for s in corpus) == 32
        runs = []
        for window in (32, 2000):
            config = PvdmConfig(dim=8, window=window, epochs=1, min_count=1, seed=4)
            tracemalloc.start()
            try:
                model = train_pvdm(corpus, config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            runs.append((model, peak))
        (narrow, narrow_peak), (wide, wide_peak) = runs
        for name in ("word_vectors", "node_vectors", "doc_vectors"):
            np.testing.assert_array_equal(
                getattr(wide, name).view(np.uint32), getattr(narrow, name).view(np.uint32)
            )
        assert wide.epoch_losses == narrow.epoch_losses
        assert wide_peak - narrow_peak <= 2**20


class TestBatchedInference:
    @given(case=ragged_batches())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_document_loop(self, case):
        model, docs, seeds, steps = case
        batch = infer_documents(model, docs, steps, seeds)
        assert batch.shape == (len(docs), model.dim)
        assert batch.dtype == model.word_vectors.dtype
        for row, tokens, seed in zip(batch, docs, seeds):
            expected = reference_infer(model, tokens, steps, seed)
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-5)
            np.testing.assert_array_equal(row, infer_document(model, tokens, steps, seed))

    def test_rows_do_not_depend_on_the_rest_of_the_batch(self, inference_model):
        docs = [s.tokens for s in two_topic_corpus(n_docs=12, tokens_per_doc=30)]
        docs = [d[: 3 + 2 * i] for i, d in enumerate(docs)]  # ragged
        seeds = list(range(len(docs)))
        batch = infer_documents(inference_model, docs, 5, seeds)
        order = np.random.default_rng(0).permutation(len(docs))
        permuted = infer_documents(
            inference_model, [docs[i] for i in order], 5, [seeds[i] for i in order]
        )
        np.testing.assert_array_equal(permuted, batch[order])
        extra = [["red0"] * 60, ["blue1", "blue2"]]
        grown = infer_documents(inference_model, extra + docs, 5, [7, 8] + seeds)
        np.testing.assert_array_equal(grown[2:], batch)
        for i, (tokens, seed) in enumerate(zip(docs, seeds)):
            np.testing.assert_array_equal(
                infer_document(inference_model, tokens, 5, seed), batch[i]
            )

    def test_every_running_count_uses_its_buffer_prefix(self):
        """Documents of each length from 1 to 24: the number still running
        drops at every position, so every prefix of the per-call buffers is
        used. Each row is the bits of its document alone, in either order."""
        model = random_model(20, dim=8, window=3, dtype=np.float32, seed=15)
        rng = np.random.default_rng(3)
        docs = [[f"w{i}" for i in rng.integers(0, 20, n)] for n in range(1, 25)]
        seeds = list(range(100, 124))
        batch = infer_documents(model, docs, 4, seeds)
        assert batch.dtype == np.float32
        reverse = infer_documents(model, docs[::-1], 4, seeds[::-1])
        np.testing.assert_array_equal(reverse[::-1].view(np.uint32), batch.view(np.uint32))
        for row, tokens, seed in zip(batch, docs, seeds):
            alone = infer_document(model, tokens, 4, seed)
            np.testing.assert_array_equal(alone.view(np.uint32), row.view(np.uint32))

    @pytest.mark.parametrize("window", [1, 3, 20])
    def test_float64_matches_the_loop_to_rounding(self, float64_inference_model, window):
        """In float64 the folded step (-sign / m, the window term, the step size
        and the sigmoid complement) differs from the per-position loop only by
        rounding, so a slip in the fold shows far above 1e-12, where the float32
        tolerance of the property test could hide it."""
        base = float64_inference_model
        model = dataclasses.replace(base, config=dataclasses.replace(base.config, window=window))
        docs = [s.tokens for s in two_topic_corpus(n_docs=10, tokens_per_doc=30, seed=2)]
        docs = [d[: 1 + 3 * i] for i, d in enumerate(docs)]  # 1 to 28 tokens
        seeds = list(range(len(docs)))
        batch = infer_documents(model, docs, 10, seeds)
        assert batch.dtype == np.float64
        for row, tokens, seed in zip(batch, docs, seeds):
            np.testing.assert_allclose(row, reference_infer(model, tokens, 10, seed), rtol=0, atol=1e-12)

    def test_saturated_logits_stay_finite_and_quiet(self, inference_model):
        """Node vectors scaled by 1e3 drive |u| up to thousands, far beyond
        the 88 where exp overflows float32: the clip keeps every step finite
        and free of RuntimeWarnings."""
        model = dataclasses.replace(inference_model, node_vectors=inference_model.node_vectors * 1e3)
        docs = [["red0", "blue1", "red3"], ["blue2"] * 9, ["red1", "red2"] * 4]
        seeds = [3, 4, 5]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = infer_documents(model, docs, 3, seeds)
        assert np.all(np.isfinite(batch))
        for row, tokens, seed in zip(batch, docs, seeds):
            np.testing.assert_allclose(row, reference_infer(model, tokens, 3, seed), rtol=0, atol=1e-5)

    def test_empty_batch(self, inference_model):
        out = infer_documents(inference_model, [])
        assert out.shape == (0, inference_model.dim)
        assert out.dtype == inference_model.word_vectors.dtype

    @pytest.mark.parametrize("steps", [0, -1])
    def test_steps_below_one_is_an_error(self, inference_model, steps):
        with pytest.raises(InputError, match="steps"):
            infer_documents(inference_model, [["red0"]], steps=steps)

    def test_seed_count_mismatch_is_an_error(self, inference_model):
        with pytest.raises(InputError, match="2 seeds for 1 documents"):
            infer_documents(inference_model, [["red0"]], seeds=[1, 2])


class TestPythonCallsPerPosition:
    """The PV-DM hot loops call no Python function per position: a
    per-position Python frame (np.dot's dispatcher ran four) costs about a
    microsecond each time."""

    def test_training_pass_calls_do_not_grow_with_positions(self, monkeypatch):
        sgd_pass, calls = doc2vec._sgd_pass, []

        def counted(*args):
            loss, frames = python_calls(sgd_pass, *args)
            calls.append(frames)
            return loss

        monkeypatch.setattr(doc2vec, "_sgd_pass", counted)
        config = PvdmConfig(dim=8, window=2, epochs=1, min_count=1, seed=3)
        for n_docs in (5, 10):  # 150 and 300 positions
            train_pvdm(two_topic_corpus(n_docs=n_docs, tokens_per_doc=30), config)
        assert calls[0].total() == calls[1].total(), (
            f"frames 300 positions call more than 150: {frames_apart(*calls)}"
        )

    def test_inference_step_calls_do_not_grow_with_document_length(self, inference_model):
        def added_by_steps(length):
            docs = [s.tokens[:length] for s in two_topic_corpus(n_docs=4, tokens_per_doc=30)]
            few, more = (python_calls(infer_documents, inference_model, docs, steps)[1]
                         for steps in (2, 4))
            return Counter(frames_apart(few, more))

        short, long = added_by_steps(3), added_by_steps(30)
        assert short.total() == long.total(), (
            f"frames steps add at length 30 beyond length 3: {frames_apart(short, long)}"
        )

    def test_frames_of_a_collection_are_not_counted(self):
        """Cyclic garbage with a finalizer, made inside the counted call at
        a low collection threshold: no __del__ frame is counted, and the
        collector's state is restored."""

        class Finalized:
            def __del__(self):
                pass

        def make_cycles():
            for _ in range(500):
                cycle = Finalized()
                cycle.self = cycle

        threshold = gc.get_threshold()
        gc.set_threshold(50, 2, 2)
        try:
            calls = python_calls(make_cycles)[1]
            assert gc.isenabled() and gc.get_threshold() == (50, 2, 2)
        finally:
            gc.set_threshold(*threshold)
        assert calls.total() == 1, calls


class TestNearestWords:
    @pytest.fixture()
    def model(self, ranking_model):
        return ranking_model

    def test_returns_n_ranked_pairs(self, model):
        result = nearest_words(model, ["red0"], n=5)
        assert len(result) == 5
        sims = [s for _, s in result]
        assert sims == sorted(sims, reverse=True)
        assert all(-1.000001 <= s <= 1.000001 for s in sims)

    def test_query_tokens_excluded(self, model):
        result = nearest_words(model, ["red0"], n=10)
        assert "red0" not in [w for w, _ in result]

    def test_single_word_query_ranks_its_topic_first(self, model):
        """The 7 other red words should beat every blue word."""
        result = nearest_words(model, ["red0"], n=7)
        assert all(w.startswith("red") for w, _ in result)

    def test_average_embedding_mode(self, model):
        result = nearest_words(model, ["red0", "red1", "red2"], n=5, embed="average")
        red = sum(1 for w, _ in result if w.startswith("red"))
        assert red >= 4

    def test_zero_n_gives_empty(self, model):
        assert nearest_words(model, ["red0"], n=0) == []

    @pytest.mark.parametrize("embed", ["infer", "average"])
    def test_query_without_vocabulary_tokens_is_an_error(self, model, embed):
        """Both embeddings refuse the query with one message, before either
        runs."""
        with pytest.raises(InputError, match="^query has no in-vocabulary tokens$"):
            nearest_words(model, ["zzzz", "qqq"], embed=embed)

    def test_unknown_mode_is_an_error(self, model):
        with pytest.raises(InputError, match="embed"):
            nearest_words(model, ["red0"], embed="other")

    @pytest.mark.parametrize("n", [0, -2])
    def test_nonpositive_n_returns_before_inferring(self, model, monkeypatch, n):
        def fail(*args, **kwargs):
            raise AssertionError("infer_documents was called")

        monkeypatch.setattr(doc2vec, "infer_documents", fail)
        assert nearest_words(model, ["red0"], n=n) == []
        with pytest.raises(InputError, match="embed"):
            nearest_words(model, ["red0"], n=n, embed="other")


_NOT_FINITE = "line 2: embedding of 's9' has NaN or entries outside the float32 range"


class TestModelFiles:
    @pytest.fixture()
    def trained(self):
        return train_pvdm(
            two_topic_corpus(n_docs=10, tokens_per_doc=15),
            PvdmConfig(dim=8, window=3, epochs=3, min_count=1, seed=2),
        )

    def test_save_load_save_is_byte_identical(self, trained, tmp_path):
        p1, p2 = tmp_path / "m1.pvdm", tmp_path / "m2.pvdm"
        save_model(trained, str(p1))
        save_model(load_model(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_matches(self, trained, tmp_path):
        path = tmp_path / "m.pvdm"
        save_model(trained, str(path))
        loaded = load_model(str(path))
        np.testing.assert_array_equal(
            loaded.word_vectors, trained.word_vectors.astype(np.float32)
        )
        assert loaded.vocabulary.words == trained.vocabulary.words
        assert loaded.vocabulary.counts == trained.vocabulary.counts
        for w in trained.vocabulary.words:
            assert loaded.vocabulary.huffman_code(w) == trained.vocabulary.huffman_code(w)

    def test_zero_document_model_round_trips(self, trained, tmp_path):
        trained.doc_vectors = np.zeros((0, trained.dim), dtype=np.float32)
        trained.doc_ids = []
        path = tmp_path / "m.pvdm"
        save_model(trained, str(path))
        loaded = load_model(str(path))
        assert loaded.doc_vectors.shape == (0, trained.dim)

    def test_truncated_file_is_an_error(self, trained, tmp_path):
        path = tmp_path / "m.pvdm"
        save_model(trained, str(path))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        with pytest.raises(InputError, match="truncated|trailing"):
            load_model(str(path))

    def test_bad_magic_is_an_error(self, trained, tmp_path):
        path = tmp_path / "m.pvdm"
        save_model(trained, str(path))
        data = path.read_bytes()
        path.write_bytes(b"XXXX" + data[4:])
        with pytest.raises(InputError, match="magic"):
            load_model(str(path))

    def test_embedding_sidecar_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        table = {f"s{i}": rng.normal(size=6).astype(np.float32) for i in range(4)}
        path = tmp_path / "emb.jsonl"
        save_embeddings(table, str(path))
        loaded = load_embeddings(str(path))
        assert set(loaded) == set(table)
        for key in table:
            np.testing.assert_array_equal(loaded[key], table[key])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_embedding_sidecar_text_is_per_component_floats(self, tmp_path, dtype):
        """The sidecar writes one object per line and no header, each
        component rounded to float32 and written with "%.9g", as a corpus
        feature is: signed zeros, subnormals and the largest finite float32
        included."""
        info = np.finfo(np.float32)
        table = {
            "edge": np.array([0.1, -0.0, 0.0, info.smallest_subnormal, -info.smallest_subnormal,
                              -info.tiny, info.max, -info.max, -1 / 3, 1e-30], dtype=dtype),
            'q"\u00e9\ud800': np.arange(-2, 8, dtype=dtype),
        }
        path = tmp_path / "emb.jsonl"
        save_embeddings(table, str(path))
        assert path.read_text(encoding="utf-8") == (
            '{"id": "edge", "embedding": [0.100000001, -0, 0, 1.40129846e-45, -1.40129846e-45, '
            "-1.17549435e-38, 3.40282347e+38, -3.40282347e+38, -0.333333343, 1e-30]}\n"
            '{"id": "q\\"\\u00e9\\ud800", "embedding": [-2, -1, 0, 1, 2, 3, 4, 5, 6, 7]}\n'
        )

    @pytest.mark.parametrize(
        "table, message",
        [
            ({"a": np.array([np.nan, 1.0])}, "embedding of 'a' has non-finite entries"),
            ({"a": np.ones(2), "b": np.array([1.0, np.inf])}, "embedding of 'b' has non-finite"),
            ({"a": np.ones(2), "b": np.array([1e39, 1.0])}, "embedding of 'b' has non-finite"),
            ({"a": np.ones(2), "b": np.ones(1)},
             "embedding of 'b' length 1 does not match length 2 of the first row"),
            ({"a": np.ones(2), "b": np.ones((2, 2))}, "embedding of 'b' length 4"),
        ],
        ids=["nan", "inf", "beyond-float32", "shorter", "matrix"],
    )
    def test_save_refuses_what_the_loader_would(self, tmp_path, table, message):
        """Nothing is written: neither a new file nor over an old one."""
        path = tmp_path / "emb.jsonl"
        with pytest.raises(InputError, match=f"^{message}"):
            save_embeddings(table, str(path))
        assert not list(tmp_path.iterdir())
        path.write_bytes(b"old")
        with pytest.raises(InputError, match=f"^{message}"):
            save_embeddings(table, str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["emb.jsonl"]
        assert path.read_bytes() == b"old"

    @pytest.mark.parametrize("matrix", ["word", "node", "doc"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_model_values_are_rejected(self, trained, tmp_path, matrix, value):
        getattr(trained, f"{matrix}_vectors")[0, 1] = 1234.5
        path = tmp_path / "m.pvdm"
        save_model(trained, str(path))
        path.write_bytes(with_float_replaced(path.read_bytes(), 1234.5, value))
        with pytest.raises(InputError, match=f"file has a non-finite value in its {matrix} vectors"):
            load_model(str(path))

    @pytest.mark.parametrize("matrix", ["word", "node", "doc"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39])
    def test_non_finite_model_values_are_not_saved(self, trained, tmp_path, matrix, value):
        """A value the loader would refuse, also one of a float64 model past
        the float32 range, is refused before the file is opened."""
        model = dataclasses.replace(
            trained, **{f"{name}_vectors": getattr(trained, f"{name}_vectors").astype(np.float64)
                        for name in ("word", "node", "doc")})
        getattr(model, f"{matrix}_vectors")[0, 1] = value
        path = tmp_path / "m.pvdm"
        with pytest.raises(InputError, match=f"^model has a non-finite value in its {matrix} "
                                             "vectors$"):
            save_model(model, str(path))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "line, message",
        [
            ('[1.0, 2.0]', "line 2: embedding row needs a string id"),
            ('"s9"', "line 2: embedding row needs a string id"),
            ('{"id": 7, "embedding": [1.0]}', "line 2: embedding row needs a string id"),
            ('{"embedding": [1.0]}', "line 2: embedding row needs a string id"),
            ('{"id": "s9"}', "line 2: embedding row needs an embedding"),
            ('{"id": "s9", "embedding": [1.0, "2"]}', "line 2: embedding of 's9' is not a list"),
            ('{"id": "s9", "embedding": [1.0, true]}', "line 2: embedding of 's9' is not a list"),
            ('{"id": "s9", "embedding": [[1.0], [2.0]]}', "line 2: embedding of 's9' is not a list"),
            ('{"id": "s9", "embedding": 1.0}', "line 2: embedding of 's9' is not a list"),
            ('{"id": "s9", "embedding": [1.0]}',
             "line 2: embedding of 's9' length 1 does not match length 2 of line 1"),
            ('{"id": "s9", "embedding": [1.0, 2.0, 3.0]}',
             "line 2: embedding of 's9' length 3 does not match length 2 of line 1"),
            ('{"id": "s0", "embedding": [1.0, 2.0]}', "line 2: duplicate id 's0', first on line 1"),
            ('{"id": "s9", "embedding": [1.0, NaN]}', _NOT_FINITE),
            ('{"id": "s9", "embedding": [Infinity, 1.0]}', _NOT_FINITE),
            ('{"id": "s9", "embedding": [-Infinity, 1.0]}', _NOT_FINITE),
            ('{"id": "s9", "embedding": [1e39, 1.0]}', _NOT_FINITE),
            ('{"id": "s9", "embedding": [1, ' + "9" * 400 + ']}', _NOT_FINITE),
        ],
    )
    def test_bad_embedding_rows_name_line_and_id(self, tmp_path, line, message):
        """The sidecar and the corpus share one reader and its messages."""
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "s0", "embedding": [0.5, -1]}\n' + line + "\n")
        with pytest.raises(InputError, match=message):
            load_embeddings(str(path))


class TestModelFileFuzz:
    """A PVDM file mutated up to three times by truncation, a flipped byte,
    appended bytes, its header length overwritten or a header field set to
    another value: loading either raises InputError or gives a model that
    saves and reloads to the same bytes."""

    # The header's keys: every PvdmConfig field, dim first, then the
    # vocabulary and the document ids.
    KEYS = [f.name for f in dataclasses.fields(PvdmConfig)] + ["words", "counts", "doc_ids"]

    @pytest.fixture(scope="class")
    def clean(self):
        vocab = vocabulary_from_counts({"a": 5, "b\u00e9": 3, "c": 2, "d": 1}, 1)
        rng = np.random.default_rng(4)
        return PvdmModel(
            word_vectors=rng.normal(size=(4, 3)).astype(np.float32),
            node_vectors=rng.normal(size=(3, 3)).astype(np.float32),
            doc_vectors=rng.normal(size=(2, 3)).astype(np.float32),
            vocabulary=vocab,
            config=PvdmConfig(dim=3, min_count=1),
            doc_ids=["d0", "d\u00e9\ud800"],
        )

    def saved(self, model, tmp_path, name):
        path = tmp_path / name
        save_model(model, str(path))
        return path

    @given(st.lists(BINARY_MUTATIONS, min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_mutated_model(self, tmp_path_factory, clean, mutations):
        tmp_path = tmp_path_factory.mktemp("fuzz")
        data = self.saved(clean, tmp_path, "clean.pvdm").read_bytes()
        for mutation in mutations:
            data = mutate_binary(data, mutation, self.KEYS)
        path = tmp_path / "in.pvdm"
        path.write_bytes(data)
        try:
            loaded = load_model(str(path))
        except InputError:
            return
        once = self.saved(loaded, tmp_path, "once.pvdm")
        twice = self.saved(load_model(str(once)), tmp_path, "twice.pvdm")
        assert twice.read_bytes() == once.read_bytes()

    @pytest.mark.parametrize("mutation", [("length", U32_MAX), ("field", 0, U32_MAX)],
                             ids=["header-length", "dim"])
    def test_maximal_size_is_refused_before_reading(self, tmp_path, clean, mutation):
        """A header length or dim of 2**32 - 1 asks for far more bytes than
        the file has; the loader says so instead of allocating them."""
        data = self.saved(clean, tmp_path, "clean.pvdm").read_bytes()
        path = tmp_path / "in.pvdm"
        path.write_bytes(mutate_binary(data, mutation, self.KEYS))
        with pytest.raises(InputError, match=r"^truncated file: wanted \d+ bytes, "):
            load_model(str(path))

    def test_reads_over_64_kib_are_checked_against_the_bytes_left(self, tmp_path):
        """The word and document matrices here are 100 KiB each: the check
        passes a matrix that ends the file exactly and refuses one 4 bytes
        short."""
        model = tiny_model({f"w{i}": i + 1 for i in range(200)}, dim=128)
        model.doc_vectors = np.ones((200, 128), np.float32)
        model.doc_ids = [f"d{i}" for i in range(200)]
        data = self.saved(model, tmp_path, "big.pvdm").read_bytes()
        again = self.saved(load_model(str(tmp_path / "big.pvdm")), tmp_path, "again.pvdm")
        assert again.read_bytes() == data
        (tmp_path / "short.pvdm").write_bytes(data[:-4])
        message = f"^truncated file: wanted {200 * 128 * 4} bytes, {200 * 128 * 4 - 4} left$"
        with pytest.raises(InputError, match=message):
            load_model(str(tmp_path / "short.pvdm"))

    def test_maximal_dim_names_bytes_wanted_and_left(self, tmp_path, clean):
        data = self.saved(clean, tmp_path, "clean.pvdm").read_bytes()
        path = tmp_path / "in.pvdm"
        path.write_bytes(with_header_field(data, "dim", U32_MAX))
        left = (4 + 3 + 2) * 3 * 4  # the saved word, node and document vectors
        message = f"^truncated file: wanted {4 * U32_MAX * 4} bytes, {left} left$"
        with pytest.raises(InputError, match=message):
            load_model(str(path))

    def test_maximal_header_length_names_bytes_wanted_and_left(self, tmp_path, clean):
        data = self.saved(clean, tmp_path, "clean.pvdm").read_bytes()
        path = tmp_path / "in.pvdm"
        path.write_bytes(data[:8] + struct.pack("<I", U32_MAX) + data[12:])
        message = f"^truncated file: wanted {U32_MAX} bytes, {len(data) - 12} left$"
        with pytest.raises(InputError, match=message):
            load_model(str(path))

    @pytest.mark.parametrize("key, value, message", [
        ("window", True, "header field 'window' must be of type int"),
        ("initial_lr", 1, "header field 'initial_lr' must be of type float"),
        ("doc_ids", ["d0", 1], "header field 'doc_ids' must be of type list of str"),
        ("doc_ids", ["d0"], "trailing bytes after model payload"),
        ("doc_ids", ["d0", "d0"], "model document ids are not unique"),
        ("counts", [5, 3, 2], "model header has 4 words but 3 counts"),
        ("words", ["a", "a", "c", "d"], "model vocabulary has duplicate words"),
        ("counts", [1, 3, 2, 1], "model vocabulary is not in canonical order"),
        ("min_count", 2, "model vocabulary is not in canonical order"),
        ("window", 0, "window must be >= 1, got 0"),
    ])
    def test_bad_header_field_is_named(self, tmp_path, clean, key, value, message):
        data = self.saved(clean, tmp_path, "clean.pvdm").read_bytes()
        path = tmp_path / "in.pvdm"
        path.write_bytes(with_header_field(data, key, value))
        with pytest.raises(InputError, match=message):
            load_model(str(path))

    @pytest.mark.parametrize("body, message", [
        (b"\xff", "model header is not UTF-8"),
        (b"[1]", "model header is not a JSON object"),
        (b"{", "model header is not valid JSON"),
        (b'{"dim": 1' + b"0" * 5000 + b"}", "model header is not valid JSON"),
        (b"[" * 100_000, "model header JSON is nested too deeply"),
    ], ids=["not-utf8", "not-object", "not-json", "int-digit-limit", "deep"])
    def test_undecodable_header_is_an_input_error(self, tmp_path, body, message):
        path = tmp_path / "in.pvdm"
        path.write_bytes(b"PVDM" + struct.pack("<II", 2, len(body)) + body)
        with pytest.raises(InputError, match=message):
            load_model(str(path))

    def test_version_1_is_refused(self, tmp_path):
        """The first format: u32 dim, vocabulary size and document count, the
        words as u32-length strings with u64 counts, then the matrices."""
        path = tmp_path / "v1.pvdm"
        path.write_bytes(b"PVDM" + struct.pack("<IIII", 1, 1, 1, 0) + struct.pack("<I", 1)
                         + b"a" + struct.pack("<Q", 1) + struct.pack("<f", 0.5))
        with pytest.raises(InputError, match="^unsupported model version 1$"):
            load_model(str(path))

    @pytest.mark.parametrize("change, message", [
        (lambda m: setattr(m, "doc_ids", ["d0"]),
         r"^doc_vectors has shape \(2, 3\), the header needs \(1, 3\)$"),
        (lambda m: setattr(m, "doc_ids", ["d0", "d0"]), "document ids are not unique"),
        (lambda m: setattr(m, "config", PvdmConfig(dim=4, min_count=1)), "^word_vectors has shape"),
        (lambda m: setattr(m, "config", PvdmConfig(dim=3, min_count=2)), "canonical order"),
    ], ids=["id-count", "duplicate-ids", "dim", "min-count"])
    def test_save_refuses_what_the_loader_would(self, tmp_path, clean, change, message):
        model = dataclasses.replace(clean)
        change(model)
        path = tmp_path / "m.pvdm"
        path.write_bytes(b"old")
        with pytest.raises(InputError, match=message):
            save_model(model, str(path))
        assert path.read_bytes() == b"old" and [p.name for p in tmp_path.iterdir()] == ["m.pvdm"]


ROUND_TRIP_WORDS = ["ant", "bee", "cat", "dog", "eel", "fox"]


@st.composite
def round_trip_cases(draw):
    """A small corpus (ids with a non-ASCII letter and a lone surrogate
    among them) and a config to train it with."""
    docs = draw(st.lists(st.lists(st.sampled_from(ROUND_TRIP_WORDS), min_size=1, max_size=8),
                         min_size=1, max_size=6))
    ids = draw(st.permutations([f"d{i}" for i in range(len(docs) - 1)] + ["\u00e9\ud800"]))
    initial_lr = draw(st.floats(1e-3, 0.1))
    config = PvdmConfig(
        dim=draw(st.integers(1, 6)),
        window=draw(st.integers(1, 4) | st.just(2**63 - 2)),
        epochs=draw(st.integers(0, 3)),
        min_count=draw(st.integers(1, 2)),
        initial_lr=initial_lr,
        final_lr=draw(st.floats(1e-6, initial_lr)),
        seed=draw(st.integers(0, 2**40)),
    )
    rows = [(i, " ".join(d), SideLabel.LEFT) for i, d in zip(ids, docs)]
    return make_corpus(rows), config


class TestModelRoundTrip:
    """After train, save and load, the model behaves as the one in memory,
    bit for bit: the config, the document ids and training embeddings, and
    what inference and nearest_words give."""

    @given(round_trip_cases())
    @settings(max_examples=25, deadline=None)
    def test_reloaded_model_is_the_trained_one(self, tmp_path_factory, case):
        corpus, config = case
        counts = Counter(t for sample in corpus for t in sample.tokens)
        assume(max(counts.values()) >= config.min_count)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # documents without a kept word
            model = train_pvdm(corpus, config)
        path = tmp_path_factory.mktemp("rt") / "m.pvdm"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.config == model.config and loaded.doc_ids == model.doc_ids
        embedded, reloaded = training_embeddings(model), training_embeddings(loaded)
        assert list(reloaded) == list(embedded)
        for key, vector in embedded.items():
            assert reloaded[key].tobytes() == vector.tobytes()
        docs = [s.tokens for s in corpus if any(t in model.vocabulary for t in s.tokens)]
        seeds = list(range(len(docs)))
        assert (infer_documents(loaded, docs, 3, seeds).tobytes()
                == infer_documents(model, docs, 3, seeds).tobytes())
        for embed in ("infer", "average"):
            assert (nearest_words(loaded, docs[0], 3, steps=2, seed=1, embed=embed)
                    == nearest_words(model, docs[0], 3, steps=2, seed=1, embed=embed))
