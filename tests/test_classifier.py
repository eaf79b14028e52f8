"""Two-stage classifier: gradients, freezing, ablation, word head, files."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BINARY_MUTATIONS,
    U32_MAX,
    NamedAdam,
    fd_check_loss,
    feature_corpus,
    frames_apart,
    make_corpus,
    make_sample,
    mutate_binary,
    python_calls,
    reference_fit,
    reference_forward,
    reference_loss_and_grads,
    with_float_replaced,
    with_header_field,
)
from weakbias.cli import main
from weakbias.corpus import ClassWeights, Corpus, SideLabel, load_corpus, save_corpus
from weakbias.classifier import (
    _FITS,
    BiasModel,
    TrainSpec,
    _dense_relu,
    _fit,
    _forward,
    ablate_zero_text,
    argmax_sides,
    build_model,
    embedding_matrix,
    forward_stage1,
    load_checkpoint,
    loss_and_grads,
    predict_batch,
    rank_images_for_word,
    save_checkpoint,
    select_visual_words,
    train_image_only,
    train_stage1,
    train_stage2,
    train_word_head,
)
from weakbias.doc2vec import load_embeddings, save_embeddings
from weakbias.errors import InputError
from weakbias.nn import (
    _ADAM_CHUNK,
    Adam,
    Affine,
    bce_with_logits,
    softmax,
    weighted_cross_entropy,
)
from weakbias.synthetic import SyntheticSpec, make_synthetic


def tiny_model(seed=0, f_dim=8, hidden=6, fused=5, text_dim=7):
    return build_model(
        f_dim,
        hidden=hidden,
        fused=fused,
        text_dim=text_dim,
        seed=seed,
        dtype=np.float64,
    )


def fit_setup(key, dtype, f_dim, hidden, fused, text_dim, n_words, n, seed):
    """A model in `dtype` with both extra heads and n rows of the inputs
    and targets the trainer of history key `key` hands _fit: features,
    embeddings or frozen trunk outputs, and labels and weights or word
    targets."""
    rng = np.random.default_rng(seed)
    model = build_model(f_dim, hidden=hidden, fused=fused, text_dim=text_dim, seed=seed,
                        dtype=dtype)
    model.head2 = Affine.create(rng, hidden, 2, dtype)
    model.word_head = Affine.create(rng, fused, n_words, dtype)
    model.visual_words = [f"w{j}" for j in range(n_words)]
    features = rng.normal(size=(n, f_dim)).astype(dtype)
    text = rng.normal(size=(n, text_dim)).astype(dtype)
    labels = rng.integers(0, 2, size=n)
    weights = rng.uniform(0.5, 2.0, size=n).astype(dtype)
    arrays = {
        "stage1": ((features, text), (labels, weights)),
        "stage2": ((rng.uniform(0, 2, size=(n, hidden)).astype(dtype),), (labels, weights)),
        "image-only": ((features,), (labels, weights)),
        "words": ((features, text), (rng.integers(0, 2, size=(n, n_words)).astype(dtype),)),
    }[key]
    return model, arrays


@st.composite
def fit_cases(draw):
    """(history key, model, spec, (inputs, targets)) for one _fit (fit_setup)
    at drawn widths and row count, in float32 or float64."""
    key = draw(st.sampled_from(["stage1", "stage2", "image-only", "words"]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    widths = [draw(st.integers(1, 6)) for _ in range(5)]
    n, seed = draw(st.integers(1, 20)), draw(st.integers(0, 2**32 - 1))
    model, arrays = fit_setup(key, dtype, *widths, n, seed)
    spec = TrainSpec(
        epochs=draw(st.integers(1, 3)),
        lr=draw(st.sampled_from([1e-4, 1e-2, 0.5])),
        batch_size=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 99)),
    )
    return key, model, spec, arrays


def multimodal_corpus(n=80, f_dim=8, t_dim=7, seed=0, noise=0.5):
    """Features and embeddings both shifted by side; embeddings are cleaner."""
    rng = np.random.default_rng(seed)
    samples, embeddings = [], {}
    for i in range(n):
        side = SideLabel.LEFT if i % 2 == 0 else SideLabel.RIGHT
        sign = 1.0 if side is SideLabel.LEFT else -1.0
        feature = rng.normal(scale=noise, size=f_dim)
        feature[0] += sign * 0.8
        sid = f"d{i:03d}"
        samples.append(
            make_sample(sid, f"doc {i}", side, feature=feature, dim=f_dim)
        )
        emb = rng.normal(scale=0.1, size=t_dim)
        emb[0] += sign * 2.0
        embeddings[sid] = emb.astype(np.float32)
    return Corpus(f_dim, samples), embeddings


class TestLosses:
    def test_weighted_ce_hand_example(self):
        """Uniform logits give ln 2 per sample, scaled by the weight."""
        loss, dlogits = weighted_cross_entropy(
            np.zeros((1, 2)), np.array([0]), np.array([2.0])
        )
        np.testing.assert_allclose(loss, 2 * math.log(2), rtol=1e-12)
        np.testing.assert_allclose(dlogits, [[-1.0, 1.0]], rtol=1e-12)

    def test_unit_weights_match_plain_mean(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(9, 2))
        labels = rng.integers(0, 2, size=9)
        loss, _ = weighted_cross_entropy(logits, labels, np.ones(9))
        probs = softmax(logits)
        want = -np.log(probs[np.arange(9), labels]).mean()
        np.testing.assert_allclose(loss, want, rtol=1e-12)

    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        n=st.integers(1, 70),
        k=st.integers(2, 4),
        scale=st.sampled_from([1e-3, 1.0, 30.0, 1e4]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_gradient_is_softmax_minus_one_hot_bitwise(self, dtype, n, k, scale, seed):
        """The gradient reuses the loss's exp and row sums; its bits are
        those of softmax(logits) with 1 taken from each label's entry, times
        weight / n, and the loss is that of the separate log-sum-exp."""
        rng = np.random.default_rng(seed)
        logits = (rng.normal(size=(n, k)) * scale).astype(dtype)
        labels = rng.integers(0, k, size=n)
        weights = rng.uniform(0.5, 2.0, size=n).astype(dtype)
        loss, dlogits = weighted_cross_entropy(logits, labels, weights)
        rows = np.arange(n)
        want = softmax(logits)
        want[rows, labels] -= 1.0
        want *= (weights / n)[:, None]
        assert dlogits.dtype == want.dtype and dlogits.tobytes() == want.tobytes()
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted[rows, labels] - np.log(np.exp(shifted).sum(axis=1))
        assert loss == float((-weights * log_probs).mean())

    def test_bce_zero_logits_is_ln2_per_output(self):
        rng = np.random.default_rng(1)
        targets = rng.integers(0, 2, size=(3, 5)).astype(float)
        loss, dlogits = bce_with_logits(np.zeros((3, 5)), targets)
        np.testing.assert_allclose(loss, 5 * math.log(2), rtol=1e-12)
        np.testing.assert_allclose(dlogits, (0.5 - targets) / 3, rtol=1e-12)

    def test_bce_survives_extreme_logits(self):
        logits = np.array([[800.0, -800.0]])
        targets = np.array([[1.0, 0.0]])
        loss, dlogits = bce_with_logits(logits, targets)
        assert np.isfinite(loss) and loss < 1e-6
        assert np.all(np.isfinite(dlogits))

    def test_batch_size_mismatch(self):
        with pytest.raises(InputError, match="mismatch"):
            weighted_cross_entropy(np.zeros((2, 2)), np.zeros(3, int), np.ones(2))


class TestAdam:
    def test_first_step_moves_by_roughly_lr_times_sign(self):
        """With bias correction, step one reduces to lr * g / (|g| + eps)."""
        param = np.zeros(3)
        grad = np.array([0.5, -2.0, 1e-12])
        want = -0.1 * grad / (np.abs(grad) + 1e-8)
        Adam(param, lr=0.1).step(grad)
        np.testing.assert_allclose(param, want, rtol=1e-10)

    def test_state_is_per_element(self):
        param = np.zeros(4)
        Adam(param, lr=0.1).step(np.array([1.0, 1.0, -1.0, -1.0]))
        np.testing.assert_allclose(param[:2], -param[2:], rtol=1e-12)


class TestFlatStep:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunked_step_matches_name_keyed_adam(self, dtype):
        """A vector spanning three chunks, the last one short, viewed as three
        named arrays whose bounds fall inside chunks: eight steps of
        gradients of mixed scales give the oracle's bits in every array."""
        size = 2 * _ADAM_CHUNK + 1000
        rng = np.random.default_rng(4)
        flat = rng.normal(size=size).astype(dtype)
        cuts = [0, 700, _ADAM_CHUNK + 300, size]
        named = {f"p{i}": flat[a:b].copy() for i, (a, b) in enumerate(zip(cuts, cuts[1:]))}
        adam, oracle = Adam(flat, lr=0.01), NamedAdam(0.01)
        for _ in range(8):
            grad = (rng.normal(size=size) * 10.0 ** rng.integers(-6, 3, size)).astype(dtype)
            oracle.step(named, {k: grad[a:b] for k, a, b in zip(named, cuts, cuts[1:])})
            adam.step(grad)
        assert flat.tobytes() == np.concatenate(list(named.values())).tobytes()

    @staticmethod
    def steps_against_oracle(size, buffers=None, n_steps=6):
        """n_steps Adam steps over `size` float32 parameters, the gradient
        of step i refilled in place into buffers[i % len(buffers)], or a
        fresh array each step without buffers: the flat vector after them
        and the one NamedAdam makes from the same gradients, as bytes."""
        rng = np.random.default_rng(9)
        flat = rng.normal(size=size).astype(np.float32)
        named, adam, oracle = {"p": flat.copy()}, Adam(flat, lr=0.01), NamedAdam(0.01)
        for i in range(n_steps):
            grad = (rng.normal(size=size) * 10.0 ** rng.integers(-4, 2, size)).astype(np.float32)
            if buffers is not None:
                buffers[i % len(buffers)][...] = grad
                grad = buffers[i % len(buffers)]
            oracle.step(named, {"p": grad})
            adam.step(grad)
        return flat.tobytes(), named["p"].tobytes()

    def test_second_gradient_buffer_matches_name_keyed_adam(self):
        """Steps that alternate between two gradient buffers, and steps on a
        fresh array each time, rebuild the chunk views for each new buffer:
        the oracle's bits at every step count."""
        size = 2 * _ADAM_CHUNK + 77
        two = [np.empty(size, np.float32), np.empty(size, np.float32)]
        got, expected = self.steps_against_oracle(size, two)
        assert got == expected
        got, expected = self.steps_against_oracle(size)
        assert got == expected

    def test_buffer_refilled_in_place_matches_name_keyed_adam(self):
        """One gradient buffer refilled before every step, as _fit's is: the
        views built at the first step see each new gradient."""
        size = 3 * _ADAM_CHUNK - 5
        got, expected = self.steps_against_oracle(size, [np.empty(size, np.float32)])
        assert got == expected

    def test_step_calls_do_not_grow_with_chunks(self):
        """A step over seven chunks makes the Python-level calls of a step
        over one, at its first step with a buffer and at a later one: no
        Python frame runs per chunk."""
        def calls(n_chunks):
            params = np.zeros(n_chunks * _ADAM_CHUNK, np.float32)
            adam, grad = Adam(params), np.ones_like(params)
            return [python_calls(adam.step, grad)[1] for _ in range(2)]

        one, seven = calls(1), calls(7)
        for at_one, at_seven in zip(one, seven):
            assert at_one == at_seven, f"frames seven chunks add: {frames_apart(at_one, at_seven)}"

    @given(case=fit_cases())
    @settings(max_examples=100, deadline=None)
    def test_fit_matches_name_keyed_loop(self, case):
        """Stage 1, stage 2, the image-only and the word-head trainer's _fit
        on a drawn model and data, float32 or float64: every parameter, the
        frozen ones included, and the loss history equal the plain loop's
        (reference_fit) bit for bit."""
        self.check_fit(*case)

    @pytest.mark.parametrize("key", ["stage1", "stage2", "image-only", "words"])
    def test_fit_at_workload_shape(self, key):
        """train-pipeline's widths (64 features, hidden 64, fused 12, text
        dim 96) and batch size 64 over 200 rows, whose BLAS kernels the
        drawn widths never reach: the plain loop's bits after 3 epochs."""
        model, arrays = fit_setup(key, np.float32, 64, 64, 12, 96, 20, 200, 5)
        self.check_fit(key, model, TrainSpec(epochs=3, lr=2e-3, seed=1), arrays)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_trained_arrays_are_aligned_views_of_one_vector(self, dtype):
        """After the image-only _fit, trunk and head2 arrays are views of one
        vector, each starting on a 64-byte boundary (an array 8 bytes off a
        16-byte one rounds some dot products differently under the Prescott
        kernel); the fusion and stage-1 head arrays are the model's own."""
        model, arrays = fit_setup("image-only", dtype, 3, 5, 2, 3, 1, 4, 0)
        frozen = [model.fusion.W, model.fusion.b, model.head1.W, model.head1.b]
        _fit(model, "image-only", TrainSpec(epochs=1), *arrays)
        trained = [getattr(layer, a) for layer in (model.trunk1, model.trunk2, model.head2)
                   for a in ("W", "b")]
        assert len({id(array.base) for array in trained}) == 1
        assert all(array.ctypes.data % 64 == 0 for array in trained)
        now = [model.fusion.W, model.fusion.b, model.head1.W, model.head1.b]
        assert all(a is b for a, b in zip(now, frozen))

    @staticmethod
    def check_fit(key, model, spec, arrays):
        fitted, expected = model.copy(), model.copy()
        _fit(fitted, key, spec, *arrays)
        reference_fit(expected, key, spec, *arrays)
        assert fitted.history == expected.history
        for name, array in expected.parameters().items():
            got = fitted.parameters()[name]
            assert got.dtype == array.dtype and got.tobytes() == array.tobytes(), name


class TestForwardStage1:
    def test_zero_parameters_give_even_odds(self):
        model = tiny_model()
        for arr in model.parameters().values():
            arr[:] = 0
        logits = forward_stage1(model, np.ones(8), np.ones(7))
        np.testing.assert_array_equal(logits, [0.0, 0.0])
        np.testing.assert_allclose(softmax(logits), [0.5, 0.5])

    def test_head_is_linear_in_its_weights(self):
        model = tiny_model(seed=3)
        x, e = np.ones(8), np.ones(7)
        base = forward_stage1(model, x, e)
        model.head1.W *= 2
        model.head1.b *= 2
        np.testing.assert_allclose(forward_stage1(model, x, e), 2 * base, rtol=1e-12)

    def test_batch_agrees_with_single_rows(self):
        model = tiny_model(seed=4)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 8))
        e = rng.normal(size=(5, 7))
        batch = forward_stage1(model, x, e)
        for i in range(5):
            # batched and single-row matmuls may differ in the last ulp
            np.testing.assert_allclose(
                batch[i], forward_stage1(model, x[i], e[i]), rtol=1e-12
            )

    def test_dimension_mismatch_is_reported(self):
        model = tiny_model()
        with pytest.raises(InputError, match="columns"):
            forward_stage1(model, np.ones(9), np.ones(7))
        with pytest.raises(InputError, match="doc embedding"):
            forward_stage1(model, np.ones(8), np.ones(6))


class TestGradients:
    """Every trainer's analytic gradient is validated against central
    differences in 64-bit mode."""

    @pytest.mark.parametrize("key", list(_FITS))
    def test_gradients(self, key):
        for seed in range(3):
            fd_check_loss(key, tiny_model(seed=seed), np.random.default_rng(100 + seed), 5, 4)


@st.composite
def forward_cases(draw):
    """(model, x, text, labels, weights, word targets): a model in float32 or
    float64 with both extra heads and random biases (zero in some draws), and
    a batch in the model's dtype or, for a float32 model, in float64, some
    of whose rows are zero so that pre-activations land on 0 exactly."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    x_dtype = draw(st.sampled_from([dtype, np.float64]))
    f_dim, hidden, fused, text_dim, n_words = (draw(st.integers(1, 9)) for _ in range(5))
    n, seed = draw(st.integers(1, 24)), draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    model = build_model(f_dim, hidden=hidden, fused=fused, text_dim=text_dim, seed=seed,
                        dtype=dtype)
    model.head2 = Affine.create(rng, hidden, 2, dtype)
    model.word_head = Affine.create(rng, fused, n_words, dtype)
    model.visual_words = [f"w{j}" for j in range(n_words)]
    if draw(st.booleans()):
        for layer in model.layers().values():
            layer.b[...] = rng.normal(scale=0.5, size=layer.b.shape)
    x = rng.normal(size=(n, f_dim)).astype(x_dtype)
    x[rng.random(n) < 0.2] = 0
    text = rng.normal(size=(n, text_dim)).astype(x_dtype)
    labels = rng.integers(0, 2, size=n)
    weights = rng.uniform(0.5, 2.0, size=n).astype(dtype)
    targets = rng.integers(0, 2, size=(n, n_words)).astype(dtype)
    return model, x, text, labels, weights, targets


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestForwardBits:
    """The forward runs each layer's bias add and rectifier in place on its
    product and keeps no pre-activation; the backward passes mask with the
    rectified outputs. Everything it feeds gives the bits of the reference
    forward, which keeps every pre-activation and masks with them."""

    @given(case=forward_cases())
    @settings(max_examples=100, deadline=None)
    def test_forward_matches_reference(self, case):
        """The trunk and the fusion forward, with and without the steps
        kept for the backward pass, and the stage-1 and stage-2 outputs."""
        model, x, text, _, _, _ = case
        want_steps, fused = reference_forward(model, x, text)
        steps = []
        assert same_bits(_forward(model, ("trunk1", "trunk2", "fusion"), x, text, steps), fused)
        assert [name for name, _, _ in steps] == [name for name, _, _ in want_steps]
        for (_, got_in, got_out), (_, want_in, pre) in zip(steps, want_steps):
            assert same_bits(got_in, want_in) and same_bits(got_out, np.maximum(pre, 0))
        assert same_bits(_forward(model, ("trunk1", "trunk2", "fusion"), x, text), fused)
        trunk = _forward(model, ("trunk1", "trunk2"), x)
        assert same_bits(trunk, steps[1][2])
        assert same_bits(forward_stage1(model, x, text), fused @ model.head1.W + model.head1.b)
        probs = softmax(trunk @ model.head2.W + model.head2.b)
        sides, got_probs = predict_batch(model, x)
        assert same_bits(got_probs, probs) and sides == argmax_sides(probs)

    @pytest.mark.parametrize("key", list(_FITS))
    @given(case=forward_cases())
    @settings(max_examples=100, deadline=None)
    def test_gradients_match_reference(self, key, case):
        """Each trainer's loss and every gradient loss_and_grads returns for
        it. Stage 2 runs on the reference trunk output, and its gradients
        are the head2 part of the reference's."""
        model, x, text, labels, weights, targets = case
        _, _, trained, loss_fn = _FITS[key]
        targets = (targets,) if loss_fn is bce_with_logits else (labels, weights)
        text = text if "fusion" in trained else None

        def loss_of(logits):
            return loss_fn(logits, *targets)

        want = reference_loss_and_grads(model, getattr(model, trained[-1]), trained[-1],
                                        loss_of, x, text)
        if key == "stage2":
            inputs = (reference_forward(model, x)[1],)
        else:
            inputs = (x,) if text is None else (x, text)
        got = loss_and_grads(model, trained, loss_fn, inputs, targets)
        assert got[0] == want[0]
        want_grads = {k: v for k, v in want[1].items() if k.rsplit("_", 1)[0] in trained}
        assert got[1].keys() == want_grads.keys()
        for name, grad in want_grads.items():
            assert same_bits(got[1][name], grad), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_masks_agree_on_signed_zeros_nan_inf_and_subnormals(self, dtype):
        """h = max(pre, 0) is > 0 exactly where pre is: at -0.0, +0.0, NaN
        of either sign, ±inf, ±subnormals, ±tiny, ±max and random bit
        patterns. A layer whose biases are those values (its product being
        zero) gives the reference forward's bits through _dense_relu."""
        info = np.finfo(dtype)
        special = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf,
                            info.smallest_subnormal, -info.smallest_subnormal,
                            info.tiny, -info.tiny, info.max, -info.max, 1.0, -1.0], dtype)
        uint = np.uint32 if dtype == np.float32 else np.uint64
        bits = np.random.default_rng(0).integers(0, np.iinfo(uint).max, size=100_000,
                                                 dtype=uint, endpoint=True)
        pre = np.concatenate([special, bits.view(dtype)])
        h = pre.copy()
        np.maximum(h, 0, out=h)
        assert np.array_equal(h > 0, pre > 0)
        layer = Affine(np.zeros((1, special.size), dtype), special)
        x = np.zeros((3, 1), dtype)
        want = x @ layer.W + layer.b
        got = _dense_relu(x, layer)
        assert same_bits(got, np.maximum(want, 0))
        assert np.array_equal(got > 0, want > 0)


def traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of the memory fn(*args) allocates."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_held(fn, *args):
    """The bytes of the memory fn(*args) allocates that are still allocated
    when it returns, read while its result is alive."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestForwardMemory:
    """At n rows and trunk width hidden, the frozen trunk's forward holds
    two (n, hidden) arrays at its peak, its two layers' outputs, not four:
    a pre-activation beside each of them would double it. The inference
    forward through the fusion layer drops each array once the next one
    exists, so it peaks at the joined input and the fusion output."""

    n, feature_dim, hidden, fused, text_dim = 2000, 64, 256, 256, 200
    slack = 256 * 1024

    def model_and_features(self):
        rng = np.random.default_rng(0)
        model = build_model(self.feature_dim, hidden=self.hidden, fused=self.fused,
                            text_dim=self.text_dim)
        model.head2 = Affine.create(rng, self.hidden, 2, np.float32)
        features = rng.normal(size=(self.n, self.feature_dim)).astype(np.float32)
        return model, features, 2 * self.n * self.hidden * 4 + self.slack

    def test_predict_batch_holds_two_activations(self):
        model, features, bound = self.model_and_features()
        assert traced_peak(predict_batch, model, features) <= bound

    def test_forward_stage1_holds_the_joined_input_and_the_fusion_output(self):
        model, features, _ = self.model_and_features()
        text = np.random.default_rng(1).normal(size=(self.n, self.text_dim)).astype(np.float32)
        bound = self.n * (self.hidden + self.text_dim) * 4 + self.n * self.fused * 4
        assert traced_peak(forward_stage1, model, features, text) <= bound + self.slack

    def test_train_stage2_trunk_holds_two_activations(self):
        """train_stage2 also holds its float32 features and its copy of the
        model while the trunk runs."""
        model, features, bound = self.model_and_features()
        corpus = feature_corpus(features)
        held = features.nbytes + sum(a.nbytes for a in model.parameters().values())
        spec = TrainSpec(epochs=1, seed=0)
        assert traced_peak(train_stage2, model, corpus, spec) <= bound + held


class TestTrainStage1Memory:
    """`weakbias train-stage1` at fusion-train's shape (1,600 rows of 64
    features, a 200-dim sidecar, hidden and fused 256) trains on the loaded
    feature block and sidecar block themselves. Its tracemalloc peak is what
    loading the two files holds, the four vectors of the model's 199,938
    trained values (parameters, gradients, both Adam moments), Adam's
    scratch, and `slack` for one batch's activations and the command's own
    objects. On CPython 3.11 with numpy 2.4 that bound is 6.9 MiB and the
    peak 6.7 MiB; a second copy of either input (1.6 MiB of the two) does
    not fit under it."""

    n, feature_dim, text_dim, slack = 1600, 64, 200, 0.72 * 2**20

    def test_peak_holds_each_input_once(self, tmp_path):
        corpus = make_synthetic(SyntheticSpec(n_samples=self.n, feature_dim=self.feature_dim,
                                              seed=7))
        rows = np.random.default_rng(7).normal(size=(self.n, self.text_dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        paths = {name: str(tmp_path / name) for name in ("c.jsonl", "e.jsonl", "m.ckpt")}
        save_corpus(corpus, paths["c.jsonl"])
        save_embeddings(dict(zip(corpus.ids(), rows.astype(np.float32))), paths["e.jsonl"])
        argv = ["train-stage1", "--corpus", paths["c.jsonl"], "--embeddings", paths["e.jsonl"],
                "--model-out", paths["m.ckpt"], "--seed", "7", "--epochs"]
        assert main(argv + ["0"]) == 0  # imports and caches a first run makes
        held = traced_held(lambda: (load_corpus(paths["c.jsonl"]),
                                    load_embeddings(paths["e.jsonl"])))
        peak = traced_peak(main, argv + ["1"])
        model = load_checkpoint(paths["m.ckpt"])
        values = sum(a.size for a in model.parameters().values()) * 4
        assert values == 199938 * 4
        bound = held + 4 * values + 2 * _ADAM_CHUNK * 4 + self.slack
        assert peak <= bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


class TestTrainingInputs:
    @pytest.mark.parametrize("lr", [0.0, -1e-3, math.nan, math.inf, -math.inf])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        """NaN slips past a plain `lr <= 0` check; the error names the value."""
        with pytest.raises(InputError, match=f"got {lr}$"):
            TrainSpec(epochs=1, lr=lr)

    def test_every_trainer_rejects_an_empty_corpus(self):
        empty, spec = Corpus(8, []), TrainSpec(epochs=1)
        model = train_stage2(tiny_model(), multimodal_corpus(n=4)[0], spec)
        for train in (
            lambda: train_stage1(empty, {}, spec),
            lambda: train_stage2(model, empty, spec),
            lambda: train_image_only(empty, spec),
            lambda: train_word_head(model, empty, {}, ["w"], spec),
        ):
            with pytest.raises(InputError, match="empty corpus"):
                train()


class TestEmbeddingMatrix:
    @staticmethod
    def sidecar(tmp_path, embeddings, ids):
        """The embeddings of `ids`, in that order, saved and loaded back."""
        path = str(tmp_path / "emb.jsonl")
        save_embeddings({sid: embeddings[sid] for sid in ids}, path)
        return load_embeddings(path)

    def test_aligned_sidecar_is_its_read_only_block(self, tmp_path):
        corpus, embeddings = multimodal_corpus(n=12)
        loaded = self.sidecar(tmp_path, embeddings, corpus.ids())
        matrix = embedding_matrix(corpus.samples, loaded, np.float32)
        assert not matrix.flags.writeable
        assert all(np.shares_memory(matrix[i], loaded[sid]) for i, sid in enumerate(corpus.ids()))
        assert matrix.tobytes() == np.stack(list(loaded.values())).tobytes()

    def test_reordered_or_longer_sidecar_is_stacked(self, tmp_path):
        """A sidecar in another order, one with an id the corpus lacks, and
        a float64 request: a new writable matrix in the samples' order."""
        corpus, embeddings = multimodal_corpus(n=12)
        extra = dict(embeddings, spare=embeddings["d000"])
        for ids, dtype in ((corpus.ids()[::-1], np.float32), (list(extra), np.float32),
                           (corpus.ids(), np.float64)):
            loaded = self.sidecar(tmp_path, extra, ids)
            matrix = embedding_matrix(corpus.samples, loaded, dtype)
            want = np.array([loaded[sid] for sid in corpus.ids()], dtype=dtype)
            assert matrix.flags.writeable and matrix.dtype == dtype
            assert matrix.tobytes() == want.tobytes()

    def test_missing_id_keeps_its_error(self, tmp_path):
        corpus, embeddings = multimodal_corpus(n=6)
        ids = [sid for sid in corpus.ids() if sid != "d003"]
        loaded = self.sidecar(tmp_path, embeddings, ids)
        with pytest.raises(InputError, match=r"^no document embedding for sample 'd003'$"):
            embedding_matrix(corpus.samples, loaded, np.float32)


class TestTrainStage1:
    def test_zero_epochs_returns_initialization(self):
        corpus, embeddings = multimodal_corpus(n=12)
        spec = TrainSpec(epochs=0, seed=3)
        model = train_stage1(corpus, embeddings, spec, hidden=6, fused=5)
        fresh = build_model(8, hidden=6, fused=5, text_dim=7, seed=3)
        for name, arr in model.parameters().items():
            np.testing.assert_array_equal(arr, fresh.parameters()[name])

    def test_loss_decreases(self):
        corpus, embeddings = multimodal_corpus()
        spec = TrainSpec(epochs=8, lr=1e-3, seed=0)
        model = train_stage1(corpus, embeddings, spec, hidden=16, fused=12)
        losses = model.history["stage1"]
        assert len(losses) == 8
        assert losses[-1] < losses[0]

    def test_missing_embedding_names_the_sample(self):
        corpus, embeddings = multimodal_corpus(n=6)
        del embeddings["d003"]
        with pytest.raises(InputError, match="d003"):
            train_stage1(corpus, embeddings, TrainSpec(epochs=1))

    def test_fixed_seed_reproduces_bitwise(self):
        corpus, embeddings = multimodal_corpus(n=30)
        spec = TrainSpec(epochs=3, seed=11)
        a = train_stage1(corpus, embeddings, spec, hidden=6, fused=5)
        b = train_stage1(corpus, embeddings, spec, hidden=6, fused=5)
        for name, arr in a.parameters().items():
            np.testing.assert_array_equal(arr, b.parameters()[name])

    def test_unit_class_weights_match_unweighted_bitwise(self):
        """A balanced corpus weighted (1, 1) must follow the exact same
        trajectory as no weighting at all."""
        corpus, embeddings = multimodal_corpus(n=24)
        plain = train_stage1(
            corpus, embeddings, TrainSpec(epochs=3, seed=2), hidden=6, fused=5
        )
        weighted = train_stage1(
            corpus,
            embeddings,
            TrainSpec(epochs=3, seed=2, class_weights=ClassWeights(1.0, 1.0)),
            hidden=6,
            fused=5,
        )
        for name, arr in plain.parameters().items():
            np.testing.assert_array_equal(arr, weighted.parameters()[name])
        assert plain.history == weighted.history


class TestTrainStage2:
    def test_frozen_parameters_are_bit_identical(self):
        corpus, embeddings = multimodal_corpus(n=40)
        stage1 = train_stage1(
            corpus, embeddings, TrainSpec(epochs=2, seed=1), hidden=6, fused=5
        )
        before = {k: v.copy() for k, v in stage1.parameters().items()}
        stage2 = train_stage2(stage1, corpus, TrainSpec(epochs=3, seed=1))
        for name in before:
            np.testing.assert_array_equal(stage2.parameters()[name], before[name])
            np.testing.assert_array_equal(stage1.parameters()[name], before[name])
        assert stage2.head2 is not None
        assert stage1.head2 is None

    def test_untrained_stage1_is_accepted(self):
        corpus, _ = multimodal_corpus(n=16)
        model = build_model(8, hidden=6, fused=5, text_dim=7)
        out = train_stage2(model, corpus, TrainSpec(epochs=1))
        assert out.head2 is not None

    def test_loss_decreases(self):
        corpus, embeddings = multimodal_corpus(n=60)
        stage1 = train_stage1(
            corpus, embeddings, TrainSpec(epochs=3, lr=1e-3, seed=0),
            hidden=16, fused=12,
        )
        stage2 = train_stage2(stage1, corpus, TrainSpec(epochs=6, lr=1e-3, seed=0))
        losses = stage2.history["stage2"]
        assert losses[-1] < losses[0]


class TestPredict:
    def test_requires_stage2(self):
        model = tiny_model()
        with pytest.raises(InputError, match="stage 2"):
            predict_batch(model, np.ones(8))

    def test_symmetric_zero_head_ties_to_left(self):
        model = tiny_model(seed=1)
        model.head2 = Affine(np.zeros((6, 2)), np.zeros(2))
        sides, probs = predict_batch(model, np.ones(8))
        assert sides == [SideLabel.LEFT]
        assert probs[0, 0] == pytest.approx(0.5)

    def test_probabilities_sum_to_one(self):
        model = tiny_model(seed=2)
        rng = np.random.default_rng(0)
        model.head2 = Affine.create(rng, 6, 2, np.float64)
        _, probs = predict_batch(model, rng.normal(size=(10, 8)))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(10), atol=1e-6)

    def test_argmax_invariant_under_positive_head_scaling(self):
        model = tiny_model(seed=3)
        rng = np.random.default_rng(1)
        model.head2 = Affine.create(rng, 6, 2, np.float64)
        x = rng.normal(size=(20, 8))
        before, _ = predict_batch(model, x)
        model.head2.W *= 7.5
        model.head2.b *= 7.5
        after, _ = predict_batch(model, x)
        assert before == after

    def test_separable_data_is_learned(self):
        """Linearly separable clusters: the direct image model must fit the
        training set almost perfectly."""
        rng = np.random.default_rng(4)
        n = 200
        sides = [SideLabel.LEFT if i < n // 2 else SideLabel.RIGHT for i in range(n)]
        shift = np.where(np.arange(n)[:, None] < n // 2, 2.0, -2.0)
        vectors = rng.normal(size=(n, 8)) * 0.3 + shift * np.eye(8)[0]
        corpus = feature_corpus(vectors, sides=sides)
        model = train_image_only(
            corpus,
            TrainSpec(epochs=30, lr=3e-3, seed=0),
            hidden=16,
            fused=8,
            text_dim=4,
        )
        predicted, _ = predict_batch(model, corpus.features())
        accuracy = np.mean([p is s.side for p, s in zip(predicted, corpus)])
        assert accuracy >= 0.95

    def test_stage1_prediction_uses_text_path(self):
        corpus, embeddings = multimodal_corpus(n=60)
        spec = TrainSpec(epochs=10, lr=3e-3, seed=0)
        model = train_stage1(corpus, embeddings, spec, hidden=16, fused=12)
        text = np.stack([embeddings[s.id] for s in corpus])
        predicted = argmax_sides(forward_stage1(model, corpus.features(), text))
        hits = sum(p is s.side for p, s in zip(predicted, corpus))
        assert hits / len(corpus) >= 0.9


class TestAblateZeroText:
    def test_two_zeroings_coincide_bitwise(self):
        """Zeroing the fusion text rows equals feeding a zero embedding."""
        model = tiny_model(seed=5)
        ablated = ablate_zero_text(model)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 8))
        e = rng.normal(size=(6, 7))
        zeros = np.zeros((6, 7))
        np.testing.assert_array_equal(
            forward_stage1(ablated, x, e), forward_stage1(model, x, zeros)
        )

    def test_output_ignores_the_embedding(self):
        model = tiny_model(seed=6)
        ablated = ablate_zero_text(model)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 8))
        out1 = forward_stage1(ablated, x, rng.normal(size=(4, 7)))
        out2 = forward_stage1(ablated, x, rng.normal(size=(4, 7)) * 100)
        np.testing.assert_array_equal(out1, out2)

    def test_original_model_is_untouched(self):
        model = tiny_model(seed=7)
        before = model.fusion.W.copy()
        ablate_zero_text(model)
        np.testing.assert_array_equal(model.fusion.W, before)


class TestSelectVisualWords:
    def corpus_with_dispersion(self):
        # "tight" appears on samples sharing one feature; "loose" on scattered ones
        rows = []
        rng = np.random.default_rng(0)
        for i in range(4):
            rows.append(
                make_sample(f"t{i}", "tight shared words", SideLabel.LEFT,
                            feature=np.ones(4), dim=4)
            )
        for i in range(4):
            rows.append(
                make_sample(f"l{i}", "loose shared words", SideLabel.RIGHT,
                            feature=rng.normal(scale=5.0, size=4), dim=4)
            )
        return Corpus(4, rows)

    def test_tight_cluster_outranks_dispersed(self):
        corpus = self.corpus_with_dispersion()
        ranked = select_visual_words(corpus, top_n_frequent=10, keep=4)
        assert ranked.index("tight") < ranked.index("loose")
        assert ranked[0] in {"tight", "shared", "words"}

    def test_identical_features_score_zero_and_rank_first(self):
        corpus = self.corpus_with_dispersion()
        ranked = select_visual_words(corpus, top_n_frequent=10, keep=1)
        assert ranked == ["shared"] or ranked == ["tight"] or ranked == ["words"]

    def test_keep_zero_is_empty(self):
        corpus = self.corpus_with_dispersion()
        assert select_visual_words(corpus, keep=0) == []

    def test_rare_words_are_excluded_with_warning(self):
        corpus = make_corpus(
            [("a", "solo word here", SideLabel.LEFT),
             ("b", "word here too", SideLabel.RIGHT)]
        )
        with pytest.warns(UserWarning, match="scoreable"):
            ranked = select_visual_words(corpus, top_n_frequent=10, keep=5)
        assert "solo" not in ranked  # single occurrence cannot be scored
        assert set(ranked) == {"word", "here"}


class TestWordHead:
    def trained(self, n=60, epochs=6):
        corpus, embeddings = multimodal_corpus(n=n)
        base = build_model(8, hidden=10, fused=8, text_dim=7, seed=0)
        words = ["doc", str(0), str(1)]
        # word "doc" appears everywhere; digits appear in single documents
        spec = TrainSpec(epochs=epochs, lr=3e-3, seed=4)
        return corpus, embeddings, base, train_word_head(
            base, corpus, embeddings, ["doc", "0", "1"], spec
        )

    def test_empty_word_list_rejected(self):
        corpus, embeddings = multimodal_corpus(n=4)
        model = build_model(8, hidden=6, fused=5, text_dim=7)
        with pytest.raises(InputError, match="empty"):
            train_word_head(model, corpus, embeddings, [], TrainSpec(epochs=1))

    def test_duplicate_words_rejected(self):
        corpus, embeddings = multimodal_corpus(n=4)
        model = build_model(8, hidden=6, fused=5, text_dim=7)
        with pytest.raises(InputError, match="duplicates"):
            train_word_head(
                model, corpus, embeddings, ["a", "a"], TrainSpec(epochs=1)
            )

    def test_loss_decreases_and_side_heads_untouched(self):
        corpus, embeddings, base, model = self.trained()
        losses = model.history["words"]
        assert losses[-1] < losses[0]
        np.testing.assert_array_equal(model.head1.W, base.head1.W)
        assert model.word_head is not None
        assert model.visual_words == ["doc", "0", "1"]

    def test_ranking_prefers_documents_containing_the_word(self):
        rng = np.random.default_rng(5)
        samples, embeddings = [], {}
        for i in range(40):
            has_word = i < 20
            # samples with the word share a tight feature cluster
            feature = (
                np.ones(6) + rng.normal(scale=0.05, size=6)
                if has_word
                else rng.normal(scale=2.0, size=6)
            )
            text = "alpha topic note" if has_word else "plain topic note"
            sid = f"r{i:02d}"
            samples.append(
                make_sample(sid, text, SideLabel.LEFT, feature=feature, dim=6)
            )
            embeddings[sid] = rng.normal(scale=0.1, size=5).astype(np.float32)
        corpus = Corpus(6, samples)
        base = build_model(6, hidden=10, fused=8, text_dim=5, seed=1)
        model = train_word_head(
            base, corpus, embeddings, ["alpha", "plain"],
            TrainSpec(epochs=25, lr=3e-3, seed=2),
        )
        top = rank_images_for_word(model, corpus, embeddings, "alpha", top=10)
        planted = sum(1 for sid in top if corpus.sample(sid).tokens[0] == "alpha")
        assert planted >= 8

    def test_unknown_word_and_missing_head_errors(self):
        corpus, embeddings, _, model = self.trained(n=8, epochs=1)
        with pytest.raises(InputError, match="visual word"):
            rank_images_for_word(model, corpus, embeddings, "nope")
        bare = build_model(8, hidden=6, fused=5, text_dim=7)
        with pytest.raises(InputError, match="word head"):
            rank_images_for_word(bare, corpus, embeddings, "doc")

    def test_top_zero_is_empty(self):
        corpus, embeddings, _, model = self.trained(n=8, epochs=1)
        assert rank_images_for_word(model, corpus, embeddings, "doc", top=0) == []


class TestCheckpoints:
    def roundtrip(self, model, tmp_path, name="model.bin"):
        path = tmp_path / name
        save_checkpoint(model, str(path))
        loaded = load_checkpoint(str(path))
        again = tmp_path / ("re-" + name)
        save_checkpoint(loaded, str(again))
        assert path.read_bytes() == again.read_bytes()
        return loaded

    def test_bare_model_round_trip(self, tmp_path):
        model = build_model(8, hidden=6, fused=5, text_dim=7, seed=9)
        loaded = self.roundtrip(model, tmp_path)
        for name, arr in model.parameters().items():
            np.testing.assert_array_equal(arr, loaded.parameters()[name])
        assert loaded.head2 is None and loaded.word_head is None

    def test_full_model_round_trip(self, tmp_path):
        corpus, embeddings = multimodal_corpus(n=20)
        model = train_stage1(
            corpus, embeddings, TrainSpec(epochs=1, seed=0), hidden=6, fused=5
        )
        model = train_stage2(model, corpus, TrainSpec(epochs=1, seed=0))
        model = train_word_head(
            model, corpus, embeddings, ["doc"], TrainSpec(epochs=1, seed=0)
        )
        loaded = self.roundtrip(model, tmp_path)
        assert loaded.visual_words == ["doc"]
        for name, arr in model.parameters().items():
            np.testing.assert_array_equal(arr, loaded.parameters()[name])

    def test_bad_magic_is_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(InputError, match="magic"):
            load_checkpoint(str(path))

    def test_truncated_file_is_rejected(self, tmp_path):
        model = build_model(8, hidden=6, fused=5, text_dim=7)
        path = tmp_path / "model.bin"
        save_checkpoint(model, str(path))
        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(InputError, match="truncated"):
            load_checkpoint(str(clipped))

    def test_trailing_bytes_are_rejected(self, tmp_path):
        model = build_model(8, hidden=6, fused=5, text_dim=7)
        path = tmp_path / "model.bin"
        save_checkpoint(model, str(path))
        padded = tmp_path / "padded.bin"
        padded.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(InputError, match="trailing"):
            load_checkpoint(str(padded))

    @pytest.mark.parametrize(
        "layer", ["trunk1", "trunk2", "fusion", "head1", "head2", "word_head"]
    )
    @pytest.mark.parametrize("array", ["W", "b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_names_layer_and_array(self, tmp_path, layer, array, value):
        model = build_model(8, hidden=6, fused=5, text_dim=7, seed=3)
        rng = np.random.default_rng(0)
        model.head2 = Affine.create(rng, 6, 2)
        model.word_head = Affine.create(rng, 5, 2)
        model.visual_words = ["cat", "dog"]
        getattr(getattr(model, layer), array).flat[-1] = 1234.5
        path = tmp_path / "model.bin"
        save_checkpoint(model, str(path))
        path.write_bytes(with_float_replaced(path.read_bytes(), 1234.5, value))
        with pytest.raises(InputError, match=f"^checkpoint has a non-finite value in {layer} "
                                             f"{array}$"):
            load_checkpoint(str(path))
        getattr(getattr(model, layer), array).flat[-1] = value
        path.unlink()
        with pytest.raises(InputError, match=f"^model has a non-finite value in {layer} "
                                             f"{array}$"):
            save_checkpoint(model, str(path))
        assert list(tmp_path.iterdir()) == []

    def test_maximal_feature_dim_names_bytes_wanted_and_left(self, tmp_path):
        """fh.read would allocate every byte a corrupt size asks for."""
        model = build_model(8, hidden=6, fused=5, text_dim=7)
        path = tmp_path / "model.bin"
        save_checkpoint(model, str(path))
        data = path.read_bytes()
        path.write_bytes(with_header_field(data, "feature_dim", U32_MAX))
        left = 4 * (8 * 6 + 6 + 6 * 6 + 6 + 13 * 5 + 5 + 5 * 2 + 2)  # every saved layer
        message = f"^truncated file: wanted {U32_MAX * 6 * 4} bytes, {left} left$"
        with pytest.raises(InputError, match=message):
            load_checkpoint(str(path))

    def test_version_1_is_refused(self, tmp_path):
        """The first format: eight u32 fields (four dims, two presence flags,
        the visual word count), the words, then the layers."""
        path = tmp_path / "v1.ckpt"
        path.write_bytes(b"WBCK" + struct.pack("<9I", 1, 1, 1, 1, 1, 0, 0, 0, 0)
                         + bytes(4 * (1 + 1 + 1 + 1 + 2 + 1 + 2 + 2)))
        with pytest.raises(InputError, match="^unsupported checkpoint version 1$"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("key, value, message", [
        ("hidden", 0, "checkpoint hidden must be >= 1, got 0"),
        ("fused", True, "header field 'fused' must be of type int"),
        ("text_dim", -3, "checkpoint text_dim must be >= 1, got -3"),
        ("visual_words", ["cat", 2], "header field 'visual_words' must be of type list of str"),
        ("visual_words", ["cat", "cat"], "checkpoint visual words are not unique"),
        ("visual_words", ["cat"], "trailing bytes|truncated"),
        ("layers", ["trunk1", "trunk2", "fusion", "head1", "word_head", "head2"], "layers must be"),
        ("layers", ["trunk1", "trunk2", "fusion", "head2"], "layers must be"),
        ("layers", ["trunk1", "trunk2", "fusion", "head1", "head2", "head2"], "layers must be"),
        ("layers", ["trunk1", "trunk2", "fusion", "head1"], "trailing bytes"),
    ])
    def test_bad_header_field_is_named(self, tmp_path, key, value, message):
        model = build_model(3, hidden=2, fused=2, text_dim=2, seed=1)
        rng = np.random.default_rng(0)
        model.head2 = Affine.create(rng, 2, 2)
        model.word_head = Affine.create(rng, 2, 2)
        model.visual_words = ["cat", "dog"]
        path = tmp_path / "model.bin"
        save_checkpoint(model, str(path))
        path.write_bytes(with_header_field(path.read_bytes(), key, value))
        with pytest.raises(InputError, match=message):
            load_checkpoint(str(path))

    def test_word_count_mismatch_rejected_on_save(self, tmp_path):
        model = build_model(8, hidden=6, fused=5, text_dim=7)
        model.word_head = Affine(np.zeros((5, 3), np.float32), np.zeros(3, np.float32))
        model.visual_words = ["only", "two"]
        with pytest.raises(InputError, match="visual words"):
            save_checkpoint(model, str(tmp_path / "bad.bin"))


class TestCheckpointFuzz:
    """A checkpoint mutated up to three times by truncation, a flipped byte,
    appended bytes, its header length overwritten or a header field set to
    another value: loading either raises InputError or gives a model that
    saves and reloads to the same bytes."""

    # The header's keys, its four dims first.
    KEYS = ["feature_dim", "hidden", "fused", "text_dim", "layers", "visual_words"]

    @pytest.fixture(scope="class")
    def clean(self):
        model = build_model(3, hidden=2, fused=2, text_dim=2, seed=1)
        rng = np.random.default_rng(0)
        model.head2 = Affine.create(rng, 2, 2)
        model.word_head = Affine.create(rng, 2, 2)
        model.visual_words = ["cat", "d\u00e9"]
        return model

    def saved(self, model, tmp_path, name):
        path = tmp_path / name
        save_checkpoint(model, str(path))
        return path

    @given(st.lists(BINARY_MUTATIONS, min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_mutated_checkpoint(self, tmp_path_factory, clean, mutations):
        tmp_path = tmp_path_factory.mktemp("fuzz")
        data = self.saved(clean, tmp_path, "clean.ckpt").read_bytes()
        for mutation in mutations:
            data = mutate_binary(data, mutation, self.KEYS)
        path = tmp_path / "in.ckpt"
        path.write_bytes(data)
        try:
            loaded = load_checkpoint(str(path))
        except InputError:
            return
        once = self.saved(loaded, tmp_path, "once.ckpt")
        twice = self.saved(load_checkpoint(str(once)), tmp_path, "twice.ckpt")
        assert twice.read_bytes() == once.read_bytes()

    @pytest.mark.parametrize("mutation", [("length", U32_MAX)]
                             + [("field", i, U32_MAX) for i in range(4)],
                             ids=["header-length"] + KEYS[:4])
    def test_maximal_size_is_refused_before_reading(self, tmp_path, clean, mutation):
        data = self.saved(clean, tmp_path, "clean.ckpt").read_bytes()
        path = tmp_path / "in.ckpt"
        path.write_bytes(mutate_binary(data, mutation, self.KEYS))
        with pytest.raises(InputError, match=r"^truncated file: wanted \d+ bytes, "):
            load_checkpoint(str(path))


@st.composite
def checkpoint_cases(draw):
    """A model with drawn dims and heads (each weight drawn from a seed),
    and a batch of features and text embeddings for it."""
    feature, hidden, fused, text = (draw(st.integers(1, 5)) for _ in range(4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = build_model(feature, hidden=hidden, fused=fused, text_dim=text,
                        seed=draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        model.head2 = Affine.create(rng, hidden, 2)
    if draw(st.booleans()):
        words = draw(st.lists(st.text(max_size=3), min_size=1, max_size=3, unique=True))
        model.word_head = Affine.create(rng, fused, len(words))
        model.visual_words = words
    n = draw(st.integers(1, 4))
    return model, rng.normal(size=(n, feature)), rng.normal(size=(n, text))


class TestCheckpointRoundTrip:
    """After save and load a checkpoint predicts as the model in memory, bit
    for bit: stage-1 logits and stage-2 labels and probabilities."""

    @given(checkpoint_cases())
    @settings(max_examples=50, deadline=None)
    def test_reloaded_checkpoint_is_the_saved_model(self, tmp_path_factory, case):
        model, features, text = case
        path = tmp_path_factory.mktemp("rt") / "m.ckpt"
        save_checkpoint(model, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.visual_words == model.visual_words
        assert list(loaded.parameters()) == list(model.parameters())
        assert (forward_stage1(loaded, features, text).tobytes()
                == forward_stage1(model, features, text).tobytes())
        if model.head2 is not None:
            labels, probs = predict_batch(model, features)
            assert predict_batch(loaded, features)[0] == labels
            assert predict_batch(loaded, features)[1].tobytes() == probs.tobytes()
