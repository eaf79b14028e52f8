"""End-to-end guarantees at desk scale, one verdict line per property.

Each test prints a single PASS/FAIL line (run with -s to see them) and
asserts the property it names: exact normalization and gradient oracles,
relative quality claims on the synthetic multimodal benchmark, and exact
determinism and serialization round-trips.
"""

import time
import warnings

import numpy as np
import pytest

from helpers import clean_batch, fd_check, feature_corpus, make_sample, two_topic_corpus
from weakbias.classifier import (
    TrainSpec,
    ablate_zero_text,
    build_model,
    forward_stage1,
    load_checkpoint,
    predict_batch,
    rank_images_for_word,
    save_checkpoint,
    select_visual_words,
    stage1_loss_and_grads,
    stage2_loss_and_grads,
    train_image_only,
    train_stage1,
    train_word_head,
    word_head_loss_and_grads,
)
from weakbias.corpus import (
    Corpus,
    SideLabel,
    class_weights,
    load_corpus,
    save_corpus,
    split,
    vocabulary_from_counts,
)
from weakbias.dedup import (
    cluster_duplicates,
    deduplicate,
    select_canonical,
)
from weakbias.doc2vec import (
    PvdmConfig,
    PvdmModel,
    hs_probability,
    infer_document,
    load_embeddings,
    load_model,
    nearest_words,
    path_gradients,
    position_loss,
    save_embeddings,
    save_model,
    train_pvdm,
)
from weakbias.evaluation import (
    accuracy,
    group_accuracy,
    report_from_json,
    report_to_json,
    sentence_truncation_sweep,
)
from weakbias.nn import Affine
from weakbias.pipeline import (
    PipelineConfig,
    normalize_embedding,
    run_pipeline,
    training_embeddings,
)
from weakbias.seeding import derive_seed
from weakbias.synthetic import SyntheticSpec, make_synthetic

L, R = SideLabel.LEFT, SideLabel.RIGHT


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


def _sides_from_logits(logits: np.ndarray) -> list[SideLabel]:
    return [L if a >= b else R for a, b in logits]


# --- shared benchmark fixtures ------------------------------------------------


def _benchmark_split(seed: int, n_samples: int):
    spec = SyntheticSpec(
        n_samples=n_samples,
        feature_dim=64,
        signal_dims=8,
        signal_scale=0.25,
        signal_noise=0.7,
        nuisance_scale=3.0,
        label_correlation=0.8,
        words_per_topic=384,
        seed=seed,
    )
    return split(make_synthetic(spec), test_fraction=0.2, seed=seed)


@pytest.fixture(scope="module")
def benchmark_arms():
    """Five seeded benchmark runs: two-stage pipeline, equal-budget direct
    baseline, and the zero-text ablation of the trained model."""
    started = time.time()
    rows = []
    for seed in range(5):
        train, test = _benchmark_split(seed, n_samples=5000)
        config = PipelineConfig(
            pvdm=PvdmConfig(dim=96, window=2, epochs=8),
            stage1_epochs=4,
            stage2_epochs=12,
            lr=2e-3,
            hidden=64,
            fused=12,
            seed=seed,
        )
        result = run_pipeline(train, test, config)
        truth = [s.side for s in test]
        direct_model = train_image_only(
            train,
            TrainSpec(
                epochs=16, lr=2e-3, class_weights=class_weights(train), seed=seed
            ),
            hidden=64,
            fused=12,
            text_dim=96,
        )
        ablated = ablate_zero_text(result.model)
        zeros = np.zeros((len(test), ablated.text_dim), dtype=np.float32)
        rows.append(
            {
                "stage2": accuracy(result.predictions, truth),
                "direct": accuracy(
                    predict_batch(direct_model, test.features())[0], truth
                ),
                "ablated": accuracy(
                    _sides_from_logits(forward_stage1(ablated, test.features(), zeros)),
                    truth,
                ),
                "ablated_model": ablated,
                "test": test,
            }
        )
    return {"rows": rows, "elapsed": time.time() - started}


def _text_guided_pipeline(train: Corpus, test: Corpus, seed: int) -> list[SideLabel]:
    """Stage-1 predictor with the text path live at prediction time: train
    the embedding model and the fused stage on the (possibly clipped)
    training text, then embed each unclipped test article and classify it
    through the multimodal head."""
    text_model = train_pvdm(
        train,
        PvdmConfig(
            dim=96, window=2, epochs=8, min_count=1, seed=derive_seed(seed, "text")
        ),
    )
    embeddings = {
        doc_id: normalize_embedding(v)
        for doc_id, v in training_embeddings(text_model).items()
    }
    model = train_stage1(
        train,
        embeddings,
        TrainSpec(
            epochs=8,
            lr=2e-3,
            class_weights=class_weights(train),
            seed=derive_seed(seed, "stage1"),
        ),
        hidden=64,
        fused=12,
    )
    docs = np.stack(
        [
            normalize_embedding(
                infer_document(
                    text_model,
                    s.tokens,
                    steps=50,
                    seed=derive_seed(seed, f"infer-{s.id}"),
                )
            )
            for s in test
        ]
    )
    return _sides_from_logits(forward_stage1(model, test.features(), docs))


@pytest.fixture(scope="module")
def truncation_sweeps():
    results = []
    for seed in range(3):
        train, test = _benchmark_split(seed, n_samples=2500)
        results.append(
            sentence_truncation_sweep(
                train, test, [1, 2], _text_guided_pipeline, seed=seed
            )
        )
    return results


# --- criteria -----------------------------------------------------------------


class TestNormalization:
    def test_softmax_normalization(self):
        """Over every vocabulary size, word probabilities sum to one."""
        started = time.time()
        rng = np.random.default_rng(2024)
        worst = 0.0
        for n_words in (2, 3, 17, 256, 512):
            for _ in range(20):
                counts = {
                    f"w{i:03d}": int(c)
                    for i, c in enumerate(rng.integers(1, 60, n_words))
                }
                vocab = vocabulary_from_counts(counts, min_count=1)
                dim = 8
                model = PvdmModel(
                    word_vectors=rng.normal(0, 0.5, (len(vocab), dim)),
                    node_vectors=rng.normal(0, 0.5, (vocab.n_inner_nodes, dim)),
                    doc_vectors=rng.normal(0, 0.5, (1, dim)),
                    vocabulary=vocab,
                    config=PvdmConfig(dim=dim, min_count=1),
                    doc_ids=["d0"],
                )
                context = rng.normal(0, 1.0, dim)
                total = sum(hs_probability(model, context, w) for w in vocab.words)
                worst = max(worst, abs(total - 1.0))
        elapsed = time.time() - started
        _verdict(
            "softmax-normalization",
            worst <= 1e-6 and elapsed < 5.0,
            f"max |sum - 1| = {worst:.2e}, {elapsed:.1f}s",
        )


class TestGradientOracles:
    def test_gradient_oracles(self):
        """Analytic gradients of all four losses match central differences."""
        started = time.time()
        for trial in range(20):
            rng = np.random.default_rng(500 + trial)
            dim, n_ctx, path_len = 6, 4, 3
            doc = rng.normal(size=dim)
            ctx = rng.normal(size=(n_ctx, dim))
            nodes = rng.normal(size=(path_len, dim))
            bits = rng.integers(0, 2, size=path_len).astype(np.uint8)
            m = n_ctx + 1
            _, g_ctx, g_nodes = path_gradients((doc + ctx.sum(0)) / m, nodes, bits)
            fd_check(
                lambda: position_loss(doc, ctx, nodes, bits),
                {"doc": doc, "ctx": ctx, "nodes": nodes},
                {"doc": g_ctx / m, "ctx": np.tile(g_ctx / m, (n_ctx, 1)),
                 "nodes": g_nodes},
            )
        for trial in range(20):
            rng = np.random.default_rng(600 + trial)
            model = build_model(8, hidden=6, fused=5, text_dim=4,
                                seed=trial, dtype=np.float64)
            x, e = clean_batch(model, rng, 4)
            y = rng.integers(0, 2, size=4)
            w = rng.uniform(0.5, 2.0, size=4)
            _, grads = stage1_loss_and_grads(model, x, e, y, w)
            fd_check(
                lambda: stage1_loss_and_grads(model, x, e, y, w)[0],
                model.parameters(),
                grads,
            )
        for trial in range(20):
            rng = np.random.default_rng(700 + trial)
            head2 = Affine.create(rng, 6, 2, np.float64)
            h = rng.normal(size=(4, 6))
            y = rng.integers(0, 2, size=4)
            w = rng.uniform(0.5, 2.0, size=4)
            params = {"head2_W": head2.W, "head2_b": head2.b}
            _, grads = stage2_loss_and_grads(head2, h, y, w)
            fd_check(
                lambda: stage2_loss_and_grads(head2, h, y, w)[0], params, grads
            )
        for trial in range(20):
            rng = np.random.default_rng(800 + trial)
            model = build_model(8, hidden=6, fused=5, text_dim=4,
                                seed=90 + trial, dtype=np.float64)
            model.word_head = Affine.create(rng, model.fused_dim, 3, np.float64)
            model.visual_words = ["a", "b", "c"]
            x, e = clean_batch(model, rng, 4)
            targets = rng.integers(0, 2, size=(4, 3)).astype(np.float64)
            params = {
                k: v
                for k, v in model.parameters().items()
                if not k.startswith(("head1", "head2"))
            }
            _, grads = word_head_loss_and_grads(model, x, e, targets)
            fd_check(
                lambda: word_head_loss_and_grads(model, x, e, targets)[0],
                params,
                grads,
            )
        elapsed = time.time() - started
        _verdict(
            "gradient-oracles",
            elapsed < 60.0,
            f"4 losses x 20 instances, step 1e-4, rel tol 1e-4, {elapsed:.1f}s",
        )


class TestTopicSeparation:
    def test_topic_separation(self):
        """Document vectors cluster by topic; word neighborhoods stay on
        topic."""
        started = time.time()
        # Short documents keep each context small, so the document vector's
        # share of every update stays large enough to pick up the topic.
        corpus = two_topic_corpus(
            n_docs=200, words_per_topic=25, tokens_per_doc=8, seed=1
        )
        model = train_pvdm(corpus, PvdmConfig(dim=32, seed=1))
        vectors = model.doc_vectors.astype(np.float64)
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        sims = vectors @ vectors.T
        np.fill_diagonal(sims, -np.inf)
        topics = [
            next(iter(corpus.sample(doc_id).topics)) for doc_id in model.doc_ids
        ]
        nearest = np.argmax(sims, axis=1)
        precision = float(
            np.mean([topics[i] == topics[j] for i, j in enumerate(nearest)])
        )
        neighbors = nearest_words(model, ["red0"], n=10, embed="average")
        same_topic = sum(1 for word, _ in neighbors if word.startswith("red"))
        elapsed = time.time() - started
        _verdict(
            "topic-separation",
            precision >= 0.9 and same_topic >= 8 and elapsed < 120.0,
            f"precision@1 {precision:.3f}, same-topic neighbors {same_topic}/10, "
            f"{elapsed:.1f}s",
        )


class TestDedupOracle:
    THRESHOLD = 1.0

    @staticmethod
    def _planted_corpus():
        """50 planted groups of 4 inside 1,000 scattered distractors; group
        members sit within squared distance threshold/4 of each other while
        everything else is orders of magnitude farther apart."""
        rng = np.random.default_rng(4)
        dim, radius = 32, np.sqrt(TestDedupOracle.THRESHOLD / 16.0)
        vectors, ids = [], []
        truth = []
        for g in range(50):
            center = rng.normal(0.0, 50.0, dim)
            members = []
            for j in range(4):
                direction = rng.normal(size=dim)
                direction /= np.linalg.norm(direction)
                vectors.append(center + direction * rng.uniform(0.0, radius))
                sid = f"g{g:02d}m{j}"
                members.append(sid)
                ids.append(sid)
            truth.append(frozenset(members))
        for i in range(1000):
            vectors.append(rng.normal(0.0, 50.0, dim))
            ids.append(f"x{i:04d}")
        corpus = feature_corpus(np.asarray(vectors), ids=ids)
        return corpus, truth

    @staticmethod
    def _brute_force_clusters(corpus: Corpus, threshold: float):
        """Quadratic-scan union-find over exact squared distances."""
        x = corpus.features().astype(np.float64)
        n = len(corpus)
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(n):
            close = np.nonzero(((x - x[i]) ** 2).sum(axis=1) <= threshold)[0]
            for j in close:
                ri, rj = find(i), find(int(j))
                if ri != rj:
                    parent[ri] = rj
        components: dict[int, list[str]] = {}
        for i, sample in enumerate(corpus):
            components.setdefault(find(i), []).append(sample.id)
        return {
            frozenset(members): select_canonical(members, corpus)
            for members in components.values()
            if len(members) >= 2
        }

    def test_duplicate_clustering_oracle(self):
        started = time.time()
        corpus, truth = self._planted_corpus()
        oracle = self._brute_force_clusters(corpus, self.THRESHOLD)
        exhaustive = cluster_duplicates(corpus, self.THRESHOLD)
        got = {frozenset(c.member_ids): c.canonical_id for c in exhaustive}
        oracle_match = got == oracle and set(got) == set(truth)

        default_clusters = cluster_duplicates(corpus, self.THRESHOLD)
        true_pairs = {
            pair
            for members in truth
            for pair in
            [(a, b) for a in members for b in members if a < b]
        }
        found_pairs = {
            (a, b)
            for c in default_clusters
            for a in c.member_ids
            for b in c.member_ids
            if a < b
        }
        recall = len(found_pairs & true_pairs) / len(true_pairs)

        deduped, _ = deduplicate(corpus, self.THRESHOLD)
        again, second_clusters = deduplicate(deduped, self.THRESHOLD)
        elapsed = time.time() - started
        _verdict(
            "dedup-oracle",
            oracle_match
            and recall >= 0.99
            and len(deduped) == 1050
            and len(again) == 1050
            and not second_clusters
            and elapsed < 120.0,
            f"oracle match {oracle_match}, pair recall {recall:.4f}, "
            f"size {len(deduped)}, idempotent {not second_clusters}, {elapsed:.0f}s",
        )


class TestCanonicalRule:
    def test_canonical_selection_rule(self):
        """One left and three right keeps a right member; ties and orderings
        never change the answer."""
        features = np.arange(8, dtype=np.float32).reshape(4, 2)
        majority = feature_corpus(features, sides=[L, R, R, R],
                                  ids=["a", "b", "c", "d"])
        tied = feature_corpus(features, sides=[L, R, L, R],
                              ids=["a", "b", "c", "d"])
        rng = np.random.default_rng(11)
        members = ["a", "b", "c", "d"]
        majority_picks = set()
        tie_picks = set()
        for _ in range(1000):
            order = [members[i] for i in rng.permutation(4)]
            majority_picks.add(select_canonical(order, majority))
            tie_picks.add(select_canonical(order, tied))
        keeps_right = majority_picks == {"b"}  # lowest id on the majority side
        _verdict(
            "canonical-rule",
            keeps_right and len(tie_picks) == 1,
            f"majority pick {sorted(majority_picks)}, "
            f"tie pick {sorted(tie_picks)}, 1000 permutations each",
        )


class TestTwoStageBenefit:
    def test_two_stage_benefit(self, benchmark_arms):
        rows = benchmark_arms["rows"]
        stage2 = float(np.mean([r["stage2"] for r in rows]))
        direct = float(np.mean([r["direct"] for r in rows]))
        elapsed = benchmark_arms["elapsed"]
        _verdict(
            "two-stage-benefit",
            stage2 - direct >= 0.03 and elapsed < 300.0,
            f"stage2 {stage2:.4f} vs direct {direct:.4f} "
            f"(+{(stage2 - direct) * 100:.1f} pts over 5 seeds), {elapsed:.0f}s",
        )


class TestZeroTextAblation:
    def test_zero_text_ablation(self, benchmark_arms):
        rows = benchmark_arms["rows"]
        stage2 = float(np.mean([r["stage2"] for r in rows]))
        ablated = float(np.mean([r["ablated"] for r in rows]))
        model = rows[0]["ablated_model"]
        x = rows[0]["test"].features()[:16]
        rng = np.random.default_rng(3)
        zeros = np.zeros((16, model.text_dim), dtype=np.float32)
        invariant = all(
            np.array_equal(
                forward_stage1(model, x, zeros),
                forward_stage1(
                    model, x, rng.normal(size=(16, model.text_dim)).astype(np.float32)
                ),
            )
            for _ in range(3)
        )
        _verdict(
            "zero-text-ablation",
            ablated <= stage2 - 0.02 and invariant,
            f"ablated {ablated:.4f} vs stage2 {stage2:.4f} "
            f"(-{(stage2 - ablated) * 100:.1f} pts over 5 seeds), "
            f"embedding-invariant {invariant}",
        )


class TestTruncationTrend:
    def test_truncation_trend(self, truncation_sweeps):
        """Clipping training articles to one or two leading sentences removes
        the trailing topic sentence and costs accuracy."""
        full = float(np.mean([r["full"] for r in truncation_sweeps]))
        k1 = float(np.mean([r[1] for r in truncation_sweeps]))
        k2 = float(np.mean([r[2] for r in truncation_sweeps]))
        _verdict(
            "truncation-trend",
            k1 < full and k2 < full,
            f"k=1 {k1:.4f}, k=2 {k2:.4f}, full {full:.4f} (means over 3 seeds)",
        )


class TestClassWeighting:
    @staticmethod
    def _minority_recall(model, test: Corpus) -> float:
        predictions, _ = predict_batch(model, test.features())
        flags = [p is s.side for p, s in zip(predictions, test) if s.side is R]
        return float(np.mean(flags))

    def test_class_weighting(self):
        weighted_recalls, unweighted_recalls = [], []
        for seed in range(3):
            spec = SyntheticSpec(
                n_samples=5000,
                feature_dim=64,
                signal_dims=8,
                signal_scale=0.37,
                signal_noise=0.7,
                nuisance_scale=3.0,
                label_correlation=0.95,
                left_fraction=0.9,
                seed=seed,
            )
            train, test = split(make_synthetic(spec), test_fraction=0.2, seed=seed)
            shared = dict(hidden=64, fused=64, text_dim=8)
            weighted = train_image_only(
                train,
                TrainSpec(epochs=8, lr=2e-3,
                          class_weights=class_weights(train), seed=seed),
                **shared,
            )
            unweighted = train_image_only(
                train, TrainSpec(epochs=8, lr=2e-3, seed=seed), **shared
            )
            weighted_recalls.append(self._minority_recall(weighted, test))
            unweighted_recalls.append(self._minority_recall(unweighted, test))
        weighted_mean = float(np.mean(weighted_recalls))
        unweighted_mean = float(np.mean(unweighted_recalls))

        balanced = make_synthetic(
            SyntheticSpec(n_samples=400, feature_dim=16, signal_dims=4, seed=0)
        )
        weights = class_weights(balanced)
        shared = dict(hidden=16, fused=16, text_dim=4)
        spec_args = dict(epochs=3, lr=1e-3, seed=3)
        with_ones = train_image_only(
            balanced, TrainSpec(class_weights=weights, **spec_args), **shared
        )
        without = train_image_only(balanced, TrainSpec(**spec_args), **shared)
        identical = (
            weights.left == weights.right == 1.0
            and with_ones.history == without.history
            and all(
                with_ones.parameters()[k].tobytes()
                == without.parameters()[k].tobytes()
                for k in with_ones.parameters()
            )
        )
        _verdict(
            "class-weighting",
            weighted_mean >= 0.5 and unweighted_mean < 0.5 and identical,
            f"minority recall weighted {weighted_mean:.3f} vs unweighted "
            f"{unweighted_mean:.3f} (90/10, 3 seeds), balanced run "
            f"bit-identical {identical}",
        )


class TestVisualWords:
    def test_visual_word_pipeline(self):
        """A word planted on a tight feature cluster is selected early and
        its head retrieves the planted samples."""
        rng = np.random.default_rng(10)
        pool = [f"w{i:03d}" for i in range(150)]
        center = rng.normal(0.0, 1.0, 16) * 3.0
        samples = []
        for i in range(1000):
            planted = i < 100
            feature = (
                center + rng.normal(0.0, 0.05, 16)
                if planted
                else rng.normal(0.0, 2.0, 16)
            )
            words = list(rng.choice(pool, size=6, replace=False))
            text = " ".join((["alpha"] if planted else []) + words)
            samples.append(
                make_sample(
                    f"s{i:04d}", text, L if i % 2 == 0 else R, feature=feature
                )
            )
        corpus = Corpus(16, samples)
        planted_ids = {s.id for s in samples[:100]}

        ranking = select_visual_words(corpus, top_n_frequent=200, keep=150)
        decile = max(len(ranking) // 10, 1)
        position = ranking.index("alpha") if "alpha" in ranking else len(ranking)

        embeddings = {s.id: np.zeros(4, dtype=np.float32) for s in corpus}
        model = build_model(16, hidden=24, fused=12, text_dim=4, seed=0)
        trained = train_word_head(
            model,
            corpus,
            embeddings,
            ["alpha"] + pool[:9],
            TrainSpec(epochs=5, lr=2e-3, seed=0),
        )
        top = rank_images_for_word(trained, corpus, embeddings, "alpha", top=100)
        hits = len(planted_ids & set(top))
        _verdict(
            "visual-words",
            position < decile and hits >= 90,
            f"rank {position + 1}/{len(ranking)} (decile {decile}), "
            f"planted in top 100: {hits}",
        )


class TestDeterminism:
    @staticmethod
    def _seeded_run():
        spec = SyntheticSpec(
            n_samples=600, feature_dim=32, signal_dims=6, words_per_topic=30, seed=42
        )
        train, test = split(make_synthetic(spec), test_fraction=0.25, seed=42)
        config = PipelineConfig(
            pvdm=PvdmConfig(dim=24, window=3, epochs=3, min_count=2),
            stage1_epochs=2,
            stage2_epochs=2,
            lr=1e-3,
            hidden=24,
            fused=12,
            seed=42,
        )
        return train, test, run_pipeline(train, test, config)

    def test_determinism_and_serialization(self, tmp_path):
        train, test, first = self._seeded_run()
        _, _, second = self._seeded_run()

        def saved(name, save, obj):
            path = tmp_path / name
            save(obj, str(path))
            return path.read_bytes()

        truth = [s.side for s in test]
        reports = [
            report_to_json(
                group_accuracy(
                    r.predictions, truth, [s.source for s in test], {"seed": 42}
                )
            )
            for r in (first, second)
        ]
        reruns_identical = (
            saved("t1.bin", save_model, first.text_model)
            == saved("t2.bin", save_model, second.text_model)
            and saved("c1.bin", save_checkpoint, first.model)
            == saved("c2.bin", save_checkpoint, second.model)
            and saved("e1.bin", save_embeddings, training_embeddings(first.text_model))
            == saved("e2.bin", save_embeddings, training_embeddings(second.text_model))
            and reports[0] == reports[1]
            and first.predictions == second.predictions
            and np.array_equal(first.probabilities, second.probabilities)
        )

        def resave(name, save, load, obj):
            path_a, path_b = tmp_path / f"{name}.a", tmp_path / f"{name}.b"
            save(obj, str(path_a))
            save(load(str(path_a)), str(path_b))
            return path_a.read_bytes() == path_b.read_bytes()

        round_trips = (
            resave("corpus", save_corpus, load_corpus, train)
            and resave("text", save_model, load_model, first.text_model)
            and resave(
                "emb", save_embeddings, load_embeddings,
                training_embeddings(first.text_model),
            )
            and resave("ckpt", save_checkpoint, load_checkpoint, first.model)
            and report_to_json(report_from_json(reports[0])) == reports[0]
        )
        _verdict(
            "determinism-serialization",
            reruns_identical and round_trips,
            f"seeded reruns byte-identical {reruns_identical}, "
            f"save-load-save stable {round_trips}",
        )
