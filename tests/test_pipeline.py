"""End-to-end pipeline wiring and seeding."""

import dataclasses

import numpy as np

from weakbias.corpus import split
from weakbias.doc2vec import PvdmConfig
from weakbias.pipeline import (
    PipelineConfig,
    make_pipeline,
    run_pipeline,
    training_embeddings,
)
from weakbias.synthetic import SyntheticSpec, make_synthetic


def small_config(**overrides):
    defaults = dict(
        pvdm=PvdmConfig(dim=8, window=4, epochs=2, min_count=1),
        stage1_epochs=2,
        stage2_epochs=2,
        hidden=12,
        fused=10,
        seed=7,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def small_benchmark(seed=0, n=120):
    corpus = make_synthetic(
        SyntheticSpec(
            n_samples=n,
            feature_dim=16,
            signal_dims=4,
            words_per_topic=6,
            shared_words=10,
            sentences_per_doc=3,
            words_per_sentence=5,
            seed=seed,
        )
    )
    return split(corpus, test_fraction=0.25, seed=seed)


class TestRunPipeline:
    def test_produces_aligned_predictions(self):
        train, test = small_benchmark()
        result = run_pipeline(train, test, small_config())
        assert len(result.predictions) == len(test)
        assert result.probabilities.shape == (len(test), 2)
        np.testing.assert_allclose(
            result.probabilities.sum(axis=1), np.ones(len(test)), atol=1e-5
        )
        assert result.model.head2 is not None

    def test_same_seed_reproduces_bitwise(self):
        train, test = small_benchmark()
        a = run_pipeline(train, test, small_config())
        b = run_pipeline(train, test, small_config())
        assert a.predictions == b.predictions
        np.testing.assert_array_equal(
            a.text_model.doc_vectors, b.text_model.doc_vectors
        )
        for name, arr in a.model.parameters().items():
            np.testing.assert_array_equal(arr, b.model.parameters()[name])

    def test_different_seeds_differ(self):
        train, test = small_benchmark()
        a = run_pipeline(train, test, small_config())
        b = run_pipeline(train, test, small_config(seed=8))
        assert np.any(a.probabilities != b.probabilities)

    def test_class_weights_can_be_disabled(self):
        train, test = small_benchmark()
        result = run_pipeline(
            train, test, small_config(class_weights=False)
        )
        assert len(result.predictions) == len(test)

    def test_training_embeddings_cover_all_train_documents(self):
        train, test = small_benchmark()
        result = run_pipeline(train, test, small_config())
        embeddings = training_embeddings(result.text_model)
        assert set(embeddings) == set(train.ids())
        assert embeddings[train.ids()[0]].shape == (8,)


class TestMakePipeline:
    def test_callable_reruns_with_the_given_seed(self):
        train, test = small_benchmark()
        config = small_config()
        pipeline = make_pipeline(config)
        want = run_pipeline(
            train, test, dataclasses.replace(config, seed=99)
        ).predictions
        assert pipeline(train, test, 99) == want
