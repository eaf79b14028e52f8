"""End-to-end wiring: text embeddings, two-stage training, prediction.

One root seed drives every stage through named sub-seeds, so rerunning a
pipeline reproduces each stage exactly and adding a later stage can never
perturb an earlier one.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .binio import U32_MAX
from .classifier import BiasModel, TrainSpec, predict_batch, train_stage1, train_stage2
from .corpus import Corpus, SideLabel, class_weights
from .doc2vec import PvdmConfig, PvdmModel, train_pvdm
from .errors import InputError
from .seeding import derive_seed


@dataclasses.dataclass
class PipelineConfig:
    """Settings of a pipeline run. The scalar fields between pvdm and seed
    are the CLI's [train] keys: one epochs key per classifier head, and the
    shared lr, batch size, layer widths and class-weight switch."""

    pvdm: PvdmConfig
    stage1_epochs: int = 10
    stage2_epochs: int = 10
    words_epochs: int = 10
    lr: float = 1e-4
    batch_size: int = 64
    hidden: int = 256
    fused: int = 256
    class_weights: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        for stage in ("stage1", "stage2", "words"):  # TrainSpec checks the [train] values
            self.stage_spec(stage, None)
        for name in ("hidden", "fused"):  # bounded as PvdmConfig.dim is
            if not 1 <= getattr(self, name) <= U32_MAX:
                raise InputError(f"{name} must be in [1, {U32_MAX}], got {getattr(self, name)}")

    def stage_spec(self, stage: str, corpus: Corpus | None) -> TrainSpec:
        """Settings of one classifier stage ("stage1", "stage2" or "words"):
        its <stage>_epochs, the shared lr and batch size, the class weights
        of `corpus` when they are on (none without a corpus), and the
        stage's named sub-seed of the root."""
        weights = None
        if corpus is not None and self.class_weights:
            weights = class_weights(corpus)
        return TrainSpec(
            epochs=getattr(self, f"{stage}_epochs"),
            lr=self.lr,
            batch_size=self.batch_size,
            class_weights=weights,
            seed=derive_seed(self.seed, stage),
        )

    def text_config(self) -> PvdmConfig:
        """The PV-DM settings with the root's named "text" sub-seed."""
        return dataclasses.replace(self.pvdm, seed=derive_seed(self.seed, "text"))


@dataclasses.dataclass
class PipelineResult:
    text_model: PvdmModel
    model: BiasModel
    predictions: list[SideLabel]
    probabilities: np.ndarray


def normalize_embedding(vector: np.ndarray) -> np.ndarray:
    """Unit-length copy of a document vector (zero vectors stay zero).

    Document vectors come out of training at norms well below the image
    features they are fused with; normalizing keeps the text channel
    audible without letting it drown the image path.
    """
    norm = float(np.linalg.norm(vector))
    return vector / norm if norm > 0.0 else vector.copy()


def training_embeddings(model: PvdmModel) -> dict[str, np.ndarray]:
    """Per-document vectors learned during training, keyed by sample id."""
    return {
        doc_id: model.doc_vectors[i] for i, doc_id in enumerate(model.doc_ids)
    }


def run_pipeline(train: Corpus, test: Corpus, config: PipelineConfig) -> PipelineResult:
    """Text model, stage 1, stage 2, and image-only test predictions.

    The pipeline owns stage seeding: the configured pvdm seed is replaced by
    a sub-seed of the root, as are both training stages. Both stages'
    settings are checked before any training starts.
    """
    stage1_spec = config.stage_spec("stage1", train)
    stage2_spec = config.stage_spec("stage2", train)
    text_model = train_pvdm(train, config.text_config())
    embeddings = {
        doc_id: normalize_embedding(vector)
        for doc_id, vector in training_embeddings(text_model).items()
    }
    stage1 = train_stage1(
        train, embeddings, stage1_spec, hidden=config.hidden, fused=config.fused
    )
    model = train_stage2(stage1, train, stage2_spec)
    predictions, probabilities = predict_batch(model, test.features())
    return PipelineResult(text_model, model, predictions, probabilities)


def make_pipeline(config: PipelineConfig):
    """Adapter for the evaluation protocols: a callable
    (train, test, seed) -> predictions that reruns the full pipeline under
    the given root seed."""

    def pipeline(train: Corpus, test: Corpus, seed: int):
        return run_pipeline(
            train, test, dataclasses.replace(config, seed=seed)
        ).predictions

    return pipeline
