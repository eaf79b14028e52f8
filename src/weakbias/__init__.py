"""Weakly supervised left/right bias prediction from image features.

Training pairs each image feature vector with the text of the article it
appeared in; a paragraph-vector model embeds the text, a fusion classifier
learns from both modalities, and a second stage distills that into an
image-only predictor. Near-duplicate images are removed beforehand with an
exact radius join over the image features.
"""

from .classifier import (
    BiasModel,
    TrainSpec,
    ablate_zero_text,
    build_model,
    forward_stage1,
    load_checkpoint,
    predict_batch,
    rank_images_for_word,
    save_checkpoint,
    select_visual_words,
    train_image_only,
    train_stage1,
    train_stage2,
    train_word_head,
)
from .corpus import (
    ClassWeights,
    Corpus,
    Sample,
    SideLabel,
    Vocabulary,
    build_vocabulary,
    class_weights,
    load_corpus,
    save_corpus,
    split,
    tokenize,
    truncate_sentences,
    vocabulary_from_counts,
)
from .dedup import (
    DuplicateCluster,
    cluster_duplicates,
    deduplicate,
    knn_distance_histogram,
    save_cluster_report,
    select_canonical,
)
from .doc2vec import (
    PvdmConfig,
    PvdmModel,
    infer_documents,
    load_embeddings,
    load_model,
    nearest_words,
    save_embeddings,
    save_model,
    train_pvdm,
)
from .errors import InputError, NumericError, UsageError, WeakBiasError
from .evaluation import (
    EvalReport,
    accuracy,
    group_accuracy,
    leave_one_source_out,
    report_from_json,
    report_to_csv,
    report_to_json,
    sentence_truncation_sweep,
    top_k_source_accuracy,
)
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    make_pipeline,
    normalize_embedding,
    run_pipeline,
    training_embeddings,
)
from .seeding import derive_seed
from .synthetic import SyntheticSpec, make_synthetic, topic_vocabulary

__version__ = "0.1.0"
