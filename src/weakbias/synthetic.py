"""Seeded generator for multimodal benchmark corpora.

Each sample gets a latent topic; its article is drawn from topic-conditioned
word pools and its feature vector carries the topic in a small low-variance
block alongside dominant nuisance dimensions. The side label follows the
topic only at a configurable rate, so text is a clean label proxy while
features are a noisy one: the regime the two-stage trainer is built for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Sample, SideLabel
from .errors import UsageError
from .seeding import derive_seed


@dataclass
class SyntheticSpec:
    n_samples: int
    feature_dim: int = 64
    signal_dims: int = 8
    signal_scale: float = 0.3
    signal_noise: float = 0.3
    nuisance_scale: float = 3.0
    label_correlation: float = 0.85
    left_fraction: float = 0.5
    words_per_topic: int = 12
    shared_words: int = 30
    sentences_per_doc: int = 4
    words_per_sentence: int = 8
    topic_sentence_last: bool = True
    sources_per_side: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        n_left = int(round(self.n_samples * self.left_fraction))
        checks = [
            (self.n_samples >= 2, "n_samples must be >= 2"),
            (
                1 <= n_left <= self.n_samples - 1,
                f"left_fraction {self.left_fraction} leaves a side empty",
            ),
            (
                1 <= self.signal_dims <= self.feature_dim,
                "signal_dims must be in [1, feature_dim]",
            ),
            (
                0.0 <= self.label_correlation <= 1.0,
                "label_correlation must be in [0, 1]",
            ),
            (self.signal_scale >= 0, "signal_scale must be >= 0"),
            (self.signal_noise >= 0, "signal_noise must be >= 0"),
            (self.nuisance_scale >= 0, "nuisance_scale must be >= 0"),
            (self.words_per_topic >= 1, "words_per_topic must be >= 1"),
            (self.shared_words >= 1, "shared_words must be >= 1"),
            (self.sentences_per_doc >= 1, "sentences_per_doc must be >= 1"),
            (self.words_per_sentence >= 1, "words_per_sentence must be >= 1"),
            (self.sources_per_side >= 1, "sources_per_side must be >= 1"),
        ]
        for ok, message in checks:
            if not ok:
                raise UsageError(f"invalid synthetic spec: {message}")


_TOPIC_STEMS = ("red", "blue")


def topic_vocabulary(spec: SyntheticSpec, topic: int) -> list[str]:
    return [f"{_TOPIC_STEMS[topic]}{j:02d}" for j in range(spec.words_per_topic)]


def _sentence(words: list[str]) -> str:
    return " ".join(words) + "."


def make_synthetic(spec: SyntheticSpec) -> Corpus:
    """Deterministic benchmark corpus; same spec, same bytes."""
    rng = np.random.default_rng(derive_seed(spec.seed, "synthetic"))
    n_left = int(round(spec.n_samples * spec.left_fraction))
    pools = (topic_vocabulary(spec, 0), topic_vocabulary(spec, 1))
    filler = [f"fill{j:02d}" for j in range(spec.shared_words)]
    nuisance_dims = spec.feature_dim - spec.signal_dims
    samples = []
    for i in range(spec.n_samples):
        side = SideLabel.LEFT if i < n_left else SideLabel.RIGHT
        side_topic = 0 if side is SideLabel.LEFT else 1
        if rng.random() < spec.label_correlation:
            topic = side_topic
        else:
            topic = 1 - side_topic
        source = f"{side.value.lower()}{rng.integers(spec.sources_per_side)}"

        def draw(pool: list[str], count: int) -> list[str]:
            return [pool[j] for j in rng.integers(len(pool), size=count)]

        sentences = []
        for s in range(spec.sentences_per_doc):
            if spec.topic_sentence_last:
                pool = pools[topic] if s == spec.sentences_per_doc - 1 else filler
                words = draw(pool, spec.words_per_sentence)
            else:
                # topic and filler words interleaved throughout
                words = [
                    draw(pools[topic], 1)[0] if rng.random() < 0.5 else draw(filler, 1)[0]
                    for _ in range(spec.words_per_sentence)
                ]
            sentences.append(_sentence(words))
        raw_text = " ".join(sentences)

        sign = 1.0 if topic == 0 else -1.0
        signal = rng.normal(
            loc=sign * spec.signal_scale, scale=spec.signal_noise,
            size=spec.signal_dims,
        )
        nuisance = rng.normal(scale=spec.nuisance_scale, size=nuisance_dims)
        feature = np.concatenate([signal, nuisance]).astype(np.float32)

        samples.append(
            Sample(
                id=f"s{i:05d}",
                feature=feature,
                side=side,
                source=source,
                topics=frozenset({f"topic{topic}"}),
                raw_text=raw_text,
            )
        )
    return Corpus(spec.feature_dim, samples)
