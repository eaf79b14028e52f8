"""Corpus ingestion, tokenization, vocabulary construction, and splits.

A corpus is a list of samples, each pairing a precomputed image feature
vector with the text of the article the image appeared in, a coarse outlet
side (left or right), the outlet name, and optional topic tags. Everything
downstream (text embedding, dedup, classifier training) consumes this type.
"""

from __future__ import annotations

import heapq
import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError

CORPUS_FORMAT = "weakbias-corpus"
CORPUS_VERSION = 1

# Tokens are maximal runs of Unicode alphanumerics; a '#' glued to the front
# of a run stays on it so hashtags survive as single tokens.
_TOKEN_RE = re.compile(r"#?[^\W_]+")

# Sentence boundary: terminator punctuation followed by whitespace or end.
_SENTENCE_END_RE = re.compile(r"[.!?](?=\s|$)")


class SideLabel(Enum):
    """Coarse political side of the publishing outlet."""

    LEFT = "L"
    RIGHT = "R"

    @classmethod
    def parse(cls, value: str) -> "SideLabel":
        try:
            return cls(value)
        except ValueError:
            raise InputError(f"side must be 'L' or 'R', got {value!r}") from None


@dataclass
class Sample:
    """One image/article pair."""

    id: str
    feature: np.ndarray
    tokens: list[str]
    side: SideLabel
    source: str
    topics: frozenset[str]
    raw_text: str


@dataclass
class Corpus:
    feature_dim: int
    samples: list[Sample]

    def __post_init__(self) -> None:
        self._by_id = {s.id: s for s in self.samples}

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)

    def __getitem__(self, i: int) -> Sample:
        return self.samples[i]

    def ids(self) -> list[str]:
        return [s.id for s in self.samples]

    def sample(self, sample_id: str) -> Sample:
        try:
            return self._by_id[sample_id]
        except KeyError:
            raise InputError(f"unknown sample id {sample_id!r}") from None

    def __contains__(self, sample_id: str) -> bool:
        return sample_id in self._by_id

    def features(self) -> np.ndarray:
        """All feature vectors stacked in corpus order, float32 (n, dim)."""
        if not self.samples:
            return np.zeros((0, self.feature_dim), dtype=np.float32)
        return np.stack([s.feature for s in self.samples]).astype(np.float32)

    def subset(self, ids: Iterable[str]) -> "Corpus":
        """New corpus with the given samples, original order preserved."""
        keep = set(ids)
        unknown = keep - set(self._by_id)
        if unknown:
            raise InputError(f"unknown sample ids: {sorted(unknown)[:5]}")
        return Corpus(self.feature_dim, [s for s in self.samples if s.id in keep])

    def side_counts(self) -> dict[SideLabel, int]:
        counts = {SideLabel.LEFT: 0, SideLabel.RIGHT: 0}
        for s in self.samples:
            counts[s.side] += 1
        return counts


def tokenize(raw_text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric boundaries.

    Hashtags keep their leading '#': "#NeverAgain rally" becomes
    ["#neveragain", "rally"]. Output is stable under retokenization of the
    space-joined token list.
    """
    return _TOKEN_RE.findall(raw_text.lower())


def truncate_sentences(raw_text: str, k: int) -> str:
    """Return the first k sentences of raw_text.

    A sentence ends at '.', '!' or '?' followed by whitespace or end of
    string. Texts with fewer than k boundaries are returned unchanged.
    Abbreviation periods count as boundaries; that is an accepted limitation
    of the rule.
    """
    if k < 1:
        raise InputError(f"sentence count must be >= 1, got {k}")
    for i, match in enumerate(_SENTENCE_END_RE.finditer(raw_text), start=1):
        if i == k:
            return raw_text[: match.end()]
    return raw_text


def _parse_header(line: str) -> int:
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise InputError(f"line 1: header is not valid JSON: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != CORPUS_FORMAT:
        raise InputError(f"line 1: not a {CORPUS_FORMAT} header")
    if header.get("version") != CORPUS_VERSION:
        raise InputError(f"line 1: unsupported version {header.get('version')!r}")
    dim = header.get("feature_dim")
    if not isinstance(dim, int) or dim < 1:
        raise InputError(f"line 1: feature_dim must be a positive integer, got {dim!r}")
    return dim


def _parse_record(obj: dict, feature_dim: int, lineno: int) -> Sample:
    for key in ("id", "source", "side", "topics", "text", "feature"):
        if key not in obj:
            raise InputError(f"line {lineno}: record is missing {key!r}")
    sample_id = obj["id"]
    if not isinstance(sample_id, str) or not sample_id:
        raise InputError(f"line {lineno}: id must be a non-empty string")
    feature = obj["feature"]
    if not isinstance(feature, list) or len(feature) != feature_dim:
        got = len(feature) if isinstance(feature, list) else type(feature).__name__
        raise InputError(
            f"sample {sample_id!r}: feature length {got} does not match "
            f"declared feature_dim {feature_dim}"
        )
    try:
        vec = np.asarray([float(x) for x in feature], dtype=np.float64)
    except (TypeError, ValueError):
        raise InputError(f"sample {sample_id!r}: feature has non-numeric entries") from None
    with np.errstate(over="ignore"):
        vec = vec.astype(np.float32)
    if not np.isfinite(vec).all():
        raise InputError(
            f"line {lineno}: sample {sample_id!r}: feature has NaN or entries "
            "outside the float32 range"
        )
    topics = obj["topics"]
    if not isinstance(topics, list) or not all(isinstance(t, str) for t in topics):
        raise InputError(f"sample {sample_id!r}: topics must be a list of strings")
    text = obj["text"]
    if not isinstance(text, str):
        raise InputError(f"sample {sample_id!r}: text must be a string")
    return Sample(
        id=sample_id,
        feature=vec,
        tokens=tokenize(text),
        side=SideLabel.parse(obj["side"]),
        source=str(obj["source"]),
        topics=frozenset(topics),
        raw_text=text,
    )


def load_corpus(path: str) -> Corpus:
    """Read a JSONL corpus: one header line, then one record per line.

    Numbers are parsed at full precision and features stored as float32.
    Malformed lines, feature-length mismatches, features that are not
    finite in float32, and duplicate ids raise InputError naming the line
    or sample.
    """
    samples: list[Sample] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise InputError("line 1: empty file, expected corpus header")
        feature_dim = _parse_header(first)
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"line {lineno}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise InputError(f"line {lineno}: record must be a JSON object")
            sample = _parse_record(obj, feature_dim, lineno)
            if sample.id in seen:
                raise InputError(f"line {lineno}: duplicate sample id {sample.id!r}")
            seen.add(sample.id)
            samples.append(sample)
    return Corpus(feature_dim, samples)


def save_corpus(corpus: Corpus, path: str) -> None:
    """Write a corpus back to JSONL in the load_corpus schema."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "format": CORPUS_FORMAT,
            "version": CORPUS_VERSION,
            "feature_dim": corpus.feature_dim,
        }
        fh.write(json.dumps(header) + "\n")
        for s in corpus:
            record = {
                "id": s.id,
                "source": s.source,
                "side": s.side.value,
                "topics": sorted(s.topics),
                "text": s.raw_text,
                "feature": [float(x) for x in s.feature],
            }
            fh.write(json.dumps(record) + "\n")


@dataclass
class Vocabulary:
    """Retained words plus their Huffman codes over frequency counts.

    Words are ordered by descending count, ties alphabetical. codes[i] and
    paths[i] describe word i's leaf: the bit string from the root (0 = left,
    1 = right) and the inner-node rows visited, root first. A vocabulary of
    one word has an empty code and path; otherwise the tree has exactly
    len(words) - 1 inner nodes.
    """

    words: list[str]
    counts: list[int]
    min_count: int
    codes: list[np.ndarray] = field(repr=False)
    paths: list[np.ndarray] = field(repr=False)

    def __post_init__(self) -> None:
        self.index = {w: i for i, w in enumerate(self.words)}

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    @property
    def n_inner_nodes(self) -> int:
        return max(len(self.words) - 1, 0)

    def huffman_code(self, word: str) -> str:
        return "".join(str(b) for b in self.codes[self._require(word)])

    def huffman_path(self, word: str) -> list[int]:
        return [int(i) for i in self.paths[self._require(word)]]

    def _require(self, word: str) -> int:
        if word not in self.index:
            raise InputError(f"word {word!r} is not in the vocabulary")
        return self.index[word]


def _huffman_codes(words: list[str], counts: list[int]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Build Huffman codes and root-first inner-node paths for each word.

    Merge ties are broken by (count, leaf-before-inner, alphabetical word /
    creation order), which makes the tree a pure function of the counts.
    The first node popped at a merge becomes the left child (bit 0).
    """
    n = len(words)
    if n == 1:
        return [np.zeros(0, dtype=np.uint8)], [np.zeros(0, dtype=np.int32)]
    # Node ids: leaves 0..n-1 (vocabulary order), inner nodes n..2n-2 in
    # creation order. Inner node k maps to matrix row k - n.
    parent = [-1] * (2 * n - 1)
    bit = [0] * (2 * n - 1)
    heap: list[tuple[int, int, str, int]] = [
        (counts[i], 0, words[i], i) for i in range(n)
    ]
    heapq.heapify(heap)
    next_id = n
    while len(heap) > 1:
        c_left, _, _, left = heapq.heappop(heap)
        c_right, _, _, right = heapq.heappop(heap)
        parent[left], bit[left] = next_id, 0
        parent[right], bit[right] = next_id, 1
        heapq.heappush(heap, (c_left + c_right, 1, f"{next_id:010d}", next_id))
        next_id += 1
    codes: list[np.ndarray] = []
    paths: list[np.ndarray] = []
    for i in range(n):
        rev_bits: list[int] = []
        rev_path: list[int] = []
        node = i
        while parent[node] != -1:
            rev_bits.append(bit[node])
            rev_path.append(parent[node] - n)
            node = parent[node]
        codes.append(np.array(rev_bits[::-1], dtype=np.uint8))
        paths.append(np.array(rev_path[::-1], dtype=np.int32))
    return codes, paths


def vocabulary_from_counts(counts: dict[str, int], min_count: int) -> Vocabulary:
    """Vocabulary over the words with count >= min_count."""
    retained = {w: c for w, c in counts.items() if c >= min_count}
    if not retained:
        raise InputError(
            f"no word reaches min_count={min_count}; vocabulary would be empty"
        )
    words = sorted(retained, key=lambda w: (-retained[w], w))
    word_counts = [retained[w] for w in words]
    codes, paths = _huffman_codes(words, word_counts)
    return Vocabulary(words, word_counts, min_count, codes, paths)


def build_vocabulary(corpus: Corpus, min_count: int) -> Vocabulary:
    """Count token occurrences over the corpus and keep frequent words."""
    counter: Counter[str] = Counter()
    for s in corpus:
        counter.update(s.tokens)
    return vocabulary_from_counts(dict(counter), min_count)


@dataclass
class ClassWeights:
    """Inverse-frequency loss weights: weight_c = n_total / (2 * n_c)."""

    left: float
    right: float

    def of(self, side: SideLabel) -> float:
        return self.left if side is SideLabel.LEFT else self.right


def class_weights(corpus: Corpus) -> ClassWeights:
    counts = corpus.side_counts()
    n_left, n_right = counts[SideLabel.LEFT], counts[SideLabel.RIGHT]
    if n_left == 0 or n_right == 0:
        raise InputError(
            f"both classes need samples to weight them (left={n_left}, right={n_right})"
        )
    total = n_left + n_right
    return ClassWeights(left=total / (2.0 * n_left), right=total / (2.0 * n_right))


def split(corpus: Corpus, test_fraction: float, seed: int) -> tuple[Corpus, Corpus]:
    """Deterministic stratified train/test split.

    Each side is shuffled and cut independently, so the side ratio in each
    half matches the corpus within one sample. Raises when either side would
    end up empty in either half.
    """
    if not 0.0 < test_fraction < 1.0:
        raise InputError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = random.Random(seed)
    test_ids: set[str] = set()
    for side in (SideLabel.LEFT, SideLabel.RIGHT):
        side_ids = [s.id for s in corpus if s.side is side]
        if not side_ids:
            raise InputError(f"corpus has no samples with side {side.value!r}")
        n_test = int(round(len(side_ids) * test_fraction))
        if n_test == 0 or n_test == len(side_ids):
            raise InputError(
                f"test_fraction {test_fraction} leaves side {side.value!r} empty "
                "in one half"
            )
        rng.shuffle(side_ids)
        test_ids.update(side_ids[:n_test])
    train = Corpus(corpus.feature_dim, [s for s in corpus if s.id not in test_ids])
    test = Corpus(corpus.feature_dim, [s for s in corpus if s.id in test_ids])
    return train, test
