"""Corpus ingestion, tokenization, vocabulary construction, and splits.

A corpus is a list of samples, each pairing a precomputed image feature
vector with the text of the article the image appeared in, a coarse outlet
side (left or right), the outlet name, and optional topic tags. Everything
downstream (text embedding, dedup, classifier training) consumes this type.
"""

from __future__ import annotations

import functools
import heapq
import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from .binio import atomic_write
from .errors import InputError, not_utf8

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


@dataclass(init=False)
class Sample:
    """One image/article pair.

    tokens is tokenize(raw_text), derived when first read and then kept, so
    commands that never read it never tokenize. A tokens list given to the
    constructor is kept as given; dataclasses.replace without tokens= derives
    them again from the new raw_text. A sample from load_corpus holds its
    feature as a row of the file's one float32 block.
    """

    id: str
    feature: np.ndarray
    side: SideLabel
    source: str
    topics: frozenset[str]
    raw_text: str

    def __init__(
        self,
        id: str,
        feature: np.ndarray,
        side: SideLabel,
        source: str,
        topics: frozenset[str],
        raw_text: str,
        tokens: list[str] | None = None,
    ) -> None:
        self.id = id
        self.feature = feature
        self.side = side
        self.source = source
        self.topics = topics
        self.raw_text = raw_text
        if tokens is not None:
            self.tokens = tokens

    @functools.cached_property
    def tokens(self) -> list[str]:
        return tokenize(self.raw_text)


@dataclass
class Corpus:
    feature_dim: int
    samples: list[Sample]

    def __post_init__(self) -> None:
        self._by_id = {s.id: s for s in self.samples}
        self._block_rows: list[np.ndarray] = []  # set by load_corpus

    def _block(self) -> np.ndarray | None:
        """The float32 block of a load_corpus result, read-only, while each
        sample still holds its row of it. load_corpus keeps the row views it
        hands the samples, in file order, so identity with them shows that
        the features are the block's rows in order, at about 0.1 us a row
        where reading each row's address (row_block) takes 1.4 us."""
        rows = self._block_rows
        base = rows[0].base if rows else None
        if (base is None or base.shape != (len(self.samples), self.feature_dim)
                or not all(s.feature is row for s, row in zip(self.samples, rows))):
            return None
        return _read_only(base)

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
        """All feature vectors in corpus order, float32 (n, dim). A
        load_corpus result whose samples still hold their rows of the file's
        block returns that block, read-only, instead of a copy; any other
        corpus (a subset, a split half, a synthetic corpus) gets a fresh
        stack."""
        block = self._block()
        if block is not None:
            return block
        if not self.samples:
            return np.zeros((0, self.feature_dim), dtype=np.float32)
        return np.stack([s.feature for s in self.samples]).astype(np.float32, copy=False)

    def finite_features(self) -> np.ndarray:
        """features(), after an InputError naming the first sample whose
        feature is not feature_dim long or not finite in float32. A
        load_corpus result's block is checked with one isfinite, without
        float_block's per-row shape check and stack."""
        label, block = "sample {!r}: feature", self._block()
        if block is None:
            return float_block(self.ids(), [s.feature for s in self.samples], label,
                               self.feature_dim)
        return _finite_block(self.ids(), block, label)

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
    if not line:
        raise InputError("line 1: empty file, expected corpus header")
    try:
        header = json.loads(line)
    except ValueError as exc:  # a JSONDecodeError, or an int over int()'s digit limit
        raise InputError(f"line 1: header is not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError("line 1: header JSON is nested too deeply") from None
    if not isinstance(header, dict) or header.get("format") != CORPUS_FORMAT:
        raise InputError(f"line 1: not a {CORPUS_FORMAT} header")
    version, dim = header.get("version"), header.get("feature_dim")
    if type(version) is not int or version != CORPUS_VERSION:  # JSON true == 1
        raise InputError(f"line 1: unsupported version {version!r}")
    if type(dim) is not int or dim < 1:  # JSON true is an int to isinstance
        raise InputError(f"line 1: feature_dim must be a positive integer, got {dim!r}")
    return dim


def _parse_record(obj, lineno: int, shared: dict) -> tuple[str, object, Sample]:
    """A record's id, its feature as decoded and its sample, with feature
    None; the feature is checked by read_float_rows. A topic set or source
    equal to one in `shared` is that object, and a new one is added, so the
    samples of one load hold one copy of each."""
    if not isinstance(obj, dict):
        raise InputError(f"line {lineno}: record must be a JSON object")
    for key in ("id", "source", "side", "topics", "text", "feature"):
        if key not in obj:
            raise InputError(f"line {lineno}: record is missing {key!r}")
    sample_id = obj["id"]
    if not isinstance(sample_id, str) or not sample_id:
        raise InputError(f"line {lineno}: id must be a non-empty string")
    topics = obj["topics"]
    if not isinstance(topics, list) or not all(isinstance(t, str) for t in topics):
        raise InputError(
            f"line {lineno}: sample {sample_id!r}: topics must be a list of strings"
        )
    text = obj["text"]
    if not isinstance(text, str):
        raise InputError(f"line {lineno}: sample {sample_id!r}: text must be a string")
    source = obj["source"]
    if not isinstance(source, str):
        raise InputError(f"line {lineno}: sample {sample_id!r}: source must be a string")
    try:
        side = SideLabel.parse(obj["side"])
    except InputError as exc:
        raise InputError(f"line {lineno}: sample {sample_id!r}: {exc}") from None
    topics = frozenset(topics)
    sample = Sample(
        id=sample_id,
        feature=None,
        side=side,
        source=shared.setdefault(source, source),
        topics=shared.setdefault(topics, topics),
        raw_text=text,
    )
    return sample_id, obj["feature"], sample


# Integer literals decode as floats too: "-0" keeps its sign, and an integer
# too long for int() reads as inf instead of raising.
_decode = json.JSONDecoder(parse_int=float).decode


def read_float_rows(path: str, parse, label: str, *, header=None,
                    lines: list[str] | None = None) -> tuple[list, np.ndarray]:
    """Read a JSONL file of one id and one row of floats per line: the
    items in file order and one float32 (n, dim) block, row i item i's.

    header, when given, reads the first line and returns the row length it
    declares; otherwise the first row's length is the file's. Each other
    line that is not blank is decoded and handed to parse(obj, lineno),
    which checks the format's own fields and returns the line's id, row and
    item. Lines end at LF only: a CR elsewhere is JSON whitespace (or,
    inside a string, invalid JSON). A row must be a list of that many JSON
    numbers and is rounded once to float32. Invalid or too deeply nested
    JSON, a repeated id, and a row of another type or length or not finite
    in float32 raise InputError naming the line and, for a row, its id
    (label.format of it), the first bad line first; bytes that are not
    UTF-8 name the file. Given a list as lines, each row line is appended
    to it as read, a CR before its LF kept and a newline added to a last
    line without one.
    """
    ids: dict[str, int] = {}  # id -> line, in file order, one per block row
    items: list = []
    dim = None
    # Grows by doubling; no row view exists until it is trimmed below.
    block = np.empty((0, 0), dtype=np.float32)
    try:
        # Beyond the float32 range becomes inf, rejected once the rows are read.
        with open(path, "r", encoding="utf-8", newline="\n") as fh, np.errstate(over="ignore"):
            if header is not None:
                dim = header(fh.readline())
                expected = f"declared feature_dim {dim}"
            failure = None
            try:
                for lineno, line in enumerate(fh, start=1 if header is None else 2):
                    if not line.strip():
                        continue
                    try:
                        obj = _decode(line)
                    except json.JSONDecodeError as exc:
                        raise InputError(f"line {lineno}: invalid JSON: {exc}") from None
                    except RecursionError:
                        raise InputError(f"line {lineno}: JSON nested too deeply") from None
                    key, row, item = parse(obj, lineno)
                    if key in ids:
                        raise InputError(
                            f"line {lineno}: duplicate id {key!r}, first on line {ids[key]}"
                        )
                    # Every JSON number decodes to a float; anything else is not one.
                    if not isinstance(row, list) or not set(map(type, row)) <= {float}:
                        raise InputError(
                            f"line {lineno}: {label.format(key)} is not a list of numbers"
                        )
                    if dim is None:
                        dim, expected = len(row), f"length {len(row)} of line {lineno}"
                    if len(row) != dim:
                        raise InputError(
                            f"line {lineno}: {label.format(key)} length {len(row)} "
                            f"does not match {expected}"
                        )
                    n = len(items)
                    if n == len(block):
                        block.resize((max(2 * n, 64), dim), refcheck=False)
                    block[n] = row
                    ids[key] = lineno
                    items.append(item)
                    if lines is not None:
                        lines.append(line if line.endswith("\n") else line + "\n")
            except (InputError, UnicodeDecodeError) as exc:
                failure = exc
            # A non-finite row on a line before a failure is the first fault.
            finite = np.isfinite(block[: len(items)]).all(axis=1)
            if not finite.all():
                key, lineno = list(ids.items())[int(finite.argmin())]
                raise InputError(f"line {lineno}: {label.format(key)} has NaN or "
                                 "entries outside the float32 range")
            if failure is not None:
                raise failure
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None
    block.resize((len(items), dim or 0), refcheck=False)
    return items, block


def load_corpus(path: str, *, lines: list[str] | None = None) -> Corpus:
    """Read a JSONL corpus, one header line and then one record per line,
    with read_float_rows: each sample's feature is its row of the file's
    float32 block, and files with 17-digit components (the float64 repr)
    load to the same arrays as save_corpus's 9 digits. Texts are not
    tokenized here: Sample.tokens is derived on first use. Samples with
    equal topic sets share one frozenset, and samples with equal sources one
    string; two loads share neither. The corpus keeps the list of row views
    it hands the samples, by which features() knows its block. Given a list
    as lines, the record lines are appended to it, which save_corpus_lines
    writes back as a corpus file.
    """
    parse = functools.partial(_parse_record, shared={})
    samples, block = read_float_rows(
        path, parse, "sample {!r}: feature", header=_parse_header, lines=lines
    )
    rows = list(block)
    for sample, row in zip(samples, rows):
        sample.feature = row
    corpus = Corpus(block.shape[1], samples)
    corpus._block_rows = rows
    return corpus


def float_block(ids: list[str], rows: list, label: str, dim: int | None = None) -> np.ndarray:
    """The rows as one float32 (n, dim) block, dim being the first row's
    length unless given. The first row of another length or not finite in
    float32 raises InputError naming its id (label.format of it)."""
    expected = f"declared feature_dim {dim}"
    if dim is None:
        dim = np.size(rows[0]) if rows else 0
        expected = f"length {dim} of the first row"
    for key, row in zip(ids, rows):
        if np.shape(row) != (dim,):
            raise InputError(
                f"{label.format(key)} length {np.size(row)} does not match {expected}"
            )
    with np.errstate(over="ignore"):
        block = np.array(rows, dtype=np.float32).reshape(len(rows), dim)
    return _finite_block(ids, block, label)


def _finite_block(ids: list[str], block: np.ndarray, label: str) -> np.ndarray:
    """block, after an InputError naming the id (label.format of it) of its
    first row that is not finite."""
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        key = ids[int(finite.argmin())]
        raise InputError(f"{label.format(key)} has non-finite entries")
    return block


def row_block(rows: list) -> np.ndarray | None:
    """The C-contiguous float32 (n, dim) block whose n rows, in order, the
    n arrays of `rows` are, as a read-only view; None for any other list,
    an empty one included. The values of a load_embeddings dict are such
    rows, so a sidecar serves as a command's matrix without a second copy.
    Each row's address is read through ndarray.ctypes, about 1.4 us a row:
    a buffer export (ctypes.from_buffer, memoryview) would be faster but
    leaves numpy's buffer info cached on every row for its lifetime."""
    base = getattr(rows[0], "base", None) if rows else None
    if (not isinstance(base, np.ndarray) or base.dtype != np.float32 or base.ndim != 2
            or not base.flags.c_contiguous or len(base) != len(rows)):
        return None
    dtype, shape, step = base.dtype, base.shape[1:], base.strides[0]
    address = base.ctypes.data
    for row in rows:
        if (getattr(row, "base", None) is not base or row.dtype is not dtype
                or row.shape != shape or row.ctypes.data != address):
            return None
        address += step
    return _read_only(base)


def _read_only(array: np.ndarray) -> np.ndarray:
    """A view of array that cannot be written through."""
    view = array.view()
    view.flags.writeable = False
    return view


def float_row_format(dim: int) -> str:
    """A %-format for a JSON list of dim floats with 9 significant digits
    each ("%.9g"), the fewest that read every float32 back exactly, -0.0,
    subnormals and the largest finite one included."""
    return "[" + ", ".join(["%.9g"] * dim) + "]"


def _header_line(feature_dim: int) -> str:
    header = {
        "format": CORPUS_FORMAT,
        "version": CORPUS_VERSION,
        "feature_dim": feature_dim,
    }
    return json.dumps(header) + "\n"


def save_corpus(corpus: Corpus, path: str) -> None:
    """Write a corpus back to JSONL in the load_corpus schema.

    Each record is one JSON object with the feature last, its components
    rounded to float32 and written with float_row_format. A feature of the
    wrong length or with a component that is not finite in float32 raises
    InputError naming the sample before the file is opened.
    """
    features = corpus.finite_features()
    feature_format = '"feature": ' + float_row_format(corpus.feature_dim) + "}\n"
    with atomic_write(path) as fh:
        fh.write(_header_line(corpus.feature_dim))
        for s, row in zip(corpus, features):
            record = {
                "id": s.id,
                "source": s.source,
                "side": s.side.value,
                "topics": sorted(s.topics),
                "text": s.raw_text,
            }
            fh.write(json.dumps(record)[:-1] + ", " + feature_format % tuple(row.tolist()))


def save_corpus_lines(path: str, feature_dim: int, lines: Iterable[str]) -> None:
    """Write a corpus file from record lines that load_corpus collected: the
    header save_corpus writes, then each line unchanged, so a filter such as
    dedup passes records through without re-encoding them. Lines that
    save_corpus wrote come out as the same bytes; others keep their own
    spelling (17-digit or integer features, extra keys, unsorted topics) and
    load to the same samples."""
    with atomic_write(path) as fh:
        fh.write(_header_line(feature_dim))
        fh.writelines(lines)


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
