"""Corpus layer: tokenization, loading, vocabulary, weights, splits."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakbias.corpus import (
    ClassWeights,
    Corpus,
    SideLabel,
    build_vocabulary,
    class_weights,
    load_corpus,
    save_corpus,
    split,
    tokenize,
    truncate_sentences,
    vocabulary_from_counts,
)
from weakbias.errors import InputError

from helpers import make_corpus


class TestTokenize:
    def test_lowercases_and_splits_punctuation(self):
        assert tokenize("Donald Trump!") == ["donald", "trump"]

    def test_hashtag_kept_as_prefix(self):
        assert tokenize("#NeverAgain rally") == ["#neveragain", "rally"]

    def test_empty_text(self):
        assert tokenize("") == []
        assert tokenize("  \t\n ") == []

    def test_digits_are_tokens(self):
        assert tokenize("March 24, 2018") == ["march", "24", "2018"]

    def test_underscore_is_a_boundary(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    def test_unicode_words_survive(self):
        assert tokenize("Armas y café") == ["armas", "y", "café"]

    def test_double_hash_keeps_one(self):
        assert tokenize("##tag") == ["#tag"]

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_under_retokenization(self, text):
        """Joining tokens with spaces and retokenizing changes nothing."""
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens


class TestTruncateSentences:
    def test_keeps_first_k(self):
        assert truncate_sentences("A. B. C.", 2) == "A. B."

    def test_fewer_sentences_than_k(self):
        assert truncate_sentences("One sentence only.", 5) == "One sentence only."

    def test_abbreviation_period_counts_as_boundary(self):
        # Known limitation of the whitespace-follows rule.
        assert truncate_sentences("Mr. Smith ran. He won.", 1) == "Mr."

    def test_question_and_bang_terminate(self):
        assert truncate_sentences("Really? Yes! Fine.", 2) == "Really? Yes!"

    def test_terminator_inside_word_is_not_a_boundary(self):
        assert truncate_sentences("v1.2 shipped today. Next up.", 1) == (
            "v1.2 shipped today."
        )

    def test_k_must_be_positive(self):
        with pytest.raises(InputError):
            truncate_sentences("A.", 0)


class TestLoadCorpus:
    def write(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def header(self, dim=3):
        return json.dumps(
            {"format": "weakbias-corpus", "version": 1, "feature_dim": dim}
        )

    def record(self, sample_id, feature, side="L", text="some words here"):
        return json.dumps(
            {
                "id": sample_id,
                "source": "outlet",
                "side": side,
                "topics": ["guns"],
                "text": text,
                "feature": feature,
            }
        )

    def test_loads_records_in_order(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                self.header(),
                self.record("x1", [1.0, 2.0, 3.0], side="L"),
                self.record("x2", [0.5, 0.5, 0.5], side="R"),
            ],
        )
        corpus = load_corpus(path)
        assert corpus.ids() == ["x1", "x2"]
        assert corpus.feature_dim == 3
        assert corpus.sample("x2").side is SideLabel.RIGHT
        assert corpus.sample("x1").feature.dtype == np.float32

    def test_header_only_corpus_is_empty(self, tmp_path):
        corpus = load_corpus(self.write(tmp_path, [self.header()]))
        assert len(corpus) == 0

    def test_feature_length_mismatch_names_sample(self, tmp_path):
        path = self.write(tmp_path, [self.header(), self.record("bad1", [1.0, 2.0])])
        with pytest.raises(InputError, match="bad1"):
            load_corpus(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1e39])
    def test_non_finite_feature_names_line_and_sample(self, tmp_path, bad):
        """1e39 is finite as parsed but overflows the stored float32."""
        path = self.write(
            tmp_path,
            [
                self.header(),
                self.record("ok", [1.0, 2.0, 3.0]),
                self.record("bad7", [1.0, bad, 3.0]),
            ],
        )
        with pytest.raises(InputError, match="line 3: sample 'bad7'"):
            load_corpus(path)

    def test_duplicate_id_names_line(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                self.header(),
                self.record("dup", [1, 2, 3]),
                self.record("dup", [4, 5, 6]),
            ],
        )
        with pytest.raises(InputError, match="line 3"):
            load_corpus(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = self.write(tmp_path, [self.header(), "{not json"])
        with pytest.raises(InputError, match="line 2"):
            load_corpus(path)

    def test_bad_side_rejected(self, tmp_path):
        path = self.write(
            tmp_path, [self.header(), self.record("x", [1, 2, 3], side="C")]
        )
        with pytest.raises(InputError, match="side"):
            load_corpus(path)

    def test_missing_header_rejected(self, tmp_path):
        path = self.write(tmp_path, [self.record("x", [1, 2, 3])])
        with pytest.raises(InputError, match="line 1"):
            load_corpus(path)

    def test_round_trip_preserves_bytes(self, tmp_path, small_corpus):
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        save_corpus(small_corpus, str(p1))
        save_corpus(load_corpus(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestVocabulary:
    def test_hand_built_tree_code_lengths(self):
        """Four words with counts 4/2/1/1 get code lengths 1/2/3/3."""
        vocab = vocabulary_from_counts({"w1": 4, "w2": 2, "w3": 1, "w4": 1}, 1)
        lengths = {w: len(vocab.huffman_code(w)) for w in vocab.words}
        assert lengths == {"w1": 1, "w2": 2, "w3": 3, "w4": 3}

    def test_equal_counts_alphabetical_gets_zero_bit(self):
        vocab = vocabulary_from_counts({"bb": 3, "aa": 3}, 1)
        assert vocab.huffman_code("aa") == "0"
        assert vocab.huffman_code("bb") == "1"

    def test_single_word_empty_code(self):
        vocab = vocabulary_from_counts({"only": 7}, 1)
        assert vocab.huffman_code("only") == ""
        assert vocab.huffman_path("only") == []
        assert vocab.n_inner_nodes == 0

    def test_min_count_filters(self, small_corpus):
        vocab = build_vocabulary(small_corpus, min_count=2)
        assert "the" in vocab
        assert "campus" not in vocab

    def test_empty_vocabulary_is_an_error(self, small_corpus):
        with pytest.raises(InputError, match="min_count"):
            build_vocabulary(small_corpus, min_count=100)

    def test_code_and_path_lengths_agree(self):
        vocab = vocabulary_from_counts({f"w{i}": i + 1 for i in range(13)}, 1)
        for w in vocab.words:
            assert len(vocab.huffman_code(w)) == len(vocab.huffman_path(w))

    def test_inner_node_count(self):
        vocab = vocabulary_from_counts({f"w{i}": 5 for i in range(9)}, 1)
        assert vocab.n_inner_nodes == 8
        flat = np.concatenate([p for p in vocab.paths])
        assert set(flat.tolist()) == set(range(8))

    def test_words_ordered_by_count_then_alpha(self):
        vocab = vocabulary_from_counts({"b": 2, "a": 2, "c": 9}, 1)
        assert vocab.words == ["c", "a", "b"]

    @staticmethod
    def _assert_prefix_free(codes):
        codes = sorted(codes)
        for prev, cur in zip(codes, codes[1:]):
            assert not cur.startswith(prev), f"{prev} prefixes {cur}"

    @given(
        st.dictionaries(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll",)),
                min_size=1,
                max_size=6,
            ),
            st.integers(min_value=1, max_value=10_000),
            min_size=2,
            max_size=60,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_codes_are_prefix_free(self, counts):
        vocab = vocabulary_from_counts(counts, 1)
        self._assert_prefix_free([vocab.huffman_code(w) for w in vocab.words])

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_tree_is_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        counts = {f"w{i}": int(rng.integers(1, 50)) for i in range(20)}
        v1 = vocabulary_from_counts(dict(counts), 1)
        v2 = vocabulary_from_counts(dict(reversed(counts.items())), 1)
        assert v1.words == v2.words
        assert [v1.huffman_code(w) for w in v1.words] == [
            v2.huffman_code(w) for w in v2.words
        ]


class TestClassWeights:
    def test_balanced_corpus_gets_unit_weights(self, small_corpus):
        weights = class_weights(small_corpus)
        assert weights.left == 1.0
        assert weights.right == 1.0

    def test_three_to_one_imbalance(self):
        rows = [(f"l{i}", "text here", SideLabel.LEFT) for i in range(75)]
        rows += [(f"r{i}", "text here", SideLabel.RIGHT) for i in range(25)]
        weights = class_weights(make_corpus(rows))
        assert weights.left == pytest.approx(100 / 150)
        assert weights.right == pytest.approx(2.0)

    def test_empty_class_is_an_error(self):
        corpus = make_corpus([("a", "words", SideLabel.LEFT)])
        with pytest.raises(InputError, match="classes"):
            class_weights(corpus)

    @given(
        st.integers(min_value=1, max_value=10_000),
        st.integers(min_value=1, max_value=10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_weighted_count_sums_to_total(self, n_left, n_right):
        """n_l * w_l + n_r * w_r recovers the corpus size."""
        total = n_left + n_right
        weights = ClassWeights(total / (2.0 * n_left), total / (2.0 * n_right))
        recovered = n_left * weights.left + n_right * weights.right
        assert recovered == pytest.approx(total, rel=1e-12)


class TestSplit:
    def corpus(self, n_left=50, n_right=50):
        rows = [(f"l{i}", "left words", SideLabel.LEFT) for i in range(n_left)]
        rows += [(f"r{i}", "right words", SideLabel.RIGHT) for i in range(n_right)]
        return make_corpus(rows)

    def test_partition_is_disjoint_and_exhaustive(self):
        corpus = self.corpus()
        train, test = split(corpus, 0.2, seed=3)
        assert sorted(train.ids() + test.ids()) == sorted(corpus.ids())
        assert not set(train.ids()) & set(test.ids())

    def test_stratification_preserved(self):
        train, test = split(self.corpus(), 0.2, seed=3)
        assert test.side_counts()[SideLabel.LEFT] == 10
        assert test.side_counts()[SideLabel.RIGHT] == 10

    def test_same_seed_same_split(self):
        c = self.corpus()
        assert split(c, 0.2, seed=11)[1].ids() == split(c, 0.2, seed=11)[1].ids()

    def test_different_seed_different_membership(self):
        c = self.corpus()
        a = split(c, 0.2, seed=1)[1].ids()
        b = split(c, 0.2, seed=2)[1].ids()
        assert a != b
        assert len(a) == len(b)

    def test_empty_side_in_split_is_an_error(self):
        c = self.corpus(n_left=2, n_right=50)
        with pytest.raises(InputError):
            split(c, 0.05, seed=0)

    def test_missing_side_is_an_error(self):
        rows = [(f"l{i}", "words", SideLabel.LEFT) for i in range(10)]
        with pytest.raises(InputError, match="side"):
            split(make_corpus(rows), 0.2, seed=0)

    def test_order_preserved_within_halves(self):
        corpus = self.corpus()
        train, test = split(corpus, 0.25, seed=5)
        pos = {sid: i for i, sid in enumerate(corpus.ids())}
        assert train.ids() == sorted(train.ids(), key=pos.__getitem__)
        assert test.ids() == sorted(test.ids(), key=pos.__getitem__)
