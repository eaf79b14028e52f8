"""Corpus layer: tokenization, loading, vocabulary, weights, splits."""

import dataclasses
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from weakbias.corpus import (
    ClassWeights,
    Corpus,
    SideLabel,
    build_vocabulary,
    class_weights,
    load_corpus,
    row_block,
    save_corpus,
    split,
    tokenize,
    truncate_sentences,
    vocabulary_from_counts,
)
from weakbias.doc2vec import load_embeddings, save_embeddings
from weakbias.errors import InputError
from weakbias.synthetic import SyntheticSpec, make_synthetic

from helpers import make_corpus, make_sample


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

    @pytest.mark.parametrize("dim", [0, -1, 2.5, "3", True, None])
    def test_bad_feature_dim_names_the_header(self, tmp_path, dim):
        header = json.dumps({"format": "weakbias-corpus", "version": 1, "feature_dim": dim})
        path = self.write(tmp_path, [header, self.record("x", [1.0])])
        with pytest.raises(InputError, match="^line 1: feature_dim must be a positive integer"):
            load_corpus(path)

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2, None])
    def test_bad_version_names_the_value(self, tmp_path, version):
        """JSON true equals 1 and 1.0 too; the version must be the integer 1."""
        header = json.dumps({"format": "weakbias-corpus", "version": version, "feature_dim": 1})
        path = self.write(tmp_path, [header, self.record("x", [1.0])])
        with pytest.raises(InputError, match=f"^line 1: unsupported version {version!r}$"):
            load_corpus(path)

    def test_header_int_over_the_digit_limit_is_an_input_error(self, tmp_path):
        """json.loads raises ValueError, not JSONDecodeError, on an integer
        of more digits than int() reads."""
        header = '{"format": "weakbias-corpus", "version": 1, "feature_dim": %s}' % ("1" * 5000)
        path = self.write(tmp_path, [header, self.record("x", [1.0])])
        with pytest.raises(InputError, match="^line 1: header is not valid JSON: .*digits"):
            load_corpus(path)

    def test_header_only_corpus_is_empty(self, tmp_path):
        corpus = load_corpus(self.write(tmp_path, [self.header()]))
        assert len(corpus) == 0

    def test_feature_length_mismatch_names_sample(self, tmp_path):
        path = self.write(tmp_path, [self.header(), self.record("bad1", [1.0, 2.0])])
        with pytest.raises(InputError, match="^line 2: sample 'bad1': feature length 2"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("topics", "guns", "topics must be a list of strings"),
            ("topics", ["guns", 3], "topics must be a list of strings"),
            ("text", ["a"], "text must be a string"),
            ("source", 5, "source must be a string"),
            ("side", "C", "side must be 'L' or 'R'"),
            ("feature", 1.0, "feature is not a list of numbers"),
        ],
    )
    def test_record_errors_name_line_and_sample(self, tmp_path, key, value, message):
        record = json.loads(self.record("bad", [1.0, 2.0, 3.0]))
        record[key] = value
        path = self.write(
            tmp_path,
            [self.header(), self.record("ok", [1, 2, 3]), "", json.dumps(record)],
        )
        with pytest.raises(InputError, match=f"^line 4: sample 'bad': {message}"):
            load_corpus(path)

    def test_first_bad_line_is_named(self, tmp_path):
        """A non-finite feature is found once per file, yet a structural
        error on a later line does not hide it."""
        lines = [
            self.header(),
            self.record("a", [1, 2, 3]),
            self.record("b", [1.0, float("nan"), 3.0]),
            self.record("c", [1, 2, 3]),
            self.record("a", [1, 2, 3]),
        ]
        with pytest.raises(InputError, match="^line 3: sample 'b': feature has NaN"):
            load_corpus(self.write(tmp_path, lines))
        with pytest.raises(InputError, match="^line 3: sample 'b': feature has NaN"):
            load_corpus(self.write(tmp_path, lines[:4] + ["{not json"]))
        with pytest.raises(InputError, match="^line 4: duplicate id 'a', first on line 2"):
            load_corpus(self.write(tmp_path, lines[:2] + lines[3:]))

    def test_features_are_rows_of_one_block(self, tmp_path):
        records = [self.record(f"x{i}", [i, -i, 0.5]) for i in range(200)]
        corpus = load_corpus(self.write(tmp_path, [self.header()] + records))
        block = corpus[0].feature.base
        assert block.shape == (200, 3) and block.dtype == np.float32
        assert all(s.feature.base is block for s in corpus)
        assert np.array_equal(block, [[i, -i, 0.5] for i in range(200)])

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

    def test_equal_topics_and_sources_share_one_object(self, tmp_path):
        """Within one load, samples with equal topic lists (in any order)
        hold one frozenset and samples with equal sources one string; a
        second load of the file shares neither with the first."""
        rows = [(f"x{i}", [float(i), 0.5, -1.0], ("L", "R")[i % 2]) for i in range(6)]
        topics = [["guns", "law"], ["law", "guns"], ["tax"]]
        lines = [self.header()] + [
            json.dumps({"id": sid, "source": f"outlet-{i % 2}", "side": side,
                        "topics": topics[i % 3], "text": "some words",
                        "feature": feature})
            for i, (sid, feature, side) in enumerate(rows)
        ]
        path = self.write(tmp_path, lines)
        first, second = load_corpus(path), load_corpus(path)
        for corpus in (first, second):
            assert {s.topics for s in corpus} == {frozenset({"guns", "law"}), frozenset({"tax"})}
            assert len({id(s.topics) for s in corpus}) == 2
            assert len({id(s.source) for s in corpus}) == 2
        assert not {id(s.topics) for s in first} & {id(s.topics) for s in second}
        assert not {id(s.source) for s in first} & {id(s.source) for s in second}

    @pytest.mark.parametrize(
        "feature, message",
        [
            ('[1.0, "1.5", 3.0]', "line 3: sample 'bad': feature is not a list of numbers"),
            ("[1.0, true, 3.0]", "line 3: sample 'bad': feature is not a list of numbers"),
            ("[1.0, null, 3.0]", "line 3: sample 'bad': feature is not a list of numbers"),
            ("[[1.0], 2.0, 3.0]", "line 3: sample 'bad': feature is not a list of numbers"),
            ("[1.0, " + "9" * 400 + ", 3.0]", "line 3: sample 'bad': feature has NaN or entries outside"),
            ("[1.0, -" + "9" * 400 + ", 3.0]", "line 3: sample 'bad': feature has NaN or entries outside"),
            ("[1.0, " + "9" * 5000 + ", 3.0]", "line 3: sample 'bad': feature has NaN or entries outside"),
            ("[1.0, 1e400, 3.0]", "line 3: sample 'bad': feature has NaN or entries outside"),
        ],
        ids=["string", "true", "null", "nested-list", "int-400-digits",
             "negative-int-400-digits", "int-5000-digits", "1e400"],
    )
    def test_bad_features_name_line_and_sample(self, tmp_path, feature, message):
        """Only JSON numbers are features; an integer too long for int()
        reads as inf and fails the float32 range check like 1e400 does."""
        line = self.record("bad", [0.0, 0.0, 0.0]).replace("[0.0, 0.0, 0.0]", feature)
        path = self.write(tmp_path, [self.header(), self.record("ok", [1, 2, 3]), line])
        with pytest.raises(InputError, match=message):
            load_corpus(path)

    def test_numeric_source_rejected(self, tmp_path):
        line = self.record("bad", [1, 2, 3]).replace('"outlet"', "5")
        path = self.write(tmp_path, [self.header(), line])
        with pytest.raises(InputError, match="sample 'bad': source must be a string"):
            load_corpus(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1e39])
    def test_save_rejects_a_non_finite_feature(self, tmp_path, bad):
        """Nothing is written: neither a new file nor over an old one."""
        corpus = Corpus(3, [
            make_sample("ok", "a b", SideLabel.LEFT, feature=[1.0, 2.0, 3.0], dim=3),
            make_sample("nan1", "a b", SideLabel.RIGHT, feature=[1.0, 2.0, 3.0], dim=3),
        ])
        corpus[1].feature = np.array([1.0, bad, 3.0])
        path = tmp_path / "c.jsonl"
        with pytest.raises(InputError, match="sample 'nan1': feature has non-finite"):
            save_corpus(corpus, str(path))
        assert not list(tmp_path.iterdir())
        path.write_text("old", encoding="utf-8")
        with pytest.raises(InputError, match="sample 'nan1'"):
            save_corpus(corpus, str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]
        assert path.read_text(encoding="utf-8") == "old"

    def test_save_rejects_a_feature_of_the_wrong_length(self, tmp_path):
        corpus = Corpus(3, [make_sample("short", "a b", SideLabel.LEFT, dim=2)])
        path = tmp_path / "c.jsonl"
        with pytest.raises(InputError, match="sample 'short': feature length 2"):
            save_corpus(corpus, str(path))
        assert not list(tmp_path.iterdir())

    def test_integral_and_negative_zero_components_are_floats(self, tmp_path):
        line = self.record("x", [0.0, 0.0, 0.0]).replace("[0.0, 0.0, 0.0]", "[-0, 2, 3]")
        feature = load_corpus(self.write(tmp_path, [self.header(), line])).sample("x").feature
        assert feature.dtype == np.float32
        assert feature.tolist() == [0.0, 2.0, 3.0] and np.signbit(feature[0])


_F32 = np.finfo(np.float32)
_EDGES = [0.0, -0.0, _F32.smallest_subnormal, -_F32.smallest_subnormal,
          _F32.tiny, -_F32.tiny, _F32.max, -_F32.max, 1.0, -2.0, 16777216.0]


def _feature_corpus(rows):
    rows = np.asarray(rows, dtype=np.float32)
    samples = [
        make_sample(f"s{i}", "a few words", SideLabel.LEFT if i % 2 else SideLabel.RIGHT,
                    topics=("t",), feature=row)
        for i, row in enumerate(rows)
    ]
    return Corpus(rows.shape[1], samples)


def _corpus_file(path):
    corpus = make_corpus([("a", "one two", SideLabel.LEFT), ("b", "three", SideLabel.RIGHT)])
    save_corpus(corpus, path)
    return lambda p: [(s.id, s.source, s.side, s.topics, s.raw_text, s.feature.tobytes())
                      for s in load_corpus(p)]


def _sidecar_file(path):
    save_embeddings({"a": [0.5, -1.25e-3], "b": [1e30, -0.0]}, path)
    return lambda p: [(key, row.tobytes()) for key, row in load_embeddings(p).items()]


class TestLineEndings:
    """Lines end at LF: a bare CR between JSON tokens is whitespace, and a
    CRLF file loads to the arrays of the LF one."""

    @pytest.mark.parametrize("write", [_corpus_file, _sidecar_file], ids=["corpus", "sidecar"])
    @pytest.mark.parametrize("edit", [
        lambda lf: lf.replace(b'{"id": ', b'{"id":\r ').replace(b", ", b",\r"),
        lambda lf: lf.replace(b"\n", b"\r\n"),
    ], ids=["bare-cr-between-tokens", "crlf"])
    def test_loads_as_the_lf_file(self, tmp_path, write, edit):
        lf, edited = tmp_path / "lf.jsonl", tmp_path / "edited.jsonl"
        load = write(str(lf))
        edited.write_bytes(edit(lf.read_bytes()))
        assert edited.read_bytes().count(b"\r") >= 2
        assert load(str(edited)) == load(str(lf))

    def test_crlf_corpus_round_trips(self, tmp_path):
        """A CRLF corpus, loaded and saved, is the LF file save_corpus wrote."""
        lf, crlf, again = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl", tmp_path / "again.jsonl"
        _corpus_file(str(lf))
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        save_corpus(load_corpus(str(crlf)), str(again))
        assert again.read_bytes() == lf.read_bytes()


class TestFeatureRoundTrip:
    """Features are written with 9 significant digits, which is exact for
    float32; files with the 17-digit float64 repr load to the same arrays."""

    @given(
        arrays(
            np.float32,
            st.tuples(st.integers(1, 6), st.integers(1, 9)),
            elements=st.floats(width=32, allow_nan=False, allow_infinity=False)
            | st.sampled_from(_EDGES),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_save_then_load_is_bit_exact(self, tmp_path_factory, matrix):
        path = str(tmp_path_factory.mktemp("rt") / "c.jsonl")
        save_corpus(_feature_corpus(matrix), path)
        loaded = load_corpus(path).features()
        assert np.array_equal(loaded.view(np.uint32), matrix.view(np.uint32))

    def test_parent_format_loads_to_the_same_arrays(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = np.concatenate([
            np.array([_EDGES], dtype=np.float32),
            rng.normal(size=(20, len(_EDGES))).astype(np.float32),
            rng.integers(0, 2**32, size=(200, len(_EDGES)), dtype=np.uint32)
            .view(np.float32),
        ])
        rows = rows[np.isfinite(rows).all(axis=1)]
        corpus = _feature_corpus(rows)
        old = tmp_path / "old.jsonl"
        header = {"format": "weakbias-corpus", "version": 1, "feature_dim": len(_EDGES)}
        old.write_text("".join(
            json.dumps(record) + "\n"
            for record in [header] + [
                {"id": s.id, "source": s.source, "side": s.side.value,
                 "topics": sorted(s.topics), "text": s.raw_text,
                 "feature": [float(x) for x in s.feature]}
                for s in corpus
            ]
        ), encoding="utf-8")
        new = tmp_path / "new.jsonl"
        save_corpus(corpus, str(new))
        from_old, from_new = load_corpus(str(old)), load_corpus(str(new))
        assert np.array_equal(from_old.features().view(np.uint32), rows.view(np.uint32))
        assert np.array_equal(from_new.features().view(np.uint32), rows.view(np.uint32))
        assert [(s.id, s.source, s.side, s.topics, s.raw_text) for s in from_old] == [
            (s.id, s.source, s.side, s.topics, s.raw_text) for s in from_new
        ]
        assert new.stat().st_size < old.stat().st_size


_IDS = st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from('"\\\ud800'),
               max_size=8)


class TestSidecarRoundTrip:
    """The embeddings sidecar is written and read with the corpus codec: one
    float32 block per file, 9 significant digits per component."""

    @given(st.lists(_IDS, unique=True, max_size=6), st.integers(1, 9), st.data())
    @settings(max_examples=200, deadline=None)
    def test_save_then_load_is_bit_exact(self, tmp_path_factory, ids, dim, data):
        matrix = data.draw(arrays(
            np.float32, (len(ids), dim),
            elements=st.floats(width=32, allow_nan=False, allow_infinity=False)
            | st.sampled_from(_EDGES),
        ))
        path = str(tmp_path_factory.mktemp("rt") / "emb.jsonl")
        save_embeddings(dict(zip(ids, matrix)), path)
        loaded = load_embeddings(path)
        assert list(loaded) == ids
        if ids:
            block = loaded[ids[0]].base
            assert block.shape == (len(ids), dim) and block.dtype == np.float32
            assert all(row.base is block for row in loaded.values())
            assert np.array_equal(block.view(np.uint32), matrix.view(np.uint32))

    def test_parent_format_loads_to_the_same_arrays(self, tmp_path):
        """Sidecars written before this codec hold the float64 repr of each
        component, of float32 or float64 vectors; they load as the previous
        loader read them, np.asarray(values, np.float32) per line."""
        rng = np.random.default_rng(5)
        exact = np.concatenate([
            np.array([_EDGES], dtype=np.float32),
            rng.integers(0, 2**32, size=(200, len(_EDGES)), dtype=np.uint32)
            .view(np.float32),
        ])
        exact = exact[np.isfinite(exact).all(axis=1)].astype(np.float64)
        rows = np.concatenate([exact, rng.normal(size=(20, len(_EDGES)))])
        old = tmp_path / "old.jsonl"
        old.write_text("".join(
            json.dumps({"id": f"d{i}", "embedding": row.tolist()}) + "\n"
            for i, row in enumerate(rows)
        ), encoding="utf-8")
        expected = [np.asarray(row.tolist(), dtype=np.float32) for row in rows]
        from_old = load_embeddings(str(old))
        new = tmp_path / "new.jsonl"
        save_embeddings(from_old, str(new))
        from_new = load_embeddings(str(new))
        for loaded in (from_old, from_new):
            assert list(loaded) == [f"d{i}" for i in range(len(rows))]
            for got, want in zip(loaded.values(), expected):
                assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        assert new.stat().st_size < old.stat().st_size


# Splices for the fuzz tests: bytes that are not UTF-8 (a lone lead,
# continuation and surrogate), nesting beyond the decoder's recursion, and
# line breaks, a lone CR included.
_SPLICES = [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"[" * 100_000, b"{" * 100_000,
            b"\n", b"\r", b"\r\n", b"1e39", b"NaN", b'"']


def _mutate(data: bytes, kind: str, offset: int, flip: int, splice: bytes) -> bytes:
    offset %= len(data) + 1
    if kind == "truncate":
        return data[:offset]
    if kind == "flip" and offset < len(data):
        return data[:offset] + bytes([data[offset] ^ flip]) + data[offset + 1:]
    return data[:offset] + splice + data[offset:]


_MUTATIONS = st.tuples(
    st.sampled_from(["truncate", "flip", "splice"]),
    st.integers(0, 10**6),
    st.integers(1, 255),
    st.sampled_from(_SPLICES),
)


class TestFloatRowFuzz:
    """Both float-row JSONL files, mutated by truncation, a flipped byte or a
    spliced-in non-UTF-8 byte, deep nesting or line break: loading either
    raises InputError or gives a value that saves and reloads to itself."""

    def mutated(self, tmp_path_factory, data, mutations):
        path = tmp_path_factory.mktemp("fuzz") / "in.jsonl"
        for mutation in mutations:
            data = _mutate(data, *mutation)
        path.write_bytes(data)
        return str(path)

    @given(st.lists(_MUTATIONS, min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_corpus(self, tmp_path_factory, mutations):
        clean = tmp_path_factory.mktemp("clean") / "c.jsonl"
        corpus = _feature_corpus([[0.5, -1.25e-3, 3.0], [1e30, -0.0, 7.0], [2.0, 1.5, -4.0]])
        corpus.samples[0].raw_text = "caf\u00e9 \u2014 one"
        save_corpus(corpus, str(clean))
        data = clean.read_text().replace("\\u00e9", "\u00e9").encode("utf-8")
        path = self.mutated(tmp_path_factory, data, mutations)
        try:
            loaded = load_corpus(path)
        except InputError:
            return
        save_corpus(loaded, path + ".again")
        again = load_corpus(path + ".again")
        fields = [(s.id, s.source, s.side, s.topics, s.raw_text) for s in loaded]
        assert [(s.id, s.source, s.side, s.topics, s.raw_text) for s in again] == fields
        assert again.feature_dim == loaded.feature_dim
        assert np.array_equal(again.features().view(np.uint32),
                              loaded.features().view(np.uint32))

    @given(st.lists(_MUTATIONS, min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_embeddings(self, tmp_path_factory, mutations):
        clean = tmp_path_factory.mktemp("clean") / "e.jsonl"
        save_embeddings({"a": [0.5, -1.25e-3, 3.0], "b\u00e9": [1e30, -0.0, 7.0],
                         "c": [2.0, 1.5, -4.0]}, str(clean))
        data = clean.read_text().replace("\\u00e9", "\u00e9").encode("utf-8")
        path = self.mutated(tmp_path_factory, data, mutations)
        try:
            loaded = load_embeddings(path)
        except InputError:
            return
        save_embeddings(loaded, path + ".again")
        again = load_embeddings(path + ".again")
        assert list(again) == list(loaded)
        for key, row in loaded.items():
            assert np.array_equal(again[key].view(np.uint32), row.view(np.uint32))


_TEXTS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)) | st.sampled_from("#_.,!?'-# \n"),
    max_size=60,
)


class TestLazyTokens:
    """Loading does not tokenize; Sample.tokens is derived on first use."""

    @given(st.lists(_TEXTS, min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_loaded_tokens_are_tokenized_text(self, tmp_path_factory, texts):
        corpus = Corpus(2, [
            make_sample(f"s{i}", text, SideLabel.LEFT, dim=2) for i, text in enumerate(texts)
        ])
        path = str(tmp_path_factory.mktemp("tok") / "c.jsonl")
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert [s.raw_text for s in loaded] == texts
        assert not any("tokens" in vars(s) for s in loaded)
        assert [s.tokens for s in loaded] == [tokenize(t) for t in texts]

    def test_tokens_are_computed_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "weakbias.corpus.tokenize", lambda text: calls.append(text) or text.split()
        )
        sample = make_sample("a", "one two", SideLabel.LEFT)
        assert calls == []
        assert sample.tokens == ["one", "two"]
        assert sample.tokens is sample.tokens
        assert calls == ["one two"]

    def test_replace_with_and_without_tokens(self):
        sample = make_sample("a", "Old text here.", SideLabel.LEFT)
        assert sample.tokens == ["old", "text", "here"]
        given_tokens = ["kept", "as", "given"]
        kept = dataclasses.replace(sample, raw_text="New #Text!", tokens=given_tokens)
        assert kept.tokens is given_tokens
        fresh = dataclasses.replace(sample, raw_text="New #Text!")
        assert fresh.tokens == ["new", "#text"]
        assert dataclasses.replace(sample, id="b").tokens == sample.tokens
        assert sample.tokens == ["old", "text", "here"]


class TestUndecodableInput:
    """A corpus that is not UTF-8 text, or whose JSON nests deeper than the
    decoder recurses, is refused with an InputError, never another error."""

    @given(
        st.integers(0, 10**6),
        st.sampled_from([b"\xff", b"\xfe", b"\xc0", b"\x80", b"\xc3", b"\xed\xa0\x80"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_a_non_utf8_byte_anywhere_is_an_input_error(
        self, tmp_path_factory, offset, bad
    ):
        path = tmp_path_factory.mktemp("utf8") / "c.jsonl"
        save_corpus(make_corpus([
            ("a", "caf\u00e9 one", SideLabel.LEFT), ("b", "two \u2014 three", SideLabel.RIGHT),
        ]), str(path))
        # Multi-byte characters as raw UTF-8, so a byte can land inside one.
        data = path.read_text().replace("\\u00e9", "\u00e9").replace("\\u2014", "\u2014")
        data = data.encode("utf-8")
        offset %= len(data) + 1
        path.write_bytes(data[:offset] + bad + data[offset:])
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            load_corpus(str(path))

    def test_deep_nesting_names_the_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus(make_corpus([("a", "one", SideLabel.LEFT)]), str(path))
        deep = "[" * 100_000 + "]" * 100_000
        path.write_text(path.read_text() + deep + "\n")
        with pytest.raises(InputError, match="^line 3: JSON nested too deeply"):
            load_corpus(str(path))
        path.write_text(deep + "\n")
        with pytest.raises(InputError, match="^line 1: header JSON is nested too deeply"):
            load_corpus(str(path))


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


class TestFeatures:
    def test_stacks_float32_rows_in_order(self, small_corpus):
        features = small_corpus.features()
        assert features.dtype == np.float32
        np.testing.assert_array_equal(
            features, np.stack([s.feature for s in small_corpus])
        )

    def test_float64_sample_comes_back_float32(self):
        corpus = make_corpus([("a", "x", SideLabel.LEFT), ("b", "y", SideLabel.RIGHT)])
        corpus.samples[1].feature = np.array([0.1, 0.2, 0.3, 1e-40])
        features = corpus.features()
        assert features.dtype == np.float32
        np.testing.assert_array_equal(
            features[1], np.array([0.1, 0.2, 0.3, 1e-40], dtype=np.float32)
        )

    @staticmethod
    def loaded(tmp_path, corpus):
        path = str(tmp_path / "corpus.jsonl")
        save_corpus(corpus, path)
        return load_corpus(path)

    def test_loaded_corpus_features_are_its_read_only_block(self, tmp_path, small_corpus):
        """A load_corpus result's features() is the file's block, shared
        with every sample's row and read-only, with the bits of their
        stack."""
        loaded = self.loaded(tmp_path, small_corpus)
        features = loaded.features()
        assert not features.flags.writeable
        assert all(np.shares_memory(features[i], s.feature) for i, s in enumerate(loaded))
        stacked = np.stack([s.feature for s in loaded])
        assert features.dtype == np.float32 and features.tobytes() == stacked.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            features[0, 0] = 1.0

    def test_other_corpora_get_a_fresh_writable_stack(self, tmp_path):
        """A subset, both split halves, a pickled copy, a make_synthetic
        corpus, and loaded corpora whose samples were reversed in place or
        one of whose features was replaced: each features() is a new
        writable array equal to the stack."""
        synthetic = make_synthetic(SyntheticSpec(n_samples=20, seed=4))
        loaded = self.loaded(tmp_path, synthetic)
        reversed_in_place = self.loaded(tmp_path, synthetic)
        reversed_in_place.samples.reverse()
        replaced = self.loaded(tmp_path, synthetic)
        replaced[3].feature = replaced[3].feature.copy()
        corpora = [
            synthetic,
            loaded.subset(loaded.ids()[:7]),
            *split(loaded, 0.25, seed=1),
            pickle.loads(pickle.dumps(loaded)),
            reversed_in_place,
            replaced,
        ]
        for corpus in corpora:
            features = corpus.features()
            assert features.flags.writeable
            assert not any(np.shares_memory(features, s.feature) for s in corpus)
            stacked = np.stack([s.feature for s in corpus])
            assert features.tobytes() == stacked.tobytes()
            assert corpus.finite_features().tobytes() == stacked.tobytes()

    def test_finite_features_of_a_block_names_the_first_bad_sample(self, tmp_path, small_corpus):
        """finite_features() of a loaded corpus is its block; a non-finite
        value written into two of its rows names the first of them, and a
        corpus declaring another feature_dim names its first sample as
        before."""
        loaded = self.loaded(tmp_path, small_corpus)
        assert np.shares_memory(loaded.finite_features(), loaded[0].feature)
        loaded[3].feature[0] = np.inf
        loaded[1].feature[2] = np.nan
        with pytest.raises(InputError, match=r"^sample 'a2': feature has non-finite entries$"):
            loaded.finite_features()
        wider = Corpus(loaded.feature_dim + 1, loaded.samples)
        with pytest.raises(InputError, match="sample 'a1': feature length 4 does not match "
                                             "declared feature_dim 5"):
            wider.finite_features()


class TestRowBlock:
    # The rows' base is the array that owns their memory; a reshaped arange
    # would be a view, so np.array copies it into a block of its own.
    def test_rows_of_one_block_in_order_give_it_read_only(self):
        block = np.array(np.arange(12).reshape(4, 3), dtype=np.float32)
        view = row_block(list(block))
        assert view is not None and not view.flags.writeable
        assert np.shares_memory(view, block) and view.tobytes() == block.tobytes()

    def test_any_other_list_gives_none(self):
        """Rows out of order, repeated, fewer than the block's, parts of
        rows, rows of a float64 block, of another dtype's view of a float32
        block or of a Fortran-ordered block, rows of two blocks, rows of no
        block, and no rows."""
        block = np.arange(12, dtype=np.float32).reshape(4, 3)
        rows = list(block)
        cases = [
            rows[::-1],
            [rows[0], rows[0], rows[2], rows[3]],
            rows[:3],
            [row[:2] for row in rows],
            list(block.astype(np.float64)),
            list(block.view(np.int32)),
            list(np.asfortranarray(block)),
            rows[:2] + list(block.copy())[2:],
            [row.copy() for row in rows],
            [],
        ]
        for i, case in enumerate(cases):
            assert row_block(case) is None, i

