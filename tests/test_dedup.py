"""Exact radius join, duplicate clustering and the distance histogram."""

import json
import os
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import feature_corpus, planted_duplicate_corpus
from weakbias.cli import EXIT_INPUT, main
from weakbias.corpus import SideLabel, load_corpus, save_corpus
from weakbias.dedup import (
    DuplicateCluster,
    _knn_distances,
    cluster_duplicates,
    deduplicate,
    knn_distance_histogram,
    save_cluster_report,
    select_canonical,
)
from weakbias.errors import InputError


def exact_distances(x, i):
    """Squared distances from row i to every row, summed in float64."""
    x = np.asarray(x, dtype=np.float64)
    return ((x - x[i]) ** 2).sum(axis=1)


def brute_knn(vectors, query_idx, k):
    """The k smallest exact squared distances from a row to the others."""
    return np.sort(np.delete(exact_distances(vectors, query_idx), query_idx))[:k]


def brute_force_clusters(corpus, threshold):
    """Union-find over a full scan of exact squared distances, mapping each
    component of two or more to its canonical id."""
    x = corpus.features()
    parent = list(range(len(corpus)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(corpus)):
        for j in np.nonzero(exact_distances(x, i) <= threshold)[0]:
            parent[find(i)] = find(int(j))
    components = {}
    for i, sid in enumerate(corpus.ids()):
        components.setdefault(find(i), []).append(sid)
    return {
        frozenset(members): select_canonical(members, corpus)
        for members in components.values()
        if len(members) >= 2
    }


@st.composite
def radius_inputs(draw):
    """Float32 rows with exact and jittered copies of other rows, at scales
    from float32 underflow to float32 overflow of the squared norms, some
    far from the origin relative to their spread, and a threshold that is
    0, a copied pair's exact distance, one float step either side of it,
    or a random fraction of twice it."""
    n = draw(st.integers(0, 200))
    dim = draw(st.integers(1, 8))
    scale = draw(st.sampled_from([1e-30, 1e-3, 1.0, 1e3, 1e19]))
    offset = draw(st.sampled_from([0.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = ((rng.normal(size=(n, dim)) + offset) * scale).astype(np.float32)
    copies = draw(st.integers(0, n // 2))
    src, dst = rng.integers(n, size=copies), rng.integers(n, size=copies)
    jitter = draw(st.sampled_from([0.0, 1e-6, 1e-2])) * scale
    x[dst] = x[src] + (rng.normal(size=(copies, dim)) * jitter).astype(np.float32)
    how = draw(st.sampled_from(["zero", "at", "below", "above", "random"]))
    if how == "zero" or copies == 0 or src[0] == dst[0]:
        return x, 0.0
    at = float(exact_distances(x, src[0])[dst[0]])
    threshold = {
        "at": at,
        "below": np.nextafter(at, 0.0),
        "above": np.nextafter(at, np.inf),
        "random": at * 2.0 * rng.random(),
    }[how]
    return x, float(threshold)


class TestRadiusJoin:
    @given(case=radius_inputs())
    @example(case=(np.zeros((0, 3), np.float32), 1.0))
    @example(case=(np.ones((1, 3), np.float32), 1.0))
    @example(case=(np.zeros((128, 2), np.float32), 0.0))
    @example(case=(np.repeat(np.eye(3, dtype=np.float32), 43, axis=0), 0.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_oracle(self, case):
        """Member sets, canonical ids and order equal a full float64 scan,
        across several row blocks and at the threshold's last float step."""
        vectors, threshold = case
        corpus = feature_corpus(vectors)
        clusters = cluster_duplicates(corpus, threshold)
        got = {c.member_ids: c.canonical_id for c in clusters}
        assert got == brute_force_clusters(corpus, threshold)
        keys = [min(c.member_ids) for c in clusters]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_sample(self, bad):
        vectors = np.zeros((3, 4), dtype=np.float32)
        vectors[1, 2] = bad
        corpus = feature_corpus(vectors, ids=["a", "b", "c"])
        with pytest.raises(InputError, match="'b'"):
            cluster_duplicates(corpus, 1.0)
        with pytest.raises(InputError, match="'b'"):
            knn_distance_histogram(corpus)


class TestKnn:
    """The exact k-nearest kernel behind the distance histogram."""

    def test_matches_full_scan_when_ef_covers_corpus(self):
        """There is no search beam to evict from: every query's answer is the
        full scan's, across several row blocks."""
        rng = np.random.default_rng(7)
        n, k = 150, 10
        vectors = rng.normal(size=(n, 16)).astype(np.float32)
        queries = np.arange(0, n, 7)
        got = _knn_distances(vectors, queries, k).reshape(len(queries), k)
        for qi, row in zip(queries, got):
            np.testing.assert_allclose(row, brute_knn(vectors, qi, k), rtol=1e-12)

    def test_recall_at_ten_on_gaussian_cloud(self):
        """Every true 10-NN distance is recovered on an isotropic cloud, the
        regime the histogram runs in."""
        rng = np.random.default_rng(11)
        n = 2000
        vectors = rng.normal(size=(n, 32)).astype(np.float32)
        queries = rng.choice(n, size=200, replace=False)
        got = _knn_distances(vectors, queries, 10).reshape(len(queries), 10)
        want = np.stack([brute_knn(vectors, qi, 10) for qi in queries])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_excludes_query_and_breaks_ties_by_id(self):
        """The query's own row is left out by index, not by distance, so
        identical rows still count as neighbours at distance 0."""
        identical = np.zeros((3, 4), dtype=np.float32)
        assert _knn_distances(identical, np.array([2]), 2).tolist() == [0.0, 0.0]
        line = np.array([[0.0], [1.0], [3.0]], dtype=np.float32)
        assert _knn_distances(line, np.array([0, 2]), 1).tolist() == [1.0, 4.0]

    def test_empty_index_returns_nothing(self):
        vectors = np.eye(4, dtype=np.float32)
        assert _knn_distances(vectors, np.zeros(0, dtype=np.int64), 2).size == 0


class TestCanonical:
    def test_majority_side_wins(self):
        corpus = feature_corpus(
            np.zeros((4, 4)),
            sides=[SideLabel.LEFT, SideLabel.RIGHT, SideLabel.RIGHT, SideLabel.RIGHT],
            ids=["a", "b", "c", "d"],
        )
        assert select_canonical(["a", "b", "c", "d"], corpus) == "b"

    def test_side_tie_falls_back_to_lowest_id(self):
        corpus = feature_corpus(
            np.zeros((4, 4)),
            sides=[SideLabel.LEFT, SideLabel.RIGHT, SideLabel.LEFT, SideLabel.RIGHT],
            ids=["a", "b", "c", "d"],
        )
        assert select_canonical({"a", "b", "c", "d"}, corpus) == "a"

    def test_lowest_id_within_winning_side(self):
        corpus = feature_corpus(
            np.zeros((3, 4)),
            sides=[SideLabel.RIGHT, SideLabel.LEFT, SideLabel.RIGHT],
            ids=["p", "q", "r"],
        )
        assert select_canonical(["r", "q", "p"], corpus) == "p"

    def test_empty_cluster_rejected(self):
        corpus = feature_corpus(np.zeros((1, 4)))
        with pytest.raises(InputError, match="empty"):
            select_canonical([], corpus)


@pytest.fixture(scope="module")
def planted():
    return planted_duplicate_corpus(
        n_groups=10, group_size=3, n_singletons=60, dim=16, seed=4
    )


class TestClustering:

    def test_recovers_planted_groups_exactly(self, planted):
        corpus, groups = planted
        clusters = cluster_duplicates(corpus, 1.0)
        assert {c.member_ids for c in clusters} == set(groups)

    def test_clusters_sorted_by_lowest_member(self, planted):
        corpus, _ = planted
        clusters = cluster_duplicates(corpus, 1.0)
        keys = [min(c.member_ids) for c in clusters]
        assert keys == sorted(keys)

    def test_zero_threshold_keeps_only_exact_copies(self):
        vectors = np.array(
            [[0, 0], [0, 0], [0, 1e-4], [3, 3]], dtype=np.float32
        )
        corpus = feature_corpus(vectors, ids=["a", "b", "c", "d"])
        clusters = cluster_duplicates(corpus, 0.0)
        assert [c.member_ids for c in clusters] == [frozenset({"a", "b"})]

    def test_negative_threshold_rejected(self):
        corpus = feature_corpus(np.zeros((2, 4)))
        with pytest.raises(InputError, match="threshold"):
            cluster_duplicates(corpus, -0.5)
        with pytest.raises(InputError, match="threshold"):
            cluster_duplicates(corpus, float("nan"))

    def test_empty_corpus(self):
        corpus = feature_corpus(np.zeros((0, 4)))
        assert cluster_duplicates(corpus, 1.0) == []


class TestDeduplicate:
    def test_keeps_one_canonical_per_group(self):
        corpus, groups = planted_duplicate_corpus(
            n_groups=6, group_size=4, n_singletons=30, dim=16, seed=9
        )
        reduced, clusters = deduplicate(corpus, 1.0)
        assert len(reduced) == len(corpus) - sum(len(g) - 1 for g in groups)
        for cluster in clusters:
            survivors = [m for m in cluster.member_ids if m in reduced]
            assert survivors == [cluster.canonical_id]

    def test_preserves_corpus_order(self):
        corpus, _ = planted_duplicate_corpus(
            n_groups=4, group_size=2, n_singletons=20, dim=16, seed=9
        )
        reduced, _ = deduplicate(corpus, 1.0)
        kept = set(reduced.ids())
        assert reduced.ids() == [sid for sid in corpus.ids() if sid in kept]

    def test_second_pass_is_a_no_op(self):
        corpus, _ = planted_duplicate_corpus(
            n_groups=6, group_size=3, n_singletons=30, dim=16, seed=9
        )
        once, _ = deduplicate(corpus, 1.0)
        twice, clusters = deduplicate(once, 1.0)
        assert clusters == []
        assert twice.ids() == once.ids()

    def test_report_round_trip(self, tmp_path):
        corpus, _ = planted_duplicate_corpus(
            n_groups=3, group_size=3, n_singletons=10, dim=16, seed=9
        )
        _, clusters = deduplicate(corpus, 1.0)
        path = tmp_path / "clusters.jsonl"
        save_cluster_report(clusters, str(path), corpus)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == len(clusters)
        for row, cluster in zip(rows, clusters):
            assert row["canonical"] == cluster.canonical_id
            assert row["members"] == sorted(cluster.member_ids)
            assert row["side_counts"]["L"] + row["side_counts"]["R"] == len(
                cluster.member_ids
            )


class TestHistogram:
    def test_counts_cover_all_sampled_edges(self):
        corpus, _ = planted_duplicate_corpus(
            n_groups=4, group_size=3, n_singletons=20, dim=16, seed=6
        )
        counts, edges = knn_distance_histogram(
            corpus, k=5, sample_size=16, bins=12, seed=1
        )
        assert counts.sum() == 16 * 5
        assert len(edges) == 13
        # duplicate pairs put mass well below the background distances
        assert edges[0] < 0.2

    @pytest.mark.parametrize("sample_size,offset", [(150, 0.0), (40, 0.0), (150, 1e3)])
    def test_matches_brute_force_histogram(self, sample_size, offset):
        """Exact copies count at distance 0; only the query's own row is
        left out. Queries are drawn as rng.choice without replacement. Far
        from the origin, float32 rounding reorders the neighbours."""
        rng = np.random.default_rng(3)
        vectors = (rng.normal(size=(150, 8)) + offset).astype(np.float32)
        vectors[10:20] = vectors[:10]
        corpus = feature_corpus(vectors)
        k, seed = 7, 5
        counts, edges = knn_distance_histogram(
            corpus, k=k, sample_size=sample_size, bins=20, seed=seed
        )
        queries = range(150)
        if sample_size < 150:
            queries = np.random.default_rng(seed).choice(150, sample_size, replace=False)
        nearest = [np.sort(np.delete(exact_distances(vectors, q), q))[:k] for q in queries]
        want_counts, want_edges = np.histogram(np.concatenate(nearest), bins=20)
        np.testing.assert_array_equal(counts, want_counts)
        np.testing.assert_array_equal(edges, want_edges)
        assert edges[0] == 0.0

    def test_k_is_capped_at_the_other_rows(self):
        corpus = feature_corpus(np.eye(3))
        counts, _ = knn_distance_histogram(corpus, k=10, bins=4)
        assert counts.sum() == 3 * 2

    def test_requires_two_samples(self):
        corpus = feature_corpus(np.zeros((1, 4)))
        with pytest.raises(InputError, match="two samples"):
            knn_distance_histogram(corpus)

    def test_rejects_k_below_one(self):
        with pytest.raises(InputError, match="k must be"):
            knn_distance_histogram(feature_corpus(np.zeros((2, 4))), k=0)


def run_dedup(corpus, out, report=None, threshold=0.5):
    argv = ["dedup", "--corpus", corpus, "--threshold", threshold, "--out", out]
    if report is not None:
        argv += ["--report", report]
    return main([str(a) for a in argv])


def assert_same_samples(got, expected):
    """Every field equal and every feature bit-equal, in the same order."""
    assert got.feature_dim == expected.feature_dim
    assert got.ids() == expected.ids()
    for a, b in zip(got, expected):
        assert (a.side, a.source, a.topics, a.raw_text) == (b.side, b.source, b.topics, b.raw_text)
        assert a.feature.tobytes() == b.feature.tobytes()


# Spellings of one JSON number that load_corpus reads; save_corpus writes
# only the third.
_SPELLINGS = [
    repr,
    lambda v: "%.17g" % v,
    lambda v: "%.9g" % np.float32(v),
    lambda v: str(int(v)) if v.is_integer() else repr(v),
    lambda v: "%.3E" % v,
]
_VALUES = [0.0, -0.0, 1.0, 0.1, 1 / 3, -2.5, 1e-40, 16777217.0]


@st.composite
def hand_written_corpus(draw):
    """A corpus file as another tool could write it: features in any number
    spelling, keys in any order, extra keys, duplicate or unsorted topics,
    raw or escaped non-ASCII text, blank lines, LF or CRLF endings, a bare
    CR as whitespace between tokens, and maybe no final newline. Features come from a few rows, so some records
    are duplicates of others."""
    dim = 2
    rows = draw(st.lists(st.tuples(*[st.sampled_from(_VALUES)] * dim), min_size=1, max_size=4))
    header = draw(st.sampled_from([
        {"format": "weakbias-corpus", "version": 1, "feature_dim": dim},
        {"feature_dim": dim, "note": [1, {"a": None}], "version": 1, "format": "weakbias-corpus"},
    ]))
    lines = [json.dumps(header)]
    for i in range(draw(st.integers(1, 8))):
        row = draw(st.sampled_from(rows))
        spell = [draw(st.sampled_from(_SPELLINGS)) for _ in row]
        ascii_only = draw(st.booleans())
        fields = {
            "id": json.dumps(f"s{i}"),
            "source": json.dumps(draw(st.sampled_from(["l0", "r0", "wire"]))),
            "side": json.dumps(draw(st.sampled_from(["L", "R"]))),
            "topics": json.dumps(draw(st.lists(st.sampled_from(["b", "a", "c"]), max_size=4))),
            "text": json.dumps(draw(st.text(max_size=8)), ensure_ascii=ascii_only),
            "feature": "[" + ", ".join(f(v) for f, v in zip(spell, row)) + "]",
        }
        if draw(st.booleans()):
            fields["extra"] = '{"k": [true, null, 1e400]}'
        keys = draw(st.permutations(list(fields)))
        sep = draw(st.sampled_from([": ", ":", ":\r", "\r: "]))
        lines.append("{" + ", ".join(json.dumps(k) + sep + fields[k] for k in keys) + "}")
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    endings = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if draw(st.booleans()):
        endings[-1] = ""
    return "".join(line + end for line, end in zip(lines, endings))


class TestDedupCommandOutput:
    """weakbias dedup writes each kept record as the line it was read from."""

    @given(hand_written_corpus())
    @settings(max_examples=100, deadline=None)
    def test_output_loads_as_the_deduplicated_input(self, tmp_path_factory, text):
        root = tmp_path_factory.mktemp("dedup")
        src, out = root / "in.jsonl", root / "out.jsonl"
        src.write_bytes(text.encode("utf-8"))
        corpus = load_corpus(str(src))
        kept, clusters = deduplicate(corpus, 0.5)
        save_cluster_report(clusters, str(root / "expected.jsonl"), corpus)
        assert run_dedup(src, out, root / "report.jsonl") == 0
        assert_same_samples(load_corpus(str(out)), kept)
        assert (root / "report.jsonl").read_bytes() == (root / "expected.jsonl").read_bytes()
        # Kept records as read, a CR before the LF included, each ended by
        # "\n", under the canonical header. Lines end at LF only, not at a
        # bare CR or the other breaks str.splitlines knows, such as U+0085 in
        # a raw text.
        records = [line for line in text.split("\n")[1:] if line.strip()]
        line_of = {json.loads(line)["id"]: line for line in records}
        header = {"format": "weakbias-corpus", "version": 1, "feature_dim": 2}
        expected = [json.dumps(header)] + [line_of[sid] for sid in kept.ids()]
        assert out.read_bytes() == "".join(line + "\n" for line in expected).encode("utf-8")

    def test_a_save_corpus_file_gives_save_corpus_bytes(self, tmp_path):
        corpus, _ = planted_duplicate_corpus(
            n_groups=4, group_size=3, n_singletons=20, dim=16, seed=9
        )
        src, out, expected = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "e.jsonl"
        save_corpus(corpus, str(src))
        kept, _ = deduplicate(load_corpus(str(src)), 1.0)
        assert len(kept) == len(corpus) - 4 * 2
        save_corpus(kept, str(expected))
        assert run_dedup(src, out, threshold=1.0) == 0
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_its_input_once_from_a_fifo(self, tmp_path):
        corpus, _ = planted_duplicate_corpus(
            n_groups=2, group_size=2, n_singletons=10, dim=8, seed=3
        )
        src, fifo, out = tmp_path / "in.jsonl", tmp_path / "in.fifo", tmp_path / "out.jsonl"
        save_corpus(corpus, str(src))
        os.mkfifo(fifo)
        writer = threading.Thread(
            target=lambda: fifo.write_bytes(src.read_bytes()), daemon=True
        )
        writer.start()
        assert run_dedup(fifo, out, tmp_path / "report.jsonl", threshold=1.0) == 0
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert_same_samples(load_corpus(str(out)), deduplicate(load_corpus(str(src)), 1.0)[0])

    @pytest.mark.parametrize("bad", [
        '{"id": "g000m0", "source": "s", "side": "L", "topics": [], "text": "", '
        '"feature": [0, 0, 0, 0, 0, 0, 0, 0]}',
        '{"id": "new", "source": "s", "side": "L", "topics": [], "text": "", '
        '"feature": [0, 0, 0, 0, 0, 0, 0, 1e39]}',
        '{"id": "new", "source": "s", "side": "L", "topics": [], "text": ""',
    ], ids=["duplicate-id", "non-finite", "truncated"])
    def test_a_bad_last_record_exits_three_and_writes_nothing(self, tmp_path, capsys, bad):
        corpus, _ = planted_duplicate_corpus(
            n_groups=2, group_size=2, n_singletons=10, dim=8, seed=3
        )
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        save_corpus(corpus, str(src))
        src.write_text(src.read_text() + bad)
        assert run_dedup(src, out, tmp_path / "report.jsonl") == EXIT_INPUT
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: input: line {len(corpus) + 2}:") and "\n" not in err
        assert sorted(os.listdir(tmp_path)) == ["in.jsonl"]
