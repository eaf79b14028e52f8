"""Accuracy reports, group breakdowns, and retraining protocols."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import make_corpus, make_sample
from weakbias.corpus import Corpus, SideLabel
from weakbias.errors import InputError
from weakbias.evaluation import (
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

L, R = SideLabel.LEFT, SideLabel.RIGHT


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([L, R, L], [L, R, L]) == 1.0

    def test_none_correct(self):
        assert accuracy([L, L], [R, R]) == 0.0

    def test_three_of_four(self):
        assert accuracy([L, R, L, R], [L, R, L, L]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(InputError, match="empty"):
            accuracy([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError, match="predictions"):
            accuracy([L], [L, R])


class TestGroupAccuracy:
    def test_single_group_reproduces_overall(self):
        report = group_accuracy([L, R, L], [L, R, R], ["src"] * 3)
        assert report.per_group == {"src": (report.overall_accuracy, 3)}

    def test_hand_computed_two_groups(self):
        predictions = [L, L, R, R, R]
        labels = [L, R, R, R, L]
        keys = ["a", "a", "a", "b", "b"]
        report = group_accuracy(predictions, labels, keys)
        assert report.per_group["a"] == (2 / 3, 3)
        assert report.per_group["b"] == (1 / 2, 2)
        assert report.overall_accuracy == 3 / 5

    def test_groups_ordered_by_count_then_key(self):
        keys = ["z", "z", "m", "m", "a"]
        report = group_accuracy([L] * 5, [L] * 5, keys)
        assert list(report.per_group) == ["m", "z", "a"]

    def test_multi_key_samples_count_in_each_group(self):
        keys = [frozenset({"politics", "guns"}), frozenset({"politics"})]
        report = group_accuracy([L, R], [L, L], keys)
        assert report.per_group["politics"] == (1 / 2, 2)
        assert report.per_group["guns"] == (1.0, 1)

    @given(
        st.lists(
            st.tuples(
                st.booleans(), st.booleans(), st.sampled_from(["s1", "s2", "s3"])
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_count_weighted_group_mean_equals_overall(self, rows):
        """When each sample has exactly one key, the count-weighted mean of
        group accuracies is the overall accuracy."""
        predictions = [L if p else R for p, _, _ in rows]
        labels = [L if y else R for _, y, _ in rows]
        keys = [k for _, _, k in rows]
        report = group_accuracy(predictions, labels, keys)
        weighted = sum(acc * n for acc, n in report.per_group.values())
        total = sum(n for _, n in report.per_group.values())
        np.testing.assert_allclose(weighted / total, report.overall_accuracy,
                                   rtol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError, match="group keys"):
            group_accuracy([L], [L], ["a", "b"])


class TestTopK:
    def report(self):
        # counts: big=4, mid=2, small=1
        predictions = [L, L, L, L, R, R, R]
        labels = [L, L, R, R, R, L, L]
        keys = ["big"] * 4 + ["mid"] * 2 + ["small"]
        return group_accuracy(predictions, labels, keys)

    def test_k1_is_largest_group(self):
        assert top_k_source_accuracy(self.report(), 1) == 0.5

    def test_k2_unweighted_mean(self):
        np.testing.assert_allclose(
            top_k_source_accuracy(self.report(), 2), (0.5 + 0.5) / 2
        )

    def test_uniform_accuracy_is_fixed_point(self):
        report = group_accuracy([L] * 6, [L] * 6, ["a", "a", "a", "b", "b", "c"])
        for k in (1, 2, 3):
            assert top_k_source_accuracy(report, k) == 1.0

    def test_weighted_flag(self):
        got = top_k_source_accuracy(self.report(), 2, weighted=True)
        np.testing.assert_allclose(got, (0.5 * 4 + 0.5 * 2) / 6)

    def test_oversized_k_warns_and_uses_all(self):
        with pytest.warns(UserWarning, match="top 9"):
            got = top_k_source_accuracy(self.report(), 9)
        np.testing.assert_allclose(got, (0.5 + 0.5 + 0.0) / 3)

    def test_k_below_one_rejected(self):
        with pytest.raises(InputError, match="k must be"):
            top_k_source_accuracy(self.report(), 0)


def centroid_pipeline(train: Corpus, test: Corpus, seed: int):
    """Nearest-centroid on features; deterministic, text-blind but honest."""
    left = np.mean([s.feature for s in train if s.side is L], axis=0)
    right = np.mean([s.feature for s in train if s.side is R], axis=0)
    out = []
    for s in test:
        dl = float(np.sum((s.feature - left) ** 2))
        dr = float(np.sum((s.feature - right) ** 2))
        out.append(L if dl <= dr else R)
    return out


class RecordingPipeline:
    """Fixed predictions; remembers every training corpus it was given."""

    def __init__(self, predictions):
        self.predictions = predictions
        self.train_corpora = []

    def __call__(self, train, test, seed):
        self.train_corpora.append(train)
        return list(self.predictions)


def sourced_corpus(seed=0, n_per=8):
    rng = np.random.default_rng(seed)
    samples = []
    for source, side, sign in [("sa", L, 1.0), ("sb", L, 1.0), ("sc", R, -1.0)]:
        for i in range(n_per):
            feature = rng.normal(scale=0.3, size=4)
            feature[0] += sign
            samples.append(
                make_sample(
                    f"{source}{i}", f"text {i}.", side, source=source,
                    feature=feature, dim=4,
                )
            )
    return Corpus(4, samples)


class TestLeaveOneSourceOut:
    def test_with_arm_matches_direct_pipeline_run(self):
        train, test = sourced_corpus(seed=1), sourced_corpus(seed=2)
        direct = centroid_pipeline(train, test, 0)
        rows = [i for i, s in enumerate(test) if s.source == "sb"]
        want = accuracy(
            [direct[i] for i in rows], [test[i].side for i in rows]
        )
        with_arm, _ = leave_one_source_out(train, test, "sb", centroid_pipeline)
        assert with_arm == want

    def test_without_arm_drops_the_source_from_training(self):
        train, test = sourced_corpus(seed=1), sourced_corpus(seed=2)
        stub = RecordingPipeline([L] * len(test))
        leave_one_source_out(train, test, "sb", stub)
        full, reduced = stub.train_corpora
        assert sorted({s.source for s in full}) == ["sa", "sb", "sc"]
        assert sorted({s.source for s in reduced}) == ["sa", "sc"]
        assert len(reduced) == len(train) - 8

    def test_unknown_source_rejected(self):
        train, test = sourced_corpus(), sourced_corpus(seed=3)
        with pytest.raises(InputError, match="no training samples"):
            leave_one_source_out(train, test, "nope", centroid_pipeline)

    def test_source_without_test_samples_rejected(self):
        train = sourced_corpus()
        test = train.subset([s.id for s in train if s.source != "sb"])
        with pytest.raises(InputError, match="no test samples"):
            leave_one_source_out(train, test, "sb", centroid_pipeline)

    def test_short_pipeline_output_rejected(self):
        train, test = sourced_corpus(), sourced_corpus(seed=3)
        stub = RecordingPipeline([L])
        with pytest.raises(InputError, match="pipeline returned"):
            leave_one_source_out(train, test, "sa", stub)


class TestTruncationSweep:
    def corpora(self):
        rows = [
            ("a", "One two. Three four. Five six.", L),
            ("b", "Seven eight. Nine ten.", R),
        ]
        return make_corpus(rows), make_corpus([("t", "Test text.", L)])

    def test_map_has_all_arms(self):
        train, test = self.corpora()
        stub = RecordingPipeline([L])
        result = sentence_truncation_sweep(train, test, [1, 2], stub)
        assert set(result) == {1, 2, "full"}
        assert len(stub.train_corpora) == 3

    def test_training_text_is_clipped_per_arm(self):
        train, test = self.corpora()
        stub = RecordingPipeline([L])
        sentence_truncation_sweep(train, test, [1], stub)
        clipped, full = stub.train_corpora
        assert clipped.sample("a").raw_text == "One two."
        assert clipped.sample("a").tokens == ["one", "two"]
        assert full.sample("a").raw_text == "One two. Three four. Five six."

    def test_oversized_k_equals_full_run(self):
        train, test = sourced_corpus(seed=4), sourced_corpus(seed=5)
        result = sentence_truncation_sweep(train, test, [50], centroid_pipeline)
        assert result[50] == result["full"]

    def test_bad_ks_rejected(self):
        train, test = self.corpora()
        with pytest.raises(InputError, match="non-empty"):
            sentence_truncation_sweep(train, test, [], centroid_pipeline)
        with pytest.raises(InputError, match="duplicates"):
            sentence_truncation_sweep(train, test, [1, 1], centroid_pipeline)
        with pytest.raises(InputError, match=">= 1"):
            sentence_truncation_sweep(train, test, [0], centroid_pipeline)


# Values a report field may be mutated to: JSON values of every type.
REPORT_VALUES = st.one_of(
    st.floats(0, 1),
    st.integers(0, 50),
    st.floats(),
    st.integers(-(10**30), 10**30),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
)


@st.composite
def mutated_reports(draw):
    """report_to_json's text of a drawn report, with one to three fields
    replaced or removed, and sometimes cut short."""
    groups = draw(st.dictionaries(
        st.text(max_size=3), st.tuples(st.floats(0, 1), st.integers(0, 50)), max_size=3
    ))
    payload = {
        "overall_accuracy": draw(st.floats(0, 1)),
        "per_group": {k: {"accuracy": a, "count": c} for k, (a, c) in groups.items()},
        "metadata": {"seed": 7},
    }
    fields = [("overall_accuracy",), ("per_group",), ("metadata",)] + [
        ("per_group", group, key) for group in groups for key in ("accuracy", "count")
    ]
    chosen = draw(st.lists(st.sampled_from(fields), min_size=1, max_size=3, unique=True))
    for *parents, key in sorted(chosen, key=len, reverse=True):  # inner fields first
        target = payload
        for parent in parents:
            target = target[parent]
        if draw(st.integers(0, 4)) == 0:
            del target[key]
        else:
            target[key] = draw(REPORT_VALUES)
    text = json.dumps(payload)
    if draw(st.integers(0, 3)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


class TestReportSerialization:
    def test_json_round_trip(self):
        report = group_accuracy(
            [L, R, L], [L, R, R], ["a", "b", "a"], metadata={"seed": 7}
        )
        again = report_from_json(report_to_json(report))
        assert again == report
        assert list(again.per_group) == list(report.per_group)

    def test_malformed_json_rejected(self):
        with pytest.raises(InputError, match="malformed report"):
            report_from_json("{not json")
        with pytest.raises(InputError, match="malformed report"):
            report_from_json('{"overall_accuracy": 1.0}')

    @pytest.mark.parametrize("text, message", [
        ('{"overall_accuracy": 1.0, "per_group": []}', "per_group object"),
        ("[" * 100_000, "nested too deeply"),
        ('{"overall_accuracy": "x", "per_group": {}}', "overall_accuracy must be a number"),
        ('{"overall_accuracy": 1.5, "per_group": {}}', "overall_accuracy must be a number"),
        ('{"overall_accuracy": NaN, "per_group": {}}', "overall_accuracy must be a number"),
        ('{"overall_accuracy": 1, "per_group": {"a": {"accuracy": true, "count": 1}}}',
         "group 'a' accuracy"),
        ('{"overall_accuracy": 1, "per_group": {"a": {"accuracy": 1, "count": 1.5}}}',
         "group 'a' count must be an integer >= 0"),
        ('{"overall_accuracy": 1, "per_group": {"a": {"accuracy": 1, "count": -1}}}',
         "group 'a' count"),
        ('{"overall_accuracy": 1, "per_group": {"a": {"accuracy": 1, "count": false}}}',
         "group 'a' count"),
        ('{"overall_accuracy": 1, "per_group": {"a": {"accuracy": 1}}}', "group 'a' count"),
        ('{"overall_accuracy": 1, "per_group": {"a": [1, 2]}}', "group 'a' is not an object"),
        ('{"overall_accuracy": 1, "per_group": {}, "metadata": []}', "metadata object"),
        ('{"overall_accuracy": 1, "per_group": {}, "n": %s}' % ("1" * 5000), "digits"),
        ("[1]", "need an object"),
    ])
    def test_bad_reports_name_what_is_wrong(self, text, message):
        with pytest.raises(InputError, match="malformed report JSON") as info:
            report_from_json(text)
        assert message in str(info.value)

    @given(text=mutated_reports())
    @example(text='{"overall_accuracy": 0.5, "per_group": {"a": {"accuracy": NaN, "count": 1}}}')
    @settings(max_examples=200, deadline=None)
    def test_mutated_reports_are_refused_or_round_trip(self, text):
        """A report text with mutated fields, or cut short, raises InputError
        or loads to a report of accuracies in [0, 1] and int counts that
        writes and reads back to itself."""
        try:
            report = report_from_json(text)
        except InputError:
            return
        for accuracy_, count in [(report.overall_accuracy, 0), *report.per_group.values()]:
            assert 0 <= accuracy_ <= 1 and type(accuracy_) in (int, float)
            assert type(count) is int and count >= 0
        assert report_from_json(report_to_json(report)) == report

    def test_csv_rows_in_report_order(self):
        report = EvalReport(0.5, {"b": (0.5, 4), "a": (0.25, 4)})
        lines = report_to_csv(report).splitlines()
        assert lines[0] == "group,accuracy,count"
        assert lines[1] == "b,0.500000,4"
        assert lines[2] == "a,0.250000,4"
