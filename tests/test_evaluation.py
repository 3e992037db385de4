"""Stratified reports, CSV/wide exports, and the paired t-test."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats

from argtree.evaluation import (
    EvalItem,
    EvalReport,
    Stratum,
    accuracy,
    merge_reports_wide,
    paired_t_test,
    paired_topic_vectors,
    per_topic_accuracies,
    read_report_file,
    regularized_incomplete_beta,
    report_csv_rows,
    report_to_text,
    stratified_eval,
    stratum_sort_key,
    student_t_two_sided_p,
    wide_table_text,
    write_report_file,
)


def _item(topic, distance, same_stance, gold, predicted):
    return EvalItem(
        topic_id=topic,
        distance=distance,
        same_stance=same_stance,
        gold=gold,
        predicted=predicted,
    )


FIXTURE_ITEMS = [
    _item("t1", 1, True, "supports", "supports"),
    _item("t1", 1, False, "supports", "opposes"),
    _item("t1", 2, True, "opposes", "opposes"),
    _item("t2", 1, None, "opposes", "opposes"),
    _item("t2", 3, True, "supports", "opposes"),
    _item("t2", 3, False, "opposes", "opposes"),
]


# ---------------------------------------------------------------------------
# Accuracy and stratification


def test_accuracy_counts_matches():
    assert accuracy(["a", "b", "a"], ["a", "a", "a"]) == pytest.approx(2 / 3)


def test_accuracy_rejects_mismatch_and_empty():
    with pytest.raises(ValueError, match="length mismatch"):
        accuracy(["a"], ["a", "b"])
    with pytest.raises(ValueError, match="empty"):
        accuracy([], [])


def test_stratified_eval_hand_counts():
    report = stratified_eval(FIXTURE_ITEMS, task="stance", model="m", split="test")
    assert report.strata["all"].count == 6
    assert report.strata["all"].correct == 4
    assert report.strata["d1"].count == 3
    assert report.strata["d1"].correct == 2
    assert report.strata["d2"] == Stratum(count=1, correct=1)
    assert report.strata["d3"] == Stratum(count=2, correct=1)
    # Same-stance bucket covers only items flagged True.
    assert report.strata["same-stance"] == Stratum(count=3, correct=2)
    assert report.per_topic == {"t1": (2, 3), "t2": (2, 3)}


def test_same_stance_stratum_needs_a_flagged_item():
    items = [_item("t", 1, None, "a", "a"), _item("t", 2, None, "a", "b")]
    report = stratified_eval(items, task="specificity", model="m")
    assert "same-stance" not in report.strata


def test_max_distance_bounds_the_buckets():
    report = stratified_eval(FIXTURE_ITEMS, task="stance", model="m", max_distance=2)
    assert set(report.strata) == {"all", "d1", "d2", "same-stance"}
    # Distance-3 items still count toward the overall stratum.
    assert report.strata["all"].count == 6


def test_empty_stratum_reports_no_accuracy():
    items = [_item("t", 1, None, "a", "a")]
    report = stratified_eval(items, task="specificity", model="m", max_distance=2)
    assert report.strata["d2"].count == 0
    assert report.accuracy_of("d2") is None
    text = report_to_text(report)
    assert "n/a" in text
    csv_row = [r for r in report_csv_rows(report) if r["stratum"] == "d2"][0]
    assert csv_row["accuracy"] == ""


def test_stratified_eval_rejects_empty():
    with pytest.raises(ValueError, match="no items"):
        stratified_eval([], task="stance", model="m")


def test_stratum_sort_order():
    names = ["same-stance", "d10", "d2", "all", "d1"]
    assert sorted(names, key=stratum_sort_key) == ["all", "d1", "d2", "d10", "same-stance"]


# ---------------------------------------------------------------------------
# Serialization


def test_report_round_trip(tmp_path):
    report = stratified_eval(FIXTURE_ITEMS, task="stance", model="m", split="dev")
    path = str(tmp_path / "report.json")
    write_report_file(report, path)
    loaded = read_report_file(path)
    assert loaded == report


def test_report_schema_checked(tmp_path):
    path = tmp_path / "report.json"
    path.write_text('{"schema": "other/1"}', encoding="utf-8")
    with pytest.raises(ValueError, match="schema mismatch"):
        read_report_file(str(path))


def test_report_text_layout():
    report = stratified_eval(FIXTURE_ITEMS, task="stance", model="hier", split="test")
    text = report_to_text(report)
    lines = text.splitlines()
    assert lines[0] == "task: stance  model: hier  split: test"
    assert lines[1].split() == ["all", "0.6667", "(4/6)"]
    assert [line.split()[0] for line in lines[1:]] == [
        "all",
        "d1",
        "d2",
        "d3",
        "same-stance",
    ]


def test_csv_rows_long_format():
    report = stratified_eval(FIXTURE_ITEMS, task="stance", model="m", split="test")
    rows = report_csv_rows(report)
    assert [row["stratum"] for row in rows] == ["all", "d1", "d2", "d3", "same-stance"]
    first = rows[0]
    assert first == {
        "task": "stance",
        "model": "m",
        "split": "test",
        "stratum": "all",
        "count": "6",
        "correct": "4",
        "accuracy": "0.666667",
    }


def _report_named(model, flip=False):
    items = [
        _item("t1", 1, None, "a", "b" if flip else "a"),
        _item("t2", 2, None, "a", "a"),
    ]
    return stratified_eval(items, task="specificity", model=model)


def test_merge_reports_wide_models_as_rows():
    header, rows = merge_reports_wide([_report_named("endpoint"), _report_named("hier", flip=True)])
    assert header == ["model", "all", "d1", "d2"]
    assert rows[0] == ["endpoint", "1.0000", "1.0000", "1.0000"]
    assert rows[1] == ["hier", "0.5000", "0.0000", "1.0000"]
    text = wide_table_text(header, rows)
    lines = text.splitlines()
    assert lines[0].split() == header
    assert lines[1].startswith("endpoint")


def test_merge_rejects_duplicates_and_mismatched_strata():
    with pytest.raises(ValueError, match="duplicate model"):
        merge_reports_wide([_report_named("m"), _report_named("m")])
    other = stratified_eval([_item("t", 1, None, "a", "a")], task="specificity", model="n")
    with pytest.raises(ValueError, match="inconsistent strata"):
        merge_reports_wide([_report_named("m"), other])
    with pytest.raises(ValueError, match="no reports"):
        merge_reports_wide([])


# ---------------------------------------------------------------------------
# Per-topic vectors


def test_per_topic_accuracies():
    report = stratified_eval(FIXTURE_ITEMS, task="stance", model="m")
    assert per_topic_accuracies(report) == {
        "t1": pytest.approx(2 / 3),
        "t2": pytest.approx(2 / 3),
    }


def test_paired_topic_vectors_intersect_and_sort():
    first = EvalReport(
        task="stance",
        model="a",
        split="test",
        strata={},
        per_topic={"t2": (1, 2), "t1": (2, 2), "only-a": (0, 1)},
    )
    second = EvalReport(
        task="stance",
        model="b",
        split="test",
        strata={},
        per_topic={"t1": (0, 2), "t2": (2, 2), "only-b": (1, 1)},
    )
    topics, a, b = paired_topic_vectors(first, second)
    assert topics == ["t1", "t2"]
    assert a == [1.0, 0.5]
    assert b == [0.0, 1.0]
    second.per_topic = {"elsewhere": (1, 1)}
    with pytest.raises(ValueError, match="share no topics"):
        paired_topic_vectors(first, second)


# ---------------------------------------------------------------------------
# Student t machinery against closed forms and an independent oracle


def test_paired_t_test_hand_case():
    # diffs = [1, 2, 3]: mean 2, sample variance 1, t = 2 / sqrt(1/3).
    result = paired_t_test([2.0, 3.0, 4.0], [1.0, 1.0, 1.0])
    assert result.t == pytest.approx(2.0 * math.sqrt(3.0))
    assert result.df == 2
    assert result.mean_diff == pytest.approx(2.0)
    assert not result.degenerate
    # For df=2 the two-sided p has the closed form 1 - sqrt(t^2/(2+t^2)).
    t = result.t
    assert result.p == pytest.approx(1.0 - math.sqrt(t * t / (2.0 + t * t)), abs=1e-12)


def test_paired_t_test_matches_reference_implementation():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5, 12, 40):
        for _ in range(4):
            first = rng.normal(size=n)
            second = first + rng.normal(scale=0.5, size=n) + rng.normal(scale=0.2)
            ours = paired_t_test(list(first), list(second))
            reference = scipy.stats.ttest_rel(first, second)
            assert ours.t == pytest.approx(reference.statistic, rel=1e-10)
            assert ours.p == pytest.approx(reference.pvalue, abs=1e-10)


def test_student_t_p_matches_reference():
    for df in (1, 2, 3, 10, 30, 100):
        for t in (0.0, 0.5, 1.0, 2.0, 3.5, 7.0):
            ours = student_t_two_sided_p(t, df)
            reference = 2.0 * scipy.stats.t.sf(abs(t), df)
            assert ours == pytest.approx(reference, abs=1e-12)


def test_degenerate_differences():
    same = paired_t_test([0.5, 0.5, 0.5], [0.5, 0.5, 0.5])
    assert same.degenerate and same.p == 1.0 and same.t == 0.0
    shifted = paired_t_test([1.0, 1.0], [0.0, 0.0])
    assert shifted.degenerate and shifted.p == 0.0 and shifted.t == math.inf
    negative = paired_t_test([0.0, 0.0], [1.0, 1.0])
    assert negative.t == -math.inf and negative.p == 0.0
    # 0.2 - 0.1 three times: the float mean is an ulp above 0.1, so the
    # variance is not exactly zero, but every difference is the same.
    inexact = paired_t_test([0.2] * 3, [0.1] * 3)
    assert inexact.degenerate and inexact.p == 0.0 and inexact.t == math.inf


def test_t_test_input_validation():
    with pytest.raises(ValueError, match="equal length"):
        paired_t_test([1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="at least 2"):
        paired_t_test([1.0], [0.0])
    with pytest.raises(ValueError, match="positive"):
        student_t_two_sided_p(1.0, 0)


def test_incomplete_beta_edges():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        regularized_incomplete_beta(2.0, 3.0, 1.5)
    for a, b, x in [(0.5, 0.5, 0.3), (2.0, 5.0, 0.7), (10.0, 1.5, 0.2)]:
        ours = regularized_incomplete_beta(a, b, x)
        assert ours == pytest.approx(scipy.stats.beta.cdf(x, a, b), abs=1e-12)
