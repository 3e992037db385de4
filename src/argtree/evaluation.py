"""Stratified accuracy reports and paired significance testing.

Reports break accuracy out by tree distance (d1, d2, ...) and, when the
examples carry it, by the same-stance subset. The paired t-test works on
per-topic accuracy vectors; its two-sided p-value comes from a
from-scratch regularized incomplete beta (continued fraction), so no
statistics package is needed at runtime.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

REPORT_SCHEMA = "argtree-report/1"


def accuracy(gold: Sequence[str], predicted: Sequence[str]) -> float:
    if len(gold) != len(predicted):
        raise ValueError(f"length mismatch: {len(gold)} gold vs {len(predicted)} predicted")
    if not gold:
        raise ValueError("cannot score an empty set")
    return sum(1 for g, p in zip(gold, predicted) if g == p) / len(gold)


@dataclass
class EvalItem:
    topic_id: str
    distance: int
    same_stance: Optional[bool]
    gold: str
    predicted: str

    @property
    def correct(self) -> bool:
        return self.gold == self.predicted


@dataclass
class Stratum:
    count: int
    correct: int

    @property
    def accuracy(self) -> Optional[float]:
        return None if self.count == 0 else self.correct / self.count


@dataclass
class EvalReport:
    task: str
    model: str
    split: str
    strata: dict[str, Stratum]
    per_topic: dict[str, tuple[int, int]] = field(default_factory=dict)

    def accuracy_of(self, stratum: str) -> Optional[float]:
        entry = self.strata.get(stratum)
        return None if entry is None else entry.accuracy

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "task": self.task,
            "model": self.model,
            "split": self.split,
            "strata": {
                name: {
                    "count": s.count,
                    "correct": s.correct,
                    "accuracy": s.accuracy,
                }
                for name, s in sorted(self.strata.items(), key=lambda kv: stratum_sort_key(kv[0]))
            },
            "per_topic": {
                topic: [correct, count]
                for topic, (correct, count) in sorted(self.per_topic.items())
            },
        }


def stratum_sort_key(name: str) -> tuple[int, int, str]:
    if name == "all":
        return (0, 0, name)
    if name.startswith("d") and name[1:].isdigit():
        return (1, int(name[1:]), name)
    return (2, 0, name)


def stratified_eval(
    items: Sequence[EvalItem],
    task: str,
    model: str,
    split: str = "test",
    max_distance: Optional[int] = None,
) -> EvalReport:
    if not items:
        raise ValueError("no items to evaluate")
    if max_distance is None:
        max_distance = max(item.distance for item in items)
    strata: dict[str, Stratum] = {"all": Stratum(0, 0)}
    for d in range(1, max_distance + 1):
        strata[f"d{d}"] = Stratum(0, 0)
    track_same_stance = any(item.same_stance is not None for item in items)
    if track_same_stance:
        strata["same-stance"] = Stratum(0, 0)
    per_topic: dict[str, list[int]] = {}
    for item in items:
        hit = 1 if item.correct else 0
        names = ["all"]
        if 1 <= item.distance <= max_distance:
            names.append(f"d{item.distance}")
        if track_same_stance and item.same_stance is True:
            names.append("same-stance")
        for name in names:
            strata[name].count += 1
            strata[name].correct += hit
        bucket = per_topic.setdefault(item.topic_id, [0, 0])
        bucket[0] += hit
        bucket[1] += 1
    return EvalReport(
        task=task,
        model=model,
        split=split,
        strata=strata,
        per_topic={topic: (c, n) for topic, (c, n) in per_topic.items()},
    )


def dump_report(report: EvalReport, stream) -> None:
    json.dump(report.to_json_dict(), stream, ensure_ascii=False, indent=2)
    stream.write("\n")


def write_report_file(report: EvalReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        dump_report(report, handle)


def read_report_file(path: str) -> EvalReport:
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    if raw.get("schema") != REPORT_SCHEMA:
        raise ValueError(f"schema mismatch in report file {path!r}")
    return EvalReport(
        task=raw["task"],
        model=raw["model"],
        split=raw["split"],
        strata={
            name: Stratum(count=int(entry["count"]), correct=int(entry["correct"]))
            for name, entry in raw["strata"].items()
        },
        per_topic={
            topic: (int(pair[0]), int(pair[1])) for topic, pair in raw.get("per_topic", {}).items()
        },
    )


def report_to_text(report: EvalReport) -> str:
    lines = [f"task: {report.task}  model: {report.model}  split: {report.split}"]
    names = sorted(report.strata, key=stratum_sort_key)
    width = max(len(n) for n in names)
    for name in names:
        stratum = report.strata[name]
        shown = "n/a" if stratum.accuracy is None else f"{stratum.accuracy:.4f}"
        lines.append(f"  {name:<{width}}  {shown:>7}  ({stratum.correct}/{stratum.count})")
    return "\n".join(lines) + "\n"


def report_csv_rows(report: EvalReport) -> list[dict[str, str]]:
    """Long-format rows: one line per (model, stratum)."""
    rows = []
    for name in sorted(report.strata, key=stratum_sort_key):
        stratum = report.strata[name]
        rows.append(
            {
                "task": report.task,
                "model": report.model,
                "split": report.split,
                "stratum": name,
                "count": str(stratum.count),
                "correct": str(stratum.correct),
                "accuracy": "" if stratum.accuracy is None else f"{stratum.accuracy:.6f}",
            }
        )
    return rows


def merge_reports_wide(reports: Sequence[EvalReport]) -> tuple[list[str], list[list[str]]]:
    """Wide table: models as rows (input order), strata as columns."""
    if not reports:
        raise ValueError("no reports to merge")
    strata = sorted(reports[0].strata, key=stratum_sort_key)
    models = []
    for report in reports:
        if report.model in models:
            raise ValueError(f"duplicate model name {report.model!r}")
        models.append(report.model)
        if sorted(report.strata, key=stratum_sort_key) != strata:
            raise ValueError(
                f"inconsistent strata: model {report.model!r} has "
                f"{sorted(report.strata)}, expected {sorted(strata)}"
            )
    header = ["model"] + strata
    rows = []
    for report in reports:
        row = [report.model]
        for name in strata:
            value = report.accuracy_of(name)
            row.append("" if value is None else f"{value:.4f}")
        rows.append(row)
    return header, rows


def wide_table_text(header: list[str], rows: Sequence[Sequence[str]]) -> str:
    """Aligned-text rendering of a merged wide table."""
    table = [list(header)] + [list(row) for row in rows]
    widths = [max(len(table[r][c]) for r in range(len(table))) for c in range(len(header))]
    lines = []
    for row in table:
        cells = [row[0].ljust(widths[0])] + [
            cell.rjust(widths[c + 1]) for c, cell in enumerate(row[1:])
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def per_topic_accuracies(report: EvalReport) -> dict[str, float]:
    return {topic: correct / count for topic, (correct, count) in report.per_topic.items()}


def paired_topic_vectors(
    first: EvalReport, second: EvalReport
) -> tuple[list[str], list[float], list[float]]:
    """Per-topic accuracies over the topics both reports cover, sorted."""
    a = per_topic_accuracies(first)
    b = per_topic_accuracies(second)
    topics = sorted(set(a) & set(b))
    if not topics:
        raise ValueError("reports share no topics")
    return topics, [a[t] for t in topics], [b[t] for t in topics]


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    max_iterations = 300
    tiny = 1e-30
    eps = 1e-15
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        numerator = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x < 0.0 or x > 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= t) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


@dataclass
class TTestResult:
    t: float
    df: int
    p: float
    mean_diff: float
    degenerate: bool = False


def paired_t_test(first: Sequence[float], second: Sequence[float]) -> TTestResult:
    """Two-sided paired t-test on matched score vectors.

    When all differences are equal the statistic is undefined; the result
    is flagged degenerate with p = 1 for a zero difference and p = 0
    otherwise, rather than raising.
    """
    if len(first) != len(second):
        raise ValueError("paired vectors must have equal length")
    n = len(first)
    if n < 2:
        raise ValueError("paired t-test needs at least 2 pairs")
    diffs = [a - b for a, b in zip(first, second)]
    mean = sum(diffs) / n
    variance = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    df = n - 1
    # Equal differences can leave a variance of ~1e-34 rather than 0, since
    # the float mean may be an ulp off them; that is still no variance.
    if variance == 0.0 or max(diffs) == min(diffs):
        if mean == 0.0:
            return TTestResult(t=0.0, df=df, p=1.0, mean_diff=mean, degenerate=True)
        t = math.inf if mean > 0 else -math.inf
        return TTestResult(t=t, df=df, p=0.0, mean_diff=mean, degenerate=True)
    t = mean / math.sqrt(variance / n)
    return TTestResult(t=t, df=df, p=student_t_two_sided_p(t, df), mean_diff=mean)
