"""Score predicted detections against gold labels.

Matching is per commit and per type over multisets: a commit can legitimately
contain several instances of one type, so counts matter (a set-mode flag
collapses them). Types with no gold support are excluded from the macro
average; unknown predicted type strings are pooled as false positives under a
reserved "unknown" row.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from . import taxonomy
from .mining import DataError, checked, json_lines, loads

UNKNOWN_ROW = "unknown"


class UnknownCommitError(DataError):
    """A predicted commit hash that does not exist in the gold set."""


@checked
class GoldLabel(NamedTuple):
    commit_hash: str
    types: tuple[str, ...]

    def _check(self) -> None:
        for t in self.types:
            taxonomy.get_type(t)  # raises UnknownTypeError on bad labels


class Rates(NamedTuple):
    precision: float
    recall: float
    f1: float


class TypeMetrics(NamedTuple):
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @property
    def support(self) -> int:
        return self.tp + self.fn


class EvaluationReport(NamedTuple):
    per_type: Mapping[str, TypeMetrics]
    overall_macro: Rates
    overall_micro: Rates
    n_commits: int
    backend: str


def _rates(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def _canonical_counts(types: Iterable[str]) -> Counter:
    counter: Counter = Counter()
    for name in types:
        resolved = taxonomy.resolve_type(name)
        counter[resolved.id if resolved else UNKNOWN_ROW] += 1
    return counter


def score(
    gold: Sequence[GoldLabel],
    pred: Sequence[tuple[str, Sequence[str]]],
    backend: str = "static",
    set_mode: bool = False,
) -> EvaluationReport:
    """Accumulate per-commit, per-type confusion counts and derive PR/RE/F1.

    Each gold commit hash appears once, and every predicted commit hash must
    exist in the gold set; gold commits with no prediction line simply count
    their labels as misses.
    """
    gold_by_commit = {g.commit_hash: _canonical_counts(g.types) for g in gold}
    if len(gold_by_commit) < len(gold):
        repeated = next(h for h, n in Counter(g.commit_hash for g in gold).items() if n > 1)
        raise DataError(f"gold: commit {repeated} is labelled twice")
    pred_by_commit: dict[str, Counter] = {h: Counter() for h in gold_by_commit}
    for commit_hash, types in pred:
        if commit_hash not in gold_by_commit:
            raise UnknownCommitError(commit_hash)
        pred_by_commit[commit_hash] += _canonical_counts(types)
    if set_mode:  # each type counts once per commit, however often it was labelled or predicted
        for counts in (*gold_by_commit.values(), *pred_by_commit.values()):
            for type_id in counts:
                counts[type_id] = 1

    tp: Counter = Counter()
    fp: Counter = Counter()
    fn: Counter = Counter()
    for commit_hash, gold_counts in gold_by_commit.items():
        pred_counts = pred_by_commit[commit_hash]
        for type_id in set(gold_counts) | set(pred_counts):
            g, p = gold_counts[type_id], pred_counts[type_id]
            tp[type_id] += min(g, p)
            fp[type_id] += max(0, p - g)
            fn[type_id] += max(0, g - p)

    per_type: dict[str, TypeMetrics] = {}
    for type_id in sorted(set(tp) | set(fp) | set(fn)):
        precision, recall, f1 = _rates(tp[type_id], fp[type_id], fn[type_id])
        per_type[type_id] = TypeMetrics(
            tp=tp[type_id], fp=fp[type_id], fn=fn[type_id],
            precision=precision, recall=recall, f1=f1,
        )

    supported = [m for m in per_type.values() if m.support > 0]
    if supported:
        macro = Rates(
            precision=sum(m.precision for m in supported) / len(supported),
            recall=sum(m.recall for m in supported) / len(supported),
            f1=sum(m.f1 for m in supported) / len(supported),
        )
    else:
        macro = Rates(0.0, 0.0, 0.0)
    micro = Rates(*_rates(sum(tp.values()), sum(fp.values()), sum(fn.values())))

    return EvaluationReport(
        per_type=per_type,
        overall_macro=macro,
        overall_micro=micro,
        n_commits=len(gold),
        backend=backend,
    )


# --- serialization ------------------------------------------------------------

def report_to_json(report: EvaluationReport) -> str:
    payload = {
        "backend": report.backend,
        "n_commits": report.n_commits,
        "per_type": {t: m._asdict() for t, m in report.per_type.items()},
        "overall_macro": report.overall_macro._asdict(),
        "overall_micro": report.overall_micro._asdict(),
    }
    return json.dumps(payload, indent=2, ensure_ascii=False)


def report_from_json(text: str) -> EvaluationReport:
    """Read back what :func:`report_to_json` wrote; text of another shape is a
    DataError naming what is wrong."""
    try:
        obj = loads(text)
    except ValueError as exc:
        raise DataError(f"report: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"report: expected an object, not {type(obj).__name__}")
    if not isinstance(obj.get("per_type"), dict):
        raise DataError("report: per_type must be an object")
    if not isinstance(obj.get("n_commits"), int):
        raise DataError("report: n_commits must be an integer")
    if not isinstance(obj.get("backend"), str):
        raise DataError("report: backend must be a string")
    return EvaluationReport(
        per_type={t: _metrics(TypeMetrics, v, f"per_type {t}") for t, v in obj["per_type"].items()},
        overall_macro=_metrics(Rates, obj.get("overall_macro"), "overall_macro"),
        overall_micro=_metrics(Rates, obj.get("overall_micro"), "overall_micro"),
        n_commits=obj["n_commits"],
        backend=obj["backend"],
    )


def _metrics(cls, value, place: str):
    """A ``cls`` read from ``value``, an object with a number for each field of ``cls``."""
    names = cls._fields
    if not isinstance(value, dict) or not all(isinstance(value.get(n), (int, float)) for n in names):
        raise DataError(f"report: {place} must be an object with the numbers {', '.join(names)}")
    return cls(**{n: value[n] for n in names})


def render_report(report: EvaluationReport, format: str = "markdown_table") -> str:
    """Markdown table with one row per type and a final "All Refs." macro row;
    the JSON form is lossless."""
    if format == "json":
        return report_to_json(report)
    if format != "markdown_table":
        raise ValueError(f"unsupported format: {format}")

    order = {t: n for n, t in enumerate(taxonomy.ALL_TYPE_IDS)}
    rows = sorted(report.per_type, key=lambda t: (order.get(t, len(order)), t))
    lines = [
        f"Backend: {report.backend} ({report.n_commits} commits)",
        "",
        "| Refactoring Types | PR | RE | F1 |",
        "|---|---|---|---|",
    ]
    for type_id in rows:
        m = report.per_type[type_id]
        lines.append(f"| {type_id} | {m.precision:.2f} | {m.recall:.2f} | {m.f1:.2f} |")
    macro = report.overall_macro
    lines.append(f"| All Refs. | {macro.precision:.2f} | {macro.recall:.2f} | {macro.f1:.2f} |")
    micro = report.overall_micro
    lines.append(f"| All Refs. (micro) | {micro.precision:.2f} | {micro.recall:.2f} | {micro.f1:.2f} |")
    return "\n".join(lines)


# --- line-oriented gold / prediction files -------------------------------------

def _labels(line: str, detections: bool = False) -> tuple[str, tuple[str, ...]]:
    """(commit_hash, types) of a ``{commit_hash, types}`` line or, given
    ``detections``, of a line without types that names its one type in
    RefactoringType (the detectors' output format) or names none."""
    obj = loads(line)
    if not isinstance(obj, dict) or not isinstance(obj.get("commit_hash"), str):
        raise DataError("expected an object with a string commit_hash")
    if detections and "types" not in obj:
        types = [obj["RefactoringType"]] if "RefactoringType" in obj else []
        if not all(isinstance(t, str) for t in types):
            raise DataError("RefactoringType must be a string")
    else:
        types = obj.get("types")
        if not isinstance(types, list) or not all(isinstance(t, str) for t in types):
            raise DataError("types must be a list of strings")
    return obj["commit_hash"], tuple(types)


def gold_from_lines(lines: Iterable[Union[str, bytes]]) -> list[GoldLabel]:
    """One label per non-blank ``{commit_hash, types}`` line; a commit
    labelled on two lines is a DataError naming both."""
    first_line: dict[str, int] = {}
    labels = []
    for number, label in json_lines(lines, "gold", lambda line: GoldLabel(*_labels(line))):
        if label.commit_hash in first_line:
            raise DataError(
                f"gold line {number}: commit {label.commit_hash} is labelled on line {first_line[label.commit_hash]} too"
            )
        first_line[label.commit_hash] = number
        labels.append(label)
    return labels


def predictions_from_lines(lines: Iterable[Union[str, bytes]]) -> list[tuple[str, list[str]]]:
    """Accept either grouped {commit_hash, types} lines or per-detection lines
    carrying a RefactoringType key, grouped by commit in order of appearance."""
    grouped: dict[str, list[str]] = {}
    for _, (commit_hash, types) in json_lines(lines, "prediction", lambda line: _labels(line, detections=True)):
        grouped.setdefault(commit_hash, []).extend(types)
    return list(grouped.items())


def gold_to_line(label: GoldLabel) -> str:
    return json.dumps({"commit_hash": label.commit_hash, "types": list(label.types)})
