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
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from . import taxonomy
from .mining import DataError, numbered_lines

UNKNOWN_ROW = "unknown"


class UnknownCommitError(DataError):
    """A predicted commit hash that does not exist in the gold set."""


@dataclass(frozen=True)
class GoldLabel:
    commit_hash: str
    types: tuple[str, ...]

    def __post_init__(self) -> None:
        for t in self.types:
            taxonomy.get_type(t)  # raises UnknownTypeError on bad labels


@dataclass(frozen=True)
class Rates:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class TypeMetrics:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @property
    def support(self) -> int:
        return self.tp + self.fn


@dataclass(frozen=True)
class EvaluationReport:
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

    Every predicted commit hash must exist in the gold set; gold commits with
    no prediction line simply count their labels as misses.
    """
    gold_by_commit = {g.commit_hash: _canonical_counts(g.types) for g in gold}
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
        "per_type": {
            t: {
                "tp": m.tp, "fp": m.fp, "fn": m.fn,
                "precision": m.precision, "recall": m.recall, "f1": m.f1,
            }
            for t, m in report.per_type.items()
        },
        "overall_macro": vars(report.overall_macro),
        "overall_micro": vars(report.overall_micro),
    }
    return json.dumps(payload, indent=2, ensure_ascii=False)


def report_from_json(text: str) -> EvaluationReport:
    obj = json.loads(text)
    per_type = {
        t: TypeMetrics(
            tp=v["tp"], fp=v["fp"], fn=v["fn"],
            precision=v["precision"], recall=v["recall"], f1=v["f1"],
        )
        for t, v in obj["per_type"].items()
    }
    return EvaluationReport(
        per_type=per_type,
        overall_macro=Rates(**obj["overall_macro"]),
        overall_micro=Rates(**obj["overall_micro"]),
        n_commits=obj["n_commits"],
        backend=obj["backend"],
    )


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

def _objects(lines: Iterable[str], what: str) -> Iterator[tuple[str, dict]]:
    """(place, object) of each non-blank line, where place names the line as
    ``"<what> line <number>"``; a line that is not a JSON object with a string
    commit_hash is a DataError naming its place."""
    for number, line in numbered_lines(lines):
        place = f"{what} line {number}"
        try:
            obj = json.loads(line)
        except ValueError as exc:
            raise DataError(f"{place}: {exc}") from exc
        if not isinstance(obj, dict) or not isinstance(obj.get("commit_hash"), str):
            raise DataError(f"{place}: expected an object with a string commit_hash")
        yield place, obj


def _types(place: str, obj: dict) -> list[str]:
    types = obj.get("types")
    if not isinstance(types, list) or not all(isinstance(t, str) for t in types):
        raise DataError(f"{place}: types must be a list of strings")
    return types


def gold_from_lines(lines: Iterable[str]) -> list[GoldLabel]:
    """One label per non-blank ``{commit_hash, types}`` line."""
    return [
        GoldLabel(commit_hash=obj["commit_hash"], types=tuple(_types(place, obj)))
        for place, obj in _objects(lines, "gold")
    ]


def predictions_from_lines(lines: Iterable[str]) -> list[tuple[str, list[str]]]:
    """Accept either grouped {commit_hash, types} lines or per-detection lines
    carrying a RefactoringType key (the detectors' output format)."""
    grouped: dict[str, list[str]] = {}
    for place, obj in _objects(lines, "prediction"):
        types = grouped.setdefault(obj["commit_hash"], [])
        if "types" in obj:
            types.extend(_types(place, obj))
        elif "RefactoringType" in obj:
            if not isinstance(obj["RefactoringType"], str):
                raise DataError(f"{place}: RefactoringType must be a string")
            types.append(obj["RefactoringType"])
    return list(grouped.items())


def gold_to_line(label: GoldLabel) -> str:
    return json.dumps({"commit_hash": label.commit_hash, "types": list(label.types)})
