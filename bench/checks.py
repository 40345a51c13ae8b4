"""Output checks computed apart from the program.

Each check compares one stage's output with the generator's ground truth (or
with the benchmark's own re-computation) and returns a list of problems; an
empty list means the output is correct. Only the hunk round trip calls the
program, because the hunks themselves are what it checks.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Callable, Iterable

from workloads import Workload

TOLERANCE = 1e-9


def _json_lines(lines: Iterable[str]) -> list[dict]:
    return [json.loads(line) for line in lines if line.strip()]


def check_mined(workload: Workload, commit_lines: list[str]) -> list[str]:
    """Mined commits, newest first, with exactly the build texts written."""
    problems = []
    records = _json_lines(commit_lines)
    expected = workload.mined
    got_hashes = [r["commit_hash"] for r in records]
    want_hashes = [c.hash for c in expected]
    if got_hashes != want_hashes:
        missing = set(want_hashes) - set(got_hashes)
        extra = set(got_hashes) - set(want_hashes)
        problems.append(
            f"mined {len(got_hashes)} commits, expected {len(want_hashes)} "
            f"({len(missing)} missing, {len(extra)} unexpected, order differs: {not missing and not extra})"
        )
    by_hash = {c.hash: c for c in expected}
    for r in records:
        c = by_hash.get(r["commit_hash"])
        if c is None:
            continue
        want = {b.path: b for b in c.build_changes}
        got = {d["path"]: d for d in r["file_diffs"]}
        if sorted(got) != sorted(want):
            problems.append(f"{c.tag}: build files {sorted(got)} != {sorted(want)}")
            continue
        for path, d in got.items():
            b = want[path]
            fields = (
                ("build_system", d["build_system"], b.system),
                ("change_kind", d["change_kind"], b.kind),
                ("before_content", d.get("before_content"), b.before),
                ("after_content", d.get("after_content"), b.after),
            )
            for label, got_value, want_value in fields:
                if got_value != want_value:
                    problems.append(f"{c.tag}:{path}: {label} differs from the text written")
        if r["message"] != c.message:
            problems.append(f"{c.tag}: message differs")
    return problems


def replay_hunks(before: str | None, hunks) -> str:
    """Independent replay of line hunks (1-based starts, insertion after
    old_start when old_len is 0)."""
    lines = [] if before is None else before.split("\n")
    out: list[str] = []
    pos = 0
    for h in hunks:
        start = h.old_start - 1 if h.old_len else h.old_start
        out += lines[pos:start]
        if lines[start : start + h.old_len] != list(h.removed):
            raise ValueError(f"hunk at line {h.old_start} does not match the before text")
        out += list(h.added)
        pos = start + h.old_len
    out += lines[pos:]
    return "\n".join(out)


def check_hunks(commit_lines: list[str], extract_diff: Callable, apply_hunks: Callable) -> list[str]:
    """apply_hunks(before, hunks) == after, and an independent replay agrees."""
    problems = []
    for r in _json_lines(commit_lines):
        for d in r["file_diffs"]:
            before, after = d.get("before_content"), d.get("after_content")
            hunks = extract_diff(before, after)
            where = f"{r['commit_hash'][:10]}:{d['path']}"
            if apply_hunks(before, hunks) != (after or ""):
                problems.append(f"{where}: apply_hunks does not reproduce the after text")
            try:
                replayed = replay_hunks(before, hunks)
            except ValueError as exc:
                problems.append(f"{where}: {exc}")
                continue
            if replayed != (after or ""):
                problems.append(f"{where}: replaying the hunks does not reproduce the after text")
    return problems


def _types_by_commit(detection_lines: list[str]) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for obj in _json_lines(detection_lines):
        out.setdefault(obj["commit_hash"], []).append(obj["RefactoringType"])
    return out


def check_static(workload: Workload, detection_lines: list[str]) -> list[str]:
    """Every planted refactoring is reported on its commit; nothing is
    reported on a commit where nothing was planted."""
    problems = []
    found = _types_by_commit(detection_lines)
    mined = {c.hash: c for c in workload.mined}
    for h in found:
        if h not in mined:
            problems.append(f"detection on commit {h[:10]}, which was not mined")
    for c in workload.mined:
        got = Counter(found.get(c.hash, []))
        want = Counter(t for t, _ in c.labels)
        if want - got:
            problems.append(f"{c.tag}: planted {sorted((want - got).elements())} not reported")
        if not want and got:
            problems.append(f"{c.tag}: nothing planted, reported {sorted(got.elements())}")
    return problems


def check_llm(workload: Workload, plan: dict, detection_lines: list[str]) -> list[str]:
    """Detections equal the stub's labels for each commit and build system,
    in the CLI's order (systems by name, then types)."""
    problems = []
    found: dict[str, list[tuple[str, str]]] = {}
    for obj in _json_lines(detection_lines):
        found.setdefault(obj["commit_hash"], []).append((obj["RefactoringType"], obj["Details"]))
    for c in workload.mined:
        want = [
            (t, d)
            for system in sorted(plan[c.tag])
            for t, d in sorted(plan[c.tag][system]["labels"])
        ]
        if found.pop(c.hash, []) != want:
            problems.append(f"{c.tag}: LLM detections differ from the stub's labels")
    for h in found:
        problems.append(f"LLM detection on commit {h[:10]}, which was not mined")
    return problems


def check_requests(plan: dict, cold_log: list[dict], warm_log: list[dict]) -> list[str]:
    """The cold pass sends one request per prompt plus one reprompt for each
    garbled reply, and nothing else; the warm pass sends none."""
    problems = []
    if warm_log:
        problems.append(f"warm pass sent {len(warm_log)} requests, expected 0")
    want = Counter()
    for tag, systems in plan.items():
        for system, entry in systems.items():
            want[(tag, system, False)] += 1
            if entry["garble"]:
                want[(tag, system, True)] += 1
    got = Counter((e["tag"], e["system"], e["reprompt"]) for e in cold_log)
    if got != want:
        extra = got - want
        missing = want - got
        problems.append(
            f"cold pass requests differ from the plan: {sum(extra.values())} unexpected, "
            f"{sum(missing.values())} missing (reprompts expected on garbled replies only)"
        )
    return problems


def score_multiset(gold_lines: list[str], pred_lines: list[str]) -> dict:
    """Per-type multiset scoring, micro and macro, done from scratch."""
    gold = {o["commit_hash"]: Counter(o["types"]) for o in _json_lines(gold_lines)}
    pred: dict[str, Counter] = {h: Counter() for h in gold}
    for o in _json_lines(pred_lines):
        pred[o["commit_hash"]][o["RefactoringType"]] += 1
    tp, fp, fn = Counter(), Counter(), Counter()
    for h, g in gold.items():
        p = pred[h]
        for t in set(g) | set(p):
            tp[t] += min(g[t], p[t])
            fp[t] += max(0, p[t] - g[t])
            fn[t] += max(0, g[t] - p[t])

    def rates(a, b, c):
        precision = a / (a + b) if a + b else 0.0
        recall = a / (a + c) if a + c else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return {"precision": precision, "recall": recall, "f1": f1}

    per_type = {t: {"tp": tp[t], "fp": fp[t], "fn": fn[t], **rates(tp[t], fp[t], fn[t])}
                for t in set(tp) | set(fp) | set(fn)}
    supported = [m for m in per_type.values() if m["tp"] + m["fn"] > 0]
    macro = {k: sum(m[k] for m in supported) / len(supported) if supported else 0.0
             for k in ("precision", "recall", "f1")}
    micro = rates(sum(tp.values()), sum(fp.values()), sum(fn.values()))
    return {"per_type": per_type, "overall_macro": macro, "overall_micro": micro, "n_commits": len(gold)}


def check_report(report_text: str, gold_lines: list[str], pred_lines: list[str]) -> list[str]:
    """`buildref evaluate` agrees with score_multiset to TOLERANCE."""
    problems = []
    report = json.loads(report_text)
    want = score_multiset(gold_lines, pred_lines)
    if report["n_commits"] != want["n_commits"]:
        problems.append(f"report covers {report['n_commits']} commits, expected {want['n_commits']}")
    if sorted(report["per_type"]) != sorted(want["per_type"]):
        problems.append("report rows differ from the independent scoring")
        return problems
    for t, w in want["per_type"].items():
        g = report["per_type"][t]
        for k in ("tp", "fp", "fn"):
            if g[k] != w[k]:
                problems.append(f"{t}: {k} {g[k]} != {w[k]}")
        for k in ("precision", "recall", "f1"):
            if abs(g[k] - w[k]) > TOLERANCE:
                problems.append(f"{t}: {k} {g[k]} != {w[k]}")
    for block in ("overall_macro", "overall_micro"):
        for k, v in want[block].items():
            if abs(report[block][k] - v) > TOLERANCE:
                problems.append(f"{block}.{k} {report[block][k]} != {v}")
    return problems
