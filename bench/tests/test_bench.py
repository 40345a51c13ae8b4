"""Tests of the benchmark itself: seeded generation and the output checks.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from buildref.mining import apply_hunks, extract_diff  # noqa: E402


def _tree(workload):
    tree = {}
    for c in workload.commits:
        tree.update(c.files)
    return tree


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_repository(tmp_path, name):
    a = workloads.set_up(name, 7, str(tmp_path / "a"))
    b = workloads.set_up(name, 7, str(tmp_path / "b"))
    assert [c.hash for c in a.commits] == [c.hash for c in b.commits]
    assert all(len(c.hash) == 40 for c in a.commits)
    assert _tree(a) == _tree(b)
    for fname in ("gold.jsonl", "llm_gold.jsonl", "stub_plan.json"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_other_seed_other_repository_same_shape(tmp_path):
    a = workloads.set_up("llm_cached", 1, str(tmp_path / "a"))
    b = workloads.set_up("llm_cached", 2, str(tmp_path / "b"))
    assert {c.hash for c in a.commits}.isdisjoint(c.hash for c in b.commits)
    assert len(a.commits) == len(b.commits)
    assert len(a.mined) == len(b.mined)
    assert sorted(t for c in a.commits for t, _ in c.labels) == sorted(t for c in b.commits for t, _ in c.labels)


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A small workload with hashes, and the outputs a correct program gives."""
    dest = str(tmp_path_factory.mktemp("llm_cached"))
    workload = workloads.set_up("llm_cached", 3, dest)
    plan = json.loads(open(os.path.join(dest, "stub_plan.json")).read())
    commit_lines = [
        json.dumps({
            "repo_id": workloads.REPO_DIR, "commit_hash": c.hash, "message": c.message, "author": "Bench Author",
            "timestamp": workloads.BASE_TIMESTAMP + 60 * c.index,
            "file_diffs": [
                {"path": b.path, "build_system": b.system, "change_kind": b.kind,
                 "before_content": b.before, "after_content": b.after}
                for b in c.build_changes
            ],
        })
        for c in workload.mined
    ]
    static_lines = [
        json.dumps({"commit_hash": c.hash, "RefactoringType": t}) for c in workload.mined for t, _ in c.labels
    ]
    llm_lines = [
        json.dumps({"commit_hash": c.hash, "RefactoringType": t, "Details": d})
        for c in workload.mined for system in sorted(plan[c.tag]) for t, d in sorted(plan[c.tag][system]["labels"])
    ]
    cold_log = [
        {"tag": tag, "system": system, "reprompt": reprompt}
        for tag, systems in plan.items() for system, entry in systems.items()
        for reprompt in ((False, True) if entry["garble"] else (False,))
    ]
    return workload, plan, commit_lines, static_lines, llm_lines, cold_log


def test_checks_pass_on_correct_outputs(small):
    workload, plan, commit_lines, static_lines, llm_lines, cold_log = small
    assert checks.check_mined(workload, commit_lines) == []
    assert checks.check_hunks(commit_lines, extract_diff, apply_hunks) == []
    assert checks.check_static(workload, static_lines) == []
    assert checks.check_llm(workload, plan, llm_lines) == []
    assert checks.check_requests(plan, cold_log, []) == []
    assert any(e["reprompt"] for e in cold_log)
    gold = workloads.gold_lines(workload)
    report = json.dumps(checks.score_multiset(gold, static_lines))
    assert checks.check_report(report, gold, static_lines) == []


def test_mined_check_catches_one_changed_byte(small):
    workload, _, commit_lines, *_ = small
    record = json.loads(commit_lines[5])
    after = record["file_diffs"][0]["after_content"]
    record["file_diffs"][0]["after_content"] = after[:-2] + chr(ord(after[-2]) ^ 1) + after[-1]
    broken = commit_lines[:5] + [json.dumps(record)] + commit_lines[6:]
    assert checks.check_mined(workload, broken)


def test_mined_check_catches_a_missing_commit(small):
    workload, _, commit_lines, *_ = small
    assert checks.check_mined(workload, commit_lines[1:])


def test_hunk_check_catches_a_wrong_replay(small):
    _, _, commit_lines, *_ = small
    wrong = lambda before, hunks: apply_hunks(before, hunks[1:])  # noqa: E731
    assert checks.check_hunks(commit_lines, extract_diff, wrong)


def test_static_check_catches_a_dropped_detection(small):
    workload, _, _, static_lines, *_ = small
    for n in range(len(static_lines)):
        assert checks.check_static(workload, static_lines[:n] + static_lines[n + 1:])


def test_static_check_catches_a_detection_where_nothing_was_planted(small):
    workload, _, _, static_lines, *_ = small
    clean = next(c for c in workload.mined if not c.labels)
    extra = json.dumps({"commit_hash": clean.hash, "RefactoringType": "Reformat Code"})
    assert checks.check_static(workload, static_lines + [extra])


def test_llm_check_catches_a_dropped_detection(small):
    workload, plan, _, _, llm_lines, _ = small
    assert checks.check_llm(workload, plan, llm_lines[:-1])


def test_request_check_catches_an_extra_warm_request(small):
    _, plan, *_, cold_log = small
    assert checks.check_requests(plan, cold_log, [cold_log[0]])


def test_request_check_catches_a_missing_or_misplaced_reprompt(small):
    _, plan, *_, cold_log = small
    reprompts = [e for e in cold_log if e["reprompt"]]
    without = [e for e in cold_log if e is not reprompts[0]]
    assert checks.check_requests(plan, without, [])
    misplaced = dict(reprompts[0], tag=next(e["tag"] for e in cold_log if not e["reprompt"] and e["tag"] != reprompts[0]["tag"]))
    assert checks.check_requests(plan, without + [misplaced], [])


def test_report_check_catches_a_wrong_rate(small):
    workload, _, _, static_lines, *_ = small
    gold = workloads.gold_lines(workload)
    report = checks.score_multiset(gold, static_lines)
    report["overall_micro"]["f1"] -= 1e-6
    assert checks.check_report(json.dumps(report), gold, static_lines)


def test_multiset_scoring_counts_repeats():
    gold = [json.dumps({"commit_hash": "a", "types": ["DRY", "DRY"]})]
    pred = [json.dumps({"commit_hash": "a", "RefactoringType": "DRY"})] * 3
    score = checks.score_multiset(gold, pred)
    assert score["per_type"]["DRY"] == pytest.approx(
        {"tp": 2, "fp": 1, "fn": 0, "precision": 2 / 3, "recall": 1.0, "f1": 0.8}, abs=1e-12
    )


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [(n, run.per_layer_unit(n)) for n in run.PER_LAYER]
    assert set(run.REPEATS) == set(workloads.WORKLOADS)
