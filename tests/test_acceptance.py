"""Acceptance suite: one test per acceptance criterion, tolerances pinned.

Each test prints a single "criterion N: PASS/FAIL" line (visible with
`pytest -s`); assertions carry the stated tolerances and time budgets.
"""

import functools
import json
import random
import time
from collections import Counter

import fixtures
from buildref import llm_backend, taxonomy
from buildref.cli import EXIT_OK, run
from buildref.detectors import CommitContext, detect_all
from buildref.evaluation import GoldLabel, report_from_json, score
from buildref.llm_backend import PromptMode, PromptSpec, build_prompt, parse_response
from buildref.mining import BuildSystem, MiningFilter, mine_commits
from buildref.taxonomy import MainCategory, TechnicalDebt
from conftest import build_git_repo, detected_types, make_commit
from test_cli import build_pipeline_repo
from test_detectors import MOVER_FIXTURES, _mover_files
from test_mining import MATCHING_INDICES, TEN_COMMITS


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {name}")
                raise
            print(f"criterion {number}: PASS - {name} ({time.perf_counter() - started:.2f}s)")

        return wrapper

    return decorate


@criterion(1, "taxonomy conformance: 24 types, 6 categories sized 3/3/6/3/2/7, 8 build-specific")
def test_criterion_1_taxonomy_conformance():
    started = time.perf_counter()
    registry = taxonomy.registry()
    assert len(registry) == 24
    sizes = Counter(t.category for t in registry)
    assert sizes == {
        MainCategory.BUILD_CODE_CLEAN_UP: 3,
        MainCategory.MODULE_HIERARCHY_ORGANIZATION: 3,
        MainCategory.SUBROUTINE_ORGANIZATION: 6,
        MainCategory.DEPENDENCY_ORGANIZATION: 3,
        MainCategory.SYNCHRONIZING_SHARED_BUILD_PROPERTIES: 2,
        MainCategory.VARIABLES_ORGANIZATION: 7,
    }
    assert sum(t.build_specific for t in registry) == 8
    assert time.perf_counter() - started < 1.0


@criterion(2, "exemplar suite: the five canonical diffs all detected with correct evidence files")
def test_criterion_2_exemplar_suite():
    started = time.perf_counter()
    hits = 0
    for name, (ident, before, after, expected) in sorted(fixtures.EXEMPLAR_CASES.items()):
        detections = detect_all(CommitContext.from_commit(make_commit(before, after)))
        matching = [d for d in detections if d.type == expected]
        assert matching, f"{expected} missed on {name}"
        for det in matching:
            assert {e.path for e in det.evidence} <= set(before) | set(after)
        hits += 1
    assert hits == 5
    assert time.perf_counter() - started < 1.0


@criterion(3, "TD mapping: exactly five unmapped types; Externalize Properties carries two debts")
def test_criterion_3_td_mapping():
    unmapped = {t.id for t in taxonomy.registry() if not taxonomy.td_categories_for(t)}
    assert unmapped == {
        "Move Dependency",
        "Extract And Move Variable",
        "Move Variable",
        "Push Down Task",
        "Push Down Variable",
    }
    assert taxonomy.td_categories_for("Externalize Properties") == {
        TechnicalDebt.EXTENSIBILITY_MAINTAINABILITY,
        TechnicalDebt.SECURITY,
    }
    mapped_debts = set()
    for t in taxonomy.registry():
        mapped_debts |= taxonomy.td_categories_for(t)
    assert mapped_debts == set(TechnicalDebt)


def _random_gradle_files(rng):
    names = [f"n{rng.randrange(10_000)}x" for _ in range(3)]
    pieces = []
    for name in names[: rng.randint(0, 3)]:
        shape = rng.randrange(3)
        value = f"v{rng.randrange(100)}"
        if shape == 0:
            pieces.append(f"task {name} {{\n    doLast {{ println '{value}' }}\n}}\n")
        elif shape == 1:
            pieces.append(f"def {name} = '{value}'\n")
        else:
            pieces.append(f"dependencies {{\n    implementation 'org.{name}:core:{value}'\n}}\n")
    content = "".join(pieces) or "// empty\n"
    files = {}
    for prefix in rng.sample(["", "sub/", "lib/", "app/"], rng.randint(1, 3)):
        files[f"{prefix}build.gradle"] = content
    return files


@criterion(4, "detector properties on >=100 random fixtures each: nullity, permutation, antisymmetry")
def test_criterion_4_detector_properties():
    rng = random.Random(77)

    # no-change nullity
    for _ in range(100):
        files = _random_gradle_files(rng)
        commit = make_commit(files, files, keep_equal=True)
        assert detect_all(CommitContext.from_commit(commit)) == set()

    # file-order permutation invariance
    for _ in range(100):
        before = _random_gradle_files(rng)
        after = _random_gradle_files(rng)
        commit = make_commit(before, after)
        flipped = commit._replace(file_diffs=tuple(reversed(commit.file_diffs)))
        assert detect_all(CommitContext.from_commit(commit)) == detect_all(
            CommitContext.from_commit(flipped)
        )

    # pull-up/push-down antisymmetry for the dependency, variable, and task movers
    kinds = sorted(MOVER_FIXTURES)
    for i in range(102):
        kind = kinds[i % 3]
        _, up_type, down_type, _ = MOVER_FIXTURES[kind]
        name = f"m{rng.randrange(10_000)}q"
        value = f"v{rng.randrange(100)}"
        child = rng.choice(["sub", "app", "modules/core"])
        before, after = _mover_files(kind, name, value, child)
        up = detected_types(before, after)
        down = detected_types(after, before)
        assert up_type in up and down_type not in up
        assert down_type in down and up_type not in down


@criterion(5, "metric correctness: derived fixture to 1e-9, harmonic inequality, macro != micro")
def test_criterion_5_metric_correctness():
    from test_evaluation import DERIVED_GOLD, DERIVED_PRED

    report = score(DERIVED_GOLD, DERIVED_PRED)
    assert abs(report.overall_macro.precision - 0.625) < 1e-9
    assert abs(report.overall_macro.recall - 0.875) < 1e-9
    assert abs(report.overall_macro.f1 - 17 / 24) < 1e-9
    assert abs(report.overall_micro.f1 - 5 / 7) < 1e-9

    rng = random.Random(1234)
    checked = 0
    commit = "9" * 40
    for _ in range(1000):
        tp, fp, fn = rng.randint(0, 25), rng.randint(0, 25), rng.randint(0, 25)
        gold = [GoldLabel(commit, ("DRY",) * (tp + fn))]
        pred = [(commit, ["DRY"] * (tp + fp))]
        m = score(gold, pred).per_type.get("DRY")
        if m is None:
            continue
        assert m.f1 <= (m.precision + m.recall) / 2 + 1e-12
        checked += 1
    assert checked >= 900

    # two-type fixture where macro and micro visibly disagree
    assert abs(report.overall_macro.f1 - report.overall_micro.f1) > 1e-3


@criterion(6, "prompt contract: verbatim instruction, output keys, sentinel, one-shot superset")
def test_criterion_6_prompt_contract():
    _, before, after, _ = fixtures.EXEMPLAR_CASES["extract_task"]
    commit = make_commit(before, after)
    zero = build_prompt(commit, PromptSpec(PromptMode.ZERO_SHOT, BuildSystem.GRADLE))
    one = build_prompt(commit, PromptSpec(PromptMode.ONE_SHOT, BuildSystem.GRADLE))
    for prompt in (zero, one):
        assert "identify any occurrences of the listed refactoring types" in prompt
        assert "RefactoringType" in prompt
        assert "Details" in prompt
        assert "No refactorings found." in prompt
    assert len(one.split()) > len(zero.split())


@criterion(7, "response parsing: array, object, sentinel, fenced variants, double garbage")
def test_criterion_7_response_parsing(clock):
    array = parse_response('[{"RefactoringType":"Extract Module","Details":"moved"}]')
    assert {d.type for d in array} == {"Extract Module"}
    single = parse_response('{"RefactoringType":"DRY","Details":"loop"}')
    assert {d.type for d in single} == {"DRY"}
    assert parse_response("No refactorings found.") == set()
    assert parse_response("result:\n```json\n[]\n```") == set()
    wrapped = parse_response('Of course! [{"RefactoringType": "Inline Variable", "Details": "x"}] Done.')
    assert {d.type for d in wrapped} == {"Inline Variable"}

    _, before, after, _ = fixtures.EXEMPLAR_CASES["reformat"]
    commit = make_commit(before, after)

    def garbage_transport(url, headers, body, timeout):
        return 200, json.dumps({"choices": [{"message": {"content": "word salad"}}]})

    cfg = llm_backend.LlmConfig(endpoint="http://mock/v1", model="m", max_retries=0)
    try:
        llm_backend.classify_commit(
            commit,
            PromptSpec(PromptMode.ZERO_SHOT, BuildSystem.GRADLE),
            cfg,
            transport=garbage_transport,
        )
        raise AssertionError("expected UnparseableResponseError")
    except llm_backend.UnparseableResponseError:
        pass


@criterion(8, "mining: 10-commit fixture repo yields exactly the 4 matches, newest first, <2s")
def test_criterion_8_mining(tmp_path):
    repo = tmp_path / "repo"
    hashes = build_git_repo(repo, TEN_COMMITS)
    expected = [hashes[i] for i in reversed(MATCHING_INDICES)]
    started = time.perf_counter()
    mined = list(mine_commits(repo, MiningFilter()))
    elapsed = time.perf_counter() - started
    assert [r.commit_hash for r in mined] == expected
    assert elapsed < 2.0


@criterion(9, "end-to-end: mine -> detect(static) -> evaluate reaches macro F1 = 1.0, <5s")
def test_criterion_9_end_to_end(tmp_path):
    repo = tmp_path / "repo"
    hashes, expected_types = build_pipeline_repo(repo)
    gold_path = tmp_path / "gold.jsonl"
    gold_path.write_text(
        "\n".join(
            json.dumps({"commit_hash": h, "types": [t]})
            for h, t in zip(hashes, expected_types)
        )
        + "\n"
    )
    commits = tmp_path / "commits.jsonl"
    preds = tmp_path / "pred.jsonl"
    report_path = tmp_path / "report.json"

    started = time.perf_counter()
    assert run(["mine", "--repo", str(repo), "--out", str(commits)]) == EXIT_OK
    assert run(["detect", "--commits", str(commits), "--backend", "static", "--out", str(preds)]) == EXIT_OK
    assert run(["evaluate", "--gold", str(gold_path), "--pred", str(preds), "--out", str(report_path)]) == EXIT_OK
    elapsed = time.perf_counter() - started

    report = report_from_json(report_path.read_text())
    for type_id in set(expected_types):
        assert report.per_type[type_id].f1 == 1.0, type_id
    assert report.overall_macro.f1 == 1.0
    assert elapsed < 5.0
