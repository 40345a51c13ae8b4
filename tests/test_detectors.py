import dataclasses
import itertools
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
from buildref import detectors
from buildref.build_parsers import BuildElement, BuildModel, ElementKind, tokenize
from buildref.detectors import (
    CommitContext,
    DetectedRefactoring,
    DetectorConfig,
    Evidence,
    detect_all,
    detect_clean_up,
    detect_dependency,
    detect_module_hierarchy,
    detect_properties,
    detect_subroutine,
    detect_variables,
    detection_to_json,
    jaccard,
    sort_key,
)
from buildref.mining import BuildSystem, commit_to_json
from buildref import taxonomy
from conftest import FAKE_HASH, detected_types, make_commit, make_context


# --- similarity helpers ----------------------------------------------------

def test_jaccard_basics():
    assert jaccard(["a", "b"], ["a", "b"]) == 1.0
    assert jaccard([], []) == 1.0
    assert jaccard(["a"], ["b"]) == 0.0
    assert jaccard(["a", "b"], ["b", "c"]) == pytest.approx(1 / 3)


# --- exemplar diff fixtures -----------------------------------------------

@pytest.mark.parametrize("name", sorted(fixtures.EXEMPLAR_CASES))
def test_exemplar_fixture_detected_with_evidence(name):
    _, before, after, expected = fixtures.EXEMPLAR_CASES[name]
    detections = detect_all(make_context(before, after))
    matching = [d for d in detections if d.type == expected]
    assert matching, f"{expected} not detected; got {sorted(d.type for d in detections)}"
    fixture_paths = set(before) | set(after)
    for det in matching:
        assert det.evidence
        assert {e.path for e in det.evidence} <= fixture_paths
        assert det.backend == "static"
        assert det.confidence == 1.0


@pytest.mark.parametrize("name,before,after,expected", fixtures.PIPELINE_CASES)
def test_pipeline_case_detects_exactly_its_type(name, before, after, expected):
    assert detected_types(before, after) == {expected}


def test_combined_exemplar_commit_detects_both():
    # oracle: the union of running each single-refactoring fixture separately
    _, ref_before, ref_after, _ = fixtures.EXEMPLAR_CASES["reformat"]
    _, sch_before, sch_after, _ = fixtures.EXEMPLAR_CASES["scheduling"]
    single = detected_types(ref_before, ref_after) | detected_types(sch_before, sch_after)
    combined = detected_types({**ref_before, **sch_before}, {**ref_after, **sch_after})
    assert combined == single == {"Reformat Code", "Scheduling Tasks"}


def test_empty_diff_detects_nothing():
    commit = make_commit({}, {})
    assert detect_all(CommitContext.from_commit(commit)) == set()


# --- clean up ------------------------------------------------------------------

def test_reformat_requires_semantic_equality():
    before = {"build.gradle": "apply plugin: 'jacoco'\n"}
    after = {"build.gradle": "plugins {\n    id 'checkstyle'\n}\n"}
    assert "Reformat Code" not in detected_types(before, after)


def test_whitespace_only_reformat():
    before = {"build.gradle": "task a {\n    doLast { println 'x' }\n}\n"}
    after = {"build.gradle": "task a {\n  doLast {\n    println 'x'\n  }\n}\n"}
    assert detected_types(before, after) == {"Reformat Code"}


def test_rename_needs_similar_body():
    before = {"build.xml": '<project><target name="a"><javac srcdir="s"/></target></project>'}
    after = {"build.xml": '<project><target name="b"><junit haltonfailure="yes"/></target></project>'}
    assert "Rename Field" not in detected_types(before, after)


def test_renamed_task_keeps_remove_unused_quiet():
    types = detected_types(
        {"ant_rename/build.xml": fixtures.RENAME_BEFORE},
        {"ant_rename/build.xml": fixtures.RENAME_AFTER},
    )
    assert types == {"Rename Field"}


def test_referenced_deletion_is_not_unused():
    before = {
        "build.gradle": "def flag = 'on'\ntask use {\n    doLast { println flag }\n}\n"
    }
    after = {"build.gradle": "task use {\n    doLast { println flag }\n}\n"}
    assert "Remove Unused Code" not in detected_types(before, after)


# --- module hierarchy ------------------------------------------------------------

PULL_UP_MODULE_BEFORE = {
    "lib/pom.xml": "<project><artifactId>lib</artifactId>"
    "<properties><spring.version>6.0.1</spring.version><junit.version>5.9.2</junit.version></properties></project>",
}
PULL_UP_MODULE_AFTER = {
    "lib/pom.xml": "<project><artifactId>lib</artifactId></project>",
    "pom.xml": "<project><artifactId>parent</artifactId>"
    "<modules><module>lib</module></modules>"
    "<properties><spring.version>6.0.1</spring.version><junit.version>5.9.2</junit.version></properties></project>",
}


def test_extract_and_pull_up_module():
    assert "Extract And Pull Up Module" in detected_types(PULL_UP_MODULE_BEFORE, PULL_UP_MODULE_AFTER)


def test_detect_output_does_not_depend_on_hash_seed(tmp_path):
    # both properties move on line 1 of both files: two Pull Up Properties
    # detections share type and evidence, and the dedupe must keep the same one
    commits = tmp_path / "commits.jsonl"
    commits.write_text(commit_to_json(make_commit(PULL_UP_MODULE_BEFORE, PULL_UP_MODULE_AFTER)) + "\n")
    src = str(Path(detectors.__file__).parents[1])
    outputs = set()
    for seed in ("5", "6", "7", "10"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "buildref.cli", "detect", "--commits", str(commits), "--out", "-"],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    assert '"Pull Up Properties"' in outputs.pop()


def test_extract_and_push_down_module():
    before = {
        "build.gradle": "apply plugin: 'java'\ntask dockerImage {\n    doLast { println 'image' }\n}\n",
    }
    after = {
        "build.gradle": "apply plugin: 'java'\n",
        "docker/build.gradle": "task dockerImage {\n    doLast { println 'image' }\n}\n",
    }
    assert "Extract And Push Down Module" in detected_types(before, after)


def test_module_extraction_requires_new_file():
    # same move, but the destination file already existed: no module claim
    before = {
        "build.gradle": "apply plugin: 'java'\ntask dockerImage {\n    doLast { println 'image' }\n}\n",
        "docker/build.gradle": "// placeholder\n",
    }
    after = {
        "build.gradle": "apply plugin: 'java'\n",
        "docker/build.gradle": "task dockerImage {\n    doLast { println 'image' }\n}\n",
    }
    types = detected_types(before, after)
    assert "Extract And Push Down Module" not in types
    assert "Push Down Task" in types  # it is still a task move


# --- subroutines --------------------------------------------------------------------

def test_extract_method_fixture():
    before = {
        "build.gradle": "task stamp {\n    doLast {\n        def ts = new Date().format('yyyyMMdd')\n"
        "        file('v.txt').text = ts + project.name\n    }\n}\n"
    }
    after = {
        "build.gradle": "def buildStamp() {\n    def ts = new Date().format('yyyyMMdd')\n"
        "    return ts + project.name\n}\ntask stamp {\n    doLast {\n"
        "        file('v.txt').text = buildStamp()\n    }\n}\n"
    }
    assert "Extract Method" in detected_types(before, after)


def test_scheduling_not_claimed_when_other_changes_present():
    _, before, after, _ = fixtures.EXEMPLAR_CASES["extract_task"]
    assert "Scheduling Tasks" not in detected_types(before, after)


def test_gradle_ordering_statement_is_scheduling():
    before = {"build.gradle": "task a {\n    doLast { println 1 }\n}\ntask b {\n    doLast { println 2 }\n}\n"}
    after = {
        "build.gradle": "task a {\n    doLast { println 1 }\n}\ntask b {\n    doLast { println 2 }\n}\nb.mustRunAfter(a)\n"
    }
    assert detected_types(before, after) == {"Scheduling Tasks"}


def test_dry_requires_loop_and_fewer_tokens():
    # two dissimilar tasks deleted and a loop added: not DRY
    before = {
        "build.gradle": "task alpha {\n    doLast { println 'a' }\n}\n"
        "task omega(type: Exec) {\n    commandLine 'make', 'all', '-j4'\n    workingDir 'src'\n}\n"
    }
    after = {"build.gradle": "['x'].each { n ->\n    task \"$n\" {\n        doLast { println n }\n    }\n}\n"}
    assert "DRY" not in detected_types(before, after)


# --- direction and movement properties ------------------------------------------

MOVER_FIXTURES = {
    "dependency": (
        lambda name, value: f"dependencies {{\n    implementation '{name}:core:{value}'\n}}\n",
        "Pull Up Dependency",
        "Push Down Dependency",
        "Move Dependency",
    ),
    "variable": (
        lambda name, value: f"def {name} = '{value}'\n",
        "Pull Up Variable",
        "Push Down Variable",
        "Move Variable",
    ),
    "task": (
        lambda name, value: f"task {name} {{\n    doLast {{ println '{value}' }}\n}}\n",
        "Pull Up Method",
        "Push Down Task",
        None,
    ),
}


def _mover_files(kind, name, value, child_dir="sub"):
    snippet = MOVER_FIXTURES[kind][0](name, value)
    filler = "apply plugin: 'base'\n"
    before = {"build.gradle": filler, f"{child_dir}/build.gradle": snippet}
    after = {"build.gradle": filler + snippet, f"{child_dir}/build.gradle": "// moved\n"}
    return before, after


@pytest.mark.parametrize("kind", sorted(MOVER_FIXTURES))
def test_pull_up_and_push_down_antisymmetry(kind):
    _, up_type, down_type, _ = MOVER_FIXTURES[kind]
    before, after = _mover_files(kind, "payload", "v17")
    assert up_type in detected_types(before, after)
    assert down_type in detected_types(after, before)


def test_move_symmetry_for_dependencies():
    before = {"movedep/moduleA/pom.xml": fixtures.MOVE_DEP_A_BEFORE,
              "movedep/moduleB/pom.xml": fixtures.MOVE_DEP_B_BEFORE}
    after = {"movedep/moduleA/pom.xml": fixtures.MOVE_DEP_A_AFTER,
             "movedep/moduleB/pom.xml": fixtures.MOVE_DEP_B_AFTER}
    assert "Move Dependency" in detected_types(before, after)
    assert "Move Dependency" in detected_types(after, before)


def test_multiple_dependencies_emit_one_detection_each():
    before = {
        "pullup/build.gradle": "apply plugin: 'java'\n",
        "pullup/sub/build.gradle": "dependencies {\n    implementation 'a:x:1'\n    implementation 'b:y:2'\n}\n",
    }
    after = {
        "pullup/build.gradle": "apply plugin: 'java'\ndependencies {\n    implementation 'a:x:1'\n    implementation 'b:y:2'\n}\n",
        "pullup/sub/build.gradle": "\n",
    }
    detections = detect_all(make_context(before, after))
    pulled = [d for d in detections if d.type == "Pull Up Dependency"]
    assert len(pulled) == 2


# --- properties ---------------------------------------------------------------------

def test_pull_up_properties_maven_scm():
    before = {
        "core/pom.xml": "<project><artifactId>core</artifactId>"
        "<scm><url>http://example.org/scm</url></scm></project>",
        "pom.xml": "<project><artifactId>parent</artifactId>"
        "<modules><module>core</module></modules></project>",
    }
    after = {
        "core/pom.xml": "<project><artifactId>core</artifactId></project>",
        "pom.xml": "<project><artifactId>parent</artifactId>"
        "<modules><module>core</module></modules>"
        "<scm><url>http://example.org/scm</url></scm></project>",
    }
    assert "Pull Up Properties" in detected_types(before, after)


def test_property_moved_into_properties_file_is_externalize():
    before = {
        "build.gradle": "ext.dbHost = 'prod.example.org'\n",
        "gradle.properties": "# empty\n",
    }
    after = {
        "build.gradle": "// host now configured externally\n",
        "gradle.properties": "dbHost = prod.example.org\n",
    }
    assert "Externalize Properties" in detected_types(before, after)


# --- variables ------------------------------------------------------------------------

def test_extract_and_pull_up_variable():
    before = {
        "build.gradle": "apply plugin: 'base'\n",
        "app/build.gradle": "targetSdk = '33'\ncompileSdk = '33'\n",
    }
    after = {
        "build.gradle": "apply plugin: 'base'\ndef sdkLevel = '33'\n",
        "app/build.gradle": "targetSdk = sdkLevel\ncompileSdk = sdkLevel\n",
    }
    assert "Extract And Pull Up Variable" in detected_types(before, after)


def test_extract_and_move_variable():
    before = {
        "tools/build.gradle": "apply plugin: 'base'\n",
        "app/build.gradle": "minSdkVersion = '24'\n",
    }
    after = {
        "tools/build.gradle": "apply plugin: 'base'\ndef minSdk = '24'\n",
        "app/build.gradle": "minSdkVersion = minSdk\n",
    }
    assert "Extract And Move Variable" in detected_types(before, after)


def test_inline_variable_single_use():
    before = {"build.gradle": "def v = '1.0'\ntask pack(type: Zip) {\n    archiveVersion = v\n    from 'dist'\n}\n"}
    after = {"build.gradle": "task pack(type: Zip) {\n    archiveVersion = '1.0'\n    from 'dist'\n}\n"}
    assert detected_types(before, after) == {"Inline Variable"}


def test_extract_variable_needs_two_uses():
    before = {"build.gradle": "sourceCompatibility = '1.8'\n"}
    after = {"build.gradle": "def javaLevel = '1.8'\nsourceCompatibility = javaLevel\n"}
    assert "Extract Variable" not in detected_types(before, after)


# --- global invariants ---------------------------------------------------------

def test_detection_types_are_registry_ids():
    for _, before, after, _ in fixtures.PIPELINE_CASES:
        for det in detect_all(make_context(before, after)):
            taxonomy.get_type(det.type)


def test_static_confidence_is_pinned():
    with pytest.raises(ValueError):
        DetectedRefactoring(
            type="DRY", details="x", evidence=(), backend="static", confidence=0.5
        )


def test_evidence_spans_exist_in_cited_versions():
    for _, before, after, _ in fixtures.PIPELINE_CASES:
        ctx = make_context(before, after)
        for det in detect_all(ctx):
            for ev in det.evidence:
                texts = before if ev.role == "source" else after
                assert ev.path in texts
                line_count = texts[ev.path].count("\n") + 1
                assert 1 <= ev.span[0] <= ev.span[1] <= line_count


def test_detection_json_round_trip():
    """A detection line has the keys, in order, of the README's detection-line schema."""
    det = DetectedRefactoring(
        type="Extract Module",
        details="moved publish logic",
        evidence=(Evidence("build.gradle", (2, 10), "source"),),
    )
    obj = json.loads(detection_to_json(FAKE_HASH, det))
    assert list(obj) == ["commit_hash", "RefactoringType", "Details", "evidence", "backend", "confidence"]
    assert obj == {
        "commit_hash": FAKE_HASH,
        "RefactoringType": "Extract Module",
        "Details": "moved publish logic",
        "evidence": [{"path": "build.gradle", "start_line": 2, "end_line": 10, "role": "source"}],
        "backend": "static",
        "confidence": 1.0,
    }


# --- property-based suites (acceptance criterion: >=100 random fixtures each) ----

_NAMES = st.from_regex(r"[a-z][a-zA-Z0-9]{2,8}", fullmatch=True).filter(
    lambda s: s not in {"task", "def", "ext", "apply", "include", "plugins", "dependencies", "each", "for"}
)
_VALUES = st.from_regex(r"[a-z0-9.]{1,10}", fullmatch=True)


@st.composite
def gradle_content(draw):
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        shape = draw(st.integers(0, 2))
        name = draw(_NAMES)
        value = draw(_VALUES)
        if shape == 0:
            parts.append(f"task {name} {{\n    doLast {{ println '{value}' }}\n}}\n")
        elif shape == 1:
            parts.append(f"def {name} = '{value}'\n")
        else:
            parts.append(f"dependencies {{\n    implementation 'org.{name}:core:{value}'\n}}\n")
    return "".join(parts) or "// empty\n"


@st.composite
def file_set(draw):
    n = draw(st.integers(1, 3))
    files = {}
    for i in range(n):
        prefix = draw(st.sampled_from(["", "sub/", "lib/", "app/"]))
        path = f"{prefix}build.gradle"
        if path not in files:
            files[path] = draw(gradle_content())
    return files


@settings(max_examples=100, deadline=None)
@given(file_set())
def test_no_change_nullity_property(files):
    commit = make_commit(files, files, keep_equal=True)
    ctx = CommitContext.from_commit(commit)
    assert detect_all(ctx) == set()


@settings(max_examples=100, deadline=None)
@given(file_set(), file_set())
def test_file_order_permutation_invariance(before, after):
    commit = make_commit(before, after)
    reversed_commit = dataclasses.replace(commit, file_diffs=tuple(reversed(commit.file_diffs)))
    result_a = detect_all(CommitContext.from_commit(commit))
    result_b = detect_all(CommitContext.from_commit(reversed_commit))
    assert result_a == result_b


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(MOVER_FIXTURES)),
    _NAMES,
    _VALUES,
    st.sampled_from(["sub", "app", "modules/core"]),
)
def test_antisymmetry_property(kind, name, value, child_dir):
    _, up_type, down_type, _ = MOVER_FIXTURES[kind]
    before, after = _mover_files(kind, name, value, child_dir)
    up = detected_types(before, after)
    down = detected_types(after, before)
    assert up_type in up and down_type not in up
    assert down_type in down and up_type not in down


# --- the shared per-commit index ----------------------------------------------

GOLDEN = Path(__file__).parent / "golden_detections.jsonl"


def test_fixture_detections_match_golden_file():
    """Static detections of every fixture, byte for byte (the fixture name
    stands in for the commit hash). EXEMPLAR_CASES are PIPELINE_CASES entries."""
    assert all(case in fixtures.PIPELINE_CASES for case in fixtures.EXEMPLAR_CASES.values())
    lines = []
    for name, before, after, _ in fixtures.PIPELINE_CASES:
        for det in sorted(detect_all(make_context(before, after)), key=sort_key):
            lines.append(detection_to_json(name, det) + "\n")
    assert "".join(lines) == GOLDEN.read_text(encoding="utf-8")


_REF_TEXT = st.text(alphabet="ab${}@", max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.lists(_REF_TEXT, max_size=10), st.lists(_REF_TEXT, max_size=3), st.data())
def test_reference_count_equals_token_predicate(tokens, values, data):
    candidates = [t[i:j] for t in tokens + values for i in range(len(t)) for j in range(i + 1, len(t) + 1)]
    name = data.draw(st.sampled_from(candidates) if candidates else _REF_TEXT.filter(bool))
    user = BuildElement(ElementKind.TASK, name, tuple(tokens), {str(i): v for i, v in enumerate(values)}, (1, 1))
    other = BuildElement(ElementKind.TASK, "other", tuple(tokens), {}, (2, 2))
    model = BuildModel(BuildSystem.GRADLE, (user, other), (), "build.gradle")
    index = detectors._ModelIndex(model)
    own = sum(detectors._token_matches_name(t, name) for t in tokens + [t for v in values for t in tokenize(v)])
    from_other = sum(detectors._token_matches_name(t, name) for t in tokens)
    assert index.reference_count(name) == own + from_other
    assert index.reference_count(name, exclude=user) == from_other


def test_failing_detector_is_logged_and_skipped(monkeypatch, caplog):
    def broken(ctx, config):
        ctx.changes  # the shared index is built before the failure
        raise RuntimeError("boom")

    monkeypatch.setattr(
        detectors, "_CATEGORY_DETECTORS", (broken,) + detectors._CATEGORY_DETECTORS
    )
    _, before, after, expected = fixtures.EXEMPLAR_CASES["dry"]
    with caplog.at_level(logging.WARNING, logger="buildref.detectors"):
        found = detect_all(make_context(before, after))
    assert {d.type for d in found} == {expected}
    assert any(
        r.getMessage() == f"broken failed on commit {FAKE_HASH}" and r.exc_info for r in caplog.records
    )


def test_sort_key_orders_evidence_past_the_first_entry():
    # two Extract Module splits in sibling directories: each new file pairs
    # with both sources, so detections tie on type and first evidence path
    b, a, new = fixtures.EXTRACT_MODULE_BEFORE, fixtures.EXTRACT_MODULE_MAIN_AFTER, fixtures.EXTRACT_MODULE_NEW_FILE
    before = {"a/build.gradle": b, "b/build.gradle": b}
    after = {"a/build.gradle": a, "a/docs.gradle": new, "b/build.gradle": a, "b/docs.gradle": new}
    found = sorted(detect_all(make_context(before, after)), key=sort_key)
    assert [(d.type, d.evidence[0].path, d.evidence[1].path) for d in found] == [
        ("Extract Module", "a/build.gradle", "a/docs.gradle"),
        ("Extract Module", "a/build.gradle", "b/docs.gradle"),
        ("Extract Module", "b/build.gradle", "a/docs.gradle"),
        ("Extract Module", "b/build.gradle", "b/docs.gradle"),
    ]


def test_sort_key_orders_evidence_free_detections_by_details():
    # LLM detections carry no evidence; a set hands them over in an order
    # that depends on the hash seed
    dets = [
        DetectedRefactoring("Extract Variable", details, (), backend="llm")
        for details in ("c", "a", "b")
    ]
    for order in itertools.permutations(dets):
        assert [d.details for d in sorted(order, key=sort_key)] == ["a", "b", "c"]
