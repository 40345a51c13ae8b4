import functools
import hashlib
import itertools
import json
import logging
import os
import posixpath
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
from buildref import detectors
from buildref.build_parsers import BuildElement, BuildModel, ElementKind, parse_build_file, tokenize
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
    assert jaccard((), ("a",)) == jaccard(("a",), ()) == 0.0
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


def test_deletion_with_a_similar_unnamed_arrival_is_not_unused():
    # the target lost its name but kept its body: an unnamed element counts as arrived
    javac = '<javac srcdir="src" destdir="out"/>'
    before = {"build.xml": f'<project name="p">\n<target name="build">\n{javac}\n</target>\n</project>\n'}
    after = {"build.xml": f'<project name="p">\n<target>\n{javac}\n</target>\n</project>\n'}
    assert "Remove Unused Code" not in detected_types(before, after)


@pytest.mark.parametrize("name,expected", [("p", {"Remove Unused Code"}), ("zz", {"Remove Unused Code"}), ("app", set())])
def test_a_module_link_references_a_name_only_as_a_whole_path_component(name, expected):
    # "p" is a letter of "app" but not the module "app"; a property named "app" is referenced
    def pom(properties):
        return f"<project>\n<modules><module>app</module></modules>\n<properties>{properties}</properties>\n</project>\n"

    before = {"pom.xml": pom(f"<{name}>1</{name}><keep>2</keep>")}
    after = {"pom.xml": pom("<keep>2</keep>")}
    assert detected_types(before, after) == expected


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


def test_extract_method_with_half_its_body_from_the_host():
    # 4 of the new method's 8 tokens (println one println two) left the task: exactly half is enough
    before = {"build.gradle": "task stamp {\n    doLast {\n        println 'one'\n        println 'two'\n"
              "        println 'keep'\n    }\n}\n"}
    after = {"build.gradle": "def greet() {\n    println 'one'\n    println 'two'\n    done\n}\n"
             "task stamp {\n    doLast {\n        greet()\n        println 'keep'\n    }\n}\n"}
    assert detected_types(before, after) == {"Extract Method"}


def test_scheduling_not_claimed_when_other_changes_present():
    _, before, after, _ = fixtures.EXEMPLAR_CASES["extract_task"]
    assert "Scheduling Tasks" not in detected_types(before, after)


def test_gradle_ordering_statement_is_scheduling():
    before = {"build.gradle": "task a {\n    doLast { println 1 }\n}\ntask b {\n    doLast { println 2 }\n}\n"}
    after = {
        "build.gradle": "task a {\n    doLast { println 1 }\n}\ntask b {\n    doLast { println 2 }\n}\nb.mustRunAfter(a)\n"
    }
    assert detected_types(before, after) == {"Scheduling Tasks"}


def test_ordering_statement_beside_an_unchanged_unnamed_block_is_scheduling():
    loop = "['x', 'y'].each { name ->\n    task \"copy$name\"(type: Copy)\n}\n"
    before = {"build.gradle": f"task a {{\n    doLast {{ println 1 }}\n}}\n{loop}"}
    after = {"build.gradle": f"task a {{\n    doLast {{ println 1 }}\n}}\n{loop}b.mustRunAfter(a)\n"}
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


HIERARCHY_TYPES = {
    "Pull Up Dependency", "Push Down Dependency", "Move Dependency", "Pull Up Variable", "Push Down Variable",
    "Move Variable", "Pull Up Properties", "Pull Up Method", "Push Down Task", "Extract And Move Variable",
    "Extract And Pull Up Variable", "Extract Module", "Extract And Pull Up Module", "Extract And Push Down Module",
}


def test_hierarchy_table_names_the_14_types_and_keeps_the_holes():
    category = {
        "dependency": taxonomy.MainCategory.DEPENDENCY_ORGANIZATION,
        "variable": taxonomy.MainCategory.VARIABLES_ORGANIZATION,
        "extracted variable": taxonomy.MainCategory.VARIABLES_ORGANIZATION,
        "property": taxonomy.MainCategory.SYNCHRONIZING_SHARED_BUILD_PROPERTIES,
        "externalized": taxonomy.MainCategory.SYNCHRONIZING_SHARED_BUILD_PROPERTIES,
        "subroutine": taxonomy.MainCategory.SUBROUTINE_ORGANIZATION,
        "module": taxonomy.MainCategory.MODULE_HIERARCHY_ORGANIZATION,
    }
    table = detectors._HIERARCHY_TYPES
    for (family, relation), (type_id, _) in table.items():
        assert relation in ("ancestor", "descendant", "sibling")
        assert taxonomy.get_type(type_id).category is category[family]
    assert {type_id for type_id, _ in table.values()} == HIERARCHY_TYPES | {"Externalize Properties"}
    for hole in (("subroutine", "sibling"), ("property", "descendant"), ("property", "sibling")):
        assert hole not in table
    # a script's property moved into a .properties file is externalized, whatever the relation
    el = BuildElement(ElementKind.PROPERTY, "p", (), {}, (1, 1))
    family = lambda src, dst: detectors._Move(ElementKind.PROPERTY, "p", src, dst, el, el).family
    assert family("sub/build.gradle", "gradle.properties") == "externalized"
    assert family("gradle.properties", "sub/gradle.properties") == "property"
    assert {("externalized", r) for r in ("ancestor", "descendant", "sibling")} <= table.keys()


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


def test_move_cites_the_first_arrival_of_its_key():
    before = {
        "build.gradle": "apply plugin: 'java'\n",
        "sub/build.gradle": "dependencies {\n    implementation 'org.acme:lib:1.0'\n}\n",
    }
    after = {
        "build.gradle": "apply plugin: 'java'\ndependencies {\n    implementation 'org.acme:lib:1.0'\n"
        "    testImplementation 'org.acme:lib:1.0'\n}\n",
        "sub/build.gradle": "apply plugin: 'java'\n",
    }
    (pulled,) = [d for d in detect_all(make_context(before, after)) if d.type == "Pull Up Dependency"]
    assert pulled.evidence == (
        Evidence("sub/build.gradle", (2, 2), "source"), Evidence("build.gradle", (3, 3), "destination"),
    )


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


def test_in_file_externalization_cites_a_removed_anchor_as_source():
    # the first of two definitions changes and the second is removed; the after
    # version keeps an equal definition on the removed one's line
    before = {"build.gradle": "version = '1.0'\nversion = '2.0'\n"}
    after = {"build.gradle": "ext.configFile = file \"build.properties\"\nversion = '2.0'\n"}
    found = [d.evidence for d in detect_all(make_context(before, after)) if d.type == "Externalize Properties"]
    assert found == [(Evidence("build.gradle", (2, 2), "source"),)]


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


def test_moved_definition_is_not_inlined():
    # the child's use is inlined as its definition moves up: a move, not an Inline Variable
    before = {
        "build.gradle": "apply plugin: 'base'\n",
        "app/build.gradle": "def v = '1.0'\ntask pack(type: Zip) {\n    archiveVersion = v\n    from 'dist'\n}\n",
    }
    after = {
        "build.gradle": "apply plugin: 'base'\ndef v = '1.0'\n",
        "app/build.gradle": "task pack(type: Zip) {\n    archiveVersion = '1.0'\n    from 'dist'\n}\n",
    }
    assert detected_types(before, after) == {"Pull Up Variable"}


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
    reversed_commit = commit._replace(file_diffs=tuple(reversed(commit.file_diffs)))
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


def _pom_declaring_twice(versions, extra=""):
    props = "".join(f"<lib.version>{v}</lib.version>\n" for v in versions) + extra
    deps = "".join(
        f"<dependency><groupId>org.x</groupId><artifactId>lib</artifactId><version>{v}</version></dependency>\n"
        for v in versions
    )
    return f"<project>\n<properties>\n{props}</properties>\n<dependencies>\n{deps}</dependencies>\n</project>\n"


def _gradle_declaring_twice(versions, extra=""):
    props = "".join(f"ext.libVersion = '{v}'\n" for v in versions) + extra
    deps = "".join(f"    implementation 'org.x:lib:{v}'\n" for v in versions)
    return f"{props}dependencies {{\n{deps}}}\n"


# (path, before, after, pairs in `changes`, detections as (type, spans)); each
# file declares one dependency and one property twice, then once or three times
_OLD_PROPERTY = "<old.version>9</old.version>\n"
_CONFIG_READ = 'ext.configFile = file "build.properties"\n'
_REPEATED_KEYS = [
    ("pom.xml", _pom_declaring_twice(["1", "2"], _OLD_PROPERTY), _pom_declaring_twice(["3"]),
     {"modified": [(8, 6), (3, 3)], "removed": [9, 4, 5], "added": []},
     [("Remove Unused Code", [(5, 5)])]),
    ("pom.xml", _pom_declaring_twice(["1", "2"], _OLD_PROPERTY), _pom_declaring_twice(["3", "4", "5"]),
     {"modified": [(8, 8), (9, 9), (3, 3), (4, 4)], "removed": [5], "added": [10, 5]},
     [("Remove Unused Code", [(5, 5)])]),
    ("build.gradle", _gradle_declaring_twice(["1", "2"]), _gradle_declaring_twice(["3"], _CONFIG_READ),
     {"modified": [(4, 4), (1, 1)], "removed": [5, 2], "added": [2]},
     [("Externalize Properties", [(2, 2)])]),
    ("build.gradle", _gradle_declaring_twice(["1", "2"]), _gradle_declaring_twice(["3", "4", "5"], _CONFIG_READ),
     {"modified": [(4, 6), (5, 7), (1, 1), (2, 2)], "removed": [], "added": [8, 4, 3]},
     []),
]


@pytest.mark.parametrize("path, before, after, pairs, expected", _REPEATED_KEYS)
def test_repeated_keys_pair_their_copies_in_file_order(path, before, after, pairs, expected):
    ctx = make_context({path: before}, {path: after})
    changes = ctx.changes[path]
    assert {
        "modified": [(b.span[0], a.span[0]) for b, a in changes.modified],
        "removed": [el.span[0] for el in changes.removed],
        "added": [el.span[0] for el in changes.added],
    } == pairs
    repeated = {(ElementKind.DEPENDENCY, "org.x:lib"), (ElementKind.PROPERTY, "lib.version"),
                (ElementKind.PROPERTY, "libVersion")}
    assert not [el for _, el in ctx.vanished + ctx.appeared if (el.kind, el.name) in repeated]
    found = sorted(detect_all(ctx), key=sort_key)
    assert [(d.type, [e.span for e in d.evidence]) for d in found] == expected


def test_name_index_holds_a_dict_slot_per_named_element():
    count = 4000
    model = parse_build_file("gradle.properties", "".join(f"key{i} = value{i}\n" for i in range(count)))
    index = detectors._ModelIndex(model)
    tracemalloc.start()
    try:
        index.named(ElementKind.PROPERTY, "key0")  # builds the name index
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert index.named(ElementKind.PROPERTY, f"key{count - 1}") == (model.elements[-1],)
    assert held / count < 64


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


# --- a golden corpus of drawn multi-file commits ------------------------------

GOLDEN_COMMITS = Path(__file__).parent / "golden_commit_detections.jsonl"

# A drawn commit starts from a small project per build system and applies type
# templates to it. A file is a list of (section, text) pieces on each side; a
# template adds a piece to one side or both, so the two sides differ only where
# a template made them differ, and only files that differ enter the commit.
_CORPUS_NAMES = ("alpha", "beta", "gamma", "delta", "omega", "kappa", "sigma", "zeta", "theta", "lambda", "rho", "tau",
                 "iota", "epsilon", "upsilon", "omicron", "chi", "psi", "phi", "nu")
_CORPUS_VALUES = ("1.0", "2.3.1", "33", "17", "4.13.2", "5.9.2", "0.8")
_FAMILIES = {
    "gradle": ("dependency", "variable", "property", "task", "method"),
    "maven": ("dependency", "property"),
    "ant": ("property", "task", "method"),
}
_STYLE = ("    ", "\n")  # indent unit and line ending; a reformat draws another
_RESTYLES = (("  ", "\n"), ("\t", "\n"), ("    ", "\r\n"))


def _system_of(path):
    if path.endswith("pom.xml"):
        return "maven"
    return "ant" if path.endswith("build.xml") else "gradle"


def _holds(path, family):
    if path.endswith("settings.gradle"):
        return False
    if path.endswith(".properties"):
        return family == "property"
    return family in _FAMILIES[_system_of(path)]


def _piece(family, path, n, v):
    """The (section, text) piece that declares ``family`` element ``n`` with value ``v`` in ``path``."""
    if path.endswith("pom.xml"):
        if family == "dependency":
            return ("dependencies", f"<dependency>\n    <groupId>org.{n}</groupId>\n"
                                    f"    <artifactId>{n}-core</artifactId>\n    <version>{v}</version>\n</dependency>")
        return ("properties", f"<{n}.version>{v}</{n}.version>")
    if path.endswith("build.xml"):
        if family == "property":
            return ("top", f'<property name="{n}.dir" value="{v}"/>')
        if family == "task":
            return ("top", f'<target name="{n}">\n    <mkdir dir="out/{v}"/>\n'
                           f'    <echo message="made {v}"/>\n</target>')
        return ("top", f'<macrodef name="{n}">\n    <sequential>\n'
                       f'        <echo message="{v}"/>\n    </sequential>\n</macrodef>')
    if path.endswith(".properties"):
        return ("top", f"{n} = {v}")
    return {
        "dependency": ("deps", f"implementation 'org.{n}:{n}-core:{v}'"),
        "variable": ("top", f"def {n} = '{v}'"),
        "property": ("top", f"ext.{n} = '{v}'"),
        "task": ("top", f"task {n} {{\n    doLast {{\n        println 'made {v}'\n    }}\n}}"),
        "method": ("top", f"def {n}() {{\n    return 'made {v}'\n}}"),
    }[family]


def _gradle_layout(rng):
    """settings.gradle including two subprojects, a root script unless drawn
    away, and properties files at the root and in one subproject."""
    files = {"settings.gradle": [("top", "rootProject.name = 'demo'"), ("top", "include 'sub', 'lib'")]}
    if rng.random() < 0.8:
        files["build.gradle"] = [("top", "apply plugin: 'base'")]
    files["sub/build.gradle"] = [("top", "apply plugin: 'java'")]
    files["lib/build.gradle"] = [("top", "apply plugin: 'java-library'"), ("deps", "api 'org.slf4j:slf4j-api:2.0.7'")]
    files["gradle.properties"] = [("top", "org.gradle.jvmargs = -Xmx1g")]
    files["sub/gradle.properties"] = [("top", "sub.flag = true")]
    return files


def _maven_layout(rng):
    """A parent with two modules: nested under it, or beside it and found
    through relativePath or the parent's coordinates."""
    nested = rng.random() < 0.5
    parent = "pom.xml" if nested else "parent/pom.xml"
    modules = "".join(f"\n    <module>{'' if nested else '../'}{m}</module>" for m in ("core", "app"))
    files = {parent: [("head", "<groupId>org.demo</groupId>"), ("head", "<artifactId>demo-parent</artifactId>"),
                      ("head", f"<modules>{modules}\n</modules>")]}
    for module in ("core", "app"):
        relative = rng.choice(("", "../pom.xml" if nested else "../parent/pom.xml"))
        link = f"\n    <relativePath>{relative}</relativePath>" if relative else ""
        files[f"{module}/pom.xml"] = [
            ("head", f"<parent>\n    <groupId>org.demo</groupId>\n"
                     f"    <artifactId>demo-parent</artifactId>{link}\n</parent>"),
            ("head", f"<artifactId>{module}</artifactId>"),
        ]
    return files


def _ant_layout(rng):
    """An import chain base <- common <- build.xml, and a tools script outside it."""
    return {
        "build.xml": [("top", '<import file="common/build.xml"/>')],
        "common/build.xml": [("top", '<import file="../base/build.xml"/>')],
        "base/build.xml": [("top", '<property name="base.home" location="."/>')],
        "tools/build.xml": [("top", '<target name="lint">\n    <echo message="lint"/>\n</target>')],
    }


_LAYOUTS = {"gradle": _gradle_layout, "maven": _maven_layout, "ant": _ant_layout}


class _DrawnCommit:
    """The pieces of every file of one drawn commit, before and after."""

    def __init__(self, rng, systems):
        self.rng = rng
        self.before = {}
        for system in systems:
            self.before.update(_LAYOUTS[system](rng))
        self.after = {path: list(pieces) for path, pieces in self.before.items()}
        self.styles = {}
        self._names = iter(rng.sample(_CORPUS_NAMES, len(_CORPUS_NAMES)))

    def name(self):
        return next(self._names)

    def value(self):
        return self.rng.choice(_CORPUS_VALUES)

    def holders(self, system, family):
        return [p for p in self.before if _system_of(p) == system and _holds(p, family)]

    def add(self, side, path, *pieces):
        """Insert ``pieces``, in order, at one drawn place in ``path`` on ``side``."""
        at = self.rng.randrange(len(side.setdefault(path, [])) + 1)
        side[path][at:at] = pieces

    def add_both(self, path, before, after):
        """Insert one piece into ``path`` on each side, at the same drawn place."""
        at = self.rng.randrange(len(self.before[path]) + 1)
        self.before[path].insert(at, before)
        self.after[path].insert(min(at, len(self.after[path])), after)

    def render(self, side, index):
        return {p: _render(p, pieces, self.styles.get(p, (_STYLE, _STYLE))[index])
                for p, pieces in side.items() if pieces is not None}


def _render(path, pieces, style):
    unit, eol = style
    sections = {}
    for section, text in pieces:
        sections.setdefault(section, []).append(text)

    def lines(texts, depth):
        for text in texts:
            for line in text.split("\n"):
                body = line.lstrip(" ")
                yield unit * (depth + (len(line) - len(body)) // 4) + body

    out = []
    if path.endswith("pom.xml"):
        out.append("<project>")
        for section in ("head", "properties", "dependencies", "top"):
            wrapped = section in ("properties", "dependencies")
            if section in sections:
                out.extend([f"{unit}<{section}>"] * wrapped)
                out.extend(lines(sections[section], 1 + wrapped))
                out.extend([f"{unit}</{section}>"] * wrapped)
        out.append("</project>")
    elif path.endswith("build.xml"):
        out.append('<project name="demo" default="build">')
        out.extend(lines(sections.get("top", ()), 1))
        out.append("</project>")
    else:
        out.extend(lines(sections.get("top", ()), 0))
        if "deps" in sections:
            out.append("dependencies {")
            out.extend(lines(sections["deps"], 1))
            out.append("}")
    return eol.join(out) + eol


def _relpath(path, start_file):
    return posixpath.relpath(path, posixpath.dirname(start_file) or ".")


# Type templates. Each draws its files and names and edits the commit's sides.

def _t_move(c, system):
    """An element leaves one file and appears in another: the 14 hierarchy
    types, Externalize Properties, and the holes between them."""
    family = c.rng.choice(_FAMILIES[system] + ("property",))  # properties have the most cases
    src, dst = c.rng.sample(c.holders(system, family), 2)
    n, v = c.name(), c.value()
    c.add(c.before, src, _piece(family, src, n, v))
    c.add(c.after, dst, _piece(family, dst, n, c.value() if c.rng.random() < 0.3 else v))  # a version bump on the way


def _t_extract_module(c, system):
    """A block leaves a file for a new file beside it, above it or below it."""
    family = c.rng.choice(_FAMILIES[system])
    src = c.rng.choice([p for p in c.holders(system, family) if not p.endswith(".properties")])
    base = posixpath.dirname(src)
    where = c.rng.choice(("sibling", "descendant", "ancestor"))
    name = {"gradle": "build.gradle", "maven": "pom.xml", "ant": "build.xml"}[system]
    head = []
    if where == "sibling":
        new = posixpath.join(base, "publish.gradle") if system == "gradle" else f"extra/{name}"
    elif where == "descendant":
        new = posixpath.join(base, "ext", name)
        if system == "maven":
            head = [("head", f"<parent>\n    <relativePath>{_relpath(src, new)}</relativePath>\n</parent>")]
        elif system == "ant":
            head = [("top", f'<import file="{_relpath(src, new)}"/>')]
    elif system == "gradle":
        new = name if base and name not in c.before else posixpath.join(base, "shared.gradle")
    else:
        new = f"shared/{name}"
        if system == "maven":
            head = [("head", f"<modules>\n    <module>{posixpath.dirname(_relpath(src, new))}</module>\n</modules>")]
        else:
            c.add(c.after, src, ("top", f'<import file="{_relpath(new, src)}"/>'))
    if new in c.before:
        return
    block = [_piece(family, src, c.name(), c.value()) for _ in range(c.rng.choice((1, 2)))]
    c.add(c.before, src, *block)
    c.after.setdefault(new, []).extend(head)
    c.add(c.after, new, *block)


def _t_rename(c, system):
    family = c.rng.choice([f for f in _FAMILIES[system] if f != "dependency"])
    path = c.rng.choice(c.holders(system, family))
    v = c.value()
    c.add(c.before, path, _piece(family, path, c.name(), v))
    c.add(c.after, path, _piece(family, path, c.name(), v))


def _t_remove_unused(c, system):
    family = c.rng.choice(_FAMILIES[system])
    path = c.rng.choice(c.holders(system, family))
    c.add(c.before, path, _piece(family, path, c.name(), c.value()))


def _t_reformat(c, system):
    path = c.rng.choice([p for p in c.before if _system_of(p) == system])
    if c.rng.random() < 0.5 and any(text.startswith("apply plugin") for _, text in c.after[path]):
        c.after[path] = [
            ("top", f"plugins {{\n    id {text.split(':', 1)[1].strip()}\n}}") if text.startswith("apply plugin")
            else (section, text)
            for section, text in c.after[path]
        ]
    else:
        c.styles[path] = (_STYLE, c.rng.choice(_RESTYLES))


def _t_extract_subroutine(c, system):
    """A fragment of a host task moves into a new task or method that the host now uses."""
    path = c.rng.choice(c.holders(system, "task"))
    host, unit, v = c.name(), c.name(), c.value()
    method = c.rng.random() < 0.5
    if system == "gradle":
        fragment = f"copy {{\n    from 'src/{v}'\n    into 'build/{v}'\n}}"
        inner = textwrap.indent(fragment, " " * 8)
        before = f"task {host} {{\n    doLast {{\n{inner}\n        println 'done'\n    }}\n}}"
        if method:
            new = f"def {unit}() {{\n{textwrap.indent(fragment, '    ')}\n}}"
            after = f"task {host} {{\n    doLast {{\n        {unit}()\n        println 'done'\n    }}\n}}"
        else:
            new = f"task {unit} {{\n    doLast {{\n{inner}\n    }}\n}}"
            after = f"task {host} {{\n    dependsOn {unit}\n    doLast {{\n        println 'done'\n    }}\n}}"
    else:
        fragment = f'<javac srcdir="src/{v}" destdir="out"/>\n<jar destfile="{v}.jar" basedir="out"/>'
        before = f'<target name="{host}">\n    <mkdir dir="out"/>\n{textwrap.indent(fragment, "    ")}\n</target>'
        if method:
            new = (f'<macrodef name="{unit}">\n    <sequential>\n'
                   f'{textwrap.indent(fragment, " " * 8)}\n    </sequential>\n</macrodef>')
            after = f'<target name="{host}">\n    <mkdir dir="out"/>\n    <{unit}/>\n</target>'
        else:
            new = f'<target name="{unit}">\n{textwrap.indent(fragment, "    ")}\n</target>'
            after = f'<target name="{host}" depends="{unit}">\n    <mkdir dir="out"/>\n</target>'
    c.add(c.before, path, ("top", before))
    c.add(c.after, path, ("top", new), ("top", after))


def _t_dry(c, system):
    path = c.rng.choice(c.holders(system, "task"))
    names = [c.name() for _ in range(c.rng.choice((2, 3)))]
    body = "    environment 'gateway', props.gateway\n    environment 'user', props.user\n" \
           "    classpath = sourceSets.main.runtimeClasspath"
    c.add(c.before, path, *[("top", f"task('{n}', type: JavaExec) {{\n{body}\n    main = '{n}'\n}}") for n in names])
    loop = ", ".join(f"'{n}'" for n in names)
    inner = textwrap.indent(body, "    ")
    c.add(c.after, path, ("top", f"[{loop}].each {{ name ->\n    task \"$name\" (type: JavaExec) {{\n{inner}\n"
                                 "        main = name\n    }\n}"))


def _t_scheduling(c, system):
    path = c.rng.choice(c.holders(system, "task"))
    first, then = c.name(), c.name()
    pieces = [_piece("task", path, first, c.value()), _piece("task", path, then, c.value())]
    c.add(c.before, path, *pieces)
    if system == "ant":
        section, text = pieces[1]
        pieces[1] = (section, text.replace(f'name="{then}"', f'name="{then}" depends="{first}"', 1))
    elif c.rng.random() < 0.5:
        pieces.append(("top", f"{then}.mustRunAfter({first})"))
    else:
        section, text = pieces[1]
        pieces[1] = (section, text.replace("{\n", f"{{\n    dependsOn {first}\n", 1))
    c.add(c.after, path, *pieces)


def _t_externalize(c, system):
    """Literal settings leave a script, which now reads a properties file; the
    first may stay, reading its value from there."""
    path = c.rng.choice(c.holders(system, "task"))
    settings = [(c.name(), c.value()) for _ in range(c.rng.choice((1, 2)))]
    first = settings[0][0]
    if system == "gradle":
        c.add(c.before, path, *[("top", f"{n}Version = '{v}'") for n, v in settings])
        after = [("top", 'ext.configFile = file "build.properties"'),
                 ("top", "configFile.withReader {\n    project.ext.config = new ConfigSlurper().parse it\n}")]
        kept = ("top", f"{first}Version = config.{first}")
    else:
        c.add(c.before, path, *[_piece("property", path, n, v) for n, v in settings])
        after = [("top", '<property file="build.properties"/>')]
        kept = ("top", f'<property name="{first}.dir" value="${{config.{first}}}"/>')
    c.add(c.after, path, *after + [kept] * (c.rng.random() < 0.5))


def _uses(path, literal, count):
    """Pieces of ``path`` that use ``literal`` (a value or a reference) ``count`` times."""
    if path.endswith("pom.xml"):
        return [_piece("dependency", path, f"use{i}", literal) for i in range(count)]
    if path.endswith("build.xml"):
        attrs = " ".join(f'a{i}="{literal}"' for i in range(count))
        return [("top", f'<target name="uses">\n    <javac {attrs}/>\n</target>')]
    if path.endswith(".properties"):
        return [("top", f"use{i} = {literal}") for i in range(count)]
    return [("top", f"use{i}Level = {literal}") for i in range(count)]


def _reference(path, n):
    if path.endswith("pom.xml"):
        return f"${{{n}.version}}"
    if path.endswith("build.xml"):
        return f"${{{n}.dir}}"
    return n if path.endswith(".gradle") else f"${{{n}}}"


def _quoted(path, v):
    return f"'{v}'" if path.endswith(".gradle") else v


def _t_extract_variable(c, system):
    """A literal used in a file (the same one or another) becomes a variable;
    drawn the other way round it is inlined, or deleted with its uses."""
    family = c.rng.choice(("variable", "property") if system == "gradle" else ("property",))
    definer = c.rng.choice(c.holders(system, family))
    user = definer if c.rng.random() < 0.4 else c.rng.choice(c.holders(system, "property"))
    n, v = c.name(), c.value()
    count = c.rng.choice((1, 2, 3))
    without = {user: _uses(user, _quoted(user, v), count)}
    with_ = {user: _uses(user, _reference(user, n), count)}
    with_.setdefault(definer, []).insert(0, _piece(family, definer, n, v))
    sides = (c.before, c.after) if c.rng.random() < 0.7 else (c.after, c.before)
    if sides[0] is c.after and c.rng.random() < 0.3:
        without = {}
    for side, pieces in zip(sides, (without, with_)):
        for path, added in pieces.items():
            c.add(side, path, *added)


def _t_neutral(c, system):
    """An edit no rule names: an added element, or a changed version."""
    family = c.rng.choice(_FAMILIES[system])
    path = c.rng.choice(c.holders(system, family))
    n = c.name()
    if c.rng.random() < 0.5:
        c.add(c.after, path, _piece(family, path, n, c.value()))
    else:
        old, new = c.rng.sample(_CORPUS_VALUES, 2)
        c.add_both(path, _piece(family, path, n, old), _piece(family, path, n, new))


_NOISE = {
    "gradle": ("// a comment with a { brace", "/* block\n   comment } */", "println \"a { in a string\"",
               "repositories {\n    mavenCentral()\n}", "task broken {"),
    "maven": ("<!-- a comment -->", "<description>a &amp; b &lt;c&gt;</description>",
              "<url><![CDATA[http://example.org/?a=1&b=2]]></url>", "<broken>"),
    "ant": ("<!-- a comment -->", '<echo message="a &amp; b"/>',
            '<path id="cp">\n    <pathelement location="lib"/>\n</path>', "<broken>"),
}


def _t_noise(c, system):
    """Text or a layout the parsers must survive, on both sides; the last
    entry, which they cannot parse, goes into the after side alone."""
    path = c.rng.choice([p for p in c.before if _system_of(p) == system and not p.endswith(".properties")])
    noise = c.rng.choice(_NOISE[system])
    section = "head" if system == "maven" else "top"
    if noise == _NOISE[system][-1]:
        c.add(c.after, path, (section, noise))
    elif c.rng.random() < 0.3:  # CRLF, or XML files on one line, where elements share their span
        style = ("    ", "\r\n") if system == "gradle" else c.rng.choice((("    ", "\r\n"), ("", "")))
        for p in c.after:
            if _system_of(p) == system:
                c.styles[p] = (style, style)
    else:
        c.add_both(path, (section, noise), (section, noise))


_TEMPLATES = {  # drawn without replacement; repeats weight a template up
    "gradle": (_t_move,) * 8 + (_t_extract_module, _t_extract_variable) * 2 + (
        _t_rename, _t_remove_unused, _t_reformat, _t_extract_subroutine, _t_scheduling, _t_externalize, _t_dry),
    "maven": (_t_move,) * 4 + (_t_extract_module, _t_extract_variable) * 2 + (_t_rename, _t_remove_unused, _t_reformat),
    "ant": (_t_move,) * 4 + (_t_extract_module, _t_extract_variable) * 2 + (
        _t_rename, _t_remove_unused, _t_reformat, _t_extract_subroutine, _t_scheduling, _t_externalize),
}


def detection_corpus(count=300, seed=40):
    """``count`` multi-file commits drawn with a fixed seed: type templates in
    one or two projects, neutral edits, parser noise, and commits that should
    yield nothing."""
    rng = random.Random(seed)
    commits = []
    for number in range(count):
        systems = [rng.choice(("ant", "gradle", "gradle", "maven"))]  # Gradle has the most types
        if rng.random() < 0.25:
            systems.append(rng.choice([s for s in sorted(_FAMILIES) if s != systems[0]]))
        c = _DrawnCommit(rng, systems)
        for system in systems:
            for template in rng.sample(_TEMPLATES[system], rng.choice((0, 1, 1, 2, 2))):
                template(c, system)
            if rng.random() < 0.3:
                _t_neutral(c, system)
            if rng.random() < 0.25:
                _t_noise(c, system)
        if rng.random() < 0.1:
            c.after[rng.choice(sorted(c.before))] = None  # a file deleted with whatever it held
        commit = make_commit(c.render(c.before, 0), c.render(c.after, 1))
        commits.append(commit._replace(commit_hash=f"{number:040x}"))
    return commits


def _detection_lines(commit):
    found = detect_all(CommitContext.from_commit(commit))
    return "".join(detection_to_json(commit.commit_hash, det) + "\n" for det in sorted(found, key=sort_key))


@functools.cache
def _corpus_detections():
    return [(commit, _detection_lines(commit)) for commit in detection_corpus()]


def _show(commit):
    parts = [f"commit {commit.commit_hash}"]
    for fd in commit.file_diffs:
        for side, text in (("before", fd.before_content), ("after", fd.after_content)):
            if text is not None:
                parts.append(f"--- {fd.path} ({side})\n{text}")
    return "\n".join(parts)


def test_detection_corpus_matches_golden_digests():
    """Each drawn commit's sorted static detection JSONL hashes as it did when
    the golden file was written; ``python tests/test_detectors.py`` rewrites it."""
    golden = [json.loads(line)["sha256"] for line in GOLDEN_COMMITS.read_text(encoding="utf-8").splitlines()]
    corpus = _corpus_detections()
    assert len(golden) == len(corpus)
    for (commit, lines), digest in zip(corpus, golden):
        assert hashlib.sha256(lines.encode()).hexdigest() == digest, f"{_show(commit)}\ndetections now:\n{lines}"


def test_detection_corpus_covers_every_type():
    found = {json.loads(line)["RefactoringType"] for _, lines in _corpus_detections() for line in lines.splitlines()}
    assert sorted(found) == sorted(taxonomy.ALL_TYPE_IDS)


if __name__ == "__main__":
    # rewrite the golden digests from the detectors on the import path
    with open(GOLDEN_COMMITS, "w", encoding="utf-8", newline="\n") as fh:
        for _, lines in _corpus_detections():
            fh.write(json.dumps({"sha256": hashlib.sha256(lines.encode()).hexdigest()}) + "\n")
