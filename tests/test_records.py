"""What the records of every layer promise as values: equality and hashing
(detections live in sets), sort order, the checks made at construction,
immutability and the commits-file round trip."""

import pytest

from buildref.build_parsers import BuildElement, BuildModel, ElementKind, HierarchyGraph, LinkRelation, ModuleLink
from buildref.detectors import DetectorConfig
from buildref.evaluation import EvaluationReport, GoldLabel, Rates, TypeMetrics
from buildref.llm_backend import LlmConfig, PromptMode, PromptSpec
from buildref.mining import (
    BuildSystem,
    ChangeKind,
    CommitRecord,
    FileDiff,
    Hunk,
    MiningFilter,
    commit_from_json,
    commit_to_json,
)
from buildref.taxonomy import DetectedRefactoring, Evidence, RefactoringType, UnknownTypeError, get_type, registry, sort_key

H = "c" * 40


def _diff(path="pom.xml", kind=ChangeKind.MODIFIED, before="<project/>", after="<project>\n</project>", old_path=None):
    return FileDiff(path, BuildSystem.MAVEN, kind, old_path=old_path, before_content=before, after_content=after)


def _commit(*diffs, commit_hash=H):
    return CommitRecord("repo", commit_hash, "refactor build", "tester", 1700000000, diffs or (_diff(),))


def _det(type_="DRY", details="d", path="build.xml", span=(1, 2), role="source", **kwargs):
    return DetectedRefactoring(type_, details, (Evidence(path, span, role),), **kwargs)


def test_equal_detections_are_one_set_member_and_differing_ones_are_not():
    found = {_det(), _det(), _det(span=(1, 3)), _det(role="destination"), _det(details="e")}
    assert len(found) == 4
    assert _det() == _det() and hash(_det()) == hash(_det())
    assert _det(backend="llm", confidence=0.5) != _det(backend="llm")
    assert len({_det(backend="llm"), _det()}) == 2
    llm = DetectedRefactoring("Nonsense", "x", (), backend="llm", unknown_type=True)
    assert llm == DetectedRefactoring("Nonsense", "x", (), backend="llm", unknown_type=True)


def test_evidence_orders_by_path_then_span_then_role():
    pieces = [
        Evidence("b.xml", (1, 1), "source"),
        Evidence("a.xml", (2, 3), "source"),
        Evidence("a.xml", (2, 2), "source"),
        Evidence("a.xml", (2, 2), "destination"),
    ]
    assert sorted(pieces) == [pieces[3], pieces[2], pieces[1], pieces[0]]
    assert pieces[2] < pieces[1] and not pieces[1] < pieces[2]


def test_sort_key_orders_detections_by_type_path_evidence_then_details():
    unordered = [
        _det("Reformat Code", path="a.xml"),
        _det(details="b", path="b.xml"),
        _det(details="a", path="b.xml"),
        _det(path="a.xml", span=(5, 6)),
        _det(path="a.xml", span=(1, 9)),
        DetectedRefactoring("DRY", "none", ()),
    ]
    assert sorted(unordered, key=sort_key) == [
        unordered[5], unordered[4], unordered[3], unordered[2], unordered[1], unordered[0],
    ]


def test_a_refactoring_type_hashes_and_compares_without_its_examples():
    extract = get_type("Extract Variable")
    twin = RefactoringType(
        extract.id, extract.category, extract.build_specific, extract.debts, extract.definition, examples={},
    )
    assert twin == extract and not twin != extract
    assert hash(twin) == hash(extract)
    assert {twin, *registry()} == set(registry())
    other = RefactoringType(
        extract.id, extract.category, extract.build_specific, extract.debts, "another definition", extract.examples,
    )
    assert other != extract


@pytest.mark.parametrize("make, error", [
    (lambda: _diff(kind=ChangeKind.ADDED, before="x"), ValueError),
    (lambda: _diff(kind=ChangeKind.DELETED, after="x"), ValueError),
    (lambda: _commit(commit_hash="C" * 40), ValueError),
    (lambda: _commit(commit_hash="c" * 39), ValueError),
    (lambda: MiningFilter(build_systems=frozenset()), ValueError),
    (lambda: ModuleLink(LinkRelation.INCLUDES, ""), ValueError),
    (lambda: LlmConfig("http://localhost/v1", "m", temperature=2.5), ValueError),
    (lambda: LlmConfig("http://localhost/v1", "m", max_retries=-1), ValueError),
    (lambda: _det("Extract Nonsense"), UnknownTypeError),
    (lambda: _det(confidence=0.5), ValueError),
    (lambda: GoldLabel(H, ("DRY", "Extract Nonsense")), UnknownTypeError),
], ids=[
    "added-with-before", "deleted-with-after", "uppercase-hash", "short-hash", "no-build-system",
    "empty-link-target", "temperature", "max-retries", "unknown-type", "static-confidence", "gold-label-type",
])
def test_each_record_check_raises_at_construction(make, error):
    with pytest.raises(error):
        make()


def test_a_record_built_with_keywords_or_defaults_equals_the_positional_one():
    assert MiningFilter() == MiningFilter("refactor", frozenset(BuildSystem), None, True)
    assert LlmConfig(model="m", endpoint="e") == LlmConfig("e", "m", "BUILDREF_API_KEY", 0.0, 2048, 60.0, 3)
    assert _det() == DetectedRefactoring(
        type="DRY", details="d", evidence=(Evidence("build.xml", (1, 2), "source"),),
        backend="static", confidence=1.0, unknown_type=False,
    )


_RECORDS = {
    "Hunk": (Hunk(1, 1, 1, 2, ("a",), ("b", "c")), "old_len"),
    "FileDiff": (_diff(), "path"),
    "CommitRecord": (_commit(), "commit_hash"),
    "MiningFilter": (MiningFilter(), "message_keyword"),
    "BuildElement": (BuildElement(ElementKind.TASK, "t", ("a",), {}, (1, 1)), "name"),
    "ModuleLink": (ModuleLink(LinkRelation.INCLUDES, "app"), "target"),
    "BuildModel": (BuildModel(BuildSystem.GRADLE, (), (), "build.gradle"), "source_path"),
    "HierarchyGraph": (HierarchyGraph({}), "warnings"),
    "RefactoringType": (get_type("DRY"), "examples"),
    "Evidence": (Evidence("a", (1, 1), "source"), "span"),
    "DetectedRefactoring": (_det(), "type"),
    "DetectorConfig": (DetectorConfig(), "move_similarity"),
    "PromptSpec": (PromptSpec(PromptMode.ZERO_SHOT, BuildSystem.ANT), "mode"),
    "LlmConfig": (LlmConfig("e", "m"), "temperature"),
    "GoldLabel": (GoldLabel(H, ("DRY",)), "types"),
    "Rates": (Rates(1.0, 1.0, 1.0), "f1"),
    "TypeMetrics": (TypeMetrics(1, 0, 0, 1.0, 1.0, 1.0), "tp"),
    "EvaluationReport": (
        EvaluationReport({}, Rates(0.0, 0.0, 0.0), Rates(0.0, 0.0, 0.0), 0, "static"), "n_commits",
    ),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_assigning_to_a_field_raises_attribute_error(name):
    record, field = _RECORDS[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


def test_a_commit_reads_back_equal_from_its_json_line():
    records = [
        _commit(),
        _commit(
            _diff("a/pom.xml", ChangeKind.ADDED, before=None, after="<project>é</project>"),
            _diff("b/pom.xml", ChangeKind.DELETED, before="<project/>", after=None),
            _diff("c/pom.xml", ChangeKind.RENAMED, old_path="old/pom.xml"),
            commit_hash="d" * 64,
        ),
    ]
    for record in records:
        assert commit_from_json(commit_to_json(record)) == record
    assert commit_from_json(commit_to_json(records[0])) != records[1]


def test_hunks_are_computed_once_per_file_diff_and_take_no_part_in_equality():
    diff = _diff()
    assert diff.hunks == diff.hunks
    assert diff.hunks == (Hunk(1, 1, 1, 2, ("<project/>",), ("<project>", "</project>")),)
    assert _diff() == diff
