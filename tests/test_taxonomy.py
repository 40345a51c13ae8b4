import hashlib
import json
from collections import Counter

import pytest

import fixtures
from buildref.cli import run
from buildref.llm_backend import PromptMode, PromptSpec, build_prompt
from buildref.mining import BuildSystem
from buildref import taxonomy
from buildref.taxonomy import MainCategory, TechnicalDebt, UnknownTypeError
from conftest import make_commit


def test_registry_has_24_types():
    assert len(taxonomy.registry()) == 24


def test_category_sizes():
    sizes = Counter(t.category for t in taxonomy.registry())
    assert sizes == {
        MainCategory.BUILD_CODE_CLEAN_UP: 3,
        MainCategory.MODULE_HIERARCHY_ORGANIZATION: 3,
        MainCategory.SUBROUTINE_ORGANIZATION: 6,
        MainCategory.DEPENDENCY_ORGANIZATION: 3,
        MainCategory.SYNCHRONIZING_SHARED_BUILD_PROPERTIES: 2,
        MainCategory.VARIABLES_ORGANIZATION: 7,
    }


def test_exactly_eight_build_specific_types():
    specific = {t.id for t in taxonomy.registry() if t.build_specific}
    assert specific == {
        "Scheduling Tasks",
        "Push Down Task",
        "Extract Task",
        "Move Dependency",
        "Pull Up Dependency",
        "Push Down Dependency",
        "Externalize Properties",
        "Pull Up Properties",
    }


def test_subroutine_category_has_two_method_and_four_task_types():
    subroutine = [t.id for t in taxonomy.registry() if t.category is MainCategory.SUBROUTINE_ORGANIZATION]
    assert len(subroutine) == 6
    assert {"Extract Method", "Pull Up Method"} <= set(subroutine)
    assert {"Extract Task", "Push Down Task", "Scheduling Tasks", "DRY"} <= set(subroutine)


def test_exactly_five_td_categories():
    assert len(TechnicalDebt) == 5
    assert {d.value for d in TechnicalDebt} == {
        "Clarity & Readability",
        "Extensibility & Maintainability",
        "Modularity",
        "Code Duplication",
        "Security",
    }


def test_unmapped_types_are_exactly_five():
    unmapped = {t.id for t in taxonomy.registry() if not taxonomy.td_categories_for(t)}
    assert unmapped == {
        "Move Dependency",
        "Extract And Move Variable",
        "Move Variable",
        "Push Down Task",
        "Push Down Variable",
    }


def test_externalize_properties_has_two_debts():
    assert taxonomy.td_categories_for("Externalize Properties") == {
        TechnicalDebt.EXTENSIBILITY_MAINTAINABILITY,
        TechnicalDebt.SECURITY,
    }


@pytest.mark.parametrize(
    "type_id,expected",
    [
        ("Reformat Code", {TechnicalDebt.CLARITY_READABILITY}),
        ("Move Dependency", set()),
        ("Pull Up Variable", {TechnicalDebt.MODULARITY, TechnicalDebt.CODE_DUPLICATION}),
        ("DRY", {TechnicalDebt.CODE_DUPLICATION}),
    ],
)
def test_td_mapping_samples(type_id, expected):
    assert taxonomy.td_categories_for(type_id) == expected


def test_every_mapped_type_has_at_most_two_debts():
    for t in taxonomy.registry():
        assert len(taxonomy.td_categories_for(t)) <= 2


def test_unknown_type_raises():
    with pytest.raises(UnknownTypeError):
        taxonomy.td_categories_for("Extract Everything")


def test_resolve_type_is_case_insensitive():
    assert taxonomy.resolve_type("extract module").id == "Extract Module"
    assert taxonomy.resolve_type(" DRY ").id == "DRY"
    assert taxonomy.resolve_type("nope") is None


def test_every_type_has_an_example_per_build_system():
    for t in taxonomy.registry():
        for system in BuildSystem:
            assert t.examples[system].strip()


def test_registry_json_export():
    payload = json.loads(taxonomy.registry_to_json())
    assert len(payload) == 24
    entry = next(e for e in payload if e["id"] == "Externalize Properties")
    assert entry["category"] == "Synchronizing Shared Build Properties"
    assert entry["build_specific"] is True
    assert entry["technical_debts"] == ["Extensibility & Maintainability", "Security"]


def _registry_outputs(capsys):
    """The registry as each consumer shows it: the JSON export, the
    `buildref taxonomy` listing, and the prompt of one fixed commit per build
    system in each prompt mode (its bytes also name the LLM cache files)."""
    assert run(["taxonomy"]) == 0
    listing = capsys.readouterr().out
    commits = {
        BuildSystem.GRADLE: make_commit(*fixtures.EXEMPLAR_CASES["extract_task"][1:3]),
        BuildSystem.ANT: make_commit(*fixtures.EXEMPLAR_CASES["scheduling"][1:3]),
        BuildSystem.MAVEN: make_commit(
            {"a/pom.xml": fixtures.MOVE_DEP_A_BEFORE, "b/pom.xml": fixtures.MOVE_DEP_B_BEFORE},
            {"a/pom.xml": fixtures.MOVE_DEP_A_AFTER, "b/pom.xml": fixtures.MOVE_DEP_B_AFTER},
        ),
    }
    prompts = "\0".join(
        build_prompt(commit, PromptSpec(mode, system))
        for system, commit in commits.items()
        for mode in PromptMode
    )
    return {"json": taxonomy.registry_to_json(), "listing": listing, "prompts": prompts}


# sha256 of each output; a change here changes what users see and every
# LLM cache file name, so it is a deliberate edit, never a refresh
REGISTRY_OUTPUT_DIGESTS = {
    "json": "3f5fefd2283532da0e441d32e4f6ee931d84de655e43cef6828a7ab267fe1226",
    "listing": "d80b561c083712bcbe3f021c84df7da767e005274af184b463db0e1c755d7666",
    "prompts": "286f47b60da4c6e817a9f8978e5e15b303fa239d9cf0780409f86673e55ba27f",
}


def test_registry_outputs_are_byte_identical_to_the_pinned_digests(capsys):
    digests = {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in _registry_outputs(capsys).items()
    }
    assert digests == REGISTRY_OUTPUT_DIGESTS


def test_a_type_is_one_hashable_record():
    types = taxonomy.registry()
    assert len(set(types)) == 24
    extract = taxonomy.get_type("Extract Variable")
    assert extract.debts == {TechnicalDebt.EXTENSIBILITY_MAINTAINABILITY}
    assert set(extract.examples) == set(BuildSystem)
