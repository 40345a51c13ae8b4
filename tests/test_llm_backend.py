import json
from collections import Counter

import pytest

import fixtures
from buildref import llm_backend
from buildref.llm_backend import (
    EmptyDiffError,
    LlmConfig,
    LlmStats,
    MixedBuildSystemsError,
    PromptMode,
    PromptSpec,
    RateLimitedError,
    TransportError,
    UnparseableResponseError,
    build_prompt,
    classify_commit,
    deserialize_detections,
    parse_response,
    serialize_detections,
)
from buildref.mining import BuildSystem
from conftest import make_commit

GRADLE_SPEC = PromptSpec(PromptMode.ZERO_SHOT, BuildSystem.GRADLE)
GRADLE_ONE_SHOT = PromptSpec(PromptMode.ONE_SHOT, BuildSystem.GRADLE)


@pytest.fixture
def gradle_commit():
    _, before, after, _ = fixtures.EXEMPLAR_CASES["extract_task"]
    return make_commit(before, after)


def _ok_response(content: str) -> tuple[int, str]:
    return 200, json.dumps({"choices": [{"message": {"content": content}}]})


# --- prompt building ------------------------------------------------------------

def test_prompt_contains_contract_strings(gradle_commit):
    prompt = build_prompt(gradle_commit, GRADLE_SPEC)
    assert "identify any occurrences of the listed refactoring types" in prompt
    assert "RefactoringType" in prompt
    assert "Details" in prompt
    assert 'No refactorings found."' in prompt
    assert "a list of 24 refactoring types in build files" in prompt
    assert "Gradle" in prompt


def test_prompt_embeds_fenced_diff(gradle_commit):
    prompt = build_prompt(gradle_commit, GRADLE_SPEC)
    assert "```" in prompt
    assert "+task resolveDependencies {" in prompt
    assert "-publish.dependsOn {" in prompt
    assert "gradle_extract_task/build.gradle" in prompt


def test_prompt_is_deterministic(gradle_commit):
    assert build_prompt(gradle_commit, GRADLE_SPEC) == build_prompt(gradle_commit, GRADLE_SPEC)


def test_one_shot_is_superset_of_zero_shot(gradle_commit):
    zero = build_prompt(gradle_commit, GRADLE_SPEC)
    one = build_prompt(gradle_commit, GRADLE_ONE_SHOT)
    zero_lines = Counter(zero.split("\n"))
    one_lines = Counter(one.split("\n"))
    assert all(one_lines[line] >= n for line, n in zero_lines.items())
    assert len(one.split()) > len(zero.split())


def test_one_shot_carries_an_example_per_type(gradle_commit):
    one = build_prompt(gradle_commit, GRADLE_ONE_SHOT)
    assert one.count("Example (Gradle):") == 24


def test_maven_one_shot_uses_maven_examples():
    commit = make_commit(
        {"pom.xml": fixtures.MOVE_DEP_A_BEFORE}, {"pom.xml": fixtures.MOVE_DEP_A_AFTER}
    )
    prompt = build_prompt(commit, PromptSpec(PromptMode.ONE_SHOT, BuildSystem.MAVEN))
    assert prompt.count("Example (Maven):") == 24
    assert "<dependency>" in prompt


def test_mixed_build_systems_rejected():
    commit = make_commit(
        {"build.gradle": "apply plugin: 'java'\n", "pom.xml": "<project/>"},
        {"build.gradle": "apply plugin: 'groovy'\n", "pom.xml": "<project><artifactId>x</artifactId></project>"},
    )
    with pytest.raises(MixedBuildSystemsError):
        build_prompt(commit, GRADLE_SPEC)


def test_empty_diff_rejected():
    commit = make_commit({}, {})
    with pytest.raises(EmptyDiffError):
        build_prompt(commit, GRADLE_SPEC)


# --- response parsing --------------------------------------------------------------

def test_parse_array_shape():
    out = parse_response('[{"RefactoringType":"Extract Module","Details":"moved publish logic"}]')
    assert {d.type for d in out} == {"Extract Module"}
    det = next(iter(out))
    assert det.backend == "llm"
    assert det.details == "moved publish logic"
    assert not det.unknown_type


def test_parse_single_object_shape():
    out = parse_response('{"RefactoringType":"DRY","Details":"loop over names"}')
    assert {d.type for d in out} == {"DRY"}


def test_parse_sentinel():
    assert parse_response("No refactorings found.") == set()


def test_parse_fenced_and_prose_wrapped():
    text = "here you go:\n```json\n[]\n```"
    assert parse_response(text) == set()
    text2 = 'Sure thing!\n```json\n[{"RefactoringType": "Inline Variable", "Details": "x"}]\n```\nHope that helps.'
    assert {d.type for d in parse_response(text2)} == {"Inline Variable"}


def test_parse_type_names_case_insensitively():
    out = parse_response('[{"RefactoringType":"extract and pull up module","Details":""}]')
    assert {d.type for d in out} == {"Extract And Pull Up Module"}


def test_unknown_types_kept_and_flagged():
    out = parse_response('[{"RefactoringType":"Quantum Cleanup","Details":"??"}]')
    det = next(iter(out))
    assert det.type == "Quantum Cleanup"
    assert det.unknown_type


def test_garbage_raises_unparseable():
    with pytest.raises(UnparseableResponseError):
        parse_response("I could not find anything meaningful to report here")


def test_parse_serialize_identity():
    source = parse_response(
        '[{"RefactoringType":"Extract Module","Details":"a"},'
        '{"RefactoringType":"DRY","Details":"b"}]'
    )
    text = serialize_detections(source)
    assert parse_response(text) == source
    assert deserialize_detections(text) == source
    # the cache reader accepts only what serialize_detections writes
    for broken in ("", text[: text.index("}") + 1], "No refactorings found.", '{"RefactoringType": "DRY"}'):
        with pytest.raises(ValueError):
            deserialize_detections(broken)


# --- classify_commit -------------------------------------------------------------

CFG = LlmConfig(endpoint="http://example.invalid/v1/chat", model="test-model", max_retries=3)


def test_classify_returns_detections(gradle_commit):
    def transport(url, headers, body, timeout):
        assert url == CFG.endpoint
        assert body["model"] == "test-model"
        assert body["temperature"] == 0.0
        return _ok_response('[{"RefactoringType": "Extract Task", "Details": "new task"}]')

    out = classify_commit(gradle_commit, GRADLE_SPEC, CFG, transport=transport)
    assert {d.type for d in out} == {"Extract Task"}
    assert all(d.backend == "llm" and d.confidence == 1.0 for d in out)


def test_retries_on_5xx_then_succeeds(gradle_commit):
    calls = {"n": 0}

    def transport(url, headers, body, timeout):
        calls["n"] += 1
        if calls["n"] <= 2:
            return 500, "boom"
        return _ok_response('[{"RefactoringType": "Extract Module", "Details": "d"}]')

    stats = LlmStats()
    out = classify_commit(
        gradle_commit, GRADLE_SPEC, CFG, transport=transport, stats=stats, sleeper=lambda s: None
    )
    assert {d.type for d in out} == {"Extract Module"}
    assert stats.retries == 2


def test_transport_error_after_exhausted_retries(gradle_commit):
    def transport(url, headers, body, timeout):
        return 500, "boom"

    with pytest.raises(TransportError):
        classify_commit(gradle_commit, GRADLE_SPEC, CFG, transport=transport, sleeper=lambda s: None)


def test_rate_limited_surfaces(gradle_commit):
    def transport(url, headers, body, timeout):
        return 429, "slow down"

    with pytest.raises(RateLimitedError):
        classify_commit(gradle_commit, GRADLE_SPEC, CFG, transport=transport, sleeper=lambda s: None)


def test_double_garbage_surfaces_unparseable(gradle_commit):
    def transport(url, headers, body, timeout):
        return _ok_response("utter nonsense")

    stats = LlmStats()
    with pytest.raises(UnparseableResponseError):
        classify_commit(
            gradle_commit, GRADLE_SPEC, CFG, transport=transport, stats=stats, sleeper=lambda s: None
        )
    assert stats.reprompts == 1


def test_reprompt_recovers_strict_format(gradle_commit):
    replies = iter(["nonsense first", '[{"RefactoringType": "DRY", "Details": "ok"}]'])

    def transport(url, headers, body, timeout):
        return _ok_response(next(replies))

    stats = LlmStats()
    out = classify_commit(
        gradle_commit, GRADLE_SPEC, CFG, transport=transport, stats=stats, sleeper=lambda s: None
    )
    assert {d.type for d in out} == {"DRY"}
    assert stats.reprompts == 1


def test_api_key_read_from_named_env_var(gradle_commit, monkeypatch):
    monkeypatch.setenv("MY_TEST_KEY", "sk-secret")
    seen = {}

    def transport(url, headers, body, timeout):
        seen.update(headers)
        return _ok_response("No refactorings found.")

    cfg = LlmConfig(endpoint="http://x/y", model="m", api_key_env="MY_TEST_KEY")
    classify_commit(gradle_commit, GRADLE_SPEC, cfg, transport=transport)
    assert seen["Authorization"] == "Bearer sk-secret"


def test_config_validation():
    with pytest.raises(ValueError):
        LlmConfig(endpoint="http://x", model="m", temperature=3.0)
    with pytest.raises(ValueError):
        LlmConfig(endpoint="http://x", model="m", max_retries=-1)
