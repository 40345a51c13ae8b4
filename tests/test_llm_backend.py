import base64
import hashlib
import http.server
import json
import os
import shutil
import socket
import ssl
import subprocess
import sys
import threading
import time
import urllib.parse
from collections import Counter
from pathlib import Path

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
from buildref.mining import BuildSystem, commit_to_json
from conftest import closed_port, make_commit

pytestmark = pytest.mark.usefixtures("clock")  # retry backoff takes no test time

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


def test_reply_nested_too_deeply_to_decode_is_unparseable():
    with pytest.raises(UnparseableResponseError):
        parse_response("[" * 100_000)


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


def test_retries_on_5xx_then_succeeds(gradle_commit, clock):
    calls = {"n": 0}

    def transport(url, headers, body, timeout):
        calls["n"] += 1
        if calls["n"] <= 2:
            return 500, "boom"
        return _ok_response('[{"RefactoringType": "Extract Module", "Details": "d"}]')

    stats = LlmStats()
    out = classify_commit(gradle_commit, GRADLE_SPEC, CFG, transport=transport, stats=stats)
    assert {d.type for d in out} == {"Extract Module"}
    assert stats.retries == 2
    assert clock.sleeps == [1, 2]


def test_transport_error_after_exhausted_retries(gradle_commit):
    def transport(url, headers, body, timeout):
        return 500, "boom"

    with pytest.raises(TransportError):
        classify_commit(gradle_commit, GRADLE_SPEC, CFG, transport=transport)


def test_retry_backoff_doubles_up_to_30_seconds(gradle_commit, clock):
    stats = LlmStats()
    with pytest.raises(TransportError):
        classify_commit(gradle_commit, GRADLE_SPEC, CFG._replace(max_retries=7), transport=lambda *a: (500, "boom"),
                        stats=stats)
    assert clock.sleeps == [1, 2, 4, 8, 16, 30, 30]
    assert (stats.requests, stats.retries) == (8, 7)


def test_rate_limited_surfaces(gradle_commit):
    def transport(url, headers, body, timeout):
        return 429, "slow down"

    with pytest.raises(RateLimitedError):
        classify_commit(gradle_commit, GRADLE_SPEC, CFG, transport=transport)


def test_double_garbage_surfaces_unparseable(gradle_commit):
    def transport(url, headers, body, timeout):
        return _ok_response("utter nonsense")

    stats = LlmStats()
    with pytest.raises(UnparseableResponseError):
        classify_commit(gradle_commit, GRADLE_SPEC, CFG, transport=transport, stats=stats)
    assert stats.reprompts == 1


def test_reply_body_nested_too_deeply_earns_one_reprompt_then_surfaces(gradle_commit):
    def transport(url, headers, body, timeout):
        return 200, "[" * 100_000  # not a chat completion, and too deep to decode

    stats = LlmStats()
    with pytest.raises(UnparseableResponseError):
        classify_commit(gradle_commit, GRADLE_SPEC, CFG, transport=transport, stats=stats)
    assert stats.reprompts == 1 and stats.requests == 2


@pytest.mark.parametrize("content", [None, [{"type": "text", "text": "No refactorings found."}]], ids=["null", "parts"])
def test_reply_content_not_a_string_earns_one_reprompt_then_surfaces(gradle_commit, content):
    def transport(url, headers, body, timeout):
        return 200, json.dumps({"choices": [{"message": {"content": content}}]})

    stats = LlmStats()
    with pytest.raises(UnparseableResponseError):
        classify_commit(gradle_commit, GRADLE_SPEC, CFG, transport=transport, stats=stats)
    assert stats.reprompts == 1 and stats.requests == 2


def test_reprompt_recovers_strict_format(gradle_commit):
    replies = iter(["nonsense first", '[{"RefactoringType": "DRY", "Details": "ok"}]'])

    def transport(url, headers, body, timeout):
        return _ok_response(next(replies))

    stats = LlmStats()
    out = classify_commit(gradle_commit, GRADLE_SPEC, CFG, transport=transport, stats=stats)
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


# --- rate limit ---------------------------------------------------------------------

def test_rate_limiter_lets_a_burst_pass_and_spaces_the_rest(clock):
    limiter = llm_backend.RateLimiter(4.0, burst=3)
    for _ in range(3):
        limiter.acquire()
    assert clock.sleeps == []
    for _ in range(2):
        limiter.acquire()
    assert clock.sleeps == [0.25, 0.25]  # 1/rate each
    clock.now += 10  # idle: the bucket fills up to the burst, no further
    for _ in range(4):
        limiter.acquire()
    assert clock.sleeps == [0.25] * 3


# --- reply cache ------------------------------------------------------------------

def test_cache_file_is_named_by_request_settings_and_prompt(gradle_commit, tmp_path):
    cfg = LlmConfig(endpoint="http://x/v1", model="m", temperature=0.5, max_output_tokens=100)
    reply = '[{"RefactoringType": "Extract Task", "Details": "new task"}]'
    classify_commit(gradle_commit, GRADLE_SPEC, cfg, transport=lambda *a: _ok_response(reply), cache_dir=str(tmp_path))
    prompt = build_prompt(gradle_commit, GRADLE_SPEC)
    key = hashlib.sha256(b'["http://x/v1", "m", 0.5, 100]\x00' + prompt.encode("utf-8")).hexdigest()
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]
    assert (tmp_path / f"{key}.json").read_text(encoding="utf-8") == serialize_detections(parse_response(reply))


def test_cache_hit_is_counted_and_sends_nothing(gradle_commit, tmp_path):
    def transport(url, headers, body, timeout):
        return _ok_response('[{"RefactoringType": "Extract Task", "Details": "new task"}]')

    first = classify_commit(gradle_commit, GRADLE_SPEC, CFG, transport=transport, cache_dir=str(tmp_path))

    def no_transport(url, headers, body, timeout):
        raise AssertionError("a cache hit must not ask the endpoint")

    stats = LlmStats()
    again = classify_commit(
        gradle_commit, GRADLE_SPEC, CFG, transport=no_transport, stats=stats, cache_dir=str(tmp_path)
    )
    assert again == first
    assert stats == LlmStats(requests=0, retries=0, reprompts=0, cache_hits=1)


def test_a_cache_hit_makes_no_directory_and_a_miss_makes_it_before_asking(gradle_commit, tmp_path, monkeypatch):
    cache_dir = tmp_path / "a" / "cache"
    reply = '[{"RefactoringType": "Extract Task", "Details": "new task"}]'

    def transport(url, headers, body, timeout):
        assert cache_dir.is_dir()
        return _ok_response(reply)

    classify_commit(gradle_commit, GRADLE_SPEC, CFG, transport=transport, cache_dir=str(cache_dir))
    made = []
    monkeypatch.setattr(os, "makedirs", lambda *args, **kwargs: made.append(args))
    stats = LlmStats()
    classify_commit(gradle_commit, GRADLE_SPEC, CFG, transport=None, stats=stats, cache_dir=str(cache_dir))
    assert stats.cache_hits == 1 and made == []


def test_a_lone_surrogate_in_a_prompt_is_hashed_into_its_cache_file_name(tmp_path):
    """A commits line may give a lone surrogate as a JSON escape; the prompt
    holding it names its cache file, and a second call reads that file."""
    commit = make_commit({"build.gradle": "version = '1'\n"}, {"build.gradle": "version = '1\ud800'\n"})
    reply = '[{"RefactoringType": "Extract Task", "Details": "new task"}]'
    classify_commit(commit, GRADLE_SPEC, CFG, transport=lambda *a: _ok_response(reply), cache_dir=str(tmp_path))
    prompt = build_prompt(commit, GRADLE_SPEC)
    settings = json.dumps([CFG.endpoint, CFG.model, CFG.temperature, CFG.max_output_tokens]).encode()
    key = hashlib.sha256(settings + b"\x00" + prompt.encode("utf-8", "surrogatepass")).hexdigest()
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]
    stats = LlmStats()
    classify_commit(commit, GRADLE_SPEC, CFG, transport=None, stats=stats, cache_dir=str(tmp_path))
    assert stats.cache_hits == 1 and stats.requests == 0


@pytest.mark.parametrize("content", [b"[" * 100_000, b"\xff"], ids=["deep", "not utf-8"])
def test_cache_file_nested_too_deeply_is_a_miss(gradle_commit, tmp_path, content):
    reply = '[{"RefactoringType": "Extract Task", "Details": "new task"}]'
    classify_commit(gradle_commit, GRADLE_SPEC, CFG, transport=lambda *a: _ok_response(reply), cache_dir=str(tmp_path))
    [cache_file] = tmp_path.iterdir()
    cache_file.write_bytes(content)
    stats = LlmStats()
    again = classify_commit(
        gradle_commit, GRADLE_SPEC, CFG, transport=lambda *a: _ok_response(reply), stats=stats, cache_dir=str(tmp_path)
    )
    assert again == parse_response(reply)
    assert stats.cache_hits == 0 and stats.requests == 1
    assert cache_file.read_text() == serialize_detections(again)


# --- the standard-library HTTP transport, against a loopback server ------------------

class _ScriptedHandler(http.server.BaseHTTPRequestHandler):
    """Answers each POST with the next (status, text) of ``server.replies``."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        self.server.seen.append((dict(self.headers), json.loads(self.rfile.read(length)) if length else None))
        status, text, *extra_headers = self.server.replies.pop(0)
        payload = text.encode("utf-8")
        self.send_response(status)
        for name, value in {"Content-Type": "application/json", **dict(extra_headers)}.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    do_GET = do_POST

    def log_message(self, format, *args):
        pass


@pytest.fixture
def endpoint(monkeypatch):
    """A loopback server; set ``.replies`` before a request, read ``.seen`` after."""
    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.setenv(name, "127.0.0.1")
    server = http.server.HTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.replies, server.seen = [], []
    server.url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat"
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


def _classify_over_http(commit, url, stats=None, **config):
    cfg = LlmConfig(endpoint=url, model="test-model", **config)
    return classify_commit(commit, GRADLE_SPEC, cfg, stats=stats)


def test_http_reply_is_parsed(gradle_commit, endpoint):
    endpoint.replies = [_ok_response('[{"RefactoringType": "Extract Task", "Details": "new task"}]')]
    out = _classify_over_http(gradle_commit, endpoint.url)
    assert {d.type for d in out} == {"Extract Task"}
    ((headers, body),) = endpoint.seen
    assert body["model"] == "test-model"
    assert body["messages"] == [{"role": "user", "content": build_prompt(gradle_commit, GRADLE_SPEC)}]
    assert "Authorization" not in headers


def test_http_server_error_is_retried(gradle_commit, endpoint):
    endpoint.replies = [(500, "boom"), _ok_response('[{"RefactoringType": "DRY", "Details": "d"}]')]
    stats = LlmStats()
    out = _classify_over_http(gradle_commit, endpoint.url, stats=stats)
    assert {d.type for d in out} == {"DRY"}
    assert (stats.requests, stats.retries) == (2, 1)


def test_http_429_past_the_retry_budget_raises_rate_limited(gradle_commit, endpoint):
    endpoint.replies = [(429, "slow down")] * 3
    with pytest.raises(RateLimitedError):
        _classify_over_http(gradle_commit, endpoint.url, max_retries=2)
    assert len(endpoint.seen) == 3


def test_http_reply_in_an_unknown_charset_is_read_as_utf8(gradle_commit, endpoint):
    content = '[{"RefactoringType": "DRY", "Details": "caf\u00e9"}]'
    body = json.dumps({"choices": [{"message": {"content": content}}]}, ensure_ascii=False)  # é as two bytes
    endpoint.replies = [(200, body, ("Content-Type", "application/json; charset=bogus"))]
    (detection,) = _classify_over_http(gradle_commit, endpoint.url)
    assert detection.details == "caf\u00e9"


def test_http_client_error_carries_status_and_body(gradle_commit, endpoint):
    endpoint.replies = [(404, '{"error": "no such model"}')]
    with pytest.raises(TransportError, match="unexpected status 404: .*no such model"):
        _classify_over_http(gradle_commit, endpoint.url)
    assert len(endpoint.seen) == 1  # a 4xx other than 429 is not retried


def test_http_closed_port_raises_transport_error(gradle_commit, monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    with pytest.raises(TransportError):
        _classify_over_http(gradle_commit, f"http://127.0.0.1:{closed_port()}/v1", max_retries=0)


def test_http_endpoint_without_scheme_raises_transport_error(gradle_commit):
    with pytest.raises(TransportError):  # not ValueError, which the CLI reports as a data error
        _classify_over_http(gradle_commit, "127.0.0.1:1/v1", max_retries=0)


def test_http_sends_authorization_from_the_key_variable(gradle_commit, endpoint, monkeypatch):
    monkeypatch.setenv("MY_TEST_KEY", "sk-secret")
    endpoint.replies = [_ok_response("No refactorings found.")]
    assert _classify_over_http(gradle_commit, endpoint.url, api_key_env="MY_TEST_KEY") == set()
    ((headers, _),) = endpoint.seen
    assert headers["Authorization"] == "Bearer sk-secret"


def test_http_redirect_does_not_carry_the_key(gradle_commit, endpoint, monkeypatch):
    monkeypatch.setenv("MY_TEST_KEY", "sk-secret")
    endpoint.replies = [(302, "", ("Location", "/elsewhere")), _ok_response("No refactorings found.")]
    assert _classify_over_http(gradle_commit, endpoint.url, api_key_env="MY_TEST_KEY") == set()
    (first, _), (redirected, _) = endpoint.seen
    assert first["Authorization"] == "Bearer sk-secret"
    assert "Authorization" not in redirected


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_http_redirect_of_the_post_is_followed_as_a_get_without_body_or_refused(gradle_commit, endpoint, status):
    endpoint.replies = [(status, "moved", ("Location", "/elsewhere")), _ok_response("No refactorings found.")]
    if status in (307, 308):
        with pytest.raises(TransportError, match=f"unexpected status {status}: moved"):
            _classify_over_http(gradle_commit, endpoint.url)
        assert len(endpoint.seen) == 1
        return
    assert _classify_over_http(gradle_commit, endpoint.url) == set()
    (_, posted), (headers, redirected) = endpoint.seen
    assert posted is not None and redirected is None and "Content-Type" not in headers


def test_http_follows_at_most_10_redirects(gradle_commit, endpoint):
    endpoint.replies = [(302, "", ("Location", f"/hop{n}")) for n in range(11)]
    with pytest.raises(TransportError, match="unexpected status 302"):
        _classify_over_http(gradle_commit, endpoint.url, max_retries=0)
    assert len(endpoint.seen) == 11


@pytest.mark.parametrize("scheme, proxy, no_proxy", [
    ("http", "HTTP_PROXY", None), ("http", "HTTP_PROXY", "127.0.0.1"), ("https", "HTTPS_PROXY", None),
], ids=["http", "no proxy", "https tunnel"])
def test_http_goes_through_the_proxy_the_environment_names(gradle_commit, keep_alive, tmp_path, scheme, proxy, no_proxy):
    """The proxy gets an HTTP request with the absolute URI, and an HTTPS one as
    a CONNECT tunnel, with the credentials of the proxy URL either way; NO_PROXY
    covering the host sends the request direct. Each case runs `detect` in a
    process of its own, since the environment is read there."""
    commits = tmp_path / "commits.jsonl"
    commits.write_text(commit_to_json(gradle_commit) + "\n")
    host = urllib.parse.urlsplit(keep_alive.url).netloc
    url = keep_alive.url.replace("http:", f"{scheme}:")
    env = {name: value for name, value in os.environ.items() if not name.lower().endswith("_proxy")}
    env.update({"PYTHONPATH": str(Path(llm_backend.__file__).parents[1]), proxy: f"http://us%40er:p%3Ass@{host}"})
    if no_proxy:
        env["NO_PROXY"] = no_proxy
    script = "import sys; from buildref.cli import run; sys.exit(run(sys.argv[1:]))"
    argv = ["detect", "--commits", str(commits), "--backend", "llm", "--endpoint", url, "--model", "m",
            "--no-cache", "--max-retries", "0", "--out", str(tmp_path / "det.jsonl")]
    code = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, timeout=60).returncode
    ((path, headers, body),) = keep_alive.requests
    auth = "Basic " + base64.b64encode(b"us@er:p:ss").decode()
    if scheme == "https":  # the 502 the tunnel gets is a transport failure
        assert (code, path, headers["Proxy-Authorization"], body) == (3, host, auth, None)
        return
    assert code == 0
    assert path == ("/v1/chat" if no_proxy else url)
    assert headers["Host"] == host and headers.get("Proxy-Authorization") == (None if no_proxy else auth)
    assert body["messages"] == [{"role": "user", "content": build_prompt(gradle_commit, GRADLE_SPEC)}]


@pytest.mark.skipif(shutil.which("openssl") is None, reason="no openssl command to make a certificate with")
def test_https_endpoint_with_a_certificate_no_one_signed_raises_transport_error(gradle_commit, keep_alive, tmp_path):
    key, cert = tmp_path / "key.pem", tmp_path / "cert.pem"
    subprocess.run(["openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-keyout", str(key), "-out", str(cert),
                    "-days", "1", "-subj", "/CN=127.0.0.1"], check=True, capture_output=True, timeout=60)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    keep_alive.socket = context.wrap_socket(keep_alive.socket, server_side=True)  # same descriptor, served on
    with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
        _classify_over_http(gradle_commit, keep_alive.url.replace("http:", "https:"), max_retries=0)


# --- one kept-alive connection per thread and origin ----------------------------------

def test_http_calls_on_one_thread_share_one_connection(gradle_commit, keep_alive):
    for _ in range(3):
        assert _classify_over_http(gradle_commit, keep_alive.url) == set()
    assert len(keep_alive.connections) == 1 and len(keep_alive.requests) == 3
    conn, _ = llm_backend._connections[(threading.get_ident(), "http", urllib.parse.urlsplit(keep_alive.url).netloc)]
    assert conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)  # headers and body go out at once


def test_http_connection_the_server_closed_while_idle_is_opened_again_at_once(gradle_commit, keep_alive, clock):
    _classify_over_http(gradle_commit, keep_alive.url)
    keep_alive.drop()
    stats = LlmStats()
    assert _classify_over_http(gradle_commit, keep_alive.url, stats=stats) == set()
    assert (stats.requests, stats.retries, clock.sleeps) == (1, 0, [])
    assert len(keep_alive.connections) == 2 and len(keep_alive.requests) == 2


def test_http_refused_new_connection_raises_after_the_backoff(gradle_commit, keep_alive, clock):
    _classify_over_http(gradle_commit, keep_alive.url)
    keep_alive.shutdown()
    keep_alive.server_close()  # the port is closed: the new connection is refused
    keep_alive.drop()
    stats = LlmStats()
    with pytest.raises(TransportError):
        _classify_over_http(gradle_commit, keep_alive.url, stats=stats, max_retries=1)
    assert (stats.requests, stats.retries, clock.sleeps) == (2, 1, [1])


def test_http_on_more_threads_than_cores_each_thread_keeps_its_own_connection(keep_alive):
    """All threads are alive before any calls: a thread that ended would hand
    its ident, and with it its kept connection, to a thread started later."""
    threads, calls, results = 8, 10, []
    started = threading.Barrier(threads, timeout=30)

    def work():
        started.wait()
        results.extend(llm_backend._http_transport(keep_alive.url, {}, {"model": "m"}, 10.0)[0] for _ in range(calls))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(worker.is_alive() for worker in workers)
    assert results == [200] * threads * calls
    assert len(keep_alive.connections) == threads and len(keep_alive.requests) == threads * calls


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="no TCP_QUICKACK on this platform")
def test_http_reply_written_in_two_parts_does_not_wait_for_a_delayed_ack(keep_alive):
    """The server sends each reply's headers and body in two writes, so Nagle's
    algorithm holds the body until the headers are acknowledged; a delayed ACK
    would make 50 requests take about 2 s."""
    started = time.perf_counter()
    for _ in range(50):
        status, _ = llm_backend._http_transport(keep_alive.url, {}, {"model": "m"}, 10.0)
        assert status == 200
    assert time.perf_counter() - started < 1.0
    assert len(keep_alive.connections) == 1
