"""Prompted detection of build refactorings through a chat-completion endpoint.

Builds zero-shot or one-shot prompts from the taxonomy registry, posts them to
any endpoint speaking the common chat-completion JSON shape, and parses the
model's reply into detections, which are cached on disk under a hash of the
request settings and the prompt. The transport is injectable so tests never
touch the network; the API key is only ever read from an environment variable.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import tempfile
import threading
import time
from enum import Enum
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import taxonomy
from .taxonomy import DetectedRefactoring
from .mining import BackendError, BuildSystem, CommitRecord, DataError, checked, dumps, loads

logger = logging.getLogger(__name__)

SENTINEL = "No refactorings found."
DELIMITER = "```"  # around each file's hunks in a prompt

INSTRUCTION_TEMPLATE = (
    "Task: Given the commit changes below that are applied on {build_system} build scripts "
    f"which will be delimited with {DELIMITER} characters, "
    "identify any occurrences of the listed refactoring types.\n"
    "\n"
    "Provide the results strictly in JSON format with the following keys: "
    "RefactoringType and Details.\n"
    "\n"
    "If there are multiple refactorings, return them as a list of JSON objects, "
    "where each object contains the following:\n"
    '- "RefactoringType": The type of refactoring detected.\n'
    '- "Details": A Description with further information about the change.\n'
    "\n"
    "Here are two examples of the format I expect:\n"
    '[{{"RefactoringType": "Extract Variable", "Details": "A repeated version literal was '
    'replaced by a single variable."}}]\n'
    '[{{"RefactoringType": "Pull Up Dependency", "Details": "A dependency declared in two '
    'submodules moved to the parent build file."}}, '
    '{{"RefactoringType": "Reformat Code", "Details": "Plugin declarations were rewritten '
    'using the plugins DSL."}}]\n'
    "\n"
    f'If no refactorings are detected, return the message: "{SENTINEL}"\n'
    "\n"
    "This is a list of 24 refactoring types in build files:\n"
)


class PromptMode(Enum):
    ZERO_SHOT = "zero_shot"
    ONE_SHOT = "one_shot"


class MixedBuildSystemsError(DataError):
    """The commit's diffs span more than one build system."""


class EmptyDiffError(DataError):
    """The commit carries no build-file diffs to describe."""


class UnparseableResponseError(BackendError):
    def __init__(self, text: str):
        excerpt = text.strip().replace("\n", " ")[:200]
        super().__init__(f"response matched none of the expected shapes: {excerpt!r}")


class TransportError(BackendError):
    """The endpoint could not be reached or replied with a server error."""


class RateLimitedError(TransportError):
    """The endpoint kept replying 429 past the retry budget."""


class PromptSpec(NamedTuple):
    mode: PromptMode
    build_system: BuildSystem


@checked
class LlmConfig(NamedTuple):
    endpoint: str
    model: str
    api_key_env: str = "BUILDREF_API_KEY"
    temperature: float = 0.0
    max_output_tokens: int = 2048
    timeout_seconds: float = 60.0
    max_retries: int = 3

    def _check(self) -> None:
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError("temperature must be within [0, 2]")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


class LlmStats(SimpleNamespace):
    def __init__(self, requests: int = 0, retries: int = 0, reprompts: int = 0, cache_hits: int = 0) -> None:
        super().__init__(requests=requests, retries=retries, reprompts=reprompts, cache_hits=cache_hits)

    def add(self, other: LlmStats) -> None:
        for name, count in vars(other).items():
            setattr(self, name, getattr(self, name) + count)


def _definitions_section(spec: PromptSpec) -> str:
    lines = []
    for n, t in enumerate(taxonomy.registry(), start=1):
        lines.append(f"{n}. {t.id} ({t.category.value}): {t.definition}")
        if spec.mode is PromptMode.ONE_SHOT:
            lines.append(f"   Example ({spec.build_system.value}):")
            for snippet_line in t.examples[spec.build_system].split("\n"):
                lines.append(f"   {snippet_line}")
    return "\n".join(lines)


def _commit_section(commit: CommitRecord) -> str:
    parts = []
    for fd in commit.file_diffs:
        parts.append(f"File: {fd.path} ({fd.change_kind.value})")
        parts.append(DELIMITER)
        for h in fd.hunks:
            parts.append(f"@@ -{h.old_start},{h.old_len} +{h.new_start},{h.new_len} @@")
            parts.extend(f"-{line}" for line in h.removed)
            parts.extend(f"+{line}" for line in h.added)
        parts.append(DELIMITER)
    return "\n".join(parts)


def build_prompt(commit: CommitRecord, spec: PromptSpec) -> str:
    """Deterministic prompt text for one commit.

    Raises EmptyDiffError for commits without build diffs and
    MixedBuildSystemsError when the diffs do not all share the spec's system.
    """
    if not commit.file_diffs:
        raise EmptyDiffError(commit.commit_hash)
    systems = {fd.build_system for fd in commit.file_diffs}
    if systems != {spec.build_system}:
        raise MixedBuildSystemsError(
            f"{commit.commit_hash}: diffs cover {sorted(s.value for s in systems)}, "
            f"prompt is for {spec.build_system.value}"
        )
    instruction = INSTRUCTION_TEMPLATE.format(build_system=spec.build_system.value)
    return "\n".join(
        [instruction, _definitions_section(spec), "", _commit_section(commit)]
    )


# --- response parsing -------------------------------------------------------

_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.S)


def _candidate_payloads(text: str) -> Iterator[object]:
    """The JSON values a reply may hold, in order: each fenced block, the whole
    reply, and the values that start at its first ``[`` and at its first ``{``.
    Text that does not decode, or is nested too deeply to, yields nothing."""
    candidates = [(m.group(1).strip(), None) for m in _FENCE_RE.finditer(text)] + [(text.strip(), None)]
    candidates += [(text, start) for start in (text.find("["), text.find("{")) if start != -1]
    for candidate, start in candidates:
        try:
            payload = loads(candidate, start)
        except ValueError:
            continue
        yield payload


def _detections_from_payload(payload) -> Optional[list[DetectedRefactoring]]:
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list):
        return None
    detections = []
    for item in payload:
        if not isinstance(item, dict) or "RefactoringType" not in item:
            return None
        raw_type = str(item["RefactoringType"])
        resolved = taxonomy.resolve_type(raw_type)
        detections.append(
            DetectedRefactoring(
                type=resolved.id if resolved else raw_type,
                details=str(item.get("Details", "")),
                evidence=(),
                backend="llm",
                unknown_type=resolved is None,
            )
        )
    return detections


def parse_response(text: str) -> set[DetectedRefactoring]:
    """Parse a model reply into detections.

    Accepts a JSON array of {RefactoringType, Details} objects, a single such
    object, or the no-findings sentinel sentence, tolerating surrounding prose
    and code fences. Unknown type strings are kept but flagged so evaluation
    can count them as false positives.
    """
    for payload in _candidate_payloads(text):
        detections = _detections_from_payload(payload)
        if detections is not None:
            return set(detections)
    if re.search(r"no\s+refactorings?\s+found", text, re.I):
        return set()
    raise UnparseableResponseError(text)


def serialize_detections(detections: Iterable[DetectedRefactoring]) -> str:
    """Render detections in the array wire shape the prompt asks for."""
    items = [
        {"RefactoringType": d.type, "Details": d.details}
        for d in sorted(detections, key=lambda d: (d.type, d.details))
    ]
    return dumps(items)


def deserialize_detections(text: str) -> set[DetectedRefactoring]:
    """Read back what :func:`serialize_detections` wrote; ValueError on anything else."""
    payload = loads(text)
    detections = _detections_from_payload(payload) if isinstance(payload, list) else None
    if detections is None:
        raise ValueError("not an array of {RefactoringType, Details} objects")
    return set(detections)


# --- transport and orchestration ---------------------------------------------

Transport = Callable[[str, dict, dict, float], tuple[int, str]]

_MAX_REDIRECTS = 10  # as many as urllib's redirect handler follows

# The open connection of each thread to each origin, keyed (thread id, scheme,
# host[:port]), with the headers its requests carry for a proxy. A thread id is
# given again only once its thread has ended, so no two running threads share a
# connection; the lock guards the dict, not the connections.
_connections: dict = {}
_connections_lock = threading.Lock()


def _http_transport(url: str, headers: dict, body: dict, timeout: float) -> tuple[int, str]:
    """POST ``body`` as JSON on this thread's connection to the URL's origin and
    return the reply's status and text. A 301, 302 or 303 reply is followed as
    a GET without body or headers, so the key never goes elsewhere."""
    import http.client  # imported here: runs without --backend llm never pay for it
    import string
    from urllib.parse import quote, urljoin

    method, target, data = "POST", url, json.dumps(body).encode()
    try:
        for hop in range(_MAX_REDIRECTS + 1):
            status, reply, raw = _exchange(method, target, headers, data, timeout)
            location = reply.get("Location")
            if status not in (301, 302, 303) or not location or hop == _MAX_REDIRECTS:
                break
            # the header was decoded as Latin-1: quote its bytes as urllib does
            target = urljoin(target, quote(location, encoding="iso-8859-1", safe=string.punctuation))
            method, headers, data = "GET", {}, None
        charset = reply.get_content_charset()
        try:
            return status, raw.decode(charset or "utf-8", "replace")
        except LookupError:  # a charset Python does not know is read as none given
            return status, raw.decode("utf-8", "replace")
    # refusals and timeouts are OSErrors; a URL without a scheme is a ValueError
    except (OSError, http.client.HTTPException, ValueError) as exc:
        raise TransportError(f"{url}: {exc}") from exc


def _exchange(method: str, url: str, headers: dict, data: Optional[bytes], timeout: float):
    """One request on this thread's connection to ``url``'s origin; returns the
    reply's status, headers (an ``http.client.HTTPMessage``) and body bytes.

    A reused connection that the server closed while idle fails with a
    ``ConnectionError`` before the reply's status line and headers are read.
    The request is then sent once more, at once, on a new connection; any other
    failure, or one on a new connection, is raised.
    """
    from urllib.parse import urlsplit

    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.netloc:
        raise ValueError(f"unknown url type: {url!r}")
    key = (threading.get_ident(), parts.scheme, parts.netloc)
    with _connections_lock:
        if key not in _connections:
            _connections[key] = _open_connection(parts.scheme, parts.netloc, timeout)
        conn, proxy_headers = _connections[key]
    if proxy_headers is None:
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    else:  # to a proxy: the absolute URI
        target, headers = url.partition("#")[0], {**headers, **proxy_headers}
    conn.timeout = timeout
    reused = conn.sock is not None
    if reused:
        conn.sock.settimeout(timeout)
    try:
        try:
            reply = _send(conn, method, target, headers, data)
        except ConnectionError:
            if not reused:
                raise
            conn.close()
            reply = _send(conn, method, target, headers, data)
        with reply:
            return reply.status, reply.headers, reply.read()
    except BaseException:  # whatever state it was left in, the next request opens a new one
        conn.close()
        raise


def _send(conn, method: str, target: str, headers: dict, data: Optional[bytes]):
    """Send one request on ``conn``, opening it if it is closed, and read the
    reply's status line and headers.

    ``http.client`` sets ``TCP_NODELAY`` on each socket it opens, since it sends
    headers and body in two ``send`` calls. ``TCP_QUICKACK``, set anew after
    each request (Linux turns it off again by itself), acknowledges the reply's
    first segment at once: a server that writes headers and body separately
    holds the body back until then, which a delayed ACK would make about 40 ms.
    """
    import socket

    conn.request(method, target, data, headers)
    quickack = getattr(socket, "TCP_QUICKACK", None)
    if quickack is not None:
        conn.sock.setsockopt(socket.IPPROTO_TCP, quickack, 1)
    return conn.getresponse()


def _open_connection(scheme: str, netloc: str, timeout: float):
    """A connection (not yet open) to ``scheme://netloc``, through the proxy the
    environment names for it, and the headers its requests carry for that proxy:
    None when they go in origin form, directly or through a CONNECT tunnel.

    The proxy is read from the environment here, once per connection, by the
    rules urllib follows (``HTTP_PROXY``, ``HTTPS_PROXY``, ``NO_PROXY``), and
    credentials in its URL are sent as urllib's ``ProxyHandler`` sends them.
    """
    import base64
    import http.client
    import urllib.request
    from urllib.parse import unquote

    classes = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}
    proxy = urllib.request.getproxies().get(scheme)
    if not proxy or urllib.request.proxy_bypass(netloc):
        return classes[scheme](netloc, timeout=timeout), None
    proxy_scheme, user, password, hostport = urllib.request._parse_proxy(proxy)
    auth = {}
    if user and password:
        credentials = base64.b64encode(f"{unquote(user)}:{unquote(password)}".encode()).decode("ascii")
        auth["Proxy-Authorization"] = f"Basic {credentials}"
    if scheme == "https":  # TLS runs end to end through the tunnel, verified against netloc
        conn = classes["https"](unquote(hostport), timeout=timeout)
        conn.set_tunnel(netloc, headers=auth)
        return conn, None
    if (proxy_scheme or scheme) not in classes:
        raise ValueError(f"unknown proxy type: {proxy!r}")
    return classes[proxy_scheme or scheme](unquote(hostport), timeout=timeout), auth


def close_connections() -> None:
    """Close every connection any thread keeps open; a later request opens a new one."""
    with _connections_lock:
        connections = list(_connections.values())
        _connections.clear()
    for conn, _ in connections:
        conn.close()


class RateLimiter:
    """Token bucket; acquire() blocks until a request slot is available."""

    def __init__(self, per_second: float, burst: int = 1):
        self.rate = per_second
        self.capacity = max(burst, 1)
        self.tokens = float(self.capacity)
        self.updated = time.monotonic()
        self.lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self.lock:
                now = time.monotonic()
                self.tokens = min(self.capacity, self.tokens + (now - self.updated) * self.rate)
                self.updated = now
                if self.tokens >= 1.0:
                    self.tokens -= 1.0
                    return
                needed = (1.0 - self.tokens) / self.rate
            time.sleep(needed)


_STRICT_REPROMPT = (
    "Your previous reply could not be parsed. Respond again with ONLY a JSON array of "
    'objects with keys "RefactoringType" and "Details", or exactly the message: '
    f'"{SENTINEL}"'
)


def classify_commit(
    commit: CommitRecord,
    spec: PromptSpec,
    config: LlmConfig,
    transport: Optional[Transport] = None,
    stats: Optional[LlmStats] = None,
    rate_limiter: Optional[RateLimiter] = None,
    cache_dir: Optional[str] = None,
) -> set[DetectedRefactoring]:
    """build_prompt -> cache lookup -> one chat request -> parse_response.

    Transport failures and 5xx replies are retried with exponential backoff up
    to config.max_retries; an unparseable reply earns exactly one strict-format
    reprompt before UnparseableResponseError surfaces. With ``cache_dir`` the
    parsed reply is kept in a file named after the request settings and the
    prompt, and a later call with the same ones reads it instead of asking.
    """
    transport = transport or _http_transport
    stats = stats if stats is not None else LlmStats()
    prompt = build_prompt(commit, spec)
    cache_path = None
    if cache_dir:
        # JSON escapes NUL, so the separator cannot occur in the settings part
        settings = json.dumps([config.endpoint, config.model, config.temperature, config.max_output_tokens])
        # a lone surrogate, which a commits line may hold as a JSON escape, is hashed too
        digest = hashlib.sha256(settings.encode() + b"\x00" + prompt.encode("utf-8", "surrogatepass")).hexdigest()
        cache_path = os.path.join(cache_dir, f"{digest}.json")
        cached = _read_cache(cache_path)
        if cached is not None:
            stats.cache_hits += 1
            return cached
        os.makedirs(cache_dir, exist_ok=True)
    messages = [{"role": "user", "content": prompt}]
    try:
        detections = parse_response(_complete(messages, config, transport, stats, rate_limiter))
    except UnparseableResponseError:
        stats.reprompts += 1
        messages = messages + [{"role": "user", "content": _STRICT_REPROMPT}]
        detections = parse_response(_complete(messages, config, transport, stats, rate_limiter))
    if cache_path:
        _write_cache(cache_path, serialize_detections(detections))
    return detections


def _read_cache(path: str) -> Optional[set[DetectedRefactoring]]:
    """The detections cached at ``path``, or None on a miss. A file that does
    not read back as what serialize_detections writes, or is nested too deeply
    to decode, is a miss too; so, without a warning, is a cache directory
    that is missing or is a file (which ``os.makedirs`` then reports)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return deserialize_detections(fh.read())
    except (FileNotFoundError, NotADirectoryError):
        return None
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        logger.warning("unreadable cache file %s, asking again: %s", path, exc)
        return None


def _write_cache(path: str, text: str) -> None:
    """Replace ``path`` in one step, so a reader never sees a partial file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _complete(
    messages: list[dict],
    config: LlmConfig,
    transport: Transport,
    stats: LlmStats,
    rate_limiter: Optional[RateLimiter],
) -> str:
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(config.api_key_env, "")
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    body = {
        "model": config.model,
        "messages": messages,
        "temperature": config.temperature,
        "max_tokens": config.max_output_tokens,
    }
    if logger.isEnabledFor(logging.DEBUG):
        redacted = {**headers, "Authorization": "Bearer ***"} if api_key else headers
        logger.debug("POST %s headers=%s body=%s", config.endpoint, redacted, json.dumps(body)[:2000])

    last_error: Optional[Exception] = None
    rate_limited = False
    for attempt in range(config.max_retries + 1):
        if attempt > 0:
            stats.retries += 1
            time.sleep(min(2 ** (attempt - 1), 30))
        if rate_limiter is not None:
            rate_limiter.acquire()
        stats.requests += 1
        try:
            status, text = transport(config.endpoint, headers, body, config.timeout_seconds)
        except TransportError as exc:
            last_error = exc
            continue
        if status == 429:
            rate_limited = True
            last_error = RateLimitedError("rate limited by endpoint")
            continue
        if status >= 500:
            last_error = TransportError(f"server error {status}")
            continue
        if status != 200:
            raise TransportError(f"unexpected status {status}: {text[:200]}")
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("response: %s", text[:2000])
        return _extract_content(text)
    if rate_limited:
        raise RateLimitedError("rate limited by endpoint after retries")
    raise TransportError(str(last_error) if last_error else "request failed")


def _extract_content(body_text: str) -> str:
    try:
        content = loads(body_text)["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError):
        # some serving stacks return the completion text directly
        return body_text
    if not isinstance(content, str):  # null, or a list of content parts
        raise UnparseableResponseError(body_text)
    return content
