import http.server
import json
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from buildref.detectors import CommitContext, detect_all
from buildref.mining import ChangeKind, CommitRecord, FileDiff, classify_build_file

sys.path.insert(0, str(Path(__file__).parent))  # makes `fixtures` importable

FAKE_HASH = "a" * 40


def make_commit(files_before, files_after, message="refactor build", keep_equal=False):
    """Synthesize a CommitRecord from two {path: content-or-None} snapshots."""
    diffs = []
    for path in sorted(set(files_before) | set(files_after)):
        before = files_before.get(path)
        after = files_after.get(path)
        if before == after and not keep_equal:
            continue
        if before is None and after is None:
            continue
        if before is None:
            kind = ChangeKind.ADDED
        elif after is None:
            kind = ChangeKind.DELETED
        else:
            kind = ChangeKind.MODIFIED
        system = classify_build_file(path)
        assert system is not None, f"test fixture path {path} is not a build file"
        diffs.append(
            FileDiff(
                path=path,
                build_system=system,
                change_kind=kind,
                before_content=before,
                after_content=after,
            )
        )
    return CommitRecord(
        repo_id="fixture",
        commit_hash=FAKE_HASH,
        message=message,
        author="tester",
        timestamp=0,
        file_diffs=tuple(diffs),
    )


def make_context(files_before, files_after, **kwargs):
    return CommitContext.from_commit(make_commit(files_before, files_after, **kwargs))


def detected_types(files_before, files_after):
    return {d.type for d in detect_all(make_context(files_before, files_after))}


def _git(repo: Path, *args: str) -> str:
    proc = subprocess.run(
        ["git", "-C", str(repo), *args], capture_output=True, text=True, check=True
    )
    return proc.stdout


def build_git_repo(root: Path, steps) -> list[str]:
    """Create a repo from (message, {path: content-or-None}) steps.

    Returns the commit hashes in commit order (oldest first).
    """
    root.mkdir(parents=True, exist_ok=True)
    _git(root, "init", "-q")
    _git(root, "config", "user.email", "tester@example.org")
    _git(root, "config", "user.name", "Tester")
    hashes = []
    for message, files in steps:
        for rel, content in files.items():
            target = root / rel
            if content is None:
                target.unlink()
            else:
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(content, encoding="utf-8")
        _git(root, "add", "-A")
        _git(root, "commit", "-q", "--allow-empty", "-m", message)
        hashes.append(_git(root, "rev-parse", "HEAD").strip())
    return hashes


def closed_port() -> int:
    """A loopback port that nothing listens on (it was free a moment ago)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class FakeClock:
    """Stands in for the ``time`` module where only ``monotonic`` and
    ``sleep`` are used: the clock moves only by what is slept, at once."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps: list[float] = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    """A FakeClock in place of ``llm_backend.time``: retry backoff and the rate
    limiter wait on it, so no test time passes, and each wait is noted."""
    from buildref import llm_backend

    fake = FakeClock()
    monkeypatch.setattr(llm_backend, "time", fake)
    return fake


class _KeepAliveHandler(http.server.BaseHTTPRequestHandler):
    """Answers each request with ``server.reply`` over HTTP/1.1, keeping the
    connection open. ``wbufsize = 0`` (the default, made plain) sends the
    headers and the body in two writes, as ``bench/stub.py`` does."""

    protocol_version = "HTTP/1.1"
    wbufsize = 0

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections.append(self.connection)
            self.server.handlers.append(threading.current_thread())

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length)) if length else None
        with self.server.lock:
            self.server.requests.append((self.path, dict(self.headers), body))
        status, text = self.server.reply
        payload = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_CONNECT(self):  # as a proxy, it reaches no server
        with self.server.lock:
            self.server.requests.append((self.path, dict(self.headers), None))
        self.send_error(502)

    def log_message(self, format, *args):
        pass


class KeepAliveServer(http.server.ThreadingHTTPServer):
    """A loopback chat endpoint that keeps connections open, one thread each.
    Set ``reply`` (status, text) before a request; ``connections`` holds each
    connection it accepted and ``handlers`` the thread serving it, ``requests``
    each (path, headers, JSON body) and ``errors`` each exception a handler
    raised. As a proxy it refuses each CONNECT tunnel with a 502, after noting
    it too."""

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _KeepAliveHandler)
        self.lock = threading.Lock()
        self.connections: list[socket.socket] = []
        self.handlers: list[threading.Thread] = []
        self.requests: list[tuple] = []
        self.errors: list[BaseException] = []
        self.reply = (200, json.dumps({"choices": [{"message": {"content": "No refactorings found."}}]}))
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1/chat"

    def handle_error(self, request, client_address) -> None:
        """Keep the handler's exception, which socketserver would print."""
        with self.lock:
            self.errors.append(sys.exc_info()[1])

    def drop(self) -> None:
        """Close every connection from the server's side, as an idle timeout does."""
        with self.lock:
            for conn in self.connections:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:  # closed already
                    pass


@pytest.fixture
def keep_alive(monkeypatch):
    """A running KeepAliveServer, reached without a proxy. At the end the
    client's connections are closed, then the server's; once every handler
    has ended, the test fails if one raised anything but a ConnectionError."""
    from buildref import llm_backend

    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.setenv(name, "127.0.0.1")
    server = KeepAliveServer()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield server
    llm_backend.close_connections()
    server.shutdown()
    server.server_close()
    server.drop()
    for worker in [thread, *server.handlers]:
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert [e for e in server.errors if not isinstance(e, ConnectionError)] == []


@pytest.fixture
def tmp_repo(tmp_path):
    return tmp_path / "repo"
