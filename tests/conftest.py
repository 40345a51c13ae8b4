import socket
import subprocess
import sys
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


@pytest.fixture
def tmp_repo(tmp_path):
    return tmp_path / "repo"
