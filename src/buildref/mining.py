"""Mine git histories for commits that touch build files.

Walks a repository's log, keeps commits whose message matches a keyword
(default: any message containing "refactor", case-insensitively) and that
modify at least one Maven, Ant, or Gradle build file, and materializes each
survivor as a :class:`CommitRecord` carrying full before/after file contents
and line-level diff hunks.

Everything here shells out to the ``git`` binary; no repository state is
mutated and records are immutable once constructed.
"""

from __future__ import annotations

import collections
import io
import itertools
import json
import logging
import math
import os
import re
from enum import Enum
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple, NoReturn, Optional, Sequence, TypeVar, Union

logger = logging.getLogger(__name__)

MAX_BUILD_FILE_BYTES = 5 * 1024 * 1024  # larger build files are skipped: parser protection

_HASH_RE = re.compile(r"[0-9a-f]{40}|[0-9a-f]{64}")  # SHA-1 or SHA-256 object names, matched whole

_READ_CHUNK = 64 * 1024  # the buffer of a git child's stdout reader, one read of it: a pipe's capacity


class BuildSystem(Enum):
    MAVEN = "Maven"
    ANT = "Ant"
    GRADLE = "Gradle"


class ChangeKind(Enum):
    ADDED = "added"
    DELETED = "deleted"
    MODIFIED = "modified"
    RENAMED = "renamed"


class DataError(Exception):
    """An input the run cannot use; the command line reports it and exits 2."""


class BackendError(Exception):
    """The detection backend failed; the command line reports it and exits 3."""


class RepoUnreadableError(DataError):
    """The given path is not a readable git repository."""


class GitObjectCorruptError(Exception):
    """A git object could not be read; the offending commit is skipped."""


_GRADLE_BASENAMES = {"settings.gradle", "settings.gradle.kts", "gradle.properties"}


def classify_build_file(path: str) -> Optional[BuildSystem]:
    """Classify a repo-relative path as a build file, or None.

    Matches on the final path segment only, case-sensitively: ``pom.xml`` is
    Maven, ``build.xml`` is Ant, and ``*.gradle`` / ``*.gradle.kts`` /
    ``gradle.properties`` are Gradle.
    """
    base = path.rsplit("/", 1)[-1]
    if base == "pom.xml":
        return BuildSystem.MAVEN
    if base == "build.xml":
        return BuildSystem.ANT
    if base in _GRADLE_BASENAMES or base.endswith(".gradle") or base.endswith(".gradle.kts"):
        return BuildSystem.GRADLE
    return None


class Hunk(NamedTuple):
    """One contiguous run of changed lines in a line diff.

    ``old_start``/``new_start`` are 1-based; a pure insertion has
    ``old_len == 0`` and ``old_start`` pointing at the line before which the
    insertion happens (0 when inserting at the top).
    """

    old_start: int
    old_len: int
    new_start: int
    new_len: int
    removed: tuple[str, ...]
    added: tuple[str, ...]


def _lines(text: Optional[str]) -> list[str]:
    if text is None:
        return []
    return text.split("\n")


def extract_diff(before_content: Optional[str], after_content: Optional[str]) -> list[Hunk]:
    """Longest-common-subsequence line diff between two file versions: the
    opcodes of ``difflib.SequenceMatcher(None, a, b, autojunk=False)``, from
    `linediff.LineMatcher`, one hunk per run between two ``equal`` ones.

    Returns the changed regions only; :func:`apply_hunks` replays them onto
    ``before_content`` to reproduce ``after_content`` exactly.
    """
    if before_content is None and after_content is None:
        raise ValueError("at least one side of the diff must be present")
    from .linediff import LineMatcher  # imported here: `mine` and `evaluate` never diff

    a = _lines(before_content)
    b = _lines(after_content)
    hunks: list[Hunk] = []
    opcodes = LineMatcher(a, b).get_opcodes()
    for changed, ops in itertools.groupby(opcodes, key=lambda op: op[0] != "equal"):
        if changed:
            run = list(ops)
            (_, i1, _, j1, _), (_, _, i2, _, j2) = run[0], run[-1]
            hunks.append(
                Hunk(
                    old_start=i1 + 1 if i2 > i1 else i1,
                    old_len=i2 - i1,
                    new_start=j1 + 1 if j2 > j1 else j1,
                    new_len=j2 - j1,
                    removed=tuple(a[i1:i2]),
                    added=tuple(b[j1:j2]),
                )
            )
    return hunks


def apply_hunks(before_content: Optional[str], hunks: Sequence[Hunk]) -> str:
    """Replay hunks onto a before text, returning the after text."""
    lines = _lines(before_content)
    out: list[str] = []
    cursor = 0  # 0-based index into `lines`
    for h in hunks:
        anchor = h.old_start - 1 if h.old_len else h.old_start
        out.extend(lines[cursor:anchor])
        out.extend(h.added)
        cursor = anchor + h.old_len
    out.extend(lines[cursor:])
    return "\n".join(out)


def checked(fields: type) -> type:
    """Class decorator: the `typing.NamedTuple` class ``fields`` as a subclass
    that calls its ``_check`` method, which raises on bad fields, whenever a
    record is built: by `_replace` too, which would skip ``__new__``."""

    def __new__(cls, *args, **kwargs):
        self = fields.__new__(cls, *args, **kwargs)
        self._check()
        return self

    return type(fields.__name__, (fields,), {
        "__slots__": (), "__doc__": fields.__doc__, "__module__": fields.__module__, "__new__": __new__,
        "_make": classmethod(lambda cls, values: cls(*values)),
    })


@checked
class FileDiff(NamedTuple):
    """One build file's change within a commit."""

    path: str
    build_system: BuildSystem
    change_kind: ChangeKind
    old_path: Optional[str] = None
    before_content: Optional[str] = None
    after_content: Optional[str] = None

    def _check(self) -> None:
        if self.change_kind is ChangeKind.ADDED and self.before_content is not None:
            raise ValueError(f"{self.path}: added file must not carry before_content")
        if self.change_kind is ChangeKind.DELETED and self.after_content is not None:
            raise ValueError(f"{self.path}: deleted file must not carry after_content")

    @property
    def hunks(self) -> tuple[Hunk, ...]:
        if self.before_content is None and self.after_content is None:
            return ()
        return tuple(extract_diff(self.before_content, self.after_content))


@checked
class CommitRecord(NamedTuple):
    """One mined commit restricted to its build-file diffs."""

    repo_id: str
    commit_hash: str
    message: str
    author: str
    timestamp: int
    file_diffs: tuple[FileDiff, ...]

    def _check(self) -> None:
        if not _HASH_RE.fullmatch(self.commit_hash):
            raise ValueError(f"commit_hash must be 40 or 64 lowercase hex chars: {self.commit_hash!r}")


@checked
class MiningFilter(NamedTuple):
    """Selection criteria for :func:`mine_commits`."""

    message_keyword: str = "refactor"
    build_systems: frozenset[BuildSystem] = frozenset(BuildSystem)
    max_commits: Optional[int] = None
    exclude_merges: bool = True

    def _check(self) -> None:
        if not self.build_systems:
            raise ValueError("build_systems must be non-empty")

    def matches_message(self, message: str) -> bool:
        return self.message_keyword.lower() in message.lower()


class MiningStats(SimpleNamespace):
    """Counters filled in by mine_commits for diagnostics."""

    def __init__(self) -> None:
        super().__init__(commits_scanned=0, commits_yielded=0, commits_skipped_corrupt=0, files_skipped=0, warnings=0)


class _GitPipe:
    """One long-lived git child whose output is read through one buffered reader.

    Requests go to its stdin, unbuffered. Where a reply is expected, running
    out of output means the child died: it is closed and GitObjectCorruptError
    carries the tail of its stderr.
    """

    def __init__(self, repo_path: str, *args: str, stdin: bool = True) -> None:
        import subprocess  # imported here: `detect`, `evaluate` and `report` never start git
        import tempfile

        self._stderr = tempfile.TemporaryFile()
        self._proc = subprocess.Popen(
            ["git", "-C", repo_path, *args],
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            bufsize=0,
        )
        self._out = io.BufferedReader(self._proc.stdout, _READ_CHUNK)
        self.closed = False
        self.error = ""

    def write(self, data: bytes) -> None:
        """Send requests. A child that has died is found by the read of the
        first reply it did not write, after the replies it did."""
        try:
            self._proc.stdin.write(data)
        except BrokenPipeError:
            pass

    def _died(self) -> NoReturn:
        self.close()
        raise GitObjectCorruptError(self.error)

    def wait(self) -> int:
        return self._proc.wait()

    def peek(self) -> bytes:
        """The next byte of output, not consumed; b"" at its end."""
        return self._out.peek()[:1]

    def read_until(self, delim: bytes, last: bool = False) -> bytes:
        """The output up to the next ``delim``, a single byte, which is consumed.
        Output that ends first means the child died, unless ``last`` is set:
        then it is what is left (b"" once all of it is read)."""
        parts = []
        while chunk := self._out.peek():
            end = chunk.find(delim)
            if end >= 0:
                parts.append(self._out.read(end + 1)[:-1])
                return b"".join(parts)
            parts.append(self._out.read(len(chunk)))
        if not last:
            self._died()
        return b"".join(parts)

    def read_exact(self, size: int) -> bytes:
        data = self._out.read(size)
        if len(data) < size:
            self._died()
        return data

    def skip(self, size: int) -> None:
        """Discard ``size`` bytes of output, holding at most one read of them."""
        while size:
            size -= len(self.read_exact(min(size, _READ_CHUNK)))

    def close(self) -> None:
        """End the child and keep the tail of its stderr in ``error``."""
        if self.closed:
            return
        self.closed = True
        for stream in (self._proc.stdin, self._out):
            if stream is not None:
                stream.close()
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        self._stderr.seek(0)
        message = self._stderr.read()[-2000:].decode("utf-8", errors="replace").strip()
        self._stderr.close()
        self.error = message or f"git {self._proc.args[3]} exited with {self._proc.returncode}"


class _Change(NamedTuple):
    kind: ChangeKind
    old_path: Optional[str]
    path: str
    old_blob: str
    new_blob: str


_STATUS_KINDS = {
    "A": ChangeKind.ADDED,
    "C": ChangeKind.ADDED,
    "D": ChangeKind.DELETED,
    "M": ChangeKind.MODIFIED,
    "R": ChangeKind.RENAMED,
    "T": ChangeKind.MODIFIED,
}


class _Walked(NamedTuple):
    commit_hash: str
    author: str
    timestamp: str
    parents: str
    message: str


def _walked(walk: _GitPipe) -> Iterator[_Walked]:
    """The commits of a ``rev-list --format=%an%x1f%at%x1f%P%x1f%B%x1e`` walk."""
    while raw := walk.read_until(b"\x1e", last=True):
        chunk = raw.decode("utf-8", errors="replace").lstrip("\n")
        if chunk.strip():
            header, fields = chunk.split("\n", 1)  # "commit <hash>", then the format
            yield _Walked(header.removeprefix("commit "), *fields.split("\x1f", 3))


# Not an object name, so ``diff-tree --stdin`` echoes it (and flushes) after
# the output of the commit line before it: it marks where that output ends.
# With ``--no-commit-id`` every entry of that output starts with ":".
_SENTINEL = b"#\n"

_DIFF_TREE = ("diff-tree", "--stdin", "--no-commit-id", "-r", "-M", "--root", "-z")

# A run writes the diff-tree requests of up to _LOOKAHEAD matching commits
# before it reads the first one's reply, topping them up in one write once
# half are answered, and sends a commit's blob ids to cat-file in writes of
# up to _BLOBS_PER_WRITE, each once every earlier reply is read. A request is
# at most 132 bytes (two SHA-256 names and the sentinel) and a blob id 65, so
# the requests a child has not answered stay under 16 KiB (2,112 and 8,320
# bytes). That fits in the child's stdin pipe (64 KiB on Linux) even when
# the child, its stdout pipe full, reads none of it: no write blocks while
# git waits for this process to read a reply, so the two cannot deadlock.
_LOOKAHEAD = 16
_BLOBS_PER_WRITE = 128

_Reply = Union[str, None, GitObjectCorruptError]


class _Objects:
    """The diff-tree and cat-file children shared by one mine_commits run.

    Each starts on first use and again after it dies, and the new one is sent
    the requests the dead one left unanswered, so an object that kills one
    costs only the commit that needed it.
    """

    def __init__(self, repo_path: str) -> None:
        self._repo_path = repo_path
        self._pipes: dict[str, _GitPipe] = {}
        self._queued: collections.deque[bytes] = collections.deque()  # diff-tree requests unanswered, oldest first

    def _pipe(self, *args: str) -> _GitPipe:
        pipe = self._pipes.get(args[0])
        if pipe is None or pipe.closed:
            pipe = self._pipes[args[0]] = _GitPipe(self._repo_path, *args)
            if args == _DIFF_TREE and self._queued:
                pipe.write(b"".join(self._queued))
        return pipe

    def request_changes(self, commits: Sequence[_Walked]) -> None:
        """Ask, in one write, for the files each commit changes against its
        first parent (all added for a root commit), with renames detected;
        `changes` reads the replies in the order they were asked for.

        A merge is diffed against its first parent explicitly; given alone,
        diff-tree would print nothing for it.
        """
        requests = []
        for commit in commits:
            parents = commit.parents.split()
            line = f"{commit.commit_hash} {parents[0]}" if parents else commit.commit_hash
            requests.append(line.encode() + b"\n" + _SENTINEL)
        if requests:
            pipe = self._pipe(*_DIFF_TREE)
            self._queued.extend(requests)
            pipe.write(b"".join(requests))

    def changes(self) -> list[_Change]:
        """The reply to the oldest request not yet read. A child that ends
        before the reply does fails this request alone."""
        pipe = self._pipe(*_DIFF_TREE)
        self._queued.popleft()
        changes = []
        while pipe.peek() != _SENTINEL[:1]:  # output that ends instead fails the read
            _, _, old_blob, new_blob, status = pipe.read_until(b"\0").decode().split(" ")
            paths = [
                pipe.read_until(b"\0").decode("utf-8", errors="replace")
                for _ in range(2 if status[0] in "RC" else 1)
            ]
            kind = _STATUS_KINDS.get(status[0])
            if kind is not None:
                old_path = paths[0] if paths[0] != paths[-1] else None
                changes.append(_Change(kind, old_path, paths[-1], old_blob, new_blob))
        pipe.skip(len(_SENTINEL))
        return changes

    def texts(self, blobs: Sequence[str]) -> list[_Reply]:
        """Each blob's reply, in order: its text, None for a binary or
        oversized blob, which is not decoded, or the error of one git cannot
        read (missing, or its child died answering it; the blobs after it go
        to a new child)."""
        replies: list[_Reply] = []
        while len(replies) < len(blobs):
            batch = blobs[len(replies) : len(replies) + _BLOBS_PER_WRITE]
            pipe = self._pipe("cat-file", "--batch")
            pipe.write("".join(f"{blob}\n" for blob in batch).encode())
            try:
                for _ in batch:
                    replies.append(_read_blob(pipe))
            except GitObjectCorruptError as exc:
                replies.append(exc)
        return replies

    def close(self) -> None:
        for pipe in self._pipes.values():
            pipe.close()


def _read_blob(pipe: _GitPipe) -> _Reply:
    """One reply of ``cat-file --batch``, as `_Objects.texts` gives it."""
    header = pipe.read_until(b"\n").split(b" ")
    if len(header) != 3:  # "<name> missing"
        return GitObjectCorruptError(b" ".join(header).decode("utf-8", errors="replace"))
    size = int(header[2])
    if size > MAX_BUILD_FILE_BYTES:
        pipe.skip(size + 1)
        return None
    data = pipe.read_exact(size)
    pipe.skip(1)  # the newline after the contents
    if b"\x00" in data:
        return None
    return data.decode("utf-8", errors="replace")


def _reply_text(reply: _Reply) -> Optional[str]:
    if isinstance(reply, GitObjectCorruptError):
        raise reply
    return reply


def _file_diff(change: _Change, system: BuildSystem, texts: dict[str, _Reply]) -> Optional[FileDiff]:
    """A changed build file from its blobs' replies, the after version looked
    at first: None when the first one looked at is binary or oversized."""
    before = after = None
    if change.kind is not ChangeKind.DELETED:
        after = _reply_text(texts[change.new_blob])
        if after is None:
            return None
    if change.kind is not ChangeKind.ADDED:
        before = _reply_text(texts[change.old_blob])
        if before is None:
            return None
    return FileDiff(change.path, system, change.kind, change.old_path, before, after)


def mine_commits(
    repo_path: str,
    mining_filter: Optional[MiningFilter] = None,
    stats: Optional[MiningStats] = None,
) -> Iterator[CommitRecord]:
    """Yield matching commits in reverse-chronological order.

    A commit is yielded when its message contains the filter keyword
    (case-insensitive substring) and it modifies at least one file classified
    into one of the filter's build systems. Each record's file_diffs contain
    only those build files. Corrupt objects skip the commit and bump the
    warning counters instead of aborting the walk.

    A run starts four git processes, however long the history: a
    ``rev-parse`` check that the path is a repository with a HEAD commit (an
    unborn HEAD ends the run there, with nothing yielded), the streamed
    ``rev-list`` walk, one ``diff-tree --stdin`` fed the matching commits and
    one ``cat-file --batch`` fed their build files' blobs (one more each time
    one of the last two dies and is started again, with the requests it left
    unanswered). All of them end when the generator does.
    RepoUnreadableError is raised when the path is no repository or the walk
    cannot read HEAD's commit.

    The walk is read ahead: the diff-tree requests of up to 16 matching
    commits are written before the first one's reply is read, and topped up
    in one write once half are answered, so git works on the next commits
    while this one is read and yielded. A commit's blob ids go to cat-file
    in one write, or one per 128 ids, and all of a write's replies are read
    before the next one. Neither child is ever sent 16 KiB of requests it
    has not answered, well within a pipe's capacity, so no write blocks
    while git waits for a reply to be read: the run cannot deadlock. Memory
    holds one commit's files and the headers, messages included, of up to
    16 commits read ahead. ``stats.commits_scanned`` counts the commits the
    run has reached, not those read ahead.
    """
    import subprocess  # imported here: `detect`, `evaluate` and `report` never start git

    mining_filter = mining_filter or MiningFilter()
    stats = stats if stats is not None else MiningStats()
    repo_path = os.path.abspath(repo_path)
    try:
        head = subprocess.run(
            ["git", "-C", repo_path, "rev-parse", "--git-dir", "--verify", "-q", "HEAD"],
            capture_output=True,
            timeout=120,
        )
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise RepoUnreadableError(f"{repo_path}: {exc}") from exc
    # exit 1: HEAD names no commit yet, an empty repository; 128: no repository
    if head.returncode == 1:
        return
    if head.returncode != 0:
        raise RepoUnreadableError(f"{repo_path}: {head.stderr.decode('utf-8', errors='replace').strip()}")

    repo_id = os.path.basename(repo_path.rstrip("/")) or repo_path
    walk_args = ["rev-list", "--format=%an%x1f%at%x1f%P%x1f%B%x1e"]
    if mining_filter.exclude_merges:
        walk_args.append("--no-merges")
    walk = _GitPipe(repo_path, *walk_args, "HEAD", "--", stdin=False)
    objects = _Objects(repo_path)
    try:
        yielded = 0
        walked = _walked(walk)
        window: collections.deque[tuple[int, _Walked]] = collections.deque()  # (commits it reaches, a commit asked for)
        passed = 0  # commits walked since the last one asked for, none of them matching
        while True:
            if mining_filter.max_commits is not None and yielded >= mining_filter.max_commits:
                return
            if len(window) <= _LOOKAHEAD // 2:  # top it up in one write, while git still has work
                asked = []
                while len(window) < _LOOKAHEAD and (commit := next(walked, None)) is not None:
                    passed += 1
                    if mining_filter.matches_message(commit.message):
                        window.append((passed, commit))
                        asked.append(commit)
                        passed = 0
                objects.request_changes(asked)
            if not window:
                break
            reached, commit = window.popleft()
            stats.commits_scanned += reached
            try:
                changes = [
                    (change, system)
                    for change in objects.changes()
                    if (system := classify_build_file(change.path)) in mining_filter.build_systems
                ]
                blobs: dict[str, None] = {}  # each blob once, in the order first needed
                for change, _ in changes:
                    if change.kind is not ChangeKind.DELETED:
                        blobs[change.new_blob] = None
                    if change.kind is not ChangeKind.ADDED:
                        blobs[change.old_blob] = None
                texts = dict(zip(blobs, objects.texts(list(blobs))))
                diffs = []
                for change, system in changes:
                    diff = _file_diff(change, system, texts)
                    if diff is None:
                        stats.files_skipped += 1
                        stats.warnings += 1
                        logger.warning(
                            "skipping binary or oversized build file %s in %s", change.path, commit.commit_hash
                        )
                        continue
                    diffs.append(diff)
            except GitObjectCorruptError as exc:
                stats.commits_skipped_corrupt += 1
                stats.warnings += 1
                logger.warning("skipping corrupt commit %s: %s", commit.commit_hash, exc)
                continue
            if not diffs:
                continue
            record = CommitRecord(
                repo_id=repo_id,
                commit_hash=commit.commit_hash,
                message=commit.message.rstrip("\n"),
                author=commit.author,
                timestamp=int(commit.timestamp),
                file_diffs=tuple(sorted(diffs, key=lambda d: d.path)),
            )
            stats.commits_yielded += 1
            yield record
            yielded += 1
        stats.commits_scanned += passed
        if walk.wait() != 0:
            walk.close()
            if not stats.commits_scanned:  # HEAD names a commit git cannot read
                raise RepoUnreadableError(f"{repo_path}: {walk.error}")
            stats.warnings += 1
            logger.warning("history walk of %s stopped early: %s", repo_path, walk.error)
    finally:
        walk.close()
        objects.close()


# --- line-oriented JSON wire format ---------------------------------------

def commit_to_json(record: CommitRecord) -> str:
    """Serialize one CommitRecord as a single JSON line."""
    payload = {
        "repo_id": record.repo_id,
        "commit_hash": record.commit_hash,
        "message": record.message,
        "author": record.author,
        "timestamp": record.timestamp,
        "file_diffs": [
            {
                "path": d.path,
                "build_system": d.build_system.value,
                "change_kind": d.change_kind.value,
                **({"old_path": d.old_path} if d.old_path else {}),
                "before_content": d.before_content,
                "after_content": d.after_content,
            }
            for d in record.file_diffs
        ],
    }
    return json.dumps(payload, ensure_ascii=False)


_DECODER = json.JSONDecoder()
T = TypeVar("T")


def loads(text: str, start: Optional[int] = None):
    """The JSON value of ``text``, or the one that begins at ``start`` whatever
    follows it; a ValueError when it does not decode or is nested too deeply to."""
    try:
        return json.loads(text) if start is None else _DECODER.raw_decode(text, start)[0]
    except RecursionError as exc:
        raise ValueError("nested too deeply to decode") from exc


def dumps(value) -> str:
    """``value`` as JSON with its text raw, or escaped to ASCII when it holds
    a lone surrogate, which UTF-8 cannot encode."""
    text = json.dumps(value, ensure_ascii=False)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return json.dumps(value)
    return text


def json_lines(
    lines: Iterable[Union[str, bytes]], what: str, read: Callable[[str], T], first: int = 1
) -> Iterator[tuple[int, T]]:
    """(number, ``read(line)``) of each non-blank line without its newline, the
    lines numbered from ``first`` with blank lines counted (a raw U+2028 ends
    none). A line of bytes is decoded as UTF-8 first. A DataError, ValueError
    (a byte that is not UTF-8 among them) or KeyError from the decoding or
    ``read`` is a DataError naming ``"<what> line <n>"``, a missing key as
    ``missing <key>``."""
    for number, line in enumerate(lines, first):
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            if not line.strip():
                continue
            value = read(line.rstrip("\n"))
        except KeyError as exc:
            raise DataError(f"{what} line {number}: missing {exc.args[0]}") from exc
        except (DataError, ValueError) as exc:
            raise DataError(f"{what} line {number}: {exc}") from exc
        yield number, value


def _text(obj: dict, key: str, optional: bool = False) -> Optional[str]:
    """``obj[key]``, which must be a string (or None or absent, when optional)."""
    value = obj.get(key) if optional else obj[key]
    if not isinstance(value, str) and not (optional and value is None):
        raise DataError(f"{key} must be a string, not {type(value).__name__}")
    return value


def commit_from_json(line: str) -> CommitRecord:
    """Parse one line written by :func:`commit_to_json`; a line of another
    shape is a DataError (a missing key a KeyError, a bad value a ValueError)."""
    obj = loads(line)
    if not isinstance(obj, dict):
        raise DataError(f"expected an object, not {type(obj).__name__}")
    file_diffs = obj["file_diffs"]
    if not isinstance(file_diffs, list) or not all(isinstance(d, dict) for d in file_diffs):
        raise DataError("file_diffs must be a list of objects")
    diffs = tuple(
        FileDiff(
            path=_text(d, "path"),
            build_system=BuildSystem(_text(d, "build_system")),
            change_kind=ChangeKind(_text(d, "change_kind")),
            old_path=_text(d, "old_path", optional=True),
            before_content=_text(d, "before_content", optional=True),
            after_content=_text(d, "after_content", optional=True),
        )
        for d in file_diffs
    )
    timestamp = obj["timestamp"]
    if type(timestamp) is float:  # 1.5, NaN, or JSON's 1e400, which reads as an infinite float
        reason = "is out of range" if math.isinf(timestamp) else "is not an integer"
        raise DataError(f"timestamp {timestamp} {reason}")
    if type(timestamp) is not int:  # a string, a list, an object, a boolean or null
        raise DataError(f"timestamp must be a number, not {type(timestamp).__name__}")
    return CommitRecord(
        repo_id=_text(obj, "repo_id"),
        commit_hash=_text(obj, "commit_hash"),
        message=_text(obj, "message"),
        author=_text(obj, "author"),
        timestamp=timestamp,
        file_diffs=diffs,
    )
