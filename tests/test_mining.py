import difflib
import os
import random
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buildref import linediff, mining
from buildref.mining import (
    BuildSystem,
    ChangeKind,
    CommitRecord,
    DataError,
    FileDiff,
    MiningFilter,
    MiningStats,
    RepoUnreadableError,
    apply_hunks,
    classify_build_file,
    commit_from_json,
    commit_to_json,
    extract_diff,
    mine_commits,
)
from conftest import build_git_repo


# --- classify_build_file ---------------------------------------------------

@pytest.mark.parametrize(
    "path,expected",
    [
        ("pom.xml", BuildSystem.MAVEN),
        ("deep/nested/pom.xml", BuildSystem.MAVEN),
        ("build.xml", BuildSystem.ANT),
        ("sub/module/build.gradle.kts", BuildSystem.GRADLE),
        ("build.gradle", BuildSystem.GRADLE),
        ("settings.gradle", BuildSystem.GRADLE),
        ("settings.gradle.kts", BuildSystem.GRADLE),
        ("gradle.properties", BuildSystem.GRADLE),
        ("publish.gradle", BuildSystem.GRADLE),
        ("src/main/java/App.java", None),
        ("POM.XML", None),          # case-sensitive
        ("mypom.xml", None),        # basename must match exactly
        ("build.xml.bak", None),
        ("gradlew", None),
    ],
)
def test_classify_build_file(path, expected):
    assert classify_build_file(path) is expected


# --- extract_diff ------------------------------------------------------------

def test_identical_texts_give_empty_hunks():
    assert extract_diff("a\nb", "a\nb") == []


def test_single_line_replacement():
    hunks = extract_diff("a\nb", "a\nc")
    assert len(hunks) == 1
    h = hunks[0]
    assert (h.old_start, h.old_len, h.new_start, h.new_len) == (2, 1, 2, 1)
    assert h.removed == ("b",)
    assert h.added == ("c",)


def test_reformat_example_diff_shape():
    from fixtures import REFORMAT_BEFORE, REFORMAT_AFTER

    hunks = extract_diff(REFORMAT_BEFORE, REFORMAT_AFTER)
    removed = [line for h in hunks for line in h.removed]
    added = [line for h in hunks for line in h.added]
    assert "apply plugin: 'jacoco'" in removed
    assert "apply plugin: 'groovy'" in removed
    assert "plugins {" in added


def test_one_side_absent():
    hunks = extract_diff(None, "a\nb")
    assert apply_hunks(None, hunks) == "a\nb"
    hunks = extract_diff("a\nb", None)
    assert apply_hunks("a\nb", hunks) == ""


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(["a", "b", "c", "dd", ""]), max_size=14),
    st.lists(st.sampled_from(["a", "b", "c", "dd", ""]), max_size=14),
)
def test_diff_round_trip_property(before_lines, after_lines):
    before = "\n".join(before_lines)
    after = "\n".join(after_lines)
    assert apply_hunks(before, extract_diff(before, after)) == after


def _difflib_hunks(before, after):
    """The hunks of difflib's opcodes, as extract_diff built them before it
    had a matcher of its own: each run of opcodes between equal ones."""
    a, b = before.split("\n"), after.split("\n")
    hunks, run = [], []
    for op in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes() + [("equal", 0, 0, 0, 0)]:
        if op[0] != "equal":
            run.append(op)
        elif run:
            (_, i1, _, j1, _), (_, _, i2, _, j2) = run[0], run[-1]
            hunks.append((i1 + 1 if i2 > i1 else i1, i2 - i1, j1 + 1 if j2 > j1 else j1, j2 - j1, a[i1:i2], b[j1:j2]))
            run = []
    return hunks


def _as_tuples(hunks):
    return [(h.old_start, h.old_len, h.new_start, h.new_len, list(h.removed), list(h.added)) for h in hunks]


def fuzzed_pairs(seed, count):
    """``count`` pairs of line lists over alphabets of 1 to 26 lines: half
    drawn apart, half an edited copy (inserts, deletes, replacements)."""
    rng = random.Random(seed)
    for _ in range(count):
        alphabet = "abcdefghijklmnopqrstuvwxyz"[: rng.choice((1, 2, 3, 5, 26))]
        a = [rng.choice(alphabet) for _ in range(rng.randrange(31))]
        if rng.random() < 0.5:
            b = [rng.choice(alphabet) for _ in range(rng.randrange(31))]
        else:
            b = list(a)
            for _ in range(rng.randrange(5)):
                at = rng.randrange(len(b) + 1)
                if rng.random() < 0.4 or not b:
                    b.insert(at, rng.choice(alphabet))
                elif rng.random() < 0.5:
                    del b[min(at, len(b) - 1)]
                else:
                    b[min(at, len(b) - 1)] = rng.choice(alphabet)
        yield a, b


# SequenceMatcher is not minimal here: trimming the common prefix and suffix
# gives other hunks, so only difflib's own recursion and tie rule give these.
_NOT_MINIMAL = (["b", "a", "a", "a", "a", "a"], ["b", "a", "a", "b", "a", "a", "a"])


def _check_against_difflib(pairs, hunks_every=1):
    """Equal opcodes for every pair; equal hunks from `extract_diff` for every
    ``hunks_every``-th."""
    for n, (a, b) in enumerate(pairs):
        expected = difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes()
        assert linediff.LineMatcher(a, b).get_opcodes() == expected, (a, b)
        if n % hunks_every == 0:
            before, after = "\n".join(a), "\n".join(b)
            assert _as_tuples(extract_diff(before, after)) == _difflib_hunks(before, after), (a, b)


def test_line_diff_equals_difflib_on_fuzzed_pairs(monkeypatch):
    monkeypatch.setattr(linediff, "_SMALL_QUERY", 0)  # every query by hashed windows, none by difflib
    _check_against_difflib([_NOT_MINIMAL, *fuzzed_pairs(16, 20_000)], hunks_every=10)


def test_line_diff_equals_difflib_on_large_edited_pairs():
    # large enough that the top queries are answered by hashed windows, the small ones by difflib
    rng = random.Random(17)
    pairs = []
    for _ in range(60):
        alphabet = [str(n) for n in range(rng.choice((2, 3, 8, 50)))] + ["}"] * 3
        a = [rng.choice(alphabet) for _ in range(rng.randrange(70, 300))]
        b = list(a)
        for _ in range(rng.randrange(12)):
            at = rng.randrange(len(b) + 1)
            b[at:at] = b[rng.randrange(len(b)) :][: rng.randrange(1, 30)] if rng.random() < 0.3 else [rng.choice(alphabet)]
            del b[rng.randrange(len(b))]
        pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    _check_against_difflib(pairs)


def test_line_diff_equals_difflib_when_windows_share_hashes(monkeypatch):
    # modulo 7 most windows collide, so equal hashes of unequal windows are searched past
    monkeypatch.setattr(linediff, "_HASH_MOD", 7)
    rng = random.Random(5)
    pairs = []
    for _ in range(20):
        a = [str(rng.randrange(12)) for _ in range(rng.randrange(70, 120))]
        b = [line for line in a if rng.random() < 0.85] + [str(rng.randrange(12)) for _ in range(rng.randrange(10))]
        pairs.append((a, b))
    assert all(len(a) * len(b) > linediff._SMALL_QUERY for a, b in pairs)
    _check_against_difflib(pairs)


class _TooManySteps(Exception):
    pass


def _traced_steps(call, budget):
    """How many calls and lines the interpreter traces while ``call()`` runs;
    past ``budget`` the call is stopped, so a quadratic matcher fails fast."""
    steps = 0

    def tracer(frame, event, arg):
        nonlocal steps
        steps += 1
        if steps > budget:
            raise _TooManySteps(f"more than {budget} steps")
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return steps


def test_line_diff_steps_grow_near_linearly_on_repeated_lines():
    """5,000 lines of which 1,000 are ``}``: difflib's search pairs every ``}``
    with every other in each longest-match query, and the whole diff traces
    about 44 million steps; the matcher traces about 350,000. Steps are
    counted, not seconds, so the guard does not depend on the host; nor are
    line comparisons counted, as difflib's quadratic work is bookkeeping on
    the positions of equal lines, which compares no lines."""
    blocks = [[f"task t{n} {{", f"    from 'src/{n}'", f"    into 'out/{n}'", "    include '**/*'", "}"] for n in range(1000)]
    before = [line for block in blocks for line in block]
    after = ["// reformatted", *before[1:]]
    for n in range(50, 1000, 100):  # a block gone and a line added every hundred blocks
        after[5 * n : 5 * n + 5] = [f"task t{n}.b {{", "}", "", "", ""]
    before_text, after_text = "\n".join(before), "\n".join(after)
    hunks = []
    steps = _traced_steps(lambda: hunks.extend(extract_diff(before_text, after_text)), budget=1_000_000)
    assert apply_hunks(before_text, hunks) == after_text
    assert steps < 1_000_000


# --- record invariants ---------------------------------------------------------

def test_commit_hash_must_be_40_hex():
    with pytest.raises(ValueError):
        CommitRecord("r", "ABC", "m", "a", 0, ())


@pytest.mark.parametrize("length", [40, 64])
def test_commit_hash_is_exactly_40_or_64_lowercase_hex(length):
    assert CommitRecord("r", "a" * length, "m", "a", 0, ()).commit_hash == "a" * length
    for bad in ("a" * (length - 1), "a" * (length + 1), "A" * length, "a" * length + "\n"):
        with pytest.raises(ValueError, match="commit_hash must be 40 or 64 lowercase hex chars"):
            CommitRecord("r", bad, "m", "a", 0, ())


def test_added_file_rejects_before_content():
    with pytest.raises(ValueError):
        FileDiff(
            path="pom.xml",
            build_system=BuildSystem.MAVEN,
            change_kind=ChangeKind.ADDED,
            before_content="x",
            after_content="y",
        )


def test_filter_requires_nonempty_build_systems():
    with pytest.raises(ValueError):
        MiningFilter(build_systems=frozenset())


# --- mine_commits ----------------------------------------------------------------

TEN_COMMITS = [
    ("initial layout", {"build.gradle": "apply plugin: 'java'\n", "src/Main.java": "class Main {}\n"}),
    ("Refactor build logic", {"build.gradle": "apply plugin: 'java'\napply plugin: 'groovy'\n"}),
    ("refactoring cleanup", {"src/Main.java": "class Main { int x; }\n"}),
    ("REFACTORS: simplify pom", {"pom.xml": "<project><artifactId>a</artifactId></project>\n"}),
    ("fix bug", {"build.xml": "<project name='p'/>\n"}),
    ("post-refactor tidy", {"build.xml": "<project name='p' default='x'/>\n"}),
    ("docs", {"README.md": "hello\n"}),
    ("Refactored settings", {"settings.gradle": "rootProject.name = 'demo'\n"}),
    ("bump version", {"pom.xml": "<project><artifactId>a</artifactId><version>2</version></project>\n"}),
    ("merge notes", {"README.md": "hello world\n"}),
]
# hand enumeration: commits 2, 4, 6, 8 (1-based) have the keyword AND touch a
# build file; 3 has the keyword only, 5 and 9 a build file only.
MATCHING_INDICES = [1, 3, 5, 7]


def test_mine_commits_yields_exactly_the_matching_four(tmp_repo):
    hashes = build_git_repo(tmp_repo, TEN_COMMITS)
    expected = [hashes[i] for i in reversed(MATCHING_INDICES)]  # newest first
    mined = list(mine_commits(tmp_repo, MiningFilter()))
    assert [r.commit_hash for r in mined] == expected


def test_mined_records_satisfy_filter_soundness(tmp_repo):
    build_git_repo(tmp_repo, TEN_COMMITS)
    mining_filter = MiningFilter(build_systems=frozenset({BuildSystem.GRADLE}))
    for record in mine_commits(tmp_repo, mining_filter):
        assert "refactor" in record.message.lower()
        assert record.file_diffs
        for fd in record.file_diffs:
            assert fd.build_system is BuildSystem.GRADLE


def test_mine_commits_is_deterministic(tmp_repo):
    build_git_repo(tmp_repo, TEN_COMMITS)
    first = [commit_to_json(r) for r in mine_commits(tmp_repo, MiningFilter())]
    second = [commit_to_json(r) for r in mine_commits(tmp_repo, MiningFilter())]
    assert first == second


def test_max_commits_truncates(tmp_repo):
    build_git_repo(tmp_repo, TEN_COMMITS)
    mined = list(mine_commits(tmp_repo, MiningFilter(max_commits=2)))
    assert len(mined) == 2
    # commits read ahead of the last one yielded are not counted as scanned
    for max_commits, counts in ((0, (0, 0)), (1, (3, 1)), (2, (5, 2)), (4, (9, 4)), (5, (10, 4))):
        stats = MiningStats()
        list(mine_commits(tmp_repo, MiningFilter(max_commits=max_commits), stats))
        assert (stats.commits_scanned, stats.commits_yielded) == counts, max_commits


def test_file_contents_and_change_kinds(tmp_repo):
    hashes = build_git_repo(
        tmp_repo,
        [
            ("base", {"build.gradle": "apply plugin: 'java'\n"}),
            ("refactor: split", {"build.gradle": "apply plugin: 'java'\n// split\n",
                                 "sub/build.gradle": "apply plugin: 'groovy'\n"}),
            ("refactor: drop sub", {"sub/build.gradle": None}),
        ],
    )
    mined = {r.commit_hash: r for r in mine_commits(tmp_repo, MiningFilter())}
    split = mined[hashes[1]]
    kinds = {d.path: d.change_kind for d in split.file_diffs}
    assert kinds == {"build.gradle": ChangeKind.MODIFIED, "sub/build.gradle": ChangeKind.ADDED}
    sub = next(d for d in split.file_diffs if d.path == "sub/build.gradle")
    assert sub.before_content is None
    assert sub.after_content == "apply plugin: 'groovy'\n"
    drop = mined[hashes[2]]
    assert drop.file_diffs[0].change_kind is ChangeKind.DELETED
    assert drop.file_diffs[0].after_content is None


def test_merge_commits_excluded_by_default(tmp_repo):
    build_git_repo(tmp_repo, [("base", {"build.gradle": "apply plugin: 'java'\n"})])
    import subprocess

    def git(*args):
        subprocess.run(["git", "-C", str(tmp_repo), *args], check=True, capture_output=True)

    git("checkout", "-q", "-b", "feature")
    (tmp_repo / "build.gradle").write_text("apply plugin: 'java'\n// branch\n")
    git("commit", "-qam", "refactor on branch")
    git("checkout", "-q", "master")
    (tmp_repo / "pom.xml").write_text("<project><artifactId>m</artifactId></project>")
    git("add", "-A")
    git("commit", "-qm", "mainline work")
    git("merge", "--no-ff", "-m", "refactor merge of feature", "feature")

    default = list(mine_commits(tmp_repo, MiningFilter()))
    assert [r.message for r in default] == ["refactor on branch"]
    with_merges = list(mine_commits(tmp_repo, MiningFilter(exclude_merges=False)))
    assert "refactor merge of feature" in [r.message for r in with_merges]


def test_oversized_build_file_skipped(tmp_repo):
    big = "x = 'y'\n" * (800_000)  # > 5 MB
    build_git_repo(tmp_repo, [("refactor: huge", {"build.gradle": big})])
    stats = MiningStats()
    mined = list(mine_commits(tmp_repo, MiningFilter(), stats))
    assert mined == []
    assert stats.files_skipped == 1
    assert stats.warnings >= 1


def test_unreadable_repo_raises():
    with pytest.raises(RepoUnreadableError):
        list(mine_commits("/nonexistent/nowhere", MiningFilter()))


def test_commit_json_round_trip(tmp_repo):
    build_git_repo(tmp_repo, TEN_COMMITS)
    for record in mine_commits(tmp_repo, MiningFilter()):
        line = commit_to_json(record)
        assert commit_from_json(line) == record
        import json

        obj = json.loads(line)
        assert set(obj) == {"repo_id", "commit_hash", "message", "author", "timestamp", "file_diffs"}
        for fd in obj["file_diffs"]:
            assert {"path", "build_system", "change_kind", "before_content", "after_content"} <= set(fd)


_COMMIT = {"repo_id": "r", "commit_hash": "a" * 40, "message": "m", "author": "x", "timestamp": 1}
_DIFF = {"path": "pom.xml", "build_system": "Maven", "change_kind": "modified",
         "before_content": "<project/>", "after_content": "<project/>"}


@pytest.mark.parametrize("obj, message", [
    ([1], "expected an object, not list"),
    ("text", "expected an object, not str"),
    ({**_COMMIT, "file_diffs": [{**_DIFF, "before_content": 5}]}, "before_content must be a string, not int"),
    ({**_COMMIT, "file_diffs": [{**_DIFF, "path": ["pom.xml"]}]}, "path must be a string, not list"),
    ({**_COMMIT, "file_diffs": [{**_DIFF, "build_system": None}]}, "build_system must be a string, not NoneType"),
    ({**_COMMIT, "message": {"m": 1}, "file_diffs": []}, "message must be a string, not dict"),
    ({**_COMMIT, "timestamp": [1], "file_diffs": []}, "timestamp must be a number, not list"),
    ({**_COMMIT, "file_diffs": "pom.xml"}, "file_diffs must be a list of objects"),
    ({**_COMMIT, "file_diffs": [["pom.xml"]]}, "file_diffs must be a list of objects"),
    ({**_COMMIT, "timestamp": float("nan"), "file_diffs": []}, "timestamp nan is not an integer"),
    ({**_COMMIT, "timestamp": 1.5, "file_diffs": []}, "timestamp 1.5 is not an integer"),
    ({**_COMMIT, "timestamp": "12", "file_diffs": []}, "timestamp must be a number, not str"),
    ({**_COMMIT, "timestamp": True, "file_diffs": []}, "timestamp must be a number, not bool"),
])
def test_commit_line_of_the_wrong_shape_is_a_data_error(obj, message):
    import json

    with pytest.raises(DataError, match=f"^{message}$"):
        commit_from_json(json.dumps(obj))


# --- what the batch readers must keep ------------------------------------------------

def _git_out(repo, *args):
    return subprocess.run(
        ["git", "-C", str(repo), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def _delete_loose_object(repo, name):
    oid = _git_out(repo, "rev-parse", name)
    (repo / ".git" / "objects" / oid[:2] / oid[2:]).unlink()


THREE_POMS = [
    (f"refactor: pom {i}", {"pom.xml": f"<project><version>{i}</version></project>\n"})
    for i in (1, 2, 3)
]


def test_rename_carries_old_path_and_reads_before_text_from_it(tmp_repo):
    pom = "".join(f"<!-- line {i} -->\n" for i in range(12)) + "<project><version>1</version></project>\n"
    moved = pom.replace("<version>1", "<version>2")
    hashes = build_git_repo(
        tmp_repo,
        [("base", {"pom.xml": pom}), ("refactor: move pom", {"pom.xml": None, "core/pom.xml": moved})],
    )
    (record,) = [r for r in mine_commits(tmp_repo, MiningFilter()) if r.commit_hash == hashes[1]]
    assert record.file_diffs == (
        FileDiff(
            path="core/pom.xml",
            build_system=BuildSystem.MAVEN,
            change_kind=ChangeKind.RENAMED,
            old_path="pom.xml",
            before_content=pom,
            after_content=moved,
        ),
    )


def test_build_file_with_nul_is_skipped_and_counted(tmp_repo):
    build_git_repo(
        tmp_repo,
        [("refactor: two files", {"build.gradle": "apply plugin: 'java'\n", "pom.xml": "<project>\x00</project>\n"})],
    )
    stats = MiningStats()
    (record,) = mine_commits(tmp_repo, MiningFilter(), stats)
    assert [d.path for d in record.file_diffs] == ["build.gradle"]
    assert (stats.files_skipped, stats.warnings, stats.commits_yielded) == (1, 1, 1)


def test_oversized_blob_is_drained_and_reading_goes_on(tmp_repo):
    big = "x = 'y'\n" * 800_000  # > 5 MB, read before pom.xml in the same commit
    hashes = build_git_repo(
        tmp_repo,
        [
            ("refactor: pom", {"pom.xml": "<project/>\n"}),
            ("refactor: huge", {"build.gradle": big, "pom.xml": "<project><version>2</version></project>\n"}),
        ],
    )
    stats = MiningStats()
    mined = list(mine_commits(tmp_repo, MiningFilter(), stats))
    assert [r.commit_hash for r in mined] == [hashes[1], hashes[0]]
    assert [(d.path, d.before_content, d.after_content) for d in mined[0].file_diffs] == [
        ("pom.xml", "<project/>\n", "<project><version>2</version></project>\n")
    ]
    assert mined[1].file_diffs[0].after_content == "<project/>\n"
    assert stats.files_skipped == 1


def test_replies_longer_than_one_read_mine_back_byte_exact(tmp_repo):
    # each git child's output is read 64 KiB at a time: the message, the big
    # file and the walk's record each span several reads
    big = "".join(f"ext.v{i} = 'ünïcode {i}'\n" for i in range(8_000))
    message = "refactor: big\n\n" + "\n".join(f"line {i}: ß → ∞" for i in range(5_000))
    assert 190 * 1024 < len(big.encode()) < 5 * 1024 * 1024 and len(message.encode()) > 64 * 1024
    hashes = build_git_repo(
        tmp_repo,
        [("refactor: base", {"pom.xml": "<project/>\n"}),
         (message, {"pom.xml": "<project><version>2</version></project>\n", "módulo/ñ.gradle": big})],
    )
    (record, _) = mine_commits(tmp_repo, MiningFilter())
    assert (record.commit_hash, record.message) == (hashes[1], message)
    assert record.file_diffs == (
        FileDiff(path="módulo/ñ.gradle", build_system=BuildSystem.GRADLE, change_kind=ChangeKind.ADDED,
                 after_content=big),
        FileDiff(path="pom.xml", build_system=BuildSystem.MAVEN, change_kind=ChangeKind.MODIFIED,
                 before_content="<project/>\n", after_content="<project><version>2</version></project>\n"),
    )


def _within(seconds, call):
    """``call()``, stopped by a TimeoutError after ``seconds``: a read that
    waits for a reply git will never write fails the test instead of hanging it."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _recorded_pipes(monkeypatch) -> list:
    """(git command, "write" or "read", the bytes written) of each request
    written to a git child and each reply read from one, in order."""
    events = []
    write, peek, read_until = mining._GitPipe.write, mining._GitPipe.peek, mining._GitPipe.read_until

    def recorded_write(pipe, data):
        events.append((pipe._proc.args[3], "write", data))
        write(pipe, data)

    def recorded_peek(pipe):
        events.append((pipe._proc.args[3], "read", b""))
        return peek(pipe)

    def recorded_read_until(pipe, *args, **kwargs):
        events.append((pipe._proc.args[3], "read", b""))
        return read_until(pipe, *args, **kwargs)

    monkeypatch.setattr(mining._GitPipe, "write", recorded_write)
    monkeypatch.setattr(mining._GitPipe, "peek", recorded_peek)
    monkeypatch.setattr(mining._GitPipe, "read_until", recorded_read_until)
    return events


def test_a_commit_with_more_blob_ids_than_one_write_mines_byte_exact(tmp_repo, monkeypatch):
    # 90 modified poms: 180 blob ids, two writes, and about 180 KiB of replies,
    # more than a pipe holds, so git waits for them to be read mid-commit
    poms = {f"m{i}/pom.xml": f"<project><!-- {i} ü -->\n{'<v/>' * 250}\n</project>\n" for i in range(90)}
    edited = {path: text.replace("<v/>", "<w/>", 1) for path, text in poms.items()}
    assert 2 * len(poms) > mining._BLOBS_PER_WRITE
    assert sum(len(t.encode()) for t in [*poms.values(), *edited.values()]) > 128 * 1024
    hashes = build_git_repo(tmp_repo, [("refactor: add", poms), ("refactor: edit", edited)])
    events = _recorded_pipes(monkeypatch)
    record, _ = _within(30, lambda: list(mine_commits(tmp_repo, MiningFilter())))
    assert record.commit_hash == hashes[1]
    assert record.file_diffs == tuple(
        FileDiff(path, BuildSystem.MAVEN, ChangeKind.MODIFIED, before_content=poms[path], after_content=edited[path])
        for path in sorted(poms)
    )
    writes = [data for name, op, data in events if name == "cat-file" and op == "write"]
    assert [data.count(b"\n") for data in writes] == [mining._BLOBS_PER_WRITE, 180 - mining._BLOBS_PER_WRITE, 90]
    assert max(len(data) for data in writes) < 16 * 1024


def test_requests_are_written_ahead_of_the_replies_read(tmp_repo, monkeypatch):
    hashes = build_git_repo(
        tmp_repo,
        [("refactor: add", {"pom.xml": "<project>1</project>\n", "app/pom.xml": "<project>a1</project>\n"}),
         ("refactor: edit", {"pom.xml": "<project>2</project>\n", "app/pom.xml": "<project>a2</project>\n"})],
    )
    events = _recorded_pipes(monkeypatch)
    assert len(list(mine_commits(tmp_repo, MiningFilter()))) == 2
    diff_tree = [(op, data) for name, op, data in events if name == "diff-tree"]
    second_asked = next(n for n, (op, data) in enumerate(diff_tree) if hashes[0].encode() in data)
    first_read = next(n for n, (op, _) in enumerate(diff_tree) if op == "read")
    assert second_asked < first_read
    blobs = {_git_out(tmp_repo, "rev-parse", f"{hashes[1]}:{path}") for path in ("pom.xml", "app/pom.xml")}
    blobs |= {_git_out(tmp_repo, "rev-parse", f"{hashes[0]}:{path}") for path in ("pom.xml", "app/pom.xml")}
    writes = [data for name, op, data in events if name == "cat-file" and op == "write"]
    assert len(writes) == 2  # one per commit: the newest one's four blobs, then the root's two
    assert set(writes[0].decode().split()) == blobs and len(set(writes[1].decode().split())) == 2


def test_trees_missing_across_the_look_ahead_window_cost_one_commit_each(tmp_repo):
    # each refactoring commit's parent is a commit that does not match, so a
    # missing tree fails only the one diff that reads it
    steps = [("base", {"pom.xml": "<project/>\n"})]
    for i in range(2 * mining._LOOKAHEAD + 8):
        steps.append((f"bump {i}", {"pom.xml": f"<project><version>{i}.0</version></project>\n"}))
        steps.append((f"refactor {i}", {"pom.xml": f"<project><version>{i}.1</version></project>\n"}))
    matching = build_git_repo(tmp_repo, steps)[:0:-2]  # newest first, as mined
    lost = [matching[0], matching[mining._LOOKAHEAD // 2], matching[mining._LOOKAHEAD - 1]]
    for commit in lost:
        _delete_loose_object(tmp_repo, f"{commit}^{{tree}}")
    stats = MiningStats()
    started, mined = _git_children(lambda: _within(30, lambda: list(mine_commits(tmp_repo, stats=stats))))
    assert [r.commit_hash for r in mined] == [c for c in matching if c not in lost]
    assert (stats.commits_scanned, stats.commits_skipped_corrupt, stats.warnings) == (len(steps), 3, 3)
    assert started == 4 + len(lost)


def test_a_blob_cut_short_in_its_reply_costs_only_its_commit(tmp_repo):
    # cat-file sends the header and part of the contents, then dies
    rng = random.Random(1)
    noise = "".join(f"ext.v{i} = '{rng.getrandbits(64):x}'\n" for i in range(8_000))  # zlib cannot shrink it much
    hashes = build_git_repo(
        tmp_repo,
        [("refactor: pom", {"pom.xml": "<project/>\n"}),
         ("refactor: cut", {"build.gradle": noise}),
         ("refactor: pom 3", {"pom.xml": "<project><version>3</version></project>\n"})],
    )
    oid = _git_out(tmp_repo, "rev-parse", f"{hashes[1]}:build.gradle")
    loose = tmp_repo / ".git" / "objects" / oid[:2] / oid[2:]
    loose.chmod(0o644)
    os.truncate(loose, 20_000)
    stats = MiningStats()
    mined = list(mine_commits(tmp_repo, MiningFilter(), stats))
    assert [r.commit_hash for r in mined] == [hashes[2], hashes[0]]
    assert mined[1].file_diffs[0].after_content == "<project/>\n"
    assert stats.commits_skipped_corrupt == 1


def test_missing_blob_skips_exactly_the_commits_that_need_it(tmp_repo):
    hashes = build_git_repo(tmp_repo, THREE_POMS)
    _delete_loose_object(tmp_repo, f"{hashes[1]}:pom.xml")  # after of 2, before of 3
    stats = MiningStats()
    mined = list(mine_commits(tmp_repo, MiningFilter(), stats))
    assert [r.commit_hash for r in mined] == [hashes[0]]
    assert (stats.commits_scanned, stats.commits_skipped_corrupt, stats.warnings) == (3, 2, 2)


def test_missing_tree_costs_one_commit_each_not_the_run(tmp_repo):
    # diff-tree dies on a tree it cannot read; it is restarted for the next commit
    hashes = build_git_repo(tmp_repo, THREE_POMS)
    _delete_loose_object(tmp_repo, f"{hashes[1]}^{{tree}}")
    stats = MiningStats()
    mined = list(mine_commits(tmp_repo, MiningFilter(), stats))
    assert [r.commit_hash for r in mined] == [hashes[0]]
    assert mined[0].file_diffs[0].after_content == "<project><version>1</version></project>\n"
    assert stats.commits_skipped_corrupt == 2


def test_merge_is_diffed_against_its_first_parent(tmp_repo):
    build_git_repo(tmp_repo, [("base", {"build.gradle": "apply plugin: 'java'\n", "pom.xml": "<project/>\n"})])
    mainline = _git_out(tmp_repo, "rev-parse", "--abbrev-ref", "HEAD")
    _git_out(tmp_repo, "checkout", "-q", "-b", "feature")
    (tmp_repo / "build.gradle").write_text("apply plugin: 'java'\n// branch\n")
    _git_out(tmp_repo, "commit", "-qam", "feature work")
    _git_out(tmp_repo, "checkout", "-q", mainline)
    (tmp_repo / "pom.xml").write_text("<project><version>2</version></project>\n")
    _git_out(tmp_repo, "commit", "-qam", "mainline work")
    _git_out(tmp_repo, "merge", "-q", "--no-ff", "-m", "refactor: merge feature", "feature")

    mined = list(mine_commits(tmp_repo, MiningFilter(exclude_merges=False)))
    (merge,) = [r for r in mined if r.message == "refactor: merge feature"]
    # against the second parent the diff would be pom.xml instead
    assert merge.file_diffs == (
        FileDiff(
            path="build.gradle",
            build_system=BuildSystem.GRADLE,
            change_kind=ChangeKind.MODIFIED,
            before_content="apply plugin: 'java'\n",
            after_content="apply plugin: 'java'\n// branch\n",
        ),
    )


_POPEN_EVENTS: list = []  # argv of every subprocess.Popen audit event, once the hook is on


def _git_children(call):
    """How many git processes ``call()`` starts, and what it returns."""
    if not _POPEN_EVENTS:
        _POPEN_EVENTS.append(None)
        sys.addaudithook(lambda event, args: _POPEN_EVENTS.append(args[1]) if event == "subprocess.Popen" else None)
    before = len(_POPEN_EVENTS)
    result = call()
    return sum(1 for argv in _POPEN_EVENTS[before:] if argv[0] == "git"), result


def _count_git_processes(repo) -> int:
    started, mined = _git_children(lambda: list(mine_commits(repo, MiningFilter())))
    assert mined
    return started


def test_git_process_count_does_not_grow_with_history(tmp_path):
    def steps(n):
        return [
            (f"refactor step {i}", {"build.gradle": f"version = '{i}'\n", "pom.xml": f"<project><version>{i}</version></project>\n"})
            for i in range(n)
        ]

    build_git_repo(tmp_path / "small", steps(3))
    build_git_repo(tmp_path / "large", steps(30))
    small = _count_git_processes(tmp_path / "small")
    assert small == _count_git_processes(tmp_path / "large") <= 4


def test_stopping_early_leaves_no_git_child_running(tmp_repo, monkeypatch):
    build_git_repo(tmp_repo, TEN_COMMITS)
    started = []

    class RecordedPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordedPopen)
    walk = mine_commits(tmp_repo, MiningFilter())
    next(walk)
    assert any(p.returncode is None for p in started)
    walk.close()
    assert all(p.returncode is not None for p in started)

    started.clear()
    assert len(list(mine_commits(tmp_repo, MiningFilter(max_commits=1)))) == 1
    assert started and all(p.returncode is not None for p in started)


if __name__ == "__main__":
    # the long fuzz: PYTHONPATH=src python tests/test_mining.py [pairs] [seed]
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 10**6
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    linediff._SMALL_QUERY = 0
    _check_against_difflib(fuzzed_pairs(seed, count), hunks_every=10)
    print(f"{count} pairs: the line diff equals difflib's")
