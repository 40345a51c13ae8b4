import collections
import gc
import hashlib
import json
import logging
import os
import re
import subprocess
import threading
import warnings
import weakref

import pytest

import fixtures
from buildref import cli
from buildref.cli import EXIT_BACKEND, EXIT_DATA, EXIT_OK, EXIT_USAGE, _parse_args, run
from buildref.evaluation import report_from_json
from buildref.mining import CommitRecord, commit_to_json
from conftest import FakeClock, build_git_repo, closed_port, make_commit


def build_pipeline_repo(root):
    """12 labeled refactoring commits plus an initial and two noise commits.

    Returns (hashes of the 12 refactoring commits in commit order, gold types).
    """
    initial_files = {}
    for _, before, _, _ in fixtures.PIPELINE_CASES:
        initial_files.update(before)
    initial_files["noise/build.gradle"] = "apply plugin: 'java'\n"
    initial_files["README.md"] = "demo\n"

    steps = [("initial build setup", initial_files)]
    expected = []
    for name, _, after, gold_type in fixtures.PIPELINE_CASES:
        steps.append((f"refactor: {name}", dict(after)))
        expected.append(gold_type)
    steps.append(("tweak build config", {"noise/build.gradle": "apply plugin: 'java'\n// tuned\n"}))
    steps.append(("refactor docs", {"README.md": "demo refreshed\n"}))

    hashes = build_git_repo(root, steps)
    refactor_hashes = hashes[1 : 1 + len(fixtures.PIPELINE_CASES)]
    return refactor_hashes, expected


@pytest.fixture
def pipeline(tmp_path):
    repo = tmp_path / "repo"
    hashes, expected = build_pipeline_repo(repo)
    return repo, hashes, expected


def test_end_to_end_static_pipeline(pipeline, tmp_path):
    repo, hashes, expected = pipeline
    commits = tmp_path / "commits.jsonl"
    preds = tmp_path / "pred.jsonl"
    gold = tmp_path / "gold.jsonl"
    report_path = tmp_path / "report.json"

    assert run(["mine", "--repo", str(repo), "--out", str(commits)]) == EXIT_OK
    mined = [json.loads(l) for l in commits.read_text().strip().split("\n")]
    assert len(mined) == 12
    assert {m["commit_hash"] for m in mined} == set(hashes)

    assert run(["detect", "--commits", str(commits), "--backend", "static", "--out", str(preds)]) == EXIT_OK

    gold.write_text(
        "\n".join(
            json.dumps({"commit_hash": h, "types": [t]}) for h, t in zip(hashes, expected)
        )
        + "\n"
    )
    assert run(
        ["evaluate", "--gold", str(gold), "--pred", str(preds), "--out", str(report_path)]
    ) == EXIT_OK

    report = report_from_json(report_path.read_text())
    assert report.n_commits == 12
    covered = {t for t in expected}
    for type_id in covered:
        m = report.per_type[type_id]
        assert m.f1 == 1.0, f"{type_id}: tp={m.tp} fp={m.fp} fn={m.fn}"
    assert report.overall_macro.f1 == 1.0


def test_detect_parallelism_preserves_order(pipeline, tmp_path):
    repo, _, _ = pipeline
    commits = tmp_path / "commits.jsonl"
    run(["mine", "--repo", str(repo), "--out", str(commits)])
    seq = tmp_path / "seq.jsonl"
    par = tmp_path / "par.jsonl"
    assert run(["detect", "--commits", str(commits), "--out", str(seq)]) == EXIT_OK
    assert run(["detect", "--commits", str(commits), "--parallelism", "4", "--out", str(par)]) == EXIT_OK
    assert seq.read_text() == par.read_text()


def test_detect_is_idempotent(pipeline, tmp_path):
    repo, _, _ = pipeline
    commits = tmp_path / "commits.jsonl"
    run(["mine", "--repo", str(repo), "--out", str(commits)])
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    run(["detect", "--commits", str(commits), "--out", str(out1)])
    run(["detect", "--commits", str(commits), "--out", str(out2)])
    assert out1.read_text() == out2.read_text()


def test_detection_lines_schema(pipeline, tmp_path):
    repo, _, _ = pipeline
    commits = tmp_path / "commits.jsonl"
    preds = tmp_path / "pred.jsonl"
    run(["mine", "--repo", str(repo), "--out", str(commits)])
    run(["detect", "--commits", str(commits), "--out", str(preds)])
    for line in preds.read_text().strip().split("\n"):
        obj = json.loads(line)
        assert {"commit_hash", "RefactoringType", "Details", "evidence", "backend", "confidence"} <= set(obj)
        assert obj["backend"] == "static"
        assert obj["confidence"] == 1.0


def test_evaluate_pred_equals_gold_is_perfect(tmp_path):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"commit_hash": "5" * 40, "types": ["DRY"]}) + "\n")
    out = tmp_path / "report.json"
    assert run(["evaluate", "--gold", str(gold), "--pred", str(gold), "--out", str(out)]) == EXIT_OK
    report = report_from_json(out.read_text())
    assert report.overall_macro.f1 == 1.0


def test_report_markdown(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"commit_hash": "5" * 40, "types": ["DRY"]}) + "\n")
    report_path = tmp_path / "report.json"
    run(["evaluate", "--gold", str(gold), "--pred", str(gold), "--out", str(report_path)])
    assert run(["report", "--in", str(report_path), "--format", "md"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "| DRY | 1.00 | 1.00 | 1.00 |" in out
    assert "| All Refs. |" in out


@pytest.mark.parametrize("text, message", [
    ("[]", "expected an object, not list"),
    ('{"per_type": [], "n_commits": 1, "backend": "b"}', "per_type must be an object"),
    ('{"per_type": {}, "n_commits": null, "backend": "b"}', "n_commits must be an integer"),
    ('{"per_type": {"DRY": {"tp": 1}}, "n_commits": 1, "backend": "b"}',
     "per_type DRY must be an object with the numbers tp, fp, fn, precision, recall, f1"),
    ('{"per_type": {}, "n_commits": 1, "backend": "b", "overall_macro": {"precision": 1, "recall": 1, "f1": null}}',
     "overall_macro must be an object with the numbers precision, recall, f1"),
    ("[" * 100_000, "nested too deeply to decode"),
    ("not json", "Expecting value: line 1 column 1 (char 0)"),
], ids=["list", "per_type list", "n_commits null", "type row short", "rate null", "deep", "not json"])
def test_report_file_of_the_wrong_shape_is_a_data_error(tmp_path, capsys, text, message):
    report_path = tmp_path / "report.json"
    report_path.write_text(text)
    assert run(["report", "--in", str(report_path)]) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: report: {message}\n"


def test_taxonomy_output(capsys):
    assert run(["taxonomy"]) == EXIT_OK
    out = capsys.readouterr().out
    type_lines = [l for l in out.split("\n") if l.startswith("- ")]
    header_lines = [l for l in out.split("\n") if l.startswith("# ")]
    assert len(type_lines) == 24
    assert len(header_lines) == 6
    assert sum("[build-specific]" in l for l in type_lines) == 8


def test_taxonomy_json(capsys):
    assert run(["taxonomy", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 24


def test_usage_errors_exit_1(capsys):
    assert run(["mine"]) == EXIT_USAGE  # --repo missing
    assert run(["detect", "--commits", "x", "--backend", "llm", "--out", "y"]) == EXIT_USAGE
    assert run(["frobnicate"]) == EXIT_USAGE


def test_data_errors_exit_2(tmp_path, capsys):
    assert run(["mine", "--repo", str(tmp_path / "not-a-repo"), "--out", "-"]) == EXIT_DATA
    missing = tmp_path / "missing.jsonl"
    assert run(["detect", "--commits", str(missing), "--out", "-"]) == EXIT_DATA
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not json\n")
    assert run(["detect", "--commits", str(bad), "--out", "-"]) == EXIT_DATA


def test_bad_commits_file_creates_no_output_file(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not json\n")
    out, dump = tmp_path / "det.jsonl", tmp_path / "models.jsonl"
    assert run(["detect", "--commits", str(bad), "--out", str(out), "--dump-models", str(dump)]) == EXIT_DATA
    assert not out.exists() and not dump.exists()


def _commit_lines(count):
    """``count`` commit lines, each with its own hash, that migrate a Gradle plugin."""
    record = make_commit({"build.gradle": "apply plugin: 'java'\n"}, {"build.gradle": "plugins {\n    id 'java'\n}\n"})
    return [commit_to_json(record._replace(commit_hash=f"{n:040x}")) + "\n" for n in range(1, count + 1)]


def test_bad_last_commit_line_creates_no_output_file(tmp_path, capsys):
    commits = tmp_path / "commits.jsonl"
    commits.write_text("".join(_commit_lines(3)) + '{"commit_hash": 5}\n')
    out, dump = tmp_path / "det.jsonl", tmp_path / "models.jsonl"
    assert run(["detect", "--commits", str(commits), "--out", str(out), "--dump-models", str(dump)]) == EXIT_DATA
    assert not out.exists() and not dump.exists()


def _without(line, key, diff_key=None):
    """A commit line without ``key``, or without ``diff_key`` in the first of its diffs."""
    obj = json.loads(line)
    if diff_key:
        del obj["file_diffs"][0][diff_key]
    else:
        del obj[key]
    return json.dumps(obj)


def test_bad_commit_line_is_named_by_its_number(tmp_path, capsys):
    commits = tmp_path / "commits.jsonl"
    good = _commit_lines(1)[0]
    for bad, message in [
        ("[1]", "expected an object, not list"),
        (re.sub(r'"timestamp": \d+', '"timestamp": 1e400', good), "timestamp inf is out of range"),
        ("[" * 100_000, "nested too deeply to decode"),
        (_without(good, "file_diffs"), "missing file_diffs"),
        (_without(good, "timestamp"), "missing timestamp"),
        (_without(good, None, "path"), "missing path"),
        (good.replace('"build_system": "Gradle"', '"build_system": "Foo"'), "'Foo' is not a valid BuildSystem"),
        (good.replace(f'"{1:040x}"', f'"{1:039x}"'),
         f"commit_hash must be 40 or 64 lowercase hex chars: '{1:039x}'"),
    ]:
        commits.write_text(good + "\n" + bad + "\n")  # the blank line counts
        assert run(["detect", "--commits", str(commits), "--out", str(tmp_path / "det.jsonl")]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: commits line 3: {message}\n"


@pytest.mark.parametrize("bad_last_line", [False, True])
def test_static_detect_reads_a_pipe_once(tmp_path, bad_last_line):
    """A commits file that can be read only once, as ``mine | detect --commits
    /dev/stdin`` gives, is detected like a regular file with the same lines."""
    text = "".join(_commit_lines(3)) + ('{"commit_hash": 5}\n' if bad_last_line else "")
    regular, fifo = tmp_path / "commits.jsonl", tmp_path / "commits.fifo"
    regular.write_text(text)
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)  # blocks until detect opens it
    writer.start()
    from_pipe, dump = tmp_path / "pipe.jsonl", tmp_path / "models.jsonl"
    code = run(["detect", "--commits", str(fifo), "--out", str(from_pipe), "--dump-models", str(dump)])
    writer.join(timeout=10)
    if bad_last_line:
        assert code == EXIT_DATA and not from_pipe.exists() and not dump.exists()
        return
    from_file, file_dump = tmp_path / "file.jsonl", tmp_path / "file-models.jsonl"
    assert code == EXIT_OK
    assert run(["detect", "--commits", str(regular), "--out", str(from_file), "--dump-models", str(file_dump)]) == EXIT_OK
    assert len(from_pipe.read_text().splitlines()) == 3
    assert from_pipe.read_text() == from_file.read_text()
    assert dump.read_text() == file_dump.read_text() != ""


@pytest.mark.parametrize("parallelism", ["1", "2"])
def test_a_share_after_blank_lines_numbers_its_lines_as_in_the_whole_file(tmp_path, monkeypatch, capsys, parallelism):
    """Commits 3 and 4 are the worker's share at --parallelism 2; it starts
    after two blank lines, and the fourth commit is on line 8."""
    c1, c2, c3, c4 = _commit_lines(4)
    commits = tmp_path / "commits.jsonl"
    commits.write_text(c1 + "\n" + c2 + "\n \n" + c3 + "\n" + c4)
    decode, decoded = cli.commit_from_json, []

    def commit_from_json(line):  # fails on the fourth commit once the checking pass is over
        decoded.append(line)
        if len(decoded) > 4 and line == c4.rstrip("\n"):
            raise cli.DataError("unreadable")
        return decode(line)

    monkeypatch.setattr(cli, "commit_from_json", commit_from_json)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    argv = ["detect", "--commits", str(commits), "--parallelism", parallelism, "--out", str(tmp_path / "det.jsonl")]
    assert run(argv) == EXIT_DATA
    assert capsys.readouterr().err == "data error: commits line 8: unreadable\n"
    assert [json.loads(line)["commit_hash"] for line in (tmp_path / "det.jsonl").read_text().splitlines()] == [
        f"{n:040x}" for n in (1, 2, 3)
    ]


class _NotedRecords:
    """``decode`` whose records note in ``live`` that they are not yet freed;
    a record is a tuple, which takes no weak reference."""

    def __init__(self, decode):
        self.decode = decode
        self.count = 0  # records decoded so far
        self.live: set[int] = set()  # the numbers (from 0) of those not yet freed
        live = self.live

        class Noted(CommitRecord):
            def __del__(self):
                live.discard(self.__dict__.get("number"))  # a record `_replace` made has none

        self.noted = Noted

    def __call__(self, line):
        record = self.noted(*self.decode(line))
        record.number = self.count
        self.live.add(self.count)
        self.count += 1
        return record


def test_static_detect_frees_each_commit_before_the_next_but_one_is_decoded(tmp_path, monkeypatch):
    commits = tmp_path / "commits.jsonl"
    commits.write_text("".join(_commit_lines(5)))
    decoded = _NotedRecords(cli.commit_from_json)
    alive: list = []  # (number of the record being decoded, number of a live record two or more before it)

    def recording_commit_from_json(line):
        alive.extend((decoded.count, n) for n in sorted(decoded.live) if n < decoded.count - 1)
        return decoded(line)

    monkeypatch.setattr(cli, "commit_from_json", recording_commit_from_json)
    from buildref.detectors import CommitContext

    contexts: list = []  # a weak reference to every commit's context, in order
    build = CommitContext.from_commit.__func__

    def recording_from_commit(cls, record):
        alive.extend((decoded.count, n) for n, ref in enumerate(contexts) if ref() is not None)
        ctx = build(cls, record)
        contexts.append(weakref.ref(ctx))
        return ctx

    # and the models of a commit go before the next commit's are built
    monkeypatch.setattr(CommitContext, "from_commit", classmethod(recording_from_commit))
    gc.disable()  # the records must go when their last reference does, not at a collection
    try:
        # in this process: the recorder would not see the records of forked workers
        assert run(["detect", "--commits", str(commits), "--parallelism", "1", "--out", str(tmp_path / "det.jsonl")]) == EXIT_OK
    finally:
        gc.enable()
    assert decoded.count >= 5 and len(contexts) == 5 and alive == []
    assert len((tmp_path / "det.jsonl").read_text().splitlines()) == 5


def _unused_property_commit_lines(count):
    """``count`` commit lines, the n-th (from 1) dropping an unused property
    from a POM with artifactId ``a<n>``, each a Remove Unused Code."""
    lines = []
    for n in range(1, count + 1):
        pom = f"<project>\n<artifactId>a{n}</artifactId>\n<properties>%s</properties>\n</project>\n"
        record = make_commit({"pom.xml": pom % "<unused.flag>on</unused.flag>"}, {"pom.xml": pom % ""})
        lines.append(commit_to_json(record._replace(commit_hash=f"{n:040x}")) + "\n")
    return lines


@pytest.mark.parametrize("parallelism, failing", [
    pytest.param("1", 3, id="1"),
    pytest.param("2", 3, id="2"),  # in the worker's share, commits 3 and 4
    pytest.param("2", 4, id="2-after-a-worker-commit"),  # the worker's lines of commit 3 are written
    pytest.param("2", 2, id="2-in-this-process"),  # in this process's share, commits 1 and 2
])
def test_a_commit_that_raises_ends_the_run_after_the_commits_before_it(tmp_path, monkeypatch, parallelism, failing):
    from buildref import build_parsers

    commits, out = tmp_path / "commits.jsonl", tmp_path / "det.jsonl"
    commits.write_text("".join(_unused_property_commit_lines(4)))
    parse = build_parsers.parse_maven

    def parse_maven(content):
        if f"<artifactId>a{failing}</artifactId>" in content:
            raise RuntimeError(f"parser bug on a{failing}")
        return parse(content)

    monkeypatch.setattr(build_parsers, "parse_maven", parse_maven)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)  # two processes on any machine
    with pytest.raises(RuntimeError, match=f"parser bug on a{failing}") as raised:
        run(["detect", "--commits", str(commits), "--parallelism", parallelism, "--out", str(out)])
    if parallelism == "2" and failing > 2:  # raised in the worker, whose traceback is the cause
        assert "in parse_maven" in str(raised.value.__cause__)
    assert [json.loads(line)["commit_hash"] for line in out.read_text().splitlines()] == [
        f"{n:040x}" for n in range(1, failing)
    ]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="without os.fork the commits run in this process")
def test_a_worker_that_dies_ends_the_run_after_the_commits_before_it(tmp_path, monkeypatch):
    from buildref import build_parsers

    commits, out = tmp_path / "commits.jsonl", tmp_path / "det.jsonl"
    commits.write_text("".join(_unused_property_commit_lines(4)))
    parse = build_parsers.parse_maven
    monkeypatch.setattr(
        build_parsers, "parse_maven", lambda content: os._exit(3) if "<artifactId>a3</artifactId>" in content else parse(content)
    )
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match=r"detect worker 1 \(commits 3-4\) ended with exit code 3"):
        run(["detect", "--commits", str(commits), "--parallelism", "2", "--out", str(out)])
    assert [json.loads(line)["commit_hash"] for line in out.read_text().splitlines()] == [f"{n:040x}" for n in (1, 2)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# k processes, this one included, fork k - 1 workers
@pytest.mark.parametrize("parallelism, commits, workers", [(None, 3, 1), ("64", 3, 1), ("64", 1, 0), ("1", 3, 0)])
def test_static_detect_forks_at_most_one_worker_per_usable_cpu_and_commit(tmp_path, monkeypatch, parallelism, commits, workers):
    path = tmp_path / "commits.jsonl"
    path.write_text("".join(_commit_lines(commits)))
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    flag = [] if parallelism is None else ["--parallelism", parallelism]
    assert run(["detect", "--commits", str(path), *flag, "--out", str(tmp_path / "det.jsonl")]) == EXIT_OK
    assert len(forks) == workers
    assert len((tmp_path / "det.jsonl").read_text().splitlines()) == commits


def test_static_detect_logs_how_it_split_the_commits(tmp_path, monkeypatch, caplog):
    commits = tmp_path / "commits.jsonl"
    commits.write_text("".join(_commit_lines(7)))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    caplog.set_level(logging.INFO, logger="buildref.cli")
    assert run(["-v", "detect", "--commits", str(commits), "--out", str(tmp_path / "det.jsonl")]) == EXIT_OK
    assert [r.getMessage() for r in caplog.records if r.name == "buildref.cli"] == [
        "detect: commits 1-2 here, 3-4 in worker 1, 5-7 in worker 2"
    ]


@pytest.mark.parametrize("parallelism", ["1", "2"])
def test_a_lone_surrogate_in_a_pom_is_one_raw_block(tmp_path, monkeypatch, parallelism):
    """Expat cannot encode a lone surrogate, so the POM falls back to one raw
    block, as malformed XML does, and the run goes on."""
    pom = "<project>\n<artifactId>a</artifactId>\n</project>\n"
    record = make_commit({"pom.xml": pom}, {"pom.xml": pom.replace("a<", "a\ud800<")})
    line = commit_to_json(record._replace(commit_hash=f"{2:040x}")).replace("\ud800", "\\ud800")  # as a JSON escape
    commits = tmp_path / "commits.jsonl"  # the second commit is the worker's share at --parallelism 2
    commits.write_text(_commit_lines(1)[0] + line + "\n")
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out, dump = tmp_path / "det.jsonl", tmp_path / "models.jsonl"
    argv = ["detect", "--commits", str(commits), "--parallelism", parallelism, "--out", str(out), "--dump-models", str(dump)]
    assert run(argv) == EXIT_OK
    after = [json.loads(line) for line in dump.read_text().splitlines()][-1]
    assert after["commit_hash"] == f"{2:040x}" and after["version"] == "after"
    assert [element["kind"] for element in after["elements"]] == ["raw_block"]


@pytest.mark.parametrize("parallelism", ["1", "2"])
def test_a_lone_surrogate_in_a_detection_is_written_as_a_json_escape(tmp_path, monkeypatch, parallelism):
    """UTF-8 cannot encode a lone surrogate, so a detection line holding one
    is escaped to ASCII; the line of another detection keeps its text raw."""
    lines = []
    for n, group in ((1, "\u00e4"), (2, "a\ud800")):  # the second commit is the worker's share at --parallelism 2
        dependency = f"dependencies {{\n    implementation '{group}:b:1'\n}}\n"
        record = make_commit(
            {"build.gradle": dependency, "sub/build.gradle": "dependencies {\n}\n"},
            {"build.gradle": "dependencies {\n}\n", "sub/build.gradle": dependency},
        )
        lines.append(commit_to_json(record._replace(commit_hash=f"{n:040x}")).replace("\ud800", "\\ud800") + "\n")
    commits = tmp_path / "commits.jsonl"  # the surrogate as a JSON escape
    commits.write_text("".join(lines), encoding="utf-8")
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out = tmp_path / "det.jsonl"
    assert run(["detect", "--commits", str(commits), "--parallelism", parallelism, "--out", str(out)]) == EXIT_OK
    raw, escaped = out.read_text(encoding="utf-8").splitlines()
    assert "dependency \u00e4:b moved" in raw
    assert "dependency a\\ud800:b moved" in escaped and escaped.isascii()
    assert json.loads(escaped)["Details"] == "dependency a\ud800:b moved from build.gradle to sub/build.gradle"


def test_worker_pool_output_is_byte_identical_on_the_detection_corpus(tmp_path, monkeypatch):
    """The 300 drawn commits of the detection golden corpus, detected in this
    process, by two processes, by the default pool, by seven processes (more
    than this machine may have cores, taking shares of 42 and 43) and from a
    pipe."""
    from test_detectors import GOLDEN_COMMITS, detection_corpus

    commits = tmp_path / "commits.jsonl"
    text = "".join(commit_to_json(record) + "\n" for record in detection_corpus())
    commits.write_text(text)
    outputs = set()
    for parallelism in ("1", "2", None, "7"):
        if parallelism == "7":
            monkeypatch.setattr(cli, "_usable_cpus", lambda: 7)
        out, dump = tmp_path / f"det{parallelism}.jsonl", tmp_path / f"models{parallelism}.jsonl"
        flag = [] if parallelism is None else ["--parallelism", parallelism]
        assert run(["detect", "--commits", str(commits), *flag, "--out", str(out), "--dump-models", str(dump)]) == EXIT_OK
        outputs.add((out.read_bytes(), dump.read_bytes()))
    fifo = tmp_path / "commits.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    out, dump = tmp_path / "pipe.jsonl", tmp_path / "pipe-models.jsonl"
    assert run(["detect", "--commits", str(fifo), "--parallelism", "2", "--out", str(out), "--dump-models", str(dump)]) == EXIT_OK
    writer.join(timeout=10)
    outputs.add((out.read_bytes(), dump.read_bytes()))
    assert len(outputs) == 1
    ((detections, models),) = outputs
    assert models
    by_commit = collections.defaultdict(str)
    for line in detections.decode().splitlines(keepends=True):
        by_commit[json.loads(line)["commit_hash"]] += line
    digests = [hashlib.sha256(by_commit[f"{n:040x}"].encode()).hexdigest() for n in range(300)]
    assert digests == [json.loads(line)["sha256"] for line in GOLDEN_COMMITS.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("gold_line, pred_line, message", [
    ('{"commit_hash": "%s", "types": ["DRY"]}', '{"commit_hash": "%s", "types": "DRY"}',
     "prediction line 2: types must be a list of strings"),
    ('{"commit_hash": "%s", "types": ["DRY"]}', '{"commit_hash": ["x"], "types": []}',
     "prediction line 2: expected an object with a string commit_hash"),
    ('{"commit_hash": ["x"], "types": []}', '{"commit_hash": "%s", "types": []}',
     "gold line 2: expected an object with a string commit_hash"),
    ('{"commit_hash": "%s", "types": ["DRY"]}', '{"commit_hash": "%s", "types": 5}',
     "prediction line 2: types must be a list of strings"),
    ('{"commit_hash": "%s", "types": ["DRY"]}', "[1,2]",
     "prediction line 2: expected an object with a string commit_hash"),
    ('{"commit_hash": "%s", "types": ["DRY"]}', '{"commit_hash": "%s", "RefactoringType": ["DRY"]}',
     "prediction line 2: RefactoringType must be a string"),
    ('{"commit_hash": "%s"}', '{"commit_hash": "%s", "types": []}',
     "gold line 2: types must be a list of strings"),
    pytest.param("[" * 100_000, '{"commit_hash": "%s", "types": []}',
                 "gold line 2: nested too deeply to decode", id="deep gold"),
    pytest.param('{"commit_hash": "%s", "types": ["DRY"]}', "[" * 100_000,
                 "prediction line 2: nested too deeply to decode", id="deep prediction"),
    pytest.param('{"commit_hash": "%s", "types": ["Nope"]}', '{"commit_hash": "%s", "types": []}',
                 "gold line 2: unknown type Nope", id="unknown gold type"),
    pytest.param('{"commit_hash": "%s", "types": ["DRY"]}\n{"commit_hash": "%s", "types": ["Extract Task"]}',
                 '{"commit_hash": "%s", "types": ["DRY", "Extract Task"]}',
                 f"gold line 3: commit {'6' * 40} is labelled on line 2 too", id="repeated gold commit"),
])
def test_evaluate_line_of_the_wrong_shape_is_a_data_error_naming_it(tmp_path, capsys, gold_line, pred_line, message):
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    gold.write_text("\n" + gold_line.replace("%s", "6" * 40) + "\n")  # the blank first line counts
    pred.write_text("\n" + pred_line.replace("%s", "6" * 40) + "\n")
    assert run(["evaluate", "--gold", str(gold), "--pred", str(pred), "--out", str(tmp_path / "r.json")]) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {message}\n"


def test_non_utf8_input_is_a_data_error(tmp_path, capsys):
    good = tmp_path / "gold.jsonl"
    good.write_text(json.dumps({"commit_hash": "6" * 40, "types": ["DRY"]}) + "\n")
    bad = tmp_path / "bad"
    bad.write_bytes(b'\n{"commit_hash": "\xff"}\n')  # the blank first line counts
    for argv, place in (
        (["detect", "--commits", str(bad), "--out", str(tmp_path / "det.jsonl")], "commits line 2: "),
        (["evaluate", "--gold", str(bad), "--pred", str(good), "--out", str(tmp_path / "r.json")], "gold line 2: "),
        (["evaluate", "--gold", str(good), "--pred", str(bad), "--out", str(tmp_path / "r.json")],
         "prediction line 2: "),
        (["report", "--in", str(bad)], ""),
    ):
        assert run(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {place}") and "Traceback" not in err


def test_crlf_commits_file_detects_the_same_as_lf(tmp_path):
    lines = [commit_to_json(make_commit(before, after)._replace(commit_hash=f"{n:040x}"))
             for n, (_, before, after, _) in enumerate(fixtures.PIPELINE_CASES, 1)]
    outputs = []
    for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
        commits, out = tmp_path / f"{name}.jsonl", tmp_path / f"det-{name}.jsonl"
        commits.write_bytes("".join(line + newline for line in lines).encode("utf-8"))
        assert run(["detect", "--commits", str(commits), "--out", str(out)]) == EXIT_OK
        outputs.append(out.read_text())
    assert outputs[0].count("\n") >= len(lines) and outputs[0] == outputs[1]


def test_a_bug_is_not_a_data_error(tmp_path, monkeypatch):
    from buildref import evaluation

    def score(*args, **kwargs):
        raise KeyError("x")

    monkeypatch.setattr(evaluation, "score", score)
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"commit_hash": "6" * 40, "types": ["DRY"]}) + "\n")
    with pytest.raises(KeyError):
        run(["evaluate", "--gold", str(gold), "--pred", str(gold), "--out", str(tmp_path / "r.json")])


def test_unknown_pred_commit_is_data_error(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    pred = tmp_path / "pred.jsonl"
    gold.write_text(json.dumps({"commit_hash": "6" * 40, "types": ["DRY"]}) + "\n")
    pred.write_text(json.dumps({"commit_hash": "7" * 40, "types": ["DRY"]}) + "\n")
    assert run(["evaluate", "--gold", str(gold), "--pred", str(pred), "--out", "-"]) == EXIT_DATA


def test_llm_transport_failure_exits_3(pipeline, tmp_path, monkeypatch, capsys):
    repo, _, _ = pipeline
    commits = tmp_path / "commits.jsonl"
    run(["mine", "--repo", str(repo), "--out", str(commits)])

    from buildref import llm_backend

    def failing_transport(url, headers, body, timeout):
        raise llm_backend.TransportError("connection refused")

    monkeypatch.setattr(llm_backend, "_http_transport", failing_transport)
    code = run(
        [
            "detect", "--commits", str(commits), "--backend", "llm",
            "--endpoint", "http://127.0.0.1:1/v1", "--model", "m",
            "--max-retries", "0", "--out", "-",
        ]
    )
    assert code == EXIT_BACKEND


@pytest.mark.parametrize("content", [None, [{"type": "text", "text": "No refactorings found."}]], ids=["null", "parts"])
def test_llm_reply_content_not_a_string_exits_3(pipeline, tmp_path, monkeypatch, capsys, content):
    repo, _, _ = pipeline
    commits = tmp_path / "commits.jsonl"
    run(["mine", "--repo", str(repo), "--out", str(commits)])

    from buildref import llm_backend

    def transport(url, headers, body, timeout):
        return 200, json.dumps({"choices": [{"message": {"content": content}}]})

    monkeypatch.setattr(llm_backend, "_http_transport", transport)
    code = run(["detect", "--commits", str(commits), "--backend", "llm", "--endpoint", "http://mock/v1",
                "--model", "m", "--no-cache", "--out", "-"])
    assert code == EXIT_BACKEND
    assert "response matched none of the expected shapes" in capsys.readouterr().err


def test_llm_detect_with_mocked_transport_and_cache(pipeline, tmp_path, monkeypatch):
    repo, hashes, _ = pipeline
    commits = tmp_path / "commits.jsonl"
    run(["mine", "--repo", str(repo), "--out", str(commits)])

    from buildref import llm_backend

    calls = {"n": 0}

    def canned_transport(url, headers, body, timeout):
        calls["n"] += 1
        content = '[{"RefactoringType": "Reformat Code", "Details": "stub"}]'
        return 200, json.dumps({"choices": [{"message": {"content": content}}]})

    monkeypatch.setattr(llm_backend, "_http_transport", canned_transport)
    cache = tmp_path / "cache"
    out1 = tmp_path / "llm1.jsonl"
    args = [
        "detect", "--commits", str(commits), "--backend", "llm",
        "--endpoint", "http://mock/v1", "--model", "m", "--prompt-mode", "one-shot",
        "--cache-dir", str(cache),
    ]
    assert run(args + ["--out", str(out1)]) == EXIT_OK
    first_calls = calls["n"]
    assert first_calls == 12
    lines = [json.loads(l) for l in out1.read_text().strip().split("\n")]
    assert {l["RefactoringType"] for l in lines} == {"Reformat Code"}
    assert {l["backend"] for l in lines} == {"llm"}

    out2 = tmp_path / "llm2.jsonl"
    assert run(args + ["--out", str(out2)]) == EXIT_OK
    assert calls["n"] == first_calls  # all served from cache
    assert out2.read_text() == out1.read_text()


def _llm_argv(commits, out, *extra):
    return ["detect", "--commits", str(commits), "--backend", "llm", "--endpoint", "http://mock/v1", "--model", "m",
            "--out", str(out), *extra]


@pytest.mark.parametrize("source", ["file", "fifo"])
def test_llm_detect_of_a_bad_last_line_sends_nothing_and_creates_no_output_file(tmp_path, monkeypatch, capsys, source):
    from buildref import llm_backend

    requests = []
    monkeypatch.setattr(llm_backend, "_http_transport", lambda *request: requests.append(request))
    text = "".join(_commit_lines(3)) + '{"commit_hash": 5}\n'
    commits = tmp_path / "commits.jsonl"
    if source == "fifo":
        os.mkfifo(commits)
        writer = threading.Thread(target=commits.write_text, args=(text,), daemon=True)  # blocks until detect opens it
        writer.start()
    else:
        commits.write_text(text)
    out = tmp_path / "det.jsonl"
    assert run(_llm_argv(commits, out)) == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error: commits line 4: ")
    assert requests == [] and not out.exists()


def test_llm_detect_holds_one_record_at_a_time(tmp_path, monkeypatch):
    """At --parallelism 1, commit ``i`` (from 1) of ``n`` is asked for after
    at most ``n + i`` decodes, ``n`` of the checking pass, and no record
    decoded before it is left."""
    from buildref import llm_backend

    n = 4
    commits = tmp_path / "commits.jsonl"
    commits.write_text("".join(_commit_lines(n)))
    decoded = _NotedRecords(cli.commit_from_json)
    asked: list = []  # (decodes so far, records decoded so far that are still alive) at each request

    def transport(url, headers, body, timeout):
        asked.append((decoded.count, len(decoded.live)))
        return 200, json.dumps({"choices": [{"message": {"content": llm_backend.SENTINEL}}]})

    monkeypatch.setattr(cli, "commit_from_json", decoded)
    monkeypatch.setattr(llm_backend, "_http_transport", transport)
    gc.disable()  # the records must go when their last reference does, not at a collection
    try:
        assert run(_llm_argv(commits, tmp_path / "det.jsonl", "--parallelism", "1")) == EXIT_OK
    finally:
        gc.enable()
    assert len(asked) == n
    assert all(decodes <= n + i and alive == 1 for i, (decodes, alive) in enumerate(asked, 1))


@pytest.mark.parametrize("threads", [2, 3])
def test_llm_detect_on_threads_reads_at_most_two_commits_per_thread_ahead(tmp_path, monkeypatch, threads):
    """Commit ``k`` (from 1) is asked for once at most ``k + 2 * threads``
    records of the detection pass are decoded, and the lines keep input order."""
    from buildref import llm_backend

    n = 24
    commits = tmp_path / "commits.jsonl"
    commits.write_text("".join(
        commit_to_json(make_commit({"build.gradle": f"version = '{k}'\n"}, {"build.gradle": f"version = '{k}.0'\n"})
                       ._replace(commit_hash=f"{k:040x}")) + "\n"
        for k in range(1, n + 1)
    ))
    decode = cli.commit_from_json
    decoded = 0  # the checking pass decodes all n records first

    def counting_commit_from_json(line):
        nonlocal decoded
        decoded += 1
        return decode(line)

    read_ahead = []  # (commit asked for, records of the detection pass decoded by then)

    def transport(url, headers, body, timeout):
        k = int(re.search(r"\+version = '(\d+)\.0'", body["messages"][0]["content"]).group(1))
        read_ahead.append((k, decoded - n))
        return 200, json.dumps({"choices": [{"message": {"content": f'[{{"RefactoringType": "DRY", "Details": "{k}"}}]'}}]})

    monkeypatch.setattr(cli, "commit_from_json", counting_commit_from_json)
    monkeypatch.setattr(llm_backend, "_http_transport", transport)
    out = tmp_path / "det.jsonl"
    assert run(_llm_argv(commits, out, "--no-cache", "--parallelism", str(threads))) == EXIT_OK
    assert sorted(k for k, _ in read_ahead) == list(range(1, n + 1))
    assert all(read <= k + 2 * threads for k, read in read_ahead), read_ahead
    assert [json.loads(line)["Details"] for line in out.read_text().splitlines()] == [str(k) for k in range(1, n + 1)]


def test_llm_detect_keeps_one_connection_per_thread_and_closes_them_all(tmp_path, keep_alive, monkeypatch):
    import http.client

    keep_alive.reply = (200, json.dumps({"choices": [{"message": {"content": '[{"RefactoringType": "DRY", "Details": "d"}]'}}]}))
    commits = tmp_path / "commits.jsonl"
    commits.write_text("".join(_commit_lines(8)))
    used = []  # (thread, connection) of each request
    request = http.client.HTTPConnection.request

    def noting_request(conn, *args, **kwargs):
        used.append((threading.get_ident(), conn))
        return request(conn, *args, **kwargs)

    monkeypatch.setattr(http.client.HTTPConnection, "request", noting_request)
    for threads in (1, 2):
        used.clear()
        accepted = len(keep_alive.connections)
        argv = ["detect", "--commits", str(commits), "--backend", "llm", "--endpoint", keep_alive.url, "--model", "m",
                "--no-cache", "--parallelism", str(threads), "--out", str(tmp_path / f"{threads}.jsonl")]
        assert run(argv) == EXIT_OK
        pairs = {(thread, id(conn)) for thread, conn in used}
        assert len(used) == 8
        assert len({thread for thread, _ in pairs}) == len({conn for _, conn in pairs}) == len(pairs) == threads
        assert len(keep_alive.connections) - accepted == threads
        assert all(conn.sock is None for _, conn in used)  # closed when run returned
    assert (tmp_path / "2.jsonl").read_bytes() == (tmp_path / "1.jsonl").read_bytes()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        del used[:]
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("cache", [True, False])
def test_a_lone_surrogate_in_an_llm_reply_is_cached_and_written_as_a_json_escape(tmp_path, monkeypatch, cache):
    from buildref import llm_backend

    content = '[{"RefactoringType": "DRY", "Details": "a\\ud800 twice"}]'  # the JSON escape of a lone surrogate
    requests = []

    def transport(url, headers, body, timeout):
        requests.append(body)
        return 200, json.dumps({"choices": [{"message": {"content": content}}]})

    monkeypatch.setattr(llm_backend, "_http_transport", transport)
    commits = tmp_path / "commits.jsonl"
    commits.write_text("".join(_commit_lines(2)))
    flags = ["--cache-dir", str(tmp_path / "cache")] if cache else ["--no-cache"]
    outputs = []
    for out in (tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"):
        assert run(_llm_argv(commits, out, *flags)) == EXIT_OK
        outputs.append(out.read_text(encoding="utf-8"))
    assert len(requests) == (1 if cache else 4)  # the two commits give one prompt
    assert outputs[0] == outputs[1] and outputs[0].isascii()
    assert [json.loads(line)["Details"] for line in outputs[0].splitlines()] == ["a\ud800 twice"] * 2
    if cache:
        [cache_file] = (tmp_path / "cache").iterdir()
        assert cache_file.read_text(encoding="utf-8") == '[{"RefactoringType": "DRY", "Details": "a\\ud800 twice"}]'


def test_config_file_defaults_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "buildref.cfg"
    cfg.write_text("format=json\n")
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"commit_hash": "8" * 40, "types": ["DRY"]}) + "\n")
    report_path = tmp_path / "report.json"
    run(["evaluate", "--gold", str(gold), "--pred", str(gold), "--out", str(report_path)])

    assert run(["--config", str(cfg), "report", "--in", str(report_path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["backend"] == "static"

    assert run(["--config", str(cfg), "report", "--in", str(report_path), "--format", "md"]) == EXIT_OK
    assert "| All Refs. |" in capsys.readouterr().out


def test_dump_models_debug_flag(pipeline, tmp_path):
    repo, _, _ = pipeline
    commits = tmp_path / "commits.jsonl"
    dump = tmp_path / "models.jsonl"
    run(["mine", "--repo", str(repo), "--out", str(commits)])
    assert run(["detect", "--commits", str(commits), "--out", "-", "--dump-models", str(dump)]) == EXIT_OK
    entries = [json.loads(l) for l in dump.read_text().strip().split("\n")]
    assert entries
    assert {"kind", "name", "attributes", "span"} <= set(entries[0]["elements"][0])


def _llm_detect(monkeypatch, tmp_path, pipeline, content):
    """Mine the pipeline repo and return (run one LLM detect pass, transport call counter)."""
    repo, _, _ = pipeline
    commits = tmp_path / "commits.jsonl"
    run(["mine", "--repo", str(repo), "--out", str(commits)])

    from buildref import llm_backend

    calls = {"n": 0}

    def canned_transport(url, headers, body, timeout):
        calls["n"] += 1
        return 200, json.dumps({"choices": [{"message": {"content": content}}]})

    monkeypatch.setattr(llm_backend, "_http_transport", canned_transport)

    def detect(out_name, *extra, config=None):
        out = tmp_path / out_name
        assert run([
            *(["--config", str(config)] if config else []), "detect", "--commits", str(commits), "--backend", "llm",
            "--endpoint", "http://mock/v1", "--model", "m",
            "--cache-dir", str(tmp_path / "cache"), "--out", str(out), *extra,
        ]) == EXIT_OK
        return out.read_text()

    return detect, calls


def test_llm_cache_key_includes_temperature(pipeline, tmp_path, monkeypatch):
    detect, calls = _llm_detect(monkeypatch, tmp_path, pipeline, '[{"RefactoringType": "DRY", "Details": "x"}]')
    detect("a.jsonl", "--temperature", "0.0")
    assert calls["n"] == 12
    detect("b.jsonl", "--temperature", "0.7")
    assert calls["n"] == 24  # a reply cached under another temperature is not reused
    detect("c.jsonl", "--temperature", "0.0")
    assert calls["n"] == 24


def test_empty_llm_cache_file_is_a_miss(pipeline, tmp_path, monkeypatch):
    detect, calls = _llm_detect(monkeypatch, tmp_path, pipeline, '[{"RefactoringType": "DRY", "Details": "x"}]')
    first = detect("a.jsonl")
    cache_files = sorted((tmp_path / "cache").iterdir())
    assert len(cache_files) == 12
    cache_files[0].write_text("")
    assert detect("b.jsonl") == first
    assert calls["n"] == 13  # only the emptied entry is asked again
    assert json.loads(cache_files[0].read_text()) == [{"RefactoringType": "DRY", "Details": "x"}]
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [p.name for p in cache_files]


def test_cut_off_llm_cache_file_is_a_miss_not_a_partial_set(pipeline, tmp_path, monkeypatch):
    detect, calls = _llm_detect(
        monkeypatch, tmp_path, pipeline,
        '[{"RefactoringType": "DRY", "Details": "x"}, {"RefactoringType": "Reformat Code", "Details": "y"}]',
    )
    first = detect("a.jsonl")
    for path in (tmp_path / "cache").iterdir():
        text = path.read_text()
        path.write_text(text[: text.index("}") + 1])  # cut off after the first object
    assert detect("b.jsonl") == first
    assert calls["n"] == 24


def test_dump_models_order_does_not_depend_on_parallelism(pipeline, tmp_path):
    repo, _, _ = pipeline
    commits = tmp_path / "commits.jsonl"
    run(["mine", "--repo", str(repo), "--out", str(commits)])
    dumps = []
    for parallelism in ("1", "4"):
        dump = tmp_path / f"models{parallelism}.jsonl"
        assert run([
            "detect", "--commits", str(commits), "--out", str(tmp_path / "det.jsonl"),
            "--parallelism", parallelism, "--dump-models", str(dump),
        ]) == EXIT_OK
        dumps.append(dump.read_text())
    assert dumps[0] and dumps[0] == dumps[1]


def test_mine_exits_2_when_the_head_commit_cannot_be_read(tmp_path, capsys):
    repo = tmp_path / "repo"
    hashes = build_git_repo(repo, [(f"refactor: pom {i}", {"pom.xml": f"<project>{i}</project>\n"}) for i in (1, 2)])
    (repo / ".git" / "objects" / hashes[-1][:2] / hashes[-1][2:]).unlink()
    out = tmp_path / "commits.jsonl"
    assert run(["mine", "--repo", str(repo), "--out", str(out)]) == EXIT_DATA
    assert out.read_text() == ""
    assert "data error" in capsys.readouterr().err


def test_mine_and_detect_a_sha256_repository(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True, check=True).stdout

    git("init", "-q", "--object-format=sha256")
    git("config", "user.email", "tester@example.org")
    git("config", "user.name", "Tester")
    for message, properties in [
        ("initial build", "<unused.flag>on</unused.flag>"),
        ("refactor: drop an unused property", ""),
    ]:
        (repo / "pom.xml").write_text(f"<project>\n<properties>{properties}</properties>\n</project>\n")
        git("add", "-A")
        git("commit", "-q", "-m", message)
    head = git("rev-parse", "HEAD").strip()
    assert len(head) == 64

    commits, detections = tmp_path / "commits.jsonl", tmp_path / "det.jsonl"
    assert run(["mine", "--repo", str(repo), "--out", str(commits)]) == EXIT_OK
    assert [json.loads(line)["commit_hash"] for line in commits.read_text().splitlines()] == [head]
    assert run(["detect", "--commits", str(commits), "--out", str(detections)]) == EXIT_OK
    found = [(d["commit_hash"], d["RefactoringType"]) for d in map(json.loads, detections.read_text().splitlines())]
    assert found == [(head, "Remove Unused Code")]


@pytest.mark.parametrize("flag, value, takes", [
    ("--rate", "-1", f"0 (no limit) or at least one request per {threading.TIMEOUT_MAX:.0f} seconds, not -1.0"),
    ("--rate", "1e-10", f"0 (no limit) or at least one request per {threading.TIMEOUT_MAX:.0f} seconds, not 1e-10"),
    ("--max-retries", "-1", "0 or more, not -1"),
    ("--temperature", "3", "0 to 2, not 3.0"),
    ("--temperature", "nan", "0 to 2, not nan"),
    ("--timeout", "-1", f"seconds above 0, at most {threading.TIMEOUT_MAX:.0f}, not -1.0"),
    ("--timeout", "0", f"seconds above 0, at most {threading.TIMEOUT_MAX:.0f}, not 0.0"),
    ("--timeout", "1e10", f"seconds above 0, at most {threading.TIMEOUT_MAX:.0f}, not 10000000000.0"),
    ("--parallelism", "0", "1 or more, not 0"),
    ("--parallelism", "-2", "1 or more, not -2"),
    ("--max-output-tokens", "0", "1 or more, not 0"),
], ids=["rate", "rate 1e-10", "max-retries", "temperature", "temperature nan", "timeout", "timeout 0", "timeout 1e10",
        "parallelism 0", "parallelism -2", "max-output-tokens 0"])
def test_out_of_range_llm_flag_is_a_usage_error_before_any_request(tmp_path, monkeypatch, capsys, flag, value, takes):
    commits = tmp_path / "commits.jsonl"
    commits.write_text("".join(_commit_lines(2)))
    from buildref import llm_backend

    requests = []
    monkeypatch.setattr(llm_backend, "_http_transport", lambda *request: requests.append(request) or (200, "[]"))
    out = tmp_path / "det.jsonl"
    code = run([
        "detect", "--commits", str(commits), "--backend", "llm", "--endpoint", "http://mock/v1", "--model", "m",
        flag, value, "--out", str(out),
    ])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {flag} takes {takes}\n"
    assert requests == [] and not out.exists()


@pytest.mark.parametrize("flag", ["--move-similarity", "--rename-similarity"])
@pytest.mark.parametrize("value, shown", [("2", "2.0"), ("-0.1", "-0.1"), ("nan", "nan")])
def test_out_of_range_similarity_is_a_usage_error_before_the_commits_are_read(tmp_path, capsys, flag, value, shown):
    out = tmp_path / "det.jsonl"
    code = run(["detect", "--commits", str(tmp_path / "missing.jsonl"), flag, value, "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {flag} takes 0 to 1, not {shown}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-2"])
def test_static_parallelism_below_one_is_a_usage_error_before_the_commits_are_read(tmp_path, capsys, value):
    out = tmp_path / "det.jsonl"
    code = run(["detect", "--commits", str(tmp_path / "missing.jsonl"), "--parallelism", value, "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: --parallelism takes 1 or more, not {value}\n"
    assert not out.exists()


def test_mine_on_an_empty_repository_writes_nothing_and_exits_0(tmp_path, capsys):
    repo = tmp_path / "repo"
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    out = tmp_path / "commits.jsonl"
    assert run(["mine", "--repo", str(repo), "--out", str(out)]) == EXIT_OK
    assert out.read_text() == ""
    assert capsys.readouterr().err == ""


def test_mine_max_commits_zero_mines_nothing_and_negative_is_a_usage_error(tmp_path, capsys):
    repo = tmp_path / "repo"
    build_git_repo(repo, [(f"refactor: pom {i}", {"pom.xml": f"<project>{i}</project>\n"}) for i in (1, 2, 3)])
    out = tmp_path / "commits.jsonl"
    assert run(["mine", "--repo", str(repo), "--max-commits", "0", "--out", str(out)]) == EXIT_OK
    assert out.read_text() == ""
    out.unlink()
    assert run(["mine", "--repo", str(repo), "--max-commits", "-1", "--out", str(out)]) == EXIT_USAGE
    assert "usage error: --max-commits takes 0 or more, not -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("systems", ["foo", ",", "maven,foo"])
def test_bad_build_systems_are_a_usage_error(tmp_path, capsys, systems):
    out = tmp_path / "commits.jsonl"
    assert run(["mine", "--repo", str(tmp_path), "--build-systems", systems, "--out", str(out)]) == EXIT_USAGE
    assert "--build-systems takes a comma-separated list of maven, ant, gradle" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("parallelism", ["1", "4"])
def test_llm_counters_are_logged_once_per_pass(pipeline, tmp_path, monkeypatch, caplog, parallelism):
    detect, _ = _llm_detect(monkeypatch, tmp_path, pipeline, '[{"RefactoringType": "DRY", "Details": "x"}]')
    caplog.set_level(logging.INFO, logger="buildref.cli")
    detect("cold.jsonl", "--parallelism", parallelism)
    detect("warm.jsonl", "--parallelism", parallelism)
    assert [r.getMessage() for r in caplog.records if r.name == "buildref.cli"] == [
        "requests 12, retries 0, reprompts 0, cache hits 0",
        "requests 0, retries 0, reprompts 0, cache hits 12",
    ]


def test_a_rate_limit_changes_no_line_and_no_counter(pipeline, tmp_path, monkeypatch, caplog):
    from buildref import llm_backend

    detect, _ = _llm_detect(monkeypatch, tmp_path, pipeline, '[{"RefactoringType": "DRY", "Details": "x"}]')
    clock = FakeClock()
    monkeypatch.setattr(llm_backend, "time", clock)  # the limiter waits on this clock, so no test time passes
    caplog.set_level(logging.INFO, logger="buildref.cli")
    free = detect("free.jsonl", "--no-cache", "--parallelism", "2")
    assert clock.sleeps == []
    limited = detect("limited.jsonl", "--no-cache", "--parallelism", "2", "--rate", "4")
    assert limited == free
    assert clock.sleeps and all(0 < seconds <= 0.25 for seconds in clock.sleeps)  # the 3rd of 12 requests waits
    assert [r.getMessage() for r in caplog.records if r.name == "buildref.cli"] == [
        "requests 12, retries 0, reprompts 0, cache hits 0",
    ] * 2


def test_mine_verbose_reports_every_counter(tmp_path, caplog):
    repo = tmp_path / "repo"
    hashes = build_git_repo(repo, [
        ("refactor: base", {"pom.xml": "<project><version>1</version></project>\n"}),
        ("refactor: nul", {"pom.xml": "<project><version>2</version></project>\n", "build.gradle": "a\x00b\n"}),
        ("refactor: gone", {"build.xml": "<project name='gone'/>\n"}),
    ])
    blob = subprocess.run(
        ["git", "-C", str(repo), "rev-parse", f"{hashes[2]}:build.xml"], check=True, capture_output=True, text=True
    ).stdout.strip()
    (repo / ".git" / "objects" / blob[:2] / blob[2:]).unlink()
    caplog.set_level(logging.INFO, logger="buildref.cli")
    out = tmp_path / "commits.jsonl"
    assert run(["-v", "mine", "--repo", str(repo), "--out", str(out)]) == EXIT_OK
    assert [json.loads(line)["commit_hash"] for line in out.read_text().splitlines()] == [hashes[1], hashes[0]]
    assert [r.getMessage() for r in caplog.records if r.name == "buildref.cli"] == [
        "scanned 3 commits, yielded 2, corrupt 1, files skipped 1, warnings 2",
    ]


def test_each_prompt_is_built_once_per_pass(pipeline, tmp_path, monkeypatch):
    from buildref import llm_backend

    detect, _ = _llm_detect(monkeypatch, tmp_path, pipeline, '[{"RefactoringType": "DRY", "Details": "x"}]')
    real_build_prompt = llm_backend.build_prompt
    built = []

    def spy(commit, spec):
        built.append((commit.commit_hash, spec.build_system))
        return real_build_prompt(commit, spec)

    monkeypatch.setattr(llm_backend, "build_prompt", spy)
    for out_name in ("cold.jsonl", "warm.jsonl"):
        built.clear()
        detect(out_name)
        assert len(built) == len(set(built)) == 12


def test_llm_detect_against_a_closed_port_exits_3(pipeline, tmp_path, monkeypatch, capsys):
    repo, _, _ = pipeline
    commits = tmp_path / "commits.jsonl"
    run(["mine", "--repo", str(repo), "--out", str(commits)])
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    assert run([
        "detect", "--commits", str(commits), "--backend", "llm",
        "--endpoint", f"http://127.0.0.1:{closed_port()}/v1", "--model", "m",
        "--max-retries", "0", "--out", "-",
    ]) == EXIT_BACKEND
    assert "backend error" in capsys.readouterr().err


def test_commit_lines_end_only_at_newlines(pipeline, tmp_path):
    repo, _, _ = pipeline
    commits = tmp_path / "commits.jsonl"
    run(["mine", "--repo", str(repo), "--out", str(commits)])
    lines = commits.read_text(encoding="utf-8").rstrip("\n").split("\n")
    first = json.loads(lines[0])
    first["message"] += "\u2028second paragraph"
    lines[0] = json.dumps(first, ensure_ascii=False)  # keeps the U+2028 raw
    odd = tmp_path / "odd.jsonl"
    odd.write_text("\n\n".join(lines) + "\n", encoding="utf-8")

    outputs = []
    for source in (commits, odd):
        out = tmp_path / f"det-{source.stem}.jsonl"
        assert run(["detect", "--commits", str(source), "--out", str(out)]) == EXIT_OK
        outputs.append(out.read_text())
    assert outputs[0] and outputs[0] == outputs[1]


def test_cache_dir_naming_a_file_is_a_data_error(tmp_path, capsys, caplog, monkeypatch):
    from buildref import llm_backend

    sent = []
    monkeypatch.setattr(llm_backend, "_http_transport", lambda *args: sent.append(args))
    commits = tmp_path / "commits.jsonl"
    commits.write_text(commit_to_json(make_commit({"pom.xml": "<project/>\n"}, {"pom.xml": "<project>\n</project>\n"})) + "\n")
    cache = tmp_path / "cache"
    cache.write_text("a regular file\n")
    assert run([
        "detect", "--commits", str(commits), "--backend", "llm", "--endpoint", "http://mock/v1", "--model", "m",
        "--cache-dir", str(cache), "--out", str(tmp_path / "out.jsonl"),
    ]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert "unreadable cache file" not in caplog.text
    assert cache.read_text() == "a regular file\n"
    assert sent == []


def _parse_with_config(tmp_path, text, *argv):
    cfg = tmp_path / "buildref.cfg"
    cfg.write_text(text)
    return _parse_args(["--config", str(cfg), *argv])


@pytest.mark.parametrize("value, expected", [
    ("false", False), ("FALSE", False), ("no", False), ("0", False),
    ("true", True), ("True", True), ("yes", True), ("1", True),
])
def test_config_booleans_are_parsed(tmp_path, value, expected):
    args = _parse_with_config(tmp_path, f"no-cache={value}\ninclude_merges = {value}\n", "detect", "--commits", "c")
    assert args.no_cache is expected
    args = _parse_with_config(tmp_path, f"include-merges={value}\n", "mine", "--repo", "r")
    assert args.include_merges is expected


def test_explicit_boolean_flag_wins_over_config(tmp_path):
    args = _parse_with_config(tmp_path, "no-cache=false\n", "detect", "--commits", "c", "--no-cache")
    assert args.no_cache is True
    args = _parse_with_config(tmp_path, "include-merges=no\n", "mine", "--repo", "r", "--include-merges")
    assert args.include_merges is True


def test_config_no_cache_false_keeps_the_cache(pipeline, tmp_path, monkeypatch):
    detect, calls = _llm_detect(monkeypatch, tmp_path, pipeline, '[{"RefactoringType": "DRY", "Details": "x"}]')
    cfg = tmp_path / "buildref.cfg"
    cfg.write_text("no-cache=false\n")
    detect("a.jsonl", config=cfg)
    detect("b.jsonl", config=cfg)
    assert calls["n"] == 12  # the second pass is served from the cache
    cfg.write_text("no-cache=yes\n")
    detect("c.jsonl", config=cfg)
    assert calls["n"] == 24


@pytest.mark.parametrize("flag", ["--config", "--conf", "--con"])
def test_abbreviated_config_flag_reads_the_file(tmp_path, capsys, flag):
    cfg = tmp_path / "buildref.cfg"
    cfg.write_text("backend=llm\n")
    commits = tmp_path / "commits.jsonl"
    commits.write_text("")
    assert run([flag, str(cfg), "detect", "--commits", str(commits), "--out", "-"]) == EXIT_USAGE
    assert capsys.readouterr().err == "usage error: detect --backend llm requires --endpoint and --model\n"


@pytest.mark.parametrize("text", [
    "no-cache=maybe\n", "no-cache=\n", "no-such-flag=1\n", "verbose=2\n", "backend=llmx\n", "format=xml\n",
    "# a comment\n\nno-cache\n", "cache-dir .c\n",
])
def test_bad_config_line_is_a_usage_error(tmp_path, capsys, text):
    cfg = tmp_path / "buildref.cfg"
    cfg.write_text(text)
    assert run(["--config", str(cfg), "taxonomy"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_config_line_without_equals_names_its_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "buildref.cfg"
    cfg.write_text("# a comment\n\nno-cache\n")
    assert run(["--config", str(cfg), "taxonomy"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {cfg}:3: 'no-cache' is not a key=value line\n"
