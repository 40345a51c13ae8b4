"""Each subcommand loads only the modules it runs; `import buildref` loads none.

Every check runs in a fresh interpreter and looks at the modules a command
added to ``sys.modules``, so what the test process has already imported does
not count.

Run as a script, ``python tests/test_imports.py [repeats [SRC ...]]`` prints
the median and quartiles of the time each command takes to import its modules
(`COMMAND_MODULES`) from each source tree (this checkout's by default), in
children forked from a process that has imported only what ``bench/stages.py``
imports, as the benchmark's stage children are. The environment is passed on,
so ``PYTHONDONTWRITEBYTECODE`` decides whether the sources are compiled each time.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import buildref
from conftest import build_git_repo
from buildref.mining import BackendError, DataError

SRC = str(Path(buildref.__file__).parents[1])

# what `buildref/__init__.py` imported from each module when it imported all of them
OLD_EXPORTS = {
    "mining": [
        "BuildSystem", "ChangeKind", "CommitRecord", "FileDiff", "MiningFilter", "MiningStats",
        "classify_build_file", "extract_diff", "mine_commits",
    ],
    "build_parsers": [
        "BuildElement", "BuildModel", "ElementKind", "infer_hierarchy", "parse_ant", "parse_build_file",
        "parse_gradle", "parse_maven",
    ],
    "taxonomy": ["MainCategory", "RefactoringType", "TechnicalDebt", "registry", "td_categories_for"],
    "detectors": ["CommitContext", "DetectedRefactoring", "DetectorConfig", "detect_all"],
    "llm_backend": ["LlmConfig", "PromptMode", "PromptSpec", "build_prompt", "classify_commit", "parse_response"],
    "evaluation": ["EvaluationReport", "GoldLabel", "render_report", "score"],
}

# the buildref modules, besides the package, that each command loads
COMMAND_MODULES = {
    "mine": ("cli", "mining"),
    "detect": ("cli", "mining", "build_parsers", "detectors", "linediff", "taxonomy"),  # Reformat Code cites lines
    "detect --backend llm": ("cli", "mining", "linediff", "llm_backend", "taxonomy"),
    "evaluate": ("cli", "mining", "evaluation", "taxonomy"),
    "report": ("cli", "mining", "evaluation", "taxonomy"),
    "taxonomy": ("cli", "mining", "taxonomy"),
}

# the records are NamedTuples and plain classes: importing `dataclasses` (and
# the `inspect` it imports) and exec-ing its generated methods slowed every command
RECORD_MACHINERY = {"dataclasses", "inspect"}


def _loaded_by(command: str) -> set[str]:
    return {"buildref", *(f"buildref.{name}" for name in COMMAND_MODULES[command])}


_PROBE = """
import json, sys
before = set(sys.modules)
{statement}
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


def _loads(statement: str, *argv: str) -> tuple[int, set[str]]:
    """Exit code and modules newly loaded by ``statement`` in a fresh interpreter.

    The interpreter runs without the site module (``-S``): a ``.pth`` file in
    site-packages may import modules, tempfile for one, before the probe starts,
    and those would not count as loaded."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE.format(statement=statement), *argv],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, check=True,
    )
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules)


def _run(*argv: str) -> set[str]:
    code, modules = _loads("from buildref.cli import run\ncode = run(sys.argv[1:])", *argv)
    assert code == 0
    return modules


def _buildref(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "buildref" or m.startswith("buildref.")}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    build_git_repo(root / "repo", [
        ("initial", {"pom.xml": "<project><artifactId>a</artifactId></project>\n",
                     "build.gradle": "apply plugin: 'java'\n"}),
        ("refactor build", {"pom.xml": "<project>\n  <artifactId>a</artifactId>\n</project>\n",
                            "build.gradle": "plugins {\n    id 'java'\n}\n"}),
    ])
    commits, pred = root / "commits.jsonl", root / "pred.jsonl"
    _run("mine", "--repo", str(root / "repo"), "--out", str(commits))
    _run("detect", "--commits", str(commits), "--out", str(pred))
    detections = [json.loads(line) for line in pred.read_text().splitlines()]
    assert detections
    (root / "gold.jsonl").write_text("".join(
        json.dumps({"commit_hash": d["commit_hash"], "types": [d["RefactoringType"]]}) + "\n" for d in detections
    ))
    return root


def test_import_buildref_loads_no_submodule():
    _, modules = _loads("import buildref\ncode = 0")
    assert _buildref(modules) == {"buildref"}


def test_mine_loads_only_mining(inputs, tmp_path):
    modules = _run("mine", "--repo", str(inputs / "repo"), "--out", str(tmp_path / "commits.jsonl"))
    assert _buildref(modules) == _loaded_by("mine")
    assert not {"hashlib", *RECORD_MACHINERY} & modules


def test_static_detect_loads_no_llm_client_or_scoring(inputs, tmp_path):
    modules = _run("detect", "--commits", str(inputs / "commits.jsonl"), "--out", str(tmp_path / "pred.jsonl"))
    assert _buildref(modules) == _loaded_by("detect")
    assert not {"hashlib", "concurrent.futures", "multiprocessing", *RECORD_MACHINERY} & modules


def test_static_detect_starts_no_thread_at_any_parallelism(inputs, tmp_path):
    # two commits, so that on two or more usable CPUs workers are forked, without multiprocessing
    commits = tmp_path / "commits.jsonl"
    commits.write_text((inputs / "commits.jsonl").read_text() * 2)
    modules = _run("detect", "--commits", str(commits), "--parallelism", "4", "--out", str(tmp_path / "pred.jsonl"))
    assert not {"concurrent.futures", "multiprocessing"} & modules


def test_llm_detect_loads_no_parsers_or_detectors(inputs, tmp_path, monkeypatch):
    from buildref import llm_backend
    from buildref.cli import run

    def fake_transport(url, headers, body, timeout):
        return 200, json.dumps({"choices": [{"message": {"content": '[{"RefactoringType": "DRY", "Details": "x"}]'}}]})

    argv = [
        "detect", "--commits", str(inputs / "commits.jsonl"), "--backend", "llm",
        "--endpoint", "http://127.0.0.1:1/v1", "--model", "m", "--cache-dir", str(tmp_path / "cache"),
    ]
    monkeypatch.setattr(llm_backend, "_http_transport", fake_transport)
    assert run([*argv, "--out", str(tmp_path / "cold.jsonl")]) == 0
    # every prompt is now a cache hit, so the run below sends no request
    modules = _run(*argv, "--out", str(tmp_path / "warm.jsonl"))
    assert (tmp_path / "warm.jsonl").read_text() == (tmp_path / "cold.jsonl").read_text()
    assert _buildref(modules) == _loaded_by("detect --backend llm")
    assert not RECORD_MACHINERY & modules
    _, modules = _loads("import buildref.llm_backend\ncode = 0")
    assert _buildref(modules) == {"buildref", "buildref.mining", "buildref.llm_backend", "buildref.taxonomy"}


def test_evaluate_loads_no_parsers_detectors_or_llm_client(inputs, tmp_path):
    modules = _run(
        "evaluate", "--gold", str(inputs / "gold.jsonl"), "--pred", str(inputs / "pred.jsonl"),
        "--out", str(tmp_path / "report.json"),
    )
    assert _buildref(modules) == _loaded_by("evaluate")
    assert not RECORD_MACHINERY & modules


def test_report_and_taxonomy_load_only_the_registry_and_scoring(inputs, tmp_path):
    report = tmp_path / "report.json"
    _run("evaluate", "--gold", str(inputs / "gold.jsonl"), "--pred", str(inputs / "pred.jsonl"), "--out", str(report))
    for command, argv in (("report", ["report", "--in", str(report)]), ("taxonomy", ["taxonomy", "--json"])):
        modules = _run(*argv)
        assert _buildref(modules) == _loaded_by(command)
        assert not RECORD_MACHINERY & modules, command


def test_only_mine_loads_the_git_helpers(inputs, tmp_path):
    git_helpers = {"subprocess", "tempfile"}
    assert git_helpers <= _run("mine", "--repo", str(inputs / "repo"), "--out", str(tmp_path / "commits.jsonl"))
    report = tmp_path / "report.json"
    for argv in (
        ["detect", "--commits", str(inputs / "commits.jsonl"), "--out", str(tmp_path / "pred.jsonl")],
        ["evaluate", "--gold", str(inputs / "gold.jsonl"), "--pred", str(inputs / "pred.jsonl"), "--out", str(report)],
        ["report", "--in", str(report)],
    ):
        assert not git_helpers & _run(*argv), argv[0]


def test_every_old_export_resolves_to_its_module_attribute():
    for module_name, names in OLD_EXPORTS.items():
        module = importlib.import_module(f"buildref.{module_name}")
        assert getattr(buildref, module_name) is module
        for name in names:
            assert getattr(buildref, name) is getattr(module, name), name
            assert name in dir(buildref)
    star: dict = {}
    exec("from buildref import *", star)
    assert {name for names in OLD_EXPORTS.values() for name in names} | set(OLD_EXPORTS) <= set(star)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        buildref.no_such_name
    assert not hasattr(buildref, "Hunk")  # defined in buildref.mining, never exported


@pytest.mark.parametrize("path, base", [
    ("mining.RepoUnreadableError", DataError),
    ("build_parsers.XmlMalformedError", DataError),
    ("evaluation.UnknownCommitError", DataError),
    ("taxonomy.UnknownTypeError", DataError),
    ("llm_backend.MixedBuildSystemsError", DataError),
    ("llm_backend.EmptyDiffError", DataError),
    ("llm_backend.TransportError", BackendError),
    ("llm_backend.UnparseableResponseError", BackendError),
])
def test_each_error_derives_from_the_base_its_exit_code_needs(path, base):
    module_name, name = path.split(".")
    assert issubclass(getattr(importlib.import_module(f"buildref.{module_name}"), name), base)


_TIMER = """
import json, os, signal, sys, time, traceback  # what bench/stages.py imports
repeats, modules, srcs = int(sys.argv[1]), json.loads(sys.argv[2]), sys.argv[3:]
seconds = {src: {command: [] for command in modules} for src in srcs}
for _ in range(repeats):  # in rounds, so that a slow spell costs every command and source alike
    for src in srcs:
        for command, names in modules.items():
            read_fd, write_fd = os.pipe()
            if os.fork() == 0:
                sys.path.insert(0, src)
                started = time.perf_counter()
                for name in names:
                    __import__("buildref." + name)
                os.write(write_fd, repr(time.perf_counter() - started).encode())
                os._exit(0)
            os.close(write_fd)
            with os.fdopen(read_fd, "rb") as pipe:
                seconds[src][command].append(float(pipe.read()))
            os.wait()
print(json.dumps(seconds))
"""


if __name__ == "__main__":
    # the fixed cost of each command: PYTHONPATH=src python tests/test_imports.py [repeats [SRC ...]]
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 21
    srcs = [os.path.abspath(src) for src in sys.argv[2:]] or [SRC]
    proc = subprocess.run(
        [sys.executable, "-c", _TIMER, str(repeats), json.dumps(COMMAND_MODULES), *srcs],
        capture_output=True, text=True, check=True,
    )
    print(f"import time in ms of {repeats} forked children: median (quartiles), "
          f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}")
    for src, by_command in json.loads(proc.stdout).items():
        print(src)
        for command, times in by_command.items():
            times.sort()
            q1, median, q3 = (times[len(times) * k // 4] * 1000 for k in (1, 2, 3))
            print(f"  {command:<22} {median:6.1f} ({q1:.1f}-{q3:.1f})")
