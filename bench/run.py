"""Benchmark of the buildref pipeline: mine -> detect -> evaluate.

Usage, from the repository root:

    python3 bench/run.py --workload history|large_files|llm_cached \
        --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed (a git repository written with
`git fast-import`, gold labels and the LLM stub's reply plan), then:

* with --trace 0, runs whole rounds of the real `buildref` stages for S
  seconds and reports the end-to-end metrics: setup_s, commits_per_s,
  mine_s, detect_s and peak_rss_mb;
* with --trace 1, runs the CLI stages once for reference, then a traced sweep
  over every layer (see sweep.py) for S seconds, and reports the per-layer
  metrics.

Every output is checked against the generator's ground truth (see checks.py).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. An operation is one commit through one stage,
or one LLM prompt in one pass. Work files go to .bench_work/ and are removed
at the end; the first traced sweep's spans go to .bench_traces/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
TRACES = os.path.join(ROOT, ".bench_traces")
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import workloads  # noqa: E402
from stages import STAGE_TIMEOUT  # noqa: E402
from stub import StubClient  # noqa: E402

SETUP_MIN_REPEATS = 5  # set-up repeats at least this often and for at least
SETUP_MIN_SECONDS = 2.0  # this long; setup_s is the median
MIN_ROUNDS = 3
MODEL = "bench-stub"
# Stage samples per round. A workload's short stages repeat so that their
# medians rest on about as many samples as its dominant stage's.
REPEATS = {
    "history": {"mine": 1, "detect": 4, "evaluate": 1},
    "large_files": {"mine": 2, "detect": 1, "evaluate": 1},
    "llm_cached": {"mine": 1, "detect": 2, "evaluate": 1},
}

END_TO_END_UNITS = {
    "setup_s": "s", "commits_per_s": "1/s", "mine_s": "s", "detect_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = [
    "mining.mine_s", "mining.procs", "mining.child_cpu_s", "mining.diff_s",
    "cli.commits_write_s", "cli.commits_read_s", "cli.detect_cold_s", "cli.detect_warm_s",
    "build_parsers.maven_s", "build_parsers.ant_s", "build_parsers.gradle_s",
    "build_parsers.properties_s", "build_parsers.hierarchy_s", "build_parsers.raw_blocks",
    "detectors.context_s", "detectors.clean_up_s", "detectors.module_hierarchy_s",
    "detectors.subroutine_s", "detectors.dependency_s", "detectors.properties_s",
    "detectors.variables_s", "detectors.detect_all_s",
    "llm_backend.prompt_s", "llm_backend.prompt_kb", "llm_backend.parse_s", "llm_backend.requests",
    "evaluation.read_s", "evaluation.score_s",
]


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_kb"):
        return "KB"
    return "count"


def _clean_env(workdir: str) -> dict[str, str]:
    """Environment of the program's processes: isolated git, no proxies."""
    env = workloads.git_env(workdir)
    for key in list(env):
        if key.lower() in ("http_proxy", "https_proxy", "all_proxy"):
            del env[key]
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env.pop("BUILDREF_API_KEY", None)
    return env


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _read_lines(path: str) -> list[str]:
    return [line for line in _read(path).split("\n") if line.strip()]


def _lines_text(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class StubProcess(StubClient):
    """The loopback LLM stub, in a process of its own."""

    def __init__(self, plan_path: str, workdir: str):
        port_file = os.path.join(workdir, "stub.port")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "stub.py"), plan_path, port_file],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 30
        while not os.path.exists(port_file):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("the LLM stub did not start")
            time.sleep(0.01)
        super().__init__(f"http://127.0.0.1:{_read(port_file)}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class StageServer:
    """A stages.py process: runs each CLI stage in a child it forks."""

    def __init__(self, env: dict[str, str], stderr_path: str):
        self.stderr_path = stderr_path
        self._stderr = open(stderr_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "stages.py"), SRC],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr, env=env, text=True,
        )

    def run(self, stage: dict) -> dict:
        """{"name", "exit", "seconds", "rss_mb"} of one stage."""
        self.proc.stdin.write(json.dumps({"argv": stage["argv"]}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the stage server stopped")
        return {"name": stage["name"], **json.loads(line)}

    def stderr_tail(self) -> str:
        return _read(self.stderr_path)[-600:]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=STAGE_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def set_up(name: str, seed: int, workdir: str, repeat: bool) -> tuple[float, workloads.Workload, str]:
    """Generate the workload (repeatedly when `repeat`); return the median
    time, the workload and the directory of the last copy."""
    times: list[float] = []
    while not times or repeat and (len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS):
        if times:
            shutil.rmtree(dest)
        dest = os.path.join(workdir, f"setup{len(times)}")
        started = time.perf_counter()
        workload = workloads.set_up(name, seed, dest)
        times.append(time.perf_counter() - started)
    return statistics.median(times), workload, dest


def _gold(workload, data: str) -> str:
    return os.path.join(data, "llm_gold.jsonl" if workload.backend == "llm" else "gold.jsonl")


def _pred(workload, out: str) -> str:
    return os.path.join(out, "llm.jsonl" if workload.backend == "llm" else "static.jsonl")


def stage_plan(workload, data: str, out: str, stub_url: str | None, both: bool) -> dict[str, dict]:
    """The CLI stages, by name. `both` adds the static and the LLM detection
    on any workload (the reference run of a traced run)."""
    commits = os.path.join(out, "commits.jsonl")
    stages = {"mine": ["mine", "--repo", os.path.join(data, workloads.REPO_DIR), "--out", commits]}
    if workload.backend == "static" or both:
        stages["detect"] = ["detect", "--commits", commits, "--out", os.path.join(out, "static.jsonl")]
    if workload.backend == "llm" or both:
        llm = ["detect", "--commits", commits, "--backend", "llm", "--endpoint", f"{stub_url}/v1/chat/completions",
               "--model", MODEL, "--cache-dir", os.path.join(out, "cache")]
        stages["detect_cold"] = llm + ["--out", os.path.join(out, "llm_cold.jsonl")]
        stages["detect_warm"] = llm + ["--out", os.path.join(out, "llm.jsonl")]
    stages["evaluate"] = ["evaluate", "--gold", _gold(workload, data), "--pred", _pred(workload, out),
                          "--out", os.path.join(out, "report.json"), "--backend-label", workload.backend]
    return {name: {"name": name, "argv": argv} for name, argv in stages.items()}


def check_outputs(workload, plan: dict, out: str, names, data: str) -> list[str]:
    """Every output check that applies to the outputs in `out`."""
    from buildref.mining import apply_hunks, extract_diff

    commit_lines = _read_lines(os.path.join(out, "commits.jsonl"))
    problems = checks.check_mined(workload, commit_lines)
    problems += checks.check_hunks(commit_lines, extract_diff, apply_hunks)
    if "detect" in names:
        problems += checks.check_static(workload, _read_lines(os.path.join(out, "static.jsonl")))
    if "detect_cold" in names:
        for f in ("llm_cold.jsonl", "llm.jsonl"):
            problems += checks.check_llm(workload, plan, _read_lines(os.path.join(out, f)))
    problems += checks.check_report(
        _read(os.path.join(out, "report.json")), _read_lines(_gold(workload, data)), _read_lines(_pred(workload, out))
    )
    return problems


def run_llm_pass(server: StageServer, stub: StubClient, stage: dict) -> tuple[dict, list[dict]]:
    """One LLM pass with the stub's request log cleared before it; returns
    the stage's result and the requests it sent."""
    stub.reset()
    result = server.run(stage)
    return result, stub.log()


def operations(workload, names, prompts: int) -> int:
    n = len(workload.mined)
    return sum(prompts if name.startswith("detect_") else n for name in names)


def untraced(args, workload, data, workdir, server: StageServer, stub) -> tuple[dict, int, int, list[str]]:
    """Whole rounds for args.seconds. Each round runs `mine`, then `detect`
    (on llm_cached a cold and a warm pass on a new cache directory), then
    `evaluate`, each as often as REPEATS says, every sample in its own
    process. Times are medians over all samples of the run."""
    plan = json.loads(_read(os.path.join(data, "stub_plan.json")))
    prompts = sum(len(v) for v in plan.values())
    repeats = REPEATS[workload.name]
    detect_names = ["detect"] if workload.backend == "static" else ["detect_cold", "detect_warm"]
    sequence = (
        [("mine", ["mine"])] * repeats["mine"]
        + [("detect", detect_names)] * repeats["detect"]
        + [("evaluate", ["evaluate"])] * repeats["evaluate"]
    )
    samples: dict[str, list[float]] = {"mine": [], "detect": [], "evaluate": []}
    round_rss: list[float] = []
    problems: list[str] = []
    attempted = failed = rounds = 0
    reference = None
    started = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - started < args.seconds:
        out = os.path.join(workdir, f"round{rounds}")
        os.makedirs(out)
        stages = stage_plan(workload, data, out, stub.url if stub else None, both=False)
        attempted += sum(operations(workload, names, prompts) for _, names in sequence)
        rss = 0.0
        round_samples: dict[str, list[float]] = {k: [] for k in samples}
        for k, (kind, names) in enumerate(sequence):
            logs = {}
            if stub and kind == "detect":
                shutil.rmtree(os.path.join(out, "cache"), ignore_errors=True)
                results = []
                for name in names:
                    result, logs[name] = run_llm_pass(server, stub, stages[name])
                    results.append(result)
            else:
                results = [server.run(stages[name]) for name in names]
            rss = max([rss] + [r["rss_mb"] for r in results])
            if any(r["exit"] for r in results):
                failed += sum(operations(workload, n, prompts) for _, n in sequence[k:])
                problems.append(f"round {rounds}: {names} failed: {results} {server.stderr_tail()}")
                break
            round_samples[kind].append(sum(r["seconds"] for r in results))
            if logs:
                problems += checks.check_requests(plan, logs["detect_cold"], logs["detect_warm"])
        else:
            for kind, values in round_samples.items():
                samples[kind] += values
            round_rss.append(rss)
            digests = {f: _digest(os.path.join(out, f)) for f in sorted(os.listdir(out)) if f.endswith((".jsonl", ".json"))}
            if reference is None:
                reference = digests
                problems += check_outputs(workload, plan, out, stages, data)
            elif digests != reference:
                problems.append(f"round {rounds}: outputs differ from the first round's")
            print(f"round {rounds}: " + json.dumps(
                {k: [round(v, 4) for v in vals] for k, vals in round_samples.items()} | {"peak_rss_mb": rss}
            ), file=sys.stderr)
        rounds += 1
        shutil.rmtree(out)
    medians = {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}
    total = sum(medians.values())
    metrics = {
        "mine_s": medians["mine"],
        "detect_s": medians["detect"],
        "commits_per_s": len(workload.mined) / total if total else 0.0,
        "peak_rss_mb": statistics.median(round_rss) if round_rss else 0.0,
    }
    return metrics, attempted, failed, problems


def traced(args, workload, data, workdir, server: StageServer, stub, env) -> tuple[dict, int, int, list[str]]:
    """One reference CLI run (all stages, both backends), then sweep.py."""
    plan = json.loads(_read(os.path.join(data, "stub_plan.json")))
    prompts = sum(len(v) for v in plan.values())
    out = os.path.join(workdir, "reference")
    os.makedirs(out)
    stages = stage_plan(workload, data, out, stub.url, both=True)
    ops = operations(workload, stages, prompts)
    zeros = {n: 0 for n in PER_LAYER}
    results, logs = [], {}
    for name, stage in stages.items():
        if name.startswith("detect_"):
            result, logs[name] = run_llm_pass(server, stub, stage)
        else:
            result = server.run(stage)
        results.append(result)
        if result["exit"]:
            return zeros, ops, ops, [f"reference CLI run failed: {results} {server.stderr_tail()}"]
    problems = checks.check_requests(plan, logs["detect_cold"], logs["detect_warm"])
    problems += check_outputs(workload, plan, out, stages, data)

    trace_dir = os.path.join(workdir, "trace")
    os.makedirs(trace_dir)
    config = {
        "src": SRC, "repo": os.path.join(data, workloads.REPO_DIR), "stub_url": stub.url, "model": MODEL,
        "backend": workload.backend, "work": trace_dir, "seconds": args.seconds, "gold": _gold(workload, data),
    }
    config_path = os.path.join(trace_dir, "config.json")
    result_path = os.path.join(trace_dir, "result.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "sweep.py"), config_path, result_path],
        env=env, check=True, timeout=args.seconds + 2 * STAGE_TIMEOUT, stdout=subprocess.DEVNULL,
    )
    res = json.loads(_read(result_path))
    got = res["outputs"]
    for label, text, path in (
        ("mined commits", _lines_text(got["commits"]), "commits.jsonl"),
        ("static detections", _lines_text(got["static"]), "static.jsonl"),
        ("LLM detections", _lines_text(got["llm"]), "llm.jsonl"),
        ("evaluation report", got["report"] + "\n", "report.json"),
    ):
        if text != _read(os.path.join(out, path)):
            problems.append(f"traced {label} differ from the CLI's {path}")
    problems += checks.check_requests(plan, got["cold_log"], got["warm_log"])
    if got.get("differs"):
        problems.append("traced sweeps produced different outputs")
    if res["counts_vary"]:
        problems.append(f"traced counts vary between sweeps: {res['counts_vary']}")

    os.makedirs(TRACES, exist_ok=True)
    with open(os.path.join(TRACES, f"{args.workload}-{args.seed}.json"), "w", encoding="utf-8") as fh:
        json.dump({"spans": [dict(zip(("name", "parent", "start", "end"), s)) for s in res["spans"]]}, fh)

    m = res["metrics"]
    stage = {r["name"]: r["seconds"] for r in results}
    coverage = {
        "mine": m["mining.mine_s"] / stage["mine"],
        "detect": (m["detectors.context_s"] + m["detectors.detect_all_s"]) / stage["detect"],
        "detect_cold": m["cli.detect_cold_s"] / stage["detect_cold"],
        "detect_warm": m["cli.detect_warm_s"] / stage["detect_warm"],
        "evaluate": (m["evaluation.read_s"] + m["evaluation.score_s"]) / stage["evaluate"],
    }
    print(f"sweeps: {res['sweeps']}; stage seconds of the CLI run: "
          + json.dumps({k: round(v, 4) for k, v in stage.items()}), file=sys.stderr)
    print("traced share of each CLI stage: " + json.dumps({k: round(v, 3) for k, v in coverage.items()}),
          file=sys.stderr)
    sweep_ops = len(workload.mined) * 3 + 2 * prompts
    return {n: m.get(n, 0) for n in PER_LAYER}, ops + res["sweeps"] * sweep_ops, 0, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still stop the children and clean up
    if not os.path.exists(os.path.join(SRC, "buildref", "cli.py")):
        print(f"error: no buildref sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    stub = server = None
    try:
        setup_s, workload, data = set_up(args.workload, args.seed, workdir, repeat=not args.trace)
        env = _clean_env(workdir)
        server = StageServer(env, os.path.join(workdir, "stages.stderr"))
        if args.trace or workload.backend == "llm":
            stub = StubProcess(os.path.join(data, "stub_plan.json"), workdir)
        if args.trace:
            metrics, attempted, failed, problems = traced(args, workload, data, workdir, server, stub, env)
            units = {n: per_layer_unit(n) for n in PER_LAYER}
        else:
            metrics, attempted, failed, problems = untraced(args, workload, data, workdir, server, stub)
            metrics["setup_s"] = setup_s
            units = END_TO_END_UNITS
    finally:
        if server:
            server.close()
        if stub:
            stub.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
