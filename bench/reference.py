"""Reference figures quoted in bench/README.md.

Usage, from the repository root: python3 bench/reference.py --seed N

Prints, as JSON lines:
* git processes per mined commit on each workload, counted by the traced
  sweep's audit hook;
* per-detector time on the large-POM commit of `large_files` (the commit
  that pulls one dependency up into the 800-dependency POM), median of
  REPEATS;
* static `detect` wall time on `large_files` at --parallelism 1 and 2,
  median of REPEATS alternating runs, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

import run
import workloads
from sweep import DETECTORS, ProcessCounter

REPEATS = 7


def procs_per_commit(data: dict[str, str]) -> dict:
    from buildref import mining

    counter = ProcessCounter()
    sys.addaudithook(counter.hook)
    out = {}
    for name, dest in data.items():
        before = counter.started
        mined = sum(1 for _ in mining.mine_commits(os.path.join(dest, workloads.REPO_DIR)))
        started = counter.started - before
        out[name] = {"mined": mined, "git_processes": started, "per_commit": started / mined}
    return out


def large_pom_detectors(dest: str) -> dict:
    from buildref import detectors, mining

    records = list(mining.mine_commits(os.path.join(dest, workloads.REPO_DIR)))
    record = next(r for r in records if any(fd.path == "big/child/pom.xml" for fd in r.file_diffs))
    times: dict[str, list[float]] = {"context": [], **{f"detect_{n}": [] for n in DETECTORS}, "detect_all": []}
    for _ in range(REPEATS):
        started = time.perf_counter()
        ctx = detectors.CommitContext.from_commit(record)
        times["context"].append(time.perf_counter() - started)
        for n in DETECTORS:
            started = time.perf_counter()
            getattr(detectors, f"detect_{n}")(ctx)
            times[f"detect_{n}"].append(time.perf_counter() - started)
        started = time.perf_counter()
        detectors.detect_all(ctx)
        times["detect_all"].append(time.perf_counter() - started)
    return {k: statistics.median(v) for k, v in times.items()}


def parallelism(dest: str, workdir: str) -> dict:
    out = os.path.join(workdir, "parallelism")
    os.makedirs(out)
    commits = os.path.join(out, "commits.jsonl")
    server = run.StageServer(run._clean_env(workdir), os.path.join(out, "stages.stderr"))
    try:
        server.run({"name": "mine", "argv": ["mine", "--repo", os.path.join(dest, workloads.REPO_DIR), "--out", commits]})
        seconds: dict[int, list[float]] = {1: [], 2: []}
        outputs = {}
        for i in range(REPEATS):
            for p in ((1, 2) if i % 2 == 0 else (2, 1)):
                det = os.path.join(out, f"detect{p}.jsonl")
                result = server.run({"name": "detect", "argv": [
                    "detect", "--commits", commits, "--parallelism", str(p), "--out", det]})
                seconds[p].append(result["seconds"])
                outputs[p] = run._read(det)
    finally:
        server.close()
    if outputs[1] != outputs[2]:
        raise RuntimeError("--parallelism 2 changed the detections")
    return {f"parallelism_{p}": statistics.median(v) for p, v in seconds.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, run.SRC)
    workdir = os.path.join(run.WORK, f"reference-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        data = {name: os.path.join(workdir, name) for name in workloads.WORKLOADS}
        for name, dest in data.items():
            workloads.set_up(name, args.seed, dest)
        print(json.dumps({"large_files_static_detect_s": parallelism(data["large_files"], workdir)}))
        print(json.dumps({"large_pom_commit_s": large_pom_detectors(data["large_files"])}))
        print(json.dumps({"git_processes": procs_per_commit(data)}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
