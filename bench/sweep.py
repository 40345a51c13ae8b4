"""Traced sweep over every buildref layer, for the per-layer metrics.

Usage: python3 sweep.py CONFIG_JSON RESULT_JSON

Calls each module's public functions itself and records a span around every
call, plus counts at the same boundaries: mining (`mine_commits`,
`extract_diff`), the CLI's wire format (`commit_to_json`,
`commit_from_json`) and its `run` entry for the two LLM passes, the parsers
(`parse_build_file`, `infer_hierarchy`), the six category detectors and
`detect_all`, the LLM prompt builder and reply parser, and scoring. No program
code is changed. Every layer runs on every workload, so each metric is
measured everywhere; the README maps each one to the end-to-end metric it
should move.

The sweep repeats until CONFIG's `seconds` have passed (at least once). Each
metric is the median over sweeps of its per-sweep total. RESULT_JSON holds
the metrics, the outputs of the first sweep (to compare byte for byte with
the CLI's), and the first sweep's spans.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

from stub import StubClient

DETECTORS = ("clean_up", "module_hierarchy", "subroutine", "dependency", "properties", "variables")
PROCESS_EVENTS = ("subprocess.Popen", "os.posix_spawn", "os.spawn", "os.fork", "os.forkpty", "os.system")


class Tracer:
    """In-memory spans (name, parent index, start, end) and counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.seconds: Counter = Counter()
        self.counts: Counter = Counter()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        started = time.perf_counter()
        self.spans.append([name, parent, started, None])
        self._stack.append(index)
        try:
            yield
        finally:
            ended = time.perf_counter()
            self._stack.pop()
            self.spans[index][3] = ended
            self.seconds[name] += ended - started

    def add(self, name: str, amount: float) -> None:
        self.counts[name] += amount


class ProcessCounter:
    """Counts child processes however they are started, from audit events.

    `subprocess.Popen` may go on to raise `os.posix_spawn` for the same
    child; that second event is not counted twice.
    """

    def __init__(self) -> None:
        self.started = 0
        self._popen_args = None

    def hook(self, event: str, args) -> None:
        if event not in PROCESS_EVENTS:
            return
        if event == "os.posix_spawn" and self._popen_args == list(args[1]):
            self._popen_args = None
            return
        self._popen_args = list(args[1]) if event == "subprocess.Popen" else None
        self.started += 1


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _parser_key(path: str) -> str:
    base = path.rsplit("/", 1)[-1]
    if base == "pom.xml":
        return "maven"
    if base == "build.xml":
        return "ant"
    if base.endswith(".properties"):
        return "properties"
    return "gradle"


def sweep(cfg: dict, tr: Tracer, procs: ProcessCounter, out_dir: str) -> dict:
    from buildref import build_parsers, cli, detectors, evaluation, llm_backend, mining

    # mining
    cpu, started = _children_cpu(), procs.started
    with tr.span("mining.mine"):
        records = list(mining.mine_commits(cfg["repo"], mining.MiningFilter(), mining.MiningStats()))
    tr.add("mining.procs", procs.started - started)
    tr.add("mining.child_cpu_s", _children_cpu() - cpu)
    with tr.span("cli.commits_write"):
        commit_lines = [mining.commit_to_json(r) for r in records]
    with tr.span("cli.commits_read"):
        records = [mining.commit_from_json(line) for line in commit_lines]
    for r in records:
        for fd in r.file_diffs:
            with tr.span("mining.diff"):
                mining.extract_diff(fd.before_content, fd.after_content)

    # parsers and hierarchy
    for r in records:
        sides: tuple[dict, dict] = ({}, {})
        for fd in r.file_diffs:
            for side, path, content in ((0, fd.old_path or fd.path, fd.before_content), (1, fd.path, fd.after_content)):
                if content is None:
                    continue
                with tr.span(f"build_parsers.{_parser_key(path)}"):
                    try:
                        model = build_parsers.parse_build_file(path, content)
                    except build_parsers.XmlMalformedError:
                        continue
                sides[side][path] = model
                tr.add("build_parsers.raw_blocks", sum(
                    el.kind is build_parsers.ElementKind.RAW_BLOCK for el in model.elements
                ))
        for models in sides:
            with tr.span("build_parsers.hierarchy"):
                build_parsers.infer_hierarchy(models)

    # static detection
    config = detectors.DetectorConfig()
    static_lines = []
    for r in records:
        with tr.span("detectors.context"):
            ctx = detectors.CommitContext.from_commit(r)
        for name in DETECTORS:
            detector = getattr(detectors, f"detect_{name}")
            with tr.span(f"detectors.{name}"):
                detector(ctx, config)
        with tr.span("detectors.detect_all"):
            found = detectors.detect_all(ctx, config)
        static_lines += [detectors.detection_to_json(r.commit_hash, d) for d in sorted(found, key=detectors.sort_key)]

    # LLM: prompts, the two CLI passes against the stub, reply parsing
    prompt_bytes = 0
    for r in [mining.commit_from_json(line) for line in commit_lines]:  # hunks not yet cached
        for system in sorted({fd.build_system for fd in r.file_diffs}, key=lambda s: s.value):
            sub = mining.CommitRecord(
                repo_id=r.repo_id, commit_hash=r.commit_hash, message=r.message, author=r.author,
                timestamp=r.timestamp,
                file_diffs=tuple(fd for fd in r.file_diffs if fd.build_system is system),
            )
            spec = llm_backend.PromptSpec(mode=llm_backend.PromptMode.ZERO_SHOT, build_system=system)
            with tr.span("llm_backend.prompt"):
                prompt = llm_backend.build_prompt(sub, spec)
            prompt_bytes += len(prompt.encode("utf-8"))
    tr.add("llm_backend.prompt_kb", prompt_bytes / 1024)

    commits_path = os.path.join(out_dir, "commits.jsonl")
    with open(commits_path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in commit_lines))
    stub = StubClient(cfg["stub_url"])
    llm_out = {}
    logs = {}
    for phase in ("cold", "warm"):
        llm_out[phase] = os.path.join(out_dir, f"llm_{phase}.jsonl")
        stub.reset()
        with tr.span(f"cli.detect_{phase}"):
            code = cli.run([
                "detect", "--commits", commits_path, "--backend", "llm",
                "--endpoint", cfg["stub_url"] + "/v1/chat/completions", "--model", cfg["model"],
                "--cache-dir", os.path.join(out_dir, "cache"), "--out", llm_out[phase],
            ])
        if code != 0:
            raise RuntimeError(f"traced LLM {phase} pass exited with {code}")
        logs[phase] = stub.log()
    tr.add("llm_backend.requests", len(logs["cold"]) + len(logs["warm"]))
    for entry in logs["cold"]:
        with tr.span("llm_backend.parse"):
            try:
                llm_backend.parse_response(entry["content"])
            except llm_backend.UnparseableResponseError:
                pass
    with open(llm_out["warm"], encoding="utf-8") as fh:
        llm_lines = [line.rstrip("\n") for line in fh if line.strip()]

    # scoring
    pred_lines = llm_lines if cfg["backend"] == "llm" else static_lines
    with open(cfg["gold"], encoding="utf-8") as fh:
        gold_text = fh.read()
    with tr.span("evaluation.read"):
        gold = evaluation.gold_from_lines(gold_text.split("\n"))
        pred = evaluation.predictions_from_lines(pred_lines)
    with tr.span("evaluation.score"):
        report = evaluation.report_to_json(evaluation.score(gold, pred, backend=cfg["backend"]))

    return {
        "commits": commit_lines,
        "static": static_lines,
        "llm": llm_lines,
        "report": report,
        "cold_log": logs["cold"],
        "warm_log": logs["warm"],
    }


def main(argv: list[str]) -> None:
    config_path, result_path = argv
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    sys.path.insert(0, cfg["src"])
    procs = ProcessCounter()
    sys.addaudithook(procs.hook)

    per_sweep: list[dict[str, float]] = []
    first = None
    spans = None
    deadline = time.perf_counter() + cfg["seconds"]
    while not per_sweep or time.perf_counter() < deadline:
        tr = Tracer()
        out_dir = os.path.join(cfg["work"], f"sweep{len(per_sweep)}")
        os.makedirs(out_dir)
        outputs = sweep(cfg, tr, procs, out_dir)
        if first is None:
            first, spans = outputs, tr.spans
        elif any(outputs[k] != first[k] for k in ("commits", "static", "llm", "report")):
            first["differs"] = True
        metrics = {f"{name}_s": seconds for name, seconds in tr.seconds.items()}
        metrics.update(tr.counts)
        per_sweep.append(metrics)

    names = sorted(set().union(*per_sweep))
    counts_vary = [
        n for n in names
        if not n.endswith("_s") and len({m.get(n, 0) for m in per_sweep}) > 1
    ]
    metrics = {
        n: statistics.median(m.get(n, 0.0) for m in per_sweep) if n.endswith("_s") else per_sweep[0].get(n, 0)
        for n in names
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "metrics": metrics,
            "sweeps": len(per_sweep),
            "counts_vary": counts_vary,
            "outputs": first,
            "spans": spans,
        }, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
