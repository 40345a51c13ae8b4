"""Batch command line: mine -> detect -> evaluate -> report, plus taxonomy.

Stages communicate through line-delimited JSON files so runs can be resumed,
cached, and mixed across backends. Exit codes: 0 success, 1 usage error,
2 data error, 3 backend/transport error.

Each subcommand imports the modules it runs when it runs, so ``mine`` never
loads the parsers, the detectors or the LLM client.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import logging
import sys
from dataclasses import replace
from functools import partial
from typing import Iterable, Iterator, Optional, Sequence, TextIO

from .mining import (
    BackendError,
    BuildSystem,
    CommitRecord,
    DataError,
    MiningFilter,
    MiningStats,
    commit_from_json,
    commit_to_json,
    mine_commits,
    numbered_lines,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage errors to 1
        raise UsageError(message)


def _build_parser() -> tuple[_Parser, list[_Parser]]:
    parser = _Parser(prog="buildref", description=__doc__)
    parser.add_argument("--config", help="key=value file with flag defaults; flags win")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_mine = sub.add_parser("mine", help="walk a git repo for refactoring commits")
    p_mine.add_argument("--repo", required=True)
    p_mine.add_argument("--out", default="-")
    p_mine.add_argument("--keyword", default="refactor")
    p_mine.add_argument("--build-systems", default="maven,ant,gradle")
    p_mine.add_argument("--max-commits", type=int, default=None)
    p_mine.add_argument("--include-merges", action="store_true")

    p_detect = sub.add_parser("detect", help="detect refactorings in mined commits")
    p_detect.add_argument("--commits", required=True)
    p_detect.add_argument("--out", default="-")
    p_detect.add_argument("--backend", choices=["static", "llm"], default="static")
    p_detect.add_argument("--prompt-mode", choices=["zero-shot", "one-shot"], default="zero-shot")
    p_detect.add_argument("--endpoint")
    p_detect.add_argument("--model")
    p_detect.add_argument("--api-key-env", default="BUILDREF_API_KEY")
    p_detect.add_argument("--temperature", type=float, default=0.0)
    p_detect.add_argument("--max-output-tokens", type=int, default=2048)
    p_detect.add_argument("--timeout", type=float, default=60.0)
    p_detect.add_argument("--max-retries", type=int, default=3)
    p_detect.add_argument("--rate", type=float, default=None, help="max requests per second")
    p_detect.add_argument("--parallelism", type=int, default=1)
    p_detect.add_argument("--cache-dir", default=None)
    p_detect.add_argument("--no-cache", action="store_true")
    p_detect.add_argument("--move-similarity", type=float, default=0.7)
    p_detect.add_argument("--rename-similarity", type=float, default=0.8)
    p_detect.add_argument("--dump-models", default=None, help="debug: write parsed build models here")

    p_eval = sub.add_parser("evaluate", help="score predictions against gold labels")
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--out", default="-")
    p_eval.add_argument("--backend-label", default="static")
    p_eval.add_argument("--set-mode", action="store_true")

    p_report = sub.add_parser("report", help="render an evaluation report")
    p_report.add_argument("--in", dest="in_path", required=True)
    p_report.add_argument("--format", choices=["md", "json"], default="md")

    p_tax = sub.add_parser("taxonomy", help="print the 24-type registry")
    p_tax.add_argument("--json", action="store_true")

    return parser, [p_mine, p_detect, p_eval, p_report, p_tax]


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _apply_config_file(parsers: Sequence[_Parser], argv: Sequence[str]) -> None:
    """Set the defaults a ``--config`` file gives on every subcommand parser.

    A key is a subcommand flag without its dashes. An on/off flag takes
    true/false, yes/no or 1/0 in any case, and a flag with choices one of
    them. Any other key or value of those flags is a usage error.
    """
    path = None
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif arg.startswith("--config="):
            path = arg.split("=", 1)[1]
    if not path:
        return
    flags = {
        option.lstrip("-").replace("-", "_"): action
        for parser in parsers
        for action in parser._actions
        if action.dest != argparse.SUPPRESS  # --help
        for option in action.option_strings
    }
    defaults = {}
    with open(path, encoding="utf-8") as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, value = (part.strip() for part in line.split("=", 1))
            action = flags.get(key.replace("-", "_"))
            if action is None:
                raise UsageError(f"{path}:{number}: {key!r} names no subcommand flag")
            if isinstance(action, argparse._StoreTrueAction):
                if value.lower() not in _BOOLEANS:
                    raise UsageError(f"{path}:{number}: {key} takes true/false, yes/no or 1/0, not {value!r}")
                value = _BOOLEANS[value.lower()]
            elif action.choices is not None and value not in action.choices:  # argparse checks flags only
                raise UsageError(f"{path}:{number}: {key} takes one of {', '.join(action.choices)}, not {value!r}")
            defaults[action.dest] = value
    # subparsers do not inherit parent defaults, so set them on each
    for parser in parsers:
        parser.set_defaults(**defaults)


def _open_out(path: str):
    """A context manager giving ``path`` opened for writing, or stdout for ``-``."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="\n")


def _commit_records(lines: Iterable[str]) -> Iterator[CommitRecord]:
    """The record of each commit line, one at a time; a bad line is a DataError
    naming its number."""
    for number, line in numbered_lines(lines):
        try:
            record = commit_from_json(line)
        except (DataError, KeyError, ValueError) as exc:
            raise DataError(f"commits line {number}: {exc}") from exc
        yield record


# --- subcommands -------------------------------------------------------------

def _cmd_mine(args) -> int:
    by_name = {system.value.lower(): system for system in BuildSystem}
    names = [name.strip().lower() for name in args.build_systems.split(",") if name.strip()]
    if not names or not by_name.keys() >= set(names):
        raise UsageError(
            f"--build-systems takes a comma-separated list of {', '.join(by_name)}, not {args.build_systems!r}"
        )
    if args.max_commits is not None and args.max_commits < 0:
        raise UsageError(f"--max-commits takes 0 or more, not {args.max_commits}")
    mining_filter = MiningFilter(
        message_keyword=args.keyword,
        build_systems=frozenset(by_name[name] for name in names),
        max_commits=args.max_commits,
        exclude_merges=not args.include_merges,
    )
    stats = MiningStats()
    with _open_out(args.out) as out:
        for record in mine_commits(args.repo, mining_filter, stats):
            out.write(commit_to_json(record) + "\n")
    logger.info(
        "scanned %d commits, yielded %d, warnings %d",
        stats.commits_scanned, stats.commits_yielded, stats.warnings,
    )
    return EXIT_OK


def _detect_static(record: CommitRecord, config, out: TextIO, dump: Optional[TextIO]) -> None:
    """Write the detections of one commit to ``out`` and, unless ``dump`` is None,
    its parsed build models to ``dump``. The commit's context is freed on return."""
    from .build_parsers import model_to_json
    from .detectors import CommitContext, detect_all
    from .taxonomy import detection_to_json, sort_key

    ctx = CommitContext.from_commit(record)
    if dump is not None:
        for side, models in (("before", ctx.before_models), ("after", ctx.after_models)):
            for path in sorted(models):
                dump.write(json.dumps(
                    {"commit_hash": record.commit_hash, "version": side, **model_to_json(models[path])}
                ) + "\n")
    for det in sorted(detect_all(ctx, config), key=sort_key):
        out.write(detection_to_json(record.commit_hash, det) + "\n")


def _detect_llm(record: CommitRecord, args, config, rate_limiter) -> tuple[list[str], object]:
    """Detection lines and request counters (an ``llm_backend.LlmStats``) of one commit."""
    from . import llm_backend
    from .taxonomy import detection_to_json, sort_key

    mode = llm_backend.PromptMode(args.prompt_mode.replace("-", "_"))
    stats = llm_backend.LlmStats()
    lines: list[str] = []
    # one prompt per build system present in the commit, as prompts are system-tailored
    for system in sorted({fd.build_system for fd in record.file_diffs}, key=lambda s: s.value):
        sub_record = replace(record, file_diffs=tuple(fd for fd in record.file_diffs if fd.build_system is system))
        detections = llm_backend.classify_commit(
            sub_record, llm_backend.PromptSpec(mode=mode, build_system=system), config, stats=stats,
            rate_limiter=rate_limiter, cache_dir=None if args.no_cache else args.cache_dir,
        )
        lines.extend(detection_to_json(record.commit_hash, det) for det in sorted(detections, key=sort_key))
    return lines, stats


def _cmd_detect(args) -> int:
    if args.backend == "llm":
        return _cmd_detect_llm(args)
    from .detectors import DetectorConfig

    # pure-Python detection gains nothing from threads under the interpreter lock,
    # so every commit runs in this thread whatever --parallelism says
    config = DetectorConfig(move_similarity=args.move_similarity, rename_similarity=args.rename_similarity)
    with open(args.commits, encoding="utf-8") as fh:
        # a file is read twice; a pipe can be read once, so its lines are held
        lines = fh if fh.seekable() else fh.readlines()
        # a bad line fails here, before any output file exists; no record is kept
        collections.deque(_commit_records(lines), maxlen=0)
        if lines is fh:
            fh.seek(0)
        dump_models = open(args.dump_models, "w", encoding="utf-8") if args.dump_models else contextlib.nullcontext()
        with dump_models as dump, _open_out(args.out) as out:
            # one commit at a time: a record is decoded, detected and freed before the next
            for record in _commit_records(lines):
                _detect_static(record, config, out, dump)
    return EXIT_OK


def _cmd_detect_llm(args) -> int:
    if not args.endpoint or not args.model:
        raise UsageError("detect --backend llm requires --endpoint and --model")
    from . import llm_backend

    config = llm_backend.LlmConfig(
        endpoint=args.endpoint,
        model=args.model,
        api_key_env=args.api_key_env,
        temperature=args.temperature,
        max_output_tokens=args.max_output_tokens,
        timeout_seconds=args.timeout,
        max_retries=args.max_retries,
    )
    rate_limiter = llm_backend.RateLimiter(args.rate, burst=max(args.parallelism, 1)) if args.rate else None
    with open(args.commits, encoding="utf-8") as fh:
        records = list(_commit_records(fh))
    pool = None
    if args.parallelism > 1:  # the threads overlap their waits on the endpoint
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=args.parallelism)
    total = llm_backend.LlmStats()
    classify = partial(_detect_llm, args=args, config=config, rate_limiter=rate_limiter)
    with pool or contextlib.nullcontext(), _open_out(args.out) as out:
        # map preserves input order; each call counts its own requests and only this thread adds them up
        for lines, stats in (pool.map if pool else map)(classify, records):
            out.writelines(line + "\n" for line in lines)
            total.add(stats)
    logger.info(
        "requests %d, retries %d, reprompts %d, cache hits %d",
        total.requests, total.retries, total.reprompts, total.cache_hits,
    )
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    from . import evaluation

    # whole files, so an error names a line by its number in its file
    with open(args.gold, encoding="utf-8") as gold_lines, open(args.pred, encoding="utf-8") as pred_lines:
        gold = evaluation.gold_from_lines(gold_lines)
        pred = evaluation.predictions_from_lines(pred_lines)
    report = evaluation.score(gold, pred, backend=args.backend_label, set_mode=args.set_mode)
    with _open_out(args.out) as out:
        out.write(evaluation.report_to_json(report) + "\n")
    return EXIT_OK


def _cmd_report(args) -> int:
    from . import evaluation

    with open(args.in_path, encoding="utf-8") as fh:
        report = evaluation.report_from_json(fh.read())
    fmt = "json" if args.format == "json" else "markdown_table"
    print(evaluation.render_report(report, fmt))
    return EXIT_OK


def _cmd_taxonomy(args) -> int:
    from . import taxonomy

    if args.json:
        print(taxonomy.registry_to_json())
        return EXIT_OK
    current = None
    for t in taxonomy.registry():
        if t.category is not current:
            current = t.category
            print(f"# {current.value}")
        debts = sorted(d.value for d in taxonomy.td_categories_for(t))
        suffix = " [build-specific]" if t.build_specific else ""
        td_part = f" (TD: {', '.join(debts)})" if debts else ""
        print(f"- {t.id}{suffix}{td_part}")
    return EXIT_OK


_COMMANDS = {
    "mine": _cmd_mine,
    "detect": _cmd_detect,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
    "taxonomy": _cmd_taxonomy,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()
    try:
        _apply_config_file(subparsers, argv)
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose > 1 else logging.INFO if args.verbose else logging.WARNING,
            stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return _COMMANDS[args.subcommand](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (DataError, OSError, KeyError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
