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
import itertools
import json
import logging
import os
import sys
import threading
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
    json_lines,
    mine_commits,
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
    p_detect.add_argument(
        "--parallelism", type=int, default=None,
        help="static: processes, this one included (default: the usable CPUs); llm: threads (default: 1)",
    )
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


def _apply_config_file(parsers: Sequence[_Parser], path: str) -> None:
    """Set the defaults the ``--config`` file at ``path`` gives on every subcommand parser.

    A key is a subcommand flag without its dashes. An on/off flag takes
    true/false, yes/no or 1/0 in any case, and a flag with choices one of
    them. Blank lines and ``#`` lines are skipped; any other line without
    ``=``, and any other key or value of those flags, is a usage error.
    """
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
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{number}: {line!r} is not a key=value line")
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


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The arguments of ``argv``; a ``--config`` file (under any abbreviation
    argparse accepts) sets the defaults of a second parse."""
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        _apply_config_file(subparsers, args.config)
        args = parser.parse_args(argv)
    return args


def _open_out(path: str):
    """A context manager giving ``path`` opened for writing, or stdout for ``-``."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="\n")


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
        "scanned %d commits, yielded %d, corrupt %d, files skipped %d, warnings %d",
        stats.commits_scanned, stats.commits_yielded, stats.commits_skipped_corrupt, stats.files_skipped,
        stats.warnings,
    )
    return EXIT_OK


@contextlib.contextmanager
def _commit_lines(path: str) -> Iterator[tuple[Iterable[bytes], list[int]]]:
    """The lines of the commits file at ``path`` and the number (from 1) of
    each commit's line. Every line is decoded first, so a bad one fails before
    any output exists or request is sent; no record is kept. A file is then
    read again from its start; a pipe can be read once, so its lines are held."""
    with open(path, "rb") as fh:  # json_lines decodes each line, so an error names it
        lines = fh if fh.seekable() else fh.readlines()
        numbers = [number for number, _ in json_lines(lines, "commits", commit_from_json)]
        if lines is fh:
            fh.seek(0)
        yield lines, numbers


def _detect_share(lines: Iterable[bytes], first: int, config, out: TextIO, dump: Optional[TextIO]) -> None:
    """Decode, detect and free one commit of ``lines``, numbered from
    ``first``, after another, writing its detection lines to ``out`` and, when
    ``dump`` is given, the lines of its parsed build models to ``dump``."""
    from .build_parsers import model_to_json
    from .detectors import CommitContext, detect_all
    from .taxonomy import detection_to_json, sort_key

    for _, record in json_lines(lines, "commits", commit_from_json, first):
        ctx = CommitContext.from_commit(record)
        if dump is not None:
            dump.writelines(
                json.dumps({"commit_hash": record.commit_hash, "version": side, **model_to_json(side_models[path])}) + "\n"
                for side, side_models in (("before", ctx.before_models), ("after", ctx.after_models))
                for path in sorted(side_models)
            )
        found = sorted(detect_all(ctx, config), key=sort_key)
        out.writelines(detection_to_json(record.commit_hash, det) + "\n" for det in found)
        del ctx, found  # the models go before the next commit is decoded


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


class _WorkerTraceback(Exception):
    """The traceback of an exception a detect worker raised, shown as the
    cause of the same exception raised again in the parent."""

    def __str__(self) -> str:
        return "\n" + self.args[0]


def _detect_worker(
    path: str, lines: Iterable[bytes], start: int, stop: Optional[int], config, out: TextIO, dump: Optional[TextIO],
    failure,
) -> None:
    """In a forked child: detect the commits of lines ``start`` up to ``stop``
    (from 0; to the end when None) into the spool files ``out`` and ``dump``
    and exit; when a commit raises, write the pickled exception and its
    traceback text to ``failure`` first. A regular file is opened again, as a
    forked child shares the offset of the parent's file."""
    code = 1
    try:
        try:
            with contextlib.nullcontext(lines) if isinstance(lines, list) else open(path, "rb") as all_lines:
                _detect_share(itertools.islice(all_lines, start, stop), start + 1, config, out, dump)
        finally:
            for spool in (out, dump):
                if spool is not None:
                    spool.flush()  # the lines of the commits before a failure too
        code = 0
    except BaseException as exc:
        import pickle
        import traceback

        text = "".join(traceback.format_exception(exc))
        try:
            payload = pickle.dumps((exc, text))
            pickle.loads(payload)  # fails for an exception whose __init__ does not take its args
        except Exception:
            payload = pickle.dumps((RuntimeError(f"{type(exc).__name__}: {exc}"), text))
        failure.write(payload)
        failure.flush()
    finally:
        os._exit(code)


def _detect_forked(
    path: str, lines: Iterable[bytes], numbers: list[int], processes: int, config, out: TextIO, dump: Optional[TextIO]
) -> None:
    """Detect the ``n`` commits of ``lines``, whose lines have the ``numbers``,
    in ``processes`` processes. Process ``w`` takes commits ``n * w //
    processes`` up to ``n * (w + 1) // processes`` (from 0): the lines from its
    first commit's line up to the next share's. This process takes the first
    share and writes it straight out; each forked worker spools its lines to
    anonymous files made here, which are appended in share order. A worker's
    exception is raised here again once the commits before it are written;
    every worker is reaped however this ends."""
    import shutil
    import tempfile

    commits = len(numbers)
    bounds = [commits * w // processes for w in range(processes + 1)]
    starts = [numbers[bounds[w]] - 1 for w in range(processes)] + [None]  # each share's first line, from 0
    logger.info("detect: commits %s", ", ".join(
        f"{bounds[w] + 1}-{bounds[w + 1]} " + (f"in worker {w}" if w else "here") for w in range(processes)
    ))
    for stream in (out, dump, sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()  # or a child could write out what the parent buffered
    pids: dict[int, int] = {}  # worker -> process id, until reaped
    with contextlib.ExitStack() as stack:
        def spool(**mode):
            return stack.enter_context(tempfile.TemporaryFile(**mode))

        lines_spool = partial(spool, mode="w+", encoding="utf-8", newline="\n")
        files = {w: (lines_spool(), lines_spool() if dump is not None else None, spool()) for w in range(1, processes)}
        try:
            for w, (out_spool, dump_spool, failure) in files.items():
                pid = os.fork()
                if pid == 0:
                    _detect_worker(path, lines, starts[w], starts[w + 1], config, out_spool, dump_spool, failure)
                pids[w] = pid
            _detect_share(itertools.islice(lines, starts[1]), 1, config, out, dump)
            for w, (out_spool, dump_spool, failure) in files.items():
                code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(w), 0)[1])
                failure.seek(0)
                payload = failure.read()
                if code and not payload:
                    raise RuntimeError(
                        f"detect worker {w} (commits {bounds[w] + 1}-{bounds[w + 1]}) ended with exit code {code}"
                    )
                for spooled, stream in ((out_spool, out), (dump_spool, dump)):
                    if spooled is not None:
                        spooled.seek(0)
                        shutil.copyfileobj(spooled, stream)  # in chunks, however long the share
                if payload:
                    import pickle

                    exc, trace = pickle.loads(payload)
                    raise exc from _WorkerTraceback(trace)
        finally:
            if pids:
                import signal

                for pid in pids.values():
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def _detect_llm(record: CommitRecord, args, config, rate_limiter) -> tuple[list[str], object]:
    """Detection lines and request counters (an ``llm_backend.LlmStats``) of one commit."""
    from . import llm_backend
    from .taxonomy import detection_to_json, sort_key

    mode = llm_backend.PromptMode(args.prompt_mode.replace("-", "_"))
    stats = llm_backend.LlmStats()
    lines: list[str] = []
    # one prompt per build system present in the commit, as prompts are system-tailored
    for system in sorted({fd.build_system for fd in record.file_diffs}, key=lambda s: s.value):
        sub_record = record._replace(file_diffs=tuple(fd for fd in record.file_diffs if fd.build_system is system))
        detections = llm_backend.classify_commit(
            sub_record, llm_backend.PromptSpec(mode=mode, build_system=system), config, stats=stats,
            rate_limiter=rate_limiter, cache_dir=None if args.no_cache else args.cache_dir,
        )
        lines.extend(detection_to_json(record.commit_hash, det) for det in sorted(detections, key=sort_key))
    return lines, stats


def _cmd_detect(args) -> int:
    # checked before any input is read or request sent; NaN fails every
    # comparison, so it is out of range too
    for flag, in_range, takes in (
        ("move_similarity", 0 <= args.move_similarity <= 1, "0 to 1"),
        ("rename_similarity", 0 <= args.rename_similarity <= 1, "0 to 1"),
        ("parallelism", args.parallelism is None or args.parallelism >= 1, "1 or more"),
        ("temperature", 0 <= args.temperature <= 2, "0 to 2"),
        ("max_output_tokens", args.max_output_tokens >= 1, "1 or more"),
        ("timeout", 0 < args.timeout <= threading.TIMEOUT_MAX, f"seconds above 0, at most {threading.TIMEOUT_MAX:.0f}"),
        ("max_retries", args.max_retries >= 0, "0 or more"),
        # a slower rate sleeps beyond what time.sleep accepts
        ("rate", args.rate is None or args.rate == 0 or args.rate >= 1 / threading.TIMEOUT_MAX,
         f"0 (no limit) or at least one request per {threading.TIMEOUT_MAX:.0f} seconds"),
    ):
        if not in_range:
            raise UsageError(f"--{flag.replace('_', '-')} takes {takes}, not {getattr(args, flag)}")
    if args.backend == "llm":
        return _cmd_detect_llm(args)
    # imported before any fork, so no worker imports them again
    from .detectors import DetectorConfig

    config = DetectorConfig(move_similarity=args.move_similarity, rename_similarity=args.rename_similarity)
    with _commit_lines(args.commits) as (lines, numbers):
        cpus = _usable_cpus()
        processes = min(args.parallelism or cpus, cpus, len(numbers))
        dump_models = open(args.dump_models, "w", encoding="utf-8") if args.dump_models else contextlib.nullcontext()
        with dump_models as dump, _open_out(args.out) as out:
            if processes > 1 and hasattr(os, "fork"):
                _detect_forked(args.commits, lines, numbers, processes, config, out, dump)
            else:
                _detect_share(lines, 1, config, out, dump)
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
    parallelism = args.parallelism or 1  # a real endpoint sees no concurrency unless asked
    rate_limiter = llm_backend.RateLimiter(args.rate, burst=parallelism) if args.rate else None
    total = llm_backend.LlmStats()
    classify = partial(_detect_llm, args=args, config=config, rate_limiter=rate_limiter)
    try:
        with _commit_lines(args.commits) as (commit_lines, _), _open_out(args.out) as out:
            # decoded again as they are asked for, so few records are held at a time
            records = (record for _, record in json_lines(commit_lines, "commits", commit_from_json))
            # each call counts its own requests and only this thread adds them up
            for lines, stats in _threaded_map(classify, records, parallelism):
                out.writelines(line + "\n" for line in lines)
                total.add(stats)
    finally:  # the worker threads have ended: close the connections they kept open
        llm_backend.close_connections()
    logger.info(
        "requests %d, retries %d, reprompts %d, cache hits %d",
        total.requests, total.retries, total.reprompts, total.cache_hits,
    )
    return EXIT_OK


def _threaded_map(fn, items: Iterable, threads: int) -> Iterator:
    """``map(fn, items)``, on ``threads`` threads when more than one, which
    overlap their waits on the endpoint. Results keep input order. At most two
    calls per thread are submitted and not yet yielded, so ``items`` is read no
    further ahead; the calls left when it stops early are cancelled."""
    if threads == 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor

    pending: collections.deque = collections.deque()
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        for item in items:
            if len(pending) == 2 * threads:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)  # and wait for the calls already running


def _cmd_evaluate(args) -> int:
    from . import evaluation

    # whole files of bytes, so an error, a byte that is not UTF-8 too, names a line by its number in its file
    with open(args.gold, "rb") as gold_lines, open(args.pred, "rb") as pred_lines:
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
        debts = sorted(d.value for d in t.debts)
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
    try:
        args = _parse_args(argv)
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
    except (DataError, OSError, UnicodeDecodeError) as exc:  # a report file that is not UTF-8
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
