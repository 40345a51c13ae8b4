"""Stage server: runs buildref CLI stages, each in a forked child, and times them.

Usage: python3 stages.py SRC_DIR

Reads one JSON object per line from standard input, {"argv": [...]}, and
answers each with one JSON line on standard output: {"exit", "seconds",
"rss_mb"}. Every stage runs in a child forked from this process, which has
imported only the few standard-library modules it needs itself, so the child
starts like a fresh `buildref` process past the interpreter start-up. The
child times importing `buildref.cli` from SRC_DIR and calling
`buildref.cli.run(argv)`, the function behind the `buildref` command, so
every sample pays buildref's imports as the command does; rss_mb is the
child's peak resident memory. A child that runs past STAGE_TIMEOUT seconds is
killed by its own alarm. The server ends at the end of its input.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import traceback

STAGE_TIMEOUT = 150


def _child(argv: list[str], write_fd: int) -> None:
    signal.alarm(STAGE_TIMEOUT)
    started = time.perf_counter()
    try:
        from buildref.cli import run

        code = run(argv)
    except BaseException:  # the CLI would die with a traceback: report exit 1
        traceback.print_exc()
        code = 1
    seconds = time.perf_counter() - started
    result = {"exit": code, "seconds": seconds}
    sys.stdout.flush()
    sys.stderr.flush()
    os.write(write_fd, json.dumps(result).encode("utf-8"))
    os._exit(0)


def main(argv: list[str]) -> None:
    (src,) = argv
    sys.path.insert(0, src)

    for line in sys.stdin:
        if not line.strip():
            continue
        stage_argv = json.loads(line)["argv"]
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            _child(stage_argv, write_fd)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            raw = pipe.read()
        _, status, usage = os.wait4(pid, 0)
        result = json.loads(raw) if raw else {"exit": -1, "seconds": 0.0}
        if os.waitstatus_to_exitcode(status) != 0:
            result["exit"] = os.waitstatus_to_exitcode(status)
        result["rss_mb"] = usage.ru_maxrss / 1024
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
