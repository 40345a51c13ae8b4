"""Traced memory of static detection, commit by commit, on the benchmark's static workloads.

    PYTHONPATH=src python tests/peak_memory.py [seed ...]

For the history and large_files workloads at each seed (1 when none is
given), the inputs are built with ``bench/workloads.set_up`` in a temporary
directory and ``mining.mine_commits`` mines them. For each mined commit the
script prints the ``tracemalloc`` peak of ``CommitContext.from_commit`` plus
``detect_all``, then, for each model index of the commit, the bytes each of
its built parts holds beyond what the model itself holds (containers and the
strings only they reach, counted with ``sys.getsizeof``). Run it once with
each checkout's ``src`` on ``PYTHONPATH`` to compare two versions.
"""

import os
import sys
import tempfile
import tracemalloc

from collections.abc import Mapping
from enum import Enum

from output_digests import WORKLOADS, workloads  # output_digests puts bench/ on sys.path
from buildref.detectors import CommitContext, detect_all
from buildref.mining import mine_commits

_CONTAINERS = (tuple, list, set, frozenset)


def _walk(root, seen: set[int]) -> int:
    """Bytes of the objects reachable from `root` through containers and not
    in `seen`, which gains their ids. Enum members are shared, so skipped."""
    total = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, Enum):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, Mapping):  # a dict, or a read-only view of one
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, _CONTAINERS):
            stack.extend(obj)
    return total


def index_bytes(index) -> dict[str, int]:
    """Bytes each built part of a `_ModelIndex` holds beyond its model."""
    seen: set[int] = set()
    _walk(index.model, seen)
    return {part: _walk(value, seen) for part, value in sorted(vars(index).items()) if part != "model"}


def report(name: str, seed: int) -> None:
    with tempfile.TemporaryDirectory(prefix="buildref-memory-") as tmp:
        workloads.set_up(name, seed, tmp)
        commits = list(mine_commits(os.path.join(tmp, workloads.REPO_DIR)))
    for commit in commits:
        tracemalloc.start()
        ctx = CommitContext.from_commit(commit)
        detect_all(ctx)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{name} seed {seed} {commit.commit_hash[:10]}: peak {peak / 1024:,.1f} KB")
        for side, indexes in (("before", ctx.before_index), ("after", ctx.after_index)):
            for path, index in sorted(indexes.items()):
                parts = ", ".join(f"{part} {size:,} B" for part, size in index_bytes(index).items())
                print(f"  {side} {path} ({len(index.model.elements):,} elements): {parts or 'nothing built'}")


if __name__ == "__main__":
    for seed in [int(arg) for arg in sys.argv[1:]] or [1]:
        for name in WORKLOADS:
            report(name, seed)
