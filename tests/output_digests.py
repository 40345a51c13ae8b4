"""sha256 digests of what the pipeline writes on the benchmark's static workloads.

    PYTHONPATH=src python tests/output_digests.py [seed ...]

For the history and large_files workloads at each seed (1 when none is
given), the inputs are built with ``bench/workloads.set_up`` in a temporary
directory. Then ``buildref.cli.run`` mines the repository, runs static
detection with ``--dump-models`` at the default parallelism and at
``--parallelism 1``, and evaluates the first detection against
``gold.jsonl``. The script prints one JSON object, keyed by workload and
seed, of each output file's sha256. Run it once with each checkout's
``src`` on ``PYTHONPATH`` and diff the two outputs: a change that keeps the
outputs prints the same object.
"""

import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import workloads  # noqa: E402
from buildref.cli import run  # noqa: E402

WORKLOADS = ("history", "large_files")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digests(name: str, seed: int) -> dict[str, str]:
    """Each output file's sha256, by file name, for one workload and seed."""
    with tempfile.TemporaryDirectory(prefix="buildref-digests-") as tmp:
        data, out = os.path.join(tmp, "data"), os.path.join(tmp, "out")
        os.makedirs(out)
        workloads.set_up(name, seed, data)
        path = {f: os.path.join(out, f) for f in (
            "commits.jsonl", "detections.jsonl", "models.json", "detections_p1.jsonl", "models_p1.json",
            "report.json",
        )}
        commands = [
            ["mine", "--repo", os.path.join(data, workloads.REPO_DIR), "--out", path["commits.jsonl"]],
            ["detect", "--commits", path["commits.jsonl"], "--out", path["detections.jsonl"],
             "--dump-models", path["models.json"]],
            ["detect", "--commits", path["commits.jsonl"], "--out", path["detections_p1.jsonl"],
             "--dump-models", path["models_p1.json"], "--parallelism", "1"],
            ["evaluate", "--gold", os.path.join(data, "gold.jsonl"), "--pred", path["detections.jsonl"],
             "--out", path["report.json"]],
        ]
        for argv in commands:
            code = run(argv)
            if code != 0:
                raise SystemExit(f"{name} seed {seed}: {' '.join(argv[:1])} exited {code}")
        return {f: _sha256(p) for f, p in path.items()}


if __name__ == "__main__":
    seeds = [int(arg) for arg in sys.argv[1:]] or [1]
    print(json.dumps({f"{name} seed {seed}": digests(name, seed) for name in WORKLOADS for seed in seeds},
                     indent=2, sort_keys=True))
