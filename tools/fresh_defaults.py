"""Fresh-process timings of the eight default runs, alternating a parent and a change tree.

    python3 tools/fresh_defaults.py --parent PARENT_TREE --change CHANGE_TREE --pairs 3 \
        [--experiments decohere rates] [--threads 2] [--out fresh.json]

Each run is one ``python -m modesim.cli`` at an experiment's default config
(``experiment=<name>`` and nothing else), in a fresh interpreter that imports
modesim from ``<tree>/src``, with the BLAS and OpenMP pools pinned to one
thread as perfbench pins them.  Over each pair every experiment runs once per
side, the side that runs first alternating from pair to pair.  For each run it
records:

* the wall time, and that time scaled by perfbench's reference kernel
  (``perfbench/worker.py``'s ``reference``, timed in this process just before
  the run) to a host on which the kernel takes ``perfbench/run.py``'s
  ``REFERENCE_S``;
* the child's own peak RSS, ``ru_maxrss`` from ``os.wait4`` (``RUSAGE_CHILDREN``
  would give the largest over every child so far);
* the sha256 of every file the run wrote, its manifest included.

The JSON it writes (to ``--out``, or standard output) also names the host:
``nproc``, the CPU affinity that ``decohere``'s default thread count reads,
and the Python, numpy and scipy versions.  It exits 1 if any run fails.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.dont_write_bytecode = True  # perfbench is imported, never written
sys.path.insert(0, str(PERFBENCH))
import run as perfbench_run  # noqa: E402
import worker  # noqa: E402

EXPERIMENTS = ("modes", "rates", "decohere", "bell", "chsh-scan", "delays", "fig2", "bpm-run")


def one_run(tree: Path, experiment: str, threads: int | None, scratch: Path) -> dict:
    """One fresh ``python -m modesim.cli`` of an experiment's default config in tree."""
    config, out = scratch / f"{experiment}.cfg", scratch / experiment
    config.write_text(f"experiment={experiment}\n", encoding="utf-8")
    command = [sys.executable, "-m", "modesim.cli", "--config", str(config), "--out", str(out),
               "--quiet"] + (["--threads", str(threads)] if threads is not None else [])
    env = dict(os.environ, **perfbench_run.PINNED, PYTHONPATH=str(tree / "src"))
    reference = worker.reference()
    start = time.perf_counter()
    child = subprocess.Popen(command, cwd=scratch, env=env)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # so Popen does not wait for it again
    outputs = {}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            outputs[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            path.unlink()
        out.rmdir()
    config.unlink()
    return {"experiment": experiment, "exit": child.returncode, "wall_s": wall,
            "reference_s": reference, "scaled_wall_s": wall * perfbench_run.REFERENCE_S / reference,
            "maxrss_mib": usage.ru_maxrss / 1024, "sha256": outputs}  # ru_maxrss: KiB on Linux


def summary(runs: list[dict], experiments: list[str]) -> dict:
    """Per experiment and side: median scaled wall time and peak RSS, and whether outputs agree."""
    result = {}
    for experiment in experiments:
        mine = [r for r in runs if r["experiment"] == experiment]
        result[experiment] = {side: {
            "scaled_wall_s": statistics.median(r["scaled_wall_s"] for r in mine if r["side"] == side),
            "maxrss_mib": statistics.median(r["maxrss_mib"] for r in mine if r["side"] == side),
        } for side in ("parent", "change")}
        result[experiment]["same_sha256"] = len({json.dumps(r["sha256"]) for r in mine}) == 1
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="parent source tree")
    parser.add_argument("--change", required=True, type=Path, help="change source tree")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--experiments", nargs="+", choices=EXPERIMENTS, default=list(EXPERIMENTS))
    parser.add_argument("--threads", type=int, default=None,
                        help="passed to the CLI; default: the CLI's own default")
    parser.add_argument("--out", type=Path, default=None, help="JSON file (default: stdout)")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    worker.reference()  # its first call runs cold
    with tempfile.TemporaryDirectory(prefix="fresh_defaults_") as scratch:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for experiment in args.experiments:
                for side in order:
                    record = one_run(trees[side], experiment, args.threads, Path(scratch))
                    runs.append({"pair": pair, "side": side, **record})
    import numpy
    import scipy
    report = {
        "command": "python3 tools/fresh_defaults.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "trees": {side: str(tree) for side, tree in trees.items()},
        "threads": args.threads,
        "host": {"nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
                 "python": platform.python_version(), "numpy": numpy.__version__,
                 "scipy": scipy.__version__},
        "pairs": args.pairs,
        "summary": summary(runs, args.experiments),
        "runs": runs,
    }
    text = json.dumps(report, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
