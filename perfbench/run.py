"""modesim benchmark: run one workload through the CLI entry point and report.

    python3 perfbench/run.py --workload decohere_long --seed 1 --seconds 20 --trace 0

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the lines before it
give every metric with its unit, the named rate of the workload, failed_frac
and the machine.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

ROOT = HERE.parent
SETUP_PROBES = 6  # fresh interpreters timed for setup_s, besides the worker itself
#: BLAS and OpenMP pools pinned to one thread: the single-threaded baseline.
PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                 "NUMEXPR_NUM_THREADS")}
TOP_LEVEL_TOLERANCE = 0.02  # share of a traced pass the cli.run spans may leave out
BUDGET_S = 170  # a run must end within 180 s
REFERENCE_S = 0.1  # nominal time of worker.reference; a constant, see end_to_end


def _child(args: list[str], deadline: float) -> str:
    env = dict(os.environ, **PINNED)
    env.pop("PYTHONPATH", None)
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1))
    if done.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {done.returncode}:\n{done.stderr[-4000:]}")
    return done.stdout.strip().splitlines()[-1]


def _summary(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"lower quartile {q1:.4f}, median {q2:.4f}, upper quartile {q3:.4f} of {len(values)}"


def end_to_end(workload: str, setup: list[dict], measured: list[dict], report: dict) -> dict:
    """Times in seconds of a host on which ``worker.reference`` takes REFERENCE_S.

    wall_s is the median pass time times REFERENCE_S over the mean reference
    time of those passes; setup_s is the median of the set-up times, each
    scaled by the reference time of its own process (see README).
    """
    plain = [p for p in measured if p["wall"] is not None]
    walls = [p["wall"] for p in plain]
    references = [p["reference"] for p in plain]
    wall = statistics.median(walls) * REFERENCE_S / statistics.mean(references)
    setup_s = statistics.median(s["setup_s"] * REFERENCE_S / s["setup_reference"] for s in setup)
    name, key, scale, unit = workloads.RATE[workload]
    rate = workloads.stated_work(workload)[key] * scale / wall
    print(f"setup_s {setup_s:.4f} s; as timed: {_summary([s['setup_s'] for s in setup])} "
          f"fresh interpreters")
    print(f"wall_s {wall:.4f} s; as timed: {_summary(walls)} passes; "
          f"reference: {_summary(references)}, nominal {REFERENCE_S} s")
    print(f"throughput {rate:.4f} units/s, which is {name} {rate:.4f} {unit}")
    print(f"peak_rss_mb {report['peak_rss_mb']:.1f} MB")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "throughput": {"value": rate, "unit": "units/s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(measured: list[dict], report: dict) -> tuple[dict, list[str]]:
    traced = [p for p in measured if p["traced"] and p["wall"] is not None]
    plain = [p["wall"] for p in measured if not p["traced"] and p["wall"] is not None]
    problems = []
    for p in traced:
        share = p["top_level_s"] / p["wall"]
        if abs(share - 1.0) > TOP_LEVEL_TOLERANCE:
            problems.append(f"cli.run spans cover {share:.4f} of a traced pass")
    layers = report["layers"]
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        unit = ("count" if name.endswith((".calls", ".cells", ".steps")) else
                "bytes" if name.endswith(".bytes") else
                "ns" if name.endswith("ns_per_cell") else "s")
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    overhead = statistics.median(p["wall"] for p in traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    shares = [p["top_level_s"] / p["wall"] for p in traced]
    print(f"cli.run spans cover {min(shares):.5f}..{max(shares):.5f} of each traced pass; "
          f"spans in {report['trace_file']}")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "modesim" / "__init__.py").is_file():
        print(f"no modesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    base = [str(ROOT), args.workload, str(args.seed)]
    work_dir = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    deadline = time.monotonic() + BUDGET_S
    try:
        setup = [json.loads(_child(["setup", *base], deadline)) for _ in range(SETUP_PROBES)]
        report = json.loads(_child(["run", *base, str(args.seconds), str(args.trace), str(work_dir)],
                                   deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    passes = report["passes"]
    failed = [p for p in passes if p["problems"]]
    measured = [p for p in passes if not p["warmup"]]
    env = report["env"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes "
          f"({len(measured)} timed after 1 warm-up), failed_frac {len(failed) / len(passes):g}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for p in failed:
        print("failed pass: " + "; ".join(p["problems"]).replace("\n", " | "))
    problems = []
    if args.trace:
        metrics, problems = per_layer(measured, report)
    else:
        metrics = end_to_end(args.workload, [report, *setup], measured, report)
    for problem in problems:
        print("trace check failed: " + problem)
    print(json.dumps({"correct": not failed and not problems, "attempted": len(passes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
