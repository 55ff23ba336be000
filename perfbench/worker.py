"""One benchmark process: set up modesim, then run checked passes of a workload.

    worker.py setup <root> <workload> <seed>
        prints the seconds a fresh interpreter takes to import modesim and
        parse and validate the workload's configs, and the reference time;
    worker.py run <root> <workload> <seed> <seconds> <trace> <work_dir>
        runs one warm-up pass and then timed passes for <seconds>, untraced,
        or alternating untraced and traced when <trace> is 1, and prints one
        JSON line with every pass, the set-up time and the peak RSS.

run.py starts this script; it is not meant to be run by hand.
"""
import time
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from pathlib import Path

import workloads

MIN_PASSES = 3  # timed passes of each kind, however short --seconds is


def reference() -> float:
    """Seconds this host takes for a fixed mix of interpreter and numpy work.

    run.py divides times by it, so that a host running at a different speed
    between runs does not move the metrics.  It is the benchmark's own code:
    no change to modesim moves it.
    """
    import numpy as np  # not at the top: setup_s includes numpy's import

    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i
    values = np.linspace(0.0, 1.0, 65_536)
    for _ in range(120):
        values = np.sqrt(values + 1.0)
    spectrum = values.astype(complex)
    for _ in range(16):
        spectrum = np.fft.fft(spectrum) / 256.0
    return time.perf_counter() - start


def load(root: Path, workload: str, seed: int):
    """Import modesim from the checkout, parse and validate; returns the set-up time."""
    start = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    from modesim import cli
    texts = workloads.configs(workload, seed)
    configs = {key: cli.parse_config_text(text) for key, text in texts.items()}
    for key, config in configs.items():
        errors = [d for d in cli.validate(config) if d.severity == "error"]
        if errors:
            raise SystemExit(f"{workload}/{key}: config rejected: {errors}")
    elapsed = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"imported modesim from {cli.__file__}, not from the checkout")
    return cli, texts, configs, elapsed


def warm_reference() -> float:
    """The reference time in a fresh process, after a first call that runs cold."""
    reference()
    return reference()


def run(root: Path, workload: str, seed: int, seconds: float, traced: bool, work_dir: Path) -> dict:
    cli, texts, configs, setup_s = load(root, workload, seed)
    setup_reference = warm_reference()
    import numpy
    import scipy

    import checks
    import spans

    outs = {key: work_dir / key for key in texts}
    stated = workloads.stated_work(workload)
    first: list = []  # digests and check verdict of the first pass that ran
    passes, layers, span_log = [], [], []

    def one_pass(trace_on: bool) -> dict:
        for out in outs.values():
            shutil.rmtree(out, ignore_errors=True)
        recorder = spans.Recorder(spans=trace_on)
        record = {"traced": trace_on, "wall": None, "problems": [], "reference": reference()}
        try:
            with recorder.installed():
                pass_configs = configs
                if trace_on:  # spans for the cli layer's set-up functions
                    pass_configs = {k: cli.parse_config_text(t) for k, t in texts.items()}
                    for config in pass_configs.values():
                        cli.validate(config)
                start = time.perf_counter()
                for key, config in pass_configs.items():
                    cli.run(config, outs[key], quiet=True)
                record["wall"] = time.perf_counter() - start
        except Exception:  # a pass that raises is a failed pass; keep measuring
            record["problems"].append(traceback.format_exc(limit=4))
            return record
        work = recorder.work()
        record["work"] = work
        record["problems"] += [f"work {key}={work.get(key)} differs from the stated {value}"
                               for key, value in stated.items() if work.get(key) != value]
        record["problems"] += checks.finite_problems(outs)
        digests = checks.digests(outs)
        if not first:
            first.extend([digests, checks.CHECKS[workload](outs, recorder.captured)])
        elif digests != first[0]:
            record["problems"].append("outputs differ from the first pass with the same seed")
        record["problems"] += first[1]
        if trace_on:
            metrics = spans.layer_metrics(recorder)
            layers.append(metrics)
            record["top_level_s"] = recorder.top_level_seconds("cli.run")
            origin = recorder.spans[0][1] if recorder.spans else 0.0
            span_log.append({"wall": record["wall"], "spans": [
                [name, begin - origin, end - origin, parent]
                for name, begin, end, parent in recorder.spans]})
        return record

    passes.append(dict(one_pass(False), warmup=True))
    deadline = time.perf_counter() + seconds
    counts = {False: 0, True: 0}
    while True:
        trace_on = traced and counts[False] > counts[True]
        passes.append(dict(one_pass(trace_on), warmup=False))
        counts[trace_on] += 1
        if (time.perf_counter() >= deadline and counts[False] >= MIN_PASSES
                and (not traced or counts[True] >= MIN_PASSES)):
            break

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    result = {
        "setup_s": setup_s,
        "setup_reference": setup_reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "env": env,
        "passes": passes,
        "layers": layers,
    }
    if traced:
        trace_dir = root / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps({"workload": workload, "seed": seed, "env": env,
                                          "span_fields": ["name", "start_s", "end_s", "parent"],
                                          "passes": span_log}))
        result["trace_file"] = str(trace_file.relative_to(root))
    return result


def main(argv: list[str]) -> int:
    mode, root, workload, seed = argv[0], Path(argv[1]), argv[2], int(argv[3])
    if mode == "setup":
        setup_s = load(root, workload, seed)[3]
        print(json.dumps({"setup_s": setup_s, "setup_reference": warm_reference()}))
        return 0
    seconds, traced, work_dir = float(argv[4]), argv[5] == "1", Path(argv[6])
    print(json.dumps(run(root, workload, seed, seconds, traced, work_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
