"""Benchmark of the bounded-catalan CLI, run the way a user runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload growth-table --seed 1 --seconds 60 --trace 0

Each command runs in its own child with cold caches (see harness.py),
one at a time: a closed loop with one client, the next command starting
only after the previous child has exited.  Every output is checked (see
checker.py).  The last line of stdout is one JSON object with the
metrics; the line before it records the environment.

``--trace 0`` prints the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones, plus the tracing overhead.
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
import time

from checker import check, load_reference, self_test
from harness import run_command
from tracer import PER_LAYER, pass_layers
from workloads import TABLE_M_LIST, WORKLOADS, pass_orders

SRC = "src"
PACKAGE = os.path.join(SRC, "bounded_catalan")
SETUP_REPEATS = 3
THREAD_VARIABLES = ("BOUNDED_CATALAN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def measure_setup() -> list[float]:
    """Wall seconds of a fresh interpreter importing the CLI, as a user pays it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC), env.get("PYTHONPATH")) if p
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import bounded_catalan.cli"],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - start)
    return samples


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    from bounded_catalan.cli import parse_m_list

    commit = None
    if os.path.isdir(".git"):  # a benchmark checkout is not a repository
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else None
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(PACKAGE, name), "rb") as f:
                digest.update(f.read())
    env = {name: os.environ.get(name) for name in THREAD_VARIABLES}
    width = env["BOUNDED_CATALAN_THREADS"]
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env": env,
        "table_width": int(width) if width else min(4, len(parse_m_list(TABLE_M_LIST))),
    }


class Run:
    """Passes of one workload, with their checks."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.orders = pass_orders(workload, seed)
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.passes: dict[bool, list[dict]] = {False: [], True: []}
        self.command_s: dict[str, list[float]] = {}

    def one_pass(self, trace: bool) -> None:
        results = [run_command(argv, trace) for argv in next(self.orders)]
        for r in results:
            self.attempted += 1
            if not trace:
                self.command_s.setdefault(" ".join(r.argv), []).append(r.wall_s)
            problems = check(r.argv, r.code, r.stdout, self.reference)
            if trace and r.layers is None:
                problems.append("traced child returned no spans")
            if problems:
                self.failed += 1
                print(f"FAILED {' '.join(r.argv)}: {'; '.join(problems)}", file=sys.stderr)
        record = {
            "pass_s": sum(r.wall_s for r in results),
            "cpu_s": sum(r.cpu_s for r in results),
            "peak_rss_mb": max(r.peak_rss_mb for r in results),
        }
        if trace and all(r.layers is not None for r in results):
            record["layers"] = pass_layers([r.layers for r in results])
        self.passes[trace].append(record)


def measure(run: Run, seconds: float, trace: bool) -> None:
    """Run whole passes until the next one would end after ``seconds``.

    Untraced runs make only untraced passes.  Traced runs alternate an
    untraced and a traced pass, at least one of each, so the overhead is
    measured on the same machine state.
    """
    start = time.perf_counter()
    kinds = [False, True] if trace else [False]
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        run.one_pass(kind)
        i += 1
        nxt = kinds[i % len(kinds)]
        estimate = statistics.median(p["pass_s"] for p in run.passes[nxt] or run.passes[kind])
        done = all(run.passes[k] for k in kinds)
        if done and time.perf_counter() - start + estimate > seconds:
            return


def end_to_end(run: Run, setup: list[float]) -> tuple[dict, dict]:
    passes = run.passes[False]
    walls = [p["pass_s"] for p in passes]
    metrics = {
        "pass_s": {"value": statistics.median(walls), "unit": "s"},
        # The tail percentile that leaves ten passes beyond it needs far
        # more passes than a run makes (about twenty at most), so the
        # slowest pass, the 100th percentile, stands in for it.
        "pass_s.tail": {"value": max(walls), "unit": "s"},
        "cpu_s": {"value": statistics.median(p["cpu_s"] for p in passes), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(p["peak_rss_mb"] for p in passes),
            "unit": "MB",
        },
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    info = {
        "passes": len(passes),
        "pass_s.tail_percentile": 100,
        "pass_s_samples": walls,
        "command_median_s": {k: statistics.median(v) for k, v in run.command_s.items()},
    }
    return metrics, info


def per_layer(run: Run) -> tuple[dict, dict]:
    traced = [p for p in run.passes[True] if "layers" in p]
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_frac":
            continue
        # Without a complete traced pass the run already counts failures.
        values = [p["layers"][name] for p in traced] or [0]
        metrics[name] = {"value": statistics.median_low(values), "unit": unit}
    plain = statistics.median(p["pass_s"] for p in run.passes[False])
    with_trace = statistics.median(p["pass_s"] for p in run.passes[True])
    metrics["trace.overhead_frac"] = {
        "value": with_trace / plain - 1.0,
        "unit": PER_LAYER["trace.overhead_frac"],
    }
    info = {"untraced_passes": len(run.passes[False]), "traced_passes": len(run.passes[True])}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print(f"error: {PACKAGE}/cli.py not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(SRC))

    setup = measure_setup()
    import bounded_catalan.cli  # noqa: F401  imported once; commands run only in children
    reference = load_reference()
    failures = self_test(reference)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1

    run = Run(args.workload, args.seed, reference)
    measure(run, args.seconds, bool(args.trace))
    metrics, info = per_layer(run) if args.trace else end_to_end(run, setup)
    info.update(
        environment(args.workload, args.seed),
        run_seconds=args.seconds,
        commands_per_pass=len(WORKLOADS[args.workload]),
        attempted=run.attempted,
        failed=run.failed,
        failed_frac=run.failed / run.attempted,
        setup_s_samples=setup,
    )
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
