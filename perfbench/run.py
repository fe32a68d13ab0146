"""modeiso benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload grow --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's `src/`.  An untraced run cycles through the
workload's operations, all on the run's seed, until the next one would
overrun `--seconds` (always at least one pass over them), and times
set-up in a fresh interpreter before each, inside those seconds.  A
traced run makes one pass.  The run checks every operation's outputs,
and prints a JSON detail record (environment, every operation) followed
by the result line: `{"correct", "attempted", "failed", "metrics"}`.
With `--trace 0` the metrics are the end-to-end ones, measured untraced;
with `--trace 1` they are the per-layer ones, from spans around each
layer.  Both sets of names and units are read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# one thread everywhere: the workloads are single-process, single-thread
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# fewest fresh-interpreter set-up samples in an untraced run; one is taken
# before every operation, so the samples span the whole run, and any still
# missing after the last operation
SETUP_MIN_SAMPLES = 5

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import modeiso
from modeiso.config import load_config
for path in sys.argv[1:]:
    load_config(path)
print(time.perf_counter() - start)
"""


def check_metric_name(name: str) -> str:
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"metric name {name!r} is not 1-64 characters of "
                         "[A-Za-z0-9_.-] starting with a letter or digit")
    return name


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics declared in
    BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)[kind]
    return {check_metric_name(m["name"]): m["unit"] for m in declared}


def metric_block(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def measure_setup(configs: list[str]) -> float:
    """Import `modeiso` and parse the workload's configs in a fresh
    interpreter; returns the seconds that took."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *configs],
                          cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"], capture_output=True,
                             text=True, timeout=30)
        lines = top.stdout.split()
        git_rev = (lines[1] if top.returncode == 0 and len(lines) == 2
                   and os.path.samefile(lines[0], ROOT) else None)
    except (OSError, subprocess.SubprocessError):
        git_rev = None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "modeiso")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_rev": git_rev, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor(), "seed": seed}


def layer_metrics(tracer, pass_s: float) -> dict[str, float]:
    """Layer numbers of one traced pass from the tracer's totals."""
    s, total, c = tracer.self_s, tracer.total_s, tracer.counts

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    values = {"trace.pass_s": pass_s,
              "cli.self_s": s["cli"],
              "config.load_s": s["config.load"],
              "mesh.build_s": s["mesh.build"],
              "mesh.vertices": c["mesh.vertices"],
              "fem.assemble_s": s["fem.assemble"],
              "fem.nnz": c["fem.nnz"],
              "eigensolver.eigs_s": s["eigensolver.eigs"],
              "eigensolver.pairs": c["eigensolver.pairs"],
              "eigensolver.errors": c["eigensolver.errors"],
              "eigensolver.solves_per_pair": ratio(c["solvers.eig.solves"],
                                                   c["eigensolver.pairs"]),
              "simulator.simulate_s": s["simulator.simulate"],
              "simulator.steps": c["simulator.steps"],
              "simulator.step_us": ratio(total["simulator.simulate"],
                                         c["simulator.steps"], 1e6),
              "simulator.t_final": c["simulator.t_final"],
              "meshio.write_s": s["meshio.write"],
              "meshio.files": c["meshio.files"],
              "meshio.bytes": c["meshio.bytes"],
              "meshio.read_s": s["meshio.read"],
              "isolation.isolate_s": s["isolation.isolate"],
              "isolation.walk_len": c["isolation.walk_len"],
              "pattern_metrics.match_s": s["pattern_metrics.match"],
              "pattern_metrics.corr_mean": ratio(
                  c["pattern_metrics.corr_sum"], c["pattern_metrics.matches"]),
              }
    for ctx in ("eig", "sim"):
        solves = c[f"solvers.{ctx}.solves"]
        solve_s = s[f"solvers.{ctx}.solve"]
        values[f"solvers.{ctx}.factor_s"] = s[f"solvers.{ctx}.factor"]
        values[f"solvers.{ctx}.solves"] = solves
        values[f"solvers.{ctx}.solve_s"] = solve_s
        values[f"solvers.{ctx}.solve_us"] = ratio(solve_s, solves, 1e6)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "modeiso", "__init__.py")):
        print(f"no modeiso package under {SRC}: run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    import workloads  # imports modeiso, so only after the path is set

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    cases = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    configs = sorted({case.config for case in cases})
    setup: list[float] = []
    ops: list = []
    walls: dict[str, list[float]] = {case.name: [] for case in cases}
    start = time.perf_counter()
    for i in itertools.count():
        case = cases[i % len(cases)]
        # a traced run is one pass; an untraced one cycles through the
        # cases until the next operation, judged by the mean wall time of
        # its case so far, would overrun --seconds
        if i >= len(cases) and (tracer is not None or (
                time.perf_counter() - start
                + statistics.fmean(walls[case.name]) > args.seconds)):
            break
        op_start = time.perf_counter()
        if tracer is None:
            setup.append(measure_setup(configs))
        ops.append(workloads.run_case(args.workload, case, args.seed, tracer))
        walls[case.name].append(time.perf_counter() - op_start)
    while tracer is None and len(setup) < SETUP_MIN_SAMPLES:
        setup.append(measure_setup(configs))

    # every operation of a case repeats the same work on the run's seed;
    # a pass is the sum over cases of each case's mean time.  The mean,
    # not the median: on a shared host the speed can swing by +-30% within
    # a few seconds, and averaging every repeat smooths more of that than
    # picking the middle one of two or three
    case_times = {case.name: [op.seconds for op in ops if op.case == case.name
                              and math.isfinite(op.seconds)]
                  for case in cases}
    pass_s = sum(statistics.fmean(t) for t in case_times.values() if t)
    if tracer is None:
        metrics = metric_block({"pass_s": pass_s,
                                "setup_s": statistics.median(setup)},
                               declared_metrics("end_to_end"))
    else:
        metrics = metric_block(layer_metrics(tracer, pass_s),
                               declared_metrics("per_layer"))
    failed = sum(op.failed for op in ops)
    detail = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds,
              "environment": environment(args.seed),
              "setup_samples": setup,
              "operations": [{"case": op.case, "seed": op.seed,
                              "seconds": op.seconds, "ok": not op.failed,
                              "problems": op.problems, **op.detail}
                             for op in ops]}
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
