"""The benchmark's workloads: which operations a pass runs, and how one
operation is timed and checked.

Every operation goes through the package the way its users call it:
`modeiso.cli.main` for `pipeline` and `eigs`, and the public functions
for the geometry chain.  Only the call is timed; reading outputs back and
checking them happens after the clock stops.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import time
from dataclasses import dataclass, field

from modeiso import cli, fem, meshio
from modeiso.config import load_config

import checks

OUT_DIR = ".perfbench_out"


@dataclass(frozen=True)
class Case:
    name: str
    command: str                  # "pipeline", "eigs" or "geometry"
    config: str                   # path from the repository root
    expected: tuple[int, int] | None = None   # geometry: (vertices, cells)
    reference_rtol: float = checks.REFERENCE_RTOL   # eigs: vs analytic


@dataclass
class OpResult:
    case: str
    seed: int
    seconds: float
    problems: list[str]
    detail: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _cfg(name: str) -> str:
    return f"perfbench/configs/{name}.yaml"


WORKLOADS: dict[str, list[Case]] = {
    # pipeline on the three shipped geometries; the simulator and its
    # warm-started PCG solves do almost all the work
    "grow": [
        Case("square_mode1", "pipeline", _cfg("grow_square_mode1")),
        Case("sphere_l1", "pipeline", _cfg("grow_sphere_l1")),
        Case("dumbbell_mode1", "pipeline", _cfg("grow_dumbbell_mode1")),
    ],
    # eigs on meshes of 10k-20k vertices; the eigensolver and its shifted
    # solves do the work, and the two rectangles sit either side of
    # solvers.DIRECT_ORDER_THRESHOLD
    "spectrum": [
        Case("icosphere5", "eigs", _cfg("spectrum_icosphere5")),
        Case("dumbbell5", "eigs", _cfg("spectrum_dumbbell5")),
        Case("tube3", "eigs", _cfg("spectrum_tube3")),
        Case("rect140", "eigs", _cfg("spectrum_rect140")),
        Case("rect200x100", "eigs", _cfg("spectrum_rect200x100")),
    ],
    # mesh generation, deformation, assembly and VTK I/O on large meshes
    "geometry": [
        Case("icosphere6_dumbbell", "geometry",
             _cfg("geometry_icosphere6_dumbbell"), (40962, 81920)),
        Case("tube5", "geometry", _cfg("geometry_tube5"), (74242, 148480)),
        Case("disk7_ellipse", "geometry", _cfg("geometry_disk7_ellipse"),
             (49537, 98304)),
    ],
    # not listed in BENCHMARK.json: the shipped configs exactly as a user
    # runs them, plus the config-default eigs count; three of the four
    # fail today, and one pass takes over two minutes
    "shipped": [
        Case("square_mode1", "pipeline", "configs/square_mode1.yaml"),
        Case("sphere_l2", "pipeline", "configs/sphere_l2.yaml"),
        Case("dumbbell_explicit", "pipeline",
             "configs/dumbbell_explicit.yaml"),
        # n = 642: the l = 3 level is 2.05% off its analytic value
        Case("icosphere3", "eigs", _cfg("spectrum_icosphere3"),
             reference_rtol=0.03),
    ],
}


def _timed(tracer, root: str, call):
    """Run `call` under the tracer's root span; returns (seconds, value)."""
    if tracer is not None:
        tracer.start(root)
    start = time.perf_counter()
    try:
        value = call()
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.stop()
    return seconds, value


def _pipeline(case: Case, seed: int, out: str, tracer):
    argv = ["--config", case.config, "--seed", str(seed), "--out", out]
    seconds, code = _timed(tracer, "cli", lambda: cli.main(["pipeline"]
                                                           + argv))
    isolation = checks.read_json(os.path.join(out, "isolation.json")) or {}
    match_path = os.path.join(out, "match.json")
    pipeline_match = checks.read_json(match_path)
    match = None
    if os.path.exists(os.path.join(out, "final_state.vtk")) \
            and cli.main(["match"] + argv) == 0:
        match = checks.read_json(match_path)
    threshold = load_config(case.config).match["threshold"]
    problems = checks.grow_problems(code, isolation, pipeline_match, match,
                                    threshold)
    outcome = checks.read_json(os.path.join(out, "outcome.json")) or {}
    detail = {"correlation": match and match["correlation"],
              "status": outcome.get("status"),
              "t_final": outcome.get("elapsed")}
    return seconds, problems, detail


def _eigs(case: Case, seed: int, out: str, tracer):
    argv = ["eigs", "--config", case.config, "--seed", str(seed),
            "--out", out]
    seconds, code = _timed(tracer, "cli", lambda: cli.main(argv))
    problems = checks.spectrum_problems(code, out, load_config(case.config),
                                        case.reference_rtol)
    return seconds, problems, {}


def _geometry(case: Case, seed: int, out: str, tracer):
    config = load_config(case.config)
    path = os.path.join(out, "mesh.vtk")

    def chain():
        mesh = config.mesh.build()
        M = fem.assemble_mass(mesh)
        A = fem.assemble_stiffness(mesh)
        meshio.write_vtk(mesh, {}, path)
        roundtrip, _ = meshio.read_vtk(path)
        return mesh, M, A, roundtrip

    seconds, (mesh, M, A, roundtrip) = _timed(tracer, "harness", chain)
    problems = checks.geometry_problems(mesh, M, A, roundtrip, case.expected)
    return seconds, problems, {"vertices": mesh.n_vertices}


_RUNNERS = {"pipeline": _pipeline, "eigs": _eigs, "geometry": _geometry}


def run_case(workload: str, case: Case, seed: int, tracer=None) -> OpResult:
    """One operation: timed call, then its correctness rule.

    An exception is the operation's failure, never the pass's: it is
    recorded as a problem and the pass goes on.
    """
    out = os.path.join(OUT_DIR, workload, case.name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    log = io.StringIO()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            seconds, problems, detail = _RUNNERS[case.command](
                case, seed, out, tracer)
    except Exception as exc:   # noqa: BLE001 - counted, pass continues
        return OpResult(case.name, seed, float("nan"),
                        [f"{type(exc).__name__}: {exc}"],
                        {"log": log.getvalue()[-2000:]})
    if problems:
        detail["log"] = log.getvalue()[-2000:]
    return OpResult(case.name, seed, seconds, problems, detail)

