"""Command line pipeline: mesh -> eigs -> isolate -> simulate -> match.

Each subcommand reads the same YAML run configuration.  Outputs are
deterministic for fixed seeds: CSV/JSON byte-identical across reruns,
VTK identical up to the documented float formatting.

Exit codes: 0 success, 1 computation error, 2 configuration error,
3 pipeline match below threshold.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .eigensolver import EigensolverError, Spectrum, smallest_eigenpairs
from .fem import assemble_mass, assemble_stiffness
from .isolation import (IsolationError, IsolationResult, IsolationStatus,
                        isolate_mode, verify_isolation)
from .kinetics import (KineticsError, critical_diffusion_ratio, jacobian,
                       steady_state, wavenumber_window)
from .meshio import read_vtk, write_vtk
from .pattern_metrics import MatchReport, match_pattern
from .simulator import SimulationConfig, SimulationStatus, simulate
from .solvers import LinearSolveError

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_CONFIG = 2
EXIT_MATCH = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _meta_line(config: RunConfig) -> str:
    return (f"config_sha256={config.digest()} "
            f"eig_seed={config.eigensolver['seed']} "
            f"sim_seed={config.simulation['seed']}")


def _write_json(path: str, payload: dict, config: RunConfig) -> None:
    payload = {"_meta": _meta_line(config), **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ensure_out(config: RunConfig, override: str | None) -> str:
    out = override or config.output_dir
    os.makedirs(out, exist_ok=True)
    return out


def cmd_mesh(config: RunConfig, out: str) -> int:
    mesh = config.mesh.build()
    write_vtk(mesh, {}, os.path.join(out, "mesh.vtk"),
              comment=_meta_line(config))
    print(f"mesh: {mesh.n_vertices} vertices, {mesh.n_cells} cells "
          f"({mesh.kind.value}, intrinsic dim {mesh.intrinsic_dim})")
    return EXIT_OK


def _compute_spectrum(config: RunConfig, mesh) -> tuple[Spectrum, object, object]:
    M = assemble_mass(mesh)
    A = assemble_stiffness(mesh)
    eig = config.eigensolver
    spectrum = smallest_eigenpairs(A, M, count=eig["count"], tol=eig["tol"],
                                   seed=eig["seed"])
    return spectrum, M, A


def cmd_eigs(config: RunConfig, out: str) -> int:
    mesh = config.mesh.build()
    spectrum, _, _ = _compute_spectrum(config, mesh)
    csv_path = os.path.join(out, "eigenvalues.csv")
    with open(csv_path, "w") as fh:
        fh.write(f"# {_meta_line(config)}\n")
        fh.write("index,lambda,residual\n")
        for i, (lam, res) in enumerate(zip(spectrum.eigenvalues,
                                           spectrum.residuals)):
            fh.write(f"{i},{_fmt(lam)},{_fmt(res)}\n")
    fields = {f"ev_{i:03d}": spectrum.vectors[:, i]
              for i in range(len(spectrum))}
    write_vtk(mesh, fields, os.path.join(out, "eigenvectors.vtk"),
              comment=_meta_line(config))
    print(f"eigs: wrote {len(spectrum)} pairs to {csv_path}")
    return EXIT_OK


def _isolation_result(config: RunConfig,
                      spectrum: Spectrum) -> IsolationResult:
    model = config.kinetics.build()
    J = jacobian(model, steady_state(model))
    iso = config.isolation
    if iso["target_index"] is None:
        d, gamma = iso["d"], iso["gamma"]
        excited = verify_isolation(spectrum, J, d, gamma)
        status = (IsolationStatus.UNIQUE if len(excited) == 1
                  else IsolationStatus.CLUSTERED if excited
                  else IsolationStatus.FAILED)
        return IsolationResult(status, d, gamma,
                               wavenumber_window(J, d, gamma),
                               tuple(excited), critical_diffusion_ratio(J))
    return isolate_mode(spectrum, iso["target_index"], J,
                        gamma0=iso["gamma0"], eps0=iso["eps0"],
                        max_iters=iso["max_iters"], delta=iso["delta"])


def cmd_isolate(config: RunConfig, out: str) -> int:
    mesh = config.mesh.build()
    spectrum, _, _ = _compute_spectrum(config, mesh)
    result = _isolation_result(config, spectrum)
    _write_json(os.path.join(out, "isolation.json"), result.as_dict(), config)
    print(f"isolate: status={result.status.value} d={result.d:.6g} "
          f"gamma={result.gamma:.6g} excited={list(result.excited_indices)}")
    return EXIT_OK if result.status is not IsolationStatus.FAILED \
        else EXIT_COMPUTE


def _run_simulation(config: RunConfig, mesh, M, A, d: float, gamma: float,
                    out: str):
    model = config.kinetics.build()
    sim = config.simulation
    sim_config = SimulationConfig(model=model, d=d, gamma=gamma,
                                  tau=sim["tau"], stop_tol=sim["stop_tol"],
                                  max_time=sim["max_time"], seed=sim["seed"],
                                  amplitude=sim["amplitude"],
                                  snapshot_stride=sim["snapshot_stride"])

    snapshots: list[int] = []

    def callback(step: int, t: float, u: np.ndarray, v: np.ndarray) -> None:
        index = len(snapshots)
        write_vtk(mesh, {"u": u, "v": v},
                  os.path.join(out, f"run_{index:04d}.vtk"),
                  comment=_meta_line(config))
        snapshots.append(step)

    outcome = simulate(mesh, sim_config, M=M, A=A,
                       snapshot_callback=callback)
    hist_path = os.path.join(out, "derivative_history.csv")
    with open(hist_path, "w") as fh:
        fh.write(f"# {_meta_line(config)}\n")
        fh.write("t,derivative_norm\n")
        for t, norm in outcome.history:
            fh.write(f"{_fmt(t)},{_fmt(norm)}\n")
    write_vtk(mesh, {"u": outcome.u, "v": outcome.v},
              os.path.join(out, "final_state.vtk"),
              comment=_meta_line(config))
    _write_json(os.path.join(out, "outcome.json"),
                {"status": outcome.status.value,
                 "elapsed": outcome.elapsed,
                 "d": d, "gamma": gamma,
                 "snapshots": len(snapshots)}, config)
    return outcome


def cmd_simulate(config: RunConfig, out: str) -> int:
    mesh = config.mesh.build()
    iso = config.isolation
    if iso["d"] is not None and iso["gamma"] is not None:
        d, gamma = iso["d"], iso["gamma"]
        M = assemble_mass(mesh)
        A = assemble_stiffness(mesh)
    else:
        spectrum, M, A = _compute_spectrum(config, mesh)
        result = _isolation_result(config, spectrum)
        if result.status is IsolationStatus.FAILED:
            print("simulate: isolation failed, no (d, gamma) available",
                  file=sys.stderr)
            return EXIT_COMPUTE
        d, gamma = result.d, result.gamma
    outcome = _run_simulation(config, mesh, M, A, d, gamma, out)
    print(f"simulate: status={outcome.status.value} t={outcome.elapsed:.4g}")
    return EXIT_OK if outcome.status is SimulationStatus.CONVERGED \
        else EXIT_COMPUTE


def _match(config: RunConfig, u: np.ndarray, spectrum: Spectrum, M,
           out: str) -> tuple[MatchReport, int]:
    """Write match.json; the exit code says whether the threshold is met."""
    report = match_pattern(u, spectrum, M,
                           cluster_gap=config.match["cluster_gap"])
    _write_json(os.path.join(out, "match.json"), report.as_dict(), config)
    code = EXIT_MATCH if report.correlation < config.match["threshold"] \
        else EXIT_OK
    return report, code


def cmd_match(config: RunConfig, out: str) -> int:
    mesh = config.mesh.build()
    final_path = os.path.join(out, "final_state.vtk")
    if not os.path.exists(final_path):
        print(f"match: no simulation output at {final_path}; "
              "run 'simulate' first", file=sys.stderr)
        return EXIT_COMPUTE
    _, fields = read_vtk(final_path)
    spectrum, M, _ = _compute_spectrum(config, mesh)
    report, code = _match(config, fields["u"], spectrum, M, out)
    print(f"match: best_index={report.best_index} "
          f"correlation={report.correlation:.4f} "
          f"(threshold {config.match['threshold']})")
    return code


def cmd_pipeline(config: RunConfig, out: str) -> int:
    mesh = config.mesh.build()
    spectrum, M, A = _compute_spectrum(config, mesh)
    result = _isolation_result(config, spectrum)
    _write_json(os.path.join(out, "isolation.json"), result.as_dict(), config)
    if result.status is IsolationStatus.FAILED:
        print("pipeline: isolation failed", file=sys.stderr)
        return EXIT_COMPUTE
    outcome = _run_simulation(config, mesh, M, A, result.d, result.gamma, out)
    if outcome.status is not SimulationStatus.CONVERGED:
        print(f"pipeline: simulation ended with {outcome.status.value}",
              file=sys.stderr)
        return EXIT_COMPUTE
    report, code = _match(config, outcome.u, spectrum, M, out)
    print(f"pipeline: status={result.status.value} d={result.d:.6g} "
          f"gamma={result.gamma:.6g} correlation={report.correlation:.4f} "
          f"(threshold {config.match['threshold']})")
    return code


_COMMANDS = {
    "mesh": cmd_mesh,
    "eigs": cmd_eigs,
    "isolate": cmd_isolate,
    "simulate": cmd_simulate,
    "match": cmd_match,
    "pipeline": cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="modeiso",
        description="Mode isolation for reaction-diffusion systems")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="YAML run config")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override eigensolver and simulation seeds")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = dataclasses.replace(
                config,
                eigensolver={**config.eigensolver, "seed": args.seed},
                simulation={**config.simulation, "seed": args.seed})
        out = _ensure_out(config, args.out)
        return _COMMANDS[args.command](config, out)
    except ConfigError as exc:
        # also raised while a command builds its mesh or kinetics model
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EigensolverError, IsolationError, KineticsError,
            LinearSolveError, ValueError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
