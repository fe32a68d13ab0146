"""Command line pipeline: mesh -> eigs -> isolate -> simulate -> match.

Each subcommand reads the same YAML run configuration and is one stage
over a `Run`, which builds the mesh, the matrices, the spectrum, the
kinetics Jacobian and the isolation result on first use, each at most
once.  `mesh` writes the mesh as the legacy BINARY VTK that a config's
`mesh.path` reads back.  `pipeline` runs the isolate, simulate and match
stages over one `Run`; it writes no mesh.vtk or eigenvalues.csv.
Outputs are deterministic for fixed seeds: every artifact, CSV, JSON
and VTK, is byte-identical across reruns.

Exit codes: 0 success, 1 computation error (or a failed write),
2 configuration error (or an output directory that cannot be created),
3 pipeline match below threshold.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from functools import cached_property

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .eigensolver import EigensolverError, Spectrum, smallest_eigenpairs
from .fem import assemble_mass, assemble_stiffness
from .isolation import (IsolationError, IsolationResult, IsolationStatus,
                        isolate_mode, pair_isolation)
from .kinetics import Jacobian2x2, KineticsError
from .meshio import read_vtk, write_vtk
from .pattern_metrics import match_pattern
from .simulator import SimulationConfig, SimulationStatus, simulate
from .solvers import LinearSolveError

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_CONFIG = 2
EXIT_MATCH = 3


class StageError(RuntimeError):
    """A stage's input is missing or unusable: no saved state, one grown
    on another mesh, or no (d, gamma) or excited set because the
    isolation failed."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


class Run:
    """One invocation: the config, the output directory and every
    intermediate result, each computed on first use."""

    def __init__(self, config: RunConfig, out: str):
        self.config = config
        self.out = out
        self.meta = (f"config_sha256={config.digest()} "
                     f"eig_seed={config.eigensolver['seed']} "
                     f"sim_seed={config.simulation['seed']}")

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    @cached_property
    def mesh(self):
        return self.config.mesh.build()

    @cached_property
    def M(self):
        return assemble_mass(self.mesh)

    @cached_property
    def A(self):
        return assemble_stiffness(self.mesh)

    @cached_property
    def spectrum(self) -> Spectrum:
        eig, n = self.config.eigensolver, self.mesh.n_vertices
        if eig["count"] >= n:
            raise ConfigError(f"eigensolver.count: expected at most {n - 1} "
                              f"for a mesh of {n} vertices, "
                              f"got {eig['count']}")
        return smallest_eigenpairs(self.A, self.M, count=eig["count"],
                                   tol=eig["tol"], seed=eig["seed"])

    @cached_property
    def model(self):
        return self.config.kinetics.build()

    @cached_property
    def J(self) -> Jacobian2x2:
        state = self.model.steady_state()
        return self.model.jacobian(state.u, state.v)

    @property
    def explicit_pair(self) -> tuple[float, float] | None:
        """The config's (d, gamma), or None when the search finds them:
        the one place that tells the two apart."""
        iso = self.config.isolation
        if iso["target_index"] is not None:
            return None
        return iso["d"], iso["gamma"]

    @cached_property
    def isolation(self) -> IsolationResult:
        """The search's result, or the explicit pair and what it excites."""
        if self.explicit_pair is not None:
            return pair_isolation(self.spectrum.eigenvalues, self.J,
                                  *self.explicit_pair)
        return isolate_mode(self.spectrum.eigenvalues,
                            self.config.isolation["target_index"], self.J)

    @property
    def pair(self) -> tuple[float, float]:
        """(d, gamma) to simulate with; an explicit pair needs no spectrum."""
        if self.explicit_pair is not None:
            return self.explicit_pair
        if self.isolation.status is IsolationStatus.FAILED:
            raise StageError("isolation failed, no (d, gamma) available")
        return self.isolation.d, self.isolation.gamma

    @cached_property
    def final_u(self) -> np.ndarray:
        """The grown u: set by the simulate stage, else read back from
        the final_state.vtk an earlier run wrote on this config's mesh."""
        path = self.path("final_state.vtk")
        if not os.path.exists(path):
            raise StageError(f"no simulation output at {path}; "
                             "run 'simulate' first")
        saved, fields = read_vtk(path)
        for what, theirs, ours in (
                ("cells", saved.cells, self.mesh.cells),
                ("vertices", saved.vertices, self.mesh.vertices)):
            if not np.array_equal(theirs, ours):
                raise StageError(f"{path} was grown on another mesh: its "
                                 f"{what} differ from this config's mesh")
        if "u" not in fields or not np.isfinite(fields["u"]).all():
            raise StageError(f"{path} has no finite 'u' field")
        return fields["u"]

    def write_json(self, name: str, payload: dict) -> None:
        with open(self.path(name), "w") as fh:
            json.dump({"_meta": self.meta, **payload}, fh, indent=2,
                      sort_keys=True)
            fh.write("\n")

    def write_csv(self, name: str, header: str, rows) -> None:
        with open(self.path(name), "w") as fh:
            fh.write(f"# {self.meta}\n{header}\n")
            fh.writelines(f"{row}\n" for row in rows)


def cmd_mesh(run: Run) -> int:
    mesh = run.mesh
    write_vtk(mesh, {}, run.path("mesh.vtk"), comment=run.meta)
    print(f"mesh: {mesh.n_vertices} vertices, {mesh.n_cells} cells "
          f"({mesh.kind.value}, intrinsic dim {mesh.intrinsic_dim})")
    return EXIT_OK


def cmd_eigs(run: Run) -> int:
    spectrum = run.spectrum
    run.write_csv("eigenvalues.csv", "index,lambda,residual",
                  (f"{i},{_fmt(lam)},{_fmt(res)}" for i, (lam, res)
                   in enumerate(zip(spectrum.eigenvalues,
                                    spectrum.residuals))))
    fields = {f"ev_{i:03d}": spectrum.vectors[:, i]
              for i in range(len(spectrum))}
    write_vtk(run.mesh, fields, run.path("eigenvectors.vtk"),
              comment=run.meta)
    print(f"eigs: wrote {len(spectrum)} pairs to "
          f"{run.path('eigenvalues.csv')}")
    return EXIT_OK


def cmd_isolate(run: Run) -> int:
    result = run.isolation
    run.write_json("isolation.json", result.as_dict())
    print(f"isolate: status={result.status.value} d={result.d:.6g} "
          f"gamma={result.gamma:.6g} excited={list(result.excited_indices)}")
    return EXIT_COMPUTE if result.status is IsolationStatus.FAILED else EXIT_OK


def cmd_simulate(run: Run) -> int:
    d, gamma = run.pair
    sim_config = SimulationConfig(model=run.model, d=d, gamma=gamma,
                                  **run.config.simulation)
    outcome = simulate(run.mesh, sim_config, M=run.M, A=run.A)
    run.write_csv("derivative_history.csv", "t,derivative_norm",
                  (f"{_fmt(t)},{_fmt(norm)}" for t, norm in outcome.history))
    write_vtk(run.mesh, {"u": outcome.u, "v": outcome.v},
              run.path("final_state.vtk"), comment=run.meta)
    run.write_json("outcome.json",
                   {"status": outcome.status.value, "elapsed": outcome.elapsed,
                    "d": d, "gamma": gamma, "ptc_steps": outcome.ptc_steps,
                    "residual_norm": outcome.residual_norm})
    run.final_u = outcome.u
    print(f"simulate: status={outcome.status.value} t={outcome.elapsed:.4g}")
    return EXIT_OK if outcome.status is SimulationStatus.CONVERGED \
        else EXIT_COMPUTE


def cmd_match(run: Run) -> int:
    """Write match.json, scored against the isolation's excited set; the
    exit code says whether the threshold is met."""
    u, isolation = run.final_u, run.isolation
    if isolation.status is IsolationStatus.FAILED:
        raise StageError("isolation failed, no eigenspace to match against")
    report = match_pattern(u, run.spectrum, run.M, isolation.excited_indices)
    run.write_json("match.json", report.as_dict())
    threshold = run.config.match["threshold"]
    print(f"match: best_index={report.best_index} "
          f"correlation={report.correlation:.4f} (threshold {threshold})")
    return EXIT_MATCH if report.correlation < threshold else EXIT_OK


def cmd_pipeline(run: Run) -> int:
    for stage in (cmd_isolate, cmd_simulate, cmd_match):
        code = stage(run)
        if code != EXIT_OK:
            break
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
    if args.seed is not None and args.seed < 0:
        # the same rule as the config's seeds, and the same exit code
        parser.error("argument --seed: expected a non-negative integer")

    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = dataclasses.replace(
                config,
                eigensolver={**config.eigensolver, "seed": args.seed},
                simulation={**config.simulation, "seed": args.seed})
        out = args.out or config.output_dir
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output directory {out!r} cannot be "
                              f"created: {exc.strerror}")
        return _COMMANDS[args.command](Run(config, out))
    except ConfigError as exc:
        # also raised while a stage builds its mesh
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EigensolverError, IsolationError, KineticsError,
            LinearSolveError, OSError, StageError, ValueError) as exc:
        # an OSError here is a stage's failed write, and names the file
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
