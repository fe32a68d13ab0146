#!/usr/bin/env python3
"""Boundary robustness: the capped tube of configs/tube_closed.yaml and
the open tube of configs/tube_open.yaml grow the same pattern on the
cylinder they share.

Runs `modeiso pipeline` on both configs into a temporary directory,
pairs the vertices of the two grown states that have equal coordinates,
and prints the |correlation| of the mean-removed u over those vertices."""

import os
import sys
import tempfile

import numpy as np

from modeiso.cli import main as modeiso
from modeiso.meshio import read_vtk

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def grow(name: str, tmp: str):
    """Run the pipeline on configs/<name>.yaml; the grown state's mesh and
    u."""
    out = os.path.join(tmp, name)
    code = modeiso(["pipeline", "--config",
                    os.path.join(ROOT, "configs", f"{name}.yaml"),
                    "--out", out])
    if code != 0:
        sys.exit(f"{name}: modeiso pipeline exited {code}")
    mesh, fields = read_vtk(os.path.join(out, "final_state.vtk"))
    return mesh, fields["u"]


def shared_vertices(a: np.ndarray, b: np.ndarray):
    """Index arrays (i, j) over the rows with a[i] == b[j]."""
    where = {row: i for i, row in enumerate(map(tuple, a.tolist()))}
    pairs = [(where[row], j) for j, row in enumerate(map(tuple, b.tolist()))
             if row in where]
    return tuple(np.array(pairs, dtype=int).reshape(-1, 2).T)


def correlation(x: np.ndarray, y: np.ndarray) -> float:
    x, y = x - x.mean(), y - y.mean()
    return float(abs(x @ y) / (np.linalg.norm(x) * np.linalg.norm(y)))


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        closed, u_closed = grow("tube_closed", tmp)
        opened, u_open = grow("tube_open", tmp)
    i, j = shared_vertices(closed.vertices, opened.vertices)
    if len(i) == 0:
        sys.exit("the two tubes share no vertex")
    print(f"{len(i)} shared vertices "
          f"({closed.n_vertices} closed, {opened.n_vertices} open): "
          f"|correlation| {correlation(u_closed[i], u_open[j]):.5f}")


if __name__ == "__main__":
    main()
