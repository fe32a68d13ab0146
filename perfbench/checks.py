"""Correctness rules: each decides whether one operation failed.

A rule returns the list of problems it found; an empty list means the
operation's outputs are correct.  Rules read what the program wrote (or
returned) and never raise for a wrong result, so one bad operation is
counted and the pass goes on.
"""

from __future__ import annotations

import json
import os

import numpy as np
import scipy.sparse.linalg as spla

from modeiso import fem, meshio, reference_spectra

# VᵀMV may differ from the identity by this much (observed <= 5e-14).
ORTHONORMALITY_TOL = 1e-8
# Backward error ||Av - λMv|| / ((||A||₁ + λ||M||₁)||v||) <= this multiple of
# the eigensolver tolerance (observed <= 7e-12 at tol 1e-9).
RESIDUAL_TOL_FACTOR = 10.0
# P1 discretisation error of each eigenvalue against the analytic one,
# relative to max(λ, 1); observed 4.1e-3 (icosphere(5), l <= 6) and 1.1e-3
# (rectangle 140 x 140, first 20).  Coarser meshes state their own bound.
REFERENCE_RTOL = 1e-2
# mass matrix total against the mesh measure, and A·1 against zero,
# relative to the matrix scale
ASSEMBLY_RTOL = 1e-10


def exit_problems(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}"]


def grow_problems(code: int, isolation: dict, pipeline_match: dict | None,
                  match: dict | None, threshold: float) -> list[str]:
    """A pipeline run: exit 0, the matched eigenspace lies inside the
    isolation's excited set, and the correlation reaches the threshold.

    `pipeline_match` is the match.json the pipeline wrote; `match` the one
    a separate `modeiso match` wrote from final_state.vtk.
    """
    problems = exit_problems(code)
    if match is None:
        return problems + ["no match.json from 'modeiso match'"]
    excited = set(isolation.get("excited", []))
    if not set(match["eigenspace"]) <= excited:
        problems.append(f"matched eigenspace {match['eigenspace']} not in "
                        f"excited set {sorted(excited)}")
    if match["correlation"] < threshold:
        problems.append(f"correlation {match['correlation']:.4f} below "
                        f"threshold {threshold}")
    if pipeline_match is not None and not np.isclose(
            pipeline_match["correlation"], match["correlation"],
            rtol=1e-9, atol=0.0):
        problems.append("pipeline and 'modeiso match' correlations differ: "
                        f"{pipeline_match['correlation']!r} vs "
                        f"{match['correlation']!r}")
    return problems


def reference_problems(eigenvalues: np.ndarray, reference: np.ndarray,
                       rtol: float = REFERENCE_RTOL) -> list[str]:
    """Multiplicities and values against an analytic spectrum.

    `reference` is sorted and longer than `eigenvalues`, so the last level
    the count reaches can be told complete or cut.  Every complete level
    must hold exactly its multiplicity of computed values, which is what
    rejects a solver that drops one copy of a degenerate eigenvalue.
    """
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    k = len(lam)
    ref = np.asarray(reference, dtype=float)
    if len(ref) <= k:
        raise ValueError("reference must be longer than the spectrum")
    problems = []
    start = 0
    while start < k:
        stop = start
        while stop < len(ref) and np.isclose(ref[stop], ref[start],
                                             rtol=1e-12, atol=1e-12):
            stop += 1
        if stop > k:
            break   # the count ends inside this level
        level = ref[start]
        found = int(np.sum(np.abs(lam - level) <= rtol * max(level, 1.0)))
        if found != stop - start:
            problems.append(f"level {level:.6g}: multiplicity {found}, "
                            f"expected {stop - start}")
        start = stop
    err = np.abs(lam - ref[:k]) / np.maximum(ref[:k], 1.0)
    worst = int(np.argmax(err))
    if err[worst] > rtol:
        problems.append(f"eigenvalue {worst}: {lam[worst]:.8g} vs analytic "
                        f"{ref[worst]:.8g} (relative error {err[worst]:.2e} "
                        f"> {rtol})")
    return problems


def analytic_reference(config, count: int) -> np.ndarray | None:
    """Analytic spectrum with `count` + 20 entries, where one exists."""
    spec = config.mesh
    if spec.deformation is not None:
        return None
    if spec.generator == "icosphere":
        entries = reference_spectra.sphere_surface_spectrum(count + 20)
    elif spec.generator == "rectangle":
        entries = reference_spectra.rectangle_neumann(
            spec.params["lx"], spec.params["ly"], count + 20)
    else:
        return None
    return reference_spectra.eigenvalue_array(entries)


def read_eigenvalues_csv(path: str) -> np.ndarray:
    with open(path) as fh:
        rows = [line.split(",") for line in fh if line[:1].isdigit()]
    return np.array([float(row[1]) for row in rows])


def spectrum_problems(code: int, out: str, config,
                      reference_rtol: float = REFERENCE_RTOL) -> list[str]:
    """An eigs run: residuals, M-orthonormality and, where an analytic
    spectrum exists, multiplicities and values within `reference_rtol`."""
    problems = exit_problems(code)
    if problems:
        return problems
    lam = read_eigenvalues_csv(os.path.join(out, "eigenvalues.csv"))
    count = config.eigensolver["count"]
    if len(lam) != count:
        return [f"{len(lam)} eigenvalues written, {count} asked for"]
    mesh, fields = meshio.read_vtk(os.path.join(out, "eigenvectors.vtk"))
    V = np.column_stack([fields[f"ev_{i:03d}"] for i in range(count)])
    M = fem.assemble_mass(mesh)
    A = fem.assemble_stiffness(mesh)
    gram_err = float(np.abs(V.T @ (M @ V) - np.eye(count)).max())
    if gram_err > ORTHONORMALITY_TOL:
        problems.append(f"|VᵀMV - I| = {gram_err:.2e} > "
                        f"{ORTHONORMALITY_TOL}")
    a_norm, m_norm = spla.norm(A, 1), spla.norm(M, 1)
    R = A @ V - (M @ V) * lam
    backward = (np.linalg.norm(R, axis=0)
                / ((a_norm + lam * m_norm) * np.linalg.norm(V, axis=0)))
    bound = RESIDUAL_TOL_FACTOR * config.eigensolver["tol"]
    if backward.max() > bound:
        problems.append(f"backward error {backward.max():.2e} > {bound:.1e}")
    reference = analytic_reference(config, count)
    if reference is not None:
        problems += reference_problems(lam, reference, reference_rtol)
    return problems


def geometry_problems(mesh, M, A, roundtrip, expected: tuple[int, int]
                      ) -> list[str]:
    """A mesh build: counts, M sums to the measure, rows of A sum to
    zero, and the VTK round trip gives back the same mesh."""
    problems = []
    counts = (mesh.n_vertices, mesh.n_cells)
    if counts != tuple(expected):
        problems.append(f"(vertices, cells) = {counts}, expected "
                        f"{tuple(expected)}")
    measure = mesh.measure()
    if abs(M.sum() - measure) > ASSEMBLY_RTOL * measure:
        problems.append(f"M sums to {M.sum():.15g}, measure {measure:.15g}")
    row_sums = np.abs(np.asarray(A.sum(axis=1))).max()
    if row_sums > ASSEMBLY_RTOL * abs(A).max():
        problems.append(f"rows of A sum to up to {row_sums:.2e}")
    if not (np.array_equal(roundtrip.vertices, mesh.vertices)
            and np.array_equal(roundtrip.cells, mesh.cells)):
        problems.append("VTK round trip changed the mesh")
    return problems


def read_json(path: str) -> dict | None:
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)
