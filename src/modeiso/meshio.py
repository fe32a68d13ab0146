"""OFF reading and VTK legacy ASCII writing/reading.

Only the subset needed by the toolkit is supported: ASCII OFF triangle
meshes on input, one vertex or face per line, and VTK legacy 3.0
`DATASET UNSTRUCTURED_GRID` with scalar POINT_DATA on output (cell types
3, 5 and 10).  Floats are written with 17 significant digits (`%.17g`)
so a write/read round trip is bit-exact.  Each VTK block (POINTS, CELLS,
CELL_TYPES, one per SCALARS field) is formatted with one `%` operation.
Both readers parse every numeric block (the OFF counts, vertices and
faces too) with one routine and one array conversion, so large meshes
are not read a value at a time in Python; the VTK header counts must
agree with the blocks they announce.
"""

from __future__ import annotations

import os
from typing import Callable, Mapping, Sequence

import numpy as np

from .mesh import Mesh, MeshError

_VTK_CELL_TYPE = {1: 3, 2: 5, 3: 10}


class MeshIOError(ValueError):
    """Malformed mesh file or inconsistent field data."""


def _rows(path: str | os.PathLike, lines: Sequence[str], start: int,
          rows: int, width: int, dtype: type, what: str,
          line: Callable[[int], int]) -> np.ndarray:
    """`lines[start:start + rows]`, each `width` numbers, as an array;
    `line(i)` is the file line number of `lines[i]`, for the messages."""
    text = lines[start:start + rows]
    if len(text) < rows:
        raise MeshIOError(f"{path}:{line(start + len(text) - 1)}: unexpected "
                          f"end of file in {what} block ({len(text)} of "
                          f"{rows} rows)")
    if rows and set(map(len, map(str.split, text))) != {width}:
        bad = next(i for i, row in enumerate(text)
                   if len(row.split()) != width)
        raise MeshIOError(f"{path}:{line(start + bad)}: {what} row has "
                          f"{len(text[bad].split())} values, expected "
                          f"{width}")
    try:
        values = np.array(" ".join(text).split(), dtype=dtype)
    except (ValueError, OverflowError) as exc:
        raise MeshIOError(f"{path}:{line(start)}: bad value in {what} "
                          f"block: {exc}") from None
    return values.reshape(rows, width)


def read_off(path: str | os.PathLike) -> Mesh:
    """Read an ASCII OFF triangle mesh, one record per line; '#' starts a
    comment."""
    with open(path) as fh:
        records = [(n, body) for n, text in enumerate(fh, start=1)
                   if (body := text.split("#", 1)[0].strip())]
    lines = [body for _, body in records]
    numbers = [n for n, _ in records] or [1]  # an empty file ends at line 1
    line = numbers.__getitem__
    start = 0
    if lines and lines[0].split()[0].upper() == "OFF":
        lines[0] = lines[0][3:]  # the counts may follow on the header line
        start = 0 if lines[0] else 1
    nv, nf, _ = _rows(path, lines, start, 1, 3, np.intp, "counts",
                      line)[0].tolist()
    if nv < 0 or nf < 0:
        raise MeshIOError(f"{path}:{line(start)}: negative vertex/face "
                          f"counts {nv} {nf}")
    verts = _rows(path, lines, start + 1, nv, 3, float, "vertex", line)
    first = start + 1 + nv
    for i, row in enumerate(lines[first:first + nf], start=first):
        if (n := row.split()[0]) != "3":
            raise MeshIOError(f"{path}:{line(i)}: only triangle faces are "
                              f"supported, got {n}-gon")
    faces = _rows(path, lines, first, nf, 4, np.intp, "face", line)
    return _checked_mesh(path, verts, faces[:, 1:])


def _checked_mesh(path: str | os.PathLike, vertices: np.ndarray,
                  cells: np.ndarray) -> Mesh:
    """`Mesh(vertices, cells)`, with a rejection naming the file."""
    try:
        return Mesh(vertices, cells)
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from None


def write_vtk(mesh: Mesh, fields: Mapping[str, np.ndarray],
              path: str | os.PathLike, comment: str = "modeiso mesh") -> None:
    """Write a VTK legacy 3.0 ASCII unstructured grid with point scalars.

    Field names and lengths are validated before the file is opened, so a
    bad call leaves no partial file behind.
    """
    arrays: dict[str, np.ndarray] = {}
    for name, values in fields.items():
        if name.split() != [name]:
            raise MeshIOError(f"field name {name!r} must be one non-empty "
                              "token without whitespace")
        arr = np.asarray(values, dtype=float)
        if arr.shape != (mesh.n_vertices,):
            raise MeshIOError(
                f"field '{name}' has length {arr.shape}, expected "
                f"({mesh.n_vertices},)")
        arrays[name] = arr

    nv, nc = mesh.n_vertices, mesh.n_cells
    points = np.zeros((nv, 3))
    points[:, : mesh.embedding_dim] = mesh.vertices
    npc = mesh.intrinsic_dim + 1

    blocks = ["# vtk DataFile Version 3.0\n",
              (comment.splitlines()[0][:255] if comment else "modeiso mesh")
              + "\n",
              "ASCII\nDATASET UNSTRUCTURED_GRID\n",
              f"POINTS {nv} double\n",
              ("%.17g %.17g %.17g\n" * nv) % tuple(points.ravel().tolist()),
              f"CELLS {nc} {nc * (npc + 1)}\n",
              ((f"{npc}" + " %d" * npc + "\n") * nc)
              % tuple(mesh.cells.ravel().tolist()),
              f"CELL_TYPES {nc}\n",
              f"{_VTK_CELL_TYPE[mesh.intrinsic_dim]}\n" * nc]
    if arrays:
        blocks.append(f"POINT_DATA {nv}\n")
        for name, arr in arrays.items():
            blocks.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            blocks.append(("%.17g\n" * nv) % tuple(arr.tolist()))
    with open(path, "w") as fh:
        fh.writelines(blocks)


def read_vtk(path: str | os.PathLike) -> tuple[Mesh, dict[str, np.ndarray]]:
    """Read back the VTK subset produced by write_vtk.

    A truncated or malformed file raises MeshIOError naming the path, the
    line and the block.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()

    def expect(idx: int, prefix: str) -> str:
        if idx >= len(lines) or not lines[idx].startswith(prefix):
            got = lines[idx] if idx < len(lines) else "<eof>"
            raise MeshIOError(f"{path}:{idx + 1}: expected '{prefix}', "
                              f"got '{got}'")
        return lines[idx]

    def count(idx: int, prefix: str, want: int | None = None,
              at: int = 1) -> int:
        """Word `at` of the `prefix` line `idx`, a count that must equal
        `want` when one is given."""
        words = expect(idx, prefix).split()
        if len(words) <= at or not words[at].isdecimal():
            raise MeshIOError(f"{path}:{idx + 1}: bad count in "
                              f"'{lines[idx]}'")
        if want is not None and int(words[at]) != want:
            raise MeshIOError(f"{path}:{idx + 1}: expected {want}, got "
                              f"{words[at]} in '{lines[idx]}'")
        return int(words[at])

    def line(i: int) -> int:
        return i + 1

    expect(0, "# vtk DataFile")
    expect(2, "ASCII")
    expect(3, "DATASET UNSTRUCTURED_GRID")
    nv = count(4, "POINTS")
    points = _rows(path, lines, 5, nv, 3, float, "POINTS", line)
    idx = 5 + nv
    nc = count(idx, "CELLS")
    if nc == 0:
        raise MeshIOError(f"{path}:{idx + 1}: CELLS block is empty")
    # every row is as wide as the first and starts with its vertex count
    first = lines[idx + 1].split() if idx + 1 < len(lines) else []
    npc = max(len(first) - 1, 1)
    raw = _rows(path, lines, idx + 1, nc, npc + 1, np.intp, "CELLS", line)
    wrong = np.flatnonzero(raw[:, 0] != npc)
    if wrong.size:
        raise MeshIOError(f"{path}:{idx + 2 + wrong[0]}: CELLS row starts "
                          f"with count {raw[wrong[0], 0]}, expected {npc}")
    count(idx, "CELLS", nc * (npc + 1), at=2)
    cells = raw[:, 1:]
    idx += 1 + nc
    count(idx, "CELL_TYPES", nc)
    cell_type = _VTK_CELL_TYPE.get(npc - 1)
    types = _rows(path, lines, idx + 1, nc, 1, np.intp, "CELL_TYPES", line)
    if cell_type is None or (types != cell_type).any():
        raise MeshIOError(f"{path}:{idx + 2}: CELL_TYPES do not match "
                          f"{npc}-vertex cells")
    idx += 1 + nc
    fields: dict[str, np.ndarray] = {}
    if idx < len(lines) and lines[idx].startswith("POINT_DATA"):
        count(idx, "POINT_DATA", nv)
        idx += 1
        while idx < len(lines) and lines[idx].startswith("SCALARS"):
            words = lines[idx].split()
            if len(words) < 2:
                raise MeshIOError(f"{path}:{idx + 1}: SCALARS without a name")
            name = words[1]
            if name in fields:
                raise MeshIOError(f"{path}:{idx + 1}: field '{name}' "
                                  "repeated")
            if len(words) > 3:
                count(idx, "SCALARS", 1, at=3)  # components
            expect(idx + 1, "LOOKUP_TABLE")
            fields[name] = _rows(path, lines, idx + 2, nv, 1, float,
                                 f"SCALARS {name}", line)[:, 0]
            idx += 2 + nv

    embed = {3: 1, 5: 3, 10: 3}[cell_type]
    if cell_type == 5 and np.allclose(points[:, 2], 0.0):
        embed = 2  # flat triangles are a planar mesh, not a surface
    return _checked_mesh(path, points[:, :embed], cells), fields
