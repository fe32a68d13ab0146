"""OFF reading and VTK legacy ASCII writing/reading.

Only the subset needed by the toolkit is supported: ASCII OFF triangle
meshes on input, VTK legacy 3.0 `DATASET UNSTRUCTURED_GRID` with scalar
POINT_DATA on output (cell types 3, 5 and 10).  Floats are written with
17 significant digits (`%.17g`) so a write/read round trip is bit-exact.
Each VTK block (POINTS, CELLS, CELL_TYPES, one per SCALARS field) is
formatted with one `%` operation and parsed with one array conversion, so
large meshes are not written or read a line at a time in Python.
"""

from __future__ import annotations

import os
from typing import Mapping

import numpy as np

from .mesh import Mesh, MeshError

_VTK_CELL_TYPE = {1: 3, 2: 5, 3: 10}


class MeshIOError(ValueError):
    """Malformed mesh file or inconsistent field data."""


def read_off(path: str | os.PathLike) -> Mesh:
    """Read an ASCII OFF triangle mesh; comment lines start with '#'."""
    tokens: list[tuple[int, str]] = []  # (line number, token)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if body:
                tokens.extend((lineno, tok) for tok in body.split())
    pos = 0

    def take(n: int, what: str) -> list[tuple[int, str]]:
        nonlocal pos
        if pos + n > len(tokens):
            last = tokens[-1][0] if tokens else 1
            raise MeshIOError(f"{path}: unexpected end of file while "
                              f"reading {what} (after line {last})")
        out = tokens[pos:pos + n]
        pos += n
        return out

    first = take(1, "header")[0]
    if first[1].upper() == "OFF":
        counts = take(3, "counts")
    else:
        counts = [first] + take(2, "counts")
    try:
        nv, nf = int(counts[0][1]), int(counts[1][1])
    except ValueError:
        raise MeshIOError(f"{path}:{counts[0][0]}: bad vertex/face counts")
    if nv < 0 or nf < 0:
        raise MeshIOError(f"{path}:{counts[0][0]}: negative vertex/face "
                          f"counts {nv} {nf}")
    verts = np.empty((nv, 3))
    for i in range(nv):
        toks = take(3, f"vertex {i}")
        try:
            verts[i] = [float(t) for _, t in toks]
        except ValueError:
            raise MeshIOError(f"{path}:{toks[0][0]}: bad vertex coordinate")
    cells = np.empty((nf, 3), dtype=np.intp)
    for i in range(nf):
        head = take(1, f"face {i}")[0]
        try:
            n = int(head[1])
        except ValueError:
            raise MeshIOError(f"{path}:{head[0]}: bad face vertex count")
        if n != 3:
            raise MeshIOError(f"{path}:{head[0]}: only triangle faces are "
                              f"supported, got {n}-gon")
        toks = take(3, f"face {i}")
        try:
            cells[i] = [int(t) for _, t in toks]
        except ValueError:
            raise MeshIOError(f"{path}:{toks[0][0]}: bad face index")
    return _checked_mesh(path, verts, cells)


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

    def count(idx: int, prefix: str) -> int:
        words = expect(idx, prefix).split()
        if len(words) < 2 or not words[1].isdecimal():
            raise MeshIOError(f"{path}:{idx + 1}: bad count in "
                              f"'{lines[idx]}'")
        return int(words[1])

    def block(start: int, rows: int, width: int, dtype: type,
              what: str) -> np.ndarray:
        """The `rows` lines from `start`, each `width` tokens, as an array."""
        text = lines[start:start + rows]
        if len(text) < rows:
            raise MeshIOError(f"{path}:{start + len(text)}: unexpected end of "
                              f"file in {what} block ({len(text)} of {rows} "
                              "rows)")
        if rows and set(map(len, map(str.split, text))) != {width}:
            bad = next(i for i, line in enumerate(text)
                       if len(line.split()) != width)
            raise MeshIOError(f"{path}:{start + bad + 1}: {what} row has "
                              f"{len(text[bad].split())} values, expected "
                              f"{width}")
        try:
            values = np.array(" ".join(text).split(), dtype=dtype)
        except (ValueError, OverflowError) as exc:
            raise MeshIOError(f"{path}:{start + 1}: bad value in {what} "
                              f"block: {exc}") from None
        return values.reshape(rows, width)

    expect(0, "# vtk DataFile")
    expect(2, "ASCII")
    expect(3, "DATASET UNSTRUCTURED_GRID")
    nv = count(4, "POINTS")
    points = block(5, nv, 3, float, "POINTS")
    idx = 5 + nv
    nc = count(idx, "CELLS")
    if nc == 0:
        raise MeshIOError(f"{path}:{idx + 1}: CELLS block is empty")
    # every row is as wide as the first and starts with its vertex count
    first = lines[idx + 1].split() if idx + 1 < len(lines) else []
    npc = max(len(first) - 1, 1)
    raw = block(idx + 1, nc, npc + 1, np.intp, "CELLS")
    wrong = np.flatnonzero(raw[:, 0] != npc)
    if wrong.size:
        raise MeshIOError(f"{path}:{idx + 2 + wrong[0]}: CELLS row starts "
                          f"with count {raw[wrong[0], 0]}, expected {npc}")
    cells = raw[:, 1:]
    idx += 1 + nc
    expect(idx, "CELL_TYPES")
    cell_type = _VTK_CELL_TYPE.get(npc - 1)
    types = block(idx + 1, nc, 1, np.intp, "CELL_TYPES")
    if cell_type is None or (types != cell_type).any():
        raise MeshIOError(f"{path}:{idx + 2}: CELL_TYPES do not match "
                          f"{npc}-vertex cells")
    idx += 1 + nc
    fields: dict[str, np.ndarray] = {}
    if idx < len(lines) and lines[idx].startswith("POINT_DATA"):
        idx += 1
        while idx < len(lines) and lines[idx].startswith("SCALARS"):
            words = lines[idx].split()
            if len(words) < 2:
                raise MeshIOError(f"{path}:{idx + 1}: SCALARS without a name")
            name = words[1]
            expect(idx + 1, "LOOKUP_TABLE")
            fields[name] = block(idx + 2, nv, 1, float,
                                 f"SCALARS {name}")[:, 0]
            idx += 2 + nv

    embed = {3: 1, 5: 3, 10: 3}[cell_type]
    if cell_type == 5 and np.allclose(points[:, 2], 0.0):
        embed = 2  # flat triangles are a planar mesh, not a surface
    return _checked_mesh(path, points[:, :embed], cells), fields
