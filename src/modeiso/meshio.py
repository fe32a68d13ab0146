"""VTK legacy BINARY writing and reading, the toolkit's one mesh format.

Only the subset needed by the toolkit is supported: VTK legacy 3.0
`DATASET UNSTRUCTURED_GRID` with scalar POINT_DATA (cell types 3, 5 and
10: lines, triangles and tetrahedra).  A VTK file is written as
`BINARY`: text header lines, each numeric block (POINTS, CELLS,
CELL_TYPES, one per SCALARS field) one big-endian array (`>f8` or
`>i4`) followed by a newline, so a write/read round trip is bit-exact
and no value is formatted or parsed as text.  The reader walks the file
with a byte cursor and checks every header count against the block it
announces.
"""

from __future__ import annotations

import os
from typing import Mapping, NoReturn

import numpy as np

from .mesh import Mesh, MeshError

_VTK_CELL_TYPE = {1: 3, 2: 5, 3: 10}
_VTK_MAX_INDEX = int(np.iinfo(">i4").max)  # legacy VTK indices are int32


class MeshIOError(ValueError):
    """Malformed mesh file or inconsistent field data."""


def write_vtk(mesh: Mesh, fields: Mapping[str, np.ndarray],
              path: str | os.PathLike, comment: str = "modeiso mesh") -> None:
    """Write a VTK legacy 3.0 BINARY unstructured grid with point scalars.

    Header lines are text; POINTS and each SCALARS field are big-endian
    doubles, CELLS rows `[npc, i0, ...]` and CELL_TYPES big-endian int32,
    each block followed by a newline.  The vertex count, field names and
    field lengths are validated before the file is opened, so a bad call
    leaves no partial file behind.
    """
    nv = mesh.n_vertices
    if nv > _VTK_MAX_INDEX:
        raise MeshIOError(f"mesh has {nv} vertices; legacy VTK indexes "
                          f"them as int32, at most {_VTK_MAX_INDEX}")
    arrays: dict[str, np.ndarray] = {}
    for name, values in fields.items():
        if name.split() != [name]:
            raise MeshIOError(f"field name {name!r} must be one non-empty "
                              "token without whitespace")
        arr = np.asarray(values, dtype=float)
        if arr.shape != (nv,):
            raise MeshIOError(
                f"field '{name}' has length {arr.shape}, expected "
                f"({nv},)")
        arrays[name] = arr

    nc = mesh.n_cells
    points = np.zeros((nv, 3), dtype=">f8")
    points[:, : mesh.embedding_dim] = mesh.vertices
    npc = mesh.intrinsic_dim + 1
    rows = np.empty((nc, npc + 1), dtype=">i4")
    rows[:, 0] = npc
    rows[:, 1:] = mesh.cells
    types = np.full(nc, _VTK_CELL_TYPE[mesh.intrinsic_dim], dtype=">i4")

    title = comment.splitlines()[0][:255] if comment else "modeiso mesh"
    blocks = [f"# vtk DataFile Version 3.0\n{title}\nBINARY\n"
              f"DATASET UNSTRUCTURED_GRID\nPOINTS {nv} double\n".encode(),
              points.tobytes(), f"\nCELLS {nc} {rows.size}\n".encode(),
              rows.tobytes(), f"\nCELL_TYPES {nc}\n".encode(),
              types.tobytes(), b"\n"]
    if arrays:
        blocks.append(f"POINT_DATA {nv}\n".encode())
        for name, arr in arrays.items():
            blocks.append(f"SCALARS {name} double 1\n"
                          "LOOKUP_TABLE default\n".encode())
            blocks += [arr.astype(">f8").tobytes(), b"\n"]
    with open(path, "wb") as fh:
        fh.writelines(blocks)


def read_vtk(path: str | os.PathLike) -> tuple[Mesh, dict[str, np.ndarray]]:
    """Read back the legacy BINARY VTK subset produced by write_vtk.

    A cursor walks the bytes: each header line is parsed as text and each
    block taken with one `np.frombuffer` and converted to native floats
    or indices.  The file may end after CELL_TYPES, after POINT_DATA or
    after any whole SCALARS field; anything else after the last block is
    an error.  A truncated or malformed file, or a legacy ASCII one,
    raises MeshIOError naming the path, the byte offset where the
    offending header or block starts, and the block; a mesh that `Mesh`
    rejects raises MeshError naming the path.  Triangles whose every z
    is exactly 0 read back as a planar mesh.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def fail(at: int, message: str) -> NoReturn:
        raise MeshIOError(f"{path}: byte {at}: {message}")

    def line(what: str) -> tuple[int, str]:
        """The next line and its offset; a missing newline is a cut."""
        nonlocal pos
        at, end = pos, data.find(b"\n", pos)
        if end < 0:
            fail(at, f"unexpected end of file in {what}")
        pos = end + 1
        return at, data[at:end].decode("utf-8", "replace")

    def header(keyword: str) -> tuple[int, list[str]]:
        """The offset and words of the next line, a `keyword` header."""
        at, text = line(keyword)
        words = text.split()
        if words[:1] != [keyword]:
            fail(at, f"expected '{keyword}', got {text[:60]!r}")
        return at, words

    def count(at: int, words: list[str], i: int,
              want: int | None = None) -> int:
        """Word `i` of a header, a count that must equal `want` when one
        is given."""
        text = " ".join(words)
        if len(words) <= i or not words[i].isdecimal():
            fail(at, f"bad count in {text[:60]!r}")
        if want is not None and int(words[i]) != want:
            fail(at, f"expected {want}, got {words[i]} in {text[:60]!r}")
        return int(words[i])

    def double(at: int, words: list[str], i: int) -> None:
        """Word `i` of a header, the value type, must be `double`."""
        if words[i:i + 1] != ["double"]:
            fail(at, f"expected type 'double' in {' '.join(words)[:60]!r}")

    def block(dtype: str, n: int, what: str) -> tuple[int, np.ndarray]:
        """The offset of the next `n` values of `dtype` and the values, a
        native copy; a newline must follow them."""
        nonlocal pos
        at, end = pos, pos + n * np.dtype(dtype).itemsize
        if end >= len(data):
            fail(at, f"unexpected end of file in {what}")
        if data[end] != ord("\n"):
            fail(at, f"{what} block is not followed by a newline")
        pos = end + 1
        native = float if dtype == ">f8" else np.intp
        return at, np.frombuffer(data, dtype, n, at).astype(native)

    at, text = line("header")
    if not text.startswith("# vtk DataFile"):
        fail(at, f"expected '# vtk DataFile', got {text[:60]!r}")
    line("header")  # the title
    at, text = line("header")
    if text.strip() == "ASCII":
        raise MeshIOError(f"{path}: legacy ASCII VTK is not read; "
                          "expected BINARY")
    if text.strip() != "BINARY":
        fail(at, f"expected 'BINARY', got {text[:60]!r}")
    at, words = header("DATASET")
    if words[1:] != ["UNSTRUCTURED_GRID"]:
        fail(at, f"expected 'DATASET UNSTRUCTURED_GRID', got "
                 f"{' '.join(words)[:60]!r}")

    at, words = header("POINTS")
    nv = count(at, words, 1)
    double(at, words, 2)
    points = block(">f8", 3 * nv, "POINTS")[1].reshape(nv, 3)

    at, words = header("CELLS")
    nc, size = count(at, words, 1), count(at, words, 2)
    if nc == 0:
        fail(at, "CELLS block is empty")
    if len(data) < pos + 4:
        fail(pos, "unexpected end of file in CELLS")
    # every row is as wide as the first and starts with its vertex count
    npc = int.from_bytes(data[pos:pos + 4], "big", signed=True)
    count(at, words, 2, nc * (npc + 1))
    at, raw = block(">i4", size, "CELLS")
    raw = raw.reshape(nc, npc + 1)
    wrong = np.flatnonzero(raw[:, 0] != npc)
    if wrong.size:
        fail(at, f"CELLS row {wrong[0]} starts with count "
                 f"{raw[wrong[0], 0]}, expected {npc}")
    cells = raw[:, 1:]
    outside = cells[(cells < 0) | (cells >= nv)]
    if outside.size:
        fail(at, f"CELLS index {outside[0]} is not a vertex of {nv}")

    at, words = header("CELL_TYPES")
    count(at, words, 1, nc)
    cell_type = _VTK_CELL_TYPE.get(npc - 1)
    at, types = block(">i4", nc, "CELL_TYPES")
    if cell_type is None or (types != cell_type).any():
        fail(at, f"CELL_TYPES do not match {npc}-vertex cells")

    fields: dict[str, np.ndarray] = {}
    if pos < len(data):
        at, words = header("POINT_DATA")
        count(at, words, 1, nv)
    while pos < len(data):
        at, words = header("SCALARS")
        if len(words) < 2:
            fail(at, "SCALARS without a name")
        name = words[1]
        if name in fields:
            fail(at, f"field '{name}' repeated")
        double(at, words, 2)
        if len(words) > 3:
            count(at, words, 3, 1)  # components
        header("LOOKUP_TABLE")
        fields[name] = block(">f8", nv, f"SCALARS {name}")[1]

    embed = {3: 1, 5: 3, 10: 3}[cell_type]
    if cell_type == 5 and not points[:, 2].any():
        embed = 2  # exactly flat triangles are a planar mesh, not a surface
    try:
        return Mesh(points[:, :embed], cells), fields
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from None
