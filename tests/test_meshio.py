import hashlib
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

import modeiso as mi
from modeiso.mesh import MeshError
from modeiso.meshio import MeshIOError, read_vtk, write_vtk

from conftest import block_start, replace_line, vtk_headers


@pytest.mark.parametrize("make", [
    lambda: mi.generate_interval(1.0, 5),
    lambda: mi.generate_rectangle(1.0, 2.0, 3, 2),
    lambda: mi.generate_icosphere(1),
    lambda: mi.generate_ball(0),
])
def test_vtk_round_trip_bit_exact(make, tmp_path):
    mesh = make()
    rng = np.random.default_rng(3)
    fields = {"u": rng.random(mesh.n_vertices),
              "v": rng.standard_normal(mesh.n_vertices)}
    fields["u"][:3] = [-0.0, 1e-300, 1e300]
    path = tmp_path / "mesh.vtk"
    write_vtk(mesh, fields, path)
    back, back_fields = read_vtk(path)
    assert np.array_equal(back.cells, mesh.cells)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert back.vertices.tobytes() == mesh.vertices.tobytes()
    assert list(back_fields) == list(fields)
    for name in fields:
        # bit for bit: array_equal alone would take -0.0 for 0.0
        assert back_fields[name].tobytes() == fields[name].tobytes()


def test_vtk_icosphere0_round_trip_connectivity(tmp_path):
    mesh = mi.generate_icosphere(0)
    path = tmp_path / "ico.vtk"
    write_vtk(mesh, {}, path)
    back, fields = read_vtk(path)
    assert np.array_equal(back.cells, mesh.cells)
    assert fields == {}
    assert back.kind is mi.MeshKind.SURFACE


def test_write_vtk_rejects_bad_field_before_writing(tmp_path):
    mesh = mi.generate_interval(1.0, 3)
    path = tmp_path / "never.vtk"
    with pytest.raises(MeshIOError, match="length"):
        write_vtk(mesh, {"u": np.zeros(7)}, path)
    assert not path.exists()


def test_vtk_header_comment(tmp_path):
    mesh = mi.generate_interval(1.0, 2)
    path = tmp_path / "c.vtk"
    write_vtk(mesh, {}, path, comment="run 42")
    lines = path.read_bytes().split(b"\n")
    assert lines[0] == b"# vtk DataFile Version 3.0"
    assert lines[1] == b"run 42"
    assert lines[2] == b"BINARY"


def test_write_vtk_rejects_bad_field_name_before_writing(tmp_path):
    mesh = mi.generate_interval(1.0, 3)
    path = tmp_path / "never.vtk"
    for name in ["", "a b", "u\tv", "w\n"]:
        with pytest.raises(MeshIOError, match="field name"):
            write_vtk(mesh, {name: np.zeros(mesh.n_vertices)}, path)
        assert not path.exists()


@pytest.mark.parametrize("build, sha", [
    (lambda: mi.generate_interval(1.0, 5),
     "1e0241c56afffd04cec029a591b8eebdac53ac09cd3baaa9b9d4934c9370a4f7"),
    (lambda: mi.generate_rectangle(1.0, 2.0, 3, 2),
     "d1e8572c9d1bda6fa742962e78c39057da8e5576a858a826d7eaa559fbaebe92"),
    (lambda: mi.generate_icosphere(2),
     "ca3b21189397378834fb33b25a451727c319688b53b207f1c1a4bfbc05cd7c82"),
    (lambda: mi.generate_ball(0),
     "576fb014936d65c211e01999c776df51edeaac4f1b91a97f4f9f4950b6732953"),
], ids=["interval5", "rectangle3x2", "icosphere2", "ball0"])
def test_vtk_bytes_are_pinned(build, sha, tmp_path):
    # Pins the written file byte for byte: every value a big-endian double
    # and every index a big-endian int32, including signed zero, extreme
    # exponents and whole floats.
    mesh = build()
    rng = np.random.default_rng(11)
    u = rng.standard_normal(mesh.n_vertices)
    u[:4] = [-0.0, 1e-300, 1e300, 7.0]
    path = tmp_path / "pinned.vtk"
    write_vtk(mesh, {"u": u, "v": rng.random(mesh.n_vertices)}, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


def test_vtk_layout_follows_the_spec(tmp_path):
    # The legacy VTK 3.0 BINARY layout, built by hand: text headers, each
    # block one big-endian array followed by a newline.
    path = tmp_path / "spec.vtk"
    write_vtk(mi.generate_interval(1.0, 2), {"u": [-0.0, 1e-300, 1e300]},
              path, comment="spec")
    expected = (
        b"# vtk DataFile Version 3.0\nspec\nBINARY\n"
        b"DATASET UNSTRUCTURED_GRID\nPOINTS 3 double\n"
        + struct.pack(">3d", 0.0, 0.0, 0.0)
        + struct.pack(">3d", 0.5, 0.0, 0.0)
        + struct.pack(">3d", 1.0, 0.0, 0.0)
        + b"\nCELLS 2 6\n"
        + struct.pack(">3i", 2, 0, 1) + struct.pack(">3i", 2, 1, 2)
        + b"\nCELL_TYPES 2\n" + struct.pack(">2i", 3, 3)
        + b"\nPOINT_DATA 3\nSCALARS u double 1\nLOOKUP_TABLE default\n"
        + struct.pack(">3d", -0.0, 1e-300, 1e300) + b"\n")
    assert path.read_bytes() == expected


def test_write_vtk_refuses_more_vertices_than_int32_indexes(tmp_path):
    path = tmp_path / "never.vtk"
    with pytest.raises(MeshIOError, match="int32"):
        write_vtk(SimpleNamespace(n_vertices=2**31), {}, path)
    assert not path.exists()


def _rectangle_vtk(tmp_path):
    """A 2x2 rectangle (9 points, 8 triangles) with field u = 0..8: its
    path, bytes and header offsets."""
    mesh = mi.generate_rectangle(1.0, 1.0, 2, 2)
    path = tmp_path / "rect.vtk"
    write_vtk(mesh, {"u": np.arange(mesh.n_vertices, dtype=float)}, path)
    return (path, *vtk_headers(path))


def _put(data, at, fmt, *values):
    """`data` with the packed `values` written over it at byte `at`."""
    packed = struct.pack(fmt, *values)
    return data[:at] + packed + data[at + len(packed):]


def test_read_vtk_truncated_points(tmp_path):
    path, data, at = _rectangle_vtk(tmp_path)
    points = block_start(data, at["POINTS"])
    path.write_bytes(data[:points + 3 * 24])  # header + 3 of 9 points
    with pytest.raises(MeshIOError, match=rf"rect\.vtk: byte {points}: "
                       "unexpected end of file in POINTS"):
        read_vtk(path)


def test_read_vtk_truncated_scalars(tmp_path):
    path, data, at = _rectangle_vtk(tmp_path)
    path.write_bytes(data[:-3 * 8 - 1])  # the last 3 values and newline
    with pytest.raises(MeshIOError, match=r"rect\.vtk: byte \d+: "
                       "unexpected end of file in SCALARS u"):
        read_vtk(path)


def test_read_vtk_short_point_row(tmp_path):
    # the binary twin of a short POINTS row: 10 points announced over 9
    path, data, at = _rectangle_vtk(tmp_path)
    data = replace_line(data, at["POINTS"], "POINTS 10 double")
    path.write_bytes(data)
    with pytest.raises(MeshIOError, match=(
            rf"rect\.vtk: byte {block_start(data, at['POINTS'])}: POINTS "
            "block is not followed by a newline")):
        read_vtk(path)


def _cell_row(data, at, row):
    """The offset of CELLS row `row` (4 int32 each) in the rectangle."""
    return block_start(data, at["CELLS"]) + 16 * row


def _four_vertex_cell(data, at):
    """CELLS row 2 widened to a 4-vertex cell among triangles."""
    row = _cell_row(data, at, 2)
    return (data[:row] + struct.pack(">i", 4) + data[row + 4:row + 16]
            + struct.pack(">i", 3) + data[row + 16:])


@pytest.mark.parametrize("edit", [
    _four_vertex_cell,
    # leading count differs, same indices
    lambda data, at: _put(data, _cell_row(data, at, 2), ">i", 2),
    # the size one short of 8 rows of 4
    lambda data, at: replace_line(data, at["CELLS"], "CELLS 8 31"),
], ids=["extra_index", "wrong_count", "short_row"])
def test_read_vtk_inconsistent_cell_row(tmp_path, edit):
    path, data, at = _rectangle_vtk(tmp_path)
    path.write_bytes(edit(data, at))
    with pytest.raises(MeshIOError, match=r"rect\.vtk: byte \d+: .*CELLS"):
        read_vtk(path)


def test_read_vtk_any_truncation_is_a_mesh_io_error(tmp_path):
    path, data, at = _rectangle_vtk(tmp_path)
    whole = []
    for keep in range(len(data)):
        path.write_bytes(data[:keep])
        try:
            read_vtk(path)  # a cut between whole blocks is a valid file
        except MeshIOError as exc:
            assert "rect.vtk: byte " in str(exc)
        else:
            whole.append(keep)
    # after CELL_TYPES and after POINT_DATA; the whole file reads too
    assert whole == [at["POINT_DATA"], at["SCALARS"]]


@pytest.mark.parametrize("block, edit", [
    ("SCALARS", lambda data, at: (
        replace_line(data, at["SCALARS"], "SCALARS"), at["SCALARS"])),
    ("CELLS", lambda data, at: (
        _put(data, _cell_row(data, at, 0) + 4, ">i", -1),
        _cell_row(data, at, 0))),
    ("CELLS", lambda data, at: (
        _put(data, _cell_row(data, at, 0) + 4, ">i", 9),
        _cell_row(data, at, 0))),
    ("CELL_TYPES", lambda data, at: (
        _put(data, block_start(data, at["CELL_TYPES"]), ">i", 7),
        block_start(data, at["CELL_TYPES"]))),
    ("POINTS", lambda data, at: (
        replace_line(data, at["POINTS"], "POINTS many double"),
        at["POINTS"])),
    ("LOOKUP_TABLE", lambda data, at: (
        data[:at["LOOKUP_TABLE"]]
        + data[block_start(data, at["LOOKUP_TABLE"]):],
        at["LOOKUP_TABLE"])),
    ("SCALARS u float", lambda data, at: (
        replace_line(data, at["SCALARS"], "SCALARS u float 1"),
        at["SCALARS"])),
], ids=["scalar_word", "fractional_index", "huge_index", "cell_type",
        "header_count", "missing_lookup_table", "scalar_type"])
def test_read_vtk_bad_token_names_block(tmp_path, block, edit):
    # the index defects of the text format (a fraction, an index past
    # int64) are an index of -1 and an index of nv = 9 in binary
    path, data, at = _rectangle_vtk(tmp_path)
    data, offset = edit(data, at)
    path.write_bytes(data)
    with pytest.raises(MeshIOError,
                       match=rf"rect\.vtk: byte {offset}: .*{block}"):
        read_vtk(path)


@pytest.mark.parametrize("token", ["nan", "1e999"])
def test_read_vtk_rejects_non_finite_points(tmp_path, token):
    path, data, at = _rectangle_vtk(tmp_path)
    point = block_start(data, at["POINTS"]) + 4 * 24  # the fifth point
    path.write_bytes(_put(data, point, ">3d", 0.5, float(token), 0.0))
    with pytest.raises(MeshError, match=r"rect\.vtk: non-finite"):
        read_vtk(path)


def test_read_vtk_rejects_trailing_content(tmp_path):
    path, data, at = _rectangle_vtk(tmp_path)
    vectors = (b"VECTORS w double\n" + np.zeros((9, 3), ">f8").tobytes()
               + b"\nSCALARS v double 1\nLOOKUP_TABLE default\n"
               + np.ones(9, ">f8").tobytes() + b"\n")
    for cut, tail in [(len(data), vectors), (at["POINT_DATA"], vectors),
                      (len(data), b"\n"), (len(data), b"SCALARS v")]:
        path.write_bytes(data[:cut] + tail)
        with pytest.raises(MeshIOError, match=rf"rect\.vtk: byte {cut}: "):
            read_vtk(path)


def test_read_vtk_demotes_only_an_exactly_flat_surface(tmp_path):
    flat = mi.generate_rectangle(1.0, 1.0, 4, 4)
    lifted = np.pad(flat.vertices, ((0, 0), (0, 1)))
    path = tmp_path / "surface.vtk"
    write_vtk(mi.Mesh(lifted, flat.cells), {}, path)
    back, _ = read_vtk(path)
    assert back.kind is mi.MeshKind.PLANAR
    assert np.array_equal(back.vertices, flat.vertices)
    lifted[7, 2] = 1e-9   # near flat is still a surface
    write_vtk(mi.Mesh(lifted, flat.cells), {}, path)
    back, _ = read_vtk(path)
    assert back.kind is mi.MeshKind.SURFACE
    assert np.array_equal(back.vertices, lifted)


def test_read_vtk_refuses_legacy_ascii(tmp_path):
    path = tmp_path / "old.vtk"
    path.write_text("# vtk DataFile Version 3.0\nmodeiso mesh\nASCII\n"
                    "DATASET UNSTRUCTURED_GRID\nPOINTS 3 double\n"
                    "0 0 0\n1 0 0\n0 1 0\nCELLS 1 4\n3 0 1 2\n"
                    "CELL_TYPES 1\n5\n")
    with pytest.raises(MeshIOError, match=re.escape(
            f"{path}: legacy ASCII VTK is not read; expected BINARY")):
        read_vtk(path)


@pytest.mark.parametrize("prefix, value", [
    ("CELLS", "CELLS 8 999"),
    ("CELL_TYPES", "CELL_TYPES 5"),
    ("POINT_DATA", "POINT_DATA 3"),
    ("SCALARS", "SCALARS u double 3"),
], ids=["cells_size", "cell_types_count", "point_data_count",
        "scalars_components"])
def test_read_vtk_header_count_must_match_its_block(tmp_path, prefix, value):
    path, data, at = _rectangle_vtk(tmp_path)
    path.write_bytes(replace_line(data, at[prefix], value))
    with pytest.raises(MeshIOError,
                       match=rf"rect\.vtk: byte {at[prefix]}: expected "):
        read_vtk(path)


def test_read_vtk_rejects_a_repeated_field(tmp_path):
    path, data, at = _rectangle_vtk(tmp_path)
    path.write_bytes(data + data[at["SCALARS"]:])
    with pytest.raises(MeshIOError,
                       match=rf"rect\.vtk: byte {len(data)}: .*'u'"):
        read_vtk(path)


def test_read_vtk_scalars_component_count_is_optional(tmp_path):
    path, data, at = _rectangle_vtk(tmp_path)
    path.write_bytes(replace_line(data, at["SCALARS"], "SCALARS u double"))
    _, fields = read_vtk(path)
    assert np.array_equal(fields["u"], np.arange(9.0))


@pytest.mark.parametrize("old, new, message", [
    (b"\nBINARY\n", b"\nBINARX\n", "expected 'BINARY', got 'BINARX'"),
    (b"\nDATASET UNSTRUCTURED_GRID\n", b"\nDATASET POLYDATA\n",
     "expected 'DATASET UNSTRUCTURED_GRID', got 'DATASET POLYDATA'"),
    (b"\nCELLS 8 32\n", b"\nCELLS 0 0\n", "CELLS block is empty"),
], ids=["not_binary", "not_unstructured_grid", "no_cells"])
def test_read_vtk_refuses_a_header_it_does_not_read(tmp_path, old, new,
                                                     message):
    path, data, _ = _rectangle_vtk(tmp_path)
    at = data.index(old) + 1
    path.write_bytes(data.replace(old, new, 1))
    with pytest.raises(MeshIOError, match=re.escape(
            f"{path}: byte {at}: {message}")):
        read_vtk(path)
