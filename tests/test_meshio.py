import hashlib

import numpy as np
import pytest

import modeiso as mi
from modeiso.mesh import MeshError
from modeiso.meshio import MeshIOError, read_off, read_vtk, write_vtk


OFF_TETRA_SURFACE = """\
OFF
# a regular-ish tetrahedron surface
4 4 6
0 0 0
1 0 0
0.5 1 0
0.5 0.5 1
3 0 2 1
3 0 1 3
3 1 2 3
3 0 3 2
"""


def test_read_off_round(tmp_path):
    path = tmp_path / "tetra.off"
    path.write_text(OFF_TETRA_SURFACE)
    mesh = read_off(path)
    assert mesh.n_vertices == 4
    assert mesh.n_cells == 4
    assert mesh.kind is mi.MeshKind.SURFACE


def test_read_off_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.off"
    for text in ("OFF\n4 4 6\n0 0 zero\n", "OFF\n# counts\n-1 0 0\n"):
        path.write_text(text)
        with pytest.raises(MeshIOError, match=r"bad.off:3"):
            read_off(path)


def test_read_off_rejects_quads(tmp_path):
    path = tmp_path / "quad.off"
    path.write_text("OFF\n4 1 4\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(MeshIOError, match="triangle"):
        read_off(path)


def test_read_off_mesh_rejection_names_the_file(tmp_path):
    path = tmp_path / "tetra.off"
    path.write_text(OFF_TETRA_SURFACE.replace("0.5 1 0", "0.5 nan 0"))
    with pytest.raises(MeshError, match=r"tetra\.off: non-finite"):
        read_off(path)


def test_read_off_truncated(tmp_path):
    path = tmp_path / "trunc.off"
    path.write_text("OFF\n4 4 6\n0 0 0\n1 0 0\n")
    with pytest.raises(MeshIOError, match="end of file"):
        read_off(path)


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
    path = tmp_path / "mesh.vtk"
    write_vtk(mesh, fields, path)
    back, back_fields = read_vtk(path)
    assert np.array_equal(back.cells, mesh.cells)
    assert np.array_equal(back.vertices, mesh.vertices)
    for name in fields:
        assert np.array_equal(back_fields[name], fields[name])


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
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[1] == "run 42"
    assert lines[2] == "ASCII"


def test_write_vtk_rejects_bad_field_name_before_writing(tmp_path):
    mesh = mi.generate_interval(1.0, 3)
    path = tmp_path / "never.vtk"
    for name in ["", "a b", "u\tv", "w\n"]:
        with pytest.raises(MeshIOError, match="field name"):
            write_vtk(mesh, {name: np.zeros(mesh.n_vertices)}, path)
        assert not path.exists()


@pytest.mark.parametrize("build, sha", [
    (lambda: mi.generate_interval(1.0, 5),
     "e5597fb9cbae5f456f7c965a2d48d24349d31d9bdafec9a2ccfa4622315403d6"),
    (lambda: mi.generate_rectangle(1.0, 2.0, 3, 2),
     "71172ecae32cfec1b9ff23b96aa8c5cb55880cc33e655acd29412128f98d5748"),
    (lambda: mi.generate_icosphere(2),
     "cd509958691a5477a9da3b9c12039ad22670a572f42ca47f1d2e637ea2316c33"),
    (lambda: mi.generate_ball(0),
     "c7a14f98f0a0eef7aa307b7c0bb739c03315b505c730f2d6c48f253558ee01e7"),
], ids=["interval5", "rectangle3x2", "icosphere2", "ball0"])
def test_vtk_bytes_are_pinned(build, sha, tmp_path):
    # Pins the written text byte for byte: every value is '%.17g' and every
    # index '%d', including signed zero, extreme exponents and whole floats.
    mesh = build()
    rng = np.random.default_rng(11)
    u = rng.standard_normal(mesh.n_vertices)
    u[:4] = [-0.0, 1e-300, 1e300, 7.0]
    path = tmp_path / "pinned.vtk"
    write_vtk(mesh, {"u": u, "v": rng.random(mesh.n_vertices)}, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


def _rectangle_vtk(tmp_path):
    mesh = mi.generate_rectangle(1.0, 1.0, 2, 2)
    path = tmp_path / "rect.vtk"
    write_vtk(mesh, {"u": np.arange(mesh.n_vertices, dtype=float)}, path)
    return path, path.read_text().splitlines()


def _rewrite(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_read_vtk_truncated_points(tmp_path):
    path, lines = _rectangle_vtk(tmp_path)
    _rewrite(path, lines[:8])  # header + 3 of 9 point rows
    with pytest.raises(MeshIOError, match=r"rect\.vtk.*POINTS"):
        read_vtk(path)


def test_read_vtk_truncated_scalars(tmp_path):
    path, lines = _rectangle_vtk(tmp_path)
    _rewrite(path, lines[:-3])
    with pytest.raises(MeshIOError, match=r"rect\.vtk.*SCALARS u"):
        read_vtk(path)


def test_read_vtk_short_point_row(tmp_path):
    path, lines = _rectangle_vtk(tmp_path)
    lines[6] = "0.5 0"
    _rewrite(path, lines)
    with pytest.raises(MeshIOError, match=r"rect\.vtk.*POINTS"):
        read_vtk(path)


@pytest.mark.parametrize("edit", [
    lambda row: row + " 3",              # a 4-vertex cell among triangles
    lambda row: "2" + row[1:],           # leading count differs, same indices
    lambda row: row.rsplit(" ", 1)[0],   # an index missing
], ids=["extra_index", "wrong_count", "short_row"])
def test_read_vtk_inconsistent_cell_row(tmp_path, edit):
    path, lines = _rectangle_vtk(tmp_path)
    row = next(i for i, ln in enumerate(lines) if ln.startswith("CELLS")) + 3
    lines[row] = edit(lines[row])
    _rewrite(path, lines)
    with pytest.raises(MeshIOError, match=r"rect\.vtk.*CELLS"):
        read_vtk(path)


def test_read_vtk_any_truncation_is_a_mesh_io_error(tmp_path):
    path, lines = _rectangle_vtk(tmp_path)
    for keep in range(len(lines)):
        _rewrite(path, lines[:keep])
        try:
            read_vtk(path)  # a cut between whole blocks is a valid file
        except MeshIOError as exc:
            assert "rect.vtk" in str(exc)


@pytest.mark.parametrize("block, offset, value", [
    ("SCALARS", 2, "nan?"),
    ("CELLS", 1, "3 0 1.5 4"),
    ("CELLS", 1, "3 0 1 99999999999999999999"),
    ("CELL_TYPES", 1, "7"),
    ("POINTS", 0, "POINTS many double"),
], ids=["scalar_word", "fractional_index", "huge_index", "cell_type",
        "header_count"])
def test_read_vtk_bad_token_names_block(tmp_path, block, offset, value):
    path, lines = _rectangle_vtk(tmp_path)
    row = next(i for i, ln in enumerate(lines)
               if ln.split()[0] == block) + offset
    lines[row] = value
    _rewrite(path, lines)
    with pytest.raises(MeshIOError, match=rf"rect\.vtk.*{block}"):
        read_vtk(path)


@pytest.mark.parametrize("token", ["nan", "1e999"])
def test_read_vtk_rejects_non_finite_points(tmp_path, token):
    path, lines = _rectangle_vtk(tmp_path)
    row = next(i for i, ln in enumerate(lines) if ln.startswith("POINTS")) + 5
    lines[row] = f"0.5 {token} 0"
    _rewrite(path, lines)
    with pytest.raises(MeshError, match="non-finite"):
        read_vtk(path)


def test_read_off_counts_on_the_header_line(tmp_path):
    path = tmp_path / "tetra.off"
    path.write_text(OFF_TETRA_SURFACE)
    mesh = read_off(path)
    path.write_text(OFF_TETRA_SURFACE.replace(
        "OFF\n# a regular-ish tetrahedron surface\n4 4 6\n", "OFF 4 4 6\n"))
    back = read_off(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.cells, mesh.cells)


@pytest.mark.parametrize("text, line, what", [
    ("OFF\n3 1 0\n0 0\n0\n1 0 0\n0 1 0\n3 0 1 2\n", 3, "vertex"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2 255 0 0\n", 6, "face"),
    ("OFF\n3 1\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", 2, "counts"),
], ids=["wrapped_vertex", "face_colour", "two_counts"])
def test_read_off_one_record_per_line(tmp_path, text, line, what):
    path = tmp_path / "rec.off"
    path.write_text(text)
    with pytest.raises(MeshIOError, match=rf"rec\.off:{line}: {what} row"):
        read_off(path)


@pytest.mark.parametrize("prefix, value", [
    ("CELLS", "CELLS 8 999"),
    ("CELL_TYPES", "CELL_TYPES 5"),
    ("POINT_DATA", "POINT_DATA 3"),
    ("SCALARS", "SCALARS u double 3"),
], ids=["cells_size", "cell_types_count", "point_data_count",
        "scalars_components"])
def test_read_vtk_header_count_must_match_its_block(tmp_path, prefix, value):
    path, lines = _rectangle_vtk(tmp_path)
    row = next(i for i, ln in enumerate(lines) if ln.split()[0] == prefix)
    lines[row] = value
    _rewrite(path, lines)
    with pytest.raises(MeshIOError, match=rf"rect\.vtk:{row + 1}: "):
        read_vtk(path)


def test_read_vtk_rejects_a_repeated_field(tmp_path):
    path, lines = _rectangle_vtk(tmp_path)
    scalars = lines.index("SCALARS u double 1")
    _rewrite(path, lines + lines[scalars:])
    with pytest.raises(MeshIOError,
                       match=rf"rect\.vtk:{len(lines) + 1}: .*'u'"):
        read_vtk(path)


def test_read_vtk_scalars_component_count_is_optional(tmp_path):
    path, lines = _rectangle_vtk(tmp_path)
    lines[lines.index("SCALARS u double 1")] = "SCALARS u double"
    _rewrite(path, lines)
    _, fields = read_vtk(path)
    assert np.array_equal(fields["u"], np.arange(9.0))
