import json
import os
import re
import struct
import types

import numpy as np
import pytest
import yaml

import modeiso as mi
from modeiso.cli import main
from modeiso.meshio import read_vtk, write_vtk

from conftest import ROOT, block_start, vtk_headers


def write_config(tmp_path, **overrides):
    config = {
        "mesh": {"generator": "rectangle",
                 "params": {"lx": 1.0, "ly": 1.0, "nx": 8, "ny": 8}},
        "eigensolver": {"count": 6},
        "isolation": {"target_index": 1},
        "output_dir": str(tmp_path / "out"),
    }
    config.update(overrides)
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(config))
    return path


def test_mesh_subcommand(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["mesh", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "mesh.vtk").exists()
    assert "81 vertices" in capsys.readouterr().out


def test_eigs_subcommand_outputs(tmp_path):
    path = write_config(tmp_path)
    assert main(["eigs", "--config", str(path)]) == 0
    csv = (tmp_path / "out" / "eigenvalues.csv").read_text().splitlines()
    assert csv[0].startswith("# config_sha256=")
    assert csv[1] == "index,lambda,residual"
    assert len(csv) == 2 + 6
    assert (tmp_path / "out" / "eigenvectors.vtk").exists()


def _rerun_changes(tmp_path, command, names):
    """Run `command` twice at the config's seed; the artifacts that differ."""
    path = write_config(tmp_path)
    assert main([command, "--config", str(path)]) == 0
    first = {name: (tmp_path / "out" / name).read_bytes() for name in names}
    assert main([command, "--config", str(path)]) == 0
    return [name for name in names
            if (tmp_path / "out" / name).read_bytes() != first[name]]


def test_eigs_deterministic_bytes(tmp_path):
    assert _rerun_changes(tmp_path, "eigs", [
        "eigenvalues.csv", "eigenvectors.vtk"]) == []


def test_pipeline_deterministic_bytes(tmp_path):
    assert _rerun_changes(tmp_path, "pipeline", [
        "isolation.json", "outcome.json", "match.json",
        "derivative_history.csv", "final_state.vtk"]) == []


def test_isolate_subcommand(tmp_path):
    path = write_config(tmp_path)
    assert main(["isolate", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "isolation.json").read_text())
    assert report["status"] in ("unique", "clustered")
    assert 1 in report["excited"]
    assert report["d"] > report["d_c"]


def test_isolate_with_too_few_eigenvalues_fails(tmp_path, capsys):
    # two eigenvalues hold only the first of the double pi^2: the window
    # that excites it reaches past the computed spectrum
    path = write_config(tmp_path, eigensolver={"count": 2})
    assert main(["isolate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error [isolate]:" in err and "eigensolver.count" in err
    assert not (tmp_path / "out" / "isolation.json").exists()


def test_config_error_exit_code_and_no_outputs(tmp_path):
    # tau 0.05 is above MAX_STABLE_TAU: the pipeline must not run the
    # eigensolve and write isolation.json before rejecting it
    for command, tau in (("simulate", -1e-3), ("pipeline", 0.05)):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({
            "mesh": {"generator": "rectangle",
                     "params": {"lx": 1.0, "ly": 1.0, "nx": 8, "ny": 8}},
            "isolation": {"target_index": 1},
            "simulation": {"tau": tau},
            "output_dir": str(tmp_path / "never"),
        }))
        assert main([command, "--config", str(bad)]) == 2
        assert not (tmp_path / "never").exists()


def test_threshold_above_one_is_config_error(tmp_path, capsys):
    # no correlation reaches it: rejected on reading, before any stage runs
    path = write_config(tmp_path, match={"threshold": 80})
    assert main(["pipeline", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "config error: match.threshold: expected at most 1, got 80\n")
    assert not (tmp_path / "out").exists()


def test_mesh_params_error_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, mesh={
        "generator": "rectangle",
        "params": {"lx": 1.0, "ly": 1.0, "nx": 0, "ny": 8}})
    assert main(["mesh", "--config", str(path)]) == 2
    assert "config error: mesh.params" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eigs", "pipeline"])
def test_count_beyond_the_mesh_is_config_error(tmp_path, capsys, command):
    # the 8 x 8 rectangle has 81 vertices, so at most 80 pairs
    path = write_config(tmp_path, eigensolver={"count": 81})
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error: eigensolver.count" in err and "81 vertices" in err
    assert os.listdir(tmp_path / "out") == []


def test_missing_mesh_path_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, mesh={"path": str(tmp_path / "no.vtk")})
    assert main(["mesh", "--config", str(path)]) == 2
    assert "config error: mesh.path" in capsys.readouterr().err


@pytest.mark.parametrize("mesh, message", [
    ({"path": 0}, "mesh.path: expected a string"),
    ({"generator": ["disk"]}, "mesh.generator: expected a string"),
    ({"generator": "disk", "deformation": {"a": 1}},
     "mesh.deformation: expected a string"),
    ({"off_path": "x.off"}, "mesh: unknown keys ['off_path']"),
], ids=["int_path", "list_generator", "mapping_deformation", "off_path"])
def test_bad_mesh_name_is_config_error(tmp_path, capsys, mesh, message):
    path = write_config(tmp_path, mesh=mesh)
    assert main(["mesh", "--config", str(path)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_off_file_as_mesh_path_is_config_error(tmp_path, capsys):
    off = tmp_path / "triangle.off"
    off.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    path = write_config(tmp_path, mesh={"path": str(off)})
    assert main(["mesh", "--config", str(path)]) == 2
    assert (f"config error: mesh.path: {off}: byte 0: expected "
            "'# vtk DataFile'") in capsys.readouterr().err


def test_mesh_file_with_a_stray_point_is_config_error(tmp_path, capsys):
    # a rectangle plus one point no cell uses, written as `write_vtk` would
    # write such a mesh
    rect = mi.generate_rectangle(1.0, 1.0, 2, 2)
    stray = types.SimpleNamespace(
        vertices=np.vstack([rect.vertices, [[5.0, 5.0]]]), cells=rect.cells,
        n_vertices=rect.n_vertices + 1, n_cells=rect.n_cells,
        embedding_dim=2, intrinsic_dim=2)
    vtk = tmp_path / "stray.vtk"
    write_vtk(stray, {}, vtk)
    path = write_config(tmp_path, mesh={"path": str(vtk)})
    assert main(["mesh", "--config", str(path)]) == 2
    assert (f"config error: mesh.path: {vtk}: vertices in no cell: [9]"
            in capsys.readouterr().err)


def test_uncreatable_output_directory_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path)
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    for out in (blocker / "sub", blocker):
        assert main(["mesh", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert str(out) in err[0]
    # the same from the config's output_dir
    nested = write_config(tmp_path, output_dir=str(blocker / "sub"))
    assert main(["mesh", "--config", str(nested)]) == 2


def test_failed_stage_write_is_an_error(tmp_path, capsys):
    path = write_config(tmp_path)
    target = tmp_path / "out" / "mesh.vtk"
    target.mkdir(parents=True)      # the stage cannot open it for writing
    assert main(["mesh", "--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error [mesh]: ")
    assert str(target) in err[0]


def test_kinetics_params_error_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, kinetics={"params": {"a": -1}})
    assert main(["isolate", "--config", str(path)]) == 2
    assert "config error: kinetics" in capsys.readouterr().err


@pytest.mark.parametrize("kinetics", [{"model": "schnakenbrg"},
                                      {"params": {"q": 1.0}},
                                      {"params": {"a": -1.0}}])
@pytest.mark.parametrize("command", ["mesh", "eigs"])
def test_kinetics_checked_on_reading(tmp_path, capsys, command, kinetics):
    # stages that never build the model reject a bad one too
    path = write_config(tmp_path, kinetics=kinetics)
    assert main([command, "--config", str(path)]) == 2
    assert "config error: kinetics" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, eigensolver={"count": 6, "seed": -1})
    assert main(["isolate", "--config", str(path)]) == 2
    assert "config error: eigensolver.seed" in capsys.readouterr().err
    path = write_config(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["isolate", "--config", str(path), "--seed", "-3"])
    assert exit_info.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("preset", ["dumbbell", "fish"])
def test_3d_deformation_on_a_planar_mesh_is_a_config_error(tmp_path, capsys,
                                                            preset):
    path = write_config(tmp_path, mesh={
        "generator": "rectangle",
        "params": {"lx": 1.0, "ly": 1.0, "nx": 8, "ny": 8},
        "deformation": preset})
    assert main(["mesh", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error: mesh.deformation" in err and "3D" in err


def test_match_before_simulate_fails(tmp_path):
    path = write_config(tmp_path)
    assert main(["match", "--config", str(path)]) == 1


def test_match_on_truncated_state_is_an_error(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["mesh", "--config", str(path)]) == 0
    data, at = vtk_headers(tmp_path / "out" / "mesh.vtk")
    cut = block_start(data, at["POINTS"]) + 5 * 24  # 5 of 81 points
    (tmp_path / "out" / "final_state.vtk").write_bytes(data[:cut])
    capsys.readouterr()
    assert main(["match", "--config", str(path)]) == 1
    assert "error [match]:" in capsys.readouterr().err


def test_match_needs_a_finite_u_field(tmp_path, capsys):
    path = write_config(tmp_path)
    state = tmp_path / "out" / "final_state.vtk"
    assert main(["mesh", "--config", str(path)]) == 0
    os.replace(tmp_path / "out" / "mesh.vtk", state)  # no fields at all
    capsys.readouterr()
    assert main(["match", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error [match]:" in err and "'u'" in err
    # a non-finite u, as a diverged run leaves, must not pass the threshold
    assert main(["pipeline", "--config", str(path)]) == 0
    data, at = vtk_headers(state)
    assert data[at["SCALARS"]:].startswith(b"SCALARS u double 1\n")
    u = block_start(data, at["LOOKUP_TABLE"])
    state.write_bytes(data[:u] + struct.pack(">d", np.nan) + data[u + 8:])
    capsys.readouterr()
    assert main(["match", "--config", str(path)]) == 1
    assert "finite 'u'" in capsys.readouterr().err


def test_match_error_names_the_rejected_state_file(tmp_path, capsys):
    path = write_config(tmp_path)
    state = tmp_path / "out" / "final_state.vtk"
    assert main(["mesh", "--config", str(path)]) == 0
    data, at = vtk_headers(tmp_path / "out" / "mesh.vtk")
    assert data[at["POINTS"]:].startswith(b"POINTS 81 double\n")
    point = block_start(data, at["POINTS"]) + 2 * 24  # the third point
    state.write_bytes(data[:point] + struct.pack(">3d", 0.5, np.nan, 0.0)
                      + data[point + 24:])
    capsys.readouterr()
    assert main(["match", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "non-finite" in err and str(state) in err


def test_match_refuses_a_legacy_ascii_state(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["mesh", "--config", str(path)]) == 0
    (tmp_path / "out" / "final_state.vtk").write_text(
        "# vtk DataFile Version 3.0\nmodeiso mesh\nASCII\n"
        "DATASET UNSTRUCTURED_GRID\nPOINTS 3 double\n"
        "0 0 0\n1 0 0\n0 1 0\nCELLS 1 4\n3 0 1 2\nCELL_TYPES 1\n5\n")
    capsys.readouterr()
    assert main(["match", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error [match]:" in err
    assert "legacy ASCII VTK is not read; expected BINARY" in err


def _eigenvector_state(tmp_path, path, index):
    """A final_state.vtk whose u is 3 + the run's eigenvector `index`."""
    assert main(["eigs", "--config", str(path)]) == 0
    mesh, fields = read_vtk(str(tmp_path / "out" / "eigenvectors.vtk"))
    write_vtk(mesh, {"u": 3.0 + fields[f"ev_{index:03d}"]},
              str(tmp_path / "out" / "final_state.vtk"))


def test_match_scores_against_the_excited_set(tmp_path):
    path = write_config(tmp_path)   # target 1 excites the pair (1, 2)
    _eigenvector_state(tmp_path, path, 2)
    assert main(["match", "--config", str(path)]) == 0
    # eigenvector 3 is a mode of its own, outside the excited set
    _eigenvector_state(tmp_path, path, 3)
    assert main(["match", "--config", str(path)]) == 3
    match = json.loads((tmp_path / "out" / "match.json").read_text())
    assert match["eigenspace"] == [1, 2]
    assert match["correlation"] < 0.3


def test_match_after_a_pair_that_excites_nothing_fails(tmp_path, capsys):
    path = write_config(tmp_path, isolation={"d": 10.0, "gamma": 0.01})
    assert main(["isolate", "--config", str(path)]) == 1
    _eigenvector_state(tmp_path, path, 1)
    capsys.readouterr()
    assert main(["match", "--config", str(path)]) == 1
    assert "error [match]:" in capsys.readouterr().err


def test_pipeline_stops_after_a_pair_that_excites_nothing(tmp_path, capsys):
    path = write_config(tmp_path, isolation={"d": 10.0, "gamma": 0.01})
    assert main(["pipeline", "--config", str(path)]) == 1
    assert "status=failed" in capsys.readouterr().out
    isolation = json.loads((tmp_path / "out" / "isolation.json").read_text())
    assert isolation["status"] == "failed" and isolation["excited"] == []
    assert sorted(os.listdir(tmp_path / "out")) == ["isolation.json"]


def test_match_refuses_a_state_grown_on_another_mesh(tmp_path, capsys):
    path = write_config(tmp_path)
    state = str(tmp_path / "out" / "final_state.vtk")
    _eigenvector_state(tmp_path, path, 2)
    mesh, _ = read_vtk(state)
    others = [mi.generate_rectangle(1.0, 1.0, 4, 4),   # other cells
              mi.Mesh(mesh.vertices * 2.0, mesh.cells)]  # other vertices
    for other in others:
        write_vtk(other, {"u": np.ones(other.n_vertices)}, state)
        capsys.readouterr()
        assert main(["match", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error [match]:" in err and "another mesh" in err


def test_pipeline_on_a_vtk_file_repeats_the_generator_run(tmp_path):
    mesh_file = tmp_path / "icosphere2.vtk"
    write_vtk(mi.generate_icosphere(2), {}, mesh_file)
    with open(os.path.join(ROOT, "configs", "sphere_l2.yaml")) as fh:
        config = yaml.safe_load(fh)
    names = ["isolation.json", "outcome.json", "match.json",
             "derivative_history.csv", "final_state.vtk"]
    runs = {}
    for name, mesh in (("generator", config["mesh"]),
                       ("file", {"path": str(mesh_file)})):
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(
            {**config, "mesh": mesh, "output_dir": str(tmp_path / name)}))
        assert main(["pipeline", "--config", str(path)]) == 0
        runs[name] = {n: re.sub(rb"config_sha256=[0-9a-f]+", b"",
                                (tmp_path / name / n).read_bytes())
                      for n in names}
    assert runs["file"] == runs["generator"]


def test_target_and_pair_together_is_a_config_error(tmp_path):
    path = write_config(tmp_path, isolation={"target_index": 1, "d": 10.0,
                                             "gamma": 20.0})
    for command in ("isolate", "simulate", "pipeline"):
        assert main([command, "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_pipeline_end_to_end(tmp_path, capsys):
    path = write_config(tmp_path)
    code = main(["pipeline", "--config", str(path)])
    out_dir = tmp_path / "out"
    assert code == 0, capsys.readouterr()
    match = json.loads((out_dir / "match.json").read_text())
    assert match["correlation"] >= 0.8
    assert set(match["eigenspace"]) == {1, 2}
    history = (out_dir / "derivative_history.csv").read_text().splitlines()
    assert history[1] == "t,derivative_norm"
    assert len(history) > 3
    assert (out_dir / "final_state.vtk").exists()
    assert sorted(os.listdir(out_dir)) == [
        "derivative_history.csv", "final_state.vtk", "isolation.json",
        "match.json", "outcome.json"]
    outcome = json.loads((out_dir / "outcome.json").read_text())
    assert outcome["status"] == "converged"
    assert outcome["ptc_steps"] > 0   # the growth was finished by PTC
    assert 0.0 <= outcome["residual_norm"] < 1e-4
    # match subcommand reuses the saved state
    assert main(["match", "--config", str(path)]) == 0
    # ... and enforces the threshold like the pipeline does; a threshold
    # is at most 1, so take one between the correlation and 1
    assert match["correlation"] < 1.0
    strict = write_config(tmp_path, match={
        "threshold": (match["correlation"] + 1.0) / 2})
    assert main(["match", "--config", str(strict)]) == 3


def test_simulate_with_an_explicit_pair_computes_no_spectrum(tmp_path,
                                                             monkeypatch):
    def no_spectrum(*args, **kwargs):
        raise AssertionError("the spectrum was computed")
    monkeypatch.setattr("modeiso.cli.smallest_eigenpairs", no_spectrum)
    # the pair isolate reports for target 1 on this square
    path = write_config(tmp_path, isolation={"d": 10.2812,
                                             "gamma": 30.1386})
    assert main(["simulate", "--config", str(path)]) == 0
    outcome = json.loads((tmp_path / "out" / "outcome.json").read_text())
    assert outcome["status"] == "converged"


def test_seed_override_changes_outputs(tmp_path):
    path = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["pipeline", "--config", str(path), "--out", str(out_a)])
    main(["pipeline", "--config", str(path), "--out", str(out_b),
          "--seed", "99"])
    a = (out_a / "final_state.vtk").read_bytes()
    b = (out_b / "final_state.vtk").read_bytes()
    assert a != b


def test_unknown_command_rejected(tmp_path):
    path = write_config(tmp_path)
    with pytest.raises(SystemExit):
        main(["transmogrify", "--config", str(path)])
