import re

import numpy as np
import pytest
import yaml

import modeiso as mi
from modeiso.cli import main
from modeiso.config import ConfigError, RunConfig, load_config
from modeiso.meshio import write_vtk

MINIMAL = {
    "mesh": {"generator": "rectangle",
             "params": {"lx": 1.0, "ly": 1.0, "nx": 4, "ny": 4}},
    "isolation": {"target_index": 1},
}


def test_minimal_config_defaults():
    config = RunConfig.parse(MINIMAL)
    assert config.kinetics.model == "schnakenberg"
    assert config.eigensolver["count"] == 12
    assert config.simulation["tau"] == 1e-3
    assert config.simulation["stop_tol"] == 1e-4
    assert config.match["threshold"] == 0.8
    assert config.output_dir == "out"


def test_mesh_build_from_generator():
    mesh = RunConfig.parse(MINIMAL).mesh.build()
    assert mesh.n_vertices == 25


def test_mesh_build_from_path(tmp_path):
    ball, path = mi.generate_ball(0), str(tmp_path / "ball.vtk")
    # the file's point fields are ignored
    write_vtk(ball, {"u": np.ones(ball.n_vertices)}, path)
    built = RunConfig.parse(dict(MINIMAL, mesh={"path": path})).mesh.build()
    assert np.array_equal(built.vertices, ball.vertices)
    assert np.array_equal(built.cells, ball.cells)


def test_deformation_applies_to_a_mesh_from_path(tmp_path):
    sphere, path = mi.generate_icosphere(1), str(tmp_path / "sphere.vtk")
    write_vtk(sphere, {}, path)
    built = RunConfig.parse(dict(MINIMAL, mesh={
        "path": path, "deformation": "dumbbell"})).mesh.build()
    want = mi.map_vertices(sphere, mi.DEFORMATION_PRESETS["dumbbell"])
    assert np.array_equal(built.vertices, want.vertices)


def test_unknown_key_rejected_with_path():
    # growth writes no snapshots: no stride knob
    for key, value in (("tua", 1e-3), ("snapshot_stride", 100)):
        bad = dict(MINIMAL, simulation={key: value})
        with pytest.raises(ConfigError, match="simulation: unknown keys"):
            RunConfig.parse(bad)
    # the match is scored against the isolation's excited set: no gap knob
    bad = dict(MINIMAL, match={"cluster_gap": 1e-3})
    with pytest.raises(ConfigError, match="match: unknown keys"):
        RunConfig.parse(bad)
    # the admissible gamma interval is computed: no start or step budget,
    # and the eps ladder's start and the cluster gap are constants
    for key, value in (("gamma0", 10.0), ("max_iters", 500), ("eps0", 0.1),
                       ("delta", 1e-3)):
        bad = dict(MINIMAL, isolation={"target_index": 1, key: value})
        with pytest.raises(ConfigError, match="isolation: unknown keys"):
            RunConfig.parse(bad)


@pytest.mark.parametrize("section", ["mesh", "kinetics", "eigensolver",
                                     "isolation", "simulation", "match"])
def test_section_that_is_a_list_rejected(section):
    bad = dict(MINIMAL, **{section: [1, 2]})
    with pytest.raises(ConfigError,
                       match=rf"^{section}: expected a mapping, got list$"):
        RunConfig.parse(bad)


def test_output_dir_must_be_a_string():
    for value in (3, ["out"], None):
        with pytest.raises(ConfigError, match="^output_dir: expected a "
                           "string$"):
            RunConfig.parse(dict(MINIMAL, output_dir=value))


def test_unknown_generator_rejected():
    bad = dict(MINIMAL, mesh={"generator": "torus"})
    with pytest.raises(ConfigError, match="generator"):
        RunConfig.parse(bad)


def test_generator_and_path_mutually_exclusive():
    bad = dict(MINIMAL, mesh={"generator": "disk", "path": "x.vtk"})
    with pytest.raises(ConfigError, match="exactly one"):
        RunConfig.parse(bad)


def test_negative_tau_rejected():
    # 0.05 is above MAX_STABLE_TAU: rejected here, before any stage runs
    for tau in (-1e-3, 0.05):
        bad = dict(MINIMAL, simulation={"tau": tau})
        with pytest.raises(ConfigError, match=r"simulation\.tau"):
            RunConfig.parse(bad)


def test_eigensolver_tol_below_floor_rejected(tmp_path, capsys):
    # tol 1e-12 failed every mesh tried: a shift-invert solve missed its
    # residual check, or with a larger shift the Krylov space stagnated
    bad = dict(MINIMAL, eigensolver={"tol": 1e-12})
    with pytest.raises(ConfigError, match=r"^eigensolver\.tol: expected at "
                       r"least 1e-11, got 1e-12$"):
        RunConfig.parse(bad)
    ok = dict(MINIMAL, eigensolver={"tol": 1e-11})
    assert RunConfig.parse(ok).eigensolver["tol"] == 1e-11
    path = tmp_path / "tight.yaml"
    path.write_text(yaml.safe_dump(dict(bad, output_dir=str(tmp_path / "o"))))
    assert main(["eigs", "--config", str(path)]) == 2
    assert "eigensolver.tol" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_match_threshold_at_most_one():
    # the correlation is the M-projection of a normalized pattern, so at
    # most 1: a higher threshold fails every run, after the whole pipeline
    bad = dict(MINIMAL, match={"threshold": 80})
    with pytest.raises(ConfigError, match=r"^match\.threshold: expected at "
                       r"most 1, got 80$"):
        RunConfig.parse(bad)
    ok = dict(MINIMAL, match={"threshold": 1.0})
    assert RunConfig.parse(ok).match["threshold"] == 1.0


# YAML `true` and `.inf` load as the Python bool and float they look like
@pytest.mark.parametrize("section, key, value", [
    ("simulation", "max_time", float("inf")),
    ("eigensolver", "count", True),
    ("eigensolver", "tol", float("inf")),
    ("isolation", "gamma", float("inf")),
])
def test_bool_or_infinite_number_rejected(section, key, value):
    bad = dict(MINIMAL, **{section: {**MINIMAL.get(section, {}), key: value}})
    with pytest.raises(ConfigError, match=rf"{section}\.{key}"):
        RunConfig.parse(bad)


# the nested parameter mappings follow the same rule: the generator's
# signature types each mesh parameter, and a kinetics parameter is a number
@pytest.mark.parametrize("section, node, path", [
    ("kinetics", {"params": {"a": True}}, "kinetics.params.a"),
    ("kinetics", {"params": {"a": float("inf")}}, "kinetics.params.a"),
    ("kinetics", {"model": "gierer_meinhardt", "params": {"k": float("nan")}},
     "kinetics.params.k"),
    ("mesh", {"generator": "rectangle",
              "params": {"lx": 1.0, "ly": 1.0, "nx": True, "ny": 4}},
     "mesh.params.nx"),
    ("mesh", {"generator": "rectangle",
              "params": {"lx": float("inf"), "ly": 1.0, "nx": 4, "ny": 4}},
     "mesh.params.lx"),
    ("mesh", {"generator": "tube",
              "params": {"length": 4.0, "radius": 0.5, "closed_ends": 1,
                         "refinement": 2}},
     "mesh.params.closed_ends"),
    ("mesh", {"path": "x.vtk", "params": {"refinement": 2}},
     "mesh.params"),
])
def test_nested_params_rejected(section, node, path):
    with pytest.raises(ConfigError, match=re.escape(path)):
        RunConfig.parse(dict(MINIMAL, **{section: node}))


def test_tube_closed_ends_is_a_bool():
    mesh = {"generator": "tube", "params": {
        "length": 4.0, "radius": 0.5, "closed_ends": True, "refinement": 0}}
    assert RunConfig.parse(dict(MINIMAL, mesh=mesh)).mesh.params[
        "closed_ends"] is True


@pytest.mark.parametrize("section", ["eigensolver", "simulation"])
def test_negative_seed_rejected(section):
    bad = dict(MINIMAL, **{section: {"seed": -1}})
    with pytest.raises(ConfigError, match=rf"{section}\.seed"):
        RunConfig.parse(bad)


def test_isolation_needs_target_or_pair():
    # with a target and a pair, `isolate` and `simulate` would disagree
    for isolation in ({}, {"gamma": 20.0}, {"target_index": 1, "d": 10.0},
                      {"target_index": 1, "d": 10.0, "gamma": 20.0}):
        bad = dict(MINIMAL, isolation=isolation)
        with pytest.raises(ConfigError, match="exactly one of 'target_index'"):
            RunConfig.parse(bad)
    ok = dict(MINIMAL, isolation={"d": 10.0, "gamma": 15.0})
    assert RunConfig.parse(ok).isolation["d"] == 10.0


def test_unknown_deformation_rejected():
    bad = dict(MINIMAL, mesh={"generator": "icosphere",
                              "params": {"refinement": 1},
                              "deformation": "banana"})
    with pytest.raises(ConfigError, match="deformation"):
        RunConfig.parse(bad)


def test_digest_stable_and_sensitive():
    a = RunConfig.parse(MINIMAL).digest()
    b = RunConfig.parse(MINIMAL).digest()
    assert a == b and len(a) == 16
    # a change in any section moves the digest
    for section, node in (
            ("mesh", {"generator": "rectangle", "params": {
                "lx": 2.0, "ly": 1.0, "nx": 4, "ny": 4}}),
            ("kinetics", {"params": {"a": 0.8}}),
            ("eigensolver", {"count": 6}),
            ("isolation", {"target_index": 2}),
            ("simulation", {"seed": 9}),
            ("match", {"threshold": 0.9})):
        changed = dict(MINIMAL, **{section: node})
        assert RunConfig.parse(changed).digest() != a, section
    # where the outputs go is not part of what they are
    moved = dict(MINIMAL, output_dir="elsewhere")
    assert RunConfig.parse(moved).digest() == a


def test_load_config_yaml(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(MINIMAL))
    config = load_config(path)
    assert config.mesh.generator == "rectangle"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.yaml")


def test_load_config_bad_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("mesh: [unclosed")
    with pytest.raises(ConfigError, match="YAML"):
        load_config(path)


def test_kinetics_params_forwarded():
    cfg = dict(MINIMAL, kinetics={"model": "gierer_meinhardt",
                                  "params": {"a": 0.2}})
    model = RunConfig.parse(cfg).kinetics.build()
    assert model.params["a"] == 0.2
    bad = dict(MINIMAL, kinetics={"model": "schnakenberg",
                                  "params": {"q": 1.0}})
    with pytest.raises(ConfigError):
        RunConfig.parse(bad).kinetics.build()
