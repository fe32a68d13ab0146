"""The package's import graph and its public names.

`import modeiso` loads no submodule, and reading a config needs numpy
and PyYAML only: scipy loads with the first module that solves or
assembles.  The import checks run in a fresh interpreter each, since
this one has loaded every module already.
"""

import glob
import importlib
import os

import pytest

import modeiso as mi
from conftest import ROOT, run_python
from modeiso import simulator

# every public name, grouped by the submodule that binds it
PUBLIC = {
    "config": ["ConfigError", "RunConfig", "load_config"],
    "eigensolver": ["EigensolverError", "Spectrum", "dense_generalized_eig",
                    "smallest_eigenpairs"],
    "fem": ["assemble_mass", "assemble_stiffness", "interpolate", "m_inner",
            "m_norm"],
    "isolation": ["IsolationError", "IsolationResult", "IsolationStatus",
                  "isolate_mode", "pair_isolation"],
    "kinetics": ["Jacobian2x2", "KineticsError", "KineticsModel",
                 "SteadyState", "critical_diffusion_ratio", "dispersion",
                 "gierer_meinhardt", "make_model", "schnakenberg", "thomas",
                 "wavenumber_window"],
    "mesh": ["DEFORMATION_PRESETS", "Mesh", "MeshError", "MeshKind",
             "dumbbell_map", "ellipse_map", "fish_map", "generate_ball",
             "generate_disk", "generate_icosphere", "generate_interval",
             "generate_rectangle", "generate_tube", "map_vertices"],
    "meshio": ["MeshIOError", "read_vtk", "write_vtk"],
    "pattern_metrics": ["MatchReport", "match_pattern"],
    "reference_spectra": ["AnalyticEigenvalue", "bessel_derivative_roots",
                          "rectangle_neumann", "sphere_bulk_spectrum",
                          "sphere_surface_spectrum"],
    "simulator": ["SimulationConfig", "SimulationOutcome", "SimulationStatus",
                  "initial_condition", "simulate"],
    "solvers": ["LinearSolveError", "SpdSolver"],
}

ALL = [
    "AnalyticEigenvalue", "ConfigError", "DEFORMATION_PRESETS",
    "EigensolverError", "IsolationError", "IsolationResult", "IsolationStatus",
    "Jacobian2x2", "KineticsError", "KineticsModel", "LinearSolveError",
    "MatchReport", "Mesh", "MeshError", "MeshIOError", "MeshKind",
    "RunConfig", "SimulationConfig", "SimulationOutcome", "SimulationStatus",
    "SpdSolver", "Spectrum", "SteadyState", "assemble_mass",
    "assemble_stiffness", "bessel_derivative_roots", "config",
    "critical_diffusion_ratio", "dense_generalized_eig", "dispersion",
    "dumbbell_map", "eigensolver", "ellipse_map", "fem", "fish_map",
    "generate_ball", "generate_disk", "generate_icosphere",
    "generate_interval", "generate_rectangle", "generate_tube",
    "gierer_meinhardt", "initial_condition", "interpolate", "isolate_mode",
    "isolation", "kinetics", "load_config", "m_inner", "m_norm", "make_model",
    "map_vertices", "match_pattern", "mesh", "meshio", "pair_isolation",
    "pattern_metrics", "read_vtk", "rectangle_neumann",
    "reference_spectra", "schnakenberg", "simulate", "simulator",
    "smallest_eigenpairs", "solvers", "sphere_bulk_spectrum",
    "sphere_surface_spectrum", "thomas",
    "wavenumber_window", "write_vtk",
]


def modules_loaded_by(code: str) -> set[str]:
    """The names in `sys.modules` after running `code` in a fresh
    interpreter."""
    proc = run_python(["-c", code + "\nimport sys\nprint(*sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_reading_every_config_loads_no_scipy():
    configs = sorted(glob.glob(os.path.join(ROOT, "configs", "*.yaml")))
    assert configs
    loaded = modules_loaded_by(
        "import modeiso\nfrom modeiso.config import load_config\n"
        + "".join(f"load_config({path!r})\n" for path in configs))
    assert "modeiso.config" in loaded
    assert sorted(m for m in loaded
                  if m == "scipy" or m.startswith("scipy.")) == []


def test_cli_loads_no_reference_spectra():
    loaded = modules_loaded_by("import modeiso.cli")
    assert "modeiso.simulator" in loaded
    assert "modeiso.reference_spectra" not in loaded
    assert "scipy.special" not in loaded


def test_public_names_pinned():
    assert sorted(mi.__all__) == ALL
    # the grouping covers the same names: the submodules and their exports
    assert sorted([*PUBLIC, *(name for names in PUBLIC.values()
                              for name in names)]) == ALL
    assert set(ALL) <= set(dir(mi))


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_submodules_binding(module):
    sub = importlib.import_module(f"modeiso.{module}")
    assert getattr(mi, module) is sub
    for name in PUBLIC[module]:
        assert getattr(mi, name) is getattr(sub, name), name


def test_names_follow_the_submodules_current_binding(monkeypatch):
    def patched(*args, **kwargs):
        raise AssertionError("not called")
    original = mi.simulate
    monkeypatch.setattr(simulator, "simulate", patched)
    assert mi.simulate is patched
    monkeypatch.undo()
    assert mi.simulate is original


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        mi.nope
    assert not hasattr(mi, "nope")
