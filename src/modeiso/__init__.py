"""Finite element mode isolation for reaction-diffusion patterning.

The toolkit covers the whole workflow: simplicial mesh generation and
deformation, P1 mass/stiffness assembly (including Laplace-Beltrami on
surfaces), a shift-invert Lanczos eigensolver, analytic reference
spectra, Turing analysis of three reaction kinetics, the (d, gamma)
mode-isolation search, a linearly implicit growth march and quantitative
pattern matching, tied together by a YAML-driven command line pipeline.

Importing the package loads no submodule.  Each public name is resolved
from its submodule on first access (PEP 562), so reading a config needs
numpy and PyYAML only, and scipy loads with the first module that
solves, assembles or evaluates a special function.  A name is never
cached here: `modeiso.X` always reads the submodule's current binding.
"""

import importlib as _importlib

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("ConfigError", "RunConfig", "load_config"),
    "eigensolver": ("EigensolverError", "Spectrum", "dense_generalized_eig",
                    "smallest_eigenpairs"),
    "fem": ("assemble_mass", "assemble_stiffness", "interpolate", "m_inner",
            "m_norm"),
    "isolation": ("IsolationError", "IsolationResult", "IsolationStatus",
                  "isolate_mode", "pair_isolation"),
    "kinetics": ("Jacobian2x2", "KineticsError", "KineticsModel",
                 "SteadyState", "critical_diffusion_ratio", "dispersion",
                 "gierer_meinhardt", "make_model", "schnakenberg", "thomas",
                 "wavenumber_window"),
    "mesh": ("DEFORMATION_PRESETS", "Mesh", "MeshError", "MeshKind",
             "dumbbell_map", "ellipse_map", "fish_map", "generate_ball",
             "generate_disk", "generate_icosphere", "generate_interval",
             "generate_rectangle", "generate_tube", "map_vertices"),
    "meshio": ("MeshIOError", "read_vtk", "write_vtk"),
    "pattern_metrics": ("MatchReport", "match_pattern"),
    "reference_spectra": ("AnalyticEigenvalue", "bessel_derivative_roots",
                          "rectangle_neumann", "sphere_bulk_spectrum",
                          "sphere_surface_spectrum"),
    "simulator": ("SimulationConfig", "SimulationOutcome", "SimulationStatus",
                  "initial_condition", "simulate"),
    "solvers": ("LinearSolveError", "SpdSolver"),
}

# public name -> the submodule that binds it; a submodule maps to itself
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}
_SOURCE.update((module, module) for module in _EXPORTS)

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _importlib.import_module(f".{_SOURCE[name]}", __name__)
    return module if name == _SOURCE[name] else getattr(module, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
