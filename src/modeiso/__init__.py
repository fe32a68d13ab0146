"""Finite element mode isolation for reaction-diffusion patterning.

The toolkit covers the whole workflow: simplicial mesh generation and
deformation, P1 mass/stiffness assembly (including Laplace-Beltrami on
surfaces), a shift-invert Lanczos eigensolver, analytic reference
spectra, Turing analysis of three reaction kinetics, the (d, gamma)
mode-isolation search, a linearly implicit growth march and quantitative
pattern matching, tied together by a YAML-driven command line pipeline.
"""

from .config import ConfigError, RunConfig, load_config
from .eigensolver import (EigensolverError, Spectrum, dense_generalized_eig,
                          smallest_eigenpairs)
from .fem import (assemble_mass, assemble_stiffness, interpolate, m_inner,
                  m_norm)
from .isolation import (IsolationError, IsolationResult, IsolationStatus,
                        isolate_mode, pair_isolation, verify_isolation)
from .kinetics import (Jacobian2x2, KineticsError, KineticsModel, SteadyState,
                       critical_diffusion_ratio, dispersion, gierer_meinhardt,
                       make_model, schnakenberg, thomas, wavenumber_window)
from .mesh import (DEFORMATION_PRESETS, Mesh, MeshError, MeshKind,
                   dumbbell_map, ellipse_map, fish_map, generate_ball,
                   generate_disk, generate_icosphere, generate_interval,
                   generate_rectangle, generate_tube, map_vertices)
from .meshio import MeshIOError, read_off, read_vtk, write_vtk
from .pattern_metrics import MatchReport, match_pattern
from .reference_spectra import (AnalyticEigenvalue, bessel_derivative_roots,
                                rectangle_neumann, sphere_bulk_spectrum,
                                sphere_surface_spectrum)
from .simulator import (SimulationConfig, SimulationOutcome, SimulationStatus,
                        initial_condition, simulate)
from .solvers import LinearSolveError, SpdSolver

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
