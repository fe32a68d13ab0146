"""Layer spans recorded from outside the program.

`Tracer.install()` replaces the public entry points of each `modeiso`
module with thin wrappers, in every module namespace that bound them, so
calls made by `modeiso.cli` are seen as well as calls made by the
benchmark.  Each wrapper records a span: its layer name, its duration and
the time covered by its child spans, so a layer's self time is its
duration minus that of the layers it called.  Spans are only recorded
between `start()` and `stop()`, which the benchmark puts around the timed
operation and nowhere else, so the checker's own calls stay untraced.

Solver calls are attributed to the caller that owns them: `sim` under
`simulator.simulate`, `eig` under `eigensolver.smallest_eigenpairs`.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

from modeiso import config as config_mod
from modeiso import eigensolver, fem, isolation, meshio, pattern_metrics
from modeiso import simulator, solvers

SOLVER_CONTEXTS = {"simulator.simulate": "sim", "eigensolver.eigs": "eig"}


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []   # [name, start, child seconds]
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def _push(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _pop(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def _context(self) -> str:
        for name, _, _ in reversed(self._stack):
            if name in SOLVER_CONTEXTS:
                return SOLVER_CONTEXTS[name]
        return "other"

    def start(self, root: str) -> None:
        """Open the root span of one timed operation."""
        self.enabled = True
        self._push(root)

    def stop(self) -> None:
        """Close the root span."""
        self._pop()
        self.enabled = False

    def _wrap(self, fn, layer, on_result=None, on_error=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            name = layer(args) if callable(layer) else layer
            tracer._push(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._pop()
                if on_error is not None:
                    on_error(exc)
                raise
            tracer._pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap each layer's entry points wherever `modeiso` bound them."""
        c = self.counts

        def solver_layer(kind):
            return lambda args: f"solvers.{self._context()}.{kind}"

        def count_solve(args, kwargs, result):
            c[f"solvers.{self._context()}.solves"] += 1

        def mesh_built(args, kwargs, mesh):
            c["mesh.vertices"] += mesh.n_vertices

        def assembled(args, kwargs, matrix):
            c["fem.nnz"] += matrix.nnz

        def eigs_done(args, kwargs, spectrum):
            c["eigensolver.pairs"] += len(spectrum)

        def eigs_failed(exc):
            if isinstance(exc, eigensolver.EigensolverError):
                c["eigensolver.errors"] += 1

        def simulated(args, kwargs, outcome):
            config = args[1] if len(args) > 1 else kwargs["config"]
            c["simulator.steps"] += round(outcome.elapsed / config.tau)
            c["simulator.t_final"] += outcome.elapsed

        def written(args, kwargs, result):
            path = args[2] if len(args) > 2 else kwargs["path"]
            c["meshio.files"] += 1
            c["meshio.bytes"] += os.path.getsize(path)

        def isolated(args, kwargs, result):
            c["isolation.walk_len"] += len(result.trace)

        def matched(args, kwargs, report):
            c["pattern_metrics.corr_sum"] += report.correlation
            c["pattern_metrics.matches"] += 1

        functions = [
            (config_mod.load_config, "config.load", None, None),
            (fem.assemble_mass, "fem.assemble", assembled, None),
            (fem.assemble_stiffness, "fem.assemble", assembled, None),
            (eigensolver.smallest_eigenpairs, "eigensolver.eigs", eigs_done,
             eigs_failed),
            (simulator.simulate, "simulator.simulate", simulated, None),
            (meshio.write_vtk, "meshio.write", written, None),
            (meshio.read_vtk, "meshio.read", None, None),
            (isolation.isolate_mode, "isolation.isolate", isolated, None),
            (pattern_metrics.match_pattern, "pattern_metrics.match", matched,
             None),
        ]
        for fn, layer, on_result, on_error in functions:
            self._rebind(fn, self._wrap(fn, layer, on_result, on_error))

        methods = [
            (config_mod.MeshSpec, "build", "mesh.build", mesh_built),
            (solvers.SpdSolver, "__init__", solver_layer("factor"), None),
            (solvers.SpdSolver, "solve", solver_layer("solve"), count_solve),
        ]
        for cls, attr, layer, on_result in methods:
            original = getattr(cls, attr)
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, layer, on_result))

    def uninstall(self) -> None:
        """Put back every original that `install` replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, fn, wrapper) -> None:
        """Replace `fn` by `wrapper` in every loaded `modeiso` namespace."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "modeiso"
                                      or name.startswith("modeiso.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, wrapper)
