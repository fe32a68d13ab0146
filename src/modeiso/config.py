"""Run configuration: a strict YAML schema binding the pipeline together.

Unknown keys are rejected with the full field path so typos never pass
silently.  The mesh comes from a named generator or from the legacy
BINARY VTK file that `mesh.path` names (the format `modeiso mesh`
writes), either one optionally deformed.  Kinetics parameters default
to the built-in model defaults.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any

import yaml

from . import mesh as meshmod
from .kinetics import (MAX_STABLE_TAU, KineticsError, KineticsModel,
                       make_model)
from .mesh import DEFORMATION_PRESETS, Mesh


# below this the eigensolver cannot reach its tolerance: the shift-invert
# solves' rounding fails their residual check, or, with the shift grown to
# avoid that, the Krylov space stagnates (eigensolver.default_shift)
MIN_EIGENSOLVER_TOL = 1e-11


class ConfigError(ValueError):
    """Configuration parse or validation failure; message carries the
    offending field path."""


_GENERATORS = {
    "interval": meshmod.generate_interval,
    "rectangle": meshmod.generate_rectangle,
    "disk": meshmod.generate_disk,
    "icosphere": meshmod.generate_icosphere,
    "ball": meshmod.generate_ball,
    "tube": meshmod.generate_tube,
}


def _require_mapping(node: Any, path: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed: set[str], path: str) -> None:
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}; "
                          f"allowed: {sorted(allowed)}")


def _is_number(value: Any) -> bool:
    """A finite int or float.  YAML `true` loads as a bool, which Python
    counts as an int, and `.inf` and `.nan` as floats: none is a number."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_params(params: dict, types: dict[str, type], path: str) -> None:
    """Each value has the type of its parameter, where an int is also a
    float and a number is finite."""
    for key, value in params.items():
        kind = types[key]
        if not (isinstance(value, bool) if kind is bool else _is_number(value)
                and (kind is float or isinstance(value, kind))):
            raise ConfigError(f"{path}.{key}: expected {kind.__name__}, "
                              f"got {value!r}")


@dataclass(frozen=True)
class MeshSpec:
    generator: str | None = None
    params: dict = field(default_factory=dict)
    path: str | None = None
    deformation: str | None = None

    @classmethod
    def parse(cls, node: Any) -> "MeshSpec":
        node = _require_mapping(node, "mesh")
        _check_keys(node, {"generator", "params", "path", "deformation"},
                    "mesh")
        for key in ("generator", "path", "deformation"):
            if node.get(key) is not None and not isinstance(node[key], str):
                raise ConfigError(f"mesh.{key}: expected a string, "
                                  f"got {node[key]!r}")
        gen = node.get("generator")
        path = node.get("path")
        if (gen is None) == (path is None):
            raise ConfigError("mesh: exactly one of 'generator' and "
                              "'path' is required")
        if gen is not None and gen not in _GENERATORS:
            raise ConfigError(f"mesh.generator: unknown generator {gen!r}; "
                              f"choose from {sorted(_GENERATORS)}")
        if path is not None and "params" in node:
            raise ConfigError("mesh.params: a mesh read from 'path' "
                              "takes no parameters")
        params = _require_mapping(node.get("params"), "mesh.params")
        if gen is not None:
            types = {name: p.annotation for name, p in inspect.signature(
                _GENERATORS[gen], eval_str=True).parameters.items()}
            _check_keys(params, set(types), "mesh.params")
            _check_params(params, types, "mesh.params")
        deformation = node.get("deformation")
        if deformation is not None and deformation not in DEFORMATION_PRESETS:
            raise ConfigError(
                f"mesh.deformation: unknown preset {deformation!r}; "
                f"choose from {sorted(DEFORMATION_PRESETS)}")
        return cls(generator=gen, params=dict(params), path=path,
                   deformation=deformation)

    def build(self) -> Mesh:
        if self.path is not None:
            from .meshio import MeshIOError, read_vtk
            try:
                mesh = read_vtk(self.path)[0]   # point fields are ignored
            except (OSError, MeshIOError, meshmod.MeshError) as exc:
                raise ConfigError(f"mesh.path: {exc}")
        else:
            try:
                mesh = _GENERATORS[self.generator](**self.params)
            except (TypeError, meshmod.MeshError) as exc:
                raise ConfigError(f"mesh.params: {exc}")
        if self.deformation is not None:
            try:
                mesh = meshmod.map_vertices(
                    mesh, DEFORMATION_PRESETS[self.deformation])
            except meshmod.MeshError as exc:
                raise ConfigError(f"mesh.deformation: {exc}")
        return mesh


@dataclass(frozen=True)
class KineticsSpec:
    model: str = "schnakenberg"
    params: dict = field(default_factory=dict)

    @classmethod
    def parse(cls, node: Any) -> "KineticsSpec":
        node = _require_mapping(node, "kinetics")
        _check_keys(node, {"model", "params"}, "kinetics")
        params = _require_mapping(node.get("params"), "kinetics.params")
        # every kinetics parameter is a rate or a constant: a real number
        _check_params(params, dict.fromkeys(params, float), "kinetics.params")
        spec = cls(model=node.get("model", "schnakenberg"),
                   params=dict(params))
        spec.build()    # a bad model name or parameter fails on reading
        return spec

    def build(self) -> KineticsModel:
        try:
            return make_model(self.model, **self.params)
        except (KineticsError, TypeError) as exc:
            raise ConfigError(f"kinetics: {exc}")


def _parse_scalar_section(node: Any, path: str, defaults: dict,
                          positives: set[str] = frozenset(),
                          ints: set[str] = frozenset()) -> dict:
    node = _require_mapping(node, path)
    _check_keys(node, set(defaults), path)
    out = dict(defaults)
    out.update(node)
    # a YAML `true` is a bool, which Python counts as an int: it is no
    # valid count, index or seed
    for key in ints:
        if out[key] is not None and (isinstance(out[key], bool)
                                     or not isinstance(out[key], int)
                                     or out[key] < 0):
            raise ConfigError(f"{path}.{key}: expected a non-negative integer")
    for key in positives:
        value = out[key]
        if value is not None and not (_is_number(value) and value > 0):
            raise ConfigError(f"{path}.{key}: expected a finite positive "
                              f"number, got {value!r}")
    return out


@dataclass(frozen=True)
class RunConfig:
    mesh: MeshSpec
    kinetics: KineticsSpec
    eigensolver: dict
    isolation: dict
    simulation: dict
    match: dict
    output_dir: str

    @classmethod
    def parse(cls, data: Any) -> "RunConfig":
        data = _require_mapping(data, "<root>")
        _check_keys(data, {"mesh", "kinetics", "eigensolver", "isolation",
                           "simulation", "match", "output_dir"}, "<root>")
        eig = _parse_scalar_section(
            data.get("eigensolver"), "eigensolver",
            {"count": 12, "tol": 1e-9, "seed": 0},
            positives={"count", "tol"}, ints={"count", "seed"})
        if eig["tol"] < MIN_EIGENSOLVER_TOL:
            raise ConfigError(f"eigensolver.tol: expected at least "
                              f"{MIN_EIGENSOLVER_TOL}, got {eig['tol']!r}")
        iso = _parse_scalar_section(
            data.get("isolation"), "isolation",
            {"target_index": None, "d": None, "gamma": None},
            positives={"d", "gamma"},
            ints={"target_index"})
        given = [iso[k] is not None for k in ("target_index", "d", "gamma")]
        if given not in ([True, False, False], [False, True, True]):
            raise ConfigError("isolation: exactly one of 'target_index' and "
                              "the explicit (d, gamma) pair is required")
        sim = _parse_scalar_section(
            data.get("simulation"), "simulation",
            {"tau": 1e-3, "stop_tol": 1e-4, "max_time": 100.0, "seed": 1,
             "amplitude": 0.01},
            positives={"tau", "stop_tol", "max_time", "amplitude"},
            ints={"seed"})
        if sim["tau"] > MAX_STABLE_TAU:
            raise ConfigError(f"simulation.tau: expected at most "
                              f"{MAX_STABLE_TAU}, got {sim['tau']!r}")
        match = _parse_scalar_section(
            data.get("match"), "match",
            {"threshold": 0.8}, positives={"threshold"})
        # the correlation, an M-projection of a normalized pattern, is at
        # most 1: a higher threshold fails every run
        if match["threshold"] > 1:
            raise ConfigError(f"match.threshold: expected at most 1, "
                              f"got {match['threshold']!r}")
        output_dir = data.get("output_dir", "out")
        if not isinstance(output_dir, str):
            raise ConfigError("output_dir: expected a string")
        return cls(mesh=MeshSpec.parse(data.get("mesh")),
                   kinetics=KineticsSpec.parse(data.get("kinetics")),
                   eigensolver=eig, isolation=iso, simulation=sim,
                   match=match, output_dir=output_dir)

    def digest(self) -> str:
        """Stable hash of the configuration, without the output
        directory, for output provenance."""
        payload = asdict(self)
        del payload["output_dir"]
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: YAML parse error: {exc}")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}")
    return RunConfig.parse(data)
