"""Self-tests of the benchmark: run with `python -m pytest perfbench`."""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import modeiso as mi  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def icosphere4_spectrum():
    mesh = mi.generate_icosphere(4)
    M, A = mi.assemble_mass(mesh), mi.assemble_stiffness(mesh)
    return mi.smallest_eigenpairs(A, M, count=9, tol=1e-9, seed=0)


def test_full_spectrum_passes_reference(icosphere4_spectrum):
    reference = mi.reference_spectra.eigenvalue_array(
        mi.sphere_surface_spectrum(30))
    assert checks.reference_problems(icosphere4_spectrum.eigenvalues,
                                     reference) == []


def test_dropped_l1_copy_fails_multiplicity(icosphere4_spectrum):
    s = icosphere4_spectrum
    dropped = mi.Spectrum(np.delete(s.eigenvalues, 2),
                          np.delete(s.vectors, 2, axis=1),
                          np.delete(s.residuals, 2), s.tolerance)
    reference = mi.reference_spectra.eigenvalue_array(
        mi.sphere_surface_spectrum(30))
    problems = checks.reference_problems(dropped.eigenvalues, reference)
    assert any("level 2: multiplicity 2, expected 3" in p for p in problems)


@pytest.fixture
def failing_pipeline(tmp_path, monkeypatch):
    """sphere_l2 cut at max_time 0.05: the pipeline exits 1 at once."""
    config = tmp_path / "sphere_short.yaml"
    with open(os.path.join(ROOT, "configs", "sphere_l2.yaml")) as fh:
        text = fh.read()
    config.write_text(text.replace("simulation:\n",
                                   "simulation:\n  max_time: 0.05\n"))
    monkeypatch.chdir(tmp_path)
    return workloads.Case("sphere_short", "pipeline", str(config))


def test_pipeline_exit_1_counts_as_failed_operation(failing_pipeline):
    result = workloads.run_case("grow", failing_pipeline, seed=1)
    assert result.failed
    assert "exit code 1" in result.problems
    assert result.detail["status"] == "max_time"


def test_layer_self_times_account_for_operation(failing_pipeline):
    tracer = Tracer()
    tracer.install()
    try:
        result = workloads.run_case("grow", failing_pipeline, seed=1,
                                    tracer=tracer)
    finally:
        tracer.uninstall()
    assert tracer.counts["simulator.steps"] == 50
    assert tracer.counts["solvers.sim.solves"] == 100
    assert sum(tracer.self_s.values()) == pytest.approx(result.seconds,
                                                        rel=1e-2)


@pytest.mark.parametrize("name", ["pass s", "pass/s", "", ".x", "a" * 65,
                                  "latency_ms\n"])
def test_bad_metric_name_rejected(name):
    with pytest.raises(ValueError):
        run.check_metric_name(name)

