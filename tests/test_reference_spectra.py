import math

import numpy as np
import pytest
from scipy.special import spherical_jn

from modeiso.reference_spectra import (bessel_derivative_roots,
                                       eigenvalue_array, rectangle_neumann,
                                       sphere_bulk_spectrum,
                                       sphere_surface_spectrum)


def test_rectangle_unit_square_first_modes():
    vals = eigenvalue_array(rectangle_neumann(1.0, 1.0, 6))
    pi2 = math.pi ** 2
    assert np.allclose(vals, [0.0, pi2, pi2, 2 * pi2, 4 * pi2, 4 * pi2])


def test_rectangle_anisotropic_ordering():
    entries = rectangle_neumann(2.0, 1.0, 4)
    assert entries[0].label == (0, 0)
    assert entries[1].label == (1, 0)  # longer side excites first
    assert entries[1].value == pytest.approx(math.pi ** 2 / 4)


def test_sphere_surface_levels_and_multiplicity():
    entries = sphere_surface_spectrum(16)
    vals = eigenvalue_array(entries)
    assert np.allclose(vals, [0.0] + [2.0] * 3 + [6.0] * 5 + [12.0] * 7)
    assert entries[1].multiplicity == 3
    assert entries[4].multiplicity == 5


def test_bessel_derivative_roots_known_values():
    # smallest Neumann wavenumbers of the unit ball, 5 significant figures
    assert bessel_derivative_roots(1)[0] == pytest.approx(2.08158, abs=5e-6)
    assert bessel_derivative_roots(2)[0] == pytest.approx(3.34209, abs=5e-6)
    assert bessel_derivative_roots(0)[0] == pytest.approx(4.49341, abs=5e-6)
    assert bessel_derivative_roots(3)[0] == pytest.approx(4.51410, abs=5e-6)
    assert bessel_derivative_roots(4)[0] == pytest.approx(5.64670, abs=5e-6)
    assert bessel_derivative_roots(1)[1] == pytest.approx(5.94037, abs=5e-6)


def test_roots_are_actual_critical_points():
    for l in range(5):
        for r in bessel_derivative_roots(l, k_max=12.0):
            assert abs(spherical_jn(l, r, derivative=True)) < 1e-9


def test_sphere_bulk_spectrum_structure():
    entries = sphere_bulk_spectrum(10)
    vals = eigenvalue_array(entries)
    assert vals[0] == 0.0
    assert np.allclose(vals[1:4], 2.08158 ** 2, rtol=1e-5)
    assert np.allclose(vals[4:9], 3.34209 ** 2, rtol=1e-5)
    assert entries[1].multiplicity == 3
    assert entries[0].label == (0, 1, 0)


def test_sphere_bulk_spectrum_includes_every_degree_below_k_max():
    # the first root of j_7' is 8.93484, below the default k_max of 20:
    # its 15-fold level sits between the l = 3 and l = 1 levels
    entries = sphere_bulk_spectrum(90)
    level = [e for e in entries if e.label[0] == 7]
    assert len(level) == 15
    assert all(e.multiplicity == 15 for e in level)
    assert math.sqrt(level[0].value) == pytest.approx(8.93484, abs=5e-6)
    assert entries[66].label[0] == 7


def _scalar_roots(l, k_max=20.0, scan_step=0.05, xtol=1e-10):
    """Reference: the same scan, then one bracket at a time bisected with
    one scalar j_l' evaluation per step."""
    def deriv(x):
        return float(spherical_jn(l, x, derivative=True))

    xs = [scan_step]
    while xs[-1] + scan_step <= k_max + 1e-12:
        xs.append(xs[-1] + scan_step)
    fs = spherical_jn(l, np.array(xs), derivative=True)
    roots = []
    for i in range(len(xs) - 1):
        if fs[i] == 0.0:
            roots.append(xs[i])
        elif fs[i] * fs[i + 1] < 0:
            lo, hi, flo = xs[i], xs[i + 1], fs[i]
            while hi - lo > xtol:
                mid = 0.5 * (lo + hi)
                fmid = deriv(mid)
                if fmid == 0.0:
                    lo = hi = mid
                elif flo * fmid < 0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            roots.append(0.5 * (lo + hi))
    return roots


def test_roots_agree_with_the_scalar_bisection():
    # Brent's method and bisection find the same roots: each within the
    # bisection's final bracket width, with j_l' zero to rounding level
    reference = {l: _scalar_roots(l) for l in range(30)}
    roots = {l: bessel_derivative_roots(l) for l in reference}
    for l in reference:
        assert len(roots[l]) == len(reference[l])
        assert np.abs(np.subtract(roots[l], reference[l])).max(
            initial=0.0) <= 1e-10
        assert np.abs(spherical_jn(l, roots[l], derivative=True)).max(
            initial=0.0) < 1e-14
    values = [0.0] + [k * k for l, ks in roots.items()
                      for k in ks for _ in range(2 * l + 1)]
    bulk = eigenvalue_array(sphere_bulk_spectrum(len(values)))
    assert bulk.tolist() == sorted(values)


def test_sphere_bulk_spectrum_range_error():
    with pytest.raises(ValueError, match="k_max"):
        sphere_bulk_spectrum(500, k_max=6.0)


@pytest.mark.parametrize("lx, ly", [(0.0, 1.0), (1.0, -2.0)])
def test_rectangle_neumann_refuses_a_non_positive_side(lx, ly):
    with pytest.raises(ValueError,
                       match="^rectangle sides must be positive$"):
        rectangle_neumann(lx, ly, 4)
