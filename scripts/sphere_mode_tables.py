#!/usr/bin/env python3
"""Print the admissible wavenumber windows and excited unit-ball modes
for the three kinetics models at their documented (d, gamma) pairs."""

import math

import numpy as np

import modeiso as mi
from modeiso.kinetics import wavenumber_window
from modeiso.reference_spectra import eigenvalue_array, sphere_bulk_spectrum

PAIRS = {
    "schnakenberg": [(10.0, 15.0), (10.0, 40.0), (9.0, 60.0), (8.81, 85.0)],
    "gierer_meinhardt": [(74.0, 30.0), (74.0, 80.0), (74.0, 160.0),
                         (72.0, 200.0)],
    "thomas": [(30.0, 15.0), (30.0, 40.0), (28.0, 60.0), (27.5, 90.0)],
}


def main() -> None:
    bulk_k = np.sqrt(eigenvalue_array(sphere_bulk_spectrum(40)))
    for name, pairs in PAIRS.items():
        model = mi.make_model(name)
        state = model.steady_state()
        J = model.jacobian(state.u, state.v)
        print(f"\n{name}  (d_c = {mi.critical_diffusion_ratio(J):.4f})")
        print(f"{'d':>6} {'gamma':>7} {'k-':>8} {'k+':>8}  excited k")
        for d, g in pairs:
            lo, hi = wavenumber_window(J, d, g)
            k_lo, k_hi = math.sqrt(lo), math.sqrt(hi)
            excited = sorted({round(float(k), 5) for k in bulk_k
                              if k_lo < k < k_hi})
            print(f"{d:>6} {g:>7} {k_lo:>8.4f} {k_hi:>8.4f}  {excited}")


if __name__ == "__main__":
    main()
