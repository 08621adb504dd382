"""Killed heat kernel and the first-exit law.

The transition density of the killed process has the closed form
p_t(x-y) - correction; it also equals the eigenfunction expansion
(2/pi) int psi(l,x) psi(l,y) e^{-l t} dl.  The row mass of the kernel is the
survival probability, whose density is f(t/x)/t.
"""
import math

import numpy as np

from cauchyspec import (CATALAN, QuadratureSpec, exit_law, heat_kernel,
                        heat_kernel_spectral, integrate, survival)

print("closed form vs eigenfunction expansion of p_t(x, y):")
for (t, x, y) in ((1.0, 0.5, 0.5), (1.0, 0.5, 2.0), (0.5, 1.0, 1.0)):
    hc = heat_kernel(t, x, y)
    hs = heat_kernel_spectral(t, x, y, tol=1e-8)
    print(f"  t={t} x={x} y={y}: closed {hc:.10f}  spectral {hs:.10f}  "
          f"rel {abs(hc - hs) / hc:.1e}")

print("\nsymmetry and scaling:")
print(f"  p_1(0.3, 2)   = {heat_kernel(1.0, 0.3, 2.0):.12f}")
print(f"  p_1(2, 0.3)   = {heat_kernel(1.0, 2.0, 0.3):.12f}")
print(f"  3 p_3(3, 0.9, 6) = {3 * heat_kernel(3.0, 0.9, 6.0):.12f}"
      f"  vs p_1(0.3, 2)")

print("\nmass balance: int_0^inf p_1(1, y) dy = survival(1, 1)")
inner = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11)
total = integrate(lambda ys: heat_kernel(1.0, 1.0, ys, inner), (0.0, math.inf),
                  QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9,
                                 max_subdivisions=6000))
s11 = survival(1.0, 1.0)
print(f"  kernel mass {total:.12f}   survival {s11:.12f}   "
      f"diff {abs(total - s11):.1e}")

print("\nexit law from x = 1 (density f(t/x)/t, survival its complement):")
ts = np.array([0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0])
dens, surv = exit_law(1.0, ts)
print(f"{'t':>6} {'density':>12} {'survival':>12}")
for t, d, s in zip(ts, dens, surv):
    print(f"{t:6.2f} {d:12.8f} {s:12.8f}")

# f(s)/s <= e^{C/pi}/pi s^{-3/2}: the density mass beyond T is at most
# c/sqrt(T), c = 2 e^{C/pi}/pi, and T puts that bound at 1e-9
c_tail = 2.0 * math.exp(CATALAN / math.pi) / math.pi
horizon = (c_tail / 1e-9) ** 2
mass = 1.0 - survival(1.0, horizon)
tail = c_tail / math.sqrt(horizon)
print(f"\ntotal exit mass up to the certified horizon: {mass:.10f} "
      f"(+ tail bound {tail:.1e}); deviation from 1: {abs(mass - 1):.1e}")
