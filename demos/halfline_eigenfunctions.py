"""Generalized eigenfunctions on the half-line.

psi(lam, x) = sin(lam x + pi/8) - r(lam x) is bounded, vanishes at 0, and
satisfies the semigroup eigenrelation with eigenvalue e^{-lam t}.  This
script tabulates psi_1 and its remainder (the data behind the usual pair of
plots), then verifies the Laplace-transform identity against direct
quadrature.
"""
import math

import numpy as np

from cauchyspec import QuadratureSpec, integrate, laplace_psi, psi, remainder

print("psi_1 and remainder on [0, 6*pi]:")
print(f"{'x':>8} {'psi_1(x)':>12} {'r(x)':>12} {'sin(x+pi/8)':>12}")
xs = np.linspace(0.0, 6 * math.pi, 13)
for x, p, r in zip(xs, psi(1.0, xs), remainder(xs)):
    print(f"{x:8.4f} {p:12.8f} {r:12.8f} {math.sin(x + math.pi / 8):12.8f}")

print("\nremainder envelope: r(x) <= sqrt(2)/(2 pi x^2)")
for x in (1.0, 2.0, 5.0, 10.0):
    print(f"  r({x:4.1f}) = {remainder(x):.3e}   "
          f"bound {math.sqrt(2) / (2 * math.pi * x * x):.3e}")

print("\nsup |psi_1| on a fine grid (must stay below 1.14):")
xs = np.linspace(0.0, 100.0, 20001)
print(f"  max |psi_1| = {np.abs(psi(1.0, xs)).max():.6f}")

print("\nLaplace identity  int_0^inf psi_1(x) e^{-t x} dx"
      "  =  (sqrt2/2) e^{eta(t)} / (1+t^2):")
spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=8000)
for t in (0.5, 1.0, 2.0):
    quad = integrate(lambda x: psi(1.0, x) * np.exp(-t * x),
                     (0.0, math.inf), spec, points=(1.0 / t,))
    closed = laplace_psi(1.0, complex(t)).real
    print(f"  t={t}: quadrature {quad:.12f}  closed {closed:.12f}  "
          f"rel err {abs(quad - closed) / closed:.1e}")
