"""Certified eigenvalue brackets on the interval.

Upper bounds come from Rayleigh-Ritz for the Green operator (orthonormal
Legendre basis, float64 Gram-form assembly); lower bounds from the method of
intermediate problems.  Brackets shrink monotonically as the basis grows
and contain the published 12-digit reference values.
"""
import time

from cauchyspec import REFERENCE_BRACKETS, bracket, mu_asymptotic

t0 = time.perf_counter()
brackets = {N: bracket(10, N) for N in (25, 50, 100, 150)}
print(f"assembled and solved N in (25, 50, 100, 150) in "
      f"{time.perf_counter() - t0:.1f}s\n")

print("brackets at N = 150 (reference brackets in the last column):")
for b in brackets[150]:
    rl, ru = REFERENCE_BRACKETS[b.n]
    mark = "ok" if (b.lower <= rl and ru <= b.upper) else "MISS"
    print(f"  n={b.n:>2}: [{b.lower:.12f}, {b.upper:.12f}]  width {b.width:.1e}"
          f"  ref [{rl:.12f}, {ru:.12f}]  {mark}")

print("\nwidth shrinks with the basis (n = 1):")
for N, brs in brackets.items():
    print(f"  N={N:>3}: width {brs[0].width:.3e}")

print("\nmidpoints localize around mu_n = n pi/2 - pi/8:")
for b in brackets[150]:
    mu = mu_asymptotic(b.n)
    print(f"  n={b.n:>2}: midpoint {b.midpoint:.8f}   mu_n {mu:.8f}   "
          f"n|diff| = {abs(b.midpoint - mu) * b.n:.4f}  (<= 1)")
