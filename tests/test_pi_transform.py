"""The eigenfunction transform on degenerate inputs.

Plancherel and double-transform inversion for the bump on [1, 2] are the
registry check ``plancherel`` and acceptance criterion 7
(``tests/test_acceptance.py``).
"""
import math

import numpy as np
import pytest

from cauchyspec import GridFunction, GridTooCoarse, pi_transform, psi
from cauchyspec.checks import bump


def test_zero_maps_to_zero():
    lam = np.linspace(1.0, 2.0, 51)
    f = GridFunction.from_samples(lam, np.zeros_like(lam))
    out = pi_transform(f, np.linspace(0.5, 5.0, 20))
    assert np.all(out.values == 0.0)


def test_grid_too_coarse_rejected():
    lam = np.linspace(1.0, 30.0, 30)   # spacing 1 > pi/(8*30)
    f = GridFunction.from_samples(lam, np.exp(-lam))
    with pytest.raises(GridTooCoarse):
        pi_transform(f, np.linspace(1.0, 2.0, 5))


def test_pi_transform_uses_psi_unchanged():
    # the transform evaluates its kernel through the private psi kernel on
    # the whole (input x output) grid; the sum of w_i f_i psi(lam_i, x) with
    # the public psi, one row per input node, must agree bit for bit
    lam = np.linspace(1.0, 2.0, 201)
    f = GridFunction.from_samples(lam, bump(lam))
    dx = math.pi / 24.0
    out = np.arange(dx, 320.0, dx)
    kernel = np.array([psi(l, out) for l in lam])
    assert np.array_equal(pi_transform(f, out).values,
                          (f.weights * f.values) @ kernel)
