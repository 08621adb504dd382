"""The eigenfunction transform on degenerate inputs.

Plancherel and double-transform inversion for the bump on [1, 2] are the
registry check ``plancherel`` and acceptance criterion 7
(``tests/test_acceptance.py``).
"""
import math
import tracemalloc

import numpy as np
import pytest

from cauchyspec import (GridFunction, GridTooCoarse, halfline, pi_transform,
                        psi)
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
    # the transform evaluates its kernel through the private psi kernel, one
    # column block of outputs at a time; the sum of w_i f_i psi(lam_i, x)
    # with the public psi, one row per input node, taken over the same
    # column blocks, must agree bit for bit
    lam = np.linspace(1.0, 2.0, 201)
    f = GridFunction.from_samples(lam, bump(lam))
    dx = math.pi / 24.0
    out = np.arange(dx, 320.0, dx)
    kernel = np.array([psi(l, out) for l in lam])
    width = halfline._pi_width(lam.size)
    assert width < out.size
    ref = np.concatenate([(f.weights * f.values) @ kernel[:, j:j + width]
                          for j in range(0, out.size, width)])
    assert np.array_equal(pi_transform(f, out).values, ref)


def test_pi_transform_in_blocks():
    # 40 nodes by 120000 outputs: many column blocks, the last narrower;
    # against the sum over input nodes of w_i f_i psi(lam_i, x), one row at
    # a time
    lam = np.linspace(1.0, 1.02, 40)
    f = GridFunction.from_samples(lam, np.cos(lam))
    out = np.linspace(0.01, 19.0, 120000)
    assert out.size % halfline._pi_width(lam.size) != 0
    coef = f.weights * f.values
    ref = sum(c * psi(l, out) for c, l in zip(coef, lam))
    assert np.abs(pi_transform(f, out).values - ref).max() <= (
        1e-14 * np.abs(coef).sum())


def test_pi_transform_working_set():
    # the kernel is formed one column block of about _TABLE_BLOCK pairs at
    # a time in two reused buffers, so the traced peak stays near 2.5 MiB
    # however many pairs there are: 2001 x 916 (a matrix of those would be
    # 14 MiB) and ten times as many
    lam = np.linspace(1.0, 2.0, 2001)
    f = GridFunction.from_samples(lam, bump(lam))
    out = np.arange(1, 9168) * (math.pi / 24.0)
    pi_transform(f, out[:5])                 # builds the remainder table
    for outputs in (916, 9167):
        tracemalloc.start()
        try:
            pi_transform(f, out[:outputs])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, outputs
