"""The eigenfunction transform on degenerate inputs.

Plancherel and double-transform inversion for the bump on [1, 2] are the
registry check ``plancherel`` and acceptance criterion 7
(``tests/test_acceptance.py``).
"""
import numpy as np
import pytest

from cauchyspec import GridFunction, GridTooCoarse, pi_transform


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
