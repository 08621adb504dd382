import math

import pytest

from cauchyspec import PrecisionContext
from cauchyspec.precision import default_digits


def test_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext(10)
    with pytest.raises(ValueError):
        PrecisionContext(50, "half")
    ctx = PrecisionContext(50, "extended")
    assert ctx.extended


def test_default_digits_env(monkeypatch):
    monkeypatch.delenv("CAUCHYSPEC_DIGITS", raising=False)
    assert default_digits() == 50
    monkeypatch.setenv("CAUCHYSPEC_DIGITS", "80")
    assert default_digits() == 80
    monkeypatch.setenv("CAUCHYSPEC_DIGITS", "7")
    assert default_digits() == 15           # floor
    monkeypatch.setenv("CAUCHYSPEC_DIGITS", "junk")
    assert default_digits() == 50


def test_pi_at_context_precision():
    assert PrecisionContext(50, "extended").pi() == math.pi
