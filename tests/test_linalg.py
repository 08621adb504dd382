import tracemalloc

import numpy as np
import pytest

from cauchyspec import (DegeneratePencil, NonConvergence, NotPositiveDefinite,
                        generalized_sym_eig, solve_spd, sym_eig)
from cauchyspec.interval import assemble_intermediate
from cauchyspec.linalg import _mirror


def test_sym_matrix_enforces_symmetry():
    # every routine reads the lower triangle, mirrored, from a copy
    lower = np.array([[2.0, 1.0], [1.0, 3.0]])
    skew = np.array([[2.0, 9.0], [1.0, 3.0]])
    assert np.array_equal(sym_eig(skew)[0], sym_eig(lower)[0])
    assert np.array_equal(generalized_sym_eig(skew, [1.0, 2.0]),
                          generalized_sym_eig(lower, [1.0, 2.0]))
    assert np.array_equal(solve_spd(skew, [1.0, 1.0]),
                          solve_spd(lower, [1.0, 1.0]))
    assert skew[0, 1] == 9.0
    for bad in (np.nan, np.inf):
        m = np.array([[1.0, 0.0], [bad, 1.0]])
        for call in (lambda: sym_eig(m), lambda: solve_spd(m, [1.0, 1.0]),
                     lambda: generalized_sym_eig(m, [1.0, 1.0])):
            with pytest.raises(ValueError):
                call()
    with pytest.raises(ValueError):
        sym_eig(np.ones((2, 3)))


def test_sym_eig_diagonal():
    w, _ = sym_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])


def test_sym_eig_2x2():
    w, _ = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])


def test_sym_eig_residual_certificate():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((10, 10))
    m = (a + a.T) / 2
    m /= np.linalg.norm(m, 2)
    w, v = sym_eig(m)
    resid = np.linalg.norm(m @ v - v * w, axis=0).max()
    assert resid <= 1e-12 * np.linalg.norm(m, 2) * 10
    # eigenvalue sum equals trace
    assert abs(w.sum() - np.trace(m)) <= 1e-10


def _test_matrix(n=10):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((n, n))
    m = (a + a.T) / 2
    return m / np.linalg.norm(m, 2)


def test_sym_eig_certificate_rejects_residual_defect(monkeypatch):
    # the two extreme eigenvectors, rotated by 1e-6 in their plane, stay
    # orthonormal, but each misses its eigenvalue by about 1e-6
    m = _test_matrix()
    eigh = np.linalg.eigh

    def rotated(a):
        theta, vec = eigh(a)
        c, s = np.cos(1e-6), np.sin(1e-6)
        vec[:, [0, -1]] = vec[:, [0, -1]] @ np.array([[c, -s], [s, c]])
        return theta, vec

    monkeypatch.setattr(np.linalg, "eigh", rotated)
    with pytest.raises(NonConvergence, match="certificate failed") as exc:
        sym_eig(m)
    assert 1e-7 < exc.value.error_bound < 1e-5


def test_sym_eig_certificate_rejects_nan_eigenvalue(monkeypatch):
    # a NaN eigenvalue makes the norm, the tolerance and the residual NaN,
    # and every comparison with NaN is false: the certificate fails closed
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (
        np.array([np.nan, 1.0, 2.0, 3.0]), np.eye(4)))
    with pytest.raises(NonConvergence, match="certificate failed"):
        sym_eig(np.diag([0.0, 1.0, 2.0, 3.0]))


def test_sym_eig_certificate_rejects_non_orthonormal_vectors(monkeypatch):
    # eigenvectors scaled by 1 + 1e-6 keep a residual near rounding, but
    # are not orthonormal
    m = _test_matrix()
    eigh = np.linalg.eigh

    def scaled(a):
        theta, vec = eigh(a)
        return theta, vec * (1.0 + 1e-6)

    monkeypatch.setattr(np.linalg, "eigh", scaled)
    with pytest.raises(NonConvergence, match="orthogonality defect 2.00e-06"
                       ) as exc:
        sym_eig(m)
    assert exc.value.error_bound <= 1e-12 * 10


def test_solve_spd_identity_and_diag():
    x = solve_spd(np.eye(3), np.array([1.0, 0.0, 0.0]))
    assert np.allclose(x, [1.0, 0.0, 0.0])
    x = solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0])


def test_solve_spd_gram_residual():
    # Gram matrix at N=4 against the two-band coupling matrix
    C, B, _, _ = assemble_intermediate(4)
    x = solve_spd(B, C)
    resid = np.abs(B @ x - C).max()
    assert resid <= 1e-12


def test_solve_spd_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))


def test_generalized_identity_pencil():
    lam = generalized_sym_eig(np.eye(5), np.arange(1.0, 6.0))
    assert np.allclose(lam, np.arange(1.0, 6.0))


def test_generalized_scaled_pencil():
    lam = generalized_sym_eig(0.5 * np.eye(2), np.array([1.0, 2.0]))
    assert np.allclose(lam, [2.0, 4.0])


def test_generalized_degenerate_direction_warns():
    s = np.diag([1.0, 0.0])
    with pytest.warns(DegeneratePencil):
        lam = generalized_sym_eig(s, np.array([1.0, 2.0]))
    assert np.allclose(lam, [1.0])


def test_generalized_working_set():
    # the copy of S is scaled and mirrored in place and the residual array
    # is freed before the orthogonality array is made, so beside the
    # caller's S the traced peak is about 4 blocks of n x n floats
    n = 401
    rng = np.random.default_rng(3)
    a = rng.standard_normal((n, n))
    s = a @ a.T / n + np.eye(n)
    d = np.arange(1.0, n + 1.0)
    expected = generalized_sym_eig(s, d)
    tracemalloc.start()
    try:
        lam = generalized_sym_eig(s, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(lam, expected)
    assert peak <= 4.5 * 8 * n * n


@pytest.mark.parametrize("n", [1, 2, 50, 101, 300])
def test_mirror_matches_row_loop(n):
    # the blocked copy gives every bit of a row-by-row mirror, -0.0 included,
    # inside one diagonal block and across block edges
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    a[rng.random((n, n)) < 0.2] = -0.0
    ref = a.copy()
    for i in range(n - 1):
        ref[i, i + 1:] = ref[i + 1:, i]
    assert _mirror(a.copy()).tobytes() == ref.tobytes()


def test_mirror_working_set():
    # one diagonal block is buffered at a time, not a copy of the whole
    # transpose (8 MB at n = 1000)
    a = np.random.default_rng(7).standard_normal((1000, 1000))
    tracemalloc.start()
    try:
        _mirror(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(a, a.T)
    assert peak <= 1 << 20


def test_generalized_ignores_upper_triangle():
    # the pencil mirrors its copy once, after scaling: what lies above the
    # diagonal of S does not reach a bit of the result
    _, _, d, S = assemble_intermediate(40)
    s, dp = S[0::2, 0::2], d[0::2]
    noisy = s + np.triu(np.random.default_rng(5).standard_normal(s.shape), 1)
    assert (generalized_sym_eig(noisy, dp).tobytes()
            == generalized_sym_eig(s, dp).tobytes())
