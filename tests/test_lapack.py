import numpy as np
import pytest

from hankelpde import lapack
from hankelpde.lapack import LU, lu_path, one_blas_thread


def random_system(k, dtype, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((k, k)) + k ** 0.5 * np.eye(k)
    B = rng.standard_normal((k, 3))
    if dtype is complex:
        A = A + 1j * rng.standard_normal((k, k))
        B = B + 1j * rng.standard_normal((k, 3))
    return A, B


def test_the_openblas_routines_are_found():
    # numpy's wheels ship scipy-openblas64; a numpy built on another
    # LAPACK takes the fallback, and this test names which one ran
    assert lu_path() == "openblas-getrf"


@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
@pytest.mark.parametrize("k", [5, 66, 770])
def test_lu_matches_numpy_linalg(k, dtype):
    A, B = random_system(k, dtype, seed=k)
    work = A.copy()
    lu = LU(work)
    sign, logabs = lu.slogdet()
    want_sign, want_logabs = np.linalg.slogdet(A)
    # the phase is a product of k unit factors: k roundings
    assert abs(sign - want_sign) <= 4e-16 * k
    assert abs(logabs - want_logabs) <= 1e-12 * max(1.0, abs(want_logabs))
    X = lu.solve(B)
    Y = lu.solve_rows(B.T)
    assert np.abs(X - np.linalg.solve(A, B)).max() <= 1e-12 * np.abs(X).max()
    # plain transpose, never the conjugate one
    assert np.abs(Y - np.linalg.solve(A.T, B).T).max() <= 1e-12 * np.abs(Y).max()
    assert np.abs(A @ X - B).max() <= 1e-12 * k
    assert np.abs(Y @ A - B.T).max() <= 1e-12 * k
    # a writeable C-ordered A of LAPACK's dtype is factored in place; a
    # read-only, Fortran-ordered or other-dtype A is copied and kept
    assert not np.array_equal(work, A)
    frozen = A.copy()
    frozen.flags.writeable = False
    for other in (frozen, np.asfortranarray(A), A.astype(np.complex64 if dtype is complex
                                                          else np.float32)):
        keep = other.copy()
        LU(other)
        assert np.array_equal(other, keep)


def test_lu_of_a_real_matrix_solves_complex_right_hand_sides():
    A, B = random_system(12, complex, seed=1)
    lu = LU(A.real)
    assert np.abs(lu.solve(B) - np.linalg.solve(A.real, B)).max() <= 1e-12
    assert np.abs(lu.solve_rows(B.T) - np.linalg.solve(A.real.T, B).T).max() <= 1e-12


def test_lu_checks_shapes_before_calling_lapack():
    with pytest.raises(np.linalg.LinAlgError):
        LU(np.ones((3, 4)))
    lu = LU(np.eye(3))
    with pytest.raises(ValueError):
        lu.solve(np.ones((4, 1)))
    with pytest.raises(ValueError):
        lu.solve_rows(np.ones((1, 2)))


@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
def test_lu_of_an_exactly_singular_matrix(dtype):
    A, B = random_system(9, dtype, seed=2)
    A[4] = 0.0
    lu = LU(A)
    sign, logabs = lu.slogdet()
    assert sign == 0 and logabs == -np.inf
    with pytest.raises(np.linalg.LinAlgError):
        lu.solve(B)
    with pytest.raises(np.linalg.LinAlgError):
        lu.solve_rows(B.T)


@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
def test_the_fallback_agrees_with_the_lu(dtype, monkeypatch):
    A, B = random_system(66, dtype, seed=4)
    lu = LU(A.copy())
    got = (lu.slogdet(), lu.solve(B), lu.solve_rows(B.T))
    monkeypatch.setattr(lapack, "_routines", lambda: {})
    assert lu_path() == "numpy-linalg"
    fb = LU(A)
    (sign, logabs), X, Y = got
    fb_sign, fb_logabs = fb.slogdet()
    assert abs(sign - fb_sign) <= 1e-14 and abs(logabs - fb_logabs) <= 1e-12
    assert np.abs(X - fb.solve(B)).max() <= 1e-13 * np.abs(X).max()
    assert np.abs(Y - fb.solve_rows(B.T)).max() <= 1e-13 * np.abs(Y).max()
    # the fallback is numpy.linalg itself
    assert np.array_equal(fb.solve(B), np.linalg.solve(A, B))
    assert np.array_equal(fb.solve_rows(B.T), np.linalg.solve(A.T, B).T)


def test_one_blas_thread_sets_and_restores_the_count():
    have = lapack._routines()
    get, put = have["openblas_get_num_threads"], have["openblas_set_num_threads"]
    old = get()
    put(2)
    try:
        with one_blas_thread() as count:
            assert count == 1 and get() == 1
        assert get() == 2
        with pytest.raises(RuntimeError), one_blas_thread():
            raise RuntimeError
        assert get() == 2
    finally:
        put(old)


def test_one_blas_thread_without_the_routines_changes_nothing(monkeypatch):
    # the path taken where numpy's OpenBLAS exports none of the routines
    monkeypatch.setattr(lapack, "_routines", lambda: {})
    with one_blas_thread() as count:
        assert count is None
