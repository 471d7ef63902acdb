"""Tests for the one-sided Jacobi reference solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import rel_err, scipy_svdvals
from repro import Solver
from repro.core import jacobi_svdvals
from repro.errors import ShapeError
from repro.matrices import make_test_matrix


class TestJacobi:
    def test_random_square(self, rng):
        A = rng.standard_normal((40, 40))
        assert rel_err(jacobi_svdvals(A), scipy_svdvals(A)) < 1e-12

    def test_rectangular_both_orientations(self, rng):
        A = rng.standard_normal((60, 20))
        ref = scipy_svdvals(A)
        assert rel_err(jacobi_svdvals(A), ref) < 1e-12
        assert rel_err(jacobi_svdvals(A.T), ref) < 1e-12

    def test_diagonal(self, rng):
        d = np.abs(rng.standard_normal(20)) + 0.1
        got = jacobi_svdvals(np.diag(d))
        np.testing.assert_allclose(got, np.sort(d)[::-1], rtol=1e-13)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(jacobi_svdvals(np.zeros((8, 8))),
                                      np.zeros(8))

    def test_zero_columns(self, rng):
        A = rng.standard_normal((20, 10))
        A[:, 3] = 0.0
        assert rel_err(jacobi_svdvals(A), scipy_svdvals(A)) < 1e-12

    def test_high_relative_accuracy_graded(self):
        """Jacobi's selling point: tiny singular values to high relative
        accuracy on strongly graded matrices."""
        n = 16
        D = np.diag(np.logspace(0, -10, n))
        rng = np.random.default_rng(0)
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        A = Q @ D  # exactly known singular values 1 .. 1e-10
        got = jacobi_svdvals(A)
        expect = np.logspace(0, -10, n)
        np.testing.assert_allclose(got, expect, rtol=1e-10)

    def test_cross_check_against_unified(self, rng):
        """Two independent algorithms (Jacobi vs two-stage QR) agree."""
        A = rng.standard_normal((48, 48))
        jv = jacobi_svdvals(A)
        uv = Solver(backend="h100", precision="fp64").solve(A)
        np.testing.assert_allclose(jv, uv, atol=1e-11 * jv[0])

    def test_cross_check_known_spectrum(self):
        tm = make_test_matrix(32, "quarter-circle", seed=9)
        assert rel_err(jacobi_svdvals(tm.A), tm.sigma) < 1e-12

    def test_invalid_input(self):
        with pytest.raises(ShapeError):
            jacobi_svdvals(np.zeros(5))
        with pytest.raises(ShapeError):
            jacobi_svdvals(np.zeros((0, 4)))

    @given(n=st.integers(1, 16), m=st.integers(1, 16), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_property_vs_scipy(self, n, m, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, n))
        got = jacobi_svdvals(A)
        ref = scipy_svdvals(A)
        assert np.max(np.abs(got - ref)) <= 1e-11 * max(ref[0], 1e-300)
