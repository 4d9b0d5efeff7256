"""Basis construction against independent oracles.

One oracle evaluates B-splines by the textbook recursion (values and
derivatives), sharing no code with the package path, and integrates the
curvature products with Simpson's rule per knot interval, which is exact
for the piecewise-quadratic integrand.  The other is scipy's ``BSpline``
(in ``tests/oracles.py``), held to rounding level.
"""

import numpy as np
import pytest

from oracles import bspline_design_matrix, bspline_second_derivatives
from switchcurve.basis import (SplineBasis, _bspline_table, basis_matrix,
                               build_basis, penalty_matrix, spline_setup)
from switchcurve.errors import (BadK, GridTooSmall, NonIncreasingGrid,
                                OutOfDomain)


def bspline_value_oracle(t, i, k, x, right_end):
    """Recursive B-spline evaluation; half-open supports, closed at the
    domain's right end."""
    if k == 0:
        if t[i] <= x < t[i + 1]:
            return 1.0
        if x == right_end and t[i] < t[i + 1] and t[i + 1] == right_end:
            return 1.0
        return 0.0
    total = 0.0
    d1 = t[i + k] - t[i]
    if d1 > 0:
        total += (x - t[i]) / d1 * bspline_value_oracle(
            t, i, k - 1, x, right_end)
    d2 = t[i + k + 1] - t[i + 1]
    if d2 > 0:
        total += (t[i + k + 1] - x) / d2 * bspline_value_oracle(
            t, i + 1, k - 1, x, right_end)
    return total


def bspline_deriv_oracle(t, i, k, x, right_end, order):
    if order == 0:
        return bspline_value_oracle(t, i, k, x, right_end)
    total = 0.0
    d1 = t[i + k] - t[i]
    if d1 > 0:
        total += k / d1 * bspline_deriv_oracle(
            t, i, k - 1, x, right_end, order - 1)
    d2 = t[i + k + 1] - t[i + 1]
    if d2 > 0:
        total -= k / d2 * bspline_deriv_oracle(
            t, i + 1, k - 1, x, right_end, order - 1)
    return total


def penalty_oracle(basis):
    """Simpson per knot interval over oracle second derivatives.

    The integrand b_v'' * b_w'' is quadratic inside each interval, so
    Simpson is exact there.
    """
    t = basis.knots
    K = basis.K
    right = t[-1]

    def d2row(x):
        return np.array([
            bspline_deriv_oracle(t, v, 3, x, right, 2) for v in range(K)])

    R = np.zeros((K, K))
    for a, b in zip(t[3:-4], t[4:-3]):
        if b <= a:
            continue
        # use interior midpoints so one-sided derivative jumps at the
        # knots cannot bleed across intervals
        h = b - a
        fa = d2row(a + 1e-9 * h)
        fm = d2row(0.5 * (a + b))
        fb = d2row(b - 1e-9 * h)
        R += h / 6.0 * (np.outer(fa, fa) + 4.0 * np.outer(fm, fm)
                        + np.outer(fb, fb))
    return R


def test_partition_of_unity():
    x = np.linspace(0.0, 3.0, 17)
    basis = build_basis(x, 9)
    dense = np.linspace(0.0, 3.0, 301)
    B = basis_matrix(basis, dense)
    assert np.max(np.abs(B.sum(axis=1) - 1.0)) < 1e-12


def test_values_match_recursion_oracle():
    rng = np.random.default_rng(42)
    for _ in range(5):
        n = rng.integers(6, 14)
        x = np.sort(rng.uniform(0.0, 10.0, size=n))
        while np.min(np.diff(x)) < 1e-3:
            x = np.sort(rng.uniform(0.0, 10.0, size=n))
        K = int(rng.integers(4, n + 2))
        basis = build_basis(x, K)
        pts = np.concatenate([
            rng.uniform(x[0], x[-1], size=20), [x[0], x[-1]]])
        B = basis_matrix(basis, pts)
        for m, p in enumerate(pts):
            for v in range(K):
                want = bspline_value_oracle(
                    basis.knots, v, 3, p, basis.knots[-1])
                assert B[m, v] == pytest.approx(want, abs=1e-10)


def test_values_and_second_derivatives_match_scipy_bspline():
    rng = np.random.default_rng(8)
    for trial in range(12):
        n = int(rng.integers(4, 25))
        x = np.sort(rng.uniform(-2.0, 7.0, size=n))
        while np.min(np.diff(x)) < 1e-3:
            x = np.sort(rng.uniform(-2.0, 7.0, size=n))
        K = (4, n + 2, int(rng.integers(4, n + 3)))[trial % 3]
        basis = build_basis(x, K)
        pts = np.concatenate([[x[0], x[-1]], x, basis.knots[4:-4],
                              rng.uniform(x[0], x[-1], size=30)])
        B = basis_matrix(basis, pts)
        np.testing.assert_allclose(
            B, bspline_design_matrix(basis.knots, pts),
            rtol=0.0, atol=1e-14)
        D2 = _bspline_table(basis.knots, pts, 2)
        want = bspline_second_derivatives(basis.knots, pts)
        np.testing.assert_allclose(
            D2, want, rtol=0.0, atol=1e-14 * max(1.0, np.abs(want).max()))


def test_second_derivatives_match_recursion_oracle():
    x = np.linspace(0.0, 1.0, 11)
    basis = build_basis(x, 8)
    # keep strictly inside so one-sided derivative limits are unambiguous
    pts = np.linspace(0.013, 0.987, 23)
    D2 = _bspline_table(basis.knots, pts, 2)
    for m, p in enumerate(pts):
        for v in range(basis.K):
            want = bspline_deriv_oracle(
                basis.knots, v, 3, p, basis.knots[-1], 2)
            assert D2[m, v] == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_penalty_matrix_matches_simpson_oracle():
    for n, K in [(8, 6), (12, 9), (10, 4)]:
        x = np.linspace(0.0, 2.0, n)
        basis = build_basis(x, K)
        R = penalty_matrix(basis)
        R_oracle = penalty_oracle(basis)
        scale = max(1.0, np.max(np.abs(R_oracle)))
        assert np.max(np.abs(R - R_oracle)) / scale < 1e-6


def test_penalty_symmetric_psd_with_affine_null_space():
    x = np.linspace(0.0, 5.0, 13)
    basis = build_basis(x, 10)
    R = penalty_matrix(basis)
    assert np.max(np.abs(R - R.T)) < 1e-12
    eigs = np.linalg.eigvalsh(R)
    assert eigs.min() > -1e-10

    # coefficients reproducing constants: all ones
    ones = np.ones(basis.K)
    assert np.max(np.abs(R @ ones)) < 1e-9
    # coefficients reproducing the identity: Greville abscissae
    t = basis.knots
    greville = np.array([t[v + 1: v + 4].mean() for v in range(basis.K)])
    dense = np.linspace(0.0, 5.0, 57)
    B = basis_matrix(basis, dense)
    assert np.max(np.abs(B @ greville - dense)) < 1e-10
    assert np.max(np.abs(R @ greville)) < 1e-8


def test_default_dimension_and_knot_layout():
    x = np.linspace(0.0, 1.0, 30)
    basis = build_basis(x)
    assert basis.K == 15
    assert basis.knots.size == basis.K + 4
    assert np.all(np.diff(basis.knots) >= 0)
    assert np.all(basis.knots[:4] == x[0])
    assert np.all(basis.knots[-4:] == x[-1])

    small = build_basis(np.linspace(0.0, 1.0, 6))
    assert small.K == 6


def test_interior_knots_at_quantiles():
    x = np.linspace(0.0, 1.0, 21)
    basis = build_basis(x, 7)   # 3 interior knots at quartiles
    np.testing.assert_allclose(
        basis.knots[4:-4], np.quantile(x, [0.25, 0.5, 0.75]))


def test_grid_validation_errors():
    with pytest.raises(GridTooSmall):
        build_basis(np.array([0.0, 1.0, 2.0]))
    with pytest.raises(NonIncreasingGrid):
        build_basis(np.array([0.0, 1.0, 1.0, 2.0]))
    with pytest.raises(BadK):
        build_basis(np.linspace(0, 1, 8), K=3)
    with pytest.raises(BadK):
        build_basis(np.linspace(0, 1, 8), K=11)


def test_out_of_domain_rejected_endpoints_clamped():
    x = np.linspace(0.0, 1.0, 9)
    basis = build_basis(x, 5)
    with pytest.raises(OutOfDomain):
        basis_matrix(basis, [1.2])
    with pytest.raises(OutOfDomain):
        basis_matrix(basis, [-0.1])
    # exact endpoints evaluate, and tiny float drift clamps instead of
    # raising
    B = basis_matrix(basis, [0.0, 1.0, 1.0 + 1e-13])
    assert np.all(np.isfinite(B))
    assert B[1, -1] == pytest.approx(1.0)


def test_basis_rebuilds_from_stored_knots():
    x = np.linspace(0.0, 4.0, 12)
    first = build_basis(x, 8)
    second = SplineBasis(knots=first.knots.copy(), K=first.K)
    pts = np.linspace(0.0, 4.0, 31)
    np.testing.assert_array_equal(
        basis_matrix(first, pts), basis_matrix(second, pts))


UNEVEN = np.array([0.0, 0.1, 0.15, 0.4, 0.45, 0.9, 1.3, 1.31, 2.0, 2.6, 3.0])


@pytest.mark.parametrize("x", [np.linspace(1.0, 100.0, 10), UNEVEN],
                         ids=["uniform", "uneven"])
def test_spline_setup_is_the_three_builders_bit_for_bit(x):
    spline_setup.cache_clear()
    for K in (None, min(x.size, 15), 4, 7, x.size + 2):
        basis, B, R = spline_setup(x, K)
        fresh = build_basis(x, K)
        assert basis.K == fresh.K
        np.testing.assert_array_equal(basis.knots, fresh.knots, strict=True)
        np.testing.assert_array_equal(B, basis_matrix(fresh, x), strict=True)
        np.testing.assert_array_equal(R, penalty_matrix(fresh), strict=True)


def test_spline_setup_keys_on_exact_grid_values_and_resolved_K():
    x = np.linspace(0.0, 1.0, 20)
    setup = spline_setup(x)
    # the default K, the same K given (as build_basis reads it) and the
    # same values in a new container share one entry
    assert spline_setup(x, 15) is setup
    assert spline_setup(x.tolist(), 15.0) is setup
    moved = x.copy()
    moved[7] = np.nextafter(moved[7], 1.0)
    other = spline_setup(moved)
    assert other is not setup
    # the moved point's row of B is evaluated where that point now lies
    assert not np.array_equal(other[1], setup[1])


def test_spline_setup_arrays_refuse_writes():
    basis, B, R = spline_setup(np.linspace(0.0, 1.0, 9))
    for a in (basis.knots, B, R):
        with pytest.raises(ValueError):
            a[0] = 1.0


@pytest.mark.parametrize("x,K,error", [
    (np.array([0.0, 1.0, 2.0]), None, GridTooSmall),
    (np.array([0.0, 1.0, 1.0, 2.0]), None, NonIncreasingGrid),
    (np.linspace(0, 1, 8), 3, BadK),
    (np.linspace(0, 1, 8), 11, BadK),
])
def test_spline_setup_raises_on_every_call(x, K, error):
    for _ in range(2):
        with pytest.raises(error):
            spline_setup(x, K)


def test_spline_setup_cache_is_bounded():
    spline_setup.cache_clear()
    maxsize = spline_setup.cache_info().maxsize
    for m in range(maxsize + 5):
        spline_setup(np.linspace(0.0, 1.0 + m, 6))
    assert spline_setup.cache_info().currsize == maxsize
