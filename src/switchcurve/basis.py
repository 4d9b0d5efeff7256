"""Cubic B-spline basis on a shared grid, with exact curvature penalty.

Every state-specific smooth function is represented as ``B @ phi`` where
``B`` is the basis matrix returned by :func:`basis_matrix`.  The roughness
penalty uses ``R[v, w] = integral of b_v'' * b_w''`` over the grid span,
computed exactly: second derivatives of cubic splines are piecewise linear,
so their products are piecewise quadratic and a two-point Gauss-Legendre
rule per knot interval integrates them without error.

A grid's whole set-up, ``(basis, B, R)``, depends only on the grid and K.
:func:`spline_setup` builds it once per exact grid and K, with read-only
arrays, and every fit, truth start and CV selection on that grid shares it.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadK, GridTooSmall, NonIncreasingGrid, OutOfDomain

DEGREE = 3

# Points within this relative distance of the domain ends are clamped onto
# them rather than rejected, so grid endpoints survive round-tripping.
_EDGE_RTOL = 1e-12


@dataclass(frozen=True)
class SplineBasis:
    """Clamped cubic B-spline basis of dimension K on [x[0], x[-1]].

    Attributes
    ----------
    knots : ndarray
        Full knot vector of length K + 4, with 4-fold end knots.
    K : int
        Number of basis functions.
    """

    knots: np.ndarray
    K: int

    @property
    def domain(self):
        return self.knots[DEGREE], self.knots[-DEGREE - 1]

    def _clamp(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        lo, hi = self.domain
        span = hi - lo
        tol = _EDGE_RTOL * max(span, 1.0)
        if np.any(x < lo - tol) or np.any(x > hi + tol):
            raise OutOfDomain(
                f"points outside basis domain [{lo!r}, {hi!r}]")
        return np.clip(x, lo, hi)


def build_basis(x, K=None):
    """Build a clamped cubic basis with interior knots at quantiles of x.

    Parameters
    ----------
    x : array_like
        Strictly increasing grid, length at least 4.
    K : int, optional
        Basis dimension; defaults to ``min(len(x), 15)``.  Must satisfy
        ``4 <= K <= len(x) + 2``.

    Returns
    -------
    SplineBasis
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 4:
        raise GridTooSmall(f"need at least 4 grid points, got {x.size}")
    if np.any(np.diff(x) <= 0):
        raise NonIncreasingGrid("grid must be strictly increasing")
    n = x.size
    if K is None:
        K = min(n, 15)
    K = int(K)
    if K < 4 or K > n + 2:
        raise BadK(f"K={K} outside [4, n + 2] for n={n}")

    n_interior = K - 4
    if n_interior > 0:
        probs = np.arange(1, n_interior + 1) / (n_interior + 1)
        interior = np.quantile(x, probs)
        # Strictly increasing x makes duplicates impossible in theory; if
        # float quantiles collide anyway, nudge toward the next distinct
        # neighbour's midpoint.
        for m in range(1, n_interior):
            if interior[m] <= interior[m - 1]:
                upper = x[-1] if m == n_interior - 1 else interior[m + 1]
                interior[m] = 0.5 * (interior[m - 1] + upper)
    else:
        interior = np.empty(0)

    knots = np.concatenate([
        np.repeat(x[0], DEGREE + 1), interior, np.repeat(x[-1], DEGREE + 1)])
    return SplineBasis(knots=knots, K=K)


def _bspline_table(t, x, deriv):
    """All cubic B-splines on knots ``t`` (or their ``deriv``-th
    derivatives) at the points ``x``, shape (len(x), len(t) - 4).

    Cox-de Boor recursion over whole columns: the degree-0 table marks the
    knot interval holding each point (half-open, with the domain's right
    end in the last non-empty interval), the first ``3 - deriv`` steps
    raise the degree of the values, and the last ``deriv`` steps apply the
    derivative recursion B'_{v,q} = q B_{v,q-1} / (t_{v+q} - t_v)
    - q B_{v+1,q-1} / (t_{v+q+1} - t_{v+1}).  Zero-length spans contribute
    nothing.
    """
    nk = t.size
    cell = np.clip(np.searchsorted(t, x, side="right") - 1,
                   DEGREE, nk - DEGREE - 2)
    b = np.zeros((x.size, nk - 1))
    b[np.arange(x.size), cell] = 1.0
    for q in range(1, DEGREE + 1):
        span = t[q:] - t[:-q]               # t_{v+q} - t_v, v = 0..nk-q-1
        inv = np.divide(1.0, span, out=np.zeros_like(span), where=span > 0)
        if q > DEGREE - deriv:
            s = b * (q * inv)
            b = s[:, :-1] - s[:, 1:]
        else:
            a = b * ((x[:, None] - t[:-q]) * inv)
            b = a[:, :-1] + (b - a)[:, 1:]
    return b


def basis_matrix(basis, x):
    """Evaluate all basis functions at the points x.

    Returns the dense (len(x), K) matrix with entries ``b_v(x_m)``.  Points
    must lie in the closed domain; the right endpoint evaluates as the limit
    from the left.
    """
    return _bspline_table(basis.knots, basis._clamp(x), 0)


def penalty_matrix(basis):
    """Exact curvature penalty matrix, shape (K, K), symmetric PSD.

    Affine functions have zero curvature, so the matrix has a
    two-dimensional null space spanned by the coefficient vectors that
    reproduce 1 and x.
    """
    t = basis.knots[DEGREE:-DEGREE]
    a, b = t[:-1], t[1:]
    keep = b > a
    a, b = a[keep], b[keep]
    # Integrand is quadratic on each knot interval: 2-point Gauss-Legendre
    # per interval is exact.
    offset = 0.5 / np.sqrt(3.0) * (b - a)
    mid = 0.5 * (a + b)
    nodes = np.concatenate([mid - offset, mid + offset])
    root_w = np.sqrt(np.tile(0.5 * (b - a), 2))
    D = _bspline_table(basis.knots, nodes, 2) * root_w[:, None]
    # numpy evaluates X.T @ X as a symmetric rank-k update, so R comes out
    # exactly symmetric
    return D.T @ D


def spline_setup(x, K=None):
    """The basis on grid x with its grid matrix and penalty: the triple
    ``(basis, basis_matrix(basis, x), penalty_matrix(basis))``.

    Cached per exact grid (its float64 values; grids one ulp apart are two
    entries) and K, with ``None`` resolved to ``min(len(x), 15)`` as
    :func:`build_basis` does.  The 32 most recent set-ups are kept.  Every
    caller shares one entry, so its knots, B and R are read-only.  A bad
    grid or K raises on every call, as :func:`build_basis` does.
    ``spline_setup.cache_clear()`` frees the cache.
    """
    x = np.asarray(x, dtype=float)
    K = min(x.size, 15) if K is None else int(K)
    return _cached_setup(x.shape, x.tobytes(), K)


@lru_cache(maxsize=32)
def _cached_setup(shape, grid_bytes, K):
    x = np.frombuffer(grid_bytes).reshape(shape)
    basis = build_basis(x, K)
    B = basis_matrix(basis, x)
    R = penalty_matrix(basis)
    for a in (basis.knots, B, R):
        a.flags.writeable = False
    return basis, B, R


spline_setup.cache_info = _cached_setup.cache_info
spline_setup.cache_clear = _cached_setup.cache_clear
