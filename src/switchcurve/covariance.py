"""Within-replicate covariance models: densities and M-step updates.

Five covariance kinds are supported.  ``iso_diag`` and ``state_diag`` are
diagonal; ``unrestricted`` is a dense SPD matrix; ``homog_ri`` adds a
shared random intercept, V = sigma2 (I + d 11'); ``nonhomog_ri`` (J = 2
only) adds a second intercept acting on the state-2 points of each
replicate, V_s = sigma2 (I + d1 11' + d2 u_s u_s').

Structured kinds never materialize V: inverses and log-determinants use
the rank-one (Sherman-Morrison) or rank-two (Woodbury) identities.  For
nonhomog_ri, V_s^{-1} is I / sigma2 less a rank-two term whose 2 x 2 core
depends on the state vector only through its number of state-2 points, so
no per-state-vector matrix is ever formed.

Log-density tables over enumerated state vectors come from one (N, S)
matrix product y V^{-1} Fs' plus per-replicate and per-state-vector terms
(and, for nonhomog_ri, the sums 1'r and u_s'r), never from an (N, S, n)
residual tensor.  The M-step statistics are products with the joint
posterior table P (P Fs, P'y, P'1) rather than (N, S) residual tables.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize

from .errors import NonPositiveSigma, NotSPD
from .latent import replicate_sums, state_mass

LOG_2PI = float(np.log(2.0 * np.pi))

_MASS_EPS = 1e-12     # posterior mass below this means an empty state
_D_FLOOR = 1e-12      # intercept ratios are clamped to [0, inf)


class CovStructure:
    """A covariance kind plus parameters, with cached decompositions."""

    def __init__(self, kind, params, n):
        self.kind = kind
        self.params = params
        self.n = int(n)
        if kind in ("iso_diag", "homog_ri", "nonhomog_ri"):
            if params.sigma2 <= 0:
                raise NonPositiveSigma(f"sigma2 = {params.sigma2!r}")
        if kind == "state_diag" and np.any(params.sigma2 <= 0):
            raise NonPositiveSigma(f"sigma2 = {params.sigma2!r}")
        if kind == "homog_ri" and 1.0 + n * params.d <= 0:
            raise NotSPD(f"homog_ri with d = {params.d!r} is not SPD")
        if kind == "nonhomog_ri" and (params.d1 < 0 or params.d2 < 0):
            raise NotSPD("nonhomog_ri needs d1, d2 >= 0")
        if kind == "unrestricted":
            V = params.V
            if V.shape != (self.n, self.n):
                raise NotSPD(f"V shape {V.shape}, expected {(n, n)}")
            if not np.allclose(V, V.T, rtol=1e-10, atol=1e-12):
                raise NotSPD("V is not symmetric")
            try:
                self._chol = cho_factor(V, lower=True)
            except np.linalg.LinAlgError as exc:
                raise NotSPD(f"V is not positive definite: {exc}") from None
            self._logdet = 2.0 * np.sum(np.log(np.diag(self._chol[0])))

    @property
    def state_dependent(self):
        return self.kind in ("state_diag", "nonhomog_ri")

    # -- whole-matrix views (state-independent kinds only) ------------------

    def vinv(self):
        """Dense V^{-1}, shape (n, n)."""
        p, n = self.params, self.n
        if self.kind == "iso_diag":
            return np.eye(n) / p.sigma2
        if self.kind == "homog_ri":
            c = p.d / (1.0 + n * p.d)
            return (np.eye(n) - c * np.ones((n, n))) / p.sigma2
        if self.kind == "unrestricted":
            return cho_solve(self._chol, np.eye(n))
        raise ValueError(f"{self.kind} has state-dependent V")

    def logdet(self):
        p, n = self.params, self.n
        if self.kind == "iso_diag":
            return n * np.log(p.sigma2)
        if self.kind == "homog_ri":
            return n * np.log(p.sigma2) + np.log(1.0 + n * p.d)
        if self.kind == "unrestricted":
            return self._logdet
        raise ValueError(f"{self.kind} has state-dependent V")

    def vinv_shared(self):
        """V^{-1} of the state-independent kinds; for nonhomog_ri the
        I / sigma2 that every V_s^{-1} shares, less its rank-two term
        (``intercept_cores``)."""
        if self.kind == "nonhomog_ri":
            return np.eye(self.n) / self.params.sigma2
        return self.vinv()

    def intercept_cores(self):
        """(n+1, 2, 2) Woodbury cores of nonhomog_ri, one per m = 0..n.

        With U_s = [1, u_s] and C = diag(d1, d2),
        V_s^{-1} = (I - U_s H_m U_s') / sigma2, where the core
        H_m = C (I + U_s'U_s C)^{-1} depends on the state vector only
        through m = |u_s|.
        """
        p, n = self.params, self.n
        m = np.arange(n + 1.0)
        det = _ri_det(n, m, p.d1, p.d2)
        H = np.empty((n + 1, 2, 2))
        H[:, 0, 0] = p.d1 * (1.0 + m * p.d2) / det
        H[:, 0, 1] = H[:, 1, 0] = -p.d1 * p.d2 * m / det
        H[:, 1, 1] = p.d2 * (1.0 + n * p.d1) / det
        return H

    # -- log densities -------------------------------------------------------

    def pointwise_loglik(self, y, F):
        """(N, n, J) table of log N(y_ki; F[j, i], sigma_j^2).

        Diagonal kinds only.
        """
        r2 = (y[:, :, None] - F.T[None, :, :]) ** 2
        if self.kind == "iso_diag":
            s2 = np.full(F.shape[0], self.params.sigma2)
        elif self.kind == "state_diag":
            s2 = self.params.sigma2
        else:
            raise ValueError(f"{self.kind} is not diagonal")
        return -0.5 * (r2 / s2 + np.log(s2) + LOG_2PI)

    def loglik_table(self, y, Fs, E2=None):
        """(N, S) table of log N(y_k; Fs[s], V_s).

        Parameters
        ----------
        y : (N, n) responses.
        Fs : (S, n) curve values gathered along each enumerated state
            vector s.
        E2 : (S, n), optional
            State-2 indicators per state vector; required for
            ``nonhomog_ri``.
        """
        p, n = self.params, self.n
        if self.kind == "state_diag":
            # state_diag factorizes over points; contract the pointwise
            # table with the caller's state one-hots instead.
            raise ValueError(
                "state_diag tables decompose pointwise; build them from "
                "pointwise_loglik and the enumeration one-hots")
        nonhomog = self.kind == "nonhomog_ri"
        if nonhomog and E2 is None:
            raise ValueError("nonhomog_ri needs state-2 indicators")
        yc, Fc = _centered(y, Fs)
        Vi = self.vinv_shared()
        ld = n * np.log(p.sigma2) if nonhomog else self.logdet()
        yV = yc @ Vi
        row = -0.5 * (np.einsum("ki,ki->k", yV, yc) + ld + n * LOG_2PI)
        col = -0.5 * np.einsum("si,si->s", Fc @ Vi, Fc)
        out = yV @ Fc.T                 # the cross term, built in place
        if nonhomog:
            col -= 0.5 * np.log(_ri_det(n, E2.sum(axis=1), p.d1, p.d2))
            out += self._intercept_quad(yc, Fc, E2)
        out += row[:, None]
        out += col[None, :]
        return out

    def _intercept_quad(self, yc, Fc, E2):
        """(N, S) table of (t1, t2) H_m (t1, t2)' / (2 sigma2), with
        t1 = 1'r and t2 = u_s'r: the nonhomog_ri Woodbury term."""
        H = self.intercept_cores()[E2.sum(axis=1).astype(int)]
        t1 = np.subtract.outer(yc.sum(axis=1), Fc.sum(axis=1))
        t2 = yc @ E2.T
        t2 -= np.einsum("si,si->s", E2, Fc)[None, :]
        q = t1 * t2
        q *= 2.0 * H[:, 0, 1]
        t1 *= t1
        t1 *= H[:, 0, 0]
        q += t1
        del t1
        t2 *= t2
        t2 *= H[:, 1, 1]
        q += t2
        q *= 0.5 / self.params.sigma2
        return q


def _ri_det(n, m, d1, d2):
    """det(I + U'U C) for nonhomog_ri with m state-2 points; V_s has
    determinant sigma2**n times this."""
    return (1.0 + n * d1) * (1.0 + m * d2) - m ** 2 * d1 * d2


def log_mvn_density(cov, r, states=None):
    """log N(r; 0, V_s) for one residual vector.

    ``states`` is the 0-based state vector; it is required for the
    state-dependent kinds (state_diag, nonhomog_ri) and ignored otherwise.
    """
    r = np.asarray(r, dtype=float)
    if cov.kind == "state_diag":
        s2 = cov.params.sigma2[np.asarray(states, dtype=int)]
        return float(-0.5 * np.sum(r ** 2 / s2 + np.log(s2) + LOG_2PI))
    E2 = None
    if cov.kind == "nonhomog_ri":
        E2 = (np.asarray(states, dtype=int) == 1).astype(float)[None, :]
    return float(cov.loglik_table(r[None, :], np.zeros((1, r.size)),
                                  E2=E2)[0, 0])


# ---------------------------------------------------------------------------
# M-step updates from joint posteriors (enumeration path)
# ---------------------------------------------------------------------------

def update_unrestricted(P, y, Fs):
    """Posterior-weighted residual second-moment matrix.

    ``P`` is the (N, S) joint posterior table, ``Fs`` the (S, n) gathered
    curves at the updated coefficients.
    """
    w = state_mass(P)
    PF = P @ Fs
    V = (y.T @ y - y.T @ PF - PF.T @ y + Fs.T @ (w[:, None] * Fs))
    V /= P.shape[0]
    return 0.5 * (V + V.T)


def _posterior_sums(P, y, Fs):
    """Posterior-weighted residual sums for the intercept kinds.

    With r_ks = y_k - Fs_s, returns ``(A, b2, w, tf, Pt)``: A the sum over
    k, s of P_ks r_ks'r_ks, b2 the per-s sums over k of P_ks (1'r_ks)^2,
    w = P'1, tf = Fs 1 and Pt = P'(y 1).  Everything comes from products
    with P; no (N, S) residual table is built.  Callers pass centred
    arrays (see ``_centered``).
    """
    w = state_mass(P)
    ty = y.sum(axis=1)
    tf = Fs.sum(axis=1)
    Pt = replicate_sums(P, np.column_stack([ty, ty * ty]))
    b2 = Pt[:, 1] - 2.0 * tf * Pt[:, 0] + w * tf * tf
    A = ((P @ np.ones(P.shape[1])) @ np.einsum("ki,ki->k", y, y)
         - 2.0 * np.einsum("ki,ki->", y, P @ Fs)
         + w @ np.einsum("si,si->s", Fs, Fs))
    return float(A), b2, w, tf, Pt[:, 0]


def _centered(y, Fs):
    """y and Fs less the mean response.  Every residual y_k - Fs_s is
    unchanged, and the expanded quadratic forms built from the centred
    arrays cancel far less."""
    ybar = y.mean(axis=0)
    return y - ybar, Fs - ybar


def update_homog_ri(P, y, Fs):
    """Closed-form sigma2 and d for the shared random-intercept model."""
    N, n = y.shape
    ss_full, b2, _, _, _ = _posterior_sums(P, *_centered(y, Fs))
    ss_mean = float(b2.sum())
    sigma2 = (ss_full - ss_mean / n) / (N * (n - 1))
    if sigma2 <= 0:
        raise NonPositiveSigma(f"sigma2 update gave {sigma2!r}")
    d = ss_mean / (sigma2 * N * n ** 2) - 1.0 / n
    return sigma2, max(d, 0.0)


def nonhomog_sufficient_stats(P, y, Fs, E2):
    """Aggregate the statistics the nonhomog_ri objective needs.

    Groups by m = number of state-2 points, since V_s depends on s only
    through m and u_s'r.  Returns (A, counts m, mass W_m, S1, S2, S3)
    where S1/S2/S3 aggregate P * 1'r 1'r, P * 1'r u'r, P * u'r u'r per m.
    """
    y, Fs = _centered(y, Fs)
    A, b2, w, tf, Pt = _posterior_sums(P, y, Fs)
    n = y.shape[1]
    g = np.einsum("si,si->s", E2, Fs)                  # u_s'Fs_s
    Q = replicate_sums(P, np.hstack([y, y.sum(axis=1)[:, None] * y]))
    Pu = np.einsum("si,si->s", E2, Q[:, :n])           # sum_k P u'y
    Ptu = np.einsum("si,si->s", E2, Q[:, n:])          # sum_k P 1'y u'y
    yu = y @ E2.T                                      # the one (N, S) table
    yu *= yu
    Puu = np.einsum("ks,ks->s", P, yu)                 # sum_k P (u'y)^2
    bc = Ptu - g * Pt - tf * Pu + w * tf * g
    c2 = Puu - 2.0 * g * Pu + w * g * g
    m_s = E2.sum(axis=1).astype(int)
    m_vals = np.arange(m_s.max() + 1)
    S1 = np.bincount(m_s, weights=b2, minlength=m_vals.size)
    S2 = np.bincount(m_s, weights=bc, minlength=m_vals.size)
    S3 = np.bincount(m_s, weights=c2, minlength=m_vals.size)
    W = np.bincount(m_s, weights=w, minlength=m_vals.size)
    return A, m_vals, W, S1, S2, S3


def nonhomog_expected_term(sigma2, d1, d2, n, N, stats):
    """Expected complete-data Gaussian term for nonhomog_ri.

    This is the quantity the conditional M-step maximizes; it equals
    -0.5 sum_k sum_s posterior * (quadratic form + log det V_s + n log 2pi).
    """
    A, m, W, S1, S2, S3 = stats
    det = _ri_det(n, m, d1, d2)
    q = (d1 * (1.0 + m * d2) * S1 - 2.0 * d1 * d2 * m * S2
         + d2 * (1.0 + n * d1) * S3) / det
    quad = (A - q.sum()) / sigma2
    ld = N * n * np.log(sigma2) + float(W @ np.log(det))
    return -0.5 * (quad + ld + N * n * LOG_2PI)


def update_nonhomog_ri(P, y, Fs, E2, prev, max_fev=400, fatol=1e-10):
    """Simplex search for (sigma2, d1, d2), warm-started at ``prev``.

    Runs Nelder-Mead in (log sigma2, log d1, log d2).  The start point is
    a vertex of the initial simplex and the best vertex is never discarded,
    so the returned value cannot be worse than the previous parameters:
    conditional ascent is preserved by construction.

    Returns ``(sigma2, d1, d2, flags)``; flags contains "optimizer_stalled"
    when the evaluation budget ran out before the objective spread fell
    below ``fatol``.
    """
    N, n = y.shape
    stats = nonhomog_sufficient_stats(P, y, Fs, E2)

    def neg(z):
        s2, d1, d2 = np.exp(z)
        return -nonhomog_expected_term(s2, d1, d2, n, N, stats)

    z0 = np.log([max(prev.sigma2, 1e-300),
                 max(prev.d1, _D_FLOOR),
                 max(prev.d2, _D_FLOOR)])
    res = minimize(
        neg, z0, method="Nelder-Mead",
        options={"maxfev": max_fev, "fatol": fatol, "xatol": np.inf,
                 "initial_simplex": _start_simplex(z0)})
    flags = []
    if not res.success:
        flags.append("optimizer_stalled")
    best = res.x if res.fun <= neg(z0) else z0
    sigma2, d1, d2 = np.exp(best)
    if d1 <= _D_FLOOR * 10:
        d1 = 0.0
    if d2 <= _D_FLOOR * 10:
        d2 = 0.0
    return float(sigma2), float(d1), float(d2), flags


def _start_simplex(z0):
    simplex = np.tile(z0, (z0.size + 1, 1))
    for i in range(z0.size):
        simplex[i + 1, i] += 0.25
    return simplex


# ---------------------------------------------------------------------------
# M-step updates from marginal posteriors (diagonal path)
# ---------------------------------------------------------------------------

def update_state_diag(marginals, y, F, prev_sigma2):
    """Per-state variances; empty states keep their previous value.

    Returns (sigma2 array, flags).
    """
    r2 = (y[:, :, None] - F.T[None, :, :]) ** 2
    num = np.einsum("kij,kij->j", marginals, r2)
    den = marginals.sum(axis=(0, 1))
    sigma2 = np.array(prev_sigma2, dtype=float, copy=True)
    flags = []
    for j in range(sigma2.size):
        if den[j] < _MASS_EPS:
            flags.append(f"empty_state_{j + 1}")
            continue
        val = num[j] / den[j]
        if val <= 0:
            raise NonPositiveSigma(
                f"state {j + 1} variance update gave {val!r}")
        sigma2[j] = val
    return sigma2, flags


def update_iso(marginals, y, F):
    """Pooled variance across all states and points."""
    N, n = y.shape
    r2 = (y[:, :, None] - F.T[None, :, :]) ** 2
    sigma2 = float(np.einsum("kij,kij->", marginals, r2) / (N * n))
    if sigma2 <= 0:
        raise NonPositiveSigma(f"iso variance update gave {sigma2!r}")
    return sigma2


def make_structure(cov_spec, params, n):
    return CovStructure(cov_spec.kind, params, n)
