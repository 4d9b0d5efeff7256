"""Within-replicate covariance models: densities and M-step updates.

Five covariance kinds are supported.  ``iso_diag`` and ``state_diag`` are
diagonal; ``unrestricted`` is a dense SPD matrix; ``homog_ri`` adds a
shared random intercept, V = sigma2 (I + d 11'); ``nonhomog_ri`` (J = 2
only) adds a second intercept acting on the state-2 points of each
replicate, V_s = sigma2 (I + d1 11' + d2 u_s u_s').

Structured kinds never materialize V: inverses and log-determinants use
the Sherman-Morrison identity.  nonhomog_ri is homog_ri at d = d1 plus the
rank-one term sigma2 d2 u_s u_s', so V_s^{-1} is homog_ri's inverse less
h_s u~_s u~_s' and log det V_s is homog_ri's plus log D_m, where the
scalars h_s and D_m depend on the state vector only through its number m
of state-2 points (``CovStructure.state_terms``).

Log-density tables over enumerated state vectors come from one matrix
product per block of replicates, never from an (N, S, n) residual tensor:
the inner dimension is augmented so that the product
[y V^{-1}, row, 1, L] [Fs, 1, col, R]' also adds the per-replicate (row)
and per-state-vector (col) terms and the log prior, given as the factor
pair (L, R); the right factor is built once per E-step.  For nonhomog_ri,
V^{-1} and the log determinant are the shared homog_ri parts, and the
rank-one term h_s (u~_s'r)^2 / 2 is one more block table.  The M-steps
read the E-step's fixed-size posterior moments (``latent.Moments``).

Every M-step is closed form except nonhomog_ri's.  There sigma2 profiles
out in closed form and (d1, d2) >= 0 come from a Newton search with
analytic derivatives, a bound-aware active set and step halving; it starts
at the previous parameters and never returns a lower objective.  Dense
factorizations are numpy's (Cholesky for ``unrestricted``).
"""

import numpy as np

from .errors import NonPositiveSigma, NotSPD

LOG_2PI = float(np.log(2.0 * np.pi))

_MASS_EPS = 1e-12     # posterior mass below this means an empty state
# The log-density table expands the quadratic form (y - f)'V^{-1}(y - f)
# into y'V^{-1}y - 2 y'V^{-1}f + f'V^{-1}f, whose rounding is about
# cond(C) * eps relative to the form, C the correlation matrix of V (a
# diagonal rescaling of V, by powers of two say, rounds alike and leaves
# C as it is).  ECM's ascent check compares objectives to 1e-8 relative
# (``em._ASCENT_RTOL``), so past cond(C) = 1e-8 / eps (about 4.5e7) the
# check reads rounding, not ascent.
_COND_MAX = 1e-8 / np.finfo(float).eps
_NEWTON_MAX_STEPS = 50      # nonhomog_ri M-step: Newton steps,
_NEWTON_MAX_HALVINGS = 60   # halvings of one step,
_NEWTON_RTOL = 1e-14        # and the predicted decrease that ends it


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
                self._chol = np.linalg.cholesky(np.asarray_chkfinite(V))
            except np.linalg.LinAlgError as exc:
                raise NotSPD(f"V is not positive definite: {exc}") from None
            # the rows of L over sqrt(diag V) factor V's correlation matrix
            sv = np.linalg.svd(self._chol / np.sqrt(np.diag(V))[:, None],
                               compute_uv=False)
            cond = (sv[0] / sv[-1]) ** 2
            if not cond <= _COND_MAX:
                raise NotSPD(
                    f"V's correlation matrix has condition number "
                    f"{cond:.3g}, beyond the {_COND_MAX:.3g} at which its "
                    "log densities still resolve the ascent check")
            self._logdet = 2.0 * np.sum(np.log(np.diag(self._chol)))

    # -- whole-matrix views --------------------------------------------------

    def vinv(self):
        """Dense V^{-1}, shape (n, n); for nonhomog_ri the homog_ri inverse
        at d = d1 that every V_s^{-1} shares (see ``state_terms``)."""
        p, n = self.params, self.n
        if self.kind == "iso_diag":
            return np.eye(n) / p.sigma2
        if self.kind in ("homog_ri", "nonhomog_ri"):
            d = self._d_shared()
            c = d / (1.0 + n * d)
            return (np.eye(n) - c * np.ones((n, n))) / p.sigma2
        if self.kind == "unrestricted":
            Li = np.linalg.solve(self._chol, np.eye(n))
            return Li.T @ Li
        raise ValueError(f"{self.kind} has state-dependent V")

    def logdet(self):
        """log det V; for nonhomog_ri the homog_ri part at d = d1."""
        p, n = self.params, self.n
        if self.kind == "iso_diag":
            return n * np.log(p.sigma2)
        if self.kind in ("homog_ri", "nonhomog_ri"):
            return n * np.log(p.sigma2) + np.log(1.0 + n * self._d_shared())
        if self.kind == "unrestricted":
            return self._logdet
        raise ValueError(f"{self.kind} has state-dependent V")

    def _d_shared(self):
        p = self.params
        return p.d1 if self.kind == "nonhomog_ri" else p.d

    def state_terms(self, m):
        """nonhomog_ri's rank-one terms for state vectors with ``m`` (array)
        state-2 points.

        With c = d1 / (1 + n d1), u~_s = u_s - c m 1 and
        D_m = 1 + d2 m (1 - c m) >= 1, Sherman-Morrison gives
        V_s^{-1} = vinv() - h_m u~_s u~_s' with h_m = d2 / (sigma2 D_m),
        and log det V_s = logdet() + log D_m.  Returns
        ``(c m, h_m, log D_m)``.
        """
        p = self.params
        cm = p.d1 / (1.0 + self.n * p.d1) * m
        D = 1.0 + p.d2 * m * (1.0 - cm)
        return cm, p.d2 / (p.sigma2 * D), np.log(D)

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

    def state_factor(self, F, states, ybar, E2=None, R=None):
        """``loglik_table``'s right factor, built once per E-step:
        ``(right, rank1)`` with right = [Fc, 1, col, R]' (n + 2 + c, S),
        Fc[s] = F[states[s, i], i] - ybar_i the curves (J, n) along each
        state vector centred like the response rows, col its terms of the
        quadratic form and log determinant and R the log prior's right half
        (S, c); rank1 is nonhomog_ri's (U, U'Fc, h / 2), U the columns u~_s
        (``E2``)."""
        n = self.n
        if self.kind == "state_diag":
            # state_diag factorizes over points; contract the pointwise
            # table with the caller's state one-hots instead.
            raise ValueError(
                "state_diag tables decompose pointwise; build them from "
                "pointwise_loglik and the enumeration one-hots")
        nonhomog = self.kind == "nonhomog_ri"
        if nonhomog and E2 is None:
            raise ValueError("nonhomog_ri needs state-2 indicators")
        c = 0 if R is None else R.shape[1]
        right = np.empty((n + 2 + c, states.shape[0]))
        Fc = right[:n]
        for i, curve in enumerate((F - ybar).T):
            np.take(curve, states[:, i], out=Fc[i])
        right[n] = 1.0
        right[n + 1] = -0.5 * np.einsum("is,is->s", self.vinv() @ Fc, Fc)
        if c:
            right[n + 2:] = R.T
        if not nonhomog:
            return right, None
        cm, h, logD = self.state_terms(E2.sum(axis=1))
        right[n + 1] -= 0.5 * logD
        U = E2.T - cm
        return right, (U, np.einsum("is,is->s", U, Fc), 0.5 * h)

    def loglik_table(self, yc, factor, L=None):
        """(rows, S) table of log N(y_k; Fs[s], V_s), plus a log prior.

        One GEMM [yc V^{-1}, row, 1, L] @ right (``state_factor``) holds
        the cross term, the per-replicate (row) and per-state-vector terms
        and the log prior L R'; ``L`` is the prior factor's left half for
        these rows, or one row shared by all.  For nonhomog_ri these are
        the shared homog_ri terms, and a second (rows, S) table adds the
        rank-one term.  The result is a fresh table the caller owns.
        """
        n = self.n
        right, rank1 = factor
        left = np.empty((yc.shape[0], right.shape[0]))
        yV = np.matmul(yc, self.vinv(), out=left[:, :n])
        left[:, n] = -0.5 * (np.einsum("ki,ki->k", yV, yc) + self.logdet()
                             + n * LOG_2PI)
        left[:, n + 1] = 1.0
        if L is not None:
            left[:, n + 2:] = L
        out = left @ right
        if rank1 is not None:
            U, uf, h2 = rank1
            q = yc @ U
            q -= uf
            q *= q
            q *= h2
            out += q
        return out


def _ri_det(n, m, d1, d2):
    """det(V_s) / sigma2**n = (1 + n d1) D_m for nonhomog_ri with m
    state-2 points (see ``CovStructure.state_terms``)."""
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
    zero = np.zeros((1, r.size))
    return float(cov.loglik_table(r[None, :], cov.state_factor(
        zero, zero.astype(np.int8), zero[0], E2=E2))[0, 0])


# ---------------------------------------------------------------------------
# M-step updates from posterior moments (enumeration path)
# ---------------------------------------------------------------------------
#
# Each takes the E-step's ``latent.Moments`` and the updated curves F (J, n).
# With phi = (F - ybar)' flattened, f_s - ybar = E_s'phi for the curves f_s
# along state vector s, so every posterior sum of a quadratic in the
# residuals y_k - f_s is a product of the moments with phi.

def _residual_ss(moments, phi):
    """sum_k sum_s P_ks |y_k - f_s|^2."""
    n = moments.yy.shape[0]
    own = np.einsum("iij->ij", moments.C.reshape(n, n, -1)).ravel()
    return float(np.trace(moments.yy) - 2.0 * own @ phi
                 + moments.lin[:, :, 0].sum(axis=0) @ (phi * phi))


def update_unrestricted(moments, F):
    """Posterior-weighted residual second-moment matrix."""
    J, n = F.shape
    phi = (F - moments.ybar).T
    # sum_s (sum_k P_ks y_ck) (f_s - ybar)' and sum_s w_s (f_s - ybar)(...)'
    cross = np.einsum("qij,ij->qi", moments.C.reshape(n, n, J), phi)
    quad = np.einsum("ij,ijpl,pl->ip", phi,
                     moments.occupancy.reshape(n, J, n, J), phi)
    V = (moments.yy - cross - cross.T + quad) / moments.N
    return 0.5 * (V + V.T)


def update_homog_ri(moments, F):
    """Closed-form conditional maximum of sigma2 and d >= 0 for the shared
    random-intercept model; where the unconstrained d is <= 0, it is d = 0
    with sigma2 the mean squared residual."""
    N, n = moments.N, moments.yy.shape[0]
    phi = (F - moments.ybar).T.ravel()
    ss_full = _residual_ss(moments, phi)
    # sum_k sum_s P_ks (1'(y_k - f_s))^2
    ss_mean = float(moments.yy.sum() - 2.0 * moments.C.sum(axis=0) @ phi
                    + phi @ moments.occupancy @ phi)
    sigma2 = (ss_full - ss_mean / n) / (N * (n - 1))
    if sigma2 <= 0:
        raise NonPositiveSigma(f"sigma2 update gave {sigma2!r}")
    d = ss_mean / (sigma2 * N * n ** 2) - 1.0 / n
    if d > 0:
        return sigma2, d
    return ss_full / (N * n), 0.0


def nonhomog_sufficient_stats(moments, F):
    """Aggregate the statistics the nonhomog_ri objective needs.

    Groups by m = number of state-2 points, since V_s depends on s only
    through m and u_s'r.  Returns (A, counts m, mass W_m, S1, S2, S3)
    where A is the posterior sum of r'r and S1/S2/S3 aggregate
    P * 1'r 1'r, P * 1'r u'r, P * u'r u'r per m, r the residuals.
    """
    J, n = F.shape
    phi = (F - moments.ybar).T.ravel()
    phi2 = np.where(np.arange(n * J) % J == 1, phi, 0.0)  # u_s'f_s = E_s'phi2
    occ = moments.cooc[:, :n * J, :n * J]
    lt, lu = moments.lin[:, :, 1], moments.lin[:, :, 3]
    t = moments.lin[:, :J].sum(axis=1)      # sum t_s: E_s flags one state
    S1 = t[:, 2] - 2.0 * lt @ phi + np.einsum("p,mpq,q->m", phi, occ, phi)
    S2 = (t[:, 4] - lt @ phi2 - lu @ phi
          + np.einsum("p,mpq,q->m", phi, occ, phi2))
    S3 = t[:, 5] - 2.0 * lu @ phi2 + np.einsum("p,mpq,q->m", phi2, occ,
                                                 phi2)
    return (_residual_ss(moments, phi), np.arange(t.shape[0]), t[:, 0],
            S1, S2, S3)


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


def update_nonhomog_ri(moments, F, prev):
    """Conditional maximum of (sigma2, d1, d2), searched from ``prev``.

    sigma2 profiles out in closed form, sigma2(d) = (A - q(d)) / (N n),
    which leaves a smooth problem in d = (d1, d2) >= 0 (see
    ``_profiled_nonhomog``).  Newton runs on the free coordinates: a
    coordinate at 0 whose gradient points outward is held there.  Each
    step is halved until the objective rises, and candidates are projected
    onto d >= 0, so d1 or d2 can reach exactly 0.  If the result's
    ``nonhomog_expected_term`` is below the one at ``prev`` (or its sigma2
    is not positive), ``prev`` is returned: conditional ascent holds by
    construction.

    Returns ``(sigma2, d1, d2)``.
    """
    N, n = moments.N, moments.yy.shape[0]
    stats = nonhomog_sufficient_stats(moments, F)
    d = np.array([prev.d1, prev.d2], dtype=float)
    f, g, H, resid = _profiled_nonhomog(d, n, N, stats)
    for _ in range(_NEWTON_MAX_STEPS):
        if not np.isfinite(f):
            break
        free = (d > 0.0) | (g < 0.0)
        if not free.any():
            break
        step = np.zeros(2)
        step[free] = _descent_step(g[free], H[np.ix_(free, free)])
        # f's rounding hides a gain this small: take the step whole, stop
        if -(g @ step) <= _NEWTON_RTOL * (abs(f) + N * n):
            d = np.maximum(d + step, 0.0)
            resid = _profiled_nonhomog(d, n, N, stats)[3]
            break
        for t in 0.5 ** np.arange(_NEWTON_MAX_HALVINGS):
            cand = np.maximum(d + t * step, 0.0)
            new = _profiled_nonhomog(cand, n, N, stats)
            if new[0] < f:
                break
        else:
            break
        d = cand
        f, g, H, resid = new
    sigma2 = resid / (N * n)
    if sigma2 > 0 and (
            nonhomog_expected_term(sigma2, d[0], d[1], n, N, stats)
            >= nonhomog_expected_term(prev.sigma2, prev.d1, prev.d2,
                                      n, N, stats)):
        return float(sigma2), float(d[0]), float(d[1])
    return float(prev.sigma2), float(prev.d1), float(prev.d2)


def _profiled_nonhomog(d, n, N, stats):
    """f(d) = N n log(A - q(d)) + sum_m W_m log det_m(d), with its gradient
    and Hessian in d = (d1, d2), and A - q(d).

    At sigma2(d) = (A - q(d)) / (N n) the expected term equals
    -(f(d) + const) / 2, so the M-step minimizes f.  Per m, q's numerator
    S1 d1 + S3 d2 + c d1 d2 and det_m = 1 + n d1 + m d2 + e d1 d2 are
    bilinear in d, so every derivative is a quotient rule.  f is +inf
    where A - q(d) <= 0.
    """
    A, m, W, S1, S2, S3 = stats
    d1, d2 = d
    c = m * (S1 - 2.0 * S2) + n * S3
    e = (n - m) * m
    det = _ri_det(n, m, d1, d2)
    r = (S1 * d1 + S3 * d2 + c * d1 * d2) / det          # per-m terms of q
    resid = A - r.sum()
    if not resid > 0:
        return np.inf, None, None, resid
    g_det = np.array([n + e * d2, m + e * d1]) / det     # grad log det_m
    g_r = np.array([S1 + c * d2, S3 + c * d1]) / det - r * g_det
    g_q = g_r.sum(axis=1)
    H_q = -(g_r @ g_det.T)
    H_q += H_q.T
    H_q[0, 1] += np.sum((c - r * e) / det)
    H_q[1, 0] = H_q[0, 1]
    H_ld = -((W * g_det) @ g_det.T)
    H_ld[0, 1] += np.sum(W * e / det)
    H_ld[1, 0] = H_ld[0, 1]
    Nn = N * n
    f = Nn * np.log(resid) + W @ np.log(det)
    g = -Nn * g_q / resid + g_det @ W
    H = -Nn * (H_q / resid + np.outer(g_q, g_q) / resid ** 2) + H_ld
    return f, g, H, resid


def _descent_step(g, H):
    """Newton step -H^{-1} g with H's eigenvalues taken in absolute value
    (and floored), so it points downhill where f is not convex."""
    w, V = np.linalg.eigh(H)
    w = np.abs(w)
    w = np.maximum(w, 1e-12 * w.max(initial=0.0) + 1e-300)
    return -V @ ((V.T @ g) / w)


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
