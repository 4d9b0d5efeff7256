"""Within-replicate covariance models: densities and M-step updates.

Five covariance kinds are supported.  ``iso_diag`` and ``state_diag`` are
diagonal; ``unrestricted`` is a dense SPD matrix; ``homog_ri`` adds a
shared random intercept, V = sigma2 (I + d 11'); ``nonhomog_ri`` (J = 2
only) adds a second intercept acting on the state-2 points of each
replicate, V_s = sigma2 (I + d1 11' + d2 u_s u_s').  Each is its parameter
block's class (``COV_PARAMS`` by kind), which holds the kind's start,
M-step, one check, V^{-1} and log det V, derived values and relabelling;
``CovStructure`` is a checked block on n points with the log densities
every kind shares.

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
read the E-step's fixed-size posterior moments (``latent.Moments``)
through the residual second-moment matrix
S = sum_k sum_s P_ks (y_k - f_s)(y_k - f_s)': ``unrestricted`` is S / N,
``homog_ri`` reads tr S and 1'S1, and nonhomog_ri's r'r sum is tr S.

Every M-step is closed form except nonhomog_ri's.  There sigma2 profiles
out in closed form and (d1, d2) >= 0 come from ``latent.newton_search``,
the search the covariate latent M-step also runs: damped Newton on the
analytic derivatives, with the bound on, from the previous parameters; an
ascent guard keeps the previous parameters if the result's objective is
lower.  Dense factorizations are numpy's (Cholesky for ``unrestricted``).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadInit, NonPositiveSigma, NotSPD
from .latent import MASS_EPS, _Block, newton_search

LOG_2PI = float(np.log(2.0 * np.pi))

# The log-density table expands the quadratic form (y - f)'V^{-1}(y - f)
# into y'V^{-1}y - 2 y'V^{-1}f + f'V^{-1}f, whose rounding is about
# cond(C) * eps relative to the form, C the correlation matrix of V (a
# diagonal rescaling of V, by powers of two say, rounds alike and leaves
# C as it is).  ECM's ascent check compares objectives to 1e-8 relative
# (``em._ASCENT_RTOL``), so past cond(C) = 1e-8 / eps (about 4.5e7) the
# check reads rounding, not ascent.
_COND_MAX = 1e-8 / np.finfo(float).eps


class CovStructure:
    """A covariance kind's block on n points, checked once by the kind's
    ``check``, with the log densities every kind shares.  ``ecm_fit``
    builds one per theta; its V^{-1} and log det V are computed once, on
    first use, and shared read-only by every caller."""

    def __init__(self, kind, params, n):
        self.kind = kind
        self.params = params
        self.n = int(n)
        params.check(self.n)

    # -- whole-matrix views --------------------------------------------------

    def vinv(self):
        """Dense V^{-1}, shape (n, n); for nonhomog_ri the homog_ri inverse
        at d = d1 that every V_s^{-1} shares (see ``state_terms``)."""
        return self._vinv

    @cached_property
    def _vinv(self):
        Vi = self.params.vinv(self.n)
        Vi.flags.writeable = False
        return Vi

    def logdet(self):
        """log det V; for nonhomog_ri the homog_ri part at d = d1."""
        return self._logdet

    @cached_property
    def _logdet(self):
        return self.params.logdet(self.n)

    def state_terms(self, m):
        """nonhomog_ri's rank-one terms (``NonHomogRIParams.state_terms``)."""
        return self.params.state_terms(self.n, m)

    # -- log densities -------------------------------------------------------

    def pointwise_loglik(self, y, F):
        """(N, n, J) table of log N(y_ki; F[j, i], sigma_j^2).

        Diagonal kinds only.
        """
        if not self.params.diagonal:
            raise ValueError(f"{self.kind} is not diagonal")
        r2 = (y[:, :, None] - F.T[None, :, :]) ** 2
        s2 = self.params.sigma2 * np.ones(F.shape[0])   # one per state
        return -0.5 * (r2 / s2 + np.log(s2) + LOG_2PI)

    def state_factor(self, F, flat, ybar, R=None):
        """``loglik_table``'s right factor, built once per E-step:
        ``(right, rank1)`` with right = [Fc, 1, col, R]' (n + 2 + c, S),
        Fc[s] = F[s_i, i] - ybar_i the curves (J, n) along each state
        vector s, given by its (S, n J) indicator rows ``flat``
        (``latent.StateEnumeration.flat``), centred like the response rows,
        col its terms of the quadratic form (the kind's ``quad_forms``) and
        log determinant and R the log prior's right half (S, c); rank1 is
        nonhomog_ri's (U, U'Fc, h / 2), U the columns u~_s
        (``state_terms``) read off the state-2 indicators.  state_diag has
        no such factor: its tables decompose pointwise."""
        n, Vi = self.n, self.vinv()
        J = F.shape[0]
        c = 0 if R is None else R.shape[1]
        right = np.empty((n + 2 + c, flat.shape[0]))
        Fc = right[:n]
        # D (n, n J) holds point i's J curve values in its own columns, so
        # each entry of D flat' has one nonzero term: an exact gather
        D = np.zeros((n, n, J))
        D[np.arange(n), np.arange(n)] = (F - ybar).T
        np.matmul(D.reshape(n, n * J), flat.T, out=Fc)
        right[n] = 1.0
        right[n + 1] = -0.5 * self.params.quad_forms(Fc, Vi)
        if c:
            right[n + 2:] = R.T
        if not self.params.rank_one:
            return right, None
        E2 = flat[:, 1::J]
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
    s = np.zeros(r.size, np.int8) if states is None \
        else np.asarray(states, dtype=np.int8)
    if cov.params.diagonal:     # one variance, or one per state
        s2 = np.asarray(cov.params.sigma2)
        s2 = s2[s] if s2.ndim else s2
        return float(-0.5 * np.sum(r ** 2 / s2 + np.log(s2) + LOG_2PI))
    # a row per state in s, and at least nonhomog_ri's two
    zero = np.zeros((max(int(s.max()) + 1, 2), r.size))
    flat = (s[:, None] == np.arange(len(zero))).astype(float).reshape(1, -1)
    return float(cov.loglik_table(r[None, :], cov.state_factor(
        zero, flat, zero[0]))[0, 0])


# ---------------------------------------------------------------------------
# M-step updates from posterior moments (enumeration path)
# ---------------------------------------------------------------------------
#
# Each takes the E-step's ``latent.Moments`` and the updated curves F (J, n).
# With phi = (F - ybar)' flattened, f_s - ybar = E_s'phi for the curves f_s
# along state vector s, so every posterior sum of a quadratic in the
# residuals y_k - f_s is a product of the moments with phi.

def residual_second_moment(moments, F):
    """S = sum_k sum_s P_ks (y_k - f_s)(y_k - f_s)', symmetrized.

    With Phi the (n, n J) matrix that puts phi's row i on point i's
    indicators, f_s - ybar = Phi E_s, so S = yy - C Phi' - Phi C'
    + Phi O Phi' for the centred sums yy and C and the co-occupancy O.
    """
    J, n = F.shape
    phi = (F - moments.ybar).T
    Phi = np.einsum("ip,pj->ipj", np.eye(n), phi).reshape(n, n * J)
    cross = moments.C @ Phi.T
    S = moments.yy - cross - cross.T + Phi @ moments.occupancy @ Phi.T
    return 0.5 * (S + S.T)


def update_unrestricted(moments, F):
    """Posterior-weighted residual second-moment matrix."""
    return residual_second_moment(moments, F) / moments.N


def update_homog_ri(moments, F):
    """Closed-form conditional maximum of sigma2 and d >= 0 for the shared
    random-intercept model; where the unconstrained d is <= 0, it is d = 0
    with sigma2 the mean squared residual.  Its two sums, of |y_k - f_s|^2
    and of (1'(y_k - f_s))^2, are the trace and the total of S."""
    N, n = moments.N, moments.yy.shape[0]
    S = residual_second_moment(moments, F)
    ss_full, ss_mean = float(np.trace(S)), float(S.sum())
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
    where A is the posterior sum of r'r (tr S) and S1/S2/S3 aggregate
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
    return (float(np.trace(residual_second_moment(moments, F))),
            np.arange(t.shape[0]), t[:, 0], S1, S2, S3)


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
    ``_profiled_nonhomog``): ``latent.newton_search`` minimizes it with
    its bound on, so d1 or d2 can reach exactly 0.  If the result's
    ``nonhomog_expected_term`` is below the one at ``prev`` (or its sigma2
    is not positive), ``prev`` is returned: conditional ascent holds by
    construction.

    Returns ``(sigma2, d1, d2)``.
    """
    N, n = moments.N, moments.yy.shape[0]
    stats = nonhomog_sufficient_stats(moments, F)
    d, _ = newton_search(lambda d: _profiled_nonhomog(d, n, N, stats),
                         [prev.d1, prev.d2], N * n, bounded=True)
    sigma2 = _profiled_nonhomog(d, n, N, stats)[3] / (N * n)
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


# ---------------------------------------------------------------------------
# M-step updates from marginal posteriors (diagonal path)
# ---------------------------------------------------------------------------

def update_state_diag(marginals, y, F, prev_sigma2):
    """Per-state variances; a state without posterior mass (under
    ``latent.MASS_EPS``) keeps its previous value."""
    r2 = (y[:, :, None] - F.T[None, :, :]) ** 2
    num = np.einsum("kij,kij->j", marginals, r2)
    den = np.einsum("kij->j", marginals)
    sigma2 = np.array(prev_sigma2, dtype=float, copy=True)
    for j in np.flatnonzero(den >= MASS_EPS):
        sigma2[j] = num[j] / den[j]
        if sigma2[j] <= 0:
            raise NonPositiveSigma(
                f"state {j + 1} variance update gave {sigma2[j]!r}")
    return sigma2


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


# ---------------------------------------------------------------------------
# parameter blocks: one class per covariance kind
# ---------------------------------------------------------------------------

def _finite_logdet(block, name, logdet):
    if not np.all(np.isfinite(logdet)):
        raise BadInit(f"{name} = {getattr(block, name)!r} gives a "
                      "non-finite log det V")


class _CovBlock(_Block):
    """A covariance kind.  ``check(n, J=None)`` raises ``NonPositiveSigma``
    or ``NotSPD`` unless the block is a covariance on n points and, given
    the J of the fit it is supplied to, ``BadInit`` naming the field unless
    it fits J, lies in the M-step's range and has a finite log det V.
    ``vinv`` and ``logdet`` default to V = sigma2 (I + d 11'), d =
    ``d_shared``; ``quad_forms``, the E-step's quadratic forms of the
    curves along each state vector, defaults to the product through
    V^{-1}, which homog_ri replaces by an O(n S) form.  Route facts:
    ``diagonal`` (V factorizes over points, with sigma2 one variance or
    one per state), ``rank_one`` (V_s is a shared V plus a rank-one term
    in the state vector, so the E-step's moments are stratified by its
    count of state-2 points) and ``only_J``.
    """

    diagonal = False
    rank_one = False
    only_J = None
    d_shared = 0.0

    def check(self, n, J=None):
        if (np.asarray(self.sigma2) <= 0).any():
            raise NonPositiveSigma(f"sigma2 = {self.sigma2!r}")

    def vinv(self, n):
        d = self.d_shared
        c = d / (1.0 + n * d)
        return (np.eye(n) - c * np.ones((n, n))) / self.sigma2

    def quad_forms(self, Fc, Vi):
        """f'V^{-1}f for each column f of Fc (n, S), given V^{-1} ``Vi``.

        nonhomog_ri keeps this product through V^{-1}: its M-step's
        maximum in (d1, d2) is flat, and the O(n S) form of homog_ri's
        ``quad_forms``, rounding differently, moves d1 and d2 by up to
        1e-9 relative where the objective moves by 3e-15."""
        return np.einsum("is,is->s", Vi @ Fc, Fc)

    def logdet(self, n):
        return n * np.log(self.sigma2) + np.log(1.0 + n * self.d_shared)


@dataclass
class IsoDiagParams(_CovBlock):
    """V = sigma2 * I."""

    sigma2: float

    kind = "iso_diag"
    diagonal = True

    @classmethod
    def start(cls, r, hard):
        return cls(sigma2=max(float(np.mean(r ** 2)), 1e-12))

    def m_step(self, step, y, F):
        return IsoDiagParams(sigma2=update_iso(step.marginals, y, F))


@dataclass
class StateDiagParams(_CovBlock):
    """Diagonal V with per-state variances sigma2[j]."""

    sigma2: np.ndarray

    kind = "state_diag"
    diagonal = True
    by_state = {"sigma2": 1}

    @classmethod
    def start(cls, r, hard):
        s2 = np.empty(hard.shape[2])
        for j in range(s2.size):
            mask = hard[:, :, j] > 0
            s2[j] = np.mean(r[mask] ** 2) if mask.any() else np.mean(r ** 2)
        return cls(sigma2=np.maximum(s2, 1e-12))

    def check(self, n, J=None):
        if J is not None and self.sigma2.shape != (J,):
            raise BadInit(f"sigma2 must hold J = {J} values")
        super().check(n, J)

    def m_step(self, step, y, F):
        return StateDiagParams(sigma2=update_state_diag(
            step.marginals, y, F, self.sigma2))

    def vinv(self, n):
        raise ValueError("state_diag tables decompose pointwise; build them "
                         "from pointwise_loglik and the enumeration one-hots")


@dataclass
class UnrestrictedParams(_CovBlock):
    """Dense symmetric positive definite V."""

    V: np.ndarray

    kind = "unrestricted"

    @classmethod
    def start(cls, r, hard):
        """The residual covariance, ridged by 5% of its mean variance."""
        N, n = r.shape
        C = (r.T @ r) / N
        return cls(V=C + (0.05 * np.trace(C) / n + 1e-10) * np.eye(n))

    def check(self, n, J=None):
        V = self.V
        if V.shape != (n, n):
            raise NotSPD(f"V shape {V.shape}, expected {(n, n)}")
        if not np.allclose(V, V.T, rtol=1e-10, atol=1e-12):
            raise NotSPD("V is not symmetric")
        try:
            chol = self._chol
        except np.linalg.LinAlgError as exc:
            raise NotSPD(f"V is not positive definite: {exc}") from None
        # the rows of L over sqrt(diag V) factor V's correlation matrix
        sv = np.linalg.svd(chol / np.sqrt(np.diag(V))[:, None],
                           compute_uv=False)
        cond = (sv[0] / sv[-1]) ** 2
        if not cond <= _COND_MAX:
            raise NotSPD(
                f"V's correlation matrix has condition number "
                f"{cond:.3g}, beyond the {_COND_MAX:.3g} at which its "
                "log densities still resolve the ascent check")

    @cached_property
    def _chol(self):
        return np.linalg.cholesky(np.asarray_chkfinite(self.V))

    def m_step(self, step, y, F):
        return UnrestrictedParams(V=update_unrestricted(step.moments, F))

    def vinv(self, n):
        Li = np.linalg.solve(self._chol, np.eye(n))
        return Li.T @ Li

    def logdet(self, n):
        return 2.0 * np.sum(np.log(np.diag(self._chol)))


@dataclass
class HomogRIParams(_CovBlock):
    """Random-intercept V = sigma2 * (I + d * 11'); tau2 = d * sigma2."""

    sigma2: float
    d: float

    kind = "homog_ri"
    d_shared = property(lambda self: self.d)

    @property
    def tau2(self):
        return self.d * self.sigma2

    @classmethod
    def start(cls, r, hard):
        """sigma2 the within-replicate variance of the split's residuals
        and d the excess variance of their replicate means, relative."""
        mk = r.mean(axis=1)
        within = max(float(np.mean((r - mk[:, None]) ** 2)), 1e-12)
        between = float(np.var(mk))
        return cls(sigma2=within,
                   d=max(between - within / r.shape[1], 0.0) / within)

    def check(self, n, J=None):
        # the structure admits -1/n < d < 0, which the M-step never gives
        if J is not None and self.d < 0:
            raise BadInit("need d >= 0")
        super().check(n, J)
        if 1.0 + n * self.d <= 0:
            raise NotSPD(f"homog_ri with d = {self.d!r} is not SPD")
        if J is not None:
            _finite_logdet(self, "d", self.logdet(n))

    def m_step(self, step, y, F):
        return HomogRIParams(*update_homog_ri(step.moments, F))

    def quad_forms(self, Fc, Vi):
        """In O(n S): (sum f^2 - c (sum f)^2) / sigma2, c = d / (1 + n d)."""
        c = self.d / (1.0 + Fc.shape[0] * self.d)
        t = Fc.sum(axis=0)
        return (np.einsum("is,is->s", Fc, Fc) - c * t * t) / self.sigma2

    def derived(self):
        return {"tau2": self.tau2}


@dataclass
class NonHomogRIParams(_CovBlock):
    """Two-state random intercept with a state-2 variance component.

    V_s = sigma2 * (I + d1 * 11' + d2 * u_s u_s') where u_s indicates the
    points assigned to state 2; tau2_j = d_j * sigma2.
    """

    sigma2: float
    d1: float
    d2: float

    kind = "nonhomog_ri"
    rank_one = True
    only_J = 2
    d_shared = property(lambda self: self.d1)

    @property
    def tau2(self):
        return self.d1 * self.sigma2, self.d2 * self.sigma2

    @classmethod
    def start(cls, r, hard):
        """homog_ri's start, d2 at least 1e-2."""
        shared = HomogRIParams.start(r, hard)
        return cls(sigma2=shared.sigma2, d1=shared.d, d2=max(shared.d, 1e-2))

    def check(self, n, J=None):
        super().check(n, J)
        if self.d1 < 0 or self.d2 < 0:
            raise NotSPD("nonhomog_ri needs d1, d2 >= 0")
        if J is not None:
            _finite_logdet(self, "d1", self.logdet(n))
            with np.errstate(over="ignore", invalid="ignore"):
                log_D = self.state_terms(n, np.arange(n + 1.0))[2]
            _finite_logdet(self, "d2", log_D)

    def state_terms(self, n, m):
        """The rank-one terms for state vectors with ``m`` (array) state-2
        points.

        With c = d1 / (1 + n d1), u~_s = u_s - c m 1 and
        D_m = 1 + d2 m (1 - c m) >= 1, Sherman-Morrison gives
        V_s^{-1} = vinv() - h_m u~_s u~_s' with h_m = d2 / (sigma2 D_m),
        and log det V_s = logdet() + log D_m.  Returns
        ``(c m, h_m, log D_m)``.
        """
        cm = self.d1 / (1.0 + n * self.d1) * m
        D = 1.0 + self.d2 * m * (1.0 - cm)
        return cm, self.d2 / (self.sigma2 * D), np.log(D)

    def m_step(self, step, y, F):
        return NonHomogRIParams(*update_nonhomog_ri(step.moments, F, self))

    def derived(self):
        return dict(zip(("tau2_1", "tau2_2"), self.tau2))


COV_PARAMS = {c.kind: c for c in (IsoDiagParams, StateDiagParams,
                                  UnrestrictedParams, HomogRIParams,
                                  NonHomogRIParams)}
