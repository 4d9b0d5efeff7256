"""Reference forms of package kernels, for the tests to hold them to.

The package computes the enumeration-route contractions as matrix products
against flattened state tables.  The forms here follow the definitions term
by term (explicit einsums, per-state-vector and per-replicate loops).  The
B-spline tables come from scipy's ``BSpline``, which the package itself
does not import.  ``enumerated_e_step`` is the brute-force E-step of the
diagonal covariance kinds, which the package runs pointwise or by
forward-backward instead.  ``nonhomog_simplex_update`` is the derivative-
free nonhomog_ri M-step (scipy's Nelder-Mead) that the package's profiled
Newton search replaced.  ``joint_posterior_dense`` exponentiates every
entry of the joint, including those the package drops because they lie
more than ln S + 36.8 below their row's largest.  ``loglik_table_dense``,
``joint_posterior_full`` and ``enumeration_joint_dense`` are the dense
enumeration E-step the package's one-GEMM, live-column route replaced: a
log-density GEMM plus separate row and column passes (for nonhomog_ri,
each residual against its own dense V_s^{-1} instead), the log prior
added as an (N, S) table, every column normalized, and the columns with mass
taken last.  ``joint_posterior_scattered`` runs the package's
``joint_posterior`` on ``loglik + logprior`` and scatters the result back
to all S columns.  ``gather_curves_fancy`` is the two-array fancy index
that ``gather_curves`` replaced with one flat ``np.take``; the package
itself gathers the curves point by point into its GEMM factor.
``quantile_split_loop`` is the quantile-split start as it was before it
ran the ECM's own coefficient update on the split's one-hot posteriors:
one normal-system solve per state, bincounts, and a loop over the J**2
transition pairs.

The ``*_dense`` consumers are the structured M-steps, the joint normal
system and the Louis information as they were before the E-step handed
on fixed-size moments: each reads a full (N, S) joint posterior P,
through P'1, P'y and P Fs products.  ``louis_information_dense`` writes
each state vector's scores and curvatures from its own derivatives of the
log prior, at any J, not from the package's factor scores.
``estep_from_joint`` turns such a P into the package's E-step outputs
(moments included) with the package's own accumulation, one block over
every column.
"""

import numpy as np
from scipy.interpolate import BSpline
from scipy.linalg import block_diag
from scipy.optimize import minimize

from switchcurve import em as em_mod
from switchcurve import latent as lat_mod
from switchcurve.covariance import (LOG_2PI, make_structure,
                                    nonhomog_expected_term,
                                    nonhomog_sufficient_stats)
from switchcurve.datamodel import (CovariateParams, HomogRIParams,
                                   IIDParams, IsoDiagParams, MarkovParams,
                                   NonHomogRIParams, StateDiagParams, Theta,
                                   UnrestrictedParams)
from switchcurve.em import EStep
from switchcurve.errors import DegenerateLikelihood, NonPositiveSigma
from switchcurve.latent import (joint_posterior, log_prior_table,
                                log_state_probs, posterior_moments)


def state_mass(P):
    """(S,) posterior mass P'1 of each state vector."""
    return np.ones(P.shape[0]) @ P


def _centered(y, Fs):
    """y and Fs less the mean response: every residual y_k - Fs_s is
    unchanged, and the expanded quadratic forms cancel far less."""
    ybar = y.mean(axis=0)
    return y - ybar, Fs - ybar


def gather_curves(F, states):
    """Rows of f_s(x): F (J, n) gathered along each state vector, (S, n),
    by one flat ``np.take``."""
    n = F.shape[1]
    # entry (s, i) of F's flat C-order index is states[s, i] * n + i
    flat = np.multiply(states, n, dtype=np.intp)
    flat += np.arange(n, dtype=np.intp)
    return np.take(F, flat)


def loglik_table_whole(cov, y, F, states, prior=None):
    """The package's ``loglik_table`` over every replicate at once: (N, S)
    log densities about the curves F along ``states``, plus the log
    prior's factor pair, if given."""
    ybar = y.mean(axis=0)
    L, R = prior if prior is not None else (None, None)
    return cov.loglik_table(
        y - ybar, cov.state_factor(F, states, ybar, R=R), L=L)


def estep_from_joint(P, y, enum, latent_kind, nonhomog=False,
                     loglik=np.nan):
    """The package's E-step outputs for a full (N, S) joint table ``P``:
    marginals, per-replicate transition counts and ``Moments``, with
    ``loglik`` (N,) passed through.  ``P`` is left as it is (the package
    overwrites a nonhomog_ri block)."""
    ybar = y.mean(axis=0)
    ll, marg, trans, moments = posterior_moments(
        [(slice(None), P.copy(), loglik, np.arange(enum.size))], enum,
        y - ybar, ybar, latent_kind, nonhomog)
    return EStep(marginals=marg, loglik=ll, transitions=trans,
                 moments=moments)


def bspline_design_matrix(knots, x):
    """Cubic B-spline values b_v(x_m) on ``knots``, shape (len(x), K)."""
    return BSpline.design_matrix(x, knots, 3).toarray()


def bspline_second_derivatives(knots, x):
    """Cubic B-spline second derivatives b_v''(x_m), shape (len(x), K)."""
    K = len(knots) - 4
    return BSpline(knots, np.eye(K), 3).derivative(2)(x)


def vinv_for_state(params, n, u):
    """Dense V_s^{-1} for one nonhomog_ri state-2 indicator u (Woodbury)."""
    u = np.asarray(u, dtype=float)
    U = np.column_stack([np.ones(n), u])
    C = np.diag([params.d1, params.d2])
    core = np.linalg.solve(np.eye(2) + (U.T @ U) @ C, U.T)
    return (np.eye(n) - U @ C @ core) / params.sigma2


def nonhomog_normal_system_loop(B, R, lambdas, y, params, enum, P):
    """The stacked JK x JK nonhomog_ri normal system, one state vector at
    a time."""
    n, K = B.shape
    J = enum.J
    JK = J * K
    w = P.sum(axis=0)
    ytil = P.T @ y
    A = np.zeros((JK, JK))
    b = np.zeros(JK)
    for s in range(enum.size):
        Vi = vinv_for_state(params, n, enum.onehot[s, :, 1])
        ind = enum.onehot[s]                            # (n, J)
        Bw = [B * ind[:, j][:, None] for j in range(J)]
        for j in range(J):
            ViBj = Vi @ Bw[j]
            for l in range(J):
                A[j * K:(j + 1) * K, l * K:(l + 1) * K] += \
                    w[s] * (ViBj.T @ Bw[l])
            b[j * K:(j + 1) * K] += ViBj.T @ ytil[s]
    for j in range(J):
        A[j * K:(j + 1) * K, j * K:(j + 1) * K] += 2.0 * lambdas[j] * R
    return A, b


def joint_posterior_dense(loglik, logprior):
    """Per-replicate joint posteriors with ``exp`` taken of every entry.

    The package's ``joint_posterior`` writes 0 where the shifted log weight
    is below -(ln S + 36.8); this form keeps every exponential, subnormal
    and underflowed ones included.  Returns ``(P, ll)``.
    """
    P = loglik + (logprior if logprior.ndim == 2 else logprior[None, :])
    m = np.max(P, axis=1)
    if np.any(~np.isfinite(m)):
        k = int(np.argmin(np.isfinite(m)))
        raise DegenerateLikelihood(
            f"replicate {k + 1}: no state vector has positive likelihood")
    P -= m[:, None]
    np.exp(P, out=P)
    Z = P.sum(axis=1)
    P /= Z[:, None]
    return P, m + np.log(Z)


def log_prior_dense(prior):
    """The log prior table of a ``log_prior_table`` factor pair (L, R),
    multiplied out: (S,) if L has one row, shared by every replicate
    (iid, markov), else (N, S).  An array is returned as it is."""
    if not isinstance(prior, tuple):
        return prior
    L, R = prior
    table = L @ R.T
    return table[0] if L.shape[0] == 1 else table


def joint_posterior_scattered(loglik, logprior):
    """The package's ``joint_posterior`` of ``loglik + logprior``, scattered
    back to (N, S) with zeros in the columns it drops.  ``logprior`` is
    (S,), (N, S) or a ``log_prior_table`` factor pair.  Returns
    ``(P, ll)``; the inputs are not modified."""
    W = loglik + log_prior_dense(logprior)
    P, ll, cols = joint_posterior(W)
    full = np.zeros(W.shape)
    full[:, cols] = P
    return full, ll


def joint_posterior_full(loglik, logprior, cut=None):
    """Per-replicate joint posteriors normalized over every column.

    Entries whose shifted log weight is below -``cut`` are written as 0,
    the others as exp(shifted) / Z, with Z summed over all S columns.
    ``cut`` defaults to ln S + 36.8 for the table's S columns.  Returns
    ``(P, ll)``; the inputs are not modified.
    """
    P = loglik + log_prior_dense(logprior)
    if cut is None:
        cut = np.log(P.shape[1]) + 36.8
    m = np.max(P, axis=1)
    bad = ~np.isfinite(m)
    if np.any(bad):
        k = int(np.argmax(bad))
        if np.isneginf(m[k]):
            raise DegenerateLikelihood(
                f"replicate {k + 1}: no state vector has positive "
                "likelihood")
        raise DegenerateLikelihood(
            f"replicate {k + 1}: non-finite log-likelihood")
    P -= m[:, None]
    keep = P >= -cut
    P[~keep] = 0.0
    np.exp(P, out=P, where=keep)
    Z = P.sum(axis=1)
    P /= Z[:, None]
    return P, m + np.log(Z)


def loglik_table_dense(cov, y, Fs, E2=None):
    """(N, S) table of log N(y_k; Fs[s], V_s).

    nonhomog_ri: each residual y_k - Fs[s] against its state vector's own
    dense inverse (``vinv_for_state``) and log determinant.  Other kinds:
    the cross-term GEMM, then the per-replicate and per-state-vector terms
    added as two passes.
    """
    n = cov.n
    if cov.kind == "nonhomog_ri":
        out = np.empty((y.shape[0], Fs.shape[0]))
        for s in range(Fs.shape[0]):
            Vi = vinv_for_state(cov.params, n, E2[s])
            r = y - Fs[s]
            ld = np.linalg.slogdet(Vi)[1]
            out[:, s] = -0.5 * (np.einsum("ki,ij,kj->k", r, Vi, r) - ld
                                + n * LOG_2PI)
        return out
    yc, Fc = _centered(y, Fs)
    Vi = cov.vinv()
    yV = yc @ Vi
    row = -0.5 * (np.einsum("ki,ki->k", yV, yc) + cov.logdet()
                  + n * LOG_2PI)
    col = -0.5 * np.einsum("si,si->s", Fc @ Vi, Fc)
    out = yV @ Fc.T
    out += row[:, None]
    out += col[None, :]
    return out


def enumeration_joint_dense(dataset, F, theta, latent_spec, cov_spec, enum):
    """The enumeration E-step's joint by the dense route: the full (N, S)
    log-density and log-prior tables, every column normalized by
    ``joint_posterior_full``, then the columns with mass taken.  Returns
    ``(P (N, S_live), ll, cols)``."""
    cov = make_structure(cov_spec, theta.cov, dataset.n_points)
    E2 = enum.onehot[:, :, 1] if cov_spec.kind == "nonhomog_ri" else None
    table = loglik_table_dense(cov, dataset.y,
                               gather_curves(F, enum.states), E2=E2)
    prior = log_prior_table(enum, latent_spec, theta.latent,
                            covariates=dataset.covariates)
    P, ll = joint_posterior_full(table, prior)
    cols = np.flatnonzero(state_mass(P))
    return np.take(P, cols, axis=1), ll, cols


def gather_curves_fancy(F, states):
    """Rows of f_s(x) by two-array fancy indexing: F[s_i, i]."""
    return F[states.astype(int), np.arange(F.shape[1])[None, :]]


def marginals_einsum(P, enum):
    """(N, n, J) pointwise posteriors, contracted over the one-hot tensor."""
    return np.einsum("ks,sij->kij", P, enum.onehot)


def pairwise_einsum(P, enum):
    """(N, n-1, J, J) neighbouring-pair posteriors, via the pair tensor."""
    pair = np.einsum("sil,sij->silj", enum.onehot[:, :-1, :],
                     enum.onehot[:, 1:, :])
    return np.einsum("ks,silj->kilj", P, pair)


def score_second_moment_einsum(P, G):
    """sum_k sum_s P_ks G_s G_s', the Louis T2 term."""
    return np.einsum("ks,sa,sb->ab", P, G, G)


def covariate_moments_loop(P, enum, beta, covariates):
    """(T2, gbar) of the multinomial-logit model from per-replicate
    (S, (J-1)(M+1)) score tables: G_s = sum_i (u_si - mu_ki) (x) x_ki, u_si
    the indicators of states 2..J at point i."""
    N, n, M = covariates.shape
    X = np.concatenate([np.ones((N, n, 1)), covariates], axis=2)
    mu = np.exp(log_state_probs(beta, covariates))[:, :, 1:]
    ind = enum.onehot[:, :, 1:]
    d = beta.size
    T2 = np.zeros((d, d))
    gbar = np.empty((N, d))
    for k in range(N):
        G = np.einsum("sij,ip->sjp", ind - mu[k][None], X[k]).reshape(-1, d)
        T2 += np.einsum("s,sa,sb->ab", P[k], G, G)
        gbar[k] = P[k] @ G
    return T2, gbar


def intercept_sums_tables(P, y, Fs, E2):
    """(A, b2, bc, c2) of the intercept kinds from the (N, S, n) residual
    tensor r_ks = y_k - Fs_s: A = sum P r'r, and per state vector the sums
    over k of P (1'r)^2, P (1'r)(u'r) and P (u'r)^2."""
    r = y[:, None, :] - Fs[None, :, :]
    t1 = r.sum(axis=2)
    t2 = np.einsum("ksi,si->ks", r, E2)
    return (float(np.einsum("ks,ksi,ksi->", P, r, r)),
            (P * t1 * t1).sum(axis=0), (P * t1 * t2).sum(axis=0),
            (P * t2 * t2).sum(axis=0))


def nonhomog_simplex_update(moments, F, prev):
    """Nelder-Mead over (log sigma2, log d1, log d2) from ``prev``.

    The start is a vertex of the initial simplex (steps of 0.25 in each
    log coordinate) and the best vertex is kept, so the result is never
    below ``prev``.  400 evaluations at most, stopping once the simplex's
    objective spread falls below 1e-10; d below 1e-11 is returned as 0.
    Returns ``(sigma2, d1, d2)``.
    """
    N, n = moments.N, moments.yy.shape[0]
    stats = nonhomog_sufficient_stats(moments, F)

    def neg(z):
        s2, d1, d2 = np.exp(z)
        return -nonhomog_expected_term(s2, d1, d2, n, N, stats)

    z0 = np.log([max(prev.sigma2, 1e-300), max(prev.d1, 1e-12),
                 max(prev.d2, 1e-12)])
    simplex = np.tile(z0, (4, 1))
    simplex[1:] += 0.25 * np.eye(3)
    res = minimize(neg, z0, method="Nelder-Mead",
                   options={"maxfev": 400, "fatol": 1e-10, "xatol": np.inf,
                            "initial_simplex": simplex})
    sigma2, d1, d2 = np.exp(res.x if res.fun <= neg(z0) else z0)
    return (float(sigma2), 0.0 if d1 <= 1e-11 else float(d1),
            0.0 if d2 <= 1e-11 else float(d2))


def enumerated_e_step(dataset, F, theta, latent_spec, cov_spec, enum):
    """E-step of a diagonal covariance kind over all J**n state vectors.

    Each state vector's log density is the sum over points of the normal
    log densities of y_ki about F[s_i, i] with variance sigma2[s_i].
    Returns an ``EStep`` with the moments of the joint table and, for
    Markov, pairwise posteriors and transition counts.
    """
    if not cov_spec.diagonal:
        raise ValueError(f"{cov_spec.kind} is not a diagonal kind")
    s2 = np.broadcast_to(np.asarray(theta.cov.sigma2, dtype=float),
                         (F.shape[0],))
    r = dataset.y[:, :, None] - F.T[None, :, :]
    pointwise = -0.5 * (r * r / s2 + np.log(2.0 * np.pi * s2))
    table = np.einsum("kij,sij->ks", pointwise, enum.onehot)
    prior = log_prior_table(enum, latent_spec, theta.latent,
                            covariates=dataset.covariates)
    P, ll = joint_posterior_scattered(table, prior)
    step = estep_from_joint(P, dataset.y, enum, latent_spec.kind, loglik=ll)
    step.marginals = marginals_einsum(P, enum)
    if latent_spec.kind == "markov":
        step.pairwise = pairwise_einsum(P, enum)
    return step


def expected_latent_loglik(latent_spec, params, marginals, pairwise=None,
                           covariates=None):
    """Posterior-expected complete-data log prior, the alpha M-step target."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if latent_spec.kind == "iid":
            lp = np.log(params.p)
            return float(np.sum(marginals.sum(axis=(0, 1))
                                * np.where(np.isfinite(lp), lp, 0.0)))
        if latent_spec.kind == "markov":
            lpi = np.log(params.pi)
            lA = np.log(params.A)
            init = marginals[:, 0, :].sum(axis=0)
            tr = pairwise.sum(axis=(0, 1))
            val = np.sum(init * np.where(np.isfinite(lpi), lpi, 0.0))
            val += np.sum(tr * np.where(np.isfinite(lA), lA, 0.0))
            if (np.any(init[np.isneginf(lpi)] > 0)
                    or np.any(tr[np.isneginf(lA)] > 0)):
                return -np.inf
            return float(val)
    lp = log_state_probs(params.beta, covariates)
    return float(np.sum(marginals * lp))


# ---------------------------------------------------------------------------
# the structured consumers on a dense joint table
# ---------------------------------------------------------------------------

def general_normal_system_dense(B, R, lambdas, y, cov, enum, P):
    """``em.general_normal_system`` from the (N, S) joint table: A from
    Pi = E'diag(P'1)E, b from P'y; nonhomog_ri subtracts G'(w h G) and
    G'(h u~'ytil) with G[s] = vec_j (D_sj B)'u~_s."""
    n, K = B.shape
    J = enum.J
    JK = J * K
    w = state_mass(P)
    ytil = (y.T @ P).T                                  # (S, n)
    Vi = cov.vinv()
    E = enum.flat
    Pi = E.T @ (w[:, None] * E)
    Mexp = Pi.reshape(n, J, n, J) * Vi[:, None, :, None]
    A = np.einsum("ia,ijpq,pb->jaqb", B, Mexp, B,
                  optimize=True).reshape(JK, JK)
    C = (ytil.T @ E).reshape(n, n, J)        # sum_s ytil_sq D_s(i, j)
    agg = np.einsum("qi,qij->ij", Vi, C)
    b = np.einsum("ia,ij->ja", B, agg).reshape(JK)
    if cov.kind == "nonhomog_ri":
        E2 = enum.onehot[:, :, 1]
        cm, h, _ = cov.state_terms(E2.sum(axis=1))
        Bk = np.einsum("ia,jl->ijla", B, np.eye(J)).reshape(n * J, JK)
        G = (E @ Bk).reshape(-1, J, K)
        G *= ((np.arange(J) == 1) - cm[:, None])[:, :, None]
        G = G.reshape(-1, JK)
        uy = np.einsum("si,si->s", E2, ytil) - cm * ytil.sum(axis=1)
        A -= G.T @ ((w * h)[:, None] * G)
        b -= G.T @ (h * uy)
    for j in range(J):
        A[j * K:(j + 1) * K, j * K:(j + 1) * K] += 2.0 * lambdas[j] * R
    return A, b


def update_unrestricted_dense(P, y, Fs):
    """Posterior-weighted residual second-moment matrix from P Fs, on
    centred arrays (the uncentred expansion errs by up to 1.4e-12 relative
    against a long-double reference at noise 0.02)."""
    y, Fs = _centered(y, Fs)
    w = state_mass(P)
    PF = P @ Fs
    V = (y.T @ y - y.T @ PF - PF.T @ y + Fs.T @ (w[:, None] * Fs))
    V /= P.shape[0]
    return 0.5 * (V + V.T)


def posterior_sums_dense(P, y, Fs):
    """``(A, b2, w, tf, Pt)`` of the intercept kinds from the joint table:
    A = sum P r'r, b2 the per-s sums of P (1'r)^2, w = P'1, tf = Fs 1,
    Pt = P'(y 1).  Callers pass centred arrays."""
    w = state_mass(P)
    ty = y.sum(axis=1)
    tf = Fs.sum(axis=1)
    Pt = (np.column_stack([ty, ty * ty]).T @ P).T
    b2 = Pt[:, 1] - 2.0 * tf * Pt[:, 0] + w * tf * tf
    A = ((P @ np.ones(P.shape[1])) @ np.einsum("ki,ki->k", y, y)
         - 2.0 * np.einsum("ki,ki->", y, P @ Fs)
         + w @ np.einsum("si,si->s", Fs, Fs))
    return float(A), b2, w, tf, Pt[:, 0]


def update_homog_ri_dense(P, y, Fs):
    """Closed-form sigma2 and d >= 0 of the shared random intercept from
    the joint table; at d <= 0 the conditional maximum at d = 0."""
    N, n = y.shape
    ss_full, b2, _, _, _ = posterior_sums_dense(P, *_centered(y, Fs))
    ss_mean = float(b2.sum())
    sigma2 = (ss_full - ss_mean / n) / (N * (n - 1))
    if sigma2 <= 0:
        raise NonPositiveSigma(f"sigma2 update gave {sigma2!r}")
    d = ss_mean / (sigma2 * N * n ** 2) - 1.0 / n
    if d > 0:
        return sigma2, d
    return ss_full / (N * n), 0.0


def nonhomog_sufficient_stats_dense(P, y, Fs, E2):
    """``covariance.nonhomog_sufficient_stats`` from the joint table, per
    state vector then binned by m, with its (N, S) (u'y)^2 table."""
    y, Fs = _centered(y, Fs)
    A, b2, w, tf, Pt = posterior_sums_dense(P, y, Fs)
    n = y.shape[1]
    g = np.einsum("si,si->s", E2, Fs)                  # u_s'Fs_s
    Q = (np.hstack([y, y.sum(axis=1)[:, None] * y]).T @ P).T
    Pu = np.einsum("si,si->s", E2, Q[:, :n])           # sum_k P u'y
    Ptu = np.einsum("si,si->s", E2, Q[:, n:])          # sum_k P 1'y u'y
    yu = y @ E2.T
    yu *= yu
    Puu = np.einsum("ks,ks->s", P, yu)                 # sum_k P (u'y)^2
    bc = Ptu - g * Pt - tf * Pu + w * tf * g
    c2 = Puu - 2.0 * g * Pu + w * g * g
    m_s = E2.sum(axis=1).astype(int)
    size = n + 1
    return (A, np.arange(size), np.bincount(m_s, weights=w, minlength=size),
            np.bincount(m_s, weights=b2, minlength=size),
            np.bincount(m_s, weights=bc, minlength=size),
            np.bincount(m_s, weights=c2, minlength=size))


def simplex_score_terms(C, p, implied):
    """Per state vector score (S, J-1) and negative Hessian (S, J-1, J-1)
    of sum_j C_sj log p_j in the free entries of p, all but p[implied]:
    d/dp_m = C_sm / p_m - C_s,implied / p_implied."""
    free = [j for j in range(p.size) if j != implied]
    G = C[:, free] / p[free] - C[:, [implied]] / p[implied]
    curv = (np.einsum("sa,ab->sab", C[:, free] / p[free] ** 2,
                      np.eye(len(free)))
            + (C[:, implied] / p[implied] ** 2)[:, None, None])
    return G, curv


def louis_information_dense(P, enum, latent_spec, params, covariates=None):
    """Louis information from the joint table, at any J: per state vector
    scores G and curvatures, E(-H | y) = sum_s w_s (-H_s), T2 = sum_s w_s
    G_s G_s' and gbar = P G."""
    kind, J = latent_spec.kind, enum.J
    if kind == "covariate":
        beta = params.beta
        T2, gbar = covariate_moments_loop(P, enum, beta, covariates)
        X = np.concatenate([np.ones(covariates.shape[:2] + (1,)),
                            covariates], axis=2)
        mu = np.exp(log_state_probs(beta, covariates))[:, :, 1:]
        W = mu[..., :, None] * (np.eye(J - 1) - mu[..., None, :])
        T1 = np.einsum("kijl,kip,kiq->jplq", W, X, X).reshape(
            beta.size, beta.size)
        labels = [f"beta{m}" + (f"_{j}" if j > 2 else "")
                  for j in range(2, J + 1) for m in range(beta.shape[1])]
        return T1 - (T2 - gbar.T @ gbar), labels
    w = state_mass(P)
    if kind == "iid":
        terms = [simplex_score_terms(enum.counts, params.p, J - 1)]
        labels = [f"p{j}" for j in range(1, J)]
    else:
        terms = [simplex_score_terms(enum.onehot[:, 0, :], params.pi, J - 1)]
        terms += [simplex_score_terms(enum.trans[:, l, :], params.A[l], l)
                  for l in range(J)]
        labels = [f"pi{j}" for j in range(1, J)] + [
            f"a{l}{j}" for l in range(1, J + 1) for j in range(1, J + 1)
            if j != l]
    G = np.hstack([g for g, _ in terms])
    T1 = block_diag(*[np.einsum("s,sab->ab", w, c) for _, c in terms])
    gbar = P @ G
    return T1 - (score_second_moment_einsum(P, G) - gbar.T @ gbar), labels


def quantile_split_loop(dataset, latent_spec, cov_spec, B, R, lambdas):
    """The quantile-split start in loop form: a pooled penalized spline,
    points banked into J bands by residual quantile, then one spline per
    band (the pooled one for a band of fewer than 4 points), counted
    frequencies and transitions floored at 0.05 of their total, the
    multinomial-logit fit to the floored split, and residual moments."""
    floor = em_mod._ALPHA_FLOOR

    def floor_probs(w):
        w = np.asarray(w, dtype=float)
        p = np.maximum(w, floor * w.sum())
        return p / p.sum()

    J = latent_spec.J
    y = dataset.y
    N, n = y.shape
    K = B.shape[1]
    lam_bar = float(np.mean(lambdas))
    M, rhs = em_mod.diagonal_normal_system(B, R, lam_bar, np.ones((N, n)), y)
    pooled = em_mod._solve_spd(M, rhs, "pooled initial fit")
    resid = y - (B @ pooled)[None, :]

    if J == 1:
        assign = np.zeros((N, n), dtype=int)
    else:
        edges = np.quantile(resid, np.arange(1, J) / J)
        assign = np.searchsorted(edges, resid, side="left")

    phi = np.empty((J, K))
    for j in range(J):
        w = (assign == j).astype(float)
        if w.sum() < 4:
            phi[j] = pooled
            continue
        M, rhs = em_mod.diagonal_normal_system(B, R, lambdas[j], w, y)
        phi[j] = em_mod._solve_spd(M, rhs, f"initial fit, state {j + 1}")
    F0 = phi @ B.T

    r = y - F0[assign, np.arange(n)[None, :]]
    if latent_spec.kind == "iid":
        freq = np.bincount(assign.ravel(), minlength=J) / (N * n)
        alpha = IIDParams(p=floor_probs(freq))
    elif latent_spec.kind == "markov":
        pi = np.bincount(assign[:, 0], minlength=J) / N
        A = np.zeros((J, J))
        for l in range(J):
            for j in range(J):
                A[l, j] = np.sum((assign[:, :-1] == l)
                                 & (assign[:, 1:] == j))
            A[l] = floor_probs(A[l] if A[l].sum() > 0 else np.ones(J))
        alpha = MarkovParams(pi=floor_probs(pi), A=A)
    else:
        hard = np.zeros((N, n, J))
        np.put_along_axis(hard, assign[:, :, None], 1.0, axis=2)
        soft = floor / J + (1 - floor) * hard
        beta0 = np.zeros((J - 1, dataset.n_covariates + 1))
        alpha, _ = lat_mod.update_alpha(
            latent_spec, CovariateParams(beta=beta0), soft,
            covariates=dataset.covariates)

    kind = cov_spec.kind
    if kind == "iso_diag":
        cov = IsoDiagParams(sigma2=max(float(np.mean(r ** 2)), 1e-12))
    elif kind == "state_diag":
        s2 = np.empty(J)
        for j in range(J):
            mask = assign == j
            s2[j] = np.mean(r[mask] ** 2) if mask.any() else np.mean(r ** 2)
        cov = StateDiagParams(sigma2=np.maximum(s2, 1e-12))
    elif kind == "unrestricted":
        C = (r.T @ r) / N
        cov = UnrestrictedParams(
            V=C + (0.05 * np.trace(C) / n + 1e-10) * np.eye(n))
    else:
        mk = r.mean(axis=1)
        within = max(float(np.mean((r - mk[:, None]) ** 2)), 1e-12)
        between = float(np.var(mk))
        d = max(between - within / n, 0.0) / within
        if kind == "homog_ri":
            cov = HomogRIParams(sigma2=within, d=d)
        else:
            cov = NonHomogRIParams(sigma2=within, d1=d, d2=max(d, 1e-2))
    return Theta(phi=phi, latent=alpha, cov=cov, lambdas=np.asarray(
        lambdas, dtype=float))
