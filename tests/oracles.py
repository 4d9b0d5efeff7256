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
entry of the joint, including those the package writes as 0 because their
exponentials fall below the smallest normal float.  ``gather_curves_fancy``
is the two-array fancy index that ``em.gather_curves`` replaced with one
flat ``np.take``.
"""

import numpy as np
from scipy.interpolate import BSpline
from scipy.optimize import minimize

from switchcurve.covariance import (nonhomog_expected_term,
                                    nonhomog_sufficient_stats)
from switchcurve.em import EStep
from switchcurve.errors import DegenerateLikelihood
from switchcurve.latent import (joint_posterior, log_prior_table,
                                log_state_probs)


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
    is below log(tiny); this form keeps the subnormal and underflowed
    exponentials.  Returns ``(P, ll)``.
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
    """(T2, gbar) of the two-state logistic model from per-replicate
    (S, M+1) score tables."""
    N, n, M = covariates.shape
    X = np.concatenate([np.ones((N, n, 1)), covariates], axis=2)
    eta = X @ np.concatenate([[beta[0, 0]], beta[0, 1:]])
    mu = 1.0 / (1.0 + np.exp(-eta))
    ind2 = enum.onehot[:, :, 1]
    T2 = np.zeros((M + 1, M + 1))
    gbar = np.empty((N, M + 1))
    for k in range(N):
        G = np.einsum("si,ip->sp", ind2 - mu[k][None, :], X[k])
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


def nonhomog_simplex_update(P, y, Fs, E2, prev):
    """Nelder-Mead over (log sigma2, log d1, log d2) from ``prev``.

    The start is a vertex of the initial simplex (steps of 0.25 in each
    log coordinate) and the best vertex is kept, so the result is never
    below ``prev``.  400 evaluations at most, stopping once the simplex's
    objective spread falls below 1e-10; d below 1e-11 is returned as 0.
    Returns ``(sigma2, d1, d2)``.
    """
    N, n = y.shape
    stats = nonhomog_sufficient_stats(P, y, Fs, E2)

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
    Returns an ``EStep`` with the joint table and, for Markov, pairwise
    posteriors and their transition totals.
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
    P, ll = joint_posterior(table, prior)
    pair = (pairwise_einsum(P, enum) if latent_spec.kind == "markov"
            else None)
    return EStep(marginals=marginals_einsum(P, enum), loglik=ll,
                 pairwise=pair, joint=P,
                 transitions=None if pair is None else pair.sum(axis=(0, 1)),
                 enum=enum)


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
