"""Observed information and standard errors for the latent parameters.

The observed information is assembled from posterior expectations of the
complete-data score and curvature of the latent log prior, holding the
curves and covariance fixed at their estimates:

    I = E(-L2'' | y) - E(L2' L2'^T | y),

with the second expectation expanded over independent replicates as
``sum_k E(g_k g_k') + sum_{k != k'} E(g_k) E(g_k')'``.  Free coordinates:

* iid: p_1..p_{J-1} (p_J implied),
* markov, J = 2: (pi_1, a_12, a_21),
* covariate, J = 2: the logistic coefficients beta.

The generic path enumerates state vectors exactly.  The iid and Markov
curvature blocks also have closed forms, used as the fast route and checked
against the generic one in the tests.  The covariate model factorizes over
points when the covariance is diagonal, so Simulation-scale datasets never
need enumeration there.

The iid and Markov information still needs the joint posterior over all
J**n state vectors.  Structured covariance kinds reuse the E-step's table;
diagonal kinds have none, so ``_joint_for`` builds it from the pointwise
densities.  This is the one place a diagonal kind is enumerated, and it
stops at the enumeration cap with ``EnumerationTooLarge``.
"""

import numpy as np

from . import covariance as cov_mod
from . import latent as lat_mod
from .errors import (
    BoundaryParameter,
    EnumerationTooLarge,
    SingularInformation,
)

_BOUNDARY_EPS = 1e-8

SE_SOFT_ERRORS = (BoundaryParameter, SingularInformation,
                  EnumerationTooLarge)


def _se_from_information(info, labels):
    """Invert the information matrix and return per-parameter SEs."""
    info = np.asarray(info, dtype=float)
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise SingularInformation(str(exc)) from None
    diag = np.diag(cov)
    if np.any(~np.isfinite(diag)) or np.any(diag <= 0):
        raise SingularInformation(
            "information matrix is not positive definite")
    return {lab: float(np.sqrt(v)) for lab, v in zip(labels, diag)}


# ---------------------------------------------------------------------------
# per-state-vector scores in free coordinates
# ---------------------------------------------------------------------------

def _iid_score_table(enum, p):
    """(S, J-1) scores and (S, J-1, J-1) curvatures of the iid log prior."""
    J = p.size
    cj = enum.counts[:, :-1]
    cJ = enum.counts[:, -1:]
    G = cj / p[:-1] - cJ / p[-1]
    S = enum.size
    H = np.zeros((S, J - 1, J - 1))
    H -= (cJ / p[-1] ** 2)[:, :, None]
    idx = np.arange(J - 1)
    H[:, idx, idx] -= cj / p[:-1] ** 2
    return G, H


def _markov_score_table(enum, pi, A):
    """Scores/curvatures for (pi_1, a_12, a_21), two-state chains."""
    first1 = enum.onehot[:, 0, 0]
    first2 = enum.onehot[:, 0, 1]
    n11, n12 = enum.trans[:, 0, 0], enum.trans[:, 0, 1]
    n21, n22 = enum.trans[:, 1, 0], enum.trans[:, 1, 1]
    p1, a12, a21 = pi[0], A[0, 1], A[1, 0]
    G = np.column_stack([
        first1 / p1 - first2 / (1 - p1),
        n12 / a12 - n11 / (1 - a12),
        n21 / a21 - n22 / (1 - a21)])
    H = np.zeros((enum.size, 3, 3))
    H[:, 0, 0] = -first1 / p1 ** 2 - first2 / (1 - p1) ** 2
    H[:, 1, 1] = -n12 / a12 ** 2 - n11 / (1 - a12) ** 2
    H[:, 2, 2] = -n21 / a21 ** 2 - n22 / (1 - a21) ** 2
    return G, H


def _score_second_moment(P, G):
    """sum_k sum_s P_ks G_s G_s' as one GEMM over the S state vectors."""
    return (lat_mod.state_mass(P)[:, None] * G).T @ G


def _expected_curvature(P, H):
    """sum_k sum_s P_ks H_s for an (S, a, b) curvature table."""
    w = lat_mod.state_mass(P)
    return (w @ H.reshape(H.shape[0], -1)).reshape(H.shape[1:])


def _covariate_moments(P, enum, beta, covariates):
    """Louis terms of the two-state logistic model over enumerated states.

    Returns (T2, gbar, H): T2 = sum_k E(g_k g_k' | y_k) written as
    sum_k X_k' D_k X_k with the state-2 co-occupancy
    D_k = E((u - mu_k)(u - mu_k)' | y_k), the (N, M+1) mean scores gbar,
    and the deterministic curvature H summed over replicates and points.
    Rows of P must sum to one.  Temporaries are O(N n^2 + S n); none is
    N x S sized.
    """
    N, n, M = covariates.shape
    X = np.concatenate([np.ones((N, n, 1)), covariates], axis=2)
    eta = X @ np.concatenate([[beta[0, 0]], beta[0, 1:]])
    mu = 1.0 / (1.0 + np.exp(-eta))                      # (N, n)
    u = enum.onehot[:, :, 1]                             # (S, n)
    ubar = P @ u                                         # (N, n)
    Q = np.empty((N, n, n))                              # E(u u' | y_k)
    for i in range(n):
        Q[:, i, :] = P @ (u * u[:, i:i + 1])
    e = ubar - mu
    D = (Q - ubar[:, :, None] * ubar[:, None, :]
         + e[:, :, None] * e[:, None, :])
    T2 = np.einsum("kip,kij,kjq->pq", X, D, X, optimize=True)
    gbar = np.einsum("kip,ki->kp", X, e)
    H = -np.einsum("ki,kip,kiq->pq", mu * (1 - mu), X, X)
    return T2, gbar, H


# ---------------------------------------------------------------------------
# generic enumeration path
# ---------------------------------------------------------------------------

def louis_information_generic(P, enum, latent_spec, params,
                              covariates=None):
    """Exact-information assembly over enumerated state vectors.

    ``P`` is the (N, S) joint posterior at the estimates.  Returns
    (information matrix, labels).
    """
    kind = latent_spec.kind
    if kind == "iid":
        G, H = _iid_score_table(enum, params.p)
        labels = [f"p{j}" for j in range(1, params.p.size)]
        T1 = -_expected_curvature(P, H)
        T2 = _score_second_moment(P, G)
        gbar = P @ G                                     # (N, J-1)
    elif kind == "markov":
        if params.pi.size != 2:
            raise SingularInformation(
                "markov information implemented for J = 2")
        G, H = _markov_score_table(enum, params.pi, params.A)
        labels = ["pi1", "a12", "a21"]
        T1 = -_expected_curvature(P, H)
        T2 = _score_second_moment(P, G)
        gbar = P @ G
    else:
        if params.beta.shape[0] != 1:
            raise SingularInformation(
                "covariate information implemented for J = 2")
        T2, gbar, Hc = _covariate_moments(P, enum, params.beta, covariates)
        labels = [f"beta{m}" for m in range(params.beta.shape[1])]
        T1 = -Hc
    total = gbar.sum(axis=0)
    cross = np.outer(total, total) - np.einsum("ka,kb->ab", gbar, gbar)
    return T1 - (T2 + cross), labels


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def louis_information_iid_closed(P, enum, p):
    """Closed-form curvature block for the iid model.

    Uses the stationarity identities of the fitted point, so it matches the
    generic path only at (near) fixed points of the update.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p < _BOUNDARY_EPS):
        raise BoundaryParameter(
            "a state probability sits at the simplex boundary")
    N = P.shape[0]
    n, J = enum.n, enum.J
    T1 = np.full((J - 1, J - 1), N * n / p[-1])
    T1[np.diag_indices(J - 1)] = N * n * (1.0 / p[:-1] + 1.0 / p[-1])
    G, _ = _iid_score_table(enum, p)
    T2 = _score_second_moment(P, G)
    gbar = P @ G
    T2 -= np.einsum("ka,kb->ab", gbar, gbar)
    labels = [f"p{j}" for j in range(1, J)]
    return T1 - T2, labels


def louis_information_markov_closed(P, enum, params):
    """Closed-form curvature diagonal for the two-state Markov model.

    Off-diagonal curvature terms vanish because the free coordinates
    separate in the complete-data log prior.  The score cross-moment block
    comes from the generic tables.
    """
    pi, A = params.pi, params.A
    if pi.size != 2:
        raise SingularInformation(
            "markov information implemented for J = 2")
    for value, name in ((pi[0], "pi1"), (A[0, 1], "a12"), (A[1, 0], "a21")):
        if value < _BOUNDARY_EPS or value > 1.0 - _BOUNDARY_EPS:
            raise BoundaryParameter(
                f"{name} = {value!r} is at the boundary; "
                "standard errors are unavailable there")
    N = P.shape[0]
    marg = lat_mod.marginals_from_joint(P, enum)
    occ = marg[:, :-1, :].sum(axis=(0, 1))      # expected visits before n
    T1 = np.diag([
        N / (pi[0] * (1 - pi[0])),
        occ[0] / (A[0, 1] * (1 - A[0, 1])),
        occ[1] / (A[1, 0] * (1 - A[1, 0]))])
    G, _ = _markov_score_table(enum, pi, A)
    T2 = _score_second_moment(P, G)
    gbar = P @ G
    total = gbar.sum(axis=0)
    cross = np.outer(total, total) - np.einsum("ka,kb->ab", gbar, gbar)
    return T1 - (T2 + cross), ["pi1", "a12", "a21"]


def louis_information_covariate(marginals, covariates, beta):
    """Marginal-posterior information for the logistic model (J = 2).

    Valid when states are conditionally independent across points given the
    data, which holds for the diagonal covariance kinds.  Scales to large
    N * n without any enumeration.
    """
    if beta.shape[0] != 1:
        raise SingularInformation(
            "covariate information implemented for J = 2")
    N, n, M = covariates.shape
    X = np.concatenate([np.ones((N, n, 1)), covariates], axis=2)
    eta = X @ np.concatenate([[beta[0, 0]], beta[0, 1:]])
    mu = 1.0 / (1.0 + np.exp(-eta))
    q2 = marginals[:, :, 1]
    T1 = np.einsum("ki,kip,kiq->pq", mu * (1 - mu), X, X)
    T2 = np.einsum("ki,kip,kiq->pq", q2 * (1 - q2), X, X)
    total = np.einsum("ki,kip->p", q2 - mu, X)
    labels = [f"beta{m}" for m in range(beta.shape[1])]
    return T1 - T2 - np.outer(total, total), labels


# ---------------------------------------------------------------------------
# dispatch used by ecm_fit
# ---------------------------------------------------------------------------

def standard_errors_for_fit(dataset, latent_spec, cov_spec, theta, step,
                            enumeration_cap=2 ** 20):
    """Compute SEs for a finished fit; returns (dict or None, skip reason).

    Soft failures (boundary estimates, singular information, enumeration
    too large) raise their specific errors; unsupported model combinations
    return a reason string instead.
    """
    J, n = latent_spec.J, dataset.n_points
    kind = latent_spec.kind
    if kind == "covariate":
        if J != 2:
            return None, "covariate standard errors need J = 2"
        if cov_spec.diagonal:
            info, labels = louis_information_covariate(
                step.marginals, dataset.covariates, theta.latent.beta)
        else:
            P, enum = _joint_for(dataset, theta, latent_spec, cov_spec,
                                 step, enumeration_cap)
            info, labels = louis_information_generic(
                P, enum, latent_spec, theta.latent,
                covariates=dataset.covariates)
        return _se_from_information(info, labels), None
    if kind == "markov" and J != 2:
        return None, "markov standard errors need J = 2"
    P, enum = _joint_for(dataset, theta, latent_spec, cov_spec, step,
                         enumeration_cap)
    if kind == "iid":
        info, labels = louis_information_iid_closed(P, enum, theta.latent.p)
    else:
        info, labels = louis_information_markov_closed(P, enum,
                                                       theta.latent)
    return _se_from_information(info, labels), None


def _joint_for(dataset, theta, latent_spec, cov_spec, step,
               enumeration_cap):
    """Joint posterior table at theta, reusing the E-step's when present."""
    from . import em as em_mod

    n, J = dataset.n_points, latent_spec.J
    if J ** n > enumeration_cap:
        raise EnumerationTooLarge(
            f"standard errors need J**n = {J ** n} state vectors, cap is "
            f"{enumeration_cap}")
    enum = lat_mod.enumerate_states(n, J)
    if step is not None and step.joint is not None:
        return step.joint, enum
    F = theta.phi @ em_mod.basis_matrix(
        em_mod.build_basis(dataset.x, theta.phi.shape[1]), dataset.x).T
    if not cov_spec.diagonal:
        redo = em_mod.e_step(dataset, F, theta, latent_spec, cov_spec,
                             enum=enum)
        return redo.joint, enum
    pw = cov_mod.make_structure(cov_spec, theta.cov, n).pointwise_loglik(
        dataset.y, F)
    P, _ = lat_mod.joint_posterior(
        pw.reshape(pw.shape[0], -1) @ enum.flat.T,
        lat_mod.log_prior_table(enum, latent_spec, theta.latent,
                                covariates=dataset.covariates))
    return P, enum
