"""Observed information and standard errors for the latent parameters.

The observed information comes from Louis's identity, holding the curves
and covariance fixed at their estimates.  With g_k the complete-data score
of replicate k's latent log prior and H its curvature,

    I = E(-H | y) - sum_k Cov(g_k | y_k).

This is the negative Hessian of the observed log-likelihood at any theta,
not only at a fixed point of the latent update, and it is the one assembly
every route below uses.  Free coordinates:

* iid: p_1..p_{J-1} (p_J implied),
* markov, J = 2: (pi_1, a_12, a_21),
* covariate, J = 2: the logistic coefficients beta.

Each covariance family has one route, fed by its own E-step:

* structured kinds: ``louis_information_generic`` sums over the E-step's
  joint posterior on the state vectors that carry posterior mass
  (``EStep.enum``);
* diagonal kinds: the E-step's pointwise and pairwise posteriors.  States
  are independent across points given y_k (iid, covariate), or form a
  Markov chain whose transitions are pairwise_i / marginal_i; the score
  covariance then sums over points, or is one backward pass along that
  chain.  Nothing is enumerated, so these SEs exist at every n.

All four ``louis_information_*`` names stay (the diagonal iid and Markov
forms keep their ``_closed`` suffix) because the benchmark's tracing times
each route by name.
"""

import numpy as np

from . import latent as lat_mod
from .errors import BoundaryParameter, SingularInformation

_BOUNDARY_EPS = 1e-8

SE_SOFT_ERRORS = (BoundaryParameter, SingularInformation)


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
# scores of the prior's factors in free coordinates
# ---------------------------------------------------------------------------
#
# Each factor of the iid and Markov log priors is the log of one free
# coordinate, or of one minus a sum of them, so a factor with score a has
# curvature -a a', and E(-H | y) is the second moment of the factor scores
# weighted by the expected factor counts.

def _iid_factor_scores(p):
    """(J, J-1) scores of log p_j: e_j / p_j, and -1 / p_J for state J."""
    J = p.size
    a = np.zeros((J, J - 1))
    a[np.arange(J - 1), np.arange(J - 1)] = 1.0 / p[:-1]
    a[-1] = -1.0 / p[-1]
    return a


def _markov_factor_scores(pi, A):
    """Scores of log pi_l, (2, 3), and of log A_lj, (2, 2, 3)."""
    p1, a12, a21 = pi[0], A[0, 1], A[1, 0]
    h0 = np.zeros((2, 3))
    h0[:, 0] = 1.0 / p1, -1.0 / (1 - p1)
    h = np.zeros((2, 2, 3))
    h[0, :, 1] = -1.0 / (1 - a12), 1.0 / a12
    h[1, :, 2] = 1.0 / a21, -1.0 / (1 - a21)
    return h0, h


def _second_moment(w, a):
    """sum_r w_r a_r a_r' for weights (R,) and rows a (R, d)."""
    return (a.T * w) @ a


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
    D = Q                                                # in place
    D -= ubar[:, :, None] * ubar[:, None, :]
    D += e[:, :, None] * e[:, None, :]
    T2 = np.einsum("kip,kij,kjq->pq", X, D, X, optimize=True)
    gbar = np.einsum("kip,ki->kp", X, e)
    H = -np.einsum("ki,kip,kiq->pq", mu * (1 - mu), X, X)
    return T2, gbar, H


# ---------------------------------------------------------------------------
# structured kinds: the enumerated joint posterior
# ---------------------------------------------------------------------------

def louis_information_generic(P, enum, latent_spec, params,
                              covariates=None):
    """Louis information over enumerated state vectors.

    ``P`` is the (N, S) joint posterior at the estimates.  The score
    covariance is sum_k E(g_k g_k' | y_k) - E(g_k | y_k) E(g_k | y_k)'.
    Returns (information matrix, labels).
    """
    kind = latent_spec.kind
    if kind == "covariate":
        if params.beta.shape[0] != 1:
            raise SingularInformation(
                "covariate information implemented for J = 2")
        T2, gbar, H = _covariate_moments(P, enum, params.beta, covariates)
        labels = [f"beta{m}" for m in range(params.beta.shape[1])]
        T1 = -H
    else:
        w = lat_mod.state_mass(P)
        if kind == "iid":
            a = _iid_factor_scores(params.p)
            G = enum.counts @ a                          # (S, J-1)
            T1 = _second_moment(w @ enum.counts, a)
            labels = [f"p{j}" for j in range(1, params.p.size)]
        else:
            if params.pi.size != 2:
                raise SingularInformation(
                    "markov information implemented for J = 2")
            h0, h = _markov_factor_scores(params.pi, params.A)
            h = h.reshape(4, 3)
            first = enum.onehot[:, 0, :]
            trans = enum.trans.reshape(enum.size, 4)
            G = first @ h0 + trans @ h
            T1 = _second_moment(w @ first, h0) + _second_moment(w @ trans, h)
            labels = ["pi1", "a12", "a21"]
        T2 = _second_moment(w, G)
        gbar = P @ G
    return T1 - (T2 - gbar.T @ gbar), labels


# ---------------------------------------------------------------------------
# diagonal kinds: the E-step's pointwise and pairwise posteriors
# ---------------------------------------------------------------------------

def louis_information_iid_closed(marginals, p):
    """Louis information of the iid model from pointwise posteriors.

    States are independent across points given the data, so the score
    covariance is the sum over points of each point's centred second
    moment.
    """
    a = _iid_factor_scores(np.asarray(p, dtype=float))
    Q = marginals.reshape(-1, a.shape[0])               # (N n, J)
    T1 = _second_moment(Q.sum(axis=0), a)
    D = a[None, :, :] - (Q @ a)[:, None, :]             # a_j - E(a | y)
    T2 = _second_moment(Q.ravel(), D.reshape(-1, a.shape[1]))
    return T1 - T2, [f"p{j}" for j in range(1, a.shape[0])]


def louis_information_markov_closed(marginals, pairwise, params):
    """Louis information of the two-state Markov model from the posterior
    chain.

    Given y_k the states form a Markov chain with transitions
    T_i = pairwise_i / marginal_i.  With R_i(l) the expected score of the
    transitions after point i given state l there, the score covariance is
    the spread of h0(l) + R_1(l) under the first marginal plus, at each i,
    the spread of h(l, j) + R_{i+1}(j) under the pair posterior, each about
    its conditional mean.  R comes from one backward pass: O(N n J^2).
    """
    pi, A = params.pi, params.A
    if pi.size != 2:
        raise SingularInformation(
            "markov information implemented for J = 2")
    h0, h = _markov_factor_scores(pi, A)
    N, n, J = marginals.shape
    first = marginals[:, 0, :]
    T1 = (_second_moment(first.sum(axis=0), h0)
          + _second_moment(pairwise.sum(axis=(0, 1)).ravel(),
                           h.reshape(4, 3)))
    prev = marginals[:, :-1, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        chain = np.where(prev > 0, pairwise / prev, 0.0)
    # R[:, i, l]: expected score of the transitions after point i, given
    # state l at i
    R = np.zeros((N, n, J, 3))
    nxt = np.einsum("kilj,lja->kila", chain, h, optimize=True)
    for i in range(n - 2, -1, -1):
        R[:, i] = nxt[:, i] + chain[:, i] @ R[:, i + 1]
    D = h + R[:, 1:, None, :, :] - R[:, :-1, :, None, :]
    U0 = h0 + R[:, 0]
    D0 = U0 - np.einsum("kl,kla->ka", first, U0)[:, None, :]
    T2 = (_second_moment(first.ravel(), D0.reshape(-1, 3))
          + _second_moment(pairwise.ravel(), D.reshape(-1, 3)))
    return T1 - T2, ["pi1", "a12", "a21"]


def louis_information_covariate(marginals, covariates, beta):
    """Louis information of the logistic model (J = 2) from pointwise
    posteriors.

    Valid when states are conditionally independent across points given
    the data, which holds for the diagonal covariance kinds.
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
    labels = [f"beta{m}" for m in range(beta.shape[1])]
    return T1 - T2, labels


# ---------------------------------------------------------------------------
# dispatch used by ecm_fit
# ---------------------------------------------------------------------------

def standard_errors_for_fit(dataset, latent_spec, cov_spec, theta, step):
    """Compute SEs for a finished fit; returns (dict or None, skip reason).

    ``step`` is the E-step at ``theta``; ``ecm_fit`` passes its final
    one.  Soft failures (boundary estimates, singular information) raise
    their specific errors; unsupported model combinations return a reason
    string instead.
    """
    J, kind = latent_spec.J, latent_spec.kind
    if kind != "iid" and J != 2:
        return None, f"{kind} standard errors need J = 2"
    params = theta.latent
    if kind == "iid" and np.any(params.p < _BOUNDARY_EPS):
        raise BoundaryParameter(
            "a state probability sits at the simplex boundary")
    if kind == "markov":
        for value, name in ((params.pi[0], "pi1"), (params.A[0, 1], "a12"),
                            (params.A[1, 0], "a21")):
            if value < _BOUNDARY_EPS or value > 1.0 - _BOUNDARY_EPS:
                raise BoundaryParameter(
                    f"{name} = {value!r} is at the boundary; "
                    "standard errors are unavailable there")
    if not cov_spec.diagonal:
        info, labels = louis_information_generic(
            step.joint, step.enum, latent_spec, params,
            covariates=dataset.covariates)
    elif kind == "iid":
        info, labels = louis_information_iid_closed(step.marginals, params.p)
    elif kind == "markov":
        info, labels = louis_information_markov_closed(
            step.marginals, step.pairwise, params)
    else:
        info, labels = louis_information_covariate(
            step.marginals, dataset.covariates, params.beta)
    return _se_from_information(info, labels), None
