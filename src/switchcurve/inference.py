"""Observed information and standard errors for the latent parameters.

The observed information comes from Louis's identity, holding the curves
and covariance fixed at their estimates.  With g_k the complete-data score
of replicate k's latent log prior and H its curvature,

    I = E(-H | y) - sum_k Cov(g_k | y_k).

This is the negative Hessian of the observed log-likelihood at any theta,
not only at a fixed point of the latent update, and it is the one assembly
every route below uses.  Free coordinates, at any J:

* iid: p_1..p_{J-1} (p_J implied);
* markov: pi_1..pi_{J-1} (pi_J implied), then each row l of A without its
  diagonal, a_lj for j != l (a_ll implied): (J - 1)(J + 1) in all, so
  (pi_1, a_12, a_21) at J = 2;
* covariate: the multinomial-logit coefficients beta, row by row, labelled
  beta<m> for state 2 and beta<m>_<j> for state j >= 3.

``free_coordinates`` names them, by the latent kind's own
``free_coordinates``, for every route and the study harness.

Each covariance family has one route, fed by its own E-step;
``standard_errors_for_fit`` picks it by the covariance kind's ``diagonal``:

* structured kinds: ``louis_information_generic`` reads the E-step's
  posterior moments: the iid and Markov scores are linear in a state
  vector's indicators and transition counts, so their second moments are
  quadratic forms in the co-occupancy;
* diagonal kinds: the latent kind's ``louis``, one of the three other
  routes, reads the E-step's pointwise and pairwise posteriors.  States
  are independent across points given y_k (iid, covariate), or form a
  Markov chain whose transitions are pairwise_i / marginal_i; the score
  covariance then sums over points, or is one backward pass along that
  chain.  Nothing is enumerated, so these SEs exist at every n.

All four ``louis_information_*`` names stay (the diagonal iid and Markov
forms keep their ``_closed`` suffix) because the benchmark's tracing times
each route by name; the kinds call them by their module attribute, so
the tracer's wrappers stay on the path.
"""

import numpy as np

from .errors import BoundaryParameter, SingularInformation
from .latent import (CovariateParams, IIDParams, log_state_probs,
                     logit_curvature)

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


def free_coordinates(latent_params):
    """{label: value} of a latent block's free coordinates, in the
    information matrix's order (see the module docstring)."""
    return latent_params.free_coordinates()


# ---------------------------------------------------------------------------
# scores of the prior's factors in free coordinates
# ---------------------------------------------------------------------------
#
# Each factor of the iid and Markov log priors is the log of one entry of a
# probability vector, a free coordinate or one minus a sum of them, so a
# factor with score a has curvature -a a', and E(-H | y) is the second
# moment of the factor scores weighted by the expected factor counts.

def _simplex_scores(p, implied):
    """(J, J-1) scores of log p_j in the free coordinates of the probability
    vector p, every entry but p[implied] in order: e_j / p_j for a free
    entry, -1 / p[implied] on every coordinate for the implied one."""
    a = np.diag(1.0 / p)[:, [j for j in range(p.size) if j != implied]]
    a[implied] = -1.0 / p[implied]
    return a


def _markov_factor_scores(pi, A):
    """(J + J J, d) scores of the factors log pi_l, then log A_lj row by
    row, in the d = (J-1)(J+1) free coordinates: block diagonal, pi's block
    first, then A's rows in turn."""
    J = pi.size
    blocks = [_simplex_scores(pi, J - 1)] + [
        _simplex_scores(A[l], l) for l in range(J)]
    F = np.zeros((J * (J + 1), (J - 1) * (J + 1)))
    for b, a in enumerate(blocks):
        F[J * b:J * (b + 1), (J - 1) * b:(J - 1) * (b + 1)] = a
    return F


def _second_moment(w, a):
    """sum_r w_r a_r a_r' for weights (R,) and rows a (R, d)."""
    return (a.T * w) @ a


def _covariate_setup(marginals, covariates, beta):
    """Pooled design rows X (N n, M+1), the non-reference probabilities mu
    and posteriors q (N n, J-1)."""
    N, n, J = marginals.shape
    X = np.concatenate([np.ones((N * n, 1)),
                        covariates.reshape(N * n, -1)], axis=1)
    mu = np.exp(log_state_probs(beta, X[:, 1:]))[:, 1:]
    return X, mu, marginals.reshape(N * n, J)[:, 1:]


# ---------------------------------------------------------------------------
# structured kinds: the enumeration route's posterior moments
# ---------------------------------------------------------------------------

def louis_information_generic(step, params, covariates=None):
    """Louis information from a structured-kind E-step at the estimates.

    The score covariance is sum_k E(g_k g_k' | y_k) - E(g_k | y_k)
    E(g_k | y_k)'.  For iid and Markov, g_s = z_s' H with z_s = [E_s,
    trans_s] (``latent.Moments``) and H the factor scores on the rows they
    count.  The kind of ``params`` picks the form by the moments its E-step
    collects.  Returns (information matrix, labels).
    """
    N, n, J = step.marginals.shape
    labels = list(free_coordinates(params))
    if params.needs_covariates:
        # g_k = Z_k'(u_k - mu_k), u_k the n(J-1) non-reference indicators
        # and Z_k (n(J-1), (J-1)(M+1)) places x_ki in state j's block, so
        # Cov(g_k | y_k) = Z_k' Cov(u_k | y_k) Z_k
        X, mu, q = _covariate_setup(step.marginals, covariates, params.beta)
        Z = np.einsum("kip,jl->kijlp", X.reshape(N, n, -1),
                      np.eye(J - 1)).reshape(N, n * (J - 1), -1)
        q = q.reshape(N, -1)
        C = step.moments.ucooc - q[:, :, None] * q[:, None, :]
        return (logit_curvature(X, mu)
                - (Z.transpose(0, 2, 1) @ C @ Z).sum(axis=0)), labels
    z = step.marginals.reshape(N, n * J)
    if params.chain:
        F = _markov_factor_scores(params.pi, params.A)
        # z's rows: the indicators (only the first point's have a factor),
        # then the transition counts
        H = np.vstack([F[:J], np.zeros((n * J - J, F.shape[1])), F[J:]])
        z = np.hstack([z, step.transitions.reshape(N, J * J)])
    else:
        H = np.tile(_simplex_scores(params.p, J - 1), (n, 1))
    # each row of H scores one factor, so E(-H | y) is the second moment
    # of H's rows weighted by their expected counts
    T1 = _second_moment(z.sum(axis=0), H)
    T2 = H.T @ step.moments.cooc[:, :len(H), :len(H)].sum(axis=0) @ H
    gbar = z @ H
    return T1 - (T2 - gbar.T @ gbar), labels


# ---------------------------------------------------------------------------
# diagonal kinds: the E-step's pointwise and pairwise posteriors
# ---------------------------------------------------------------------------

def louis_information_iid_closed(marginals, p):
    """Louis information of the iid model from pointwise posteriors.

    States are independent across points given the data, so the score
    covariance is the sum over points of each point's centred second
    moment, sum_j q_j a_j a_j' - gbar gbar' with gbar = sum_j q_j a_j.
    Its first term is E(-H | y), so the information is sum gbar gbar'.
    """
    J = marginals.shape[2]
    gbar = marginals.reshape(-1, J) @ _simplex_scores(
        np.asarray(p, dtype=float), J - 1)              # (N n, J-1)
    return gbar.T @ gbar, list(free_coordinates(IIDParams(p=p)))


def louis_information_markov_closed(marginals, pairwise, params):
    """Louis information of the Markov model from the posterior chain.

    Given y_k the states form a Markov chain with transitions
    T_i = pairwise_i / marginal_i.  With R_i(l) the expected score of the
    transitions after point i given state l there, the score covariance is
    the spread of h0(l) + R_1(l) under the first marginal plus, at each i,
    the spread of h(l, j) + R_{i+1}(j) under the pair posterior, each about
    its conditional mean.  R comes from one backward pass: O(N n J^2 d).
    """
    F = _markov_factor_scores(params.pi, params.A)
    N, n, J = marginals.shape
    h0, h, d = F[:J], F[J:].reshape(J, J, -1), F.shape[1]
    first = marginals[:, 0, :]
    T1 = _second_moment(np.concatenate(
        [first.sum(axis=0), pairwise.sum(axis=(0, 1)).ravel()]), F)
    prev = marginals[:, :-1, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        chain = np.where(prev > 0, pairwise / prev, 0.0)
    # R[:, i, l]: expected score of the transitions after point i, given
    # state l at i
    R = np.zeros((N, n, J, d))
    nxt = np.einsum("kilj,lja->kila", chain, h, optimize=True)
    for i in range(n - 2, -1, -1):
        R[:, i] = nxt[:, i] + chain[:, i] @ R[:, i + 1]
    D = h + R[:, 1:, None, :, :] - R[:, :-1, :, None, :]
    U0 = h0 + R[:, 0]
    D0 = U0 - np.einsum("kl,kla->ka", first, U0)[:, None, :]
    T2 = (_second_moment(first.ravel(), D0.reshape(-1, d))
          + _second_moment(pairwise.ravel(), D.reshape(-1, d)))
    return T1 - T2, list(free_coordinates(params))


def louis_information_covariate(marginals, covariates, beta):
    """Louis information of the multinomial-logit model from pointwise
    posteriors q, for the diagonal covariance kinds: states are then
    independent across points given the data, and each point's indicators
    have covariance diag(q) - q q', so the score covariance is the logit
    curvature at q."""
    X, mu, q = _covariate_setup(marginals, covariates, beta)
    return (logit_curvature(X, mu) - logit_curvature(X, q),
            list(free_coordinates(CovariateParams(beta=beta))))


# ---------------------------------------------------------------------------
# dispatch used by ecm_fit
# ---------------------------------------------------------------------------

def standard_errors_for_fit(dataset, latent_spec, cov_spec, theta, step):
    """Compute SEs for a finished fit; returns {label: SE}.

    ``step`` is the E-step at ``theta``; ``ecm_fit`` passes its final
    one.  Soft failures raise their specific errors: ``BoundaryParameter``
    names the first entry of p, pi or A below ``_BOUNDARY_EPS``, and
    ``SingularInformation`` a singular information matrix.
    """
    params = theta.latent
    for field in params.by_state:
        values = getattr(params, field)
        low = np.argwhere(values < _BOUNDARY_EPS)
        if low.size:
            raise BoundaryParameter(
                f"{field.lower()}{''.join(str(i + 1) for i in low[0])} = "
                f"{float(values[tuple(low[0])])!r} is at the boundary; "
                "standard errors are unavailable there")
    if cov_spec.diagonal:
        info, labels = params.louis(step, dataset.covariates)
    else:
        info, labels = louis_information_generic(
            step, params, covariates=dataset.covariates)
    return _se_from_information(info, labels)
