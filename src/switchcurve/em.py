"""Penalized ECM fitting of the switching-curve model.

One iteration runs, in order: the E-step (posterior state tables at the
current parameters), the coefficient update with the covariance held at its
current value, the covariance update at the new coefficients, and the
latent-parameter update.  Each conditional step increases the penalized
observed-data objective

    sum_k log p(y_k | theta) - sum_j lambda_j phi_j' R phi_j,

and the trace of that objective is checked for monotone ascent every
iteration.

The covariance kind alone picks the E-step route.  Diagonal kinds
factorize over grid points, so posteriors come from pointwise Bayes rules
(independent-state models) or a forward-backward pass (Markov).  The
structured kinds need the joint posterior over all J**n state vectors,
built over blocks of replicates (one GEMM each, prior included) and
normalized on the state vectors that can carry mass; the blocks reduce to
fixed-size posterior moments (``latent.Moments``).  The joint coefficient
system, the covariance M-steps and the Louis information are products of
those moments, never loops over state vectors.
"""

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import covariance as cov_mod
from . import inference
from . import latent as lat_mod
from .basis import basis_matrix, build_basis, penalty_matrix
from .datamodel import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    CovariateParams,
    FitReport,
    HomogRIParams,
    IIDParams,
    IsoDiagParams,
    MarkovParams,
    NonHomogRIParams,
    StateDiagParams,
    Theta,
    UnrestrictedParams,
    check_lambdas,
    theta_from_dict,
    validate,
)
from .errors import (
    BadInit,
    MonotonicityViolation,
    NonPositiveSigma,
    NotSPD,
    SingularSystem,
)

log = logging.getLogger(__name__)

_RIDGE_SCALE = 1e-10
_ASCENT_RTOL = 1e-8
_ALPHA_FLOOR = 0.05
_TIE_TOL = 1e-12


@dataclass
class EStep:
    """Posterior tables and the log-likelihood at the evaluated theta."""

    marginals: np.ndarray            # (N, n, J)
    loglik: np.ndarray               # (N,)
    pairwise: np.ndarray | None = None   # (N, n-1, J, J), forward-backward
    transitions: np.ndarray | None = None    # (N, J, J), Markov only
    moments: lat_mod.Moments | None = None   # enumeration route
    # always None; kept only because the benchmark's tracer reads it after
    # every E-step
    joint: None = None


def weight_matrices(marginals, sigma2):
    """Diagonal-path working weights, posterior mass over noise variance.

    ``sigma2`` is scalar (iso) or per-state (J,).  Returns (N, n, J).
    """
    return marginals / np.asarray(sigma2, dtype=float)


def classify_marginals(marginals):
    """Argmax states (0-based) with ties broken toward the lower index.

    Returns ``(labels, tie_mask)``; a tie is a second state within 1e-12
    of the top posterior.
    """
    labels = np.argmax(marginals, axis=2)
    top = np.max(marginals, axis=2)
    tie = (np.abs(marginals - top[:, :, None]) <= _TIE_TOL).sum(axis=2) > 1
    return labels, tie


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------

def e_step(dataset, F, theta, latent_spec, cov_spec, enum=None):
    """Posterior tables at the given curve values F (J, n) and theta.

    ``enum`` (the J**n state enumeration) is needed by the structured
    covariance kinds only; their ``EStep`` carries the posterior moments.
    """
    y = dataset.y
    cov = cov_mod.make_structure(cov_spec, theta.cov, dataset.n_points)
    if not cov_spec.diagonal:
        nonhomog = cov_spec.kind == "nonhomog_ri"
        L, R = lat_mod.log_prior_table(
            enum, latent_spec, theta.latent, covariates=dataset.covariates)
        ybar = y.mean(axis=0)
        yc = y - ybar
        factor = cov.state_factor(
            F, enum.states, ybar,
            E2=enum.onehot[:, :, 1] if nonhomog else None, R=R)
        b = lat_mod.block_rows(enum.size, factor[0].shape[0])

        def blocks():       # one (rows, S) table alive at a time
            for k in range(0, y.shape[0], b):
                rows = slice(k, k + b)
                yield rows, *lat_mod.joint_posterior(cov.loglik_table(
                    yc[rows], factor, L=L if L.shape[0] == 1 else L[rows]),
                    first=k)

        ll, marg, trans, moments = lat_mod.posterior_moments(
            blocks(), enum, yc, ybar, latent_spec.kind, nonhomog)
        return EStep(marginals=marg, loglik=ll, transitions=trans,
                     moments=moments)

    pw = cov.pointwise_loglik(y, F)
    if latent_spec.kind == "markov":
        marg, pair, ll = lat_mod.forward_backward(
            pw, theta.latent.pi, theta.latent.A)
        return EStep(marginals=marg, loglik=ll, pairwise=pair,
                     transitions=pair.sum(axis=1))
    if latent_spec.kind == "covariate":
        lp = lat_mod.log_state_probs(theta.latent.beta, dataset.covariates)
    else:
        with np.errstate(divide="ignore"):
            lp = np.log(theta.latent.p)
    marg, ll = lat_mod.marginal_posterior_pointwise(pw, lp)
    return EStep(marginals=marg, loglik=ll)


def penalty_value(theta, R):
    return float(sum(
        lam * phi @ R @ phi
        for lam, phi in zip(theta.lambdas, theta.phi)))


# ---------------------------------------------------------------------------
# coefficient updates
# ---------------------------------------------------------------------------

def _solve_spd(A, b, what):
    """Cholesky solve with a trace-scaled ridge retry."""
    try:
        return _cholesky_solve(A, b)
    except np.linalg.LinAlgError:
        ridge = _RIDGE_SCALE * np.trace(A) / A.shape[0]
        log.warning("%s: singular normal matrix, retrying with ridge %.3e",
                    what, ridge)
        try:
            return _cholesky_solve(A + ridge * np.eye(A.shape[0]), b)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"{what}: {exc}") from None


def _cholesky_solve(A, b):
    """A^{-1} b through A = L L'; LinAlgError unless A is positive
    definite, ValueError if A holds a NaN or an infinity."""
    L = np.linalg.cholesky(np.asarray_chkfinite(A))
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


def diagonal_normal_system(B, R, lam, weights, y):
    """Normal equations for one state's weighted penalized spline.

    ``weights`` is (N, n) nonnegative; returns (M, rhs) with
    M = B' diag(sum_k w_k) B + 2 lam R and rhs = B' sum_k w_k y_k.
    """
    wsum = weights.sum(axis=0)
    M = B.T @ (wsum[:, None] * B) + 2.0 * lam * R
    rhs = B.T @ (weights * y).sum(axis=0)
    return M, rhs


def update_f_diagonal(B, R, lambdas, y, marginals, sigma2):
    """Per-state coefficient updates for diagonal covariance kinds."""
    J = marginals.shape[2]
    W = weight_matrices(marginals, sigma2)
    phi = np.empty((J, B.shape[1]))
    for j in range(J):
        M, rhs = diagonal_normal_system(B, R, lambdas[j], W[:, :, j], y)
        phi[j] = _solve_spd(M, rhs, f"coefficient update, state {j + 1}")
    return phi


def general_normal_system(B, R, lambdas, cov, moments):
    """Stacked JK x JK normal equations for the joint coefficient update.

    Used by the structured covariance kinds.  Blocks are
    A_jl = sum_s w_s (D_sj B)' V_s^{-1} (D_sl B) and
    b_j = sum_s (D_sj B)' V_s^{-1} ytil_s, with w_s = sum_k P_ks,
    ytil_s = sum_k P_ks y_k and D_sj the state-j indicator matrix of state
    vector s: products of B and V^{-1} with the co-occupancy and with
    sum_k y_k m_k' (``latent.Moments``).  nonhomog_ri subtracts the
    rank-one h_m u~_s u~_s' (``CovStructure.state_terms``): with
    a_m(j) = [j = 2] - c m, E_s * a_m is u~_s spread over the indicators.
    """
    n, K = B.shape
    J = moments.C.shape[1] // n
    JK = J * K
    Vi = cov.vinv()
    Mexp = moments.occupancy.reshape(n, J, n, J) * Vi[:, None, :, None]
    A = np.einsum("ia,ijpq,pb->jaqb", B, Mexp, B,
                  optimize=_normal_system_path(n, J, K)).reshape(JK, JK)
    # sum_k y_k m_k' from the centred sums: y_k = y_ck + ybar
    msum = moments.lin[:, :, 0].sum(axis=0)
    C = (moments.C + np.outer(moments.ybar, msum)).reshape(n, n, J)
    agg = np.einsum("qi,qij->ij", Vi, C)
    b = np.einsum("ia,ij->ja", B, agg).reshape(JK)
    if cov.kind == "nonhomog_ri":
        G = moments.cooc.shape[0]
        cm, h, _ = cov.state_terms(np.arange(G))
        a = np.tile((np.arange(J) == 1) - cm[:, None], n)      # (G, n J)
        occ = moments.cooc[:, :n * J, :n * J]
        # e_m from the centred sums, plus the ybar part Pi_m (ybar x a_m)
        e = (moments.lin[:, :, 3] - cm[:, None] * moments.lin[:, :, 1]
             + np.einsum("mpq,mq->mp", occ,
                         np.repeat(moments.ybar, J)[None, :] * a))
        Bk = np.einsum("ia,jl->ijla", B, np.eye(J)).reshape(n * J, JK)
        A -= Bk.T @ np.einsum("m,mp,mpq,mq->pq", h, a, occ, a) @ Bk
        b -= Bk.T @ np.einsum("m,mp,mp->p", h, a, e)

    for j in range(J):
        A[j * K:(j + 1) * K, j * K:(j + 1) * K] += 2.0 * lambdas[j] * R
    return A, b


@lru_cache(maxsize=32)
def _normal_system_path(n, J, K):
    """The contraction order of ``general_normal_system``'s A that
    ``np.einsum(..., optimize=True)`` searches for, searched once per
    shape: the search costs more than the contraction at these sizes."""
    return np.einsum_path("ia,ijpq,pb->jaqb", np.empty((n, K)),
                          np.empty((n, J, n, J)), np.empty((n, K)),
                          optimize=True)[0]


def update_f_general(B, R, lambdas, cov, moments):
    """Joint coefficient update under the enumeration route."""
    A, b = general_normal_system(B, R, lambdas, cov, moments)
    phi = _solve_spd(A, b, "joint coefficient update")
    return phi.reshape(-1, B.shape[1])


# ---------------------------------------------------------------------------
# covariance dispatch
# ---------------------------------------------------------------------------

def _update_cov(cov_spec, theta, step, y, F_new):
    kind = cov_spec.kind
    flags = []
    if kind == "iso_diag":
        return IsoDiagParams(
            sigma2=cov_mod.update_iso(step.marginals, y, F_new)), flags
    if kind == "state_diag":
        s2, flags = cov_mod.update_state_diag(
            step.marginals, y, F_new, theta.cov.sigma2)
        return StateDiagParams(sigma2=s2), flags
    if kind == "unrestricted":
        return UnrestrictedParams(
            V=cov_mod.update_unrestricted(step.moments, F_new)), flags
    if kind == "homog_ri":
        s2, d = cov_mod.update_homog_ri(step.moments, F_new)
        return HomogRIParams(sigma2=s2, d=d), flags
    s2, d1, d2 = cov_mod.update_nonhomog_ri(step.moments, F_new, theta.cov)
    return NonHomogRIParams(sigma2=s2, d1=d1, d2=d2), flags


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def _floor_probs(p):
    p = np.maximum(np.asarray(p, dtype=float), _ALPHA_FLOOR)
    return p / p.sum()


def initialize(dataset, latent_spec, cov_spec, B, R, lambdas,
               init="quantile-split"):
    """Starting parameters.

    The default "quantile-split" strategy fits one pooled penalized spline,
    banks points into J bands by residual quantile (lowest band = state 1),
    fits per-state splines to the banded points, and reads empirical state
    frequencies (floored at 0.05) and residual moments off the assignment.

    A supplied-theta dict (see datamodel.theta_from_dict) is validated and
    used as-is, except that ``lambdas`` always sets the smoothing
    parameters: a ``lambdas`` key in the dict (a reused fit.json has one)
    is ignored.
    """
    J = latent_spec.J
    y = dataset.y
    N, n = y.shape
    K = B.shape[1]

    if isinstance(init, dict):
        theta = theta_from_dict(dict(init, lambdas=lambdas), latent_spec,
                                cov_spec)
        _check_supplied(theta, latent_spec, cov_spec, J, K, n,
                        dataset.n_covariates)
        return theta

    lam_bar = float(np.mean(lambdas))
    ones = np.ones((N, n))
    M, rhs = diagonal_normal_system(B, R, lam_bar, ones, y)
    pooled = _solve_spd(M, rhs, "pooled initial fit")
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
        M, rhs = diagonal_normal_system(B, R, lambdas[j], w, y)
        phi[j] = _solve_spd(M, rhs, f"initial fit, state {j + 1}")
    F0 = phi @ B.T

    r = y - F0[assign, np.arange(n)[None, :]]
    if latent_spec.kind == "iid":
        freq = np.bincount(assign.ravel(), minlength=J) / (N * n)
        alpha = IIDParams(p=_floor_probs(freq))
    elif latent_spec.kind == "markov":
        pi = np.bincount(assign[:, 0], minlength=J) / N
        A = np.zeros((J, J))
        for l in range(J):
            for j in range(J):
                A[l, j] = np.sum((assign[:, :-1] == l)
                                 & (assign[:, 1:] == j))
            A[l] = _floor_probs(A[l] if A[l].sum() > 0 else np.ones(J))
        alpha = MarkovParams(pi=_floor_probs(pi), A=A)
    else:
        hard = np.zeros((N, n, J))
        np.put_along_axis(hard, assign[:, :, None], 1.0, axis=2)
        soft = _ALPHA_FLOOR / J + (1 - _ALPHA_FLOOR) * hard
        beta0 = np.zeros((J - 1, dataset.n_covariates + 1))
        beta, _ = lat_mod._newton_beta(
            soft, dataset.covariates, beta0, 1e-8, 25)
        alpha = CovariateParams(beta=beta)

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


def _check_supplied(theta, latent_spec, cov_spec, J, K, n, M):
    supplied = {"phi": theta.phi, **vars(theta.latent), **vars(theta.cov)}
    for name, value in supplied.items():
        if not np.all(np.isfinite(value)):
            raise BadInit(f"{name} must be finite")
    if theta.phi.shape != (J, K):
        raise BadInit(f"phi shape {theta.phi.shape}, expected {(J, K)}")
    al = theta.latent
    if latent_spec.kind == "iid":
        if al.p.shape != (J,) or np.any(al.p < 0) \
                or abs(al.p.sum() - 1.0) > 1e-8:
            raise BadInit("p must be a length-J probability vector")
    elif latent_spec.kind == "markov":
        if al.pi.shape != (J,) or al.A.shape != (J, J):
            raise BadInit("pi must be length J and A must be J x J")
        if np.any(al.pi < 0) or abs(al.pi.sum() - 1.0) > 1e-8 \
                or np.any(al.A < 0) \
                or np.max(np.abs(al.A.sum(axis=1) - 1.0)) > 1e-8:
            raise BadInit("pi and rows of A must be probability vectors")
    else:
        if al.beta.shape != (J - 1, M + 1):
            raise BadInit(
                f"beta shape {al.beta.shape}, expected {(J - 1, M + 1)}")
    # CovStructure checks sigma2 > 0, V and d1, d2 >= 0; homog_ri's
    # structure admits -1/n < d < 0, which the M-step never produces
    cp = theta.cov
    kind = cov_spec.kind
    if kind == "state_diag" and cp.sigma2.shape != (J,):
        raise BadInit(f"sigma2 must hold J = {J} values")
    if kind == "homog_ri" and cp.d < 0:
        raise BadInit("need d >= 0")
    try:
        cov_mod.make_structure(cov_spec, cp, n)
    except (NonPositiveSigma, NotSPD) as exc:
        raise BadInit(
            f"supplied covariance must be positive definite: {exc}") from None


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def ecm_fit(dataset, latent_spec, cov_spec, lambdas, K=None,
            tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
            init="quantile-split", compute_se=True):
    """Run the penalized ECM to convergence and assemble a FitReport.

    ``init`` is either the string "quantile-split" or a supplied-theta
    dict.  Standard errors are attempted when ``compute_se`` and the model
    falls in the supported set; failures demote to report warnings rather
    than errors.
    """
    validate(dataset, latent_spec, cov_spec)
    J, n, N = latent_spec.J, dataset.n_points, dataset.n_replicates
    basis = build_basis(dataset.x, K)
    B = basis_matrix(basis, dataset.x)
    R = penalty_matrix(basis)

    lambdas = np.broadcast_to(
        check_lambdas(lambdas, "lambdas").ravel(), (J,)).copy()
    use_enum = not cov_spec.diagonal
    enum = lat_mod.enumerate_states(n, J) if use_enum else None
    theta = initialize(dataset, latent_spec, cov_spec, B, R, lambdas,
                       init=init)

    warnings = []
    trace = []
    converged = False
    iterations = 0
    # max_iter rounds of updates, each after an E-step; the E-step after
    # the last round only evaluates the objective
    for it in range(max_iter + 1):
        F = theta.phi @ B.T
        step = None         # the previous E-step's tables go first
        try:
            step = e_step(dataset, F, theta, latent_spec, cov_spec,
                          enum=enum)
        except NotSPD as exc:
            raise NotSPD(f"ECM iteration {it}: {exc}") from None
        obj = float(step.loglik.sum()) - penalty_value(theta, R)
        if trace:
            scale = max(1.0, abs(trace[-1]))
            if obj < trace[-1] - _ASCENT_RTOL * scale:
                raise MonotonicityViolation(trace[-1], obj, it)
            converged = abs(obj - trace[-1]) <= tol * scale
        trace.append(obj)
        if converged or it == max_iter:
            break
        iterations = it + 1

        cov = cov_mod.make_structure(cov_spec, theta.cov, n)
        if use_enum:
            phi_new = update_f_general(B, R, lambdas, cov, step.moments)
        else:
            phi_new = update_f_diagonal(
                B, R, lambdas, dataset.y, step.marginals, theta.cov.sigma2)
        F_new = phi_new @ B.T
        cov_new, cflags = _update_cov(
            cov_spec, theta, step, dataset.y, F_new)
        alpha_new, aflags = lat_mod.update_alpha(
            latent_spec, theta.latent, step.marginals,
            transitions=step.transitions, covariates=dataset.covariates)
        for fl in cflags + aflags:
            if fl not in warnings:
                warnings.append(fl)
        theta = Theta(phi=phi_new, latent=alpha_new, cov=cov_new,
                      lambdas=lambdas)
    if not converged:
        warnings.append("not_converged")

    report = FitReport(
        theta=theta, knots=basis.knots, x=dataset.x,
        curves=theta.phi @ B.T, posteriors=step.marginals,
        loglik_trace=np.asarray(trace), iterations=iterations,
        converged=converged, warnings=warnings)

    if compute_se and J >= 2:
        try:
            se, reason = inference.standard_errors_for_fit(
                dataset, latent_spec, cov_spec, theta, step)
            if se is not None:
                report.std_errors = se
            elif reason:
                warnings.append(f"se_unavailable: {reason}")
        except inference.SE_SOFT_ERRORS as exc:
            warnings.append(f"se_unavailable: {type(exc).__name__}: {exc}")
    return report
