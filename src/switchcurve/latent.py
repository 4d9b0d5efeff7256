"""Latent-state machinery: enumeration, posteriors, and alpha updates.

Three latent models share one interface: "iid" (fixed state probabilities),
"markov" (time-homogeneous chain along the grid), and "covariate"
(multinomial-logistic probabilities driven by per-point covariates, state 1
as reference).

State vectors are enumerated in a canonical order: index m written in base
J, least significant digit first, so the state of the first grid point
cycles fastest.  All posterior work happens in log space; each replicate's
normalizer uses the log-sum-exp shift, which keeps the small-variance
regimes of interest far from overflow.  Underflow is the common case there:
most shifted log weights lie below log(tiny) = -708.4, where tiny is the
smallest normal float, and their exponentials are subnormal or 0.  The
joint posterior writes an exact 0 for them without calling ``exp``, which
is several times slower on such arguments; the largest shifted weight is
exp(0) = 1, so the normalizer and the log-likelihood do not change.  After
the first E-steps of a fit most state vectors carry such zeros in every
replicate (about 92% in the benchmark's n = 14 homog_ri fits), so the
E-step keeps the columns with mass and the matching enumeration rows
(``StateEnumeration.take``); every summary below takes any such pair.
Summaries of the (N, S) joint posterior table are single matrix products
with the enumeration's flat indicator tables; the Markov M-step's expected
transition totals are one GEMV of the state mass P'1.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateLikelihood, EnumerationTooLarge

_OCCUPANCY_EPS = 1e-12

# shifted log weights below this exponentiate to a subnormal or to 0; the
# joint posterior writes 0 for them (exp(_LOG_TINY) itself is normal)
_LOG_TINY = float(np.log(np.finfo(float).tiny))

# stopping rules of the covariate alpha M-step's Newton search
_NEWTON_GRAD_TOL = 1e-10
_NEWTON_MAX_STEPS = 50
_NEWTON_MAX_HALVINGS = 30


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateEnumeration:
    """All J**n state vectors (or the subset ``take`` keeps) plus the
    count tables M-steps need."""

    n: int
    J: int
    states: np.ndarray       # (S, n) int8, 0-based states
    onehot: np.ndarray       # (S, n, J) float64 indicators
    counts: np.ndarray       # (S, J) occurrences of each state
    trans: np.ndarray        # (S, J, J) transition counts n_{s,lj}

    @property
    def size(self):
        return self.states.shape[0]

    @property
    def flat(self):
        """(S, n*J) view of ``onehot``; column i*J + j flags state j at i."""
        return self.onehot.reshape(self.size, -1)

    def take(self, cols):
        """The state vectors at indices ``cols``, with their count tables."""
        return StateEnumeration(
            n=self.n, J=self.J, states=np.take(self.states, cols, axis=0),
            onehot=np.take(self.onehot, cols, axis=0),
            counts=np.take(self.counts, cols, axis=0),
            trans=np.take(self.trans, cols, axis=0))


@lru_cache(maxsize=8)
def enumerate_states(n, J):
    """Build the canonical enumeration for (n, J).  Cached."""
    S = J ** n
    if S > 2 ** 26:
        raise EnumerationTooLarge(f"refusing to materialize {S} vectors")
    idx = np.arange(S)
    states = np.empty((S, n), dtype=np.int8)
    for i in range(n):
        states[:, i] = (idx // J ** i) % J
    onehot = np.zeros((S, n, J))
    np.put_along_axis(onehot, states[:, :, None].astype(int), 1.0, axis=2)
    counts = onehot.sum(axis=1)
    trans = np.einsum("sil,sij->slj", onehot[:, :-1, :], onehot[:, 1:, :])
    return StateEnumeration(n=n, J=J, states=states, onehot=onehot,
                            counts=counts, trans=trans)


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------

def log_state_probs(beta, v):
    """Multinomial-logistic log probabilities.

    Parameters
    ----------
    beta : (J-1, M+1) coefficients for states 2..J; state 1 is reference
        and carries an implicit zero row.  Column 0 is the intercept.
    v : (..., M) covariate values.

    Returns
    -------
    (..., J) array of log p_j(v).
    """
    v = np.asarray(v, dtype=float)
    eta = beta[:, 0] + v @ beta[:, 1:].T            # (..., J-1)
    eta = np.concatenate([np.zeros(eta.shape[:-1] + (1,)), eta], axis=-1)
    return eta - _logsumexp(eta)


def _logsumexp(a):
    """log sum exp(a) over the last axis, kept as a length-1 axis.

    Shifted by the row maximum where that is finite; a row of -inf gives
    -inf.
    """
    m = np.max(a, axis=-1, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(a - m), axis=-1, keepdims=True)) + m


def log_prior_table(enum, latent_spec, params, covariates=None):
    """Log prior of every enumerated state vector.

    Returns shape (S,) for iid/markov, (N, S) for the covariate model.
    Zero-probability entries map to -inf and propagate through sums.
    """
    kind = latent_spec.kind
    with np.errstate(divide="ignore"):
        if kind == "iid":
            return _weighted_logsum(enum.counts, np.log(params.p))
        if kind == "markov":
            out = _weighted_logsum(enum.onehot[:, 0, :], np.log(params.pi))
            out = out + _weighted_logsum(
                enum.trans.reshape(enum.size, -1),
                np.log(params.A).ravel())
            return out
        lp = log_state_probs(params.beta, covariates)   # (N, n, J)
        lp = np.maximum(lp, -1e300).reshape(lp.shape[0], -1)
        return lp @ enum.flat.T


def _weighted_logsum(W, logs):
    """``W @ logs`` where a zero weight kills a -inf log instead of NaN."""
    finite = np.where(np.isneginf(logs), 0.0, logs)
    out = W @ finite
    neg = np.isneginf(logs)
    if np.any(neg):
        out = np.where(W @ neg.astype(float) > 0, -np.inf, out)
    return out


def log_prior_single(states, latent_spec, params, covariate_rows=None):
    """Log prior of one state vector (0-based); used by tests and tools."""
    s = np.asarray(states, dtype=int)
    with np.errstate(divide="ignore"):
        if latent_spec.kind == "iid":
            return float(np.sum(np.log(params.p[s])))
        if latent_spec.kind == "markov":
            val = np.log(params.pi[s[0]])
            val += np.sum(np.log(params.A[s[:-1], s[1:]]))
            return float(val)
        lp = log_state_probs(params.beta, covariate_rows)
        return float(lp[np.arange(s.size), s].sum())


# ---------------------------------------------------------------------------
# posteriors
# ---------------------------------------------------------------------------

def joint_posterior(loglik, logprior):
    """Normalize per-replicate joint posteriors over state vectors.

    Each row is shifted by its maximum before exponentiating.  Shifted
    entries below log(tiny) (about -708.4) are not exponentiated: a clip
    at 0 writes them as exact 0 instead of their subnormal or underflowed
    exponentials.  Every other entry is ``exp(shifted) / Z`` bit for bit as
    without the rule, and ``Z`` (at least 1) and the log-likelihood do not
    change.  The inputs are not modified.  A column that is 0 in every row
    is a state vector with no posterior mass; ``em.e_step`` drops those.

    Parameters
    ----------
    loglik : (N, S) log density of y_k under each state vector.
    logprior : (S,) or (N, S) log prior table.

    Returns
    -------
    P : (N, S) posterior table, rows summing to one.
    ll : (N,) log marginal likelihood per replicate.

    Raises
    ------
    DegenerateLikelihood
        if a row holds a NaN or +inf entry, or has no finite entry.
    """
    # one owned (N, S) buffer: shifted, exponentiated and scaled in place
    P = loglik + (logprior if logprior.ndim == 2 else logprior[None, :])
    # a NaN entry makes its row's max NaN, so it is refused here rather
    # than zeroed by the mask below
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
    np.exp(P, out=P, where=P >= _LOG_TINY)
    # exponentials are at least tiny > 0; the entries left unexponentiated
    # are below _LOG_TINY < 0 (or -inf), so one clip writes their zeros
    np.maximum(P, 0.0, out=P)
    Z = P.sum(axis=1)
    P /= Z[:, None]
    return P, m + np.log(Z)


def state_mass(P):
    """(S,) posterior mass P'1 of each state vector, as one GEMV."""
    return np.ones(P.shape[0]) @ P


def replicate_sums(P, X):
    """(S, c) table P'X for per-replicate rows X (N, c).

    Computed as (X'P)': on a C-ordered (N, S) table BLAS runs that product
    several times faster than P'X.
    """
    return (X.T @ P).T


def marginals_from_joint(P, enum):
    """(N, n, J) pointwise posteriors from the joint table."""
    return (P @ enum.flat).reshape(P.shape[0], enum.n, enum.J)


def pairwise_from_joint(P, enum):
    """(J, J) expected transition totals from the joint table.

    Entry (l, j) is the posterior-expected number of l -> j moves summed
    over replicates and neighbouring points: one GEMV of the state mass
    P'1 with the per-vector transition counts.
    """
    J = enum.J
    counts = enum.trans.reshape(enum.size, J * J)
    return (state_mass(P) @ counts).reshape(J, J)


def marginal_posterior_pointwise(pointwise_loglik, log_pstate):
    """Pointwise Bayes posteriors for independent-state models.

    ``log_pstate`` is (J,) for iid or (N, n, J) for the covariate model.

    Returns (marginals (N, n, J), loglik (N,)).
    """
    lw = pointwise_loglik + log_pstate
    m = np.max(lw, axis=2)
    if np.any(~np.isfinite(m)):
        raise DegenerateLikelihood("a point has zero likelihood everywhere")
    w = np.exp(lw - m[:, :, None])
    Z = w.sum(axis=2)
    return w / Z[:, :, None], (m + np.log(Z)).sum(axis=1)


def forward_backward(pointwise_loglik, pi, A):
    """Scaled forward-backward pass for the Markov latent model.

    Parameters
    ----------
    pointwise_loglik : (N, n, J) per-point emission log densities.
    pi, A : initial distribution and transition matrix.

    Returns
    -------
    marginals : (N, n, J)
    pairwise : (N, n-1, J, J)
    loglik : (N,)
    """
    N, n, J = pointwise_loglik.shape
    shift = pointwise_loglik.max(axis=2)
    if np.any(~np.isfinite(shift)):
        raise DegenerateLikelihood("a point has zero likelihood everywhere")
    E = np.exp(pointwise_loglik - shift[:, :, None])    # scaled emissions

    alpha = np.empty((N, n, J))
    c = np.empty((N, n))
    a = pi[None, :] * E[:, 0, :]
    c[:, 0] = a.sum(axis=1)
    if np.any(c[:, 0] <= 0):
        raise DegenerateLikelihood("zero forward mass at the first point")
    alpha[:, 0, :] = a / c[:, 0, None]
    for i in range(1, n):
        a = (alpha[:, i - 1, :] @ A) * E[:, i, :]
        c[:, i] = a.sum(axis=1)
        if np.any(c[:, i] <= 0):
            raise DegenerateLikelihood(f"zero forward mass at point {i + 1}")
        alpha[:, i, :] = a / c[:, i, None]

    beta = np.empty((N, n, J))
    beta[:, n - 1, :] = 1.0
    for i in range(n - 2, -1, -1):
        beta[:, i, :] = (E[:, i + 1, :] * beta[:, i + 1, :]) @ A.T
        beta[:, i, :] /= c[:, i + 1, None]

    marginals = alpha * beta
    marginals /= marginals.sum(axis=2, keepdims=True)
    pairwise = (alpha[:, :-1, :, None] * A[None, None, :, :]
                * (E * beta)[:, 1:, None, :] / c[:, 1:, None, None])
    loglik = np.log(c).sum(axis=1) + shift.sum(axis=1)
    return marginals, pairwise, loglik


# ---------------------------------------------------------------------------
# alpha updates
# ---------------------------------------------------------------------------

def update_alpha(latent_spec, prev, marginals, transitions=None,
                 covariates=None):
    """Conditional M-step for the latent parameters.

    ``transitions`` is the Markov model's (J, J) expected transition
    totals.  Returns ``(params, flags)``.  Markov rows with vanishing
    occupancy keep their previous values and are flagged; a covariate
    Newton search that fails to reach the gradient tolerance is flagged
    "newton_diverged" and returns its best iterate.
    """
    from .datamodel import CovariateParams, IIDParams, MarkovParams

    flags = []
    if latent_spec.kind == "iid":
        p = marginals.mean(axis=(0, 1))
        return IIDParams(p=p / p.sum()), flags

    if latent_spec.kind == "markov":
        pi = marginals[:, 0, :].mean(axis=0)
        pi = pi / pi.sum()
        den = transitions.sum(axis=1)
        A = np.array(prev.A, dtype=float, copy=True)
        for l in range(A.shape[0]):
            if den[l] < _OCCUPANCY_EPS:
                flags.append(f"zero_occupancy_row_{l + 1}")
                continue
            A[l] = transitions[l] / den[l]
        return MarkovParams(pi=pi, A=A), flags

    beta, newton_flags = _newton_beta(
        marginals, covariates, prev.beta, _NEWTON_GRAD_TOL,
        _NEWTON_MAX_STEPS)
    return CovariateParams(beta=beta), flags + newton_flags


def _newton_beta(marginals, covariates, beta0, grad_tol, max_steps):
    """Newton-Raphson for the multinomial-logistic alpha M-step.

    Soft targets are the marginal posteriors; observations are all (k, i)
    points pooled.  Steps that do not improve the objective are halved.
    """
    N, n, J = marginals.shape
    M = covariates.shape[2]
    X = np.concatenate(
        [np.ones((N * n, 1)), covariates.reshape(N * n, M)], axis=1)
    Q = marginals.reshape(N * n, J)
    beta = np.array(beta0, dtype=float, copy=True)
    npar = (J - 1) * (M + 1)

    def objective(b):
        lp = log_state_probs(b, X[:, 1:])
        return float(np.sum(Q * lp))

    def grad_hess(b):
        eta = np.concatenate(
            [np.zeros((X.shape[0], 1)), X @ b.T], axis=1)
        mu = np.exp(eta - _logsumexp(eta))
        G = X.T @ (Q[:, 1:] - mu[:, 1:])                # (M+1, J-1)
        H = np.empty((npar, npar))
        p1 = M + 1
        for j in range(J - 1):
            for l in range(J - 1):
                w = mu[:, j + 1] * ((j == l) - mu[:, l + 1])
                H[j * p1:(j + 1) * p1, l * p1:(l + 1) * p1] = \
                    -(X.T * w) @ X
        return G.T.ravel(), H

    flags = []
    obj = objective(beta)
    for _ in range(max_steps):
        g, H = grad_hess(beta)
        if np.max(np.abs(g)) <= grad_tol:
            return beta, flags
        try:
            step = np.linalg.solve(-H, g).reshape(J - 1, M + 1)
        except np.linalg.LinAlgError:
            flags.append("newton_diverged")
            return beta, flags
        scale = 1.0
        for _ in range(_NEWTON_MAX_HALVINGS + 1):
            cand = beta + scale * step
            cand_obj = objective(cand)
            if cand_obj >= obj - 1e-14 * max(1.0, abs(obj)):
                beta, obj = cand, cand_obj
                break
            scale *= 0.5
        else:
            flags.append("newton_diverged")
            return beta, flags
    g, _ = grad_hess(beta)
    if np.max(np.abs(g)) > grad_tol:
        flags.append("newton_diverged")
    return beta, flags
