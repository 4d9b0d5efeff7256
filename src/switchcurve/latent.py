"""Latent-state machinery: enumeration, posteriors, and alpha updates.

Three latent models share one interface: "iid" (fixed state probabilities),
"markov" (time-homogeneous chain along the grid), and "covariate"
(multinomial-logistic probabilities driven by per-point covariates, state 1
as reference).

State vectors are enumerated in a canonical order: index m written in base
J, least significant digit first, so the state of the first grid point
cycles fastest.  All posterior work happens in log space; each replicate's
normalizer uses the log-sum-exp shift, which keeps the small-variance
regimes of interest far from overflow.  In those regimes nearly every state
vector lies far below a replicate's largest log weight: the joint posterior
keeps only entries within T = ln S + 36.8 of it and writes
an exact 0 for the rest, which together hold at most e^-36.8 (about
1.05e-16) of the replicate's total, under half an ulp of 1.

The structured-kind E-step runs over blocks of ``block_rows`` replicates'
(rows, S) log joint.  ``joint_posterior`` normalizes a block on the columns
that can carry mass; ``posterior_moments`` keeps its rows of the outputs and
adds its column sums into S-long accumulators, which reduce to fixed-size
``Moments``: no (replicate, state vector) table outlives a block.
"""

from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache

import numpy as np

from .errors import DegenerateLikelihood, EnumerationTooLarge

_OCCUPANCY_EPS = 1e-12

# bytes of a (rows, S) float64 block (see block_rows): of the E-step's log
# joint, or of the state vectors' rows in the reduction to moments
_BLOCK_BYTES = 4 * 2 ** 20

# the joint posterior keeps a replicate's entries within T = ln S + 36.8 of
# its largest: the S - 1 or fewer it drops each weigh under e^-T of it, so
# together under e^-36.8 (about 1.05e-16) of the replicate's total
_CUT_NATS = 36.8

# stopping rules of the covariate alpha M-step's Newton search
_NEWTON_GRAD_TOL = 1e-10
_NEWTON_MAX_STEPS = 50
_NEWTON_MAX_HALVINGS = 30


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateEnumeration:
    """All J**n state vectors plus the count tables M-steps need."""

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


def enumeration_bytes(n, J):
    """Bytes of the (n, J) enumeration's four tables, as an exact int."""
    J, n = int(J), int(n)
    return J ** n * (n + 8 * (n * J + J + J * J))


def block_rows(S, width=1):
    """Rows per block of a (rows, S) float64 table: as many as fit in
    ``_BLOCK_BYTES``, but at least ``width``.  An E-step block holds at
    least the rows of the log joint's right factor, which its GEMM reads
    whole."""
    return max(width, _BLOCK_BYTES // (8 * S))


def memory_budget():
    """Half of MemAvailable in /proc/meminfo, in bytes; 4 GiB if unreadable."""
    try:
        with open("/proc/meminfo", "rb") as fh:
            kb = fh.read().split(b"MemAvailable:", 1)[1].split(None, 1)[0]
        return int(kb) * 1024 // 2
    except (OSError, IndexError, ValueError):
        return 2 ** 32


def refuse_over_budget(need, what):
    """Raise ``EnumerationTooLarge`` if ``what`` needs more than
    ``memory_budget()``; ``need`` (bytes) may exceed the float range."""
    if need > (budget := memory_budget()):
        raise EnumerationTooLarge(
            f"{what} needs about {Decimal(need) / 2 ** 30:.3g} GiB, more "
            f"than the memory budget of {budget / 2 ** 30:.3g} GiB")


@lru_cache(maxsize=8)
def enumerate_states(n, J):
    """Build the canonical enumeration for (n, J).  Cached."""
    refuse_over_budget(enumeration_bytes(n, J),
                       f"the enumeration of {J}**{n} state vectors")
    S = J ** n
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
    """Log prior of every enumerated state vector, as a factor pair.

    Returns (L, R) with L R' the (N, S) log prior table, so that
    ``CovStructure.loglik_table`` adds it inside its GEMM and no (N, S)
    prior table is built.  For iid/markov L is a (1, 1) one, shared by
    every replicate, and R the (S, 1) log prior, where zero-probability
    entries map to -inf.  For the covariate model L is the (N, n*J) log
    probabilities (floored at -1e300, so that a zero indicator in R =
    ``enum.flat`` meets no -inf) and R the (S, n*J) indicators.
    """
    kind = latent_spec.kind
    with np.errstate(divide="ignore"):
        if kind == "iid":
            out = _weighted_logsum(enum.counts, np.log(params.p))
        elif kind == "markov":
            out = _weighted_logsum(enum.onehot[:, 0, :], np.log(params.pi))
            out = out + _weighted_logsum(
                enum.trans.reshape(enum.size, -1),
                np.log(params.A).ravel())
        else:
            lp = log_state_probs(params.beta, covariates)   # (N, n, J)
            return (np.maximum(lp, -1e300).reshape(lp.shape[0], -1),
                    enum.flat)
    return np.ones((1, 1)), out[:, None]


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

def joint_posterior(W, first=0):
    """Normalize per-replicate joint posteriors on the columns that can
    carry mass.

    ``W`` is a (rows, S) log joint table (log density plus log prior) of
    one block of replicates, as ``CovStructure.loglik_table`` returns it.
    Each row is shifted by its maximum m.  Shifted entries below -T,
    T = ln S + 36.8, are not exponentiated: a clip at 0 writes them as
    exact 0, and together they would hold at most e^-36.8 of the row's
    total.  A state vector whose shifted entries are all below -T has no
    posterior mass, so one compare pass, W >= m - (T + 1), finds the
    candidate columns first (the 1 covers the rounding of the shift); only
    those are taken, shifted, exponentiated, clipped, summed and divided.
    A candidate column can still end up all zero.  When more than half the
    columns are candidates, ``W`` is normalized in place and kept whole.

    Returns ``(P, ll, cols)``: the (rows, S_cand) posterior table, rows
    summing to one, the log marginal likelihoods, and the columns of ``W``
    that ``P`` holds: ascending indices, or ``slice(None)`` for all.
    Raises ``DegenerateLikelihood`` if a row holds a NaN or +inf entry, or
    has no finite entry, naming its replicate: row i is replicate
    ``first + i``.
    """
    # a NaN entry makes its row's max NaN, so it is refused here rather
    # than zeroed by the mask below
    m = np.max(W, axis=1)
    bad = ~np.isfinite(m)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DegenerateLikelihood(f"replicate {first + k + 1}: " + (
            "no state vector has positive likelihood" if np.isneginf(m[k])
            else "non-finite log-likelihood"))
    cut = -(float(np.log(W.shape[1])) + _CUT_NATS)
    # rounding is monotone: a shift W - m that rounds to -T or above is
    # exactly at least -(T + 1), so W is at or above the rounded floor
    floor = m + (cut - 1.0)
    cols = np.flatnonzero(np.any(W >= floor[:, None], axis=0))
    if 2 * cols.size > W.shape[1]:
        # a copy of most columns would hold a second table for little gain
        P, cols = W, slice(None)
    else:
        P = np.take(W, cols, axis=1)
    P -= m[:, None]
    np.exp(P, out=P, where=P >= cut)
    # the entries left unexponentiated are below cut < 0 (or -inf), so one
    # clip writes their zeros
    np.maximum(P, 0.0, out=P)
    Z = P.sum(axis=1)
    P /= Z[:, None]
    return P, m + np.log(Z), cols


def marginals_from_joint(P, enum, cols):
    """(rows, n, J) marginals from a joint table over state vectors
    ``cols``."""
    return (P @ enum.flat[cols]).reshape(P.shape[0], enum.n, enum.J)


def pairwise_from_joint(P, enum, cols):
    """(rows, J, J) expected numbers of l -> j moves per replicate from a
    joint table over state vectors ``cols``."""
    J = enum.J
    counts = enum.trans.reshape(enum.size, J * J)[cols]
    return (P @ counts).reshape(P.shape[0], J, J)


@dataclass(frozen=True)
class Moments:
    """Fixed-size posterior sums of a structured-kind E-step.

    With y_c = y - ybar, m_k replicate k's flat marginals, P_ks its joint
    posterior, w_s = sum_k P_ks, E_s state vector s's flat indicators, z_s
    = [E_s, its transition counts] and t_s = sum_k P_ks x_ks, x_ks = 1 or
    for nonhomog_ri [1, 1'y_ck, (1'y_ck)^2, u_s'y_ck, 1'y_ck u_s'y_ck,
    (u_s'y_ck)^2] (u_s its state-2 indicators): ``cooc`` and ``lin`` sum
    w_s z_s z_s' and E_s t_s' per stratum (nonhomog_ri's count of state-2
    points, else one); ``ucooc`` is each replicate's sum_s P_ks u_s u_s'.
    """

    N: int
    ybar: np.ndarray          # (n,)
    yy: np.ndarray            # (n, n) sum_k y_ck y_ck'
    C: np.ndarray             # (n, n J) sum_k y_ck m_k'
    cooc: np.ndarray          # (G, n J + J J, n J + J J)
    lin: np.ndarray           # (G, n J, c)
    ucooc: np.ndarray | None = None     # (N, n, n)

    @property
    def occupancy(self):
        """(n J, n J) co-occupancy sum_s w_s E_s E_s' over every stratum."""
        nJ = self.C.shape[1]
        return self.cooc[:, :nJ, :nJ].sum(axis=0)


def posterior_moments(blocks, enum, yc, ybar, latent_kind, nonhomog):
    """``(loglik, marginals, transitions, moments)`` of a structured-kind
    E-step from ``blocks`` of ``(rows, *joint_posterior(...))``: each block
    writes its rows and adds its t_s (``Moments``) into an (S, c)
    accumulator, reduced on the state vectors with mass after the last."""
    (N, n), J = yc.shape, enum.J
    loglik, marginals = np.empty(N), np.empty((N, n, J))
    transitions = np.empty((N, J, J)) if latent_kind == "markov" else None
    ucooc = np.empty((N, n, n)) if latent_kind == "covariate" else None
    acc = np.zeros((enum.size, 6 if nonhomog else 1))
    for rows, P, ll, cols in blocks:
        loglik[rows] = ll
        marginals[rows] = marginals_from_joint(P, enum, cols)
        if transitions is not None:
            transitions[rows] = pairwise_from_joint(P, enum, cols)
        if ucooc is not None or nonhomog:
            u = np.ascontiguousarray(enum.onehot[cols, :, 1])
        if ucooc is not None:
            for i in range(n):
                ucooc[rows, i] = P @ (u * u[:, i:i + 1])
        one = np.ones(P.shape[0])
        if nonhomog:
            ty = yc[rows].sum(axis=1)
            X = np.column_stack([one, ty, ty * ty])
            uy = yc[rows] @ u.T                         # u_s'y_ck
            Q = P * uy
            acc[cols] += np.vstack([X.T @ P, X[:, :2].T @ Q,
                                    one @ np.multiply(Q, uy, out=Q)]).T
        else:
            acc[cols, 0] += one @ P
        P = uy = Q = None       # freed before the next block is built

    live = np.flatnonzero(acc[:, 0])
    g = enum.counts[live, 1] if nonhomog else np.zeros(live.size)
    trans, nJ = enum.trans.reshape(enum.size, -1), n * J
    cooc = np.zeros((n + 1 if nonhomog else 1, nJ + J * J, nJ + J * J))
    lin = np.zeros((len(cooc), nJ, acc.shape[1]))
    step = block_rows(cooc.shape[1])
    for k in range(len(cooc)):      # in blocks of z rows
        ks = live[g == k]
        for s in (ks[a:a + step] for a in range(0, ks.size, step)):
            z, t = np.hstack([enum.flat[s], trans[s]]), acc[s]
            cooc[k] += z.T @ (t[:, :1] * z)
            lin[k] += z[:, :nJ].T @ t
    return loglik, marginals, transitions, Moments(
        N=N, ybar=ybar, yy=yc.T @ yc, C=yc.T @ marginals.reshape(N, nJ),
        cooc=cooc, lin=lin, ucooc=ucooc)


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

    ``transitions`` holds the Markov model's (N, J, J) expected transition
    counts.  Returns ``(params, flags)``.  Markov rows with vanishing
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
        totals = transitions.sum(axis=0)
        den = totals.sum(axis=1)
        A = np.array(prev.A, dtype=float, copy=True)
        for l in range(A.shape[0]):
            if den[l] < _OCCUPANCY_EPS:
                flags.append(f"zero_occupancy_row_{l + 1}")
                continue
            A[l] = totals[l] / den[l]
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
