"""Latent-state machinery: enumeration, posteriors, and alpha updates.

Three latent models share one interface: "iid" (fixed state probabilities),
"markov" (time-homogeneous chain along the grid), and "covariate"
(multinomial-logistic probabilities driven by per-point covariates, state 1
as reference).  Each is its parameter block's class (``IIDParams``,
``MarkovParams``, ``CovariateParams``; ``LATENT_PARAMS`` by kind), which
holds the kind's start, M-step, check, prior, diagonal-route posteriors,
Louis route, coordinates and relabelling; ``update_alpha`` and
``log_prior_table`` call on it.

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

from dataclasses import dataclass, fields, replace
from decimal import Decimal
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import BadInit, DegenerateLikelihood, EnumerationTooLarge

MASS_EPS = 1e-12    # posterior mass below this counts as none

# the quantile-split start raises each count to this share of their total
_ALPHA_FLOOR = 0.05

# bytes of a (rows, S) float64 block (see block_rows): of the E-step's log
# joint, or of the state vectors' rows in the reduction to moments
_BLOCK_BYTES = 4 * 2 ** 20

# the joint posterior keeps a replicate's entries within T = ln S + 36.8 of
# its largest: the S - 1 or fewer it drops each weigh under e^-T of it, so
# together under e^-36.8 (about 1.05e-16) of the replicate's total
_CUT_NATS = 36.8

# stopping rules of ``newton_search``, the iterative M-steps' one search:
# Newton steps, halvings of one step, and the predicted decrease, relative
# to |f| + scale, below which a step is taken whole and ends the search
_NEWTON_MAX_STEPS = 50
_NEWTON_MAX_HALVINGS = 60
_NEWTON_RTOL = 1e-14


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateEnumeration:
    """All J**n state vectors and one read-only table of their indicator
    rows, with the counts M-steps need.

    Row s of ``table`` is z_s = [E_s, trans_s] (``Moments``): its first n*J
    columns flag state j at point i in column i*J + j, its last J*J count
    the l -> j moves in column l*J + j.  ``flat``, ``onehot`` and ``trans``
    are views of those columns, not copies."""

    n: int
    J: int
    states: np.ndarray       # (S, n) int8, 0-based states
    table: np.ndarray        # (S, n*J + J*J) float64 indicators and moves
    counts: np.ndarray       # (S, J) occurrences of each state

    @property
    def size(self):
        return self.states.shape[0]

    @cached_property
    def flat(self):
        """(S, n*J) indicators; column i*J + j flags state j at i."""
        return self.table[:, :self.n * self.J]

    @cached_property
    def onehot(self):
        """(S, n, J) indicators."""
        return self.flat.reshape(self.size, self.n, self.J)

    @cached_property
    def trans(self):
        """(S, J, J) transition counts n_{s,lj}."""
        return self.table[:, self.n * self.J:].reshape(self.size, self.J,
                                                        self.J)


def enumeration_bytes(n, J):
    """Bytes of the (n, J) enumeration's tables, as an exact int."""
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
    """Build the canonical enumeration for (n, J).  Cached, so its
    tables are read-only: copy one before writing to it."""
    refuse_over_budget(enumeration_bytes(n, J),
                       f"the enumeration of {J}**{n} state vectors")
    S, nJ = J ** n, n * J
    idx = np.arange(S)
    states = np.empty((S, n), dtype=np.int8)
    for i in range(n):
        states[:, i] = (idx // J ** i) % J
    table = np.zeros((S, nJ + J * J))
    onehot = table[:, :nJ].reshape(S, n, J)
    np.put_along_axis(onehot, states[:, :, None].astype(int), 1.0, axis=2)
    counts = onehot.sum(axis=1)
    np.einsum("sil,sij->slj", onehot[:, :-1, :], onehot[:, 1:, :],
              out=table[:, nJ:].reshape(S, J, J))
    for a in (states, table, counts):
        a.flags.writeable = False
    return StateEnumeration(n=n, J=J, states=states, table=table,
                            counts=counts)


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


def logit_curvature(X, mu):
    """Negative Hessian of the multinomial-logit log-likelihood in beta
    (row by row) at rows X (P, M+1) and probabilities mu (P, J-1) of states
    2..J.  Block (j, l) is X' diag(mu_j (delta_jl - mu_l)) X: with K the
    rows mu_i (x) x_i, the blocks of X'K on the diagonal less K'K."""
    P, p1 = X.shape
    K = (mu[:, :, None] * X[:, None, :]).reshape(P, -1)
    H = -(K.T @ K)
    for j in range(mu.shape[1]):
        b = slice(j * p1, (j + 1) * p1)
        H[b, b] += X.T @ K[:, b]
    return H


def _logsumexp(a):
    """log sum exp(a) over the last axis, kept as a length-1 axis.

    Shifted by the row maximum where that is finite; a row of -inf gives
    -inf.  The axis is short (J), so it is reduced column by column:
    numpy's own reduction along a short last axis costs several times
    more, and below eight columns it sums in this same order.
    """
    cols = [a[..., j] for j in range(a.shape[-1])]
    m = np.array(reduce(np.maximum, cols))
    m[~np.isfinite(m)] = 0.0
    with np.errstate(divide="ignore"):
        return (np.log(sum(np.exp(c - m) for c in cols)) + m)[..., None]


def log_prior_table(enum, params, covariates=None):
    """Log prior of every enumerated state vector, as a factor pair: the
    ``log_prior`` of ``params``' kind.

    Returns (L, R) with L R' the (N, S) log prior table, so that
    ``CovStructure.loglik_table`` adds it inside its GEMM and no (N, S)
    prior table is built.  For iid/markov L is a (1, 1) one, shared by
    every replicate, and R the (S, 1) log prior, where zero-probability
    entries map to -inf.  For the covariate model L is the (N, n*J) log
    probabilities (floored at -1e300, so that a zero indicator in R =
    ``enum.flat`` meets no -inf) and R the (S, n*J) indicators.
    """
    with np.errstate(divide="ignore"):
        return params.log_prior(enum, covariates)


def _weighted_logsum(W, logs):
    """``W @ logs`` where a zero weight kills a -inf log instead of NaN."""
    neg = np.isneginf(logs)
    if not neg.any():
        return W @ logs
    out = W @ np.where(neg, 0.0, logs)
    return np.where(W @ neg.astype(float) > 0, -np.inf, out)


def log_prior_single(states, latent_spec, params, covariate_rows=None):
    """Log prior of one state vector (0-based); used by tests and tools.
    It is written apart from the kinds' ``log_prior`` on purpose: the
    benchmark's brute-force check compares the two."""
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
    (u_s'y_ck)^2] (u_s its n(J-1) indicators of states 2..J): ``cooc`` and
    ``lin`` sum w_s z_s z_s' and E_s t_s' per stratum (nonhomog_ri's count
    of state-2 points, else one); ``ucooc`` is sum_s P_ks u_s u_s' per k.
    """

    N: int
    ybar: np.ndarray          # (n,)
    yy: np.ndarray            # (n, n) sum_k y_ck y_ck'
    C: np.ndarray             # (n, n J) sum_k y_ck m_k'
    cooc: np.ndarray          # (G, n J + J J, n J + J J)
    lin: np.ndarray           # (G, n J, c)
    ucooc: np.ndarray | None = None     # (N, n(J-1), n(J-1))

    @property
    def occupancy(self):
        """(n J, n J) co-occupancy sum_s w_s E_s E_s' over every stratum."""
        nJ = self.C.shape[1]
        return self.cooc[:, :nJ, :nJ].sum(axis=0)


def posterior_moments(blocks, enum, yc, ybar, latent_kind, nonhomog):
    """``(loglik, marginals, transitions, moments)`` of a structured-kind
    E-step from ``blocks`` of ``(rows, *joint_posterior(...))``: each block
    writes its rows and adds its t_s (``Moments``) into an (S, c)
    accumulator, reduced on the state vectors with mass after the last
    (``indicator_moments``).  A nonhomog_ri block's joint table is
    overwritten."""
    (N, n), J = yc.shape, enum.J
    latent, nu = LATENT_PARAMS[latent_kind], n * (J - 1)
    loglik, marginals = np.empty(N), np.empty((N, n, J))
    transitions = np.empty((N, J, J)) if latent.chain else None
    ucooc = np.empty((N, nu, nu)) if latent.needs_covariates else None
    acc = np.zeros((enum.size, 6 if nonhomog else 1))
    for rows, P, ll, cols in blocks:
        loglik[rows] = ll
        marginals[rows] = marginals_from_joint(P, enum, cols)
        if transitions is not None:
            transitions[rows] = pairwise_from_joint(P, enum, cols)
        if ucooc is not None or nonhomog:
            u = np.ascontiguousarray(
                enum.onehot[cols, :, 1:].reshape(-1, nu))
        if ucooc is not None:
            for a in range(nu):
                ucooc[rows, a] = P @ (u * u[:, a:a + 1])
        one = np.ones(P.shape[0])
        if nonhomog:
            ty = yc[rows].sum(axis=1)
            X = np.column_stack([one, ty, ty * ty])
            uy = yc[rows] @ u.T                         # u_s'y_ck
            # P is used up here: scaled by u'y in place, twice, so that
            # only P and u'y are (rows, S) blocks
            acc[cols] += np.vstack([
                X.T @ P, X[:, :2].T @ np.multiply(P, uy, out=P),
                one @ np.multiply(P, uy, out=P)]).T
        else:
            acc[cols, 0] += one @ P
        P = uy = None       # freed before the next block is built

    cooc, lin = indicator_moments(acc, enum, nonhomog)
    return loglik, marginals, transitions, Moments(
        N=N, ybar=ybar, yy=yc.T @ yc, C=yc.T @ marginals.reshape(N, n * J),
        cooc=cooc, lin=lin, ucooc=ucooc)


def indicator_moments(acc, enum, nonhomog):
    """``Moments``' ``(cooc, lin)`` from the (S, c) accumulator of t_s: the
    sums of w_s z_s z_s' and E_s t_s' per stratum over the state vectors
    with mass (w_s = acc[s, 0] > 0), each over blocks of rows z_s of
    ``enum.table``."""
    nJ, width = enum.n * enum.J, enum.table.shape[1]
    live = np.flatnonzero(acc[:, 0])
    g = enum.counts[live, 1] if nonhomog else np.zeros(live.size)
    cooc = np.zeros((enum.n + 1 if nonhomog else 1, width, width))
    lin = np.zeros((len(cooc), nJ, acc.shape[1]))
    step = block_rows(width)
    for k in range(len(cooc)):
        ks = live[g == k]
        for s in (ks[a:a + step] for a in range(0, ks.size, step)):
            z, t = enum.table[s], acc[s]
            cooc[k] += z.T @ (t[:, :1] * z)
            lin[k] += z[:, :nJ].T @ t
    return cooc, lin


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
# alpha updates and the iterative M-steps' Newton search
# ---------------------------------------------------------------------------

def update_alpha(prev, marginals, transitions=None, covariates=None):
    """Conditional M-step for the latent parameters: the ``m_step`` of
    ``prev``'s kind, which returns ``(params, flags)``.
    ``transitions`` holds the Markov model's (N, J, J) expected transition
    counts."""
    return prev.m_step(marginals, transitions, covariates)


def newton_search(fgh, x, scale, bounded=False):
    """Minimize f from ``x`` by damped Newton; the one search of the
    iterative M-steps.

    ``fgh(x)`` returns f, its gradient and Hessian (more entries are
    ignored); f is +inf where it is undefined.  Each step is
    ``_descent_step``'s and is halved until f falls.  Once the predicted
    decrease -g'step is below f's rounding, ``_NEWTON_RTOL`` (|f| + scale),
    the step is taken whole and the search stops.  With ``bounded`` the
    search keeps x >= 0: candidates are projected onto it, and a
    coordinate at 0 whose gradient points outward is held there.

    Returns ``(x, ok)``; ``ok`` is False if f is not finite, or the steps
    or one step's halvings ran out.  f(x) is never above f at the start.
    """
    def project(v):
        return np.maximum(v, 0.0) if bounded else v

    x = np.array(x, dtype=float)
    f, g, H = fgh(x)[:3]
    for _ in range(_NEWTON_MAX_STEPS):
        if not np.isfinite(f):
            return x, False
        free = (x > 0.0) | (g < 0.0) if bounded else np.ones(x.size, bool)
        if not free.any():
            return x, True
        step = np.zeros(x.size)
        step[free] = _descent_step(g[free], H[np.ix_(free, free)])
        # f's rounding hides a gain this small: take the step whole, stop
        if -(g @ step) <= _NEWTON_RTOL * (abs(f) + scale):
            return project(x + step), True
        for t in 0.5 ** np.arange(_NEWTON_MAX_HALVINGS):
            cand = project(x + t * step)
            new = fgh(cand)
            if new[0] < f:
                break
        else:
            return x, False
        x = cand
        f, g, H = new[:3]
    return x, False


def _descent_step(g, H):
    """Newton step -H^{-1} g with H's eigenvalues taken in absolute value
    (and floored), so it points downhill where f is not convex."""
    w, V = np.linalg.eigh(H)
    w = np.abs(w)
    w = np.maximum(w, 1e-12 * w.max(initial=0.0) + 1e-300)
    return -V @ ((V.T @ g) / w)


# ---------------------------------------------------------------------------
# parameter blocks: one class per latent kind
# ---------------------------------------------------------------------------

class _Block:
    """Base of the latent and covariance parameter blocks.

    A block's fields, in declaration order, are its keys in theta JSON.
    ``float`` fields hold floats and the others float arrays; ``beta``
    keeps one row per non-reference state even when J = 2.  A block's
    class is its model kind (``kind``): it holds the kind's ``start``
    from the quantile split, ``m_step``, ``check`` of a supplied block,
    ``derived`` values (written beside the fields) and relabelling
    (``permute``, new state j the old state perm[j], of the ``by_state``
    fields, each with as many state axes as given).
    """

    by_state = {}

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float:
                value = float(value)
            else:
                value = np.asarray(value, dtype=float)
                if f.name == "beta":
                    value = np.atleast_2d(value)
            setattr(self, f.name, value)

    def permute(self, perm):
        return replace(self, **{name: getattr(self, name)[np.ix_(
            *[perm] * ndim)] for name, ndim in self.by_state.items()})

    def derived(self):
        return {}


class _LatentBlock(_Block):
    """A latent kind.  ``m_step`` returns ``(block, flags)``, ``log_prior``
    is its ``log_prior_table`` factor pair and ``louis`` its diagonal-route
    Louis information.  Route facts: ``min_J``, ``chain`` (its E-step reads
    transition counts), ``needs_covariates`` and the ``by_state`` fields,
    its probability vectors, near 0 of which SEs are undefined."""

    min_J = 1
    chain = False
    needs_covariates = False

    def check(self, J, M):
        for name, ndim in self.by_state.items():
            v = getattr(self, name)
            if v.shape != (J,) * ndim or np.any(v < 0) \
                    or np.max(np.abs(v.sum(axis=-1) - 1.0)) > 1e-8:
                raise BadInit(f"{name} must hold probability vectors of "
                              f"length J = {J}")

    def posteriors(self, pointwise_loglik, covariates):
        """Diagonal-route ``(marginals, pairwise, loglik)``: states are
        independent across points, so pointwise Bayes rules, no pairs."""
        marginals, loglik = marginal_posterior_pointwise(
            pointwise_loglik, self.log_point_probs(covariates))
        return marginals, None, loglik


def _floor_probs(w):
    """Nonnegative weights as probabilities along the last axis, each
    weight first raised to ``_ALPHA_FLOOR`` of their total."""
    w = np.asarray(w, dtype=float)
    p = np.maximum(w, _ALPHA_FLOOR * w.sum(axis=-1, keepdims=True))
    return p / p.sum(axis=-1, keepdims=True)


@dataclass
class IIDParams(_LatentBlock):
    """State probabilities p, shared by all points."""

    p: np.ndarray

    kind = "iid"
    by_state = {"p": 1}

    @classmethod
    def start(cls, hard, covariates):
        N, n, _ = hard.shape
        return cls(p=_floor_probs(np.einsum("kij->j", hard) / (N * n)))

    def m_step(self, marginals, transitions, covariates):
        p = np.einsum("kij->j", marginals)
        return IIDParams(p=p / p.sum()), []

    def log_point_probs(self, covariates):
        with np.errstate(divide="ignore"):
            return np.log(self.p)

    def log_prior(self, enum, covariates):
        return np.ones((1, 1)), _weighted_logsum(
            enum.counts, np.log(self.p))[:, None]

    def free_coordinates(self):
        return {f"p{j + 1}": float(v) for j, v in enumerate(self.p[:-1])}

    def louis(self, step, covariates):
        from . import inference
        return inference.louis_information_iid_closed(step.marginals, self.p)


@dataclass
class MarkovParams(_LatentBlock):
    """Initial distribution pi and row-stochastic transition matrix A."""

    pi: np.ndarray
    A: np.ndarray

    kind = "markov"
    chain = True
    by_state = {"pi": 1, "A": 2}

    @classmethod
    def start(cls, hard, covariates):
        trans = np.einsum("kil,kij->lj", hard[:, :-1], hard[:, 1:])
        trans[trans.sum(axis=1) == 0] = 1.0       # no move seen: uniform
        return cls(pi=_floor_probs(hard[:, 0].sum(axis=0) / hard.shape[0]),
                   A=_floor_probs(trans))

    def m_step(self, marginals, transitions, covariates):
        """A row with vanishing occupancy keeps its values, flagged."""
        flags = []
        pi = marginals[:, 0, :].mean(axis=0)
        totals = transitions.sum(axis=0)
        den = totals.sum(axis=1)
        A = np.array(self.A, dtype=float, copy=True)
        for l in range(A.shape[0]):
            if den[l] < MASS_EPS:
                flags.append(f"zero_occupancy_row_{l + 1}")
                continue
            A[l] = totals[l] / den[l]
        return MarkovParams(pi=pi / pi.sum(), A=A), flags

    def posteriors(self, pointwise_loglik, covariates):
        return forward_backward(pointwise_loglik, self.pi, self.A)

    def log_prior(self, enum, covariates):
        out = _weighted_logsum(enum.onehot[:, 0, :], np.log(self.pi))
        out = out + _weighted_logsum(enum.trans.reshape(enum.size, -1),
                                     np.log(self.A).ravel())
        return np.ones((1, 1)), out[:, None]

    def free_coordinates(self):
        """pi but its last entry, then each row l of A but a_ll."""
        J = self.pi.size
        pi = {f"pi{j + 1}": float(v) for j, v in enumerate(self.pi[:-1])}
        return pi | {f"a{l + 1}{j + 1}": float(self.A[l, j])
                     for l in range(J) for j in range(J) if j != l}

    def louis(self, step, covariates):
        from . import inference
        return inference.louis_information_markov_closed(
            step.marginals, step.pairwise, self)


@dataclass
class CovariateParams(_LatentBlock):
    """Multinomial-logistic coefficients, one row per non-reference state.

    ``beta[j - 1]`` holds the intercept and slopes for
    ``log p_j(v) / p_1(v)``, j = 2..J; state 1 is the reference.
    """

    beta: np.ndarray

    kind = "covariate"
    min_J = 2
    needs_covariates = True

    @classmethod
    def start(cls, hard, covariates):
        """The M-step from beta = 0, on the split floored like p."""
        J = hard.shape[2]
        soft = _ALPHA_FLOOR / J + (1 - _ALPHA_FLOOR) * hard
        beta0 = np.zeros((J - 1, covariates.shape[2] + 1))
        return cls(beta=beta0).m_step(soft, None, covariates)[0]

    def check(self, J, M):
        if self.beta.shape != (J - 1, M + 1):
            raise BadInit(
                f"beta shape {self.beta.shape}, expected {(J - 1, M + 1)}")

    def m_step(self, marginals, transitions, covariates):
        """``newton_search`` from this beta; a search that runs out of
        steps or halvings is flagged "newton_diverged" and returns its
        last iterate, whose objective is never below the start's."""
        # the multinomial logit: f = -sum Q log p over all (k, i) points
        # pooled, Q the marginal posteriors
        N, n, J = marginals.shape
        X = np.concatenate(
            [np.ones((N * n, 1)), covariates.reshape(N * n, -1)], axis=1)
        Q = marginals.reshape(N * n, J)
        shape = np.shape(self.beta)

        def fgh(b):
            lp = log_state_probs(b.reshape(shape), X[:, 1:])
            mu = np.exp(lp[:, 1:])
            g = X.T @ (mu - Q[:, 1:])                       # (M+1, J-1)
            return -float(np.sum(Q * lp)), g.T.ravel(), logit_curvature(X, mu)

        beta, ok = newton_search(fgh, np.ravel(self.beta), N * n)
        return (CovariateParams(beta=beta.reshape(shape)),
                [] if ok else ["newton_diverged"])

    def log_point_probs(self, covariates):
        return log_state_probs(self.beta, covariates)

    def log_prior(self, enum, covariates):
        lp = np.maximum(log_state_probs(self.beta, covariates), -1e300)
        return lp.reshape(lp.shape[0], -1), enum.flat

    def free_coordinates(self):
        return {f"beta{m}" + (f"_{j}" if j > 2 else ""): float(b)
                for j, row in enumerate(self.beta, start=2)
                for m, b in enumerate(row)}

    def louis(self, step, covariates):
        from . import inference
        return inference.louis_information_covariate(
            step.marginals, covariates, self.beta)

    def permute(self, perm):
        """beta re-referenced to the new state 1 (a J = 2 swap negates
        it)."""
        eta = np.vstack([np.zeros(self.beta.shape[1]), self.beta])[perm]
        return CovariateParams(beta=eta[1:] - eta[0])


LATENT_PARAMS = {c.kind: c for c in (IIDParams, MarkovParams,
                                     CovariateParams)}
