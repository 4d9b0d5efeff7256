"""Replicate-wise cross-validation for the smoothing parameters.

Available for the diagonal covariance kinds.  The selection loop
alternates between an ECM fit at the current lambdas and, with the
resulting posterior weights frozen, a per-state grid search of the
leave-one-replicate-out score

    CV_j(lam) = sum_k (y_k - fhat_j^(-k))' W_kj (y_k - fhat_j^(-k)).

Each fhat^(-k) is the literal refit without replicate k, assembled cheaply.
Its normal equations are the full K x K system with replicate k's terms
subtracted, M_k(lam) = M(lam) - B' W_k B with right-hand side
rhs - B' W_k y_k, and the whole grid is scored from one simultaneous
diagonalization per replicate (Demmler & Reinsch 1975).  With lo the
smallest grid value, eigh(M_k(lo)) = V e V' and
eigh(e^-1/2 V' R V e^-1/2) = U d U' give G_k = V e^-1/2 U, for which

    M_k(lam)^-1 = G_k diag(1 / (1 + 2 (lam - lo) d)) G_k',

so every lambda costs O(K) per replicate on top of two batched
eigendecompositions.  A left-out system that is rank-deficient somewhere
on the grid (eigenvalues at or below K * eps times the largest) cannot be
whitened at lo; such replicates are solved per lambda by a symmetric
eigendecomposition (``em.min_norm_solve``) and get the minimum-norm
solution where rank-deficient, as a least-squares refit would.
"""

from dataclasses import dataclass

import numpy as np

from . import em as em_mod
from .basis import spline_setup
# CVConfig is parsed with the rest of the config; its default grid stays
# importable from here as cv.DEFAULT_GRID
from .datamodel import (DEFAULT_GRID, DEFAULT_MAX_ITER,  # noqa: F401
                        DEFAULT_TOL, CVConfig)
from .errors import SpecMismatch

_EPS = np.finfo(float).eps


def cv_score(B, R, lam, y, weights):
    """One state's CV score over a grid of lambdas, with frozen weights.

    Parameters
    ----------
    B, R : basis and curvature penalty matrices.
    lam : smoothing parameter, or a 1-D array of them.
    y : (N, n) responses.
    weights : (N, n) nonnegative frozen weights W_kj (posterior mass over
        noise variance).  Zero-weight points contribute nothing.

    Returns
    -------
    (scores, n_fallback): scores has one entry per lambda (a float for a
    scalar ``lam``); n_fallback counts the (replicate, lambda) pairs whose
    left-out system is rank-deficient and so is scored by its minimum-norm
    fit.
    """
    grid = np.atleast_1d(np.asarray(lam, dtype=float))
    lo = grid.min()
    K = B.shape[1]
    M, rhs = em_mod.diagonal_normal_system(B, R, lo, weights, y)
    own = (B.T[None] * weights[:, None, :]) @ B           # (N, K, K)
    rhs_loo = rhs - (weights * y) @ B                     # (N, K)
    e, V = np.linalg.eigh(M - own)
    # M_k(lam) grows with lam and its top eigenvalue by at most
    # 2 (lam - lo) ||R||, so a replicate clear of the cutoff at lo by that
    # margin is full-rank everywhere on the grid.
    top = e[:, -1] + 2.0 * (grid.max() - lo) * np.linalg.eigvalsh(R)[-1]
    slow = e[:, 0] <= K * _EPS * top
    fits = np.empty(y.shape + grid.shape)                 # (N, n, G)

    fast = ~slow
    Wh = V[fast] / np.sqrt(e[fast])[:, None, :]           # V e^-1/2
    d, U = np.linalg.eigh(np.swapaxes(Wh, 1, 2) @ R @ Wh)
    G = Wh @ U
    proj = np.einsum("kab,ka->kb", G, rhs_loo[fast])     # G' rhs
    # R is PSD: negative d are rounding
    shrink = 1.0 / (1.0 + 2.0 * (grid - lo) * np.maximum(d, 0.0)[:, :, None])
    fits[fast] = (B @ G) @ (proj[:, :, None] * shrink)

    n_fallback = 0
    if slow.any():
        for g, lam_g in enumerate(grid):
            M_g, _ = em_mod.diagonal_normal_system(B, R, lam_g, weights, y)
            coef, _, kept = em_mod.min_norm_solve(M_g - own[slow],
                                                  rhs_loo[slow])
            fits[slow, :, g] = coef @ B.T
            n_fallback += int(np.sum(~kept.all(axis=1)))

    r = y[:, :, None] - fits
    scores = np.einsum("kn,kng->g", weights, r * r)
    if np.ndim(lam) == 0:
        return float(scores[0]), n_fallback
    return scores, n_fallback


@dataclass
class CVResult:
    lambdas: np.ndarray             # selected, one per state
    scores: np.ndarray              # (J, len(grid)) from the picking sweep
    grid: np.ndarray
    n_outer: int
    converged: bool
    n_fallback: int
    fit: object                     # final FitReport at the selection


def select_lambdas(dataset, latent_spec, cov_spec, config=None, K=None,
                   tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
                   init="quantile-split"):
    """Iterate ECM fits and frozen-weight grid searches to a fixed point.

    The picks, one grid index per state, start at the grid's middle index.
    Each outer step fits ECM at the picks' lambdas and moves every state
    to the argmin of its score over the grid.  The loop stops when the new
    picks were seen before.  Picks equal to the current ones have
    converged, and that step's fit is the result.  Picks equal to an older
    step's start a cycle: the loop stops unconverged with the picks and
    scores it would hold at ``outer_max_iter``.  A cycling or capped
    selection is fitted once more at its picks.  ``n_outer`` counts the
    steps run.
    """
    if not cov_spec.diagonal:
        raise SpecMismatch(
            "cross-validation is defined for diagonal covariance kinds, "
            f"not {cov_spec.kind}")
    config = config or CVConfig()
    J = latent_spec.J
    grid = config.grid
    _, B, R = spline_setup(dataset.x, K)

    def fit_at(picks):
        return em_mod.ecm_fit(
            dataset, latent_spec, cov_spec, lambdas=grid[picks], K=K,
            tol=tol, max_iter=max_iter, init=init)

    picks = np.full(J, grid.size // 2)
    history = [(picks, None)]       # (picks, scores) after each step
    n_fallback = 0
    for n_outer in range(1, config.outer_max_iter + 1):
        fit = fit_at(picks)
        weights = em_mod.weight_matrices(fit.posteriors,
                                         fit.theta.cov.sigma2)
        scores = np.empty((J, grid.size))
        for j in range(J):
            scores[j], nf = cv_score(B, R, grid, dataset.y, weights[:, :, j])
            n_fallback += nf
        new_picks = np.argmin(scores, axis=1)
        if np.array_equal(new_picks, picks):
            return CVResult(lambdas=grid[picks], scores=scores, grid=grid,
                            n_outer=n_outer, converged=True,
                            n_fallback=n_fallback, fit=fit)
        seen = [s for s, (p, _) in enumerate(history)
                if np.array_equal(p, new_picks)]
        history.append((new_picks, scores))
        picks = new_picks
        if seen:
            # Each step is a deterministic function of its picks, so from
            # step s + 1 on the capped loop repeats history[s + 1:].
            s = seen[0]
            picks, scores = history[
                s + 1 + (config.outer_max_iter - 1 - s) % (n_outer - s)]
            break
    return CVResult(lambdas=grid[picks], scores=scores, grid=grid,
                    n_outer=n_outer, converged=False, n_fallback=n_fallback,
                    fit=fit_at(picks))
