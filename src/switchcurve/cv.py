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
eigendecomposition and get the minimum-norm solution where rank-deficient,
as a least-squares refit would.
"""

from dataclasses import dataclass, field

import numpy as np

from . import em as em_mod

DEFAULT_GRID = np.logspace(-6.0, 2.0, 25)
DEFAULT_LAMBDA0 = 1e-2
_EPS = np.finfo(float).eps


@dataclass
class CVConfig:
    """Grid and outer-loop settings for select_lambdas."""

    grid: np.ndarray = field(default_factory=lambda: DEFAULT_GRID.copy())
    lambda0: float = DEFAULT_LAMBDA0
    outer_max_iter: int = 20
    outer_tol: float = 1e-3

    def __post_init__(self):
        self.grid = np.sort(np.asarray(self.grid, dtype=float).ravel())
        self.lambda0 = float(self.lambda0)
        self.outer_max_iter = int(self.outer_max_iter)
        self.outer_tol = float(self.outer_tol)
        if self.grid.size < 1 or np.any(self.grid < 0):
            raise ValueError("grid must hold non-negative values")


def _min_norm_solve(M, rhs):
    """Minimum-norm solutions of a stack of symmetric systems (N, K, K),
    dropping eigenvalues at or below K * eps times the largest, as
    ``lstsq(rcond=None)`` does; also returns how many were rank-deficient.
    """
    ev, V = np.linalg.eigh(M)
    cut = M.shape[-1] * _EPS * np.abs(ev).max(axis=1, keepdims=True)
    full = np.abs(ev) > cut
    inv_ev = np.divide(1.0, ev, out=np.zeros_like(ev), where=full)
    coef = inv_ev * np.einsum("kab,ka->kb", V, rhs)
    return (np.einsum("kab,kb->ka", V, coef),
            int(np.sum(~full.all(axis=1))))


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
            coef, deficient = _min_norm_solve(M_g - own[slow], rhs_loo[slow])
            fits[slow, :, g] = coef @ B.T
            n_fallback += deficient

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
                   tol=1e-8, max_iter=500, init="quantile-split",
                   compute_se=True):
    """Iterate ECM fits and frozen-weight grid searches until stable.

    Convergence means every state picks the same grid point twice in a
    row, or the relative change of every selected lambda drops below the
    outer tolerance.  Picks that repeat an earlier step's picks end the
    loop unconverged, with the result the loop would have reached at
    ``outer_max_iter``; ``n_outer`` counts the steps actually run.  Returns
    a CVResult whose ``fit`` is the final ECM fit at the selected lambdas.
    """
    if not cov_spec.diagonal:
        raise ValueError(
            "cross-validation is defined for diagonal covariance kinds")
    config = config or CVConfig()
    J = latent_spec.J
    grid = config.grid
    from .basis import basis_matrix, build_basis, penalty_matrix
    basis = build_basis(dataset.x, K)
    B = basis_matrix(basis, dataset.x)
    R = penalty_matrix(basis)

    if grid.size == 1:
        lambdas = np.full(J, grid[0])
        fit = em_mod.ecm_fit(
            dataset, latent_spec, cov_spec, lambdas=lambdas, K=K, tol=tol,
            max_iter=max_iter, init=init, compute_se=compute_se)
        return CVResult(lambdas=lambdas, scores=np.zeros((J, 1)),
                        grid=grid, n_outer=0, converged=True,
                        n_fallback=0, fit=fit)

    lambdas = np.full(J, config.lambda0)
    picks = np.full(J, -1)
    scores = np.zeros((J, grid.size))
    history = []                    # (picks, scores) of each outer step
    n_fallback = 0
    converged = False
    n_outer = 0
    for n_outer in range(1, config.outer_max_iter + 1):
        fit = em_mod.ecm_fit(
            dataset, latent_spec, cov_spec, lambdas=lambdas, K=K, tol=tol,
            max_iter=max_iter, init=init, compute_se=False)
        weights = em_mod.weight_matrices(fit.posteriors,
                                         fit.theta.cov.sigma2)
        scores = np.empty((J, grid.size))
        for j in range(J):
            scores[j], nf = cv_score(B, R, grid, dataset.y, weights[:, :, j])
            n_fallback += nf
        new_picks = np.argmin(scores, axis=1)
        new_lambdas = grid[new_picks]
        same_points = np.array_equal(new_picks, picks)
        small_change = np.all(
            np.abs(new_lambdas - lambdas)
            <= config.outer_tol * np.maximum(lambdas, 1e-300))
        lambdas, picks = new_lambdas, new_picks
        if same_points or small_change:
            converged = True
            break
        # Each step is a deterministic function of the previous picks, so
        # picks seen before start a cycle whose every transition has
        # already failed the test above.  Return the cycle member the
        # capped loop would stop on instead of running out the cap.
        seen = [i for i, (p, _) in enumerate(history)
                if np.array_equal(p, picks)]
        history.append((picks, scores))
        if seen:
            start = seen[0] + 1
            period = len(history) - start
            picks, scores = history[
                start + (config.outer_max_iter - 1 - start) % period]
            lambdas = grid[picks]
            break

    final = em_mod.ecm_fit(
        dataset, latent_spec, cov_spec, lambdas=lambdas, K=K, tol=tol,
        max_iter=max_iter, init=init, compute_se=compute_se)
    return CVResult(lambdas=lambdas, scores=scores, grid=grid,
                    n_outer=n_outer, converged=converged,
                    n_fallback=n_fallback, fit=final)
