"""Replicate-wise cross-validation for the smoothing parameters.

Available for the diagonal covariance kinds.  The selection loop
alternates between an ECM fit at the current lambdas and, with the
resulting posterior weights frozen, a per-state grid search of the
leave-one-replicate-out score

    CV_j(lam) = sum_k (y_k - fhat_j^(-k))' W_kj (y_k - fhat_j^(-k)).

Each fhat^(-k) is the literal refit without replicate k, assembled cheaply:
its normal equations are the full K x K system with replicate k's terms
subtracted, M - B' W_k B and rhs - B' W_k y_k, and all N of them are solved
at once by one batched symmetric eigendecomposition.  A left-out system
that is rank-deficient (eigenvalues at or below K * eps times the largest)
gets its minimum-norm solution, as a least-squares refit would.
"""

from dataclasses import dataclass, field

import numpy as np

from . import em as em_mod

DEFAULT_GRID = np.logspace(-6.0, 2.0, 25)
DEFAULT_LAMBDA0 = 1e-2


@dataclass
class CVConfig:
    """Grid and outer-loop settings for select_lambdas."""

    grid: np.ndarray = field(default_factory=lambda: DEFAULT_GRID.copy())
    lambda0: float = DEFAULT_LAMBDA0
    outer_max_iter: int = 20
    outer_tol: float = 1e-3

    def __post_init__(self):
        self.grid = np.sort(np.asarray(self.grid, dtype=float).ravel())
        if self.grid.size < 1 or np.any(self.grid < 0):
            raise ValueError("grid must hold non-negative values")


def cv_score(B, R, lam, y, weights):
    """One state's CV score at one lambda, with frozen weights.

    Parameters
    ----------
    B, R : basis and curvature penalty matrices.
    lam : smoothing parameter.
    y : (N, n) responses.
    weights : (N, n) nonnegative frozen weights W_kj (posterior mass over
        noise variance).  Zero-weight points contribute nothing.

    Returns
    -------
    (score, n_fallback) where n_fallback counts replicates whose left-out
    system is rank-deficient and so is scored by its minimum-norm fit.
    """
    M, rhs = em_mod.diagonal_normal_system(B, R, lam, weights, y)
    M_loo = M - (B.T[None] * weights[:, None, :]) @ B     # (N, K, K)
    rhs_loo = rhs - (weights * y) @ B                     # (N, K)
    ev, V = np.linalg.eigh(M_loo)
    cut = B.shape[1] * np.finfo(float).eps * np.abs(ev).max(
        axis=1, keepdims=True)
    full = np.abs(ev) > cut
    inv_ev = np.divide(1.0, ev, out=np.zeros_like(ev), where=full)
    coef = inv_ev * np.einsum("kab,ka->kb", V, rhs_loo)
    r = y - np.einsum("kab,kb->ka", V, coef) @ B.T
    return float(np.sum(weights * r * r)), int(np.sum(~full.all(axis=1)))


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
        sigma2 = np.broadcast_to(
            np.atleast_1d(np.asarray(fit.theta.cov.sigma2, dtype=float)),
            (J,))
        weights = fit.posteriors / sigma2
        scores = np.empty((J, grid.size))
        for j in range(J):
            for g, lam in enumerate(grid):
                scores[j, g], nf = cv_score(
                    B, R, lam, dataset.y, weights[:, :, j])
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
