"""Leave-one-replicate-out scores: downdated systems vs literal refits.

The literal oracle below deletes a replicate, reassembles the weighted
penalized normal equations from scratch, and sums the weighted squared
left-out residuals.  The package path subtracts each replicate's terms
from the full normal equations and scores a whole lambda grid from one
simultaneous diagonalization per left-out system, or per lambda for
systems that are rank-deficient somewhere on the grid.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from switchcurve import cv as cv_mod
from switchcurve import em
from switchcurve.basis import (basis_matrix, build_basis, penalty_matrix,
                               spline_setup)
from switchcurve.cv import DEFAULT_GRID, CVConfig, cv_score, select_lambdas
from switchcurve.datamodel import (CovSpec, LatentSpec, MultiCurveDataset,
                                   theta_to_dict)
from switchcurve.errors import SpecMismatch
from switchcurve.sim import SimDesign, generate_dataset


def design(n, K):
    x = np.linspace(0.0, 1.0, n)
    basis = build_basis(x, K)
    return x, basis_matrix(basis, x), penalty_matrix(basis)


def literal_cv_score(B, R, lam, y, weights):
    """Refit N times with one replicate deleted each time."""
    N, n = y.shape
    K = B.shape[1]
    score = 0.0
    for k in range(N):
        M = 2.0 * lam * R.copy()
        rhs = np.zeros(K)
        for kk in range(N):
            if kk == k:
                continue
            M += B.T @ np.diag(weights[kk]) @ B
            rhs += B.T @ (weights[kk] * y[kk])
        f_loo = B @ np.linalg.solve(M, rhs)
        r = y[k] - f_loo
        score += float(np.sum(weights[k] * r * r))
    return score


def test_shortcut_matches_literal_refits():
    rng = np.random.default_rng(0)
    for trial in range(8):
        N = int(rng.integers(3, 9))
        n = int(rng.integers(6, 11))
        K = int(rng.integers(4, min(n, 8) + 1))
        _, B, R = design(n, K)
        y = rng.standard_normal((N, n)) * 2.0
        weights = rng.uniform(0.2, 3.0, (N, n))
        for lam in (0.0, 1e-4, 1e-1, 10.0):
            got, n_fallback = cv_score(B, R, lam, y, weights)
            want = literal_cv_score(B, R, lam, y, weights)
            assert n_fallback == 0
            assert got == pytest.approx(want, rel=1e-8)


def test_single_replicate_score_is_its_weighted_norm():
    """With N = 1 the deleted fit has no data: the left-out system is the
    bare penalty, rank-deficient along straight lines, so it counts in
    n_fallback; its right-hand side is zero, so the minimum-norm refit is
    zero and the score collapses to y' W y."""
    rng = np.random.default_rng(1)
    n = 8
    _, B, R = design(n, 6)
    y = rng.standard_normal((1, n))
    w = rng.uniform(0.5, 2.0, (1, n))
    score, n_fallback = cv_score(B, R, 0.05, y, w)
    assert n_fallback == 1
    assert score == pytest.approx(float(np.sum(w * y * y)), rel=1e-10)


def test_near_singular_replicate_falls_back_to_literal():
    # the other replicate carries weight at a single point, so the fit
    # without replicate 0 cannot pin the linear component: its left-out
    # system is rank-deficient and is scored by the minimum-norm fit
    rng = np.random.default_rng(2)
    n = 6
    _, B, R = design(n, n)
    y = rng.standard_normal((2, n))
    weights = np.zeros((2, n))
    weights[0] = 1.0
    weights[1, 2] = 1.0
    score, n_fallback = cv_score(B, R, 0.05, y, weights)
    assert n_fallback == 1
    assert np.isfinite(score) and score >= 0.0
    again, nf2 = cv_score(B, R, 0.05, y, weights)
    assert (again, nf2) == (score, n_fallback)


def test_zero_weight_replicate_contributes_nothing():
    rng = np.random.default_rng(3)
    n, N = 8, 4
    _, B, R = design(n, 5)
    y = rng.standard_normal((N, n))
    weights = rng.uniform(0.5, 2.0, (N, n))
    weights[2] = 0.0
    full, nf_full = cv_score(B, R, 0.1, y, weights)
    keep = np.arange(N) != 2
    reduced, nf_red = cv_score(B, R, 0.1, y[keep], weights[keep])
    assert full == pytest.approx(reduced, rel=1e-12)
    assert nf_full == nf_red == 0


GRID_WITH_ZERO = np.concatenate([[0.0], np.logspace(-6.0, 2.0, 9)])


def test_grid_scores_match_literal_refits_with_near_zero_weights():
    # posterior-like weights: a state holds most of the mass left of a cut
    # and almost none beyond it, so the left-out systems at lambda = 0 are
    # badly conditioned but full-rank
    rng = np.random.default_rng(5)
    for floor in (1e-4, 1e-8):
        for trial in range(4):
            N = int(rng.integers(4, 10))
            n = int(rng.integers(8, 14))
            K = int(rng.integers(5, min(n, 10) + 1))
            x, B, R = design(n, K)
            y = rng.standard_normal((N, n))
            cut = rng.uniform(0.3, 0.7)
            post = np.where(x < cut, rng.uniform(0.6, 1.0, (N, n)),
                            floor * rng.uniform(0.5, 1.0, (N, n)))
            weights = post / 0.04
            got, n_fallback = cv_score(B, R, GRID_WITH_ZERO, y, weights)
            assert got.shape == GRID_WITH_ZERO.shape
            assert n_fallback == 0
            for lam, score in zip(GRID_WITH_ZERO, got):
                want = literal_cv_score(B, R, lam, y, weights)
                assert score == pytest.approx(want, rel=1e-8)


def test_grid_call_equals_scalar_calls_with_mixed_routes():
    # replicate 0 alone covers every point; the other two carry weight at
    # four points between them.  Without replicate 0 the system is singular
    # at lambda = 0 (rank 4 < K) but full-rank once the penalty pins the
    # curvature, so that replicate is solved per lambda and counts once.
    rng = np.random.default_rng(6)
    n, K = 8, 6
    _, B, R = design(n, K)
    y = rng.standard_normal((3, n))
    weights = np.zeros((3, n))
    weights[0] = rng.uniform(0.5, 2.0, n)
    weights[1, [1, 5]] = 1.0
    weights[2, [2, 6]] = 1.5
    grid = np.array([0.0, 1e-3, 0.1, 10.0])
    got, n_fallback = cv_score(B, R, grid, y, weights)
    scalar = [cv_score(B, R, lam, y, weights) for lam in grid]
    assert n_fallback == sum(nf for _, nf in scalar) == 1
    np.testing.assert_allclose(got, [s for s, _ in scalar], rtol=1e-10)
    for lam, score in zip(grid[1:], got[1:]):
        assert score == pytest.approx(
            literal_cv_score(B, R, lam, y, weights), rel=1e-8)

    # with every left-out system full-rank the grid route alone runs
    weights[1] = rng.uniform(0.5, 2.0, n)
    got, n_fallback = cv_score(B, R, grid, y, weights)
    scalar = [cv_score(B, R, lam, y, weights) for lam in grid]
    assert n_fallback == 0 and all(nf == 0 for _, nf in scalar)
    np.testing.assert_allclose(got, [s for s, _ in scalar], rtol=1e-10)

    # a state with almost no posterior mass: its left-out systems are
    # full-rank at the bottom of the default grid but rank-deficient along
    # straight lines at the top, where the penalty swamps the data
    weights = 1e-12 * rng.uniform(0.5, 2.0, (3, n))
    got, n_fallback = cv_score(B, R, DEFAULT_GRID, y, weights)
    scalar = [cv_score(B, R, lam, y, weights) for lam in DEFAULT_GRID]
    assert scalar[0][1] == 0
    assert n_fallback == sum(nf for _, nf in scalar) > 0
    np.testing.assert_allclose(got, [s for s, _ in scalar], rtol=1e-10)


def test_select_lambdas_finds_an_interior_minimum():
    rng = np.random.default_rng(0)
    n, N = 12, 6
    x = np.linspace(0.0, 1.0, n)
    y = np.sin(2.0 * np.pi * x)[None, :] \
        + 0.3 * rng.standard_normal((N, n))
    data = MultiCurveDataset(x=x, y=y)
    grid = np.logspace(-6.0, 2.0, 9)
    res = select_lambdas(data, LatentSpec(kind="iid", J=1),
                         CovSpec(kind="iso_diag"),
                         config=CVConfig(grid=grid))
    assert res.converged
    pick = int(np.argmin(res.scores[0]))
    assert 0 < pick < grid.size - 1
    assert res.lambdas[0] == grid[pick]
    np.testing.assert_array_equal(res.fit.theta.lambdas, res.lambdas)

    again = select_lambdas(data, LatentSpec(kind="iid", J=1),
                           CovSpec(kind="iso_diag"),
                           config=CVConfig(grid=grid))
    np.testing.assert_array_equal(again.lambdas, res.lambdas)
    np.testing.assert_array_equal(again.scores, res.scores)


def test_select_lambdas_two_states():
    rng = np.random.default_rng(1)
    n, N = 10, 6
    x = np.linspace(0.0, 1.0, n)
    base = np.sin(2.0 * np.pi * x)
    F = np.stack([base, base + 1.5])
    z = rng.integers(0, 2, (N, n))
    y = F[z, np.arange(n)] + 0.25 * rng.standard_normal((N, n))
    data = MultiCurveDataset(x=x, y=y)
    grid = np.logspace(-6.0, 1.0, 7)
    res = select_lambdas(data, LatentSpec(kind="iid", J=2),
                        CovSpec(kind="state_diag"),
                        config=CVConfig(grid=grid))
    assert res.converged
    assert res.lambdas.shape == (2,)
    assert all(lam in grid for lam in res.lambdas)
    for j in range(2):
        assert 0 < int(np.argmin(res.scores[j])) < grid.size - 1
    np.testing.assert_array_equal(res.fit.theta.lambdas, res.lambdas)


def test_select_lambdas_is_the_same_from_a_cold_or_warm_spline_setup():
    design = SimDesign(kind="markov", N=40, x=np.linspace(0.0, 1.0, 12),
                       sigma2=1e-4, tau2=0.0)
    data, _ = generate_dataset(design, 5)

    def select():
        return select_lambdas(data, LatentSpec(kind="markov", J=2),
                              CovSpec(kind="state_diag"),
                              config=CVConfig(grid=np.logspace(-6, 0, 9)))

    spline_setup.cache_clear()
    want = select()
    got = select()
    for name in ("lambdas", "scores", "n_outer", "converged", "n_fallback"):
        np.testing.assert_array_equal(getattr(got, name),
                                      getattr(want, name), strict=True)
    fit, ref = got.fit, want.fit
    assert theta_to_dict(fit.theta) == theta_to_dict(ref.theta)
    np.testing.assert_array_equal(fit.posteriors, ref.posteriors,
                                  strict=True)
    np.testing.assert_array_equal(fit.loglik_trace, ref.loglik_trace,
                                  strict=True)
    assert list(fit.std_errors.items()) == list(ref.std_errors.items())


def test_select_lambdas_stops_a_cycle_with_the_capped_result():
    # with the default grid the picks alternate between [20, 21] and
    # [20, 20] on this dataset; the loop stops at the first repeat and
    # returns the member the outer cap would reach
    design = SimDesign(kind="markov", N=100, x=np.linspace(0.0, 1.0, 30),
                       sigma2=1e-4, tau2=0.0)
    data, _ = generate_dataset(design, 3764184123)

    def select(config):
        return select_lambdas(data, LatentSpec(kind="markov", J=2),
                              CovSpec(kind="state_diag"), config=config)

    res = select(CVConfig())
    assert not res.converged
    assert res.n_outer <= 3
    np.testing.assert_array_equal(
        res.lambdas, select(CVConfig(outer_max_iter=2)).lambdas)
    np.testing.assert_array_equal(
        select(CVConfig(outer_max_iter=19)).lambdas,
        select(CVConfig(outer_max_iter=1)).lambdas)


def test_select_lambdas_rejects_structured_covariance():
    data = MultiCurveDataset(x=np.linspace(0, 1, 6),
                             y=np.zeros((2, 6)) + np.linspace(0, 1, 6))
    with pytest.raises(SpecMismatch, match="diagonal"):
        select_lambdas(data, LatentSpec(kind="iid", J=2),
                       CovSpec(kind="homog_ri"))


def test_single_point_grid_is_one_fit(monkeypatch):
    fits = count_fits(monkeypatch)
    rng = np.random.default_rng(4)
    x = np.linspace(0.0, 1.0, 8)
    data = MultiCurveDataset(
        x=x, y=np.sin(x)[None, :] + 0.1 * rng.standard_normal((3, 8)))
    res = select_lambdas(data, LatentSpec(kind="iid", J=1),
                         CovSpec(kind="iso_diag"),
                         config=CVConfig(grid=[0.01]))
    assert res.n_outer == 1 == len(fits)
    assert res.converged
    np.testing.assert_array_equal(res.lambdas, [0.01])
    _, B, R = design(8, None)
    weights = res.fit.posteriors[:, :, 0] / res.fit.theta.cov.sigma2
    assert res.scores[0, 0] == cv_score(B, R, [0.01], data.y, weights)[0][0]


def count_fits(monkeypatch):
    """Record the lambdas of every ECM fit select_lambdas makes."""
    fits = []
    ecm_fit = em.ecm_fit

    def counted(*args, **kwargs):
        fits.append(kwargs["lambdas"])
        return ecm_fit(*args, **kwargs)

    monkeypatch.setattr(em, "ecm_fit", counted)
    return fits


def test_converged_selection_returns_its_last_step_fit(monkeypatch):
    design_ = SimDesign(kind="markov", N=30, x=np.linspace(0.0, 1.0, 20),
                        sigma2=1e-2, tau2=0.0)
    data, _ = generate_dataset(design_, 1)
    specs = LatentSpec(kind="markov", J=2), CovSpec(kind="state_diag")
    fits = count_fits(monkeypatch)
    res = select_lambdas(data, *specs)
    assert res.converged and res.n_outer > 1
    assert len(fits) == res.n_outer
    again = em.ecm_fit(data, *specs, lambdas=res.lambdas)
    assert res.fit.iterations == again.iterations
    assert theta_to_dict(res.fit.theta) == theta_to_dict(again.theta)
    np.testing.assert_array_equal(res.fit.posteriors, again.posteriors)
    assert res.fit.std_errors == again.std_errors
    assert set(res.fit.std_errors) == {"pi1", "a12", "a21"}

    fits.clear()
    capped = select_lambdas(data, *specs, config=CVConfig(outer_max_iter=1))
    assert not capped.converged and capped.n_outer == 1
    assert len(fits) == 2
    np.testing.assert_array_equal(fits[-1], capped.lambdas)
    np.testing.assert_array_equal(capped.fit.theta.lambdas, capped.lambdas)


# Each script maps the picks a step fits at to the picks its scores choose,
# on a 9-point grid whose middle index 4 is the start.
PICK_SCRIPTS = {
    "converges-at-step-3": ({4: 1, 1: 7, 7: 7}, 3),
    "two-cycle-through-start": ({4: 2, 2: 4}, 2),
    "three-cycle-after-transient": ({4: 0, 0: 5, 5: 6, 6: 8, 8: 5}, 5),
}


@pytest.mark.parametrize("name", PICK_SCRIPTS)
def test_stop_rule_matches_the_plain_capped_loop(monkeypatch, name):
    script, stop_step = PICK_SCRIPTS[name]
    grid = np.logspace(-4.0, 4.0, 9)
    fitted = []

    def fake_fit(dataset, latent_spec, cov_spec, lambdas, **kwargs):
        fitted.append(int(np.searchsorted(grid, lambdas[0])))
        return SimpleNamespace(posteriors=np.ones(dataset.y.shape + (1,)),
                               theta=SimpleNamespace(
                                   cov=SimpleNamespace(sigma2=1.0)))

    def scores_at(pick):
        # argmin at the scripted pick; the offset tells steps apart
        return np.abs(np.arange(grid.size) - script[pick]) + 0.01 * pick

    monkeypatch.setattr(em, "ecm_fit", fake_fit)
    monkeypatch.setattr(cv_mod, "cv_score",
                        lambda B, R, lam, y, w: (scores_at(fitted[-1]), 0))
    x = np.linspace(0.0, 1.0, 6)
    data = MultiCurveDataset(x=x, y=np.zeros((2, 6)) + x)
    for cap in range(1, 9):
        picks = 4                   # the plain loop, with no detection
        for _ in range(cap):
            scores, new = scores_at(picks), script[picks]
            converged = new == picks
            picks = new
            if converged:
                break
        fitted.clear()
        res = select_lambdas(data, LatentSpec(kind="iid", J=1),
                             CovSpec(kind="iso_diag"),
                             config=CVConfig(grid=grid, outer_max_iter=cap))
        assert res.lambdas[0] == grid[picks]
        np.testing.assert_array_equal(res.scores, [scores])
        assert res.converged == converged
        assert res.n_outer == min(cap, stop_step)
        assert len(fitted) == res.n_outer + (not converged)


def test_cv_config_validation():
    cfg = CVConfig(grid=[1.0, 0.01, 0.1])
    np.testing.assert_array_equal(cfg.grid, [0.01, 0.1, 1.0])
    with pytest.raises(SpecMismatch):
        CVConfig(grid=[-1.0, 1.0])
    with pytest.raises(SpecMismatch):
        CVConfig(grid=[])
