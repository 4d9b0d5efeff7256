"""Simulation designs, label alignment, and the study harness."""

import json
import os

import numpy as np
import pytest
from scipy.special import ndtri

from switchcurve import basis as basis_mod
from switchcurve import sim
from switchcurve.basis import basis_matrix, build_basis, spline_setup
from switchcurve.datamodel import (CovariateParams, CovSpec, FitReport,
                                   HomogRIParams, IIDParams, IsoDiagParams,
                                   LatentSpec, MarkovParams,
                                   MultiCurveDataset, StateDiagParams, Theta,
                                   theta_from_dict, theta_to_dict)
from switchcurve.em import ecm_fit
from switchcurve.inference import free_coordinates
from switchcurve.latent import log_state_probs
from switchcurve.sim import (_COVERAGE_Z, SimDesign, align_to_truth,
                             default_true_functions, fit_design,
                             generate_dataset, permute_theta,
                             run_replication, run_study, stock_design,
                             truth_start)


def test_true_curves_frozen_values():
    x = np.linspace(0.0, 1.0, 5)
    F = default_true_functions(x)
    assert F.shape == (2, 5)
    np.testing.assert_allclose(F[1] - F[0], 0.1, atol=1e-15)
    np.testing.assert_allclose(F[1], [0.05, 0.09, 0.05, 0.01, 0.05],
                               atol=1e-15)
    # location of the grid does not matter, only its normalized position
    shifted = default_true_functions(np.linspace(40.0, 80.0, 5))
    np.testing.assert_allclose(shifted, F, atol=1e-15)


def test_stock_designs_hold_their_parameter_values():
    d1 = stock_design(1)
    assert (d1.kind, d1.N) == ("iid", 100)
    np.testing.assert_array_equal(d1.x, np.linspace(1.0, 100.0, 10))
    assert (d1.p1, d1.sigma2, d1.tau2) == (0.5, 1e-5, 1e-4)
    assert d1.lambdas == (1e-4, 1e-4)
    assert d1.cov_spec.kind == "homog_ri"
    assert d1.latent_spec.J == 2

    d2 = stock_design(2)
    assert (d2.kind, d2.a12, d2.a21, d2.pi1) == ("markov", 0.3, 0.4, 0.5)
    assert d2.cov_spec.kind == "homog_ri"

    d3 = stock_design(3)
    assert (d3.kind, d3.beta0, d3.beta1) == ("covariate", 2.0, 5.0)
    assert (d3.sigma2, d3.tau2) == (5e-5, 0.0)
    assert d3.cov_spec.kind == "iso_diag"

    # stock_design hands out copies
    d1.x[0] = -99.0
    assert stock_design(1).x[0] == 1.0

    with pytest.raises(ValueError, match="kind"):
        SimDesign(kind="bogus")


def test_generate_dataset_is_seed_deterministic():
    d = stock_design(1)
    a, za = generate_dataset(d, seed=[0, 3])
    b, zb = generate_dataset(d, seed=[0, 3])
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(za, zb)
    c, _ = generate_dataset(d, seed=[0, 4])
    assert not np.array_equal(a.y, c.y)


def test_generated_moments_match_the_designs():
    n = 10
    data, z = generate_dataset(stock_design(1), seed=[0, 0])
    assert 0.42 < z.mean() < 0.58
    resid = data.y - default_true_functions(data.x)[z, np.arange(n)]
    assert 0.8e-4 < resid.var() < 1.4e-4          # sigma2 + tau2 = 1.1e-4

    _, z2 = generate_dataset(stock_design(2), seed=[0, 0])
    from0 = z2[:, :-1] == 0
    from1 = z2[:, :-1] == 1
    assert abs(np.mean(z2[:, 1:][from0] == 1) - 0.3) < 0.05
    assert abs(np.mean(z2[:, 1:][from1] == 0) - 0.4) < 0.05
    assert abs(np.mean(z2[:, 0] == 0) - 0.5) < 0.15

    data3, z3 = generate_dataset(stock_design(3), seed=[0, 0])
    v = data3.covariates[:, :, 0]
    assert np.corrcoef(v.ravel(), z3.ravel())[0, 1] > 0.5


def test_truth_start_reproduces_the_true_curves():
    d = stock_design(1)
    data, _ = generate_dataset(d, seed=[0, 0])
    init = truth_start(d, data)
    assert init["lambdas"] == [1e-4, 1e-4]
    # tau2 = d * sigma2 is derived, written as in fit.json and unread
    assert init["cov"] == {"sigma2": 1e-5, "d": pytest.approx(10.0),
                           "tau2": pytest.approx(1e-4)}
    basis = build_basis(data.x, min(data.n_points, 15))
    B = basis_matrix(basis, data.x)
    F0 = np.asarray(init["phi"]) @ B.T
    np.testing.assert_allclose(F0, default_true_functions(data.x),
                               atol=1e-10)


def test_a_supplied_init_takes_the_fits_lambdas():
    """The init's own lambdas, missing or different, change nothing: the
    fit's lambdas set the smoothing parameters."""
    d = stock_design(1)
    data, _ = generate_dataset(d, seed=[0, 0])
    want = theta_to_dict(fit_design(d, data).theta)
    for init_lambdas in (None, [5.0, 7.0]):
        init = truth_start(d, data)
        if init_lambdas is None:
            del init["lambdas"]
        else:
            init["lambdas"] = init_lambdas
        report = ecm_fit(data, d.latent_spec, d.cov_spec,
                         lambdas=np.asarray(d.lambdas), K=d.K, init=init)
        assert theta_to_dict(report.theta) == want


def test_single_replication_lands_near_truth():
    out = run_replication(stock_design(1), 0, 0)
    assert out["converged"]
    assert abs(out["params"]["p1"] - 0.5) < 0.1
    assert 0.3e-5 < out["params"]["sigma2"] < 3e-5
    assert np.isfinite(out["se"]["p1"])


def fake_report(theta, curves):
    J, n = curves.shape
    return FitReport(
        theta=theta, knots=np.zeros(8), x=np.linspace(1.0, 100.0, n),
        curves=curves, posteriors=np.full((1, n, J), 1.0 / J),
        loglik_trace=np.array([0.0]), iterations=1, converged=True,
        std_errors=None, warnings=[])


def test_alignment_undoes_a_label_swap():
    x = np.linspace(1.0, 100.0, 10)
    F = default_true_functions(x)

    theta = Theta(phi=np.zeros((2, 4)), latent=IIDParams(p=[0.3, 0.7]),
                  cov=HomogRIParams(sigma2=2e-5, d=5.0),
                  lambdas=np.array([1e-4, 1e-4]))
    report = fake_report(theta, F[::-1].copy())
    perm = align_to_truth(report, F)
    assert perm == (1, 0)
    np.testing.assert_allclose(report.curves[list(perm)], F, atol=1e-15)
    aligned = permute_theta(theta, perm)
    assert free_coordinates(aligned.latent) == {"p1": 0.7}
    assert aligned.cov.tau2 == pytest.approx(1e-4)

    theta_m = Theta(phi=np.zeros((2, 4)),
                    latent=MarkovParams(pi=[0.6, 0.4],
                                        A=[[0.9, 0.1], [0.2, 0.8]]),
                    cov=HomogRIParams(sigma2=1e-5, d=10.0),
                    lambdas=np.array([1e-4, 1e-4]))
    perm = align_to_truth(fake_report(theta_m, F[::-1].copy()), F)
    assert perm == (1, 0)
    params = free_coordinates(permute_theta(theta_m, perm).latent)
    assert params["pi1"] == 0.4
    assert params["a12"] == 0.2 and params["a21"] == pytest.approx(0.1)

    theta_c = Theta(phi=np.zeros((2, 4)),
                    latent=CovariateParams(beta=[[-2.0, -5.0]]),
                    cov=IsoDiagParams(sigma2=5e-5),
                    lambdas=np.array([1e-4, 1e-4]))
    perm = align_to_truth(fake_report(theta_c, F[::-1].copy()), F)
    assert perm == (1, 0)
    assert free_coordinates(permute_theta(theta_c, perm).latent) == {
        "beta0": 2.0, "beta1": 5.0}

    # already aligned reports pass through untouched
    perm = align_to_truth(fake_report(theta, F.copy()), F)
    assert perm == (0, 1)
    assert free_coordinates(permute_theta(theta, perm).latent) == {"p1": 0.3}


@pytest.mark.parametrize("number", [1, 2, 3])
def test_a_fit_in_swapped_labels_is_restarted_in_the_truths(monkeypatch,
                                                            number):
    """Started from the truth with its labels swapped, the fit is aligned
    back, restarted from its relabelled theta, and scores as the fit in
    the truth's labels does."""
    d = stock_design(number)
    want = run_replication(d, 0, 0)

    def swapped_start(design, dataset):
        truth = theta_from_dict(truth_start(design, dataset),
                                design.latent_spec, design.cov_spec)
        return theta_to_dict(permute_theta(truth, (1, 0)))

    monkeypatch.setattr(sim, "truth_start", swapped_start)
    data, _ = generate_dataset(d, seed=[0, 0])
    assert align_to_truth(fit_design(d, data),
                          default_true_functions(data.x)) == (1, 0)
    got = run_replication(d, 0, 0)
    assert got["converged"]
    for key in ("params", "se"):
        assert list(got[key]) == list(want[key])
        for name, value in want[key].items():
            assert got[key][name] == pytest.approx(value, rel=1e-10,
                                                   abs=0), name
    np.testing.assert_allclose(got["sqerr"], want["sqerr"], rtol=1e-10)


def test_three_state_relabelling_is_undone_exactly():
    x = np.linspace(0.0, 1.0, 12)
    F = np.vstack([0.3 * np.sin(2 * np.pi * x), 0.6 + 0.2 * x,
                   1.2 - 0.3 * x])
    theta = Theta(phi=np.arange(12.0).reshape(3, 4),
                  latent=MarkovParams(pi=[0.3, 0.3, 0.4],
                                      A=[[0.8, 0.1, 0.1], [0.15, 0.7, 0.15],
                                         [0.1, 0.2, 0.7]]),
                  cov=StateDiagParams(sigma2=[1e-2, 2e-2, 3e-2]),
                  lambdas=np.array([1e-4, 2e-4, 3e-4]))
    shuffled = permute_theta(theta, (2, 0, 1))
    assert free_coordinates(shuffled.latent)["pi1"] == 0.4
    perm = align_to_truth(fake_report(shuffled, F[[2, 0, 1]]), F)
    assert perm == (1, 2, 0)
    back = permute_theta(shuffled, perm)
    assert theta_to_dict(back) == theta_to_dict(theta)
    assert free_coordinates(back.latent) == free_coordinates(theta.latent)

    # beta is re-referenced to the new state 1: the state probabilities
    # are those of the old states, reordered
    beta = np.array([[0.5, -1.0], [-0.3, 2.0]])
    v = np.linspace(-2.0, 2.0, 7)[:, None]
    relabelled = permute_theta(
        Theta(phi=np.zeros((3, 4)), latent=CovariateParams(beta=beta),
              cov=IsoDiagParams(sigma2=1.0), lambdas=np.ones(3)), (2, 0, 1))
    np.testing.assert_allclose(
        log_state_probs(relabelled.latent.beta, v),
        log_state_probs(beta, v)[:, [2, 0, 1]], rtol=0, atol=1e-14)


def test_three_state_chain_standard_errors_cover_the_truth():
    """Markov x iso_diag at J = 3, each fit from the truth, named by
    free_coordinates and aligned: the 95% intervals of all 8 coordinates
    cover the truth at about their nominal rate."""
    N, n = 100, 12
    x = np.linspace(0.0, 1.0, n)
    F = np.vstack([0.3 * np.sin(2 * np.pi * x), 0.6 + 0.2 * x,
                   1.2 - 0.3 * x])
    pi = np.array([0.3, 0.3, 0.4])
    A = np.array([[0.8, 0.1, 0.1], [0.15, 0.7, 0.15], [0.1, 0.2, 0.7]])
    latent_spec = LatentSpec(kind="markov", J=3)
    cov_spec = CovSpec(kind="iso_diag")
    B = basis_matrix(build_basis(x), x)
    init = theta_to_dict(Theta(
        phi=np.linalg.lstsq(B, F.T, rcond=None)[0].T,
        latent=MarkovParams(pi=pi, A=A), cov=IsoDiagParams(sigma2=0.01),
        lambdas=np.full(3, 1e-4)))
    truth = free_coordinates(MarkovParams(pi=pi, A=A))
    hits = {name: [] for name in truth}
    for rep in range(200):
        rng = np.random.default_rng([11, rep])
        z = np.empty((N, n), dtype=int)
        z[:, 0] = (rng.random((N, 1)) > np.cumsum(pi)[:-1]).sum(axis=1)
        for i in range(1, n):
            cum = np.cumsum(A[z[:, i - 1]], axis=1)[:, :-1]
            z[:, i] = (rng.random((N, 1)) > cum).sum(axis=1)
        y = F[z, np.arange(n)] + 0.1 * rng.standard_normal((N, n))
        data = MultiCurveDataset(x=x, y=y)
        report = ecm_fit(data, latent_spec, cov_spec, lambdas=1e-4,
                         init=init)
        perm = align_to_truth(report, F)
        if perm != (0, 1, 2):
            report = ecm_fit(
                data, latent_spec, cov_spec, lambdas=1e-4, max_iter=0,
                init=theta_to_dict(permute_theta(report.theta, perm)))
        se = report.std_errors
        for name, value in free_coordinates(report.theta.latent).items():
            hits[name].append(
                abs(value - truth[name]) <= _COVERAGE_Z[0.95] * se[name])
    coverage = {name: np.mean(h) for name, h in hits.items()}
    assert 0.93 <= np.mean(list(coverage.values())) <= 0.975, coverage
    assert min(coverage.values()) >= 0.90, coverage


def test_replications_are_independent_of_history():
    d = stock_design(1)
    first = run_replication(d, 0, 3)
    again = run_replication(d, 0, 3)
    assert first["params"] == again["params"]
    np.testing.assert_array_equal(first["sqerr"], again["sqerr"])
    other = run_replication(d, 0, 4)
    assert first["params"] != other["params"]


@pytest.mark.parametrize("number", [1, 2, 3])
def test_replications_are_the_same_from_a_cold_or_warm_spline_setup(number):
    d = stock_design(number)

    def cold(rep):
        spline_setup.cache_clear()
        sim.truth_coefficients.cache_clear()
        return run_replication(d, 0, rep)

    for rep in range(3):
        want, got = cold(rep), run_replication(d, 0, rep)
        for key in ("params", "se"):
            assert list(got[key]) == list(want[key])
            np.testing.assert_array_equal(
                list(got[key].values()), list(want[key].values()),
                strict=True)
        np.testing.assert_array_equal(got["sqerr"], want["sqerr"],
                                      strict=True)
        assert got["converged"] == want["converged"]


def test_truth_start_and_fits_on_one_grid_build_its_basis_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_basis(*args, **kwargs)

    monkeypatch.setattr(basis_mod, "build_basis", counting)
    spline_setup.cache_clear()
    d = stock_design(2)
    data, _ = generate_dataset(d, seed=[0, 0])
    fit_design(d, data)                 # one truth start, one ecm_fit
    ecm_fit(data, d.latent_spec, d.cov_spec, lambdas=np.asarray(d.lambdas),
            K=d.K)
    assert len(calls) == 1


def test_small_study_aggregates_and_serializes():
    study = run_study(stock_design(1), n_reps=8, seed=0)
    entry = study.params["p1"]
    assert set(entry) == {"truth", "mean", "sd", "mean_se", "coverage90",
                          "coverage95"}
    assert entry["truth"] == 0.5
    assert 0.4 < entry["mean"] < 0.6
    assert entry["sd"] > 0 and entry["mean_se"] > 0
    assert 0.0 <= entry["coverage95"] <= 1.0
    assert set(study.variance) == {"sigma2", "tau2"}
    assert study.emse.shape == (2, 10)
    assert np.all(study.emse >= 0) and np.all(np.isfinite(study.emse))
    assert study.estimates["p1"].shape == (8,)

    doc = study.to_dict()
    json.dumps(doc)
    assert "estimates" not in doc and "ses" not in doc
    assert doc["design"] == "iid" and doc["n_reps"] == 8


def test_coverage_z_values_are_normal_quantiles():
    assert _COVERAGE_Z == {lev: float(ndtri(0.5 + lev / 2.0))
                           for lev in (0.90, 0.95)}


def test_threaded_study_matches_serial_exactly():
    d = stock_design(1)
    serial = run_study(d, n_reps=4, seed=0, threads=1)
    environ = dict(os.environ)
    pooled = run_study(d, n_reps=4, seed=0, threads=2)
    assert dict(os.environ) == environ
    assert serial.params == pooled.params
    assert serial.variance == pooled.variance
    np.testing.assert_array_equal(serial.emse, pooled.emse)
