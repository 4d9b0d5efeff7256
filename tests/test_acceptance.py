"""Acceptance suite: eleven shipped claims, one test and one verdict each.

Every test gathers its sub-checks into a failure list, prints a single
PASS/FAIL line (visible with ``pytest -v -s`` or on failure), and then
asserts.  Bands for the replication studies are deliberately wide enough
to absorb Monte-Carlo noise at 300 replications but tight enough to
catch a broken estimator or a wrong standard error.
"""

import dataclasses
import functools
import itertools

import numpy as np
import pytest

from switchcurve import datamodel as dm
from switchcurve import sim
from switchcurve.basis import (SplineBasis, basis_matrix, build_basis,
                               penalty_matrix)
from switchcurve.cv import cv_score
from switchcurve.datamodel import (CovSpec, CovariateParams, IIDParams,
                                   IsoDiagParams, LatentSpec, MarkovParams,
                                   MultiCurveDataset, Theta)
from switchcurve.em import ecm_fit
from switchcurve.inference import (louis_information_generic,
                                   louis_information_iid_closed,
                                   louis_information_markov_closed)
from switchcurve.latent import (enumerate_states, forward_backward,
                                log_prior_table, log_state_probs,
                                marginal_posterior_pointwise,
                                marginals_from_joint, update_alpha)

from oracles import (enumerated_e_step, joint_posterior_scattered,
                     pairwise_einsum)

LATENT_KINDS = ["iid", "markov", "covariate"]
COV_KINDS = ["iso_diag", "state_diag", "unrestricted", "homog_ri",
             "nonhomog_ri"]


def verdict(number, label, failures):
    status = "FAIL" if failures else "PASS"
    line = f"acceptance {number:2d} [{status}] {label}"
    if failures:
        line += " :: " + "; ".join(failures)
    print(line)
    assert not failures, line


# ---------------------------------------------------------------------------
# replication studies shared by checks 5 through 9
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def study1():
    return sim.run_study(sim.stock_design(1), n_reps=300, seed=0)


@pytest.fixture(scope="module")
def study2():
    return sim.run_study(sim.stock_design(2), n_reps=300, seed=0)


@pytest.fixture(scope="module")
def study3():
    return sim.run_study(sim.stock_design(3), n_reps=300, seed=0)


def check_band(failures, label, value, lo, hi):
    if not lo <= value <= hi:
        failures.append(f"{label}={value:.6g} outside [{lo:g}, {hi:g}]")


def check_estimate(failures, name, entry, mean_lo, mean_hi, sd_lo=None,
                   sd_hi=None, se_within=None):
    check_band(failures, f"mean({name})", entry["mean"], mean_lo, mean_hi)
    if sd_lo is not None:
        check_band(failures, f"sd({name})", entry["sd"], sd_lo, sd_hi)
    if se_within is not None:
        gap = abs(entry["mean_se"] - entry["sd"])
        if gap > se_within * entry["sd"]:
            failures.append(
                f"mean_se({name})={entry['mean_se']:.4g} deviates from "
                f"sd={entry['sd']:.4g} by more than {se_within:.0%}")
    check_band(failures, f"coverage90({name})", entry["coverage90"],
               0.86, 0.94)
    check_band(failures, f"coverage95({name})", entry["coverage95"],
               0.92, 0.98)


# ---------------------------------------------------------------------------
# 1. monotone ascent for every latent x covariance pair
# ---------------------------------------------------------------------------

def test_01_monotone_ascent_for_every_model_pair():
    rng = np.random.default_rng(11)
    n, N, J = 8, 40, 2
    x = np.linspace(0.0, 1.0, n)
    f_true = np.vstack([0.2 + 0.3 * np.sin(2 * np.pi * x),
                        0.5 + 0.3 * np.sin(2 * np.pi * x)])
    V_true = 0.004 * np.exp(-np.abs(x[:, None] - x[None, :]) / 0.3) \
        + 0.003 * np.eye(n)
    L = np.linalg.cholesky(V_true)
    z = rng.integers(0, J, size=(N, n))
    y = f_true[z, np.arange(n)] + (L @ rng.standard_normal((n, N))).T
    v = rng.standard_normal((N, n, 1))
    data = MultiCurveDataset(x=x, y=y, covariates=v)

    failures = []
    for lat, cov in itertools.product(LATENT_KINDS, COV_KINDS):
        report = ecm_fit(data, LatentSpec(kind=lat, J=J), CovSpec(kind=cov),
                         lambdas=1e-3, K=5, max_iter=80)
        trace = np.asarray(report.loglik_trace)
        diffs = np.diff(trace)
        floor = -1e-8 * np.maximum(1.0, np.abs(trace[:-1]))
        if np.any(diffs < floor):
            failures.append(f"{lat}/{cov} drops by {-diffs.min():.3e}")
        if not report.converged and report.iterations < 50:
            failures.append(f"{lat}/{cov} stopped at {report.iterations}")
    verdict(1, "penalized objective never decreases (15 model pairs)",
            failures)


# ---------------------------------------------------------------------------
# 2. leave-one-curve-out shortcut equals literal refitting
# ---------------------------------------------------------------------------

def literal_cv(B, R, lam, y, weights):
    total = 0.0
    for k in range(y.shape[0]):
        A = 2.0 * lam * R
        b = np.zeros(B.shape[1])
        for kk in range(y.shape[0]):
            if kk == k:
                continue
            A = A + B.T @ np.diag(weights[kk]) @ B
            b = b + B.T @ (weights[kk] * y[kk])
        phi = np.linalg.solve(A, b)
        r = y[k] - B @ phi
        total += float(r @ (weights[k] * r))
    return total


def test_02_cv_shortcut_matches_literal_refits():
    rng = np.random.default_rng(7)
    grid = np.logspace(-6.0, 2.0, 10)
    failures = []
    for idx in range(20):
        N = int(rng.integers(2, 9))
        n = int(rng.integers(5, 11))
        x = np.linspace(0.0, 1.0, n)
        basis = build_basis(x, K=5)
        B = basis_matrix(basis, x)
        R = penalty_matrix(basis)
        y = rng.standard_normal((N, n))
        post = rng.uniform(0.05, 0.95, (N, n))
        sigma2 = 0.04
        for j, p in enumerate((post, 1.0 - post)):
            weights = p / sigma2
            for lam in grid:
                fast, n_fallback = cv_score(B, R, float(lam), y, weights)
                slow = literal_cv(B, R, float(lam), y, weights)
                rel = abs(fast - slow) / max(1.0, abs(slow))
                if n_fallback or rel > 1e-8:
                    failures.append(
                        f"instance {idx} state {j + 1} lam={lam:.2e} "
                        f"rel={rel:.2e} fallbacks={n_fallback}")
    verdict(2, "CV shortcut equals literal refits (20 instances, "
            "10-point grid)", failures)


# ---------------------------------------------------------------------------
# 3. posterior routes agree with exact enumeration
# ---------------------------------------------------------------------------

def test_03_posterior_routes_match_enumeration():
    rng = np.random.default_rng(5)
    failures = []
    for J, n in [(2, 4), (2, 6), (3, 5), (3, 6)]:
        pointwise = 3.0 * rng.standard_normal((4, n, J))
        pi = rng.dirichlet(np.ones(J))
        A = rng.dirichlet(np.ones(J), size=J)
        marg_fb, pair_fb, ll_fb = forward_backward(pointwise, pi, A)

        enum = enumerate_states(n, J)
        every = np.arange(enum.size)
        loglik = np.einsum("kij,sij->ks", pointwise, enum.onehot)
        table = log_prior_table(enum, LatentSpec(kind="markov", J=J),
                                MarkovParams(pi=pi, A=A))
        P, ll = joint_posterior_scattered(loglik, table)
        marg = marginals_from_joint(P, enum, every)
        errs = [np.max(np.abs(marg_fb - marg)),
                np.max(np.abs(pair_fb - pairwise_einsum(P, enum))),
                np.max(np.abs(ll_fb - ll) / np.maximum(1.0, np.abs(ll)))]
        if max(errs) > 1e-12:
            failures.append(f"markov J={J} n={n} err={max(errs):.2e}")

    n = 10
    for J in (2, 3):
        pointwise = 3.0 * rng.standard_normal((3, n, J))
        enum = enumerate_states(n, J)
        every = np.arange(enum.size)
        loglik = np.einsum("kij,sij->ks", pointwise, enum.onehot)

        p = rng.dirichlet(np.ones(J))
        marg, _ = marginal_posterior_pointwise(pointwise, np.log(p))
        table = log_prior_table(enum, LatentSpec(kind="iid", J=J),
                                IIDParams(p=p))
        P, _ = joint_posterior_scattered(loglik, table)
        err = np.max(np.abs(marg - marginals_from_joint(P, enum, every)))
        if err > 1e-9:
            failures.append(f"iid J={J} n={n} err={err:.2e}")

        beta = rng.standard_normal((J - 1, 2))
        v = rng.standard_normal((3, n, 1))
        marg, _ = marginal_posterior_pointwise(pointwise,
                                               log_state_probs(beta, v))
        table = log_prior_table(enum, LatentSpec(kind="covariate", J=J),
                                CovariateParams(beta=beta), covariates=v)
        P, _ = joint_posterior_scattered(loglik, table)
        err = np.max(np.abs(marg - marginals_from_joint(P, enum, every)))
        if err > 1e-9:
            failures.append(f"covariate J={J} n={n} err={err:.2e}")
    verdict(3, "forward-backward and pointwise posteriors match "
            "enumeration", failures)


# ---------------------------------------------------------------------------
# 4. Louis information equals a numerical Hessian
# ---------------------------------------------------------------------------

TOY_COV_SPEC = CovSpec(kind="iso_diag")
TOY_COV = IsoDiagParams(sigma2=0.09)

TOY_KINDS = {
    "iid": (
        IIDParams(p=np.array([0.35, 0.65])),
        lambda a: np.array([a.p[0]]),
        lambda vec: IIDParams(p=np.array([vec[0], 1.0 - vec[0]]))),
    "markov": (
        MarkovParams(pi=np.array([0.45, 0.55]),
                     A=np.array([[0.7, 0.3], [0.35, 0.65]])),
        lambda a: np.array([a.pi[0], a.A[0, 1], a.A[1, 0]]),
        lambda vec: MarkovParams(
            pi=np.array([vec[0], 1.0 - vec[0]]),
            A=np.array([[1.0 - vec[1], vec[1]], [vec[2], 1.0 - vec[2]]]))),
    "covariate": (
        CovariateParams(beta=np.array([[0.2, 0.4]])),
        lambda a: a.beta.ravel().copy(),
        lambda vec: CovariateParams(beta=vec.reshape(1, 2))),
}


def toy_theta(alpha):
    return Theta(phi=np.zeros((2, 4)), latent=alpha, cov=TOY_COV,
                 lambdas=np.zeros(2))


def toy_data():
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 1.0, 3)
    f = np.vstack([np.zeros(3), 0.8 * np.ones(3)])
    z = rng.integers(0, 2, size=(3, 3))
    y = f[z, np.arange(3)] + 0.3 * rng.standard_normal((3, 3))
    v = rng.standard_normal((3, 3, 1))
    return MultiCurveDataset(x=x, y=y, covariates=v), f


@functools.lru_cache(maxsize=4)
def toy_fixed_point(kind):
    data, f = toy_data()
    enum = enumerate_states(3, 2)
    lat = LatentSpec(kind=kind, J=2)
    alpha, coords, _ = TOY_KINDS[kind]
    for _ in range(3000):
        step = enumerated_e_step(data, f, toy_theta(alpha), lat,
                                 TOY_COV_SPEC, enum)
        new, _ = update_alpha(lat, alpha, step.marginals, step.transitions,
                              data.covariates)
        delta = np.max(np.abs(coords(new) - coords(alpha)))
        alpha = new
        if delta < 1e-14:
            break
    step = enumerated_e_step(data, f, toy_theta(alpha), lat, TOY_COV_SPEC,
                             enum)
    return data, enum, lat, alpha, step


def fd_hessian(fun, x0, h=1e-5):
    d = x0.size
    H = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            for sa, sb, sign in [(1, 1, 1), (1, -1, -1), (-1, 1, -1),
                                 (-1, -1, 1)]:
                xp = x0.copy()
                xp[a] += sa * h
                xp[b] += sb * h
                H[a, b] += sign * fun(xp)
    return H / (4.0 * h * h)


def test_04_information_matches_numerical_hessian():
    failures = []
    for kind in LATENT_KINDS:
        data, enum, lat, alpha, step = toy_fixed_point(kind)
        _, coords, unpack = TOY_KINDS[kind]
        _, f = toy_data()

        def observed(vec):
            s = enumerated_e_step(data, f, toy_theta(unpack(vec)), lat,
                                  TOY_COV_SPEC, enum)
            return float(s.loglik.sum())

        info_fd = -fd_hessian(observed, coords(alpha))
        info, _ = louis_information_generic(step, lat, alpha,
                                            covariates=data.covariates)
        rel = np.max(np.abs(info - info_fd)) \
            / max(1.0, float(np.max(np.abs(info_fd))))
        if rel > 1e-4:
            failures.append(f"{kind} vs finite differences rel={rel:.2e}")

    data, enum, lat, alpha, step = toy_fixed_point("iid")
    info_gen, _ = louis_information_generic(step, lat, alpha)
    info_cls, _ = louis_information_iid_closed(step.marginals, alpha.p)
    rel = np.max(np.abs(info_cls - info_gen)) \
        / max(1.0, float(np.max(np.abs(info_gen))))
    if rel > 1e-9:
        failures.append(f"iid closed form rel={rel:.2e}")

    data, enum, lat, alpha, step = toy_fixed_point("markov")
    info_gen, _ = louis_information_generic(step, lat, alpha)
    info_cls, _ = louis_information_markov_closed(step.marginals,
                                                  step.pairwise, alpha)
    rel = np.max(np.abs(info_cls - info_gen)) \
        / max(1.0, float(np.max(np.abs(info_gen))))
    if rel > 1e-9:
        failures.append(f"markov closed form rel={rel:.2e}")
    verdict(4, "Louis information matches the numerical Hessian",
            failures)


# ---------------------------------------------------------------------------
# 5-7. replication studies recover the generating parameters
# ---------------------------------------------------------------------------

def test_05_iid_study_recovers_state_probability(study1):
    failures = []
    check_estimate(failures, "p1", study1.params["p1"],
                   0.490, 0.510, sd_lo=0.012, sd_hi=0.020, se_within=0.25)
    verdict(5, "iid study: state probability, SE and coverage", failures)


def test_06_markov_study_recovers_transition_rates(study2):
    failures = []
    check_estimate(failures, "a12", study2.params["a12"],
                   0.290, 0.310, se_within=0.25)
    check_estimate(failures, "a21", study2.params["a21"],
                   0.390, 0.412, se_within=0.25)
    check_estimate(failures, "pi1", study2.params["pi1"],
                   0.48, 0.52, se_within=0.25)
    verdict(6, "markov study: transition rates, SEs and coverage",
            failures)


def test_07_covariate_study_recovers_logistic_slope(study3):
    failures = []
    check_estimate(failures, "beta0", study3.params["beta0"], 1.95, 2.07)
    check_estimate(failures, "beta1", study3.params["beta1"], 4.90, 5.20)
    check_band(failures, "mean(sigma2)", study3.variance["sigma2"]["mean"],
               4.7e-5, 5.0e-5)
    verdict(7, "covariate study: logistic coefficients and noise level",
            failures)


# ---------------------------------------------------------------------------
# 8-9. variance components and curve recovery
# ---------------------------------------------------------------------------

def test_08_variance_components_mildly_underestimated(study1, study2):
    failures = []
    for name, study in [("iid", study1), ("markov", study2)]:
        check_band(failures, f"{name} mean(sigma2)",
                   study.variance["sigma2"]["mean"], 0.95e-5, 1.00e-5)
        check_band(failures, f"{name} mean(tau2)",
                   study.variance["tau2"]["mean"], 0.95e-4, 1.00e-4)
    verdict(8, "random-intercept variances land just under truth",
            failures)


def test_09_curve_errors_small_at_every_grid_point(study1, study2):
    failures = []
    for name, study in [("iid", study1), ("markov", study2)]:
        worst = float(study.emse.max())
        if worst >= 2e-5:
            failures.append(f"{name} max EMSE {worst:.2e}")
    verdict(9, "pointwise EMSE of both curves below 2e-5", failures)


# ---------------------------------------------------------------------------
# 10. usage look-alike: larger on-state variance vs. random intercept
# ---------------------------------------------------------------------------

def usage_lookalike(seed):
    rng = np.random.default_rng(seed)
    n = 8
    x = np.linspace(1.0, 8.0, n)
    days = [(20.0, np.zeros(n, dtype=int)) for _ in range(20)]
    for _ in range(18):
        z = np.zeros(n, dtype=int)
        z[2:6] = 1
        days.append((rng.uniform(38.0, 58.0), z))
    for _ in range(6):
        days.append((rng.uniform(80.0, 100.0), np.ones(n, dtype=int)))
    y = np.empty((len(days), n))
    for k, (level, z) in enumerate(days):
        base = 20.0 + 0.2 * rng.standard_normal()
        sd = np.where(z == 1, 2.0, 1.0)
        y[k] = np.where(z == 1, level, base) + sd * rng.standard_normal(n)
    return MultiCurveDataset(x=x, y=y)


def curve_at(report, xq):
    basis = SplineBasis(knots=report.knots, K=report.theta.phi.shape[1])
    return (basis_matrix(basis, [xq]) @ report.theta.phi.T)[0]


def test_10_usage_lookalike_explained_by_variance_or_intercept():
    data = usage_lookalike(0)
    lat = LatentSpec(kind="iid", J=2)
    rep_sd = ecm_fit(data, lat, CovSpec(kind="state_diag"),
                     lambdas=1e-4)
    rep_ri = ecm_fit(data, lat, CovSpec(kind="nonhomog_ri"),
                     lambdas=1e-4)

    failures = []
    s2 = rep_sd.theta.cov.sigma2
    ratio = float(s2[1] / s2[0])
    if ratio <= 5.0:
        failures.append(f"on/off variance ratio {ratio:.2f} <= 5")
    if rep_ri.theta.cov.d2 <= 0.0:
        failures.append(f"d2={rep_ri.theta.cov.d2:.3g} not positive")
    xq = 0.5 * float(data.x[0] + data.x[-1])
    on_sd = float(curve_at(rep_sd, xq)[1])
    on_ri = float(curve_at(rep_ri, xq)[1])
    if on_ri >= on_sd:
        failures.append(f"on-curve at midpoint {on_ri:.2f} not below "
                        f"state-diag fit {on_sd:.2f}")
    verdict(10, "look-alike data: on-state spread vs. day-level "
            "intercept", failures)


# ---------------------------------------------------------------------------
# 11. determinism end to end
# ---------------------------------------------------------------------------

def test_11_identical_seeds_give_identical_reports():
    def build():
        design = dataclasses.replace(sim.stock_design(2), N=30)
        data, _ = sim.generate_dataset(design, seed=4)
        report = ecm_fit(data, LatentSpec(kind="markov", J=2),
                         CovSpec(kind="homog_ri"), lambdas=1e-4)
        return dm.dumps_json(dm.report_to_dict(report, "markov",
                                               "homog_ri"))

    first, second = build(), build()
    failures = [] if first == second else ["serialized reports differ"]
    verdict(11, "repeated runs serialize bitwise-identically", failures)
