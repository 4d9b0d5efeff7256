"""Standard errors against finite differences of the observed likelihood.

A tiny grid keeps exact enumeration affordable, so the oracle is the
numerically differentiated observed log likelihood in the free latent
coordinates.  Louis's identity gives that Hessian at any theta; the toys
check it both at a fixed point of the latent update (the curves and
covariance frozen) and away from one.
"""

import dataclasses
import functools

import numpy as np
import pytest

from switchcurve import inference as inf_mod
from switchcurve.datamodel import (CovSpec, CovariateParams, IIDParams,
                                   IsoDiagParams, LatentSpec, MarkovParams,
                                   MultiCurveDataset, Theta)
from switchcurve.em import e_step, ecm_fit
from switchcurve.errors import BoundaryParameter, SingularInformation
from switchcurve.latent import enumerate_states, update_alpha

from oracles import (enumerated_e_step, estep_from_joint,
                     louis_information_dense, score_second_moment_einsum,
                     state_mass)

N_TOY, N_POINTS, J = 3, 3, 2
COV_SPEC = CovSpec(kind="iso_diag")
COV_PARAMS = IsoDiagParams(sigma2=0.09)


def toy_data():
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 1.0, N_POINTS)
    f = np.vstack([np.zeros(N_POINTS), 0.8 * np.ones(N_POINTS)])
    z = rng.integers(0, J, size=(N_TOY, N_POINTS))
    y = f[z, np.arange(N_POINTS)] + 0.3 * rng.standard_normal(
        (N_TOY, N_POINTS))
    v = rng.standard_normal((N_TOY, N_POINTS, 1))
    return MultiCurveDataset(x=x, y=y, covariates=v), f


def make_theta(alpha):
    return Theta(phi=np.zeros((J, 4)), latent=alpha, cov=COV_PARAMS,
                 lambdas=np.zeros(J))


KINDS = {
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


@functools.lru_cache(maxsize=4)
def fixed_point(kind):
    """Latent-coordinate EM to machine stability on the frozen toy."""
    data, f = toy_data()
    enum = enumerate_states(N_POINTS, J)
    lat = LatentSpec(kind=kind, J=J)
    alpha, coords, unpack = KINDS[kind]
    delta = np.inf
    for _ in range(3000):
        step = enumerated_e_step(data, f, make_theta(alpha), lat, COV_SPEC,
                                 enum)
        new, _ = update_alpha(lat, alpha, step.marginals, step.transitions,
                              data.covariates)
        delta = np.max(np.abs(coords(new) - coords(alpha)))
        alpha = new
        if delta < 1e-14:
            break
    assert delta < 1e-14
    step = enumerated_e_step(data, f, make_theta(alpha), lat, COV_SPEC,
                             enum)
    return data, enum, lat, alpha, step


def observed_loglik(data, theta, lat, enum, f):
    step = enumerated_e_step(data, f, theta, lat, COV_SPEC, enum)
    return float(step.loglik.sum())


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


@pytest.mark.parametrize("kind", ["iid", "markov", "covariate"])
def test_generic_information_matches_finite_differences(kind):
    data, enum, lat, alpha, step = fixed_point(kind)
    _, coords, unpack = KINDS[kind]
    _, f = toy_data()

    def ll_of(vec):
        return observed_loglik(data, make_theta(unpack(vec)), lat, enum, f)

    I_fd = -fd_hessian(ll_of, coords(alpha))
    I_gen, labels = inf_mod.louis_information_generic(
        step, lat, alpha, covariates=data.covariates)
    assert len(labels) == coords(alpha).size
    scale = max(1.0, float(np.max(np.abs(I_fd))))
    assert np.max(np.abs(I_gen - I_fd)) / scale < 1e-4


AWAY = {
    "iid": IIDParams(p=np.array([0.3, 0.7])),
    "markov": MarkovParams(pi=np.array([0.3, 0.7]),
                           A=np.array([[0.8, 0.2], [0.6, 0.4]])),
    "covariate": CovariateParams(beta=np.array([[0.2, 0.4]])),
}


def diagonal_form(kind, step, data, alpha):
    """The diagonal-kind information route of ``kind``."""
    if kind == "iid":
        return inf_mod.louis_information_iid_closed(step.marginals, alpha.p)
    if kind == "markov":
        return inf_mod.louis_information_markov_closed(
            step.marginals, step.pairwise, alpha)
    return inf_mod.louis_information_covariate(
        step.marginals, data.covariates, alpha.beta)


@pytest.mark.parametrize("route", ["generic", "diagonal"])
@pytest.mark.parametrize("kind", ["iid", "markov", "covariate"])
def test_information_matches_finite_differences_away_from_fixed_point(
        kind, route):
    """Louis's identity is exact at any theta, not only where the score
    vanishes: iso_diag, n = 6, at latent parameters far from the MLE."""
    rng = np.random.default_rng(8)
    n = 6
    f = np.vstack([np.zeros(n), 0.8 * np.ones(n)])
    z = rng.integers(0, J, size=(4, n))
    y = f[z, np.arange(n)] + 0.4 * rng.standard_normal((4, n))
    data = MultiCurveDataset(x=np.linspace(0.0, 1.0, n), y=y,
                             covariates=rng.standard_normal((4, n, 1)))
    enum = enumerate_states(n, J)
    lat = LatentSpec(kind=kind, J=J)
    alpha = AWAY[kind]
    _, coords, unpack = KINDS[kind]

    def ll_of(vec):
        return observed_loglik(data, make_theta(unpack(vec)), lat, enum, f)

    I_fd = -fd_hessian(ll_of, coords(alpha))
    step = enumerated_e_step(data, f, make_theta(alpha), lat, COV_SPEC,
                             enum)
    if route == "generic":
        info, _ = inf_mod.louis_information_generic(
            step, lat, alpha, covariates=data.covariates)
    else:
        info, _ = diagonal_form(kind, step, data, alpha)
    scale = max(1.0, float(np.max(np.abs(I_fd))))
    assert np.max(np.abs(info - I_fd)) / scale < 1e-4


def three_state_unpack_markov(vec):
    """pi_1, pi_2, then a_lj for j != l, row by row; the rest implied."""
    A = np.zeros((3, 3))
    A[~np.eye(3, dtype=bool)] = vec[2:]
    A[np.diag_indices(3)] = 1.0 - A.sum(axis=1)
    return MarkovParams(pi=np.append(vec[:2], 1.0 - vec[:2].sum()), A=A)


THREE_STATE_KINDS = {
    "iid": (
        IIDParams(p=np.array([0.2, 0.3, 0.5])),
        lambda a: a.p[:2].copy(),
        lambda vec: IIDParams(p=np.append(vec, 1.0 - vec.sum()))),
    "markov": (
        MarkovParams(pi=np.array([0.3, 0.3, 0.4]),
                     A=np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3],
                                 [0.25, 0.25, 0.5]])),
        lambda a: np.append(a.pi[:2], a.A[~np.eye(3, dtype=bool)]),
        three_state_unpack_markov),
    "covariate": (
        CovariateParams(beta=np.array([[0.2, 0.4], [-0.3, 0.7]])),
        lambda a: a.beta.ravel().copy(),
        lambda vec: CovariateParams(beta=vec.reshape(2, 2))),
}


@pytest.mark.parametrize("route", ["generic", "diagonal"])
@pytest.mark.parametrize("kind", ["iid", "markov", "covariate"])
def test_information_matches_finite_differences_at_three_states(kind,
                                                                route):
    """Both routes at J = 3: iso_diag, n = 4, away from the MLE; the
    Markov coordinates are (pi1, pi2, a12, a13, a21, a23, a31, a32)."""
    rng = np.random.default_rng(8)
    J3, n = 3, 4
    f = np.outer(np.arange(J3), 0.8 * np.ones(n))
    z = rng.integers(0, J3, size=(5, n))
    y = f[z, np.arange(n)] + 0.4 * rng.standard_normal((5, n))
    data = MultiCurveDataset(x=np.linspace(0.0, 1.0, n), y=y,
                             covariates=rng.standard_normal((5, n, 1)))
    enum = enumerate_states(n, J3)
    lat = LatentSpec(kind=kind, J=J3)
    alpha, coords, unpack = THREE_STATE_KINDS[kind]

    def theta_of(a):
        return Theta(phi=np.zeros((J3, 4)), latent=a, cov=COV_PARAMS,
                     lambdas=np.zeros(J3))

    def ll_of(vec):
        return float(enumerated_e_step(data, f, theta_of(unpack(vec)), lat,
                                       COV_SPEC, enum).loglik.sum())

    I_fd = -fd_hessian(ll_of, coords(alpha))
    if route == "generic":
        step = enumerated_e_step(data, f, theta_of(alpha), lat, COV_SPEC,
                                 enum)
        info, labels = inf_mod.louis_information_generic(
            step, lat, alpha, covariates=data.covariates)
    else:
        step = e_step(data, f, theta_of(alpha), lat, COV_SPEC)
        info, labels = diagonal_form(kind, step, data, alpha)
    assert len(labels) == coords(alpha).size
    scale = max(1.0, float(np.max(np.abs(I_fd))))
    assert np.max(np.abs(info - I_fd)) / scale < 1e-4


def test_iid_closed_form_matches_generic():
    data, enum, lat, alpha, step = fixed_point("iid")
    I_gen, _ = inf_mod.louis_information_generic(step, lat,
                                                 alpha)
    I_closed, labels = inf_mod.louis_information_iid_closed(
        step.marginals, alpha.p)
    assert labels == ["p1"]
    scale = max(1.0, float(np.max(np.abs(I_gen))))
    assert np.max(np.abs(I_closed - I_gen)) / scale < 1e-9


def test_markov_closed_form_matches_generic():
    data, enum, lat, alpha, step = fixed_point("markov")
    I_gen, _ = inf_mod.louis_information_generic(step, lat,
                                                 alpha)
    I_closed, labels = inf_mod.louis_information_markov_closed(
        step.marginals, step.pairwise, alpha)
    assert labels == ["pi1", "a12", "a21"]
    scale = max(1.0, float(np.max(np.abs(I_gen))))
    assert np.max(np.abs(I_closed - I_gen)) / scale < 1e-9


def test_covariate_marginal_form_matches_generic():
    data, enum, lat, alpha, step = fixed_point("covariate")
    I_gen, _ = inf_mod.louis_information_generic(
        step, lat, alpha, covariates=data.covariates)
    diag_step = e_step(data, toy_data()[1], make_theta(alpha), lat, COV_SPEC)
    I_marg, labels = inf_mod.louis_information_covariate(
        diag_step.marginals, data.covariates, alpha.beta)
    assert labels == ["beta0", "beta1"]
    np.testing.assert_allclose(I_marg, I_gen, rtol=1e-9, atol=1e-10)


@pytest.mark.parametrize("n,J", [(10, 2), (5, 3)])
def test_score_second_moment_matches_einsum_form(n, J):
    rng = np.random.default_rng(n * J)
    enum = enumerate_states(n, J)
    P = rng.dirichlet(np.ones(enum.size), size=4)
    a = inf_mod._simplex_scores(rng.dirichlet(np.ones(J)), J - 1)
    G = enum.counts @ a
    want = score_second_moment_einsum(P, G)
    np.testing.assert_allclose(inf_mod._second_moment(state_mass(P), G),
                               want, rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(want)))
    # the generic route's form: G_s = E_s' H, H the scores tiled over points
    moments = estep_from_joint(P, np.zeros((4, n)), enum, "iid").moments
    H = np.tile(a, (n, 1))
    np.testing.assert_allclose(H.T @ moments.occupancy @ H, want, rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(want)))


def random_latent(kind, J, M, rng):
    if kind == "iid":
        return IIDParams(p=rng.dirichlet(np.ones(J)))
    if kind == "markov":
        return MarkovParams(pi=rng.dirichlet(np.ones(J)),
                            A=rng.dirichlet(np.ones(J), size=J))
    return CovariateParams(beta=rng.standard_normal((J - 1, M + 1)))


@pytest.mark.parametrize("J", [2, 3])
@pytest.mark.parametrize("kind", ["iid", "markov", "covariate"])
def test_generic_information_matches_per_state_vector_scores(kind, J):
    """The structured route's moments (co-occupancy, and for covariate
    each replicate's non-reference co-occupancy) against scores and
    curvatures written per state vector on a random joint table."""
    rng = np.random.default_rng(31)
    N, n, M = 5, 4, 2
    enum = enumerate_states(n, J)
    P = rng.dirichlet(np.ones(enum.size), size=N)
    v = rng.standard_normal((N, n, M))
    lat, alpha = LatentSpec(kind=kind, J=J), random_latent(kind, J, M, rng)
    step = estep_from_joint(P, np.zeros((N, n)), enum, kind)
    got, labels = inf_mod.louis_information_generic(step, lat, alpha,
                                                    covariates=v)
    want, want_labels = louis_information_dense(P, enum, lat, alpha,
                                                covariates=v)
    assert labels == want_labels
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(want)))


def test_boundary_estimates_are_rejected():
    """Any entry of p, pi or A below 1e-8 is named, the implied ones too."""
    data = fit_data(3, n=5)
    with pytest.raises(BoundaryParameter, match="p2"):
        inf_mod.standard_errors_for_fit(
            data, LatentSpec(kind="iid", J=2), COV_SPEC,
            make_theta(IIDParams(p=[1.0 - 1e-9, 1e-9])), step=None)
    with pytest.raises(BoundaryParameter, match="a12"):
        inf_mod.standard_errors_for_fit(
            data, LatentSpec(kind="markov", J=2), COV_SPEC,
            make_theta(MarkovParams(pi=[0.5, 0.5],
                                    A=[[1.0 - 1e-9, 1e-9], [0.4, 0.6]])),
            step=None)
    A = np.full((3, 3), 1.0 / 3.0)
    A[1] = [0.5, 0.5 - 1e-9, 1e-9]
    with pytest.raises(BoundaryParameter, match="a23"):
        inf_mod.standard_errors_for_fit(
            data, LatentSpec(kind="markov", J=3), COV_SPEC,
            Theta(phi=np.zeros((3, 4)),
                  latent=MarkovParams(pi=np.full(3, 1.0 / 3.0), A=A),
                  cov=COV_PARAMS, lambdas=np.zeros(3)), step=None)


def test_se_inversion_guards():
    with pytest.raises(SingularInformation):
        inf_mod._se_from_information(np.zeros((2, 2)), ["a", "b"])
    with pytest.raises(SingularInformation, match="positive"):
        inf_mod._se_from_information(np.diag([1.0, -1.0]), ["a", "b"])
    se = inf_mod._se_from_information(np.diag([4.0, 25.0]), ["a", "b"])
    assert se == {"a": 0.5, "b": 0.2}


def fit_data(seed, M=0, N=20, n=8, noise=0.2, J=2):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, n)
    base = np.sin(2.0 * np.pi * x)
    f = np.stack([base + 1.2 * j for j in range(J)])
    z = rng.integers(0, J, (N, n))
    y = f[z, np.arange(n)] + noise * rng.standard_normal((N, n))
    v = rng.standard_normal((N, n, M)) if M else None
    return MultiCurveDataset(x=x, y=y, covariates=v)


def test_fit_reports_come_with_standard_errors():
    report = ecm_fit(fit_data(0), LatentSpec(kind="iid", J=2),
                     CovSpec(kind="iso_diag"), lambdas=1e-4)
    assert set(report.std_errors) == {"p1"}
    assert 0.0 < report.std_errors["p1"] < 1.0

    report = ecm_fit(fit_data(1), LatentSpec(kind="markov", J=2),
                     CovSpec(kind="iso_diag"), lambdas=1e-4)
    assert set(report.std_errors) == {"pi1", "a12", "a21"}
    assert all(v > 0 for v in report.std_errors.values())

    report = ecm_fit(fit_data(2, M=1), LatentSpec(kind="covariate", J=2),
                     CovSpec(kind="iso_diag"), lambdas=1e-4)
    assert set(report.std_errors) == {"beta0", "beta1"}


@pytest.mark.parametrize("kind", ["iid", "markov", "covariate"])
@pytest.mark.parametrize("cov_kind", ["iso_diag", "state_diag"])
def test_diagonal_kind_ses_match_the_enumerated_oracle(kind, cov_kind):
    """The diagonal forms, fed the E-step's own posteriors, equal the
    generic form on the brute-force E-step's joint, at the fit and at a
    theta away from it; a fit's SEs are those of a fresh E-step."""
    # noisy enough that the mean top posterior is about 0.92, not ~1
    data = fit_data(5, M=1 if kind == "covariate" else 0, N=12, n=7,
                    noise=0.6)
    lat, cspec = LatentSpec(kind=kind, J=2), CovSpec(kind=cov_kind)
    report = ecm_fit(data, lat, cspec, lambdas=1e-4)
    se = inf_mod.standard_errors_for_fit(
        data, lat, cspec, report.theta,
        e_step(data, report.curves, report.theta, lat, cspec))
    assert report.std_errors == se

    enum = enumerate_states(data.n_points, 2)
    for alpha in (report.theta.latent, AWAY[kind]):
        theta = dataclasses.replace(report.theta, latent=alpha)
        oracle = enumerated_e_step(data, report.curves, theta, lat, cspec,
                                   enum)
        want, labels = inf_mod.louis_information_generic(
            oracle, lat, alpha, covariates=data.covariates)
        step = e_step(data, report.curves, theta, lat, cspec)
        got, got_labels = diagonal_form(kind, step, data, alpha)
        assert got_labels == labels
        np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("kind, cov_kind", [
    ("markov", "iso_diag"), ("markov", "homog_ri"),
    ("covariate", "state_diag")])
def test_three_state_fits_report_standard_errors(kind, cov_kind):
    data = fit_data(6, M=1 if kind == "covariate" else 0, J=3)
    report = ecm_fit(data, LatentSpec(kind=kind, J=3),
                     CovSpec(kind=cov_kind), lambdas=1e-4)
    assert list(report.std_errors) == (
        ["pi1", "pi2", "a12", "a13", "a21", "a23", "a31", "a32"]
        if kind == "markov" else ["beta0", "beta1", "beta0_3", "beta1_3"])
    assert all(np.isfinite(v) and v > 0
               for v in report.std_errors.values())
    assert not any(w.startswith("se_unavailable") for w in report.warnings)


def test_diagonal_kind_ses_exist_past_the_enumeration_cap():
    """2**25 state vectors would need about 36 GiB on the enumeration
    route, but iid and Markov SEs on a diagonal kind come from the E-step's
    posteriors, not enumeration."""
    data = fit_data(4, N=6, n=25)
    for kind, names in (("iid", {"p1"}), ("markov", {"pi1", "a12", "a21"})):
        report = ecm_fit(data, LatentSpec(kind=kind, J=2),
                         CovSpec(kind="iso_diag"), lambdas=1e-4)
        assert set(report.std_errors) == names
        assert all(np.isfinite(v) and v > 0
                   for v in report.std_errors.values())
        assert not any(w.startswith("se_unavailable")
                       for w in report.warnings)
