"""Covariance kinds against dense linear algebra.

Every structured density, inverse, and determinant identity is checked
against an explicitly materialized V with scipy's multivariate normal and
numpy's generic inverse/slogdet.  M-step updates are checked against plain
double loops and against local perturbations of the objective they claim
to maximize; the nonhomog_ri search also against the Nelder-Mead oracle.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from switchcurve import covariance, sim
from switchcurve.covariance import (CovStructure, log_mvn_density,
                                    make_structure, nonhomog_expected_term,
                                    nonhomog_sufficient_stats,
                                    residual_second_moment,
                                    update_homog_ri, update_iso,
                                    update_nonhomog_ri, update_state_diag,
                                    update_unrestricted)
from switchcurve.datamodel import (CovSpec, HomogRIParams, IsoDiagParams,
                                   LatentSpec, NonHomogRIParams,
                                   StateDiagParams, UnrestrictedParams)
from switchcurve.em import ecm_fit
from switchcurve.errors import NonPositiveSigma, NotSPD
from switchcurve.latent import enumerate_states

from oracles import (estep_from_joint, intercept_sums_tables,
                     loglik_table_whole, nonhomog_simplex_update,
                     nonhomog_sufficient_stats_dense, update_homog_ri_dense,
                     update_unrestricted_dense, vinv_for_state)


def dense_v(kind, params, n, u=None):
    """Materialize V (or V_s) for any kind, from its definition."""
    ones = np.ones((n, n))
    if kind == "iso_diag":
        return params.sigma2 * np.eye(n)
    if kind == "state_diag":
        return np.diag(params.sigma2[np.asarray(u, dtype=int)])
    if kind == "unrestricted":
        return params.V
    if kind == "homog_ri":
        return params.sigma2 * (np.eye(n) + params.d * ones)
    u = np.asarray(u, dtype=float)
    return params.sigma2 * (np.eye(n) + params.d1 * ones
                            + params.d2 * np.outer(u, u))


def random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


def gathered_curves(F, states):
    """(S, n) curve values along each enumerated state vector."""
    n = states.shape[1]
    return F[states.astype(int), np.arange(n)]


KINDS = [
    ("iso_diag", lambda rng, n: IsoDiagParams(sigma2=0.7)),
    ("state_diag", lambda rng, n: StateDiagParams(sigma2=[0.5, 2.0])),
    ("unrestricted", lambda rng, n: UnrestrictedParams(V=random_spd(rng, n))),
    ("homog_ri", lambda rng, n: HomogRIParams(sigma2=0.6, d=1.5)),
    ("nonhomog_ri", lambda rng, n: NonHomogRIParams(sigma2=0.6, d1=0.8,
                                                    d2=2.5)),
]


@pytest.mark.parametrize("kind,make", KINDS)
def test_single_density_matches_dense_mvn(kind, make):
    rng = np.random.default_rng(0)
    n = 5
    params = make(rng, n)
    cov = make_structure(CovSpec(kind=kind), params, n)
    states = np.array([0, 1, 1, 0, 1])
    r = rng.standard_normal(n)
    V = dense_v(kind, params, n, u=states)
    want = multivariate_normal(mean=np.zeros(n), cov=V).logpdf(r)
    got = log_mvn_density(cov, r, states=states)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_vinv_and_logdet_match_dense():
    rng = np.random.default_rng(1)
    n = 6
    # the state-free kinds, and nonhomog_ri's shared part: V at u = 0
    for kind, make in KINDS[:1] + KINDS[2:]:
        params = make(rng, n)
        cov = make_structure(CovSpec(kind=kind), params, n)
        V = dense_v(kind, params, n, u=np.zeros(n))
        np.testing.assert_allclose(cov.vinv(), np.linalg.inv(V),
                                   rtol=1e-10, atol=1e-12)
        sign, ld = np.linalg.slogdet(V)
        assert sign == 1.0
        assert cov.logdet() == pytest.approx(ld, rel=1e-12)

    params = NonHomogRIParams(sigma2=0.4, d1=0.3, d2=1.7)
    cov = make_structure(CovSpec(kind="nonhomog_ri"), params, n)
    E2 = np.tri(n + 1, n, -1)[:, ::-1]          # row m: m state-2 points
    cm, h, logD = cov.state_terms(E2.sum(axis=1))
    U = E2 - cm[:, None]                        # row m: u~ at m
    for m in range(n + 1):
        u = E2[m]
        assert u.sum() == m
        Vs = dense_v("nonhomog_ri", params, n, u=u)
        np.testing.assert_allclose(vinv_for_state(params, n, u),
                                   np.linalg.inv(Vs), rtol=1e-10, atol=1e-12)
        # the rank-one (Sherman-Morrison) form
        np.testing.assert_allclose(cov.vinv() - h[m] * np.outer(U[m], U[m]),
                                   np.linalg.inv(Vs), rtol=1e-10, atol=1e-12)
        sign, ld = np.linalg.slogdet(Vs)
        assert sign == 1.0
        assert cov.logdet() + logD[m] == pytest.approx(ld, rel=1e-12)
        # the determinant factorization the M-step uses
        det = (1.0 + n * params.d1) * (1.0 + m * params.d2) \
            - m ** 2 * params.d1 * params.d2
        assert n * math.log(params.sigma2) + math.log(det) == \
            pytest.approx(ld, rel=1e-12)


@pytest.mark.parametrize("kind,make",
                         [k for k in KINDS if k[0] != "state_diag"])
def test_loglik_table_matches_per_pair_loop(kind, make):
    rng = np.random.default_rng(2)
    n, J, N = 4, 2, 3
    params = make(rng, n)
    cov = make_structure(CovSpec(kind=kind), params, n)
    enum = enumerate_states(n, J)
    F = rng.standard_normal((J, n))
    Fs = gathered_curves(F, enum.states)
    y = rng.standard_normal((N, n)) * 2.0
    inputs = (y, F)
    before = [a.copy() for a in inputs]
    table = loglik_table_whole(cov, y, F, enum.states)
    for a, b in zip(inputs, before):    # in-place table arithmetic only
        np.testing.assert_array_equal(a, b)
    for k in range(N):
        for s in range(enum.size):
            V = dense_v(kind, params, n, u=enum.states[s])
            want = multivariate_normal(mean=Fs[s], cov=V).logpdf(y[k])
            assert table[k, s] == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_nonhomog_loglik_table_resolves_the_all_state_2_column():
    """At u_s = 1 the two intercepts act as one, d = d1 + d2.  With
    sigma2 small against d and the data 40 above the curves, the log
    densities are near -2e5; the m = n column holds a long-double
    reference built from the residuals to 1e-12 relative."""
    n, N = 11, 5
    p = NonHomogRIParams(sigma2=1e-4, d1=30.0, d2=10.0)
    cov = make_structure(CovSpec(kind="nonhomog_ri"), p, n)
    enum = enumerate_states(n, 2)
    x = np.linspace(0.0, 1.0, n)
    F = np.vstack([np.sin(2 * np.pi * x), 1.0 + x ** 2])
    rng = np.random.default_rng(5)
    y = F[1] + 40.0 + 0.01 * rng.standard_normal((N, n))
    Fs = gathered_curves(F, enum.states)
    s = int(np.flatnonzero(enum.counts[:, 1] == n)[0])
    got = loglik_table_whole(cov, y, F, enum.states)[:, s]

    ld = np.longdouble
    r = y.astype(ld) - Fs[s].astype(ld)
    d = ld(p.d1) + ld(p.d2)
    quad = ((r * r).sum(axis=1)
            - d / (1 + n * d) * r.sum(axis=1) ** 2) / ld(p.sigma2)
    want = -(quad + n * np.log(ld(p.sigma2)) + np.log(1 + n * d)
             + n * np.log(2 * ld(np.pi))) / 2
    assert np.all(np.abs(want) > 1e5)
    np.testing.assert_allclose(got, want.astype(float), rtol=1e-12, atol=0)


def test_loglik_table_guards():
    cov = make_structure(CovSpec(kind="state_diag"),
                         StateDiagParams(sigma2=[1.0, 2.0]), 3)
    with pytest.raises(ValueError, match="pointwise"):
        cov.state_factor(np.zeros((2, 3)), np.zeros((1, 3), np.int8),
                         np.zeros(3))


def test_pointwise_loglik_matches_norm_logpdf():
    rng = np.random.default_rng(3)
    n, J, N = 5, 3, 2
    F = rng.standard_normal((J, n))
    y = rng.standard_normal((N, n))
    sigma2 = np.array([0.5, 1.0, 4.0])
    cov = make_structure(CovSpec(kind="state_diag"),
                         StateDiagParams(sigma2=sigma2), n)
    table = cov.pointwise_loglik(y, F)
    iso = make_structure(CovSpec(kind="iso_diag"), IsoDiagParams(sigma2=0.5),
                         n)
    iso_table = iso.pointwise_loglik(y, F)
    for k in range(N):
        for i in range(n):
            for j in range(J):
                want = norm(loc=F[j, i], scale=math.sqrt(sigma2[j])).logpdf(
                    y[k, i])
                assert table[k, i, j] == pytest.approx(want, rel=1e-12)
            want = norm(loc=F[0, i], scale=math.sqrt(0.5)).logpdf(y[k, i])
            assert iso_table[k, i, 0] == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError, match="diagonal"):
        make_structure(CovSpec(kind="homog_ri"),
                       HomogRIParams(sigma2=1.0, d=0.1),
                       n).pointwise_loglik(y, F)


def test_nonhomog_with_zero_d2_reduces_to_homog():
    rng = np.random.default_rng(4)
    n = 5
    enum = enumerate_states(n, 2)
    F = rng.standard_normal((2, n))
    Fs = gathered_curves(F, enum.states)
    y = rng.standard_normal((3, n))
    nh = make_structure(CovSpec(kind="nonhomog_ri"),
                        NonHomogRIParams(sigma2=0.8, d1=0.4, d2=0.0), n)
    ho = make_structure(CovSpec(kind="homog_ri"),
                        HomogRIParams(sigma2=0.8, d=0.4), n)
    np.testing.assert_allclose(
        loglik_table_whole(nh, y, F, enum.states),
        loglik_table_whole(ho, y, F, enum.states), rtol=1e-12)


def test_structure_validation():
    with pytest.raises(NonPositiveSigma):
        CovStructure("iso_diag", IsoDiagParams(sigma2=0.0), 4)
    with pytest.raises(NonPositiveSigma):
        CovStructure("state_diag", StateDiagParams(sigma2=[1.0, -1.0]), 4)
    with pytest.raises(NotSPD):
        CovStructure("homog_ri", HomogRIParams(sigma2=1.0, d=-0.25), 4)
    with pytest.raises(NotSPD):
        CovStructure("nonhomog_ri",
                     NonHomogRIParams(sigma2=1.0, d1=-0.1, d2=0.0), 4)
    with pytest.raises(NotSPD, match="shape"):
        CovStructure("unrestricted", UnrestrictedParams(V=np.eye(3)), 4)
    asym = np.eye(4)
    asym[0, 1] = 0.5
    with pytest.raises(NotSPD, match="symmetric"):
        CovStructure("unrestricted", UnrestrictedParams(V=asym), 4)
    with pytest.raises(NotSPD, match="definite"):
        CovStructure("unrestricted",
                     UnrestrictedParams(V=-np.eye(4)), 4)
    # d slightly above the SPD boundary is legal
    CovStructure("homog_ri", HomogRIParams(sigma2=1.0, d=-0.2), 4)


def test_unrestricted_structure_refuses_v_past_the_conditioning_limit():
    """cond(C) above 1e-8 / eps, C the correlation matrix of V: the
    expanded quadratic form's rounding would exceed the ascent check's
    tolerance.  Rescaling V's coordinates changes neither, so a diagonal V
    with a variance ratio of 1e8 is accepted."""
    limit = 1e-8 / np.finfo(float).eps
    n = 5
    scale = np.geomspace(1.0, 1e4, n)
    CovStructure("unrestricted",
                 UnrestrictedParams(V=np.diag(scale ** 2)), n)
    for cond, ok in ((0.99 * limit, True), (1.01 * limit, False)):
        # equicorrelation rho: eigenvalues 1 + (n - 1) rho and 1 - rho
        rho = (cond - 1.0) / (cond + n - 1.0)
        C = (1.0 - rho) * np.eye(n) + rho * np.ones((n, n))
        V = scale[:, None] * C * scale[None, :]
        if ok:
            CovStructure("unrestricted", UnrestrictedParams(V=V), n)
            continue
        with pytest.raises(NotSPD, match=r"correlation matrix has "
                           r"condition number 4.5\de\+07"):
            CovStructure("unrestricted", UnrestrictedParams(V=V), n)


def random_posterior(rng, N, S):
    P = rng.uniform(0.1, 1.0, (N, S))
    return P / P.sum(axis=1, keepdims=True)


def moments_of(P, y, nonhomog=False):
    """The E-step moments of a joint table P over the two-state
    enumeration at y's grid size."""
    enum = enumerate_states(y.shape[1], 2)
    return estep_from_joint(P, y, enum, "iid", nonhomog).moments


def test_update_unrestricted_matches_double_loop():
    rng = np.random.default_rng(5)
    n, N = 4, 3
    enum = enumerate_states(n, 2)
    F = rng.standard_normal((2, n))
    Fs = gathered_curves(F, enum.states)
    y = rng.standard_normal((N, n))
    P = random_posterior(rng, N, enum.size)
    V = update_unrestricted(moments_of(P, y), F)
    np.testing.assert_allclose(V, update_unrestricted_dense(P, y, Fs),
                               rtol=1e-12, atol=1e-14)
    want = np.zeros((n, n))
    for k in range(N):
        for s in range(enum.size):
            r = y[k] - Fs[s]
            want += P[k, s] * np.outer(r, r)
    want /= N
    np.testing.assert_allclose(V, want, rtol=1e-12, atol=1e-14)
    np.testing.assert_array_equal(V, V.T)


@pytest.mark.parametrize("J", [2, 3])
def test_residual_second_moment_matches_double_loop(J):
    rng = np.random.default_rng(15 + J)
    n, N = 4, 3
    enum = enumerate_states(n, J)
    F = rng.standard_normal((J, n))
    Fs = gathered_curves(F, enum.states)
    y = rng.standard_normal((N, n)) + 2.0
    P = random_posterior(rng, N, enum.size)
    S = residual_second_moment(
        estep_from_joint(P, y, enum, "iid").moments, F)
    want = np.zeros((n, n))
    for k in range(N):
        for s in range(enum.size):
            r = y[k] - Fs[s]
            want += P[k, s] * np.outer(r, r)
    np.testing.assert_allclose(S, want, rtol=1e-12, atol=1e-13)
    np.testing.assert_array_equal(S, S.T)


def test_update_homog_ri_sums_are_trace_and_total():
    """sum P |y_k - f_s|^2 and sum P (1'(y_k - f_s))^2, by a double loop,
    are tr S and 1'S1, and give update_homog_ri's closed form."""
    rng = np.random.default_rng(17)
    n, N = 5, 4
    enum = enumerate_states(n, 2)
    F = rng.standard_normal((2, n))
    Fs = gathered_curves(F, enum.states)
    y = rng.standard_normal((N, n)) + 1.5 * rng.standard_normal((N, 1))
    P = random_posterior(rng, N, enum.size)
    moments = moments_of(P, y)
    ss_full = ss_mean = 0.0
    for k in range(N):
        for s in range(enum.size):
            r = y[k] - Fs[s]
            ss_full += P[k, s] * (r @ r)
            ss_mean += P[k, s] * r.sum() ** 2
    S = residual_second_moment(moments, F)
    assert np.trace(S) == pytest.approx(ss_full, rel=1e-12)
    assert S.sum() == pytest.approx(ss_mean, rel=1e-12)
    sigma2 = (ss_full - ss_mean / n) / (N * (n - 1))
    d = ss_mean / (sigma2 * N * n ** 2) - 1.0 / n
    assert d > 0
    assert update_homog_ri(moments, F) == pytest.approx((sigma2, d),
                                                        rel=1e-12)


def expected_gaussian_term(P, y, Fs, V_of_s, states):
    """Posterior-weighted expected log density, by loops over (k, s)."""
    total = 0.0
    for k in range(y.shape[0]):
        for s in range(Fs.shape[0]):
            if P[k, s] == 0.0:
                continue
            V = V_of_s(states[s])
            total += P[k, s] * multivariate_normal(
                mean=Fs[s], cov=V).logpdf(y[k])
    return total


def test_update_unrestricted_is_local_maximum():
    rng = np.random.default_rng(6)
    n, N = 3, 4
    enum = enumerate_states(n, 2)
    F = rng.standard_normal((2, n))
    Fs = gathered_curves(F, enum.states)
    y = rng.standard_normal((N, n)) * 1.5
    P = random_posterior(rng, N, enum.size)
    V_hat = update_unrestricted(moments_of(P, y), F)
    base = expected_gaussian_term(P, y, Fs, lambda s: V_hat, enum.states)
    for _ in range(4):
        D = rng.standard_normal((n, n)) * 0.05
        V_alt = V_hat + D + D.T
        if np.min(np.linalg.eigvalsh(V_alt)) <= 1e-9:
            continue
        alt = expected_gaussian_term(P, y, Fs, lambda s: V_alt, enum.states)
        assert alt <= base + 1e-10


def test_update_homog_ri_beats_local_grid():
    rng = np.random.default_rng(7)
    n, N = 5, 6
    enum = enumerate_states(n, 2)
    F = rng.standard_normal((2, n))
    Fs = gathered_curves(F, enum.states)
    # draw with a genuine shared intercept so the optimum is interior
    z = rng.integers(0, 2, n)
    f = Fs[int(np.sum(z * 2 ** np.arange(n)))]
    y = f + rng.standard_normal((N, n)) * 0.7 \
        + 1.2 * rng.standard_normal((N, 1))
    P = random_posterior(rng, N, enum.size)
    sigma2, d = update_homog_ri(moments_of(P, y), F)
    assert sigma2 > 0 and d > 0

    def q(s2, dd):
        return expected_gaussian_term(
            P, y, Fs,
            lambda s: s2 * (np.eye(n) + dd * np.ones((n, n))), enum.states)

    base = q(sigma2, d)
    for fac_s in (0.9, 0.97, 1.03, 1.1):
        for fac_d in (0.9, 0.97, 1.03, 1.1):
            assert q(sigma2 * fac_s, d * fac_d) < base


def test_update_homog_ri_clamps_d_at_zero():
    """Residuals orthogonal to the intercept direction push the
    unconstrained d negative.  The update is then the conditional maximum
    over d >= 0: d = 0 with sigma2 the mean squared residual, and no
    (sigma2, d >= 0) near it gives a larger expected complete-data term."""
    rng = np.random.default_rng(8)
    n, N = 4, 5
    enum = enumerate_states(n, 2)
    y = rng.standard_normal((N, n))
    y -= y.mean(axis=1, keepdims=True)
    F = np.zeros((2, n))
    Fs = gathered_curves(F, enum.states)
    P = np.zeros((N, enum.size))
    P[:, 0] = 1.0
    sigma2, d = update_homog_ri(moments_of(P, y), F)
    assert d == 0.0
    assert sigma2 == pytest.approx(float(np.sum(y ** 2)) / (N * n),
                                   rel=1e-12)
    assert (sigma2, d) == pytest.approx(update_homog_ri_dense(P, y, Fs),
                                        rel=1e-12)

    def q(s2, dd):
        return expected_gaussian_term(
            P, y, Fs,
            lambda s: s2 * (np.eye(n) + dd * np.ones((n, n))), enum.states)

    base = q(sigma2, d)
    for fac_s in (0.9, 0.97, 1.0, 1.03, 1.1):
        for dd in (0.0, 1e-3, 0.03, 0.1):
            if (fac_s, dd) != (1.0, 0.0):
                assert q(sigma2 * fac_s, dd) < base


def test_nonhomog_expected_term_matches_dense_loop():
    rng = np.random.default_rng(9)
    n, N = 4, 3
    enum = enumerate_states(n, 2)
    F = rng.standard_normal((2, n))
    Fs = gathered_curves(F, enum.states)
    y = rng.standard_normal((N, n))
    P = random_posterior(rng, N, enum.size)
    stats = nonhomog_sufficient_stats(moments_of(P, y, nonhomog=True), F)
    for s2, d1, d2 in [(0.5, 0.2, 0.9), (1.3, 0.0, 0.4), (0.8, 0.6, 0.0)]:
        params = NonHomogRIParams(sigma2=s2, d1=d1, d2=d2)
        want = expected_gaussian_term(
            P, y, Fs, lambda s: dense_v("nonhomog_ri", params, n, u=s),
            enum.states)
        got = nonhomog_expected_term(s2, d1, d2, n, N, stats)
        assert got == pytest.approx(want, rel=1e-10)


def test_intercept_sums_match_residual_tensor():
    """The moment forms of update_homog_ri and nonhomog_sufficient_stats
    against sums over every residual r_ks and against their dense-P
    forms, on curves far from zero so the expanded squares would
    cancel."""
    rng = np.random.default_rng(14)
    n, N = 6, 5
    enum = enumerate_states(n, 2)
    F = rng.standard_normal((2, n)) + 50.0
    Fs = gathered_curves(F, enum.states)
    y = F[0] + rng.standard_normal((N, n)) + rng.standard_normal((N, 1))
    E2 = (enum.states == 1).astype(float)
    P = random_posterior(rng, N, enum.size)
    A, b2, bc, c2 = intercept_sums_tables(P, y, Fs, E2)
    moments = moments_of(P, y, nonhomog=True)
    got = nonhomog_sufficient_stats(moments, F)
    dense = nonhomog_sufficient_stats_dense(P, y, Fs, E2)
    m = E2.sum(axis=1).astype(int)
    assert got[0] == pytest.approx(A, rel=1e-12)
    np.testing.assert_array_equal(got[1], np.arange(n + 1))
    np.testing.assert_allclose(got[2], np.bincount(m, weights=P.sum(axis=0)),
                               rtol=1e-12)
    for have, per_s, old in zip(got[3:], (b2, bc, c2), dense[3:]):
        want = np.bincount(m, weights=per_s)
        np.testing.assert_allclose(have, want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))
        np.testing.assert_allclose(have, old, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))
    sigma2, d = update_homog_ri(moments, F)
    ss_mean = float(b2.sum())
    want_s2 = (A - ss_mean / n) / (N * (n - 1))
    assert sigma2 == pytest.approx(want_s2, rel=1e-12)
    assert d == pytest.approx(ss_mean / (want_s2 * N * n ** 2) - 1.0 / n,
                              rel=1e-12)
    assert (sigma2, d) == pytest.approx(update_homog_ri_dense(P, y, Fs),
                                        rel=1e-12)


def test_update_nonhomog_never_degrades_the_objective():
    rng = np.random.default_rng(10)
    n, N = 5, 8
    enum = enumerate_states(n, 2)
    F = rng.standard_normal((2, n))
    Fs = gathered_curves(F, enum.states)
    u = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
    noise = (rng.standard_normal((N, n)) * 0.6
             + 0.9 * rng.standard_normal((N, 1))
             + 1.4 * rng.standard_normal((N, 1)) * u)
    y = Fs[10] + noise
    P = random_posterior(rng, N, enum.size)
    moments = moments_of(P, y, nonhomog=True)
    stats = nonhomog_sufficient_stats(moments, F)
    prev = NonHomogRIParams(sigma2=1.0, d1=0.1, d2=0.1)
    s2, d1, d2 = update_nonhomog_ri(moments, F, prev)
    old = nonhomog_expected_term(prev.sigma2, prev.d1, prev.d2, n, N, stats)
    new = nonhomog_expected_term(s2, max(d1, 1e-300), max(d2, 1e-300), n, N,
                                 stats)
    assert new >= old - 1e-10 * abs(old)
    assert s2 > 0 and d1 >= 0 and d2 >= 0


def nonhomog_problem(shared, second, n=6, N=40, seed=1):
    """A posterior concentrated on one state vector s0, and responses about
    its curves with a shared intercept of sd ``shared`` and an intercept of
    sd ``second`` on s0's state-2 points.  Returns the E-step moments and
    the curves."""
    rng = np.random.default_rng(seed)
    enum = enumerate_states(n, 2)
    F = rng.standard_normal((2, n))
    Fs = gathered_curves(F, enum.states)
    E2 = (enum.states == 1).astype(float)
    s0 = rng.integers(enum.size)
    y = (Fs[s0] + 0.5 * rng.standard_normal((N, n))
         + shared * rng.standard_normal((N, 1))
         + second * rng.standard_normal((N, 1)) * E2[s0])
    logits = rng.standard_normal((N, enum.size))
    logits[:, s0] += 8.0
    P = np.exp(logits)
    return moments_of(P / P.sum(axis=1, keepdims=True), y, nonhomog=True), F


@pytest.mark.parametrize("start", [(1.0, 0.3, 0.3), (1.0, 0.0, 0.0)],
                         ids=["start-inside", "start-at-zero"])
@pytest.mark.parametrize("shared, second, zeros", [
    (1.0, 1.0, []), (0.0, 1.0, [1]), (1.0, 0.0, [2])],
    ids=["interior", "d1-zero", "d2-zero"])
def test_update_nonhomog_reaches_a_stationary_point(shared, second, zeros,
                                                    start):
    """The profiled Newton search is at least as high as the Nelder-Mead
    oracle, and no coordinate can rise further: the derivative in log theta
    vanishes on positive coordinates, and the one-sided slope into a zero
    bound is negative."""
    moments, F = nonhomog_problem(shared, second)
    N, n = moments.N, F.shape[1]
    stats = nonhomog_sufficient_stats(moments, F)
    prev = NonHomogRIParams(*start)

    def objective(theta):
        return nonhomog_expected_term(*theta, n, N, stats)

    theta = update_nonhomog_ri(moments, F, prev)
    ref = objective(nonhomog_simplex_update(moments, F, prev))
    assert objective(theta) >= ref - 1e-12 * abs(ref)
    assert [i for i in (1, 2) if theta[i] == 0.0] == zeros
    h = 1e-5
    for i, value in enumerate(theta):
        up, down = list(theta), list(theta)
        if value > 0:
            up[i], down[i] = value * np.exp(h), value * np.exp(-h)
            slope = (objective(up) - objective(down)) / (2 * h)
            assert abs(slope) <= 1e-8 * N * n
        else:
            up[i] = h
            assert objective(up) < objective(theta)


def test_update_nonhomog_is_continuous_in_the_posterior(monkeypatch):
    """A one-ulp change in one posterior sum moves (sigma2, d1, d2) by no
    more than rounding, at every M-step of a fit.  Trying a step whose
    predicted gain is below f's rounding, and keeping it if f fell, let
    such a change move d2 by up to 3e-7 relative here."""
    calls = []

    def record(moments, F, prev):
        calls.append((moments, F, prev))
        return update_nonhomog_ri(moments, F, prev)

    monkeypatch.setattr(covariance, "update_nonhomog_ri", record)
    design = sim.SimDesign(kind="markov", N=100, x=np.linspace(1, 100, 8))
    data = sim.generate_dataset(design, 39)[0]
    ecm_fit(data, LatentSpec(kind="markov", J=2),
            CovSpec(kind="nonhomog_ri"), lambdas=1e-4)
    assert len(calls) >= 3
    for moments, F, prev in calls:
        base = update_nonhomog_ri(moments, F, prev)
        g = int(np.argmax(moments.lin[:, :2, 0].sum(axis=1)))
        for c in range(moments.lin.shape[2]):
            lin = moments.lin.copy()
            lin[g, 0, c] = np.nextafter(lin[g, 0, c], 0.0)
            np.testing.assert_allclose(
                update_nonhomog_ri(dataclasses.replace(moments, lin=lin),
                                   F, prev),
                base, rtol=1e-10, atol=0.0)


def test_update_state_diag_matches_weighted_average():
    rng = np.random.default_rng(11)
    n, N, J = 4, 3, 2
    F = rng.standard_normal((J, n))
    y = rng.standard_normal((N, n))
    marg = rng.dirichlet(np.ones(J), size=(N, n))
    sigma2 = update_state_diag(marg, y, F, [1.0, 1.0])
    for j in range(J):
        num = den = 0.0
        for k in range(N):
            for i in range(n):
                num += marg[k, i, j] * (y[k, i] - F[j, i]) ** 2
                den += marg[k, i, j]
        assert sigma2[j] == pytest.approx(num / den, rel=1e-12)


def test_update_state_diag_empty_state_and_zero_residual():
    y = np.ones((2, 3))
    F = np.stack([np.zeros(3), np.ones(3)])
    marg = np.zeros((2, 3, 2))
    marg[:, :, 0] = 1.0
    sigma2 = update_state_diag(marg, y, F, [9.0, 7.0])
    assert sigma2[1] == 7.0
    assert sigma2[0] == pytest.approx(1.0)
    # exact fit with mass present is a hard error, not a silent zero
    marg2 = np.zeros((2, 3, 2))
    marg2[:, :, 1] = 1.0
    with pytest.raises(NonPositiveSigma):
        update_state_diag(marg2, y, F, [9.0, 7.0])


def test_update_iso_pooled():
    rng = np.random.default_rng(12)
    n, N, J = 5, 4, 2
    F = rng.standard_normal((J, n))
    y = rng.standard_normal((N, n))
    marg = rng.dirichlet(np.ones(J), size=(N, n))
    got = update_iso(marg, y, F)
    want = 0.0
    for k in range(N):
        for i in range(n):
            for j in range(J):
                want += marg[k, i, j] * (y[k, i] - F[j, i]) ** 2
    assert got == pytest.approx(want / (N * n), rel=1e-12)
    flat = np.zeros((1, n, 1))
    flat[:, :, 0] = 1.0
    assert update_iso(flat, F[:1] + 1.0, F[:1]) == pytest.approx(1.0)


def test_homog_update_recovers_simulated_components():
    """Monte Carlo sanity: with the posteriors pinned on the generating
    state vector, the closed-form update lands near the truth."""
    rng = np.random.default_rng(13)
    n, N = 6, 4000
    sigma2, d = 0.25, 0.5
    enum = enumerate_states(n, 2)
    F = rng.standard_normal((2, n))
    Fs = gathered_curves(F, enum.states)
    s_true = 37
    y = (Fs[s_true]
         + math.sqrt(sigma2) * rng.standard_normal((N, n))
         + math.sqrt(sigma2 * d) * rng.standard_normal((N, 1)))
    P = np.zeros((N, enum.size))
    P[:, s_true] = 1.0
    s2_hat, d_hat = update_homog_ri(moments_of(P, y), F)
    assert 0.93 * sigma2 < s2_hat < 1.07 * sigma2
    assert 0.8 * d < d_hat < 1.2 * d
