"""Covariance kinds against dense linear algebra.

Every structured density, inverse, and determinant identity is checked
against an explicitly materialized V with scipy's multivariate normal and
numpy's generic inverse/slogdet.  M-step updates are checked against plain
double loops and against local perturbations of the objective they claim
to maximize.
"""

import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from switchcurve.covariance import (CovStructure, log_mvn_density,
                                    make_structure, nonhomog_expected_term,
                                    nonhomog_sufficient_stats,
                                    update_homog_ri, update_iso,
                                    update_nonhomog_ri, update_state_diag,
                                    update_unrestricted)
from switchcurve.datamodel import (CovSpec, HomogRIParams, IsoDiagParams,
                                   NonHomogRIParams, StateDiagParams,
                                   UnrestrictedParams)
from switchcurve.errors import NonPositiveSigma, NotSPD
from switchcurve.latent import enumerate_states

from oracles import intercept_sums_tables, vinv_for_state


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
    for kind, make in KINDS[:1] + KINDS[2:4]:    # the state-free kinds
        params = make(rng, n)
        cov = make_structure(CovSpec(kind=kind), params, n)
        V = dense_v(kind, params, n)
        np.testing.assert_allclose(cov.vinv(), np.linalg.inv(V),
                                   rtol=1e-10, atol=1e-12)
        sign, ld = np.linalg.slogdet(V)
        assert sign == 1.0
        assert cov.logdet() == pytest.approx(ld, rel=1e-12)

    params = NonHomogRIParams(sigma2=0.4, d1=0.3, d2=1.7)
    cov = make_structure(CovSpec(kind="nonhomog_ri"), params, n)
    cores = cov.intercept_cores()
    for m in range(n + 1):
        u = np.zeros(n)
        u[:m] = 1.0
        Vs = dense_v("nonhomog_ri", params, n, u=u)
        np.testing.assert_allclose(vinv_for_state(params, n, u),
                                   np.linalg.inv(Vs), rtol=1e-10, atol=1e-12)
        U = np.column_stack([np.ones(n), u])
        np.testing.assert_allclose(
            (np.eye(n) - U @ cores[m] @ U.T) / params.sigma2,
            np.linalg.inv(Vs), rtol=1e-10, atol=1e-12)
        # the rank-two determinant factorization
        det = (1.0 + n * params.d1) * (1.0 + m * params.d2) \
            - m ** 2 * params.d1 * params.d2
        sign, ld = np.linalg.slogdet(Vs)
        assert sign == 1.0
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
    E2 = (enum.states == 1).astype(float)
    inputs = (y, Fs, E2)
    before = [a.copy() for a in inputs]
    table = cov.loglik_table(y, Fs, E2=E2 if kind == "nonhomog_ri" else None)
    for a, b in zip(inputs, before):    # in-place table arithmetic only
        np.testing.assert_array_equal(a, b)
    for k in range(N):
        for s in range(enum.size):
            V = dense_v(kind, params, n, u=enum.states[s])
            want = multivariate_normal(mean=Fs[s], cov=V).logpdf(y[k])
            assert table[k, s] == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_loglik_table_guards():
    cov = make_structure(CovSpec(kind="state_diag"),
                         StateDiagParams(sigma2=[1.0, 2.0]), 3)
    with pytest.raises(ValueError, match="pointwise"):
        cov.loglik_table(np.zeros((1, 3)), np.zeros((1, 3)))
    nh = make_structure(CovSpec(kind="nonhomog_ri"),
                        NonHomogRIParams(sigma2=1.0, d1=0.1, d2=0.1), 3)
    with pytest.raises(ValueError, match="indicators"):
        nh.loglik_table(np.zeros((1, 3)), np.zeros((1, 3)))


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
    E2 = (enum.states == 1).astype(float)
    np.testing.assert_allclose(nh.loglik_table(y, Fs, E2=E2),
                               ho.loglik_table(y, Fs), rtol=1e-12)


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


def random_posterior(rng, N, S):
    P = rng.uniform(0.1, 1.0, (N, S))
    return P / P.sum(axis=1, keepdims=True)


def test_update_unrestricted_matches_double_loop():
    rng = np.random.default_rng(5)
    n, N = 4, 3
    enum = enumerate_states(n, 2)
    F = rng.standard_normal((2, n))
    Fs = gathered_curves(F, enum.states)
    y = rng.standard_normal((N, n))
    P = random_posterior(rng, N, enum.size)
    V = update_unrestricted(P, y, Fs)
    want = np.zeros((n, n))
    for k in range(N):
        for s in range(enum.size):
            r = y[k] - Fs[s]
            want += P[k, s] * np.outer(r, r)
    want /= N
    np.testing.assert_allclose(V, want, rtol=1e-12, atol=1e-14)
    np.testing.assert_array_equal(V, V.T)


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
    Fs = gathered_curves(rng.standard_normal((2, n)), enum.states)
    y = rng.standard_normal((N, n)) * 1.5
    P = random_posterior(rng, N, enum.size)
    V_hat = update_unrestricted(P, y, Fs)
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
    Fs = gathered_curves(rng.standard_normal((2, n)), enum.states)
    # draw with a genuine shared intercept so the optimum is interior
    z = rng.integers(0, 2, n)
    f = Fs[int(np.sum(z * 2 ** np.arange(n)))]
    y = f + rng.standard_normal((N, n)) * 0.7 \
        + 1.2 * rng.standard_normal((N, 1))
    P = random_posterior(rng, N, enum.size)
    sigma2, d = update_homog_ri(P, y, Fs)
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
    # residuals orthogonal to the intercept direction push d negative
    rng = np.random.default_rng(8)
    n, N = 4, 5
    y = rng.standard_normal((N, n))
    y -= y.mean(axis=1, keepdims=True)
    P = np.ones((N, 1))
    Fs = np.zeros((1, n))
    sigma2, d = update_homog_ri(P, y, Fs)
    assert d == 0.0
    assert sigma2 == pytest.approx(float(np.sum(y ** 2)) / (N * (n - 1)),
                                   rel=1e-12)


def test_nonhomog_expected_term_matches_dense_loop():
    rng = np.random.default_rng(9)
    n, N = 4, 3
    enum = enumerate_states(n, 2)
    Fs = gathered_curves(rng.standard_normal((2, n)), enum.states)
    y = rng.standard_normal((N, n))
    E2 = (enum.states == 1).astype(float)
    P = random_posterior(rng, N, enum.size)
    stats = nonhomog_sufficient_stats(P, y, Fs, E2)
    for s2, d1, d2 in [(0.5, 0.2, 0.9), (1.3, 0.0, 0.4), (0.8, 0.6, 0.0)]:
        params = NonHomogRIParams(sigma2=s2, d1=d1, d2=d2)
        want = expected_gaussian_term(
            P, y, Fs, lambda s: dense_v("nonhomog_ri", params, n, u=s),
            enum.states)
        got = nonhomog_expected_term(s2, d1, d2, n, N, stats)
        assert got == pytest.approx(want, rel=1e-10)


def test_intercept_sums_match_residual_tensor():
    """The P-contracted statistics of update_homog_ri and
    nonhomog_sufficient_stats against sums over every residual r_ks, on
    curves far from zero so the expanded squares would cancel."""
    rng = np.random.default_rng(14)
    n, N = 6, 5
    enum = enumerate_states(n, 2)
    F = rng.standard_normal((2, n)) + 50.0
    Fs = gathered_curves(F, enum.states)
    y = F[0] + rng.standard_normal((N, n)) + rng.standard_normal((N, 1))
    E2 = (enum.states == 1).astype(float)
    P = random_posterior(rng, N, enum.size)
    A, b2, bc, c2 = intercept_sums_tables(P, y, Fs, E2)
    got = nonhomog_sufficient_stats(P, y, Fs, E2)
    m = E2.sum(axis=1).astype(int)
    assert got[0] == pytest.approx(A, rel=1e-12)
    np.testing.assert_allclose(got[2], np.bincount(m, weights=P.sum(axis=0)),
                               rtol=1e-12)
    for have, per_s in zip(got[3:], (b2, bc, c2)):
        want = np.bincount(m, weights=per_s)
        np.testing.assert_allclose(have, want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))
    sigma2, d = update_homog_ri(P, y, Fs)
    ss_mean = float(b2.sum())
    want_s2 = (A - ss_mean / n) / (N * (n - 1))
    assert sigma2 == pytest.approx(want_s2, rel=1e-12)
    assert d == pytest.approx(
        max(ss_mean / (want_s2 * N * n ** 2) - 1.0 / n, 0.0), rel=1e-12)


def test_update_nonhomog_never_degrades_the_objective():
    rng = np.random.default_rng(10)
    n, N = 5, 8
    enum = enumerate_states(n, 2)
    Fs = gathered_curves(rng.standard_normal((2, n)), enum.states)
    E2 = (enum.states == 1).astype(float)
    u = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
    noise = (rng.standard_normal((N, n)) * 0.6
             + 0.9 * rng.standard_normal((N, 1))
             + 1.4 * rng.standard_normal((N, 1)) * u)
    y = Fs[10] + noise
    P = random_posterior(rng, N, enum.size)
    stats = nonhomog_sufficient_stats(P, y, Fs, E2)
    prev = NonHomogRIParams(sigma2=1.0, d1=0.1, d2=0.1)
    s2, d1, d2, flags = update_nonhomog_ri(P, y, Fs, E2, prev)
    old = nonhomog_expected_term(prev.sigma2, prev.d1, prev.d2, n, N, stats)
    new = nonhomog_expected_term(s2, max(d1, 1e-300), max(d2, 1e-300), n, N,
                                 stats)
    assert new >= old - 1e-10 * abs(old)
    assert s2 > 0 and d1 >= 0 and d2 >= 0
    assert all(f == "optimizer_stalled" for f in flags)


def test_update_state_diag_matches_weighted_average():
    rng = np.random.default_rng(11)
    n, N, J = 4, 3, 2
    F = rng.standard_normal((J, n))
    y = rng.standard_normal((N, n))
    marg = rng.dirichlet(np.ones(J), size=(N, n))
    sigma2, flags = update_state_diag(marg, y, F, [1.0, 1.0])
    assert flags == []
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
    sigma2, flags = update_state_diag(marg, y, F, [9.0, 7.0])
    assert flags == ["empty_state_2"]
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
    s2_hat, d_hat = update_homog_ri(P, y, Fs)
    assert 0.93 * sigma2 < s2_hat < 1.07 * sigma2
    assert 0.8 * d < d_hat < 1.2 * d
