"""ECM internals: coefficient systems, E-step routes, and the driver.

Coefficient updates are compared against normal equations assembled with
explicit loops over state vectors and grid points.  The pointwise and
forward-backward E-step routes are compared against the brute-force
enumeration E-step in the test oracles.
"""

import logging
import tracemalloc

import numpy as np
import pytest

from switchcurve import datamodel as dm
from switchcurve import latent as lat_mod
from switchcurve import sim
from switchcurve.basis import basis_matrix, build_basis, penalty_matrix
from switchcurve.datamodel import (CovSpec, CovariateParams, HomogRIParams,
                                   IIDParams, IsoDiagParams, LatentSpec,
                                   MarkovParams, MultiCurveDataset,
                                   NonHomogRIParams, StateDiagParams, Theta,
                                   UnrestrictedParams, theta_to_dict)
from switchcurve.em import (_solve_spd, classify_marginals, e_step, ecm_fit,
                            general_normal_system, initialize,
                            penalty_value, update_f_diagonal,
                            update_f_general, weight_matrices)
from switchcurve.errors import (BadInit, EnumerationTooLarge,
                                MonotonicityViolation, NotSPD,
                                SingularSystem, SpecMismatch)
from switchcurve.latent import enumerate_states

from oracles import (enumerated_e_step, enumeration_joint_dense,
                     estep_from_joint, gather_curves, gather_curves_fancy,
                     general_normal_system_dense, joint_posterior_dense,
                     joint_posterior_full, log_prior_dense,
                     loglik_table_dense, loglik_table_whole,
                     louis_information_dense, nonhomog_normal_system_loop,
                     pairwise_einsum, update_homog_ri_dense,
                     update_unrestricted_dense)

LAM = 1e-4


def test_solve_spd_retries_a_singular_matrix_with_a_ridge(caplog):
    # the second pivot is exactly 1 - 1 = 0
    A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
    b = np.array([1.0, 1.0, 3.0])
    with caplog.at_level(logging.WARNING, logger="switchcurve.em"):
        x = _solve_spd(A, b, "probe")
    assert "probe: singular normal matrix, retrying with ridge" in caplog.text
    ridge = 1e-10 * np.trace(A) / 3
    np.testing.assert_allclose((A + ridge * np.eye(3)) @ x, b, atol=1e-12)
    np.testing.assert_allclose(_solve_spd(A + np.eye(3), b, "probe"),
                               np.linalg.solve(A + np.eye(3), b), rtol=1e-14)


def test_solve_spd_raises_singular_system_on_an_indefinite_matrix():
    with pytest.raises(SingularSystem, match="probe"):
        _solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2), "probe")


def two_state_data(seed=0, N=12, n=10, spread=1.0, noise=0.15, M=0):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, n)
    base = np.sin(2.0 * np.pi * x)
    f = np.stack([base, base + spread])
    z = rng.integers(0, 2, (N, n))
    y = f[z, np.arange(n)] + noise * rng.standard_normal((N, n))
    v = rng.standard_normal((N, n, M)) if M else None
    return MultiCurveDataset(x=x, y=y, covariates=v), f, z


def design(n, K):
    x = np.linspace(0.0, 1.0, n)
    basis = build_basis(x, K)
    return x, basis_matrix(basis, x), penalty_matrix(basis)


def test_gather_and_weights_against_loops():
    rng = np.random.default_rng(1)
    F = rng.standard_normal((3, 5))
    states = rng.integers(0, 3, (7, 5))
    Fs = gather_curves(F, states)
    for s in range(7):
        for i in range(5):
            assert Fs[s, i] == F[states[s, i], i]
    marg = rng.dirichlet(np.ones(3), size=(2, 5))
    W = weight_matrices(marg, np.array([0.5, 1.0, 2.0]))
    np.testing.assert_allclose(W, marg / [0.5, 1.0, 2.0], atol=1e-16)
    np.testing.assert_allclose(weight_matrices(marg, 0.5), marg / 0.5,
                               atol=1e-16)


@pytest.mark.parametrize("n,J", [(1, 2), (5, 3), (14, 2), (65, 3)])
def test_gather_curves_matches_fancy_indexing(n, J):
    """Bit for bit; at (J - 1) n >= 128 an int8 product s_i * n would
    overflow, so the flat index must be formed in intp."""
    rng = np.random.default_rng(n * J)
    F = rng.standard_normal((J, n))
    if J ** n <= 2 ** 14:
        states = enumerate_states(n, J).states
    else:
        states = rng.integers(0, J, (40, n)).astype(np.int8)
        states[0] = J - 1
    np.testing.assert_array_equal(gather_curves(F, states),
                                  gather_curves_fancy(F, states))


def test_classify_marginals_breaks_ties_low():
    marg = np.array([[[0.5, 0.5], [0.7, 0.3], [0.2, 0.8]]])
    labels, tie = classify_marginals(marg)
    np.testing.assert_array_equal(labels[0], [0, 0, 1])
    np.testing.assert_array_equal(tie[0], [True, False, False])


def test_penalty_value_matches_loop():
    rng = np.random.default_rng(2)
    _, _, R = design(8, 6)
    theta = Theta(phi=rng.standard_normal((2, 6)),
                  latent=IIDParams(p=[0.5, 0.5]),
                  cov=IsoDiagParams(sigma2=1.0),
                  lambdas=np.array([0.3, 1.7]))
    want = 0.0
    for lam, phi in zip(theta.lambdas, theta.phi):
        want += lam * float(phi @ R @ phi)
    assert penalty_value(theta, R) == pytest.approx(want, rel=1e-14)


def test_diagonal_coefficient_update_solves_loop_system():
    rng = np.random.default_rng(3)
    n, N, K = 9, 4, 6
    _, B, R = design(n, K)
    y = rng.standard_normal((N, n))
    marg = rng.dirichlet(np.ones(2), size=(N, n))
    sigma2 = np.array([0.4, 1.1])
    lambdas = [0.02, 0.3]
    phi = update_f_diagonal(B, R, lambdas, y, marg, sigma2)
    for j in range(2):
        M = 2.0 * lambdas[j] * R.copy()
        rhs = np.zeros(K)
        for k in range(N):
            w = marg[k, :, j] / sigma2[j]
            M += B.T @ np.diag(w) @ B
            rhs += B.T @ (w * y[k])
        np.testing.assert_allclose(phi[j], np.linalg.solve(M, rhs),
                                   rtol=1e-9, atol=1e-12)


def dense_vinv(kind, params, states_row):
    n = states_row.size
    ones = np.ones((n, n))
    if kind == "iso_diag":
        V = params.sigma2 * np.eye(n)
    elif kind == "unrestricted":
        V = params.V
    elif kind == "homog_ri":
        V = params.sigma2 * (np.eye(n) + params.d * ones)
    else:
        u = (states_row == 1).astype(float)
        V = params.sigma2 * (np.eye(n) + params.d1 * ones
                             + params.d2 * np.outer(u, u))
    return np.linalg.inv(V)


# explicit ids keep each case's test name stable across edits of the list
GENERAL_KINDS = [
    pytest.param("iso_diag", IsoDiagParams(sigma2=0.5),
                 id="iso_diag-params0"),
    pytest.param("unrestricted", None, id="unrestricted-None"),
    pytest.param("homog_ri", HomogRIParams(sigma2=0.5, d=0.8),
                 id="homog_ri-params3"),
    pytest.param("nonhomog_ri",
                 NonHomogRIParams(sigma2=0.5, d1=0.3, d2=1.1),
                 id="nonhomog_ri-params4"),
]


@pytest.mark.parametrize("kind,params", GENERAL_KINDS)
def test_general_coefficient_update_solves_loop_system(kind, params):
    """The stacked JK x JK system, re-assembled state vector by state
    vector with scalar loops."""
    rng = np.random.default_rng(4)
    n, N, K, J = 4, 3, 4, 2
    _, B, R = design(n, K)
    if kind == "unrestricted":
        A0 = rng.standard_normal((n, n))
        params = UnrestrictedParams(V=A0 @ A0.T + n * np.eye(n))
    enum = enumerate_states(n, J)
    y = rng.standard_normal((N, n))
    P = rng.uniform(0.1, 1.0, (N, enum.size))
    P /= P.sum(axis=1, keepdims=True)
    lambdas = np.array([0.05, 0.4])

    from switchcurve.covariance import make_structure
    cov = make_structure(CovSpec(kind=kind), params, n)
    moments = estep_from_joint(P, y, enum, "iid",
                               nonhomog=kind == "nonhomog_ri").moments
    phi = update_f_general(B, R, lambdas, cov, moments)

    JK = J * K
    A = np.zeros((JK, JK))
    b = np.zeros(JK)
    w = P.sum(axis=0)
    ytil = P.T @ y
    for s in range(enum.size):
        Vi = dense_vinv(kind, params, enum.states[s])
        for i in range(n):
            ji = enum.states[s, i]
            for q in range(n):
                jq = enum.states[s, q]
                for a in range(K):
                    b_idx = ji * K + a
                    for c in range(K):
                        A[b_idx, jq * K + c] += \
                            w[s] * B[i, a] * Vi[i, q] * B[q, c]
                    b[b_idx] += B[i, a] * Vi[i, q] * ytil[s, q]
    for j in range(J):
        A[j * K:(j + 1) * K, j * K:(j + 1) * K] += 2.0 * lambdas[j] * R
    want = np.linalg.solve(A, b).reshape(J, K)
    np.testing.assert_allclose(phi, want, rtol=1e-8, atol=1e-10)

    got_A, got_b = general_normal_system(B, R, lambdas, cov, moments)
    np.testing.assert_allclose(got_A, A, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(got_b, b, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("n", [4, 7])
@pytest.mark.parametrize("d1,d2", [(0.3, 1.1), (0.0, 0.7), (0.9, 0.0)])
def test_nonhomog_normal_system_matches_state_vector_loop(n, d1, d2):
    """The rank-one (Sherman-Morrison) Gram-product form against V_s^{-1}
    built per state vector."""
    rng = np.random.default_rng(40 + n)
    N, K, J = 6, min(n, 5), 2
    _, B, R = design(n, K)
    enum = enumerate_states(n, J)
    y = rng.standard_normal((N, n)) + 3.0
    P = rng.uniform(0.1, 1.0, (N, enum.size))
    P /= P.sum(axis=1, keepdims=True)
    lambdas = np.array([0.05, 0.4])
    params = NonHomogRIParams(sigma2=0.5, d1=d1, d2=d2)

    from switchcurve.covariance import make_structure
    cov = make_structure(CovSpec(kind="nonhomog_ri"), params, n)
    moments = estep_from_joint(P, y, enum, "iid", nonhomog=True).moments
    got_A, got_b = general_normal_system(B, R, lambdas, cov, moments)
    A, b = nonhomog_normal_system_loop(B, R, lambdas, y, params, enum, P)
    np.testing.assert_allclose(got_A, A, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(A)))
    np.testing.assert_allclose(got_b, b, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(b)))


@pytest.mark.parametrize("kind,params", GENERAL_KINDS)
@pytest.mark.parametrize("n", [4, 7])
def test_normal_system_path_is_searched_once_per_shape(kind, params, n,
                                                       monkeypatch):
    """A and b with the contraction order cached per shape are bit for bit
    those of a fresh ``optimize=True`` search on every call."""
    from switchcurve import em
    from switchcurve.covariance import make_structure
    rng = np.random.default_rng(40 + n)
    N, K, J = 6, min(n, 5), 2
    _, B, R = design(n, K)
    if kind == "unrestricted":
        A0 = rng.standard_normal((n, n))
        params = UnrestrictedParams(V=A0 @ A0.T + n * np.eye(n))
    enum = enumerate_states(n, J)
    y = rng.standard_normal((N, n)) + 3.0
    P = rng.uniform(0.1, 1.0, (N, enum.size))
    P /= P.sum(axis=1, keepdims=True)
    cov = make_structure(CovSpec(kind=kind), params, n)
    moments = estep_from_joint(P, y, enum, "iid",
                               nonhomog=kind == "nonhomog_ri").moments
    args = B, R, np.array([0.05, 0.4]), cov, moments
    cached = general_normal_system(*args)
    hits = em._normal_system_path.cache_info().hits
    assert [np.array_equal(g, w) for g, w in
            zip(general_normal_system(*args), cached)] == [True, True]
    assert em._normal_system_path.cache_info().hits == hits + 1
    monkeypatch.setattr(em, "_normal_system_path", lambda n, J, K: True)
    searched = general_normal_system(*args)
    for g, w in zip(cached, searched):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("lat_kind", ["iid", "markov", "covariate"])
@pytest.mark.parametrize("cov_kind", ["iso_diag", "state_diag"])
def test_estep_diagonal_route_matches_enumeration(lat_kind, cov_kind):
    rng = np.random.default_rng(5)
    n, N, J = 6, 5, 2
    data, _, _ = two_state_data(seed=5, N=N, n=n, M=1)
    _, B, _ = design(n, 5)
    phi = rng.standard_normal((J, 5))
    F = phi @ B.T
    if lat_kind == "iid":
        alpha = IIDParams(p=[0.35, 0.65])
    elif lat_kind == "markov":
        alpha = MarkovParams(pi=[0.5, 0.5], A=[[0.8, 0.2], [0.3, 0.7]])
    else:
        alpha = CovariateParams(beta=[[0.2, 0.8]])
    cov = IsoDiagParams(sigma2=0.3) if cov_kind == "iso_diag" \
        else StateDiagParams(sigma2=[0.2, 0.5])
    theta = Theta(phi=phi, latent=alpha, cov=cov,
                  lambdas=np.full(J, LAM))
    spec = LatentSpec(kind=lat_kind, J=J)
    cspec = CovSpec(kind=cov_kind)

    fast = e_step(data, F, theta, spec, cspec)
    enum = enumerate_states(n, J)
    slow = enumerated_e_step(data, F, theta, spec, cspec, enum)
    np.testing.assert_allclose(fast.loglik, slow.loglik, rtol=1e-12)
    np.testing.assert_allclose(fast.marginals, slow.marginals, atol=1e-11)
    if lat_kind == "markov":
        np.testing.assert_allclose(fast.pairwise, slow.pairwise, atol=1e-11)


@pytest.mark.parametrize("cov_kind", ["iso_diag", "homog_ri"])
def test_markov_e_step_carries_transition_totals(cov_kind):
    """Both routes hand the latent M-step the (N, J, J) expected
    transition counts per replicate; only forward-backward keeps its
    per-point pair table."""
    rng = np.random.default_rng(6)
    n, J, N = 6, 2, 5
    data, _, _ = two_state_data(seed=6, N=N, n=n)
    _, B, _ = design(n, 5)
    F = rng.standard_normal((J, 5)) @ B.T
    cov = IsoDiagParams(sigma2=0.3) if cov_kind == "iso_diag" \
        else HomogRIParams(sigma2=0.3, d=0.4)
    theta = Theta(phi=np.zeros((J, 5)),
                  latent=MarkovParams(pi=[0.4, 0.6],
                                      A=[[0.8, 0.2], [0.3, 0.7]]),
                  cov=cov, lambdas=np.full(J, LAM))
    spec, cspec = LatentSpec(kind="markov", J=J), CovSpec(kind=cov_kind)
    enum = enumerate_states(n, J)
    step = e_step(data, F, theta, spec, cspec, enum=enum)
    assert step.transitions.shape == (N, J, J)
    if cspec.diagonal:
        np.testing.assert_array_equal(step.transitions,
                                      step.pairwise.sum(axis=1))
    else:
        assert step.pairwise is None
        live, _, cols = enumeration_joint_dense(data, F, theta, spec, cspec,
                                                enum)
        P = np.zeros((N, enum.size))
        P[:, cols] = live
        np.testing.assert_allclose(
            step.transitions, pairwise_einsum(P, enum).sum(axis=1),
            atol=1e-13)


def _rel_err(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


STRUCTURED_PARAMS = {
    "homog_ri": lambda s2: HomogRIParams(sigma2=s2, d=0.5),
    "unrestricted": lambda s2: UnrestrictedParams(
        V=s2 * (np.eye(8) + 0.5 * np.ones((8, 8)))),
    "nonhomog_ri": lambda s2: NonHomogRIParams(sigma2=s2, d1=0.5, d2=0.3)}
LATENT_PARAMS = {
    "iid": IIDParams(p=[0.4, 0.6]),
    "markov": MarkovParams(pi=[0.4, 0.6], A=[[0.7, 0.3], [0.4, 0.6]]),
    "covariate": CovariateParams(beta=[[0.2, 0.5]]),
    # no 2 -> 1 moves: every state vector with one has a -inf prior
    "markov-zero": MarkovParams(pi=[0.4, 0.6], A=[[0.7, 0.3], [0.0, 1.0]])}


@pytest.mark.parametrize("lat_kind", list(LATENT_PARAMS))
@pytest.mark.parametrize("cov_kind", list(STRUCTURED_PARAMS))
def test_compact_joint_matches_the_dense_route(lat_kind, cov_kind,
                                               monkeypatch):
    """The E-step writes each block of replicates' log joint in one
    augmented GEMM, normalizes only the columns that can carry mass, and
    hands on marginals, transition counts and fixed-size moments.  On one
    block its log-likelihoods and marginals are, bit for bit, those of
    ``joint_posterior`` on the package's ``loglik_table``.  That joint's
    entries more than T = ln S + 36.8 below their row's largest are exact
    zeros, the others bit for bit an oracle's with the same cut on the same
    columns, and each row drops at most e^-36.8 of the uncut dense joint's
    mass.  The dense route builds the log densities, adds the row and
    column terms and an (N, S) prior table and normalizes every column:
    both keep mass on the same columns, with the same probabilities up to
    the rounding of the GEMM's sum, and every consumer of the moments
    matches its dense-P form on the dense table.  Blocks of 4 replicates,
    reduced 4 state vectors at a time, give the one-block outputs.  At noise 1 every state vector keeps mass,
    as in a fit's first E-step; at noise 0.03 against a state gap of 1, a
    state vector two points off a replicate's own is below the cut; at
    noise 0.02 against a state gap of 0.14, 40 replicates put entries
    within 1 of the cut on both sides of it (and no replicate's
    log-likelihood near 0, where rtol reads rounding)."""
    from switchcurve import covariance
    from switchcurve.covariance import (make_structure,
                                        nonhomog_sufficient_stats,
                                        update_homog_ri, update_nonhomog_ri,
                                        update_unrestricted)
    from switchcurve.inference import louis_information_generic
    from switchcurve.latent import (joint_posterior, log_prior_table,
                                    marginals_from_joint)
    from oracles import marginals_einsum, nonhomog_sufficient_stats_dense

    n, J, K = 8, 2, 5
    _, B, R = design(n, K)
    alpha = LATENT_PARAMS[lat_kind]
    spec = LatentSpec(kind=lat_kind.split("-")[0], J=J)
    cspec = CovSpec(kind=cov_kind)
    enum = enumerate_states(n, J)
    for noise, spread, N in ((0.03, 1.0, 6), (0.02, 0.14, 40),
                             (1.0, 1.0, 6)):
        rng = np.random.default_rng(14)
        data, f, _ = two_state_data(seed=14, N=N, n=n, spread=spread,
                                    noise=noise, M=1)
        cov = STRUCTURED_PARAMS[cov_kind](noise ** 2)
        theta = Theta(phi=np.zeros((J, K)), latent=alpha, cov=cov,
                      lambdas=np.full(J, LAM))
        step = e_step(data, f, theta, spec, cspec, enum=enum)
        assert step.joint is None

        structure = make_structure(cspec, cov, n)
        E2 = enum.onehot[:, :, 1] if cov_kind == "nonhomog_ri" else None
        prior = log_prior_table(enum, spec, alpha,
                                covariates=data.covariates)
        W = loglik_table_whole(structure, data.y, f, enum.states, E2=E2,
                               prior=prior)
        own, own_ll, cols = joint_posterior(W.copy())
        cols = np.arange(enum.size)[cols]       # slice(None) when dense
        np.testing.assert_array_equal(step.loglik, own_ll)
        np.testing.assert_array_equal(step.marginals,
                                      marginals_from_joint(own, enum, cols))
        T = np.log(enum.size) + 36.8
        same, same_ll = joint_posterior_full(
            np.take(W, cols, axis=1), np.zeros(cols.size), cut=T)
        np.testing.assert_array_equal(own, same)
        np.testing.assert_array_equal(own_ll, same_ll)
        gap = W - W.max(axis=1, keepdims=True)
        np.testing.assert_array_equal(own == 0.0,
                                      np.take(gap, cols, axis=1) < -T)
        if N == 40:
            assert np.any((gap >= -T - 1.0) & (gap < -T))
            assert np.any((gap >= -T) & (gap < -T + 1.0))
        cut = np.zeros((N, enum.size))
        cut[:, cols] = own
        uncut, _ = joint_posterior_dense(
            loglik_table_dense(structure, data.y,
                               gather_curves(f, enum.states), E2=E2),
            log_prior_dense(prior))
        assert np.all(np.where(cut > 0.0, 0.0, uncut).sum(axis=1)
                      <= np.exp(-36.8))
        live = np.flatnonzero(cut.any(axis=0))
        if lat_kind == "markov-zero":
            assert 0 < live.size < enum.size // 2
        elif noise == 1.0:
            assert live.size == enum.size
        elif noise == 0.03:
            assert 0 < live.size < enum.size // 4

        dense, ll, dense_cols = enumeration_joint_dense(data, f, theta, spec,
                                                        cspec, enum)
        np.testing.assert_array_equal(dense_cols, live)
        P = np.zeros((N, enum.size))
        P[:, dense_cols] = dense
        np.testing.assert_allclose(cut, P, rtol=0, atol=1e-13)
        np.testing.assert_allclose(step.loglik, ll, rtol=1e-13)
        np.testing.assert_allclose(step.marginals, marginals_einsum(P, enum),
                                   rtol=0, atol=1e-13)
        if spec.kind == "markov":
            assert _rel_err(step.transitions,
                            pairwise_einsum(P, enum).sum(axis=1)) < 1e-13

        with monkeypatch.context() as patch:
            # blocks of 4 replicates, reduced 4 state vectors at a time
            patch.setattr(lat_mod, "block_rows", lambda S, width=1: 4)
            blocked = e_step(data, f, theta, spec, cspec, enum=enum)
        np.testing.assert_allclose(blocked.loglik, step.loglik, rtol=1e-14)
        np.testing.assert_allclose(blocked.marginals, step.marginals,
                                   rtol=0, atol=1e-14)
        for name in ("C", "cooc", "lin"):
            assert _rel_err(getattr(blocked.moments, name),
                            getattr(step.moments, name)) < 1e-13

        got = general_normal_system(B, R, theta.lambdas, structure,
                                    step.moments)
        want = general_normal_system_dense(B, R, theta.lambdas, data.y,
                                           structure, enum, P)
        for g, w in zip(got, want):
            assert _rel_err(g, w) < 1e-12
        # the covariance M-steps at curves away from the E-step's
        F_new = f + 0.01 * rng.standard_normal(f.shape)
        Fs = gather_curves(F_new, enum.states)
        assert _rel_err(update_homog_ri(step.moments, F_new),
                        update_homog_ri_dense(P, data.y, Fs)) < 1e-12
        assert _rel_err(update_unrestricted(step.moments, F_new),
                        update_unrestricted_dense(P, data.y, Fs)) < 1e-12
        if cov_kind == "nonhomog_ri":
            stats = nonhomog_sufficient_stats_dense(P, data.y, Fs, E2)
            for g, w in zip(nonhomog_sufficient_stats(step.moments, F_new),
                            stats):
                assert _rel_err(g, w) < 1e-12
            with monkeypatch.context() as patch:
                patch.setattr(covariance, "nonhomog_sufficient_stats",
                              lambda moments, F: stats)
                want = update_nonhomog_ri(step.moments, F_new, cov)
            assert _rel_err(update_nonhomog_ri(step.moments, F_new, cov),
                            want) < 1e-12
        if lat_kind == "markov-zero":
            continue        # a21 = 0 is on the boundary: no information
        info, labels = louis_information_generic(
            step, spec, alpha, covariates=data.covariates)
        want_info, want_labels = louis_information_dense(
            P, enum, spec, alpha, covariates=data.covariates)
        assert labels == want_labels
        assert _rel_err(info, want_info) < 1e-12


def test_e_step_blocks_hold_at_least_the_factors_rows(monkeypatch):
    """At n = 17 the block bytes hold 4 rows of 2**17 columns, fewer than
    the 20 rows of the homog_ri right factor, so 30 replicates run in
    blocks of 20 and 10; each block names its replicates from its first."""
    n, N = 17, 30
    data, f, _ = two_state_data(seed=3, N=N, n=n)
    theta = Theta(phi=np.zeros((2, 5)), latent=LATENT_PARAMS["markov"],
                  cov=HomogRIParams(sigma2=0.02, d=0.5),
                  lambdas=np.full(2, LAM))
    seen, joint_posterior = [], lat_mod.joint_posterior

    def spy(W, first=0):
        seen.append((first, W.shape[0]))
        return joint_posterior(W, first=first)

    monkeypatch.setattr(lat_mod, "joint_posterior", spy)
    assert lat_mod._BLOCK_BYTES // (8 * 2 ** n) < n + 3
    step = e_step(data, f, theta, LatentSpec(kind="markov", J=2),
                  CovSpec(kind="homog_ri"), enum=enumerate_states(n, 2))
    assert seen == [(0, n + 3), (n + 3, N - n - 3)]
    assert np.all(np.isfinite(step.loglik))


def test_collapsing_unrestricted_covariance_raises_not_spd():
    """A markov x unrestricted fit whose V collapses onto a subspace: the
    objective climbs without bound while V's conditioning grows, until the
    expanded quadratic form can no longer resolve the ascent check.  The
    fit stops with NotSPD naming the condition number and the ECM
    iteration, not a MonotonicityViolation read off rounding."""
    design = sim.SimDesign(kind="markov", N=20, x=np.linspace(1, 100, 14))
    data = sim.generate_dataset(design, 3)[0]
    with pytest.raises(NotSPD, match=r"ECM iteration \d+: V's correlation "
                       r"matrix has condition number [0-9.]+e\+0[78], "
                       r"beyond the 4.5e\+07"):
        ecm_fit(data, LatentSpec(kind="markov", J=2),
                CovSpec(kind="unrestricted"), lambdas=LAM)


def test_monotonicity_violation_names_the_iteration(monkeypatch):
    """A covariance M-step that lowers the objective stops the fit with a
    typed failure carrying both objectives and the ECM iteration whose
    E-step saw the drop."""
    from switchcurve import covariance
    data, _, _ = two_state_data(seed=8)
    monkeypatch.setattr(covariance, "update_iso", lambda *args: 100.0)
    with pytest.raises(MonotonicityViolation,
                       match="ECM iteration 1: objective decreased") as info:
        ecm_fit(data, LatentSpec(kind="iid", J=2), CovSpec(kind="iso_diag"),
                lambdas=LAM, compute_se=False)
    assert info.value.iteration == 1
    assert info.value.current < info.value.previous


@pytest.mark.parametrize("kind,seeds", [("markov", (2, 34, 55)),
                                        ("iid", (2, 8, 9, 23, 40, 43))])
def test_homog_ri_fits_ascend_when_d_clamps_at_zero(kind, seeds):
    """Data without a random intercept (tau2 = 0) drive the unconstrained
    d below 0.  The covariance M-step then returns the conditional
    maximum at d = 0, so these quantile-split fits ascend to convergence
    with SEs; with sigma2 left at its unconstrained-d value each of them
    stopped on a MonotonicityViolation."""
    for seed in seeds:
        design = sim.SimDesign(kind=kind, N=40, tau2=0.0)
        data = sim.generate_dataset(design, seed)[0]
        fit = ecm_fit(data, LatentSpec(kind=kind, J=2),
                      CovSpec(kind="homog_ri"), lambdas=design.lambdas)
        trace = fit.loglik_trace
        assert fit.converged and fit.theta.cov.d == 0.0, seed
        assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1])), seed
        assert fit.std_errors is not None, seed


def test_single_state_fit_is_a_penalized_spline():
    data, _, _ = two_state_data(seed=7, N=6, n=12, spread=0.0)
    report = ecm_fit(data, LatentSpec(kind="iid", J=1),
                     CovSpec(kind="iso_diag"), lambdas=0.05, K=7,
                     tol=1e-12, compute_se=False)
    assert report.converged
    np.testing.assert_array_equal(report.posteriors, 1.0)
    x, B, R = design(12, 7)
    s2 = report.theta.cov.sigma2
    M = (data.n_replicates / s2) * (B.T @ B) + 2.0 * 0.05 * R
    rhs = B.T @ data.y.sum(axis=0) / s2
    np.testing.assert_allclose(report.curves[0],
                               B @ np.linalg.solve(M, rhs),
                               rtol=1e-6, atol=1e-8)


def test_fit_report_is_internally_consistent():
    data, _, _ = two_state_data(seed=8)
    report = ecm_fit(data, LatentSpec(kind="iid", J=2),
                     CovSpec(kind="state_diag"), lambdas=LAM,
                     compute_se=False)
    assert report.converged
    assert report.iterations >= 1
    trace = report.loglik_trace
    scale = np.maximum(1.0, np.abs(trace[:-1]))
    assert np.all(np.diff(trace) >= -1e-8 * scale)
    basis = build_basis(data.x, None)
    np.testing.assert_array_equal(report.knots, basis.knots)
    B = basis_matrix(basis, data.x)
    np.testing.assert_allclose(report.curves, report.theta.phi @ B.T,
                               atol=1e-14)
    np.testing.assert_allclose(report.posteriors.sum(axis=2), 1.0,
                               atol=1e-12)
    np.testing.assert_array_equal(report.x, data.x)


def test_fit_stops_with_warning_at_iteration_cap():
    data, _, _ = two_state_data(seed=9)
    report = ecm_fit(data, LatentSpec(kind="iid", J=2),
                     CovSpec(kind="iso_diag"), lambdas=LAM, max_iter=1,
                     compute_se=False)
    assert not report.converged
    assert "not_converged" in report.warnings
    assert report.iterations == 1
    assert report.loglik_trace.size == 2


def test_fit_with_no_iteration_budget_evaluates_the_start():
    data, _, _ = two_state_data(seed=9)
    report = ecm_fit(data, LatentSpec(kind="iid", J=2),
                     CovSpec(kind="iso_diag"), lambdas=LAM, max_iter=0,
                     compute_se=False)
    assert not report.converged
    assert report.warnings == ["not_converged"]
    assert report.iterations == 0
    assert report.loglik_trace.size == 1


def test_ecm_fit_refuses_negative_or_nan_lambdas():
    data, _, _ = two_state_data(seed=11)
    for lambdas in (-5.0, float("nan")):
        with pytest.raises(SpecMismatch, match="lambdas"):
            ecm_fit(data, LatentSpec(kind="iid", J=2),
                    CovSpec(kind="state_diag"), lambdas=lambdas,
                    max_iter=3, compute_se=False)


def test_relabeling_the_init_permutes_the_fit():
    data, _, _ = two_state_data(seed=11, spread=1.5, noise=0.1)
    base = ecm_fit(data, LatentSpec(kind="iid", J=2),
                   CovSpec(kind="state_diag"), lambdas=LAM, max_iter=30,
                   compute_se=False)
    doc = theta_to_dict(base.theta)
    swapped = dict(doc)
    swapped["phi"] = doc["phi"][::-1]
    swapped["alpha"] = {"p": doc["alpha"]["p"][::-1]}
    swapped["cov"] = {"sigma2": doc["cov"]["sigma2"][::-1]}
    kw = dict(lambdas=LAM, max_iter=10, tol=1e-12, compute_se=False)
    r1 = ecm_fit(data, LatentSpec(kind="iid", J=2),
                 CovSpec(kind="state_diag"), init=doc, **kw)
    r2 = ecm_fit(data, LatentSpec(kind="iid", J=2),
                 CovSpec(kind="state_diag"), init=swapped, **kw)
    np.testing.assert_allclose(r1.loglik_trace, r2.loglik_trace, rtol=1e-12)
    np.testing.assert_allclose(r1.curves, r2.curves[::-1], atol=1e-10)
    np.testing.assert_allclose(r1.theta.latent.p,
                               r2.theta.latent.p[::-1], atol=1e-12)


def test_initialize_quantile_split_orders_states_low_to_high():
    data, _, _ = two_state_data(seed=12, spread=2.0, noise=0.1)
    x, B, R = design(10, 6)
    theta = initialize(data, LatentSpec(kind="iid", J=2),
                       CovSpec(kind="state_diag"), B, R, [LAM, LAM])
    assert theta.phi.shape == (2, 6)
    curves = theta.phi @ B.T
    assert curves[0].mean() < curves[1].mean()
    assert np.all(theta.latent.p >= 0.05)
    assert theta.latent.p.sum() == pytest.approx(1.0)
    assert np.all(theta.cov.sigma2 > 0)

    mk = initialize(data, LatentSpec(kind="markov", J=2),
                    CovSpec(kind="iso_diag"), B, R, [LAM, LAM])
    np.testing.assert_allclose(mk.latent.A.sum(axis=1), 1.0, atol=1e-12)
    assert mk.latent.pi.sum() == pytest.approx(1.0)

    data_v, _, _ = two_state_data(seed=12, spread=2.0, noise=0.1, M=1)
    cv = initialize(data_v, LatentSpec(kind="covariate", J=2),
                    CovSpec(kind="iso_diag"), B, R, [LAM, LAM])
    assert cv.latent.beta.shape == (1, 2)


def test_initialize_uses_a_supplied_theta_verbatim():
    data, _, _ = two_state_data(seed=13, n=8)
    x, B, R = design(8, 5)
    doc = {"phi": np.arange(10.0).reshape(2, 5).tolist(),
           "alpha": {"p": [0.3, 0.7]},
           "cov": {"sigma2": 0.2},
           "lambdas": [LAM, LAM]}
    theta = initialize(data, LatentSpec(kind="iid", J=2),
                       CovSpec(kind="iso_diag"), B, R, [LAM, LAM], init=doc)
    np.testing.assert_array_equal(theta.phi, doc["phi"])
    assert theta.cov.sigma2 == 0.2

    bad = dict(doc, phi=[[0.0] * 4] * 2)
    with pytest.raises(BadInit, match="phi"):
        initialize(data, LatentSpec(kind="iid", J=2),
                   CovSpec(kind="iso_diag"), B, R, [LAM, LAM], init=bad)
    bad = dict(doc, alpha={"p": [0.5, 0.6]})
    with pytest.raises(BadInit, match="probability"):
        initialize(data, LatentSpec(kind="iid", J=2),
                   CovSpec(kind="iso_diag"), B, R, [LAM, LAM], init=bad)
    bad = dict(doc, cov={"sigma2": -1.0})
    with pytest.raises(BadInit, match="positive"):
        initialize(data, LatentSpec(kind="iid", J=2),
                   CovSpec(kind="iso_diag"), B, R, [LAM, LAM], init=bad)


SUPPLIED_ALPHA = {"iid": {"p": [0.3, 0.7]},
                  "markov": {"pi": [0.5, 0.5], "A": [[0.9, 0.1], [0.2, 0.8]]},
                  "covariate": {"beta": [[0.0, 0.5]]}}
SUPPLIED_COV = {"iso_diag": {"sigma2": 0.2},
                "state_diag": {"sigma2": [0.2, 0.3]},
                "unrestricted": {"V": (0.2 * np.eye(8)).tolist()},
                "homog_ri": {"sigma2": 0.2, "d": 0.5},
                "nonhomog_ri": {"sigma2": 0.2, "d1": 0.5, "d2": 0.5}}


@pytest.mark.parametrize("latent,cov,part,key,bad", [
    ("iid", "iso_diag", None, "phi", np.nan),
    ("iid", "iso_diag", "alpha", "p", np.nan),
    ("markov", "iso_diag", "alpha", "pi", np.nan),
    ("markov", "iso_diag", "alpha", "A", np.inf),
    ("covariate", "iso_diag", "alpha", "beta", np.nan),
    ("iid", "iso_diag", "cov", "sigma2", np.nan),
    ("iid", "state_diag", "cov", "sigma2", np.inf),
    ("iid", "unrestricted", "cov", "V", np.inf),
    ("iid", "homog_ri", "cov", "sigma2", np.nan),
    ("iid", "homog_ri", "cov", "d", np.nan),
    ("iid", "nonhomog_ri", "cov", "d1", np.inf),
    ("iid", "nonhomog_ri", "cov", "d2", np.nan),
])
def test_initialize_refuses_a_non_finite_supplied_value(latent, cov, part,
                                                         key, bad):
    data, _, _ = two_state_data(seed=13, n=8,
                                M=1 if latent == "covariate" else 0)
    x, B, R = design(8, 5)
    doc = {"phi": np.arange(10.0).reshape(2, 5).tolist(),
           "alpha": SUPPLIED_ALPHA[latent], "cov": SUPPLIED_COV[cov],
           "lambdas": [LAM, LAM]}
    latent_spec, cov_spec = LatentSpec(kind=latent, J=2), CovSpec(kind=cov)
    initialize(data, latent_spec, cov_spec, B, R, [LAM, LAM], init=doc)

    section = doc if part is None else dict(doc[part])
    value = np.array(section[key], dtype=float)
    value.flat[0] = bad
    section[key] = value.tolist()
    poisoned = section if part is None else dict(doc, **{part: section})
    with pytest.raises(BadInit, match=f"{key} must be finite"):
        initialize(data, latent_spec, cov_spec, B, R, [LAM, LAM],
                   init=poisoned)


@pytest.mark.parametrize("latent, cov", [
    ("markov", "homog_ri"), ("markov", "nonhomog_ri"),
    ("iid", "unrestricted"), ("covariate", "homog_ri")])
def test_validate_estimate_bounds_the_fits_peak_bytes(latent, cov,
                                                      monkeypatch):
    """The bytes ``validate`` checks against the budget hold, within 1.5x,
    the tracemalloc peak of a fit with SEs from a cold enumeration cache,
    also at N = 1000, where (N, S) tables would outweigh every other
    term."""
    estimates = []
    monkeypatch.setattr(dm, "refuse_over_budget",
                        lambda need, what: estimates.append(need))
    specs = LatentSpec(kind=latent, J=2), CovSpec(kind=cov)
    for N, n in ((50, 12), (200, 10), (1000, 10)):
        design = sim.SimDesign(kind=latent, N=N, x=np.linspace(1, 100, n))
        data = sim.generate_dataset(design, 3)[0]
        # a first fit makes the allocations a process makes only once
        ecm_fit(data, *specs, lambdas=LAM)
        enumerate_states.cache_clear()
        tracemalloc.start()
        try:
            fit = ecm_fit(data, *specs, lambdas=LAM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.std_errors is not None
        assert peak <= estimates[-1] <= 1.5 * peak, (N, n)


@pytest.mark.parametrize("cov", ["homog_ri", "nonhomog_ri"])
def test_validate_estimate_covers_small_fits(cov, monkeypatch):
    """With fewer replicates than grid points the (S, n)-sized temporaries
    of the E-step and the coefficient update outweigh the (N, S) tables:
    the estimate still holds the tracemalloc peak of a Markov fit with
    SEs from a cold enumeration cache."""
    estimates = []
    monkeypatch.setattr(dm, "refuse_over_budget",
                        lambda need, what: estimates.append(need))
    specs = LatentSpec(kind="markov", J=2), CovSpec(kind=cov)
    for N, n in ((5, 13), (10, 12)):
        design = sim.SimDesign(kind="markov", N=N, x=np.linspace(1, 100, n))
        data = sim.generate_dataset(design, 3)[0]
        ecm_fit(data, *specs, lambdas=LAM)
        enumerate_states.cache_clear()
        tracemalloc.start()
        try:
            fit = ecm_fit(data, *specs, lambdas=LAM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.std_errors is not None
        assert peak <= estimates[-1], (N, n)


def test_structured_fit_peak_does_not_grow_with_replicates():
    """The E-step holds one block of replicates at a time and hands on
    fixed-size moments, so a markov x homog_ri fit's tracemalloc peak at
    N = 1000 exceeds the one at N = 100 by at most one block's bytes and
    a few (N, n, J) outputs."""
    n, J = 12, 2
    specs = LatentSpec(kind="markov", J=J), CovSpec(kind="homog_ri")
    peaks = {}
    for N in (100, 1000):
        design = sim.SimDesign(kind="markov", N=N, x=np.linspace(1, 100, n))
        data = sim.generate_dataset(design, 3)[0]
        ecm_fit(data, *specs, lambdas=LAM)
        tracemalloc.start()
        try:
            fit = ecm_fit(data, *specs, lambdas=LAM)
            peaks[N] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.std_errors is not None
    outputs = 4 * 8 * 1000 * n * J
    assert peaks[1000] - peaks[100] <= lat_mod._BLOCK_BYTES + outputs, peaks


def test_fit_refuses_oversized_enumeration(monkeypatch):
    monkeypatch.setattr(lat_mod, "memory_budget", lambda: 2 ** 33)
    rng = np.random.default_rng(14)
    x = np.linspace(0.0, 1.0, 25)
    data = MultiCurveDataset(x=x, y=rng.standard_normal((2, 25)))
    with pytest.raises(EnumerationTooLarge):
        ecm_fit(data, LatentSpec(kind="iid", J=2),
                CovSpec(kind="unrestricted"), lambdas=LAM)
