"""ECM internals: coefficient systems, E-step routes, and the driver.

Coefficient updates are compared against normal equations assembled with
explicit loops over state vectors and grid points.  The pointwise and
forward-backward E-step routes are compared against the brute-force
enumeration E-step in the test oracles.
"""

import logging

import numpy as np
import pytest

from switchcurve.basis import basis_matrix, build_basis, penalty_matrix
from switchcurve.datamodel import (CovSpec, CovariateParams, HomogRIParams,
                                   IIDParams, IsoDiagParams, LatentSpec,
                                   MarkovParams, MultiCurveDataset,
                                   NonHomogRIParams, StateDiagParams, Theta,
                                   UnrestrictedParams, theta_to_dict)
from switchcurve.em import (_solve_spd, classify_marginals, e_step, ecm_fit,
                            gather_curves, general_normal_system, initialize,
                            penalty_value, update_f_diagonal,
                            update_f_general, weight_matrices)
from switchcurve.errors import (BadInit, EnumerationTooLarge, SingularSystem,
                                SpecMismatch)
from switchcurve.latent import enumerate_states

from oracles import (enumerated_e_step, gather_curves_fancy,
                     nonhomog_normal_system_loop, pairwise_einsum)

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
    phi = update_f_general(B, R, lambdas, y, cov, enum, P)

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

    got_A, got_b = general_normal_system(B, R, lambdas, y, cov, enum, P)
    np.testing.assert_allclose(got_A, A, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(got_b, b, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("n", [4, 7])
@pytest.mark.parametrize("d1,d2", [(0.3, 1.1), (0.0, 0.7), (0.9, 0.0)])
def test_nonhomog_normal_system_matches_state_vector_loop(n, d1, d2):
    """The Woodbury Gram-product form against V_s^{-1} built per state
    vector."""
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
    got_A, got_b = general_normal_system(B, R, lambdas, y, cov, enum, P)
    A, b = nonhomog_normal_system_loop(B, R, lambdas, y, params, enum, P)
    np.testing.assert_allclose(got_A, A, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(A)))
    np.testing.assert_allclose(got_b, b, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(b)))


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
        np.testing.assert_allclose(
            fast.pairwise, pairwise_einsum(slow.joint, enum), atol=1e-11)


@pytest.mark.parametrize("cov_kind", ["iso_diag", "homog_ri"])
def test_markov_e_step_carries_transition_totals(cov_kind):
    """Both routes hand the latent M-step the (J, J) expected transition
    totals; only forward-backward keeps its per-point pair table."""
    rng = np.random.default_rng(6)
    n, J = 6, 2
    data, _, _ = two_state_data(seed=6, N=5, n=n)
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
    assert step.transitions.shape == (J, J)
    if cspec.diagonal:
        np.testing.assert_array_equal(step.transitions,
                                      step.pairwise.sum(axis=(0, 1)))
    else:
        assert step.pairwise is None
        np.testing.assert_allclose(
            step.transitions,
            pairwise_einsum(step.joint, step.enum).sum(axis=(0, 1)),
            atol=1e-13)


def _rel_err(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("lat_kind", ["iid", "markov", "covariate"])
@pytest.mark.parametrize("cov_kind", ["homog_ri", "unrestricted",
                                      "nonhomog_ri"])
def test_compact_joint_matches_the_dense_route(lat_kind, cov_kind):
    """The E-step keeps the joint's columns with mass and their state
    vectors.  Scattered back, the compact joint is the dense table bit for
    bit, and every consumer on (step.joint, step.enum) matches the dense
    table on the full enumeration."""
    from switchcurve.covariance import (make_structure, update_homog_ri,
                                        update_nonhomog_ri,
                                        update_unrestricted)
    from switchcurve.inference import louis_information_generic
    from switchcurve.latent import (joint_posterior, log_prior_table,
                                    marginals_from_joint,
                                    pairwise_from_joint)

    rng = np.random.default_rng(14)
    n, N, J, K = 8, 6, 2, 5
    # noise 0.03 against a state gap of 1: a state vector two points off
    # a replicate's own is below log(tiny) there
    data, f, _ = two_state_data(seed=14, N=N, n=n, noise=0.03, M=1)
    _, B, R = design(n, K)
    s2 = 0.03 ** 2
    cov = {"homog_ri": HomogRIParams(sigma2=s2, d=0.5),
           "unrestricted": UnrestrictedParams(
               V=s2 * (np.eye(n) + 0.5 * np.ones((n, n)))),
           "nonhomog_ri": NonHomogRIParams(sigma2=s2, d1=0.5, d2=0.3)}
    alpha = {"iid": IIDParams(p=[0.4, 0.6]),
             "markov": MarkovParams(pi=[0.4, 0.6],
                                    A=[[0.7, 0.3], [0.4, 0.6]]),
             "covariate": CovariateParams(beta=[[0.2, 0.5]])}[lat_kind]
    theta = Theta(phi=np.zeros((J, K)), latent=alpha, cov=cov[cov_kind],
                  lambdas=np.full(J, LAM))
    spec, cspec = LatentSpec(kind=lat_kind, J=J), CovSpec(kind=cov_kind)
    enum = enumerate_states(n, J)
    step = e_step(data, f, theta, spec, cspec, enum=enum)

    structure = make_structure(cspec, theta.cov, n)
    E2 = enum.onehot[:, :, 1] if cov_kind == "nonhomog_ri" else None
    P, ll = joint_posterior(
        structure.loglik_table(data.y, gather_curves(f, enum.states), E2=E2),
        log_prior_table(enum, spec, alpha, covariates=data.covariates))
    cols = step.enum.states.astype(int) @ J ** np.arange(n)
    assert 0 < cols.size < enum.size
    assert np.all(np.diff(cols) > 0)
    scattered = np.zeros_like(P)
    scattered[:, cols] = step.joint
    np.testing.assert_array_equal(scattered, P)
    for name in ("onehot", "counts", "trans"):
        np.testing.assert_array_equal(getattr(step.enum, name),
                                      getattr(enum, name)[cols])

    np.testing.assert_allclose(step.loglik, ll, rtol=1e-13)
    np.testing.assert_allclose(step.marginals, marginals_from_joint(P, enum),
                               rtol=0, atol=1e-13)
    if lat_kind == "markov":
        assert _rel_err(step.transitions, pairwise_from_joint(P, enum)) \
            < 1e-13

    got = general_normal_system(B, R, theta.lambdas, data.y, structure,
                                step.enum, step.joint)
    want = general_normal_system(B, R, theta.lambdas, data.y, structure,
                                 enum, P)
    for g, w in zip(got, want):
        assert _rel_err(g, w) < 1e-12
    # the covariance M-steps at curves away from the E-step's
    F_new = f + 0.01 * rng.standard_normal(f.shape)
    Fs, Fs_live = (gather_curves(F_new, e.states) for e in (enum,
                                                             step.enum))
    assert _rel_err(update_homog_ri(step.joint, data.y, Fs_live),
                    update_homog_ri(P, data.y, Fs)) < 1e-12
    assert _rel_err(update_unrestricted(step.joint, data.y, Fs_live),
                    update_unrestricted(P, data.y, Fs)) < 1e-12
    prev = cov["nonhomog_ri"]
    assert _rel_err(
        update_nonhomog_ri(step.joint, data.y, Fs_live,
                           step.enum.onehot[:, :, 1], prev),
        update_nonhomog_ri(P, data.y, Fs, enum.onehot[:, :, 1], prev)) \
        < 1e-12
    info, labels = louis_information_generic(
        step.joint, step.enum, spec, alpha, covariates=data.covariates)
    want_info, want_labels = louis_information_generic(
        P, enum, spec, alpha, covariates=data.covariates)
    assert labels == want_labels
    assert _rel_err(info, want_info) < 1e-12


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


def test_fit_refuses_oversized_enumeration():
    rng = np.random.default_rng(14)
    x = np.linspace(0.0, 1.0, 25)
    data = MultiCurveDataset(x=x, y=rng.standard_normal((2, 25)))
    with pytest.raises(EnumerationTooLarge):
        ecm_fit(data, LatentSpec(kind="iid", J=2),
                CovSpec(kind="unrestricted"), lambdas=LAM)
