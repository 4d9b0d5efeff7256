"""Latent-state machinery against loop-based brute force.

The oracle below enumerates state vectors with plain Python loops and
dictionaries, shares nothing with the vectorized package path, and is the
comparator for the enumeration tables, the joint posterior, and the scaled
forward-backward pass.
"""

import io
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from switchcurve import latent as lat_mod
from switchcurve.datamodel import (CovariateParams, IIDParams, LatentSpec,
                                   MarkovParams)
from switchcurve.errors import DegenerateLikelihood, EnumerationTooLarge
from switchcurve.latent import (enumerate_states, forward_backward,
                                joint_posterior, log_prior_single,
                                log_prior_table, log_state_probs,
                                marginal_posterior_pointwise,
                                marginals_from_joint, pairwise_from_joint,
                                update_alpha)

from oracles import (expected_latent_loglik, indicator_moments_hstack,
                     joint_posterior_dense, joint_posterior_full,
                     joint_posterior_scattered, log_prior_dense,
                     marginals_einsum, pairwise_einsum)



def test_logsumexp_matches_scipy():
    rng = np.random.default_rng(21)
    random = 3.0 * rng.standard_normal((30, 6))
    large = rng.uniform(-700.0, 700.0, (30, 6))
    large[:10] = 700.0 - rng.uniform(0.0, 3.0, (10, 6))
    large[10:20] = -700.0 - rng.uniform(0.0, 80.0, (10, 6))
    infs = random.copy()
    infs[::3, 2] = -np.inf
    infs[4] = -np.inf
    for a in (random, large, infs, random.reshape(5, 6, 6), random[0]):
        got = lat_mod._logsumexp(a)
        want = logsumexp(a, axis=-1, keepdims=True)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)
    assert np.isneginf(lat_mod._logsumexp(infs)[4, 0])


@pytest.mark.parametrize("J", [2, 3])
def test_logsumexp_sums_in_numpys_order(J):
    """At a short last axis numpy's own reduction adds the columns left to
    right, as the column-by-column form does: equal to the last bit."""
    rng = np.random.default_rng(J)
    a = 5.0 * rng.standard_normal((100, 10, J))
    a[::7, :, 0] = -np.inf
    a[3, 4] = -np.inf
    m = np.max(a, axis=-1, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    with np.errstate(divide="ignore"):
        want = np.log(np.sum(np.exp(a - m), axis=-1, keepdims=True)) + m
    np.testing.assert_array_equal(lat_mod._logsumexp(a), want)


def test_newton_search_holds_a_bound_coordinate_at_zero():
    """f = (x - c)'H(x - c) / 2 with c[1] < 0: on x >= 0 the minimum has
    x[1] = 0 and x[0] at its conditional minimum c[0] + H01 c[1] / H00."""
    H = np.array([[2.0, 0.6], [0.6, 1.0]])
    c = np.array([1.0, -0.5])

    def fgh(x):
        r = x - c
        return 0.5 * r @ H @ r, H @ r, H

    x, ok = lat_mod.newton_search(fgh, [3.0, 2.0], 1.0, bounded=True)
    assert ok
    assert x[1] == 0.0
    assert x[0] == pytest.approx(c[0] + H[0, 1] * c[1] / H[0, 0], rel=1e-12)
    free, _ = lat_mod.newton_search(fgh, [3.0, 2.0], 1.0)
    np.testing.assert_allclose(free, c, rtol=1e-12)


def test_newton_search_descends_where_the_hessian_is_indefinite():
    """f = x0^2 - x1^2 + x1^4 / 2 at (1, 0.1): H = diag(2, -1.94), whose
    plain Newton step climbs in x1; the search still lowers f and ends at
    a minimum, (0, +-1)."""
    def fgh(x):
        return (x[0] ** 2 - x[1] ** 2 + 0.5 * x[1] ** 4,
                np.array([2.0 * x[0], -2.0 * x[1] + 2.0 * x[1] ** 3]),
                np.diag([2.0, -2.0 + 6.0 * x[1] ** 2]))

    start = np.array([1.0, 0.1])
    assert np.linalg.eigvalsh(fgh(start)[2])[0] < 0
    x, ok = lat_mod.newton_search(fgh, start, 1.0)
    assert ok
    assert fgh(x)[0] < fgh(start)[0]
    np.testing.assert_allclose(np.abs(x), [0.0, 1.0], atol=1e-8)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def all_vectors(n, J):
    """State vectors in canonical order: first point cycles fastest."""
    out = []
    for idx in range(J ** n):
        out.append(tuple((idx // J ** i) % J for i in range(n)))
    return out


def brute_posteriors(pointwise, logprior_rows, vectors):
    """Joint posterior summaries by explicit summation.

    ``pointwise`` is (N, n, J) emission log densities, ``logprior_rows``
    one log prior per vector (a list per replicate, or one shared list).
    Returns (marginals, pairwise, loglik) shaped like the package API.
    """
    N, n, J = pointwise.shape
    marg = np.zeros((N, n, J))
    pair = np.zeros((N, n - 1, J, J))
    ll = np.empty(N)
    for k in range(N):
        rows = logprior_rows[k] if isinstance(logprior_rows, list) \
            else logprior_rows
        weights = {}
        for s, vec in enumerate(vectors):
            lw = rows[s]
            for i in range(n):
                lw += pointwise[k, i, vec[i]]
            weights[vec] = lw
        m = max(weights.values())
        z = sum(math.exp(w - m) for w in weights.values())
        ll[k] = m + math.log(z)
        for vec, w in weights.items():
            post = math.exp(w - m) / z
            for i in range(n):
                marg[k, i, vec[i]] += post
                if i:
                    pair[k, i - 1, vec[i - 1], vec[i]] += post
    return marg, pair, ll


def markov_logprior_rows(vectors, pi, A):
    rows = []
    for vec in vectors:
        lp = math.log(pi[vec[0]])
        for a, b in zip(vec[:-1], vec[1:]):
            lp += math.log(A[a, b])
        rows.append(lp)
    return rows


def random_stochastic(rng, J):
    pi = rng.uniform(0.2, 1.0, J)
    A = rng.uniform(0.2, 1.0, (J, J))
    return pi / pi.sum(), A / A.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumeration_order_is_frozen():
    enum = enumerate_states(3, 2)
    expected = np.array([
        [0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
        [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]])
    np.testing.assert_array_equal(enum.states, expected)
    np.testing.assert_array_equal(
        enumerate_states(2, 3).states,
        [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1],
         [0, 2], [1, 2], [2, 2]])


def test_enumeration_tables_match_loops():
    enum = enumerate_states(4, 3)
    vectors = all_vectors(4, 3)
    assert enum.size == 81
    np.testing.assert_array_equal(enum.states, vectors)
    for s, vec in enumerate(vectors):
        for i, z in enumerate(vec):
            onerow = np.zeros(3)
            onerow[z] = 1.0
            np.testing.assert_array_equal(enum.onehot[s, i], onerow)
        for j in range(3):
            assert enum.counts[s, j] == vec.count(j)
        for a in range(3):
            for b in range(3):
                n_ab = sum(1 for u, w in zip(vec[:-1], vec[1:])
                           if (u, w) == (a, b))
                assert enum.trans[s, a, b] == n_ab


def test_enumeration_cached_and_capped(monkeypatch):
    monkeypatch.setattr(lat_mod, "memory_budget", lambda: 2 ** 33)
    assert enumerate_states(5, 2) is enumerate_states(5, 2)
    with pytest.raises(EnumerationTooLarge, match=r"2\*\*27 .* 63\.4 GiB"):
        enumerate_states(27, 2)
    # the estimate is the tables' size, exact for numpy integer inputs too
    enum = enumerate_states(4, 3)
    assert lat_mod.enumeration_bytes(np.int64(4), np.int64(3)) == sum(
        a.nbytes for a in (enum.states, enum.onehot, enum.counts, enum.trans))
    assert lat_mod.enumeration_bytes(np.int64(60), 2) == 2 ** 60 * 1068


def test_enumeration_views_share_one_table():
    """``flat``, ``onehot`` and ``trans`` are views of the one indicator
    table, whose rows are z_s = [E_s, trans_s]."""
    enum = enumerate_states(5, 3)
    assert enum.table.shape == (3 ** 5, 5 * 3 + 3 * 3)
    for view in (enum.flat, enum.onehot, enum.trans):
        assert view.base is not None and np.shares_memory(view, enum.table)
    np.testing.assert_array_equal(
        enum.table, np.hstack([enum.onehot.reshape(enum.size, -1),
                               enum.trans.reshape(enum.size, -1)]))


@pytest.mark.parametrize("n, J, nonhomog", [
    (6, 2, False), (6, 2, True), (4, 3, False)])
def test_indicator_moments_match_the_hstack_reduction(n, J, nonhomog,
                                                      monkeypatch):
    """The reduction to ``Moments``' sums reads rows of the one indicator
    table and gives, bit for bit, what stacking each block's indicator and
    transition-count rows gave; small blocks make several per stratum,
    and a third of the state vectors carry no mass."""
    monkeypatch.setattr(lat_mod, "_BLOCK_BYTES", 8 * 16 * 5)
    enum = enumerate_states(n, J)
    rng = np.random.default_rng(n + J)
    acc = rng.random((enum.size, 6 if nonhomog else 1))
    acc[rng.random(enum.size) < 1 / 3, 0] = 0.0
    got = lat_mod.indicator_moments(acc, enum, nonhomog)
    want = indicator_moments_hstack(acc, enum, nonhomog)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w, strict=True)


def test_cached_enumeration_refuses_writes():
    enum = enumerate_states(4, 2)
    before = [a.copy() for a in (enum.states, enum.onehot, enum.counts,
                                 enum.trans)]
    for a in (enum.states, enum.onehot, enum.counts, enum.trans, enum.flat):
        with pytest.raises(ValueError):
            a.flat[0] = 7
    again = enumerate_states(4, 2)
    for a, b in zip((again.states, again.onehot, again.counts, again.trans),
                    before):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("text, budget", [
    (b"MemTotal:  8000 kB\nMemAvailable:    2048 kB\n", 2 ** 20),
    (b"MemTotal:  8000 kB\n", 2 ** 32),
    (b"MemAvailable: many kB\n", 2 ** 32),
    (None, 2 ** 32)], ids=["available", "no-line", "garbled", "unreadable"])
def test_memory_budget_is_half_the_available_memory(monkeypatch, text,
                                                    budget):
    def fake_open(path, mode):
        assert path == "/proc/meminfo"
        if text is None:
            raise FileNotFoundError(path)
        return io.BytesIO(text)

    monkeypatch.setattr(lat_mod, "open", fake_open, raising=False)
    assert lat_mod.memory_budget() == budget


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------

def test_logistic_probs_frozen_value():
    """One intercept-free coefficient, v = 2: p2 = e^2 / (1 + e^2)."""
    lp = log_state_probs(np.array([[0.0, 1.0]]), np.array([[2.0]]))
    p2 = math.exp(2.0) / (1.0 + math.exp(2.0))
    assert lp.shape == (1, 2)
    assert abs(lp[0, 1] - math.log(p2)) < 1e-15
    assert abs(lp[0, 0] - math.log(1.0 - p2)) < 1e-15


def test_logistic_probs_match_scalar_softmax():
    rng = np.random.default_rng(4)
    beta = rng.standard_normal((2, 3))        # J = 3, M = 2
    v = rng.standard_normal((4, 5, 2))
    lp = log_state_probs(beta, v)
    assert lp.shape == (4, 5, 3)
    np.testing.assert_allclose(np.exp(lp).sum(axis=2), 1.0, atol=1e-14)
    for k in range(4):
        for i in range(5):
            eta = [0.0]
            for j in range(2):
                eta.append(beta[j, 0] + beta[j, 1] * v[k, i, 0]
                           + beta[j, 2] * v[k, i, 1])
            z = sum(math.exp(e) for e in eta)
            for j in range(3):
                assert abs(lp[k, i, j] - (eta[j] - math.log(z))) < 1e-12


def test_iid_prior_table_uniform():
    enum = enumerate_states(10, 2)
    table = log_prior_dense(log_prior_table(
        enum, IIDParams(p=[0.5, 0.5])))
    assert table.shape == (1024,)
    np.testing.assert_allclose(table, -10.0 * math.log(2.0), atol=1e-12)


def test_prior_table_matches_single_vector_evaluation():
    rng = np.random.default_rng(7)
    enum = enumerate_states(4, 3)
    p = rng.dirichlet(np.ones(3))
    table = log_prior_dense(log_prior_table(
        enum, IIDParams(p=p)))
    pi, A = random_stochastic(rng, 3)
    mk = MarkovParams(pi=pi, A=A)
    mtable = log_prior_dense(log_prior_table(
        enum, mk))
    for s in range(0, enum.size, 7):
        vec = enum.states[s]
        assert table[s] == pytest.approx(
            sum(math.log(p[z]) for z in vec), abs=1e-12)
        assert mtable[s] == pytest.approx(
            markov_logprior_rows([tuple(vec)], pi, A)[0], abs=1e-12)
        assert log_prior_single(
            vec, LatentSpec(kind="markov", J=3), mk) == pytest.approx(
            mtable[s], abs=1e-13)

    beta = rng.standard_normal((2, 2))
    v = rng.standard_normal((2, 4, 1))
    spec = LatentSpec(kind="covariate", J=3)
    ctable = log_prior_dense(log_prior_table(
        enum, CovariateParams(beta=beta), covariates=v))
    assert ctable.shape == (2, 81)
    lp = log_state_probs(beta, v)
    for k in range(2):
        for s in range(0, enum.size, 11):
            vec = enum.states[s]
            want = sum(lp[k, i, z] for i, z in enumerate(vec))
            assert ctable[k, s] == pytest.approx(want, abs=1e-12)
            assert log_prior_single(
                vec, spec, CovariateParams(beta=beta),
                covariate_rows=v[k]) == pytest.approx(want, abs=1e-12)


def test_prior_table_zero_probabilities_give_neginf_not_nan():
    enum = enumerate_states(3, 2)
    table = log_prior_dense(log_prior_table(
        enum, IIDParams(p=[1.0, 0.0])))
    assert not np.any(np.isnan(table))
    assert table[0] == 0.0                     # the all-state-1 vector
    assert np.all(np.isneginf(table[1:]))

    frozen = MarkovParams(pi=[0.5, 0.5], A=np.eye(2))
    mtable = log_prior_dense(log_prior_table(
        enum, frozen))
    assert not np.any(np.isnan(mtable))
    const = [0, 7]                             # (0,0,0) and (1,1,1)
    np.testing.assert_allclose(mtable[const], math.log(0.5), atol=1e-15)
    mixed = [s for s in range(8) if s not in const]
    assert np.all(np.isneginf(mtable[mixed]))


# ---------------------------------------------------------------------------
# posteriors
# ---------------------------------------------------------------------------

def test_joint_posterior_two_point_hand_example():
    """Four state vectors, posteriors worked out with dict arithmetic."""
    mu = np.array([0.0, 1.0])
    y = np.array([[0.2, 0.9]])
    pointwise = -0.5 * (y[:, :, None] - mu[None, None, :]) ** 2
    p = np.array([0.3, 0.7])

    weights = {}
    for vec in all_vectors(2, 2):
        lw = math.log(p[vec[0]]) + math.log(p[vec[1]])
        lw += pointwise[0, 0, vec[0]] + pointwise[0, 1, vec[1]]
        weights[vec] = math.exp(lw)
    z = sum(weights.values())

    enum = enumerate_states(2, 2)
    loglik = np.einsum("kij,sij->ks", pointwise, enum.onehot)
    table = log_prior_table(enum, IIDParams(p=p))
    P, ll = joint_posterior_scattered(loglik, table)
    assert ll[0] == pytest.approx(math.log(z), abs=1e-14)
    for s, vec in enumerate(all_vectors(2, 2)):
        assert P[0, s] == pytest.approx(weights[vec] / z, abs=1e-14)


def test_joint_posterior_all_zero_likelihood_raises():
    loglik = np.full((2, 4), -np.inf)
    loglik[1] = -1.0
    with pytest.raises(DegenerateLikelihood, match="replicate 1: no state "
                       "vector has positive likelihood"):
        joint_posterior_scattered(loglik, np.full(4, math.log(0.25)))


def cut_for(S):
    """T = ln S + 36.8, the depth below a row's largest entry to which the
    joint posterior keeps entries."""
    return float(np.log(S)) + 36.8


def assert_dropped_mass_within_bound(uncut, P, cols):
    """The mass the cut joint ``P`` (on ``cols``) drops from each row of
    the uncut dense joint, normalized to Z = 1, is at most e^-36.8."""
    kept = np.zeros(uncut.shape, dtype=bool)
    kept[:, cols] = P > 0.0
    dropped = np.where(kept, 0.0, uncut).sum(axis=1)
    assert np.all(dropped <= math.exp(-36.8)), dropped.max()


@pytest.mark.parametrize("per_replicate", [False, True],
                         ids=["prior-S", "prior-NS"])
def test_joint_posterior_zeroes_exactly_the_entries_below_the_cut(
        per_replicate):
    """Shifted log weights in bands below -745 (exp underflows to 0), in
    [-745, -T - 1), [-T - 1, -T), [-T, -T + 1) and [-T + 1, -25], and one
    at 0, with -inf prior entries, T = ln S + 36.8: the first three bands
    come out as exact 0, the others bit for bit as an oracle's with the
    same cut, normalized over the same columns.  Columns with no entry at
    or above -T hold no mass, including those the candidate pass keeps
    because some entry lies within 1 below -T.  Against the uncut dense
    joint, each row drops at most e^-36.8 of its mass; three quarters of
    the columns sit just above -T and Z is about 1, so a cut 1 higher
    would drop more than that."""
    rng = np.random.default_rng(29)
    N, S = 5, 1000
    T = cut_for(S)
    shifted = np.concatenate([rng.uniform(-1000.0, -745.5, (N, 50)),
                              rng.uniform(-745.0, -T - 1.0, (N, 50)),
                              rng.uniform(-T - 1.0, -T, (N, 100)),
                              rng.uniform(-T, -T + 1.0, (N, 750)),
                              rng.uniform(-T + 1.0, -25.0, (N, 50))],
                             axis=1)
    shifted[:, -1] = 0.0
    # row 0 has no offset and a zero prior at the cut itself: exact there
    shifted[0, 200:202] = -T, np.nextafter(-T, -np.inf)
    offset = np.concatenate([[0.0], rng.uniform(-3.0, 3.0, N - 1)])
    prior = np.zeros((N, S) if per_replicate else S)
    if per_replicate:
        prior[1:] = rng.uniform(-5.0, 0.0, (N - 1, S))
    prior[..., 3:100:7] = -np.inf
    loglik = shifted + offset[:, None] - np.where(np.isinf(prior), 0.0,
                                                  prior)

    total = loglik + prior
    P, ll, cols = joint_posterior(total.copy())
    cols = np.arange(S)[cols]           # slice(None) when most are kept
    want_P, want_ll = joint_posterior_dense(loglik, prior)

    gap = total - total.max(axis=1, keepdims=True)
    live = gap >= -T
    assert live[0, 200] and not live[0, 201]
    np.testing.assert_array_equal(cols[P.any(axis=0)],
                                  np.flatnonzero(live.any(axis=0)))
    assert np.any((gap >= -T - 1.0).any(axis=0) & ~live.any(axis=0))
    assert np.any(want_P[~live] > 0.0)          # the oracle keeps them
    full = np.zeros_like(want_P)
    full[:, cols] = P
    assert np.all(full[~live] == 0.0) and np.all(full[live] > 0.0)
    # np.take keeps C order (total[:, cols] would not), so each row sums
    # in the package's order
    same_P, same_ll = joint_posterior_full(np.take(total, cols, axis=1),
                                           np.zeros(cols.size), cut=T)
    np.testing.assert_array_equal(P, same_P)
    np.testing.assert_array_equal(ll, same_ll)
    np.testing.assert_allclose(full[live], want_P[live], rtol=1e-14, atol=0)
    np.testing.assert_allclose(ll, want_ll, rtol=0.0, atol=1e-15)
    assert_dropped_mass_within_bound(want_P, P, cols)


def test_joint_posterior_keeps_the_dense_columns_at_any_offset():
    """Rows offset by up to 3e17, where one ulp of the row max exceeds 1
    and W - m rounds: the columns with mass are exactly those the dense
    route with the same cut gives mass, and the same entries are zero."""
    S = 8
    T = cut_for(S)
    shifted = np.array([0.0, -T, np.nextafter(-T, -np.inf), -T + 0.5,
                        -T - 0.5, -T - 1.0, -2.0, -1000.0])
    offsets = np.array([0.0, 1e3, -1e12, -2.0 ** 60, 3e17])
    W = offsets[:, None] + shifted[None, :]
    want_P, want_ll = joint_posterior_full(W, np.zeros(S), cut=T)
    P, ll, cols = joint_posterior(W.copy())
    cols = np.arange(S)[cols]
    np.testing.assert_array_equal(cols[P.any(axis=0)],
                                  np.flatnonzero(want_P.any(axis=0)))
    np.testing.assert_array_equal(P == 0, want_P[:, cols] == 0)
    np.testing.assert_array_equal(
        P, joint_posterior_full(np.take(W, cols, axis=1),
                                np.zeros(cols.size), cut=T)[0])
    np.testing.assert_allclose(P, want_P[:, cols], rtol=1e-15, atol=0)
    np.testing.assert_allclose(ll, want_ll, rtol=1e-15, atol=0)
    assert_dropped_mass_within_bound(
        joint_posterior_dense(W, np.zeros(S))[0], P, cols)

    # every column a candidate and two of them dead: the table is
    # normalized in its own buffer, shifted once, the dead columns zero
    T = cut_for(4)
    W = np.array([[0.0, -T - 0.5, -T, -T - 1.0]]) - 5.0
    P, ll, cols = joint_posterior(table := W.copy())
    assert np.shares_memory(P, table)
    assert cols == slice(None)
    np.testing.assert_array_equal(np.flatnonzero(P[0]), [0, 2])
    want_P, want_ll = joint_posterior_full(W[:, [0, 2]], np.zeros(2),
                                           cut=T)
    np.testing.assert_array_equal(P[:, [0, 2]], want_P)
    np.testing.assert_array_equal(ll, want_ll)
    assert_dropped_mass_within_bound(
        joint_posterior_dense(W, np.zeros(4))[0], P, cols)


def test_joint_posterior_takes_few_candidate_columns():
    """When at most half the columns are candidates, ``joint_posterior``
    takes them into a table of their own and leaves ``W`` as it was."""
    rng = np.random.default_rng(30)
    N, S = 6, 64
    T = cut_for(S)
    W = rng.uniform(-3.0 * T, -T - 2.0, (N, S))
    W[:, :20] = rng.uniform(-T - 0.5, 0.0, (N, 20))
    W[:, 0] = 0.0
    before = W.copy()
    P, ll, cols = joint_posterior(W)
    np.testing.assert_array_equal(W, before)
    np.testing.assert_array_equal(cols, np.arange(20))
    want_P, want_ll = joint_posterior_full(np.take(W, cols, axis=1),
                                           np.zeros(cols.size), cut=T)
    np.testing.assert_array_equal(P, want_P)
    np.testing.assert_array_equal(ll, want_ll)
    assert_dropped_mass_within_bound(
        joint_posterior_dense(W, np.zeros(S))[0], P, cols)


@pytest.mark.parametrize("loglik_entry,prior_entry", [
    (np.nan, 0.0), (np.inf, 0.0), (np.inf, -np.inf), (0.0, np.nan)],
    ids=["nan", "inf", "inf-minus-inf", "nan-prior"])
def test_joint_posterior_refuses_a_non_finite_entry(loglik_entry,
                                                    prior_entry):
    """A NaN fails every comparison, so a mask would zero it; it must
    raise instead."""
    loglik = np.zeros((3, 8))
    prior = np.full((3, 8), math.log(1.0 / 8.0))
    loglik[1, 5] = loglik_entry
    prior[1, 5] = prior_entry
    with pytest.raises(DegenerateLikelihood,
                       match="replicate 2: non-finite log-likelihood"), \
            np.errstate(invalid="ignore"):
        joint_posterior_scattered(loglik, prior)


def test_joint_posterior_names_the_replicate_of_a_later_block():
    """A block's row i is replicate first + i in the message."""
    W = np.zeros((3, 8))
    W[1] = -np.inf
    with pytest.raises(DegenerateLikelihood,
                       match="replicate 6: no state vector has positive"):
        joint_posterior(W, first=4)


def test_joint_summaries_match_brute_force():
    rng = np.random.default_rng(13)
    for J, n in [(2, 5), (3, 4)]:
        pointwise = rng.standard_normal((3, n, J)) * 2.0
        p = rng.dirichlet(np.ones(J))
        vectors = all_vectors(n, J)
        rows = [sum(math.log(p[z]) for z in vec) for vec in vectors]
        want_m, want_p, want_ll = brute_posteriors(
            pointwise, np.array(rows), vectors)

        enum = enumerate_states(n, J)
        loglik = np.einsum("kij,sij->ks", pointwise, enum.onehot)
        table = log_prior_table(enum, IIDParams(p=p))
        P, ll = joint_posterior_scattered(loglik, table)
        every = np.arange(enum.size)
        np.testing.assert_allclose(ll, want_ll, atol=1e-12)
        np.testing.assert_allclose(
            marginals_from_joint(P, enum, every), want_m, atol=1e-13)
        np.testing.assert_allclose(
            pairwise_from_joint(P, enum, every), want_p.sum(axis=1),
            atol=1e-13)


@pytest.mark.parametrize("n,J", [(10, 2), (5, 3)])
def test_flat_table_contractions_match_einsum_forms(n, J):
    """Marginal posteriors as a product with the flat (S, n*J) table and
    per-replicate transition counts as one with the (S, J*J) counts, on
    every column and on a subset; J = 3 catches a wrong column order."""
    rng = np.random.default_rng(n * J)
    enum = enumerate_states(n, J)
    loglik = rng.standard_normal((4, enum.size)) * 3.0
    for prior in (np.log(rng.dirichlet(np.ones(enum.size))),
                  rng.standard_normal((4, enum.size))):
        before = (loglik.copy(), prior.copy())
        P, _ = joint_posterior_scattered(loglik, prior)
        np.testing.assert_array_equal(loglik, before[0])
        np.testing.assert_array_equal(prior, before[1])
        every = np.arange(enum.size)
        np.testing.assert_allclose(marginals_from_joint(P, enum, every),
                                   marginals_einsum(P, enum), atol=1e-13)
        np.testing.assert_allclose(pairwise_from_joint(P, enum, every),
                                   pairwise_einsum(P, enum).sum(axis=1),
                                   atol=1e-13)
        some = every[::3]
        P[:, np.setdiff1d(every, some)] = 0.0
        np.testing.assert_allclose(
            marginals_from_joint(P[:, some], enum, some),
            marginals_einsum(P, enum), atol=1e-13)
        np.testing.assert_allclose(
            pairwise_from_joint(P[:, some], enum, some),
            pairwise_einsum(P, enum).sum(axis=1), atol=1e-13)


def test_pointwise_bayes_matches_enumeration():
    """Independent-state models: the pointwise route equals enumeration."""
    rng = np.random.default_rng(21)
    n, J = 10, 2
    enum = enumerate_states(n, J)
    pointwise = rng.standard_normal((4, n, J)) * 3.0
    loglik = np.einsum("kij,sij->ks", pointwise, enum.onehot)

    p = rng.dirichlet(np.ones(J))
    marg, ll = marginal_posterior_pointwise(pointwise, np.log(p))
    table = log_prior_table(enum, IIDParams(p=p))
    P, ll_enum = joint_posterior_scattered(loglik, table)
    np.testing.assert_allclose(ll, ll_enum, rtol=1e-12)
    np.testing.assert_allclose(
        marg, marginals_from_joint(P, enum, np.arange(enum.size)),
        atol=1e-12)

    beta = rng.standard_normal((1, 2))
    v = rng.standard_normal((4, n, 1))
    lp = log_state_probs(beta, v)
    marg, ll = marginal_posterior_pointwise(pointwise, lp)
    ctable = log_prior_table(enum, CovariateParams(beta=beta), covariates=v)
    P, ll_enum = joint_posterior_scattered(loglik, ctable)
    np.testing.assert_allclose(ll, ll_enum, rtol=1e-12)
    np.testing.assert_allclose(
        marg, marginals_from_joint(P, enum, np.arange(enum.size)),
        atol=1e-12)


def test_forward_backward_matches_brute_force():
    rng = np.random.default_rng(3)
    for J, n in [(2, 6), (3, 4)]:
        pi, A = random_stochastic(rng, J)
        pointwise = rng.standard_normal((3, n, J)) * 2.0
        marg, pair, ll = forward_backward(pointwise, pi, A)

        vectors = all_vectors(n, J)
        rows = markov_logprior_rows(vectors, pi, A)
        want_m, want_p, want_ll = brute_posteriors(
            pointwise, np.array(rows), vectors)
        np.testing.assert_allclose(ll, want_ll, atol=1e-12)
        np.testing.assert_allclose(marg, want_m, atol=1e-12)
        np.testing.assert_allclose(pair, want_p, atol=1e-12)
        np.testing.assert_allclose(pair.sum(axis=(2, 3)), 1.0, atol=1e-12)


def test_forward_backward_survives_extreme_emission_scale():
    """Shifting all emissions by a constant moves the log likelihood by
    n * constant and leaves the posteriors alone.  The shift used here
    would underflow exp() without the internal rescaling."""
    rng = np.random.default_rng(8)
    pi, A = random_stochastic(rng, 2)
    pointwise = rng.standard_normal((2, 5, 2))
    marg, pair, ll = forward_backward(pointwise, pi, A)
    marg2, pair2, ll2 = forward_backward(pointwise - 5000.0, pi, A)
    np.testing.assert_allclose(marg2, marg, atol=1e-12)
    np.testing.assert_allclose(pair2, pair, atol=1e-12)
    np.testing.assert_allclose(ll2, ll - 5 * 5000.0, rtol=1e-12)


def test_forward_backward_zero_mass_raises():
    pi = np.array([1.0, 0.0])
    A = np.eye(2)
    pointwise = np.zeros((1, 3, 2))
    pointwise[0, 1, 0] = -np.inf                 # state 1 impossible there
    with pytest.raises(DegenerateLikelihood):
        forward_backward(pointwise, pi, A)


# ---------------------------------------------------------------------------
# alpha updates
# ---------------------------------------------------------------------------

def test_iid_update_is_mean_marginal():
    rng = np.random.default_rng(5)
    marg = rng.dirichlet(np.ones(3), size=(4, 6))
    params, flags = update_alpha(IIDParams(p=np.ones(3) / 3), marg)
    assert flags == []
    np.testing.assert_allclose(params.p, marg.mean(axis=(0, 1)), atol=1e-15)
    assert params.p.sum() == pytest.approx(1.0, abs=1e-15)

    hard = np.zeros((2, 3, 2))
    hard[:, :, 0] = 1.0
    params, _ = update_alpha(IIDParams(p=[0.5, 0.5]), hard)
    np.testing.assert_array_equal(params.p, [1.0, 0.0])


def test_markov_update_moment_matching():
    rng = np.random.default_rng(9)
    pi, A = random_stochastic(rng, 2)
    pointwise = rng.standard_normal((3, 5, 2))
    marg, pair, _ = forward_backward(pointwise, pi, A)
    params, flags = update_alpha(MarkovParams(pi=pi, A=A), marg,
                                 transitions=pair.sum(axis=1))
    assert flags == []
    np.testing.assert_allclose(params.pi, marg[:, 0, :].mean(axis=0),
                               atol=1e-14)
    num = pair.sum(axis=(0, 1))
    for l in range(2):
        np.testing.assert_allclose(params.A[l], num[l] / num[l].sum(),
                                   atol=1e-14)
    np.testing.assert_allclose(params.A.sum(axis=1), 1.0, atol=1e-14)


def test_markov_update_keeps_unoccupied_rows():
    # state 2 never occupied before the last point, so its transition row
    # has no evidence and must survive unchanged
    marg = np.zeros((2, 4, 2))
    marg[:, :, 0] = 1.0
    marg[:, -1, :] = [0.5, 0.5]
    pair = np.zeros((2, 3, 2, 2))
    pair[:, :2, 0, 0] = 1.0
    pair[:, 2, 0, :] = [0.5, 0.5]
    prev = MarkovParams(pi=[0.5, 0.5], A=[[0.6, 0.4], [0.3, 0.7]])
    params, flags = update_alpha(prev, marg, transitions=pair.sum(axis=1))
    assert flags == ["zero_occupancy_row_2"]
    np.testing.assert_array_equal(params.A[1], [0.3, 0.7])
    np.testing.assert_allclose(params.A[0], [5.0 / 6.0, 1.0 / 6.0],
                               atol=1e-15)


def test_covariate_update_recovers_generating_coefficients():
    """Soft targets produced by the model itself put the optimum at the
    generating coefficients, so Newton must return them."""
    rng = np.random.default_rng(2)
    for J, M in [(2, 1), (3, 2)]:
        beta_true = rng.standard_normal((J - 1, M + 1))
        v = rng.standard_normal((6, 8, M))
        targets = np.exp(log_state_probs(beta_true, v))
        start = CovariateParams(beta=np.zeros((J - 1, M + 1)))
        params, flags = update_alpha(start, targets, covariates=v)
        assert flags == []
        np.testing.assert_allclose(params.beta, beta_true, atol=1e-7)


def test_covariate_update_flags_unfinished_newton(monkeypatch):
    monkeypatch.setattr(lat_mod, "_NEWTON_MAX_STEPS", 1)
    rng = np.random.default_rng(2)
    v = rng.standard_normal((4, 6, 1))
    targets = np.exp(log_state_probs(np.array([[0.5, -2.0]]), v))
    start = CovariateParams(beta=np.array([[8.0, 8.0]]))
    params, flags = update_alpha(start, targets, covariates=v)
    assert "newton_diverged" in flags
    assert np.all(np.isfinite(params.beta))


def test_alpha_update_increases_expected_latent_loglik():
    rng = np.random.default_rng(17)
    for _ in range(5):
        marg = rng.dirichlet(np.ones(2), size=(3, 6))
        prev = IIDParams(p=rng.dirichlet(np.ones(2)))
        spec = LatentSpec(kind="iid", J=2)
        new, _ = update_alpha(prev, marg)
        assert expected_latent_loglik(spec, new, marg) >= \
            expected_latent_loglik(spec, prev, marg) - 1e-12

        pi, A = random_stochastic(rng, 2)
        pointwise = rng.standard_normal((3, 6, 2))
        marg, pair, _ = forward_backward(pointwise, pi, A)
        prev_m = MarkovParams(*random_stochastic(rng, 2))
        spec = LatentSpec(kind="markov", J=2)
        new, _ = update_alpha(prev_m, marg,
                              transitions=pair.sum(axis=1))
        assert expected_latent_loglik(spec, new, marg, pairwise=pair) >= \
            expected_latent_loglik(spec, prev_m, marg, pairwise=pair) - 1e-12

        v = rng.standard_normal((3, 6, 1))
        marg = rng.dirichlet(np.ones(2), size=(3, 6))
        prev_c = CovariateParams(beta=rng.standard_normal((1, 2)))
        spec = LatentSpec(kind="covariate", J=2)
        new, _ = update_alpha(prev_c, marg, covariates=v)
        assert expected_latent_loglik(spec, new, marg, covariates=v) >= \
            expected_latent_loglik(spec, prev_c, marg, covariates=v) - 1e-10


def test_expected_latent_loglik_zero_probability_edge():
    spec = LatentSpec(kind="iid", J=2)
    marg = np.zeros((2, 3, 2))
    marg[:, :, 0] = 1.0
    assert expected_latent_loglik(spec, IIDParams(p=[1.0, 0.0]), marg) == 0.0

    spec = LatentSpec(kind="markov", J=2)
    pair = np.zeros((1, 2, 2, 2))
    pair[0, :, 0, 1] = 1.0                     # mass on a forbidden move
    marg = np.zeros((1, 3, 2))
    marg[0, 0, 0] = 1.0
    val = expected_latent_loglik(
        spec, MarkovParams(pi=[1.0, 0.0], A=np.eye(2)), marg, pairwise=pair)
    assert val == -np.inf
