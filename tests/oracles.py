"""Slow reference forms of the enumeration-route kernels.

The package computes these contractions as matrix products against
flattened state tables.  The forms here follow the definitions term by
term (explicit einsums, per-state-vector and per-replicate loops), so the
tests can hold the fast paths to them.
"""

import numpy as np


def vinv_for_state(params, n, u):
    """Dense V_s^{-1} for one nonhomog_ri state-2 indicator u (Woodbury)."""
    u = np.asarray(u, dtype=float)
    U = np.column_stack([np.ones(n), u])
    C = np.diag([params.d1, params.d2])
    core = np.linalg.solve(np.eye(2) + (U.T @ U) @ C, U.T)
    return (np.eye(n) - U @ C @ core) / params.sigma2


def nonhomog_normal_system_loop(B, R, lambdas, y, params, enum, P):
    """The stacked JK x JK nonhomog_ri normal system, one state vector at
    a time."""
    n, K = B.shape
    J = enum.J
    JK = J * K
    w = P.sum(axis=0)
    ytil = P.T @ y
    A = np.zeros((JK, JK))
    b = np.zeros(JK)
    for s in range(enum.size):
        Vi = vinv_for_state(params, n, enum.onehot[s, :, 1])
        ind = enum.onehot[s]                            # (n, J)
        Bw = [B * ind[:, j][:, None] for j in range(J)]
        for j in range(J):
            ViBj = Vi @ Bw[j]
            for l in range(J):
                A[j * K:(j + 1) * K, l * K:(l + 1) * K] += \
                    w[s] * (ViBj.T @ Bw[l])
            b[j * K:(j + 1) * K] += ViBj.T @ ytil[s]
    for j in range(J):
        A[j * K:(j + 1) * K, j * K:(j + 1) * K] += 2.0 * lambdas[j] * R
    return A, b


def marginals_einsum(P, enum):
    """(N, n, J) pointwise posteriors, contracted over the one-hot tensor."""
    return np.einsum("ks,sij->kij", P, enum.onehot)


def pairwise_einsum(P, enum):
    """(N, n-1, J, J) neighbouring-pair posteriors, via the pair tensor."""
    pair = np.einsum("sil,sij->silj", enum.onehot[:, :-1, :],
                     enum.onehot[:, 1:, :])
    return np.einsum("ks,silj->kilj", P, pair)


def score_second_moment_einsum(P, G):
    """sum_k sum_s P_ks G_s G_s', the Louis T2 term."""
    return np.einsum("ks,sa,sb->ab", P, G, G)


def covariate_moments_loop(P, enum, beta, covariates):
    """(T2, gbar) of the two-state logistic model from per-replicate
    (S, M+1) score tables."""
    N, n, M = covariates.shape
    X = np.concatenate([np.ones((N, n, 1)), covariates], axis=2)
    eta = X @ np.concatenate([[beta[0, 0]], beta[0, 1:]])
    mu = 1.0 / (1.0 + np.exp(-eta))
    ind2 = enum.onehot[:, :, 1]
    T2 = np.zeros((M + 1, M + 1))
    gbar = np.empty((N, M + 1))
    for k in range(N):
        G = np.einsum("si,ip->sp", ind2 - mu[k][None, :], X[k])
        T2 += np.einsum("s,sa,sb->ab", P[k], G, G)
        gbar[k] = P[k] @ G
    return T2, gbar


def intercept_sums_tables(P, y, Fs, E2):
    """(A, b2, bc, c2) of the intercept kinds from the (N, S, n) residual
    tensor r_ks = y_k - Fs_s: A = sum P r'r, and per state vector the sums
    over k of P (1'r)^2, P (1'r)(u'r) and P (u'r)^2."""
    r = y[:, None, :] - Fs[None, :, :]
    t1 = r.sum(axis=2)
    t2 = np.einsum("ksi,si->ks", r, E2)
    return (float(np.einsum("ks,ksi,ksi->", P, r, r)),
            (P * t1 * t1).sum(axis=0), (P * t1 * t2).sum(axis=0),
            (P * t2 * t2).sum(axis=0))
