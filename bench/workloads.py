"""The three benchmark workloads: inputs from a seed, one operation, a check.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns.  Operations rotate through a fixed list of
variants, and a measured phase always ends on a whole rotation, so every run
times the same mix.  Constructing a workload is its set-up: it generates the
inputs and fills the state-enumeration cache for every (n, J) it uses.
"""

import time

import numpy as np
from scipy.special import logsumexp

from switchcurve import basis, covariance, cv, em, latent, sim
from switchcurve.datamodel import CovSpec, LatentSpec

N = 100
J = 2
POOL = 16                 # datasets per variant; operations cycle through them
REL_TOL = 1e-9            # posterior row sums and brute-force log-likelihood
CV_REL_TOL = 1e-8         # literal leave-one-out refits (acceptance claim 2)

STUDY_PARAMS = {1: ("p1",), 2: ("pi1", "a12", "a21"), 3: ("beta0", "beta1")}
PROBABILITIES = ("p1", "pi1", "a12", "a21")


def derived_seed(seed, *tags):
    """A 32-bit seed drawn from the benchmark seed and fixed tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def _k(n):
    return min(n, 15)           # the package's default basis size


def _se_problems(se, names):
    problems = []
    for name in names:
        value = se.get(name, np.nan) if se else np.nan
        if not (np.isfinite(value) and value > 0):
            problems.append(f"SE of {name} is {value!r}")
    return problems


def _param_problems(params):
    problems = []
    for name, value in params.items():
        if not np.isfinite(value):
            problems.append(f"{name} = {value!r}")
        elif name in PROBABILITIES and not 0.0 < value < 1.0:
            problems.append(f"{name} = {value!r} outside (0, 1)")
        elif name.startswith("sigma2") and value <= 0:
            problems.append(f"{name} = {value!r} not positive")
        elif name == "tau2" and value < 0:
            problems.append(f"tau2 = {value!r} negative")
    return problems


class Workload:
    """Operation ``i`` runs variant ``i % rotation``.  Pooled workloads take
    their inputs from ``data[variant]``, cycling through the pool."""

    variants = ()
    data = ()

    @property
    def rotation(self):
        return len(self.variants)

    def _pick(self, i):
        v = i % self.rotation
        return self.variants[v], self.data[v][(i // self.rotation) % POOL]


class Study(Workload):
    """Replications of stock designs 1, 2 and 3 in rotation.

    Each operation is one ``sim.run_replication`` call, as
    ``run_study(..., threads=1)`` makes them: generate a dataset from the
    replication seed, fit from the truth, compute SEs, align labels.  The
    replication seeds derive from the benchmark seed.
    """

    name = "study"
    variants = (1, 2, 3)

    def __init__(self, seed):
        self.designs = {d: sim.stock_design(d) for d in self.variants}
        self.seeds = {d: derived_seed(seed, 1, d) for d in self.variants}
        n = self.designs[1].x.size
        latent.enumerate_states(n, J)       # designs 1 and 2 enumerate

    def label(self, i):
        return f"design{self.variants[i % self.rotation]}"

    def op(self, i):
        d = self.variants[i % self.rotation]
        return sim.run_replication(self.designs[d], self.seeds[d],
                                   i // self.rotation)

    def check(self, i, out, deep=False):
        d = self.variants[i % self.rotation]
        problems = [] if out["converged"] else ["did not converge"]
        return (problems + _se_problems(out["se"], STUDY_PARAMS[d])
                + _param_problems(out["params"]))

    def properties(self):
        out = {}
        for d, design in self.designs.items():
            n = design.x.size
            enum = not design.cov_spec.diagonal
            S = J ** n if enum else None
            out[f"design{d}"] = {
                "N": design.N, "n": n, "J": J, "K": _k(n), "S": S,
                "latent": design.kind, "cov": design.cov_spec.kind,
                "grid_len": None,
                "table_bytes": design.N * S * 8 if enum else 0}
        return out


class CVSelect(Workload):
    """One outer step of ``select_lambdas``, not the default outer loop.

    Markov x state_diag and iid x iso_diag alternate, on a unit-interval
    grid of 30 points without a random intercept, so the selected lambdas
    fall inside the grid.  Each selection uses the default 25-point lambda
    grid and SE setting but ``outer_max_iter=1``: a fit at the default
    starting lambda, one frozen-weight sweep of the grid per state, and the
    final fit at the picks.  The default loop alternates between two
    neighbouring picks until its cap on some inputs (about one markov x
    state_diag selection in 40 here); ``default_loop_probe`` runs it on one
    such input.
    """

    name = "cv-select"
    variants = (("markov", "state_diag"), ("iid", "iso_diag"))
    n = 30
    sigma2 = 1e-4
    # (benchmark seed, variant, pool index) of an input on which the default
    # outer loop cycles between grid indices 20 and 21 for state 2
    CYCLING_INPUT = (13, 0, 6)

    def __init__(self, seed):
        self.data = [[self._dataset(seed, v, p) for p in range(POOL)]
                     for v in range(self.rotation)]
        self.config = cv.CVConfig(outer_max_iter=1)
        x = self.data[0][0].x
        b = basis.build_basis(x)
        self.B, self.R = basis.basis_matrix(b, x), basis.penalty_matrix(b)

    def _dataset(self, seed, v, p):
        design = sim.SimDesign(kind=self.variants[v][0], N=N,
                               x=np.linspace(0.0, 1.0, self.n),
                               sigma2=self.sigma2, tau2=0.0)
        return sim.generate_dataset(design, derived_seed(seed, 2, v, p))[0]

    def default_loop_probe(self):
        """One selection with the default ``CVConfig`` on CYCLING_INPUT,
        untimed by the loop: whether it converged, its outer steps, its
        wall seconds."""
        seed, v, p = self.CYCLING_INPUT
        kind, cov_kind = self.variants[v]
        data = self._dataset(seed, v, p)
        t0 = time.perf_counter()
        out = cv.select_lambdas(data, LatentSpec(kind=kind, J=J),
                                CovSpec(kind=cov_kind))
        return {"input": f"CVSelect({seed}).data[{v}][{p}]",
                "converged": bool(out.converged), "n_outer": out.n_outer,
                "seconds": time.perf_counter() - t0}

    def label(self, i):
        (kind, cov_kind), _ = self._pick(i)
        return f"{kind}x{cov_kind}"

    def op(self, i):
        (kind, cov_kind), data = self._pick(i)
        return cv.select_lambdas(data, LatentSpec(kind=kind, J=J),
                                 CovSpec(kind=cov_kind), config=self.config)

    def check(self, i, out, deep=False):
        """Final-fit convergence and argmin picks; with ``deep``, also the
        shortcut CV score against N literal refits at the picks."""
        _, data = self._pick(i)
        problems = []
        if not out.fit.converged:
            problems.append("final fit did not converge")
        picks = np.argmin(out.scores, axis=1)
        if not np.array_equal(out.grid[picks], out.lambdas):
            problems.append(f"lambdas {out.lambdas} are not the score "
                            f"argmins {out.grid[picks]}")
        if not deep:
            return problems
        sigma2 = np.broadcast_to(
            np.atleast_1d(np.asarray(out.fit.theta.cov.sigma2, float)), (J,))
        weights = out.fit.posteriors / sigma2
        for j in range(J):
            lam = float(out.lambdas[j])
            fast, _ = cv.cv_score(self.B, self.R, lam, data.y,
                                  weights[:, :, j])
            slow = self._literal_score(lam, data.y, weights[:, :, j])
            if abs(fast - slow) > CV_REL_TOL * max(1.0, abs(slow)):
                problems.append(f"state {j + 1}: shortcut score {fast!r} vs "
                                f"literal refits {slow!r}")
        return problems

    def _literal_score(self, lam, y, weights):
        """Leave-one-replicate-out score from N literal refits."""
        total = 0.0
        keep = np.ones(y.shape[0], dtype=bool)
        for k in range(y.shape[0]):
            keep[k] = False
            M, rhs = em.diagonal_normal_system(self.B, self.R, lam,
                                               weights[keep], y[keep])
            keep[k] = True
            r = y[k] - self.B @ np.linalg.solve(M, rhs)
            total += float(np.sum(weights[k] * r * r))
        return total

    def properties(self):
        return {
            f"{kind}x{cov_kind}": {
                "N": N, "n": self.n, "J": J, "K": _k(self.n), "S": None,
                "latent": kind, "cov": cov_kind,
                "grid_len": int(cv.DEFAULT_GRID.size), "table_bytes": 0}
            for kind, cov_kind in self.variants}


class EnumWide(Workload):
    """Quantile-split fits with SEs on the enumeration route.

    Three models rotate: markov x homog_ri at n = 14, markov x nonhomog_ri
    at n = 11 and iid x unrestricted at n = 13, on data with a shared
    random intercept.
    """

    name = "enum-wide"
    variants = (("markov", "homog_ri", 14), ("markov", "nonhomog_ri", 11),
                ("iid", "unrestricted", 13))
    lambdas = 1e-4

    def __init__(self, seed):
        self.data = []
        for v, (kind, _, n) in enumerate(self.variants):
            design = sim.SimDesign(kind=kind, N=N, x=np.linspace(1, 100, n))
            self.data.append([
                sim.generate_dataset(design, derived_seed(seed, 3, v, p))[0]
                for p in range(POOL)])
            latent.enumerate_states(n, J)
        self.replicate = derived_seed(seed, 3) % N

    def label(self, i):
        (kind, cov_kind, n), _ = self._pick(i)
        return f"{kind}x{cov_kind}"

    def op(self, i):
        (kind, cov_kind, _), data = self._pick(i)
        return em.ecm_fit(data, LatentSpec(kind=kind, J=J),
                          CovSpec(kind=cov_kind), lambdas=self.lambdas)

    def check(self, i, out, deep=False):
        """Convergence, SEs and posterior row sums; with ``deep``, also the
        fitted objective and one replicate's log-likelihood against a
        brute-force sum over all J**n state vectors."""
        (kind, cov_kind, n), data = self._pick(i)
        problems = [] if out.converged else ["did not converge"]
        names = ("p1",) if kind == "iid" else ("pi1", "a12", "a21")
        problems += _se_problems(out.std_errors, names)
        rows = out.posteriors.sum(axis=2)
        worst = float(np.max(np.abs(rows - 1.0)))
        if worst > REL_TOL:
            problems.append(f"posterior rows sum to 1 within {worst:.1e}")
        if deep:
            problems += self._deep_check(out, data, LatentSpec(kind=kind, J=J),
                                         CovSpec(kind=cov_kind))
        return problems

    def _deep_check(self, out, data, latent_spec, cov_spec):
        theta, n = out.theta, data.n_points
        enum = latent.enumerate_states(n, J)
        step = em.e_step(data, out.curves, theta, latent_spec, cov_spec,
                         enum=enum)
        b = basis.build_basis(data.x, theta.phi.shape[1])
        objective = float(step.loglik.sum()) - em.penalty_value(
            theta, basis.penalty_matrix(b))
        problems = []
        if not _close(objective, out.loglik_trace[-1]):
            problems.append(f"objective {objective!r} vs fitted "
                            f"{out.loglik_trace[-1]!r}")
        k = self.replicate
        cov = covariance.make_structure(cov_spec, theta.cov, n)
        terms = np.array([
            covariance.log_mvn_density(
                cov, data.y[k] - out.curves[s, np.arange(n)], states=s)
            + latent.log_prior_single(s, latent_spec, theta.latent)
            for s in enum.states.astype(int)])
        brute = float(logsumexp(terms))
        if not _close(brute, step.loglik[k]):
            problems.append(f"replicate {k + 1}: log-likelihood "
                            f"{step.loglik[k]!r} vs brute force {brute!r}")
        return problems

    def properties(self):
        return {
            f"{kind}x{cov_kind}": {
                "N": N, "n": n, "J": J, "K": _k(n), "S": J ** n,
                "latent": kind, "cov": cov_kind, "grid_len": None,
                "table_bytes": N * J ** n * 8}
            for kind, cov_kind, n in self.variants}


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


WORKLOADS = {w.name: w for w in (Study, CVSelect, EnumWide)}
