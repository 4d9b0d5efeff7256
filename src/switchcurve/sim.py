"""Simulation designs and the replication study harness.

Three stock designs mirror the estimation settings the package targets:

1. "iid": two states drawn independently per point (p1 = 0.5), shared
   random intercept per replicate (homog_ri noise).
2. "markov": two-state chain along the grid (a12 = 0.3, a21 = 0.4,
   pi = (0.5, 0.5)), same noise as design 1.
3. "covariate": state probabilities follow a logistic in a standard-normal
   covariate (beta0 = 2, beta1 = 5), isotropic noise.

The default truth curves live on [x_min, x_max] with range about [0, 0.1]
and two interior extrema; the low curve is exactly the high curve minus
0.1.  Each study replication generates data from a replication-specific
seed, fits with a truth start, and records parameter estimates, standard
errors, confidence interval hits, and pointwise squared curve errors,
named by ``inference.free_coordinates`` (then sigma2 or sigma2_<j>, and
tau2).  At any J, the state labels whose curves have the least squared
error against the truth's are taken, and the SEs recomputed in them.
"""

import itertools
import multiprocessing
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from .basis import spline_setup
from .datamodel import (CovariateParams, CovSpec, HomogRIParams,
                        IIDParams, IsoDiagParams, LatentSpec, MarkovParams,
                        MultiCurveDataset, StateDiagParams, Theta,
                        theta_to_dict)
from .em import ecm_fit
from .inference import free_coordinates

DEFAULT_GRID = np.linspace(1.0, 100.0, 10)


def default_true_functions(x):
    """Truth curves, shape (2, len(x)); state 1 is the lower curve."""
    x = np.asarray(x, dtype=float)
    t = (x - x[0]) / (x[-1] - x[0])
    f2 = 0.05 + 0.04 * np.sin(2 * np.pi * t) + 0.01 * np.sin(4 * np.pi * t)
    return np.vstack([f2 - 0.1, f2])


@dataclass
class SimDesign:
    """One data-generating configuration."""

    kind: str                       # "iid" | "markov" | "covariate"
    N: int = 100
    x: np.ndarray = field(default_factory=lambda: DEFAULT_GRID.copy())
    p1: float = 0.5
    pi1: float = 0.5
    a12: float = 0.3
    a21: float = 0.4
    beta0: float = 2.0
    beta1: float = 5.0
    sigma2: float = 1e-5
    tau2: float = 1e-4
    lambdas: tuple = (1e-4, 1e-4)
    K: int | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.kind not in ("iid", "markov", "covariate"):
            raise ValueError(f"unknown design kind {self.kind!r}")

    @property
    def latent_spec(self):
        return LatentSpec(kind=self.kind, J=2)

    @property
    def cov_spec(self):
        if self.kind == "covariate":
            return CovSpec(kind="iso_diag")
        return CovSpec(kind="homog_ri")

    def truth_params(self):
        """The latent and covariance parameter blocks of the truth."""
        if self.kind == "iid":
            alpha = IIDParams(p=[self.p1, 1.0 - self.p1])
        elif self.kind == "markov":
            alpha = MarkovParams(pi=[self.pi1, 1.0 - self.pi1],
                                 A=[[1.0 - self.a12, self.a12],
                                    [self.a21, 1.0 - self.a21]])
        else:
            return (CovariateParams(beta=[[self.beta0, self.beta1]]),
                    IsoDiagParams(sigma2=self.sigma2))
        return alpha, HomogRIParams(sigma2=self.sigma2,
                                    d=self.tau2 / self.sigma2)


DESIGNS = {
    1: SimDesign(kind="iid"),
    2: SimDesign(kind="markov"),
    3: SimDesign(kind="covariate", sigma2=5e-5, tau2=0.0),
}


def stock_design(number):
    """Designs 1-3 with their standard parameter values."""
    d = DESIGNS[int(number)]
    return SimDesign(**{**asdict(d), "x": d.x.copy()})


def generate_dataset(design, seed):
    """Draw one dataset; returns (dataset, true states (N, n) 0-based)."""
    rng = np.random.default_rng(seed)
    n = design.x.size
    N = design.N
    F = default_true_functions(design.x)

    covariates = None
    if design.kind == "iid":
        z = (rng.random((N, n)) >= design.p1).astype(int)
    elif design.kind == "markov":
        z = np.empty((N, n), dtype=int)
        u = rng.random((N, n))
        z[:, 0] = u[:, 0] >= design.pi1
        stay0 = 1.0 - design.a12
        for i in range(1, n):
            prev = z[:, i - 1]
            p_to_0 = np.where(prev == 0, stay0, design.a21)
            z[:, i] = u[:, i] >= p_to_0
    else:
        v = rng.standard_normal((N, n))
        p1 = 1.0 / (1.0 + np.exp(design.beta0 + design.beta1 * v))
        z = (rng.random((N, n)) >= p1).astype(int)
        covariates = v[:, :, None]

    y = F[z, np.arange(n)[None, :]]
    if design.tau2 > 0:
        y = y + rng.normal(0.0, np.sqrt(design.tau2), size=(N, 1))
    y = y + rng.normal(0.0, np.sqrt(design.sigma2), size=(N, n))
    return MultiCurveDataset(x=design.x, y=y, covariates=covariates), z


def truth_start(design, dataset):
    """Supplied-init dict with the data-generating parameter values."""
    _, B, _ = spline_setup(dataset.x, design.K)
    F = default_true_functions(dataset.x)
    phi0 = np.linalg.lstsq(B, F.T, rcond=None)[0].T
    alpha, cov = design.truth_params()
    return theta_to_dict(Theta(phi=phi0, latent=alpha, cov=cov,
                               lambdas=design.lambdas))


def fit_design(design, dataset):
    """Truth-start ECM fit of a generated dataset."""
    return ecm_fit(
        dataset, design.latent_spec, design.cov_spec,
        lambdas=np.asarray(design.lambdas), K=design.K,
        init=truth_start(design, dataset))


# ---------------------------------------------------------------------------
# label alignment
# ---------------------------------------------------------------------------

def permute_theta(theta, perm):
    """Theta with new state j the old state perm[j]: the covariate beta is
    re-referenced to the new state 1 (a J = 2 swap negates it)."""
    perm = list(perm)
    al, cov = theta.latent, theta.cov
    if isinstance(al, IIDParams):
        al = IIDParams(p=al.p[perm])
    elif isinstance(al, MarkovParams):
        al = MarkovParams(pi=al.pi[perm], A=al.A[np.ix_(perm, perm)])
    else:
        eta = np.vstack([np.zeros(al.beta.shape[1]), al.beta])[perm]
        al = CovariateParams(beta=eta[1:] - eta[0])
    if isinstance(cov, StateDiagParams):
        cov = StateDiagParams(sigma2=cov.sigma2[perm])
    return Theta(phi=theta.phi[perm], latent=al, cov=cov,
                 lambdas=theta.lambdas[perm])


def align_to_truth(report, F_true):
    """The relabelling (new state j is old state perm[j]) whose curves have
    the least total squared error against F_true; the identity wins ties."""
    return min(itertools.permutations(range(report.curves.shape[0])),
               key=lambda perm: float(np.sum(
                   (report.curves[list(perm)] - F_true) ** 2)))


def _variances(cov):
    """sigma2 (or sigma2_<j> per state) and the random intercept's tau2."""
    s2 = np.atleast_1d(getattr(cov, "sigma2", []))
    out = ({"sigma2": float(s2[0])} if s2.size == 1 else
           {f"sigma2_{j}": float(v) for j, v in enumerate(s2, start=1)})
    if isinstance(cov, HomogRIParams):
        out["tau2"] = float(cov.tau2)
    return out


# ---------------------------------------------------------------------------
# the study harness
# ---------------------------------------------------------------------------

# two-sided normal quantiles Phi^{-1}(0.5 + lev / 2) of the interval levels
# the study reports; simstudy's writer names exactly these two columns
_COVERAGE_Z = {0.90: 1.6448536269514722, 0.95: 1.959963984540054}


@dataclass
class StudyReport:
    """Aggregates over study replications."""

    design_kind: str
    n_reps: int
    seed: int
    x: np.ndarray
    params: dict            # name -> {truth, mean, sd, mean_se, cover...}
    variance: dict          # sigma2 / tau2 summaries
    emse: np.ndarray        # (J, n) pointwise mean squared curve error
    estimates: dict         # name -> (n_reps,) raw estimates
    ses: dict               # name -> (n_reps,) raw standard errors
    n_se_missing: int = 0

    def to_dict(self):
        return {
            "design": self.design_kind,
            "n_reps": int(self.n_reps),
            "seed": int(self.seed),
            "x": [float(v) for v in self.x],
            "params": self.params,
            "variance": self.variance,
            "emse": [[float(v) for v in row] for row in self.emse],
            "n_se_missing": int(self.n_se_missing),
        }


def run_replication(design, seed, rep):
    """Generate, fit, and score one study replication.  A fit in other
    labels than the truth's is restarted from its relabelled theta with no
    ECM step, for SEs from an E-step in the truth's labels."""
    dataset, _ = generate_dataset(design, seed=[seed, rep])
    report = fit_design(design, dataset)
    converged = report.converged
    F_true = default_true_functions(dataset.x)
    perm = align_to_truth(report, F_true)
    if perm != tuple(range(len(perm))):
        report = ecm_fit(
            dataset, design.latent_spec, design.cov_spec,
            lambdas=np.asarray(design.lambdas), K=design.K, max_iter=0,
            init=theta_to_dict(permute_theta(report.theta, perm)))
    coords = free_coordinates(report.theta.latent)
    se = report.std_errors or {}
    return {
        "params": {**coords, **_variances(report.theta.cov)},
        "se": {k: se.get(k, np.nan) for k in coords},
        "sqerr": (report.curves - F_true) ** 2,
        "converged": converged,
    }


_WORKER_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def run_study(design, n_reps=300, seed=0, threads=1):
    """Run the full replication study and aggregate.

    With ``threads`` > 1 the replications run in that many workers, each
    one small fit at a time, so BLAS threads of their own would only
    contend for the shared cores.  OpenBLAS fixes its thread count when
    numpy loads it, before any pool initializer runs, and a forked worker
    inherits it: the workers are spawned from an environment asking for
    one thread, and the caller's is restored afterwards.
    """
    if threads > 1:
        saved = {k: os.environ[k] for k in _WORKER_BLAS_ENV
                 if k in os.environ}
        os.environ.update(dict.fromkeys(_WORKER_BLAS_ENV, "1"))
        try:
            with multiprocessing.get_context("spawn").Pool(threads) as pool:
                results = pool.starmap(
                    run_replication,
                    [(design, seed, r) for r in range(n_reps)],
                    chunksize=max(1, n_reps // (8 * threads)))
        finally:
            for k in _WORKER_BLAS_ENV:
                del os.environ[k]
            os.environ.update(saved)
    else:
        results = [run_replication(design, seed, r)
                   for r in range(n_reps)]

    alpha, cov = design.truth_params()
    names = free_coordinates(alpha)
    truth = {**names, **_variances(cov)}
    estimates = {k: np.array([res["params"][k] for res in results])
                 for k in results[0]["params"]}
    ses = {k: np.array([res["se"][k] for res in results]) for k in names}

    def summary(name):
        est = estimates[name]
        return {"truth": float(truth[name]), "mean": float(est.mean()),
                "sd": float(est.std(ddof=1))}

    params = {}
    n_missing = 0
    for name in names:
        est, se = estimates[name], ses[name]
        ok = np.isfinite(se)
        n_missing = max(n_missing, int(np.sum(~ok)))
        entry = {**summary(name), "mean_se": (
            float(se[ok].mean()) if ok.any() else float("nan"))}
        for lev, z in _COVERAGE_Z.items():
            hit = np.abs(est[ok] - truth[name]) <= z * se[ok]
            entry[f"coverage{int(round(lev * 100))}"] = (
                float(hit.mean()) if ok.any() else float("nan"))
        params[name] = entry

    variance = {name: summary(name) for name in estimates
                if name not in names}

    emse = np.mean([res["sqerr"] for res in results], axis=0)
    return StudyReport(
        design_kind=design.kind, n_reps=n_reps, seed=seed, x=design.x,
        params=params, variance=variance, emse=emse,
        estimates=estimates, ses=ses, n_se_missing=n_missing)
