"""Data containers, model specifications, and external interfaces.

States are 1-based in files and messages, 0-based in arrays.  A dataset
holds N replicate curves observed on one shared grid of n points; optional
per-point covariates drive the covariate-dependent latent model.

External formats
----------------
* Dataset CSV, long layout: columns ``replicate, point, x, y`` and
  optionally ``v1..vM``; every (replicate, point) pair appears exactly
  once and all replicates must agree on x (tolerance 1e-9).
* Config JSON: keys ``latent`` ({kind, J}), ``covariance`` ({kind}),
  ``lambdas`` (number, array, or "cv"), and optional ``K, tol, max_iter,
  enumeration_cap, init, cv``.
* Fit-report JSON: full-precision floats; parsing then re-serializing
  reproduces the document bit for bit.
"""

import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadInit,
    EnumerationTooLarge,
    NonIncreasingGrid,
    SpecMismatch,
    XInconsistent,
)

LATENT_KINDS = ("iid", "markov", "covariate")
COV_KINDS = ("iso_diag", "state_diag", "unrestricted", "homog_ri",
             "nonhomog_ri")
DIAGONAL_KINDS = ("iso_diag", "state_diag")

DEFAULT_ENUMERATION_CAP = 2 ** 20
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 500

_X_AGREE_TOL = 1e-9


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------

@dataclass
class MultiCurveDataset:
    """N replicate curves on a shared grid.

    Attributes
    ----------
    x : ndarray, shape (n,)
        Strictly increasing grid.
    y : ndarray, shape (N, n)
        Responses, one row per replicate.
    covariates : ndarray, shape (N, n, M), optional
        Per-point covariate vectors.
    """

    x: np.ndarray
    y: np.ndarray
    covariates: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 1:
            raise SpecMismatch("x must be one-dimensional")
        if self.y.ndim != 2 or self.y.shape[1] != self.x.size:
            raise SpecMismatch(
                f"y shape {self.y.shape} incompatible with grid of "
                f"{self.x.size} points")
        if np.any(np.diff(self.x) <= 0):
            raise NonIncreasingGrid("x must be strictly increasing")
        if not np.all(np.isfinite(self.x)) or not np.all(np.isfinite(self.y)):
            raise SpecMismatch("x and y must be finite")
        if self.covariates is not None:
            self.covariates = np.asarray(self.covariates, dtype=float)
            if self.covariates.ndim == 2:
                self.covariates = self.covariates[:, :, None]
            if self.covariates.shape[:2] != self.y.shape:
                raise SpecMismatch(
                    f"covariates shape {self.covariates.shape} incompatible "
                    f"with y shape {self.y.shape}")
            if not np.all(np.isfinite(self.covariates)):
                raise SpecMismatch("covariates must be finite")

    @property
    def n_replicates(self):
        return self.y.shape[0]

    @property
    def n_points(self):
        return self.x.size

    @property
    def n_covariates(self):
        return 0 if self.covariates is None else self.covariates.shape[2]


# ---------------------------------------------------------------------------
# model specifications and parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatentSpec:
    """Latent-state model kind and number of states J."""

    kind: str
    J: int

    def __post_init__(self):
        if self.kind not in LATENT_KINDS:
            raise SpecMismatch(f"unknown latent kind {self.kind!r}")
        if self.J < 1:
            raise SpecMismatch(f"J must be >= 1, got {self.J}")
        if self.kind == "covariate" and self.J < 2:
            raise SpecMismatch("covariate latent model needs J >= 2")


@dataclass(frozen=True)
class CovSpec:
    """Within-replicate covariance model kind."""

    kind: str

    def __post_init__(self):
        if self.kind not in COV_KINDS:
            raise SpecMismatch(f"unknown covariance kind {self.kind!r}")

    @property
    def diagonal(self):
        return self.kind in DIAGONAL_KINDS


@dataclass
class IIDParams:
    """State probabilities p, shared by all points."""

    p: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)


@dataclass
class MarkovParams:
    """Initial distribution pi and row-stochastic transition matrix A."""

    pi: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=float)
        self.A = np.asarray(self.A, dtype=float)


@dataclass
class CovariateParams:
    """Multinomial-logistic coefficients, one row per non-reference state.

    ``beta[j - 1]`` holds the intercept and slopes for
    ``log p_j(v) / p_1(v)``, j = 2..J; state 1 is the reference.
    """

    beta: np.ndarray

    def __post_init__(self):
        self.beta = np.atleast_2d(np.asarray(self.beta, dtype=float))


@dataclass
class IsoDiagParams:
    """V = sigma2 * I."""

    sigma2: float


@dataclass
class StateDiagParams:
    """Diagonal V with per-state variances sigma2[j]."""

    sigma2: np.ndarray

    def __post_init__(self):
        self.sigma2 = np.asarray(self.sigma2, dtype=float)


@dataclass
class UnrestrictedParams:
    """Dense symmetric positive definite V."""

    V: np.ndarray

    def __post_init__(self):
        self.V = np.asarray(self.V, dtype=float)


@dataclass
class HomogRIParams:
    """Random-intercept V = sigma2 * (I + d * 11'); tau2 = d * sigma2."""

    sigma2: float
    d: float

    @property
    def tau2(self):
        return self.d * self.sigma2


@dataclass
class NonHomogRIParams:
    """Two-state random intercept with a state-2 variance component.

    V_s = sigma2 * (I + d1 * 11' + d2 * u_s u_s') where u_s indicates the
    points assigned to state 2; tau2_j = d_j * sigma2.
    """

    sigma2: float
    d1: float
    d2: float

    @property
    def tau2(self):
        return self.d1 * self.sigma2, self.d2 * self.sigma2


@dataclass
class Theta:
    """Full parameter vector: spline coefficients, latent, covariance.

    ``phi`` has one row of K basis coefficients per state; ``lambdas`` the
    per-state roughness penalties.
    """

    phi: np.ndarray
    latent: object
    cov: object
    lambdas: np.ndarray

    def __post_init__(self):
        self.phi = np.atleast_2d(np.asarray(self.phi, dtype=float))
        self.lambdas = np.asarray(self.lambdas, dtype=float)

    @property
    def J(self):
        return self.phi.shape[0]


@dataclass
class FitReport:
    """Result of one ECM fit."""

    theta: Theta
    knots: np.ndarray
    x: np.ndarray
    curves: np.ndarray               # (J, n) fitted f_j at the grid
    posteriors: np.ndarray           # (N, n, J) marginal state posteriors
    loglik_trace: np.ndarray         # penalized objective per iteration
    iterations: int
    converged: bool
    std_errors: dict | None = None
    warnings: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizedModel:
    """Checked combination of dataset, latent spec, and covariance spec."""

    latent: LatentSpec
    cov: CovSpec
    n_replicates: int
    n_points: int
    n_covariates: int
    needs_enumeration: bool
    n_state_vectors: int


def validate(dataset, latent_spec, cov_spec,
             enumeration_cap=DEFAULT_ENUMERATION_CAP):
    """Check that the model triple is internally consistent.

    Returns a :class:`NormalizedModel` on success.  Raises
    ``EnumerationTooLarge`` when a structured covariance kind would need
    more than ``enumeration_cap`` state vectors and nothing else is wrong,
    and ``SpecMismatch`` naming every violation otherwise.
    """
    violations = []
    J, n = latent_spec.J, dataset.n_points
    if latent_spec.kind == "covariate" and dataset.covariates is None:
        violations.append(
            "covariate latent model requires covariate columns in the data")
    if cov_spec.kind == "nonhomog_ri" and J != 2:
        violations.append(
            f"nonhomog_ri covariance is defined for J = 2 only, got J = {J}")
    needs_enum = not cov_spec.diagonal
    n_states = J ** n
    if needs_enum and n_states > enumeration_cap:
        violations.append(
            f"J**n = {n_states} state vectors exceed the enumeration cap "
            f"{enumeration_cap}")
    if violations:
        if needs_enum and n_states > enumeration_cap and len(violations) == 1:
            raise EnumerationTooLarge(violations[0])
        raise SpecMismatch("; ".join(violations))
    return NormalizedModel(
        latent=latent_spec, cov=cov_spec, n_replicates=dataset.n_replicates,
        n_points=n, n_covariates=dataset.n_covariates,
        needs_enumeration=needs_enum, n_state_vectors=n_states)


# ---------------------------------------------------------------------------
# CSV interface
# ---------------------------------------------------------------------------

def read_dataset_csv(path):
    """Read the long-format dataset CSV.  See the module docstring."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SpecMismatch(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        base = ["replicate", "point", "x", "y"]
        if header[:4] != base:
            raise SpecMismatch(
                f"{path}: header must start with {base}, got {header[:4]}")
        vcols = header[4:]
        for m, name in enumerate(vcols, start=1):
            if name != f"v{m}":
                raise SpecMismatch(
                    f"{path}: covariate columns must be v1..vM, got "
                    f"{name!r} in position {m + 4}")
        M = len(vcols)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4 + M:
                raise SpecMismatch(
                    f"{path}: row {lineno}: expected {4 + M} fields, "
                    f"got {len(row)}")
            try:
                k = int(row[0])
                i = int(row[1])
                vals = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise SpecMismatch(
                    f"{path}: row {lineno}: {exc}") from None
            if not all(math.isfinite(v) for v in vals):
                raise SpecMismatch(
                    f"{path}: row {lineno}: non-finite value")
            rows.append((k, i, vals))

    if not rows:
        raise SpecMismatch(f"{path}: no data rows")
    reps = sorted({r[0] for r in rows})
    pts = sorted({r[1] for r in rows})
    N, n = len(reps), len(pts)
    if reps != list(range(1, N + 1)) or pts != list(range(1, n + 1)):
        raise SpecMismatch(
            f"{path}: replicate labels must be 1..N and point labels 1..n")

    x = np.full(n, np.nan)
    y = np.full((N, n), np.nan)
    v = np.full((N, n, M), np.nan) if M else None
    for k, i, vals in rows:
        if not np.isnan(y[k - 1, i - 1]):
            raise SpecMismatch(
                f"{path}: duplicate row for replicate {k}, point {i}")
        xi = vals[0]
        if np.isnan(x[i - 1]):
            x[i - 1] = xi
        elif abs(x[i - 1] - xi) > _X_AGREE_TOL:
            raise XInconsistent(
                f"{path}: point {i}: x = {xi!r} disagrees with "
                f"{x[i - 1]!r} from an earlier replicate")
        y[k - 1, i - 1] = vals[1]
        if M:
            v[k - 1, i - 1] = vals[2:]
    if np.any(np.isnan(y)):
        k, i = np.argwhere(np.isnan(y))[0] + 1
        raise SpecMismatch(
            f"{path}: missing row for replicate {k}, point {i}")
    return MultiCurveDataset(x=x, y=y, covariates=v)


def write_dataset_csv(dataset, path):
    """Write a dataset in the long CSV layout read by read_dataset_csv."""
    M = dataset.n_covariates
    header = ["replicate", "point", "x", "y"] + [
        f"v{m}" for m in range(1, M + 1)]
    lines = [",".join(header)]
    for k in range(dataset.n_replicates):
        for i in range(dataset.n_points):
            row = [str(k + 1), str(i + 1), repr(float(dataset.x[i])),
                   repr(float(dataset.y[k, i]))]
            if M:
                row += [repr(float(val))
                        for val in dataset.covariates[k, i]]
            lines.append(",".join(row))
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# config JSON
# ---------------------------------------------------------------------------

@dataclass
class FitConfig:
    """Parsed fit configuration with defaults resolved."""

    latent: LatentSpec
    cov: CovSpec
    lambdas: object                 # ndarray (J,) or the string "cv"
    K: int | None = None
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP
    init: object = "quantile-split"
    cv: dict = field(default_factory=dict)


def parse_config(doc):
    """Build a FitConfig from a parsed JSON document (a dict)."""
    if not isinstance(doc, dict):
        raise SpecMismatch("config must be a JSON object")
    try:
        latent = LatentSpec(kind=doc["latent"]["kind"],
                            J=_config_int(doc["latent"]["J"], "J"))
        cov = CovSpec(kind=doc["covariance"]["kind"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecMismatch(
            f"config missing or malformed required field: {exc}") from None
    lambdas = doc.get("lambdas", "cv")
    if isinstance(lambdas, str):
        if lambdas != "cv":
            raise SpecMismatch(f"lambdas must be numeric or 'cv', "
                               f"got {lambdas!r}")
        if not cov.diagonal:
            raise SpecMismatch(
                "lambdas='cv' requires a diagonal covariance kind")
    else:
        try:
            lambdas = np.broadcast_to(
                np.asarray(lambdas, dtype=float).ravel(), (latent.J,)).copy()
        except (TypeError, ValueError):
            raise SpecMismatch(f"lambdas must be 'cv', one number or "
                               f"J = {latent.J} numbers") from None
        if np.any(lambdas < 0):
            raise SpecMismatch("lambdas must be non-negative")
    try:
        cfg = FitConfig(
            latent=latent, cov=cov, lambdas=lambdas,
            K=None if doc.get("K") is None else _config_int(doc["K"], "K"),
            tol=float(doc.get("tol", DEFAULT_TOL)),
            max_iter=_config_int(doc.get("max_iter", DEFAULT_MAX_ITER),
                                 "max_iter"),
            enumeration_cap=_config_int(
                doc.get("enumeration_cap", DEFAULT_ENUMERATION_CAP),
                "enumeration_cap"),
            init=doc.get("init", "quantile-split"),
            cv=dict(doc.get("cv", {})))
    except (TypeError, ValueError) as exc:
        raise SpecMismatch(f"malformed config value: {exc}") from None
    if isinstance(cfg.init, str):
        if cfg.init != "quantile-split":
            raise SpecMismatch(f"unknown init strategy {cfg.init!r}")
    elif not isinstance(cfg.init, dict):
        raise SpecMismatch("init must be 'quantile-split' or an object")
    if not 0 < cfg.tol < math.inf or cfg.max_iter < 1:
        raise SpecMismatch("tol must be finite and > 0, and max_iter >= 1")
    return cfg


def _config_int(value, name):
    """An integer config field.  ``int`` would truncate 2.7 to 2 and read
    true as 1, so booleans and non-integral numbers are refused; integral
    floats such as 2.0 pass."""
    if isinstance(value, bool) or (
            isinstance(value, float) and not value.is_integer()):
        raise SpecMismatch(f"{name} must be an integer, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# theta / report JSON
# ---------------------------------------------------------------------------

def _listify(a):
    return np.asarray(a, dtype=float).tolist()


def theta_to_dict(theta, latent_kind, cov_kind):
    al = theta.latent
    if latent_kind == "iid":
        alpha = {"p": _listify(al.p)}
    elif latent_kind == "markov":
        alpha = {"pi": _listify(al.pi), "A": _listify(al.A)}
    else:
        alpha = {"beta": _listify(al.beta)}
    cp = theta.cov
    if cov_kind == "iso_diag":
        cov = {"sigma2": float(cp.sigma2)}
    elif cov_kind == "state_diag":
        cov = {"sigma2": _listify(cp.sigma2)}
    elif cov_kind == "unrestricted":
        cov = {"V": _listify(cp.V)}
    elif cov_kind == "homog_ri":
        cov = {"sigma2": float(cp.sigma2), "d": float(cp.d),
               "tau2": float(cp.tau2)}
    else:
        t1, t2 = cp.tau2
        cov = {"sigma2": float(cp.sigma2), "d1": float(cp.d1),
               "d2": float(cp.d2), "tau2_1": float(t1), "tau2_2": float(t2)}
    return {"phi": _listify(theta.phi), "alpha": alpha, "cov": cov,
            "lambdas": _listify(theta.lambdas)}


def theta_from_dict(doc, latent_spec, cov_spec):
    try:
        phi = np.asarray(doc["phi"], dtype=float)
        alpha = doc["alpha"]
        cov = doc["cov"]
        lambdas = np.asarray(doc["lambdas"], dtype=float)
        if latent_spec.kind == "iid":
            latent = IIDParams(p=alpha["p"])
        elif latent_spec.kind == "markov":
            latent = MarkovParams(pi=alpha["pi"], A=alpha["A"])
        else:
            latent = CovariateParams(beta=alpha["beta"])
        kind = cov_spec.kind
        if kind == "iso_diag":
            cp = IsoDiagParams(sigma2=float(cov["sigma2"]))
        elif kind == "state_diag":
            cp = StateDiagParams(sigma2=cov["sigma2"])
        elif kind == "unrestricted":
            cp = UnrestrictedParams(V=cov["V"])
        elif kind == "homog_ri":
            cp = HomogRIParams(sigma2=float(cov["sigma2"]),
                               d=float(cov["d"]))
        else:
            cp = NonHomogRIParams(sigma2=float(cov["sigma2"]),
                                  d1=float(cov["d1"]), d2=float(cov["d2"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise BadInit(f"malformed theta document: {exc}") from None
    return Theta(phi=phi, latent=latent, cov=cp, lambdas=lambdas)


def report_to_dict(report, latent_kind, cov_kind):
    doc = {
        "model": {"latent": latent_kind, "covariance": cov_kind},
        "theta": theta_to_dict(report.theta, latent_kind, cov_kind),
        "knots": _listify(report.knots),
        "x": _listify(report.x),
        "curves": _listify(report.curves),
        "loglik_trace": _listify(report.loglik_trace),
        "iterations": int(report.iterations),
        "converged": bool(report.converged),
        "std_errors": (None if report.std_errors is None
                       else {k: float(v)
                             for k, v in report.std_errors.items()}),
        "warnings": list(report.warnings),
    }
    return doc


def report_from_dict(doc):
    """Parse a fit-report JSON document.

    Returns (report, latent_spec, cov_spec).  Marginal posteriors live in
    posteriors.csv, not in the report, so the parsed report carries an
    empty posterior table.
    """
    latent_spec = LatentSpec(kind=doc["model"]["latent"],
                             J=len(doc["theta"]["phi"]))
    cov_spec = CovSpec(kind=doc["model"]["covariance"])
    theta = theta_from_dict(doc["theta"], latent_spec, cov_spec)
    x = np.asarray(doc["x"], dtype=float)
    report = FitReport(
        theta=theta, knots=np.asarray(doc["knots"], dtype=float), x=x,
        curves=np.asarray(doc["curves"], dtype=float),
        posteriors=np.empty((0, x.size, theta.J)),
        loglik_trace=np.asarray(doc["loglik_trace"], dtype=float),
        iterations=int(doc["iterations"]),
        converged=bool(doc["converged"]),
        std_errors=doc.get("std_errors"),
        warnings=list(doc.get("warnings", [])))
    return report, latent_spec, cov_spec


def dumps_json(doc):
    """Serialize with full-precision floats and stable key order."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def atomic_write_text(path, text):
    """Write text to path via a temp file + rename in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
