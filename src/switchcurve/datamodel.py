"""Data containers, model specifications, and external interfaces.

States are 1-based in files and messages, 0-based in arrays.  A dataset
holds N replicate curves observed on one shared grid of n points; optional
per-point covariates drive the covariate-dependent latent model.

External formats
----------------
* Every CSV the package writes goes through :func:`write_csv`: a header
  line, then one line per row, each line ending in a newline.  Integer
  cells (1-based labels, flags) are written as integers, other numbers as
  ``repr(float(v))``, which reads back bit for bit, and strings as given.
* Dataset CSV, long layout: columns ``replicate, point, x, y`` and
  optionally ``v1..vM``; every (replicate, point) pair appears exactly
  once and all replicates must agree on x (tolerance 1e-9).
* Config JSON: keys ``latent`` ({kind, J}), ``covariance`` ({kind}),
  ``lambdas`` (number, array, or "cv"), and optional ``K, tol, max_iter,
  init, cv``; any other key is refused.  Smoothing
  parameters (``lambdas``, the ``cv`` grid and ``lambda0``) must be finite
  and non-negative.
* Theta JSON (the ``theta`` of a fit report, or a supplied ``init``):
  ``phi``, ``alpha``, ``cov`` and ``lambdas``.  The keys of ``alpha`` and
  ``cov`` are the fields of the kind's parameter dataclass, in declaration
  order; random-intercept kinds also carry their derived ``tau2`` values,
  which reading ignores.  A supplied ``init`` needs no ``lambdas``: the
  fit's own smoothing parameters are used, and the key is ignored.
* Fit-report JSON: full-precision floats; parsing then re-serializing
  reproduces the document bit for bit.
"""

import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    BadInit,
    NonIncreasingGrid,
    SpecMismatch,
    XInconsistent,
)
from .latent import block_rows, enumeration_bytes, refuse_over_budget

DIAGONAL_KINDS = ("iso_diag", "state_diag")

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 500

_CONFIG_KEYS = ("latent", "covariance", "lambdas", "K", "tol", "max_iter",
               "init", "cv")

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
        if self.kind not in LATENT_PARAMS:
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
        if self.kind not in COV_PARAMS:
            raise SpecMismatch(f"unknown covariance kind {self.kind!r}")

    @property
    def diagonal(self):
        return self.kind in DIAGONAL_KINDS


class _Block:
    """Base of the latent and covariance parameter blocks.

    A block's fields, in declaration order, are its keys in theta JSON.
    ``float`` fields hold floats and the others float arrays; ``beta``
    keeps one row per non-reference state even when J = 2.
    """

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float:
                value = float(value)
            else:
                value = np.asarray(value, dtype=float)
                if f.name == "beta":
                    value = np.atleast_2d(value)
            setattr(self, f.name, value)


@dataclass
class IIDParams(_Block):
    """State probabilities p, shared by all points."""

    p: np.ndarray


@dataclass
class MarkovParams(_Block):
    """Initial distribution pi and row-stochastic transition matrix A."""

    pi: np.ndarray
    A: np.ndarray


@dataclass
class CovariateParams(_Block):
    """Multinomial-logistic coefficients, one row per non-reference state.

    ``beta[j - 1]`` holds the intercept and slopes for
    ``log p_j(v) / p_1(v)``, j = 2..J; state 1 is the reference.
    """

    beta: np.ndarray


@dataclass
class IsoDiagParams(_Block):
    """V = sigma2 * I."""

    sigma2: float


@dataclass
class StateDiagParams(_Block):
    """Diagonal V with per-state variances sigma2[j]."""

    sigma2: np.ndarray


@dataclass
class UnrestrictedParams(_Block):
    """Dense symmetric positive definite V."""

    V: np.ndarray


@dataclass
class HomogRIParams(_Block):
    """Random-intercept V = sigma2 * (I + d * 11'); tau2 = d * sigma2."""

    sigma2: float
    d: float

    @property
    def tau2(self):
        return self.d * self.sigma2


@dataclass
class NonHomogRIParams(_Block):
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


# the parameter block of each model kind
LATENT_PARAMS = {"iid": IIDParams, "markov": MarkovParams,
                 "covariate": CovariateParams}
COV_PARAMS = {"iso_diag": IsoDiagParams, "state_diag": StateDiagParams,
              "unrestricted": UnrestrictedParams, "homog_ri": HomogRIParams,
              "nonhomog_ri": NonHomogRIParams}


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

def validate(dataset, latent_spec, cov_spec):
    """Check that the model triple is internally consistent.

    Raises ``SpecMismatch`` naming every violation; then, for structured
    kinds, ``EnumerationTooLarge`` if the fit's peak bytes exceed the budget.
    """
    violations = []
    J, n, N = latent_spec.J, dataset.n_points, dataset.n_replicates
    if latent_spec.kind == "covariate" and dataset.covariates is None:
        violations.append(
            "covariate latent model requires covariate columns in the data")
    if cov_spec.kind == "nonhomog_ri" and J != 2:
        violations.append(
            f"nonhomog_ri covariance is defined for J = 2 only, got J = {J}")
    if violations:
        raise SpecMismatch("; ".join(violations))
    if not cov_spec.diagonal:
        refuse_over_budget(
            _fit_peak_bytes(N, n, J, latent_spec.kind, cov_spec.kind),
            f"a {latent_spec.kind} x {cov_spec.kind} fit at N = {N}, n = {n}")


def _fit_peak_bytes(N, n, J, latent_kind, cov_kind):
    """Estimated peak bytes of a structured-kind fit, as an exact int.
    Each count names its arrays; a block is one (rows, S) float64 table of
    ``block_rows`` replicates."""
    J, n, N = int(J), int(n), int(N)
    S, nJ, c = J ** n, n * J, n * J if latent_kind == "covariate" else 1
    nonhomog = cov_kind == "nonhomog_ri"
    rows = min(N, block_rows(S, n + 2 + c))
    block = 8 * rows * S
    # the right factor (c the log prior's rank), the iid or markov log
    # prior (the covariate one is a view of the indicators), the
    # accumulator; nonhomog_ri's five more columns, U, U'Fc and h / 2
    kept = n + 2 + c + (c == 1) + 1 + (n + 7) * nonhomog
    widest = max(
        # V^-1 Fc and its quadratic form, or nonhomog_ri's state_terms
        8 * max(n + 1, 5) * S,
        # the log joint, its taken half, a mask, the column flags, indices
        13 * block // 8 + 9 * S,
        # a block and the indicators of its taken half, or covariate's u
        # and u u_i, or the state mass and its gathered accumulator rows
        block + max(4 * nJ, 16 * n if c > 1 else 16) * S,
        # nonhomog_ri's P, u'y and P u'y, u, the six stacked sums twice,
        # and 1'y, its square, a ones column and the three stacked
        nonhomog * (3 * block + 8 * ((n + 12) * S + 6 * rows)),
        # the reduction: the live indices, their strata, one stratum's mask
        # and indices, and two blocks of z rows
        25 * S + 16 * (nJ + J * J) * min(S, block_rows(nJ + J * J)))
    # y - ybar, marginals, log-likelihoods, transition counts; covariate's
    # log prior and the Louis step's three (N, n, n) arrays
    per_replicate = n + nJ + 1 + J * J + (
        nJ + 3 * n * n if latent_kind == "covariate" else 0)
    # 2 ** 16 for the basis, penalty, parameters and Python's own objects
    # (14 to 35 KB under tracemalloc at N = 50 to 1000)
    return (enumeration_bytes(n, J) + 8 * kept * S + widest
            + 8 * per_replicate * N + 2 ** 16)


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
    N, n, M = dataset.n_replicates, dataset.n_points, dataset.n_covariates
    rows = ([k + 1, i + 1, dataset.x[i], dataset.y[k, i]]
            + (list(dataset.covariates[k, i]) if M else [])
            for k in range(N) for i in range(n))
    write_csv(path, ["replicate", "point", "x", "y"]
              + [f"v{m}" for m in range(1, M + 1)], rows)


def write_csv(path, header, rows):
    """Write a CSV atomically by the cell rule in the module docstring."""
    def cell(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return repr(float(v))
    lines = [",".join(header)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# config JSON
# ---------------------------------------------------------------------------

def check_lambdas(values, name):
    """Smoothing parameters as a float array; each must be finite and
    non-negative."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise SpecMismatch(f"{name} must be finite and non-negative")
    return values


# the smoothing-parameter grid select_lambdas searches by default
DEFAULT_GRID = np.logspace(-6.0, 2.0, 25)


@dataclass
class CVConfig:
    """Grid and outer-loop settings for select_lambdas."""

    grid: np.ndarray = field(default_factory=lambda: DEFAULT_GRID.copy())
    lambda0: float = 1e-2
    outer_max_iter: int = 20
    outer_tol: float = 1e-3

    def __post_init__(self):
        self.grid = np.sort(check_lambdas(self.grid, "cv grid").ravel())
        self.lambda0 = float(check_lambdas(self.lambda0, "cv lambda0"))
        self.outer_max_iter = _config_int(self.outer_max_iter,
                                          "outer_max_iter")
        self.outer_tol = float(self.outer_tol)
        if self.grid.size < 1 or self.outer_max_iter < 1:
            raise SpecMismatch(
                "cv grid must hold a value, and outer_max_iter must be >= 1")
        # NaN or a negative value would disable the relative-change test,
        # and infinity would stop after one outer step
        if not 0.0 <= self.outer_tol < math.inf:
            raise SpecMismatch("cv outer_tol must be finite and non-negative")


@dataclass
class FitConfig:
    """Parsed fit configuration with defaults resolved."""

    latent: LatentSpec
    cov: CovSpec
    lambdas: object                 # ndarray (J,) or the string "cv"
    K: int | None = None
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    init: object = "quantile-split"
    cv: CVConfig = field(default_factory=CVConfig)


def parse_config(doc):
    """Build a FitConfig from a parsed JSON document (a dict)."""
    if not isinstance(doc, dict):
        raise SpecMismatch("config must be a JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_KEYS))
    if unknown:
        raise SpecMismatch(f"unknown config keys {unknown}; expected a "
                           f"subset of {list(_CONFIG_KEYS)}")
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
                check_lambdas(lambdas, "lambdas").ravel(),
                (latent.J,)).copy()
        except (TypeError, ValueError):
            raise SpecMismatch(f"lambdas must be 'cv', one number or "
                               f"J = {latent.J} numbers") from None
    try:
        cfg = FitConfig(
            latent=latent, cov=cov, lambdas=lambdas,
            K=None if doc.get("K") is None else _config_int(doc["K"], "K"),
            tol=float(doc.get("tol", DEFAULT_TOL)),
            max_iter=_config_int(doc.get("max_iter", DEFAULT_MAX_ITER),
                                 "max_iter"),
            init=doc.get("init", "quantile-split"),
            cv=CVConfig(**doc.get("cv", {})))
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


def theta_to_dict(theta):
    """Theta JSON for theta; see the module docstring."""
    return {"phi": _listify(theta.phi), "alpha": _block_to_dict(theta.latent),
            "cov": _block_to_dict(theta.cov),
            "lambdas": _listify(theta.lambdas)}


def _block_to_dict(block):
    doc = {f.name: _listify(getattr(block, f.name)) for f in fields(block)}
    # the derived variance components, for readers of the file
    if isinstance(block, HomogRIParams):
        doc["tau2"] = block.tau2
    elif isinstance(block, NonHomogRIParams):
        doc["tau2_1"], doc["tau2_2"] = block.tau2
    return doc


def theta_from_dict(doc, latent_spec, cov_spec):
    """Parse theta JSON under the given model; extra keys are ignored."""
    def block(cls, values):
        return cls(**{f.name: values[f.name] for f in fields(cls)})
    try:
        return Theta(phi=doc["phi"],
                     latent=block(LATENT_PARAMS[latent_spec.kind],
                                  doc["alpha"]),
                     cov=block(COV_PARAMS[cov_spec.kind], doc["cov"]),
                     lambdas=doc["lambdas"])
    except (KeyError, TypeError, ValueError) as exc:
        raise BadInit(f"malformed theta document: {exc}") from None


def report_to_dict(report, latent_kind, cov_kind):
    doc = {
        "model": {"latent": latent_kind, "covariance": cov_kind},
        "theta": theta_to_dict(report.theta),
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
    empty posterior table.  A document that lacks a key
    ``report_to_dict`` writes, or holds a value of the wrong type, raises
    ``SpecMismatch``.
    """
    try:
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
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecMismatch(f"malformed fit document: {exc!r}") from None
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
