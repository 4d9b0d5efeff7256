"""Command-line interface.

Subcommands: ``fit``, ``cv``, ``classify``, ``simulate``, ``simstudy``.
Exit codes: 0 on success, 2 for validation problems (an ``error.json`` is
written to the output directory), 3 for numerical failures.  All outputs
are written atomically (temp file + rename).
"""

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import cv as cv_mod
from . import datamodel as dm
from . import sim as sim_mod
from .em import classify_marginals, ecm_fit
from .errors import (BadInit, NumericalError, SpecMismatch,
                     SwitchCurveError, ValidationError)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = args.out
    os.makedirs(out, exist_ok=True)
    try:
        args.func(args)
    except ValidationError as exc:
        _write_error(out, exc)
        return 2
    except NumericalError as exc:
        _write_error(out, exc)
        return 3
    except SwitchCurveError as exc:   # pragma: no cover - safety net
        _write_error(out, exc)
        return 2
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="switchcurve",
        description="Switching nonparametric regression for repeated "
                    "curves")
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("fit", help="fit the model to a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("cv", help="select smoothing parameters by "
                                  "cross-validation, then fit")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("classify", help="posteriors and hard labels for a "
                                        "dataset under a saved fit")
    p.add_argument("--data", required=True)
    p.add_argument("--fit", required=True, help="fit.json from a prior run")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("simulate", help="draw one dataset from a stock "
                                        "design")
    p.add_argument("--design", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("simstudy", help="replication study over a stock "
                                        "design")
    p.add_argument("--design", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--reps", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simstudy)
    return parser


def _write_error(out, exc):
    doc = {"error": type(exc).__name__, "message": str(exc)}
    dm.atomic_write_text(os.path.join(out, "error.json"),
                         dm.dumps_json(doc))


def _read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecMismatch(f"{path} is not valid JSON: {exc}") from None


def _load_inputs(args):
    dataset = dm.read_dataset_csv(args.data)
    cfg = dm.parse_config(_read_json(args.config))
    return dataset, cfg


def _cmd_fit(args):
    dataset, cfg = _load_inputs(args)
    if isinstance(cfg.lambdas, str):
        return _fit_by_cv(args.out, dataset, cfg)
    report = ecm_fit(
        dataset, cfg.latent, cfg.cov, lambdas=cfg.lambdas, K=cfg.K,
        tol=cfg.tol, max_iter=cfg.max_iter, init=cfg.init)
    _write_fit_outputs(args.out, report, cfg)


def _cmd_cv(args):
    _fit_by_cv(args.out, *_load_inputs(args))


def _fit_by_cv(out, dataset, cfg):
    result = cv_mod.select_lambdas(
        dataset, cfg.latent, cfg.cov, config=cfg.cv, K=cfg.K, tol=cfg.tol,
        max_iter=cfg.max_iter, init=cfg.init)
    _write_cv(out, result)
    _write_fit_outputs(out, result.fit, cfg)


def _cmd_classify(args):
    dataset = dm.read_dataset_csv(args.data)
    saved, latent, cov = dm.report_from_dict(_read_json(args.fit))
    if dataset.n_points != saved.x.size or np.max(
            np.abs(dataset.x - saved.x)) > dm._X_AGREE_TOL:
        raise SpecMismatch(
            "dataset grid differs from the grid of the saved fit")
    try:        # a clamped cubic basis of K functions has K + 4 knots
        report = ecm_fit(dataset, latent, cov, lambdas=saved.theta.lambdas,
                         K=saved.knots.size - 4, max_iter=0,
                         init=dm.theta_to_dict(saved.theta))
    except BadInit as exc:
        raise SpecMismatch(f"fit document: {exc}") from None
    # the saved curves are the fit's phi on the fit's grid: on one within
    # the grid tolerance they move by about the slope (a chord, with a
    # margin) times it, and otherwise differ by rounding
    F = report.curves
    tol = 1e-12 * np.abs(report.theta.phi).max() + 4.0 * dm._X_AGREE_TOL \
        * np.abs(np.diff(F) / np.diff(dataset.x)).max(initial=0.0)
    if saved.curves.shape != F.shape \
            or not np.abs(saved.curves - F).max() <= tol:     # NaN fails
        raise SpecMismatch(
            "fit document: curves are not its phi on the dataset grid")
    _write_posteriors(args.out, report.posteriors)
    _write_classified(args.out, report.posteriors)


def _check_seed(seed):
    if seed < 0:
        raise SpecMismatch(f"--seed must be non-negative, got {seed}")


def _cmd_simulate(args):
    _check_seed(args.seed)
    design = sim_mod.stock_design(args.design)
    if args.N is not None:
        if args.N < 1:
            raise SpecMismatch(f"--N must be at least 1, got {args.N}")
        design.N = args.N
    dataset, z = sim_mod.generate_dataset(design, seed=args.seed)
    dm.write_dataset_csv(dataset, os.path.join(args.out, "data.csv"))
    F = sim_mod.default_true_functions(dataset.x)
    fields = asdict(design)
    fields["x"] = [float(v) for v in design.x]
    fields["lambdas"] = [float(v) for v in design.lambdas]
    truth = {
        "design": fields,
        "seed": int(args.seed),
        "true_curves": F.tolist(),
        "true_states": (z + 1).tolist(),
    }
    dm.atomic_write_text(os.path.join(args.out, "truth.json"),
                         dm.dumps_json(truth))


def _cmd_simstudy(args):
    _check_seed(args.seed)
    if args.reps < 2:
        raise SpecMismatch(
            f"--reps must be at least 2 for a standard deviation, got "
            f"{args.reps}")
    if args.threads < 0:
        raise SpecMismatch(
            f"--threads must be non-negative (0 for one per core), got "
            f"{args.threads}")
    design = sim_mod.stock_design(args.design)
    threads = args.threads or os.cpu_count() or 1
    study = sim_mod.run_study(design, n_reps=args.reps, seed=args.seed,
                              threads=threads)
    dm.atomic_write_text(os.path.join(args.out, "study_report.json"),
                         dm.dumps_json(study.to_dict()))
    columns = ("truth", "mean", "sd", "mean_se", "coverage90", "coverage95")
    dm.write_csv(os.path.join(args.out, "params_summary.csv"),
                 ["parameter", *columns],
                 ([name] + [entry[c] for c in columns]
                  for name, entry in study.params.items()))
    dm.write_csv(os.path.join(args.out, "variance_summary.csv"),
                 ["component", "truth", "mean", "sd"],
                 ([name, entry["truth"], entry["mean"], entry["sd"]]
                  for name, entry in study.variance.items()))
    J = study.emse.shape[0]
    dm.write_csv(os.path.join(args.out, "emse.csv"),
                 ["x"] + [f"emse_f{j + 1}" for j in range(J)],
                 ([xv] + list(study.emse[:, i])
                  for i, xv in enumerate(study.x)))


# ---------------------------------------------------------------------------
# shared writers
# ---------------------------------------------------------------------------

def _write_cv(out, result):
    doc = {
        "lambdas": [float(v) for v in result.lambdas],
        "grid": [float(v) for v in result.grid],
        "scores": [[float(v) for v in row] for row in result.scores],
        "n_outer": int(result.n_outer),
        "converged": bool(result.converged),
        "n_fallback": int(result.n_fallback),
    }
    dm.atomic_write_text(os.path.join(out, "cv.json"), dm.dumps_json(doc))


def _write_fit_outputs(out, report, cfg):
    doc = dm.report_to_dict(report, cfg.latent.kind, cfg.cov.kind)
    dm.atomic_write_text(os.path.join(out, "fit.json"), dm.dumps_json(doc))
    J = report.theta.J
    dm.write_csv(os.path.join(out, "curves.csv"),
                 ["x"] + [f"f{j + 1}" for j in range(J)],
                 ([xv] + list(report.curves[:, i])
                  for i, xv in enumerate(report.x)))
    _write_posteriors(out, report.posteriors)
    _write_classified(out, report.posteriors)


def _write_posteriors(out, marginals):
    N, n, J = marginals.shape
    dm.write_csv(os.path.join(out, "posteriors.csv"),
                 ["replicate", "point"] + [f"p{j + 1}" for j in range(J)],
                 ([k + 1, i + 1] + list(marginals[k, i])
                  for k in range(N) for i in range(n)))


def _write_classified(out, marginals):
    labels, ties = classify_marginals(marginals)
    N, n = labels.shape
    dm.write_csv(os.path.join(out, "classified.csv"),
                 ["replicate", "point", "state", "tie"],
                 ([k + 1, i + 1, labels[k, i] + 1, int(ties[k, i])]
                  for k in range(N) for i in range(n)))


if __name__ == "__main__":
    sys.exit(main())
