"""End-to-end checks of the command-line interface."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import switchcurve
from switchcurve import datamodel as dm
from switchcurve import em, inference, latent
from switchcurve.cli import main
from switchcurve.datamodel import MultiCurveDataset
from switchcurve.em import EStep


def write_data(path, seed=0, N=8, n=10, spread=1.2, noise=0.15):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, n)
    base = np.sin(2.0 * np.pi * x)
    f = np.stack([base, base + spread])
    z = rng.integers(0, 2, (N, n))
    y = f[z, np.arange(n)] + noise * rng.standard_normal((N, n))
    dm.write_dataset_csv(MultiCurveDataset(x=x, y=y), str(path))
    return str(path)


def write_config(path, **overrides):
    doc = {"latent": {"kind": "iid", "J": 2},
           "covariance": {"kind": "state_diag"},
           "lambdas": 1e-4}
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


def test_simulate_writes_dataset_and_truth(tmp_path):
    out = tmp_path / "out"
    rc = main(["simulate", "--design", "1", "--seed", "7", "--N", "5",
               "--out", str(out)])
    assert rc == 0
    data = dm.read_dataset_csv(str(out / "data.csv"))
    assert data.y.shape == (5, 10)
    truth = json.loads((out / "truth.json").read_text())
    assert truth["design"]["kind"] == "iid"
    assert truth["design"]["N"] == 5
    assert truth["seed"] == 7
    assert np.asarray(truth["true_curves"]).shape == (2, 10)
    states = np.asarray(truth["true_states"])
    assert states.shape == (5, 10)
    assert set(np.unique(states)) <= {1, 2}


def test_fit_writes_all_artifacts(tmp_path):
    data = write_data(tmp_path / "data.csv")
    config = write_config(tmp_path / "config.json")
    out = tmp_path / "fit"
    assert main(["fit", "--data", data, "--config", config,
                 "--out", str(out)]) == 0

    doc = json.loads((out / "fit.json").read_text())
    assert doc["converged"] is True
    assert doc["model"] == {"latent": "iid", "covariance": "state_diag"}
    assert len(doc["theta"]["cov"]["sigma2"]) == 2

    curves = (out / "curves.csv").read_text().splitlines()
    assert curves[0] == "x,f1,f2"
    assert len(curves) == 11

    posts = (out / "posteriors.csv").read_text().splitlines()
    assert posts[0] == "replicate,point,p1,p2"
    assert len(posts) == 8 * 10 + 1
    first = posts[1].split(",")
    assert float(first[2]) + float(first[3]) == pytest.approx(1.0, abs=1e-12)

    classified = (out / "classified.csv").read_text().splitlines()
    assert classified[0] == "replicate,point,state,tie"
    states = {int(line.split(",")[2]) for line in classified[1:]}
    assert states <= {1, 2}


def test_fit_outputs_are_bitwise_reproducible(tmp_path):
    data = write_data(tmp_path / "data.csv")
    config = write_config(tmp_path / "config.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["fit", "--data", data, "--config", config,
                 "--out", str(out1)]) == 0
    assert main(["fit", "--data", data, "--config", config,
                 "--out", str(out2)]) == 0
    for name in ("fit.json", "curves.csv", "posteriors.csv",
                 "classified.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_fit_with_cross_validated_lambdas(tmp_path):
    data = write_data(tmp_path / "data.csv", N=6)
    grid = [1e-5, 1e-3, 1e-1]
    config = write_config(tmp_path / "config.json", lambdas="cv",
                          cv={"grid": grid})
    out = tmp_path / "out"
    assert main(["fit", "--data", data, "--config", config,
                 "--out", str(out)]) == 0
    cv_doc = json.loads((out / "cv.json").read_text())
    assert all(lam in grid for lam in cv_doc["lambdas"])
    assert np.asarray(cv_doc["scores"]).shape == (2, 3)
    fit_doc = json.loads((out / "fit.json").read_text())
    assert fit_doc["theta"]["lambdas"] == cv_doc["lambdas"]


def test_cv_subcommand_writes_selection_and_fit(tmp_path):
    data = write_data(tmp_path / "data.csv", N=6)
    config = write_config(tmp_path / "config.json", lambdas="cv",
                          cv={"grid": [1e-4, 1e-2]})
    out = tmp_path / "out"
    assert main(["cv", "--data", data, "--config", config,
                 "--out", str(out)]) == 0
    for name in ("cv.json", "fit.json", "curves.csv", "posteriors.csv"):
        assert (out / name).exists()


def test_classify_reproduces_fit_posteriors(tmp_path):
    data = write_data(tmp_path / "data.csv")
    config = write_config(tmp_path / "config.json")
    fit_out = tmp_path / "fit"
    assert main(["fit", "--data", data, "--config", config,
                 "--out", str(fit_out)]) == 0
    cls_out = tmp_path / "cls"
    assert main(["classify", "--data", data,
                 "--fit", str(fit_out / "fit.json"),
                 "--out", str(cls_out)]) == 0
    for name in ("posteriors.csv", "classified.csv"):
        assert (cls_out / name).read_bytes() == \
            (fit_out / name).read_bytes()


def test_classify_rejects_a_different_grid(tmp_path):
    data = write_data(tmp_path / "data.csv")
    config = write_config(tmp_path / "config.json")
    fit_out = tmp_path / "fit"
    assert main(["fit", "--data", data, "--config", config,
                 "--out", str(fit_out)]) == 0

    rng = np.random.default_rng(0)
    shifted = MultiCurveDataset(x=np.linspace(0.5, 1.5, 10),
                                y=rng.standard_normal((3, 10)))
    other = tmp_path / "other.csv"
    dm.write_dataset_csv(shifted, str(other))
    out = tmp_path / "cls"
    rc = main(["classify", "--data", str(other),
               "--fit", str(fit_out / "fit.json"), "--out", str(out)])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "SpecMismatch"
    assert "grid" in err["message"]


def test_classify_validates_at_the_saved_fit_size(tmp_path, monkeypatch):
    """A saved fit is re-scored when its E-step fits the memory budget,
    here pinned at 3 GiB for the 1.57 GiB estimate at n = 21, and refused
    with EnumerationTooLarge when it does not.  The enumeration, the
    E-step and the standard errors are stubbed, since real ones would hold
    several 2**21-row tables."""
    monkeypatch.setattr(latent, "memory_budget", lambda: 3 * 2 ** 30)
    N, n, K = 3, 21, 5
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 1.0, n)
    data = tmp_path / "data.csv"
    dm.write_dataset_csv(
        MultiCurveDataset(x=x, y=rng.standard_normal((N, n))), str(data))
    theta = dm.Theta(phi=np.zeros((2, K)), latent=dm.IIDParams(p=[0.5, 0.5]),
                     cov=dm.HomogRIParams(sigma2=1.0, d=0.5),
                     lambdas=[1e-4, 1e-4])
    # the clamped cubic knots of K = 5 functions: one interior knot
    knots = np.r_[np.zeros(4), 0.5, np.ones(4)]
    report = dm.FitReport(theta=theta, knots=knots,
                          x=x, curves=np.zeros((2, n)),
                          posteriors=np.empty((0, n, 2)),
                          loglik_trace=np.array([-1.0]), iterations=1,
                          converged=True)
    fit = tmp_path / "fit.json"
    fit.write_text(dm.dumps_json(dm.report_to_dict(report, "iid",
                                                   "homog_ri")))
    calls = []
    monkeypatch.setattr(latent, "enumerate_states",
                        lambda n_points, J: ("enum", n_points, J))

    def fake_e_step(dataset, F, theta, latent_spec, cov_spec, enum=None,
                    cov=None):
        calls.append(enum)
        return EStep(marginals=np.full((dataset.n_replicates, n, 2), 0.5),
                     loglik=np.zeros(dataset.n_replicates))

    monkeypatch.setattr(em, "e_step", fake_e_step)
    monkeypatch.setattr(inference, "standard_errors_for_fit",
                        lambda *args: {})
    out = tmp_path / "cls"
    rc = main(["classify", "--data", str(data), "--fit", str(fit),
               "--out", str(out)])
    assert rc == 0, (out / "error.json").read_text()
    assert calls == [("enum", n, 2)]
    assert (out / "posteriors.csv").exists()

    monkeypatch.setattr(latent, "memory_budget", lambda: 2 ** 30)
    rc = main(["classify", "--data", str(data), "--fit", str(fit),
               "--out", str(out)])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "EnumerationTooLarge"
    assert calls == [("enum", n, 2)]


def test_oversized_structured_fit_exits_with_validation_code(tmp_path,
                                                             monkeypatch):
    """A homog_ri fit of 40 replicates at n = 25 is estimated at 35.5 GiB:
    refused before anything is allocated, with the estimate in the
    message."""
    monkeypatch.setattr(latent, "memory_budget", lambda: 2 ** 33)
    data = write_data(tmp_path / "data.csv", N=40, n=25)
    config = write_config(tmp_path / "config.json",
                          covariance={"kind": "homog_ri"})
    out = tmp_path / "out"
    rc = main(["fit", "--data", data, "--config", config,
               "--out", str(out)])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "EnumerationTooLarge"
    assert "N = 40" in err["message"] and "35.5 GiB" in err["message"]


def test_malformed_csv_exits_with_validation_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("replicate,point,x,y\n1,1,0.0,1.0\n1,1,0.0,2.0\n")
    config = write_config(tmp_path / "config.json")
    out = tmp_path / "out"
    rc = main(["fit", "--data", str(bad), "--config", config,
               "--out", str(out)])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "SpecMismatch"
    assert "duplicate" in err["message"]


@pytest.mark.parametrize("overrides", [
    {"lambdas": [1, 2, 3]},
    {"K": "abc"},
    {"tol": float("nan")},
    {"latent": {"kind": "iid", "J": "two"}},
    {"lambdas": "cv", "cv": {"gird": [1, 2]}},
    {"lambdas": "cv", "cv": {"grid": [-1, 2]}},
    {"lambdas": "cv", "cv": {"outer_max_iter": "abc"}},
    {"latent": {"kind": "iid", "J": 2.7}},
    {"latent": {"kind": "iid", "J": True}},
    {"K": 7.9},
    {"max_iter": 2.5},
    {"enumeration_cap": 1024.5},
    {"K": float("inf")},
    {"lambdas": float("nan")},
    {"lambdas": float("inf")},
    {"lambdas": "cv", "cv": {"lambda0": float("nan")}},
    {"lambdas": "cv", "cv": {"lambda0": -1}},
    {"lambdas": "cv", "cv": {"grid": [1e-4, float("nan")]}},
    {"lambdas": "cv", "cv": {"grid": [1e-4, float("inf")]}},
    {"lambdas": "cv", "cv": {"outer_max_iter": 2.5}},
    {"lambdas": "cv", "cv": {"outer_max_iter": True}},
    {"lambdas": "cv", "cv": {"outer_max_iter": 0}},
    {"cv": {"grid": [-1, 2]}},
    {"lambdas": "cv", "cv": {"outer_tol": float("nan")}},
    {"lambdas": "cv", "cv": {"outer_tol": -1e-3}},
    {"lambdas": "cv", "cv": {"outer_tol": float("inf")}},
], ids=["lambdas-count", "K-text", "tol-nan", "J-text", "cv-unknown-key",
        "cv-negative-grid", "cv-outer-text", "J-fraction", "J-bool",
        "K-fraction", "max-iter-fraction", "cap-fraction", "K-infinite",
        "lambdas-nan", "lambdas-infinite", "cv-lambda0-nan",
        "cv-lambda0-negative", "cv-grid-nan", "cv-grid-infinite",
        "cv-outer-fraction", "cv-outer-bool", "cv-outer-zero",
        "cv-checked-with-numeric-lambdas", "cv-outer-tol-nan",
        "cv-outer-tol-negative", "cv-outer-tol-infinite"])
def test_malformed_config_values_exit_with_validation_code(tmp_path,
                                                           overrides):
    data = write_data(tmp_path / "data.csv", N=4, n=6)
    config = write_config(tmp_path / "config.json", **overrides)
    out = tmp_path / "out"
    rc = main(["fit", "--data", data, "--config", config,
               "--out", str(out)])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "SpecMismatch"


def _fit_json_without(tmp_path, *keys):
    data = write_data(tmp_path / "data.csv", N=4, n=6)
    config = write_config(tmp_path / "config.json")
    assert main(["fit", "--data", data, "--config", config,
                 "--out", str(tmp_path / "fit")]) == 0
    doc = json.loads((tmp_path / "fit" / "fit.json").read_text())
    node = doc
    for key in keys[:-1]:
        node = node[key]
    del node[keys[-1]]
    (tmp_path / "fit.json").write_text(json.dumps(doc))
    return ["classify", "--data", data, "--fit", str(tmp_path / "fit.json")]


def _fit_with_config_text(tmp_path, text):
    (tmp_path / "config.json").write_text(text)
    return ["fit", "--data", write_data(tmp_path / "data.csv", N=4, n=6),
            "--config", str(tmp_path / "config.json")]


@pytest.mark.parametrize("argv", [
    lambda tmp: _fit_with_config_text(tmp, '{"latent": {"kind": "iid"'),
    lambda tmp: _fit_json_without(tmp, "model"),
    lambda tmp: _fit_json_without(tmp, "theta"),
    # a state_diag cov holds sigma2 alone, so this leaves "cov": {}
    lambda tmp: _fit_json_without(tmp, "theta", "cov", "sigma2"),
    lambda tmp: ["simulate", "--design", "1", "--N", "-3"],
    lambda tmp: ["simulate", "--design", "1", "--N", "0"],
    lambda tmp: ["simstudy", "--design", "1", "--reps", "0",
                 "--threads", "1"],
    lambda tmp: ["simstudy", "--design", "1", "--reps", "1",
                 "--threads", "1"],
    lambda tmp: ["simulate", "--design", "1", "--seed", "-1"],
    lambda tmp: ["simstudy", "--design", "1", "--seed", "-1",
                 "--threads", "1"],
    # 0 means one worker per core; a negative count is refused
    lambda tmp: ["simstudy", "--design", "1", "--reps", "2",
                 "--threads", "-3"],
], ids=["config-not-json", "fit-without-model", "fit-without-theta",
        "fit-with-empty-cov",
        "simulate-negative-N", "simulate-zero-N", "simstudy-zero-reps",
        "simstudy-one-rep", "simulate-negative-seed",
        "simstudy-negative-seed", "simstudy-negative-threads"])
def test_malformed_inputs_exit_with_validation_code(tmp_path, argv):
    out = tmp_path / "out"
    rc = main(argv(tmp_path) + ["--out", str(out)])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "SpecMismatch"
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_classify_refuses_a_fit_with_a_numeric_string(tmp_path):
    data = write_data(tmp_path / "data.csv", N=4, n=6)
    config = write_config(tmp_path / "config.json")
    assert main(["fit", "--data", data, "--config", config,
                 "--out", str(tmp_path / "fit")]) == 0
    doc = json.loads((tmp_path / "fit" / "fit.json").read_text())
    doc["theta"]["cov"]["sigma2"] = [str(v)
                                     for v in doc["theta"]["cov"]["sigma2"]]
    (tmp_path / "fit.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = main(["classify", "--data", data, "--fit", str(tmp_path / "fit.json"),
               "--out", str(out)])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "SpecMismatch" and "sigma2" in err["message"]


@pytest.fixture(scope="module")
def covariate_fit(tmp_path_factory):
    """A stock design 3 dataset (one covariate) and its covariate x
    iso_diag fit.json document."""
    tmp = tmp_path_factory.mktemp("design3")
    assert main(["simulate", "--design", "3", "--seed", "1", "--N", "20",
                 "--out", str(tmp / "sim")]) == 0
    config = write_config(tmp / "config.json",
                          latent={"kind": "covariate", "J": 2},
                          covariance={"kind": "iso_diag"})
    data = str(tmp / "sim" / "data.csv")
    assert main(["fit", "--data", data, "--config", config,
                 "--out", str(tmp / "fit")]) == 0
    return data, json.loads((tmp / "fit" / "fit.json").read_text())


def _write_fit(tmp_path, doc):
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _nan_in_curves(doc):
    doc["curves"][0][0] = float("nan")


def _shift_state_2(doc):
    doc["curves"][1] = [v + 5.0 for v in doc["curves"][1]]


@pytest.mark.parametrize("edit,field", [
    (lambda doc: doc.update(curves=doc["curves"][:1]), "curves"),
    (lambda doc: doc["theta"]["alpha"].update(
        beta=[row + [0.0] for row in doc["theta"]["alpha"]["beta"]]),
     "beta"),
    (lambda doc: doc.update(curves=doc["curves"] + doc["curves"][:1]),
     "curves"),
    (lambda doc: doc.update(curves=[row[:-1] for row in doc["curves"]]),
     "curves"),
    (_nan_in_curves, "curves"),
    (_shift_state_2, "curves"),
], ids=["one-curve", "beta-three-columns", "three-curves",
        "curves-a-point-short", "nan-in-curves", "state-2-curve-shifted"])
def test_classify_refuses_an_inconsistent_fit_document(tmp_path,
                                                       covariate_fit, edit,
                                                       field):
    """A saved theta passes the check a supplied start does, at the
    dataset's grid and covariates, and its curves must be its phi on that
    grid (a shifted curve is not scored): each fault exits 2 with a
    SpecMismatch that names the field, and writes nothing else."""
    data, doc = covariate_fit
    out = tmp_path / "out"
    assert main(["classify", "--data", data, "--fit", _write_fit(
        tmp_path, doc), "--out", str(out)]) == 0
    doc = json.loads(json.dumps(doc))
    edit(doc)
    out = tmp_path / "bad"
    rc = main(["classify", "--data", data,
               "--fit", _write_fit(tmp_path, doc), "--out", str(out)])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "SpecMismatch" and field in err["message"]
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


@pytest.fixture(scope="module")
def intercept_fits(tmp_path_factory):
    """A stock design 2 dataset and its markov x homog_ri and markov x
    nonhomog_ri fit.json documents."""
    tmp = tmp_path_factory.mktemp("design2")
    assert main(["simulate", "--design", "2", "--seed", "1", "--N", "20",
                 "--out", str(tmp / "sim")]) == 0
    data, docs = str(tmp / "sim" / "data.csv"), {}
    for kind in ("homog_ri", "nonhomog_ri"):
        config = write_config(tmp / f"{kind}.json",
                              latent={"kind": "markov", "J": 2},
                              covariance={"kind": kind})
        assert main(["fit", "--data", data, "--config", config,
                     "--out", str(tmp / kind)]) == 0
        docs[kind] = json.loads((tmp / kind / "fit.json").read_text())
    return data, docs


@pytest.mark.parametrize("kind,field", [("homog_ri", "d"),
                                        ("nonhomog_ri", "d1"),
                                        ("nonhomog_ri", "d2")])
def test_classify_refuses_a_covariance_whose_log_det_overflows(
        tmp_path, intercept_fits, kind, field):
    """A saved intercept component of 1e308 is finite, but log det V is
    not (for d2, log det V_s at some count of state-2 points): a bad
    input, so classify exits 2 with a SpecMismatch that names the field,
    and numpy warns of no overflow on the way."""
    data, docs = intercept_fits
    doc = json.loads(json.dumps(docs[kind]))
    doc["theta"]["cov"][field] = 1e308
    out = tmp_path / "bad"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["classify", "--data", data,
                   "--fit", _write_fit(tmp_path, doc), "--out", str(out)])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "SpecMismatch"
    assert f"{field} = 1e+308" in err["message"]


def test_numerical_failure_exits_with_code_three(tmp_path):
    # two replicates cannot support a 6 x 6 unrestricted V: the first
    # covariance M-step returns a singular matrix
    data = write_data(tmp_path / "data.csv", N=2, n=6)
    config = write_config(tmp_path / "config.json",
                          covariance={"kind": "unrestricted"})
    out = tmp_path / "out"
    rc = main(["fit", "--data", data, "--config", config,
               "--out", str(out)])
    assert rc == 3
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "NotSPD"


def test_non_spd_init_exits_with_validation_code(tmp_path):
    data = write_data(tmp_path / "data.csv", n=6)
    init = {"phi": [[0.0] * 6, [1.0] * 6],
            "alpha": {"p": [0.5, 0.5]},
            "cov": {"V": (-np.eye(6)).tolist()},
            "lambdas": [1e-4, 1e-4]}
    config = write_config(tmp_path / "config.json",
                          covariance={"kind": "unrestricted"}, init=init)
    out = tmp_path / "out"
    rc = main(["fit", "--data", data, "--config", config,
               "--out", str(out)])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "BadInit"
    assert "positive definite" in err["message"]


def test_cv_on_a_structured_kind_exits_with_validation_code(tmp_path):
    data = write_data(tmp_path / "data.csv", n=6)
    config = write_config(tmp_path / "config.json",
                          covariance={"kind": "homog_ri"}, lambdas=1e-3)
    out = tmp_path / "out"
    rc = main(["cv", "--data", data, "--config", config, "--out", str(out)])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "SpecMismatch"
    assert "diagonal" in err["message"]


def test_fit_taking_cv_on_a_structured_kind_exits_as_cv_does(tmp_path):
    data = write_data(tmp_path / "data.csv", n=6)
    messages = []
    for cmd, lambdas in (("fit", "cv"), ("cv", 1e-3)):
        config = write_config(tmp_path / f"{cmd}.json", lambdas=lambdas,
                              covariance={"kind": "homog_ri"})
        out = tmp_path / cmd
        assert main([cmd, "--data", data, "--config", config,
                     "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "SpecMismatch"
        messages.append(err["message"])
    assert messages[0] == messages[1]
    assert "diagonal" in messages[0]


@pytest.mark.parametrize("covariance,cov", [
    ("unrestricted", {"V": [[np.inf] + [0.0] * 5] + np.eye(6)[1:].tolist()}),
    ("homog_ri", {"sigma2": float("nan"), "d": 0.5}),
], ids=["V-infinite", "sigma2-nan"])
def test_non_finite_init_exits_with_validation_code(tmp_path, covariance,
                                                     cov):
    data = write_data(tmp_path / "data.csv", n=6)
    init = {"phi": [[0.0] * 6, [1.0] * 6],
            "alpha": {"p": [0.5, 0.5]},
            "cov": cov,
            "lambdas": [1e-4, 1e-4]}
    config = write_config(tmp_path / "config.json",
                          covariance={"kind": covariance}, init=init)
    out = tmp_path / "out"
    rc = main(["fit", "--data", data, "--config", config,
               "--out", str(out)])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "BadInit"
    assert "must be finite" in err["message"]


def test_simstudy_writes_summaries(tmp_path):
    out = tmp_path / "study"
    rc = main(["simstudy", "--design", "3", "--reps", "4", "--seed", "0",
               "--threads", "1", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "study_report.json").read_text())
    assert doc["design"] == "covariate" and doc["n_reps"] == 4

    lines = (out / "params_summary.csv").read_text().splitlines()
    assert lines[0] == \
        "parameter,truth,mean,sd,mean_se,coverage90,coverage95"
    assert {line.split(",")[0] for line in lines[1:]} == {"beta0", "beta1"}

    vlines = (out / "variance_summary.csv").read_text().splitlines()
    assert vlines[0] == "component,truth,mean,sd"
    assert vlines[1].startswith("sigma2,5e-05,")

    elines = (out / "emse.csv").read_text().splitlines()
    assert elines[0] == "x,emse_f1,emse_f2"
    assert len(elines) == 11
    for line in elines[1:]:
        parts = [float(v) for v in line.split(",")]
        assert len(parts) == 3 and min(parts[1:]) >= 0.0


def child_env():
    """Environment in which a child process imports the same package as
    this session, installed or not."""
    src = str(Path(switchcurve.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "switchcurve.cli", "--help"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "fit" in proc.stdout and "simstudy" in proc.stdout


def test_import_leaves_heavy_scipy_subpackages_unloaded():
    # the runtime depends on numpy alone; scipy would cost every process
    # that imports the package (every simstudy worker, every CLI call) tens
    # of MB of resident memory and a second BLAS
    code = (
        "import sys, numpy as np, switchcurve, switchcurve.cli\n"
        "from switchcurve import CovSpec, LatentSpec, MultiCurveDataset\n"
        "from switchcurve.em import ecm_fit\n"
        "rng = np.random.default_rng(0)\n"
        "z = rng.integers(0, 2, (6, 5))\n"
        "y = z + 0.3 * rng.standard_normal((6, 5))\n"
        "data = MultiCurveDataset(x=np.linspace(0, 1, 5), y=y)\n"
        "fit = ecm_fit(data, LatentSpec(kind='iid', J=2),\n"
        "              CovSpec(kind='nonhomog_ri'), lambdas=1e-3, K=4,\n"
        "              max_iter=5)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
