"""End-to-end checks of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import switchcurve
from switchcurve import datamodel as dm
from switchcurve.cli import main
from switchcurve.datamodel import MultiCurveDataset


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
                          cv={"grid": grid, "lambda0": 1e-3})
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


def test_numerical_failure_exits_with_code_three(tmp_path):
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
    assert rc == 3
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "NotSPD"


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


def test_module_entry_point_runs():
    # the child imports the same package as this session, installed or not
    src = str(Path(switchcurve.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "switchcurve.cli", "--help"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "fit" in proc.stdout and "simstudy" in proc.stdout
