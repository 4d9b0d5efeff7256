import json
import struct
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from switchcurve import datamodel as dm
from switchcurve import latent
from switchcurve.errors import (BadInit, EnumerationTooLarge,
                                NonIncreasingGrid, SpecMismatch,
                                XInconsistent)


def small_dataset(M=0, N=3, n=5, seed=0):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, n)
    y = rng.standard_normal((N, n))
    v = rng.standard_normal((N, n, M)) if M else None
    return dm.MultiCurveDataset(x=x, y=y, covariates=v)


def test_dataset_shape_checks():
    x = np.linspace(0, 1, 5)
    with pytest.raises(SpecMismatch):
        dm.MultiCurveDataset(x=x, y=np.zeros((3, 4)))
    with pytest.raises(NonIncreasingGrid):
        dm.MultiCurveDataset(x=np.array([0.0, 1.0, 1.0, 2.0, 3.0]),
                             y=np.zeros((2, 5)))
    bad = np.zeros((2, 5))
    bad[1, 3] = np.nan
    with pytest.raises(SpecMismatch):
        dm.MultiCurveDataset(x=x, y=bad)
    with pytest.raises(SpecMismatch):
        dm.MultiCurveDataset(x=x, y=np.zeros((2, 5)),
                             covariates=np.zeros((2, 4, 1)))


def test_two_dimensional_covariates_promoted():
    data = dm.MultiCurveDataset(
        x=np.linspace(0, 1, 4), y=np.zeros((2, 4)),
        covariates=np.ones((2, 4)))
    assert data.covariates.shape == (2, 4, 1)
    assert data.n_covariates == 1


def test_latent_spec_validation():
    assert dm.LatentSpec(kind="iid", J=1).J == 1
    with pytest.raises(SpecMismatch):
        dm.LatentSpec(kind="iid", J=0)
    with pytest.raises(SpecMismatch):
        dm.LatentSpec(kind="blend", J=2)
    with pytest.raises(SpecMismatch):
        dm.LatentSpec(kind="covariate", J=1)


def test_cov_spec_diagonal_property():
    assert dm.CovSpec(kind="iso_diag").diagonal
    assert dm.CovSpec(kind="state_diag").diagonal
    assert not dm.CovSpec(kind="homog_ri").diagonal
    with pytest.raises(SpecMismatch):
        dm.CovSpec(kind="diag")


def test_validate_covariate_needs_columns():
    data = small_dataset(M=0)
    with pytest.raises(SpecMismatch):
        dm.validate(data, dm.LatentSpec(kind="covariate", J=2),
                    dm.CovSpec(kind="iso_diag"))
    assert dm.validate(small_dataset(M=2),
                       dm.LatentSpec(kind="covariate", J=2),
                       dm.CovSpec(kind="iso_diag")) is None


def test_validate_enumeration_cap(monkeypatch):
    monkeypatch.setattr(latent, "memory_budget", lambda: 2 ** 33)
    data = small_dataset(n=25)
    with pytest.raises(EnumerationTooLarge):
        dm.validate(data, dm.LatentSpec(kind="iid", J=2),
                    dm.CovSpec(kind="unrestricted"))
    # any other violation is reported first, as a SpecMismatch
    with pytest.raises(SpecMismatch, match="J = 2"):
        dm.validate(data, dm.LatentSpec(kind="iid", J=3),
                    dm.CovSpec(kind="nonhomog_ri"))
    # diagonal kinds never enumerate, so the same size is fine
    dm.validate(data, dm.LatentSpec(kind="iid", J=2),
                dm.CovSpec(kind="state_diag"))
    # and a raised budget admits the enumeration kinds again
    monkeypatch.setattr(latent, "memory_budget", lambda: 2 ** 40)
    dm.validate(data, dm.LatentSpec(kind="iid", J=2),
                dm.CovSpec(kind="unrestricted"))
    # 3**100 state vectors: the estimate is an exact integer, not a
    # wrapped int64, and the message gives it and the budget
    with pytest.raises(EnumerationTooLarge,
                       match=r"N = 3, n = 100 needs about \d\.\d+e\+4\d GiB, "
                             r"more than the memory budget of 1\.02e\+03 GiB"):
        dm.validate(small_dataset(n=100), dm.LatentSpec(kind="iid", J=3),
                    dm.CovSpec(kind="homog_ri"))


def test_validate_budget_scales_with_replicates(monkeypatch):
    """At n = 20 the E-step's block is 23 replicates' rows of 2**20
    columns, and no table has both a replicate and a state-vector axis:
    markov x homog_ri fits are estimated at 0.91 GiB at N = 100 and 300
    alike, and only the per-replicate outputs grow, to 0.959 GiB at
    N = 100 000.  A 0.93 GiB budget admits the first two and refuses the
    third, and validate allocates no table of either size."""
    monkeypatch.setattr(latent, "memory_budget", lambda: 0.93 * 2 ** 30)
    specs = dm.LatentSpec(kind="markov", J=2), dm.CovSpec(kind="homog_ri")
    small, middle = small_dataset(N=100, n=20), small_dataset(N=300, n=20)
    large = small_dataset(N=100_000, n=20)
    tracemalloc.start()
    try:
        dm.validate(small, *specs)
        dm.validate(middle, *specs)
        with pytest.raises(EnumerationTooLarge,
                           match="N = 100000, n = 20 needs about 0.959 GiB"):
            dm.validate(large, *specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_validate_nonhomog_needs_two_states():
    data = small_dataset()
    with pytest.raises(SpecMismatch, match="J = 2"):
        dm.validate(data, dm.LatentSpec(kind="iid", J=3),
                    dm.CovSpec(kind="nonhomog_ri"))


def test_csv_round_trip_exact(tmp_path):
    data = small_dataset(M=2, N=4, n=6, seed=11)
    path = tmp_path / "data.csv"
    dm.write_dataset_csv(data, str(path))
    back = dm.read_dataset_csv(str(path))
    np.testing.assert_array_equal(back.x, data.x)
    np.testing.assert_array_equal(back.y, data.y)
    np.testing.assert_array_equal(back.covariates, data.covariates)


def test_csv_reader_errors(tmp_path):
    def write(text):
        p = tmp_path / "in.csv"
        p.write_text(text)
        return str(p)

    with pytest.raises(SpecMismatch, match="header"):
        dm.read_dataset_csv(write("a,b,c,d\n1,1,0.0,1.0\n"))
    with pytest.raises(SpecMismatch, match="v1"):
        dm.read_dataset_csv(
            write("replicate,point,x,y,w1\n1,1,0.0,1.0,2.0\n"))
    with pytest.raises(SpecMismatch, match="row 3"):
        dm.read_dataset_csv(write(
            "replicate,point,x,y\n1,1,0.0,1.0\n1,2,oops,1.0\n"))
    with pytest.raises(SpecMismatch, match="duplicate"):
        dm.read_dataset_csv(write(
            "replicate,point,x,y\n1,1,0.0,1.0\n1,1,0.0,2.0\n"))
    with pytest.raises(SpecMismatch, match="missing"):
        dm.read_dataset_csv(write(
            "replicate,point,x,y\n1,1,0.0,1.0\n1,2,1.0,1.0\n"
            "2,1,0.0,1.0\n"))
    with pytest.raises(SpecMismatch, match="labels"):
        dm.read_dataset_csv(write(
            "replicate,point,x,y\n1,1,0.0,1.0\n3,1,0.0,1.0\n"))


def test_csv_reader_x_must_agree_across_replicates(tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("replicate,point,x,y\n"
                 "1,1,0.0,1.0\n1,2,1.0,1.0\n"
                 "2,1,0.5,1.0\n2,2,1.0,1.0\n")
    with pytest.raises(XInconsistent, match="point 1"):
        dm.read_dataset_csv(str(p))


def test_parse_config_defaults_and_broadcast():
    cfg = dm.parse_config({
        "latent": {"kind": "markov", "J": 3},
        "covariance": {"kind": "state_diag"},
        "lambdas": 0.5})
    np.testing.assert_array_equal(cfg.lambdas, [0.5, 0.5, 0.5])
    assert cfg.tol == 1e-8 and cfg.max_iter == 500
    assert cfg.K is None and cfg.init == "quantile-split"

    cfg = dm.parse_config({
        "latent": {"kind": "iid", "J": 2},
        "covariance": {"kind": "iso_diag"},
        "lambdas": [0.1, 0.2], "K": 7, "tol": 1e-6, "max_iter": 10})
    np.testing.assert_array_equal(cfg.lambdas, [0.1, 0.2])
    assert cfg.K == 7


def test_parse_config_cv_requires_diagonal():
    doc = {"latent": {"kind": "iid", "J": 2},
           "covariance": {"kind": "homog_ri"}, "lambdas": "cv"}
    with pytest.raises(SpecMismatch, match="diagonal"):
        dm.parse_config(doc)
    doc["covariance"] = {"kind": "iso_diag"}
    assert dm.parse_config(doc).lambdas == "cv"


def test_parse_config_rejects_bad_values():
    base = {"latent": {"kind": "iid", "J": 2},
            "covariance": {"kind": "iso_diag"}, "lambdas": 1.0}
    with pytest.raises(SpecMismatch):
        dm.parse_config({**base, "lambdas": -1.0})
    with pytest.raises(SpecMismatch):
        dm.parse_config({**base, "lambdas": "grid"})
    with pytest.raises(SpecMismatch):
        dm.parse_config({**base, "init": "random"})
    with pytest.raises(SpecMismatch):
        dm.parse_config({**base, "tol": 0.0})
    with pytest.raises(SpecMismatch):
        dm.parse_config({"latent": {"kind": "iid", "J": 2}})


def test_parse_config_refuses_unknown_keys():
    base = {"latent": {"kind": "iid", "J": 2},
            "covariance": {"kind": "iso_diag"}, "lambdas": 1.0}
    # a misspelt max_iter used to be ignored, leaving the default in force
    with pytest.raises(SpecMismatch, match="max_iters"):
        dm.parse_config({**base, "max_iters": 3})
    # the state-enumeration limit is the memory budget, not a setting
    with pytest.raises(SpecMismatch, match="enumeration_cap"):
        dm.parse_config({**base, "enumeration_cap": 1024})
    cfg = dm.parse_config({**base, "K": 6, "tol": 1e-6, "max_iter": 3,
                           "init": "quantile-split", "cv": {}})
    assert cfg.max_iter == 3


THETA_CASES = [
    ("iid", "iso_diag",
     {"p": [0.3, 0.7]}, {"sigma2": 0.5}),
    ("markov", "state_diag",
     {"pi": [0.4, 0.6], "A": [[0.9, 0.1], [0.2, 0.8]]},
     {"sigma2": [0.5, 1.5]}),
    ("covariate", "unrestricted",
     {"beta": [[0.1, -0.2]]}, {"V": np.eye(4).tolist()}),
    ("iid", "homog_ri",
     {"p": [0.5, 0.5]}, {"sigma2": 1.0, "d": 0.5}),
    ("iid", "nonhomog_ri",
     {"p": [0.5, 0.5]}, {"sigma2": 1.0, "d1": 0.25, "d2": 2.0}),
]


# the derived variance components emitted after the random-intercept fields
DERIVED = {"homog_ri": {"tau2": 0.5},
           "nonhomog_ri": {"tau2_1": 0.25, "tau2_2": 2.0}}


@pytest.mark.parametrize("lat_kind,cov_kind,alpha,cov", THETA_CASES)
def test_theta_dict_round_trip(lat_kind, cov_kind, alpha, cov):
    doc = {"phi": [[0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0]],
           "alpha": alpha, "cov": cov, "lambdas": [0.1, 0.1]}
    latent = dm.LatentSpec(kind=lat_kind, J=2)
    cov_spec = dm.CovSpec(kind=cov_kind)
    theta = dm.theta_from_dict(doc, latent, cov_spec)
    out = dm.theta_to_dict(theta)
    # the input document comes back exactly and in key order, with the
    # derived tau2 keys after the fields they derive from; nested dicts
    # compare equal in any order, so their orders are checked apart
    cov_out = {**cov, **DERIVED.get(cov_kind, {})}
    assert list(out.items()) == list({**doc, "cov": cov_out}.items())
    assert list(out["alpha"].items()) == list(alpha.items())
    assert list(out["cov"].items()) == list(cov_out.items())
    theta2 = dm.theta_from_dict(out, latent, cov_spec)
    np.testing.assert_array_equal(theta.phi, theta2.phi, strict=True)
    np.testing.assert_array_equal(theta.lambdas, theta2.lambdas,
                                  strict=True)
    for block, block2 in ((theta.latent, theta2.latent),
                          (theta.cov, theta2.cov)):
        assert type(block) is type(block2)
        for f in fields(block):
            np.testing.assert_array_equal(
                getattr(block, f.name), getattr(block2, f.name),
                strict=True)


def test_theta_from_dict_rejects_malformed():
    latent = dm.LatentSpec(kind="iid", J=2)
    cov_spec = dm.CovSpec(kind="iso_diag")
    with pytest.raises(BadInit):
        dm.theta_from_dict({"phi": [[0.0]]}, latent, cov_spec)
    with pytest.raises(BadInit):
        dm.theta_from_dict(
            {"phi": [[0.0]], "alpha": {"pi": [1.0]}, "cov": {"sigma2": 1.0},
             "lambdas": [0.1]}, latent, cov_spec)


def test_report_json_round_trip_is_bitwise():
    theta_doc = {"phi": [[0.1, 0.2, 0.3, 0.4]], "alpha": {"p": [1.0]},
                 "cov": {"sigma2": 1.0 / 3.0}, "lambdas": [1e-4]}
    latent = dm.LatentSpec(kind="iid", J=1)
    cov_spec = dm.CovSpec(kind="iso_diag")
    theta = dm.theta_from_dict(theta_doc, latent, cov_spec)
    report = dm.FitReport(
        theta=theta, knots=np.array([0.0] * 4 + [1.0] * 4),
        x=np.linspace(0, 1, 5), curves=np.ones((1, 5)),
        posteriors=np.ones((2, 5, 1)),
        loglik_trace=np.array([-10.0, -9.0, -8.9999]),
        iterations=3, converged=True,
        std_errors={"p1": 0.01}, warnings=["not_converged"])
    doc = dm.report_to_dict(report, "iid", "iso_diag")
    text = dm.dumps_json(doc)
    back, lat2, cov2 = dm.report_from_dict(json.loads(text))
    assert (lat2.kind, cov2.kind) == ("iid", "iso_diag")
    assert dm.dumps_json(
        dm.report_to_dict(back, lat2.kind, cov2.kind)) == text


def test_write_csv_cell_rule(tmp_path):
    path = tmp_path / "table.csv"
    values = [0.1, 1.0 / 3.0, -2.5e-300, 5e-324, float("nan"),
              np.float64(7.0), -0.0]
    labels = [1, 2, 9, 10, np.int64(11), 120, 1000]
    names = ["p1", "tau2_1", "a b", "x", "emse_f2", "", "s-2"]
    dm.write_csv(str(path), ["name", "label", "value"],
                 ([n, k, v] for n, k, v in zip(names, labels, values)))
    text = path.read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    lines = text[:-1].split("\n")
    assert lines[0] == "name,label,value"
    assert len(lines) == 1 + len(values)
    for line, name, label, value in zip(lines[1:], names, labels, values):
        cell_name, cell_label, cell_value = line.split(",")
        assert cell_name == name
        assert cell_label == str(int(label))
        assert struct.pack("<d", float(cell_value)) == struct.pack(
            "<d", value)


def test_dumps_json_rejects_nan():
    with pytest.raises(ValueError):
        dm.dumps_json({"v": float("nan")})


def test_atomic_write_replaces_content(tmp_path):
    p = tmp_path / "out.txt"
    dm.atomic_write_text(str(p), "first\n")
    dm.atomic_write_text(str(p), "second\n")
    assert p.read_text() == "second\n"
    leftovers = [q for q in tmp_path.iterdir() if q.name != "out.txt"]
    assert leftovers == []
