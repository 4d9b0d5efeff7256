"""The benchmark's traced layer names must resolve in the package, and
stay on the call path of the routes that use them.

``bench/tracing.py`` names the functions it wraps as strings; one that no
longer exists would only fail when a traced benchmark run starts, and one
that a refactor takes off the call path (a method that captured the
function object, say) would silently lose its span.  The file is loaded
by path.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from switchcurve import sim
from switchcurve.datamodel import CovSpec, LatentSpec
from switchcurve.em import ecm_fit

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    names = ([(mod, path) for mod, paths in tracing.SPANNED.items()
              for path in paths] + list(tracing.COUNTED))
    missing = []
    for mod, path in names:
        try:
            owner, attr = tracing._owner(mod, path)
            found = callable(getattr(owner, attr))
        except AttributeError:
            found = False
        if not found:
            missing.append(f"{mod}.{path}")
    assert missing == []


# the traced layers each route must reach: its E-step, coefficient update,
# latent and covariance M-steps, and its Louis information
_DIAGONAL = ("em.e_step", "covariance.CovStructure.pointwise_loglik",
             "em.update_f_diagonal", "latent.update_alpha",
             "inference.standard_errors_for_fit")
_STRUCTURED = ("em.e_step", "latent.enumerate_states",
               "latent.log_prior_table",
               "covariance.CovStructure.loglik_table",
               "latent.joint_posterior", "latent.marginals_from_joint",
               "em.update_f_general", "em.general_normal_system",
               "latent.update_alpha", "inference.standard_errors_for_fit",
               "inference.louis_information_generic")
ROUTES = {
    ("iid", "iso_diag"): _DIAGONAL + (
        "latent.marginal_posterior_pointwise",
        "inference.louis_information_iid_closed"),
    ("markov", "state_diag"): _DIAGONAL + (
        "latent.forward_backward",
        "inference.louis_information_markov_closed"),
    ("covariate", "iso_diag"): _DIAGONAL + (
        "latent.marginal_posterior_pointwise",
        "inference.louis_information_covariate"),
    ("markov", "homog_ri"): _STRUCTURED + (
        "latent.pairwise_from_joint", "covariance.update_homog_ri"),
    ("markov", "nonhomog_ri"): _STRUCTURED + (
        "latent.pairwise_from_joint", "covariance.update_nonhomog_ri",
        "covariance.nonhomog_expected_term"),
    ("iid", "unrestricted"): _STRUCTURED + ("covariance.update_unrestricted",),
}


@pytest.mark.parametrize("latent,cov", list(ROUTES))
def test_every_route_runs_its_traced_layers(latent, cov):
    """A traced name only has to resolve to pass the test above; this runs
    one small quantile-split fit per route under the benchmark's tracer
    and checks that each of the route's layers was called."""
    design = sim.SimDesign(kind=latent, N=30, x=np.linspace(1.0, 100.0, 8))
    data = sim.generate_dataset(design, 5)[0]
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fit = ecm_fit(data, LatentSpec(kind=latent, J=2), CovSpec(kind=cov),
                      lambdas=1e-4)
    finally:
        tracer.uninstall()
    assert fit.iterations > 0 and fit.std_errors is not None
    calls = {name: row[2] for name, row in tracer.totals()[0].items()}
    calls.update(tracer.counts)
    assert [name for name in ROUTES[latent, cov] if not calls[name]] == []
