"""Spans around calls into switchcurve, recorded from outside the package.

While installed, a ``Tracer`` replaces each listed function with a thin
wrapper, in every switchcurve module that binds it (``em.ecm_fit`` and
``sim.ecm_fit`` are one function bound twice), and each listed method on its
class.  A wrapper records one span: name, start, end, parent span and the
operation id the benchmark loop set.  Spans stay in memory until the run
writes them.  A layer's self time is its span minus its direct children.
"""

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

SPANNED = {
    "sim": ("run_replication", "generate_dataset", "truth_start"),
    "cv": ("select_lambdas", "cv_score"),
    "em": ("ecm_fit", "e_step", "update_f_general", "general_normal_system",
           "update_f_diagonal"),
    "latent": ("enumerate_states", "log_prior_table", "joint_posterior",
               "marginals_from_joint", "pairwise_from_joint",
               "forward_backward", "marginal_posterior_pointwise",
               "update_alpha"),
    "covariance": ("CovStructure.loglik_table",
                   "CovStructure.pointwise_loglik", "update_homog_ri",
                   "update_unrestricted", "update_nonhomog_ri"),
    "inference": ("standard_errors_for_fit", "louis_information_generic",
                  "louis_information_iid_closed",
                  "louis_information_markov_closed",
                  "louis_information_covariate"),
    "basis": ("build_basis", "basis_matrix", "penalty_matrix"),
}

# Called hundreds of times per Nelder-Mead M-step: counted, not spanned.
COUNTED = (("covariance", "nonhomog_expected_term"),)

SPAN_NAMES = tuple(f"{mod}.{path}" for mod, paths in SPANNED.items()
                   for path in paths)


def _owner(mod, path):
    owner = importlib.import_module(f"switchcurve.{mod}")
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Spans and counters for one traced phase; ``op`` is set by the loop."""

    def __init__(self):
        self.spans = []             # [name, start, end, parent, op]
        self.counts = defaultdict(int)
        self.op = None
        self.iterations = 0         # ECM iterations over all ecm_fit calls
        self.fallbacks = 0          # cv_score replicates done by literal refit
        self.replicate_scores = 0   # cv_score replicate terms attempted
        self.table_bytes = 0        # largest N * S * 8 of any E-step
        self._stack = []
        self._patched = []

    # -- installing ----------------------------------------------------------

    def install(self):
        hooks = {"em.ecm_fit": self._on_fit, "cv.cv_score": self._on_cv,
                 "em.e_step": self._on_e_step}
        for mod, paths in SPANNED.items():
            for path in paths:
                name = f"{mod}.{path}"
                owner, attr = _owner(mod, path)
                fn = getattr(owner, attr)
                self._patch(owner, attr, fn,
                            self._spanning(name, fn, hooks.get(name)))
        for mod, path in COUNTED:
            owner, attr = _owner(mod, path)
            fn = getattr(owner, attr)
            self._patch(owner, attr, fn, self._counting(f"{mod}.{path}", fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def _patch(self, owner, attr, fn, wrapper):
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [(m, a) for key, m in list(sys.modules.items())
                       if key.split(".")[0] == "switchcurve"
                       for a, v in vars(m).items() if v is fn]
        for target, name in targets:
            setattr(target, name, wrapper)
            self._patched.append((target, name, fn))

    def _spanning(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, out)
            return out
        return wrapper

    def _counting(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- hooks ---------------------------------------------------------------

    def _on_fit(self, args, kwargs, report):
        self.iterations += report.iterations

    def _on_cv(self, args, kwargs, out):
        y = args[3] if len(args) > 3 else kwargs["y"]
        self.fallbacks += out[1]
        self.replicate_scores += y.shape[0]

    def _on_e_step(self, args, kwargs, step):
        if step.joint is not None:
            self.table_bytes = max(self.table_bytes, step.joint.nbytes)

    # -- results -------------------------------------------------------------

    def totals(self):
        """Per name: (self seconds, inclusive seconds, calls); plus the
        summed duration of top-level spans and of their direct children."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = {name: [0.0, 0.0, 0] for name in SPAN_NAMES}
        top = below = 0.0
        for idx, (name, t0, t1, parent, _) in enumerate(self.spans):
            row = out[name]
            row[0] += t1 - t0 - child[idx]
            row[1] += t1 - t0
            row[2] += 1
            if parent is None:
                top += t1 - t0
                below += child[idx]
        return out, top, below

    def inclusive_by_op(self, label_of):
        """Inclusive seconds per (operation label, span name)."""
        out = defaultdict(float)
        for name, t0, t1, _, op in self.spans:
            out[label_of(op), name] += t1 - t0
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "op": op}) + "\n")
