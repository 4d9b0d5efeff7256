#!/usr/bin/env python3
"""switchcurve benchmark: one caller, one operation at a time, public API.

Run from the root of a checkout:

    python3 bench/run.py --workload study --seed 1 --seconds 35 --trace 0

Workloads are ``study``, ``cv-select`` and ``enum-wide`` (see
bench/README.md).  ``--trace 0`` measures the end-to-end metrics with no
instrumentation.  ``--trace 1`` runs an untraced and a traced phase of
``--seconds / 3`` each, plus the same workload for ``--seconds / 3`` in a
child process with BLAS pinned to one thread, and reports per-layer
metrics.  Every output is checked.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; metric names and units come from BENCHMARK.json.  Provenance, per-operation times and, when
traced, the spans are written under bench/out/.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("study", "cv-select", "enum-wide")
SETUP_SAMPLES = 3           # set-ups per run; setup_s is their median
CHILD_TIMEOUT = 150         # seconds, for set-up probes and the BLAS child
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
ROADMAP_SHARES = {          # ROADMAP open item 1, design 2, share of a fit
    "em.e_step": 59, "inference.standard_errors_for_fit": 18,
    "latent.joint_posterior": 17, "latent.pairwise_from_joint": 16,
    "covariance.CovStructure.loglik_table": 14,
    "latent.marginals_from_joint": 13}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one set-up, print it and exit")
    return ap.parse_args(argv)


def declared_metrics():
    """Metric name -> unit, for each trace mode, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_checkout():
    if not (SRC / "switchcurve" / "__init__.py").is_file():
        raise BenchError(f"no switchcurve sources under {SRC}; run from the "
                         "root of a switchcurve checkout")
    sys.path.insert(0, str(SRC))


def load(name, seed):
    """Set-up: import the package, generate the inputs, fill the
    enumeration cache.  Returns (workload, seconds taken)."""
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[name](seed)
    elapsed = time.perf_counter() - t0
    import switchcurve
    if not Path(switchcurve.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"switchcurve imported from {switchcurve.__file__}, "
                         f"not from {SRC}")
    return wl, elapsed


def run_child(args, extra, env=None):
    """Run this script in a child process; returns its last stdout line."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"child {' '.join(extra)} failed "
                         f"({proc.returncode}): {proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Phase:
    """Operations run back to back from index ``start``."""

    def __init__(self, start):
        self.start = start
        self.times = []
        self.outputs = []
        self.wall = 0.0

    @property
    def ops_per_s(self):
        return len(self.times) / self.wall


def measure(wl, seconds, start, tracer=None):
    """Run operations until ``seconds`` have passed and a rotation ends."""
    phase = Phase(start)
    i = start
    begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = wl.op(i)
        except Exception:   # a failed operation is counted, not fatal
            out = traceback.format_exc(limit=4)
        t1 = time.perf_counter()
        phase.times.append(t1 - t0)
        phase.outputs.append(out)
        i += 1
        if t1 - begin >= seconds and (i - start) % wl.rotation == 0:
            break
    phase.wall = time.perf_counter() - begin
    return phase


def check(wl, phase):
    """Failure messages, one per failed operation.  The first rotation of
    the phase gets the workload's deep checks."""
    failures = []
    for j, out in enumerate(phase.outputs):
        i = phase.start + j
        if isinstance(out, str):
            problems = [f"raised:\n{out}"]
        else:
            problems = wl.check(i, out, deep=j < wl.rotation)
        if problems:
            failures.append(f"op {i} ({wl.label(i)}): " + "; ".join(problems))
    return failures


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout, or None where it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def thread_env():
    return {k: os.environ.get(k) for k in THREAD_VARS}


def threads_pinned():
    """True in a process whose BLAS thread count the environment sets,
    such as the one-thread child of a traced run."""
    return any(v is not None for v in thread_env().values())


def provenance(args, wl):
    import numpy
    import scipy
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    env = thread_env()
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": env,
        "blas_threads": ("set by environment" if threads_pinned()
                         else "default"),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "platform": platform.platform(),
        "git_commit": git_commit(),
        "properties": wl.properties(),
    }


def result_line(declared, values, attempted, failed):
    if set(values) != set(declared):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(declared))}")
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": declared[k]}
                    for k in declared}})


def write_record(args, record):
    OUT.mkdir(exist_ok=True)
    pinned = record["provenance"]["blas_threads"] != "default"
    path = OUT / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                  f"{'-threadenv' if pinned else ''}.json")
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("# provenance " + json.dumps(record["provenance"], default=str))


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------

def end_to_end(args, declared):
    probes = 0 if threads_pinned() else SETUP_SAMPLES - 1
    samples = [float(run_child(args, ["--setup-probe"]))
               for _ in range(probes)]
    wl, own = load(args.workload, args.seed)
    samples.append(own)
    measure(wl, 0.0, 0)                      # warm-up rotation, unscored
    gc.collect()
    phase = measure(wl, args.seconds, wl.rotation)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = check(wl, phase)
    attempted, failed = len(phase.times), len(failures)
    values = {
        "setup_s": statistics.median(samples),
        "ops_per_s": phase.ops_per_s,
        "op_s.p50": statistics.median(phase.times),
        "op_s.p90": statistics.quantiles(phase.times, n=10,
                                         method="inclusive")[-1],
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (attempted - failed) / attempted,
    }
    line = result_line(declared, values, attempted, failed)
    write_record(args, {
        "provenance": provenance(args, wl), "metrics": values,
        "setup_samples_s": samples, "failures": failures,
        "ops": [{"op": phase.start + j, "label": wl.label(phase.start + j),
                 "seconds": t} for j, t in enumerate(phase.times)]})
    return line, failures


def per_layer(args, declared):
    import tracing
    from switchcurve import latent

    wl, _ = load(args.workload, args.seed)
    setup_misses = latent.enumerate_states.cache_info().misses
    part = args.seconds / 3.0
    measure(wl, 0.0, 0)                      # warm-up rotation, unscored
    gc.collect()
    plain = measure(wl, part, wl.rotation)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = measure(wl, part, plain.start + len(plain.times), tracer)
    finally:
        tracer.uninstall()
    run_misses = latent.enumerate_states.cache_info().misses - setup_misses
    failures = check(wl, plain) + check(wl, traced)
    attempted = len(plain.times) + len(traced.times)

    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    blas1 = json.loads(run_child(
        args, ["--seconds", str(part), "--trace", "0"], env=env))
    attempted += blas1["attempted"]
    if blas1["failed"]:
        failures.append(f"BLAS-pinned child: {blas1['failed']} failed ops")
    blas1_ops = blas1["metrics"]["ops_per_s"]["value"]
    loop = wl.default_loop_probe() if wl.name == "cv-select" else None
    if loop and not loop["converged"]:
        print(f"bench: known defect: select_lambdas with the default CVConfig "
              f"did not converge in {loop['n_outer']} outer steps on "
              f"{loop['input']} ({loop['seconds']:.1f} s)", file=sys.stderr)

    ops = len(traced.times)
    op_time = sum(traced.times)
    totals, top, below = tracer.totals()
    values = {}
    for name, (self_s, _, calls) in totals.items():
        values[f"{name}.self_ms"] = 1000.0 * self_s / ops
        values[f"{name}.calls"] = calls / ops
    values.update({
        "covariance.nonhomog_expected_term.calls":
            tracer.counts["covariance.nonhomog_expected_term"] / ops,
        "cv.n_fallback.frac":
            tracer.fallbacks / max(1, tracer.replicate_scores),
        "em.ecm_fit.iterations":
            tracer.iterations / max(1, totals["em.ecm_fit"][2]),
        "latent.enumerate_states.setup_misses": setup_misses,
        "latent.enumerate_states.misses": run_misses,
        "latent.table_bytes": tracer.table_bytes,
        "trace.coverage": below / op_time,
        "trace_overhead": traced.ops_per_s / plain.ops_per_s,
        "blas1.ops_per_s": blas1_ops,
        "blas1.ratio": blas1_ops / plain.ops_per_s,
        "cv.default_loop.n_outer": loop["n_outer"] if loop else 0,
        "cv.default_loop.unconverged":
            int(not loop["converged"]) if loop else 0,
    })
    shares = roadmap_shares(wl, tracer, totals)
    report(args, values, totals, ops, shares, top / op_time)
    line = result_line(declared, values, attempted, len(failures))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    write_record(args, {
        "provenance": provenance(args, wl), "metrics": values,
        "roadmap_shares_pct": shares, "failures": failures,
        "top_level_coverage": top / op_time, "default_loop": loop,
        "untraced_ops_per_s": plain.ops_per_s,
        "traced_ops_per_s": traced.ops_per_s, "blas1": blas1})
    return line, failures


def roadmap_shares(wl, tracer, totals):
    """Inclusive shares (%) of the layers ROADMAP item 1 quotes: of a
    design-2 fit on ``study``, of ``select_lambdas`` on ``cv-select``."""
    if wl.name == "study":
        incl = tracer.inclusive_by_op(wl.label)
        base = incl["design2", "em.ecm_fit"]
        return {name: 100.0 * incl["design2", name] / base
                for name in ROADMAP_SHARES}
    if wl.name == "cv-select":
        return {"cv.cv_score": 100.0 * totals["cv.cv_score"][1]
                / totals["cv.select_lambdas"][1]}
    return {}


def report(args, values, totals, ops, shares, top_coverage):
    print(f"# {args.workload}, seed {args.seed}: {ops} traced operations; "
          f"top-level spans cover {100 * top_coverage:.1f}% of operation "
          f"time, their wrapped children "
          f"{100 * values['trace.coverage']:.1f}%; traced/untraced ops/s "
          f"{values['trace_overhead']:.3f}; BLAS pinned to one thread / "
          f"default {values['blas1.ratio']:.3f}")
    print(f"# {'layer':44s} {'self ms/op':>11s} {'incl ms/op':>11s} "
          f"{'calls/op':>9s}")
    for name, (self_s, incl_s, calls) in sorted(
            totals.items(), key=lambda kv: -kv[1][0]):
        if calls:
            print(f"# {name:44s} {1000 * self_s / ops:11.3f} "
                  f"{1000 * incl_s / ops:11.3f} {calls / ops:9.2f}")
    for name, pct in shares.items():
        quoted = ROADMAP_SHARES.get(name)
        ref = f"ROADMAP {quoted}%" if quoted else "ROADMAP: the bulk"
        where = "design-2 fit" if quoted else "select_lambdas"
        print(f"# share of {where}: {name} {pct:.1f}% ({ref})")


def main(argv=None):
    args = parse_args(argv)
    try:
        check_checkout()
        if args.setup_probe:
            print(repr(load(args.workload, args.seed)[1]))
            return 0
        e2e, layers = declared_metrics()
        if args.trace:
            line, failures = per_layer(args, layers)
        else:
            line, failures = end_to_end(args, e2e)
    except (BenchError, FileNotFoundError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for msg in failures[:10]:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
