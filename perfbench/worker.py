"""Run one pass of points in a fresh process.

Usage: python3 worker.py JOB.json

JOB.json holds {"points": [...], "budget_s": float, "trace": bool}, or
{"cli_argv": [...], "trace": bool} for an in-process CLI run, or {} for
the L1 microbenchmark.  Each point is timed around the policy call alone.
A point that raises is recorded with its exception type and message; a
point that runs over ``budget_s`` is interrupted by SIGALRM and recorded
as over budget.  A speed probe runs, untimed, before each point and
after the last.  The first line carries the time the worker took to
import effcap; then one JSON line is written per point as soon as it
ends, with the worker's peak resident memory so far, so a killed worker
still reports the points it finished; the last line carries the trace
totals.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time

from oracle import build_spec


class OverBudget(BaseException):
    """Raised from the alarm handler; a BaseException so that no
    ``except Exception`` in the program can swallow it."""


def _alarm(signum, frame):
    raise OverBudget()


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _emit_point(out):
    """A point's line, with the worker's peak resident memory so far."""
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _emit(out)


def _call(point, spec):
    """The public call a user makes for this point, and its route."""
    from effcap import policies
    from effcap.combiner import _gamma_sum_params

    qos = policies.QosSpec(point["theta"])
    policy = point["policy"]
    if policy == "opra":
        # the CLI's ``auto`` rule
        if _gamma_sum_params(spec) is not None:
            return "mgf", lambda: policies.ec_opra_mgf(spec, qos)
        return "chf", lambda: policies.ec_opra_chf(spec, qos)
    fn = getattr(policies, f"ec_{policy}")
    return "mgf" if policy in ("ora", "cifr") else "chf", \
        lambda: fn(spec, qos)


def speed_probe():
    """Seconds for a fixed mix of interpreter, NumPy and SciPy work on
    small arrays, and NumPy work on a 4 MB one, about 20 ms; run.py
    rescales point times by it."""
    import numpy as np
    from scipy.special import gammaln

    x = np.linspace(0.1, 10.0, 4096)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(30_000):
        acc += (i % 7) * 0.5
    for _ in range(30):
        gammaln(x + np.exp(-x) * np.sqrt(x) + np.log1p(x))
    big = np.linspace(0.1, 10.0, 1 << 19)
    for _ in range(2):
        np.sqrt(big * 1.5).sum()
    return time.perf_counter() - t0


def run_points(points, budget_s):
    signal.signal(signal.SIGALRM, _alarm)
    for point in points:
        out = {"cell": point["cell"], "policy": point["policy"],
               "probe_s": speed_probe()}
        try:
            spec = build_spec(point["combiner"], point["branches"],
                              point["snr_db"])
            out["route"], call = _call(point, spec)
        except Exception as exc:  # invalid point: reported, never timed
            out.update(status="error", error=f"{type(exc).__name__}: {exc}",
                       seconds=0.0)
            _emit_point(out)
            continue
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        try:
            res = call()
            signal.setitimer(signal.ITIMER_REAL, 0)
            out["seconds"] = time.perf_counter() - t0
            out.update(status="ok", value=res.value,
                       gamma0=res.cutoff_gamma0,
                       flag=res.diagnostics.get("flag"))
        except OverBudget:
            out["seconds"] = time.perf_counter() - t0
            out.update(status="over-budget", error="over budget")
        except Exception as exc:  # per-point boundary: record and go on
            signal.setitimer(signal.ITIMER_REAL, 0)
            out["seconds"] = time.perf_counter() - t0
            out.update(status="error",
                       error=f"{type(exc).__name__}: {exc}")
        _emit_point(out)
    _emit({"probe_end_s": speed_probe()})


def run_cli(argv):
    """One in-process CLI run."""
    from effcap import cli

    t0 = time.perf_counter()
    code = cli.main(argv)
    _emit({"cli_seconds": time.perf_counter() - t0, "exit_code": code})


# Branch models of the L1 microbenchmark, one per fading family.
L1_MODELS = {
    "nakagami": ("Nakagami", {"m": 1.7}),
    "gg": ("GeneralizedGamma", {"m": 2.2, "beta": 1.5}),
    "akm": ("AlphaKappaMu", {"alpha": 1.8, "kappa": 2.0, "mu": 1.5}),
    "aem": ("AlphaEtaMu", {"alpha": 2.5, "eta": 3.0, "mu": 1.2}),
    "gsnm": ("Gsnm", {"m": 2.0, "beta": 2.5, "m_s": 3.0, "omega_s": 1.0}),
}
L1_REPEATS = 9


def run_l1_probe():
    """Microseconds per CHF sample of each fading family.

    Per family, the median of L1_REPEATS cold chf_rp calls at p = 1 (the
    EGC power, where every family needs a quadrature) on 32 frequencies
    log-spaced over [0.1, 100].  Each call gets its own model, shape
    parameters scaled by 1 + 1e-3 k, so no cached grid serves it.
    """
    import numpy as np

    from effcap import fading

    omega = np.geomspace(0.1, 100.0, 32)
    out = {}
    for tag, (cls, params) in L1_MODELS.items():
        times = []
        for k in range(L1_REPEATS):
            model = getattr(fading, cls)(**{
                name: value if name == "omega_s" else value * (1 + 1e-3 * k)
                for name, value in params.items()})
            t0 = time.perf_counter()
            fading.chf_rp(model, 1.0, omega)
            times.append(time.perf_counter() - t0)
        out[tag] = 1e6 * statistics.median(times) / omega.size
    _emit({"l1_us_per_sample": out})


def main():
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    # import the whole user path before tracing, so wrappers bind
    # everywhere; this import is the set-up a user's fresh process pays
    t0 = time.perf_counter()
    import effcap.cli  # noqa: F401
    import effcap.policies  # noqa: F401
    _emit({"import_s": time.perf_counter() - t0})

    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if "cli_argv" in job:
        run_cli(job["cli_argv"])
    elif "points" in job:
        run_points(job["points"], job["budget_s"])
    else:
        run_l1_probe()
    if tracer:
        _emit({"trace": tracer.snapshot()})


if __name__ == "__main__":
    main()
