"""effcap benchmark: seconds per capacity point, per policy, per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload closed-l1 --seed 1 \
        --seconds 60 --trace 0

Workloads (see workloads.py and baseline.json for why each exists):

* ``closed-l1``  points whose branch transforms are exact closed forms;
* ``numeric-l1`` points whose branch transforms each cost a quadrature.

Load model: one closed-loop client.  The seed fixes the points of a
workload.  Pass 1 runs every point, one after another, in a fresh worker
process (cold caches), each under the workload's per-point time budget.
Later passes run again, each in a fresh worker, the points that succeeded
in pass 1: PASSES[workload] passes in all, but no pass after the
MIN_PASSES-th starts once ``--seconds`` have gone by.  A point's time is
the median of its passes.  A point that raised or ran over budget in pass
1 is not run again: its error is deterministic, and the budget sits
well above every point that succeeds (workloads.BUDGET_S).  BLAS and
OpenMP get one thread in the workers.

Other tenants of a shared host change its speed by 1.4x and more, from
one minute, or a few seconds, to the next, and every point moves with
it.  So the worker times a fixed speed probe (interpreter, NumPy and
SciPy work, none of it effcap's) before each point and after the last,
and point times are reported in seconds at the reference speed
PROBE_REF_S (see run_pass), in the report lines as in the metrics.  The
set-up time is the median over the run's workers of the time each took
to import effcap, rescaled by the probe that follows the import.

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1``
the points run once untraced and once traced, and the per-layer metrics,
the tracing overhead, an in-process CLI sweep for the cli layer and an L1
microbenchmark are printed.  Every successful point is checked against
the Monte-Carlo oracle outside the timed region.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("closed-l1", "numeric-l1")
POLICIES = workloads.POLICIES
MIN_PASSES = 2
PASSES = {"closed-l1": 3, "numeric-l1": 3}
# worker.speed_probe's median on the host the baseline was taken on
PROBE_REF_S = 20e-3
CHILD_TIMEOUT_S = 90.0  # hard stop, should a child hang where no alarm reaches
# The workers are one client each: BLAS and OpenMP get one thread, so that
# idle pool threads spinning on the host's other core do not slow the
# thread that does the work (the points take the same time either way).
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("EFFCAP_JOBS", None)
    env.update(dict.fromkeys(ONE_THREAD, "1"))
    return env


def run_worker(job, tag):
    """Run worker.py on ``job`` to completion; (JSON lines, wall s, killed)."""
    path = WORK / f"job-{tag}.json"
    path.write_text(json.dumps(job))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                             str(path)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=_env(),
                            cwd=str(ROOT), start_new_session=True)
    killed = False
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        out, err = proc.communicate()
        killed = True
    wall = time.perf_counter() - t0
    if proc.returncode != 0 and not killed:
        sys.stderr.write(err[-4000:])
    return [json.loads(line) for line in out.splitlines()], wall, killed


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

def run_pass(workload, points, trace, tag):
    """One pass over ``points`` in a fresh worker; (results, info).

    Point times are rescaled to the reference host speed: each is
    multiplied by PROBE_REF_S over the median of the four speed probes
    nearest it (before the previous point, before and after this one,
    after the next).  Over-budget points keep their wall time, the
    budget.  ``info`` holds the worker's wall time, import time, peak
    resident memory and trace totals.
    """
    lines, wall, killed = run_worker(
        {"points": points, "budget_s": workloads.BUDGET_S[workload],
         "trace": trace}, f"{workload}-{tag}")
    results = [obj for obj in lines if "cell" in obj]
    info = {k: v for obj in lines if "cell" not in obj
            for k, v in obj.items()}
    probes = [r["probe_s"] for r in results] + [info.get("probe_end_s")]
    for j, r in enumerate(results):
        if r["status"] != "over-budget":
            near = [p for p in probes[max(j - 1, 0):j + 3] if p]
            r["seconds"] *= PROBE_REF_S / statistics.median(near)
    for point in points[len(results):]:  # worker died or was killed
        results.append({"cell": point["cell"], "policy": point["policy"],
                        "status": "error", "seconds": 0.0,
                        "error": "worker killed" if killed else "worker died"})
    info["wall"] = wall
    info["first_probe_s"] = probes[0] or PROBE_REF_S
    info["peak_kb"] = max((r.get("rss_kb", 0) for r in results), default=0)
    info["probe_s"] = statistics.median(p for p in probes if p) \
        if results else PROBE_REF_S
    return results, info


def check_points(workload, seed, points, results):
    for i, (point, res) in enumerate(zip(points, results)):
        if res["status"] != "ok":
            continue
        spec = oracle.build_spec(point["combiner"], point["branches"],
                                 point["snr_db"])
        why = oracle.check(point["policy"], spec, point["theta"],
                           res["value"], res["gamma0"],
                           oracle.mc_seed(workload, seed, i),
                           res.get("flag"))
        if why is None and point["policy"] == "opra" \
                and res["route"] == "mgf":
            why = oracle.cross_route(spec, point["theta"], res["value"])
        if why is not None:
            res["status"] = "mismatch"
            res["error"] = why


def timed_passes(workload, seed, seconds):
    """Pass 1 over every point, then repeated passes over those that
    succeeded; each successful point gets the median of its times, and
    every pass must return its pass-1 value.  (results, pass infos)"""
    t_start = time.perf_counter()
    points = workloads.points(workload, seed)
    first, info = run_pass(workload, points, False, "1")
    infos = [info]
    again = [i for i, r in enumerate(first) if r["status"] == "ok"]
    times = {i: [first[i]["seconds"]] for i in again}
    while again and len(infos) < PASSES[workload] and (
            len(infos) < MIN_PASSES or time.perf_counter() - t_start
            < seconds):
        res, info = run_pass(workload, [points[i] for i in again], False,
                             str(len(infos) + 1))
        infos.append(info)
        for i, r in zip(again, res):
            ref = first[i]
            times[i].append(r["seconds"])
            if r["status"] == "over-budget":
                continue  # a slow moment of the host, timed at the budget
            if r["status"] != "ok" \
                    or abs(r["value"] - ref["value"]) > 1e-12 * abs(
                        ref["value"]):
                ref["status"] = "mismatch"
                ref["error"] = (f"not repeatable: {ref['value']!r}, then "
                                f"{r.get('value', r.get('error'))!r} in "
                                f"pass {len(infos)}")
    for i, secs in times.items():
        first[i]["seconds"] = statistics.median(secs)
    check_points(workload, seed, points, first)
    return first, infos


def cli_trace(seed):
    """A one-policy CLI sweep, in process with --jobs 1 and traced."""
    path = WORK / "cli-trace.yaml"
    # JSON is YAML, and the CLI reads its config with yaml.safe_load
    path.write_text(json.dumps(workloads.cli_config(seed)))
    out_dir = WORK / "out-cli-trace"
    shutil.rmtree(out_dir, ignore_errors=True)
    lines, _, _ = run_worker(
        {"cli_argv": ["--config", str(path), "--out", str(out_dir),
                      "--jobs", "1"], "trace": True}, "cli-trace")
    run = {k: v for obj in lines for k, v in obj.items()}
    wrote = (out_dir / "sweep.csv").is_file() \
        and (out_dir / "sweep.json").is_file()
    ok = run.get("exit_code") == 0 and wrote
    result = {"cell": "cli-sweep", "policy": "ora",
              "seconds": run.get("cli_seconds", 0.0),
              "status": "ok" if ok else "error",
              "error": None if ok else "CLI sweep failed or wrote no "
                                       "CSV/JSON"}
    return result, run.get("trace") or {}


def l1_probe():
    """Microseconds per CHF sample of each fading family (see worker)."""
    lines, _, _ = run_worker({}, "l1-probe")
    return lines[-1]["l1_us_per_sample"]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds):
    results, infos = timed_passes(workload, seed, seconds)
    attempted = len(results)
    failed = sum(r["status"] != "ok" for r in results)
    metrics = {}
    for policy in POLICIES:
        secs = [r["seconds"] for r in results
                if r["policy"] == policy and r["status"] == "ok"]
        metrics[f"{policy}_s_per_pt"] = _metric(
            sum(secs) / len(secs) if secs else float("nan"), "s")
    metrics["sweep_s"] = _metric(sum(r["seconds"] for r in results), "s")
    metrics["ok_frac"] = _metric((attempted - failed) / attempted, "1")
    metrics["peak_rss_mb"] = _metric(
        max(info["peak_kb"] for info in infos) / 1024.0, "MB")
    imports = [info["import_s"] * PROBE_REF_S / info["first_probe_s"]
               for info in infos if "import_s" in info]
    metrics["setup_s"] = _metric(
        statistics.median(imports) if imports else float("nan"), "s")
    detail = [f"passes: {len(infos)}; speed probe, ms per pass: "
              + ", ".join(f"{1e3 * info['probe_s']:.2f}" for info in infos),
              f"fail_frac = {failed}/{attempted} = {failed / attempted:.4f}"]
    return results, metrics, detail


def per_layer(workload, seed):
    points = workloads.points(workload, seed)
    base, base_info = run_pass(workload, points, False, "plain")
    results, info = run_pass(workload, points, True, "traced")
    base_wall, traced_wall = base_info["wall"], info["wall"]
    check_points(workload, seed, points, results)
    cli_result, cli_snap = cli_trace(seed)
    results.append(cli_result)
    l1 = l1_probe()
    snap = info.get("trace") or {}
    counts = snap.get("counts", {})
    calls = snap.get("calls", {})

    def get(table, key):
        return float(snap.get(table, {}).get(key, 0))

    def count(key):
        return _metric(counts.get(key, 0), "count")

    def per_sample(kind):
        n = counts.get(f"fading.{kind}.samples", 0)
        return 1e6 * counts.get(f"fading.{kind}.s", 0.0) / n if n else 0.0

    def per_point(total, points_key):
        n = counts.get(points_key, 0)
        return counts.get(total, 0) / n if n else 0.0

    m = {
        "fading.mgf.samples": count("fading.mgf.samples"),
        "fading.chf.samples": count("fading.chf.samples"),
        "fading.mgf.us_per_sample": _metric(per_sample("mgf"), "us"),
        "fading.chf.us_per_sample": _metric(per_sample("chf"), "us"),
    }
    for tag, us in l1.items():
        m[f"fading.chf.us_per_sample.{tag}"] = _metric(us, "us")
    for layer in ("fading", "quadrature", "specfun", "combiner", "policies"):
        m[f"{layer}.self_s"] = _metric(get("self_s", layer), "s")
    for layer in ("fading", "quadrature", "policies"):
        m[f"{layer}.failed"] = _metric(get("failed", layer), "count")
    m["quadrature.calls"] = _metric(get("entries", "quadrature"), "count")
    m["quadrature.evals"] = count("quadrature.evals")
    m["quadrature.panels"] = count("quadrature.panels")
    m["specfun.calls"] = _metric(get("entries", "specfun"), "count")
    m["combiner.chf_x.samples"] = count("combiner.chf_x.samples")
    m["combiner.joint_mgf_x.samples"] = count("combiner.joint_mgf_x.samples")
    m["combiner.cdf.calls"] = _metric(
        calls.get("combiner.cdf_x_gil_pelaez", 0)
        + calls.get("combiner.cdf_x_euler_laplace", 0), "count")
    m["combiner.moment.calls"] = _metric(
        sum(calls.get(f"combiner.{f}", 0) for f in
            ("x_moment", "x_inverse_moment", "x_fractional_moment")),
        "count")
    m["policies.opra.cutoff_iters_per_pt"] = _metric(
        per_point("policies.opra.cutoff_iters", "policies.opra.points"),
        "count/pt")
    m["policies.tifr.rate_evals_per_pt"] = _metric(
        per_point("policies.tifr.rate_evals", "policies.tifr.points"),
        "count/pt")
    cli_incl = cli_snap.get("incl_s", {})
    m["cli.self_s"] = _metric(cli_snap.get("self_s", {}).get("cli", 0.0), "s")
    m["cli.io_s"] = _metric(cli_incl.get("cli.load_config", 0.0)
                            + cli_incl.get("cli.write_outputs", 0.0), "s")
    for policy in POLICIES:
        pairs = [(t["seconds"], b["seconds"])
                 for t, b in zip(results, base)
                 if t["policy"] == policy and t["status"] == "ok"
                 and b["status"] == "ok"]
        m[f"trace.overhead.{policy}_s_per_pt"] = _metric(
            sum(t - b for t, b in pairs) / len(pairs) if pairs else 0.0, "s")
    m["trace.overhead.sweep_s"] = _metric(traced_wall - base_wall, "s")
    m["trace.overhead_pct"] = _metric(
        100.0 * (traced_wall / base_wall - 1.0), "%")
    return results, m, []


def print_report(workload, results, metrics, detail):
    print(f"workload {workload}: {len(results)} points")
    for r in results:
        print(f"  {r['cell']:16s} {r['policy']:5s} {r.get('route', ''):4s} "
              f"{r['seconds']:8.3f}s {r['status']:11s} {r.get('error') or ''}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for line in detail:
        print(f"  {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "effcap" / "cli.py").is_file():
        sys.stderr.write(f"effcap sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.trace:
        results, metrics, detail = per_layer(args.workload, args.seed)
    else:
        results, metrics, detail = end_to_end(args.workload, args.seed,
                                              args.seconds)
    print_report(args.workload, results, metrics, detail)
    failed = sum(r["status"] != "ok" for r in results)
    correct = not any(r["status"] == "mismatch" for r in results)
    for m in metrics.values():
        if not math.isfinite(m["value"]):  # e.g. no successful point
            m["value"] = None
            correct = False
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
