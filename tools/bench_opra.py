"""Time every OPRA point of the benchmark workloads, cold, on two trees.

Run from the repository root, with a checkout of the commit to compare
against (for example one made by ``git archive``):

    python tools/bench_opra.py --base-src /path/to/parent/src \
        --out BENCH_opra.json

The points are every OPRA point of ``closed-l1`` and ``numeric-l1`` at
seeds 1-3 (``perfbench/workloads.py``), called as the benchmark's worker
calls them (``ec_opra_mgf`` for exact Gamma sums, else ``ec_opra_chf``).
Every call is cold: each (tree, workload, seed) runs in a fresh
interpreter with one BLAS/OpenMP thread, every cache of the package is
emptied before each call, and a call past the workload's per-point
budget is stopped and recorded as over budget.  Each child runs
``_REPEAT`` times and a point's time is the median.

Per point the JSON keeps, for each tree, the route (``law-ray`` or
``panels``), the seconds, the cutoff's residual evaluations
(``cutoff_iterations``), the deepest level of the law grid that any call
built (``combiner._law_grid``), the cutoff solver the diagnostics report
(absent before it was reported) and the capacity and cutoff.  Per
workload it sums each tree's seconds over the points that finish in
both, and compares the values: the largest relative gap on the law ray,
and whether every panel-route (AF) point is bit-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("closed-l1", "numeric-l1")
SEEDS = (1, 2, 3)
# fresh children per (tree, workload, seed); a point's time is their median
_REPEAT = 3

_CHILD = r"""
import json, signal, sys, time
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
import workloads
from oracle import build_spec
from effcap import combiner, fading, policies, quadrature, specfun

class OverBudget(BaseException):
    pass

def alarm(signum, frame):
    raise OverBudget()

levels = []
law_grid = combiner._law_grid

def spy(branches, p, level, halvings):
    levels.append(level)
    return law_grid(branches, p, level, halvings)

spy.cache_clear = law_grid.cache_clear
combiner._law_grid = spy

def clear():
    for mod in (combiner, fading, policies, quadrature, specfun):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()

signal.signal(signal.SIGALRM, alarm)
workload, budget = sys.argv[3], workloads.BUDGET_S[sys.argv[3]]
for i, pt in enumerate(workloads.points(workload, int(sys.argv[4]))):
    if pt["policy"] != "opra":
        continue
    spec = build_spec(pt["combiner"], pt["branches"], pt["snr_db"])
    qos = policies.QosSpec(pt["theta"])
    if combiner._gamma_sum_params(spec) is not None:
        call, fn = "mgf", policies.ec_opra_mgf
    else:
        call, fn = "chf", policies.ec_opra_chf
    out = {"index": i, "cell": pt["cell"], "snr_db": pt["snr_db"],
           "theta": pt["theta"], "call": call,
           "route": combiner.integral_route(spec)}
    clear()
    levels.clear()
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        res = fn(spec, qos)
        signal.setitimer(signal.ITIMER_REAL, 0)
        diag = res.diagnostics
        out.update(status="ok", value=res.value, gamma0=res.cutoff_gamma0,
                   regime=diag.get("regime"),
                   cutoff_iterations=diag.get("cutoff_iterations", 0),
                   cutoff_solver=diag.get("cutoff_solver"))
    except OverBudget:
        out.update(status="over-budget")
    except Exception as exc:
        signal.setitimer(signal.ITIMER_REAL, 0)
        out.update(status="error", error=f"{type(exc).__name__}: {exc}"[:200])
    out["seconds"] = time.perf_counter() - t0
    out["max_law_level"] = max(levels, default=None)
    print(json.dumps(out), flush=True)
"""


def run_child(src: str, workload: str, seed: int) -> list:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, src, str(ROOT / "perfbench"),
         workload, str(seed)],
        capture_output=True, text=True, env=env, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def timed_points(src: str, workload: str, seed: int) -> list:
    """The points of ``_REPEAT`` cold runs, with their median seconds."""
    runs = [run_child(src, workload, seed) for _ in range(_REPEAT)]
    points = runs[0]
    for k, point in enumerate(points):
        point["seconds"] = statistics.median(run[k]["seconds"]
                                             for run in runs)
    return points


def summary(trees: dict, points: list) -> dict:
    """Per tree: seconds over the points every tree finishes, and the
    largest cutoff evaluations and law level on the law ray; across the
    trees: the value gaps."""
    done = [p for p in points
            if all(p[t]["status"] == "ok" for t in trees)]
    law = [p for p in done if p["route"] == "law-ray"]
    out = {"points": len(points), "finished_in_every_tree": len(done)}
    for tree in trees:
        times = [p[tree]["seconds"] for p in done]
        law_times = [p[tree]["seconds"] for p in law]
        out[tree] = {
            "total_s": sum(times),
            "law_ray_total_s": sum(law_times),
            "law_ray_median_s": statistics.median(law_times)
            if law_times else None,
            "law_ray_max_cutoff_iterations": max(
                (p[tree]["cutoff_iterations"] for p in law), default=None),
            "law_ray_max_law_level": max(
                (p[tree]["max_law_level"] for p in law
                 if p[tree]["max_law_level"] is not None), default=None),
            "statuses": {s: sum(p[tree]["status"] == s for p in points)
                         for s in ("ok", "error", "over-budget")},
        }
    if "base" in trees:
        gaps = [abs(p["change"]["value"] / p["base"]["value"] - 1.0)
                for p in law if p["base"]["value"]]
        panels = [p for p in done if p["route"] == "panels"]
        keys = ("value", "gamma0", "cutoff_iterations")
        out["law_ray_max_rel_value_gap"] = max(gaps, default=None)
        out["panels_bit_identical"] = all(
            p["change"][k] == p["base"][k] for p in panels for k in keys)
        out["same_statuses"] = all(
            p["change"]["status"] == p["base"]["status"] for p in points)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the src/ directory of the tree to time")
    ap.add_argument("--base-src",
                    help="the src/ directory of the tree to compare with")
    ap.add_argument("--out", default="BENCH_opra.json")
    args = ap.parse_args(argv)
    trees = {"change": args.src}
    if args.base_src:
        trees["base"] = args.base_src
    report = {
        "what": "cold seconds, cutoff residual evaluations and deepest law "
                "level per OPRA point of the benchmark workloads; every "
                "cache emptied before each call, one single-thread process "
                "per (tree, workload, seed), the workload's per-point "
                "budget",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "seeds": list(SEEDS), "repeat": _REPEAT,
        "workloads": {},
    }
    for workload in WORKLOADS:
        points = []
        for n, seed in enumerate(SEEDS):
            # alternate which tree runs first, so that slow spells of the
            # host fall on both
            order = list(trees)[::-1 if n % 2 else 1]
            runs = {tree: timed_points(trees[tree], workload, seed)
                    for tree in order}
            for k, point in enumerate(runs["change"]):
                merged = {key: point[key] for key in
                          ("index", "cell", "snr_db", "theta", "call",
                           "route")}
                merged["seed"] = seed
                for tree in trees:
                    merged[tree] = {key: val for key, val in
                                    runs[tree][k].items()
                                    if key not in merged}
                points.append(merged)
        summ = summary(trees, points)
        report["workloads"][workload] = {"summary": summ, "points": points}
        for tree in trees:
            s = summ[tree]
            print(workload, tree, f"total {s['total_s']:.3f} s,",
                  f"law-ray {s['law_ray_total_s']:.3f} s,",
                  "max evaluations", s["law_ray_max_cutoff_iterations"],
                  "max level", s["law_ray_max_law_level"], flush=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
