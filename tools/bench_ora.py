"""Time every ORA point of the benchmark workloads on three routes.

Run from the repository root:

    python tools/bench_ora.py --out BENCH_ora.json

The points are every ORA point of ``closed-l1`` and ``numeric-l1`` at
seeds 1-3 (``perfbench/workloads.py``).  Each point is evaluated three
ways, so the route ORA takes and the routes it replaced sit in one file:

* ``ec_ora``: ``policies.ec_ora`` as a user calls it, with the route it
  reports (``"product"``, ``"laguerre"``, ``"law-ray"`` or ``"kummer"``);
* ``law_ray``: ``combiner.x_ora_mean``, the node sum over the ray measure
  of the combiner output (p > 0 only; AF points record its DomainError);
* ``pairing``: ``policies._ora_integral`` at tol 1e-12, the Laguerre
  (q = 1) or Kummer (q = -1) pairing (EGC points record its DomainError).

Every call is cold: each (workload, seed) runs in a fresh interpreter
with one BLAS/OpenMP thread, and every cache of the package is emptied
before each timed call.  Each child runs ``_REPEAT`` times and a point's
time is the median.  Per point the JSON keeps the route, the seconds, the
term or evaluation count and the capacity (bits/s/Hz) of each method; per
workload, the total and median seconds of each method over the points it
serves and the largest relative gap of each reference to ``ec_ora``.
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
METHODS = ("ec_ora", "law_ray", "pairing")
# fresh children per (workload, seed); a point's time is their median
_REPEAT = 3

_CHILD = r"""
import json, math, sys, time
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
import workloads
from oracle import build_spec
from effcap import combiner, fading, policies, quadrature, specfun

def clear():
    for mod in (combiner, fading, policies, quadrature, specfun):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()

def timed(fn):
    clear()
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"[:200]}
    out["seconds"] = time.perf_counter() - t0
    return out

for i, pt in enumerate(workloads.points(sys.argv[3], int(sys.argv[4]))):
    if pt["policy"] != "ora":
        continue
    spec = build_spec(pt["combiner"], pt["branches"], pt["snr_db"])
    qos = policies.QosSpec(pt["theta"])
    a_eff, div = policies._effective_a(spec, qos)

    def capacity(mean):
        return -math.log(mean) / (a_eff * math.log(2.0)) / div

    def ora():
        res = policies.ec_ora(spec, qos)
        return {"route": res.diagnostics["route"], "value": res.value,
                "evaluations": res.diagnostics.get("evaluations")}

    def law_ray():
        est = combiner.x_ora_mean(spec, a_eff)
        return {"value": capacity(est.value),
                "evaluations": est.evaluations}

    def pairing():
        mean, diag = policies._ora_integral(spec, a_eff, 1e-12)
        return {"value": capacity(mean), "evaluations": diag["evaluations"]}

    print(json.dumps({"index": i, "cell": pt["cell"],
                      "snr_db": pt["snr_db"], "theta": pt["theta"],
                      "ec_ora": timed(ora), "law_ray": timed(law_ray),
                      "pairing": timed(pairing)}), flush=True)
"""


def run_child(src: str, workload: str, seed: int) -> list:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, src, str(ROOT / "perfbench"),
         workload, str(seed)],
        capture_output=True, text=True, env=env, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def merge(runs: list) -> list:
    """The points of repeated runs, with each method's median seconds."""
    points = runs[0]
    for k, point in enumerate(points):
        for method in METHODS:
            times = [run[k][method].get("seconds") for run in runs]
            if None not in times:
                point[method]["seconds"] = statistics.median(times)
    return points


def summary(points: list) -> dict:
    out = {}
    for method in METHODS:
        times = [p[method]["seconds"] for p in points
                 if "seconds" in p[method]]
        gaps = [abs(p[method]["value"] / p["ec_ora"]["value"] - 1.0)
                for p in points
                if "value" in p[method] and "value" in p["ec_ora"]]
        out[method] = {
            "points": len(times),
            "total_s": sum(times),
            "median_s": statistics.median(times) if times else None,
            "max_rel_gap_to_ec_ora": max(gaps) if gaps else None,
        }
    routes: dict = {}
    for p in points:
        route = p["ec_ora"].get("route", "error")
        routes[route] = routes.get(route, 0) + 1
    out["ec_ora"]["routes"] = routes
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the src/ directory of the tree to time")
    ap.add_argument("--out", default="BENCH_ora.json")
    args = ap.parse_args(argv)
    report = {
        "what": "cold seconds per ORA point of the benchmark workloads on "
                "ec_ora's route, the law-ray node sum and the pairing at "
                "tol 1e-12; every cache emptied before each call, one "
                "single-thread process per (workload, seed)",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "seeds": list(SEEDS), "repeat": _REPEAT,
        "workloads": {},
    }
    for workload in WORKLOADS:
        points = []
        for seed in SEEDS:
            runs = [run_child(args.src, workload, seed)
                    for _ in range(_REPEAT)]
            for point in merge(runs):
                point["seed"] = seed
                points.append(point)
        report["workloads"][workload] = {"summary": summary(points),
                                         "points": points}
        for method, s in report["workloads"][workload]["summary"].items():
            print(workload, method, s["points"], "points",
                  f"total {s['total_s'] * 1e3:.1f} ms", flush=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
