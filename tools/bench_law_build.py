"""Time cold builds of the combiner's law-ray measure, tree against tree.

Run from the repository root:

    git archive <commit> --prefix=base/ | tar -x -C /tmp/trees
    python tools/bench_law_build.py --tree base=/tmp/trees/base/src \\
        --tree head=src --out BENCH_law_build.json

Each case is one law, X = sum_l R_l^p over L branches of one fading
family (Nakagami, GG, alpha-kappa-mu, alpha-eta-mu, GSNM; L in {2, 3, 4};
p in {1, 2}), plus two pairs of unlike branches, whose sums take the
two-sided inner rule: two GSNM laws (p in {1, 2}) and two Nakagami laws
(p = 2).  Every build runs in a fresh interpreter with one BLAS/OpenMP
thread: the child imports effcap untimed, then times
``combiner._law_grid(branches, p, 0, 0)``, level 0 of the measure, with
every cache empty.  Each repeat runs every tree once,
in an order that alternates between repeats (``_REPEAT`` pairs), and the
JSON keeps every time, the median and quartiles per tree, and the ratio
of medians to the first tree.  A later tree is "faster" (or "slower")
than the first only when it wins (or loses) nine tenths of the repeats
and the medians differ by more than the first tree's quartile spread; any
other case is "unresolved".
Untimed, the child also reports the node count and E[X^-1/2] of the law,
so trees that disagree on the law show it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

# repeats per case: each runs every tree once, so they pair the trees
_REPEAT = 10

# one branch model per family: [class name in effcap.fading, arguments]
_FAMILIES = {
    "nakagami": ["Nakagami", [1.5]],
    "gg": ["GeneralizedGamma", [2.2, 1.5]],
    "akm": ["AlphaKappaMu", [2.1, 1.5, 1.8]],
    "aem": ["AlphaEtaMu", [2.5, 3.0, 1.2]],
    "gsnm": ["Gsnm", [2.0, 2.5, 3.0, 1.0]],
}


def cases():
    out = []
    for family, model in _FAMILIES.items():
        for L in (2, 3, 4):
            for p in (1.0, 2.0):
                out.append((f"{family}-x{L}-p{p:g}", p, [model] * L))
    for p in (1.0, 2.0):
        out.append((f"gsnm-mixed-x2-p{p:g}", p,
                    [_FAMILIES["gsnm"], ["Gsnm", [1.6, 2.2, 2.0, 1.0]]]))
    # a pair of unlike single-component branches (closed-l1's nak-mrc-ind):
    # its inner rule is the two-sided one, with no grid read
    out.append(("nakagami-mixed-x2-p2", 2.0,
                [["Nakagami", [1.2]], ["Nakagami", [2.5]]]))
    return out


_CHILD = r"""
import json, sys, time
sys.path.insert(0, sys.argv[1])
from effcap import combiner, fading
p = float(sys.argv[2])
branches = tuple(getattr(fading, name)(*args)
                 for name, args in json.loads(sys.argv[3]))
t0 = time.perf_counter()
grid = combiner._law_grid(branches, p, 0, 0)
seconds = time.perf_counter() - t0
spec = combiner.CombinerSpec(p, 2.0 / p, 1.0, branches, 1.0)
moment = combiner.x_inverse_moment(spec, 0.5)
print(json.dumps({"seconds": seconds, "nodes": int(grid.g.size),
                  "inverse_moment_half": moment}))
"""


def verdict(first: list, other: list) -> str:
    """"faster", "slower" or "unresolved": ``other`` against ``first``,
    paired by repeat."""
    q1, _, q3 = statistics.quantiles(first, n=4)
    gap = statistics.median(first) - statistics.median(other)
    wins = sum(b < a for a, b in zip(first, other))
    losses = sum(b > a for a, b in zip(first, other))
    if gap > q3 - q1 and wins >= 0.9 * len(first):
        return "faster"
    if -gap > q3 - q1 and losses >= 0.9 * len(first):
        return "slower"
    return "unresolved"


def run_one(src: str, p: float, models: list) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, src, repr(p), json.dumps(models)],
        capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--tree", action="append", required=True,
                    metavar="LABEL=SRC",
                    help="a label and the src/ directory of a tree; the "
                         "first tree is the reference of the ratios")
    ap.add_argument("--out", default="BENCH_law_build.json")
    args = ap.parse_args(argv)
    trees = [t.split("=", 1) for t in args.tree]
    if any(len(t) != 2 for t in trees):
        ap.error("--tree takes LABEL=SRC")
    report = {
        "what": "seconds for a cold level-0 build of combiner._law_grid, "
                "one fresh single-thread process per build",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "repeat": _REPEAT,
        "trees": [label for label, _ in trees],
        "cases": {},
    }
    for name, p, models in cases():
        runs = {label: [] for label, _ in trees}
        last = {}
        for r in range(_REPEAT):
            order = trees if r % 2 == 0 else trees[::-1]
            for label, src in order:
                last[label] = run_one(src, p, models)
                runs[label].append(last[label]["seconds"])
        med = {label: statistics.median(v) for label, v in runs.items()}
        first = trees[0][0]
        ref = med[first]
        report["cases"][name] = {
            "p": p, "branches": models,
            "seconds": runs, "median_s": med,
            "quartiles_s": {k: statistics.quantiles(v, n=4)[::2]
                            for k, v in runs.items()},
            "ratio_to_first": {k: v / ref for k, v in med.items()},
            "verdict_to_first": {k: verdict(runs[first], v)
                                 for k, v in runs.items() if k != first},
            "nodes": {k: v["nodes"] for k, v in last.items()},
            "inverse_moment_half": {k: v["inverse_moment_half"]
                                    for k, v in last.items()},
        }
        print(name, "  ".join(f"{k} {v * 1e3:.1f} ms" for k, v in med.items()),
              *report["cases"][name]["verdict_to_first"].values(), flush=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
