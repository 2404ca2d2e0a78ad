"""Configuration-driven sweep runner.

Reads a YAML config describing the combiner, branch models, policy list
and (SNR, theta) grids, evaluates the analytic capacity for every grid
point (optionally next to the Monte-Carlo oracle), and writes
machine-readable CSV/JSON tables plus a z-score comparison report.

Output rows are emitted in deterministic grid order with a fixed 12
significant digit format, so identical configs produce byte-identical
files.

The YAML schema (defaults in brackets):

* ``combiner``: ``preset`` (mrc, egc or af) or explicit ``p``, ``q`` and
  ``K`` [1]; ``K`` also overrides EGC's 1/L.
* ``branches``: a list of model blocks, or one block as ``branch`` with
  ``L`` (in ``combiner`` or at the top level).  A block names ``model``
  (nakagami, generalized_gamma or gg, gsnm, alpha_kappa_mu,
  alpha_eta_mu) and that model's parameters.
* ``policies``: a nonempty subset of ora, opra, cifr, tifr.
* ``snr_db`` and ``theta`` (1/bit), both strictly increasing; or
  ``a_grid``, normalized QoS exponents A with theta = A ln 2 / (T B).
* ``T`` [2e-3 s], ``B`` [1e5 Hz]; ``tifr_gamma0`` fixes the TIFR cutoff
  [optimized]; ``methods: {opra: auto | incomplete-mgf | chf}`` [auto].
* ``mc``: ``samples`` [1e6], ``seed`` [20240501], ``batch`` [20];
  ``tolerances``: ``integral`` [1e-8], ``sigma`` [3]; ``out`` [results].

The flags --out, --policies, --seed and --tolerance override their keys.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Optional

import yaml

from .combiner import CombinerSpec, _gamma_sum_params
from .errors import EffcapError, ParameterError
from .fading import (
    AlphaEtaMu,
    AlphaKappaMu,
    FadingModel,
    GeneralizedGamma,
    Gsnm,
    Nakagami,
)
from .montecarlo import (
    McConfig,
    mc_ec_cifr,
    mc_ec_opra,
    mc_ec_ora,
    mc_ec_tifr,
)
from .policies import (
    EcResult,
    QosSpec,
    ec_cifr,
    ec_opra_chf,
    ec_opra_mgf,
    ec_ora,
    ec_tifr,
)

CSV_HEADER = "policy,method,snr_db,theta,A,ec_bits_s_hz,gamma0,err_estimate,status"

_MODELS = {
    "nakagami": Nakagami,
    "generalized_gamma": GeneralizedGamma,
    "gg": GeneralizedGamma,
    "gsnm": Gsnm,
    "alpha_kappa_mu": AlphaKappaMu,
    "alpha_eta_mu": AlphaEtaMu,
}

_PRESETS = {"mrc", "egc", "af"}


def parse_model(block: dict) -> FadingModel:
    kind = str(block.get("model", "")).lower()
    if kind not in _MODELS:
        raise ParameterError(f"unknown fading model '{kind}'")
    cls = _MODELS[kind]
    params = fields(cls)
    kwargs = {f.name: float(block[f.name]) for f in params if f.name in block}
    missing = [f.name for f in params
               if f.name not in kwargs and f.default is MISSING]
    if missing:
        raise ParameterError(f"model '{kind}' missing parameters {missing}")
    return cls(**kwargs)


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep description; the module docstring has the schema."""

    preset: Optional[str]
    p: Optional[float]
    q: Optional[float]
    K: Optional[float]
    branches: tuple
    policies: tuple
    snr_db: tuple
    theta: tuple
    T: float
    B: float
    opra_method: str
    tifr_gamma0: Optional[float]
    mc_samples: int
    mc_seed: int
    mc_batch: int
    tol: float
    tol_sigma: float
    out_dir: str

    def combiner_at(self, snr_db: float) -> CombinerSpec:
        snr = 10.0 ** (snr_db / 10.0)
        if self.preset == "mrc":
            return CombinerSpec.mrc(self.branches, snr)
        if self.preset == "egc":
            return CombinerSpec.egc(self.branches, snr, k_norm=self.K)
        if self.preset == "af":
            return CombinerSpec.af(self.branches, snr)
        return CombinerSpec(self.p, self.q, self.K or 1.0, self.branches,
                            snr)


def load_config(path: str, overrides: dict | None = None) -> SweepConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    return build_config(raw, overrides or {})


def build_config(raw: dict, overrides: dict | None = None) -> SweepConfig:
    overrides = overrides or {}
    comb = raw.get("combiner", {})
    preset = comb.get("preset")
    if preset is not None:
        preset = str(preset).lower()
        if preset not in _PRESETS:
            raise ParameterError(f"unknown combiner preset '{preset}'")
    branches = raw.get("branches")
    if branches is None:
        branch = raw.get("branch")
        L = int(comb.get("L", raw.get("L", 0)))
        if branch is None or L < 1:
            raise ParameterError("provide 'branches' or 'branch' plus L")
        branches = [branch] * L
    models = tuple(parse_model(b) for b in branches)

    policies = overrides.get("policies") or raw.get("policies") or []
    policies = tuple(str(p).lower() for p in policies)
    if not policies:
        raise ParameterError("policy list must be nonempty")
    bad = [p for p in policies if p not in ("ora", "opra", "cifr", "tifr")]
    if bad:
        raise ParameterError(f"unknown policies {bad}")

    snr_db = tuple(float(x) for x in raw.get("snr_db", []))
    T = float(raw.get("T", 2e-3))
    B = float(raw.get("B", 1e5))
    if "theta" in raw:
        theta = tuple(float(x) for x in raw["theta"])
    elif "a_grid" in raw:
        ln2 = math.log(2.0)
        theta = tuple(float(a) * ln2 / (T * B) for a in raw["a_grid"])
    else:
        theta = ()
    if not snr_db or not theta:
        raise ParameterError("snr_db and theta (or a_grid) must be nonempty")
    if any(b <= a for a, b in zip(snr_db, snr_db[1:])) \
            or any(b <= a for a, b in zip(theta, theta[1:])):
        raise ParameterError("grids must be strictly increasing")

    mc = raw.get("mc", {})
    tols = raw.get("tolerances", {})
    methods = raw.get("methods", {})
    return SweepConfig(
        preset=preset,
        p=comb.get("p"), q=comb.get("q"), K=comb.get("K"),
        branches=models,
        policies=policies,
        snr_db=snr_db,
        theta=theta,
        T=T, B=B,
        opra_method=str(methods.get("opra", "auto")).lower(),
        tifr_gamma0=(float(raw["tifr_gamma0"])
                     if "tifr_gamma0" in raw else None),
        mc_samples=int(overrides.get("mc_samples",
                                     mc.get("samples", 1_000_000))),
        mc_seed=int(overrides.get("seed", mc.get("seed", 20240501))),
        mc_batch=int(mc.get("batch", 20)),
        tol=float(overrides.get("tolerance", tols.get("integral", 1e-8))),
        tol_sigma=float(overrides.get("tol_sigma",
                                      tols.get("sigma", 3.0))),
        out_dir=str(overrides.get("out", raw.get("out", "results"))),
    )


# ---------------------------------------------------------------------------
# Sweep evaluation
# ---------------------------------------------------------------------------

def _eval_point(cfg: SweepConfig, policy: str, snr_db: float,
                theta: float) -> EcResult:
    spec = cfg.combiner_at(snr_db)
    qos = QosSpec(theta, cfg.T, cfg.B)
    if policy == "ora":
        return ec_ora(spec, qos, tol=cfg.tol)
    if policy == "opra":
        method = cfg.opra_method
        if method == "auto":
            method = ("incomplete-mgf" if _gamma_sum_params(spec) is not None
                      else "chf")
        if method in ("incomplete-mgf", "mgf"):
            return ec_opra_mgf(spec, qos, tol=cfg.tol)
        return ec_opra_chf(spec, qos, tol=cfg.tol)
    if policy == "cifr":
        return ec_cifr(spec, qos, tol=cfg.tol)
    if policy == "tifr":
        return ec_tifr(spec, qos, gamma0=cfg.tifr_gamma0, tol=cfg.tol)
    raise ParameterError(policy)


def _point_worker(args):
    cfg, policy, snr_db, theta = args
    try:
        res = _eval_point(cfg, policy, snr_db, theta)
        return (policy, res.method, snr_db, theta, res)
    except EffcapError as exc:
        return (policy, "failed", snr_db, theta, exc)


def run_sweep(cfg: SweepConfig, jobs: int = 1):
    """One row per (policy, snr, theta), in deterministic grid order."""
    points = [(cfg, pol, s, t) for pol in cfg.policies
              for s in cfg.snr_db for t in cfg.theta]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_point_worker, points))
    else:
        results = [_point_worker(p) for p in points]
    rows = []
    for (policy, method, snr_db, theta, res) in results:
        a_exp = theta * cfg.T * cfg.B / math.log(2.0)
        if isinstance(res, EcResult):
            rows.append({
                "policy": policy, "method": res.method, "snr_db": snr_db,
                "theta": theta, "A": a_exp, "ec_bits_s_hz": res.value,
                "gamma0": res.cutoff_gamma0,
                "err_estimate": res.diagnostics.get("err_estimate", 0.0),
                "status": str(res.diagnostics.get("flag", "ok")),
            })
        else:
            rows.append({
                "policy": policy, "method": "failed", "snr_db": snr_db,
                "theta": theta, "A": a_exp, "ec_bits_s_hz": float("nan"),
                "gamma0": None, "err_estimate": float("nan"),
                "status": f"error: {res}",
            })
    return rows


def run_mc_sweep(cfg: SweepConfig, analytic_rows=None):
    """Monte-Carlo rows aligned with the analytic grid."""
    mc_cfg = McConfig(samples=cfg.mc_samples, seed=cfg.mc_seed,
                      batch=cfg.mc_batch)
    gamma0_by_key = {}
    for row in analytic_rows or []:
        if row["policy"] == "tifr" and row["gamma0"] is not None:
            gamma0_by_key[(row["snr_db"], row["theta"])] = row["gamma0"]
    rows = []
    for policy in cfg.policies:
        for snr_db in cfg.snr_db:
            spec = cfg.combiner_at(snr_db)
            for theta in cfg.theta:
                qos = QosSpec(theta, cfg.T, cfg.B)
                a_exp = qos.A
                try:
                    if policy == "ora":
                        est = mc_ec_ora(spec, qos, mc_cfg)
                    elif policy == "opra":
                        est = mc_ec_opra(spec, qos, mc_cfg)
                    elif policy == "cifr":
                        est = mc_ec_cifr(spec, mc_cfg)
                    else:
                        g0 = gamma0_by_key.get((snr_db, theta))
                        if g0 is None:
                            g0 = ec_tifr(spec, qos,
                                         gamma0=cfg.tifr_gamma0,
                                         tol=cfg.tol).cutoff_gamma0
                        est = mc_ec_tifr(spec, g0, mc_cfg)
                    rows.append({
                        "policy": policy, "method": "monte-carlo",
                        "snr_db": snr_db, "theta": theta, "A": a_exp,
                        "ec_bits_s_hz": est.value, "gamma0": None,
                        "err_estimate": est.std_error,
                        "status": est.warning or "ok",
                    })
                except EffcapError as exc:
                    rows.append({
                        "policy": policy, "method": "monte-carlo",
                        "snr_db": snr_db, "theta": theta, "A": a_exp,
                        "ec_bits_s_hz": float("nan"), "gamma0": None,
                        "err_estimate": float("nan"),
                        "status": f"error: {exc}",
                    })
    return rows


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(_fmt(r[k]) for k in
                              ("policy", "method", "snr_db", "theta", "A",
                               "ec_bits_s_hz", "gamma0", "err_estimate",
                               "status")))
    return "\n".join(lines) + "\n"


def write_outputs(rows, out_dir: str, stem: str):
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    with open(csv_path, "w", newline="") as fh:
        fh.write(rows_to_csv(rows))
    json_path = os.path.join(out_dir, f"{stem}.json")
    clean = []
    for r in rows:
        item = dict(r)
        for k, v in item.items():
            if isinstance(v, float) and math.isnan(v):
                item[k] = None
        clean.append(item)
    with open(json_path, "w") as fh:
        json.dump(clean, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def compare(analytic_rows, mc_rows, tol_sigma: float):
    """Per-point z-scores of analytic vs Monte-Carlo values.

    A point whose analytic or Monte-Carlo evaluation raised is reported as
    ``analytic-failed`` or ``mc-failed`` and does not pass.  Returns
    (report text, all_pass).  Grids must align exactly.
    """
    key = lambda r: (r["policy"], r["snr_db"], r["theta"])
    mc_by_key = {key(r): r for r in mc_rows}
    lines = ["policy snr_db theta z_score verdict"]
    ok = True
    matched = 0
    for r in analytic_rows:
        m = mc_by_key.get(key(r))
        if m is None:
            continue
        matched += 1
        if r["status"].startswith("error"):
            z, verdict = "-", "analytic-failed"
        elif m["status"].startswith("error"):
            z, verdict = "-", "mc-failed"
        else:
            se = m["err_estimate"]
            diff = abs(r["ec_bits_s_hz"] - m["ec_bits_s_hz"])
            zv = diff / se if se > 0 else (0.0 if diff < 1e-12
                                           else float("inf"))
            z, verdict = f"{zv:.3f}", "pass" if zv <= tol_sigma else "FAIL"
        ok = ok and verdict == "pass"
        lines.append(f"{r['policy']} {_fmt(r['snr_db'])} {_fmt(r['theta'])} "
                     f"{z} {verdict}")
    if matched != len(analytic_rows) or matched != len(mc_rows):
        raise ParameterError("analytic and MC grids do not align")
    lines.append(f"summary: {'PASS' if ok else 'FAIL'} "
                 f"({matched} points, threshold {tol_sigma} sigma)")
    return "\n".join(lines) + "\n", ok


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="effcap",
        description="Effective-capacity sweeps for L_p-norm diversity "
                    "receivers over generalized fading")
    parser.add_argument("--config", required=True, help="YAML sweep config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--policies", default=None,
                        help="comma-separated policy subset")
    parser.add_argument("--mc", action="store_true",
                        help="run the Monte-Carlo oracle and compare")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--tolerance", type=float, default=None)
    args = parser.parse_args(argv)

    overrides = {}
    if args.out:
        overrides["out"] = args.out
    if args.policies:
        overrides["policies"] = args.policies.split(",")
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.tolerance is not None:
        overrides["tolerance"] = args.tolerance
    jobs = args.jobs
    if jobs is None:
        jobs = int(os.environ.get("EFFCAP_JOBS", "1"))

    try:
        cfg = load_config(args.config, overrides)
        rows = run_sweep(cfg, jobs=jobs)
        write_outputs(rows, cfg.out_dir, "sweep")
        exit_code = 0
        if any(r["status"].startswith("error") for r in rows):
            exit_code = 2
        if args.mc:
            mc_rows = run_mc_sweep(cfg, rows)
            write_outputs(mc_rows, cfg.out_dir, "mc")
            report, ok = compare(rows, mc_rows, cfg.tol_sigma)
            with open(os.path.join(cfg.out_dir, "compare.txt"), "w") as fh:
                fh.write(report)
            sys.stdout.write(report)
            if not ok:
                exit_code = 1
    except (EffcapError, OSError, yaml.YAMLError) as exc:
        sys.stderr.write(f"effcap: {exc}\n")
        return 2
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
