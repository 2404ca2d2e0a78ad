import json
import os

import pytest
import yaml

from effcap.cli import (
    build_config,
    compare,
    load_config,
    main,
    parse_model,
    rows_to_csv,
    run_mc_sweep,
    run_sweep,
    write_outputs,
)
from effcap.errors import ParameterError
from effcap.fading import AlphaEtaMu, Nakagami

BASE = {
    "combiner": {"preset": "mrc", "L": 2},
    "branch": {"model": "nakagami", "m": 1.5, "omega": 1.0},
    "policies": ["ora", "cifr"],
    "snr_db": [0.0],
    "theta": [1e-3, 1e-2],
    "T": 2e-3,
    "B": 1e5,
    "mc": {"samples": 100_000, "seed": 12, "batch": 5},
}


class TestConfig:
    def test_model_parsing(self):
        assert parse_model({"model": "nakagami", "m": 1.5}) == Nakagami(1.5)
        aem = parse_model({"model": "alpha_eta_mu", "alpha": 2.4,
                           "eta": 64.3, "mu": 1.2})
        assert aem == AlphaEtaMu(2.4, 64.3, 1.2)
        with pytest.raises(ParameterError):
            parse_model({"model": "rice", "k": 2})

    def test_branch_replication(self):
        cfg = build_config(BASE)
        assert len(cfg.branches) == 2

    def test_a_grid_alternative(self):
        raw = dict(BASE)
        raw.pop("theta")
        raw["a_grid"] = [1.0, 2.0]
        cfg = build_config(raw)
        assert len(cfg.theta) == 2
        from effcap.policies import QosSpec

        assert QosSpec(cfg.theta[0], cfg.T, cfg.B).A == pytest.approx(1.0)

    def test_empty_policies_rejected(self):
        raw = dict(BASE)
        raw["policies"] = []
        with pytest.raises(ParameterError):
            build_config(raw)

    def test_decreasing_grid_rejected(self):
        raw = dict(BASE)
        raw["theta"] = [1e-2, 1e-3]
        with pytest.raises(ParameterError):
            build_config(raw)


class TestSweep:
    def test_rows_and_order(self):
        cfg = build_config(BASE)
        rows = run_sweep(cfg)
        assert len(rows) == 4  # 2 policies x 1 snr x 2 theta
        assert [r["policy"] for r in rows] == ["ora", "ora", "cifr", "cifr"]
        assert all(r["status"] == "ok" for r in rows)
        assert all(r["ec_bits_s_hz"] > 0 for r in rows)

    def test_missing_error_estimate_is_empty(self, tmp_path):
        # OPRA reports no error estimate: the CSV field is empty and the
        # JSON value null, not a claimed zero
        cfg = build_config(dict(BASE, policies=["opra", "ora"],
                                theta=[1e-2]))
        rows = run_sweep(cfg)
        assert rows[0]["err_estimate"] is None
        assert rows[1]["err_estimate"] > 0.0
        csv_path, json_path = write_outputs(rows, str(tmp_path), "sweep")
        with open(csv_path) as fh:
            opra = fh.read().splitlines()[1].split(",")
        assert opra[0] == "opra" and opra[7] == ""
        with open(json_path) as fh:
            assert json.load(fh)[0]["err_estimate"] is None

    def test_csv_byte_determinism(self):
        cfg = build_config(BASE)
        a = rows_to_csv(run_sweep(cfg))
        b = rows_to_csv(run_sweep(cfg))
        assert a == b
        assert a.splitlines()[0] == ("policy,method,snr_db,theta,A,"
                                     "ec_bits_s_hz,gamma0,err_estimate,"
                                     "status")

    def test_mc_rows_align_and_compare(self):
        cfg = build_config(BASE)
        rows = run_sweep(cfg)
        mc = run_mc_sweep(cfg, rows)
        report, ok = compare(rows, mc, 4.0)
        assert ok
        assert "summary: PASS" in report

    def test_injected_outlier_fails(self):
        cfg = build_config(BASE)
        rows = run_sweep(cfg)
        mc = run_mc_sweep(cfg, rows)
        mc[0] = dict(mc[0])
        mc[0]["ec_bits_s_hz"] += 10 * mc[0]["err_estimate"] + 1e-3
        report, ok = compare(rows, mc, 3.0)
        assert not ok
        assert "FAIL" in report

    def test_failed_points_get_their_own_verdicts(self):
        cfg = build_config(BASE)
        rows = run_sweep(cfg)
        mc = [dict(r, method="monte-carlo", err_estimate=1e-3) for r in rows]
        rows[0] = dict(rows[0], method="failed", ec_bits_s_hz=float("nan"),
                       status="error: no convergence")
        mc[1] = dict(mc[1], ec_bits_s_hz=float("nan"),
                     err_estimate=float("nan"), status="error: oracle")
        report, ok = compare(rows, mc, 3.0)
        lines = report.splitlines()
        assert lines[1].endswith(" - analytic-failed")
        assert lines[2].endswith(" - mc-failed")
        assert lines[3].endswith(" 0.000 pass")
        assert not ok and "summary: FAIL" in report

    def test_identical_tables_zero_z(self):
        cfg = build_config(BASE)
        rows = run_sweep(cfg)
        fake_mc = [dict(r, method="monte-carlo", err_estimate=1e-3)
                   for r in rows]
        report, ok = compare(rows, fake_mc, 3.0)
        assert ok and " 0.000 pass" in report


class TestEndToEnd:
    def test_main_writes_outputs(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(BASE, fh)
        out = tmp_path / "out"
        code = main(["--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        assert (out / "sweep.csv").exists()
        data = json.loads((out / "sweep.json").read_text())
        assert len(data) == 4

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(BASE, fh)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["--config", str(cfg_path), "--out", str(out),
                         "--mc", "--seed", "5"]) == 0
            outs.append((out / "sweep.csv").read_bytes()
                        + (out / "mc.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_policy_subset_flag(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(BASE, fh)
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out),
                     "--policies", "ora"]) == 0
        text = (out / "sweep.csv").read_text()
        assert "cifr" not in text

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.yaml"
        raw = dict(BASE)
        raw["policies"] = ["warp"]
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(raw, fh)
        assert main(["--config", str(cfg_path)]) == 2

    def test_jobs_worker_pool(self, tmp_path):
        cfg = build_config(BASE)
        rows1 = run_sweep(cfg, jobs=1)
        rows2 = run_sweep(cfg, jobs=2)
        assert rows_to_csv(rows1) == rows_to_csv(rows2)
