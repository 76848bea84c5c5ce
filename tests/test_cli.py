"""Orchestration tests: sweeps, topology dumps, validation, exit codes.

Uses a reduced truncation radius (and hence simulation window): analytics and
simulation always truncate at the same radius, so their agreement is
insensitive to it while every trial gets ~40x cheaper.
"""

import dataclasses
import json
import math

import pytest

from mmtier.cli import (
    emit_topology,
    main,
    run_sweep,
    run_validate,
    sweep_to_csv,
    sweep_to_json,
)
from mmtier.config import ConfigError, parse_config
from mmtier import analytics

BASE = """
r0_m = 100
lambda_ratio = 13
blockage = exponential
blockage_mu_m = 141.4
truncation_radius_m = 800
window_radius_m = 800
seed = 3
"""

FAST = BASE + "tau_db_list = 0, 10\nk_list = 1, 6\n"


@pytest.fixture(scope="module")
def fast_cfg():
    return parse_config(FAST)


class TestRunSweep:
    def test_single_point_grid(self, fast_cfg):
        cfg = dataclasses.replace(fast_cfg, tau_db_list=(5.0,), k_list=(2,))
        rows = run_sweep(cfg)
        assert len(rows) == 1
        assert rows[0].tau_db == 5.0 and rows[0].k == 2
        assert rows[0].coverage_mc is None

    def test_rows_in_grid_order_with_identity(self, fast_cfg):
        rows = run_sweep(fast_cfg)
        assert [(r.tau_db, r.k) for r in rows] == [(0.0, 1), (0.0, 6), (10.0, 1), (10.0, 6)]
        net = fast_cfg.network()
        for r in rows:
            tau = 10.0 ** (r.tau_db / 10.0)
            assert r.throughput == analytics.throughput_identity(
                r.k, tau, net, r.coverage_analytic)
            lo, hi = analytics.latency_bounds(net.lambda_total, net.lambda_tier0,
                                              net.rf_chains)
            assert lo - 1e-9 <= r.latency <= hi + 1e-9

    def test_throughput_independent_of_total_density(self, fast_cfg):
        seven = dataclasses.replace(fast_cfg, lambda_total=7.0 * fast_cfg.lambda0)
        thirteen = dataclasses.replace(fast_cfg, lambda_total=13.0 * fast_cfg.lambda0)
        rows7 = run_sweep(seven)
        rows13 = run_sweep(thirteen)
        for a, b in zip(rows7, rows13):
            assert a.throughput == b.throughput  # bitwise
            assert a.latency != b.latency

    def test_mc_columns_filled(self, fast_cfg):
        cfg = dataclasses.replace(fast_cfg, mc_trials=400, tau_db_list=(5.0,),
                                  k_list=(6,))
        row = run_sweep(cfg)[0]
        assert row.coverage_mc is not None and 0.0 <= row.coverage_mc <= 1.0
        assert row.mc_ci is not None and row.mc_ci > 0.0
        assert abs(row.coverage_mc - row.coverage_analytic) < 0.1

    def test_quadrature_failure_recorded_not_fatal(self):
        # Flat blockage with a LOS exponent of 2 has a divergent interference
        # far field: the row must record the failure and the sweep continue.
        cfg = parse_config(
            "blockage = constant\nblockage_p = 0.5\nlambda0 = 3e-5\n"
            "truncation_radius_m = 500\ntau_db_list = 0\nk_list = 1, 2\n")
        rows = run_sweep(cfg)
        assert len(rows) == 2
        assert all(math.isnan(r.coverage_analytic) for r in rows)
        assert all(math.isinf(r.quad_error) for r in rows)


class TestSerializationFormats:
    def test_csv_shape_and_empty_mc_cells(self, fast_cfg):
        cfg = dataclasses.replace(fast_cfg, tau_db_list=(5.0,), k_list=(2,))
        (row,) = run_sweep(cfg)
        header, line = sweep_to_csv([row]).strip().split("\n")
        assert header.startswith("tau_db,k,coverage_analytic,coverage_mc,mc_ci")
        fields = line.split(",")
        assert fields[3] == "" and fields[4] == ""  # no MC columns requested
        # numbers print as plain floats that read back exactly
        assert float(fields[2]) == row.coverage_analytic
        assert float(fields[7]) == row.quad_error

    def test_json_carries_full_config(self, fast_cfg):
        cfg = dataclasses.replace(fast_cfg, tau_db_list=(5.0,), k_list=(2,))
        rows = run_sweep(cfg)
        doc = json.loads(sweep_to_json(cfg, rows))
        assert doc["config"]["seed"] == 3
        assert doc["config"]["blockage"] == "exponential"
        assert len(doc["rows"]) == 1


class TestEmitTopology:
    def test_gain_one_gives_thirteen_blocks(self, fast_cfg, tmp_path):
        cfg = dataclasses.replace(fast_cfg, k=1, topology_window_radius_m=400.0)
        paths = emit_topology(cfg, tmp_path)
        dat = (tmp_path / "topology.dat").read_text()
        assert dat.count("# tier") == 13
        csv = (tmp_path / "topology.csv").read_text()
        assert csv.splitlines()[0] == "tier,x,y,scheduled"

    def test_gain_six_gives_three_blocks(self, fast_cfg, tmp_path):
        cfg = dataclasses.replace(fast_cfg, k=6, topology_window_radius_m=400.0)
        emit_topology(cfg, tmp_path)
        assert (tmp_path / "topology.dat").read_text().count("# tier") == 3

    def test_empty_window_header_only(self, tmp_path):
        cfg = parse_config("lambda0 = 1e-9\nlambda_total = 1.3e-8\n"
                           "blockage = exponential\nk = 1\n"
                           "topology_window_radius_m = 1\ntruncation_radius_m = 10\n")
        emit_topology(cfg, tmp_path)
        assert (tmp_path / "topology.csv").read_text() == "tier,x,y,scheduled\n"


VALIDATE_CFG = BASE + "mc_trials = 10000\ntau_db_list = 10\nk_list = 6\n"


class TestRunValidate:
    def test_minimum_trials_enforced(self, fast_cfg):
        with pytest.raises(ConfigError):
            run_validate(dataclasses.replace(fast_cfg, mc_trials=500))

    def test_clean_run_passes(self):
        cfg = parse_config(VALIDATE_CFG)
        checks = run_validate(cfg, laplace_tuples=4)
        failed = [c.name for c in checks if not c.passed]
        assert failed == [], f"failed checks: {failed}"

    def test_corrupted_exponent_breaks_coverage_agreement(self):
        cfg = parse_config(VALIDATE_CFG)
        checks = run_validate(cfg, corrupt_alpha_nlos=-1.0, laplace_tuples=4)
        by_name = {c.name: c for c in checks}
        assert not by_name["coverage-agreement"].passed
        assert not all(c.passed for c in checks)

    def test_validation_failure_exit_code_through_main(self, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(VALIDATE_CFG)
        code = main(["validate", "--config", str(cfg), "--out", str(tmp_path),
                     "--corrupt-analytics-alpha-nlos", "-1.0", "--quiet"])
        assert code == 3
        report = (tmp_path / "validation.txt").read_text()
        assert "FAIL coverage-agreement" in report


class TestMainExitCodes:
    def test_config_error_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("warp_factor = 9\n")
        assert main(["coverage", "--config", str(bad), "--out", str(tmp_path)]) == 1

    def test_missing_config_file_is_one(self, tmp_path):
        assert main(["coverage", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)]) == 1

    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["coverage", "--no-such-flag"])
        assert exc.value.code == 1

    def test_numerical_failure_is_two(self, tmp_path):
        cfg = tmp_path / "divergent.cfg"
        cfg.write_text("blockage = constant\nblockage_p = 0.5\nlambda0 = 3e-5\n"
                       "truncation_radius_m = 500\ntau_db_list = 0\nk_list = 1\n")
        assert main(["coverage", "--config", str(cfg), "--out", str(tmp_path),
                     "--quiet"]) == 2

    def test_topology_run_is_zero(self, tmp_path):
        cfg = tmp_path / "topo.cfg"
        cfg.write_text(FAST + "topology_window_radius_m = 400\n")
        assert main(["topology", "--config", str(cfg), "--out", str(tmp_path),
                     "--quiet"]) == 0
        assert (tmp_path / "topology.csv").exists()

    def test_sweep_outputs_deterministic(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(BASE + "mc_trials = 300\ntau_db_list = 5\nk_list = 6\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["coverage", "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 0
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_and_trials_overrides(self, tmp_path):
        cfg = tmp_path / "o.cfg"
        cfg.write_text(BASE + "mc_trials = 300\ntau_db_list = 5\nk_list = 6\n")
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["coverage", "--config", str(cfg), "--out", str(out1),
                     "--seed", "111", "--quiet"]) == 0
        assert main(["coverage", "--config", str(cfg), "--out", str(out2),
                     "--seed", "222", "--quiet"]) == 0
        a = json.loads((out1 / "sweep.json").read_text())
        b = json.loads((out2 / "sweep.json").read_text())
        assert a["config"]["seed"] == 111 and b["config"]["seed"] == 222
        assert a["rows"][0]["coverage_mc"] != b["rows"][0]["coverage_mc"]
