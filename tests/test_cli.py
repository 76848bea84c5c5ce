"""Orchestration tests: sweeps, topology dumps, validation, exit codes.

Uses a reduced truncation radius (and hence simulation window): analytics and
simulation always truncate at the same radius, so their agreement is
insensitive to it while every trial gets ~40x cheaper.
"""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mmtier

from mmtier.cli import (
    emit_topology,
    main,
    run_sweep,
    run_validate,
    sweep_to_csv,
    sweep_to_json,
    topology_checks,
)
from mmtier.config import ConfigError, ExperimentConfig, parse_config
from mmtier import analytics, cli, montecarlo

from conftest import latency_bounds

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

# Flat blockage with a LOS exponent of 2: the interference far field diverges, so
# every grid point fails its quadrature.
DIVERGENT = ("blockage = constant\nblockage_p = 0.5\nlambda0 = 3e-5\n"
             "truncation_radius_m = 500\ntau_db_list = 0\nk_list = 1, 2\n")


@dataclasses.dataclass(frozen=True)
class JsonLeaves:
    """A config of every leaf type `sweep_to_json` writes, and an empty or tuple grid."""

    label: str
    flag: bool
    count: int
    value: float
    missing: None
    grid: tuple
    out_dir: str = "not written"


# Floats where json has a rule of its own (nan, +-inf) or `repr` changes form (1e16
# and 1e-5 switch to exponent form), -0.0 and subnormals, then any other float, and
# numpy's float64 of each.
EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.225073858507201e-308,
               1e16, 9999999999999998.0, 1e-5, 0.0001]
JSON_FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats()
JSON_FLOATS = JSON_FLOATS | JSON_FLOATS.map(np.float64)
JSON_ROWS = st.builds(cli.SweepRow, tau_db=JSON_FLOATS, k=st.integers(),
                      coverage_analytic=JSON_FLOATS, coverage_mc=st.none() | JSON_FLOATS,
                      mc_ci=st.none() | JSON_FLOATS, latency=JSON_FLOATS,
                      throughput=JSON_FLOATS, quad_error=JSON_FLOATS)


def json_oracle(cfg, rows) -> str:
    """The `sweep.json` contract: the json module's bytes for the config without
    `out_dir` and the rows."""
    config = dataclasses.asdict(cfg)
    config.pop("out_dir")
    doc = {"config": config, "rows": [dataclasses.asdict(r) for r in rows]}
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"


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
            lo, hi = latency_bounds(net.lambda_total, net.lambda_tier0,
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

    def test_positions_drawn_once_for_every_gain_and_threshold(self, fast_cfg, monkeypatch):
        # Coverage reads one k-free, threshold-free summary of the positions, so
        # 17 gains x 3 thresholds draw the marked PPP once.
        draws = []
        original = montecarlo._marked_ppp

        def counted(*args, **kwargs):
            draws.append(args[3])
            return original(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "_marked_ppp", counted)
        montecarlo._coverage_summary.cache_clear()
        cfg = dataclasses.replace(fast_cfg, theta_a_deg=20.0, rf_chains=18, mc_trials=100,
                                  tau_db_list=(0.0, 5.0, 10.0), k_list=tuple(range(1, 18)))
        rows = run_sweep(cfg)
        assert draws == [montecarlo._SUB_COVERAGE]
        assert [(r.tau_db, r.k) for r in rows] == [
            (t, k) for t in cfg.tau_db_list for k in cfg.k_list]
        assert all(0.0 <= r.coverage_mc <= 1.0 for r in rows)

    def test_quadrature_failure_recorded_not_fatal(self):
        # Every point of DIVERGENT fails: the row must record the failure and the
        # sweep continue.
        cfg = parse_config(DIVERGENT)
        rows = run_sweep(cfg)
        assert len(rows) == 2
        assert all(math.isnan(r.coverage_analytic) for r in rows)
        assert all(math.isinf(r.quad_error) for r in rows)
        # a failed row still carries its hop ratio, and no throughput
        for r in rows:
            assert r.latency == (cfg.lambda_total - cfg.lambda0) / (r.k * cfg.lambda0)
            assert r.latency == pytest.approx(12.0 / r.k, rel=1e-12)
            assert math.isnan(r.throughput)


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
        # one column per SweepRow field, in field order
        names = [f.name for f in dataclasses.fields(cli.SweepRow)]
        assert len(header.split(",")) == len(names)
        assert all(column.startswith(name) for column, name in zip(header.split(","), names))
        made = cli.SweepRow(-10.0, 3, 0.25, None, None, 4.0, 0.5, 1e-09)
        assert sweep_to_csv([made]).split("\n")[1] == "-10.0,3,0.25,,,4.0,0.5,1e-09"

    def test_json_carries_full_config(self, fast_cfg):
        cfg = dataclasses.replace(fast_cfg, tau_db_list=(5.0,), k_list=(2,))
        rows = run_sweep(cfg)
        doc = json.loads(sweep_to_json(cfg, rows))
        assert doc["config"]["seed"] == 3
        assert doc["config"]["blockage"] == "exponential"
        assert len(doc["rows"]) == 1

    # The failed grid points write NaN coverage and throughput and an infinite
    # quad_error; the LOS ball config writes `floor_hops` as true.
    @pytest.mark.parametrize("mc_trials, tau_db_list, k_list, text", [
        (0, ExperimentConfig.tau_db_list, ExperimentConfig.k_list, ""),
        (200, (0.0, 10.0), (1, 6), ""),
        (0, (0.0,), (1, 2), DIVERGENT),
        (0, ExperimentConfig.tau_db_list, (5,),
         "blockage = los_ball\nblockage_radius_m = 100\nfloor_hops = true\n"),
    ], ids=["0-tau_db_list0-k_list0", "200-tau_db_list1-k_list1", "failed_points",
            "los_ball-floor_hops"])
    def test_json_matches_the_asdict_rendering(self, mc_trials, tau_db_list, k_list, text):
        cfg = dataclasses.replace(parse_config(text), mc_trials=mc_trials,
                                  tau_db_list=tau_db_list, k_list=k_list)
        rows = run_sweep(cfg)
        assert (rows[0].coverage_mc is None) == (mc_trials == 0)
        config = dataclasses.asdict(cfg)
        config.pop("out_dir")
        doc = {"config": config, "rows": [dataclasses.asdict(r) for r in rows]}
        want = json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"
        assert sweep_to_json(cfg, rows) == want

    @settings(max_examples=300, deadline=None)
    @given(cfg=st.builds(JsonLeaves, label=st.text(), flag=st.booleans(),
                         count=st.integers(), value=JSON_FLOATS, missing=st.none(),
                         grid=st.lists(JSON_FLOATS | st.integers(), max_size=3).map(tuple)),
           rows=st.lists(JSON_ROWS, max_size=3))
    @example(cfg=JsonLeaves("mmtier", True, 3, np.float64(-0.0), None, ()),
             rows=[cli.SweepRow(np.float64(1e16), 2, np.float64(math.nan), None, None,
                                1e-5, math.inf, 5e-324)])
    def test_json_is_the_json_module_rendering(self, cfg, rows):
        assert sweep_to_json(cfg, rows) == json_oracle(cfg, rows)

    @pytest.mark.parametrize("leaf", [np.int64(3), np.bool_(True), 1 + 2j, b"1", object()],
                             ids=lambda leaf: f"{type(leaf).__module__}.{type(leaf).__name__}")
    def test_leaf_json_rejects_raises_type_error(self, leaf):
        cfg = JsonLeaves("x", False, 1, 0.5, None, (1.0, leaf))
        row = cli.SweepRow(0.0, 1, leaf, None, None, 1.0, 1.0, 0.0)
        for args in ((cfg, []), (dataclasses.replace(cfg, grid=()), [row])):
            with pytest.raises(TypeError):
                json_oracle(*args)
            with pytest.raises(TypeError):
                sweep_to_json(*args)

    @pytest.mark.parametrize("grid, value", [(((1.0,),), 0.5), ((), {"a": 1.0})],
                             ids=["list-in-list", "object-value"])
    def test_container_outside_the_shape_raises_type_error(self, grid, value):
        # json writes these, so the writer must not write anything else for them.
        with pytest.raises(TypeError):
            sweep_to_json(JsonLeaves("x", False, 1, value, None, grid), [])

    # sha256 of sweep.csv and sweep.json from `mmtier coverage`, recorded before
    # the exclusion radius and the hop ratio each got one definition. The `trials`
    # pair was recorded again when the sampler began to take d^alpha by scalar
    # exponents (no per-point pow): two of its 45 `mc_ci` values moved by at most
    # 2.1e-16 relative, nothing else did.
    @pytest.mark.parametrize("text, extra, csv_digest, json_digest", [
        (None, [],
         "7cc37e41ffc7d19988763946f86145a9288aa78dac93209f5426aed922e95fb0",
         "42acdf08aed4bca359d143370ab09b54b2208595ade306eb16130038217466d8"),
        ("blockage = los_ball\nblockage_radius_m = 100\n", [],
         "7ae53ce9eca85276aac2672b4ba7621d37e19473d1f5622d76ae612a3495037d",
         "0580807273f6cec2e4751b0aaa7d1e9ca4bf898f7c463c9c60327ed41b1a5ee7"),
        (None, ["--trials", "1000"],
         "f041c15abab9228c1a4dacf83fc68c1ef5a69338293e50b5015c83e4937f7442",
         "011ce380331bc72f90a533244ad7babb855cd2a9df5b12153bdf77add0e09da2"),
    ], ids=["default", "los_ball", "trials"])
    def test_coverage_outputs_match_recorded_digests(self, tmp_path, text, extra,
                                                     csv_digest, json_digest):
        argv = ["coverage", "--out", str(tmp_path), "--quiet", *extra]
        if text is not None:
            (tmp_path / "run.cfg").write_text(text)
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert main(argv) == 0
        for name, digest in (("sweep.csv", csv_digest), ("sweep.json", json_digest)):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    # sha256 of the default `mmtier topology` dumps and of `validation.txt` from
    # `mmtier validate --trials 10000` on FAST (every check passes), recorded before the
    # live gain atoms, the serving inverse CDF and the trial floors each got one home.
    OUTPUT_DIGESTS = {
        "topology.csv": "314e2c1b2b3b911e3fcf7041277794bf489e25cec789d7d84a11844c4d3ecb7c",
        "topology.dat": "ef84e180714361bbc84cfa934bc5f0750908325fb88227fd4824d0921f6260ba",
        "validation.txt": "6cb0c18c2c779399b2e88b4c670922c7a5cfa82e011e2c4149d99d13e97eb5b7",
    }

    def test_topology_outputs_match_recorded_digests(self, tmp_path):
        assert main(["topology", "--out", str(tmp_path), "--quiet"]) == 0
        for name in ("topology.csv", "topology.dat"):
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == self.OUTPUT_DIGESTS[name], name

    def test_validation_report_matches_recorded_digest(self, tmp_path):
        (tmp_path / "fast.cfg").write_text(FAST)
        assert main(["validate", "--config", str(tmp_path / "fast.cfg"), "--trials", "10000",
                     "--out", str(tmp_path), "--quiet"]) == 0
        digest = hashlib.sha256((tmp_path / "validation.txt").read_bytes()).hexdigest()
        assert digest == self.OUTPUT_DIGESTS["validation.txt"]


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


class TestTopologyChecks:
    def test_default_config_measurements_are_golden(self):
        # Recorded before Ripley's K moved to KD-tree pair counts and the tier
        # build to one draw per hop. The clustering excess passes by only
        # 0.006, so any change to the build's stream or to K must show here.
        checks = topology_checks(ExperimentConfig())
        assert [(c.name, c.measured, c.passed) for c in checks] == [
            ("topology-csr-first-tier-k1", 0.9108334029602598, True),
            ("topology-csr-last-tier-k1", 0.7099190496250128, True),
            ("topology-clustering-k>1", 0.006241049415152304, True),
        ]

    @pytest.mark.parametrize("ratio, message", [
        ("12.5", "non-integer hop count 11.5 at k = 1"),
        ("1", "at least one relay tier"),
        ("2", "need a gain k in 2..12"),
    ])
    def test_split_without_relay_tiers_is_a_config_error(self, ratio, message):
        cfg = parse_config(BASE.replace("lambda_ratio = 13", f"lambda_ratio = {ratio}"))
        with pytest.raises(ConfigError, match=message):
            topology_checks(cfg)


VALIDATE_CFG = BASE + "mc_trials = 10000\ntau_db_list = 10\nk_list = 6\n"


class TestRunValidate:
    def test_minimum_trials_enforced(self, fast_cfg):
        with pytest.raises(ConfigError):
            run_validate(dataclasses.replace(fast_cfg, mc_trials=500))

    def test_clean_run_passes(self):
        cfg = parse_config(VALIDATE_CFG)
        checks = run_validate(cfg)
        failed = [c.name for c in checks if not c.passed]
        assert failed == [], f"failed checks: {failed}"
        for c in checks:
            assert type(c.passed) is bool and type(c.measured) is float, c.name

    def test_coverage_tolerance_is_not_wider_than_the_old_floor(self):
        # On the default 45-point grid at 10^4 trials, the Sidak rule (3.69 SE at
        # a 1% family-wise level, plus the quadrature error) stays within the
        # old rule's floor of max(0.02, 2 x half-width): P_s in [0, 1] caps the
        # standard error at 0.5/sqrt(n - 1).
        cfg = dataclasses.replace(ExperimentConfig(), mc_trials=10_000)
        assert len(cfg.tau_db_list) * len(cfg.k_list) == 45
        assert cli._coverage_tolerance(1.959963984540054, 0.0, 45) == pytest.approx(3.69, abs=5e-3)
        channel, beam, quad = cfg.channel(), cfg.beam(), cfg.quad()
        mc = cli._mc_coverage(cfg)
        for (tau_db, k), (_, ci) in mc.items():
            _, err = analytics.coverage_probability(10.0 ** (tau_db / 10.0), k, cfg.lambda0,
                                                    channel, beam, quad, full_output=True)
            assert cli._coverage_tolerance(ci, err, len(mc)) <= 0.02, (tau_db, k)

    def test_monotone_checks_ignore_grid_order(self, monkeypatch):
        # A grid listed in descending order is still monotone in tau and in k.
        monkeypatch.setattr(cli, "topology_checks", lambda cfg: [])
        cfg = parse_config(BASE + "mc_trials = 10000\ntau_db_list = 10, 0\nk_list = 6, 1\n")
        checks = run_validate(cfg)
        failed = [c.name for c in checks if not c.passed]
        assert failed == [] and {"coverage-monotone-tau", "coverage-monotone-gain"} <= {
            c.name for c in checks}

    def test_corrupted_exponent_breaks_coverage_agreement(self):
        cfg = parse_config(VALIDATE_CFG)
        checks = run_validate(cfg, corrupt_alpha_nlos=-1.0)
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
    @pytest.mark.parametrize("ratio, message", [
        ("12.5", "non-integer hop count 11.5 at k = 1"),
        ("1", "at least one relay tier"),
        ("2", "need a gain k in 2..12"),
    ])
    def test_validate_split_without_relay_tiers_is_one(self, tmp_path, caplog, monkeypatch,
                                                      ratio, message):
        # The topology checks build the k = 1 relay tiers; a split that has no
        # whole number of them must stop validate before any Monte Carlo trial.
        def no_trials(*args, **kwargs):
            raise AssertionError("Monte Carlo ran before the density split was checked")

        monkeypatch.setattr(montecarlo, "serving_distance_samples", no_trials)
        cfg = tmp_path / "split.cfg"
        cfg.write_text(VALIDATE_CFG.replace("lambda_ratio = 13", f"lambda_ratio = {ratio}"))
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path),
                     "--quiet"]) == 1
        assert message in caplog.text
        assert not (tmp_path / "validation.txt").exists()

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

    def test_throughput_command_is_one(self, tmp_path):
        # `coverage` writes the throughput column; there is no second sweep command
        with pytest.raises(SystemExit) as exc:
            main(["throughput", "--out", str(tmp_path)])
        assert exc.value.code == 1
        assert list(tmp_path.iterdir()) == []

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

    def test_non_integer_hop_count_is_one(self, tmp_path, caplog):
        # k = 5 does not divide the 12 relay tiers of the 13x split
        cfg = tmp_path / "k5.cfg"
        cfg.write_text(FAST + "k = 5\nfloor_hops = false\n")
        assert main(["topology", "--config", str(cfg), "--out", str(tmp_path),
                     "--quiet"]) == 1
        assert "floor_hops" in caplog.text and "allow_floor" not in caplog.text
        assert not (tmp_path / "topology.csv").exists()

    def test_out_of_range_seed_is_one_without_traceback(self, tmp_path):
        src = str(Path(mmtier.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-m", "mmtier", "topology", "--seed", "-1",
                              "--out", str(tmp_path)], env=env, capture_output=True,
                             text=True)
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        assert "seed must lie in" in out.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, code", [(["coverage", "--trials", "100"], 1),
                                               (["validate", "--trials", "10000"], 1),
                                               (["coverage"], 0)])
    def test_window_inside_the_truncation_radius(self, tmp_path, command, code):
        # the window must cover the truncation radius only when trials run
        cfg = tmp_path / "small.cfg"
        cfg.write_text(FAST.replace("window_radius_m = 800", "window_radius_m = 100"))
        src = str(Path(mmtier.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-m", "mmtier", *command, "--config", str(cfg),
                              "--out", str(tmp_path / "out"), "--quiet"], env=env,
                             capture_output=True, text=True)
        assert out.returncode == code, out.stderr
        assert "Traceback" not in out.stderr
        if code:
            assert "window must cover the analytical truncation radius" in out.stderr
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, value, message", [
        *(("tau_db_list = 0, 10", f"0, {v}", "tau_db_list entries")
          for v in ("nan", "-inf", "inf")),
        ("truncation_radius_m = 800", "inf", "truncation_radius_m")],
        ids=["nan", "-inf", "inf", "truncation_radius_inf"])
    def test_non_finite_value_is_one_without_traceback(self, tmp_path, line, value, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST.replace(line, f"{line.split(' = ')[0]} = {value}"))
        src = str(Path(mmtier.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-m", "mmtier", "coverage", "--config", str(cfg),
                              "--out", str(tmp_path / "out"), "--quiet"], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 1, out.stderr
        assert "Traceback" not in out.stderr
        assert f"{message} must be finite" in out.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("corrupt, message", [
        ("-3", "--corrupt-analytics-alpha-nlos=-3.0: alpha_nlos must be >= alpha_los"),
        ("nan", "--corrupt-analytics-alpha-nlos=nan: alpha_nlos must be finite"),
        ("inf", "--corrupt-analytics-alpha-nlos=inf: alpha_nlos must be finite"),
    ], ids=["-3", "nan", "inf"])
    def test_invalid_corrupted_exponent_is_one_before_any_trial(self, tmp_path, corrupt,
                                                                message):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(VALIDATE_CFG)
        argv = ["validate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet",
                f"--corrupt-analytics-alpha-nlos={corrupt}"]
        code = ("import sys\n"
                "from mmtier import cli, montecarlo\n"
                "def no_trials(*args, **kwargs):\n"
                "    raise AssertionError('Monte Carlo ran before the exponent was checked')\n"
                "montecarlo.serving_distance_samples = no_trials\n"
                f"sys.exit(cli.main({argv!r}))\n")
        src = str(Path(mmtier.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True)
        assert out.returncode == 1, out.stderr
        assert "Traceback" not in out.stderr
        assert out.stderr == f"ERROR mmtier: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_too_few_trials_is_one(self, tmp_path, caplog):
        cfg = tmp_path / "few.cfg"
        cfg.write_text(FAST)
        assert main(["coverage", "--config", str(cfg), "--out", str(tmp_path),
                     "--trials", "50", "--quiet"]) == 1
        assert "mc_trials must be 0 or at least 100" in caplog.text
        assert not (tmp_path / "sweep.csv").exists()


def test_validate_config_error_loads_no_scipy_stats(tmp_path):
    # every configuration check of `validate` runs before its one KS test imports scipy.stats
    cfg = tmp_path / "v.cfg"
    cfg.write_text(VALIDATE_CFG)
    argv = ["validate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet",
            "--corrupt-analytics-alpha-nlos=nan"]
    code = ("import sys\n"
            "from mmtier import cli\n"
            f"assert cli.main({argv!r}) == 1\n"
            "print('scipy.stats' in sys.modules)\n")
    src = str(Path(mmtier.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_loads_neither_scipy_stats_nor_integrate():
    # scipy.stats is imported by `validate` alone and scipy.spatial by
    # Ripley's K; importing the CLI loads no scipy
    src = str(Path(mmtier.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, mmtier.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
