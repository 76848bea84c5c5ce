"""Tests of the benchmark's own checks and tracer.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest bench``.

The corrupted-analytics tests feed the checkers analytic values computed
with ``alpha_nlos`` raised by 0.5, as ``mmtier validate
--corrupt-analytics-alpha-nlos 0.5`` does, and require failures. On the
default config that perturbation moves coverage by at most ~0.009 and the
serving-distance CDF by ~5e-4, below the Monte Carlo coverage tolerance
floor (0.02) and the KS resolution at 10^4 trials; the Laplace check of a
conditioned NLOS tuple is the Monte Carlo check that resolves it, by tens of
standard errors.
"""

import dataclasses
import math

import pytest

from mmtier import analytics, cli, config, montecarlo

import checks
import tracer
import workloads
from workloads import CONFIG_TEXT, EXPONENTIAL, R0_M

CORRUPT_ALPHA_NLOS = 0.5
GRID = dict(tau_db_list=(10.0,), k_list=(3, 9))


@pytest.fixture(scope="module")
def cfg():
    return dataclasses.replace(config.parse_config(CONFIG_TEXT[EXPONENTIAL]), **GRID)


@pytest.fixture(scope="module")
def sweep_reference():
    return checks.load("sweep")


def _check(rows, cfg, reference):
    return checks.check_sweep(rows, EXPONENTIAL, cfg.tau_db_list, cfg.k_list, cfg.network(),
                              reference, analytics.throughput_identity, {})


def test_sweep_checker_accepts_program_output(cfg, sweep_reference):
    assert _check(cli.run_sweep(cfg), cfg, sweep_reference) == (0, [])


def test_sweep_checker_rejects_corrupted_analytics(cfg, sweep_reference):
    channel = cfg.channel()
    corrupt = dataclasses.replace(channel, alpha_nlos=channel.alpha_nlos + CORRUPT_ALPHA_NLOS)
    rows = []
    for tau_db in cfg.tau_db_list:
        for k in cfg.k_list:
            p = analytics.evaluate_point(10.0 ** (tau_db / 10.0), k, cfg.network(), corrupt,
                                         cfg.beam(), cfg.quad())
            rows.append(cli.SweepRow(tau_db=tau_db, k=k, coverage_analytic=p.coverage,
                                     coverage_mc=None, mc_ci=None, latency=p.latency,
                                     throughput=p.throughput, quad_error=p.quad_error))
    failed, messages = _check(rows, cfg, sweep_reference)
    assert failed == len(rows), messages


def test_sweep_checker_rejects_broken_identity_and_monotonicity(cfg, sweep_reference):
    rows = cli.run_sweep(dataclasses.replace(cfg, tau_db_list=(5.0,), k_list=(3, 9)))
    bad = [dataclasses.replace(rows[0], throughput=rows[0].throughput * (1 + 1e-9)), rows[1]]
    # a higher threshold already returned more coverage than this row
    seen = {(EXPONENTIAL, 9): {10.0: rows[1].coverage_analytic + 0.1}}
    failed, messages = checks.check_sweep(bad, EXPONENTIAL, (5.0,), (3, 9), cfg.network(),
                                          sweep_reference, analytics.throughput_identity, seen)
    assert failed == 2, messages


def test_sweep_checker_accepts_row_more_accurate_than_reference(cfg, sweep_reference):
    # a row equal to the reference with no error of its own: only the
    # reference's error estimate separates it from the true value
    rows = [dataclasses.replace(r, coverage_analytic=sweep_reference["coverage"][
                checks.sweep_key(EXPONENTIAL, r.tau_db, r.k)], quad_error=0.0)
            for r in cli.run_sweep(cfg)]
    rows = [dataclasses.replace(r, throughput=analytics.throughput_identity(
                r.k, 10.0 ** (r.tau_db / 10.0), cfg.network(), r.coverage_analytic))
            for r in rows]
    assert _check(rows, cfg, sweep_reference) == (0, [])
    off = [dataclasses.replace(r, coverage_analytic=r.coverage_analytic + 2.0 * sweep_reference[
               "error"][checks.sweep_key(EXPONENTIAL, r.tau_db, r.k)] + 1e-12) for r in rows]
    off = [dataclasses.replace(r, throughput=analytics.throughput_identity(
               r.k, 10.0 ** (r.tau_db / 10.0), cfg.network(), r.coverage_analytic))
           for r in off]
    assert _check(off, cfg, sweep_reference)[0] == len(off)


def test_topology_checker_requires_every_check_to_pass():
    results = [cli.CheckResult("topology-csr-first-tier-k1", True, 0.9, 3.5, ""),
               cli.CheckResult("topology-csr-last-tier-k1", True, 0.7, 3.0, ""),
               cli.CheckResult("topology-clustering-k>1", True, 0.006, 0.0, "")]
    assert workloads.Topology._check_checks(results) == (0, [])
    results[2] = dataclasses.replace(results[2], passed=False, measured=-0.01)
    failed, messages = workloads.Topology._check_checks(results)
    assert failed == workloads.TOPOLOGY_CHECK_RIPLEY_CALLS and len(messages) == 1


def test_montecarlo_laplace_checker_rejects_corrupted_analytics():
    base = config.parse_config(CONFIG_TEXT[EXPONENTIAL])
    window = workloads.MC_WINDOWS["w625"] * R0_M
    quad = dataclasses.replace(base, truncation_radius_m=window).quad()
    channel, beam = base.channel(), base.beam()
    corrupt = dataclasses.replace(channel, alpha_nlos=channel.alpha_nlos + CORRUPT_ALPHA_NLOS)
    tuples = checks.load("montecarlo")["laplace"]["w625"]["nlos"]
    sim = montecarlo.SimConfig(window_radius_m=window, trials=workloads.LAPLACE_TRIALS,
                               master_seed=7, truncation_radius_m=window)
    for tup in tuples[:3]:
        est = montecarlo.empirical_laplace(tup["s"], tup["r"], tup["state"], tup["k"],
                                           base.lambda0, channel, beam, sim)
        assert checks.check_laplace(est, tup, sim.trials) == (0, [])
        value, err = analytics.laplace_interference(
            tup["s"], tup["r"], tup["state"], tup["k"], base.lambda0, corrupt, beam, quad,
            full_output=True)
        failed, _ = checks.check_laplace(est, {**tup, "value": value, "error": err}, sim.trials)
        assert failed == sim.trials


def test_montecarlo_coverage_checker_rejects_shifted_analytics():
    ref = checks.load("montecarlo")["coverage"]
    tau_db = workloads.TAU_DB
    est = [(ref[checks.coverage_key("w625", t, 6)], 0.005) for t in tau_db]
    assert checks.check_coverage(est, tau_db, 6, "w625", ref, 10_000) == (0, [])
    shifted = [(v + 0.03, ci) for v, ci in est]
    assert checks.check_coverage(shifted, tau_db, 6, "w625", ref, 10_000)[0] == 10_000


def test_lattice_reference_is_exact():
    assert checks.load("ripley")["k"] == checks.exact_lattice_k()


def test_tracer_counts_calls_and_reports_missing_targets(monkeypatch):
    monkeypatch.setattr(analytics, "hop_count", analytics.hop_count)
    t = tracer.Tracer()
    t.install([("mmtier.analytics", "hop_count", "analytics.hop_count", tracer.SPAN),
               ("mmtier.analytics", "no_such_function", "analytics.gone", tracer.LEAF)])
    before = t.snapshot()
    assert t.call("bench.block", lambda: analytics.hop_count(13.0, 1.0, 6)) == 2
    stats = tracer.delta(t.snapshot(), before)
    assert stats["analytics.hop_count"][0] == 1
    assert stats["bench.block"][0] == 1
    # the block's self time excludes its traced callee
    assert math.isclose(stats["bench.block"][1],
                        stats["bench.block"][2] + stats["analytics.hop_count"][1])
    assert "analytics.gone" in t.absent
    label, start, end, parent, _ = t.spans[1]
    assert label == "analytics.hop_count" and parent == 0 and end >= start
