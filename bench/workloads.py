"""The benchmark's three workloads: seeded plans of timed blocks, with checks.

A workload runs in cycles. A cycle is a fixed list of blocks; a block is one
call (or a few calls) into the program, timed as a whole, followed by an
untimed check of its output. The seed picks values inside fixed strata
(gain bands, reference tuples, random-stream keys), so every cycle does the
same kind and amount of work while its inputs change with the seed. Two
parts do not vary with the seed, because their cost depends strongly on the
inputs: the sweep's grid points (the seed orders them) and
`cli.topology_checks`, which runs on the default seed.

- ``sweep``: `cli.run_sweep` without Monte Carlo, one grid point per call, on
  a (tau, k) sub-grid per blockage law: 3 x 3 points under exponential
  blockage, 3 x 2 under los_ball, in a fixed design sequence (see
  `Sweep.cycle`). One op is one grid point. All work is in
  `analytics` and `channel`.
- ``montecarlo``: `empirical_coverage` (draws shared across thresholds),
  `empirical_laplace` and `serving_distance_samples` at two windows of ~625
  and ~2 500 mean points. One op is one trial. The work is in `montecarlo`
  and the `channel` helpers it calls; none is in `analytics`.
- ``topology``: the `mmtier topology` build and dumps, `cli.topology_checks`
  (default config and seed) and one pooled-tier Ripley's K on 2 600 points.
  One op is one `ripley_k` evaluation. The work is in `geometry`; the serving-distance
  table of the displacement sampler is built in set-up.

Only public functions that the project keeps are called, always through
their module attribute (so a tracer that swaps the attribute sees the call),
and never with ``threads=``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from mmtier import analytics, cli, config, geometry, montecarlo

import checks

EXPONENTIAL = "exponential"
LOS_BALL = "los_ball"
CONFIG_TEXT = {
    EXPONENTIAL: "blockage = exponential\nblockage_mu_m = 141.4\n",
    LOS_BALL: "blockage = los_ball\nblockage_radius_m = 100\n",
}
R0_M = 100.0  # r0 of the default configuration

TAU_DB = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
TAU_BANDS = (TAU_DB[0:3], TAU_DB[3:6], TAU_DB[6:9])
K_BANDS = ((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12))
# los_ball points cost about half as much as exponential ones. Giving los_ball
# fewer k bands keeps the median op inside the exponential blocks instead of
# on the edge between the two laws, where it would swing with the host's speed.
SWEEP_K_BANDS = {EXPONENTIAL: K_BANDS, LOS_BALL: ((1, 2, 3, 4, 5, 6), (7, 8, 9, 10, 11, 12))}

# Monte Carlo windows, in r0: lambda0 * pi * (25 r0)^2 = 625 mean points.
MC_WINDOWS = {"w625": 25.0, "w2500": 50.0}
COVERAGE_TRIALS = 2_000
LAPLACE_TRIALS = 10_000
# A Laplace tuple is drawn only if its analytic value v has
# min(v, 1 - v) * LAPLACE_TRIALS >= 10. Below that the Monte Carlo mean rests
# on a few rare trials and its standard error is no guide: a correct program
# failed a tuple with v = 1.2e-8, where no trial of 10^4 saw the rare event.
LAPLACE_MIN_EXPECTED = 10.0
ASSOCIATION_TRIALS = 10_000

TOPOLOGY_WINDOW_R0 = 10.0    # the `mmtier topology` default window: ~1 250 points
# Pooled tiers: the POOLED_POINTS points nearest the centre of a realization
# on an 18 r0 window (~3 600 points, 5 sd above POOLED_POINTS). A fixed count
# keeps the n x n memory and time of the pooled Ripley's K the same for
# every seed.
POOLED_WINDOW_R0 = 18.0
POOLED_POINTS = 2_600
POOLED_RADII_R0 = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
# `cli.topology_checks` on the default config tests 2 CSR tiers (k = 1) and
# the 2 relay tiers at k = 6, each pattern against 200 CSR references.
TOPOLOGY_CHECK_RIPLEY_CALLS = 4 * (1 + 200)


@dataclass
class Block:
    """One timed unit: ``run()`` is timed, ``check(result)`` is not."""

    name: str
    ops: int
    run: Callable[[], Any]
    check: Callable[[Any], tuple[int, list[str]]]


def _stream_key(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


class Sweep:
    name = "sweep"

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 1])
        self.configs = {law: config.parse_config(text) for law, text in CONFIG_TEXT.items()}
        self.reference = checks.load("sweep")
        self.cycles = 0
        self.seen: dict = {}

    def cycle(self):
        """Cycle c takes, in every band i, value (c + i) mod len(band): each cycle
        mixes low and high picks, a grid point comes back only after 6 cycles
        (12 for exponential), and the design sequence is the same for every seed. A grid point costs
        1 to 3.5 s depending on (tau, k), so seed-drawn points spread the op
        median by 0.2 between seeds; the seed only orders the calls.

        One call per grid point: with few, long blocks the op median hangs on
        one block's time, and the calibration between blocks (see run.py)
        cannot follow the host's speed changes.
        """
        c = self.cycles
        self.cycles += 1
        taus = [band[(c + i) % len(band)] for i, band in enumerate(TAU_BANDS)]
        blocks = []
        for law, base in self.configs.items():
            ks = [band[(c + j) % len(band)] for j, band in enumerate(SWEEP_K_BANDS[law])]
            for tau_db, k in itertools.product(taus, ks):
                cfg = dataclasses.replace(base, tau_db_list=(tau_db,), k_list=(k,))
                blocks.append(Block(f"sweep.{law}", 1, lambda cfg=cfg: self._run(cfg),
                                    lambda out, law=law, cfg=cfg: self._check(out, law, cfg)))
        for i in self.rng.permutation(len(blocks)):
            yield blocks[i]

    @staticmethod
    def _run(cfg):
        rows = cli.run_sweep(cfg)
        return rows, cli.sweep_to_csv(rows), cli.sweep_to_json(cfg, rows)

    def _check(self, out, law, cfg):
        rows, csv, doc = out
        n = len(cfg.tau_db_list) * len(cfg.k_list)
        if len(csv.splitlines()) != n + 1 or len(json.loads(doc)["rows"]) != n:
            return n, [f"{law}: serialized sweep does not hold {n} rows"]
        return checks.check_sweep(rows, law, cfg.tau_db_list, cfg.k_list, cfg.network(),
                                  self.reference, analytics.throughput_identity, self.seen)


class MonteCarlo:
    name = "montecarlo"

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 2])
        cfg = config.parse_config(CONFIG_TEXT[EXPONENTIAL])
        self.lambda0, self.channel, self.beam = cfg.lambda0, cfg.channel(), cfg.beam()
        ref = checks.load("montecarlo")
        self.coverage_ref = ref["coverage"]
        self.laplace_ref = {
            window: {state: [t for t in tuples
                             if min(t["value"], 1.0 - t["value"]) * LAPLACE_TRIALS
                             >= LAPLACE_MIN_EXPECTED]
                     for state, tuples in by_state.items()}
            for window, by_state in ref["laplace"].items()}
        self.cdf = checks.association_cdf(ref["association"])

    def _sim(self, window_m: float, trials: int):
        return montecarlo.SimConfig(window_radius_m=window_m, trials=trials,
                                    master_seed=_stream_key(self.rng),
                                    truncation_radius_m=window_m)

    def cycle(self):
        lam0, channel, beam = self.lambda0, self.channel, self.beam
        for window, factor in MC_WINDOWS.items():
            radius = factor * R0_M
            for band in K_BANDS:
                k = int(self.rng.choice(band))
                sim = self._sim(radius, COVERAGE_TRIALS)
                yield Block(
                    f"montecarlo.coverage.{window}", COVERAGE_TRIALS,
                    lambda k=k, sim=sim: [
                        montecarlo.empirical_coverage(10.0 ** (t / 10.0), k, lam0, channel,
                                                      beam, sim) for t in TAU_DB],
                    lambda est, k=k, window=window: checks.check_coverage(
                        est, TAU_DB, k, window, self.coverage_ref, COVERAGE_TRIALS))
            for tuples in self.laplace_ref[window].values():  # one per serving state
                tup = tuples[int(self.rng.integers(len(tuples)))]
                sim = self._sim(radius, LAPLACE_TRIALS)
                yield Block(
                    f"montecarlo.laplace.{window}", LAPLACE_TRIALS,
                    lambda tup=tup, sim=sim: montecarlo.empirical_laplace(
                        tup["s"], tup["r"], tup["state"], tup["k"], lam0, channel, beam, sim),
                    lambda est, tup=tup: checks.check_laplace(est, tup, LAPLACE_TRIALS))
            sim = self._sim(radius, ASSOCIATION_TRIALS)
            yield Block(
                f"montecarlo.association.{window}", ASSOCIATION_TRIALS,
                lambda sim=sim: montecarlo.serving_distance_samples(lam0, channel, sim),
                lambda out: checks.check_association(out[0], self.cdf, ASSOCIATION_TRIALS))


class Topology:
    name = "topology"

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 3])
        self.cfg = config.parse_config(CONFIG_TEXT[EXPONENTIAL])
        self.net, self.channel = self.cfg.network(), self.cfg.channel()
        self.sampler = geometry.RadialSampler.from_serving_distance(
            self.cfg.lambda0, self.channel, self.cfg.quad())
        self.lattice = checks.lattice_points()
        self.lattice_window = geometry.Window(geometry.Point(0.0, 0.0), checks.LATTICE_WINDOW_M)
        self.lattice_ref = checks.load("ripley")

    def _build(self, radius_r0: float, key: int):
        window = geometry.Window(geometry.Point(0.0, 0.0), radius_r0 * R0_M)
        return geometry.build_tier_topology(self.net, self.channel, window,
                                            np.random.default_rng(key), sampler=self.sampler)

    def cycle(self):
        key = _stream_key(self.rng)
        yield Block("topology.build", 1, lambda: self._run_build(key), self._check_build)
        # The default config and seed, as `mmtier validate` runs them: the cost of
        # these checks grows with the square of point counts that their seed
        # draws (+-25% per call), more spread than the bound on ops_per_s allows.
        yield Block("topology.checks", TOPOLOGY_CHECK_RIPLEY_CALLS,
                    lambda: cli.topology_checks(self.cfg), self._check_checks)
        key = _stream_key(self.rng)
        yield Block("topology.pooled", 1, lambda: self._run_pooled(key), self._check_pooled)

    def _run_build(self, key):
        """The `mmtier topology` path plus Ripley's K of the fixed lattice."""
        topo = self._build(TOPOLOGY_WINDOW_R0, key)
        dumps = geometry.topology_to_csv(topo), geometry.topology_to_gnuplot(topo)
        k_lattice = geometry.ripley_k(self.lattice, self.lattice_window, checks.LATTICE_RADII_M)
        return topo, dumps, k_lattice

    def _check_build(self, out):
        topo, (csv, dat), k_lattice = out
        n = sum(len(t) for t in topo.tiers)
        msgs = checks.check_topology(topo, self.cfg.lambda0)
        if len(csv.splitlines()) != n + 1:
            msgs.append(f"topology CSV holds {len(csv.splitlines()) - 1} of {n} points")
        if sum(1 for line in dat.splitlines() if line and not line.startswith("#")) != n:
            msgs.append("gnuplot dump does not hold every point")
        msgs += checks.check_lattice_k(k_lattice, self.lattice_ref)
        return (1 if msgs else 0), msgs

    @staticmethod
    def _check_checks(results):
        """All three checks must run and pass, as `mmtier validate` requires.

        On the default seed the CSR statistics sit far inside their bounds
        (0.91 <= 3.50 and 0.71 <= 3.00) and the relay tiers exceed the CSR
        envelope (excess 0.006 > 0).
        """
        names = sorted(c.name for c in results)
        expected = sorted(["topology-csr-first-tier-k1", "topology-csr-last-tier-k1",
                           "topology-clustering-k>1"])
        if names != expected or not all(math.isfinite(c.measured) for c in results):
            return TOPOLOGY_CHECK_RIPLEY_CALLS, [f"topology_checks returned {names}"]
        failed = [f"{c.name}: measured {c.measured:.4g}, threshold {c.threshold:.4g}"
                  for c in results if not c.passed]
        return (TOPOLOGY_CHECK_RIPLEY_CALLS if failed else 0), failed

    def _run_pooled(self, key):
        topo = self._build(POOLED_WINDOW_R0, key)
        points = topo.all_points()
        dist = np.sort(np.hypot(points[:, 0], points[:, 1]))
        radius = 0.5 * (dist[POOLED_POINTS - 1] + dist[POOLED_POINTS])
        window = geometry.Window(geometry.Point(0.0, 0.0), radius)
        pooled = geometry.points_in_window(points, window)
        radii = [f * R0_M for f in POOLED_RADII_R0]
        return topo, pooled, geometry.ripley_k(pooled, window, radii)

    def _check_pooled(self, out):
        topo, pooled, k_pooled = out
        msgs = checks.check_topology(topo, self.cfg.lambda0)
        if len(pooled) != POOLED_POINTS:
            msgs.append(f"pooled pattern holds {len(pooled)} points, not {POOLED_POINTS}")
        if not np.all(np.isfinite(k_pooled) & (k_pooled > 0.0)):
            msgs.append(f"pooled Ripley K {k_pooled} not finite and positive")
        return (1 if msgs else 0), msgs


WORKLOADS = {w.name: w for w in (Sweep, MonteCarlo, Topology)}
