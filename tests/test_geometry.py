"""Point-process construction and spatial-statistics tests."""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from mmtier import (
    BlockageModel,
    ChannelParams,
    NetworkParams,
    Point,
    RadialSampler,
    Window,
    build_tier_topology,
    csr_envelope,
    geometry,
    ripley_k,
    sample_ppp,
    select_scheduled,
    tabulate_serving_distance,
    topology_to_csv,
    topology_to_gnuplot,
)

import ripley_oracle
from conftest import intensity_for

ORIGIN = Point(0.0, 0.0)


@pytest.fixture(scope="module")
def serving_sampler(lam0, channel, quad):
    return RadialSampler.from_serving_distance(lam0, channel, quad)


class TestSamplePpp:
    def test_zero_intensity_empty(self):
        pts = sample_ppp(0.0, Window(ORIGIN, 100.0), np.random.default_rng(1))
        assert pts.shape == (0, 2)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            sample_ppp(-1.0, Window(ORIGIN, 100.0), np.random.default_rng(1))

    def test_poisson_mean_over_seeds(self):
        window = Window(ORIGIN, 10.0)
        intensity = 50.0 / window.area  # mean 50 per draw
        counts = [len(sample_ppp(intensity, window, np.random.default_rng(s)))
                  for s in range(400)]
        se = math.sqrt(50.0 / 400)
        assert abs(np.mean(counts) - 50.0) < 3.0 * se

    def test_deterministic_given_seed(self):
        window = Window(Point(3.0, -2.0), 50.0)
        a = sample_ppp(0.01, window, np.random.default_rng(77))
        b = sample_ppp(0.01, window, np.random.default_rng(77))
        np.testing.assert_array_equal(a, b)

    def test_points_inside_window(self):
        window = Window(Point(5.0, 5.0), 20.0)
        pts = sample_ppp(0.05, window, np.random.default_rng(3))
        assert len(pts) > 0
        assert np.all(np.hypot(pts[:, 0] - 5.0, pts[:, 1] - 5.0) <= 20.0)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            Window(ORIGIN, 0.0)
        with pytest.raises(ValueError):
            Point(math.inf, 0.0)


class TestRadialSampler:
    def test_matches_rayleigh_nearest_law(self):
        lam = intensity_for(100.0)
        def cdf(r):
            return -np.expm1(-math.pi * lam * r * r)
        grid = np.linspace(0.0, 1000.0, 4097)  # 1 - CDF(1000 m) = e^-100 rounds to 0
        sampler = RadialSampler(grid, cdf(grid))
        draws = sampler.quantile(np.random.default_rng(13).random(20_000))
        # closed-form CDF of the nearest-neighbor law
        result = stats.ks_1samp(draws, cdf)
        assert result.pvalue > 0.01
        # E[r^2] = 1 / (pi lam) = r0^2
        assert sampler.rms == pytest.approx(100.0, rel=1e-6)

    @pytest.mark.parametrize("blockage", [BlockageModel("exponential", 141.4),
                                          BlockageModel("los_ball", 100.0)])
    def test_inverts_the_serving_table_cdf(self, lam0, blockage):
        # one CDF: the sampler inverts exactly the table that validate's KS test reads
        channel = ChannelParams(2.0, 4.0, 1.0, blockage)
        table = tabulate_serving_distance(lam0, channel)
        sampler = RadialSampler.from_serving_distance(lam0, channel)
        np.testing.assert_array_equal(sampler._radii, table.radii)
        np.testing.assert_array_equal(sampler._cdf, table.cdf)

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError, match="CDF"):  # decreasing
            RadialSampler(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.6, 0.4]))
        with pytest.raises(ValueError, match="CDF"):  # does not end at 1
            RadialSampler(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, 0.9]))
        with pytest.raises(ValueError, match="radii"):  # radii do not increase
            RadialSampler(np.array([0.0, 1.0, 1.0]), np.array([0.0, 0.5, 1.0]))


class TestSelectScheduled:
    def test_tier_zero_returned_whole(self):
        tier = np.array([[0.0, 1.0], [2.0, 3.0]])
        rng, untouched = np.random.default_rng(1), np.random.default_rng(1)
        out, idx = select_scheduled(tier, 1, rng)
        np.testing.assert_array_equal(out, tier)
        np.testing.assert_array_equal(idx, [0, 1])
        assert rng.random() == untouched.random()  # k = 1 draws no variate

    def test_singleton_clusters_identity(self):
        tier = np.arange(10, dtype=float).reshape(5, 2)
        out, idx = select_scheduled(tier, 1, np.random.default_rng(2))
        np.testing.assert_array_equal(out, tier)

    def test_one_per_cluster(self):
        rng = np.random.default_rng(3)
        tier = rng.normal(size=(40 * 6, 2))
        out, idx = select_scheduled(tier, 6, rng)
        assert out.shape == (40, 2)
        assert np.all(idx // 6 == np.arange(40))  # one index per cluster block
        np.testing.assert_array_equal(out, tier[idx])

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            select_scheduled(np.empty((0, 2)), 0, np.random.default_rng(1))

    def test_union_mismatch_rejected(self):
        # 7 points are no union of clusters of 2
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            select_scheduled(rng.normal(size=(7, 2)), 2, rng)

    def test_selection_from_clusters_restores_csr(self, lam0, channel, quad,
                                                  serving_sampler):
        # Parents are a PPP; picking one point per displaced cluster should
        # look completely spatially random again.
        r0 = 100.0
        window = Window(ORIGIN, 8.0 * r0)
        rng = np.random.default_rng(31)
        parents = sample_ppp(lam0, window, rng)
        u = rng.random((len(parents), 2, 6))
        radii = serving_sampler.quantile(u[:, 0])
        angles = 2.0 * math.pi * u[:, 1]
        clusters = parents[:, None, :] + np.stack(
            [radii * np.cos(angles), radii * np.sin(angles)], axis=-1)
        selected, _ = select_scheduled(clusters.reshape(-1, 2), 6, rng)
        radii = r0 * np.array([0.25, 0.5, 1.0, 1.5])
        k_hat = ripley_k(selected, window, radii)
        lo, hi = csr_envelope(len(selected) / window.area, window, radii, 200,
                              np.random.default_rng(32))
        assert np.all((k_hat >= lo) & (k_hat <= hi))


def cluster_displacements(lam0, channel, sampler, k, seeds, radius=1500.0):
    """Offsets of every cluster point from its scheduled parent, (m, k, 2)."""
    net = NetworkParams(lambda_total=13 * lam0, lambda_tier0=lam0,
                        rf_chains=12, bandwidth=1.0, gain_per_hop=k)
    out = []
    for seed in seeds:
        topo = build_tier_topology(net, channel, Window(ORIGIN, radius),
                                   np.random.default_rng(seed), sampler=sampler)
        out += [child.reshape(-1, k, 2) - tier[idx][:, None, :] for tier, idx, child
                in zip(topo.tiers, topo.scheduled_indices, topo.tiers[1:])]
    return np.concatenate(out)


# sha256 of topology_to_csv on a 600 m window, seed 2024, recorded when the
# sampler began to invert the table's Gauss-Legendre CDF. The draw stream is
# unchanged since the per-hop cluster draw replaced one draw per transmitter;
# displaced coordinates moved by under 1 mm with that CDF.
GOLDEN_CSV_SHA256 = {
    1: "408c30b9c61fafad0b22ae505b154b0d3fbd46d5850d9ff1f3014b190475b264",
    6: "5ae06c0b32f5c14ed22f7bf7660e403e69553d9fcfcffb7ae1c8e4bb824c2c06",
}
# sha256 of topology_to_gnuplot on the same topologies and CDF, recorded
# before the dumps built their lines from Python lists instead of one numpy
# row at a time.
GOLDEN_GNUPLOT_SHA256 = {
    1: "3451a0ae7f5b7ca797914f1f92bd40ae9a32bff4f3f6977bce0386887e3238be",
    6: "34bdae8c23e0cc5964ab8f8778caaa65e35d91ac082f2ce78e7ec3f157ca520e",
}


class TestBuildTopology:
    def test_hop_counts_by_gain(self, lam0, channel, quad, serving_sampler):
        window = Window(ORIGIN, 600.0)
        net1 = NetworkParams(lambda_total=13 * lam0, lambda_tier0=lam0,
                             rf_chains=12, bandwidth=1.0, gain_per_hop=1)
        topo = build_tier_topology(net1, channel, window, np.random.default_rng(41),
                                   sampler=serving_sampler)
        assert topo.hops == 12 and len(topo.tiers) == 13

        net6 = NetworkParams(lambda_total=13 * lam0, lambda_tier0=lam0,
                             rf_chains=12, bandwidth=1.0, gain_per_hop=6)
        topo6 = build_tier_topology(net6, channel, window, np.random.default_rng(41),
                                    sampler=serving_sampler)
        assert topo6.hops == 2 and len(topo6.tiers) == 3
        assert [len(t) for t in topo6.tiers[1:]] == [6 * len(i) for i in topo6.scheduled_indices]

    def test_structural_invariants_and_intensity_sum(self, lam0, channel,
                                                     serving_sampler):
        window = Window(ORIGIN, 500.0)
        net = NetworkParams(lambda_total=13 * lam0, lambda_tier0=lam0,
                            rf_chains=12, bandwidth=1.0, gain_per_hop=6)
        topo = build_tier_topology(net, channel, window, np.random.default_rng(42),
                                   sampler=serving_sampler)
        topo.check_invariants()
        tier_intensity = lam0 * np.array([1.0] + [g for g in topo.gains])
        assert math.fsum(tier_intensity) == pytest.approx(net.lambda_total, rel=1e-12)
        # realized counts: tier i+1 has exactly gain * |scheduled| points
        for i, g in enumerate(topo.gains):
            assert len(topo.tiers[i + 1]) == g * len(topo.scheduled_indices[i])

    def test_invariants_catch_broken_bookkeeping(self, lam0, channel, serving_sampler):
        net = NetworkParams(lambda_total=7 * lam0, lambda_tier0=lam0,
                            rf_chains=12, bandwidth=1.0, gain_per_hop=2)
        topo = build_tier_topology(net, channel, Window(ORIGIN, 400.0),
                                   np.random.default_rng(9), sampler=serving_sampler)
        assert topo.gains == [2, 2, 2]
        moved = [idx.copy() for idx in topo.scheduled_indices]
        moved[1][0] += 2  # hop 2's first parent, into the neighbouring cluster
        broken = {
            "moved parent": dataclasses.replace(topo, scheduled_indices=moved),
            "dropped receiver": dataclasses.replace(
                topo, tiers=topo.tiers[:-1] + [topo.tiers[-1][:-1]]),
            "short gain list": dataclasses.replace(topo, gains=topo.gains[:-1]),
        }
        for name, bad in broken.items():
            with pytest.raises(AssertionError):
                bad.check_invariants()
                pytest.fail(name)

    def test_deterministic(self, lam0, channel, serving_sampler):
        window = Window(ORIGIN, 400.0)
        net = NetworkParams(lambda_total=7 * lam0, lambda_tier0=lam0,
                            rf_chains=12, bandwidth=1.0, gain_per_hop=2)
        a = build_tier_topology(net, channel, window, np.random.default_rng(9),
                                sampler=serving_sampler)
        b = build_tier_topology(net, channel, window, np.random.default_rng(9),
                                sampler=serving_sampler)
        for ta, tb in zip(a.tiers, b.tiers):
            np.testing.assert_array_equal(ta, tb)

    @pytest.mark.parametrize("k", sorted(GOLDEN_CSV_SHA256))
    def test_stream_matches_golden_dump(self, k, lam0, channel, serving_sampler):
        net = NetworkParams(lambda_total=13 * lam0, lambda_tier0=lam0,
                            rf_chains=12, bandwidth=1.0, gain_per_hop=k)
        topo = build_tier_topology(net, channel, Window(ORIGIN, 600.0),
                                   np.random.default_rng(2024), sampler=serving_sampler)
        text = topology_to_csv(topo)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CSV_SHA256[k]

    @pytest.mark.parametrize("k", sorted(GOLDEN_GNUPLOT_SHA256))
    def test_gnuplot_matches_golden_dump(self, k, lam0, channel, serving_sampler):
        net = NetworkParams(lambda_total=13 * lam0, lambda_tier0=lam0,
                            rf_chains=12, bandwidth=1.0, gain_per_hop=k)
        topo = build_tier_topology(net, channel, Window(ORIGIN, 600.0),
                                   np.random.default_rng(2024), sampler=serving_sampler)
        text = topology_to_gnuplot(topo)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_GNUPLOT_SHA256[k]

    def test_cluster_distance_law_matches_quadrature(self, lam0, channel, serving_sampler,
                                                     serving_table):
        offsets = cluster_displacements(lam0, channel, serving_sampler, 1, range(4))
        draws = np.hypot(offsets[..., 0], offsets[..., 1]).ravel()
        assert len(draws) > 8000
        result = stats.ks_1samp(draws, serving_table.cdf_at)
        assert result.pvalue > 0.01

    def test_cluster_marginal_independent_of_gain(self, lam0, channel, serving_sampler):
        singles = cluster_displacements(lam0, channel, serving_sampler, 1, [71])
        six = cluster_displacements(lam0, channel, serving_sampler, 6, [72, 73],
                                    radius=3000.0)
        assert len(singles) > 2000 and len(six) > 3000
        # every member of a size-6 cluster, and its first member alone,
        # against the singletons
        single_r = np.hypot(singles[..., 0], singles[..., 1]).ravel()
        six_r = np.hypot(six[..., 0], six[..., 1])
        assert stats.ks_2samp(single_r, six_r.ravel()).pvalue > 0.01
        assert stats.ks_2samp(single_r, six_r[:, 0]).pvalue > 0.01

    def test_cluster_isotropy(self, lam0, channel, serving_sampler):
        six = cluster_displacements(lam0, channel, serving_sampler, 6, [74, 75],
                                    radius=1000.0).reshape(-1, 2)
        angles = np.arctan2(six[:, 1], six[:, 0])
        counts, _ = np.histogram(angles, bins=24, range=(-math.pi, math.pi))
        result = stats.chisquare(counts)
        assert result.pvalue > 0.01

    def test_zero_gain_rejected(self, lam0):
        with pytest.raises(ValueError, match="per-hop gain"):
            NetworkParams(lambda_total=13 * lam0, lambda_tier0=lam0,
                          rf_chains=12, bandwidth=1.0, gain_per_hop=0)

    def test_infeasible_split_rejected(self, lam0, channel, serving_sampler):
        window = Window(ORIGIN, 400.0)
        with pytest.raises(ValueError):
            NetworkParams(lambda_total=0.5 * lam0, lambda_tier0=lam0,
                          rf_chains=12, bandwidth=1.0)
        net = NetworkParams(lambda_total=13 * lam0, lambda_tier0=lam0,
                            rf_chains=12, bandwidth=1.0, gain_per_hop=5)
        with pytest.raises(ValueError):
            build_tier_topology(net, channel, window, np.random.default_rng(1),
                                sampler=serving_sampler)

    def test_floor_flag_records_residual(self, lam0, channel, serving_sampler):
        window = Window(ORIGIN, 400.0)
        net = NetworkParams(lambda_total=13 * lam0, lambda_tier0=lam0,
                            rf_chains=12, bandwidth=1.0, gain_per_hop=5)
        topo = build_tier_topology(net, channel, window, np.random.default_rng(1),
                                   allow_residual=True, sampler=serving_sampler)
        assert topo.hops == 2
        assert topo.residual_intensity == pytest.approx(2.0 * lam0, rel=1e-9)

    def test_no_multiplexing_tier_counts_are_poisson(self, lam0, channel,
                                                     serving_sampler):
        # With k=1 every tier inherits the tier-0 count, which is Poisson with
        # mean lambda0 * area; check mean and dispersion across seeds.
        from scipy import stats
        window = Window(ORIGIN, 500.0)
        net = NetworkParams(lambda_total=5 * lam0, lambda_tier0=lam0,
                            rf_chains=12, bandwidth=1.0, gain_per_hop=1)
        counts = np.array([
            [len(t) for t in build_tier_topology(
                net, channel, window, np.random.default_rng(1000 + s),
                sampler=serving_sampler).tiers]
            for s in range(200)])
        mean_expected = lam0 * window.area
        for tier in range(counts.shape[1]):
            col = counts[:, tier]
            se = math.sqrt(mean_expected / len(col))
            assert abs(col.mean() - mean_expected) < 3.5 * se
        # Poisson dispersion: (n-1) * s^2 / mean ~ chi^2(n-1)
        col = counts[:, 0].astype(float)
        statistic = (len(col) - 1) * col.var(ddof=1) / col.mean()
        lo, hi = stats.chi2.ppf([0.005, 0.995], len(col) - 1)
        assert lo < statistic < hi


class TestRipleyK:
    def test_ppp_close_to_pi_r_squared(self):
        window = Window(ORIGIN, 100.0)
        intensity = 400.0 / window.area
        rng = np.random.default_rng(51)
        radii = np.array([5.0, 10.0, 20.0])
        lo, hi = csr_envelope(intensity, window, radii, 200, np.random.default_rng(52))
        pts = sample_ppp(intensity, window, rng)
        k_hat = ripley_k(pts, window, radii)
        assert np.all((k_hat >= lo) & (k_hat <= hi))
        assert np.all(lo <= math.pi * radii**2) and np.all(math.pi * radii**2 <= hi)

    def test_tight_cluster_far_exceeds_poisson(self):
        window = Window(ORIGIN, 100.0)
        rng = np.random.default_rng(53)
        pts = 0.5 * rng.normal(size=(30, 2))  # everything within ~2 m
        k_hat = ripley_k(pts, window, np.array([5.0]))
        assert k_hat[0] > 100.0 * math.pi * 25.0

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 150),
           center=st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
           radius=st.floats(1.0, 1e3), spread=st.floats(0.05, 1.3),
           lattice=st.booleans(),
           fractions=st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.9, 0.999])
                              | st.floats(1e-3, 0.999), min_size=1, max_size=8))
    @example(seed=1, n=3, center=(0.0, 0.0), radius=10.0, spread=0.5, lattice=False,
             fractions=[0.999])  # no point is interior: NaN
    def test_matches_oracle(self, seed, n, center, radius, spread, lattice, fractions):
        # Off-origin windows, points spilling past the border, unsorted and
        # duplicate radii; on a lattice, pair distances tie with each other.
        window = Window(Point(*center), radius)
        rng = np.random.default_rng(seed)
        offsets = spread * radius * rng.uniform(-1.0, 1.0, size=(n, 2))
        if lattice:
            step = radius / 8.0
            offsets = step * np.round(offsets / step)
        pts = window.center.as_array() + offsets
        radii = radius * np.array(fractions + fractions[:2])
        got = ripley_k(pts, window, radii)
        want = ripley_oracle.ripley_k(pts, window, radii)
        assert np.array_equal(got, want, equal_nan=True)

    def test_lattice_ties_match_oracle(self):
        # Integer lattice without its origin point: pair distances equal the
        # radii 1 and 2 exactly, and the points at distance 1, 3 and 4 from the
        # center sit exactly 4, 2 and 1 from the border. No point is 4.5 from
        # the border, so K(4.5) is NaN.
        window = Window(ORIGIN, 5.0)
        grid = np.array([(x, y) for x in range(-5, 6) for y in range(-5, 6)
                         if 0 < math.hypot(x, y) <= 5.0], dtype=float)
        radii = np.array([2.0, 1.0, 4.0, 4.5, 1.0, np.nextafter(1.0, 0.0), 3.0])
        got = ripley_k(grid, window, radii)
        want = ripley_oracle.ripley_k(grid, window, radii)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[3]) and np.all(np.isfinite(np.delete(got, 3)))
        assert got[1] == got[4] > got[5]  # the tie at d = r counts

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(0, 60), min_size=1, max_size=5),
           duplicate=st.booleans(),
           center=st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
           radius=st.floats(1.0, 1e3), spread=st.floats(0.05, 1.3),
           lattice=st.booleans(),
           fractions=st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.9, 0.999])
                              | st.floats(1e-3, 0.999), min_size=1, max_size=8))
    @example(seed=2, sizes=[0, 1, 22, 40], duplicate=True, center=(0.0, 0.0), radius=37.3,
             spread=1.3, lattice=True, fractions=[0.25, 0.5])  # ties that the shift rounds
    @example(seed=3, sizes=[30, 30, 30], duplicate=False, center=(1e4, -1e4), radius=1.0,
             spread=1.0, lattice=False, fractions=[1e-3])  # too wide for one tree: split
    def test_batch_rows_match_oracle(self, seed, sizes, duplicate, center, radius, spread,
                                     lattice, fractions):
        # Every row of a batch is its pattern's K alone: 1-6 patterns, empty
        # and one-point ones among them (NaN rows), and a repeated pattern,
        # whose copy would pair with it if the layout let patterns overlap.
        window = Window(Point(*center), radius)
        rng = np.random.default_rng(seed)
        patterns = []
        for n in sizes:
            offsets = spread * radius * rng.uniform(-1.0, 1.0, size=(n, 2))
            if lattice:
                step = radius / 8.0
                offsets = step * np.round(offsets / step)
            patterns.append(window.center.as_array() + offsets)
        if duplicate:
            patterns.append(patterns[-1])
        radii = radius * np.array(fractions + fractions[:2])
        got = geometry._ripley_batch(patterns, window, radii)
        assert got.shape == (len(patterns), len(radii))
        for row, pts in zip(got, patterns):
            want = (ripley_oracle.ripley_k(pts, window, radii) if len(pts) >= 2
                    else np.full(len(radii), np.nan))
            assert np.array_equal(row, want, equal_nan=True)

    def test_tie_survives_a_wide_layout(self):
        # A pair exactly r = 1e-9 apart: shifting it by whole window widths
        # rounds its distance by ~1e-7 r, far beyond the 1e-9 r query pad,
        # so such a layout must be split for every copy to keep the pair.
        window = Window(ORIGIN, 1.0)
        pair = np.array([[0.5, 0.0], [0.5 + 1e-9, 0.0]])
        radii = np.array([pair[1, 0] - pair[0, 0]])
        got = geometry._ripley_batch([pair] * 6, window, radii)
        want = ripley_oracle.ripley_k(pair, window, radii)
        assert want[0] > 0.0 and np.array_equal(got, np.tile(want, (6, 1)))

    def test_reference_draws_match_per_draw_loop(self, lam0):
        # 200 draws of ~384 points fill several batches of the point cap; the
        # batched draws must consume the stream of one sample_ppp per draw.
        window = Window(ORIGIN, 800.0)
        intensity = 6.0 * lam0
        assert 200 * intensity * window.area > 4 * geometry._MAX_BATCH_POINTS
        radii = 100.0 * np.array([0.5, 0.25, 2.0, 1.0, 1.0])
        got = geometry._reference_k(intensity, window, radii, 200, np.random.default_rng(91))
        want = ripley_oracle.reference_k(intensity, window, radii, 200,
                                         np.random.default_rng(91))
        assert np.array_equal(got, want, equal_nan=True)
        assert np.all(np.isfinite(got))

    def test_reference_memory_is_capped(self, lam0):
        # The same size: with the point cap the traced peak was 13.8 MB; with
        # all 200 draws (~77 000 points) in one tree it was 80 MB.
        window = Window(ORIGIN, 800.0)
        radii = 100.0 * np.array([0.25, 0.5, 0.75, 1.0, 1.5, 2.0])
        tracemalloc.start()
        try:
            csr_envelope(6.0 * lam0, window, radii, 200, np.random.default_rng(92))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_memory_linear_in_points(self, lam0):
        # ~10^4 points at the full relay density: an n x n distance tensor
        # alone would take ~1.5 GB.
        window = Window(ORIGIN, math.sqrt(1e4 / (13.0 * lam0 * math.pi)))
        pts = sample_ppp(13.0 * lam0, window, np.random.default_rng(81))
        assert len(pts) > 9000
        radii = 100.0 * np.array([0.25, 0.5, 1.0, 1.5, 2.0])
        tracemalloc.start()
        try:
            k_hat = ripley_k(pts, window, radii)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert np.all(np.abs(k_hat / (math.pi * radii**2) - 1.0) < 0.1)

    def test_validation(self):
        window = Window(ORIGIN, 10.0)
        with pytest.raises(ValueError):
            ripley_k(np.array([[0.0, 0.0]]), window, [1.0])
        with pytest.raises(ValueError):
            ripley_k(np.zeros((5, 2)), window, [11.0])
        with pytest.raises(ValueError):
            ripley_k(np.zeros((5, 2)), window, [-1.0])


@pytest.fixture(scope="module")
def small_topo(lam0, channel, quad):
    sampler = RadialSampler.from_serving_distance(lam0, channel, quad)
    net = NetworkParams(lambda_total=3 * lam0, lambda_tier0=lam0,
                        rf_chains=12, bandwidth=1.0, gain_per_hop=1)
    return build_tier_topology(net, channel, Window(ORIGIN, 300.0),
                               np.random.default_rng(61), sampler=sampler)


class TestSerialization:
    @pytest.fixture
    def topo(self, small_topo):
        return small_topo

    def test_csv_roundtrippable(self, topo):
        text = topology_to_csv(topo)
        lines = text.strip().split("\n")
        assert lines[0] == "tier,x,y,scheduled"
        assert len(lines) - 1 == sum(len(t) for t in topo.tiers)
        first = lines[1].split(",")
        assert float(first[1]) == topo.tiers[0][0, 0]  # repr round-trips exactly

    def test_gnuplot_blocks(self, topo):
        text = topology_to_gnuplot(topo)
        assert text.count("# tier") == len(topo.tiers)

    def test_empty_topology_serializes(self, channel, quad):
        lam = 1e-9
        grid = np.linspace(0.0, 1e5, 4097)
        cdf = -np.expm1(-math.pi * lam * grid**2)
        sampler = RadialSampler(grid, cdf / cdf[-1])
        net = NetworkParams(lambda_total=3e-9, lambda_tier0=lam, rf_chains=12,
                            bandwidth=1.0, gain_per_hop=1)
        topo = build_tier_topology(net, channel, Window(ORIGIN, 1.0),
                                   np.random.default_rng(1), sampler=sampler)
        assert topology_to_csv(topo) == "tier,x,y,scheduled\n"
        assert topology_to_gnuplot(topo).count("# tier") == 3
