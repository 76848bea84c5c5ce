"""Simulator tests: realization invariants, estimator contracts, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmtier import (
    LOS,
    NLOS,
    BlockageModel,
    ChannelParams,
    HopRealization,
    SimConfig,
    SimulationError,
    compute_sinr,
    empirical_coverage,
    empirical_laplace,
    realize_hop,
    serving_distance_samples,
    sinr_samples,
    trial_stream,
    wilson_halfwidth,
)
from mmtier.montecarlo import _SUB_COVERAGE, _StreamFactory, _laplace_samples

from conftest import intensity_for

ALWAYS_LOS = BlockageModel.constant(1.0)


@pytest.fixture(scope="module")
def sim():
    return SimConfig(window_radius_m=2500.0, trials=10_000, master_seed=314)


@pytest.fixture(scope="module")
def small_sim():
    return SimConfig(window_radius_m=2500.0, trials=400, master_seed=314)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(window_radius_m=0.0, trials=10)
        with pytest.raises(ValueError):
            SimConfig(window_radius_m=100.0, trials=0)

    def test_window_must_cover_truncation(self):
        with pytest.raises(ValueError):
            SimConfig(window_radius_m=100.0, trials=10, truncation_radius_m=200.0)
        SimConfig(window_radius_m=200.0, trials=10, truncation_radius_m=200.0)


class TestStreams:
    def test_trial_streams_reproducible_and_distinct(self):
        a = trial_stream(5, 0).random(4)
        b = trial_stream(5, 0).random(4)
        c = trial_stream(5, 1).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_factory_equivalent_to_fresh_streams(self):
        factory = _StreamFactory(77, 3)
        for trial in (0, 9, 12345):
            got = factory.at(trial).standard_normal(6)
            ref = trial_stream(77, trial, 3).standard_normal(6)
            np.testing.assert_array_equal(got, ref)


class TestRealizeHop:
    def test_without_blockage_serving_is_nearest(self):
        chan = ChannelParams(2.0, 4.0, 1.0, ALWAYS_LOS)
        sim = SimConfig(window_radius_m=500.0, trials=1, master_seed=0)
        lam = intensity_for(100.0)
        for seed in range(30):
            real = realize_hop(lam, chan, sim, trial_stream(seed, 0))
            assert real.serving_is_los
            if len(real.interferer_positions):
                assert real.serving_distance <= real.interferer_distances.min()

    def test_exclusion_invariant_always_holds(self, channel, lam0):
        sim = SimConfig(window_radius_m=1500.0, trials=1, master_seed=0)
        for seed in range(300):
            real = realize_hop(lam0, channel, sim, trial_stream(seed, 0))
            assert real.exclusion_holds(channel)

    def test_partition_counts(self, channel, lam0):
        sim = SimConfig(window_radius_m=1000.0, trials=1, master_seed=0)
        real = realize_hop(lam0, channel, sim, trial_stream(8, 0))
        assert len(real.interferer_positions) == len(real.interferer_is_los)
        assert real.resamples == 0

    def test_persistently_empty_window_aborts(self, channel):
        sim = SimConfig(window_radius_m=1.0, trials=1, master_seed=0)
        with pytest.raises(SimulationError):
            realize_hop(1e-12, channel, sim, trial_stream(0, 0))


class TestComputeSinr:
    def test_no_interferers_with_noise(self, beam):
        chan = ChannelParams(2.0, 4.0, 1.0, ALWAYS_LOS, noise_power=2.0)
        real = HopRealization(
            serving_position=np.array([30.0, 40.0]), serving_is_los=True,
            interferer_positions=np.empty((0, 2)),
            interferer_is_los=np.empty(0, dtype=bool))
        rng = trial_stream(4, 0)
        h0 = trial_stream(4, 0).exponential()
        got = compute_sinr(real, 3, chan, beam, rng)
        assert got == pytest.approx(h0 * beam.g_main**2 * 50.0**-2.0 / 2.0, rel=1e-12)

    def test_zero_noise_no_interferers_is_covered_everywhere(self, beam):
        chan = ChannelParams(2.0, 4.0, 1.0, ALWAYS_LOS, noise_power=0.0)
        real = HopRealization(
            serving_position=np.array([3.0, 4.0]), serving_is_los=True,
            interferer_positions=np.empty((0, 2)),
            interferer_is_los=np.empty(0, dtype=bool))
        assert compute_sinr(real, 1, chan, beam, trial_stream(0, 0)) == math.inf

    def test_scale_invariance_interference_limited(self, beam):
        # With a common exponent and no noise, scaling every distance by 2
        # multiplies signal and interference by the same power of two.
        chan = ChannelParams(2.0, 2.0, 1.0, ALWAYS_LOS, noise_power=0.0)
        rng = np.random.default_rng(10)
        pos = rng.uniform(-200.0, 200.0, size=(25, 2))
        states = rng.random(25) < 0.5
        base = HopRealization(np.array([20.0, 15.0]), True, pos, states)
        doubled = HopRealization(np.array([40.0, 30.0]), True, 2.0 * pos, states)
        s1 = compute_sinr(base, 4, chan, beam, trial_stream(5, 0))
        s2 = compute_sinr(doubled, 4, chan, beam, trial_stream(5, 0))
        assert s1 == pytest.approx(s2, rel=1e-12)


class TestEmpiricalCoverage:
    def test_extreme_thresholds(self, lam0, channel, beam, small_sim):
        samples = sinr_samples(3, lam0, channel, beam, small_sim)
        finite = samples[np.isfinite(samples)]
        below, _ = empirical_coverage(float(finite.min()) * 0.5, 3, lam0, channel,
                                      beam, small_sim)
        above, _ = empirical_coverage(float(finite.max()) * 2.0, 3, lam0, channel,
                                      beam, small_sim)
        assert below == 1.0
        assert above == 0.0

    def test_monotone_in_tau(self, lam0, channel, beam, small_sim):
        estimates = [empirical_coverage(t, 6, lam0, channel, beam, small_sim)[0]
                     for t in (0.1, 1.0, 10.0, 100.0)]
        assert all(a >= b for a, b in zip(estimates, estimates[1:]))

    def test_minimum_trials_enforced(self, lam0, channel, beam):
        sim = SimConfig(window_radius_m=2500.0, trials=50, master_seed=0)
        with pytest.raises(ValueError):
            empirical_coverage(1.0, 1, lam0, channel, beam, sim)

    def test_ci_shrinks_with_trials(self, lam0, channel, beam):
        sim1 = SimConfig(window_radius_m=2500.0, trials=2000, master_seed=5)
        sim4 = SimConfig(window_radius_m=2500.0, trials=8000, master_seed=5)
        _, ci1 = empirical_coverage(3.0, 6, lam0, channel, beam, sim1)
        _, ci4 = empirical_coverage(3.0, 6, lam0, channel, beam, sim4)
        assert 1.5 <= ci1 / ci4 <= 2.5

    def test_wilson_halfwidth_reference_value(self):
        # 80/100 successes: Wilson 95% interval is (0.7112, 0.8666)
        assert wilson_halfwidth(80, 100) == pytest.approx(0.0777, abs=1e-4)


class TestAssociation:
    def test_los_split_matches_serving_table(self, lam0, channel, sim, serving_table):
        _, is_los = serving_distance_samples(lam0, channel, sim)
        p = serving_table.los_mass / serving_table.total_mass
        se = math.sqrt(p * (1.0 - p) / sim.trials)
        assert abs(np.mean(is_los) - p) < 4.0 * se

    def test_rayleigh_law_without_blockage(self, lam0):
        from scipy import stats
        chan = ChannelParams(2.0, 4.0, 1.0, ALWAYS_LOS)
        sim = SimConfig(window_radius_m=1500.0, trials=10_000, master_seed=77)
        dist, is_los = serving_distance_samples(lam0, chan, sim)
        assert np.all(is_los)
        result = stats.ks_1samp(dist, lambda r: 1.0 - np.exp(-math.pi * lam0 * r * r))
        assert result.pvalue > 0.01


class TestEmpiricalLaplace:
    def test_exact_one_at_zero_s(self, lam0, channel, beam, sim):
        mean, se = empirical_laplace(0.0, 80.0, LOS, 6, lam0, channel, beam, sim)
        assert mean == 1.0 and se == 0.0

    def test_exact_one_without_interferers(self, channel, beam, sim):
        mean, _ = empirical_laplace(5.0, 80.0, LOS, 6, 0.0, channel, beam, sim)
        assert mean == 1.0

    def test_minimum_trials_enforced(self, lam0, channel, beam):
        small = SimConfig(window_radius_m=2500.0, trials=500, master_seed=0)
        with pytest.raises(ValueError):
            empirical_laplace(1.0, 80.0, LOS, 6, lam0, channel, beam, small)

    def test_agrees_with_transform(self, lam0, channel, beam, quad, sim):
        from mmtier import laplace_interference
        for s, r, state, k in [(100.0, 90.0, LOS, 6), (3.0, 40.0, NLOS, 2)]:
            analytic = laplace_interference(s, r, state, k, lam0, channel, beam, quad)
            mean, se = empirical_laplace(s, r, state, k, lam0, channel, beam, sim)
            assert abs(analytic - mean) < 3.0 * se + 1e-6


GOLDEN_SIM = SimConfig(window_radius_m=1000.0, trials=16, master_seed=2718)
# serving_distance_samples(lam0, ., GOLDEN_SIM) as recorded before the samplers
# shared one marked-PPP draw; the streams must not have moved.
GOLDEN_ASSOCIATION = {
    "exponential": (
        [251.58625339692887, 95.71559489585901, 31.633174135721088, 43.669083113745145,
         217.71239379543283, 57.684751726756026, 83.57449892904422, 96.17352600283323,
         650.0158886277012, 62.651377726529596, 157.90207819982243, 74.38780490224694,
         38.404526222379296, 60.611908020509276, 42.05239202120228, 21.44131896692548],
        [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1]),
    "los_ball": (
        [187.00578531191871, 81.2663802168108, 31.633174135721088, 43.669083113745145,
         90.22060302773876, 57.684751726756026, 83.57449892904422, 58.92666025342481,
         140.75868985836743, 62.651377726529596, 108.25886115187242, 74.38780490224694,
         38.404526222379296, 60.611908020509276, 42.05239202120228, 21.44131896692548],
        [0, 1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1]),
}
# (s, r, state, k, blockage) -> empirical_laplace (mean, se) on a 1000 m window,
# 10^4 trials, seed 2718, recorded the same way.
GOLDEN_LAPLACE = [
    ((30.0, 80.0, LOS, 6, "exponential"), (0.44334029886271875, 0.004180501580017067)),
    ((3.0, 40.0, NLOS, 2, "exponential"), (0.9999790702317645, 2.728014766120247e-06)),
    ((1e4, 90.0, LOS, 12, "los_ball"), (0.3848841693431454, 0.0027156097499235416)),
]


def _golden_channel(kind: str) -> ChannelParams:
    if kind == "exponential":
        return ChannelParams(2.0, 4.0, 1.0, BlockageModel.exponential(141.4))
    return ChannelParams(2.0, 4.0, 1.0, BlockageModel.los_ball(100.0), noise_power=1e-9)


class TestMarkedPppSampler:
    @pytest.mark.parametrize("blockage, noise, k", [
        (BlockageModel.exponential(141.4), 0.0, 6),
        (BlockageModel.los_ball(100.0), 0.0, 3),
        (BlockageModel.exponential(141.4), 1e-7, 12),
    ], ids=["exponential", "los_ball", "noise"])
    def test_sinr_matches_per_realization_reference(self, lam0, beam, blockage, noise, k):
        chan = ChannelParams(2.0, 4.0, 1.0, blockage, noise_power=noise)
        sim = SimConfig(window_radius_m=1000.0, trials=40, master_seed=31)
        got = sinr_samples(k, lam0, chan, beam, sim)
        ref = []
        for i in range(sim.trials):
            rng = trial_stream(sim.master_seed, i, _SUB_COVERAGE)
            ref.append(compute_sinr(realize_hop(lam0, chan, sim, rng), k, chan, beam, rng))
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), m=st.integers(1, 12), extra=st.integers(0, 12))
    def test_first_trials_do_not_depend_on_the_trial_count(self, lam0, channel, beam,
                                                           seed, m, extra):
        def run(trials):
            sim = SimConfig(window_radius_m=500.0, trials=trials, master_seed=seed)
            return (sinr_samples(6, lam0, channel, beam, sim),
                    *serving_distance_samples(lam0, channel, sim),
                    _laplace_samples(30.0, 80.0, LOS, 6, lam0, channel, beam, sim))

        for short, long in zip(run(m), run(m + extra)):
            np.testing.assert_array_equal(short, long[:m])

    @pytest.mark.parametrize("kind", sorted(GOLDEN_ASSOCIATION))
    def test_association_golden_values(self, lam0, kind):
        dist, is_los = serving_distance_samples(lam0, _golden_channel(kind), GOLDEN_SIM)
        want_dist, want_los = GOLDEN_ASSOCIATION[kind]
        assert dist.tolist() == want_dist
        assert is_los.tolist() == [bool(v) for v in want_los]

    @pytest.mark.parametrize("args, want", GOLDEN_LAPLACE)
    def test_laplace_golden_values(self, lam0, beam, args, want):
        *tup, kind = args
        sim = SimConfig(window_radius_m=1000.0, trials=10_000, master_seed=2718)
        got = empirical_laplace(*tup, lam0, _golden_channel(kind), beam, sim)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("window_m", [0.1, 60.0], ids=["always-empty", "often-empty"])
    def test_window_too_small_raises(self, lam0, channel, beam, window_m):
        sim = SimConfig(window_radius_m=window_m, trials=100, master_seed=3)
        with pytest.raises(SimulationError):
            sinr_samples(6, lam0, channel, beam, sim)
        with pytest.raises(SimulationError):
            serving_distance_samples(lam0, channel, sim)
