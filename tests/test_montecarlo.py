"""Simulator tests: realization invariants, estimator contracts, determinism.

`TestStreams` pins the samplers' sequential trial streams to the jump
construction `mc_oracle.reference_stream` and checks that neighbouring trials
and substreams do not correlate. `TestRealizeHop` and `TestComputeSinr` check
the positional reference in `mc_oracle`. `TestEmpiricalCoverage` checks the
conditional coverage estimator against the indicator of the reference SINR on
the same positions; `TestMarkedPppSampler` pins each trial's coverage to the
all-point product at the reference positions, the conditional Laplace
sampler to the raw exp(-s I) estimator there and, bit for bit, to the dense
rule on its own chunks, the sampler's d^alpha to r^alpha, and the coverage
and association samplers to exact values on fixed seeds.
"""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmtier import (
    LOS,
    NLOS,
    BeamParams,
    BlockageModel,
    ChannelParams,
    QuadratureSpec,
    SimConfig,
    SimulationError,
    beam_gain_pmf,
    coverage_probability,
    empirical_coverage,
    empirical_laplace,
    empirical_laplace_batch,
    serving_distance_samples,
)
from mmtier import montecarlo
from mmtier.montecarlo import (_NEAR_CUT, _SUB_ASSOCIATION, _SUB_COVERAGE, _SUB_LAPLACE,
                               _laplace_samples, _success_probabilities, _trial_streams)

from conftest import intensity_for
from mc_oracle import (HopRealization, compute_sinr, dense_laplace_samples, draw_gains,
                       interferer_power, laplace_positions, raw_laplace_samples, realize_hop,
                       reference_stream, sinr_samples, success_probability)

ALWAYS_LOS = BlockageModel("constant", 1.0)


@pytest.fixture(scope="module")
def sim():
    return SimConfig(window_radius_m=2500.0, trials=10_000, master_seed=314)


@pytest.fixture(scope="module")
def small_sim():
    return SimConfig(window_radius_m=2500.0, trials=400, master_seed=314)


def _summary(lam0, channel, sim):
    """A fresh coverage summary, past the cache."""
    return montecarlo._coverage_summary.__wrapped__(lam0, channel, sim)


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

    @pytest.mark.parametrize("field, value", [
        ("master_seed", 3.5), ("trials", 1.5), ("window_radius_m", math.inf),
        ("truncation_radius_m", math.nan)])
    def test_bad_run_parameters_rejected(self, field, value):
        # a float seed would key seed 3's streams; the others fail only later, or never
        args = {"window_radius_m": 1000.0, "trials": 10, "master_seed": 3,
                "truncation_radius_m": 500.0, field: value}
        with pytest.raises(ValueError):
            SimConfig(**args)


class TestStreams:
    def test_trial_streams_reproducible_and_distinct(self):
        a, b = ([rng.random(4) for rng in itertools.islice(_trial_streams(5, 0), 2)]
                for _ in range(2))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a[0], a[1])

    @pytest.mark.parametrize("substream", [_SUB_COVERAGE, _SUB_ASSOCIATION, _SUB_LAPLACE])
    @pytest.mark.parametrize("seed", [0, 2718, 2**64 - 1])
    def test_sequential_streams_are_the_jump_construction(self, seed, substream):
        for trial, rng in zip(range(41), _trial_streams(seed, substream)):
            np.testing.assert_array_equal(
                rng.random(6), reference_stream(seed, trial, substream).random(6))
            rng.standard_normal(trial)  # the next trial does not depend on the draws

    @pytest.mark.parametrize("seed, substream", [
        (0, _SUB_COVERAGE), (2718, _SUB_ASSOCIATION), (2**64 - 1, _SUB_LAPLACE)])
    def test_a_long_run_stays_on_the_jump_construction(self, seed, substream):
        rng = next(itertools.islice(_trial_streams(seed, substream), 12_345, None))
        np.testing.assert_array_equal(rng.standard_normal(6),
                                      reference_stream(seed, 12_345, substream).standard_normal(6))

    def test_trial_streams_are_independent(self):
        # Jumped streams share one LCG at a fixed stride; the first uniforms of
        # neighbouring trials and of two substreams at one trial must not correlate.
        from scipy import stats
        n = 10_000
        first = {sub: np.array([rng.random() for rng in
                                itertools.islice(_trial_streams(2718, sub), n)])
                 for sub in (_SUB_COVERAGE, _SUB_LAPLACE)}
        u = first[_SUB_COVERAGE]
        assert stats.kstest(u, "uniform").pvalue > 1e-4
        bound = 4.5 / math.sqrt(n)
        assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) < bound
        assert abs(np.corrcoef(u, first[_SUB_LAPLACE])[0, 1]) < bound


class TestRealizeHop:
    def test_without_blockage_serving_is_nearest(self):
        chan = ChannelParams(2.0, 4.0, 1.0, ALWAYS_LOS)
        sim = SimConfig(window_radius_m=500.0, trials=1, master_seed=0)
        lam = intensity_for(100.0)
        for seed in range(30):
            real = realize_hop(lam, chan, sim, reference_stream(seed, 0, 0))
            assert real.serving_is_los
            if len(real.interferer_positions):
                assert real.serving_distance <= real.interferer_distances.min()

    def test_exclusion_invariant_always_holds(self, channel, lam0):
        sim = SimConfig(window_radius_m=1500.0, trials=1, master_seed=0)
        for seed in range(300):
            real = realize_hop(lam0, channel, sim, reference_stream(seed, 0, 0))
            assert real.exclusion_holds(channel)

    def test_partition_counts(self, channel, lam0):
        sim = SimConfig(window_radius_m=1000.0, trials=1, master_seed=0)
        real = realize_hop(lam0, channel, sim, reference_stream(8, 0, 0))
        assert len(real.interferer_positions) == len(real.interferer_is_los)
        assert real.resamples == 0

    def test_persistently_empty_window_aborts(self, channel):
        sim = SimConfig(window_radius_m=1.0, trials=1, master_seed=0)
        with pytest.raises(SimulationError):
            realize_hop(1e-12, channel, sim, reference_stream(0, 0, 0))


class TestComputeSinr:
    def test_no_interferers_with_noise(self, beam):
        chan = ChannelParams(2.0, 4.0, 1.0, ALWAYS_LOS, noise_power=2.0)
        real = HopRealization(
            serving_position=np.array([30.0, 40.0]), serving_is_los=True,
            interferer_positions=np.empty((0, 2)),
            interferer_is_los=np.empty(0, dtype=bool))
        rng = reference_stream(4, 0, 0)
        h0 = reference_stream(4, 0, 0).exponential()
        got = compute_sinr(real, 3, chan, beam, rng)
        assert got == pytest.approx(h0 * beam.g_main**2 * 50.0**-2.0 / 2.0, rel=1e-12)

    def test_zero_noise_no_interferers_is_covered_everywhere(self, beam):
        chan = ChannelParams(2.0, 4.0, 1.0, ALWAYS_LOS, noise_power=0.0)
        real = HopRealization(
            serving_position=np.array([3.0, 4.0]), serving_is_los=True,
            interferer_positions=np.empty((0, 2)),
            interferer_is_los=np.empty(0, dtype=bool))
        assert compute_sinr(real, 1, chan, beam, reference_stream(0, 0, 0)) == math.inf

    def test_scale_invariance_interference_limited(self, beam):
        # With a common exponent and no noise, scaling every distance by 2
        # multiplies signal and interference by the same power of two.
        chan = ChannelParams(2.0, 2.0, 1.0, ALWAYS_LOS, noise_power=0.0)
        rng = np.random.default_rng(10)
        pos = rng.uniform(-200.0, 200.0, size=(25, 2))
        states = rng.random(25) < 0.5
        base = HopRealization(np.array([20.0, 15.0]), True, pos, states)
        doubled = HopRealization(np.array([40.0, 30.0]), True, 2.0 * pos, states)
        s1 = compute_sinr(base, 4, chan, beam, reference_stream(5, 0, 0))
        s2 = compute_sinr(doubled, 4, chan, beam, reference_stream(5, 0, 0))
        assert s1 == pytest.approx(s2, rel=1e-12)


# Positions of 2 000 trials at ~100 points each, and the reference SINR drawn at them.
INDICATOR_SIM = SimConfig(window_radius_m=1000.0, trials=2_000, master_seed=4242)
INDICATOR_TAUS = (0.1, 1.0, 10.0, 100.0, 1000.0)


@pytest.fixture(scope="module")
def indicator_sinr(lam0, channel, beam):
    return {k: sinr_samples(k, lam0, channel, beam, INDICATOR_SIM) for k in (1, 6, 12)}


# The domain rule of every scalar model argument: the message each site raises
# (a bare estimator name is its intensity), and the valid boundary values of the
# sites where zero, or one, is in the domain.
DOMAIN_MESSAGES = {
    "BlockageModel.exponential": "exponential blockage length must be positive and finite",
    "BlockageModel.los_ball": "los_ball blockage length must be positive and finite",
    "BlockageModel.constant": "constant blockage needs p in [0, 1]",
    "ChannelParams.alpha_los": "alpha_los must be positive and finite",
    "ChannelParams.alpha_nlos": "alpha_nlos must be",  # >= alpha_los, or positive and finite
    "ChannelParams.beta": "path-loss intercept beta must be positive and finite",
    "ChannelParams.noise_power": "noise power must be non-negative and finite",
    "BeamParams.g_main": "g_main must be positive and finite",
    "BeamParams.g_side": "g_side must be positive and finite",
    "GainPmf": "gain probabilities",
    "QuadratureSpec.rel_tol": "quadrature tolerances must be positive and finite",
    "QuadratureSpec.abs_tol": "quadrature tolerances must be positive and finite",
    "QuadratureSpec.truncation_radius_m": "truncation radius must be positive and finite",
    "QuadratureSpec.for_tier_intensity": "tier intensity must be positive and finite",
    "los_probability": "link length must be non-negative and finite",
    "nearest_distance_pdf": "intensity must be positive and finite",
    "nearest_distance_pdf.z": "distance must be non-negative and finite",
    "serving_distance_pdf.r": "serving distance must be positive and finite",
    "tabulate_serving_distance": "intensity must be positive and finite",
    "laplace_interference": "intensity must be non-negative and finite",
    "laplace_interference.s": "transform variable must be non-negative and finite",
    "laplace_interference.serving_distance": "serving distance must be positive and finite",
    "coverage_probability": "tier intensity must be positive and finite",
    "coverage_probability.tau": "SINR threshold must be positive and finite",
    "NetworkParams.lambda_tier0": "tier-0 intensity must be positive and finite",
    "NetworkParams.lambda_total": "total density must be positive and finite",
    "NetworkParams.bandwidth": "bandwidth must be positive and finite",
    "hop_count.lambda0": "lambda0 must be positive and finite",
    "hop_count.lambda_total": "lambda_total must be positive and finite",
    "Window.radius": "window radius must be positive and finite",
    "sample_ppp": "intensity must be non-negative and finite",
    "SimConfig.window_radius_m": "window radius must be positive and finite",
    "serving_distance_samples": "tier intensity must be positive and finite",
    "empirical_coverage": "tier intensity must be positive and finite",
    "empirical_coverage.tau": "SINR threshold must be positive and finite",
    "empirical_laplace": "intensity must be non-negative and finite",
    "empirical_laplace.s": "transform variable must be non-negative and finite",
    "empirical_laplace.serving_distance": "serving distance must be positive and finite",
}
DOMAIN_BOUNDARY = {
    "BlockageModel.constant": (0.0, 1.0),
    "los_probability": (0.0,),
    "nearest_distance_pdf.z": (0.0,),
    "ChannelParams.noise_power": (0.0,),
    "GainPmf": (0.0,),
    "laplace_interference": (0.0,),
    "laplace_interference.s": (0.0,),
    "sample_ppp": (0.0,),
    "empirical_laplace": (0.0,),
    "empirical_laplace.s": (0.0,),
}


class TestEmpiricalCoverage:
    def test_extreme_thresholds(self, lam0, channel, beam, small_sim):
        assert empirical_coverage(5e-324, 3, lam0, channel, beam, small_sim) == (1.0, 0.0)
        above, ci = empirical_coverage(1e300, 3, lam0, channel, beam, small_sim)
        assert 0.0 <= above < 1e-280 and ci < 1e-280

    def test_monotone_in_tau(self, lam0, channel, beam, small_sim):
        estimates = [empirical_coverage(t, 6, lam0, channel, beam, small_sim)[0]
                     for t in (0.1, 1.0, 10.0, 100.0)]
        assert all(a >= b for a, b in zip(estimates, estimates[1:]))

    @pytest.mark.parametrize("noise", [0.0, 1e-7])
    def test_bounded_and_monotone_at_every_finite_tau(self, lam0, beam, noise, small_sim):
        # From the least subnormal to the largest double, across the switch
        # from the far-field series to its bracket at tau = 1/(2 cut).
        chan = ChannelParams(2.0, 4.0, 1.0, BlockageModel("exponential", 141.4), noise_power=noise)
        switch = 0.5 / _NEAR_CUT
        taus = sorted({5e-324, *np.logspace(-300, 300, 121), switch * (1.0 - 1e-9), switch,
                       np.nextafter(switch, np.inf), 1e5, 1e6, np.finfo(float).max})
        for k in (1, 6, 12):
            got = [empirical_coverage(float(t), k, lam0, chan, beam, small_sim) for t in taus]
            assert all(0.0 <= est <= 1.0 and 0.0 <= ci < math.inf for est, ci in got)
            assert all(a[0] >= b[0] for a, b in zip(got, got[1:])), k

    @pytest.mark.parametrize("k", [1, 6, 12])
    def test_conditional_value_is_the_mean_of_the_indicator(self, lam0, channel, beam, k,
                                                            indicator_sinr):
        # Tower property on identical positions: 1{SINR > tau} - P_s has mean zero.
        summary = _summary(lam0, channel, INDICATOR_SIM)
        for tau in INDICATOR_TAUS:
            p_s, _ = _success_probabilities(tau, k, channel, beam, summary)
            diff = (indicator_sinr[k] > tau) - p_s
            # Given the positions, the indicator is Bernoulli(P_s): the sum of the
            # differences has variance sum P_s (1 - P_s), which the sample
            # variance misses when failures are rare.
            sd = math.sqrt(math.fsum(p_s * (1.0 - p_s)))
            assert abs(math.fsum(diff)) <= 4.0 * sd, (tau, sd)

    def test_indicator_agrees_with_analytic(self, lam0, channel, beam, indicator_sinr):
        # Keeps the drawn fading and gains of the oracle cross-checked.
        quad = QuadratureSpec(truncation_radius_m=INDICATOR_SIM.window_radius_m)
        n = INDICATOR_SIM.trials
        for k, sinr in indicator_sinr.items():
            for tau in INDICATOR_TAUS:
                cov, err = coverage_probability(tau, k, lam0, channel, beam, quad,
                                                full_output=True)
                hit = np.count_nonzero(sinr > tau) / n
                assert abs(hit - cov) <= 4.0 * math.sqrt(cov * (1.0 - cov) / n) + err + 1.0 / n

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

    def test_summary_cache_holds_two_configurations(self):
        assert montecarlo._coverage_summary.cache_info().maxsize == 2

    @pytest.mark.parametrize("tau", [math.inf, math.nan], ids=["inf", "nan"])
    def test_both_twins_reject_non_finite_threshold(self, tau, lam0, channel, beam, quad,
                                                    small_sim):
        with pytest.raises(ValueError, match="positive and finite"):
            empirical_coverage(tau, 6, lam0, channel, beam, small_sim)
        with pytest.raises(ValueError, match="positive and finite"):
            coverage_probability(tau, 6, lam0, channel, beam, quad)

    @pytest.mark.parametrize("site, value, valid", [
        *(pytest.param(site, x, False, id=f"{site}-{name}")
          for site in DOMAIN_MESSAGES
          for name, x in (("negative", -1.0), ("zero", 0.0), ("nan", math.nan),
                          ("inf", math.inf))
          if x not in DOMAIN_BOUNDARY.get(site, ())),
        *(pytest.param(site, x, True, id=f"{site}-valid-{x:g}")
          for site, xs in DOMAIN_BOUNDARY.items() for x in xs)])
    def test_intensity_must_be_finite_and_not_negative(self, site, value, valid, lam0, blockage,
                                                       channel, beam, quad, monkeypatch):
        # One domain table for every scalar model argument of the four library
        # modules; an invalid value is rejected before any table or draw
        import mmtier
        from mmtier.channel import GainPmf
        sim = SimConfig(window_radius_m=100.0, trials=10_000, master_seed=314)
        window = mmtier.Window(mmtier.Point(0.0, 0.0), 100.0)
        calls = {
            "BlockageModel.exponential": lambda x: BlockageModel("exponential", x),
            "BlockageModel.los_ball": lambda x: BlockageModel("los_ball", x),
            "BlockageModel.constant": lambda x: BlockageModel("constant", x),
            "ChannelParams.alpha_los": lambda x: ChannelParams(x, 4.0, 1.0, blockage),
            "ChannelParams.alpha_nlos": lambda x: ChannelParams(2.0, x, 1.0, blockage),
            "ChannelParams.beta": lambda x: ChannelParams(2.0, 4.0, x, blockage),
            "ChannelParams.noise_power": lambda x: ChannelParams(2.0, 4.0, 1.0, blockage, x),
            "BeamParams.g_main": lambda x: BeamParams(math.pi / 6.0, x, 1.0, 12),
            "BeamParams.g_side": lambda x: BeamParams(math.pi / 6.0, 100.0, x, 12),
            "GainPmf": lambda x: GainPmf((1.0, 1.0, 1.0), (x, 0.5, 0.5)),
            "QuadratureSpec.rel_tol": lambda x: QuadratureSpec(rel_tol=x),
            "QuadratureSpec.abs_tol": lambda x: QuadratureSpec(abs_tol=x),
            "QuadratureSpec.truncation_radius_m": lambda x: QuadratureSpec(truncation_radius_m=x),
            "QuadratureSpec.for_tier_intensity": QuadratureSpec.for_tier_intensity,
            "los_probability": lambda x: mmtier.los_probability(x, blockage),
            "nearest_distance_pdf": lambda x: mmtier.nearest_distance_pdf(80.0, LOS, x, blockage),
            "nearest_distance_pdf.z": lambda x: mmtier.nearest_distance_pdf(x, LOS, lam0, blockage),
            "serving_distance_pdf.r": lambda x: mmtier.serving_distance_pdf(x, LOS, lam0, channel),
            "tabulate_serving_distance": lambda x: mmtier.tabulate_serving_distance(x, channel),
            "laplace_interference": lambda x: mmtier.laplace_interference(
                3.0, 80.0, LOS, 6, x, channel, beam, quad),
            "laplace_interference.s": lambda x: mmtier.laplace_interference(
                x, 80.0, LOS, 6, lam0, channel, beam, quad),
            "laplace_interference.serving_distance": lambda x: mmtier.laplace_interference(
                3.0, x, LOS, 6, lam0, channel, beam, quad),
            "coverage_probability": lambda x: coverage_probability(3.0, 6, x, channel, beam, quad),
            "coverage_probability.tau": lambda x: coverage_probability(
                x, 6, lam0, channel, beam, quad),
            "NetworkParams.lambda_tier0": lambda x: mmtier.NetworkParams(1.0, x, 12, 1.0),
            "NetworkParams.lambda_total": lambda x: mmtier.NetworkParams(x, lam0, 12, 1.0),
            "NetworkParams.bandwidth": lambda x: mmtier.NetworkParams(13.0 * lam0, lam0, 12, x),
            "hop_count.lambda0": lambda x: mmtier.hop_count(13.0, x, 1),
            "hop_count.lambda_total": lambda x: mmtier.hop_count(x, 1.0, 1),
            "Window.radius": lambda x: mmtier.Window(mmtier.Point(0.0, 0.0), x),
            "sample_ppp": lambda x: mmtier.sample_ppp(x, window, np.random.default_rng(1)),
            "SimConfig.window_radius_m": lambda x: SimConfig(window_radius_m=x, trials=1),
            "serving_distance_samples": lambda x: serving_distance_samples(x, channel, sim),
            "empirical_coverage": lambda x: empirical_coverage(3.0, 6, x, channel, beam, sim),
            "empirical_coverage.tau": lambda x: empirical_coverage(
                x, 6, lam0, channel, beam, sim),
            "empirical_laplace": lambda x: empirical_laplace(
                3.0, 80.0, LOS, 6, x, channel, beam, sim),
            "empirical_laplace.s": lambda x: empirical_laplace(
                x, 80.0, LOS, 6, lam0, channel, beam, sim),
            "empirical_laplace.serving_distance": lambda x: empirical_laplace(
                3.0, x, LOS, 6, lam0, channel, beam, sim),
        }
        assert calls.keys() == DOMAIN_MESSAGES.keys()
        if valid:
            calls[site](value)
            return
        monkeypatch.setattr(montecarlo, "_trial_streams", None)  # a draw would raise
        with pytest.raises(ValueError, match="^" + re.escape(DOMAIN_MESSAGES[site])):
            calls[site](value)


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
        # Every gain law (the atoms of k = 1 sum to 1 only to rounding) and an empty window.
        tuples = [(0.0, 80.0, LOS, k) for k in range(1, 13)]
        for lam in (lam0, 0.0):
            for mean, se in empirical_laplace_batch(tuples, lam, channel, beam, sim):
                assert mean == 1.0 and se == 0.0

    def test_exact_one_without_interferers(self, channel, beam, sim):
        mean, _ = empirical_laplace(5.0, 80.0, LOS, 6, 0.0, channel, beam, sim)
        assert mean == 1.0

    def test_minimum_trials_enforced(self, lam0, channel, beam):
        small = SimConfig(window_radius_m=2500.0, trials=500, master_seed=0)
        with pytest.raises(ValueError):
            empirical_laplace(1.0, 80.0, LOS, 6, lam0, channel, beam, small)

    @pytest.mark.parametrize("s", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_s_rejected(self, s, lam0, channel, beam, sim):
        with pytest.raises(ValueError, match="finite"):
            empirical_laplace(s, 80.0, LOS, 6, lam0, channel, beam, sim)

    def test_agrees_with_transform(self, lam0, channel, beam, quad, sim):
        from mmtier import laplace_interference
        for s, r, state, k in [(100.0, 90.0, LOS, 6), (3.0, 40.0, NLOS, 2)]:
            analytic = laplace_interference(s, r, state, k, lam0, channel, beam, quad)
            mean, se = empirical_laplace(s, r, state, k, lam0, channel, beam, sim)
            assert abs(analytic - mean) < 3.0 * se + 1e-6

    def test_raw_estimator_agrees_with_transform(self, lam0, channel, beam, quad):
        # Keeps the drawn fading and gains of the oracle cross-checked.
        from mmtier import laplace_interference
        sim = SimConfig(window_radius_m=1000.0, trials=10_000, master_seed=4)
        s, r, state, k = 30.0, 80.0, LOS, 6
        analytic, err = laplace_interference(s, r, state, k, lam0, channel, beam, quad,
                                             full_output=True)
        vals = raw_laplace_samples(s, r, state, k, lam0, channel, beam, sim)
        se = vals.std(ddof=1) / math.sqrt(sim.trials)
        assert abs(analytic - vals.mean()) < 3.0 * se + err

    def test_batch_is_bitwise_the_one_tuple_calls(self, lam0, channel, beam):
        sim = SimConfig(window_radius_m=2500.0, trials=10_000, master_seed=21)
        tuples = [(30.0, 80.0, LOS, 6), (3.0, 40.0, NLOS, 2), (1e3, 150.0, LOS, 12),
                  (0.0, 60.0, NLOS, 1), (5.0, 80.0, LOS, 6)]
        batch = empirical_laplace_batch(tuples, lam0, channel, beam, sim)
        assert batch == [empirical_laplace(*t, lam0, channel, beam, sim) for t in tuples]

    def test_conditional_value_is_the_mean_of_the_raw_one(self, lam0, channel, beam):
        # Tower property: at trial i's positions, the raw exp(-s I) averaged over fresh
        # fading and gains is the conditional value of trial i.
        sim = SimConfig(window_radius_m=400.0, trials=6, master_seed=99)
        tuples = [(300.0, 80.0, LOS, 1), (10.0, 60.0, LOS, 6), (1e4, 40.0, NLOS, 6),
                  (3.0, 60.0, LOS, 12)]
        cond = _laplace_samples(tuples, lam0, channel, beam, sim)
        redraw, draws = np.random.default_rng(5), 40_000
        for i in range(sim.trials):
            radii, is_los = laplace_positions(
                lam0, channel, sim, reference_stream(sim.master_seed, i, _SUB_LAPLACE))
            for t, (s, r, state, k) in enumerate(tuples):
                power = interferer_power(radii, is_los, r, state, channel)
                pmf = beam_gain_pmf(beam, k)
                weights = (redraw.exponential(size=(draws, len(power)))
                           * draw_gains(pmf, redraw, draws * len(power)).reshape(draws, -1))
                raw = np.exp(-s * channel.beta * (weights @ power))
                se = raw.std(ddof=1) / math.sqrt(draws)
                assert abs(raw.mean() - cond[t, i]) <= 4.0 * se + 1e-12, (i, t)


GOLDEN_SIM = SimConfig(window_radius_m=1000.0, trials=16, master_seed=2718)
# serving_distance_samples(lam0, ., GOLDEN_SIM), recorded on the PCG64DXSM trial
# streams (`mc_oracle.reference_stream`) of a count, n radii and n LOS marks.
GOLDEN_ASSOCIATION = {
    "exponential": (
        [160.9522469691027, 244.27081380234281, 68.58049886138676, 29.201467749399068,
         27.95773046251245, 90.01828118989017, 327.3501770336862, 443.8024190691023,
         265.1683122911244, 277.8741570295807, 55.49172556051808, 22.506387210127688,
         18.453973068002153, 100.99205730599006, 568.8030172426143, 326.8409389542711],
        [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]),
    "los_ball": (
        [119.54413907952335, 35.32733550548737, 68.58049886138676, 29.201467749399068,
         27.95773046251245, 90.01828118989017, 209.51710723922707, 171.89293204769191,
         149.87561718129862, 123.46511102183479, 27.79517334591349, 22.506387210127688,
         18.453973068002153, 100.99205730599006, 161.3336322379981, 169.30505820582263],
        [0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0]),
}
# Per-trial coverage (`_success_probabilities`) at (tau, k) on GOLDEN_SIM per kind ->
# (tau, k, values), recorded on the same streams after each value matched the
# all-point product at the reference positions within its remainder bound.
GOLDEN_COVERAGE = {
    "exponential": (10.0, 6, [
        0.40706830219636203, 0.45006035174549974, 0.9931904815664996, 0.5704882151971429,
        0.6729443610283381, 0.6011625915529608, 0.6990772606783958, 0.4439192626858837,
        0.9956124074569352, 0.9929216191483421, 0.5767794921478886, 0.8096143630040668,
        0.6680879965454197, 0.8270281641744617, 0.5206218535483538, 0.9873016814063901]),
    "los_ball": (3.0, 3, [
        0.8134674887553562, 0.9187877823854592, 0.805500952407719, 0.6907910326982025,
        0.948411413104158, 0.9999919232258854, 0.9519512334072908, 0.9466736281932028,
        0.9999987704402176, 0.7229326600674132, 0.9999894433690795, 0.9999956959580134,
        0.6904182425550298, 0.692827655584806, 0.9272928460512959, 0.9999976462885143]),
}
# (s, r, state, k, blockage) -> (mean, se) of the raw exp(-s I) estimator
# (`mc_oracle.raw_laplace_samples`) on a 1000 m window, 10^4 trials, seed 2718,
# recorded the same way; they pin the positions stream of the Laplace sampler.
GOLDEN_LAPLACE = [
    ((30.0, 80.0, LOS, 6, "exponential"), (0.451735267043561, 0.0041812986982948976)),
    ((3.0, 40.0, NLOS, 2, "exponential"), (0.9999827861238513, 2.0433856619085993e-06)),
    ((1e4, 90.0, LOS, 12, "los_ball"), (0.3811437905972733, 0.0027146305005184518)),
]
GOLDEN_LAPLACE_SIM = SimConfig(window_radius_m=1000.0, trials=10_000, master_seed=2718)
# The same tuples through `empirical_laplace`, fading and gains integrated out.
GOLDEN_CONDITIONAL_LAPLACE = [
    ((30.0, 80.0, LOS, 6, "exponential"), (0.44903708933536446, 0.0021249266405807183)),
    ((3.0, 40.0, NLOS, 2, "exponential"), (0.9999784365253801, 4.3737462035543115e-07)),
    ((1e4, 90.0, LOS, 12, "los_ball"), (0.3791199405631578, 0.0024029116224420373)),
]

BLOCKAGE_KINDS = {"exponential": BlockageModel("exponential", 141.4),
                  "los_ball": BlockageModel("los_ball", 100.0),
                  "constant": BlockageModel("constant", 0.5)}


def _golden_channel(kind: str) -> ChannelParams:
    if kind == "exponential":
        return ChannelParams(2.0, 4.0, 1.0, BlockageModel("exponential", 141.4))
    return ChannelParams(2.0, 4.0, 1.0, BlockageModel("los_ball", 100.0), noise_power=1e-9)


class TestMarkedPppSampler:
    @pytest.mark.parametrize("blockage, noise, k, window_m", [
        (BlockageModel("exponential", 141.4), 0.0, 6, 1000.0),
        (BlockageModel("los_ball", 100.0), 0.0, 3, 1000.0),
        (BlockageModel("exponential", 141.4), 1e-7, 12, 1000.0),
        (BlockageModel("constant", 0.5), 0.0, 6, 1000.0),
        # About 4.4 APs per window: 3 of the 40 trials hold one AP, so at zero noise
        # nothing interferes (SINR = inf), and one empty draw stays within the limit.
        (BlockageModel("exponential", 141.4), 0.0, 6, 210.0),
    ], ids=["exponential", "los_ball", "noise", "mixed_states", "single_ap"])
    def test_coverage_matches_the_all_point_product(self, lam0, beam, blockage, noise, k,
                                                    window_m):
        # Each trial's value is the exact product over every interferer at the
        # reference positions, within its remainder bound and rounding; the
        # thresholds span the far-field series and, above 1/(2 cut), its bracket.
        chan = ChannelParams(2.0, 4.0, 1.0, blockage, noise_power=noise)
        sim = SimConfig(window_radius_m=window_m, trials=40, master_seed=31)
        summary = _summary(lam0, chan, sim)
        reals = [realize_hop(lam0, chan, sim, reference_stream(sim.master_seed, i, _SUB_COVERAGE))
                 for i in range(sim.trials)]
        for tau in (0.1, 10.0, 1e3, 1e5, 1e6, 1e9):
            got, bound = _success_probabilities(tau, k, chan, beam, summary)
            want = np.array([success_probability(r, tau, k, chan, beam) for r in reals])
            assert np.all(np.abs(got - want) <= bound + 1e-12 * want), tau
            if tau <= 1e3:  # up to 30 dB the series' bound is far below any standard error
                assert np.all(bound <= 1e-5), tau
        alone = [len(r.interferer_positions) == 0 for r in reals]
        assert any(alone) == (window_m < 1000.0)
        if noise == 0.0:  # SINR = inf: covered at every threshold
            assert np.all(got[alone] == 1.0)

    def test_values_do_not_depend_on_the_chunk_size(self, lam0, channel, beam, monkeypatch):
        sim = SimConfig(window_radius_m=1000.0, trials=300, master_seed=8)

        def run():
            summary = _summary(lam0, channel, sim)
            return (*summary,
                    *_success_probabilities(30.0, 6, channel, beam, summary),
                    *serving_distance_samples(lam0, channel, sim),
                    _laplace_samples([(30.0, 80.0, LOS, 6), (3.0, 40.0, NLOS, 2)], lam0,
                                     channel, beam, sim))

        want = run()
        for points in (1, 40, 1000):
            monkeypatch.setattr(montecarlo, "_CHUNK_POINTS", points)
            for got, ref in zip(run(), want):
                np.testing.assert_array_equal(got, ref)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), m=st.integers(1, 12), extra=st.integers(0, 12))
    def test_first_trials_do_not_depend_on_the_trial_count(self, lam0, channel, beam,
                                                           seed, m, extra):
        def run(trials):
            sim = SimConfig(window_radius_m=500.0, trials=trials, master_seed=seed)
            summary = _summary(lam0, channel, sim)
            return (summary[0], summary[-1],
                    *_success_probabilities(30.0, 6, channel, beam, summary),
                    *serving_distance_samples(lam0, channel, sim),
                    _laplace_samples([(30.0, 80.0, LOS, 6), (3.0, 40.0, NLOS, 2)], lam0,
                                     channel, beam, sim))

        for short, long in zip(run(m), run(m + extra)):
            np.testing.assert_array_equal(short, long[..., :m])

    @pytest.mark.parametrize("kind", sorted(GOLDEN_ASSOCIATION))
    def test_association_golden_values(self, lam0, kind):
        dist, is_los = serving_distance_samples(lam0, _golden_channel(kind), GOLDEN_SIM)
        want_dist, want_los = GOLDEN_ASSOCIATION[kind]
        assert dist.tolist() == want_dist
        assert is_los.tolist() == [bool(v) for v in want_los]

    @pytest.mark.parametrize("kind", sorted(GOLDEN_COVERAGE))
    def test_coverage_golden_values(self, lam0, beam, kind):
        tau, k, want = GOLDEN_COVERAGE[kind]
        chan = _golden_channel(kind)
        got, _ = _success_probabilities(tau, k, chan, beam, _summary(lam0, chan, GOLDEN_SIM))
        assert got.tolist() == want

    @pytest.mark.parametrize("args, want", GOLDEN_LAPLACE)
    def test_laplace_golden_values(self, lam0, beam, args, want):
        *tup, kind = args
        vals = raw_laplace_samples(*tup, lam0, _golden_channel(kind), beam, GOLDEN_LAPLACE_SIM)
        mean = math.fsum(vals) / len(vals)
        se = math.sqrt(math.fsum((vals - mean) ** 2) / (len(vals) - 1) / len(vals))
        assert (mean, se) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("args, want", GOLDEN_CONDITIONAL_LAPLACE)
    def test_conditional_laplace_golden_values(self, lam0, beam, args, want):
        *tup, kind = args
        got = empirical_laplace(*tup, lam0, _golden_channel(kind), beam, GOLDEN_LAPLACE_SIM)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alphas", [(2.0, 4.0), (2.5, 3.7)], ids=["2-4", "2.5-3.7"])
    @pytest.mark.parametrize("kind", sorted(BLOCKAGE_KINDS))
    def test_path_loss_is_the_power_law(self, lam0, kind, alphas):
        # d^alpha comes from one scalar exponent per state, not a per-point pow.
        chan = ChannelParams(*alphas, 1.0, BLOCKAGE_KINDS[kind])
        sim = SimConfig(window_radius_m=1000.0, trials=500, master_seed=17)
        states = set()
        for _, _, _, radii, is_los, inv_power in montecarlo._marked_ppp(
                lam0, chan, sim, _SUB_LAPLACE, served=False):
            want = radii ** np.where(is_los, *alphas)
            assert np.all(np.abs(inv_power - want) <= 1e-15 * want)
            states.update(is_los.tolist())
        assert states == {False, True}

    @pytest.mark.parametrize("window_m", [150.0, 1000.0])
    @pytest.mark.parametrize("kind", sorted(BLOCKAGE_KINDS))
    def test_laplace_kernel_is_the_dense_rule(self, lam0, kind, window_m):
        # LOS- and NLOS-served tuples; s = 1e25 at k = 1, where this beam's gain
        # probabilities sum to 1 + 2^-52, so factors round below 0 and are clamped (the
        # 150 m window holds ~2 points, so a trial's product can be one such factor);
        # s = 0; and an NLOS AP at the window's edge, which excludes every point.
        beam = BeamParams(theta_a=0.3, g_main=100.0, g_side=1.0, rf_chains=12)
        chan = ChannelParams(2.0, 4.0, 1.0, BLOCKAGE_KINDS[kind])
        sim = SimConfig(window_radius_m=window_m, trials=500, master_seed=41)
        tuples = [(30.0, 80.0, LOS, 6), (3.0, 40.0, NLOS, 2), (1e25, 50.0, LOS, 1),
                  (0.0, 80.0, LOS, 6), (30.0, window_m, NLOS, 6)]
        got = _laplace_samples(tuples, lam0, chan, beam, sim)
        np.testing.assert_array_equal(got, dense_laplace_samples(tuples, lam0, chan, beam, sim))
        assert np.all(np.any(got[:3] < 1.0, axis=1))
        assert np.any(got[2] == 0.0)
        assert np.all(got[3:] == 1.0)

    def test_a_pinned_ap_excludes_a_drawn_point_at_its_own_radius(self, lam0, channel, beam):
        # An NLOS point's d^alpha, (r * r)^2, and r ** 4.0 are two roundings of r^4. Pin an
        # NLOS AP at the radius of each trial's weakest point, where that point is NLOS
        # and its d^alpha rounds above r ** 4.0: no point then offers less power than the
        # AP, so the trial's value is exactly 1, as it is when V is taken by the same rule.
        sim = SimConfig(window_radius_m=1000.0, trials=100, master_seed=43)
        pins = {}
        for first, counts, starts, radii, is_los, inv_power in montecarlo._marked_ppp(
                lam0, channel, sim, _SUB_LAPLACE, served=False):
            for trial, (start, n) in enumerate(zip(starts, counts), first):
                if n == 0:
                    continue
                j = start + int(np.argmax(inv_power[start:start + n]))
                r = float(radii[j])
                if not is_los[j] and inv_power[j] > r ** 4.0:
                    pins[trial] = r
        assert len(pins) >= 10
        vals = _laplace_samples([(30.0, r, NLOS, 6) for r in pins.values()], lam0, channel,
                                beam, sim)
        assert [row[trial] for row, trial in zip(vals, pins)] == [1.0] * len(pins)

    def test_a_point_at_the_origin_at_zero_s_is_exactly_one(self, lam0, channel, beam,
                                                           monkeypatch):
        # Its d^alpha is 0, so at s = 0 a term p_g c_g/(w + c_g) would read 0/0.
        marked_ppp = montecarlo._marked_ppp

        def origin_first(*args, **kwargs):
            for first, counts, starts, radii, is_los, inv_power in marked_ppp(*args, **kwargs):
                radii[starts[counts > 0]] = inv_power[starts[counts > 0]] = 0.0
                yield first, counts, starts, radii, is_los, inv_power

        monkeypatch.setattr(montecarlo, "_marked_ppp", origin_first)
        sim = SimConfig(window_radius_m=1000.0, trials=50, master_seed=5)
        tuples = [(0.0, 80.0, LOS, 6), (30.0, 80.0, LOS, 6)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _laplace_samples(tuples, lam0, channel, beam, sim)
        assert np.all(got[0] == 1.0)
        np.testing.assert_array_equal(got, dense_laplace_samples(tuples, lam0, channel, beam, sim))

    @pytest.mark.parametrize("window_m", [0.1, 60.0], ids=["always-empty", "often-empty"])
    def test_window_too_small_raises(self, lam0, channel, beam, window_m):
        sim = SimConfig(window_radius_m=window_m, trials=100, master_seed=3)
        with pytest.raises(SimulationError):
            empirical_coverage(3.0, 6, lam0, channel, beam, sim)
        with pytest.raises(SimulationError):
            serving_distance_samples(lam0, channel, sim)
