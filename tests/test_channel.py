"""Link-level model tests: blockage, path loss, beam gains, fading."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mmtier import (
    LOS,
    NLOS,
    BeamParams,
    BlockageModel,
    ChannelParams,
    GainPmf,
    beam_gain_pmf,
    los_probability,
    nlos_probability,
    path_loss,
    sample_fading,
)


class TestBlockage:
    def test_exponential_zero_length_is_los(self):
        assert los_probability(0.0, BlockageModel.exponential(50.0)) == 1.0

    def test_exponential_at_mu(self):
        assert los_probability(141.4, BlockageModel.exponential(141.4)) == pytest.approx(
            math.exp(-1.0), abs=1e-12)

    def test_los_ball_indicator(self):
        ball = BlockageModel.los_ball(100.0)
        assert los_probability(99.0, ball) == 1.0
        assert los_probability(101.0, ball) == 0.0

    def test_constant(self):
        assert los_probability(12345.0, BlockageModel.constant(0.3)) == 0.3

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            los_probability(-1.0, BlockageModel.constant(0.5))

    def test_invalid_models_rejected(self):
        with pytest.raises(ValueError):
            BlockageModel.exponential(0.0)
        with pytest.raises(ValueError):
            BlockageModel.constant(1.5)
        with pytest.raises(ValueError):
            BlockageModel("fancy", 1.0)

    @given(r=st.floats(min_value=0.0, max_value=1e5),
           mu=st.floats(min_value=1e-3, max_value=1e4))
    def test_states_partition_probability(self, r, mu):
        model = BlockageModel.exponential(mu)
        assert los_probability(r, model) + nlos_probability(r, model) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=50)
    @given(r1=st.floats(min_value=0.0, max_value=1e4),
           r2=st.floats(min_value=0.0, max_value=1e4))
    def test_monotone_non_increasing(self, r1, r2):
        lo, hi = sorted((r1, r2))
        for model in (BlockageModel.exponential(100.0), BlockageModel.los_ball(100.0)):
            assert los_probability(lo, model) >= los_probability(hi, model)

    def test_array_input(self):
        model = BlockageModel.exponential(100.0)
        r = np.array([0.0, 100.0, 300.0])
        np.testing.assert_allclose(los_probability(r, model),
                                   np.exp(-r / 100.0), atol=1e-15)


class TestPathLoss:
    @pytest.fixture
    def params(self):
        return ChannelParams(alpha_los=2.0, alpha_nlos=4.0, beta=1.0,
                             blockage=BlockageModel.constant(1.0))

    def test_los_decade(self, params):
        assert path_loss(10.0, LOS, params) == pytest.approx(0.01, abs=1e-15)

    def test_nlos_decade(self, params):
        assert path_loss(10.0, NLOS, params) == pytest.approx(1e-4, abs=1e-15)

    def test_unit_distance_gives_intercept(self, params):
        assert path_loss(1.0, LOS, params) == 1.0
        assert path_loss(1.0, NLOS, params) == 1.0

    def test_zero_distance_rejected(self, params):
        with pytest.raises(ValueError):
            path_loss(0.0, LOS, params)

    def test_unknown_state_rejected(self, params):
        with pytest.raises(ValueError):
            path_loss(1.0, "foggy", params)

    @given(r1=st.floats(min_value=1e-3, max_value=1e5),
           r2=st.floats(min_value=1e-3, max_value=1e5))
    def test_strictly_decreasing(self, r1, r2):
        params = ChannelParams(2.0, 4.0, 3.0, BlockageModel.constant(0.5))
        lo, hi = sorted((r1, r2))
        if lo < hi:
            assert path_loss(lo, LOS, params) > path_loss(hi, LOS, params)

    @given(r=st.floats(min_value=1.0, max_value=1e5))
    def test_los_dominates_nlos_beyond_unit_distance(self, r):
        params = ChannelParams(2.1, 3.7, 2.0, BlockageModel.constant(0.5))
        assert path_loss(r, LOS, params) >= path_loss(r, NLOS, params)

    def test_invariants_rejected(self):
        blk = BlockageModel.constant(1.0)
        with pytest.raises(ValueError):
            ChannelParams(alpha_los=0.0, alpha_nlos=4.0, beta=1.0, blockage=blk)
        with pytest.raises(ValueError):
            ChannelParams(alpha_los=4.0, alpha_nlos=2.0, beta=1.0, blockage=blk)
        with pytest.raises(ValueError):
            ChannelParams(alpha_los=2.0, alpha_nlos=4.0, beta=-1.0, blockage=blk)
        with pytest.raises(ValueError):
            ChannelParams(alpha_los=2.0, alpha_nlos=4.0, beta=1.0, blockage=blk,
                          noise_power=-1e-3)


class TestBeamGainPmf:
    def test_thirty_degree_instances(self, beam):
        # p = theta*k/(2*pi) = k/12 at 30 degrees
        cases = {
            1: (1.0 / 144.0, 22.0 / 144.0, 121.0 / 144.0),
            6: (0.25, 0.5, 0.25),
            12: (1.0, 0.0, 0.0),
        }
        for k, probs in cases.items():
            pmf = beam_gain_pmf(beam, k)
            assert pmf.gains == (10000.0, 100.0, 1.0)
            assert pmf.probs == pytest.approx(probs, abs=1e-15)

    def test_gain_order_and_sum(self, beam):
        pmf = beam_gain_pmf(beam, 4)
        assert math.fsum(pmf.probs) == pytest.approx(1.0, abs=1e-12)
        assert pmf.gains[0] >= pmf.gains[1] >= pmf.gains[2]

    @settings(max_examples=200)
    @given(data=st.data())
    def test_probabilities_always_sum_to_one(self, data):
        k = data.draw(st.integers(min_value=1, max_value=12))
        theta = data.draw(st.floats(min_value=1e-6, max_value=2.0 * math.pi / 12.0))
        beam = BeamParams(theta_a=theta, g_main=100.0, g_side=1.0, rf_chains=12)
        pmf = beam_gain_pmf(beam, k)
        assert abs(math.fsum(pmf.probs) - 1.0) <= 1e-12
        assert all(0.0 <= p <= 1.0 for p in pmf.probs)

    def test_expected_gain_monotone_in_k(self, beam):
        expected = [beam_gain_pmf(beam, k).expected_gain for k in range(1, 13)]
        assert all(a <= b for a, b in zip(expected, expected[1:]))

    def test_k_out_of_range_rejected(self, beam):
        with pytest.raises(ValueError):
            beam_gain_pmf(beam, 0)
        with pytest.raises(ValueError):
            beam_gain_pmf(beam, 13)

    def test_wide_beam_times_chains_rejected(self):
        with pytest.raises(ValueError):
            BeamParams(theta_a=math.pi, g_main=10.0, g_side=1.0, rf_chains=4)

    def test_pmf_validation(self):
        with pytest.raises(ValueError):
            GainPmf(gains=(4.0, 2.0, 1.0), probs=(0.5, 0.4, 0.2))

    def test_sampling_matches_probabilities(self, beam):
        pmf = beam_gain_pmf(beam, 6)
        rng = np.random.default_rng(7)
        draws = pmf.sample(rng, 100_000)
        for gain, prob in zip(pmf.gains, pmf.probs):
            frac = np.mean(draws == gain)
            assert frac == pytest.approx(prob, abs=0.006)

    @settings(max_examples=200)
    @given(pmf=st.one_of(
               st.floats(0.0, 1.0).map(lambda p: GainPmf(
                   gains=(9.0, 3.0, 1.0), probs=(p * p, 2.0 * p * (1.0 - p), (1.0 - p)**2))),
               # theta_a * k = 2*pi: every main lobe aligned, two zero atoms
               st.integers(1, 12).map(lambda k: beam_gain_pmf(
                   BeamParams(theta_a=2.0 * math.pi / k, g_main=100.0, g_side=1.0,
                              rf_chains=k), k))),
           u=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
    @example(pmf=GainPmf(gains=(9.0, 3.0, 1.0), probs=(0.0, 0.0, 1.0)), u=[])
    @example(pmf=GainPmf(gains=(9.0, 3.0, 1.0), probs=(0.0, 1.0, 0.0)), u=[])
    def test_sample_picks_the_searchsorted_atom(self, pmf, u):
        edges = np.cumsum(pmf.probs)
        u = np.concatenate([u, edges, np.nextafter(edges, 0.0), [0.0, 1.0]])

        class FixedUniforms:
            def random(self, size):
                assert size == len(u)
                return u

        want = np.asarray(pmf.gains)[np.minimum(edges.searchsorted(u, side="right"), 2)]
        np.testing.assert_array_equal(pmf.sample(FixedUniforms(), len(u)), want)


class TestFading:
    def test_unit_mean(self):
        rng = np.random.default_rng(123)
        draws = sample_fading(rng, size=1_000_000)
        assert draws.mean() == pytest.approx(1.0, abs=0.01)

    def test_median_is_ln2(self):
        rng = np.random.default_rng(123)
        draws = sample_fading(rng, size=200_000)
        frac = np.mean(draws > math.log(2.0))
        assert frac == pytest.approx(0.5, abs=0.005)

    def test_reproducible(self):
        a = sample_fading(np.random.default_rng(5), size=10)
        b = sample_fading(np.random.default_rng(5), size=10)
        np.testing.assert_array_equal(a, b)
        assert isinstance(sample_fading(np.random.default_rng(5)), float)
