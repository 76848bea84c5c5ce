"""Closed-form reductions, sampling oracles and structural properties of the
analytical module."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from mmtier import (
    LOS,
    NLOS,
    BeamParams,
    BlockageModel,
    ChannelParams,
    NetworkParams,
    QuadratureError,
    QuadratureSpec,
    conditional_coverage,
    coverage_probability,
    gain_moment,
    hop_count,
    laplace_interference,
    latency_bounds,
    nearest_distance_pdf,
    optimal_gain,
    serving_distance_pdf,
    tabulate_serving_distance,
    throughput,
)
from mmtier import analytics, los_probability
from mmtier.analytics import evaluate_point

import adaptive_oracle as oracle
from conftest import MU_M, intensity_for

ALWAYS_LOS = BlockageModel.constant(1.0)
HALF_LOS = BlockageModel.constant(0.5)
LAM = intensity_for(100.0)
LOS_BALL_CHANNEL = ChannelParams(2.0, 4.0, 1.0, BlockageModel.los_ball(100.0))


def rayleigh_nearest_pdf(z, lam):
    """Nearest-neighbor distance law of a homogeneous PPP (no blockage)."""
    return 2.0 * math.pi * z * lam * math.exp(-math.pi * lam * z * z)


def _serving_weight_literal(r: float, state: str, lambda0: float, channel: ChannelParams,
                            quad: QuadratureSpec) -> float | None:
    """Coverage weight in ratio form: f_state(r) * f_other(w) / (2*pi*w*lam*P_other(w)).

    Returns None where the ratio is 0/0 (opposite-state probability vanishes).
    Algebraically identical to `serving_distance_pdf`; kept as a consistency
    cross-check because the ratio form is the more error-prone one.
    """
    if state == LOS:
        w = r ** (channel.alpha_los / channel.alpha_nlos)
        other = NLOS
        p_other = 1.0 - los_probability(w, channel.blockage)
    else:
        w = r ** (channel.alpha_nlos / channel.alpha_los)
        other = LOS
        p_other = los_probability(w, channel.blockage)
    if p_other <= 1e-300:
        return None
    f_state = nearest_distance_pdf(r, state, lambda0, channel.blockage, quad)
    f_other = nearest_distance_pdf(w, other, lambda0, channel.blockage, quad)
    return f_state * f_other / (2.0 * math.pi * w * lambda0 * p_other)


def _check_weight_forms(lambda0: float, channel: ChannelParams, quad: QuadratureSpec) -> None:
    """Assert the simplified and ratio weight forms agree at probe radii."""
    r0 = math.sqrt(1.0 / (math.pi * lambda0))
    for state in (LOS, NLOS):
        for r in (0.25 * r0, r0, 4.0 * r0):
            literal = _serving_weight_literal(r, state, lambda0, channel, quad)
            if literal is None:
                continue
            simplified = serving_distance_pdf(r, state, lambda0, channel, quad)
            assert literal == pytest.approx(simplified, rel=quad.rel_tol, abs=1e-300), (r, state)


class TestNearestDistancePdf:
    def test_reduces_to_rayleigh_law_without_blockage(self):
        for z in (5.0, 50.0, 120.0, 300.0):
            got = nearest_distance_pdf(z, LOS, LAM, ALWAYS_LOS)
            assert got == pytest.approx(rayleigh_nearest_pdf(z, LAM), rel=1e-9)

    def test_median_of_rayleigh_law(self):
        median = math.sqrt(math.log(2.0) / (math.pi * LAM))
        mass, _ = integrate.quad(lambda z: nearest_distance_pdf(z, LOS, LAM, ALWAYS_LOS),
                                 0.0, median)
        assert mass == pytest.approx(0.5, abs=1e-9)

    def test_nlos_branch_vanishes_without_blockage(self):
        assert nearest_distance_pdf(80.0, NLOS, LAM, ALWAYS_LOS) == 0.0

    def test_exponential_blockage_los_mass_closed_form(self, blockage):
        # Total nearest-LOS mass is one minus the LOS void probability,
        # exp(-2*pi*lam*mu^2) for the exponential model.
        mass, _ = integrate.quad(
            lambda z: nearest_distance_pdf(z, LOS, LAM, blockage),
            0.0, 5000.0, limit=200)
        closed = 1.0 - math.exp(-2.0 * math.pi * LAM * MU_M**2)
        assert mass == pytest.approx(closed, abs=1e-6)

    def test_array_agrees_with_scalar(self, blockage):
        z = np.array([10.0, 300.0, 30.0, 150.0])
        arr = nearest_distance_pdf(z, LOS, LAM, blockage)
        scalars = [nearest_distance_pdf(float(zi), LOS, LAM, blockage) for zi in z]
        np.testing.assert_allclose(arr, scalars, rtol=1e-6)

    def test_validation(self, blockage):
        with pytest.raises(ValueError):
            nearest_distance_pdf(-1.0, LOS, LAM, blockage)
        with pytest.raises(ValueError):
            nearest_distance_pdf(1.0, LOS, 0.0, blockage)


class TestServingDistancePdf:
    def test_no_blockage_reduces_to_rayleigh(self):
        chan = ChannelParams(2.0, 4.0, 1.0, ALWAYS_LOS)
        for r in (20.0, 100.0, 250.0):
            assert serving_distance_pdf(r, LOS, LAM, chan) == pytest.approx(
                rayleigh_nearest_pdf(r, LAM), rel=1e-9)
            assert serving_distance_pdf(r, NLOS, LAM, chan) == 0.0

    def test_no_blockage_total_mass_is_one(self):
        chan = ChannelParams(2.0, 4.0, 1.0, ALWAYS_LOS)
        mass, _ = integrate.quad(lambda r: serving_distance_pdf(r, LOS, LAM, chan),
                                 0.0, 2500.0, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("r0", [100.0, 200.0])
    def test_total_probability_with_blockage(self, r0, channel, quad):
        table = tabulate_serving_distance(intensity_for(r0), channel, quad)
        assert table.total_mass == pytest.approx(1.0, abs=1e-3)

    def test_table_matches_pointwise_pdf(self, serving_table, lam0, channel, quad):
        idx = [200, 1000, 2500]
        for i in idx:
            r = float(serving_table.radii[i])
            assert serving_table.pdf_los[i] == pytest.approx(
                serving_distance_pdf(r, LOS, lam0, channel, quad), rel=1e-5, abs=1e-12)


BLOCKAGE_KINDS = {
    "exponential": BlockageModel.exponential(MU_M),
    "los_ball": BlockageModel.los_ball(100.0),
    "constant": HALF_LOS,
}
# Lengths on both sides of 64, where the distance laws once switched from
# adaptive quadrature to a trapezoid table.
SPLIT_RADII = list(np.linspace(5.0, 600.0, 65))


class TestBatchIndependence:
    """A distance-law value must not depend on how many radii share its call."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(BLOCKAGE_KINDS)), state=st.sampled_from([LOS, NLOS]),
           radii=st.lists(st.floats(1.0, 3000.0), min_size=1, max_size=140))
    @example(kind="exponential", state=LOS, radii=SPLIT_RADII)
    @example(kind="exponential", state=NLOS, radii=SPLIT_RADII)
    def test_value_independent_of_array_length(self, kind, state, radii):
        chan = ChannelParams(2.0, 4.0, 1.0, BLOCKAGE_KINDS[kind])
        r = np.array(radii)
        for law in (lambda x: serving_distance_pdf(x, state, LAM, chan),
                    lambda x: nearest_distance_pdf(x, state, LAM, chan.blockage)):
            whole = law(r)
            np.testing.assert_allclose(law(r[:64]), whole[:64], rtol=1e-14, atol=0.0)
            np.testing.assert_allclose([law(float(x)) for x in r], whole, rtol=1e-14, atol=0.0)

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(sorted(BLOCKAGE_KINDS)), r0=st.floats(50.0, 300.0),
           alpha_los=st.floats(2.0, 3.0), alpha_gap=st.floats(0.0, 2.0))
    def test_serving_table_has_unit_mass(self, kind, r0, alpha_los, alpha_gap):
        chan = ChannelParams(alpha_los, alpha_los + alpha_gap, 1.0, BLOCKAGE_KINDS[kind])
        table = tabulate_serving_distance(intensity_for(r0), chan)
        # the table's trapezoid masses carry its own 1e-3 contract
        assert table.total_mass == pytest.approx(1.0, abs=1e-3)


class TestGainMoment:
    def test_unit_at_zero(self, channel, beam):
        for r, k, state in [(10.0, 1, LOS), (200.0, 12, NLOS)]:
            assert gain_moment(0.0, r, k, state, channel, beam) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_beam_closed_form(self, channel):
        flat = BeamParams(theta_a=0.3, g_main=2.0, g_side=2.0, rf_chains=4)
        s, r = 3.0, 7.0
        expected = 1.0 / (1.0 + s * 1.0 * 4.0 * r**-2.0)
        assert gain_moment(s, r, 2, LOS, channel, flat) == pytest.approx(expected, rel=1e-12)

    def test_against_sampling_oracle(self, channel, beam):
        from mmtier import beam_gain_pmf, sample_fading
        rng = np.random.default_rng(99)
        s, r, k = 120.0, 80.0, 6
        pmf = beam_gain_pmf(beam, k)
        n = 1_000_000
        h = sample_fading(rng, size=n)
        g = pmf.sample(rng, n)
        vals = np.exp(-s * channel.beta * h * g * r**-2.0)
        got = gain_moment(s, r, k, LOS, channel, beam)
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(got - vals.mean()) < 3.0 * se

    def test_strictly_decreasing_in_s(self, channel, beam):
        vals = [gain_moment(s, 60.0, 3, LOS, channel, beam)
                for s in (0.0, 1.0, 10.0, 100.0, 1e4)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)


class TestLaplaceInterference:
    def test_unit_at_zero_s(self, lam0, channel, beam, quad):
        assert laplace_interference(0.0, 50.0, LOS, 6, lam0, channel, beam, quad) == 1.0

    def test_unit_without_interferers(self, channel, beam, quad):
        assert laplace_interference(10.0, 50.0, LOS, 6, 0.0, channel, beam, quad) == 1.0

    def test_in_unit_interval_and_monotone(self, lam0, channel, beam, quad):
        vals = [laplace_interference(s, 80.0, LOS, 6, lam0, channel, beam, quad)
                for s in (0.0, 5.0, 50.0, 500.0)]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_non_increasing_in_intensity(self, lam0, channel, beam, quad):
        lo = laplace_interference(50.0, 80.0, LOS, 6, 0.5 * lam0, channel, beam, quad)
        hi = laplace_interference(50.0, 80.0, LOS, 6, 2.0 * lam0, channel, beam, quad)
        assert lo >= hi

    def test_divergent_far_field_raises(self, beam):
        # Flat blockage with a LOS exponent of 2: the interference integral has
        # a non-integrable far field and no truncation can bound the tail.
        chan = ChannelParams(2.0, 4.0, 1.0, BlockageModel.constant(0.5))
        with pytest.raises(QuadratureError):
            laplace_interference(1.0, 50.0, LOS, 1, LAM, chan,
                                 beam, QuadratureSpec(truncation_radius_m=2500.0))

    def test_nlos_serving_exclusion_larger_than_window(self, lam0, channel, beam, quad):
        # Serving NLOS at 80 m excludes LOS interferers out to 80^2 m, beyond
        # the truncation: only the NLOS field contributes.
        v = laplace_interference(5.0, 80.0, NLOS, 3, lam0, channel, beam, quad)
        assert 0.0 < v <= 1.0


class TestConditionalCoverage:
    def test_no_noise_no_interference(self, channel, beam, quad):
        assert conditional_coverage(1.0, 100.0, 6, LOS, 0.0, channel, beam, quad) == 1.0

    def test_approaches_one_at_small_tau(self, lam0, channel, beam, quad):
        val = conditional_coverage(1e-12, 100.0, 6, LOS, lam0, channel, beam, quad)
        assert val > 1.0 - 1e-6

    def test_against_direct_conditioned_simulation(self, lam0, channel, beam, quad):
        # Independent oracle: resample the thinned interferer field from
        # scratch (plain numpy, no mmtier.montecarlo) and threshold the SINR.
        tau, r, k = 2.0, 90.0, 6
        rng = np.random.default_rng(31337)
        from mmtier import beam_gain_pmf
        pmf = beam_gain_pmf(beam, k)
        window = quad.truncation_radius_m
        mean_n = lam0 * math.pi * window**2
        excl_los, excl_nlos = r, r ** (channel.alpha_los / channel.alpha_nlos)
        trials = 40_000
        covered = 0
        for _ in range(trials):
            n = rng.poisson(mean_n)
            d = window * np.sqrt(rng.random(n))
            is_los = rng.random(n) < np.exp(-d / MU_M)
            keep = np.where(is_los, d > excl_los, d > excl_nlos)
            d = d[keep]
            alpha = np.where(is_los[keep], 2.0, 4.0)
            interference = np.sum(rng.exponential(size=len(d)) * pmf.sample(rng, len(d))
                                  * d**-alpha)
            h0 = rng.exponential()
            covered += h0 * beam.g_main**2 * r**-2.0 > tau * interference
        estimate = covered / trials
        got = conditional_coverage(tau, r, k, LOS, lam0, channel, beam, quad)
        assert abs(got - estimate) < 0.02

    def test_coverage_weight_forms_agree(self, lam0, channel, quad):
        for chan in (channel, LOS_BALL_CHANNEL, dataclasses.replace(channel, blockage=HALF_LOS)):
            _check_weight_forms(lam0, chan, quad)


class TestCoverageProbability:
    def test_approaches_one_at_small_tau(self, lam0, channel, beam, quad):
        assert coverage_probability(1e-9, 1, lam0, channel, beam, quad) > 1.0 - 1e-4

    def test_monotone_in_tau_and_k(self, lam0, channel, beam, quad):
        taus = [0.1, 1.0, 10.0]
        ks = [1, 6, 12]
        grid = {(t, k): coverage_probability(t, k, lam0, channel, beam, quad)
                for t in taus for k in ks}
        for k in ks:
            col = [grid[(t, k)] for t in taus]
            assert all(a >= b - 1e-9 for a, b in zip(col, col[1:]))
        for t in taus:
            row = [grid[(t, k)] for k in ks]
            assert all(a >= b - 1e-9 for a, b in zip(row, row[1:]))
            assert all(0.0 <= c <= 1.0 for c in row)

    def test_halving_tolerance_stays_within_error_estimate(self, lam0, channel, beam):
        coarse = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-8, truncation_radius_m=2500.0)
        fine = QuadratureSpec(rel_tol=5e-6, abs_tol=1e-8, truncation_radius_m=2500.0)
        c1, e1 = coverage_probability(3.0, 6, lam0, channel, beam, coarse, full_output=True)
        c2 = coverage_probability(3.0, 6, lam0, channel, beam, fine)
        assert abs(c1 - c2) <= max(e1, 1e-12)

    def test_error_covers_a_longer_truncation(self, lam0, channel, beam):
        # The interference beyond the truncation radius and the serving
        # distances beyond it are both in the error estimate.
        for tau, k in ((0.1, 1), (10.0, 6), (1000.0, 12)):
            short, err = coverage_probability(tau, k, lam0, channel, beam,
                                              QuadratureSpec(truncation_radius_m=1000.0),
                                              full_output=True)
            far = coverage_probability(tau, k, lam0, channel, beam,
                                       QuadratureSpec(truncation_radius_m=20000.0))
            assert abs(short - far) <= err, (tau, k, short, far, err)

    def test_k_validated(self, lam0, channel, beam, quad):
        with pytest.raises(ValueError):
            coverage_probability(1.0, 13, lam0, channel, beam, quad)


# (channel, tau, k): the engine's reference setting, the other two blockage
# laws (constant blockage needs alpha_los > 2 for a finite far field) and
# a noise-limited case.
ORACLE_CASES = {
    "exponential": (ChannelParams(2.0, 4.0, 1.0, BlockageModel.exponential(MU_M)), 2.0, 6),
    "los_ball": (LOS_BALL_CHANNEL, 0.5, 3),
    "constant": (ChannelParams(2.5, 4.0, 1.0, HALF_LOS), 1.0, 6),
    "noise": (ChannelParams(2.0, 4.0, 1.0, BlockageModel.exponential(MU_M), noise_power=0.5),
              1.0, 1),
}


class TestAdaptiveOracle:
    """The fixed-node engine against the nested adaptive quadrature it replaced
    (`adaptive_oracle`): each pair agrees within the sum of its two errors."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_coverage(self, case, lam0, beam, quad):
        chan, tau, k = ORACLE_CASES[case]
        got, err = coverage_probability(tau, k, lam0, chan, beam, quad, full_output=True)
        want, want_err = oracle.coverage_probability(tau, k, lam0, chan, beam, quad,
                                                     full_output=True)
        assert abs(got - want) <= err + want_err, (got, err, want, want_err)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_conditional_coverage_and_laplace(self, case, lam0, beam, quad):
        chan, tau, k = ORACLE_CASES[case]
        for state in (LOS, NLOS):
            for r in (20.0, 90.0, 300.0):
                got = conditional_coverage(tau, r, k, state, lam0, chan, beam, quad,
                                           full_output=True)
                want = oracle.conditional_coverage(tau, r, k, state, lam0, chan, beam, quad,
                                                   full_output=True)
                assert abs(got[0] - want[0]) <= got[1] + want[1], (state, r, got, want)
                for s in (0.3, 30.0, 3000.0):
                    got = laplace_interference(s, r, state, k, lam0, chan, beam, quad,
                                               full_output=True)
                    want = oracle.laplace_interference(s, r, state, k, lam0, chan, beam, quad,
                                                       full_output=True)
                    assert abs(got[0] - want[0]) <= got[1] + want[1], (state, r, s, got, want)


class TestReferenceSettingCurves:
    """Shape of the coverage curves in the reference evaluation setting.

    Quantitative targets were frozen from the Monte Carlo oracle: the decay in
    k at fixed threshold is near-linear (R^2 > 0.99), and the 100 m / 200 m
    spacing curves coincide within 0.05 for thresholds up to 0 dB and gains up
    to 6 (the blockage scale is fixed in meters, so the comparison degrades at
    higher gains and thresholds; see the k=12 / 10 dB regime).
    """

    def test_near_linear_decay_in_gain(self, lam0, channel, beam, quad):
        ks = np.arange(1, 13)
        cov = np.array([coverage_probability(10.0, int(k), lam0, channel, beam, quad)
                        for k in ks])
        assert np.all(np.diff(cov) < 0.0)
        fit = np.polyval(np.polyfit(ks, cov, 1), ks)
        r_squared = 1.0 - np.sum((cov - fit) ** 2) / np.sum((cov - cov.mean()) ** 2)
        assert r_squared > 0.99

    def test_spacing_insensitivity_at_moderate_gain(self, channel, beam):
        lam100 = intensity_for(100.0)
        lam200 = intensity_for(200.0)
        q100 = QuadratureSpec(truncation_radius_m=2500.0)
        q200 = QuadratureSpec(truncation_radius_m=5000.0)
        for tau in (0.1, 1.0):
            for k in (1, 6):
                c100 = coverage_probability(tau, k, lam100, channel, beam, q100)
                c200 = coverage_probability(tau, k, lam200, channel, beam, q200)
                assert abs(c100 - c200) < 0.05


class TestLatency:
    def test_paper_instance_bounds(self):
        assert latency_bounds(13.0, 1.0, 12) == (1.0, 12.0)

    def test_single_chain_collapses_bounds(self):
        lo, hi = latency_bounds(7.0, 1.0, 1)
        assert lo == hi == 6.0

    def test_no_relays(self):
        assert latency_bounds(5.0, 5.0, 4) == (0.0, 0.0)

    def test_hop_count_instances(self):
        assert hop_count(13.0, 1.0, 1) == 12
        assert hop_count(13.0, 1.0, 6) == 2
        assert hop_count(13.0, 1.0, 12) == 1

    def test_hop_count_with_real_densities(self, lam0):
        assert hop_count(13.0 * lam0, lam0, 6) == 2

    def test_non_integer_rejected_or_floored(self):
        with pytest.raises(ValueError):
            hop_count(13.0, 1.0, 5)
        assert hop_count(13.0, 1.0, 5, allow_floor=True) == 2

    def test_hop_count_within_bounds(self):
        for k, m in [(1, 3), (2, 5), (3, 4), (7, 2)]:
            total = 1.0 + k * m
            lo, hi = latency_bounds(total, 1.0, 8)
            assert lo - 1e-9 <= hop_count(total, 1.0, k) <= hi + 1e-9


class TestThroughput:
    def test_unit_plugin_with_forced_coverage(self, channel, beam, quad, monkeypatch):
        monkeypatch.setattr(analytics, "coverage_probability",
                            lambda *a, **kw: (1.0, 0.0) if kw.get("full_output") else 1.0)
        net = NetworkParams(lambda_total=2.0, lambda_tier0=1.0, rf_chains=12,
                            bandwidth=1.0, gain_per_hop=1)
        assert analytics.throughput(1, 1.0, net, channel, beam, quad) == 1.0

    def test_compositional_identity(self, lam0, channel, beam, quad):
        net = NetworkParams(lambda_total=13.0 * lam0, lambda_tier0=lam0,
                            rf_chains=12, bandwidth=5e8)
        tau, k = 2.0, 6
        cov = coverage_probability(tau, k, lam0, channel, beam, quad)
        expected = analytics.throughput_identity(k, tau, net, cov)
        assert throughput(k, tau, net, channel, beam, quad) == expected
        assert expected == pytest.approx(5e8 * k * lam0 * cov * math.log2(1.0 + tau),
                                         rel=1e-12)

    def test_independent_of_total_density(self, lam0, channel, beam, quad):
        kwargs = dict(lambda_tier0=lam0, rf_chains=12, bandwidth=1e8)
        t7 = throughput(3, 2.0, NetworkParams(lambda_total=7 * lam0, **kwargs),
                        channel, beam, quad)
        t13 = throughput(3, 2.0, NetworkParams(lambda_total=13 * lam0, **kwargs),
                         channel, beam, quad)
        assert t7 == t13  # bitwise

    def test_evaluate_point_consistency(self, lam0, channel, beam, quad):
        net = NetworkParams(lambda_total=13.0 * lam0, lambda_tier0=lam0,
                            rf_chains=12, bandwidth=2.0)
        pt = evaluate_point(2.0, 6, net, channel, beam, quad)
        assert pt.throughput == analytics.throughput_identity(6, 2.0, net, pt.coverage)
        lo, hi = latency_bounds(net.lambda_total, net.lambda_tier0, net.rf_chains)
        assert lo - 1e-9 <= pt.latency <= hi + 1e-9
        assert pt.latency == pytest.approx(2.0, abs=1e-9)
        assert 0.0 <= pt.coverage <= 1.0 and pt.quad_error < 1e-3


class TestOptimalGain:
    def test_single_chain(self, channel, beam, quad, monkeypatch):
        monkeypatch.setattr(analytics, "coverage_probability",
                            lambda *a, **kw: (0.5, 0.0) if kw.get("full_output") else 0.5)
        single = BeamParams(theta_a=math.pi / 6, g_main=100.0, g_side=1.0, rf_chains=1)
        net = NetworkParams(lambda_total=3.0, lambda_tier0=1.0, rf_chains=1, bandwidth=1.0)
        k, _ = analytics.optimal_gain(1.0, net, channel, single, quad)
        assert k == 1

    def test_constant_coverage_prefers_max_feasible_gain(self, channel, beam, quad,
                                                         monkeypatch):
        monkeypatch.setattr(analytics, "coverage_probability",
                            lambda *a, **kw: (0.7, 0.0) if kw.get("full_output") else 0.7)
        net = NetworkParams(lambda_total=13.0, lambda_tier0=1.0, rf_chains=12,
                            bandwidth=1.0)
        k, t = analytics.optimal_gain(1.0, net, channel, beam, quad)
        assert k == 12  # throughput linear in k when coverage is flat
        assert t == pytest.approx(12.0 * 0.7 * math.log2(2.0))

    def test_feasibility_filter(self):
        net = NetworkParams(lambda_total=13.0, lambda_tier0=1.0, rf_chains=12,
                            bandwidth=1.0)
        assert analytics.feasible_gains(net) == [1, 2, 3, 4, 6, 12]

    def test_no_feasible_gain_raises(self, channel, beam, quad):
        # 0.6 relay tiers cannot be split by any integer gain
        net = NetworkParams(lambda_total=1.6, lambda_tier0=1.0, rf_chains=12,
                            bandwidth=1.0)
        with pytest.raises(ValueError):
            analytics.optimal_gain(1.0, net, channel, beam, quad)


class TestQuadratureSpec:
    def test_default_truncation_from_intensity(self, lam0):
        spec = QuadratureSpec.for_tier_intensity(lam0)
        assert spec.truncation_radius_m == pytest.approx(5000.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(truncation_radius_m=-1.0)
