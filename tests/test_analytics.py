"""Closed-form reductions, sampling oracles and structural properties of the
analytical module."""

import dataclasses
import gc
import hashlib
import math
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from fractions import Fraction

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
    beam_gain_pmf,
    coverage_probability,
    hop_count,
    laplace_interference,
    nearest_distance_pdf,
    optimal_gain,
    serving_distance_pdf,
    tabulate_serving_distance,
)
from mmtier import analytics, cli, config, los_probability
from mmtier.analytics import evaluate_point

import adaptive_oracle as oracle
import mc_oracle
from conftest import MU_M, intensity_for, latency_bounds

ALWAYS_LOS = BlockageModel.constant(1.0)
HALF_LOS = BlockageModel.constant(0.5)
LAM = intensity_for(100.0)
LOS_BALL_CHANNEL = ChannelParams(2.0, 4.0, 1.0, BlockageModel.los_ball(100.0))


def rayleigh_nearest_pdf(z, lam):
    """Nearest-neighbor distance law of a homogeneous PPP (no blockage)."""
    return 2.0 * math.pi * z * lam * math.exp(-math.pi * lam * z * z)


def _serving_weight_literal(r: float, state: str, lambda0: float,
                            channel: ChannelParams) -> float | None:
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
    f_state = nearest_distance_pdf(r, state, lambda0, channel.blockage)
    f_other = nearest_distance_pdf(w, other, lambda0, channel.blockage)
    return f_state * f_other / (2.0 * math.pi * w * lambda0 * p_other)


def _check_weight_forms(lambda0: float, channel: ChannelParams, quad: QuadratureSpec) -> None:
    """Assert the simplified and ratio weight forms agree at probe radii."""
    r0 = math.sqrt(1.0 / (math.pi * lambda0))
    for state in (LOS, NLOS):
        for r in (0.25 * r0, r0, 4.0 * r0):
            literal = _serving_weight_literal(r, state, lambda0, channel)
            if literal is None:
                continue
            simplified = serving_distance_pdf(r, state, lambda0, channel)
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

    @pytest.mark.parametrize("r0, mu, tol", [
        pytest.param(100.0, MU_M, 1e-9, id="100.0"),
        pytest.param(200.0, MU_M, 1e-9, id="200.0"),
        # blockage length far above r0, where the trapezoid table missed by 1.4e-4
        pytest.param(66.0, 965.0, 1e-8, id="66.0-mu965.0"),
    ])
    def test_total_probability_with_blockage(self, r0, mu, tol, quad):
        channel = ChannelParams(2.0, 4.0, 1.0, BlockageModel.exponential(mu))
        table = tabulate_serving_distance(intensity_for(r0), channel, quad)
        assert table.total_mass == pytest.approx(1.0, abs=tol)

    @pytest.mark.parametrize("r0", [287.3, 150.0])
    def test_los_ball_split_is_exact(self, r0):
        # Every LOS AP lies within b = 100 m, where it outpowers every NLOS AP
        # (alphas 2 and 4), so P(LOS) = 1 - exp(-(b/r0)^2). Both branches jump
        # at b, which must be a knot of the grid.
        table = tabulate_serving_distance(intensity_for(r0), LOS_BALL_CHANNEL)
        assert table.los_mass == pytest.approx(-math.expm1(-(100.0 / r0) ** 2), abs=1e-12)

    def test_table_matches_pointwise_pdf(self, serving_table, lam0, channel):
        idx = [200, 1000, 2500]
        for i in idx:
            r = float(serving_table.radii[i])
            assert serving_table.pdf_los[i] == pytest.approx(
                serving_distance_pdf(r, LOS, lam0, channel), rel=1e-5, abs=1e-12)

    # sha256 of (radii, pdf_los, pdf_nlos, cdf, [los_mass, nlos_mass]), recorded
    # when the masses and the CDF became 2-node Gauss-Legendre sums.
    @pytest.mark.parametrize("text, digest", [
        ("blockage = exponential\nblockage_mu_m = 141.4\n",
         "92dd7411966f127800ec83ae6865b845844de93e9488614a0166a4feb71429ba"),
        ("blockage = los_ball\nblockage_radius_m = 100\n",
         "36fc1ca76a6d1ac08099a3663841a599b8b913daab642a114374465af6b50622"),
        ("r0_m = 66\nblockage = exponential\nblockage_mu_m = 965\n",
         "1c6e0b05cf8af733853ee49bbdc095aa37df623644b1c9746012469a478c801f"),
    ])
    def test_table_builds_only_the_grids_it_compares(self, text, digest, monkeypatch):
        cfg = config.parse_config(text)
        calls = []
        pdf = analytics.serving_distance_pdf

        def counted(*args):
            calls.append(args[1])
            return pdf(*args)

        monkeypatch.setattr(analytics, "serving_distance_pdf", counted)
        table = tabulate_serving_distance(cfg.lambda0, cfg.channel())
        # one grid at 32 r_scale: its Gauss nodes in one call per state; the
        # knots are evaluated only when pdf_los and pdf_nlos are read
        assert calls == [LOS, NLOS]
        h = hashlib.sha256()
        for a in (table.radii, table.pdf_los, table.pdf_nlos, table.cdf,
                  np.array([table.los_mass, table.nlos_mass])):
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == digest


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
        assert table.total_mass == pytest.approx(1.0, abs=1e-9)


QUARTIC_LOS = ChannelParams(4.0, 4.0, 1.0, ALWAYS_LOS)


def _quartic_laplace(s: float, d: float, pmf, lam: float, upper: float) -> float:
    """Laplace functional of an all-LOS alpha = 4 field between d and upper.

    Per gain atom g, with c = s * beta * g, the exponent's integral of the
    gain-moment complement is int_d^upper c t / (t^4 + c) dt
    = sqrt(c)/2 * (atan(upper^2/sqrt(c)) - atan(d^2/sqrt(c))).
    """
    exponent = 0.0
    for g, p in zip(pmf.gains, pmf.probs):
        rc = math.sqrt(s * QUARTIC_LOS.beta * g)
        exponent += p * 0.5 * rc * (math.atan(upper**2 / rc) - math.atan(d**2 / rc))
    return math.exp(-2.0 * math.pi * lam * exponent)


class TestGainMoment:
    """The gain moment E[exp(-s beta h G t^-alpha)] over fading h and gain G is
    the atom sum of `analytics._atom_sums`; read off `laplace_interference`."""

    def test_unit_at_zero(self, lam0, channel, beam, quad):
        # s = 1e-300 takes the quadrature path, where 1/x overflows to inf
        for r, k, state in [(10.0, 1, LOS), (200.0, 12, NLOS)]:
            assert laplace_interference(0.0, r, state, k, lam0, channel, beam, quad) == 1.0
            assert laplace_interference(1e-300, r, state, k, lam0, channel, beam,
                                        quad) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_beam_closed_form(self, quad):
        flat = BeamParams(theta_a=0.3, g_main=2.0, g_side=2.0, rf_chains=4)
        upper = quad.truncation_radius_m
        for s, d in [(3.0, 7.0), (1.5e6, 50.0)]:
            expected = _quartic_laplace(s, d, beam_gain_pmf(flat, 2), LAM, upper)
            got = laplace_interference(s, d, LOS, 2, LAM, QUARTIC_LOS, flat, quad)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_against_sampling_oracle(self, beam, quad):
        # one interferer uniform on the annulus [d, upper], with its fading
        # and beam gain drawn as the Monte Carlo samplers draw them
        rng = np.random.default_rng(99)
        s, d, k = 1e4, 80.0, 6
        upper = quad.truncation_radius_m
        pmf = beam_gain_pmf(beam, k)
        n = 1_000_000
        t = np.sqrt(rng.uniform(d * d, upper * upper, n))
        h = rng.exponential(size=n)
        g = mc_oracle.draw_gains(pmf, rng, n)
        vals = -np.expm1(-s * QUARTIC_LOS.beta * h * g * t**-4.0)
        half_area = 0.5 * (upper**2 - d**2)
        got = laplace_interference(s, d, LOS, k, LAM, QUARTIC_LOS, beam, quad)
        exponent = -math.log(got) / (2.0 * math.pi * LAM)
        se = half_area * vals.std(ddof=1) / math.sqrt(n)
        assert abs(exponent - half_area * vals.mean()) < 3.0 * se

    def test_strictly_decreasing_in_s(self, lam0, channel, beam, quad):
        vals = [laplace_interference(s, 60.0, LOS, 3, lam0, channel, beam, quad)
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

    @pytest.mark.parametrize("s", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_s_rejected(self, s, lam0, channel, beam, quad):
        with pytest.raises(ValueError, match="finite"):
            laplace_interference(s, 50.0, LOS, 6, lam0, channel, beam, quad)

    def test_nlos_serving_exclusion_larger_than_window(self, lam0, channel, beam, quad):
        # Serving NLOS at 80 m excludes LOS interferers out to 80^2 m, beyond
        # the truncation: only the NLOS field contributes.
        v = laplace_interference(5.0, 80.0, NLOS, 3, lam0, channel, beam, quad)
        assert 0.0 < v <= 1.0


def _coverage_s(tau, r, state, channel, beam):
    """s = r^alpha tau / (g_main^2 beta): coverage given a serving AP at r is
    exp(-s sigma^2) times the Laplace functional at this s."""
    return r ** channel.alpha(state) * tau / (beam.g_main**2 * channel.beta)


class TestConditionalCoverage:
    def test_no_noise_no_interference(self, channel, beam, quad):
        s = _coverage_s(1.0, 100.0, LOS, channel, beam)
        assert laplace_interference(s, 100.0, LOS, 6, 0.0, channel, beam, quad) == 1.0

    def test_approaches_one_at_small_tau(self, lam0, channel, beam, quad):
        s = _coverage_s(1e-12, 100.0, LOS, channel, beam)
        val = laplace_interference(s, 100.0, LOS, 6, lam0, channel, beam, quad)
        assert val > 1.0 - 1e-6

    def test_against_direct_conditioned_simulation(self, lam0, channel, beam, quad):
        # Independent oracle: resample the thinned interferer field from
        # scratch (plain numpy, no mmtier.montecarlo) and threshold the SIR;
        # without noise the conditional coverage is the Laplace functional.
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
            fading = rng.exponential(size=len(d))
            interference = np.sum(fading * mc_oracle.draw_gains(pmf, rng, len(d)) * d**-alpha)
            h0 = rng.exponential()
            covered += h0 * beam.g_main**2 * r**-2.0 > tau * interference
        estimate = covered / trials
        assert channel.noise_power == 0.0
        got = laplace_interference(_coverage_s(tau, r, LOS, channel, beam), r, LOS, k, lam0,
                                   channel, beam, quad)
        assert abs(got - estimate) < 0.02

    def test_coverage_weight_forms_agree(self, lam0, channel, quad):
        for chan in (channel, LOS_BALL_CHANNEL, dataclasses.replace(channel, blockage=HALF_LOS)):
            _check_weight_forms(lam0, chan, quad)


class _FreshCoverageCaches:
    """Each test starts and ends with empty coverage plans and atom rows."""

    @pytest.fixture(autouse=True)
    def _fresh_caches(self):
        _fresh_coverage_caches()
        yield
        _fresh_coverage_caches()


class TestCoverageProbability(_FreshCoverageCaches):
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

    @pytest.mark.parametrize("tau", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_threshold_rejected(self, tau, lam0, channel, beam, quad):
        with pytest.raises(ValueError, match="finite"):
            coverage_probability(tau, 6, lam0, channel, beam, quad)
        assert analytics._plan_atom_rows.cache_info().currsize == 0

    @pytest.mark.parametrize("noise", [0.0, 1e-9], ids=["no_noise", "noise"])
    def test_huge_finite_threshold(self, noise, lam0, blockage, beam, quad):
        # 625 mean points in the window: the true value is about exp(-625).
        chan = ChannelParams(2.0, 4.0, 1.0, blockage, noise_power=noise)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, err = coverage_probability(1e300, 6, lam0, chan, beam, quad,
                                              full_output=True)
        assert 0.0 <= value <= err < 1e-6


def _plan_arrays(plan):
    yield plan.weight
    yield plan.s_unit
    for block in plan.blocks:
        yield from block


class TestCoveragePlan(_FreshCoverageCaches):
    """The tau- and k-free tables that `coverage_probability` plans once per
    configuration (`analytics._coverage_plan`)."""

    def test_cold_and_warm_cache_agree_bitwise(self, lam0, channel, beam):
        specs = (QuadratureSpec(truncation_radius_m=2500.0),
                 QuadratureSpec(rel_tol=1e-7, truncation_radius_m=4000.0))
        cases = [(chan, spec, tau, k) for chan in (channel, LOS_BALL_CHANNEL) for spec in specs
                 for tau, k in ((0.1, 1), (10.0, 6))]
        cold = {}
        for case in cases:
            _fresh_coverage_caches()
            chan, spec, tau, k = case
            cold[case] = coverage_probability(tau, k, lam0, chan, beam, spec, full_output=True)
        _fresh_coverage_caches()
        for _ in range(2):
            for case in cases:
                chan, spec, tau, k = case
                warm = coverage_probability(tau, k, lam0, chan, beam, spec, full_output=True)
                assert warm == cold[case], case
        # one plan per configuration and panel count, whatever tau and k
        assert analytics._coverage_plan.cache_info().currsize == 2 * 2 * len(specs)

    def test_cached_arrays_are_read_only(self, lam0, channel, beam, quad):
        coverage_probability(1.0, 3, lam0, channel, beam, quad)
        plan = analytics._coverage_plan(lam0, channel, beam.g_main, quad, 0)
        arrays = list(_plan_arrays(plan))
        assert arrays and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            arrays[0][0] = 0.0

    def test_memory_of_the_sweep_benchmark_plans(self):
        # the default configuration under the two blockage laws of the sweep benchmark
        configs = [config.parse_config("blockage = exponential\nblockage_mu_m = 141.4\n"),
                   config.parse_config("blockage = los_ball\nblockage_radius_m = 100\n")]
        tracemalloc.start()
        try:
            for cfg in configs:
                for halvings in range(analytics._CACHED_HALVINGS + 1):
                    analytics._coverage_plan(cfg.network().lambda_tier0, cfg.channel(),
                                             cfg.beam().g_main, cfg.quad(), halvings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the ragged plans, 1/x and the weight per entry, both float64, hold
        # 1.6 MiB and peak at 1.74 MiB
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("blockage", [BLOCKAGE_KINDS[kind] for kind in sorted(BLOCKAGE_KINDS)]
                             + [ALWAYS_LOS, BlockageModel.constant(0.0)],
                             ids=[*sorted(BLOCKAGE_KINDS), "always_los", "never_los"])
    def test_no_inner_node_of_weight_zero(self, blockage, lam0, beam, quad):
        # beyond a LOS ball the LOS field weighs 0, inside it the NLOS field;
        # a constant law of 0 or 1 makes a whole field weightless. No entry of
        # the table, in a full panel or a partial one, may weigh 0.
        chan = ChannelParams(2.0, 4.0, 1.0, blockage)
        for halvings in range(analytics._CACHED_HALVINGS + 1):
            blocks = analytics._CoveragePlan(lam0, chan, beam.g_main, quad, halvings).blocks
            weights = [weight for _, _, _, weight in blocks]
            assert weights and all((w > 0.0).all() for w in weights), halvings

    @pytest.mark.parametrize("kind", sorted(BLOCKAGE_KINDS))
    def test_error_covers_the_dropped_leading_rows(self, kind, lam0, beam, quad, monkeypatch):
        chan, tau, k = ORACLE_CASES[kind]
        args = (tau, k, lam0, chan, beam, quad)
        r_min = analytics._outer_r_min(lam0, quad)

        def outside(halvings):
            return analytics._CoveragePlan(lam0, chan, beam.g_main, quad, halvings).outside

        def at_one_halving(evaluate, quad, what):
            return evaluate(1), 0.0

        halvings = range(analytics._CACHED_HALVINGS + 1)
        with_drop = [outside(h) for h in halvings]
        value, err = coverage_probability(*args, full_output=True)
        with monkeypatch.context() as m:
            m.setattr(analytics, "_refine", at_one_halving)
            v_drop, e_drop = coverage_probability(*args, full_output=True)
        with monkeypatch.context() as m:  # the same outer nodes, none dropped
            m.setattr(analytics, "_outer_r_min", lambda *_: r_min)
            m.setattr(analytics, "_R_MIN_FACTOR", 0.0)
            without_drop = [outside(h) for h in halvings]
            _fresh_coverage_caches()
            keep = coverage_probability(*args)
            m.setattr(analytics, "_refine", at_one_halving)
            v_keep, e_keep = coverage_probability(*args, full_output=True)
        # each serving state drops at most _R_MIN_FACTOR^2 of leading mass
        for mass, kept in zip(with_drop, without_drop):
            assert 0.0 <= mass - kept <= 2.0 * analytics._R_MIN_FACTOR**2, (mass, kept)
        assert abs(keep - value) <= err, (keep, value, err)
        # At one panel count, with no halving difference, the error the rule
        # adds covers the coverage it removes, up to the rounding of two sums
        # of a few hundred terms near 1.
        gap, added = v_keep - v_drop, e_drop - e_keep
        assert 1e-14 < gap <= added + 1e-14, (gap, added)

    def test_uncached_halvings_match_the_oracle(self, lam0, beam, quad, monkeypatch):
        chan, tau, k = ORACLE_CASES["exponential"]
        halvings = []
        plan = analytics._CoveragePlan

        def record(*args):
            halvings.append(args[-1])
            return plan(*args)

        monkeypatch.setattr(analytics, "_CoveragePlan", record)
        tight = dataclasses.replace(quad, rel_tol=1e-10, abs_tol=1e-14)
        got, err = coverage_probability(tau, k, lam0, chan, beam, tight, full_output=True)
        assert max(halvings) > analytics._CACHED_HALVINGS
        want, want_err = oracle.coverage_probability(tau, k, lam0, chan, beam, quad,
                                                     full_output=True)
        assert abs(got - want) <= err + want_err, (got, err, want, want_err)

    def test_memory_at_uncached_halvings(self, monkeypatch):
        # Tolerances no panel count meets: one call runs all four halvings,
        # three of them uncached, and must build their blocks one at a time.
        cfg = config.parse_config("blockage = exponential\nblockage_mu_m = 141.4\n")
        quad = dataclasses.replace(cfg.quad(), rel_tol=1e-300, abs_tol=1e-300)
        sizes = []
        build = analytics._exponent_blocks

        def sized(blocks):
            for block in blocks:
                sizes.append(block[2].size)
                yield block

        def record(*args):
            return sized(build(*args))

        monkeypatch.setattr(analytics, "_exponent_blocks", record)
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureError, match=f"after {analytics._MAX_HALVINGS} "):
                coverage_probability(10.0, 6, cfg.network().lambda_tier0, cfg.channel(),
                                     cfg.beam(), quad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # ~5M entries of 16 bytes in all, 3.7M of them at the finest panels
        assert peak < 16 * 2**20, peak
        assert sum(sizes) > 16 * analytics._MAX_TENSOR
        assert max(sizes) <= analytics._MAX_TENSOR

    def test_values_independent_of_the_block_size(self, lam0, beam, quad, monkeypatch):
        # With a bound of 64 entries nearly every row is a block on its own.
        def values():
            _fresh_coverage_caches()
            out = []
            for kind in sorted(BLOCKAGE_KINDS):
                chan, tau, k = ORACLE_CASES[kind]
                out += [coverage_probability(tau, k, lam0, chan, beam, quad, full_output=True),
                        laplace_interference(tau, 60.0, LOS, k, lam0, chan, beam, quad,
                                             full_output=True),
                        laplace_interference(tau, 20.0, NLOS, k, lam0, chan, beam, quad,
                                             full_output=True)]
            return out

        default = values()
        monkeypatch.setattr(analytics, "_MAX_TENSOR", 64)
        small = values()
        chan = ORACLE_CASES["exponential"][0]
        blocks = analytics._coverage_plan(lam0, chan, beam.g_main, quad, 0).blocks
        assert small == default
        assert all(len(rows) == 1 or inv_x.size <= 64 for rows, _, inv_x, _ in blocks)
        assert max(inv_x.size for _, _, inv_x, _ in blocks) > 64


def _fresh_coverage_caches() -> None:
    """Empty the coverage plans and the atom rows summed from them."""
    analytics._coverage_plan.cache_clear()
    analytics._plan_atom_rows.cache_clear()


def _row_lookups() -> tuple[int, int]:
    """`analytics._plan_atom_rows` lookups and misses since its last clear; a
    miss runs one `_atom_sums` pass."""
    info = analytics._plan_atom_rows.cache_info()
    return info.hits + info.misses, info.misses


def _rows_held() -> int:
    return analytics._plan_atom_rows.cache_info().currsize


def _default_sweep_config(tau_db_list=None):
    """The default configuration over all 12 gains, at the default thresholds
    unless ``tau_db_list`` is given."""
    cfg = dataclasses.replace(config.parse_config("blockage = exponential\n"),
                              k_list=tuple(range(1, 13)))
    return dataclasses.replace(cfg, tau_db_list=tau_db_list) if tau_db_list else cfg


class TestAtomRows(_FreshCoverageCaches):
    """The per-row atom sums that `coverage_probability` keeps per (weak
    reference to the plan, product c = g tau of a gain atom and the threshold)
    in `analytics._plan_atom_rows`: k is not in the key."""

    TAU = 10.0

    @pytest.fixture(scope="class")
    def cold(self, lam0, channel, beam, quad):
        """(value, error) of every k at TAU, each from empty caches."""
        out = {}
        for k in range(1, 13):
            _fresh_coverage_caches()
            out[k] = coverage_probability(self.TAU, k, lam0, channel, beam, quad,
                                          full_output=True)
        return out

    @pytest.mark.parametrize("order", ["twelve_first", "ascending", "descending", "shuffled"])
    def test_every_k_order_matches_cold(self, order, cold, lam0, channel, beam, quad):
        ks = {"twelve_first": [12, *range(1, 12)], "ascending": list(range(1, 13)),
              "descending": list(range(12, 0, -1)),
              "shuffled": [int(k) for k in np.random.default_rng(15).permutation(range(1, 13))]}
        for k in ks[order]:
            got = coverage_probability(self.TAU, k, lam0, channel, beam, quad, full_output=True)
            assert got == cold[k], (order, k)
        # the three atoms at both cached panel counts; k = 12 has one live atom
        assert _rows_held() == 3 * (analytics._CACHED_HALVINGS + 1)

    def test_beams_sharing_the_main_lobe_keep_their_side_lobes(self, lam0, channel, beam, quad):
        # one plan (it depends on g_main alone), atoms g_main^2 shared, the others not
        beams = [beam, dataclasses.replace(beam, g_side=2.0)]
        cases = [(b, k) for b in beams for k in (1, 6)]
        cold = {}
        for b, k in cases:
            _fresh_coverage_caches()
            cold[b, k] = coverage_probability(3.0, k, lam0, channel, b, quad, full_output=True)
        _fresh_coverage_caches()
        for _ in range(2):
            for b, k in cases[::2] + cases[1::2]:
                assert coverage_probability(3.0, k, lam0, channel, b, quad,
                                            full_output=True) == cold[b, k], (b, k)
        assert _rows_held() == 5 * (analytics._CACHED_HALVINGS + 1)

    def test_a_flat_beam_has_one_entry_per_panel_count(self, lam0, channel, quad):
        # the beam of `test_degenerate_beam_closed_form`: three equal atoms
        flat = BeamParams(theta_a=0.3, g_main=2.0, g_side=2.0, rf_chains=4)
        cold = coverage_probability(2.0, 2, lam0, channel, flat, quad, full_output=True)
        assert coverage_probability(2.0, 2, lam0, channel, flat, quad, full_output=True) == cold
        assert _rows_held() == analytics._CACHED_HALVINGS + 1

    @pytest.mark.parametrize("patch", ["rebuilt_plan", "block_size", "dropped_rows"])
    def test_a_rebuilt_plan_misses(self, patch, lam0, beam, quad, monkeypatch):
        # A value from plans built under a patched builder is reproduced from
        # empty caches under the same patch.
        chan, tau, k = ORACLE_CASES["exponential"]
        args = (tau, k, lam0, chan, beam, quad)
        r_min = analytics._outer_r_min(lam0, quad)
        coverage_probability(*args)
        with monkeypatch.context() as m:
            if patch == "block_size":
                m.setattr(analytics, "_MAX_TENSOR", 64)
            elif patch == "dropped_rows":  # two more outer rows per plan
                m.setattr(analytics, "_outer_r_min", lambda *_: r_min)
                m.setattr(analytics, "_R_MIN_FACTOR", 0.0)
            _fresh_coverage_caches()
            got = coverage_probability(*args, full_output=True)
            _fresh_coverage_caches()
            assert got == coverage_probability(*args, full_output=True)

    def test_a_rebuilt_plan_sums_its_rows_again(self, lam0, channel, beam, quad, monkeypatch):
        # The rows are keyed by a weak reference to the plan: an evicted plan is
        # freed while its rows wait in the row cache, and no rebuilt plan reads them.
        value = coverage_probability(2.0, 6, lam0, channel, beam, quad, full_output=True)
        evicted = weakref.ref(analytics._coverage_plan(lam0, channel, beam.g_main, quad, 0))
        held = _rows_held()
        analytics._coverage_plan.cache_clear()
        gc.collect()
        assert evicted() is None and _rows_held() == held == 3 * (analytics._CACHED_HALVINGS + 1)
        passes = []
        sums = analytics._atom_sums
        monkeypatch.setattr(analytics, "_atom_sums", lambda *a: passes.append(1) or sums(*a))
        assert coverage_probability(2.0, 6, lam0, channel, beam, quad, full_output=True) == value
        assert len(passes) == held and _rows_held() == 2 * held

    def test_a_warm_call_hashes_the_channel_once_per_halving(self, lam0, channel, beam, quad,
                                                             monkeypatch):
        coverage_probability(10.0, 6, lam0, channel, beam, quad)
        hashes = []
        channel_hash = ChannelParams.__hash__
        monkeypatch.setattr(ChannelParams, "__hash__",
                            lambda self: hashes.append(1) or channel_hash(self))
        coverage_probability(10.0, 6, lam0, channel, beam, quad)
        assert len(hashes) == analytics._CACHED_HALVINGS + 1 == 2

    def test_a_sweep_sums_each_atom_once_per_threshold(self):
        # 9 thresholds at 5 dB steps x atoms at 40, 20 and 0 dB make 18 products
        # c = g tau, at 2 panel counts
        cli.run_sweep(_default_sweep_config())
        lookups, misses = _row_lookups()
        assert misses == _rows_held() == 18 * 2 == 36
        # 11 gains with 3 live atoms and k = 12 with one, at both panel counts
        assert lookups == 9 * (11 * 3 + 1) * 2
        # 4 new thresholds share no product with the 9 nor with each other; their
        # 24 rows evict the least recently used 6, and the bound holds
        cli.run_sweep(_default_sweep_config((-7.0, 2.0, 12.0, 22.0)))
        assert _row_lookups()[1] == 36 + 4 * 3 * 2
        assert _rows_held() == analytics._plan_atom_rows.cache_info().maxsize == 54

    def test_thresholds_share_rows_by_the_product(self, lam0, channel, beam, quad):
        # atoms 10^4, 100 and 1: tau = 0.1 sums c = 1000, 10 and 0.1, and tau = 10
        # then needs only c = 10^5 (1000 and 10 come back as 100 x 10 and 1 x 10)
        cold = coverage_probability(10.0, 1, lam0, channel, beam, quad, full_output=True)
        _fresh_coverage_caches()
        coverage_probability(0.1, 1, lam0, channel, beam, quad)
        before = _row_lookups()
        assert coverage_probability(10.0, 1, lam0, channel, beam, quad, full_output=True) == cold
        lookups, misses = (after - b for after, b in zip(_row_lookups(), before))
        assert lookups == 3 * (analytics._CACHED_HALVINGS + 1)
        assert misses == analytics._CACHED_HALVINGS + 1
        assert _rows_held() == 4 * (analytics._CACHED_HALVINGS + 1)

    def test_memory_of_the_filled_cache(self):
        # 9 thresholds within 16 dB: no two of their 27 products are equal
        cfg = _default_sweep_config((-9.0, -7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0))
        cli.run_sweep(cfg)  # the plans
        analytics._plan_atom_rows.cache_clear()
        tracemalloc.start()
        try:
            cli.run_sweep(cfg)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _rows_held() == analytics._plan_atom_rows.cache_info().maxsize
        assert held < 2**18, held  # 0.25 MiB


def _exponent(blocks, n, pmf):
    """Per row, the exponent of `analytics._exponent_blocks` under the gain law ``pmf``."""
    atoms = [(p, g) for g, p in zip(pmf.gains, pmf.probs) if p > 0.0]
    return analytics._combine_atoms(atoms, analytics._atom_sums(blocks, n,
                                                                [g for _, g in atoms]))


def _one_field_exponents(s, fields, chan, upper, halvings, pmf):
    """Each field's exponent per row, from the one-field case of the block builder."""
    return [_exponent(analytics._exponent_blocks(s, [field], chan, upper, halvings), len(s), pmf)
            for field in fields]


def _assert_rows_have_weight(table) -> None:
    """A one-field table holds only rows the field has weight on above their
    lower limit, each with at least one entry, and no entry of weight 0."""
    for rows, starts, inv_x, weight in table:
        assert len(rows) == len(starts) and starts[0] == 0 and inv_x.size == weight.size
        assert (np.diff(starts) > 0).all() and starts[-1] < inv_x.size
        assert (weight > 0.0).all()


def _entry_radii(s, field, chan, table):
    """Per block: the lower limit of each entry's row, and t recovered from
    the entry's 1/x = t^alpha / (s beta)."""
    lower, state = field
    for rows, starts, inv_x, _ in table:
        row = np.repeat(rows, np.diff(starts, append=inv_x.size))
        yield lower[row], (inv_x * s[row] * chan.beta) ** (1.0 / chan.alpha(state))


def _record_builder_calls(monkeypatch) -> list:
    """Record the (s, fields, other arguments) of every `_exponent_blocks` call."""
    calls = []
    blocks = analytics._exponent_blocks

    def record(s, fields, *args):
        calls.append((s, fields, args))
        return blocks(s, fields, *args)

    monkeypatch.setattr(analytics, "_exponent_blocks", record)
    return calls


class TestMergedFieldBlocks:
    """`analytics._exponent_blocks` puts every interferer field of a row into one
    block; each row's exponent must equal the sum of its fields built alone."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(BLOCKAGE_KINDS)), state=st.sampled_from([LOS, NLOS]),
           radii=st.lists(st.floats(1e-3, 2500.0), min_size=1, max_size=300),
           tau=st.floats(1e-2, 1e3), k=st.integers(1, 12), halvings=st.integers(0, 1))
    # NLOS-served rows whose LOS exclusion (r^2) passes the truncation radius at
    # 50 m, so the LOS field is live on the first rows only; rows out of order;
    # one row. The channels are the oracle's: the constant law's far field is finite.
    @example(kind="exponential", state=NLOS, radii=list(np.geomspace(1.0, 2000.0, 300)),
             tau=1.0, k=6, halvings=1)
    @example(kind="los_ball", state=NLOS, radii=[60.0, 20.0, 55.0, 3.0], tau=10.0, k=3,
             halvings=0)
    @example(kind="constant", state=NLOS, radii=[70.0], tau=1.0, k=1, halvings=0)
    # A LOS-served row at the ball radius b: its LOS field has no weighted
    # node, and its NLOS field starts beyond the truncation radius.
    @example(kind="los_ball", state=LOS, radii=[100.0], tau=1.0, k=1, halvings=0)
    # NLOS-served rows whose LOS exclusion (r^2) passes b but not the
    # truncation radius: the LOS field is dead, and the NLOS field weighs 0 up to b.
    @example(kind="los_ball", state=NLOS, radii=[12.0, 30.0, 45.0], tau=1.0, k=6, halvings=1)
    def test_rows_equal_the_sum_of_their_fields(self, kind, state, radii, tau, k, halvings,
                                                beam, quad):
        chan = ORACLE_CASES[kind][0]
        other = NLOS if state == LOS else LOS
        r = np.array(radii)
        s = r ** chan.alpha(state) * tau / (beam.g_main**2 * chan.beta)
        fields = [(r, state), (r ** (chan.alpha(state) / chan.alpha(other)), other)]
        pmf = beam_gain_pmf(beam, k)
        upper = quad.truncation_radius_m
        merged = _exponent(analytics._exponent_blocks(s, fields, chan, upper, halvings), len(r),
                           pmf)
        alone = sum(_one_field_exponents(s, fields, chan, upper, halvings, pmf))
        np.testing.assert_allclose(merged, alone, rtol=1e-14, atol=0.0)
        for field in fields:
            _assert_rows_have_weight(analytics._exponent_blocks(s, [field], chan, upper,
                                                                halvings))

    @pytest.mark.parametrize("kind", sorted(BLOCKAGE_KINDS))
    @pytest.mark.parametrize("state, r", [(LOS, 90.0), (NLOS, 20.0), (NLOS, 300.0)])
    def test_laplace_interference_is_one_merged_row(self, kind, state, r, lam0, beam, quad,
                                                    monkeypatch):
        chan = ORACLE_CASES[kind][0]
        calls = _record_builder_calls(monkeypatch)
        value = laplace_interference(30.0, r, state, 3, lam0, chan, beam, quad)
        s, fields, (_, upper, halvings) = calls[-1]
        assert len(s) == 1 and [field_state for _, field_state in fields] == [LOS, NLOS]
        alone = sum(_one_field_exponents(s, fields, chan, upper, halvings,
                                         beam_gain_pmf(beam, 3)))
        assert value == pytest.approx(math.exp(-2.0 * math.pi * lam0 * alone[0]), rel=1e-14)

    @pytest.mark.parametrize("kind", sorted(BLOCKAGE_KINDS))
    def test_no_more_pairs_than_one_field_blocks(self, kind, lam0, beam, monkeypatch):
        # At 50 r0, the sweep benchmark's truncation, an NLOS-served row's LOS
        # field dies inside the outer integral (at r = 70.7 m when alpha = 2, 4).
        chan = ORACLE_CASES[kind][0]
        quad = QuadratureSpec.for_tier_intensity(lam0)
        blocks = analytics._exponent_blocks
        calls = _record_builder_calls(monkeypatch)
        for halvings in range(analytics._CACHED_HALVINGS + 1):
            merged = list(analytics._CoveragePlan(lam0, chan, beam.g_main, quad, halvings).blocks)
            alone = [b for s, fields, args in calls for field in fields
                     for b in blocks(s, [field], *args)]
            calls.clear()
            assert all(len(b[0]) == 1 or b[2].size <= analytics._MAX_TENSOR for b in merged)
            assert sum(b[2].size for b in merged) == sum(b[2].size for b in alone), halvings
            assert len(merged) < len(alone)

    @pytest.mark.parametrize("kind", sorted(BLOCKAGE_KINDS))
    def test_no_entry_below_its_rows_lower_limit(self, kind, lam0, beam, quad, monkeypatch):
        chan = ORACLE_CASES[kind][0]
        blocks = analytics._exponent_blocks
        calls = _record_builder_calls(monkeypatch)
        for halvings in range(analytics._CACHED_HALVINGS + 1):
            analytics._CoveragePlan(lam0, chan, beam.g_main, quad, halvings)
        for r, state in [(90.0, LOS), (20.0, NLOS)]:
            laplace_interference(30.0, r, state, 3, lam0, chan, beam, quad)
        checked = 0
        for s, fields, args in calls:
            for field in fields:
                for lower, t in _entry_radii(s, field, chan, blocks(s, [field], *args)):
                    assert (t >= lower * (1.0 - 1e-12)).all()
                    checked += t.size
        assert checked

    @pytest.mark.parametrize("halvings", [0, 1])
    @pytest.mark.parametrize("kind", sorted(BLOCKAGE_KINDS))
    def test_table_rows_equal_each_state_built_alone(self, kind, halvings, lam0, beam, quad,
                                                     monkeypatch):
        # The coverage table's four fields are each state's two, dead (lower
        # limit inf) on the other state's rows: every row sum must be bitwise
        # that of its state's two-field table.
        chan = ORACLE_CASES[kind][0]
        calls = _record_builder_calls(monkeypatch)
        plan = analytics._CoveragePlan(lam0, chan, beam.g_main, quad, halvings)
        s_unit, blocks = plan.s_unit, plan.blocks
        (s, fields, args), = calls
        cs = [1e4 * 0.1, 100.0 * 3.0, 1.0, 1e-3]
        table = analytics._atom_sums(blocks, len(s), cs)
        los_rows = np.isfinite(fields[0][0])
        assert los_rows[0] and not los_rows[-1] and (np.diff(los_rows.astype(int)) <= 0).all()
        for (state, other), mine in [((LOS, NLOS), los_rows), ((NLOS, LOS), ~los_rows)]:
            same, opposite = fields[:2] if state == LOS else fields[2:]
            assert (same[1], opposite[1]) == (state, other)
            r = same[0][mine]
            np.testing.assert_array_equal(opposite[0][mine],
                                          r ** (chan.alpha(state) / chan.alpha(other)))
            assert np.isinf(same[0][~mine]).all() and np.isinf(opposite[0][~mine]).all()
            np.testing.assert_array_equal(
                s_unit[mine], r ** chan.alpha(state) / (beam.g_main**2 * chan.beta))
            alone = analytics._exponent_blocks(
                s[mine], [(r, state), (opposite[0][mine], other)], *args)
            assert (table[:, mine] == analytics._atom_sums(alone, len(r), cs)).all(), state


class TestTailBound:
    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0, 2.0])
    def test_exponential_blockage_bound_is_tight(self, alpha):
        # the tangent-line bound against adaptive quadrature of the tail, in
        # r = start + mu t; at alpha = 1 it is the tail itself
        for start in (10.0, 141.4, 2500.0):
            scaled, _ = integrate.quad(lambda t: math.exp(-t) * (start + MU_M * t) ** (1.0 - alpha),
                                       0.0, math.inf, epsabs=0.0, epsrel=1e-12)
            want = MU_M * math.exp(-start / MU_M) * scaled
            got = analytics._tail_radial_bound(BlockageModel.exponential(MU_M), LOS, start, alpha)
            assert want * (1.0 - 1e-10) <= got <= want * (1.0 + MU_M / start), start

    @pytest.mark.parametrize("blockage", [
        BlockageModel.exponential(MU_M), BlockageModel.exponential(965.0),
        BlockageModel.los_ball(100.0), BlockageModel.los_ball(1234.5),
        BlockageModel.constant(0.0), BlockageModel.constant(0.5), BlockageModel.constant(1.0),
    ], ids=repr)
    @pytest.mark.parametrize("state", [LOS, NLOS])
    def test_zero_exponent_is_the_mass_beyond(self, blockage, state):
        # At alpha = 0 the tangent line of r is r itself, so the bound is the
        # closed form of int_z^inf P_state(r) r dr that the serving-distance
        # grid and the coverage error use for the mass beyond their range.
        q = blockage.param
        length = MU_M if blockage.kind == "constant" else q
        for z in [*np.geomspace(0.01, 40.0 * length, 97), length, 5000.0]:
            z = float(z)
            got = analytics._tail_radial_bound(blockage, state, z, 0.0)
            if state == NLOS:
                assert got == (0.0 if blockage == BlockageModel.constant(1.0) else math.inf)
            elif blockage.kind == "exponential":
                # the same closed form, its five roundings in another order
                want = q * q * math.exp(-z / q) * (1.0 + z / q)
                assert abs(got - want) <= 4 * math.ulp(want), z
            elif blockage.kind == "los_ball":
                # (q^2 - z^2) / 2 cancels near the ball's edge: exact rational
                # reference, within the rounding of q^2 and z^2
                want = float((Fraction(q) ** 2 - Fraction(min(z, q)) ** 2) / 2)
                assert abs(got - want) <= math.ulp(q * q), z
                assert (got == 0.0) == (z >= q), z
            else:
                assert got == (math.inf if q > 0.0 else 0.0)

    def test_coverage_below_unit_exponent_loads_no_scipy(self):
        code = ("import math, sys; from mmtier import *; "
                "ch = ChannelParams(0.8, 4.0, 1.0, BlockageModel.exponential(141.4)); "
                "beam = BeamParams(math.pi / 6.0, 100.0, 1.0, 12); "
                "coverage_probability(1.0, 6, 1e-4 / math.pi, ch, beam, "
                "QuadratureSpec(truncation_radius_m=2500.0)); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "[]"


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


class TestPinnedValues:
    """(value, error) of the kernel as recorded before entries stored their
    weights beside their 1/x: a change of table layout or block order must
    not move them. The error is a difference of close numbers plus bounds,
    so it is pinned absolutely."""

    @pytest.mark.parametrize("kind, tau, k, value, err", [
        ("exponential", 0.1, 1, 0.9994594352189702, 1.8328957654378607e-07),
        ("exponential", 10.0, 6, 0.6622786785221343, 3.3938274719867825e-05),
        ("los_ball", 1.0, 12, 0.632194930198132, 0.00041633215995185384),
        ("los_ball", 100.0, 3, 0.6239821542173337, 0.0012464326975315744),
        ("constant", 1.0, 6, 0.6047220120708297, 0.08890433581047107),
        ("constant", 31.6, 9, 0.0346200109028211, 0.008849532965710847),
    ])
    def test_coverage(self, kind, tau, k, value, err, lam0, beam, quad):
        got, got_err = coverage_probability(tau, k, lam0, ORACLE_CASES[kind][0], beam, quad,
                                            full_output=True)
        assert got == pytest.approx(value, rel=1e-13, abs=0.0)
        assert got_err == pytest.approx(err, rel=0.0, abs=1e-14)

    @pytest.mark.parametrize("kind, s, r, state, k, value, err", [
        ("exponential", 30.0, 60.0, LOS, 3, 0.7406926893138013, 2.3960168386787823e-07),
        ("los_ball", 0.5, 150.0, NLOS, 6, 0.9999943532140144, 2.0401884794272323e-08),
        ("constant", 2.0, 20.0, NLOS, 12, 0.7562317031618513, 0.06049877824709466),
    ])
    def test_laplace_interference(self, kind, s, r, state, k, value, err, lam0, beam, quad):
        got, got_err = laplace_interference(s, r, state, k, lam0, ORACLE_CASES[kind][0], beam,
                                            quad, full_output=True)
        assert got == pytest.approx(value, rel=1e-13, abs=0.0)
        assert got_err == pytest.approx(err, rel=0.0, abs=1e-14)


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

    @pytest.mark.parametrize("total", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_total_density_rejected(self, total):
        # inf made `feasible_gains` raise OverflowError, and nan made it return []
        with pytest.raises(ValueError, match="finite"):
            NetworkParams(lambda_total=total, lambda_tier0=1.0, rf_chains=12, bandwidth=1.0)

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
        assert evaluate_point(1.0, 1, net, channel, beam, quad).throughput == 1.0

    def test_compositional_identity(self, lam0, channel, beam, quad):
        net = NetworkParams(lambda_total=13.0 * lam0, lambda_tier0=lam0,
                            rf_chains=12, bandwidth=5e8)
        tau, k = 2.0, 6
        cov = coverage_probability(tau, k, lam0, channel, beam, quad)
        expected = analytics.throughput_identity(k, tau, net, cov)
        assert evaluate_point(tau, k, net, channel, beam, quad).throughput == expected
        assert expected == pytest.approx(5e8 * k * lam0 * cov * math.log2(1.0 + tau),
                                         rel=1e-12)

    def test_independent_of_total_density(self, lam0, channel, beam, quad):
        kwargs = dict(lambda_tier0=lam0, rf_chains=12, bandwidth=1e8)
        t7 = evaluate_point(2.0, 3, NetworkParams(lambda_total=7 * lam0, **kwargs),
                            channel, beam, quad).throughput
        t13 = evaluate_point(2.0, 3, NetworkParams(lambda_total=13 * lam0, **kwargs),
                             channel, beam, quad).throughput
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
