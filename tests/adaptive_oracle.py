"""The adaptive-quadrature evaluation of the distance laws, the interference
Laplace functional and coverage, kept as a test oracle for `mmtier.analytics`.

This is the nested scipy ``quad`` implementation that `mmtier.analytics`
replaced with fixed-node panel quadrature. Its code is unchanged except that
`coverage_probability` no longer runs the weight-form self-check, which is
now `test_analytics.TestConditionalCoverage.test_coverage_weight_forms_agree`.
Its error estimates come from QUADPACK and from the same truncation tail
bound, so the two implementations must agree within the sum of their
reported errors. One coverage point takes 0.5-3 s.
"""

import math

import numpy as np

from mmtier.analytics import DEFAULT_QUAD, QuadratureError, QuadratureSpec, _quad, _tail_radial_bound
from mmtier.channel import (
    LOS,
    NLOS,
    BeamParams,
    BlockageModel,
    ChannelParams,
    beam_gain_pmf,
    los_probability,
    _check_state,
)

_TWO_PI = 2.0 * math.pi


def _blockage_breakpoints(blockage: BlockageModel) -> list[float]:
    if blockage.kind == "exponential":
        mu = blockage.param
        return [mu, 5.0 * mu, 20.0 * mu, 60.0 * mu]
    if blockage.kind == "los_ball":
        return [blockage.param]
    return []


def integrated_radial_probability(blockage: BlockageModel, state: str, z: float,
                                  quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Integral of P_state(r) * r over [0, z] by adaptive quadrature.

    This is the mean number of state-``state`` points of a unit-intensity
    PPP inside a disc of radius z, divided by 2*pi.
    """
    _check_state(state)
    if z < 0.0:
        raise ValueError("upper limit must be non-negative")
    if z == 0.0:
        return 0.0

    if state == LOS:
        def integrand(r):
            return los_probability(r, blockage) * r
    else:
        def integrand(r):
            return (1.0 - los_probability(r, blockage)) * r

    value, _ = _quad(integrand, 0.0, z, quad, points=_blockage_breakpoints(blockage))
    return value


def _cumulative_radial_probability(blockage: BlockageModel, state: str, grid: np.ndarray,
                                   refine: int = 16) -> np.ndarray:
    """Integral of P_state(r) * r from 0 to each grid value (grid sorted ascending).

    Vectorized companion of `integrated_radial_probability` for table building:
    each grid interval is subdivided ``refine`` times and accumulated with the
    trapezoid rule, which is plenty for the smooth blockage laws here. Scalar
    call sites use the adaptive path instead.
    """
    nodes = np.concatenate([[0.0], np.asarray(grid, dtype=float)])
    # refine x (len(nodes)-1) matrix of subinterval edges, flattened in order
    frac = np.linspace(0.0, 1.0, refine + 1)
    fine = nodes[:-1, None] + np.diff(nodes)[:, None] * frac[None, :]
    fine = np.concatenate([[0.0], fine[:, 1:].ravel()])
    p = los_probability(fine, blockage)
    if state == NLOS:
        p = 1.0 - p
    vals = p * fine
    seg = 0.5 * (vals[1:] + vals[:-1]) * np.diff(fine)
    cum_fine = np.concatenate([[0.0], np.cumsum(seg)])
    return cum_fine[refine::refine]


def nearest_distance_pdf(z, state: str, lam: float, blockage: BlockageModel,
                         quad: QuadratureSpec = DEFAULT_QUAD):
    """Density of the distance from the origin to the nearest state-``state`` AP.

    The APs of the given state form an inhomogeneous PPP of radial intensity
    lam * P_state(r); the nearest-point law is
    2*pi*z*lam*P(z) * exp(-2*pi*lam * int_0^z P(r) r dr). Total mass below 1
    when the state can be globally absent (the void probability).
    """
    _check_state(state)
    if not lam > 0.0:
        raise ValueError("intensity must be positive")
    if np.ndim(z) == 0:
        zf = float(z)
        if zf < 0.0:
            raise ValueError("distance must be non-negative")
        p_state = los_probability(zf, blockage)
        if state == NLOS:
            p_state = 1.0 - p_state
        cum = integrated_radial_probability(blockage, state, zf, quad)
        return _TWO_PI * zf * lam * p_state * math.exp(-_TWO_PI * lam * cum)

    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z_arr < 0.0):
        raise ValueError("distance must be non-negative")
    if len(z_arr) <= 64:
        # The dense-trapezoid cumulative needs a fine grid; small batches go
        # through the adaptive path at full accuracy.
        return np.array([nearest_distance_pdf(float(zi), state, lam, blockage, quad)
                         for zi in z_arr])
    order = np.argsort(z_arr)
    sorted_z = z_arr[order]
    cum = _cumulative_radial_probability(blockage, state, sorted_z)
    p_state = los_probability(sorted_z, blockage)
    if state == NLOS:
        p_state = 1.0 - p_state
    vals = _TWO_PI * sorted_z * lam * np.atleast_1d(p_state) * np.exp(-_TWO_PI * lam * cum)
    out = np.empty_like(vals)
    out[order] = vals
    return out


def _exclusion_exponent(r: float, state: str, lam: float, channel: ChannelParams,
                        quad: QuadratureSpec) -> float:
    """log of the probability that no opposite-state AP beats a state-``state`` AP at r.

    An NLOS AP at t has more average power than a LOS AP at r iff
    t < r^(alpha_los/alpha_nlos), and symmetrically for the other serving state;
    the void probability of the opposite-state PPP on that disc supplies the factor.
    """
    if state == LOS:
        w = r ** (channel.alpha_los / channel.alpha_nlos)
        other = NLOS
    else:
        w = r ** (channel.alpha_nlos / channel.alpha_los)
        other = LOS
    return -_TWO_PI * lam * integrated_radial_probability(channel.blockage, other, w, quad)


def serving_distance_pdf(r, state: str, lam: float, channel: ChannelParams,
                         quad: QuadratureSpec = DEFAULT_QUAD):
    """Density (per state) of the distance to the max-average-power AP.

    The serving AP is in state ``state`` at distance r when the nearest AP of
    that state sits at r and no AP of the other state offers more average
    power; the law is nearest_distance_pdf * the opposite-state void factor.
    Summing the two states gives a proper density with unit total mass.
    """
    _check_state(state)
    if not lam > 0.0:
        raise ValueError("intensity must be positive")
    r_in = np.asarray(r, dtype=float)
    if np.ndim(r) == 0:
        if r_in <= 0.0:
            raise ValueError("serving distance must be positive")
        base = nearest_distance_pdf(float(r_in), state, lam, channel.blockage, quad)
        return base * math.exp(_exclusion_exponent(float(r_in), state, lam, channel, quad))

    r_arr = np.atleast_1d(r_in)
    if np.any(r_arr <= 0.0):
        raise ValueError("serving distance must be positive")
    if len(r_arr) <= 64:
        return np.array([serving_distance_pdf(float(ri), state, lam, channel, quad)
                         for ri in r_arr])
    order = np.argsort(r_arr)
    sorted_r = r_arr[order]
    base = nearest_distance_pdf(sorted_r, state, lam, channel.blockage, quad)
    if state == LOS:
        w = sorted_r ** (channel.alpha_los / channel.alpha_nlos)
        other = NLOS
    else:
        w = sorted_r ** (channel.alpha_nlos / channel.alpha_los)
        other = LOS
    cum = _cumulative_radial_probability(channel.blockage, other, w)
    vals = base * np.exp(-_TWO_PI * lam * cum)
    out = np.empty_like(vals)
    out[order] = vals
    return out


def _interference_exponent_terms(s: float, lower: float, k: int, state: str,
                                 channel: ChannelParams, beam: BeamParams,
                                 quad: QuadratureSpec, abs_tol: float):
    """One state's contribution to the interference exponent plus (err, tail).

    The exponent term is int_lower^Rmax (1 - GainMoment(s, r)) P_state(r) r dr;
    the tail is an analytic bound on the discarded (Rmax, inf) part, per unit
    2*pi*intensity. ``abs_tol`` is the caller's tolerance on the exponent.
    """
    alpha = channel.alpha(state)
    blockage = channel.blockage
    pmf = beam_gain_pmf(beam, k)
    upper = quad.truncation_radius_m
    tail_start = max(lower, upper)
    tail = s * channel.beta * pmf.expected_gain * _tail_radial_bound(
        blockage, state, tail_start, alpha, quad)
    if lower >= upper:
        return 0.0, 0.0, tail

    # Fading expectation in partial fractions, unrolled for speed in the hot loop.
    (g0, g1, g2), (p0, p1, p2) = pmf.gains, pmf.probs
    beta = channel.beta
    if state == LOS:
        def integrand(r):
            a = s * beta * r**-alpha
            g = p0 / (1.0 + a * g0) + p1 / (1.0 + a * g1) + p2 / (1.0 + a * g2)
            return (1.0 - g) * los_probability(r, blockage) * r
    else:
        def integrand(r):
            a = s * beta * r**-alpha
            g = p0 / (1.0 + a * g0) + p1 / (1.0 + a * g1) + p2 / (1.0 + a * g2)
            return (1.0 - g) * (1.0 - los_probability(r, blockage)) * r

    # Knees of 1 - G sit where s*beta*g*r^-alpha ~ 1 for each gain atom;
    # geometric hints cover the decades of the slowly-decaying stretch.
    pts = list(_blockage_breakpoints(blockage))
    for g in pmf.gains:
        x = s * channel.beta * g
        if x > 0.0:
            pts.append(x ** (1.0 / alpha))
    p = 4.0 * lower
    while p < upper:
        pts.append(p)
        p *= 8.0
    val, err = _quad(integrand, lower, upper, quad, points=pts, abs_tol=abs_tol)
    return val, err, tail


def laplace_interference(s: float, serving_distance: float, serving_state: str, k: int,
                         lambda0: float, channel: ChannelParams, beam: BeamParams,
                         quad: QuadratureSpec = DEFAULT_QUAD, full_output: bool = False):
    """Laplace functional E[exp(-s * I)] of the aggregate interference.

    Conditioning on the serving AP (state + distance d) excludes every
    interferer with more average power: same-state interferers start at d,
    opposite-state ones at d^(alpha_serving/alpha_other). The two independent
    state fields contribute one exponential factor each. Returns the value
    in (0, 1]; with ``full_output`` also an absolute error estimate combining
    quadrature error and the analytic truncation tail bound.
    """
    _check_state(serving_state)
    if s < 0.0:
        raise ValueError("transform variable must be non-negative")
    if not serving_distance > 0.0:
        raise ValueError("serving distance must be positive")
    if lambda0 < 0.0:
        raise ValueError("intensity must be non-negative")
    if s == 0.0 or lambda0 == 0.0:
        return (1.0, 0.0) if full_output else 1.0

    d = serving_distance
    if serving_state == LOS:
        lower_los = d
        lower_nlos = d ** (channel.alpha_los / channel.alpha_nlos)
    else:
        lower_nlos = d
        lower_los = d ** (channel.alpha_nlos / channel.alpha_los)

    # An absolute error e on the exponent perturbs the value by ~e, so the
    # inner quadrature tolerance follows from abs_tol via the 2*pi*lambda0 scale.
    exponent_tol = max(quad.abs_tol, 0.1 * quad.abs_tol / (_TWO_PI * lambda0))
    val_l, err_l, tail_l = _interference_exponent_terms(
        s, lower_los, k, LOS, channel, beam, quad, exponent_tol)
    val_n, err_n, tail_n = _interference_exponent_terms(
        s, lower_nlos, k, NLOS, channel, beam, quad, exponent_tol)

    tail = _TWO_PI * lambda0 * (tail_l + tail_n)
    if not math.isfinite(tail):
        raise QuadratureError(
            "interference tail bound diverges beyond the truncation radius "
            f"(blockage={channel.blockage.kind}, alphas=({channel.alpha_los}, "
            f"{channel.alpha_nlos})); the far field is not integrable")

    exponent = _TWO_PI * lambda0 * (val_l + val_n)
    value = math.exp(-exponent)
    err = value * (_TWO_PI * lambda0 * (err_l + err_n) + tail)
    if full_output:
        return value, err
    return value


def conditional_coverage(tau: float, r: float, k: int, state: str, lambda0: float,
                         channel: ChannelParams, beam: BeamParams,
                         quad: QuadratureSpec = DEFAULT_QUAD, full_output: bool = False):
    """P(SINR > tau) given serving state and distance r, under exponential fading.

    Equals exp(-s * sigma^2) * LaplaceInterference(s) with
    s = r^alpha_state * tau / (g_main^2 * beta).
    """
    if not tau > 0.0:
        raise ValueError("SINR threshold must be positive")
    if not r > 0.0:
        raise ValueError("serving distance must be positive")
    _check_state(state)
    s = r ** channel.alpha(state) * tau / (beam.g_main**2 * channel.beta)
    noise_factor = math.exp(-s * channel.noise_power)
    lap, lap_err = laplace_interference(s, r, state, k, lambda0, channel, beam, quad,
                                        full_output=True)
    value = noise_factor * lap
    if full_output:
        return value, noise_factor * lap_err
    return value


def coverage_probability(tau: float, k: int, lambda0: float, channel: ChannelParams,
                         beam: BeamParams, quad: QuadratureSpec = DEFAULT_QUAD,
                         full_output: bool = False):
    """Coverage P(SINR > tau) of a typical receiver, marginalized over association.

    Integrates conditional_coverage against the two serving-distance branches.
    The branch weights use the simplified (void-factor) form, which removes the
    0/0 of the ratio form where a state's probability vanishes; agreement of
    the two forms is asserted at probe radii on every call.
    """
    if not tau > 0.0:
        raise ValueError("SINR threshold must be positive")
    if not lambda0 > 0.0:
        raise ValueError("tier intensity must be positive")
    _ = beam_gain_pmf(beam, k)  # validates k against the RF-chain budget

    r0 = math.sqrt(1.0 / (math.pi * lambda0))
    outer_pts = [f * r0 for f in (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
    # Evaluation-weighted sums for first-order propagation of the inner
    # (conditional-coverage) errors through the outer integral.
    sums = {"wc": 0.0, "we": 0.0}

    def make_integrand(state: str):
        def integrand(r):
            weight = serving_distance_pdf(r, state, lambda0, channel, quad)
            if weight == 0.0:
                return 0.0
            cov, cov_err = conditional_coverage(tau, r, k, state, lambda0, channel,
                                                beam, quad, full_output=True)
            sums["wc"] += weight * cov
            sums["we"] += weight * cov_err
            return weight * cov
        return integrand

    upper = quad.truncation_radius_m
    val_l, err_l = _quad(make_integrand(LOS), 0.0, upper, quad, points=outer_pts)
    val_n, err_n = _quad(make_integrand(NLOS), 0.0, upper, quad, points=outer_pts)
    value = val_l + val_n
    value = min(max(value, 0.0), 1.0)
    inner_rel = sums["we"] / sums["wc"] if sums["wc"] > 0.0 else 0.0
    err = err_l + err_n + inner_rel * value
    if full_output:
        return value, err
    return value
