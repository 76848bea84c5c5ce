"""Analytical performance of the tiered AP network.

Everything here is a deterministic numerical evaluation: the association
(serving-distance) laws of the max-average-power scheduler over a marked
PPP, the Laplace functional of the out-of-cluster interference, the SINR
coverage integral, hop-count latency bounds, and the per-gain throughput.
The distance laws are closed form; the Laplace functional and coverage use
fixed-node Gauss-Legendre panels in log radius, refined by halving until the
tolerances of `QuadratureSpec` hold. Semi-infinite integrals are truncated
at ``QuadratureSpec.truncation_radius_m`` with an analytic tail bound folded
into the reported error estimate.

The Monte Carlo twin of every estimator lives in `mmtier.montecarlo`; the two
modules share only `mmtier.channel`, so they can cross-validate each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .channel import (
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


class QuadratureError(ArithmeticError):
    """Raised when panel refinement fails to converge or a tail bound blows up.

    Carries the best available value and its error estimate so callers can
    decide whether to record or abort.
    """

    def __init__(self, message: str, value: float = math.nan, error_estimate: float = math.inf):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and the finite stand-in for infinite integration limits.

    Panels are halved until halving moves a result by at most
    max(abs_tol, rel_tol * value).
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    truncation_radius_m: float = 5000.0

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("quadrature tolerances must be positive")
        if not self.truncation_radius_m > 0.0:
            raise ValueError("truncation radius must be positive")

    @classmethod
    def for_tier_intensity(cls, lambda0: float, radius_factor: float = 50.0,
                           rel_tol: float = 1e-6, abs_tol: float = 1e-9) -> "QuadratureSpec":
        """Truncate at ``radius_factor`` mean inter-AP distances r0 = (pi*lambda0)^-1/2."""
        if not lambda0 > 0.0:
            raise ValueError("tier intensity must be positive")
        r0 = math.sqrt(1.0 / (math.pi * lambda0))
        return cls(rel_tol=rel_tol, abs_tol=abs_tol, truncation_radius_m=radius_factor * r0)


DEFAULT_QUAD = QuadratureSpec()


def _quad(func, a: float, b: float, quad: QuadratureSpec, points=None, abs_tol=None):
    """scipy adaptive quadrature wrapped to return (value, error) or raise.

    ``points`` are optional breakpoint hints (clipped to the open interval).
    """
    if b <= a:
        return 0.0, 0.0
    pts = None
    if points is not None:
        pts = sorted({p for p in points if a < p < b})
        if not pts:
            pts = None
    out = integrate.quad(
        func, a, b,
        epsabs=quad.abs_tol if abs_tol is None else abs_tol,
        epsrel=quad.rel_tol,
        limit=250,
        points=pts,
        full_output=1,
    )
    if len(out) > 3:
        value, err = out[0], out[1]
        raise QuadratureError(
            f"quadrature on [{a:g}, {b:g}] did not converge: {out[3]}",
            value=value, error_estimate=err,
        )
    return out[0], out[1]


# Fixed-node panel quadrature. Every integral below is a sum over
# Gauss-Legendre panels in log-radius, split at the integrand's kinks; an
# estimate is accepted once halving every panel moves it by at most
# max(abs_tol, rel_tol * value), and that difference is its quadrature error.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)
_PANEL_WIDTH = 2.0   # width in ln(radius) of the coarsest panels
_MAX_HALVINGS = 4
_MAX_TENSOR = 1 << 18  # (row, node) pairs per block of the interference tensor: 2 MB
# Coverage integrates the serving distance from 1e-6 * r0 up: the mass below
# is at most pi * lambda0 * (1e-6 * r0)^2 = 1e-12.
_R_MIN_FACTOR = 1e-6


def _panel_edges(breaks, halvings: int) -> np.ndarray:
    """Panel edges over [breaks[0], breaks[-1]] with an edge at every break.

    Each gap between breaks holds ceil(gap / _PANEL_WIDTH) * 2**halvings equal
    panels, so one more halving splits every panel in two.
    """
    edges = [np.asarray(breaks[:1], dtype=float)]
    for a, b in zip(breaks[:-1], breaks[1:]):
        n = max(1, math.ceil((b - a) / _PANEL_WIDTH)) << halvings
        edges.append(np.linspace(a, b, n + 1)[1:])
    return np.concatenate(edges)


def _gauss_nodes(edges: np.ndarray):
    """Nodes and weights of the Gauss-Legendre rule on every panel, panel-major."""
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    return (mid[:, None] + half[:, None] * _GL_X).ravel(), (half[:, None] * _GL_W).ravel()


def _log_breaks(lo: float, hi: float, points) -> list[float]:
    """ln of lo, hi and every point strictly between them, ascending."""
    inner = sorted({math.log(p) for p in points if lo < p < hi})
    return [math.log(lo), *inner, math.log(hi)]


def _refine(evaluate, quad: QuadratureSpec, what: str):
    """Evaluate at successively halved panels until two evaluations agree.

    ``evaluate(halvings)`` returns a tuple whose first item is the estimate.
    Returns the finer tuple and the difference of the last two estimates.
    """
    coarse = evaluate(0)
    for halvings in range(1, _MAX_HALVINGS + 1):
        fine = evaluate(halvings)
        err = abs(fine[0] - coarse[0])
        if not math.isfinite(err):
            break
        if err <= max(quad.abs_tol, quad.rel_tol * abs(fine[0])):
            return fine, err
        coarse = fine
    raise QuadratureError(f"{what} did not converge after {halvings} panel halvings",
                          value=fine[0], error_estimate=err)


# ---------------------------------------------------------------------------
# Association-distance laws (closed form)
# ---------------------------------------------------------------------------


def _radial_mass(blockage: BlockageModel, state: str, z):
    """int_0^z P_state(r) r dr, elementwise over z >= 0."""
    q = blockage.param
    half_sq = 0.5 * z * z
    if blockage.kind == "exponential":
        x = z / q
        los = q * q * (-np.expm1(-x) - x * np.exp(-x))
    elif blockage.kind == "los_ball":
        los = 0.5 * np.minimum(z, q) ** 2
    else:
        los = q * half_sq
    return los if state == LOS else half_sq - los


def _radial_mass_beyond(blockage: BlockageModel, state: str, z: float) -> float:
    """int_z^inf P_state(r) r dr; inf when the state's far field is unbounded."""
    q = blockage.param
    if state == LOS:
        if blockage.kind == "exponential":
            return q * q * math.exp(-z / q) * (1.0 + z / q)
        if blockage.kind == "los_ball":
            return 0.5 * max(q * q - z * z, 0.0)
        return math.inf if q > 0.0 else 0.0
    return 0.0 if blockage.kind == "constant" and q == 1.0 else math.inf


def _state_probability(blockage: BlockageModel, state: str, r):
    """P_state(r): the LOS probability or its complement."""
    p = los_probability(r, blockage)
    return p if state == LOS else 1.0 - p


def integrated_radial_probability(blockage: BlockageModel, state: str, z,
                                  quad: QuadratureSpec = DEFAULT_QUAD):
    """Integral of P_state(r) * r over [0, z], in closed form.

    This is the mean number of state-``state`` points of a unit-intensity
    PPP inside a disc of radius z, divided by 2*pi. For exponential blockage
    the LOS part is mu^2 (1 - e^(-z/mu) (1 + z/mu)). Accepts a scalar or an
    array; ``quad`` is not used.
    """
    _check_state(state)
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0.0):
        raise ValueError("upper limit must be non-negative")
    out = _radial_mass(blockage, state, z_arr)
    return float(out) if np.ndim(z) == 0 else out


def nearest_distance_pdf(z, state: str, lam: float, blockage: BlockageModel,
                         quad: QuadratureSpec = DEFAULT_QUAD):
    """Density of the distance from the origin to the nearest state-``state`` AP.

    The APs of the given state form an inhomogeneous PPP of radial intensity
    lam * P_state(r); the nearest-point law is
    2*pi*z*lam*P(z) * exp(-2*pi*lam * int_0^z P(r) r dr). Total mass below 1
    when the state can be globally absent (the void probability). Closed form,
    elementwise over an array ``z``; ``quad`` is not used.
    """
    _check_state(state)
    if not lam > 0.0:
        raise ValueError("intensity must be positive")
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0.0):
        raise ValueError("distance must be non-negative")
    out = (_TWO_PI * lam * z_arr * _state_probability(blockage, state, z_arr)
           * np.exp(-_TWO_PI * lam * _radial_mass(blockage, state, z_arr)))
    return float(out) if np.ndim(z) == 0 else out


def serving_distance_pdf(r, state: str, lam: float, channel: ChannelParams,
                         quad: QuadratureSpec = DEFAULT_QUAD):
    """Density (per state) of the distance to the max-average-power AP.

    The serving AP is in state ``state`` at distance r when the nearest AP of
    that state sits at r and no AP of the other state offers more average
    power: an opposite-state AP at t wins iff t < r^(alpha_state/alpha_other),
    so the law is nearest_distance_pdf * that disc's opposite-state void
    probability. Summing the two states gives a proper density with unit
    total mass. Closed form, elementwise over an array ``r``.
    """
    _check_state(state)
    if not lam > 0.0:
        raise ValueError("intensity must be positive")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0):
        raise ValueError("serving distance must be positive")
    other = NLOS if state == LOS else LOS
    w = r_arr ** (channel.alpha(state) / channel.alpha(other))
    out = (nearest_distance_pdf(r_arr, state, lam, channel.blockage, quad)
           * np.exp(-_TWO_PI * lam * _radial_mass(channel.blockage, other, w)))
    return float(out) if np.ndim(r) == 0 else out


@dataclass(frozen=True)
class ServingDistanceTable:
    """Tabulated serving-distance law: grids for sampling, CDF checks and KS tests."""

    radii: np.ndarray
    pdf_los: np.ndarray
    pdf_nlos: np.ndarray
    cdf: np.ndarray
    los_mass: float
    nlos_mass: float

    @property
    def total_mass(self) -> float:
        return self.los_mass + self.nlos_mass

    @property
    def pdf_total(self) -> np.ndarray:
        return self.pdf_los + self.pdf_nlos

    def cdf_at(self, r) -> np.ndarray:
        """Normalized CDF of the total serving distance, linear interpolation."""
        return np.interp(r, self.radii, self.cdf, left=0.0, right=1.0)


def tabulate_serving_distance(lam: float, channel: ChannelParams,
                              quad: QuadratureSpec = DEFAULT_QUAD,
                              r_max: float | None = None,
                              grid_size: int = 4096) -> ServingDistanceTable:
    """Evaluate both serving-distance branches on a grid covering ~all the mass.

    If ``r_max`` is omitted the grid is extended (doubling) until the captured
    mass stops growing; a final total below 1 - 1e-3 raises, since the law is a
    proper density.
    """
    if not lam > 0.0:
        raise ValueError("intensity must be positive")
    r_scale = math.sqrt(1.0 / (math.pi * lam))
    if channel.blockage.kind in ("exponential", "los_ball"):
        r_scale = max(r_scale, channel.blockage.param)

    def build(upper: float, n: int):
        grid = np.linspace(0.0, upper, n + 1)
        pos = grid[1:]
        pdf_l = np.concatenate([[0.0], serving_distance_pdf(pos, LOS, lam, channel, quad)])
        pdf_n = np.concatenate([[0.0], serving_distance_pdf(pos, NLOS, lam, channel, quad)])
        mass_l = float(np.trapezoid(pdf_l, grid))
        mass_n = float(np.trapezoid(pdf_n, grid))
        return grid, pdf_l, pdf_n, mass_l, mass_n

    if r_max is not None:
        grid, pdf_l, pdf_n, mass_l, mass_n = build(r_max, grid_size)
    else:
        upper = 8.0 * r_scale
        n = grid_size
        grid, pdf_l, pdf_n, mass_l, mass_n = build(upper, n)
        while True:
            upper2 = 2.0 * upper
            n2 = min(2 * n, 32768)
            grid2, pdf_l2, pdf_n2, mass_l2, mass_n2 = build(upper2, n2)
            if (mass_l2 + mass_n2) - (mass_l + mass_n) < 1e-10 and upper > 16.0 * r_scale:
                break
            grid, pdf_l, pdf_n, mass_l, mass_n = grid2, pdf_l2, pdf_n2, mass_l2, mass_n2
            upper, n = upper2, n2
            if upper > 1e7 * r_scale:
                raise QuadratureError("serving-distance mass did not converge while extending the grid")

    total = mass_l + mass_n
    if abs(total - 1.0) > 1e-3:
        raise QuadratureError(
            f"serving-distance law integrates to {total!r}; grid or tolerances inadequate",
            value=total,
        )
    cdf = integrate.cumulative_trapezoid(pdf_l + pdf_n, grid, initial=0.0) / total
    cdf[-1] = 1.0
    return ServingDistanceTable(radii=grid, pdf_los=pdf_l, pdf_nlos=pdf_n, cdf=cdf,
                                los_mass=mass_l, nlos_mass=mass_n)


# ---------------------------------------------------------------------------
# Interference Laplace functional and coverage
# ---------------------------------------------------------------------------


def gain_moment(s: float, r, k: int, state: str, channel: ChannelParams,
                beam: BeamParams):
    """E[exp(-s * beta * h * G * r^-alpha)] over fading h and interferer gain G.

    With unit-mean exponential fading each gain atom contributes
    p_g / (1 + s*beta*g*r^-alpha); the result lies in (0, 1] and equals 1 at s = 0.
    """
    if s < 0.0:
        raise ValueError("transform variable must be non-negative")
    pmf = beam_gain_pmf(beam, k)
    alpha = channel.alpha(state)
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0):
        raise ValueError("distance must be positive")
    attn = channel.beta * r_arr ** -alpha
    out = sum(p / (1.0 + s * g * attn) for g, p in zip(pmf.gains, pmf.probs))
    if np.ndim(r) == 0:
        return float(out)
    return out


def _tail_radial_bound(blockage: BlockageModel, state: str, start: float, alpha: float,
                       quad: QuadratureSpec) -> float:
    """Upper bound on int_start^inf P_state(r) * r^(1-alpha) dr.

    Used with 1 - E[exp(-x)] <= E[x] to bound the truncated part of the
    interference exponent. Returns inf when the far field genuinely diverges
    (flat blockage with alpha <= 2).
    """
    if start <= 0.0:
        return math.inf
    kind = blockage.kind
    if state == LOS:
        if kind == "exponential":
            mu = blockage.param
            if alpha >= 1.0:
                return start ** (1.0 - alpha) * mu * math.exp(-start / mu)
            val, _ = _quad(lambda r: math.exp(-r / mu) * r ** (1.0 - alpha),
                           start, start + 80.0 * mu, quad)
            return val
        if kind == "los_ball":
            ball = blockage.param
            if start >= ball:
                return 0.0
            if alpha == 2.0:
                return math.log(ball / start)
            return (ball ** (2.0 - alpha) - start ** (2.0 - alpha)) / (2.0 - alpha)
        p = blockage.param
        if p == 0.0:
            return 0.0
        return p * start ** (2.0 - alpha) / (alpha - 2.0) if alpha > 2.0 else math.inf
    # NLOS: bound P_N <= 1 except where it is exactly zero
    if kind == "constant" and blockage.param == 1.0:
        return 0.0
    return start ** (2.0 - alpha) / (alpha - 2.0) if alpha > 2.0 else math.inf


def _interference_exponent(s: np.ndarray, lower: np.ndarray, state: str,
                           channel: ChannelParams, pmf, upper: float,
                           halvings: int) -> np.ndarray:
    """Per row i, int_{lower_i}^upper (1 - GainMoment(s_i, t)) P_state(t) t dt.

    With unit-mean exponential fading, 1 - GainMoment = sum_g p_g x g/(1 + x g),
    x = s * beta * t^-alpha. Rows share one set of panels in ln t, split at the
    blockage's LOS-ball radius; a row takes the nodes of the panels above its
    lower limit plus a partial panel of its own from that limit to the next
    edge. Rows go through in blocks of at most _MAX_TENSOR (row, node) pairs.
    """
    out = np.zeros(len(s))
    live = np.flatnonzero(lower < upper)
    if not len(live):
        return out
    alpha = channel.alpha(state)
    ball = [channel.blockage.param] if channel.blockage.kind == "los_ball" else []
    edges = _panel_edges(_log_breaks(float(lower[live].min()), upper, ball), halvings)
    u, w = _gauss_nodes(edges)
    t = np.exp(u)
    v = w * _state_probability(channel.blockage, state, t) * t * t  # dt = t du
    node_panel = np.arange(len(u)) // len(_GL_X)
    step = max(1, _MAX_TENSOR // len(u))
    for start in range(0, len(live), step):
        rows = live[start:start + step]
        log_s = np.log(s[rows] * channel.beta)
        log_lower = np.log(lower[rows])
        first = np.searchsorted(edges, log_lower)
        half = 0.5 * (edges[first] - log_lower)
        u_part = (log_lower + half)[:, None] + half[:, None] * _GL_X
        t_part = np.exp(u_part)
        v_part = (half[:, None] * _GL_W * t_part**2
                  * _state_probability(channel.blockage, state, t_part))
        # inv_x = 1/x = t^alpha / (s beta), set to inf below the lower limit;
        # x g/(1 + x g) = g/(g + inv_x) stays exact as x -> 0 and x -> inf.
        with np.errstate(over="ignore"):
            inv_x = np.exp(alpha * u - log_s[:, None])
            inv_x_part = np.exp(alpha * u_part - log_s[:, None])
        np.copyto(inv_x, np.inf, where=node_panel < first[:, None])
        term = np.empty_like(inv_x)
        for g, p in zip(pmf.gains, pmf.probs):
            if p > 0.0:
                np.divide(g, np.add(inv_x, g, out=term), out=term)
                out[rows] += p * (term @ v
                                  + np.einsum("ij,ij->i", g / (g + inv_x_part), v_part))
    return out


def _interference_tail(s_beta_gain: float, lower_los: float, lower_nlos: float,
                       channel: ChannelParams, quad: QuadratureSpec) -> float:
    """Bound on the exponent's part beyond the truncation radius, per unit 2*pi*lambda."""
    upper = quad.truncation_radius_m
    tail = s_beta_gain * (
        _tail_radial_bound(channel.blockage, LOS, max(lower_los, upper), channel.alpha_los, quad)
        + _tail_radial_bound(channel.blockage, NLOS, max(lower_nlos, upper),
                             channel.alpha_nlos, quad))
    if not math.isfinite(tail):
        raise QuadratureError(
            "interference tail bound diverges beyond the truncation radius "
            f"(blockage={channel.blockage.kind}, alphas=({channel.alpha_los}, "
            f"{channel.alpha_nlos})); the far field is not integrable")
    return tail


def laplace_interference(s: float, serving_distance: float, serving_state: str, k: int,
                         lambda0: float, channel: ChannelParams, beam: BeamParams,
                         quad: QuadratureSpec = DEFAULT_QUAD, full_output: bool = False):
    """Laplace functional E[exp(-s * I)] of the aggregate interference.

    Conditioning on the serving AP (state + distance d) excludes every
    interferer with more average power: same-state interferers start at d,
    opposite-state ones at d^(alpha_serving/alpha_other). The two independent
    state fields contribute one exponential factor each. Returns the value
    in (0, 1]; with ``full_output`` also an absolute error estimate: the
    panel-halving difference plus the analytic truncation tail bound.
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

    pmf = beam_gain_pmf(beam, k)
    other = NLOS if serving_state == LOS else LOS
    d = serving_distance
    lower = {serving_state: d, other: d ** (channel.alpha(serving_state) / channel.alpha(other))}
    tail = _TWO_PI * lambda0 * _interference_tail(
        s * channel.beta * pmf.expected_gain, lower[LOS], lower[NLOS], channel, quad)
    s_arr = np.array([s])
    upper = quad.truncation_radius_m

    def evaluate(halvings):
        exponent = sum(_interference_exponent(s_arr, np.array([lower[st]]), st, channel, pmf,
                                              upper, halvings)[0] for st in (LOS, NLOS))
        return (math.exp(-_TWO_PI * lambda0 * exponent),)

    (value,), quad_err = _refine(evaluate, quad, "interference Laplace functional")
    if full_output:
        # the far field scales the value by a factor in [max(0, 1 - tail), 1]
        return value, quad_err + value * min(tail, 1.0)
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

    Integrates conditional_coverage against the two serving-distance branches
    (Bai & Heath's Laplace-functional form) as one tensor quadrature: outer
    panels in ln r from 1e-6 r0 to the truncation radius, inner panels in ln t
    for every outer node at once. The reported error sums the panel-halving
    difference, the truncation tail bound weighted by the integrand, and the
    serving-distance mass outside the outer range.
    """
    if not tau > 0.0:
        raise ValueError("SINR threshold must be positive")
    if not lambda0 > 0.0:
        raise ValueError("tier intensity must be positive")
    pmf = beam_gain_pmf(beam, k)  # validates k against the RF-chain budget
    blockage = channel.blockage
    upper = quad.truncation_radius_m
    r0 = math.sqrt(1.0 / (math.pi * lambda0))
    r_min = _R_MIN_FACTOR * min(r0, upper)
    # Outer edges: where an NLOS-served receiver's LOS exclusion disc reaches
    # the truncation radius; r0, 2 r0 and 4 r0, beyond which the law falls like
    # exp(-pi lambda0 r^2); for a LOS ball of radius b, b itself and where
    # either exclusion disc reaches b.
    ratio = channel.alpha_los / channel.alpha_nlos
    breaks = [upper ** ratio, r0, 2.0 * r0, 4.0 * r0]
    if blockage.kind == "los_ball":
        breaks += [blockage.param, blockage.param ** ratio, blockage.param ** (1.0 / ratio)]
    # The far-field tail of each node's Laplace exponent is at most s times
    # this (the bound from the truncation radius covers every exclusion radius).
    tail_per_s = _TWO_PI * lambda0 * _interference_tail(
        channel.beta * pmf.expected_gain, upper, upper, channel, quad)

    def evaluate(halvings):
        u, w = _gauss_nodes(_panel_edges(_log_breaks(r_min, upper, breaks), halvings))
        r = np.exp(u)
        value = tail_err = 0.0
        for state in (LOS, NLOS):
            other = NLOS if state == LOS else LOS
            weight = w * r * serving_distance_pdf(r, state, lambda0, channel, quad)  # dr = r du
            keep = weight > 0.0
            rs, weight = r[keep], weight[keep]
            s = rs ** channel.alpha(state) * tau / (beam.g_main**2 * channel.beta)
            exponent = (_interference_exponent(s, rs, state, channel, pmf, upper, halvings)
                        + _interference_exponent(
                            s, rs ** (channel.alpha(state) / channel.alpha(other)), other,
                            channel, pmf, upper, halvings))
            covered = weight * np.exp(-s * channel.noise_power - _TWO_PI * lambda0 * exponent)
            value += float(covered.sum())
            tail_err += float(covered @ np.minimum(s * tail_per_s, 1.0))
        return value, tail_err

    (value, tail_err), quad_err = _refine(evaluate, quad, "coverage integral")
    # Serving-distance mass outside [r_min, upper]: at most pi lambda0 r_min^2
    # below, and at most each state's nearest-AP mass beyond upper above.
    outside = math.pi * lambda0 * r_min**2
    for state in (LOS, NLOS):
        beyond = _radial_mass_beyond(blockage, state, upper)
        outside += (math.exp(-_TWO_PI * lambda0 * _radial_mass(blockage, state, upper))
                    * -math.expm1(-_TWO_PI * lambda0 * beyond))
    value = min(max(value, 0.0), 1.0)
    err = quad_err + tail_err + outside
    if full_output:
        return value, err
    return value


# ---------------------------------------------------------------------------
# Latency, throughput and the gain sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkParams:
    """Deployment-level parameters: densities, RF chains, bandwidth, gain."""

    lambda_total: float
    lambda_tier0: float
    rf_chains: int
    bandwidth: float
    gain_per_hop: int = 1

    def __post_init__(self):
        if not self.lambda_tier0 > 0.0:
            raise ValueError("tier-0 intensity must be positive")
        if self.lambda_total < self.lambda_tier0:
            raise ValueError("total density must be at least the tier-0 density")
        if self.rf_chains < 1:
            raise ValueError("need at least one RF chain")
        if not self.bandwidth > 0.0:
            raise ValueError("bandwidth must be positive")
        if not 1 <= self.gain_per_hop <= self.rf_chains:
            raise ValueError("per-hop gain must lie in 1..rf_chains")

    @property
    def r0_m(self) -> float:
        """Mean inter-AP spacing of the scheduled tier, (pi*lambda_tier0)^-1/2."""
        return math.sqrt(1.0 / (math.pi * self.lambda_tier0))


@dataclass(frozen=True)
class CoverageResult:
    """One evaluated grid point of the (threshold, gain) sweep."""

    tau: float
    k: int
    coverage: float
    latency: float
    throughput: float
    quad_error: float


def evaluate_point(tau: float, k: int, net: NetworkParams, channel: ChannelParams,
                   beam: BeamParams, quad: QuadratureSpec = DEFAULT_QUAD) -> CoverageResult:
    """Coverage, latency and throughput at one (threshold, gain) grid point.

    Latency is the real-valued hop ratio (lambda_total - lambda0)/(k*lambda0);
    it equals the integer hop count whenever the split divides evenly and
    always lies within `latency_bounds`. Throughput is computed from the same
    coverage value, so the compositional identity holds exactly per result.
    """
    cov, err = coverage_probability(tau, k, net.lambda_tier0, channel, beam, quad,
                                    full_output=True)
    latency = (net.lambda_total - net.lambda_tier0) / (k * net.lambda_tier0)
    thr = throughput_identity(k, tau, net, cov)
    return CoverageResult(tau=tau, k=k, coverage=cov, latency=latency,
                          throughput=thr, quad_error=err)


def latency_bounds(lambda_total: float, lambda0: float, rf_chains: int) -> tuple[float, float]:
    """Hop-count envelope: every relay tier carries between lambda0 and K*lambda0."""
    if not lambda0 > 0.0 or lambda_total < lambda0:
        raise ValueError("need lambda_total >= lambda0 > 0")
    if rf_chains < 1:
        raise ValueError("need at least one RF chain")
    relay = lambda_total - lambda0
    return relay / (rf_chains * lambda0), relay / lambda0


def hop_count(lambda_total: float, lambda0: float, k: int, allow_floor: bool = False) -> int:
    """Number of hops M with uniform per-hop gain k: (lambda_total - lambda0)/(k*lambda0).

    The exact formula requires the density split to make M an integer; a
    non-integer result is rejected unless ``allow_floor`` is set, in which case
    the count is floored (the residual intensity is then unreachable).
    """
    if not lambda0 > 0.0 or lambda_total < lambda0:
        raise ValueError("need lambda_total >= lambda0 > 0")
    if k < 1:
        raise ValueError("per-hop gain must be at least 1")
    m_real = (lambda_total - lambda0) / (k * lambda0)
    m_int = round(m_real)
    if abs(m_real - m_int) <= 1e-9 * max(1.0, abs(m_int)):
        return int(m_int)
    if allow_floor:
        return int(math.floor(m_real))
    raise ValueError(
        f"density split gives a non-integer hop count {m_real!r}; "
        "adjust densities or pass allow_floor=True")


def throughput_identity(k: int, tau: float, net: NetworkParams, cov: float) -> float:
    """The canonical product W * k * lambda0 * C * log2(1 + tau).

    Kept as the single definition so every caller (and every test of the
    compositional identity) multiplies in the same order bitwise.
    """
    return net.bandwidth * k * net.lambda_tier0 * cov * math.log2(1.0 + tau)


def throughput(k: int, tau: float, net: NetworkParams, channel: ChannelParams,
               beam: BeamParams, quad: QuadratureSpec = DEFAULT_QUAD,
               full_output: bool = False):
    """Aggregate relay throughput W * k * lambda0 * C(tau, k) * log2(1 + tau).

    Dividing the relay tiers' total rate by the hop count cancels the total
    density, so the result depends on lambda_tier0 but not lambda_total.
    """
    if not tau > 0.0:
        raise ValueError("SINR threshold must be positive")
    cov, cov_err = coverage_probability(tau, k, net.lambda_tier0, channel, beam, quad,
                                        full_output=True)
    if full_output:
        return throughput_identity(k, tau, net, cov), throughput_identity(k, tau, net, cov_err)
    return throughput_identity(k, tau, net, cov)


def feasible_gains(net: NetworkParams) -> list[int]:
    """Gains k in 1..K for which the density split yields an integer hop count."""
    out = []
    for k in range(1, net.rf_chains + 1):
        try:
            if hop_count(net.lambda_total, net.lambda_tier0, k) >= 1:
                out.append(k)
        except ValueError:
            continue
    return out


def optimal_gain(tau: float, net: NetworkParams, channel: ChannelParams,
                 beam: BeamParams, quad: QuadratureSpec = DEFAULT_QUAD) -> tuple[int, float]:
    """Exhaustive argmax of throughput over the divisibility-feasible gains.

    Ties break toward the smaller gain. Raises if no gain in 1..K divides the
    relay density evenly.
    """
    candidates = feasible_gains(net)
    if not candidates:
        raise ValueError("no feasible multiplexing gain for this density split")
    best_k, best_t = None, -math.inf
    for k in candidates:
        t = throughput(k, tau, net, channel, beam, quad)
        if t > best_t:
            best_k, best_t = k, t
    return best_k, best_t
