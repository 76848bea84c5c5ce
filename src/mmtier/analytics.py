"""Analytical performance of the tiered AP network.

Everything here is a deterministic numerical evaluation: the association
(serving-distance) laws of the max-average-power scheduler over a marked
PPP, the Laplace functional of the out-of-cluster interference, the SINR
coverage integral, hop counts, and the per-gain throughput.
The distance laws are closed form; the Laplace functional and coverage use
fixed-node Gauss-Legendre panels in log path loss, refined by halving until the
tolerances of `QuadratureSpec` hold. Semi-infinite integrals are truncated
at ``QuadratureSpec.truncation_radius_m`` with an analytic tail bound folded
into the reported error estimate.

The Monte Carlo twin of every estimator lives in `mmtier.montecarlo`; the two
modules share only `mmtier.channel`, so they can cross-validate each other.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .channel import (
    LOS,
    NLOS,
    BeamParams,
    BlockageModel,
    ChannelParams,
    beam_gain_pmf,
    los_probability,
    _check_state,
    _require,
    _require_all,
    _TWO_PI,
)


class QuadratureError(ArithmeticError):
    """Raised when panel refinement fails to converge or a tail bound blows up.

    Carries the best available value and its error estimate so callers can
    decide whether to record or abort.
    """

    def __init__(self, message: str, value: float = math.nan, error_estimate: float = math.inf):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


def _r0(lambda0: float) -> float:
    """The mean inter-AP distance scale r0 = (pi*lambda0)^-1/2 of a PPP of intensity lambda0."""
    return math.sqrt(1.0 / (math.pi * lambda0))


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
        _require("quadrature tolerances", self.rel_tol)
        _require("quadrature tolerances", self.abs_tol)
        _require("truncation radius", self.truncation_radius_m)

    @classmethod
    def for_tier_intensity(cls, lambda0: float, rel_tol: float = rel_tol,
                           abs_tol: float = abs_tol) -> "QuadratureSpec":
        """Truncate at 50 mean inter-AP distances r0 = (pi*lambda0)^-1/2."""
        _require("tier intensity", lambda0)
        return cls(rel_tol=rel_tol, abs_tol=abs_tol, truncation_radius_m=50.0 * _r0(lambda0))


DEFAULT_QUAD = QuadratureSpec()


# Fixed-node panel quadrature. Every integral below is a sum over
# Gauss-Legendre panels in log path loss, split at the integrand's kinks; an
# estimate is accepted once halving every panel moves it by at most
# max(abs_tol, rel_tol * value), and that difference is its quadrature error.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)
_PANEL_WIDTH = 2.0   # width in ln(radius) of the coarsest panels; x alpha in ln(path loss)
_MAX_HALVINGS = 4
_MAX_TENSOR = 1 << 18  # entries per block of the interference tensor: 4 MB of 1/x and weight
# Every grid point is accepted after one halving in the default settings;
# coverage keeps the plans of up to this many halvings (see `_coverage_plan`).
_CACHED_HALVINGS = 1
# Coverage integrates the serving distance from 1e-6 * r0 up: the mass below
# is at most pi * lambda0 * (1e-6 * r0)^2 = 1e-12.
_R_MIN_FACTOR = 1e-6
# Coverage falls with tau: a larger tau is evaluated here, with the value added to the
# error, which keeps s = r^alpha tau / (g^2 beta) and every product c = g tau finite.
_TAU_CLAMP = 1e200
_SERVING_MASS_TOL = 1e-3  # how far the serving-distance mass may miss 1; `validate` checks it too


def _panel_edges(breaks, halvings: int, widths) -> np.ndarray:
    """Panel edges over [breaks[0], breaks[-1]] with an edge at every break.

    Gap i between breaks holds ceil(gap / widths[i]) * 2**halvings equal
    panels, so one more halving splits every panel in two.
    """
    edges = [np.asarray(breaks[:1], dtype=float)]
    for a, b, width in zip(breaks[:-1], breaks[1:], widths):
        n = max(1, math.ceil((b - a) / width)) << halvings
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


def _state_probability(blockage: BlockageModel, state: str, r):
    """P_state(r): the LOS probability or its complement."""
    p = los_probability(r, blockage)
    return p if state == LOS else 1.0 - p


def nearest_distance_pdf(z, state: str, lam: float, blockage: BlockageModel):
    """Density of the distance from the origin to the nearest state-``state`` AP.

    The APs of the given state form an inhomogeneous PPP of radial intensity
    lam * P_state(r); the nearest-point law is
    2*pi*z*lam*P(z) * exp(-2*pi*lam * int_0^z P(r) r dr). Total mass below 1
    when the state can be globally absent (the void probability). Closed form,
    elementwise over an array ``z``.
    """
    _check_state(state)
    _require("intensity", lam)
    z_arr = np.asarray(z, dtype=float)
    _require_all("distance", z_arr, zero_ok=True)
    out = (_TWO_PI * lam * z_arr * _state_probability(blockage, state, z_arr)
           * np.exp(-_TWO_PI * lam * _radial_mass(blockage, state, z_arr)))
    return float(out) if np.ndim(z) == 0 else out


def serving_distance_pdf(r, state: str, lam: float, channel: ChannelParams):
    """Density (per state) of the distance to the max-average-power AP.

    The serving AP is in state ``state`` at distance r when the nearest AP of
    that state sits at r and no AP of the other state offers more average
    power: an opposite-state AP at t wins iff t < r^(alpha_state/alpha_other),
    so the law is nearest_distance_pdf * that disc's opposite-state void
    probability. Summing the two states gives a proper density with unit
    total mass. Closed form, elementwise over an array ``r``.
    """
    r_arr = np.asarray(r, dtype=float)
    _require_all("serving distance", r_arr)
    other = NLOS if state == LOS else LOS
    w = r_arr ** (channel.alpha(state) / channel.alpha(other))
    out = (nearest_distance_pdf(r_arr, state, lam, channel.blockage)
           * np.exp(-_TWO_PI * lam * _radial_mass(channel.blockage, other, w)))
    return float(out) if np.ndim(r) == 0 else out


@dataclass(frozen=True)
class ServingDistanceTable:
    """The serving-distance law on a grid; ``pdf_los`` and ``pdf_nlos`` load on first read."""

    radii: np.ndarray
    cdf: np.ndarray
    los_mass: float
    nlos_mass: float
    _lam: float
    _channel: ChannelParams

    pdf_los = functools.cached_property(lambda self: self._at_knots(LOS))
    pdf_nlos = functools.cached_property(lambda self: self._at_knots(NLOS))

    def _at_knots(self, state: str) -> np.ndarray:
        return np.concatenate([[0.0], serving_distance_pdf(self.radii[1:], state, self._lam,
                                                           self._channel)])

    @property
    def total_mass(self) -> float:
        return self.los_mass + self.nlos_mass

    def cdf_at(self, r) -> np.ndarray:
        """Normalized CDF of the total serving distance, linear interpolation."""
        return np.interp(r, self.radii, self.cdf, left=0.0, right=1.0)


def _nearest_mass_beyond(lam: float, blockage: BlockageModel, upper: float):
    """Each state's nearest-AP mass beyond ``upper``: their sum bounds the serving mass there."""
    return tuple(math.exp(-_TWO_PI * lam * _radial_mass(blockage, state, upper))
                 * -math.expm1(-_TWO_PI * lam * _tail_radial_bound(blockage, state, upper, 0.0))
                 for state in (LOS, NLOS))


def tabulate_serving_distance(lam: float, channel: ChannelParams,
                              quad: QuadratureSpec = DEFAULT_QUAD) -> ServingDistanceTable:
    """Both serving-distance branches on one uniform grid covering ~all the mass.

    The grid runs from 0 to 32 * max(r0, blockage length) over 16384
    intervals; under a LOS ball of radius b, r0 is first rounded up to b times
    a power of two, so that b is a knot. The range is doubled (intervals up to
    32768) while the closed-form bound on the mass beyond it exceeds 1e-10.
    The masses sum each branch over every interval by the 2-node
    Gauss-Legendre rule; ``cdf`` is the cumulative sum of both over its last
    value, from exactly 0 to exactly 1. A total mass off 1 by more than
    `_SERVING_MASS_TOL` raises. ``quad`` is not used.
    """
    _require("intensity", lam)
    r_scale = _r0(lam)
    if channel.blockage.kind == "exponential":
        r_scale = max(r_scale, channel.blockage.param)
    elif channel.blockage.kind == "los_ball":
        # b times a power of two puts a knot at b, where both branches jump
        ball = channel.blockage.param
        r_scale = ball * 2.0 ** max(0, math.ceil(math.log2(r_scale / ball)))
    upper, n = 32.0 * r_scale, 16384
    # At an intensity so high that 2 pi lam r^2 overflows on the grid, the masses
    # become inf * 0 = nan: the guard below reports that, not numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        while sum(_nearest_mass_beyond(lam, channel.blockage, upper)) > 1e-10:
            upper, n = 2.0 * upper, min(2 * n, 32768)

        radii = np.linspace(0.0, upper, n + 1)
        half = 0.5 * upper / n  # Gauss nodes at mid -+ half / sqrt(3), weights half
        mid = radii[:-1] + half
        r = np.concatenate([mid - half / math.sqrt(3.0), mid + half / math.sqrt(3.0)])
        f_l, f_n = (serving_distance_pdf(r, state, lam, channel) for state in (LOS, NLOS))
        seg_l, seg_n = half * (f_l[:n] + f_l[n:]), half * (f_n[:n] + f_n[n:])
    # .sum(), not a dot product: a BLAS call can start its thread pool per table.
    mass_l, mass_n = float(seg_l.sum()), float(seg_n.sum())
    if not abs(mass_l + mass_n - 1.0) <= _SERVING_MASS_TOL:
        raise QuadratureError(f"serving-distance law integrates to {mass_l + mass_n!r}",
                              value=mass_l + mass_n)
    cum = np.cumsum(seg_l + seg_n)
    return ServingDistanceTable(radii=radii, cdf=np.concatenate([[0.0], cum / cum[-1]]),
                                los_mass=mass_l, nlos_mass=mass_n, _lam=lam, _channel=channel)


# ---------------------------------------------------------------------------
# Interference Laplace functional and coverage
# ---------------------------------------------------------------------------


def _tail_radial_bound(blockage: BlockageModel, state: str, start: float,
                       alpha: float) -> float:
    """Upper bound on int_start^inf P_state(r) * r^(1-alpha) dr.

    Used with 1 - E[exp(-x)] <= E[x] to bound the truncated part of the
    interference exponent. Returns inf when the far field genuinely diverges
    (flat blockage with alpha <= 2). At alpha = 0 the tangent line of r is r
    itself, so the bound is exact: int_start^inf P_state(r) r dr for every
    blockage law.
    """
    if start <= 0.0:
        return math.inf
    kind = blockage.kind
    if state == LOS:
        if kind == "exponential":
            # r^(1-alpha) lies below its tangent line at start (exactly
            # start^(1-alpha) for alpha >= 1); e^(-r/mu) integrates that line
            # in closed form, at most a factor 1 + mu/start above the tail.
            mu = blockage.param
            return (start ** (1.0 - alpha) * mu * math.exp(-start / mu)
                    * (1.0 + max(0.0, 1.0 - alpha) * mu / start))
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


def _path_loss_density(path_loss, channel: ChannelParams, upper: float):
    """APs per unit ln l and per 2 pi lambda0 at path loss l = d^alpha(state), elementwise:
    sum_s P_s(t_s) t_s^2 / alpha_s at t_s = l^(1/alpha_s) <= ``upper``, the intensity of
    the path-loss process of both states (Haenggi, IEEE TIT 2008)."""
    density = 0.0
    for state in (LOS, NLOS):
        t = path_loss ** (1.0 / channel.alpha(state))
        density = density + (_state_probability(channel.blockage, state, t) * t * t
                             / channel.alpha(state) * (t <= upper))
    return density


def _exponent_blocks(s: np.ndarray, lower: np.ndarray, lo: float, channel: ChannelParams,
                     upper: float, halvings: int):
    """The tensor quadrature of the interference exponent as a ragged table.

    Per row i the exponent is the integral of sum_g p_g x g/(1 + x g)
    `_path_loss_density`(l) over ln l from lower_i to max_s upper^alpha_s,
    x = s_i beta / l: with unit-mean exponential fading an interferer of path
    loss l adds 1 - GainMoment = sum_g p_g x g/(1 + x g), and the interferers
    of both states are the path-loss process above the serving path loss.
    The panels in ln l run from ``lo`` up and depend on the configuration
    alone: they split at each state's path loss of ``upper`` and of a LOS
    ball, and each gap is _PANEL_WIDTH * alpha wide, alpha the least exponent
    whose distances up to ``upper`` reach the gap's top. A row takes a partial
    panel of its own from its lower limit (or ``lo``, if that is higher) to
    the next edge, then the nodes of every panel above, so its sums depend on
    no other row. Nodes of weight exactly 0 are left out: a row from the top
    of the last weighted panel up has no entry.

    Returns a lazy iterator of blocks of whole rows with at most _MAX_TENSOR
    entries in all (a longer row is a block on its own). Each block is
    (rows, starts, inv_x, weight): the row indices; each row's first entry in
    the block; and per entry 1/x = l / (s beta) and its inner weight. Rows
    without an entry are in no block, and nothing here depends on the gain law.
    """
    alphas = (channel.alpha_los, channel.alpha_nlos)
    tops = [upper ** a for a in alphas]
    points = tops + ([channel.blockage.param ** a for a in alphas]
                     if channel.blockage.kind == "los_ball" else [])
    breaks = _log_breaks(lo, max(tops), points)
    reach = [(math.log(top), a) for top, a in zip(tops, alphas)]
    edges = _panel_edges(breaks, halvings, [
        _PANEL_WIDTH * min(a for log_top, a in reach if log_top >= b) for b in breaks[1:]])
    u, w = _gauss_nodes(edges)
    path_loss = np.exp(u)
    v_full = w * _path_loss_density(path_loss, channel, upper)
    weighted = np.flatnonzero(v_full)
    # Per row, two runs of the tables v and path_loss: the partial panel's,
    # then the full panels'. The weight is 0 from the top of the last weighted
    # panel up, and so is the partial panel of a row that starts there.
    start, length = np.zeros((2, len(s), 2), dtype=np.int32)
    log_lower = np.log(np.maximum(lower, lo))
    live = np.flatnonzero(log_lower < edges[weighted[-1] // len(_GL_X) + 1])
    log_lower = log_lower[live]
    first = np.searchsorted(edges, log_lower)
    half = 0.5 * (edges[first] - log_lower)
    path_loss_part = np.exp((log_lower + half)[:, None] + half[:, None] * _GL_X)
    v_part = half[:, None] * _GL_W * _path_loss_density(path_loss_part, channel, upper)
    weighted_part = v_part > 0.0
    n_part = weighted_part.sum(axis=1)
    start[live, 0] = len(weighted) + np.cumsum(n_part) - n_part
    length[live, 0] = n_part
    start[live, 1] = np.searchsorted(weighted // len(_GL_X), first)  # first node above
    length[live, 1] = len(weighted) - start[live, 1]
    v = np.concatenate([v_full[weighted], v_part[weighted_part]])
    path_loss = np.concatenate([path_loss[weighted], path_loss_part[weighted_part]])
    return _ragged_blocks(v, path_loss, 1.0 / (s * channel.beta), start, length)


def _ragged_blocks(v, path_loss, inv_s_beta, start, length):
    """Blocks of whole rows: run j of row i takes length[i, j] entries of v
    and path_loss from start[i, j] on; 1/x = l / (s beta)."""
    row_length = length.sum(axis=1)
    rows_left = np.flatnonzero(row_length)
    while len(rows_left):
        ends = np.cumsum(row_length[rows_left])
        rows = rows_left[:max(1, int(np.searchsorted(ends, _MAX_TENSOR, side="right")))]
        rows_left = rows_left[len(rows):]
        run_length = length[rows].ravel()
        run_end = np.cumsum(run_length, dtype=np.int32)
        index = np.repeat(start[rows].ravel() - (run_end - run_length), run_length)
        index += np.arange(run_end[-1], dtype=np.int32)
        inv_x = path_loss[index]
        with np.errstate(over="ignore"):
            inv_x *= np.repeat(inv_s_beta[rows], row_length[rows])
        yield rows, np.cumsum(row_length[rows]) - row_length[rows], inv_x, v[index]


def _combine_atoms(atoms, sums):
    """out = 0.0, then out + p * c * row for each (p, c) of ``atoms`` and row of ``sums``."""
    return sum((p * c * row for (p, c), row in zip(atoms, sums)), 0.0)


def _atom_sums(blocks, n: int, cs) -> np.ndarray:
    """Per c of ``cs`` and per row of `_exponent_blocks`, the sum of w/(c + 1/x): a gain
    atom adds p_g g/(g + 1/x) = p_g x g/(1 + x g) to the exponent (exact as x -> 0 and
    x -> inf), which at c = g * scale is p_g c w/(c + 1/x at scale 1)."""
    out = np.zeros((len(cs), n))
    for rows, starts, inv_x, weight in blocks:
        term = np.empty_like(inv_x)
        for i, c in enumerate(cs):
            np.divide(weight, np.add(inv_x, c, out=term), out=term)
            out[i, rows] = np.add.reduceat(term, starts)
        del term  # freed before the next block is built
    return out


def _interference_tail(s_beta_gain: float, path_loss: float, channel: ChannelParams,
                       quad: QuadratureSpec) -> float:
    """Bound on the exponent's part beyond the truncation radius, per unit 2*pi*lambda,
    for interferers of path loss above ``path_loss``: each state's from
    max(path_loss^(1/alpha_state), truncation radius) on."""
    upper = quad.truncation_radius_m
    tail = s_beta_gain * sum(
        _tail_radial_bound(channel.blockage, state, max(path_loss ** (1.0 / alpha), upper), alpha)
        for state, alpha in ((LOS, channel.alpha_los), (NLOS, channel.alpha_nlos)))
    if not math.isfinite(tail):
        raise QuadratureError(
            "interference tail bound diverges beyond the truncation radius "
            f"(blockage={channel.blockage.kind}, alphas=({channel.alpha_los}, "
            f"{channel.alpha_nlos})); the far field is not integrable")
    return tail


def _outer_r_min(lambda0: float, quad: QuadratureSpec) -> float:
    """The least serving distance r_min of the outer integral, at r_min^alpha in path loss."""
    return _R_MIN_FACTOR * min(_r0(lambda0), quad.truncation_radius_m)


def _least_path_loss(lambda0: float, channel: ChannelParams, quad: QuadratureSpec) -> float:
    """min_s r_min^alpha_s: where the outer panels and every inner grid start in ln l."""
    r_min = _outer_r_min(lambda0, quad)
    return min(r_min ** a for a in (channel.alpha_los, channel.alpha_nlos))


def laplace_interference(s: float, serving_distance: float, serving_state: str, k: int,
                         lambda0: float, channel: ChannelParams, beam: BeamParams,
                         quad: QuadratureSpec = DEFAULT_QUAD, full_output: bool = False):
    """Laplace functional E[exp(-s * I)] of the aggregate interference.

    Conditioning on the serving AP (state + distance d) excludes every
    interferer with more average power: the interferers of both states are
    the path-loss process above l0 = d^alpha_serving, the serving path loss.
    Their exponent is one row of `_exponent_blocks`, bitwise the coverage
    plan's row at the same s and l0. Returns the value in (0, 1]; with
    ``full_output`` also an absolute error estimate: the panel-halving
    difference plus the analytic truncation tail bound.
    """
    _check_state(serving_state)
    _require("transform variable", s, zero_ok=True)
    _require("serving distance", serving_distance)
    _require("intensity", lambda0, zero_ok=True)
    if s == 0.0 or lambda0 == 0.0:
        return (1.0, 0.0) if full_output else 1.0

    pmf = beam_gain_pmf(beam, k)
    with np.errstate(over="ignore"):  # no interferer lies beyond an infinite path loss
        path_loss = float(np.float64(serving_distance) ** channel.alpha(serving_state))
    tail = _TWO_PI * lambda0 * _interference_tail(
        s * channel.beta * pmf.expected_gain, path_loss, channel, quad)
    row = (np.array([s]), np.array([path_loss]), _least_path_loss(lambda0, channel, quad),
           channel, quad.truncation_radius_m)
    atoms = [(p, g) for g, p in pmf.support]

    def evaluate(halvings):
        blocks = _exponent_blocks(*row, halvings)
        exponent = _combine_atoms(atoms, _atom_sums(blocks, 1, [g for _, g in atoms]))[0]
        return (math.exp(-_TWO_PI * lambda0 * exponent),)

    (value,), quad_err = _refine(evaluate, quad, "interference Laplace functional")
    if full_output:
        # the far field scales the value by a factor in [max(0, 1 - tail), 1]
        return value, quad_err + value * min(tail, 1.0)
    return value


class _CoveragePlan:
    """The threshold- and gain-free part of the coverage quadrature, one row per outer
    node of the serving path loss l0 = d^alpha(state), whichever state serves.

    ``path_loss``: l0 at the nodes of non-zero weight. ``weight``: w times the
    density of the least path loss in ln l0. ``s_unit``: s at tau = 1,
    l0 / (g_main^2 beta). ``blocks``: the blocks of `_exponent_blocks` at those
    s and lower limits l0, lazily. ``outside``: the serving-distance mass left
    out, at most pi lambda0 r_min^2 below r_min, each state's nearest-AP mass
    beyond the truncation radius, and the leading nodes of cumulative weight
    at most _R_MIN_FACTOR^2 (the order of the mass below r_min), which are
    dropped because their inner range spans every panel.
    """

    def __init__(self, lambda0: float, channel: ChannelParams, g_main: float,
                 quad: QuadratureSpec, halvings: int):
        blockage, upper = channel.blockage, quad.truncation_radius_m
        r0, lo = _r0(lambda0), _least_path_loss(lambda0, channel, quad)
        alphas = (channel.alpha_los, channel.alpha_nlos)
        # Outer edges at each state's path loss of the truncation radius; of r0, 2 r0
        # and 4 r0, beyond which the law falls like exp(-pi lambda0 r^2); of a LOS ball.
        radii = [upper, r0, 2.0 * r0, 4.0 * r0]
        if blockage.kind == "los_ball":
            radii.append(blockage.param)
        breaks = _log_breaks(lo, max(upper ** a for a in alphas),
                             [r ** a for r in radii for a in alphas])
        u, w = _gauss_nodes(_panel_edges(breaks, halvings,
                                         [_PANEL_WIDTH * max(alphas)] * (len(breaks) - 1)))
        path_loss = np.exp(u)
        # APs of path loss below l: a Poisson count of mean Lambda(l) = 2 pi lambda0
        # sum_s M_s(l^(1/alpha_s)), M_s the radial mass. The least one has density
        # Lambda'(l) exp(-Lambda(l)), in ln l 2 pi lambda0 `_path_loss_density`(l).
        mass = sum(_radial_mass(blockage, state, path_loss ** (1.0 / channel.alpha(state)))
                   for state in (LOS, NLOS))
        weight = (w * _TWO_PI * lambda0 * _path_loss_density(path_loss, channel, upper)
                  * np.exp(-_TWO_PI * lambda0 * mass))
        rows = np.flatnonzero(weight > 0.0)
        cum = np.cumsum(weight[rows])
        start = int(np.searchsorted(cum, _R_MIN_FACTOR**2, side="right"))
        rows = rows[start:]
        beyond_los, beyond_nlos = _nearest_mass_beyond(lambda0, blockage, upper)
        self.path_loss, self.weight = path_loss[rows], weight[rows]
        self.s_unit = self.path_loss / (g_main**2 * channel.beta)
        self.blocks = _exponent_blocks(self.s_unit, self.path_loss, lo, channel, upper, halvings)
        self.outside = (math.pi * lambda0 * _outer_r_min(lambda0, quad)**2 + beyond_los
                        + beyond_nlos + (float(cum[start - 1]) if start else 0.0))


@functools.lru_cache(maxsize=8)
def _coverage_plan(lambda0: float, channel: ChannelParams, g_main: float,
                   quad: QuadratureSpec, halvings: int) -> _CoveragePlan:
    """A `_CoveragePlan` in read-only arrays, for the halvings every grid point runs: its
    tables are tau- and k-free, so one plan serves a configuration's (tau, k) grid."""
    plan = _CoveragePlan(lambda0, channel, g_main, quad, halvings)
    plan.blocks = tuple(tuple(block) for block in plan.blocks)
    for a in (plan.path_loss, plan.weight, plan.s_unit, *(a for b in plan.blocks for a in b)):
        a.setflags(write=False)
    return plan


@functools.lru_cache(maxsize=54)
def _plan_atom_rows(plan_ref: weakref.ref, c: float) -> np.ndarray:
    """The `_atom_sums` row at ``c`` of a cached plan, read-only.

    A row depends neither on k nor on how c = g tau splits into a gain atom g
    and a threshold: the 9 default thresholds at 5 dB steps and the atoms at
    40, 20 and 0 dB make 18 products, so a default sweep fills 36 entries. The
    weak key pins no evicted plan and, unlike an id(), matches no rebuilt one.
    """
    plan = plan_ref()
    row = _atom_sums(plan.blocks, len(plan.s_unit), [c])[0]
    row.setflags(write=False)
    return row


def coverage_probability(tau: float, k: int, lambda0: float, channel: ChannelParams,
                         beam: BeamParams, quad: QuadratureSpec = DEFAULT_QUAD,
                         full_output: bool = False):
    """Coverage P(SINR > tau) of a typical receiver, marginalized over association.

    Integrates the conditional coverage exp(-s sigma^2) * LaplaceInterference(s),
    s = l0 * tau / (g_main^2 beta), against the law of the serving path loss
    l0 = d^alpha(state), the least of the APs of both states (the path-loss
    process of Haenggi, IEEE TIT 2008; Bai & Heath's Laplace-functional form),
    as one tensor quadrature: outer panels in ln l0 from (1e-6 r0)^alpha to the
    truncation radius^alpha, inner panels in the interferers' ln l for every
    outer node at once.
    The reported error sums the panel-halving difference, the truncation tail
    bound weighted by the integrand, and the serving-distance mass outside the
    outer range or on the leading outer nodes that `_CoveragePlan` drops.

    Given l0 the interferers do not depend on the serving state, so the rows
    are one set, a `_CoveragePlan` of tau- and k-free tables. Up to
    _CACHED_HALVINGS halvings, `_coverage_plan` keeps one per configuration and
    panel count, looked up once per halving, and `_plan_atom_rows` its row sums
    per product c = g tau of a gain atom and tau, so all k at one tau, and the
    atoms of other thresholds with the same product, share one flat pass over
    each block. Finer panels are planned per call, every live atom summed in one
    pass over the blocks as they are built.
    """
    _require("SINR threshold", tau)
    _require("tier intensity", lambda0)
    clamped = tau > _TAU_CLAMP
    tau = min(tau, _TAU_CLAMP)
    pmf = beam_gain_pmf(beam, k)  # validates k against the RF-chain budget
    # The far-field tail of each node's Laplace exponent is at most s times
    # this (the bound from the truncation radius covers every lower limit).
    tail_per_s = _TWO_PI * lambda0 * _interference_tail(
        channel.beta * pmf.expected_gain, 0.0, channel, quad)
    atoms = [(p, g * tau) for g, p in pmf.support]
    cs = [c for _, c in atoms]

    def evaluate(halvings):
        key = (lambda0, channel, beam.g_main, quad, halvings)
        if halvings <= _CACHED_HALVINGS:
            plan = _coverage_plan(*key)
            exponent = _combine_atoms(atoms, [_plan_atom_rows(weakref.ref(plan), c) for c in cs])
        else:
            plan = _CoveragePlan(*key)
            exponent = _combine_atoms(atoms, _atom_sums(plan.blocks, len(plan.s_unit), cs))
        s = plan.s_unit * tau
        covered = plan.weight * np.exp(-s * channel.noise_power - _TWO_PI * lambda0 * exponent)
        return (float(covered.sum()), float(covered @ np.minimum(s * tail_per_s, 1.0)),
                plan.outside)

    (value, tail_err, outside), quad_err = _refine(evaluate, quad, "coverage integral")
    value = min(max(value, 0.0), 1.0)
    err = quad_err + tail_err + outside + (value if clamped else 0.0)
    return (value, err) if full_output else value


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
        _require("tier-0 intensity", self.lambda_tier0)
        _require("total density", self.lambda_total)
        if not self.lambda_total >= self.lambda_tier0:
            raise ValueError("total density must be at least the tier-0 density")
        if not self.rf_chains >= 1:
            raise ValueError("need at least one RF chain")
        _require("bandwidth", self.bandwidth)
        if not 1 <= self.gain_per_hop <= self.rf_chains:
            raise ValueError("per-hop gain must lie in 1..rf_chains")


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
    it equals the integer hop count whenever the split divides evenly, and it
    lies between its values at k = rf_chains and k = 1. Throughput is computed
    from the same coverage value, so the compositional identity holds exactly
    per result.
    """
    cov, err = coverage_probability(tau, k, net.lambda_tier0, channel, beam, quad,
                                    full_output=True)
    latency = _hop_ratio(net.lambda_total, net.lambda_tier0, k)
    thr = throughput_identity(k, tau, net, cov)
    return CoverageResult(tau=tau, k=k, coverage=cov, latency=latency,
                          throughput=thr, quad_error=err)


def _hop_ratio(lambda_total: float, lambda0: float, k: int) -> float:
    """Relay tiers per hop, (lambda_total - lambda0)/(k*lambda0): the latency in hops."""
    return (lambda_total - lambda0) / (k * lambda0)


def hop_count(lambda_total: float, lambda0: float, k: int, allow_floor: bool = False) -> int:
    """Number of hops M with uniform per-hop gain k: (lambda_total - lambda0)/(k*lambda0).

    The exact formula requires the density split to make M an integer; a
    non-integer result is rejected unless ``allow_floor`` is set, in which case
    the count is floored (the residual intensity is then unreachable).
    """
    _require("lambda0", lambda0)
    _require("lambda_total", lambda_total)
    if not lambda_total >= lambda0:
        raise ValueError("need lambda_total >= lambda0 > 0")
    if not k >= 1:
        raise ValueError("per-hop gain must be at least 1")
    m_real = _hop_ratio(lambda_total, lambda0, k)
    m_int = round(m_real)
    if abs(m_real - m_int) <= 1e-9 * max(1.0, abs(m_int)):
        return int(m_int)
    if allow_floor:
        return int(math.floor(m_real))
    raise ValueError(f"density split gives a non-integer hop count {m_real!r} at k = {k}")


def throughput_identity(k: int, tau: float, net: NetworkParams, cov: float) -> float:
    """Aggregate relay throughput W * k * lambda0 * C * log2(1 + tau).

    Dividing the relay tiers' total rate by the hop count cancels the total
    density, so the result depends on lambda_tier0 but not lambda_total.
    Kept as the single definition so every caller (and every test of the
    compositional identity) multiplies in the same order bitwise.
    """
    return net.bandwidth * k * net.lambda_tier0 * cov * math.log2(1.0 + tau)


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
        t = evaluate_point(tau, k, net, channel, beam, quad).throughput
        if t > best_t:
            best_k, best_t = k, t
    return best_k, best_t
