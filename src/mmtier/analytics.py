"""Analytical performance of the tiered AP network.

Everything here is a deterministic numerical evaluation: the association
(serving-distance) laws of the max-average-power scheduler over a marked
PPP, the Laplace functional of the out-of-cluster interference, the SINR
coverage integral, hop counts, and the per-gain throughput.
The distance laws are closed form; the Laplace functional and coverage use
fixed-node Gauss-Legendre panels in log radius, refined by halving until the
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
    def for_tier_intensity(cls, lambda0: float, rel_tol: float = rel_tol,
                           abs_tol: float = abs_tol) -> "QuadratureSpec":
        """Truncate at 50 mean inter-AP distances r0 = (pi*lambda0)^-1/2."""
        if not lambda0 > 0.0:
            raise ValueError("tier intensity must be positive")
        r0 = math.sqrt(1.0 / (math.pi * lambda0))
        return cls(rel_tol=rel_tol, abs_tol=abs_tol, truncation_radius_m=50.0 * r0)


DEFAULT_QUAD = QuadratureSpec()


# Fixed-node panel quadrature. Every integral below is a sum over
# Gauss-Legendre panels in log-radius, split at the integrand's kinks; an
# estimate is accepted once halving every panel moves it by at most
# max(abs_tol, rel_tol * value), and that difference is its quadrature error.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)
_PANEL_WIDTH = 2.0   # width in ln(radius) of the coarsest panels
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
    if not lam > 0.0:
        raise ValueError("intensity must be positive")
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0.0):
        raise ValueError("distance must be non-negative")
    out = (_TWO_PI * lam * z_arr * _state_probability(blockage, state, z_arr)
           * np.exp(-_TWO_PI * lam * _radial_mass(blockage, state, z_arr)))
    return float(out) if np.ndim(z) == 0 else out


def _exclusion_radii(state: str, r, channel: ChannelParams):
    """((state, r), (other, r^(alpha_state/alpha_other))): an interferer offers more
    average power than a serving ``state`` AP at distance r iff it lies inside its
    state's radius. ``r`` is a float or an array, and the radii keep its type."""
    other = NLOS if state == LOS else LOS
    return (state, r), (other, r ** (channel.alpha(state) / channel.alpha(other)))


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
    if np.any(r_arr <= 0.0):
        raise ValueError("serving distance must be positive")
    _, (other, w) = _exclusion_radii(state, r_arr, channel)
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
    value, from exactly 0 to exactly 1. A total mass off 1 by more than 1e-3
    raises. ``quad`` is not used.
    """
    if not lam > 0.0:
        raise ValueError("intensity must be positive")
    r_scale = math.sqrt(1.0 / (math.pi * lam))
    if channel.blockage.kind == "exponential":
        r_scale = max(r_scale, channel.blockage.param)
    elif channel.blockage.kind == "los_ball":
        # b times a power of two puts a knot at b, where both branches jump
        ball = channel.blockage.param
        r_scale = ball * 2.0 ** max(0, math.ceil(math.log2(r_scale / ball)))
    upper, n = 32.0 * r_scale, 16384
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
    if abs(mass_l + mass_n - 1.0) > 1e-3:
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


def _exponent_blocks(s: np.ndarray, fields, channel: ChannelParams, upper: float,
                     halvings: int):
    """The tensor quadrature of the interference exponent as a ragged table.

    ``fields`` holds the interferer fields of the rows as (lower, state) pairs.
    Per row i the exponent sums, over the fields, int_{lower_i}^upper
    (1 - GainMoment(s_i, t)) P_state(t) t dt. With unit-mean exponential
    fading, 1 - GainMoment = sum_g p_g x g/(1 + x g), x = s * beta * t^-alpha_state.
    The rows of one field share one set of panels in ln t, split at the
    blockage's LOS-ball radius; a row takes a partial panel of its own from
    its lower limit to the next edge, plus the nodes of every panel above.
    Nodes of weight exactly 0 (P_state(t) = 0) add nothing and are left out,
    and a field is live on a row only while its lower limit is below the top
    edge of the field's last weighted panel. A row's entries are, field after
    field, those of its partial panel and then those of its full panels.

    Returns a lazy iterator of blocks of whole rows with at most _MAX_TENSOR
    entries in all (a longer row is a block on its own). Each block is
    (rows, starts, inv_x, weight): the row indices; each row's first entry in
    the block; and per entry 1/x and its inner weight. Rows without an entry
    are in no block, and nothing here depends on the gain law.
    """
    ball = [channel.blockage.param] if channel.blockage.kind == "los_ball" else []
    # Per row and field, two runs of the tables v and t_alpha: the partial
    # panel's, then the full panels'.
    v, t_alpha, starts, lengths, size = [], [], [], [], 0
    for lower, state in fields:
        start, length = np.zeros((2, 2, len(s)), dtype=np.int32)
        starts.append(start)
        lengths.append(length)
        live = np.flatnonzero(lower < upper)
        if not len(live):
            continue
        edges = _panel_edges(_log_breaks(float(lower[live].min()), upper, ball), halvings)
        u, w = _gauss_nodes(edges)
        t = np.exp(u)
        v_full = w * _state_probability(channel.blockage, state, t) * t * t  # dt = t du
        weighted = np.flatnonzero(v_full)
        if not len(weighted):
            continue
        node_panel = weighted // len(_GL_X)
        # The weight is 0 from the top of the last weighted panel up (beyond a
        # LOS ball), and so is the partial panel of a row that starts there.
        log_lower = np.log(lower[live])
        keep = log_lower < edges[node_panel[-1] + 1]
        live, log_lower = live[keep], log_lower[keep]
        first = np.searchsorted(edges, log_lower)
        half = 0.5 * (edges[first] - log_lower)
        u_part = (log_lower + half)[:, None] + half[:, None] * _GL_X
        t_part = np.exp(u_part)
        v_part = (half[:, None] * _GL_W * t_part**2
                  * _state_probability(channel.blockage, state, t_part))
        weighted_part = v_part > 0.0
        n_part = weighted_part.sum(axis=1)
        start[0, live] = size + len(weighted) + np.cumsum(n_part) - n_part
        length[0, live] = n_part
        lo = np.searchsorted(node_panel, first)  # the first node at or above a row's limit
        start[1, live] = size + lo
        length[1, live] = len(weighted) - lo
        v += [v_full[weighted], v_part[weighted_part]]
        with np.errstate(over="ignore"):
            t_alpha += [np.exp(channel.alpha(state) * np.concatenate(
                [u[weighted], u_part[weighted_part]]))]
        size += len(weighted) + int(n_part.sum())
    v = np.concatenate(v) if v else np.zeros(0)
    t_alpha = np.concatenate(t_alpha) if t_alpha else np.zeros(0)
    start, length = (np.vstack(a).T for a in (starts, lengths))
    return _ragged_blocks(v, t_alpha, 1.0 / (s * channel.beta), start, length)


def _ragged_blocks(v, t_alpha, inv_s_beta, start, length):
    """Blocks of whole rows: run j of row i takes length[i, j] entries of v
    and t_alpha from start[i, j] on; 1/x = t^alpha / (s beta)."""
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
        inv_x = t_alpha[index]
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


def _interference_tail(s_beta_gain: float, lower_los: float, lower_nlos: float,
                       channel: ChannelParams, quad: QuadratureSpec) -> float:
    """Bound on the exponent's part beyond the truncation radius, per unit 2*pi*lambda."""
    upper = quad.truncation_radius_m
    tail = s_beta_gain * (
        _tail_radial_bound(channel.blockage, LOS, max(lower_los, upper), channel.alpha_los)
        + _tail_radial_bound(channel.blockage, NLOS, max(lower_nlos, upper),
                             channel.alpha_nlos))
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
    if not 0.0 <= s < math.inf:
        raise ValueError("transform variable must be non-negative and finite")
    if not serving_distance > 0.0:
        raise ValueError("serving distance must be positive")
    if not 0.0 <= lambda0 < math.inf:
        raise ValueError("intensity must be non-negative and finite")
    if s == 0.0 or lambda0 == 0.0:
        return (1.0, 0.0) if full_output else 1.0

    pmf = beam_gain_pmf(beam, k)
    lower = dict(_exclusion_radii(serving_state, serving_distance, channel))
    tail = _TWO_PI * lambda0 * _interference_tail(
        s * channel.beta * pmf.expected_gain, lower[LOS], lower[NLOS], channel, quad)
    s_arr = np.array([s])
    fields = [(np.array([lower[st]]), st) for st in (LOS, NLOS)]
    upper = quad.truncation_radius_m
    atoms = [(p, g) for g, p in zip(pmf.gains, pmf.probs) if p > 0.0]

    def evaluate(halvings):
        blocks = _exponent_blocks(s_arr, fields, channel, upper, halvings)
        exponent = _combine_atoms(atoms, _atom_sums(blocks, 1, [g for _, g in atoms]))[0]
        return (math.exp(-_TWO_PI * lambda0 * exponent),)

    (value,), quad_err = _refine(evaluate, quad, "interference Laplace functional")
    if full_output:
        # the far field scales the value by a factor in [max(0, 1 - tail), 1]
        return value, quad_err + value * min(tail, 1.0)
    return value


def _outer_r_min(lambda0: float, quad: QuadratureSpec) -> float:
    """Lower limit of the outer integral over the serving distance."""
    return _R_MIN_FACTOR * min(math.sqrt(1.0 / (math.pi * lambda0)), quad.truncation_radius_m)


class _CoveragePlan:
    """The threshold- and gain-free part of the coverage quadrature, both serving states.

    ``weight``: the outer weights w * r * f_state(r) of the nodes with non-zero
    weight, LOS-served rows first. ``s_unit``: their s at tau = 1, r^alpha /
    (g_main^2 beta). ``blocks``: the blocks of `_exponent_blocks` at those s,
    lazily, from one call with four fields (each state's same- and
    opposite-state interferers, dead at lower limit inf on the other state's
    rows). ``outside``: the serving-distance mass left out, at most pi lambda0
    r_min^2 below r_min, each state's nearest-AP mass beyond the truncation
    radius, and per state the leading nodes of cumulative weight at most
    _R_MIN_FACTOR^2 (the order of the mass below r_min), which are dropped
    because their inner range spans every panel.
    """

    def __init__(self, lambda0: float, channel: ChannelParams, g_main: float,
                 quad: QuadratureSpec, halvings: int):
        blockage = channel.blockage
        upper = quad.truncation_radius_m
        r0 = math.sqrt(1.0 / (math.pi * lambda0))
        # Outer edges: where an NLOS-served receiver's LOS exclusion disc reaches
        # the truncation radius; r0, 2 r0 and 4 r0, beyond which the law falls like
        # exp(-pi lambda0 r^2); for a LOS ball of radius b, b itself and where
        # either exclusion disc reaches b.
        ratio = channel.alpha_los / channel.alpha_nlos
        breaks = [upper ** ratio, r0, 2.0 * r0, 4.0 * r0]
        if blockage.kind == "los_ball":
            breaks += [blockage.param, blockage.param ** ratio, blockage.param ** (1.0 / ratio)]
        u, w = _gauss_nodes(_panel_edges(_log_breaks(_outer_r_min(lambda0, quad), upper,
                                                     breaks), halvings))
        r = np.exp(u)
        served, dropped = [], 0.0
        for state in (LOS, NLOS):
            weight = w * r * serving_distance_pdf(r, state, lambda0, channel)  # dr = r du
            keep = weight > 0.0
            rs, weight = r[keep], weight[keep]
            cum = np.cumsum(weight)
            start = int(np.searchsorted(cum, _R_MIN_FACTOR**2, side="right"))
            dropped += float(cum[start - 1]) if start else 0.0
            served.append((state, rs[start:], weight[start:]))
        fields = []
        for i, (state, rs, _) in enumerate(served):
            for field_state, lower in _exclusion_radii(state, rs, channel):
                padded = [np.full(len(rows), np.inf) for _, rows, _ in served]
                padded[i] = lower
                fields.append((np.concatenate(padded), field_state))
        beyond_los, beyond_nlos = _nearest_mass_beyond(lambda0, blockage, upper)
        self.weight = np.concatenate([weight for *_, weight in served])
        self.s_unit = np.concatenate([rs ** channel.alpha(state) / (g_main**2 * channel.beta)
                                      for state, rs, _ in served])
        self.blocks = _exponent_blocks(self.s_unit, fields, channel, upper, halvings)
        self.outside = (math.pi * lambda0 * _outer_r_min(lambda0, quad)**2 + beyond_los
                        + beyond_nlos + dropped)


@functools.lru_cache(maxsize=8)
def _coverage_plan(lambda0: float, channel: ChannelParams, g_main: float,
                   quad: QuadratureSpec, halvings: int) -> _CoveragePlan:
    """A `_CoveragePlan` in read-only arrays, for the halvings every grid point runs: its
    tables are tau- and k-free, so one plan serves a configuration's (tau, k) grid."""
    plan = _CoveragePlan(lambda0, channel, g_main, quad, halvings)
    plan.blocks = tuple(tuple(block) for block in plan.blocks)
    for a in (plan.weight, plan.s_unit, *(a for block in plan.blocks for a in block)):
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
    s = r^alpha_state * tau / (g_main^2 beta), against the two serving-distance
    branches (Bai & Heath's Laplace-functional form) as one tensor quadrature:
    outer panels in ln r from 1e-6 r0 to the truncation radius, inner panels in
    ln t for every outer node at once. The reported error sums the panel-halving
    difference, the truncation tail bound weighted by the integrand, and the
    serving-distance mass outside the outer range or on the leading outer
    nodes that `_CoveragePlan` drops.

    Both serving states are one row set, a `_CoveragePlan` of tau- and k-free
    tables. Up to _CACHED_HALVINGS halvings, `_coverage_plan` keeps one per
    configuration and panel count, looked up once per halving, and
    `_plan_atom_rows` its row sums per product c = g tau of a gain atom and
    tau, so all k at one tau, and the atoms of other thresholds with the same
    product, share one flat pass over each block. Finer panels are planned per
    call, every live atom summed in one pass over the blocks as they are built.
    """
    if not 0.0 < tau < math.inf:
        raise ValueError("SINR threshold must be positive and finite")
    if not 0.0 < lambda0 < math.inf:
        raise ValueError("tier intensity must be positive and finite")
    clamped = tau > _TAU_CLAMP
    tau = min(tau, _TAU_CLAMP)
    pmf = beam_gain_pmf(beam, k)  # validates k against the RF-chain budget
    upper = quad.truncation_radius_m
    # The far-field tail of each node's Laplace exponent is at most s times
    # this (the bound from the truncation radius covers every exclusion radius).
    tail_per_s = _TWO_PI * lambda0 * _interference_tail(
        channel.beta * pmf.expected_gain, upper, upper, channel, quad)
    atoms = [(p, g * tau) for g, p in zip(pmf.gains, pmf.probs) if p > 0.0]
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
        if not self.lambda_tier0 > 0.0:
            raise ValueError("tier-0 intensity must be positive")
        if not self.lambda_tier0 <= self.lambda_total < math.inf:
            raise ValueError("total density must be finite and at least the tier-0 density")
        if self.rf_chains < 1:
            raise ValueError("need at least one RF chain")
        if not self.bandwidth > 0.0:
            raise ValueError("bandwidth must be positive")
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
    if not lambda0 > 0.0 or lambda_total < lambda0:
        raise ValueError("need lambda_total >= lambda0 > 0")
    if k < 1:
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
