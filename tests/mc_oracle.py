"""Reference Monte Carlo experiments, kept as test oracles for `mmtier.montecarlo`.

`realize_hop` places every transmitter of one trial in the plane and picks
the serving AP. `compute_sinr` then draws the fading and beam gains and
returns that trial's SINR, and `sinr_samples` runs the pair over a run's
trials: the indicator 1{SINR > tau} is the raw coverage estimator.
`mmtier.montecarlo` integrates the fading and gains out instead, at the same
positions; `success_probability` is that conditional value computed as the
plain product over every interferer.

`realize_hop` rebuilds the trial's marked PPP by hand rather than through
`mmtier.montecarlo._marked_ppp`, so the reference stays independent of the
sampler it pins: a Poisson count n, redrawn while it is zero, then 2n
uniforms split into radii and LOS marks; `compute_sinr` then draws n unit
exponentials and n gain uniforms, point i taking entry i of each. The stream
holds no angles (no estimate depends on them), so `realize_hop` spreads the
points by the golden angle.

`reference_stream` is trial i's stream by numpy's documented jump
construction alone, which `mmtier.montecarlo` reaches by stepping one
generator from trial to trial; the references here draw from it.

`raw_laplace_samples` is the raw exp(-s I) estimator of the interference
Laplace transform: on each trial's Laplace stream it draws the positions
(`laplace_positions`), then a fading and a gain per interferer.
`mmtier.montecarlo` integrates those two draws out; by the tower property
its per-trial value is the mean of this one's over fading and gains at the
trial's positions.

`dense_laplace_samples` is that integrated-out value by the plain dense rule,
on `mmtier.montecarlo._marked_ppp`'s own chunks: it pins the arithmetic of the
sampler's Laplace kernel, not its positions.
"""

import math
from dataclasses import dataclass

import numpy as np

from mmtier import montecarlo
from mmtier.channel import (LOS, NLOS, BeamParams, ChannelParams, GainPmf, beam_gain_pmf,
                            los_probability)
from mmtier.montecarlo import _SUB_COVERAGE, _SUB_LAPLACE, SimConfig, SimulationError

_EMPTY_RESAMPLE_LIMIT = 10_000  # empty draws of one trial before `realize_hop` gives up
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def reference_stream(seed: int, trial: int, substream: int) -> np.random.Generator:
    """Trial `trial`'s generator on `substream`: PCG64DXSM from SeedSequence([seed,
    substream]), jumped `trial` times."""
    bits = np.random.PCG64DXSM(np.random.SeedSequence([seed, substream]))
    return np.random.Generator(bits.jumped(trial))


def draw_gains(pmf: GainPmf, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` i.i.d. gains of ``pmf``, one uniform u each.

    Atom i is drawn when u lies in [e_{i-1}, e_i) of the cumulative edges; the
    last atom takes every u >= e_1, so rounding of the final edge cannot index
    past it.
    """
    e0, e1, _ = np.cumsum(pmf.probs).tolist()
    u = rng.random(size)
    return np.asarray(pmf.gains, dtype=float).take(np.add(u >= e0, u >= e1, dtype=np.intp))


@dataclass
class HopRealization:
    """One sampled hop: serving AP, interferers, receiver pinned at the origin."""

    serving_position: np.ndarray
    serving_is_los: bool
    interferer_positions: np.ndarray
    interferer_is_los: np.ndarray
    resamples: int = 0
    serving_index: int = 0  # the serving AP's place in draw order among all points

    @property
    def serving_distance(self) -> float:
        return float(np.hypot(*self.serving_position))

    @property
    def interferer_distances(self) -> np.ndarray:
        return np.hypot(self.interferer_positions[:, 0], self.interferer_positions[:, 1])

    def exclusion_holds(self, channel: ChannelParams) -> bool:
        """No interferer may offer more average power than the serving AP."""
        d0 = self.serving_distance
        a0 = channel.alpha_los if self.serving_is_los else channel.alpha_nlos
        p0 = d0**-a0
        d = self.interferer_distances
        if len(d) == 0:
            return True
        alpha = np.where(self.interferer_is_los, channel.alpha_los, channel.alpha_nlos)
        return bool(np.all(d**-alpha <= p0 * (1.0 + 1e-12)))


def realize_hop(lambda0: float, channel: ChannelParams, sim: SimConfig,
                rng: np.random.Generator) -> HopRealization:
    """Sample transmitters around the origin-receiver and pick the serving AP.

    Transmitters form a PPP(lambda0) on the window, each independently LOS
    with probability P_L(distance). The serving AP maximizes the average
    received power beta * d^-alpha(state); everyone else interferes. Empty
    draws are resampled and counted; persistent emptiness raises
    SimulationError.
    """
    window = sim.window_radius_m
    mean_count = lambda0 * math.pi * window**2
    resamples = 0
    n = rng.poisson(mean_count)
    while n == 0:
        resamples += 1
        if resamples > _EMPTY_RESAMPLE_LIMIT:
            raise SimulationError("PPP sample repeatedly empty")
        n = rng.poisson(mean_count)
    u = rng.random(2 * n)
    radii = window * np.sqrt(u[:n])
    angles = _GOLDEN_ANGLE * np.arange(n)
    is_los = u[n:] < los_probability(radii, channel.blockage)
    positions = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    power = radii ** -np.where(is_los, channel.alpha_los, channel.alpha_nlos)
    serving = int(np.argmax(power))
    keep = np.arange(n) != serving
    return HopRealization(
        serving_position=positions[serving],
        serving_is_los=bool(is_los[serving]),
        interferer_positions=positions[keep],
        interferer_is_los=is_los[keep],
        resamples=resamples,
        serving_index=serving,
    )


def compute_sinr(real: HopRealization, k: int, channel: ChannelParams, beam: BeamParams,
                 rng: np.random.Generator) -> float:
    """SINR of the origin receiver for one realization, with fresh fading.

    Numerator: h0 * g_main^2 * pathloss(serving). Each interferer contributes
    independent fading times a beam gain drawn from the k-stream gain
    distribution. Every point, the serving AP included, takes the fading and
    the gain uniform at its place in draw order; the serving AP's gain is
    unused. Zero noise with no interferers yields +inf (covered at any
    threshold).
    """
    pmf = beam_gain_pmf(beam, k)
    d0 = real.serving_distance
    a0 = channel.alpha_los if real.serving_is_los else channel.alpha_nlos
    d, j = real.interferer_distances, real.serving_index
    h = rng.exponential(size=len(d) + 1)
    gains = draw_gains(pmf, rng, len(d) + 1)
    signal = h[j] * beam.g_main**2 * channel.beta * d0**-a0

    h, gains = np.delete(h, j), np.delete(gains, j)
    alpha = np.where(real.interferer_is_los, channel.alpha_los, channel.alpha_nlos)
    interference = float(np.sum(h * gains * channel.beta * d**-alpha))
    denom = channel.noise_power + interference
    if denom == 0.0:
        return math.inf
    return signal / denom


def sinr_samples(k: int, lambda0: float, channel: ChannelParams, beam: BeamParams,
                 sim: SimConfig) -> np.ndarray:
    """Per-trial SINR: `realize_hop`, then `compute_sinr`, on trial i's coverage stream."""
    out = np.empty(sim.trials)
    for i in range(sim.trials):
        rng = reference_stream(sim.master_seed, i, _SUB_COVERAGE)
        out[i] = compute_sinr(realize_hop(lambda0, channel, sim, rng), k, channel, beam, rng)
    return out


def success_probability(real: HopRealization, tau: float, k: int, channel: ChannelParams,
                        beam: BeamParams) -> float:
    """P(SINR > tau | positions) of one realization: with unit-mean Rayleigh fading,
    exp(-tau sigma^2 w0/(g_m^2 beta)) times, per interferer at d^alpha = w,
    sum_g p_g/(1 + tau g w0/(g_m^2 w))."""
    pmf = beam_gain_pmf(beam, k)
    a0 = channel.alpha_los if real.serving_is_los else channel.alpha_nlos
    w0 = real.serving_distance ** a0
    alpha = np.where(real.interferer_is_los, channel.alpha_los, channel.alpha_nlos)
    y = w0 / real.interferer_distances ** alpha
    scale = tau / beam.g_main**2
    factors = sum(p / (1.0 + scale * g * y) for g, p in zip(pmf.gains, pmf.probs))
    return math.exp(-scale * channel.noise_power * w0 / channel.beta) * math.prod(factors.tolist())


def laplace_positions(lambda0: float, channel: ChannelParams, sim: SimConfig,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Radii and LOS marks of one trial of the Laplace stream: a Poisson count n,
    then n radius and n LOS-mark uniforms (no angles, no resampling)."""
    n = rng.poisson(lambda0 * math.pi * sim.window_radius_m**2)
    u = rng.random(2 * n)
    radii = sim.window_radius_m * np.sqrt(u[:n])
    return radii, u[n:] < los_probability(radii, channel.blockage)


def interferer_power(radii: np.ndarray, is_los: np.ndarray, serving_distance: float,
                     serving_state: str, channel: ChannelParams) -> np.ndarray:
    """d^-alpha(state) of the points outside the exclusion discs of a serving AP at
    (serving_distance, serving_state)."""
    other = NLOS if serving_state == LOS else LOS
    excl = {serving_state: serving_distance,
            other: serving_distance ** (channel.alpha(serving_state) / channel.alpha(other))}
    keep = radii > np.where(is_los, excl[LOS], excl[NLOS])
    return radii[keep] ** -np.where(is_los[keep], channel.alpha_los, channel.alpha_nlos)


def raw_laplace_samples(s: float, serving_distance: float, serving_state: str, k: int,
                        lambda0: float, channel: ChannelParams, beam: BeamParams,
                        sim: SimConfig) -> np.ndarray:
    """Per-trial exp(-s I), with the fading and the gains drawn after the positions
    on trial i's Laplace stream."""
    pmf = beam_gain_pmf(beam, k)
    vals = np.empty(sim.trials)
    for i in range(sim.trials):
        rng = reference_stream(sim.master_seed, i, _SUB_LAPLACE)
        radii, is_los = laplace_positions(lambda0, channel, sim, rng)
        power = interferer_power(radii, is_los, serving_distance, serving_state, channel)
        weights = rng.exponential(size=len(power)) * draw_gains(pmf, rng, len(power))
        vals[i] = math.exp(-s * channel.beta * float(weights @ power))
    return vals


def dense_laplace_samples(tuples, lambda0: float, channel: ChannelParams, beam: BeamParams,
                          sim: SimConfig) -> np.ndarray:
    """E[exp(-s I) | positions] per tuple (row) and trial (column): every point takes
    w = d^alpha, or w = inf when w is at most the serving AP's r^alpha, and adds the
    factor max(1 - sum_g p_g c_g/(w + c_g), 0), c_g = s beta g; a trial's value is the
    product of its factors in draw order, an empty window's 1."""
    vals = np.ones((len(tuples), sim.trials))
    for first, counts, starts, _, _, inv_power in montecarlo._marked_ppp(
            lambda0, channel, sim, _SUB_LAPLACE, served=False):
        for row, (s, r, state, k) in zip(vals, tuples):
            pmf = beam_gain_pmf(beam, k)
            w = np.where(inv_power > r ** channel.alpha(state), inv_power, np.inf)
            total = sum(p * s * channel.beta * g / (w + s * channel.beta * g)
                        for g, p in zip(pmf.gains, pmf.probs) if p > 0.0)
            factor = np.maximum(1.0 - total, 0.0).tolist()
            for i, (start, n) in enumerate(zip(starts, counts), first):
                row[i] = math.prod(factor[start:start + n])
    return vals
