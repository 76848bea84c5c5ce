"""Brute-force Monte Carlo twin of the analytical module.

Realizes the per-hop typical-receiver experiment by actual point sampling:
drop the receiver at the origin, scatter the scheduled transmitters as a
marked PPP, associate with the maximum-average-power AP, and measure SINR,
association distances and the interference Laplace functional empirically.

Every trial owns a counter-based random stream derived from the master seed
(Philox keyed by seed, counter set from the trial index), so a trial's draws,
and hence every estimate, are bitwise reproducible and do not depend on how
many other trials run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import (
    LOS,
    BeamParams,
    BlockageModel,
    ChannelParams,
    beam_gain_pmf,
    _check_state,
    _p_los_raw,
)

_WILSON_Z = 1.959963984540054  # two-sided 95%

# Substream tags keep unrelated experiments off the same variates.
_SUB_COVERAGE = 1
_SUB_ASSOCIATION = 2
_SUB_LAPLACE = 3

_EMPTY_RESAMPLE_LIMIT = 10_000


class SimulationError(RuntimeError):
    """Raised when a simulation cannot produce valid realizations."""


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run geometry, trial count and master seed.

    ``truncation_radius_m``, when given, is the analytical truncation radius
    the window must cover so that simulation and quadrature discard the same
    far field.
    """

    window_radius_m: float
    trials: int
    master_seed: int = 0
    truncation_radius_m: float | None = None

    def __post_init__(self):
        if not self.window_radius_m > 0.0:
            raise ValueError("window radius must be positive")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master seed must fit in 64 bits")
        if self.truncation_radius_m is not None \
                and self.window_radius_m < self.truncation_radius_m:
            raise ValueError("window must cover the analytical truncation radius")


def trial_stream(master_seed: int, trial: int, substream: int = 0) -> np.random.Generator:
    """Independent per-trial generator: Philox keyed by seed, counter = trial index."""
    bits = np.random.Philox(key=np.uint64(master_seed),
                            counter=[0, 0, np.uint64(substream), np.uint64(trial)])
    return np.random.Generator(bits)


class _StreamFactory:
    """One reusable Philox generator, rewound to a trial's counter on demand.

    Produces bit-identical streams to `trial_stream` while skipping the
    per-trial object construction.
    """

    def __init__(self, master_seed: int, substream: int):
        self._bits = np.random.Philox(key=np.uint64(master_seed))
        self._gen = np.random.Generator(self._bits)
        state = self._bits.state
        state["state"]["counter"][2] = substream
        self._state = state

    def at(self, trial: int) -> np.random.Generator:
        state = self._state
        state["state"]["counter"][3] = trial
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        state["uinteger"] = 0
        self._bits.state = state
        return self._gen


def _trial_streams(sim: SimConfig, substream: int):
    """The generators of trials 0 .. sim.trials - 1, in order (one object, rewound)."""
    factory = _StreamFactory(sim.master_seed, substream)
    return (factory.at(i) for i in range(sim.trials))


def _marked_ppp(rng: np.random.Generator, mean_count: float, window_m: float,
                blockage: BlockageModel):
    """One non-empty draw of the LOS-marked PPP on the disc of radius window_m.

    Returns (radii, angle uniforms, LOS marks, empty draws resampled); the
    angle of point i is 2*pi times its uniform. The stream is a Poisson count
    n, then 3n uniforms: radii, angles, LOS marks. An empty draw is resampled;
    persistent emptiness aborts, since it means the window is far too small
    for the intensity.
    """
    if not mean_count > 0.0:
        raise ValueError("intensity must be positive")
    resamples = 0
    n = rng.poisson(mean_count)
    while n == 0:
        resamples += 1
        if resamples > _EMPTY_RESAMPLE_LIMIT:
            raise SimulationError(
                "PPP sample repeatedly empty; window too small for the intensity")
        n = rng.poisson(mean_count)
    u = rng.random(3 * n)
    radii = window_m * np.sqrt(u[:n])
    is_los = u[2 * n:] < _p_los_raw(radii, blockage)
    return radii, u[n:2 * n], is_los, resamples


def _mean_power(radii: np.ndarray, is_los: np.ndarray, channel: ChannelParams) -> np.ndarray:
    """Average received power per unit intercept, d^-alpha(state)."""
    return radii ** -np.where(is_los, channel.alpha_los, channel.alpha_nlos)


@dataclass
class HopRealization:
    """One sampled hop: serving AP, interferers, receiver pinned at the origin."""

    serving_position: np.ndarray
    serving_is_los: bool
    interferer_positions: np.ndarray
    interferer_is_los: np.ndarray
    resamples: int = 0

    @property
    def serving_distance(self) -> float:
        return float(np.hypot(*self.serving_position))

    @property
    def interferer_distances(self) -> np.ndarray:
        return np.hypot(self.interferer_positions[:, 0], self.interferer_positions[:, 1])

    def exclusion_holds(self, channel: ChannelParams, rtol: float = 1e-12) -> bool:
        """No interferer may offer more average power than the serving AP."""
        d0 = self.serving_distance
        a0 = channel.alpha_los if self.serving_is_los else channel.alpha_nlos
        p0 = d0**-a0
        d = self.interferer_distances
        if len(d) == 0:
            return True
        alpha = np.where(self.interferer_is_los, channel.alpha_los, channel.alpha_nlos)
        return bool(np.all(d**-alpha <= p0 * (1.0 + rtol)))


def realize_hop(lambda0: float, channel: ChannelParams, sim: SimConfig,
                rng: np.random.Generator) -> HopRealization:
    """Sample transmitters around the origin-receiver and pick the serving AP.

    Transmitters form a PPP(lambda0) on the window, each independently LOS
    with probability P_L(distance). The serving AP maximizes the average
    received power beta * d^-alpha(state); everyone else interferes. Empty
    draws are resampled and counted. This is the per-realization reference
    that `sinr_samples` reproduces from the same stream without positions.
    """
    radii, turns, is_los, resamples = _marked_ppp(
        rng, lambda0 * math.pi * sim.window_radius_m**2, sim.window_radius_m,
        channel.blockage)
    angles = 2.0 * math.pi * turns
    positions = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    serving = int(np.argmax(_mean_power(radii, is_los, channel)))
    keep = np.arange(len(radii)) != serving
    return HopRealization(
        serving_position=positions[serving],
        serving_is_los=bool(is_los[serving]),
        interferer_positions=positions[keep],
        interferer_is_los=is_los[keep],
        resamples=resamples,
    )


def compute_sinr(real: HopRealization, k: int, channel: ChannelParams, beam: BeamParams,
                 rng: np.random.Generator) -> float:
    """SINR of the origin receiver for one realization, with fresh fading.

    Numerator: h0 * g_main^2 * pathloss(serving). Each interferer contributes
    independent fading times a beam gain drawn from the k-stream gain
    distribution. Zero noise with no interferers yields +inf (covered at any
    threshold).
    """
    pmf = beam_gain_pmf(beam, k)
    d0 = real.serving_distance
    a0 = channel.alpha_los if real.serving_is_los else channel.alpha_nlos
    h0 = rng.exponential()
    signal = h0 * beam.g_main**2 * channel.beta * d0**-a0

    d = real.interferer_distances
    h = rng.exponential(size=len(d))
    gains = pmf.sample(rng, len(d))
    alpha = np.where(real.interferer_is_los, channel.alpha_los, channel.alpha_nlos)
    interference = float(np.sum(h * gains * channel.beta * d**-alpha))
    denom = channel.noise_power + interference
    if denom == 0.0:
        return math.inf
    return signal / denom


def _check_resample_rate(resamples: int, trials: int) -> None:
    if resamples > max(1.0, 1e-4 * trials):
        raise SimulationError(
            f"{resamples} empty-window resamples in {trials} trials; "
            "window too small for the intensity")


def sinr_samples(k: int, lambda0: float, channel: ChannelParams, beam: BeamParams,
                 sim: SimConfig) -> np.ndarray:
    """Per-trial SINR draws of the typical-receiver experiment (linear scale).

    Trial i equals compute_sinr(realize_hop(...)) on trial i's stream; the
    fading of the serving AP and of the interferers comes from one draw.
    """
    pmf = beam_gain_pmf(beam, k)
    mean_count = lambda0 * math.pi * sim.window_radius_m**2
    out = np.empty(sim.trials)
    resamples = 0
    for i, rng in enumerate(_trial_streams(sim, _SUB_COVERAGE)):
        radii, _, is_los, extra = _marked_ppp(rng, mean_count, sim.window_radius_m,
                                              channel.blockage)
        resamples += extra
        power = _mean_power(radii, is_los, channel)
        j = int(power.argmax())
        fading = rng.exponential(size=len(radii))
        weights = fading[1:] * pmf.sample(rng, len(radii) - 1)
        # Interferers are every point but j, in draw order: skip j without a copy.
        interference = channel.beta * float(weights[:j] @ power[:j]
                                             + weights[j:] @ power[j + 1:])
        denom = channel.noise_power + interference
        out[i] = (math.inf if denom == 0.0
                  else fading[0] * beam.g_main**2 * channel.beta * power[j] / denom)
    _check_resample_rate(resamples, sim.trials)
    return out


@lru_cache(maxsize=16)
def _sinr_samples_cached(k: int, lambda0: float, channel: ChannelParams, beam: BeamParams,
                         sim: SimConfig) -> np.ndarray:
    return sinr_samples(k, lambda0, channel, beam, sim)


def wilson_halfwidth(successes: int, trials: int, z: float = _WILSON_Z) -> float:
    """Half-width of the Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
    p = successes / trials
    denom = 1.0 + z**2 / trials
    return z * math.sqrt(p * (1.0 - p) / trials + z**2 / (4.0 * trials**2)) / denom


def empirical_coverage(tau: float, k: int, lambda0: float, channel: ChannelParams,
                       beam: BeamParams, sim: SimConfig) -> tuple[float, float]:
    """Fraction of trials with SINR above tau, plus a 95% Wilson half-width.

    The SINR draws depend only on (k, lambda0, channel, beam, sim), so
    sweeping tau over a fixed configuration reuses one realization set and is
    exactly monotone in tau.
    """
    if not tau > 0.0:
        raise ValueError("SINR threshold must be positive")
    if sim.trials < 100:
        raise ValueError("coverage estimation needs at least 100 trials")
    samples = _sinr_samples_cached(k, lambda0, channel, beam, sim)
    covered = int(np.count_nonzero(samples > tau))
    return covered / sim.trials, wilson_halfwidth(covered, sim.trials)


def serving_distance_samples(lambda0: float, channel: ChannelParams,
                             sim: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Association distances and LOS flags over sim.trials realizations."""
    mean_count = lambda0 * math.pi * sim.window_radius_m**2
    dist = np.empty(sim.trials)
    is_los = np.empty(sim.trials, dtype=bool)
    resamples = 0
    for i, rng in enumerate(_trial_streams(sim, _SUB_ASSOCIATION)):
        radii, _, los, extra = _marked_ppp(rng, mean_count, sim.window_radius_m,
                                           channel.blockage)
        resamples += extra
        j = int(_mean_power(radii, los, channel).argmax())
        dist[i], is_los[i] = radii[j], los[j]
    _check_resample_rate(resamples, sim.trials)
    return dist, is_los


def empirical_laplace(s: float, serving_distance: float, serving_state: str, k: int,
                      lambda0: float, channel: ChannelParams, beam: BeamParams,
                      sim: SimConfig) -> tuple[float, float]:
    """Sample mean of exp(-s * I) conditioned on the serving AP, plus its std error.

    The serving AP is pinned at the given distance/state; interferers are the
    marked PPP thinned by the exclusion rule (same-state points beyond the
    serving distance, opposite-state points beyond its power-equivalent
    radius). Per-trial means are combined by compensated summation.
    """
    _check_state(serving_state)
    if s < 0.0:
        raise ValueError("transform variable must be non-negative")
    if not serving_distance > 0.0:
        raise ValueError("serving distance must be positive")
    if sim.trials < 10_000:
        raise ValueError("Laplace estimation needs at least 10^4 trials")
    vals = _laplace_samples(s, serving_distance, serving_state, k, lambda0, channel, beam, sim)
    mean = math.fsum(vals) / sim.trials
    var = math.fsum((vals - mean) ** 2) / (sim.trials - 1)
    return mean, math.sqrt(var / sim.trials)


def _laplace_samples(s: float, serving_distance: float, serving_state: str, k: int,
                     lambda0: float, channel: ChannelParams, beam: BeamParams,
                     sim: SimConfig) -> np.ndarray:
    """Per-trial exp(-s * I) behind `empirical_laplace`, trial i on trial i's stream.

    The stream has no angle uniforms and no resampling: an empty window is a
    valid conditioned draw.
    """
    if serving_state == LOS:
        excl_los = serving_distance
        excl_nlos = serving_distance ** (channel.alpha_los / channel.alpha_nlos)
    else:
        excl_nlos = serving_distance
        excl_los = serving_distance ** (channel.alpha_nlos / channel.alpha_los)
    pmf = beam_gain_pmf(beam, k)
    mean_count = lambda0 * math.pi * sim.window_radius_m**2
    vals = np.empty(sim.trials)
    for i, rng in enumerate(_trial_streams(sim, _SUB_LAPLACE)):
        n = rng.poisson(mean_count)
        u = rng.random(2 * n)
        radii = sim.window_radius_m * np.sqrt(u[:n])
        is_los = u[n:] < _p_los_raw(radii, channel.blockage)
        keep = radii > np.where(is_los, excl_los, excl_nlos)
        power = _mean_power(radii[keep], is_los[keep], channel)
        weights = rng.exponential(size=len(power)) * pmf.sample(rng, len(power))
        vals[i] = math.exp(-s * channel.beta * float(weights @ power))
    return vals
