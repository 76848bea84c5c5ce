"""The positional per-hop Monte Carlo experiment, kept as a test oracle for
`mmtier.montecarlo`.

`realize_hop` places every transmitter of one trial in the plane and picks
the serving AP; `compute_sinr` then draws the fading and beam gains and
returns that trial's SINR. `mmtier.montecarlo.sinr_samples` replaced the pair
with a position-free pass over the same stream, so on trial i's coverage
stream the two must agree to rounding.

`realize_hop` rebuilds the trial's marked PPP by hand rather than through
`mmtier.montecarlo._marked_ppp`, so the reference stays independent of the
sampler it pins: a Poisson count, redrawn while it is zero, then 3n uniforms
split into radii, angles and LOS marks.
"""

import math
from dataclasses import dataclass

import numpy as np

from mmtier.channel import BeamParams, ChannelParams, beam_gain_pmf, los_probability
from mmtier.montecarlo import _EMPTY_RESAMPLE_LIMIT, SimConfig, SimulationError


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
    u = rng.random(3 * n)
    radii = window * np.sqrt(u[:n])
    angles = 2.0 * math.pi * u[n:2 * n]
    is_los = u[2 * n:] < los_probability(radii, channel.blockage)
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
