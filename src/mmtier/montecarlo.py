"""Brute-force Monte Carlo twin of the analytical module.

Realizes the per-hop typical-receiver experiment by actual point sampling:
drop the receiver at the origin, scatter the scheduled transmitters as a
marked PPP, associate with the maximum-average-power AP, and measure SINR,
association distances and the interference Laplace functional empirically.
Every sampler draws the LOS-marked PPP through one chunked generator
(`_marked_ppp`): trial i's stream holds a Poisson count n, then n radii and
n LOS marks, then for the SINR sampler n fadings and n gain uniforms. The
Laplace sampler pins the serving AP and integrates fading and gains out per
trial (conditional Monte Carlo), on one draw of positions for every tuple.

Every trial owns a random stream derived from the master seed: trial i of a
substream is numpy's jump construction, PCG64DXSM seeded by
SeedSequence([master_seed, substream]) and jumped i times (`trial_stream`).
The samplers run trials in order and move one reused generator from trial i
to trial i + 1 by the jump's affine map of the LCG state (`_trial_streams`),
so a trial's draws, and hence every estimate, are bitwise reproducible and do
not depend on how many other trials run or how they are chunked.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import BeamParams, ChannelParams, beam_gain_pmf, _check_state, _p_los_raw

_WILSON_Z = 1.959963984540054  # two-sided 95%

# Substream tags keep unrelated experiments off the same variates.
_SUB_COVERAGE = 1
_SUB_ASSOCIATION = 2
_SUB_LAPLACE = 3

_CHUNK_POINTS = 1 << 13  # mean points per chunk of trials

_MASK_128 = (1 << 128) - 1  # PCG64DXSM's LCG state is taken mod 2^128


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
        for name in ("trials", "master_seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if not 0.0 < self.window_radius_m < math.inf:
            raise ValueError("window radius must be positive and finite")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master seed must fit in 64 bits")
        if self.truncation_radius_m is not None \
                and not self.truncation_radius_m <= self.window_radius_m:
            raise ValueError("window must cover the analytical truncation radius")


def trial_stream(master_seed: int, trial: int, substream: int = 0) -> np.random.Generator:
    """Trial `trial`'s generator on `substream`: numpy's PCG64DXSM jump construction."""
    bits = np.random.PCG64DXSM(np.random.SeedSequence([master_seed, substream]))
    return np.random.Generator(bits.jumped(trial))


def _trial_streams(master_seed: int, substream: int):
    """`trial_stream(master_seed, i, substream)` for i = 0, 1, 2, ... as one reused generator.

    `jumped` would build a generator per trial. A jump advances the LCG a fixed
    number of steps, an affine map x -> (A x + C) mod 2^128 of its 128-bit state,
    so A and C are read off two jumps (from x = 0 and x = 1) and each next trial
    is one multiply-add and one `state` set.
    """
    bits = np.random.PCG64DXSM(np.random.SeedSequence([master_seed, substream]))
    gen, state = np.random.Generator(bits), bits.state
    x, jumps = state["state"]["state"], []
    for probe in (0, 1):
        state["state"]["state"] = probe
        bits.state = state
        jumps.append(bits.jumped().state["state"]["state"])
    plus, mult = jumps[0], (jumps[1] - jumps[0]) & _MASK_128
    while True:
        state["state"]["state"] = x
        bits.state = state
        yield gen
        x = (mult * x + plus) & _MASK_128


def _marked_ppp(lambda0: float, channel: ChannelParams, sim: SimConfig, substream: int,
                served: bool, fading: bool = False):
    """Every trial's draw of the LOS-marked PPP, in chunks of about `_CHUNK_POINTS` points.

    Trial i's stream (`_trial_streams`) holds a Poisson count n, then 2n
    uniforms: radii, then LOS marks; with `fading`, then n unit exponentials
    and n gain uniforms, point i taking entry i of each. A `served` trial needs
    an AP: its count is redrawn while it is zero, and more empty draws than 1
    in 10^4 trials (at least one) abort, the window being too small for the
    intensity. Yields per chunk its first trial, each trial's count and first
    index, and the chunk's radii, LOS marks, d^alpha(state) (the inverse mean
    power per unit intercept) and the rows of fading and gain uniforms (none
    without `fading`; views that the next chunk overwrites).
    """
    if served and not 0.0 < lambda0 < math.inf:
        raise ValueError("tier intensity must be positive and finite")
    mean_count = lambda0 * math.pi * sim.window_radius_m**2
    chunk = max(1, int(_CHUNK_POINTS / (mean_count + 1.0)))
    resample_limit = max(1.0, 1e-4 * sim.trials)
    streams = _trial_streams(sim.master_seed, substream)
    buf = np.empty((4 if fading else 2, 0))  # the chunk's rows, drawn in place
    resamples = 0
    for first in range(0, sim.trials, chunk):
        counts, end = [], 0
        for rng in itertools.islice(streams, min(chunk, sim.trials - first)):
            n = rng.poisson(mean_count)
            while served and n == 0:
                resamples += 1
                if resamples > resample_limit:
                    raise SimulationError(
                        f"over {resample_limit:g} empty-window resamples in {sim.trials} "
                        "trials; window too small for the intensity")
                n = rng.poisson(mean_count)
            if end + n > buf.shape[1]:
                buf = np.concatenate((buf[:, :end], np.empty((len(buf), end + 2 * n))), axis=1)
            rng.random(out=buf[0, end:end + n])
            rng.random(out=buf[1, end:end + n])
            if fading:
                rng.standard_exponential(out=buf[2, end:end + n])
                rng.random(out=buf[3, end:end + n])
            counts.append(n)
            end += n
        u, counts = buf[:, :end], np.array(counts)
        radii = sim.window_radius_m * np.sqrt(u[0])
        is_los = u[1] < _p_los_raw(radii, channel.blockage)
        inv_power = radii ** np.where(is_los, channel.alpha_los, channel.alpha_nlos)
        yield first, counts, np.cumsum(counts) - counts, radii, is_los, inv_power, u[2:]


def _strongest(inv_power: np.ndarray, counts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each trial's serving AP: the first point of least d^alpha (strongest mean power)."""
    return starts + [inv_power[s:s + n].argmin() for s, n in zip(starts, counts)]


def sinr_samples(k: int, lambda0: float, channel: ChannelParams, beam: BeamParams,
                 sim: SimConfig) -> np.ndarray:
    """Per-trial SINR draws of the typical-receiver experiment (linear scale).

    Trial i equals the positional reference of `tests/mc_oracle.py` on trial i's
    stream, to rounding. Zero noise with no interference is SINR = inf.
    """
    pmf = beam_gain_pmf(beam, k)
    out = np.full(sim.trials, np.inf)
    for first, counts, starts, _, _, inv_power, (fading, gain_u) in _marked_ppp(
            lambda0, channel, sim, _SUB_COVERAGE, served=True, fading=True):
        j = _strongest(inv_power, counts, starts)
        weights = fading * pmf._gains_at(gain_u) / inv_power
        weights[j] = 0.0  # the serving AP does not interfere
        denom = channel.noise_power + channel.beta * np.add.reduceat(weights, starts)
        signal = fading[j] * beam.g_main**2 * channel.beta / inv_power[j]
        np.divide(signal, denom, out=out[first:first + len(j)], where=denom > 0.0)
    return out


@lru_cache(maxsize=16)
def _sinr_samples_cached(k: int, lambda0: float, channel: ChannelParams, beam: BeamParams,
                         sim: SimConfig) -> np.ndarray:
    return sinr_samples(k, lambda0, channel, beam, sim)


def wilson_halfwidth(successes: int, trials: int) -> float:
    """Half-width of the 95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
    z = _WILSON_Z
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
    if not 0.0 < tau < math.inf:
        raise ValueError("SINR threshold must be positive and finite")
    if sim.trials < 100:
        raise ValueError("coverage estimation needs at least 100 trials")
    samples = _sinr_samples_cached(k, lambda0, channel, beam, sim)
    covered = int(np.count_nonzero(samples > tau))
    return covered / sim.trials, wilson_halfwidth(covered, sim.trials)


def serving_distance_samples(lambda0: float, channel: ChannelParams,
                             sim: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Association distances and LOS flags over sim.trials realizations."""
    dist = np.empty(sim.trials)
    is_los = np.empty(sim.trials, dtype=bool)
    for first, counts, starts, radii, los, inv_power, _ in _marked_ppp(
            lambda0, channel, sim, _SUB_ASSOCIATION, served=True):
        j = _strongest(inv_power, counts, starts)
        dist[first:first + len(j)], is_los[first:first + len(j)] = radii[j], los[j]
    return dist, is_los


def empirical_laplace(s: float, serving_distance: float, serving_state: str, k: int,
                      lambda0: float, channel: ChannelParams, beam: BeamParams,
                      sim: SimConfig) -> tuple[float, float]:
    """The one-tuple case of `empirical_laplace_batch`."""
    return empirical_laplace_batch([(s, serving_distance, serving_state, k)], lambda0,
                                   channel, beam, sim)[0]


def empirical_laplace_batch(tuples, lambda0: float, channel: ChannelParams,
                            beam: BeamParams, sim: SimConfig) -> list[tuple[float, float]]:
    """Mean of E[exp(-s * I) | positions] and its std error per (s, serving distance,
    serving state, k) tuple, all tuples on one draw of positions per trial.

    The serving AP is pinned at the given distance/state; interferers are the
    marked PPP points that offer less average power. Fading and gains are
    integrated out (`_laplace_samples`); per-trial values are combined by
    compensated summation.
    """
    if not 0.0 <= lambda0 < math.inf:
        raise ValueError("intensity must be non-negative and finite")
    for s, serving_distance, serving_state, _ in tuples:
        _check_state(serving_state)
        if not 0.0 <= s < math.inf:
            raise ValueError("transform variable must be non-negative and finite")
        if not serving_distance > 0.0:
            raise ValueError("serving distance must be positive")
    if sim.trials < 10_000:
        raise ValueError("Laplace estimation needs at least 10^4 trials")
    out = []
    for vals in _laplace_samples(tuples, lambda0, channel, beam, sim):
        mean = math.fsum(vals) / sim.trials
        var = math.fsum((vals - mean) ** 2) / (sim.trials - 1)
        out.append((mean, math.sqrt(var / sim.trials)))
    return out


def _laplace_samples(tuples, lambda0: float, channel: ChannelParams, beam: BeamParams,
                     sim: SimConfig) -> np.ndarray:
    """E[exp(-s * I) | positions] per tuple (row) and trial i on trial i's stream (column).

    An empty window is a valid draw. With unit-mean Rayleigh fading and gain
    atoms (g, p_g), a point at d^alpha = w adds the factor sum_g p_g/(1 + c_g/w)
    = 1 - sum_g p_g c_g/(w + c_g), c_g = s beta g: exactly 1 at s = 0, clamped at
    0. A point with w at most the serving AP's r^alpha takes w = inf (factor 1).
    Steps are elementwise or a per-trial sequential product, so a value does not
    depend on the chunking, the trial count or the other tuples.
    """
    laws = []
    for s, serving_distance, serving_state, k in tuples:
        pmf = beam_gain_pmf(beam, k)
        atoms = [(p * s * channel.beta * g, s * channel.beta * g)
                 for g, p in zip(pmf.gains, pmf.probs) if p > 0.0]
        laws.append((serving_distance ** channel.alpha(serving_state), atoms))
    vals = np.ones((len(tuples), sim.trials))  # an empty window's value
    for first, counts, starts, _, _, inv_power, _ in _marked_ppp(
            lambda0, channel, sim, _SUB_LAPLACE, served=False):
        live = np.flatnonzero(counts)
        for row, (serving, atoms) in zip(vals, laws):
            w = np.where(inv_power > serving, inv_power, np.inf)
            factor = np.maximum(1.0 - sum(pc / (w + c) for pc, c in atoms), 0.0)
            row[first + live] = np.multiply.reduceat(factor, starts[live])
    return vals
