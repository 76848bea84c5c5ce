"""Brute-force Monte Carlo twin of the analytical module.

Realizes the per-hop typical-receiver experiment by actual point sampling:
drop the receiver at the origin, scatter the scheduled transmitters as a
LOS-marked PPP and associate with the maximum-average-power AP. Every sampler
draws that PPP through one chunked generator (`_marked_ppp`): trial i's stream
holds a Poisson count n, then n radii and n LOS marks. Coverage and the
Laplace functional integrate fading and gains out per trial (conditional
Monte Carlo), so one draw of positions serves every threshold, gain and tuple.

Every trial owns a random stream (`_trial_streams`), so a trial's draws, and
hence every estimate, are bitwise reproducible and do not depend on how many
other trials run or how they are chunked.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import (LOS, BeamParams, ChannelParams, beam_gain_pmf, _check_state, _p_los_raw,
                      _require)

# Substream tags keep unrelated experiments off the same variates.
_SUB_COVERAGE = 1
_SUB_ASSOCIATION = 2
_SUB_LAPLACE = 3

_CHUNK_POINTS = 1 << 13  # mean points per chunk of trials

_MASK_128 = (1 << 128) - 1  # PCG64DXSM's LCG state is taken mod 2^128
_Z95 = 1.959963984540054  # the two-sided 95% normal quantile

_NEAR_CUT = 1e-5  # interferers with w_0/w_j above it enter coverage exactly
_MIN_COVERAGE_TRIALS = 100  # fewest trials of a coverage estimate, and of a nonzero `mc_trials`
_MIN_LAPLACE_TRIALS = 10_000  # fewest trials of a Laplace estimate, and of `validate`


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
        _require("window radius", self.window_radius_m)
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master seed must fit in 64 bits")
        if self.truncation_radius_m is not None \
                and not self.truncation_radius_m <= self.window_radius_m:
            raise ValueError("window must cover the analytical truncation radius")


def _trial_streams(master_seed: int, substream: int):
    """Trials 0, 1, 2, ... of `substream` as one reused generator: trial i is
    PCG64DXSM seeded by SeedSequence([master_seed, substream]) and jumped i times.

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


def _path_loss(radii: np.ndarray, is_los: np.ndarray, channel: ChannelParams) -> np.ndarray:
    """d^alpha(state) of every point, one rule for the drawn APs and the pinned ones."""
    inv_power = (radii * radii) ** (0.5 * channel.alpha_nlos)  # a square at alpha 4,
    inv_power[is_los] = radii[is_los] ** channel.alpha_los  # and at 2: no per-point pow
    return inv_power


def _marked_ppp(lambda0: float, channel: ChannelParams, sim: SimConfig, substream: int,
                served: bool):
    """Every trial's draw of the LOS-marked PPP, in chunks of about `_CHUNK_POINTS` points.

    Trial i's stream (`_trial_streams`) holds a Poisson count n, then 2n
    uniforms: radii, then LOS marks, point i taking entry i of each. A `served`
    trial needs an AP: its count is redrawn while it is zero, and more empty
    draws than 1 in 10^4 trials (at least one) abort, the window being too
    small for the intensity. Yields per chunk its first trial, each trial's
    count and first index, and the chunk's radii, LOS marks and d^alpha(state)
    (the inverse mean power per unit intercept).
    """
    if served:
        _require("tier intensity", lambda0)
    mean_count = lambda0 * math.pi * sim.window_radius_m**2
    chunk = max(1, int(_CHUNK_POINTS / (mean_count + 1.0)))
    resample_limit = max(1.0, 1e-4 * sim.trials)
    streams = _trial_streams(sim.master_seed, substream)
    buf = np.empty((2, 0))  # the chunk's uniforms, drawn in place
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
                buf = np.concatenate((buf[:, :end], np.empty((2, end + 2 * n))), axis=1)
            rng.random(out=buf[0, end:end + n])
            rng.random(out=buf[1, end:end + n])
            counts.append(n)
            end += n
        counts = np.array(counts)
        radii = sim.window_radius_m * np.sqrt(buf[0, :end])
        is_los = buf[1, :end] < _p_los_raw(radii, channel.blockage)
        inv_power = _path_loss(radii, is_los, channel)
        yield first, counts, np.cumsum(counts) - counts, radii, is_los, inv_power


def _strongest(inv_power: np.ndarray, counts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each trial's serving AP: the first point of least d^alpha (strongest mean power)."""
    return starts + [inv_power[s:s + n].argmin() for s, n in zip(starts, counts)]


@lru_cache(maxsize=2)
def _coverage_summary(lambda0: float, channel: ChannelParams, sim: SimConfig):
    """Every trial's positions on `_SUB_COVERAGE` as coverage reads them, free of tau, k and beam.

    Trial i's serving AP has d^alpha = w0[i], and interferer j has y_j = w0[i]/w_j
    in (0, 1]. Returns w0; `near`, per trial a 0 for the serving AP and the y_j
    above `_NEAR_CUT`; each trial's first index in `near`; and `far`, per trial
    the sums of the other y_j, of their squares and of their cubes.
    """
    w0, far = np.empty(sim.trials), np.empty((3, sim.trials))
    near_counts, near = np.empty(sim.trials, dtype=np.intp), []
    for first, counts, starts, _, _, inv_power in _marked_ppp(
            lambda0, channel, sim, _SUB_COVERAGE, served=True):
        j = _strongest(inv_power, counts, starts)
        done = slice(first, first + len(j))
        w0[done] = inv_power[j]
        y = np.repeat(w0[done], counts) / inv_power
        is_near = y > _NEAR_CUT  # the serving AP's y = 1 included
        y[j] = 0.0  # it does not interfere
        near_counts[done] = np.add.reduceat(is_near, starts, dtype=np.intp)
        near.append(y[is_near])
        y[is_near] = 0.0
        y2 = y * y
        far[:, done] = [np.add.reduceat(v, starts) for v in (y, y2, y2 * y)]
    return w0, np.concatenate(near), np.cumsum(near_counts) - near_counts, far


def _success_probabilities(tau: float, k: int, channel: ChannelParams, beam: BeamParams,
                           summary) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's P(SINR > tau | positions) from its `_coverage_summary`, and an error bound.

    With unit-mean Rayleigh fading and gain atoms (g, p_g) it is N prod_j f(y_j),
    N = exp(-tau sigma^2 w0/(g_m^2 beta)), f(y) = sum_g p_g/(1 + c_g y), c_g = tau g/g_m^2.
    Near factors are exact, their product clamped at 1 (the p_g sum to 1 only to
    rounding). For the far product F, let m_n = sum_g p_g c_g^n, c and b the largest
    and least c_g with p_g > 0. While c * `_NEAR_CUT` <= 1/2, F ~ exp(T) with
    T = -m1 S1 + (m2 - m1^2/2) S2. Proof: as 1/(1+x) = 1 - x + x^2 - x^3/(1+x), a far
    f(y) = 1 - u, u = m1 y - m2 y^2 + r, 0 <= r <= min(m3 y^3, m2 y^2); so
    0 <= m1 y - u <= m2 y^2 and u <= c y <= 1/2. Then log f = -u - u^2/2 - rho with
    0 <= rho <= u^3/(3(1 - u)) <= (2/3) m1^3 y^3, and |u^2 - m1^2 y^2| <= 2 m1 m2 y^3,
    so |log F - T| <= K S3, K = m3 + m1 m2 + (2/3) m1^3. As T <= 0 (m2 y <= c m1 y <= m1/2)
    and N and the near product lie in [0, 1], the value is within
    estimate * (exp(K S3) - 1) of the estimate. Beyond, by Jensen,
    exp(-m1 y) <= 1/(1 + m1 y) <= f(y) <= 1/(1 + b y), and prod (1 + b y_j) >= 1 + b S1,
    so F lies in [exp(-m1 S1), 1/(1 + b S1)]: the estimate takes the lower end, the
    bound the width. Every factor falls as tau rises and the estimate drops at the
    switch, so each value lies in [0, 1] and does not rise with tau.
    """
    w0, near, near_starts, (s1, s2, s3) = summary
    pmf = beam_gain_pmf(beam, k)
    atoms = [(p, tau * (g / beam.g_main**2)) for g, p in pmf.support]
    p_s = np.exp(-tau * (channel.noise_power / (beam.g_main**2 * channel.beta)) * w0)
    factors, term = np.zeros_like(near), np.empty_like(near)  # the only near-sized arrays
    for p, c in atoms:
        factors += np.divide(p, np.add(1.0, np.multiply(c, near, out=term), out=term), out=term)
    p_s *= np.minimum(np.multiply.reduceat(factors, near_starts), 1.0)
    m1 = math.fsum(p * c for p, c in atoms)
    if max(c for _, c in atoms) * _NEAR_CUT <= 0.5:
        m2, m3 = (math.fsum(p * c**n for p, c in atoms) for n in (2, 3))
        p_s *= np.exp(np.minimum(-m1 * s1 + (m2 - 0.5 * m1**2) * s2, 0.0))
        return p_s, p_s * np.expm1((m3 + m1 * m2 + 2.0 / 3.0 * m1**3) * s3)
    low, high = np.exp(-m1 * s1), 1.0 / (1.0 + min(c for _, c in atoms) * s1)
    return p_s * low, p_s * np.maximum(high - low, 0.0)


def empirical_coverage(tau: float, k: int, lambda0: float, channel: ChannelParams,
                       beam: BeamParams, sim: SimConfig) -> tuple[float, float]:
    """Mean of P(SINR > tau | positions) over the trials, and a 95% half-width: 1.96
    standard errors plus the mean error bound (`_success_probabilities`). Every
    (tau, k) of a configuration reads one cached draw of positions."""
    _require("SINR threshold", tau)
    if sim.trials < _MIN_COVERAGE_TRIALS:
        raise ValueError(f"coverage estimation needs at least {_MIN_COVERAGE_TRIALS} trials")
    p_s, bound = _success_probabilities(tau, k, channel, beam,
                                        _coverage_summary(lambda0, channel, sim))
    mean = math.fsum(p_s) / sim.trials
    var = math.fsum((p_s - mean) ** 2) / (sim.trials - 1)
    return mean, _Z95 * math.sqrt(var / sim.trials) + math.fsum(bound) / sim.trials


def serving_distance_samples(lambda0: float, channel: ChannelParams,
                             sim: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Association distances and LOS flags over sim.trials realizations."""
    dist, is_los = np.empty(sim.trials), np.empty(sim.trials, dtype=bool)
    for first, counts, starts, radii, los, inv_power in _marked_ppp(
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
    _require("intensity", lambda0, zero_ok=True)
    for s, serving_distance, serving_state, _ in tuples:
        _check_state(serving_state)
        _require("transform variable", s, zero_ok=True)
        _require("serving distance", serving_distance)
    if sim.trials < _MIN_LAPLACE_TRIALS:
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

    An empty window is a valid draw. With unit-mean Rayleigh fading and gain atoms
    (g, p_g), a point at d^alpha = w adds the factor 1 - sum_g p_g c_g/(w + c_g), c_g =
    s beta g, its terms summed in place in atom order, clamped at 0, and exactly 1 where
    w is at most the pinned AP's d^alpha (`_path_loss`). A tuple at s = 0 is skipped.
    Steps are elementwise or a per-trial sequential product, so a value does not
    depend on the chunking, the trial count or the other tuples.
    """
    vals = np.ones((len(tuples), sim.trials))  # an empty window's value, and any at s = 0
    pinned = _path_loss(np.array([t[1] for t in tuples], dtype=float),
                        np.array([t[2] == LOS for t in tuples], dtype=bool), channel)
    laws = []
    for row, serving, (s, _, _, k) in zip(vals, pinned, tuples):
        pmf = beam_gain_pmf(beam, k)
        if s > 0.0:
            laws.append((row, serving, [(p * s * channel.beta * g, s * channel.beta * g)
                                        for g, p in pmf.support]))
    for first, counts, starts, _, _, inv_power in _marked_ppp(
            lambda0, channel, sim, _SUB_LAPLACE, served=False):
        live = np.flatnonzero(counts)
        for row, serving, ((pc, c), *atoms) in laws:
            factor = pc / (inv_power + c)
            for pc, c in atoms:
                factor += pc / (inv_power + c)
            np.maximum(np.subtract(1.0, factor, out=factor), 0.0, out=factor)
            factor[inv_power <= serving] = 1.0
            row[first + live] = np.multiply.reduceat(factor, starts[live])
    return vals
