"""Link-level models for mmWave hops.

Blockage / LOS probability, the two-slope power-law path loss, unit-mean
Rayleigh (exponential power) fading, and the three-atom beamforming-gain
distribution induced by two-lobe sectored beams with spatial multiplexing.

All quantities are linear (no dB anywhere in this module); dB conversion
belongs to the configuration boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Link propagation states.
LOS = "los"
NLOS = "nlos"

_STATES = (LOS, NLOS)

_TWO_PI = 2.0 * math.pi


def _check_state(state: str) -> None:
    if state not in _STATES:
        raise ValueError(f"unknown link state {state!r}, expected one of {_STATES}")


@dataclass(frozen=True)
class BlockageModel:
    """LOS probability law P_L(r) for a link of length r.

    kind:
      - "exponential": P_L(r) = exp(-r / mu), parameter mu in meters
      - "los_ball":    P_L(r) = 1 for r <= radius, 0 beyond, parameter in meters
      - "constant":    P_L(r) = p for all r, parameter p in [0, 1]
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind in ("exponential", "los_ball"):
            if not self.param > 0.0:
                raise ValueError(f"{self.kind} blockage needs a positive length, got {self.param}")
        elif self.kind == "constant":
            if not 0.0 <= self.param <= 1.0:
                raise ValueError(f"constant blockage needs p in [0, 1], got {self.param}")
        else:
            raise ValueError(f"unknown blockage kind {self.kind!r}")

    @classmethod
    def exponential(cls, mu_m: float) -> "BlockageModel":
        return cls("exponential", mu_m)

    @classmethod
    def los_ball(cls, radius_m: float) -> "BlockageModel":
        return cls("los_ball", radius_m)

    @classmethod
    def constant(cls, p: float) -> "BlockageModel":
        return cls("constant", p)


def _p_los_raw(r_arr: np.ndarray, blockage: BlockageModel):
    """los_probability without validation; hot path for internal array use."""
    if blockage.kind == "exponential":
        return np.exp(r_arr / -blockage.param)
    if blockage.kind == "los_ball":
        return np.where(r_arr <= blockage.param, 1.0, 0.0)
    return np.full_like(r_arr, blockage.param)


def los_probability(r, blockage: BlockageModel):
    """Probability that a link of length ``r`` (meters) is LOS.

    Accepts a scalar or an ndarray; returns the same shape. Non-increasing
    in r for the exponential and los_ball kinds.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0.0):
        raise ValueError("link length must be non-negative")
    out = _p_los_raw(r_arr, blockage)
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(out)
    return out


def nlos_probability(r, blockage: BlockageModel):
    """Complement of `los_probability`; the two always sum to 1."""
    return 1.0 - los_probability(r, blockage)


@dataclass(frozen=True)
class ChannelParams:
    """Propagation parameters shared by every hop.

    alpha_los / alpha_nlos are the path-loss exponents of the two states,
    beta the linear path-loss intercept, noise_power the linear noise
    variance (watts).
    """

    alpha_los: float
    alpha_nlos: float
    beta: float
    blockage: BlockageModel
    noise_power: float = 0.0

    def __post_init__(self):
        if not self.alpha_los > 0.0:
            raise ValueError("alpha_los must be positive")
        if self.alpha_nlos < self.alpha_los:
            raise ValueError("alpha_nlos must be >= alpha_los")
        if not self.beta > 0.0:
            raise ValueError("path-loss intercept beta must be positive")
        if self.noise_power < 0.0:
            raise ValueError("noise power must be non-negative")

    def alpha(self, state: str) -> float:
        _check_state(state)
        return self.alpha_los if state == LOS else self.alpha_nlos


def path_loss(r, state: str, params: ChannelParams):
    """Linear path-loss gain beta * r^(-alpha_state) at distance r > 0 meters.

    r = 0 is rejected: the power law is singular there and the association
    distance law puts zero mass on it.
    """
    _check_state(state)
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0):
        raise ValueError("path loss is only defined for r > 0")
    out = params.beta * r_arr ** -params.alpha(state)
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class BeamParams:
    """Two-lobe sectored beam pattern plus the RF-chain budget.

    theta_a: main-lobe width in radians; g_main / g_side: linear lobe gains;
    rf_chains: number of RF chains, i.e. the maximum number of simultaneous
    streams (and analog beams) per AP.
    """

    theta_a: float
    g_main: float
    g_side: float
    rf_chains: int

    def __post_init__(self):
        if not 0.0 < self.theta_a <= _TWO_PI:
            raise ValueError("main-lobe width must lie in (0, 2*pi]")
        if not self.g_main >= self.g_side > 0.0:
            raise ValueError("need g_main >= g_side > 0")
        if self.rf_chains < 1:
            raise ValueError("need at least one RF chain")
        # With k beams active the main lobes cover theta_a * k of the circle;
        # the alignment probability theta_a*k/(2*pi) must stay <= 1 even at k = K.
        if self.theta_a * self.rf_chains > _TWO_PI * (1.0 + 1e-12):
            raise ValueError("theta_a * rf_chains must not exceed 2*pi")


@dataclass(frozen=True)
class GainPmf:
    """Three-atom distribution of the transceiver gain toward an interferer.

    Atoms are (g_main^2, g_main*g_side, g_side^2) with probabilities
    (p^2, 2p(1-p), (1-p)^2) where p is the per-end main-lobe alignment
    probability; they sum to 1 exactly.
    """

    gains: tuple[float, float, float]
    probs: tuple[float, float, float]

    def __post_init__(self):
        total = math.fsum(self.probs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"gain probabilities sum to {total!r}, not 1")
        if any(p < 0.0 or p > 1.0 for p in self.probs):
            raise ValueError("gain probabilities must lie in [0, 1]")
        e0, e1, _ = np.cumsum(self.probs).tolist()
        object.__setattr__(self, "_edges", (e0, e1))
        object.__setattr__(self, "_gain_arr", np.asarray(self.gains, dtype=float))

    @property
    def expected_gain(self) -> float:
        return math.fsum(g * p for g, p in zip(self.gains, self.probs))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. gains (one uniform variate per draw).

        Atom i is drawn when u lies in [e_{i-1}, e_i) of the cumulative edges;
        the last atom takes every u >= e_1, so rounding of the final edge
        cannot index past it.
        """
        u = rng.random(size)
        e0, e1 = self._edges
        return self._gain_arr.take(np.add(u >= e0, u >= e1, dtype=np.intp))


def beam_gain_pmf(beam: BeamParams, k: int) -> GainPmf:
    """Gain distribution seen from an interfering AP running k streams.

    Each end of an interfering link points its k beams independently of the
    victim, so the main lobe covers the victim with probability
    p = theta_a * k / (2*pi); both ends align with probability p^2, etc.
    """
    if not 1 <= k <= beam.rf_chains:
        raise ValueError(f"multiplexing gain k={k} outside 1..{beam.rf_chains}")
    p = beam.theta_a * k / _TWO_PI
    if p > 1.0 + 1e-12:
        raise ValueError("theta_a * k exceeds 2*pi")
    p = min(p, 1.0)
    q = 1.0 - p
    return GainPmf(
        gains=(beam.g_main**2, beam.g_main * beam.g_side, beam.g_side**2),
        probs=(p * p, 2.0 * p * q, q * q),
    )


def sample_fading(rng: np.random.Generator, size=None):
    """Unit-mean exponential power gain (Rayleigh amplitude fading)."""
    out = rng.exponential(1.0, size=size)
    if size is None:
        return float(out)
    return out
