"""Link-level models for mmWave hops.

Blockage / LOS probability, the parameters of the two-slope power-law path
loss, and the three-atom beamforming-gain distribution induced by two-lobe
sectored beams with spatial multiplexing.

All quantities are linear (no dB anywhere in this module); dB conversion
belongs to the configuration boundary.
"""

from __future__ import annotations

import functools
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


def _require(name: str, value: float, zero_ok: bool = False) -> None:
    """The domain rule of a scalar model argument: positive (non-negative when
    ``zero_ok``) and finite. Written so that NaN fails."""
    low_ok = 0.0 <= value if zero_ok else 0.0 < value
    if not (low_ok and value < math.inf):
        raise ValueError(f"{name} must be {'non-negative' if zero_ok else 'positive'} and finite")


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
            _require(f"{self.kind} blockage length", self.param)
        elif self.kind == "constant":
            if not 0.0 <= self.param <= 1.0:
                raise ValueError(f"constant blockage needs p in [0, 1], got {self.param}")
        else:
            raise ValueError(f"unknown blockage kind {self.kind!r}")


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
    return float(out) if np.ndim(r) == 0 else out


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
        _require("alpha_los", self.alpha_los)
        if not self.alpha_nlos >= self.alpha_los:
            raise ValueError("alpha_nlos must be >= alpha_los")
        _require("alpha_nlos", self.alpha_nlos)
        _require("path-loss intercept beta", self.beta)
        _require("noise power", self.noise_power, zero_ok=True)

    def alpha(self, state: str) -> float:
        _check_state(state)
        return self.alpha_los if state == LOS else self.alpha_nlos


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
        _require("g_main", self.g_main)
        _require("g_side", self.g_side)
        if not self.g_main >= self.g_side:
            raise ValueError("need g_main >= g_side > 0")
        if not self.rf_chains >= 1:
            raise ValueError("need at least one RF chain")
        # With k beams active the main lobes cover theta_a * k of the circle;
        # the alignment probability theta_a*k/(2*pi) must stay <= 1 even at k = K.
        if not self.theta_a * self.rf_chains <= _TWO_PI * (1.0 + 1e-12):
            raise ValueError("theta_a * rf_chains must not exceed 2*pi")


@dataclass(frozen=True)
class GainPmf:
    """Three-atom distribution of the transceiver gain toward an interferer.

    Atoms are (g_main^2, g_main*g_side, g_side^2) with probabilities
    (p^2, 2p(1-p), (1-p)^2) where p is the per-end main-lobe alignment
    probability; they sum to 1 up to rounding.
    """

    gains: tuple[float, float, float]
    probs: tuple[float, float, float]

    def __post_init__(self):
        total = math.fsum(self.probs)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"gain probabilities sum to {total!r}, not 1")
        if not all(0.0 <= p <= 1.0 for p in self.probs):
            raise ValueError("gain probabilities must lie in [0, 1]")

    @functools.cached_property
    def support(self) -> tuple[tuple[float, float], ...]:
        """The live atoms: each (g, p) with p > 0, in atom order (read-only, computed once)."""
        return tuple((g, p) for g, p in zip(self.gains, self.probs) if p > 0.0)

    @property
    def expected_gain(self) -> float:
        return math.fsum(g * p for g, p in self.support)


@functools.lru_cache(maxsize=64)
def beam_gain_pmf(beam: BeamParams, k: int) -> GainPmf:
    """Gain distribution seen from an interfering AP running k streams.

    Each end of an interfering link points its k beams independently of the
    victim, so the main lobe covers the victim with probability
    p = theta_a * k / (2*pi); both ends align with probability p^2, etc.
    Cached: every caller of one (beam, k) shares one immutable `GainPmf`.
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

