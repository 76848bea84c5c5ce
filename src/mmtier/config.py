"""Flat key-value experiment configuration.

One ``key = value`` per line, ``#`` comments, diff-friendly. dB and degree
fields are converted to linear / radians only when the typed parameter
objects are built, so everything downstream of this module is linear.

`parse_config(to_text(cfg))` reproduces ``cfg`` exactly: canonical fields are
stored as parsed (floats round-trip through repr).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

from .analytics import NetworkParams, QuadratureSpec
from .channel import BeamParams, BlockageModel, ChannelParams
from .montecarlo import SimConfig

log = logging.getLogger("mmtier")

MODES = ("coverage", "throughput", "topology", "validate")

DEFAULT_BLOCKAGE_MU_M = 141.4


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved experiment description (defaults applied, units canonical).

    Densities are stored linearly (per m^2); beam gains in dB and the beam
    width in degrees, matching the config surface; the typed builders below
    convert at the boundary.
    """

    # network
    lambda0: float = 1.0 / (math.pi * 100.0**2)
    lambda_total: float = 13.0 / (math.pi * 100.0**2)
    rf_chains: int = 12
    bandwidth_hz: float = 1.0
    k: int = 1
    # channel
    alpha_los: float = 2.0
    alpha_nlos: float = 4.0
    beta: float = 1.0
    noise_power: float = 0.0
    blockage: str = "exponential"
    blockage_param: float = DEFAULT_BLOCKAGE_MU_M
    # beam
    theta_a_deg: float = 30.0
    g_main_db: float = 20.0
    g_side_db: float = 0.0
    # quadrature
    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    truncation_radius_m: float = 0.0  # 0 -> 50 * r0, resolved at build time
    # simulation
    window_radius_m: float = 0.0  # 0 -> truncation radius
    mc_trials: int = 0
    seed: int = 1
    floor_hops: bool = False
    # topology realization
    topology_window_radius_m: float = 0.0  # 0 -> 10 * r0
    # sweep grids
    tau_db_list: tuple[float, ...] = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    k_list: tuple[int, ...] = (1, 3, 6, 9, 12)
    # orchestration
    out_dir: str = "out"
    mode: str = "coverage"

    def __post_init__(self):
        if not self.lambda0 > 0.0:
            raise ConfigError("lambda0 must be positive")
        if self.lambda_total < self.lambda0:
            raise ConfigError("lambda_total must be at least lambda0")
        if not self.tau_db_list or not self.k_list:
            raise ConfigError("sweep grids must be non-empty")
        if any(not 1 <= kk <= self.rf_chains for kk in self.k_list):
            raise ConfigError("k_list entries must lie in 1..rf_chains")
        if not 1 <= self.k <= self.rf_chains:
            raise ConfigError("k must lie in 1..rf_chains")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.mc_trials < 0:
            raise ConfigError("mc_trials must be non-negative")
        # Eagerly build the typed params so every component invariant trips here.
        self.network()
        self.channel()
        self.beam()
        self.quad()

    @property
    def r0_m(self) -> float:
        return math.sqrt(1.0 / (math.pi * self.lambda0))

    def network(self) -> NetworkParams:
        return NetworkParams(
            lambda_total=self.lambda_total,
            lambda_tier0=self.lambda0,
            rf_chains=self.rf_chains,
            bandwidth=self.bandwidth_hz,
            gain_per_hop=self.k,
        )

    def channel(self) -> ChannelParams:
        return ChannelParams(
            alpha_los=self.alpha_los,
            alpha_nlos=self.alpha_nlos,
            beta=self.beta,
            blockage=BlockageModel(self.blockage, self.blockage_param),
            noise_power=self.noise_power,
        )

    def beam(self) -> BeamParams:
        return BeamParams(
            theta_a=math.radians(self.theta_a_deg),
            g_main=10.0 ** (self.g_main_db / 10.0),
            g_side=10.0 ** (self.g_side_db / 10.0),
            rf_chains=self.rf_chains,
        )

    def quad(self) -> QuadratureSpec:
        trunc = self.truncation_radius_m if self.truncation_radius_m > 0.0 \
            else 50.0 * self.r0_m
        return QuadratureSpec(rel_tol=self.rel_tol, abs_tol=self.abs_tol,
                              truncation_radius_m=trunc)

    def sim(self) -> SimConfig:
        trunc = self.quad().truncation_radius_m
        window = self.window_radius_m if self.window_radius_m > 0.0 else trunc
        return SimConfig(
            window_radius_m=window,
            trials=max(self.mc_trials, 1),
            master_seed=self.seed,
            truncation_radius_m=trunc,
        )

    @property
    def topology_window_m(self) -> float:
        return self.topology_window_radius_m if self.topology_window_radius_m > 0.0 \
            else 10.0 * self.r0_m


_BLOCKAGE_PARAM_KEYS = {
    "exponential": "blockage_mu_m",
    "los_ball": "blockage_radius_m",
    "constant": "blockage_p",
}

_INT_KEYS = {"rf_chains", "k", "mc_trials", "seed"}
_BOOL_KEYS = {"floor_hops"}
_STR_KEYS = {"blockage", "out_dir", "mode"}
_LIST_KEYS = {"tau_db_list", "k_list"}
# Keys that are resolved into canonical fields rather than stored verbatim.
_DERIVED_KEYS = {"r0_m", "lambda_ratio", "blockage_mu_m", "blockage_radius_m", "blockage_p"}

_FIELD_NAMES = {f.name for f in fields(ExperimentConfig)} - {"blockage_param"}
_KNOWN_KEYS = _FIELD_NAMES | _DERIVED_KEYS


def _parse_scalar(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _BOOL_KEYS:
            lowered = raw.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if key in _STR_KEYS:
            return raw
        if key in _LIST_KEYS:
            parts = [p for p in raw.replace(",", " ").split() if p]
            if key == "k_list":
                return tuple(int(p) for p in parts)
            return tuple(float(p) for p in parts)
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value for {key!r}: {raw!r}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse a key-value config document into a validated ExperimentConfig.

    Accepts either ``lambda0`` or ``r0_m`` (and either ``lambda_total`` or
    ``lambda_ratio``); giving both with >0.1% disagreement is an error.
    A missing ``blockage`` falls back to the exponential model with
    mu = 141.4 m and emits a warning.
    """
    raw: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = _parse_scalar(key, value)

    kwargs: dict[str, object] = {k: v for k, v in raw.items() if k in _FIELD_NAMES}

    # Tier-0 density from either surface form.
    if "r0_m" in raw:
        r0 = float(raw["r0_m"])
        if not r0 > 0.0:
            raise ConfigError("r0_m must be positive")
        lam_from_r0 = 1.0 / (math.pi * r0**2)
        if "lambda0" in raw:
            lam = float(raw["lambda0"])
            if abs(lam - lam_from_r0) > 1e-3 * lam_from_r0:
                raise ConfigError(
                    f"lambda0={lam!r} and r0_m={r0!r} disagree by more than 0.1%")
        else:
            kwargs["lambda0"] = lam_from_r0
    lam0 = float(kwargs.get("lambda0", ExperimentConfig.lambda0))

    # Total density from either surface form.
    if "lambda_ratio" in raw:
        ratio = float(raw["lambda_ratio"])
        if not ratio >= 1.0:
            raise ConfigError("lambda_ratio must be at least 1")
        total_from_ratio = ratio * lam0
        if "lambda_total" in raw:
            total = float(raw["lambda_total"])
            if abs(total - total_from_ratio) > 1e-3 * total_from_ratio:
                raise ConfigError(
                    f"lambda_total={total!r} and lambda_ratio={ratio!r} disagree "
                    "by more than 0.1%")
        else:
            kwargs["lambda_total"] = total_from_ratio
    elif "lambda_total" not in raw:
        # Keep the default 13x split consistent with an overridden lambda0.
        kwargs["lambda_total"] = 13.0 * lam0

    # Blockage: kind plus its single parameter.
    if "blockage" not in raw:
        log.warning("no blockage model configured; defaulting to exponential "
                    "with mu = %.1f m", DEFAULT_BLOCKAGE_MU_M)
    kind = str(kwargs.get("blockage", ExperimentConfig.blockage))
    if kind not in _BLOCKAGE_PARAM_KEYS:
        raise ConfigError(f"unknown blockage kind {kind!r}")
    param_key = _BLOCKAGE_PARAM_KEYS[kind]
    for other_kind, other_key in _BLOCKAGE_PARAM_KEYS.items():
        if other_key in raw and other_kind != kind:
            raise ConfigError(f"{other_key} given but blockage kind is {kind!r}")
    if param_key in raw:
        kwargs["blockage_param"] = float(raw[param_key])
    elif kind != "exponential":
        raise ConfigError(f"blockage kind {kind!r} needs {param_key}")

    try:
        return ExperimentConfig(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def to_text(cfg: ExperimentConfig) -> str:
    """Serialize with every effective key materialized; parse_config inverts this."""
    lines = ["# mmtier experiment configuration"]

    def emit(key, value):
        if isinstance(value, tuple):
            value = ", ".join(repr(v) if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")

    emit("mode", cfg.mode)
    emit("lambda0", cfg.lambda0)
    emit("lambda_total", cfg.lambda_total)
    emit("rf_chains", cfg.rf_chains)
    emit("bandwidth_hz", cfg.bandwidth_hz)
    emit("k", cfg.k)
    emit("alpha_los", cfg.alpha_los)
    emit("alpha_nlos", cfg.alpha_nlos)
    emit("beta", cfg.beta)
    emit("noise_power", cfg.noise_power)
    emit("blockage", cfg.blockage)
    emit(_BLOCKAGE_PARAM_KEYS[cfg.blockage], cfg.blockage_param)
    emit("theta_a_deg", cfg.theta_a_deg)
    emit("g_main_db", cfg.g_main_db)
    emit("g_side_db", cfg.g_side_db)
    emit("rel_tol", cfg.rel_tol)
    emit("abs_tol", cfg.abs_tol)
    emit("truncation_radius_m", cfg.truncation_radius_m)
    emit("window_radius_m", cfg.window_radius_m)
    emit("topology_window_radius_m", cfg.topology_window_radius_m)
    emit("mc_trials", cfg.mc_trials)
    emit("seed", cfg.seed)
    emit("floor_hops", cfg.floor_hops)
    emit("tau_db_list", cfg.tau_db_list)
    emit("k_list", cfg.k_list)
    emit("out_dir", cfg.out_dir)
    return "\n".join(lines) + "\n"
