"""Flat key-value experiment configuration.

One ``key = value`` per line, ``#`` comments, diff-friendly. dB and degree
fields are converted to linear / radians only when the typed parameter
objects are built, so everything downstream of this module is linear.
The file describes the experiment only; the ``mmtier`` subcommand says what
to run on it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

from .analytics import NetworkParams, QuadratureSpec, _r0
from .channel import BeamParams, BlockageModel, ChannelParams
from .montecarlo import _MIN_COVERAGE_TRIALS, SimConfig

log = logging.getLogger("mmtier")

DEFAULT_BLOCKAGE_MU_M = 141.4


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


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
    rel_tol: float = QuadratureSpec.rel_tol
    abs_tol: float = QuadratureSpec.abs_tol
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

    def __post_init__(self):
        if not self.lambda0 > 0.0:
            raise ConfigError("lambda0 must be positive")
        if self.lambda_total < self.lambda0:
            raise ConfigError("lambda_total must be at least lambda0")
        if not self.tau_db_list or not self.k_list:
            raise ConfigError("sweep grids must be non-empty")
        finite = [(f.name, [getattr(self, f.name)]) for f in fields(self) if f.type == "float"]
        for key, values in [*finite, ("tau_db_list entries", self.tau_db_list)]:
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"{key} must be finite")
        if any(not 1 <= kk <= self.rf_chains for kk in self.k_list):
            raise ConfigError("k_list entries must lie in 1..rf_chains")
        if not 1 <= self.k <= self.rf_chains:
            raise ConfigError("k must lie in 1..rf_chains")
        if self.mc_trials != 0 and self.mc_trials < _MIN_COVERAGE_TRIALS:
            raise ConfigError(f"mc_trials must be 0 or at least {_MIN_COVERAGE_TRIALS}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must lie in 0 .. 2^64 - 1")
        for key in ("truncation_radius_m", "window_radius_m", "topology_window_radius_m"):
            if not getattr(self, key) >= 0.0:
                raise ConfigError(f"{key} must be 0 (the default) or positive")
        try:  # eagerly build the typed params so every component invariant trips here
            self.network()
            self.channel()
            self.beam()
            self.quad()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def r0_m(self) -> float:
        return _r0(self.lambda0)

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
            g_main=_db_to_linear(self.g_main_db),
            g_side=_db_to_linear(self.g_side_db),
            rf_chains=self.rf_chains,
        )

    def quad(self) -> QuadratureSpec:
        if self.truncation_radius_m > 0.0:
            return QuadratureSpec(rel_tol=self.rel_tol, abs_tol=self.abs_tol,
                                  truncation_radius_m=self.truncation_radius_m)
        return QuadratureSpec.for_tier_intensity(self.lambda0, self.rel_tol, self.abs_tol)

    def sim(self) -> SimConfig:
        trunc = self.quad().truncation_radius_m
        window = self.window_radius_m if self.window_radius_m > 0.0 else trunc
        try:
            return SimConfig(
                window_radius_m=window,
                trials=max(self.mc_trials, 1),
                master_seed=self.seed,
                truncation_radius_m=trunc,
            )
        except ValueError as exc:  # built only when a command runs Monte Carlo trials
            raise ConfigError(f"{exc} (window_radius_m = {window:g} m, truncation "
                              f"radius {trunc:g} m)") from exc

    @property
    def topology_window_m(self) -> float:
        return self.topology_window_radius_m if self.topology_window_radius_m > 0.0 \
            else 10.0 * self.r0_m


_BLOCKAGE_PARAM_KEYS = {
    "exponential": "blockage_mu_m",
    "los_ball": "blockage_radius_m",
    "constant": "blockage_p",
}

# Keys that are resolved into canonical fields rather than stored verbatim; all floats.
_DERIVED_KEYS = {"r0_m", "lambda_ratio", "blockage_mu_m", "blockage_radius_m", "blockage_p"}

# Annotation (a string under postponed evaluation) of every field a config file may set.
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig) if f.name != "blockage_param"}
_KNOWN_KEYS = _FIELD_TYPES.keys() | _DERIVED_KEYS
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_PARSERS = {"int": int, "float": float, "str": str, "bool": lambda raw: _BOOLS[raw.lower()]}


def _parse_scalar(key: str, raw: str):
    """``raw`` as the annotated type of field ``key`` (a derived key is a float); a
    ``tuple[T, ...]`` field takes comma- or space-separated items of type T."""
    kind = _FIELD_TYPES.get(key, "float")
    item = kind.removeprefix("tuple[").removesuffix(", ...]")
    parse = _PARSERS[item]
    try:
        if item != kind:
            return tuple(parse(p) for p in raw.replace(",", " ").split())
        return parse(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"cannot parse value for {key!r}: {raw!r}") from exc


def _either(raw: dict, kwargs: dict, key: str, alt: str, from_alt: float) -> None:
    """Set ``key`` to ``from_alt``, its value implied by the given ``alt``, unless ``key``
    is given too: then the two must agree within 0.1%."""
    if key not in raw:
        kwargs[key] = from_alt
    elif abs(raw[key] - from_alt) > 1e-3 * from_alt:
        raise ConfigError(f"{key}={raw[key]!r} and {alt}={raw[alt]!r} disagree by more than 0.1%")


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

    kwargs: dict[str, object] = {k: v for k, v in raw.items() if k in _FIELD_TYPES}

    # Tier-0 and total density, each from either surface form.
    if "r0_m" in raw:
        if not raw["r0_m"] > 0.0:
            raise ConfigError("r0_m must be positive")
        _either(raw, kwargs, "lambda0", "r0_m", 1.0 / (math.pi * raw["r0_m"]**2))
    lam0 = kwargs.get("lambda0", ExperimentConfig.lambda0)
    if "lambda_ratio" in raw:
        if not raw["lambda_ratio"] >= 1.0:
            raise ConfigError("lambda_ratio must be at least 1")
        _either(raw, kwargs, "lambda_total", "lambda_ratio", raw["lambda_ratio"] * lam0)
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

    return ExperimentConfig(**kwargs)
