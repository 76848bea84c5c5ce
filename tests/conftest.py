"""Shared fixtures: the reference evaluation setting used throughout.

Exponential blockage with mu = 141.4 m, two-slope path loss (2 / 4), unit
intercept, negligible noise, 30 degree beams with 20 dB / 0 dB lobes and 12
RF chains. Session-scoped where construction is expensive.
"""

import math
import os
from pathlib import Path

import pytest

from mmtier import (
    BeamParams,
    BlockageModel,
    ChannelParams,
    NetworkParams,
    QuadratureSpec,
    tabulate_serving_distance,
)

# `pythonpath` in pyproject.toml puts src/ on this process's import path;
# subprocesses that run `python -m mmtier` get it through PYTHONPATH.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH"))))

MU_M = 141.4
R0_M = 100.0


def intensity_for(r0_m: float) -> float:
    return 1.0 / (math.pi * r0_m**2)


def latency_bounds(lambda_total: float, lambda0: float, rf_chains: int) -> tuple[float, float]:
    """Hop-count envelope: every relay tier carries between lambda0 and K*lambda0."""
    if not lambda0 > 0.0 or lambda_total < lambda0:
        raise ValueError("need lambda_total >= lambda0 > 0")
    if rf_chains < 1:
        raise ValueError("need at least one RF chain")
    relay = lambda_total - lambda0
    return relay / (rf_chains * lambda0), relay / lambda0


@pytest.fixture(scope="session")
def blockage():
    return BlockageModel("exponential", MU_M)


@pytest.fixture(scope="session")
def channel(blockage):
    return ChannelParams(alpha_los=2.0, alpha_nlos=4.0, beta=1.0,
                         blockage=blockage, noise_power=0.0)


@pytest.fixture(scope="session")
def beam():
    return BeamParams(theta_a=math.pi / 6.0, g_main=100.0, g_side=1.0, rf_chains=12)


@pytest.fixture(scope="session")
def lam0():
    return intensity_for(R0_M)


@pytest.fixture(scope="session")
def quad():
    # 25 mean spacings: tail bounds stay far below every tolerance used here
    # while keeping the Monte Carlo window (which must match) affordable.
    return QuadratureSpec(truncation_radius_m=2500.0)


@pytest.fixture(scope="session")
def net(lam0):
    return NetworkParams(lambda_total=13.0 * lam0, lambda_tier0=lam0,
                         rf_chains=12, bandwidth=1.0, gain_per_hop=1)


@pytest.fixture(scope="session")
def serving_table(lam0, channel, quad):
    return tabulate_serving_distance(lam0, channel, quad)
