"""Tiered point-process model of ultra-dense mmWave AP networks.

Analytical latency / SINR-coverage / throughput as functions of the spatial
multiplexing gain, a matching Monte Carlo simulator for cross-validation,
topology sampling, and a config-driven CLI (`mmtier`).
"""

from .channel import (
    LOS,
    NLOS,
    BeamParams,
    BlockageModel,
    ChannelParams,
    GainPmf,
    beam_gain_pmf,
    los_probability,
)
from .analytics import (
    CoverageResult,
    NetworkParams,
    QuadratureError,
    QuadratureSpec,
    coverage_probability,
    hop_count,
    laplace_interference,
    nearest_distance_pdf,
    optimal_gain,
    serving_distance_pdf,
    tabulate_serving_distance,
)
from .geometry import (
    Point,
    RadialSampler,
    TierTopology,
    Window,
    build_tier_topology,
    csr_envelope,
    csr_global_test,
    points_in_window,
    ripley_k,
    sample_ppp,
    select_scheduled,
    topology_to_csv,
    topology_to_gnuplot,
)
from .montecarlo import (
    SimConfig,
    SimulationError,
    empirical_coverage,
    empirical_laplace,
    empirical_laplace_batch,
    serving_distance_samples,
)

__version__ = "0.1.0"
