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
    nlos_probability,
    path_loss,
    sample_fading,
)
from .analytics import (
    CoverageResult,
    NetworkParams,
    QuadratureError,
    QuadratureSpec,
    conditional_coverage,
    coverage_probability,
    gain_moment,
    hop_count,
    laplace_interference,
    latency_bounds,
    nearest_distance_pdf,
    optimal_gain,
    serving_distance_pdf,
    tabulate_serving_distance,
    throughput,
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
    sample_cluster,
    sample_ppp,
    select_scheduled,
    split_by_los,
    topology_to_csv,
    topology_to_gnuplot,
)
from .montecarlo import (
    HopRealization,
    SimConfig,
    SimulationError,
    compute_sinr,
    empirical_coverage,
    empirical_laplace,
    realize_hop,
    serving_distance_samples,
    sinr_samples,
    trial_stream,
    wilson_halfwidth,
)

__version__ = "0.1.0"
