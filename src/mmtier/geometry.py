"""Spatial construction of the tiered AP network.

Tier 0 is a homogeneous PPP on a disk window; every later tier is grown by
displacing each scheduled transmitter into a cluster of receivers whose radial
distance follows the serving-distance law. Point sets are (n, 2) float arrays;
single locations are `Point` values.

Also holds the spatial statistics used to test the construction (Ripley's K
with border correction, CSR envelopes) and the CSV/gnuplot dumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import analytics
from .channel import ChannelParams
from .analytics import QuadratureSpec, DEFAULT_QUAD


@dataclass(frozen=True)
class Point:
    """A planar location in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("coordinates must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True)
class Window:
    """Disk observation window approximating the infinite plane."""

    center: Point
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("window radius must be positive")

    @property
    def area(self) -> float:
        return math.pi * self.radius**2

    def with_guard(self, hops: int, step_rms_m: float) -> "Window":
        """Padded build window: the displacement chain diffuses by roughly
        sqrt(hops) * step RMS, so sampling parents on a disk padded by 2.5 times
        that keeps the late tiers homogeneous over this (nominal) window."""
        guard = 2.5 * math.sqrt(max(hops, 1)) * step_rms_m
        return Window(self.center, self.radius + guard)


def sample_ppp(intensity: float, window: Window, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous PPP on the window: Poisson count, uniform positions.

    Returns an (n, 2) array. Identical (intensity, window, rng state) gives
    bit-identical output.
    """
    if intensity < 0.0:
        raise ValueError("intensity must be non-negative")
    n = rng.poisson(intensity * window.area)
    radii = window.radius * np.sqrt(rng.random(n))
    angles = 2.0 * math.pi * rng.random(n)
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    return pts + window.center.as_array()


class RadialSampler:
    """Inverse-CDF sampler for an isotropic displacement's radial distance.

    Built from a dense table of any radial density; `quantile` maps one
    uniform variate to one radius, so sampling stays reproducible and cheap.
    """

    def __init__(self, radii: np.ndarray, pdf: np.ndarray):
        radii = np.asarray(radii, dtype=float)
        pdf = np.asarray(pdf, dtype=float)
        if radii.ndim != 1 or radii.shape != pdf.shape or len(radii) < 2:
            raise ValueError("need matching 1-d radius/pdf tables of length >= 2")
        if np.any(np.diff(radii) <= 0.0) or np.any(pdf < 0.0):
            raise ValueError("radii must increase strictly and the pdf be non-negative")
        self._cdf, mass = analytics._trapezoid_cdf(radii, pdf)
        self.rms = float(math.sqrt(np.trapezoid(radii**2 * pdf, radii) / mass))
        self._radii = radii

    @classmethod
    def from_serving_distance(cls, lam: float, channel: ChannelParams,
                              quad: QuadratureSpec = DEFAULT_QUAD) -> "RadialSampler":
        """Sampler for the max-average-power association distance at intensity lam.

        Inverts the CDF of `analytics.tabulate_serving_distance`; ``quad`` is not used.
        """
        table = analytics.tabulate_serving_distance(lam, channel, quad)
        return cls(table.radii, table.pdf_total)

    def quantile(self, u) -> np.ndarray:
        """Inverse CDF: the radius at each uniform variate (any array shape)."""
        return np.interp(u, self._cdf, self._radii)


def select_scheduled(tier: np.ndarray, cluster_map, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Pick the transmitters of the next hop: one point per cluster, uniformly.

    ``cluster_map`` is an (m, k, 2) array of the clusters whose union is
    ``tier`` (pass None for tier 0, which transmits whole). Returns the
    selected (m, 2) points together with their indices into ``tier``.
    """
    tier = np.asarray(tier, dtype=float).reshape(-1, 2)
    if cluster_map is None:
        return tier.copy(), np.arange(len(tier))
    clusters = np.asarray(cluster_map, dtype=float)
    if clusters.ndim != 3 or clusters.shape[2] != 2:
        raise ValueError("cluster map must have shape (m, k, 2)")
    m, k, _ = clusters.shape
    if k == 0 or m == 0 and len(tier) > 0:
        raise ValueError("cluster map contains an empty cluster")
    if m * k != len(tier) or not np.array_equal(clusters.reshape(-1, 2), tier):
        raise ValueError("tier is not the (ordered) union of the cluster map")
    choice = rng.integers(0, k, size=m)
    idx = np.arange(m) * k + choice
    return tier[idx].copy(), idx


@dataclass
class TierTopology:
    """Realized point sets of every tier plus the scheduled subsets.

    tiers[i] is the full tier-i point set; scheduled[i] the transmitters of
    hop i+1 (one per cluster of tier i); cluster_map[i][j] the receiver
    cluster spawned by scheduled[i][j]. gains[i] is the per-hop multiplexing
    gain, residual_intensity the density left unserved when hop flooring was
    requested.
    """

    tiers: list[np.ndarray]
    scheduled: list[np.ndarray]
    scheduled_indices: list[np.ndarray]
    cluster_map: list[np.ndarray]
    gains: list[int]
    window: Window
    residual_intensity: float = 0.0

    @property
    def hops(self) -> int:
        return len(self.tiers) - 1

    def all_points(self) -> np.ndarray:
        if not self.tiers:
            return np.empty((0, 2))
        return np.concatenate([t for t in self.tiers], axis=0)

    def check_invariants(self) -> None:
        """Structural containment / union / cluster-size checks; raises on violation."""
        if len(self.scheduled) != self.hops or len(self.cluster_map) != self.hops:
            raise AssertionError("scheduled/cluster bookkeeping out of step with tiers")
        for i in range(self.hops):
            sched, idx = self.scheduled[i], self.scheduled_indices[i]
            if not np.array_equal(sched, self.tiers[i][idx]):
                raise AssertionError(f"scheduled set of hop {i + 1} is not a subset of tier {i}")
            clusters = self.cluster_map[i]
            if clusters.shape[0] != len(sched) or clusters.shape[1] != self.gains[i]:
                raise AssertionError(f"hop {i + 1} cluster sizes disagree with gain {self.gains[i]}")
            if not np.array_equal(clusters.reshape(-1, 2), self.tiers[i + 1]):
                raise AssertionError(f"tier {i + 1} is not the union of its clusters")


def build_tier_topology(net: analytics.NetworkParams, channel: ChannelParams,
                        window: Window, rng: np.random.Generator,
                        gains: list[int] | None = None,
                        allow_residual: bool = False,
                        sampler: RadialSampler | None = None) -> TierTopology:
    """Realize the whole tiered topology for one seed.

    Tier 0 ~ PPP(lambda_tier0); each hop schedules one transmitter per cluster
    and spawns a cluster of ``gains[i]`` receivers per transmitter, so tier
    i+1 has intensity gains[i] * lambda_tier0. Construction stops when the
    cumulative intensity reaches lambda_total; a split that cannot land
    exactly is rejected unless ``allow_residual`` floors the hop count.
    """
    if gains is None:
        k = net.gain_per_hop
        hops = analytics.hop_count(net.lambda_total, net.lambda_tier0, k,
                                   allow_floor=allow_residual)
        gains = [k] * hops
    else:
        gains = [int(g) for g in gains]
        if any(not 1 <= g <= net.rf_chains for g in gains):
            raise ValueError("every per-hop gain must lie in 1..rf_chains")
        target = (net.lambda_total - net.lambda_tier0) / net.lambda_tier0
        cum = np.cumsum(gains)
        stop = np.nonzero(np.abs(cum - target) <= 1e-9 * max(1.0, target))[0]
        if stop.size:
            gains = gains[: stop[0] + 1]
        elif not allow_residual:
            raise ValueError("per-hop gains never sum to the relay density split")
        else:
            keep = int(np.searchsorted(cum, target, side="right"))
            gains = gains[:keep]
    residual = net.lambda_total - net.lambda_tier0 * (1.0 + sum(gains))

    if sampler is None:
        sampler = RadialSampler.from_serving_distance(net.lambda_tier0, channel)

    tier0 = sample_ppp(net.lambda_tier0, window, rng)
    tiers = [tier0]
    scheduled: list[np.ndarray] = []
    scheduled_idx: list[np.ndarray] = []
    cluster_map: list[np.ndarray] = []
    for i, k_i in enumerate(gains):
        prev_clusters = cluster_map[i - 1] if i > 0 else None
        sched, idx = select_scheduled(tiers[i], prev_clusters, rng)
        # Cluster j takes k_i radius uniforms, then k_i angle uniforms.
        u = rng.random((len(sched), 2, k_i))
        radii = sampler.quantile(u[:, 0])
        angles = 2.0 * math.pi * u[:, 1]
        clusters = np.stack([sched[:, 0, None] + radii * np.cos(angles),
                             sched[:, 1, None] + radii * np.sin(angles)], axis=-1)
        scheduled.append(sched)
        scheduled_idx.append(idx)
        cluster_map.append(clusters)
        tiers.append(clusters.reshape(-1, 2))

    topo = TierTopology(tiers=tiers, scheduled=scheduled, scheduled_indices=scheduled_idx,
                        cluster_map=cluster_map, gains=gains, window=window,
                        residual_intensity=residual)
    topo.check_invariants()
    return topo


# ---------------------------------------------------------------------------
# Spatial statistics
# ---------------------------------------------------------------------------


def ripley_k(points: np.ndarray, window: Window, radii) -> np.ndarray:
    """Border-corrected empirical Ripley K at each radius.

    Reduced-sample estimator: only points whose distance to the window
    boundary is at least r contribute neighbor counts at radius r, so no
    disk is censored. For a homogeneous PPP, K(r) ~ pi r^2. Radii where no
    point qualifies yield NaN.

    Neighbor pairs come from one KD-tree query at the largest radius, so
    memory is linear in the point count plus the pairs within that radius.
    A pair at distance d counts for an endpoint at every sorted radius from
    the first one >= d up to the last one <= the endpoint's boundary
    distance; one difference array accumulates all radii at once.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    if n < 2:
        raise ValueError("Ripley's K needs at least two points")
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0.0) or np.any(radii >= window.radius):
        raise ValueError("radii must be positive and smaller than the window radius")

    center = window.center.as_array()
    boundary = window.radius - np.hypot(*(pts - center).T)
    order = np.argsort(radii)
    sorted_r = radii[order]
    n_r = len(sorted_r)
    # The tree's own distances may differ from hypot in the last bits; the
    # pad admits every candidate, and hypot alone decides d <= r (pairs
    # beyond the largest radius land at index n_r and drop out).
    i, j = cKDTree(pts).query_pairs(radii.max(initial=0.0) * (1.0 + 1e-9),
                                    output_type="ndarray").T
    d = np.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1])
    first = np.repeat(np.searchsorted(sorted_r, d, "left"), 2)
    stop = np.searchsorted(sorted_r, boundary, "right")
    last = np.maximum(first, stop[np.column_stack([i, j]).ravel()])
    steps = np.bincount(first, minlength=n_r + 1) - np.bincount(last, minlength=n_r + 1)
    pair_counts = np.cumsum(steps)[:n_r]
    interior = n - np.cumsum(np.bincount(stop, minlength=n_r + 1))[:n_r]

    lam_hat = n / window.area
    out = np.full(n_r, np.nan)
    has = interior > 0
    out[order[has]] = pair_counts[has] / interior[has] / lam_hat
    return out


def points_in_window(points: np.ndarray, window: Window) -> np.ndarray:
    """The subset of points inside the window (clips guard-annulus spillover)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    center = window.center.as_array()
    return pts[np.hypot(*(pts - center).T) <= window.radius]


def _reference_k(intensity: float, window: Window, radii: np.ndarray, n_sims: int,
                 rng: np.random.Generator) -> np.ndarray:
    sims = np.full((n_sims, len(radii)), np.nan)
    for s in range(n_sims):
        pts = sample_ppp(intensity, window, rng)
        if len(pts) >= 2:
            sims[s] = ripley_k(pts, window, radii)
    return sims


def csr_envelope(intensity: float, window: Window, radii, n_sims: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise 99% CSR envelope of ripley_k from n_sims reference PPP draws."""
    radii = np.asarray(radii, dtype=float)
    sims = _reference_k(intensity, window, radii, n_sims, rng)
    lo, hi = np.nanquantile(sims, [0.005, 0.995], axis=0)
    return lo, hi


def csr_global_test(points: np.ndarray, window: Window, radii, n_sims: int,
                    rng: np.random.Generator) -> tuple[float, float]:
    """Multiplicity-free CSR test: studentized max deviation of Ripley's K.

    The statistic is max over radii of |K_hat - mean| / sd under the CSR null
    (mean/sd from n_sims reference draws); returns (observed, null 0.99
    quantile). Observed below the quantile means the pattern is CSR-compatible
    across all radii simultaneously at level 0.01.
    """
    radii = np.asarray(radii, dtype=float)
    sims = _reference_k(len(points) / window.area, window, radii, n_sims, rng)
    mean = np.nanmean(sims, axis=0)
    sd = np.maximum(np.nanstd(sims, axis=0), 1e-12)
    null = np.nanmax(np.abs(sims - mean) / sd, axis=1)
    observed = float(np.nanmax(np.abs(ripley_k(points, window, radii) - mean) / sd))
    return observed, float(np.nanquantile(null, 0.99))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _tier_rows(topo: TierTopology):
    """Per tier: its index and (x, y, scheduled flag) rows as Python values."""
    for i, tier in enumerate(topo.tiers):
        flags = np.zeros(len(tier), dtype=int)
        if i < len(topo.scheduled_indices):
            flags[topo.scheduled_indices[i]] = 1
        yield i, zip(tier.tolist(), flags.tolist())


def topology_to_csv(topo: TierTopology) -> str:
    """CSV dump: tier, x, y, scheduled flag (1 when the point transmits)."""
    lines = ["tier,x,y,scheduled\n"]
    for i, rows in _tier_rows(topo):
        lines += [f"{i},{x!r},{y!r},{flag}\n" for (x, y), flag in rows]
    return "".join(lines)


def topology_to_gnuplot(topo: TierTopology) -> str:
    """Gnuplot-ready columns, one index block per tier (blank-line separated)."""
    blocks = []
    for i, rows in _tier_rows(topo):
        lines = [f"# tier {i}"]
        lines += [f"{x!r} {y!r} {flag}" for (x, y), flag in rows]
        blocks.append("\n".join(lines))
    return "\n\n\n".join(blocks) + "\n"
