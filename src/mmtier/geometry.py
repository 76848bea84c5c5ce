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

from . import analytics
from .channel import ChannelParams, _require, _require_all, _TWO_PI
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
        _require("window radius", self.radius)

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
    _require("intensity", intensity, zero_ok=True)
    return _ppp_draws(intensity, window, 1, rng)[0]


def _ppp_draws(intensity: float, window: Window, n_draws: int,
               rng: np.random.Generator) -> list[np.ndarray]:
    """n_draws successive PPP patterns on the window, (n_i, 2) arrays.

    Per draw a Poisson count n, then n radius and n angle uniforms (one
    `random(2n)`); every draw is placed at once.
    """
    counts, uniforms = [], []
    for _ in range(n_draws):
        n = rng.poisson(intensity * window.area)
        counts.append(n)
        uniforms.append(rng.random(2 * n).reshape(2, n))
    u = np.concatenate(uniforms, axis=1)
    radius = window.radius * np.sqrt(u[0])
    angle = _TWO_PI * u[1]
    pts = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    return np.split(pts + window.center.as_array(), np.cumsum(counts)[:-1])


class RadialSampler:
    """Inverse-CDF sampler for an isotropic displacement's radial distance.

    Built from a CDF that runs from exactly 0 to exactly 1 over strictly
    increasing radii; `quantile` maps one uniform variate to one radius,
    uniform within its interval, and ``rms`` is exact for that law.
    """

    def __init__(self, radii: np.ndarray, cdf: np.ndarray):
        radii = np.asarray(radii, dtype=float)
        cdf = np.asarray(cdf, dtype=float)
        if radii.ndim != 1 or radii.shape != cdf.shape or len(radii) < 2:
            raise ValueError("need matching 1-d radius/CDF tables of length >= 2")
        _require_all("radius", radii, zero_ok=True)
        if not np.all(np.diff(radii) > 0.0):
            raise ValueError("radii must increase strictly")
        if not (np.all(np.diff(cdf) >= 0.0) and cdf[0] == 0.0 and cdf[-1] == 1.0):
            raise ValueError("the CDF must not decrease and must run from 0 to 1")
        a, b = radii[:-1], radii[1:]
        # .sum(), not a dot product: a BLAS call can start its thread pool per sampler.
        self.rms = float(math.sqrt((np.diff(cdf) * (a * a + a * b + b * b)).sum() / 3.0))
        self._radii, self._cdf = radii, cdf

    @classmethod
    def from_serving_distance(cls, lam: float, channel: ChannelParams,
                              quad: QuadratureSpec = DEFAULT_QUAD) -> "RadialSampler":
        """Sampler for the max-average-power association distance at intensity lam.

        Inverts the CDF of `analytics.tabulate_serving_distance`; ``quad`` is not used.
        """
        table = analytics.tabulate_serving_distance(lam, channel, quad)
        return cls(table.radii, table.cdf)

    def quantile(self, u) -> np.ndarray:
        """Inverse CDF: the radius at each uniform variate (any array shape)."""
        return np.interp(u, self._cdf, self._radii)


def select_scheduled(tier: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Pick the transmitters of the next hop: one point per cluster, uniformly.

    ``tier`` is the ordered union of clusters of ``k`` points each (tier 0,
    which transmits whole, is k = 1 and draws no variate). Returns the
    selected (m, 2) points together with their indices into ``tier``.
    """
    tier = np.asarray(tier, dtype=float).reshape(-1, 2)
    if k < 1 or len(tier) % k:
        raise ValueError("tier is not a union of clusters of k >= 1 points")
    m = len(tier) // k
    idx = np.arange(m) * k + rng.integers(0, k, size=m)
    return tier[idx], idx


@dataclass
class TierTopology:
    """Realized point sets of every tier plus the scheduled subsets.

    tiers[i] is the full tier-i point set and scheduled_indices[i] the indices
    into it of the transmitters of hop i+1, one per cluster of tier i. Tier
    i+1 is their clusters of gains[i] receivers, in order. residual_intensity
    is the density left unserved when hop flooring was requested.
    """

    tiers: list[np.ndarray]
    scheduled_indices: list[np.ndarray]
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
        """Index structure: one parent per cluster, gain-sized clusters; raises on violation."""
        if len(self.scheduled_indices) != self.hops or len(self.gains) != self.hops:
            raise AssertionError("scheduled/gain bookkeeping out of step with tiers")
        for i, idx in enumerate(self.scheduled_indices):
            size = self.gains[i - 1] if i else 1
            if len(self.tiers[i]) != size * len(idx) \
                    or not np.array_equal(idx // size, np.arange(len(idx))):
                raise AssertionError(f"hop {i + 1} does not schedule one point per cluster")
            if len(self.tiers[i + 1]) != self.gains[i] * len(idx):
                raise AssertionError(f"tier {i + 1} is not {self.gains[i]} receivers per parent")


def build_tier_topology(net: analytics.NetworkParams, channel: ChannelParams,
                        window: Window, rng: np.random.Generator,
                        allow_residual: bool = False,
                        sampler: RadialSampler | None = None) -> TierTopology:
    """Realize the whole tiered topology for one seed.

    Tier 0 ~ PPP(lambda_tier0); each hop schedules one transmitter per cluster
    and spawns a cluster of k = ``net.gain_per_hop`` receivers per transmitter,
    so every relay tier has intensity k * lambda_tier0. Construction stops when
    the cumulative intensity reaches lambda_total; a split that cannot land
    exactly is rejected unless ``allow_residual`` floors the hop count.
    """
    k = net.gain_per_hop
    gains = [k] * analytics.hop_count(net.lambda_total, net.lambda_tier0, k,
                                      allow_floor=allow_residual)
    residual = net.lambda_total - net.lambda_tier0 * (1.0 + sum(gains))

    if sampler is None:
        sampler = RadialSampler.from_serving_distance(net.lambda_tier0, channel)

    tier0 = sample_ppp(net.lambda_tier0, window, rng)
    tiers = [tier0]
    scheduled_idx: list[np.ndarray] = []
    for i, k_i in enumerate(gains):
        sched, idx = select_scheduled(tiers[i], gains[i - 1] if i else 1, rng)
        # Cluster j takes k_i radius uniforms, then k_i angle uniforms.
        u = rng.random((len(sched), 2, k_i))
        radii = sampler.quantile(u[:, 0])
        angles = _TWO_PI * u[:, 1]
        clusters = np.stack([sched[:, 0, None] + radii * np.cos(angles),
                             sched[:, 1, None] + radii * np.sin(angles)], axis=-1)
        scheduled_idx.append(idx)
        tiers.append(clusters.reshape(-1, 2))

    topo = TierTopology(tiers=tiers, scheduled_indices=scheduled_idx, gains=gains,
                        window=window, residual_intensity=residual)
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
    This is the one-pattern case of the batched estimator that also counts
    the CSR reference draws of `csr_envelope` and `csr_global_test`, many
    patterns to a tree; both give the integer counts of the direct n x n
    evaluation.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) < 2:
        raise ValueError("Ripley's K needs at least two points")
    return _ripley_batch([pts], window, radii)[0]


# Points per KD-tree when the reference draws are counted in batches. The
# tree and the pair arrays grow with the batch: at radii up to 2 r0, the 200
# draws of a check at 6 lambda0 (~77 000 points) in one tree peaked at 80 MB
# traced, in batches of at most this many points at 14 MB, at the same speed.
_MAX_BATCH_POINTS = 8192


def _ripley_batch(patterns, window: Window, radii) -> np.ndarray:
    """Ripley's K of each (n_i, 2) pattern on one window: (n_patterns, n_radii).

    Row p is `ripley_k(patterns[p], window, radii)`; a pattern with fewer
    than two points gives a NaN row.

    The patterns sit side by side along x for one `cKDTree.query_pairs`, the
    copies of the window centre `spacing` apart. Every point lies within
    spacing / 2 - reach of its pattern's centre, so points of two patterns
    are at least 2 * reach apart and no pair crosses between them. Each
    pair's distance is taken again with `hypot` on the unshifted
    coordinates, so the counts do not depend on the batch. A pair at
    distance d counts for an endpoint at every sorted radius from the first
    one >= d up to the last one <= the endpoint's boundary distance; one
    difference array, indexed by label * (n_r + 1) + radius index,
    accumulates every radius of every pattern at once.
    """
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0.0) or np.any(radii >= window.radius):
        raise ValueError("radii must be positive and smaller than the window radius")
    counts = np.array([len(p) for p in patterns])
    pts = np.concatenate(patterns).reshape(-1, 2)
    n_pat, n_r = len(counts), len(radii)

    label = np.repeat(np.arange(n_pat), counts)
    from_center = np.hypot(*(pts - window.center.as_array()).T)
    boundary = window.radius - from_center
    # The tree's own distances may differ from hypot in the last bits; the
    # pad admits every candidate, and hypot alone decides d <= r (pairs
    # beyond the largest radius land at index n_r of their row and drop out).
    reach = radii.max(initial=0.0) * (1.0 + 1e-9)
    spacing = 2.0 * (from_center.max(initial=0.0) + reach)
    # Shifting rounds an x coordinate by at most 2^-53 * extent, so a tree
    # distance moves by at most 2^-52 * extent: under the pad of 1e-9 * r_max
    # (with a few ulps of r to spare) while extent <= 2^21 * reach. Wider
    # layouts are split; one pattern is not shifted at all.
    extent = np.abs(pts[:, 0]).max(initial=0.0) + (n_pat - 1) * spacing
    if n_pat > 1 and extent > 2.0**21 * reach:
        half = n_pat // 2
        return np.vstack([_ripley_batch(patterns[:half], window, radii),
                          _ripley_batch(patterns[half:], window, radii)])
    shifted = pts.copy()
    shifted[:, 0] += label * spacing
    from scipy.spatial import cKDTree  # imported here: the coverage path needs no scipy
    i, j = cKDTree(shifted, balanced_tree=False, compact_nodes=False).query_pairs(
        reach, output_type="ndarray").T
    d = np.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1])

    order = np.argsort(radii)
    sorted_r = radii[order]
    width = n_r + 1
    size = n_pat * width
    first = label[i] * width + np.searchsorted(sorted_r, d, "left")
    stop = label * width + np.searchsorted(sorted_r, boundary, "right")
    steps = (2 * np.bincount(first, minlength=size)
             - np.bincount(np.maximum(first, stop[i]), minlength=size)
             - np.bincount(np.maximum(first, stop[j]), minlength=size))
    pair_counts = np.cumsum(steps.reshape(n_pat, width), axis=1)[:, :n_r]
    beyond = np.bincount(stop, minlength=size).reshape(n_pat, width)
    interior = counts[:, None] - np.cumsum(beyond, axis=1)[:, :n_r]

    has = (interior > 0) & (counts[:, None] >= 2)
    lam_hat = np.broadcast_to(counts[:, None] / window.area, has.shape)
    k_sorted = np.full((n_pat, n_r), np.nan)
    k_sorted[has] = pair_counts[has] / interior[has] / lam_hat[has]
    out = np.empty_like(k_sorted)
    out[:, order] = k_sorted
    return out


def points_in_window(points: np.ndarray, window: Window) -> np.ndarray:
    """The subset of points inside the window (clips guard-annulus spillover)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    center = window.center.as_array()
    return pts[np.hypot(*(pts - center).T) <= window.radius]


def _reference_k(intensity: float, window: Window, radii, n_sims: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Ripley's K of n_sims CSR draws, one row each (NaN below two points).

    Counts the patterns of one `_ppp_draws` call in batches of at most
    `_MAX_BATCH_POINTS` points (a larger draw is a batch of its own).
    """
    rows, batch, size = [], [], 0
    for pattern in _ppp_draws(intensity, window, n_sims, rng):
        if batch and size + len(pattern) > _MAX_BATCH_POINTS:
            rows.append(_ripley_batch(batch, window, radii))
            batch, size = [], 0
        batch.append(pattern)
        size += len(pattern)
    rows.append(_ripley_batch(batch, window, radii))
    return np.vstack(rows)


def csr_envelope(intensity: float, window: Window, radii, n_sims: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise 99% CSR envelope of ripley_k from n_sims reference PPP draws."""
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
