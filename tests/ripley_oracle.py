"""The n x n evaluation of Ripley's K and the per-draw loop over CSR
reference patterns, kept as test oracles for `mmtier.geometry`.

`ripley_k` is the implementation that `mmtier.geometry` replaced with KD-tree
pair counts. Its code is unchanged. It builds an (n, n, 2) difference tensor
and, at every radius, an (m, n) copy of the interior rows, so its memory grows
with the square of the point count. Both implementations count the same
integer neighbour pairs with the same distance arithmetic, so they must agree
exactly.

`reference_k` is the loop that `mmtier.geometry._reference_k` replaced with
one placement of every draw and batched pair counts. Its code is unchanged:
one `sample_ppp` call and one Ripley's K per draw. Both consume the same
random stream, so they must agree exactly.
"""

import numpy as np

from mmtier.geometry import Window, sample_ppp


def ripley_k(points: np.ndarray, window: Window, radii) -> np.ndarray:
    """Border-corrected empirical Ripley K at each radius.

    Reduced-sample estimator: only points whose distance to the window
    boundary is at least r contribute neighbor counts at radius r, so no
    disk is censored. For a homogeneous PPP, K(r) ~ pi r^2. Radii where no
    point qualifies yield NaN.
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
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(dist, np.inf)

    lam_hat = n / window.area
    out = np.empty(len(radii))
    for i, r in enumerate(radii):
        interior = boundary >= r
        m = int(np.count_nonzero(interior))
        if m == 0:
            out[i] = np.nan
            continue
        neighbor_counts = np.count_nonzero(dist[interior] <= r, axis=1)
        out[i] = neighbor_counts.mean() / lam_hat
    return out


def reference_k(intensity: float, window: Window, radii: np.ndarray, n_sims: int,
                rng: np.random.Generator) -> np.ndarray:
    sims = np.full((n_sims, len(radii)), np.nan)
    for s in range(n_sims):
        pts = sample_ppp(intensity, window, rng)
        if len(pts) >= 2:
            sims[s] = ripley_k(pts, window, radii)
    return sims
