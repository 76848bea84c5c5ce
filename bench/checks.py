"""Correctness checks of every benchmark operation, against stored references.

Each checker returns ``(failed_ops, messages)``: how many of the block's
operations missed their check, and why. The references under
``references/`` are analytic values regenerated by ``make_references.py``;
none of them depends on the order in which the program draws random numbers,
so a sampler that batches or reorders its streams is judged by the same
numbers.

Statistical tolerances are wider than ``mmtier validate``'s, because one
benchmark run makes about a hundred such comparisons, ten runs a thousand,
and a correct program must not fail any of them by chance:

- coverage: max(0.02, 4.5 binomial standard errors at the analytic value)
  instead of max(0.02, 2 Wilson half-widths), about 3.9 standard errors; at
  2 000 trials a correct program missed that by 3.8 standard errors;
- Laplace: 4 standard errors instead of 3 (a 6e-5 false-alarm rate per
  tuple instead of 2.7e-3);
- association law: KS p-value above 1e-4 instead of 0.01.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

REFERENCES = Path(__file__).resolve().parent / "references"

COVERAGE_TOL_FLOOR = 0.02
COVERAGE_Z = 4.5
LAPLACE_Z = 4.0
KS_MIN_PVALUE = 1e-4
MONOTONE_SLACK = 1e-9  # the slack `mmtier validate` allows for coverage monotonicity
IDENTITY_RTOL = 1e-12
POISSON_Z = 5.0


def load(name: str) -> dict:
    with open(REFERENCES / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def sweep_key(blockage: str, tau_db: float, k: int) -> str:
    return f"{blockage}|{float(tau_db)!r}|{int(k)}"


def check_sweep(rows, blockage: str, tau_db_list, k_list, net, reference: dict,
                throughput_identity, seen: dict) -> tuple[int, list[str]]:
    """Check one `run_sweep` sub-grid row by row; a bad row is one failed op.

    ``reference`` is ``sweep.json``: its ``coverage`` and ``error`` map
    `sweep_key` to the coverage evaluated at the tighter tolerances and to that
    evaluation's error estimate. A row may differ from the reference by the
    sum of the two error estimates, so a row more accurate than the reference
    is not failed for the reference's own error. ``throughput_identity`` is
    the program's canonical product, passed in so the identity is checked
    against the program's own formula.
    ``seen`` maps (blockage, k) to the coverages already returned at other
    thresholds in this run; each row must fall below those at lower
    thresholds and above those at higher ones, and is then added to it.
    """
    expected = [(t, k) for t in tau_db_list for k in k_list]
    if [(r.tau_db, r.k) for r in rows] != expected:
        return len(expected), [f"{blockage}: rows {len(rows)} do not match the grid"]
    bad = []
    for r in rows:
        cov, err = r.coverage_analytic, r.quad_error
        key = sweep_key(blockage, r.tau_db, r.k)
        ref, ref_err = reference["coverage"][key], reference["error"][key]
        tau = 10.0 ** (r.tau_db / 10.0)
        where = f"{blockage} tau={r.tau_db:g} dB k={r.k}"
        column = seen.setdefault((blockage, r.k), {})
        if not 0.0 <= cov <= 1.0:
            bad.append(f"{where}: coverage {cov!r} outside [0, 1]")
        elif not abs(cov - ref) <= err + ref_err:
            bad.append(f"{where}: |coverage - reference| = {abs(cov - ref):.3g} > "
                       f"quad_error {err:.3g} + reference error {ref_err:.3g}")
        elif not math.isclose(r.throughput, throughput_identity(r.k, tau, net, cov),
                              rel_tol=IDENTITY_RTOL, abs_tol=0.0):
            bad.append(f"{where}: throughput {r.throughput!r} breaks the identity")
        elif any((t < r.tau_db and cov > c + MONOTONE_SLACK)
                 or (t > r.tau_db and cov < c - MONOTONE_SLACK) for t, c in column.items()):
            bad.append(f"{where}: coverage does not fall as tau rises")
        else:
            column[r.tau_db] = cov
    return len(bad), bad


def check_coverage(estimates, tau_db_list, k: int, window: str, reference: dict,
                   trials: int) -> tuple[int, list[str]]:
    """MC coverage of one k over all thresholds; any miss fails the whole block.

    ``estimates`` are `empirical_coverage` (value, 95% half-width) pairs in
    threshold order; ``reference`` maps `coverage_key` to analytic coverage.
    """
    msgs = []
    prev = math.inf
    for tau_db, (est, _) in zip(tau_db_list, estimates, strict=True):
        ref = reference[coverage_key(window, tau_db, k)]
        tol = max(COVERAGE_TOL_FLOOR, COVERAGE_Z * math.sqrt(ref * (1.0 - ref) / trials))
        if not abs(est - ref) <= tol:
            msgs.append(f"{window} tau={tau_db:g} dB k={k}: mc {est:.4f} vs analytic "
                        f"{ref:.4f}, tolerance {tol:.4f}")
        if est > prev:
            msgs.append(f"{window} k={k}: coverage rises with tau on shared draws")
        prev = est
    return (trials if msgs else 0), msgs


def coverage_key(window: str, tau_db: float, k: int) -> str:
    return f"{window}|{float(tau_db)!r}|{int(k)}"


def check_laplace(estimate, tuple_ref: dict, trials: int) -> tuple[int, list[str]]:
    """Empirical Laplace transform vs the analytic value plus its error estimate."""
    emp, se = estimate
    tol = LAPLACE_Z * se + tuple_ref["error"] + 1e-9
    gap = abs(emp - tuple_ref["value"])
    if gap <= tol:
        return 0, []
    return trials, [f"laplace s={tuple_ref['s']:.4g} r={tuple_ref['r']:.4g} "
                    f"{tuple_ref['state']} k={tuple_ref['k']}: |{emp:.5f} - "
                    f"{tuple_ref['value']:.5f}| > {tol:.3g}"]


def association_cdf(reference: dict):
    """Serving-distance CDF stored on a uniform grid, as a callable."""
    cdf = np.asarray(reference["cdf"], dtype=float)
    radii = np.linspace(0.0, reference["r_max"], len(cdf))
    return lambda r: np.interp(r, radii, cdf, left=0.0, right=1.0)


def check_association(distances, cdf, trials: int) -> tuple[int, list[str]]:
    """KS test of the sampled serving distances against the stored law."""
    if len(distances) != trials:
        return trials, [f"association: {len(distances)} samples for {trials} trials"]
    ks = stats.ks_1samp(distances, cdf)
    if ks.pvalue > KS_MIN_PVALUE:
        return 0, []
    return trials, [f"association KS p={ks.pvalue:.3g} (D={ks.statistic:.4g})"]


def check_topology(topo, lambda0: float) -> list[str]:
    """Structural invariants plus Poisson bounds on every tier's point count.

    Tier 0 is PPP(lambda0) on the build window; tier i+1 holds gains[i]
    receivers per tier-0 parent, so its count is gains[i] times a
    Poisson(lambda0 * area) draw.
    """
    try:
        topo.check_invariants()
    except AssertionError as exc:
        return [f"invariants: {exc}"]
    mean = lambda0 * topo.window.area
    lo, hi = mean - POISSON_Z * math.sqrt(mean), mean + POISSON_Z * math.sqrt(mean)
    msgs = []
    for i, tier in enumerate(topo.tiers):
        scale = 1 if i == 0 else topo.gains[i - 1]
        if not lo * scale <= len(tier) <= hi * scale:
            msgs.append(f"tier {i}: {len(tier)} points outside [{lo * scale:.0f}, {hi * scale:.0f}]")
    return msgs


# Ripley's K on a fixed lattice, where the neighbour counts are exact integers.

LATTICE_SPACING_M = 10.0
LATTICE_WINDOW_M = 203.7   # irrational-looking radius: no point sits on a border distance
LATTICE_RADII_M = (15.0, 25.0, 45.0, 75.0)  # no lattice distance equals a radius


def lattice_points() -> np.ndarray:
    """Integer lattice (spacing 10 m) clipped to the origin-centred window."""
    n = int(LATTICE_WINDOW_M // LATTICE_SPACING_M)
    idx = np.arange(-n, n + 1)
    gx, gy = np.meshgrid(idx, idx, indexing="ij")
    pts = LATTICE_SPACING_M * np.column_stack([gx.ravel(), gy.ravel()]).astype(float)
    return pts[np.hypot(pts[:, 0], pts[:, 1]) <= LATTICE_WINDOW_M]


def exact_lattice_k() -> list[float]:
    """Border-corrected K of `lattice_points` from integer neighbour counts."""
    pts = [(int(round(x / LATTICE_SPACING_M)), int(round(y / LATTICE_SPACING_M)))
           for x, y in lattice_points()]
    area = math.pi * LATTICE_WINDOW_M**2
    out = []
    for r in LATTICE_RADII_M:
        r2 = (r / LATTICE_SPACING_M) ** 2
        interior = [p for p in pts
                    if LATTICE_WINDOW_M - LATTICE_SPACING_M * math.hypot(*p) >= r]
        counts = sum(sum(1 for q in pts if q != p and (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 <= r2)
                     for p in interior)
        out.append(counts / len(interior) / (len(pts) / area))
    return out


def check_lattice_k(values, reference: dict) -> list[str]:
    if np.allclose(values, reference["k"], rtol=1e-12, atol=0.0):
        return []
    return [f"lattice Ripley K {list(values)} != exact {reference['k']}"]
