"""Regenerate the benchmark's stored reference values under ``references/``.

Run from the repository root:

    PYTHONPATH=src python3 bench/make_references.py

Writes:

- ``sweep.json``: coverage on every (blockage, tau, k) point a ``sweep`` plan
  can draw, with its quadrature error estimate, evaluated at the tighter
  tolerances rel_tol = 1e-8, abs_tol = 1e-10 (``1e-9``/``1e-12`` does not
  converge on this config);
- ``montecarlo.json``: analytic coverage and Laplace values at the truncation
  radius matching each Monte Carlo window, with the Laplace error estimates,
  and the serving-distance CDF;
- ``ripley.json``: the exact Ripley K of the fixed lattice, from integer
  neighbour counts (not from `ripley_k`).

Uses two worker processes for the quadrature grid (a few minutes).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from scipy import integrate

from mmtier import analytics, config
from mmtier.channel import LOS, NLOS

import checks
from workloads import (CONFIG_TEXT, EXPONENTIAL, K_BANDS, MC_WINDOWS, R0_M, TAU_DB)

TIGHT = {"rel_tol": 1e-8, "abs_tol": 1e-10}
LAPLACE_TUPLES = 16  # per window and serving state
K_ALL = tuple(k for band in K_BANDS for k in band)


def _coverage(job):
    law, tau_db, k, truncation_m, tolerances = job
    cfg = dataclasses.replace(config.parse_config(CONFIG_TEXT[law]), **tolerances,
                              truncation_radius_m=truncation_m)
    return analytics.coverage_probability(10.0 ** (tau_db / 10.0), k, cfg.lambda0,
                                          cfg.channel(), cfg.beam(), cfg.quad(),
                                          full_output=True)


def _laplace_tuples(window_m: float, seed: int) -> dict[str, list[dict]]:
    """Conditioned (s, r, state, k) tuples, drawn as `mmtier validate` draws them
    except that each serving state gets its own tuples, with r from that
    state's serving-distance law: NLOS service is rare on this config, yet
    NLOS tuples are the ones most sensitive to the NLOS path-loss exponent."""
    cfg = dataclasses.replace(config.parse_config(CONFIG_TEXT[EXPONENTIAL]),
                              truncation_radius_m=window_m)
    channel, beam, quad = cfg.channel(), cfg.beam(), cfg.quad()
    table = analytics.tabulate_serving_distance(cfg.lambda0, channel, quad)
    rng = np.random.default_rng(seed)
    out: dict[str, list[dict]] = {}
    for state, pdf in ((LOS, table.pdf_los), (NLOS, table.pdf_nlos)):
        cdf = integrate.cumulative_trapezoid(pdf, table.radii, initial=0.0)
        cdf /= cdf[-1]
        out[state] = []
        for _ in range(LAPLACE_TUPLES):
            tau_db = float(rng.uniform(-10.0, 25.0))
            r = float(np.interp(rng.uniform(0.1, 0.9), cdf, table.radii))
            k = int(rng.integers(1, cfg.rf_chains + 1))
            s = r ** channel.alpha(state) * 10.0 ** (tau_db / 10.0) / (beam.g_main**2 * channel.beta)
            value, err = analytics.laplace_interference(s, r, state, k, cfg.lambda0, channel,
                                                        beam, quad, full_output=True)
            out[state].append({"s": s, "r": r, "state": state, "k": k, "value": value,
                               "error": err})
    return out


def _association_cdf() -> dict:
    cfg = config.parse_config(CONFIG_TEXT[EXPONENTIAL])
    table = analytics.tabulate_serving_distance(cfg.lambda0, cfg.channel(), cfg.quad())
    uniform = np.linspace(0.0, table.radii[-1], len(table.radii))
    if not np.allclose(table.radii, uniform, rtol=0.0, atol=1e-9 * table.radii[-1]):
        sys.exit("serving-distance table is not on a uniform grid")
    return {"r_max": float(table.radii[-1]), "cdf": [float(f"{c:.12g}") for c in table.cdf]}


def _write(name: str, doc: dict) -> None:
    with open(checks.REFERENCES / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> None:
    checks.REFERENCES.mkdir(exist_ok=True)
    _write("ripley", {"radii_m": list(checks.LATTICE_RADII_M), "k": checks.exact_lattice_k()})

    sweep_jobs = [(law, t, k, 50.0 * R0_M, TIGHT)
                  for law in CONFIG_TEXT for t in TAU_DB for k in K_ALL]
    mc_jobs = [(EXPONENTIAL, t, k, f * R0_M, {})
               for f in MC_WINDOWS.values() for t in TAU_DB for k in K_ALL]
    with ProcessPoolExecutor(max_workers=2,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        sweep_vals = list(pool.map(_coverage, sweep_jobs))
        mc_vals = list(pool.map(_coverage, mc_jobs))

    _write("sweep", {
        "tolerances": TIGHT,
        "coverage": {checks.sweep_key(law, t, k): v
                     for (law, t, k, _, _), (v, _) in zip(sweep_jobs, sweep_vals)},
        "error": {checks.sweep_key(law, t, k): err
                  for (law, t, k, _, _), (_, err) in zip(sweep_jobs, sweep_vals)},
    })
    names = {f: w for w, f in MC_WINDOWS.items()}
    _write("montecarlo", {
        "coverage": {checks.coverage_key(names[trunc / R0_M], t, k): v
                     for (_, t, k, trunc, _), (v, _) in zip(mc_jobs, mc_vals)},
        "laplace": {w: _laplace_tuples(f * R0_M, seed=i)
                    for i, (w, f) in enumerate(MC_WINDOWS.items())},
        "association": _association_cdf(),
    })


if __name__ == "__main__":
    main()
