"""Run every workload on ten seeds and record each metric's median and spread.

Run from the repository root:

    python3 bench/baseline.py --out bench/baseline.json

For every workload in ``BENCHMARK.json`` and every end-to-end metric it
records the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median,
which must stay within the metric's bound in ``BENCHMARK.json``; for every
seed, the raw ops/s and set-up time next to the calibration times that
scaled them; then the per-layer metrics of one traced run on the first seed.
Runs are sequential, one benchmark process at a time, and the output file is
written afresh.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RAW_KEYS = ("raw_ops_per_s", "calibration_s_median", "raw_setup_s",
            "setup_calibration_s_median")


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="21-30", help="inclusive range, e.g. 21-30")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
            capture_output=True, text=True, check=True)
        *_, detail, last = proc.stdout.strip().splitlines()
        return json.loads(detail), json.loads(last)

    seeds = parse_seeds(args.seeds)
    doc = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {key: [] for key in RAW_KEYS}
        failed = 0
        for seed in seeds:
            detail, result = run(workload, seed, 0)
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for key in RAW_KEYS:
                raw[key].append(detail[key])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  "raw ops/s", round(detail["raw_ops_per_s"], 4), "failed", result["failed"],
                  flush=True)
        summary = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "values": vals}
            print(f"  {name:12s} median={median:.5g} spread={spread:.3f} bound={bounds[name]}")
        traced_detail, traced = run(workload, seeds[0], 1)
        doc["workloads"][workload] = {
            "seeds": args.seeds, "failed": failed + traced["failed"], "metrics": summary,
            "raw": raw,
            "per_layer": {"seed": seeds[0], "absent": traced_detail["absent"],
                          "metrics": {k: m["value"] for k, m in traced["metrics"].items()}},
        }
        doc["machine"] = {key: detail[key] for key in ("nproc", "cpus_usable", "versions")}
        if args.out:
            args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
