"""mmtier benchmark: three workloads, end-to-end metrics or a traced per-layer run.

Usage, from the repository root:

    python3 bench/run.py --workload {sweep,montecarlo,topology} --seed N --seconds S --trace {0,1}

Every workload runs in fresh worker processes (``worker.py``) that import
the package from ``src/``, with ``MMTIER_THREADS`` unset: one client, one
thread, closed loop. While they run, an idle loop keeps each other CPU busy
(see `busy_other_cpus`). The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the machine, library versions and sample counts.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: process start until the worker is ready to time its first
  operation (imports, config parsing, tables), median of several fresh
  processes, at the reference CPU speed below;
- ``ops_per_s``: operations per second of timed work, over whole cycles
  until at least ``--seconds`` of it are done;
- ``op_p50_ms``: median time of one operation. Operations run inside library
  calls that handle many of them at once, so each operation is charged its
  call's time divided by the call's operation count;
- both at a reference CPU speed (``REFERENCE_CALIBRATION_S``); the raw rate
  and set-up time, and the calibration times that scaled them, are in the
  line before the result;
- ``peak_rss_mb``: peak resident memory of the timed worker.

``--trace 1`` runs one cycle untraced and the same cycle traced (same seed,
same inputs) and reports the per-layer metrics, including the tracing
overhead between the two. The spans and counters go to
``.bench_out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "montecarlo", "topology")
SETUP_PROBES = 2          # extra set-up-only processes; setup_s is the median of 1 + 2
DEADLINE_S = 170.0        # the whole run, every worker included
LAYERS = ("channel", "analytics", "montecarlo", "geometry", "config", "cli", "bench")
MAX_SPINNERS = 3
# ops_per_s and op_p50_ms are given at the CPU speed at which the worker's
# calibration loop takes this long. The worker times that loop before and
# after every block; a block's time is scaled by the ratio. On a shared host
# the speed of one CPU drifts by 10-40% within minutes; the scaling removes
# most of that: over 5 seeds of `sweep` the spread of ops/s between runs was
# 0.12 raw and 0.04 scaled. Set-up time is scaled by the calibration the
# worker times right after set-up; memory is reported as measured.
REFERENCE_CALIBRATION_S = 0.010


class BenchError(RuntimeError):
    pass


@contextlib.contextmanager
def busy_other_cpus():
    """Keep every other usable CPU (at most MAX_SPINNERS) busy with an idle loop.

    On a shared host a lone busy CPU runs faster or slower by 10-40% from one
    minute to the next as the host's load changes. In one comparison on a
    2-CPU host, 5 seeds of ``montecarlo`` each, the run-to-run spread of raw
    ops/s was 0.29 with the other CPU idle and 0.05 with it busy. The loop
    touches no memory, so it takes no cache or bandwidth from the worker.
    """
    count = min(len(os.sched_getaffinity(0)) - 1, MAX_SPINNERS)
    spinners = [subprocess.Popen([sys.executable, "-c", "while True: pass"])
                for _ in range(max(count, 0))]
    try:
        yield
    finally:
        for proc in spinners:
            proc.kill()
        for proc in spinners:
            proc.wait()


def run_worker(root: Path, args, mode: str, deadline: float) -> tuple[float, dict]:
    """Start one worker; return (seconds until READY, its JSON result)."""
    env = dict(os.environ)
    env.pop("MMTIER_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise BenchError(f"worker {mode} exited with code {code}")
    return ready, json.loads(lines[-1])


def reference_setup_seconds(ready: float, out: dict) -> float:
    """Set-up time scaled by the calibration the worker times right after it."""
    return ready * REFERENCE_CALIBRATION_S / out["setup_calibration_s"]


def weighted_median(pairs) -> float:
    """Median of values given as (value, weight) pairs."""
    pairs = sorted(pairs)
    half = sum(w for _, w in pairs) / 2.0
    acc = 0
    for value, weight in pairs:
        acc += weight
        if acc >= half:
            return value
    raise ValueError("no samples")


def reference_seconds(block: dict) -> float:
    """A block's time scaled to the reference CPU speed (see REFERENCE_CALIBRATION_S)."""
    return block["seconds"] * REFERENCE_CALIBRATION_S / block["calibration_s"]


def end_to_end(out: dict, setup_samples: list[float]) -> dict:
    blocks = out["blocks"]
    ops = sum(b["ops"] for b in blocks)
    seconds = sum(reference_seconds(b) for b in blocks)
    p50 = weighted_median((reference_seconds(b) / b["ops"], b["ops"]) for b in blocks)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (ops / seconds, "1/s"),
        "op_p50_ms": (1e3 * p50, "ms"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }


def _sum_stats(blocks, prefix: str = "") -> dict:
    total: dict[str, list] = {}
    for b in blocks:
        if b["name"].startswith(prefix):
            for label, (calls, t, own) in b["stats"].items():
                acc = total.setdefault(label, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += t
                acc[2] += own
    return total


def per_layer(untraced: dict, traced: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced cycle, and the reasons for absent ones."""
    blocks = traced["blocks"]
    ops = sum(b["ops"] for b in blocks)
    stats = _sum_stats(blocks)
    setup = traced["setup_stats"]
    observed = traced["observed"]
    absent: dict[str, str] = {}
    metrics: dict[str, tuple] = {}

    def put(metric, value, unit, needs=()):
        for label in needs:
            if label in traced["absent"]:
                absent[metric] = traced["absent"][label]
        if value is None:
            absent.setdefault(metric, "not exercised by this workload")
        metrics[metric] = (0 if value is None else value, unit)

    def calls(label, table=stats):
        return table.get(label, [0, 0.0, 0.0])[0]

    def total(label, table=stats):
        return table.get(label, [0, 0.0, 0.0])[1]

    def own(label):
        return stats.get(label, [0, 0.0, 0.0])[2]

    def per_call_us(label):
        return 1e6 * total(label) / calls(label) if calls(label) else None

    def per_trial_us(prefix, label):
        trials = sum(b["ops"] for b in blocks if b["name"].startswith(prefix))
        t = total(label, _sum_stats(blocks, prefix))
        return 1e6 * t / trials if trials and t else None

    los = observed.get("channel.los_probability_scalar_s")
    put("channel.los_probability_calls", calls("channel.los_probability") / ops, "1/op",
        ["channel.los_probability"])
    put("channel.los_probability_scalar_us", 1e6 * los[1] / los[0] if los else None, "us",
        ["channel.los_probability"])
    put("channel.beam_gain_sample_us", per_call_us("channel.beam_gain_sample"), "us",
        ["channel.beam_gain_sample"])

    points = sorted(s[2] - s[1] for s in traced["spans"] if s[0] == "analytics.evaluate_point")
    put("analytics.evaluate_point_s.p50", statistics.median(points) if points else None, "s",
        ["analytics.evaluate_point"])
    put("analytics.evaluate_point_s.max", points[-1] if points else None, "s",
        ["analytics.evaluate_point"])
    for fn in ("coverage_probability", "conditional_coverage", "laplace_interference",
               "serving_distance_pdf", "integrated_radial_probability"):
        label = f"analytics.{fn}"
        put(f"{label}.calls", calls(label) / ops, "1/op", [label])
        put(f"{label}.self_s", own(label), "s", [label])
    label = "analytics.tabulate_serving_distance"
    put(f"{label}_s", total(label, setup) or None, "s", [label])

    for window in ("w625", "w2500"):
        put(f"montecarlo.sinr_us_per_trial.{window}",
            per_trial_us(f"montecarlo.coverage.{window}", "montecarlo.sinr_samples"), "us",
            ["montecarlo.sinr_samples"])
    put("montecarlo.laplace_us_per_trial",
        per_trial_us("montecarlo.laplace", "montecarlo.empirical_laplace"), "us",
        ["montecarlo.empirical_laplace"])
    put("montecarlo.association_us_per_trial",
        per_trial_us("montecarlo.association", "montecarlo.serving_distance_samples"), "us",
        ["montecarlo.serving_distance_samples"])
    put("montecarlo.trials", sum(b["ops"] for b in blocks if b["name"].startswith("montecarlo.")),
        "count")
    put("montecarlo.realize_hop_calls", calls("montecarlo.realize_hop"), "count",
        ["montecarlo.realize_hop"])

    put("geometry.build_tier_topology_s", total("geometry.build_tier_topology"), "s",
        ["geometry.build_tier_topology"])
    put("geometry.sample_cluster_calls", calls("geometry.sample_cluster"), "count",
        ["geometry.sample_cluster"])
    put("geometry.points_built", observed.get("geometry.points_built", [0, 0])[1], "count",
        ["geometry.build_tier_topology"])
    put("geometry.ripley_k_self_s", own("geometry.ripley_k"), "s", ["geometry.ripley_k"])
    put("geometry.ripley_k_calls", calls("geometry.ripley_k"), "count", ["geometry.ripley_k"])
    put("geometry.ripley_points_max", observed.get("geometry.ripley_points", [0, 0, 0])[2],
        "count", ["geometry.ripley_k"])
    pooled = [b["rss_delta_mb"] for b in blocks if b["name"] == "topology.pooled"]
    put("geometry.pooled_ripley_rss_delta_mb", max(pooled) if pooled else None, "MB")
    put("geometry.topology_dump_ms",
        1e3 * (total("geometry.topology_to_csv") + total("geometry.topology_to_gnuplot")),
        "ms", ["geometry.topology_to_csv", "geometry.topology_to_gnuplot"])

    put("config.parse_config_ms", 1e3 * total("config.parse_config", setup) or None, "ms",
        ["config.parse_config"])

    put("cli.run_sweep_self_s", own("cli.run_sweep"), "s", ["cli.run_sweep"])
    put("cli.sweep_serialize_ms",
        1e3 * (total("cli.sweep_to_csv") + total("cli.sweep_to_json")), "ms",
        ["cli.sweep_to_csv", "cli.sweep_to_json"])
    put("cli.topology_checks_s", total("cli.topology_checks"), "s", ["cli.topology_checks"])

    for layer in LAYERS:
        put(f"layer.{layer}.self_s",
            sum(v[2] for label, v in stats.items() if label.split(".")[0] == layer), "s")
    put("trace.pass_s", sum(b["seconds"] for b in blocks), "s")
    traced_s = sum(reference_seconds(b) for b in blocks)
    untraced_s = sum(reference_seconds(b) for b in untraced["blocks"])
    put("trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0), "%")
    for metric, (value, unit) in metrics.items():
        if value == 0 and metric not in absent and unit != "%":
            absent[metric] = "not exercised by this workload"
    return metrics, absent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "mmtier" / "__init__.py").is_file():
        print(f"no mmtier sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    try:
        with busy_other_cpus():
            if args.trace:
                _, untraced = run_worker(root, args, "cycle", deadline)
                _, traced = run_worker(root, args, "traced", deadline)
                metrics, absent = per_layer(untraced, traced)
                runs = (untraced, traced)
            else:
                probes = [run_worker(root, args, "setup", deadline)
                          for _ in range(SETUP_PROBES)]
                probes.append(run_worker(root, args, "timed", deadline))
                timed = probes[-1][1]
                setups = [reference_setup_seconds(*probe) for probe in probes]
                metrics, absent = end_to_end(timed, setups), {}
                runs = (timed,)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(b["ops"] for r in runs for b in r["blocks"])
    failed = sum(b["failed"] for r in runs for b in r["blocks"])
    blocks = runs[-1]["blocks"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "versions": runs[-1]["versions"],
        "samples": {"ops": sum(b["ops"] for b in blocks), "blocks": len(blocks),
                    "setup_processes": 0 if args.trace else SETUP_PROBES + 1},
        "raw_ops_per_s": sum(b["ops"] for b in blocks) / sum(b["seconds"] for b in blocks),
        "calibration_s_median": statistics.median(b["calibration_s"] for b in blocks),
        "absent": absent,
    }
    if not args.trace:
        detail["raw_setup_s"] = statistics.median(ready for ready, _ in probes)
        detail["setup_calibration_s_median"] = statistics.median(
            out["setup_calibration_s"] for _, out in probes)
    else:
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps({**detail, "metrics": metrics, "blocks": traced["blocks"],
                                    "setup_stats": traced["setup_stats"],
                                    "spans": traced["spans"]}, indent=1), encoding="utf-8")
        detail["trace_file"] = str(path.relative_to(root))
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
