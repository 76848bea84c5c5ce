"""One workload in one fresh process; started by ``run.py``, not by hand.

Prints ``READY`` once set-up is done (the parent times set-up up to that
line), then runs the timed pass and prints one JSON line with the raw
per-block timings. A fresh process per run keeps `montecarlo`'s SINR
``lru_cache`` cold and makes ``ru_maxrss`` the peak of this run alone.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

SOURCE = Path.cwd() / "src"
CALIBRATION_LOOP = 100_000
CALIBRATION_REPEATS = 3
# Blocks shorter than this share the previous calibration, which keeps the
# calibration under ~10% of a run however fast the blocks become.
CALIBRATION_EVERY_S = 0.25


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate() -> float:
    """Seconds one fixed interpreter loop takes now: the median of a few repeats."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOP):
            acc += i * i
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def _los_probability_scalar(tracer, args, _result, duration) -> None:
    if args and isinstance(args[0], float):
        tracer.observe("channel.los_probability_scalar_s", duration)


def _ripley_points(tracer, args, _result, _duration) -> None:
    tracer.observe("geometry.ripley_points", len(args[0]))


def _points_built(tracer, _args, topo, _duration) -> None:
    tracer.observe("geometry.points_built", sum(len(t) for t in topo.tiers))


OBSERVERS = {
    "channel.los_probability": _los_probability_scalar,
    "geometry.ripley_k": _ripley_points,
    "geometry.build_tier_topology": _points_built,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "cycle", "traced"), required=True)
    args = parser.parse_args()

    import numpy
    import scipy
    import mmtier
    if Path(mmtier.__file__).resolve().parent != (SOURCE / "mmtier").resolve():
        print(f"mmtier imported from {mmtier.__file__}, not from {SOURCE}", file=sys.stderr)
        return 2

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer, delta
        tracer = Tracer()
        tracer.install(observers=OBSERVERS)

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed)
    setup_stats = tracer.snapshot() if tracer else None
    print("READY", flush=True)
    setup_calibration = cal = calibrate()
    if args.mode == "setup":
        print(json.dumps({"setup_calibration_s": setup_calibration}), flush=True)
        return 0

    blocks = []
    timed = 0.0
    since_calibration = 0.0
    while True:
        for block in workload.cycle():
            before = tracer.snapshot() if tracer else None
            rss0 = _maxrss_mb()
            start = time.perf_counter()
            try:
                if tracer:
                    result = tracer.call(f"bench.{block.name}", block.run)
                else:
                    result = block.run()
                error = None
            except Exception:  # an op that raises is a failed op; keep measuring
                error = traceback.format_exc()
            seconds = time.perf_counter() - start
            timed += seconds
            stats = delta(tracer.snapshot(), before) if tracer else None  # before the check runs
            if error is None:
                failed, messages = block.check(result)
            else:
                failed, messages = block.ops, [error]
            for msg in messages:
                print(f"check failed in {block.name}: {msg}", file=sys.stderr)
            since_calibration += seconds
            cal_after = cal
            if since_calibration >= CALIBRATION_EVERY_S:
                cal_after, since_calibration = calibrate(), 0.0
            record = {"name": block.name, "ops": block.ops, "seconds": seconds,
                      "calibration_s": 0.5 * (cal + cal_after),
                      "failed": failed, "rss_delta_mb": _maxrss_mb() - rss0}
            cal = cal_after
            if tracer:
                record["stats"] = stats
            blocks.append(record)
        if args.mode != "timed" or timed >= args.seconds:
            break

    out = {
        "setup_calibration_s": setup_calibration,
        "blocks": blocks,
        "peak_rss_mb": _maxrss_mb(),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer:
        out.update(setup_stats=setup_stats, spans=tracer.spans, absent=tracer.absent,
                   observed=tracer.observed)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
