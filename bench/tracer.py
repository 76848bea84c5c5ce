"""In-memory tracer over the program's layer functions.

`Tracer.install` swaps each target function for a timing wrapper at its
module (or class) attribute. The program looks these names up as module
globals or class attributes at call time, so calls between its own modules
are seen too. Every wrapped call updates per-function counters (calls, total
time, self time); functions of kind ``SPAN`` also record a span with its
name, start, end and parent. The hottest leaves (``LEAF``) keep counters
only: one sweep grid point makes ~10^5 of them.

Self time is a call's duration minus the time its wrapped callees took, so
time spent in unwrapped code (numpy, scipy, private helpers) is charged to
the innermost wrapped caller. The layer of a function is the module that
defines it, whichever module's attribute it is called through.
"""

from __future__ import annotations

import importlib
import time

LEAF = "leaf"
SPAN = "span"

# (module, attribute path, label, kind). The label's first part is the layer.
TARGETS = (
    ("mmtier.analytics", "los_probability", "channel.los_probability", LEAF),
    ("mmtier.analytics", "beam_gain_pmf", "channel.beam_gain_pmf", LEAF),
    ("mmtier.montecarlo", "beam_gain_pmf", "channel.beam_gain_pmf", LEAF),
    ("mmtier.channel", "GainPmf.sample", "channel.beam_gain_sample", LEAF),
    ("mmtier.analytics", "evaluate_point", "analytics.evaluate_point", SPAN),
    ("mmtier.analytics", "coverage_probability", "analytics.coverage_probability", SPAN),
    ("mmtier.analytics", "conditional_coverage", "analytics.conditional_coverage", LEAF),
    ("mmtier.analytics", "laplace_interference", "analytics.laplace_interference", LEAF),
    ("mmtier.analytics", "serving_distance_pdf", "analytics.serving_distance_pdf", LEAF),
    ("mmtier.analytics", "nearest_distance_pdf", "analytics.nearest_distance_pdf", LEAF),
    ("mmtier.analytics", "integrated_radial_probability",
     "analytics.integrated_radial_probability", LEAF),
    ("mmtier.analytics", "tabulate_serving_distance", "analytics.tabulate_serving_distance", SPAN),
    ("mmtier.analytics", "hop_count", "analytics.hop_count", LEAF),
    ("mmtier.analytics", "feasible_gains", "analytics.feasible_gains", LEAF),
    ("mmtier.montecarlo", "empirical_coverage", "montecarlo.empirical_coverage", SPAN),
    ("mmtier.montecarlo", "sinr_samples", "montecarlo.sinr_samples", SPAN),
    ("mmtier.montecarlo", "empirical_laplace", "montecarlo.empirical_laplace", SPAN),
    ("mmtier.montecarlo", "serving_distance_samples", "montecarlo.serving_distance_samples", SPAN),
    ("mmtier.montecarlo", "realize_hop", "montecarlo.realize_hop", LEAF),
    ("mmtier.montecarlo", "compute_sinr", "montecarlo.compute_sinr", LEAF),
    ("mmtier.montecarlo", "trial_stream", "montecarlo.trial_stream", LEAF),
    ("mmtier.geometry", "build_tier_topology", "geometry.build_tier_topology", SPAN),
    ("mmtier.geometry", "sample_ppp", "geometry.sample_ppp", LEAF),
    ("mmtier.geometry", "select_scheduled", "geometry.select_scheduled", LEAF),
    ("mmtier.geometry", "sample_cluster", "geometry.sample_cluster", LEAF),
    ("mmtier.geometry", "TierTopology.check_invariants", "geometry.check_invariants", LEAF),
    ("mmtier.geometry", "ripley_k", "geometry.ripley_k", LEAF),
    ("mmtier.geometry", "points_in_window", "geometry.points_in_window", LEAF),
    ("mmtier.geometry", "csr_global_test", "geometry.csr_global_test", SPAN),
    ("mmtier.geometry", "csr_envelope", "geometry.csr_envelope", SPAN),
    ("mmtier.geometry", "topology_to_csv", "geometry.topology_to_csv", SPAN),
    ("mmtier.geometry", "topology_to_gnuplot", "geometry.topology_to_gnuplot", SPAN),
    ("mmtier.config", "parse_config", "config.parse_config", SPAN),
    ("mmtier.cli", "run_sweep", "cli.run_sweep", SPAN),
    ("mmtier.cli", "sweep_to_csv", "cli.sweep_to_csv", SPAN),
    ("mmtier.cli", "sweep_to_json", "cli.sweep_to_json", SPAN),
    ("mmtier.cli", "topology_checks", "cli.topology_checks", SPAN),
)


class Tracer:
    """Counters and spans of wrapped calls, kept in memory until the run ends."""

    def __init__(self):
        self.stats: dict[str, list] = {}      # label -> [calls, total_s, self_s]
        self.spans: list = []                 # [label, start, end, parent, self_s]
        self.absent: dict[str, str] = {}      # label -> why it is not traced
        self.observed: dict[str, list] = {}   # label -> [count, sum, max] of observed values
        self._stack: list[list] = []          # frames: [child_s, span_id]

    def install(self, targets=TARGETS, observers=None) -> None:
        """Wrap every target that exists; record the missing ones as absent."""
        observers = observers or {}
        for module_name, path, label, kind in targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for name in parents:
                    owner = getattr(owner, name)
                fn = getattr(owner, attr)
            except AttributeError:
                self.absent[label] = f"{module_name}.{path} does not exist"
                continue
            setattr(owner, attr, self._wrap(fn, label, kind, observers.get(label)))

    def _wrap(self, fn, label, kind, observe):
        entry = self.stats.setdefault(label, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        record = kind == SPAN

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span_id = len(spans) if record else parent
            if record:
                spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += own
                if stack:
                    stack[-1][0] += duration
                if record:
                    spans[span_id] = [label, start, end, parent, own]
            if observe is not None:
                observe(self, args, result, duration)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, label: str, fn):
        """Run ``fn()`` inside a span of the benchmark's own code."""
        return self._wrap(fn, label, SPAN, None)()

    def snapshot(self) -> dict[str, list]:
        return {label: list(v) for label, v in self.stats.items()}

    def observe(self, label: str, value: float) -> None:
        acc = self.observed.setdefault(label, [0, 0.0, value])
        acc[0] += 1
        acc[1] += value
        acc[2] = max(acc[2], value)


def delta(after: dict, before: dict) -> dict:
    """Per-label counter differences between two snapshots (non-zero only)."""
    out = {}
    for label, (calls, total, own) in after.items():
        c0, t0, s0 = before.get(label, (0, 0.0, 0.0))
        if calls != c0:
            out[label] = [calls - c0, total - t0, own - s0]
    return out
