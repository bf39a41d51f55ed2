"""Turns one raw workload record into the benchmark's metrics.

The C++ runner (perfbench_workloads) writes raw samples, exact counts and
spans; everything statistical lives here so the self-tests in
perfbench/tests can check it on hand-built inputs.

A span is [name, op, start_ns, end_ns, parent]: `name` is
`<module>.<function>`, `op` the set-up repetition ("setupK"), pass
("passK"), request ("reqK") or check ("checkK") it belongs to, and
`parent` an index into the span list (-1 for a root).
"""

from __future__ import annotations

import math
import statistics

WORKLOADS = ("lb_pipeline", "qsim", "service_mix")

# End-to-end metrics: reported by every workload with tracing off.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s_p50", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

# Service-facing end-to-end metrics, printed in the report of service_mix
# (they have no meaning on the other workloads, so the result line
# does not carry them).
SERVICE_END_TO_END = (
    ("throughput_rps", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("hit_latency_p50_ms", "ms", "lower"),
)

LAYERS = ("perfbench", "core", "graph", "congest", "dist", "quantum", "service")

_DIST_STAGES = (
    ("bfs", "dist.build_bfs_tree"),
    ("ham_verify", "dist.verify_hamiltonian_cycle"),
    ("st_verify", "dist.verify_spanning_tree"),
    ("mst", "dist.run_mst"),
)

# Per-layer metrics: reported by every workload with tracing on. A layer a
# workload does not reach reports 0.
PER_LAYER = (
    ("core.topology_build_s", "s", "lower"),
    ("congest.network_build_s", "s", "lower"),
    ("congest.install_s", "s", "lower"),
    ("congest.run_s", "s", "lower"),
    ("congest.ns_per_node_round", "ns", "lower"),
    ("congest.ns_per_message", "ns", "lower"),
    ("congest.audit_share", "fraction", "lower"),
    ("congest.rounds", "count", "lower"),
    ("congest.messages", "count", "lower"),
    ("congest.fields", "count", "lower"),
    *(
        item
        for stage, _ in _DIST_STAGES
        for item in (
            (f"dist.{stage}_s", "s", "lower"),
            (f"dist.{stage}.rounds", "count", "lower"),
            (f"dist.{stage}.messages", "count", "lower"),
            (f"dist.{stage}.ns_per_node_round", "ns", "lower"),
        )
    ),
    ("quantum.gate1_ms", "ms", "lower"),
    ("quantum.cnot_ms", "ms", "lower"),
    ("quantum.qft_s", "s", "lower"),
    ("quantum.reduce_ms", "ms", "lower"),
    ("quantum.passes", "count", "lower"),
    ("quantum.bytes_computed", "B", "lower"),
    ("quantum.achieved_gbs", "GB/s", "higher"),
    ("quantum.roofline_gbs", "GB/s", "higher"),
    ("quantum.roofline_frac", "fraction", "higher"),
    ("quantum.grover_s", "s", "lower"),
    ("quantum.grover_iterations", "count", "lower"),
    ("service.queue_wait_ms_p50", "ms", "lower"),
    ("service.queue_wait_ms_p99", "ms", "lower"),
    ("service.compute_ms_p50", "ms", "lower"),
    ("service.compute_ms_p99", "ms", "lower"),
    ("service.transport_ms_p50", "ms", "lower"),
    ("service.cache_hit_ratio", "fraction", "higher"),
    ("service.worker_busy_frac", "fraction", "higher"),
    ("service.jobs_failed", "count", "lower"),
    ("service.jobs_expired", "count", "lower"),
    *((f"self_s.{layer}", "s", "lower") for layer in LAYERS),
    ("trace.overhead_frac", "fraction", "lower"),
)


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than 10 samples beyond it."""


def tail_percentile(values, pct: float) -> float:
    """The `pct`-th percentile (nearest rank) of `values`.

    Refuses unless at least ten samples lie beyond the percentile, so a
    reported p99 always rests on at least 1000 samples.
    """
    n = len(values)
    beyond = n * (100.0 - pct) / 100.0
    if beyond < 10.0 - 1e-9:
        raise TooFewSamples(
            f"p{pct:g} of {n} samples has {beyond:.1f} beyond it; need 10"
        )
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return ordered[rank - 1]


def summary(values) -> dict:
    """Median, quartiles, minimum and count of a sample list."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "n": len(values),
    }


def covered_ns(intervals) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        parent = span[4]
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, _, start, end, _) in enumerate(spans):
        kids = [
            (max(start, spans[k][2]), min(end, spans[k][3])) for k in children[i]
        ]
        out.append(end - start - covered_ns([iv for iv in kids if iv[0] < iv[1]]))
    return out


def root_of(spans, i: int) -> int:
    while spans[i][4] >= 0:
        i = spans[i][4]
    return i


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_seconds(spans) -> dict:
    """Self time per layer, summed over spans under traced passes and
    divided by the number of traced passes (seconds per pass)."""
    roots = {
        i for i, s in enumerate(spans) if s[4] < 0 and s[0] == "perfbench.pass"
    }
    out = {layer: 0.0 for layer in LAYERS}
    if not roots:
        return out
    for i, self_ns in enumerate(self_times_ns(spans)):
        if root_of(spans, i) in roots:
            layer = module_of(spans[i][0])
            out[layer] = out.get(layer, 0.0) + self_ns * 1e-9
    return {layer: seconds / len(roots) for layer, seconds in out.items()}


def _durations(spans, name, ops) -> list:
    """Durations of the spans named `name` whose op is in `ops`."""
    return [(s[3] - s[2]) * 1e-9 for s in spans if s[0] == name and s[1] in ops]


def _per_op_sum(spans, names, prefix) -> list:
    """Summed durations of spans named in `names`, one total per op whose
    name starts with `prefix`."""
    totals = {}
    for s in spans:
        if s[0] in names and s[1].startswith(prefix):
            totals[s[1]] = totals.get(s[1], 0.0) + (s[3] - s[2]) * 1e-9
    return list(totals.values())


def _median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(raw) -> tuple:
    """(result-line metrics, report detail) of an untraced run."""
    series, values = raw["series"], raw["values"]
    passes = series.get("pass_s", [])
    setup = summary(series["setup_s"])
    wall = summary(passes)
    ops = (
        values["service.requests"]
        if raw["workload"] == "service_mix"
        else len(passes)
    ) / values["timed_phase_s"]
    metrics = {
        "setup_s": setup["median"],
        "wall_s_p50": wall["median"],
        "ops_per_s": ops,
        "peak_rss_mb": values["peak_rss_mb"],
    }
    detail = {"setup_s": setup, "wall_s_p50": wall}
    if raw["workload"] == "service_mix":
        lat = series["latency_ms"]
        metrics["throughput_rps"] = ops
        metrics["latency_p50_ms"] = statistics.median(lat)
        metrics["latency_p99_ms"] = tail_percentile(lat, 99)
        metrics["hit_latency_p50_ms"] = statistics.median(series["hit_latency_ms"])
        detail["latency_ms"] = summary(lat)
        detail["hit_latency_ms"] = summary(series["hit_latency_ms"])
    return metrics, detail


def per_layer(raw) -> dict:
    """Per-layer metrics of a traced run; 0 where the layer is not reached."""
    spans, series, values = raw["spans"], raw["series"], raw["values"]
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    traced_ops = {s[1] for s in spans if s[4] < 0 and s[0] == "perfbench.pass"}

    m["core.topology_build_s"] = _median_or_zero(
        _per_op_sum(
            spans,
            {
                "core.LbNetwork",
                "core.LbNetwork.embed_matchings",
                "graph.WeightedGraph.add_edge",
            },
            "setup",
        )
    )
    m["congest.network_build_s"] = _median_or_zero(
        _per_op_sum(spans, {"congest.Network"}, "setup")
    )
    # The engine flood of a traced lb_pipeline run: ops "floodK" are its
    # audited (traced) repetitions.
    m["congest.install_s"] = _median_or_zero(
        _per_op_sum(spans, {"congest.Network.install"}, "flood")
    )
    m["congest.run_s"] = _median_or_zero(
        _per_op_sum(spans, {"congest.Network.run"}, "flood")
    )
    for key in ("congest.rounds", "congest.messages", "congest.fields"):
        m[key] = values.get(key, 0.0)
    if m["congest.rounds"] and m["congest.run_s"]:
        m["congest.ns_per_node_round"] = (
            m["congest.run_s"] * 1e9 / (m["congest.rounds"] * values["lb.nodes"])
        )
        m["congest.ns_per_message"] = m["congest.run_s"] * 1e9 / m["congest.messages"]
    if series.get("audit_on_s"):
        on = statistics.median(series["audit_on_s"])
        off = statistics.median(series["audit_off_s"])
        m["congest.audit_share"] = (on - off) / on

    for stage, span_name in _DIST_STAGES:
        seconds = _median_or_zero(_durations(spans, span_name, traced_ops))
        rounds = values.get(f"dist.{stage}.rounds", 0.0)
        m[f"dist.{stage}_s"] = seconds
        m[f"dist.{stage}.rounds"] = rounds
        m[f"dist.{stage}.messages"] = values.get(f"dist.{stage}.messages", 0.0)
        if rounds and seconds:
            m[f"dist.{stage}.ns_per_node_round"] = (
                seconds * 1e9 / (rounds * values["lb.nodes"])
            )

    if "quantum.passes" in values:
        gate_names = {"quantum.StateVector.apply", "quantum.StateVector.cnot",
                      "quantum.qft"}
        reduce_names = {"quantum.StateVector.norm_squared",
                        "quantum.StateVector.probability_one"}
        m["quantum.gate1_ms"] = 1e3 * _median_or_zero(
            _durations(spans, "quantum.StateVector.apply", traced_ops))
        m["quantum.cnot_ms"] = 1e3 * _median_or_zero(
            _durations(spans, "quantum.StateVector.cnot", traced_ops))
        m["quantum.qft_s"] = _median_or_zero(
            _durations(spans, "quantum.qft", traced_ops))
        m["quantum.reduce_ms"] = 1e3 * _median_or_zero(
            [d for name in reduce_names
             for d in _durations(spans, name, traced_ops)])
        m["quantum.grover_s"] = _median_or_zero(
            _durations(spans, "quantum.grover_search", traced_ops))
        m["quantum.grover_iterations"] = values["quantum.grover_iterations"]
        m["quantum.passes"] = values["quantum.passes"]
        # Computed, not measured: each pass reads and writes every
        # amplitude (16 bytes) once.
        m["quantum.bytes_computed"] = (
            values["quantum.passes"] * 2 ** values["quantum.qubits"] * 16 * 2
        )
        gate_seconds = _median_or_zero(_per_op_sum(spans, gate_names, "pass"))
        if gate_seconds:
            m["quantum.achieved_gbs"] = m["quantum.bytes_computed"] / gate_seconds / 1e9
        if series.get("roofline_s"):
            m["quantum.roofline_gbs"] = (
                values["quantum.roofline_bytes"]
                / statistics.median(series["roofline_s"]) / 1e9
            )
            m["quantum.roofline_frac"] = (
                m["quantum.achieved_gbs"] / m["quantum.roofline_gbs"]
            )

    if "service.requests" in values:
        wait, compute = series["queue_wait_ms"], series["compute_ms"]
        m["service.queue_wait_ms_p50"] = statistics.median(wait)
        m["service.queue_wait_ms_p99"] = tail_percentile(wait, 99)
        m["service.compute_ms_p50"] = statistics.median(compute)
        m["service.compute_ms_p99"] = tail_percentile(compute, 99)
        m["service.transport_ms_p50"] = statistics.median(series["transport_ms"])
        hits, misses = values["service.cache_hits"], values["service.cache_misses"]
        m["service.cache_hit_ratio"] = hits / (hits + misses)
        m["service.worker_busy_frac"] = values["service.total_compute_us"] * 1e-6 / (
            values["service.workers"] * values["timed_phase_s"]
        )
        m["service.jobs_failed"] = values["service.jobs_failed"]
        m["service.jobs_expired"] = values["service.jobs_expired"]

    for layer, seconds in layer_self_seconds(spans).items():
        m[f"self_s.{layer}"] = seconds
    untraced = statistics.median(series["pass_s"])
    m["trace.overhead_frac"] = (
        statistics.median(series["traced_pass_s"]) - untraced
    ) / untraced
    return m
