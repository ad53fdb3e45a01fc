#!/usr/bin/env python3
"""Compare two BENCH_codec.json files and fail readably on regressions.

Usage:
  tools/bench_diff.py BASELINE.json CANDIDATE.json [--threshold 0.10]
  tools/bench_diff.py CANDIDATE.json --assert-only

Timing mode (two files): for every (width, kernel) series present in both
files, fail if the candidate's bytes/s dropped more than --threshold
(default 10%) below the baseline. Series only present on one side are
reported but not fatal (kernels legitimately appear/disappear across
revisions, e.g. avx2-v2 on a non-AVX2 machine).

Assert-only mode (one file, for CI where timing is meaningless): checks
structure, not speed — every width 1..64 has `block`, `select-if-block`,
`selected`, `unpack-range`, and `pack-range` entries with positive
throughput. No timing gates, so noisy shared runners cannot flake the job.
On a full-window (non-fast) codec artifact it also fails when any width's
avx2-v2 series is below its block series, for the sum kernel (`avx2-v2`
vs `block`) and for the select_if match-mask kernel (`select-if-avx2-v2`
vs `select-if-block`): the static kernel table selects v2 wherever it
exists, so this is the artifact-side evidence that the rule never picks a
slower kernel. --min-scan-speedup-at-1pct
gates the pushdown scan summary. Both timing checks are skipped with a
note on fast artifacts; the v2 check is also skipped on artifacts without
avx2-v2 rows (hosts without AVX2).

Both modes auto-detect the schema. BENCH_codec.json entries carry
width/kernel/bytes_per_sec; BENCH_runtime.json entries carry a "metric"
key instead and only support --assert-only (the required metric families,
including the obs_scan_overhead telemetry-tax series, must be present with
positive timings).

BENCH_service.json (sa_loadgen output) entries carry a "series" key and
also only support --assert-only: both the "sharded" and "single-shard"
series must be present with positive throughput, ordered percentiles
(p50 <= p99 <= p999 <= max for acquire and read latency), and a live
daemon (passes > 0). The sharded series must cover the service envelope
the registry is specced for (>= 64 client threads, >= 10^4 slots).
Optional gates: --min-acquire-speedup fails when sharded acquire
throughput is below N x the single-shard series; --gate-p99-acquire-ns
fails when the sharded p99 acquire latency exceeds the bound.

BENCH_graph.json (bench_graph output) entries carry an "algorithm" key
and only support --assert-only: every graph algorithm (bfs, cc,
triangles, degree, pagerank) must appear on both generators (uniform,
power-law) with positive serial/parallel/live-daemon timings and
checked=true (the bench diffs every run against the serial reference,
including while the adaptation daemon restructures the arrays). The
trailing summary entry must show a live daemon (passes > 0), observed
adaptations, and >= 2 slots that diverged to >= 2 distinct
placement/compression classes. Scale gates (>= 1M edges, parallel
speedup >= 2x serial) apply only to non-fast runs on hosts with >= 4
cores — single-core CI containers record their core count and are
exempt from the parallelism gate, which would be dishonest there.
"""

import argparse
import json
import sys
from collections import defaultdict

REQUIRED_KERNELS = ("block", "select-if-block", "selected", "unpack-range", "pack-range")

# (label, v2 series, block series) pairs gated "v2 not slower than block"
# per width on non-fast codec artifacts.
V2_OVER_BLOCK = (("sum", "avx2-v2", "block"),
                 ("select_if", "select-if-avx2-v2", "select-if-block"))

# Predicate-pushdown scan series (micro_codec emits them into
# BENCH_codec.json alongside the per-width kernel series): every
# {kernel, distribution, selectivity} point must be present with positive
# throughput, plus exactly one scan-summary row. The summary's
# speedup_at_1pct (pushdown vs unpack-then-filter at 1% selectivity, best
# distribution) is gated by --min-scan-speedup-at-1pct on non-fast
# artifacts; fast (SA_BENCH_FAST) runs are structural-only — their 5 ms
# windows make ratios meaningless.
SCAN_KERNELS = ("scan-pushdown", "scan-unpack-filter")
SCAN_DISTRIBUTIONS = ("uniform", "power-law", "sorted")
SCAN_SELECTIVITIES = (0.001, 0.01, 0.1, 1.0)

# metric name -> fields that must be present and strictly positive
RUNTIME_REQUIRED_METRICS = {
    "snapshot_scan_overhead": ("raw_scan_sec", "snapshot_scan_sec"),
    "snapshot_acquire": ("acquire_release_ns",),
    "time_to_readable_during_restructure": ("mean_ns", "max_ns"),
    "restructure_wall": ("bulk_sec", "per_value_reference_sec"),
    "restructure_same_width": ("word_copy_sec",),
    "obs_scan_overhead": ("enabled_scan_sec", "disabled_scan_sec"),
    "audit_decision_overhead": ("audit_on_sec", "audit_off_sec"),
}


SERVICE_REQUIRED_SERIES = ("sharded", "single-shard")
SERVICE_POSITIVE_FIELDS = ("threads", "slots", "duration_sec", "ops",
                           "throughput_ops_per_sec", "acquires",
                           "acquire_throughput_per_sec")
SERVICE_PERCENTILES = ("p50", "p99", "p999", "max")
# The service envelope the sharded registry is specced for (ISSUE: open-loop
# traffic at >= 64 clients over >= 10^4 registered slots).
SERVICE_MIN_THREADS = 64
SERVICE_MIN_SLOTS = 10_000


def read_entries(path):
    with open(path) as f:
        return json.load(f)


def is_runtime_schema(entries):
    return bool(entries) and "metric" in entries[0]


def is_service_schema(entries):
    return bool(entries) and "series" in entries[0]


def is_graph_schema(entries):
    return bool(entries) and "algorithm" in entries[0]


GRAPH_ALGORITHMS = ("bfs", "cc", "triangles", "degree", "pagerank")
GRAPH_GENERATORS = ("uniform", "power-law")
GRAPH_TIMING_FIELDS = ("serial_sec", "parallel_sec", "live_daemon_sec")
# Scale gates from the issue's acceptance bar (1M+ edge graph, parallel at
# least 2x serial). Only meaningful on real multi-core hosts running the
# full bench; fast mode and small containers are exempt but must say so.
GRAPH_MIN_EDGES = 1_000_000
GRAPH_MIN_SPEEDUP = 2.0
GRAPH_MIN_CORES_FOR_SPEEDUP_GATE = 4


def assert_graph(path, entries):
    summary = None
    by_key = {}
    for e in entries:
        if e["algorithm"] == "summary":
            if summary is not None:
                print(f"bench_diff: {path}: duplicate summary entry")
                return 1
            summary = e
            continue
        key = (e["algorithm"], e["graph"])
        if key in by_key:
            print(f"bench_diff: {path}: duplicate entry for {key}")
            return 1
        by_key[key] = e
    problems = []
    fast = any(e.get("fast") for e in by_key.values())
    for algorithm in GRAPH_ALGORITHMS:
        for graph in GRAPH_GENERATORS:
            entry = by_key.get((algorithm, graph))
            if entry is None:
                problems.append(f"missing entry for {algorithm} on {graph}")
                continue
            for field in GRAPH_TIMING_FIELDS:
                value = entry.get(field)
                if value is None:
                    problems.append(f"{algorithm}/{graph} missing field '{field}'")
                elif not value > 0:
                    problems.append(f"{algorithm}/{graph} field '{field}' not positive: {value}")
            if not entry.get("live_iters", 0) > 0:
                problems.append(f"{algorithm}/{graph} never ran under the live daemon")
            if entry.get("checked") is not True:
                problems.append(f"{algorithm}/{graph} did not verify against the serial reference")
    if summary is None:
        problems.append("missing summary entry")
    else:
        host_cores = summary.get("host_cores", 0)
        if not summary.get("daemon_passes", 0) > 0:
            problems.append("summary: daemon made no passes (not live?)")
        adaptations = (summary.get("daemon_adaptations", 0)
                       + summary.get("projected_adaptations", 0))
        if not adaptations > 0:
            problems.append("summary: no adaptations observed or projected")
        adapted = summary.get("adapted", [])
        if len(adapted) < 2:
            problems.append(f"summary: only {len(adapted)} slots carry an adapted config, "
                            "need >= 2 property arrays")
        if summary.get("distinct_slot_configs", 0) < 2:
            problems.append("summary: all slots converged to one config; the issue "
                            "requires >= 2 arrays adapting to different configs")
        gate_scale = not fast
        gate_speedup = gate_scale and host_cores >= GRAPH_MIN_CORES_FOR_SPEEDUP_GATE
        if gate_scale and not problems:
            biggest = max(e.get("num_edges", 0) for e in by_key.values())
            if biggest < GRAPH_MIN_EDGES:
                problems.append(f"largest graph has {biggest} edges, "
                                f"spec floor is {GRAPH_MIN_EDGES}")
        if gate_speedup and not problems:
            for (algorithm, graph), entry in sorted(by_key.items()):
                if entry.get("num_edges", 0) < GRAPH_MIN_EDGES:
                    continue
                speedup = entry.get("parallel_speedup", 0)
                if speedup < GRAPH_MIN_SPEEDUP:
                    problems.append(f"{algorithm}/{graph} parallel speedup {speedup:.2f}x "
                                    f"below {GRAPH_MIN_SPEEDUP:.1f}x on "
                                    f"{host_cores}-core host")
        elif not problems:
            skipped = "speedup/scale gates" if fast else "speedup gate"
            why = "fast mode" if fast else f"{host_cores}-core host"
            print(f"bench_diff: {path}: {skipped} skipped ({why}; "
                  "core count recorded in summary)")
    if problems:
        print(f"bench_diff: {path} failed structural checks:")
        for p in problems:
            print(f"  {p}")
        return 1
    print(f"bench_diff: {path} OK — {len(by_key)} algorithm/graph runs all checked "
          f"against serial references; daemon passes={summary['daemon_passes']}, "
          f"adaptations={summary['daemon_adaptations']}"
          f"+{summary.get('projected_adaptations', 0)} projected, "
          f"{summary['distinct_slot_configs']} distinct slot configs across "
          f"{len(summary.get('adapted', []))} slots")
    return 0


def check_latency_block(problems, series, entry, key):
    block = entry.get(key)
    if not isinstance(block, dict):
        problems.append(f"series '{series}' missing latency block '{key}'")
        return
    values = []
    for pct in SERVICE_PERCENTILES:
        value = block.get(pct)
        if value is None:
            problems.append(f"series '{series}' {key} missing '{pct}'")
            return
        if not value > 0:
            problems.append(f"series '{series}' {key} {pct} not positive: {value}")
            return
        values.append(value)
    if values != sorted(values):
        problems.append(f"series '{series}' {key} percentiles not monotone: "
                        + " <= ".join(f"{p}={v}" for p, v in zip(SERVICE_PERCENTILES, values)))
    if not block.get("count", 0) > 0:
        problems.append(f"series '{series}' {key} has no samples")


def assert_service(path, entries, min_acquire_speedup, gate_p99_acquire_ns):
    by_series = {}
    for e in entries:
        if e["series"] in by_series:
            print(f"bench_diff: {path}: duplicate series '{e['series']}'")
            return 1
        by_series[e["series"]] = e
    problems = []
    for series in SERVICE_REQUIRED_SERIES:
        entry = by_series.get(series)
        if entry is None:
            problems.append(f"missing series '{series}'")
            continue
        for field in SERVICE_POSITIVE_FIELDS:
            value = entry.get(field)
            if value is None:
                problems.append(f"series '{series}' missing field '{field}'")
            elif not value > 0:
                problems.append(f"series '{series}' field '{field}' not positive: {value}")
        check_latency_block(problems, series, entry, "acquire_latency_ns")
        check_latency_block(problems, series, entry, "read_latency_ns")
        daemon = entry.get("daemon")
        if not isinstance(daemon, dict):
            problems.append(f"series '{series}' missing daemon block")
        elif not daemon.get("passes", 0) > 0:
            problems.append(f"series '{series}' daemon made no passes (not live?)")
    sharded = by_series.get("sharded")
    if sharded is not None and not problems:
        if sharded.get("threads", 0) < SERVICE_MIN_THREADS:
            problems.append(f"sharded series ran {sharded.get('threads')} client threads, "
                            f"spec floor is {SERVICE_MIN_THREADS}")
        if sharded.get("slots", 0) < SERVICE_MIN_SLOTS:
            problems.append(f"sharded series ran {sharded.get('slots')} slots, "
                            f"spec floor is {SERVICE_MIN_SLOTS}")
        if gate_p99_acquire_ns is not None:
            p99 = sharded["acquire_latency_ns"]["p99"]
            if p99 > gate_p99_acquire_ns:
                problems.append(f"sharded p99 acquire latency {p99}ns exceeds "
                                f"gate {gate_p99_acquire_ns}ns")
    speedup = None
    if not problems:
        single = by_series["single-shard"]
        speedup = (sharded["acquire_throughput_per_sec"]
                   / single["acquire_throughput_per_sec"])
        if min_acquire_speedup is not None and speedup < min_acquire_speedup:
            problems.append(
                f"sharded/single-shard acquire speedup {speedup:.2f}x below "
                f"required {min_acquire_speedup:.2f}x "
                f"({sharded['acquire_throughput_per_sec']} vs "
                f"{single['acquire_throughput_per_sec']} acquires/s)")
    if problems:
        print(f"bench_diff: {path} failed structural checks:")
        for p in problems:
            print(f"  {p}")
        return 1
    print(f"bench_diff: {path} OK — sharded {sharded['acquire_throughput_per_sec']:,} acq/s "
          f"(p50 {sharded['acquire_latency_ns']['p50']}ns, "
          f"p99 {sharded['acquire_latency_ns']['p99']}ns) "
          f"= {speedup:.2f}x single-shard over {sharded['threads']} threads / "
          f"{sharded['slots']} slots")
    return 0


def load(path):
    """-> {(width, kernel): bytes_per_sec}"""
    entries = read_entries(path)
    if is_runtime_schema(entries) or is_service_schema(entries) or is_graph_schema(entries):
        sys.exit(f"bench_diff: {path} is not a codec-schema file; "
                 "timing diffs only support the codec schema (use --assert-only)")
    series = {}
    for e in entries:
        kernel = e["kernel"]
        if kernel == "scan-summary":
            continue  # derived ratio row, not a timing series
        if "distribution" in e:
            kernel = f"{kernel}[{e['distribution']}@{e['selectivity']:g}]"
        series[(e["width"], kernel)] = e["bytes_per_sec"]
    return series


def assert_runtime(path, entries):
    by_metric = {}
    for e in entries:
        if e["metric"] in by_metric:
            print(f"bench_diff: {path}: duplicate metric '{e['metric']}'")
            return 1
        by_metric[e["metric"]] = e
    problems = []
    for metric, fields in RUNTIME_REQUIRED_METRICS.items():
        entry = by_metric.get(metric)
        if entry is None:
            problems.append(f"missing metric '{metric}'")
            continue
        for field in fields:
            value = entry.get(field)
            if value is None:
                problems.append(f"metric '{metric}' missing field '{field}'")
            elif not value > 0:
                problems.append(f"metric '{metric}' field '{field}' not positive: {value}")
        # overhead_pct legitimately goes negative in noise; just require it.
        if metric.endswith("_overhead") and "overhead_pct" not in entry:
            problems.append(f"metric '{metric}' missing field 'overhead_pct'")
    if problems:
        print(f"bench_diff: {path} failed structural checks:")
        for p in problems:
            print(f"  {p}")
        return 1
    obs = by_metric["obs_scan_overhead"]
    print(f"bench_diff: {path} OK ({len(by_metric)} runtime metrics; "
          f"obs tax {obs['overhead_pct']:+.2f}% with compiled_in={obs.get('compiled_in', '?')})")
    return 0


def scan_problems(path, entries, min_scan_speedup):
    problems = []
    summaries = [e for e in entries if e.get("kernel") == "scan-summary"]
    points = {}
    for e in entries:
        if e.get("kernel") in SCAN_KERNELS:
            points[(e["kernel"], e["distribution"], e["selectivity"])] = e["bytes_per_sec"]
    for kernel in SCAN_KERNELS:
        for distribution in SCAN_DISTRIBUTIONS:
            for selectivity in SCAN_SELECTIVITIES:
                value = points.get((kernel, distribution, selectivity))
                where = f"{kernel} on {distribution} at {selectivity:g}"
                if value is None:
                    problems.append(f"missing scan series: {where}")
                elif not value > 0:
                    problems.append(f"scan series {where} has non-positive throughput {value}")
    if len(summaries) != 1:
        problems.append(f"expected exactly one scan-summary entry, found {len(summaries)}")
        return problems
    summary = summaries[0]
    speedup = summary.get("speedup_at_1pct")
    if speedup is None:
        problems.append("scan-summary missing 'speedup_at_1pct'")
    elif min_scan_speedup is not None:
        if summary.get("fast"):
            print(f"bench_diff: {path}: scan speedup gate skipped (fast run; "
                  f"recorded speedup_at_1pct={speedup:.2f}x is structural-only)")
        elif speedup < min_scan_speedup:
            problems.append(f"pushdown speedup at 1% selectivity {speedup:.2f}x below "
                            f"required {min_scan_speedup:.2f}x")
    return problems


def v2_over_block_problems(path, entries, series):
    """Per-width gate on non-fast artifacts: each avx2-v2 kernel is not slower than block."""
    if any(e.get("fast") for e in entries if e.get("kernel") == "scan-summary"):
        print(f"bench_diff: {path}: v2-over-block gate skipped (fast run; "
              "timings are structural-only)")
        return []
    problems = []
    for label, v2_kernel, block_kernel in V2_OVER_BLOCK:
        ratios = []
        for width in range(1, 65):
            v2 = series.get((width, v2_kernel))
            block = series.get((width, block_kernel))
            if v2 is None or not block:
                continue
            ratio = v2 / block
            ratios.append((ratio, width))
            if ratio < 1.0:
                problems.append(f"width {width}: {label} {v2_kernel} {gbps(v2)} is slower than "
                                f"{block_kernel} {gbps(block)} ({ratio:.2f}x)")
        if not ratios:
            print(f"bench_diff: {path}: {label} v2-over-block gate skipped "
                  f"(no {v2_kernel} series)")
        elif all(r >= 1.0 for r, _ in ratios):
            ratio, width = min(ratios)
            print(f"bench_diff: {path}: {label} {v2_kernel} >= {block_kernel} at all "
                  f"{len(ratios)} v2 widths (smallest {ratio:.2f}x at width {width})")
    return problems


def assert_only(path, min_acquire_speedup=None, gate_p99_acquire_ns=None,
                min_scan_speedup=None):
    entries = read_entries(path)
    if is_service_schema(entries):
        return assert_service(path, entries, min_acquire_speedup, gate_p99_acquire_ns)
    if min_acquire_speedup is not None or gate_p99_acquire_ns is not None:
        sys.exit(f"bench_diff: {path} is not a service-schema file; "
                 "--min-acquire-speedup/--gate-p99-acquire-ns need sa_loadgen output")
    if is_runtime_schema(entries):
        return assert_runtime(path, entries)
    if is_graph_schema(entries):
        return assert_graph(path, entries)
    series = load(path)
    problems = []
    for width in range(1, 65):
        for kernel in REQUIRED_KERNELS:
            value = series.get((width, kernel))
            if value is None:
                problems.append(f"width {width}: missing '{kernel}' series")
            elif not value > 0:
                problems.append(f"width {width}: '{kernel}' has non-positive throughput {value}")
    problems.extend(scan_problems(path, entries, min_scan_speedup))
    problems.extend(v2_over_block_problems(path, entries, series))
    if problems:
        print(f"bench_diff: {path} failed structural checks:")
        for p in problems:
            print(f"  {p}")
        return 1
    summary = next(e for e in entries if e.get("kernel") == "scan-summary")
    print(f"bench_diff: {path} OK ({len(series)} series, widths 1..64 complete; "
          f"scan grid {len(SCAN_DISTRIBUTIONS)}x{len(SCAN_SELECTIVITIES)} complete, "
          f"pushdown at 1% = {summary['speedup_at_1pct']:.2f}x unpack-filter)")
    return 0


def gbps(value):
    return f"{value / 1e9:.2f} GB/s"


def diff(baseline_path, candidate_path, threshold):
    baseline = load(baseline_path)
    candidate = load(candidate_path)

    regressions = []
    improvements = []
    for key in sorted(baseline.keys() & candidate.keys()):
        old, new = baseline[key], candidate[key]
        if old <= 0:
            continue
        ratio = new / old
        if ratio < 1.0 - threshold:
            regressions.append((key, old, new, ratio))
        elif ratio > 1.0 + threshold:
            improvements.append((key, old, new, ratio))

    only_baseline = sorted(baseline.keys() - candidate.keys())
    only_candidate = sorted(candidate.keys() - baseline.keys())

    if improvements:
        print(f"{len(improvements)} series improved >{threshold:.0%}:")
        for (width, kernel), old, new, ratio in improvements:
            print(f"  width {width:2d} {kernel:16s} {gbps(old)} -> {gbps(new)}  ({ratio:.2f}x)")
    if only_baseline:
        print(f"{len(only_baseline)} series only in baseline (not fatal): "
              + ", ".join(f"{w}/{k}" for w, k in only_baseline[:8])
              + ("..." if len(only_baseline) > 8 else ""))
    if only_candidate:
        print(f"{len(only_candidate)} series only in candidate (not fatal): "
              + ", ".join(f"{w}/{k}" for w, k in only_candidate[:8])
              + ("..." if len(only_candidate) > 8 else ""))

    if regressions:
        print(f"\nFAIL: {len(regressions)} series regressed >{threshold:.0%} "
              f"vs {baseline_path}:")
        for (width, kernel), old, new, ratio in regressions:
            print(f"  width {width:2d} {kernel:16s} {gbps(old)} -> {gbps(new)}  "
                  f"({1.0 - ratio:.0%} slower)")
        return 1

    shared = len(baseline.keys() & candidate.keys())
    print(f"\nbench_diff: OK — {shared} shared series within {threshold:.0%} of baseline")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", help="baseline JSON (or the only file with --assert-only)")
    parser.add_argument("candidate", nargs="?", help="candidate JSON to compare against baseline")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="fractional regression tolerance (default 0.10)")
    parser.add_argument("--assert-only", action="store_true",
                        help="structural checks on a single file, no timing comparison")
    parser.add_argument("--min-acquire-speedup", type=float, default=None,
                        help="service schema: fail when sharded acquire throughput is "
                             "below N x the single-shard series")
    parser.add_argument("--gate-p99-acquire-ns", type=int, default=None,
                        help="service schema: fail when the sharded p99 acquire "
                             "latency exceeds this bound in ns")
    parser.add_argument("--min-scan-speedup-at-1pct", type=float, default=None,
                        help="codec schema: fail when the scan-summary's pushdown "
                             "speedup at 1%% selectivity is below N (skipped with a "
                             "note on fast/smoke artifacts)")
    args = parser.parse_args()

    if args.assert_only:
        if args.candidate is not None:
            parser.error("--assert-only takes exactly one file")
        return assert_only(args.baseline, args.min_acquire_speedup,
                           args.gate_p99_acquire_ns, args.min_scan_speedup_at_1pct)
    if args.min_acquire_speedup is not None or args.gate_p99_acquire_ns is not None:
        parser.error("--min-acquire-speedup/--gate-p99-acquire-ns require --assert-only")
    if args.min_scan_speedup_at_1pct is not None:
        parser.error("--min-scan-speedup-at-1pct requires --assert-only")
    if args.candidate is None:
        parser.error("timing mode needs BASELINE and CANDIDATE (or use --assert-only)")
    return diff(args.baseline, args.candidate, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
