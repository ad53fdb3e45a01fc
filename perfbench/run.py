#!/usr/bin/env python3
"""Smart-array benchmark: builds perfbench/ and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload scan|serve|graph|all --seed N \
      --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR (default .bench_build). The last line
of standard output is the result object: {"correct", "attempted",
"failed", "metrics"}; with --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics (0 for a
layer the workload does not call). --workload all runs the three
workloads and prints their end-to-end figures under their
workload-specific names. The exit code is 0 only when every answer was
correct.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan", "serve", "graph")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("smart-array sources (src/) not found next to perfbench/")
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "sabench", "sabench_selftest",
                  "--", "-j%d" % (os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build step failed: %s" % " ".join(cmd))
    return out


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def run_workload(out, workload, seed, seconds, trace):
    """Runs sabench once; returns its parsed line records."""
    env = dict(os.environ, SABENCH_COMMIT=git_commit())
    cmd = [os.path.join(out, "sabench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--trace-dir", out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=RUN_TIMEOUT_S)
    rec = {"meta": [], "named": [], "metrics": {}, "problems": [], "result": None,
           "exit": proc.returncode}
    for line in proc.stdout.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "meta":
            key, _, value = rest.partition(" ")
            rec["meta"].append((key, value))
        elif kind in ("named", "metric"):
            name, value, unit = rest.split(" ")
            if kind == "named":
                rec["named"].append((name, float(value), unit))
            else:
                rec["metrics"][name] = (float(value), unit)
        elif kind == "problem":
            rec["problems"].append(rest)
        elif kind == "result":
            correct, attempted, failed = rest.split(" ")
            rec["result"] = (correct == "1", int(attempted), int(failed))
    if rec["result"] is None:
        raise RuntimeError("sabench exited with %d and no result" % proc.returncode)
    return rec


def result_object(rec, trace, e2e, layers):
    """Checks sabench's metrics against BENCHMARK.json and builds the result."""
    wanted = layers if trace else e2e
    known = set(e2e) | set(layers)
    unknown = sorted(set(rec["metrics"]) - known)
    if unknown:
        raise RuntimeError("metrics missing from BENCHMARK.json: %s" % ", ".join(unknown))
    metrics = {}
    for name, spec in wanted.items():
        value, unit = rec["metrics"].get(name, (None, spec["unit"]))
        if value is None:
            if not trace:
                raise RuntimeError("end-to-end metric %s not measured" % name)
            value = 0.0  # the workload does not call this layer
        if unit != spec["unit"]:
            raise RuntimeError("metric %s has unit %s, BENCHMARK.json says %s"
                               % (name, unit, spec["unit"]))
        metrics[name] = {"value": value, "unit": unit}
    correct, attempted, failed = rec["result"]
    return {"correct": correct and rec["exit"] == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def print_report(workload, rec):
    print("== %s ==" % workload)
    for key, value in rec["meta"]:
        print("  %-24s %s" % (key, value))
    for name, value, unit in rec["named"]:
        print("  %-24s %.6g %s" % (name, value, unit))
    for p in rec["problems"]:
        print("  PROBLEM %s" % p)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload or --selftest is required")
    try:
        out = build()
        if args.selftest:
            return subprocess.run([os.path.join(out, "sabench_selftest")]).returncode
        e2e, layers = load_spec()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for w in workloads:
            rec = run_workload(out, w, args.seed, args.seconds, args.trace)
            print_report(w, rec)
            results[w] = (rec, result_object(rec, args.trace, e2e, layers))
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError, KeyError) as err:
        log("run.py: %s" % err)
        return 2
    if args.workload == "all":
        print("== end-to-end metrics by workload ==")
        for w, (rec, _) in results.items():
            for name, value, unit in rec["named"]:
                print("  %-6s %-20s %.6g %s" % (w, name, value, unit))
        print(json.dumps({w: r for w, (_, r) in results.items()}))
    else:
        print(json.dumps(results[args.workload][1]))
    return 0 if all(r["correct"] for _, r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
