#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly with different seeds and
prints, for every end-to-end metric, the median, the quartiles and the
spread (q3 - q1) / median against the metric's bound from BENCHMARK.json.

Usage (from the repository root):
  python3 perfbench/steady.py [--workloads scan,serve,graph] [--runs 10]
                              [--first-seed 1] [--seconds S] [--log FILE]
                              [--baseline FILE]

A spread below a third of the bound is steady ("ok"); below the bound is
"within"; above it is "WIDE". Every end-to-end metric, setup_s included,
is checked against its bound. Raw results are appended as JSON lines to
--log when given; --baseline reads such a log from an earlier set of runs
and also prints how far each median moved from that set's median in the
metric's worse direction ("drift"), which must stay within the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--log")
    ap.add_argument("--baseline")
    args = ap.parse_args()

    baseline = {}
    if args.baseline:
        with open(args.baseline) as f:
            for line in f:
                rec = json.loads(line)
                for name, m in rec["result"]["metrics"].items():
                    baseline.setdefault((rec["workload"], name), []).append(m["value"])

    steady = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
                steady = False
                continue
            if args.log:
                with open(args.log, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "result": result}) + "\n")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        print("== %s (%d runs, %d s) ==" % (workload, args.runs, args.seconds))
        print("  %-16s %12s %12s %12s %8s %6s %8s  %s" % ("metric", "median", "q1", "q3",
                                                          "spread", "bound", "drift",
                                                          "verdict"))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread < m["bound"] / 3:
                verdict = "ok"
            elif spread <= m["bound"]:
                verdict = "within"
                steady = False
            else:
                verdict = "WIDE"
                steady = False
            drift = float("nan")
            base = baseline.get((workload, m["name"]), [])
            if base:
                base_med = statistics.median(base)
                sign = 1 if m["better"] == "lower" else -1
                drift = sign * (med - base_med) / base_med
                if drift > m["bound"]:
                    verdict += ", DRIFT"
                    steady = False
            print("  %-16s %12.6g %12.6g %12.6g %8.4f %6.3f %8.4f  %s"
                  % (m["name"], med, q1, q3, spread, m["bound"], drift, verdict))
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
