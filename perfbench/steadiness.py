#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly on distinct seeds and
print, for every end-to-end metric, its median, quartiles and spread
(interquartile distance as a share of the median) against the metric's
regression bound from BENCHMARK.json.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--seed0 101]
        [--workloads a,b] [--out perfbench-steadiness.json]

A spread below a third of the bound is steady enough to judge a change
by; the script marks each row accordingly (setup_s is reported but only
its median is compared across commits). The JSON artifact holds every
run's values and the host provenance line the harness printed, so two
artifacts from the same host and build type make a before/after pair.
The exit code is non-zero when a run fails or fails its correctness
checks.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    host = next((l[5:] for l in lines if l.startswith("host ")), "{}")
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        return None, host
    res = json.loads(lines[-1])
    # "wall run_s <s> s, host speed <ratio> of the reference"
    wall = next((l.split() for l in lines if l.startswith("wall ")), None)
    if wall:
        res["wall"] = {"wall_run_s": float(wall[2]),
                       "host_speed": float(wall[6])}
    return res, host


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=101)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out", default="perfbench-steadiness.json")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    ok = True
    artifact = {"host": None, "runs": args.runs, "seed0": args.seed0,
                "workloads": {}}
    for w in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        raw = {}  # wall run_s and host speed: shown, not bounded
        for i in range(args.runs):
            res, host = run_once(w, args.seed0 + i, args.seconds)
            artifact["host"] = json.loads(host)
            if res is None or not res["correct"]:
                print(f"{w} seed {args.seed0 + i}: FAILED")
                ok = False
                continue
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            for name, v in res.get("wall", {}).items():
                raw.setdefault(name, []).append(v)
            print(f"{w} seed {args.seed0 + i}: ok", flush=True)
        rows = {}
        print(f"\n{w}")
        print(f"  {'metric':26} {'median':>14} {'q1':>14} {'q3':>14}"
              f" {'spread':>8} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            med, q1, q3, sp = spread(v)
            verdict = "steady" if sp <= m["bound"] / 3 else (
                "within bound" if sp <= m["bound"] else "TOO NOISY")
            print(f"  {m['name']:26} {med:14.6g} {q1:14.6g} {q3:14.6g}"
                  f" {sp:8.4f} {m['bound']:6.3f}  {verdict}", flush=True)
            rows[m["name"]] = {"values": v, "median": med, "q1": q1,
                               "q3": q3, "spread": sp, "bound": m["bound"],
                               "unit": m["unit"]}
        for name, v in raw.items():
            if len(v) < 2:
                continue
            med, q1, q3, sp = spread(v)
            print(f"  {name:26} {med:14.6g} {q1:14.6g} {q3:14.6g}"
                  f" {sp:8.4f} {'-':>6}  (unscaled)", flush=True)
            rows[name] = {"values": v, "median": med, "q1": q1, "q3": q3,
                          "spread": sp}
        artifact["workloads"][w] = rows
    with open(args.out, "w") as f:
        json.dump(artifact, f, indent=1)
    print(f"\nartifact written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
