#!/usr/bin/env python3
"""Steadiness check: run each workload several times, one seed per run,
and print each end-to-end metric's median, quartiles and spread (the
quartile distance as a share of the median) next to its bound.

    python3 perfbench/steady.py                       # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads fanout --first-seed 100

Run from the repository root.  It reads BENCHMARK.json for the workloads,
run length, metrics and bounds, and runs perfbench/run.sh.  Every run's
operations attempted and failed are listed; serve runs also show the
client's CPU seconds against the run's wall time, so a run limited by
the load generator stands out.  Exit status 1 if a run fails, reports
incorrect output, or a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    info = {}
    for l in lines[:-1]:
        f = l.split()
        info.update(zip(f[0::2], map(float, f[1::2])))
    return json.loads(lines[-1]), info


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for w in args.workloads:
        values = {name: [] for name in bounds}
        print(f"== {w}: {args.runs} runs of {args.seconds} s")
        for i in range(args.runs):
            seed = args.first_seed + i
            res, info = run_once(w, seed, args.seconds)
            ok = ok and res["correct"]
            share = res["failed"] / res["attempted"]
            extra = ""
            if "client_cpu_s" in info:
                cpu, wall = info["client_cpu_s"], info["wall_s"]
                extra = f"  client.cpu_s {cpu:.2f} of wall {wall:.2f} s"
                if cpu > 0.9 * wall:
                    extra += " (load generator near saturation)"
            if "host_steal_s" in info:
                extra += (f"  host steal {info['host_steal_s']:.2f} s over "
                          f"{info['rounds']:.0f} rounds")
            print(f"  seed {seed}: correct {res['correct']}  attempted "
                  f"{res['attempted']}  failed {res['failed']} "
                  f"({share:.6f}){extra}", flush=True)
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        for name, m in bounds.items():
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= m["bound"] / 3 else (
                "WITHIN BOUND" if spread <= m["bound"] else "OVER BOUND")
            if spread > m["bound"]:
                ok = False
            print(f"  {name:18s} median {med:12.5g} {m['unit']:5s} q1 {q1:12.5g} "
                  f"q3 {q3:12.5g}  spread {spread:6.2%}  bound "
                  f"{m['bound']:.0%}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
