#!/usr/bin/env python3
"""Steadiness self-check of the benchmark.

    python3 perfbench/steady.py [--rounds 5] [--workloads a,b,...] [--seconds S]

Runs two interleaved sets, A and B, of every workload: in each round both
sets run every workload once, A first in even rounds and B first in odd
ones, and every run gets its own seed. For each end-to-end metric of
BENCHMARK.json it prints, per workload:

  * each set's median and quartiles, and the difference of the medians
    (B against A) as a share of A's median, against the metric's bound;
  * the spread of all 2 x rounds runs: the distance between the first and
    third quartile (statistics.quantiles, n=4) as a share of the median,
    against the bound and against a third of it.

A metric passes when its spread is within the bound (setup_s is exempt from
this) and B's median is not worse than A's by more than the bound. The raw
values go to .bench_build/steady.json. Exit code 1 if anything fails.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed ({result})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    """Quartiles (statistics.quantiles, n=4) and (q3 - q1) / median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--rounds", type=int, default=5, help="runs per set (>= 2)")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    values = {w: {"A": [], "B": []} for w in workloads}
    seed = args.seed_base
    for r in range(args.rounds):
        for s in ("A", "B") if r % 2 == 0 else ("B", "A"):
            for w in workloads:
                seed += 1
                values[w][s].append(run(w, seed, args.seconds))
                got = values[w][s][-1]
                print(f"round {r} set {s} {w} seed {seed}: " +
                      " ".join(f"{m['name']}={got[m['name']]:.6g}" for m in metrics),
                      flush=True)
    out = ROOT / ".bench_build" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(values, indent=1))

    ok = True
    print(f"\n{'workload/metric':<26} {'A q1/median/q3':>26} {'B q1/median/q3':>26} "
          f"{'B vs A':>7} {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = [v[name] for v in values[w]["A"]]
            b = [v[name] for v in values[w]["B"]]
            qa, qb = spread(a), spread(b)
            worse = (qb[1] - qa[1]) / qa[1]
            if m["better"] == "higher":
                worse = -worse
            sp = spread(a + b)[3]
            verdict = []
            if worse > bound:
                verdict.append("B WORSE THAN BOUND")
            if name != "setup_s" and sp > bound:
                verdict.append("SPREAD OVER BOUND")
            ok = ok and not verdict
            if not verdict:
                verdict.append("ok" if sp < bound / 3 else "ok, spread over bound/3")
            quart = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
            print(f"{w + '/' + name:<26} {quart(qa):>26} {quart(qb):>26} "
                  f"{100 * (qb[1] - qa[1]) / qa[1]:>6.1f}% {100 * sp:>6.1f}% "
                  f"{100 * bound:>5.0f}%  {', '.join(verdict)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
