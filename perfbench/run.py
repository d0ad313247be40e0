#!/usr/bin/env python3
"""End-to-end benchmark of spothost: one command per workload run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--tiny] [--expected FILE] [--record]

Builds perfbench/ (and with it the spothost library) as a Release build under
.bench_build/perfbench in the checkout, pins the environment the program reads,
runs the harness for --seconds, checks its outputs and prints, as the last line
of standard output, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced pass with --trace 1. The line before it, `env {...}`, records nproc,
compiler, build type, pool size and the source revision.

For the default seed the outputs are compared with the values recorded in
perfbench/expected.json (--record rewrites that entry). Any failed check
makes `correct` false and the exit code 1.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("fleet_calm", "fleet_storm", "sweep_paper", "serve_tail")
DEFAULT_SEED = 20150615
# The sweep's pool size, fixed so sweep_paper always runs on the same
# number of workers (fewer only where the machine has fewer CPUs).
POOL_THREADS = min(4, os.cpu_count() or 1)
# Knobs that would change what the program runs; they are never inherited.
CLEARED_KNOBS = ("SPOTHOST_SHARDS", "SPOTHOST_EVENT_QUEUE", "SPOTHOST_RUNS",
                 "SPOTHOST_SEED")
REL_TOL = 1e-9


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    return subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def revision():
    """The git commit, or (outside a git checkout) a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench", "CMakeLists.txt"):
        path = ROOT / base
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def mismatches(got, want, path="outputs", subset=False):
    """Paths where `got` differs from `want` (numbers within REL_TOL). With
    `subset`, `got` may lack top-level keys of `want`: a fleet run reports
    only the months (seeds) it measured."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = [f"{path}.{k}: not recorded" for k in got if k not in want]
        if not subset:
            out += [f"{path}.{k}: missing" for k in want if k not in got]
        for k in want:
            if k in got:
                out += mismatches(got[k], want[k], f"{path}.{k}")
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: length {len(got)} != {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += mismatches(g, w, f"{path}[{i}]")
        return out
    numeric = (int, float)
    if (isinstance(want, numeric) and isinstance(got, numeric)
            and not isinstance(want, bool) and not isinstance(got, bool)):
        if got == want or abs(got - want) <= REL_TOL * max(abs(got), abs(want)):
            return []
        return [f"{path}: {got!r} != recorded {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != recorded {want!r}"]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    ap.add_argument("--expected", default=str(HERE / "expected.json"))
    ap.add_argument("--record", action="store_true",
                    help="store this run's outputs as the recorded ones")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no spothost sources next to {HERE.name}/ (expected src/CMakeLists.txt)")
        return 2
    if not build():
        log("build failed")
        return 1

    env = dict(os.environ)
    for knob in CLEARED_KNOBS:
        if env.pop(knob, None) is not None:
            log(f"ignoring {knob} from the environment")
    env["SPOTHOST_THREADS"] = str(POOL_THREADS)

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        cmd += ["--spans", str(BUILD / f"spans-{args.workload}-{args.seed}.tsv")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        log("harness timed out")
        return 1
    lines = proc.stdout.splitlines()
    if len(lines) < 3 or not lines[-3].startswith("env ") \
            or not lines[-2].startswith("outputs "):
        sys.stdout.write(proc.stdout)
        log(f"harness exited {proc.returncode} without a result")
        return 1
    for line in lines[:-3]:
        print(line)
    run_env = json.loads(lines[-3][4:])
    outputs = json.loads(lines[-2][8:])
    result = json.loads(lines[-1])

    run_env.update(threads=POOL_THREADS, revision=revision())
    print("env " + json.dumps(run_env))
    print("outputs " + json.dumps(outputs))

    size = "tiny" if args.tiny else "full"
    expected_path = Path(args.expected)
    recorded = json.loads(expected_path.read_text()) if expected_path.exists() else {}
    if args.record:
        if args.seed != DEFAULT_SEED or not result["correct"]:
            log("--record needs the default seed and a run whose checks pass")
            return 1
        recorded.setdefault(args.workload, {})[size] = outputs
        expected_path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        log(f"recorded {args.workload}/{size} in {expected_path}")
    elif args.seed == DEFAULT_SEED:
        want = recorded.get(args.workload, {}).get(size)
        if want is None:
            log(f"nothing recorded for {args.workload}/{size}: outputs unchecked")
            result["correct"] = False
            result["failed"] = result["attempted"]
        else:
            bad = mismatches(outputs, want, subset=args.workload.startswith("fleet"))
            for b in bad[:20]:
                log(f"CHECK FAILED: {b}")
            if bad:
                result["correct"] = False
                if args.workload == "sweep_paper":
                    arms = {b.split("]")[0] for b in bad if b.startswith("outputs.arms[")}
                    share = len(arms) / len(want["arms"]) if arms else 1.0
                    result["failed"] = max(result["failed"],
                                           round(result["attempted"] * share))
                else:
                    result["failed"] = result["attempted"]

    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
