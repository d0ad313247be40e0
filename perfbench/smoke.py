#!/usr/bin/env python3
"""Smoke test of the benchmark itself, in seconds.

    python3 perfbench/smoke.py

Runs tiny sizes of every workload run.py knows (the three of BENCHMARK.json
plus fleet_calm), untraced and traced, and asserts that
each prints every metric BENCHMARK.json names, with its unit, after checks
that pass. Then it runs one workload against a recorded value that is
deliberately wrong and asserts that the run fails.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import DEFAULT_SEED, WORKLOADS  # noqa: E402


def run(workload, trace, expected=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--tiny",
           "--seconds", "1", "--trace", str(trace)]
    if expected is not None:
        cmd += ["--expected", str(expected)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT, timeout=300)
    lines = proc.stdout.splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)
            print(f"FAIL: {what}")

    for w in WORKLOADS:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, result, err = run(w, trace)
            label = f"{w} --trace {trace}"
            expect(code == 0 and result is not None and result["correct"],
                   f"{label}: exit {code}, result {result}\n{err[-2000:]}")
            if result is None:
                continue
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{label}: attempted {result['attempted']}, failed {result['failed']}")
            got = result["metrics"]
            expect(set(got) == {m["name"] for m in declared},
                   f"{label}: metrics {sorted(set(got) ^ {m['name'] for m in declared})} "
                   "differ from BENCHMARK.json")
            for m in declared:
                if m["name"] in got:
                    expect(got[m["name"]]["unit"] == m["unit"],
                           f"{label}: {m['name']} unit {got[m['name']]['unit']}")
                    expect(isinstance(got[m["name"]]["value"], (int, float)),
                           f"{label}: {m['name']} value is not a number")
            print(f"ok: {label}: {len(got)} metrics, attempted {result['attempted']}")

    # A deliberately wrong recorded value must fail the run.
    recorded = json.loads((HERE / "expected.json").read_text())
    month = recorded["fleet_storm"]["tiny"][str(DEFAULT_SEED)]
    month["dispatched"] += 1
    wrong = ROOT / ".bench_build" / "smoke-wrong-expected.json"
    wrong.parent.mkdir(parents=True, exist_ok=True)
    wrong.write_text(json.dumps(recorded))
    code, result, _ = run("fleet_storm", 0, expected=wrong)
    expect(code != 0 and result is not None and not result["correct"]
           and result["failed"] == result["attempted"],
           f"wrong recorded value: exit {code}, result {result}")
    if not failures:
        print("ok: a wrong recorded value fails the run")
    wrong.unlink()

    print("smoke: " + ("PASS" if not failures else f"{len(failures)} FAILURES"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
