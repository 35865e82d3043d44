"""Steadiness check: run the whole benchmark twice and compare against the bounds.

    python3 perfbench/steady.py

Each of the two sets runs every workload of BENCHMARK.json once per seed
(seeds 1-10 in the first set, 11-20 in the second), one run at a time,
untraced, for BENCHMARK.json's ``run_seconds``.  For every end-to-end metric
it prints each set's median and its spread, the distance between the first
and third quartile as a share of the median.  It passes when every spread
stays within the metric's bound in BENCHMARK.json, when the second set's
median is not worse than the first set's by more than the bound, when every
run is correct and when the share of failed tasks is the same in every run.
The bounds were set from its output.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(lines[-1])


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(SETS):
            runs = []
            for seed in range(1 + s * SEEDS, 1 + (s + 1) * SEEDS):
                result = run_once(workload, seed, spec["run_seconds"])
                runs.append(result)
                print(f"  {workload} seed {seed}: " + ", ".join(
                    f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
            sets.append(runs)
        runs = [r for rs in sets for r in rs]
        print(f"{workload}:")
        if not all(r["correct"] for r in runs):
            print("  FAIL: a run reported wrong output")
            ok = False
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        if len(shares) != 1:
            print(f"  FAIL: failed share differs: {sorted(shares)}")
            ok = False
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            cols = []
            verdict = "ok"
            medians = []
            for runs in sets:
                values = [r["metrics"][key]["value"] for r in runs]
                medians.append(statistics.median(values))
                sp = spread(values)
                cols.append(f"median {medians[-1]:.6g} spread {sp:6.2%}")
                if sp > bound:
                    verdict = "FAIL spread"
                elif sp > bound / 3 and verdict == "ok":
                    verdict = "ok (spread above a third of the bound)"
            drift = medians[1] / medians[0] - 1
            cols.append(f"drift {drift:+6.2%}")
            if drift > bound:
                verdict = "FAIL drift"
            if verdict.startswith("FAIL"):
                ok = False
            print(f"  {key:16s} bound {bound:5.0%}  " + "  ".join(cols) + f"  {verdict}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
