"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 bench/prove.py --seeds 10 [--workload W ...] [--trace 0|1] [--out FILE]

Runs ``bench/run.py`` once per workload and seed, one process at a time, and
prints for every metric the median, the quartiles and the spread (the
distance between the quartiles as a share of the median), next to the bound
that ``BENCHMARK.json`` fixes.  A spread above a third of the bound is
flagged.  It then reruns the first seed of each workload and checks that the
round-0 reports and counts repeat exactly.  ``--out`` writes every value as
JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - started
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}\n{proc.stderr}")
    res = json.loads(lines[-1])
    res["wall_s"] = wall
    res["failures"] = [line for line in lines if line.startswith("FAILED")]
    # Round-0 report digest and exact counts: equal for equal seeds.
    res["identity"] = [line.rsplit(" ", 1)[1] for line in lines if "sha256" in line]
    res["identity"] += [line for line in lines if line.startswith("  count ")]
    return res


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    report: dict = {
        "environment": {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": _cpu_model()},
        "settings": {"seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
                     "seconds": args.seconds, "trace": args.trace},
        "workloads": {},
    }
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = [run(workload, s, args.seconds, args.trace)
                for s in range(args.first_seed, args.first_seed + args.seeds)]
        again = run(workload, args.first_seed, args.seconds, args.trace)
        repeats = again["identity"] == runs[0]["identity"]
        print(f"\n{workload}: {len(runs)} runs, failed {sum(r['failed'] for r in runs)}"
              f"/{sum(r['attempted'] for r in runs)}, seed {args.first_seed} repeats exactly: {repeats}, "
              f"longest run {max(r['wall_s'] for r in runs + [again]):.1f} s")
        for line in sorted({f for r in runs for f in r["failures"]}):
            print(f"  {line}")
        report["workloads"][workload] = entry = {
            "repeats_exactly": repeats, "longest_run_s": max(r["wall_s"] for r in runs + [again]), "metrics": {}}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "  <-- above a third of the bound" if bound and spread > bound / 3 else ""
            print(f"  {name:<45} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:7.3f}" + (f"  bound {bound}" if bound else "") + flag)
            entry["metrics"][name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "values": values}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
