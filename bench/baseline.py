"""Run the benchmark on several seeds, report its spread, and record a baseline.

    python3 bench/baseline.py                                # spread only
    python3 bench/baseline.py --traced --write baseline.json # record a baseline

Every workload runs once for each of the seeds 1 to RUNS.  For each workload
and end-to-end metric it prints the median of the runs and
the distance between the first and third quartile as a share of the median
(`statistics.quantiles(values, n=4)`), beside the metric's bound from
BENCHMARK.json.  A spread above a third of the bound is flagged: the
benchmark is meant to stay well inside its bounds.  With --write the raw
per-run values (and, with --traced, one traced run per workload) go to the
named file in this directory.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time

from run import BENCH, ROOT, WORKLOADS

RUNS = 10


def bench_run(workload, seed, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    elapsed = time.monotonic() - started
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    detail = next(json.loads(line.split(" detail ", 1)[1])
                  for line in lines if line.startswith(f"# {workload} detail "))
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {"seed": seed, "elapsed_s": elapsed, "attempted": result["attempted"],
            "failed": result["failed"], "values": values, "detail": detail}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--write", metavar="NAME")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"python": platform.python_version(), "machine": platform.machine(),
           "run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in WORKLOADS:
        runs = [bench_run(workload, seed, 0) for seed in range(1, RUNS + 1)]
        entry = {"runs": runs, "summary": {}}
        for name, bound in bounds.items():
            values = [r["values"][name] for r in runs]
            median, q1, q3, share = spread(values)
            flag = "ok" if share < bound / 3 else ("WIDE" if share <= bound else "OVER")
            steady = steady and (flag == "ok" or name == "setup_s" and share <= bound)
            entry["summary"][name] = {"median": median, "q1": q1, "q3": q3,
                                      "spread": share}
            print(f"{workload:14s} {name:12s} median {median:10.4f} q1 {q1:10.4f} "
                  f"q3 {q3:10.4f} spread {share:7.4f} bound {bound:5.2f} {flag}")
        speeds = [statistics.median(r["detail"]["speed"]) for r in runs]
        print(f"{workload:14s} speed        median {statistics.median(speeds):10.4f} "
              f"min {min(speeds):.4f} max {max(speeds):.4f}; "
              f"longest run {max(r['elapsed_s'] for r in runs):.1f} s")
        if args.traced:
            entry["traced"] = bench_run(workload, 1, 1)
        out["workloads"][workload] = entry
    if args.write:
        (BENCH / args.write).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
