"""Benchmark of tiedbox, the exact verifier: time to an all-exact verdict.

Run from the repository root:

    python3 bench/run.py --workload verify-quick --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all      # every workload, one after another

Load model: a closed loop with one client.  Each repetition is a fresh
interpreter (`child.py`) running one workload to the end; the next starts
when it has exited, and no two run at once.  A run repeats its workload
until `--seconds` would be exceeded (at least MIN_REPS times) and reports
medians over the repetitions.  Each round also makes a few set-up-only
spawns, so the set-up median rests on several samples spread over the run.

The host is a few cores of a shared machine whose speed drifts by tens of
percent over minutes, so every time metric is scaled to a fixed reference
speed by the speed factor that `speed.py` probes inside the repetition while
it runs (1.0 at the reference speed).  The times as measured and the factors
are printed beside the metrics, and in the detail line.

Every repetition is checked against `expected.json`; a record that fails or
differs counts as failed, and any failure makes the exit code non-zero.

With `--trace 1` the run alternates untraced and traced repetitions and
reports the per-layer metrics of `tracing.py` (medians of times; counts must
repeat exactly), the tracing overhead and the span coverage.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The metric names and units are those of BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
WORKLOADS = ["verify-quick", "verify-full", "rewrite-scale"]

MIN_REPS = 2
# Set-up-only spawns before each round; with the repetitions' own set-ups they
# give the set-up median several samples spread over the run.
SETUP_PROBES = 6
# Every run must end well inside 180 s, including a repetition that starts
# just before this limit.
RUN_LIMIT_S = 120.0
CHILD_TIMEOUT_S = 150.0


def spawn(workload, seed, *flags, timeout=CHILD_TIMEOUT_S):
    """Run one repetition in a fresh interpreter; None if it failed.

    The hash seed is fixed so that no count or timing depends on string-hash
    randomisation."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    spawned = time.monotonic()
    cmd = [sys.executable, str(CHILD), workload, str(seed), repr(spawned), *flags]
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"# {workload}: repetition timed out after {timeout:.0f} s", file=sys.stderr)
            return None
    if proc.returncode != 0:
        sys.stderr.write(err)
        print(f"# {workload}: repetition exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.splitlines()[-1])


def expected_attempts(workload):
    expected = json.loads((BENCH / "expected.json").read_text())[workload]
    return len(expected.get("records") or expected.get("normal_forms"))


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (attempted, failed, values, detail)."""
    start = time.monotonic()
    setups = []
    kinds = [()] + ([("--trace",)] if trace else [])
    reps = {flags: [] for flags in kinds}
    rounds = []
    attempted = failed = 0
    while True:
        began = time.monotonic()
        for _ in range(SETUP_PROBES):
            probe = spawn(workload, seed, "--setup-only")
            if probe is not None:
                setups.append(probe)
        for flags in kinds:
            left = start + CHILD_TIMEOUT_S - time.monotonic()
            rep = spawn(workload, seed, *flags, timeout=max(left, 1.0))
            if rep is None:
                attempted += expected_attempts(workload)
                failed += expected_attempts(workload)
                break
            attempted += rep["attempted"]
            failed += rep["failed"]
            for reason in rep["reasons"]:
                print(f"# {workload}: {reason}", file=sys.stderr)
            reps[flags].append(rep)
        if rep is None:
            break
        rounds.append(time.monotonic() - began)
        done = time.monotonic() + statistics.median(rounds)
        if done > start + RUN_LIMIT_S or len(rounds) >= MIN_REPS and done > start + seconds:
            break
    plain, traced = reps[()], reps.get(("--trace",), [])
    if not plain:
        return attempted, failed, {}, {}
    setups += plain
    values = {name: statistics.median(rep[name] for rep in plain)
              for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    values["setup_s"] = statistics.median(rep["setup_s"] for rep in setups)
    detail = {"reps": len(plain)}
    for name in ("wall_s", "raw_wall_s", "raw_cpu_s", "speed"):
        detail[name] = [rep[name] for rep in plain]
    detail["setup_s"] = [rep["setup_s"] for rep in setups]
    detail["raw_setup_s"] = [rep["raw_setup_s"] for rep in setups]
    detail["setup_speed"] = [rep["setup_speed"] for rep in setups]
    if traced:
        layers = [rep["layers"] for rep in traced]
        for name in layers[0]:
            samples = [layer[name] for layer in layers]
            if isinstance(samples[0], int):
                if len(set(samples)) > 1:
                    print(f"# {workload}: count {name} differs between runs: {samples}",
                          file=sys.stderr)
                    failed += 1
                values[name] = samples[0]
            else:
                values[name] = statistics.median(samples)
        detail["traced_wall_s"] = [rep["wall_s"] for rep in traced]
        values["trace.overhead_s"] = statistics.median(detail["traced_wall_s"]) - values["wall_s"]
    return attempted, failed, values, detail


def report(workload, spec, trace, attempted, failed, values, detail):
    """Print the human-readable lines of one run; returns the metrics."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    for name, m in metrics.items():
        print(f"{workload:14s} {name:44s} {m['value']:14.6f} {m['unit']}")
    ratio = failed / attempted if attempted else 1.0
    print(f"{workload:14s} {'failed_ratio':44s} {ratio:14.6f} fraction ({failed}/{attempted})")
    for name in ("raw_wall_s", "raw_cpu_s", "raw_setup_s", "speed", "setup_speed"):
        if detail.get(name):
            unit = "factor" if name.endswith("speed") else "s"
            print(f"{workload:14s} {name + ' (median)':44s} "
                  f"{statistics.median(detail[name]):14.6f} {unit}")
    print(f"# {workload} detail {json.dumps(detail)}")
    return metrics, len(metrics) == len(wanted)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time of one run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/tiedbox/__init__.py", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"run from the root of a tiedbox checkout; missing {missing}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    total_attempted = total_failed = 0
    complete = True
    all_metrics = {}
    for workload in workloads:
        attempted, failed, values, detail = run(workload, args.seed, seconds, bool(args.trace))
        metrics, whole = report(workload, spec, args.trace, attempted, failed,
                                values, detail)
        complete = complete and whole
        total_attempted += attempted
        total_failed += failed
        prefix = f"{workload}." if args.workload == "all" else ""
        all_metrics.update({prefix + k: v for k, v in metrics.items()})
    correct = complete and total_failed == 0 and total_attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(total_attempted, 1),
                      "failed": total_failed if total_attempted else 1,
                      "metrics": all_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
