"""One repetition of one benchmark workload, in a fresh interpreter.

Run by `run.py`, never in the same process twice: every tiedbox command a
user runs starts with cold algebra singletons and cold `lru_cache`s, and so
does every repetition here.

    python3 bench/child.py WORKLOAD SEED SPAWNED [--trace] [--setup-only]

SPAWNED is the parent's `time.monotonic()` just before it started this
process; set-up time runs from then to the first timed call.  The last line
of standard output is one JSON object with the timings, the correctness
gate's verdict and, with --trace, the per-layer metrics.  Every time is given
twice: as measured (`raw_*`) and scaled to the reference host speed of
`speed.py` by the speed factor probed during it (the plain names).
"""

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

from speed import SpeedProbe

BENCH = Path(__file__).resolve().parent

VERIFY_PROFILES = {"verify-quick": "quick", "verify-full": "full"}
# KB-heavy presets (ROADMAP item 4); brauer:5 (> 120 s) and the presets
# whose completion exhausts its budget (srsn:4, brbrn:4) are left out.
REWRITE_PRESETS = [("brsn", 5), ("rsn", 4), ("brjn", 5), ("brsn-z", 5)]
WORKLOADS = list(VERIFY_PROFILES) + ["rewrite-scale"]


def canonical_lines(records):
    """The records as the CLI prints them: one sorted-key JSON line each."""
    return [json.dumps(r, default=str, sort_keys=True) for r in records]


def line_digest(line):
    return hashlib.sha256(line.encode()).hexdigest()


def prepare(workload, seed):
    """Build the inputs of one repetition; returns the timed call."""
    if workload in VERIFY_PROFILES:
        from tiedbox import checks
        profile = VERIFY_PROFILES[workload]
        return lambda: checks.run_all(profile=profile, seed=seed)
    from tiedbox.presentations import build_preset, presentation_check
    presets = list(REWRITE_PRESETS)
    random.Random(seed).shuffle(presets)
    inputs = [build_preset(name, n) for name, n in presets]
    return lambda: [presentation_check(*args) for args in inputs]


def gate(workload, outputs):
    """Compare one repetition's outputs with the committed expectations.
    Returns (attempted, failed, reasons)."""
    expected = json.loads((BENCH / "expected.json").read_text())[workload]
    if workload in VERIFY_PROFILES:
        lines = canonical_lines(outputs)
        want = expected["records"]
        got = {}
        bad = []
        for r, line in zip(outputs, lines):
            got[r["name"]] = line_digest(line)
            if r["status"] != "pass":
                bad.append(f"{r['name']}: status {r['status']}")
            elif want.get(r["name"]) != got[r["name"]]:
                bad.append(f"{r['name']}: record differs from the expected one")
        bad += [f"{name}: missing" for name in want if name not in got]
        if not bad and line_digest("\n".join(lines) + "\n") != expected["sha256"]:
            bad.append("records are in another order than expected")
        attempted = max(len(outputs), len(want))
        return attempted, min(len(bad), attempted), bad
    bad = []
    for report in outputs:
        want = expected["normal_forms"].get(report["name"])
        if (report["status"] != "pass" or report.get("kb_complete") is not True
                or not report.get("normal_forms") == report.get("expected") == want):
            bad.append(f"{report['name']}: {report}")
    attempted = max(len(outputs), len(expected["normal_forms"]))
    return attempted, min(len(bad), attempted), bad


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("spawned", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = suites = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        suites = tracing.install(tracer)
    call = prepare(args.workload, args.seed)
    if tracer is not None:
        tracer.reset()
    setup_s = time.monotonic() - args.spawned
    probe = SpeedProbe()
    setup_speed = probe.burst()
    result = {"setup_s": setup_s * setup_speed, "raw_setup_s": setup_s,
              "setup_speed": setup_speed}
    if args.setup_only:
        print(json.dumps(result))
        return 0
    cpu0 = _cpu_s()
    start = time.perf_counter()
    with probe:
        outputs = call()
    elapsed = time.perf_counter() - start
    wall_s = elapsed - probe.probe_s
    cpu_s = _cpu_s() - cpu0 - probe.probe_s
    speed = probe.factor()
    result.update(wall_s=wall_s * speed, cpu_s=cpu_s * speed, raw_wall_s=wall_s,
                  raw_cpu_s=cpu_s, speed=speed, probes=len(probe.ratios))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, reasons = gate(args.workload, outputs)
    result.update(attempted=attempted, failed=failed, reasons=reasons[:20])
    if tracer is not None:
        layers = tracer.metrics(suites, elapsed)
        result["layers"] = {name: value * speed if name.endswith("_s") else value
                            for name, value in layers.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
