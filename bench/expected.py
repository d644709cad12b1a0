"""Write `expected.json`, the outputs every benchmark repetition must match.

    PYTHONPATH=src python3 bench/expected.py

Run it from the repository root only when a change to tiedbox is meant to
change the records of a verify workload or the normal-form counts of the
rewrite workload.  It refuses to write when any record fails or when two
seeds give different records.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from child import REWRITE_PRESETS, VERIFY_PROFILES, canonical_lines, line_digest  # noqa: E402

SEEDS = (0, 7)


def main():
    from tiedbox import checks
    from tiedbox.presentations import build_preset, presentation_check

    expected = {}
    for workload, profile in VERIFY_PROFILES.items():
        runs = [checks.run_all(profile=profile, seed=seed) for seed in SEEDS]
        texts = ["\n".join(canonical_lines(records)) + "\n" for records in runs]
        if texts[0] != texts[1]:
            sys.exit(f"{workload}: records differ between seeds {SEEDS}")
        failing = [r["name"] for r in runs[0] if r["status"] != "pass"]
        if failing:
            sys.exit(f"{workload}: failing records {failing}")
        if len({r["name"] for r in runs[0]}) != len(runs[0]):
            sys.exit(f"{workload}: record names are not unique")
        expected[workload] = {
            "sha256": line_digest(texts[0]),
            "records": {r["name"]: line_digest(line)
                        for r, line in zip(runs[0], canonical_lines(runs[0]))},
        }
    counts = {}
    for name, n in REWRITE_PRESETS:
        report = presentation_check(*build_preset(name, n))
        if report["status"] != "pass" or not report.get("kb_complete"):
            sys.exit(f"{name}:{n}: {report}")
        counts[report["name"]] = report["normal_forms"]
    expected["rewrite-scale"] = {"normal_forms": counts}
    (BENCH / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
