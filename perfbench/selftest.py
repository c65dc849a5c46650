"""Self-test of the benchmark.

    python3 perfbench/selftest.py [workload ...]

For each workload (all four by default) it makes one untraced and two traced
runs with the same seed and checks that

- the traced runs write CSVs byte-identical to the untraced run's, so
  tracing changes no result;
- the count metrics repeat exactly between the two traced runs;
- every run is correct, with no failed call.

Exit code 0 when every check passes.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from run import invoke  # noqa: E402

SEED = 5
SECONDS = 1
COUNTS = ("stepper.accepted_steps", "model.rhs_arrays_calls",
          "diagnostics.full_record_calls", "mms.source_calls",
          "inequalities.checks")


def check(workload: str) -> list[str]:
    problems = []
    runs = [invoke(workload, SEED, SECONDS, trace) for trace in (0, 1, 1)]
    for info, res in runs:
        if not res["correct"] or res["failed"]:
            problems.append(f"trace {info['trace']} run failed: "
                            f"{info['errors']}")
    plain = runs[0][0]["csv_sha256"]
    if not plain:
        problems.append("untraced run recorded no CSV digests")
    for info, _ in runs[1:]:
        if info["traced_csv_sha256"] != plain:
            problems.append("traced CSVs differ from the untraced run's")
    a, b = (res["metrics"] for _, res in runs[1:])
    for key in COUNTS:
        if a[key]["value"] != b[key]["value"]:
            problems.append(f"{key} differs: {a[key]['value']} vs "
                            f"{b[key]['value']}")
    return problems


def main(argv) -> int:
    failed = False
    for workload in argv or workloads.CLASSES:
        problems = check(workload)
        failed = failed or bool(problems)
        print(f"{workload}: {'FAIL' if problems else 'PASS'}")
        for p in problems:
            print(f"  {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
