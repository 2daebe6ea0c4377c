"""Run the oracle suite on the benchmark's 16 seeds and check it against the record.

For each seed 0-15, ``verify_combination_bound(1000, seed)`` runs and one line
gives the seed, the violation count, ``strict_cases_checked`` and
``max_slack_used``. The exit status is 1 when some seed has a violation or a
strict count other than the one ``perfbench/expected.json`` records for it,
else 0:

    python tools/oracle_gate.py

Running it in two checkouts and diffing the output lists every change to
``max_slack_used``. The ``decision`` package comes from ``PYTHONPATH`` when it
is set there, else from this checkout's ``src``.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS, TRIALS = range(16), 1000


def recorded():
    return json.loads((ROOT / "perfbench" / "expected.json").read_text())


def problems(seed, report, expected):
    """Why the report for ``seed`` fails the gate; empty when it passes.

    Every workload in ``expected`` records the same oracle run for a seed, so
    the strict count must equal each of them.
    """
    out = [f"{len(report.violations)} violations"] if report.violations else []
    want = {w[str(seed)]["strict_cases_checked"] for w in expected["workloads"].values()}
    if want != {report.strict_cases_checked}:
        out.append(f"strict_cases_checked {report.strict_cases_checked}, "
                   f"recorded {sorted(want)}")
    return out


def main():
    sys.path.append(str(ROOT / "src"))
    from decision.oracle import verify_combination_bound

    expected = recorded()
    failed = False
    print("seed violations strict_cases_checked max_slack_used")
    for seed in SEEDS:
        report = verify_combination_bound(TRIALS, seed)
        found = problems(seed, report, expected)
        failed = failed or bool(found)
        print(seed, len(report.violations), report.strict_cases_checked,
              repr(report.max_slack_used), *(["FAIL:", "; ".join(found)] if found else []))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
