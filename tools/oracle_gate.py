"""Run the oracle suite on the benchmark's 16 seeds and check it against the record.

For each seed 0-15, ``verify_combination_bound(1000, seed)`` runs twice: as
recorded (mode ``combined``) and with ``corrupt=True`` (mode ``corrupt``),
where the worst single source stands in for the combination. One line per seed
and mode gives the seed, the mode, the violation count,
``strict_cases_checked``, ``max_slack_used`` and the sha256 of the report as
``decision oracle`` writes it to ``oracle_report.json``. The exit status is 1
when a combined run has a violation or a strict count other than the one
``perfbench/expected.json`` records for its seed, or when a corrupt run reports
no violation; else 0:

    python tools/oracle_gate.py

Running it in two checkouts and diffing the output lists every change to a
report, down to one bit of ``max_slack_used`` or the order of the violations.
The ``decision`` package comes from ``PYTHONPATH`` when it is set there, else
from this checkout's ``src``.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS, TRIALS = range(16), 1000
MODES = (("combined", False), ("corrupt", True))


def recorded():
    return json.loads((ROOT / "perfbench" / "expected.json").read_text())


def report_sha256(report):
    """sha256 of the bytes ``decision oracle`` writes for ``report``."""
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def problems(seed, report, expected, corrupt=False):
    """Why the report for ``seed`` fails the gate; empty when it passes.

    A corrupt run passes when it reports a violation. Every workload in
    ``expected`` records the same oracle run for a seed, so the strict count of
    a combined run must equal each of them.
    """
    if corrupt:
        return [] if report.violations else ["no violations"]
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
    print("seed mode violations strict_cases_checked max_slack_used sha256")
    for seed in SEEDS:
        for mode, corrupt in MODES:
            report = verify_combination_bound(TRIALS, seed, corrupt)
            found = problems(seed, report, expected, corrupt)
            failed = failed or bool(found)
            print(seed, mode, len(report.violations), report.strict_cases_checked,
                  repr(float(report.max_slack_used)), report_sha256(report),
                  *(["FAIL:", "; ".join(found)] if found else []))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
