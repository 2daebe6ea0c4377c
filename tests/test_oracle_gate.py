import hashlib
import importlib.util
from pathlib import Path

import pytest

from decision.cli import main
from decision.oracle import verify_combination_bound

_PATH = Path(__file__).resolve().parents[1] / "tools" / "oracle_gate.py"
_SPEC = importlib.util.spec_from_file_location("oracle_gate", _PATH)
oracle_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(oracle_gate)


def test_gate_passes_a_recorded_seed_and_fails_a_violation_or_an_unrecorded_count():
    expected = oracle_gate.recorded()
    report = verify_combination_bound(oracle_gate.TRIALS, 3)
    assert oracle_gate.problems(3, report, expected) == []
    report.strict_cases_checked += 1
    assert oracle_gate.problems(3, report, expected) == [
        f"strict_cases_checked {report.strict_cases_checked}, "
        f"recorded [{report.strict_cases_checked - 1}]"]
    corrupt = verify_combination_bound(20, 3, corrupt=True)
    assert oracle_gate.problems(3, corrupt, expected)[0] == f"{len(corrupt.violations)} violations"


def test_gate_passes_a_corrupt_run_only_when_it_reports_a_violation():
    expected = oracle_gate.recorded()
    assert oracle_gate.problems(3, verify_combination_bound(20, 3, corrupt=True), expected,
                                corrupt=True) == []
    assert oracle_gate.problems(3, verify_combination_bound(20, 3), expected,
                                corrupt=True) == ["no violations"]


@pytest.mark.parametrize("corrupt", [False, True], ids=["combined", "corrupt"])
def test_gate_digest_is_the_sha256_of_the_written_oracle_report(tmp_path, monkeypatch,
                                                               corrupt):
    monkeypatch.setenv("DECISION_ORACLE_CORRUPT", "1" if corrupt else "0")
    out = tmp_path / "oracle"
    assert main(["oracle", "--out", str(out), "--trials", "30", "--seed", "3"]) == int(corrupt)
    written = hashlib.sha256((out / "oracle_report.json").read_bytes()).hexdigest()
    assert oracle_gate.report_sha256(verify_combination_bound(30, 3, corrupt)) == written
