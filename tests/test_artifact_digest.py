import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "artifact_digest.py"
_SPEC = importlib.util.spec_from_file_location("artifact_digest", _PATH)
artifact_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifact_digest)


def _run_dir(path, wall_clock_sec):
    """A miniature run directory, its report.json written as the runner writes it."""
    (path / "metrics").mkdir(parents=True)
    report = {"alpha": [0.25, 0.75], "methods": {"DECISION": 0.875},
              "wall_clock_sec": wall_clock_sec}
    (path / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    (path / "metrics" / "decision.jsonl").write_text('{"epoch": 1, "L_tot": -0.5}\n')
    return path


def test_digests_differ_on_every_byte_but_the_wall_clock(tmp_path):
    base = artifact_digest.digests(_run_dir(tmp_path / "a", 1.5))
    assert [rel for rel, _ in base] == ["metrics/decision.jsonl", "report.json"]
    run = _run_dir(tmp_path / "b", 73.0625e-3)
    assert artifact_digest.digests(run) == base
    for rel in ("metrics/decision.jsonl", "report.json"):
        path = run / rel
        data = path.read_bytes()
        clock = data.find(b"0.0730625")
        for i in range(len(data)):
            if rel == "report.json" and clock <= i < clock + len(b"0.0730625"):
                continue
            path.write_bytes(data[:i] + bytes([data[i] ^ 1]) + data[i + 1:])
            assert artifact_digest.digests(run) != base, (rel, i)
        path.write_bytes(data)
    assert artifact_digest.digests(run) == base
