import importlib.util
import json
import shutil
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _side(metrics, correct=True, failed=0):
    return {"env": {"nproc": 2}, "correct": correct, "attempted": 12, "failed": failed,
            "metrics": metrics}


def test_parent_runs_first_in_odd_pairs():
    assert [bench_pairs.order(k) for k in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_parse_output_reads_the_env_line_and_the_last_json_line():
    stdout = "\n".join([
        'env {"nproc": 2, "numpy": "2.4"}',
        "workload=moons3p1 seed=3 (workload seed 3) passes=4",
        "  distill_s                       0.7 s      n=4",
        json.dumps({"correct": True, "attempted": 16, "failed": 0,
                    "metrics": {"distill_s": {"value": 0.7, "unit": "s"},
                                "peak_rss_mb": {"value": 42.5, "unit": "MB"}}}),
    ])
    assert bench_pairs.parse_output(stdout) == {
        "env": {"nproc": 2, "numpy": "2.4"}, "correct": True, "attempted": 16, "failed": 0,
        "metrics": {"distill_s": 0.7, "peak_rss_mb": 42.5}}
    assert bench_pairs.parse_output("")["correct"] is False


def test_summary_medians_iqr_and_pairs_where_the_change_was_lower():
    parent = [1.0, 1.2, 1.1, 1.3]
    change = [0.9, 1.25, 1.0, 1.1]
    pairs = [{"parent": _side({"distill_s": p, "setup_s": 0.5}),
              "change": _side({"distill_s": c, "setup_s": 0.5})}
             for p, c in zip(parent, change)]
    pairs[3]["change"] = _side({}, correct=False, failed=None)  # a run that printed nothing
    summary = bench_pairs.summarize(pairs)
    d = summary["distill_s"]
    assert d["pairs"] == 3
    # exclusive quartiles of (1.0, 1.1, 1.2) sit at ranks 1 and 3: the min and max
    assert d["parent"] == {"median": 1.1, "iqr": pytest.approx(0.2, abs=1e-15)}
    assert d["change"] == {"median": 1.0, "iqr": pytest.approx(0.35, abs=1e-15)}
    assert d["relative_change"] == pytest.approx(1.0 / 1.1 - 1.0, abs=1e-15)
    assert d["change_lower"] == 2
    assert d["gap_exceeds_parent_iqr"] is False  # |1.0 - 1.1| < 0.2
    s = summary["setup_s"]
    assert (s["change_lower"], s["relative_change"], s["gap_exceeds_parent_iqr"]) == (0, 0.0, False)
    assert s["parent"]["iqr"] == 0.0


def test_summary_of_four_pairs_and_of_one():
    pairs = [{"parent": _side({"x": p}), "change": _side({"x": p - 0.5})}
             for p in (1.0, 1.1, 1.2, 1.3)]
    x = bench_pairs.summarize(pairs)["x"]
    # exclusive quartiles of four values: ranks 1.25 and 3.75
    assert x["parent"]["iqr"] == pytest.approx(1.275 - 1.025, abs=1e-15)
    assert x["parent"]["median"] == pytest.approx(1.15, abs=1e-15)
    assert (x["change_lower"], x["gap_exceeds_parent_iqr"]) == (4, True)
    one = bench_pairs.summarize(pairs[:1])["x"]
    assert one["parent"] == {"median": 1.0, "iqr": 0.0}


def test_workload_entry_keeps_env_once_per_side_and_counts_failures():
    pairs = [{"pair": 1, "seed": 0, "first": "parent",
              "parent": _side({"x": 1.0}), "change": _side({"x": 0.9}, failed=2)},
             {"pair": 2, "seed": 1, "first": "change",
              "parent": _side({"x": 1.0}), "change": _side({}, correct=False, failed=None)}]
    entry = bench_pairs.workload_entry(pairs)
    assert entry["env"] == {"parent": {"nproc": 2}, "change": {"nproc": 2}}
    assert all("env" not in row[side] for row in entry["pairs"] for side in ("parent", "change"))
    assert entry["failed"] == {"parent": 0, "change": 2}
    assert entry["incorrect_runs"] == {"parent": 0, "change": 1}
    assert entry["summary"]["x"]["pairs"] == 1
    assert pairs[0]["parent"]["env"] == {"nproc": 2}  # the input rows are not changed


def _code_tree(root, module=b"x = 1\n"):
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "mod.py").write_bytes(module)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text("print(1)\n")
    return root


def test_tree_digest_tells_trees_apart_by_their_code_and_needs_no_git(tmp_path):
    tree = _code_tree(tmp_path / "tree")
    (tree / ".git").mkdir()
    (tree / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
    (tree / "src" / "pkg" / "__pycache__").mkdir()
    (tree / "src" / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"\0")
    digest = bench_pairs.tree_digest(tree)
    assert len(digest) == 64
    # one src byte apart
    assert bench_pairs.tree_digest(_code_tree(tmp_path / "other", b"x = 2\n")) != digest
    # the same code exported without .git (and without its bytecode)
    copy = tmp_path / "copy"
    shutil.copytree(tree, copy, ignore=shutil.ignore_patterns(".git", "__pycache__"))
    assert bench_pairs.tree_digest(copy) == digest
    # a file's path counts, not only its bytes
    (copy / "src" / "pkg" / "mod.py").rename(copy / "src" / "pkg" / "mod2.py")
    assert bench_pairs.tree_digest(copy) != digest
