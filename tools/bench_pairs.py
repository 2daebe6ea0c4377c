"""Run the benchmark harness in two trees in alternating pairs and record the result.

Each pair runs ``perfbench/run.py --trace 0`` once in the parent tree and once
in the change tree, on the same workload and seed. The parent runs first in
odd pairs (1, 3, ...) and second in even ones, so a slow stretch of the host
falls on both sides alike. Pair k uses seed k - 1, and the run length is the
harness's own default. After every pair, the workload's entry in ``--out`` is
rewritten with:

- ``env``: the harness's environment line from each side;
- ``tree_sha256``: per side, a digest of the code the side ran (see
  ``tree_digest``), taken before the first pair; unlike the harness's git
  revision, it tells apart uncommitted changes and needs no ``.git``;
- ``pairs``: per pair, the seed, the side that ran first, and each side's
  ``correct``, ``attempted``, ``failed`` and metric values;
- ``summary``: per end-to-end metric, each side's median and IQR (quartiles
  by the default, exclusive method of ``statistics.quantiles(n=4)``), the
  relative change of the medians, whether their gap exceeds the parent's IQR,
  and the count of pairs in which the change was lower.

Entries of other workloads in ``--out`` are kept, so one file can hold both;
a second run on a workload replaces its earlier pairs:

    python tools/bench_pairs.py --parent ../parent --change . \\
        --workload moons3p1 --pairs 10 --out BENCH_16.json

Only the two trees' own ``perfbench/run.py`` and ``src`` are run; nothing is
imported from either tree into this process.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
CODE_DIRS = ("src", "perfbench")


def tree_digest(tree):
    """sha256 over the sorted relative paths and bytes of the files under the
    tree's ``src/`` and ``perfbench/``, ``__pycache__`` skipped.

    Each file adds its path, a NUL and the sha256 of its bytes, so no two
    different trees can join into the same stream.
    """
    root = Path(tree)
    files = sorted(path.relative_to(root).as_posix()
                   for top in CODE_DIRS for path in (root / top).rglob("*")
                   if path.is_file() and "__pycache__" not in path.parts)
    h = hashlib.sha256()
    for rel in files:
        h.update(rel.encode() + b"\0" + hashlib.sha256((root / rel).read_bytes()).digest())
    return h.hexdigest()


def order(pair):
    """The sides of pair ``pair`` (from 1) in running order: parent first when odd."""
    return SIDES if pair % 2 else SIDES[::-1]


def parse_output(stdout):
    """The harness's env line and last-line JSON, as one side's record."""
    lines = stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    result = json.loads(lines[-1]) if lines else {}
    return {"env": env,
            "correct": result.get("correct", False),
            "attempted": result.get("attempted", 0),
            "failed": result.get("failed"),
            "metrics": {name: m["value"] for name, m in result.get("metrics", {}).items()}}


def run_side(tree, workload, seed):
    proc = subprocess.run(
        [sys.executable, str(Path(tree) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        capture_output=True, text=True)
    try:
        side = parse_output(proc.stdout)
    except (ValueError, KeyError, TypeError):
        side = parse_output("")
    if proc.returncode != 0:
        side.update(correct=False, returncode=proc.returncode, stderr=proc.stderr[-2000:])
    return side


def spread(values):
    """(median, IQR) of ``values``; the IQR of fewer than two values is 0."""
    if len(values) < 2:
        return statistics.median(values), 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def summarize(pairs):
    """Per metric that both sides reported in some pair: each side's median and
    IQR over those pairs, the relative change of the medians, whether the gap
    exceeds the parent's IQR, and in how many of those pairs the change was
    lower."""
    names = sorted({name for row in pairs for name in row["parent"]["metrics"]})
    out = {}
    for name in names:
        both = [(row["parent"]["metrics"][name], row["change"]["metrics"][name])
                for row in pairs
                if name in row["parent"]["metrics"] and name in row["change"]["metrics"]]
        if not both:
            continue
        parent, change = zip(*both)
        (p_med, p_iqr), (c_med, c_iqr) = spread(parent), spread(change)
        out[name] = {
            "pairs": len(both),
            "parent": {"median": p_med, "iqr": p_iqr},
            "change": {"median": c_med, "iqr": c_iqr},
            "relative_change": c_med / p_med - 1.0 if p_med else None,
            "gap_exceeds_parent_iqr": abs(c_med - p_med) > p_iqr,
            "change_lower": sum(c < p for p, c in both),
        }
    return out


def workload_entry(pairs):
    """The record of one workload: env per side, the pairs and their summary."""
    env = {side: next((row[side]["env"] for row in reversed(pairs) if row[side]["env"]), None)
           for side in SIDES}
    rows = [{**row, **{side: {k: v for k, v in row[side].items() if k != "env"}
                       for side in SIDES}} for row in pairs]
    return {"env": env, "pairs": rows, "summary": summarize(pairs),
            "failed": {side: sum(row[side]["failed"] or 0 for row in pairs) for side in SIDES},
            "incorrect_runs": {side: sum(not row[side]["correct"] for row in pairs)
                               for side in SIDES}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent tree")
    parser.add_argument("--change", required=True, help="the changed tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", default="BENCH.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {"parent": args.parent, "change": args.change}
    code = {side: tree_digest(trees[side]) for side in SIDES}
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.is_file() else {}
    doc["harness"] = ("perfbench/run.py --workload W --seed S --trace 0, at the "
                      "harness's default run length; pair k runs seed k - 1")
    pairs = []
    for pair in range(1, args.pairs + 1):
        seed = pair - 1
        row = {"pair": pair, "seed": seed, "first": order(pair)[0]}
        for side in order(pair):
            row[side] = run_side(trees[side], args.workload, seed)
        pairs.append(row)
        doc.setdefault("workloads", {})[args.workload] = {**workload_entry(pairs),
                                                         "tree_sha256": code}
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"pair {pair} seed {seed}: " + " ".join(
            f"{side}={row[side]['metrics'].get('pipeline_s', float('nan')):.3f}"
            f"{'' if row[side]['correct'] else '(incorrect)'}" for side in SIDES),
            file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
