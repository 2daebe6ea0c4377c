"""Print one sha256 per artifact of a full pipeline run on a benchmark workload.

Runs ``train-sources``, ``adapt`` and ``distill`` in a temporary directory on
the config ``perfbench/workloads.config_doc(workload, seed)`` generates, then
prints ``<sha256>  <path>`` for every file written, sorted by path.
In ``report.json`` the value of ``wall_clock_sec``, the one value a rerun may
change, is hashed as ``null``; every other byte counts. Diffing the output of two checkouts shows whether a
change kept every artifact byte-identical:

    python tools/artifact_digest.py moons3p1 0 > change.txt
    PYTHONPATH=<parent>/src python tools/artifact_digest.py moons3p1 0 > parent.txt
    diff parent.txt change.txt

The ``decision`` package comes from ``PYTHONPATH`` when it is set there, else
from this checkout's ``src``. BLAS runs on one thread unless
``OPENBLAS_NUM_THREADS`` says otherwise, as in the benchmark harness.
"""

import argparse
import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALL_CLOCK = re.compile(rb'"wall_clock_sec": [-+.0-9eE]+')


def digests(run_dir):
    """(relative path, sha256) of every file under ``run_dir``, sorted by path."""
    out = []
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.json":
            data = WALL_CLOCK.sub(b'"wall_clock_sec": null', data)
        out.append((path.relative_to(run_dir).as_posix(), hashlib.sha256(data).hexdigest()))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", help="a name in perfbench/workloads.WORKLOADS")
    parser.add_argument("seed", type=int)
    args = parser.parse_args(argv)

    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.append(str(ROOT / "src"))
    import yaml
    from workloads import config_doc

    from decision.cli import main as decision

    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        config = Path(tmp) / "config.yaml"
        config.write_text(yaml.safe_dump(config_doc(args.workload, args.seed)))
        common = ["--config", str(config), "--out"]
        with contextlib.redirect_stdout(io.StringIO()):
            for command in (["train-sources", *common, str(run)],
                            ["adapt", *common, str(run)],
                            ["distill", *common, str(run / "distill"), "--run", str(run)]):
                code = decision(command)
                if code != 0:
                    sys.exit(f"{command[0]} exited {code}")
        for rel, digest in digests(run):
            print(f"{digest}  {rel}")


if __name__ == "__main__":
    main()
