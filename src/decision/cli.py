"""Command-line driver.

Subcommands: train-sources, adapt, oracle, distill, report.
Exit codes: 0 success, 1 verification violation, 2 config error, 3 I/O error
(including a checkpoint file that cannot be read as a model).
"""

import argparse
import json
import os
import sys
from pathlib import Path

from . import config as config_mod
from . import runner
from .config import ConfigError
from .models import CheckpointError
from .oracle import verify_combination_bound


def _load_config(args):
    cfg = config_mod.load(args.config)
    if args.seed is not None:
        from dataclasses import replace

        cfg = replace(cfg, seed=args.seed)
    return cfg


def _add_common(sub, seed_default=None):
    sub.add_argument("--config", required=True, help="experiment config (YAML)")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--seed", type=int, default=seed_default,
                     help="override the config's global seed")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="decision",
        description="Multi-source source-free domain adaptation toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("train-sources", help="pretrain one model per source domain"))

    adapt = subs.add_parser("adapt", help="run all enabled adaptation methods")
    _add_common(adapt)
    adapt.add_argument("--checkpoints", default=None,
                       help="checkpoint directory (default: <out>/checkpoints)")

    oracle = subs.add_parser("oracle", help="verify the source-combination guarantee")
    oracle.add_argument("--out", required=True)
    oracle.add_argument("--trials", type=int, default=1000)
    oracle.add_argument("--seed", type=int, default=0)

    distill = subs.add_parser("distill", help="compress the adapted ensemble into one model")
    _add_common(distill)
    distill.add_argument("--run", default=None,
                         help="adaptation run directory (default: <out>)")

    report = subs.add_parser("report", help="aggregate run directories into tables")
    report.add_argument("runs", nargs="+", help="run directories with report.json")
    report.add_argument("--out", required=True)
    return parser


def cmd_oracle(args):
    corrupt = os.environ.get("DECISION_ORACLE_CORRUPT", "") == "1"
    report = verify_combination_bound(args.trials, args.seed, corrupt=corrupt)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "oracle_report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    n_viol = len(report.violations)
    print(f"trials={report.trials} violations={n_viol} "
          f"strict_cases_checked={report.strict_cases_checked}")
    return 1 if n_viol > 0 else 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train-sources":
            runner.run_train_sources(_load_config(args), args.out)
        elif args.command == "adapt":
            report = runner.run_adapt(_load_config(args), args.out, args.checkpoints)
            for method in runner.METHOD_ORDER:
                if method in report["methods"]:
                    print(f"{method}: {100 * report['methods'][method]:.2f}")
        elif args.command == "oracle":
            return cmd_oracle(args)
        elif args.command == "distill":
            doc = runner.run_distill(_load_config(args), args.out, args.run)
            print(f"teacher={100 * doc['teacher_accuracy']:.2f} "
                  f"student={100 * doc['student_accuracy']:.2f} "
                  f"agreement={100 * doc['agreement']:.2f}")
        elif args.command == "report":
            runner.run_report(args.runs, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CheckpointError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
