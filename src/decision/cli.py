"""Command-line driver.

Subcommands: train-sources, adapt, oracle, distill, report.
Exit codes: 0 success, 1 verification violation, 2 config error (including a
checkpoint whose sizes differ from the config's model, and a ``distill`` that
would retrain over the student its run directory's report.json records), 3
I/O error (including a checkpoint file that cannot be read as a model, and a
run's report.json that ``report`` cannot read), 4 divergence (a training
value, step loss, pseudo-label distance or distillation teacher logit that is
not finite; the message names the method, the epoch, the step or the
refresh, and the value, and the source for a training value).
"""

import argparse
import os
import sys
from pathlib import Path

from . import config as config_mod
from . import runner
from .autodiff import DivergenceError
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
    try:
        report = verify_combination_bound(args.trials, args.seed, corrupt=corrupt)
    except ValueError as exc:  # an out-of-range --trials
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runner._write_json(out / "oracle_report.json", report.to_dict())
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
            for method, acc in report["methods"].items():  # in METHOD_ORDER
                print(f"{method}: {100 * acc:.2f}")
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
    except (CheckpointError, runner.ReportError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
