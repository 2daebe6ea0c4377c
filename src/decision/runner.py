"""Experiment orchestration behind the CLI subcommands.

A run directory is self-describing: the resolved config echo, checkpoints,
per-epoch metrics (JSON lines), alpha trajectories (CSV), and a report.json
holding every headline number. Aggregation (`run_report`) only reads those
artifacts; nothing is recomputed.
"""

import csv
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import kernels
from .adaptation import adapt, soft_ensemble_accuracy, weights_only_adapt
from .data import generate_domain, split_train_eval
from .distill import TeacherView, train_student
from .models import (CheckpointError, SourceModel, SourceTrainConfig, accuracy,
                     load_checkpoint, save_checkpoint, train_source)

METHOD_ORDER = ("Source-best", "Source-worst", "SHOT-best", "SHOT-worst",
                "SHOT-Ens", "DECISION-weights", "DECISION", "DECISION-distill")


def resolved_seeds(cfg):
    return {
        "model_init": [cfg.seed * 101 + i for i in range(len(cfg.source_specs))],
        "shot_adapt": [cfg.seed * 211 + i for i in range(len(cfg.source_specs))],
        "decision_adapt": cfg.seed * 307,
        "weights_only_adapt": cfg.seed * 401,
        "student": cfg.seed * 503,
        "splits": {name: spec.seed + 1
                   for name, spec in zip(cfg.source_names + ["target"],
                                         cfg.source_specs + [cfg.target_spec])},
    }


def _domain_split(cfg, spec):
    return split_train_eval(generate_domain(spec), cfg.eval_fraction, seed=spec.seed + 1)


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_metrics_jsonl(path, metrics):
    with open(path, "w") as fh:
        for row in metrics:
            ordered = {key: row[key] for key in
                       ("epoch", "L_ent", "L_div", "L_pl", "L_tot", "alpha",
                        "target_accuracy")}
            fh.write(json.dumps(ordered) + "\n")


def write_alpha_csv(path, metrics):
    n = len(metrics[0]["alpha"]) if metrics else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch"] + [f"alpha_{j + 1}" for j in range(n)])
        for row in metrics:
            writer.writerow([row["epoch"]] + [repr(a) for a in row["alpha"]])


def run_train_sources(cfg, out):
    """Train one model per source domain; write checkpoints plus a report.

    Sources whose training sets have one size train together, in one
    ``train_source`` call per size.
    """
    out = Path(out)
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    config_mod.save(cfg, out / "config.yaml")
    seeds = resolved_seeds(cfg)
    arch = cfg.resolved_model()
    splits = [_domain_split(cfg, spec) for spec in cfg.source_specs]
    models = [SourceModel.init(name, arch, seed, cfg.source_training.label_smoothing)
              for name, seed in zip(cfg.source_names, seeds["model_init"])]
    by_size = {}
    for i, (train, _) in enumerate(splits):
        by_size.setdefault(len(train), []).append(i)
    metrics = {}
    for group in by_size.values():
        metrics.update(zip(group, train_source(
            [models[i] for i in group], [splits[i][0] for i in group], cfg.source_training,
            [seeds["model_init"][i] for i in group])))
    report = {"sources": {}, "resolved_seeds": seeds}
    for i, (model, (_, ev)) in enumerate(zip(models, splits)):
        save_checkpoint(model, ckpt_dir / f"{model.domain}.json")
        report["sources"][model.domain] = {
            "train_accuracy": metrics[i]["train_accuracy"],
            "eval_accuracy": accuracy([model], [1.0], ev),
            "final_loss": metrics[i]["epoch_losses"][-1],
        }
    _write_json(out / "source_report.json", report)
    return report


def load_source_models(cfg, ckpt_dir):
    from .config import ConfigError

    ckpt_dir = Path(ckpt_dir)
    models = []
    for name in cfg.source_names:
        path = ckpt_dir / f"{name}.json"
        if not path.exists():
            raise FileNotFoundError(f"missing checkpoint {path}")
        models.append(load_checkpoint(path))
    arch = cfg.resolved_model()
    for m in models:
        if m.num_classes != arch.num_classes or m.feature_dim != arch.feature_dim:
            raise ConfigError(
                f"checkpoint '{m.domain}' incompatible with config: "
                f"K={m.num_classes}/d={m.feature_dim} vs "
                f"K={arch.num_classes}/d={arch.feature_dim}"
            )
    return models


def run_adapt(cfg, out, ckpt_dir=None):
    """Run every enabled method on the target; emit report, tables, metrics."""
    t0 = time.perf_counter()
    out = Path(out)
    # a malformed checkpoint fails before anything is written under out
    models = load_source_models(cfg, ckpt_dir or out / "checkpoints")
    (out / "metrics").mkdir(parents=True, exist_ok=True)
    config_mod.save(cfg, out / "config.yaml")
    seeds = resolved_seeds(cfg)
    # adaptation sees the unlabeled train split; accuracy is reported over the
    # whole target domain (labels exist only on the evaluation side)
    tgt_train, _ = _domain_split(cfg, cfg.target_spec)
    tgt_eval = generate_domain(cfg.target_spec)
    target = tgt_train.inputs_only()
    toggles = cfg.baselines

    uniform = np.full(len(models), 1.0 / len(models))
    unadapted = [accuracy([m], [1.0], tgt_eval) for m in models]
    per_source = [{"name": name, "unadapted_accuracy": acc}
                  for name, acc in zip(cfg.source_names, unadapted)]
    report = {
        "config": cfg.to_dict(),
        "resolved_seeds": seeds,
        "backend": kernels.active_backend(),
        "methods": {},
        "per_source": per_source,
        "uniform_ensemble_accuracy": accuracy(models, uniform, tgt_eval),
        "files": {},
    }
    methods = report["methods"]

    if toggles["source_best"]:
        methods["Source-best"] = max(unadapted)
    if toggles["source_worst"]:
        methods["Source-worst"] = min(unadapted)

    need_shot = toggles["shot_best"] or toggles["shot_worst"] or toggles["shot_ens"]
    if need_shot:
        shot_models, shot_accs = [], []
        for j, m in enumerate(models):
            res = adapt([m], target,
                        replace(cfg.adaptation, seed=seeds["shot_adapt"][j]), tgt_eval)
            shot_models.append(res.models[0])
            shot_accs.append(accuracy(res.models, res.alpha, tgt_eval))
        for entry, acc in zip(per_source, shot_accs):
            entry["single_adapted_accuracy"] = acc
        if toggles["shot_best"]:
            methods["SHOT-best"] = max(shot_accs)
        if toggles["shot_worst"]:
            methods["SHOT-worst"] = min(shot_accs)
        if toggles["shot_ens"]:
            methods["SHOT-Ens"] = soft_ensemble_accuracy(shot_models, tgt_eval)

    if toggles["weights_only"]:
        res = weights_only_adapt(
            models, target, replace(cfg.adaptation, seed=seeds["weights_only_adapt"]),
            tgt_eval,
        )
        methods["DECISION-weights"] = accuracy(res.models, res.alpha, tgt_eval)
        write_metrics_jsonl(out / "metrics" / "weights_only.jsonl", res.metrics)
        write_alpha_csv(out / "metrics" / "weights_only_alpha.csv", res.metrics)
        report["files"]["weights_only_metrics"] = "metrics/weights_only.jsonl"
        report["files"]["weights_only_alpha"] = "metrics/weights_only_alpha.csv"
        report["weights_only_alpha"] = [float(a) for a in res.alpha]

    decision_res = None
    if toggles["decision"] or toggles["distill"]:
        decision_res = adapt(
            models, target, replace(cfg.adaptation, seed=seeds["decision_adapt"]),
            tgt_eval,
        )
        methods["DECISION"] = accuracy(decision_res.models, decision_res.alpha, tgt_eval)
        write_metrics_jsonl(out / "metrics" / "decision.jsonl", decision_res.metrics)
        write_alpha_csv(out / "metrics" / "decision_alpha.csv", decision_res.metrics)
        report["files"]["decision_metrics"] = "metrics/decision.jsonl"
        report["files"]["decision_alpha"] = "metrics/decision_alpha.csv"
        report["alpha"] = [float(a) for a in decision_res.alpha]
        for entry, a in zip(per_source, decision_res.alpha):
            entry["alpha"] = float(a)
        adapted_dir = out / "adapted"
        adapted_dir.mkdir(exist_ok=True)
        for name, m in zip(cfg.source_names, decision_res.models):
            save_checkpoint(m, adapted_dir / f"{name}.json")
        _write_json(adapted_dir / "alpha.json",
                    {"alpha": [float(a) for a in decision_res.alpha]})

    if toggles["distill"]:
        teacher = TeacherView(decision_res.models, decision_res.alpha)
        student, agreement = train_student(
            teacher, target,
            SourceTrainConfig(epochs=cfg.distill_epochs, batch_size=cfg.adaptation.batch_size),
            seed=seeds["student"],
        )
        methods["DECISION-distill"] = accuracy([student], [1.0], tgt_eval)
        report["distill_agreement"] = agreement
        save_checkpoint(student, out / "student.json")

    if not toggles["decision"]:
        methods.pop("DECISION", None)

    report["wall_clock_sec"] = time.perf_counter() - t0
    _write_json(out / "report.json", report)
    with open(out / "accuracy.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "accuracy"])
        for name in METHOD_ORDER:
            if name in methods:
                writer.writerow([name, repr(methods[name])])
    return report


def run_distill(cfg, out, run_dir=None):
    """Standalone distillation from a completed adaptation run directory."""
    out = Path(out)
    run_dir = Path(run_dir or out)
    adapted_dir = run_dir / "adapted"
    if not adapted_dir.exists():
        raise FileNotFoundError(f"no adapted ensemble under {adapted_dir}")
    models = [load_checkpoint(adapted_dir / f"{name}.json") for name in cfg.source_names]
    alpha_path = adapted_dir / "alpha.json"
    try:  # validated before anything is written
        with open(alpha_path) as fh:
            alpha = np.asarray(json.load(fh)["alpha"], dtype=np.float64)
        if alpha.shape != (len(models),):
            raise ValueError(f"weights of shape {alpha.shape} for {len(models)} sources")
        teacher = TeacherView(models, alpha)
    except (KeyError, TypeError, ValueError) as exc:  # text that is not JSON: ValueError
        raise CheckpointError(f"{alpha_path}: not an ensemble weight file: {exc!r}") from None
    out.mkdir(parents=True, exist_ok=True)
    seeds = resolved_seeds(cfg)
    tgt_train, _ = _domain_split(cfg, cfg.target_spec)
    tgt_eval = generate_domain(cfg.target_spec)
    student, agreement = train_student(
        teacher, tgt_train.inputs_only(),
        SourceTrainConfig(epochs=cfg.distill_epochs, batch_size=cfg.adaptation.batch_size),
        seed=seeds["student"],
    )
    doc = {
        "teacher_accuracy": accuracy(models, teacher.alpha, tgt_eval),
        "student_accuracy": accuracy([student], [1.0], tgt_eval),
        "agreement": agreement,
    }
    save_checkpoint(student, out / "student.json")
    _write_json(out / "distill_report.json", doc)
    return doc


# -- aggregation ----------------------------------------------------------------

def _average_ranks(v):
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, group, counts = np.unique(np.asarray(v, dtype=np.float64),
                                 return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # rank of the last value in each group of ties
    return (last - (counts - 1) / 2.0)[group]


def spearman(a, b):
    """Rank correlation with average ranks for ties; 0 for degenerate inputs."""
    ra, rb = _average_ranks(a), _average_ranks(b)
    sa, sb = ra.std(), rb.std()
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float(np.mean((ra - ra.mean()) * (rb - rb.mean())) / (sa * sb))


def run_report(run_dirs, out):
    """Aggregate completed runs into CSV tables and plot-ready data."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    runs = []
    seen = set()
    for d in run_dirs:
        path = Path(d) / "report.json"
        if not path.exists():
            raise FileNotFoundError(f"missing run artifact {path}")
        name = Path(d).name if Path(d).name not in seen else str(d)
        seen.add(name)
        with open(path) as fh:
            runs.append((name, json.load(fh)))

    with open(out / "methods_accuracy.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "method", "accuracy"])
        for run_name, rep in runs:
            for method in METHOD_ORDER:
                if method in rep["methods"]:
                    writer.writerow([run_name, method, repr(rep["methods"][method])])

    correlations = {}
    with open(out / "alpha_vs_source_accuracy.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "source", "unadapted_accuracy", "alpha"])
        for run_name, rep in runs:
            pairs = [(e["unadapted_accuracy"], e["alpha"])
                     for e in rep["per_source"] if "alpha" in e]
            for entry in rep["per_source"]:
                if "alpha" in entry:
                    writer.writerow([run_name, entry["name"],
                                     repr(entry["unadapted_accuracy"]), repr(entry["alpha"])])
            if len(pairs) >= 2:
                correlations[run_name] = spearman(*zip(*pairs))

    lambdas = {}
    for run_name, rep in runs:
        lam = rep["config"]["adaptation"]["lambda_pl"]
        if "DECISION" in rep["methods"]:
            lambdas[run_name] = (lam, rep["methods"]["DECISION"])
    summary = {"runs": [name for name, _ in runs], "alpha_accuracy_spearman": correlations}
    if len({lam for lam, _ in lambdas.values()}) >= 2:
        rows = sorted(lambdas.values())
        with open(out / "lambda_sweep.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambda_pl", "decision_accuracy"])
            for lam, acc in rows:
                writer.writerow([repr(lam), repr(acc)])
        summary["lambda_sweep"] = "lambda_sweep.csv"
    _write_json(out / "report_summary.json", summary)
    return summary
