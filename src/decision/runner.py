"""Experiment orchestration behind the CLI subcommands.

A run directory is self-describing: the resolved config echo, checkpoints,
per-epoch metrics (JSON lines), alpha trajectories (CSV), and a report.json
holding every headline number. Aggregation (`run_report`) only reads those
artifacts; nothing is recomputed.

`run_adapt` runs each method once when any accuracy row that needs it is
enabled in the config's `baselines`, and writes the enabled rows in
`METHOD_ORDER`. Every checkpoint a command reads goes through
`_check_sizes` (the sources through `load_source_models`), which rejects one
whose sizes differ from the config's model before anything is written.
"""

import contextlib
import csv
import hashlib
import json
import math
import time
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import kernels
from .adaptation import adapt, soft_ensemble_predict, weights_only_adapt
from .autodiff import DivergenceError
from .config import METHOD_KEYS, ConfigError
from .data import generate_domain, split_train_eval
from .distill import TeacherView, teacher_label, train_student
from .models import (CheckpointError, SourceModel, SourceTrainConfig, accuracy,
                     argmax_accuracy, load_checkpoint, save_checkpoint, source_logits,
                     train_source, weighted_logits)

METHOD_ORDER = tuple(METHOD_KEYS)
# the report.json key of the student ``run_adapt`` trained: the sha256 of
# student.json and of each teacher file, by path relative to the run directory
STUDENT_PROVENANCE = "student_provenance"


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
    """A generated domain's seeded (train, eval) split, and the whole domain."""
    domain = generate_domain(spec)
    return (*split_train_eval(domain, cfg.eval_fraction, seed=spec.seed + 1), domain)


def _target(cfg):
    """The unlabeled train split adaptation sees, and the whole labeled target
    domain that accuracy is reported over."""
    train, _, domain = _domain_split(cfg, cfg.target_spec)
    return train.inputs_only(), domain


@contextlib.contextmanager
def _method(name):
    """Prefix a DivergenceError raised inside with the method that diverged."""
    try:
        yield
    except DivergenceError as exc:
        raise DivergenceError(f"{name}: {exc}") from exc


def _student(cfg, teacher, target):
    """The distillation student of ``teacher`` on ``target``, with its agreement."""
    with _method("DECISION-distill"):
        return train_student(
            teacher, target,
            SourceTrainConfig(epochs=cfg.distill_epochs, batch_size=cfg.adaptation.batch_size),
            seed=resolved_seeds(cfg)["student"],
        )


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _write_json(path, doc):
    """Write ``doc`` as indented JSON; return the sha256 of the bytes written."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return _sha256(text.encode())


def write_metrics_jsonl(path, metrics):
    with open(path, "w") as fh:
        for row in metrics:
            fh.write(json.dumps(row) + "\n")


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
    splits = [_domain_split(cfg, spec)[:2] for spec in cfg.source_specs]
    models = [SourceModel.init(name, arch, seed)
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
    """One model per source, in config order, from ``<ckpt_dir>/<name>.json``.

    A missing file raises FileNotFoundError, a file that is not a model
    CheckpointError, and a model whose sizes (input, hidden, feature, classes)
    differ from the config's model ConfigError naming the file and both sizes.
    """
    ckpt_dir = Path(ckpt_dir)
    models = []
    for name in cfg.source_names:
        path = ckpt_dir / f"{name}.json"
        if not path.exists():
            raise FileNotFoundError(f"missing checkpoint {path}")
        models.append(_check_sizes(cfg, load_checkpoint(path), path))
    return models


def _check_sizes(cfg, model, path):
    """``model``, read from ``path``, if its sizes are the config's model's."""
    sizes = astuple(cfg.resolved_model())  # ModelConfig's fields are SourceModel.dims
    if model.dims != sizes:
        raise ConfigError(f"checkpoint {path} has sizes {model.dims} (input, hidden, "
                          f"feature, classes), but the config's model is {sizes}")
    return model


def _scores(models, labeled, ensemble):
    """Each model's accuracy on ``labeled``, and the accuracy of the class
    scores ``ensemble`` makes of their stacked logits: one forward per model."""
    logits = source_logits(models, labeled.x)
    return ([argmax_accuracy(z, labeled.y) for z in logits],
            argmax_accuracy(ensemble(logits), labeled.y))


def _write_trajectory(out, report, stem, metrics):
    """Write a joint run's per-epoch rows and alpha trajectory; list both files."""
    files = report["files"]
    files[f"{stem}_metrics"] = f"metrics/{stem}.jsonl"
    files[f"{stem}_alpha"] = f"metrics/{stem}_alpha.csv"
    write_metrics_jsonl(out / files[f"{stem}_metrics"], metrics)
    write_alpha_csv(out / files[f"{stem}_alpha"], metrics)


def run_adapt(cfg, out, ckpt_dir=None):
    """Run every method an enabled row needs on the target; emit report, tables,
    metrics. A row's value does not depend on which other rows are enabled."""
    t0 = time.perf_counter()
    out = Path(out)
    # a malformed checkpoint fails before anything is written under out
    models = load_source_models(cfg, ckpt_dir or out / "checkpoints")
    (out / "metrics").mkdir(parents=True, exist_ok=True)
    config_mod.save(cfg, out / "config.yaml")
    seeds = resolved_seeds(cfg)
    target, tgt_eval = _target(cfg)
    enabled = [row for row, key in METHOD_KEYS.items() if cfg.baselines[key]]

    uniform = np.full(len(models), 1.0 / len(models))
    unadapted, uniform_accuracy = _scores(models, tgt_eval,
                                          lambda logits: weighted_logits(uniform, logits))
    per_source = [{"name": name, "unadapted_accuracy": acc}
                  for name, acc in zip(cfg.source_names, unadapted)]
    report = {
        "config": cfg.to_dict(),
        "resolved_seeds": seeds,
        "backend": kernels.active_backend(),
        "per_source": per_source,
        "uniform_ensemble_accuracy": uniform_accuracy,
        "files": {},
    }
    found = {"Source-best": max(unadapted), "Source-worst": min(unadapted)}

    if {"SHOT-best", "SHOT-worst", "SHOT-Ens"}.intersection(enabled):
        shot_models = []
        for name, m, seed in zip(cfg.source_names, models, seeds["shot_adapt"]):
            with _method(f"SHOT {name}"):  # no eval_set: its per-epoch rows go unwritten
                res = adapt([m], target, replace(cfg.adaptation, seed=seed))
            shot_models.append(res.models[0])  # alpha [1.0]: the model's own logits
        shot_accs, found["SHOT-Ens"] = _scores(shot_models, tgt_eval, soft_ensemble_predict)
        for entry, acc in zip(per_source, shot_accs):
            entry["single_adapted_accuracy"] = acc
        found.update({"SHOT-best": max(shot_accs), "SHOT-worst": min(shot_accs)})

    if "DECISION-weights" in enabled:
        with _method("DECISION-weights"):
            res = weights_only_adapt(
                models, target, replace(cfg.adaptation, seed=seeds["weights_only_adapt"]),
                tgt_eval,
            )
        found["DECISION-weights"] = accuracy(res.models, res.alpha, tgt_eval)
        _write_trajectory(out, report, "weights_only", res.metrics)
        report["weights_only_alpha"] = [float(a) for a in res.alpha]

    if {"DECISION", "DECISION-distill"}.intersection(enabled):
        with _method("DECISION"):
            res = adapt(
                models, target, replace(cfg.adaptation, seed=seeds["decision_adapt"]),
                tgt_eval,
            )
        found["DECISION"] = accuracy(res.models, res.alpha, tgt_eval)
        _write_trajectory(out, report, "decision", res.metrics)
        report["alpha"] = [float(a) for a in res.alpha]
        for entry, a in zip(per_source, report["alpha"]):
            entry["alpha"] = a
        (out / "adapted").mkdir(exist_ok=True)
        digests = {rel: save_checkpoint(m, out / rel)
                   for rel, m in zip(_teacher_files(cfg), res.models)}
        digests["adapted/alpha.json"] = _write_json(out / "adapted" / "alpha.json",
                                                    {"alpha": report["alpha"]})
        if "DECISION-distill" in enabled:
            student, report["distill_agreement"] = _student(
                cfg, TeacherView(res.models, res.alpha), target)
            found["DECISION-distill"] = accuracy([student], [1.0], tgt_eval)
            digests["student.json"] = save_checkpoint(student, out / "student.json")
            report[STUDENT_PROVENANCE] = digests

    report["methods"] = {row: found[row] for row in enabled}
    report["wall_clock_sec"] = time.perf_counter() - t0
    _write_json(out / "report.json", report)
    with open(out / "accuracy.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "accuracy"])
        writer.writerows([row, repr(acc)] for row, acc in report["methods"].items())
    return report


def _teacher_files(cfg):
    """The adapted checkpoints of ``cfg``'s sources, relative to a run directory."""
    return [f"adapted/{name}.json" for name in cfg.source_names]


def _adapted_student(cfg, run_dir):
    """(recorded, data) of the student that run's ``adapt`` trained:
    ``recorded`` tells whether ``<run_dir>/report.json`` records one
    (``STUDENT_PROVENANCE``), and ``data`` is the bytes of
    ``<run_dir>/student.json`` if that student serves ``cfg`` and this
    teacher: the report records ``cfg`` and digests that the student and
    every teacher file still match. Else None, whatever is missing,
    unreadable or differs."""
    try:
        report = json.loads((run_dir / "report.json").read_bytes())
        recorded = report[STUDENT_PROVENANCE]
    except (OSError, KeyError, TypeError, ValueError):  # text that is not JSON: ValueError
        return False, None
    try:
        data = (run_dir / "student.json").read_bytes()
        found = {rel: _sha256((run_dir / rel).read_bytes())
                 for rel in _teacher_files(cfg) + ["adapted/alpha.json"]}
    except OSError:
        return True, None
    found["student.json"] = _sha256(data)
    return True, (data if found == recorded and report.get("config") == cfg.to_dict() else None)


def run_distill(cfg, out, run_dir=None):
    """Standalone distillation from a completed adaptation run directory.

    The run's own student is reused, not retrained, when ``_adapted_student``
    vouches for it; the report's three numbers are computed either way. A
    student that would be retrained into the run directory over the one its
    report.json records (``STUDENT_PROVENANCE``) raises ConfigError before
    anything is written: the report would no longer describe it.
    """
    out = Path(out)
    run_dir = Path(run_dir or out)
    adapted_dir = run_dir / "adapted"
    if not adapted_dir.exists():
        raise FileNotFoundError(f"no adapted ensemble under {adapted_dir}")
    models = load_source_models(cfg, adapted_dir)
    alpha_path = adapted_dir / "alpha.json"
    try:  # validated before anything is written
        with open(alpha_path) as fh:
            teacher = TeacherView(models, json.load(fh)["alpha"])
    except (KeyError, TypeError, ValueError) as exc:  # text that is not JSON: ValueError
        raise CheckpointError(f"{alpha_path}: not an ensemble weight file: {exc!r}") from None
    (recorded, data), path = _adapted_student(cfg, run_dir), run_dir / "student.json"
    student = None if data is None else _check_sizes(cfg, load_checkpoint(path, data), path)
    if student is None and recorded and out.resolve() == run_dir.resolve():
        raise ConfigError(f"{path} is the student {run_dir / 'report.json'} records, and "
                          f"this config cannot reuse it; distill into another --out")
    out.mkdir(parents=True, exist_ok=True)
    target, tgt_eval = _target(cfg)
    if student is None:
        student, agreed = _student(cfg, teacher, target)
        save_checkpoint(student, out / "student.json")
    else:
        with _method("DECISION-distill"):
            agreed = argmax_accuracy(student.logits(target.x),
                                     teacher_label(teacher, target.x))
        (out / "student.json").write_bytes(data)  # no file copy: out may be run_dir
    doc = {
        "teacher_accuracy": accuracy(models, teacher.alpha, tgt_eval),
        "student_accuracy": accuracy([student], [1.0], tgt_eval),
        "agreement": agreed,
    }
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


class ReportError(ValueError):
    """A run's report.json that ``run_report`` cannot read; names the file."""


def _read_report(path):
    """What ``run_report`` reads of one run's report.json: the accuracy rows in
    METHOD_ORDER, (name, unadapted accuracy, alpha) of every weighted source,
    and lambda_pl. A file that is not JSON, lacks one of these keys, or holds
    anything but a finite number (a bool is not one) in one of these values
    raises ReportError."""
    try:
        with open(path) as fh:
            rep = json.load(fh)
        methods = {row: rep["methods"][row] for row in METHOD_ORDER if row in rep["methods"]}
        weighted = [(e["name"], e["unadapted_accuracy"], e["alpha"])
                    for e in rep["per_source"] if "alpha" in e]
        lam = rep["config"]["adaptation"]["lambda_pl"]
    except (KeyError, TypeError, ValueError) as exc:  # text that is not JSON: ValueError
        raise ReportError(f"{path}: not a run report: {exc!r}") from None
    values = [(f"methods.{row}", acc) for row, acc in methods.items()]
    for name, unadapted, alpha in weighted:
        values += [(f"{name}.unadapted_accuracy", unadapted), (f"{name}.alpha", alpha)]
    for key, value in values + [("lambda_pl", lam)]:
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise ReportError(f"{path}: not a run report: {key} is {value!r}, not a number")
    return methods, weighted, lam


def run_report(run_dirs, out):
    """Aggregate completed runs into CSV tables and plot-ready data. Every
    report is read and checked before ``out`` is created."""
    runs = []
    seen = set()
    for d in run_dirs:
        path = Path(d) / "report.json"
        if not path.exists():
            raise FileNotFoundError(f"missing run artifact {path}")
        name = Path(d).name if Path(d).name not in seen else str(d)
        seen.add(name)
        runs.append((name, *_read_report(path)))
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "methods_accuracy.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "method", "accuracy"])
        for run_name, methods, _, _ in runs:
            writer.writerows([run_name, method, repr(acc)] for method, acc in methods.items())

    correlations = {}
    with open(out / "alpha_vs_source_accuracy.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "source", "unadapted_accuracy", "alpha"])
        for run_name, _, weighted, _ in runs:
            for source, unadapted, alpha in weighted:
                writer.writerow([run_name, source, repr(unadapted), repr(alpha)])
            if len(weighted) >= 2:
                correlations[run_name] = spearman(*zip(*(w[1:] for w in weighted)))

    lambdas = {run_name: (lam, methods["DECISION"])
               for run_name, methods, _, lam in runs if "DECISION" in methods}
    summary = {"runs": [name for name, *_ in runs], "alpha_accuracy_spearman": correlations}
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
