import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import decision
from decision import config as config_mod
from decision import runner
from decision.cli import main
from decision.config import ConfigError, moons_fixture
from decision.models import SourceModel, save_checkpoint


def small_config(seed=0, **adapt_overrides):
    """A fast miniature of the standard fixture for CLI-level tests."""
    doc = {
        "seed": seed,
        "sources": [
            {"name": "a", "kind": "two-moons", "n": 80, "seed": 11,
             "rotation_deg": 0.0, "noise_std": 0.15},
            {"name": "b", "kind": "two-moons", "n": 80, "seed": 12,
             "rotation_deg": 25.0, "noise_std": 0.15},
        ],
        "target": {"kind": "two-moons", "n": 80, "seed": 13,
                   "rotation_deg": 15.0, "noise_std": 0.15},
        "model": {"hidden_dim": 16, "feature_dim": 8},
        "source_training": {"epochs": 4, "batch_size": 16},
        "adaptation": {"epochs": 2, "batch_size": 16, **adapt_overrides},
        "distill": {"epochs": 3},
    }
    return doc


def write_config(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


# -- config parsing -----------------------------------------------------------

def test_config_roundtrip(tmp_path):
    cfg = moons_fixture(3)
    path = tmp_path / "fixture.yaml"
    config_mod.save(cfg, path)
    loaded = config_mod.load(path)
    assert loaded.seed == 3
    assert loaded.source_names == cfg.source_names
    assert loaded.source_specs == cfg.source_specs
    assert loaded.target_spec == cfg.target_spec
    assert loaded.adaptation == cfg.adaptation


def test_unknown_keys_are_rejected(tmp_path):
    doc = small_config()
    doc["adaptation"]["learning_rate"] = 0.1  # typo for lr_backbone
    with pytest.raises(ConfigError, match="learning_rate"):
        config_mod.from_dict(doc)
    doc2 = small_config()
    doc2["sources"][0]["rotation"] = 1.0
    with pytest.raises(ConfigError, match="rotation"):
        config_mod.from_dict(doc2)


def test_missing_target_is_named(tmp_path):
    doc = small_config()
    del doc["target"]
    with pytest.raises(ConfigError, match="target"):
        config_mod.from_dict(doc)


def test_empty_sources_rejected():
    doc = small_config()
    doc["sources"] = []
    with pytest.raises(ConfigError, match="sources"):
        config_mod.from_dict(doc)


def test_mixed_generator_kinds_rejected():
    doc = small_config()
    doc["target"]["kind"] = "gaussian-mixture"
    with pytest.raises(ConfigError, match="kind"):
        config_mod.from_dict(doc)


@pytest.mark.parametrize("key", ["batch_size", "lr"])
def test_unread_distill_keys_are_rejected(key):
    # the student trains with adaptation.batch_size and a fixed lr
    doc = small_config()
    doc["distill"][key] = 16
    with pytest.raises(ConfigError, match=key):
        config_mod.from_dict(doc)


@pytest.mark.parametrize("fraction", [-0.5, 0.0, 1.0, 1.5, float("nan")])
def test_eval_fraction_outside_open_unit_interval_rejected(fraction):
    doc = small_config()
    doc["eval_fraction"] = fraction
    with pytest.raises(ConfigError, match="eval_fraction"):
        config_mod.from_dict(doc)


@pytest.mark.parametrize("epochs", [0, -3])
def test_distill_epochs_below_one_rejected(epochs):
    doc = small_config()
    doc["distill"]["epochs"] = epochs
    with pytest.raises(ConfigError, match="distill"):
        config_mod.from_dict(doc)


def test_bad_distill_epochs_exit_before_adaptation_runs(tmp_path):
    doc = small_config()
    doc["distill"]["epochs"] = 0
    out = tmp_path / "o"
    assert main(["adapt", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_config_error_exit_code(tmp_path):
    doc = small_config()
    doc["nonsense"] = True
    path = write_config(tmp_path, doc)
    assert main(["train-sources", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command, section, key, value", [
    ("train-sources", "sources", "noise_std", float("inf")),
    ("train-sources", "sources", "rotation_deg", float("nan")),
    ("adapt", "target", "translation", [0.0, float("nan")]),
], ids=["noise-inf", "rotation-nan", "target-translation-nan"])
def test_non_finite_domain_parameter_exits_2_without_output(tmp_path, capsys, command,
                                                            section, key, value):
    doc = small_config()
    domain = doc["sources"][1] if section == "sources" else doc["target"]
    domain[key] = value
    out = tmp_path / "o"
    assert main([command, "--config", str(write_config(tmp_path, doc)),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "finite" in err
    assert not out.exists()


def _set(*path_and_value):
    """A config edit: sets doc[k1][k2]... = value."""
    *keys, last, value = path_and_value

    def apply(doc):
        for key in keys:
            doc = doc[key]
        doc[last] = value

    return apply


@pytest.mark.parametrize("command, edit, flags, message", [
    ("train-sources", _set("sources", 0, "translation", [0.5]), [], "translation"),
    ("adapt", _set("target", "translation", [0.1, 0.2, 0.3]), [], "translation"),
    ("train-sources", _set("seed", -1), [], "seed"),
    ("train-sources", _set("sources", 1, "seed", -4), [], "seed"),
    ("adapt", _set("target", "seed", -2), [], "seed"),
    ("train-sources", _set("seed", 0), ["--seed", "-3"], "seed"),
], ids=["one-number-translation", "three-number-translation", "negative-seed",
        "negative-source-seed", "negative-target-seed", "negative-seed-flag"])
def test_bad_translation_or_negative_seed_exits_2_without_output(tmp_path, capsys, command,
                                                                 edit, flags, message):
    doc = small_config()
    edit(doc)
    out = tmp_path / "o"
    assert main([command, "--config", str(write_config(tmp_path, doc)),
                 "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()


def test_source_with_an_empty_eval_split_is_a_config_error(tmp_path, capsys):
    doc = small_config()
    doc["sources"][1]["n"] = 5  # one evaluation row at eval_fraction 0.2
    config_mod.from_dict(doc)
    doc["sources"][1]["n"] = 4
    with pytest.raises(ConfigError, match="'b' has n = 4"):
        config_mod.from_dict(doc)
    out = tmp_path / "o"
    assert main(["train-sources", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(out)]) == 2
    assert "eval_fraction" in capsys.readouterr().err
    assert not out.exists()


def test_io_error_exit_code(tmp_path):
    path = write_config(tmp_path, small_config())
    rc = main(["adapt", "--config", str(path), "--out", str(tmp_path / "empty"),
               "--checkpoints", str(tmp_path / "absent")])
    assert rc == 3


def test_incompatible_checkpoints_exit_code(trained_run, tmp_path):
    tmp, _, out = trained_run
    doc = small_config()
    doc["model"]["feature_dim"] = 4  # disagrees with the trained checkpoints
    path = write_config(tmp_path, doc, "mismatch.yaml")
    rc = main(["adapt", "--config", str(path), "--out", str(tmp_path / "o"),
               "--checkpoints", str(out / "checkpoints")])
    assert rc == 2


def test_malformed_checkpoint_exit_code(trained_run, tmp_path):
    _, path, out = trained_run
    ckpts = tmp_path / "checkpoints"
    shutil.copytree(out / "checkpoints", ckpts)
    doc = json.loads((ckpts / "b.json").read_text())
    del doc["params"]["classifier.b"]
    (ckpts / "b.json").write_text(json.dumps(doc))
    run = tmp_path / "o"
    assert main(["adapt", "--config", str(path), "--out", str(run),
                 "--checkpoints", str(ckpts)]) == 3
    # the checkpoints are read before anything is written
    for name in ("report.json", "config.yaml", "metrics"):
        assert not (run / name).exists()


def test_nan_checkpoint_exits_3_before_writing(trained_run, tmp_path, capsys):
    _, path, out = trained_run
    ckpts = tmp_path / "checkpoints"
    shutil.copytree(out / "checkpoints", ckpts)
    doc = json.loads((ckpts / "a.json").read_text())
    doc["params"]["extractor.w1"]["values"][2] = float("nan")
    (ckpts / "a.json").write_text(json.dumps(doc))
    run = tmp_path / "o"
    assert main(["adapt", "--config", str(path), "--out", str(run),
                 "--checkpoints", str(ckpts)]) == 3
    assert "'extractor.w1' is not finite" in capsys.readouterr().err
    assert not run.exists()


# -- train-sources ---------------------------------------------------------------

def test_seed_flag_overrides_global_seed_but_not_domain_data(tmp_path):
    path = write_config(tmp_path, small_config(seed=0))
    out0, out7 = tmp_path / "s0", tmp_path / "s7"
    assert main(["train-sources", "--config", str(path), "--out", str(out0)]) == 0
    assert main(["train-sources", "--config", str(path), "--out", str(out7),
                 "--seed", "7"]) == 0
    a = (out0 / "checkpoints" / "a.json").read_bytes()
    b = (out7 / "checkpoints" / "a.json").read_bytes()
    assert a != b  # different init/shuffle seeds
    echo = yaml.safe_load((out7 / "config.yaml").read_text())
    assert echo["seed"] == 7
    assert echo["sources"][0]["seed"] == 11  # domain data seed untouched


def test_train_sources_writes_checkpoints_deterministically(tmp_path):
    path = write_config(tmp_path, small_config())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train-sources", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["train-sources", "--config", str(path), "--out", str(out2)]) == 0
    for name in ("a", "b"):
        f1 = (out1 / "checkpoints" / f"{name}.json").read_bytes()
        f2 = (out2 / "checkpoints" / f"{name}.json").read_bytes()
        assert f1 == f2
    report = json.loads((out1 / "source_report.json").read_text())
    assert set(report["sources"]) == {"a", "b"}


def test_train_sources_steps_each_size_group_together_as_if_alone(tmp_path, monkeypatch):
    doc = small_config()
    doc["sources"].insert(1, dict(doc["sources"][0], name="big", n=100, seed=14))
    cfg = config_mod.from_dict(doc)  # training sets of 64, 80 and 64 rows
    calls = []
    train = runner.train_source

    def recording(models, *args):
        calls.append([m.domain for m in models])
        return train(models, *args)

    monkeypatch.setattr(runner, "train_source", recording)
    out = tmp_path / "run"
    report = runner.run_train_sources(cfg, out)
    assert calls == [["a", "b"], ["big"]]
    seeds = runner.resolved_seeds(cfg)["model_init"]
    for i, (name, spec) in enumerate(zip(cfg.source_names, cfg.source_specs)):
        alone = SourceModel.init(name, cfg.resolved_model(), seeds[i],
                                 cfg.source_training.label_smoothing)
        (metrics,) = train(
            [alone], [runner._domain_split(cfg, spec)[0]], cfg.source_training, [seeds[i]])
        save_checkpoint(alone, tmp_path / f"{name}.json")
        assert (out / "checkpoints" / f"{name}.json").read_bytes() \
            == (tmp_path / f"{name}.json").read_bytes()
        assert report["sources"][name]["final_loss"] == metrics["epoch_losses"][-1]


# -- adapt -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    path = write_config(tmp, small_config())
    out = tmp / "out"
    assert main(["train-sources", "--config", str(path), "--out", str(out)]) == 0
    return tmp, path, out


def test_adapt_emits_report_tables_and_metrics(trained_run):
    tmp, path, out = trained_run
    assert main(["adapt", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    for method in ("Source-best", "Source-worst", "SHOT-best", "SHOT-worst",
                   "SHOT-Ens", "DECISION-weights", "DECISION", "DECISION-distill"):
        assert method in report["methods"]
    with open(out / "accuracy.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "accuracy"]
    assert [r[0] for r in rows[1:]] == [m for m in runner.METHOD_ORDER
                                        if m in report["methods"]]
    lines = (out / "metrics" / "decision.jsonl").read_text().splitlines()
    assert len(lines) == 2  # one per adaptation epoch
    row = json.loads(lines[0])
    assert list(row) == ["epoch", "L_ent", "L_div", "L_pl", "L_tot", "alpha",
                         "target_accuracy"]
    with open(out / "metrics" / "decision_alpha.csv") as fh:
        arows = list(csv.reader(fh))
    assert arows[0] == ["epoch", "alpha_1", "alpha_2"]
    assert len(arows) == 3
    assert abs(sum(float(v) for v in arows[-1][1:]) - 1.0) < 1e-9
    # every per-source entry pairs unadapted accuracy with a learned weight
    assert all({"name", "unadapted_accuracy", "alpha",
                "single_adapted_accuracy"} <= set(e) for e in report["per_source"])


def test_zero_epoch_adaptation_equals_uniform_unadapted_ensemble(tmp_path):
    doc = small_config()
    doc["adaptation"]["epochs"] = 0
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["train-sources", "--config", str(path), "--out", str(out)]) == 0
    assert main(["adapt", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["methods"]["DECISION"] == report["uniform_ensemble_accuracy"]
    np.testing.assert_allclose(report["alpha"], 0.5, atol=0.0)


def test_adapt_reports_are_reproducible_modulo_wall_clock(tmp_path):
    path = write_config(tmp_path, small_config())
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["train-sources", "--config", str(path), "--out", str(out)]) == 0
        assert main(["adapt", "--config", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        doc.pop("wall_clock_sec")
        outs.append(doc)
    assert outs[0] == outs[1]


def test_adapt_report_does_not_depend_on_blas_threads(tmp_path):
    # moons3p1-sized data: OpenBLAS may keep small matrices on one thread
    doc = yaml.safe_load((Path(__file__).parents[1] / "configs" / "moons3p1.yaml").read_text())
    for key in ("shot_best", "shot_worst", "shot_ens"):
        doc["baselines"][key] = False
    path = write_config(tmp_path, doc)
    ckpt = tmp_path / "sources"
    assert main(["train-sources", "--config", str(path), "--out", str(ckpt)]) == 0
    src = str(Path(decision.__file__).parents[1])
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "decision.cli", "adapt", "--config", str(path),
                        "--out", str(out), "--checkpoints", str(ckpt / "checkpoints")],
                       env=env, check=True, capture_output=True)
        doc = json.loads((out / "report.json").read_text())
        doc.pop("wall_clock_sec")
        reports.append(doc)
    assert reports[0] == reports[1]


def test_single_enabled_method_yields_single_row(tmp_path):
    doc = small_config()
    doc["baselines"] = {k: False for k in config_mod.BASELINE_KEYS}
    doc["baselines"]["decision"] = True
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["train-sources", "--config", str(path), "--out", str(out)]) == 0
    assert main(["adapt", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert list(report["methods"]) == ["DECISION"]


# -- distill -----------------------------------------------------------------------

def test_three_class_mixture_pipeline(tmp_path):
    doc = small_config()
    for domain in doc["sources"] + [doc["target"]]:
        domain["kind"] = "gaussian-mixture"
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["train-sources", "--config", str(path), "--out", str(out)]) == 0
    assert main(["adapt", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["methods"]["DECISION"] <= 1.0
    assert len(report["alpha"]) == 2
    row = json.loads((out / "metrics" / "decision.jsonl").read_text().splitlines()[0])
    assert len(row["alpha"]) == 2


def test_distill_only_toggle_keeps_decision_row_out(tmp_path):
    doc = small_config()
    doc["baselines"] = {k: k == "distill" for k in config_mod.BASELINE_KEYS}
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["train-sources", "--config", str(path), "--out", str(out)]) == 0
    assert main(["adapt", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert list(report["methods"]) == ["DECISION-distill"]
    assert (out / "adapted" / "alpha.json").exists()


def test_standalone_distill_from_run_dir(trained_run):
    tmp, path, out = trained_run
    dout = tmp / "distilled"
    assert main(["distill", "--config", str(path), "--out", str(dout),
                 "--run", str(out)]) == 0
    doc = json.loads((dout / "distill_report.json").read_text())
    assert {"teacher_accuracy", "student_accuracy", "agreement"} <= set(doc)
    assert (dout / "student.json").exists()


def test_standalone_distill_rejects_nan_alpha_before_writing(tmp_path):
    cfg = config_mod.from_dict(small_config())
    adapted = tmp_path / "run" / "adapted"
    adapted.mkdir(parents=True)
    for name in cfg.source_names:
        save_checkpoint(SourceModel.init(name, cfg.resolved_model(), seed=0),
                        adapted / f"{name}.json")
    (adapted / "alpha.json").write_text(json.dumps({"alpha": [float("nan")] * 2}))
    out = tmp_path / "distilled"
    with pytest.raises(ValueError, match="simplex"):
        runner.run_distill(cfg, out, tmp_path / "run")
    assert not out.exists()


@pytest.mark.parametrize("text", [
    '{"alpha": [0.5, 0.5',
    '{"weights": [0.5, 0.5]}',
    '{"alpha": [0.5, 0.25, 0.25]}',
    '{"alpha": [0.7, 0.7]}',
], ids=["not-json", "no-alpha-key", "wrong-length", "off-simplex"])
def test_standalone_distill_malformed_alpha_exit_code(tmp_path, capsys, text):
    cfg_path = write_config(tmp_path, small_config())
    cfg = config_mod.load(cfg_path)
    adapted = tmp_path / "run" / "adapted"
    adapted.mkdir(parents=True)
    for name in cfg.source_names:
        save_checkpoint(SourceModel.init(name, cfg.resolved_model(), seed=0),
                        adapted / f"{name}.json")
    (adapted / "alpha.json").write_text(text)
    out = tmp_path / "distilled"
    assert main(["distill", "--config", str(cfg_path), "--out", str(out),
                 "--run", str(tmp_path / "run")]) == 3
    assert "alpha.json" in capsys.readouterr().err
    assert not out.exists()


# -- oracle ------------------------------------------------------------------------

def test_oracle_zero_trials_exits_clean(tmp_path):
    out = tmp_path / "oracle"
    assert main(["oracle", "--out", str(out), "--trials", "0"]) == 0
    doc = json.loads((out / "oracle_report.json").read_text())
    assert doc["trials"] == 0 and doc["violations"] == []
    assert doc["max_slack_used"] is None


def test_oracle_negative_trials_exits_2_without_a_report(tmp_path, capsys):
    out = tmp_path / "oracle"
    assert main(["oracle", "--out", str(out), "--trials", "-5"]) == 2
    assert "trials must be >= 0" in capsys.readouterr().err
    assert not (out / "oracle_report.json").exists()


def test_oracle_small_run_exits_clean(tmp_path):
    out = tmp_path / "oracle"
    assert main(["oracle", "--out", str(out), "--trials", "50", "--seed", "0"]) == 0
    doc = json.loads((out / "oracle_report.json").read_text())
    assert doc["violations"] == [] and doc["strict_cases_checked"] > 0


def test_oracle_detects_injected_corruption(tmp_path, monkeypatch):
    monkeypatch.setenv("DECISION_ORACLE_CORRUPT", "1")
    out = tmp_path / "oracle"
    assert main(["oracle", "--out", str(out), "--trials", "20"]) == 1
    doc = json.loads((out / "oracle_report.json").read_text())
    assert len(doc["violations"]) > 0


# -- report ------------------------------------------------------------------------

def test_report_aggregates_runs_and_lambda_sweep(trained_run, tmp_path):
    tmp, path, out = trained_run
    # lambda sweep: reuse the trained checkpoints, adapt once per lambda value
    sweep_dirs = []
    for lam in (0.0, 0.1, 1.0):
        doc = small_config(lambda_pl=lam)
        cfg_path = write_config(tmp_path, doc, f"cfg_{lam}.yaml")
        sweep_out = tmp_path / f"sweep_{lam}"
        assert main(["adapt", "--config", str(cfg_path), "--out", str(sweep_out),
                     "--checkpoints", str(out / "checkpoints")]) == 0
        sweep_dirs.append(sweep_out)
    rout = tmp_path / "report"
    runs = [str(out)] + [str(d) for d in sweep_dirs]
    assert main(["report", *runs, "--out", str(rout)]) == 0
    with open(rout / "methods_accuracy.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run", "method", "accuracy"]
    assert len({r[0] for r in rows[1:]}) == 4
    with open(rout / "alpha_vs_source_accuracy.csv") as fh:
        arows = list(csv.reader(fh))
    assert arows[0] == ["run", "source", "unadapted_accuracy", "alpha"]
    assert len(arows) == 1 + 4 * 2  # two sources per run
    with open(rout / "lambda_sweep.csv") as fh:
        srows = list(csv.reader(fh))
    assert srows[0] == ["lambda_pl", "decision_accuracy"]
    assert [float(r[0]) for r in srows[1:]] == [0.0, 0.1, 0.3, 1.0]  # 4-row sweep
    summary = json.loads((rout / "report_summary.json").read_text())
    assert len(summary["alpha_accuracy_spearman"]) == 4


def test_report_missing_artifacts_exit_code(tmp_path):
    assert main(["report", str(tmp_path / "nothing"), "--out", str(tmp_path / "r")]) == 3


def _loop_average_ranks(v):
    """Average ranks by walking each run of ties in sorted order."""
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v))
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def test_average_ranks_equal_the_tie_walking_loop():
    rng = np.random.default_rng(7)
    for _ in range(300):
        v = rng.integers(0, int(rng.integers(1, 6)), int(rng.integers(1, 13))) / 4.0
        np.testing.assert_array_equal(runner._average_ranks(v), _loop_average_ranks(v))


def test_spearman_handles_ties_and_degenerate_inputs():
    assert runner.spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert runner.spearman([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)
    assert runner.spearman([1, 1, 1], [1, 2, 3]) == 0.0
    assert runner.spearman([1, 2, 2, 3], [1, 2, 2, 3]) == pytest.approx(1.0)
