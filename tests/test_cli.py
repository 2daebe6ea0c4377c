import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import decision
from decision import config as config_mod
from decision import models as models_mod
from decision import runner
from decision.cli import main
from decision.config import ConfigError, moons_fixture
from decision.data import DomainSpec
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
        "source_training": {"epochs": 20, "batch_size": 16},
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


def test_shipped_moons_config_is_the_seed_0_fixture():
    # the acceptance fixtures build moons_fixture(0); the benchmark's base
    # config is the shipped file, so the two must not drift apart
    shipped = Path(__file__).parents[1] / "configs" / "moons3p1.yaml"
    assert config_mod.load(shipped) == moons_fixture(0)


def test_domain_defaults_are_domain_spec_defaults():
    doc = small_config()
    doc["target"] = {"kind": "two-moons", "n": 80, "seed": 13}
    assert config_mod.from_dict(doc).target_spec == DomainSpec("two-moons", 80, 13)


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
    # integer fields take YAML integers only: no truncation, no booleans
    ("train-sources", _set("adaptation", "batch_size", 16.5), [], "batch_size"),
    ("adapt", _set("seed", 2.7), [], "seed must be an integer"),
    ("train-sources", _set("sources", 0, "n", 80.9), [], "n must be an integer"),
    ("adapt", _set("distill", "epochs", 1.9), [], "distill.epochs"),
    ("train-sources", _set("model", "hidden_dim", True), [], "hidden_dim"),
    # optimizer settings are checked at load, not at the first step
    ("train-sources", _set("source_training", "batch_size", 0), [], "batch size"),
    ("train-sources", _set("source_training", "lr", 0), [], "lr must be > 0"),
    ("adapt", _set("adaptation", "lr_backbone", 0), [], "lr_backbone"),
    ("adapt", _set("adaptation", "lr_alpha", 0), [], "lr_alpha"),
    ("train-sources", _set("source_training", "momentum", 1.0), [], "momentum"),
    ("adapt", _set("adaptation", "momentum", 1.0), [], "momentum"),
    ("train-sources", _set("source_training", "weight_decay", -1), [], "weight_decay"),
    ("adapt", _set("adaptation", "weight_decay", -1), [], "weight_decay"),
    # ... and finite, as lambda_pl must be
    ("train-sources", _set("source_training", "lr", float("inf")), [], "lr must be > 0"),
    ("train-sources", _set("source_training", "weight_decay", float("inf")), [],
     "weight_decay"),
    ("adapt", _set("adaptation", "lr_backbone", float("inf")), [], "lr_backbone"),
    ("adapt", _set("adaptation", "lr_alpha", float("inf")), [], "lr_alpha"),
    ("adapt", _set("adaptation", "weight_decay", float("inf")), [], "weight_decay"),
    ("adapt", _set("adaptation", "lambda_pl", float("nan")), [], "lambda_pl"),
    ("adapt", _set("adaptation", "lambda_pl", float("inf")), [], "lambda_pl"),
    # float fields take YAML integers and floats: no booleans, no strings
    ("adapt", _set("adaptation", "lr_alpha", True), [], "lr_alpha must be a number"),
    ("train-sources", _set("source_training", "label_smoothing", False), [],
     "label_smoothing must be a number"),
    ("train-sources", _set("sources", 0, "noise_std", True), [], "noise_std must be a number"),
    ("train-sources", _set("eval_fraction", "0.2"), [], "eval_fraction must be a number"),
    ("adapt", _set("target", "rotation_deg", "20"), [], "rotation_deg must be a number"),
    ("train-sources", _set("sources", 1, "translation", [True, 0.0]), [],
     "translation must be a number"),
], ids=["one-number-translation", "three-number-translation", "negative-seed",
        "negative-source-seed", "negative-target-seed", "negative-seed-flag",
        "float-batch-size", "float-seed", "float-n", "float-distill-epochs",
        "boolean-hidden-dim", "zero-source-batch-size", "zero-source-lr",
        "zero-lr-backbone", "zero-lr-alpha", "source-momentum-one", "adapt-momentum-one",
        "negative-source-weight-decay", "negative-adapt-weight-decay", "inf-source-lr",
        "inf-source-weight-decay", "inf-lr-backbone", "inf-lr-alpha", "inf-adapt-weight-decay",
        "nan-lambda-pl", "inf-lambda-pl", "boolean-lr-alpha",
        "boolean-label-smoothing", "boolean-noise-std", "string-eval-fraction",
        "string-rotation", "boolean-translation-entry"])
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


def test_v1_checkpoint_exits_3_naming_its_version(trained_run, tmp_path, capsys):
    # v1 files carried a label-smoothing setting that nothing read
    _, path, out = trained_run
    ckpts = tmp_path / "checkpoints"
    shutil.copytree(out / "checkpoints", ckpts)
    doc = json.loads((ckpts / "a.json").read_text())
    doc.update(version="decision-ckpt-v1", label_smoothing=0.1)
    (ckpts / "a.json").write_text(json.dumps(doc))
    assert main(["adapt", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--checkpoints", str(ckpts)]) == 3
    assert "unsupported checkpoint version 'decision-ckpt-v1'" in capsys.readouterr().err


def test_adapt_rejects_a_checkpoint_of_another_hidden_dim_before_writing(trained_run, tmp_path,
                                                                         capsys):
    _, path, out = trained_run
    ckpts = tmp_path / "checkpoints"
    shutil.copytree(out / "checkpoints", ckpts)
    arch = config_mod.load(path).resolved_model()  # hidden_dim 16
    save_checkpoint(SourceModel.init("b", replace(arch, hidden_dim=32), seed=0), ckpts / "b.json")
    run = tmp_path / "o"
    assert main(["adapt", "--config", str(path), "--out", str(run),
                 "--checkpoints", str(ckpts)]) == 2
    err = capsys.readouterr().err
    assert str(ckpts / "b.json") in err
    assert "(2, 32, 8, 2)" in err and "(2, 16, 8, 2)" in err
    assert not run.exists()  # no config.yaml, metrics/ or report.json


def test_distill_rejects_an_adapted_checkpoint_of_another_feature_dim_before_writing(
        tmp_path, capsys):
    cfg_path = write_config(tmp_path, small_config())
    arch = config_mod.load(cfg_path).resolved_model()  # feature_dim 8
    adapted = tmp_path / "run" / "adapted"
    adapted.mkdir(parents=True)
    save_checkpoint(SourceModel.init("a", arch, seed=0), adapted / "a.json")
    save_checkpoint(SourceModel.init("b", replace(arch, feature_dim=4), seed=0),
                    adapted / "b.json")
    (adapted / "alpha.json").write_text(json.dumps({"alpha": [0.5, 0.5]}))
    out = tmp_path / "distilled"
    assert main(["distill", "--config", str(cfg_path), "--out", str(out),
                 "--run", str(tmp_path / "run")]) == 2
    assert str(adapted / "b.json") in capsys.readouterr().err
    assert not out.exists()


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
        alone = SourceModel.init(name, cfg.resolved_model(), seeds[i])
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
    # the two sources are told apart, and each beats chance on the target
    assert report["methods"]["Source-best"] > report["methods"]["Source-worst"] > 0.5


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


def test_divergence_exits_4_naming_epoch_step_source_and_value(tmp_path):
    # the standard fixture at a backbone lr of 1e6 overflows within 3 epochs
    doc = yaml.safe_load((Path(__file__).parents[1] / "configs" / "moons3p1.yaml").read_text())
    for key in ("shot_best", "shot_worst", "shot_ens"):
        doc["baselines"][key] = False
    doc["adaptation"].update(lr_backbone=1e6, epochs=3)
    path = write_config(tmp_path, doc)
    assert main(["train-sources", "--config", str(path), "--out", str(tmp_path)]) == 0
    src = str(Path(decision.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "decision.cli", "adapt", "--config", str(path),
                           "--out", str(tmp_path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    # weights-only trains no extractor, so DECISION is the first method to
    # diverge; epoch 1's steps overflow the extractors, and epoch 2's pseudo-label
    # refresh is the first to see it, with numpy's warnings silenced there
    assert proc.stderr == ("divergence: DECISION: epoch 2, refresh: "
                           "pseudo-label distances not finite\n")


def test_a_row_does_not_depend_on_which_other_rows_are_enabled(trained_run, tmp_path):
    _, _, out = trained_run
    runs = {  # enabled baselines keys -> the rows accuracy.csv lists, in order
        config_mod.BASELINE_KEYS: list(runner.METHOD_ORDER),
        ("decision",): ["DECISION"],
        ("distill",): ["DECISION-distill"],
        ("shot_ens", "weights_only"): ["SHOT-Ens", "DECISION-weights"],
    }
    all_on = None  # the all-rows run's report
    for i, (keys, rows) in enumerate(runs.items()):
        doc = small_config()
        doc["baselines"] = {k: k in keys for k in config_mod.BASELINE_KEYS}
        run = tmp_path / f"run{i}"
        assert main(["adapt", "--config", str(write_config(tmp_path, doc, f"cfg{i}.yaml")),
                     "--out", str(run), "--checkpoints", str(out / "checkpoints")]) == 0
        report = json.loads((run / "report.json").read_text())
        all_on = all_on or report
        methods = report["methods"]
        assert methods == {row: all_on["methods"][row] for row in rows}
        for key in ("alpha", "weights_only_alpha", "distill_agreement"):  # finer than accuracy
            assert report.get(key, all_on[key]) == all_on[key]
        with open(run / "accuracy.csv") as fh:
            table = [(r[0], float(r[1])) for r in list(csv.reader(fh))[1:]]
        assert table == [(row, methods[row]) for row in rows]
        decision_ran = "decision" in keys or "distill" in keys
        assert (run / "metrics" / "decision.jsonl").exists() == decision_ran
        assert (run / "adapted" / "alpha.json").exists() == decision_ran


def test_adapt_forwards_the_eval_rows_once_per_source_and_fixed_state(trained_run, tmp_path,
                                                                       monkeypatch):
    # the unadapted sources, before the first SHOT run, and the SHOT models,
    # after the last: each state's per-source and ensemble rows come from one
    # forward per source
    _, _, trained = trained_run
    doc = small_config()
    doc["baselines"] = {k: k.startswith(("source", "shot")) for k in config_mod.BASELINE_KEYS}
    events, eval_x = [], []
    real_target, real_adapt, real_forward = runner._target, runner.adapt, models_mod.mlp_forward

    def target(cfg):
        out = real_target(cfg)
        eval_x.append(out[1].x)
        return out

    def forward(x, params):
        if eval_x and x is eval_x[0]:
            events.append("eval")
        return real_forward(x, params)

    def adapt(*args, **kwargs):  # only SHOT runs: DECISION's rows are off
        events.append("shot")
        return real_adapt(*args, **kwargs)

    monkeypatch.setattr(runner, "_target", target)
    monkeypatch.setattr(runner, "adapt", adapt)
    monkeypatch.setattr(models_mod, "mlp_forward", forward)
    assert main(["adapt", "--config", str(write_config(tmp_path, doc)), "--out",
                 str(tmp_path / "out"), "--checkpoints", str(trained / "checkpoints")]) == 0
    assert events == ["eval"] * 2 + ["shot"] * 2 + ["eval"] * 2


def test_single_enabled_method_yields_single_row(trained_run, tmp_path):
    _, _, trained = trained_run
    doc = small_config()
    doc["baselines"] = {k: False for k in config_mod.BASELINE_KEYS}
    doc["baselines"]["decision"] = True
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["adapt", "--config", str(path), "--out", str(out),
                 "--checkpoints", str(trained / "checkpoints")]) == 0
    report = json.loads((out / "report.json").read_text())
    assert list(report["methods"]) == ["DECISION"]


def test_distill_only_toggle_keeps_decision_row_out(trained_run, tmp_path):
    _, _, trained = trained_run
    doc = small_config()
    doc["baselines"] = {k: k == "distill" for k in config_mod.BASELINE_KEYS}
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["adapt", "--config", str(path), "--out", str(out),
                 "--checkpoints", str(trained / "checkpoints")]) == 0
    report = json.loads((out / "report.json").read_text())
    assert list(report["methods"]) == ["DECISION-distill"]
    assert (out / "adapted" / "alpha.json").exists()


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


def test_standalone_distill_from_run_dir(adapted_run, tmp_path):
    path, run = adapted_run
    dout = tmp_path / "distilled"
    assert main(["distill", "--config", str(path), "--out", str(dout),
                 "--run", str(run)]) == 0
    doc = json.loads((dout / "distill_report.json").read_text())
    assert {"teacher_accuracy", "student_accuracy", "agreement"} <= set(doc)
    assert (dout / "student.json").exists()


@pytest.fixture(scope="module")
def adapted_run(trained_run, tmp_path_factory):
    """(config path, run directory) of an ``adapt`` that trained the student."""
    _, path, trained = trained_run
    run = tmp_path_factory.mktemp("adapted") / "run"
    assert main(["adapt", "--config", str(path), "--out", str(run),
                 "--checkpoints", str(trained / "checkpoints")]) == 0
    return path, run


def _distill_counting_students(monkeypatch, path, out, run=None):
    """Run ``decision distill``; return how many students it trained."""
    trained = []
    real = runner.train_student
    monkeypatch.setattr(runner, "train_student",
                        lambda *args, **kwargs: trained.append(1) or real(*args, **kwargs))
    argv = ["distill", "--config", str(path), "--out", str(out)]
    assert main(argv + (["--run", str(run)] if run else [])) == 0
    return len(trained)


def test_adapt_records_the_digests_of_its_student_and_teacher(adapted_run):
    _, run = adapted_run
    recorded = json.loads((run / "report.json").read_text())[runner.STUDENT_PROVENANCE]
    files = ["adapted/a.json", "adapted/b.json", "adapted/alpha.json", "student.json"]
    assert recorded == {rel: hashlib.sha256((run / rel).read_bytes()).hexdigest()
                        for rel in files}


def test_distill_reuses_the_student_adapt_trained(adapted_run, tmp_path, monkeypatch):
    path, run = adapted_run
    reused, forced = tmp_path / "reused", tmp_path / "forced"
    assert _distill_counting_students(monkeypatch, path, reused, run) == 0
    shutil.copytree(run, forced)
    (forced / "report.json").unlink()
    assert _distill_counting_students(monkeypatch, path, forced / "out", forced) == 1
    for name in ("student.json", "distill_report.json"):
        assert (reused / name).read_bytes() == (forced / "out" / name).read_bytes()
    assert (reused / "student.json").read_bytes() == (run / "student.json").read_bytes()


def _rewrite_json(path, **dumps_kwargs):
    """Same values, other bytes."""
    path.write_text(json.dumps(json.loads(path.read_text()), **dumps_kwargs))


def _drop_provenance(run):
    doc = json.loads((run / "report.json").read_text())
    del doc[runner.STUDENT_PROVENANCE]
    (run / "report.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("change", [
    lambda run: _rewrite_json(run / "student.json", indent=1),
    lambda run: _rewrite_json(run / "adapted" / "alpha.json"),
    lambda run: _rewrite_json(run / "adapted" / "a.json", indent=1),
    lambda run: (run / "report.json").unlink(),
    _drop_provenance,
    None,  # a config whose distill.epochs differs from the run's
], ids=["student", "alpha", "adapted-source", "no-report", "no-provenance", "distill-epochs"])
def test_distill_trains_when_the_run_does_not_vouch_for_its_student(adapted_run, tmp_path,
                                                                   monkeypatch, change):
    path, run = adapted_run
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    if change is None:
        doc = small_config()
        doc["distill"]["epochs"] += 1
        path = write_config(tmp_path, doc)
    else:
        change(copy)
    out = tmp_path / "out"
    assert _distill_counting_students(monkeypatch, path, out, copy) == 1
    # the same config retrains the same student, whatever the copy's student holds
    same = (out / "student.json").read_bytes() == (run / "student.json").read_bytes()
    assert same == (change is not None)


def test_distill_into_its_own_run_directory_reuses_the_student(adapted_run, tmp_path,
                                                               monkeypatch):
    path, run = adapted_run
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    assert _distill_counting_students(monkeypatch, path, copy) == 0  # --out only: run is out
    assert (copy / "student.json").read_bytes() == (run / "student.json").read_bytes()
    assert (copy / "distill_report.json").exists()


def _files(root):
    """Every file under ``root``: relative path -> bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_distill_refuses_to_retrain_over_the_student_its_run_records(adapted_run, tmp_path,
                                                                    capsys, monkeypatch):
    # another distill.epochs cannot reuse the run's student; retraining into
    # the run directory would leave report.json describing the old one
    _, run = adapted_run
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    doc = small_config()
    doc["distill"]["epochs"] += 1
    path = write_config(tmp_path, doc)
    before = _files(copy)
    for run_arg in ([], ["--run", str(copy)]):
        assert main(["distill", "--config", str(path), "--out", str(copy)] + run_arg) == 2
        assert capsys.readouterr().err.startswith(f"config error: {copy / 'student.json'} ")
        assert _files(copy) == before
    _drop_provenance(copy)  # a run whose report records no student: retrained as before
    assert _distill_counting_students(monkeypatch, path, copy) == 1


@pytest.mark.parametrize("reuse", [False, True], ids=["trains", "reuses"])
def test_distill_from_a_teacher_whose_logits_overflow_exits_4_in_one_line(tmp_path, capsys,
                                                                          monkeypatch, reuse):
    # first-layer weights of 1e308 overflow on the target's rows. In-process,
    # so a numpy warning would raise under the suite's warnings-as-errors.
    cfg_path = write_config(tmp_path, small_config())
    cfg = config_mod.load(cfg_path)
    run = tmp_path / "run"
    (run / "adapted").mkdir(parents=True)
    for name in cfg.source_names:
        model = SourceModel.init(name, cfg.resolved_model(), seed=0)
        model.params[0][...] = 1e308
        save_checkpoint(model, run / "adapted" / f"{name}.json")
    (run / "adapted" / "alpha.json").write_text(json.dumps({"alpha": [0.5, 0.5]}))
    if reuse:  # a report that vouches for a student of the config's sizes
        monkeypatch.setattr(runner, "train_student", None)
        save_checkpoint(SourceModel.init("student", cfg.resolved_model(), seed=0),
                        run / "student.json")
        files = ["adapted/a.json", "adapted/b.json", "adapted/alpha.json", "student.json"]
        (run / "report.json").write_text(json.dumps({
            "config": cfg.to_dict(),
            runner.STUDENT_PROVENANCE: {rel: hashlib.sha256((run / rel).read_bytes()).hexdigest()
                                        for rel in files}}))
    assert main(["distill", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                 "--run", str(run)]) == 4
    assert capsys.readouterr().err == "divergence: DECISION-distill: teacher logits not finite\n"


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


@pytest.mark.parametrize("text", ["not json", "{}"], ids=["not-json", "no-methods-key"])
def test_report_on_a_malformed_report_exits_3_without_output(tmp_path, capsys, text):
    # the good run is read first: every report is checked before --out is made
    good, bad = tmp_path / "good", tmp_path / "bad"
    good.mkdir()
    bad.mkdir()
    (good / "report.json").write_text(json.dumps(
        {"methods": {"DECISION": 0.5}, "per_source": [],
         "config": {"adaptation": {"lambda_pl": 0.3}}}))
    (bad / "report.json").write_text(text)
    out = tmp_path / "agg"
    assert main(["report", str(good), str(bad), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"i/o error: {bad / 'report.json'}: ")
    assert err.count("\n") == 1
    assert not out.exists()
    assert main(["report", str(good), "--out", str(out)]) == 0  # the good run alone


@pytest.mark.parametrize("edit, named", [
    (lambda rep: [source.update(unadapted_accuracy=value)
                  for source, value in zip(rep["per_source"], "xy")],
     "a.unadapted_accuracy is 'x'"),
    (_set("per_source", 1, "alpha", None), "b.alpha is None"),
    (_set("methods", "DECISION", True), "methods.DECISION is True"),
    (_set("config", "adaptation", "lambda_pl", "0.3"), "lambda_pl is '0.3'"),
    (_set("methods", "SHOT-Ens", float("nan")), "methods.SHOT-Ens is nan"),
], ids=["string-unadapted-accuracies", "null-alpha", "boolean-accuracy", "string-lambda",
        "nan-accuracy"])
def test_report_on_a_value_that_is_not_a_number_exits_3_without_output(tmp_path, capsys,
                                                                       edit, named):
    rep = {"methods": {"SHOT-Ens": 0.7, "DECISION": 0.8},
           "per_source": [{"name": "a", "unadapted_accuracy": 0.6, "alpha": 0.3},
                          {"name": "b", "unadapted_accuracy": 0.9, "alpha": 0.7}],
           "config": {"adaptation": {"lambda_pl": 0.3}}}
    edit(rep)
    run = tmp_path / "run"
    run.mkdir()
    (run / "report.json").write_text(json.dumps(rep))
    out = tmp_path / "agg"
    assert main(["report", str(run), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"i/o error: {run / 'report.json'}: not a run report: {named}, not a number\n"
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
