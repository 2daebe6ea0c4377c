"""Acceptance suite: one test per headline requirement.

Each test prints a PASS line with the measured numbers (run with ``-s`` to see
them). The moons suite values marked as recorded were produced by the first
verified run and are pinned to +/- 0.5 accuracy points.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from decision.adaptation import (AdaptationConfig, adapt, objective,
                                 prediction_label_entropy,
                                 soft_ensemble_predict, weights_only_adapt)
from decision.autodiff import Tape, Tensor
from decision.config import moons_fixture
from decision.data import generate_domain, split_train_eval
from decision.distill import TeacherView, train_student
from decision.models import (SourceModel, SourceStack, SourceTrainConfig,
                             accuracy, argmax_accuracy, classifier_checksum,
                             smoothed_targets, source_logits, train_source)
from decision.oracle import (density_ratio_weights, uniform_mixture_weights,
                             verify_combination_bound)
from decision.runner import spearman

from conftest import finite_diff, max_rel_err, tiny_arch

TOL = 0.005  # +/- 0.5 accuracy points around recorded fixture values

# recorded fixture results (first verified run, full-target eval)
RECORDED = {
    0: {
        "unadapted": [0.7708333333333334, 0.8683333333333333, 0.8416666666666667, 0.5058333333333334],
        "shot": [0.79, 0.84, 0.8225, 0.355],
        "shot_ens": 0.8583333333333333,
        "decision": 0.8616666666666667,
        "alpha": [0.2459, 0.2808, 0.2888, 0.1845],
        "ablation_ent": 0.85,
        "ablation_im": 0.8616666666666667,
        "ablation_pl": 0.8633333333333333,
        "entropy_full": 0.6905,
        "entropy_ent_only": 0.6762,
        "weights_only": 0.8658333333333333,
        "uniform_ens": 0.8641666666666666,
        "student": 0.8583333333333333,
        "teacher": 0.8616666666666667,
    },
    1: {"decision": 0.8891666666666667, "shot_best": 0.8825},
    2: {"decision": 0.8808333333333334, "shot_best": 0.875},
}


def run_fixture_suite(seed, full=False):
    """Train the moons-3+1 sources and run every method, as the CLI would."""
    t_start = time.perf_counter()
    cfg = moons_fixture(seed)
    arch = cfg.resolved_model()
    seeds = [cfg.seed * 101 + i for i in range(len(cfg.source_specs))]
    trains = [split_train_eval(generate_domain(spec), cfg.eval_fraction, seed=spec.seed + 1)[0]
              for spec in cfg.source_specs]
    models = [SourceModel.init(name, arch, seed) for name, seed in zip(cfg.source_names, seeds)]
    train_source(models, trains, cfg.source_training, seeds)  # all sources in one pass
    tgt_train, _ = split_train_eval(generate_domain(cfg.target_spec),
                                    cfg.eval_fraction, seed=cfg.target_spec.seed + 1)
    target = tgt_train.inputs_only()
    tgt_eval = generate_domain(cfg.target_spec)

    def score(adapted, alpha):  # each epoch's metrics row, as run_adapt scores DECISION
        return accuracy(adapted, alpha, tgt_eval)

    out = {"cfg": cfg, "models": models, "target": target, "eval": tgt_eval}
    out["unadapted"] = [accuracy([m], [1.0], tgt_eval) for m in models]
    out["uniform_ens"] = accuracy(models, np.full(len(models), 0.25), tgt_eval)

    shot_models, shot_accs = [], []
    for j, m in enumerate(models):
        res = adapt([m], target, replace(cfg.adaptation, seed=cfg.seed * 211 + j), score)
        shot_models.append(res.models[0])
        shot_accs.append(accuracy(res.models, res.alpha, tgt_eval))
    out["shot"] = shot_accs
    out["shot_ens"] = argmax_accuracy(
        soft_ensemble_predict(source_logits(shot_models, tgt_eval.x)), tgt_eval.y)

    checksums = [classifier_checksum(m) for m in models]
    alpha_trace = []
    dec = adapt(models, target,
                replace(cfg.adaptation, seed=cfg.seed * 307),
                score, on_step=alpha_trace.append)
    out["decision_result"] = dec
    out["decision"] = accuracy(dec.models, dec.alpha, tgt_eval)
    out["alpha"] = dec.alpha
    out["alpha_trace"] = alpha_trace
    out["checksums_before"] = checksums
    out["checksums_after"] = [classifier_checksum(m) for m in dec.models]
    out["entropy_full"] = prediction_label_entropy(dec.models, dec.alpha, tgt_eval.x)

    if full:
        ablations = {
            "ent": dict(use_diversity=False, lambda_pl=0.0),
            "im": dict(lambda_pl=0.0),
            "pl": dict(use_entropy=False, use_diversity=False, lambda_pl=1.0),
        }
        for name, overrides in ablations.items():
            res = adapt(models, target,
                        replace(cfg.adaptation, seed=cfg.seed * 307, **overrides),
                        score)
            out[f"ablation_{name}"] = accuracy(res.models, res.alpha, tgt_eval)
            if name == "ent":
                out["entropy_ent_only"] = prediction_label_entropy(
                    res.models, res.alpha, tgt_eval.x
                )
        wres = weights_only_adapt(models, target,
                                  replace(cfg.adaptation, seed=cfg.seed * 401),
                                  score)
        out["weights_only"] = accuracy(wres.models, wres.alpha, tgt_eval)
        teacher = TeacherView(dec.models, dec.alpha)
        student, agreement = train_student(
            teacher, target,
            SourceTrainConfig(epochs=cfg.distill_epochs, batch_size=cfg.adaptation.batch_size),
            seed=cfg.seed * 503,
        )
        out["student"] = accuracy([student], [1.0], tgt_eval)
        out["teacher"] = out["decision"]
        out["agreement"] = agreement
    out["wall_clock"] = time.perf_counter() - t_start
    return out


@pytest.fixture(scope="module")
def suite():
    cache = {0: run_fixture_suite(0, full=True)}
    for seed in (1, 2):
        cache[seed] = run_fixture_suite(seed)
    return cache


# -- criterion 1: gradient correctness of the full objective ------------------------

def test_criterion_1_gradients_of_full_objective(capsys):
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(100):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(2, 4))
        arch = tiny_arch(input_dim=3, hidden_dim=4, feature_dim=3, num_classes=k)
        stack = SourceStack([SourceModel.init(f"g{j}", arch, int(rng.integers(0, 2**31)))
                             for j in range(n)])
        w1, b1 = (p.values for p in stack.params[:2])
        raw = Tensor(rng.standard_normal(n), requires_grad=True)
        cfg = AdaptationConfig(lambda_pl=float(rng.uniform(0.0, 1.0)))
        b = int(rng.integers(4, 9))
        while True:  # keep relu preactivations away from the finite-diff kink
            x = rng.standard_normal((b, 3))
            pre = x @ w1 + b1[:, None, :]  # (n, b, h)
            if np.abs(pre).min() > 1e-4:
                break
        q = np.eye(k)[rng.integers(0, k, b)]  # one-hot rows, as the refresh builds them

        def f():
            tape = Tape()
            loss, _ = objective(tape, stack, raw, x, q, cfg)
            return loss

        loss = f()
        loss._node[0].backward(loss)
        params = [raw] + stack.extractor_params()
        analytic = [p.grad for p in params]
        for p in params:
            p.grad = None
        numeric = finite_diff(lambda: f().item(), params, h=1e-5)
        worst = max(worst, max_rel_err(analytic, numeric))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4
    assert elapsed < 30.0
    with capsys.disabled():
        print(f"\nPASS criterion 1: objective gradcheck, 100 configs, "
              f"max rel err {worst:.2e}, {elapsed:.1f}s")


# -- criterion 2: closed-form loss checks -------------------------------------------

def test_criterion_2_closed_form_losses(capsys):
    from conftest import constant_logit_model

    uniform = SourceStack([constant_logit_model([0.0, 0.0, 0.0, 0.0])])
    _, terms = objective(Tape(), uniform, Tensor(np.zeros(1), requires_grad=True),
                         np.zeros((5, 2)), None,
                         AdaptationConfig(use_diversity=False, lambda_pl=0.0))
    l_ent = terms["L_ent"]
    assert l_ent == pytest.approx(math.log(4.0), abs=1e-12)

    def diversity(logits):
        return Tape().im_loss(Tensor(logits[None]), None, 0.0, 1.0, 0.0)[0].item()

    assert diversity(np.zeros((6, 10))) == pytest.approx(math.log(10.0), abs=1e-12)
    hard = np.zeros((4, 3))
    hard[:, 0] = 800.0  # softmax underflows to an exactly one-hot mean prediction
    assert diversity(hard) == 0.0

    def smoothing_ce(logits, labels, eps):
        q = smoothed_targets(labels, logits.shape[1], eps)
        return Tape().im_loss(Tensor(logits[None]), q[None], 0.0, 0.0, 1.0)[0].item()

    assert smoothing_ce(np.zeros((2, 4)), [1, 3], 0.0) == pytest.approx(math.log(4.0), abs=1e-12)
    margin = np.zeros((1, 4))
    margin[0, 2] = 50.0
    assert smoothing_ce(margin, [2], 0.0) < 1e-20
    q = np.full(10, 0.01)
    q[0] += 0.9
    h_q = -float(np.sum(q * np.log(q)))
    got = smoothing_ce(np.log(q)[None, :], [0], 0.1)
    assert got == pytest.approx(h_q, rel=1e-12)
    with capsys.disabled():
        print(f"PASS criterion 2: closed-form losses (ln4={l_ent:.12f}, "
              f"H(q)={h_q:.6f})")


# -- criterion 3: simplex invariant and frozen classifiers ---------------------------

def test_criterion_3_simplex_invariant_entire_run(suite, capsys):
    run = suite[0]
    trace = run["alpha_trace"]
    assert len(trace) == run["cfg"].adaptation.epochs * math.ceil(
        len(run["target"]) / run["cfg"].adaptation.batch_size
    )
    worst_sum = max(abs(a.sum() - 1.0) for a in trace)
    worst_min = min(a.min() for a in trace)
    assert worst_sum <= 1e-9
    assert worst_min >= 0.0
    assert run["checksums_before"] == run["checksums_after"]
    with capsys.disabled():
        print(f"PASS criterion 3: simplex over {len(trace)} steps "
              f"(max |sum-1| {worst_sum:.1e}, min alpha {worst_min:.3f}), "
              f"classifier checksums unchanged")


# -- criterion 4: combination-guarantee suite ----------------------------------------

def test_criterion_4_combination_bound_suite(capsys):
    t0 = time.perf_counter()
    report = verify_combination_bound(trials=1000, seed=0)
    elapsed = time.perf_counter() - t0
    assert report.trials == 1000
    assert report.violations == []
    assert report.strict_cases_checked > 0
    assert report.max_slack_used <= 1e-9
    assert elapsed < 60.0
    with capsys.disabled():
        print(f"PASS criterion 4: 1000 instances, 0 violations, "
              f"{report.strict_cases_checked} strict cases, "
              f"max slack {report.max_slack_used:.1e}, {elapsed:.1f}s")


# -- criterion 5: uniform-marginal reduction ------------------------------------------

def test_criterion_5_uniform_reduction(capsys):
    from decision.oracle import DiscreteDomains

    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 5))
        c = rng.uniform(0.02, 1.0 / (m + 1), n)
        lam = rng.dirichlet(np.ones(n))
        qxs, conds = [], []
        for ck in c:
            qxs.append(np.concatenate([np.full(m, ck), [1.0 - m * ck]]))
            conds.append(rng.dirichlet(np.ones(3), size=m + 1))
        w = density_ratio_weights(DiscreteDomains(qxs, conds), lam)
        want = uniform_mixture_weights(lam, c)
        worst = max(worst, float(np.abs(w[:m] - want).max()))
    assert worst < 1e-12
    with capsys.disabled():
        print(f"PASS criterion 5: uniform reduction, per-input weights constant "
              f"(max dev {worst:.1e})")


# -- criteria 6-11: the moons-3+1 fixture ---------------------------------------------

def test_criterion_6_outlier_rejection(suite, capsys):
    run = suite[0]
    rec = RECORDED[0]
    assert run["decision"] >= run["shot_ens"]
    assert run["alpha"][3] < 0.25
    for key in ("shot_ens", "decision", "uniform_ens"):
        assert run[key] == pytest.approx(rec[key], abs=TOL), key
    for got, want in zip(run["unadapted"], rec["unadapted"]):
        assert got == pytest.approx(want, abs=TOL)
    for got, want in zip(run["shot"], rec["shot"]):
        assert got == pytest.approx(want, abs=TOL)
    np.testing.assert_allclose(run["alpha"], rec["alpha"], atol=0.02)
    assert run["wall_clock"] < 120.0
    with capsys.disabled():
        print(f"PASS criterion 6: DECISION {run['decision']:.4f} >= "
              f"SHOT-Ens {run['shot_ens']:.4f}, outlier alpha "
              f"{run['alpha'][3]:.4f} < 0.25, suite {run['wall_clock']:.1f}s")


def test_criterion_7_best_source_parity(suite, capsys):
    gaps = []
    for seed in (0, 1, 2):
        run = suite[seed]
        best_shot = max(run["shot"])
        assert run["decision"] >= best_shot - 0.02, f"seed {seed}"
        gaps.append(run["decision"] - best_shot)
        if seed in RECORDED and "shot_best" in RECORDED[seed]:
            assert best_shot == pytest.approx(RECORDED[seed]["shot_best"], abs=TOL)
            assert run["decision"] == pytest.approx(RECORDED[seed]["decision"], abs=TOL)
    with capsys.disabled():
        print(f"PASS criterion 7: DECISION vs best adapted source, margins "
              f"{[f'{g:+.4f}' for g in gaps]} (floor -0.02)")


def test_criterion_8_ablation_ordering(suite, capsys):
    run = suite[0]
    rec = RECORDED[0]
    for name in ("ablation_ent", "ablation_im", "ablation_pl"):
        assert run["decision"] >= run[name] - TOL, name
        assert run[name] == pytest.approx(rec[name], abs=TOL), name
    assert run["entropy_full"] > run["entropy_ent_only"]
    with capsys.disabled():
        print(f"PASS criterion 8: full {run['decision']:.4f} vs ablations "
              f"ent {run['ablation_ent']:.4f} / im {run['ablation_im']:.4f} / "
              f"pl {run['ablation_pl']:.4f}; label entropy "
              f"{run['entropy_full']:.4f} > {run['entropy_ent_only']:.4f}")


def test_criterion_9_weights_only_beats_uniform(suite, capsys):
    run = suite[0]
    assert run["weights_only"] > run["uniform_ens"]
    assert run["weights_only"] == pytest.approx(RECORDED[0]["weights_only"], abs=TOL)
    with capsys.disabled():
        print(f"PASS criterion 9: weights-only {run['weights_only']:.4f} > "
              f"uniform ensemble {run['uniform_ens']:.4f}")


def test_criterion_10_distillation_parity(suite, capsys):
    run = suite[0]
    gap = abs(run["student"] - run["teacher"])
    assert gap <= 0.01
    assert run["student"] == pytest.approx(RECORDED[0]["student"], abs=TOL)
    with capsys.disabled():
        print(f"PASS criterion 10: student {run['student']:.4f} within "
              f"{100 * gap:.2f} points of teacher {run['teacher']:.4f}")


def test_criterion_11_alpha_quality_correlation(suite, capsys):
    rhos = []
    for seed in (0, 1, 2):
        run = suite[seed]
        rho = spearman(run["unadapted"], run["alpha"])
        assert rho > 0.0, f"seed {seed}"
        rhos.append(rho)
    with capsys.disabled():
        print(f"PASS criterion 11: alpha/source-quality Spearman "
              f"{[f'{r:.2f}' for r in rhos]} all > 0")
