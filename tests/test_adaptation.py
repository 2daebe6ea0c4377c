import copy
import math

import mpmath
import numpy as np
import pytest

from decision import adaptation
from decision.adaptation import (AdaptationConfig, AggregationWeights,
                                 PseudoLabelState, adapt, alpha_project,
                                 assign_pseudo_labels, loss_coefficients,
                                 objective, prediction_label_entropy,
                                 soft_ensemble_predict, update_pseudo_labels,
                                 weights_only_adapt)
from decision.autodiff import ShapeMismatchError, Tape, Tensor
from decision.data import DomainSpec, generate_domain
from decision.models import SourceStack, classifier_checksum

from conftest import constant_logit_model, finite_diff, make_models, max_rel_err


# -- alpha projection -----------------------------------------------------------

def test_alpha_project_symmetry():
    np.testing.assert_allclose(alpha_project([0.0, 0.0]), [0.5, 0.5], atol=0.0)


def test_alpha_project_saturation():
    a = alpha_project([40.0, -40.0])
    assert a[0] == pytest.approx(1.0, abs=1e-15)
    assert 0.0 <= a[1] < 1e-15
    assert a.sum() == 1.0


def test_alpha_project_random_draws_stay_on_simplex():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        raw = rng.standard_normal(3) * rng.uniform(0.1, 100.0)
        a = alpha_project(raw)
        assert (a >= 0.0).all()
        assert abs(a.sum() - 1.0) < 1e-12


def test_aggregation_weights_start_uniform_and_refresh():
    w = AggregationWeights(4)
    np.testing.assert_allclose(w.alpha, 0.25, atol=0.0)
    w.raw.values[:] = [1.0, 0.0, 0.0, -1.0]
    stale = w.alpha.copy()
    refreshed = w.refresh()
    assert not np.array_equal(stale, refreshed)
    np.testing.assert_allclose(refreshed, alpha_project(w.raw.values), atol=0.0)


def test_tape_simplex_matches_numpy_projection():
    w = AggregationWeights(3)
    w.raw.values[:] = [0.7, -0.2, 1.4]
    w.refresh()
    np.testing.assert_allclose(Tape().simplex(w.raw).values, w.alpha, atol=1e-15)


# -- loss closed forms ------------------------------------------------------------

def _terms(models, x, labels=None, raw=None, **toggles):
    """The objective's term values for ``models`` stacked as adapt stacks them.

    ``raw`` sets the raw ensemble weights (default: uniform alpha); the
    pseudo-label term is off unless ``lambda_pl`` is given.
    """
    weights = AggregationWeights(len(models))
    if raw is not None:
        weights.raw.values[:] = raw
        weights.refresh()
    cfg = AdaptationConfig(**{"lambda_pl": 0.0, **toggles})
    return objective(Tape(), SourceStack(models), weights, x, labels, cfg)[1]


def _im_term(logits, labels, *coefs):
    """One fused-loss term value over a logits array, coefficients (c_ent, c_div, c_pl)."""
    q = None if labels is None else np.eye(logits.shape[1])[labels]
    return Tape().im_loss(Tensor(logits), q, *coefs)[0].item()


def test_entropy_loss_uniform_is_log_k():
    model = constant_logit_model([0.0, 0.0, 0.0, 0.0])
    x = np.zeros((5, 2))
    assert _terms([model], x)["L_ent"] == pytest.approx(math.log(4.0), abs=1e-12)


def test_entropy_loss_confident_margin():
    model = constant_logit_model([50.0, 0.0, 0.0, 0.0])
    assert _terms([model], np.zeros((3, 2)))["L_ent"] < 1e-18


def test_entropy_loss_empty_batch():
    with pytest.raises(ValueError, match="empty batch"):
        _terms([constant_logit_model([0.0, 0.0])], np.zeros((0, 2)))
    with pytest.raises(ValueError, match="empty batch"):
        _im_term(np.zeros((0, 2)), None, 0.0, 1.0, 0.0)


def _mp_entropy_of_rows(logits):
    with mpmath.workprec(128):
        total = mpmath.mpf(0)
        for row in logits:
            exps = [mpmath.exp(mpmath.mpf(v)) for v in row]
            z = mpmath.fsum(exps)
            total += -mpmath.fsum(e / z * mpmath.log(e / z) for e in exps)
        return float(total / len(logits))


def test_entropy_term_vs_high_precision_oracle():
    rng = np.random.default_rng(12)
    logits = rng.standard_normal((6, 5)) * 4.0
    got = _im_term(logits, None, 1.0, 0.0, 0.0)
    assert abs(got - _mp_entropy_of_rows(logits)) < 1e-12


def test_diversity_maximum_and_minimum():
    uniform = _im_term(np.zeros((7, 10)), None, 0.0, 1.0, 0.0)
    assert uniform == pytest.approx(math.log(10.0), abs=1e-12)
    hard = np.zeros((4, 3))
    hard[:, 1] = 50.0
    assert _im_term(hard, None, 0.0, 1.0, 0.0) < 1e-18


def test_diversity_of_two_hard_disagreeing_predictions():
    logits = np.array([[50.0, 0.0], [0.0, 50.0]])
    got = _im_term(logits, None, 0.0, 1.0, 0.0)
    assert got == pytest.approx(math.log(2.0), abs=1e-12)


def test_pl_loss_one_hot_and_uniform():
    confident = constant_logit_model([0.0, 50.0, 0.0, 0.0])
    x = np.zeros((3, 2))
    assert _terms([confident], x, [1, 1, 1], lambda_pl=1.0)["L_pl"] < 1e-18
    uniform = constant_logit_model([0.0, 0.0, 0.0, 0.0])
    assert _terms([uniform], x, [2, 0, 3], lambda_pl=1.0)["L_pl"] == pytest.approx(
        math.log(4.0), abs=1e-12
    )


def test_pl_loss_vs_high_precision_oracle():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((6, 4)) * 3.0
    labels = rng.integers(0, 4, 6)
    got = _im_term(logits, labels, 0.0, 0.0, 1.0)
    with mpmath.workprec(128):
        total = mpmath.mpf(0)
        for row, y in zip(logits, labels):
            z = mpmath.fsum(mpmath.exp(mpmath.mpf(v)) for v in row)
            total += -mpmath.log(mpmath.exp(mpmath.mpf(row[y])) / z)
        want = float(total / len(labels))
    assert abs(got - want) < 1e-12


def test_pl_loss_requires_all_labels():
    model, x = constant_logit_model([0.0, 0.0]), np.zeros((3, 2))
    with pytest.raises(ValueError, match="labels"):
        _terms([model], x, [0, 1], lambda_pl=0.3)
    with pytest.raises(ValueError, match="labels"):
        _terms([model], x, None, lambda_pl=0.3)


def test_total_loss_combination_arithmetic():
    def combo(cfg, terms=(0.5, 1.0, 2.0)):
        return float(np.dot(loss_coefficients(cfg), terms))

    assert combo(AdaptationConfig(lambda_pl=0.3)) == pytest.approx(0.1, abs=1e-15)
    assert combo(AdaptationConfig(lambda_pl=0.0)) == pytest.approx(-0.5, abs=1e-15)
    ln4 = math.log(4.0)
    cancel = combo(AdaptationConfig(lambda_pl=0.0), (ln4, ln4, 0.0))
    assert cancel == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError, match="no active terms"):
        loss_coefficients(AdaptationConfig(use_entropy=False, use_diversity=False,
                                           lambda_pl=0.0))
    # the fused loss applies the same coefficients to its own term values
    rng = np.random.default_rng(4)
    logits, labels = rng.standard_normal((5, 3)) * 2.0, rng.integers(0, 3, 5)
    for cfg in (AdaptationConfig(lambda_pl=0.3), AdaptationConfig(use_entropy=False),
                AdaptationConfig(use_diversity=False, lambda_pl=0.0)):
        total, terms = Tape().im_loss(Tensor(logits), np.eye(3)[labels],
                                      *loss_coefficients(cfg))
        assert total.item() == pytest.approx(combo(cfg, terms), abs=1e-15)


def test_identical_models_make_loss_invariant_to_alpha():
    model = make_models(1, seed=21)[0]
    twin = copy.deepcopy(model)
    x = np.random.default_rng(3).standard_normal((8, 3))
    a = _terms([model, twin], x)["L_ent"]
    b = _terms([model, twin], x, raw=[math.log(9.0), -math.log(9.0)])["L_ent"]  # alpha (0.9, 0.1)
    assert a == pytest.approx(b, abs=1e-12)


# -- pseudo-labels ----------------------------------------------------------------

def _manual_forward(model, x):
    """Independent numpy forward pass (no shared kernels)."""
    w1, b1, w2, b2, w, b = (p.values for p in model.params)
    h = np.maximum(x.dot(w1) + b1, 0.0)
    feats = h.dot(w2) + b2
    return feats, feats.dot(w) + b


def _manual_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def test_round0_centroids_match_brute_force_on_six_point_fixture():
    models = make_models(2, seed=33, arch=None)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((6, 3))
    alpha = np.array([0.6, 0.4])
    state = update_pseudo_labels(models, alpha, x, refinement_rounds=0)

    K = models[0].num_classes
    per_source = []
    for m in models:
        feats, logits = _manual_forward(m, x)
        probs = _manual_softmax(logits)
        cents = np.array([
            (probs[:, k : k + 1] * feats).sum(axis=0) / probs[:, k].sum()
            for k in range(K)
        ])
        per_source.append(cents)
    per_source = np.array(per_source)
    combined = alpha[0] * per_source[0] + alpha[1] * per_source[1]
    np.testing.assert_allclose(state.per_source, per_source, atol=1e-12)
    np.testing.assert_allclose(state.combined, combined, atol=1e-12)

    # labels: exhaustive argmin over alpha-combined per-source distances
    feats = [ _manual_forward(m, x)[0] for m in models ]
    for i in range(6):
        dists = [
            sum(alpha[j] * np.sum((feats[j][i] - per_source[j][k]) ** 2)
                for j in range(2))
            for k in range(K)
        ]
        assert state.labels[i] == int(np.argmin(dists))


def test_vertex_alpha_keeps_single_source_centroids():
    models = make_models(2, seed=40)
    x = np.random.default_rng(11).standard_normal((10, 3))
    state = update_pseudo_labels(models, [1.0, 0.0], x, refinement_rounds=0)
    np.testing.assert_allclose(state.combined, state.per_source[0], atol=1e-15)


def test_one_hot_predictions_give_class_mean_centroids():
    # scale the classifier until every row's logit margin exceeds 200, which
    # makes the round-0 soft weights one-hot to far below double precision
    models = make_models(1, seed=50)
    m = models[0]
    logits = m.head_logits(m.features(np.random.default_rng(13).standard_normal((12, 3))))
    sorted_rows = np.sort(logits, axis=1)
    min_gap = float(np.min(sorted_rows[:, -1] - sorted_rows[:, -2]))
    for head_param in m.params[4:]:
        head_param.values *= 200.0 / min_gap
    x = np.random.default_rng(13).standard_normal((12, 3))
    feats = m.features(x)
    hard = np.argmax(m.head_logits(feats), axis=1)
    state = update_pseudo_labels(models, [1.0], x, refinement_rounds=0)
    for k in range(m.num_classes):
        if (hard == k).any():
            np.testing.assert_allclose(
                state.per_source[0, k], feats[hard == k].mean(axis=0), atol=1e-12
            )


def test_round0_class_with_underflowed_probability_gets_the_mean_feature():
    models = make_models(1, seed=51)
    models[0].params[5].values[1] -= 1e4  # head bias: p(class 1) is exactly 0 everywhere
    x = np.random.default_rng(14).standard_normal((12, 3))
    state = update_pseudo_labels(models, [1.0], x, refinement_rounds=0)
    np.testing.assert_array_equal(state.per_source[0, 1], models[0].features(x).mean(axis=0))


def _one_source_centroids(feats, weights, fallback):
    """One source's centroid round as it ran before the rounds were stacked."""
    sums, denom = weights.T @ feats, weights.sum(axis=0)
    filled = denom > 0.0
    out = np.empty_like(sums)
    out[filled] = sums[filled] / denom[filled, None]
    out[~filled] = feats.mean(axis=0) if fallback is None else fallback[~filled]
    return out


def test_stacked_centroid_rounds_equal_per_source_rounds():
    rng = np.random.default_rng(41)
    n, m, d, k = 3, 50, 4, 3
    feats = rng.standard_normal((n, m, d))
    probs = np.exp(rng.standard_normal((n, m, k)))
    probs[1, :, 2] = 0.0  # round 0: source 1's class 2 has no weight -> mean feature
    onehot = np.broadcast_to(np.eye(k)[rng.integers(0, 2, m)], (n, m, k))  # class 2 empty
    previous = rng.standard_normal((n, k, d))
    for weights, fallback in ((probs, None), (onehot, previous)):
        got = adaptation._source_centroids(feats, weights, fallback)
        for j in range(n):
            want = _one_source_centroids(feats[j], weights[j],
                                         None if fallback is None else fallback[j])
            np.testing.assert_array_equal(got[j], want)
    np.testing.assert_array_equal(got[:, 2], previous[:, 2])


def test_assignment_picks_coinciding_centroid_and_breaks_ties_low():
    per_source = np.array([
        [[0.0, 0.0], [5.0, 5.0], [1.0, -1.0]],
        [[2.0, 2.0], [-3.0, 0.0], [4.0, 1.0]],
    ])
    alpha = np.array([0.5, 0.5])
    state = PseudoLabelState(per_source, np.einsum("j,jkd->kd", alpha, per_source),
                             np.zeros(2, np.int64), alpha)
    feats = np.stack([
        np.array([per_source[0, 2], [0.0, 0.0]]),
        np.array([per_source[1, 2], [0.0, 0.0]]),
    ])
    labels = assign_pseudo_labels(state, feats)
    assert labels[0] == 2  # zero distance in every source
    # second point: make classes 0 and 1 exactly tied, both better than class 2
    d = ((per_source[:, :, :] - 0.0) ** 2).sum(axis=2)  # per-source distances from origin
    combined = (alpha[:, None] * d).sum(axis=0)
    assert combined[0] != combined[1] or labels[1] == 0


def test_tie_breaks_toward_smaller_class_index():
    per_source = np.array([[[1.0, 0.0], [-1.0, 0.0]]])  # symmetric about origin
    alpha = np.array([1.0])
    state = PseudoLabelState(per_source, per_source[0], np.zeros(1, np.int64), alpha)
    labels = assign_pseudo_labels(state, np.zeros((1, 1, 2)))
    assert labels[0] == 0


def test_single_source_reduces_to_nearest_centroid():
    models = make_models(1, seed=60)
    x = np.random.default_rng(17).standard_normal((9, 3))
    state = update_pseudo_labels(models, [1.0], x, refinement_rounds=1)
    feats = models[0].features(x)
    for i in range(9):
        dists = ((feats[i] - state.per_source[0]) ** 2).sum(axis=1)
        assert state.labels[i] == int(np.argmin(dists))


def test_refinement_reaches_fixed_point_on_separated_clusters():
    rng = np.random.default_rng(23)
    x = np.vstack([rng.normal(-4, 0.2, (30, 3)), rng.normal(4, 0.2, (30, 3))])
    models = make_models(2, seed=70, arch=None)
    one = update_pseudo_labels(models, [0.5, 0.5], x, refinement_rounds=1)
    two = update_pseudo_labels(models, [0.5, 0.5], x, refinement_rounds=2)
    assert np.array_equal(one.labels, two.labels)


def test_empty_refined_class_keeps_previous_centroid():
    # identical inputs collapse every centroid onto one feature point; all ties
    # break to class 0, so classes 1 and 2 are empty at round 1
    models = make_models(1, seed=80)
    x = np.zeros((8, 3))
    r0 = update_pseudo_labels(models, [1.0], x, refinement_rounds=0)
    r1 = update_pseudo_labels(models, [1.0], x, refinement_rounds=1)
    assert set(np.unique(r0.labels)) == {0}
    assert np.array_equal(r1.per_source[0, 1], r0.per_source[0, 1])
    assert np.array_equal(r1.per_source[0, 2], r0.per_source[0, 2])


def test_combined_feature_distance_mode_matches_per_source_at_n1():
    models = make_models(1, seed=90)
    x = np.random.default_rng(31).standard_normal((14, 3))
    a = update_pseudo_labels(models, [1.0], x, 1, mode="per-source")
    b = update_pseudo_labels(models, [1.0], x, 1, mode="combined-feature")
    assert np.array_equal(a.labels, b.labels)


# -- objective gradients -----------------------------------------------------------

def test_objective_gradient_through_raw_alpha_matches_finite_differences():
    models = make_models(2, seed=95)
    weights = AggregationWeights(2)
    weights.raw.values[:] = [0.4, -0.3]
    weights.refresh()
    x = np.random.default_rng(37).standard_normal((6, 3))
    labels = np.random.default_rng(38).integers(0, 3, 6)
    cfg = AdaptationConfig()

    stack = SourceStack(models)

    def f():
        t = Tape()
        loss, _ = objective(t, stack, weights, x, labels, cfg)
        return loss

    loss = f()
    loss._node[0].backward(loss)
    params = [weights.raw] + stack.extractor_params()
    analytic = [p.grad for p in params]
    numeric = finite_diff(lambda: f().item(), params)
    assert max_rel_err(analytic, numeric) < 1e-4


def test_objective_on_a_source_stack_records_the_same_node_count_for_any_n():
    x = np.random.default_rng(39).standard_normal((6, 3))
    labels = np.random.default_rng(40).integers(0, 3, 6)
    counts = []
    for n in (1, 4, 16):
        tape = Tape()
        objective(tape, SourceStack(make_models(n, seed=96)), AggregationWeights(n), x,
                  labels, AdaptationConfig())
        counts.append(len(tape))
    assert counts == [12] * 3  # 5 leaves (4 extractor tensors, raw alpha) + 7 ops


def test_source_stack_views_follow_in_place_updates():
    models = make_models(3, seed=97)
    stack = SourceStack(models)
    stack.params[0].values -= 1.0  # how SgdMomentum.step updates parameters
    for m, view in zip(models, stack.models):
        np.testing.assert_array_equal(view.params[0].values, m.params[0].values - 1.0)
        assert not any(p.requires_grad for p in view.params[4:])


# -- the adaptation loop -------------------------------------------------------------

def _blob_domain(seed=0, n=90):
    return generate_domain(DomainSpec("gaussian-mixture", n=n, seed=seed, noise_std=0.2))


def _trained_source(seed=0):
    from conftest import tiny_arch
    from decision.models import SourceModel, SourceTrainConfig, train_source

    data = _blob_domain(seed)
    model = SourceModel.init("src", tiny_arch(input_dim=2, num_classes=3), seed)
    train_source([model], [data], SourceTrainConfig(epochs=25), [seed])
    return model, data


def test_adapt_requires_unlabeled_target():
    model, data = _trained_source()
    with pytest.raises(TypeError, match="UnlabeledSet"):
        adapt([model], data, AdaptationConfig(epochs=1))


def test_adapt_rejects_empty_target_and_mismatched_models():
    from conftest import tiny_arch
    from decision.data import UnlabeledSet
    from decision.models import SourceModel

    model, data = _trained_source()
    with pytest.raises(ValueError, match="empty"):
        adapt([model], UnlabeledSet(np.zeros((0, 2))), AdaptationConfig())
    mismatched = SourceModel.init("bad", tiny_arch(input_dim=2, num_classes=2), 0)
    with pytest.raises(ShapeMismatchError):
        adapt([model, mismatched], data.inputs_only(), AdaptationConfig(epochs=1))


def test_zero_epoch_adapt_is_identity():
    model, data = _trained_source()
    result = adapt([model, copy.deepcopy(model)], data.inputs_only(), AdaptationConfig(epochs=0))
    np.testing.assert_allclose(result.alpha, 0.5, atol=0.0)
    for got, want in zip(result.models, [model, model]):
        for a, b in zip(got.params[:4], want.params[:4]):
            assert np.array_equal(a.values, b.values)
    assert result.metrics == []


def test_adapt_does_not_mutate_inputs_and_freezes_clones_only():
    model, data = _trained_source()
    before = [p.values.copy() for p in model.params]
    result = adapt([model], data.inputs_only(), AdaptationConfig(epochs=2, seed=1))
    for p, b in zip(model.params, before):
        assert np.array_equal(p.values, b)
    assert all(p.requires_grad for p in model.params)
    assert not any(p.requires_grad for p in result.models[0].params[4:])
    assert classifier_checksum(result.models[0]) == classifier_checksum(model)


def test_single_source_alpha_is_pinned_at_one():
    model, data = _trained_source()
    seen = []
    adapt([model], data.inputs_only(), AdaptationConfig(epochs=2, seed=0),
          on_step=seen.append)
    assert len(seen) > 0
    for a in seen:
        assert a.shape == (1,) and a[0] == 1.0


def test_frozen_classifier_checksums_survive_adaptation():
    model, data = _trained_source()
    twin = copy.deepcopy(model)
    before = [classifier_checksum(m) for m in (model, twin)]
    result = adapt([model, twin], data.inputs_only(),
                   AdaptationConfig(epochs=3, seed=2))
    after = [classifier_checksum(m) for m in result.models]
    assert before == after


def test_adapt_raises_when_alpha_leaves_the_simplex(monkeypatch):
    model, data = _trained_source()
    monkeypatch.setattr(adaptation, "alpha_project", lambda raw: np.full(len(raw), 0.6))
    with pytest.raises(AssertionError, match="simplex"):
        adapt([model, copy.deepcopy(model)], data.inputs_only(),
              AdaptationConfig(epochs=1, seed=2))


def test_adapt_raises_when_alpha_is_nan(monkeypatch):
    # every comparison with NaN is False: the check must not read NaN as on the simplex
    model, data = _trained_source()
    monkeypatch.setattr(adaptation, "alpha_project", lambda raw: np.full(len(raw), np.nan))
    with pytest.raises(AssertionError, match="simplex"):
        adapt([model, copy.deepcopy(model)], data.inputs_only(),
              AdaptationConfig(epochs=1, seed=2))


def test_full_batch_epoch_does_not_increase_im_objective():
    model, data = _trained_source(seed=1)
    x = data.x
    before = _terms([model], x)["L_tot"]  # L_ent - L_div
    cfg = AdaptationConfig(lambda_pl=0.0, epochs=1, batch_size=len(x), seed=0)
    result = adapt([model], data.inputs_only(), cfg)
    after = _terms(result.models, x)["L_tot"]
    assert after <= before + 1e-12


def test_weights_only_leaves_extractors_untouched():
    model, data = _trained_source()
    twin = copy.deepcopy(model)
    result = weights_only_adapt([model, twin], data.inputs_only(),
                                AdaptationConfig(epochs=2, seed=3))
    for got, want in zip(result.models, (model, twin)):
        for a, b in zip(got.params[:4], want.params[:4]):
            assert np.array_equal(a.values, b.values)


def test_weights_only_computes_no_extractor_gradients():
    model, data = _trained_source()
    result = weights_only_adapt([model, copy.deepcopy(model)], data.inputs_only(),
                                AdaptationConfig(epochs=2, seed=3))
    for m in result.models:
        assert all(p.grad is None for p in m.params[:4])
    # frozen extractors stay off the tape: only the weights receive a gradient
    stack = SourceStack([model, copy.deepcopy(model)], requires_grad=False)
    weights = AggregationWeights(2)
    tape = Tape()
    loss, _ = objective(tape, stack, weights, data.x[:8], np.zeros(8, np.int64),
                        AdaptationConfig())
    tape.backward(loss)
    assert all(p.grad is None for p in stack.params)
    assert weights.raw.grad is not None


def test_metrics_rows_carry_the_contracted_keys():
    model, data = _trained_source()
    result = adapt([model], data.inputs_only(), AdaptationConfig(epochs=2, seed=0),
                   eval_set=data)
    assert len(result.metrics) == 2
    for row in result.metrics:
        assert set(row) == {"epoch", "L_ent", "L_div", "L_pl", "L_tot", "alpha",
                            "target_accuracy"}
        assert row["target_accuracy"] is not None
    # epoch-level mean prediction is tracked separately, one simplex row per epoch
    assert len(result.epoch_pbar) == 2
    for pbar in result.epoch_pbar:
        assert pbar.shape == (model.num_classes,)
        assert pbar.sum() == pytest.approx(1.0, abs=1e-12)


# -- soft ensemble --------------------------------------------------------------------

def test_soft_ensemble_of_identical_models_is_single_model():
    model = make_models(1, seed=99)[0]
    x = np.random.default_rng(41).standard_normal((10, 3))
    from decision.models import predict

    np.testing.assert_array_equal(
        soft_ensemble_predict([model, copy.deepcopy(model)], x), predict(model.logits(x))
    )


def test_soft_ensemble_averages_probabilities():
    a = constant_logit_model([math.log(0.6), math.log(0.4)])
    b = constant_logit_model([math.log(0.2), math.log(0.8)])
    labels = soft_ensemble_predict([a, b], np.zeros((4, 2)))
    assert labels.tolist() == [1, 1, 1, 1]  # mean (0.4, 0.6)


def test_soft_ensemble_tie_breaks_toward_smallest_index():
    a = constant_logit_model([50.0, 0.0])
    b = constant_logit_model([0.0, 50.0])
    labels = soft_ensemble_predict([a, b], np.zeros((2, 2)))
    assert labels.tolist() == [0, 0]


def test_prediction_label_entropy_bounds():
    uniform = constant_logit_model([0.0, 0.1])
    x = np.zeros((10, 2))
    h = prediction_label_entropy([uniform], [1.0], x)
    assert h == 0.0  # constant model predicts one class everywhere
