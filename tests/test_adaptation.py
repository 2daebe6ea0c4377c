import copy
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decision import adaptation, autodiff, kernels
from decision import models as models_mod
from decision.adaptation import (DISTANCE_MODES, AdaptationConfig, adapt,
                                 alpha_project, assign_pseudo_labels,
                                 loss_coefficients, objective,
                                 prediction_label_entropy,
                                 soft_ensemble_predict, target_forward,
                                 update_pseudo_labels, weights_only_adapt)
from decision.autodiff import DivergenceError, ShapeMismatchError, Tape, Tensor, mlp_forward
from decision.data import DomainSpec, LabeledSet, generate_domain
from decision.models import (SourceStack, accuracy, aggregate_logits, classifier_checksum,
                             predict, source_logits)
from decision.optim import ParamGroup, SgdMomentum, lr_schedule

from conftest import constant_logit_model, finite_diff, make_models, max_rel_err, tiny_arch


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


def test_tape_simplex_matches_numpy_projection():
    raw = Tensor([0.7, -0.2, 1.4])
    unit_rows = Tensor(np.eye(3)[:, None])  # the ensemble of unit rows is alpha
    np.testing.assert_allclose(Tape().ensemble(raw, unit_rows).values[0, 0],
                               alpha_project(raw.values), atol=1e-15)


# -- loss closed forms ------------------------------------------------------------

def _terms(models, x, labels=None, raw=None, **toggles):
    """The objective's term values for ``models`` stacked as adapt stacks them.

    ``raw`` sets the raw ensemble weights (default: uniform alpha); the
    pseudo-label term is off unless ``lambda_pl`` is given. ``labels`` become
    one-hot target rows, as the refresh builds them.
    """
    raw = Tensor(np.zeros(len(models)) if raw is None else raw, requires_grad=True)
    cfg = AdaptationConfig(**{"lambda_pl": 0.0, **toggles})
    q = None if labels is None else np.eye(models[0].num_classes)[labels]
    return objective(Tape(), SourceStack(models), raw, x, q, cfg)[1]


def _im_term(logits, labels, *coefs):
    """One fused-loss term value over a (b, k) logits array, coefficients (c_ent, c_div, c_pl)."""
    q = None if labels is None else np.eye(logits.shape[1])[labels][None]
    return Tape().im_loss(Tensor(logits[None]), q, *coefs)[0].item()


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
    with pytest.raises(ValueError, match="targets"):
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
        total, terms = Tape().im_loss(Tensor(logits[None]), np.eye(3)[labels][None],
                                      *loss_coefficients(cfg))
        assert total.item() == pytest.approx(combo(cfg, [t[0] for t in terms]), abs=1e-15)


def test_objective_reports_disabled_terms():
    # adapt logs L_ent and L_div under every ablation: the pl-only objective
    # reports the same term values as the default one
    stack = SourceStack(make_models(3, seed=23))
    raw = Tensor([0.4, -1.2, 0.3], requires_grad=True)
    x = np.random.default_rng(5).standard_normal((8, 3))
    q = np.eye(3)[[0, 1, 2, 0, 1, 0, 2, 1]]

    def terms(cfg):
        return objective(Tape(), stack, raw, x, q, cfg)[1]

    full = terms(AdaptationConfig())
    pl = terms(AdaptationConfig(use_entropy=False, use_diversity=False))
    for key in ("L_ent", "L_div", "L_pl"):
        assert math.isfinite(pl[key]) and pl[key] == full[key]


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
    w1, b1, w2, b2, w, b = model.params
    h = np.maximum(x.dot(w1) + b1, 0.0)
    feats = h.dot(w2) + b2
    return feats, feats.dot(w) + b


def _manual_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _brute_force_round0(models, x):
    """Every source's features (n, N, d) and round-0 centroids (n, K, d), one
    class at a time."""
    feats, cents = [], []
    for m in models:
        f, logits = _manual_forward(m, x)
        p = _manual_softmax(logits)
        feats.append(f)
        cents.append([(p[:, k : k + 1] * f).sum(axis=0) / p[:, k].sum()
                      for k in range(m.num_classes)])
    return np.array(feats), np.array(cents)


def _pseudo_label_rounds(monkeypatch, models, x, *args, **kwargs):
    """``update_pseudo_labels``'s labels on ``target_forward(models, x)``, and
    the (fallback, centroids) pair of each centroid round in order, round 0
    (in ``target_forward``) first."""
    rounds = []
    source_centroids = adaptation._source_centroids

    def recording(feats, weights, fallback):
        rounds.append((fallback, source_centroids(feats, weights, fallback)))
        return rounds[-1][1]

    with monkeypatch.context() as m:
        m.setattr(adaptation, "_source_centroids", recording)
        labels = update_pseudo_labels(target_forward(models, x), *args, **kwargs)
    return labels, rounds


def test_round0_centroids_match_brute_force_on_six_point_fixture(monkeypatch):
    models = make_models(2, seed=33, arch=None)
    alpha = np.array([0.6, 0.4])
    for x_seed in (9, 11):  # the two distance modes disagree on the second draw only
        x = np.random.default_rng(x_seed).standard_normal((6, 3))
        feats, per_source = _brute_force_round0(models, x)
        labels, [(_, cents)] = _pseudo_label_rounds(monkeypatch, models, x, alpha,
                                                    refinement_rounds=0)
        np.testing.assert_allclose(cents, per_source, atol=1e-12)

        # labels: exhaustive argmin over alpha-combined per-source distances, and
        # over the alpha-combined feature's distances to the combined centroids
        combined_labels = update_pseudo_labels(target_forward(models, x), alpha, 0,
                                               mode="combined-feature")
        combined = alpha[0] * per_source[0] + alpha[1] * per_source[1]
        mean_feat = alpha[0] * feats[0] + alpha[1] * feats[1]
        for i in range(6):
            dists = [
                sum(alpha[j] * np.sum((feats[j][i] - per_source[j][k]) ** 2)
                    for j in range(2))
                for k in range(models[0].num_classes)
            ]
            assert labels[i] == int(np.argmin(dists))
            assert combined_labels[i] == int(np.argmin(((mean_feat[i] - combined) ** 2).sum(1)))
    assert not np.array_equal(labels, combined_labels)


def test_vertex_alpha_keeps_single_source_centroids():
    # at alpha = (1, 0) the combination is source 0's centroids: its labels alone
    models = make_models(2, seed=40)
    x = np.random.default_rng(11).standard_normal((10, 3))
    for mode in DISTANCE_MODES:
        np.testing.assert_array_equal(
            update_pseudo_labels(target_forward(models, x), [1.0, 0.0], refinement_rounds=0,
                                 mode=mode),
            update_pseudo_labels(target_forward(models[:1], x), [1.0], refinement_rounds=0,
                                 mode=mode))


def test_one_hot_predictions_give_class_mean_centroids(monkeypatch):
    # scale the classifier until every row's logit margin exceeds 200, which
    # makes the round-0 soft weights one-hot to far below double precision
    models = make_models(1, seed=50)
    m = models[0]
    x = np.random.default_rng(13).standard_normal((12, 3))
    _, _, logits = mlp_forward(x, m.params)
    sorted_rows = np.sort(logits, axis=1)
    min_gap = float(np.min(sorted_rows[:, -1] - sorted_rows[:, -2]))
    for head_param in m.params[4:]:
        head_param *= 200.0 / min_gap
    _, feats, logits = mlp_forward(x, m.params)
    hard = np.argmax(logits, axis=1)
    _, [(_, cents)] = _pseudo_label_rounds(monkeypatch, models, x, [1.0], refinement_rounds=0)
    for k in range(m.num_classes):
        if (hard == k).any():
            np.testing.assert_allclose(cents[0, k], feats[hard == k].mean(axis=0), atol=1e-12)


def test_round0_class_with_underflowed_probability_gets_the_mean_feature(monkeypatch):
    models = make_models(1, seed=51)
    models[0].params[5][1] -= 1e4  # head bias: p(class 1) is exactly 0 everywhere
    x = np.random.default_rng(14).standard_normal((12, 3))
    _, feats, logits = mlp_forward(x, models[0].params)
    assert not kernels.softmax_rows(logits)[:, 1].any()
    _, [(_, cents)] = _pseudo_label_rounds(monkeypatch, models, x, [1.0], refinement_rounds=0)
    np.testing.assert_array_equal(cents[0, 1], feats.mean(axis=0))


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
    feats = np.stack([
        np.array([per_source[0, 2], [0.0, 0.0]]),
        np.array([per_source[1, 2], [0.0, 0.0]]),
    ])
    labels = assign_pseudo_labels(feats, per_source, alpha, "per-source")
    assert labels[0] == 2  # zero distance in every source
    # second point: make classes 0 and 1 exactly tied, both better than class 2
    d = ((per_source[:, :, :] - 0.0) ** 2).sum(axis=2)  # per-source distances from origin
    combined = (alpha[:, None] * d).sum(axis=0)
    assert combined[0] != combined[1] or labels[1] == 0


def test_tie_breaks_toward_smaller_class_index():
    per_source = np.array([[[1.0, 0.0], [-1.0, 0.0]]])  # symmetric about origin
    for mode in DISTANCE_MODES:
        labels = assign_pseudo_labels(np.zeros((1, 1, 2)), per_source, np.array([1.0]), mode)
        assert labels[0] == 0


def test_single_source_reduces_to_nearest_centroid(monkeypatch):
    models = make_models(1, seed=60)
    x = np.random.default_rng(17).standard_normal((9, 3))
    labels, rounds = _pseudo_label_rounds(monkeypatch, models, x, [1.0], refinement_rounds=1)
    cents = rounds[-1][1][0]
    feats = mlp_forward(x, models[0].params)[1]
    for i in range(9):
        dists = ((feats[i] - cents) ** 2).sum(axis=1)
        assert labels[i] == int(np.argmin(dists))


def test_refinement_reaches_fixed_point_on_separated_clusters():
    rng = np.random.default_rng(23)
    x = np.vstack([rng.normal(-4, 0.2, (30, 3)), rng.normal(4, 0.2, (30, 3))])
    models = make_models(2, seed=70, arch=None)
    forward = target_forward(models, x)
    one = update_pseudo_labels(forward, [0.5, 0.5], refinement_rounds=1)
    two = update_pseudo_labels(forward, [0.5, 0.5], refinement_rounds=2)
    assert np.array_equal(one, two)


def test_empty_refined_class_keeps_previous_centroid(monkeypatch):
    # identical inputs collapse every centroid onto one feature point; all ties
    # break to class 0, so classes 1 and 2 are empty at round 1
    models = make_models(1, seed=80)
    x = np.zeros((8, 3))
    r0 = update_pseudo_labels(target_forward(models, x), [1.0], refinement_rounds=0)
    assert set(np.unique(r0)) == {0}
    _, [(_, round0), (fallback, refined)] = _pseudo_label_rounds(monkeypatch, models, x, [1.0],
                                                                 refinement_rounds=1)
    assert fallback is round0
    assert np.array_equal(refined[0, 1:], round0[0, 1:])


def test_combined_feature_distance_mode_matches_per_source_at_n1():
    models = make_models(1, seed=90)
    x = np.random.default_rng(31).standard_normal((14, 3))
    forward = target_forward(models, x)
    a = update_pseudo_labels(forward, [1.0], 1, mode="per-source")
    b = update_pseudo_labels(forward, [1.0], 1, mode="combined-feature")
    assert np.array_equal(a, b)


@pytest.mark.parametrize("alpha", [[0.5, 0.5, 7.0], [1.0]], ids=["long", "short"])
def test_refresh_rejects_an_alpha_of_another_length(alpha):
    forward = target_forward(make_models(2, seed=42), np.zeros((4, 3)))
    with pytest.raises(ShapeMismatchError, match=rf"shape \({len(alpha)},\) for 2 sources"):
        update_pseudo_labels(forward, alpha)


@pytest.mark.parametrize("alpha", [[-3.0, 4.0], [0.5, 0.6], [np.nan, 1.0]])
def test_refresh_rejects_an_alpha_off_the_simplex(alpha):
    forward = target_forward(make_models(2, seed=42), np.zeros((4, 3)))
    with pytest.raises(ValueError, match="not on the simplex"):
        update_pseudo_labels(forward, alpha)


def test_refresh_rejects_an_unknown_distance_mode():
    forward = target_forward(make_models(2, seed=42), np.zeros((4, 3)))
    with pytest.raises(ValueError, match=r"'bogus'.*per-source.*combined-feature"):
        update_pseudo_labels(forward, [0.5, 0.5], 1, mode="bogus")
    with pytest.raises(ValueError, match="distance_mode must be one of"):
        AdaptationConfig(distance_mode="bogus")


def _brute_force_labels(models, x, alpha, rounds):
    """Nearest-centroid pseudo-labels and, per point, the classes within
    rounding of the nearest, one point, source and class at a time: round-0
    centroids weighted by each source's softmax (the mean feature for a class
    with no weight), then ``rounds`` rounds of hard-assignment centroids (an
    empty class keeps its centroid). A near-tie goes to the smaller class."""
    k = models[0].num_classes
    feats, cents = [], []
    for m in models:
        f, logits = _manual_forward(m, x)
        p = _manual_softmax(logits)
        feats.append(f)
        cents.append([(p[:, c : c + 1] * f).sum(axis=0) / p[:, c].sum() if p[:, c].sum() > 0
                      else f.mean(axis=0) for c in range(k)])
    for r in range(rounds + 1):
        if r:
            cents = [[f[labels == c].mean(axis=0) if (labels == c).any() else cent[c]
                      for c in range(k)] for f, cent in zip(feats, cents)]
        labels, near = np.zeros(len(x), dtype=np.int64), []
        for i in range(len(x)):
            dists = [sum(a * np.sum((f[i] - cent[c]) ** 2)
                         for a, f, cent in zip(alpha, feats, cents)) for c in range(k)]
            tol = 1e-9 * (1.0 + max(dists))
            near.append({c for c in range(k) if dists[c] <= min(dists) + tol})
            labels[i] = min(near[-1])
    return labels, near


@st.composite
def _refresh_cases(draw):
    """Sources, target rows, a simplex alpha, a round count, and whether the
    last class is a twin of class 0 in every source's head. Some sources get
    a class whose softmax underflows to 0 on every row."""
    n, size, k = draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.integers(2, 3))
    models = make_models(n, seed=draw(st.integers(0, 10**6)), arch=tiny_arch(num_classes=k))
    twin = draw(st.booleans())
    for m in models:
        dead = draw(st.one_of(st.none(), st.integers(0, k - 1)))
        if dead is not None:
            m.params[5][dead] -= 1e4
        if twin:
            m.params[4][:, -1], m.params[5][-1] = m.params[4][:, 0], m.params[5][0]
    x = np.array(draw(st.lists(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
                               min_size=size, max_size=size)))
    w = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                               min_size=n, max_size=n)))
    if not w.any():
        w[0] = 1.0
    return models, x, w / w.sum(), draw(st.integers(0, 2)), twin


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_refresh_cases())
def test_refresh_matches_brute_force_nearest_centroid_rounds(case):
    # covers N < K and empty classes at every round; within rounding of a
    # tie either class is nearest, and the brute force takes the smaller
    models, x, alpha, rounds, twin = case
    got = update_pseudo_labels(target_forward(models, x), alpha, rounds)
    want, near = _brute_force_labels(models, x, alpha, rounds)
    for i in range(len(x)):
        assert got[i] in near[i]
        if len(near[i]) == 1:
            assert got[i] == want[i]
    if twin and rounds == 0:  # twin classes tie exactly: the last never wins
        assert (got != models[0].num_classes - 1).all()


# -- objective gradients -----------------------------------------------------------

def test_objective_gradient_through_raw_alpha_matches_finite_differences():
    models = make_models(2, seed=95)
    raw = Tensor([0.4, -0.3], requires_grad=True)
    x = np.random.default_rng(37).standard_normal((6, 3))
    q = np.eye(3)[np.random.default_rng(38).integers(0, 3, 6)]
    cfg = AdaptationConfig()

    stack = SourceStack(models)

    def f():
        t = Tape()
        loss, _ = objective(t, stack, raw, x, q, cfg)
        return loss

    loss = f()
    loss._node[0].backward(loss)
    params = [raw] + stack.extractor_params()
    analytic = [p.grad for p in params]
    numeric = finite_diff(lambda: f().item(), params)
    assert max_rel_err(analytic, numeric) < 1e-4


def test_objective_on_a_source_stack_records_the_same_node_count_for_any_n():
    x = np.random.default_rng(39).standard_normal((6, 3))
    q = np.eye(3)[np.random.default_rng(40).integers(0, 3, 6)]
    counts = []
    for n in (1, 3, 16):
        models = make_models(n, seed=96)
        raw = Tensor(np.zeros(n), requires_grad=True)
        for stack, rows in ((SourceStack(models), x), (None, target_forward(models, x).logits)):
            tape = Tape()
            objective(tape, stack, raw, rows, q, AdaptationConfig())
            counts.append(len(tape))
    # mlp, ensemble and im_loss, or no mlp node over the frozen sources'
    # cached logits (weights-only)
    assert counts == [3, 2] * 3
    # one source without raw weights (SHOT): alpha is 1, no ensemble node
    tape = Tape()
    objective(tape, SourceStack(make_models(1, seed=96)), None, x, q, AdaptationConfig())
    assert [node.op for node in tape.nodes] == ["mlp", "im_loss"]


def test_source_stack_views_follow_in_place_updates():
    models = make_models(3, seed=97)
    stack = SourceStack(models)
    stack.params[0].values -= 1.0  # how SgdMomentum.step updates parameters
    for m, view in zip(models, stack.models):
        np.testing.assert_array_equal(view.params[0], m.params[0] - 1.0)
    assert not any(t.requires_grad for t in stack.params[4:])  # the heads are constants


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
            assert np.array_equal(a, b)
    assert result.metrics == []


def test_adapt_does_not_mutate_inputs_and_freezes_clones_only():
    model, data = _trained_source()
    before = [p.copy() for p in model.params]
    result = adapt([model], data.inputs_only(), AdaptationConfig(epochs=2, seed=1))
    for p, b in zip(model.params, before):
        assert np.array_equal(p, b)
    assert not any(np.shares_memory(a, b) for a, b in zip(model.params, result.models[0].params))
    assert classifier_checksum(result.models[0]) == classifier_checksum(model)


def test_alpha_starts_uniform_and_follows_the_raw_weights():
    from conftest import tiny_arch
    from decision.models import SourceModel

    model, data = _trained_source()
    models = [model] + [SourceModel.init(f"u{j}", tiny_arch(input_dim=2, num_classes=3), j)
                        for j in range(3)]
    assert adapt(models, data.inputs_only(), AdaptationConfig(epochs=0)).alpha.tolist() \
        == [0.25] * 4
    seen = []
    result = adapt(models, data.inputs_only(), AdaptationConfig(epochs=1, seed=0),
                   on_step=seen.append)
    # alpha is recomputed from the raw weights after every step, and the
    # result and the metrics rows carry the last one
    assert len(seen) == 3 and not np.array_equal(seen[0], seen[1])
    assert np.array_equal(result.alpha, seen[-1])
    assert result.metrics[-1]["alpha"] == seen[-1].tolist()


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


@st.composite
def _adapt_cases(draw):
    """Sources, target rows, a config and whether the extractors train, at the
    loop's edge shapes: one source, one target row, a batch of one row, and a
    batch as large as or larger than the target."""
    n, k, size = draw(st.integers(1, 3)), draw(st.integers(2, 3)), draw(st.integers(1, 40))
    models = make_models(n, seed=draw(st.integers(0, 10**6)), arch=tiny_arch(num_classes=k))
    x = np.random.default_rng(draw(st.integers(0, 10**6))).standard_normal((size, 3))
    cfg = AdaptationConfig(epochs=draw(st.integers(1, 2)),
                           batch_size=draw(st.sampled_from([1, size, size + 7])),
                           seed=draw(st.integers(0, 100)))
    return models, x, cfg, draw(st.booleans())


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_adapt_cases())
def test_adapt_at_edge_shapes_steps_on_the_simplex_and_repeats_bit_for_bit(case):
    models, x, cfg, optimize_features = case
    eval_set = LabeledSet(x, np.arange(len(x)) % models[0].num_classes,
                          models[0].num_classes)
    heads = [classifier_checksum(m) for m in models]
    runs = []
    for _ in range(2):
        trace = []
        result = adapt(models, eval_set.inputs_only(), cfg, eval_set=eval_set,
                       on_step=trace.append, optimize_features=optimize_features)
        runs.append((result, trace))
    (result, trace), (again, again_trace) = runs
    assert len(trace) == cfg.epochs * -(-len(x) // cfg.batch_size)
    for alpha in trace:
        assert alpha.shape == (len(models),)
        assert alpha.min() >= 0.0 and abs(alpha.sum() - 1.0) <= 1e-9
    assert [row["epoch"] for row in result.metrics] == list(range(1, cfg.epochs + 1))
    for row in result.metrics:
        assert all(math.isfinite(row[key]) for key in ("L_ent", "L_div", "L_pl", "L_tot"))
    assert [classifier_checksum(m) for m in result.models] == heads
    # a second run is bit-identical
    np.testing.assert_array_equal(np.array(again_trace), np.array(trace))
    assert again.metrics == result.metrics
    for m, m_again in zip(result.models, again.models):
        for p, p_again in zip(m.params, m_again.params):
            np.testing.assert_array_equal(p_again, p)


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


def test_adapt_checks_the_simplex_after_every_step(monkeypatch):
    # valid at the start, NaN from the first step on: the per-step check raises
    model, data = _trained_source()
    calls = []

    def project(raw):
        calls.append(raw.copy())
        return np.full(len(raw), 0.5 if len(calls) == 1 else np.nan)

    monkeypatch.setattr(adaptation, "alpha_project", project)
    steps = []
    with pytest.raises(AssertionError, match="simplex"):
        adapt([model, copy.deepcopy(model)], data.inputs_only(),
              AdaptationConfig(epochs=1, seed=2), on_step=steps.append)
    assert len(calls) == 2 and steps == []


def test_adapted_models_are_views_of_the_optimizer_buffer(monkeypatch):
    # the returned models must follow the steps: views taken before the
    # optimizer packed the stacked values would still hold the inputs
    built = []

    class Recording(SgdMomentum):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(adaptation, "SgdMomentum", Recording)
    sources = [_trained_source(seed)[0] for seed in range(3)]
    result = adapt(sources, _blob_domain(seed=7, n=70).inputs_only(),
                   AdaptationConfig(epochs=2, batch_size=8, seed=4))
    (opt,) = built
    extractors = opt.groups[0].params
    assert len(extractors) == 4
    for j, (model, source) in enumerate(zip(result.models, sources)):
        for got, stacked, before in zip(model.params, extractors, source.params):
            np.testing.assert_array_equal(got, stacked.values[j])
            assert np.shares_memory(got, stacked.values)
            assert not np.array_equal(got, before)  # the extractors moved


def test_refresh_on_features_that_overflow_raises_divergence_naming_the_refresh():
    # finite parameters whose features overflow: numpy's overflow and invalid
    # warnings stay inside the refresh (the suite turns RuntimeWarning into an
    # error), and its distance check raises
    model, data = _trained_source()
    model.params[2] *= 1e307
    with pytest.raises(DivergenceError,
                       match=r"^epoch 1, refresh: pseudo-label distances not finite$"):
        adapt([model], data.inputs_only(), AdaptationConfig(epochs=1, seed=0))
    with pytest.raises(DivergenceError, match="pseudo-label distances not finite"):
        update_pseudo_labels(target_forward([model], data.x), [1.0], 0, "combined-feature")


def test_refresh_on_logits_that_overflow_raises_divergence_naming_the_softmax():
    # finite features but a head whose logits overflow: the softmax rows are
    # NaN, round 0 would give every class its fallback centroid and the
    # distances would stay finite, so the softmax is checked on its own
    model, data = _trained_source()
    model.params[4][...] = 1e308 * np.sign(model.params[4])
    with pytest.raises(DivergenceError,
                       match=r"^epoch 1, refresh: pseudo-label softmax not finite$"):
        adapt([model], data.inputs_only(), AdaptationConfig(epochs=1, seed=0))
    with pytest.raises(DivergenceError, match="pseudo-label softmax not finite"):
        target_forward([model], data.x)


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
            assert np.array_equal(a, b)


def test_weights_only_computes_no_extractor_gradients(monkeypatch):
    model, data = _trained_source()
    sizes = []
    backward = Tape.backward

    def counting(tape, root):
        sizes.append(len(tape.nodes))
        return backward(tape, root)

    monkeypatch.setattr(Tape, "backward", counting)
    weights_only_adapt([model, copy.deepcopy(model)], data.inputs_only(),
                       AdaptationConfig(epochs=2, seed=3))
    assert sizes == [2] * 6  # 90 rows in 32-row batches: ensemble, im_loss
    # frozen extractors stay off the tape: their cached logits are a
    # constant, and only the weights receive a gradient
    raw = Tensor(np.zeros(2), requires_grad=True)
    tape = Tape()
    loss, _ = objective(tape, None, raw, target_forward([model, model], data.x[:8]).logits,
                        np.eye(model.num_classes)[np.zeros(8, int)], AdaptationConfig())
    tape.backward(loss)
    assert [node.op for node in tape.nodes] == ["ensemble", "im_loss"]
    assert raw.grad is not None


def test_one_source_adapt_records_two_nodes_and_steps_only_the_extractors(monkeypatch):
    # SHOT's alpha is the constant 1: no raw weight, no ensemble node
    built, ops = [], []

    class Recording(SgdMomentum):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    backward = Tape.backward

    def recording(tape, root):
        ops.append([node.op for node in tape.nodes])
        return backward(tape, root)

    model, data = _trained_source()
    monkeypatch.setattr(adaptation, "SgdMomentum", Recording)
    monkeypatch.setattr(Tape, "backward", recording)
    result = adapt([model], data.inputs_only(), AdaptationConfig(epochs=2, seed=3))
    assert ops == [["mlp", "im_loss"]] * 6  # 90 rows in 32-row batches
    (opt,) = built
    (group,) = opt.groups  # no raw-weight group
    assert [p.values.shape for p in group.params] == [(1, *a.shape) for a in model.params[:4]]
    assert result.alpha.tolist() == [1.0]


@pytest.mark.parametrize("n", [1, 3])
def test_weights_only_runs_no_forward_after_the_first_refresh(monkeypatch, n):
    # the first refresh runs each source's forward of the eval rows and of
    # the target; every step then reads the cached target logits
    calls, at_refresh = [], []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    refresh = adaptation.update_pseudo_labels

    def marking(*args):
        at_refresh.append(len(calls))
        return refresh(*args)

    sources = [_trained_source(seed)[0] for seed in range(n)]
    monkeypatch.setattr(Tape, "mlp", counted(Tape.mlp))
    for module in (adaptation, models_mod, autodiff):
        monkeypatch.setattr(module, "mlp_forward", counted(mlp_forward))
    monkeypatch.setattr(adaptation, "update_pseudo_labels", marking)
    weights_only_adapt(sources, _blob_domain(seed=7, n=70).inputs_only(),
                       AdaptationConfig(epochs=3, batch_size=8, seed=4),
                       eval_set=_blob_domain(seed=8, n=50))
    assert calls == ["mlp_forward"] * (2 * n)
    assert at_refresh == [2 * n] * 3


def test_weights_only_run_with_a_minus_inf_logit_diverges_at_the_refresh():
    # a -inf logit that is no row's maximum leaves the softmax finite; the
    # steps read the cached logits unchecked, so the refresh checks them
    model, data = _trained_source()
    model.params[3][0] = 1e10  # feature 0 is about 1e10 on every row,
    model.params[4][0, 1] = -1e297  # so class 1's logit is about -1e307,
    model.params[5][1] = -1.79e308  # and this bias takes it below -1.8e308
    with np.errstate(over="ignore"):
        logits = model.logits(data.x)
    assert np.isneginf(logits[:, 1]).all() and np.isfinite(logits[:, [0, 2]]).all()
    with pytest.raises(DivergenceError,
                       match=r"^epoch 1, refresh: pseudo-label logits not finite$"):
        weights_only_adapt([model, copy.deepcopy(model)], data.inputs_only(),
                           AdaptationConfig(epochs=1, seed=0))


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


def _adapt_alone(models, target, cfg, eval_set, optimize_features):
    """The reference adaptation loop: pseudo-labels at each epoch's start, a
    seeded permutation sliced into batches with the short last batch kept, one
    tape per step, the lr schedule, momentum SGD, alpha projected after every
    step, and per-epoch rows of the step terms summed in step order. Returns
    (models, alpha, metrics rows, alpha after every step).

    Every step records a forward and an ensemble node: at n = 1 it keeps the
    raw weight ``adapt`` drops, and with frozen extractors it runs the batch's
    forward where ``adapt`` reads cached logits, so it pins the bits of both."""
    stack = SourceStack(models, requires_grad=optimize_features)
    raw = Tensor(np.zeros(len(models)), requires_grad=True)
    alpha = alpha_project(raw.values)
    groups = []
    if optimize_features:
        groups.append(ParamGroup(stack.extractor_params(), cfg.lr_backbone, cfg.weight_decay))
    groups.append(ParamGroup([raw], cfg.lr_alpha, 0.0))
    opt = SgdMomentum(groups, momentum=cfg.momentum)
    n = len(target)
    n_batches = -(-n // cfg.batch_size)
    step, metrics, trace = 0, [], []
    for epoch in range(cfg.epochs):
        labels = update_pseudo_labels(target_forward(stack.models, target.x), alpha,
                                      cfg.refinement_rounds, cfg.distance_mode)
        q = np.eye(stack.models[0].num_classes)[labels]
        perm = np.random.default_rng(cfg.seed * 1_000_003 + epoch).permutation(n)
        sums = dict.fromkeys(("L_ent", "L_div", "L_pl", "L_tot"), 0.0)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            tape = Tape()
            l_tot, terms = objective(tape, stack, raw, target.x[idx], q[idx], cfg)
            tape.backward(l_tot)
            opt.step(lr_factor=lr_schedule(1.0, step / max(1, cfg.epochs * n_batches - 1)))
            opt.zero_grad()
            alpha = alpha_project(raw.values)
            trace.append(alpha.copy())
            for key in sums:
                sums[key] += terms[key]
            step += 1
        row = {key: sums[key] / n_batches for key in sums}
        row["epoch"] = epoch + 1
        row["alpha"] = [float(a) for a in alpha]
        row["target_accuracy"] = accuracy(stack.models, alpha, eval_set)
        metrics.append(row)
    return stack.models, alpha, metrics, trace


@pytest.mark.parametrize("optimize_features", [True, False], ids=["adapt", "weights-only"])
@pytest.mark.parametrize("n", [1, 3])
def test_adapt_is_bit_identical_to_the_reference_loop(n, optimize_features):
    # 70 target rows in 8-row batches: nine steps per epoch, the last of 6 rows
    sources = [_trained_source(seed)[0] for seed in range(n)]
    target = _blob_domain(seed=7, n=70)
    cfg = AdaptationConfig(epochs=3, batch_size=8, seed=4)
    trace = []
    run = adapt if optimize_features else weights_only_adapt
    result = run(sources, target.inputs_only(), cfg, eval_set=target, on_step=trace.append)
    models, alpha, metrics, ref_trace = _adapt_alone(sources, target.inputs_only(), cfg,
                                                     target, optimize_features)
    assert len(trace) == len(ref_trace) == 27
    for got, want in zip(trace, ref_trace):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(result.alpha, alpha)
    assert result.metrics == metrics
    for got, want in zip(result.models, models):
        for a, b in zip(got.params, want.params):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("optimize_features", [True, False], ids=["adapt", "weights-only"])
def test_eval_set_labels_reach_only_target_accuracy(optimize_features):
    # the same run scored against permuted labels: alpha after every step, the
    # adapted parameters and every loss term are bit-equal; only the reported
    # accuracy may differ
    sources = [_trained_source(seed)[0] for seed in range(2)]
    target = _blob_domain(seed=7, n=70)
    permuted = LabeledSet(target.x, np.random.default_rng(5).permutation(target.y),
                          target.num_classes)
    cfg = AdaptationConfig(epochs=3, batch_size=8, seed=4)
    run = adapt if optimize_features else weights_only_adapt
    traces = ([], [])
    a, b = (run(sources, target.inputs_only(), cfg, eval_set=labels, on_step=trace.append)
            for labels, trace in zip((target, permuted), traces))
    assert len(traces[0]) == len(traces[1]) == 27
    for got, want in zip(*traces):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(a.alpha, b.alpha)
    for got, want in zip(a.models, b.models):
        for x, y in zip(got.params, want.params):
            np.testing.assert_array_equal(x, y)

    def without_accuracy(rows):
        return [{k: v for k, v in row.items() if k != "target_accuracy"} for row in rows]

    assert len(a.metrics) == 3
    assert without_accuracy(a.metrics) == without_accuracy(b.metrics)
    assert [r["target_accuracy"] for r in a.metrics] != [r["target_accuracy"] for r in b.metrics]


def _count_forwards(monkeypatch, *inputs):
    """Per input array of ``inputs``, the number of numpy model forwards over
    it (matched by identity), through the forward bindings of ``adaptation``
    and ``models``: one forward of one source counts once."""
    counts = [0] * len(inputs)

    def counting(x, params):
        for i, rows in enumerate(inputs):
            counts[i] += x is rows
        return mlp_forward(x, params)

    monkeypatch.setattr(adaptation, "mlp_forward", counting)
    monkeypatch.setattr(models_mod, "mlp_forward", counting)
    return counts


@pytest.mark.parametrize("optimize_features", [True, False], ids=["adapt", "weights-only"])
@pytest.mark.parametrize("n", [1, 3])
def test_one_forward_of_the_target_per_parameter_state(monkeypatch, n, optimize_features):
    # training extractors: each source's forward of the whole target runs once
    # per epoch, shared by the refresh and the epoch's mean prediction, and of
    # the eval rows once per epoch; frozen ones: each runs once per run
    sources = [_trained_source(seed)[0] for seed in range(n)]
    target = _blob_domain(seed=7, n=70).inputs_only()
    eval_set = _blob_domain(seed=8, n=50)
    counts = _count_forwards(monkeypatch, target.x, eval_set.x)
    run = adapt if optimize_features else weights_only_adapt
    run(sources, target, AdaptationConfig(epochs=3, batch_size=8, seed=4), eval_set=eval_set)
    per_source = 3 if optimize_features else 1
    assert counts == [n * per_source, n * per_source]


@pytest.mark.parametrize("n", [1, 3])
def test_mean_prediction_on_shared_logits_is_bit_equal_to_a_fresh_forward(n):
    models = make_models(n, seed=12)
    x = np.random.default_rng(3).standard_normal((40, 3))
    alpha = alpha_project(np.random.default_rng(4).standard_normal(n))
    np.testing.assert_array_equal(
        adaptation.mean_prediction(adaptation.target_forward(models, x).logits, alpha),
        kernels.softmax_rows(aggregate_logits(models, alpha, x)).mean(0))


# -- soft ensemble --------------------------------------------------------------------

def test_soft_ensemble_of_identical_models_is_single_model():
    model = make_models(1, seed=99)[0]
    x = np.random.default_rng(41).standard_normal((10, 3))
    np.testing.assert_array_equal(
        predict(soft_ensemble_predict(source_logits([model, copy.deepcopy(model)], x))),
        predict(model.logits(x))
    )


def test_soft_ensemble_averages_probabilities():
    a = constant_logit_model([math.log(0.6), math.log(0.4)])
    b = constant_logit_model([math.log(0.2), math.log(0.8)])
    scores = soft_ensemble_predict(source_logits([a, b], np.zeros((4, 2))))
    np.testing.assert_allclose(scores, [[0.8, 1.2]] * 4, rtol=1e-14)  # twice the mean
    assert predict(scores).tolist() == [1, 1, 1, 1]  # mean (0.4, 0.6)


def test_soft_ensemble_tie_breaks_toward_smallest_index():
    a = constant_logit_model([50.0, 0.0])
    b = constant_logit_model([0.0, 50.0])
    labels = predict(soft_ensemble_predict(source_logits([a, b], np.zeros((2, 2)))))
    assert labels.tolist() == [0, 0]


@pytest.mark.parametrize("n", [1, 3, 16])
def test_stacked_soft_ensemble_is_bit_identical_to_the_running_sum(n):
    # SHOT-Ens once added each model's softmax to a running sum, model by model
    models = make_models(n, seed=98)
    x = np.random.default_rng(42).standard_normal((300, 3)) * 3.0
    running = kernels.softmax_rows(models[0].logits(x))
    for m in models[1:]:
        running = running + kernels.softmax_rows(m.logits(x))
    assert soft_ensemble_predict(source_logits(models, x)).tobytes() == running.tobytes()


def test_prediction_label_entropy_bounds():
    uniform = constant_logit_model([0.0, 0.1])
    x = np.zeros((10, 2))
    h = prediction_label_entropy([uniform], [1.0], x)
    assert h == 0.0  # constant model predicts one class everywhere
