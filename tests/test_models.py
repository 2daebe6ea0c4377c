import copy
import json
import math

import numpy as np
import pytest

from decision.autodiff import DivergenceError, ShapeMismatchError, Tape, Tensor, mlp_forward
from decision.data import DomainSpec, LabeledSet, generate_domain
from decision.models import (CheckpointError, ModelConfig, SourceModel, SourceTrainConfig,
                             aggregate_logits, check_compatible,
                             classifier_checksum, load_checkpoint, predict,
                             save_checkpoint, smoothed_targets, train_source,
                             weighted_logits)
from decision.optim import ParamGroup, SgdMomentum, lr_schedule

from conftest import constant_logit_model, make_models, tiny_arch


def test_zero_weight_network_maps_to_zero_features():
    m = constant_logit_model([0.0, 0.0])
    x = np.random.default_rng(0).standard_normal((5, 2))
    assert np.array_equal(mlp_forward(x, m.params)[1], np.zeros((5, 3)))


def test_batch_rows_are_independent():
    m = make_models(1, seed=5)[0]
    x = np.random.default_rng(1).standard_normal((2, 3))
    # BLAS may route batch-1 and batch-2 through different code paths
    np.testing.assert_allclose(mlp_forward(x[:1], m.params)[1], mlp_forward(x, m.params)[1][:1],
                               rtol=1e-14)


def test_feature_dim_must_match_across_sources():
    a = SourceModel.init("a", tiny_arch(feature_dim=3), 0)
    b = SourceModel.init("b", tiny_arch(feature_dim=3), 1)
    check_compatible([a, b])
    c = SourceModel.init("c", tiny_arch(feature_dim=5), 2)
    with pytest.raises(ShapeMismatchError, match="feature dim"):
        check_compatible([a, c])
    d = SourceModel.init("d", tiny_arch(num_classes=2), 3)
    with pytest.raises(ShapeMismatchError, match="class count"):
        check_compatible([a, d])


def test_aggregate_degenerate_and_vertex_cases():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 3))
    m1, m2 = make_models(2, seed=9)
    np.testing.assert_array_equal(aggregate_logits([m1], [1.0], x), m1.logits(x))
    np.testing.assert_allclose(
        aggregate_logits([m1, m2], [1.0, 0.0], x), m1.logits(x), atol=1e-15
    )
    with pytest.raises(ValueError, match="alpha length"):
        aggregate_logits([m1, m2], [1.0], x)


@pytest.mark.parametrize("alpha", [[0.5, 0.5, 3.0], [1.0]], ids=["long", "short"])
def test_weighted_logits_rejects_a_weight_count_other_than_the_source_count(alpha):
    logits = np.random.default_rng(6).standard_normal((2, 4, 3))
    with pytest.raises(ValueError, match="zip"):
        weighted_logits(alpha, logits)
    with pytest.raises(ValueError, match="zip"):
        weighted_logits(alpha, (z for z in logits))


def test_opposite_logits_cancel():
    hi = constant_logit_model([3.0, -1.0])
    lo = constant_logit_model([-3.0, 1.0])
    x = np.zeros((3, 2))
    np.testing.assert_allclose(
        aggregate_logits([hi, lo], [0.5, 0.5], x), np.zeros((3, 2)), atol=1e-15
    )


def test_aggregate_is_linear_in_alpha():
    rng = np.random.default_rng(3)
    models = make_models(3, seed=11)
    x = rng.standard_normal((6, 3))
    a = rng.dirichlet(np.ones(3))
    b = rng.dirichlet(np.ones(3))
    mid = aggregate_logits(models, (a + b) / 2, x)
    avg = (aggregate_logits(models, a, x) + aggregate_logits(models, b, x)) / 2
    np.testing.assert_allclose(mid, avg, atol=1e-12)


def test_softmax_argmax_equals_logits_argmax():
    from decision.kernels import softmax_rows

    rng = np.random.default_rng(4)
    logits = rng.standard_normal((50, 4)) * 10
    np.testing.assert_array_equal(
        np.argmax(softmax_rows(logits), axis=1), predict(logits)
    )


# -- label smoothing ----------------------------------------------------------

def _smoothing_ce(logits, labels, eps):
    """The source-training loss: im_loss against smoothed targets."""
    logits = np.asarray(logits, dtype=np.float64)
    q = smoothed_targets(labels, logits.shape[-1], eps)
    return Tape().im_loss(Tensor(logits[None]), q[None], 0.0, 0.0, 1.0)[0]


def test_smoothing_ce_uniform_prediction():
    loss = _smoothing_ce(np.zeros((3, 4)), [0, 1, 2], 0.0)
    assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)


def test_smoothing_ce_confident_limit():
    logits = np.zeros((2, 4))
    logits[:, 1] = 50.0
    loss = _smoothing_ce(logits, [1, 1], 0.0)
    assert 0.0 <= loss.item() < 1e-20


def test_smoothing_ce_equals_target_entropy_at_matched_prediction():
    # eps=0.1, K=10: prediction exactly q = 0.9*onehot + 0.01 gives loss H(q)
    eps, k = 0.1, 10
    q = np.full(k, eps / k)
    q[3] += 1.0 - eps
    entropy = -float(np.sum(q * np.log(q)))  # closed-form oracle
    assert entropy == pytest.approx(0.5002880350577,  abs=1e-12)
    loss = _smoothing_ce(np.log(q)[None, :], [3], eps)
    assert loss.item() == pytest.approx(entropy, rel=1e-12)


def test_smoothing_ce_rejects_bad_labels_and_eps():
    with pytest.raises(ValueError, match="label"):
        _smoothing_ce(np.zeros((1, 3)), [3], 0.0)
    with pytest.raises(ValueError, match="label"):
        smoothed_targets(np.array([[0, 1], [2, -1]]), 3, 0.0)
    with pytest.raises(ValueError, match="smoothing"):
        _smoothing_ce(np.zeros((1, 3)), [0], 1.0)


def test_smoothed_targets_match_the_per_row_construction():
    # (n, b) labels give (n, b, K) targets equal to the onehot-plus-eps/K rows bit for bit
    labels = np.random.default_rng(12).integers(0, 3, (4, 7))
    for eps in (0.0, 0.1, 0.3):
        got = smoothed_targets(labels, 3, eps)
        for j, row in enumerate(labels):
            q = np.full((7, 3), eps / 3)
            q[np.arange(7), row] += 1.0 - eps
            np.testing.assert_array_equal(got[j], q)


# -- source training ----------------------------------------------------------

def _blobs(seed=0):
    return generate_domain(
        DomainSpec("gaussian-mixture", n=120, seed=seed, noise_std=0.15)
    )


def test_train_source_fits_separable_blobs():
    data = _blobs()
    model = SourceModel.init("blobs", tiny_arch(input_dim=2, num_classes=3), 0)
    (metrics,) = train_source([model], [data], SourceTrainConfig(epochs=30), [1])
    assert metrics["train_accuracy"] >= 0.99


def test_train_source_single_class_degenerates_to_smoothing_floor():
    data = _blobs()
    data.y[:] = 1
    model = SourceModel.init("one", tiny_arch(input_dim=2, num_classes=3), 0)
    (metrics,) = train_source([model], [data], SourceTrainConfig(epochs=100), [1])
    assert metrics["train_accuracy"] == 1.0
    # with eps=0.1 the loss approaches H(q) of the smoothed one-hot target
    q = np.array([0.1 / 3, 0.9 + 0.1 / 3, 0.1 / 3])
    floor = -float(np.sum(q * np.log(q)))
    assert floor <= metrics["epoch_losses"][-1] < floor + 0.01


def test_train_source_is_deterministic():
    def run():
        model = SourceModel.init("det", tiny_arch(input_dim=2, num_classes=3), 7)
        train_source([model], [_blobs(3)], SourceTrainConfig(epochs=3), [7])
        return [p.copy() for p in model.params]

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


def test_train_source_rejects_empty_dataset():
    from decision.data import LabeledSet

    model = SourceModel.init("e", tiny_arch(input_dim=2, num_classes=3), 0)
    empty = LabeledSet(np.zeros((0, 2)), np.zeros(0, dtype=int), 3)
    with pytest.raises(ValueError, match="empty"):
        train_source([model], [empty], SourceTrainConfig(), [0])
    other = SourceModel.init("f", tiny_arch(input_dim=2, num_classes=3), 1)
    short = LabeledSet(_blobs(1).x[:60], _blobs(1).y[:60], 3)
    with pytest.raises(ValueError, match="differ in size"):
        train_source([model, other], [_blobs(0), short], SourceTrainConfig(), [0, 1])
    wide = SourceModel.init("w", tiny_arch(input_dim=2, hidden_dim=6, num_classes=3), 2)
    with pytest.raises(ShapeMismatchError, match="cannot stack"):
        train_source([model, wide], [_blobs(0), _blobs(1)], SourceTrainConfig(), [0, 1])


def _train_alone(model, data, cfg, shuffle_seed):
    """The reference trainer for one model, as a stack of one: per-epoch seeded
    permutation, 32-row slices with the short last batch kept, smoothed targets,
    the lr schedule, momentum SGD and the per-epoch mean of the batch losses.
    Copies the trained rows back into the model's arrays."""
    params = [Tensor(p[None].copy(), requires_grad=True) for p in model.params]
    opt = SgdMomentum([ParamGroup(params, cfg.lr, cfg.weight_decay)], momentum=cfg.momentum)
    n_batches = -(-len(data) // cfg.batch_size)
    step, epoch_losses = 0, []
    for epoch in range(cfg.epochs):
        perm = np.random.default_rng(shuffle_seed * 1_000_003 + epoch).permutation(len(data))
        losses = []
        for start in range(0, len(data), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            t = Tape()
            q = smoothed_targets(data.y[idx], model.num_classes, cfg.label_smoothing)
            loss = t.im_loss(t.mlp(data.x[idx], params), q[None], 0.0, 0.0, 1.0)[0]
            t.backward(loss)
            opt.step(lr_factor=lr_schedule(1.0, step / max(1, cfg.epochs * n_batches - 1)))
            opt.zero_grad()
            losses.append(loss.item())
            step += 1
        epoch_losses.append(float(np.mean(losses)))
    for p, t in zip(model.params, params):
        p[...] = t.values[0]
    return epoch_losses


def test_stacked_training_is_bit_identical_to_training_each_model_alone():
    # 70 rows in 32-row batches: every epoch ends in a 6-row batch
    cfg = SourceTrainConfig(epochs=4, batch_size=32)
    arch = ModelConfig(input_dim=2, num_classes=3)  # the default layer widths
    data = [generate_domain(DomainSpec("gaussian-mixture", n=70, seed=s, noise_std=0.3))
            for s in (20, 21, 22)]
    seeds = [5, 9, 2]

    def fresh():
        return [SourceModel.init(f"m{j}", arch, 40 + j) for j in range(3)]

    stacked = fresh()
    got = train_source(stacked, data, cfg, seeds)
    alone, reference = fresh(), fresh()
    for j in range(3):
        (ref,) = train_source([alone[j]], [data[j]], cfg, [seeds[j]])
        assert got[j]["epoch_losses"] == ref["epoch_losses"]
        assert got[j]["train_accuracy"] == ref["train_accuracy"]
        assert got[j]["epoch_losses"] == _train_alone(reference[j], data[j], cfg, seeds[j])
        for a, b, c in zip(stacked[j].params, alone[j].params, reference[j].params):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)


@pytest.mark.parametrize("n", [1, 4, 16])
def test_train_source_records_no_tape(n, monkeypatch):
    # the supervised graph never changes (mlp, then cross-entropy against fixed
    # targets), so its step runs the forward and the analytic backward itself
    tapes, steps = [], []
    init, step = Tape.__init__, SgdMomentum.step
    monkeypatch.setattr(Tape, "__init__", lambda tape: tapes.append(tape) or init(tape))
    monkeypatch.setattr(SgdMomentum, "step",
                        lambda opt, **kw: steps.append(kw) or step(opt, **kw))
    arch = tiny_arch(input_dim=2, num_classes=3)
    models = [SourceModel.init(f"m{j}", arch, j) for j in range(n)]
    data = [_blobs(j) for j in range(n)]
    train_source(models, data, SourceTrainConfig(epochs=1), list(range(n)))
    assert tapes == []
    assert len(steps) == 4  # 120 rows in 32-row batches


def test_train_source_names_the_source_whose_logits_overflow():
    # model 1's features sit at 1e308 and its head multiplies them by 1e308:
    # its pre-activations stay finite, its logits do not
    arch = tiny_arch(input_dim=2, num_classes=3)
    models = [SourceModel.init(f"m{j}", arch, j) for j in range(3)]
    models[1].params[3][...] = 1e308
    models[1].params[4][...] = 1e308
    before = [p.copy() for m in models for p in m.params]
    # no errstate: a numpy overflow warning would fail the test (warnings are errors)
    with pytest.raises(DivergenceError, match=r"^epoch 1, step 1: logits not finite in source 1$"):
        train_source(models, [_blobs(j) for j in range(3)], SourceTrainConfig(epochs=1),
                     [0, 1, 2])
    for p, b in zip((p for m in models for p in m.params), before):
        np.testing.assert_array_equal(p, b)  # the models are written back only at the end


def test_train_source_names_a_pre_activation_the_relu_hides():
    # every input is negative and every first-layer weight 1e308: the
    # pre-activations are -inf, which the relu turns into 0 and finite logits
    model = SourceModel.init("m", tiny_arch(input_dim=2, num_classes=3), 0)
    model.params[0][...] = 1e308
    rng = np.random.default_rng(3)
    data = LabeledSet(-1.0 - np.abs(rng.standard_normal((40, 2))), rng.integers(0, 3, 40), 3)
    with np.errstate(all="ignore"):
        assert np.isfinite(model.logits(data.x)).all()
        assert (mlp_forward(data.x, model.params)[0] == -np.inf).all()
        with pytest.raises(DivergenceError,
                           match=r"^epoch 1, step 1: pre-activation not finite in source 0$"):
            train_source([model], [data], SourceTrainConfig(epochs=1), [0])


# -- checkpoints ---------------------------------------------------------------

def test_checkpoint_roundtrip_and_byte_stability(tmp_path):
    model = SourceModel.init("ckpt", tiny_arch(), 13)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(model, p1)
    save_checkpoint(model, p2)
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert doc["version"] == "decision-ckpt-v2"
    assert doc["domain"] == "ckpt"
    assert "label_smoothing" not in doc
    loaded = load_checkpoint(p1)
    for a, b in zip(loaded.params, model.params):
        assert np.array_equal(a, b)


def test_checkpoint_version_is_enforced(tmp_path):
    model = SourceModel.init("v", tiny_arch(), 1)
    path = tmp_path / "m.json"
    save_checkpoint(model, path)
    doc = json.loads(path.read_text())
    doc["version"] = "decision-ckpt-v0"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def _saved_doc(tmp_path):
    path = tmp_path / "m.json"
    save_checkpoint(SourceModel.init("v", tiny_arch(), 1), path)
    return path, json.loads(path.read_text())


def test_checkpoint_missing_parameter_is_named(tmp_path):
    path, doc = _saved_doc(tmp_path)
    del doc["params"]["extractor.b2"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=r"m\.json.*'extractor\.b2'"):
        load_checkpoint(path)
    path.write_text(json.dumps(doc)[:-40])  # truncated
    with pytest.raises(CheckpointError, match=r"m\.json: not a JSON checkpoint"):
        load_checkpoint(path)


def test_non_finite_parameters_are_rejected(tmp_path):
    params = SourceModel.init("f", tiny_arch(), 0).params
    params[3][1] = np.nan
    with pytest.raises(ValueError, match="'extractor.b2' is not finite"):
        SourceModel("f", params)
    path, doc = _saved_doc(tmp_path)
    doc["params"]["classifier.w"]["values"][0] = float("inf")
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=r"m\.json: parameter 'classifier\.w' is not finite"):
        load_checkpoint(path)


def test_checkpoint_shapes_must_chain(tmp_path):
    path, doc = _saved_doc(tmp_path)
    # a (3, 4) head after a 3-dim feature layer is consistent on its own, but
    # its 4 classes disagree with the (3,) head bias
    w = doc["params"]["classifier.w"]
    w["shape"], w["values"] = [3, 4], [0.0] * 12
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"m\.json.*'classifier\.b'.*\(3,\)"):
        load_checkpoint(path)
    w["shape"] = [4, 3]  # 12 values, but the feature layer has 3 outputs
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"'classifier\.w'.*\(4, 3\)"):
        load_checkpoint(path)


def test_tape_mlp_for_one_model_and_for_a_stack():
    from decision.models import SourceStack

    models = make_models(3, seed=8)
    x = np.random.default_rng(9).standard_normal((5, 3))
    t1, tn = Tape(), Tape()
    stacked = tn.mlp(x, SourceStack(models).params).values
    assert stacked.shape == (3, 5, 3)
    for j, m in enumerate(models):
        single = (t1 if j == 0 else Tape()).mlp(x, SourceStack([m]).params).values
        assert single.shape == (1, 5, 3)
        np.testing.assert_allclose(single[0], m.logits(x), rtol=1e-14)
        np.testing.assert_allclose(stacked[j], single[0], rtol=1e-14)
    ops = [[n.op for n in t.nodes] for t in (t1, tn)]
    assert ops[0] == ops[1] == ["mlp"]
    with pytest.raises(ShapeMismatchError, match="input dim 2 != 3"):
        Tape().mlp(x[:, :2], SourceStack(models).params)


def test_frozen_classifier_checksum_is_parameter_sensitive():
    model = SourceModel.init("sum", tiny_arch(), 3)
    before = classifier_checksum(model)
    assert classifier_checksum(copy.deepcopy(model)) == before
    model.params[5][0] += 1e-12  # the head bias
    assert classifier_checksum(model) != before
