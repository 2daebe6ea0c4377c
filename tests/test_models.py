import copy
import json
import math

import numpy as np
import pytest

from decision.autodiff import ShapeMismatchError, Tape, Tensor
from decision.data import DomainSpec, generate_domain
from decision.models import (CheckpointError, SourceModel, SourceTrainConfig,
                             aggregate_logits, check_compatible,
                             classifier_checksum, label_smoothing_ce,
                             load_checkpoint, predict,
                             save_checkpoint, tape_logits, train_source)

from conftest import constant_logit_model, make_models, tiny_arch


def test_zero_weight_network_maps_to_zero_features():
    m = constant_logit_model([0.0, 0.0])
    x = np.random.default_rng(0).standard_normal((5, 2))
    assert np.array_equal(m.features(x), np.zeros((5, 3)))


def test_batch_rows_are_independent():
    m = make_models(1, seed=5)[0]
    x = np.random.default_rng(1).standard_normal((2, 3))
    # BLAS may route batch-1 and batch-2 through different code paths
    np.testing.assert_allclose(m.features(x[:1]), m.features(x)[:1], rtol=1e-14)


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

def test_smoothing_ce_uniform_prediction():
    t = Tape()
    loss = label_smoothing_ce(t, Tensor(np.zeros((3, 4))), [0, 1, 2], 0.0)
    assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)


def test_smoothing_ce_confident_limit():
    t = Tape()
    logits = np.zeros((2, 4))
    logits[:, 1] = 50.0
    loss = label_smoothing_ce(t, Tensor(logits), [1, 1], 0.0)
    assert 0.0 <= loss.item() < 1e-20


def test_smoothing_ce_equals_target_entropy_at_matched_prediction():
    # eps=0.1, K=10: prediction exactly q = 0.9*onehot + 0.01 gives loss H(q)
    eps, k = 0.1, 10
    q = np.full(k, eps / k)
    q[3] += 1.0 - eps
    entropy = -float(np.sum(q * np.log(q)))  # closed-form oracle
    assert entropy == pytest.approx(0.5002880350577,  abs=1e-12)
    t = Tape()
    loss = label_smoothing_ce(t, Tensor(np.log(q)[None, :]), [3], eps)
    assert loss.item() == pytest.approx(entropy, rel=1e-12)


def test_smoothing_ce_rejects_bad_labels_and_eps():
    t = Tape()
    with pytest.raises(ValueError, match="label"):
        label_smoothing_ce(t, Tensor(np.zeros((1, 3))), [3], 0.0)
    with pytest.raises(ValueError, match="smoothing"):
        label_smoothing_ce(t, Tensor(np.zeros((1, 3))), [0], 1.0)


# -- source training ----------------------------------------------------------

def _blobs(seed=0):
    return generate_domain(
        DomainSpec("gaussian-mixture", n=120, seed=seed, noise_std=0.15)
    )


def test_train_source_fits_separable_blobs():
    data = _blobs()
    model = SourceModel.init("blobs", tiny_arch(input_dim=2, num_classes=3), 0)
    metrics = train_source(model, data, SourceTrainConfig(epochs=30, shuffle_seed=1))
    assert metrics["train_accuracy"] >= 0.99


def test_train_source_single_class_degenerates_to_smoothing_floor():
    data = _blobs()
    data.y[:] = 1
    model = SourceModel.init("one", tiny_arch(input_dim=2, num_classes=3), 0)
    metrics = train_source(model, data, SourceTrainConfig(epochs=100, shuffle_seed=1))
    assert metrics["train_accuracy"] == 1.0
    # with eps=0.1 the loss approaches H(q) of the smoothed one-hot target
    q = np.array([0.1 / 3, 0.9 + 0.1 / 3, 0.1 / 3])
    floor = -float(np.sum(q * np.log(q)))
    assert floor <= metrics["epoch_losses"][-1] < floor + 0.01


def test_train_source_is_deterministic():
    def run():
        model = SourceModel.init("det", tiny_arch(input_dim=2, num_classes=3), 7)
        train_source(model, _blobs(3), SourceTrainConfig(epochs=3, shuffle_seed=7))
        return [p.values.copy() for p in model.params]

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


def test_train_source_rejects_empty_dataset():
    from decision.data import LabeledSet

    model = SourceModel.init("e", tiny_arch(input_dim=2, num_classes=3), 0)
    empty = LabeledSet(np.zeros((0, 2)), np.zeros(0, dtype=int), 3)
    with pytest.raises(ValueError, match="empty"):
        train_source(model, empty, SourceTrainConfig())


# -- checkpoints ---------------------------------------------------------------

def test_checkpoint_roundtrip_and_byte_stability(tmp_path):
    model = SourceModel.init("ckpt", tiny_arch(), 13, label_smoothing=0.1)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(model, p1)
    save_checkpoint(model, p2)
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert doc["version"] == "decision-ckpt-v1"
    assert doc["domain"] == "ckpt"
    loaded = load_checkpoint(p1)
    assert loaded.label_smoothing == 0.1
    for a, b in zip(loaded.params, model.params):
        assert np.array_equal(a.values, b.values)


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


def test_tape_logits_for_one_model_and_for_a_stack():
    from decision.models import SourceStack

    models = make_models(3, seed=8)
    x = np.random.default_rng(9).standard_normal((5, 3))
    stack = SourceStack(models)
    t1, tn = Tape(), Tape()
    stacked = tape_logits(tn, stack.params, x).values
    assert stacked.shape == (3, 5, 3)
    for j, m in enumerate(models):
        single = tape_logits(t1 if j == 0 else Tape(), m.params, x).values
        np.testing.assert_allclose(single, m.logits(x), rtol=1e-14)
        np.testing.assert_allclose(stacked[j], single, rtol=1e-14)
    ops = [[n.op for n in t.nodes if n.leaf is None] for t in (t1, tn)]
    assert ops[0] == ops[1] == ["matmul", "add_bias", "relu", "matmul", "add_bias",
                                "matmul", "add_bias"]


def test_frozen_classifier_checksum_is_parameter_sensitive():
    model = SourceModel.init("sum", tiny_arch(), 3)
    before = classifier_checksum(model)
    assert classifier_checksum(copy.deepcopy(model)) == before
    model.params[5].values[0] += 1e-12  # the head bias
    assert classifier_checksum(model) != before
