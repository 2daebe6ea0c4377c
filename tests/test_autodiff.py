import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decision import kernels
from decision.adaptation import alpha_project
from decision.autodiff import (DivergenceError, ShapeMismatchError, Tape, TapeError, Tensor,
                               mlp_forward, sigmoid)

from decision.models import cross_entropy_step

from conftest import finite_diff, max_rel_err


def _constants(*arrays):
    return [Tensor(np.asarray(a, dtype=np.float64)) for a in arrays]


def test_matmul_identity():
    eye, zero = _constants(np.eye(2)[None], np.zeros((1, 2)))
    out = Tape().mlp(np.array([[1.0, 2.0], [3.0, 4.0]]), [eye, zero] * 3)
    np.testing.assert_array_equal(out.values, [[[1.0, 2.0], [3.0, 4.0]]])


def test_relu_and_mean_definitions():
    pre, feats, _ = mlp_forward(np.array([[-1.0, 0.0, 2.0]]), [np.eye(3), np.zeros(3)] * 3)
    assert pre.tolist() == [[-1.0, 0.0, 2.0]] and feats.tolist() == [[0.0, 0.0, 2.0]]
    # L_pl is the batch mean of -sum_k q_k log p_k: rows of mass 2, 4, 6 at p = 1/2
    q = np.array([[[2.0, 0.0], [0.0, 4.0], [3.0, 3.0]]])
    _, (_, _, (l_pl,)) = Tape().im_loss(Tensor(np.zeros((1, 3, 2))), q, 0.0, 0.0, 1.0)
    assert l_pl == pytest.approx(4.0 * math.log(2.0), rel=1e-15)


def test_matmul_shape_error_names_both_shapes():
    # one model's unstacked parameters, i = 2, on inputs of dim 3
    params = [np.ones(s) for s in ((2, 4), (4,), (4, 3), (3,), (3, 2), (2,))]
    with pytest.raises(ShapeMismatchError, match=r"input dim 3 != 2"):
        mlp_forward(np.ones((5, 3)), params)


def test_backward_square():
    # L = -log softmax([x^2, 0])[1] = log(1 + exp(x^2)), so dL/dx = 2x * sigmoid(x^2):
    # x is both layers of a one-unit extractor on the input 1
    t = Tape()
    x = Tensor([[[0.75]]], requires_grad=True)  # one model, one unit
    zero, head, head_b = _constants(np.zeros((1, 1)), [[[1.0, 0.0]]], np.zeros((1, 2)))
    logits = t.mlp(np.ones((1, 1)), [x, zero, x, zero, head, head_b])
    t.backward(t.im_loss(logits, np.array([[[0.0, 1.0]]]), 0.0, 0.0, 1.0)[0])
    assert x.grad[0, 0, 0] == pytest.approx(1.5 * sigmoid(np.array([0.5625]))[0], rel=1e-14)


def test_backward_softmax_cross_entropy_analytic():
    # loss = -log softmax(logits)[0] at logits [0, 0]: grad = p - onehot
    t = Tape()
    logits = Tensor([[[0.0, 0.0]]], requires_grad=True)
    t.backward(t.im_loss(logits, np.array([[[1.0, 0.0]]]), 0.0, 0.0, 1.0)[0])
    np.testing.assert_allclose(logits.grad, [[[-0.5, 0.5]]], atol=1e-15)


def _ensemble_chain(raw, z):
    """The nodes ``Tape.ensemble`` replaced, replayed in numpy in tape order:
    sigmoid, sum, reciprocal and scale give alpha, then the weighted sum of z.
    Returns the value and a function from an output gradient g to the
    gradients of raw and z."""
    s = sigmoid(raw)
    total = np.asarray(s.sum())
    inv = 1.0 / total
    alpha = s * float(inv)
    flat = z.reshape(len(z), -1)

    def grads(g):
        g_alpha = flat @ g.reshape(-1)
        g_sum = -np.asarray((g_alpha * s).sum()) / (total * total)
        g_s = g_alpha * float(inv) + np.broadcast_to(g_sum, s.shape)
        return g_s * s * (1.0 - s), alpha[:, None, None] * g

    return (alpha @ flat).reshape(1, *z.shape[1:]), grads


def _shared_layer_loss(t, raw, z, x, rest, q):
    """A soft-target loss of one model whose two extractor layers are both the
    node S = ensemble(raw, z), so S reaches the loss along two paths."""
    s = t.ensemble(raw, z)
    b1, b2, w, b = rest
    return t.im_loss(t.mlp(x, [s, b1, s, b2, w, b]), q, 0.0, 0.0, 1.0)[0]


def _shared_layer_graph(seed):
    rng = np.random.default_rng(seed)
    raw = Tensor(rng.standard_normal(2), requires_grad=True)
    z = Tensor(rng.standard_normal((2, 3, 3)), requires_grad=True)
    rest = _constants(*(rng.standard_normal(s) for s in ((3,), (3,), (3, 2), (2,))))
    return raw, z, rng.standard_normal((5, 3)), rest, rng.dirichlet(np.ones(2), size=(1, 5))


def _path_grads(s_values, x, rest, q):
    """dL/dS1 and dL/dS2 of the mlp's two layers, as two separate parameters
    holding the values ``s_values``."""
    s1, s2 = (Tensor(v, requires_grad=True) for v in s_values)
    b1, b2, w, b = rest
    t = Tape()
    t.backward(t.im_loss(t.mlp(x, [s1, b1, s2, b2, w, b]), q, 0.0, 0.0, 1.0)[0])
    return s1.grad, s2.grad


def _sum_of_paths(raw, z, x, rest, q):
    """The gradients of raw and z when dL/dS is the sum over both paths."""
    s, grads = _ensemble_chain(raw.values, z.values)
    g1, g2 = _path_grads((s, s), x, rest, q)
    return grads(g1 + g2)


def test_backward_reused_node_accumulates_sum_of_paths():
    raw, z, x, rest, q = _shared_layer_graph(66)
    t = Tape()
    t.backward(_shared_layer_loss(t, raw, z, x, rest, q))
    g_raw, g_z = _sum_of_paths(raw, z, x, rest, q)
    np.testing.assert_array_equal(z.grad, g_z)
    np.testing.assert_array_equal(raw.grad, g_raw)


def test_parameter_read_by_two_nodes_gets_the_sum_of_both_contributions():
    # z feeds two ensembles, S1 and S2, which feed the mlp as its two layers
    raw, z, x, rest, q = _shared_layer_graph(68)
    r1, r2 = raw.values, raw.values[::-1].copy()
    t = Tape()
    s1, s2 = t.ensemble(Tensor(r1), z), t.ensemble(Tensor(r2), z)
    b1, b2, w, b = rest
    t.backward(t.im_loss(t.mlp(x, [s1, b1, s2, b2, w, b]), q, 0.0, 0.0, 1.0)[0])
    assert [n.op for n in t.nodes] == ["ensemble", "ensemble", "mlp", "im_loss"]
    # dL/dS1 and dL/dS2 from two separate parameters holding their values
    (c1, grads1), (c2, grads2) = (_ensemble_chain(r, z.values) for r in (r1, r2))
    g1, g2 = _path_grads((c1, c2), x, rest, q)
    np.testing.assert_array_equal(z.grad, grads1(g1)[1] + grads2(g2)[1])


def test_backward_replays_each_node_exactly_once():
    raw, z, x, rest, q = _shared_layer_graph(67)
    t = Tape()
    loss = _shared_layer_loss(t, raw, z, x, rest, q)  # the ensemble feeds mlp twice
    calls = {}
    for i, node in enumerate(t.nodes):
        def counted(g, _orig=node.backward, _i=i):
            calls[_i] = calls.get(_i, 0) + 1
            return _orig(g)
        node.backward = counted
    t.backward(loss)
    assert len(calls) == 3 and all(count == 1 for count in calls.values())
    g_raw, g_z = _sum_of_paths(raw, z, x, rest, q)
    np.testing.assert_array_equal(z.grad, g_z)
    np.testing.assert_array_equal(raw.grad, g_raw)


def test_backward_root_must_be_scalar_and_on_tape():
    t = Tape()
    x = Tensor([[[1.0, 2.0]]], requires_grad=True)
    y = t.ensemble(Tensor([0.0]), x)
    with pytest.raises(TapeError):
        t.backward(y)
    with pytest.raises(TapeError):
        t.backward(Tensor(1.0))
    other = Tape()
    with pytest.raises(TapeError):
        other.backward(t.im_loss(y, None, 1.0, 0.0, 0.0)[0])


def _mlp_params(rng, n, dims=(3, 4, 3, 2), scales=(1.0, 1.0)):
    """n models' six stacked parameter tensors, all trainable: weights drawn at
    scales[0], biases at scales[1]."""
    i, h, d, k = dims
    shapes = ((n, i, h), (n, h), (n, h, d), (n, d), (n, d, k), (n, k))
    return [Tensor(rng.standard_normal(s) * scales[j % 2], requires_grad=True)
            for j, s in enumerate(shapes)]


def _random_mlp_loss(rng):
    """The model forward (a stack of one) with a soft-target cross-entropy head;
    returns (f, params)."""
    params = _mlp_params(rng, 1, (4, 6, 5, 3), (0.7, 0.3))
    x = rng.standard_normal((7, 4))
    targets = rng.dirichlet(np.ones(3), size=(1, 7))

    def f():
        t = Tape()
        return t.im_loss(t.mlp(x, params), targets, 0.0, 0.0, 1.0)[0]

    return f, params


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        f, params = _random_mlp_loss(rng)
        loss = f()
        tape = loss._node[0]
        tape.backward(loss)
        analytic = [p.grad for p in params]
        numeric = finite_diff(lambda: f().item(), params)
        worst = max(worst, max_rel_err(analytic, numeric))
        for p in params:
            p.grad = None
    assert worst < 1e-4


def test_entropy_composition_survives_underflow():
    # p = exp(log_softmax) underflows to 0 for the tiny class; 0 * log p stays 0
    t = Tape()
    logits = Tensor([[[800.0, 0.0]]], requires_grad=True)
    ent, _ = t.im_loss(logits, None, 1.0, 0.0, 0.0)
    assert math.isfinite(ent.item())
    assert 0.0 <= ent.item() < 1e-18
    t.backward(ent)
    assert np.isfinite(logits.grad).all()


# -- batched (per-source) operations --------------------------------------------

def _gradcheck(f, params):
    loss = f()
    loss._node[0].backward(loss)
    numeric = finite_diff(lambda: f().item(), params)
    return max_rel_err([p.grad for p in params], numeric)


def _soft_target_loss_of(op, *args):
    """A soft-target im_loss over op(*args); the mlp's n models' logits reach
    it through an ensemble with constant raw weights."""
    t = Tape()
    out = getattr(t, op)(*args)
    rng = np.random.default_rng(list(out.shape[1:] if op == "ensemble" else out.shape))
    if op == "mlp":
        out = t.ensemble(Tensor(rng.standard_normal(out.shape[0])), out)
    q = rng.dirichlet(np.ones(out.shape[-1]), size=out.shape[:-1])
    return t.im_loss(out, q, 0.0, 0.0, 1.0)[0]


# one model as a stack of one, n models on one shared batch, and n models each
# on its own batch: x is (b, i) or (n, b, i)
MLP_INPUTS = pytest.mark.parametrize(
    "x_shape, n", [((5, 3), 1), ((5, 3), 4), ((4, 5, 3), 4)],
    ids=["single", "shared", "stacked"])


@MLP_INPUTS
def test_bmm_definition_and_gradients(x_shape, n):
    rng = np.random.default_rng(61)
    x = rng.standard_normal(x_shape)
    params = _mlp_params(rng, n)
    out = Tape().mlp(x, params).values
    xs = np.broadcast_to(x, (n,) + x_shape[-2:])
    for j in range(n):
        w1, b1, w2, b2, w, b = (p.values[j] for p in params)
        want = (np.maximum(xs[j] @ w1 + b1, 0.0) @ w2 + b2) @ w + b
        np.testing.assert_allclose(out[j], want, rtol=1e-13)
    assert _gradcheck(lambda: _soft_target_loss_of("mlp", x, params), params) < 1e-4


def _affine_relu_chain(x, params, g):
    """The three affine nodes and the relu that ``Tape.mlp`` replaced, in
    numpy and in tape order: the forward value, then the six parameter
    gradients for an output gradient g."""
    w1, b1, w2, b2, w, b = params
    pre = kernels.matmul_nn(x, w1) + b1[..., None, :]  # affine
    h = kernels.relu_fwd(pre)  # relu
    f = kernels.matmul_nn(h, w2) + b2[..., None, :]  # affine
    out = kernels.matmul_nn(f, w) + b[..., None, :]  # affine
    g_f, g_w, g_b = kernels.matmul_nt(g, w), kernels.matmul_tn(f, g), g.sum(axis=-2)
    g_h, g_w2, g_b2 = kernels.matmul_nt(g_f, w2), kernels.matmul_tn(h, g_f), g_f.sum(axis=-2)
    g_pre = kernels.relu_bwd(pre, g_h)
    return out, [kernels.matmul_tn(x, g_pre), g_pre.sum(axis=-2), g_w2, g_b2, g_w, g_b]


# This pin holds the model node to the bits of the chain it replaces; a change
# here changes every checkpoint.
@MLP_INPUTS
def test_mlp_is_bit_identical_to_the_affine_relu_chain(x_shape, n):
    rng = np.random.default_rng(72)
    x = rng.standard_normal(x_shape) * 2.0
    params = _mlp_params(rng, n, scales=(2.0, 2.0))
    t = Tape()
    out = t.mlp(x, params)
    g = rng.standard_normal(out.shape)
    want, want_grads = _affine_relu_chain(x, [p.values for p in params], g)
    np.testing.assert_array_equal(out.values, want)
    for have, ref in zip(t.nodes[out._node[1]].backward(g), want_grads):
        assert have.shape == ref.shape
        np.testing.assert_array_equal(have, ref)
    # frozen heads, as in adaptation: no head gradients, the same extractor bits
    for head in params[4:]:
        head.requires_grad = False
    t = Tape()
    grads = t.nodes[t.mlp(x, params)._node[1]].backward(g)
    assert grads[4:] == [None, None]
    for have, ref in zip(grads[:4], want_grads):
        np.testing.assert_array_equal(have, ref)


def test_bmm_shape_errors():
    params = _mlp_params(np.random.default_rng(0), 4)  # i = 3
    for x_shape in ((5, 2), (4, 5, 4)):
        with pytest.raises(ShapeMismatchError, match=f"input dim {x_shape[-1]} != 3"):
            Tape().mlp(np.ones(x_shape), params)
    with pytest.raises(ValueError):  # per-source batches for another source count
        Tape().mlp(np.ones((3, 5, 3)), params)


def test_add_bias_per_source_gradients():
    # identity weights on positive inputs isolate the per-source biases:
    # the logits are ((x + b1) + b2) + b exactly
    rng = np.random.default_rng(62)
    x = rng.uniform(1.0, 2.0, (4, 5, 3))
    params = _mlp_params(rng, 4, (3, 3, 3, 3), (0.0, 0.1))
    for w in params[::2]:
        w.values[...] = np.eye(3)
        w.requires_grad = False
    out = Tape().mlp(x, params).values
    _, b1, _, b2, _, b = (p.values for p in params)
    np.testing.assert_array_equal(out[2], ((x[2] + b1[2]) + b2[2]) + b[2])
    biases = params[1::2]
    assert _gradcheck(lambda: _soft_target_loss_of("mlp", x, params), biases) < 1e-4


@pytest.mark.parametrize("layer, scale, value, trainable", [
    (0, -1e308, "pre-activation", True), (2, 1e308, "logits", True), (4, 1e308, "logits", True),
    (0, -1e308, "pre-activation", False), (4, 1e308, "logits", False),
], ids=["pre-activation", "features", "logits", "weights-only-pre-activation",
        "weights-only-logits"])
def test_mlp_rejects_a_value_that_is_not_finite(layer, scale, value, trainable):
    # inputs of 10: a first-layer weight of -1e308 gives a pre-activation of
    # -inf, which the relu would hide; the other layers overflow to +inf. Only
    # source 1 of three overflows. With every parameter constant (the
    # weights-only forward) the tape records no node but still checks.
    params = _mlp_params(np.random.default_rng(0), 3, (1, 1, 1, 2), (0.0, 0.0))
    for p in params:
        p.requires_grad = trainable
    for w in params[::2]:
        w.values[...] = 1.0
    x = np.full((2, 1), 10.0)
    tape = Tape()
    tape.mlp(x, params)
    assert len(tape) == int(trainable)
    params[layer].values[1] = scale
    # no errstate: a numpy overflow warning would fail the test (warnings are errors)
    with pytest.raises(DivergenceError, match=f"^{value} not finite in source 1$"):
        tape.mlp(x, params)


def test_weighted_sum_definition_and_gradients():
    # the ensemble's sum over the source axis, weighted by alpha of raw weights
    rng = np.random.default_rng(64)
    raw = Tensor(rng.standard_normal(4), requires_grad=True)
    z = Tensor(rng.standard_normal((4, 5, 3)), requires_grad=True)
    alpha = alpha_project(raw.values)
    want = sum(alpha[j] * z.values[j] for j in range(4))[None]  # one (1, b, k) problem
    np.testing.assert_allclose(Tape().ensemble(raw, z).values, want, rtol=1e-14, strict=True)
    assert _gradcheck(lambda: _soft_target_loss_of("ensemble", raw, z), [raw, z]) < 1e-4
    for shape in ((3, 5, 3), (4, 15)):
        with pytest.raises(ShapeMismatchError, match="ensemble"):
            Tape().ensemble(raw, Tensor(np.ones(shape)))


@pytest.mark.parametrize("coefs", list(itertools.product((0.0, 1.0), (0.0, -1.0), (0.0, 0.7))),
                         ids=lambda c: "ent{}-div{}-pl{}".format(*c))
def test_fused_loss_gradients_under_each_toggle(coefs):
    rng = np.random.default_rng(65)
    q = np.eye(4)[rng.integers(0, 4, (1, 6))]
    for scale in (0.5, 3.0):
        z = Tensor(rng.standard_normal((1, 6, 4)) * scale, requires_grad=True)
        assert _gradcheck(lambda: Tape().im_loss(z, q, *coefs)[0], [z]) < 1e-4


@pytest.mark.parametrize("coefs", list(itertools.product((0.0, 1.0), (0.0, -1.0), (0.0, 0.7))),
                         ids=lambda c: "ent{}-div{}-pl{}".format(*c))
def test_stacked_fused_loss_sums_independent_per_source_losses(coefs):
    # (n, b, k) logits: the loss is the sum of n per-source losses, each term
    # value and each source's gradient equal a call on that source alone
    rng = np.random.default_rng(66)
    n, b, k = 3, 6, 4
    q = rng.dirichlet(np.ones(k), size=(n, b))
    z = Tensor(rng.standard_normal((n, b, k)) * 2.0, requires_grad=True)
    assert _gradcheck(lambda: Tape().im_loss(z, q, *coefs)[0], [z]) < 1e-4
    z.grad = None
    t = Tape()
    loss, terms = t.im_loss(z, q, *coefs)
    t.backward(loss)
    total = 0.0
    for j in range(n):
        zj = Tensor(z.values[j : j + 1], requires_grad=True)
        tj = Tape()
        loss_j, terms_j = tj.im_loss(zj, q[j : j + 1], *coefs)
        tj.backward(loss_j)
        np.testing.assert_array_equal(z.grad[j], zj.grad[0])
        assert [v[j] for v in terms] == [v[0] for v in terms_j]
        total += loss_j.item()
    assert loss.item() == pytest.approx(total, rel=1e-14)


def test_fused_loss_needs_labels_for_the_pseudo_label_term():
    z = Tensor(np.zeros((1, 3, 2)))
    with pytest.raises(ValueError, match="target labels"):
        Tape().im_loss(z, None, 1.0, -1.0, 0.3)
    with pytest.raises(ShapeMismatchError,
                       match=r"targets \(1, 2, 2\) for logits \(1, 3, 2\)"):
        Tape().im_loss(z, np.eye(2)[None], 1.0, -1.0, 0.3)
    with pytest.raises(ShapeMismatchError, match=r"\(n, b, k\) logits, got \(3, 2\)"):
        Tape().im_loss(Tensor(np.zeros((3, 2))), None, 1.0, -1.0, 0.0)


# -- the fused nodes: soft targets and the ensemble's simplex weights --------------

def test_soft_target_gradients_with_unnormalized_rows():
    # rows of q that do not sum to 1 (rounding, or no mass at all) keep the exact gradient
    rng = np.random.default_rng(67)
    for coefs in ((0.0, 0.0, 1.0), (1.0, -1.0, 0.3)):
        q = rng.dirichlet(np.ones(4), size=(1, 6)) * rng.uniform(0.5, 1.5, (1, 6, 1))
        q[0, 0] = 0.0
        z = Tensor(rng.standard_normal((1, 6, 4)) * 2.0, requires_grad=True)
        assert _gradcheck(lambda: Tape().im_loss(z, q, *coefs)[0], [z]) < 1e-4


def test_simplex_definition_and_gradients():
    # the ensemble's weights alone: its sum over stacked unit rows is alpha
    rng = np.random.default_rng(68)
    for n in (1, 3, 16):
        raw = Tensor(rng.standard_normal(n) * 3.0, requires_grad=True)
        s = sigmoid(raw.values)
        alpha = Tape().ensemble(raw, Tensor(np.eye(n)[:, None])).values[0, 0]
        np.testing.assert_allclose(alpha, s / s.sum(), rtol=1e-15)
        z = Tensor(rng.standard_normal((n, 5, 3)))
        assert _gradcheck(lambda: _soft_target_loss_of("ensemble", raw, z), [raw]) < 1e-4


def _im_loss_grad(z, q):
    """The L_pl gradient of one (b, k) problem."""
    z = Tensor(z[None], requires_grad=True)
    t = Tape()
    t.backward(t.im_loss(z, q[None], 0.0, 0.0, 1.0)[0])
    return z.grad[0]


# These pins hold the fused gradients to the bits of the chains they replace;
# a change here changes every checkpoint.
def test_soft_target_gradient_is_bit_identical_to_the_log_softmax_chain():
    rng = np.random.default_rng(69)
    b, k, eps = 32, 3, 0.3
    z = rng.standard_normal((b, k)) * 2.0
    q = np.full((b, k), eps / k)
    q[np.arange(b), rng.integers(0, k, b)] += 1.0 - eps
    assert (q.sum(axis=1) != 1.0).all()  # rounding leaves every row sum off 1
    p = np.exp(kernels.log_softmax_rows(z))
    w = q * (-1.0 / b)  # scale, sum and mul backward
    np.testing.assert_array_equal(_im_loss_grad(z, q), w - p * w.sum(1, keepdims=True))


def test_one_hot_gradient_is_bit_identical_to_p_minus_onehot():
    rng = np.random.default_rng(70)
    b, k = 32, 4
    z = rng.standard_normal((b, k)) * 2.0
    onehot = np.eye(k)[rng.integers(0, k, b)]
    p = np.exp(kernels.log_softmax_rows(z))
    np.testing.assert_array_equal(_im_loss_grad(z, onehot), (p - onehot) / b)


@pytest.mark.parametrize("shape", [(30, 3), (5, 30, 3)], ids=["single", "stacked"])
@pytest.mark.parametrize("eps", [0.1, 0.0], ids=["smoothed", "one-hot"])
@pytest.mark.parametrize("mass", [1.0, 0.7])
def test_pl_only_loss_is_bit_identical_to_the_all_terms_call(shape, eps, mass):
    # supervised training's step computes the cross-entropy alone, with no
    # tape; its loss, L_pl and gradients are the bits of Tape.mlp, then
    # im_loss(z, q, 0, 0, 1) with every term. Rows of mass 0.7 do not sum to 1,
    # and b = 30 is no power of two, so a reordered 1/b or sum shows in the bits
    n, b, k = shape if len(shape) == 3 else (1, *shape)
    rng = np.random.default_rng(72)
    for scale in (0.5, 2.0, 8.0):
        params = [rng.standard_normal((n, *s)) for s in
                  ((2, 4), (4,), (4, 3), (3,), (3, k), (k,))]
        params[4] *= scale
        x = rng.standard_normal((n, b, 2))
        q = np.full((n, b, k), eps / k)
        q[..., 0] += 1.0 - eps
        q = rng.permuted(q, axis=-1) * mass
        taped = [Tensor(p, requires_grad=True) for p in params]
        t = Tape()
        loss, terms = t.im_loss(t.mlp(x, taped), q, 0.0, 0.0, 1.0)
        t.backward(loss)
        lean = [Tensor(p, requires_grad=True) for p in params]
        lean_loss, l_pl, backward = cross_entropy_step(lean)(
            x, q, np.add.reduce(q, axis=-1, keepdims=True))
        backward()
        assert np.float64(lean_loss).tobytes() == loss.values.tobytes()
        assert l_pl.tobytes() == terms[2].tobytes()
        for have, want in zip(lean, taped):
            assert have.grad.tobytes() == want.grad.tobytes()


# This pin holds the ensemble node, simplex weights and weighted sum, to the
# bits of the chain it replaced; a change here changes every adapted model.
def test_simplex_backward_is_bit_identical_to_the_composed_chain():
    rng = np.random.default_rng(71)
    for n in (1, 4, 16):
        raw = Tensor(rng.standard_normal(n), requires_grad=True)
        z = Tensor(rng.standard_normal((n, 6, 3)), requires_grad=True)
        g = rng.standard_normal((1, 6, 3))
        t = Tape()
        out = t.ensemble(raw, z)
        want, grads = _ensemble_chain(raw.values, z.values)
        np.testing.assert_array_equal(out.values, want)
        for have, ref in zip(t.nodes[out._node[1]].backward(g), grads(g)):
            np.testing.assert_array_equal(have, ref)
    # constant values, as in weights-only, get no gradient computed
    t = Tape()
    assert t.nodes[t.ensemble(raw, Tensor(z.values))._node[1]].backward(g)[1] is None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16))
@example([-1e3])
@example([-1e3] * 16)
@example([-720.0, -1e3])  # 1/S overflows without rescaling
@example([-400.0, -380.0])  # S*S underflows without rescaling
@example([1e3, -1e3])
def test_simplex_is_on_the_simplex_or_raises_when_every_sigmoid_underflows(raw):
    raw = Tensor(np.array(raw), requires_grad=True)
    n = len(raw.values)
    z = Tensor(np.linspace(-2.0, 2.0, n * 6).reshape(n, 2, 3))
    if not sigmoid(raw.values).any():
        with pytest.raises(ZeroDivisionError):
            Tape().ensemble(raw, z)
        return
    alpha = Tape().ensemble(raw, Tensor(np.eye(n)[:, None])).values[0, 0]  # unit rows read alpha
    assert alpha.min() >= 0.0 and abs(alpha.sum() - 1.0) <= 1e-12
    np.testing.assert_allclose(alpha, alpha_project(raw.values), rtol=0.0, atol=1e-15)
    t = Tape()
    t.backward(t.im_loss(t.ensemble(raw, z), np.eye(3)[[[0, 2]]], 1.0, -1.0, 0.3)[0])
    assert np.isfinite(raw.grad).all()


def _two_branch_sigmoid(v):
    """The logistic function as the package computed it before: boolean masks,
    1/(1 + exp(-v)) where v >= 0 and exp(v)/(1 + exp(v)) elsewhere."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    e = np.exp(v[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_gives_the_bits_of_the_two_branch_formula():
    # the suite turns RuntimeWarning into an error: no overflow warning either
    edges = np.array([0.0, 1e-300, 36.7, 709.8, 745.2, 1e3, np.inf])
    edges = np.concatenate([edges, -edges, [np.nan]])
    have = sigmoid(edges)
    np.testing.assert_array_equal(have, _two_branch_sigmoid(edges))  # NaN where NaN
    assert np.isnan(have[-1]) and not np.signbit(have[:-1]).any()
    assert have[0] == have[len(edges) // 2] == 0.5  # +0 and -0
    rng = np.random.default_rng(73)
    for scale in (1e-3, 1.0, 30.0, 800.0):
        v = rng.standard_normal(10_000) * scale
        np.testing.assert_array_equal(sigmoid(v), _two_branch_sigmoid(v))


def test_every_public_tape_op_is_called_from_the_package():
    # an op that only tests call is dead weight on the tape; delete it instead
    ops = {name for name, v in vars(Tape).items()
           if callable(v) and not name.startswith("_")} - {"backward"}
    src = Path(__file__).resolve().parents[1] / "src" / "decision"
    called = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "tape":
                called.add(node.func.attr)
    assert ops == {"mlp", "ensemble", "im_loss"}
    assert ops <= called, f"tape ops no module calls: {sorted(ops - called)}"


def _callers(watched):
    """{name: the "module.Class.function" scopes in src/decision that call it}."""
    src = Path(__file__).resolve().parents[1] / "src" / "decision"
    callers = {name: set() for name in watched}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in watched:
                    callers[name].add(scope)
            inner = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if inner else scope)

    for path in src.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    return callers


def test_only_the_shared_loop_builds_tapes_and_steps_optimizers():
    # one training loop owns the batch order, the lr decay and the optimizer
    # step; a second copy would have to be kept in step with it by hand
    watched = {"Tape", "lr_schedule", "stacked_batches", "backward", "step", "zero_grad"}
    callers = _callers(watched)
    loop = {"optim.run_epochs"}
    # only adaptation records a tape, one per step, and replays it in the
    # backward its step hands the loop; supervised training records none; the
    # tape's own backward replays each recorded node's backward
    assert callers == {**{name: loop for name in watched},
                       "Tape": {"adaptation.adapt.step"},
                       "backward": loop | {"adaptation.adapt.step", "autodiff.Tape.backward"}}


def test_only_tape_mlp_checks_values_on_the_tape():
    # a check per recorded value costs more than the step's arithmetic at
    # small batches; the pre-activation and the logits are where a value
    # that is not finite cannot hide (see Tape.mlp)
    callers = {name: {s for s in scopes if s.startswith("autodiff.")}
               for name, scopes in _callers({"isfinite", "_check_finite"}).items()}
    assert callers == {"_check_finite": {"autodiff.Tape.mlp"},
                       "isfinite": {"autodiff._check_finite"}}
