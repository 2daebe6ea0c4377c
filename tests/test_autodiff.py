import itertools
import math

import numpy as np
import pytest

from decision.autodiff import ShapeMismatchError, Tape, TapeError, Tensor

from conftest import finite_diff, max_rel_err


def test_matmul_identity():
    t = Tape()
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = t.matmul(a, Tensor(np.eye(2)))
    np.testing.assert_array_equal(out.values, [[1.0, 2.0], [3.0, 4.0]])


def test_relu_and_mean_definitions():
    t = Tape()
    assert t.relu(Tensor([-1.0, 0.0, 2.0])).values.tolist() == [0.0, 0.0, 2.0]
    assert t.scale(t.sum(Tensor([2.0, 4.0, 6.0])), 1.0 / 3.0).item() == 4.0


def test_matmul_shape_error_names_both_shapes():
    t = Tape()
    with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 2\)"):
        t.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))


def test_backward_square():
    t = Tape()
    x = Tensor(3.0, requires_grad=True)
    t.backward(t.mul(x, x))
    assert x.grad == pytest.approx(6.0)


def test_backward_softmax_cross_entropy_analytic():
    # loss = -log softmax(logits)[0] at logits [0, 0]: grad = p - onehot
    t = Tape()
    logits = Tensor([[0.0, 0.0]], requires_grad=True)
    t.backward(t.im_loss(logits, [0], 0.0, 0.0, 1.0)[0])
    np.testing.assert_allclose(logits.grad, [[-0.5, 0.5]], atol=1e-15)


def test_backward_reused_node_accumulates_sum_of_paths():
    # d/dx (x*x)*x = 3x^2 exactly: x reaches the root along three paths
    t = Tape()
    x = Tensor(1.75, requires_grad=True)
    t.backward(t.mul_scalar(t.mul(x, x), x))
    assert x.grad == pytest.approx(3 * 1.75 ** 2, abs=0.0)


def test_backward_replays_each_node_exactly_once():
    t = Tape()
    x = Tensor([1.0, 2.0], requires_grad=True)
    shared = t.relu(x)  # consumed by two downstream nodes
    loss = t.sum(t.mul_scalar(shared, t.sum(shared)))  # (x1 + x2)^2 for x > 0
    calls = {}
    for i, node in enumerate(t.nodes):
        if node.backward is None:
            continue
        def counted(g, _orig=node.backward, _i=i):
            calls[_i] = calls.get(_i, 0) + 1
            return _orig(g)
        node.backward = counted
    t.backward(loss)
    assert calls and all(count == 1 for count in calls.values())
    np.testing.assert_allclose(x.grad, [6.0, 6.0], atol=0.0)


def test_backward_root_must_be_scalar_and_on_tape():
    t = Tape()
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = t.relu(x)
    with pytest.raises(TapeError):
        t.backward(y)
    with pytest.raises(TapeError):
        t.backward(Tensor(1.0))
    other = Tape()
    with pytest.raises(TapeError):
        other.backward(t.sum(y))


def _random_mlp_loss(rng, make_tape=True):
    """3-layer MLP with a soft-target cross-entropy head; returns (f, params)."""
    shapes = [(4, 6), (6, 5), (5, 3)]
    ws = [Tensor(rng.standard_normal(s) * 0.7, requires_grad=True) for s in shapes]
    bs = [Tensor(rng.standard_normal(s[1]) * 0.3, requires_grad=True) for s in shapes]
    x = rng.standard_normal((7, 4))
    targets = Tensor(rng.dirichlet(np.ones(3), size=7))

    def f():
        t = Tape()
        h = Tensor(x)
        for w, b in zip(ws[:-1], bs[:-1]):
            h = t.relu(t.add_bias(t.matmul(h, w), b))
        logits = t.add_bias(t.matmul(h, ws[-1]), bs[-1])
        logp = t.log_softmax(logits)
        return t.scale(t.sum(t.mul(targets, logp)), -1.0 / len(x))

    return f, ws + bs


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


@pytest.mark.parametrize("op", ["sigmoid", "log_softmax", "reciprocal"])
def test_unary_primitive_gradients(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    for _ in range(20):
        v = rng.uniform(0.2, 2.0, (3, 4)) if op == "reciprocal" \
            else rng.standard_normal((3, 4))
        x = Tensor(v, requires_grad=True)
        assert _gradcheck(lambda: _squared_mean_of(op, x), [x]) < 1e-4


def test_entropy_composition_survives_underflow():
    # p = exp(log_softmax) underflows to 0 for the tiny class; 0 * log p stays 0
    t = Tape()
    logits = Tensor([[800.0, 0.0]], requires_grad=True)
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


def _squared_mean_of(op, *args):
    t = Tape()
    out = getattr(t, op)(*args)
    return t.scale(t.sum(t.mul(out, out)), 1.0 / out.values.size)


# one model's (b, i) x (i, o), and the batched (bmm) per-source cases
@pytest.mark.parametrize("lhs, rhs", [((5, 3), (3, 2)), ((5, 3), (4, 3, 2)),
                                      ((4, 5, 3), (4, 3, 2))],
                         ids=["single", "shared", "stacked"])
def test_bmm_definition_and_gradients(lhs, rhs):
    rng = np.random.default_rng(61)
    a = Tensor(rng.standard_normal(lhs), requires_grad=True)
    w = Tensor(rng.standard_normal(rhs), requires_grad=True)
    out = Tape().matmul(a, w).values
    av = np.broadcast_to(a.values, out.shape[:-1] + lhs[-1:])
    for j in np.ndindex(out.shape[:-2]):  # each source, or once for one model
        np.testing.assert_allclose(out[j], av[j] @ w.values[j], rtol=1e-15)
    assert _gradcheck(lambda: _squared_mean_of("matmul", a, w), [a, w]) < 1e-4


def test_bmm_shape_errors():
    for lhs, rhs in [
        ((5, 3), (4, 2, 2)),  # inner sizes differ
        ((3, 5, 2), (4, 2, 2)),  # source counts differ
        ((4, 5, 3), (3, 2)),  # stacked lhs with an unstacked rhs
        ((3,), (3, 2)),  # 1-d operands
        ((2, 3), (3,)),
        ((1, 4, 5, 3), (4, 3, 2)),  # more than one leading axis
    ]:
        with pytest.raises(ShapeMismatchError, match="matmul"):
            Tape().matmul(Tensor(np.ones(lhs)), Tensor(np.ones(rhs)))


def test_add_bias_per_source_gradients():
    rng = np.random.default_rng(62)
    x = Tensor(rng.standard_normal((4, 5, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    out = Tape().add_bias(x, b).values
    np.testing.assert_array_equal(out[2], x.values[2] + b.values[2])
    assert _gradcheck(lambda: _squared_mean_of("add_bias", x, b), [x, b]) < 1e-4
    with pytest.raises(ShapeMismatchError):
        Tape().add_bias(x, Tensor(np.ones(3)))


def test_weighted_sum_definition_and_gradients():
    rng = np.random.default_rng(64)
    alpha = Tensor(rng.dirichlet(np.ones(4)), requires_grad=True)
    z = Tensor(rng.standard_normal((4, 5, 3)), requires_grad=True)
    want = sum(alpha.values[j] * z.values[j] for j in range(4))
    np.testing.assert_allclose(Tape().weighted_sum(alpha, z).values, want, rtol=1e-14)
    assert _gradcheck(lambda: _squared_mean_of("weighted_sum", alpha, z), [alpha, z]) < 1e-4
    with pytest.raises(ShapeMismatchError):
        Tape().weighted_sum(Tensor(np.ones(3)), z)


@pytest.mark.parametrize("coefs", list(itertools.product((0.0, 1.0), (0.0, -1.0), (0.0, 0.7))),
                         ids=lambda c: "ent{}-div{}-pl{}".format(*c))
def test_fused_loss_gradients_under_each_toggle(coefs):
    rng = np.random.default_rng(65)
    labels = rng.integers(0, 4, 6)
    for scale in (0.5, 3.0):
        z = Tensor(rng.standard_normal((6, 4)) * scale, requires_grad=True)
        assert _gradcheck(lambda: Tape().im_loss(z, labels, *coefs)[0], [z]) < 1e-4


def test_fused_loss_needs_labels_for_the_pseudo_label_term():
    z = Tensor(np.zeros((3, 2)))
    with pytest.raises(ValueError, match="labels"):
        Tape().im_loss(z, None, 1.0, -1.0, 0.3)
    with pytest.raises(ShapeMismatchError, match="labels"):
        Tape().im_loss(z, [0, 1], 1.0, -1.0, 0.3)
