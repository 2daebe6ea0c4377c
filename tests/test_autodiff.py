import itertools
import math

import mpmath
import numpy as np
import pytest

from decision.autodiff import (LogDomainError, ShapeMismatchError, Tape,
                               TapeError, Tensor)

from conftest import finite_diff, max_rel_err


def test_matmul_identity():
    t = Tape()
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = t.matmul(a, Tensor(np.eye(2)))
    np.testing.assert_array_equal(out.values, [[1.0, 2.0], [3.0, 4.0]])


def test_relu_and_mean_definitions():
    t = Tape()
    assert t.relu(Tensor([-1.0, 0.0, 2.0])).values.tolist() == [0.0, 0.0, 2.0]
    assert t.mean(Tensor([2.0, 4.0, 6.0])).item() == 4.0


def test_matmul_shape_error_names_both_shapes():
    t = Tape()
    with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 2\)"):
        t.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))


def test_log_domain_error():
    t = Tape()
    with pytest.raises(LogDomainError):
        t.log(Tensor([1.0, 0.0]))


def test_softmax_uniform_and_analytic():
    t = Tape()
    np.testing.assert_allclose(
        t.softmax(Tensor([0.0, 0.0, 0.0, 0.0])).values, np.full(4, 0.25), atol=1e-15
    )
    np.testing.assert_allclose(
        t.softmax(Tensor([math.log(1.0), math.log(3.0)])).values, [0.25, 0.75],
        rtol=1e-14,
    )


def test_softmax_extreme_logits_vs_high_precision():
    p = Tape().softmax(Tensor([1000.0, 0.0])).values
    with mpmath.workprec(200):
        e0, e1 = mpmath.exp(1000), mpmath.exp(0)
        want0 = float(e0 / (e0 + e1))
    assert p[0] == pytest.approx(want0, abs=1e-15)
    assert 0.0 <= p[1] < 1e-300
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_properties_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.standard_normal((3, 5)) * rng.uniform(0.1, 30.0)
        p = Tape().softmax(Tensor(v)).values
        assert (p >= 0.0).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        shifted = Tape().softmax(Tensor(v + 17.3)).values
        np.testing.assert_allclose(p, shifted, atol=1e-9)


def test_backward_square():
    t = Tape()
    x = Tensor(3.0, requires_grad=True)
    t.backward(t.mul(x, x))
    assert x.grad == pytest.approx(6.0)


def test_backward_softmax_cross_entropy_analytic():
    # loss = -log softmax(logits)[0] at logits [0, 0]: grad = p - onehot
    t = Tape()
    logits = Tensor([0.0, 0.0], requires_grad=True)
    t.backward(t.scale(t.index(t.log_softmax(logits), 0), -1.0))
    np.testing.assert_allclose(logits.grad, [-0.5, 0.5], atol=1e-15)


def test_backward_reused_node_accumulates_sum_of_paths():
    # d/dx (x*x + x) = 2x + 1 exactly
    t = Tape()
    x = Tensor(1.75, requires_grad=True)
    t.backward(t.add(t.mul(x, x), x))
    assert x.grad == pytest.approx(2 * 1.75 + 1.0, abs=0.0)


def test_backward_replays_each_node_exactly_once():
    t = Tape()
    x = Tensor([1.0, 2.0], requires_grad=True)
    shared = t.relu(x)  # consumed by two downstream paths
    loss = t.sum(t.add(t.mul(shared, shared), shared))
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
    np.testing.assert_allclose(x.grad, 2 * np.array([1.0, 2.0]) + 1.0, atol=0.0)


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
        other.backward(t.mean(y))


def _random_mlp_loss(rng, make_tape=True):
    """3-layer MLP with a softmax-entropy-style head; returns (f, params)."""
    shapes = [(4, 6), (6, 5), (5, 3)]
    ws = [Tensor(rng.standard_normal(s) * 0.7, requires_grad=True) for s in shapes]
    bs = [Tensor(rng.standard_normal(s[1]) * 0.3, requires_grad=True) for s in shapes]
    x = rng.standard_normal((7, 4))

    def f():
        t = Tape()
        h = Tensor(x)
        for w, b in zip(ws[:-1], bs[:-1]):
            h = t.relu(t.add_bias(t.matmul(h, w), b))
        logits = t.add_bias(t.matmul(h, ws[-1]), bs[-1])
        logp = t.log_softmax(logits)
        p = t.exp(logp)
        return t.scale(t.mean(t.sum_axis(t.mul(p, logp), 1)), -1.0)

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


@pytest.mark.parametrize("op", ["exp", "log", "sigmoid", "xlogx", "softmax",
                                "log_softmax", "reciprocal"])
def test_unary_primitive_gradients(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    for _ in range(20):
        v = rng.uniform(0.2, 2.0, (3, 4)) if op in ("log", "xlogx", "reciprocal") \
            else rng.standard_normal((3, 4))
        x = Tensor(v, requires_grad=True)

        def f():
            t = Tape()
            out = getattr(t, op)(x)
            return t.mean(t.mul(out, out))

        loss = f()
        loss._node[0].backward(loss)
        numeric = finite_diff(lambda: f().item(), [x])
        assert max_rel_err([x.grad], numeric) < 1e-4
        x.grad = None


def test_xlogx_convention_at_zero():
    t = Tape()
    out = t.xlogx(Tensor([0.0, 0.5, 1.0]))
    np.testing.assert_allclose(out.values, [0.0, 0.5 * math.log(0.5), 0.0], atol=1e-15)


def test_entropy_composition_survives_underflow():
    # exp(log_softmax) underflows to 0 for the tiny class; 0 * log-term stays 0
    t = Tape()
    logits = Tensor([[800.0, 0.0]], requires_grad=True)
    logp = t.log_softmax(logits)
    p = t.exp(logp)
    ent = t.scale(t.mean(t.sum_axis(t.mul(p, logp), 1)), -1.0)
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
    return t.mean(t.mul(out, out))


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "stacked"])
def test_bmm_definition_and_gradients(shared):
    rng = np.random.default_rng(61)
    a = Tensor(rng.standard_normal((5, 3) if shared else (4, 5, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, 2)), requires_grad=True)
    out = Tape().bmm(a, w).values
    for j in range(4):
        lhs = a.values if shared else a.values[j]
        np.testing.assert_allclose(out[j], lhs @ w.values[j], rtol=1e-15)
    assert _gradcheck(lambda: _squared_mean_of("bmm", a, w), [a, w]) < 1e-4


def test_bmm_shape_errors():
    t = Tape()
    with pytest.raises(ShapeMismatchError):
        t.bmm(Tensor(np.ones((5, 3))), Tensor(np.ones((4, 2, 2))))
    with pytest.raises(ShapeMismatchError):
        t.bmm(Tensor(np.ones((3, 5, 2))), Tensor(np.ones((4, 2, 2))))


def test_add_bias_per_source_gradients():
    rng = np.random.default_rng(62)
    x = Tensor(rng.standard_normal((4, 5, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    out = Tape().add_bias(x, b).values
    np.testing.assert_array_equal(out[2], x.values[2] + b.values[2])
    assert _gradcheck(lambda: _squared_mean_of("add_bias", x, b), [x, b]) < 1e-4
    with pytest.raises(ShapeMismatchError):
        Tape().add_bias(x, Tensor(np.ones(3)))


def test_stack_routes_each_row_to_its_tensor():
    rng = np.random.default_rng(63)
    parts = [Tensor(rng.standard_normal((2, 3)), requires_grad=True) for _ in range(3)]
    parts.append(Tensor(rng.standard_normal((2, 3))))  # a constant row gets nothing
    weight = Tensor(rng.standard_normal((4, 2, 3)))

    def f():
        t = Tape()
        s = t.stack(parts)
        return t.sum(t.mul(t.mul(s, s), weight))

    assert _gradcheck(f, parts[:3]) < 1e-4
    assert parts[3].grad is None
    with pytest.raises(ShapeMismatchError):
        Tape().stack([Tensor(np.ones(2)), Tensor(np.ones(3))])


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
