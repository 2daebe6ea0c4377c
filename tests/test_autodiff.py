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
from decision.autodiff import ShapeMismatchError, Tape, TapeError, Tensor, sigmoid

from conftest import finite_diff, max_rel_err


def test_matmul_identity():
    t = Tape()
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = t.affine(a, Tensor(np.eye(2)[None]), Tensor(np.zeros((1, 2))))
    np.testing.assert_array_equal(out.values, [[[1.0, 2.0], [3.0, 4.0]]])


def test_relu_and_mean_definitions():
    t = Tape()
    assert t.relu(Tensor([-1.0, 0.0, 2.0])).values.tolist() == [0.0, 0.0, 2.0]
    # L_pl is the batch mean of -sum_k q_k log p_k: rows of mass 2, 4, 6 at p = 1/2
    q = np.array([[2.0, 0.0], [0.0, 4.0], [3.0, 3.0]])
    _, (_, _, l_pl) = t.im_loss(Tensor(np.zeros((3, 2))), q, 0.0, 0.0, 1.0)
    assert l_pl == pytest.approx(4.0 * math.log(2.0), rel=1e-15)


def test_matmul_shape_error_names_both_shapes():
    t = Tape()
    with pytest.raises(ShapeMismatchError, match=r"\(2, 3\) x \(1, 2, 2\) \+ \(1, 2\)"):
        t.affine(Tensor(np.ones((2, 3))), Tensor(np.ones((1, 2, 2))), Tensor(np.ones((1, 2))))


def test_backward_square():
    # L = -log softmax([x^2, 0])[1] = log(1 + exp(x^2)), so dL/dx = 2x * sigmoid(x^2)
    t = Tape()
    x = Tensor([[[0.75]]], requires_grad=True)  # one model, one row
    logits = t.affine(t.affine(x, x, Tensor(np.zeros((1, 1)))), Tensor([[[1.0, 0.0]]]),
                      Tensor(np.zeros((1, 2))))
    t.backward(t.im_loss(logits, np.array([[[0.0, 1.0]]]), 0.0, 0.0, 1.0)[0])
    assert x.grad[0, 0, 0] == pytest.approx(1.5 * sigmoid(np.array([0.5625]))[0], rel=1e-14)


def test_backward_softmax_cross_entropy_analytic():
    # loss = -log softmax(logits)[0] at logits [0, 0]: grad = p - onehot
    t = Tape()
    logits = Tensor([[0.0, 0.0]], requires_grad=True)
    t.backward(t.im_loss(logits, np.array([[1.0, 0.0]]), 0.0, 0.0, 1.0)[0])
    np.testing.assert_allclose(logits.grad, [[-0.5, 0.5]], atol=1e-15)


def _soft_target_grad(y, q):
    """dL/dy of L = -sum(q * log softmax(y)) / b, as im_loss computes it."""
    p = np.exp(kernels.log_softmax_rows(y))
    return (p * q.sum(axis=1, keepdims=True) - q) * (1.0 / len(y))


def test_backward_reused_node_accumulates_sum_of_paths():
    # y = x @ x reaches x along two paths: dL/dx = G x^T + x^T G
    rng = np.random.default_rng(66)
    t = Tape()
    x = Tensor(rng.standard_normal((1, 3, 3)), requires_grad=True)
    q = rng.dirichlet(np.ones(3), size=3)
    y = t.affine(x, x, Tensor(np.zeros((1, 3))))
    t.backward(t.im_loss(y, q[None], 0.0, 0.0, 1.0)[0])
    g, xv = _soft_target_grad(y.values[0], q), x.values[0]
    np.testing.assert_allclose(x.grad[0], g @ xv.T + xv.T @ g, rtol=1e-14, atol=0.0)


def test_backward_replays_each_node_exactly_once():
    t = Tape()
    x = Tensor([[[1.0, 2.0], [0.5, 1.5]]], requires_grad=True)
    q = np.array([[0.25, 0.75], [1.0, 0.0]])
    shared = t.relu(x)  # consumed twice by the affine layer below
    loss = t.im_loss(t.affine(shared, shared, Tensor(np.zeros((1, 2)))), q[None],
                     0.0, 0.0, 1.0)[0]
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
    xv = x.values[0]
    g = _soft_target_grad(xv @ xv, q)  # x > 0, so relu passes it through
    np.testing.assert_allclose(x.grad[0], g @ xv.T + xv.T @ g, rtol=1e-14, atol=0.0)


def test_backward_root_must_be_scalar_and_on_tape():
    t = Tape()
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    y = t.relu(x)
    with pytest.raises(TapeError):
        t.backward(y)
    with pytest.raises(TapeError):
        t.backward(Tensor(1.0))
    other = Tape()
    with pytest.raises(TapeError):
        other.backward(t.im_loss(y, None, 1.0, 0.0, 0.0)[0])


def _random_mlp_loss(rng, make_tape=True):
    """3-layer MLP (a stack of one) with a soft-target cross-entropy head;
    returns (f, params)."""
    shapes = [(1, 4, 6), (1, 6, 5), (1, 5, 3)]
    ws = [Tensor(rng.standard_normal(s) * 0.7, requires_grad=True) for s in shapes]
    bs = [Tensor(rng.standard_normal((1, s[2])) * 0.3, requires_grad=True) for s in shapes]
    x = rng.standard_normal((7, 4))
    targets = rng.dirichlet(np.ones(3), size=(1, 7))

    def f():
        t = Tape()
        h = Tensor(x)
        for w, b in zip(ws[:-1], bs[:-1]):
            h = t.relu(t.affine(h, w, b))
        logits = t.affine(h, ws[-1], bs[-1])
        return t.im_loss(logits, targets, 0.0, 0.0, 1.0)[0]

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


def _soft_target_loss_of(op, *args):
    """A soft-target im_loss over op(*args); 1-d outputs reach it as the
    weights of a weighted_sum, 3-d outputs as its stacked values."""
    t = Tape()
    out = getattr(t, op)(*args)
    rng = np.random.default_rng(list(out.shape))
    if out.values.ndim == 1:
        out = t.weighted_sum(out, Tensor(rng.standard_normal(out.shape + (5, 3))))
    elif out.values.ndim == 3:
        out = t.weighted_sum(Tensor(rng.dirichlet(np.ones(out.shape[0]))), out)
    q = rng.dirichlet(np.ones(out.shape[1]), size=out.shape[0])
    return t.im_loss(out, q, 0.0, 0.0, 1.0)[0]


def _bias_shape(w_shape):
    return w_shape[:-2] + w_shape[-1:]


# one model as a stack of one, n models on one shared batch, and n models each
# on its own batch: (b, i) or (n, b, i) x (n, i, o) + (n, o)
AFFINE_SHAPES = pytest.mark.parametrize(
    "lhs, rhs", [((5, 3), (1, 3, 2)), ((5, 3), (4, 3, 2)), ((4, 5, 3), (4, 3, 2))],
    ids=["single", "shared", "stacked"])


@AFFINE_SHAPES
def test_bmm_definition_and_gradients(lhs, rhs):
    rng = np.random.default_rng(61)
    a = Tensor(rng.standard_normal(lhs), requires_grad=True)
    w = Tensor(rng.standard_normal(rhs), requires_grad=True)
    b = Tensor(rng.standard_normal(_bias_shape(rhs)), requires_grad=True)
    out = Tape().affine(a, w, b).values
    av = np.broadcast_to(a.values, out.shape[:-1] + lhs[-1:])
    for j in np.ndindex(out.shape[:-2]):  # each source, or once for one model
        np.testing.assert_allclose(out[j], av[j] @ w.values[j] + b.values[j], rtol=1e-15)
    assert _gradcheck(lambda: _soft_target_loss_of("affine", a, w, b), [a, w, b]) < 1e-4


def _matmul_add_bias_chain(xv, wv, bv, g):
    """The matmul -> add_bias node pair that ``affine`` replaced, in numpy:
    forward value, then the gradients of x, w and b for an output gradient g."""
    y = kernels.matmul_nn(xv, wv)  # matmul forward
    out = y + bv[..., None, :]  # add_bias forward
    g_y, g_b = g, g.sum(axis=-2)  # add_bias backward
    g_x = kernels.matmul_nt(g_y, wv)  # matmul backward
    if g_x.ndim > xv.ndim:  # a shared lhs gets the sum over sources
        g_x = g_x.sum(axis=0)
    return out, g_x, kernels.matmul_tn(xv, g_y), g_b


# This pin holds the layer node to the bits of the chain it replaces; a change
# here changes every checkpoint.
@AFFINE_SHAPES
def test_affine_is_bit_identical_to_the_matmul_add_bias_chain(lhs, rhs):
    rng = np.random.default_rng(72)
    x, w, b = (Tensor(rng.standard_normal(s) * 2.0, requires_grad=True)
               for s in (lhs, rhs, _bias_shape(rhs)))
    t = Tape()
    out = t.affine(x, w, b)
    g = rng.standard_normal(out.shape)
    want = _matmul_add_bias_chain(x.values, w.values, b.values, g)
    got = [out.values] + t.nodes[out._node[1]].backward(g)
    for have, ref in zip(got, want):
        assert have.shape == ref.shape
        np.testing.assert_array_equal(have, ref)


def test_bmm_shape_errors():
    for lhs, rhs in [
        ((5, 3), (4, 2, 2)),  # inner sizes differ
        ((3, 5, 2), (4, 2, 2)),  # source counts differ
        ((4, 5, 3), (3, 2)),  # stacked lhs with an unstacked rhs
        ((5, 3), (3, 2)),  # one model's unstacked weights
        ((3,), (3, 2)),  # 1-d operands
        ((2, 3), (3,)),
        ((1, 4, 5, 3), (4, 3, 2)),  # more than one leading axis
    ]:
        with pytest.raises(ShapeMismatchError, match="affine"):
            Tape().affine(Tensor(np.ones(lhs)), Tensor(np.ones(rhs)),
                          Tensor(np.ones(_bias_shape(rhs))))
    for lhs, rhs, bias in [
        ((5, 3), (1, 3, 2), (1, 3)),  # bias sized for the inputs, not the outputs
        ((5, 3), (1, 3, 2), (2,)),  # an unstacked bias
        ((4, 5, 3), (4, 3, 2), (2,)),  # one bias for stacked weights
        ((5, 3), (4, 3, 2), (3, 2)),  # source counts differ
    ]:
        with pytest.raises(ShapeMismatchError, match=r"affine: .* \+ \(" + str(bias[0])):
            Tape().affine(Tensor(np.ones(lhs)), Tensor(np.ones(rhs)), Tensor(np.ones(bias)))


def test_add_bias_per_source_gradients():
    # identity weights isolate the per-source bias: x @ I + b is x + b exactly
    rng = np.random.default_rng(62)
    x = Tensor(rng.standard_normal((4, 5, 3)), requires_grad=True)
    eye = Tensor(np.broadcast_to(np.eye(3), (4, 3, 3)))
    b = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    out = Tape().affine(x, eye, b).values
    np.testing.assert_array_equal(out[2], x.values[2] + b.values[2])
    assert _gradcheck(lambda: _soft_target_loss_of("affine", x, eye, b), [x, b]) < 1e-4
    with pytest.raises(ShapeMismatchError):
        Tape().affine(x, eye, Tensor(np.ones(3)))


def test_weighted_sum_definition_and_gradients():
    rng = np.random.default_rng(64)
    alpha = Tensor(rng.dirichlet(np.ones(4)), requires_grad=True)
    z = Tensor(rng.standard_normal((4, 5, 3)), requires_grad=True)
    want = sum(alpha.values[j] * z.values[j] for j in range(4))
    np.testing.assert_allclose(Tape().weighted_sum(alpha, z).values, want, rtol=1e-14)
    assert _gradcheck(lambda: _soft_target_loss_of("weighted_sum", alpha, z), [alpha, z]) < 1e-4
    with pytest.raises(ShapeMismatchError):
        Tape().weighted_sum(Tensor(np.ones(3)), z)


@pytest.mark.parametrize("coefs", list(itertools.product((0.0, 1.0), (0.0, -1.0), (0.0, 0.7))),
                         ids=lambda c: "ent{}-div{}-pl{}".format(*c))
def test_fused_loss_gradients_under_each_toggle(coefs):
    rng = np.random.default_rng(65)
    q = np.eye(4)[rng.integers(0, 4, 6)]
    for scale in (0.5, 3.0):
        z = Tensor(rng.standard_normal((6, 4)) * scale, requires_grad=True)
        assert _gradcheck(lambda: Tape().im_loss(z, q, *coefs)[0], [z]) < 1e-4


@pytest.mark.parametrize("coefs", list(itertools.product((0.0, 1.0), (0.0, -1.0), (0.0, 0.7))),
                         ids=lambda c: "ent{}-div{}-pl{}".format(*c))
def test_stacked_fused_loss_sums_independent_per_source_losses(coefs):
    # (n, b, k) logits: the loss is the sum of n per-source losses, each term
    # value and each source's gradient equal a 2-d call on that source alone
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
        zj = Tensor(z.values[j], requires_grad=True)
        tj = Tape()
        loss_j, terms_j = tj.im_loss(zj, q[j], *coefs)
        tj.backward(loss_j)
        np.testing.assert_array_equal(z.grad[j], zj.grad)
        assert [v[j] for v in terms] == list(terms_j)
        total += loss_j.item()
    assert loss.item() == pytest.approx(total, rel=1e-14)


def test_fused_loss_needs_labels_for_the_pseudo_label_term():
    z = Tensor(np.zeros((3, 2)))
    with pytest.raises(ValueError, match="target labels"):
        Tape().im_loss(z, None, 1.0, -1.0, 0.3)
    with pytest.raises(ShapeMismatchError, match=r"targets \(2, 2\) for logits \(3, 2\)"):
        Tape().im_loss(z, np.eye(2), 1.0, -1.0, 0.3)


# -- the fused nodes: soft targets and the simplex --------------------------------

def test_soft_target_gradients_with_unnormalized_rows():
    # rows of q that do not sum to 1 (rounding, or no mass at all) keep the exact gradient
    rng = np.random.default_rng(67)
    for coefs in ((0.0, 0.0, 1.0), (1.0, -1.0, 0.3)):
        q = rng.dirichlet(np.ones(4), size=6) * rng.uniform(0.5, 1.5, (6, 1))
        q[0] = 0.0
        z = Tensor(rng.standard_normal((6, 4)) * 2.0, requires_grad=True)
        assert _gradcheck(lambda: Tape().im_loss(z, q, *coefs)[0], [z]) < 1e-4


def test_simplex_definition_and_gradients():
    rng = np.random.default_rng(68)
    for n in (1, 3, 16):
        raw = Tensor(rng.standard_normal(n) * 3.0, requires_grad=True)
        s = sigmoid(raw.values)
        np.testing.assert_allclose(Tape().simplex(raw).values, s / s.sum(), rtol=1e-15)
        assert _gradcheck(lambda: _soft_target_loss_of("simplex", raw), [raw]) < 1e-4


def _im_loss_grad(z, q):
    z = Tensor(z, requires_grad=True)
    t = Tape()
    t.backward(t.im_loss(z, q, 0.0, 0.0, 1.0)[0])
    return z.grad


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


def test_simplex_backward_is_bit_identical_to_the_composed_chain():
    rng = np.random.default_rng(71)
    for n in (1, 4, 16):
        raw = Tensor(rng.standard_normal(n), requires_grad=True)
        g = rng.standard_normal(n)
        t = Tape()
        alpha = t.simplex(raw)
        got = t.nodes[alpha._node[1]].backward(g)[0]  # the simplex node, fed g
        # sigmoid -> sum -> reciprocal -> mul_scalar, replayed in tape order
        s = sigmoid(raw.values)
        total = np.asarray(s.sum())
        inv = 1.0 / total
        np.testing.assert_array_equal(alpha.values, s * float(inv))
        g_sum = -np.asarray((g * s).sum()) / (total * total)
        g_s = g * float(inv) + np.broadcast_to(g_sum, s.shape)
        np.testing.assert_array_equal(got, g_s * s * (1.0 - s))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16))
@example([-1e3])
@example([-1e3] * 16)
@example([-720.0, -1e3])  # 1/S overflows without rescaling
@example([-400.0, -380.0])  # S*S underflows without rescaling
@example([1e3, -1e3])
def test_simplex_is_on_the_simplex_or_raises_when_every_sigmoid_underflows(raw):
    raw = Tensor(np.array(raw), requires_grad=True)
    s = sigmoid(raw.values)
    t = Tape()
    if not s.any():
        with pytest.raises(ZeroDivisionError):
            t.simplex(raw)
        return
    alpha = t.simplex(raw)
    assert alpha.values.min() >= 0.0 and abs(alpha.values.sum() - 1.0) <= 1e-12
    np.testing.assert_allclose(alpha.values, alpha_project(raw.values), rtol=0.0, atol=1e-15)
    z = Tensor(np.linspace(-2.0, 2.0, len(s) * 6).reshape(len(s), 2, 3))
    t.backward(t.im_loss(t.weighted_sum(alpha, z), np.eye(3)[[0, 2]], 1.0, -1.0, 0.3)[0])
    assert np.isfinite(raw.grad).all()


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
    assert ops == {"affine", "relu", "weighted_sum", "simplex", "im_loss"}
    assert ops <= called, f"tape ops no module calls: {sorted(ops - called)}"
