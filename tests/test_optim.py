import math
import tracemalloc

import numpy as np
import pytest

from decision.autodiff import DivergenceError, ShapeMismatchError, Tape, Tensor
from decision.models import cross_entropy_step
from decision.optim import ParamGroup, SgdMomentum, lr_schedule, run_epochs


def _step(opt, param, grad):
    param.grad = np.asarray(grad, dtype=np.float64)
    opt.step()


def test_plain_sgd_step():
    p = Tensor(5.0, requires_grad=True)
    opt = SgdMomentum([ParamGroup([p], lr=1.0, weight_decay=0.0)], momentum=0.0)
    _step(opt, p, 2.0)
    assert p.values == pytest.approx(3.0, abs=0.0)


def test_momentum_recurrence():
    p = Tensor(0.0, requires_grad=True)
    opt = SgdMomentum([ParamGroup([p], lr=1.0, weight_decay=0.0)], momentum=0.9)
    _step(opt, p, 1.0)
    assert p.values == pytest.approx(-1.0, abs=0.0)
    _step(opt, p, 1.0)
    assert p.values == pytest.approx(-2.9, abs=1e-15)


def test_decay_only_step():
    p = Tensor(1.0, requires_grad=True)
    opt = SgdMomentum([ParamGroup([p], lr=1e-2, weight_decay=1e-3)], momentum=0.0)
    _step(opt, p, 0.0)
    assert p.values == pytest.approx(0.99999, rel=1e-12)


def test_zero_momentum_matches_handrolled_gradient_descent():
    rng = np.random.default_rng(3)
    p = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    manual = p.values.copy()
    opt = SgdMomentum([ParamGroup([p], lr=0.05, weight_decay=0.0)], momentum=0.0)
    for _ in range(25):
        g = rng.standard_normal((4, 3))
        p.grad = g
        opt.step()
        manual -= 0.05 * g
        assert np.array_equal(p.values, manual)  # bit-for-bit


def test_grouped_learning_rates_and_decay_exemption():
    a = Tensor(1.0, requires_grad=True)
    b = Tensor(1.0, requires_grad=True)
    opt = SgdMomentum(
        [ParamGroup([a], lr=0.1, weight_decay=0.5), ParamGroup([b], lr=0.2, weight_decay=0.0)],
        momentum=0.0,
    )
    a.grad = np.asarray(0.0)
    b.grad = np.asarray(0.0)
    opt.step()
    assert a.values == pytest.approx(1.0 - 0.1 * 0.5)
    assert b.values == pytest.approx(1.0)  # no decay pull


def test_step_requires_gradients():
    p = Tensor(1.0, requires_grad=True)
    opt = SgdMomentum([ParamGroup([p], lr=0.1)])
    with pytest.raises(ValueError, match="gradient"):
        opt.step()


def test_invalid_hyperparameters_rejected():
    p = Tensor(1.0, requires_grad=True)
    with pytest.raises(ValueError):
        ParamGroup([p], lr=0.0)
    with pytest.raises(ValueError):
        ParamGroup([p], lr=0.1, weight_decay=-1.0)
    with pytest.raises(ValueError):
        SgdMomentum([ParamGroup([p], lr=0.1)], momentum=1.0)


def test_group_defaults_match_documented_recipe():
    group = ParamGroup([Tensor(0.0, requires_grad=True)], lr=0.1)
    assert group.weight_decay == 1e-3
    assert SgdMomentum([group]).momentum == 0.9


def test_lr_schedule_boundary_and_derived_value():
    assert lr_schedule(0.037, 0.0) == 0.037
    # direct evaluation of the decay formula at p=1
    assert lr_schedule(0.01, 1.0) == pytest.approx(0.01 * 11.0 ** -0.75, rel=1e-15)
    assert lr_schedule(0.01, 1.0) == pytest.approx(0.0016556, abs=5e-8)


def test_lr_schedule_monotone_decay():
    for initial in (1e-3, 0.5, 2.0):
        assert lr_schedule(initial, 0.5) > lr_schedule(initial, 1.0)
    with pytest.raises(ValueError):
        lr_schedule(0.01, 1.5)


@pytest.mark.parametrize("supervised", [False, True], ids=["nan", "inf"])
def test_run_epochs_rejects_a_loss_that_is_not_finite(supervised):
    # a finite logit row spanning more than the float range: log-softmax gives
    # -inf, so adaptation's im_loss is NaN, or supervised training's
    # cross-entropy +inf with the mass on that class; the forward's checks
    # cannot see it, the loss check after the step can
    q = np.array([[[0.0, 1.0]]])
    if supervised:  # a one-model mlp whose head bias is the logit row
        params = [Tensor(np.zeros((1, *s)), requires_grad=True)
                  for s in ((1, 2), (2,), (2, 2), (2,), (2, 2))]
        params.append(Tensor([[1e308, -1e308]], requires_grad=True))
        arrays = [np.zeros((1, 1, 1)), q, np.ones((1, 1, 1))]
        before = [p.values.copy() for p in params]
    else:  # adaptation's step: a fresh tape, replayed by the backward
        params = [Tensor([[[1e308, -1e308]]], requires_grad=True)]
        arrays = [np.zeros((1, 1, 1))]
        before = [params[0].values.copy()]
    opt = SgdMomentum([ParamGroup(params, lr=1.0)])
    if supervised:
        step = cross_entropy_step(params)
    else:
        def step(xb):
            tape = Tape()
            loss, terms = tape.im_loss(params[0], q, 1.0, 0.0, 1.0)
            return loss.values, terms, lambda: tape.backward(loss)

    with np.errstate(all="ignore"):
        loss = float(step(*arrays)[0])
        assert loss == math.inf if supervised else math.isnan(loss)
        with pytest.raises(DivergenceError, match=r"^epoch 1, step 1: loss not finite$"):
            list(run_epochs(opt, 2, 1, [0], lambda epoch: arrays, step))
    for p, b in zip(params, before):  # raised before backward and the optimizer step
        assert p.grad is None
        np.testing.assert_array_equal(p.values, b)


def test_step_rejects_a_gradient_of_another_shape():
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = SgdMomentum([ParamGroup([p], lr=0.1)])
    p.grad = np.zeros(1)  # would broadcast into the buffer
    with pytest.raises(ShapeMismatchError, match=r"\(1,\) != parameter shape \(3,\)"):
        opt.step()


@pytest.mark.parametrize("where", ["one group", "two groups"])
def test_a_parameter_listed_twice_is_rejected(where):
    p, q = Tensor(np.zeros(2), requires_grad=True), Tensor(1.0, requires_grad=True)
    groups = ([ParamGroup([p, q, p], lr=0.1)] if where == "one group"
              else [ParamGroup([q, p], lr=0.1), ParamGroup([p], lr=0.2)])
    expected = ("parameter 2 of group 0 .* is already parameter 0 of group 0"
                if where == "one group" else
                "parameter 0 of group 1 .* is already parameter 1 of group 0")
    before = p.values
    with pytest.raises(ValueError, match=expected):
        SgdMomentum(groups)
    assert p.values is before  # checked before any group is packed


def _reference_steps(values, groups, momentum, grads, lr_factors):
    """The per-parameter update, one parameter at a time:
    v <- mu*v + (grad + wd*p); p <- p - lr*v."""
    values = [v.copy() for v in values]
    velocity = [np.zeros_like(v) for v in values]
    for step_grads, factor in zip(grads, lr_factors):
        for i, g in enumerate(step_grads):
            lr, wd = groups[i]
            velocity[i] *= momentum
            velocity[i] += g + wd * values[i]
            values[i] -= lr * factor * velocity[i]
    return values


@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_flat_step_matches_the_per_parameter_update_bit_for_bit(momentum):
    rng = np.random.default_rng(11)
    shapes = [(), (5,), (2, 3, 4), (), (3,), (4, 1, 2)]
    # (lr, wd) per parameter: three in a group with decay, three in one without
    hyper = [(0.05, 1e-3)] * 3 + [(0.2, 0.0)] * 3
    start = [rng.standard_normal(shape) for shape in shapes]
    params = [Tensor(v.copy(), requires_grad=True) for v in start]
    opt = SgdMomentum([ParamGroup(params[:3], lr=0.05, weight_decay=1e-3),
                       ParamGroup(params[3:], lr=0.2, weight_decay=0.0)], momentum=momentum)
    grads = [[rng.standard_normal(shape) for shape in shapes] for _ in range(20)]
    factors = [lr_schedule(1.0, k / 19) for k in range(20)]
    for step_grads, factor in zip(grads, factors):
        for p, g in zip(params, step_grads):
            p.grad = g
        opt.step(lr_factor=factor)
        opt.zero_grad()
    for p, want in zip(params, _reference_steps(start, hyper, momentum, grads, factors)):
        assert p.values.shape == want.shape
        assert np.array_equal(p.values, want)


def test_values_become_views_of_the_optimizer_buffer():
    p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    before = p.values
    opt = SgdMomentum([ParamGroup([p], lr=1.0, weight_decay=0.0)], momentum=0.0)
    assert p.values is not before and np.array_equal(p.values, before)
    after = p.values
    _step(opt, p, np.ones((2, 3)))
    np.testing.assert_array_equal(after, np.arange(6.0).reshape(2, 3) - 1.0)  # follows the step
    np.testing.assert_array_equal(before, np.arange(6.0).reshape(2, 3))  # detached copy


def test_step_allocates_no_array_at_sixteen_sources():
    # the benchmark's sources16 shapes: 16 stacked extractors plus the raw weights
    n, rng = 16, np.random.default_rng(5)
    shapes = [(n, 2, 64), (n, 64), (n, 64, 16), (n, 16)]
    params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    raw = Tensor(np.zeros(n), requires_grad=True)
    opt = SgdMomentum([ParamGroup(params, lr=1e-3), ParamGroup([raw], lr=1e-2, weight_decay=0.0)])
    grads = [rng.standard_normal(p.shape) for p in params + [raw]]
    for p, g in zip(params + [raw], grads):
        p.grad = g
    opt.step()  # a warm-up step
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        opt.step(lr_factor=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 4096  # the parameters alone are 158 KB


def _student_params(rng):
    """One model's six stacked parameter tensors, all trainable."""
    shapes = [(1, 2, 8), (1, 8), (1, 8, 4), (1, 4), (1, 4, 3), (1, 3)]
    return [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]


def _backward(params, x, q):
    tape = Tape()
    loss, _ = tape.im_loss(tape.mlp(x, params), q, 0.0, 0.0, 1.0)
    tape.backward(loss)


def _batches(rng, count):
    return [(rng.standard_normal((1, 5, 2)), np.eye(3)[rng.integers(0, 3, (1, 5))])
            for _ in range(count)]


def test_a_parameter_no_optimizer_owns_gets_a_fresh_gradient_array():
    rng = np.random.default_rng(21)
    params = _student_params(rng)
    (x, q), = _batches(rng, 1)
    _backward(params, x, q)
    for p in params:
        assert p.grad_row is None
        assert p.grad.shape == p.shape and p.grad.base is None and p.grad.flags.owndata
    first = [p.grad for p in params]
    for p in params:
        p.grad = None
    _backward(params, x, q)
    for p, before in zip(params, first):
        assert p.grad is not before and not np.shares_memory(p.grad, before)
        assert np.array_equal(p.grad, before)


def test_an_owned_parameter_gets_its_gradient_in_its_optimizer_row():
    rng = np.random.default_rng(22)
    owned = _student_params(rng)
    plain = [Tensor(p.values.copy(), requires_grad=True) for p in owned]
    opt = SgdMomentum([ParamGroup(owned, lr=0.1)])
    (x, q), = _batches(rng, 1)
    _backward(owned, x, q)
    _backward(plain, x, q)
    for p, ref in zip(owned, plain):
        assert p.grad is p.grad_row and np.array_equal(p.grad, ref.grad)
    opt.zero_grad()
    assert all(p.grad is None for p in owned)


def test_two_backward_passes_before_one_step_add_their_gradients():
    rng = np.random.default_rng(23)
    start = [p.values.copy() for p in _student_params(rng)]
    batches = _batches(rng, 2)
    single = []  # each batch's gradients alone
    for x, q in batches:
        params = [Tensor(v.copy(), requires_grad=True) for v in start]
        _backward(params, x, q)
        single.append([p.grad for p in params])
    want = [g1 + g2 for g1, g2 in zip(*single)]
    plain = [Tensor(v.copy(), requires_grad=True) for v in start]
    owned = [Tensor(v.copy(), requires_grad=True) for v in start]
    lr, wd = 0.1, 1e-3
    opt = SgdMomentum([ParamGroup(owned, lr=lr, weight_decay=wd)])
    for x, q in batches:
        _backward(plain, x, q)
        _backward(owned, x, q)
    for p, ref in zip(plain + owned, want + want):
        assert np.array_equal(p.grad, ref)
    opt.step()
    for p, v, g in zip(owned, start, want):
        assert np.array_equal(p.values, v - lr * (g + wd * v))  # zero velocity before
