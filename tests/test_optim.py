import numpy as np
import pytest

from decision.autodiff import DivergenceError, Tensor
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


@pytest.mark.parametrize("pl_only", [False, True], ids=["nan", "inf"])
def test_run_epochs_rejects_a_loss_that_is_not_finite(pl_only):
    # a finite logit row spanning more than the float range: log-softmax gives
    # -inf, so im_loss is NaN, or +inf with pl_only and the mass on that class;
    # Tape.mlp's checks cannot see it, the loss check after the step can
    z = Tensor([[1e308, -1e308]], requires_grad=True)
    opt = SgdMomentum([ParamGroup([z], lr=1.0)])
    q = np.array([[0.0, 1.0]])

    def step_loss(tape, xb):
        return tape.im_loss(z, q, 0.0 if pl_only else 1.0, 0.0, 1.0, pl_only=pl_only)

    with np.errstate(all="ignore"), pytest.raises(DivergenceError,
                                                  match=r"^epoch 1, step 1: loss not finite$"):
        list(run_epochs(opt, 2, 1, [0], lambda epoch: [np.zeros((1, 1, 1))], step_loss))
    assert z.grad is None  # raised before backward and the optimizer step
