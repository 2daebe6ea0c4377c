"""SGD with momentum and coupled weight decay, the polynomial lr decay, and
``run_epochs``, the training loop of every trainer in the package."""

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import DivergenceError, ShapeMismatchError, Tape, Tensor
from .data import stacked_batches


def lr_schedule(initial, progress):
    """Decayed learning rate at training progress ``progress`` in [0, 1].

    eta(p) = initial * (1 + 10p)^(-0.75)
    """
    if not 0.0 <= progress <= 1.0:
        raise ValueError(f"progress must be in [0, 1], got {progress}")
    return initial * (1.0 + 10.0 * progress) ** (-0.75)


def check_lr(lr, name="lr"):
    if not 0.0 < lr < math.inf:  # NaN fails too
        raise ValueError(f"{name} must be > 0 and finite, got {lr}")


def check_weight_decay(weight_decay):
    if not 0.0 <= weight_decay < math.inf:
        raise ValueError(f"weight_decay must be >= 0 and finite, got {weight_decay}")


def check_momentum(momentum):
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")


@dataclass
class ParamGroup:
    params: list
    lr: float
    weight_decay: float = 1e-3

    def __post_init__(self):
        check_lr(self.lr)
        check_weight_decay(self.weight_decay)


@dataclass
class SgdMomentum:
    """Momentum SGD: v <- mu*v + (grad + wd*param); param <- param - lr*v.

    Weight decay is coupled (added to the gradient before the momentum
    update). ``step(lr_factor)`` scales every group's base rate, which is how
    the lr schedule is applied.
    """

    groups: list
    momentum: float = 0.9
    _velocity: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        check_momentum(self.momentum)
        for group in self.groups:
            for p in group.params:
                if not isinstance(p, Tensor):
                    raise TypeError("optimizer parameters must be Tensors")
                self._velocity[id(p)] = np.zeros_like(p.values)

    def step(self, lr_factor=1.0):
        for group in self.groups:
            lr = group.lr * lr_factor
            for p in group.params:
                if p.grad is None:
                    raise ValueError("parameter has no gradient; run backward first")
                if p.grad.shape != p.values.shape:
                    raise ShapeMismatchError(
                        f"gradient shape {p.grad.shape} != parameter shape {p.values.shape}"
                    )
                v = self._velocity[id(p)]
                v *= self.momentum
                v += p.grad + group.weight_decay * p.values
                # in place: SourceStack's per-source models are views of these arrays
                p.values -= lr * v

    def zero_grad(self):
        for group in self.groups:
            for p in group.params:
                p.grad = None


def run_epochs(opt, epochs, batch_size, seeds, epoch_arrays, step_loss, after_step=None):
    """Yield ``(epoch, terms)`` after each epoch: ``epoch_arrays(epoch)`` gives
    (n, N, ...) arrays, source j's rows shuffled by ``seeds[j] * 1_000_003 +
    epoch``; per batch, ``step_loss(tape, *batch)`` returns ``(loss, step_terms)``
    on a fresh tape, then backward, a step at the decayed lr and ``after_step()``.
    ``terms`` lists the epoch's ``step_terms`` in step order. A DivergenceError
    from ``step_loss`` is raised again with the epoch and step, both from 1, and
    a loss that is not finite raises one: finite logits whose row spans more
    than the float range give ``im_loss`` a NaN or infinite value."""
    step = 0
    for epoch in range(epochs):
        arrays = epoch_arrays(epoch)
        total_steps = epochs * -(-arrays[0].shape[1] // batch_size)
        terms = []
        for batch in stacked_batches(arrays, batch_size,
                                     [s * 1_000_003 + epoch for s in seeds]):
            tape = Tape()
            try:
                loss, step_terms = step_loss(tape, *batch)
            except DivergenceError as exc:
                raise DivergenceError(f"epoch {epoch + 1}, step {len(terms) + 1}: {exc}") from exc
            if not math.isfinite(loss.values):
                raise DivergenceError(f"epoch {epoch + 1}, step {len(terms) + 1}: "
                                      f"loss not finite")
            tape.backward(loss)
            opt.step(lr_factor=lr_schedule(1.0, step / max(1, total_steps - 1)))
            opt.zero_grad()
            if after_step is not None:
                after_step()
            terms.append(step_terms)
            step += 1
        yield epoch, terms
