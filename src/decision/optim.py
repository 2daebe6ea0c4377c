"""SGD with momentum and coupled weight decay, the polynomial lr decay, and
``run_epochs``, the training loop of every trainer in the package.

``SgdMomentum`` owns the storage of the parameters it steps: each group's
values live in one flat buffer, which a step updates in place."""

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import DivergenceError, ShapeMismatchError, Tensor
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


class SgdMomentum:
    """Momentum SGD: v <- mu*v + (grad + wd*param); param <- param - lr*v.

    Weight decay is coupled (added to the gradient before the momentum
    update). ``step(lr_factor)`` scales every group's base rate, which is how
    the lr schedule is applied.

    The optimizer owns its parameters' storage. It copies each group's values
    into one contiguous buffer and rebinds every ``Tensor.values`` to its view
    of it, so an array taken from ``values`` before the optimizer was built no
    longer follows the parameter; one taken after does, since a step updates
    the buffer in place. Velocity, gradients and scratch live in a separate
    array, so views kept after the optimizer is gone hold only the values.

    Each parameter's ``grad_row`` is its view of the gradient row, and
    ``Tape.backward`` and supervised training's analytic backward write the
    parameter's gradient there. A step
    copies in only a ``.grad`` that is another array (one set by hand, or the
    sum of two backward passes), then updates the group with six in-place
    numpy calls, whatever its number of parameters, and allocates no array. A
    parameter listed twice raises ValueError.
    """

    def __init__(self, groups, momentum=0.9):
        check_momentum(momentum)
        self.groups = groups
        self.momentum = momentum
        seen = {}
        for i, group in enumerate(groups):
            for j, p in enumerate(group.params):
                if not isinstance(p, Tensor):
                    raise TypeError("optimizer parameters must be Tensors")
                first = seen.setdefault(id(p), (i, j))
                if first != (i, j):
                    raise ValueError(f"parameter {j} of group {i} {p!r} is already "
                                     f"parameter {first[1]} of group {first[0]}")
        # per group: (P, V, G, T) and each parameter's view of G
        self._flat = [_pack(group.params) for group in groups]

    def step(self, lr_factor=1.0):
        for group, ((P, V, G, T), rows) in zip(self.groups, self._flat):
            for p, row in zip(group.params, rows):
                if p.grad is not row:  # not written by backward: copy it in
                    if p.grad is None:
                        raise ValueError("parameter has no gradient; run backward first")
                    if p.grad.shape != row.shape:
                        raise ShapeMismatchError(
                            f"gradient shape {p.grad.shape} != parameter shape {row.shape}"
                        )
                    row[...] = p.grad
            # T = wd*P + G and T = V*lr are p.grad + wd*p.values and lr*v bit for bit
            np.multiply(P, group.weight_decay, out=T)
            T += G
            V *= self.momentum
            V += T
            np.multiply(V, group.lr * lr_factor, out=T)
            P -= T

    def zero_grad(self):
        for group in self.groups:
            for p in group.params:
                p.grad = None


def _pack(params):
    """Flat buffers of the group's total size: P (values), and V (velocity,
    zero), G (gradients) and T (scratch) as rows of a second array, so views
    of P kept after the optimizer is gone keep only P alive. Each parameter's
    values are copied into P and rebound to their view of it, and its
    ``grad_row`` is set to its view of G. Returns the buffers and those views
    of G, in parameter order."""
    total = sum(p.values.size for p in params)
    P = np.zeros(total)
    V, G, T = np.zeros((3, total))
    rows, start = [], 0
    for p in params:
        stop = start + p.values.size
        view = P[start:stop].reshape(p.values.shape)
        view[...] = p.values
        p.values = view
        p.grad_row = G[start:stop].reshape(view.shape)
        rows.append(p.grad_row)
        start = stop
    return (P, V, G, T), rows


def run_epochs(opt, epochs, batch_size, seeds, epoch_arrays, step, after_step=None):
    """Yield ``(epoch, terms)`` after each epoch: ``epoch_arrays(epoch)`` gives
    (n, N, ...) arrays, source j's rows shuffled by ``seeds[j] * 1_000_003 +
    epoch``. Per batch, ``step(*batch)`` returns ``(loss, step_terms,
    backward)``: the loss value, and a function that writes the gradients
    (adaptation's replays its tape; supervised training's is analytic). The
    loss is checked first, then ``backward()``, a step at the decayed lr,
    ``zero_grad`` and ``after_step()``. ``terms`` lists the epoch's
    ``step_terms`` in step order. A DivergenceError from ``step`` is raised
    again with the epoch and step, both from 1, one from ``epoch_arrays``
    (adaptation's pseudo-label refresh) with the epoch and "refresh", and a
    loss that is not finite raises one before any gradient is written: finite
    logits whose row spans more than the float range give the cross-entropy a
    NaN or infinite value."""
    done = 0
    for epoch in range(epochs):
        try:
            arrays = epoch_arrays(epoch)
        except DivergenceError as exc:
            raise DivergenceError(f"epoch {epoch + 1}, refresh: {exc}") from exc
        total_steps = epochs * -(-arrays[0].shape[1] // batch_size)
        terms = []
        for batch in stacked_batches(arrays, batch_size,
                                     [s * 1_000_003 + epoch for s in seeds]):
            try:
                loss, step_terms, backward = step(*batch)
            except DivergenceError as exc:
                raise DivergenceError(f"epoch {epoch + 1}, step {len(terms) + 1}: {exc}") from exc
            if not math.isfinite(loss):
                raise DivergenceError(f"epoch {epoch + 1}, step {len(terms) + 1}: "
                                      f"loss not finite")
            backward()
            del backward  # the step's tape or arrays: freed before the next step allocates
            opt.step(lr_factor=lr_schedule(1.0, done / max(1, total_steps - 1)))
            opt.zero_grad()
            if after_step is not None:
                after_step()
            terms.append(step_terms)
            done += 1
        yield epoch, terms
