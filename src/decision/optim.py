"""SGD with momentum and coupled weight decay, plus the polynomial lr decay."""

from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeMismatchError, Tensor


def lr_schedule(initial, progress):
    """Decayed learning rate at training progress ``progress`` in [0, 1].

    eta(p) = initial * (1 + 10p)^(-0.75)
    """
    if not 0.0 <= progress <= 1.0:
        raise ValueError(f"progress must be in [0, 1], got {progress}")
    return initial * (1.0 + 10.0 * progress) ** (-0.75)


@dataclass
class ParamGroup:
    params: list
    lr: float
    weight_decay: float = 1e-3

    def __post_init__(self):
        if self.lr <= 0.0:
            raise ValueError(f"learning rate must be > 0, got {self.lr}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight decay must be >= 0, got {self.weight_decay}")


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
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
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
