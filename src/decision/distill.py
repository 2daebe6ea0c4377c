"""Compress the adapted weighted ensemble into one student model.

The teacher is the adapted ensemble read out as hard labels; the student is a
fresh model of the same architecture trained on those labels with plain
cross-entropy (no smoothing, no soft targets). Inference cost of the result no
longer depends on the number of sources.
"""

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import DivergenceError
from .data import LabeledSet, UnlabeledSet
from .models import (ModelConfig, SourceModel, aggregate_logits, argmax_accuracy, predict,
                     simplex_weights, train_source)


@dataclass
class TeacherView:
    models: list
    alpha: np.ndarray  # one weight per model, on the simplex: else ValueError

    def __post_init__(self):
        self.alpha = simplex_weights(self.alpha, len(self.models))


def teacher_label(teacher, x):
    """Hard ensemble prediction; ties break toward the smaller class index.

    Ensemble logits that are not finite raise DivergenceError, as the
    pseudo-label forward's do; numpy's overflow and invalid-value warnings are
    off in the forward.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        logits = aggregate_logits(teacher.models, teacher.alpha, x)
    if not np.isfinite(logits).all():
        raise DivergenceError("teacher logits not finite")
    return predict(logits)


def train_student(teacher, target, cfg, seed=0):
    """Train a same-architecture student on teacher annotations.

    ``seed`` draws the student's initial weights and its batch orders; the
    student trains under ``cfg`` with label smoothing off. Returns (student,
    agreement), where agreement is the fraction of target points on which the
    student reproduces the teacher's label.
    """
    if not isinstance(target, UnlabeledSet):
        raise TypeError("distillation target must be an UnlabeledSet")
    if len(target) == 0:
        raise ValueError("target set is empty")
    arch = ModelConfig(*teacher.models[0].dims)
    labels = teacher_label(teacher, target.x)
    student = SourceModel.init("student", arch, seed)
    train_source([student], [LabeledSet(target.x, labels, arch.num_classes)],
                 replace(cfg, label_smoothing=0.0), [seed])
    return student, argmax_accuracy(student.logits(target.x), labels)
