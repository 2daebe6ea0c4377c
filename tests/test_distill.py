import numpy as np
import pytest

from decision.data import DomainSpec, UnlabeledSet, generate_domain
from decision.distill import TeacherView, teacher_label, train_student
from decision.models import ModelConfig, SourceModel, SourceTrainConfig, predict

from conftest import constant_logit_model, make_models


def test_teacher_view_requires_simplex_weights():
    models = make_models(2, seed=1)
    with pytest.raises(ValueError, match="simplex"):
        TeacherView(models, [0.9, 0.9])


def test_vertex_teacher_equals_single_model_argmax():
    models = make_models(2, seed=2)
    x = np.random.default_rng(0).standard_normal((10, 3))
    labels = teacher_label(TeacherView(models, [1.0, 0.0]), x)
    np.testing.assert_array_equal(labels, predict(models[0].logits(x)))


def test_symmetric_cancellation_ties_to_class_zero():
    hi = constant_logit_model([2.0, -2.0])
    lo = constant_logit_model([-2.0, 2.0])
    labels = teacher_label(TeacherView([hi, lo], [0.5, 0.5]), np.zeros((5, 2)))
    assert labels.tolist() == [0] * 5


def test_teacher_labels_are_deterministic():
    models = make_models(3, seed=3)
    teacher = TeacherView(models, [0.2, 0.5, 0.3])
    x = np.random.default_rng(1).standard_normal((20, 3))
    np.testing.assert_array_equal(teacher_label(teacher, x), teacher_label(teacher, x))


def _unlabeled_moons(n=200, seed=0):
    return generate_domain(
        DomainSpec("two-moons", n=n, seed=seed, noise_std=0.15)
    ).inputs_only()


def test_constant_teacher_reaches_full_agreement():
    teacher = TeacherView([constant_logit_model([5.0, 0.0])], [1.0])
    target = _unlabeled_moons()
    student, agreement = train_student(teacher, target, SourceTrainConfig(epochs=10))
    assert agreement == 1.0


def test_untrained_student_agreement_is_chance_level():
    from conftest import tiny_arch
    from decision.models import train_source

    model = SourceModel.init("t", tiny_arch(input_dim=2, num_classes=2), 5)
    data = generate_domain(DomainSpec("two-moons", n=300, seed=2, noise_std=0.15))
    train_source([model], [data], SourceTrainConfig(epochs=20), [0])
    teacher = TeacherView([model], [1.0])
    student = SourceModel.init("student", ModelConfig(*model.dims), 0, label_smoothing=0.0)
    agreement = np.mean(predict(student.logits(data.x)) == teacher_label(teacher, data.x))
    assert 0.2 < agreement < 0.8  # roughly 1/K for two classes


def test_student_matches_source_architecture_and_is_single_model():
    models = make_models(2, seed=6)
    teacher = TeacherView(models, [0.5, 0.5])
    x = UnlabeledSet(np.random.default_rng(2).standard_normal((40, 3)))
    student, _ = train_student(teacher, x, SourceTrainConfig(epochs=2))
    ref = models[0]
    assert student.num_classes == ref.num_classes
    assert student.feature_dim == ref.feature_dim
    for a, b in zip(student.params, ref.params):
        assert a.shape == b.shape
    assert student.label_smoothing == 0.0


def test_student_trains_without_label_smoothing():
    teacher = TeacherView(make_models(2, seed=6), [0.5, 0.5])
    x = UnlabeledSet(np.random.default_rng(3).standard_normal((40, 3)))
    smoothed, _ = train_student(teacher, x, SourceTrainConfig(epochs=2, label_smoothing=0.3))
    plain, _ = train_student(teacher, x, SourceTrainConfig(epochs=2, label_smoothing=0.0))
    for a, b in zip(smoothed.params, plain.params):
        np.testing.assert_array_equal(a, b)


def test_distillation_requires_unlabeled_target():
    teacher = TeacherView(make_models(1, seed=7), [1.0])
    data = generate_domain(DomainSpec("gaussian-mixture", n=30, seed=0))
    with pytest.raises(TypeError, match="UnlabeledSet"):
        train_student(teacher, data, SourceTrainConfig(epochs=1))
    with pytest.raises(ValueError, match="empty"):
        train_student(teacher, UnlabeledSet(np.zeros((0, 3))), SourceTrainConfig(epochs=1))
