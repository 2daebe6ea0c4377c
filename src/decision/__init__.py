"""Multi-source source-free domain adaptation with simplex ensemble weights."""

from .adaptation import (AdaptationConfig, adapt, alpha_project,
                         update_pseudo_labels, weights_only_adapt)
from .autodiff import Tape, Tensor
from .config import ExperimentConfig, moons_fixture
from .data import DomainSpec, LabeledSet, UnlabeledSet, generate_domain
from .kernels import active_backend
from .models import ModelConfig, SourceModel, SourceTrainConfig, train_source
from .oracle import verify_combination_bound

__version__ = "0.1.0"

__all__ = [
    "AdaptationConfig",
    "DomainSpec",
    "ExperimentConfig",
    "LabeledSet",
    "ModelConfig",
    "SourceModel",
    "SourceTrainConfig",
    "Tape",
    "Tensor",
    "UnlabeledSet",
    "active_backend",
    "adapt",
    "alpha_project",
    "generate_domain",
    "moons_fixture",
    "train_source",
    "update_pseudo_labels",
    "verify_combination_bound",
    "weights_only_adapt",
    "__version__",
]
