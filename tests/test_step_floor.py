import importlib.util
from pathlib import Path

import numpy as np
import pytest

from decision.data import LabeledSet
from decision.models import ModelConfig, SourceModel, SourceTrainConfig, train_source

_PATH = Path(__file__).resolve().parents[1] / "tools" / "step_floor.py"
_SPEC = importlib.util.spec_from_file_location("step_floor", _PATH)
step_floor = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(step_floor)


# (models, rows, label smoothing, batch size): the student's shape, stacked
# sources, a short last batch (45 = 32 + 13) and single-row batches
@pytest.mark.parametrize("n, size, smoothing, batch_size",
                         [(1, 960, 0.0, 32), (2, 70, 0.1, 8), (3, 45, 0.1, 32), (1, 33, 0.1, 1)])
def test_train_source_is_bit_identical_to_the_numpy_reference(n, size, smoothing, batch_size):
    rng = np.random.default_rng(size)
    arch = ModelConfig(num_classes=3)
    cfg = SourceTrainConfig(epochs=2, batch_size=batch_size, label_smoothing=smoothing)
    models = [SourceModel.init(f"m{j}", arch, 10 + j) for j in range(n)]
    datasets = [LabeledSet(rng.standard_normal((size, 2)), rng.integers(0, 3, size), 3)
                for _ in range(n)]
    seeds = [7 + j for j in range(n)]
    want = step_floor.reference_train(models, datasets, cfg, seeds)
    train_source(models, datasets, cfg, seeds)
    for j, model in enumerate(models):
        for have, ref in zip(model.params, want):
            assert np.array_equal(have, ref[j])
