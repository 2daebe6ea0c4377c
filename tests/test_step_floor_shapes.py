"""``train_source`` against ``tools/step_floor.py``'s numpy reference at the
loop's edge shapes, and the script's own bit-equality exit."""

import importlib.util
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decision.data import LabeledSet
from decision.models import ModelConfig, SourceModel, SourceTrainConfig, train_source

_PATH = Path(__file__).resolve().parents[1] / "tools" / "step_floor.py"
_SPEC = importlib.util.spec_from_file_location("step_floor", _PATH)
step_floor = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(step_floor)


# a single source, batches of one row, a set smaller than one batch, and a
# batch that divides the set
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), size=st.integers(1, 70), batch_size=st.integers(1, 33),
       k=st.sampled_from([2, 3]), smoothing=st.sampled_from([0.0, 0.1]))
@example(n=1, size=1, batch_size=1, k=2, smoothing=0.0)
@example(n=4, size=5, batch_size=33, k=3, smoothing=0.1)
@example(n=2, size=66, batch_size=33, k=2, smoothing=0.1)
def test_train_source_equals_the_reference_at_any_shape(n, size, batch_size, k, smoothing):
    rng = np.random.default_rng(size)
    arch = ModelConfig(hidden_dim=8, feature_dim=4, num_classes=k)
    cfg = SourceTrainConfig(epochs=2, batch_size=batch_size, label_smoothing=smoothing)
    models = [SourceModel.init(f"m{j}", arch, 10 + j) for j in range(n)]
    datasets = [LabeledSet(rng.standard_normal((size, 2)), rng.integers(0, k, size), k)
                for _ in range(n)]
    seeds = [7 + j for j in range(n)]
    want = step_floor.reference_train(models, datasets, cfg, seeds)
    train_source(models, datasets, cfg, seeds)
    for j, model in enumerate(models):
        for have, ref in zip(model.params, want):
            assert have.tobytes() == ref[j].tobytes()


def test_the_script_exits_0_when_the_two_loops_agree(capsys):
    assert step_floor.main(["--rounds", "1", "--epochs", "1"]) == 0
    assert "bit-equal: True" in capsys.readouterr().out
