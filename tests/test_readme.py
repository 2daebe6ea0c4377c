"""The README's library example runs as written against the package."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    # the example prints the learned weights: on the simplex, outlier lowest
    alpha = np.array(capsys.readouterr().out.strip().strip("[]").split(), dtype=float)
    assert alpha.shape == (4,) and abs(alpha.sum() - 1.0) < 1e-9
    assert alpha.argmin() == 3
