"""Synthetic multi-domain datasets with controllable shift and label noise.

Domains are generated from a ``DomainSpec``: a base sampler (two interleaved
arcs, or a three-blob gaussian mixture) followed by label corruption and a
rigid rotation + translation. Everything is deterministic given the spec.
"""

from dataclasses import dataclass

import numpy as np

GENERATOR_CLASSES = {"two-moons": 2, "gaussian-mixture": 3}

# blob centers for the gaussian-mixture generator, before rotation/translation
_MIXTURE_MEANS = 1.5 * np.array(
    [[np.cos(a), np.sin(a)] for a in (np.pi / 2, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3)]
)


@dataclass(frozen=True)
class DomainSpec:
    kind: str
    n: int
    seed: int
    rotation: float = 0.0  # radians, applied after base sampling
    translation: tuple = (0.0, 0.0)
    noise_std: float = 0.1
    label_corruption: float = 0.0  # probability a label is resampled uniformly

    def __post_init__(self):
        if self.kind not in GENERATOR_CLASSES:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("sample count must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if len(self.translation) != 2:
            raise ValueError(f"translation must be two numbers, got {list(self.translation)}")
        if not 0.0 <= self.noise_std < np.inf:  # NaN fails too
            raise ValueError(f"noise std must be finite and >= 0, got {self.noise_std}")
        if not np.isfinite(self.rotation) or not np.isfinite(self.translation).all():
            raise ValueError(f"rotation and translation must be finite, got "
                             f"{self.rotation}, {self.translation}")
        if not 0.0 <= self.label_corruption <= 1.0:
            raise ValueError("label corruption rate must be in [0, 1]")

    @property
    def num_classes(self):
        return GENERATOR_CLASSES[self.kind]


def _check_finite(x):
    if not np.isfinite(x).all():
        raise ValueError("inputs must be finite")


@dataclass
class LabeledSet:
    x: np.ndarray  # (n, dim)
    y: np.ndarray  # (n,) ints in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2 or self.y.ndim != 1 or len(self.x) != len(self.y):
            raise ValueError(f"inconsistent rows: x {self.x.shape}, y {self.y.shape}")
        if len(self.y) and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ValueError("label outside [0, num_classes)")
        _check_finite(self.x)

    def __len__(self):
        return len(self.x)

    def inputs_only(self):
        """Strip labels; the adaptation API accepts only this view."""
        return UnlabeledSet(self.x)


@dataclass
class UnlabeledSet:
    x: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.ndim != 2:
            raise ValueError(f"inputs must be a 2-d matrix, got {self.x.shape}")
        _check_finite(self.x)

    def __len__(self):
        return len(self.x)


def _two_moons(rng, n):
    n_outer = n - n // 2
    t_outer = rng.uniform(0.0, np.pi, n_outer)
    t_inner = rng.uniform(0.0, np.pi, n // 2)
    outer = np.column_stack([np.cos(t_outer), np.sin(t_outer)])
    inner = np.column_stack([1.0 - np.cos(t_inner), 1.0 - np.sin(t_inner) - 0.5])
    x = np.vstack([outer, inner]) - np.array([0.5, 0.25])  # center at the origin
    y = np.concatenate([np.zeros(n_outer, np.int64), np.ones(n // 2, np.int64)])
    return x, y


def _gaussian_mixture(rng, n):
    counts = [n // 3 + (1 if c < n % 3 else 0) for c in range(3)]
    x = np.vstack([
        _MIXTURE_MEANS[c] + np.zeros((counts[c], 2)) for c in range(3)
    ])
    y = np.concatenate([np.full(counts[c], c, np.int64) for c in range(3)])
    return x, y


def generate_domain(spec):
    """Sample one domain; identical specs give bit-identical output."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "two-moons":
        x, y = _two_moons(rng, spec.n)
    else:
        x, y = _gaussian_mixture(rng, spec.n)
    if spec.noise_std > 0.0:
        x = x + rng.normal(0.0, spec.noise_std, x.shape)
    if spec.label_corruption > 0.0:
        flip = rng.uniform(size=spec.n) < spec.label_corruption
        y = y.copy()
        y[flip] = rng.integers(0, spec.num_classes, flip.sum())
    c, s = np.cos(spec.rotation), np.sin(spec.rotation)
    rot = np.array([[c, -s], [s, c]])
    x = x @ rot.T + np.asarray(spec.translation)
    return LabeledSet(x, y, spec.num_classes)


def eval_rows(n, eval_fraction):
    """Rows the eval split of an n-row set gets: floor(n * fraction)."""
    return int(n * eval_fraction)


def split_train_eval(ls, eval_fraction=0.2, seed=0):
    """Seeded permutation split; eval gets ``eval_rows(len(ls), fraction)`` rows."""
    perm = np.random.default_rng(seed).permutation(len(ls))
    n_eval = eval_rows(len(ls), eval_fraction)
    tr, ev = perm[n_eval:], perm[:n_eval]
    return (
        LabeledSet(ls.x[tr], ls.y[tr], ls.num_classes),
        LabeledSet(ls.x[ev], ls.y[ev], ls.num_classes),
    )


def stacked_batches(arrays, batch_size, epoch_seeds):
    """Yield one epoch's batches of n per-source arrays, each (n, N, ...).

    Source j's rows follow the permutation drawn from ``epoch_seeds[j]``, so
    each source sees the order it would see alone. A batch is the next
    ``batch_size`` rows of every source's order, as a list of (n, b, ...)
    arrays; the final short batch is kept.
    """
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    n, size = arrays[0].shape[:2]
    perm = np.stack([np.random.default_rng(s).permutation(size) for s in epoch_seeds])
    shuffled = [a[np.arange(n)[:, None], perm] for a in arrays]
    for start in range(0, size, batch_size):
        yield [a[:, start : start + batch_size] for a in shuffled]
