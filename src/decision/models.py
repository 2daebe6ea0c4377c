"""Per-domain source models: a small feature extractor plus a linear head.

A ``SourceModel`` is six named float64 arrays (``_PARAM_AXES``): the
extractor maps inputs through two affine layers with a relu between them to
features; the head is one affine map to class logits. Training (source models, adaptation,
the distillation student) runs one tape forward, ``tape_logits``, over n
models' parameters stacked into six (n, ...) tensors: one ``Tape.affine``
node per layer and a ``relu``. Adaptation keeps the heads frozen by stacking
them as constants. ``train_source`` is the one supervised trainer: it steps
n >= 1 equal-size models in lockstep (all the sources of a run, or the single
distillation student), each on its own data and batch order, and ends every
step in one ``Tape.im_loss`` node against smoothed (or, with epsilon = 0,
one-hot) targets, 11 nodes per step at any n. Evaluation and centroid
computation use the plain-numpy forward, on the same kernels. Tensors exist
only on the training side: the stacked parameters and the batch input.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import kernels
from .autodiff import ShapeMismatchError, Tape, Tensor
from .data import stacked_batches
from .optim import ParamGroup, SgdMomentum, lr_schedule

CHECKPOINT_VERSION = "decision-ckpt-v1"

# parameter name -> its axes, in the order of SourceModel.params: the first
# four are the extractor, the last two the head; a checkpoint's shapes must
# agree on every axis
_PARAM_AXES = {"extractor.w1": "ih", "extractor.b1": "h", "extractor.w2": "hd",
               "extractor.b2": "d", "classifier.w": "dK", "classifier.b": "K"}


class CheckpointError(ValueError):
    """A checkpoint file that cannot be read as a model; names file and field."""


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int = 2
    hidden_dim: int = 64
    feature_dim: int = 16
    num_classes: int = 2


@dataclass(frozen=True)
class SourceTrainConfig:
    epochs: int = 30
    batch_size: int = 32
    lr: float = 1e-2
    momentum: float = 0.9
    weight_decay: float = 1e-3
    label_smoothing: float = 0.1

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label smoothing must be in [0, 1)")


class SourceModel:
    """One source's network as six float64 arrays, in ``_PARAM_AXES`` order.

    The extractor w1 (i, h), b1 (h,), w2 (h, d), b2 (d,) maps inputs through
    two affine layers with a relu between them to features; the head w (d, K),
    b (K,) maps features to class logits. The sizes are read from the shapes.
    Float64 arrays are kept as given, not copied; a value that is not finite
    raises ValueError naming the parameter.
    """

    def __init__(self, domain, params, label_smoothing=0.1):
        self.domain = domain
        self.params = [np.asarray(p, dtype=np.float64) for p in params]
        for name, p in zip(_PARAM_AXES, self.params):
            if not np.isfinite(p).all():
                raise ValueError(f"parameter '{name}' is not finite")
        self.label_smoothing = label_smoothing

    @classmethod
    def init(cls, domain, cfg, seed, label_smoothing=0.1):
        """Uniform(+-1/sqrt(fan_in)) weights and biases, drawn layer by layer."""
        rng = np.random.default_rng(seed)
        sizes = (cfg.input_dim, cfg.hidden_dim, cfg.feature_dim, cfg.num_classes)
        params = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            params += [rng.uniform(-bound, bound, shape)
                       for shape in ((fan_in, fan_out), (fan_out,))]
        return cls(domain, params, label_smoothing)

    @property
    def dims(self):
        """(input_dim, hidden_dim, feature_dim, num_classes), as in ModelConfig."""
        w1, _, w2, _, w, _ = self.params
        return w1.shape + (w2.shape[1], w.shape[1])

    @property
    def num_classes(self):
        return self.params[4].shape[1]

    @property
    def feature_dim(self):
        return self.params[2].shape[1]

    def features(self, x):
        """Plain-numpy extractor forward for evaluation paths."""
        w1, b1, w2, b2 = self.params[:4]
        if x.shape[1] != w1.shape[0]:
            raise ShapeMismatchError(f"input dim {x.shape[1]} != {w1.shape[0]}")
        h = kernels.relu_fwd(kernels.matmul_nn(x, w1) + b1)
        return kernels.matmul_nn(h, w2) + b2

    def head_logits(self, feats):
        w, b = self.params[4:]
        return kernels.matmul_nn(feats, w) + b

    def logits(self, x):
        return self.head_logits(self.features(x))


def check_compatible(models):
    """All models in one run must share the class count and feature dim."""
    if not models:
        raise ValueError("need at least one source model")
    k, d = models[0].num_classes, models[0].feature_dim
    for m in models[1:]:
        if m.num_classes != k:
            raise ShapeMismatchError(f"class count mismatch: {m.num_classes} != {k}")
        if m.feature_dim != d:
            raise ShapeMismatchError(f"feature dim mismatch: {m.feature_dim} != {d}")
    return k, d


class SourceStack:
    """n compatible source models as six stacked parameter tensors.

    The extractors become (n, in, h), (n, h), (n, h, d) and (n, d) tensors,
    trainable only when ``requires_grad``; the frozen heads become (n, d, K)
    and (n, K) constants. The inputs are copied, never mutated. ``models``
    are per-source SourceModels whose arrays are row j of the stacked
    tensors' ``values``: an optimizer that updates ``values`` in place, as
    SgdMomentum does, keeps every view current, so the numpy evaluation
    paths, checkpoints and teachers read the adapted parameters without
    copies. Replacing a stacked tensor's ``values`` would detach them.
    """

    def __init__(self, models, requires_grad=True):
        check_compatible(models)
        self.params = _stacked_params(models, 4 if requires_grad else 0)
        self.models = [SourceModel(m.domain, [t.values[j] for t in self.params],
                                   m.label_smoothing)
                       for j, m in enumerate(models)]

    def extractor_params(self):
        return self.params[:4]


def _stacked_params(models, trainable):
    """The models' params as six (n, ...) copies; the first ``trainable`` take gradients."""
    kinds = list(zip(*(m.params for m in models)))
    for kind in kinds:
        if any(p.shape != kind[0].shape for p in kind):
            raise ShapeMismatchError(f"cannot stack shapes {[p.shape for p in kind]}")
    return [Tensor(np.stack(kind), requires_grad=i < trainable)
            for i, kind in enumerate(kinds)]


def tape_logits(tape, params, x):
    """Per-source logits (n, b, K) on the tape: the one training forward,
    three ``Tape.affine`` layers with a ``relu`` after the first.

    ``params`` are n models' parameters stacked into six (n, ...) tensors, as
    in ``SourceStack.params`` (n may be 1); x is one batch (b, i) that every
    source sees, or per-source batches (n, b, i).
    """
    w1, b1, w2, b2, w, b = params
    h = tape.relu(tape.affine(Tensor(x), w1, b1))
    return tape.affine(tape.affine(h, w2, b2), w, b)


def aggregate_logits(models, alpha, x):
    """Weighted sum of per-source logits (numpy path)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if len(alpha) != len(models):
        raise ValueError(f"alpha length {len(alpha)} != {len(models)} models")
    check_compatible(models)
    out = alpha[0] * models[0].logits(x)
    for a, m in zip(alpha[1:], models[1:]):
        out += a * m.logits(x)
    return out


def predict(logits):
    """argmax with ties broken toward the smaller class index."""
    return np.argmax(logits, axis=1)


def accuracy(models, alpha, labeled):
    return float(np.mean(predict(aggregate_logits(models, alpha, labeled.x)) == labeled.y))


def smoothed_targets(labels, num_classes, epsilon):
    """(1-eps)*onehot + eps/K target rows for integer labels of any shape."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"label smoothing must be in [0, 1), got {epsilon}")
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"label outside [0, {num_classes})")
    q = np.full(labels.shape + (num_classes,), epsilon / num_classes)
    q += (1.0 - epsilon) * (labels[..., None] == np.arange(num_classes))
    return q


def train_source(models, datasets, cfg, shuffle_seeds):
    """Supervised pretraining of n >= 1 models in lockstep; heads stay trainable.

    Model j trains on ``datasets[j]`` in the batch orders drawn from
    ``shuffle_seeds[j]``, exactly as it would alone: the parameters are six
    stacked tensors under one optimizer, each step is one tape over all n
    models, and its loss node sums the n per-model batch losses. The datasets
    must have one size and the models one architecture. Trains the models in
    place; returns one {"train_accuracy", "epoch_losses"} dict per model.
    """
    n = len(models)
    if n == 0 or len(datasets) != n or len(shuffle_seeds) != n:
        raise ValueError(f"need one training set and one shuffle seed per model: "
                         f"{n} models, {len(datasets)} sets, {len(shuffle_seeds)} seeds")
    size = len(datasets[0])
    if size == 0:
        raise ValueError("training set is empty")
    if any(len(d) != size for d in datasets):
        raise ValueError(f"training sets differ in size: {[len(d) for d in datasets]}")
    params = _stacked_params(models, 6)
    x = np.stack([d.x for d in datasets])
    q = smoothed_targets(np.stack([d.y for d in datasets]), models[0].num_classes,
                         cfg.label_smoothing)
    opt = SgdMomentum([ParamGroup(params, cfg.lr, cfg.weight_decay)], momentum=cfg.momentum)
    total_steps = cfg.epochs * -(-size // cfg.batch_size)
    step = 0
    epoch_losses = np.empty((cfg.epochs, n))
    for epoch in range(cfg.epochs):
        losses = []
        seeds = [s * 1_000_003 + epoch for s in shuffle_seeds]
        for xb, qb in stacked_batches([x, q], cfg.batch_size, seeds):
            tape = Tape()
            loss, (_, _, l_pl) = tape.im_loss(tape_logits(tape, params, xb), qb, 0.0, 0.0, 1.0)
            tape.backward(loss)
            opt.step(lr_factor=lr_schedule(1.0, step / max(1, total_steps - 1)))
            opt.zero_grad()
            losses.append(l_pl)
            step += 1
        # one 1-d mean per model: a mean over axis 0 would sum in another order
        epoch_losses[epoch] = [np.mean(per_model) for per_model in np.transpose(losses)]
    metrics = []
    for j, (model, data) in enumerate(zip(models, datasets)):
        for p, stacked in zip(model.params, params):
            p[...] = stacked.values[j]
        metrics.append({
            "train_accuracy": float(np.mean(predict(model.logits(data.x)) == data.y)),
            "epoch_losses": epoch_losses[:, j].tolist(),
        })
    return metrics


# -- checkpoints --------------------------------------------------------------

def save_checkpoint(model, path):
    doc = {
        "version": CHECKPOINT_VERSION,
        "domain": model.domain,
        "label_smoothing": model.label_smoothing,
        "params": {
            name: {"shape": list(p.shape), "values": p.ravel().tolist()}
            for name, p in zip(_PARAM_AXES, model.params)
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path):
    """Read a model. Text that is not JSON, a wrong version, a missing field or
    parameter, values that do not fit their shape or are not finite, or shapes
    that do not chain as (i, h), (h,), (h, d), (d,), (d, K), (K,) raise
    CheckpointError."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise CheckpointError(f"{path}: not a JSON checkpoint: {exc}") from None
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version!r}")
    for key in ("domain", "label_smoothing"):
        if key not in doc:
            raise CheckpointError(f"{path}: missing field '{key}'")
    params, sizes, arrays = doc.get("params"), {}, []
    for name, axes in _PARAM_AXES.items():
        try:
            entry = params[name]
        except (KeyError, TypeError):
            raise CheckpointError(f"{path}: missing parameter '{name}'") from None
        try:
            vals = np.asarray(entry["values"], dtype=np.float64).reshape(entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: parameter '{name}': {exc}") from None
        if vals.ndim != len(axes) or any(sizes.setdefault(ax, n) != n
                                         for ax, n in zip(axes, vals.shape)):
            raise CheckpointError(f"{path}: parameter '{name}' has shape {vals.shape}, "
                                  f"which does not chain with the others")
        arrays.append(vals)
    try:
        return SourceModel(doc["domain"], arrays, doc["label_smoothing"])
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def classifier_checksum(model):
    """SHA-256 over the head's raw parameter bytes."""
    h = hashlib.sha256()
    for p in model.params[4:]:
        h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()
