"""Per-domain source models: a small feature extractor plus a linear head.

A ``SourceModel`` is six named tensors (``_PARAM_AXES``): the extractor maps
inputs through two affine layers with a relu between them to features; the
head is one affine map to class logits. Training (source models, adaptation,
the distillation student) runs one tape forward, ``tape_logits``, over one
model's parameters or over n stacked ones; adaptation keeps the heads frozen
by stacking them as constants. Source training and the student end in one
``Tape.im_loss`` node against smoothed (or, with epsilon = 0, one-hot)
targets. Evaluation and centroid computation use the plain-numpy forward, on
the same kernels.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import kernels
from .autodiff import ShapeMismatchError, Tape, Tensor
from .data import batch_iter
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
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label smoothing must be in [0, 1)")


class SourceModel:
    """One source's network as six tensors, in ``_PARAM_AXES`` order.

    The extractor w1 (i, h), b1 (h,), w2 (h, d), b2 (d,) maps inputs through
    two affine layers with a relu between them to features; the head w (d, K),
    b (K,) maps features to class logits. The sizes are read from the shapes.
    """

    def __init__(self, domain, params, label_smoothing=0.1):
        self.domain = domain
        self.params = list(params)
        self.label_smoothing = label_smoothing

    @classmethod
    def init(cls, domain, cfg, seed, label_smoothing=0.1):
        """Uniform(+-1/sqrt(fan_in)) weights and biases, drawn layer by layer."""
        rng = np.random.default_rng(seed)
        sizes = (cfg.input_dim, cfg.hidden_dim, cfg.feature_dim, cfg.num_classes)
        params = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            params += [Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)
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
        w1, b1, w2, b2 = (p.values for p in self.params[:4])
        if x.shape[1] != w1.shape[0]:
            raise ShapeMismatchError(f"input dim {x.shape[1]} != {w1.shape[0]}")
        h = kernels.relu_fwd(kernels.matmul_nn(x, w1) + b1)
        return kernels.matmul_nn(h, w2) + b2

    def head_logits(self, feats):
        w, b = self.params[4:]
        return kernels.matmul_nn(feats, w.values) + b.values

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
    are per-source SourceModels (constant heads) whose tensors are views of
    row j of the stacked tensors: an optimizer that updates ``values`` in
    place, as SgdMomentum does, keeps every view current, so the numpy
    evaluation paths, checkpoints and teachers read the adapted parameters
    without copies. Replacing a stacked tensor's ``values`` would detach them.
    """

    def __init__(self, models, requires_grad=True):
        check_compatible(models)
        kinds = list(zip(*(m.params for m in models)))
        for kind in kinds:
            if any(p.shape != kind[0].shape for p in kind):
                raise ShapeMismatchError(f"cannot stack shapes {[p.shape for p in kind]}")
        self.params = [
            Tensor(np.stack([p.values for p in kind]), requires_grad=requires_grad and i < 4)
            for i, kind in enumerate(kinds)
        ]
        self.models = [
            SourceModel(m.domain, [Tensor(t.values[j], requires_grad=t.requires_grad)
                                   for t in self.params], m.label_smoothing)
            for j, m in enumerate(models)
        ]

    def extractor_params(self):
        return self.params[:4]


def tape_logits(tape, params, x):
    """Logits of an input batch x (b, i) on the tape: the one training forward.

    ``params`` are one model's ``params`` (gives (b, K)) or n stacked
    ones, as in ``SourceStack.params`` (gives per-source (n, b, K)).
    """
    w1, b1, w2, b2, w, b = params
    h = tape.relu(tape.add_bias(tape.matmul(Tensor(x), w1), b1))
    return tape.add_bias(tape.matmul(tape.add_bias(tape.matmul(h, w2), b2), w), b)


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


def label_smoothing_ce(tape, logits, labels, epsilon):
    """Mean cross-entropy against (1-eps)*onehot + eps/K targets."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"label smoothing must be in [0, 1), got {epsilon}")
    b, k = logits.shape
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label outside [0, {k})")
    q = np.full((b, k), epsilon / k)
    q[np.arange(b), labels] += 1.0 - epsilon
    return tape.im_loss(logits, q, 0.0, 0.0, 1.0)[0]


def train_source(model, data, cfg):
    """Supervised pretraining with smoothed labels; classifier stays trainable."""
    if len(data) == 0:
        raise ValueError("training set is empty")
    params = model.params
    opt = SgdMomentum([ParamGroup(params, cfg.lr, cfg.weight_decay)], momentum=cfg.momentum)
    n_batches = (len(data) + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * n_batches
    step = 0
    epoch_losses = []
    for epoch in range(cfg.epochs):
        losses = []
        for batch in batch_iter(data, cfg.batch_size, cfg.shuffle_seed * 1_000_003 + epoch):
            tape = Tape()
            loss = label_smoothing_ce(tape, tape_logits(tape, params, batch.x), batch.y,
                                      cfg.label_smoothing)
            tape.backward(loss)
            opt.step(lr_factor=lr_schedule(1.0, step / max(1, total_steps - 1)))
            opt.zero_grad()
            losses.append(loss.item())
            step += 1
        epoch_losses.append(float(np.mean(losses)))
    train_acc = float(np.mean(predict(model.logits(data.x)) == data.y))
    return {"train_accuracy": train_acc, "epoch_losses": epoch_losses}


# -- checkpoints --------------------------------------------------------------

def save_checkpoint(model, path):
    doc = {
        "version": CHECKPOINT_VERSION,
        "domain": model.domain,
        "label_smoothing": model.label_smoothing,
        "params": {
            name: {"shape": list(t.values.shape), "values": t.values.ravel().tolist()}
            for name, t in zip(_PARAM_AXES, model.params)
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path):
    """Read a model. Text that is not JSON, a wrong version, a missing field or
    parameter, values that do not fit their shape, or shapes that do not chain
    as (i, h), (h,), (h, d), (d,), (d, K), (K,) raise CheckpointError."""
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
    params, sizes, tensors = doc.get("params"), {}, []
    for name, axes in _PARAM_AXES.items():
        try:
            entry = params[name]
        except (KeyError, TypeError):
            raise CheckpointError(f"{path}: missing parameter '{name}'") from None
        try:
            vals = np.asarray(entry["values"], dtype=np.float64).reshape(entry["shape"])
            tensors.append(Tensor(vals, requires_grad=True))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: parameter '{name}': {exc}") from None
        if vals.ndim != len(axes) or any(sizes.setdefault(ax, n) != n
                                         for ax, n in zip(axes, vals.shape)):
            raise CheckpointError(f"{path}: parameter '{name}' has shape {vals.shape}, "
                                  f"which does not chain with the others")
    return SourceModel(doc["domain"], tensors, doc["label_smoothing"])


def classifier_checksum(model):
    """SHA-256 over the head's raw parameter bytes."""
    h = hashlib.sha256()
    for p in model.params[4:]:
        h.update(np.ascontiguousarray(p.values).tobytes())
    return h.hexdigest()
