"""Per-domain source models: a small feature extractor plus a linear head.

A ``SourceModel`` is six named float64 arrays (``_PARAM_AXES``): the
extractor maps inputs through two affine layers with a relu between them to
features; the head is one affine map to class logits. ``autodiff.mlp_forward``
is the one forward: ``SourceModel.logits`` and the pseudo-labels call it in
numpy, adaptation records it as one ``Tape.mlp`` node, and supervised
training calls it with no tape, all over n models' parameters stacked into
six (n, ...) tensors and stepping in ``optim.run_epochs``. Adaptation keeps
the heads frozen by stacking them as constants. ``train_source`` is the one
supervised trainer: it hands the loop n >= 1 equal-size models (all the
sources of a run, or the single distillation student), each with its own data
and batch order, and ``cross_entropy_step``, which computes the cross-entropy
against smoothed (or, with epsilon = 0, one-hot) targets and, once the loop
has checked the loss, writes the analytic gradient of ``autodiff.mlp_backward``
into the optimizer's rows. The graph never changes, so it needs no tape.
Tensors exist only on the training side, for the stacked parameters.

A fixed parameter state is scored from one stacked forward,
``source_logits`` (n, N, K), whose rows give each model's accuracy and
whose weighted or soft-ensemble sums give an ensemble's. Every accuracy and
agreement is ``argmax_accuracy``: the share of rows whose argmax is the label.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import kernels
from .autodiff import (ShapeMismatchError, Tensor, _check_finite, mlp_backward, mlp_forward,
                       quiet_mlp_forward)
from .optim import (ParamGroup, SgdMomentum, check_lr, check_momentum, check_weight_decay,
                    run_epochs)

CHECKPOINT_VERSION = "decision-ckpt-v2"

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
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        check_lr(self.lr)
        check_momentum(self.momentum)
        check_weight_decay(self.weight_decay)
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

    def __init__(self, domain, params):
        self.domain = domain
        self.params = [np.asarray(p, dtype=np.float64) for p in params]
        for name, p in zip(_PARAM_AXES, self.params):
            if not np.isfinite(p).all():
                raise ValueError(f"parameter '{name}' is not finite")

    @classmethod
    def init(cls, domain, cfg, seed):
        """Uniform(+-1/sqrt(fan_in)) weights and biases, drawn layer by layer."""
        rng = np.random.default_rng(seed)
        sizes = (cfg.input_dim, cfg.hidden_dim, cfg.feature_dim, cfg.num_classes)
        params = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            params += [rng.uniform(-bound, bound, shape)
                       for shape in ((fan_in, fan_out), (fan_out,))]
        return cls(domain, params)

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

    def logits(self, x):
        return mlp_forward(x, self.params)[2]


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
    gives per-source SourceModels whose arrays are row j of the stacked
    tensors' current ``values``. An optimizer built over the extractors moves
    their values into its own buffer and then updates them in place, so take
    the views after building it: they then follow every step, and the numpy
    evaluation paths, checkpoints and teachers read the adapted parameters
    without copies.
    """

    def __init__(self, models, requires_grad=True):
        check_compatible(models)
        self.params = _stacked_params(models, 4 if requires_grad else 0)
        self._domains = [m.domain for m in models]

    @property
    def models(self):
        return [SourceModel(domain, [t.values[j] for t in self.params])
                for j, domain in enumerate(self._domains)]

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


def simplex_weights(alpha, n, error=ValueError):
    """``alpha`` as float64 weights of n sources: the one simplex check. A shape
    other than (n,) raises ShapeMismatchError; a negative weight or a sum more
    than 1e-9 off 1 (NaN included) raises ``error``."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (n,):
        raise ShapeMismatchError(f"alpha of shape {alpha.shape} for {n} sources")
    if not (alpha.min() >= 0.0 and abs(alpha.sum() - 1.0) <= 1e-9):  # NaN fails too
        raise error(f"alpha is not on the simplex: {alpha}")
    return alpha


def weighted_logits(alpha, logits):
    """alpha[0]*logits[0] + alpha[1]*logits[1] + ..., summed in source order.

    ``logits`` iterates over the per-source (N, K) arrays: a stacked (n, N, K)
    array, or a generator that computes one at a time. Every numpy ensemble
    sum goes through here, so cached and fresh logits give the same bits. One
    weight per source: a length mismatch raises ValueError.
    """
    logits = iter(logits)
    out = alpha[0] * next(logits)
    for a, z in zip(alpha[1:], logits, strict=True):
        out += a * z
    return out


def source_logits(models, x):
    """Every model's logits (n, N, K) of ``x``: the one stacked scoring forward."""
    return np.stack([mlp_forward(x, m.params)[2] for m in models])


def aggregate_logits(models, alpha, x):
    """Weighted sum of per-source logits (numpy path)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if len(alpha) != len(models):
        raise ValueError(f"alpha length {len(alpha)} != {len(models)} models")
    check_compatible(models)
    return weighted_logits(alpha, (m.logits(x) for m in models))


def predict(logits):
    """argmax with ties broken toward the smaller class index."""
    return np.argmax(logits, axis=1)


def argmax_accuracy(scores, labels):
    """The share of rows of ``scores`` (N, K) whose argmax (``predict``) is the
    label: every accuracy and agreement the package reports."""
    return float(np.mean(predict(scores) == labels))


def accuracy(models, alpha, labeled):
    return argmax_accuracy(aggregate_logits(models, alpha, labeled.x), labeled.y)


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


def cross_entropy_step(params):
    """The supervised training step of the stacked models ``params``, six
    tensors shaped as ``mlp_forward`` takes them, with no tape: ``step(x, q,
    q_sums)`` on a batch x (n, b, i), its target rows q (n, b, K) and their
    row sums (n, b, 1) returns ``optim.run_epochs``' triple. The loss is the
    sum over models of L_pl = -sum(q * log p) / b, the terms are the (n,)
    L_pl, and ``backward()`` writes each parameter's gradient into its
    optimizer row (``grad_row``, else a fresh array) and sets ``.grad`` to it:
    the bits of ``Tape.mlp`` and ``Tape.im_loss(z, q, 0, 0, 1)``.

    The forward runs ``Tape.mlp``'s two checks, with numpy's overflow and
    invalid-value warnings off: a pre-activation or logit that is not finite
    raises DivergenceError naming the first source that holds one. The step
    reads the parameters' current ``values``, so build it after the
    optimizer, which moves them into its buffer.
    """
    values = [p.values for p in params]
    rows = [p.grad_row for p in params]

    def step(x, q, q_sums):
        pre, feats, z = quiet_mlp_forward(x, values)
        _check_finite("pre-activation", pre)
        _check_finite("logits", z)
        logp = kernels.log_softmax_rows(z)
        scale = 1.0 / x.shape[-2]
        l_pl = np.add.reduce(q * logp, axis=(-2, -1)) * -scale

        def backward():
            # dL_pl/dz = (p * sum_k q - q) / b, exact when sum_k q != 1
            gz = (np.exp(logp) * q_sums - q) * scale
            for p, grad in zip(params, mlp_backward(x, values, pre, feats, gz, out=rows)):
                p.grad = grad

        return np.add.reduce(l_pl, axis=None), l_pl, backward

    return step


def train_source(models, datasets, cfg, shuffle_seeds):
    """Supervised pretraining of n >= 1 models in lockstep; heads stay trainable.

    Model j trains on ``datasets[j]`` in the batch orders drawn from
    ``shuffle_seeds[j]``, exactly as it would alone: the parameters are six
    stacked tensors under one optimizer, each step is one ``cross_entropy_step``
    over all n models, and its loss sums the n per-model batch losses. The
    datasets must have one size and the models one architecture. Trains the
    models in place; returns one {"train_accuracy", "epoch_losses"} dict per
    model.
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
    arrays = [x, q, np.add.reduce(q, axis=-1, keepdims=True)]
    opt = SgdMomentum([ParamGroup(params, cfg.lr, cfg.weight_decay)], momentum=cfg.momentum)
    epoch_losses = np.empty((cfg.epochs, n))
    for epoch, terms in run_epochs(opt, cfg.epochs, cfg.batch_size, shuffle_seeds,
                                   lambda epoch: arrays, cross_entropy_step(params)):
        # one 1-d mean of L_pl per model: a mean over axis 0 would sum in another order
        epoch_losses[epoch] = [np.mean(per_model) for per_model in np.transpose(terms)]
    metrics = []
    for j, (model, data) in enumerate(zip(models, datasets)):
        for p, stacked in zip(model.params, params):
            p[...] = stacked.values[j]
        metrics.append({
            "train_accuracy": argmax_accuracy(model.logits(data.x), data.y),
            "epoch_losses": epoch_losses[:, j].tolist(),
        })
    return metrics


# -- checkpoints --------------------------------------------------------------

def save_checkpoint(model, path):
    """Write ``model`` as a checkpoint; return the sha256 of the bytes written."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "domain": model.domain,
        "params": {
            name: {"shape": list(p.shape), "values": p.ravel().tolist()}
            for name, p in zip(_PARAM_AXES, model.params)
        },
    }
    # json.dumps runs the C encoder; json.dump to a file runs the Python one
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode()).hexdigest()


def load_checkpoint(path, data=None):
    """Read a model from ``path``, or from ``data``, the bytes of that file
    when the caller already holds them. Text that is not JSON, a wrong
    version, a missing field or parameter, values that do not fit their shape
    or are not finite, or shapes that do not chain as (i, h), (h,), (h, d),
    (d,), (d, K), (K,) raise CheckpointError naming ``path``."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        doc = json.loads(data)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise CheckpointError(f"{path}: not a JSON checkpoint: {exc}") from None
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version!r}")
    if "domain" not in doc:
        raise CheckpointError(f"{path}: missing field 'domain'")
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
        return SourceModel(doc["domain"], arrays)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def classifier_checksum(model):
    """SHA-256 over the head's raw parameter bytes."""
    h = hashlib.sha256()
    for p in model.params[4:]:
        h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()
