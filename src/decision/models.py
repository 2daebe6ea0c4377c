"""Per-domain source models: a small feature extractor plus a linear classifier.

The extractor maps inputs through two affine layers with a relu between them;
the classifier is one affine map to class logits. The classifier carries a
``frozen`` flag: adaptation freezes it and only ever optimizes the extractor.
Forward passes exist twice: on a tape (training) and as plain numpy
(evaluation, centroid computation), both on the same kernels.
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


def _uniform_init(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape)


class FeatureExtractor:
    """input -> hidden -> relu -> feature, all affine."""

    def __init__(self, w1, b1, w2, b2):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

    @classmethod
    def init(cls, cfg, rng):
        return cls(
            Tensor(_uniform_init(rng, (cfg.input_dim, cfg.hidden_dim), cfg.input_dim), requires_grad=True),
            Tensor(_uniform_init(rng, (cfg.hidden_dim,), cfg.input_dim), requires_grad=True),
            Tensor(_uniform_init(rng, (cfg.hidden_dim, cfg.feature_dim), cfg.hidden_dim), requires_grad=True),
            Tensor(_uniform_init(rng, (cfg.feature_dim,), cfg.hidden_dim), requires_grad=True),
        )

    @property
    def input_dim(self):
        return self.w1.shape[0]

    @property
    def feature_dim(self):
        return self.w2.shape[1]

    def params(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def forward(self, tape, x):
        h = tape.relu(tape.add_bias(tape.matmul(x, self.w1), self.b1))
        return tape.add_bias(tape.matmul(h, self.w2), self.b2)

    def features(self, x):
        """Plain-numpy forward for evaluation paths."""
        if x.shape[1] != self.input_dim:
            raise ShapeMismatchError(f"input dim {x.shape[1]} != {self.input_dim}")
        h = kernels.relu_fwd(kernels.matmul_nn(x, self.w1.values) + self.b1.values)
        return kernels.matmul_nn(h, self.w2.values) + self.b2.values


class Classifier:
    """Single affine map from feature space to class logits."""

    def __init__(self, w, b, frozen=False):
        self.w, self.b = w, b
        self.frozen = frozen

    @classmethod
    def init(cls, cfg, rng):
        return cls(
            Tensor(_uniform_init(rng, (cfg.feature_dim, cfg.num_classes), cfg.feature_dim), requires_grad=True),
            Tensor(_uniform_init(rng, (cfg.num_classes,), cfg.feature_dim), requires_grad=True),
        )

    @property
    def num_classes(self):
        return self.w.shape[1]

    def params(self):
        return [self.w, self.b]

    def forward(self, tape, feats):
        return tape.add_bias(tape.matmul(feats, self.w), self.b)

    def logits(self, feats):
        return kernels.matmul_nn(feats, self.w.values) + self.b.values


class SourceModel:
    def __init__(self, domain, extractor, classifier, label_smoothing=0.1):
        self.domain = domain
        self.extractor = extractor
        self.classifier = classifier
        self.label_smoothing = label_smoothing

    @classmethod
    def init(cls, domain, cfg, seed, label_smoothing=0.1):
        rng = np.random.default_rng(seed)
        return cls(domain, FeatureExtractor.init(cfg, rng), Classifier.init(cfg, rng), label_smoothing)

    @property
    def num_classes(self):
        return self.classifier.num_classes

    @property
    def feature_dim(self):
        return self.extractor.feature_dim

    def trainable_params(self):
        params = self.extractor.params()
        if not self.classifier.frozen:
            params = params + self.classifier.params()
        return params

    def forward(self, tape, x):
        feats = self.extractor.forward(tape, x)
        return self.classifier.forward(tape, feats), feats

    def features(self, x):
        return self.extractor.features(x)

    def logits(self, x):
        return self.classifier.logits(self.extractor.features(x))

    def clone(self):
        def copy_tensor(t):
            c = Tensor(t.values.copy(), requires_grad=t.requires_grad)
            return c

        ext = FeatureExtractor(*[copy_tensor(p) for p in self.extractor.params()])
        cls_ = Classifier(
            copy_tensor(self.classifier.w),
            copy_tensor(self.classifier.b),
            frozen=self.classifier.frozen,
        )
        return SourceModel(self.domain, ext, cls_, self.label_smoothing)


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
    are per-source SourceModels (heads frozen) whose tensors are views of
    row j of the stacked tensors: an optimizer that updates ``values`` in
    place, as SgdMomentum does, keeps every view current, so the numpy
    evaluation paths, checkpoints and teachers read the adapted parameters
    without copies. Replacing a stacked tensor's ``values`` would detach them.
    """

    def __init__(self, models, requires_grad=True):
        check_compatible(models)
        kinds = list(zip(*(model_params(m) for m in models)))
        for kind in kinds:
            if any(p.shape != kind[0].shape for p in kind):
                raise ShapeMismatchError(f"cannot stack shapes {[p.shape for p in kind]}")
        self.params = [
            Tensor(np.stack([p.values for p in kind]), requires_grad=requires_grad and i < 4)
            for i, kind in enumerate(kinds)
        ]
        self.models = []
        for j, m in enumerate(models):
            view = [Tensor(t.values[j], requires_grad=t.requires_grad) for t in self.params]
            self.models.append(SourceModel(
                m.domain, FeatureExtractor(*view[:4]), Classifier(*view[4:], frozen=True),
                m.label_smoothing,
            ))

    def extractor_params(self):
        return self.params[:4]


def model_params(model):
    """(w1, b1, w2, b2, classifier w, classifier b): the order SourceStack stacks."""
    return model.extractor.params() + model.classifier.params()


def stacked_logits(tape, params, x):
    """Per-source logits (n, b, K) of stacked ``params`` on a shared input batch."""
    w1, b1, w2, b2, w, b = params
    h = tape.relu(tape.add_bias(tape.bmm(Tensor(x), w1), b1))
    return tape.add_bias(tape.bmm(tape.add_bias(tape.bmm(h, w2), b2), w), b)


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
    logp = tape.log_softmax(logits)
    return tape.scale(tape.sum(tape.mul(Tensor(q), logp)), -1.0 / b)


def train_source(model, data, cfg):
    """Supervised pretraining with smoothed labels; classifier stays trainable."""
    if len(data) == 0:
        raise ValueError("training set is empty")
    opt = SgdMomentum(
        [ParamGroup(model.extractor.params() + model.classifier.params(), cfg.lr, cfg.weight_decay)],
        momentum=cfg.momentum,
    )
    n_batches = (len(data) + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * n_batches
    step = 0
    epoch_losses = []
    for epoch in range(cfg.epochs):
        losses = []
        for batch in batch_iter(data, cfg.batch_size, cfg.shuffle_seed * 1_000_003 + epoch):
            tape = Tape()
            logits, _ = model.forward(tape, Tensor(batch.x))
            loss = label_smoothing_ce(tape, logits, batch.y, cfg.label_smoothing)
            tape.backward(loss)
            opt.step(lr_factor=lr_schedule(1.0, step / max(1, total_steps - 1)))
            opt.zero_grad()
            losses.append(loss.item())
            step += 1
        epoch_losses.append(float(np.mean(losses)))
    train_acc = float(np.mean(predict(model.logits(data.x)) == data.y))
    return {"train_accuracy": train_acc, "epoch_losses": epoch_losses}


# -- checkpoints --------------------------------------------------------------

_PARAM_KEYS = ("extractor.w1", "extractor.b1", "extractor.w2", "extractor.b2",
               "classifier.w", "classifier.b")


def _named_params(model):
    return dict(zip(_PARAM_KEYS, model_params(model)))


def save_checkpoint(model, path):
    doc = {
        "version": CHECKPOINT_VERSION,
        "domain": model.domain,
        "label_smoothing": model.label_smoothing,
        "params": {
            name: {"shape": list(t.values.shape), "values": t.values.ravel().tolist()}
            for name, t in _named_params(model).items()
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")

    def tensor(name):
        entry = doc["params"][name]
        vals = np.asarray(entry["values"], dtype=np.float64).reshape(entry["shape"])
        return Tensor(vals, requires_grad=True)

    ext = FeatureExtractor(tensor("extractor.w1"), tensor("extractor.b1"),
                           tensor("extractor.w2"), tensor("extractor.b2"))
    cls_ = Classifier(tensor("classifier.w"), tensor("classifier.b"))
    return SourceModel(doc["domain"], ext, cls_, doc["label_smoothing"])


def classifier_checksum(model):
    """SHA-256 over the classifier's raw parameter bytes."""
    h = hashlib.sha256()
    for p in model.classifier.params():
        h.update(np.ascontiguousarray(p.values).tobytes())
    return h.hexdigest()
