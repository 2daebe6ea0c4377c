"""Joint adaptation of source feature extractors and simplex ensemble weights.

The engine minimizes, over unlabeled target data,

    L_tot = L_ent - L_div + lambda * L_pl

where L_ent is the mean prediction entropy of the weighted ensemble, L_div the
entropy of the mean predicted class distribution, and L_pl a cross-entropy
against nearest-centroid pseudo-labels recomputed at every epoch. The sources
step together as one ``SourceStack``: its heads are constants, so gradients
flow only into the stacked feature extractors and into the raw ensemble
weights, an (n,) tensor whose sigmoid-normalized view alpha, a plain array,
is recomputed after each optimizer step and checked to lie on the probability
simplex. The objective is one batched forward, one ``Tape.simplex`` node for
the weights and one fused ``Tape.im_loss`` node for the loss, with the
pseudo-labels as one-hot targets; evaluation and pseudo-labels run the
plain-numpy forward of each per-source view.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .autodiff import ShapeMismatchError, Tape, Tensor, sigmoid
from .data import UnlabeledSet
from .models import (SourceStack, accuracy, aggregate_logits, check_compatible,
                     predict, tape_logits)
from .optim import ParamGroup, SgdMomentum, lr_schedule

DISTANCE_MODES = ("per-source", "combined-feature")


@dataclass(frozen=True)
class AdaptationConfig:
    lambda_pl: float = 0.3
    epochs: int = 15
    batch_size: int = 32
    lr_backbone: float = 1e-3
    lr_alpha: float = 1e-2
    momentum: float = 0.9
    weight_decay: float = 1e-3
    seed: int = 0
    refinement_rounds: int = 1
    distance_mode: str = "per-source"
    use_entropy: bool = True
    use_diversity: bool = True

    def __post_init__(self):
        if self.lambda_pl < 0.0:
            raise ValueError("lambda_pl must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.distance_mode not in DISTANCE_MODES:
            raise ValueError(f"distance_mode must be one of {DISTANCE_MODES}")
        if self.refinement_rounds < 0:
            raise ValueError("refinement rounds must be >= 0")


def alpha_project(raw):
    """Sigmoid then normalize: always a point on the probability simplex."""
    s = sigmoid(np.asarray(raw, dtype=np.float64))
    return s / s.sum()


# -- the objective ----------------------------------------------------------------

def loss_coefficients(cfg):
    """(c_ent, c_div, c_pl) of L_tot = L_ent - L_div + lambda*L_pl, with ablation toggles."""
    coefs = (1.0 if cfg.use_entropy else 0.0, -1.0 if cfg.use_diversity else 0.0,
             cfg.lambda_pl)
    if not any(coefs):
        raise ValueError("objective has no active terms")
    return coefs


def objective(tape, stack, raw, x, labels, cfg):
    """Full training objective of a SourceStack on one tape; returns (L_tot, term values).

    The ensemble logits sum_j alpha_j * logits_j come from one batched forward
    over the stacked parameters, weighted by ``Tape.simplex`` of the raw
    weights ``raw``, an (n,) tensor; ``labels`` may be None when lambda_pl is 0.
    """
    alpha_t = tape.simplex(raw)
    logits_t = tape.weighted_sum(alpha_t, tape_logits(tape, stack.params, x))
    q = None
    if labels is not None:
        if len(labels) != len(x):
            raise ShapeMismatchError(f"got {len(labels)} labels for a batch of {len(x)}")
        q = np.eye(logits_t.shape[1])[labels]
    l_tot, (l_ent, l_div, l_pl) = tape.im_loss(logits_t, q, *loss_coefficients(cfg))
    return l_tot, {"L_ent": l_ent, "L_div": l_div, "L_pl": l_pl, "L_tot": l_tot.item()}


# -- pseudo-labels --------------------------------------------------------------

def _source_centroids(feats, weights, fallback):
    """Class centroids (n, K, d) of every source's features (n, N, d) under
    class weights (n, N, K).

    A class whose weights are all zero gets its row of the (n, K, d)
    ``fallback``, or its source's mean feature when ``fallback`` is None
    (computed only then: the mean costs more than the rest of this function).
    """
    sums, denom = kernels.weighted_feature_sums(feats, weights)
    filled = denom > 0.0
    out = np.empty_like(sums)
    out[filled] = sums[filled] / denom[filled][:, None]
    if not filled.all():
        if fallback is None:
            fallback = np.broadcast_to(feats.mean(axis=-2)[:, None, :], sums.shape)
        out[~filled] = fallback[~filled]
    return out


def assign_pseudo_labels(feats, cents, alpha, mode):
    """Nearest-centroid labels (N,) of every source's features (n, N, d), given
    each source's class centroids (n, K, d).

    "per-source" sums the alpha-weighted squared distances in each source's
    feature space; "combined-feature" measures the alpha-combined feature
    against the alpha-combined centroids. Ties break toward the smaller class
    index.
    """
    if mode == "per-source":
        dists = kernels.per_source_sqdist(feats, cents, alpha)
    else:
        dists = kernels.pairwise_sqdist(np.einsum("j,jnd->nd", alpha, feats),
                                        np.einsum("j,jkd->kd", alpha, cents))
    return np.argmin(dists, axis=1)


def update_pseudo_labels(models, alpha, x, refinement_rounds=1, mode="per-source"):
    """Pseudo-labels (N,) of the whole target set, from centroid/assignment rounds.

    Round 0 weighs features by each source's own softmax (a class whose
    probability underflowed on every sample gets the source's mean feature);
    each refinement round re-estimates centroids from the previous hard
    assignment (an empty class keeps its centroid). All of this is plain
    numpy: pseudo-labels are constants for the optimizer.
    """
    k, _ = check_compatible(models)
    alpha = np.asarray(alpha, dtype=np.float64)
    feats = np.stack([m.features(x) for m in models])
    probs = np.stack([kernels.softmax_rows(m.head_logits(f)) for m, f in zip(models, feats)])
    cents = _source_centroids(feats, probs, None)
    labels = assign_pseudo_labels(feats, cents, alpha, mode)
    for _ in range(refinement_rounds):
        onehot = np.broadcast_to(np.eye(k)[labels], probs.shape)
        cents = _source_centroids(feats, onehot, cents)
        labels = assign_pseudo_labels(feats, cents, alpha, mode)
    return labels


# -- the adaptation loop ---------------------------------------------------------

@dataclass
class AdaptationResult:
    models: list
    alpha: np.ndarray  # the ensemble weights, on the simplex
    metrics: list = field(default_factory=list)
    epoch_pbar: list = field(default_factory=list)  # full-set mean prediction, per epoch


def mean_prediction(models, alpha, x):
    """Mean softmax of the weighted ensemble over a whole input set."""
    return kernels.softmax_rows(aggregate_logits(models, alpha, x)).mean(axis=0)


def _check_simplex(alpha, atol=1e-9):
    if not (alpha.min() >= 0.0 and abs(alpha.sum() - 1.0) <= atol):  # NaN fails too
        raise AssertionError(f"simplex invariant violated: {alpha}")


def adapt(models, target, cfg, eval_set=None, on_step=None, optimize_features=True):
    """Run the full adaptation loop over frozen-classifier source models.

    ``target`` must be an UnlabeledSet; labels never cross this boundary.
    ``eval_set`` is used only to report per-epoch accuracy in the metrics.
    Returns the adapted models plus the learned weights alpha; inputs are not
    mutated. All sources step together as one ``SourceStack`` (frozen heads,
    extractors trainable when ``optimize_features``); the returned models are
    its per-source views. Alpha is checked to lie on the simplex after every
    step; leaving it raises AssertionError.
    """
    if not isinstance(target, UnlabeledSet):
        raise TypeError("adaptation target must be an UnlabeledSet")
    if len(target) == 0:
        raise ValueError("target set is empty")
    stack = SourceStack(models, requires_grad=optimize_features)
    adapted = stack.models
    raw = Tensor(np.zeros(len(adapted)), requires_grad=True)  # uniform alpha
    result = AdaptationResult(adapted, alpha_project(raw.values))
    if cfg.epochs == 0:
        return result

    groups = []
    if optimize_features:
        groups.append(ParamGroup(stack.extractor_params(), cfg.lr_backbone, cfg.weight_decay))
    groups.append(ParamGroup([raw], cfg.lr_alpha, 0.0))  # no decay pull on raw weights
    opt = SgdMomentum(groups, momentum=cfg.momentum)

    n = len(target)
    n_batches = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * n_batches
    step = 0
    for epoch in range(cfg.epochs):
        labels = update_pseudo_labels(
            adapted, result.alpha, target.x, cfg.refinement_rounds, cfg.distance_mode
        )
        # epoch-level mean embedding: diagnostic only; optimization uses the
        # per-batch estimate inside the objective's diversity term
        result.epoch_pbar.append(mean_prediction(adapted, result.alpha, target.x))
        perm = np.random.default_rng(cfg.seed * 1_000_003 + epoch).permutation(n)
        sums = {"L_ent": 0.0, "L_div": 0.0, "L_pl": 0.0, "L_tot": 0.0}
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            tape = Tape()
            l_tot, terms = objective(tape, stack, raw, target.x[idx], labels[idx], cfg)
            tape.backward(l_tot)
            opt.step(lr_factor=lr_schedule(1.0, step / max(1, total_steps - 1)))
            opt.zero_grad()
            result.alpha = alpha_project(raw.values)
            _check_simplex(result.alpha)
            if on_step is not None:
                on_step(result.alpha.copy())
            for key in sums:
                sums[key] += terms[key]
            step += 1
        row = {key: sums[key] / n_batches for key in sums}
        row["epoch"] = epoch + 1
        row["alpha"] = [float(a) for a in result.alpha]
        row["target_accuracy"] = (
            accuracy(adapted, result.alpha, eval_set) if eval_set is not None else None
        )
        result.metrics.append(row)
    return result


def weights_only_adapt(models, target, cfg, eval_set=None, on_step=None):
    """Same loop with the feature extractors excluded from the optimizer."""
    return adapt(models, target, cfg, eval_set, on_step, optimize_features=False)


# -- softmax-average ensemble of independently adapted models ---------------------

def soft_ensemble_predict(models, x):
    """argmax of the mean per-model softmax output (average after softmax)."""
    check_compatible(models)
    probs = kernels.softmax_rows(models[0].logits(x))
    for m in models[1:]:
        probs = probs + kernels.softmax_rows(m.logits(x))
    return np.argmax(probs, axis=1)  # first max wins ties


def soft_ensemble_accuracy(models, labeled):
    return float(np.mean(soft_ensemble_predict(models, labeled.x) == labeled.y))


def prediction_label_entropy(models, alpha, x):
    """Entropy (nats) of the hard-prediction class histogram; collapse detector."""
    preds = predict(aggregate_logits(models, alpha, x))
    counts = np.bincount(preds, minlength=models[0].num_classes)
    p = counts / counts.sum()
    nz = p > 0
    return float(-(p[nz] * np.log(p[nz])).sum())
