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
simplex by ``models.simplex_weights``, the one check the refresh and the
teacher also use. A step records only what the optimizer can move. With
several sources (DECISION) the objective is one batched ``Tape.mlp`` forward,
one ``Tape.ensemble`` node that weighs the sources' logits by alpha into
(1, b, K) logits, and one fused ``Tape.im_loss`` node for the loss, against
one-hot pseudo-label rows that each epoch's refresh builds once. One source
(SHOT) has the constant alpha [1.0], checked once at the start: its step is
the forward, whose (1, b, K) logits the loss reads as they are, and no raw
weight trains. The epochs run in ``optim.run_epochs``, the loop
source training also uses; ``adapt`` supplies the step (the objective on a
fresh tape, whose backward the loop calls once the loss is checked), the
refresh at each epoch's start, the alpha update after each step and the
metrics row after each epoch.

Pseudo-labels run ``mlp_forward`` in numpy on each per-source view, once per
parameter state. Each epoch's refresh computes one ``target_forward`` (every
source's features, logits and round-0 centroids over the whole target), and
the epoch's ensemble mean (``mean_prediction``) reuses its logits. When the
extractors train, that forward is dropped before the epoch's steps. When they
are frozen (``weights_only_adapt``), it is computed once per run, at the first
refresh. Each step then reads its batch's rows of the cached target logits as
a constant of ``Tape.ensemble`` and runs no forward, and each epoch redoes only
the work that depends on alpha: the assignment rounds and the weighted sums.
Every weighted sum is ``models.weighted_logits``, so the cached and the fresh
paths give the same bits.

No label enters this module. A caller that wants each epoch's accuracy passes
``adapt`` a scorer, which it calls on the epoch's final models and alpha.

``soft_ensemble_predict`` scores independently adapted models (SHOT-Ens)
from their stacked logits: the sum of their softmaxes.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .autodiff import DivergenceError, Tape, Tensor, mlp_forward, sigmoid
from .data import UnlabeledSet
from .models import (SourceStack, aggregate_logits, check_compatible, predict, simplex_weights,
                     weighted_logits)
from .models import accuracy  # noqa: F401  not called here; the benchmark's tracer wraps it
from .optim import (ParamGroup, SgdMomentum, check_lr, check_momentum, check_weight_decay,
                    run_epochs)


# distance mode -> the (N, K) distances of features (n, N, d) to centroids
# (n, K, d) under alpha; each call reads the kernel from its module
_DISTANCES = {
    "per-source": lambda f, c, a: kernels.per_source_sqdist(f, c, a),
    "combined-feature": lambda f, c, a: kernels.pairwise_sqdist(np.einsum("j,jnd->nd", a, f),
                                                                np.einsum("j,jkd->kd", a, c)),
}
DISTANCE_MODES = tuple(_DISTANCES)


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
        if not 0.0 <= self.lambda_pl < math.inf:  # NaN fails too
            raise ValueError(f"lambda_pl must be >= 0 and finite, got {self.lambda_pl}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        check_lr(self.lr_backbone, "lr_backbone")
        check_lr(self.lr_alpha, "lr_alpha")
        check_momentum(self.momentum)
        check_weight_decay(self.weight_decay)
        if self.distance_mode not in DISTANCE_MODES:
            raise ValueError(f"distance_mode must be one of {DISTANCE_MODES}")
        if self.refinement_rounds < 0:
            raise ValueError("refinement rounds must be >= 0")


def alpha_project(raw):
    """Sigmoid then normalize: always a point on the probability simplex."""
    # s / S is the alpha every artifact records; Tape.ensemble's s * (1/S) can
    # differ in the last bit, and one formula in both would change artifacts
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


def objective(tape, stack, raw, x, q, cfg):
    """Full training objective of the sources on one tape; returns (L_tot, term values).

    With a SourceStack ``stack``, ``x`` is a constant batch (b, i) and the
    sources' logits are one batched ``Tape.mlp`` forward of its stacked
    parameters; with ``stack`` None, ``x`` holds the frozen sources' logits
    (n, b, K) of the batch, a constant. The ensemble logits sum_j alpha_j *
    logits_j are one ``Tape.ensemble`` node, with alpha the sigmoid-normalized
    raw weights ``raw``, an (n,) tensor. With ``raw`` None there is one source,
    whose alpha is the constant [1.0], and no ensemble node. Either way the
    loss reads (1, b, K) logits. ``q`` holds the batch's one-hot pseudo-label
    rows (b, K), or None when lambda_pl is 0.
    """
    z = Tensor(x) if stack is None else tape.mlp(x, stack.params)
    if raw is not None:
        z = tape.ensemble(raw, z)
    l_tot, terms = tape.im_loss(z, None if q is None else q[None], *loss_coefficients(cfg))
    l_ent, l_div, l_pl = (None if t is None else float(t[0]) for t in terms)
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
    against the alpha-combined centroids; any other mode raises ValueError.
    Ties break toward the smaller class index. A distance that is not finite
    raises DivergenceError: the features and the centroids flow into it.
    """
    if mode not in _DISTANCES:
        raise ValueError(f"unknown distance mode {mode!r}; known modes: {DISTANCE_MODES}")
    dists = _DISTANCES[mode](feats, cents, alpha)
    if not np.isfinite(dists).all():
        raise DivergenceError("pseudo-label distances not finite")
    return np.argmin(dists, axis=1)


@dataclass(frozen=True)
class TargetForward:
    """Every source's numpy forward of the target set, none of it depending on
    alpha: features (n, N, d), logits (n, N, K), and the round-0 class
    centroids (n, K, d), which weigh the features by each source's own softmax.
    """
    feats: np.ndarray
    logits: np.ndarray
    centroids: np.ndarray


def target_forward(models, x):
    """The TargetForward of ``models`` over ``x``: one ``mlp_forward`` per source.

    A class whose probability underflowed on every sample gets the source's
    mean feature as its round-0 centroid. A softmax that is not finite (the
    logits overflowed, and round 0 would put every class on its fallback)
    raises DivergenceError, and so does any other logit that is not finite: a
    -inf that is no row's maximum leaves the softmax finite, and weights-only
    steps read these logits unchecked. numpy's overflow and invalid-value
    warnings are off here.
    """
    check_compatible(models)
    with np.errstate(over="ignore", invalid="ignore"):
        # a generator, so no source's (N, h) pre-activation outlives its forward
        feats, logits = zip(*(mlp_forward(x, m.params)[1:] for m in models))
        feats = np.stack(feats)  # one stack at a time: the lower peak
        logits = np.stack(logits)
        probs = kernels.softmax_rows(logits)
        if not np.isfinite(probs).all():
            raise DivergenceError("pseudo-label softmax not finite")
        if not np.isfinite(logits).all():
            raise DivergenceError("pseudo-label logits not finite")
        return TargetForward(feats, logits, _source_centroids(feats, probs, None))


def update_pseudo_labels(forward, alpha, refinement_rounds=1, mode="per-source"):
    """Pseudo-labels (N,) of the whole target set, from centroid/assignment rounds.

    ``forward`` is the ``target_forward`` of the current parameter state, and
    ``alpha`` a point on the simplex with one weight per source
    (``simplex_weights`` raises ShapeMismatchError or ValueError). Round 0
    assigns against ``forward``'s softmax-weighted centroids; each refinement
    round re-estimates centroids from the previous hard assignment (an empty
    class keeps its centroid). All of this is plain numpy: pseudo-labels are
    constants for the optimizer. numpy's overflow and invalid-value warnings
    are off here: each assignment's finiteness check raises DivergenceError
    instead.
    """
    alpha = simplex_weights(alpha, len(forward.feats))
    feats, cents = forward.feats, forward.centroids
    with np.errstate(over="ignore", invalid="ignore"):
        labels = assign_pseudo_labels(feats, cents, alpha, mode)
        for _ in range(refinement_rounds):
            onehot = np.broadcast_to(np.eye(cents.shape[1])[labels], forward.logits.shape)
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


def mean_prediction(logits, alpha):
    """Mean softmax of the weighted ensemble over a whole input set, from every
    source's logits (n, N, K) of that set."""
    return kernels.softmax_rows(weighted_logits(alpha, logits)).mean(axis=0)


def adapt(models, target, cfg, score=None, on_step=None, optimize_features=True):
    """Run the full adaptation loop over frozen-classifier source models.

    ``target`` must be an UnlabeledSet; labels never cross this boundary.
    Each epoch's metrics row records ``score(models, alpha)`` of the epoch's
    final state as its ``target_accuracy``, or None when ``score`` is None.
    Returns the adapted models plus the learned weights alpha; inputs are not
    mutated. All sources step together as one ``SourceStack`` (frozen heads,
    extractors trainable when ``optimize_features``); the returned models are
    its per-source views. Alpha is checked to lie on the simplex at the start
    and after every step that trains it; leaving it raises AssertionError.
    """
    if not isinstance(target, UnlabeledSet):
        raise TypeError("adaptation target must be an UnlabeledSet")
    if len(target) == 0:
        raise ValueError("target set is empty")
    stack = SourceStack(models, requires_grad=optimize_features)
    raw = Tensor(np.zeros(len(models)), requires_grad=True)  # uniform alpha
    # One source's alpha stays [1.0] (its raw weight gets exactly 0 gradient
    # at 0), so raw trains only with several sources, or with one frozen
    # source, where it is the step's one parameter.
    weights = raw if len(models) > 1 or not optimize_features else None
    groups = []
    if optimize_features:
        groups.append(ParamGroup(stack.extractor_params(), cfg.lr_backbone, cfg.weight_decay))
    if weights is not None:
        groups.append(ParamGroup([raw], cfg.lr_alpha, 0.0))  # no decay pull on raw weights
    opt = SgdMomentum(groups, momentum=cfg.momentum)
    adapted = stack.models  # views of the optimizer's buffer, so taken after it

    def checked_alpha():  # at the start, which the first refresh reads, and after each step
        return simplex_weights(alpha_project(raw.values), len(models), AssertionError)

    result = AdaptationResult(adapted, checked_alpha())

    frozen = None  # frozen extractors: the target forward of the run's one state

    def epoch_arrays(epoch):
        nonlocal frozen
        forward = frozen or target_forward(adapted, target.x)
        if not optimize_features:
            frozen = forward
        labels = update_pseudo_labels(forward, result.alpha, cfg.refinement_rounds,
                                      cfg.distance_mode)
        # epoch-level mean embedding: diagnostic only; optimization uses the
        # per-batch estimate inside the objective's diversity term
        result.epoch_pbar.append(mean_prediction(forward.logits, result.alpha))
        return [np.arange(len(target))[None], np.eye(forward.logits.shape[-1])[labels][None]]

    def step(rows, qb):  # one batch order: the source axis has length 1
        tape = Tape()
        if frozen is None:
            loss, terms = objective(tape, stack, weights, target.x[rows[0]], qb[0], cfg)
        else:
            loss, terms = objective(tape, None, weights, frozen.logits[:, rows[0]], qb[0], cfg)
        return loss.values, terms, lambda: tape.backward(loss)

    def after_step():
        if weights is not None:
            result.alpha = checked_alpha()
        if on_step is not None:
            on_step(result.alpha.copy())

    for epoch, terms in run_epochs(opt, cfg.epochs, cfg.batch_size, [cfg.seed],
                                   epoch_arrays, step, after_step):
        sums = {"L_ent": 0.0, "L_div": 0.0, "L_pl": 0.0, "L_tot": 0.0}
        for step_terms in terms:
            for key in sums:
                sums[key] += step_terms[key]
        # in the column order of metrics/<method>.jsonl
        row = {"epoch": epoch + 1, **{key: total / len(terms) for key, total in sums.items()}}
        row["alpha"] = [float(a) for a in result.alpha]
        row["target_accuracy"] = None if score is None else score(adapted, result.alpha)
        result.metrics.append(row)
    return result


def weights_only_adapt(models, target, cfg, score=None, on_step=None):
    """Same loop with the feature extractors excluded from the optimizer."""
    return adapt(models, target, cfg, score, on_step, optimize_features=False)


# -- softmax-average ensemble of independently adapted models ---------------------

def soft_ensemble_predict(logits):
    """The soft ensemble's class scores (N, K) from stacked logits (n, N, K):
    the per-model softmaxes summed in model order. Their argmax (``predict``,
    the first max wins ties) is the label of the mean softmax."""
    return np.add.reduce(kernels.softmax_rows(logits), axis=0)


def prediction_label_entropy(models, alpha, x):
    """Entropy (nats) of the hard-prediction class histogram; collapse detector."""
    preds = predict(aggregate_logits(models, alpha, x))
    counts = np.bincount(preds, minlength=models[0].num_classes)
    p = counts / counts.sum()
    nz = p > 0
    return float(-(p[nz] * np.log(p[nz])).sum())
