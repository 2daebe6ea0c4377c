"""Exhaustive finite-support verification of the source-combination guarantee.

For finite joint distributions, the density-ratio-weighted convex combination
of per-source optimal predictors achieves target risk no worse than the best
single source whenever the target marginal is a mixture of the source
marginals. This module checks that inequality, its strictness condition, and
each intermediate bound of the argument on randomized instances, by exact
summation of a probability-mass table Q(x)P(y|x) against a per-predictor loss
table. It is completely independent of the neural pipeline.

An instance is one ``DiscreteDomains``, its n domains stacked over one support
(marginals (n, m), conditionals (n, m, K)), and mixture weights ``lam`` (n,). A
predictor set is a plain (p, m, K) array of simplex rows. A stack of T
instances of one shape adds a leading trial axis to every array (``qx`` (T, n,
m), ``lam`` (T, n), predictors (T, p, m, K)); every function here broadcasts
over it, and ``check_instance`` checks the whole stack in one call.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

LOSS_SENTINEL = 1e18  # stands in for an infinite expected loss
LOSSES = ("cross_entropy", "squared_error")  # verify_combination_bound alternates them
SLACK = 1e-9  # how far a checked bound may be exceeded before it is a violation
MAX_SUPPORT, MAX_CLASSES, MAX_SOURCES, MIN_LAM = 6, 3, 4, 1e-3  # random_instance's caps
# trials verify_combination_bound draws before it checks them; a 500-trial
# chunk's scratch stayed resident after the call and raised the peak RSS
CHUNK = 250


def _on_simplex(a):
    """Whether every slice of ``a`` along its last axis is a distribution; NaN fails."""
    return bool(a.min() >= 0 and np.abs(a.sum(axis=-1) - 1.0).max() <= 1e-9)


@dataclass
class DiscreteDomains:
    """n finite-support joint distributions over one support, stacked; an
    optional leading axis holds T instances of one shape."""

    qx: np.ndarray  # (n, m) or (T, n, m), each row an input marginal on the simplex
    cond: np.ndarray  # (n, m, K) or (T, n, m, K), each row a simplex point P(y|x)

    def __post_init__(self):
        self.qx = np.asarray(self.qx, dtype=np.float64)
        self.cond = np.asarray(self.cond, dtype=np.float64)
        if (self.qx.ndim not in (2, 3) or self.cond.ndim != self.qx.ndim + 1
                or self.qx.shape != self.cond.shape[:-1]):
            raise ValueError("marginals and conditionals disagree on support size")
        if not _on_simplex(self.qx):
            raise ValueError("input marginal is not a distribution")
        if not _on_simplex(self.cond):
            raise ValueError("a label conditional row is not a distribution")

    def __len__(self):  # n, for a stack too
        return self.qx.shape[-2]

    @property
    def lead(self):
        """The trial axis's shape: () for one instance, (T,) for a stack."""
        return self.qx.shape[:-2]

    @property
    def support_size(self):
        return self.qx.shape[-1]

    @property
    def num_classes(self):
        return self.cond.shape[-1]


def _mixture_weights(lam, n, lead=()):
    """``lam`` as float64 points of the n-simplex of shape ``lead + (n,)``, or ValueError."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (*lead, n) or not _on_simplex(lam):
        raise ValueError(f"mixture weights of shape {lam.shape} must lie on the {n}-simplex")
    return lam


def mixture_domain(domains, lam):
    """The lam-mixture of the source domains as a one-domain stack; ``lam`` off
    the n-simplex raises ValueError."""
    return _mixture_domain(domains, _mixture_weights(lam, len(domains), domains.lead))


def _mixture_domain(domains, lam):
    """``mixture_domain`` for weights ``_mixture_weights`` returned."""
    qx = np.einsum("...j,...jm->...m", lam, domains.qx)
    joint = (lam[..., None, None] * domains.qx[..., None] * domains.cond).sum(axis=-3)
    cond = np.full(joint.shape, 1.0 / joint.shape[-1])  # (..., m, K)
    np.divide(joint, qx[..., None], out=cond, where=(qx > 0.0)[..., None])
    return DiscreteDomains(qx[..., None, :], cond[..., None, :, :])


def optimal_predictors(domains):
    """Risk-minimizing predictors (n, m, K): the true conditionals wherever Q(x) > 0.

    Both supported losses are minimized in expectation by posterior matching, so
    the predictors do not depend on the loss; off-support rows (Q(x) = 0) are uniform."""
    rows = domains.cond.copy()
    rows[domains.qx == 0.0] = 1.0 / domains.num_classes
    return rows


def density_ratio_weights(domains, lam):
    """Per-input combination weights w_k(x) = lam_k Q_k(x) / sum_j lam_j Q_j(x), (m, n).

    Inputs where every scaled marginal vanishes are off the target support;
    they get uniform weights.
    """
    return _density_ratio_weights(domains, _mixture_weights(lam, len(domains), domains.lead))


def _density_ratio_weights(domains, lam):
    """``density_ratio_weights`` for weights ``_mixture_weights`` returned."""
    n = len(domains)
    scaled = lam[..., None] * domains.qx  # (..., n, m)
    denom = scaled.sum(axis=-2)
    w = np.full(denom.shape + (n,), 1.0 / n)
    np.divide(scaled.swapaxes(-1, -2), denom[..., None], out=w, where=(denom > 0.0)[..., None])
    return w


def mixture_predictor(domains, lam, predictors):
    """Density-ratio-weighted combination of the source predictors, as a (1, m, K) set."""
    return _combine(density_ratio_weights(domains, lam), predictors)


def _combine(w, predictors):
    """Each input's predictor rows (..., n, m, K) weighted by w (..., m, n)."""
    return np.einsum("...mn,...nmk->...mk", w, predictors)[..., None, :, :]


def uniform_mixture_weights(lam, c):
    """Input-agnostic weights when each marginal is c_k * uniform on the support."""
    c = np.asarray(c, dtype=np.float64)
    if not (c > 0.0).all():  # NaN fails too
        raise ValueError("scaling factors must be > 0")
    w = _mixture_weights(lam, len(c)) * c
    return w / w.sum()


def expected_losses(domains, predictors, loss="cross_entropy"):
    """Exact expected losses sum_x Q_i(x) sum_y P_i(y|x) L(theta_j(x), y), all pairs.

    ``predictors`` is a (p, m, K) array of simplex rows, (T, p, m, K) for a
    stack. Returns (values, saturated), two (len(domains), p) tables per
    instance; a pair whose cross-entropy is infinite (a zero probability where
    the domain has mass) saturates to LOSS_SENTINEL with its flag set. Zero-mass
    (x, y) pairs contribute nothing.
    """
    if loss not in LOSSES:
        raise ValueError(f"loss must be one of {LOSSES}")
    rows = np.asarray(predictors, dtype=np.float64)
    if rows.shape[-2:] != domains.cond.shape[-2:]:
        raise ValueError(f"predictor rows have shape {rows.shape[-2:]}, the domain's "
                         f"conditionals {domains.cond.shape[-2:]}")
    if rows.ndim != domains.cond.ndim or rows.shape[:-3] != domains.lead:
        raise ValueError(f"a predictor set of shape {rows.shape} does not fit domains "
                         f"of shape {domains.cond.shape}")
    if not _on_simplex(rows):
        raise ValueError("a predictor row is not on the simplex")
    return _loss_tables(domains, rows, loss)


def _loss_tables(domains, rows, loss):
    """``expected_losses`` for a loss in LOSSES and a checked float64 predictor set."""
    mass = domains.qx[..., None] * domains.cond  # (..., n_d, m, K)
    if loss == "cross_entropy":
        zero = rows <= 0.0
        table = -np.log(np.where(zero, 1.0, rows))  # those entries saturate instead
        saturated = np.einsum("...imk,...jmk->...ij", mass != 0.0, zero)
    else:  # table[j, x, y] = ||theta_j(x) - e_y||^2
        table = ((rows[..., None, :] - np.eye(rows.shape[-1])) ** 2).sum(axis=-1)
        saturated = np.zeros(domains.lead + (len(domains), rows.shape[-3]), dtype=bool)
    values = np.einsum("...imk,...jmk->...ij", mass, table)
    values[saturated] = LOSS_SENTINEL
    return values, saturated


def expected_loss(domain, predictor, loss="cross_entropy"):
    """``expected_losses`` for a one-domain stack and one (m, K) predictor: a float and a bool."""
    values, saturated = expected_losses(domain, np.asarray(predictor)[None], loss)
    return float(values[0, 0]), bool(saturated[0, 0])


@dataclass
class VerificationReport:
    trials: int = 0
    violations: list = field(default_factory=list)
    max_slack_used: float = -np.inf
    strict_cases_checked: int = 0
    notes: list = field(default_factory=list)

    def to_dict(self):
        return {**asdict(self),
                "max_slack_used": None if self.trials == 0 else self.max_slack_used}


def _saturating_mix(lam, values):
    """sum_i lam_i * values[..., i, c] for every column c, with sentinel saturation.

    ``np.vecdot`` gives each column ``np.dot``'s bits; a product-and-sum does not.
    """
    mixed = np.vecdot(lam[..., None], values, axis=-2)
    return np.where((values >= LOSS_SENTINEL).any(axis=-2), LOSS_SENTINEL, mixed)


def _check_tags(n):
    """The name of every check, in the order ``check_instance`` makes them."""
    per_predictor = ("mixture_decomposition", "self_optimality_chain") + (
        "per_source_optimality",) * n
    return ("combined_vs_best_source", "convexity_bound") + per_predictor * n


def check_instance(domains, lam, loss="cross_entropy", corrupt=False):
    """Verify one instance; returns (violations, slack_used, strict_checked).

    Two loss tables hold every loss checked: the n optimal predictors and
    their combination on the target, and predictor j on source i. ``lam`` is
    checked once, on entry; the predictor rows once, by ``expected_losses``
    building the first table.
    ``corrupt`` swaps the combined predictor for the worst single source, a
    detector self-test that must be flagged as a violation. On a stack of T
    instances (``lam`` (T, n)) it returns the same three values per trial: a
    list of T violation lists and two (T,) arrays.
    """
    n = len(domains)
    lam = _mixture_weights(lam, n, domains.lead)
    target = _mixture_domain(domains, lam)
    predictors = optimal_predictors(domains)
    scored = predictors if corrupt else np.concatenate(
        [predictors, _combine(_density_ratio_weights(domains, lam), predictors)], axis=-3)
    # scored holds the optimal predictors, so the cross table's rows are checked too
    on_target = expected_losses(target, scored, loss)[0].reshape(-1, scored.shape[-3])
    cross = _loss_tables(domains, predictors, loss)[0].reshape(-1, n, n)
    lam = lam.reshape(-1, n)  # one row per trial from here on
    trials = np.arange(len(lam))  # picks one entry per trial
    per_source_on_target = on_target[:, :n]
    beta = per_source_on_target.argmin(axis=1)
    rhs = per_source_on_target[trials, beta]  # the first smallest, as min() picks
    lhs = (per_source_on_target[trials, per_source_on_target.argmax(axis=1)] if corrupt
           else on_target[:, n])
    self_losses = np.diagonal(cross, axis1=1, axis2=2)
    mixed = _saturating_mix(lam, np.concatenate([self_losses[..., None], cross], axis=2))
    mid, mixed = mixed[:, :1], mixed[:, 1:]  # mixed[:, j] mixes predictor j's losses

    # the two sides of every check, in the order of _check_tags: the headline
    # bound (the combination's target risk vs the best single source) and the
    # convexity bound, then predictor j's links of the chain, for each j
    heads = np.empty((2, len(lam), 2))
    heads[0] = lhs[:, None]
    heads[1, :, 0], heads[1, :, 1] = rhs, mid[:, 0]
    links = np.empty((2, len(lam), n, n + 2))
    links[0, ..., 0], links[1, ..., 0] = np.abs(per_source_on_target - mixed), 0.0
    links[0, ..., 1], links[1, ..., 1] = mid, mixed
    links[0, ..., 2:] = self_losses[:, None, :]
    links[1, ..., 2:] = cross.swapaxes(1, 2)  # [j, i] is predictor j on source i
    left, right = np.concatenate([heads, links.reshape(2, len(lam), -1)], axis=2)
    used = left - right
    slack_used = used[trials, used.argmax(axis=1)]  # the first largest, as max() picks
    failed = left > right + SLACK

    # strictness: all mixture weights positive and some source strictly beats
    # the overall-best predictor on its own domain
    hypothesis = (self_losses < cross[trials, :, beta] - 1e-12).any(axis=1)
    strict_checked = (lam.min(axis=1) > 0.0) & hypothesis & (rhs < LOSS_SENTINEL)
    not_strict = strict_checked & ~(lhs < rhs)
    strict_checked = strict_checked.astype(int)

    violations = [[] for _ in range(len(lam))]
    tags = _check_tags(n)
    qx = domains.qx.reshape(len(lam), n, -1)
    cond = domains.cond.reshape(len(lam), *domains.cond.shape[-3:])
    for t in np.flatnonzero(failed.any(axis=1) | not_strict):
        found = [(tags[c], left[t, c], right[t, c]) for c in np.flatnonzero(failed[t])]
        if not_strict[t]:
            found.append(("strictness", lhs[t], rhs[t]))
        violations[t] = [{
            "check": tag, "lhs": float(lo), "rhs": float(hi),
            "lam": lam[t].tolist(), "loss": loss,
            "marginals": qx[t].tolist(), "conditionals": cond[t].tolist(),
        } for tag, lo, hi in found]
    if not domains.lead:
        return violations[0], float(slack_used[0]), int(strict_checked[0])
    return violations, slack_used, strict_checked


def _draw(rng, qx, cond, lam):
    """Draw one instance into the leading corner of the padded arrays ``qx``
    (MAX_SOURCES, MAX_SUPPORT), ``cond`` (MAX_SOURCES, MAX_SUPPORT, MAX_CLASSES)
    and ``lam`` (MAX_SOURCES,); returns its shape (n, m, K).

    Each flat Dirichlet point is drawn as ``rng.dirichlet`` draws it: k
    standard exponentials, scaled by the reciprocal of their sum taken in order.
    The draws are in that RNG order, but the marginal and conditional rows are
    left unscaled for ``_scale_rows``; ``lam`` is scaled here, since a draw with
    a weight at or below MIN_LAM is drawn again.
    """
    m = int(rng.integers(2, MAX_SUPPORT + 1))
    k = int(rng.integers(2, MAX_CLASSES + 1))
    n = int(rng.integers(1, MAX_SOURCES + 1))
    shared = rng.standard_exponential((m, k))
    masks = np.empty((n, m), dtype=bool)
    for mask in masks:
        np.less(rng.random(m), 0.7, out=mask)
        if not mask.any():
            mask[int(rng.integers(0, m))] = True
    sizes = masks.sum(axis=1).tolist()
    # per source its private rows and its marginal, then the mixture weights
    draws = rng.standard_exponential(n * m * k + sum(sizes) + n)
    qx, cond = qx[:n, :m], cond[:n, :m, :k]
    qx[:] = 0.0
    at = 0
    for i, (mask, size) in enumerate(zip(masks, sizes)):
        cond[i] = draws[at:at + m * k].reshape(m, k)
        qx[i, mask] = draws[at + m * k:at + m * k + size]
        at += m * k + size
    overlap = masks.sum(axis=0) >= 2
    cond[:, overlap] = shared[overlap]
    weights = draws[at:].tolist()
    while True:
        total = 0.0
        for w in weights:
            total += w
        scale = 1.0 / total
        weights = [w * scale for w in weights]
        if min(weights) > MIN_LAM:
            lam[:n] = weights
            return n, m, k
        weights = rng.standard_exponential(n).tolist()


def _scale_rows(*stacks):
    """Scale every row of each array in place by the reciprocal of its sum
    taken in order, as ``rng.dirichlet`` scales its draws."""
    for rows in stacks:
        total = rows[..., 0].copy()
        for column in range(1, rows.shape[-1]):
            total += rows[..., column]
        rows *= (1.0 / total)[..., None]


def _padded(*lead):
    """(qx, cond, lam) arrays that hold any instance ``random_instance`` draws."""
    return (np.empty((*lead, MAX_SOURCES, MAX_SUPPORT)),
            np.empty((*lead, MAX_SOURCES, MAX_SUPPORT, MAX_CLASSES)),
            np.empty((*lead, MAX_SOURCES)))


def random_instance(rng):
    """Domains over one universe with varying supports and conditionals, and
    mixture weights above MIN_LAM.

    Wherever two or more sources put mass on the same input, their label
    conditionals agree (a shared row); on inputs exclusive to one source the
    conditional is private. This is the widest family on which the bound's
    step-by-step argument is actually valid: letting conditionals disagree on
    overlapping mass provably breaks the intermediate bound (mixing distinct
    conditionals can only raise the target's conditional entropy), while
    private rows on exclusive regions are what make the strictness clause
    attainable at all.
    """
    qx, cond, lam = _padded()
    n, m, k = _draw(rng, qx, cond, lam)
    qx, cond = qx[:n, :m].copy(), cond[:n, :m, :k].copy()
    _scale_rows(qx, cond)
    return DiscreteDomains(qx, cond), lam[:n].copy()


def verify_combination_bound(trials, seed, corrupt=False):
    """Randomized verification suite; the report lists any violated instance.

    Trials are drawn in chunks of CHUNK, in one RNG order whatever the chunk
    size. Each chunk's trials are grouped by shape and loss (n, m, K, loss), and
    each group is checked as one stack by one ``check_instance`` call; the
    per-trial results are folded into the report in trial order.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    rng = np.random.default_rng(seed)
    report = VerificationReport()
    report.notes.append(
        "checked: supervised risk chain; the pseudo-label analogue of the claim "
        "has no separate finite-support derivation here and is not verified"
    )
    qx, cond, lam = _padded(min(trials, CHUNK))
    for start in range(0, trials, CHUNK):
        size = min(CHUNK, trials - start)
        groups = {}
        for t in range(size):
            n, m, k = _draw(rng, qx[t], cond[t], lam[t])
            groups.setdefault((n, m, k, LOSSES[(start + t) % len(LOSSES)]), []).append(t)
        violations, slack_used, strict = [None] * size, np.empty(size), np.empty(size, int)
        for (n, m, k, loss), rows in groups.items():
            group_qx, group_cond = qx[rows, :n, :m], cond[rows, :n, :m, :k]  # copies
            _scale_rows(group_qx, group_cond)
            found, slack_used[rows], strict[rows] = check_instance(
                DiscreteDomains(group_qx, group_cond), lam[rows, :n], loss, corrupt)
            for t, trial_violations in zip(rows, found):
                violations[t] = trial_violations
        report.trials += size
        for trial_violations in violations:
            report.violations.extend(trial_violations)
        report.max_slack_used = max(report.max_slack_used,
                                    float(slack_used[slack_used.argmax()]))
        report.strict_cases_checked += int(strict.sum())
    return report
