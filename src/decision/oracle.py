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
predictor set is a plain (p, m, K) array of simplex rows.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

LOSS_SENTINEL = 1e18  # stands in for an infinite expected loss
LOSSES = ("cross_entropy", "squared_error")  # verify_combination_bound alternates them
SLACK = 1e-9  # how far a checked bound may be exceeded before it is a violation
MAX_SUPPORT, MAX_CLASSES, MAX_SOURCES, MIN_LAM = 6, 3, 4, 1e-3  # random_instance's caps


def _on_simplex(a):
    """Whether every slice of ``a`` along its last axis is a distribution; NaN fails."""
    return bool(a.min() >= 0 and np.abs(a.sum(axis=-1) - 1.0).max() <= 1e-9)


@dataclass
class DiscreteDomains:
    """n finite-support joint distributions over one support, stacked."""

    qx: np.ndarray  # (n, m), each row an input marginal on the simplex
    cond: np.ndarray  # (n, m, K), each row a simplex point P(y|x)

    def __post_init__(self):
        self.qx = np.asarray(self.qx, dtype=np.float64)
        self.cond = np.asarray(self.cond, dtype=np.float64)
        if self.qx.ndim != 2 or self.cond.ndim != 3 or self.qx.shape != self.cond.shape[:2]:
            raise ValueError("marginals and conditionals disagree on support size")
        if not _on_simplex(self.qx):
            raise ValueError("input marginal is not a distribution")
        if not _on_simplex(self.cond):
            raise ValueError("a label conditional row is not a distribution")

    def __len__(self):
        return len(self.qx)

    @property
    def support_size(self):
        return self.qx.shape[1]

    @property
    def num_classes(self):
        return self.cond.shape[2]


def _mixture_weights(lam, n):
    """``lam`` as a float64 point of the n-simplex, or ValueError."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (n,) or not _on_simplex(lam):
        raise ValueError(f"mixture weights of shape {lam.shape} must lie on the {n}-simplex")
    return lam


def mixture_domain(domains, lam):
    """The lam-mixture of the source domains as a one-domain stack; ``lam`` off
    the n-simplex raises ValueError."""
    lam = _mixture_weights(lam, len(domains))
    qx = np.einsum("j,jm->m", lam, domains.qx)
    joint = (lam[:, None, None] * domains.qx[:, :, None] * domains.cond).sum(axis=0)  # (m, K)
    cond = np.full(joint.shape, 1.0 / joint.shape[1])
    on = qx > 0.0
    cond[on] = joint[on] / qx[on, None]
    return DiscreteDomains(qx[None], cond[None])


def optimal_predictors(domains):
    """Risk-minimizing predictors (n, m, K): the true conditionals wherever Q(x) > 0.

    Both supported losses are minimized in expectation by posterior matching, so
    the predictors do not depend on the loss; off-support rows (Q(x) = 0) are uniform."""
    rows = domains.cond.copy()
    rows[domains.qx == 0.0] = 1.0 / domains.num_classes
    return rows


def density_ratio_weights(domains, lam):
    """Per-input combination weights w_k(x) = lam_k Q_k(x) / sum_j lam_j Q_j(x).

    Inputs where every scaled marginal vanishes are off the target support;
    they get uniform weights.
    """
    scaled = _mixture_weights(lam, len(domains))[:, None] * domains.qx  # (n, m)
    denom = scaled.sum(axis=0)
    w = np.full(scaled.T.shape, 1.0 / len(domains))
    on = denom > 0.0
    w[on] = scaled.T[on] / denom[on, None]
    return w


def mixture_predictor(domains, lam, predictors):
    """Density-ratio-weighted combination of the source predictors, as a (1, m, K) set."""
    w = density_ratio_weights(domains, lam)  # (m, n)
    return np.einsum("mn,nmk->mk", w, predictors)[None]


def uniform_mixture_weights(lam, c):
    """Input-agnostic weights when each marginal is c_k * uniform on the support."""
    lam = np.asarray(lam, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if not (c > 0.0).all():  # NaN fails too
        raise ValueError("scaling factors must be > 0")
    w = lam * c
    return w / w.sum()


def expected_losses(domains, predictors, loss="cross_entropy"):
    """Exact expected losses sum_x Q_i(x) sum_y P_i(y|x) L(theta_j(x), y), all pairs.

    ``predictors`` is a (p, m, K) array of simplex rows. Returns (values,
    saturated), two (len(domains), p) tables; a pair whose cross-entropy is
    infinite (a zero probability where the domain has mass) saturates to
    LOSS_SENTINEL with its flag set. Zero-mass (x, y) pairs contribute nothing.
    """
    if loss not in LOSSES:
        raise ValueError(f"loss must be one of {LOSSES}")
    rows = np.asarray(predictors, dtype=np.float64)
    if rows.shape[1:] != domains.cond.shape[1:]:
        raise ValueError(f"predictor rows have shape {rows.shape[1:]}, the domain's "
                         f"conditionals {domains.cond.shape[1:]}")
    if not _on_simplex(rows):
        raise ValueError("a predictor row is not on the simplex")
    mass = domains.qx[:, :, None] * domains.cond  # (n_d, m, K)
    if loss == "cross_entropy":
        zero = rows <= 0.0
        table = -np.log(np.where(zero, 1.0, rows))  # those entries saturate instead
        saturated = np.einsum("imk,jmk->ij", mass != 0.0, zero)
    else:  # table[j, x, y] = ||theta_j(x) - e_y||^2
        table = ((rows[:, :, None, :] - np.eye(rows.shape[2])) ** 2).sum(axis=-1)
        saturated = np.zeros((len(domains), len(rows)), dtype=bool)
    values = np.einsum("imk,jmk->ij", mass, table)
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
    """sum_i lam_i * v_i with sentinel saturation."""
    return LOSS_SENTINEL if (values >= LOSS_SENTINEL).any() else float(np.dot(lam, values))


def check_instance(domains, lam, loss="cross_entropy", corrupt=False):
    """Verify one instance; returns (violations, slack_used, strict_checked).

    Two ``expected_losses`` tables hold every loss checked: the n optimal
    predictors and their combination on the target, and predictor j on source i.
    ``corrupt`` swaps the combined predictor for the worst single source, a
    detector self-test that must be flagged as a violation.
    """
    n = len(domains)
    target = mixture_domain(domains, lam)  # checks lam
    lam = np.asarray(lam, dtype=np.float64)
    predictors = optimal_predictors(domains)
    scored = predictors if corrupt else np.concatenate(
        [predictors, mixture_predictor(domains, lam, predictors)])
    (on_target,), _ = expected_losses(target, scored, loss)
    per_source_on_target = on_target[:n].tolist()
    lhs = max(per_source_on_target) if corrupt else float(on_target[n])
    cross, _ = expected_losses(domains, predictors, loss)
    self_losses = np.diag(cross)

    violations, slack_used = [], -np.inf

    def flag(tag, left, right):
        violations.append({
            "check": tag, "lhs": left, "rhs": right,
            "lam": lam.tolist(), "loss": loss,
            "marginals": domains.qx.tolist(), "conditionals": domains.cond.tolist(),
        })

    def check(tag, left, right):
        nonlocal slack_used
        slack_used = max(slack_used, left - right)
        if left > right + SLACK:
            flag(tag, left, right)

    # headline bound: target risk of the combination vs the best single source
    rhs = min(per_source_on_target)
    check("combined_vs_best_source", lhs, rhs)

    # intermediate bounds, link by link
    mid = _saturating_mix(lam, self_losses)
    check("convexity_bound", lhs, mid)
    for j in range(n):
        mixed_j = _saturating_mix(lam, cross[:, j])
        check("mixture_decomposition", abs(per_source_on_target[j] - mixed_j), 0.0)
        check("self_optimality_chain", mid, mixed_j)
        for i in range(n):
            check("per_source_optimality", self_losses[i], cross[i, j])

    # strictness: all mixture weights positive and some source strictly beats
    # the overall-best predictor on its own domain
    strict_checked = 0
    if lam.min() > 0.0:
        beta = int(np.argmin(per_source_on_target))
        hypothesis = (self_losses < cross[:, beta] - 1e-12).any()
        if hypothesis and rhs < LOSS_SENTINEL:
            strict_checked = 1
            if not lhs < rhs:
                flag("strictness", lhs, rhs)
    return violations, slack_used, strict_checked


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
    m = int(rng.integers(2, MAX_SUPPORT + 1))
    k = int(rng.integers(2, MAX_CLASSES + 1))
    n = int(rng.integers(1, MAX_SOURCES + 1))
    shared = rng.dirichlet(np.ones(k), size=m)
    masks = np.empty((n, m), dtype=bool)
    for mask in masks:
        mask[:] = rng.random(m) < 0.7
        if not mask.any():
            mask[int(rng.integers(0, m))] = True
    qx, cond = np.zeros((n, m)), np.empty((n, m, k))
    for i, mask in enumerate(masks):
        cond[i] = rng.dirichlet(np.ones(k), size=m)  # private rows
        qx[i, mask] = rng.dirichlet(np.ones(int(mask.sum())))
    overlap = masks.sum(axis=0) >= 2
    cond[:, overlap] = shared[overlap]
    while True:
        lam = rng.dirichlet(np.ones(n))
        if lam.min() > MIN_LAM:
            return DiscreteDomains(qx, cond), lam


def verify_combination_bound(trials, seed, corrupt=False):
    """Randomized verification suite; the report lists any violated instance."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    rng = np.random.default_rng(seed)
    report = VerificationReport()
    report.notes.append(
        "checked: supervised risk chain; the pseudo-label analogue of the claim "
        "has no separate finite-support derivation here and is not verified"
    )
    for t in range(trials):
        domains, lam = random_instance(rng)
        loss = LOSSES[t % len(LOSSES)]
        violations, slack_used, strict = check_instance(domains, lam, loss, corrupt)
        report.trials += 1
        report.violations.extend(violations)
        report.max_slack_used = max(report.max_slack_used, slack_used)
        report.strict_cases_checked += strict
    return report
