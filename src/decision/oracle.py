"""Exhaustive finite-support verification of the source-combination guarantee.

For finite joint distributions, the density-ratio-weighted convex combination
of per-source optimal predictors achieves target risk no worse than the best
single source whenever the target marginal is a mixture of the source
marginals. This module checks that inequality, its strictness condition, and
each intermediate bound of the argument on randomized instances, by exact
summation of a probability-mass table Q(x)P(y|x) against a per-predictor loss
table. It is completely independent of the neural pipeline.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

LOSS_SENTINEL = 1e18  # stands in for an infinite expected loss
LOSSES = ("cross_entropy", "squared_error")  # verify_combination_bound alternates them
SLACK = 1e-9  # how far a checked bound may be exceeded before it is a violation
MAX_SUPPORT, MAX_CLASSES, MAX_SOURCES, MIN_LAM = 6, 3, 4, 1e-3  # random_instance's caps


@dataclass
class DiscreteDomain:
    """Finite-support joint distribution: input marginal and label conditionals."""

    qx: np.ndarray  # (m,) simplex point
    cond: np.ndarray  # (m, K), each row a simplex point P(y|x)

    def __post_init__(self):
        self.qx = np.asarray(self.qx, dtype=np.float64)
        self.cond = np.asarray(self.cond, dtype=np.float64)
        if self.qx.ndim != 1 or self.cond.ndim != 2 or len(self.qx) != len(self.cond):
            raise ValueError("marginal and conditionals disagree on support size")
        # written so that NaN fails every check
        if not (self.qx.min() >= 0 and abs(self.qx.sum() - 1.0) <= 1e-9):
            raise ValueError("input marginal is not a distribution")
        if not (self.cond.min() >= 0 and np.abs(self.cond.sum(axis=1) - 1.0).max() <= 1e-9):
            raise ValueError("a label conditional row is not a distribution")

    @property
    def support_size(self):
        return len(self.qx)

    @property
    def num_classes(self):
        return self.cond.shape[1]


@dataclass
class TabularPredictor:
    """One predicted class distribution per support point."""

    rows: np.ndarray  # (m, K) simplex rows

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if not (self.rows.min() >= 0 and np.abs(self.rows.sum(axis=1) - 1.0).max() <= 1e-9):
            raise ValueError("a predictor row is not on the simplex")


def mixture_domain(domains, lam):
    """The lam-mixture of the source domains as one DiscreteDomain."""
    lam = np.asarray(lam, dtype=np.float64)
    qxs = np.stack([d.qx for d in domains])  # (n, m)
    conds = np.stack([d.cond for d in domains])  # (n, m, K)
    qx = np.einsum("j,jm->m", lam, qxs)
    joint = (lam[:, None, None] * qxs[:, :, None] * conds).sum(axis=0)  # (m, K)
    cond = np.full(joint.shape, 1.0 / joint.shape[1])
    on = qx > 0.0
    cond[on] = joint[on] / qx[on, None]
    return DiscreteDomain(qx, cond)


def optimal_predictor(domain):
    """Risk-minimizing predictor: the true conditional wherever Q(x) > 0.

    Both supported losses are minimized in expectation by posterior matching,
    so the predictor does not depend on the loss; off-support rows (Q(x) = 0)
    are set to uniform.
    """
    rows = domain.cond.copy()
    rows[domain.qx == 0.0] = 1.0 / domain.num_classes
    return TabularPredictor(rows)


def density_ratio_weights(domains, lam):
    """Per-input combination weights w_k(x) = lam_k Q_k(x) / sum_j lam_j Q_j(x).

    Inputs where every scaled marginal vanishes are off the target support;
    they get uniform weights.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if not (lam.min() >= 0 and abs(lam.sum() - 1.0) <= 1e-9):  # NaN fails too
        raise ValueError("mixture weights must lie on the simplex")
    scaled = lam[:, None] * np.stack([d.qx for d in domains])  # (n, m)
    denom = scaled.sum(axis=0)
    w = np.full(scaled.T.shape, 1.0 / len(domains))
    on = denom > 0.0
    w[on] = scaled.T[on] / denom[on, None]
    return w


def mixture_predictor(domains, lam, predictors):
    """Density-ratio-weighted convex combination of the source predictors."""
    w = density_ratio_weights(domains, lam)  # (m, n)
    stacked = np.stack([p.rows for p in predictors])  # (n, m, K)
    return TabularPredictor(np.einsum("mn,nmk->mk", w, stacked))


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

    Returns (values, saturated), two (len(domains), len(predictors)) tables; a
    pair whose cross-entropy is infinite (p <= 0 where the domain has mass)
    saturates to LOSS_SENTINEL with its flag set. Zero-mass (x, y) pairs
    contribute nothing.
    """
    if loss not in LOSSES:
        raise ValueError(f"loss must be one of {LOSSES}")
    mass = np.stack([d.qx[:, None] * d.cond for d in domains])  # (n_d, m, K)
    rows = np.stack([p.rows for p in predictors])  # (n_p, m, K)
    if rows.shape[1:] != mass.shape[1:]:
        raise ValueError(f"predictor rows have shape {rows.shape[1:]}, the domain's "
                         f"conditionals {mass.shape[1:]}")
    if loss == "cross_entropy":
        zero = rows <= 0.0
        table = -np.log(np.where(zero, 1.0, rows))  # those entries saturate instead
        saturated = np.einsum("imk,jmk->ij", mass != 0.0, zero)
    else:  # table[j, x, y] = ||theta_j(x) - e_y||^2
        table = ((rows[:, :, None, :] - np.eye(rows.shape[2])) ** 2).sum(axis=-1)
        saturated = np.zeros((len(domains), len(predictors)), dtype=bool)
    values = np.einsum("imk,jmk->ij", mass, table)
    values[saturated] = LOSS_SENTINEL
    return values, saturated


def expected_loss(domain, predictor, loss="cross_entropy"):
    """``expected_losses`` for one pair: (value, saturated) as a float and a bool."""
    values, saturated = expected_losses([domain], [predictor], loss)
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
    lam = np.asarray(lam, dtype=np.float64)
    n = len(domains)
    predictors = [optimal_predictor(d) for d in domains]
    target = mixture_domain(domains, lam)
    combined = [] if corrupt else [mixture_predictor(domains, lam, predictors)]
    (on_target,), _ = expected_losses([target], predictors + combined, loss)
    per_source_on_target = on_target[:n].tolist()
    lhs = max(per_source_on_target) if corrupt else float(on_target[n])
    cross, _ = expected_losses(domains, predictors, loss)
    self_losses = np.diag(cross)

    violations, slack_used = [], -np.inf

    def flag(tag, left, right):
        violations.append({
            "check": tag, "lhs": left, "rhs": right,
            "lam": lam.tolist(), "loss": loss,
            "marginals": [d.qx.tolist() for d in domains],
            "conditionals": [d.cond.tolist() for d in domains],
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
    masks = []
    for _ in range(n):
        mask = rng.random(m) < 0.7
        if not mask.any():
            mask[int(rng.integers(0, m))] = True
        masks.append(mask)
    overlap = np.sum(masks, axis=0) >= 2
    domains = []
    for i in range(n):
        cond = rng.dirichlet(np.ones(k), size=m)  # private rows
        cond[overlap] = shared[overlap]
        qx = np.zeros(m)
        qx[masks[i]] = rng.dirichlet(np.ones(int(masks[i].sum())))
        domains.append(DiscreteDomain(qx, cond))
    while True:
        lam = rng.dirichlet(np.ones(n))
        if lam.min() > MIN_LAM:
            return domains, lam


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
