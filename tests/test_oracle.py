import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from decision import oracle
from decision.oracle import (LOSS_SENTINEL, LOSSES, DiscreteDomains, check_instance,
                             density_ratio_weights, expected_loss, expected_losses,
                             mixture_domain, mixture_predictor, optimal_predictors,
                             random_instance, uniform_mixture_weights,
                             verify_combination_bound)


def _domain(qx, cond):
    """A one-domain stack."""
    return DiscreteDomains(np.asarray(qx, float)[None], np.asarray(cond, float)[None])


def _one(domains, i):
    """Domain ``i`` of a stack, as a one-domain stack."""
    return DiscreteDomains(domains.qx[i:i + 1], domains.cond[i:i + 1])


def test_domain_validation():
    with pytest.raises(ValueError):
        _domain([0.5, 0.4], [[1, 0], [0, 1]])  # marginal does not sum to 1
    with pytest.raises(ValueError):
        _domain([0.5, 0.5], [[0.9, 0.2], [0, 1]])  # conditional row off-simplex
    with pytest.raises(ValueError):
        expected_loss(_domain([1.0], [[1.0, 0.0]]), np.array([[0.5, 0.6]]))


_NAN = float("nan")
_ONE_OF_TWO_POINTS = _domain([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
_TWO_POINTS = DiscreteDomains([[0.5, 0.5]] * 2, [[[1.0, 0.0], [0.0, 1.0]]] * 2)


@pytest.mark.parametrize("build", [
    lambda: _domain([_NAN, 1.0], [[1.0, 0.0], [0.0, 1.0]]),
    lambda: _domain([0.5, 0.5], [[_NAN, 1.0], [0.0, 1.0]]),
    lambda: expected_loss(_ONE_OF_TWO_POINTS, [[_NAN, 0.5], [0.5, 0.5]]),
    lambda: density_ratio_weights(_TWO_POINTS, [_NAN, 1.0]),
    lambda: check_instance(_TWO_POINTS, [_NAN, 1.0]),
    lambda: uniform_mixture_weights([0.5, 0.5], [_NAN, 1.0]),
], ids=["marginal", "conditional", "predictor", "density-ratio-lam",
        "check-instance-lam", "uniform-mixture-c"])
def test_oracle_inputs_reject_nan(build):
    # every check fails on NaN: the comparisons are written so NaN cannot pass
    with pytest.raises(ValueError):
        build()


_THREE_POINTS = DiscreteDomains([[0.5, 0.5]] * 3, [[[1.0, 0.0], [0.0, 1.0]]] * 3)


@pytest.mark.parametrize("corrupt", [False, True], ids=["combined", "corrupt"])
@pytest.mark.parametrize("lam", [[0.25] * 4, [2.0, -1.0, 0.0], [0.5, _NAN, 0.5]],
                         ids=["one-too-long", "off-simplex", "nan"])
def test_mixture_weights_are_checked_at_the_oracle_boundary(lam, corrupt):
    # the error names the weights, not numpy's broadcasting or the domains
    with pytest.raises(ValueError, match="mixture weights"):
        check_instance(_THREE_POINTS, lam, corrupt=corrupt)
    with pytest.raises(ValueError, match="mixture weights"):
        density_ratio_weights(_THREE_POINTS, lam)
    # over three identical domains [2, -1, 0] mixes to a distribution, so only
    # the weight check catches it
    with pytest.raises(ValueError, match="mixture weights"):
        mixture_domain(_THREE_POINTS, lam)
    with pytest.raises(ValueError, match="mixture weights"):
        uniform_mixture_weights(lam, [1.0, 2.0, 3.0])


def test_optimal_predictor_is_posterior():
    d = _domain([0.3, 0.7], [[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(optimal_predictors(d), d.cond)
    d2 = _domain([1.0, 0.0], [[0.7, 0.3], [0.2, 0.8]])
    rows = optimal_predictors(d2)[0]
    np.testing.assert_array_equal(rows[0], [0.7, 0.3])
    np.testing.assert_array_equal(rows[1], [0.5, 0.5])  # off-support -> uniform


def _golden_section(f, lo, hi, tol=1e-9):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


@pytest.mark.parametrize("loss", ["cross_entropy", "squared_error"])
def test_optimal_predictor_vs_golden_section_search(loss):
    rng = np.random.default_rng(8)
    for _ in range(10):
        d = _domain(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(2), size=3))
        pred = optimal_predictors(d)[0]
        qx, cond = d.qx[0], d.cond[0]
        for x in range(3):
            if qx[x] == 0:
                continue

            def row_loss(p0):
                row = np.array([p0, 1.0 - p0])
                if loss == "cross_entropy":
                    return -(cond[x, 0] * math.log(p0) + cond[x, 1] * math.log(1 - p0))
                return float(cond[x] @ [((row - [1, 0]) ** 2).sum(),
                                        ((row - [0, 1]) ** 2).sum()])

            best = _golden_section(row_loss, 1e-9, 1.0 - 1e-9)
            assert pred[x, 0] == pytest.approx(best, abs=1e-6)


def test_optimal_predictor_is_a_local_argmin_under_simplex_perturbations():
    rng = np.random.default_rng(9)
    for loss in ("cross_entropy", "squared_error"):
        d = _domain(rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(3), size=4))
        pred = optimal_predictors(d)[0]
        base, _ = expected_loss(d, pred, loss)
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                rows = pred.copy()
                rows[:, a] += 1e-3
                rows[:, b] -= 1e-3
                if rows.min() < 0.0:
                    continue
                perturbed, _ = expected_loss(d, rows, loss)
                assert perturbed >= base - 1e-12


def test_density_ratio_weights_reduce_to_lambda_for_shared_marginal():
    q = np.array([0.2, 0.3, 0.5])
    cond = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    domains = DiscreteDomains([q, q], [cond, cond[::-1]])
    lam = np.array([0.3, 0.7])
    w = density_ratio_weights(domains, lam)
    np.testing.assert_allclose(w, np.tile(lam, (3, 1)), atol=1e-15)


def test_single_source_target_predictor_is_that_source():
    rng = np.random.default_rng(10)
    d = _domain(rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(2), size=4))
    pred = optimal_predictors(d)
    combined = mixture_predictor(d, [1.0], pred)
    np.testing.assert_array_equal(combined, pred)


def test_disjoint_supports_partition_the_combination():
    domains = DiscreteDomains([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]],
                              [[[1, 0]] * 4, [[0, 1]] * 4])
    p1 = np.tile([0.9, 0.1], (4, 1))
    p2 = np.tile([0.2, 0.8], (4, 1))
    (combined,) = mixture_predictor(domains, [0.5, 0.5], np.array([p1, p2]))
    np.testing.assert_array_equal(combined[:2], p1[:2])
    np.testing.assert_array_equal(combined[2:], p2[2:])


# -- expected loss -----------------------------------------------------------------

def test_expected_loss_perfect_predictor_on_deterministic_labels():
    d = _domain([0.25, 0.75], [[1.0, 0.0], [0.0, 1.0]])
    value, saturated = expected_loss(d, d.cond[0])
    assert value == 0.0 and not saturated


def test_expected_loss_uniform_predictor_binary():
    d = _domain([0.4, 0.6], [[1.0, 0.0], [0.0, 1.0]])
    value, _ = expected_loss(d, np.full((2, 2), 0.5))
    assert value == pytest.approx(math.log(2.0), rel=1e-15)


def test_expected_loss_vs_high_precision_oracle():
    rng = np.random.default_rng(11)
    d = _domain(rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(3), size=5))
    pred = rng.dirichlet(np.ones(3), size=5)
    got, _ = expected_loss(d, pred)
    qx, cond = d.qx[0], d.cond[0]
    with mpmath.workprec(128):
        want = mpmath.fsum(
            mpmath.mpf(qx[x]) * mpmath.mpf(cond[x, y]) * -mpmath.log(mpmath.mpf(pred[x, y]))
            for x in range(5)
            for y in range(3)
        )
    assert abs(got - float(want)) < 1e-14


def test_zero_probability_with_mass_saturates_to_sentinel():
    d = _domain([1.0], [[0.5, 0.5]])
    pred = np.array([[1.0, 0.0]])
    value, saturated = expected_loss(d, pred)
    assert value == LOSS_SENTINEL and saturated
    # squared error stays finite on the same predictor
    value2, saturated2 = expected_loss(d, pred, "squared_error")
    assert not saturated2 and value2 == pytest.approx(0.5 * 0.0 + 0.5 * 2.0)


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (1, 2)])
def test_expected_loss_rejects_a_predictor_of_the_wrong_shape(shape):
    d = _domain([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
    pred = np.full(shape, 1.0 / shape[1])
    for loss in LOSSES:
        with pytest.raises(ValueError, match=re.escape(str(shape))) as exc:
            expected_loss(d, pred, loss)
        assert "(2, 2)" in str(exc.value)


def _reference_expected_loss(qx, cond, predictor, loss):
    """expected_loss as a per-entry double loop over support points and classes."""
    total = 0.0
    for x in range(len(qx)):
        if qx[x] == 0.0:
            continue
        for y in range(cond.shape[1]):
            mass = qx[x] * cond[x, y]
            if mass == 0.0:
                continue
            row = predictor[x]
            if loss == "cross_entropy":
                if row[y] <= 0.0:
                    return LOSS_SENTINEL, True
                pointwise = -np.log(row[y])
            else:
                target = np.zeros_like(row)
                target[y] = 1.0
                pointwise = float(((row - target) ** 2).sum())
            total += mass * pointwise
    return total, False


@st.composite
def _domains_and_predictors(draw):
    """1-3 domains with zero-mass points and zero conditionals, and 1-3
    predictors with zeros, all of one shape."""
    m, k = draw(st.integers(1, 6)), draw(st.integers(2, 4))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))

    def simplex_rows(rows, cols):
        w = np.array(draw(st.lists(st.lists(weight, min_size=cols, max_size=cols),
                                   min_size=rows, max_size=rows)))
        w[w.sum(axis=1) == 0.0, 0] = 1.0
        return w / w.sum(axis=1, keepdims=True)

    pairs = [(simplex_rows(1, m)[0], simplex_rows(m, k))
             for _ in range(draw(st.integers(1, 3)))]
    domains = DiscreteDomains(*zip(*pairs))
    return domains, np.array([simplex_rows(m, k) for _ in range(draw(st.integers(1, 3)))])


@given(_domains_and_predictors(), st.sampled_from(LOSSES))
@example((_domain([1.0], [[0.5, 0.5]]), np.array([[[1.0, 0.0]]])), "cross_entropy")
@example((_domain([0.0, 1.0], [[0.5, 0.5], [0.0, 1.0]]),
          np.array([[[1.0, 0.0], [0.0, 1.0]]])), "cross_entropy")
def test_expected_loss_matches_the_per_entry_loop(case, loss):
    domains, predictors = case
    values, saturated = expected_losses(domains, predictors, loss)
    assert values.shape == saturated.shape == (len(domains), len(predictors))
    for i, (qx, cond) in enumerate(zip(domains.qx, domains.cond)):
        for j, predictor in enumerate(predictors):
            want, want_saturated = _reference_expected_loss(qx, cond, predictor, loss)
            assert saturated[i, j] == want_saturated
            assert values[i, j] == pytest.approx(want, rel=1e-15, abs=1e-15)
            if want_saturated:
                assert values[i, j] == LOSS_SENTINEL
    assert expected_loss(_one(domains, 0), predictors[0], loss) == (values[0, 0], saturated[0, 0])


# -- the guarantee ------------------------------------------------------------------

def test_single_source_gives_exact_equality():
    rng = np.random.default_rng(12)
    d = _domain(rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(3), size=4))
    violations, slack, strict = check_instance(d, [1.0])
    assert violations == []
    assert abs(slack) < 1e-12  # lhs == rhs exactly up to float summation
    assert strict == 0


def test_identical_sources_give_equality_of_both_sides():
    rng = np.random.default_rng(13)
    d = _domain(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(2), size=3))
    domains = DiscreteDomains(np.concatenate([d.qx, d.qx]), np.concatenate([d.cond, d.cond]))
    predictors = optimal_predictors(domains)
    target = mixture_domain(domains, [0.5, 0.5])
    lhs, _ = expected_loss(target, mixture_predictor(domains, [0.5, 0.5], predictors)[0])
    rhs, _ = expected_loss(target, predictors[0])
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert check_instance(domains, [0.5, 0.5])[0] == []


def test_randomized_suite_has_no_violations():
    report = verify_combination_bound(trials=300, seed=123)
    assert report.trials == 300
    assert report.violations == []
    assert report.strict_cases_checked > 0
    assert report.max_slack_used < 1e-12
    assert any("pseudo-label" in note for note in report.notes)


def test_negative_trial_count_is_rejected():
    with pytest.raises(ValueError, match="trials"):
        verify_combination_bound(trials=-5, seed=0)
    assert verify_combination_bound(trials=0, seed=0).trials == 0


@pytest.mark.parametrize("corrupt", [False, True], ids=["combined", "corrupt"])
@pytest.mark.parametrize("loss", LOSSES)
def test_check_instance_matches_per_pair_losses(monkeypatch, loss, corrupt):
    # the same checks reading tables built one expected-loss call per
    # (domain, predictor) pair, as check_instance did before its two tables
    rng = np.random.default_rng(18)
    instances = [random_instance(rng) for _ in range(200)]
    got = [check_instance(domains, lam, loss, corrupt) for domains, lam in instances]
    one_pair = oracle._loss_tables  # both tables are built here

    def per_pair(domains, predictors, loss):
        cells = [[one_pair(_one(domains, i), p[None], loss) for p in predictors]
                 for i in range(len(domains))]
        return (np.array([[v[0, 0] for v, _ in row] for row in cells]),
                np.array([[s[0, 0] for _, s in row] for row in cells]))

    monkeypatch.setattr(oracle, "_loss_tables", per_pair)
    flagged = 0
    for (domains, lam), (violations, slack, strict) in zip(instances, got):
        want_violations, want_slack, want_strict = check_instance(domains, lam, loss, corrupt)
        assert strict == want_strict
        assert slack == pytest.approx(want_slack, rel=0, abs=1e-15)
        assert [v["check"] for v in violations] == [v["check"] for v in want_violations]
        for v, w in zip(violations, want_violations):
            assert {**v, "lhs": 0, "rhs": 0} == {**w, "lhs": 0, "rhs": 0}
            for side in ("lhs", "rhs"):
                assert v[side] == pytest.approx(w[side], rel=1e-15, abs=1e-15)
        flagged += len(violations)
    assert (flagged > 0) == corrupt


def test_check_instance_builds_two_loss_tables(monkeypatch):
    calls = []
    table = oracle._loss_tables  # expected_losses builds its table here

    def counting(domains, predictors, loss):
        calls.append((len(domains), len(predictors)))
        return table(domains, predictors, loss)

    def per_pair(*args):
        raise AssertionError("check_instance called expected_loss")

    monkeypatch.setattr(oracle, "_loss_tables", counting)
    monkeypatch.setattr(oracle, "expected_loss", per_pair)
    domains, lam = random_instance(np.random.default_rng(19))
    n = len(domains)
    assert n >= 2
    for loss in LOSSES:
        for corrupt in (False, True):
            calls.clear()
            check_instance(domains, lam, loss, corrupt)
            # the target row (n optimal predictors, plus the combined one
            # unless corrupt), then the n x n cross table
            assert calls == [(1, n + (not corrupt)), (n, n)]


def test_check_instance_checks_lam_and_the_predictor_rows_once(monkeypatch):
    shapes = []
    on_simplex = oracle._on_simplex

    def recording(a):
        shapes.append(a.shape)
        return on_simplex(a)

    monkeypatch.setattr(oracle, "_on_simplex", recording)
    domains, lam = random_instance(np.random.default_rng(19))
    n, m, k = len(domains), domains.support_size, domains.num_classes
    for corrupt in (False, True):
        shapes.clear()
        check_instance(domains, lam, "cross_entropy", corrupt)
        # lam, the target's marginal and conditionals, then every scored row
        assert shapes == [(n,), (1, m), (1, m, k), (n + (not corrupt), m, k)]


def _check_one_by_one(domains, lam, loss, corrupt):
    """check_instance as a loop over the checks of one instance, in their order."""
    n = len(domains)
    lam = np.asarray(lam)
    predictors = optimal_predictors(domains)
    scored = predictors if corrupt else np.concatenate(
        [predictors, mixture_predictor(domains, lam, predictors)])
    (on_target,), _ = expected_losses(mixture_domain(domains, lam), scored, loss)
    per_source = on_target[:n].tolist()
    lhs = max(per_source) if corrupt else float(on_target[n])
    cross, _ = expected_losses(domains, predictors, loss)
    self_losses = np.diag(cross)

    def mix(values):
        return LOSS_SENTINEL if (values >= LOSS_SENTINEL).any() else float(np.dot(lam, values))

    violations, slack = [], -np.inf

    def check(tag, left, right):
        nonlocal slack
        slack = max(slack, left - right)
        if left > right + oracle.SLACK:
            violations.append((tag, left, right))

    rhs = min(per_source)
    check("combined_vs_best_source", lhs, rhs)
    mid = mix(self_losses)
    check("convexity_bound", lhs, mid)
    for j in range(n):
        mixed_j = mix(cross[:, j])
        check("mixture_decomposition", abs(per_source[j] - mixed_j), 0.0)
        check("self_optimality_chain", mid, mixed_j)
        for i in range(n):
            check("per_source_optimality", self_losses[i], cross[i, j])
    beta = int(np.argmin(per_source))
    strict = int(lam.min() > 0.0 and (self_losses < cross[:, beta] - 1e-12).any()
                 and rhs < LOSS_SENTINEL)
    if strict and not lhs < rhs:
        violations.append(("strictness", lhs, rhs))
    return [{"check": tag, "lhs": left, "rhs": right, "lam": lam.tolist(), "loss": loss,
             "marginals": domains.qx.tolist(), "conditionals": domains.cond.tolist()}
            for tag, left, right in violations], slack, strict


@pytest.mark.parametrize("corrupt", [False, True], ids=["combined", "corrupt"])
@pytest.mark.parametrize("loss", LOSSES)
def test_a_stack_checks_as_its_instances_one_by_one(loss, corrupt):
    rng = np.random.default_rng(21)
    groups = {}
    for _ in range(1000):
        domains, lam = random_instance(rng)
        groups.setdefault(domains.cond.shape, []).append((domains, lam))
    flagged = 0
    for instances in groups.values():
        stack = DiscreteDomains(np.stack([d.qx for d, _ in instances]),
                                np.stack([d.cond for d, _ in instances]))
        lams = np.stack([lam for _, lam in instances])
        violations, slack, strict = check_instance(stack, lams, loss, corrupt)
        assert len(violations) == len(slack) == len(strict) == len(instances)
        for (domains, lam), *got in zip(instances, violations, slack, strict):
            want = _check_one_by_one(domains, lam, loss, corrupt)
            for one in (check_instance(domains, lam, loss, corrupt), want):
                assert got[0] == one[0]  # the same checks fail, in the same order
                assert got[1] == one[1]
                assert got[2] == one[2]
            flagged += len(want[0])
    assert len(groups) == 4 * 5 * 2
    assert (flagged > 0) == corrupt


@pytest.mark.parametrize("chunk", [oracle.CHUNK, 300])
def test_the_verifier_checks_each_group_of_a_chunk_in_one_call(monkeypatch, chunk):
    # the benchmark harness times the verifier through this binding
    calls = []
    check = oracle.check_instance

    def recording(domains, lam, loss, corrupt):
        calls.append((domains.qx, domains.cond, lam, loss))
        return check(domains, lam, loss, corrupt)

    monkeypatch.setattr(oracle, "check_instance", recording)
    monkeypatch.setattr(oracle, "CHUNK", chunk)
    report = verify_combination_bound(1000, 0)
    monkeypatch.undo()
    assert report == verify_combination_bound(1000, 0)  # the default chunk's report

    rng = np.random.default_rng(0)
    draws = [random_instance(rng) for _ in range(1000)]
    calls = iter(calls)
    for start in range(0, 1000, chunk):
        groups = {}
        for t in range(start, min(start + chunk, 1000)):
            groups.setdefault((*draws[t][0].cond.shape, LOSSES[t % 2]), []).append(t)
        made = [next(calls) for _ in groups]  # one call per group of the chunk
        assert {(*cond.shape[1:], loss) for _, cond, _, loss in made} == set(groups)
        for qx, cond, lam, loss in made:
            trials = groups[(*cond.shape[1:], loss)]  # each call has one shape
            assert qx.shape[0] == cond.shape[0] == lam.shape[0] == len(trials)
            for t, *stacked in zip(trials, qx, cond, lam):  # back in trial order
                domains, want_lam = draws[t]
                np.testing.assert_array_equal(stacked[0], domains.qx)
                np.testing.assert_array_equal(stacked[1], domains.cond)
                np.testing.assert_array_equal(stacked[2], want_lam)
    assert next(calls, None) is None


@pytest.mark.parametrize("chunk", [oracle.CHUNK, 64])
def test_a_corrupt_report_folds_the_trials_in_their_order(monkeypatch, chunk):
    monkeypatch.setattr(oracle, "CHUNK", chunk)
    rng = np.random.default_rng(5)
    violations, slack, strict = [], -np.inf, 0
    for t in range(300):
        domains, lam = random_instance(rng)
        found, used, checked = _check_one_by_one(domains, lam, LOSSES[t % 2], True)
        violations += found
        slack = max(slack, used)
        strict += checked
    report = verify_combination_bound(300, 5, corrupt=True)
    assert report.violations == violations
    assert report.max_slack_used == slack
    assert report.strict_cases_checked == strict


def _dirichlet_instance(rng):
    """random_instance's draw written with ``rng.dirichlet``: (qx, cond, lam,
    number of lam draws)."""
    m = int(rng.integers(2, 7))
    k = int(rng.integers(2, 4))
    n = int(rng.integers(1, 5))
    shared = rng.dirichlet(np.ones(k), size=m)
    masks = np.empty((n, m), dtype=bool)
    for mask in masks:
        mask[:] = rng.random(m) < 0.7
        if not mask.any():
            mask[int(rng.integers(0, m))] = True
    qx, cond = np.zeros((n, m)), np.empty((n, m, k))
    for i, mask in enumerate(masks):
        cond[i] = rng.dirichlet(np.ones(k), size=m)
        qx[i, mask] = rng.dirichlet(np.ones(int(mask.sum())))
    overlap = masks.sum(axis=0) >= 2
    cond[:, overlap] = shared[overlap]
    for tries in range(1, 100):
        lam = rng.dirichlet(np.ones(n))
        if lam.min() > 1e-3:
            return qx, cond, lam, tries


def test_random_instance_draws_what_rng_dirichlet_draws():
    # the draws scale exponentials as rng.dirichlet does; the recorded strict
    # counts depend on every bit and on the generator's position after each draw
    redrawn = 0
    for seed in range(3):
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(1000):
            domains, lam = random_instance(ours)
            qx, cond, want_lam, tries = _dirichlet_instance(reference)
            assert domains.qx.tobytes() == qx.tobytes() and domains.qx.shape == qx.shape
            assert domains.cond.tobytes() == cond.tobytes()
            assert domains.cond.shape == cond.shape
            assert lam.tobytes() == want_lam.tobytes()
            redrawn += tries > 1
        assert ours.bit_generator.state == reference.bit_generator.state
    assert redrawn > 0  # the MIN_LAM redraw was taken


def test_corrupted_predictor_is_detected():
    report = verify_combination_bound(trials=20, seed=0, corrupt=True)
    assert len(report.violations) > 0
    checks = {v["check"] for v in report.violations}
    assert "combined_vs_best_source" in checks


def test_random_instance_respects_size_caps_and_positivity():
    rng = np.random.default_rng(14)
    for _ in range(50):
        domains, lam = random_instance(rng)
        assert 2 <= domains.support_size <= 6
        assert 2 <= domains.num_classes <= 3
        assert 1 <= len(domains) <= 4
        assert lam.min() > 1e-3


def test_random_instances_share_conditionals_on_overlapping_mass():
    rng = np.random.default_rng(16)
    for _ in range(50):
        domains, _ = random_instance(rng)
        for x in range(domains.support_size):
            owners = domains.cond[domains.qx[:, x] > 0, x]  # their rows at x
            if len(owners) >= 2:
                for row in owners[1:]:
                    np.testing.assert_array_equal(row, owners[0])


def test_disagreeing_conditionals_on_shared_mass_break_the_intermediate_bound():
    # mixing distinct conditionals raises the target's conditional entropy, so
    # the chain's middle bound fails; the checker must flag it
    domains = DiscreteDomains([[1.0], [1.0]], [[[1.0, 0.0]], [[0.0, 1.0]]])
    violations, _, _ = check_instance(domains, [0.5, 0.5])
    assert any(v["check"] == "convexity_bound" for v in violations)
    # the headline bound itself still holds: the combination is the posterior
    assert not any(v["check"] == "combined_vs_best_source" for v in violations)


def test_pointwise_convexity_of_both_losses():
    rng = np.random.default_rng(17)
    eye = np.eye(3)

    def pointwise(row, y, loss):
        # a one-point domain labelled y weighs L(row, y) with mass 1
        return expected_loss(_domain([1.0], [eye[y]]), row[None], loss)[0]

    for loss in ("cross_entropy", "squared_error"):
        for _ in range(100):
            rows = rng.dirichlet(np.ones(3), size=4)
            w = rng.dirichlet(np.ones(4))
            y = int(rng.integers(0, 3))
            mixed = pointwise(w @ rows, y, loss)
            bound = sum(wi * pointwise(r, y, loss) for wi, r in zip(w, rows))
            assert mixed <= bound + 1e-12


# -- uniform reduction ----------------------------------------------------------------

def test_uniform_weights_formula():
    np.testing.assert_allclose(
        uniform_mixture_weights([0.5, 0.5], [1.0, 3.0]), [0.25, 0.75], atol=1e-15
    )
    lam = np.array([0.2, 0.3, 0.5])
    np.testing.assert_allclose(uniform_mixture_weights(lam, [2.0, 2.0, 2.0]), lam,
                               atol=1e-15)
    with pytest.raises(ValueError):
        uniform_mixture_weights([1.0], [0.0])


def test_uniform_marginals_collapse_per_input_weights_to_the_formula():
    # sources are c_k * uniform on the 4 shared points, remainder on a sink point
    rng = np.random.default_rng(15)
    m = 4
    c = np.array([0.05, 0.125, 0.22])
    qxs, conds = [], []
    for ck in c:
        qxs.append(np.concatenate([np.full(m, ck), [1.0 - m * ck]]))
        conds.append(rng.dirichlet(np.ones(2), size=m + 1))
    lam = np.array([0.5, 0.2, 0.3])
    w = density_ratio_weights(DiscreteDomains(qxs, conds), lam)
    want = uniform_mixture_weights(lam, c)
    for x in range(m):
        np.testing.assert_allclose(w[x], want, atol=1e-12)
