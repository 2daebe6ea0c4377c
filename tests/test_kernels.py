import math

import mpmath
import numpy as np
import pytest

from decision import kernels

rng = np.random.default_rng(7)


def test_matmul_against_manual_loops():
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    manual = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for p in range(4):
                manual[i, j] += a[i, p] * b[p, j]
    np.testing.assert_allclose(kernels.matmul_nn(a, b), manual, rtol=1e-15)


def test_softmax_uniform_and_analytic():
    np.testing.assert_allclose(
        kernels.softmax_rows(np.zeros((1, 4))), np.full((1, 4), 0.25), atol=1e-15
    )
    np.testing.assert_allclose(
        kernels.softmax_rows(np.array([[math.log(1.0), math.log(3.0)]])), [[0.25, 0.75]],
        rtol=1e-14,
    )


def test_softmax_extreme_logits_vs_high_precision():
    p = kernels.softmax_rows(np.array([[1000.0, 0.0]]))[0]
    with mpmath.workprec(200):
        e0, e1 = mpmath.exp(1000), mpmath.exp(0)
        want0 = float(e0 / (e0 + e1))
    assert p[0] == pytest.approx(want0, abs=1e-15)
    assert 0.0 <= p[1] < 1e-300
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_properties_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.standard_normal((3, 5)) * rng.uniform(0.1, 30.0)
        p = kernels.softmax_rows(v)
        assert (p >= 0.0).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        shifted = kernels.softmax_rows(v + 17.3)
        np.testing.assert_allclose(p, shifted, atol=1e-9)


def test_transposed_matmuls_batch_over_a_leading_axis():
    a = rng.standard_normal((4, 5, 3))
    b = rng.standard_normal((4, 2, 3))
    c = rng.standard_normal((4, 5, 2))
    nt, tn = kernels.matmul_nt(a, b), kernels.matmul_tn(a, c)
    for j in range(4):
        np.testing.assert_allclose(nt[j], a[j] @ b[j].T, rtol=1e-14)
        np.testing.assert_allclose(tn[j], a[j].T @ c[j], rtol=1e-14)
    np.testing.assert_array_equal(kernels.matmul_nt(a[0], b[0]), a[0] @ b[0].T)
    np.testing.assert_array_equal(kernels.matmul_tn(a[0], c[0]), a[0].T @ c[0])


def test_per_source_sqdist_definition():
    feats = rng.standard_normal((2, 5, 3))
    cents = rng.standard_normal((2, 4, 3))
    alpha = np.array([0.3, 0.7])
    got = kernels.per_source_sqdist(feats, cents, alpha)
    for x in range(5):
        for k in range(4):
            want = sum(
                alpha[j] * np.sum((feats[j, x] - cents[j, k]) ** 2) for j in range(2)
            )
            assert got[x, k] == pytest.approx(want, rel=1e-12)


def test_active_backend_names_selection():
    assert kernels.active_backend() == "numpy"


def test_relu_bwd_passes_no_gradient_at_zero():
    x = np.array([[-1.0, 0.0, 2.0], [-0.0, 1e-300, -1e-300]])
    g = np.array([[3.0, -4.0, 5.0], [6.0, -7.0, 8.0]])
    np.testing.assert_array_equal(kernels.relu_bwd(x, g), [[0.0, 0.0, 5.0], [0.0, -7.0, 0.0]])
