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


def test_softmax_rows_no_overflow():
    p = kernels.softmax_rows(np.array([[1000.0, 0.0]]))
    assert np.isfinite(p).all()
    assert p[0, 0] == pytest.approx(1.0, abs=1e-15)


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
