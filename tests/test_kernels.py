import numpy as np
import pytest

from decision import kernels

rng = np.random.default_rng(7)

CASES = [
    ("matmul_nn", (rng.standard_normal((5, 7)), rng.standard_normal((7, 4)))),
    ("matmul_nt", (rng.standard_normal((5, 7)), rng.standard_normal((4, 7)))),
    ("matmul_tn", (rng.standard_normal((7, 5)), rng.standard_normal((7, 4)))),
    ("relu_fwd", (rng.standard_normal((6, 9)),)),
    ("relu_bwd", (np.round(rng.standard_normal((6, 9))), rng.standard_normal((6, 9)))),  # zeros too
    ("softmax_rows", (rng.standard_normal((8, 5)),)),
    ("log_softmax_rows", (rng.standard_normal((8, 5)),)),
    ("weighted_feature_sums", (rng.standard_normal((20, 6)), rng.random((20, 3)))),
    ("per_source_sqdist",
     (rng.standard_normal((3, 12, 5)), rng.standard_normal((3, 4, 5)), rng.dirichlet(np.ones(3)))),
    ("pairwise_sqdist", (rng.standard_normal((12, 5)), rng.standard_normal((4, 5)))),
]


@pytest.mark.skipif(not kernels.NUMBA_AVAILABLE, reason="kernel comparison needs numba")
@pytest.mark.parametrize("name,args", CASES, ids=[c[0] for c in CASES])
def test_numba_matches_numpy(name, args):
    got = kernels.NUMBA_KERNELS[name](*args)
    want = kernels.NUMPY_KERNELS[name](*args)
    if isinstance(want, tuple):
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


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
    assert kernels.active_backend() in ("numba", "numpy")
    assert (kernels.active_backend() == "numba") == kernels.USE_NUMBA


def test_relu_bwd_passes_no_gradient_at_zero():
    x = np.array([[-1.0, 0.0, 2.0], [-0.0, 1e-300, -1e-300]])
    g = np.array([[3.0, -4.0, 5.0], [6.0, -7.0, 8.0]])
    np.testing.assert_array_equal(kernels.relu_bwd(x, g), [[0.0, 0.0, 5.0], [0.0, -7.0, 0.0]])
