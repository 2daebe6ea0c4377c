"""Hot numeric kernels, JIT-compiled with numba when available.

Every kernel exists twice: a pure-numpy version (``_py_*``) and a numba
``@njit`` version compiled from the same explicit-loop source. The numba
path is the default; set ``DECISION_NUMBA=0`` to force the numpy fallback.
The loop kernels reduce strictly left-to-right, so results on the default
path are reproducible independent of BLAS threading or SIMD width.

``python -m decision.benchmark`` times both paths side by side.
"""

import os

import numpy as np

__all__ = [
    "NUMBA_AVAILABLE",
    "USE_NUMBA",
    "active_backend",
    "matmul_nn",
    "matmul_nt",
    "matmul_tn",
    "relu_fwd",
    "relu_bwd",
    "softmax_rows",
    "log_softmax_rows",
    "weighted_feature_sums",
    "per_source_sqdist",
    "pairwise_sqdist",
]


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------

def _py_matmul_nn(a, b):
    return a @ b


def _py_matmul_nt(a, b):
    return a @ b.T


def _py_matmul_tn(a, b):
    return a.T @ b


def _py_relu_fwd(x):
    return np.maximum(x, 0.0)


def _py_relu_bwd(x, g):
    # a multiply by the mask is several times faster than np.where on a mask
    # with no pattern; only the sign of a zero gradient can differ
    return g * (x > 0.0)


def _py_softmax_rows(x):
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _py_log_softmax_rows(x):
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _py_weighted_feature_sums(feats, weights):
    # sums[k] = sum_x weights[x, k] * feats[x]; denom[k] = sum_x weights[x, k]
    return weights.T @ feats, weights.sum(axis=0)


def _py_per_source_sqdist(feats, cents, alpha):
    # out[x, k] = sum_j alpha[j] * ||feats[j, x] - cents[j, k]||^2
    n, m, d = feats.shape
    k = cents.shape[1]
    out = np.zeros((m, k))
    for j in range(n):
        diff = feats[j][:, None, :] - cents[j][None, :, :]
        out += alpha[j] * np.einsum("mkd,mkd->mk", diff, diff)
    return out


def _py_pairwise_sqdist(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("mkd,mkd->mk", diff, diff)


# ---------------------------------------------------------------------------
# explicit-loop sources, shared by the numba path
# ---------------------------------------------------------------------------

def _loop_matmul_nn(a, b):
    m, k = a.shape
    n = b.shape[1]
    out = np.empty((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def _loop_matmul_nt(a, b):
    m, k = a.shape
    n = b.shape[0]
    out = np.empty((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[j, p]
            out[i, j] = acc
    return out


def _loop_matmul_tn(a, b):
    k, m = a.shape
    n = b.shape[1]
    out = np.empty((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[p, i] * b[p, j]
            out[i, j] = acc
    return out


def _loop_relu_fwd(x):
    m, n = x.shape
    out = np.empty((m, n))
    for i in range(m):
        for j in range(n):
            out[i, j] = x[i, j] if x[i, j] > 0.0 else 0.0
    return out


def _loop_relu_bwd(x, g):
    m, n = x.shape
    out = np.empty((m, n))
    for i in range(m):
        for j in range(n):
            out[i, j] = g[i, j] if x[i, j] > 0.0 else 0.0
    return out


def _loop_softmax_rows(x):
    m, k = x.shape
    out = np.empty((m, k))
    for i in range(m):
        hi = x[i, 0]
        for j in range(1, k):
            if x[i, j] > hi:
                hi = x[i, j]
        total = 0.0
        for j in range(k):
            e = np.exp(x[i, j] - hi)
            out[i, j] = e
            total += e
        for j in range(k):
            out[i, j] /= total
    return out


def _loop_log_softmax_rows(x):
    m, k = x.shape
    out = np.empty((m, k))
    for i in range(m):
        hi = x[i, 0]
        for j in range(1, k):
            if x[i, j] > hi:
                hi = x[i, j]
        total = 0.0
        for j in range(k):
            total += np.exp(x[i, j] - hi)
        lse = hi + np.log(total)
        for j in range(k):
            out[i, j] = x[i, j] - lse
    return out


def _loop_weighted_feature_sums(feats, weights):
    m, d = feats.shape
    k = weights.shape[1]
    sums = np.zeros((k, d))
    denom = np.zeros(k)
    for x in range(m):
        for c in range(k):
            w = weights[x, c]
            denom[c] += w
            for p in range(d):
                sums[c, p] += w * feats[x, p]
    return sums, denom


def _loop_per_source_sqdist(feats, cents, alpha):
    n, m, d = feats.shape
    k = cents.shape[1]
    out = np.zeros((m, k))
    for j in range(n):
        for x in range(m):
            for c in range(k):
                acc = 0.0
                for p in range(d):
                    diff = feats[j, x, p] - cents[j, c, p]
                    acc += diff * diff
                out[x, c] += alpha[j] * acc
    return out


def _loop_pairwise_sqdist(a, b):
    m, d = a.shape
    k = b.shape[0]
    out = np.empty((m, k))
    for x in range(m):
        for c in range(k):
            acc = 0.0
            for p in range(d):
                diff = a[x, p] - b[c, p]
                acc += diff * diff
            out[x, c] = acc
    return out


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

def _numba_wanted():
    flag = os.environ.get("DECISION_NUMBA", "").strip().lower()
    return flag not in ("0", "false", "off", "no")


try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    njit = None
    NUMBA_AVAILABLE = False

NUMPY_KERNELS = {
    "matmul_nn": _py_matmul_nn,
    "matmul_nt": _py_matmul_nt,
    "matmul_tn": _py_matmul_tn,
    "relu_fwd": _py_relu_fwd,
    "relu_bwd": _py_relu_bwd,
    "softmax_rows": _py_softmax_rows,
    "log_softmax_rows": _py_log_softmax_rows,
    "weighted_feature_sums": _py_weighted_feature_sums,
    "per_source_sqdist": _py_per_source_sqdist,
    "pairwise_sqdist": _py_pairwise_sqdist,
}

if NUMBA_AVAILABLE:
    _jit = njit(cache=True, fastmath=False)
    NUMBA_KERNELS = {
        "matmul_nn": _jit(_loop_matmul_nn),
        "matmul_nt": _jit(_loop_matmul_nt),
        "matmul_tn": _jit(_loop_matmul_tn),
        "relu_fwd": _jit(_loop_relu_fwd),
        "relu_bwd": _jit(_loop_relu_bwd),
        "softmax_rows": _jit(_loop_softmax_rows),
        "log_softmax_rows": _jit(_loop_log_softmax_rows),
        "weighted_feature_sums": _jit(_loop_weighted_feature_sums),
        "per_source_sqdist": _jit(_loop_per_source_sqdist),
        "pairwise_sqdist": _jit(_loop_pairwise_sqdist),
    }
else:  # pragma: no cover
    NUMBA_KERNELS = {}

USE_NUMBA = NUMBA_AVAILABLE and _numba_wanted()
_ACTIVE = NUMBA_KERNELS if USE_NUMBA else NUMPY_KERNELS

matmul_nn = _ACTIVE["matmul_nn"]
matmul_nt = _ACTIVE["matmul_nt"]
matmul_tn = _ACTIVE["matmul_tn"]
relu_fwd = _ACTIVE["relu_fwd"]
relu_bwd = _ACTIVE["relu_bwd"]
softmax_rows = _ACTIVE["softmax_rows"]
log_softmax_rows = _ACTIVE["log_softmax_rows"]
weighted_feature_sums = _ACTIVE["weighted_feature_sums"]
per_source_sqdist = _ACTIVE["per_source_sqdist"]
pairwise_sqdist = _ACTIVE["pairwise_sqdist"]


def active_backend():
    """Name of the kernel backend selected at import time."""
    return "numba" if USE_NUMBA else "numpy"


def warmup():
    """Trigger JIT compilation of every kernel on tiny inputs."""
    a = np.ones((2, 3))
    b = np.ones((3, 2))
    matmul_nn(a, b)
    matmul_nt(a, a)
    matmul_tn(a, np.ones((2, 4)))
    relu_fwd(a)
    relu_bwd(a, a)
    softmax_rows(a)
    log_softmax_rows(a)
    weighted_feature_sums(a, np.ones((2, 2)))
    per_source_sqdist(np.ones((1, 2, 3)), np.ones((1, 2, 3)), np.ones(1))
    pairwise_sqdist(a, a)
