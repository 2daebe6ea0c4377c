"""The numeric kernels the tape, the models and the adaptation loop call.

Most bodies are one numpy line, but the module stays: callers look each
kernel up as ``kernels.<name>`` at call time, so a profiler can wrap one by
rebinding that attribute (``perfbench/tracing.py`` wraps all ten). Keep the
names and keep the calls going through the module.
"""

import numpy as np

__all__ = [
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


def active_backend():
    """Name of the kernel implementation, recorded in run reports."""
    return "numpy"


def matmul_nn(a, b):
    return a @ b


# the transposes swap the last two axes, so a leading source axis batches
def matmul_nt(a, b):
    return a @ b.swapaxes(-1, -2)


def matmul_tn(a, b):
    return a.swapaxes(-1, -2) @ b


def relu_fwd(x):
    return np.maximum(x, 0.0)


def relu_bwd(x, g):
    # a multiply by the mask is several times faster than np.where on a mask
    # with no pattern; only the sign of a zero gradient can differ
    return g * (x > 0.0)


# the row softmaxes reduce over the last axis, so a leading source axis batches;
# the ufunc reductions are ndarray.max and .sum without their Python wrappers
def softmax_rows(x):
    shifted = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def log_softmax_rows(x):
    shifted = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


# sums[..., k, :] = sum_x weights[..., x, k] * feats[..., x, :] and
# denom[..., k] = sum_x weights[..., x, k]; a leading source axis batches
def weighted_feature_sums(feats, weights):
    return weights.swapaxes(-1, -2) @ feats, np.add.reduce(weights, axis=-2)


def per_source_sqdist(feats, cents, alpha):
    # out[x, k] = sum_j alpha[j] * ||feats[j, x] - cents[j, k]||^2
    n, m, d = feats.shape
    k = cents.shape[1]
    out = np.zeros((m, k))
    for j in range(n):
        diff = feats[j][:, None, :] - cents[j][None, :, :]
        out += alpha[j] * np.einsum("mkd,mkd->mk", diff, diff)
    return out


def pairwise_sqdist(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("mkd,mkd->mk", diff, diff)
