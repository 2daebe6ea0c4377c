"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

One optimization run owns one ``Tape``; operations are tape methods so the
recording scope is always explicit. The tape carries only the ops the package
calls. Entropy-style terms go through ``im_loss``, which fuses the
objective's terms into one node with an analytic gradient and counts
underflowed probabilities as 0 rather than NaN. ``matmul`` and ``add_bias``
also take a leading source axis and ``weighted_sum`` contracts it, so a step
over n stacked source models records the same nodes for every n.
"""

import numpy as np

from . import kernels


class ShapeMismatchError(ValueError):
    """Operand shapes do not conform."""


class TapeError(RuntimeError):
    """Backward called on a tensor that is not a scalar tape node."""


def sigmoid(v):
    """Elementwise logistic function without overflow for large |v| (numpy)."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    e = np.exp(v[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _as_values(data):
    arr = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor values must be finite")
    return arr


class Tensor:
    """A dense array plus an optional gradient buffer and tape handle."""

    __slots__ = ("values", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False):
        self.values = _as_values(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._node = None  # (tape, node index) once recorded

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        return float(self.values)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("op", "parents", "backward", "leaf")

    def __init__(self, op, parents, backward, leaf=None):
        self.op = op
        self.parents = parents  # node indices, None for constant operands
        self.backward = backward  # grad -> list of parent contributions
        self.leaf = leaf  # Tensor, for leaf nodes


def _require_2d(name, t):
    if t.values.ndim != 2:
        raise ShapeMismatchError(f"{name} expects a 2-d tensor, got shape {t.shape}")


class Tape:
    """Ordered record of operations; parents always precede their node."""

    def __init__(self):
        self.nodes = []
        self._leaf_ids = {}

    def __len__(self):
        return len(self.nodes)

    # -- recording ----------------------------------------------------------

    def _track(self, t):
        """Node index for an operand, registering grad-bearing leaves."""
        if t._node is not None and t._node[0] is self:
            return t._node[1]
        if not t.requires_grad:
            return None
        idx = self._leaf_ids.get(id(t))
        if idx is None:
            idx = len(self.nodes)
            self.nodes.append(_Node("leaf", (), None, leaf=t))
            self._leaf_ids[id(t)] = idx
        return idx

    def _record(self, op, values, parent_ids, backward):
        out = Tensor(values)
        if any(p is not None for p in parent_ids):
            self.nodes.append(_Node(op, tuple(parent_ids), backward))
            out._node = (self, len(self.nodes) - 1)
        return out

    # -- primitive operations ------------------------------------------------

    def matmul(self, a, b):
        """(b, i) x (i, o); per source, (b, i) shared or (n, b, i) stacked x (n, i, o)."""
        av, bv = a.values, b.values
        if bv.ndim not in (2, 3) or av.ndim not in (2, bv.ndim) \
                or av.shape[-1] != bv.shape[-2] or av.shape[:-2] not in ((), bv.shape[:-2]):
            raise ShapeMismatchError(f"matmul: {a.shape} x {b.shape}")
        ia, ib = self._track(a), self._track(b)

        def backward(g):
            ga = gb = None
            if ia is not None:
                ga = kernels.matmul_nt(g, bv)
                if ga.ndim > av.ndim:  # a shared lhs gets the sum over sources
                    ga = ga.sum(axis=0)
            if ib is not None:
                gb = kernels.matmul_tn(av, g)
            return [ga, gb]

        return self._record("matmul", kernels.matmul_nn(av, bv), (ia, ib), backward)

    def add_bias(self, x, b):
        """(b, o) + (o,), or per source (n, b, o) + (n, o)."""
        xv, bv = x.values, b.values
        if xv.ndim not in (2, 3) or bv.shape != xv.shape[:-2] + xv.shape[-1:]:
            raise ShapeMismatchError(f"add_bias: {x.shape} + {b.shape}")
        ix, ib = self._track(x), self._track(b)

        def backward(g):
            return [g, g.sum(axis=-2) if ib is not None else None]

        return self._record("add_bias", xv + bv[..., None, :], (ix, ib), backward)

    def weighted_sum(self, alpha, z):
        """sum_j alpha_j * z_j over the leading axis: (n,), (n, b, k) -> (b, k)."""
        av, zv = alpha.values, z.values
        if av.ndim != 1 or zv.ndim != 3 or av.shape[0] != zv.shape[0]:
            raise ShapeMismatchError(f"weighted_sum: {alpha.shape} . {z.shape}")
        n, b, k = zv.shape
        flat = zv.reshape(n, b * k)
        ia, iz = self._track(alpha), self._track(z)

        def backward(g):
            ga = flat @ g.reshape(-1) if ia is not None else None
            gz = av[:, None, None] * g if iz is not None else None
            return [ga, gz]

        return self._record("weighted_sum", (av @ flat).reshape(b, k), (ia, iz), backward)

    def mul(self, a, b):
        if a.shape != b.shape:
            raise ShapeMismatchError(f"mul: {a.shape} vs {b.shape}")
        av, bv = a.values, b.values
        ia, ib = self._track(a), self._track(b)
        return self._record("mul", av * bv, (ia, ib), lambda g: [g * bv, g * av])

    def scale(self, t, c):
        c = float(c)
        return self._record("scale", t.values * c, (self._track(t),), lambda g: [g * c])

    def mul_scalar(self, t, s):
        if s.values.ndim != 0:
            raise ShapeMismatchError(f"mul_scalar scale must be 0-d, got {s.shape}")
        tv, sv = t.values, float(s.values)
        it, is_ = self._track(t), self._track(s)

        def backward(g):
            gt = g * sv if it is not None else None
            gs = np.asarray((g * tv).sum()) if is_ is not None else None
            return [gt, gs]

        return self._record("mul_scalar", tv * sv, (it, is_), backward)

    def relu(self, t):
        tv = t.values
        return self._record(
            "relu", kernels.relu_fwd(tv), (self._track(t),),
            lambda g: [kernels.relu_bwd(tv, g)],
        )

    def sigmoid(self, t):
        out = sigmoid(t.values)
        return self._record(
            "sigmoid", out, (self._track(t),), lambda g: [g * out * (1.0 - out)]
        )

    def log_softmax(self, t):
        _require_2d("log_softmax input", t)
        y = kernels.log_softmax_rows(t.values)
        return self._record(
            "log_softmax", y, (self._track(t),),
            lambda g: [g - np.exp(y) * g.sum(axis=1, keepdims=True)],
        )

    def im_loss(self, z, labels, c_ent, c_div, c_pl):
        """c_ent*L_ent + c_div*L_div + c_pl*L_pl over logits z (b, k), as one node.

        With p = softmax(z): L_ent is the batch mean of the row entropies H,
        L_div the entropy of the batch-mean prediction pbar, and L_pl the mean
        cross-entropy against integer ``labels`` (may be None when c_pl is 0).
        Returns the loss tensor and the term values (L_ent, L_div, L_pl), with
        L_pl None when there are no labels. 0*log(0) counts as 0.
        """
        _require_2d("im_loss logits", z)
        b, k = z.shape
        if b == 0:
            raise ValueError("im_loss: empty batch")
        logp = kernels.log_softmax_rows(z.values)
        p = np.exp(logp)
        h = -(p * logp).sum(axis=1)
        pbar = p.mean(axis=0)
        filled = pbar > 0.0
        log_pbar = np.zeros(k)
        log_pbar[filled] = np.log(pbar[filled])
        l_ent, l_div, l_pl = float(h.mean()), -float((pbar * log_pbar).sum()), None
        if labels is not None:
            labels = np.asarray(labels)
            if len(labels) != b:
                raise ShapeMismatchError(f"got {len(labels)} labels for a batch of {b}")
            onehot = np.zeros((b, k))
            onehot[np.arange(b), labels] = 1.0
            l_pl = float((onehot * logp).sum()) * (-1.0 / b)
        elif c_pl:
            raise ValueError("the pseudo-label term needs labels")

        def backward(g):
            gz = np.zeros((b, k))
            if c_ent:  # dL_ent/dz = -p * (log p + H) / b
                gz -= c_ent * p * (logp + h[:, None])
            if c_div:  # dL_div/dz = p * (u - sum_k p u) / b, u = -(log pbar + 1)
                u = np.where(filled, -(log_pbar + 1.0), 0.0)
                gz += c_div * p * (u - (p @ u)[:, None])
            if c_pl:  # dL_pl/dz = (p - onehot) / b
                gz += c_pl * (p - onehot)
            return [gz * (float(g) / b)]

        total = c_ent * l_ent + c_div * l_div + (c_pl * l_pl if c_pl else 0.0)
        out = self._record("im_loss", np.asarray(total), (self._track(z),), backward)
        return out, (l_ent, l_div, l_pl)

    def sum(self, t):
        shape = t.values.shape
        return self._record(
            "sum",
            np.asarray(t.values.sum()),
            (self._track(t),),
            lambda g: [np.broadcast_to(g, shape).copy()],
        )

    def reciprocal(self, t):
        tv = t.values
        if np.any(tv == 0.0):
            raise ZeroDivisionError("reciprocal of zero")
        return self._record(
            "reciprocal", 1.0 / tv, (self._track(t),), lambda g: [-g / (tv * tv)]
        )

    # -- reverse pass ---------------------------------------------------------

    def backward(self, root):
        """Accumulate d(root)/d(leaf) into every grad-bearing leaf's ``.grad``."""
        if root._node is None or root._node[0] is not self:
            raise TapeError("backward root was not produced on this tape")
        if root.values.ndim != 0:
            raise TapeError(f"backward root must be scalar, got shape {root.shape}")
        grads = [None] * len(self.nodes)
        grads[root._node[1]] = np.asarray(1.0)
        for i in range(root._node[1], -1, -1):
            g = grads[i]
            if g is None:
                continue
            node = self.nodes[i]
            if node.leaf is not None:
                t = node.leaf
                t.grad = g.copy() if t.grad is None else t.grad + g
                continue
            for pid, contrib in zip(node.parents, node.backward(g)):
                if pid is None or contrib is None:
                    continue
                grads[pid] = contrib if grads[pid] is None else grads[pid] + contrib
