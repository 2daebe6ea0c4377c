"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

One optimization run owns one ``Tape``; operations are tape methods so the
recording scope is always explicit. The tape carries only the five ops the
package calls:

- ``affine`` and ``relu``, the model forward: one ``affine`` node per layer
  (x @ w + b), which also takes a leading source axis;
- ``weighted_sum``, which contracts that axis with the ensemble weights, so a
  step over n stacked source models records the same nodes for every n: 12
  in adaptation (five parameter leaves, three ``affine``, ``relu``,
  ``weighted_sum``, ``simplex``, ``im_loss``), 11 in source training (six
  leaves, three ``affine``, ``relu``, ``im_loss``);
- ``simplex``, the sigmoid-normalized ensemble weights, as one node;
- ``im_loss``, every training loss as one node with an analytic gradient:
  entropy, diversity and a cross-entropy against soft targets (one-hot
  pseudo-labels, smoothed source labels). It also takes a leading source
  axis, summing n independent per-source losses, so n source models train
  in one step. It counts underflowed probabilities as 0 rather than NaN.
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

    def affine(self, x, w, b):
        """One layer x @ w + b: (b, i) x (i, o) + (o,); per source, (b, i) shared
        or (n, b, i) stacked x (n, i, o) + (n, o)."""
        xv, wv, bv = x.values, w.values, b.values
        if wv.ndim not in (2, 3) or xv.ndim not in (2, wv.ndim) \
                or xv.shape[-1] != wv.shape[-2] or xv.shape[:-2] not in ((), wv.shape[:-2]) \
                or bv.shape != wv.shape[:-2] + wv.shape[-1:]:
            raise ShapeMismatchError(f"affine: {x.shape} x {w.shape} + {b.shape}")
        ix, iw, ib = self._track(x), self._track(w), self._track(b)

        def backward(g):
            gx = gw = gb = None
            if ix is not None:
                gx = kernels.matmul_nt(g, wv)
                if gx.ndim > xv.ndim:  # a shared x gets the sum over sources
                    gx = gx.sum(axis=0)
            if iw is not None:
                gw = kernels.matmul_tn(xv, g)
            if ib is not None:
                gb = g.sum(axis=-2)
            return [gx, gw, gb]

        return self._record("affine", kernels.matmul_nn(xv, wv) + bv[..., None, :],
                            (ix, iw, ib), backward)

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

    def relu(self, t):
        tv = t.values
        return self._record(
            "relu", kernels.relu_fwd(tv), (self._track(t),),
            lambda g: [kernels.relu_bwd(tv, g)],
        )

    def simplex(self, raw):
        """sigmoid(raw) / sum(sigmoid(raw)): raw weights (n,) -> a point on the simplex.

        Raises ZeroDivisionError when every sigmoid underflows to 0. A sum so
        small that 1/S or S*S would leave the float range is first scaled up
        by a power of two, which changes neither the value nor the gradient.
        """
        s = sigmoid(raw.values)
        ds = 1.0 - s
        total = s.sum()
        if total == 0.0:
            raise ZeroDivisionError("simplex: every sigmoid underflowed to 0")
        if total < 2.0 ** -500:
            s = np.ldexp(s, -np.frexp(total)[1])
            total = s.sum()
        inv = 1.0 / total

        def backward(g):
            gr = -(g * s).sum() / (total * total)
            return [(g * inv + gr) * s * ds]

        return self._record("simplex", s * inv, (self._track(raw),), backward)

    def im_loss(self, z, q, c_ent, c_div, c_pl):
        """c_ent*L_ent + c_div*L_div + c_pl*L_pl over logits z (b, k), as one node.

        With p = softmax(z): L_ent is the batch mean of the row entropies H,
        L_div the entropy of the batch-mean prediction pbar, and L_pl the
        cross-entropy -sum(q * log p) / b against targets ``q`` of z's shape:
        one-hot rows for hard labels, smoothed rows for label smoothing. ``q``
        may be None when c_pl is 0. Returns the loss tensor and the term values
        (L_ent, L_div, L_pl), with L_pl None when there are no targets.
        0*log(0) counts as 0.

        Logits (n, b, k) hold n independent problems: each source's terms are
        its own batch means, the loss is their sum over sources, and the term
        values come back as (n,) arrays, so each source's gradient is the one
        it would get alone.
        """
        zv = z.values
        if zv.ndim not in (2, 3):
            raise ShapeMismatchError(f"im_loss expects (b, k) or (n, b, k) logits, got {z.shape}")
        b, k = zv.shape[-2:]
        if b == 0:
            raise ValueError("im_loss: empty batch")
        logp = kernels.log_softmax_rows(zv)
        p = np.exp(logp)
        h = -(p * logp).sum(axis=-1)
        pbar = p.mean(axis=-2)
        filled = pbar > 0.0
        log_pbar = np.zeros(pbar.shape)
        log_pbar[filled] = np.log(pbar[filled])
        l_ent, l_div, l_pl = h.mean(axis=-1), -(pbar * log_pbar).sum(axis=-1), None
        if q is not None:
            if q.shape != zv.shape:
                raise ShapeMismatchError(f"im_loss: targets {q.shape} for logits {z.shape}")
            l_pl = (q * logp).sum(axis=(-2, -1)) * (-1.0 / b)
        elif c_pl:
            raise ValueError("the pseudo-label term needs target labels q")

        def backward(g):
            gz = np.zeros(zv.shape)
            if c_ent:  # dL_ent/dz = -p * (log p + H) / b
                gz -= c_ent * p * (logp + h[..., None])
            if c_div:  # dL_div/dz = p * (u - sum_k p u) / b, u = -(log pbar + 1)
                u = np.where(filled, -(log_pbar + 1.0), 0.0)[..., None, :]
                gz += c_div * p * (u - p @ u.swapaxes(-1, -2))
            if c_pl:  # dL_pl/dz = (p * sum_k q - q) / b, exact when sum_k q != 1
                gz += c_pl * (p * q.sum(axis=-1, keepdims=True) - q)
            return [gz * (float(g) / b)]

        total = (c_ent * l_ent + c_div * l_div + (c_pl * l_pl if c_pl else 0.0)).sum()
        out = self._record("im_loss", total, (self._track(z),), backward)
        terms = (l_ent, l_div, l_pl)
        if zv.ndim == 2:
            terms = tuple(None if t is None else float(t) for t in terms)
        return out, terms

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
