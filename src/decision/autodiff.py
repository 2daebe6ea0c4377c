"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

Adaptation (SHOT, DECISION, weights-only) records one ``Tape`` per step;
operations are tape methods so the recording scope is always explicit. The
tape carries only the three ops the package calls:

- ``mlp``, the model forward ``mlp_forward`` (affine, relu, affine to
  features, then the affine head) as one node, over n models' parameters
  stacked on a leading source axis;
- ``ensemble``, which contracts that axis with the sigmoid-normalized
  ensemble weights as one node, to (1, b, K) logits. A step over n stacked
  source models records the same nodes for every n > 1: 3 in adaptation
  (``mlp``, ``ensemble``, ``im_loss``) and 2 in weights-only (``ensemble``
  and ``im_loss`` over cached logits, with no forward). One-source
  adaptation (SHOT), whose ensemble weight is the constant 1, records 2
  (``mlp``, ``im_loss``);
- ``im_loss``, every adaptation loss as one node with an analytic gradient:
  entropy, diversity and a cross-entropy against soft targets (one-hot
  pseudo-labels). Its logits are always (n, b, K): n independent problems
  whose losses it sums and whose terms it returns as (n,) arrays. In
  adaptation n is 1, the ensemble's logits or a SHOT step's one source. It
  counts underflowed probabilities as 0 rather than NaN.

Supervised training (the sources and the distillation student) records no
tape: its graph is always the mlp and a cross-entropy against fixed targets,
so ``models.train_source`` runs ``mlp_forward`` and the analytic backward
itself. ``mlp_backward`` is the one mlp backward, of that step and of
``Tape.mlp``.

The tape records operations only. A parameter (a tensor with
``requires_grad``) is an operand, not a node: backward writes its first
gradient into the row of its optimizer's gradient buffer (``grad_row``), or a
fresh array when no optimizer owns it, and adds later ones to ``.grad``.
``Tape.mlp`` is the only place the tape checks values for finiteness; a value
that is not finite raises ``DivergenceError``. The cached logits a weights-only
step reads were checked once, by ``adaptation.target_forward``.

Evaluation and pseudo-labels call ``mlp_forward`` in numpy: one forward.
"""

import numpy as np

from . import kernels


class ShapeMismatchError(ValueError):
    """Operand shapes do not conform."""


class TapeError(RuntimeError):
    """Backward called on a tensor that is not a scalar tape node."""


class DivergenceError(ValueError):
    """A training value that is not finite. Names the value and the first
    source whose rows hold one; ``optim.run_epochs`` adds the epoch and step."""


def sigmoid(v):
    """Elementwise logistic function without overflow for large |v| (numpy)."""
    e = np.exp(-np.abs(v))  # at most 1: 1/(1 + e) where v >= 0, e/(1 + e) below
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _check_finite(name, values):
    """Raise DivergenceError if (b, k) or (n, b, k) ``values`` are not all finite."""
    finite = np.isfinite(values)
    if np.count_nonzero(finite) != finite.size:  # .all() without the reduction machinery
        rows = np.isfinite(values.reshape(-1, *values.shape[-2:])).all(axis=(1, 2))
        raise DivergenceError(f"{name} not finite in source {int(np.argmin(rows))}")


def mlp_forward(x, params):
    """The model forward in numpy: (pre-activation, features, logits).

    ``params`` are one model's six arrays w1 (i, h), b1 (h,), w2 (h, d),
    b2 (d,), w (d, K), b (K,), or n models' stacked on a leading axis; x is
    (b, i), or (n, b, i) for per-model batches. The features are
    relu(x @ w1 + b1) @ w2 + b2 and the logits features @ w + b.
    """
    w1, b1, w2, b2, w, b = params
    if x.shape[-1] != w1.shape[-2]:
        raise ShapeMismatchError(f"input dim {x.shape[-1]} != {w1.shape[-2]}")
    # Out of place, with the relu output a temporary: adding the biases in
    # place, or keeping the relu output for the tape's backward, raised the
    # benchmark's 16-source peak RSS by 0.4-0.8 MB through the numpy forwards
    # over whole sets.
    pre = kernels.matmul_nn(x, w1) + b1[..., None, :]
    feats = kernels.matmul_nn(kernels.relu_fwd(pre), w2) + b2[..., None, :]
    return pre, feats, kernels.matmul_nn(feats, w) + b[..., None, :]


# ``mlp_forward`` with numpy's overflow and invalid-value warnings off, for
# the training steps: their finiteness checks raise DivergenceError instead,
# so a diverged run prints one line. The decorator form costs about half of
# a ``with np.errstate(...)`` block per call.
quiet_mlp_forward = np.errstate(over="ignore", invalid="ignore")(mlp_forward)


def mlp_backward(x, params, pre, feats, g, heads=True, out=(None,) * 6):
    """The gradients of ``mlp_forward``'s six parameters from g, the gradient
    of its logits, given the forward's input, parameters, pre-activation and
    features: the one mlp backward, of ``Tape.mlp`` and of
    ``models.train_source``. Without ``heads`` the head's two are None.

    ``out`` holds, per parameter, None or an array that receives its
    gradient: the bias sums are written there with ``out=``, the matmuls (the
    kernels take no ``out=``) copied. Returns the six gradients: the arrays of
    ``out`` where given, else fresh ones. The relu output is recomputed, not
    kept from the forward, which measured a higher peak RSS.
    """
    _, _, w2, _, w, _ = params
    gf = kernels.matmul_nt(g, w)
    gpre = kernels.relu_bwd(pre, kernels.matmul_nt(gf, w2))
    grads = [kernels.matmul_tn(x, gpre), np.add.reduce(gpre, axis=-2, out=out[1]),
             kernels.matmul_tn(kernels.relu_fwd(pre), gf), np.add.reduce(gf, axis=-2, out=out[3]),
             kernels.matmul_tn(feats, g) if heads else None,
             np.add.reduce(g, axis=-2, out=out[5]) if heads else None]
    for i in (0, 2, 4):
        if out[i] is not None:
            out[i][...] = grads[i]
            grads[i] = out[i]
    return grads


class Tensor:
    """A dense array plus an optional gradient and tape handle.

    ``grad_row`` is None, or the row of an optimizer's gradient buffer that
    ``SgdMomentum`` gave this parameter: backward then writes the parameter's
    first gradient there, and ``.grad`` is that row until ``zero_grad``.
    """

    __slots__ = ("values", "grad", "requires_grad", "grad_row", "_node")

    def __init__(self, data, requires_grad=False):
        self.values = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.grad_row = None
        self._node = None  # (tape, node index) once recorded

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        return float(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("op", "parents", "backward")

    def __init__(self, op, parents, backward):
        self.op = op
        self.parents = parents  # per operand, as Tape._operands gives them
        self.backward = backward  # grad -> list of per-operand contributions


class Tape:
    """Ordered record of operations; an operand's node precedes its consumers."""

    def __init__(self):
        self.nodes = []

    def __len__(self):
        return len(self.nodes)

    # -- recording ----------------------------------------------------------

    def _operands(self, *tensors):
        """Per tensor: its node index if recorded here, else the tensor if a
        parameter, else None. Never a recorded tensor: it points back at its
        tape, a cycle."""
        return tuple([t._node[1] if t._node is not None and t._node[0] is self
                      else t if t.requires_grad else None for t in tensors])

    def _record(self, op, values, parents, backward):
        """The output tensor; a node only when some operand takes a gradient."""
        out = Tensor(values)
        if parents.count(None) != len(parents):
            out._node = (self, len(self.nodes))
            self.nodes.append(_Node(op, parents, backward))
        return out

    # -- primitive operations ------------------------------------------------

    def mlp(self, x, params):
        """The logits of ``mlp_forward`` as one node: x is a constant batch,
        (b, i) shared by every model or (n, b, i), and ``params`` six tensors
        shaped as ``mlp_forward`` takes them. Constant heads get no gradient.
        With every parameter constant, no node is recorded, but the values are
        still checked. A pre-activation or logit that is not finite raises
        DivergenceError naming it and the first source that holds one; numpy's
        overflow and invalid-value warnings are off in the forward."""
        values = [p.values for p in params]
        pre, feats, logits = quiet_mlp_forward(x, values)
        # The tape's only finiteness checks. The relu hides a -inf
        # pre-activation; any other value that is not finite, a feature or a
        # parameter, makes logits non-finite. Finite logits (these, or the
        # cached ones target_forward checked) keep the other ops finite:
        # ensemble (its weights are bounded sigmoids on the simplex; a NaN raw
        # weight fails adapt's per-step simplex check) and im_loss, as long as
        # no logit row spans more than the float range.
        _check_finite("pre-activation", pre)
        _check_finite("logits", logits)
        parents = self._operands(*params)
        heads = parents[4] is not None or parents[5] is not None

        def backward(g):
            return mlp_backward(x, values, pre, feats, g, heads)

        return self._record("mlp", logits, parents, backward)

    def ensemble(self, raw, z):
        """sum_j alpha_j * z_j, alpha = sigmoid(raw) / sum(sigmoid(raw)), as one
        node: raw weights (n,) and values (n, b, k) -> (1, b, k), one problem
        for ``im_loss``.

        Raises ZeroDivisionError when every sigmoid underflows to 0. A sum so
        small that 1/S or S*S would leave the float range is first scaled up
        by a power of two, which changes neither alpha nor the gradient.
        """
        zv = z.values
        if raw.values.ndim != 1 or zv.ndim != 3 or raw.values.shape[0] != zv.shape[0]:
            raise ShapeMismatchError(f"ensemble: {raw.shape} . {z.shape}")
        n, b, k = zv.shape
        flat = zv.reshape(n, b * k)
        s = sigmoid(raw.values)
        ds = 1.0 - s  # before the rescale
        total = np.add.reduce(s)
        if total == 0.0:
            raise ZeroDivisionError("ensemble: every sigmoid underflowed to 0")
        if total < 2.0 ** -500:
            s = np.ldexp(s, -np.frexp(total)[1])
            total = np.add.reduce(s)
        inv = 1.0 / total
        alpha = s * inv
        parents = self._operands(raw, z)

        def backward(g):  # through alpha = s * (1/S), then the sigmoid
            ga = flat @ g.reshape(-1)
            gr = (ga * inv - np.add.reduce(ga * s) / (total * total)) * s * ds
            return [gr, alpha[:, None, None] * g if parents[1] is not None else None]

        return self._record("ensemble", (alpha @ flat).reshape(1, b, k), parents, backward)

    def im_loss(self, z, q, c_ent, c_div, c_pl):
        """sum over n problems of c_ent*L_ent + c_div*L_div + c_pl*L_pl, over
        logits z (n, b, k), as one node.

        Each of the n problems is one source's batch (or the ensemble's, n = 1).
        With p = softmax(z): L_ent is the batch mean of the row entropies H,
        L_div the entropy of the batch-mean prediction pbar, and L_pl the
        cross-entropy -sum(q * log p) / b against targets ``q`` of z's shape:
        one-hot rows for hard labels, smoothed rows for label smoothing. ``q``
        may be None when c_pl is 0. Returns the loss tensor and the term values
        (L_ent, L_div, L_pl), each an (n,) array of per-problem batch means, so
        each problem's gradient is the one it would get alone. L_ent and L_div
        come back whatever their coefficients, so a caller can log a disabled
        term; L_pl is None when there are no targets. 0*log(0) counts as 0.
        """
        zv = z.values
        if zv.ndim != 3:
            raise ShapeMismatchError(f"im_loss expects (n, b, k) logits, got {z.shape}")
        b = zv.shape[-2]
        if b == 0:
            raise ValueError("im_loss: empty batch")
        if q is None:
            if c_pl:
                raise ValueError("the pseudo-label term needs target labels q")
        elif q.shape != zv.shape:
            raise ShapeMismatchError(f"im_loss: targets {q.shape} for logits {z.shape}")
        # np.add.reduce is ndarray.sum without its Python wrapper: the same bits
        logp = kernels.log_softmax_rows(zv)
        p = np.exp(logp)
        l_pl = None if q is None else np.add.reduce(q * logp, axis=(-2, -1)) * (-1.0 / b)
        h = -np.add.reduce(p * logp, axis=-1)
        pbar = np.add.reduce(p, axis=-2) / b  # the mean, as ndarray.mean divides
        filled = pbar > 0.0
        log_pbar = np.zeros(pbar.shape)
        log_pbar[filled] = np.log(pbar[filled])
        l_ent, l_div = np.add.reduce(h, axis=-1) / b, -np.add.reduce(pbar * log_pbar, axis=-1)

        def backward(g):
            gz = np.zeros(zv.shape)
            if c_ent:  # dL_ent/dz = -p * (log p + H) / b
                gz -= c_ent * p * (logp + h[..., None])
            if c_div:  # dL_div/dz = p * (u - sum_k p u) / b, u = -(log pbar + 1)
                u = np.where(filled, -(log_pbar + 1.0), 0.0)[..., None, :]
                gz += c_div * p * (u - p @ u.swapaxes(-1, -2))
            if c_pl:  # dL_pl/dz = (p * sum_k q - q) / b, exact when sum_k q != 1
                gz += c_pl * (p * np.add.reduce(q, axis=-1, keepdims=True) - q)
            return [gz * (float(g) / b)]

        total = np.add.reduce(c_ent * l_ent + c_div * l_div + (c_pl * l_pl if c_pl else 0.0),
                              axis=None)
        out = self._record("im_loss", total, self._operands(z), backward)
        return out, (l_ent, l_div, l_pl)

    # -- reverse pass ---------------------------------------------------------

    def backward(self, root):
        """Accumulate d(root)/d(parameter) into every parameter's ``.grad``.

        A parameter's first gradient is copied into its ``grad_row`` when it
        has one, else into a fresh array: never kept as the node's own
        transient, which measured a higher peak RSS. Later ones add to it."""
        node = root._node
        if node is None or node[0] is not self:
            raise TapeError("backward root was not produced on this tape")
        if root.values.ndim != 0:
            raise TapeError(f"backward root must be scalar, got shape {root.shape}")
        nodes, last = self.nodes, node[1]
        grads = [None] * (last + 1)
        grads[last] = np.asarray(1.0)
        for i in range(last, -1, -1):
            g = grads[i]
            if g is None:
                continue
            node = nodes[i]
            for parent, contrib in zip(node.parents, node.backward(g)):
                if parent is None or contrib is None:
                    continue
                if isinstance(parent, Tensor):  # a parameter
                    if parent.grad is not None:
                        parent.grad = parent.grad + contrib
                    elif parent.grad_row is not None:
                        parent.grad_row[...] = contrib
                        parent.grad = parent.grad_row
                    else:
                        parent.grad = contrib.copy()
                else:
                    grads[parent] = contrib if grads[parent] is None else grads[parent] + contrib
