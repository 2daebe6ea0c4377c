import numpy as np

from decision.models import ModelConfig, SourceModel


def tiny_arch(input_dim=3, hidden_dim=4, feature_dim=3, num_classes=3):
    return ModelConfig(input_dim, hidden_dim, feature_dim, num_classes)


def make_models(n, seed, arch=None):
    arch = arch or tiny_arch()
    return [SourceModel.init(f"s{j}", arch, seed * 100 + j) for j in range(n)]


def constant_logit_model(bias, input_dim=2, name="const"):
    """A model whose logits are the given constant row for every input."""
    bias = np.asarray(bias, dtype=np.float64)
    k = len(bias)
    d = 3
    shapes = ((input_dim, 4), (4,), (4, d), (d,), (d, k))
    return SourceModel(name, [np.zeros(shape) for shape in shapes] + [bias.copy()])


def finite_diff(f, params, h=1e-5):
    """Central finite differences of scalar f() w.r.t. each parameter tensor."""
    grads = []
    for p in params:
        g = np.zeros_like(p.values)
        flat = p.values.ravel()
        gf = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric):
    worst = 0.0
    for a, b in zip(analytic, numeric):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst
