"""Time the supervised training step against straight numpy code that computes the same bits.

``reference_train(models, datasets, cfg, seeds)`` is ``models.train_source``'s
tapeless step written out as one numpy loop without the finiteness checks,
the loss value, the optimizer object and the shared loop: the same forward,
the analytic gradient of the smoothed cross-entropy, and a per-parameter
momentum update v <- mu*v + (g + wd*p), p <- p - lr*v, over the batches of
``data.stacked_batches`` at the rates of ``optim.lr_schedule``. It returns the
six trained parameter arrays stacked on a leading model axis; the tests hold
``train_source`` to them bit for bit.

Run as a script, it alternates the two loops on the distillation student's
shapes (one model, 960 rows, 32-row batches, no label smoothing), each round
on fresh models, and prints the µs per step of each side (the minimum over
rounds) and the median of the per-round ratios. It exits 0 when one more
student trained each way comes out bit-equal, else 1:

    python tools/step_floor.py --rounds 15 --epochs 30

The ``decision`` package comes from ``PYTHONPATH`` when it is set there, else
from this checkout's ``src``. BLAS runs on one thread unless
``OPENBLAS_NUM_THREADS`` says otherwise, as in the benchmark harness.
"""

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from decision.data import DomainSpec, generate_domain, stacked_batches  # noqa: E402
from decision.models import (ModelConfig, SourceModel, SourceTrainConfig,  # noqa: E402
                             smoothed_targets, train_source)
from decision.optim import lr_schedule  # noqa: E402


def reference_train(models, datasets, cfg, seeds):
    """The parameters ``train_source(models, datasets, cfg, seeds)`` leaves,
    as six (n, ...) arrays; ``models`` are not modified.

    The values, velocities and gradients are flat buffers with one view per
    parameter, so the gradients are written in place and the momentum update
    is six numpy calls per step; elementwise it is the per-parameter rule.
    """
    kinds = [np.stack(kind) for kind in zip(*(m.params for m in models))]
    P = np.concatenate([k.ravel() for k in kinds])
    V, G, T = np.zeros((3, P.size))
    stops = np.cumsum([k.size for k in kinds])
    params, grads = ([buf[stop - k.size:stop].reshape(k.shape) for k, stop in zip(kinds, stops)]
                     for buf in (P, G))
    w1, b1, w2, b2, w, b = params
    g_w1, g_b1, g_w2, g_b2, g_w, g_b = grads
    x = np.stack([d.x for d in datasets])
    q = smoothed_targets(np.stack([d.y for d in datasets]), models[0].num_classes,
                         cfg.label_smoothing)
    total_steps = cfg.epochs * -(-x.shape[1] // cfg.batch_size)
    step = 0
    for epoch in range(cfg.epochs):
        for xb, qb in stacked_batches([x, q], cfg.batch_size,
                                      [s * 1_000_003 + epoch for s in seeds]):
            pre = xb @ w1 + b1[:, None, :]
            h = np.maximum(pre, 0.0)
            feats = h @ w2 + b2[:, None, :]
            z = feats @ w + b[:, None, :]
            shifted = z - np.maximum.reduce(z, axis=-1, keepdims=True)
            logp = shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
            # d(-sum(q log p) / b)/dz, exact when a row of q does not sum to 1
            gz = (np.exp(logp) * np.add.reduce(qb, axis=-1, keepdims=True) - qb) \
                * (1.0 / xb.shape[1])
            gf = gz @ w.swapaxes(-1, -2)
            gpre = (gf @ w2.swapaxes(-1, -2)) * (pre > 0.0)
            np.matmul(xb.swapaxes(-1, -2), gpre, out=g_w1)
            np.add.reduce(gpre, axis=-2, out=g_b1)
            np.matmul(h.swapaxes(-1, -2), gf, out=g_w2)
            np.add.reduce(gf, axis=-2, out=g_b2)
            np.matmul(feats.swapaxes(-1, -2), gz, out=g_w)
            np.add.reduce(gz, axis=-2, out=g_b)
            lr = cfg.lr * lr_schedule(1.0, step / max(1, total_steps - 1))
            # v <- mu*v + (g + wd*p); p <- p - lr*v
            np.multiply(P, cfg.weight_decay, out=T)
            T += G
            V *= cfg.momentum
            V += T
            np.multiply(V, lr, out=T)
            P -= T
            step += 1
    return params


def student_case(seed):
    """A fresh student, its 960-row training set and the student's config."""
    data = generate_domain(DomainSpec("two-moons", 960, seed, noise_std=0.25))
    model = SourceModel.init("student", ModelConfig(), seed)
    return [model], [data], [seed]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--epochs", type=int, default=30)
    args = parser.parse_args(argv)
    cfg = SourceTrainConfig(epochs=args.epochs, label_smoothing=0.0)
    steps = args.epochs * -(-960 // cfg.batch_size)

    def timed(train, seed):
        models, datasets, seeds = student_case(seed)
        start = time.perf_counter()
        train(models, datasets, cfg, seeds)
        return 1e6 * (time.perf_counter() - start) / steps, models

    tape_us, numpy_us = [], []
    for r in range(args.rounds):
        # the side that runs first alternates, so a slow stretch hits both
        sides = ((tape_us, train_source), (numpy_us, reference_train))
        for times, train in sides if r % 2 == 0 else sides[::-1]:
            times.append(timed(train, r)[0])
    models, datasets, seeds = student_case(0)
    want = reference_train(models, datasets, cfg, seeds)
    _, trained = timed(train_source, 0)
    equal = all(np.array_equal(p[None], w) for p, w in zip(trained[0].params, want))
    ratios = [t / f for t, f in zip(tape_us, numpy_us)]
    print(f"steps per round: {steps}, rounds: {args.rounds}, bit-equal: {equal}")
    print(f"train_source:    {min(tape_us):.1f} us/step (min)")
    print(f"reference_train: {min(numpy_us):.1f} us/step (min)")
    print(f"ratio: {statistics.median(ratios):.3f} (median of rounds)")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
