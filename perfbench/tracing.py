"""Spans recorded around calls into the program's modules, from outside them.

A ``Tracer`` replaces a module's name binding (or a class method) with a
wrapper that records one span per call: name, start, end, parent span and an
optional info value taken from the arguments. Spans stay in memory; the
caller computes metrics from them and writes them out at the end. Nothing in
``src/`` is modified on disk; ``uninstall`` restores every binding.

Span names are ``<layer>.<function>``, where the layer is the program module
(``autodiff``, ``kernels``, ``adaptation``, ``optim``, ``models``,
``distill``, ``oracle``, ``data``, ``runner``).
"""

import csv
import gzip
import time

import numpy as np

from decision import adaptation, autodiff, kernels, oracle, optim, runner
from decision import distill as distill_mod

KERNELS = ("matmul_nn", "matmul_nt", "matmul_tn", "relu_fwd", "relu_bwd",
           "softmax_rows", "log_softmax_rows", "weighted_feature_sums",
           "per_source_sqdist", "pairwise_sqdist")

_F8 = 8  # bytes per float64


def _mm(m, k, n):
    return 2 * m * k * n, _F8 * (m * k + k * n + m * n)


# Computed work per kernel call, from operand shapes: (flops, bytes), where
# bytes counts each operand read once and the result written once.
KERNEL_WORK = {
    "matmul_nn": lambda a, b: _mm(a.shape[0], a.shape[1], b.shape[1]),
    "matmul_nt": lambda a, b: _mm(a.shape[0], a.shape[1], b.shape[0]),
    "matmul_tn": lambda a, b: _mm(a.shape[1], a.shape[0], b.shape[1]),
    "relu_fwd": lambda x: (x.size, 2 * _F8 * x.size),
    "relu_bwd": lambda x, g: (x.size, 3 * _F8 * x.size),
    "softmax_rows": lambda x: (4 * x.size, 2 * _F8 * x.size),
    "log_softmax_rows": lambda x: (4 * x.size + x.shape[0], 2 * _F8 * x.size),
    "weighted_feature_sums": lambda f, w: (
        2 * f.shape[0] * w.shape[1] * f.shape[1] + w.size,
        _F8 * (f.size + w.size + w.shape[1] * f.shape[1] + w.shape[1])),
    "per_source_sqdist": lambda f, c, a: (
        f.shape[0] * f.shape[1] * c.shape[1] * (3 * f.shape[2] + 2),
        _F8 * (f.size + c.size + a.size + f.shape[1] * c.shape[1])),
    "pairwise_sqdist": lambda a, b: (
        3 * a.shape[0] * b.shape[0] * a.shape[1],
        _F8 * (a.size + b.size + a.shape[0] * b.shape[0])),
}


def _adapt_method(models, *args, **kwargs):
    # runner adapts one model at a time for SHOT and all of them for DECISION
    return "shot" if len(models) == 1 else "decision"


class Tracer:
    """In-memory spans plus the bindings patched to record them."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents, self.infos = [], [], [], [], []
        self.counts = {}
        self._stack = [-1]
        self._patches = []
        self._by_name, self._indexed = {}, 0

    def wrap(self, fn, name, info=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, infos, stack = self.parents, self.infos, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            infos.append(info(*args, **kwargs) if info is not None else None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def call(self, name, fn, *args):
        return self.wrap(fn, name)(*args)

    def patch(self, owner, attr, name, info=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, info))

    def precede(self, owner, attr, hook):
        """Call ``hook()`` before every call of ``owner.attr``."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))

        def preceded(*args, **kwargs):
            hook()
            return original(*args, **kwargs)

        setattr(owner, attr, preceded)

    def count(self, owner, attr, key):
        """Count calls without recording spans, for very frequent small calls."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        counts = self.counts
        counts[key] = 0

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def durations(self):
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        dur = self.durations()
        child = np.zeros(len(dur))
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur - child

    def indices(self, name, info=None):
        """Spans called ``name`` (with this info value, if given), in call order."""
        if self._indexed != len(self.names):  # (re)build after new spans
            self._by_name, self._indexed = {}, len(self.names)
            for i, n in enumerate(self.names):
                self._by_name.setdefault(n, []).append(i)
        found = self._by_name.get(name, [])
        return found if info is None else [i for i in found if self.infos[i] == info]

    def within(self, roots):
        """Indices of every span nested (at any depth) under one of ``roots``."""
        inside = np.zeros(len(self.names), dtype=bool)
        for r in roots:
            inside[r] = True
        for i, p in enumerate(self.parents):
            if p >= 0 and inside[p]:
                inside[i] = True  # parents always precede their children
        for r in roots:
            inside[r] = False
        return np.flatnonzero(inside)

    def write_csv(self, fh, pass_index):
        w = csv.writer(fh)
        for i, name in enumerate(self.names):
            w.writerow([pass_index, i, name, repr(self.starts[i]), repr(self.ends[i]),
                        self.parents[i]])


def install_method_spans(tracer):
    """The few per-pass spans that split ``adapt`` time by method."""
    tracer.patch(runner, "adapt", "adaptation.adapt", _adapt_method)
    tracer.patch(runner, "weights_only_adapt", "adaptation.weights_only_adapt")
    tracer.patch(runner, "train_student", "distill.train_student")


def install_layer_spans(tracer):
    """Spans at every layer boundary the per-layer table reads."""
    install_method_spans(tracer)
    # weights_only_adapt reaches adapt through the adaptation module's binding
    tracer.patch(adaptation, "adapt", "adaptation.adapt", lambda *a, **k: "weights_only")
    for name in ("objective", "update_pseudo_labels", "mean_prediction"):
        tracer.patch(adaptation, name, f"adaptation.{name}")
    tracer.patch(adaptation, "accuracy", "models.accuracy")
    tracer.patch(runner, "accuracy", "models.accuracy")
    tracer.patch(autodiff.Tape, "backward", "autodiff.Tape.backward",
                 lambda tape, root: len(tape.nodes))
    tracer.patch(optim.SgdMomentum, "step", "optim.SgdMomentum.step")
    for name in KERNELS:
        tracer.patch(kernels, name, f"kernels.{name}", KERNEL_WORK[name])
    tracer.patch(runner, "train_source", "models.train_source")
    tracer.patch(distill_mod, "train_source", "models.train_source")
    tracer.patch(runner, "save_checkpoint", "models.save_checkpoint")
    tracer.patch(runner, "load_checkpoint", "models.load_checkpoint")
    tracer.patch(runner, "generate_domain", "data.generate_domain")
    tracer.patch(runner, "split_train_eval", "data.split_train_eval")
    for name in ("write_metrics_jsonl", "write_alpha_csv", "_write_json"):
        tracer.patch(runner, name, f"runner.{name}")
    tracer.patch(oracle, "check_instance", "oracle.check_instance")
    tracer.count(oracle, "expected_loss", "oracle.expected_loss")


def write_spans(path, tracers):
    """Write every traced pass's spans as gzip CSV (pass, id, name, start, end, parent)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", newline="") as fh:
        fh.write("pass,id,name,start,end,parent\n")
        for p, tracer in tracers:
            tracer.write_csv(fh, p)

