"""Benchmark workloads, generated from ``configs/moons3p1.yaml`` and a seed.

Every workload runs the same four stages of the README pipeline in each pass
(``train-sources``, ``adapt``, ``distill``, ``oracle``), so every stage and
method metric exists on every workload; the workloads differ in the shape of
the work, which moves different layers:

- ``moons3p1``: the standard 3+1 config with all eight methods, as users run
  it. 32-row batches over four sources, so tape bookkeeping dominates a step.
- ``sources16``: 16 half-size sources (12 clean rotations at 0-55 degrees, 4
  outliers with 90% corrupted labels) and the moons3p1 target, adapted for a
  third of the standard epochs. Tape nodes per step grow with the source
  count, so source-stacking work shows most here.

The seed shifts the global seed (model init, batch order, adaptation, oracle
instances) and every domain seed by ``1000 * seed``; seed 0 reproduces the
config file exactly. The program only ever sees the generated config.
"""

import copy
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
BASE_CONFIG = ROOT / "configs" / "moons3p1.yaml"

WORKLOADS = ("moons3p1", "sources16")
ORACLE_TRIALS = 1000
SEED_STRIDE = 1000

# methods run by ``adapt`` on every workload; moons3p1 also distills inside
# ``adapt``, as the standard config does
_ADAPT_METHODS = ("source_best", "source_worst", "shot_best", "shot_worst",
                  "shot_ens", "weights_only", "decision")


def _reseed(doc, seed):
    doc["seed"] = seed
    for domain in doc["sources"] + [doc["target"]]:
        domain["seed"] += SEED_STRIDE * seed
    return doc


def _only(doc, methods):
    doc["baselines"] = {name: name in methods for name in doc["baselines"]}
    return doc


def _sources16(doc, seed):
    proto = doc["sources"][0]
    shift = SEED_STRIDE * seed
    # half-size sources: only the target size drives the adaptation cost
    clean = [dict(proto, name=f"rot{5 * i}", rotation_deg=5.0 * i, seed=101 + i + shift,
                  n=proto["n"] // 2, label_corruption=0.0) for i in range(12)]
    outliers = [dict(proto, name=f"outlier{i}", rotation_deg=0.0, seed=201 + i + shift,
                     n=proto["n"] // 2, label_corruption=0.9) for i in range(4)]
    doc["sources"] = clean + outliers
    # The per-step work of adaptation -- batch shapes, source count -- is what
    # this workload varies; a third of the epochs repeats the same steps fewer
    # times, so more passes fit in a run.
    doc["adaptation"]["epochs"] //= 3
    return _only(doc, _ADAPT_METHODS)


def _shrink(doc):
    """Smallest size of a workload: same shape, a few rows and epochs."""
    for domain in doc["sources"] + [doc["target"]]:
        domain["n"] = 80
    doc["source_training"]["epochs"] = 1
    doc["adaptation"]["epochs"] = 2
    doc["adaptation"]["batch_size"] = min(doc["adaptation"]["batch_size"], 32)
    doc["distill"]["epochs"] = 1
    return doc


def config_doc(workload, seed, smoke=False):
    """The config mapping the program receives for ``workload`` at ``seed``."""
    with open(BASE_CONFIG) as fh:
        doc = yaml.safe_load(fh)
    doc = _reseed(copy.deepcopy(doc), seed)
    if workload == "sources16":
        doc = _sources16(doc, seed)
    elif workload != "moons3p1":
        raise ValueError(f"unknown workload {workload!r}")
    return _shrink(doc) if smoke else doc


def oracle_trials(smoke=False):
    return 20 if smoke else ORACLE_TRIALS
