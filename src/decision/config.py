"""Declarative experiment configs: strict YAML in, resolved dataclasses out.

The parser rejects unknown keys at every level so a typo fails loudly instead
of silently falling back to a default. Rotation angles are written in degrees
in the file and converted to radians internally.
"""

import math
from dataclasses import dataclass, field, fields, replace

import yaml

from .adaptation import AdaptationConfig
from .data import GENERATOR_CLASSES, DomainSpec, eval_rows
from .models import ModelConfig, SourceTrainConfig


class ConfigError(ValueError):
    """Invalid experiment config; message names the offending field."""


# each accuracy-table row, in table order, and the `baselines` key that enables it
METHOD_KEYS = {"Source-best": "source_best", "Source-worst": "source_worst",
               "SHOT-best": "shot_best", "SHOT-worst": "shot_worst", "SHOT-Ens": "shot_ens",
               "DECISION-weights": "weights_only", "DECISION": "decision",
               "DECISION-distill": "distill"}
BASELINE_KEYS = tuple(METHOD_KEYS.values())

# the keys a config file may set, per section; the model, source_training and
# adaptation sections are also echoed back with exactly these keys
_DOMAIN_KEYS = ("name", "kind", "n", "seed", "rotation_deg", "translation",
                "noise_std", "label_corruption")
_MODEL_KEYS = ("hidden_dim", "feature_dim")
_TRAIN_KEYS = ("epochs", "batch_size", "lr", "momentum", "weight_decay",
               "label_smoothing")
_ADAPT_KEYS = ("lambda_pl", "epochs", "batch_size", "lr_backbone", "lr_alpha",
               "momentum", "weight_decay", "refinement_rounds", "distance_mode")
_DISTILL_KEYS = ("epochs",)
_TOP_KEYS = ("seed", "eval_fraction", "sources", "target", "model",
             "source_training", "adaptation", "baselines", "distill")


@dataclass
class ExperimentConfig:
    seed: int
    source_specs: list
    source_names: list
    target_spec: DomainSpec
    eval_fraction: float = 0.2
    model: ModelConfig = field(default_factory=ModelConfig)
    source_training: SourceTrainConfig = field(default_factory=SourceTrainConfig)
    adaptation: AdaptationConfig = field(default_factory=AdaptationConfig)
    baselines: dict = field(default_factory=lambda: {k: True for k in BASELINE_KEYS})
    distill_epochs: int = 150

    def __post_init__(self):
        if not self.source_specs:
            raise ConfigError("sources: need at least one source domain")
        if len(self.source_names) != len(set(self.source_names)):
            raise ConfigError("sources: duplicate source names")
        kinds = {s.kind for s in self.source_specs} | {self.target_spec.kind}
        if len(kinds) > 1:
            raise ConfigError(f"all domains must share one generator kind, got {kinds}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.eval_fraction < 1.0:
            raise ConfigError(f"eval_fraction must be in (0, 1), got {self.eval_fraction}")
        for name, spec in zip(self.source_names, self.source_specs):
            if eval_rows(spec.n, self.eval_fraction) == 0:
                raise ConfigError(f"sources: '{name}' has n = {spec.n}, which leaves no "
                                  f"evaluation rows at eval_fraction {self.eval_fraction}")
        if self.distill_epochs < 1:
            raise ConfigError(f"distill: epochs must be >= 1, got {self.distill_epochs}")

    @property
    def num_classes(self):
        return self.target_spec.num_classes

    def resolved_model(self):
        return replace(self.model, input_dim=2, num_classes=self.num_classes)

    def to_dict(self):
        def domain_dict(name, spec):
            return {
                "name": name,
                "kind": spec.kind,
                "n": spec.n,
                "seed": spec.seed,
                "rotation_deg": round(math.degrees(spec.rotation), 12),
                "translation": list(spec.translation),
                "noise_std": spec.noise_std,
                "label_corruption": spec.label_corruption,
            }

        def section(obj, keys):
            return {key: getattr(obj, key) for key in keys}

        return {
            "seed": self.seed,
            "eval_fraction": self.eval_fraction,
            "sources": [domain_dict(n, s) for n, s in zip(self.source_names, self.source_specs)],
            "target": domain_dict("target", self.target_spec),
            "model": section(self.model, _MODEL_KEYS),
            "source_training": section(self.source_training, _TRAIN_KEYS),
            "adaptation": section(self.adaptation, _ADAPT_KEYS),
            "baselines": dict(self.baselines),
            "distill": {"epochs": self.distill_epochs},
        }


def _check_keys(section, mapping, allowed):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{section}: expected a mapping")
    unknown = set(mapping).difference(allowed)
    if unknown:
        raise ConfigError(f"{section}: unknown key(s) {sorted(unknown)}")


def _integer(name, value):
    """``value`` if it is a YAML integer; a float (2.0 too) or a boolean raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _real(name, value):
    """``value`` if it is a YAML integer or float; a boolean or a string raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return value


def _need(section, mapping, key):
    if key not in mapping:
        raise ConfigError(f"{section}: missing required field '{key}'")
    return mapping[key]


def _parse_domain(section, raw, default_name):
    _check_keys(section, raw, _DOMAIN_KEYS)
    kind = _need(section, raw, "kind")
    if kind not in GENERATOR_CLASSES:
        raise ConfigError(f"{section}: unknown generator kind {kind!r}")
    try:  # only the keys the file sets: DomainSpec holds the defaults
        given = {"n": _integer("n", _need(section, raw, "n")),
                 "seed": _integer("seed", _need(section, raw, "seed"))}
        if "rotation_deg" in raw:
            given["rotation"] = math.radians(_real("rotation_deg", raw["rotation_deg"]))
        if "translation" in raw:
            given["translation"] = tuple(_real("translation", v) for v in raw["translation"])
        for key in ("noise_std", "label_corruption"):
            if key in raw:
                given[key] = float(_real(key, raw[key]))
        spec = DomainSpec(kind, **given)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from None
    return str(raw.get("name", default_name)), spec


def from_dict(doc):
    """Build an ExperimentConfig from a parsed mapping, strictly."""
    _check_keys("config", doc, _TOP_KEYS)
    if "target" not in doc:
        raise ConfigError("config: missing required field 'target'")
    if "sources" not in doc:
        raise ConfigError("config: missing required field 'sources'")
    if not isinstance(doc["sources"], list) or not doc["sources"]:
        raise ConfigError("sources: expected a non-empty list")
    names, specs = [], []
    for i, raw in enumerate(doc["sources"]):
        name, spec = _parse_domain(f"sources[{i}]", raw, f"source{i}")
        names.append(name)
        specs.append(spec)
    _, target = _parse_domain("target", doc["target"], "target")

    def build(section, keys, ctor, **extra):
        raw = doc.get(section, {})
        _check_keys(section, raw, keys)
        try:
            for f in fields(ctor):
                check = {int: _integer, float: _real}.get(f.type)
                if check is not None and f.name in raw:
                    check(f.name, raw[f.name])
            return ctor(**raw, **extra)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{section}: {exc}") from None

    model = build("model", _MODEL_KEYS, ModelConfig)
    training = build("source_training", _TRAIN_KEYS, SourceTrainConfig)
    adaptation = build("adaptation", _ADAPT_KEYS, AdaptationConfig)
    raw_baselines = doc.get("baselines", {})
    _check_keys("baselines", raw_baselines, BASELINE_KEYS)
    baselines = {k: True for k in BASELINE_KEYS}
    for k, v in raw_baselines.items():
        if not isinstance(v, bool):
            raise ConfigError(f"baselines: '{k}' must be a boolean")
        baselines[k] = v
    raw_distill = doc.get("distill", {})
    _check_keys("distill", raw_distill, _DISTILL_KEYS)
    try:
        seed = _integer("seed", doc.get("seed", 0))
        given = {}  # ExperimentConfig holds the defaults of the keys a file leaves out
        if "eval_fraction" in doc:
            given["eval_fraction"] = float(_real("eval_fraction", doc["eval_fraction"]))
        if "epochs" in raw_distill:
            given["distill_epochs"] = _integer("distill.epochs", raw_distill["epochs"])
        cfg = ExperimentConfig(
            seed=seed,
            source_specs=specs,
            source_names=names,
            target_spec=target,
            model=model,
            source_training=training,
            adaptation=adaptation,
            baselines=baselines,
            **given,
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def load(path):
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return from_dict(doc)


def save(cfg, path):
    with open(path, "w") as fh:
        yaml.safe_dump(cfg.to_dict(), fh, sort_keys=True)


def moons_fixture(seed=0, n=1200, noise_std=0.25, **overrides):
    """The standard 3-clean-sources-plus-one-outlier arrangement.

    Sources sit at rotations 0/20/40 degrees; a fourth source shares the
    0-degree geometry but has 90% of its labels resampled uniformly; the
    target sits at 30 degrees with a small translation that breaks the
    left/right symmetry of the arcs (a balanced, perfectly symmetric target
    never shows the single-class drift the diversity term exists to prevent).
    All domain seeds derive from ``seed``.
    """
    base = seed * 1000
    mk = lambda s, rot, corrupt=0.0, trans=(0.0, 0.0): DomainSpec(
        "two-moons", n=n, seed=base + s, rotation=math.radians(rot),
        translation=trans, noise_std=noise_std, label_corruption=corrupt,
    )
    cfg = ExperimentConfig(
        seed=seed,
        source_specs=[mk(1, 0.0), mk(2, 20.0), mk(3, 40.0), mk(4, 0.0, corrupt=0.9)],
        source_names=["rot0", "rot20", "rot40", "outlier"],
        target_spec=mk(5, 30.0, trans=(0.2, 0.0)),
    )
    return replace(cfg, **overrides) if overrides else cfg
