"""Flat key=value experiment config files with typed validation.

Format: one ``key = value`` per line, ``#`` comments, blank lines ignored.
Unknown keys are errors so sweep typos fail loudly.  The architecture is
written as comma-separated ``fan_inxfan_out:activation`` entries, e.g.
``architecture = 20x40:relu,40x10:identity``.
"""

from __future__ import annotations

from enum import Enum

from .adversary import AttackKind, OmegaKind
from .nn import LayerSpec
from .protocols import Aggregator, Algorithm, DatasetKind, ExperimentConfig
from .rng import InitKind


class ConfigError(ValueError):
    """Invalid config file; the message names the offending field."""


def parse_architecture(text: str) -> list[LayerSpec]:
    layers = []
    for part in text.split(","):
        part = part.strip()
        try:
            dims, _, act = part.partition(":")
            fan_in, fan_out = (int(v) for v in dims.split("x"))
            layers.append(LayerSpec(fan_in, fan_out, act.strip() or "relu"))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"architecture: cannot parse entry {part!r} ({exc})") from exc
    return layers


def format_architecture(layers: list[LayerSpec]) -> str:
    return ",".join(f"{sp.fan_in}x{sp.fan_out}:{sp.activation}" for sp in layers)


# key -> (part of ExperimentConfig or None for the top level, attribute,
# converter from the file's text), in the order config_to_flat_dict writes
# them.
_FIELDS: dict[str, tuple[str | None, str, object]] = {
    "algorithm": (None, "algorithm", Algorithm),
    "rounds": (None, "rounds", int),
    "num_clients": (None, "num_clients", int),
    "clients_per_round": (None, "clients_per_round", int),
    "local_epochs": (None, "local_epochs", int),
    "subnet_fraction": (None, "subnet_fraction", float),
    "sparsity": (None, "sparsity", float),
    "aggregator": (None, "aggregator", Aggregator),
    "server_lr": (None, "server_lr", float),
    "learning_rate": ("sgd", "learning_rate", float),
    "momentum": ("sgd", "momentum", float),
    "weight_decay": ("sgd", "weight_decay", float),
    "batch_size": ("sgd", "batch_size", int),
    "seed": (None, "seed", int),
    "eval_every": (None, "eval_every", int),
    "weight_init": (None, "weight_init", InitKind),
    "architecture": (None, "architecture", parse_architecture),
    "dataset": ("dataset", "kind", DatasetKind),
    "dirichlet_alpha": (None, "dirichlet_alpha", float),
    "attack": ("attack", "kind", AttackKind),
    "malicious_fraction": ("attack", "malicious_fraction", float),
    "scale_factor": ("attack", "scale_factor", float),
    "omega": ("attack", "omega_kind", OmegaKind),
    "gamma_init": ("attack", "gamma_init", float),
    "gamma_iters": ("attack", "gamma_iters", int),
    "attack_epochs": ("attack", "epochs", int),
    "blob_classes": ("dataset", "blob_classes", int),
    "blob_dims": ("dataset", "blob_dims", int),
    "blob_samples_per_class": ("dataset", "blob_samples_per_class", int),
    "blob_cluster_std": ("dataset", "blob_cluster_std", float),
    "blob_separation": ("dataset", "blob_separation", float),
    "idx_images": ("dataset", "idx_images", str),
    "idx_labels": ("dataset", "idx_labels", str),
}


def _foreign_prefix(kind: str) -> str:
    """Prefix of the dataset keys that ``dataset = kind`` does not use."""
    return "idx_" if kind == "blobs" else "blob_"


def parse_lines(lines: list[str]) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r} (line {lineno})")
        if key in raw:
            raise ConfigError(f"duplicate config key {key!r} (line {lineno})")
        raw[key] = value
    return raw


def build_config(raw: dict[str, str]) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for key, text in raw.items():
        part, attr, conv = _FIELDS[key]
        try:
            value = conv(text)
        except ConfigError:
            raise  # names its key already
        except ValueError as exc:
            if conv in (int, float):
                raise ConfigError(f"{key}: cannot parse {text!r} as {conv.__name__}") from exc
            raise ConfigError(f"{key}: {exc}") from exc
        setattr(getattr(cfg, part) if part else cfg, attr, value)
    foreign = _foreign_prefix(cfg.dataset.kind)
    for key in raw:
        if key.startswith(foreign):
            raise ConfigError(f"{key}: not used with dataset = {cfg.dataset.kind.value}")
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def parse_config(path: str) -> ExperimentConfig:
    with open(path) as f:
        return build_config(parse_lines(f.readlines()))


def config_to_flat_dict(cfg: ExperimentConfig) -> dict[str, object]:
    """Resolved config as the flat key=value mapping parse_config accepts.

    ``blob_*`` keys appear only for ``dataset = blobs`` and ``idx_*`` keys
    only for other kinds; unset (None) values are left out.
    """
    other_prefix = _foreign_prefix(cfg.dataset.kind)
    out: dict[str, object] = {}
    for key, (part, attr, _) in _FIELDS.items():
        if key.startswith(other_prefix):
            continue
        value = getattr(getattr(cfg, part) if part else cfg, attr)
        if isinstance(value, Enum):
            value = value.value
        elif key == "architecture":
            value = format_architecture(value)
        if value is not None:
            out[key] = value
    return out
