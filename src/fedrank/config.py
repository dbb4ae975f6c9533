"""Flat key=value experiment config files with typed validation.

Format: one ``key = value`` per line, ``#`` comments, blank lines ignored.
Unknown keys are errors so sweep typos fail loudly.  The architecture is
written as comma-separated ``fan_inxfan_out:activation`` entries, e.g.
``architecture = 20x40:relu,40x10:identity``.
"""

from __future__ import annotations

import math

from .adversary import AttackConfig, AttackKind, OmegaKind
from .nn import LayerSpec, SgdConfig
from .protocols import Aggregator, Algorithm, ExperimentConfig
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


# key -> converter; values are applied onto the config dataclasses below.
_SCHEMA: dict[str, type | object] = {
    "algorithm": str,
    "rounds": int,
    "num_clients": int,
    "clients_per_round": int,
    "local_epochs": int,
    "subnet_fraction": float,
    "sparsity": float,
    "aggregator": str,
    "server_lr": float,
    "learning_rate": float,
    "momentum": float,
    "weight_decay": float,
    "batch_size": int,
    "seed": int,
    "eval_every": int,
    "weight_init": str,
    "architecture": str,
    "dataset": str,
    "blob_classes": int,
    "blob_dims": int,
    "blob_samples_per_class": int,
    "blob_cluster_std": float,
    "blob_separation": float,
    "idx_images": str,
    "idx_labels": str,
    "dirichlet_alpha": float,
    "attack": str,
    "malicious_fraction": float,
    "attack_epochs": int,
    "scale_factor": float,
    "omega": str,
    "gamma_init": float,
    "gamma_iters": int,
}


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
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r} (line {lineno})")
        if key in raw:
            raise ConfigError(f"duplicate config key {key!r} (line {lineno})")
        raw[key] = value
    return raw


def build_config(raw: dict[str, str]) -> ExperimentConfig:
    typed: dict[str, object] = {}
    for key, text in raw.items():
        conv = _SCHEMA[key]
        try:
            typed[key] = conv(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {text!r} as {conv.__name__}") from exc
        if conv is float and not math.isfinite(typed[key]):
            raise ConfigError(f"{key}: must be finite, got {text!r}")

    cfg = ExperimentConfig()
    sgd = cfg.sgd
    attack = cfg.attack
    dataset = cfg.dataset
    simple = {
        "rounds", "num_clients", "clients_per_round", "local_epochs",
        "subnet_fraction", "sparsity", "server_lr", "seed", "eval_every",
        "dirichlet_alpha",
    }
    try:
        for key, value in typed.items():
            if key in simple:
                setattr(cfg, key, value)
            elif key == "algorithm":
                cfg.algorithm = Algorithm(value)
            elif key == "aggregator":
                cfg.aggregator = Aggregator(value)
            elif key == "weight_init":
                cfg.weight_init = InitKind(value)
            elif key == "architecture":
                cfg.architecture = parse_architecture(value)
            elif key == "learning_rate":
                sgd.learning_rate = value
            elif key == "momentum":
                sgd.momentum = value
            elif key == "weight_decay":
                sgd.weight_decay = value
            elif key == "batch_size":
                sgd.batch_size = value
            elif key == "dataset":
                dataset.kind = value
            elif key.startswith(("blob_", "idx_")):
                setattr(dataset, key, value)
            elif key == "attack":
                attack.kind = AttackKind(value)
            elif key == "malicious_fraction":
                attack.malicious_fraction = value
            elif key == "attack_epochs":
                attack.epochs = value
            elif key == "scale_factor":
                attack.scale_factor = value
            elif key == "omega":
                attack.omega_kind = OmegaKind(value)
            elif key == "gamma_init":
                attack.gamma_init = value
            elif key == "gamma_iters":
                attack.gamma_iters = value
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc

    # Re-run dataclass validation with the final field values.
    try:
        SgdConfig(sgd.learning_rate, sgd.momentum, sgd.weight_decay, sgd.batch_size)
        AttackConfig(attack.malicious_fraction, attack.kind, attack.epochs,
                     attack.scale_factor, attack.omega_kind, attack.gamma_init,
                     attack.gamma_iters)
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if dataset.kind == "idx" and (dataset.idx_images is None or dataset.idx_labels is None):
        raise ConfigError("idx_images and idx_labels are required for dataset = idx")
    return cfg


def parse_config(path: str) -> ExperimentConfig:
    with open(path) as f:
        return build_config(parse_lines(f.readlines()))


def config_to_flat_dict(cfg: ExperimentConfig) -> dict[str, object]:
    """Resolved config as the flat key=value mapping parse_config accepts."""
    out: dict[str, object] = {
        "algorithm": cfg.algorithm.value,
        "rounds": cfg.rounds,
        "num_clients": cfg.num_clients,
        "clients_per_round": cfg.clients_per_round,
        "local_epochs": cfg.local_epochs,
        "subnet_fraction": cfg.subnet_fraction,
        "sparsity": cfg.sparsity,
        "aggregator": cfg.aggregator.value,
        "server_lr": cfg.server_lr,
        "learning_rate": cfg.sgd.learning_rate,
        "momentum": cfg.sgd.momentum,
        "weight_decay": cfg.sgd.weight_decay,
        "batch_size": cfg.sgd.batch_size,
        "seed": cfg.seed,
        "eval_every": cfg.eval_every,
        "weight_init": cfg.weight_init.value,
        "architecture": format_architecture(cfg.architecture),
        "dataset": cfg.dataset.kind,
        "dirichlet_alpha": cfg.dirichlet_alpha,
        "attack": cfg.attack.kind.value,
        "malicious_fraction": cfg.attack.malicious_fraction,
        "scale_factor": cfg.attack.scale_factor,
        "omega": cfg.attack.omega_kind.value,
        "gamma_init": cfg.attack.gamma_init,
        "gamma_iters": cfg.attack.gamma_iters,
    }
    if cfg.attack.epochs is not None:
        out["attack_epochs"] = cfg.attack.epochs
    if cfg.dataset.kind == "blobs":
        out.update({
            "blob_classes": cfg.dataset.blob_classes,
            "blob_dims": cfg.dataset.blob_dims,
            "blob_samples_per_class": cfg.dataset.blob_samples_per_class,
            "blob_cluster_std": cfg.dataset.blob_cluster_std,
        })
        if cfg.dataset.blob_separation is not None:
            out["blob_separation"] = cfg.dataset.blob_separation
    else:
        out.update({"idx_images": cfg.dataset.idx_images,
                    "idx_labels": cfg.dataset.idx_labels})
    return out
