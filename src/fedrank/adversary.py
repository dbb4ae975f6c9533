"""Poisoning strategies for the robustness experiments.

Rank reversal is the worst case against the rank vote: colluding clients
vote among their own benign rankings, then everyone submits the reversed
result.  The weight-space attacks are the classic large-update scale
attack and a gamma-search perturbation attack against robust aggregators.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .aggregation import AGGREGATE_ID, ModelUpdate, multi_krum_select
from .nn import Minibatch, SeedNetwork, SgdConfig
from .ranking import NetworkRanking, reverse_ranking, vote_network
from .rng import InitKind, RngStream


class AttackKind(str, Enum):
    NONE = "none"
    RANK_REVERSAL = "rank_reversal"
    SCALE = "scale"
    OPT_POISON = "opt_poison"


class OmegaKind(str, Enum):
    NEG_UNIT = "neg_unit"
    NEG_SIGN = "neg_sign"


@dataclass
class AttackConfig:
    """Attack settings; malicious clients are the lowest floor(fraction*N) ids."""

    malicious_fraction: float = 0.0
    kind: AttackKind = AttackKind.NONE
    epochs: int | None = None  # malicious local epochs, defaults to the benign E
    scale_factor: float = 1e6
    omega_kind: OmegaKind = OmegaKind.NEG_UNIT
    gamma_init: float = 50.0
    gamma_iters: int = 20

    def __post_init__(self):
        self.kind = AttackKind(self.kind)
        self.omega_kind = OmegaKind(self.omega_kind)
        if not 0.0 <= self.malicious_fraction < 1.0:
            raise ValueError("malicious_fraction must be in [0, 1)")
        if self.gamma_init <= 0 or self.gamma_iters < 1:
            raise ValueError("gamma search parameters must be positive")

    def malicious_count(self, num_clients: int) -> int:
        if self.kind is AttackKind.NONE:
            return 0
        return int(self.malicious_fraction * num_clients)


def craft_rank_poison(seed: int | SeedNetwork, global_ranking: NetworkRanking,
                      malicious_batches: list[list[Minibatch]], epochs: int,
                      k: float, sgd: SgdConfig, rngs: list[RngStream],
                      specs, weight_init: InitKind) -> NetworkRanking:
    """Shared malicious submission: reverse of the colluders' own vote.

    Every malicious client first runs the benign client procedure on its
    own data, the group votes over those rankings, and the reversed result
    is what each of them submits.  ``seed`` is passed on to
    ``fsl_client_update`` as it is.
    """
    from .protocols import fsl_client_update  # deferred: protocols imports this module

    if not malicious_batches:
        raise ValueError("rank poisoning needs at least one malicious client")
    rankings = [
        fsl_client_update(seed, global_ranking, batches, epochs, k, sgd, rng,
                          specs, weight_init)
        for batches, rng in zip(malicious_batches, rngs)
    ]
    voted = vote_network(rankings)
    return [reverse_ranking(layer) for layer in voted]


def craft_scale_attack(benign_delta: ModelUpdate, scale_factor: float) -> ModelUpdate:
    """Large update in the opposite direction: scale_factor * (-delta)."""
    return ModelUpdate(delta=scale_factor * (-benign_delta.delta),
                       client_id=benign_delta.client_id)


def _accepted(crafted: np.ndarray, benign_deltas: list[ModelUpdate],
              n_malicious: int, aggregator: str, f: int) -> bool:
    """Whether every malicious copy survives the aggregator's selection."""
    if aggregator in ("average", "trimmed_mean"):
        # No selection step rejects individual updates; the crafted value
        # is used directly, so the search saturates.
        return True
    if aggregator == "multi_krum":
        sim = list(benign_deltas)
        # Ids below any real client id so score ties favor the adversary.
        sim += [ModelUpdate(delta=crafted, client_id=-(i + 1)) for i in range(n_malicious)]
        if len(sim) < f + 3:
            return True  # too few peers to simulate selection against
        selected = multi_krum_select(sim, f)
        malicious_idx = set(range(len(benign_deltas), len(sim)))
        return bool(malicious_idx & set(selected))
    raise ValueError(f"unknown aggregator {aggregator!r}")


def craft_opt_poison(benign_deltas: list[ModelUpdate], n_malicious: int,
                     aggregator: str, omega_kind: OmegaKind = OmegaKind.NEG_UNIT,
                     gamma_init: float = 50.0, gamma_iters: int = 20,
                     f: int | None = None) -> ModelUpdate:
    """Perturb the benign mean along a malicious direction.

    The crafted update is mean(benign) + gamma * omega with omega the
    negated unit mean or its negated sign pattern.  The halving search
    pushes gamma toward the largest value the aggregator's selection still
    accepts (for aggregators without a selection step it saturates near
    2 * gamma_init).

    ``f`` is the number of Byzantine clients the simulated Krum tolerates;
    it defaults to ``n_malicious``, the attackers sampled this round.  The
    server (``protocols.baseline_round``) uses int(malicious_fraction * n)
    instead, so the two can differ.  The mismatch is deliberate: aligning
    them changes the bytes of every opt_poison run, pinned hashes included.
    """
    if not benign_deltas:
        raise ValueError("opt poisoning needs at least one benign delta")
    if n_malicious < 1:
        raise ValueError("n_malicious must be >= 1")
    omega_kind = OmegaKind(omega_kind)
    if f is None:
        f = n_malicious
    base = np.mean([u.delta for u in benign_deltas], axis=0)
    if omega_kind is OmegaKind.NEG_UNIT:
        norm = float(np.linalg.norm(base))
        if norm == 0.0:
            raise ValueError("benign mean has zero norm; neg_unit direction undefined")
        omega = -base / norm
    else:
        omega = -np.sign(base)
    gamma = gamma_init
    step = gamma_init / 2.0
    for _ in range(gamma_iters):
        if _accepted(base + gamma * omega, benign_deltas, n_malicious, aggregator, f):
            gamma += step
        else:
            gamma -= step
        step /= 2.0
    return ModelUpdate(delta=base + gamma * omega, client_id=AGGREGATE_ID)
