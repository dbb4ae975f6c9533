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

# multi_krum_select is unused here; bench/test_bench.py checks that the
# tracer wraps this module's alias of it, so the name stays importable.
from .aggregation import average, multi_krum_select  # noqa: F401
from .nn import require_finite
from .ranking import LayerTally, NetworkRanking, floor_count, reverse_ranking


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
        self.validate()

    def validate(self) -> None:
        self.kind = AttackKind(self.kind)
        self.omega_kind = OmegaKind(self.omega_kind)
        require_finite(self, "scale_factor", "gamma_init")
        if not 0.0 <= self.malicious_fraction < 1.0:
            raise ValueError("malicious_fraction must be in [0, 1)")
        if self.gamma_init <= 0 or self.gamma_iters < 1:
            raise ValueError("gamma search parameters must be positive")
        if self.epochs is not None and self.epochs < 1:
            raise ValueError("attack_epochs must be >= 1")

    def malicious_count(self, num_clients: int) -> int:
        if self.kind is AttackKind.NONE:
            return 0
        return floor_count(num_clients, self.malicious_fraction)


def craft_rank_poison(own: list[LayerTally]) -> NetworkRanking:
    """Shared malicious submission: the reverse of the colluders' own vote,
    ``own`` holding one uncut tally per layer of the rankings they trained."""
    return [reverse_ranking(tally.order()) for tally in own]


def craft_scale_attack(benign_delta: np.ndarray, scale_factor: float) -> np.ndarray:
    """Large update in the opposite direction: scale_factor * (-delta)."""
    return scale_factor * (-benign_delta)


def craft_opt_poison(benign_deltas: list[np.ndarray], omega_kind: OmegaKind,
                     gamma_init: float, gamma_iters: int) -> np.ndarray:
    """Perturb the attackers' mean along a malicious direction.

    ``benign_deltas`` are the attackers' own deltas as rows (a 2-D array
    works the same).  The crafted update is mean(benign) + gamma * omega with
    omega the negated unit mean or its negated sign pattern (``omega_kind``).
    gamma is the halving search of Shejwalkar & Houmansadr (NDSS 2021),
    ``gamma_iters`` steps from ``gamma_init`` with every step accepted, so it
    saturates at gamma_init * (2 - 2**-gamma_iters) for every aggregator: as
    ``protocols.baseline_round`` calls it, a simulated Krum over the k own
    deltas and k crafted copies, tolerating k, would keep a finite copy at
    every step, since it has k - 1 zero distances and scores 0.
    """
    omega_kind = OmegaKind(omega_kind)
    base = average(benign_deltas)
    if omega_kind is OmegaKind.NEG_UNIT:
        norm = float(np.linalg.norm(base))
        if norm == 0.0:
            raise ValueError("benign mean has zero norm; neg_unit direction undefined")
        omega = -base / norm
    else:
        omega = -np.sign(base)
    # The steps are summed one by one, as the search adds them: the closed
    # form can round differently.
    gamma = gamma_init
    step = gamma_init / 2.0
    for _ in range(gamma_iters):
        gamma += step
        step /= 2.0
    return base + gamma * omega
