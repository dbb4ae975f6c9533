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

# multi_krum_select is unused here since the gamma search selects from
# distances it builds itself; bench/test_bench.py still checks that the
# tracer wraps this module's alias of it, so the name stays importable.
from .aggregation import (average, multi_krum_select, pair_sums,  # noqa: F401
                          select_from_distances, squared_distances)
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


def _krum_accepts(crafted: np.ndarray, own: list[np.ndarray], own_sq: np.ndarray,
                  ids: list[int], f: int) -> bool:
    """Whether Krum keeps a copy of ``crafted`` among the attackers' own rows and its copies.

    ``ids`` holds the own rows' client ids, then one id per copy.  Only the
    copies change between gamma steps, so ``own_sq`` (``squared_distances(own)``)
    is computed once per craft; each step takes :func:`pair_sums` of crafted
    against each own row and against a second copy of itself, which is NaN,
    not 0.0, when crafted holds an inf (inf - inf)."""
    nb, n = len(own), len(ids)
    sums = pair_sums([*own, crafted, crafted], [nb + 1])
    sq = np.empty((n, n))
    sq[:nb, :nb] = own_sq
    sq[:nb, nb:] = sums[:nb, None]
    sq[nb:, :nb] = sums[:nb]
    sq[nb:, nb:] = sums[nb]
    np.fill_diagonal(sq, 0.0)
    return max(select_from_distances(sq, ids, f)) >= nb


def craft_opt_poison(benign_deltas: list[np.ndarray], client_ids: list[int],
                     n_malicious: int, aggregator: str,
                     omega_kind: OmegaKind = OmegaKind.NEG_UNIT,
                     gamma_init: float = 50.0, gamma_iters: int = 20) -> np.ndarray:
    """Perturb the benign mean along a malicious direction.

    ``benign_deltas`` are the attackers' own deltas as rows (a 2-D array
    works the same) and ``client_ids`` their ids, which only the simulated
    Krum reads: ties break toward the lower id, and the ``n_malicious``
    crafted copies take ids below every real one.  ``aggregator`` names the
    server's rule.  The crafted update is mean(benign) + gamma * omega with
    omega the negated unit mean or its negated sign pattern (``omega_kind``).
    The halving search takes ``gamma_iters`` steps from ``gamma_init``
    toward the largest value the aggregator's selection still accepts (for
    aggregators without a selection step it saturates near 2 * gamma_init).
    The simulated Krum tolerates f = n_malicious, where the server
    (``protocols.baseline_round``) uses floor(malicious_fraction * n): the
    mismatch is deliberate, as aligning them changes the bytes of every
    opt_poison run, pinned hashes included.  As ``baseline_round`` calls it,
    the Krum search saturates too: the rows are the attackers' own k deltas
    and n_malicious = k, so a finite crafted copy has k - 1 zero distances,
    scores 0 and wins its tie.
    """
    if len(client_ids) != len(benign_deltas):
        raise ValueError(f"{len(client_ids)} client ids for {len(benign_deltas)} updates")
    if n_malicious < 1:
        raise ValueError("n_malicious must be >= 1")
    omega_kind = OmegaKind(omega_kind)
    if aggregator not in ("average", "trimmed_mean", "multi_krum"):
        raise ValueError(f"unknown aggregator {aggregator!r}")
    base = average(benign_deltas)
    if omega_kind is OmegaKind.NEG_UNIT:
        norm = float(np.linalg.norm(base))
        if norm == 0.0:
            raise ValueError("benign mean has zero norm; neg_unit direction undefined")
        omega = -base / norm
    else:
        omega = -np.sign(base)
    # Average and trimmed mean have no selection step that rejects an
    # update, and Krum cannot be simulated against fewer than f + 3 peers,
    # that is fewer than three own rows beside the f = n_malicious copies:
    # in those cases every gamma is accepted and the search saturates.
    simulate = aggregator == "multi_krum" and len(benign_deltas) >= 3
    if simulate:
        own_sq = squared_distances(benign_deltas)
        # Ids below any real client id so score ties favor the adversary.
        ids = list(client_ids) + [-(i + 1) for i in range(n_malicious)]
    gamma = gamma_init
    step = gamma_init / 2.0
    for _ in range(gamma_iters):
        if not simulate or _krum_accepts(base + gamma * omega, benign_deltas, own_sq,
                                         ids, n_malicious):
            gamma += step
        else:
            gamma -= step
        step /= 2.0
    return base + gamma * omega
