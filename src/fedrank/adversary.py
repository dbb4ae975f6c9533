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
from .aggregation import multi_krum_select, select_from_distances, squared_distances  # noqa: F401
from .nn import require_finite
from .ranking import NetworkRanking, floor_count, reverse_ranking, vote_network


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


def craft_rank_poison(own_rankings: list[NetworkRanking]) -> NetworkRanking:
    """Shared malicious submission: reverse of the colluders' own vote.

    ``own_rankings`` are the rankings the malicious clients trained on
    their own data, as every sampled client does; the group votes over
    them, and the reversed result is what each of them submits.
    """
    if not own_rankings:
        raise ValueError("rank poisoning needs at least one malicious client")
    return [reverse_ranking(layer) for layer in vote_network(own_rankings)]


def craft_scale_attack(benign_delta: np.ndarray, scale_factor: float) -> np.ndarray:
    """Large update in the opposite direction: scale_factor * (-delta)."""
    return scale_factor * (-benign_delta)


def _krum_accepts(crafted: np.ndarray, benign: np.ndarray, benign_sq: np.ndarray,
                  ids: list[int], f: int) -> bool:
    """Whether Krum keeps a copy of ``crafted`` among the benign rows and its copies.

    ``ids`` holds the benign rows' client ids, then one id per copy.  Only
    the copies change between gamma steps, so ``benign_sq``
    (``squared_distances(benign)``) is computed once per craft and each
    step adds one sum per benign row plus one crafted-vs-crafted sum.  Every entry is the same np.sum over the
    same row difference as in ``squared_distances`` of the stacked rows, so
    the bytes match it.  The crafted-vs-crafted sum is not assumed to be
    0.0: inf - inf makes it NaN when crafted holds an inf.
    """
    nb, n = len(benign), len(ids)
    cross = np.array([np.sum((benign[i] - crafted) ** 2) for i in range(nb)])
    sq = np.empty((n, n), dtype=benign.dtype)
    sq[:nb, :nb] = benign_sq
    sq[:nb, nb:] = cross[:, None]
    sq[nb:, :nb] = cross
    sq[nb:, nb:] = np.sum((crafted - crafted) ** 2)
    np.fill_diagonal(sq, 0.0)
    return max(select_from_distances(sq, ids, f)) >= nb


def craft_opt_poison(benign_deltas: list[np.ndarray], client_ids: list[int],
                     n_malicious: int, aggregator: str,
                     omega_kind: OmegaKind = OmegaKind.NEG_UNIT,
                     gamma_init: float = 50.0, gamma_iters: int = 20,
                     f: int | None = None) -> np.ndarray:
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

    ``f`` is the number of Byzantine clients the simulated Krum tolerates;
    it defaults to ``n_malicious``, the attackers sampled this round.  The
    server (``protocols.baseline_round``) uses floor(malicious_fraction * n)
    instead, so the two can differ.  The mismatch is deliberate: aligning
    them changes the bytes of every opt_poison run, pinned hashes included.
    """
    if len(benign_deltas) == 0:
        raise ValueError("opt poisoning needs at least one benign delta")
    if len(client_ids) != len(benign_deltas):
        raise ValueError(f"{len(client_ids)} client ids for {len(benign_deltas)} updates")
    if n_malicious < 1:
        raise ValueError("n_malicious must be >= 1")
    omega_kind = OmegaKind(omega_kind)
    if f is None:
        f = n_malicious
    if aggregator not in ("average", "trimmed_mean", "multi_krum"):
        raise ValueError(f"unknown aggregator {aggregator!r}")
    benign = np.stack(benign_deltas)
    base = np.mean(benign, axis=0)
    if omega_kind is OmegaKind.NEG_UNIT:
        norm = float(np.linalg.norm(base))
        if norm == 0.0:
            raise ValueError("benign mean has zero norm; neg_unit direction undefined")
        omega = -base / norm
    else:
        omega = -np.sign(base)
    # Average and trimmed mean have no selection step that rejects an
    # update, and Krum cannot be simulated against fewer than f + 3 peers:
    # in those cases every gamma is accepted and the search saturates.
    simulate = aggregator == "multi_krum" and len(benign) + n_malicious >= f + 3
    if simulate:
        benign_sq = squared_distances(benign)
        # Ids below any real client id so score ties favor the adversary.
        ids = list(client_ids) + [-(i + 1) for i in range(n_malicious)]
    gamma = gamma_init
    step = gamma_init / 2.0
    for _ in range(gamma_iters):
        if not simulate or _krum_accepts(base + gamma * omega, benign, benign_sq, ids, f):
            gamma += step
        else:
            gamma -= step
        step /= 2.0
    return base + gamma * omega
