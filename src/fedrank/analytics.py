"""Closed-form analyses: the vote failure bound and the communication model."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ranking import rank_bit_width

MIB = 8 * 2**20  # bits per mebibyte

# Layer parameter counts for the reference architectures used in the
# communication tables.
ARCH_PRESETS: dict[str, list[int]] = {
    "lenet-mnist": [288, 18432, 1605632, 1280],
    "conv8-cifar10": [1728, 36864, 73728, 147456, 294912, 589824,
                      1179648, 2359296, 524288, 65536, 2560],
    "lenet-femnist": [288, 18432, 1605632, 7936],
}


def failure_upper_bound(n: int, p: float, alpha: float) -> float:
    """Upper bound on the probability the edge vote drops a good edge.

    ``n`` clients per round, ``p`` the chance a benign client keeps the
    edge in its top ranks, ``alpha`` the malicious fraction.  The model:
    (1 - alpha)n benign clients each keep the edge with probability p,
    alpha*n attackers each with 1 - p, and the vote fails when at most n/2
    keep it.  (Were every client to keep it with chance p + alpha(1 - 2p),
    this would be no bound.)  Returns 1 when the mean-margin term
    p + alpha*(1 - 2p) - 1/2 is not positive (the bound is vacuous there),
    and is clamped to [0, 1] otherwise.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    margin = p - 0.5 + alpha * (1.0 - 2.0 * p)
    if margin <= 0.0:
        return 1.0
    return min(1.0, 0.5 * math.sqrt(p * (1.0 - p) / n) / margin)


def sweep_bound(n: int, p_grid: list[float], alpha_grid: list[float]
                ) -> list[tuple[float, float, float]]:
    """(alpha, p, bound) rows over the grid, alpha-major order."""
    return [(a, p, failure_upper_bound(n, p, a)) for a in alpha_grid for p in p_grid]


@dataclass(frozen=True)
class CostReport:
    """Per-client per-round traffic for one algorithm on one architecture."""

    upload_bits: float
    download_bits: float

    @property
    def upload_mib(self) -> float:
        return self.upload_bits / MIB

    @property
    def download_mib(self) -> float:
        return self.download_bits / MIB


def rank_payload_bits(arch: list[int]) -> int:
    """Naive ranking wire size: each rank takes the codec's
    ``rank_bit_width(n)`` = ceil(log2(n)) bits."""
    return sum(n * rank_bit_width(n) for n in arch)


def comm_cost(arch: list[int], algorithm: str, k_or_s: float | None = None) -> CostReport:
    """Per-client traffic model for one round of the given protocol.

    k_or_s is the sparsity fraction for sparse_fsl and the kept fraction K
    for topk; it is ignored elsewhere.
    """
    if not arch or any(n < 1 for n in arch):
        raise ValueError("architecture must list positive layer sizes")
    if k_or_s is not None and not 0.0 < k_or_s <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {k_or_s}")
    total = sum(arch)
    ranks = rank_payload_bits(arch)
    dense = total * 32  # float32 weights
    if algorithm == "fsl":
        return CostReport(upload_bits=ranks, download_bits=ranks)
    if algorithm == "sparse_fsl":
        if k_or_s is None:
            raise ValueError("sparse_fsl needs a sparsity fraction")
        return CostReport(upload_bits=k_or_s * ranks, download_bits=ranks)
    if algorithm == "fedavg":
        return CostReport(upload_bits=dense, download_bits=dense)
    if algorithm == "signsgd":
        return CostReport(upload_bits=total, download_bits=dense)
    if algorithm == "topk":
        if k_or_s is None:
            raise ValueError("topk needs a kept fraction")
        # Kept coordinates at full width plus a 1-bit membership mask.
        return CostReport(upload_bits=k_or_s * dense + total, download_bits=dense)
    raise ValueError(f"unknown algorithm {algorithm!r}")
