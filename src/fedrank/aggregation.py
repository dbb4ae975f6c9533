"""Weight-space aggregation rules for the baseline protocols."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

AGGREGATE_ID = -1  # client_id carried by aggregated outputs


@dataclass
class ModelUpdate:
    """Flat parameter delta (or gradient) from one client."""

    delta: np.ndarray
    client_id: int

    def __post_init__(self):
        self.delta = np.asarray(self.delta, dtype=np.float64)


@dataclass
class SignUpdate:
    """Elementwise signs of an update; zeros map to +1."""

    signs: np.ndarray

    def __post_init__(self):
        self.signs = np.asarray(self.signs, dtype=np.int8)
        if self.signs.size and not np.all(np.isin(self.signs, (-1, 1))):
            raise ValueError("signs must be -1 or +1")


def signs_of(delta: np.ndarray) -> SignUpdate:
    return SignUpdate(signs=np.where(np.asarray(delta) < 0, -1, 1))


def _stack(updates: list[ModelUpdate]) -> np.ndarray:
    if not updates:
        raise ValueError("no updates to aggregate")
    return np.stack([u.delta for u in updates])


def average(updates: list[ModelUpdate]) -> ModelUpdate:
    """Unweighted dimension-wise mean."""
    return ModelUpdate(delta=_stack(updates).mean(axis=0), client_id=AGGREGATE_ID)


def trimmed_mean(updates: list[ModelUpdate], f: int) -> ModelUpdate:
    """Drop the f largest and f smallest values per dimension, then average."""
    mat = _stack(updates)
    if len(updates) <= 2 * f:
        raise ValueError(f"trimmed mean needs more than {2 * f} updates, got {len(updates)}")
    if f == 0:
        return average(updates)
    mat = np.sort(mat, axis=0)[f:-f]
    return ModelUpdate(delta=mat.mean(axis=0), client_id=AGGREGATE_ID)


def squared_distances(mat: np.ndarray) -> np.ndarray:
    """n x n squared Euclidean distances between the rows of ``mat``.

    Built one pair at a time, so every temporary is one row long and the
    cost does not hinge on whether the allocator returns fresh pages for an
    n x d temporary (32 MB at 784-200-10 with n = 25).  Each distance is the
    same pairwise sum of one contiguous row as in the broadcast form, so the
    bytes match it, and (a - b)**2 == (b - a)**2 fills the lower triangle.
    """
    n = len(mat)
    sq = np.zeros((n, n), dtype=mat.dtype)
    for i in range(n):
        for j in range(i + 1, n):
            sq[i, j] = sq[j, i] = np.sum((mat[i] - mat[j]) ** 2)
    return sq


def select_from_distances(sq: np.ndarray, client_ids: list[int], f: int) -> list[int]:
    """Indices of the m = n - f rows of ``sq`` with the lowest Krum scores.

    ``sq`` is the n x n ``squared_distances`` matrix of the updates.  The
    score of an update is the summed squared distance to its n - f - 2
    nearest peers; score ties break toward the lower client_id.
    """
    n = len(sq)
    if n < f + 3:
        raise ValueError(f"multi-krum needs at least f + 3 = {f + 3} updates, got {n}")
    closest = n - f - 2
    scores = np.empty(n)
    for i in range(n):
        others = np.delete(sq[i], i)
        scores[i] = np.sort(others)[:closest].sum()
    order = np.lexsort((np.asarray(client_ids), scores))
    return sorted(int(i) for i in order[: n - f])


def multi_krum_select(updates: list[ModelUpdate], f: int) -> list[int]:
    """Indices of the m = n - f updates with the lowest Krum scores."""
    return select_from_distances(squared_distances(_stack(updates)),
                                 [u.client_id for u in updates], f)


def multi_krum(updates: list[ModelUpdate], f: int) -> ModelUpdate:
    selected = multi_krum_select(updates, f)
    return average([updates[i] for i in selected])


def sign_majority(sign_updates: list[SignUpdate]) -> SignUpdate:
    """Per-dimension majority sign; exact ties resolve to +1."""
    if not sign_updates:
        raise ValueError("no updates to aggregate")
    total = np.sum([u.signs.astype(np.int64) for u in sign_updates], axis=0)
    return SignUpdate(signs=np.where(total < 0, -1, 1))
