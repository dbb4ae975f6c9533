"""Weight-space aggregation rules for the baseline protocols.

An update is one client's flat float64 parameter delta.  Each rule takes
the round's updates as a list of rows (a 2-D array works the same) and
returns an array.  Client ids exist only for Krum's score tie-break.
"""

from __future__ import annotations

import numpy as np


def _stack(updates: list[np.ndarray]) -> np.ndarray:
    if len(updates) == 0:
        raise ValueError("no updates to aggregate")
    return np.stack(updates)


def average(updates: list[np.ndarray]) -> np.ndarray:
    """Unweighted dimension-wise mean."""
    return _stack(updates).mean(axis=0)


def trimmed_mean(updates: list[np.ndarray], f: int) -> np.ndarray:
    """Drop the f largest and f smallest values per dimension, then average;
    at f = 0 this is :func:`average`, from the one stack."""
    if len(updates) <= 2 * f:
        raise ValueError(f"trimmed mean needs more than {2 * f} updates, got {len(updates)}")
    mat = _stack(updates)
    if f:
        mat = np.sort(mat, axis=0)[f:-f]
    return mat.mean(axis=0)


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
    # Each row's 0.0 self-distance sorts first (NaN sorts last), so the
    # n - f - 2 nearest peers follow it.
    scores = np.sort(sq, axis=1)[:, 1 : n - f - 1].sum(axis=1)
    order = np.lexsort((np.asarray(client_ids), scores))
    return sorted(int(i) for i in order[: n - f])


def multi_krum_select(updates: list[np.ndarray], client_ids: list[int], f: int) -> list[int]:
    """Indices of the m = n - f updates with the lowest Krum scores;
    ``client_ids[i]`` is the id of ``updates[i]``."""
    if len(client_ids) != len(updates):
        raise ValueError(f"{len(client_ids)} client ids for {len(updates)} updates")
    return select_from_distances(squared_distances(_stack(updates)), client_ids, f)


def multi_krum(updates: list[np.ndarray], client_ids: list[int], f: int) -> np.ndarray:
    selected = multi_krum_select(updates, client_ids, f)
    return average([updates[i] for i in selected])


def sign_majority(updates: list[np.ndarray]) -> np.ndarray:
    """Per-dimension majority of the updates' signs as int8 -1 or +1; a zero
    entry counts as +1, and exact ties resolve to +1."""
    total = np.where(_stack(updates) < 0, -1, 1).sum(axis=0)
    return np.where(total < 0, -1, 1).astype(np.int8)
