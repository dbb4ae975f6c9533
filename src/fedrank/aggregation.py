"""Weight-space aggregation rules for the baseline protocols.

An update is one client's flat float64 parameter delta.  Each rule takes
the round's updates as a list of rows (a 2-D array works the same) and
returns an array.  Client ids exist only for Krum's score tie-break.  Only
the trimmed mean, which sorts each dimension, stacks the rows.
"""

from __future__ import annotations

import numpy as np

# Most columns per leaf of pair_sums; at least numpy's 128-entry block.
LEAF = 8192


def _shape(updates: list[np.ndarray]) -> tuple[int, ...]:
    """The rows' one shape; a ValueError where ``np.stack`` raises one."""
    if len(updates) == 0:
        raise ValueError("no updates to aggregate")
    if any(np.shape(u) != np.shape(updates[0]) for u in updates):
        raise ValueError("all input arrays must have the same shape")
    return np.shape(updates[0])


def _stack(updates: list[np.ndarray]) -> np.ndarray:
    return np.stack(updates)


def average(updates: list[np.ndarray]) -> np.ndarray:
    """Unweighted dimension-wise mean: the stacked mean's bytes, -0.0
    included, as the rows are added in order to 0.0 (numpy sums a lone
    column pairwise, so one-entry rows may differ in the last bit)."""
    acc = np.zeros(_shape(updates))
    for u in updates:
        acc += u
    return np.divide(acc, len(updates), out=acc)


def trimmed_mean(updates: list[np.ndarray], f: int) -> np.ndarray:
    """Drop the f largest and f smallest values per dimension, then average;
    at f = 0 this is :func:`average`, from the one stack."""
    if len(updates) <= 2 * f:
        raise ValueError(f"trimmed mean needs more than {2 * f} updates, got {len(updates)}")
    mat = _stack(updates)
    if f:
        mat = np.sort(mat, axis=0)[f:-f]
    return mat.mean(axis=0)


def _tree(leaf, join, lo: int, hi: int):
    """``leaf(lo, hi)`` over numpy's pairwise split of columns lo..hi into
    runs of at most LEAF, the two halves' results joined by ``join``."""
    m = hi - lo
    if m <= LEAF:
        return leaf(lo, hi)
    mid = lo + m // 2 - (m // 2) % 8
    return join(_tree(leaf, join, lo, mid), _tree(leaf, join, mid, hi))


def _line_aligned(size: int) -> np.ndarray:
    """``np.empty(size)`` starting on a 64-byte cache line, where malloc
    promises only 16 bytes.  numpy's SIMD stores into a buffer that starts
    mid-line split lines: on a 2-core Xeon, pair_sums of 25 x 159,010 rows
    took about 65 ms that way against 49 ms aligned."""
    buf = np.empty(size + 7)
    start = -buf.ctypes.data % 64 // 8
    return buf[start : start + size]


def pair_sums(rows: list[np.ndarray]) -> np.ndarray:
    """``np.sum((rows[i] - rows[k]) ** 2)`` to the byte for each k = 1..n-1
    and each i < k, in that order, with no temporary wider than one leaf.
    numpy sums a contiguous row pairwise, from a 0.0 that changes no sum of
    squares: up to 128 entries with eight accumulators, more as sum(left) +
    sum(right) split at n // 2 - (n // 2) % 8.  So the columns are cut by that
    rule into leaves of at most LEAF columns.  Each leaf's columns of all n
    rows are copied into one buffer, the squared differences to each row k
    are summed in a second, both as wide as the widest leaf, and the leaf
    sums are added back up in tree order."""
    n, d = len(rows), _shape(rows)[0]
    width = _tree(lambda lo, hi: hi - lo, max, 0, d)
    stacked, diffs = _line_aligned(n * width), _line_aligned((n - 1) * width)

    def leaf(lo: int, hi: int) -> np.ndarray:
        m = hi - lo
        cols = np.stack([row[lo:hi] for row in rows], out=stacked[: n * m].reshape(n, m))
        sums, pos = np.empty(n * (n - 1) // 2), 0
        for k in range(1, n):
            diff = np.subtract(cols[:k], cols[k], out=diffs[: k * m].reshape(k, m))
            np.square(diff, out=diff)
            np.add.reduce(diff, axis=1, out=sums[pos : pos + k])
            pos += k
        return sums

    return _tree(leaf, np.add, 0, d)


def squared_distances(rows: list[np.ndarray]) -> np.ndarray:
    """n x n squared Euclidean distances between ``rows`` (a list of rows or
    a 2-D array): [i, k] and [k, i] are :func:`pair_sums`' sum for i < k,
    as (a - b)**2 == (b - a)**2, and the diagonal is 0.0."""
    n = len(rows)
    sq = np.zeros((n, n))
    below = np.tril_indices(n, -1)
    sq[below] = sq.T[below] = pair_sums(rows)
    return sq


def multi_krum_select(updates: list[np.ndarray], client_ids: list[int], f: int) -> list[int]:
    """Indices of the m = n - f updates with the lowest Krum scores;
    ``client_ids[i]`` is the id of ``updates[i]``.  The score of an update is
    the summed squared distance to its n - f - 2 nearest peers; score ties
    break toward the lower client_id."""
    n = len(updates)
    if len(client_ids) != n:
        raise ValueError(f"{len(client_ids)} client ids for {n} updates")
    if n < f + 3:
        raise ValueError(f"multi-krum needs at least f + 3 = {f + 3} updates, got {n}")
    # Each row's 0.0 self-distance sorts first (NaN sorts last), so the
    # n - f - 2 nearest peers follow it.
    scores = np.sort(squared_distances(updates), axis=1)[:, 1 : n - f - 1].sum(axis=1)
    order = np.lexsort((np.asarray(client_ids), scores))
    return sorted(int(i) for i in order[: n - f])


def multi_krum(updates: list[np.ndarray], client_ids: list[int], f: int) -> np.ndarray:
    selected = multi_krum_select(updates, client_ids, f)
    return average([updates[i] for i in selected])


def sign_majority(updates: list[np.ndarray]) -> np.ndarray:
    """Per-dimension majority of the updates' signs as int8 -1 or +1; a zero
    entry counts as +1, and exact ties resolve to +1."""
    total = np.zeros(_shape(updates), dtype=np.int64)
    for u in updates:
        total += np.where(u < 0, -1, 1)
    return np.where(total < 0, -1, 1).astype(np.int8)
