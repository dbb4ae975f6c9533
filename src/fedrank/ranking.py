"""Layer-wise rank algebra: the permutation objects exchanged on the wire.

A layer ranking is an int64 permutation of [0, n): position i holds the
edge whose reputation is i, so the least important edge comes first.  A
network ranking is one permutation per layer.  All ties break toward the
lower edge index (stable sorts throughout) so every operation is
deterministic.

Every stable order here comes from :func:`stable_order`, which runs only
numpy's SIMD sorts: one plain sort of unique uint64 words, an
order-preserving key above the entry's index, where the two fit in 64 bits.
Wider keys (float64, integer ranges too wide to leave room for the index)
take the unstable argsort, and where it leaves equal keys side by side their
dense ranks take the packed sort.

Every ranking row taken in (an upload, a decoded download, a client's cut
ranking) passes one rule, :func:`_rank_rows`: integer entries in [0, n),
none repeated within the row, so a row of n is a permutation.
SparseLayerRanking, both decoders and LayerTally (so vote and
vote_network) all apply it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

LayerRanking = np.ndarray
NetworkRanking = list[np.ndarray]


@dataclass(frozen=True)
class SparseLayerRanking:
    """Highest-reputation suffix of a full layer ranking.

    ``top`` lists the kept edges ascending by reputation; ``n`` is the full
    edge count of the layer.
    """

    top: np.ndarray
    n: int

    def __post_init__(self):
        if np.ndim(self.top) != 1:
            raise ValueError("a sparse ranking must be one row within the layer size")
        object.__setattr__(self, "top", _rank_rows(self.top, self.n)[0])


def floor_count(n: int, k: float) -> int:
    """floor(k * n) at the decimal value of k, e.g. the malicious clients
    among n: a product within 1e-12 * n of an integer is that integer.  A
    fraction such as 0.7 is stored a hair off its decimal, so the float
    product can miss the count it stands for (0.7 * 90 is 62.99999999999999).
    Float error stays below 1e-15 * n; a wider tolerance such as 1e-9 * n
    would count k = 1e-9 of one edge as zero edges."""
    x = k * n
    r = round(x)
    return r if abs(x - r) <= 1e-12 * n else math.floor(x)


def keep_count(n_edges: int, k: float) -> int:
    """Edges retained at subnetwork fraction ``k``: n - floor((1-k) * n),
    the rest being dropped.  floor_count reads the product at its decimal
    value, which forming (1-k) in floating point would otherwise lose
    (k=0.8, n=10 would keep 9 instead of 8)."""
    if not 0.0 <= k <= 1.0:
        raise ValueError(f"k must be in [0, 1], got {k}")
    return n_edges - floor_count(n_edges, 1.0 - k)


def _order_keys(values: np.ndarray) -> tuple[np.ndarray, int]:
    """A new uint64 array of keys that order and tie as ``values`` do under
    ``np.argsort``, and the bit width they fit in.

    A float32 or float64 key is the bit pattern with the sign flipped
    (negatives inverted, the rest above them), after adding 0.0 folds -0.0
    onto +0.0, which the argsort treats as equal; every NaN gets the one
    all-ones key, above +inf, as the argsort puts NaNs last.  An integer or
    bool key is value - min.  Any other dtype is rejected."""
    if values.dtype in (np.float32, np.float64):
        bits = 8 * values.dtype.itemsize
        signed = np.dtype(f"i{bits // 8}").type
        with np.errstate(invalid="ignore"):  # a signalling NaN raises it
            keys = (values + values.dtype.type(0)).view(signed)
        flip = keys >> (bits - 1)  # -1 for negatives, 0 otherwise
        flip |= signed(-2**(bits - 1))
        keys ^= flip
        keys[np.isnan(values)] = -1  # all ones, which no other value reaches
        return keys.view(f"u{bits // 8}").astype(np.uint64, copy=False), bits
    if values.dtype.kind in "biu":
        if not values.size:
            return values.astype(np.uint64), 0
        lo = int(values.min())
        keys = values.astype(np.uint64)  # modulo 2**64, so the difference is exact
        keys -= np.uint64(lo % 2**64)
        return keys, (int(values.max()) - lo).bit_length()
    raise TypeError(f"no stable order for dtype {values.dtype}")


def stable_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, axis=-1, kind="stable")`` as int64: the stable
    order of each row along the last axis (of the one row of a 1-D array),
    from numpy's SIMD sorts alone.

    Each entry gets a key that orders and ties as its value does
    (:func:`_order_keys`).  Where the key and the index width,
    bit_length(n - 1), fit in 64 bits together, the key is shifted left by
    the index width and OR-ed with the entry's index in its row; one plain
    sort of these unique words, masked to the index bits, is the stable
    order.  Wider keys (float64, an integer range too wide for the index)
    take the unstable argsort as they are.  Where no two adjacent sorted
    keys of a row are equal, that is already the stable order.  Otherwise
    each sorted key becomes its dense rank in its row (below n, so at most
    32 bits for a row of up to 2**32 entries), packed beside the index the
    argsort put there, and one packed sort of those words is the order:
    exact for any ties, at most two sorts.
    """
    values = np.asarray(values)
    n = values.shape[-1]
    width = max(n - 1, 0).bit_length()
    keys, bits = _order_keys(values)
    if bits + width <= 64:
        index = np.arange(n, dtype=np.uint64)
    else:
        order = np.argsort(keys, axis=-1)
        # a fancy index costs less than take_along_axis at a few hundred entries
        keys = keys[order] if keys.ndim == 1 else np.take_along_axis(keys, order, axis=-1)
        starts = keys[..., 1:] != keys[..., :-1]
        if starts.all():
            return order
        if width > 32:
            raise ValueError("rows with ties must hold at most 2**32 entries")
        keys[..., 0] = 0
        np.cumsum(starts, axis=-1, dtype=np.uint64, out=keys[..., 1:])  # dense ranks
        index = order.view(np.uint64)
    keys <<= np.uint64(width)
    keys |= index
    keys.sort(axis=-1)
    keys &= np.uint64((1 << width) - 1)
    return keys.view(np.int64)


def finite_flat(values: np.ndarray) -> np.ndarray:
    """``values`` flattened, float32 kept as float32 and anything else cast
    to float64; the float32 -> float64 cast is exact, so orders and
    comparisons are the same in both.  Raises unless every value is finite."""
    flat = np.asarray(values).ravel()
    if flat.dtype != np.float32:
        flat = flat.astype(np.float64)
    if not np.all(np.isfinite(flat)):
        raise ValueError("values must be finite")
    return flat


def argsort_ranking(values: np.ndarray) -> LayerRanking:
    """Ranking of a value vector: indices ascending by value, stable."""
    return stable_order(finite_flat(values))


def reorder_scores(sorted_values: np.ndarray, ranking: LayerRanking) -> np.ndarray:
    """Assign ascending values to edges by rank: out[ranking[i]] = sorted[i].

    Consequently argsort_ranking(out) == ranking when values are distinct.
    """
    sorted_values = np.asarray(sorted_values)
    ranking = np.asarray(ranking, dtype=np.int64)
    if sorted_values.shape[0] != ranking.shape[0]:
        raise ValueError("length mismatch between values and ranking")
    if (sorted_values[1:] < sorted_values[:-1]).any():
        raise ValueError("values must be sorted ascending")
    out = np.empty_like(sorted_values)
    out[ranking] = sorted_values
    return out


def _integer_entries(entries) -> np.ndarray:
    """``entries`` as an array, which must be empty or of an integer dtype:
    a float row would be truncated and a bool row read as 0 and 1."""
    entries = np.asarray(entries)
    if entries.size and entries.dtype.kind not in "iu":
        raise ValueError(f"entries must be integers, got {entries.dtype}")
    return entries


def _rank_rows(entries, n: int) -> np.ndarray:
    """``entries``, one row or a (G, m) block of rows, as an int64 (G, m)
    array once every row passes the ranking row rule: integer entries in
    [0, n), none repeated within the row (so m <= n).  The repeat check
    counts scattered flags, not reputations: at m = n the row's first entry
    has reputation 0, and a repeat of it must still be seen."""
    rows = np.array(_integer_entries(entries), dtype=np.int64, ndmin=2, copy=None)
    if rows.ndim != 2 or rows.shape[1] > n:
        raise ValueError(f"ranking rows must form a (G, m) block, m within the layer size {n}")
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise ValueError("edge index out of range")
    seen = np.zeros((len(rows), n), dtype=bool)
    for flags, row in zip(seen, rows):  # 1.3-2.5x faster than one 2-D write
        flags[row] = True
    if np.count_nonzero(seen) != rows.size:
        raise ValueError("duplicate edge in ranking")
    return rows


class LayerTally:
    """One layer's vote, fed rankings as they arrive: ``sums`` adds up their
    reputations, each cut to its top keep_count(n, s) entries, entry i of
    an m-long suffix worth (n - m) + i and an omitted edge 0, and
    :meth:`order` sorts them.  Integer sums are exact, so the order and
    grouping of rows never change them.  One ``np.add.at`` over the
    flattened rows adds a block faster than a (G, n) scatter and sum
    (1.1-1.6x for one row, 2.4-2.8x for 25); given a (G, m) index and (m,)
    values, numpy 2.4.6's ``add.at`` sums garbage."""

    def __init__(self, n: int, s: float = 1.0):
        self.sums = np.zeros(n, dtype=np.int64)
        self.cut = n - keep_count(n, s)

    def add(self, rankings) -> None:
        """Add one (n,) ranking or a (G, n) block of them, row c one
        client's, each cut and then checked by :func:`_rank_rows`."""
        rankings = np.asarray(rankings)
        if rankings.shape[-1:] != self.sums.shape:
            raise ValueError("rankings disagree on layer size")
        self.add_suffixes(_rank_rows(rankings[..., self.cut:], len(self.sums)))

    def add_suffixes(self, rows: np.ndarray) -> None:
        """Add checked suffixes, uncut: one row or a (G, m) block."""
        n = len(self.sums)
        reps = np.arange(n - rows.shape[-1], n, dtype=np.int64)
        np.add.at(self.sums, rows.ravel(), np.broadcast_to(reps, rows.shape).ravel())

    def order(self) -> LayerRanking:
        return stable_order(self.sums)  # ties to the lower edge index


def vote(blocks: list) -> tuple[LayerRanking, np.ndarray]:
    """One layer's uncut vote, and its tally, over (n,) rankings and (G, n)
    blocks of them: one :class:`LayerTally` fed each entry of ``blocks``."""
    if not blocks:
        raise ValueError("vote requires at least one ranking")
    tally = LayerTally(np.shape(blocks[0])[-1])
    for block in blocks:
        tally.add(block)
    return tally.order(), tally.sums


def sparse_vote(sparse: list[SparseLayerRanking]) -> tuple[LayerRanking, np.ndarray]:
    """Vote over truncated rankings: a sent edge keeps the reputation it
    held in the full ranking, an omitted edge counts 0."""
    if not sparse:
        raise ValueError("vote requires at least one ranking")
    n = sparse[0].n
    if any(sr.n != n for sr in sparse):
        raise ValueError("sparse rankings disagree on layer size")
    tally = LayerTally(n)
    for sr in sparse:
        tally.add_suffixes(sr.top)
    return tally.order(), tally.sums


def vote_network(rankings: list[NetworkRanking]) -> NetworkRanking:
    """:func:`vote` of each layer; each entry of ``rankings`` holds every
    layer, as one client's (n,) ranking or a cohort's (G, n) block."""
    if not rankings:
        raise ValueError("vote requires at least one ranking")
    return [vote(layer)[0] for layer in zip(*rankings, strict=True)]


def reverse_ranking(r: LayerRanking) -> LayerRanking:
    """Flip a ranking end for end; an edge at reputation j moves to n-1-j."""
    return _integer_entries(r)[::-1].astype(np.int64)


def truncate_ranking(r: LayerRanking, s: float) -> SparseLayerRanking:
    """Keep the top s-fraction of a full ranking.

    ``top`` is a view of the suffix and shares memory with ``r``: a round
    truncates every client's ranking, and a copy would hold each twice.
    """
    r = _integer_entries(r).astype(np.int64, copy=False)
    keep = keep_count(len(r), s)
    return SparseLayerRanking(top=r[len(r) - keep :], n=len(r))


# --- Wire form -------------------------------------------------------------
#
# Per layer: each rank is a fixed-width big-endian unsigned integer of
# w = ceil(log2(n)) bits, packed MSB-first; the final byte is zero-padded.
# The sparse form packs the s kept entries at the same width.
#
# Eight fields of w bits fill exactly w bytes, so the codec works on groups
# of eight entries, held as a (groups, 8) uint64 array.  A group's bytes are
# the first w bytes of ceil(w / 8) big-endian uint64 words.  Encode shifts
# each position into its word (a field that crosses a word boundary leaves
# its low bits at the top of the next word) and ORs each word's positions
# together, one position range per word; the shifts are planned once per
# width.  Decode reads each position's field from the 8 big-endian bytes that
# start at the field's first byte (a field spans at most 39 bits, so they
# hold it whole), then shifts and masks.  Both directions run in blocks of
# _BLOCK entries, so their uint64 arrays stay a fixed size; _BLOCK is a
# multiple of 8, so every block starts on a group.

_BLOCK = 1 << 16


def rank_bit_width(n: int) -> int:
    """Bits per rank entry for a layer of n edges (0 when n == 1)."""
    if not 1 <= n <= 2**32:
        raise ValueError(f"layer must have between 1 and 2**32 edges, got {n}")
    return (n - 1).bit_length()


@functools.cache
def _encode_plan(width: int) -> tuple:
    """Per uint64 word of a group: the positions [lo, hi) with bits in it,
    each one's left shift as a column, and the right shift that keeps the
    high bits of a last position crossing into the next word (0 if none)."""
    plan = []
    for k in range(-(-width // 8)):
        lo, hi = 64 * k // width, min(-(-64 * (k + 1) // width), 8)
        shifts = [64 * (k + 1) - (p + 1) * width for p in range(lo, hi)]
        left = np.array([[max(s, 0)] for s in shifts], dtype=np.uint64)
        plan.append((lo, hi, left, np.uint64(max(-shifts[-1], 0))))
    return tuple(plan)


@functools.cache
def _decode_plan(width: int) -> tuple[np.ndarray, np.ndarray, np.uint64]:
    """Each position's first byte in its group, the right shift that brings
    its field down from the top of the 8 bytes read there, and the mask."""
    first = np.array([p * width // 8 for p in range(8)])
    shifts = np.array([64 - p * width % 8 - width for p in range(8)], dtype=np.uint64)
    return first, shifts, np.uint64((1 << width) - 1)


def encode_entries(entries: np.ndarray, n: int) -> bytes:
    """Pack integer entries of [0, n) as fixed-width MSB-first fields."""
    width = rank_bit_width(n)
    entries = _integer_entries(entries)
    if entries.ndim != 1:
        raise ValueError("entries must be one row")
    plan = _encode_plan(width)
    chunks = []
    for start in range(0, len(entries), _BLOCK):
        block = entries[start:start + _BLOCK]
        fields = np.zeros((-(-len(block) // 8), 8), dtype=np.uint64)
        fields.ravel()[:len(block)] = block  # a negative entry wraps above n
        if fields.max() >= n:
            raise ValueError(f"entry outside [0, {n})")
        words = np.empty((len(fields), len(plan)), dtype=np.uint64)
        for k, (lo, hi, left, right) in enumerate(plan):
            part = np.left_shift(fields[:, lo:hi].T, left, order="C")
            if right:
                part[-1] >>= right
            np.bitwise_or.reduce(part, axis=0, out=words[:, k])
        group_bytes = words.byteswap(inplace=True).view(np.uint8)[:, :width]
        chunks.append(group_bytes.tobytes()[:(width * len(block) + 7) // 8])
    return b"".join(chunks)


def decode_entries(data: bytes, count: int, n: int) -> np.ndarray:
    """Inverse of encode_entries for ``count`` entries; pad bits are ignored."""
    width = rank_bit_width(n)
    if count < 0 or len(data) != (width * count + 7) // 8:
        raise ValueError("encoded ranking has the wrong length")
    first, shifts, mask = _decode_plan(width)
    groups = -(-count // 8)
    buf = np.zeros(groups * width + 8, dtype=np.uint8)  # room to read past the end
    buf[:len(data)] = np.frombuffer(data, dtype=np.uint8)
    # windows[i, j]: the 8 bytes from byte j of group i, one big-endian word
    windows = np.ndarray((groups, first[-1] + 1), dtype=">u8", buffer=buf,
                         strides=(width, 1))
    out = np.empty(count, dtype=np.int64)
    for start in range(0, count, _BLOCK):
        fields = windows[start // 8:(start + _BLOCK) // 8][:, first] >> shifts
        fields &= mask
        out[start:start + _BLOCK] = fields.ravel()[:count - start]
    return out


def encode_layer_ranking(r: LayerRanking) -> bytes:
    return encode_entries(r, len(r))


def decode_layer_ranking(data: bytes, n: int) -> LayerRanking:
    return _rank_rows(decode_entries(data, n, n), n)[0]


def encode_sparse_ranking(sr: SparseLayerRanking) -> bytes:
    return encode_entries(sr.top, sr.n)


def decode_sparse_ranking(data: bytes, s: int, n: int) -> SparseLayerRanking:
    return SparseLayerRanking(top=decode_entries(data, s, n), n=n)
