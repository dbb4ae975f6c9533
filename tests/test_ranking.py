import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import fedrank.ranking as ranking
from fedrank.analytics import ARCH_PRESETS, rank_payload_bits
from fedrank.ranking import (_BLOCK, LayerTally, SparseLayerRanking,
                             argsort_ranking, decode_entries, decode_layer_ranking,
                             decode_sparse_ranking, encode_entries, encode_layer_ranking,
                             encode_sparse_ranking, floor_count, keep_count, rank_bit_width,
                             reorder_scores, reverse_ranking, sparse_vote,
                             stable_order, truncate_ranking, vote, vote_network)
from fedrank.rng import derive

# Worked single-round example: three client rankings over a 6-edge layer
# whose tally and aggregate are known.
R1 = np.array([4, 0, 2, 3, 5, 1])
R2 = np.array([2, 0, 1, 5, 4, 3])
R3 = np.array([0, 2, 5, 3, 4, 1])
TALLY = np.array([2, 12, 3, 11, 8, 9])
AGGREGATE = np.array([0, 2, 4, 5, 3, 1])


# Reference codec: one Python integer holding every field, the first most
# significant, independent of numpy's bit packing.  It is built and split by
# halves, so a block-sized row costs O(bits log bits), not quadratic time.
def bigint_encode(entries, n):
    width = (n - 1).bit_length()

    def join(vals):
        if len(vals) <= 64:
            acc = 0
            for v in vals:
                acc = (acc << width) | v
            return acc
        half = len(vals) // 2
        return (join(vals[:half]) << (width * (len(vals) - half))) | join(vals[half:])

    total_bits = width * len(entries)
    pad = (-total_bits) % 8
    acc = join([int(v) for v in entries]) << pad
    return acc.to_bytes((total_bits + pad) // 8, "big")


def bigint_decode(data, count, n):
    width = (n - 1).bit_length()
    out = np.empty(count, dtype=np.int64)

    def split(acc, lo, hi):  # acc holds the fields of entries lo..hi-1
        if hi - lo <= 64:
            for i in range(hi - 1, lo - 1, -1):
                out[i] = acc & ((1 << width) - 1)
                acc >>= width
            return
        mid = (lo + hi) // 2
        low_bits = width * (hi - mid)
        split(acc >> low_bits, lo, mid)
        split(acc & ((1 << low_bits) - 1), mid, hi)

    split(int.from_bytes(data, "big") >> ((-width * count) % 8), 0, count)
    return out


# Sort-based validity rules the linear checks replaced.
def sorted_is_permutation(perm, n):
    perm = np.asarray(perm, dtype=np.int64)
    return perm.shape == (n,) and np.array_equal(np.sort(perm), np.arange(n))


def unique_is_sparse_ranking(top, n):
    top = np.asarray(top, dtype=np.int64)
    return (len(top) <= n and len(np.unique(top)) == len(top)
            and not (len(top) and (top.min() < 0 or top.max() >= n)))


def codec_cases():
    """(n, count) pairs: edge widths, powers of two and their neighbours,
    and random sizes, each with counts from 0 to n; every width up to 32 at
    small counts; and counts around the codec's block size at two widths."""
    rng = derive(61, [])
    sizes = [1, 2, 3]
    for j in range(2, 13):
        sizes += [2**j - 1, 2**j, 2**j + 1]
    sizes += [2 + v for v in rng.integers_below([3000] * 40)]
    cases = []
    for n in sizes:
        cases += [(n, 0), (n, 1), (n, n), (n, rng.integers_below([n + 1])[0])]
    big = 30000 + rng.integers_below([10000])[0]
    cases.append((big, big - rng.integers_below([big // 2])[0]))
    for n in [2**j for j in range(13, 33)] + [2**j + 1 for j in range(13, 32)]:
        cases += [(n, count) for count in (1, 7, 8, 9, 23)]
    for n in (1605632, 2**30 + 7):  # widths 21 and 31: odd counts leave pad bits
        cases += [(n, _BLOCK - 1), (n, _BLOCK), (n, _BLOCK + 1), (n, 2 * _BLOCK + 9)]
    return cases


class TestArgsort:
    def test_sorted_input(self):
        assert argsort_ranking(np.array([10.0, 20.0, 30.0])).tolist() == [0, 1, 2]

    def test_fixture_scores(self):
        scores = np.array([0.6, 1.1, 0.2, 0.3, 1.2, 0.9])
        assert argsort_ranking(scores).tolist() == [2, 3, 0, 5, 1, 4]

    def test_stable_under_ties(self):
        assert argsort_ranking(np.array([5.0, 5.0, 5.0])).tolist() == [0, 1, 2]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            argsort_ranking(np.array([1.0, np.nan]))


class TestStableOrder:
    @staticmethod
    def check(values):
        got = stable_order(values)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.argsort(values, kind="stable")), values

    def test_float32_ties_and_extremes(self):
        f32 = np.finfo(np.float32)
        pool = np.array([-0.0, 0.0, f32.smallest_subnormal, -f32.smallest_subnormal,
                         f32.tiny / 2, -f32.tiny / 2, f32.tiny, f32.max, -f32.max,
                         np.inf, -np.inf, 1.0, -1.0, 0.5], dtype=np.float32)
        rng = derive(66, [])
        for case in range(300):
            n = 1 + rng.integers_below([200])[0]
            choices = 2 if case % 4 == 0 else len(pool)  # every 4th: only -0.0 and +0.0
            self.check(pool[rng.integers_below([choices] * n)])

    def test_int64_ties_with_negatives(self):
        rng = derive(67, [])
        for case in range(200):
            n = 1 + rng.integers_below([300])[0]
            spread = (3, 50, 2**40)[case % 3]
            values = np.array(rng.integers_below([spread] * n), dtype=np.int64) - spread // 2
            self.check(values)
            self.check(values.astype(np.int32))

    def test_sizes_around_powers_of_two(self):
        rng = derive(68, [])
        sizes = [0, 1, 2]
        for j in range(2, 18):
            sizes += [2**j - 1, 2**j + 1]
        for n in sizes:
            self.check((np.array(rng.integers_below([7] * n), dtype=np.float32) - 3) / 2)
            self.check(np.array(rng.integers_below([max(n // 4, 1)] * n), dtype=np.int64))

    def test_float64_ties_and_extremes(self):
        # Keys of float64 leave no room for the index, so these take the
        # argsort and, where it leaves ties, the dense-rank repair.
        f64 = np.finfo(np.float64)
        nans = np.array([0x7FF8000000000001, 0xFFF0000000000001], dtype=np.uint64).view(np.float64)
        pool = np.concatenate([[-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf,
                                f64.smallest_subnormal, -f64.smallest_subnormal, f64.tiny / 2,
                                -f64.tiny / 2, f64.tiny, f64.max, -f64.max,
                                1.0, 1.0 + f64.eps, -1.0, 0.5], nans])
        rng = derive(72, [])
        for case in range(300):
            n = 1 + rng.integers_below([400])[0]
            if case % 3 == 0:  # mostly distinct, a few values repeated
                values = rng.uniform(n, -1.0, 1.0)
                values[rng.integers_below([n] * (n // 20))] = pool[case % len(pool)]
            else:  # every 6th only -0.0 and +0.0, the rest all of the pool
                values = pool[rng.integers_below([2 if case % 6 == 1 else len(pool)] * n)]
            if case % 4 == 0:  # a run of NaNs
                start = rng.integers_below([n])[0]
                values[start:start + 1 + rng.integers_below([n])[0]] = pool[2 + case % 2]
            self.check(values)

    def test_rows_with_and_without_ties(self):
        rng = derive(73, [])
        for case in range(60):
            g, n = 1 + case % 5, 1 + rng.integers_below([500])[0]
            rows = np.array([rng.uniform(n, -3.0, 3.0) for _ in range(g)])
            rows[case % 2::2] = np.round(rows[case % 2::2])  # every other row ties
            self.check(rows)
            self.check(rows.astype(np.float32))

    def test_all_equal_rows(self):
        for n in (1, 2, 3, 300, 5000):
            for value in (0.0, -0.0, np.nan, -np.inf, 1.5):
                self.check(np.full(n, value))
                self.check(np.full((3, n), value, dtype=np.float32))
            self.check(np.full((2, n), -7, dtype=np.int64))

    def test_empty_and_single_entry_rows(self):
        for dtype in (np.float64, np.float32, np.int64, np.uint64):
            for shape in ((3, 0), (0,), (1,), (3, 1), (0, 4)):
                self.check(np.zeros(shape, dtype=dtype))
        self.check(np.array([np.nan]))

    def test_bool_keys_and_rejected_dtypes(self):
        self.check(np.array(derive(74, []).integers_below([2] * 200), dtype=bool))
        for dtype in (np.float16, np.longdouble, np.complex128, object):
            with pytest.raises(TypeError):
                stable_order(np.ones(3, dtype=dtype))

    def test_wide_keys_and_float32_nan(self):
        rng = derive(69, [])
        # float64 values a float32 key would merge: the argsort with ties
        self.check(1.0 + np.array(rng.integers_below([4] * 500)) * 1e-12)
        # width 2 leaves 62 key bits: a range of 2**62 - 1 is packed, 2**62
        # and wider take the argsort
        for lo, hi in ((-2**61, 2**61 - 1), (-2**61, 2**61), (-2**63, 2**63 - 1)):
            self.check(np.array([hi, lo, hi, lo], dtype=np.int64))
        self.check(np.array([2**64 - 1, 0, 2**64 - 1], dtype=np.uint64))
        # a float32 NaN keys above +inf and stays packed
        self.check(np.array([1.0, np.nan, -1.0, np.nan, 0.0, np.inf], dtype=np.float32))

    def test_votes_return_stable_order_of_their_tally(self):
        rng = derive(70, [])
        for trial in range(30):
            n = 2 + trial * 7
            rankings = [rng.sample_without_replacement(n, n) for _ in range(1 + trial % 4)]
            result, tally = vote(rankings)
            assert np.array_equal(result, np.argsort(tally, kind="stable"))
            sparse = [truncate_ranking(r, 0.2) for r in rankings]
            result, tally = sparse_vote(sparse)
            assert np.array_equal(result, np.argsort(tally, kind="stable"))

    def test_argsort_ranking_same_for_float32_and_float64(self):
        rng = derive(71, [])
        for n in (1, 2, 17, 1000):
            x = (np.array(rng.integers_below([9] * n), dtype=np.float32) - 4) * np.float32(0.1)
            x[::5] = -0.0
            assert np.array_equal(argsort_ranking(x), argsort_ranking(x.astype(np.float64)))


class TestReorder:
    def test_fixture_roundtrip(self):
        sorted_vals = np.array([0.2, 0.3, 0.6, 0.9, 1.1, 1.2])
        ranking = np.array([2, 3, 0, 5, 1, 4])
        out = reorder_scores(sorted_vals, ranking)
        assert np.allclose(out, [0.6, 1.1, 0.2, 0.3, 1.2, 0.9])

    def test_identity_ranking(self):
        vals = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(reorder_scores(vals, np.array([0, 1, 2])), vals)

    def test_roundtrip_property(self):
        rng = derive(101, [])
        for trial in range(30):
            n = 2 + trial
            vals = np.sort(rng.uniform(n))
            perm = rng.sample_without_replacement(n, n)
            assert np.array_equal(argsort_ranking(reorder_scores(vals, perm)), perm)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            reorder_scores(np.array([1.0, 2.0]), np.array([0, 1, 2]))

    def test_unsorted_values_rejected(self):
        with pytest.raises(ValueError):
            reorder_scores(np.array([2.0, 1.0]), np.array([0, 1]))

    def test_sortedness_on_the_native_dtype(self):
        # the float64 np.diff rule this check replaced, on the values it
        # agrees on: NaN, signed zeros and infinities
        inf, nan = np.inf, np.nan
        rows = [[nan, 1.0], [1.0, nan], [-0.0, 0.0], [0.0, -0.0], [inf, inf],
                [-inf, inf], [inf, -inf], [1.0, inf, nan, 0.5], [-inf, -inf, 2.0]]
        for row in rows:
            for dtype in (np.float32, np.float64):
                values = np.array(row, dtype=dtype)
                with np.errstate(invalid="ignore"):  # inf - inf
                    old = bool(np.any(np.diff(values.astype(np.float64)) < 0))
                assert self._rejects(values) == old, (row, dtype)
        # above 2**53 a float64 copy rounds both values to the same number
        assert self._rejects(np.array([2**53 + 1, 2**53], dtype=np.int64))
        assert not self._rejects(np.array([2**53, 2**53 + 1], dtype=np.int64))

    @staticmethod
    def _rejects(values):
        try:
            reorder_scores(values, np.arange(len(values)))
        except ValueError:
            return True
        return False


class TestVote:
    def test_worked_example(self):
        result, tally = vote([R1, R2, R3])
        assert tally.tolist() == TALLY.tolist()
        assert result.tolist() == AGGREGATE.tolist()

    def test_single_voter(self):
        result, tally = vote([R1])
        assert np.array_equal(result, R1)
        assert np.array_equal(tally, np.argsort(R1))

    def test_unanimous(self):
        result, tally = vote([R1, R1, R1])
        assert np.array_equal(result, R1)
        assert np.array_equal(tally, 3 * np.argsort(R1))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            vote([np.array([0, 0, 2])])

    def test_order_invariance(self):
        a, ta = vote([R1, R2, R3])
        b, tb = vote([R3, R1, R2])
        assert np.array_equal(a, b) and np.array_equal(ta, tb)

    def test_output_is_permutation_and_tally_conserved(self):
        rng = derive(55, [])
        for trial in range(20):
            n = 3 + trial % 7
            c = 1 + trial % 5
            rankings = [rng.sample_without_replacement(n, n) for _ in range(c)]
            result, tally = vote(rankings)
            assert sorted(result.tolist()) == list(range(n))
            assert tally.sum() == c * n * (n - 1) // 2

    def test_unanimity_on_best_edge(self):
        # every client ranks edge 0 last -> edge 0 ends last in the output
        rng = derive(56, [])
        for _ in range(10):
            rankings = []
            for _ in range(4):
                rest = 1 + rng.sample_without_replacement(5, 5)
                rankings.append(np.concatenate([rest, [0]]))
            result, _ = vote(rankings)
            assert result[-1] == 0


class TestSparseVote:
    def test_single_client_reputations(self):
        result, tally = sparse_vote([SparseLayerRanking(top=np.array([3, 5, 1]), n=6)])
        assert tally.tolist() == [0, 5, 0, 3, 0, 4]
        # ranked by tally with ties to the lower edge index
        assert result.tolist() == [0, 2, 4, 3, 5, 1]

    def test_degenerate_sparsity_matches_full_vote(self):
        rng = derive(57, [])
        for _ in range(10):
            n = 5 + rng.integers_below([6])[0]
            rankings = [rng.sample_without_replacement(n, n) for _ in range(3)]
            full_result, full_tally = vote(rankings)
            sparse = [SparseLayerRanking(top=r, n=n) for r in rankings]
            sparse_result, sparse_tally = sparse_vote(sparse)
            assert np.array_equal(full_result, sparse_result)
            assert np.array_equal(full_tally, sparse_tally)

    def test_two_clients_hand_example(self):
        tops = [SparseLayerRanking(top=np.array([2, 3]), n=4),
                SparseLayerRanking(top=np.array([3, 2]), n=4)]
        result, tally = sparse_vote(tops)
        assert tally.tolist() == [0, 0, 5, 5]
        assert result.tolist() == [0, 1, 2, 3]

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            SparseLayerRanking(top=np.array([1, 1]), n=4)

    def test_non_integer_top_rejected(self):
        for top in (np.array([0.7, 2.2]), np.array([True, False]), [0.0, 1.0]):
            with pytest.raises(ValueError, match="integers"):
                SparseLayerRanking(top=top, n=6)
        # a float ranking is not cast to int64 before it is cut or reversed
        for ranking in (np.array([0.9, 1.7, 2.2, 3.4]), np.array([True, False])):
            for cut_or_flip in (lambda r: truncate_ranking(r, 1.0), reverse_ranking):
                with pytest.raises(ValueError, match="integers"):
                    cut_or_flip(ranking)
        empty = SparseLayerRanking(top=np.zeros(0), n=6)
        assert empty.top.dtype == np.int64 and empty.top.size == 0

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            sparse_vote([SparseLayerRanking(top=np.array([0]), n=3),
                         SparseLayerRanking(top=np.array([0]), n=4)])

    def test_truncate_is_a_view_of_the_suffix(self):
        # A round truncates every client's ranking; a copy would hold each twice.
        r = R1.astype(np.int64)
        for s, keep in ((0.5, 3), (1.0, 6)):
            top = truncate_ranking(r, s).top
            assert np.shares_memory(top, r) and top.tolist() == R1[6 - keep:].tolist()


def _oracle_vote(rankings):
    """Reference vote: each full ranking adds its inverse permutation
    (edge -> position) to the tally."""
    n = len(rankings[0])
    tally = np.zeros(n, dtype=np.int64)
    for r in rankings:
        r = np.asarray(r, dtype=np.int64)
        inv = np.empty(len(r), dtype=np.int64)
        inv[r] = np.arange(len(r), dtype=np.int64)
        tally += inv
    return np.argsort(tally, kind="stable"), tally


def _oracle_sparse_vote(sparse):
    """Reference sparse vote: entry i of an s-long suffix adds (n - s) + i."""
    n = sparse[0].n
    tally = np.zeros(n, dtype=np.int64)
    for sr in sparse:
        s = len(sr.top)
        tally[sr.top] += (n - s) + np.arange(s, dtype=np.int64)
    return np.argsort(tally, kind="stable"), tally


class TestOneTally:
    """vote and sparse_vote share one tally; both match their old forms."""

    SIZES = sorted({1, 2, 3} | {2**j + d for j in range(2, 11) for d in (-1, 1)})

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_old_votes(self, n):
        gen = np.random.default_rng(n)
        perms = [gen.permutation(n) for _ in range(25)]
        for count in range(1, 26):
            rankings = perms[:count]
            for got, want in zip(vote(rankings), _oracle_vote(rankings)):
                assert got.dtype == np.int64 and np.array_equal(got, want)
            for keep in (1, n):
                sparse = [SparseLayerRanking(top=r[n - keep:], n=n) for r in rankings]
                for got, want in zip(sparse_vote(sparse), _oracle_sparse_vote(sparse)):
                    assert np.array_equal(got, want)
                if keep == n:
                    assert np.array_equal(sparse_vote(sparse)[1], _oracle_vote(rankings)[1])

    @pytest.mark.parametrize("bad", [np.array([0, 1]), np.array([0, 1, 1, 3]),
                                     np.array([0, 1, 2, 4]), np.array([-1, 0, 1, 2]),
                                     np.array([0.5, 1.9, 2.2, 3.0]),
                                     np.array([True, False, True, False])])
    def test_vote_rejects_non_permutation(self, bad):
        with pytest.raises(ValueError):
            vote([np.array([3, 2, 1, 0]), bad])

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 129, 800])
    def test_cohort_blocks_match_old_sparse_vote(self, n):
        # A round's clients arrive as (G, n) cohort blocks, one row each;
        # however the 25 rows are split into blocks (one lone (n,) ranking
        # included), the tally and the order are the per-client ones.
        gen = np.random.default_rng(300 + n)
        perms = np.array([gen.permutation(n) for _ in range(25)])
        for s in (1.0, 0.5, 0.1):
            keep = keep_count(n, s)
            want = _oracle_sparse_vote([SparseLayerRanking(top=r[n - keep:], n=n)
                                        for r in perms])
            for size in (1, 2, 7, 24, 25):
                blocks = [perms[i:i + size] for i in range(0, 25, size)]
                if size == 24:
                    blocks[-1] = blocks[-1][0]  # the 25th client as a plain ranking
                if s == 1.0:
                    assert np.array_equal(vote_network([[b] for b in blocks])[0], want[0])
                cut, uncut = LayerTally(n, s), LayerTally(n)
                for b in blocks:
                    cut.add(b)
                    uncut.add_suffixes(b.reshape(-1, n)[:, n - keep:])
                for got in ((cut.order(), cut.sums), (uncut.order(), uncut.sums)):
                    for g, w in zip(got, want):
                        assert np.array_equal(g, w)

    @pytest.mark.parametrize("bad, match", [
        ("float", "integers"), ("bool", "integers"), ("above", "out of range"),
        ("negative", "out of range"), ("duplicate", "duplicate"),
        ("duplicate_of_lowest", "duplicate"), ("width", "layer size"),
        ("long", "layer size"), ("ndim", "layer size")])
    def test_vote_network_checks_every_row_of_a_block(self, bad, match):
        """One table of bad rows against every entry that takes ranking rows
        from outside: both votes and the layer tally, given the rows one by
        one and as a block; SparseLayerRanking; and both decoders where the bytes can carry the
        fault (at n = 6 a 3-bit field holds 6 and 7, so the bad rows are
        packed as if n were 8)."""
        n = 6
        block = np.array([np.roll(np.arange(n), c) for c in range(4)])
        first = block[:1].copy()
        vote_network([[first], [block]])  # the good blocks are voted
        if bad == "float":
            block = block.astype(np.float64)
        elif bad == "bool":
            block = block < n // 2
        elif bad == "above":
            block[2, 3] = n
        elif bad == "negative":
            block[3, 0] = -1
        elif bad == "duplicate":
            block[2, 4] = block[2, 1]  # inside the third row of four
        elif bad == "duplicate_of_lowest":
            # At s = n the lowest-ranked edge's reputation is 0, so a count
            # of nonzero reputations cannot see it repeated.
            block[1, 5] = block[1, 0]
        elif bad == "width":
            block = block[:, 1:]
        elif bad == "long":
            block = np.concatenate([block, block[:, :1]], axis=1)
        else:
            block = block[None]
        rows = list(block) if block.ndim == 2 else [block]
        entries = [lambda: vote_network([[first], [block]]),
                   lambda: vote_network([[first[0]]] + [[row] for row in rows]),
                   lambda: vote([first[0], block]),
                   lambda: vote([first[0], *rows]),
                   lambda: LayerTally(n).add(block),
                   lambda: [LayerTally(n).add(row) for row in rows]]
        if bad != "width":  # a row shorter than the layer is a valid suffix
            entries.append(lambda: [SparseLayerRanking(top=row, n=n) for row in rows])
        if bad in ("above", "duplicate", "duplicate_of_lowest", "long"):
            packed = [(encode_entries(row, 8), len(row)) for row in rows]
            entries.append(lambda: [decode_sparse_ranking(d, c, n) for d, c in packed])
            if bad != "long":  # a full ranking's byte count fixes its length
                entries.append(lambda: [decode_layer_ranking(d, n) for d, _ in packed])
        for entry in entries:
            with pytest.raises(ValueError, match=match):
                entry()

    def test_vote_network_rejects_ragged_submissions(self):
        # zip would drop the layer the second submission leaves out
        a, b = np.arange(6), np.arange(4)
        with pytest.raises(ValueError):
            vote_network([[a, b], [a]])
        with pytest.raises(ValueError):
            vote_network([[a], [a, b]])

    def test_vote_network_rejects_no_submissions(self):
        with pytest.raises(ValueError, match="at least one"):
            vote_network([])

    def test_vote_network_votes_each_layer_through_vote(self, monkeypatch):
        # vote is the one per-layer vote, looked up on the module at call
        # time, so a wrapper on ranking.vote sees every layer's vote.
        calls = []

        def counting(blocks):
            calls.append([np.shape(b) for b in blocks])
            return vote(blocks)

        monkeypatch.setattr(ranking, "vote", counting)
        gen = np.random.default_rng(7)
        cohort = [np.array([gen.permutation(n) for _ in range(3)]) for n in (12, 5)]
        lone = [gen.permutation(12), gen.permutation(5)]
        got = vote_network([cohort, lone])
        assert calls == [[(3, 12), (12,)], [(3, 5), (5,)]]
        for layer, result in enumerate(got):
            assert np.array_equal(result, vote([cohort[layer], lone[layer]])[0])


class TestReverse:
    def test_list_reversal(self):
        assert reverse_ranking(R1).tolist() == [1, 5, 3, 2, 0, 4]

    def test_involution(self):
        assert np.array_equal(reverse_ranking(reverse_ranking(R1)), R1)

    def test_reputation_flip(self):
        rng = derive(58, [])
        for _ in range(10):
            n = 4 + rng.integers_below([5])[0]
            perm = rng.sample_without_replacement(n, n)
            rep = np.argsort(perm)
            rep_rev = np.argsort(reverse_ranking(perm))
            assert np.array_equal(rep_rev, n - 1 - rep)


class TestTopEdges:
    """The subnetwork at fraction k is the ranking's suffix of keep_count edges."""

    def test_keep_count_matches_exact_arithmetic(self):
        # In floating point ceil(0.55 * 100) is 56 and floor(0.29 * 100) is 28.
        sizes = sorted({n for layers in ARCH_PRESETS.values() for n in layers})
        for j in range(101):
            k, exact = j / 100, Fraction(j, 100)
            for n in [*range(1001), *sizes]:
                assert keep_count(n, k) == n - ((1 - exact) * n).__floor__(), (j, n)
                assert floor_count(n, k) == (exact * n).__floor__(), (j, n)

    def test_consistent_with_mask_support(self):
        from fedrank.nn import mask_layer
        rng = derive(60, [])
        for trial in range(20):
            n = 4 + trial
            scores = rng.uniform(n)
            k = (trial % 9 + 1) / 10
            support = {int(i) for i in np.flatnonzero(mask_layer(scores, k))}
            assert set(truncate_ranking(argsort_ranking(scores), k).top.tolist()) == support


class TestWireEncoding:
    def test_bit_width(self):
        assert rank_bit_width(1) == 0
        assert rank_bit_width(2) == 1
        assert rank_bit_width(6) == 3
        assert rank_bit_width(8) == 3
        assert rank_bit_width(9) == 4
        assert rank_bit_width(2**32) == 32
        for n in (0, 2**32 + 1):
            with pytest.raises(ValueError):
                rank_bit_width(n)

    def test_known_bytes(self):
        # independent oracle: concatenate 3-bit big-endian fields
        bits = "".join(f"{v:03b}" for v in R1.tolist())
        bits += "0" * (-len(bits) % 8)
        expected = int(bits, 2).to_bytes(len(bits) // 8, "big")
        assert encode_layer_ranking(R1) == expected

    def test_roundtrip(self):
        rng = derive(59, [])
        for n in [1, 2, 3, 6, 17, 64, 100]:
            perm = rng.sample_without_replacement(n, n)
            data = encode_layer_ranking(perm)
            assert len(data) == (rank_bit_width(n) * n + 7) // 8
            assert np.array_equal(decode_layer_ranking(data, n), perm)

    def test_sparse_roundtrip(self):
        sr = truncate_ranking(R1, 0.5)
        assert sr.top.tolist() == [3, 5, 1]
        data = encode_sparse_ranking(sr)
        back = decode_sparse_ranking(data, 3, 6)
        assert np.array_equal(back.top, sr.top) and back.n == 6

    def test_upload_is_fraction_of_full(self):
        full = encode_layer_ranking(R1)
        half = encode_sparse_ranking(truncate_ranking(R1, 0.5))
        assert len(half) < len(full)

    def test_decode_rejects_bad_length(self):
        with pytest.raises(ValueError):
            decode_layer_ranking(b"\x00", 6)

    def test_matches_bigint_oracle(self):
        rng = derive(62, [])
        for n, count in codec_cases():
            entries = (rng.next_u64(count) % np.uint64(n)).astype(np.int64)
            data = encode_entries(entries, n)
            assert data == bigint_encode(entries, n), (n, count)
            assert np.array_equal(decode_entries(data, count, n), entries), (n, count)

    def test_decode_random_bytes_matches_oracle(self):
        rng = derive(63, [])
        for n, count in codec_cases():
            size = (rank_bit_width(n) * count + 7) // 8
            raw = (rng.next_u64(size) & np.uint64(0xFF)).astype(np.uint8)
            if size:
                raw[-1] |= 1  # a set pad bit whenever the last byte has one
            data = raw.tobytes()
            assert np.array_equal(decode_entries(data, count, n),
                                  bigint_decode(data, count, n)), (n, count)

    def test_out_of_range_entry_rejected(self):
        # 9 needs 4 bits; at width 3 it would spill into the field before it
        with pytest.raises(ValueError, match=r"\[0, 6\)"):
            encode_entries(np.array([0, 9, 1]), 6)
        with pytest.raises(ValueError, match=r"\[0, 6\)"):
            encode_entries(np.array([0, -1, 1]), 6)
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            encode_entries(np.array([1]), 1)

    def test_non_integer_entries_rejected(self):
        for entries in (np.array([0.5, 5.9]), np.array([True, False]),
                        np.array([1.0, 2.0], dtype=np.float32)):
            with pytest.raises(ValueError, match="integers"):
                encode_entries(entries, 6)
        for dtype in (np.float64, bool, np.int8, np.uint64):
            assert encode_entries(np.zeros(0, dtype=dtype), 6) == b""
        # every integer dtype encodes as int64 does, a negative one rejected
        entries = np.array([5, 0, 3, 1])
        for dtype in (np.int8, np.uint8, np.int32, ">i4", np.uint64):
            assert encode_entries(entries.astype(dtype), 6) == encode_entries(entries, 6)
        with pytest.raises(ValueError, match=r"\[0, 6\)"):
            encode_entries(np.array([2, -3], dtype=np.int8), 6)

    def test_paper_size_layer(self):
        n = max(ARCH_PRESETS["lenet-mnist"])
        assert n == 1605632
        perm = argsort_ranking(derive(64, []).uniform(n))
        sr = truncate_ranking(perm, 0.1)
        s = len(sr.top)
        tracemalloc.start()
        try:
            full = encode_layer_ranking(perm)
            part = encode_sparse_ranking(sr)
            back = decode_layer_ranking(full, n)
            back_sparse = decode_sparse_ranking(part, s, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(full) == -(-rank_payload_bits([n]) // 8)
        assert len(part) == -(-rank_payload_bits([n]) * s // (8 * n))
        assert np.array_equal(back, perm)
        assert np.array_equal(back_sparse.top, sr.top) and back_sparse.n == n
        # the wire bytes themselves: any change to them is a protocol change
        assert hashlib.sha256(full).hexdigest() == (
            "c5bff246aa53ab84f8413c591267c95a4f94e1fa08b871b09f2271280d12c999")
        assert hashlib.sha256(part).hexdigest() == (
            "c4ccf54424690dd62930374e7943012a97a37076b6d3c51b5fea1b7021c23279")
        # transient memory stays linear: the peak also holds both encodings
        # and both decoded rankings, about 12 bytes per edge
        assert peak <= 32 * n

    def test_checks_reject_what_the_sorts_rejected(self):
        rng = derive(65, [])
        n = 7
        perm = rng.sample_without_replacement(n, n)
        bad = [perm[:-1], np.append(perm, 0), perm.reshape(1, 1, n),
               np.where(perm == 0, n, perm), np.where(perm == 0, -1, perm),
               np.where(perm == 0, 1, perm)]
        bad += [np.array(rng.integers_below([n + 2] * n)) - 1 for _ in range(200)]
        for p in [perm] + bad:
            assert sorted_is_permutation(p, n) == self._accepts(
                lambda q, m: vote([np.arange(m), q]), p, n), p
        tops = [perm[:3], np.append(perm, 0), np.array([0, n]), np.array([-1, 2]),
                np.array([2, 2]), np.zeros(0, np.int64)]
        tops += [np.array(rng.integers_below([n + 2] * (1 + i % n))) - 1 for i in range(200)]
        for top in tops:
            assert unique_is_sparse_ranking(top, n) == self._accepts(
                lambda t, m: SparseLayerRanking(top=t, n=m), top, n), top
        with pytest.raises(ValueError):
            SparseLayerRanking(top=np.array([[0], [1]]), n=n)

    @staticmethod
    def _accepts(check, entries, n) -> bool:
        try:
            check(entries, n)
        except ValueError:
            return False
        return True
