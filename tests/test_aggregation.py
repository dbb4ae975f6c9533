import hashlib
import tracemalloc

import numpy as np
import pytest

from fedrank import aggregation
from fedrank.aggregation import (LEAF, average, multi_krum, multi_krum_select,
                                 sign_majority, squared_distances, trimmed_mean)
from fedrank.rng import derive


def updates_from(rows):
    return [np.asarray(r, dtype=float) for r in rows]


def ids_for(updates):
    return list(range(len(updates)))


# brute-force oracles

def oracle_trimmed_mean(rows, f):
    mat = np.asarray(rows, dtype=float)
    out = []
    for d in range(mat.shape[1]):
        col = sorted(mat[:, d].tolist())
        col = col[f : len(col) - f] if f else col
        out.append(sum(col) / len(col))
    return np.array(out)


def oracle_krum_scores(rows, f):
    mat = np.asarray(rows, dtype=float)
    n = len(mat)
    scores = []
    for i in range(n):
        dists = sorted(float(np.sum((mat[i] - mat[j]) ** 2))
                       for j in range(n) if j != i)
        scores.append(sum(dists[: n - f - 2]))
    return scores


def oracle_multi_krum_select(updates, ids, f):
    """multi_krum_select as one function, before selection took a matrix."""
    n = len(updates)
    if n < f + 3:
        raise ValueError(f"multi-krum needs at least f + 3 = {f + 3} updates, got {n}")
    sq = squared_distances(np.stack(updates))
    closest = n - f - 2
    scores = np.empty(n)
    for i in range(n):
        others = np.delete(sq[i], i)
        scores[i] = np.sort(others)[:closest].sum()
    order = np.lexsort((np.asarray(ids), scores))
    return sorted(int(i) for i in order[: n - f])


def oracle_squared_distances(rows):
    """The n x n matrix one np.sum per pair, as multi-krum once built it."""
    n = len(rows)
    sq = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            sq[i, k] = sq[k, i] = np.sum((rows[i] - rows[k]) ** 2)
    return sq


# The exact rules copy numpy's summation order; a numpy that changes it
# fails these checks under its own version number.
NUMPY = f"numpy {np.__version__}"


class TestExactSums:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("d", [1, 7, 127, 128, 129, LEAF - 1, LEAF, LEAF + 1, 20001, 159010])
    def test_squared_distances_match_per_pair_sums(self, d):
        rng = derive(71, [d])
        for n in (1, 2, 3, 25):
            rows = rng.normal(n * d).reshape(n, d)
            rows[0, 0] = -0.0
            if n == 25:
                rows[1, d // 2] = rows[2, d // 2] = np.inf  # inf - inf is NaN
                rows[3, d - 1] = np.nan
                rows[4, 0] = -np.inf
            for scale in 10.0 ** np.arange(-3, 4):
                scaled = rows * scale
                want = oracle_squared_distances(scaled).tobytes()
                for form in (list(scaled), scaled):
                    assert squared_distances(form).tobytes() == want, \
                        f"d={d} n={n} scale={scale} {type(form).__name__}, {NUMPY}"

    def test_average_matches_stacked_mean(self):
        rng = derive(72, [])
        for n in (1, 2, 3, 8, 25):
            for d in (2, 3, 129, 20001):
                rows = rng.normal(n * d).reshape(n, d) * 10.0 ** (rng.integers_below([7])[0] - 3)
                rows[:, 0] = -0.0  # the stacked mean of -0.0s is 0.0
                rows[n // 2, 1] = np.inf
                want = np.stack(rows).mean(axis=0).tobytes()
                for form in (list(rows), rows):
                    assert average(form).tobytes() == want, f"n={n} d={d}, {NUMPY}"


def test_multi_krum_holds_no_stack():
    # The mid-size 784-200-10 MLP's 159,010 parameters, 25 clients a round:
    # an n x d stack alone would be 25 rows.
    rows = list(derive(73, []).normal(25 * 159010).reshape(25, 159010))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        multi_krum(rows, ids_for(rows), 5)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 3 * rows[0].nbytes


def test_squared_distances_sizes_buffers_to_the_widest_leaf():
    # At d = 159,010 the widest leaf is 4,978 columns, so the stacked leaf
    # and its differences take 49 x 4,978 entries, 1.53 rows; buffers LEAF
    # columns wide would take 2.52.
    rows = list(derive(74, []).normal(25 * 159010).reshape(25, 159010))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        squared_distances(rows)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2 * rows[0].nbytes


def test_leaf_buffers_start_on_a_cache_line():
    for size in (1, 7, 4978, 25 * 4978):
        buf = aggregation._line_aligned(size)
        assert buf.shape == (size,) and buf.ctypes.data % 64 == 0


@pytest.mark.parametrize("widths", [(3, 3, 1, 3), (3, 3, 4, 3)], ids=["short", "long"])
def test_ragged_rows_rejected(widths):
    # a one-entry row would broadcast and a longer one slice without the check
    u = [np.arange(w, dtype=float) for w in widths]
    for rule in (lambda: multi_krum_select(u, ids_for(u), 1), lambda: multi_krum(u, ids_for(u), 1),
                 lambda: average(u), lambda: sign_majority(u), lambda: trimmed_mean(u, 1)):
        with pytest.raises(ValueError, match="same shape"):
            rule()


class TestAverage:
    def test_simple(self):
        assert average(updates_from([[1, 2], [3, 4]])).tolist() == [2.0, 3.0]

    def test_single(self):
        assert average(updates_from([[5, -1]])).tolist() == [5.0, -1.0]

    def test_copies(self):
        u = updates_from([[1.5, 2.5]] * 4)
        assert average(u).tolist() == [1.5, 2.5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average([])


class TestTrimmedMean:
    def test_drops_extremes(self):
        u = updates_from([[1], [2], [3], [100]])
        assert trimmed_mean(u, 1).tolist() == [2.5]

    def test_f_zero_is_average(self):
        u = updates_from([[1, 5], [3, 7], [5, 9]])
        assert np.array_equal(trimmed_mean(u, 0), average(u))

    @pytest.mark.parametrize("f", [0, 2])
    def test_stacks_once(self, f, monkeypatch):
        rows = derive(63, []).uniform(25 * 40, -1, 1).reshape(25, 40)
        u = updates_from(rows)
        want = trimmed_mean(u, f).tobytes()
        stacked = []
        stack = aggregation._stack

        def spy(updates):
            stacked.append(len(updates))
            return stack(updates)

        monkeypatch.setattr(aggregation, "_stack", spy)
        assert trimmed_mean(u, f).tobytes() == want
        assert stacked == [25]
        if f == 0:
            assert want == average(u).tobytes()

    def test_matches_oracle(self):
        rng = derive(61, [])
        rows = rng.uniform(5 * 3, -10, 10).reshape(5, 3)
        result = trimmed_mean(updates_from(rows), 1)
        assert np.allclose(result, oracle_trimmed_mean(rows, 1))

    def test_too_few_updates_rejected(self):
        with pytest.raises(ValueError):
            trimmed_mean(updates_from([[1], [2]]), 1)

    def test_within_envelope(self):
        rng = derive(62, [])
        rows = rng.uniform(7 * 4, -5, 5).reshape(7, 4)
        result = trimmed_mean(updates_from(rows), 2)
        assert np.all(result >= rows.min(axis=0)) and np.all(result <= rows.max(axis=0))


class TestMultiKrum:
    def test_outlier_excluded_1d(self):
        u = updates_from([[1.0], [1.1], [0.9], [10.0]])
        selected = multi_krum_select(u, ids_for(u), 1)
        assert selected == [0, 1, 2]
        assert multi_krum(u, ids_for(u), 1)[0] == pytest.approx(1.0)

    def test_identical_updates(self):
        u = updates_from([[2.0, -1.0]] * 5)
        assert np.allclose(multi_krum(u, ids_for(u), 1), [2.0, -1.0])

    def test_far_outlier_never_selected(self):
        rng = derive(63, [])
        for trial in range(10):
            pts = rng.uniform(5 * 2, -1, 1).reshape(5, 2)
            pts[4] = [50.0 + trial, -40.0]
            u = updates_from(pts)
            assert 4 not in multi_krum_select(u, ids_for(u), 1)

    def test_scores_match_oracle(self):
        rng = derive(64, [])
        rows = rng.uniform(6 * 3, -2, 2).reshape(6, 3)
        u = updates_from(rows)
        selected = multi_krum_select(u, ids_for(u), 1)
        scores = oracle_krum_scores(rows, 1)
        expected = sorted(sorted(range(6), key=lambda i: (scores[i], i))[:5])
        assert selected == expected

    def test_distances_match_broadcast_bitwise(self):
        rng = derive(47, [])
        for _ in range(50):
            n = rng.integers_below([12])[0] + 1
            d = rng.integers_below([400])[0] + 1
            scale = 10.0 ** (rng.integers_below([7])[0] - 3)
            mat = rng.normal(n * d).reshape(n, d) * scale
            broadcast = np.sum((mat[:, None, :] - mat[None, :, :]) ** 2, axis=2)
            assert squared_distances(mat).tobytes() == broadcast.tobytes()

    def test_select_from_distances_matches_oracle(self):
        rng = derive(48, [])
        cases = []
        for _ in range(40):
            n = rng.integers_below([9])[0] + 3
            f = rng.integers_below([n - 2])[0]
            rows = rng.normal(n * 5).reshape(n, 5)
            ids = rng.integers_below([100] * n)
            cases.append((rows, ids, f))
        # all scores tie, so the ids alone pick the survivors
        cases.append((np.ones((6, 3)), [5, 4, 3, 2, 1, 0], 2))
        # duplicated rows with ids that repeat across them
        dup = np.repeat(rng.normal(3 * 4).reshape(3, 4), 2, axis=0)
        cases.append((dup, [9, -1, 9, -2, 0, -3], 1))
        # inf and NaN entries make inf and NaN distances
        bad = rng.normal(7 * 4).reshape(7, 4)
        bad[2, 1], bad[5, 0] = np.inf, np.nan
        cases.append((bad, list(range(7)), 2))
        for rows, ids, f in cases:
            u = updates_from(rows)
            assert multi_krum_select(u, ids, f) == oracle_multi_krum_select(u, ids, f)

    @pytest.mark.parametrize("ids, kept", [([10, 11, 13, 12], 3), ([10, 11, 12, 13], 2)])
    def test_score_tie_keeps_the_lower_id_row(self, ids, kept):
        # With f = 1 one row goes.  Each row's score is its squared distance
        # to the nearest peer: 1, 1, 4 and 4, so rows [3] and [-2] tie for
        # last and only the one with the lower client id is averaged.
        u = updates_from([[0.0], [1.0], [3.0], [-2.0]])
        assert multi_krum(u, ids, 1).tobytes() == average([u[0], u[1], u[kept]]).tobytes()

    def test_f_zero_m_n_is_average(self):
        rng = derive(65, [])
        rows = rng.uniform(5 * 2).reshape(5, 2)
        u = updates_from(rows)
        assert np.allclose(multi_krum(u, ids_for(u), 0), average(u))

    def test_precondition(self):
        with pytest.raises(ValueError):
            multi_krum(updates_from([[1], [2], [3]]), [0, 1, 2], 1)
        with pytest.raises(ValueError, match="f \\+ 3 = 4 updates, got 3"):
            multi_krum_select(updates_from([[1], [2], [3]]), [0, 1, 2], 1)

    @pytest.mark.parametrize("ids", [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 5, 6]])
    def test_client_ids_must_match_rows(self, ids):
        u = updates_from(derive(69, []).normal(6 * 3).reshape(6, 3))
        for krum in (multi_krum_select, multi_krum):
            with pytest.raises(ValueError, match=f"{len(ids)} client ids for 6 updates"):
                krum(u, ids, 1)

    def test_permutation_invariance(self):
        rng = derive(66, [])
        rows = rng.uniform(6 * 2).reshape(6, 2)
        u = updates_from(rows)
        a = multi_krum(u, ids_for(u), 1)
        b = multi_krum(list(reversed(u)), ids_for(u)[::-1], 1)
        assert np.array_equal(a, b)

    def test_output_within_selected_envelope(self):
        rng = derive(67, [])
        rows = rng.uniform(7 * 3, -4, 4).reshape(7, 3)
        u = updates_from(rows)
        selected = multi_krum_select(u, ids_for(u), 2)
        sel = rows[selected]
        out = multi_krum(u, ids_for(u), 2)
        assert np.all(out >= sel.min(axis=0)) and np.all(out <= sel.max(axis=0))


class TestPermutationInvariance:
    def test_all_aggregators(self):
        rng = derive(68, [])
        rows = rng.uniform(6 * 3).reshape(6, 3)
        u = updates_from(rows)
        rev = list(reversed(u))
        assert np.array_equal(average(u), average(rev))
        assert np.array_equal(trimmed_mean(u, 1), trimmed_mean(rev, 1))
        assert np.array_equal(sign_majority(u), sign_majority(rev))


class TestSignMajority:
    def test_counting(self):
        u = updates_from([[1, -1], [1, 1], [-1, -1]])
        assert sign_majority(u).tolist() == [1, -1]

    def test_single_client(self):
        u = updates_from([[-1, 1, -1]])
        assert sign_majority(u).tolist() == [-1, 1, -1]

    def test_tie_resolves_positive(self):
        u = updates_from([[1, -1], [-1, 1]])
        assert sign_majority(u).tolist() == [1, 1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sign_majority([])

    def test_zero_counts_positive(self):
        assert sign_majority(updates_from([[0.0, -2.0, 3.0]])).tolist() == [1, -1, 1]
        # two zeros outvote one negative
        assert sign_majority(updates_from([[0.0], [-0.0], [-5.0]])).tolist() == [1]

    def test_output_is_int8_signs(self):
        rows = derive(70, []).normal(5 * 50).reshape(5, 50) * 1e-300
        out = sign_majority(updates_from(rows))
        assert out.dtype == np.int8
        assert np.all(np.isin(out, (-1, 1)))


def pin_rows():
    """Six 40-wide rows from derive: a column of zeros and a column whose
    signs tie three to three exercise sign_majority's +1 rules."""
    rows = derive(151, []).normal(6 * 40).reshape(6, 40)
    rows[:, 0] = 0.0
    rows[:3, 1] = 1.0
    rows[3:, 1] = -1.0
    return rows


PIN_IDS = [7, 3, 11, 0, 5, 9]

# SHA-256 of each output's bytes, taken when the rules still took and
# returned update objects.
PINS = {
    "average": "bc9352af6b3336569e8c059cf34769150d92c33e1ffc72f7537071d02f55fdc4",
    "trimmed_mean_f0": "bc9352af6b3336569e8c059cf34769150d92c33e1ffc72f7537071d02f55fdc4",
    "trimmed_mean_f1": "4da4733c7a6d41e80e407713c52ebc3a32b3da7737cc7d5429f7f85fa31cd4b7",
    "multi_krum": "2af6cf5da427cfa0c842f176163299d06609165397eec883be15610c7eca8d1e",
    "sign_majority": "94e4bdd76061bfbabe4220dba1067f8890a39ea6b0912af2c845b4c754b0ad1d",
}


@pytest.mark.parametrize("as_rows", [True, False], ids=["list", "array"])
def test_outputs_pinned(as_rows):
    rows = pin_rows()
    u = list(rows) if as_rows else rows
    out = {
        "average": average(u),
        "trimmed_mean_f0": trimmed_mean(u, 0),
        "trimmed_mean_f1": trimmed_mean(u, 1),
        "multi_krum": multi_krum(u, PIN_IDS, 1),
        "sign_majority": sign_majority(u),
    }
    assert {k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in out.items()} == PINS
