import numpy as np
import pytest

from fedrank.aggregation import (ModelUpdate, SignUpdate, average, multi_krum,
                                 multi_krum_select, select_from_distances,
                                 sign_majority, signs_of, squared_distances,
                                 trimmed_mean)
from fedrank.rng import derive


def updates_from(rows, ids=None):
    ids = ids if ids is not None else range(len(rows))
    return [ModelUpdate(delta=np.asarray(r, dtype=float), client_id=i)
            for r, i in zip(rows, ids)]


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


def oracle_multi_krum_select(updates, f):
    """multi_krum_select as one function, before selection took a matrix."""
    n = len(updates)
    if n < f + 3:
        raise ValueError(f"multi-krum needs at least f + 3 = {f + 3} updates, got {n}")
    sq = squared_distances(np.stack([u.delta for u in updates]))
    closest = n - f - 2
    scores = np.empty(n)
    for i in range(n):
        others = np.delete(sq[i], i)
        scores[i] = np.sort(others)[:closest].sum()
    ids = np.array([u.client_id for u in updates])
    order = np.lexsort((ids, scores))
    return sorted(int(i) for i in order[: n - f])


class TestAverage:
    def test_simple(self):
        assert average(updates_from([[1, 2], [3, 4]])).delta.tolist() == [2.0, 3.0]

    def test_single(self):
        assert average(updates_from([[5, -1]])).delta.tolist() == [5.0, -1.0]

    def test_copies(self):
        u = updates_from([[1.5, 2.5]] * 4)
        assert average(u).delta.tolist() == [1.5, 2.5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average([])


class TestTrimmedMean:
    def test_drops_extremes(self):
        u = updates_from([[1], [2], [3], [100]])
        assert trimmed_mean(u, 1).delta.tolist() == [2.5]

    def test_f_zero_is_average(self):
        u = updates_from([[1, 5], [3, 7], [5, 9]])
        assert np.array_equal(trimmed_mean(u, 0).delta, average(u).delta)

    def test_matches_oracle(self):
        rng = derive(61, [])
        rows = rng.uniform(5 * 3, -10, 10).reshape(5, 3)
        result = trimmed_mean(updates_from(rows), 1).delta
        assert np.allclose(result, oracle_trimmed_mean(rows, 1))

    def test_too_few_updates_rejected(self):
        with pytest.raises(ValueError):
            trimmed_mean(updates_from([[1], [2]]), 1)

    def test_within_envelope(self):
        rng = derive(62, [])
        rows = rng.uniform(7 * 4, -5, 5).reshape(7, 4)
        result = trimmed_mean(updates_from(rows), 2).delta
        assert np.all(result >= rows.min(axis=0)) and np.all(result <= rows.max(axis=0))


class TestMultiKrum:
    def test_outlier_excluded_1d(self):
        u = updates_from([[1.0], [1.1], [0.9], [10.0]])
        selected = multi_krum_select(u, 1)
        assert selected == [0, 1, 2]
        assert multi_krum(u, 1).delta[0] == pytest.approx(1.0)

    def test_identical_updates(self):
        u = updates_from([[2.0, -1.0]] * 5)
        assert np.allclose(multi_krum(u, 1).delta, [2.0, -1.0])

    def test_far_outlier_never_selected(self):
        rng = derive(63, [])
        for trial in range(10):
            pts = rng.uniform(5 * 2, -1, 1).reshape(5, 2)
            pts[4] = [50.0 + trial, -40.0]
            u = updates_from(pts)
            assert 4 not in multi_krum_select(u, 1)

    def test_scores_match_oracle(self):
        rng = derive(64, [])
        rows = rng.uniform(6 * 3, -2, 2).reshape(6, 3)
        u = updates_from(rows)
        selected = multi_krum_select(u, 1)
        scores = oracle_krum_scores(rows, 1)
        expected = sorted(sorted(range(6), key=lambda i: (scores[i], i))[:5])
        assert selected == expected

    def test_distances_match_broadcast_bitwise(self):
        rng = derive(47, [])
        for _ in range(50):
            n = int(rng.integers_below(12)[0]) + 1
            d = int(rng.integers_below(400)[0]) + 1
            scale = 10.0 ** (int(rng.integers_below(7)[0]) - 3)
            mat = rng.normal(n * d).reshape(n, d) * scale
            broadcast = np.sum((mat[:, None, :] - mat[None, :, :]) ** 2, axis=2)
            assert squared_distances(mat).tobytes() == broadcast.tobytes()

    def test_select_from_distances_matches_oracle(self):
        rng = derive(48, [])
        cases = []
        for _ in range(40):
            n = int(rng.integers_below(9)[0]) + 3
            f = int(rng.integers_below(n - 2)[0])
            rows = rng.normal(n * 5).reshape(n, 5)
            ids = [int(i) for i in rng.integers_below(100, n)]
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
            u = updates_from(rows, ids)
            expected = oracle_multi_krum_select(u, f)
            assert select_from_distances(squared_distances(rows), ids, f) == expected
            assert multi_krum_select(u, f) == expected

    def test_f_zero_m_n_is_average(self):
        rng = derive(65, [])
        rows = rng.uniform(5 * 2).reshape(5, 2)
        u = updates_from(rows)
        assert np.allclose(multi_krum(u, 0).delta, average(u).delta)

    def test_precondition(self):
        with pytest.raises(ValueError):
            multi_krum(updates_from([[1], [2], [3]]), 1)
        with pytest.raises(ValueError, match="f \\+ 3 = 4 updates, got 3"):
            select_from_distances(np.zeros((3, 3)), [0, 1, 2], 1)

    def test_permutation_invariance(self):
        rng = derive(66, [])
        rows = rng.uniform(6 * 2).reshape(6, 2)
        u = updates_from(rows)
        a = multi_krum(u, 1).delta
        b = multi_krum(list(reversed(u)), 1).delta
        assert np.array_equal(a, b)

    def test_output_within_selected_envelope(self):
        rng = derive(67, [])
        rows = rng.uniform(7 * 3, -4, 4).reshape(7, 3)
        u = updates_from(rows)
        selected = multi_krum_select(u, 2)
        sel = rows[selected]
        out = multi_krum(u, 2).delta
        assert np.all(out >= sel.min(axis=0)) and np.all(out <= sel.max(axis=0))


class TestPermutationInvariance:
    def test_all_aggregators(self):
        rng = derive(68, [])
        rows = rng.uniform(6 * 3).reshape(6, 3)
        u = updates_from(rows)
        rev = list(reversed(u))
        assert np.array_equal(average(u).delta, average(rev).delta)
        assert np.array_equal(trimmed_mean(u, 1).delta, trimmed_mean(rev, 1).delta)
        su = [signs_of(r.delta) for r in u]
        assert np.array_equal(sign_majority(su).signs,
                              sign_majority(list(reversed(su))).signs)


class TestSignMajority:
    def test_counting(self):
        u = [SignUpdate(np.array([1, -1])), SignUpdate(np.array([1, 1])),
             SignUpdate(np.array([-1, -1]))]
        assert sign_majority(u).signs.tolist() == [1, -1]

    def test_single_client(self):
        u = [SignUpdate(np.array([-1, 1, -1]))]
        assert sign_majority(u).signs.tolist() == [-1, 1, -1]

    def test_tie_resolves_positive(self):
        u = [SignUpdate(np.array([1, -1])), SignUpdate(np.array([-1, 1]))]
        assert sign_majority(u).signs.tolist() == [1, 1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sign_majority([])

    def test_signs_of_zero_maps_positive(self):
        assert signs_of(np.array([0.0, -2.0, 3.0])).signs.tolist() == [1, -1, 1]

    def test_invalid_signs_rejected(self):
        with pytest.raises(ValueError):
            SignUpdate(np.array([0, 1]))
