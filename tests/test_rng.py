import hashlib
import math
import warnings

import numpy as np
import pytest

from fedrank.rng import _PYTHON_WORDS, InitKind, RngStream, derive, init_scores, init_weights


class TestDerive:
    def test_same_seed_same_sequence(self):
        a = derive(7, [1, 2]).next_u64(100)
        b = derive(7, [1, 2]).next_u64(100)
        assert np.array_equal(a, b)

    def test_tag_order_matters(self):
        a = derive(7, [1, 2]).next_u64(1)[0]
        b = derive(7, [2, 1]).next_u64(1)[0]
        assert a != b

    def test_zero_seed_empty_tags(self):
        stream = derive(0, [])
        out = stream.next_u64(10)
        assert len(out) == 10

    def test_distinct_tags_distinct_streams(self):
        outs = {int(derive(5, [t]).next_u64(1)[0]) for t in range(50)}
        assert len(outs) == 50

    def test_child_is_pure_function_of_tags(self):
        parent = derive(9, [4])
        parent.next_u64(17)  # consumption must not affect children
        a = parent.child(1, 2).next_u64(10)
        b = derive(9, [4]).child(1, 2).next_u64(10)
        assert np.array_equal(a, b)


class TestStreamPrimitives:
    def test_uniform_range(self):
        u = derive(3, []).uniform(10000, -2.0, 3.0)
        assert u.min() >= -2.0 and u.max() < 3.0

    def test_normal_moments(self):
        # 1e5 draws: mean within 3 standard errors, std within 2%.
        z = derive(11, [0]).normal(100000)
        assert abs(z.mean()) < 3.0 / math.sqrt(len(z))
        assert abs(z.std() - 1.0) < 0.02

    @pytest.mark.parametrize("n, digest", [
        (1, "e2509df51f92205b0fe17a289867b1f177427adbef7df35687b193b475fce6b7"),
        (2, "80a8de5d346f973967bb39e1925e388e247bedd604621a07a464c6e1a13e6b1c"),
        (3, "b590b9f98c5151b94a9387ccec3214d6490eaa5e9a6c4362869898c6284b97bd"),
        (65535, "0b477b598f076dbdf43f8586daa8cec25c12f9cad2b2957876940641e418949e"),
        (65537, "7d5950b7da9d0541176cde2959f6a2f23b4d4fe17c787ca49f2f00eaf60ea7c7"),
        (1568001, "a51233ab9e281f52a8ac62c8323ffa772548ff331a7b40b2db559ced428eccf5"),
    ])
    def test_normal_pinned(self, n, digest):
        # The draws' bytes, then the word after them: a draw of n reads
        # 2 * ceil(n / 2) words, whatever blocks it computes them in.
        rng = derive(2024, [7, n])
        h = hashlib.sha256(rng.normal(n).astype("<f8").tobytes())
        h.update(rng.next_u64(1).astype("<u8").tobytes())
        assert h.hexdigest() == digest

    def test_integers_below_uniform_and_in_range(self):
        vals = np.array(derive(13, []).integers_below([7] * 20000))
        assert vals.min() >= 0 and vals.max() < 7
        counts = np.bincount(vals, minlength=7)
        assert counts.min() > 20000 / 7 * 0.85

    def test_integers_below_power_of_two(self):
        vals = derive(13, [1]).integers_below([8] * 1000)
        assert set(np.unique(vals)) <= set(range(8))

    def test_sample_without_replacement(self):
        picked = derive(17, []).sample_without_replacement(50, 20)
        assert len(set(picked.tolist())) == 20
        assert picked.min() >= 0 and picked.max() < 50

    def test_sample_all(self):
        picked = derive(17, [1]).sample_without_replacement(10, 10)
        assert sorted(picked.tolist()) == list(range(10))

    def test_shuffle_is_permutation(self):
        arr = np.arange(30)
        derive(19, []).shuffle(arr)
        assert sorted(arr.tolist()) == list(range(30))


def one_draw(rng, b):
    """One integer below ``b`` from ``next_u64`` alone, by the one-value rule:
    a power-of-two ``b`` reads 1 word; any other reads 8 and takes the first
    below ``2**64 - 2**64 % b``, and reads 8 more while all are rejected."""
    limit = (1 << 64) - (1 << 64) % b
    while True:
        for w in rng.next_u64(1 if limit == 1 << 64 else 8).tolist():
            if w < limit:
                return w % b


def per_step_shuffle(rng, items):
    """The scalar Fisher-Yates shuffle the block draws replace."""
    for i in range(len(items) - 1, 0, -1):
        j = one_draw(rng, i + 1)
        items[i], items[j] = items[j], items[i]


def per_step_sample(rng, n_total, k):
    """The scalar sample_without_replacement the block draws replace."""
    arr = np.arange(n_total, dtype=np.int64)
    for i in range(k):
        j = i + one_draw(rng, n_total - i)
        arr[i], arr[j] = arr[j], arr[i]
    return arr[:k].copy()


def assert_same_position(a, b):
    assert a._counter == b._counter
    assert a.next_u64(1)[0] == b.next_u64(1)[0]


class TestBlockDraws:
    """integers_below, shuffle and sample_without_replacement draw all their
    bounded integers in one block; the words, results and stream position
    must be those of one one-value draw per step."""

    def test_words_pinned_without_overflow_warnings(self):
        # The uint64 products wrap; array integer arithmetic never warns.
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            words = derive(123, [4, 5]).next_u64(6)
            first = derive(0, []).next_u64(1)[0]
        assert [int(w) for w in words] == [
            0x34E48A69BDDE78FF, 0xB918FA477E190255, 0xD9E8BD634EFDD415,
            0x3A87B58949283E1E, 0x0BAAE1E1CE3BB70D, 0x4C884864176C808A]
        assert int(first) == 0xE220A8397B1DCDAF

    def test_shuffle_matches_per_step(self):
        case_rng = derive(61, [])
        sizes = [0, 1, 2] * 20 + case_rng.integers_below([80] * 300)
        for case, n in enumerate(sizes):
            want, got = RngStream(case), RngStream(case)
            a = np.arange(n) * 3
            b = a.copy()
            per_step_shuffle(want, a)
            if case % 2:
                b = b.tolist()
                got.shuffle(b)
                assert isinstance(b, list)
            else:
                got.shuffle(b)
            assert list(a) == list(b)
            assert_same_position(want, got)

    def test_sample_matches_per_step(self):
        case_rng = derive(62, [])
        for case in range(360):
            n_total = case % 3 if case < 60 else 1 + case_rng.integers_below([120])[0]
            k = [0, n_total][case % 2] if case < 120 else case_rng.integers_below([n_total + 1])[0]
            want, got = RngStream(case), RngStream(case)
            expected = per_step_sample(want, n_total, k)
            picked = got.sample_without_replacement(n_total, k)
            assert picked.dtype == np.int64
            assert np.array_equal(expected, picked)
            assert_same_position(want, got)

    def test_multi_draw_reads_what_one_draws_read(self):
        rng = RngStream(5)
        assert rng.integers_below([7, 7, 7]) == [3, 6, 5]
        assert rng._counter == 24
        with pytest.raises(ValueError):
            rng.integers_below([3, 0])

    def test_rejections_match_one_draws(self):
        # Near 2**63 + 1 about half of all words are rejected, so many steps
        # reject their first word and some reject a whole slot of 8.  A
        # block of more than _PYTHON_WORDS steps computes its first words
        # with the vectorized finalizer, a shorter one word by word; a
        # whole-slot rejection starts a new block with the steps left.  The
        # short and the long lists meet both kinds of rejection on both sides.
        first_rejected = {False: 0, True: 0}  # by whether the block was vectorized
        whole_slot = {False: 0, True: 0}
        for case in range(600):
            steps = 1 + case % 9 if case < 300 else _PYTHON_WORDS + 4 + case % 25
            bounds = [2**63 + 1 + case % 7 if j % 3 else 2 + j for j in range(steps)]
            want, got = RngStream(case), RngStream(case)
            words = RngStream(case).next_u64(8 * steps + 200).tolist()
            expected, block_start = [], 0
            for j, b in enumerate(bounds):
                vectorized = len(bounds) - block_start > _PYTHON_WORDS
                at = want._counter
                expected.append(one_draw(want, b))
                first_rejected[vectorized] += words[at] >= (1 << 64) - (1 << 64) % b
                if want._counter - at > 8:
                    whole_slot[vectorized] += 1
                    block_start = j
            assert got.integers_below(bounds) == expected
            assert_same_position(want, got)
        assert min(first_rejected.values()) > 300
        assert min(whole_slot.values()) > 0


class TestInitializers:
    def test_signed_kaiming_constant_values(self):
        # fan_in = 8 -> sigma = sqrt(2/8) = 0.5 exactly
        w = init_weights((4, 8), InitKind.SIGNED_KAIMING_CONSTANT, derive(1, [0]))
        assert set(np.unique(w).tolist()) <= {-0.5, 0.5}
        assert w.dtype == np.float32

    def test_kaiming_normal_std(self):
        # fan_in = 2 -> std = 1; Monte-Carlo within 2%
        w = init_weights((50000, 2), InitKind.KAIMING_NORMAL, derive(2, [0]))
        assert abs(float(np.std(w.astype(np.float64))) - 1.0) < 0.02

    def test_glorot_normal_std(self):
        w = init_weights((1000, 100), InitKind.GLOROT_NORMAL, derive(3, [0]))
        target = math.sqrt(2.0 / (100 + 1000))
        assert abs(float(np.std(w.astype(np.float64))) - target) < 3 * target / math.sqrt(w.size) * 2

    def test_kaiming_uniform_bound(self):
        # fan_in = 6 -> b = 1, all entries in (-1, 1)
        w = init_weights((100, 6), InitKind.KAIMING_UNIFORM, derive(4, [0]))
        assert w.min() > -1.0 and w.max() < 1.0

    def test_determinism(self):
        a = init_weights((8, 8), InitKind.KAIMING_NORMAL, derive(5, [0]))
        b = init_weights((8, 8), InitKind.KAIMING_NORMAL, derive(5, [0]))
        assert np.array_equal(a, b)

    def test_scores_differ_from_weights_same_seed(self):
        seed = 77
        w = init_weights((10, 10), InitKind.KAIMING_UNIFORM, derive(seed, [0]))
        s = init_scores((10, 10), derive(seed, [1]))
        assert not np.array_equal(w, s)

    def test_zero_fan_rejected(self):
        with pytest.raises(ValueError):
            init_weights((0, 5), InitKind.KAIMING_NORMAL, derive(1, []))
        with pytest.raises(ValueError):
            init_scores((5, 0), derive(1, []))

    @pytest.mark.parametrize("kind,expected_std", [
        (InitKind.KAIMING_NORMAL, math.sqrt(2.0 / 16)),
        (InitKind.SIGNED_KAIMING_CONSTANT, math.sqrt(2.0 / 16)),
        (InitKind.KAIMING_UNIFORM, math.sqrt(6.0 / 16) / math.sqrt(3.0)),
    ])
    def test_distribution_std_targets(self, kind, expected_std):
        w = init_weights((6250, 16), kind, derive(6, [0])).astype(np.float64)
        se = expected_std / math.sqrt(2 * w.size)  # rough SE of the sample std
        assert abs(float(np.std(w)) - expected_std) < 3 * se + 0.01 * expected_std
