import hashlib
import math
import struct

import numpy as np
import pytest

from fedrank.data import (IdxFormatError, dirichlet_partition,
                          dirichlet_proportions, gen_blobs,
                          largest_remainder_counts, load_idx)
from fedrank.rng import TAG_DATA, RngStream, derive


class TestBlobs:
    def test_zero_std_points_at_center(self):
        ds = gen_blobs(3, 5, 4, 0.0, derive(41, []), separation=2.0)
        for c in range(3):
            pts = ds.features[ds.labels == c]
            assert np.allclose(pts, pts[0])
            assert np.linalg.norm(pts[0]) == pytest.approx(2.0)

    def test_nearest_centroid_separable(self):
        ds = gen_blobs(4, 10, 50, 0.05, derive(42, []))
        centers = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
        d2 = ((ds.features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assert np.mean(np.argmin(d2, axis=1) == ds.labels) == 1.0

    def test_deterministic(self):
        a = gen_blobs(2, 3, 10, 1.0, derive(43, []))
        b = gen_blobs(2, 3, 10, 1.0, derive(43, []))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("dims, digest", [
        (20, "a1a207459789a64548b82939738af5a89624c387b3b990b3508b16fe894e0313"),
        (784, "71edc34b7919426be3cd2af5366ae783bc0ca3f4dd7d83af8b91362e3f7ad894"),
    ], ids=["desk", "mid"])
    def test_features_pinned(self, dims, digest):
        # The benchmark's 10 x 200 blobs (variant 0) at the desk and mid sizes.
        ds = gen_blobs(10, dims, 200, 2.0, derive(2024, [TAG_DATA]), separation=8.0)
        assert ds.features.shape == (2000, dims)
        assert hashlib.sha256(ds.features.astype("<f8").tobytes()).hexdigest() == digest

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gen_blobs(0, 3, 10, 1.0, derive(1, []))
        with pytest.raises(ValueError):
            gen_blobs(2, 3, 10, -1.0, derive(1, []))


class TestLargestRemainder:
    def test_exact_total(self):
        rng = derive(44, [])
        for _ in range(20):
            props = dirichlet_proportions(1.0, 7, rng)
            counts = largest_remainder_counts(props, 103)
            assert counts.sum() == 103
            assert np.all(counts >= 0)

    def test_even_split(self):
        counts = largest_remainder_counts(np.array([0.25, 0.25, 0.25, 0.25]), 8)
        assert counts.tolist() == [2, 2, 2, 2]

    def test_remainder_to_largest_fraction(self):
        counts = largest_remainder_counts(np.array([0.6, 0.4]), 5)
        assert counts.tolist() == [3, 2]


class TestDirichletPartition:
    def _labels(self, per_class=200, classes=4):
        return np.repeat(np.arange(classes), per_class)

    def test_single_client_gets_everything(self):
        labels = self._labels()
        shards = dirichlet_partition(labels, 1, 1.0, derive(45, []))
        assert len(shards.train[0]) + len(shards.test[0]) == len(labels)

    def test_disjoint_and_covering(self):
        labels = self._labels()
        shards = dirichlet_partition(labels, 10, 0.5, derive(46, []))
        seen = np.concatenate([np.concatenate([tr, te])
                               for tr, te in zip(shards.train, shards.test)])
        assert sorted(seen.tolist()) == list(range(len(labels)))

    def test_large_alpha_near_uniform(self):
        labels = self._labels(per_class=500, classes=2)
        shards = dirichlet_partition(labels, 2, 1e6, derive(47, []))
        for tr, te in zip(shards.train, shards.test):
            shard = np.concatenate([tr, te])
            hist = np.bincount(labels[shard], minlength=2) / len(shard)
            assert abs(hist[0] - 0.5) < 0.05

    def test_split_ratio(self):
        labels = self._labels()
        shards = dirichlet_partition(labels, 8, 1.0, derive(48, []))
        for tr, te in zip(shards.train, shards.test):
            total = len(tr) + len(te)
            assert len(tr) == round(0.8 * total)

    def test_deterministic(self):
        labels = self._labels()
        a = dirichlet_partition(labels, 6, 1.0, derive(49, []))
        b = dirichlet_partition(labels, 6, 1.0, derive(49, []))
        for ta, tb in zip(a.train, b.train):
            assert np.array_equal(ta, tb)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            dirichlet_partition(np.array([0, 1]), 0, 1.0, derive(1, []))
        with pytest.raises(ValueError):
            dirichlet_partition(np.array([0, 1]), 2, 0.0, derive(1, []))

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        # Every gamma trial would be rejected: the draw would never return.
        with pytest.raises(ValueError, match="alpha must be finite"):
            dirichlet_partition(np.array([0, 1]), 2, alpha, derive(1, []))
        with pytest.raises(ValueError, match="alpha must be finite"):
            RngStream(1).gamma(alpha, 3)


def per_step_gamma(shape, rng):
    """The scalar Marsaglia-Tsang sampler the block walk replaces."""
    if shape < 1.0:
        u = float(rng.uniform(1)[0])
        while u == 0.0:
            u = float(rng.uniform(1)[0])
        return per_step_gamma(shape + 1.0, rng) * u ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = float(rng.normal(1)[0])
        v = (1.0 + c * x) ** 3
        if v <= 0.0:
            continue
        u = float(rng.uniform(1)[0])
        if u == 0.0:
            continue
        if math.log(u) < 0.5 * x * x + d - d * v + d * math.log(v):
            return d * v


def per_step_proportions(alpha, n, rng):
    gammas = np.array([per_step_gamma(alpha, rng) for _ in range(n)])
    total = gammas.sum()
    return np.full(n, 1.0 / n) if total == 0.0 else gammas / total


def counting_blocks(rng):
    """Count the next_u64 calls made on ``rng``."""
    calls = []
    draw = rng.next_u64
    rng.next_u64 = lambda n: calls.append(n) or draw(n)
    return calls


class TestGammaBlockWalk:
    """dirichlet_proportions walks precomputed blocks of draws; it must read
    the words, give the bytes and leave the stream where the scalar
    sampler does."""

    ALPHAS = [0.1, 0.5, 1.0, 3.0, 1e6]  # 0.1 and 0.5 take the boost path

    def check(self, alpha, n, key):
        want, got = RngStream(key), RngStream(key)
        expected = per_step_proportions(alpha, n, want)
        assert dirichlet_proportions(alpha, n, got).tobytes() == expected.tobytes()
        assert got._counter == want._counter
        assert got.next_u64(1)[0] == want.next_u64(1)[0]

    def test_matches_per_step_sampler(self):
        case_rng = derive(63, [])
        for case in range(320):
            n = 1 + case_rng.integers_below([40])[0]
            self.check(self.ALPHAS[case % len(self.ALPHAS)], n, 1000 + case)

    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    def test_long_walk_refills_its_block(self, alpha):
        # A boosted gamma takes at least 4 words and the first block holds
        # 4n + 8, so the rejections among 400 gammas run past it.
        rng = RngStream(7)
        blocks = counting_blocks(rng)
        dirichlet_proportions(alpha, 400, rng)
        assert len(blocks) > 1
        self.check(alpha, 400, 7)

    def test_short_walk_draws_one_block(self):
        rng = RngStream(8)
        blocks = counting_blocks(rng)
        dirichlet_proportions(1.0, 10, rng)
        assert blocks == [48]


def partition_digest(shards):
    h = hashlib.sha256()
    for tr, te in zip(shards.train, shards.test):
        h.update(tr.astype("<i8").tobytes())
        h.update(te.astype("<i8").tobytes())
    h.update(bytes([shards.undersized]))
    return h.hexdigest()


@pytest.mark.parametrize("per_class,alpha,undersized,digest", [
    (60, 0.3, False, "dc037cb1e3684b38d944a007f1d2894ac8b631b86afd4bbd0acc6b4a634735d7"),
    (60, 1.0, False, "db3bd14e2242809749cbf83306feaf4958383dd48c90e85ffd84b426a401d19b"),
    # 30 samples cannot give 8 clients 5 each: every re-roll runs.
    (3, 0.3, True, "61d9042adb99b4549adf139205f9b773e1ae9c0967a487e51b96ee149ec593dc"),
])
def test_partition_pinned(per_class, alpha, undersized, digest):
    """Train/test index bytes and the undersized flag on 10 classes and 8
    clients, pinned before the Dirichlet and shuffle draws were blocked."""
    labels = np.repeat(np.arange(10), per_class)
    shards = dirichlet_partition(labels, 8, alpha, derive(2024, [5]))
    assert shards.undersized is undersized
    assert partition_digest(shards) == digest


def write_idx_pair(tmp_path, images, labels):
    images = np.asarray(images, dtype=np.uint8)
    count, rows, cols = images.shape
    img_path = tmp_path / "imgs.idx"
    lbl_path = tmp_path / "lbls.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x00000803, count, rows, cols)
                         + images.tobytes())
    lbl_path.write_bytes(struct.pack(">II", 0x00000801, len(labels))
                         + bytes(labels))
    return str(img_path), str(lbl_path)


class TestIdx:
    def test_parse_two_images(self, tmp_path):
        images = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
        img, lbl = write_idx_pair(tmp_path, images, [1, 0])
        ds = load_idx(img, lbl)
        assert ds.features.shape == (2, 12)
        assert ds.labels.tolist() == [1, 0]
        assert ds.features.max() <= 1.0
        assert ds.features[1, 0] == pytest.approx(12 / 255.0)

    def test_bad_magic(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        bad = tmp_path / "bad.idx"
        bad.write_bytes(struct.pack(">IIII", 0x00000805, 1, 2, 2) + bytes(4))
        with pytest.raises(IdxFormatError):
            load_idx(str(bad), lbl)

    def test_truncated_file(self, tmp_path):
        lbl = tmp_path / "short.idx"
        lbl.write_bytes(b"\x00\x00")
        img, good_lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        with pytest.raises(IdxFormatError):
            load_idx(img, str(lbl))

    def test_empty_images_file(self, tmp_path):
        img = tmp_path / "empty.idx"
        img.write_bytes(b"")
        with pytest.raises(IdxFormatError):
            load_idx(str(img), str(img))

    def test_count_mismatch(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        lbl = tmp_path / "one.idx"
        lbl.write_bytes(struct.pack(">II", 0x00000801, 1) + bytes([0]))
        with pytest.raises(IdxFormatError):
            load_idx(img, str(lbl))

    def test_truncated_pixels(self, tmp_path):
        img = tmp_path / "trunc.idx"
        img.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(3))
        _, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        with pytest.raises(IdxFormatError):
            load_idx(str(img), lbl)
