"""Synthetic datasets, non-iid client partitioning, and IDX file loading."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .rng import RngStream, TAG_SPLIT, derive

# Fixed key for the class-center directions so dataset geometry is a pure
# function of (num_classes, dims), independent of the noise stream.
_CENTER_SEED = 0x0B10B5

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Raised when an IDX file is malformed or the pair is inconsistent."""


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels are misaligned")
        if len(self.labels) and self.labels.max() >= self.num_classes:
            raise ValueError("label out of range")


@dataclass
class ClientShards:
    """Per-client train/test index lists into a Dataset."""

    train: list[np.ndarray]
    test: list[np.ndarray]
    undersized: bool = False


def class_centers(num_classes: int, dims: int) -> np.ndarray:
    """Deterministic unit-norm direction per class."""
    out = np.empty((num_classes, dims))
    for c in range(num_classes):
        v = derive(_CENTER_SEED, [c]).normal(dims)
        out[c] = v / np.linalg.norm(v)
    return out


def gen_blobs(num_classes: int, dims: int, samples_per_class: int,
              cluster_std: float, rng: RngStream,
              separation: float | None = None) -> Dataset:
    """Gaussian blobs: class c at separation * direction_c plus noise.

    The separation defaults to 4x the cluster std so the task is learnable
    but not trivial at moderate subnetwork fractions.
    """
    if num_classes < 1 or dims < 1 or samples_per_class < 1:
        raise ValueError("num_classes, dims and samples_per_class must be positive")
    if cluster_std < 0:
        raise ValueError("cluster_std must be >= 0")
    if separation is None:
        separation = 4.0 * cluster_std
    centers = separation * class_centers(num_classes, dims)
    n = num_classes * samples_per_class
    noise = cluster_std * rng.normal(n * dims).reshape(n, dims)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), samples_per_class)
    features = centers[labels] + noise
    return Dataset(features=features, labels=labels, num_classes=num_classes)


def dirichlet_proportions(alpha: float, n: int, rng: RngStream) -> np.ndarray:
    """Dirichlet(alpha) over ``n`` parts: ``rng.gamma`` normalised (equal if all 0)."""
    gammas = rng.gamma(alpha, n)
    total = gammas.sum()
    if total == 0.0:
        return np.full(n, 1.0 / n)
    return gammas / total


def largest_remainder_counts(props: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation of ``total`` items by proportion, remainders to the
    largest fractional parts (ties to the lower index)."""
    raw = props * total
    base = np.floor(raw).astype(np.int64)
    short = total - int(base.sum())
    if short > 0:
        frac = raw - base
        order = np.lexsort((np.arange(len(props)), -frac))
        base[order[:short]] += 1
    return base


MIN_SHARD = 5
_REROLL_LIMIT = 10


def dirichlet_partition(labels: np.ndarray, num_clients: int, alpha: float,
                        rng: RngStream) -> ClientShards:
    """Per-class Dirichlet split of sample indices across clients.

    For each class a Dirichlet(alpha) proportion vector over clients is
    drawn and the class's shuffled samples are handed out by those
    proportions.  Draws leaving any client below MIN_SHARD samples are
    re-rolled up to a limit, then accepted with the ``undersized`` flag.
    Each client's shard is then shuffled on a derived per-client stream and
    split 80/20 into train/test.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    classes = np.unique(labels)
    for _ in range(_REROLL_LIMIT + 1):
        shards: list[list[int]] = [[] for _ in range(num_clients)]
        for c in classes:
            idx = np.flatnonzero(labels == c)
            rng.shuffle(idx)
            props = dirichlet_proportions(alpha, num_clients, rng)
            counts = largest_remainder_counts(props, len(idx))
            pos = 0
            for client, cnt in enumerate(counts):
                shards[client].extend(idx[pos : pos + cnt].tolist())
                pos += cnt
        if min(len(s) for s in shards) >= MIN_SHARD:
            break
    undersized = min(len(s) for s in shards) < MIN_SHARD

    train, test = [], []
    for client, shard in enumerate(shards):
        arr = np.asarray(shard, dtype=np.int64)
        rng.child(TAG_SPLIT, client).shuffle(arr)
        n_train = round(0.8 * len(arr))
        train.append(arr[:n_train].copy())
        test.append(arr[n_train:].copy())
    return ClientShards(train=train, test=test, undersized=undersized)


def _read_idx(path: str, magic: int, unit: str) -> tuple[list[int], bytes]:
    """Dimension sizes and body of an IDX file: big-endian ``magic`` (low byte:
    the dimension count), one uint32 size per dimension, one byte per ``unit``."""
    with open(path, "rb") as f:
        raw = f.read()
    head = 4 * (1 + (magic & 0xFF))
    if len(raw) < head:
        raise IdxFormatError(f"{path}: truncated header")
    got, *sizes = struct.unpack(f">{head // 4}I", raw[:head])
    if got != magic:
        raise IdxFormatError(f"{path}: bad magic 0x{got:08x}")
    if len(raw) - head != math.prod(sizes):
        raise IdxFormatError(f"{path}: expected {math.prod(sizes)} {unit}, got {len(raw) - head}")
    return sizes, raw[head:]


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Parse an IDX image/label file pair; pixels scaled to [0, 1]."""
    (count, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, "pixels")
    (label_count,), raw_labels = _read_idx(labels_path, IDX_LABELS_MAGIC, "labels")
    if label_count != count:
        raise IdxFormatError(f"image/label count mismatch: {count} vs {label_count}")
    features = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64).reshape(count, rows * cols) / 255.0
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    num_classes = int(labels.max()) + 1 if label_count else 0
    return Dataset(features=features, labels=labels, num_classes=num_classes)
