"""Deterministic, platform-independent random streams and parameter initializers.

The generator is SplitMix64: output ``i`` of a stream with key ``key`` is
``fin(key + i * GAMMA) mod 2**64`` where ``fin`` is the standard three-step
xor-shift/multiply finalizer and ``GAMMA = 0x9E3779B97F4A7C15``.  Being
counter-based, it produces bit-identical sequences on every platform and
vectorizes cleanly.  Normal variates come from Box-Muller, so every
distribution is a fixed function of the raw 64-bit outputs.

Which words a draw reads is part of the stream's contract: a bounded
integer below a power of two takes a slot of 1 word, any other bound a
slot of 8 of which the first word below ``2**64 - 2**64 % bound`` is used
(the next 8 if all are rejected).  ``integers_below`` computes the first
word of every step's slot at once and the rest of a slot only after its
first word is rejected, so n draws read exactly what n one-value draws
read; ``shuffle`` and ``sample_without_replacement`` draw through it.  A
word is a pure function of the key and its counter position, so words
are computed at the positions a draw needs: up to _PYTHON_WORDS of them
one by one with :func:`_fin`, more with the vectorized finalizer.

Streams for different purposes are derived from one experiment seed by
folding integer tags into the key (see :func:`derive`).  Weights use tag 0
and scores tag 1; the remaining tags below are simulator plumbing.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

_TWO_64 = 1 << 64
_MASK = _TWO_64 - 1
_GAMMA = 0x9E3779B97F4A7C15

# Stream purposes, folded into the key after the seed.
TAG_WEIGHTS = 0
TAG_SCORES = 1
TAG_SAMPLING = 2
TAG_TRAIN = 3
TAG_DATA = 4
TAG_PARTITION = 5
TAG_SPLIT = 6


def _fin(z: int) -> int:
    """SplitMix64 finalizer on a Python int, mod 2**64."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_GAMMA_U64 = np.uint64(_GAMMA)

# Pairs per block of a normal draw: 256 KiB per float64 temporary, as
# nn.CHUNK, so a draw holds little beyond its output.
NORMAL_PAIRS = 2**15

# Up to this many words are computed one by one with _fin, more with
# _fin_array: at about 0.6-0.9 us a word against a fixed 8-14 us per array
# call, the two cost the same at 12-16 words (timeit, 2-core host).
_PYTHON_WORDS = 16


def _fin_array(z: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_fin`, in place on a uint64 array, which it
    returns (array products wrap silently, so no ``errstate`` is needed)."""
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def _words(key: int, counters: np.ndarray) -> np.ndarray:
    """The words of the stream with key ``key`` at the uint64 counter
    positions ``counters``, computed in place."""
    counters *= _GAMMA_U64
    counters += np.uint64(key)
    return _fin_array(counters)


def _unit(words: np.ndarray) -> np.ndarray:
    """Floats in [0, 1) from raw words: the top 53 bits times 2**-53.
    Shifts ``words`` in place, so it allocates only the float array."""
    words >>= np.uint64(11)
    u = words.astype(np.float64)
    u *= 2.0**-53
    return u


def _fold(key: int, tag: int) -> int:
    return _fin(key ^ _fin(tag + _GAMMA))


class RngStream:
    """Single-owner deterministic stream of 64-bit words.

    Two streams built from the same key produce identical sequences.
    """

    def __init__(self, key: int):
        self._key = key & _MASK
        self._counter = 0

    def next_u64(self, n: int) -> np.ndarray:
        """Return the next ``n`` raw 64-bit outputs as a uint64 array."""
        if n < 0:
            raise ValueError(f"cannot draw {n} words")
        at = self._counter
        self._counter += n
        return self._words_after(at, n)

    def _words_after(self, at: int, n: int) -> np.ndarray:
        """The ``n`` words after counter position ``at``; the counter does not move."""
        return _words(self._key, np.arange(at + 1, at + n + 1, dtype=np.uint64))

    def _words_at(self, positions) -> list[int]:
        """The words at counter positions ``positions`` (word i is what
        ``next_u64`` returns when the counter stands at i - 1), as ints;
        the counter does not move."""
        if len(positions) <= _PYTHON_WORDS:
            return [_fin(self._key + _GAMMA * i) for i in positions]
        return _words(self._key, np.array(positions, dtype=np.uint64)).tolist()

    def uniform(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """``n`` float64 samples uniform on [low, high)."""
        return low + (high - low) * _unit(self.next_u64(n))

    def normal(self, n: int) -> np.ndarray:
        """``n`` standard-normal float64 samples via Box-Muller.  Of the ``2p``
        words read, ``p = ceil(n / 2)``, pair ``i`` takes words ``i`` and
        ``p + i``; the pairs are computed NORMAL_PAIRS at a time."""
        if n < 0:
            raise ValueError(f"cannot draw {n} samples")
        pairs = (n + 1) // 2
        at = self._counter
        self._counter += 2 * pairs
        for lo in range(0, max(pairs, 1), NORMAL_PAIRS):  # n = 0 runs one empty block
            hi = min(lo + NORMAL_PAIRS, pairs)
            u1 = _unit(self._words_after(at + lo, hi - lo))
            u1 += 2.0**-53  # (0, 1], so the log is finite
            u2 = _unit(self._words_after(at + pairs + lo, hi - lo))
            r = np.sqrt(-2.0 * np.log(u1))
            theta = 2.0 * np.pi * u2
            if lo == 0:  # after r and theta: that order sets small draws' heap layout
                out = np.empty(2 * pairs)
            out[2 * lo:2 * hi:2] = r * np.cos(theta)
            out[2 * lo + 1:2 * hi:2] = r * np.sin(theta)
        return out[:n]

    def integers_below(self, bounds: list[int]) -> list[int]:
        """One exactly-uniform integer below each bound, by rejection.

        The first word of every step's slot (see the module docstring) is
        computed at once.  A step takes it if it lies below the largest
        multiple of its bound; otherwise the step reads on through its slot
        and takes the first word there that does.  If all 8 are rejected, it
        goes on with the next 8 words and the steps after it start again
        from there.
        """
        if not bounds:  # a shuffle of 0 or 1 items draws nothing
            return []
        if min(bounds) <= 0:
            raise ValueError("bound must be positive")
        out: list[int] = []
        while len(out) < len(bounds):
            rest = bounds[len(out):]
            limits = [_TWO_64 - _TWO_64 % b for b in rest]  # 2**64 for a power of two
            starts, end = [], self._counter  # the counter before each slot
            for limit in limits:
                starts.append(end)
                end += 1 if limit == _TWO_64 else 8
            firsts = self._words_at([at + 1 for at in starts])
            for b, limit, at, w in zip(rest, limits, starts, firsts):
                if w >= limit:
                    w = next((v for v in self._words_at(range(at + 2, at + 9)) if v < limit),
                             None)
                    if w is None:  # the whole slot is rejected
                        end = at + 8
                        break
                out.append(w % b)
            self._counter = end
        return out

    def shuffle(self, items: np.ndarray | list) -> None:
        """In-place Fisher-Yates shuffle of an array or list: step ``i``
        from ``len - 1`` down to 1 swaps item ``i`` with an index drawn
        below ``i + 1``."""
        n = len(items)
        vals = list(items)
        for i, j in zip(range(n - 1, 0, -1), self.integers_below(list(range(n, 1, -1)))):
            vals[i], vals[j] = vals[j], vals[i]
        items[:] = vals

    def sample_without_replacement(self, n_total: int, k: int) -> np.ndarray:
        """``k`` distinct integers from [0, n_total), uniform, order random:
        the first ``k`` steps of a forward Fisher-Yates shuffle."""
        if not 0 <= k <= n_total:
            raise ValueError(f"cannot sample {k} from {n_total}")
        vals = list(range(n_total))
        for i, j in enumerate(self.integers_below(list(range(n_total, n_total - k, -1)))):
            vals[i], vals[i + j] = vals[i + j], vals[i]
        return np.array(vals[:k], dtype=np.int64)

    def gamma(self, alpha: float, n: int) -> np.ndarray:
        """``n`` Gamma(alpha) float64 samples by Marsaglia-Tsang.

        A trial reads a normal ``x`` from 2 words and, unless
        ``v = (1 + c x)^3 <= 0``, a uniform ``u`` from a third; ``u == 0``
        rejects the trial.  For ``alpha < 1`` each sample first reads a
        nonzero boost uniform ``b`` and is Gamma(alpha + 1) * b^(1 / alpha).
        ``x`` and ``u`` equal one-value draws at their words but come a block
        at a time; the stream ends just past the last word read.
        """
        def draws(size: int):  # per word: (normal of it and the next, uniform of it)
            while True:
                at = self._counter
                u = _unit(self.next_u64(size))
                x = np.sqrt(-2.0 * np.log(u[:-1] + 2.0**-53)) * np.cos(2.0 * np.pi * u[1:])
                for end, xu in enumerate(zip(x.tolist(), u.tolist()), at + 1):
                    self._counter = end
                    yield xu

        if not 0 < alpha < math.inf:  # a NaN or infinite alpha rejects every trial
            raise ValueError(f"alpha must be finite and > 0, got {alpha}")
        shape = alpha + 1.0 if alpha < 1.0 else alpha
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        # A sample takes about 3.1 words (4.1 with the boost): one block
        # usually covers every sample for alpha >= 1.
        walk = draws(4 * n + 8)
        out = np.empty(n)
        for i in range(n):
            boost = 1.0
            if alpha < 1.0:
                b = 0.0
                while b == 0.0:
                    _, b = next(walk)
                boost = b ** (1.0 / alpha)
            while True:
                x, _ = next(walk)
                next(walk)
                v = (1.0 + c * x) ** 3
                if v <= 0.0:
                    continue
                _, u = next(walk)
                if u != 0.0 and math.log(u) < 0.5 * x * x + d - d * v + d * math.log(v):
                    break
            out[i] = d * v * boost
        return out

    def child(self, *tags: int) -> "RngStream":
        """Derive an independent stream; a pure function of (key, tags)."""
        key = self._key
        for tag in tags:
            key = _fold(key, tag)
        return RngStream(key)


def derive(seed: int, tags: list[int] | tuple[int, ...]) -> RngStream:
    """Build a stream whose sequence depends only on (seed, tags).

    Distinct tag lists give statistically independent streams.  The
    protocol seed is 32 bits on the wire; it is zero-extended here.
    """
    return RngStream(_fin(seed)).child(*tags)


class InitKind(str, Enum):
    """Parameter initializer families for the fixed random network."""

    GLOROT_NORMAL = "glorot_normal"
    KAIMING_NORMAL = "kaiming_normal"
    SIGNED_KAIMING_CONSTANT = "signed_kaiming_constant"
    KAIMING_UNIFORM = "kaiming_uniform"


def init_weights(shape: tuple[int, int], kind: InitKind, rng: RngStream) -> np.ndarray:
    """Fill a (fan_out, fan_in) float32 matrix per the chosen initializer.

    - glorot_normal: Normal(0, sqrt(2 / (fan_in + fan_out)))
    - kaiming_normal: Normal(0, sqrt(2 / fan_in))
    - signed_kaiming_constant: uniform over {-s, +s}, s = sqrt(2 / fan_in)
    - kaiming_uniform: Uniform(-b, b), b = sqrt(6 / fan_in)
    """
    fan_out, fan_in = shape
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fan_in and fan_out must be >= 1, got {shape}")
    n = fan_out * fan_in
    kind = InitKind(kind)
    if kind is InitKind.GLOROT_NORMAL:
        vals = rng.normal(n) * math.sqrt(2.0 / (fan_in + fan_out))
    elif kind is InitKind.KAIMING_NORMAL:
        vals = rng.normal(n) * math.sqrt(2.0 / fan_in)
    elif kind is InitKind.SIGNED_KAIMING_CONSTANT:
        sigma = math.sqrt(2.0 / fan_in)
        bits = rng.next_u64(n) & np.uint64(1)
        vals = np.where(bits == 1, sigma, -sigma)
    else:  # kaiming_uniform
        b = math.sqrt(6.0 / fan_in)
        vals = rng.uniform(n, -b, b)
    return vals.astype(np.float32).reshape(fan_out, fan_in)
