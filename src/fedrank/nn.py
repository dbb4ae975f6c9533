"""Fixed-weight score-trained network, the edge-popup local trainer and the
dense trainer of the weight-based baselines, on one network core.

Layers are bias-free fully connected maps stored as (fan_out, fan_in)
float32 matrices.  :func:`forward` and :func:`backward` run on effective
float64 weights: W * mask for edge-popup, whose mask keeps the top-k scored
edges per layer, and W itself for dense training.  The backward pass
returns dL/dW_eff.  Dense training steps W along it; edge-popup's score
gradient is dL/dW_eff * W for every edge, masked or not (the
straight-through estimator), and its weights never change.  One trainer
and one accuracy rule serve both.  All reductions run in float64;
parameters stay float32.

A :class:`Supernetwork` holds the float32 arrays it is given, not copies:
every party rebuilds the same network from the shared seed, so the seed's
weights and a state's scores are shared read-only by every cohort and
every evaluation.  :meth:`Supernetwork.from_seed` freezes the weights it
draws and :class:`SeedNetwork` freezes everything it shares; nothing here
writes a network's arrays in place.

The trainer runs a cohort of G clients in lockstep.  Every client starts
from the same parameters, so each layer's parameters and momentum are one
(G, fan_out, fan_in) stack, row c client c's, and that stack is the
cohort's only copy of them.  At each step the clients whose batches have one size
make one stacked forward and backward pass (``np.matmul`` runs the same
BLAS call on every row as on one client's matrices), and one elementwise
SGD step moves every client still training; masks come from one row-wise
selection per layer, and each step builds every live client's float64
effective weights once.  Batches of other sizes get their own pass and are
never padded: a padded row count in ``x @ Wᵀ`` or the backward ``dz`` can
take another BLAS kernel and change the bytes.  Each cohort's rankings
come from one row-wise sort per layer.

Past CHUNK elements the SGD step runs block by block through one small
float64 scratch array, with no full-layer temporary: each element meets
the same ufuncs in the same order, so the bytes are those of one
whole-array pass.

Poisoned runs overflow to inf and NaN by design: the trainer sets numpy's
error state once around its lockstep loop and :func:`evaluate` once around
its forward pass, and the kernels they call set none of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import InitKind, RngStream, TAG_SCORES, TAG_WEIGHTS, derive, init_scores, init_weights
from .ranking import finite_flat, keep_count, reorder_scores, stable_order

ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class LayerSpec:
    fan_in: int
    fan_out: int
    activation: str = "relu"

    def __post_init__(self):
        if self.fan_in < 1 or self.fan_out < 1:
            raise ValueError("layer fans must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")

    @property
    def n_edges(self) -> int:
        return self.fan_in * self.fan_out


def require_finite(obj, *names: str) -> None:
    """Raise unless each named attribute of ``obj`` is None or finite."""
    for name in names:
        value = getattr(obj, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name}: must be finite, got {value!r}")


@dataclass
class SgdConfig:
    """Minibatch SGD settings (momentum and weight decay apply to scores)."""

    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    batch_size: int = 8

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        require_finite(self, "learning_rate", "weight_decay")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class Minibatch:
    inputs: np.ndarray
    labels: np.ndarray


def validate_architecture(specs: list[LayerSpec]) -> None:
    if not specs:
        raise ValueError("architecture must have at least one layer")
    for a, b in zip(specs, specs[1:]):
        if a.fan_out != b.fan_in:
            raise ValueError(f"layer widths do not chain: {a.fan_out} -> {b.fan_in}")
    if specs[-1].activation != "identity":
        raise ValueError("last layer must use the identity activation")


class Supernetwork:
    """Fixed random weights plus per-edge scores, layer by layer.

    Each layer's scores are one (fan_out, fan_in) matrix, or, once
    :func:`edge_popup_train` has trained a cohort, a (G, fan_out, fan_in)
    stack of G clients' scores over the shared weights.  The arrays are
    held as given, only a non-float32 one converted, and never written:
    training and :meth:`reorder_all_scores` replace the list entries.
    Freezing is the maker's part; :meth:`from_seed` freezes its weights.
    """

    def __init__(self, specs: list[LayerSpec], weights: list[np.ndarray],
                 scores: list[np.ndarray]):
        validate_architecture(specs)
        self.specs = specs
        self.weights = [np.asarray(w, dtype=np.float32) for w in weights]
        self.scores = [np.asarray(s, dtype=np.float32) for s in scores]
        for spec, w, s in zip(specs, self.weights, self.scores):
            if w.shape != (spec.fan_out, spec.fan_in) or s.shape != w.shape:
                raise ValueError("weight/score shapes do not match the specs")

    @classmethod
    def from_seed(cls, seed: int, specs: list[LayerSpec],
                  weight_init: InitKind = InitKind.SIGNED_KAIMING_CONSTANT) -> "Supernetwork":
        """Reconstruct the network any party can build from the shared seed.

        One tagged sub-stream fills all weight matrices in layer order, a
        second fills all score matrices, so server and clients agree
        bitwise.  The weights are read-only, the scores writable.
        """
        w_rng = derive(seed, [TAG_WEIGHTS])
        s_rng = derive(seed, [TAG_SCORES])
        weights = [init_weights((sp.fan_out, sp.fan_in), weight_init, w_rng) for sp in specs]
        scores = [init_scores((sp.fan_out, sp.fan_in), s_rng) for sp in specs]
        for w in weights:
            w.flags.writeable = False
        return cls(specs, weights, scores)

    def reorder_all_scores(self, ranking: list[np.ndarray]) -> None:
        """Overwrite scores so their layer-wise order matches ``ranking``,
        handing out the current scores, stably sorted."""
        for i, (s, perm) in enumerate(zip(self.scores, ranking)):
            values = np.sort(s.ravel(), kind="stable")
            self.scores[i] = reorder_scores(values, perm).reshape(s.shape)

    def score_rankings(self) -> list[np.ndarray]:
        """Each layer's ranking of its scores: an (n,) permutation for a
        matrix, a (G, n) array of one per client for a cohort's stack, from
        one row-wise sort.  Raises unless every score is finite."""
        return [stable_order(finite_flat(s).reshape(s.shape[:-2] + (-1,)))
                for s in self.scores]


class SeedNetwork:
    """The network every party builds from the shared seed, built once.

    Holds the frozen weights, the initial scores, their ranking and each
    layer's initial scores sorted ascending (stable sort), all read-only,
    so every cohort of every round can share one.  The initial scores are
    the rebuild of the initial ranking: ``reorder_scores(s[r], r) == s``.
    """

    def __init__(self, seed: int, specs: list[LayerSpec],
                 weight_init: InitKind = InitKind.SIGNED_KAIMING_CONSTANT):
        net = Supernetwork.from_seed(seed, specs, weight_init)
        self.specs = specs
        self.weights = net.weights
        self.scores = net.scores
        self.ranking = net.score_rankings()
        self.sorted_scores = [s.ravel()[r] for s, r in zip(net.scores, self.ranking)]
        for a in self.scores + self.ranking + self.sorted_scores:
            a.flags.writeable = False

    def rebuild(self, ranking: list[np.ndarray]) -> list[np.ndarray]:
        """Each layer's read-only scores for ``ranking``: what ``from_seed``
        then ``reorder_all_scores(ranking)`` gives, without drawing the
        weights or sorting the scores again."""
        scores = [reorder_scores(v, perm).reshape(w.shape)
                  for v, perm, w in zip(self.sorted_scores, ranking, self.weights)]
        for s in scores:
            s.flags.writeable = False
        return scores


def mask_layer(scores: np.ndarray, k: float) -> np.ndarray:
    """Binary float32 mask keeping the top-k fraction of each row of
    ``scores``: the last axis holds one layer's edges (a 1-D array is one
    layer), any leading axes index clients.

    Ties go to the lower index first in the ascending order, so equal
    scores are dropped from index 0 upward: of the scores in a row equal to
    its smallest kept value, the highest indices are kept.  Each row's
    threshold comes from one row-wise selection, not a sort, in float32 for
    float32 scores and in float64 otherwise (see :func:`finite_flat`).
    """
    shape, flat = np.shape(scores), finite_flat(scores)
    n = shape[-1]
    keep = keep_count(n, k)
    if not keep:
        return np.zeros(shape, dtype=np.float32)
    rows = flat.reshape(-1, n)
    threshold = np.partition(rows, n - keep, axis=1)[:, n - keep, None]
    kept = rows >= threshold
    # A row keeps more than ``keep`` only where several of its scores equal
    # its threshold: drop that row's lowest-index ties.
    if np.count_nonzero(kept) != len(rows) * keep:
        surplus = np.count_nonzero(kept, axis=1) - keep
        for r in np.flatnonzero(surplus):
            kept[r, np.flatnonzero(rows[r] == threshold[r])[: surplus[r]]] = False
    return kept.astype(np.float32).reshape(shape)


# Elements per block of an elementwise chain: 256 KiB of float64, which
# fits in L2.  An array of one block or less takes the whole-array pass,
# which read 12-18 % faster than blocks at 40x20 and 10x200.
CHUNK = 2 ** 15


def masked_weights(weights: list[np.ndarray], scores: list[np.ndarray],
                   k: float) -> list[np.ndarray]:
    """Each layer's float32 ``weights`` times the top-k mask of its scores
    (of each client's matrix in a cohort's stack), in float64: the matrices
    the forward pass multiplies by.  The float32 product cast up beats
    ``np.multiply(..., dtype=np.float64)``, whose buffered casts cost
    1.5-1.8x at 20-40-10 and at 784-200-10 (timeit)."""
    return [(w * mask_layer(s.reshape(s.shape[:-2] + (-1,)), k).reshape(s.shape))
            .astype(np.float64) for w, s in zip(weights, scores)]


@dataclass
class ForwardCache:
    """Per-layer tensors kept for the backward pass."""

    batch: Minibatch
    weights: list[np.ndarray]                                     # effective weights, float64
    inputs: list[np.ndarray] = field(default_factory=list)        # Z per layer
    pre_activations: list[np.ndarray] = field(default_factory=list)  # I per layer


def forward(specs: list[LayerSpec], weights: list[np.ndarray],
            batch: Minibatch) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass under the effective float64 ``weights``; returns the
    logits and the cache for :func:`backward`.  A cohort's pass takes
    (G, b, fan_in) inputs and one (G, fan_out, fan_in) stack per layer.
    The caller owns numpy's error state: poisoned weights overflow here."""
    x = np.asarray(batch.inputs, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != specs[0].fan_in:
        raise ValueError(f"input width {x.shape} does not match fan_in {specs[0].fan_in}")
    cache = ForwardCache(batch=batch, weights=weights)
    for spec, w in zip(specs, weights):
        cache.inputs.append(x)
        pre = x @ w.swapaxes(-1, -2)
        cache.pre_activations.append(pre)
        x = np.maximum(pre, 0.0) if spec.activation == "relu" else pre
    return cache.pre_activations[-1], cache


def softmax_cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(mean cross-entropy)/d(logits): (softmax - onehot) / batch, per
    client for a cohort's (G, b, classes) logits, in one new array.  The
    caller owns numpy's error state."""
    grad = logits - logits.max(axis=-1, keepdims=True)
    np.exp(grad, out=grad)
    grad /= grad.sum(axis=-1, keepdims=True)
    # x - 0.0 is x, so only each label's entry changes, by exactly - 1.0.
    grad -= labels[..., None] == np.arange(grad.shape[-1])
    grad /= labels.shape[-1]
    return grad


def backward(specs: list[LayerSpec], cache: ForwardCache) -> list[np.ndarray]:
    """dL/dW_eff per layer for mean softmax cross-entropy; gradients flow
    to earlier layers through the cached effective weights."""
    labels = np.asarray(cache.batch.labels, dtype=np.int64)
    dldi = softmax_cross_entropy_grad(cache.pre_activations[-1], labels)
    grads: list[np.ndarray] = [None] * len(specs)
    for i in range(len(specs) - 1, -1, -1):
        grads[i] = dldi.swapaxes(-1, -2) @ cache.inputs[i]
        if i > 0:
            dz = dldi @ cache.weights[i]
            if specs[i - 1].activation == "relu":
                dz *= cache.pre_activations[i - 1] > 0
            dldi = dz
    return grads


def sgd_step(params: list[np.ndarray], grads: list[np.ndarray],
             buffers: list[np.ndarray], sgd: SgdConfig) -> None:
    """One momentum/weight-decay SGD step, in place, float32 parameters;
    elementwise, so a cohort's stacks step as each client's matrices do.
    Contiguous arrays past one CHUNK step block by block through one
    float64 scratch.  The caller owns numpy's error state: a poisoned step
    overflows float32."""
    for p, g, buf in zip(params, grads, buffers):
        if p.size <= CHUNK or not (p.flags.c_contiguous and buf.flags.c_contiguous):
            _sgd_chain(p, g, buf, sgd, p.astype(np.float64))
            continue
        p, g, buf = p.reshape(-1), g.reshape(-1), buf.reshape(-1)
        scratch = np.empty(CHUNK)
        for lo in range(0, p.size, CHUNK):
            b = slice(lo, lo + CHUNK)
            part = scratch[: len(p[b])]
            np.copyto(part, p[b])
            _sgd_chain(p[b], g[b], buf[b], sgd, part)


def _sgd_chain(p: np.ndarray, g: np.ndarray, buf: np.ndarray, sgd: SgdConfig,
               scratch: np.ndarray) -> None:
    """:func:`sgd_step` on one array or block; ``scratch`` holds ``p`` in
    float64 and is overwritten."""
    # Products and sums commute exactly, so this is grad + wd * p and
    # lr * buf bit for bit.
    scratch *= sgd.weight_decay
    scratch += g
    buf *= sgd.momentum
    buf += scratch
    np.multiply(buf, sgd.learning_rate, out=scratch)
    # The step is rounded to float32 first, then subtracted in float32,
    # without a float32 copy of it.
    np.subtract(p, scratch, out=p, dtype=np.float32, casting="same_kind")


def _schedule(batches: list[Minibatch], epochs: int, rng: RngStream) -> list[Minibatch]:
    """One client's batches in training order: ``epochs`` passes, the
    groupings fixed and their order reshuffled from ``rng`` each epoch."""
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if not batches:
        raise ValueError("training data is empty")
    order = list(range(len(batches)))
    steps = []
    for _ in range(epochs):
        rng.shuffle(order)
        steps += [batches[i] for i in order]
    return steps


def _stacked(batches: list[Minibatch]) -> Minibatch:
    return Minibatch(inputs=np.array([b.inputs for b in batches]),
                     labels=np.array([b.labels for b in batches]))


def rows_by_size(sizes) -> dict[int, list[int]]:
    """The positions in ``sizes`` grouped by their size, each group and the
    groups in first-seen order."""
    groups: dict[int, list[int]] = {}
    for row, size in enumerate(sizes):
        groups.setdefault(size, []).append(row)
    return groups


def _grads_by_size(batches: list[Minibatch], stacks: list[np.ndarray], grads_of
                   ) -> list[np.ndarray]:
    """``grads_of(rows of stacks, stacked batch)`` for each group of clients
    whose batches have one size, assembled in row order.  Short batches get
    their own pass, never padding."""
    groups = rows_by_size(len(b.labels) for b in batches)
    if len(groups) == 1:
        return grads_of(stacks, _stacked(batches))
    grads = [np.empty(s.shape, dtype=np.float64) for s in stacks]
    for rows in groups.values():
        part = grads_of([s[rows] for s in stacks], _stacked([batches[r] for r in rows]))
        for g, p in zip(grads, part):
            g[rows] = p
    return grads


def _train(start: list[np.ndarray], grads_of, batches: list[list[Minibatch]],
           epochs: list[int], sgd: SgdConfig, rngs: list[RngStream]) -> list[np.ndarray]:
    """Lockstep SGD for a cohort of G clients from the one starting point
    ``start`` (a float32 matrix per layer).

    Client c makes ``epochs[c]`` passes over ``batches[c]`` in the orders
    ``rngs[c]`` shuffles.  Clients are stacked longest schedule first, so
    the ones still training at a step are a prefix of the stacks; at each
    step ``grads_of(their parameters, their batches)`` gives their
    gradients and one :func:`sgd_step` moves them, all under one numpy
    error state.  Returns each layer's (G, fan_out, fan_in) stack, row c
    client c's.
    """
    schedules = [_schedule(b, e, rng) for b, e, rng in zip(batches, epochs, rngs)]
    rows = sorted(range(len(schedules)), key=lambda c: -len(schedules[c]))
    params = [np.repeat(p[None], len(rows), axis=0) for p in start]
    buffers = [np.zeros(p.shape, dtype=np.float64) for p in params]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(len(schedules[rows[0]])):
            steps = [schedules[c][t] for c in rows if t < len(schedules[c])]
            live = [p[: len(steps)] for p in params]
            sgd_step(live, grads_of(live, steps), [b[: len(steps)] for b in buffers], sgd)
    if rows == sorted(rows):  # always so for one client
        return params
    back = np.argsort(rows)
    return [p[back] for p in params]


def evaluate(specs: list[LayerSpec], weights: list[np.ndarray],
             inputs: np.ndarray, labels: np.ndarray) -> np.ndarray | float:
    """Fraction of argmax-correct predictions under the effective float64
    ``weights`` (``masked_weights`` for edge-popup); a NaN logit never wins.
    One (b, fan_in) set gives one value; a (G, b, fan_in) stack of G sets
    with (G, b) labels gives each set's value, the one it gets alone:
    ``np.matmul`` makes each set's BLAS call as for the set alone (a
    1-sample set's vector product too)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("dataset is empty")
    with np.errstate(over="ignore", invalid="ignore"):
        logits, _ = forward(specs, weights, Minibatch(inputs=np.asarray(inputs), labels=labels))
    preds = np.argmax(np.nan_to_num(logits, nan=-np.inf, posinf=np.inf, neginf=-np.inf), axis=-1)
    return np.mean(preds == labels, axis=-1)


# --- Edge-popup: scores trained over the frozen weights ----------------------


def ep_forward(net: Supernetwork, weights: list[np.ndarray],
               batch: Minibatch) -> tuple[np.ndarray, ForwardCache]:
    """Masked forward pass of a cohort: ``weights`` holds one float64
    (G, fan_out, fan_in) stack per layer, row c ``net``'s shared weights
    times the top-k mask of client c's scores (see :func:`masked_weights`).
    Returns logits and the cache for ep_backward."""
    return forward(net.specs, weights, batch)


def ep_backward(net: Supernetwork, cache: ForwardCache) -> list[np.ndarray]:
    """dL/dW_eff per layer from :func:`ep_forward`'s cache.  Times W, for
    every edge, it is the score gradient (the mask is treated as identity);
    edge_popup_train scales a whole step's gradients at once."""
    return backward(net.specs, cache)


def edge_popup_train(net: Supernetwork, batches: list[list[Minibatch]], epochs: list[int],
                     k: float, sgd: SgdConfig, rngs: list[RngStream]) -> list[np.ndarray]:
    """Train one copy of ``net``'s scores per client of a cohort (see
    :func:`_train`); weights are untouched.  ``net.scores`` become the
    (G, fan_out, fan_in) stacks, which are returned.  Each step masks every
    live client's weights and scales their assembled gradients by W once;
    only the passes run per group of one batch size."""
    def grads_of(scores: list[np.ndarray], steps: list[Minibatch]) -> list[np.ndarray]:
        grads = _grads_by_size(steps, masked_weights(net.weights, scores, k), lambda part, batch:
                               ep_backward(net, ep_forward(net, part, batch)[1]))
        for g, w in zip(grads, net.weights):
            g *= w
        return grads

    net.scores = _train(net.scores, grads_of, batches, epochs, sgd, rngs)
    return net.scores


# --- Dense (weight-trained) entries for the baseline protocols ---------------


def dense_weight_grads(weights: list[np.ndarray], specs: list[LayerSpec],
                       batch: Minibatch) -> list[np.ndarray]:
    """dL/dW per layer at float32 ``weights``: matrices, or a cohort's
    stacks with a stacked batch."""
    _, cache = forward(specs, [w.astype(np.float64) for w in weights], batch)
    return backward(specs, cache)


def dense_train(weights: list[np.ndarray], specs: list[LayerSpec],
                batches: list[list[Minibatch]], epochs: list[int], sgd: SgdConfig,
                rngs: list[RngStream]) -> list[np.ndarray]:
    """Plain weight training of a cohort from the same ``weights``, with the
    trainer edge_popup_train uses; returns the (G, fan_out, fan_in) stacks."""
    def grads_of(live: list[np.ndarray], steps: list[Minibatch]) -> list[np.ndarray]:
        return _grads_by_size(steps, live, lambda part, batch:
                              dense_weight_grads(part, specs, batch))

    return _train([np.asarray(w, dtype=np.float32) for w in weights], grads_of,
                  batches, epochs, sgd, rngs)


def dense_evaluate(weights: list[np.ndarray], specs: list[LayerSpec],
                   inputs: np.ndarray, labels: np.ndarray) -> np.ndarray | float:
    return evaluate(specs, [w.astype(np.float64, copy=False) for w in weights],
                    inputs, labels)


def flatten_params(mats: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([m.astype(np.float64).ravel() for m in mats])


def unflatten_params(vec: np.ndarray, specs: list[LayerSpec]) -> list[np.ndarray]:
    out, pos = [], 0
    for sp in specs:
        n = sp.n_edges
        # poisoned updates can exceed float32 range; saturating to inf is fine
        with np.errstate(over="ignore"):
            mat = np.asarray(vec[pos : pos + n], dtype=np.float32)
        out.append(mat.reshape(sp.fan_out, sp.fan_in))
        pos += n
    if pos != len(vec):
        raise ValueError("parameter vector does not match the architecture")
    return out
