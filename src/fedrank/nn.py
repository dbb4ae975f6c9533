"""Fixed-weight score-trained network, the edge-popup local trainer and the
dense trainer of the weight-based baselines, on one network core.

Layers are bias-free fully connected maps stored as (fan_out, fan_in)
float32 matrices.  :func:`forward` and :func:`backward` run on effective
float64 weights: W * mask for edge-popup, whose mask keeps the top-k scored
edges per layer, and W itself for dense training.  The backward pass
returns dL/dW_eff.  Dense training steps W along it; edge-popup's score
gradient is dL/dW_eff * W for every edge, masked or not (the
straight-through estimator), and its weights never change.  One epoch loop
and one accuracy rule serve both.  All reductions run in float64;
parameters stay float32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import InitKind, RngStream, TAG_SCORES, TAG_WEIGHTS, derive, init_scores, init_weights
from .ranking import argsort_ranking, finite_flat, keep_count, reorder_scores

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
    """Fixed random weights plus mutable per-edge scores, layer by layer."""

    def __init__(self, specs: list[LayerSpec], weights: list[np.ndarray],
                 scores: list[np.ndarray]):
        validate_architecture(specs)
        self.specs = specs
        self.weights = []
        for w in weights:
            w = np.asarray(w)
            # A read-only float32 array is taken as frozen and shared, so
            # rebuilds from one SeedNetwork hold no copies of the weights.
            if w.dtype != np.float32 or w.flags.writeable:
                w = np.array(w, dtype=np.float32)  # own copy, frozen below
                w.flags.writeable = False
            self.weights.append(w)
        self.scores = [np.array(s, dtype=np.float32) for s in scores]
        for spec, w, s in zip(specs, self.weights, self.scores):
            if w.shape != (spec.fan_out, spec.fan_in) or s.shape != w.shape:
                raise ValueError("weight/score shapes do not match the specs")

    @classmethod
    def from_seed(cls, seed: int, specs: list[LayerSpec],
                  weight_init: InitKind = InitKind.SIGNED_KAIMING_CONSTANT) -> "Supernetwork":
        """Reconstruct the network any party can build from the shared seed.

        One tagged sub-stream fills all weight matrices in layer order, a
        second fills all score matrices, so server and clients agree
        bitwise.
        """
        w_rng = derive(seed, [TAG_WEIGHTS])
        s_rng = derive(seed, [TAG_SCORES])
        weights = [init_weights((sp.fan_out, sp.fan_in), weight_init, w_rng) for sp in specs]
        scores = [init_scores((sp.fan_out, sp.fan_in), s_rng) for sp in specs]
        return cls(specs, weights, scores)

    def reorder_all_scores(self, ranking: list[np.ndarray]) -> None:
        """Overwrite scores so their layer-wise order matches ``ranking``,
        handing out the current scores, stably sorted."""
        for i, (s, perm) in enumerate(zip(self.scores, ranking)):
            values = np.sort(s.ravel(), kind="stable")
            self.scores[i] = reorder_scores(values, perm).reshape(s.shape)

    def score_rankings(self) -> list[np.ndarray]:
        return [argsort_ranking(s) for s in self.scores]


class SeedNetwork:
    """The network every party builds from the shared seed, built once.

    Holds the frozen weights, the initial ranking and each layer's initial
    scores sorted ascending (stable sort), all read-only, so the client
    threads of a round can share one.  :meth:`rebuild` gives each caller
    its own trainable scores.
    """

    def __init__(self, seed: int, specs: list[LayerSpec],
                 weight_init: InitKind = InitKind.SIGNED_KAIMING_CONSTANT):
        net = Supernetwork.from_seed(seed, specs, weight_init)
        self.specs = specs
        self.weights = net.weights
        self.ranking = net.score_rankings()
        self.sorted_scores = [s.ravel()[r] for s, r in zip(net.scores, self.ranking)]
        for a in self.ranking + self.sorted_scores:
            a.flags.writeable = False

    def rebuild(self, ranking: list[np.ndarray]) -> Supernetwork:
        """What ``from_seed`` then ``reorder_all_scores(ranking)`` gives,
        without drawing the weights or sorting the scores again."""
        scores = [reorder_scores(v, perm).reshape(w.shape)
                  for v, perm, w in zip(self.sorted_scores, ranking, self.weights)]
        return Supernetwork(self.specs, self.weights, scores)


def mask_layer(scores: np.ndarray, k: float) -> np.ndarray:
    """Binary mask keeping the top-k fraction of edges by score.

    Ties go to the lower flat index first in the ascending order, so equal
    scores are dropped from index 0 upward: of the scores equal to the
    smallest kept value, the highest flat indices are kept.  The threshold
    comes from a selection, not a sort, in float32 for float32 scores and
    in float64 otherwise (see :func:`finite_flat`).
    """
    flat = finite_flat(scores)
    keep = keep_count(flat.size, k)
    if not keep:
        return np.zeros(np.shape(scores), dtype=np.float32)
    threshold = np.partition(flat, flat.size - keep)[flat.size - keep]
    above = flat > threshold
    mask = above.astype(np.float32)
    ties = np.flatnonzero(flat == threshold)
    mask[ties[len(ties) - (keep - int(np.count_nonzero(above))):]] = 1.0
    return mask.reshape(np.shape(scores))


def masked_weights(net: Supernetwork, k: float) -> list[np.ndarray]:
    """Each layer's weights times its top-k mask, in float64: the matrices
    the forward pass multiplies by."""
    return [(w * mask_layer(s, k)).astype(np.float64)
            for w, s in zip(net.weights, net.scores)]


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
    logits and the cache for :func:`backward`."""
    x = np.asarray(batch.inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != specs[0].fan_in:
        raise ValueError(f"input width {x.shape} does not match fan_in {specs[0].fan_in}")
    cache = ForwardCache(batch=batch, weights=weights)
    for spec, w in zip(specs, weights):
        cache.inputs.append(x)
        with np.errstate(over="ignore", invalid="ignore"):
            pre = x @ w.T
        cache.pre_activations.append(pre)
        x = np.maximum(pre, 0.0) if spec.activation == "relu" else pre
    return cache.pre_activations[-1], cache


def softmax_cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(mean cross-entropy)/d(logits): (softmax - onehot) / batch."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(shifted)
        probs = e / e.sum(axis=1, keepdims=True)
    grad = probs
    grad[np.arange(len(labels)), labels] -= 1.0
    return grad / len(labels)


def backward(specs: list[LayerSpec], cache: ForwardCache) -> list[np.ndarray]:
    """dL/dW_eff per layer for mean softmax cross-entropy; gradients flow
    to earlier layers through the cached effective weights."""
    labels = np.asarray(cache.batch.labels, dtype=np.int64)
    dldi = softmax_cross_entropy_grad(cache.pre_activations[-1], labels)
    grads: list[np.ndarray] = [None] * len(specs)
    for i in range(len(specs) - 1, -1, -1):
        grads[i] = dldi.T @ cache.inputs[i]
        if i > 0:
            dz = dldi @ cache.weights[i]
            if specs[i - 1].activation == "relu":
                dz = dz * (cache.pre_activations[i - 1] > 0)
            dldi = dz
    return grads


def sgd_step(params: list[np.ndarray], grads: list[np.ndarray],
             buffers: list[np.ndarray], sgd: SgdConfig) -> None:
    """One momentum/weight-decay SGD step, in place, float32 parameters."""
    for p, g, buf in zip(params, grads, buffers):
        # One float64 scratch array per layer; products and sums commute
        # exactly, so this is grad + wd * p and lr * buf bit for bit.
        scratch = p.astype(np.float64)
        scratch *= sgd.weight_decay
        scratch += g
        buf *= sgd.momentum
        buf += scratch
        np.multiply(buf, sgd.learning_rate, out=scratch)
        with np.errstate(over="ignore"):
            p -= scratch.astype(np.float32)


def _train(params: list[np.ndarray], grads_of, batches: list[Minibatch], epochs: int,
           sgd: SgdConfig, rng: RngStream) -> list[np.ndarray]:
    """``epochs`` SGD passes over ``params`` with ``grads_of(batch)``.

    Batch groupings are fixed; only their order is reshuffled each epoch
    from ``rng``.  Returns ``params``, updated in place.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if not batches:
        raise ValueError("training data is empty")
    buffers = [np.zeros(p.shape, dtype=np.float64) for p in params]
    order = np.arange(len(batches))
    for _ in range(epochs):
        rng.shuffle(order)
        for bi in order:
            sgd_step(params, grads_of(batches[bi]), buffers, sgd)
    return params


def evaluate(specs: list[LayerSpec], weights: list[np.ndarray],
             inputs: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax-correct predictions under the effective float64
    ``weights`` (``masked_weights`` for edge-popup); a NaN logit never wins."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) == 0:
        raise ValueError("dataset is empty")
    logits, _ = forward(specs, weights, Minibatch(inputs=np.asarray(inputs), labels=labels))
    preds = np.argmax(np.nan_to_num(logits, nan=-np.inf, posinf=np.inf, neginf=-np.inf), axis=1)
    return float(np.mean(preds == labels))


# --- Edge-popup: scores trained over the frozen weights ----------------------


def ep_forward(net: Supernetwork, k: float, batch: Minibatch) -> tuple[np.ndarray, ForwardCache]:
    """Masked forward pass; returns logits and the cache for ep_backward."""
    return forward(net.specs, masked_weights(net, k), batch)


def ep_backward(net: Supernetwork, cache: ForwardCache) -> list[np.ndarray]:
    """Score gradients per layer from :func:`ep_forward`'s cache: dL/dW_eff
    times W, for every edge (the mask is treated as identity)."""
    grads = backward(net.specs, cache)
    for g, w in zip(grads, net.weights):
        g *= w
    return grads


def edge_popup_train(net: Supernetwork, batches: list[Minibatch], epochs: int,
                     k: float, sgd: SgdConfig, rng: RngStream) -> list[np.ndarray]:
    """Train scores for ``epochs`` passes; weights are untouched.
    Returns the (mutated) score matrices."""
    def grads_of(batch: Minibatch) -> list[np.ndarray]:
        _, cache = ep_forward(net, k, batch)
        return ep_backward(net, cache)

    return _train(net.scores, grads_of, batches, epochs, sgd, rng)


# --- Dense (weight-trained) entries for the baseline protocols ---------------


def dense_weight_grads(weights: list[np.ndarray], specs: list[LayerSpec],
                       batch: Minibatch) -> list[np.ndarray]:
    _, cache = forward(specs, [w.astype(np.float64) for w in weights], batch)
    return backward(specs, cache)


def dense_train(weights: list[np.ndarray], specs: list[LayerSpec],
                batches: list[Minibatch], epochs: int, sgd: SgdConfig,
                rng: RngStream) -> list[np.ndarray]:
    """Plain weight training with the loop edge_popup_train uses."""
    weights = [np.array(w, dtype=np.float32) for w in weights]
    return _train(weights, lambda batch: dense_weight_grads(weights, specs, batch),
                  batches, epochs, sgd, rng)


def dense_evaluate(weights: list[np.ndarray], specs: list[LayerSpec],
                   inputs: np.ndarray, labels: np.ndarray) -> float:
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
