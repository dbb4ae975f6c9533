"""The round engine: rank-vote training and the weight-based baselines,
with client sampling and per-round metrics.

One rank round serves both rank algorithms.  Clients upload the top s
fraction of each layer ranking, s = ``sparsity`` for ``sparse_fsl`` and
s = 1 for ``fsl``, so the full vote is the sparse vote over whole rankings.

A round only advances the server state: it samples its clients, trains
each once (attackers too, who then turn their own results into what they
submit) and votes or aggregates the next state.  :func:`run_experiment`
is the one loop, and alone evaluates and records.  The sampled clients
train in cohorts of consecutive clients, each layer one stacked array
that ``nn`` trains in lockstep.  :func:`cohort_size` fits as many clients
as COHORT_BYTES holds at 8 bytes per edge, at least one: all 25 of a
1,200-edge desk round, one at 784-200-10, whose layers already run inside
numpy.  The seed network, a read-only ``nn.Supernetwork``, is drawn once
per run by ``initial_state`` and carried in the ``ServerState``, with
read-only scores for the state's ranking: the seed draw's own for the
initial state, and one ``reorder_all_scores`` rebuild of the voted ranking
per rank round after it; weight protocols draw the seed's weights alone.
Every cohort of the next round starts from those scores, since its clients
all adopt the global ranking, and the evaluation masks them as they are.  A
round trains its cohorts in order; a rank round tallies each cohort's
rankings before the next trains.

Determinism contract: every random choice comes from a stream derived from
the experiment seed and purpose tags (sampling uses [TAG_SAMPLING, round],
client training [TAG_TRAIN, round, client_id]), and each client's result is
the same whatever cohort it trains in, so results are identical across
runs.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import adversary
from .adversary import AttackConfig, AttackKind
from .aggregation import average, multi_krum, sign_majority, trimmed_mean
from .analytics import CostReport, comm_cost
from .data import ClientShards, Dataset, dirichlet_partition, gen_blobs, load_idx
from .nn import (LayerSpec, Minibatch, SgdConfig, Supernetwork, dense_evaluate,
                 dense_train, edge_popup_train, evaluate, flatten_params,
                 masked_weights, require_finite, seed_weights, unflatten_params,
                 validate_architecture)
from .ranking import LayerTally, NetworkRanking, floor_count, keep_count, stable_order
from .rng import InitKind, TAG_DATA, TAG_PARTITION, TAG_SAMPLING, TAG_TRAIN, derive


class Algorithm(str, Enum):
    FSL = "fsl"
    SPARSE_FSL = "sparse_fsl"
    FEDAVG = "fedavg"
    SIGNSGD = "signsgd"
    TOPK = "topk"


class Aggregator(str, Enum):
    AVERAGE = "average"
    TRIMMED_MEAN = "trimmed_mean"
    MULTI_KRUM = "multi_krum"


class DatasetKind(str, Enum):
    BLOBS = "blobs"
    IDX = "idx"


RANK_ALGORITHMS = (Algorithm.FSL, Algorithm.SPARSE_FSL)


@dataclass
class DatasetSpec:
    kind: DatasetKind = DatasetKind.BLOBS
    blob_classes: int = 10
    blob_dims: int = 20
    blob_samples_per_class: int = 200
    blob_cluster_std: float = 1.0
    blob_separation: float | None = None
    idx_images: str | None = None
    idx_labels: str | None = None


@dataclass
class ExperimentConfig:
    """Every protocol hyperparameter needed to reproduce a run."""

    algorithm: Algorithm = Algorithm.FSL
    rounds: int = 200
    num_clients: int = 100
    clients_per_round: int = 25
    local_epochs: int = 2
    subnet_fraction: float = 0.5
    sparsity: float = 1.0  # rank fraction for sparse_fsl, kept fraction for topk
    aggregator: Aggregator = Aggregator.AVERAGE
    server_lr: float = 0.01
    sgd: SgdConfig = field(default_factory=lambda: SgdConfig(0.4, 0.9, 1e-4, 8))
    attack: AttackConfig = field(default_factory=AttackConfig)
    seed: int = 1
    architecture: list[LayerSpec] = field(
        default_factory=lambda: [LayerSpec(20, 40, "relu"), LayerSpec(40, 10, "identity")])
    weight_init: InitKind = InitKind.SIGNED_KAIMING_CONSTANT
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    dirichlet_alpha: float = 1.0
    eval_every: int = 10

    def validate(self) -> None:
        self.algorithm = Algorithm(self.algorithm)
        self.aggregator = Aggregator(self.aggregator)
        self.weight_init = InitKind(self.weight_init)
        self.dataset.kind = DatasetKind(self.dataset.kind)
        require_finite(self, "server_lr", "dirichlet_alpha")
        require_finite(self.dataset, "blob_cluster_std", "blob_separation")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if not 1 <= self.clients_per_round <= self.num_clients:
            raise ValueError("clients_per_round must be in [1, num_clients]")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if not 0.0 < self.subnet_fraction <= 1.0:
            raise ValueError("subnet_fraction must be in (0, 1]")
        if not 0.0 < self.sparsity <= 1.0:
            raise ValueError("sparsity must be in (0, 1]")
        if not 0 <= self.seed < 2**32:
            raise ValueError("seed must fit in 32 bits")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.server_lr <= 0:
            raise ValueError("server_lr must be > 0")
        if self.dirichlet_alpha <= 0:
            raise ValueError("dirichlet_alpha must be > 0")
        self.sgd.validate()
        self.attack.validate()
        validate_architecture(self.architecture)
        spec, first, last = self.dataset, self.architecture[0], self.architecture[-1]
        if spec.kind is DatasetKind.BLOBS:  # build_environment checks idx data once it is loaded
            if min(spec.blob_classes, spec.blob_samples_per_class) < 1:
                raise ValueError("blob_classes and blob_samples_per_class must be >= 1")
            if spec.blob_cluster_std < 0:
                raise ValueError("blob_cluster_std must be >= 0")
            if spec.blob_dims != first.fan_in:
                raise ValueError(f"blob_dims = {spec.blob_dims} does not match the "
                                 f"first layer's fan-in {first.fan_in}")
            if spec.blob_classes > last.fan_out:
                raise ValueError(f"blob_classes = {spec.blob_classes} exceeds the last "
                                 f"layer's fan-out {last.fan_out}")
        elif spec.idx_images is None or spec.idx_labels is None:
            raise ValueError("idx_images and idx_labels are required for dataset = idx")
        if self.algorithm is Algorithm.TOPK and self.aggregator is not Aggregator.AVERAGE:
            raise ValueError("topk only supports the average aggregator")
        kind = self.attack.kind
        if kind is AttackKind.RANK_REVERSAL and self.algorithm not in RANK_ALGORITHMS:
            raise ValueError("rank_reversal only applies to ranking protocols")
        if kind in (AttackKind.SCALE, AttackKind.OPT_POISON) and self.algorithm in RANK_ALGORITHMS:
            raise ValueError(f"{kind.value} only applies to weight-based protocols")
        if self.algorithm is Algorithm.FEDAVG:
            n = self.clients_per_round
            f = floor_count(n, self.attack.malicious_fraction)  # the f baseline_round tolerates
            of_f = f"(f = int(malicious_fraction * clients_per_round) = {f}), got {n}"
            if self.aggregator is Aggregator.MULTI_KRUM and n < f + 3:
                raise ValueError(f"multi_krum needs clients_per_round >= f + 3 = {f + 3} {of_f}")
            if self.aggregator is Aggregator.TRIMMED_MEAN and n <= 2 * f:
                raise ValueError(f"trimmed_mean needs clients_per_round > 2 * f = {2 * f} {of_f}")


@dataclass
class ServerState:
    """What the server carries between rounds.

    Ranking protocols hold a permutation family, the network every party
    rebuilds from the seed, drawn once per run, and each layer's read-only
    float32 scores for the ranking, built once when the state is made
    (``seed_net.reorder_all_scores(ranking)``); weight protocols hold the
    flat global parameter vector.
    """

    ranking: NetworkRanking | None = None
    weights: np.ndarray | None = None
    seed_net: Supernetwork | None = None
    scores: list[np.ndarray] | None = None


@dataclass
class RoundRecord:
    round: int
    selected: list[int]
    mean_acc: float
    std_acc: float
    min_acc: float
    max_acc: float
    upload_bits: float
    download_bits: float
    attack_active: bool


@dataclass
class Environment:
    """Immutable per-experiment context shared by every round."""

    dataset: Dataset  # unread; ROADMAP ("fresh_pages gauge") says why it stays
    shards: ClientShards
    train_batches: list[list[Minibatch]]
    test_sets: list[Minibatch]
    cost: CostReport


def _client_batches(dataset: Dataset, idx: np.ndarray, batch_size: int) -> list[Minibatch]:
    feats = dataset.features[idx]
    labels = dataset.labels[idx]
    return [Minibatch(inputs=feats[i : i + batch_size], labels=labels[i : i + batch_size])
            for i in range(0, len(idx), batch_size)]


def build_environment(cfg: ExperimentConfig) -> Environment:
    cfg.validate()
    spec = cfg.dataset
    if spec.kind is DatasetKind.BLOBS:
        dataset = gen_blobs(spec.blob_classes, spec.blob_dims, spec.blob_samples_per_class,
                            spec.blob_cluster_std, derive(cfg.seed, [TAG_DATA]),
                            separation=spec.blob_separation)
    else:
        dataset = load_idx(spec.idx_images, spec.idx_labels)
    if dataset.features.shape[1] != cfg.architecture[0].fan_in:
        raise ValueError("dataset dimensionality does not match the first layer")
    if dataset.num_classes > cfg.architecture[-1].fan_out:
        raise ValueError("architecture has fewer outputs than classes")
    if cfg.num_clients > len(dataset.labels):  # before a partition linear in num_clients
        raise ValueError(f"num_clients = {cfg.num_clients} exceeds the dataset's "
                         f"{len(dataset.labels)} samples")
    shards = dirichlet_partition(dataset.labels, cfg.num_clients, cfg.dirichlet_alpha,
                                 derive(cfg.seed, [TAG_PARTITION]))
    for c, idx in enumerate(shards.train):
        if len(idx) == 0:
            raise ValueError(f"client {c} gets no training samples ({len(dataset.labels)} "
                             f"samples over {cfg.num_clients} clients)")
    batches = [_client_batches(dataset, idx, cfg.sgd.batch_size) for idx in shards.train]
    tests = [Minibatch(dataset.features[idx], dataset.labels[idx]) for idx in shards.test]
    cost = comm_cost([sp.n_edges for sp in cfg.architecture], cfg.algorithm.value,
                     cfg.sparsity)
    return Environment(dataset=dataset, shards=shards, train_batches=batches,
                       test_sets=tests, cost=cost)


def initial_state(cfg: ExperimentConfig) -> ServerState:
    if cfg.algorithm in RANK_ALGORITHMS:
        seed_net = Supernetwork.from_seed(cfg.seed, cfg.architecture, cfg.weight_init)
        return ServerState(ranking=seed_net.ranking, seed_net=seed_net, scores=seed_net.scores)
    return ServerState(weights=flatten_params(
        seed_weights(cfg.seed, cfg.architecture, cfg.weight_init)))


def select_clients(cfg: ExperimentConfig, round_index: int) -> list[int]:
    stream = derive(cfg.seed, [TAG_SAMPLING, round_index])
    picked = stream.sample_without_replacement(cfg.num_clients, cfg.clients_per_round)
    return [int(u) for u in picked]


def fsl_client_update(seed_net: Supernetwork, scores: list[np.ndarray],
                      batches: list[list[Minibatch]], epochs: list[int], k: float,
                      sgd: SgdConfig, rngs: list) -> list[np.ndarray]:
    """One cohort's round: start from the global ranking's read-only
    ``scores`` (a ``ServerState``'s) over the seed network's weights, train
    every client's scores locally (client c on ``batches[c]`` for
    ``epochs[c]`` epochs, shuffled by ``rngs[c]``), and return the cohort's
    new rankings as one (G, n) block per layer, row c client c's ranking,
    as :meth:`Supernetwork.score_rankings` made it.
    :meth:`ranking.LayerTally.add` takes such a block as it is."""
    return seed_net.score_rankings(edge_popup_train(seed_net, scores, batches, epochs, k,
                                                    sgd, rngs))


COHORT_BYTES = 256 * 1024


def cohort_size(specs: list[LayerSpec]) -> int:
    """Clients per training cohort: as many as fit COHORT_BYTES at 8 bytes
    per edge, at least one."""
    return max(1, COHORT_BYTES // (8 * sum(sp.n_edges for sp in specs)))


def _train_clients(cfg: ExperimentConfig, env: Environment, round_index: int,
                   train) -> tuple[list[int], list[int], Iterator]:
    """Sample the round's clients; return them, the positions among them of
    the malicious ones, and, lazily, each cohort of cohort_size consecutive
    clients, in client order, as the position of its first client and
    ``train(batches, epochs, rngs)`` of the cohort.  Client u trains on its
    stream [TAG_TRAIN, round, u], attackers for ``attack.epochs`` if set;
    ``validate`` ties each attack kind to one family."""
    selected = select_clients(cfg, round_index)
    n_mal = cfg.attack.malicious_count(cfg.num_clients)
    mal = [i for i, u in enumerate(selected) if u < n_mal]
    epochs = [(cfg.attack.epochs or cfg.local_epochs) if u < n_mal else cfg.local_epochs
              for u in selected]
    prefix = derive(cfg.seed, [TAG_TRAIN, round_index])
    rngs = [prefix.child(u) for u in selected]
    batches = [env.train_batches[u] for u in selected]
    size = cohort_size(cfg.architecture)
    return selected, mal, ((i, train(batches[i:i + size], epochs[i:i + size], rngs[i:i + size]))
                           for i in range(0, len(selected), size))


def _evaluate_ranking(cfg: ExperimentConfig, env: Environment,
                      state: ServerState) -> np.ndarray:
    """Per-client test accuracy of the state's global subnetwork: the seed
    weights under its scores' mask, built once for every test set."""
    weights = masked_weights(state.seed_net.weights, state.scores, cfg.subnet_fraction)
    return evaluate(cfg.architecture, weights, env.test_sets)


def _evaluate_weights(cfg: ExperimentConfig, env: Environment,
                      state: ServerState) -> np.ndarray:
    return dense_evaluate(unflatten_params(state.weights, cfg.architecture),
                          cfg.architecture, env.test_sets)


def _record(env: Environment, round_index: int, selected: list[int],
            attack_active: bool, accs: np.ndarray) -> RoundRecord:
    if len(accs) == 0:
        stats = (math.nan,) * 4
    else:
        stats = (float(accs.mean()), float(accs.std()), float(accs.min()), float(accs.max()))
    return RoundRecord(round=round_index, selected=selected,
                       mean_acc=stats[0], std_acc=stats[1], min_acc=stats[2],
                       max_acc=stats[3], upload_bits=env.cost.upload_bits,
                       download_bits=env.cost.download_bits,
                       attack_active=attack_active)


def fsl_round(state: ServerState, env: Environment, cfg: ExperimentConfig,
              round_index: int) -> tuple[ServerState, list[int], bool]:
    """One rank-vote round of fsl or sparse_fsl; returns the next state, the
    sampled clients and whether any of them attacked.  Each layer ranking,
    cut to its top s fraction (s = 1 for fsl, which ignores ``sparsity``),
    goes into its layer's tally as its cohort returns.  Attackers' rows go
    instead, uncut, into one colluders' tally per layer, whose reversed
    order (:func:`adversary.craft_rank_poison`) is added once per attacker.
    The next state's scores are the one rebuild of the voted ranking."""
    s = cfg.sparsity if cfg.algorithm is Algorithm.SPARSE_FSL else 1.0
    tallies = [LayerTally(len(layer), s) for layer in state.ranking]
    selected, mal, cohorts = _train_clients(
        cfg, env, round_index, lambda batches, epochs, rngs: fsl_client_update(
            state.seed_net, state.scores, batches, epochs, cfg.subnet_fraction, cfg.sgd, rngs))
    own = [LayerTally(len(layer)) for layer in state.ranking] if mal else []
    for first, blocks in cohorts:
        bad = [i - first for i in mal if 0 <= i - first < len(blocks[0])]
        for li, (tally, block) in enumerate(zip(tallies, blocks, strict=True)):
            tally.add(np.delete(block, bad, axis=0) if bad else block)
            for g in bad:
                own[li].add(block[g])
        del blocks, block  # not held while the next cohort trains
    if mal:
        for tally, layer in zip(tallies, adversary.craft_rank_poison(own)):
            for _ in mal:
                tally.add(layer)
    ranking = [tally.order() for tally in tallies]
    net = state.seed_net
    return (ServerState(ranking=ranking, seed_net=net, scores=net.reorder_all_scores(ranking)),
            selected, bool(mal))


def fedavg_client_update(weights: np.ndarray, specs: list[LayerSpec],
                         batches: list[list[Minibatch]], epochs: list[int], sgd: SgdConfig,
                         rngs: list) -> list[np.ndarray]:
    """Local dense training of a cohort from the global ``weights``; each
    client's update is its float64 parameter delta."""
    trained = dense_train(unflatten_params(weights, specs), specs, batches,
                          epochs, sgd, rngs)
    return [flatten_params([t[c] for t in trained]) - weights for c in range(len(rngs))]


def _topk_sparsify(delta: np.ndarray, specs: list[LayerSpec], fraction: float) -> np.ndarray:
    """Layer-wise top-|value| filter; ties keep the lower index."""
    out = np.zeros_like(delta)
    pos = 0
    for sp in specs:
        n = sp.n_edges
        seg = delta[pos : pos + n]
        keep = keep_count(n, fraction)
        kept = stable_order(-np.abs(seg))[:keep]
        out[pos + kept] = seg[kept]
        pos += n
    return out


def baseline_round(state: ServerState, env: Environment, cfg: ExperimentConfig,
                   round_index: int) -> tuple[ServerState, list[int], bool]:
    """One round of a weight-based protocol (fedavg, signsgd or topk);
    returns what :func:`fsl_round` does."""
    selected, mal, parts = _train_clients(
        cfg, env, round_index, lambda batches, epochs, rngs: fedavg_client_update(
            state.weights, cfg.architecture, batches, epochs, cfg.sgd, rngs))
    updates = [delta for _, part in parts for delta in part]
    if mal and cfg.attack.kind is AttackKind.SCALE:
        for i in mal:
            updates[i] = adversary.craft_scale_attack(updates[i], cfg.attack.scale_factor)
    elif mal and cfg.attack.kind is AttackKind.OPT_POISON:
        crafted = adversary.craft_opt_poison(
            [updates[i] for i in mal], cfg.attack.omega_kind, cfg.attack.gamma_init,
            cfg.attack.gamma_iters)
        for i in mal:
            updates[i] = crafted
    f = floor_count(len(updates), cfg.attack.malicious_fraction)

    if cfg.algorithm is Algorithm.SIGNSGD:
        new_weights = state.weights - cfg.server_lr * sign_majority(updates)
    else:
        if cfg.algorithm is Algorithm.TOPK:  # validate ties topk to average
            updates = [_topk_sparsify(u, cfg.architecture, cfg.sparsity) for u in updates]
        if cfg.aggregator is Aggregator.AVERAGE:
            agg = average(updates)
        elif cfg.aggregator is Aggregator.TRIMMED_MEAN:
            agg = trimmed_mean(updates, f)
        else:
            agg = multi_krum(updates, selected, f)
        new_weights = state.weights + agg

    return ServerState(weights=new_weights), selected, bool(mal)


def run_experiment(cfg: ExperimentConfig, workers: int = 1, env: Environment | None = None,
                   on_eval=None) -> list[RoundRecord]:
    """Run all rounds; the state is evaluated and recorded at eval points
    (and the last round), each record passed to ``on_eval(record, state)``,
    if given, as it is made.  A ValueError from a round, its evaluation or
    ``on_eval`` is re-raised naming the round.  ``workers`` must be 1:
    rounds train their cohorts in order, and the parameter stays only while
    ``bench/workloads.py`` passes it."""
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}")
    cfg.validate()
    if env is None:
        env = build_environment(cfg)
    state = initial_state(cfg)
    # Read from the module on each call, so wrappers set on its attributes see them.
    round_fn, evaluate_fn = ((fsl_round, _evaluate_ranking) if cfg.algorithm in RANK_ALGORITHMS
                             else (baseline_round, _evaluate_weights))
    records: list[RoundRecord] = []
    for t in range(1, cfg.rounds + 1):
        try:
            state, selected, attack_active = round_fn(state, env, cfg, t)
            if t % cfg.eval_every == 0 or t == cfg.rounds:
                records.append(_record(env, t, selected, attack_active,
                                       evaluate_fn(cfg, env, state)))
                if on_eval is not None:
                    on_eval(records[-1], state)
        except ValueError as exc:
            raise ValueError(f"round {t}: {exc}") from exc
    return records
