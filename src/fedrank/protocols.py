"""The round engine: rank-vote training, its sparse variant, and the
weight-based baselines, with client sampling and per-round metrics.

Determinism contract: every random choice comes from a stream derived from
the experiment seed and purpose tags (sampling uses [TAG_SAMPLING, round],
client training [TAG_TRAIN, round, client_id]), so results are identical
across runs and across worker counts.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import adversary
from .adversary import AttackConfig, AttackKind
from .aggregation import (ModelUpdate, average, multi_krum, sign_majority,
                          signs_of, trimmed_mean)
from .analytics import CostReport, comm_cost
from .data import ClientShards, Dataset, dirichlet_partition, gen_blobs, load_idx
from .nn import (LayerSpec, Minibatch, SeedNetwork, SgdConfig, Supernetwork,
                 dense_evaluate, dense_train, edge_popup_train, evaluate,
                 flatten_params, masked_weights, unflatten_params,
                 validate_architecture)
from .ranking import (NetworkRanking, keep_count, sparse_vote,
                      truncate_ranking, vote_network)
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


RANK_ALGORITHMS = (Algorithm.FSL, Algorithm.SPARSE_FSL)
DATASET_KINDS = ("blobs", "idx")


@dataclass
class DatasetSpec:
    kind: str = "blobs"  # one of DATASET_KINDS
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
        validate_architecture(self.architecture)
        if self.algorithm is Algorithm.TOPK and self.aggregator is not Aggregator.AVERAGE:
            raise ValueError("topk only supports the average aggregator")
        kind = self.attack.kind
        if kind is AttackKind.RANK_REVERSAL and self.algorithm not in RANK_ALGORITHMS:
            raise ValueError("rank_reversal only applies to ranking protocols")
        if kind in (AttackKind.SCALE, AttackKind.OPT_POISON) and self.algorithm in RANK_ALGORITHMS:
            raise ValueError(f"{kind.value} only applies to weight-based protocols")
        if self.algorithm is Algorithm.FEDAVG:
            n = self.clients_per_round
            f = int(self.attack.malicious_fraction * n)  # the f baseline_round tolerates
            of_f = f"(f = int(malicious_fraction * clients_per_round) = {f}), got {n}"
            if self.aggregator is Aggregator.MULTI_KRUM and n < f + 3:
                raise ValueError(f"multi_krum needs clients_per_round >= f + 3 = {f + 3} {of_f}")
            if self.aggregator is Aggregator.TRIMMED_MEAN and n <= 2 * f:
                raise ValueError(f"trimmed_mean needs clients_per_round > 2 * f = {2 * f} {of_f}")

    @property
    def attack_epochs(self) -> int:
        return self.attack.epochs if self.attack.epochs is not None else self.local_epochs


@dataclass
class ServerState:
    """What the server carries between rounds.

    Ranking protocols hold only a permutation family; weight protocols
    hold the flat global parameter vector.
    """

    round: int = 0
    ranking: NetworkRanking | None = None
    weights: np.ndarray | None = None


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
    """Immutable per-experiment context shared by every round.

    ``seed_net`` is the network rebuilt from the seed, which
    ``run_experiment`` adds for the rank protocols; without it every
    rebuild draws the network from the seed again.
    """

    dataset: Dataset
    shards: ClientShards
    train_batches: list[list[Minibatch]]
    test_sets: list[tuple[np.ndarray, np.ndarray]]
    cost: CostReport
    seed_net: SeedNetwork | None = None


def _client_batches(dataset: Dataset, idx: np.ndarray, batch_size: int) -> list[Minibatch]:
    feats = dataset.features[idx]
    labels = dataset.labels[idx]
    return [Minibatch(inputs=feats[i : i + batch_size], labels=labels[i : i + batch_size])
            for i in range(0, len(idx), batch_size)]


def build_environment(cfg: ExperimentConfig) -> Environment:
    cfg.validate()
    spec = cfg.dataset
    if spec.kind == "blobs":
        dataset = gen_blobs(spec.blob_classes, spec.blob_dims, spec.blob_samples_per_class,
                            spec.blob_cluster_std, derive(cfg.seed, [TAG_DATA]),
                            separation=spec.blob_separation)
    elif spec.kind == "idx":
        dataset = load_idx(spec.idx_images, spec.idx_labels)
    else:
        raise ValueError(f"unknown dataset kind {spec.kind!r}")
    if dataset.features.shape[1] != cfg.architecture[0].fan_in:
        raise ValueError("dataset dimensionality does not match the first layer")
    if dataset.num_classes > cfg.architecture[-1].fan_out:
        raise ValueError("architecture has fewer outputs than classes")
    shards = dirichlet_partition(dataset.labels, cfg.num_clients, cfg.dirichlet_alpha,
                                 derive(cfg.seed, [TAG_PARTITION]))
    batches = [_client_batches(dataset, idx, cfg.sgd.batch_size) for idx in shards.train]
    tests = [(dataset.features[idx], dataset.labels[idx]) for idx in shards.test]
    arch_counts = [sp.n_edges for sp in cfg.architecture]
    k_or_s = cfg.sparsity if cfg.algorithm in (Algorithm.SPARSE_FSL, Algorithm.TOPK) else None
    cost = comm_cost(arch_counts, cfg.algorithm.value, k_or_s)
    return Environment(dataset=dataset, shards=shards, train_batches=batches,
                       test_sets=tests, cost=cost)


def _seed_network(cfg: ExperimentConfig) -> SeedNetwork:
    return SeedNetwork(cfg.seed, cfg.architecture, cfg.weight_init)


def initial_state(cfg: ExperimentConfig, seed_net: SeedNetwork | None = None) -> ServerState:
    if cfg.algorithm in RANK_ALGORITHMS:
        return ServerState(round=0, ranking=(seed_net or _seed_network(cfg)).ranking)
    net = Supernetwork.from_seed(cfg.seed, cfg.architecture, cfg.weight_init)
    return ServerState(round=0, weights=flatten_params(net.weights))


def select_clients(cfg: ExperimentConfig, round_index: int) -> list[int]:
    stream = derive(cfg.seed, [TAG_SAMPLING, round_index])
    picked = stream.sample_without_replacement(cfg.num_clients, cfg.clients_per_round)
    return [int(u) for u in picked]


def fsl_client_update(seed: int | SeedNetwork, global_ranking: NetworkRanking,
                      batches: list[Minibatch], epochs: int, k: float,
                      sgd: SgdConfig, rng, specs: list[LayerSpec],
                      weight_init: InitKind = InitKind.SIGNED_KAIMING_CONSTANT) -> NetworkRanking:
    """One client's round: rebuild from seed, adopt the global rank order,
    train scores locally, and return the new layer-wise ranking.

    ``seed`` may be the SeedNetwork already built from the seed, ``specs``
    and ``weight_init``, which saves rebuilding it.
    """
    if not isinstance(seed, SeedNetwork):
        seed = SeedNetwork(seed, specs, weight_init)
    net = seed.rebuild(global_ranking)
    edge_popup_train(net, batches, epochs, k, sgd, rng)
    return net.score_rankings()


def _map_clients(executor: ThreadPoolExecutor | None, fn, args_list: list):
    if executor is None:
        return [fn(*args) for args in args_list]
    return [f.result() for f in [executor.submit(fn, *args) for args in args_list]]


def _rank_submissions(state: ServerState, env: Environment, cfg: ExperimentConfig,
                      round_index: int, executor: ThreadPoolExecutor | None
                      ) -> tuple[list[NetworkRanking], list[int], bool]:
    selected = select_clients(cfg, round_index)
    n_mal_total = cfg.attack.malicious_count(cfg.num_clients)
    mal = [u for u in selected if u < n_mal_total] \
        if cfg.attack.kind is AttackKind.RANK_REVERSAL else []
    seed_net = env.seed_net or _seed_network(cfg)
    poison: NetworkRanking | None = None
    if mal:
        poison = adversary.craft_rank_poison(
            seed_net, state.ranking, [env.train_batches[u] for u in mal],
            cfg.attack_epochs, cfg.subnet_fraction, cfg.sgd,
            [derive(cfg.seed, [TAG_TRAIN, round_index, u]) for u in mal],
            cfg.architecture, cfg.weight_init)
    benign = [u for u in selected if u not in mal]
    results = _map_clients(executor, fsl_client_update, [
        (seed_net, state.ranking, env.train_batches[u], cfg.local_epochs,
         cfg.subnet_fraction, cfg.sgd, derive(cfg.seed, [TAG_TRAIN, round_index, u]),
         cfg.architecture, cfg.weight_init)
        for u in benign
    ])
    by_client = dict(zip(benign, results))
    submissions = [poison if u in mal else by_client[u] for u in selected]
    return submissions, selected, bool(mal)


def _evaluate_ranking(cfg: ExperimentConfig, env: Environment,
                      ranking: NetworkRanking) -> np.ndarray:
    """Per-client test accuracy of the global subnetwork, masked once.

    Each test set keeps its own forward pass: one matmul over all of them
    could take another BLAS kernel and change the bytes.
    """
    net = (env.seed_net or _seed_network(cfg)).rebuild(ranking)
    weights = masked_weights(net, cfg.subnet_fraction)
    accs = [evaluate(net, cfg.subnet_fraction, feats, labels, weights)
            for feats, labels in env.test_sets if len(labels)]
    return np.asarray(accs)


def _evaluate_weights(cfg: ExperimentConfig, env: Environment,
                      weights: np.ndarray) -> np.ndarray:
    mats = unflatten_params(weights, cfg.architecture)
    accs = [dense_evaluate(mats, cfg.architecture, feats, labels)
            for feats, labels in env.test_sets if len(labels)]
    return np.asarray(accs)


def _record(cfg: ExperimentConfig, env: Environment, round_index: int,
            selected: list[int], attack_active: bool,
            accs: np.ndarray | None) -> RoundRecord:
    if accs is None or len(accs) == 0:
        stats = (math.nan,) * 4
    else:
        stats = (float(accs.mean()), float(accs.std()), float(accs.min()), float(accs.max()))
    return RoundRecord(round=round_index, selected=selected,
                       mean_acc=stats[0], std_acc=stats[1], min_acc=stats[2],
                       max_acc=stats[3], upload_bits=env.cost.upload_bits,
                       download_bits=env.cost.download_bits,
                       attack_active=attack_active)


def fsl_round(state: ServerState, env: Environment, cfg: ExperimentConfig,
              round_index: int, executor: ThreadPoolExecutor | None = None,
              with_eval: bool = True) -> tuple[ServerState, RoundRecord]:
    """One full-rank vote round; returns the next state and its record."""
    submissions, selected, attacked = _rank_submissions(state, env, cfg, round_index, executor)
    new_ranking = vote_network(submissions)
    new_state = ServerState(round=round_index, ranking=new_ranking)
    accs = _evaluate_ranking(cfg, env, new_ranking) if with_eval else None
    return new_state, _record(cfg, env, round_index, selected, attacked, accs)


def sparse_fsl_round(state: ServerState, env: Environment, cfg: ExperimentConfig,
                     round_index: int, executor: ThreadPoolExecutor | None = None,
                     with_eval: bool = True) -> tuple[ServerState, RoundRecord]:
    """Rank round where clients send only their top sparsity fraction."""
    submissions, selected, attacked = _rank_submissions(state, env, cfg, round_index, executor)
    layer_count = len(cfg.architecture)
    new_ranking = []
    for li in range(layer_count):
        truncated = [truncate_ranking(sub[li], cfg.sparsity) for sub in submissions]
        new_ranking.append(sparse_vote(truncated)[0])
    new_state = ServerState(round=round_index, ranking=new_ranking)
    accs = _evaluate_ranking(cfg, env, new_ranking) if with_eval else None
    return new_state, _record(cfg, env, round_index, selected, attacked, accs)


def fedavg_client_update(weights: np.ndarray, specs: list[LayerSpec],
                         batches: list[Minibatch], epochs: int, sgd: SgdConfig,
                         rng, client_id: int) -> ModelUpdate:
    """Local dense training; the update is the parameter delta."""
    trained = dense_train(unflatten_params(weights, specs), specs, batches,
                          epochs, sgd, rng)
    return ModelUpdate(delta=flatten_params(trained) - weights, client_id=client_id)


def _topk_sparsify(delta: np.ndarray, specs: list[LayerSpec], fraction: float) -> np.ndarray:
    """Layer-wise top-|value| filter; ties keep the lower index."""
    out = np.zeros_like(delta)
    pos = 0
    for sp in specs:
        n = sp.n_edges
        seg = delta[pos : pos + n]
        keep = keep_count(n, fraction)
        order = np.argsort(-np.abs(seg), kind="stable")
        kept = order[:keep]
        out[pos + kept] = seg[kept]
        pos += n
    return out


def baseline_round(state: ServerState, env: Environment, cfg: ExperimentConfig,
                   round_index: int, executor: ThreadPoolExecutor | None = None,
                   with_eval: bool = True) -> tuple[ServerState, RoundRecord]:
    """One round of a weight-based protocol (fedavg, signsgd or topk)."""
    selected = select_clients(cfg, round_index)
    n_mal_total = cfg.attack.malicious_count(cfg.num_clients)
    kind = cfg.attack.kind
    mal = [u for u in selected if u < n_mal_total] \
        if kind in (AttackKind.SCALE, AttackKind.OPT_POISON) else []
    benign = [u for u in selected if u not in mal]

    def benign_update(u: int, epochs: int) -> ModelUpdate:
        return fedavg_client_update(state.weights, cfg.architecture,
                                    env.train_batches[u], epochs, cfg.sgd,
                                    derive(cfg.seed, [TAG_TRAIN, round_index, u]), u)

    results = _map_clients(executor, benign_update,
                           [(u, cfg.local_epochs) for u in benign])
    updates_by_client = dict(zip(benign, results))

    if mal and kind is AttackKind.SCALE:
        for u in mal:
            own = benign_update(u, cfg.attack_epochs)
            updates_by_client[u] = adversary.craft_scale_attack(own, cfg.attack.scale_factor)
    elif mal and kind is AttackKind.OPT_POISON:
        own_deltas = [benign_update(u, cfg.attack_epochs) for u in mal]
        crafted = adversary.craft_opt_poison(
            own_deltas, len(mal), cfg.aggregator.value,
            cfg.attack.omega_kind, cfg.attack.gamma_init, cfg.attack.gamma_iters)
        for u in mal:
            updates_by_client[u] = ModelUpdate(delta=crafted.delta, client_id=u)

    updates = [updates_by_client[u] for u in selected]
    f = int(cfg.attack.malicious_fraction * len(updates))

    if cfg.algorithm is Algorithm.SIGNSGD:
        agg_signs = sign_majority([signs_of(u.delta) for u in updates])
        new_weights = state.weights - cfg.server_lr * agg_signs.signs.astype(np.float64)
    else:
        if cfg.algorithm is Algorithm.TOPK:
            updates = [replace(u, delta=_topk_sparsify(u.delta, cfg.architecture, cfg.sparsity))
                       for u in updates]
            agg = average(updates)
        elif cfg.aggregator is Aggregator.AVERAGE:
            agg = average(updates)
        elif cfg.aggregator is Aggregator.TRIMMED_MEAN:
            agg = trimmed_mean(updates, f)
        else:
            agg = multi_krum(updates, f)
        new_weights = state.weights + agg.delta

    new_state = ServerState(round=round_index, weights=new_weights)
    accs = _evaluate_weights(cfg, env, new_weights) if with_eval else None
    return new_state, _record(cfg, env, round_index, selected, bool(mal), accs)


ROUND_FUNCTIONS = {
    Algorithm.FSL: fsl_round,
    Algorithm.SPARSE_FSL: sparse_fsl_round,
    Algorithm.FEDAVG: baseline_round,
    Algorithm.SIGNSGD: baseline_round,
    Algorithm.TOPK: baseline_round,
}


def run_experiment(cfg: ExperimentConfig, workers: int = 1,
                   env: Environment | None = None) -> list[RoundRecord]:
    """Run all rounds; records are kept at eval points (and the last round)."""
    cfg.validate()
    if env is None:
        env = build_environment(cfg)
    if cfg.algorithm in RANK_ALGORITHMS:
        env = replace(env, seed_net=_seed_network(cfg))
    state = initial_state(cfg, env.seed_net)
    round_fn = ROUND_FUNCTIONS[cfg.algorithm]
    records: list[RoundRecord] = []
    executor = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for t in range(1, cfg.rounds + 1):
            do_eval = t % cfg.eval_every == 0 or t == cfg.rounds
            state, rec = round_fn(state, env, cfg, t, executor, with_eval=do_eval)
            if do_eval:
                records.append(rec)
    finally:
        if executor is not None:
            executor.shutdown()
    return records
