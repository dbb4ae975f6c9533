"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
pass.  The desk-scale experiments (criteria 7-9) share one pinned task:
10-class Gaussian blobs across 100 clients (Dirichlet alpha=1), a 20-40-10
MLP, k=0.5, T=200 rounds, 25 clients per round, 2 local epochs, seed 2024.
"""

import csv
from contextlib import contextmanager

import numpy as np
import pytest

from fedrank.adversary import AttackConfig, AttackKind
from fedrank.analytics import failure_upper_bound
from fedrank.cli import main
from fedrank.nn import (LayerSpec, Minibatch, SgdConfig, Supernetwork, ep_backward, ep_forward,
                        masked_weights)
from fedrank.protocols import (Aggregator, Algorithm, DatasetSpec, ExperimentConfig,
                               build_environment, fsl_round, initial_state, run_experiment)
from fedrank.ranking import truncate_ranking, vote
from fedrank.rng import InitKind, derive

from test_nn import oracle_backward


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"[criterion {number:02d}] FAIL  {description}")
        raise
    print(f"[criterion {number:02d}] PASS  {description}")


SEED = 2024
FSL_SGD = SgdConfig(0.4, 0.9, 1e-4, 8)
DENSE_SGD = SgdConfig(0.01, 0.9, 1e-4, 8)


def desk_task(algorithm: Algorithm, rounds: int = 200, k: float = 0.5,
              attack: AttackConfig | None = None,
              aggregator: Aggregator = Aggregator.AVERAGE,
              seed: int = SEED) -> ExperimentConfig:
    cfg = ExperimentConfig(
        algorithm=algorithm, rounds=rounds, num_clients=100,
        clients_per_round=25, local_epochs=2, subnet_fraction=k,
        eval_every=rounds if rounds else 1, seed=seed, aggregator=aggregator,
        architecture=[LayerSpec(20, 40, "relu"), LayerSpec(40, 10, "identity")],
        dataset=DatasetSpec(kind="blobs", blob_classes=10, blob_dims=20,
                            blob_samples_per_class=200, blob_cluster_std=2.0))
    cfg.sgd = FSL_SGD if algorithm in (Algorithm.FSL, Algorithm.SPARSE_FSL) else DENSE_SGD
    if attack is not None:
        cfg.attack = attack
    cfg.validate()
    return cfg


def final_acc(cfg: ExperimentConfig) -> float:
    return run_experiment(cfg)[-1].mean_acc


@pytest.fixture(scope="module")
def benign_finals():
    return {
        "fsl": final_acc(desk_task(Algorithm.FSL)),
        "fedavg": final_acc(desk_task(Algorithm.FEDAVG)),
        "trimmed_mean": final_acc(desk_task(Algorithm.FEDAVG,
                                            aggregator=Aggregator.TRIMMED_MEAN)),
        "multi_krum": final_acc(desk_task(Algorithm.FEDAVG,
                                          aggregator=Aggregator.MULTI_KRUM)),
    }


# --- 1: communication table reproduction ------------------------------------

# (preset, algorithm row, upload, download); None = download not pinned for
# that row.  Two-decimal figures carry the +/-0.01 MiB tolerance; the
# one-decimal figures (20.1, 13.1) are checked at their own resolution,
# which is coarser than +/-0.01.
COMM_TABLE = [
    ("lenet-mnist", "fedavg", 6.20, 6.20),
    ("lenet-mnist", "fsl", 4.05, 4.05),
    ("lenet-mnist", "sfsl50", 2.03, 4.05),
    ("lenet-mnist", "sfsl10", 0.40, 4.05),
    ("lenet-mnist", "signsgd", 0.19, 6.20),
    ("lenet-mnist", "topk50", 3.29, 6.20),
    ("lenet-mnist", "topk10", 0.81, 6.20),
    ("conv8-cifar10", "fedavg", 20.1, 20.1),
    ("conv8-cifar10", "fsl", 13.1, 13.1),
    ("conv8-cifar10", "signsgd", 0.63, 20.1),
    ("conv8-cifar10", "topk50", 10.69, 20.1),
    ("conv8-cifar10", "topk10", 2.64, 20.1),
    ("lenet-femnist", "fedavg", 6.23, 6.23),
    ("lenet-femnist", "fsl", 4.06, 4.06),
    ("lenet-femnist", "sfsl50", 2.03, None),
    ("lenet-femnist", "sfsl10", 0.40, None),
]


def _check_cost_figure(actual: float, expected: float) -> None:
    decimals = len(str(expected).split(".")[1])
    if decimals >= 2:
        assert actual == pytest.approx(expected, abs=0.01), (actual, expected)
    else:
        assert round(actual, decimals) == expected, (actual, expected)


def test_criterion_1_comm_table(capsys):
    with criterion(1, "communication table reproduced on all three presets"):
        tables = {}
        for preset in ("lenet-mnist", "conv8-cifar10", "lenet-femnist"):
            assert main(["commcost", "--preset", preset]) == 0
            out = capsys.readouterr().out
            tables[preset] = {row["algorithm"]: row
                              for row in csv.DictReader(out.splitlines())}
        for preset, algo, up, down in COMM_TABLE:
            row = tables[preset][algo]
            _check_cost_figure(float(row["upload_MiB"]), up)
            if down is not None:
                _check_cost_figure(float(row["download_MiB"]), down)


# --- 2: vote fixture ---------------------------------------------------------

def test_criterion_2_vote_fixture():
    with criterion(2, "single-round vote fixture: tally, aggregate, top edges"):
        r1 = np.array([4, 0, 2, 3, 5, 1])
        r2 = np.array([2, 0, 1, 5, 4, 3])
        r3 = np.array([0, 2, 5, 3, 4, 1])
        result, tally = vote([r1, r2, r3])
        assert tally.tolist() == [2, 12, 3, 11, 8, 9]
        assert result.tolist() == [0, 2, 4, 5, 3, 1]
        assert truncate_ranking(r1, 0.5).top.tolist() == [3, 5, 1]


# --- 3: failure bound --------------------------------------------------------

def test_criterion_3_failure_bound():
    with criterion(3, "failure bound: exact point value and monotone shape"):
        assert failure_upper_bound(25, 0.9, 0.1) == 0.09375
        ps = np.linspace(0.6, 0.99, 40)
        for alpha in (0.0, 0.1, 0.2, 0.3):
            vals = [failure_upper_bound(25, float(p), alpha) for p in ps]
            assert all(later <= earlier + 1e-15
                       for earlier, later in zip(vals, vals[1:]))
        alphas = np.linspace(0.0, 0.45, 25)
        at_p9 = [failure_upper_bound(25, 0.9, float(a)) for a in alphas]
        assert all(later >= earlier - 1e-15
                   for earlier, later in zip(at_p9, at_p9[1:]))


# --- 4: straight-through gradient against a brute-force oracle ---------------

def test_criterion_4_gradient_oracle():
    with criterion(4, "edge gradients match the brute-force oracle on 50 nets"):
        rng = derive(4040, [])
        shapes = [
            [LayerSpec(5, 4, "relu"), LayerSpec(4, 3, "identity")],   # 32 edges
            [LayerSpec(7, 6, "relu"), LayerSpec(6, 5, "identity")],   # 72 edges
            [LayerSpec(9, 9, "relu"), LayerSpec(9, 2, "identity")],   # 99 edges
            [LayerSpec(10, 10, "identity")],                          # 100 edges
            [LayerSpec(4, 4, "relu"), LayerSpec(4, 4, "relu"),
             LayerSpec(4, 3, "identity")],                            # 44 edges
        ]
        for trial in range(50):
            specs = shapes[trial % len(shapes)]
            net = Supernetwork.from_seed(rng.integers_below([2**31])[0],
                                         specs, InitKind.KAIMING_NORMAL)
            assert sum(sp.n_edges for sp in specs) <= 100
            batch_size = 3 + trial % 4
            x = rng.uniform(batch_size * specs[0].fan_in, -1, 1) \
                .reshape(batch_size, specs[0].fan_in)
            labels = np.array(rng.integers_below([specs[-1].fan_out] * batch_size))
            k = (0.3, 0.5, 0.8)[trial % 3]
            # one-client cohort: the masked weights and the batch stacked
            # once; the score gradient is dL/dW_eff times W
            weights = [w[None] for w in masked_weights(net.weights, net.scores, k)]
            _, cache = ep_forward(net, weights, Minibatch(x[None], labels[None]))
            got = [g[0] * w for g, w in zip(ep_backward(net, cache), net.weights)]
            want = oracle_backward(net.weights, net.scores,
                                   [sp.activation for sp in specs], k, x, labels)
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) < 1e-6


# --- 5: seed reconstruction ---------------------------------------------------

def test_criterion_5_seed_reconstruction():
    with criterion(5, "two independent builds from one seed are bitwise equal"):
        arches = [
            [LayerSpec(20, 40, "relu"), LayerSpec(40, 10, "identity")],
            [LayerSpec(8, 16, "relu"), LayerSpec(16, 16, "relu"),
             LayerSpec(16, 4, "identity")],
            [LayerSpec(5, 7, "identity")],
        ]
        seed_rng = derive(5050, [])
        for specs in arches:
            for seed in seed_rng.integers_below([2**32] * 10):
                server = Supernetwork.from_seed(int(seed), specs)
                client = Supernetwork.from_seed(int(seed), specs)
                for a, b in zip(server.weights, client.weights):
                    assert a.tobytes() == b.tobytes()
                for a, b in zip(server.scores, client.scores):
                    assert a.tobytes() == b.tobytes()


# --- 6: sparse degeneracy ------------------------------------------------------

def test_criterion_6_sparse_degeneracy():
    with criterion(6, "sparse rounds at s=1 are bitwise identical to full rounds"):
        cfg = ExperimentConfig(
            algorithm=Algorithm.FSL, rounds=20, num_clients=16,
            clients_per_round=5, local_epochs=1, eval_every=20, seed=606,
            architecture=[LayerSpec(6, 8, "relu"), LayerSpec(8, 4, "identity")],
            dataset=DatasetSpec(kind="blobs", blob_classes=4, blob_dims=6,
                                blob_samples_per_class=60, blob_cluster_std=1.5))
        cfg.validate()
        sparse_cfg = ExperimentConfig(**dict(cfg.__dict__))
        sparse_cfg.algorithm = Algorithm.SPARSE_FSL
        sparse_cfg.sparsity = 1.0
        sparse_cfg.validate()
        env = build_environment(cfg)
        state = initial_state(cfg)
        for t in range(1, 21):
            full_state, _, _ = fsl_round(state, env, cfg, t)
            sparse_state, _, _ = fsl_round(state, env, sparse_cfg, t)
            for a, b in zip(full_state.ranking, sparse_state.ranking):
                assert a.tobytes() == b.tobytes()
            state = full_state


# --- 7: benign parity -----------------------------------------------------------

def test_criterion_7_benign_parity(benign_finals):
    with criterion(7, "benign rank-vote runs within 3 points of dense averaging"):
        fsl, fedavg = benign_finals["fsl"], benign_finals["fedavg"]
        assert fsl > 0.50 and fedavg > 0.50
        assert abs(fsl - fedavg) <= 0.03, (fsl, fedavg)


# --- 8: robustness ordering -------------------------------------------------------

def test_criterion_8_robustness_ordering(benign_finals):
    with criterion(8, "attack damage: averaging collapses, rank vote degrades least"):
        # (a) unprotected averaging collapses under the scale attack
        scale = final_acc(desk_task(Algorithm.FEDAVG,
                                    attack=AttackConfig(0.1, AttackKind.SCALE)))
        assert scale <= 0.20, scale

        fsl_drop = {}
        for frac in (0.1, 0.2):
            poisoned = final_acc(desk_task(
                Algorithm.FSL, attack=AttackConfig(frac, AttackKind.RANK_REVERSAL)))
            fsl_drop[frac] = benign_finals["fsl"] - poisoned

        # (b) the rank vote loses strictly less than the robust aggregators
        for frac in (0.1, 0.2):
            for agg in (Aggregator.TRIMMED_MEAN, Aggregator.MULTI_KRUM):
                poisoned = final_acc(desk_task(
                    Algorithm.FEDAVG, aggregator=agg,
                    attack=AttackConfig(frac, AttackKind.OPT_POISON)))
                agr_drop = benign_finals[agg.value] - poisoned
                assert fsl_drop[frac] < agr_drop, (frac, agg, fsl_drop[frac], agr_drop)

        # (c) more malicious clients hurt the rank vote more
        assert fsl_drop[0.2] > fsl_drop[0.1], fsl_drop


# --- 9: subnetwork-size sweep -------------------------------------------------------

def test_criterion_9_sparsity_sweep():
    with criterion(9, "k=1 equals the untrained dense network; interior k wins"):
        from fedrank.protocols import _evaluate_ranking
        for seed in (3001, 3002, 3003, 3004, 3005):
            cfg = desk_task(Algorithm.FSL, rounds=5, k=1.0, seed=seed)
            env = build_environment(cfg)
            untrained = float(_evaluate_ranking(cfg, env, initial_state(cfg)).mean())
            trained = run_experiment(cfg, env=env)[-1].mean_acc
            assert abs(trained - untrained) <= 0.03, (seed, trained, untrained)

        sweep = {k: final_acc(desk_task(Algorithm.FSL, rounds=100, k=k))
                 for k in (0.1, 0.4, 0.5, 0.6, 0.7, 0.9)}
        best_interior = max(sweep[k] for k in (0.4, 0.5, 0.6, 0.7))
        assert best_interior > sweep[0.1], sweep
        assert best_interior > sweep[0.9], sweep


# --- 10: determinism golden file -----------------------------------------------------

GOLDEN_CONFIG = """
algorithm = fsl
rounds = 6
num_clients = 12
clients_per_round = 4
local_epochs = 1
subnet_fraction = 0.5
seed = 1010
architecture = 6x8:relu,8x4:identity
dataset = blobs
blob_classes = 4
blob_dims = 6
blob_samples_per_class = 50
blob_cluster_std = 1.0
eval_every = 2
"""


def test_criterion_10_determinism_golden(tmp_path):
    with criterion(10, "pinned config gives byte-identical CSV across runs"):
        cfg_path = tmp_path / "golden.cfg"
        cfg_path.write_text(GOLDEN_CONFIG)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
            assert rc == 0
            outputs.append((out / "summary.csv").read_bytes())
        assert outputs[0] == outputs[1]
        header = outputs[0].decode().splitlines()[0]
        assert header == "round,mean_acc,std_acc,min_acc,max_acc,upload_MiB,download_MiB"
