import math
import tracemalloc
import warnings

import numpy as np
import pytest

import fedrank.nn as nn
import fedrank.protocols as protocols
from fedrank.adversary import AttackConfig, AttackKind
from fedrank.nn import (LayerSpec, Minibatch, SeedNetwork, SgdConfig, Supernetwork,
                        dense_weight_grads, unflatten_params)
from fedrank.protocols import (Aggregator, Algorithm, DatasetKind, DatasetSpec,
                               ExperimentConfig, ServerState, baseline_round,
                               build_environment, fedavg_client_update,
                               fsl_client_update, fsl_round, initial_state,
                               run_experiment, select_clients)
from fedrank.ranking import (LayerTally, argsort_ranking, keep_count, reverse_ranking,
                             vote_network)
from fedrank.rng import TAG_TRAIN, derive

from test_acceptance import desk_task

FIG_R1 = np.array([4, 0, 2, 3, 5, 1])
FIG_R2 = np.array([2, 0, 1, 5, 4, 3])
FIG_R3 = np.array([0, 2, 5, 3, 4, 1])


def client_rankings(blocks):
    """Per-client network rankings from fsl_client_update's per-layer
    (G, n) blocks."""
    return [list(client) for client in zip(*blocks)]


def seed_network(cfg: ExperimentConfig) -> SeedNetwork:
    return SeedNetwork(cfg.seed, cfg.architecture, cfg.weight_init)


def tiny_config(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(
        algorithm=Algorithm.FSL,
        rounds=3,
        num_clients=12,
        clients_per_round=4,
        local_epochs=1,
        eval_every=1,
        seed=321,
        architecture=[LayerSpec(6, 8, "relu"), LayerSpec(8, 4, "identity")],
        dataset=DatasetSpec(kind="blobs", blob_classes=4, blob_dims=6,
                            blob_samples_per_class=60, blob_cluster_std=1.0),
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


@pytest.fixture(scope="module")
def fsl_env():
    cfg = tiny_config()
    return cfg, build_environment(cfg)


class TestConfigValidation:
    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            tiny_config(subnet_fraction=1.5)

    def test_clients_per_round_bound(self):
        with pytest.raises(ValueError):
            tiny_config(clients_per_round=13)

    def test_seed_width(self):
        with pytest.raises(ValueError):
            tiny_config(seed=2**32)

    def test_attack_protocol_compat(self):
        with pytest.raises(ValueError):
            tiny_config(attack=AttackConfig(0.1, AttackKind.SCALE))
        with pytest.raises(ValueError):
            tiny_config(algorithm=Algorithm.FEDAVG,
                        attack=AttackConfig(0.1, AttackKind.RANK_REVERSAL))

    def test_topk_average_only(self):
        with pytest.raises(ValueError):
            tiny_config(algorithm=Algorithm.TOPK, aggregator=Aggregator.MULTI_KRUM)

    def test_dataset_kind_coerced(self):
        assert tiny_config().dataset.kind is DatasetKind.BLOBS

    def test_unknown_dataset_kind_rejected_before_data(self, monkeypatch):
        def no_data(*args, **kwargs):
            raise AssertionError("data built for an unknown dataset kind")

        monkeypatch.setattr(protocols, "gen_blobs", no_data)
        monkeypatch.setattr(protocols, "load_idx", no_data)
        with pytest.raises(ValueError, match="^'foo' is not a valid DatasetKind$"):
            ExperimentConfig(dataset=DatasetSpec(kind="foo")).validate()
        with pytest.raises(ValueError, match="^'foo' is not a valid DatasetKind$"):
            run_experiment(ExperimentConfig(dataset=DatasetSpec(kind="foo")))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("part, key", [
        (None, "server_lr"), (None, "dirichlet_alpha"),
        ("sgd", "learning_rate"), ("sgd", "weight_decay"),
        ("attack", "scale_factor"), ("attack", "gamma_init"),
        ("dataset", "blob_cluster_std"), ("dataset", "blob_separation")])
    def test_non_finite_float_rejected(self, part, key, value):
        # A NaN dirichlet_alpha would make every gamma trial reject.
        cfg = ExperimentConfig()
        setattr(getattr(cfg, part) if part else cfg, key, value)
        with pytest.raises(ValueError, match=f"^{key}: must be finite, got {value!r}$"):
            cfg.validate()


class TestSampling:
    def test_no_duplicates_and_range(self):
        cfg = tiny_config()
        for t in range(1, 30):
            picked = select_clients(cfg, t)
            assert len(picked) == cfg.clients_per_round
            assert len(set(picked)) == len(picked)
            assert all(0 <= u < cfg.num_clients for u in picked)

    def test_deterministic_per_round(self):
        cfg = tiny_config()
        assert select_clients(cfg, 5) == select_clients(cfg, 5)
        assert select_clients(cfg, 5) != select_clients(cfg, 6)


class TestFslClientUpdate:
    def test_zero_lr_returns_global_ranking(self, fsl_env):
        cfg, env = fsl_env
        state = initial_state(cfg)
        out = client_rankings(fsl_client_update(
            seed_network(cfg), state.scores, [env.train_batches[0]], [1], 0.5,
            SgdConfig(0.0, 0.0, 0.0, 8), [derive(cfg.seed, [TAG_TRAIN, 1, 0])]))[0]
        for got, want in zip(out, state.ranking):
            assert np.array_equal(got, want)

    def test_identical_clients_identical_rankings(self, fsl_env):
        cfg, env = fsl_env
        state = initial_state(cfg)
        args = (seed_network(cfg), state.scores, [env.train_batches[3]], [2], 0.5, cfg.sgd)
        a = client_rankings(fsl_client_update(*args, [derive(9, [0])]))[0]
        b = client_rankings(fsl_client_update(*args, [derive(9, [0])]))[0]
        for ra, rb in zip(a, b):
            assert np.array_equal(ra, rb)

    def test_noise_feature_ranks_low(self):
        # feature 0 carries the labels, feature 1 is pure noise
        specs = [LayerSpec(2, 8, "relu"), LayerSpec(8, 2, "identity")]
        sgd = SgdConfig(0.4, 0.9, 1e-4, 8)
        hits = 0
        trials = 20
        total = 0
        for seed in range(trials):
            rng = derive(1000 + seed, [])
            labels = np.array(rng.integers_below([2] * 64))
            signal = (2.0 * labels - 1.0) + 0.1 * rng.normal(64)
            noise = rng.normal(64)
            feats = np.stack([signal, noise], axis=1)
            batches = [Minibatch(feats[i : i + 8], labels[i : i + 8])
                       for i in range(0, 64, 8)]
            seed_net = SeedNetwork(seed, specs)
            ranking = client_rankings(fsl_client_update(
                seed_net, seed_net.scores, [batches], [3], 0.5, sgd,
                [derive(seed, [TAG_TRAIN, 1, 0])]))[0]
            bottom = set(ranking[0][:8].tolist())
            noise_edges = {i for i in range(16) if i % 2 == 1}
            hits += len(bottom & noise_edges)
            total += len(noise_edges)
        assert hits / total > 0.5


class TestFslRound:
    def test_single_benign_client_becomes_global(self, fsl_env):
        cfg, env = fsl_env
        cfg1 = tiny_config(clients_per_round=1)
        state = initial_state(cfg1)
        new_state, selected, _ = fsl_round(state, env, cfg1, 1)
        u = selected[0]
        expected = client_rankings(fsl_client_update(
            seed_network(cfg1), state.scores, [env.train_batches[u]], [cfg1.local_epochs],
            cfg1.subnet_fraction, cfg1.sgd, [derive(cfg1.seed, [TAG_TRAIN, 1, u])]))[0]
        for got, want in zip(new_state.ranking, expected):
            assert np.array_equal(got, want)

    def test_unanimous_identity_round(self, fsl_env):
        cfg, env = fsl_env
        frozen = tiny_config()
        frozen.sgd = SgdConfig(0.0, 0.0, 0.0, 8)  # nobody moves a score
        state = initial_state(frozen)
        new_state, _, _ = fsl_round(state, env, frozen, 1)
        for got, want in zip(new_state.ranking, state.ranking):
            assert np.array_equal(got, want)

    def test_vote_fixture_through_round(self, fsl_env, monkeypatch):
        cfg, env = fsl_env
        cfg3 = tiny_config(clients_per_round=3)
        fixtures = [FIG_R1, FIG_R2, FIG_R3]
        calls = []

        def fake_update(seed_net, scores, batches, epochs, k, sgd, rngs):
            rows = []
            for _ in batches:  # one ranking per client of the cohort
                calls.append(None)
                rows.append(fixtures[(len(calls) - 1) % 3])
            return [np.stack(rows), np.stack(rows)]  # one (G, n) block per layer

        monkeypatch.setattr(protocols, "fsl_client_update", fake_update)
        # Two layers of six edges, as the fixture rankings have.
        seed_net = SeedNetwork(cfg3.seed, [LayerSpec(2, 3), LayerSpec(3, 2, "identity")])
        state = ServerState(ranking=[FIG_R1, FIG_R1], seed_net=seed_net, scores=seed_net.scores)
        new_state, _, _ = fsl_round(state, env, cfg3, 1)
        assert new_state.ranking[0].tolist() == [0, 2, 4, 5, 3, 1]

    def test_state_is_permutation_family(self, fsl_env):
        cfg, env = fsl_env
        state = initial_state(cfg)
        for t in range(1, 4):
            state, _, _ = fsl_round(state, env, cfg, t)
            for layer, spec in zip(state.ranking, cfg.architecture):
                assert sorted(layer.tolist()) == list(range(spec.n_edges))


class TestSharedSeedNetwork:
    @pytest.mark.parametrize("cohort", [1, 2, 4])
    def test_shared_network_unchanged_by_training(self, fsl_env, cohort, monkeypatch):
        # Clients, attackers included, rebuilding from the state's seed
        # network in cohorts of every size must vote exactly as rounds over
        # a network drawn apart, and leave the shared arrays untouched.
        monkeypatch.setattr(protocols, "cohort_size", lambda specs: cohort)
        _, env = fsl_env
        cfg = tiny_config(clients_per_round=8,
                          attack=AttackConfig(0.25, AttackKind.RANK_REVERSAL))
        apart_state, shared_state = initial_state(cfg), initial_state(cfg)
        seed_net = shared_state.seed_net
        frozen = [a.tobytes() for a in seed_net.weights + seed_net.sorted_scores]
        for t in range(1, 4):
            apart_state, *apart_rec = fsl_round(apart_state, env, cfg, t)
            shared_state, *shared_rec = fsl_round(shared_state, env, cfg, t)
            assert apart_rec == shared_rec
            assert shared_state.seed_net is seed_net
            for a, b in zip(apart_state.ranking, shared_state.ranking):
                assert a.tobytes() == b.tobytes()
        assert frozen == [a.tobytes() for a in seed_net.weights + seed_net.sorted_scores]

    def test_one_seed_network_draw_per_run(self, fsl_env, monkeypatch):
        # The network is drawn in initial_state and carried by the state:
        # neither the rounds, their evaluations nor the attackers draw it.
        _, env = fsl_env
        cfg = tiny_config()
        attacked = tiny_config(attack=AttackConfig(0.5, AttackKind.RANK_REVERSAL))
        draws = []
        from_seed = Supernetwork.from_seed.__func__

        def spy(cls, *args, **kwargs):
            draws.append(args)
            return from_seed(cls, *args, **kwargs)

        monkeypatch.setattr(Supernetwork, "from_seed", classmethod(spy))
        state = initial_state(cfg)
        for t, round_cfg in ((1, cfg), (2, attacked), (3, cfg)):
            state, _, attack_active = fsl_round(state, env, round_cfg, t)
            assert attack_active == (round_cfg is attacked)
            assert not np.isnan(protocols._evaluate_ranking(round_cfg, env, state).mean())
        assert len(draws) == 1

    def test_one_rebuild_per_global_ranking(self, monkeypatch):
        # At 784-200-10 every cohort is one client.  The initial state takes
        # the seed draw's scores, each round rebuilds the ranking it voted
        # once, and its five cohorts and the evaluation all start from that
        # one rebuild: one scatter per layer per round.
        cfg = ExperimentConfig(
            algorithm=Algorithm.FSL, rounds=2, eval_every=1, num_clients=10,
            clients_per_round=5, local_epochs=1, seed=8,
            architecture=[LayerSpec(784, 200, "relu"), LayerSpec(200, 10, "identity")],
            dataset=DatasetSpec(kind="blobs", blob_classes=10, blob_dims=784,
                                blob_samples_per_class=4, blob_cluster_std=2.0))
        assert protocols.cohort_size(cfg.architecture) == 1
        reorder, calls, cohorts = nn.reorder_scores, [], []
        update = protocols.fsl_client_update

        def spy(values, ranking):
            calls.append(len(values))
            return reorder(values, ranking)

        def counted(*args):
            cohorts.append(len(args[2]))
            return update(*args)

        monkeypatch.setattr(nn, "reorder_scores", spy)
        monkeypatch.setattr(protocols, "fsl_client_update", counted)
        records = run_experiment(cfg)
        assert len(records) == 2 and cohorts == [1] * 10
        assert calls == [156800, 2000] * 2

    def test_client_training_leaves_next_rebuild_unchanged(self, fsl_env):
        # A cohort trains from the state's read-only scores, shared, not
        # copied: training never writes them, nor the next rebuild.
        cfg, env = fsl_env
        state = initial_state(cfg)
        seed_net, scores = state.seed_net, state.scores
        assert not any(s.flags.writeable for s in scores)
        before = [s.tobytes() for s in scores]

        def client(net, start):
            return client_rankings(fsl_client_update(
                net, start, [env.train_batches[0], env.train_batches[1]], [2, 1], 0.5,
                cfg.sgd, [derive(cfg.seed, [TAG_TRAIN, 1, u]) for u in (0, 1)]))[0]

        trained = client(seed_net, scores)
        assert any(not np.array_equal(a, b) for a, b in zip(trained, seed_net.ranking))
        assert before == [s.tobytes() for s in scores]
        assert before == [s.tobytes() for s in seed_net.rebuild(seed_net.ranking)]
        fresh = seed_network(cfg)
        for a, b in zip(trained, client(fresh, [s.copy() for s in fresh.scores])):
            assert a.tobytes() == b.tobytes()


class TestSparseFslRound:
    def test_degenerate_sparsity_matches_full(self, fsl_env):
        cfg, env = fsl_env
        sparse_cfg = tiny_config(algorithm=Algorithm.SPARSE_FSL, sparsity=1.0)
        state = initial_state(cfg)
        for t in range(1, 6):
            full_state, _, _ = fsl_round(state, env, cfg, t)
            sparse_state, _, _ = fsl_round(state, env, sparse_cfg, t)
            for a, b in zip(full_state.ranking, sparse_state.ranking):
                assert a.tobytes() == b.tobytes()
            state = full_state

    def test_fsl_ignores_sparsity(self, fsl_env):
        cfg, env = fsl_env
        cut = tiny_config(sparsity=0.3)
        sparse_cfg = tiny_config(algorithm=Algorithm.SPARSE_FSL, sparsity=0.3)
        state = initial_state(cfg)
        full_state, _, _ = fsl_round(state, env, cfg, 1)
        cut_state, _, _ = fsl_round(state, env, cut, 1)
        sparse_state, _, _ = fsl_round(state, env, sparse_cfg, 1)
        assert [a.tobytes() for a in full_state.ranking] == \
            [a.tobytes() for a in cut_state.ranking]
        assert [a.tobytes() for a in full_state.ranking] != \
            [a.tobytes() for a in sparse_state.ranking]

    def test_upload_bits_scale_with_sparsity(self):
        full = build_environment(tiny_config()).cost
        half = build_environment(
            tiny_config(algorithm=Algorithm.SPARSE_FSL, sparsity=0.5)).cost
        assert half.upload_bits == pytest.approx(0.5 * full.upload_bits)
        assert half.download_bits == full.download_bits


class TestFedavgClientUpdate:
    def test_zero_lr_zero_delta(self, fsl_env):
        cfg, env = fsl_env
        theta = initial_state(tiny_config(algorithm=Algorithm.FEDAVG)).weights
        out = fedavg_client_update(theta, cfg.architecture, [env.train_batches[0]],
                                   [1], SgdConfig(0.0, 0.0, 0.0, 8), [derive(1, [])])[0]
        assert out.dtype == np.float64 and np.all(out == 0.0)

    def test_single_step_is_neg_lr_grad(self, fsl_env):
        cfg, env = fsl_env
        fed = tiny_config(algorithm=Algorithm.FEDAVG)
        theta = initial_state(fed).weights
        batch = env.train_batches[2][0]
        out = fedavg_client_update(theta, fed.architecture, [[batch]], [1],
                                   SgdConfig(0.05, 0.0, 0.0, 8), [derive(1, [])])[0]
        grads = dense_weight_grads(unflatten_params(theta, fed.architecture),
                                   fed.architecture, batch)
        expected = np.concatenate([
            (w - (0.05 * g).astype(np.float32)).astype(np.float64).ravel() - w.astype(np.float64).ravel()
            for w, g in zip(unflatten_params(theta, fed.architecture), grads)])
        assert np.allclose(out, expected, atol=1e-7)

    def test_identical_clients_identical_deltas(self, fsl_env):
        cfg, env = fsl_env
        theta = initial_state(tiny_config(algorithm=Algorithm.FEDAVG)).weights
        a = fedavg_client_update(theta, cfg.architecture, [env.train_batches[1]],
                                 [2], cfg.sgd, [derive(5, [])])[0]
        b = fedavg_client_update(theta, cfg.architecture, [env.train_batches[1]],
                                 [2], cfg.sgd, [derive(5, [])])[0]
        assert np.array_equal(a, b)


class TestBaselineRound:
    def test_fedavg_single_client_moves_by_delta(self):
        cfg = tiny_config(algorithm=Algorithm.FEDAVG, clients_per_round=1)
        cfg.sgd = SgdConfig(0.05, 0.9, 0.0, 8)
        env = build_environment(cfg)
        state = initial_state(cfg)
        new_state, selected, _ = baseline_round(state, env, cfg, 1)
        u = selected[0]
        expected = fedavg_client_update(state.weights, cfg.architecture,
                                        [env.train_batches[u]], [cfg.local_epochs],
                                        cfg.sgd, [derive(cfg.seed, [TAG_TRAIN, 1, u])])[0]
        assert np.allclose(new_state.weights, state.weights + expected)

    def test_topk_full_fraction_equals_fedavg(self):
        fed = tiny_config(algorithm=Algorithm.FEDAVG)
        top = tiny_config(algorithm=Algorithm.TOPK, sparsity=1.0)
        env = build_environment(fed)
        s_fed, _, _ = baseline_round(initial_state(fed), env, fed, 1)
        s_top, _, _ = baseline_round(initial_state(top), env, top, 1)
        assert np.array_equal(s_fed.weights, s_top.weights)

    def test_topk_sparsify_keeps_layerwise_largest(self):
        specs = [LayerSpec(2, 2, "relu"), LayerSpec(2, 2, "identity")]
        delta = np.array([1.0, -5.0, 0.5, 2.0, 3.0, -1.0, 0.0, 0.0])
        out = protocols._topk_sparsify(delta, specs, 0.5)
        assert out.tolist() == [0.0, -5.0, 0.0, 2.0, 3.0, -1.0, 0.0, 0.0]

    def test_topk_sparsify_matches_the_stable_argsort(self):
        # Oracle: each layer's stable argsort of -|delta|, the form the
        # filter took before stable_order served it.
        def oracle(delta, specs, fraction):
            out, pos = np.zeros_like(delta), 0
            for sp in specs:
                seg = delta[pos:pos + sp.n_edges]
                kept = np.argsort(-np.abs(seg), kind="stable")[:keep_count(sp.n_edges, fraction)]
                out[pos + kept] = seg[kept]
                pos += sp.n_edges
            return out

        pool = np.array([0.0, -0.0, 0.25, -0.25, 1.0, -1.0, np.nan, -np.nan, np.inf, -np.inf])
        one, two = [LayerSpec(3, 4)], [LayerSpec(3, 4), LayerSpec(4, 5, "identity")]
        rng = derive(4100, [])
        for case in range(40):
            delta = pool[rng.integers_below([len(pool)] * 32)]
            if case % 2:  # mostly distinct magnitudes, some tied
                delta[::3] = rng.uniform(11, -1.0, 1.0)
            for specs, fraction in [(one, f / 12) for f in (0, 1, 11, 12)] + [(two, 0.5)]:
                n = sum(sp.n_edges for sp in specs)
                got = protocols._topk_sparsify(delta[:n], specs, fraction)
                assert got.tobytes() == oracle(delta[:n], specs, fraction).tobytes()

    def test_signsgd_single_client_sign_step(self):
        cfg = tiny_config(algorithm=Algorithm.SIGNSGD, clients_per_round=1,
                          server_lr=0.01)
        env = build_environment(cfg)
        state = initial_state(cfg)
        new_state, selected, _ = baseline_round(state, env, cfg, 1)
        u = selected[0]
        delta = fedavg_client_update(state.weights, cfg.architecture,
                                     [env.train_batches[u]], [cfg.local_epochs],
                                     cfg.sgd, [derive(cfg.seed, [TAG_TRAIN, 1, u])])[0]
        expected = state.weights - 0.01 * np.where(delta < 0, -1.0, 1.0)
        assert np.allclose(new_state.weights, expected)


class TestRunExperiment:
    def test_zero_rounds_empty_records(self):
        assert run_experiment(tiny_config(rounds=0)) == []

    def test_fixed_seed_reproducible(self):
        a = run_experiment(tiny_config(rounds=3))
        b = run_experiment(tiny_config(rounds=3))
        assert a == b

    @pytest.mark.parametrize("workers", [0, 2])
    def test_workers_other_than_one_rejected(self, workers):
        with pytest.raises(ValueError, match=f"workers must be 1, got {workers}"):
            run_experiment(tiny_config(rounds=1), workers=workers)

    @pytest.mark.parametrize("exc_type", [ValueError, RuntimeError])
    def test_only_a_value_error_is_renamed_with_its_round(self, exc_type, monkeypatch):
        # Round 2 is the first eval point; its evaluation fails.
        def fail(cfg, env, state):
            raise exc_type("bad state")

        monkeypatch.setattr(protocols, "_evaluate_ranking", fail)
        with pytest.raises(exc_type) as info:
            run_experiment(tiny_config(rounds=5, eval_every=2))
        if exc_type is ValueError:
            assert str(info.value) == "round 2: bad state"
            assert str(info.value.__cause__) == "bad state"
        else:
            assert str(info.value) == "bad state" and info.value.__cause__ is None

    def test_eval_cadence(self):
        recs = run_experiment(tiny_config(rounds=5, eval_every=2))
        assert [r.round for r in recs] == [2, 4, 5]

    def test_on_eval_sees_each_record_and_its_state(self, fsl_env):
        # The hook gets each record as it is made, with the state it rates.
        _, env = fsl_env
        cfg = tiny_config(rounds=5, eval_every=2)
        seen = []
        recs = run_experiment(cfg, env=env, on_eval=lambda record, state: seen.append(
            (record, protocols._evaluate_ranking(cfg, env, state).mean())))
        assert [r for r, _ in seen] == recs
        assert [acc for _, acc in seen] == [r.mean_acc for r in recs]

    @pytest.mark.parametrize("algorithm, used, unused", [
        (Algorithm.FSL, "_evaluate_ranking", "_evaluate_weights"),
        (Algorithm.FEDAVG, "_evaluate_weights", "_evaluate_ranking"),
    ])
    def test_evaluates_through_module_attribute_once_per_eval_point(
            self, algorithm, used, unused, monkeypatch):
        # Tracing wraps the module attributes, so run_experiment must call
        # them as they are at call time, once per eval point.
        calls = {used: [], unused: []}
        for name in calls:
            def counted(cfg, env, state, name=name, fn=getattr(protocols, name)):
                calls[name].append(state)
                return fn(cfg, env, state)
            monkeypatch.setattr(protocols, name, counted)
        recs = run_experiment(tiny_config(algorithm=algorithm, rounds=5, eval_every=2))
        assert [r.round for r in recs] == [2, 4, 5]
        assert len(calls[used]) == 3 and calls[unused] == []

    def test_zero_fraction_attack_is_noop(self):
        benign = run_experiment(tiny_config(rounds=3))
        armed = run_experiment(tiny_config(
            rounds=3, attack=AttackConfig(0.0, AttackKind.RANK_REVERSAL)))
        assert benign == armed

    def test_attack_flag_recorded(self):
        recs = run_experiment(tiny_config(
            rounds=3, attack=AttackConfig(0.5, AttackKind.RANK_REVERSAL)))
        assert any(r.attack_active for r in recs)

    def test_records_match_cost_model(self):
        recs = run_experiment(tiny_config(rounds=2))
        env_cost = build_environment(tiny_config()).cost
        for r in recs:
            assert r.upload_bits == env_cost.upload_bits
            assert r.download_bits == env_cost.download_bits

    @pytest.mark.parametrize("overrides", [
        {"algorithm": Algorithm.FEDAVG, "aggregator": Aggregator.AVERAGE,
         "attack": AttackConfig(0.5, AttackKind.SCALE, scale_factor=1e30)},
        {},
    ], ids=["fedavg_scale_1e30", "fsl"])
    def test_no_floating_point_warning_escapes(self, overrides, monkeypatch):
        # The trainer and evaluate own numpy's error state; the kernels they
        # call set none.  A scale attack of 1e30 under the plain average
        # overflows the global weights to inf and then NaN, which every
        # training and evaluation pass then carries.
        cfg = tiny_config(rounds=4, **overrides)
        finite = []
        update = protocols.fedavg_client_update

        def spy(weights, *args):
            finite.append(bool(np.isfinite(weights).all()))
            return update(weights, *args)

        monkeypatch.setattr(protocols, "fedavg_client_update", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            strict = run_experiment(cfg)
        assert repr(strict) == repr(run_experiment(cfg))
        if overrides:
            assert finite[0] and not finite[-1]


# --- The cohort trainer against the per-client loop it replaced -------------
#
# A self-contained copy of the per-client training path as it was before
# clients trained in cohorts: one rebuilt network (or one weight copy) per
# client, one masked forward and backward per batch, float64 reductions.


def _ref_mask(scores, k):
    flat = scores.ravel()
    if not np.all(np.isfinite(flat)):
        raise ValueError("values must be finite")
    keep = math.ceil(k * flat.size)
    if not keep:
        return np.zeros(scores.shape, dtype=np.float32)
    threshold = np.partition(flat, flat.size - keep)[flat.size - keep]
    above = flat > threshold
    mask = above.astype(np.float32)
    ties = np.flatnonzero(flat == threshold)
    mask[ties[len(ties) - (keep - int(np.count_nonzero(above))):]] = 1.0
    return mask.reshape(scores.shape)


def _ref_grads(specs, weights, batch):
    """dL/dW_eff per layer at the float64 effective ``weights``."""
    x = np.asarray(batch.inputs, dtype=np.float64)
    inputs, pres = [], []
    for spec, w in zip(specs, weights):
        inputs.append(x)
        with np.errstate(over="ignore", invalid="ignore"):
            pre = x @ w.T
        pres.append(pre)
        x = np.maximum(pre, 0.0) if spec.activation == "relu" else pre
    labels = np.asarray(batch.labels, dtype=np.int64)
    logits = pres[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(shifted)
        dldi = e / e.sum(axis=1, keepdims=True)
    dldi[np.arange(len(labels)), labels] -= 1.0
    dldi = dldi / len(labels)
    grads = [None] * len(specs)
    for i in range(len(specs) - 1, -1, -1):
        grads[i] = dldi.T @ inputs[i]
        if i > 0:
            dz = dldi @ weights[i]
            if specs[i - 1].activation == "relu":
                dz = dz * (pres[i - 1] > 0)
            dldi = dz
    return grads


def _ref_train(params, grads_of, batches, epochs, sgd, rng):
    buffers = [np.zeros(p.shape, dtype=np.float64) for p in params]
    order = np.arange(len(batches))
    for _ in range(epochs):
        rng.shuffle(order)
        for bi in order:
            for p, g, buf in zip(params, grads_of(batches[bi]), buffers):
                scratch = p.astype(np.float64)
                scratch *= sgd.weight_decay
                scratch += g
                buf *= sgd.momentum
                buf += scratch
                np.multiply(buf, sgd.learning_rate, out=scratch)
                with np.errstate(over="ignore"):
                    p -= scratch.astype(np.float32)
    return params


def _ref_fsl_client(seed_net, ranking, batches, epochs, k, sgd, rng):
    weights, scores = seed_net.weights, [s.copy() for s in seed_net.rebuild(ranking)]

    def grads_of(batch):
        eff = [(w * _ref_mask(s, k)).astype(np.float64) for w, s in zip(weights, scores)]
        return [g * w for g, w in zip(_ref_grads(seed_net.specs, eff, batch), weights)]

    _ref_train(scores, grads_of, batches, epochs, sgd, rng)
    for s in scores:
        if not np.all(np.isfinite(s)):
            raise ValueError("values must be finite")
    return [np.argsort(s.ravel(), kind="stable") for s in scores]


def _ref_fedavg_client(theta, specs, batches, epochs, sgd, rng):
    weights = [np.array(w, dtype=np.float32) for w in unflatten_params(theta, specs)]
    _ref_train(weights, lambda batch: _ref_grads(specs, [w.astype(np.float64) for w in weights],
                                                 batch), batches, epochs, sgd, rng)
    return np.concatenate([w.astype(np.float64).ravel() for w in weights]) - theta


class TestCohortTrainer:
    # Shards of 17, 8, 3, 22, 13, 1 and 30 samples in batches of 8: last
    # batches of 1, 8, 3, 6, 5, 1 and 6 rows, so a step mixes batch sizes.
    # The fourth client stands for an attacker training longer.
    LENGTHS = [17, 8, 3, 22, 13, 1, 30]
    EPOCHS = [2, 2, 2, 5, 2, 2, 2]
    SPECS = [LayerSpec(6, 9, "relu"), LayerSpec(9, 7, "relu"), LayerSpec(7, 4, "identity")]

    def shards(self):
        rng = derive(4242, [])
        out = []
        for n in self.LENGTHS:
            x = rng.uniform(n * 6, -2, 2).reshape(n, 6)
            y = np.array(rng.integers_below([4] * n))
            out.append([Minibatch(x[i : i + 8], y[i : i + 8]) for i in range(0, n, 8)])
        return out

    def streams(self):
        return [derive(77, [TAG_TRAIN, 3, u]) for u in range(len(self.LENGTHS))]

    @pytest.mark.parametrize("cohort", [len(LENGTHS), 1])
    def test_fsl_matches_per_client_loop(self, cohort):
        seed_net = SeedNetwork(31, self.SPECS)
        ranking = [argsort_ranking(derive(32, [li]).uniform(sp.n_edges))
                   for li, sp in enumerate(self.SPECS)]
        sgd = SgdConfig(0.4, 0.9, 1e-4, 8)
        batches, rngs = self.shards(), self.streams()
        got = []
        for lo in range(0, len(batches), cohort):
            sl = slice(lo, lo + cohort)
            got += client_rankings(fsl_client_update(seed_net, seed_net.rebuild(ranking),
                                                     batches[sl],
                                                     self.EPOCHS[sl], 0.5, sgd, rngs[sl]))
        want = [_ref_fsl_client(seed_net, ranking, b, e, 0.5, sgd, r)
                for b, e, r in zip(batches, self.EPOCHS, self.streams())]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert [a.tobytes() for a in g] == [a.tobytes() for a in w]

    @pytest.mark.parametrize("cohort", [len(LENGTHS), 1])
    def test_fedavg_matches_per_client_loop(self, cohort):
        theta = initial_state(tiny_config(algorithm=Algorithm.FEDAVG,
                                          architecture=self.SPECS)).weights
        sgd = SgdConfig(0.05, 0.9, 1e-4, 8)
        batches, rngs = self.shards(), self.streams()
        got = []
        for lo in range(0, len(batches), cohort):
            sl = slice(lo, lo + cohort)
            got += fedavg_client_update(theta, self.SPECS, batches[sl], self.EPOCHS[sl], sgd,
                                        rngs[sl])
        assert len(got) == len(batches)
        for u, b, e, r in zip(got, batches, self.EPOCHS, self.streams()):
            assert u.tobytes() == _ref_fedavg_client(theta, self.SPECS, b, e, sgd, r).tobytes()

    def test_non_finite_scores_raise_as_before(self):
        seed_net = SeedNetwork(33, self.SPECS)
        sgd = SgdConfig(1e300, 0.0, 0.0, 8)  # the first step overflows the scores
        batches = self.shards()
        with pytest.raises(ValueError) as want:
            _ref_fsl_client(seed_net, seed_net.ranking, batches[0], 2, 0.5, sgd,
                            self.streams()[0])
        with pytest.raises(ValueError) as got:
            fsl_client_update(seed_net, seed_net.scores, batches, self.EPOCHS, 0.5, sgd,
                              self.streams())
        assert str(got.value) == str(want.value) == "values must be finite"

    @pytest.mark.parametrize("overrides", [
        {"attack": AttackConfig(0.25, AttackKind.RANK_REVERSAL, epochs=4)},
        {"algorithm": Algorithm.FEDAVG, "aggregator": Aggregator.TRIMMED_MEAN,
         "attack": AttackConfig(0.25, AttackKind.SCALE, epochs=3)},
    ], ids=["fsl_rank_reversal", "fedavg_scale"])
    def test_rounds_do_not_depend_on_cohort_size(self, overrides, monkeypatch):
        # One cohort of every client against one-client cohorts: neither
        # changes a byte.
        cfg = tiny_config(clients_per_round=8, **overrides)
        assert protocols.cohort_size(cfg.architecture) >= cfg.clients_per_round
        env = build_environment(cfg)
        round_fn = fsl_round if cfg.algorithm is Algorithm.FSL else baseline_round

        def run():
            state, out = initial_state(cfg), []
            for t in range(1, 4):
                state, selected, attack_active = round_fn(state, env, cfg, t)
                final = state.ranking if state.weights is None else [state.weights]
                out.append((selected, attack_active, [a.tobytes() for a in final]))
            return out

        whole = run()
        assert any(attack_active for _, attack_active, _ in whole)
        monkeypatch.setattr(protocols, "cohort_size", lambda specs: 1)
        assert run() == whole


def _list_vote_round(state, env, cfg, round_index):
    """The rank round as a list vote, the oracle of the streamed tally:
    every cohort's blocks are kept, the attackers' rows overwritten with
    the reverse of their vote_network, and each layer's blocks are cut and
    voted by one LayerTally(n, s)."""
    selected, mal, cohorts = protocols._train_clients(
        cfg, env, round_index, lambda batches, epochs, rngs: fsl_client_update(
            state.seed_net, state.scores, batches, epochs, cfg.subnet_fraction, cfg.sgd, rngs))
    blocks = [part for _, part in cohorts]
    rows = [[layer[g] for layer in part] for part in blocks for g in range(len(part[0]))]
    if mal:
        poison = [reverse_ranking(layer) for layer in vote_network([rows[i] for i in mal])]
        for i in mal:
            for row, layer in zip(rows[i], poison):
                row[:] = layer
    s = cfg.sparsity if cfg.algorithm is Algorithm.SPARSE_FSL else 1.0
    tallies = [LayerTally(len(layer), s) for layer in state.ranking]
    for part in blocks:
        for tally, block in zip(tallies, part, strict=True):
            tally.add(block)
    ranking = [tally.order() for tally in tallies]
    return (ServerState(ranking=ranking, seed_net=state.seed_net,
                        scores=state.seed_net.rebuild(ranking)), selected, mal)


class TestStreamedVote:
    CASES = [(Algorithm.FSL, 1.0), (Algorithm.SPARSE_FSL, 0.1), (Algorithm.SPARSE_FSL, 0.5)]

    @pytest.mark.parametrize("cohort", [1, 3, 8])
    @pytest.mark.parametrize("algorithm, s", CASES)
    def test_matches_list_vote_with_attackers(self, fsl_env, algorithm, s, cohort,
                                              monkeypatch):
        # Three of 12 clients reverse ranks; with 8 sampled per round they
        # sit in multi-row blocks beside benign rows (cohorts of 3 and 8)
        # and in blocks apart (cohorts of 1 and 3).
        monkeypatch.setattr(protocols, "cohort_size", lambda specs: cohort)
        _, env = fsl_env
        cfg = tiny_config(algorithm=algorithm, sparsity=s, clients_per_round=8,
                          attack=AttackConfig(0.25, AttackKind.RANK_REVERSAL))
        streamed = oracle = initial_state(cfg)
        attackers = []
        for t in range(1, 4):
            streamed, selected, attack_active = fsl_round(streamed, env, cfg, t)
            oracle, want_selected, mal = _list_vote_round(oracle, env, cfg, t)
            assert (selected, attack_active) == (want_selected, bool(mal))
            assert [a.tobytes() for a in streamed.ranking] == \
                [a.tobytes() for a in oracle.ranking]
            attackers.append(mal)
        assert max(map(len, attackers)) >= 2
        if cohort == 3:
            assert any(len({i // 3 for i in mal}) > 1 for mal in attackers)

    def test_malformed_row_fails_when_its_cohort_returns(self, fsl_env, monkeypatch):
        # A repeated edge in the second cohort of four fails the round as
        # that cohort is tallied, before the third trains.
        _, env = fsl_env
        cfg = tiny_config(clients_per_round=8)
        update, calls = protocols.fsl_client_update, []

        def malformed_second(*args):
            blocks = update(*args)
            calls.append(len(blocks[0]))
            if len(calls) == 2:
                blocks[1][-1, 3] = blocks[1][-1, 0]
            return blocks

        monkeypatch.setattr(protocols, "cohort_size", lambda specs: 2)
        monkeypatch.setattr(protocols, "fsl_client_update", malformed_second)
        with pytest.raises(ValueError, match=r"^round 1: duplicate edge in ranking$"):
            run_experiment(cfg, env=env)
        assert calls == [2, 2]

    @pytest.mark.parametrize("algorithm", [Algorithm.FSL, Algorithm.SPARSE_FSL])
    def test_round_memory_does_not_grow_with_clients(self, algorithm):
        # At 784-200-10 a cohort is one client, whose rankings are one
        # int64 row per layer (1.21 MiB).  A round that kept every client's
        # rows to the end, or every attacker's for the colluders' vote,
        # would peak one such row higher per extra client or attacker.
        def peak(per_round, attackers=0):
            cfg = ExperimentConfig(
                algorithm=algorithm, rounds=1, num_clients=8, clients_per_round=per_round,
                local_epochs=1, sparsity=0.1, seed=5,
                attack=AttackConfig(attackers / 8, AttackKind.RANK_REVERSAL),
                architecture=[LayerSpec(784, 200, "relu"), LayerSpec(200, 10, "identity")],
                dataset=DatasetSpec(kind="blobs", blob_classes=10, blob_dims=784,
                                    blob_samples_per_class=8, blob_cluster_std=2.0))
            env, state = build_environment(cfg), initial_state(cfg)
            tracemalloc.start()
            try:
                _, _, attack_active = fsl_round(state, env, cfg, 1)
                assert attack_active == bool(attackers)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ranking_bytes = 8 * (784 * 200 + 200 * 10)
        assert peak(8) - peak(2) < ranking_bytes / 4
        assert peak(8, attackers=6) - peak(8, attackers=1) < ranking_bytes / 4


# --- Evaluation by test-set size against the per-set loop it replaced -------


def _per_set_accuracies(cfg, env, state):
    """The oracle of the grouped evaluation: one forward pass, argmax and
    mean per non-empty test set, as evaluation ran before the sets of one
    size were stacked."""
    specs = cfg.architecture
    if state.weights is None:
        weights = nn.masked_weights(state.seed_net.weights, state.scores, cfg.subnet_fraction)
    else:
        weights = [m.astype(np.float64) for m in unflatten_params(state.weights, specs)]
    accs = []
    for feats, labels in env.test_sets:
        if len(labels):
            with np.errstate(over="ignore", invalid="ignore"):
                logits, _ = nn.forward(specs, weights, Minibatch(feats, labels))
            logits = np.nan_to_num(logits, nan=-np.inf, posinf=np.inf, neginf=-np.inf)
            accs.append(float(np.mean(np.argmax(logits, axis=1) == labels)))
    return np.asarray(accs)


def mid_config(algorithm: Algorithm) -> ExperimentConfig:
    """784-200-10 on 50 blobs over 8 clients, whose test sets hold 2, 0, 2,
    0, 1, 3, 0 and 1 samples."""
    rank = algorithm in protocols.RANK_ALGORITHMS
    cfg = ExperimentConfig(
        algorithm=algorithm, rounds=1, num_clients=8, clients_per_round=4, local_epochs=1,
        seed=1, dirichlet_alpha=0.3, sgd=SgdConfig(0.4 if rank else 0.01, 0.9, 1e-4, 8),
        architecture=[LayerSpec(784, 200, "relu"), LayerSpec(200, 10, "identity")],
        dataset=DatasetSpec(kind="blobs", blob_classes=10, blob_dims=784,
                            blob_samples_per_class=5, blob_cluster_std=2.0))
    cfg.validate()
    return cfg


class TestEvaluationBySize:
    # The desk task is the benchmark's desk variant 0.
    @pytest.mark.parametrize("make", [lambda algorithm: desk_task(algorithm, rounds=1),
                                      mid_config], ids=["desk", "mid"])
    @pytest.mark.parametrize("algorithm", [Algorithm.FSL, Algorithm.FEDAVG])
    def test_matches_per_set_loop(self, make, algorithm):
        # Each accuracy's bytes, in test-set order without the empty sets,
        # at the initial state and after one round.
        cfg = make(algorithm)
        env = build_environment(cfg)
        if make is mid_config:
            assert [len(labels) for _, labels in env.test_sets] == [2, 0, 2, 0, 1, 3, 0, 1]
        rank = algorithm in protocols.RANK_ALGORITHMS
        evaluate_state = protocols._evaluate_ranking if rank else protocols._evaluate_weights
        state = initial_state(cfg)
        for t in (0, 1):
            if t:
                state, _, _ = (fsl_round if rank else baseline_round)(state, env, cfg, t)
            got, want = evaluate_state(cfg, env, state), _per_set_accuracies(cfg, env, state)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("algorithm, name, evaluate_state", [
        (Algorithm.FSL, "evaluate", "_evaluate_ranking"),
        (Algorithm.FEDAVG, "dense_evaluate", "_evaluate_weights"),
    ])
    def test_one_pass_per_test_set_size(self, algorithm, name, evaluate_state, monkeypatch):
        # The desk data's 100 test sets come in 7 sizes, 1 to 7 samples:
        # one stacked call per size, every set in exactly one of them.
        cfg = desk_task(algorithm, rounds=1)
        env = build_environment(cfg)
        sizes = [len(labels) for _, labels in env.test_sets]
        assert len(sizes) == 100 and sorted(set(sizes)) == list(range(1, 8))
        shapes, fn = [], getattr(protocols, name)

        def counted(*args):
            shapes.append(args[-1].shape)
            return fn(*args)

        monkeypatch.setattr(protocols, name, counted)
        accs = getattr(protocols, evaluate_state)(cfg, env, initial_state(cfg))
        assert len(accs) == 100 and len(shapes) == 7
        assert sorted(b for _, b in shapes) == list(range(1, 8))
        assert sum(g for g, _ in shapes) == 100
