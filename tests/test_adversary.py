import numpy as np
import pytest

from fedrank import adversary
from fedrank.adversary import (AttackConfig, AttackKind, OmegaKind,
                               craft_opt_poison, craft_rank_poison,
                               craft_scale_attack)
from fedrank.aggregation import (ModelUpdate, multi_krum_select, select_from_distances,
                                 squared_distances)
from fedrank.data import gen_blobs
from fedrank.nn import LayerSpec, Minibatch, SgdConfig
from fedrank.ranking import reverse_ranking, vote_network
from fedrank.rng import InitKind, derive


class TestAttackConfig:
    def test_defaults_benign(self):
        cfg = AttackConfig()
        assert cfg.kind is AttackKind.NONE
        assert cfg.malicious_count(100) == 0

    def test_malicious_count_is_prefix_floor(self):
        cfg = AttackConfig(malicious_fraction=0.1, kind=AttackKind.SCALE)
        assert cfg.malicious_count(100) == 10
        assert cfg.malicious_count(25) == 2

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            AttackConfig(malicious_fraction=1.0, kind=AttackKind.SCALE)


def make_batches(rng, n_clients, dims=6, classes=3):
    ds = gen_blobs(classes, dims, 12 * n_clients, 1.0, rng)
    per = len(ds.labels) // n_clients
    out = []
    for c in range(n_clients):
        sl = slice(c * per, (c + 1) * per)
        out.append([Minibatch(ds.features[sl], ds.labels[sl])])
    return out


class TestRankPoison:
    SPECS = [LayerSpec(6, 5, "relu"), LayerSpec(5, 3, "identity")]
    SGD = SgdConfig(0.4, 0.9, 1e-4, 8)

    def _global_ranking(self, seed):
        from fedrank.nn import Supernetwork
        return Supernetwork.from_seed(seed, self.SPECS).score_rankings()

    def test_single_client_is_reversed_own_ranking(self):
        from fedrank.protocols import fsl_client_update
        seed = 901
        rg = self._global_ranking(seed)
        batches = make_batches(derive(71, []), 1)
        own = fsl_client_update(seed, rg, batches[0], 2, 0.5, self.SGD,
                                derive(seed, [3, 1, 0]), self.SPECS,
                                InitKind.SIGNED_KAIMING_CONSTANT)
        poison = craft_rank_poison(seed, rg, batches, 2, 0.5, self.SGD,
                                   [derive(seed, [3, 1, 0])], self.SPECS,
                                   InitKind.SIGNED_KAIMING_CONSTANT)
        for p, o in zip(poison, own):
            assert np.array_equal(p, reverse_ranking(o))

    def test_collusion_is_reverse_of_group_vote(self):
        from fedrank.protocols import fsl_client_update
        seed = 902
        rg = self._global_ranking(seed)
        batches = make_batches(derive(72, []), 3)
        rngs = [derive(seed, [3, 1, u]) for u in range(3)]
        own = [fsl_client_update(seed, rg, b, 1, 0.5, self.SGD,
                                 derive(seed, [3, 1, u]), self.SPECS,
                                 InitKind.SIGNED_KAIMING_CONSTANT)
               for u, b in enumerate(batches)]
        poison = craft_rank_poison(seed, rg, batches, 1, 0.5, self.SGD, rngs,
                                   self.SPECS, InitKind.SIGNED_KAIMING_CONSTANT)
        expected = [reverse_ranking(layer) for layer in vote_network(own)]
        for p, e in zip(poison, expected):
            assert np.array_equal(p, e)

    def test_output_is_permutation_family(self):
        seed = 903
        rg = self._global_ranking(seed)
        batches = make_batches(derive(73, []), 2)
        poison = craft_rank_poison(seed, rg, batches, 1, 0.5, self.SGD,
                                   [derive(seed, [3, 1, u]) for u in range(2)],
                                   self.SPECS, InitKind.SIGNED_KAIMING_CONSTANT)
        for layer, spec in zip(poison, self.SPECS):
            assert sorted(layer.tolist()) == list(range(spec.n_edges))

    def test_worked_fixture_submission(self, monkeypatch):
        # colluders producing the worked-example rankings submit the
        # reverse of that example's vote result
        import fedrank.protocols as protocols
        fixtures = [np.array([4, 0, 2, 3, 5, 1]), np.array([2, 0, 1, 5, 4, 3]),
                    np.array([0, 2, 5, 3, 4, 1])]
        calls = []

        def fake_update(seed, ranking, batches, epochs, k, sgd, rng, specs, init):
            calls.append(None)
            return [fixtures[len(calls) - 1]]

        monkeypatch.setattr(protocols, "fsl_client_update", fake_update)
        poison = craft_rank_poison(0, [fixtures[0]], [[None]] * 3, 1, 0.5,
                                   self.SGD, [None] * 3, [LayerSpec(2, 3, "identity")],
                                   InitKind.SIGNED_KAIMING_CONSTANT)
        assert poison[0].tolist() == [1, 3, 5, 4, 2, 0]


class TestScaleAttack:
    def test_negated_and_scaled(self):
        u = ModelUpdate(delta=np.array([1.0, -2.0]), client_id=4)
        out = craft_scale_attack(u, 10.0)
        assert out.delta.tolist() == [-10.0, 20.0]
        assert out.client_id == 4

    def test_zero_factor(self):
        u = ModelUpdate(delta=np.array([3.0, 5.0]), client_id=0)
        assert craft_scale_attack(u, 0.0).delta.tolist() == [0.0, 0.0]


def krum_accepts(benign, crafted, n_mal, f):
    sim = list(benign) + [ModelUpdate(delta=crafted, client_id=-(i + 1))
                          for i in range(n_mal)]
    selected = multi_krum_select(sim, f)
    return any(i >= len(benign) for i in selected)


class TestOptPoison:
    def _benign_cloud(self, seed, n=20, dims=2):
        rng = derive(seed, [])
        pts = rng.uniform(n * dims, -1, 1).reshape(n, dims)
        return [ModelUpdate(delta=p, client_id=i) for i, p in enumerate(pts)]

    def test_average_saturates(self):
        benign = self._benign_cloud(81)
        out = craft_opt_poison(benign, 3, "average", OmegaKind.NEG_UNIT,
                               gamma_init=50.0, gamma_iters=20)
        base = np.mean([u.delta for u in benign], axis=0)
        gamma = float(np.linalg.norm(out.delta - base))
        # always accepted: gamma climbs to gamma_init * (2 - 2^-iters)
        assert gamma == pytest.approx(50.0 * (2.0 - 2.0**-20), rel=1e-9)

    def test_neg_sign_formula(self):
        u = ModelUpdate(delta=np.array([2.0, -3.0]), client_id=0)
        out = craft_opt_poison([u, u, u], 2, "trimmed_mean", OmegaKind.NEG_SIGN,
                               gamma_init=8.0, gamma_iters=10)
        gamma = 8.0 * (2.0 - 2.0**-10)
        assert np.allclose(out.delta, np.array([2.0, -3.0]) - gamma * np.sign([2.0, -3.0]))

    def test_krum_gamma_near_boundary(self):
        benign = self._benign_cloud(82, n=20, dims=2)
        n_mal, f = 5, 5
        out = craft_opt_poison(benign, n_mal, "multi_krum", OmegaKind.NEG_UNIT,
                               gamma_init=50.0, gamma_iters=30)
        base = np.mean([u.delta for u in benign], axis=0)
        omega = -base / np.linalg.norm(base)
        gamma = float(np.linalg.norm(out.delta - base))
        # linear-scan oracle for the largest accepted gamma
        grid = np.linspace(1e-4, 100.0, 4000)
        accepted = [g for g in grid
                    if krum_accepts(benign, base + g * omega, n_mal, f)]
        boundary = max(accepted)
        assert abs(gamma - boundary) < 0.1
        assert krum_accepts(benign, base + (gamma - 1e-6) * omega, n_mal, f)

    def test_zero_norm_neg_unit_rejected(self):
        u = ModelUpdate(delta=np.zeros(3), client_id=0)
        with pytest.raises(ValueError):
            craft_opt_poison([u], 1, "average", OmegaKind.NEG_UNIT)

    def test_empty_benign_rejected(self):
        with pytest.raises(ValueError):
            craft_opt_poison([], 1, "average")

    def test_gamma_search_monotone_toward_boundary(self):
        # with a never-accepting aggregator stub the search only descends
        benign = self._benign_cloud(83, n=6)
        out = craft_opt_poison(benign, 2, "multi_krum", OmegaKind.NEG_UNIT,
                               gamma_init=1e9, gamma_iters=25)
        base = np.mean([u.delta for u in benign], axis=0)
        gamma = float(np.linalg.norm(out.delta - base))
        assert gamma < 1e9  # descended from the absurd start


# The gamma search as it was before it reused the benign distances: Krum is
# simulated anew on the stacked rows at every step.

def oracle_accepted(crafted, benign_deltas, n_malicious, aggregator, f):
    if aggregator in ("average", "trimmed_mean"):
        return True
    sim = list(benign_deltas)
    sim += [ModelUpdate(delta=crafted, client_id=-(i + 1)) for i in range(n_malicious)]
    if len(sim) < f + 3:
        return True
    selected = multi_krum_select(sim, f)
    return bool(set(range(len(benign_deltas), len(sim))) & set(selected))


def oracle_opt_poison(benign_deltas, n_malicious, aggregator, omega_kind,
                      gamma_init, gamma_iters, f):
    """Final crafted delta and the crafted delta tried at each gamma step."""
    base = np.mean([u.delta for u in benign_deltas], axis=0)
    if omega_kind is OmegaKind.NEG_UNIT:
        omega = -base / float(np.linalg.norm(base))
    else:
        omega = -np.sign(base)
    tried = []
    gamma, step = gamma_init, gamma_init / 2.0
    for _ in range(gamma_iters):
        tried.append(base + gamma * omega)
        if oracle_accepted(tried[-1], benign_deltas, n_malicious, aggregator, f):
            gamma += step
        else:
            gamma -= step
        step /= 2.0
    return base + gamma * omega, tried


class TestOptPoisonMatchesOracle:
    """The incremental Krum distances give the stacked search's bytes."""

    def _deltas(self, seed, n, dims, ids=None):
        rows = derive(seed, []).normal(n * dims).reshape(n, dims) + 0.5
        ids = range(10, 10 + n) if ids is None else ids
        return [ModelUpdate(delta=r, client_id=i) for r, i in zip(rows, ids)]

    def _check(self, monkeypatch, benign, n_mal, f, omega=OmegaKind.NEG_UNIT,
               gamma_init=3.0, gamma_iters=12, simulated=True):
        matrices = []

        def spy(sq, client_ids, f_):
            matrices.append(sq.copy())
            return select_from_distances(sq, client_ids, f_)

        monkeypatch.setattr(adversary, "select_from_distances", spy)
        out = craft_opt_poison(benign, n_mal, "multi_krum", omega, gamma_init,
                               gamma_iters, f=f)
        expected, tried = oracle_opt_poison(benign, n_mal, "multi_krum", omega,
                                            gamma_init, gamma_iters, f)
        assert out.delta.tobytes() == expected.tobytes()
        assert len(matrices) == (gamma_iters if simulated else 0)
        for sq, crafted in zip(matrices, tried):
            stacked = np.stack([u.delta for u in benign] + [crafted] * n_mal)
            assert sq.tobytes() == squared_distances(stacked).tobytes()
        return out

    @pytest.mark.parametrize("n_benign, n_mal, f", [
        (4, 4, 4),   # the server's 25-client round samples about this many
        (5, 1, 1),   # a single attacker
        (3, 3, 1),   # f below n_malicious
        (6, 2, 4),   # f above n_malicious
        (20, 5, 5),
    ])
    def test_matches_stacked_search(self, monkeypatch, n_benign, n_mal, f):
        for seed, omega in ((91, OmegaKind.NEG_UNIT), (92, OmegaKind.NEG_SIGN)):
            self._check(monkeypatch, self._deltas(seed + n_benign, n_benign, 7), n_mal, f,
                        omega=omega)

    def test_score_ties_broken_by_ids(self, monkeypatch):
        # Two benign rows duplicated under other ids: their scores tie, and
        # crafted copies tie with each other at every step.
        base = self._deltas(93, 3, 4)
        benign = base + [ModelUpdate(delta=u.delta.copy(), client_id=u.client_id - 20)
                         for u in base[:2]]
        self._check(monkeypatch, benign, 3, 2)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_inf_and_nan_crafted_rows(self, monkeypatch):
        # An inf entry makes crafted - crafted NaN, not 0.0; a NaN entry
        # makes every distance to a crafted copy NaN.
        for bad in (np.inf, -np.inf, np.nan):
            benign = self._deltas(94, 5, 6)
            benign[1].delta[3] = bad
            self._check(monkeypatch, benign, 3, 2, omega=OmegaKind.NEG_SIGN)

    def test_too_few_rows_saturates_without_selection(self, monkeypatch):
        # 2 + 2 rows < f + 3 = 5: no simulation, the search saturates.
        benign = self._deltas(95, 2, 5)
        out = self._check(monkeypatch, benign, 2, 2, simulated=False)
        base = np.mean([u.delta for u in benign], axis=0)
        gamma = float(np.linalg.norm(out.delta - base))
        assert gamma == pytest.approx(3.0 * (2.0 - 2.0**-12), rel=1e-9)

    def test_unknown_aggregator_rejected(self):
        with pytest.raises(ValueError, match="unknown aggregator 'median'"):
            craft_opt_poison(self._deltas(96, 3, 2), 1, "median")
