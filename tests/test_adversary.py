import hashlib
import tracemalloc

import numpy as np
import pytest

from fedrank import adversary
from fedrank.adversary import (AttackConfig, AttackKind, OmegaKind,
                               craft_opt_poison, craft_rank_poison,
                               craft_scale_attack)
from fedrank.aggregation import (LEAF, multi_krum_select, select_from_distances,
                                 squared_distances)
from fedrank.data import gen_blobs
from fedrank.nn import LayerSpec, Minibatch, SgdConfig, Supernetwork
from fedrank.protocols import fsl_client_update
from fedrank.ranking import LayerTally, argsort_ranking, reverse_ranking, vote_network
from fedrank.rng import derive


class TestAttackConfig:
    def test_defaults_benign(self):
        cfg = AttackConfig()
        assert cfg.kind is AttackKind.NONE
        assert cfg.malicious_count(100) == 0

    def test_malicious_count_is_prefix_floor(self):
        cfg = AttackConfig(malicious_fraction=0.1, kind=AttackKind.SCALE)
        assert cfg.malicious_count(100) == 10
        assert cfg.malicious_count(25) == 2
        # floor at the decimal value: int(0.7 * 90) is 62 in floating point
        cfg = AttackConfig(malicious_fraction=0.7, kind=AttackKind.SCALE)
        assert cfg.malicious_count(90) == 63

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


def colluders_tallies(own):
    """One uncut tally per layer, fed each colluder's rankings, as
    ``fsl_round`` feeds them."""
    tallies = [LayerTally(len(layer)) for layer in own[0]]
    for rankings in own:
        for tally, layer in zip(tallies, rankings, strict=True):
            tally.add(layer)
    return tallies


class TestRankPoison:
    SPECS = [LayerSpec(6, 5, "relu"), LayerSpec(5, 3, "identity")]
    SGD = SgdConfig(0.4, 0.9, 1e-4, 8)

    def test_single_client_is_reversed_own_ranking(self):
        seed_net = Supernetwork.from_seed(901, self.SPECS)
        batches = make_batches(derive(71, []), 1)
        own = [layer[0] for layer in fsl_client_update(
            seed_net, seed_net.scores, [batches[0]], [2], 0.5, self.SGD,
            [derive(901, [3, 1, 0])])]
        poison = craft_rank_poison(colluders_tallies([own]))
        for p, o in zip(poison, own):
            assert np.array_equal(p, reverse_ranking(o))

    def test_collusion_is_reverse_of_group_vote(self):
        seed_net = Supernetwork.from_seed(902, self.SPECS)
        batches = make_batches(derive(72, []), 3)
        own = [[layer[0] for layer in fsl_client_update(
            seed_net, seed_net.scores, [b], [1], 0.5, self.SGD, [derive(902, [3, 1, u])])]
               for u, b in enumerate(batches)]
        poison = craft_rank_poison(colluders_tallies(own))
        expected = [reverse_ranking(layer) for layer in vote_network(own)]
        for p, e in zip(poison, expected):
            assert np.array_equal(p, e)

    def test_output_is_permutation_family(self):
        own = [[argsort_ranking(derive(903, [u, li]).uniform(spec.n_edges))
                for li, spec in enumerate(self.SPECS)] for u in range(2)]
        poison = craft_rank_poison(colluders_tallies(own))
        for layer, spec in zip(poison, self.SPECS):
            assert sorted(layer.tolist()) == list(range(spec.n_edges))

    def test_worked_fixture_submission(self):
        # colluders holding the worked-example rankings submit the reverse
        # of that example's vote result; nothing is trained
        fixtures = [np.array([4, 0, 2, 3, 5, 1]), np.array([2, 0, 1, 5, 4, 3]),
                    np.array([0, 2, 5, 3, 4, 1])]
        poison = craft_rank_poison(colluders_tallies([[f] for f in fixtures]))
        assert poison[0].tolist() == [1, 3, 5, 4, 2, 0]


class TestScaleAttack:
    def test_negated_and_scaled(self):
        out = craft_scale_attack(np.array([1.0, -2.0]), 10.0)
        assert out.tolist() == [-10.0, 20.0]

    def test_zero_factor(self):
        assert craft_scale_attack(np.array([3.0, 5.0]), 0.0).tolist() == [0.0, 0.0]


def krum_accepts(benign, crafted, n_mal, f):
    """Whether Krum keeps a crafted copy among the benign rows (ids 0, 1,
    ...) and n_mal copies; the distances come from one broadcast, not pair
    by pair."""
    mat = np.stack(list(benign) + [crafted] * n_mal)
    sq = ((mat[:, None] - mat[None]) ** 2).sum(-1)
    ids = list(range(len(benign))) + [-(i + 1) for i in range(n_mal)]
    return max(select_from_distances(sq, ids, f)) >= len(benign)


class TestOptPoison:
    def _benign_cloud(self, seed, n=20, dims=2):
        rng = derive(seed, [])
        return list(rng.uniform(n * dims, -1, 1).reshape(n, dims))

    def test_average_saturates(self):
        benign = self._benign_cloud(81)
        out = craft_opt_poison(benign, list(range(20)), 3, "average", OmegaKind.NEG_UNIT,
                               gamma_init=50.0, gamma_iters=20)
        base = np.mean(benign, axis=0)
        gamma = float(np.linalg.norm(out - base))
        # always accepted: gamma climbs to gamma_init * (2 - 2^-iters)
        assert gamma == pytest.approx(50.0 * (2.0 - 2.0**-20), rel=1e-9)
        # As baseline_round calls it (k own deltas, n_malicious = f = k), the
        # Krum search saturates too: each finite copy has k - 1 zero
        # distances, scores 0 and wins its tie on a negative id.
        for k in range(1, 9):
            for seed in range(20):
                own = self._benign_cloud(500 + seed, n=k, dims=5)
                ids = [3 * i + seed for i in range(k)]
                for omega in OmegaKind:
                    crafts = [craft_opt_poison(own, ids, k, aggregator, omega).tobytes()
                              for aggregator in ("multi_krum", "average")]
                    assert crafts[0] == crafts[1]

    def test_neg_sign_formula(self):
        u = np.array([2.0, -3.0])
        out = craft_opt_poison([u, u, u], [0, 0, 0], 2, "trimmed_mean", OmegaKind.NEG_SIGN,
                               gamma_init=8.0, gamma_iters=10)
        gamma = 8.0 * (2.0 - 2.0**-10)
        assert np.allclose(out, np.array([2.0, -3.0]) - gamma * np.sign([2.0, -3.0]))

    def test_krum_gamma_near_boundary(self):
        benign = self._benign_cloud(82, n=20, dims=2)
        n_mal, f = 5, 5
        out = craft_opt_poison(benign, list(range(20)), n_mal, "multi_krum",
                               OmegaKind.NEG_UNIT, gamma_init=50.0, gamma_iters=30)
        base = np.mean(benign, axis=0)
        omega = -base / np.linalg.norm(base)
        gamma = float(np.linalg.norm(out - base))
        # linear-scan oracle for the largest accepted gamma
        grid = np.linspace(1e-4, 100.0, 4000)
        accepted = [g for g in grid
                    if krum_accepts(benign, base + g * omega, n_mal, f)]
        boundary = max(accepted)
        assert abs(gamma - boundary) < 0.1
        assert krum_accepts(benign, base + (gamma - 1e-6) * omega, n_mal, f)

    def test_zero_norm_neg_unit_rejected(self):
        with pytest.raises(ValueError):
            craft_opt_poison([np.zeros(3)], [0], 1, "average", OmegaKind.NEG_UNIT)

    def test_empty_benign_rejected(self):
        with pytest.raises(ValueError):
            craft_opt_poison([], [], 1, "average")

    @pytest.mark.parametrize("aggregator", ["average", "multi_krum"])
    @pytest.mark.parametrize("ids", [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 5, 6]])
    def test_client_ids_must_match_rows(self, aggregator, ids):
        benign = self._benign_cloud(84, n=6)
        with pytest.raises(ValueError, match=f"{len(ids)} client ids for 6 updates"):
            craft_opt_poison(benign, ids, 2, aggregator)

    def test_gamma_search_monotone_toward_boundary(self):
        # with a never-accepting aggregator stub the search only descends
        benign = self._benign_cloud(83, n=6)
        out = craft_opt_poison(benign, list(range(6)), 2, "multi_krum", OmegaKind.NEG_UNIT,
                               gamma_init=1e9, gamma_iters=25)
        base = np.mean(benign, axis=0)
        gamma = float(np.linalg.norm(out - base))
        assert gamma < 1e9  # descended from the absurd start


# The gamma search as it was before it reused the benign distances: Krum is
# simulated anew on the stacked rows at every step.

def oracle_accepted(crafted, benign_deltas, client_ids, n_malicious, aggregator, f):
    if aggregator in ("average", "trimmed_mean"):
        return True
    sim = list(benign_deltas) + [crafted] * n_malicious
    if len(sim) < f + 3:
        return True
    ids = list(client_ids) + [-(i + 1) for i in range(n_malicious)]
    selected = multi_krum_select(sim, ids, f)
    return bool(set(range(len(benign_deltas), len(sim))) & set(selected))


def oracle_opt_poison(benign_deltas, client_ids, n_malicious, aggregator, omega_kind,
                      gamma_init, gamma_iters, f):
    """Final crafted delta and the crafted delta tried at each gamma step."""
    base = np.mean(benign_deltas, axis=0)
    if omega_kind is OmegaKind.NEG_UNIT:
        omega = -base / float(np.linalg.norm(base))
    else:
        omega = -np.sign(base)
    tried = []
    gamma, step = gamma_init, gamma_init / 2.0
    for _ in range(gamma_iters):
        tried.append(base + gamma * omega)
        if oracle_accepted(tried[-1], benign_deltas, client_ids, n_malicious, aggregator, f):
            gamma += step
        else:
            gamma -= step
        step /= 2.0
    return base + gamma * omega, tried


class TestOptPoisonMatchesOracle:
    """The incremental Krum distances give the stacked search's bytes."""

    def _deltas(self, seed, n, dims):
        return list(derive(seed, []).normal(n * dims).reshape(n, dims) + 0.5)

    def _check(self, monkeypatch, benign, n_mal, f, omega=OmegaKind.NEG_UNIT,
               gamma_init=3.0, gamma_iters=12, simulated=True, ids=None):
        # The oracle's Krum tolerates f; craft_opt_poison's tolerates n_mal.
        ids = list(range(10, 10 + len(benign))) if ids is None else ids
        matrices = []

        def spy(sq, client_ids, f_):
            matrices.append(sq.copy())
            return select_from_distances(sq, client_ids, f_)

        monkeypatch.setattr(adversary, "select_from_distances", spy)
        out = craft_opt_poison(benign, ids, n_mal, "multi_krum", omega, gamma_init,
                               gamma_iters)
        expected, tried = oracle_opt_poison(benign, ids, n_mal, "multi_krum", omega,
                                            gamma_init, gamma_iters, f)
        assert out.tobytes() == expected.tobytes()
        assert len(matrices) == (gamma_iters if simulated else 0)
        for sq, crafted in zip(matrices, tried):
            stacked = np.stack(benign + [crafted] * n_mal)
            assert sq.tobytes() == squared_distances(stacked).tobytes()
        return out

    @pytest.mark.parametrize("n_benign, n_mal, f", [
        (4, 4, 4),   # the server's 25-client round samples about this many
        (5, 1, 1),   # a single attacker
        (20, 5, 5),
    ])
    def test_matches_stacked_search(self, monkeypatch, n_benign, n_mal, f):
        # rows wider than one leaf take the leaf-blocked sums' tree
        for seed, omega, dims in ((91, OmegaKind.NEG_UNIT, 7), (92, OmegaKind.NEG_SIGN, 7),
                                  (97, OmegaKind.NEG_UNIT, 2 * LEAF + 9)):
            self._check(monkeypatch, self._deltas(seed + n_benign, n_benign, dims), n_mal, f,
                        omega=omega)

    def test_score_ties_broken_by_ids(self, monkeypatch):
        # Two benign rows duplicated under other ids: their scores tie, and
        # crafted copies tie with each other at every step.
        base = self._deltas(93, 3, 4)
        benign = base + [u.copy() for u in base[:2]]
        self._check(monkeypatch, benign, 3, 3, ids=[10, 11, 12, -10, -9])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_inf_and_nan_crafted_rows(self, monkeypatch):
        # An inf entry makes crafted - crafted NaN, not 0.0; a NaN entry
        # makes every distance to a crafted copy NaN.
        for bad in (np.inf, -np.inf, np.nan):
            benign = self._deltas(94, 5, 6)
            benign[1][3] = bad
            self._check(monkeypatch, benign, 3, 3, omega=OmegaKind.NEG_SIGN)

    def test_too_few_rows_saturates_without_selection(self, monkeypatch):
        # 2 + 2 rows < f + 3 = 5: no simulation, the search saturates.
        benign = self._deltas(95, 2, 5)
        out = self._check(monkeypatch, benign, 2, 2, simulated=False)
        base = np.mean(benign, axis=0)
        gamma = float(np.linalg.norm(out - base))
        assert gamma == pytest.approx(3.0 * (2.0 - 2.0**-12), rel=1e-9)

    def test_unknown_aggregator_rejected(self):
        with pytest.raises(ValueError, match="unknown aggregator 'median'"):
            craft_opt_poison(self._deltas(96, 3, 2), [0, 1, 2], 1, "median")

    @pytest.mark.parametrize("aggregator", ["average", "multi_krum"])
    @pytest.mark.parametrize("width", [1, 4])
    def test_ragged_rows_rejected(self, aggregator, width):
        rows = self._deltas(98, 4, 3)
        rows[2] = np.ones(width)
        with pytest.raises(ValueError, match="same shape"):
            craft_opt_poison(rows, [0, 1, 2, 3], 2, aggregator)

    def test_search_holds_no_stack(self):
        # Five attackers at the mid-size MLP's 159,010 parameters.  Beside
        # their own rows the search holds the mean, omega and one crafted
        # copy at a time; a stack of the own rows would add five.
        own = self._deltas(99, 5, 159010)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            craft_opt_poison(own, [1, 2, 3, 4, 5], 5, "multi_krum", gamma_iters=20)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 5 * own[0].nbytes


# SHA-256 of each crafted output's bytes, taken when the attacks still took
# and returned update objects.
CRAFT_PINS = {
    "craft_scale_attack": "90f513c91780e23211a55a0bffe79d792460151f1ef988e9f4041cdb7038114e",
    "craft_opt_poison_multi_krum": "a44b669ef7c4e7f7453081c57181516ab8f959c127a52c61b95783b2cc595517",
    "craft_opt_poison_average": "f1e4c59b11005e98ae7fbd9f5c07e44e47eb4b840e023187bbe6d3ec631492ee",
}


@pytest.mark.parametrize("as_rows", [True, False], ids=["list", "array"])
def test_crafted_outputs_pinned(monkeypatch, as_rows):
    benign = derive(152, []).normal(5 * 40).reshape(5, 40) * 0.1 + 0.05
    benign = list(benign) if as_rows else benign
    ids = [4, 8, 1, 6, 2]
    verdicts = []
    accepts = adversary._krum_accepts

    def spy(*args):
        verdicts.append(accepts(*args))
        return verdicts[-1]

    monkeypatch.setattr(adversary, "_krum_accepts", spy)
    out = {
        "craft_scale_attack": craft_scale_attack(benign[2], 1e3),
        "craft_opt_poison_multi_krum": craft_opt_poison(benign, ids, 2, "multi_krum",
                                                        OmegaKind.NEG_UNIT, 50.0, 20),
        "craft_opt_poison_average": craft_opt_poison(benign, ids, 2, "average",
                                                     OmegaKind.NEG_UNIT, 50.0, 20),
    }
    # The simulated Krum rejects some steps: the search does not saturate.
    assert len(verdicts) == 20 and False in verdicts and True in verdicts
    assert {k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in out.items()} == CRAFT_PINS
