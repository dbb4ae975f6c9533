import hashlib
import tracemalloc

import numpy as np
import pytest

from fedrank.adversary import (AttackConfig, AttackKind, OmegaKind,
                               craft_opt_poison, craft_rank_poison,
                               craft_scale_attack)
from fedrank.aggregation import LEAF, average, multi_krum, multi_krum_select
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


def saturated(rows, omega_kind, gamma_init, gamma_iters):
    """mean + gamma_init * (2 - 2^-gamma_iters) * omega: the search with every
    step accepted, whose sum is exact for the starts used here.  The stacked
    mean has the bytes of ``average`` for rows wider than one entry."""
    base = np.mean(rows, axis=0)
    if omega_kind is OmegaKind.NEG_UNIT:
        omega = -base / float(np.linalg.norm(base))
    else:
        omega = -np.sign(base)
    return base + gamma_init * (2.0 - 2.0**-gamma_iters) * omega


class TestOptPoison:
    def _benign_cloud(self, seed, n=20, dims=2):
        rng = derive(seed, [])
        return list(rng.uniform(n * dims, -1, 1).reshape(n, dims))

    def test_average_saturates(self):
        # Every step is accepted, whatever the server's aggregator: gamma
        # climbs to gamma_init * (2 - 2^-iters).
        for gamma_init, iters in ((50.0, 20), (8.0, 10)):
            for k in range(1, 9):
                for seed in range(20):
                    own = self._benign_cloud(500 + seed, n=k, dims=5)
                    for omega in OmegaKind:
                        out = craft_opt_poison(own, omega, gamma_init, iters)
                        assert out.tobytes() == saturated(own, omega, gamma_init, iters).tobytes()

    def test_neg_sign_formula(self):
        u = np.array([2.0, -3.0])
        out = craft_opt_poison([u, u, u], OmegaKind.NEG_SIGN, 8.0, 10)
        gamma = 8.0 * (2.0 - 2.0**-10)
        assert np.allclose(out, np.array([2.0, -3.0]) - gamma * np.sign([2.0, -3.0]))

    def test_gamma_search_monotone_toward_boundary(self):
        # No step is rejected, so even from an absurd start the search only
        # climbs, toward 2 * gamma_init.
        benign = self._benign_cloud(83, n=6)
        out = craft_opt_poison(benign, OmegaKind.NEG_UNIT, 1e9, 25)
        assert out.tobytes() == saturated(benign, OmegaKind.NEG_UNIT, 1e9, 25).tobytes()

    def test_zero_norm_neg_unit_rejected(self):
        with pytest.raises(ValueError):
            craft_opt_poison([np.zeros(3)], OmegaKind.NEG_UNIT, 50.0, 20)

    def test_empty_benign_rejected(self):
        with pytest.raises(ValueError):
            craft_opt_poison([], OmegaKind.NEG_UNIT, 50.0, 20)


# The gamma search as it was when it simulated the server's Krum: at every
# step, multi_krum_select over the own rows and n_malicious crafted copies
# under ids below every real one, tolerating f.

def oracle_accepted(crafted, benign_deltas, client_ids, n_malicious, f):
    sim = list(benign_deltas) + [crafted] * n_malicious
    if len(sim) < f + 3:
        return True
    ids = list(client_ids) + [-(i + 1) for i in range(n_malicious)]
    selected = multi_krum_select(sim, ids, f)
    return bool(set(range(len(benign_deltas), len(sim))) & set(selected))


def oracle_opt_poison(benign_deltas, client_ids, n_malicious, omega_kind, gamma_init,
                      gamma_iters, f):
    base = np.mean(benign_deltas, axis=0)
    if omega_kind is OmegaKind.NEG_UNIT:
        omega = -base / float(np.linalg.norm(base))
    else:
        omega = -np.sign(base)
    gamma, step = gamma_init, gamma_init / 2.0
    for _ in range(gamma_iters):
        if oracle_accepted(base + gamma * omega, benign_deltas, client_ids, n_malicious, f):
            gamma += step
        else:
            gamma -= step
        step /= 2.0
    return base + gamma * omega


class TestOptPoisonMatchesOracle:
    """As ``baseline_round`` calls it, with the k attackers' own deltas and
    k copies tolerated, the simulated Krum never rejected a step: the
    saturated craft has the simulated search's bytes."""

    def _deltas(self, seed, n, dims):
        return list(derive(seed, []).normal(n * dims).reshape(n, dims) + 0.5)

    def _check(self, benign, n_mal, f, omega=OmegaKind.NEG_UNIT, gamma_init=3.0,
               gamma_iters=12, ids=None):
        ids = list(range(10, 10 + len(benign))) if ids is None else ids
        out = craft_opt_poison(benign, omega, gamma_init, gamma_iters)
        expected = oracle_opt_poison(benign, ids, n_mal, omega, gamma_init, gamma_iters, f)
        assert out.tobytes() == expected.tobytes()
        return out

    @pytest.mark.parametrize("n_benign, n_mal, f", [
        (1, 1, 1),
        (4, 4, 4),   # the server's 25-client round samples about this many
        (8, 8, 8),
    ])
    def test_matches_stacked_search(self, n_benign, n_mal, f):
        # rows wider than one leaf take the leaf-blocked sums' tree
        for seed, omega, dims in ((91, OmegaKind.NEG_UNIT, 7), (92, OmegaKind.NEG_SIGN, 7),
                                  (97, OmegaKind.NEG_UNIT, 2 * LEAF + 9)):
            self._check(self._deltas(seed + n_benign, n_benign, dims), n_mal, f, omega=omega)

    def test_score_ties_broken_by_ids(self):
        # Two own rows duplicated under ids below the copies': the duplicates
        # tie with each other, and a copy still scores 0 and is kept.
        base = self._deltas(93, 3, 4)
        benign = base + [u.copy() for u in base[:2]]
        self._check(benign, 5, 5, ids=[10, 11, 12, -10, -9])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_inf_and_nan_crafted_rows(self):
        # The one input where the simulated search could reject a step: an
        # inf under neg_sign keeps the crafted copy inf there, and inf - inf
        # makes its distances NaN.  The craft is the saturated mean + gamma *
        # omega whatever the entries hold.  Under neg_sign a NaN or inf entry
        # stays as it is.  Under neg_unit an inf makes the norm inf, so that
        # entry turns NaN and the rest is the mean; a NaN makes all of it NaN.
        for bad in (np.inf, -np.inf, np.nan):
            for omega in OmegaKind:
                benign = self._deltas(94, 5, 6)
                benign[1][3] = bad
                out = craft_opt_poison(benign, omega, 3.0, 12)
                assert out.tobytes() == saturated(benign, omega, 3.0, 12).tobytes()
                rest = np.delete(out, 3)
                if omega is OmegaKind.NEG_SIGN:
                    np.testing.assert_equal(out[3], bad)
                    assert np.all(np.isfinite(rest))
                elif np.isnan(bad):
                    assert np.all(np.isnan(out))
                else:
                    assert np.isnan(out[3])
                    assert rest.tobytes() == np.delete(np.mean(benign, axis=0), 3).tobytes()
        # Infs of both signs across three rows: the simulation rejected every
        # step there, down to gamma = 50 * 2^-20; the craft saturates.
        rows = [np.array([0.82, 1.34, -2.22]), np.array([0.81, -np.inf, 0.41]),
                np.array([-1.0, np.inf, np.inf])]
        out = craft_opt_poison(rows, OmegaKind.NEG_SIGN, 50.0, 20)
        simulated = oracle_opt_poison(rows, [0, 1, 2], 3, OmegaKind.NEG_SIGN, 50.0, 20, 3)
        assert out.tobytes() == saturated(rows, OmegaKind.NEG_SIGN, 50.0, 20).tobytes()
        assert simulated[0] == np.mean(rows, axis=0)[0] - 50.0 * 2.0**-20
        assert np.isnan(out[1]) and out[2] == np.inf

    def test_too_few_rows_saturates_without_selection(self):
        # 2 + 2 rows < f + 3 = 5: the simulation made no selection.
        benign = self._deltas(95, 2, 5)
        out = self._check(benign, 2, 2)
        base = np.mean(benign, axis=0)
        gamma = float(np.linalg.norm(out - base))
        assert gamma == pytest.approx(3.0 * (2.0 - 2.0**-12), rel=1e-9)

    @pytest.mark.parametrize("aggregator", ["average", "multi_krum"])
    @pytest.mark.parametrize("width", [1, 4])
    def test_ragged_rows_rejected(self, aggregator, width):
        # The craft rejects ragged rows, and so does the aggregator the round
        # hands them to next.
        rows = self._deltas(98, 4, 3)
        rows[2] = np.ones(width)
        with pytest.raises(ValueError, match="same shape"):
            craft_opt_poison(rows, OmegaKind.NEG_UNIT, 50.0, 20)
        aggregate = {"average": average,
                     "multi_krum": lambda u: multi_krum(u, [0, 1, 2, 3], 1)}[aggregator]
        with pytest.raises(ValueError, match="same shape"):
            aggregate(rows)

    def test_search_holds_no_stack(self):
        # Five attackers at the mid-size MLP's 159,010 parameters.  Beside
        # their own rows the craft holds the mean, omega and the crafted
        # update; a stack of the own rows would add five.
        own = self._deltas(99, 5, 159010)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            craft_opt_poison(own, OmegaKind.NEG_UNIT, 50.0, 20)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 5 * own[0].nbytes


# SHA-256 of each crafted output's bytes, taken when the attacks still took
# and returned update objects.
CRAFT_PINS = {
    "craft_scale_attack": "90f513c91780e23211a55a0bffe79d792460151f1ef988e9f4041cdb7038114e",
    "craft_opt_poison_average": "f1e4c59b11005e98ae7fbd9f5c07e44e47eb4b840e023187bbe6d3ec631492ee",
}


@pytest.mark.parametrize("as_rows", [True, False], ids=["list", "array"])
def test_crafted_outputs_pinned(as_rows):
    benign = derive(152, []).normal(5 * 40).reshape(5, 40) * 0.1 + 0.05
    benign = list(benign) if as_rows else benign
    out = {
        "craft_scale_attack": craft_scale_attack(benign[2], 1e3),
        "craft_opt_poison_average": craft_opt_poison(benign, OmegaKind.NEG_UNIT, 50.0, 20),
    }
    assert {k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in out.items()} == CRAFT_PINS
