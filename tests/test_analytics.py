import math

import numpy as np
import pytest

from fedrank.analytics import (ARCH_PRESETS, comm_cost, failure_upper_bound,
                               rank_payload_bits, sweep_bound)


class TestFailureBound:
    def test_hand_value(self):
        # 0.5 * sqrt(25 * 0.9 * 0.1) / (25 * 0.32) = 0.75 / 8
        assert failure_upper_bound(25, 0.9, 0.1) == 0.09375

    def test_hand_value_alpha_zero(self):
        # 0.5 * sqrt(25 * 0.09) / (25 * 0.4)
        assert failure_upper_bound(25, 0.9, 0.0) == 0.075

    def test_p_near_one_vanishes(self):
        assert failure_upper_bound(25, 0.999999, 0.0) < 1e-3

    def test_p_half_vacuous(self):
        for alpha in (0.0, 0.1, 0.3):
            assert failure_upper_bound(25, 0.5, alpha) == 1.0

    def test_below_half_vacuous(self):
        assert failure_upper_bound(25, 0.4, 0.0) == 1.0

    def test_clamped_to_probability(self):
        for p in np.linspace(0.01, 0.99, 50):
            for alpha in (0.0, 0.2, 0.45):
                b = failure_upper_bound(11, float(p), alpha)
                assert 0.0 <= b <= 1.0

    def test_monotone_in_p(self):
        ps = np.linspace(0.6, 0.99, 40)
        for alpha in (0.0, 0.1, 0.2, 0.3):
            vals = [failure_upper_bound(25, float(p), alpha) for p in ps]
            assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_alpha(self):
        alphas = np.linspace(0.0, 0.45, 20)
        vals = [failure_upper_bound(25, 0.9, float(a)) for a in alphas]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_invalid_p(self):
        for p in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                failure_upper_bound(25, p, 0.1)

    def test_bounds_the_exact_two_group_failure(self):
        # (1 - alpha) n benign clients each keep the edge with probability p
        # and alpha n attackers each with 1 - p; the vote fails when at most
        # n / 2 keep it.  The grid: alpha = 0, 0.1, ..., 0.4 wherever alpha n
        # is an integer, p = 0.51, ..., 0.99 (1274 points).
        def pmf(m, q):
            return [math.comb(m, k) * q**k * (1 - q)**(m - k) for k in range(m + 1)]

        points = 0
        for n in (5, 10, 20, 25, 50, 100):
            for attackers in sorted({tenths * n // 10 for tenths in range(5)
                                     if tenths * n % 10 == 0}):
                for hundredths in range(51, 100):
                    p = hundredths / 100
                    exact = sum(b * a for i, b in enumerate(pmf(n - attackers, p))
                                for j, a in enumerate(pmf(attackers, 1 - p))
                                if 2 * (i + j) <= n)
                    assert exact <= failure_upper_bound(n, p, attackers / n), (n, p, attackers)
                    points += 1
        assert points == 1274

    def test_sweep_shape_and_values(self):
        rows = sweep_bound(25, [0.6, 0.9], [0.0, 0.1])
        assert len(rows) == 4
        assert rows[3] == (0.1, 0.9, 0.09375)


# The preset layer parameter counts drive the expected wire sizes; every
# expectation below is recomputed with independent arithmetic.

def naive_rank_bits(arch):
    return sum(n * math.ceil(math.log2(n)) if n > 1 else 0 for n in arch)


class TestCommCost:
    def test_rank_payload_matches_independent_arithmetic(self):
        for counts in ARCH_PRESETS.values():
            assert rank_payload_bits(counts) == naive_rank_bits(counts)

    def test_lenet_mnist_values(self):
        arch = ARCH_PRESETS["lenet-mnist"]
        mib = 8 * 2**20
        assert comm_cost(arch, "fedavg").upload_mib == pytest.approx(6.20, abs=0.01)
        assert comm_cost(arch, "fsl").upload_mib == pytest.approx(4.05, abs=0.01)
        assert comm_cost(arch, "fsl").download_mib == pytest.approx(4.05, abs=0.01)
        assert comm_cost(arch, "sparse_fsl", 0.5).upload_mib == pytest.approx(2.03, abs=0.01)
        assert comm_cost(arch, "sparse_fsl", 0.1).upload_mib == pytest.approx(0.40, abs=0.01)
        assert comm_cost(arch, "sparse_fsl", 0.1).download_mib == pytest.approx(4.05, abs=0.01)
        assert comm_cost(arch, "signsgd").upload_mib == pytest.approx(0.19, abs=0.01)
        assert comm_cost(arch, "signsgd").download_mib == pytest.approx(6.20, abs=0.01)
        assert comm_cost(arch, "topk", 0.5).upload_mib == pytest.approx(3.29, abs=0.01)
        assert comm_cost(arch, "topk", 0.1).upload_mib == pytest.approx(0.81, abs=0.01)
        assert comm_cost(arch, "fedavg").upload_bits == sum(arch) * 32

    def test_conv8_cifar10_values(self):
        arch = ARCH_PRESETS["conv8-cifar10"]
        assert sum(arch) == 5275840
        # headline figures are printed at one decimal in the reference table
        assert round(comm_cost(arch, "fedavg").upload_mib, 1) == 20.1
        assert round(comm_cost(arch, "fsl").upload_mib, 1) == 13.1
        assert comm_cost(arch, "signsgd").upload_mib == pytest.approx(0.63, abs=0.01)
        assert comm_cost(arch, "topk", 0.5).upload_mib == pytest.approx(10.69, abs=0.01)
        assert comm_cost(arch, "topk", 0.1).upload_mib == pytest.approx(2.64, abs=0.01)

    def test_lenet_femnist_values(self):
        arch = ARCH_PRESETS["lenet-femnist"]
        assert comm_cost(arch, "fedavg").upload_mib == pytest.approx(6.23, abs=0.01)
        assert comm_cost(arch, "fsl").upload_mib == pytest.approx(4.06, abs=0.01)
        assert comm_cost(arch, "sparse_fsl", 0.5).upload_mib == pytest.approx(2.03, abs=0.01)
        assert comm_cost(arch, "sparse_fsl", 0.1).upload_mib == pytest.approx(0.40, abs=0.01)

    def test_single_edge_layer_costs_nothing(self):
        assert comm_cost([1], "fsl").upload_bits == 0

    def test_rank_cheaper_than_dense(self):
        for counts in ARCH_PRESETS.values():
            assert comm_cost(counts, "fsl").upload_bits < comm_cost(counts, "fedavg").upload_bits

    def test_sparse_scales_linearly(self):
        arch = ARCH_PRESETS["lenet-mnist"]
        full = comm_cost(arch, "fsl")
        for s in (0.1, 0.25, 0.5, 0.9):
            r = comm_cost(arch, "sparse_fsl", s)
            assert r.upload_bits == pytest.approx(s * full.upload_bits)
            assert r.download_bits == full.download_bits

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            comm_cost([10], "gossip")

    def test_missing_fraction(self):
        with pytest.raises(ValueError):
            comm_cost([10], "sparse_fsl")

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            comm_cost([10], "sparse_fsl", 1.5)
        with pytest.raises(ValueError):
            comm_cost([10], "topk", 0.0)
