import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fedrank.nn as nn
from fedrank.nn import (LayerSpec, Minibatch, SeedNetwork, SgdConfig, Supernetwork,
                        dense_evaluate, dense_weight_grads, edge_popup_train,
                        ep_backward, ep_forward, evaluate, forward, mask_layer,
                        masked_weights, sgd_step)
from fedrank.analytics import ARCH_PRESETS
from fedrank.protocols import ExperimentConfig, run_experiment
from fedrank.ranking import argsort_ranking
from fedrank.rng import InitKind, derive


# --- Independent oracle: loop-based forward and straight-through backward ---

def oracle_mask(scores, k):
    flat = scores.flatten().tolist()
    n = len(flat)
    t = n - math.ceil(k * n)
    order = sorted(range(n), key=lambda i: (flat[i], i))
    mask = [0.0] * n
    for idx in order[t:]:
        mask[idx] = 1.0
    return np.array(mask).reshape(scores.shape)


def oracle_forward(weights, scores, activations, k, x):
    x = np.asarray(x, dtype=np.float64)
    batch = x.shape[0]
    zs, pres, masks = [], [], []
    for W, S, act in zip(weights, scores, activations):
        W = np.asarray(W, dtype=np.float64)
        mask = oracle_mask(np.asarray(S), k)
        fan_out, fan_in = W.shape
        pre = np.zeros((batch, fan_out))
        for b in range(batch):
            for v in range(fan_out):
                acc = 0.0
                for u in range(fan_in):
                    acc += x[b, u] * W[v, u] * mask[v, u]
                pre[b, v] = acc
        zs.append(x)
        pres.append(pre)
        masks.append(mask)
        if act == "relu":
            x = np.where(pre > 0, pre, 0.0)
        else:
            x = pre
    return pres[-1], zs, pres, masks


def oracle_backward(weights, scores, activations, k, x, labels):
    logits, zs, pres, masks = oracle_forward(weights, scores, activations, k, x)
    batch, classes = logits.shape
    dldi = np.zeros_like(logits)
    for b in range(batch):
        row = logits[b] - logits[b].max()
        probs = np.exp(row) / np.exp(row).sum()
        for c in range(classes):
            dldi[b, c] = (probs[c] - (1.0 if c == labels[b] else 0.0)) / batch
    grads = []
    for i in range(len(weights) - 1, -1, -1):
        W = np.asarray(weights[i], dtype=np.float64)
        fan_out, fan_in = W.shape
        g = np.zeros((fan_out, fan_in))
        for v in range(fan_out):
            for u in range(fan_in):
                for b in range(x.shape[0]):
                    g[v, u] += dldi[b, v] * zs[i][b, u] * W[v, u]
        grads.append(g)
        if i > 0:
            prev = np.zeros_like(zs[i])
            for b in range(x.shape[0]):
                for u in range(fan_in):
                    acc = 0.0
                    for v in range(fan_out):
                        acc += dldi[b, v] * W[v, u] * masks[i][v, u]
                    prev[b, u] = acc
            if activations[i - 1] == "relu":
                prev = prev * (pres[i - 1] > 0)
            dldi = prev
    return list(reversed(grads))


def ep_pass(net, k, batch):
    """One client's logits and score gradients through the cohort kernels,
    as a one-client cohort: its masked weights and its batch stacked once,
    and dL/dW_eff times W."""
    weights = [w[None] for w in masked_weights(net.weights, net.scores, k)]
    stacked = Minibatch(np.asarray(batch.inputs)[None], np.asarray(batch.labels)[None])
    logits, cache = ep_forward(net, weights, stacked)
    return logits[0], [g[0] * w for g, w in zip(ep_backward(net, cache), net.weights)]


def random_net(rng, specs):
    seed = rng.integers_below([2**31])[0]
    return Supernetwork.from_seed(seed, specs, InitKind.KAIMING_NORMAL)


class TestMaskLayer:
    def test_top_half_by_score(self):
        mask = mask_layer(np.array([0.2, 0.9, 0.5, 0.7]), 0.5)
        assert mask.tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_k_one_all_ones(self):
        assert mask_layer(np.array([3.0, -1.0, 2.0]), 1.0).tolist() == [1.0, 1.0, 1.0]

    def test_tie_rule_drops_lower_index_first(self):
        mask = mask_layer(np.array([1.0, 1.0, 1.0, 1.0]), 0.5)
        assert mask.tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_cardinality_over_k_grid(self):
        from fractions import Fraction
        rng = derive(21, [])
        for k10 in range(1, 10):
            k = k10 / 10
            for n in (1, 5, 10, 37, 64):
                scores = rng.uniform(n)
                expected = n - (Fraction(10 - k10, 10) * n).__floor__()
                assert int(mask_layer(scores, k).sum()) == expected

    def test_matrix_shape_preserved(self):
        mask = mask_layer(derive(22, []).uniform(12).reshape(3, 4), 0.5)
        assert mask.shape == (3, 4)
        assert set(np.unique(mask).tolist()) <= {0.0, 1.0}

    def test_matches_stable_sort_oracle_on_ties(self):
        rng = derive(29, [])
        pool = np.array([-0.0, 0.0, 1.0, -1.0, 0.5, 2.0], dtype=np.float32)
        for case in range(600):
            n = 1 if case % 10 == 0 else rng.integers_below([60])[0] + 1
            if case % 3 == 0:
                scores = pool[rng.integers_below([len(pool)] * n)]
            elif case % 3 == 1:
                scores = pool[rng.integers_below([2] * n)]  # only -0.0 and +0.0
            else:
                scores = rng.uniform(n).astype(np.float32)
            for k in (0.0, 1e-9, 0.5, 1.0, float(rng.uniform(1)[0])):
                got = mask_layer(scores, k)
                assert got.dtype == np.float32
                assert np.array_equal(got, oracle_mask(scores, k)), (scores, k)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                mask_layer(np.array([0.1, bad, 0.3]), 0.5)

    def test_paper_size_layer(self):
        n = max(ARCH_PRESETS["lenet-mnist"])
        assert n == 1605632
        # a 1e-4 grid: about 80 ties per value, -0.0 among them, and the
        # k = 0.5 threshold inside a tie group
        scores = (np.round(derive(30, []).uniform(n) * 2e4 - 1e4) / 1e4).astype(np.float32)
        assert np.count_nonzero(np.signbit(scores) & (scores == 0)) > 0
        tracemalloc.start()
        try:
            ranking = argsort_ranking(scores)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(ranking, np.argsort(scores, kind="stable"))
        assert peak <= 32 * n
        assert np.array_equal(mask_layer(scores, 0.5), oracle_mask(scores, 0.5))


class TestStackedKernels:
    """The cohort trainer's stacked kernels give each client the bytes its
    own call gives."""

    # Stacked against per-client products, as forward and backward form
    # them: x @ w.T, g.T @ x and g @ w for (batch, fan_in, fan_out) shapes,
    # and x @ w.T with one w shared by a stack of test sets.
    MATMUL_SCRIPT = """
import numpy as np
from fedrank.rng import derive
bad = []
for b, fi, fo, g in [(8, 20, 40, 25), (8, 40, 10, 25), (3, 20, 40, 25),
                     (8, 784, 200, 4), (8, 200, 10, 25)]:
    rng = derive(5151, [b, fi, fo])
    x = rng.uniform(g * b * fi, -2, 2).reshape(g, b, fi)
    w = rng.uniform(g * fo * fi, -1, 1).reshape(g, fo, fi)
    d = rng.uniform(g * b * fo, -1, 1).reshape(g, b, fo)
    pairs = [(x @ np.swapaxes(w, -1, -2), [x[c] @ w[c].T for c in range(g)]),
             (np.swapaxes(d, -1, -2) @ x, [d[c].T @ x[c] for c in range(g)]),
             (d @ w, [d[c] @ w[c] for c in range(g)])]
    bad += [(b, fi, fo, i) for i, (stacked, each) in enumerate(pairs)
            if stacked.tobytes() != np.stack(each).tobytes()]
# Evaluation: one weight matrix over a stack of same-size test sets.
for b in (1, 3, 8):
    for fi, fo in [(20, 40), (40, 10), (784, 200), (200, 10)]:
        rng = derive(5353, [b, fi, fo])
        x = rng.uniform(25 * b * fi, -2, 2).reshape(25, b, fi)
        w = rng.uniform(fo * fi, -1, 1).reshape(fo, fi)
        if (x @ w.T).tobytes() != np.stack([x[c] @ w.T for c in range(25)]).tobytes():
            bad.append((b, fi, fo, "shared"))
print(bad)
"""
    BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

    @pytest.mark.parametrize("one_thread", [True, False], ids=["blas_1_thread", "blas_default"])
    def test_stacked_matmul_matches_per_client(self, one_thread):
        env = {k: v for k, v in os.environ.items() if k not in self.BLAS_THREADS}
        if one_thread:
            env.update({k: "1" for k in self.BLAS_THREADS})
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run([sys.executable, "-c", self.MATMUL_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("algorithm", ["fsl", "fedavg"])
    def test_mixed_size_steps_give_each_client_its_own_gradients(self, algorithm,
                                                                 monkeypatch):
        # Every lockstep step of a desk round whose batches differ in size
        # must give each client the float64 gradient bytes of its own
        # one-client pass.  The float32 step can round a difference away,
        # so the pins on scores, rankings and summaries may not see it.
        grads_by_size, mixed = nn._grads_by_size, []

        def checked(batches, stacks, grads_of):
            grads = grads_by_size(batches, stacks, grads_of)
            if len({len(b.labels) for b in batches}) > 1:
                mixed.append(len(batches))
                for c, batch in enumerate(batches):
                    own = grads_of([s[c:c + 1].copy() for s in stacks], nn._stacked([batch]))
                    assert [g[c].tobytes() for g in grads] == [g[0].tobytes() for g in own]
            return grads

        monkeypatch.setattr(nn, "_grads_by_size", checked)
        run_experiment(ExperimentConfig(algorithm=algorithm, rounds=3, eval_every=3))
        assert len(mixed) >= 10 and max(mixed) == 25  # the desk cohort is all 25 clients

    def test_stacked_mask_matches_mask_layer_per_row(self):
        # Rows 1, 3 and 4 hold few distinct values, so their threshold at
        # k = 0.5 falls inside a tie group; rows 0 and 2 hold distinct values.
        rng = derive(5252, [])
        pool = np.array([-1.0, -0.0, 0.0, 0.5, 2.0], dtype=np.float32)
        rows = [rng.uniform(40).astype(np.float32),
                pool[rng.integers_below([len(pool)] * 40)],
                rng.uniform(40, -3, 3).astype(np.float32),
                np.full(40, 0.25, dtype=np.float32),
                pool[rng.integers_below([2] * 40)]]  # only -0.0 and +0.0
        flat = np.stack(rows)
        keep = 20
        at = np.sort(flat, axis=1)[:, 40 - keep]
        straddles = [int(np.count_nonzero(r >= t)) > keep for r, t in zip(flat, at)]
        assert straddles == [False, True, False, True, True]
        for k in (0.0, 0.3, 0.5, 0.9, 1.0):
            got = mask_layer(flat, k)
            assert got.dtype == np.float32 and got.shape == flat.shape
            for r in range(5):
                assert got[r].tobytes() == mask_layer(flat[r], k).tobytes()
                assert np.array_equal(got[r], oracle_mask(flat[r], k)), (r, k)

    def test_masked_weights_keep_negative_zero(self):
        # The float32 product w * mask cast up, for one matrix and for a
        # cohort's stack: a kept negative weight times a dropped edge's 0.0
        # is -0.0, where np.where(mask, w, 0) would give +0.0.
        for fan_in, fan_out in [(20, 40), (784, 200)]:
            net = Supernetwork.from_seed(fan_in, [LayerSpec(fan_in, fan_out, "identity")],
                                         InitKind.KAIMING_NORMAL)
            w = net.weights[0]
            assert (w < 0).any()
            rng = derive(fan_out, [])
            for stack in (net.scores[0], rng.uniform(3 * w.size).reshape((3,) + w.shape)):
                scores = stack.astype(np.float32)
                for k in (0.3, 0.5, 1.0):
                    mask = mask_layer(scores.reshape(stack.shape[:-2] + (-1,)), k)
                    want = (w * mask.reshape(stack.shape)).astype(np.float64)
                    got = masked_weights([w], [scores], k)[0]
                    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
                    if k < 1:
                        assert (np.signbit(got) & (got == 0)).any()


class TestBlockedChains:
    """Past one CHUNK, sgd_step runs block by block through one small
    scratch array, with the bytes of one whole-array pass."""

    def test_paper_size_step_stays_below_a_float64_layer(self):
        # lenet-mnist's 512 x 3136 layer: one float64 temporary of it is
        # 12.25 MiB.  The step holds one 256 KiB scratch.
        p = Supernetwork.from_seed(3, [LayerSpec(3136, 512, "identity")]).scores[0].copy()
        g, buf = np.ones(p.shape), np.zeros(p.shape)
        tracemalloc.start()
        try:
            sgd_step([p], [g], [buf], SgdConfig(0.4, 0.9, 1e-4, 8))
            step_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert step_peak < 8 * p.size / 16


class TestForward:
    def test_two_edge_hand_example(self):
        net = Supernetwork(
            [LayerSpec(2, 1, "identity")],
            weights=[np.array([[0.5, -0.5]])],
            scores=[np.array([[1.0, 0.1]])])
        logits, _ = ep_pass(net, 0.5, Minibatch(np.array([[2.0, 3.0]]), np.array([0])))
        assert logits.shape == (1, 1)
        assert logits[0, 0] == pytest.approx(1.0)

    def test_k_one_equals_dense(self):
        rng = derive(23, [])
        specs = [LayerSpec(4, 6, "relu"), LayerSpec(6, 3, "identity")]
        net = random_net(rng, specs)
        x = rng.uniform(8 * 4).reshape(8, 4)
        logits, _ = ep_pass(net, 1.0, Minibatch(x, np.zeros(8, dtype=int)))
        dense = np.maximum(x @ net.weights[0].astype(np.float64).T, 0.0) \
            @ net.weights[1].astype(np.float64).T
        assert np.allclose(logits, dense)

    def test_matches_oracle(self):
        rng = derive(24, [])
        specs = [LayerSpec(5, 4, "relu"), LayerSpec(4, 3, "identity")]
        for _ in range(5):
            net = random_net(rng, specs)
            x = rng.uniform(6 * 5, -1, 1).reshape(6, 5)
            logits, _ = ep_pass(net, 0.5, Minibatch(x, np.zeros(6, dtype=int)))
            expected, _, _, _ = oracle_forward(net.weights, net.scores,
                                               [sp.activation for sp in specs], 0.5, x)
            assert np.allclose(logits, expected, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        net = random_net(derive(25, []), [LayerSpec(4, 2, "identity")])
        with pytest.raises(ValueError):
            ep_pass(net, 0.5, Minibatch(np.ones((3, 5)), np.zeros(3, dtype=int)))


class TestBackward:
    def test_zero_input_zero_first_layer_grads(self):
        net = random_net(derive(26, []), [LayerSpec(3, 4, "relu"), LayerSpec(4, 2, "identity")])
        batch = Minibatch(np.zeros((5, 3)), np.array([0, 1, 0, 1, 0]))
        _, grads = ep_pass(net, 0.5, batch)
        assert np.allclose(grads[0], 0.0)

    def test_matches_oracle_two_layers(self):
        rng = derive(27, [])
        specs = [LayerSpec(4, 5, "relu"), LayerSpec(5, 3, "identity")]
        for _ in range(5):
            net = random_net(rng, specs)
            x = rng.uniform(7 * 4, -1, 1).reshape(7, 4)
            labels = np.array(rng.integers_below([3] * 7))
            batch = Minibatch(x, labels)
            _, grads = ep_pass(net, 0.5, batch)
            expected = oracle_backward(net.weights, net.scores,
                                       [sp.activation for sp in specs], 0.5, x, labels)
            for g, e in zip(grads, expected):
                assert np.max(np.abs(g - e)) < 1e-6

    def test_score_gradient_is_weight_gradient_times_weights(self):
        # At k = 1 the mask keeps every edge, so the effective weights are W
        # and edge-popup's gradient is the dense weight gradient times W.
        rng = derive(29, [])
        for specs in ([LayerSpec(4, 5, "relu"), LayerSpec(5, 3, "identity")],
                      [LayerSpec(7, 6, "relu"), LayerSpec(6, 6, "identity"),
                       LayerSpec(6, 2, "identity")]):
            for _ in range(10):
                net = random_net(rng, specs)
                rows = 1 + rng.integers_below([12])[0]
                x = rng.uniform(rows * specs[0].fan_in, -2, 2).reshape(rows, -1)
                batch = Minibatch(x, np.array(rng.integers_below([specs[-1].fan_out] * rows)))
                _, got = ep_pass(net, 1.0, batch)
                dense = dense_weight_grads(net.weights, specs, batch)
                for g, d, w in zip(got, dense, net.weights):
                    assert g.tobytes() == (d * w.astype(np.float64)).tobytes()


class TestTrain:
    def _tiny_problem(self, seed=31):
        rng = derive(seed, [])
        specs = [LayerSpec(4, 8, "relu"), LayerSpec(8, 2, "identity")]
        net = random_net(rng, specs)
        x = rng.uniform(16 * 4, -1, 1).reshape(16, 4)
        labels = np.array(rng.integers_below([2] * 16))
        return net, [Minibatch(x[i : i + 8], labels[i : i + 8]) for i in (0, 8)]

    def test_single_step_identity(self):
        net, batches = self._tiny_problem()
        before = [s.copy() for s in net.scores]
        batch = batches[0]
        _, grads = ep_pass(net, 0.5, batch)
        net2 = Supernetwork(net.specs, list(net.weights), before)
        edge_popup_train(net2, [[batch]], [1], 0.5, SgdConfig(0.1, 0.0, 0.0, 8), [derive(1, [])])
        for b, g, after in zip(before, grads, [s[0] for s in net2.scores]):
            assert np.allclose(after, (b.astype(np.float64) - 0.1 * g).astype(np.float32))

    def test_sgd_step_matches_reference_formula(self):
        # Reference: the step written out with its float64 temporaries.
        def reference(p, g, buf, sgd):
            step = np.asarray(g, dtype=np.float64) + sgd.weight_decay * p.astype(np.float64)
            buf *= sgd.momentum
            buf += step
            with np.errstate(over="ignore"):
                p -= (sgd.learning_rate * buf).astype(np.float32)

        rng = derive(32, [])
        for trial in range(40):
            shape = (1 + trial % 5, 1 + trial % 7)
            n = shape[0] * shape[1]
            scale = 1e38 if trial % 4 == 0 else 3.0  # some steps overflow float32
            sgd = SgdConfig(float(rng.uniform(1)[0]) * 2, float(rng.uniform(1)[0]) * 0.99,
                            float(rng.uniform(1)[0]) * 1e-3, 8)
            p = rng.uniform(n, -scale, scale).reshape(shape).astype(np.float32)
            g = rng.uniform(n, -scale, scale).reshape(shape)
            buf = rng.uniform(n, -1, 1).reshape(shape)
            want_p, want_buf = p.copy(), buf.copy()
            with np.errstate(over="ignore", invalid="ignore"):  # inf - inf in huge trials
                for _ in range(3):
                    reference(want_p, g, want_buf, sgd)
                    sgd_step([p], [g], [buf], sgd)
            assert p.tobytes() == want_p.tobytes() and buf.tobytes() == want_buf.tobytes()

        # Past one CHUNK a contiguous step runs block by block: sizes on
        # each side of a block edge, a ragged last block and a cohort's
        # stack, with inf, NaN and -0.0 entries.  A NaN's payload may follow
        # the order of the operands of a sum, which the reference writes
        # the other way round, so NaNs are matched by place here; the
        # blocked step must match the whole-array step, which reversed
        # (non-contiguous) views take, byte for byte.
        chunk = nn.CHUNK
        for shape in [(chunk - 1,), (chunk,), (chunk + 1,), (3 * chunk + 5,), (2, 200, 784)]:
            n = math.prod(shape)
            sgd = SgdConfig(0.4, 0.9, 1e-4, 8)
            p = rng.uniform(n, -3, 3).astype(np.float32)
            g = rng.uniform(n, -3, 3)
            buf = rng.uniform(n, -1, 1)
            for a, values in ((p, (np.inf, -np.inf, np.nan, -0.0)), (g, (np.inf, np.nan, -0.0)),
                              (buf, (-np.inf, np.nan, -0.0))):
                at = np.array(rng.integers_below([n] * 8 * len(values))).reshape(len(values), 8)
                for v, where in zip(values, at):
                    a[where] = v
                a[-1] = values[-1]  # the last block's last entry
            p, g, buf = p.reshape(shape), g.reshape(shape), buf.reshape(shape)
            want_p, want_buf = p.copy(), buf.copy()
            whole_p, whole_buf = p.copy(), buf.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(3):
                    reference(want_p, g, want_buf, sgd)
                    sgd_step([p], [g], [buf], sgd)
                    sgd_step([whole_p[..., ::-1]], [g[..., ::-1]], [whole_buf[..., ::-1]], sgd)
            for got, want, whole in ((p, want_p, whole_p), (buf, want_buf, whole_buf)):
                assert got.tobytes() == whole.tobytes()
                nan = np.isnan(want)
                assert nan.any() and np.array_equal(np.isnan(got), nan)
                assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_epochs_zero_rejected(self):
        net, batches = self._tiny_problem()
        with pytest.raises(ValueError):
            edge_popup_train(net, [batches], [0], 0.5, SgdConfig(0.1), [derive(1, [])])

    def test_empty_dataset_rejected(self):
        net, _ = self._tiny_problem()
        with pytest.raises(ValueError):
            edge_popup_train(net, [[]], [1], 0.5, SgdConfig(0.1), [derive(1, [])])

    def test_weights_bitwise_unchanged(self):
        net, batches = self._tiny_problem()
        before = [w.copy() for w in net.weights]
        edge_popup_train(net, [batches], [5], 0.5, SgdConfig(0.4, 0.9, 1e-4, 8), [derive(2, [])])
        for b, w in zip(before, net.weights):
            assert np.array_equal(b, w)

    def test_weights_not_writable(self):
        net, _ = self._tiny_problem()
        with pytest.raises(ValueError):
            net.weights[0][0, 0] = 9.0

    def test_learns_separable_blobs(self):
        from fedrank.data import gen_blobs
        ds = gen_blobs(2, 8, 60, 0.5, derive(33, []))
        specs = [LayerSpec(8, 16, "relu"), LayerSpec(16, 2, "identity")]
        net = Supernetwork.from_seed(7, specs)
        batches = [Minibatch(ds.features[i : i + 8], ds.labels[i : i + 8])
                   for i in range(0, len(ds.labels), 8)]
        edge_popup_train(net, [batches], [20], 0.5, SgdConfig(0.4, 0.9, 1e-4, 8), [derive(34, [])])
        weights = masked_weights(net.weights, [s[0] for s in net.scores], 0.5)
        assert evaluate(specs, weights, ds.features, ds.labels) > 0.9

    def test_k_one_mask_equals_untrained(self):
        net, batches = self._tiny_problem(seed=35)
        before = [s.copy() for s in net.scores]
        edge_popup_train(net, [batches], [3], 1.0, SgdConfig(0.4, 0.9, 0.0, 8), [derive(3, [])])
        after = [s[0] for s in net.scores]
        changed = any(not np.array_equal(b, s) for b, s in zip(before, after))
        assert changed  # scores move, the mask cannot
        for s in after:
            assert np.all(mask_layer(s, 1.0) == 1.0)


class TestEvaluate:
    def test_constant_net_all_correct(self):
        net = Supernetwork([LayerSpec(2, 2, "identity")],
                           weights=[np.array([[1.0, 1.0], [0.0, 0.0]])],
                           scores=[np.array([[1.0, 1.0], [0.0, 0.0]])])
        x = np.abs(derive(36, []).uniform(10).reshape(5, 2)) + 0.1
        weights = masked_weights(net.weights, net.scores, 1.0)
        assert evaluate(net.specs, weights, x, np.zeros(5, dtype=int)) == 1.0

    def test_single_wrong_sample(self):
        net = Supernetwork([LayerSpec(2, 2, "identity")],
                           weights=[np.array([[1.0, 1.0], [0.0, 0.0]])],
                           scores=[np.array([[1.0, 1.0], [0.0, 0.0]])])
        weights = masked_weights(net.weights, net.scores, 1.0)
        assert evaluate(net.specs, weights, np.array([[1.0, 1.0]]), np.array([1])) == 0.0

    def test_matches_hand_count(self):
        rng = derive(37, [])
        net = random_net(rng, [LayerSpec(3, 4, "relu"), LayerSpec(4, 3, "identity")])
        x = rng.uniform(10 * 3, -1, 1).reshape(10, 3)
        labels = np.array(rng.integers_below([3] * 10))
        logits, _ = ep_pass(net, 0.5, Minibatch(x, labels))
        expected = sum(1 for i in range(10) if int(np.argmax(logits[i])) == labels[i]) / 10
        weights = masked_weights(net.weights, net.scores, 0.5)
        assert evaluate(net.specs, weights, x, labels) == expected

    def test_empty_dataset_rejected(self):
        net = random_net(derive(38, []), [LayerSpec(2, 2, "identity")])
        with pytest.raises(ValueError):
            evaluate(net.specs, masked_weights(net.weights, net.scores, 0.5),
                     np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestAccuracyRule:
    """A NaN logit never wins the argmax, in both evaluation entries."""

    # Output 2 reads a NaN weight, so its logit is NaN for every sample.
    WEIGHTS = [np.array([[1.0, 0.0], [0.0, 1.0], [np.nan, 0.0]])]
    X = np.array([[2.0, 1.0], [1.0, 2.0], [3.0, -1.0]])
    LABELS = np.array([0, 1, 0])

    def test_evaluate_with_weights(self):
        net = Supernetwork([LayerSpec(2, 3, "identity")], weights=self.WEIGHTS,
                           scores=[np.ones((3, 2))])
        weights = masked_weights(net.weights, net.scores, 1.0)
        logits, _ = forward(net.specs, weights, Minibatch(self.X, self.LABELS))
        assert np.isnan(logits[:, 2]).all()
        assert evaluate(net.specs, weights, self.X, self.LABELS) == 1.0

    def test_dense_evaluate(self):
        weights = [w.astype(np.float32) for w in self.WEIGHTS]
        assert dense_evaluate(weights, [LayerSpec(2, 3, "identity")], self.X, self.LABELS) == 1.0


class TestSeedNetwork:
    SPECS = [LayerSpec(6, 5, "relu"), LayerSpec(5, 3, "identity")]

    def test_rebuild_equals_from_seed_and_reorder(self):
        rng = derive(39, [])
        for seed in (0, 3, 2**32 - 1):
            for init in (InitKind.SIGNED_KAIMING_CONSTANT, InitKind.KAIMING_NORMAL):
                cached = SeedNetwork(seed, self.SPECS, init)
                fresh = Supernetwork.from_seed(seed, self.SPECS, init)
                assert all(a.tobytes() == b.tobytes()
                           for a, b in zip(cached.ranking, fresh.score_rankings()))
                for _ in range(5):
                    ranking = [argsort_ranking(rng.uniform(sp.n_edges)) for sp in self.SPECS]
                    got = cached.rebuild(ranking)
                    want = Supernetwork.from_seed(seed, self.SPECS, init)
                    want.reorder_all_scores(ranking)
                    for a, b in zip(cached.weights + got, want.weights + want.scores):
                        assert a.dtype == b.dtype and a.shape == b.shape
                        assert a.tobytes() == b.tobytes()

    def test_shared_arrays_read_only(self):
        net = SeedNetwork(4, self.SPECS)
        rebuilt = net.rebuild(net.ranking)
        for a in net.weights + net.scores + net.sorted_scores + net.ranking + rebuilt:
            with pytest.raises(ValueError):
                a.flat[0] = 1
        # The initial scores are the rebuild of the initial ranking.
        assert [a.tobytes() for a in rebuilt] == [a.tobytes() for a in net.scores]
        # A network holds the float32 arrays it is given, copying none,
        # writable ones included.
        over = Supernetwork(net.specs, net.weights, rebuilt)
        assert all(a is b for a, b in zip(over.weights + over.scores, net.weights + rebuilt))
        writable = [a.copy() for a in net.weights + rebuilt]
        own = Supernetwork(net.specs, writable[:len(net.specs)], writable[len(net.specs):])
        assert all(a is b for a, b in zip(own.weights + own.scores, writable))
        # from_seed freezes the weights it draws and leaves its scores writable.
        drawn = Supernetwork.from_seed(4, self.SPECS)
        assert not any(w.flags.writeable for w in drawn.weights)
        assert all(s.flags.writeable for s in drawn.scores)


class TestSeedReconstruction:
    def test_bitwise_identical_rebuild(self):
        specs = [LayerSpec(6, 5, "relu"), LayerSpec(5, 3, "identity")]
        for seed in (0, 1, 2**31, 2**32 - 1):
            a = Supernetwork.from_seed(seed, specs)
            b = Supernetwork.from_seed(seed, specs)
            for wa, wb in zip(a.weights, b.weights):
                assert wa.tobytes() == wb.tobytes()
            for sa, sb in zip(a.scores, b.scores):
                assert sa.tobytes() == sb.tobytes()

    def test_scores_and_weights_differ(self):
        net = Supernetwork.from_seed(5, [LayerSpec(4, 4, "identity")],
                                     InitKind.KAIMING_UNIFORM)
        assert not np.array_equal(net.weights[0], net.scores[0])

    def test_architecture_validation(self):
        with pytest.raises(ValueError):
            Supernetwork.from_seed(1, [LayerSpec(3, 4, "relu"), LayerSpec(5, 2, "identity")])
        with pytest.raises(ValueError):
            Supernetwork.from_seed(1, [LayerSpec(3, 4, "relu")])
