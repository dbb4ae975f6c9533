"""Stored golden hashes of summary.csv for short pinned configs.

Criterion 10 compares runs of one checkout with each other, so a change
that shifts every bit the same way passes it.  These SHA-256 pins were
taken once and must be reproduced exactly; a change that moves them
changes the protocol.  Together the configs cover the full vote, the
sparse vote, rank-reversal poisoning, the trimmed mean under the scale
attack, multi-Krum under the gamma-search attack, the signSGD and top-k
baselines, and one full and one sparse vote at 784-200-10.
"""

import hashlib

import numpy as np
import pytest

from fedrank import adversary
from fedrank.cli import main
from fedrank.config import build_config, parse_lines
from fedrank.protocols import (RANK_ALGORITHMS, baseline_round, build_environment,
                               fsl_round, initial_state)
from fedrank.ranking import encode_layer_ranking, keep_count

from test_acceptance import GOLDEN_CONFIG


def _variant(**changes: str) -> str:
    """GOLDEN_CONFIG with keys replaced or added."""
    lines = [ln for ln in GOLDEN_CONFIG.strip().splitlines()
             if ln.split("=")[0].strip() not in changes]
    return "\n".join(lines + [f"{k} = {v}" for k, v in changes.items()]) + "\n"


# One 784-200-10 round (156,800 + 2,000 edges) with few clients: the trained
# float32 scores hold ties, so every rank sort and top-k mask is pinned at
# the size the mid-size benchmark runs.
MID = dict(rounds="1", num_clients="6", clients_per_round="3", local_epochs="2",
           architecture="784x200:relu,200x10:identity", blob_classes="10",
           blob_dims="784", blob_samples_per_class="30", blob_separation="8.0",
           eval_every="1")

GOLDEN = {
    "fsl": (
        GOLDEN_CONFIG,
        "8e44af88890741c71bc5e1ce2cff903cb3415e09a00af5dfe512f0d4590ce134"),
    "sparse_fsl": (
        _variant(algorithm="sparse_fsl", sparsity="0.3", eval_every="1"),
        "c98f749bd0a4acefd634d962bca30f75c7f1d72e5484f4d8b444134a3ce6c9e3"),
    # Half the clients collude, so most rounds carry a reversed submission.
    "fsl_rank_reversal": (
        _variant(attack="rank_reversal", malicious_fraction="0.5", eval_every="1"),
        "5fc9ca06e92c8ce836ed903bf050f4fd99478d9a83a99cc430306884c7f7908d"),
    # f = int(0.25 * 4) = 1, so the trimmed mean drops one value per side.
    "fedavg_trimmed_mean": (
        _variant(algorithm="fedavg", aggregator="trimmed_mean", learning_rate="0.03",
                 attack="scale", malicious_fraction="0.25", eval_every="1"),
        "799a5ecf1cedfa3d69f1c2cf5faa570fa5c4672d59845a02d6e65257bf95b0dd"),
    # 4 of 12 clients are malicious and 8 take part, so the server's Krum
    # drops f = int(0.4 * 8) = 3, and a round that samples 3 or 4 attackers
    # simulates Krum over their 6 or 8 rows in the gamma search.
    "fedavg_multi_krum_opt_poison": (
        _variant(algorithm="fedavg", aggregator="multi_krum", learning_rate="0.03",
                 attack="opt_poison", malicious_fraction="0.4", clients_per_round="8",
                 eval_every="1"),
        "c99c6ef24fdddfa76fe9be04bdc57ab090b695bc05248aa54af5552d3513aca6"),
    "signsgd": (
        _variant(algorithm="signsgd", learning_rate="0.03", server_lr="0.02", eval_every="1"),
        "736db05ca3c6a04296282f6a4f7795397618412e9c3fa4ff87b9824fe642feb2"),
    "topk": (
        _variant(algorithm="topk", learning_rate="0.03", sparsity="0.3", eval_every="1"),
        "ca1ac69ecf36ba2eb1322fc2977466bd32bcec1cd21275d24316c32b38de8054"),
    "fsl_784_200_10": (
        _variant(**MID),
        "20955886c4f059ad77511b6b44fb8591871ba374d4e1106d27f016409718f69b"),
    "sparse_fsl_784_200_10": (
        _variant(**MID, algorithm="sparse_fsl", sparsity="0.3"),
        "683543368ce84fabecba746e6cac4df337ab8e6a129224e06c27a02230b12d55"),
}


def _summary_sha256(name, tmp_path) -> str:
    text, _ = GOLDEN[name]
    cfg_path = tmp_path / "golden.cfg"
    cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    return hashlib.sha256((tmp_path / "out" / "summary.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_summary_matches_pinned_hash(name, tmp_path):
    assert _summary_sha256(name, tmp_path) == GOLDEN[name][1]


def test_opt_poison_pin_runs_krum_gamma_search(tmp_path, monkeypatch):
    """The multi-Krum pin covers the gamma search's simulated selection."""
    calls = []
    select = adversary.select_from_distances

    def spy(sq, client_ids, f):
        calls.append(len(sq))
        return select(sq, client_ids, f)

    monkeypatch.setattr(adversary, "select_from_distances", spy)
    assert _summary_sha256("fedavg_multi_krum_opt_poison", tmp_path) == \
        GOLDEN["fedavg_multi_krum_opt_poison"][1]
    # Three of the six rounds sample enough attackers, 20 gamma steps each.
    assert len(calls) == 60 and set(calls) == {6, 8}


# SHA-256 of each golden config's final protocol state: the concatenated
# encode_layer_ranking bytes of every layer for the rank protocols, the
# float64 weight bytes for the weight protocols.  summary.csv holds a few
# 6-decimal accuracies, so a bit drift in the trained state can leave it
# unchanged; these pins see every bit the server carries.
STATE_SHA256 = {
    "fedavg_multi_krum_opt_poison": "53c464e73d14f5e9c1af887d90594a1279884fb0aa70c66cd3f84ee65bdf5a7a",
    "fedavg_trimmed_mean": "16b002899ea037c0da62ea8e3af6d6f228c52ad498d44ef7d9c7a0997e44b8e0",
    "fsl": "17fc3c128e5e4786dda85b27dfe34853dac30a3a404c92509346776e1f030214",
    "fsl_784_200_10": "f15fc1efd29d006f728c900315debc028a8c1d46f187f631a811cab5915d910f",
    "fsl_rank_reversal": "a787913f3770e0deeef39ac1547ae3fc4d708f9d7a03afbfa9ec453f1d4551a8",
    "signsgd": "8dc110cba1cf174749e6578cd0400d2435855c5e7c902c30062943edca356346",
    "sparse_fsl": "6cce142fa87f8adca425fb210667d0576342be6e12123b81cc38ec2c618f9966",
    "sparse_fsl_784_200_10": "e9bff6cb24ac9dedaf46f0bc60cd7b8829dd4f5b3185380023303e6eb9aa12b6",
    "topk": "feb0bb03f5ed9fb7bcdd4d9f942b4badd9547004a68e4726333408a0d73c1e6a",
}


def _final_state_sha256(name: str) -> str:
    cfg = build_config(parse_lines(GOLDEN[name][0].splitlines()))
    env = build_environment(cfg)
    state = initial_state(cfg)
    rank = cfg.algorithm in RANK_ALGORITHMS
    for t in range(1, cfg.rounds + 1):
        state, _, _ = (fsl_round if rank else baseline_round)(state, env, cfg, t)
    if rank:
        blob = b"".join(encode_layer_ranking(layer) for layer in state.ranking)
    else:
        blob = state.weights.tobytes()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_final_state_matches_pinned_hash(name):
    assert _final_state_sha256(name) == STATE_SHA256[name]


# The golden configs never tie at a mask threshold: their float32 scores are
# all distinct.  Here the shared seed network's sorted scores are rounded to
# multiples of 1/4, and the initial state's scores rebuilt from them, so
# every round's starting scores hold runs of equal scores, one of them
# across each layer's top-k threshold, and the mask must drop the
# lowest-index ties of that run.
TIED_STATE_SHA256 = "21acca187da884110f6548b27a75643d5bb0b1764ddb53dbe473559f172159a2"


def _quantized_fsl_state():
    cfg = build_config(parse_lines(GOLDEN["fsl"][0].splitlines()))
    state = initial_state(cfg)
    seed_net = state.seed_net
    seed_net.sorted_scores = [np.round(v * 4) / 4 for v in seed_net.sorted_scores]
    state.scores = seed_net.reorder_all_scores(state.ranking)
    return cfg, state


def test_quantized_scores_tie_at_the_mask_threshold():
    cfg, state = _quantized_fsl_state()
    for v in state.seed_net.sorted_scores:
        drop = v.size - keep_count(v.size, cfg.subnet_fraction)
        assert v[drop - 1] == v[drop]  # whatever the ranking, ties straddle the threshold


def test_mask_tie_rule_pinned_through_rounds():
    cfg, state = _quantized_fsl_state()
    env = build_environment(cfg)
    for t in range(1, cfg.rounds + 1):
        state, _, _ = fsl_round(state, env, cfg, t)
    blob = b"".join(encode_layer_ranking(layer) for layer in state.ranking)
    assert hashlib.sha256(blob).hexdigest() == TIED_STATE_SHA256
