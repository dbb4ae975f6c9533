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

import pytest

from fedrank import adversary
from fedrank.cli import main

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
