import pytest

from fedrank.config import (ConfigError, build_config, config_to_flat_dict,
                            format_architecture, parse_architecture,
                            parse_config, parse_lines)
from fedrank.protocols import Algorithm, ExperimentConfig

GOOD = """
# comment line
algorithm = fsl
rounds = 10
num_clients = 20
clients_per_round = 5
local_epochs = 2
subnet_fraction = 0.5
seed = 42      # inline comment
architecture = 6x8:relu,8x4:identity
dataset = blobs
blob_classes = 4
blob_dims = 6
blob_samples_per_class = 50
blob_cluster_std = 1.0
learning_rate = 0.4
momentum = 0.9
weight_decay = 0.0001
batch_size = 8
eval_every = 5
"""


# GOOD for dataset = idx: the blob_* keys would be rejected there.
GOOD_IDX = "".join(ln + "\n" for ln in GOOD.replace("dataset = blobs", "dataset = idx")
                   .splitlines() if not ln.startswith("blob_"))


def write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


class TestParsing:
    def test_good_file(self, tmp_path):
        cfg = parse_config(write(tmp_path, GOOD))
        assert cfg.algorithm is Algorithm.FSL
        assert cfg.rounds == 10
        assert cfg.seed == 42
        assert [sp.fan_in for sp in cfg.architecture] == [6, 8]
        assert cfg.sgd.learning_rate == 0.4
        assert cfg.dataset.blob_classes == 4

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="subnet_fractoin"):
            parse_config(write(tmp_path, GOOD + "\nsubnet_fractoin = 0.5\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(write(tmp_path, GOOD + "\nrounds = 11\n"))

    def test_bad_type_named(self, tmp_path):
        with pytest.raises(ConfigError, match="rounds"):
            parse_config(write(tmp_path, GOOD.replace("rounds = 10", "rounds = ten")))

    def test_out_of_range_k_named(self, tmp_path):
        with pytest.raises(ConfigError, match="subnet_fraction"):
            parse_config(write(tmp_path,
                               GOOD.replace("subnet_fraction = 0.5",
                                            "subnet_fraction = 1.5")))

    def test_missing_equals(self, tmp_path):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(write(tmp_path, "algorithm fsl\n"))

    def test_idx_requires_paths(self, tmp_path):
        with pytest.raises(ConfigError, match="idx_images and idx_labels are required"):
            parse_config(write(tmp_path, GOOD_IDX))

    @pytest.mark.parametrize("text, message", [
        (GOOD_IDX + "idx_images = i\nidx_labels = l\nblob_separation = 2.5\n",
         "blob_separation: not used with dataset = idx"),
        (GOOD + "idx_labels = labels.idx\n", "idx_labels: not used with dataset = blobs"),
        ("idx_images = imgs.idx\n", "idx_images: not used with dataset = blobs"),
    ])
    def test_other_dataset_keys_rejected(self, text, message):
        with pytest.raises(ConfigError) as info:
            build_config(parse_lines(text.splitlines()))
        assert str(info.value) == message

    @pytest.mark.parametrize("key, value", [("learning_rate", "nan"),
                                            ("blob_cluster_std", "inf"),
                                            ("server_lr", "-inf"),
                                            ("scale_factor", "1e999")])
    def test_non_finite_float_named(self, key, value):
        with pytest.raises(ConfigError, match=f"{key}: must be finite"):
            build_config({key: value})

    @pytest.mark.parametrize("algorithm, aggregator, clients, fraction", [
        ("fedavg", "multi_krum", 6, 0.5),    # f = 3, exactly f + 3 clients
        ("fedavg", "trimmed_mean", 5, 0.5),  # f = 2, one more than 2 * f
        ("signsgd", "multi_krum", 5, 0.6),   # signSGD ignores the aggregator
    ])
    def test_robust_aggregator_size_boundary_accepted(self, algorithm, aggregator,
                                                      clients, fraction):
        text = GOOD.replace("algorithm = fsl", f"algorithm = {algorithm}").replace(
            "clients_per_round = 5", f"clients_per_round = {clients}") + (
            f"aggregator = {aggregator}\nmalicious_fraction = {fraction}\n")
        assert build_config(parse_lines(text.splitlines())).clients_per_round == clients

    def test_bad_enum_value(self, tmp_path):
        with pytest.raises(ConfigError, match="algorithm"):
            parse_config(write(tmp_path, GOOD.replace("= fsl", "= gossip")))


class TestArchitectureFormat:
    def test_parse(self):
        layers = parse_architecture("20x40:relu,40x10:identity")
        assert layers[0].fan_in == 20 and layers[0].fan_out == 40
        assert layers[1].activation == "identity"

    def test_roundtrip(self):
        text = "6x8:relu,8x4:identity"
        assert format_architecture(parse_architecture(text)) == text

    def test_bad_entry(self):
        with pytest.raises(ConfigError, match="architecture"):
            parse_architecture("6by8:relu")


class TestFlatDictRoundtrip:
    def test_default_config_roundtrips(self):
        cfg = ExperimentConfig()
        cfg.validate()
        flat = config_to_flat_dict(cfg)
        rebuilt = build_config(parse_lines([f"{k} = {v}" for k, v in flat.items()]))
        assert config_to_flat_dict(rebuilt) == flat

    def test_parsed_config_roundtrips(self, tmp_path):
        cfg = parse_config(write(tmp_path, GOOD))
        flat = config_to_flat_dict(cfg)
        rebuilt = build_config(parse_lines([f"{k} = {v}" for k, v in flat.items()]))
        assert config_to_flat_dict(rebuilt) == flat

    def test_idx_config_exports_conditional_keys_in_order(self):
        text = GOOD_IDX + "idx_images = imgs.idx\nidx_labels = labels.idx\nattack_epochs = 3\n"
        cfg = build_config(parse_lines(text.splitlines()))
        assert cfg.attack.epochs == 3
        flat = config_to_flat_dict(cfg)
        assert list(flat) == [
            "algorithm", "rounds", "num_clients", "clients_per_round", "local_epochs",
            "subnet_fraction", "sparsity", "aggregator", "server_lr", "learning_rate",
            "momentum", "weight_decay", "batch_size", "seed", "eval_every", "weight_init",
            "architecture", "dataset", "dirichlet_alpha", "attack", "malicious_fraction",
            "scale_factor", "omega", "gamma_init", "gamma_iters", "attack_epochs",
            "idx_images", "idx_labels"]
        assert flat["attack_epochs"] == 3
        assert (flat["idx_images"], flat["idx_labels"]) == ("imgs.idx", "labels.idx")
        rebuilt = build_config(parse_lines([f"{k} = {v}" for k, v in flat.items()]))
        assert config_to_flat_dict(rebuilt) == flat

    def test_blob_separation_exported_after_blob_keys(self):
        cfg = build_config(parse_lines((GOOD + "blob_separation = 2.5\n").splitlines()))
        flat = config_to_flat_dict(cfg)
        assert list(flat)[-5:] == ["blob_classes", "blob_dims", "blob_samples_per_class",
                                   "blob_cluster_std", "blob_separation"]
        assert "idx_images" not in flat and "attack_epochs" not in flat
        assert flat["blob_separation"] == 2.5
