import csv
import json

import pytest

from fedrank.cli import main

SMALL_RUN = """
algorithm = fsl
rounds = 4
num_clients = 10
clients_per_round = 3
local_epochs = 1
subnet_fraction = 0.5
seed = 7
architecture = 6x8:relu,8x4:identity
dataset = blobs
blob_classes = 4
blob_dims = 6
blob_samples_per_class = 40
blob_cluster_std = 1.0
eval_every = 2
"""


def write_cfg(tmp_path, text=SMALL_RUN, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_rows(path):
    with open(path) as f:
        return list(csv.DictReader(f))


class TestRun:
    def test_outputs_written(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "--config", write_cfg(tmp_path), "--out", str(out)])
        assert rc == 0
        rows = read_rows(out / "summary.csv")
        assert [r["round"] for r in rows] == ["2", "4"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7
        assert manifest["finished"] is not None
        lines = (out / "records.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["round"] == 2

    def test_zero_rounds_header_only(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, SMALL_RUN.replace("rounds = 4", "rounds = 0"))
        rc = main(["run", "--config", cfg, "--out", str(out)])
        assert rc == 0
        content = (out / "summary.csv").read_text()
        assert content == ("round,mean_acc,std_acc,min_acc,max_acc,"
                           "upload_MiB,download_MiB\n")

    def test_identical_runs_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        rc1 = main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
        rc2 = main(["run", "--config", cfg, "--out", str(tmp_path / "b")])
        assert rc1 == rc2 == 0
        assert (tmp_path / "a/summary.csv").read_bytes() == \
            (tmp_path / "b/summary.csv").read_bytes()

    def test_invalid_config_names_field(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN.replace("subnet_fraction = 0.5",
                                                    "subnet_fraction = 1.5"))
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc != 0
        assert "subnet_fraction" in capsys.readouterr().err

    def test_non_finite_config_is_one_line_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN + "learning_rate = nan\n")
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: learning_rate") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_unknown_dataset_kind_rejected_before_output(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN.replace("dataset = blobs", "dataset = foo"))
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: dataset: 'foo' is not a valid dataset kind (blobs, idx)\n"
        assert not (tmp_path / "o").exists()

    def test_architecture_error_names_key_once(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN.replace("6x8:relu,8x4:identity", "6by8"))
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == ("error: architecture: cannot parse entry '6by8' "
                                           "(invalid literal for int() with base 10: '6by8')\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("attack", ["none", "opt_poison"])
    @pytest.mark.parametrize("clients, fraction, aggregator, message", [
        ("5", "0.6", "multi_krum",
         "multi_krum needs clients_per_round >= f + 3 = 6"
         " (f = int(malicious_fraction * clients_per_round) = 3), got 5"),
        ("4", "0.5", "trimmed_mean",
         "trimmed_mean needs clients_per_round > 2 * f = 4"
         " (f = int(malicious_fraction * clients_per_round) = 2), got 4"),
    ])
    def test_robust_aggregator_without_enough_clients_rejected(
            self, tmp_path, capsys, clients, fraction, aggregator, message, attack):
        text = SMALL_RUN.replace("algorithm = fsl", "algorithm = fedavg").replace(
            "clients_per_round = 3", f"clients_per_round = {clients}") + (
            f"aggregator = {aggregator}\nmalicious_fraction = {fraction}\nattack = {attack}\n")
        rc = main(["run", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        rc = main(["run", "--config", write_cfg(tmp_path), "--out", str(tmp_path / "o"),
                   "--workers", workers])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: --workers") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_seed_override(self, tmp_path):
        cfg = write_cfg(tmp_path)
        main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["run", "--config", cfg, "--out", str(tmp_path / "b"),
              "--seed-override", "99"])
        assert (tmp_path / "a/summary.csv").read_text() != \
            (tmp_path / "b/summary.csv").read_text()
        manifest = json.loads((tmp_path / "b/manifest.json").read_text())
        assert manifest["config"]["seed"] == 99

    def test_out_dir_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDRANK_OUT_DIR", str(tmp_path / "envout"))
        rc = main(["run", "--config", write_cfg(tmp_path)])
        assert rc == 0
        assert (tmp_path / "envout/summary.csv").exists()

    def test_manifest_reproduces_run(self, tmp_path):
        cfg = write_cfg(tmp_path)
        main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
        manifest = json.loads((tmp_path / "a/manifest.json").read_text())
        replay = tmp_path / "replay.cfg"
        replay.write_text("\n".join(f"{k} = {v}" for k, v in manifest["config"].items()))
        main(["run", "--config", str(replay), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/summary.csv").read_bytes() == \
            (tmp_path / "b/summary.csv").read_bytes()


class TestBound:
    def test_single_point_value(self, tmp_path, capsys):
        rc = main(["bound", "--n", "25", "--p-min", "0.9", "--p-max", "0.9",
                   "--p-steps", "1", "--alpha", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "alpha,p,bound"
        assert out[1] == "0.100000,0.900000,0.093750"

    def test_grid_includes_vacuous_rows(self, capsys):
        rc = main(["bound", "--n", "25", "--p-min", "0.3", "--p-max", "0.9",
                   "--p-steps", "7", "--alpha", "0.0"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        bounds = [line.split(",")[2] for line in lines]
        assert "1.000000" in bounds

    def test_empty_alpha_usage_error(self, capsys):
        rc = main(["bound", "--n", "25", "--p-min", "0.6", "--p-max", "0.9",
                   "--p-steps", "3", "--alpha", ""])
        assert rc == 2

    def test_bad_p_range(self, capsys):
        rc = main(["bound", "--n", "25", "--p-min", "0.9", "--p-max", "0.6",
                   "--p-steps", "3", "--alpha", "0.1"])
        assert rc == 2

    def test_output_file(self, tmp_path):
        target = tmp_path / "bound.csv"
        rc = main(["bound", "--n", "25", "--p-min", "0.6", "--p-max", "0.9",
                   "--p-steps", "4", "--alpha", "0.0,0.1", "--out", str(target)])
        assert rc == 0
        rows = read_rows(target)
        assert len(rows) == 8


class TestCommcost:
    def test_preset_lenet_mnist(self, capsys):
        rc = main(["commcost", "--preset", "lenet-mnist"])
        assert rc == 0
        rows = {r["algorithm"]: r for r in
                csv.DictReader(capsys.readouterr().out.splitlines())}
        assert float(rows["fsl"]["upload_MiB"]) == pytest.approx(4.05, abs=0.01)
        assert float(rows["fsl"]["download_MiB"]) == pytest.approx(4.05, abs=0.01)
        assert float(rows["fedavg"]["upload_MiB"]) == pytest.approx(6.20, abs=0.01)

    def test_preset_conv8(self, capsys):
        rc = main(["commcost", "--preset", "conv8-cifar10"])
        assert rc == 0
        rows = {r["algorithm"]: r for r in
                csv.DictReader(capsys.readouterr().out.splitlines())}
        assert round(float(rows["fedavg"]["upload_MiB"]), 1) == 20.1

    def test_explicit_counts_toy(self, capsys):
        rc = main(["commcost", "--counts", "6"])
        assert rc == 0
        rows = {r["algorithm"]: r for r in
                csv.DictReader(capsys.readouterr().out.splitlines())}
        # 6 ranks of 3 bits = 18 bits
        assert float(rows["fsl"]["upload_MiB"]) == pytest.approx(18 / (8 * 2**20), abs=1e-6)

    def test_unknown_preset(self, capsys):
        rc = main(["commcost", "--preset", "alexnet"])
        assert rc == 2
        assert "alexnet" in capsys.readouterr().err

    def test_schema_golden(self, capsys):
        main(["commcost", "--counts", "1"])
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "arch,algorithm,upload_MiB,download_MiB"
        assert out.splitlines()[2] == "custom,fsl,0.000000,0.000000"
