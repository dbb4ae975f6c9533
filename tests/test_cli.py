import ast
import csv
import hashlib
import json
import platform
import struct
from pathlib import Path

import numpy as np
import pytest

import fedrank.protocols as protocols
from fedrank import cli
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


DEMO_CFG = Path(__file__).resolve().parents[1] / "configs" / "demo.cfg"


def write_cfg(tmp_path, text=SMALL_RUN, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def demo_cfg(tmp_path, changes):
    """configs/demo.cfg with ``changes`` applied; a None value drops the key."""
    lines = [ln for ln in DEMO_CFG.read_text().splitlines()
             if ln.split("=")[0].strip() not in changes]
    added = [f"{k} = {v}" for k, v in changes.items() if v is not None]
    return write_cfg(tmp_path, "\n".join(lines + added) + "\n")


def idx_changes(tmp_path, rows, cols):
    """demo.cfg changes for an idx dataset of 4 images of rows x cols pixels."""
    images, labels = tmp_path / "img.idx", tmp_path / "lbl.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, 4, rows, cols) + bytes(4 * rows * cols))
    labels.write_bytes(struct.pack(">II", 0x801, 4) + bytes([0, 1, 0, 1]))
    return {"dataset": "idx", "idx_images": str(images), "idx_labels": str(labels),
            "blob_classes": None, "blob_dims": None, "blob_samples_per_class": None,
            "blob_cluster_std": None}


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
            "error: dataset: 'foo' is not a valid DatasetKind\n"
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

    @pytest.mark.parametrize("changes, message", [
        ({"attack": "rank_reversal", "malicious_fraction": "0.2", "attack_epochs": "0"},
         "attack_epochs must be >= 1"),
        ({"blob_dims": "7"}, "blob_dims = 7 does not match the first layer's fan-in 20"),
        ({"blob_classes": "11"}, "blob_classes = 11 exceeds the last layer's fan-out 10"),
        ({"blob_classes": "0"}, "blob_classes and blob_samples_per_class must be >= 1"),
        ({"blob_samples_per_class": "0"},
         "blob_classes and blob_samples_per_class must be >= 1"),
        ({"blob_cluster_std": "-1"}, "blob_cluster_std must be >= 0"),
        ({"dirichlet_alpha": "0"}, "dirichlet_alpha must be > 0"),
        ({"blob_samples_per_class": "2"}, "num_clients = 40 exceeds the dataset's 20 samples"),
        ({"blob_cluster_std": "1e308"},
         "blob_cluster_std = 1e+308 overflows the blob features"),
        ({"blob_samples_per_class": "4"},  # enough samples, but a Dirichlet draw leaves one empty
         "client 0 gets no training samples (40 samples over 40 clients)"),
        ({"seed": "4294967296"}, "seed must fit in 32 bits"),
    ])
    @pytest.mark.filterwarnings("error")  # numpy's overflow warnings included
    def test_demo_config_value_that_would_fail_mid_run_rejected(
            self, tmp_path, capsys, changes, message):
        rc = main(["run", "--config", demo_cfg(tmp_path, changes), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("missing", [False, True])
    def test_idx_data_error_rejected_before_output(self, tmp_path, capsys, missing):
        # An idx dataset is checked once it is loaded, still before any output.
        changes = idx_changes(tmp_path, 2, 2)
        if missing:
            changes["idx_images"] = str(tmp_path / "none.idx")
            message = f"[Errno 2] No such file or directory: '{changes['idx_images']}'"
        else:
            message = "dataset dimensionality does not match the first layer"
        rc = main(["run", "--config", demo_cfg(tmp_path, changes), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("idx", [False, True])
    def test_more_clients_than_samples_rejected_before_partition(self, tmp_path, capsys,
                                                                 monkeypatch, idx):
        # Partitioning takes time linear in num_clients; the count alone decides.
        def partition(*args):
            raise AssertionError("dirichlet_partition was called")

        monkeypatch.setattr(protocols, "dirichlet_partition", partition)
        changes = idx_changes(tmp_path, 4, 5) if idx else {}
        changes["num_clients"] = "10" if idx else "200000"
        rc = main(["run", "--config", demo_cfg(tmp_path, changes), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: num_clients = {changes['num_clients']} exceeds the dataset's "
            f"{4 if idx else 1000} samples\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("blocked", ["records.jsonl", "manifest.json"])
    def test_output_that_cannot_open_leaves_no_manifest(self, tmp_path, capsys, blocked):
        # records.jsonl opens first, so a manifest is never left unfinished.
        (tmp_path / "o" / blocked).mkdir(parents=True)
        rc = main(["run", "--config", write_cfg(tmp_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 21] Is a directory") and err.count("\n") == 1
        assert not (tmp_path / "o" / "manifest.json").is_file()

    def test_summary_that_cannot_be_written_ends_the_manifest(self, tmp_path, capsys):
        # Reported after the last round: records.jsonl is whole and the
        # manifest says how the run ended.
        cfg = write_cfg(tmp_path)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "whole")]) == 0
        (tmp_path / "o" / "summary.csv").mkdir(parents=True)
        capsys.readouterr()
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: [Errno 21] Is a directory") and err.count("\n") == 1
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["error"].startswith("IsADirectoryError: [Errno 21] Is a directory")
        assert manifest["finished"] is not None
        assert (tmp_path / "o" / "records.jsonl").read_bytes() == \
            (tmp_path / "whole" / "records.jsonl").read_bytes()

    def test_manifest_that_cannot_be_written_keeps_earlier_records(self, tmp_path, capsys):
        # records.jsonl is emptied only once the manifest is written.
        (tmp_path / "o" / "manifest.json").mkdir(parents=True)
        earlier = b'{"round": 2}\n'
        (tmp_path / "o" / "records.jsonl").write_bytes(earlier)
        rc = main(["run", "--config", write_cfg(tmp_path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: [Errno 21] Is a directory") and err.count("\n") == 1
        assert (tmp_path / "o" / "records.jsonl").read_bytes() == earlier

    def test_os_error_mid_training_is_one_line_error(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "run_experiment", fail)
        rc = main(["run", "--config", write_cfg(tmp_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["error"] == "OSError: [Errno 28] No space left on device"
        assert manifest["finished"] is not None
        assert not (tmp_path / "o" / "summary.csv").exists()

    @staticmethod
    def _assert_unknown(tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--config", write_cfg(tmp_path), "--out", str(tmp_path / "o"),
                  flag, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_workers_flag_rejected(self, tmp_path, capsys):
        # Rounds train in order; there is no pool for --workers to size.
        self._assert_unknown(tmp_path, capsys, "--workers", "2")

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        # Once a range error of its own, now an unknown argument like any value.
        self._assert_unknown(tmp_path, capsys, "--workers", workers)

    def test_seed_override_flag_rejected(self, tmp_path, capsys):
        # The config's seed key is the one way to set the seed.
        self._assert_unknown(tmp_path, capsys, "--seed-override", "1")

    def test_training_failure_propagates(self, tmp_path, monkeypatch):
        # Anything but a ValueError is a fault of the program: it raises, once
        # the manifest says how the run ended.
        def fail(*args, **kwargs):
            raise RuntimeError("training failed")

        monkeypatch.setattr(cli, "run_experiment", fail)
        with pytest.raises(RuntimeError, match="training failed"):
            main(["run", "--config", write_cfg(tmp_path), "--out", str(tmp_path / "o")])
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["error"] == "RuntimeError: training failed"
        assert manifest["finished"] is not None
        assert not (tmp_path / "o" / "summary.csv").exists()

    @pytest.mark.parametrize("changes, message", [
        ("learning_rate = 1e38\n", "round 1: values must be finite"),
        ("algorithm = fedavg\naggregator = multi_krum\nattack = opt_poison\n"
         "malicious_fraction = 0.2\nlearning_rate = 0.0\n",
         "round 1: benign mean has zero norm; neg_unit direction undefined"),
    ], ids=["fsl_overflow", "krum_zero_lr"])
    def test_value_error_mid_training_is_one_line_error(self, tmp_path, capsys, changes,
                                                        message):
        text = SMALL_RUN.replace("algorithm = fsl\n", "") + changes
        rc = main(["run", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["error"] == f"ValueError: {message}"
        assert manifest["finished"] is not None
        assert not (tmp_path / "o" / "summary.csv").exists()

    def test_records_before_a_failing_round_are_kept(self, tmp_path, capsys, monkeypatch):
        # records.jsonl is written and flushed as the run goes: a ValueError
        # in round 3 leaves the lines of rounds 1 and 2 that a whole run
        # writes, and they are on disk before round 3 starts.
        cfg = write_cfg(tmp_path, SMALL_RUN.replace("eval_every = 2", "eval_every = 1"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "whole")]) == 0
        whole = (tmp_path / "whole" / "records.jsonl").read_text().splitlines(keepends=True)
        fsl_round, on_disk = protocols.fsl_round, []

        def fail_in_round_3(state, env, cfg, round_index):
            if round_index == 3:
                on_disk.append((tmp_path / "o" / "records.jsonl").read_text())
                raise ValueError("bad round")
            return fsl_round(state, env, cfg, round_index)

        monkeypatch.setattr(protocols, "fsl_round", fail_in_round_3)
        capsys.readouterr()
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: round 3: bad round\n"
        assert on_disk == ["".join(whole[:2])]
        assert (tmp_path / "o" / "records.jsonl").read_text() == "".join(whole[:2])
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["error"] == "ValueError: round 3: bad round"
        assert not (tmp_path / "o" / "summary.csv").exists()

    def test_out_dir_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDRANK_OUT_DIR", str(tmp_path / "envout"))
        rc = main(["run", "--config", write_cfg(tmp_path)])
        assert rc == 0
        assert (tmp_path / "envout/summary.csv").exists()

    def test_demo_records_pinned(self, tmp_path):
        assert main(["run", "--config", str(DEMO_CFG), "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "records.jsonl").read_bytes()).hexdigest() == \
            "e5d7bf87a1b6559bbc968c87d4e72893d820b711e7cff89846886df3b9ac592e"
        shards = json.loads((tmp_path / "manifest.json").read_text())["shards"]
        assert set(shards) == {"undersized", "min", "median", "max", "python", "numpy"}
        # 1000 samples over 40 clients at alpha 1.0.
        assert (shards["undersized"], shards["min"], shards["median"], shards["max"]) == \
            (False, 11, 22, 50)
        assert shards["python"] == platform.python_version()
        assert shards["numpy"] == np.__version__

    @pytest.mark.parametrize("below_file", [False, True])
    def test_unwritable_out_rejected_before_training(self, tmp_path, capsys, monkeypatch,
                                                     below_file):
        monkeypatch.setattr(cli, "run_experiment", None)  # training would raise
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "x" if below_file else blocker
        rc = main(["run", "--config", write_cfg(tmp_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert blocker.read_text() == ""

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

    def test_unparsable_alpha_named(self, capsys):
        rc = main(["bound", "--n", "25", "--p-min", "0.6", "--p-max", "0.9",
                   "--p-steps", "3", "--alpha", "0.1,x"])
        assert rc == 2
        assert capsys.readouterr().err == "error: alpha: could not convert string to float: 'x'\n"

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

    def test_unwritable_output_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main(["bound", "--n", "25", "--p-min", "0.6", "--p-max", "0.9",
                   "--p-steps", "4", "--alpha", "0.1", "--out", str(blocker / "x")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""


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

    def test_unparsable_count_named(self, capsys):
        rc = main(["commcost", "--counts", "10,x"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error: counts: invalid literal for int() with base 10: 'x'\n"
        assert captured.out == ""

    def test_layer_wider_than_the_codec_rejected(self, capsys):
        # 2**32 edges is the widest layer rank_bit_width accepts.
        assert main(["commcost", "--counts", str(2**32)]) == 0
        capsys.readouterr()
        rc = main(["commcost", "--counts", f"10,{2**32 + 1}"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == ("error: layer must have between 1 and 2**32 edges, "
                                f"got {2**32 + 1}\n")
        assert captured.out == ""

    def test_schema_golden(self, capsys):
        main(["commcost", "--counts", "1"])
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "arch,algorithm,upload_MiB,download_MiB"
        assert out.splitlines()[2] == "custom,fsl,0.000000,0.000000"

    def test_unwritable_output_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main(["commcost", "--counts", "6", "--out", str(blocker / "x")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("args", [["--preset", "lenet-mnist", "--counts", "5"], []],
                             ids=["both", "neither"])
    def test_not_exactly_one_of_preset_and_counts_rejected(self, capsys, args):
        rc = main(["commcost"] + args)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error: provide exactly one of --preset or --counts\n"
        assert captured.out == ""


def error_exits(source: str) -> list[int]:
    """Line of every ``error:`` string and every ``return 2`` outside the
    module-level ``main``, the one place the CLI turns an error into its exit."""
    tree = ast.parse(source)
    in_main = {node for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "main"
               for node in ast.walk(f)}
    return sorted(node.lineno for node in ast.walk(tree) if node not in in_main and (
        isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.startswith("error:")
        or isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
        and node.value.value == 2))


@pytest.mark.parametrize("source, want", [
    ('def cmd_x(a):\n    print(f"error: {a}", file=sys.stderr)\n    return 2\n', [2, 3]),
    ('def _fail(exc):\n    sys.stderr.write("error: " + str(exc))\n', [2]),
    ('def cmd_x(a):\n    def inner():\n        return 2\n    return 0\n', [3]),
    ('def main():\n    print(f"error: {exc}")\n    return 2\n', []),
    ('def cmd_x():\n    print("no error: here")\n    return 0\n', []),
])
def test_finds_an_error_exit(source, want):
    assert error_exits(source) == want


def test_main_is_the_one_error_exit():
    source = Path(cli.__file__).read_text()
    assert error_exits(source) == []
    assert len(error_exits(source.replace("\ndef main(", "\ndef _main("))) == 2
