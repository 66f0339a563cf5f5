"""End-to-end command-line behavior on miniature datasets.

Every test drives the real entry points (`main` or the underlying run
helpers) against files in a tmp directory; the one substitute is a diverging
`train` that makes a sweep cell fail at run time.  Dataset and training sizes
are kept tiny so the whole module runs in seconds.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import noodle
from noodle.cli import (
    METHOD_KEYS,
    SPEC_KEYS,
    _run_cells,
    build_parser,
    generate_dataset_files,
    main,
    plan_experiment,
    run_eval,
    run_experiment,
    run_training,
)
from noodle import files
from noodle.datagen import (
    OOD_MODES,
    DataSpec,
    LabeledSet,
    load_features_csv,
    load_ood_csv,
    save_features_csv,
    save_ood_csv,
)
from noodle.files import array_checksum, read_json, read_labeled_array, read_table, write_json, write_labeled_array
from noodle.metrics import auroc, fpr_at_tpr
from noodle.model import DivergenceError
from noodle.scoring import build_store, load_store, save_store
from noodle.trainer import TrainConfig, train

GEN_SMALL = dict(
    classes=3,
    per_class=30,
    dim=8,
    val_per_class=5,
    test_per_class=10,
    ood_size=40,
    ood_modes=("far_cluster", "uniform_shell"),
)

TRAIN_SMALL = {
    "epochs": 3,
    "batch_size": 16,
    "widths": [16, 8],
    "loss_kind": "cm",
    "lambda": 0.001,
    "seed": 0,
}


def _never_unpickled():
    pytest.fail("a store file was unpickled")


class _NeverUnpickled:
    """An object whose unpickling fails the test that loads it."""

    def __reduce__(self):
        return _never_unpickled, ()


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    generate_dataset_files(out, 0, noise_rate=0.2, **GEN_SMALL)
    return out


def _scaled_train_csv(data_dir, out_dir, scale=1e300, label=None):
    """``data_dir``'s train.csv with the features scaled by ``scale``, only the
    rows of noisy label ``label`` when one is given.  At 1e300 a network
    trained on it diverges, whatever the step size."""
    data = load_features_csv(data_dir / "train.csv")
    data.features[slice(None) if label is None else data.noisy_labels == label] *= scale
    out_dir.mkdir(parents=True, exist_ok=True)
    save_features_csv(data, out_dir / "train.csv")
    return out_dir / "train.csv"


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("run")
    config = TrainConfig.from_dict(TRAIN_SMALL)
    run_training(data_dir / "train.csv", config, out)
    return out


class TestGenData:
    def test_manifest_names_and_row_counts(self, tmp_path):
        manifest = generate_dataset_files(tmp_path, 3, **GEN_SMALL)
        entries = {p.name: rows for p, rows in manifest}
        assert entries == {
            "train.csv": 90,
            "val.csv": 15,
            "test_id.csv": 30,
            "ood_far_cluster.csv": 40,
            "ood_uniform_shell.csv": 40,
        }
        for path, _ in manifest:
            assert path.exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset_files(a, 5, **GEN_SMALL)
        generate_dataset_files(b, 5, **GEN_SMALL)
        for name in ("train.csv", "val.csv", "test_id.csv", "ood_far_cluster.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_noise_hits_train_only_at_the_requested_rate(self, tmp_path):
        params = dict(GEN_SMALL, per_class=200)
        generate_dataset_files(tmp_path, 1, noise_rate=0.3, **params)
        train = load_features_csv(tmp_path / "train.csv")
        flipped = (train.noisy_labels != train.clean_labels).mean()
        assert abs(flipped - 0.3) <= 0.06  # 3 sigma at n=600
        for name in ("val.csv", "test_id.csv"):
            other = load_features_csv(tmp_path / name)
            np.testing.assert_array_equal(other.noisy_labels, other.clean_labels)

    def test_splits_share_class_means(self, tmp_path):
        generate_dataset_files(tmp_path, 2, **GEN_SMALL)
        train = load_features_csv(tmp_path / "train.csv")
        test = load_features_csv(tmp_path / "test_id.csv")
        for c in range(3):
            mu_train = train.features[train.clean_labels == c].mean(axis=0)
            mu_test = test.features[test.clean_labels == c].mean(axis=0)
            assert np.linalg.norm(mu_train - mu_test) < 3.0

    def test_unknown_parameter_and_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown generator parameters"):
            generate_dataset_files(tmp_path, 0, classses=3)
        with pytest.raises(ValueError, match="unknown OOD mode"):
            generate_dataset_files(tmp_path, 0, ood_modes=("nearby",))

    def test_mistyped_values_rejected_before_any_write(self, tmp_path):
        # Unchecked, a string class count was a TypeError traceback and a
        # string noise rate was converted by float().  An int stands for a float.
        generate_dataset_files(tmp_path / "ok", 0, **dict(GEN_SMALL, separation=6, noise_rate=0))
        for key, value, message in (
            ("classes", "3", "classes must be an integer, got '3'"),
            ("per_class", True, "per_class must be an integer, got True"),
            ("separation", "6", "separation must be a number, got '6'"),
            ("noise_rate", "0.4", "noise_rate must be a number, got '0.4'"),
            ("ood_modes", "far_cluster", "ood_modes must be a list of strings, got 'far_cluster'"),
            ("ood_modes", ["far_cluster", 1], "ood_modes must be a list of strings"),
        ):
            out = tmp_path / key
            with pytest.raises(ValueError, match=re.escape(message)):
                generate_dataset_files(out, 0, **dict(GEN_SMALL, **{key: value}))
            assert not out.exists(), key

    def test_bad_sizes_and_repeated_modes_exit_2_before_any_write(self, tmp_path, capsys):
        # Unchecked, a zero size fails only after the earlier splits are
        # written, and a repeated mode writes its file twice and exits 0.
        base = ["gen-data", "--classes", "3", "--per-class", "10", "--dim", "4",
                "--val-per-class", "2", "--test-per-class", "3", "--ood-size", "5"]
        for flag, value, message in (
            ("--per-class", "0", "per_class must be >= 1, got 0"),
            ("--val-per-class", "0", "val_per_class must be >= 1, got 0"),
            ("--test-per-class", "0", "test_per_class must be >= 1, got 0"),
            ("--ood-size", "0", "ood_size must be >= 1, got 0"),
            ("--ood-modes", "far_cluster,far_cluster",
             "need one or more distinct OOD modes, got far_cluster,far_cluster"),
            # The mixture's own ranges are DataSpec's too, checked before any draw.
            ("--classes", "1", "classes must be >= 2, got 1"),
            ("--dim", "0", "dim must be >= 1, got 0"),
            ("--separation", "0", "separation must be a finite number > 0, got 0.0"),
            ("--spread", "-1", "spread must be a finite number > 0, got -1.0"),
            # NumPy's SeedSequence refused it with only "expected non-negative integer".
            ("--seed", "-1", "seed must be >= 0, got -1"),
        ):
            out = tmp_path / flag.strip("-")
            assert main([*base, flag, value, "--out", str(out)]) == 2, flag
            assert capsys.readouterr().err == f"error: {message}\n", flag
            assert not out.exists(), flag

    def test_classes_that_cannot_be_apart_exit_2_before_any_write(self, tmp_path, capsys, monkeypatch):
        # In one dimension two of three unit directions are equal, so only
        # rounding at a huge radius could set their means apart, and there a
        # spread of 1 is below one ulp: each class would be one repeated value.
        # DataSpec says so before any draw; the placement gave up after 200
        # draws and advised a smaller separation, which cannot help.
        def no_draw(*args):
            pytest.fail("the class means were drawn")

        monkeypatch.setattr("noodle.datagen._spread_out_means", no_draw)
        out = tmp_path / "out"
        assert main(["gen-data", "--classes", "3", "--dim", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: classes must be <= 2 in dim 1 (two unit directions), got 3\n"
        assert not out.exists()

    def test_file_set_too_large_for_memory_exits_2_before_any_write(self, tmp_path, capsys):
        # The draw asks for 931 TiB, more than the address space, so it is
        # refused at once; it was an _ArrayMemoryError traceback (exit 1).
        out = tmp_path / "out"
        assert main(["gen-data", "--per-class", "1000000000000", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: the file set does not fit in memory: classes 4 x (per_class 1000000000000 + "
            "val_per_class 50 + test_per_class 250) rows and ood_size 1000 per OOD mode, in dim 32\n"
        )
        assert not out.exists()

    def test_file_set_too_large_for_a_spec_exits_2_naming_the_spec(self, tmp_path, capsys):
        # Planning cannot see the size; the sweep's data generation refused it
        # without the spec's name, then with its file name only.
        spec = {"methods": [{"name": "a"}], "seeds": [0], "dataset": {"per_class": 1000000000000}}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert main(["experiment", "--spec", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: the file set does not fit in memory: classes 4 x (per_class 1000000000000 + "
            "val_per_class 50 + test_per_class 250) rows and ood_size 1000 per OOD mode, in dim 32\n"
        )
        assert not out.exists()

    def test_cli_command_succeeds(self, tmp_path, capsys):
        code = main(
            [
                "gen-data",
                "--out", str(tmp_path),
                "--seed", "4",
                "--classes", "3",
                "--per-class", "20",
                "--dim", "6",
                "--val-per-class", "4",
                "--test-per-class", "5",
                "--ood-size", "15",
                "--ood-modes", "far_cluster",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "train.csv (60 rows)" in out
        assert (tmp_path / "ood_far_cluster.csv").exists()

    def test_defaults_match_documented_values(self):
        defaults = DataSpec()
        assert defaults.classes == 4
        assert defaults.per_class == 500
        assert defaults.dim == 32
        assert defaults.ood_modes == ("far_cluster",)


class TestTrainCommand:
    def test_produces_all_artifacts(self, run_dir):
        names = sorted(path.name for path in run_dir.iterdir())
        assert names == ["checkpoint.json", "store.npy", "trace.json"]
        trace = json.loads((run_dir / "trace.json").read_text())
        assert trace["format"] == "noodle-trace"
        assert len(trace["epoch_mean_loss"]) == TRAIN_SMALL["epochs"]

    def test_rerun_is_byte_identical(self, tmp_path, data_dir, run_dir):
        config = TrainConfig.from_dict(TRAIN_SMALL)
        run_training(data_dir / "train.csv", config, tmp_path)
        for name in ("checkpoint.json", "store.npy", "trace.json"):
            assert (tmp_path / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_checkpoint_meta_binds_the_store(self, data_dir, run_dir):
        # The checkpoint names its store and counts the training samples the store left out.
        meta = read_json(run_dir / "checkpoint.json")["meta"]
        store = load_store(run_dir / "store")
        assert meta["store_checksum"] == array_checksum(store.labels, store.embeddings)
        assert meta["store_dropped"] == len(load_features_csv(data_dir / "train.csv")) - len(store)
        assert meta["config_hash"] == TrainConfig.from_dict(TRAIN_SMALL).config_hash()

    def test_a_checkpoints_config_reproduces_its_run(self, tmp_path, data_dir, run_dir, capsys):
        # --config is the run's one settings source: the config a checkpoint
        # records, given back as --config, trains the same files byte for
        # byte, and the flags that once overrode a config file are unknown.
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(read_json(run_dir / "checkpoint.json")["meta"]["config"]))
        out = tmp_path / "out"
        argv = ["train", "--data", str(data_dir / "train.csv"), "--out", str(out)]
        assert main([*argv, "--config", str(config_path)]) == 0
        for name in ("checkpoint.json", "store.npy", "trace.json"):
            assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name
        for flag, value in (("--seed", "1"), ("--epochs", "1"), ("--lambda", "0"), ("--loss", "ce"),
                            ("--batch-size", "8"), ("--lr", "0.1"), ("--pi-iters", "2")):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--config", str(config_path), flag, value])
            assert exc.value.code == 2, flag
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err, flag

    def test_an_older_checkpoints_config_is_refused_but_the_checkpoint_evaluates(
        self, tmp_path, data_dir, run_dir, capsys
    ):
        # Before the optimiser's settings and the split's sweeps became
        # constants, each checkpoint's meta.config recorded them too.
        old = tmp_path / "old"
        old.mkdir()
        shutil.copy(run_dir / "store.npy", old / "store.npy")
        checkpoint = read_json(run_dir / "checkpoint.json")
        config = dict(checkpoint["meta"]["config"], lr=0.05, momentum=0.9, weight_decay=1e-4, pi_iters=10)
        canonical = json.dumps(config, sort_keys=True).encode("utf-8")
        checkpoint["meta"].update(config=config, config_hash=hashlib.sha256(canonical).hexdigest())
        write_json(old / "checkpoint.json", checkpoint)

        out = tmp_path / "out"
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        argv = ["train", "--data", str(data_dir / "train.csv"), "--config", str(config_path), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: unknown config keys: lr, momentum, pi_iters, weight_decay\n"
        spec_path, spec = _experiment_spec(tmp_path)
        spec["train"] = {key: value for key, value in config.items() if key != "seed"}
        spec_path.write_text(json.dumps(spec))
        assert main(["experiment", "--spec", str(spec_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.endswith("unknown config keys: lr, momentum, pi_iters, weight_decay\n"), err
        assert not out.exists()

        # eval reads only the checkpoint's config_hash and config.seed.
        command = (
            f"eval --checkpoint {old}/checkpoint.json --id-test {data_dir}/test_id.csv "
            f"--ood {data_dir}/ood_far_cluster.csv --out {out}"
        )
        assert main(command.split()) == 0
        summary = read_json(out / "eval_summary.json")
        assert (summary["seed"], summary["config_hash"]) == (0, checkpoint["meta"]["config_hash"])

    def test_zero_epochs_still_writes_a_store(self, tmp_path, data_dir):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(dict(TRAIN_SMALL, epochs=0)))
        code = main(
            [
                "train",
                "--data", str(data_dir / "train.csv"),
                "--out", str(tmp_path / "out"),
                "--config", str(config_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "out" / "store.npy").exists()

    def test_unknown_config_key_exits_2(self, tmp_path, data_dir, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(dict(TRAIN_SMALL, learning_rate=0.1)))
        code = main(
            [
                "train",
                "--data", str(data_dir / "train.csv"),
                "--out", str(tmp_path / "out"),
                "--config", str(config_path),
            ]
        )
        assert code == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_fixed_constants_exit_2_before_any_write(self, tmp_path, data_dir, capsys):
        # The robust losses' parameters, the optimiser's settings, the split's
        # sweeps and the store ridge are constants now; a config or spec that
        # still sets one is rejected.
        config_path = tmp_path / "cfg.json"
        out = tmp_path / "out"
        for key, value in (
            ("sce_alpha", 0.1), ("sce_beta", 1.0), ("gce_q", 0.7), ("grad_clip", 10.0), ("cov_reg", 1e-3),
            ("k_rank", 4), ("lr", 0.05), ("momentum", 0.9), ("weight_decay", 1e-4), ("pi_iters", 10),
        ):
            config_path.write_text(json.dumps(dict(TRAIN_SMALL, **{key: value})))
            argv = ["train", "--data", str(data_dir / "train.csv"), "--out", str(out)]
            assert main([*argv, "--config", str(config_path)]) == 2, key
            assert f"error: unknown config keys: {key}\n" == capsys.readouterr().err
            spec_path, spec = _experiment_spec(tmp_path)
            spec["train"][key] = value
            spec_path.write_text(json.dumps(spec))
            assert main(["experiment", "--spec", str(spec_path), "--out", str(out)]) == 2, key
            assert f"method 'noodle': unknown config keys: {key}\n" in capsys.readouterr().err
            assert not out.exists(), key

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        code = main(
            ["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_runs_exit_before_any_write(self, tmp_path, data_dir, capsys):
        # A mistyped config value was a TypeError traceback (exit 1), a rank
        # above the latent width was clamped with a warning, and a diverging
        # run exited 2 on a NaN softmax instead of 3, then printed NumPy
        # warnings before its error line (a traceback with warnings as errors).
        # A NaN lambda trained as lambda 0 (exit 0) and an infinite lr exited 3.
        # A negative seed failed in NumPy with only "expected non-negative integer".
        # Zeroed class-2 rows and tiny features (latent norms at most 1e-12)
        # leave the store a class without a row: a failed run.  A refusal of
        # the data before epoch 0 names the --data file.
        config_path = tmp_path / "cfg.json"
        train_csv, scaled_csv = data_dir / "train.csv", _scaled_train_csv(data_dir, tmp_path / "scaled")
        dead_csv = _scaled_train_csv(data_dir, tmp_path / "dead", 0.0, 2)
        tiny_csv = _scaled_train_csv(data_dir, tmp_path / "tiny", 1e-14)
        # One row per class is one too few for the store; five rows with two
        # zeroed leave every class a row, but one too few again.  Labels that
        # skip class 1 leave it without a row from the start.
        few_csv, sparse_csv, gap_csv = tmp_path / "few.csv", tmp_path / "sparse.csv", tmp_path / "gap.csv"
        save_features_csv(LabeledSet(np.eye(3, 8), [0, 1, 2], [0, 1, 2], 3), few_csv)
        save_features_csv(LabeledSet(np.eye(5, 8), [0, 2, 0, 2, 0], [0, 2, 0, 2, 0], 3), gap_csv)
        sparse = np.vstack([np.eye(3, 8), np.zeros((2, 8))])
        save_features_csv(LabeledSet(sparse, [0, 1, 2, 0, 1], [0, 1, 2, 0, 1], 3), sparse_csv)
        store_failure = "error: the store built after 0 epoch(s): {}"
        for data, doc, code, message in (
            (train_csv, {"t_diag_init": "fast"}, 2, "t_diag_init must be a number, got 'fast'"),
            (train_csv, {"widths": [16, 8.0]}, 2, "widths must be a list of integers"),
            (train_csv, {"widths": [16, 2]}, 2,
             f"error: {train_csv}: subspace rank 3 (the class count) exceeds the latent width 2"),
            (train_csv, {"t_diag_init": 0.25}, 2, f"error: {train_csv}: t_diag_init must be in (1/3, 1), got 0.25"),
            (train_csv, {"lambda": float("nan")}, 2, "invalid config: lambda must be a finite number, got nan"),
            (train_csv, {"t_diag_init": float("inf")}, 2,
             "invalid config: t_diag_init must be a finite number, got inf"),
            (train_csv, {"seed": -1}, 2, "invalid config: seed must be >= 0, got -1"),
            (scaled_csv, {"epochs": 3}, 3, "error: every training latent is zero or overflows in epoch 0"),
            (dead_csv, {"epochs": 0}, 3, store_failure.format("no row for class(es) 2")),
            (tiny_csv, {"epochs": 0}, 3, store_failure.format("no row for class(es) 0, 1, 2")),
            (gap_csv, {}, 2, f"error: {gap_csv}: no row for class(es) 1"),
            (few_csv, {}, 2, f"error: {few_csv}: need at least 4 rows for 3 classes, got 3"),
            (sparse_csv, {"epochs": 0}, 3, store_failure.format("need at least 4 rows for 3 classes, got 3")),
        ):
            config_path.write_text(json.dumps(doc))
            out = tmp_path / "out"
            argv = ["train", "--data", str(data), "--out", str(out)]
            assert main([*argv, "--config", str(config_path)]) == code, message
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err and err.count("\n") == 1, err
            assert not out.exists(), message

    def test_label_outside_int64_exits_2_naming_the_line(self, tmp_path, data_dir, run_dir, capsys):
        # It was a bare OverflowError traceback (exit 1) from both commands.
        lines = (data_dir / "train.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = "99999999999999999999" + lines[2][lines[2].index(","):]
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "out"
        for argv in (
            ["train", "--data", str(bad)],
            ["eval", "--checkpoint", str(run_dir / "checkpoint.json"), "--id-test", str(bad),
             "--ood", str(data_dir / "ood_far_cluster.csv")],
        ):
            assert main([*argv, "--out", str(out)]) == 2, argv[0]
            assert capsys.readouterr().err == (
                f"error: {bad}: line 3: label '99999999999999999999' outside the int64 range\n"
            )
            assert not out.exists(), argv[0]

    def test_non_object_config_exits_2(self, tmp_path, data_dir, capsys):
        # A JSON list was an AttributeError traceback (exit 1), and a parse
        # error did not name the file.
        config_path = tmp_path / "cfg.json"
        out = tmp_path / "out"
        argv = ["train", "--data", str(data_dir / "train.csv"), "--out", str(out)]
        for text, message in (
            ("[]\n", "not a JSON object"),
            ("{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ):
            config_path.write_text(text)
            assert main([*argv, "--config", str(config_path)]) == 2
            assert capsys.readouterr().err == f"error: {config_path}: {message}\n"
            assert not out.exists()

    def test_a_byte_that_is_not_utf8_exits_2_naming_the_file(self, tmp_path, data_dir, run_dir, capsys):
        # A bare UnicodeDecodeError named neither the file nor the line.
        table = (data_dir / "train.csv").read_bytes().split(b"\n")
        table[2] = table[2].replace(b",", b",\xff", 1)
        body, header = tmp_path / "body.csv", tmp_path / "header.csv"
        body.write_bytes(b"\n".join(table))
        header.write_bytes(b"\n".join([table[0].replace(b"f0", b"f\xff0"), *table[1:2], *table[3:]]))
        config, spec = tmp_path / "config.json", tmp_path / "spec.json"
        config.write_bytes(b'{"epochs": \xff}')
        spec.write_bytes(b'{"seeds": [0], \xff}')
        checkpoint = shutil.copytree(run_dir, tmp_path / "run") / "checkpoint.json"
        checkpoint.write_bytes(checkpoint.read_bytes().replace(b"{", b"{\xff", 1))
        ood = data_dir / "ood_far_cluster.csv"
        out = tmp_path / "out"
        for argv, prefix in (
            (["train", "--data", str(body)], f"{body}: line 3: "),
            (["train", "--data", str(header)], f"{header}: line 1: bad header "),
            (["train", "--data", str(data_dir / "train.csv"), "--config", str(config)], f"{config}: "),
            (["experiment", "--spec", str(spec)], f"{spec}: "),
            (["eval", "--checkpoint", str(checkpoint), "--id-test", str(body), "--ood", str(ood)],
             f"{checkpoint}: "),
        ):
            assert main([*argv, "--out", str(out)]) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: {prefix}") and err.count("\n") == 1, err
            assert not out.exists(), argv


def test_tables_the_package_writes_take_the_bulk_parse(tmp_path, data_dir, run_dir, monkeypatch):
    # The line-wise reader is for files the bulk parse refuses; one the
    # package wrote never needs it.  Extremes: signed zeros, a subnormal,
    # the smallest normal and the largest finite floats.
    def refuse(path):
        raise AssertionError(f"{path} went through the line-wise reader")

    monkeypatch.setattr(files, "_read_table_lines", refuse)
    big = np.finfo(float).max
    extremes = np.array([[0.0, -0.0, 5e-324, -big], [np.finfo(float).tiny, 1.0, -1e-300, big]])
    save_features_csv(LabeledSet(extremes, np.array([0, 1]), np.array([1, 1]), 2), tmp_path / "set.csv")
    save_ood_csv(extremes, tmp_path / "ood.csv")
    # Every table the package writes: gen-data's, in every OOD mode, which
    # are the quickstart's, and none from train.
    tables = sorted(data_dir.glob("*.csv"))
    assert set(GEN_SMALL["ood_modes"]) == set(OOD_MODES)
    assert [path.name for path in tables] == sorted(name for name in QUICKSTART_FILES if name.endswith(".csv"))
    assert list(run_dir.glob("*.csv")) == []
    for path in (*tables, tmp_path / "set.csv", tmp_path / "ood.csv"):
        read_table(path)


class TestEvalCommand:
    def test_full_chain_writes_reports_and_summary(self, tmp_path, data_dir, run_dir, capsys):
        code = main(
            [
                "eval",
                "--checkpoint", str(run_dir / "checkpoint.json"),
                "--id-test", str(data_dir / "test_id.csv"),
                "--ood", str(data_dir / "ood_far_cluster.csv"),
                "--ood", str(data_dir / "ood_uniform_shell.csv"),
                "--score", "knn",
                "--k", "10",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        stems = ["ood_far_cluster", "ood_uniform_shell"]
        assert [line.split(":")[0] for line in lines[:3]] == [*stems, "average"]
        assert lines[3:] == [f"wrote {tmp_path / 'eval_summary.json'}"]
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "eval_summary.json", *(f"report_{stem}.json" for stem in stems)
        ]
        summary = read_json(tmp_path / "eval_summary.json")
        assert [row["dataset"] for row in summary["rows"]] == stems
        assert (summary["average"]["n_id"], summary["average"]["n_ood"]) == (30, 80)

    def test_reports_record_the_checkpoints_seed(self, tmp_path, data_dir):
        # Without a seed of its own, eval once wrote "seed": 0 for a run
        # trained at seed 3, next to that run's config_hash.
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(dict(TRAIN_SMALL, seed=3)))
        run, out = tmp_path / "run", tmp_path / "eval"
        assert main(["train", "--data", str(data_dir / "train.csv"), "--config", str(config_path),
                     "--out", str(run)]) == 0
        command = (
            f"eval --checkpoint {run}/checkpoint.json --id-test {data_dir}/test_id.csv "
            f"--ood {data_dir}/ood_far_cluster.csv --ood {data_dir}/ood_uniform_shell.csv --out {out}"
        )
        assert main(command.split()) == 0
        config_hash = read_json(run / "checkpoint.json")["meta"]["config_hash"]
        docs = [read_json(path) for path in sorted(out.iterdir())]
        assert len(docs) == 3
        assert [(doc["seed"], doc["config_hash"]) for doc in docs] == [(3, config_hash)] * 3

    def test_an_ood_file_whose_latent_norms_overflow_scores_minus_2(self, tmp_path, data_dir, run_dir, capsys):
        # Normalized, such a query would sit at the origin, 1 from every
        # store row; its overflow is no news on stderr.
        far = tmp_path / "ood_far.csv"
        save_ood_csv(load_ood_csv(data_dir / "ood_far_cluster.csv") * 1e160, far)
        command = (
            f"eval --checkpoint {run_dir}/checkpoint.json --id-test {data_dir}/test_id.csv "
            f"--ood {far} --out {tmp_path / 'eval'}"
        )
        assert main(command.split()) == 0
        assert capsys.readouterr().err == ""
        assert read_json(tmp_path / "eval" / "report_ood_far.json")["ood_scores"] == [-2.0] * 40

    def test_reports_rederive_from_raw_scores(self, tmp_path, data_dir, run_dir):
        run_eval(
            run_dir / "checkpoint.json",
            run_dir / "store",
            data_dir / "test_id.csv",
            [data_dir / "ood_far_cluster.csv"],
            "knn",
            10,
            0.95,
            0,
            tmp_path,
        )
        doc = read_json(tmp_path / "report_ood_far_cluster.json")
        id_scores, ood_scores = np.array(doc["id_scores"]), np.array(doc["ood_scores"])
        assert fpr_at_tpr(id_scores, ood_scores, doc["tpr"]) == doc["metrics"]["fpr95"]
        assert auroc(id_scores, ood_scores) == doc["metrics"]["auroc"]

    def test_id_set_against_itself_scores_exactly_half(self, tmp_path, data_dir, run_dir):
        # Identical score samples: every pair ties, AUROC must be 0.5 exactly.
        summary = run_eval(
            run_dir / "checkpoint.json",
            run_dir / "store",
            data_dir / "test_id.csv",
            [data_dir / "test_id.csv"],
            "knn",
            10,
            0.95,
            0,
            tmp_path,
        )
        assert summary["rows"][0]["auroc"] == 0.5

    def test_every_score_kind_runs(self, tmp_path, data_dir, run_dir):
        for score in ("knn", "mahalanobis", "msp", "energy"):
            summary = run_eval(
                run_dir / "checkpoint.json",
                run_dir / "store",
                data_dir / "test_id.csv",
                [data_dir / "ood_far_cluster.csv"],
                score,
                5,
                0.95,
                0,
                tmp_path / score,
            )
            assert 0.0 <= summary["average"]["auroc"] <= 1.0, score

    def test_missing_input_exits_2(self, tmp_path, data_dir, run_dir, capsys):
        code = main(
            [
                "eval",
                "--checkpoint", str(run_dir / "checkpoint.json"),
                "--id-test", str(data_dir / "test_id.csv"),
                "--ood", str(tmp_path / "missing.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert "missing input file" in capsys.readouterr().err

    def test_repeated_ood_stem_exits_2_before_any_write(self, tmp_path, data_dir, run_dir, capsys):
        # Both files would write report_ood_far_cluster.*; unchecked, the
        # second silently replaces the first.
        twin = tmp_path / "b" / "ood_far_cluster.csv"
        twin.parent.mkdir()
        shutil.copy(data_dir / "ood_far_cluster.csv", twin)
        out = tmp_path / "eval"
        command = (
            f"eval --checkpoint {run_dir}/checkpoint.json --id-test "
            f"{data_dir}/test_id.csv --ood {data_dir}/ood_far_cluster.csv --ood {twin} --out {out}"
        )
        assert main(command.split()) == 2
        assert "OOD files share a report name: ood_far_cluster" in capsys.readouterr().err
        assert not out.exists()

    def test_an_ood_file_named_average_exits_2_before_any_write(self, tmp_path, data_dir, run_dir, capsys):
        # Its report row and the summary's average row were both "average",
        # told apart only by their order.
        average = tmp_path / "average.csv"
        shutil.copy(data_dir / "ood_far_cluster.csv", average)
        out = tmp_path / "eval"
        command = (
            f"eval --checkpoint {run_dir}/checkpoint.json --id-test "
            f"{data_dir}/test_id.csv --ood {data_dir}/ood_far_cluster.csv --ood {average} --out {out}"
        )
        assert main(command.split()) == 2
        assert capsys.readouterr().err == "error: OOD files name a report 'average', the name of the average row\n"
        assert not out.exists()

    def _eval_exits_2_naming_both(self, run, data_dir, out, capsys):
        # The store eval reads is the store.npy beside the checkpoint.
        command = (
            f"eval --checkpoint {run}/checkpoint.json --id-test "
            f"{data_dir}/test_id.csv --ood {data_dir}/ood_far_cluster.csv --out {out}"
        )
        assert main(command.split()) == 2
        assert capsys.readouterr().err == (
            f"error: {run}/store.npy: not the store trained with {run}/checkpoint.json "
            "(store_checksum differs)\n"
        )
        assert not out.exists()

    def test_store_from_another_checkpoint_exits_2(self, tmp_path, data_dir, run_dir, capsys):
        # Seed 1 changes the encoder; the narrower widths also change the latent dimension.
        for name, overrides in (("seed1", {"seed": 1}), ("narrow", {"widths": [16, 4]})):
            other = tmp_path / name
            run_training(
                data_dir / "train.csv", TrainConfig.from_dict({**TRAIN_SMALL, **overrides}), other
            )
            shutil.copyfile(run_dir / "checkpoint.json", other / "checkpoint.json")
            self._eval_exits_2_naming_both(other, data_dir, tmp_path / f"eval_{name}", capsys)

    def test_store_copied_from_another_run_exits_2(self, tmp_path, data_dir, run_dir, capsys):
        # Run B (`ce`) has the width and classes of run A (`cm`), so with B's
        # store.npy in A's directory only the checksum tells the two apart.
        a, b = tmp_path / "a", tmp_path / "b"
        shutil.copytree(run_dir, a)
        config = TrainConfig.from_dict({**TRAIN_SMALL, "loss_kind": "ce"})
        run_training(data_dir / "train.csv", config, b)
        shutil.copyfile(b / "store.npy", a / "store.npy")
        self._eval_exits_2_naming_both(a, data_dir, tmp_path / "eval", capsys)

    def test_store_with_more_classes_than_the_head_exits_2(
        self, tmp_path, data_dir, run_dir, capsys
    ):
        latents = np.random.default_rng(0).standard_normal((8, 40)) + 0.5
        save_store(build_store(latents, np.arange(40) % 4, 4), tmp_path / "store")
        shutil.copyfile(run_dir / "checkpoint.json", tmp_path / "checkpoint.json")
        self._eval_exits_2_naming_both(tmp_path, data_dir, tmp_path / "eval", capsys)

    def test_bad_checkpoint_or_store_file_exits_2(self, tmp_path, data_dir, run_dir, capsys):
        # A JSON list, or a meta that is not an object, was a traceback (exit 1).
        # The store's statistics come from store.npy, so a class gap or a
        # negative label is named in that file, and so is a row off the unit
        # sphere; a checkpoint that records no store checksum must be retrained.
        # The architecture is read off the arrays: a one-entry head bias was
        # broadcast (exit 0), a head weight one column short failed in a matmul
        # and a ragged weight row in NumPy's array build, neither naming the file.
        def store_edit(change):
            def edit(path):
                labels, rows = read_labeled_array(path)
                change(labels, rows)
                write_labeled_array(path, labels, rows)

            return edit

        gap = store_edit(lambda labels, rows: labels.__setitem__(labels == 1, 0))
        negative = store_edit(lambda labels, rows: labels.__setitem__(0, -1))
        off_sphere = store_edit(lambda labels, rows: rows.__setitem__(0, 2 * np.eye(rows.shape[1])[0]))

        def checkpoint_edit(change):
            def edit(path):
                doc = read_json(path)
                change(doc)
                path.write_text(json.dumps(doc) + "\n")

            return edit

        unbound = checkpoint_edit(lambda doc: doc["meta"].pop("store_checksum"))
        # The reports record the checkpoint's seed; eval once recorded its own
        # --seed (default 0) beside the config_hash of another seed.
        unseeded = checkpoint_edit(lambda doc: doc["meta"]["config"].pop("seed"))
        string_seed = checkpoint_edit(lambda doc: doc["meta"]["config"].update(seed="0"))
        unconfigured = checkpoint_edit(lambda doc: doc["meta"].pop("config"))
        # Without config_hash every report and the summary recorded "" (exit 0).
        unhashed = checkpoint_edit(lambda doc: doc["meta"].pop("config_hash"))
        narrow_head = checkpoint_edit(lambda doc: [row.pop() for row in doc["head_weight"]])
        ragged = checkpoint_edit(lambda doc: doc["weights"][0][1].pop())
        # NumPy's float() takes a JSON true as 1.0 and "0.5" as 0.5.
        bool_bias = checkpoint_edit(lambda doc: doc["head_bias"].__setitem__(0, True))
        string_bias = checkpoint_edit(lambda doc: doc["head_bias"].__setitem__(0, "0.5"))
        # NumPy's own message for these named the file but not the array.
        word_bias, list_bias, object_bias = (
            checkpoint_edit(lambda doc, v=value: doc["head_bias"].__setitem__(0, v))
            for value in ("abc", [1], {"a": 1})
        )
        weights = read_json(run_dir / "checkpoint.json")["weights"][0]
        weights[1].pop()
        with pytest.raises(ValueError, match="inhomogeneous shape") as numpy_error:
            np.array(weights, dtype=float)
        for name, file, edit, message in (
            ("list_checkpoint", "checkpoint.json", lambda path: path.write_text("[]\n"), "not a JSON object"),
            ("unbound", "checkpoint.json", unbound, "missing key 'store_checksum'"),
            ("unhashed", "checkpoint.json", unhashed, "missing key 'config_hash'"),
            ("unseeded", "checkpoint.json", unseeded, "meta has no integer config.seed"),
            ("string_seed", "checkpoint.json", string_seed, "meta has no integer config.seed"),
            ("unconfigured", "checkpoint.json", unconfigured, "meta has no integer config.seed"),
            ("number_meta", "checkpoint.json", checkpoint_edit(lambda doc: doc.update(meta=5)),
             "meta is not a JSON object"),
            ("gap", "store.npy", gap, "no row for class(es) 1"),
            ("negative", "store.npy", negative, "labels must be nonnegative"),
            ("off_sphere", "store.npy", off_sphere, "store embeddings must have unit norm"),
            ("short_head_bias", "checkpoint.json", checkpoint_edit(lambda doc: doc.update(head_bias=[0.5])),
             "head_bias has shape (1,), expected (3,)"),
            ("narrow_head", "checkpoint.json", narrow_head, "head_weight has shape (3, 7), expected (3, 8)"),
            ("ragged", "checkpoint.json", ragged, str(numpy_error.value)),
            ("bool_bias", "checkpoint.json", bool_bias, "head_bias must be a number, got True"),
            ("string_bias", "checkpoint.json", string_bias, "head_bias must be a number, got '0.5'"),
            ("word_bias", "checkpoint.json", word_bias, "head_bias must be a number, got 'abc'"),
            ("list_bias", "checkpoint.json", list_bias, "head_bias must be a number, got [1]"),
            ("object_bias", "checkpoint.json", object_bias, "head_bias must be a number, got {'a': 1}"),
        ):
            copy = tmp_path / name
            shutil.copytree(run_dir, copy)
            path = copy / file
            edit(path)
            out = tmp_path / f"eval_{name}"
            command = (
                f"eval --checkpoint {copy}/checkpoint.json --id-test "
                f"{data_dir}/test_id.csv --ood {data_dir}/ood_far_cluster.csv --out {out}"
            )
            assert main(command.split()) == 2, name
            assert capsys.readouterr().err == f"error: {path}: {message}\n", name
            assert not out.exists(), name

    def test_a_malformed_store_file_exits_2_naming_it(self, tmp_path, data_dir, run_dir, capsys):
        # The store is one structured array of int64 labels and float64 rows,
        # little-endian; any other file in its place is refused before a
        # record is read, and a pickled one is never unpickled.
        labels, rows = read_labeled_array(run_dir / "store.npy")
        n, dim = rows.shape
        whole = (run_dir / "store.npy").read_bytes()

        def records(*extra, label="<i8", row="<f8"):
            out = np.zeros(n, [("label", label), ("embedding", row, (dim,)), *extra])
            out["label"], out["embedding"] = labels, rows
            return out

        layout = "expected a 1-D array of fields label <i8 and embedding <f8 (d wide), got shape"
        for name, content, message in (
            ("truncated", whole[:-5], f"{n * (8 + 8 * dim) - 5} bytes of records, but its header's shape "
             f"needs {n * (8 + 8 * dim)}"),
            ("float32_rows", records(row="<f4"), f"{layout} ({n},) and dtype "
             f"[('label', '<i8'), ('embedding', '<f4', ({dim},))]"),
            ("float_labels", records(label="<f8"), f"{layout} ({n},) and dtype "
             f"[('label', '<f8'), ('embedding', '<f8', ({dim},))]"),
            ("extra_field", records(("weight", "<f8")), f"{layout} ({n},) and dtype "
             f"[('label', '<i8'), ('embedding', '<f8', ({dim},)), ('weight', '<f8')]"),
            ("big_endian", records(label=">i8", row=">f8"), f"{layout} ({n},) and dtype "
             f"[('label', '>i8'), ('embedding', '>f8', ({dim},))]"),
            ("plain_rows", rows, f"{layout} ({n}, {dim}) and dtype float64"),
            ("no_rows", records()[:0], "no rows"),
            ("pickled", np.array([_NeverUnpickled()], dtype=object), f"{layout} (1,) and dtype object"),
        ):
            run = shutil.copytree(run_dir, tmp_path / name)
            path = run / "store.npy"
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                np.save(path, content, allow_pickle=True)
            out = tmp_path / f"eval_{name}"
            command = (
                f"eval --checkpoint {run}/checkpoint.json --id-test "
                f"{data_dir}/test_id.csv --ood {data_dir}/ood_far_cluster.csv --out {out}"
            )
            assert main(command.split()) == 2, name
            assert capsys.readouterr().err == f"error: {path}: {message}\n", name
            assert not out.exists(), name

    def test_a_run_with_only_a_csv_store_exits_2_before_any_write(self, tmp_path, data_dir, run_dir, capsys):
        # Runs trained before the store became an array file hold store.csv;
        # eval names the store.npy they lack, and they must be retrained.
        run = shutil.copytree(run_dir, tmp_path / "run")
        (run / "store.npy").rename(run / "store.csv")
        out = tmp_path / "out"
        command = (
            f"eval --checkpoint {run}/checkpoint.json --id-test "
            f"{data_dir}/test_id.csv --ood {data_dir}/ood_far_cluster.csv --out {out}"
        )
        assert main(command.split()) == 2
        assert capsys.readouterr().err == f"error: missing input file: {run}/store.npy\n"
        assert not out.exists()

    def test_bad_settings_exit_2_alike_from_eval_and_a_spec_before_any_read(
        self, tmp_path, data_dir, run_dir, monkeypatch, capsys
    ):
        # `noodle eval` took any k for msp and energy (exit 0, k recorded as
        # given) and refused k=0 for knn only after reading every input, while
        # a spec refused all of them.  Both now build one EvalSpec first.
        def no_read(path):
            pytest.fail(f"{path} was read before the settings were checked")

        monkeypatch.setattr("noodle.cli.load_checkpoint", no_read)
        spec_path, out = tmp_path / "spec.json", tmp_path / "out"
        for score, k, message in (
            ("msp", 0, "need an integer k >= 1, got 0"),
            ("energy", -3, "need an integer k >= 1, got -3"),
            ("knn", 0, "need an integer k >= 1, got 0"),
        ):
            command = (
                f"eval --checkpoint {run_dir}/checkpoint.json --id-test "
                f"{data_dir}/test_id.csv --ood {data_dir}/ood_far_cluster.csv --out {out} "
                f"--score {score} --k {k}"
            )
            assert main(command.split()) == 2, message
            assert capsys.readouterr().err == f"error: {message}\n"
            spec = {"methods": [{"name": "a", "score": score, "k": k}], "seeds": [0]}
            spec_path.write_text(json.dumps(spec))
            assert main(["experiment", "--spec", str(spec_path), "--out", str(out)]) == 2, message
            assert capsys.readouterr().err == f"error: {spec_path}: method 'a': {message}\n"
            assert not out.exists(), message

    def test_a_feature_file_of_another_width_exits_2_naming_it(self, tmp_path, data_dir, run_dir, capsys):
        # Forwarding one refused it without naming the file or the checkpoint.
        narrow = tmp_path / "narrow"
        generate_dataset_files(narrow, 0, **dict(GEN_SMALL, dim=4))
        checkpoint, out = run_dir / "checkpoint.json", tmp_path / "out"
        for id_test, ood, bad in (
            (narrow / "test_id.csv", [data_dir / "ood_far_cluster.csv"], narrow / "test_id.csv"),
            (data_dir / "test_id.csv", [data_dir / "ood_far_cluster.csv", narrow / "ood_uniform_shell.csv"],
             narrow / "ood_uniform_shell.csv"),
        ):
            argv = ["eval", "--checkpoint", str(checkpoint), "--id-test", str(id_test), "--out", str(out)]
            assert main([*argv, *(arg for path in ood for arg in ("--ood", str(path)))]) == 2
            assert capsys.readouterr().err == f"error: {bad}: 4 features, but {checkpoint} takes 8\n"
            assert not out.exists()

    def test_an_id_file_naming_a_class_the_checkpoint_lacks_exits_2(self, tmp_path, data_dir, run_dir, capsys):
        # Its rows could never be predicted right: eval exited 0 with a lower id_acc.
        data = load_features_csv(data_dir / "test_id.csv")
        data.clean_labels[:5] = data.noisy_labels[:5] = 3
        bad, out = tmp_path / "test_id.csv", tmp_path / "out"
        save_features_csv(data, bad)
        checkpoint, far = run_dir / "checkpoint.json", data_dir / "ood_far_cluster.csv"
        message = f"{bad}: label 3, but {checkpoint} has 3 classes"
        argv = ["eval", "--checkpoint", str(checkpoint), "--id-test", str(bad), "--ood", str(far), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        # A sweep over given files records it as the cell's failure.
        dataset = {"train_csv": str(data_dir / "train.csv"), "id_test_csv": str(bad), "ood_csvs": [str(far)]}
        spec = {"dataset": dataset, "train": {"epochs": 1, "widths": [16, 8]}, "methods": [{"name": "a"}], "seeds": [0]}
        comparison = run_experiment(spec, "spec.json", out, 1)
        run = out / "runs" / "a" / "seed0"
        message = f"{bad}: label 3, but {run / 'checkpoint.json'} has 3 classes"
        assert comparison["methods"]["a"]["failures"] == {"0": f"ValueError: {message}"}

    def test_unknown_score_kind_rejected(self, tmp_path, data_dir, run_dir):
        with pytest.raises(ValueError, match="unknown score kind"):
            run_eval(
                run_dir / "checkpoint.json",
                run_dir / "store",
                data_dir / "test_id.csv",
                [data_dir / "ood_far_cluster.csv"],
                "cosine",
                5,
                0.95,
                0,
                tmp_path,
            )


# The files README's quickstart lists, gen-data's, train's and eval's in turn.
QUICKSTART_FILES = (
    "config.json",
    "train.csv", "val.csv", "test_id.csv", "ood_far_cluster.csv", "ood_uniform_shell.csv",
    "checkpoint.json", "store.npy", "trace.json",
    "report_ood_far_cluster.json", "report_ood_uniform_shell.json", "eval_summary.json",
)


@pytest.fixture(scope="module")
def quickstart_dir(tmp_path_factory):
    """The README quickstart's gen-data and train steps, run once."""
    out = tmp_path_factory.mktemp("quickstart")
    config = (
        '{"epochs": 40, "widths": [64, 32, 16], "t_diag_init": 0.65,'
        ' "loss_kind": "cm", "lambda": 0.001, "seed": 0}'
    )
    (out / "config.json").write_text(config)
    for command in (
        "gen-data --out {out} --seed 0 --classes 4 --per-class 250 --dim 16 --noise-rate 0.4"
        " --ood-modes far_cluster,uniform_shell",
        "train --data {out}/train.csv --config {out}/config.json --out {out}",
    ):
        assert main(command.format(out=out).split()) == 0
    return out


def test_readme_quickstart_prints_the_documented_numbers(quickstart_dir, capsys):
    out = quickstart_dir
    command = (
        f"eval --checkpoint {out}/checkpoint.json --id-test {out}/test_id.csv"
        f" --ood {out}/ood_far_cluster.csv --ood {out}/ood_uniform_shell.csv --out {out}"
    )
    capsys.readouterr()
    assert main(command.split()) == 0
    assert capsys.readouterr().out.splitlines()[:3] == [
        "ood_far_cluster: fpr95=0.0340 auroc=0.9757 id_acc=0.9480",
        "ood_uniform_shell: fpr95=0.5600 auroc=0.8776 id_acc=0.9480",
        "average: fpr95=0.2970 auroc=0.9266 id_acc=0.9480",
    ]
    assert sorted(path.name for path in out.iterdir()) == sorted(QUICKSTART_FILES)


# A scale of None rescales the file so that its largest entry is 1.5e308.
@pytest.mark.parametrize(
    "scale, score",
    [(scale, score) for scale in (1e160, 1e300, None) for score in ("knn", "mahalanobis")]
    + [(None, "msp"), (None, "energy")],
)
def test_queries_the_sphere_cannot_hold_rank_below_every_id_query(tmp_path, quickstart_dir, capsys, scale, score):
    # Mahalanobis scored them at the origin, nearer the class means than
    # real ID queries: AUROC 0.038 at both scales.  Entries up to 1.5e308 are
    # finite, so the file is read, but they overflow the network: its NumPy
    # warnings failed knn and mahalanobis (exit 1 under -W error), and msp and
    # energy, which need finite logits, exited 2 without naming the file.
    out = quickstart_dir
    far = tmp_path / "ood_far.csv"
    features = load_ood_csv(out / "ood_far_cluster.csv")
    save_ood_csv(features * (scale or 1.5e308 / np.abs(features).max()), far)
    command = (
        f"eval --checkpoint {out}/checkpoint.json --id-test {out}/test_id.csv"
        f" --ood {far} --score {score} --out {tmp_path / 'eval'}"
    )
    capsys.readouterr()
    if score in ("msp", "energy"):
        # An ID file that the network overflows on is named the same way; it is scored first.
        id_set = load_features_csv(out / "test_id.csv")
        id_set.features *= 1.5e308 / np.abs(id_set.features).max()
        save_features_csv(id_set, tmp_path / "test_id.csv")
        for id_test, at_fault in ((out / "test_id.csv", far), (tmp_path / "test_id.csv", tmp_path / "test_id.csv")):
            assert main(command.replace(f"{out}/test_id.csv", str(id_test)).split()) == 2
            assert capsys.readouterr().err == (
                f"error: {at_fault}: the network overflows on it, so its logits are not finite and {score} cannot score it\n"
            )
        assert not (tmp_path / "eval").exists()
        return
    assert main(command.split()) == 0
    assert read_json(tmp_path / "eval" / "report_ood_far.json")["metrics"]["auroc"] == 1.0


def test_readme_cli_reference_and_config_fields_match_the_code():
    # Every flag a subcommand defines is in its README "CLI reference" entry
    # and the reverse; --out is documented once, above the entries.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    reference = text.split("## CLI reference", 1)[1].split("\n## ", 1)[0]
    preamble, *entries = re.split(r"\*\*`noodle ([a-z-]+)`\*\*", reference)
    documented = {
        name: set(re.findall(r"--[a-z][a-z-]*", body)) for name, body in zip(entries[::2], entries[1::2])
    }
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    defined = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help", "--out"}
        for name, sub in commands.choices.items()
    }
    assert documented == defined
    assert "`--out`" in preamble

    listed = text.split("`TrainConfig` fields (all overridable): `", 1)[1].split("`", 1)[0]
    assert re.split(r",\s*", listed) == [f.name for f in dataclasses.fields(TrainConfig)]

    # The sweep spec example shows every spec key and every method key, and plans.
    sweeps = text.split("## Experiment sweeps", 1)[1]
    example = json.loads(sweeps.split("```json", 1)[1].split("```", 1)[0])
    assert sorted(example) == sorted(SPEC_KEYS)
    assert sorted({key for method in example["methods"] for key in method}) == sorted(METHOD_KEYS)
    plan_experiment(example, "README.md")


def test_readme_fixed_constants_match_the_code():
    # Each `module.NAME` value the README's fixed-settings paragraph gives is
    # the code's, and every number the training loop fixes is among them.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = text.split("The rest is fixed:", 1)[1].split("\n\n", 1)[0]
    named = {
        (module, name): float(value)
        for module, name, value in re.findall(r"`(\w+)\.([A-Z][A-Z_]*)` ([0-9]+(?:\.[0-9]+)?)", paragraph)
    }
    assert named == {key: float(getattr(importlib.import_module(f"noodle.{key[0]}"), key[1])) for key in named}
    fixed = {name for name, value in vars(importlib.import_module("noodle.trainer")).items()
             if name.isupper() and type(value) in (int, float)}
    assert fixed and fixed <= {name for module, name in named if module == "trainer"}


def _experiment_spec(tmp_path, seeds=(0,), methods=None):
    spec = {
        "format": "noodle-experiment",
        "version": 1,
        "dataset": dict(GEN_SMALL, ood_modes=["far_cluster"]),
        "noise": {"rate": 0.2},
        "train": {k: v for k, v in TRAIN_SMALL.items() if k not in ("loss_kind", "lambda", "seed")},
        "methods": methods
        or [
            {"name": "noodle", "loss_kind": "cm", "lambda": 0.001, "score": "knn", "k": 10},
            {"name": "ce", "loss_kind": "ce", "lambda": 0.0, "score": "knn", "k": 10},
        ],
        "seeds": list(seeds),
    }
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(spec, indent=1))
    return path, spec


class TestExperiment:
    def test_sweep_writes_comparison_tables(self, tmp_path, capsys):
        spec_path, _ = _experiment_spec(tmp_path, seeds=(0, 1))
        code = main(["experiment", "--spec", str(spec_path), "--out", str(tmp_path / "out")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:2]] == ["noodle", "ce"]
        assert lines[2:] == [f"wrote {tmp_path / 'out' / 'comparison.json'}"]
        doc = json.loads((tmp_path / "out" / "comparison.json").read_text())
        assert [row["method"] for row in doc["rows"]] == ["noodle", "ce"]
        for row in doc["rows"]:
            assert row["seeds"] == 2 and row["failures"] == 0
        assert set(doc["methods"]["noodle"]["per_seed"]) == {"0", "1"}

    def test_sweep_writes_the_documented_files(self, tmp_path):
        solo = {"name": "solo", "loss_kind": "ce", "lambda": 0.0, "score": "knn", "k": 10}
        spec_path, _ = _experiment_spec(tmp_path, methods=[solo])
        out = tmp_path / "out"
        assert main(["experiment", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == ["comparison.json", "data", "runs"]
        assert sorted(path.name for path in (out / "data" / "seed0").iterdir()) == [
            "ood_far_cluster.csv", "test_id.csv", "train.csv", "val.csv"
        ]
        assert sorted(path.name for path in (out / "runs" / "solo" / "seed0").iterdir()) == [
            "checkpoint.json", "eval_summary.json", "report_ood_far_cluster.json", "store.npy", "trace.json"
        ]

    def test_sweep_matches_a_manual_chain_exactly(self, tmp_path):
        spec_path, spec = _experiment_spec(
            tmp_path,
            methods=[{"name": "solo", "loss_kind": "cm", "lambda": 0.001, "score": "knn", "k": 10}],
        )
        out = tmp_path / "out"
        assert main(["experiment", "--spec", str(spec_path), "--out", str(out)]) == 0
        sweep_summary = json.loads(
            (out / "runs" / "solo" / "seed0" / "eval_summary.json").read_text()
        )

        config = TrainConfig.from_dict(
            dict(spec["train"], loss_kind="cm", **{"lambda": 0.001}, seed=0)
        )
        manual = tmp_path / "manual"
        run_training(out / "data" / "seed0" / "train.csv", config, manual)
        manual_summary = run_eval(
            manual / "checkpoint.json",
            manual / "store",
            out / "data" / "seed0" / "test_id.csv",
            [out / "data" / "seed0" / "ood_far_cluster.csv"],
            "knn",
            10,
            0.95,
            0,
            manual,
        )
        assert manual_summary["average"] == sweep_summary["average"]
        assert manual_summary["rows"] == sweep_summary["rows"]

    def test_a_sweep_over_given_files_matches_the_generated_sweep(self, tmp_path):
        # A spec that names its dataset files runs on them as given: pointed
        # at a generated sweep's data/seed0/ files, it writes the same runs.
        spec_path, spec = _experiment_spec(tmp_path)
        generated, given = tmp_path / "generated", tmp_path / "given"
        assert main(["experiment", "--spec", str(spec_path), "--out", str(generated)]) == 0
        data = generated / "data" / "seed0"
        spec = {key: value for key, value in spec.items() if key != "noise"}
        spec["dataset"] = {
            "train_csv": str(data / "train.csv"),
            "id_test_csv": str(data / "test_id.csv"),
            "ood_csvs": [str(data / "ood_far_cluster.csv")],
        }
        spec_path.write_text(json.dumps(spec))
        assert main(["experiment", "--spec", str(spec_path), "--out", str(given)]) == 0
        assert sorted(path.name for path in given.iterdir()) == ["comparison.json", "runs"]

        def runs(out):
            return {str(p.relative_to(out)): p.read_bytes() for p in (out / "runs").rglob("*") if p.is_file()}

        assert len(runs(given)) == 2 * 5 and runs(given) == runs(generated)
        expected, got = read_json(generated / "comparison.json"), read_json(given / "comparison.json")
        assert (got["rows"], got["methods"]) == (expected["rows"], expected["methods"])

    def test_parallel_and_serial_runs_agree(self, tmp_path):
        # Four cells: --threads 2 is this process and one worker, --threads 3
        # this process and two, so cells run in both kinds of process.
        spec_path, _ = _experiment_spec(tmp_path, seeds=(0, 1))
        trees = {}
        for threads in ("1", "2", "3"):
            out = tmp_path / f"threads{threads}"
            argv = ["experiment", "--spec", str(spec_path), "--out", str(out), "--threads", threads]
            assert main(argv) == 0
            trees[threads] = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert len([name for name in trees["1"] if name.endswith("checkpoint.json")]) == 4
        assert trees["2"] == trees["1"]
        assert trees["3"] == trees["1"]

    @staticmethod
    def _recording_pool(asked, outcome):
        """A pool stand-in that records its size and settles each future at
        submit with ``outcome(fn, *args)``, so callbacks run at once."""

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                try:
                    future.set_result(outcome(fn, *args))
                except BaseException as exc:
                    future.set_exception(exc)
                return future

        return RecordingPool

    def test_the_pool_starts_no_more_workers_than_cells(self, tmp_path, monkeypatch):
        # This process runs cells too, so --threads N starts min(N, cells) - 1
        # workers.  Under fork the pool starts all max_workers processes at the
        # first submit, so --threads 64 on two cells once started 64.
        asked = []
        pool = self._recording_pool(asked, lambda fn, *args: fn(*args))
        monkeypatch.setattr("noodle.cli.ProcessPoolExecutor", pool)
        spec_path, _ = _experiment_spec(tmp_path)
        argv = ["experiment", "--spec", str(spec_path)]
        assert main([*argv, "--threads", "64", "--out", str(tmp_path / "two")]) == 0
        assert asked == [1]
        assert main([*argv, "--threads", "1", "--out", str(tmp_path / "serial")]) == 0
        assert asked == [1]
        solo = {"name": "solo", "loss_kind": "ce", "lambda": 0.0, "score": "knn", "k": 10}
        spec_path, _ = _experiment_spec(tmp_path, methods=[solo])
        assert main([*argv, "--threads", "64", "--out", str(tmp_path / "one")]) == 0
        assert asked == [1]
        doc = json.loads((tmp_path / "two" / "comparison.json").read_text())
        assert [row["seeds"] for row in doc["rows"]] == [1, 1]

    def test_a_broken_pool_is_raised(self, tmp_path, monkeypatch):
        def broken(fn, *args):
            raise BrokenProcessPool("a worker died")

        monkeypatch.setattr("noodle.cli.ProcessPoolExecutor", self._recording_pool([], broken))
        _, spec = _experiment_spec(tmp_path)
        with pytest.raises(BrokenProcessPool, match="a worker died"):
            run_experiment(spec, "experiment.json", tmp_path / "out", 2)
        assert not (tmp_path / "out" / "comparison.json").exists()

    def test_a_worker_that_dies_is_raised(self, tmp_path, monkeypatch):
        # A real pool: the forked worker exits at its first cell.
        parent = os.getpid()

        def exit_in_a_worker(*args):
            if os.getpid() != parent:
                os._exit(1)
            return run_training(*args)

        monkeypatch.setattr("noodle.cli.run_training", exit_in_a_worker)
        _, spec = _experiment_spec(tmp_path, seeds=(0, 1))
        with pytest.raises(BrokenProcessPool):
            run_experiment(spec, "experiment.json", tmp_path / "out", 2)
        assert not (tmp_path / "out" / "comparison.json").exists()

    def test_every_cell_runs_once_in_plan_order_under_contention(self, monkeypatch):
        # Threads stand in for the workers, more of them than cores, with a
        # short switch interval: a cell taken twice, or a result stored in the
        # wrong slot or lost, breaks the count or the order.  Many short sweeps
        # also race the last hand-out against the pool's shutdown, which a
        # submit outside the lock loses in many of them.
        ran = []

        def cell_stub(cell):
            ran.append(cell["i"])
            return {"i": cell["i"]}

        monkeypatch.setattr("noodle.cli._run_cell", cell_stub)
        monkeypatch.setattr("noodle.cli.ProcessPoolExecutor", ThreadPoolExecutor)
        cells = [{"i": i} for i in range(20)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(300):
                ran.clear()
                assert _run_cells(cells, 8) == cells
                assert sorted(ran) == list(range(20))
        finally:
            sys.setswitchinterval(interval)

    def test_cell_failure_is_reported_not_fatal(self, tmp_path, monkeypatch, capsys):
        # The "bad" method's loss diverges at run time; the serial run keeps
        # the patched `train` in this process.
        def diverging_train(data, config):
            if config.loss_kind == "cm":
                raise DivergenceError("loss diverged")
            return train(data, config)

        monkeypatch.setattr("noodle.cli.train", diverging_train)
        spec_path, _ = _experiment_spec(
            tmp_path,
            methods=[
                {"name": "good", "loss_kind": "ce", "lambda": 0.0, "score": "knn", "k": 10},
                {"name": "bad", "loss_kind": "cm", "lambda": 0.001, "score": "knn", "k": 10},
            ],
        )
        argv = ["experiment", "--spec", str(spec_path), "--out", str(tmp_path / "out"), "--threads", "1"]
        code = main(argv)
        assert code == 0
        printed = capsys.readouterr()
        assert "1 cell(s) failed" in printed.err
        assert "bad: no seed succeeded (1 failures)" in printed.out.splitlines()

        # A method without a successful seed has no mean or std: they are
        # null, where they were once NaN, which strict JSON parsers refuse.
        def refuse(token):
            raise AssertionError(f"not JSON: {token}")

        doc = json.loads((tmp_path / "out" / "comparison.json").read_text(), parse_constant=refuse)
        rows = {row["method"]: row for row in doc["rows"]}
        assert rows["good"]["failures"] == 0 and rows["good"]["seeds"] == 1
        assert rows["bad"]["failures"] == 1 and rows["bad"]["seeds"] == 0
        statistics = [f"{key}_{stat}" for key in ("fpr95", "auroc", "id_acc") for stat in ("mean", "std")]
        assert [rows["bad"][key] for key in statistics] == [None] * 6
        assert all(isinstance(rows["good"][key], float) for key in statistics)
        assert doc["methods"]["bad"]["failures"]["0"] == "DivergenceError: loss diverged"

    def test_diverging_cell_is_recorded_as_divergence_error(self, tmp_path, data_dir, capsys):
        hot = {"name": "hot", "loss_kind": "cm", "lambda": 0.001, "score": "knn", "k": 10}
        spec_path, spec = _experiment_spec(tmp_path, methods=[hot])
        del spec["noise"]
        spec["dataset"] = {
            "train_csv": str(_scaled_train_csv(data_dir, tmp_path / "scaled")),
            "id_test_csv": str(data_dir / "test_id.csv"),
            "ood_csvs": [str(data_dir / "ood_far_cluster.csv")],
        }
        spec_path.write_text(json.dumps(spec))
        assert main(["experiment", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 0
        assert "1 cell(s) failed" in capsys.readouterr().err
        doc = json.loads((tmp_path / "out" / "comparison.json").read_text())
        error = doc["methods"]["hot"]["failures"]["0"]
        assert error == "DivergenceError: every training latent is zero or overflows in epoch 0", error

    def test_a_class_without_a_usable_latent_is_recorded_as_divergence_error(self, tmp_path, data_dir, capsys):
        # The cell failed in training, not on bad input: not the store's
        # "ValueError: no row for class(es) 2".
        spec_path, spec = _experiment_spec(tmp_path)
        del spec["noise"]
        spec["train"]["epochs"] = 0
        spec["dataset"] = {
            "train_csv": str(_scaled_train_csv(data_dir, tmp_path / "dead", 0.0, 2)),
            "id_test_csv": str(data_dir / "test_id.csv"),
            "ood_csvs": [str(data_dir / "ood_far_cluster.csv")],
        }
        spec_path.write_text(json.dumps(spec))
        assert main(["experiment", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 0
        assert "2 cell(s) failed" in capsys.readouterr().err
        doc = json.loads((tmp_path / "out" / "comparison.json").read_text())
        message = "DivergenceError: the store built after 0 epoch(s): no row for class(es) 2"
        assert [doc["methods"][name]["failures"]["0"] for name in ("noodle", "ce")] == [message] * 2

    def test_an_ood_csv_named_average_exits_2_before_any_write(self, tmp_path, data_dir, capsys):
        average = tmp_path / "average.csv"
        shutil.copy(data_dir / "ood_far_cluster.csv", average)
        spec_path, spec = _experiment_spec(tmp_path)
        del spec["noise"]
        spec["dataset"] = {
            "train_csv": str(data_dir / "train.csv"),
            "id_test_csv": str(data_dir / "test_id.csv"),
            "ood_csvs": [str(average)],
        }
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert main(["experiment", "--spec", str(spec_path), "--out", str(out)]) == 2
        message = f"error: {spec_path}: ood_csvs name a report 'average', the name of the average row\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_spec_validation(self, tmp_path):
        # The runner plans the spec before it writes anything, and every
        # error starts with the spec_file it was given.
        one = {"methods": [{"name": "a"}], "seeds": [0]}
        # A complete dataset file set whose two OOD files share a stem.
        twins = {
            "train_csv": str(tmp_path / "train.csv"),
            "id_test_csv": str(tmp_path / "test_id.csv"),
            "ood_csvs": [str(tmp_path / d / "ood_x.csv") for d in ("a", "b")],
        }
        for file in [twins["train_csv"], twins["id_test_csv"], *twins["ood_csvs"]]:
            Path(file).parent.mkdir(exist_ok=True)
            Path(file).write_text("")
        files = dict(twins, ood_csvs=twins["ood_csvs"][:1])
        cases = [
            ({"methods": [], "seeds": [0]}, "at least one method"),
            ({"methods": [{"name": "a"}, {"name": "a"}], "seeds": [0]}, "unique name"),
            ({"methods": [{"name": "a", "score": "zzz"}], "seeds": [0]}, "unknown score kind"),
            (dict(one, surprise=1), "surprise"),
            (dict(one, noise={"rat": 0.4}), "unknown noise keys: rat"),
            # Every evaluation is at 95% TPR, so a spec has no eval section.
            (dict(one, eval={"tpr": 0.95}), "unknown spec keys: eval"),
            (dict(one, seeds=[0, 0]), "distinct integers"),
            (dict(one, seeds=[1.7]), "distinct integers"),
            (dict(one, methods=["a"]), "each method must be objects"),
            (dict(one, noise=0.4), "must be objects"),
            (dict(one, seeds=0), "must be JSON lists"),
            (dict(one, dataset={"noise_rate": 0.4}), "belongs in noise.rate"),
            (dict(one, train={"seed": 3}), "belong in seeds"),
            (dict(one, methods=[{"name": "../../escape"}]), "one path component"),
            (dict(one, methods=[{"name": "a/b"}]), "one path component"),
            (dict(one, methods=[{"name": "a\\b"}]), "one path component"),
            (dict(one, methods=[{"name": ".."}]), "one path component"),
            (dict(one, methods=[{"name": "."}]), "one path component"),
            (dict(one, methods=[{"name": ""}]), "one path component"),
            (dict(one, methods=[{"name": ["a"]}]), "one path component"),
            (dict(one, methods=[{"loss_kind": "ce"}]), "one path component"),
            (dict(one, methods=[{"name": "a", "k": 0}]), "integer k >= 1"),
            (dict(one, methods=[{"name": "a", "k": 2.5}]), "method 'a': k must be an integer, got 2.5"),
            # The output directory is --out alone; run_experiment ignored this one.
            (dict(one, out="sweep"), "unknown spec keys: out"),
            # NumPy's SeedSequence refused it inside the cell.
            (dict(one, seeds=[-1]), "method 'a': invalid config: seed must be >= 0, got -1"),
            (dict(one, dataset=twins), "ood_csvs share a report name: ood_x"),
            # The train section and each method's config are built here too,
            # so none of these fails only inside the cells.
            (dict(one, train={"epoch": 2}), "method 'a': unknown config keys: epoch"),
            (dict(one, train={"epochs": -1}), "method 'a': invalid config: epochs must be >= 0"),
            (dict(one, train={"t_diag_init": "fast"}),
             "method 'a': invalid config: t_diag_init must be a number, got 'fast'"),
            (dict(one, train={"epochs": True}), "epochs must be an integer, got True"),
            (dict(one, train={"normalize": False}), "method 'a': unknown config keys: normalize"),
            (dict(one, noise={"rate": "0.4"}), "noise.rate must be a number, got '0.4'"),
            (dict(one, noise={"rate": True}), "noise.rate must be a number, got True"),
            (dict(one, methods=[{"name": "a", "loss_kind": "bogus"}]), "loss_kind must be one of"),
            (dict(one, methods=[{"name": "a", "lambda": -1.0}]), "lambda must be >= 0, got -1.0"),
            (dict(one, methods=[{"name": "a", "lambda": None}]), "method 'a': .*lambda must be a number"),
            (dict(one, dataset=dict(files, train_csv=5)), "dataset file must be a path string, got 5"),
            (dict(one, dataset=dict(files, id_test_csv=5)), "dataset file must be a path string, got 5"),
            (dict(one, dataset=dict(files, ood_csvs=[5])), "dataset file must be a path string, got 5"),
            (dict(one, dataset=dict(files, ood_csvs=files["ood_csvs"][0])), "must be a non-empty list"),
            (dict(one, dataset=dict(files, ood_csvs=[])), "must be a non-empty list"),
            (dict(one, dataset=dict(files, classes=10, dim=99)), "classes, dim would be ignored"),
            (dict(one, dataset=files, noise={"rate": 0.9}), "so noise would be ignored"),
            (dict(one, methods=[{"name": "a", "scor": "knn"}]), "method 'a': unknown method keys: scor"),
            # Both keys are optional, but present they must name this format.
            (dict(one, format="noodle-mlp"), "format must be 'noodle-experiment', got 'noodle-mlp'"),
            (dict(one, version=7), "version must be 1, got 7"),
            (dict(one, version=True), "version must be 1, got True"),
            # The mixture's own ranges are DataSpec's, so the planner rejects them.
            (dict(one, dataset={"classes": 1}), "classes must be >= 2, got 1"),
            (dict(one, dataset={"dim": 0}), "dim must be >= 1, got 0"),
            (dict(one, dataset={"separation": 0}), "separation must be a finite number > 0, got 0"),
            (dict(one, dataset={"spread": -1}), "spread must be a finite number > 0, got -1"),
        ]
        path = tmp_path / "bad.json"
        for spec, message in cases:
            with pytest.raises(ValueError, match=message) as err:
                run_experiment(spec, str(path), tmp_path / "out", 1)
            assert str(err.value).startswith(f"{path}: "), str(err.value)
            with pytest.raises(ValueError, match=message) as err:
                run_experiment(spec, path.name, tmp_path / "out", 1)
            assert str(err.value).startswith("bad.json: "), str(err.value)
        assert not (tmp_path / "out").exists()

    def test_late_failures_exit_2_before_any_write(self, tmp_path, capsys):
        # Unchecked, each of these fails only after writing: an escaping name
        # writes outside runs/, k=0 and tpr=0 fail every trained cell (an eval
        # section is now an unknown key), and out=5 was a TypeError traceback
        # once the output directory was chosen (a spec names no output
        # directory now).
        bad = [
            {"methods": [{"name": "../escape"}], "seeds": [0]},
            {"methods": [{"name": "a", "k": 0}], "seeds": [0]},
            {"methods": [{"name": "a"}], "seeds": [0], "eval": {"tpr": 0.0}},
            {"methods": [{"name": "a"}], "seeds": [0], "dataset": {"classes": "3"}},
            {"methods": [{"name": "a"}], "seeds": [0], "dataset": {"classes": 3, "dim": 1}},
            {"methods": [{"name": "a"}], "seeds": [0], "dataset": {"separation": 10**400}},
            {"methods": [{"name": "a"}], "seeds": [0], "out": 5},
        ]
        path = tmp_path / "spec.json"
        for spec in bad:
            path.write_text(json.dumps(spec))
            assert main(["experiment", "--spec", str(path), "--out", str(tmp_path / "o" / "i")]) == 2
        assert capsys.readouterr().err.endswith(f"error: {path}: unknown spec keys: out\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    def test_generator_errors_come_from_the_planner(self, tmp_path):
        # These failed only in the runner's data generation, without the spec's name.
        path = tmp_path / "spec.json"
        for section, message in (
            ({"dataset": {"classes": "3"}}, "classes must be an integer, got '3'"),
            ({"dataset": {"ood_size": 0}}, "ood_size must be >= 1, got 0"),
            ({"dataset": {"ood_modes": []}}, "need one or more distinct OOD modes, got none"),
            ({"noise": {"rate": 1.5}}, "noise rate must be in [0, 1], got 1.5"),
            ({"dataset": {"classes": 3, "dim": 1}},
             "classes must be <= 2 in dim 1 (two unit directions), got 3"),
            # An int too large for a float was an OverflowError traceback.
            ({"dataset": {"separation": 10**400}}, f"separation must be a finite number, got {10**400}"),
        ):
            spec = {"methods": [{"name": "a"}], "seeds": [0], **section}
            with pytest.raises(ValueError) as err:
                run_experiment(spec, str(path), tmp_path / "out", 1)
            assert str(err.value) == f"{path}: {message}"
            with pytest.raises(ValueError) as err:
                plan_experiment(spec, "spec.json")
            assert str(err.value) == f"spec.json: {message}"

    def test_a_sweep_plans_its_spec_once(self, tmp_path, monkeypatch):
        # The command planned the spec to check it, then the runner again.
        plans = []

        def counted(spec, source):
            plans.append(source)
            return plan_experiment(spec, source)

        monkeypatch.setattr("noodle.cli.plan_experiment", counted)
        solo = {"name": "solo", "loss_kind": "ce", "lambda": 0.0, "score": "knn", "k": 10}
        spec_path, _ = _experiment_spec(tmp_path, methods=[solo])
        assert main(["experiment", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 0
        assert plans == [str(spec_path)]
        assert read_json(tmp_path / "out" / "comparison.json")["spec_file"] == "experiment.json"

    def test_an_eval_section_and_a_tpr_flag_exit_2(self, tmp_path, data_dir, run_dir, capsys):
        # Every evaluation is at 95% TPR, the rate its fpr95 label names.
        spec_path, spec = _experiment_spec(tmp_path)
        spec_path.write_text(json.dumps(dict(spec, eval={"tpr": 0.95})))
        out = tmp_path / "out"
        assert main(["experiment", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {spec_path}: unknown spec keys: eval\n"
        command = (
            f"eval --checkpoint {run_dir}/checkpoint.json --id-test {data_dir}/test_id.csv "
            f"--ood {data_dir}/ood_far_cluster.csv --out {out} --tpr 0.9"
        )
        with pytest.raises(SystemExit) as exc:
            main(command.split())
        assert exc.value.code == 2
        assert "unrecognized arguments: --tpr 0.9" in capsys.readouterr().err
        assert not out.exists()

    def test_every_spec_error_starts_with_the_spec_path(self, tmp_path, capsys):
        # The planner's errors, a missing dataset file and the data
        # generation's refusal, for a spec below the working directory.
        path = tmp_path / "specs" / "spec.json"
        path.parent.mkdir()
        out = tmp_path / "out"
        for section, message in (
            ({"train": {"epoch": 2}}, "method 'a': unknown config keys: epoch"),
            ({"dataset": {"train_csv": str(tmp_path / "gone.csv")}}, f"dataset file missing: {tmp_path}/gone.csv"),
            ({"dataset": {"per_class": 10**12}}, "the file set does not fit in memory: "),
        ):
            path.write_text(json.dumps({"methods": [{"name": "a"}], "seeds": [0], **section}))
            assert main(["experiment", "--spec", str(path), "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
            assert not out.exists()

    def test_missing_dataset_file_exits_2(self, tmp_path, capsys):
        spec = {
            "methods": [{"name": "a"}],
            "seeds": [0],
            "dataset": {"train_csv": str(tmp_path / "gone.csv"), "id_test_csv": str(tmp_path)},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["experiment", "--spec", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "dataset file missing" in capsys.readouterr().err

    def test_partial_dataset_file_set_exits_2_naming_the_missing_keys(self, tmp_path, capsys):
        train_csv = tmp_path / "train.csv"
        train_csv.write_text("")
        spec = {"methods": [{"name": "a"}], "seeds": [0], "dataset": {"train_csv": str(train_csv)}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["experiment", "--spec", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "but not id_test_csv, ood_csvs" in capsys.readouterr().err

    def test_threads_below_one_exits_2(self, tmp_path, capsys):
        spec_path, _ = _experiment_spec(tmp_path)
        out = tmp_path / "out"
        argv = ["experiment", "--spec", str(spec_path), "--out", str(out)]
        assert main([*argv, "--threads", "0"]) == 2
        assert capsys.readouterr().err == "error: threads must be at least 1, got 0\n"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--threads", "two"])
        assert exc.value.code == 2
        assert "argument --threads: invalid int value: 'two'" in capsys.readouterr().err
        assert not out.exists()


class TestOutputResolution:
    @pytest.mark.parametrize(
        "command",
        [
            "gen-data",
            "train --data train.csv",
            "eval --checkpoint checkpoint.json --id-test test_id.csv --ood ood.csv",
            "experiment --spec spec.json",
        ],
        ids=lambda command: command.split()[0],
    )
    def test_no_out_exits_2_and_writes_nothing(self, command, tmp_path, monkeypatch, capsys):
        # --out is the one source of the output directory.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(command.split())
        assert exc.value.code == 2
        assert "the following arguments are required: --out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_key_error_inside_a_command_is_not_a_usage_error(tmp_path, monkeypatch):
    # Every outside key is looked up through require_keys, .get or a planner
    # check, so a KeyError is a fault in the program: a traceback, not exit 2.
    def broken(*args, **kwargs):
        raise KeyError("x")

    monkeypatch.setattr("noodle.cli.generate_dataset_files", broken)
    with pytest.raises(KeyError, match="'x'"):
        main(["gen-data", "--out", str(tmp_path / "out")])


def test_console_script_smoke(tmp_path):
    # The installed entry point when there is one, else the module it runs,
    # with the package's own source root on the child's import path.
    if shutil.which("noodle") is not None:
        command = ["noodle"]
    else:
        command = [sys.executable, "-m", "noodle.cli"]
    import_path = [str(Path(noodle.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, import_path))}

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [*command, *args], capture_output=True, text=True, timeout=120, env=env
        )

    result = run(
        "gen-data",
        "--out", str(tmp_path),
        "--classes", "3",
        "--per-class", "5",
        "--dim", "4",
        "--val-per-class", "2",
        "--test-per-class", "2",
        "--ood-size", "5",
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "train.csv").exists()
    # 15 rows at batch 7 leave a final batch of 1 column against rank 3 (the class count): the
    # split clamps without a word on stderr (in-process warnings never reach capsys).
    (tmp_path / "config.json").write_text('{"epochs": 2, "batch_size": 7}')
    result = run(
        "train",
        "--data", str(tmp_path / "train.csv"),
        "--config", str(tmp_path / "config.json"),
        "--out", str(tmp_path / "run"),
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    result = run(
        "eval",
        "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
        "--id-test", str(tmp_path / "test_id.csv"),
        "--ood", str(tmp_path / "ood_far_cluster.csv"),
        "--k", "3",
        "--out", str(tmp_path / "eval"),
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
