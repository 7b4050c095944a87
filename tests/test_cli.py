"""End-to-end command line pipeline and its failure modes."""

import argparse
import inspect
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import read_members, write_members
from framerec import cli
from framerec.cli import _config, _dest, build_parser, run
from framerec.data import split_ratings
from framerec.errors import ConfigError, check_seed
from framerec.evaluation import (ITEM_SPLITS, evaluate_frame_rec, evaluate_item_rec,
                                 random_frame_baseline)
from framerec.model import ModelConfig
from framerec.synth import SynthConfig
from framerec.training import TrainConfig, finite_diff_check, gradcheck_instance


def call(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL_SYNTH = ["--users", "20", "--items", "30", "--ratings-per-user", "6",
               "--feature-dim", "8", "--latent-dim", "4", "--seed", "3"]
SMALL_MODEL = ["--d1", "4", "--d2", "4", "--attn-hidden-visual", "4",
               "--attn-hidden-rating", "4", "--reduced-dim", "4"]
SMALL_TRAIN = ["--epochs", "2", "--batch-size", "128", "--neg-ratio", "2",
               "--valid-negatives", "10", "--lr", "0.01"]


@pytest.fixture
def pipeline_dirs(tmp_path, capsys):
    data, split = tmp_path / "data", tmp_path / "split"
    code, _, _ = call(capsys, "synth", "--out", str(data), *SMALL_SYNTH)
    assert code == 0
    code, _, _ = call(capsys, "split", "--data", str(data), "--out", str(split),
                      "--seed", "1")
    assert code == 0
    return tmp_path


@pytest.fixture
def trained(pipeline_dirs, capsys):
    run_dir = pipeline_dirs / "run"
    code, _, _ = call(capsys, "train", "--data", str(pipeline_dirs / "split"),
                      "--out", str(run_dir), *SMALL_MODEL, *SMALL_TRAIN)
    assert code == 0
    return pipeline_dirs


class TestPipeline:
    def test_synth_writes_dataset_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, stdout, _ = call(capsys, "synth", "--out", str(out), *SMALL_SYNTH)
        assert code == 0
        for name in ("ratings.tsv", "frames.tsv", "features.npy",
                     "frame_likes.tsv", "run.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["parameters"]["users"] == 20
        assert "20 users" in stdout

    def test_split_reports_counts(self, pipeline_dirs, capsys):
        split_dir = pipeline_dirs / "split"
        for name in ("train.tsv", "valid.tsv", "test.tsv", "frame_test.tsv"):
            assert (split_dir / name).exists()
        # 120 ratings at 70/10: 84 train, 12 valid, 24 test
        train = (split_dir / "train.tsv").read_text().strip().splitlines()
        valid = (split_dir / "valid.tsv").read_text().strip().splitlines()
        test = (split_dir / "test.tsv").read_text().strip().splitlines()
        assert (len(train), len(valid), len(test)) == (84, 12, 24)

    def test_train_eval_round(self, pipeline_dirs, capsys):
        split_dir = str(pipeline_dirs / "split")
        run_dir = pipeline_dirs / "run"
        code, stdout, _ = call(capsys, "train", "--data", split_dir,
                               "--out", str(run_dir), *SMALL_MODEL, *SMALL_TRAIN)
        assert code == 0
        assert (run_dir / "checkpoint.npz").exists()
        assert (run_dir / "train_log.tsv").exists()
        assert "trained 2 epochs" in stdout

        eval_dir = pipeline_dirs / "eval"
        code, stdout, _ = call(capsys, "eval-items", "--data", split_dir,
                               "--checkpoint", str(run_dir / "checkpoint.npz"),
                               "--out", str(eval_dir),
                               "--k", "1,5", "--negatives", "10", "--repeats", "2")
        assert code == 0
        assert stdout.startswith("K\tHR\tNDCG")
        report = json.loads((eval_dir / "item_eval.json").read_text())
        assert report["k_list"] == [1, 5]
        assert 0.0 <= report["hr"]["5"] <= 1.0

        code, stdout, _ = call(capsys, "eval-frames", "--data", split_dir,
                               "--checkpoint", str(run_dir / "checkpoint.npz"),
                               "--out", str(eval_dir), "--with-baseline")
        assert code == 0
        assert (eval_dir / "frame_eval.json").exists()
        assert (eval_dir / "frame_baseline.json").exists()

    def test_off_mode_checkpoint_cannot_eval_frames(self, pipeline_dirs, capsys):
        split_dir = str(pipeline_dirs / "split")
        run_dir = pipeline_dirs / "run_off"
        code, _, _ = call(capsys, "train", "--data", split_dir, "--out", str(run_dir),
                          "--visual", "off", "--fusion", "sum",
                          *SMALL_MODEL, *SMALL_TRAIN)
        assert code == 0
        code, _, err = call(capsys, "eval-frames", "--data", split_dir,
                            "--checkpoint", str(run_dir / "checkpoint.npz"),
                            "--out", str(pipeline_dirs / "ev"))
        assert code == 1
        assert err.startswith("error:")

    def test_checkpoint_guards_against_other_datasets(self, pipeline_dirs,
                                                      tmp_path, capsys):
        split_dir = str(pipeline_dirs / "split")
        run_dir = pipeline_dirs / "run_g"
        code, _, _ = call(capsys, "train", "--data", split_dir, "--out", str(run_dir),
                          *SMALL_MODEL, *SMALL_TRAIN)
        assert code == 0
        other_data = tmp_path / "other_data"
        other_split = tmp_path / "other_split"
        call(capsys, "synth", "--out", str(other_data), "--users", "21", "--items",
             "30", "--seed", "3", "--feature-dim", "8")
        call(capsys, "split", "--data", str(other_data), "--out", str(other_split),
             "--seed", "1")
        code, _, err = call(capsys, "eval-items", "--data", str(other_split),
                            "--checkpoint", str(run_dir / "checkpoint.npz"),
                            "--out", str(tmp_path / "ev2"))
        assert code == 1
        assert "different dataset" in err


class TestBadCounts:
    """Bad counts, fractions, step sizes and checkpoints end in a one-line error."""

    def eval_items(self, capsys, root, negatives):
        return call(capsys, "eval-items", "--data", str(root / "split"),
                    "--checkpoint", str(root / "run" / "checkpoint.npz"),
                    "--out", str(root / "ev"), "--negatives", negatives)

    def test_negative_eval_negatives(self, trained, capsys):
        code, _, err = self.eval_items(capsys, trained, "-1")
        assert code == 1
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_zero_eval_negatives(self, trained, capsys):
        code, _, err = self.eval_items(capsys, trained, "0")
        assert code == 1
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_zero_valid_negatives(self, pipeline_dirs, capsys):
        code, _, err = call(capsys, "train", "--data", str(pipeline_dirs / "split"),
                            "--out", str(pipeline_dirs / "run0"), *SMALL_MODEL,
                            *SMALL_TRAIN, "--valid-negatives", "0")
        assert code == 1
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_nan_learning_rate(self, pipeline_dirs, capsys):
        code, _, err = call(capsys, "train", "--data", str(pipeline_dirs / "split"),
                            "--out", str(pipeline_dirs / "run0"), *SMALL_MODEL,
                            *SMALL_TRAIN, "--lr", "nan")
        assert code == 1
        assert err.startswith("error: lr must be finite")
        assert len(err.strip().splitlines()) == 1

    def test_diverging_train_ends_in_one_line(self, pipeline_dirs, capsys):
        # one batch per epoch, so the first non-finite score is validation's
        code, _, err = call(capsys, "train", "--data", str(pipeline_dirs / "split"),
                            "--out", str(pipeline_dirs / "run0"), *SMALL_MODEL,
                            *SMALL_TRAIN, "--lr", "1e200", "--epochs", "1",
                            "--batch-size", "1024")
        assert code == 1
        assert err.startswith("error: training diverged at epoch 1: item evaluation: ")
        assert len(err.strip().splitlines()) == 1 and "RuntimeWarning" not in err

    def test_malformed_features_file(self, pipeline_dirs, capsys):
        data = pipeline_dirs / "data"
        (data / "features.npy").write_bytes((data / "features.npy").read_bytes()[:-8])
        code, _, err = call(capsys, "split", "--data", str(data),
                            "--out", str(pipeline_dirs / "split2"))
        assert code == 1
        assert err.startswith("error: ") and "features.npy: not a .npy array" in err
        assert len(err.strip().splitlines()) == 1

    def test_split_fractions_over_one(self, pipeline_dirs, capsys):
        code, _, err = call(capsys, "split", "--data", str(pipeline_dirs / "data"),
                            "--out", str(pipeline_dirs / "split2"),
                            "--train-frac", "0.95", "--valid-frac", "0.1")
        assert code == 1
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_zero_gradcheck_step(self, capsys):
        code, _, err = call(capsys, "gradcheck", "--h", "0")
        assert code == 1
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag,value", [("--h", "nan"), ("--max-coords", "0"),
                                            ("--max-coords", "-1")])
    def test_gradcheck_that_checks_nothing(self, capsys, flag, value):
        code, _, err = call(capsys, "gradcheck", "--modes", "off:sum", flag, value)
        assert code == 1
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_negative_min_count(self, pipeline_dirs, capsys):
        code, _, err = call(capsys, "split", "--data", str(pipeline_dirs / "data"),
                            "--out", str(pipeline_dirs / "split2"), "--min-count", "-3")
        assert code == 1
        assert err.startswith("error: min_count must be >= 1")
        assert len(err.strip().splitlines()) == 1

    def test_duplicate_cutoffs(self, trained, capsys):
        code, _, err = call(capsys, "eval-items", "--data", str(trained / "split"),
                            "--checkpoint", str(trained / "run" / "checkpoint.npz"),
                            "--out", str(trained / "ev"), "--k", "5,5")
        assert code == 1
        assert "distinct" in err and len(err.strip().splitlines()) == 1
        assert not (trained / "ev" / "item_eval.tsv").exists()

    def test_truncated_checkpoint(self, trained, capsys):
        ck = trained / "run" / "checkpoint.npz"
        ck.write_bytes(ck.read_bytes()[:1000])
        code, _, err = self.eval_items(capsys, trained, "10")
        assert code == 1
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("case", ["empty", "random_bytes", "bare_npy", "pickled_member",
                                      "v3_json"])
    def test_unreadable_checkpoint(self, trained, capsys, case):
        ck = trained / "run" / "checkpoint.npz"
        if case == "empty":
            ck.write_bytes(b"")
        elif case == "random_bytes":
            ck.write_bytes(np.random.default_rng(0).bytes(4096))
        elif case == "bare_npy":
            with open(ck, "wb") as fh:
                np.save(fh, np.zeros((3, 4)))
        elif case == "pickled_member":
            members = read_members(ck)
            members["attn_out"] = np.array([object()] * len(members["attn_out"]))
            write_members(ck, members)
        elif case == "v3_json":
            ck.write_text('{"format": "framerec-checkpoint-v3", "params": {}}\n')
        code, _, err = self.eval_items(capsys, trained, "10")
        assert code == 1
        assert err.startswith(f"error: {ck}: ") and len(err.strip().splitlines()) == 1
        if case == "v3_json":
            assert "JSON checkpoint (v3 or older)" in err

    def test_checkpoint_with_a_user_too_few(self, trained, capsys):
        # consistent in itself and with the dataset digest, one user short
        ck = trained / "run" / "checkpoint.npz"
        members = read_members(ck)
        for name in ("user_collab", "user_visual"):
            members[name] = members[name][1:]
        write_members(ck, members)
        code, _, err = self.eval_items(capsys, trained, "10")
        assert code == 1
        assert "(users, items, feature dim)" in err and len(err.strip().splitlines()) == 1


def command_argv(command, root):
    """Every flag but --out for a small run of ``command`` on ``trained``'s directories."""
    split, checkpoint = str(root / "split"), str(root / "run" / "checkpoint.npz")
    return {
        "synth": ["synth", *SMALL_SYNTH],
        "split": ["split", "--data", str(root / "data"), "--seed", "1"],
        "train": ["train", "--data", split, *SMALL_MODEL, *SMALL_TRAIN],
        "eval-items": ["eval-items", "--data", split, "--checkpoint", checkpoint,
                       "--negatives", "10", "--repeats", "1"],
        "eval-frames": ["eval-frames", "--data", split, "--checkpoint", checkpoint,
                        "--with-baseline"],
        "ablate": ["ablate", "--data", split, *SMALL_MODEL, "--epochs", "1",
                   "--batch-size", "128", "--neg-ratio", "1", "--valid-negatives", "5",
                   "--negatives", "10", "--repeats", "1"],
    }[command]


class TestRunner:
    """``run`` writes a command's run.json after it succeeds; a failed command writes nothing."""

    @pytest.mark.parametrize("command", ["synth", "split", "train", "eval-items",
                                         "eval-frames", "ablate"])
    def test_each_command_writes_its_own_manifest(self, trained, capsys, command):
        out = trained / "runs" / command  # neither directory exists yet
        code, _, _ = call(capsys, *command_argv(command, trained), "--out", str(out))
        assert code == 0
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["command"] == command
        assert manifest["parameters"]["out"] == str(out)

    @pytest.mark.parametrize("command,flags", [
        ("eval-items", ["--k", "0"]),
        ("split", ["--data", "{root}/missing"]),
    ])
    def test_failed_command_leaves_no_out_directory(self, trained, capsys, command, flags):
        out = trained / "failed"
        flags = [f.format(root=trained) for f in flags]
        code, _, err = call(capsys, *command_argv(command, trained), *flags, "--out", str(out))
        assert code == 1
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not out.exists()


class TestErrors:
    def test_missing_data_dir(self, tmp_path, capsys):
        code, _, err = call(capsys, "split", "--data", str(tmp_path / "nope"),
                            "--out", str(tmp_path / "o"))
        assert code == 1
        assert err.startswith("error:")

    def test_malformed_file_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "ratings.tsv").write_text("u1\ti1\nbroken\n", encoding="utf-8")
        (bad / "frames.tsv").write_text("f1\ti1\n", encoding="utf-8")
        np.save(bad / "features.npy", np.ones((1, 1)))
        code, _, err = call(capsys, "split", "--data", str(bad),
                            "--out", str(tmp_path / "o"))
        assert code == 1
        assert "ratings.tsv:2" in err

    @pytest.mark.parametrize("command,flag", [
        ("synth", "--seed"), ("split", "--seed"), ("train", "--model-seed"),
        ("train", "--train-seed"), ("eval-items", "--seed"), ("eval-frames", "--seed"),
        ("gradcheck", "--seed"), ("ablate", "--seed"), ("ablate", "--model-seed"),
        ("ablate", "--train-seed"),
    ])
    def test_negative_seed_ends_in_one_line(self, trained, capsys, monkeypatch, command, flag):
        def no_fit(*args, **kwargs):
            raise AssertionError(f"{command} trained before it checked {flag}")

        monkeypatch.setattr(cli, "fit", no_fit)
        argv = (["gradcheck", "--modes", "off:sum"] if command == "gradcheck"
                else [*command_argv(command, trained), "--out", str(trained / "failed")])
        code, _, err = call(capsys, *argv, flag, "-1")
        assert code == 1
        assert err == "error: seed must be an integer >= 0, got -1\n"
        assert not (trained / "failed").exists()

    def test_every_seed_is_checked(self):
        params, cfg, dataset, batch = gradcheck_instance()
        split = split_ratings(dataset, 0.5, 0.25, seed=0)
        for make in (
            lambda seed: ModelConfig(seed=seed),
            lambda seed: TrainConfig(seed=seed),
            lambda seed: SynthConfig(seed=seed),
            lambda seed: split_ratings(dataset, 0.5, 0.25, seed=seed),
            lambda seed: evaluate_item_rec(params, cfg, split, seed=seed),
            lambda seed: random_frame_baseline(split, seed=seed),
            lambda seed: gradcheck_instance(seed=seed),
            lambda seed: finite_diff_check(params, cfg, dataset, batch, seed=seed),
        ):
            for seed in (-1, np.int64(-3), True, 2.0, "1"):
                with pytest.raises(ConfigError, match="^seed must be an integer"):
                    make(seed)

    @pytest.mark.parametrize("seed", [0, np.uint32(7), 2**64])
    def test_seeds_numpy_takes_are_accepted(self, seed):
        check_seed(seed)

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["synth"])
        assert exc.value.code == 2


def subparser(command):
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices[command]


CONFIG_COMMANDS = [("synth", SynthConfig), ("train", ModelConfig),
                   ("train", TrainConfig), ("ablate", ModelConfig),
                   ("ablate", TrainConfig)]
REQUIRED = {"synth": ["--out", "o"], "train": ["--data", "d", "--out", "o"],
            "ablate": ["--data", "d", "--out", "o"]}


class TestConfigFlags:
    """The synth, train and ablate flags are the config dataclasses' fields."""

    def test_required_flags_alone_give_default_configs(self):
        args = build_parser().parse_args(["train", *REQUIRED["train"]])
        assert _config(ModelConfig, args) == ModelConfig()
        assert _config(TrainConfig, args) == TrainConfig()
        args = build_parser().parse_args(["synth", *REQUIRED["synth"]])
        assert _config(SynthConfig, args) == SynthConfig()

    @pytest.mark.parametrize("command,cls", CONFIG_COMMANDS,
                             ids=[f"{c}-{k.__name__}" for c, k in CONFIG_COMMANDS])
    def test_every_field_has_one_flag_that_sets_it(self, command, cls):
        actions = subparser(command)._actions
        # fusion "sum" lets d1 and d2 differ; it is set for every other model field
        base = ["--fusion", "sum"] if cls is ModelConfig else []
        for f in fields(cls):
            matching = [a for a in actions if a.dest == _dest(cls, f.name)]
            assert len(matching) == 1 and len(matching[0].option_strings) == 1, f.name
            flag = matching[0].option_strings[0]
            if matching[0].choices:
                value = next(c for c in matching[0].choices if c != f.default)
            else:
                value = f.default + 1 if isinstance(f.default, int) else f.default / 2
            argv = [] if f.name == "fusion_mode" else base
            args = build_parser().parse_args(
                [command, *REQUIRED[command], *argv, flag, str(value)])
            want = _config(cls, build_parser().parse_args(
                [command, *REQUIRED[command], *argv]))
            assert _config(cls, args) == replace(want, **{f.name: value}), f.name

    def test_dimension_shorthand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data", "d", "--out", "o", "--d", "4"])
        assert exc.value.code == 2


def defaults(fn) -> dict:
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()}


class TestFunctionFlags:
    """Evaluation and gradient-check flags take their defaults and choices from the functions."""

    def test_defaults_and_choices_are_the_functions(self):
        item, check = defaults(evaluate_item_rec), defaults(finite_diff_check)
        args = build_parser().parse_args(
            ["eval-items", "--data", "d", "--checkpoint", "c", "--out", "o"])
        assert (args.k, args.negatives, args.repeats, args.seed, args.split) == (
            item["k_list"], item["n_negatives"], item["repeats"], item["seed"],
            item["split_name"])
        split_flag = next(a for a in subparser("eval-items")._actions if a.dest == "split")
        assert tuple(split_flag.choices) == ITEM_SPLITS
        args = build_parser().parse_args(
            ["eval-frames", "--data", "d", "--checkpoint", "c", "--out", "o"])
        assert args.k == defaults(evaluate_frame_rec)["k_list"]
        assert args.seed == defaults(random_frame_baseline)["seed"]
        args = build_parser().parse_args(["gradcheck"])
        assert (args.h, args.max_coords) == (check["h"], check["max_coords"])
        args = build_parser().parse_args(["ablate", *REQUIRED["ablate"]])
        assert (args.negatives, args.repeats, args.seed) == (
            item["n_negatives"], item["repeats"], item["seed"])


class TestGradcheckCommand:
    def test_passes_and_prints_all_combos(self, capsys):
        code, stdout, _ = call(capsys, "gradcheck", "--max-coords", "40")
        assert code == 0
        lines = [l for l in stdout.strip().splitlines() if "max_rel_err" in l]
        assert len(lines) == 6
        assert all(line.endswith("PASS") for line in lines)

    def test_tight_threshold_fails(self, capsys):
        code, stdout, _ = call(capsys, "gradcheck", "--max-coords", "10",
                               "--threshold", "1e-12")
        assert code == 1
        assert "FAIL" in stdout

    def test_mode_subset_selection(self, capsys):
        code, stdout, _ = call(capsys, "gradcheck", "--modes", "att:att,off:sum",
                               "--max-coords", "20")
        assert code == 0
        lines = [l for l in stdout.strip().splitlines() if "max_rel_err" in l]
        assert len(lines) == 2
        assert lines[0].startswith("visual=att fusion=att")

    def test_bad_mode_token_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["gradcheck", "--modes", "att:bogus"])
        assert exc.value.code == 2


class TestAblate:
    def test_table_covers_all_modes(self, pipeline_dirs, capsys):
        out = pipeline_dirs / "abl"
        code, stdout, _ = call(
            capsys, "ablate", "--data", str(pipeline_dirs / "split"),
            "--out", str(out), *SMALL_MODEL,
            "--epochs", "1", "--batch-size", "128", "--neg-ratio", "1",
            "--valid-negatives", "5", "--negatives", "10", "--repeats", "1",
        )
        assert code == 0
        table = (out / "ablation.tsv").read_text().strip().splitlines()
        assert len(table) == 6  # header + off/sum + four visual cells
        assert table[1].startswith("off\tsum") and "\t-\t-\t" in table[1]
        assert table[-1].startswith("att\tatt")

    @pytest.mark.parametrize("flag", ["--item-k", "--frame-k", "--negatives", "--repeats"])
    def test_bad_evaluation_flag_fails_before_training(self, pipeline_dirs, capsys,
                                                       monkeypatch, flag):
        def no_fit(*args, **kwargs):
            raise AssertionError("ablate trained before it checked its evaluation flags")

        monkeypatch.setattr(cli, "fit", no_fit)
        code, _, err = call(capsys, "ablate", "--data", str(pipeline_dirs / "split"),
                            "--out", str(pipeline_dirs / "abl"), flag, "0")
        assert code == 1
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not (pipeline_dirs / "abl").exists()
