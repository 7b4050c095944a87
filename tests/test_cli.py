"""End-to-end command line pipeline and its failure modes."""

import json

import numpy as np
import pytest

from framerec.cli import run


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


class TestPipeline:
    def test_synth_writes_dataset_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, stdout, _ = call(capsys, "synth", "--out", str(out), *SMALL_SYNTH)
        assert code == 0
        for name in ("ratings.tsv", "frames.tsv", "features.tsv",
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
        assert (run_dir / "checkpoint.json").exists()
        assert (run_dir / "train_log.tsv").exists()
        assert "trained 2 epochs" in stdout

        eval_dir = pipeline_dirs / "eval"
        code, stdout, _ = call(capsys, "eval-items", "--data", split_dir,
                               "--checkpoint", str(run_dir / "checkpoint.json"),
                               "--out", str(eval_dir),
                               "--k", "1,5", "--negatives", "10", "--repeats", "2")
        assert code == 0
        assert stdout.startswith("K\tHR\tNDCG")
        report = json.loads((eval_dir / "item_eval.json").read_text())
        assert report["k_list"] == [1, 5]
        assert 0.0 <= report["hr"]["5"] <= 1.0

        code, stdout, _ = call(capsys, "eval-frames", "--data", split_dir,
                               "--checkpoint", str(run_dir / "checkpoint.json"),
                               "--out", str(eval_dir), "--with-baseline")
        assert code == 0
        assert (eval_dir / "frame_eval.json").exists()
        assert (eval_dir / "frame_baseline.json").exists()

    def test_dimension_shorthand_sets_both_factors(self, pipeline_dirs, capsys):
        split_dir = str(pipeline_dirs / "split")
        run_dir = pipeline_dirs / "run_d"
        code, _, _ = call(capsys, "train", "--data", split_dir, "--out", str(run_dir),
                          "--d", "4", "--attn-hidden-visual", "4",
                          "--attn-hidden-rating", "4", "--reduced-dim", "4",
                          *SMALL_TRAIN)
        assert code == 0
        doc = json.loads((run_dir / "checkpoint.json").read_text())
        assert doc["config"]["d1"] == 4 and doc["config"]["d2"] == 4

    def test_off_mode_checkpoint_cannot_eval_frames(self, pipeline_dirs, capsys):
        split_dir = str(pipeline_dirs / "split")
        run_dir = pipeline_dirs / "run_off"
        code, _, _ = call(capsys, "train", "--data", split_dir, "--out", str(run_dir),
                          "--visual", "off", "--fusion", "sum",
                          *SMALL_MODEL, *SMALL_TRAIN)
        assert code == 0
        code, _, err = call(capsys, "eval-frames", "--data", split_dir,
                            "--checkpoint", str(run_dir / "checkpoint.json"),
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
                            "--checkpoint", str(run_dir / "checkpoint.json"),
                            "--out", str(tmp_path / "ev2"))
        assert code == 1
        assert "different dataset" in err


class TestBadCounts:
    """Negative counts below one end in a one-line error, not a traceback."""

    @pytest.fixture
    def trained(self, pipeline_dirs, capsys):
        run_dir = pipeline_dirs / "run"
        code, _, _ = call(capsys, "train", "--data", str(pipeline_dirs / "split"),
                          "--out", str(run_dir), *SMALL_MODEL, *SMALL_TRAIN)
        assert code == 0
        return pipeline_dirs

    def eval_items(self, capsys, root, negatives):
        return call(capsys, "eval-items", "--data", str(root / "split"),
                    "--checkpoint", str(root / "run" / "checkpoint.json"),
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
        (bad / "features.tsv").write_text("f1\t1.0\n", encoding="utf-8")
        code, _, err = call(capsys, "split", "--data", str(bad),
                            "--out", str(tmp_path / "o"))
        assert code == 1
        assert "ratings.tsv:2" in err

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["synth"])
        assert exc.value.code == 2


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
