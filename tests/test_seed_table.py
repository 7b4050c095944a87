"""tools/seed_table.py's table and comparison, on hand-made seed rows (no training)."""

import copy
import json

import pytest


def row(seed, **figures):
    """One seed's record in the shape ``one_seed`` returns."""
    r = {
        "seed": seed,
        "frame_hr3_att": 0.30 + seed / 100,
        "frame_hr3_chance": 0.18,
        "frame_hr3_over_chance": (0.30 + seed / 100) / 0.18,
        "frame_ndcg3_att": 0.25,
        "frame_ndcg3_avg": 0.19,
        "item_ndcg15_att": 0.55,
        "item_ndcg15_off": 0.25 - seed / 100,
        "epochs": {"att/att": 30 + seed, "avg/sum": 20, "off/sum": 18},
        "best_epoch": {"att/att": 20 + seed, "avg/sum": 10, "off/sum": 8},
        "clauses": {"beats_chance": True, "beats_mean": True, "beats_blind": True},
        "seconds": 3.0 + seed,
    }
    r.update(figures)
    return r


def tables(seed_table, change=lambda rows: None):
    """(before, after): the table of two rows as read back from JSON, and the
    table of the same rows after ``change``."""
    rows = [row(1), row(2)]
    before = json.loads(json.dumps(seed_table.table(rows)))
    rows = copy.deepcopy(rows)
    change(rows)
    return before, seed_table.table(rows)


def test_identical_tables_report_no_difference(seed_table):
    def rerun(rows):  # a rerun takes other wall seconds, which are not compared
        for r in rows:
            r["seconds"] += 1.5

    lines = seed_table.compare(*tables(seed_table, rerun))
    assert lines[-1] == "0 per-seed figures, epoch counts or clauses differ"
    assert not any(line.startswith("seed ") for line in lines)
    assert all(line.endswith("(+0)") for line in lines[:-1])


def test_a_changed_figure_is_named(seed_table):
    def change(rows):
        rows[1]["item_ndcg15_att"] = 0.6

    lines = seed_table.compare(*tables(seed_table, change))
    assert "seed 2 item_ndcg15_att changed: 0.55 -> 0.6" in lines
    assert lines[-1] == "1 per-seed figures, epoch counts or clauses differ"
    assert "mean item_ndcg15_att: 0.550000 -> 0.575000 (+0.025)" in lines


def test_a_changed_epoch_count_is_named(seed_table):
    def change(rows):
        rows[0]["epochs"]["avg/sum"] = 21

    lines = seed_table.compare(*tables(seed_table, change))
    assert "seed 1 epochs avg/sum changed: 20 -> 21" in lines
    assert lines[-1] == "1 per-seed figures, epoch counts or clauses differ"


def test_a_flipped_clause_is_named(seed_table):
    def change(rows):
        rows[0]["clauses"]["beats_blind"] = False

    lines = seed_table.compare(*tables(seed_table, change))
    assert "seed 1 clauses beats_blind flipped: True -> False" in lines
    assert lines[-1] == "1 per-seed figures, epoch counts or clauses differ"


def test_table_summarises_the_rows(seed_table):
    result = seed_table.table([row(1), row(2)])
    assert result["means"]["frame_hr3_att"] == pytest.approx(0.315)
    assert "seconds" not in result["means"]
    assert result["clauses_held"] == {"beats_chance": 2, "beats_mean": 2, "beats_blind": 2}
    assert result["epochs"]["att/att"]["min"] == 31 and result["epochs"]["att/att"]["max"] == 32
    paired = result["paired"]["item_ndcg15_att_minus_off"]
    assert paired["mean"] == pytest.approx(0.315)


@pytest.mark.parametrize("case", ["missing", "not JSON", "a list", "no means", "directory"])
def test_a_bad_compare_or_out_path_fails_before_the_first_seed(
        seed_table, monkeypatch, tmp_path, capsys, case):
    ran = []
    monkeypatch.setattr(seed_table, "one_seed", lambda s: ran.append(s) or row(s))
    texts = {"not JSON": "{", "a list": "[]", "no means": json.dumps({"seeds": [row(1)]})}
    before, out = tmp_path / "before.json", tmp_path / "after.json"
    if case in texts:
        before.write_text(texts[case], encoding="utf-8")
    argv = ["--seeds", "2", "--out", str(out), "--compare", str(before)]
    if case == "directory":  # and no earlier table: the out path alone fails
        argv = ["--seeds", "2", "--out", str(tmp_path / "missing" / "after.json")]
    with pytest.raises(SystemExit) as exc:
        seed_table.main(argv)
    assert exc.value.code == 2 and not ran and not out.exists()
    message = capsys.readouterr().err.splitlines()[-1]
    assert ": error: --" in message and ("--out" in message) == (case == "directory")


def test_a_good_compare_file_is_compared(seed_table, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(seed_table, "one_seed", row)
    before, out = tmp_path / "before.json", tmp_path / "after.json"
    before.write_text(json.dumps(seed_table.table([row(1), row(2)])), encoding="utf-8")
    assert seed_table.main(["--seeds", "2", "--out", str(out), "--compare", str(before)]) == 0
    assert json.loads(out.read_text(encoding="utf-8")) == json.loads(before.read_text("utf-8"))
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "0 per-seed figures, epoch counts or clauses differ"


def test_a_table_from_an_older_version_is_compared(seed_table, monkeypatch, tmp_path, capsys):
    """An earlier table whose rows lack ``best_epoch`` and whose means lack one
    figure: the figures both hold are compared, and each key that only one
    table holds is named once, after every seed has run."""
    old_rows = [row(1), row(2)]
    for r in old_rows:
        del r["best_epoch"]
    older = seed_table.table(old_rows)
    del older["means"]["frame_hr3_chance"]
    older["epochs"]["mean/sum"] = older["epochs"]["avg/sum"]
    before, out = tmp_path / "before.json", tmp_path / "after.json"
    before.write_text(json.dumps(older), encoding="utf-8")
    monkeypatch.setattr(seed_table, "one_seed", row)
    assert seed_table.main(["--seeds", "2", "--out", str(out), "--compare", str(before)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "0 per-seed figures, epoch counts or clauses differ"
    only = [line for line in lines if "only in the" in line]
    assert only == ["seed rows' best_epoch: only in the later table",
                    "means frame_hr3_chance: only in the later table",
                    "epochs mean/sum: only in the earlier table"]
    assert "mean frame_hr3_att: 0.315000 -> 0.315000 (+0)" in lines
    assert not any(line.startswith("mean frame_hr3_chance") for line in lines)


def test_a_sub_key_only_one_table_holds_is_named(seed_table):
    def change(rows):
        for r in rows:
            r["clauses"]["beats_random"] = True

    lines = seed_table.compare(*tables(seed_table, change))
    assert "seed rows' clauses beats_random: only in the later table" in lines
    assert lines[-1] == "0 per-seed figures, epoch counts or clauses differ"


def test_the_table_records_its_environment(seed_table):
    env = seed_table.table([row(1)])["environment"]
    assert set(env) == {"blas_pinned", "cpus", "numpy"}
    assert isinstance(env["blas_pinned"], bool) and env["cpus"] >= 1


@pytest.mark.parametrize("case", ["other CPUs", "an older table"])
def test_a_changed_environment_is_one_uncounted_line(seed_table, case):
    before, after = tables(seed_table)
    if case == "other CPUs":
        before["environment"]["cpus"] = after["environment"]["cpus"] + 3
    else:
        del before["environment"]
    lines = seed_table.compare(before, after)
    named = [line for line in lines if line.startswith("environment differs: ")]
    assert named == [f"environment differs: {before.get('environment')} -> "
                     f"{after['environment']}"]
    assert lines[-1] == "0 per-seed figures, epoch counts or clauses differ"
    assert not any("environment" in line for line in lines if line not in named)
