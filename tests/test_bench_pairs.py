"""tools/bench_pairs.py's verdicts, on hand-made run results (no benchmark runs)."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(step_s, setup_s=0.2, peak_rss_mb=80.0, correct=True, failed=0):
    """One run's last output line, as ``perfbench/run.py --workload all`` prints it."""
    figures = {"setup_s": (setup_s, "s"), "step_s": (step_s, "s"),
               "peak_rss_mb": (peak_rss_mb, "MB")}
    return {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {f"m_train.{k}": {"value": v, "unit": u} for k, (v, u) in figures.items()}}


def pairs_of(parent_steps, change_steps, **change):
    return [(result(p), result(c, **change)) for p, c in zip(parent_steps, change_steps)]


def verdicts(bench_pairs, pairs) -> dict:
    return {r["metric"]: r for r in bench_pairs.summary(pairs, END_TO_END)}


PARENT = [0.50, 0.51, 0.52, 0.50, 0.51, 0.52, 0.50, 0.51, 0.52, 0.51]  # quartiles 0.50-0.52


def test_nine_wins_with_a_wide_gap_are_claimable(bench_pairs):
    change = [0.45] * 9 + [0.53]
    rows = verdicts(bench_pairs, pairs_of(PARENT, change))
    step = rows["m_train.step_s"]
    assert (step["wins"], step["pairs"], step["verdict"]) == (9, 10, "claimable")
    assert step["parent"] == pytest.approx((0.50, 0.51, 0.52))
    assert step["change"][1] == 0.45
    # equal set-up times tie in every pair: no wins, nothing to claim, nothing worse
    assert (rows["m_train.setup_s"]["wins"], rows["m_train.setup_s"]["verdict"]) == (0, "held")
    line = next(x for x in bench_pairs.report(list(rows.values())) if "step_s" in x)
    assert line.endswith("-11.8%, change won 9/10: claimable")


def test_eight_wins_are_not_claimable(bench_pairs):
    change = [0.45] * 8 + [0.53, 0.53]
    step = verdicts(bench_pairs, pairs_of(PARENT, change))["m_train.step_s"]
    assert (step["wins"], step["verdict"]) == (8, "held")


def test_a_gap_inside_the_parent_spread_is_not_claimable(bench_pairs):
    change = [p - 0.001 for p in PARENT]  # wins every pair, by less than the 0.02 s IQR
    step = verdicts(bench_pairs, pairs_of(PARENT, change))["m_train.step_s"]
    assert (step["wins"], step["verdict"]) == (10, "held")


def test_fewer_than_ten_pairs_are_not_claimable(bench_pairs):
    step = verdicts(bench_pairs, pairs_of(PARENT[:9], [0.40] * 9))["m_train.step_s"]
    assert (step["wins"], step["verdict"]) == (9, "held")


def test_a_metric_over_its_bound_regresses(bench_pairs):
    # peak_rss_mb is bounded at 0.15 of the parent's 80 MB: 92.5 MB is over, 91 MB is not
    over = verdicts(bench_pairs, pairs_of(PARENT, PARENT, peak_rss_mb=92.5))
    assert over["m_train.peak_rss_mb"]["verdict"] == "regressed"
    assert over["m_train.step_s"]["verdict"] == "held"
    under = verdicts(bench_pairs, pairs_of(PARENT, PARENT, peak_rss_mb=91.0))
    assert under["m_train.peak_rss_mb"]["verdict"] == "held"


def test_a_spread_wider_than_the_bound_is_unresolved(bench_pairs):
    parent = [0.2, 0.8] * 5  # quartiles 0.2-0.8 around a 0.5 median: wider than 0.25 of it
    rows = verdicts(bench_pairs, pairs_of(parent, [0.5] * 10))
    assert rows["m_train.step_s"]["verdict"] == "unresolved"
    rows = verdicts(bench_pairs, pairs_of(parent, [0.1] * 10))  # better than every parent run
    assert rows["m_train.step_s"]["verdict"] == "held"


def test_bad_runs_are_named(bench_pairs):
    pairs = pairs_of(PARENT[:3], PARENT[:3])
    pairs[1] = (result(0.5, correct=False), result(0.5, failed=2))
    assert bench_pairs.bad_runs(pairs) == [
        "pair 2 parent: correct False, 0 of 4 operations failed",
        "pair 2 change: correct True, 2 of 4 operations failed",
    ]
    assert bench_pairs.bad_runs(pairs_of(PARENT, PARENT)) == []


def test_checkouts_declaring_other_run_seconds_are_refused(bench_pairs, tmp_path, capsys):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for side, seconds in (("parent", declared["run_seconds"]), ("change", 5)):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({**declared, "run_seconds": seconds}), encoding="utf-8")
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--seeds", "1"])
    assert exit_.value.code == 2
    assert "run_seconds is" in capsys.readouterr().err


def test_phase_medians_come_from_each_runs_record(bench_pairs, tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = tmp_path / ".perfbench" / "results"
    results.mkdir(parents=True)
    for seed, load_s in ((1, 0.044), (2, 0.046), (3, 0.045)):
        for workload in ("s_pipeline", "m_train", "m_eval"):
            figures = {"step_s": 0.13, "setup_s": 0.2, "peak_rss_mb": 100.0}
            figures |= {"s_pipeline": {"fit_s": 0.5, "test_hr10": 0.4},
                        "m_train": {"train_triples_per_s": 2e4},
                        "m_eval": {"load_s": load_s, "valid_eval_s": 0.05}}[workload]
            units = {"peak_rss_mb": "MB", "test_hr10": "ratio", "train_triples_per_s": "1/s"}
            record = {"end_to_end": {name: {"value": v, "unit": units.get(name, "s")}
                                     for name, v in figures.items()}}
            (results / f"{workload}-seed{seed}-trace0.json").write_text(
                json.dumps(record), encoding="utf-8")
    # the end-to-end metrics and the quality figures (a ratio) are left out
    medians = bench_pairs.phase_medians(tmp_path, declared, [1, 2, 3])
    assert medians == {"s_pipeline.fit_s": (0.5, "s"),
                       "m_train.train_triples_per_s": (2e4, "1/s"),
                       "m_eval.load_s": (0.045, "s"), "m_eval.valid_eval_s": (0.05, "s")}
    change = {**medians, "m_eval.load_s": (0.036, "s")}
    assert bench_pairs.phase_report(medians, change)[2] == (
        "m_eval.load_s (s): parent median 0.045, change 0.036, -20.0%")


def test_the_out_record_holds_pairs_verdicts_and_phases(bench_pairs):
    pairs = pairs_of(PARENT, [0.45] * 9 + [0.53])
    rows = bench_pairs.summary(pairs, END_TO_END)
    phases = ({"m_eval.load_s": (0.045, "s")}, {"m_eval.load_s": (0.036, "s")})
    seeds = list(range(101, 111))
    machine = {"cpus": 2, "blas_threads": [1]}
    record = json.loads(json.dumps(bench_pairs.record(seeds, pairs, rows, phases, 15, machine)))
    assert set(record) == {"run_seconds", "host", "claim_rule", "pairs", "metrics", "phases"}
    assert record["run_seconds"] == 15
    assert record["host"] == machine
    assert record["claim_rule"] == {"pairs": 10, "share": 0.9}
    assert len(record["pairs"]) == 10
    assert record["pairs"][0] == {
        "seed": 101, "first": "parent",
        "parent": {"m_train.setup_s": 0.2, "m_train.step_s": 0.50, "m_train.peak_rss_mb": 80.0},
        "change": {"m_train.setup_s": 0.2, "m_train.step_s": 0.45, "m_train.peak_rss_mb": 80.0}}
    assert [p["first"] for p in record["pairs"][:3]] == ["parent", "change", "parent"]
    step = next(m for m in record["metrics"] if m["metric"] == "m_train.step_s")
    assert set(step) == {"metric", "unit", "better", "parent", "change", "wins", "pairs",
                         "verdict"}
    assert step["parent"] == pytest.approx(
        {"lower_quartile": 0.50, "median": 0.51, "upper_quartile": 0.52})
    assert step["change"]["median"] == 0.45
    assert (step["wins"], step["pairs"], step["verdict"]) == (9, 10, "claimable")
    assert [m["metric"] for m in record["metrics"]] == [r["metric"] for r in rows]
    assert record["phases"] == [
        {"name": "m_eval.load_s", "unit": "s", "parent": 0.045, "change": 0.036}]


FAKE_RUN = '''
import json, sys
from pathlib import Path
seed = sys.argv[sys.argv.index("--seed") + 1]
step = float(Path("step").read_text())
blas = int(Path("blas").read_text()) if Path("blas").exists() else 1
figures = {"setup_s": (0.2, "s"), "step_s": (step, "s"), "peak_rss_mb": (80.0, "MB"),
           "load_s": (step / 4, "s")}
results = Path(".perfbench/results")
results.mkdir(parents=True, exist_ok=True)
metrics = {}
for workload in ("s_pipeline", "m_train", "m_eval"):
    record = {name: {"value": v, "unit": u} for name, (v, u) in figures.items()}
    (results / f"{workload}-seed{seed}-trace0.json").write_text(
        json.dumps({"environment": {"blas_threads": blas}, "end_to_end": record}))
    metrics |= {f"{workload}.{name}": record[name] for name in list(record)[:3]}
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
'''


def fake_checkouts(root, blas=(1, 1)):
    """Parent and change checkouts under ``root`` whose ``perfbench/run.py``
    (``FAKE_RUN``) prints fixed figures, step_s 0.5 and 0.4, and records
    ``blas`` BLAS threads."""
    declared = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    for side, step, threads in (("parent", 0.5, blas[0]), ("change", 0.4, blas[1])):
        (root / side / "perfbench").mkdir(parents=True)
        (root / side / "perfbench" / "run.py").write_text(FAKE_RUN, encoding="utf-8")
        (root / side / "BENCHMARK.json").write_text(declared, encoding="utf-8")
        (root / side / "step").write_text(str(step), encoding="utf-8")
        (root / side / "blas").write_text(str(threads), encoding="utf-8")


def test_out_writes_the_record_of_the_runs(bench_pairs, tmp_path):
    """Two fake checkouts whose ``perfbench/run.py`` prints fixed figures."""
    fake_checkouts(tmp_path)
    out = tmp_path / "BENCH_test.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--seeds", "7", "8", "--out", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert [(p["seed"], p["first"]) for p in record["pairs"]] == [(7, "parent"), (8, "change")]
    assert record["pairs"][1]["change"]["m_eval.step_s"] == 0.4
    assert len(record["metrics"]) == 9  # three workloads x three end-to-end metrics
    assert {m["verdict"] for m in record["metrics"]} == {"held"}  # two pairs claim nothing
    assert {p["name"]: (p["parent"], p["change"]) for p in record["phases"]} == {
        f"{w}.load_s": (0.125, 0.1) for w in ("s_pipeline", "m_train", "m_eval")}


def test_out_records_the_cpus_and_the_blas_threads_of_the_runs(bench_pairs, tmp_path, capsys):
    """The CPUs are the tool's affinity set, which its runs inherit; the BLAS
    threads are each value the runs' records name."""
    fake_checkouts(tmp_path, blas=(1, 2))
    out = tmp_path / "BENCH_test.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--seeds", "7", "--out", str(out)]) == 0
    cpus = len(os.sched_getaffinity(0))
    assert json.loads(out.read_text(encoding="utf-8"))["host"] == {
        "cpus": cpus, "blas_threads": [1, 2]}
    assert f"host: {cpus} CPUs, BLAS threads [1, 2]" in capsys.readouterr().out


def test_an_out_path_outside_a_directory_is_refused_before_a_run(bench_pairs, tmp_path,
                                                                 capsys):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("raise SystemExit(3)")
        (tmp_path / side / "BENCHMARK.json").write_text(
            (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"), encoding="utf-8")
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--seeds", "1",
                          "--out", str(tmp_path / "missing" / "BENCH_x.json")])
    assert exit_.value.code == 2
    assert "--out" in capsys.readouterr().err
