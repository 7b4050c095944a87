"""Alternated parent/change pairs of perfbench runs, judged by the claim rule.

Run from anywhere, with two checkouts of the repository, for instance
``git archive`` copies of the parent commit and of the change in sibling
directories (``step_s`` moves with the directory a run starts in, so both
sides should be copies made alike):

    python3 tools/bench_pairs.py PARENT CHANGE --seeds $(seq 311 320)

Each seed is one pair.  Both sides run ``python3 perfbench/run.py --workload
all --seed S --seconds T --trace 0`` in their own checkout, with T the
``run_seconds`` of the parent's ``BENCHMARK.json`` (the tool refuses to run
if the change's copy declares another), the parent first in the first pair,
the change first in the next, and so on; each run's last output line is its
JSON result.  Every workload runs in every pair, so no claim stands without
every workload's no-regression bounds.  After each pair the tool prints both
sides' figures.  Then, per workload and end-to-end metric, it prints each
side's median and quartiles, the pairs the change won (ties count for
neither side), and whether a gain could be claimed: at least ten pairs, the
change better in at least nine tenths of them, and the medians apart by
more than the parent's interquartile range.  It checks every metric against
its no-regression bound in the parent's ``BENCHMARK.json``: the change's
median may be worse than the parent's by at most that fraction of the
parent's median.  A metric whose parent quartiles lie further apart than
its bound is reported as unresolved, unless every change run beats every
parent run.  Last, to show where a saving sits, it prints each side's
median of the runs' own phase timings, which get no verdict: every figure
in seconds or per second that a run's record holds beside the end-to-end
metrics (``m_eval``'s ``load_s``, ``valid_eval_s`` and ``frame_eval_s``,
``s_pipeline``'s ``fit_s`` and ``eval_s``, ``m_train``'s
``train_triples_per_s``).

With ``--out BENCH_<label>.json`` it also writes all of that as one JSON
record: each pair's seed, which side ran first and both sides' end-to-end
figures; each metric's quartiles per side, the pairs the change won and the
verdict; each phase timing's median per side; and the host the runs had:
the CPUs the tool may use (its affinity set, which the runs inherit) and
the BLAS threads the runs' records name.  The program spreads its blocks
over one thread per CPU, so a claim holds for that CPU count; ``taskset``
pins the tool and its runs to fewer.  The ``--out`` path is checked before
the first run.

The tool reads only ``BENCHMARK.json`` and the records the runs write
under ``.perfbench/results/`` (the runs write nothing outside
``.perfbench/``).  It exits 1 if a run fails, is not ``correct`` or has a
failed operation (and then writes no ``--out`` record), or if a metric is
over its bound.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import statistics
import subprocess
import sys
from pathlib import Path

CLAIM_SHARE = 0.9  # the share of pairs the change must win for a claim
CLAIM_PAIRS = 10  # the fewest pairs a claim may rest on


def run(checkout: Path, seed: int, seconds: float) -> dict:
    """One perfbench run of every workload: its JSON result, metrics named
    ``workload.metric``.

    A run that exits non-zero or prints no result comes back not correct.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"exit status {proc.returncode}"}
    return result


def bad_runs(pairs) -> list:
    """Lines naming each run that is not correct or has a failed operation."""
    lines = []
    for n, runs in enumerate(pairs, start=1):
        for side, r in zip(("parent", "change"), runs):
            if not r["correct"] or r["failed"]:
                lines.append(f"pair {n} {side}: correct {r['correct']}, {r['failed']} of "
                             f"{r['attempted']} operations failed {r.get('error', '')}".rstrip())
    return lines


def quartiles(values) -> tuple:
    """(lower quartile, median, upper quartile) by ``statistics.quantiles(values, n=4)``,
    its default (exclusive) method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summary(pairs, end_to_end) -> list:
    """One row per workload and end-to-end metric of the runs in ``pairs``.

    ``pairs`` holds (parent, change) run results, ``end_to_end`` is
    ``BENCHMARK.json``'s list of metric specs.  A row gives each side's
    (lower quartile, median, upper quartile), the pairs the change won, and
    a verdict: ``claimable``, ``regressed``, ``unresolved`` or ``held``.
    """
    specs = {spec["name"]: spec for spec in end_to_end}
    rows = []
    for name in pairs[0][0]["metrics"]:
        spec = specs.get(name.rsplit(".", 1)[-1])
        if spec is None:
            continue
        lower = spec["better"] == "lower"
        better = operator.lt if lower else operator.gt
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        (p1, pmed, p3), (_, cmed, _) = quartiles(parent), quartiles(change)
        wins = sum(better(c, p) for p, c in zip(parent, change))
        gain = pmed - cmed if lower else cmed - pmed
        spread, allowed = p3 - p1, spec["bound"] * abs(pmed)
        if len(pairs) >= CLAIM_PAIRS and wins >= CLAIM_SHARE * len(pairs) and gain > spread:
            verdict = "claimable"
        elif -gain > allowed:
            verdict = "regressed"
        elif spread > allowed and not all(better(c, p) for c in change for p in parent):
            verdict = "unresolved"
        else:
            verdict = "held"
        rows.append({
            "metric": name, "unit": spec["unit"], "better": spec["better"],
            "parent": (p1, pmed, p3), "change": quartiles(change),
            "wins": wins, "pairs": len(pairs), "verdict": verdict,
        })
    return rows


def run_records(checkout: Path, declared: dict, seeds):
    """(workload, record) of the run of each workload in ``declared`` (the parsed
    ``BENCHMARK.json``) at each of ``seeds``, as perfbench wrote it in ``checkout``."""
    for workload in (w["name"] for w in declared["workloads"]):
        for seed in seeds:
            path = checkout / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
            yield workload, json.loads(path.read_text(encoding="utf-8"))


def phase_medians(checkout: Path, declared: dict, seeds) -> dict:
    """{``workload.figure``: (median, unit)} of the runs' own phase timings in ``checkout``.

    Read from each ``run_records`` record: the figures of its
    ``end_to_end`` part in ``s`` or ``1/s`` that are not end-to-end metrics.
    """
    metrics = {spec["name"] for spec in declared["end_to_end"]}
    values, units = {}, {}
    for workload, rec in run_records(checkout, declared, seeds):
        for name, figure in rec["end_to_end"].items():
            if name not in metrics and figure["unit"] in ("s", "1/s"):
                values.setdefault(f"{workload}.{name}", []).append(figure["value"])
                units[f"{workload}.{name}"] = figure["unit"]
    return {name: (statistics.median(v), units[name]) for name, v in values.items()}


def host(checkouts, declared: dict, seeds) -> dict:
    """The CPUs this process may run on, which the runs it starts inherit (its
    affinity set, else the CPU count), and the distinct BLAS thread counts the
    ``run_records`` of ``checkouts`` name."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count()
    blas = {rec["environment"]["blas_threads"]
            for c in checkouts for _, rec in run_records(c, declared, seeds)}
    return {"cpus": cpus, "blas_threads": sorted(blas)}


def phase_report(parent: dict, change: dict) -> list:
    """Text lines of both sides' phase medians, as ``phase_medians`` gives them."""
    lines = []
    for name, (pmed, unit) in parent.items():
        cmed = change[name][0]
        diff = f", {100.0 * (cmed - pmed) / pmed:+.1f}%" if pmed else ""
        lines.append(f"{name} ({unit}): parent median {pmed:.6g}, change {cmed:.6g}{diff}")
    return lines


def report(rows) -> list:
    """The rows as text lines: median [lower quartile - upper quartile] per side."""
    lines = []
    for r in rows:
        (plo, pmed, phi), (clo, cmed, chi) = r["parent"], r["change"]
        change = f"{100.0 * (cmed - pmed) / pmed:+.1f}%" if pmed else "n/a"
        lines.append(
            f"{r['metric']} ({r['unit']}, {r['better']} is better): parent {pmed:.6g} "
            f"[{plo:.6g}-{phi:.6g}], change {cmed:.6g} [{clo:.6g}-{chi:.6g}], {change}, "
            f"change won {r['wins']}/{r['pairs']}: {r['verdict']}")
    return lines


def record(seeds, pairs, rows, phases, seconds, machine) -> dict:
    """The JSON record ``--out`` writes of a finished set of pairs.

    ``pairs`` holds the (parent, change) run results taken at ``seeds``,
    ``rows`` their ``summary``, ``phases`` the (parent, change)
    ``phase_medians``, ``seconds`` each run's length and ``machine`` the
    runs' ``host``.  The record holds the host, each pair's end-to-end
    figures, each metric's quartiles, wins and verdict, and each phase
    timing's medians.
    """
    quarts = lambda q: dict(zip(("lower_quartile", "median", "upper_quartile"), q))
    return {
        "run_seconds": seconds,
        "host": machine,
        "claim_rule": {"pairs": CLAIM_PAIRS, "share": CLAIM_SHARE},
        "pairs": [{"seed": seed, "first": "parent" if n % 2 == 0 else "change",
                   **{side: {m: fig["value"] for m, fig in r["metrics"].items()}
                      for side, r in zip(("parent", "change"), runs)}}
                  for n, (seed, runs) in enumerate(zip(seeds, pairs))],
        "metrics": [{**r, "parent": quarts(r["parent"]), "change": quarts(r["change"])}
                    for r in rows],
        "phases": [{"name": name, "unit": unit, "parent": pmed, "change": phases[1][name][0]}
                   for name, (pmed, unit) in phases[0].items()],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    p.add_argument("--out", type=Path, metavar="BENCH_<label>.json",
                   help="also write the pairs, the verdicts and the phase medians here")
    args = p.parse_args(argv)
    if args.out is not None and (args.out.is_dir() or not args.out.parent.is_dir()):
        p.error(f"--out {args.out}: not a file in an existing directory")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            p.error(f"{checkout} holds no perfbench/run.py")
    declared, changed = (json.loads((c / "BENCHMARK.json").read_text(encoding="utf-8"))
                         for c in (args.parent, args.change))
    seconds = declared["run_seconds"]
    if changed["run_seconds"] != seconds:
        p.error(f"run_seconds is {seconds} in the parent's BENCHMARK.json but "
                f"{changed['run_seconds']} in the change's")
    pairs = []
    for n, seed in enumerate(args.seeds):
        runs = [None, None]  # parent, change
        for side in ((0, 1) if n % 2 == 0 else (1, 0)):
            runs[side] = run((args.parent, args.change)[side], seed, seconds)
        pairs.append(tuple(runs))
        parent, change = (r["metrics"] for r in runs)
        print(f"pair {n + 1} (seed {seed}, {'parent' if n % 2 == 0 else 'change'} first): "
              + ", ".join(f"{m} {parent[m]['value']:.6g} -> {change[m]['value']:.6g}"
                          for m in parent if m in change), flush=True)
    bad = bad_runs(pairs)
    if bad:
        print("\n".join(bad))
        return 1
    rows = summary(pairs, declared["end_to_end"])
    print("\n".join(report(rows)))
    phases = [phase_medians(c, declared, args.seeds) for c in (args.parent, args.change)]
    print("phase medians, no verdict:")
    print("\n".join(phase_report(*phases)))
    machine = host((args.parent, args.change), declared, args.seeds)
    print(f"host: {machine['cpus']} CPUs, BLAS threads {machine['blas_threads']}")
    if args.out is not None:
        args.out.write_text(json.dumps(record(args.seeds, pairs, rows, phases, seconds, machine),
                                       indent=1) + "\n", encoding="utf-8")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
