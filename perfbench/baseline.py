"""Measure a baseline: every workload on several seeds, then one traced run each.

Run from the repository root:

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs ``run.py`` untraced once per workload and seed (seeds 1 to 10, seeds
outer, so slow spells of the machine spread over all workloads), then traced
once per workload on the first seed.  For every end-to-end figure it records the
values, their median and quartiles, and the spread (third minus first
quartile, as a share of the median) that the benchmark's bounds are judged
against; for the traced runs it records every per-layer figure.  Last, it
runs ``m_eval`` once with ``--attempt-test-eval`` and records how the CLI's
1000-negative test evaluation fails (a known defect), which the benchmark's
own runs leave out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int, *extra: str) -> dict:
    """One benchmark run; returns its full record."""
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
    )
    path = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def summary(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]

    records = {name: [] for name in names}
    for seed in SEEDS:
        for name in names:
            record = run(name, seed, seconds, 0)
            records[name].append(record)
            shown = {k: round(v["value"], 4) for k, v in record["result"]["metrics"].items()}
            print(f"{name} seed {seed}: {shown}", flush=True)

    out = {
        "seconds": seconds,
        "seeds": list(SEEDS),
        "environment": {k: v for k, v in records[names[0]][0]["environment"].items()
                        if k not in ("seed", "derived_seeds")},
        "workloads": {},
    }
    for w in declared["workloads"]:
        runs = records[w["name"]]
        figures = {}
        for metric, first in runs[0]["end_to_end"].items():
            values = [r["end_to_end"][metric]["value"] for r in runs]
            if None not in values:
                figures[metric] = {"unit": first["unit"], **summary(values)}
        traced = run(w["name"], SEEDS[0], seconds, 1)
        out["workloads"][w["name"]] = {
            "why": w["why"],
            "correct": all(r["result"]["correct"] for r in [*runs, traced]),
            "traced_correct": traced["result"]["correct"],
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "errors": sorted({f"{e['op']}: {e['type']}: {e['message']}"
                              for r in runs for e in r["errors"]}),
            "end_to_end": figures,
            "per_layer_seed": SEEDS[0],
            "per_layer": traced["per_layer"],
        }
        for metric, f in figures.items():
            print(f"{w['name']:<10} {metric:<22} median {f['median']:.6g} {f['unit']}"
                  f"  spread {f['spread']:.4f}")
    defect = run("m_eval", SEEDS[0], seconds, 0, "--attempt-test-eval")
    out["known_defect"] = {
        "workload": "m_eval",
        "seed": SEEDS[0],
        "operation": "evaluate_item_rec, 1000 negatives, 10 repeats (CLI test protocol)",
        "attempted": defect["result"]["attempted"],
        "failed": defect["result"]["failed"],
        "errors": sorted({f"{e['op']}: {e['type']}: {e['message']}"
                          for e in defect["errors"]}),
        "test_eval_s": defect["end_to_end"]["test_eval_s"],
        "test_eval_peak_rss_mb": defect["end_to_end"]["test_eval_peak_rss_mb"],
        "memory_cap_bytes": defect["environment"]["memory_cap_bytes"],
    }
    print("m_eval with --attempt-test-eval:", *out["known_defect"]["errors"], sep="\n  ")
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
