"""Acceptance criterion 6's setup over several seeds, written as one JSON table.

Run from the repository root:

    python3 tools/seed_table.py --seeds 10 --out seed_table.json
    python3 tools/seed_table.py --seeds 10 --out after.json --compare before.json

``recovery`` is criterion 6, which ``tests/test_acceptance.py`` calls with
its one seed set: the S dataset, att/att, avg/sum and off/sum trained through
``framerec.cli.train_cells``, and the three clauses.  For s = 1..N the tool
calls it with synth seed 1000+s, split seed 2000+s and model and train seed
s, and records the figures criterion 6 compares, each mode's epochs and
whether each clause held.  It then gives the mean of every figure, and the
paired differences att - mean (frame NDCG@3) and att - off (item NDCG@15)
with their spread.  A seed takes about 3 s on one core, so the tool stays
out of the test suite.

The table also records its ``environment``: whether the package pinned
numpy's BLAS to one thread, the CPUs the blocks ran on and numpy's version.

With ``--compare``, it then prints what changed against an earlier table:
each per-seed figure or epoch count that differs, each clause that flipped,
and the change in every mean.  Wall seconds are not compared.  Only the
figures both tables hold are compared, so a table an older version wrote
(say, without ``best_epoch``) can be read; each key that only one table
holds is named on a line of its own.  One line names the two environments
when they differ (an older table has none); it is not counted among the
differing figures.  A
``--compare`` file that is missing or is not such a table, and an ``--out``
path outside an existing directory, end in a one-line argument error before
the first seed trains.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread, set before numpy loads, so that every run rounds alike.  The
# package pins numpy's bundled OpenBLAS to one thread itself; the variables
# also cover a BLAS it cannot pin.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from framerec import (SynthConfig, TrainConfig, generate_synthetic,  # noqa: E402
                      random_frame_baseline, split_ratings)
from framerec.cli import train_cells  # noqa: E402
from framerec.model import _blas_pinned, _cpus  # noqa: E402

MODES = ("att/att", "avg/sum", "off/sum")
# Criterion 6's chance bound: att/att's frame HR@3 is at least this times random's.
CHANCE_FACTOR = 1.5


def recovery(synth_seed: int, split_seed: int, model_seed: int, train_seed: int):
    """Acceptance criterion 6 on one seed set: ``(figures, split, cells)``.

    ``figures`` holds the figures the criterion compares, each mode's epochs and
    whether each of its three clauses held; ``cells`` maps "visual/fusion" to
    ``train_cells``' ``(cfg, params, log, item, frame)``.
    """
    ds, likes, _ = generate_synthetic(SynthConfig(
        num_users=200, num_items=300, frames_per_item=5, feature_dim=16, latent_dim=8,
        ratings_per_user=20, frame_likes_per_pair=1, seed=synth_seed))
    split = split_ratings(ds, 0.7, 0.1, seed=split_seed, frame_likes=likes)
    tcfg = TrainConfig(lr=0.01, epochs=50, batch_size=512, neg_ratio=10, patience=10,
                       valid_negatives=100, seed=train_seed)
    model = dict(d1=8, d2=8, attn_hidden_visual=8, attn_hidden_rating=8,
                 reduced_visual_dim=8, seed=model_seed)
    cells = dict(zip(MODES, train_cells(split, [m.split("/") for m in MODES], model, tcfg,
                                        item_k=15, frame_k=3, negatives=100, repeats=3, seed=77)))
    chance = random_frame_baseline(split, k_list=(3,), seed=9).hr[3]
    att_frames, avg_frames = cells["att/att"][4], cells["avg/sum"][4]
    att_items, off_items = cells["att/att"][3].ndcg[15], cells["off/sum"][3].ndcg[15]
    figures = {
        "frame_hr3_att": att_frames.hr[3],
        "frame_hr3_chance": chance,
        "frame_hr3_over_chance": att_frames.hr[3] / chance,
        "frame_ndcg3_att": att_frames.ndcg[3],
        "frame_ndcg3_avg": avg_frames.ndcg[3],
        "item_ndcg15_att": att_items,
        "item_ndcg15_off": off_items,
        "epochs": {name: len(cell[2].epochs) for name, cell in cells.items()},
        "best_epoch": {name: cell[2].best_epoch for name, cell in cells.items()},
        "clauses": {
            "beats_chance": att_frames.hr[3] >= CHANCE_FACTOR * chance,
            "beats_mean": att_frames.ndcg[3] >= avg_frames.ndcg[3],
            "beats_blind": att_items >= off_items,
        },
    }
    return figures, split, cells


def one_seed(s: int) -> dict:
    """Criterion 6's figures for seed set s, with the seed and the wall seconds."""
    started = time.perf_counter()
    figures, _, _ = recovery(1000 + s, 2000 + s, s, s)
    return {"seed": s, **figures, "seconds": time.perf_counter() - started}


def spread(values) -> dict:
    return {"mean": statistics.fmean(values), "sd": statistics.stdev(values) if len(values) > 1
            else 0.0, "min": min(values), "max": max(values)}


def table(rows) -> dict:
    figures = [k for k, v in rows[0].items() if isinstance(v, float) and k != "seconds"]
    return {
        "setup": "criterion 6: S (200 users x 300 items x 5 frames, F=16, d=8), synth seed "
                 "1000+s, split seed 2000+s, model and train seed s",
        "environment": {"blas_pinned": _blas_pinned, "cpus": _cpus(), "numpy": np.__version__},
        "seeds": rows,
        "means": {k: statistics.fmean(r[k] for r in rows) for k in figures},
        "paired": {
            "frame_ndcg3_att_minus_avg": spread(
                [r["frame_ndcg3_att"] - r["frame_ndcg3_avg"] for r in rows]),
            "item_ndcg15_att_minus_off": spread(
                [r["item_ndcg15_att"] - r["item_ndcg15_off"] for r in rows]),
        },
        "clauses_held": {c: sum(r["clauses"][c] for r in rows) for c in rows[0]["clauses"]},
        "epochs": {m: spread([r["epochs"][m] for r in rows]) for m in rows[0]["epochs"]},
    }


def shared(then: dict, now: dict, name: str, only: dict) -> list:
    """The keys of ``now`` that ``then`` holds too, in ``now``'s order.

    Each key that only one of them holds goes into ``only``, as ``name``
    followed by the key, mapped to the table that holds it.
    """
    for side, keys in (("earlier", then.keys() - now.keys()), ("later", now.keys() - then.keys())):
        only.update((f"{name}{key}", side) for key in sorted(keys))
    return [key for key in now if key in then]


def compare(before: dict, after: dict) -> list:
    """Lines naming what differs between two tables, per seed and in the means.

    Only the figures both tables hold are compared, so that a table an older
    version wrote can be read; each key that only one table's seed rows,
    means, paired differences or epochs hold is named on a line of its own.
    """
    lines, only = [], {}
    old = {r["seed"]: r for r in before["seeds"]}
    for row in after["seeds"]:
        was = old.pop(row["seed"], None)
        if was is None:
            lines.append(f"seed {row['seed']}: not in the earlier table")
            continue
        for key in shared(was, row, "seed rows' ", only):
            if key in ("seed", "seconds"):
                continue
            if isinstance(row[key], dict):
                figures = [(f"{key} {sub}", was[key][sub], row[key][sub])
                           for sub in shared(was[key], row[key], f"seed rows' {key} ", only)]
            else:
                figures = [(key, was[key], row[key])]
            verb = "flipped" if key == "clauses" else "changed"
            lines += [f"seed {row['seed']} {name} {verb}: {then!r} -> {now!r}"
                      for name, then, now in figures if then != now]
    lines += [f"seed {s}: only in the earlier table" for s in old]
    changed = len(lines)
    means = [(f"mean {k}", before["means"][k], after["means"][k])
             for k in shared(before["means"], after["means"], "means ", only)]
    means += [(f"mean {k}", before["paired"][k]["mean"], after["paired"][k]["mean"])
              for k in shared(before["paired"], after["paired"], "paired ", only)]
    means += [(f"mean epochs {m}", before["epochs"][m]["mean"], after["epochs"][m]["mean"])
              for m in shared(before["epochs"], after["epochs"], "epochs ", only)]
    lines += [f"{name}: {then:.6f} -> {now:.6f} ({now - then:+.6g})"
              for name, then, now in means]
    lines += [f"{name}: only in the {side} table" for name, side in only.items()]
    envs = before.get("environment"), after.get("environment")
    if envs[0] != envs[1]:  # named, but not counted as a difference
        lines.append(f"environment differs: {envs[0]} -> {envs[1]}")
    lines.append(f"{changed} per-seed figures, epoch counts or clauses differ")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10, help="run seed sets 1..N (default 10)")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--compare", metavar="BEFORE.json",
                   help="then print what changed against this earlier table")
    args = p.parse_args(argv)
    if args.seeds < 1:
        p.error("--seeds must be >= 1")
    # both checks come before the first seed trains, not after the last
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():
        p.error(f"--out {args.out}: not a file in an existing directory")
    before = None
    if args.compare:
        try:
            before = json.loads(Path(args.compare).read_text(encoding="utf-8"))
            compare(before, before)  # reads every part of a table that a comparison reads
        except OSError as exc:
            p.error(f"--compare {args.compare}: {exc.strerror}")
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            p.error(f"--compare {args.compare}: not a seed table ({type(exc).__name__}: {exc})")
    rows = []
    for s in range(1, args.seeds + 1):
        rows.append(one_seed(s))
        r = rows[-1]
        print(f"seed {s}: frame HR@3 {r['frame_hr3_over_chance']:.3f}x chance, NDCG@3 att-mean "
              f"{r['frame_ndcg3_att'] - r['frame_ndcg3_avg']:+.3f}, item NDCG@15 att-off "
              f"{r['item_ndcg15_att'] - r['item_ndcg15_off']:+.3f}, epochs "
              f"{'/'.join(map(str, r['epochs'].values()))}, {r['seconds']:.1f}s", flush=True)
    result = table(rows)
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({k: result[k] for k in ("paired", "clauses_held", "epochs")}))
    if before is not None:
        print("\n".join(compare(before, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
