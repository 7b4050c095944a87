"""Acceptance criterion 6's setup over several seeds, written as one JSON table.

Run from the repository root:

    python3 tools/seed_table.py --seeds 10 --out seed_table.json

For s = 1..N it generates criterion 6's S dataset with synth seed 1000+s,
splits it with seed 2000+s, and trains att/att, avg/sum and off/sum with
model and train seed s, as ``tests/test_acceptance.py`` does for its one
seed set.  Per seed it records the figures criterion 6 compares, each
mode's epochs, and whether each of the criterion's three clauses held.  It
then gives the mean of every figure, and the paired differences att - mean
(frame NDCG@3) and att - off (item NDCG@15) with their spread.  A seed
takes about 7 s on one core, so the tool stays out of the test suite.
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
# One BLAS thread, set before numpy loads, so that every run rounds alike.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path.insert(0, str(ROOT / "src"))

from framerec import (  # noqa: E402
    ModelConfig,
    SynthConfig,
    TrainConfig,
    evaluate_frame_rec,
    evaluate_item_rec,
    fit,
    generate_synthetic,
    random_frame_baseline,
    split_ratings,
)

MODES = (("att", "att"), ("avg", "sum"), ("off", "sum"))
# Criterion 6's chance bound: att/att's frame HR@3 is at least this times random's.
CHANCE_FACTOR = 1.5


def one_seed(s: int) -> dict:
    """Criterion 6's figures for seed set s."""
    started = time.perf_counter()
    ds, likes, _ = generate_synthetic(SynthConfig(
        num_users=200, num_items=300, frames_per_item=5, feature_dim=16, latent_dim=8,
        ratings_per_user=20, frame_likes_per_pair=1, seed=1000 + s))
    split = split_ratings(ds, 0.7, 0.1, seed=2000 + s, frame_likes=likes)
    tcfg = TrainConfig(lr=0.01, epochs=50, batch_size=512, neg_ratio=10, patience=10,
                       valid_negatives=100, seed=s)
    trained, epochs, best = {}, {}, {}
    for visual, fusion in MODES:
        cfg = ModelConfig(d1=8, d2=8, attn_hidden_visual=8, attn_hidden_rating=8,
                          reduced_visual_dim=8, visual_mode=visual, fusion_mode=fusion, seed=s)
        params, log = fit(split, cfg, tcfg)
        name = f"{visual}/{fusion}"
        trained[name], epochs[name], best[name] = (params, cfg), len(log.epochs), log.best_epoch
    chance = random_frame_baseline(split, k_list=(3,), seed=9).hr[3]
    att_frames = evaluate_frame_rec(*trained["att/att"], split, k_list=(3,))
    avg_frames = evaluate_frame_rec(*trained["avg/sum"], split, k_list=(3,))
    att_items, off_items = (
        evaluate_item_rec(*trained[name], split, k_list=(15,), n_negatives=100, repeats=3,
                          seed=77).ndcg[15] for name in ("att/att", "off/sum"))
    return {
        "seed": s,
        "frame_hr3_att": att_frames.hr[3],
        "frame_hr3_chance": chance,
        "frame_hr3_over_chance": att_frames.hr[3] / chance,
        "frame_ndcg3_att": att_frames.ndcg[3],
        "frame_ndcg3_avg": avg_frames.ndcg[3],
        "item_ndcg15_att": att_items,
        "item_ndcg15_off": off_items,
        "epochs": epochs,
        "best_epoch": best,
        "clauses": {
            "beats_chance": att_frames.hr[3] >= CHANCE_FACTOR * chance,
            "beats_mean": att_frames.ndcg[3] >= avg_frames.ndcg[3],
            "beats_blind": att_items >= off_items,
        },
        "seconds": time.perf_counter() - started,
    }


def spread(values) -> dict:
    return {"mean": statistics.fmean(values), "sd": statistics.stdev(values) if len(values) > 1
            else 0.0, "min": min(values), "max": max(values)}


def table(rows) -> dict:
    figures = [k for k, v in rows[0].items() if isinstance(v, float) and k != "seconds"]
    return {
        "setup": "criterion 6: S (200 users x 300 items x 5 frames, F=16, d=8), synth seed "
                 "1000+s, split seed 2000+s, model and train seed s",
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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10, help="run seed sets 1..N (default 10)")
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)
    if args.seeds < 1:
        p.error("--seeds must be >= 1")
    rows = []
    for s in range(1, args.seeds + 1):
        rows.append(one_seed(s))
        r = rows[-1]
        print(f"seed {s}: frame HR@3 {r['frame_hr3_over_chance']:.3f}x chance, NDCG@3 att-mean "
              f"{r['frame_ndcg3_att'] - r['frame_ndcg3_avg']:+.3f}, item NDCG@15 att-off "
              f"{r['item_ndcg15_att'] - r['item_ndcg15_off']:+.3f}, epochs "
              f"{'/'.join(map(str, r['epochs'].values()))}, {r['seconds']:.1f}s", flush=True)
    result = table(rows)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({k: result[k] for k in ("paired", "clauses_held", "epochs")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
