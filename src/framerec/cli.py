"""Command line pipeline: synth -> split -> train -> eval.

Every command that writes files also drops a ``run.json`` manifest with the
exact parameters used, so a run can be reproduced byte for byte.  Commands
exit 0 on success, 1 on a reported error (bad data, bad config), and 2 on
argument parsing failures.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .data import (
    FEATURES_FILE,
    FRAME_LIKES_FILE,
    FRAMES_FILE,
    RATINGS_FILE,
    load_dataset,
    load_frame_likes,
    load_split,
    prune_dataset,
    save_dataset,
    save_split,
    split_ratings,
)
from .errors import FrameRecError, IntegrityError
from .evaluation import evaluate_frame_rec, evaluate_item_rec, random_frame_baseline
from .model import (
    ModelConfig,
    dataset_digest,
    load_checkpoint,
    save_checkpoint,
)
from .synth import SynthConfig, generate_synthetic
from .training import TrainConfig, finite_diff_check, fit, gradcheck_instance

logger = logging.getLogger(__name__)

CHECKPOINT_NAME = "checkpoint.json"
TRAIN_LOG_NAME = "train_log.tsv"
MANIFEST_NAME = "run.json"


def _write_manifest(out_dir: Path, command: str, args: argparse.Namespace) -> None:
    params = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k not in ("func", "verbose")
    }
    doc = {"command": command, "version": __version__, "parameters": params}
    (out_dir / MANIFEST_NAME).write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _write_report(report, out_dir: Path, stem: str) -> None:
    (out_dir / f"{stem}.tsv").write_text(report.to_tsv(), encoding="utf-8")
    (out_dir / f"{stem}.json").write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


def _parse_k_list(text: str) -> tuple:
    try:
        ks = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad cutoff list {text!r}") from None
    if not ks:
        raise argparse.ArgumentTypeError("cutoff list is empty")
    return ks


def _load_data_dir(data_dir: Path):
    dataset = load_dataset(
        data_dir / RATINGS_FILE, data_dir / FRAMES_FILE, data_dir / FEATURES_FILE
    )
    return dataset


def _load_split_dir(data_dir: Path):
    dataset = _load_data_dir(data_dir)
    return dataset, load_split(dataset, data_dir)


def _model_config(args: argparse.Namespace) -> ModelConfig:
    d1 = args.d if args.d is not None else args.d1
    d2 = args.d if args.d is not None else args.d2
    return ModelConfig(
        d1=d1,
        d2=d2,
        attn_hidden_visual=args.attn_hidden_visual,
        attn_hidden_rating=args.attn_hidden_rating,
        reduced_visual_dim=args.reduced_dim,
        visual_mode=args.visual,
        fusion_mode=args.fusion,
        lambda1=args.lambda1,
        init_scale=args.init_scale,
        seed=args.model_seed,
        share_visual_projection=args.share_projection,
        attention_bias=args.attention_bias,
        precision=args.precision,
    )


def _train_config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(
        lr=args.lr,
        batch_size=args.batch_size,
        epochs=args.epochs,
        neg_ratio=args.neg_ratio,
        patience=args.patience,
        valid_negatives=args.valid_negatives,
        valid_k=args.valid_k,
        loss_reduction=args.loss_reduction,
        seed=args.train_seed,
    )


def _add_model_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("model")
    g.add_argument("--d", type=int, default=None,
                   help="shorthand setting both factor dimensions at once")
    g.add_argument("--d1", type=int, default=32, help="collaborative factor dimension")
    g.add_argument("--d2", type=int, default=32, help="visual factor dimension")
    g.add_argument("--visual", choices=("off", "avg", "att"), default="att",
                   help="item visual embedding mode")
    g.add_argument("--fusion", choices=("sum", "att"), default="att",
                   help="how the two score channels combine")
    g.add_argument("--attn-hidden-visual", type=int, default=32)
    g.add_argument("--attn-hidden-rating", type=int, default=32)
    g.add_argument("--reduced-dim", type=int, default=32,
                   help="attention key dimension for frame features")
    g.add_argument("--lambda1", type=float, default=0.001)
    g.add_argument("--init-scale", type=float, default=0.1)
    g.add_argument("--model-seed", type=int, default=0)
    g.add_argument("--share-projection", action="store_true",
                   help="reuse the visual projection as the attention key map")
    g.add_argument("--attention-bias", action="store_true")
    g.add_argument("--precision", choices=("f32", "f64"), default="f64")


def _add_train_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("training")
    g.add_argument("--lr", type=float, default=0.001)
    g.add_argument("--batch-size", type=int, default=512)
    g.add_argument("--epochs", type=int, default=50)
    g.add_argument("--neg-ratio", type=int, default=10,
                   help="negatives sampled per observed feedback")
    g.add_argument("--patience", type=int, default=10)
    g.add_argument("--valid-negatives", type=int, default=100)
    g.add_argument("--valid-k", type=int, default=10)
    g.add_argument("--loss-reduction", choices=("mean", "sum"), default="mean")
    g.add_argument("--train-seed", type=int, default=0)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = SynthConfig(
        num_users=args.users,
        num_items=args.items,
        frames_per_item=args.frames_per_item,
        feature_dim=args.feature_dim,
        latent_dim=args.latent_dim,
        ratings_per_user=args.ratings_per_user,
        frame_likes_per_pair=args.likes_per_pair,
        seed=args.seed,
        salient_frac=args.salient_frac,
        salient_shift=args.salient_shift,
        attention_gain=args.attention_gain,
    )
    dataset, likes, _ = generate_synthetic(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, out, frame_likes=likes)
    _write_manifest(out, "synth", args)
    print(f"wrote {dataset.describe()} with {len(likes)} frame likes to {out}")
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    dataset = _load_data_dir(Path(args.data))
    if args.min_count > 1:
        before = dataset.describe()
        dataset = prune_dataset(dataset, args.min_count)
        logger.info("pruned: %s -> %s", before, dataset.describe())
    likes_path = Path(args.data) / FRAME_LIKES_FILE
    likes = load_frame_likes(likes_path, dataset) if likes_path.exists() else frozenset()
    split = split_ratings(
        dataset,
        train_frac=args.train_frac,
        valid_frac=args.valid_frac,
        seed=args.seed,
        per_user=args.per_user,
        frame_likes=likes,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, out, frame_likes=likes if likes else None)
    save_split(split, out)
    _write_manifest(out, "split", args)
    print(
        f"split {len(dataset.ratings)} ratings: {len(split.train)} train, "
        f"{len(split.validation)} valid, {len(split.test)} test "
        f"({len(split.frame_test)} frame-test likes)"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    dataset, split = _load_split_dir(Path(args.data))
    cfg = _model_config(args)
    tcfg = _train_config(args)
    params, log = fit(split, cfg, tcfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / CHECKPOINT_NAME, params, cfg, dataset_digest(dataset))
    log.save(out / TRAIN_LOG_NAME)
    _write_manifest(out, "train", args)
    final = log.epochs[-1] if log.epochs else None
    if final is not None:
        print(
            f"trained {len(log.epochs)} epochs (best {log.best_epoch}), "
            f"final loss {final.train_loss:.5f}, valid HR@{tcfg.valid_k} "
            f"{final.valid_hr:.4f}"
        )
    return 0


def _load_checkpoint_for(dataset, path: Path):
    params, cfg, digest = load_checkpoint(path)
    if digest != dataset_digest(dataset):
        raise IntegrityError(
            f"{path}: checkpoint was trained on a different dataset"
        )
    return params, cfg


def _cmd_eval_items(args: argparse.Namespace) -> int:
    dataset, split = _load_split_dir(Path(args.data))
    params, cfg = _load_checkpoint_for(dataset, Path(args.checkpoint))
    report = evaluate_item_rec(
        params, cfg, split,
        k_list=args.k,
        n_negatives=args.negatives,
        repeats=args.repeats,
        seed=args.seed,
        split_name=args.split,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_report(report, out, "item_eval")
    _write_manifest(out, "eval-items", args)
    print(report.to_tsv(), end="")
    return 0


def _cmd_eval_frames(args: argparse.Namespace) -> int:
    dataset, split = _load_split_dir(Path(args.data))
    params, cfg = _load_checkpoint_for(dataset, Path(args.checkpoint))
    report = evaluate_frame_rec(
        params, cfg, split, k_list=args.k,
        exclude_singletons=args.exclude_singletons,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_report(report, out, "frame_eval")
    if args.with_baseline:
        baseline = random_frame_baseline(
            split, k_list=args.k, seed=args.seed,
            exclude_singletons=args.exclude_singletons,
        )
        _write_report(baseline, out, "frame_baseline")
    _write_manifest(out, "eval-frames", args)
    print(report.to_tsv(), end="")
    return 0


GRADCHECK_COMBOS = (
    ("off", "sum"), ("off", "att"),
    ("avg", "sum"), ("avg", "att"),
    ("att", "sum"), ("att", "att"),
)


def _parse_modes(text: str) -> tuple:
    if text.strip() == "all":
        return GRADCHECK_COMBOS
    combos = []
    for token in text.split(","):
        parts = token.strip().split(":")
        if len(parts) != 2 or tuple(parts) not in GRADCHECK_COMBOS:
            raise argparse.ArgumentTypeError(
                f"bad mode {token.strip()!r}; want 'all' or visual:fusion pairs"
            )
        combos.append(tuple(parts))
    if not combos:
        raise argparse.ArgumentTypeError("mode list is empty")
    return tuple(combos)


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    combos = args.modes
    ok = True
    for visual, fusion in combos:
        params, cfg, dataset, batch = gradcheck_instance(
            seed=args.seed, visual_mode=visual, fusion_mode=fusion
        )
        report = finite_diff_check(
            params, cfg, dataset, batch,
            h=args.h, max_coords=args.max_coords, seed=args.seed,
        )
        passed = report.max_rel_err < args.threshold
        ok = ok and passed
        print(
            f"visual={visual} fusion={fusion} "
            f"max_rel_err={report.max_rel_err:.3e} "
            f"({report.checked_coords} coords) "
            f"{'PASS' if passed else 'FAIL'}"
        )
    return 0 if ok else 1


def _cmd_ablate(args: argparse.Namespace) -> int:
    dataset, split = _load_split_dir(Path(args.data))
    base_cfg = _model_config(args)
    tcfg = _train_config(args)
    cells = [("off", "sum"), ("avg", "sum"), ("avg", "att"), ("att", "sum"), ("att", "att")]
    rows = []
    for visual, fusion in cells:
        cfg = replace(base_cfg, visual_mode=visual, fusion_mode=fusion)
        logger.info("ablate: training visual=%s fusion=%s", visual, fusion)
        params, _ = fit(split, cfg, tcfg)
        item = evaluate_item_rec(
            params, cfg, split,
            k_list=(args.item_k,),
            n_negatives=args.negatives,
            repeats=args.repeats,
            seed=args.seed,
        )
        row = {
            "visual": visual,
            "fusion": fusion,
            "item_hr": item.hr[args.item_k],
            "item_ndcg": item.ndcg[args.item_k],
            "frame_hr": None,
            "frame_ndcg": None,
        }
        if visual != "off":
            frame = evaluate_frame_rec(params, cfg, split, k_list=(args.frame_k,))
            row["frame_hr"] = frame.hr[args.frame_k]
            row["frame_ndcg"] = frame.ndcg[args.frame_k]
        rows.append(row)

    ref = next(r for r in rows if (r["visual"], r["fusion"]) == ("avg", "sum"))
    header = (
        f"visual\tfusion\titem_HR@{args.item_k}\titem_NDCG@{args.item_k}"
        f"\tframe_HR@{args.frame_k}\tframe_NDCG@{args.frame_k}\tHR_vs_avg_sum%"
    )
    lines = [header]
    for r in rows:
        impr = (
            100.0 * (r["item_hr"] - ref["item_hr"]) / ref["item_hr"]
            if ref["item_hr"] else float("nan")
        )
        fr_hr = "-" if r["frame_hr"] is None else repr(r["frame_hr"])
        fr_nd = "-" if r["frame_ndcg"] is None else repr(r["frame_ndcg"])
        lines.append(
            f"{r['visual']}\t{r['fusion']}\t{r['item_hr']!r}\t{r['item_ndcg']!r}"
            f"\t{fr_hr}\t{fr_nd}\t{impr:+.1f}"
        )
    table = "\n".join(lines) + "\n"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "ablation.tsv").write_text(table, encoding="utf-8")
    _write_manifest(out, "ablate", args)
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framerec",
        description="Joint item and key-frame recommendation from implicit feedback.",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress at INFO")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with known structure")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--users", type=int, default=200)
    p.add_argument("--items", type=int, default=300)
    p.add_argument("--frames-per-item", type=int, default=5)
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--latent-dim", type=int, default=8)
    p.add_argument("--ratings-per-user", type=int, default=20)
    p.add_argument("--likes-per-pair", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--salient-frac", type=float, default=0.25)
    p.add_argument("--salient-shift", type=float, default=2.5)
    p.add_argument("--attention-gain", type=float, default=2.5)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("split", help="prune and split a dataset into train/valid/test")
    p.add_argument("--data", required=True, type=Path,
                   help="directory with ratings.tsv, frames.tsv, features.tsv")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--train-frac", type=float, default=0.7)
    p.add_argument("--valid-frac", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-user", action="store_true",
                   help="apply the fractions per user instead of globally")
    p.add_argument("--min-count", type=int, default=1,
                   help="iteratively drop users/items with fewer ratings")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="fit a model on a split directory")
    p.add_argument("--data", required=True, type=Path, help="split directory")
    p.add_argument("--out", required=True, type=Path)
    _add_model_args(p)
    _add_train_args(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval-items", help="ranking metrics for item recommendation")
    p.add_argument("--data", required=True, type=Path, help="split directory")
    p.add_argument("--checkpoint", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--k", type=_parse_k_list, default=(5, 10, 15, 20),
                   help="comma-separated cutoffs")
    p.add_argument("--negatives", type=int, default=1000)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", choices=("test", "validation"), default="test")
    p.set_defaults(func=_cmd_eval_items)

    p = sub.add_parser("eval-frames", help="ranking metrics for frame recommendation")
    p.add_argument("--data", required=True, type=Path, help="split directory")
    p.add_argument("--checkpoint", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--k", type=_parse_k_list, default=(1, 2, 3))
    p.add_argument("--exclude-singletons", action="store_true",
                   help="skip items with a single frame")
    p.add_argument("--with-baseline", action="store_true",
                   help="also report random-scoring baseline metrics")
    p.add_argument("--seed", type=int, default=0, help="baseline scoring seed")
    p.set_defaults(func=_cmd_eval_frames)

    p = sub.add_parser("gradcheck", help="verify analytic gradients numerically")
    p.add_argument("--modes", type=_parse_modes, default=GRADCHECK_COMBOS,
                   help="'all' or comma-separated visual:fusion pairs, e.g. att:att")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--max-coords", type=int, default=200)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("ablate", help="train and compare all mode combinations")
    p.add_argument("--data", required=True, type=Path, help="split directory")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--item-k", type=int, default=10)
    p.add_argument("--frame-k", type=int, default=3)
    p.add_argument("--negatives", type=int, default=1000)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    _add_model_args(p)
    _add_train_args(p)
    p.set_defaults(func=_cmd_ablate)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (FrameRecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
