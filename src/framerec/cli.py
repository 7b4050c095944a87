"""Command line pipeline: synth -> split -> train -> eval.

Once a command that writes files succeeds, ``run`` writes a ``run.json``
manifest of its exact parameters, so a run can be reproduced byte for byte.
Commands exit 0 on success, 1 on a reported error (bad data, bad config), and
2 on argument parsing failures.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import logging
import math
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .data import (
    FEATURES_FILE,
    FRAME_LIKES_FILE,
    FRAMES_FILE,
    PORTIONS,
    RATINGS_FILE,
    atomic_writer,
    load_dataset,
    load_frame_likes,
    load_split,
    prune_dataset,
    save_dataset,
    save_split,
    split_ratings,
)
from .errors import ConfigError, FrameRecError, IntegrityError, check_seed
from .evaluation import (ITEM_SPLITS, check_cutoffs, check_sampling, evaluate_frame_rec,
                         evaluate_item_rec, random_frame_baseline)
from .model import (
    FUSION_ATT,
    FUSION_MODES,
    VISUAL_MODES,
    VISUAL_OFF,
    ModelConfig,
    dataset_digest,
    load_checkpoint,
    save_checkpoint,
)
from .synth import SynthConfig, generate_synthetic
from .training import LOSS_REDUCTIONS, TrainConfig, finite_diff_check, fit, gradcheck_instance

logger = logging.getLogger(__name__)

CHECKPOINT_NAME = "checkpoint.npz"
TRAIN_LOG_NAME = "train_log.tsv"
MANIFEST_NAME = "run.json"


def _write_manifest(args: argparse.Namespace) -> None:
    params = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k not in ("func", "verbose")
    }
    doc = {"command": args.command, "version": __version__, "parameters": params}
    with atomic_writer(args.out / MANIFEST_NAME) as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_report(report, out_dir: Path, stem: str) -> None:
    with atomic_writer(out_dir / f"{stem}.tsv") as fh:
        fh.write(report.to_tsv())
    with atomic_writer(out_dir / f"{stem}.json") as fh:
        fh.write(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")


def _parse_k_list(text: str) -> tuple:
    try:
        ks = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad cutoff list {text!r}") from None
    if not ks:
        raise argparse.ArgumentTypeError("cutoff list is empty")
    return ks


def _load_data_dir(data_dir: Path):
    return load_dataset(data_dir / RATINGS_FILE, data_dir / FRAMES_FILE,
                        data_dir / FEATURES_FILE)


def _load_split_dir(data_dir: Path):
    return load_split(_load_data_dir(data_dir), data_dir)


# Each config field is one flag named after its field, or its FLAG_NAMES entry,
# with the field's type, default and CHOICES entry.
FLAG_NAMES = {
    (ModelConfig, "reduced_visual_dim"): "reduced_dim",
    (ModelConfig, "visual_mode"): "visual",
    (ModelConfig, "fusion_mode"): "fusion",
    (ModelConfig, "seed"): "model_seed",
    (TrainConfig, "seed"): "train_seed",
    (SynthConfig, "num_users"): "users",
    (SynthConfig, "num_items"): "items",
    (SynthConfig, "frame_likes_per_pair"): "likes_per_pair",
}
CHOICES = {
    "visual_mode": VISUAL_MODES,
    "fusion_mode": FUSION_MODES,
    "loss_reduction": LOSS_REDUCTIONS,
}
HELP = {
    "d1": "collaborative factor dimension",
    "d2": "visual factor dimension",
    "visual_mode": "item visual embedding mode",
    "fusion_mode": "how the two score channels combine",
    "reduced_visual_dim": "attention key dimension for frame features",
    "neg_ratio": "negatives sampled per observed feedback",
}


def _dest(cls, name: str) -> str:
    return FLAG_NAMES.get((cls, name), name)


def _add_config_args(p: argparse.ArgumentParser, cls, title: str, skip=()) -> None:
    """One flag per field of the config dataclass ``cls``, but the fields in ``skip``."""
    g = p.add_argument_group(title)
    for f in fields(cls):
        if f.name in skip:
            continue
        dest = _dest(cls, f.name)
        g.add_argument("--" + dest.replace("_", "-"), type=type(f.default),
                       default=f.default, choices=CHOICES.get(f.name),
                       help=HELP.get(f.name))


def _config_values(cls, args: argparse.Namespace) -> dict:
    """The values of the fields of ``cls`` that the command has flags for."""
    return {f.name: getattr(args, _dest(cls, f.name)) for f in fields(cls)
            if _dest(cls, f.name) in args}


def _config(cls, args: argparse.Namespace):
    return cls(**_config_values(cls, args))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = _config(SynthConfig, args)
    dataset, likes, _ = generate_synthetic(cfg)
    save_dataset(dataset, args.out, frame_likes=likes)
    print(f"wrote {dataset.describe()} with {len(likes)} frame likes to {args.out}")
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    dataset = _load_data_dir(args.data)
    # min_count 1 keeps unrated users and items; prune_dataset rejects values below 1
    if args.min_count != 1:
        before = dataset.describe()
        dataset = prune_dataset(dataset, args.min_count)
        logger.info("pruned: %s -> %s", before, dataset.describe())
    likes_path = args.data / FRAME_LIKES_FILE
    likes = load_frame_likes(likes_path, dataset) if likes_path.exists() else ()
    split = split_ratings(
        dataset,
        train_frac=args.train_frac,
        valid_frac=args.valid_frac,
        seed=args.seed,
        per_user=args.per_user,
        frame_likes=likes,
    )
    save_dataset(dataset, args.out, frame_likes=likes if len(likes) else None)
    save_split(split, args.out)
    train, valid, test = (len(split.pairs(name)) for name in PORTIONS)
    print(f"split {len(dataset.ratings)} ratings: {train} train, {valid} valid, {test} test "
          f"({len(split.frame_test)} frame-test likes)")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    split = _load_split_dir(args.data)
    cfg = _config(ModelConfig, args)
    tcfg = _config(TrainConfig, args)
    params, log = fit(split, cfg, tcfg)
    save_checkpoint(args.out / CHECKPOINT_NAME, params, cfg, dataset_digest(split.base))
    log.save(args.out / TRAIN_LOG_NAME)
    if log.epochs:
        final = log.epochs[-1]
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
    got = (len(params.user_collab), len(params.item_collab), params.visual_proj.shape[1])
    want = (dataset.num_users, dataset.num_items, dataset.feature_dim)
    if got != want:
        raise IntegrityError(
            f"{path}: (users, items, feature dim) are {got}, the dataset's {want}"
        )
    return params, cfg


def _cmd_eval_items(args: argparse.Namespace) -> int:
    split = _load_split_dir(args.data)
    params, cfg = _load_checkpoint_for(split.base, args.checkpoint)
    report = evaluate_item_rec(
        params, cfg, split,
        k_list=args.k,
        n_negatives=args.negatives,
        repeats=args.repeats,
        seed=args.seed,
        split_name=args.split,
    )
    _write_report(report, args.out, "item_eval")
    print(report.to_tsv(), end="")
    return 0


def _cmd_eval_frames(args: argparse.Namespace) -> int:
    split = _load_split_dir(args.data)
    params, cfg = _load_checkpoint_for(split.base, args.checkpoint)
    report = evaluate_frame_rec(
        params, cfg, split, k_list=args.k,
        exclude_singletons=args.exclude_singletons,
    )
    # both reports are made before either is written, so a failed command writes neither
    baseline = random_frame_baseline(
        split, k_list=args.k, seed=args.seed,
        exclude_singletons=args.exclude_singletons,
    ) if args.with_baseline else None
    _write_report(report, args.out, "frame_eval")
    if baseline is not None:
        _write_report(baseline, args.out, "frame_baseline")
    print(report.to_tsv(), end="")
    return 0


GRADCHECK_COMBOS = tuple(itertools.product(VISUAL_MODES, FUSION_MODES))


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
    if not (math.isfinite(args.threshold) and args.threshold > 0):
        raise ConfigError(f"threshold must be finite and > 0, got {args.threshold}")
    ok = True
    for visual, fusion in args.modes:
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


def train_cells(split, cells, model: dict, tcfg: TrainConfig, item_k: int, frame_k: int,
                negatives: int, repeats: int, seed: int) -> list:
    """Train and evaluate one model per (visual_mode, fusion_mode) cell, ``model`` holding
    the other ``ModelConfig`` fields; every config and evaluation argument is checked
    before the first cell trains.  Per cell: ``(cfg, params, log, item, frame)``, the
    item report at ``item_k`` and the frame report at ``frame_k`` (None with visuals off).
    """
    cfgs = [ModelConfig(**model, visual_mode=v, fusion_mode=f) for v, f in cells]
    check_cutoffs((item_k,))
    check_cutoffs((frame_k,))
    check_sampling(negatives, repeats)
    check_seed(seed)
    results = []
    for cfg in cfgs:
        logger.info("training visual=%s fusion=%s", cfg.visual_mode, cfg.fusion_mode)
        params, log = fit(split, cfg, tcfg)
        item = evaluate_item_rec(params, cfg, split, k_list=(item_k,), n_negatives=negatives,
                                 repeats=repeats, seed=seed)
        frame = (None if cfg.visual_mode == VISUAL_OFF
                 else evaluate_frame_rec(params, cfg, split, k_list=(frame_k,)))
        results.append((cfg, params, log, item, frame))
    return results


def _cmd_ablate(args: argparse.Namespace) -> int:
    # off/att scores exactly like off/sum: with no visual channel there is nothing to fuse
    cells = [c for c in GRADCHECK_COMBOS if c != (VISUAL_OFF, FUSION_ATT)]
    results = train_cells(_load_split_dir(args.data), cells, _config_values(ModelConfig, args),
                          _config(TrainConfig, args), args.item_k, args.frame_k,
                          args.negatives, args.repeats, args.seed)
    ref_hr = results[cells.index(("avg", "sum"))][3].hr[args.item_k]
    lines = [f"visual\tfusion\titem_HR@{args.item_k}\titem_NDCG@{args.item_k}"
             f"\tframe_HR@{args.frame_k}\tframe_NDCG@{args.frame_k}\tHR_vs_avg_sum%"]
    for (visual, fusion), (_, _, _, item, frame) in zip(cells, results):
        hr = item.hr[args.item_k]
        impr = 100.0 * (hr - ref_hr) / ref_hr if ref_hr else float("nan")
        frame_cols = ("-\t-" if frame is None
                      else f"{frame.hr[args.frame_k]!r}\t{frame.ndcg[args.frame_k]!r}")
        lines.append(f"{visual}\t{fusion}\t{hr!r}\t{item.ndcg[args.item_k]!r}"
                     f"\t{frame_cols}\t{impr:+.1f}")
    table = "\n".join(lines) + "\n"
    with atomic_writer(args.out / "ablation.tsv") as fh:
        fh.write(table)
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
    _add_config_args(p, SynthConfig, "synthetic data")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("split", help="prune and split a dataset into train/valid/test")
    p.add_argument("--data", required=True, type=Path,
                   help=f"directory with {RATINGS_FILE}, {FRAMES_FILE} and {FEATURES_FILE}")
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
    _add_config_args(p, ModelConfig, "model")
    _add_config_args(p, TrainConfig, "training")
    p.set_defaults(func=_cmd_train)

    # evaluation and gradient-check flags default to their functions' keywords
    item_eval = inspect.signature(evaluate_item_rec).parameters
    p = sub.add_parser("eval-items", help="ranking metrics for item recommendation")
    p.add_argument("--data", required=True, type=Path, help="split directory")
    p.add_argument("--checkpoint", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--k", type=_parse_k_list, default=item_eval["k_list"].default,
                   help="comma-separated cutoffs")
    p.add_argument("--negatives", type=int, default=item_eval["n_negatives"].default)
    p.add_argument("--repeats", type=int, default=item_eval["repeats"].default)
    p.add_argument("--seed", type=int, default=item_eval["seed"].default)
    p.add_argument("--split", choices=ITEM_SPLITS, default=item_eval["split_name"].default)
    p.set_defaults(func=_cmd_eval_items)

    p = sub.add_parser("eval-frames", help="ranking metrics for frame recommendation")
    p.add_argument("--data", required=True, type=Path, help="split directory")
    p.add_argument("--checkpoint", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--k", type=_parse_k_list,
                   default=inspect.signature(evaluate_frame_rec).parameters["k_list"].default)
    p.add_argument("--exclude-singletons", action="store_true",
                   help="skip items with a single frame")
    p.add_argument("--with-baseline", action="store_true",
                   help="also report random-scoring baseline metrics")
    baseline = inspect.signature(random_frame_baseline).parameters
    p.add_argument("--seed", type=int, default=baseline["seed"].default,
                   help="baseline scoring seed")
    p.set_defaults(func=_cmd_eval_frames)

    p = sub.add_parser("gradcheck", help="verify analytic gradients numerically")
    p.add_argument("--modes", type=_parse_modes, default=GRADCHECK_COMBOS,
                   help="'all' or comma-separated visual:fusion pairs, e.g. att:att")
    p.add_argument("--seed", type=int, default=0)
    check = inspect.signature(finite_diff_check).parameters
    p.add_argument("--h", type=float, default=check["h"].default)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--max-coords", type=int, default=check["max_coords"].default)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("ablate", help="train and compare all mode combinations")
    p.add_argument("--data", required=True, type=Path, help="split directory")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--item-k", type=int, default=10)
    p.add_argument("--frame-k", type=int, default=3)
    p.add_argument("--negatives", type=int, default=item_eval["n_negatives"].default)
    p.add_argument("--repeats", type=int, default=item_eval["repeats"].default)
    p.add_argument("--seed", type=int, default=item_eval["seed"].default)
    # every cell sets the two modes
    _add_config_args(p, ModelConfig, "model", skip=("visual_mode", "fusion_mode"))
    _add_config_args(p, TrainConfig, "training")
    p.set_defaults(func=_cmd_ablate)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        code = args.func(args)
        if code == 0 and "out" in args:
            _write_manifest(args)
        return code
    except (FrameRecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
