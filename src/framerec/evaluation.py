"""Ranking evaluation for item and frame recommendation.

Both tasks rank a held-out positive within a row of candidate scores, fill
a (repeats, pairs) matrix with its ranks, and reduce that matrix to HR@K
and NDCG@K.  Item evaluation follows the sampled-candidates protocol: each
positive is ranked against negatives drawn from the items its user never
rated anywhere, and the draw is repeated.  When the repeats would score
more candidates per pair than the catalog holds, each user's whole catalog
is scored once and every repeat reads its candidates from it; the draws,
and so the reports, are the same either way.  Frame evaluation is exhaustive:
a liked frame is ranked against all frames of its parent item, so it needs
no sampling and no repeats.

Ranks are pessimistic about ties: a candidate scoring exactly the same as
the positive pushes the positive down.  Non-finite scores raise
NonFiniteError.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import SplitDataset
from .errors import ConfigError, NonFiniteError, check_seed
from .model import (
    ModelConfig,
    ModelParams,
    item_visual_table,
    score_catalog,
    score_frames,
    score_pairs,
)

logger = logging.getLogger(__name__)

# Item evaluation draws and scores CANDIDATE_BLOCK // num_items pairs at a
# time (at least one), so a block's random keys, its rows of the rated mask
# and its users' catalog scores hold at most this many entries each.  The
# block changes no draw.  Catalog scores may round apart by an ulp with it,
# because score_catalog forms the user half of the fusion once per block.
CANDIDATE_BLOCK = 1 << 17

# The split portions item evaluation ranks, named as in data.PORTIONS.
ITEM_SPLITS = ("test", "validation")


def rank_of_first(scores):
    """1-based rank of scores[..., 0] along the last axis, ties ranked worst.

    An int for one list of scores, an array for a (rows, C) matrix.
    """
    scores = np.asarray(scores)
    ranks = (scores >= scores[..., :1]).sum(axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def rank_metrics(rank, k_list) -> tuple:
    """(hr, ndcg) dicts keyed by cutoff: floats for one rank, arrays for many."""
    rank = np.asarray(rank)
    gain = 1.0 / np.log2(rank + 1.0)
    out = float if rank.ndim == 0 else np.asarray
    hr = {k: out(np.where(rank <= k, 1.0, 0.0)) for k in k_list}
    ndcg = {k: out(np.where(rank <= k, gain, 0.0)) for k in k_list}
    return hr, ndcg


@dataclass(frozen=True)
class EvalReport:
    """Averaged ranking metrics with across-repeat standard deviations."""

    task: str
    split_name: str
    k_list: tuple
    hr: dict
    ndcg: dict
    hr_std: dict
    ndcg_std: dict
    n_pairs: int
    repeats: int
    n_negatives: int = None
    warnings: tuple = ()

    def to_tsv(self) -> str:
        lines = ["K\tHR\tNDCG\tHR_std\tNDCG_std"]
        for k in self.k_list:
            lines.append(
                f"{k}\t{self.hr[k]!r}\t{self.ndcg[k]!r}"
                f"\t{self.hr_std[k]!r}\t{self.ndcg_std[k]!r}"
            )
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "split": self.split_name,
            "k_list": list(self.k_list),
            "hr": {str(k): self.hr[k] for k in self.k_list},
            "ndcg": {str(k): self.ndcg[k] for k in self.k_list},
            "hr_std": {str(k): self.hr_std[k] for k in self.k_list},
            "ndcg_std": {str(k): self.ndcg_std[k] for k in self.k_list},
            "n_pairs": self.n_pairs,
            "repeats": self.repeats,
            "n_negatives": self.n_negatives,
            "warnings": list(self.warnings),
        }


def check_cutoffs(k_list) -> tuple:
    """The cutoffs as a tuple of ints; ConfigError unless distinct and positive."""
    k_list = tuple(int(k) for k in k_list)
    if not k_list or any(k < 1 for k in k_list) or len(set(k_list)) < len(k_list):
        raise ConfigError(f"cutoffs must be distinct positive integers, got {k_list}")
    return k_list


def check_sampling(n_negatives: int, repeats: int) -> None:
    """ConfigError unless item evaluation draws at least one negative, at least once."""
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    if n_negatives < 1:
        raise ConfigError(f"n_negatives must be >= 1, got {n_negatives}")


def _ranks(scores: np.ndarray, valid: np.ndarray, task: str) -> np.ndarray:
    """rank_of_first of each row of a score matrix, over its valid entries."""
    bad = int(np.count_nonzero(valid & ~np.isfinite(scores)))
    if bad:
        raise NonFiniteError(f"{task} evaluation: {bad} non-finite scores")
    return rank_of_first(np.where(valid, scores, -np.inf))


def _report(task, split_name, k_list, ranks, warnings, n_negatives=None) -> EvalReport:
    """Reduce a (repeats, pairs) matrix of ranks to an EvalReport.

    HR and NDCG are averaged over the pairs of each repeat; the report holds
    their mean and standard deviation across repeats.
    """
    repeats, n = ranks.shape
    if n == 0:
        zeros = (dict.fromkeys(k_list, 0.0) for _ in range(4))
        return EvalReport(task, split_name, k_list, *zeros, 0, 0,
                          warnings=(*warnings, "no pairs to evaluate"))
    stats = []
    for per_pair in rank_metrics(ranks, k_list):
        # cumsum adds the pairs left to right, as a per-pair loop does, so
        # reports do not depend on numpy's pairwise summation
        per_repeat = {k: np.cumsum(v, axis=1)[:, -1] / n for k, v in per_pair.items()}
        stats.append(({k: float(v.mean()) for k, v in per_repeat.items()},
                      {k: float(v.std()) for k, v in per_repeat.items()}))
    (hr, hr_std), (ndcg, ndcg_std) = stats
    return EvalReport(task, split_name, k_list, hr, ndcg, hr_std, ndcg_std, n, repeats,
                      n_negatives, tuple(warnings))


def _draw_negatives(rng: np.random.Generator, rated: np.ndarray, take: int):
    """Draw ``take`` items per row of a (rows, N) rated mask, without replacement.

    Each item gets a uniform random key, rated items +inf, and the ``take``
    smallest keys are drawn.  Returns (negatives, valid); valid is False where
    a row's unrated pool ran out and the slot holds a rated item.  Keys are
    drawn row after row, so drawing a block of rows at a time changes nothing.
    """
    keys = rng.random(rated.shape)
    keys[rated] = np.inf
    negs = np.argpartition(keys, take - 1, axis=1)[:, :take]
    return negs, np.take_along_axis(keys, negs, axis=1) < np.inf


def evaluate_item_rec(
    params: ModelParams,
    cfg: ModelConfig,
    split: SplitDataset,
    k_list=(5, 10, 15, 20),
    n_negatives: int = 1000,
    repeats: int = 10,
    seed: int = 0,
    split_name: str = "test",
) -> EvalReport:
    """Rank each held-out positive against sampled unrated negatives.

    The candidate pool for a user excludes every item the user rated in any
    portion of the split.  Negatives are drawn without replacement; when the
    pool is smaller than ``n_negatives`` the whole pool is used once and a
    warning is recorded.  Repeat r draws the negatives of all pairs, in
    sorted pair order, from the r-th generator spawned from ``seed``.

    Pairs are taken a block at a time, and each block runs every repeat.
    When ``repeats * (take + 1)`` exceeds the catalog, ``take`` being the
    negatives actually drawn per pair, the block scores each of its users
    against every item once, through ``score_catalog``, and each repeat
    gathers its candidates' scores from that; otherwise each repeat scores
    its candidates with ``score_pairs``.  The catalog path scores every
    item, so a visual model raises MissingFramesError for any item without
    frames, drawn or not.
    """
    k_list = check_cutoffs(k_list)
    if split_name not in ITEM_SPLITS:
        raise ConfigError(f"unknown split_name {split_name!r}")
    check_sampling(n_negatives, repeats)
    check_seed(seed)
    users, positives = split.pairs(split_name).T
    if not len(users):
        return _report("item", split_name, k_list, np.empty((0, 0)), ())

    base = split.base
    rated = base.items_of_user
    n_rated = np.bincount(base.ratings[:, 0], minlength=base.num_users)
    pool = base.num_items - n_rated[users]
    take = int(min(n_negatives, pool.max()))
    warnings = []
    short = int(np.count_nonzero(pool < n_negatives))
    if short:
        warnings.append(
            f"{short} of {len(users)} pairs had fewer than {n_negatives} "
            "unrated items; used the full pool"
        )
        logger.warning(warnings[-1])

    table = item_visual_table(params, cfg, dataset=base)
    rows = max(1, CANDIDATE_BLOCK // base.num_items)
    catalog = repeats * (take + 1) > base.num_items
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(repeats)]
    ranks = np.empty((repeats, len(users)), dtype=np.int64)
    for lo in range(0, len(users), rows):
        u = users[lo: lo + rows]
        # the block's rows of the (users, items) rated mask, never held whole
        mask = np.zeros((len(u), base.num_items), dtype=bool)
        mask[np.repeat(np.arange(len(u)), n_rated[u]),
             np.concatenate([rated[x] for x in u])] = True
        if catalog:
            uniq, inverse = np.unique(u, return_inverse=True)
            block = score_catalog(uniq, params, cfg, base, table=table)[inverse]
        for r, rng in enumerate(rngs):
            negs, valid = _draw_negatives(rng, mask, take)
            cands = np.column_stack([positives[lo: lo + rows], negs])
            if catalog:
                scores = np.take_along_axis(block, cands, axis=1)
            else:
                scores = score_pairs(u[:, None], cands, params, cfg, base, table=table)
            valid = np.column_stack([np.ones(len(u), dtype=bool), valid])
            ranks[r, lo: lo + rows] = _ranks(scores, valid, "item")
    return _report("item", split_name, k_list, ranks, warnings, n_negatives)


def _frame_report(task, split: SplitDataset, k_list, exclude_singletons, score):
    """Rank each liked frame among its parent item's frames.

    ``score(users, frames)`` is called once, on the (user, frame) pairs of
    the padded (pairs, max frames) matrix in row-major order: pair by pair,
    and within a pair in the item's frame order.
    """
    k_list = check_cutoffs(k_list)
    base = split.base
    pairs = split.frame_test
    ids, mask, counts = base.frame_table
    items = base.frame_parent[pairs[:, 1]]
    warnings = []
    if exclude_singletons:
        single = counts[items] == 1
        if single.any():
            warnings.append(f"skipped {int(single.sum())} single-frame items")
        pairs, items = pairs[~single], items[~single]
    frames, valid = ids[items], mask[items]
    scores = np.zeros(frames.shape)
    scores[valid] = score(np.broadcast_to(pairs[:, :1], frames.shape)[valid], frames[valid])
    # the liked frame's score trades places with column 0, the positive's
    rows = np.arange(len(pairs))
    liked = np.argmax(frames == pairs[:, 1:], axis=1)
    scores[rows, 0], scores[rows, liked] = scores[rows, liked], scores[rows, 0]
    return _report(task, "test", k_list, _ranks(scores, valid, task)[None], warnings)


def evaluate_frame_rec(
    params: ModelParams,
    cfg: ModelConfig,
    split: SplitDataset,
    k_list=(1, 2, 3),
    exclude_singletons: bool = False,
) -> EvalReport:
    """Rank each liked frame against all frames of its parent item.

    Exhaustive and deterministic, so repeats and negative sampling do not
    apply.  score_frames raises UnsupportedTaskError when the visual pathway
    is off, because the model then has no frame scores at all.
    """
    return _frame_report(
        "frame", split, k_list, exclude_singletons,
        lambda users, frames: score_frames(users, frames, params, cfg, split.base),
    )


def random_frame_baseline(
    split: SplitDataset,
    k_list=(1, 2, 3),
    seed: int = 0,
    exclude_singletons: bool = False,
) -> EvalReport:
    """Frame evaluation with uniform random scores instead of the model's.

    The reference point for the frame task: with m frames per item its
    expected hit rate at K is K/m.
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    return _frame_report(
        "frame_baseline", split, k_list, exclude_singletons,
        lambda users, frames: rng.random(len(frames)),
    )
