"""Ranking evaluation for item and frame recommendation.

Both tasks rank a held-out positive within a row of candidate scores, fill
a (repeats, pairs) matrix with its ranks, and reduce that matrix to HR@K
and NDCG@K.  Item evaluation follows the sampled-candidates protocol: each
positive is ranked against negatives drawn from the items its user never
rated anywhere, and the draw is repeated, by one of two paths that sample
the same distribution of ranks from different random bits (see
``evaluate_item_rec``); pools smaller than the negatives asked for give exact
ranks on both.  Frame evaluation is exhaustive: a liked frame is ranked
against all frames of its parent item, so it needs no sampling and no repeats.

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
)

logger = logging.getLogger(__name__)

# Item evaluation's candidate path draws DRAW_BLOCK // num_items pairs'
# negatives at a time, over at most this many bools, and scores each such
# chunk in one score_catalog call.  It changes no draw.
DRAW_BLOCK = 1 << 21

# The split portions item evaluation ranks, named as in data.PORTIONS.
ITEM_SPLITS = ("test", "validation")


def rank_metrics(ranks, k_list) -> tuple:
    """(hr, ndcg) dicts keyed by cutoff, each value an array shaped like ``ranks``."""
    ranks = np.asarray(ranks)
    gain = 1.0 / np.log2(ranks + 1.0)
    hr = {k: np.where(ranks <= k, 1.0, 0.0) for k in k_list}
    ndcg = {k: np.where(ranks <= k, gain, 0.0) for k in k_list}
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


def _ranks(positive: np.ndarray, scores: np.ndarray, valid: np.ndarray, task: str):
    """Rank of each row's ``positive`` among the row's valid ``scores``, which hold it:
    how many are >= it, so ties rank it worst.  NonFiniteError for a valid non-finite score."""
    bad = int(np.count_nonzero(valid & ~np.isfinite(scores)))
    if bad:
        raise NonFiniteError(f"{task} evaluation: {bad} non-finite scores")
    return np.count_nonzero(valid & (scores >= positive[:, None]), axis=1)


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


def _draw_pool(rng: np.random.Generator, pool: np.ndarray, take: int):
    """Draw min(take, P) distinct pool indices in [0, P) for each pool size P in ``pool``.

    Returns (negatives, valid), (rows, take) with rows ascending; valid is
    False past a row's pool.  A row with P <= take holds its whole pool; one
    with P > take runs Floyd's algorithm (Bentley & Floyd, CACM 1987) on
    ``take`` uniforms of its own, so the rows drawn at a time change no draw.
    All rows step together over a (rows, max P) membership workspace.
    """
    negs = np.tile(np.arange(take), (len(pool), 1))
    big = np.flatnonzero(pool > take)
    if len(big):
        # step i draws t uniform in [0, j], j = P - take + i, and takes j instead if t is taken
        u = rng.random((len(big), take)).T  # column r holds row r's uniforms
        j = pool[big] - take + np.arange(take)[:, None]
        t = np.ascontiguousarray((u * (j + 1)).astype(np.int64))
        width = int(pool[big].max())
        offset = np.arange(len(big)) * width
        seen = np.zeros(len(big) * width, dtype=bool)
        for i in range(take):
            t[i] = np.where(seen[offset + t[i]], j[i], t[i])
            seen[offset + t[i]] = True
        negs[big] = np.sort(t.T, axis=1)  # sorted lookups make unrated_items' search faster
    return negs, negs < pool[:, None]


def evaluate_item_rec(params: ModelParams, cfg: ModelConfig, split: SplitDataset,
                      k_list=(5, 10, 15, 20), n_negatives: int = 1000, repeats: int = 10,
                      seed: int = 0, split_name: str = "test") -> EvalReport:
    """Rank each held-out positive against sampled unrated negatives.

    A user's pool holds the P items the user rated in no portion of the
    split.  Negatives are drawn without replacement; when the pool is
    smaller than ``n_negatives`` it is used whole and a warning is recorded.
    Repeat r draws for all pairs, in sorted pair order, from the r-th
    generator spawned from ``seed``.

    When ``repeats * (take + 1)`` exceeds the catalog, ``take`` being the
    negatives drawn per pair, one ``score_catalog`` call scores each of the
    portion's users against every item, once (so a visual model raises
    MissingFramesError for any item without frames), and c counts the pool
    items scoring at least the positive.  Of min(take, P) negatives,
    Hypergeometric(c, P - c, min(take, P)) score at least it (Krichene &
    Rendle, KDD 2020), so each repeat ranks it at 1 plus one such draw.
    Otherwise each repeat draws the negatives by ``_draw_pool`` and
    ``score_catalog`` scores each pair's candidates.
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
    short = int(np.count_nonzero(pool < n_negatives))
    warnings = [f"{short} of {len(users)} pairs had fewer than {n_negatives} "
                "unrated items; used the full pool"] if short else []
    for warning in warnings:
        logger.warning(warning)

    table = item_visual_table(params, cfg, dataset=base)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(repeats)]
    if repeats * (take + 1) > base.num_items:
        # pairs are sorted, so each block of users holds a run of pairs
        uniq, first = np.unique(users, return_index=True)
        bounds = np.append(first, len(users))

        def count(scores, b):
            # the run's rows of the (pairs, items) rated mask, never held whole,
            # with each positive left out of it, so that it counts itself
            per_user = np.diff(bounds[b.start: b.stop + 1])
            run = slice(bounds[b.start], bounds[b.start] + per_user.sum())
            u, p, at = users[run], positives[run], np.arange(per_user.sum())
            mask = np.zeros((len(u), base.num_items), dtype=bool)
            mask[np.repeat(at, n_rated[u]), np.concatenate([rated[x] for x in u])] = True
            mask[at, p] = False
            scores = np.repeat(scores, per_user, axis=0)
            return _ranks(scores[at, p], scores, ~mask, "item") - 1

        count = score_catalog(uniq, params, cfg, base, table=table, keep=count)
        drawn = np.minimum(take, pool)
        ranks = 1 + np.array([rng.hypergeometric(count, pool - count, drawn) for rng in rngs])
        return _report("item", split_name, k_list, ranks, warnings, n_negatives)

    ranks = np.empty((repeats, len(users)), dtype=np.int64)
    chunk = max(1, DRAW_BLOCK // base.num_items)
    for lo in range(0, len(users), chunk):
        u, pos = users[lo: lo + chunk], positives[lo: lo + chunk]
        for r, rng in enumerate(rngs):
            negs, valid = _draw_pool(rng, pool[lo: lo + chunk], take)
            # the positive first; a slot past the pool holds it again, not counted
            cands = np.column_stack([pos, np.where(valid, base.unrated_items(u[:, None], negs),
                                                   pos[:, None])])
            valid = np.column_stack([np.ones(len(u), dtype=bool), valid])
            scores = score_catalog(u, params, cfg, base, table=table, items=cands)
            ranks[r, lo: lo + len(u)] = _ranks(scores[:, 0], scores, valid, "item")
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
    liked = scores[np.arange(len(pairs)), np.argmax(frames == pairs[:, 1:], axis=1)]
    return _report(task, "test", k_list, _ranks(liked, scores, valid, task)[None], warnings)


def evaluate_frame_rec(params: ModelParams, cfg: ModelConfig, split: SplitDataset,
                       k_list=(1, 2, 3), exclude_singletons: bool = False) -> EvalReport:
    """Rank each liked frame against all frames of its parent item.

    Exhaustive and deterministic, so repeats and negative sampling do not
    apply.  score_frames raises UnsupportedTaskError when the visual pathway
    is off, because the model then has no frame scores at all.
    """
    return _frame_report("frame", split, k_list, exclude_singletons,
                         lambda users, frames: score_frames(users, frames, params, cfg, split.base))


def random_frame_baseline(split: SplitDataset, k_list=(1, 2, 3), seed: int = 0,
                          exclude_singletons: bool = False) -> EvalReport:
    """Frame evaluation with uniform random scores instead of the model's.

    The reference point for the frame task: with m frames per item its
    expected hit rate at K is K/m.
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    return _frame_report("frame_baseline", split, k_list, exclude_singletons,
                         lambda users, frames: rng.random(len(frames)))
