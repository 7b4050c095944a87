"""Synthetic dataset generation from a planted ground-truth model.

A hidden "teacher" instance of the full attention model produces both the
implicit item feedback (each user's top-scoring items) and the per-pair
frame likes (each rated item's top-scoring frames for that user).  Because
the teacher is an instance of the same model family, recovery experiments
can measure how much of its structure training recaptures.

A minority of each item's frames is shifted along a common feature-space
direction.  These salient frames carry most of the between-frame variance,
which gives the frame attention something to lock onto.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .data import Dataset, _pair_array, check_dataset
from .errors import ConfigError, check_integers, check_seed
from . import model
from .model import FUSION_ATT, VISUAL_ATT, ModelConfig, ModelParams, score_catalog, score_frames


SALIENT_FRAC, SALIENT_SHIFT = 0.25, 2.5  # the share of each item's frames shifted, and by how much
ATTENTION_GAIN = 2.5  # scales the teacher's attention output weights, sharpening its frame weights


@dataclass(frozen=True)
class SynthConfig:
    """Sizes and the seed of the generator.

    ``latent_dim`` is the teacher's factor dimension (students may use any
    dimension).
    """

    num_users: int = 200
    num_items: int = 300
    frames_per_item: int = 5
    feature_dim: int = 16
    latent_dim: int = 8
    ratings_per_user: int = 20
    frame_likes_per_pair: int = 1
    seed: int = 0

    def __post_init__(self):
        check_integers(self, [f.name for f in fields(self)])  # every field is a count or the seed
        if min(
            self.num_users, self.num_items, self.frames_per_item,
            self.feature_dim, self.latent_dim, self.ratings_per_user,
            self.frame_likes_per_pair,
        ) < 1:
            raise ConfigError("all synthetic sizes must be >= 1")
        if self.ratings_per_user > self.num_items:
            raise ConfigError("ratings_per_user cannot exceed num_items")
        if self.frame_likes_per_pair > self.frames_per_item:
            raise ConfigError("frame_likes_per_pair cannot exceed frames_per_item")
        check_seed(self.seed)


@dataclass(frozen=True)
class PlantedModel:
    """The teacher: a full-attention model instance with known parameters."""

    cfg: ModelConfig
    params: ModelParams


def _tokens(prefix: str, count: int) -> tuple:
    """Zero-padded tokens whose lexical order matches numeric order.

    ``prefix`` and ``str(k).zfill(width)`` are joined, which is faster than
    a nested format spec and gives the same strings for every ``k >= 0``.
    """
    width = max(1, len(str(count - 1)))
    return tuple(prefix + str(k).zfill(width) for k in range(count))


def _planted_params(cfg: SynthConfig, rng: np.random.Generator) -> ModelParams:
    """Teacher tensors at natural scales.

    Latent factors use std 1/sqrt(d) so collaborative dot products are O(1);
    the visual projection uses std 1/sqrt(F) so projected frame embeddings
    have O(1) entries, which makes the visual channel the stronger of the
    two.  MLP layers use He fan-in scaling.
    """
    d, f = cfg.latent_dim, cfg.feature_dim
    s_lat = 1.0 / np.sqrt(d)
    s_feat = 1.0 / np.sqrt(f)
    # Unit-scale visual user factors make the visual dot product the dominant
    # score component (std ~ sqrt(d) vs ~ 1/sqrt(d) for the collaborative one).
    return ModelParams(
        user_collab=rng.normal(0.0, s_lat, (cfg.num_users, d)),
        item_collab=rng.normal(0.0, s_lat, (cfg.num_items, d)),
        user_visual=rng.normal(0.0, 1.0, (cfg.num_users, d)),
        visual_proj=rng.normal(0.0, s_feat, (d, f)),
        attn_reduce=rng.normal(0.0, s_feat, (d, f)),
        attn_hidden=rng.normal(0.0, np.sqrt(2.0 / (2 * d)), (d, 2 * d)),
        attn_out=rng.normal(0.0, ATTENTION_GAIN * np.sqrt(2.0 / d), (d,)),
        fusion_hidden=rng.normal(0.0, np.sqrt(2.0 / (2 * d)), (d, 2 * d)),
        fusion_out=rng.normal(0.0, np.sqrt(2.0 / d), (d,)),
    )


def _teacher_config(cfg: SynthConfig) -> ModelConfig:
    d = cfg.latent_dim
    return ModelConfig(
        d1=d,
        d2=d,
        attn_hidden_visual=d,
        attn_hidden_rating=d,
        reduced_visual_dim=d,
        visual_mode=VISUAL_ATT,
        fusion_mode=FUSION_ATT,
        seed=cfg.seed,
    )


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(-scores, axis=1, kind="stable")[:, :k]`` of finite scores, without a full sort.

    The entries at or above a row's k-th largest score are its candidates
    (more than k when that score is tied); they are sorted by (-score, id)
    and each row keeps its first k.
    """
    n = scores.shape[1]
    kth = np.partition(scores, n - k, axis=1)[:, n - k]
    rows, cols = np.nonzero(scores >= kth[:, None])  # row-major, so each row's run is contiguous
    order = np.lexsort((cols, -scores[rows, cols], rows))
    starts = np.searchsorted(rows, np.arange(len(scores)))
    return cols[order[starts[:, None] + np.arange(k)]]


def planted_top_items(planted: PlantedModel, dataset: Dataset, k: int) -> np.ndarray:
    """Each user's k top teacher-scored items, shape (M, k), best first.

    Ties break toward the smaller item id.  ``score_catalog`` scores the
    users a block at a time and only each block's top k is kept, so the
    (M, N) score matrix is never held; the block size changes no result.
    """
    users = np.arange(dataset.num_users, dtype=np.int64)
    return score_catalog(users, planted.params, planted.cfg, dataset,
                         keep=lambda scores, _: _top_k(scores, k))


def planted_frame_likes(planted: PlantedModel, dataset: Dataset, k: int) -> np.ndarray:
    """Top-k teacher-scored frames of every rated (user, item) pair.

    Scores only the rated pairs' frames, by the visual channel alone
    (``score_frames``).  Ties break toward the smaller frame id; a pair with
    k or fewer frames likes them all.  Returns the (user, frame) likes of
    all ratings as sorted (L, 2) int64 rows; split_ratings keeps the test
    ones.  Each pair's row is sorted on its own, in ``score_frames``' blocks
    of pairs spread over the CPUs (``model._run_blocks``), so neither the
    blocks nor the threads move a like.
    """
    ids = dataset.frame_table[0]
    users, items = dataset.ratings.T
    scores = score_frames(users, items, planted.params, planted.cfg, dataset)
    top = np.empty((len(users), min(k, ids.shape[1])), dtype=ids.dtype)  # at most m frames each
    liked = np.empty(top.shape, dtype=bool)

    def block(b):
        order = np.argsort(-scores[b], axis=1, kind="stable")[:, :k]  # ties keep the smaller id
        liked[b] = np.take_along_axis(scores[b], order, axis=1) > -np.inf  # not padding
        top[b] = np.take_along_axis(ids[items[b]], order, axis=1)

    step = model.CACHE_BLOCK // (ids.shape[1] * planted.cfg.d2)  # score_frames' blocks
    model._run_blocks(block, len(users), max(1, step))
    return _pair_array(np.column_stack([np.broadcast_to(users[:, None], top.shape)[liked],
                                        top[liked]]))


def generate_synthetic(cfg: SynthConfig):
    """Build a synthetic dataset; returns (dataset, frame_likes, planted).

    Frame features are unit normal, with each item's salient minority
    shifted along one shared unit direction.  Each user's ratings are their
    top ``ratings_per_user`` items by teacher score (ties toward the smaller
    item id), and each rated pair gets ``frame_likes_per_pair`` liked frames
    the same way.  Fully deterministic in cfg.seed.
    """
    root = np.random.SeedSequence(cfg.seed)
    feat_rng, param_rng = (np.random.default_rng(s) for s in root.spawn(2))

    n_frames = cfg.num_items * cfg.frames_per_item
    features = feat_rng.normal(0.0, 1.0, (n_frames, cfg.feature_dim))
    direction = feat_rng.normal(0.0, 1.0, cfg.feature_dim)
    direction /= np.linalg.norm(direction)
    n_salient = int(round(SALIENT_FRAC * cfg.frames_per_item))
    salient = np.zeros(n_frames, dtype=bool)
    for item in range(cfg.num_items):
        lo = item * cfg.frames_per_item
        picks = feat_rng.choice(cfg.frames_per_item, size=n_salient, replace=False)
        salient[lo + picks] = True
    features[salient] += SALIENT_SHIFT * direction

    frame_parent = np.repeat(np.arange(cfg.num_items, dtype=np.int64), cfg.frames_per_item)

    planted = PlantedModel(cfg=_teacher_config(cfg), params=_planted_params(cfg, param_rng))

    skeleton = Dataset(
        ratings=(),
        frame_parent=frame_parent,
        frame_features=features,
        user_ids=_tokens("u", cfg.num_users),
        item_ids=_tokens("i", cfg.num_items),
        frame_ids=_tokens("f", n_frames),
    )
    top = planted_top_items(planted, skeleton, cfg.ratings_per_user)
    users = np.repeat(np.arange(cfg.num_users), cfg.ratings_per_user)
    dataset = replace(skeleton, ratings=np.column_stack([users, top.ravel()]))
    check_dataset(dataset)
    likes = planted_frame_likes(planted, dataset, cfg.frame_likes_per_pair)
    return dataset, likes, planted
