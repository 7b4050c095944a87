"""Synthetic dataset generation from a planted ground-truth model.

A hidden "teacher" instance of the full attention model produces both the
implicit item feedback (each user's top-scoring items) and the per-pair
frame likes (each rated item's top-scoring frames for that user).  Because
the teacher is an instance of the same model family, recovery experiments
can measure how much of its structure training recaptures.

A configurable minority of frames is shifted along a common feature-space
direction.  These salient frames carry most of the between-frame variance,
which gives the frame attention something to lock onto.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, check_dataset
from .errors import ConfigError
from .model import (
    FUSION_ATT,
    VISUAL_ATT,
    ModelConfig,
    ModelParams,
    item_visual_table,
    score_pairs,
)


@dataclass(frozen=True)
class SynthConfig:
    """Sizes and knobs for the generator.

    ``latent_dim`` is the teacher's factor dimension (students may use any
    dimension).  ``salient_frac`` of each item's frames are shifted by
    ``salient_shift`` along a shared random unit direction; ``attention_gain``
    scales the teacher's attention output weights, sharpening its frame
    weighting beyond what fan-in initialisation alone would give.
    """

    num_users: int = 200
    num_items: int = 300
    frames_per_item: int = 5
    feature_dim: int = 16
    latent_dim: int = 8
    ratings_per_user: int = 20
    frame_likes_per_pair: int = 1
    seed: int = 0
    salient_frac: float = 0.25
    salient_shift: float = 2.5
    attention_gain: float = 2.5

    def __post_init__(self):
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
        if not 0 <= self.salient_frac <= 1:
            raise ConfigError("salient_frac must lie in [0, 1]")


@dataclass(frozen=True)
class PlantedModel:
    """The teacher: a full-attention model instance with known parameters."""

    cfg: ModelConfig
    params: ModelParams


def _tokens(prefix: str, count: int) -> tuple:
    """Zero-padded tokens whose lexical order matches numeric order."""
    width = max(1, len(str(count - 1)))
    return tuple(f"{prefix}{k:0{width}d}" for k in range(count))


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
        attn_out=rng.normal(0.0, cfg.attention_gain * np.sqrt(2.0 / d), (d,)),
        fusion_hidden=rng.normal(0.0, np.sqrt(2.0 / (2 * d)), (d, 2 * d)),
        fusion_out=rng.normal(0.0, np.sqrt(2.0 / d), (d,)),
        attn_hidden_bias=np.zeros(d),
        fusion_hidden_bias=np.zeros(d),
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


def planted_item_scores(planted: PlantedModel, dataset: Dataset) -> np.ndarray:
    """Teacher scores for every (user, item) pair, shape (M, N)."""
    m, n = dataset.num_users, dataset.num_items
    table = item_visual_table(planted.params, planted.cfg, dataset)
    users = np.repeat(np.arange(m, dtype=np.int64), n)
    items = np.tile(np.arange(n, dtype=np.int64), m)
    scores = score_pairs(users, items, planted.params, planted.cfg, dataset, table=table)
    return scores.reshape(m, n)


def planted_frame_scores(planted: PlantedModel, dataset: Dataset) -> np.ndarray:
    """Teacher visual-only scores for every (user, frame) pair, shape (M, L)."""
    frame_emb = dataset.frame_features @ planted.params.visual_proj.T
    return planted.params.user_visual @ frame_emb.T


def planted_frame_likes(planted: PlantedModel, dataset: Dataset, k: int) -> frozenset:
    """Top-k teacher-scored frames of every rated (user, item) pair.

    Ties break toward the smaller frame id.  Returns (user, frame) pairs
    covering all ratings; callers filter to a test split as needed.
    """
    scores = planted_frame_scores(planted, dataset)
    likes = set()
    for u, i in sorted(dataset.ratings):
        frames = np.array(dataset.frames_of_item[i], dtype=np.int64)
        order = np.lexsort((frames, -scores[u, frames]))
        for f in frames[order[: min(k, len(frames))]]:
            likes.add((u, int(f)))
    return frozenset(likes)


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
    n_salient = int(round(cfg.salient_frac * cfg.frames_per_item))
    salient = np.zeros(n_frames, dtype=bool)
    for item in range(cfg.num_items):
        lo = item * cfg.frames_per_item
        picks = feat_rng.choice(cfg.frames_per_item, size=n_salient, replace=False)
        salient[lo + picks] = True
    features[salient] += cfg.salient_shift * direction

    frame_parent = np.repeat(np.arange(cfg.num_items, dtype=np.int64), cfg.frames_per_item)
    frames_of_item = tuple(
        tuple(range(i * cfg.frames_per_item, (i + 1) * cfg.frames_per_item))
        for i in range(cfg.num_items)
    )

    planted = PlantedModel(cfg=_teacher_config(cfg), params=_planted_params(cfg, param_rng))

    skeleton = Dataset(
        num_users=cfg.num_users,
        num_items=cfg.num_items,
        num_frames=n_frames,
        feature_dim=cfg.feature_dim,
        ratings=frozenset(),
        frames_of_item=frames_of_item,
        frame_parent=frame_parent,
        frame_features=features,
        user_ids=_tokens("u", cfg.num_users),
        item_ids=_tokens("i", cfg.num_items),
        frame_ids=_tokens("f", n_frames),
    )
    scores = planted_item_scores(planted, skeleton)
    item_ids = np.arange(cfg.num_items, dtype=np.int64)
    ratings = set()
    for u in range(cfg.num_users):
        order = np.lexsort((item_ids, -scores[u]))
        for i in order[: cfg.ratings_per_user]:
            ratings.add((u, int(i)))

    dataset = replace(skeleton, ratings=frozenset(ratings))
    check_dataset(dataset)
    likes = planted_frame_likes(planted, dataset, cfg.frame_likes_per_pair)
    return dataset, likes, planted
