"""Synthetic generator: determinism, sizes, and planted-model consistency."""

import numpy as np
import pytest

from framerec.data import check_dataset
from framerec import synth
from framerec.errors import ConfigError
from framerec.synth import (
    SynthConfig,
    generate_synthetic,
    planted_frame_scores,
    planted_item_scores,
)

SMALL = dict(num_users=12, num_items=20, frames_per_item=4, feature_dim=6,
             latent_dim=4, ratings_per_user=5, frame_likes_per_pair=2, seed=11)


class TestGeneration:
    def test_sizes(self):
        ds, likes, _ = generate_synthetic(SynthConfig(**SMALL))
        assert ds.num_users == 12 and ds.num_items == 20
        assert ds.num_frames == 80 and ds.feature_dim == 6
        assert len(ds.ratings) == 12 * 5
        assert len(likes) == 12 * 5 * 2
        check_dataset(ds)
        for u in range(ds.num_users):
            assert len(ds.items_of_user[u]) == 5

    def test_user_blocks_do_not_change_the_dataset(self, monkeypatch):
        ds, likes, _ = generate_synthetic(SynthConfig(**SMALL))
        monkeypatch.setattr(synth, "CANDIDATE_BLOCK", 1)  # one user per block
        one_ds, one_likes, _ = generate_synthetic(SynthConfig(**SMALL))
        assert one_ds.ratings == ds.ratings and one_likes == likes

    def test_deterministic(self):
        a_ds, a_likes, a_pl = generate_synthetic(SynthConfig(**SMALL))
        b_ds, b_likes, b_pl = generate_synthetic(SynthConfig(**SMALL))
        assert a_ds.ratings == b_ds.ratings and a_likes == b_likes
        np.testing.assert_array_equal(a_ds.frame_features, b_ds.frame_features)
        np.testing.assert_array_equal(
            a_pl.params.user_visual, b_pl.params.user_visual
        )
        c_ds, _, _ = generate_synthetic(SynthConfig(**{**SMALL, "seed": 12}))
        assert c_ds.ratings != a_ds.ratings

    def test_tokens_sort_like_ids(self):
        ds, _, _ = generate_synthetic(SynthConfig(**SMALL))
        assert list(ds.item_ids) == sorted(ds.item_ids)
        assert list(ds.user_ids) == sorted(ds.user_ids)

    def test_ratings_are_teacher_top_k(self):
        cfg = SynthConfig(**SMALL)
        ds, _, planted = generate_synthetic(cfg)
        scores = planted_item_scores(planted, ds)
        for u in range(ds.num_users):
            rated = set(ds.items_of_user[u].tolist())
            worst_rated = min(scores[u, sorted(rated)])
            unrated = [i for i in range(ds.num_items) if i not in rated]
            assert worst_rated >= max(scores[u, unrated])

    def test_likes_are_teacher_top_frames_of_rated_items(self):
        cfg = SynthConfig(**SMALL)
        ds, likes, planted = generate_synthetic(cfg)
        fscores = planted_frame_scores(planted, ds)
        by_pair = {}
        for u, f in likes:
            item = int(ds.frame_parent[f])
            assert (u, item) in ds.ratings
            by_pair.setdefault((u, item), set()).add(f)
        for (u, item), liked in by_pair.items():
            assert len(liked) == cfg.frame_likes_per_pair
            others = set(ds.frames_of_item[item]) - liked
            worst_liked = min(fscores[u, sorted(liked)])
            if others:
                assert worst_liked >= max(fscores[u, sorted(others)])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(**{**SMALL, "ratings_per_user": 21})
        with pytest.raises(ConfigError):
            SynthConfig(**{**SMALL, "frame_likes_per_pair": 5})
        with pytest.raises(ConfigError):
            SynthConfig(**{**SMALL, "num_users": 0})
        with pytest.raises(ConfigError):
            SynthConfig(**{**SMALL, "salient_frac": 1.5})

    def test_salient_minority_shifts_features(self):
        cfg = SynthConfig(**{**SMALL, "salient_shift": 50.0})
        ds, _, _ = generate_synthetic(cfg)
        norms = np.linalg.norm(ds.frame_features, axis=1)
        big = norms > 25.0
        # one salient frame per item at salient_frac 0.25 of 4 frames
        assert big.sum() == ds.num_items
        per_item = big.reshape(ds.num_items, cfg.frames_per_item).sum(axis=1)
        assert (per_item == 1).all()
