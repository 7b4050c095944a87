"""Synthetic generator: determinism, sizes, and planted-model consistency."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from framerec.data import check_dataset
from framerec import model, synth
from framerec.errors import ConfigError
from framerec.synth import (
    SynthConfig,
    generate_synthetic,
    planted_frame_likes,
)

from conftest import every_item_blocks, traced_peak
from reference import (planted_frame_likes_per_pair, planted_frame_scores, planted_item_scores,
                       top_k_stable)

SMALL = dict(num_users=12, num_items=20, frames_per_item=4, feature_dim=6,
             latent_dim=4, ratings_per_user=5, frame_likes_per_pair=2, seed=11)

# sha256 of repr((sorted ratings, sorted likes)): a generator change that
# moves a single rating or like fails here
PINNED = {
    "default": "cc60abb01e08b53aba1fe8591726593c9dce01a5c74bfdd8405a549273a7e959",
    "small": "d24f4a244d0f186b04818fb28945f5963d608cda5993479b645c0eb2a7fd4738",
}


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
        # one user per every-item block, one item per table block, one pair per like block
        monkeypatch.setattr(model, "CACHE_BLOCK", 1)
        catalog_calls = every_item_blocks(monkeypatch, synth)
        one_ds, one_likes, _ = generate_synthetic(SynthConfig(**SMALL))
        assert catalog_calls == [[1] * SMALL["num_users"]]
        assert np.array_equal(one_ds.ratings, ds.ratings) and np.array_equal(one_likes, likes)

    # integer scores in 0..3 over 30 items: every row ties across its k-th place
    @pytest.mark.parametrize("k", [1, 2, 7, 29, 30])
    def test_top_k_matches_a_stable_argsort(self, k):
        rng = np.random.default_rng(k)
        scores = rng.integers(0, 4, size=(40, 30)).astype(np.float64)
        scores[0] = 0.0  # one row tied throughout
        scores[1, ::2] = -0.0  # signed zeros tie with zeros
        assert np.array_equal(synth._top_k(scores, k), top_k_stable(scores, k))

    def test_deterministic(self):
        a_ds, a_likes, a_pl = generate_synthetic(SynthConfig(**SMALL))
        b_ds, b_likes, b_pl = generate_synthetic(SynthConfig(**SMALL))
        assert np.array_equal(a_ds.ratings, b_ds.ratings) and np.array_equal(a_likes, b_likes)
        np.testing.assert_array_equal(a_ds.frame_features, b_ds.frame_features)
        np.testing.assert_array_equal(
            a_pl.params.user_visual, b_pl.params.user_visual
        )
        c_ds, _, _ = generate_synthetic(SynthConfig(**{**SMALL, "seed": 12}))
        assert not np.array_equal(c_ds.ratings, a_ds.ratings)

    def test_tokens_sort_like_ids(self):
        ds, _, _ = generate_synthetic(SynthConfig(**SMALL))
        assert list(ds.item_ids) == sorted(ds.item_ids)
        assert list(ds.user_ids) == sorted(ds.user_ids)

    @pytest.mark.parametrize("count", [1, 2, 10, 11, 100, 101, 24000])
    def test_tokens_match_the_nested_format(self, count):
        width = len(str(count - 1))
        assert synth._tokens("f", count) == tuple(f"f{k:0{width}d}" for k in range(count))

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
        rated = set(map(tuple, ds.ratings.tolist()))
        by_pair = {}
        for u, f in likes:
            item = int(ds.frame_parent[f])
            assert (u, item) in rated
            by_pair.setdefault((u, item), set()).add(f)
        for (u, item), liked in by_pair.items():
            assert len(liked) == cfg.frame_likes_per_pair
            others = set(np.flatnonzero(ds.frame_parent == item).tolist()) - liked
            worst_liked = min(fscores[u, sorted(liked)])
            if others:
                assert worst_liked >= max(fscores[u, sorted(others)])

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_data_is_pinned(self, name):
        ds, likes, _ = generate_synthetic(SynthConfig(**(SMALL if name == "small" else {})))
        text = repr((sorted(map(tuple, ds.ratings.tolist())), sorted(map(tuple, likes.tolist()))))
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED[name]

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_data_is_pinned_on_two_threads(self, monkeypatch, name):
        """The pins hold when two threads score the user blocks (``model._cpus``
        patched, so that the pool runs on a one-CPU host too): the default
        data's two blocks of 100 users, and the small data one user a block."""
        monkeypatch.setattr(model, "_cpus", lambda: 2)
        if name == "small":  # else one block per CPU
            monkeypatch.setattr(model, "CACHE_BLOCK", 1)
        catalog_calls = every_item_blocks(monkeypatch, synth)
        self.test_data_is_pinned(name)
        assert catalog_calls == [[1] * SMALL["num_users"] if name == "small" else [100, 100]]

    def test_frame_likes_score_only_the_rated_pairs_frames(self):
        cfg = SynthConfig(num_users=400, num_items=1000, frames_per_item=20, feature_dim=16)
        ds, likes, planted = generate_synthetic(cfg)
        dense_bytes = ds.num_users * ds.num_frames * 8  # a (users, frames) float64 matrix
        again, peak = traced_peak(lambda: planted_frame_likes(planted, ds,
                                                              cfg.frame_likes_per_pair))
        assert np.array_equal(again, likes)
        assert peak < dense_bytes / 2, (peak, dense_bytes)

    @pytest.mark.parametrize("k", [1, "m"])
    def test_frame_likes_match_a_per_pair_oracle_on_uneven_frames(self, k):
        """On items of 2 to 11 frames, each rated pair likes its k best frames by
        the scalar frame score, ties toward the smaller frame id, for k = 1 and
        k = m, the widest item's frame count."""
        ds, _, planted = generate_synthetic(SynthConfig(**SMALL))
        counts = np.random.default_rng(5).multinomial(60, np.full(20, 1 / 20)) + 1
        ds = replace(ds, frame_parent=np.repeat(np.arange(20, dtype=np.int64), counts))
        assert len(set(counts.tolist())) > 2 and counts.sum() == ds.num_frames
        k = ds.frame_table[0].shape[1] if k == "m" else k
        got = planted_frame_likes(planted, ds, k)
        assert np.array_equal(got, planted_frame_likes_per_pair(planted, ds, k))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_frame_likes_do_not_depend_on_the_blocks_or_the_cpus(self, monkeypatch, cpus):
        """Blocks of 1, 7 and 16 rated pairs (``m * d`` floats a pair), and one block
        of all 60, give the default call's likes, on one CPU and on two; the likes
        are sorted in ``score_frames``' own blocks, by its ``keep``."""
        ds, likes, planted = generate_synthetic(SynthConfig(**SMALL))
        monkeypatch.setattr(model, "_cpus", lambda: cpus)
        seen, real = [], synth.score_frames

        def spy(*args, keep):
            def seen_keep(scores, rows):
                seen.append((rows.start, len(scores)))  # blocks run on several threads
                return keep(scores, rows)
            return real(*args, keep=seen_keep)

        monkeypatch.setattr(synth, "score_frames", spy)
        per_pair = SMALL["frames_per_item"] * SMALL["latent_dim"]
        for pairs, sizes in ((1, [1] * 60), (7, [7] * 8 + [4]), (16, [16] * 3 + [12]), (60, [60])):
            monkeypatch.setattr(model, "CACHE_BLOCK", pairs * per_pair)
            seen.clear()
            got = planted_frame_likes(planted, ds, SMALL["frame_likes_per_pair"])
            assert got.tobytes() == likes.tobytes(), pairs
            assert [size for _, size in sorted(seen)] == sizes, pairs
        assert len(ds.ratings) == 60

    @pytest.mark.parametrize("frames", [1, 4])
    def test_frame_likes_past_the_frame_count_like_every_frame(self, monkeypatch, frames):
        """``k`` above the frame table's width m likes each rated pair's every frame,
        as ``k = m`` does, in one block and in 1-pair blocks on two CPUs."""
        ds, _, planted = generate_synthetic(
            SynthConfig(**{**SMALL, "frames_per_item": frames, "frame_likes_per_pair": 1}))
        ids, mask, _ = ds.frame_table
        users, items = ds.ratings.T
        every = np.unique(np.column_stack([np.repeat(users, mask[items].sum(axis=1)),
                                           ids[items][mask[items]]]), axis=0)
        assert ids.shape[1] == frames
        for k in (frames, frames + 3):
            assert np.array_equal(planted_frame_likes(planted, ds, k), every), k
        monkeypatch.setattr(model, "_cpus", lambda: 2)
        monkeypatch.setattr(model, "CACHE_BLOCK", 1)
        assert np.array_equal(planted_frame_likes(planted, ds, frames + 3), every)

    def test_ratings_never_hold_the_dense_score_matrix(self):
        cfg = SynthConfig(num_users=4000, num_items=1500, frames_per_item=1, feature_dim=2,
                          latent_dim=2, ratings_per_user=5)
        dense_bytes = cfg.num_users * cfg.num_items * 8  # a (users, items) float64 matrix
        (ds, _, _), peak = traced_peak(lambda: generate_synthetic(cfg))
        assert len(ds.ratings) == cfg.num_users * cfg.ratings_per_user
        assert peak < dense_bytes / 2, (peak, dense_bytes)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(**{**SMALL, "ratings_per_user": 21})
        with pytest.raises(ConfigError):
            SynthConfig(**{**SMALL, "frame_likes_per_pair": 5})
        with pytest.raises(ConfigError):
            SynthConfig(**{**SMALL, "num_users": 0})
        with pytest.raises(ConfigError, match="^seed must be an integer >= 0, got -1$"):
            SynthConfig(**{**SMALL, "seed": -1})
        # the salient share and shift and the attention gain are constants, not settings
        for name in ("salient_frac", "salient_shift", "attention_gain"):
            with pytest.raises(TypeError):
                SynthConfig(**{**SMALL, name: 0.5})

    def test_salient_minority_shifts_features(self, monkeypatch):
        monkeypatch.setattr(synth, "SALIENT_SHIFT", 50.0)
        cfg = SynthConfig(**SMALL)
        ds, _, _ = generate_synthetic(cfg)
        norms = np.linalg.norm(ds.frame_features, axis=1)
        big = norms > 25.0
        # one salient frame per item at salient_frac 0.25 of 4 frames
        assert big.sum() == ds.num_items
        per_item = big.reshape(ds.num_items, cfg.frames_per_item).sum(axis=1)
        assert (per_item == 1).all()
