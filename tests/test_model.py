"""Forward scoring: configs, initialisation, attention, fusion, checkpoints."""

import math

import numpy as np
import pytest

from framerec.errors import (
    ConfigError,
    IntegrityError,
    MissingFramesError,
    UnsupportedTaskError,
)
from framerec.model import (
    ModelConfig,
    ModelParams,
    active_param_names,
    dataset_digest,
    init_params,
    item_visual_table,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
    score_frames,
    score_pairs,
)
from framerec.training import gradcheck_instance

import reference

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def toy_params(dataset, **overrides) -> ModelParams:
    """All-zero tensors at d1=d2=d0=h=2 for the 2-d toy dataset."""
    shapes = param_shapes(
        ModelConfig(d1=2, d2=2, attn_hidden_visual=2, attn_hidden_rating=2,
                    reduced_visual_dim=2),
        dataset.num_users, dataset.num_items, dataset.feature_dim,
    )
    tensors = {name: np.zeros(shape) for name, shape in shapes.items()}
    tensors.update({k: np.asarray(v, dtype=np.float64) for k, v in overrides.items()})
    return ModelParams(**tensors)


def toy_config(**kw) -> ModelConfig:
    base = dict(d1=2, d2=2, attn_hidden_visual=2, attn_hidden_rating=2,
                reduced_visual_dim=2, visual_mode="att", fusion_mode="att")
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_fusion_attention_needs_matching_dims(self):
        with pytest.raises(ConfigError):
            toy_config(d1=3, d2=2, fusion_mode="att")
        toy_config(d1=3, d2=2, fusion_mode="sum")  # fine without fusion attention

    def test_rejects_unknown_modes(self):
        with pytest.raises(ConfigError):
            toy_config(visual_mode="mean")
        with pytest.raises(ConfigError):
            toy_config(fusion_mode="cat")
        with pytest.raises(ConfigError):
            toy_config(activation="tanh")
        with pytest.raises(ConfigError):
            toy_config(precision="f16")

    def test_shared_projection_requires_matching_key_dim(self):
        with pytest.raises(ConfigError):
            toy_config(share_visual_projection=True, reduced_visual_dim=3, d2=2,
                       fusion_mode="sum")
        toy_config(share_visual_projection=True, reduced_visual_dim=2)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            toy_config(lambda1=-0.1)


class TestInit:
    def test_deterministic_and_mode_independent(self, toy_dataset):
        a = init_params(toy_config(seed=5), toy_dataset)
        b = init_params(toy_config(seed=5, visual_mode="off", fusion_mode="sum"),
                        toy_dataset)
        for name, tensor in a.tensors().items():
            np.testing.assert_array_equal(tensor, b.tensors()[name])
        c = init_params(toy_config(seed=6), toy_dataset)
        assert not np.array_equal(a.user_collab, c.user_collab)

    def test_shapes(self, toy_dataset):
        cfg = toy_config()
        params = init_params(cfg, toy_dataset)
        for name, shape in param_shapes(cfg, 3, 3, 2).items():
            assert params.tensors()[name].shape == shape

    def test_biases_start_at_zero(self, toy_dataset):
        params = init_params(toy_config(attention_bias=True), toy_dataset)
        assert not params.attn_hidden_bias.any()
        assert not params.fusion_hidden_bias.any()

    def test_active_names_track_modes(self):
        assert active_param_names(toy_config(visual_mode="off")) == (
            "user_collab", "item_collab",
        )
        avg_sum = active_param_names(toy_config(visual_mode="avg", fusion_mode="sum"))
        assert "visual_proj" in avg_sum and "attn_hidden" not in avg_sum
        full = active_param_names(toy_config(attention_bias=True))
        assert "attn_hidden_bias" in full and "fusion_hidden_bias" in full
        shared = active_param_names(toy_config(share_visual_projection=True))
        assert "attn_reduce" not in shared


class TestVisualEmbedding:
    def test_mean_embedding_hand_value(self, toy_dataset):
        # identity projection, item 0 frames (1,0) and (0,1): mean (0.5, 0.5)
        params = toy_params(toy_dataset, visual_proj=np.eye(2))
        table = item_visual_table(params, toy_config(visual_mode="avg"), toy_dataset)
        np.testing.assert_allclose(table.x[0], [0.5, 0.5], rtol=0, atol=0)

    def test_attention_logit_hand_value(self, toy_dataset):
        # query (1,-1), identity keys; first hidden unit sums query[0] and
        # key[0], second sums query[1] and key[1] (clamped at zero for f0)
        params = toy_params(
            toy_dataset,
            item_collab=[[1.0, -1.0], [0, 0], [0, 0]],
            attn_reduce=np.eye(2),
            attn_hidden=[[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]],
            attn_out=[1.5, 5.0],
        )
        table = item_visual_table(params, toy_config(), toy_dataset)
        hidden_pre = table.hidden_pre[0, :2]
        np.testing.assert_allclose(hidden_pre, [[2.0, -1.0], [1.0, 0.0]], rtol=0, atol=0)
        logits = np.maximum(hidden_pre, 0.0) @ params.attn_out
        # f0: 1.5 * relu(1+1) + 5 * relu(-1+0) = 3; f1: 1.5 * relu(1+0) = 1.5
        np.testing.assert_allclose(logits, [3.0, 1.5], rtol=0, atol=0)

    def test_attention_weights_hand_value(self, toy_dataset):
        # logits (2 ln 2, ln 2): gap of ln 2 gives weights (2/3, 1/3)
        params = toy_params(
            toy_dataset,
            item_collab=[[1.0, -1.0], [0, 0], [0, 0]],
            attn_reduce=np.eye(2),
            attn_hidden=[[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 2.0]],
            attn_out=[LN2, 0.0],
        )
        table = item_visual_table(params, toy_config(), toy_dataset)
        np.testing.assert_allclose(
            np.maximum(table.hidden_pre[0, :2], 0.0) @ params.attn_out, [2 * LN2, LN2]
        )
        np.testing.assert_allclose(table.alpha[0], [2 / 3, 1 / 3, 0.0], rtol=1e-15)

    def test_attended_embedding_hand_value(self, toy_dataset):
        params = toy_params(
            toy_dataset,
            item_collab=[[1.0, -1.0], [0, 0], [0, 0]],
            visual_proj=np.eye(2),
            attn_reduce=np.eye(2),
            attn_hidden=[[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 2.0]],
            attn_out=[LN2, 0.0],
        )
        table = item_visual_table(params, toy_config(), toy_dataset)
        np.testing.assert_allclose(table.x[0], [2 / 3, 1 / 3], rtol=1e-15)

    def test_weights_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            params, cfg, ds, _ = gradcheck_instance(
                seed=int(rng.integers(1 << 31)), visual_mode="att", fusion_mode="sum"
            )
            table = item_visual_table(params, cfg, ds)
            for item in range(ds.num_items):
                w = table.alpha[item][table.mask[item]]
                assert abs(w.sum() - 1.0) < 1e-12 and (w >= 0).all()
            assert (table.alpha[~table.mask] == 0.0).all()
            # adding a constant to every logit leaves the weights unchanged
            item = int(rng.integers(ds.num_items))
            base = table.alpha[item][table.mask[item]]
            params.attn_hidden_bias[:] = 0.0
            shifted_logits = reference.frame_attention_logits(item, params, cfg, ds) + 7.5
            e = np.exp(shifted_logits - shifted_logits.max())
            np.testing.assert_allclose(base, e / e.sum(), atol=1e-9, rtol=0)

    def test_table_matches_per_item_ops(self, toy_dataset):
        for visual in ("avg", "att"):
            params, cfg, ds, _ = gradcheck_instance(
                seed=13, visual_mode=visual, fusion_mode="sum"
            )
            table = item_visual_table(params, cfg, ds)
            for item in range(ds.num_items):
                ref = (reference.item_visual_avg(item, params, ds) if visual == "avg"
                       else reference.item_visual_att(item, params, cfg, ds))
                np.testing.assert_allclose(table.x[item], ref, rtol=1e-12, atol=1e-14)
                if visual == "att":
                    np.testing.assert_allclose(
                        table.alpha[item][table.mask[item]],
                        reference.frame_attention_weights(item, params, cfg, ds),
                        rtol=1e-12, atol=1e-14,
                    )

    def test_missing_frames_raise(self, toy_dataset):
        # an unrated item with no frames is structurally legal but unscorable
        bare = toy_dataset.__class__(
            num_users=1, num_items=2, num_frames=1, feature_dim=2,
            ratings=frozenset({(0, 0)}),
            frames_of_item=((0,), ()),
            frame_parent=np.array([0], dtype=np.int64),
            frame_features=np.ones((1, 2)),
            user_ids=("u",), item_ids=("a", "b"), frame_ids=("f",),
        )
        params = toy_params(bare, visual_proj=np.eye(2))
        with pytest.raises(MissingFramesError):
            reference.item_visual_avg(1, params, bare)
        with pytest.raises(MissingFramesError):
            reference.predict_item_score(0, 1, params, toy_config(fusion_mode="sum"), bare)
        with pytest.raises(MissingFramesError):
            score_pairs([0], [1], params, toy_config(fusion_mode="sum"), bare)


class TestScoring:
    def test_sum_fusion_hand_value(self, toy_dataset):
        # collaborative 0.5, visual 1.0 via the mean embedding (0.5, 0.5)
        params = toy_params(
            toy_dataset,
            user_collab=[[1.0, 0.0], [0, 0], [0, 0]],
            item_collab=[[0.5, 0.0], [0, 0], [0, 0]],
            user_visual=[[1.0, 1.0], [0, 0], [0, 0]],
            visual_proj=np.eye(2),
        )
        cfg = toy_config(visual_mode="avg", fusion_mode="sum")
        assert score_pairs([0], [0], params, cfg, toy_dataset)[0] == 1.5

    def test_zero_fusion_output_splits_evenly(self, toy_dataset):
        params = toy_params(
            toy_dataset,
            user_collab=[[1.0, 0.0], [0, 0], [0, 0]],
            item_collab=[[0.5, 0.0], [0, 0], [0, 0]],
            user_visual=[[1.0, 1.0], [0, 0], [0, 0]],
            visual_proj=np.eye(2),
        )
        cfg = toy_config(visual_mode="avg", fusion_mode="att")
        scores, cache = score_pairs([0], [0], params, cfg, toy_dataset, want_cache=True)
        assert cache.beta1[0] == 0.5 and cache.beta2[0] == 0.5
        assert scores[0] == 0.75

    def test_rating_attention_hand_value(self, toy_dataset):
        # score gap of ln 3 between the two channels: weights (0.75, 0.25);
        # the mean visual embedding of item 0 is (0.5, 0.5)
        params = toy_params(
            toy_dataset,
            user_collab=[[1.0, 0.0], [0, 0], [0, 0]],
            item_collab=[[0.0, 1.0], [0, 0], [0, 0]],
            visual_proj=np.eye(2),
            fusion_hidden=[[1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 2.0, 0.0]],
            fusion_out=[LN3, 0.5 * LN3],
        )
        _, cache = score_pairs([0], [0], params, toy_config(visual_mode="avg"),
                               toy_dataset, want_cache=True)
        beta1, beta2 = cache.beta1[0], cache.beta2[0]
        np.testing.assert_allclose([beta1, beta2], [0.75, 0.25], rtol=1e-15)
        assert beta1 + beta2 == 1.0

    def test_complement_is_exact_for_random_inputs(self):
        rng = np.random.default_rng(3)
        params, cfg, ds, _ = gradcheck_instance(seed=21)
        users = rng.integers(ds.num_users, size=200)
        items = rng.integers(ds.num_items, size=200)
        # random visual channel inputs, one per item row
        table = item_visual_table(params, cfg, ds)
        table.x = rng.normal(size=table.x.shape)
        _, cache = score_pairs(users, items, params, cfg, ds, table=table,
                               want_cache=True)
        assert (cache.beta1 + cache.beta2 == 1.0).all()
        assert ((0.0 < cache.beta1) & (cache.beta1 < 1.0)).all()
        for u, i, beta1 in zip(users[:20], items[:20], cache.beta1[:20]):
            ref, _ = reference.rating_attention(int(u), int(i), table.x[i], params, cfg)
            np.testing.assert_allclose(beta1, ref, rtol=1e-12)

    def test_frame_score_hand_value(self, toy_dataset):
        params = toy_params(
            toy_dataset,
            user_visual=[[1.0, 1.0], [0, 0], [0, 0]],
            visual_proj=np.eye(2),
        )
        cfg = toy_config(fusion_mode="sum")
        scores = score_frames([0, 0], [0, 2], params, cfg, toy_dataset)
        assert scores[0] == 1.0
        assert scores[1] == 2.0

    def test_vectorised_scores_match_scalar_path(self):
        for visual, fusion in (("off", "sum"), ("avg", "sum"), ("avg", "att"),
                               ("att", "sum"), ("att", "att")):
            params, cfg, ds, _ = gradcheck_instance(
                seed=17, visual_mode=visual, fusion_mode=fusion
            )
            users, items = np.meshgrid(
                np.arange(ds.num_users), np.arange(ds.num_items), indexing="ij"
            )
            flat_u, flat_i = users.ravel(), items.ravel()
            bulk = score_pairs(flat_u, flat_i, params, cfg, ds)
            scalar = np.array([
                reference.predict_item_score(int(u), int(i), params, cfg, ds)
                for u, i in zip(flat_u, flat_i)
            ])
            np.testing.assert_allclose(bulk, scalar, rtol=1e-12, atol=1e-13)

    def test_bulk_frame_scores_match_scalar(self):
        params, cfg, ds, _ = gradcheck_instance(seed=19)
        users = np.repeat(np.arange(ds.num_users), ds.num_frames)
        frames = np.tile(np.arange(ds.num_frames), ds.num_users)
        bulk = score_frames(users, frames, params, cfg, ds)
        scalar = np.array([
            reference.predict_frame_score(int(u), int(f), params, cfg, ds)
            for u, f in zip(users, frames)
        ])
        np.testing.assert_allclose(bulk, scalar, rtol=1e-12, atol=1e-14)

    def test_visual_off_cannot_score_frames(self, toy_dataset):
        params = toy_params(toy_dataset)
        cfg = toy_config(visual_mode="off", fusion_mode="sum")
        with pytest.raises(UnsupportedTaskError):
            reference.predict_frame_score(0, 0, params, cfg, toy_dataset)
        with pytest.raises(UnsupportedTaskError):
            score_frames([0], [0], params, cfg, toy_dataset)

    def test_out_of_range_ids(self, toy_dataset):
        params = toy_params(toy_dataset, visual_proj=np.eye(2))
        cfg = toy_config(fusion_mode="sum", visual_mode="avg")
        with pytest.raises(IndexError):
            reference.predict_item_score(3, 0, params, cfg, toy_dataset)
        with pytest.raises(IndexError):
            reference.predict_item_score(0, -1, params, cfg, toy_dataset)
        with pytest.raises(IndexError):
            reference.predict_frame_score(0, 6, params, cfg, toy_dataset)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        params, cfg, ds, _ = gradcheck_instance(seed=23)
        digest = dataset_digest(ds)
        path = tmp_path / "ck.json"
        save_checkpoint(path, params, cfg, digest)
        back, cfg2, digest2 = load_checkpoint(path)
        assert cfg2 == cfg and digest2 == digest
        for name, tensor in params.tensors().items():
            np.testing.assert_array_equal(back.tensors()[name], tensor)

    def test_rejects_foreign_document(self, tmp_path):
        path = tmp_path / "not_ck.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    def test_digest_tracks_id_mappings(self, toy_dataset):
        d1 = dataset_digest(toy_dataset)
        renamed = toy_dataset.__class__(
            **{**{f: getattr(toy_dataset, f) for f in (
                "num_users", "num_items", "num_frames", "feature_dim", "ratings",
                "frames_of_item", "frame_parent", "frame_features",
                "item_ids", "frame_ids",
            )}, "user_ids": ("u0", "u1", "zz")},
        )
        assert dataset_digest(renamed) != d1
        assert dataset_digest(toy_dataset) == d1  # stable across calls
