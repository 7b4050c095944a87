"""Forward scoring: configs, initialisation, attention, fusion, checkpoints."""

import json
import math
import os
import signal
import sys
import threading
import time
import zipfile
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from framerec import model
from framerec.data import split_ratings
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
    score_catalog,
    score_frames,
    score_pairs,
)
from framerec.synth import SynthConfig, generate_synthetic
from framerec.training import batch_gradients, dense_gradient, gradcheck_instance, sample_epoch

import reference
from conftest import read_members, traced_peak, write_members

LN2 = math.log(2.0)
LN3 = math.log(3.0)
MODES = [(v, f) for v in ("off", "avg", "att") for f in ("sum", "att")]


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

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            toy_config(lambda1=-0.1)

    @pytest.mark.parametrize("field,value", [
        ("init_scale", -0.1), ("attn_hidden_visual", 0), ("attn_hidden_rating", 0),
        ("reduced_visual_dim", 0), ("lambda1", float("nan")), ("init_scale", float("inf")),
    ])
    def test_rejects_out_of_range_sizes(self, field, value):
        with pytest.raises(ConfigError):
            toy_config(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("d1", 2.0), ("d2", np.float64(2)), ("attn_hidden_visual", True),
        ("reduced_visual_dim", "2"), ("seed", 2.5), ("seed", np.bool_(True)),
    ])
    def test_dimensions_and_seed_must_be_integers(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got "):
            toy_config(**{field: value})

    def test_numpy_integers_are_held_as_ints(self):
        cfg = toy_config(d1=np.int64(2), seed=np.int32(5))
        assert cfg == toy_config(seed=5)
        assert type(cfg.d1) is int and type(cfg.seed) is int


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

    def test_active_names_track_modes(self):
        assert active_param_names(toy_config(visual_mode="off")) == (
            "user_collab", "item_collab",
        )
        avg_sum = active_param_names(toy_config(visual_mode="avg", fusion_mode="sum"))
        assert "visual_proj" in avg_sum and "attn_hidden" not in avg_sum


def projected_instances(visual):
    """(params, cfg, dataset) of five gradcheck instances (8 items, uneven
    frame counts) and of the S dataset, in ``visual`` mode."""
    instances = [gradcheck_instance(seed=seed, visual_mode=visual, fusion_mode="sum")[:3]
                 for seed in range(5)]
    ds, _, _ = generate_synthetic(SynthConfig(seed=3))  # S: 200 x 300 x 5, F=16
    cfg = ModelConfig(d1=8, d2=8, attn_hidden_visual=8, attn_hidden_rating=8,
                      reduced_visual_dim=8, visual_mode=visual, fusion_mode="sum", seed=2)
    return instances + [(init_params(cfg, ds), cfg, ds)]


def m_shape_instance():
    """(params, cfg, dataset) with M's table shape, m=8 frames, F=64 and
    h=32, over 300 items."""
    ds, _, _ = generate_synthetic(SynthConfig(
        num_users=50, num_items=300, frames_per_item=8, feature_dim=64, seed=1))
    cfg = ModelConfig(d1=8, d2=8, attn_hidden_visual=32, attn_hidden_rating=8,
                      reduced_visual_dim=8, fusion_mode="sum", seed=2)
    return init_params(cfg, ds), cfg, ds


def assert_near_projected(table, params, cfg, ds):
    """Assert ``table`` within 1e-12 (relative to the largest value) of
    ``reference.visual_table_projected``."""
    x, alpha, hidden_relu = reference.visual_table_projected(params, cfg, ds)
    got = {"x": table.x, "alpha": table.alpha, "hidden_relu": table.hidden_relu}
    for name, want in (("x", x), ("alpha", alpha), ("hidden_relu", hidden_relu)):
        if want is None:
            assert got[name] is None
            continue
        err = np.abs(got[name] - want).max()
        assert err <= 1e-12 * np.abs(want).max(), (name, err)


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
        hidden_relu = table.hidden_relu[0, :2]  # f0's second unit is -1 before the ReLU
        np.testing.assert_allclose(hidden_relu, [[2.0, 0.0], [1.0, 0.0]], rtol=0, atol=0)
        logits = hidden_relu @ params.attn_out
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
            table.hidden_relu[0, :2] @ params.attn_out, [2 * LN2, LN2]
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
                w = table.alpha[item][ds.frame_table[1][item]]
                assert abs(w.sum() - 1.0) < 1e-12 and (w >= 0).all()
            assert (table.alpha[~ds.frame_table[1]] == 0.0).all()
            # adding a constant to every logit leaves the weights unchanged
            item = int(rng.integers(ds.num_items))
            base = table.alpha[item][ds.frame_table[1][item]]
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
                        table.alpha[item][ds.frame_table[1][item]],
                        reference.frame_attention_weights(item, params, cfg, ds),
                        rtol=1e-12, atol=1e-14,
                    )

    @pytest.mark.parametrize("visual", ["avg", "att"])
    def test_pooled_table_matches_the_projected_table(self, visual):
        """Within 1e-12 of the project-then-pool table, ``x`` having the bytes
        of ``pooled @ visual_proj.T``, and mean mode's ``pooled`` the bytes of
        each item's ``np.mean`` of its frames."""
        for params, cfg, ds in projected_instances(visual):
            table = item_visual_table(params, cfg, ds)
            assert_near_projected(table, params, cfg, ds)
            assert table.x.tobytes() == (table.pooled @ params.visual_proj.T).tobytes()
            if visual == "avg":
                mean = np.stack([ds.frame_features[np.flatnonzero(ds.frame_parent == i)]
                                 .mean(axis=0) for i in range(ds.num_items)])
                assert table.pooled.tobytes() == mean.tobytes()

    def test_mean_table_holds_no_projected_frames(self):
        """The mean table's peak stays below one (N, m, d2) array of projected
        frames, at a shape whose d2 exceeds F: 2,000 items x 8 frames, F=16,
        d2=64."""
        ds, _, _ = generate_synthetic(SynthConfig(num_users=20, num_items=2000,
                                                  frames_per_item=8, seed=1))
        cfg = ModelConfig(d2=64, visual_mode="avg", fusion_mode="sum", seed=2)
        params = init_params(cfg, ds)
        assert ds.padded_features.shape == (2000, 8, 16)  # held by the dataset, untraced
        _, peak = traced_peak(lambda: item_visual_table(params, cfg, ds))
        assert peak < 2000 * 8 * 64 * 8, peak

    @pytest.mark.parametrize("items", [1, 7, "all"])
    def test_table_blocks_match_the_projected_table(self, monkeypatch, items):
        """Blocks of one item, of seven (the last one shorter) and of every
        item stay within 1e-12 of the project-then-pool table."""
        for params, cfg, ds in projected_instances("att"):
            size = ds.num_items if items == "all" else items
            per_item = ds.padded_features.shape[1] * cfg.attn_hidden_visual
            monkeypatch.setattr(model, "CACHE_BLOCK", size * per_item)
            assert_near_projected(item_visual_table(params, cfg, ds), params, cfg, ds)

    def test_blocks_of_five_items_or_more_keep_the_bits(self, monkeypatch):
        """At M's table shape (m=8 frames, F=64, h=32) every block size whose
        blocks all hold at least five items gives the default blocks' bits.
        Blocks of one to four items do not: their key products of 8 to 32
        rows round apart on OpenBLAS 0.3.31's AVX-512 kernels, which take
        small products through another kernel.  Those are held to 1e-12 by
        the test above.  The logits, a product of 8 rows per item, keep
        their bits at any block size."""
        params, cfg, ds = m_shape_instance()
        per_item = 8 * 32
        default = item_visual_table(params, cfg, ds)
        for items in (5, 7, 300):  # 60 blocks of 5; 42 of 7 and one of 6; one block
            monkeypatch.setattr(model, "CACHE_BLOCK", items * per_item)
            table = item_visual_table(params, cfg, ds)
            for name in ("x", "alpha", "hidden_relu"):
                assert getattr(table, name).tobytes() == getattr(default, name).tobytes(), \
                    (items, name)

    def test_block_sizes_follow_the_rule(self, monkeypatch):
        """``CACHE_BLOCK // (m * h)`` items a block, at least one."""
        m_shape, (params, cfg, ds) = m_shape_instance(), projected_instances("att")[-1]
        sizes = []
        mlp = model._attention_mlp
        monkeypatch.setattr(model, "_attention_mlp",
                            lambda query, key, *rest, **kw: sizes.append(len(key))
                            or mlp(query, key, *rest, **kw))
        item_visual_table(*m_shape)
        assert sizes == [256, 44]  # m=8, h=32: 2**16 // 256 items
        sizes.clear()
        item_visual_table(params, cfg, ds)
        assert sizes == [300]  # S, m=5, h=8: the whole table in one block
        monkeypatch.setattr(model, "CACHE_BLOCK", 1)
        sizes.clear()
        item_visual_table(params, cfg, ds)
        assert sizes == [1] * 300

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_frame_max_keeps_the_bits_of_the_row_max(self, m):
        """The softmax's running max over the frame slots has
        ``max(axis=1)``'s bytes on uneven frame counts, padding at the
        float minimum as the table puts it, with a NaN, a +inf and an
        all-padding row."""
        rng = np.random.default_rng(m)
        counts = rng.integers(1, m + 1, size=40)
        counts[3] = 0  # an item without frames: all padding
        mask = np.arange(m) < counts[:, None]
        logits = rng.normal(size=(40, m))
        logits[5, rng.integers(counts[5])] = np.nan
        logits[7, rng.integers(counts[7])] = np.inf
        shifted = np.where(mask, logits, np.finfo(logits.dtype).min)
        got = model._frame_max(shifted)
        assert got.tobytes() == shifted.max(axis=1).tobytes()
        assert np.isnan(got[5]) and got[7] == np.inf

    def test_missing_frames_raise(self, toy_dataset):
        # an unrated item with no frames is structurally legal but unscorable
        bare = toy_dataset.__class__(
            ratings=frozenset({(0, 0)}),
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
        with pytest.raises(MissingFramesError, match="item 1 has"):
            score_pairs([[0], [0]], [[0, 0], [0, 1]], params, toy_config(fusion_mode="sum"),
                        bare)

    def test_nan_attention_logits_reach_alpha(self, toy_dataset):
        # a NaN logit must not become zero weights and a finite score
        params, cfg, ds, _ = gradcheck_instance(seed=0)
        params.attn_out[0] = np.nan
        table = item_visual_table(params, cfg, ds)
        _, mask, _ = ds.frame_table
        assert np.isnan(table.alpha[mask]).all()
        assert np.isnan(table.x).all()
        # an item without frames keeps its zero row
        bare = toy_dataset.__class__(
            ratings=frozenset({(0, 0)}),
            frame_parent=np.array([0], dtype=np.int64),
            frame_features=np.ones((1, 2)),
            user_ids=("u",), item_ids=("a", "b"), frame_ids=("f",),
        )
        table = item_visual_table(toy_params(bare, attn_out=[np.nan, 0.0]), toy_config(), bare)
        assert np.isnan(table.alpha[0, 0]) and np.isnan(table.x[0]).all()
        assert not table.alpha[1].any() and not table.x[1].any()


def assert_frame_sum_keeps_the_bits(relu, dlogits, rng):
    """The attention backward's query half, summed over the broadcast frame
    axis, and its weight gradient have the bits of ``ndarray.sum``'s.  With
    one frame nothing is broadcast, and the half is the gradient itself
    (``ndarray.sum`` would turn its -0.0 into 0.0)."""
    h = relu.shape[-1]
    out = rng.normal(size=h)
    query, keys = rng.normal(size=(len(relu), 1, 4)), rng.normal(size=relu.shape[:-1] + (6,))
    dh = out * (relu > 0) * dlogits[..., None]
    want = dh.sum(axis=(1,), keepdims=True) if relu.shape[1] > 1 else dh
    g_query, g_key = np.zeros((h, 4)), np.zeros((h, 6))
    dh_query, dh_key = model._attention_mlp_backward(
        out, relu.copy(), dlogits, np.zeros(h), ((query, g_query), (keys, g_key)))
    assert dh_query.shape == want.shape and dh_query.tobytes() == want.tobytes()
    assert dh_key.tobytes() == dh.tobytes()
    assert g_query.tobytes() == (want.reshape(-1, h).T @ query.reshape(-1, 4)).tobytes()


class TestAttentionBackward:
    @pytest.mark.parametrize("frames", [1, 2, 5, 8, 20])
    def test_frame_sum_matches_ndarray_sum(self, frames):
        rng = np.random.default_rng(frames)
        for rows, h in ((1, 8), (7, 4), (256, 32)):
            relu = np.maximum(rng.normal(size=(rows, frames, h)), 0.0)
            assert_frame_sum_keeps_the_bits(relu, rng.normal(size=(rows, frames)), rng)

    @pytest.mark.parametrize("seed", range(5))
    def test_frame_sum_matches_ndarray_sum_on_uneven_frames(self, seed):
        params, cfg, ds, _ = gradcheck_instance(seed=seed, visual_mode="att", fusion_mode="sum")
        table = item_visual_table(params, cfg, ds)
        rng = np.random.default_rng(seed)
        mask = ds.frame_table[1]  # padding takes a zero logit gradient, as in training
        assert len(set(ds.frame_table[2].tolist())) > 1
        assert_frame_sum_keeps_the_bits(
            table.hidden_relu, np.where(mask, rng.normal(size=mask.shape), 0.0), rng)


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
        # item 0's frames (1, 0) and (0, 1), item 2's (2, 0), (0, 2) and (1, 1)
        scores = score_frames([0, 0], [0, 2], params, cfg, toy_dataset)
        assert scores.tolist() == [[1.0, 1.0, -np.inf], [2.0, 2.0, 2.0]]

    def test_vectorised_scores_match_scalar_path(self):
        for visual, fusion in MODES:
            params, cfg, ds, _ = gradcheck_instance(
                seed=17, visual_mode=visual, fusion_mode=fusion
            )
            users, items = np.meshgrid(
                np.arange(ds.num_users), np.arange(ds.num_items), indexing="ij"
            )
            scalar = np.array([
                reference.predict_item_score(int(u), int(i), params, cfg, ds)
                for u, i in zip(users.ravel(), items.ravel())
            ]).reshape(users.shape)
            # flat pairs, and a (users, 1) column broadcast against a (1, items) row
            for u, i in ((users.ravel(), items.ravel()), (users[:, :1], items[:1, :])):
                bulk = score_pairs(u, i, params, cfg, ds).reshape(users.shape)
                np.testing.assert_allclose(bulk, scalar, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("visual", ["avg", "att"])
    def test_frame_scores_match_the_per_row_projection(self, visual):
        rng = np.random.default_rng(4)
        for seed in range(3):  # 8 items of uneven frame counts, so most rows end in padding
            params, cfg, ds, _ = gradcheck_instance(seed=seed, visual_mode=visual)
            assert len(set(ds.frame_table[2].tolist())) > 1
            users = rng.integers(0, ds.num_users, size=200)
            items = rng.integers(0, ds.num_items, size=200)  # more rows than items
            want = reference.frame_scores_per_row(users, items, params, ds)
            got = score_frames(users, items, params, cfg, ds)
            assert got.shape == want.shape == (200, ds.frame_table[0].shape[1])
            assert (np.isneginf(got) == ~ds.frame_table[1][items]).all()  # -inf at padding only
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)

    def test_bulk_frame_scores_match_scalar(self):
        params, cfg, ds, _ = gradcheck_instance(seed=19)
        users = np.repeat(np.arange(ds.num_users), ds.num_items)
        items = np.tile(np.arange(ds.num_items), ds.num_users)
        ids, mask, _ = ds.frame_table
        bulk = score_frames(users, items, params, cfg, ds)
        scalar = np.array([
            reference.predict_frame_score(int(u), int(f), params, cfg, ds)
            for u, i in zip(users, items) for f in ids[i][mask[i]]
        ])
        np.testing.assert_allclose(bulk[mask[items]], scalar, rtol=1e-12, atol=1e-14)

    def test_visual_off_cannot_score_frames(self, toy_dataset):
        params = toy_params(toy_dataset)
        cfg = toy_config(visual_mode="off", fusion_mode="sum")
        with pytest.raises(UnsupportedTaskError):
            reference.predict_frame_score(0, 0, params, cfg, toy_dataset)
        with pytest.raises(UnsupportedTaskError):
            score_frames([0], [0], params, cfg, toy_dataset)

    @pytest.mark.parametrize("task,kind", [
        ("pairs", "user"), ("pairs", "item"), ("frames", "user"), ("frames", "item"),
    ])
    @pytest.mark.parametrize("past_end", [False, True])
    def test_bulk_out_of_range_ids_raise(self, task, kind, past_end):
        params, cfg, ds, _ = gradcheck_instance(seed=1)
        bad = {"user": ds.num_users, "item": ds.num_items}[kind] if past_end else -1
        ids = {"user": [0, 0], "item": [0, 1]}
        ids[kind] = [0, bad]
        score = score_pairs if task == "pairs" else score_frames
        with pytest.raises(IntegrityError, match=f"{kind} id {bad} "):
            score(ids["user"], ids["item"], params, cfg, ds)
        if task == "pairs":  # a (2, 1) user column against a (1, 2) item row
            with pytest.raises(IntegrityError, match=f"{kind} id {bad} "):
                score(np.array(ids["user"])[:, None], np.array(ids["item"])[None, :],
                      params, cfg, ds)

    def test_out_of_range_ids(self, toy_dataset):
        params = toy_params(toy_dataset, visual_proj=np.eye(2))
        cfg = toy_config(fusion_mode="sum", visual_mode="avg")
        with pytest.raises(IndexError):
            reference.predict_item_score(3, 0, params, cfg, toy_dataset)
        with pytest.raises(IndexError):
            reference.predict_item_score(0, -1, params, cfg, toy_dataset)
        with pytest.raises(IndexError):
            reference.predict_frame_score(0, 6, params, cfg, toy_dataset)


def catalog_instance(visual, fusion, hidden=8):
    """A random model on 30 users and 41 items, with 45 user ids in random order.

    Unit-scale parameters make the fusion logits large enough that a product
    whose height followed the user block would round some scores apart.
    ``hidden`` is the fusion's hidden size; d1 is 8.
    """
    ds, _, _ = generate_synthetic(SynthConfig(num_users=30, num_items=41, frames_per_item=3,
                                              feature_dim=6, ratings_per_user=4, seed=2))
    cfg = ModelConfig(d1=8, d2=8, attn_hidden_visual=8, attn_hidden_rating=hidden,
                      reduced_visual_dim=8, visual_mode=visual, fusion_mode=fusion,
                      init_scale=1.0, seed=5)
    users = np.random.default_rng(1).integers(0, ds.num_users, size=45)
    return init_params(cfg, ds), cfg, ds, users


# the six modes, then the fused ones with a hidden size other than d1, so that
# a (d, N) item array in place of an (h, N) one does not go unnoticed
HIDDEN_CASES = [pytest.param(v, f, 8, id=f"{v}-{f}") for v, f in MODES] + [
    pytest.param(v, "att", 5, id=f"{v}-att-hidden5") for v in ("avg", "att")]


class TestCatalogScoring:
    @pytest.mark.parametrize("visual,fusion,hidden", HIDDEN_CASES)
    def test_user_blocks_change_no_bit(self, monkeypatch, visual, fusion, hidden):
        params, cfg, ds, users = catalog_instance(visual, fusion, hidden)
        # the table is built once: CACHE_BLOCK also sizes its item blocks
        table = item_visual_table(params, cfg, ds)
        monkeypatch.setattr(model, "_cpus", lambda: 1)
        assert model.CACHE_BLOCK // ds.num_items >= len(users)  # one block on one CPU
        default = score_catalog(users, params, cfg, ds, table=table)
        assert default.shape == (len(users), ds.num_items)
        for rows in (1, 7):
            monkeypatch.setattr(model, "CACHE_BLOCK", rows * ds.num_items)
            got = score_catalog(users, params, cfg, ds, table=table)
            assert got.tobytes() == default.tobytes()
        # keep learns each block's slice of users: 7, 7, ... and the last 3
        sizes = []
        kept = score_catalog(users, params, cfg, ds, table=table,
                             keep=lambda block, rows: sizes.append(len(block))
                             or np.column_stack([block[:, :2], users[rows]]))
        assert kept.tobytes() == np.column_stack([default[:, :2], users]).tobytes()
        assert sizes == [7] * 6 + [3]

    @pytest.mark.parametrize("visual,fusion,hidden", HIDDEN_CASES)
    def test_scores_match_score_pairs(self, visual, fusion, hidden):
        params, cfg, ds, users = catalog_instance(visual, fusion, hidden)
        got = score_catalog(users, params, cfg, ds)
        want = score_pairs(users[:, None], np.arange(ds.num_items)[None, :], params, cfg, ds)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)

    def test_no_users_score_an_empty_block(self):
        params, cfg, ds, _ = catalog_instance("att", "att")
        assert score_catalog([], params, cfg, ds).shape == (0, ds.num_items)

    @pytest.mark.parametrize("form", ["catalog", "candidates"])
    @pytest.mark.parametrize("visual,fusion", MODES)
    def test_each_user_alone_scores_its_row_of_the_call(self, visual, fusion, form):
        # a user's scores do not depend on which other users share the call
        params, cfg, ds, users = catalog_instance(visual, fusion)
        items = candidate_matrix(ds, users) if form == "candidates" else None
        together = score_catalog(users, params, cfg, ds, items=items)
        for row, user in enumerate(users):
            alone = score_catalog([user], params, cfg, ds,
                                  items=None if items is None else items[row:row + 1])
            assert alone.tobytes() == together[row:row + 1].tobytes(), row

    def test_peak_memory_holds_planes_not_a_hidden_array(self, monkeypatch):
        # at h = 32 one block's (rows, N, h) fusion hidden array alone is 32
        # (rows, N) planes; the bound is the per-call copies plus 16 planes,
        # with one block in flight on each of two CPUs
        monkeypatch.setattr(model, "_cpus", lambda: 2)
        params, cfg, ds, _ = catalog_instance("att", "att", hidden=32)
        table = item_visual_table(params, cfg, ds)
        users = np.random.default_rng(4).integers(0, ds.num_users, size=400)
        h, n = cfg.attn_hidden_rating, ds.num_items
        rows = min(model.CACHE_BLOCK // n, -(-len(users) // 2))
        assert rows < len(users)  # more than one block
        # the item-major arrays, the users' rows and their fusion halves
        copies = 8 * (n + len(users)) * (cfg.d1 + cfg.d2 + 2 * h)
        plane = 8 * rows * n
        _, peak = traced_peak(lambda: score_catalog(users, params, cfg, ds, table=table,
                                                    keep=lambda block, _: block[:, :1]))
        assert peak < copies + 16 * plane, (peak, copies, plane)
        assert 32 * plane > copies + 16 * plane

    @pytest.mark.parametrize("bad", [-1, 30])
    def test_out_of_range_users_raise_as_score_pairs(self, bad):
        params, cfg, ds, _ = catalog_instance("att", "att")
        items = np.arange(ds.num_items)[None, :]
        for score in (lambda u: score_pairs(u[:, None], items, params, cfg, ds),
                      lambda u: score_catalog(u, params, cfg, ds)):
            with pytest.raises(IntegrityError, match=f"^user id {bad} is outside 0..29$"):
                score(np.array([0, bad]))

    @pytest.mark.parametrize("visual,fusion", MODES)
    def test_frameless_items_raise_as_score_pairs(self, visual, fusion):
        params, cfg, ds, _ = catalog_instance(visual, fusion)
        ds = replace(ds, frame_parent=np.minimum(ds.frame_parent, 37))  # 38..40 frameless
        users = np.array([3, 0])
        pairs = lambda: score_pairs(users[:, None], np.arange(ds.num_items)[None, :],
                                    params, cfg, ds)
        catalog = lambda: score_catalog(users, params, cfg, ds)
        if visual == "off":  # no visual channel, so no frames needed
            assert catalog().shape == pairs().shape == (2, ds.num_items)
            return
        for score in (pairs, catalog):
            with pytest.raises(MissingFramesError, match="^item 38 has no frames$"):
                score()


class TestFrameScoring:
    """``score_frames`` scores (user, item) pairs' frame rows in blocks of
    ``CACHE_BLOCK // (m * d2)`` pairs."""

    @pytest.mark.parametrize("visual", ["avg", "att"])
    def test_pair_blocks_change_no_bit(self, monkeypatch, visual):
        params, cfg, ds, _ = catalog_instance(visual, "att")
        rng = np.random.default_rng(6)
        users = rng.integers(0, ds.num_users, size=200)
        items = rng.integers(0, ds.num_items, size=200)
        default = score_frames(users, items, params, cfg, ds)
        per_pair = ds.frame_table[0].shape[1] * cfg.d2
        assert model.CACHE_BLOCK // per_pair >= len(users)  # one block
        for block in (per_pair, 7 * per_pair, 7 * per_pair + 1):  # one pair, 7 pairs, 7 again
            monkeypatch.setattr(model, "CACHE_BLOCK", block)
            got = score_frames(users, items, params, cfg, ds)
            assert got.tobytes() == default.tobytes()

    def test_no_pairs_score_nothing(self):
        params, cfg, ds, _ = catalog_instance("att", "att")
        assert score_frames([], [], params, cfg, ds).shape == (0, ds.frame_table[0].shape[1])

    def test_kept_blocks_stack_to_the_scores_on_any_cpus(self, monkeypatch):
        """200 pairs in 29 blocks of 7 (the last of 4): ``keep`` sees each block once,
        and its stacked rows have the bytes of the scores without it, on 1, 2 and
        5 CPUs."""
        params, cfg, ds, _ = catalog_instance("att", "att")
        rng = np.random.default_rng(6)
        users = rng.integers(0, ds.num_users, size=200)
        items = rng.integers(0, ds.num_items, size=200)
        monkeypatch.setattr(model, "CACHE_BLOCK", 7 * ds.frame_table[0].shape[1] * cfg.d2)
        want = score_frames(users, items, params, cfg, ds).tobytes()
        with switching_often():
            for cpus in (1, 2, 5):
                monkeypatch.setattr(model, "_cpus", lambda: cpus)
                seen = []

                def keep(scores, rows):
                    seen.append((rows.start, len(scores)))  # blocks run on several threads
                    return scores

                got = score_frames(users, items, params, cfg, ds, keep=keep)
                assert got.tobytes() == want, cpus
                assert sorted(seen) == [(start, 7) for start in range(0, 196, 7)] + [(196, 4)]

    def test_no_pairs_keep_one_empty_block(self):
        params, cfg, ds, _ = catalog_instance("att", "att")
        seen = []
        got = score_frames([], [], params, cfg, ds,
                           keep=lambda scores, rows: seen.append(scores.shape) or scores[:, :1])
        assert seen == [(0, ds.frame_table[0].shape[1])] and got.shape == (0, 1)

    # 15 blocks of 3 pairs.  Blocks ``first`` and 14 raise, and block ``slow`` sleeps
    # first, as in TestBlockThreads' every-item case.
    @pytest.mark.parametrize("cpus,first,slow", [(2, 1, 14), (3, 7, 7)])
    def test_a_failing_keep_raises_once_every_block_is_done(self, monkeypatch, cpus, first,
                                                             slow):
        params, cfg, ds, users = catalog_instance("att", "att")
        items = np.random.default_rng(6).integers(0, ds.num_items, size=len(users))
        monkeypatch.setattr(model, "_cpus", lambda: cpus)
        monkeypatch.setattr(model, "CACHE_BLOCK", 3 * ds.frame_table[0].shape[1] * cfg.d2)
        running, done = set(), []

        def keep(scores, rows):
            block = rows.start // 3
            running.add(block)
            try:
                if block == slow:
                    time.sleep(0.2)
                if block in (first, 14):
                    raise ValueError(f"block {block}")
                return scores
            finally:
                running.discard(block)
                done.append(block)

        with pytest.raises(ValueError, match=f"^block {first}$"):
            score_frames(users, items, params, cfg, ds, keep=keep)
        assert not running and {first, 14} <= set(done)
        assert first + 1 not in done  # a part stops at its first failing block

    @pytest.mark.parametrize("users,items", [([0, 1], [0]), ([], [0]), ([[0]], [[0]])])
    def test_pairs_must_be_two_flat_arrays_of_one_length(self, users, items):
        params, cfg, ds, _ = catalog_instance("att", "att")
        with pytest.raises(ValueError, match="^users and items must be two 1-D arrays"):
            score_frames(users, items, params, cfg, ds)


def candidate_matrix(ds, users, width=7):
    """A (len(users), width) matrix of random candidate ids, repeats allowed."""
    return np.random.default_rng(3).integers(0, ds.num_items, size=(len(users), width))


class TestCandidateScoring:
    """``score_catalog`` with an ``items`` matrix: each user against its own row."""

    @pytest.mark.parametrize("visual,fusion,hidden", HIDDEN_CASES)
    def test_scores_match_score_pairs(self, visual, fusion, hidden):
        params, cfg, ds, users = catalog_instance(visual, fusion, hidden)
        items = candidate_matrix(ds, users)
        got = score_catalog(users, params, cfg, ds, items=items)
        want = score_pairs(users[:, None], items, params, cfg, ds)
        assert got.shape == items.shape
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("visual,fusion,hidden", HIDDEN_CASES)
    def test_user_blocks_change_no_bit(self, monkeypatch, visual, fusion, hidden):
        params, cfg, ds, users = catalog_instance(visual, fusion, hidden)
        items = candidate_matrix(ds, users)
        # built once, since CACHE_BLOCK also sizes the table's blocks, whose
        # products of one to four items may round apart
        table = item_visual_table(params, cfg, ds)
        default = score_catalog(users, params, cfg, ds, table=table, items=items)
        per_user = items.shape[1] * cfg.attn_hidden_rating
        assert model.CACHE_BLOCK // per_user >= len(users)  # one block
        for block in (1, 7 * per_user, 7 * per_user - 1):  # one user, 7 users, and 6
            monkeypatch.setattr(model, "CACHE_BLOCK", block)
            got = score_catalog(users, params, cfg, ds, table=table, items=items)
            assert got.tobytes() == default.tobytes()

    @pytest.mark.parametrize("visual,fusion", MODES)
    def test_no_users_score_an_empty_block(self, visual, fusion):
        params, cfg, ds, _ = catalog_instance(visual, fusion)
        items = np.empty((0, 7), dtype=np.int64)
        assert score_catalog([], params, cfg, ds, items=items).shape == (0, 7)

    @pytest.mark.parametrize("visual,fusion", MODES)
    def test_no_candidates_score_empty_rows_as_score_pairs(self, visual, fusion):
        params, cfg, ds, users = catalog_instance(visual, fusion)
        items = np.empty((len(users), 0), dtype=np.int64)
        got = score_catalog(users, params, cfg, ds, items=items)
        assert got.shape == score_pairs(users[:, None], items, params, cfg, ds).shape == (45, 0)

    @pytest.mark.parametrize("visual,fusion", MODES)
    @pytest.mark.parametrize("bad", [-1, 41])
    def test_out_of_range_candidates_raise_as_score_pairs(self, visual, fusion, bad):
        params, cfg, ds, _ = catalog_instance(visual, fusion)
        users, items = np.array([0, 1]), np.array([[0, 1], [bad, 2]])
        for score in (lambda: score_pairs(users[:, None], items, params, cfg, ds),
                      lambda: score_catalog(users, params, cfg, ds, items=items)):
            with pytest.raises(IntegrityError, match=f"^item id {bad} is outside 0..40$"):
                score()

    def test_candidate_rows_must_match_the_users(self):
        params, cfg, ds, _ = catalog_instance("att", "att")
        with pytest.raises(ValueError, match=r"items must be \(2, C\)"):
            score_catalog([0, 1], params, cfg, ds, items=np.array([[0, 1]]))

    @pytest.mark.parametrize("visual,fusion", MODES)
    def test_frameless_candidates_raise_as_score_pairs(self, visual, fusion):
        params, cfg, ds, _ = catalog_instance(visual, fusion)
        ds = replace(ds, frame_parent=np.minimum(ds.frame_parent, 37))  # 38..40 frameless
        users = np.array([3, 0])
        # row-major, 40 comes before 38 and 39
        items = np.array([[0, 40, 2], [38, 39, 1]])
        pairs = lambda: score_pairs(users[:, None], items, params, cfg, ds)
        candidates = lambda: score_catalog(users, params, cfg, ds, items=items)
        framed = score_catalog(users, params, cfg, ds, items=items % 38)
        assert framed.shape == items.shape  # frameless items that are not candidates
        if visual == "off":  # no visual channel, so no frames needed
            assert candidates().shape == pairs().shape == items.shape
            return
        for score in (pairs, candidates):
            with pytest.raises(MissingFramesError, match="^item 40 has no frames$"):
                score()


def test_block_rules_at_m_shape(monkeypatch):
    """At M's shapes (d1 = d2 = 32 and both hidden sizes 32, m = 8 frames,
    3,000 items, 101 candidates a user) CACHE_BLOCK's 512 KiB give 256 table
    items, 20 candidate users and 256 frame pairs a block, and against
    every item min(CACHE_BLOCK // N, ceil(users / CPUs)) users: 21 of 45 on
    two CPUs.  Blocks run on several threads in no fixed order, so the sizes
    are compared sorted."""
    ds, _, _ = generate_synthetic(SynthConfig(num_users=50, num_items=3000, frames_per_item=8,
                                              feature_dim=4, ratings_per_user=5, seed=1))
    cfg = ModelConfig(seed=2)
    assert (cfg.d1, cfg.d2, cfg.attn_hidden_visual, cfg.attn_hidden_rating) == (32,) * 4
    monkeypatch.setattr(model, "_cpus", lambda: 2)
    params, sizes = init_params(cfg, ds), []

    def spy(name, size):
        real = getattr(model, name)
        monkeypatch.setattr(model, name,
                            lambda *args, **kw: sizes.append(size(*args)) or real(*args, **kw))

    spy("_attention_mlp", lambda query, key, *rest: len(key))
    table = item_visual_table(params, cfg, ds)
    assert sorted(sizes) == [184] + [256] * 11

    spy("_two_way_softmax", lambda g1, g2: len(g1))  # once a block in att/att
    rng = np.random.default_rng(0)
    users = rng.integers(0, ds.num_users, size=45)
    sizes.clear()
    score_catalog(users, params, cfg, ds, table=table,
                  items=rng.integers(0, ds.num_items, size=(45, 101)))
    assert sorted(sizes) == [5, 20, 20]
    sizes.clear()
    score_catalog(users, params, cfg, ds, table=table, keep=lambda block, rows: block[:, :1])
    assert sorted(sizes) == [3, 21, 21]

    class TakeSpy:  # score_frames gathers a block's projected frame rows with np.take
        def __getattr__(self, name):
            return getattr(np, name)

        def take(self, a, indices, **kw):
            sizes.append(len(indices))
            return np.take(a, indices, **kw)

    monkeypatch.setattr(model, "np", TakeSpy())
    sizes.clear()
    score_frames(rng.integers(0, ds.num_users, size=5000),
                 rng.integers(0, ds.num_items, size=5000), params, cfg, ds)
    assert sorted(sizes) == [136] + [256] * 19


def block_outputs(visual, fusion, catalog_budget):
    """The bytes of every blocked forward of ``catalog_instance``, several blocks each.

    Under ``TestBlockThreads``' budget: 5 table items, 2 candidate users (of
    7 candidates) and 5 frame pairs (of 3 frames) a block.  The every-item
    call, handed that table, runs under ``CACHE_BLOCK = catalog_budget``; it
    keeps each block's best score and its users.  Also returns the names of
    the threads that ran ``keep``.
    """
    params, cfg, ds, users = catalog_instance(visual, fusion)
    threads = set()

    def keep(scores, rows):
        threads.add(threading.current_thread().name)
        return np.column_stack([scores.max(axis=1), users[rows]])

    out = {"candidates": score_catalog(users, params, cfg, ds, items=candidate_matrix(ds, users))}
    table = item_visual_table(params, cfg, ds)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(model, "CACHE_BLOCK", catalog_budget)
        out["catalog"] = score_catalog(users, params, cfg, ds, table=table, keep=keep)
    if table is not None:
        out |= {name: getattr(table, name) for name in ("x", "alpha", "pooled", "hidden_relu")}
        rng = np.random.default_rng(6)
        out["frames"] = score_frames(rng.integers(0, ds.num_users, size=200),
                                     rng.integers(0, ds.num_items, size=200), params, cfg, ds)
    return {k: None if v is None else v.tobytes() for k, v in out.items()}, threads


@contextmanager
def switching_often():
    """Threads switch every microsecond, so that blocks on two threads interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestBlockThreads:
    """``_run_blocks`` spreads a call's blocks over one thread per CPU; ``_cpus`` is
    patched, so that the pool runs on a one-CPU host too."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # 123 floats: 3 catalog users of 41 items, 5 table items of 3 frames x 8
        # hidden units, 2 users of 7 candidates x 8 and 5 frame pairs of 3 frames
        # x d2 = 8
        monkeypatch.setattr(model, "CACHE_BLOCK", 3 * 41)

    @pytest.mark.parametrize("visual,fusion", MODES)
    def test_the_bytes_do_not_depend_on_the_threads(self, monkeypatch, visual, fusion):
        # catalog planes of up to 13 x 41 scores, large enough that numpy lets
        # the other thread run while it fills them (9 users a block on 5 CPUs)
        monkeypatch.setattr(model, "_cpus", lambda: 1)
        serial, threads = block_outputs(visual, fusion, 13 * 41)
        assert threads == {threading.current_thread().name}
        # two threads, then more parts than the pool has threads, switching often
        with switching_often():
            for cpus in (2, 5):
                monkeypatch.setattr(model, "_cpus", lambda: cpus)
                got, threads = block_outputs(visual, fusion, 13 * 41)
                assert got == serial, (cpus, [k for k in got if got[k] != serial[k]])
                assert len(threads) >= 2  # the caller and the pool ran blocks

    @pytest.mark.parametrize("visual,fusion", MODES)
    def test_every_item_bytes_do_not_depend_on_the_cpus(self, monkeypatch, visual, fusion):
        """Against every item a block holds min(CACHE_BLOCK // N, ceil(users / CPUs))
        users, so the blocks follow the CPU count: 45 users in blocks of 30 and 15
        on 1 CPU, 23 and 22 on 2, and 9 each on 5.  The scores keep their bytes, and
        ``keep`` sees every user once, with its blocks stacked in order."""
        params, cfg, ds, users = catalog_instance(visual, fusion)
        table = item_visual_table(params, cfg, ds)  # CACHE_BLOCK also sizes its blocks
        monkeypatch.setattr(model, "CACHE_BLOCK", 30 * ds.num_items)
        scores = []
        with switching_often():
            for cpus, sizes in ((1, [30, 15]), (2, [23, 22]), (5, [9] * 5)):
                monkeypatch.setattr(model, "_cpus", lambda: cpus)
                scores.append(score_catalog(users, params, cfg, ds, table=table).tobytes())
                seen = []

                def keep(block, rows):
                    seen.append((rows.start, len(block)))
                    return np.column_stack([users[rows], block])

                kept = score_catalog(users, params, cfg, ds, table=table, keep=keep)
                assert [n for _, n in sorted(seen)] == sizes, cpus
                assert [start for start, _ in sorted(seen)] == np.cumsum([0] + sizes[:-1]).tolist()
                assert kept[:, 0].tolist() == users.tolist()
                assert kept[:, 1:].tobytes() == scores[-1]
        assert scores[1] == scores[0] and scores[2] == scores[0]

    @pytest.mark.parametrize("visual,fusion", MODES)
    def test_training_bytes_do_not_depend_on_the_threads(self, monkeypatch, visual, fusion):
        """``sample_epoch`` (blocks of 120 triples) and ``batch_gradients``, whose table
        backward works 5 items a block, give one CPU's bytes on 2 and 5 CPUs; the
        triples are also those of the stack-then-permute oracle."""
        params, cfg, ds, _ = catalog_instance(visual, fusion)
        split = split_ratings(ds, 0.7, 0.1, seed=3)

        def outputs():
            triples = sample_epoch(split, 10, np.random.default_rng(4))
            loss, grads = batch_gradients(params, cfg, ds, triples[:64])
            return {"triples": triples.tobytes(), "loss": loss} | {
                name: dense_gradient(getattr(params, name), g).tobytes()
                for name, g in grads.items()}

        monkeypatch.setattr(model, "_cpus", lambda: 1)
        serial = outputs()
        want = reference.sample_epoch(split, 10, np.random.default_rng(4))
        assert serial["triples"] == want.tobytes()
        # three or more blocks of each: triples, and items the batch touches
        assert len(want) > 2 * model.CACHE_BLOCK
        assert len(np.unique(want[:64, 1:3])) > 2 * 5
        with switching_often():
            for cpus in (2, 5):
                monkeypatch.setattr(model, "_cpus", lambda: cpus)
                got = outputs()
                assert got == serial, (cpus, [k for k in got if got[k] != serial[k]])

    # 15 blocks of 3 users.  Blocks ``first`` and 14 raise, and block ``slow`` sleeps
    # first: at 2 CPUs the caller's block 1 fails while the pool's block 14 still
    # runs; at 3, block 7 (the second part) fails after block 14 (the third).
    @pytest.mark.parametrize("cpus,first,slow", [(2, 1, 14), (3, 7, 7)])
    def test_a_failing_keep_raises_the_first_blocks_error_once_every_block_is_done(
            self, monkeypatch, cpus, first, slow):
        monkeypatch.setattr(model, "_cpus", lambda: cpus)
        params, cfg, ds, users = catalog_instance("att", "att")
        running, done = set(), []

        def keep(scores, rows):
            block = rows.start // 3
            running.add(block)
            try:
                if block == slow:
                    time.sleep(0.2)
                if block in (first, 14):
                    raise ValueError(f"block {block}")
                return scores
            finally:
                running.discard(block)
                done.append(block)

        with pytest.raises(ValueError, match=f"^block {first}$"):
            score_catalog(users, params, cfg, ds, keep=keep)
        assert not running and {first, 14} <= set(done)
        assert first + 1 not in done  # a part stops at its first failing block

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
    def test_a_forked_child_runs_blocks_on_a_pool_of_its_own(self, monkeypatch):
        monkeypatch.setattr(model, "_cpus", lambda: 2)
        params, cfg, ds, _ = catalog_instance("att", "att")
        want = item_visual_table(params, cfg, ds).x.tobytes()
        parent_pool = model._workers
        assert parent_pool is not None
        pid = os.fork()
        if pid == 0:  # the child exits 0 only if a pool of its own built the same table
            code = 1
            try:
                got = item_visual_table(params, cfg, ds).x.tobytes()
                code = 0 if got == want and model._workers not in (None, parent_pool) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while True:
            reaped, status = os.waitpid(pid, os.WNOHANG)
            if reaped:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's table build hung")
            time.sleep(0.01)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status

    def test_blocks_asked_for_on_a_pool_thread_run_on_it(self, monkeypatch):
        """A ``keep`` that builds a table runs that table's blocks itself: handed
        to the pool, they would wait for the thread that waits for them."""
        monkeypatch.setattr(model, "_cpus", lambda: 2)
        params, cfg, ds, users = catalog_instance("att", "att")
        want = item_visual_table(params, cfg, ds).x

        def keep(scores, rows):
            same = np.array_equal(item_visual_table(params, cfg, ds).x, want)
            return np.full((len(scores), 1), same)

        result = []
        caller = threading.Thread(
            target=lambda: result.append(score_catalog(users, params, cfg, ds, keep=keep)),
            daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive(), "blocks run from a pool thread waited on the pool"
        assert result[0].shape == (len(users), 1) and result[0].all()


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        params, cfg, ds, _ = gradcheck_instance(seed=23)
        digest = dataset_digest(ds)
        path = tmp_path / "ck.npz"
        save_checkpoint(path, params, cfg, digest)
        back, cfg2, digest2 = load_checkpoint(path)
        assert cfg2 == cfg and digest2 == digest
        for name, tensor in params.tensors().items():
            np.testing.assert_array_equal(back.tensors()[name], tensor)

    @pytest.mark.parametrize("corrupt", [
        "not_json", "v1", "v2", "missing_tensor", "extra_tensor", "short_data",
        "shape_vs_config", "rows_vs_user_collab", "non_finite",
        "unknown_config_key", "missing_config_key",
        "v3_json", "empty", "pickled_member", "float32_tensor", "random_bytes", "bare_npy",
        "float_dimension", "float_seed",
    ])
    def test_rejects_corrupt_checkpoints(self, tmp_path, corrupt):
        params, cfg, ds, _ = gradcheck_instance(seed=23)
        path = tmp_path / "ck.npz"
        save_checkpoint(path, params, cfg, dataset_digest(ds))
        members = read_members(path)
        meta, config = members["meta"], members["meta"]["config"]
        if corrupt == "not_json":  # a truncated archive
            path.write_bytes(path.read_bytes()[:-100])
        elif corrupt == "v1":
            meta["format"] = "framerec-checkpoint-v1"
            config.update(activation="relu", precision="f64")
        elif corrupt == "v2":
            meta["format"] = "framerec-checkpoint-v2"
            config.update(attention_bias=False, share_visual_projection=False)
            members["attn_hidden_bias"] = np.zeros(cfg.attn_hidden_visual)
            members["fusion_hidden_bias"] = np.zeros(cfg.attn_hidden_rating)
        elif corrupt == "missing_tensor":
            del members["attn_out"]
        elif corrupt == "extra_tensor":
            members["extra"] = np.zeros(1)
        elif corrupt == "short_data":
            members["attn_out"] = members["attn_out"][:-1]
        elif corrupt == "shape_vs_config":
            members["fusion_out"] = np.zeros(5)
        elif corrupt == "rows_vs_user_collab":
            members["user_visual"] = np.vstack([members["user_visual"], np.zeros(cfg.d2)])
        elif corrupt == "non_finite":
            members["user_collab"].flat[3] = np.nan
        elif corrupt == "unknown_config_key":
            config["precision"] = "f64"
        elif corrupt == "missing_config_key":
            del config["lambda1"]
        elif corrupt == "v3_json":
            path.write_text(json.dumps({
                "format": "framerec-checkpoint-v3", "config": config,
                "dataset_digest": meta["dataset_digest"],
                "params": {name: {"shape": list(t.shape), "data": t.ravel().tolist()}
                           for name, t in params.tensors().items()},
            }, sort_keys=True), encoding="utf-8")
        elif corrupt == "empty":
            path.write_bytes(b"")
        elif corrupt == "pickled_member":
            members["attn_out"] = np.array([object()] * cfg.attn_hidden_visual)
        elif corrupt == "float32_tensor":
            members["user_collab"] = members["user_collab"].astype(np.float32)
        elif corrupt == "random_bytes":
            path.write_bytes(np.random.default_rng(0).bytes(len(path.read_bytes())))
        elif corrupt == "bare_npy":
            with open(path, "wb") as fh:
                np.save(fh, params.user_collab)
        elif corrupt == "float_dimension":  # loaded, it would pass the shape checks
            config["d1"] = float(config["d1"])
        elif corrupt == "float_seed":
            config["seed"] = 2.5
        if corrupt not in ("not_json", "v3_json", "empty", "random_bytes", "bare_npy"):
            write_members(path, members)
        with pytest.raises(IntegrityError) as exc:
            load_checkpoint(path)
        message = str(exc.value)
        assert message.startswith(f"{path}: ") and "\n" not in message  # the CLI's one line
        if corrupt == "v3_json":
            assert "JSON checkpoint (v3 or older)" in message
        if corrupt == "float32_tensor":
            assert "user_collab is not a float64 array" in message
        if corrupt.startswith("float_"):
            assert "must be an integer" in message

    def test_save_creates_missing_directories(self, tmp_path):
        params, cfg, ds, _ = gradcheck_instance(seed=23)
        path = tmp_path / "a" / "b" / "ck.npz"
        save_checkpoint(path, params, cfg, dataset_digest(ds))
        back, _, _ = load_checkpoint(path)
        np.testing.assert_array_equal(back.user_collab, params.user_collab)

    def test_failed_save_leaves_the_old_checkpoint(self, tmp_path, monkeypatch):
        params, cfg, ds, _ = gradcheck_instance(seed=23)
        path = tmp_path / "ck.npz"
        save_checkpoint(path, params, cfg, dataset_digest(ds))
        before = path.read_bytes()
        write_array, written = np.lib.format.write_array, []

        def fail_on_second_member(*args, **kwargs):
            if written:
                raise OSError("disk full")
            written.append(write_array(*args, **kwargs))

        monkeypatch.setattr(np.lib.format, "write_array", fail_on_second_member)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, init_params(cfg, ds), cfg, dataset_digest(ds))
        assert written  # the first member was written before the failure
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]

    def test_rejects_foreign_document(self, tmp_path):
        path = tmp_path / "not_ck.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    def test_members_are_stamped_1980_so_saves_are_byte_identical(self, tmp_path):
        params, cfg, ds, _ = gradcheck_instance(seed=23)
        first, second = tmp_path / "first.npz", tmp_path / "second.npz"
        save_checkpoint(first, params, cfg, dataset_digest(ds))
        with zipfile.ZipFile(first) as z:
            assert {info.date_time for info in z.infolist()} == {(1980, 1, 1, 0, 0, 0)}
            assert sorted(z.namelist()) == sorted(f"{n}.npy" for n in ("meta", *params.names()))
        save_checkpoint(second, params.copy(), cfg, dataset_digest(ds))
        assert first.read_bytes() == second.read_bytes()

    def test_writes_exactly_the_path_it_is_given(self, tmp_path):
        # the benchmark writes and reads "checkpoint.json"; no ".npz" may be added
        params, cfg, ds, _ = gradcheck_instance(seed=23)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, params, cfg, dataset_digest(ds))
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]
        back, _, _ = load_checkpoint(path)
        np.testing.assert_array_equal(back.item_collab, params.item_collab)

    def test_load_peak_memory_stays_below_twice_the_tensors(self, tmp_path):
        cfg = ModelConfig()
        rng = np.random.default_rng(0)
        params = ModelParams(**{name: rng.normal(size=shape) for name, shape in
                                param_shapes(cfg, 3000, 4000, 64).items()})
        nbytes = sum(t.nbytes for t in params.tensors().values())  # about 2.6 MB
        path = tmp_path / "ck.npz"
        save_checkpoint(path, params, cfg, "digest")
        (back, _, _), peak = traced_peak(lambda: load_checkpoint(path))
        assert peak < 2 * nbytes, (peak, nbytes)
        np.testing.assert_array_equal(back.user_visual, params.user_visual)

    def test_digest_tracks_id_mappings(self, toy_dataset):
        d1 = dataset_digest(toy_dataset)
        renamed = toy_dataset.__class__(
            **{**{f: getattr(toy_dataset, f) for f in (
                "ratings", "frame_parent", "frame_features",
                "item_ids", "frame_ids",
            )}, "user_ids": ("u0", "u1", "zz")},
        )
        assert dataset_digest(renamed) != d1
        assert dataset_digest(toy_dataset) == d1  # stable across calls
