"""Loss values, sampling, gradients, the optimiser, and the fit loop."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from framerec import model, training
from framerec.data import PORTIONS, Dataset, split_ratings
from framerec.errors import (
    ConfigError,
    EmptyDatasetError,
    FrameRecError,
    NonFiniteError,
    SamplingError,
)
from framerec.model import ModelConfig, active_param_names, init_params, item_visual_table
from framerec.synth import SynthConfig, generate_synthetic
from framerec.training import (
    EMBEDDINGS,
    EpochRecord,
    TrainConfig,
    TrainLog,
    adam_step,
    batch_gradients,
    batch_loss,
    bpr_pair_loss,
    dense_gradient,
    finite_diff_check,
    fit,
    gradcheck_instance,
    init_adam_state,
    sample_epoch,
)
import reference
from conftest import pair_set
from reference import adam_step_dense, adam_step_per_tensor, full_catalog_gradients

LN2 = math.log(2.0)


def small_split(seed=0, **synth_kw):
    kw = dict(num_users=10, num_items=16, frames_per_item=3, feature_dim=5,
              latent_dim=3, ratings_per_user=6, frame_likes_per_pair=1, seed=seed)
    kw.update(synth_kw)
    ds, likes, _ = generate_synthetic(SynthConfig(**kw))
    return split_ratings(ds, 0.6, 0.2, seed=seed, frame_likes=likes)


def small_model(**kw):
    base = dict(d1=4, d2=4, attn_hidden_visual=4, attn_hidden_rating=4,
                reduced_visual_dim=4, visual_mode="att", fusion_mode="att",
                init_scale=0.2, seed=1)
    base.update(kw)
    return ModelConfig(**base)


class TestPairLoss:
    def test_equal_scores_give_log_two(self):
        np.testing.assert_allclose(bpr_pair_loss(1.7, 1.7), LN2, rtol=1e-15)

    def test_log_three_margin(self):
        # softplus(-ln 3) = ln(4/3)
        np.testing.assert_allclose(
            bpr_pair_loss(math.log(3.0), 0.0), math.log(4.0 / 3.0), rtol=1e-14
        )

    def test_extreme_margins_stay_finite(self):
        assert bpr_pair_loss(1000.0, 0.0) == 0.0
        big = bpr_pair_loss(-1000.0, 0.0)
        assert np.isfinite(big) and abs(big - 1000.0) < 1e-9
        arr = bpr_pair_loss(np.array([50.0, -50.0]), np.array([0.0, 0.0]))
        assert np.isfinite(arr).all()


def sample_epoch_loop(split, neg_ratio, rng):
    """sample_epoch's draw, one user at a time: the user's unrated pool by
    np.setdiff1d, indexed at floor(u * pool size) for each triple's uniform u."""
    base = split.base
    train = split.pairs("train")
    all_items = np.arange(base.num_items, dtype=np.int64)
    pool_of_user = {}
    for u in np.unique(train[:, 0]):
        pool = np.setdiff1d(all_items, base.items_of_user[u], assume_unique=True)
        if len(pool) == 0:
            raise SamplingError(f"user {base.user_ids[u]!r} has rated every item")
        pool_of_user[int(u)] = pool
    reps = np.repeat(train, neg_ratio, axis=0)
    uniforms = rng.random(len(reps))
    negs = np.empty(len(reps), dtype=np.int64)
    for u, pool in pool_of_user.items():
        rows = np.nonzero(reps[:, 0] == u)[0]
        negs[rows] = pool[(uniforms[rows] * len(pool)).astype(np.int64)]
    triples = np.column_stack([reps, negs])
    return triples[rng.permutation(len(triples))]


class TestSampling:
    def test_shape_and_validity(self):
        split = small_split()
        rng = np.random.default_rng(0)
        triples = sample_epoch(split, neg_ratio=4, rng=rng)
        assert triples.shape == (len(split.pairs("train")) * 4, 3)
        rated = {(int(u), int(i)) for u, i in split.base.ratings}
        train = pair_set(split.pairs("train"))
        for u, i, j in triples.tolist():
            assert (u, i) in train
            assert (u, j) not in rated  # negatives avoid every portion

    def test_each_training_pair_appears_neg_ratio_times(self):
        split = small_split()
        triples = sample_epoch(split, neg_ratio=3, rng=np.random.default_rng(1))
        pairs, counts = np.unique(triples[:, :2], axis=0, return_counts=True)
        assert (counts == 3).all()
        assert len(pairs) == len(split.pairs("train"))

    def test_deterministic_given_rng(self):
        split = small_split()
        a = sample_epoch(split, 2, np.random.default_rng(5))
        b = sample_epoch(split, 2, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_saturated_user_raises(self):
        ds = Dataset(
            ratings=frozenset({(0, 0), (0, 1)}),
            frame_parent=np.array([0, 1], dtype=np.int64),
            frame_features=np.ones((2, 1)),
            user_ids=("u",), item_ids=("a", "b"), frame_ids=("fa", "fb"),
        )
        split = split_ratings(ds, 0.5, 0.25, seed=0)
        with pytest.raises(SamplingError):
            sample_epoch(split, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("neg_ratio", [1, 2, 10])
    def test_matches_the_stack_then_permute_draw(self, s_split, neg_ratio):
        for seed in range(3):
            got = sample_epoch(s_split, neg_ratio, np.random.default_rng(seed))
            want = reference.sample_epoch(s_split, neg_ratio, np.random.default_rng(seed))
            assert got.dtype == want.dtype and got.flags.c_contiguous
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_per_user_loop(self, seed):
        split = small_split(seed=seed)
        # relabel user 0's training ratings as test: a cold user
        portion = split.portion.copy()
        portion[(split.base.ratings[:, 0] == 0) & (portion == 0)] = PORTIONS.index("test")
        split = replace(split, portion=portion)
        assert not (split.pairs("train")[:, 0] == 0).any()
        for epoch_seed in range(3):
            got = sample_epoch(split, 4, np.random.default_rng(epoch_seed))
            want = sample_epoch_loop(split, 4, np.random.default_rng(epoch_seed))
            np.testing.assert_array_equal(got, want)


class TestBatchLoss:
    def test_full_vs_touched_reg_scopes(self):
        # the penalty covers touched rows only: the whole-matrix norms exceed
        # it by exactly the untouched rows
        params, cfg, ds, batch = gradcheck_instance(seed=2)
        touched = batch_loss(params, cfg, ds, batch)
        ranking = batch_loss(params, replace(cfg, lambda1=0.0), ds, batch)
        full = ranking + cfg.lambda1 * sum(
            np.sum(t ** 2) for t in (params.user_collab, params.item_collab,
                                     params.user_visual))
        users = np.unique(batch[:, 0])
        items = np.unique(batch[:, 1:3])
        out_u = np.setdiff1d(np.arange(ds.num_users), users)
        out_i = np.setdiff1d(np.arange(ds.num_items), items)
        untouched = (
            np.sum(params.user_collab[out_u] ** 2)
            + np.sum(params.user_visual[out_u] ** 2)
            + np.sum(params.item_collab[out_i] ** 2)
        )
        np.testing.assert_allclose(full - touched, cfg.lambda1 * untouched, rtol=1e-9)

    def test_mean_and_sum_reductions(self):
        params, cfg, ds, batch = gradcheck_instance(seed=4, lambda1=0.0)
        mean = batch_loss(params, cfg, ds, batch, reduction="mean")
        total = batch_loss(params, cfg, ds, batch, reduction="sum")
        np.testing.assert_allclose(total, mean * len(batch), rtol=1e-12)

    def test_ranking_term_matches_pair_losses(self):
        params, cfg, ds, batch = gradcheck_instance(seed=6, lambda1=0.0,
                                                    visual_mode="off")
        from framerec.model import score_pairs

        pos = score_pairs(batch[:, 0], batch[:, 1], params, cfg, ds)
        neg = score_pairs(batch[:, 0], batch[:, 2], params, cfg, ds)
        ref = bpr_pair_loss(pos, neg).mean()
        np.testing.assert_allclose(
            batch_loss(params, cfg, ds, batch), ref, rtol=1e-14
        )


class TestGradients:
    @pytest.mark.parametrize("visual,fusion", [
        ("off", "sum"), ("avg", "sum"), ("avg", "att"), ("att", "sum"), ("att", "att"),
    ])
    def test_matches_finite_differences(self, visual, fusion):
        params, cfg, ds, batch = gradcheck_instance(
            seed=31, visual_mode=visual, fusion_mode=fusion
        )
        report = finite_diff_check(params, cfg, ds, batch)
        assert report.max_rel_err < 1e-4, report.per_param

    def test_matches_finite_differences_with_options(self):
        for kw in (dict(lambda1=0.0),):
            params, cfg, ds, batch = gradcheck_instance(seed=37, **kw)
            report = finite_diff_check(params, cfg, ds, batch)
            assert report.max_rel_err < 1e-4, (kw, report.per_param)

    def test_sum_reduction_gradients(self):
        params, cfg, ds, batch = gradcheck_instance(seed=41)
        report = finite_diff_check(params, cfg, ds, batch, reduction="sum")
        assert report.max_rel_err < 1e-4

    def test_untouched_rows_get_zero_gradient(self):
        params, cfg, ds, batch = gradcheck_instance(seed=43)
        batch = batch[batch[:, 0] != 0]  # drop user 0 from the batch
        assert len(batch)
        _, grads = batch_gradients(params, cfg, ds, batch)
        for name in ("user_collab", "user_visual"):
            rows, _ = grads[name]
            assert 0 not in rows
            assert not dense_gradient(params.tensors()[name], grads[name])[0].any()

    @pytest.mark.parametrize("visual,fusion", [("off", "sum"), ("att", "att")])
    def test_embedding_gradients_hold_the_touched_rows(self, visual, fusion):
        params, cfg, ds, batch = gradcheck_instance(seed=43, visual_mode=visual,
                                                    fusion_mode=fusion)
        batch = batch[batch[:, 0] != 0]
        _, grads = batch_gradients(params, cfg, ds, batch)
        touched = {"user_collab": np.unique(batch[:, 0]), "item_collab": np.unique(batch[:, 1:]),
                   "user_visual": np.unique(batch[:, 0])}
        for name, grad in grads.items():
            tensor = params.tensors()[name]
            if name in EMBEDDINGS:
                rows, values = grad
                np.testing.assert_array_equal(rows, touched[name])
                assert values.shape == (len(rows), tensor.shape[1])
            else:
                assert grad.shape == tensor.shape

    def test_gradients_only_for_active_tensors(self):
        params, cfg, ds, batch = gradcheck_instance(seed=43, visual_mode="avg",
                                                    fusion_mode="sum")
        _, grads = batch_gradients(params, cfg, ds, batch)
        assert set(grads) == {"user_collab", "item_collab", "user_visual",
                              "visual_proj"}

    def test_step_size_must_be_positive(self):
        params, cfg, ds, batch = gradcheck_instance(seed=2)
        with pytest.raises(ConfigError):
            finite_diff_check(params, cfg, ds, batch, h=0.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_step_size_must_be_finite(self, h):
        params, cfg, ds, batch = gradcheck_instance(seed=2)
        with pytest.raises(ConfigError, match="finite"):
            finite_diff_check(params, cfg, ds, batch, h=h)

    @pytest.mark.parametrize("max_coords", [0, -1])
    def test_checks_at_least_one_coordinate(self, max_coords):
        params, cfg, ds, batch = gradcheck_instance(seed=2)
        with pytest.raises(ConfigError, match="max_coords"):
            finite_diff_check(params, cfg, ds, batch, max_coords=max_coords)

    def test_non_finite_parameter_fails_the_check(self):
        # max() drops NaN, so a NaN error would otherwise read as a pass
        params, cfg, ds, batch = gradcheck_instance(seed=0)
        params.attn_out[0] = np.nan
        with pytest.raises(NonFiniteError, match=r"gradient check: \w+\[\d+\] has analytic"):
            finite_diff_check(params, cfg, ds, batch)

    def test_empty_batch_raises(self):
        params, cfg, ds, batch = gradcheck_instance(seed=2)
        with pytest.raises(EmptyDatasetError, match="empty batch") as info:
            batch_gradients(params, cfg, ds, batch[:0])
        assert isinstance(info.value, FrameRecError)


MODES = [(v, f) for v in ("off", "avg", "att") for f in ("sum", "att")]


@pytest.fixture(scope="module")
def s_split():
    """The acceptance size: 200 users x 300 items x 5 frames, F=16."""
    ds, likes, _ = generate_synthetic(SynthConfig(
        num_users=200, num_items=300, frames_per_item=5, feature_dim=16,
        latent_dim=8, ratings_per_user=20, frame_likes_per_pair=1, seed=42,
    ))
    return split_ratings(ds, 0.7, 0.1, seed=123, frame_likes=likes)


def test_row_set_is_np_unique():
    """The touched rows and each id's position among them, as np.unique gives them."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    catalogs = st.integers(1, 60).flatmap(lambda size: st.tuples(
        st.just(size), st.lists(st.integers(0, size - 1), min_size=1, max_size=80)))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.example(case=(4, [3, 1, 3, 3, 0, 1]))  # repeats
    @hypothesis.example(case=(9, [5]))  # a single id
    @hypothesis.example(case=(9, [0, 8, 8, 0]))  # the catalog's first and last ids
    @hypothesis.example(case=(5, [2, 0, 4, 1, 3]))  # every id of a small catalog
    @hypothesis.given(case=catalogs)
    def check(case):
        size, ids = case
        ids = np.array(ids, dtype=np.int64)
        rows, inverse = training._row_set(ids, size)
        want_rows, want_inverse = np.unique(ids, return_inverse=True)
        for got, want in ((rows, want_rows), (inverse, want_inverse)):
            assert got.dtype.kind == "i"
            np.testing.assert_array_equal(got, want)

    check()


def assert_matches_the_full_catalog_backward(params, cfg, ds, batch):
    """``batch_gradients`` against the whole-catalog oracle, with the table built on the
    fly and handed over, under both reductions: the loss exactly, each gradient within
    1e-12 of its largest entry."""
    full = item_visual_table(params, cfg, ds)
    for reduction in ("mean", "sum"):
        for table in (None, full):
            loss, grads = batch_gradients(params, cfg, ds, batch, reduction, table)
            want_loss, want = full_catalog_gradients(params, cfg, ds, batch, reduction, table)
            assert loss == want_loss
            assert set(grads) == set(want)
            for name, g in want.items():
                err = np.abs(dense_gradient(g, grads[name]) - g).max()
                assert err <= 1e-12 * np.abs(g).max(), (name, err)


class TestTouchedRowBackward:
    @pytest.mark.parametrize("visual,fusion", MODES)
    def test_matches_the_full_catalog_backward(self, visual, fusion, s_split, monkeypatch):
        instances = [gradcheck_instance(seed=seed, visual_mode=visual, fusion_mode=fusion)
                     for seed in range(5)]
        cfg = ModelConfig(d1=8, d2=8, attn_hidden_visual=8, attn_hidden_rating=8,
                          reduced_visual_dim=8, visual_mode=visual, fusion_mode=fusion,
                          seed=1)
        base = s_split.base
        batch = sample_epoch(s_split, 10, np.random.default_rng(2))[:512]
        instances.append((init_params(cfg, base), cfg, base, batch))
        if visual != "off" and fusion == "sum":  # channels of two widths, d1 != d2
            uneven = replace(cfg, d2=5)
            instances.append((init_params(uneven, base), uneven, base, batch))
        for params, cfg, ds, batch in instances:
            assert_matches_the_full_catalog_backward(params, cfg, ds, batch)
            # again with the table backward in blocks of a third of the touched items
            # (CACHE_BLOCK // (m * max(h, F)) items a block), so in three or more
            touched = len(np.unique(batch[:, 1:3]))
            _, m, f = ds.padded_features.shape
            per_item = m * max(cfg.attn_hidden_visual, f)
            with monkeypatch.context() as patch:
                patch.setattr(model, "CACHE_BLOCK", touched // 3 * per_item)
                assert -(-touched // (model.CACHE_BLOCK // per_item)) >= 3
                assert_matches_the_full_catalog_backward(params, cfg, ds, batch)

    @pytest.mark.parametrize("fusion", ["sum", "att"])
    def test_the_factor_gradients_keep_their_bits_in_blocks(self, fusion, s_split, monkeypatch):
        """Only the weight gradients add parts across the table backward's blocks: the
        factors' gradients have the one block's bytes at any block size, blocks of
        one touched item included, whose row products would round apart."""
        cfg = ModelConfig(d1=8, d2=8, attn_hidden_visual=8, attn_hidden_rating=8,
                          reduced_visual_dim=8, fusion_mode=fusion, seed=1)
        base = s_split.base
        params = init_params(cfg, base)
        batch = sample_epoch(s_split, 10, np.random.default_rng(2))[:512]
        table = item_visual_table(params, cfg, base)  # the forward's blocks stay as they are
        want = batch_gradients(params, cfg, base, batch, table=table)[1]
        touched = len(np.unique(batch[:, 1:3]))
        per_item = 5 * max(cfg.attn_hidden_visual, base.feature_dim)
        assert model.CACHE_BLOCK // per_item >= touched  # one block
        for items in (1, touched - 1):  # every block of one item; one left over
            monkeypatch.setattr(model, "CACHE_BLOCK", items * per_item)
            got = batch_gradients(params, cfg, base, batch, table=table)[1]
            for name in EMBEDDINGS:
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got[name], want[name])), \
                    (items, name)


class TestAdam:
    def test_first_step_hand_value(self):
        # with gradient 1 the first update is lr / (1 + eps), independent of
        # the moment decay rates
        cfg = small_model(visual_mode="off", fusion_mode="sum", d1=1, d2=1)
        tcfg = TrainConfig(lr=0.001)
        ds, _, _ = generate_synthetic(SynthConfig(
            num_users=1, num_items=1, frames_per_item=1, feature_dim=1,
            latent_dim=1, ratings_per_user=1, frame_likes_per_pair=1, seed=0,
        ))
        params = init_params(cfg, ds)
        params.user_collab[:] = 0.0
        params.item_collab[:] = 0.0
        state = init_adam_state(params, cfg)
        grads = {  # a (rows, values) pair and a dense gradient update alike
            "user_collab": (np.array([0]), np.array([[1.0]])),
            "item_collab": np.array([[-1.0]]),
        }
        adam_step(params, grads, state, tcfg)
        expected = 0.001 / (1.0 + 1e-8)
        np.testing.assert_allclose(params.user_collab[0, 0], -expected, rtol=1e-12)
        np.testing.assert_allclose(params.item_collab[0, 0], expected, rtol=1e-12)
        assert state.step == 1

    def test_bias_correction_across_steps(self):
        # constant gradient g: every update equals lr * g / (|g| + eps')
        cfg = small_model(visual_mode="off", fusion_mode="sum", d1=1, d2=1)
        tcfg = TrainConfig(lr=0.01)
        ds, _, _ = generate_synthetic(SynthConfig(
            num_users=1, num_items=1, frames_per_item=1, feature_dim=1,
            latent_dim=1, ratings_per_user=1, frame_likes_per_pair=1, seed=0,
        ))
        params = init_params(cfg, ds)
        params.user_collab[:] = 0.0
        state = init_adam_state(params, cfg)
        g = {"user_collab": np.array([[0.5]]),
             "item_collab": np.zeros((1, 1))}
        for t in range(1, 6):
            before = params.user_collab[0, 0]
            adam_step(params, g, state, tcfg)
            step = before - params.user_collab[0, 0]
            np.testing.assert_allclose(step, 0.01 * 0.5 / (0.5 + 1e-8), rtol=1e-9)

    @pytest.mark.parametrize("visual,fusion", MODES)
    def test_first_step_equals_the_dense_update(self, visual, fusion, s_split):
        # from a fresh state a dense update moves an untouched row by exactly 0
        cfg = small_model(d1=8, d2=8, visual_mode=visual, fusion_mode=fusion)
        base = s_split.base
        batch = sample_epoch(s_split, 10, np.random.default_rng(4))[:64]
        tcfg = TrainConfig(lr=0.01)
        fresh = init_params(cfg, base)
        _, grads = batch_gradients(fresh, cfg, base, batch)
        lazy, dense = fresh.copy(), fresh.copy()
        lazy_state, dense_state = init_adam_state(lazy, cfg), init_adam_state(dense, cfg)
        adam_step(lazy, grads, lazy_state, tcfg)
        adam_step_dense(dense, grads, dense_state, tcfg)
        for name in grads:
            np.testing.assert_array_equal(lazy.tensors()[name], dense.tensors()[name])
            np.testing.assert_array_equal(lazy_state.m[name], dense_state.m[name])
            np.testing.assert_array_equal(lazy_state.v[name], dense_state.v[name])
        untouched = np.setdiff1d(np.arange(base.num_items), batch[:, 1:])
        assert len(untouched)
        np.testing.assert_array_equal(dense.item_collab[untouched], fresh.item_collab[untouched])
        assert not np.array_equal(dense.item_collab, fresh.item_collab)

    @pytest.mark.parametrize("visual,fusion", [("off", "sum"), ("att", "att")])
    def test_rows_outside_the_batch_keep_their_bits(self, visual, fusion, s_split):
        cfg = small_model(d1=8, d2=8, visual_mode=visual, fusion_mode=fusion)
        base = s_split.base
        triples = sample_epoch(s_split, 10, np.random.default_rng(5))
        params = init_params(cfg, base)
        state = init_adam_state(params, cfg)
        tcfg = TrainConfig(lr=0.01)
        for step, lo in enumerate(range(0, 4 * 64, 64), start=1):
            batch = triples[lo: lo + 64]
            _, grads = batch_gradients(params, cfg, base, batch)
            before = params.copy()
            moments = {n: (state.m[n].copy(), state.v[n].copy()) for n in grads}
            adam_step(params, grads, state, tcfg)
            for name in EMBEDDINGS:
                if name not in grads:
                    continue
                rows = grads[name][0]
                out = np.setdiff1d(np.arange(len(before.tensors()[name])), rows)
                assert len(out) and len(rows)
                for got, was in ((params.tensors()[name], before.tensors()[name]),
                                 (state.m[name], moments[name][0]),
                                 (state.v[name], moments[name][1])):
                    np.testing.assert_array_equal(got[out], was[out])
                    if step > 1:  # the touched rows' moments decay, so they move
                        assert not np.array_equal(got[rows], was[rows])

    @pytest.mark.parametrize("visual,fusion", MODES)
    def test_matches_the_per_tensor_update(self, visual, fusion, s_split):
        # the flat pass over the dense tensors keeps every bit of a per-tensor update
        cfg = small_model(d1=8, d2=8, attn_hidden_visual=8, attn_hidden_rating=8,
                          reduced_visual_dim=8, visual_mode=visual, fusion_mode=fusion)
        base = s_split.base
        triples = sample_epoch(s_split, 10, np.random.default_rng(6))
        tcfg = TrainConfig(lr=0.01)
        params = init_params(cfg, base)
        oracle = params.copy()
        state = init_adam_state(params, cfg)
        oracle_state = SimpleNamespace(
            m={n: np.zeros_like(t) for n, t in oracle.tensors().items() if n in state.m},
            v={n: np.zeros_like(t) for n, t in oracle.tensors().items() if n in state.m},
            step=0,
        )
        assert state.dense == tuple(n for n in active_param_names(cfg) if n not in EMBEDDINGS)
        for name in state.dense:
            for moments, flat in ((state.m, state.flat_m), (state.v, state.flat_v)):
                assert np.shares_memory(moments[name], flat)
                assert moments[name].base is flat
        for lo in range(0, 5 * 512, 512):
            _, grads = batch_gradients(params, cfg, base, triples[lo: lo + 512])
            adam_step(params, grads, state, tcfg)
            adam_step_per_tensor(oracle, grads, oracle_state, tcfg)
            assert state.step == oracle_state.step
            for name in params.names():
                np.testing.assert_array_equal(params.tensors()[name], oracle.tensors()[name])
            for name in state.m:
                np.testing.assert_array_equal(state.m[name], oracle_state.m[name])
                np.testing.assert_array_equal(state.v[name], oracle_state.v[name])

    def test_partial_dense_gradients_raise(self):
        params, cfg, ds, batch = gradcheck_instance(seed=2)
        _, grads = batch_gradients(params, cfg, ds, batch)
        state = init_adam_state(params, cfg)
        del grads["attn_out"]
        with pytest.raises(ValueError, match="attn_out"):
            adam_step(params, grads, state, TrainConfig())

    def test_only_active_tensors_tracked(self):
        params, cfg, ds, _ = gradcheck_instance(seed=3, visual_mode="off",
                                                fusion_mode="sum")
        state = init_adam_state(params, cfg)
        assert set(state.m) == {"user_collab", "item_collab"}

    def test_inactive_tensors_never_move(self):
        split = small_split()
        cfg = small_model(visual_mode="off", fusion_mode="sum")
        tcfg = TrainConfig(epochs=2, batch_size=64, neg_ratio=2, seed=9)
        fresh = init_params(cfg, split.base)
        trained, _ = fit(split, cfg, tcfg)
        np.testing.assert_array_equal(trained.user_visual, fresh.user_visual)
        np.testing.assert_array_equal(trained.visual_proj, fresh.visual_proj)
        assert not np.array_equal(trained.user_collab, fresh.user_collab)


class TestFit:
    def test_deterministic(self):
        split = small_split()
        cfg = small_model()
        tcfg = TrainConfig(epochs=3, batch_size=64, neg_ratio=2, seed=7)
        p1, log1 = fit(split, cfg, tcfg)
        p2, log2 = fit(split, cfg, tcfg)
        for name, tensor in p1.tensors().items():
            np.testing.assert_array_equal(tensor, p2.tensors()[name])
        assert [r.train_loss for r in log1.epochs] == [r.train_loss for r in log2.epochs]

    def test_loss_decreases(self):
        split = small_split()
        cfg = small_model()
        tcfg = TrainConfig(lr=0.01, epochs=8, batch_size=128, neg_ratio=4, seed=3)
        _, log = fit(split, cfg, tcfg)
        losses = [r.train_loss for r in log.epochs]
        assert losses[-1] < losses[0]

    def test_early_stopping_restores_best_epoch(self):
        split = small_split()
        cfg = small_model()
        # huge lr destabilises validation quickly; patience 2 must trigger
        tcfg = TrainConfig(lr=0.5, epochs=40, batch_size=64, neg_ratio=2,
                           patience=2, seed=5)
        params, log = fit(split, cfg, tcfg)
        assert log.stopped_early
        assert len(log.epochs) < 40
        assert 1 <= log.best_epoch <= len(log.epochs)
        # the returned parameters are the snapshot from the best epoch, not
        # the final one: retraining for exactly best_epoch epochs matches
        replay, _ = fit(split, cfg, TrainConfig(lr=0.5, epochs=log.best_epoch,
                                                batch_size=64, neg_ratio=2,
                                                patience=2, seed=5))
        np.testing.assert_array_equal(params.user_collab, replay.user_collab)

    def test_log_records_epochs(self):
        split = small_split()
        cfg = small_model(visual_mode="avg", fusion_mode="sum")
        tcfg = TrainConfig(epochs=2, batch_size=64, neg_ratio=2, seed=1)
        _, log = fit(split, cfg, tcfg)
        assert [r.epoch for r in log.epochs] == [1, 2]
        assert all(np.isfinite(r.train_loss) for r in log.epochs)
        assert all(0.0 <= r.valid_hr <= 1.0 for r in log.epochs)
        text = log.to_tsv()
        assert text.startswith("epoch\ttrain_loss")
        assert len(text.strip().splitlines()) == 3

    def test_log_save_creates_missing_directories(self, tmp_path):
        log = TrainLog(epochs=[EpochRecord(1, 0.5, 0.25, 0.125, 0.0)], best_epoch=1)
        path = tmp_path / "a" / "b" / "train_log.tsv"
        log.save(path)
        assert path.read_text(encoding="utf-8") == log.to_tsv()

    def test_non_finite_gradient_stops_before_the_update(self):
        split = small_split()
        cfg = small_model()
        params = init_params(cfg, split.base)
        params.visual_proj[0, 0] = np.nan
        before = params.copy()
        with pytest.raises(NonFiniteError, match="epoch 1, batch 1:"):
            fit(split, cfg, TrainConfig(epochs=2, batch_size=64, neg_ratio=2),
                params=params)
        np.testing.assert_array_equal(params.user_collab, before.user_collab)

    @pytest.mark.parametrize("values,bad", [
        ({"attn_out": 1e200}, None),
        ({"attn_out": 1e200, "fusion_out": np.nan}, "fusion_out"),
        ({"item_collab": -np.inf, "attn_out": np.nan}, "item_collab"),
    ], ids=["overflow-only", "nan-after-overflow", "inf-embedding-rows"])
    def test_the_scan_names_the_first_non_finite_gradient(self, monkeypatch, values, bad):
        # a sum of squares that overflows sends the batch to the scan, which stops fit
        # only for a tensor holding a non-finite value, and names the first in active order
        real = training.batch_gradients

        def filled(*args, **kwargs):
            loss, grads = real(*args, **kwargs)
            for name, value in values.items():
                if isinstance(grads[name], tuple):  # an embedding's (rows, values)
                    rows, g = grads[name]
                    grads[name] = (rows, np.full_like(g, value))
                else:
                    grads[name] = np.full_like(grads[name], value)
            return loss, grads

        monkeypatch.setattr(training, "batch_gradients", filled)
        split, cfg, tcfg = small_split(), small_model(), TrainConfig(batch_size=64, epochs=1)
        if bad is None:
            fit(split, cfg, tcfg)
            return
        with pytest.raises(NonFiniteError, match=rf"epoch 1, batch 1: loss [^,]+, "
                                                 rf"first non-finite gradient {bad}$"):
            fit(split, cfg, tcfg)

    def test_nan_attention_logits_stop_fit(self):
        # the NaN reaches the loss, not only the gradients
        split = small_split()
        cfg = small_model()
        params = init_params(cfg, split.base)
        params.attn_out[0] = np.nan
        with pytest.raises(NonFiniteError, match="epoch 1, batch 1: loss nan"):
            fit(split, cfg, TrainConfig(epochs=2, batch_size=64, neg_ratio=2), params=params)

    @pytest.mark.parametrize("visual,fusion", [("att", "att"), ("avg", "sum")])
    def test_train_loss_matches_a_loop_passing_the_full_table(self, visual, fusion):
        # perfbench's traced loop passes a full-catalog table to
        # batch_gradients and compares its losses with fit's bit for bit
        split = small_split()
        cfg = small_model(visual_mode=visual, fusion_mode=fusion)
        tcfg = TrainConfig(lr=0.01, epochs=3, batch_size=64, neg_ratio=2, patience=3, seed=7)
        _, log = fit(split, cfg, tcfg)
        base = split.base
        params = init_params(cfg, base)
        state = init_adam_state(params, cfg)
        sample_seq, _ = np.random.SeedSequence(tcfg.seed).spawn(2)
        rng = np.random.default_rng(sample_seq)
        losses = []
        for _ in range(tcfg.epochs):
            triples = sample_epoch(split, tcfg.neg_ratio, rng)
            total = 0.0
            for lo in range(0, len(triples), tcfg.batch_size):
                chunk = triples[lo: lo + tcfg.batch_size]
                table = item_visual_table(params, cfg, base)
                loss, grads = batch_gradients(params, cfg, base, chunk, table=table)
                adam_step(params, grads, state, tcfg)
                total += loss * len(chunk)
            losses.append(total / len(triples))
        assert losses == [r.train_loss for r in log.epochs]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(loss_reduction="median")
        for bad in ({"lr": 0.0}, {"lr": float("nan")}, {"lr": float("inf")},
                    {"patience": 0}, {"patience": -3}):
            with pytest.raises(ConfigError):
                TrainConfig(**bad)


# Four M training steps in a fresh process; prints the sha256 of the parameters.
M_STEPS = """
import hashlib
import numpy as np
from framerec import (ModelConfig, SynthConfig, TrainConfig, adam_step, batch_gradients,
                      generate_synthetic, init_adam_state, init_params, sample_epoch, split_ratings)
ds, _, _ = generate_synthetic(SynthConfig(num_users=2000, num_items=3000, frames_per_item=8,
                                          feature_dim=64, seed=1))
split = split_ratings(ds, 0.7, 0.1, seed=1)
cfg, tcfg = ModelConfig(seed=1), TrainConfig(lr=0.01)
params = init_params(cfg, ds)
state = init_adam_state(params, cfg)
triples = sample_epoch(split, 1, np.random.default_rng(1))
for lo in range(0, 4 * 512, 512):
    _, grads = batch_gradients(params, cfg, ds, triples[lo: lo + 512])
    adam_step(params, grads, state, tcfg)
print(hashlib.sha256(b"".join(t.tobytes() for t in params.tensors().values())).hexdigest())
"""


@pytest.mark.skipif(model._cpus() < 2, reason="needs 2 CPUs: on one, OpenBLAS runs one "
                                                "thread whatever OPENBLAS_NUM_THREADS asks")
@pytest.mark.skipif(not model._blas_pinned, reason="numpy's BLAS exports no thread setter "
                                                   "that the package knows, so it is not pinned")
def test_training_bytes_do_not_depend_on_the_blas_threads():
    """The package pins numpy's OpenBLAS to one thread at import, so four M
    ``batch_gradients`` + ``adam_step`` steps give the same parameters under
    ``OPENBLAS_NUM_THREADS=1`` and ``=2`` (unpinned, they round apart)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    digests = [subprocess.run([sys.executable, "-c", M_STEPS], env={**env, "OPENBLAS_NUM_THREADS": n},
                              capture_output=True, text=True, check=True, timeout=300).stdout
               for n in ("1", "2")]
    assert len(digests[0].strip()) == 64 and digests[0] == digests[1]
