"""Loss values, sampling, gradients, the optimiser, and the fit loop."""

import math
from dataclasses import replace

import numpy as np
import pytest

from framerec.data import PORTIONS, Dataset, split_ratings
from framerec.errors import (
    ConfigError,
    EmptyDatasetError,
    FrameRecError,
    NonFiniteError,
    SamplingError,
)
from framerec.model import ModelConfig, init_params, item_visual_table
from framerec.synth import SynthConfig, generate_synthetic
from framerec.training import (
    AdamState,
    EpochRecord,
    TrainConfig,
    TrainLog,
    adam_step,
    batch_gradients,
    batch_loss,
    bpr_pair_loss,
    finite_diff_check,
    fit,
    gradcheck_instance,
    init_adam_state,
    sample_epoch,
)
from conftest import pair_set
from reference import full_catalog_gradients

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
    """The per-user scan sample_epoch replaced, kept as its oracle."""
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
    negs = np.empty(len(reps), dtype=np.int64)
    for u, pool in pool_of_user.items():
        rows = np.nonzero(reps[:, 0] == u)[0]
        negs[rows] = pool[rng.integers(0, len(pool), size=len(rows))]
    triples = np.column_stack([reps, negs])
    return triples[rng.permutation(len(triples))]


class TestSampling:
    def test_shape_and_validity(self):
        split = small_split()
        rng = np.random.default_rng(0)
        triples = sample_epoch(split, neg_ratio=4, rng=rng)
        assert triples.shape == (len(split.train) * 4, 3)
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
        assert len(pairs) == len(split.train)

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
        assert not grads["user_collab"][0].any()
        assert not grads["user_visual"][0].any()

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


class TestTouchedRowBackward:
    @pytest.mark.parametrize("visual,fusion", MODES)
    def test_matches_the_full_catalog_backward(self, visual, fusion, s_split):
        instances = [gradcheck_instance(seed=seed, visual_mode=visual, fusion_mode=fusion)
                     for seed in range(5)]
        cfg = ModelConfig(d1=8, d2=8, attn_hidden_visual=8, attn_hidden_rating=8,
                          reduced_visual_dim=8, visual_mode=visual, fusion_mode=fusion,
                          seed=1)
        base = s_split.base
        batch = sample_epoch(s_split, 10, np.random.default_rng(2))[:512]
        instances.append((init_params(cfg, base), cfg, base, batch))
        for params, cfg, ds, batch in instances:
            full = item_visual_table(params, cfg, ds)
            for reduction in ("mean", "sum"):
                for table in (None, full):
                    loss, grads = batch_gradients(params, cfg, ds, batch, reduction, table)
                    want_loss, want = full_catalog_gradients(
                        params, cfg, ds, batch, reduction, table)
                    assert loss == want_loss
                    assert set(grads) == set(want)
                    for name, g in want.items():
                        err = np.abs(grads[name] - g).max()
                        assert err <= 1e-12 * np.abs(g).max(), (name, err)


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
        grads = {
            "user_collab": np.array([[1.0]]),
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
