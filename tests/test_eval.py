"""Rank computation, metric values, and the two evaluation protocols."""

import math
from dataclasses import replace

import numpy as np
import pytest

import reference
from conftest import every_item_blocks, traced_peak
from framerec import cli, evaluation, model
from framerec.data import Dataset, split_ratings
from framerec.errors import (
    ConfigError,
    MissingFramesError,
    NonFiniteError,
    UnsupportedTaskError,
)
from framerec.evaluation import (
    evaluate_frame_rec,
    evaluate_item_rec,
    random_frame_baseline,
    rank_metrics,
)
from framerec.model import (
    FUSION_MODES,
    VISUAL_MODES,
    ModelConfig,
    dataset_digest,
    init_params,
    save_checkpoint,
    score_frames,
)
from framerec.synth import SynthConfig, generate_synthetic


def synth_split(seed=0, **kw):
    base = dict(num_users=15, num_items=25, frames_per_item=4, feature_dim=6,
                latent_dim=4, ratings_per_user=8, frame_likes_per_pair=1, seed=seed)
    base.update(kw)
    ds, likes, planted = generate_synthetic(SynthConfig(**base))
    split = split_ratings(ds, 0.6, 0.2, seed=seed, frame_likes=likes)
    return split, planted


def ranks_of_first(scores, valid=None):
    """``evaluation._ranks`` of each row's first score among the row's valid scores."""
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    valid = np.ones(scores.shape, dtype=bool) if valid is None else valid
    return evaluation._ranks(scores[:, 0], scores, valid, "item")


class TestRanks:
    def test_strict_winner_ranks_first(self):
        assert ranks_of_first([3.0, 1.0, 2.0]).tolist() == [1]

    def test_ties_rank_pessimistically(self):
        # a candidate equal to the positive outranks it
        assert ranks_of_first([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]]).tolist() == [2, 3]

    def test_worst_case(self):
        assert ranks_of_first([0.0, 1.0, 2.0, 3.0]).tolist() == [4]

    def test_matches_brute_force_sort(self):
        # reference: place the positive after every candidate that scores
        # >= it, then read its 1-based position.  Rows of 2 to 10 scores are
        # padded to 10 with NaN slots that are not valid, so must not count.
        rng = np.random.default_rng(0)
        scores = np.full((100, 10), np.nan)
        for row in scores:
            n = int(rng.integers(2, 11))
            row[:n] = rng.integers(0, 4, size=n)  # ties likely
        valid = ~np.isnan(scores)
        ref = [1 + sum(1 for c in row[ok][1:] if c >= row[0]) for row, ok in zip(scores, valid)]
        assert ranks_of_first(scores, valid).tolist() == ref
        # a non-finite score raises only in a valid slot
        counted = int(scores[0, 1] >= scores[0, 0])
        valid[0, 1], scores[0, 1] = False, np.inf
        assert ranks_of_first(scores, valid)[0] == ref[0] - counted
        with pytest.raises(NonFiniteError, match="1 non-finite"):
            ranks_of_first([1.0, np.inf])

    def test_rows_rank_like_single_lists(self):
        rng = np.random.default_rng(1)
        scores = rng.integers(0, 4, size=(50, 6)).astype(float)
        ranks = ranks_of_first(scores)
        assert ranks.tolist() == [int(ranks_of_first(row)[0]) for row in scores]
        assert ranks.tolist() == reference.rank_of_first(scores).tolist()
        hr, ndcg = rank_metrics(ranks, (1, 3))
        for row, rank in enumerate(ranks):
            one_hr, one_ndcg = rank_metrics([rank], (1, 3))
            assert {k: hr[k][row] for k in (1, 3)} == {k: v[0] for k, v in one_hr.items()}
            assert {k: ndcg[k][row] for k in (1, 3)} == {k: v[0] for k, v in one_ndcg.items()}

    def test_metric_values(self):
        hr, ndcg = rank_metrics(np.array([1, 2]), (1, 2, 3))
        assert {k: v.tolist() for k, v in hr.items()} == {
            1: [1.0, 0.0], 2: [1.0, 1.0], 3: [1.0, 1.0]}
        np.testing.assert_allclose(ndcg[1], [1.0, 0.0])
        np.testing.assert_allclose(ndcg[2], [1.0, 1.0 / np.log2(3.0)], rtol=1e-15)

    def test_bad_cutoffs_rejected(self):
        split, planted = synth_split(seed=2)
        with pytest.raises(ConfigError):
            evaluate_item_rec(planted.params, planted.cfg, split, k_list=())
        with pytest.raises(ConfigError):
            evaluate_frame_rec(planted.params, planted.cfg, split, k_list=(0,))


class TestItemEvaluation:
    def test_deterministic_and_thread_invariant(self, monkeypatch):
        """A second call gives the same report, and so does running the scoring
        blocks on one thread or on two (``model._cpus`` patched, so that the
        pool runs on a one-CPU host too), in all six modes, on the candidate
        path (3 negatives) and the catalog path (8); another seed draws others."""
        split, _ = synth_split(seed=3)
        # several blocks a call: 2 candidate users of 4 (32 // (4 * h)), 2 table
        # items of 25 (32 // (m * h)), and 3 catalog users under a budget of
        # their own (75 // 25 items)
        h, n = make_cfg().attn_hidden_rating, split.base.num_items
        monkeypatch.setattr(model, "CACHE_BLOCK", 2 * 4 * h)
        catalog_calls = every_item_blocks(monkeypatch, evaluation, budget=3 * n)
        for visual in VISUAL_MODES:
            for fusion in FUSION_MODES:
                cfg = replace(make_cfg(), visual_mode=visual, fusion_mode=fusion)
                params = init_params(cfg, split.base)
                for negatives in (3, 8):
                    kw = dict(n_negatives=negatives, repeats=3, seed=5)
                    reports = []
                    for cpus in (1, 2, 2):
                        monkeypatch.setattr(model, "_cpus", lambda: cpus)
                        reports.append(evaluate_item_rec(params, cfg, split, **kw))
                    for other in reports[1:]:
                        assert other.to_dict() == reports[0].to_dict(), (visual, fusion, kw)
                        assert other.to_tsv() == reports[0].to_tsv()
                    d = evaluate_item_rec(params, cfg, split, **{**kw, "seed": 6})
                    assert d.hr != reports[0].hr or d.ndcg != reports[0].ndcg
        assert catalog_calls and all(len(c) > 2 and max(c) == 3 for c in catalog_calls)

    # 3 negatives x 3 repeats score candidates; 8 and 10 000 score the catalog
    @pytest.mark.parametrize("n_negatives", [3, 8, 10_000])
    def test_scoring_blocks_do_not_change_the_report(self, monkeypatch, n_negatives):
        split, _ = synth_split(seed=3)
        kw = dict(k_list=(1, 5), n_negatives=n_negatives, repeats=3, seed=4)
        # two CPUs on any host, so that a default catalog call splits its users in two
        monkeypatch.setattr(model, "_cpus", lambda: 2)
        for visual in VISUAL_MODES:
            for fusion in FUSION_MODES:
                cfg = replace(make_cfg(), visual_mode=visual, fusion_mode=fusion)
                params = init_params(cfg, split.base)
                with monkeypatch.context() as m:
                    catalog_calls = every_item_blocks(m, evaluation)
                    default = evaluate_item_rec(params, cfg, split, **kw)
                # the default budget holds every catalog user: two blocks on two CPUs
                assert all(len(c) == 2 for c in catalog_calls)
                # one pair per draw chunk, one user per score_catalog block
                # (CACHE_BLOCK against every item and against candidates,
                # which also builds the visual table one item a block), and
                # both at once; three catalog users per block (a budget of
                # 75 // 25 items for the catalog calls alone), with 8-pair
                # draw chunks; and 8-pair draw chunks whose 4-candidate rows
                # are scored 3, 3 and 2 at a time
                n = split.base.num_items
                one_user = {"CACHE_BLOCK": 1}
                for blocks, budget, users in (
                        ({"DRAW_BLOCK": 1}, None, None), (one_user, None, 1),
                        ({**one_user, "DRAW_BLOCK": 1}, None, 1),
                        ({"DRAW_BLOCK": 200}, 3 * n, 3),
                        ({"CACHE_BLOCK": 3 * 4 * cfg.attn_hidden_rating, "DRAW_BLOCK": 200},
                         None, 1)):
                    with monkeypatch.context() as m:
                        for name, value in blocks.items():
                            m.setattr(evaluation if name == "DRAW_BLOCK" else model,
                                      name, value)
                        catalog_calls = every_item_blocks(m, evaluation, budget=budget)
                        blocked = evaluate_item_rec(params, cfg, split, **kw)
                    assert blocked.to_dict() == default.to_dict(), (visual, fusion, blocks)
                    assert blocked.to_tsv() == default.to_tsv()
                    if users is not None:  # each catalog call in several blocks of that many
                        assert all(len(c) > 2 and max(c) == users for c in catalog_calls)

    def test_negative_count_must_be_positive(self):
        split, planted = synth_split(seed=3)
        for bad in (0, -1):
            with pytest.raises(ConfigError):
                evaluate_item_rec(planted.params, planted.cfg, split, n_negatives=bad)

    def test_non_finite_scores_raise(self):
        split, planted = synth_split(seed=3)
        broken = planted.params.copy()
        broken.visual_proj[0, 0] = np.nan
        with pytest.raises(NonFiniteError, match="item evaluation"):
            evaluate_item_rec(broken, planted.cfg, split, n_negatives=5, repeats=1)
        with pytest.raises(NonFiniteError, match="frame evaluation"):
            evaluate_frame_rec(broken, planted.cfg, split)

    def test_perfect_and_inverted_models(self):
        split, planted = synth_split(seed=4)
        # score with the teacher itself: positives were chosen as its top
        # items, so they should rank near the top of any candidate set
        rep = evaluate_item_rec(planted.params, planted.cfg, split,
                                k_list=(5,), n_negatives=10, repeats=2, seed=0)
        assert rep.hr[5] > 0.9

    def test_pool_shortfall_warns_and_uses_all(self):
        split, planted = synth_split(seed=5)
        rep = evaluate_item_rec(planted.params, planted.cfg, split,
                                k_list=(3,), n_negatives=10_000, repeats=1, seed=0)
        assert rep.warnings and "fewer than" in rep.warnings[0]

    def test_std_zero_for_single_repeat(self):
        split, planted = synth_split(seed=6)
        rep = evaluate_item_rec(planted.params, planted.cfg, split,
                                k_list=(5,), n_negatives=5, repeats=1, seed=0)
        assert rep.hr_std[5] == 0.0

    def test_validation_split_selectable(self):
        split, planted = synth_split(seed=7)
        rep = evaluate_item_rec(planted.params, planted.cfg, split,
                                k_list=(5,), n_negatives=5, repeats=1, seed=0,
                                split_name="validation")
        assert rep.split_name == "validation"
        assert rep.n_pairs == len(split.pairs("validation"))
        with pytest.raises(ConfigError):
            evaluate_item_rec(planted.params, planted.cfg, split,
                              split_name="train")

    def test_report_serialisation_is_stable(self):
        split, planted = synth_split(seed=8)
        rep = evaluate_item_rec(planted.params, planted.cfg, split,
                                k_list=(2, 5), n_negatives=5, repeats=2, seed=1)
        tsv = rep.to_tsv()
        assert tsv.splitlines()[0] == "K\tHR\tNDCG\tHR_std\tNDCG_std"
        assert len(tsv.splitlines()) == 3
        d = rep.to_dict()
        assert d["k_list"] == [2, 5] and d["n_negatives"] == 5
        assert rep.to_tsv() == tsv  # same object, same bytes

    def test_never_holds_the_dense_rated_mask(self):
        rng = np.random.default_rng(0)
        m, n = 4000, 5000
        ds = Dataset(
            ratings=frozenset(zip(np.repeat(np.arange(m), 3).tolist(),
                                  rng.integers(0, n, 3 * m).tolist())),
            frame_parent=np.arange(n, dtype=np.int64), frame_features=np.ones((n, 1)),
            user_ids=tuple(f"u{k}" for k in range(m)),
            item_ids=tuple(f"i{k}" for k in range(n)),
            frame_ids=tuple(f"f{k}" for k in range(n)),
        )
        split = split_ratings(ds, 0.6, 0.2, seed=0)
        cfg = ModelConfig(d1=2, visual_mode="off", fusion_mode="sum")
        params = init_params(cfg, ds)
        dense_bytes = m * n  # a (users, items) bool mask
        # 100 x 1 scores candidates; 1000 x 10 asks for more candidates per
        # pair than the 5000 items, so it scores the catalog
        for n_negatives, repeats in [(100, 1), (1000, 10)]:
            rep, peak = traced_peak(lambda: evaluate_item_rec(
                params, cfg, split, n_negatives=n_negatives, repeats=repeats))
            assert rep.n_pairs == len(split.pairs("test"))
            assert peak < dense_bytes / 2, (repeats, peak, dense_bytes)

    def test_frameless_item_fails_the_catalog_path(self, monkeypatch, tmp_path, capsys):
        # item 3 is unrated and has no frames: check_dataset allows it and no
        # loader makes it.  Scoring the catalog scores it whatever is drawn.
        ds = Dataset(
            ratings=frozenset((u, i) for u in range(4) for i in range(3) if u != i),
            frame_parent=np.array([0, 1, 2], dtype=np.int64),
            frame_features=np.eye(3),
            user_ids=("u0", "u1", "u2", "u3"), item_ids=("a", "b", "c", "d"),
            frame_ids=("fa", "fb", "fc"),
        )
        split = split_ratings(ds, 0.4, 0.3, seed=0)
        cfg = replace(make_cfg(), visual_mode="avg")
        params = init_params(cfg, ds)
        # 1 negative x 3 repeats asks for 6 candidates per pair of 4 items
        with pytest.raises(MissingFramesError, match="item 3 has no frames"):
            evaluate_item_rec(params, cfg, split, n_negatives=1, repeats=3)

        monkeypatch.setattr(cli, "_load_split_dir", lambda path: split)
        save_checkpoint(tmp_path / "model.json", params, cfg, dataset_digest(ds))
        code = cli.run(["eval-items", "--data", str(tmp_path), "--checkpoint",
                        str(tmp_path / "model.json"), "--out", str(tmp_path / "eval"),
                        "--negatives", "1", "--repeats", "3"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: item 3 has no frames\n"


def rows_scored(monkeypatch):
    """For each way evaluation calls ``score_catalog``, a list of the (user, item)
    rows each call scores: under "catalog" each of its users against every
    item, under "candidates" each of its ``items`` rows' candidates."""
    counts = {"catalog": [], "candidates": []}
    score_catalog = evaluation.score_catalog

    def counting_catalog(users, params, cfg, dataset, *args, items=None, **kwargs):
        if items is None:
            counts["catalog"].append(len(users) * dataset.num_items)
        else:
            counts["candidates"].append(np.asarray(items).size)
        return score_catalog(users, params, cfg, dataset, *args, items=items, **kwargs)

    monkeypatch.setattr(evaluation, "score_catalog", counting_catalog)
    return counts


class TestCatalogScoring:
    """Repeats that would score more candidates than the catalog score it once."""

    # (n_negatives, repeats) on 25 items with a pool of 17 per user: per
    # candidate (5x2, 3x5), at equality (4x5: 5 x 5 == 25, per candidate),
    # just past it (4x6, 8x3), and with a pool shortfall on each side
    # (10 000x1, 10 000x3)
    CASES = [(5, 2), (3, 5), (4, 5), (4, 6), (8, 3), (10_000, 1), (10_000, 3)]

    @pytest.mark.parametrize("block", [None, 1, 3])
    @pytest.mark.parametrize("n_negatives, repeats", CASES)
    @pytest.mark.parametrize("visual", VISUAL_MODES)
    @pytest.mark.parametrize("fusion", FUSION_MODES)
    def test_report_matches_per_candidate_oracle(self, monkeypatch, visual, fusion,
                                                 n_negatives, repeats, block):
        # bit for bit against the same draws taken pair by pair, the catalog
        # path's counts by brute force; with the pools exhausted the
        # candidates are fixed, so the key draw's report matches too.  block
        # is the users per score_catalog block on the catalog path.
        split, _ = synth_split(seed=3)
        cfg = replace(make_cfg(), visual_mode=visual, fusion_mode=fusion)
        params = init_params(cfg, split.base)
        monkeypatch.setattr(model, "_cpus", lambda: 2)
        catalog_calls = every_item_blocks(
            monkeypatch, evaluation, budget=None if block is None else block * split.base.num_items)
        kw = dict(k_list=(1, 3, 5), n_negatives=n_negatives, repeats=repeats, seed=4)
        got = evaluate_item_rec(params, cfg, split, **kw)
        # the default budget splits a call's users in two, one block per CPU
        assert all(len(c) == 2 if block is None else max(c) == block and len(c) > 2
                   for c in catalog_calls)
        oracles = [reference.protocol_item_eval]
        if got.warnings:  # every pool exhausted: 17 unrated items of 25
            oracles.append(reference.sampled_item_eval)
        for oracle in oracles:
            want = oracle(params, cfg, split, **kw)
            assert got.to_dict() == want.to_dict()
            assert got.to_tsv() == want.to_tsv()

    def test_exhausted_pool_scores_each_block_user_once(self, monkeypatch):
        split, planted = synth_split(seed=3)
        # 3 users per score_catalog block, which then holds a run of their pairs
        monkeypatch.setattr(model, "_cpus", lambda: 1)
        catalog_calls = every_item_blocks(monkeypatch, evaluation, budget=3 * split.base.num_items)
        counts = rows_scored(monkeypatch)
        rep = evaluate_item_rec(planted.params, planted.cfg, split,
                                n_negatives=10_000, repeats=10)
        assert rep.warnings  # every pool ran out
        users = split.pairs("test")[:, 0]
        assert len(users) > len(np.unique(users))  # some user holds several pairs
        assert counts["catalog"] == [len(np.unique(users)) * split.base.num_items]
        assert counts["candidates"] == []
        n = len(np.unique(users))
        assert n > 6 and catalog_calls == [[3] * (n // 3) + [n % 3] * (n % 3 > 0)]

    def test_few_negatives_score_their_candidates(self, monkeypatch):
        split, planted = synth_split(seed=3, num_items=150)
        counts = rows_scored(monkeypatch)
        rep = evaluate_item_rec(planted.params, planted.cfg, split,
                                n_negatives=100, repeats=1)
        assert not rep.warnings
        assert sum(counts["candidates"]) == len(split.pairs("test")) * (100 + 1)
        assert counts["catalog"] == []


def hit_rate_expected(counts, pools, take, k) -> float:
    """The mean over pairs of P(rank <= k) when the positive, with c of its P
    unrated items scoring at least it, is ranked against min(take, P) of them:
    the hypergeometric CDF at k - 1, from log-gamma binomials."""

    def log_choose(n, r):
        return math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)

    total = 0.0
    for c, p in zip(counts.tolist(), pools.tolist()):
        n = min(take, p)
        total += sum(math.exp(log_choose(c, x) + log_choose(p - c, n - x) - log_choose(p, n))
                     for x in range(max(0, n - (p - c)), min(k - 1, c, n) + 1))
    return total / len(counts)


class TestSampledDistribution:
    """Both paths against the hypergeometric law and against the key draw."""

    def test_catalog_hit_rate_matches_its_expectation(self):
        # 5 negatives x 60 repeats on 25 items scores the catalog
        split, _ = synth_split(seed=3)
        cfg = make_cfg()
        params = init_params(cfg, split.base)
        counts, pools = reference.catalog_counts(params, cfg, split)
        assert 0 < counts.min() and counts.max() < pools.min()  # a draw decides the rank
        rep = evaluate_item_rec(params, cfg, split, k_list=(1, 2, 3), n_negatives=5,
                                repeats=60, seed=1)
        for k in (1, 2, 3):
            expected = hit_rate_expected(counts, pools, 5, k)
            assert abs(rep.hr[k] - expected) < 4 * rep.hr_std[k] / math.sqrt(60)

    def test_candidate_draw_matches_the_key_draw(self):
        # 3 negatives x 100 repeats on 400 items scores candidates
        split, _ = synth_split(seed=3, num_items=400, ratings_per_user=30)
        cfg = make_cfg()
        params = init_params(cfg, split.base)
        kw = dict(k_list=(1, 2, 3), n_negatives=3, repeats=100, seed=2)
        counts, pools = reference.catalog_counts(params, cfg, split)
        got = evaluate_item_rec(params, cfg, split, **kw)
        keys = reference.sampled_item_eval(params, cfg, split, **kw)
        for k in (1, 2, 3):
            se = math.hypot(got.hr_std[k], keys.hr_std[k]) / math.sqrt(100)
            assert abs(got.hr[k] - keys.hr[k]) < 4 * se
            expected = hit_rate_expected(counts, pools, 3, k)
            for rep in (got, keys):
                assert abs(rep.hr[k] - expected) < 4 * rep.hr_std[k] / math.sqrt(100)

    def test_draw_includes_each_pool_index_evenly(self):
        # 3 of 7, 20 000 times: each index is drawn 3/7 of the time, and a
        # chi-square statistic on 6 degrees of freedom stays under 22.46 (p = 0.001)
        rows, take, size = 20_000, 3, 7
        negs, valid = evaluation._draw_pool(np.random.default_rng(0), np.full(rows, size), take)
        assert valid.all()
        seen = np.bincount(negs.ravel(), minlength=size)
        expected = rows * take / size
        assert ((seen - expected) ** 2 / expected).sum() < 22.46


class TestFrameEvaluation:
    def test_teacher_scores_rank_their_own_likes_first(self):
        split, planted = synth_split(seed=9)
        rep = evaluate_frame_rec(planted.params, planted.cfg, split, k_list=(1, 3))
        assert rep.hr[1] == 1.0 and rep.ndcg[1] == 1.0
        assert rep.n_pairs == len(split.frame_test)

    def test_inverted_scores_rank_last(self):
        split, planted = synth_split(seed=10, frames_per_item=4)
        flipped = planted.params.copy()
        flipped.user_visual *= -1.0
        rep = evaluate_frame_rec(flipped, planted.cfg, split, k_list=(1, 3, 4))
        # the liked frame was the teacher's top frame; negated scores push it
        # to the bottom of every 4-frame list
        assert rep.hr[3] == 0.0 and rep.hr[4] == 1.0

    def test_visual_off_unsupported(self):
        split, planted = synth_split(seed=11)
        from framerec.model import ModelConfig, init_params

        cfg = ModelConfig(d1=4, d2=4, visual_mode="off", fusion_mode="sum",
                          attn_hidden_visual=4, attn_hidden_rating=4,
                          reduced_visual_dim=4)
        params = init_params(cfg, split.base)
        with pytest.raises(UnsupportedTaskError):
            evaluate_frame_rec(params, cfg, split)

    def test_singleton_items_can_be_excluded(self):
        split, planted = synth_split(seed=12, frames_per_item=1,
                                     frame_likes_per_pair=1)
        rep_in = evaluate_frame_rec(planted.params, planted.cfg, split, k_list=(1,))
        assert rep_in.hr[1] == 1.0 and rep_in.n_pairs > 0  # rank 1 trivially
        rep_ex = evaluate_frame_rec(planted.params, planted.cfg, split,
                                    k_list=(1,), exclude_singletons=True)
        assert rep_ex.n_pairs == 0

    def test_scoring_holds_no_gather_as_large_as_the_pairs(self):
        # d2 = 64 and 20 frames per item: a (slots, d2) float64 gather of the
        # padded (pair, frame) slots would cost 512 bytes a slot.  Beyond the
        # report's own padded matrices (under 64 bytes a slot), scoring holds
        # the projected frame table and two blocks of CACHE_BLOCK elements.
        split, _ = synth_split(seed=3, num_users=300, num_items=200, frames_per_item=20,
                               feature_dim=8, ratings_per_user=10, frame_likes_per_pair=4)
        cfg = ModelConfig(d1=64, d2=64, attn_hidden_visual=8, attn_hidden_rating=8,
                          reduced_visual_dim=8)
        params = init_params(cfg, split.base)
        slots = len(split.frame_test) * 20
        rep, peak = traced_peak(lambda: evaluate_frame_rec(params, cfg, split))
        budget = split.base.num_frames * cfg.d2 * 8 + 2 * model.CACHE_BLOCK * 8 + 64 * slots
        assert slots * cfg.d2 * 8 > budget  # one dense gather alone would not fit
        assert peak < budget, (peak, budget)
        assert rep.n_pairs == len(split.frame_test)

    def test_random_baseline_tracks_chance(self):
        split, _ = synth_split(seed=13, num_users=40, num_items=40,
                               ratings_per_user=12, frames_per_item=5,
                               frame_likes_per_pair=2)
        rep = random_frame_baseline(split, k_list=(1, 3, 5), seed=21)
        assert rep.n_pairs >= 150
        assert abs(rep.hr[1] - 0.2) < 0.08  # 1 of 5 by chance
        assert abs(rep.hr[3] - 0.6) < 0.10
        assert rep.hr[5] == 1.0

    def test_baseline_deterministic(self):
        split, _ = synth_split(seed=14)
        a = random_frame_baseline(split, seed=3)
        b = random_frame_baseline(split, seed=3)
        assert a.hr == b.hr and a.ndcg == b.ndcg


def frame_ranking_pairs(split, exclude_singletons: bool = False):
    """Sorted (user, frame, item_frames) triples of the frame test set.

    Returns (triples, skipped), where skipped counts the single-frame items
    left out under ``exclude_singletons``.
    """
    base = split.base
    out = []
    skipped = 0
    for u, f in split.frame_test.tolist():
        frames = tuple(np.flatnonzero(base.frame_parent == base.frame_parent[f]).tolist())
        if exclude_singletons and len(frames) == 1:
            skipped += 1
            continue
        out.append((u, f, frames))
    return out, skipped


def frame_ranking_loop(triples, scores, k_list):
    """(hr, ndcg) dicts from ranking each liked frame pair by pair.

    ``scores`` holds every triple's item frames, concatenated in triple
    order.  Ties rank the liked frame worst.
    """
    hr_sum = {k: 0.0 for k in k_list}
    ndcg_sum = {k: 0.0 for k in k_list}
    pos = 0
    for _, f, frames in triples:
        block = scores[pos: pos + len(frames)]
        liked = block[list(frames).index(f)]
        rank = int((block > liked).sum() + (block == liked).sum())
        gain = float(1.0 / np.log2(rank + 1.0))
        for k in k_list:
            hr_sum[k] += 1.0 if rank <= k else 0.0
            ndcg_sum[k] += gain if rank <= k else 0.0
        pos += len(frames)
    n = float(len(triples))
    return (
        {k: float(hr_sum[k] / n) for k in k_list},
        {k: float(ndcg_sum[k] / n) for k in k_list},
    )


class TestFrameOracle:
    """The matrix ranker against the per-pair loop it replaced."""

    @pytest.mark.parametrize("seed", [9, 10, 12, 13, 14])
    @pytest.mark.parametrize("exclude_singletons", [False, True])
    def test_frame_evaluation_matches_per_pair_loop(self, seed, exclude_singletons):
        split, planted = synth_split(seed=seed, frames_per_item=1 + seed % 4)
        k_list = (1, 2, 3)
        triples, skipped = frame_ranking_pairs(split, exclude_singletons)
        users = [u for u, _, fr in triples for _ in fr]
        frames = [f for _, _, fr in triples for f in fr]
        scores = score_frames(np.array(users, dtype=np.int64),
                              np.array(frames, dtype=np.int64),
                              planted.params, planted.cfg, split.base)
        rep = evaluate_frame_rec(planted.params, planted.cfg, split, k_list=k_list,
                                 exclude_singletons=exclude_singletons)
        assert rep.n_pairs == len(triples)
        assert bool(skipped) == any("skipped" in w for w in rep.warnings)
        if triples:
            assert (rep.hr, rep.ndcg) == frame_ranking_loop(triples, scores, k_list)

    @pytest.mark.parametrize("seed", [9, 10, 12, 13, 14])
    def test_report_matches_the_per_row_projection(self, monkeypatch, seed):
        # score_frames projects the frame table once; projecting each scored
        # row apart, as it did before, gives the same report
        split, planted = synth_split(seed=seed, frames_per_item=1 + seed % 4)
        cfg = make_cfg()
        for params, model_cfg in ((planted.params, planted.cfg),
                                  (init_params(cfg, split.base), cfg)):
            got = evaluate_frame_rec(params, model_cfg, split)
            with monkeypatch.context() as m:
                m.setattr(evaluation, "score_frames",
                          lambda users, frames, p, c, dataset:
                          reference.frame_scores_per_row(users, frames, p, dataset))
                want = evaluate_frame_rec(params, model_cfg, split)
            assert got.to_dict() == want.to_dict()
            assert got.to_tsv() == want.to_tsv()

    @pytest.mark.parametrize("seed", [9, 10, 12, 13, 14])
    @pytest.mark.parametrize("exclude_singletons", [False, True])
    def test_baseline_matches_per_pair_loop(self, seed, exclude_singletons):
        split, _ = synth_split(seed=seed, frames_per_item=1 + seed % 4)
        k_list = (1, 2, 3)
        triples, _ = frame_ranking_pairs(split, exclude_singletons)
        rng = np.random.default_rng(seed)
        scores = np.concatenate([rng.random(len(fr)) for _, _, fr in triples] + [[]])
        rep = random_frame_baseline(split, k_list=k_list, seed=seed,
                                    exclude_singletons=exclude_singletons)
        assert rep.n_pairs == len(triples)
        if triples:
            assert (rep.hr, rep.ndcg) == frame_ranking_loop(triples, scores, k_list)


def test_negative_draw_properties():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st
    from hypothesis.extra.numpy import arrays

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        rated=arrays(np.bool_, st.tuples(st.integers(1, 6), st.integers(1, 30))),
        n_negatives=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(rated, n_negatives, seed):
        m, n = rated.shape
        ds = Dataset(ratings=np.argwhere(rated), frame_parent=np.arange(n),
                     frame_features=np.ones((n, 1)), user_ids=tuple(range(m)),
                     item_ids=tuple(range(n)), frame_ids=tuple(range(n)))
        pool = (~rated).sum(axis=1)
        take = int(min(n_negatives, pool.max()))
        negs, valid = evaluation._draw_pool(np.random.default_rng(seed), pool, take)
        assert negs.shape == valid.shape == (m, take)
        for row in range(m):
            drawn = negs[row][valid[row]]
            assert len(drawn) == min(n_negatives, pool[row])
            assert len(np.unique(drawn)) == len(drawn)
            if pool[row] <= take:  # a small pool is taken whole
                assert drawn.tolist() == list(range(pool[row]))
            items = ds.unrated_items(row, drawn)
            assert ((0 <= items) & (items < n)).all() and not rated[row, items].any()

    check()


def make_cfg():
    from framerec.model import ModelConfig

    return ModelConfig(d1=4, d2=4, attn_hidden_visual=4, attn_hidden_rating=4,
                       reduced_visual_dim=4, visual_mode="att", fusion_mode="att",
                       seed=2)
