"""Rank computation, metric values, and the two evaluation protocols."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import reference
from framerec import cli, evaluation
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
    rank_of_first,
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


class TestRanks:
    def test_strict_winner_ranks_first(self):
        assert rank_of_first(np.array([3.0, 1.0, 2.0])) == 1

    def test_ties_rank_pessimistically(self):
        # a candidate equal to the positive outranks it
        assert rank_of_first(np.array([1.0, 1.0, 0.0])) == 2
        assert rank_of_first(np.array([1.0, 1.0, 1.0])) == 3

    def test_worst_case(self):
        assert rank_of_first(np.array([0.0, 1.0, 2.0, 3.0])) == 4

    def test_matches_brute_force_sort(self):
        # reference: place the positive after every candidate that scores
        # >= it, then read its 1-based position
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            scores = rng.integers(0, 4, size=n).astype(float)  # ties likely
            ref = 1 + sum(1 for c in scores[1:] if c >= scores[0])
            assert rank_of_first(scores) == ref

    def test_rows_rank_like_single_lists(self):
        rng = np.random.default_rng(1)
        scores = rng.integers(0, 4, size=(50, 6)).astype(float)
        ranks = rank_of_first(scores)
        assert ranks.tolist() == [rank_of_first(row) for row in scores]
        hr, ndcg = rank_metrics(ranks, (1, 3))
        for row, rank in enumerate(ranks):
            one_hr, one_ndcg = rank_metrics(int(rank), (1, 3))
            assert {k: hr[k][row] for k in (1, 3)} == one_hr
            assert {k: ndcg[k][row] for k in (1, 3)} == one_ndcg

    def test_metric_values(self):
        hr, ndcg = rank_metrics(1, (1, 2, 3))
        assert hr == {1: 1.0, 2: 1.0, 3: 1.0}
        np.testing.assert_allclose(ndcg[1], 1.0)
        hr, ndcg = rank_metrics(2, (1, 2, 3))
        assert hr[1] == 0.0 and hr[2] == 1.0
        np.testing.assert_allclose(ndcg[2], 1.0 / np.log2(3.0), rtol=1e-15)
        assert ndcg[1] == 0.0

    def test_bad_cutoffs_rejected(self):
        split, planted = synth_split(seed=2)
        with pytest.raises(ConfigError):
            evaluate_item_rec(planted.params, planted.cfg, split, k_list=())
        with pytest.raises(ConfigError):
            evaluate_frame_rec(planted.params, planted.cfg, split, k_list=(0,))


class TestItemEvaluation:
    def test_deterministic_and_thread_invariant(self):
        split, _ = synth_split(seed=3)
        from framerec.model import init_params

        cfg = make_cfg()
        params = init_params(cfg, split.base)
        a = evaluate_item_rec(params, cfg, split, n_negatives=8, repeats=4, seed=5)
        b = evaluate_item_rec(params, cfg, split, n_negatives=8, repeats=4, seed=5)
        assert a.hr == b.hr and a.ndcg == b.ndcg
        d = evaluate_item_rec(params, cfg, split, n_negatives=8, repeats=4, seed=6)
        assert d.hr != a.hr or d.ndcg != a.ndcg

    # 3 negatives x 3 repeats score candidates; 8 and 10 000 score the catalog
    @pytest.mark.parametrize("n_negatives", [3, 8, 10_000])
    def test_scoring_blocks_do_not_change_the_report(self, monkeypatch, n_negatives):
        split, planted = synth_split(seed=3)
        kw = dict(k_list=(1, 5), n_negatives=n_negatives, repeats=3, seed=4)
        default = evaluate_item_rec(planted.params, planted.cfg, split, **kw)
        monkeypatch.setattr(evaluation, "CANDIDATE_BLOCK", 1)  # one pair per block
        blocked = evaluate_item_rec(planted.params, planted.cfg, split, **kw)
        assert blocked.to_dict() == default.to_dict()
        assert blocked.to_tsv() == default.to_tsv()

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
        assert rep.n_pairs == len(split.validation)
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
            tracemalloc.start()
            try:
                rep = evaluate_item_rec(params, cfg, split, n_negatives=n_negatives,
                                        repeats=repeats)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert rep.n_pairs == len(split.test)
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
    """For each scorer evaluation calls, a list of the (user, item) rows each call
    scores: ``score_pairs`` its broadcast pairs, ``score_catalog`` each of its
    users against every item."""
    counts = {"score_pairs": [], "score_catalog": []}
    score_pairs, score_catalog = evaluation.score_pairs, evaluation.score_catalog

    def counting_pairs(users, items, *args, **kwargs):
        counts["score_pairs"].append(np.broadcast(np.asarray(users), np.asarray(items)).size)
        return score_pairs(users, items, *args, **kwargs)

    def counting_catalog(users, params, cfg, dataset, *args, **kwargs):
        counts["score_catalog"].append(len(users) * dataset.num_items)
        return score_catalog(users, params, cfg, dataset, *args, **kwargs)

    monkeypatch.setattr(evaluation, "score_pairs", counting_pairs)
    monkeypatch.setattr(evaluation, "score_catalog", counting_catalog)
    return counts


class TestCatalogScoring:
    """Repeats that would score more candidates than the catalog score it once."""

    # (n_negatives, repeats) on 25 items with a pool of 17 per user: per
    # candidate (5x2, 3x5), at equality (4x5: 5 x 5 == 25, per candidate),
    # just past it (4x6, 8x3), and with a pool shortfall on each side
    # (10 000x1, 10 000x3)
    CASES = [(5, 2), (3, 5), (4, 5), (4, 6), (8, 3), (10_000, 1), (10_000, 3)]

    @pytest.mark.parametrize("block", [None, 1])
    @pytest.mark.parametrize("n_negatives, repeats", CASES)
    @pytest.mark.parametrize("visual", VISUAL_MODES)
    @pytest.mark.parametrize("fusion", FUSION_MODES)
    def test_report_matches_per_candidate_oracle(self, monkeypatch, visual, fusion,
                                                 n_negatives, repeats, block):
        split, _ = synth_split(seed=3)
        cfg = replace(make_cfg(), visual_mode=visual, fusion_mode=fusion)
        params = init_params(cfg, split.base)
        if block is not None:
            monkeypatch.setattr(evaluation, "CANDIDATE_BLOCK", block)
        kw = dict(k_list=(1, 3, 5), n_negatives=n_negatives, repeats=repeats, seed=4)
        got = evaluate_item_rec(params, cfg, split, **kw)
        want = reference.sampled_item_eval(params, cfg, split, **kw)
        assert got.to_dict() == want.to_dict()
        assert got.to_tsv() == want.to_tsv()

    def test_exhausted_pool_scores_each_block_user_once(self, monkeypatch):
        split, planted = synth_split(seed=3)
        monkeypatch.setattr(evaluation, "CANDIDATE_BLOCK", 100)  # 4 pairs per block
        counts = rows_scored(monkeypatch)
        rep = evaluate_item_rec(planted.params, planted.cfg, split,
                                n_negatives=10_000, repeats=10)
        assert rep.warnings  # every pool ran out
        n = split.base.num_items
        users = np.array(sorted(split.test))[:, 0]
        rows = 100 // n
        bound = sum(len(np.unique(users[lo: lo + rows])) * n
                    for lo in range(0, len(users), rows))
        assert 0 < sum(counts["score_catalog"]) <= bound
        assert counts["score_pairs"] == []

    def test_few_negatives_score_their_candidates(self, monkeypatch):
        split, planted = synth_split(seed=3, num_items=150)
        counts = rows_scored(monkeypatch)
        rep = evaluate_item_rec(planted.params, planted.cfg, split,
                                n_negatives=100, repeats=1)
        assert not rep.warnings
        assert sum(counts["score_pairs"]) == len(split.test) * (100 + 1)
        assert counts["score_catalog"] == []


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
        pool = (~rated).sum(axis=1)
        take = int(min(n_negatives, pool.max()))
        negs, valid = evaluation._draw_negatives(np.random.default_rng(seed), rated, take)
        assert negs.shape == valid.shape == (len(rated), take)
        for row in range(len(rated)):
            drawn = negs[row][valid[row]]
            assert len(drawn) == min(n_negatives, pool[row])
            assert not rated[row, drawn].any()
            assert len(np.unique(drawn)) == len(drawn)

    check()


def make_cfg():
    from framerec.model import ModelConfig

    return ModelConfig(d1=4, d2=4, attn_hidden_visual=4, attn_hidden_rating=4,
                       reduced_visual_dim=4, visual_mode="att", fusion_mode="att",
                       seed=2)
