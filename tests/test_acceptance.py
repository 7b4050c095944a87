"""Acceptance gates for the package, one test per criterion.

Each test prints a single verdict line (visible with ``pytest -s``) and
asserts it.  The criteria cover: analytic gradients against finite
differences in every mode, attention normalisation invariants, collapse of
the general model onto its simpler special cases, metric correctness against
brute force, the chance-level frame baseline, recovery of planted structure
by training, byte-level reproducibility of the pipeline, and bit-exact
checkpoint round trips.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from framerec.cli import run
from framerec.data import split_ratings
from framerec.errors import UnsupportedTaskError
from framerec.evaluation import (
    _ranks,
    evaluate_frame_rec,
    evaluate_item_rec,
    random_frame_baseline,
    rank_metrics,
)
from framerec.model import (
    ModelConfig,
    dataset_digest,
    init_params,
    item_visual_table,
    load_checkpoint,
    save_checkpoint,
    score_frames,
    score_pairs,
)
from framerec.synth import SynthConfig, generate_synthetic
from framerec.training import finite_diff_check, gradcheck_instance

from reference import frame_attention_logits


def _verdict(name: str, ok: bool, detail: str) -> None:
    line = f"[{name}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def test_criterion_1_gradients_match_finite_differences():
    started = time.perf_counter()
    combos = [("off", "sum"), ("off", "att"), ("avg", "sum"),
              ("avg", "att"), ("att", "sum"), ("att", "att")]
    worst = {}
    for visual, fusion in combos:
        params, cfg, ds, batch = gradcheck_instance(
            seed=31, visual_mode=visual, fusion_mode=fusion
        )
        report = finite_diff_check(params, cfg, ds, batch, h=1e-5)
        worst[(visual, fusion)] = report.max_rel_err
    elapsed = time.perf_counter() - started
    ok = all(
        err < (1e-6 if visual == "off" else 1e-4)
        for (visual, _), err in worst.items()
    ) and elapsed < 30.0
    detail = (
        f"max rel err {max(worst.values()):.2e} across 6 mode combos, "
        f"{elapsed:.1f}s"
    )
    _verdict("gradient-check", ok, detail)


def test_criterion_2_attention_normalisation():
    rng = np.random.default_rng(0)
    datasets = [gradcheck_instance(seed=s)[2] for s in range(20)]
    worst_sum = 0.0
    worst_beta = 0.0
    worst_shift = 0.0
    for i in range(1000):
        ds = datasets[i % len(datasets)]
        cfg = ModelConfig(d1=4, d2=4, attn_hidden_visual=4, attn_hidden_rating=4,
                          reduced_visual_dim=3, visual_mode="att",
                          fusion_mode="att", init_scale=0.4, seed=i)
        params = init_params(cfg, ds)
        table = item_visual_table(params, cfg, ds)
        item = int(rng.integers(ds.num_items))
        weights = table.alpha[item][ds.frame_table[1][item]]
        assert (weights >= 0.0).all()
        worst_sum = max(worst_sum, abs(float(weights.sum()) - 1.0))

        logits = frame_attention_logits(item, params, cfg, ds)
        shifted = logits + float(rng.normal(0.0, 20.0))
        e = np.exp(shifted - shifted.max())
        worst_shift = max(worst_shift, float(np.abs(weights - e / e.sum()).max()))

        u = int(rng.integers(ds.num_users))
        table.x[item] = rng.normal(size=cfg.d2)  # a random visual channel input
        _, cache = score_pairs([u], [item], params, cfg, ds, table=table,
                               want_cache=True)
        beta1, beta2 = float(cache.beta1[0]), float(cache.beta2[0])
        assert 0.0 < beta1 < 1.0
        worst_beta = max(worst_beta, abs(beta1 + beta2 - 1.0))
    ok = worst_sum < 1e-9 and worst_beta < 1e-12 and worst_shift < 1e-9
    _verdict(
        "normalisation", ok,
        f"1000 instances: weight-sum err {worst_sum:.1e}, "
        f"channel-weight complement err {worst_beta:.1e}, "
        f"shift invariance err {worst_shift:.1e}",
    )


def test_criterion_3_mode_degeneracies():
    # (i) mean visual + additive fusion is exactly the two-dot-product model
    params, cfg, ds, _ = gradcheck_instance(seed=17, visual_mode="avg",
                                            fusion_mode="sum")
    users = np.repeat(np.arange(ds.num_users), ds.num_items)
    items = np.tile(np.arange(ds.num_items), ds.num_users)
    got = score_pairs(users, items, params, cfg, ds)
    # each item's mean raw frame, projected once by visual_proj
    mean_frame = np.stack([ds.frame_features[np.flatnonzero(ds.frame_parent == i)].mean(axis=0)
                           for i in range(ds.num_items)])
    xbar = mean_frame @ params.visual_proj.T
    ref = (
        np.einsum("bd,bd->b", params.user_collab[users], params.item_collab[items])
        + np.einsum("bd,bd->b", params.user_visual[users], xbar[items])
    )
    exact_avg = bool(np.array_equal(got, ref))

    # (ii) zeroed fusion output makes the attentive fusion rank like the sum
    scfg = SynthConfig(num_users=50, num_items=100, frames_per_item=5,
                       feature_dim=10, latent_dim=6, ratings_per_user=10,
                       frame_likes_per_pair=1, seed=5)
    big, _, _ = generate_synthetic(scfg)
    mcfg = ModelConfig(d1=8, d2=8, attn_hidden_visual=8, attn_hidden_rating=8,
                       reduced_visual_dim=8, visual_mode="att",
                       fusion_mode="att", seed=4)
    p = init_params(mcfg, big)
    p.fusion_out[:] = 0.0
    users = np.repeat(np.arange(50), 100)
    items = np.tile(np.arange(100), 50)
    att = score_pairs(users, items, p, mcfg, big).reshape(50, 100)
    sum_cfg = ModelConfig(**{**mcfg.__dict__, "fusion_mode": "sum"})
    plain = score_pairs(users, items, p, sum_cfg, big).reshape(50, 100)
    halves = bool(np.array_equal(2.0 * att, plain))
    same_order = all(
        np.array_equal(np.argsort(-att[u], kind="stable"),
                       np.argsort(-plain[u], kind="stable"))
        for u in range(50)
    )
    ok = exact_avg and halves and same_order
    _verdict(
        "degeneracy", ok,
        f"mean+sum exact={exact_avg}, zeroed fusion halves scores={halves}, "
        f"identical order on 50x100 grid={same_order}",
    )


def test_criterion_4_metrics_match_brute_force():
    # 100 lists of 2 to 10 coarse scores (ties common), each the valid head
    # of a row of 10, ranked at once as evaluation ranks them
    rng = np.random.default_rng(7)
    scores = np.zeros((100, 10))
    sizes = np.empty(100, dtype=np.int64)
    for row in range(100):
        sizes[row] = rng.integers(2, 11)
        scores[row, :sizes[row]] = rng.integers(0, 4, size=sizes[row])
    valid = np.arange(10) < sizes[:, None]
    ranks = _ranks(scores[:, 0], scores, valid, "item")
    hr, ndcg = rank_metrics(ranks, range(1, 11))
    mismatches = 0
    for row, n in enumerate(sizes.tolist()):
        ref_rank = 1 + int(sum(scores[row, 1:n] >= scores[row, 0]))
        for k in range(1, n + 1):
            ref_hr = 1.0 if ref_rank <= k else 0.0
            ref_ndcg = 1.0 / np.log2(ref_rank + 1.0) if ref_rank <= k else 0.0
            if (ranks[row] != ref_rank or hr[k][row] != ref_hr
                    or abs(ndcg[k][row] - ref_ndcg) > 1e-12):
                mismatches += 1

    # protocol-level oracle: with the pool exhausted, candidates are fixed,
    # so the whole report can be recomputed from full rankings
    scfg = SynthConfig(num_users=8, num_items=12, frames_per_item=3,
                       feature_dim=5, latent_dim=3, ratings_per_user=5,
                       frame_likes_per_pair=1, seed=2)
    ds, likes, _ = generate_synthetic(scfg)
    split = split_ratings(ds, 0.6, 0.2, seed=3, frame_likes=likes)
    cfg = ModelConfig(d1=4, d2=4, attn_hidden_visual=4, attn_hidden_rating=4,
                      reduced_visual_dim=4, visual_mode="att", fusion_mode="att",
                      seed=9)
    params = init_params(cfg, ds)
    k_list = (1, 3, 5)
    rep = evaluate_item_rec(params, cfg, split, k_list=k_list,
                            n_negatives=10_000, repeats=2, seed=1)
    table = item_visual_table(params, cfg, ds)
    sums = {k: 0.0 for k in k_list}
    nsums = {k: 0.0 for k in k_list}
    pairs = split.pairs("test").tolist()
    for u, i in pairs:
        pool = np.setdiff1d(np.arange(ds.num_items), ds.items_of_user[u])
        cands = np.concatenate(([i], pool))
        s = score_pairs(np.full(len(cands), u), cands, params, cfg, ds, table=table)
        r = 1 + int(np.sum(s[1:] >= s[0]))
        for k in k_list:
            sums[k] += 1.0 if r <= k else 0.0
            nsums[k] += 1.0 / np.log2(r + 1.0) if r <= k else 0.0
    protocol_ok = all(
        abs(rep.hr[k] - sums[k] / len(pairs)) < 1e-12
        and abs(rep.ndcg[k] - nsums[k] / len(pairs)) < 1e-12
        and rep.hr_std[k] == 0.0  # both repeats saw identical candidate sets
        for k in k_list
    )
    ok = mismatches == 0 and protocol_ok
    _verdict(
        "metric-oracle", ok,
        f"100 tie-heavy rank trials, 0 mismatches={mismatches == 0}; "
        f"exhaustive-pool protocol match={protocol_ok}",
    )


def test_criterion_5_random_frame_baseline_sits_at_chance():
    scfg = SynthConfig(num_users=200, num_items=300, frames_per_item=5,
                       feature_dim=16, latent_dim=8, ratings_per_user=20,
                       frame_likes_per_pair=3, seed=42)
    ds, likes, _ = generate_synthetic(scfg)
    split = split_ratings(ds, 0.7, 0.1, seed=123, frame_likes=likes)
    rep = random_frame_baseline(split, k_list=(1,), seed=0)
    ok = rep.n_pairs >= 2000 and abs(rep.hr[1] - 0.2) < 0.03
    _verdict(
        "random-baseline", ok,
        f"HR@1 {rep.hr[1]:.4f} over {rep.n_pairs} pairs (expected 0.2 +/- 0.03)",
    )


def test_criterion_6_training_recovers_planted_structure(seed_table):
    started = time.perf_counter()
    fig, split, cells = seed_table.recovery(42, 123, 1, 2)
    cfg, params = cells["off/sum"][:2]
    with pytest.raises(UnsupportedTaskError):
        evaluate_frame_rec(params, cfg, split, k_list=(3,))
    elapsed = time.perf_counter() - started
    epochs = [f"{name} {n} (best {fig['best_epoch'][name]})" for name, n in fig["epochs"].items()]
    _verdict(
        "recovery", all(fig["clauses"].values()) and elapsed < 600.0,
        f"frame HR@3 {fig['frame_hr3_att']:.3f} vs {seed_table.CHANCE_FACTOR}x chance "
        f"{seed_table.CHANCE_FACTOR * fig['frame_hr3_chance']:.3f}; frame NDCG@3 att "
        f"{fig['frame_ndcg3_att']:.3f} >= mean {fig['frame_ndcg3_avg']:.3f}; item NDCG@15 att "
        f"{fig['item_ndcg15_att']:.3f} >= off {fig['item_ndcg15_off']:.3f}; "
        f"frame scoring without visuals raises; epochs {', '.join(epochs)}; {elapsed:.0f}s",
    )


def test_criterion_7_pipeline_is_byte_reproducible(tmp_path, monkeypatch, capsys):
    synth = ["synth", "--out", "data", "--users", "30", "--items", "40",
             "--ratings-per-user", "6", "--feature-dim", "8",
             "--latent-dim", "4", "--seed", "3"]
    split = ["split", "--data", "data", "--out", "split", "--seed", "1"]
    train = ["train", "--data", "split", "--out", "run",
             "--d1", "4", "--d2", "4", "--attn-hidden-visual", "4",
             "--attn-hidden-rating", "4", "--reduced-dim", "4",
             "--epochs", "3", "--batch-size", "128", "--neg-ratio", "2",
             "--valid-negatives", "10", "--lr", "0.01"]
    ev_items = ["eval-items", "--data", "split", "--checkpoint",
                "run/checkpoint.npz", "--out", "eval",
                "--k", "1,5", "--negatives", "20", "--repeats", "2"]
    ev_frames = ["eval-frames", "--data", "split", "--checkpoint",
                 "run/checkpoint.npz", "--out", "eval"]
    roots = []
    for name in ("first", "second"):
        root = tmp_path / name
        root.mkdir()
        monkeypatch.chdir(root)
        for argv in (synth, split, train, ev_items, ev_frames):
            assert run(list(argv)) == 0, argv
        roots.append(root)
    capsys.readouterr()

    compared = [
        "data/run.json", "split/run.json", "run/run.json",
        "run/checkpoint.npz",
        "eval/item_eval.tsv", "eval/item_eval.json",
        "eval/frame_eval.tsv", "eval/frame_eval.json", "eval/run.json",
    ]
    different = [
        rel for rel in compared
        if (roots[0] / rel).read_bytes() != (roots[1] / rel).read_bytes()
    ]
    _verdict(
        "determinism", not different,
        f"{len(compared)} artefacts byte-compared across two runs"
        + (f"; differing: {different}" if different else ""),
    )


def test_criterion_8_checkpoint_round_trip_preserves_scores(tmp_path):
    scfg = SynthConfig(num_users=30, num_items=40, frames_per_item=4,
                       feature_dim=8, latent_dim=4, ratings_per_user=6,
                       frame_likes_per_pair=1, seed=5)
    ds, _, _ = generate_synthetic(scfg)
    cfg = ModelConfig(d1=6, d2=6, attn_hidden_visual=6, attn_hidden_rating=6,
                      reduced_visual_dim=6, visual_mode="att", fusion_mode="att",
                      seed=3)
    params = init_params(cfg, ds)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, params, cfg, dataset_digest(ds))
    back, cfg2, _ = load_checkpoint(path)
    modes = [(v, f) for v in ("off", "avg", "att") for f in ("sum", "att")]
    tensors_ok = True
    for seed, (visual, fusion) in enumerate(modes):
        mode_cfg = replace(cfg, visual_mode=visual, fusion_mode=fusion, seed=seed)
        mode_params = init_params(mode_cfg, ds)
        save_checkpoint(tmp_path / "mode.npz", mode_params, mode_cfg, dataset_digest(ds))
        loaded, loaded_cfg, _ = load_checkpoint(tmp_path / "mode.npz")
        tensors_ok &= loaded_cfg == mode_cfg and all(
            np.array_equal(loaded.tensors()[name], tensor)
            for name, tensor in mode_params.tensors().items()
        )

    rng = np.random.default_rng(0)
    users = rng.integers(0, ds.num_users, size=1000)
    items = rng.integers(0, ds.num_items, size=1000)
    frames = rng.integers(0, ds.num_frames, size=1000)
    items_ok = bool(np.array_equal(
        score_pairs(users, items, params, cfg, ds),
        score_pairs(users, items, back, cfg2, ds),
    ))
    frames_ok = bool(np.array_equal(
        score_frames(users, frames, params, cfg, ds),
        score_frames(users, frames, back, cfg2, ds),
    ))
    _verdict(
        "round-trip", items_ok and frames_ok and tensors_ok,
        f"1000 item queries bit-equal={items_ok}, "
        f"1000 frame queries bit-equal={frames_ok}, "
        f"every tensor bit-equal in all {len(modes)} modes={tensors_ok}",
    )
