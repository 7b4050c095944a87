"""Test oracles: scalar forward path, projected table, full-catalog backward, dense Adam,
dense teacher, sorted top-k, set-based prune, split and split check, rank of the first
score, key-draw sampled evaluation and the package's draw pair by pair, per-pair frame
rows and frame likes, per-line id reader, always-sorting pair array, tuple-sorting token
writers, stack-then-permute epoch draw, per-cell ablation loop.

The package scores in bulk (``item_visual_table``, ``score_pairs``,
``score_frames``).  The scalar functions score one instance at a time,
straight from the model's definition, sharing no code with the package
beyond its errors.  Tests compare the package's outputs against them.

``full_catalog_gradients`` is the batch gradient as it was before the
backward was restricted to the items a batch touches: ``np.add.at``
scatters into dense arrays and a table backward over every item and every
frame.  It shares only the forward with the package; the attention-network
backward is written out here, with each half broadcast to full size, so it
checks the package's backward as well as the touched-row restriction and
the scatter.

``adam_step_dense`` is the Adam update as it ran before the embeddings were
updated row by row: every row of every tensor and of both moments, with
each gradient scattered to dense first.

``visual_table_projected`` is the visual table as it was computed before
pooling moved ahead of the projection: every frame projected, and the
attention keys reduced, one frame at a time.

``frame_scores_per_row`` scores each (user, item) pair's frames in a loop
over the pairs, each pair's frame features projected on their own, so a
frame is projected once per pair that names its item.

``planted_item_scores`` and ``planted_frame_scores`` score every (user,
item) and every (user, frame) pair under the synthetic teacher, the dense
matrices the generator no longer builds; they check the teacher's ratings
and frame likes.  ``planted_frame_likes_per_pair`` picks each rated pair's
liked frames by the scalar frame score, one pair at a time.
``top_k_stable`` is the full stable sort the generator ran before it took
each user's top items by partition.

``prune_dataset`` is the set-based prune the package ran before it pruned
with arrays: a fixed point over Python sets of users, items and ratings,
then ``subset`` re-indexes through dicts.

``split_ratings`` is the split as it ran while a dataset held its ratings
as a set of tuples: each group (one user's ratings, or all of them) is
sorted as tuples, permuted, and dealt into Python sets pair by pair.
``items_of_user`` scans every rating once per user.  ``check_split`` is the
split check as it ran while a split held its portions and frame likes as
sets of tuples: set intersections, the union's sorted tuples against the
ratings, and a membership test per frame_test pair, taken in sorted order.

``rank_of_first`` is the ranking the package exported before every report
ranked through ``evaluation._ranks``: the rank of each list's first score,
by a ``>=`` count with no validity mask.

``sampled_item_eval`` is item evaluation as it ran before it drew ranks
from exact counts: each repeat gives every (pair, item) a uniform random key
(``draw_negatives``), draws each pair's unrated items with the smallest
keys, and scores every (user, candidate) row.  It is the distribution oracle
for ``evaluate_item_rec``, and with the pools exhausted its candidates are
fixed, so the reports match bit for bit.

``protocol_item_eval`` is ``evaluate_item_rec``'s draw written out pair by
pair: the count of each pair's unrated items scoring at least the positive,
by ``score_pairs`` over the pair's whole pool, then the same hypergeometric
draws; or Floyd's algorithm one pair at a time on the same uniforms, with
each pool index looked up in the pair's ``np.setdiff1d`` pool.

``parse_pair_file`` is the id-file reader as it ran before the package read
each file whole: Python's text mode splits the lines, and each line is
decoded, skipped or split on its own.  It differs from that reader only in
dropping a leading byte-order mark.

``pair_array`` sorts and deduplicates integer pairs the way the package did
before it learned to skip the sort for rows already in order.

``write_pairs`` and ``write_frames`` write the token files as the package
did before it built them from id arrays: one token tuple per record, a sort
of those tuples, and one formatted line per record.

``sample_epoch`` is the epoch draw as it ran before it built the shuffled
triples in one array: the training pairs repeated whole, the negatives
stacked beside them, then the rows permuted.

``ablation_table`` is ``framerec ablate``'s table as the command made it
before the mode cells ran through ``cli.train_cells``: its own loop over the
five cells, each trained by ``fit`` and evaluated in turn, then the table.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import groupby
from operator import itemgetter
from typing import Iterator

import numpy as np

from framerec import evaluation, training
from framerec.data import Dataset
from framerec.errors import (
    ConfigError,
    EmptyDatasetError,
    IntegrityError,
    MissingFramesError,
    ParseError,
    UnsupportedTaskError,
)
from framerec.model import active_param_names, item_visual_table, score_pairs


def _check_item(item_id: int, dataset) -> None:
    if not 0 <= item_id < dataset.num_items:
        raise IndexError(f"item id {item_id} out of range")


def _check_user(user_id: int, dataset) -> None:
    if not 0 <= user_id < dataset.num_users:
        raise IndexError(f"user id {user_id} out of range")


def _item_frames(item_id: int, dataset) -> np.ndarray:
    _check_item(item_id, dataset)
    frames = np.flatnonzero(dataset.frame_parent == item_id)
    if not frames.size:
        raise MissingFramesError(f"item {item_id} has no frames")
    return frames


def item_visual_avg(item_id: int, params, dataset) -> np.ndarray:
    """Mean of the item's projected frame features (length d2)."""
    frames = _item_frames(item_id, dataset)
    return (dataset.frame_features[frames] @ params.visual_proj.T).mean(axis=0)


def frame_attention_logits(item_id: int, params, cfg, dataset) -> np.ndarray:
    """Unnormalised attention scores for the item's frames, in frame order."""
    if cfg.visual_mode != "att":
        raise ConfigError("frame attention requires visual_mode='att'")
    frames = _item_frames(item_id, dataset)
    keys = dataset.frame_features[frames] @ params.attn_reduce.T
    v = params.item_collab[item_id]
    z = np.concatenate([np.broadcast_to(v, (len(frames), cfg.d1)), keys], axis=1)
    hidden_pre = z @ params.attn_hidden.T
    return np.maximum(hidden_pre, 0.0) @ params.attn_out


def frame_attention_weights(item_id: int, params, cfg, dataset) -> np.ndarray:
    """Softmax of the attention logits over the item's frames."""
    logits = frame_attention_logits(item_id, params, cfg, dataset)
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


def item_visual_att(item_id: int, params, cfg, dataset) -> np.ndarray:
    """Attention-weighted sum of the item's projected frame features."""
    frames = _item_frames(item_id, dataset)
    weights = frame_attention_weights(item_id, params, cfg, dataset)
    emb = dataset.frame_features[frames] @ params.visual_proj.T
    return weights @ emb


def rating_attention(user_id: int, item_id: int, x_i, params, cfg):
    """Two-way attention over the collaborative and visual channels.

    Returns (beta1, beta2) with beta2 = 1 - beta1 exactly.
    """
    if cfg.fusion_mode != "att":
        raise ConfigError("rating attention requires fusion_mode='att'")
    if cfg.d1 != cfg.d2:
        raise ConfigError("rating attention requires d1 == d2")
    z1 = np.concatenate([params.user_collab[user_id], params.item_collab[item_id]])
    z2 = np.concatenate([params.user_visual[user_id], np.asarray(x_i)])
    h1 = z1 @ params.fusion_hidden.T
    h2 = z2 @ params.fusion_hidden.T
    g1 = float(np.maximum(h1, 0.0) @ params.fusion_out)
    g2 = float(np.maximum(h2, 0.0) @ params.fusion_out)
    top = max(g1, g2)
    e1 = np.exp(g1 - top)
    e2 = np.exp(g2 - top)
    beta1 = float(e1 / (e1 + e2))
    return beta1, 1.0 - beta1


def predict_item_score(user_id: int, item_id: int, params, cfg, dataset) -> float:
    """Predicted preference of a user for an item under the config's modes."""
    _check_user(user_id, dataset)
    _check_item(item_id, dataset)
    collab = float(params.user_collab[user_id] @ params.item_collab[item_id])
    if cfg.visual_mode == "off":
        return collab
    x = (item_visual_avg(item_id, params, dataset) if cfg.visual_mode == "avg"
         else item_visual_att(item_id, params, cfg, dataset))
    visual = float(params.user_visual[user_id] @ x)
    if cfg.fusion_mode == "sum":
        return collab + visual
    beta1, beta2 = rating_attention(user_id, item_id, x, params, cfg)
    return beta1 * collab + beta2 * visual


def predict_frame_score(user_id: int, frame_id: int, params, cfg, dataset) -> float:
    """Visual-only preference of a user for a single frame."""
    if cfg.visual_mode == "off":
        raise UnsupportedTaskError(
            "frame scoring needs the visual pathway; visual_mode is off"
        )
    _check_user(user_id, dataset)
    if not 0 <= frame_id < dataset.num_frames:
        raise IndexError(f"frame id {frame_id} out of range")
    emb = params.visual_proj @ dataset.frame_features[frame_id]
    return float(params.user_visual[user_id] @ emb)


def frame_scores_per_row(users, items, params, dataset) -> np.ndarray:
    """Visual-only scores of each (user, item) pair's frames, one pair at a time.

    Row r holds ``users[r]``'s scores of ``items[r]``'s frames in ascending
    frame id, each pair's frames projected apart, and -inf after them, up
    to the largest item's frame count.
    """
    width = max(1, int(np.bincount(dataset.frame_parent).max(initial=0)))
    out = np.full((len(users), width), -np.inf)
    for row, (user, item) in enumerate(zip(users, items)):
        frames = np.flatnonzero(dataset.frame_parent == item)
        emb = dataset.frame_features[frames] @ params.visual_proj.T
        out[row, :len(frames)] = emb @ params.user_visual[user]
    return out


def attention_mlp_backward(out, hidden, dlogits, halves):
    """Gradients of the attention network whose hidden layer is ``hidden``.

    ``hidden`` may be taken before or after the ReLU, which gives both the
    same ReLU and the same units above zero.  ``halves`` holds one (input,
    first-layer weight half) pair per half.  Each input is broadcast to
    ``hidden``'s leading shape before it meets the gradient.  Returns
    (gradient of ``out``, per half the gradient of its weight, per half the
    full-size gradient of its input).
    """
    h = hidden.shape[-1]
    lead = hidden.shape[:-1]
    dh = (dlogits[..., None] * out * (hidden > 0)).reshape(-1, h)
    gout = np.maximum(hidden, 0.0).reshape(-1, h).T @ dlogits.reshape(-1)
    gweights, ginputs = [], []
    for x, weight in halves:
        full = np.broadcast_to(x, lead + x.shape[-1:]).reshape(-1, x.shape[-1])
        gweights.append(dh.T @ full)
        ginputs.append((dh @ weight).reshape(lead + x.shape[-1:]))
    return gout, gweights, ginputs


def full_catalog_gradients(params, cfg, dataset, batch, reduction="mean", table=None):
    """(data_loss, grads) of the batch objective, backpropagated over the whole catalog."""
    batch = np.asarray(batch, dtype=np.int64)
    b = len(batch)
    if table is None and cfg.visual_mode != "off":
        table = item_visual_table(params, cfg, dataset)
    users = np.concatenate([batch[:, 0], batch[:, 0]])
    items = np.concatenate([batch[:, 1], batch[:, 2]])
    scores, cache = score_pairs(
        users, items, params, cfg, dataset, table=table, want_cache=True
    )
    margin = scores[:b] - scores[b:]
    losses = np.logaddexp(0.0, -margin)
    data = losses.mean() if reduction == "mean" else losses.sum()
    w = np.exp(-np.logaddexp(0.0, margin))
    if reduction == "mean":
        w = w / b
    g = np.concatenate([-w, w])

    grads = {name: np.zeros_like(params.tensors()[name]) for name in active_param_names(cfg)}
    dcf = dvs = g
    if cfg.visual_mode != "off":
        gx = np.zeros_like(table.x)
        if cfg.fusion_mode == "att":
            beta1, beta2 = cache.beta1, cache.beta2
            dcf, dvs = g * beta1, g * beta2
            gamma = g * (cache.collab - cache.visual) * beta1 * beta2
            wq, wk = params.fusion_hidden[:, :cfg.d1], params.fusion_hidden[:, cfg.d1:]
            for user_rows, item_rows, gu, gi, hidden, sign in (
                (params.user_collab[users], params.item_collab[items],
                 grads["user_collab"], grads["item_collab"], cache.h1_relu, 1.0),
                (params.user_visual[users], table.x[items],
                 grads["user_visual"], gx, cache.h2_relu, -1.0),
            ):
                gout, (gwq, gwk), (du, di) = attention_mlp_backward(
                    params.fusion_out, hidden, sign * gamma,
                    ((user_rows, wq), (item_rows, wk)))
                grads["fusion_out"] += gout
                grads["fusion_hidden"][:, :cfg.d1] += gwq
                grads["fusion_hidden"][:, cfg.d1:] += gwk
                np.add.at(gu, users, du)
                np.add.at(gi, items, di)
        np.add.at(grads["user_visual"], users, dvs[:, None] * table.x[items])
        np.add.at(gx, items, dvs[:, None] * params.user_visual[users])
        table_backward_full(params, cfg, dataset, table, gx, grads)
    np.add.at(grads["user_collab"], users, dcf[:, None] * params.item_collab[items])
    np.add.at(grads["item_collab"], items, dcf[:, None] * params.user_collab[users])

    lam = cfg.lambda1
    t_users, t_items = np.unique(batch[:, 0]), np.unique(batch[:, 1:3])
    grads["user_collab"][t_users] += 2.0 * lam * params.user_collab[t_users]
    grads["item_collab"][t_items] += 2.0 * lam * params.item_collab[t_items]
    if "user_visual" in grads:
        grads["user_visual"][t_users] += 2.0 * lam * params.user_visual[t_users]
    return float(data), grads


def adam_step_dense(params, grads, state, tcfg) -> None:
    """Dense bias-corrected Adam over every row of each tensor in ``grads``, in place."""
    state.step += 1
    t = state.step
    b1, b2 = training.ADAM_BETA1, training.ADAM_BETA2
    for name, grad in grads.items():
        param = getattr(params, name)
        if isinstance(grad, tuple):
            rows, values = grad
            grad = np.zeros_like(param)
            grad[rows] = values
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        param -= tcfg.lr * ((m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t))
                                                      + training.ADAM_EPS))


def adam_step_per_tensor(params, grads, state, tcfg) -> None:
    """Row-sparse bias-corrected Adam, one tensor at a time, in place.

    Each tensor in ``grads`` runs its own pass of Adam's operations: a dense
    gradient over the whole tensor and both moments, a (rows, values)
    gradient over those rows, gathered by fancy indexing and scattered back.
    ``state`` is any object with per-tensor ``m`` and ``v`` dicts and a
    ``step`` count.
    """
    state.step += 1
    t = state.step
    b1, b2 = training.ADAM_BETA1, training.ADAM_BETA2
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t
    tensors = params.tensors()
    for name, grad in grads.items():
        rows = slice(None)  # a dense gradient: every row, with views updated in place
        if isinstance(grad, tuple):
            rows, grad = grad
        m = state.m[name][rows]
        v = state.v[name][rows]
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        square = (1.0 - b2) * grad
        square *= grad
        v += square
        if not isinstance(rows, slice):  # gathered rows are copies: scatter them back
            state.m[name][rows] = m
            state.v[name][rows] = v
        denom = np.divide(v, corr2, out=square)
        np.sqrt(denom, out=denom)
        denom += training.ADAM_EPS
        update = m / corr1
        update /= denom
        update *= tcfg.lr
        tensors[name][rows] -= update


def table_backward_full(params, cfg, dataset, table, gx, grads) -> None:
    """Push the (N, d2) item-embedding gradient ``gx`` through every item's frames.

    Works on the projected frames and reduced keys, which it computes from
    ``params``; the table supplies ``alpha`` and ``hidden_relu`` only.
    """
    ids, mask, _ = dataset.frame_table
    alpha = table.alpha
    frames = ids[mask]

    def frame_product(rows):
        """Sum over all L frames of (N, m, k) ``rows`` times each frame's features."""
        per_frame = np.zeros((dataset.num_frames, rows.shape[2]))
        per_frame[frames] = rows[mask]
        return per_frame.T @ dataset.frame_features

    grads["visual_proj"] += frame_product(alpha[:, :, None] * gx[:, None, :])
    if cfg.visual_mode == "avg":
        return
    frame_emb = dataset.frame_features @ params.visual_proj.T
    keys = dataset.frame_features @ params.attn_reduce.T
    s = np.einsum("nmd,nd->nm", frame_emb[ids], gx)
    sbar = (alpha * s).sum(axis=1, keepdims=True)
    tau = alpha * (s - sbar)
    wq, wk = params.attn_hidden[:, :cfg.d1], params.attn_hidden[:, cfg.d1:]
    gout, (gwq, gwk), (dq, dkey) = attention_mlp_backward(
        params.attn_out, table.hidden_relu, tau,
        ((params.item_collab[:, None], wq), (keys[ids], wk)))
    grads["attn_out"] += gout
    grads["attn_hidden"][:, :cfg.d1] += gwq
    grads["attn_hidden"][:, cfg.d1:] += gwk
    grads["item_collab"] += dq.sum(axis=1)
    grads["attn_reduce"] += frame_product(dkey)


def visual_table_projected(params, cfg, dataset):
    """(x, alpha, hidden_relu) with every frame projected before pooling.

    The table as it was computed before pooling moved ahead of the
    projection: each frame's features times ``visual_proj`` and, for the
    attention keys, times ``attn_reduce``; the keys then meet the key half
    of ``attn_hidden`` unfolded.  ``hidden_relu``, the attention network's hidden
    layer after its ReLU, is None in mean mode.
    """
    ids, mask, counts = dataset.frame_table
    frame_emb = dataset.frame_features @ params.visual_proj.T
    gathered = frame_emb[ids] * mask[:, :, None]
    safe = np.maximum(counts, 1).astype(float)
    if cfg.visual_mode == "avg":
        return gathered.sum(axis=1) / safe[:, None], mask / safe[:, None], None
    keys = dataset.frame_features @ params.attn_reduce.T
    hidden_pre = (params.item_collab @ params.attn_hidden[:, :cfg.d1].T)[:, None, :] \
        + keys[ids] @ params.attn_hidden[:, cfg.d1:].T
    hidden_relu = np.maximum(hidden_pre, 0.0)
    logits = hidden_relu @ params.attn_out
    shifted = np.where(mask, logits, -np.inf)
    expd = np.exp(shifted - shifted.max(axis=1, keepdims=True))
    alpha = expd / expd.sum(axis=1, keepdims=True)
    return (alpha[:, :, None] * gathered).sum(axis=1), alpha, hidden_relu


def planted_item_scores(planted, dataset) -> np.ndarray:
    """Teacher scores for every (user, item) pair, shape (M, N), in one block."""
    users = np.arange(dataset.num_users)[:, None]
    items = np.arange(dataset.num_items)[None, :]
    return score_pairs(users, items, planted.params, planted.cfg, dataset)


def planted_frame_scores(planted, dataset) -> np.ndarray:
    """Teacher visual-only scores for every (user, frame) pair, shape (M, L)."""
    frame_emb = dataset.frame_features @ planted.params.visual_proj.T
    return planted.params.user_visual @ frame_emb.T


def planted_frame_likes_per_pair(planted, dataset, k: int) -> np.ndarray:
    """Sorted (user, frame) rows: each rated pair's k best frames by the scalar
    frame score, ties toward the smaller frame id."""
    likes = []
    for user, item in dataset.ratings.tolist():
        frames = np.flatnonzero(dataset.frame_parent == item).tolist()
        score = {f: predict_frame_score(user, f, planted.params, planted.cfg, dataset)
                 for f in frames}
        likes += [(user, f) for f in sorted(frames, key=lambda f: (-score[f], f))[:k]]
    return np.array(sorted(likes), dtype=np.int64).reshape(-1, 2)


def top_k_stable(scores, k: int) -> np.ndarray:
    """Each row's k largest entries' columns, best first, ties toward the smaller column."""
    return np.argsort(-scores, axis=1, kind="stable")[:, :k]


def subset(dataset, keep_users, keep_items):
    """Re-index a dataset onto the given user/item id subsets."""
    keep_users = sorted(keep_users)
    keep_items = sorted(keep_items)
    user_map = {old: new for new, old in enumerate(keep_users)}
    item_map = {old: new for new, old in enumerate(keep_items)}

    parents = dataset.frame_parent.tolist()
    keep_frames = [f for f, i in enumerate(parents) if i in item_map]
    frame_parent = np.array([item_map[parents[f]] for f in keep_frames], dtype=np.int64)
    features = dataset.frame_features[np.array(keep_frames, dtype=np.int64)]
    ratings = frozenset(
        (user_map[u], item_map[i])
        for u, i in dataset.ratings.tolist()
        if u in user_map and i in item_map
    )
    return Dataset(
        ratings=ratings,
        frame_parent=frame_parent,
        frame_features=features,
        user_ids=tuple(dataset.user_ids[u] for u in keep_users),
        item_ids=tuple(dataset.item_ids[i] for i in keep_items),
        frame_ids=tuple(dataset.frame_ids[f] for f in keep_frames),
    )


def prune_dataset(dataset, min_count: int):
    """Drop users/items with fewer than min_count ratings until a fixed point."""
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    users = set(range(dataset.num_users))
    items = set(range(dataset.num_items))
    ratings = set(map(tuple, dataset.ratings.tolist()))
    while True:
        user_counts = {u: 0 for u in users}
        item_counts = {i: 0 for i in items}
        for u, i in ratings:
            user_counts[u] += 1
            item_counts[i] += 1
        bad_users = {u for u, c in user_counts.items() if c < min_count}
        bad_items = {i for i, c in item_counts.items() if c < min_count}
        if not bad_users and not bad_items:
            break
        users -= bad_users
        items -= bad_items
        ratings = {(u, i) for u, i in ratings if u in users and i in items}
    if not users or not items:
        raise EmptyDatasetError(
            f"pruning with min_count={min_count} removed every user or item"
        )
    return subset(dataset, users, items)


def split_ratings(dataset, train_frac, valid_frac, seed, per_user=False, frame_likes=()):
    """(train, validation, test, frame_test, cold user ids) from the set-based partition."""
    rng = np.random.default_rng(seed)
    ratings = set(map(tuple, dataset.ratings.tolist()))
    train, valid, test = set(), set(), set()

    def partition(pairs):
        pairs = sorted(pairs)
        order = rng.permutation(len(pairs))
        n_train = int(len(pairs) * train_frac)
        n_valid = int(len(pairs) * valid_frac)
        for pos, idx in enumerate(order):
            pair = pairs[idx]
            if pos < n_train:
                train.add(pair)
            elif pos < n_train + n_valid:
                valid.add(pair)
            else:
                test.add(pair)

    if per_user:
        for _, pairs in groupby(sorted(ratings), key=itemgetter(0)):
            partition(pairs)
    else:
        partition(ratings)
    cold = sorted({u for u, _ in ratings} - {u for u, _ in train})
    parent = dataset.frame_parent
    frame_test = {(u, f) for u, f in frame_likes if (u, int(parent[f])) in test}
    return train, valid, test, frame_test, [dataset.user_ids[u] for u in cold]


def check_split(base, train, validation, test, frame_test) -> None:
    """Raise IntegrityError unless the (user, item) sets partition ``base``'s ratings and
    every (user, frame) pair of ``frame_test`` has its parent rating in ``test``."""
    if train & validation or train & test or validation & test:
        raise IntegrityError("split portions overlap")
    if sorted(train | validation | test) != list(map(tuple, base.ratings.tolist())):
        raise IntegrityError("split portions do not cover the ratings exactly")
    parent, num_frames = base.frame_parent, base.num_frames
    for u, f in sorted(frame_test):
        if not 0 <= f < num_frames:
            raise IntegrityError(f"frame_test frame id {f} out of range")
        if (u, int(parent[f])) not in test:
            raise IntegrityError(f"frame_test pair ({u}, {f}) has no matching test rating")


def items_of_user(dataset) -> list:
    """Each user's rated items, ascending, by a scan of every rating."""
    pairs = dataset.ratings.tolist()
    return [sorted(i for v, i in pairs if v == u) for u in range(dataset.num_users)]


def draw_negatives(rng: np.random.Generator, rated: np.ndarray, take: int):
    """Draw ``take`` items per row of a (rows, N) rated mask, without replacement.

    Each item gets a uniform random key, rated items +inf, and the ``take``
    smallest keys are drawn.  Returns (negatives, valid); valid is False where
    a row's unrated pool ran out and the slot holds a rated item.
    """
    keys = rng.random(rated.shape)
    keys[rated] = np.inf
    negs = np.argpartition(keys, take - 1, axis=1)[:, :take]
    return negs, np.take_along_axis(keys, negs, axis=1) < np.inf


def rank_of_first(scores):
    """1-based rank of scores[..., 0] along the last axis, ties ranked worst.

    An int for one list of scores, an array for a (rows, C) matrix.
    """
    scores = np.asarray(scores)
    ranks = (scores >= scores[..., :1]).sum(axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def _item_eval_setup(split, k_list, n_negatives, repeats, split_name):
    """(k_list, users, positives, pools, take, warnings) as evaluate_item_rec finds them."""
    k_list = evaluation.check_cutoffs(k_list)
    evaluation.check_sampling(n_negatives, repeats)
    base = split.base
    users, positives = split.pairs(split_name).T
    all_items = np.arange(base.num_items)
    pools = [np.setdiff1d(all_items, base.items_of_user[u]) for u in users.tolist()]
    sizes = np.array([len(p) for p in pools])
    take = int(min(n_negatives, sizes.max()))
    short = int(np.count_nonzero(sizes < n_negatives))
    warnings = [f"{short} of {len(users)} pairs had fewer than {n_negatives} "
                "unrated items; used the full pool"] if short else []
    return k_list, users, positives, pools, take, warnings


def sampled_item_eval(params, cfg, split, k_list=(5, 10, 15, 20), n_negatives=1000,
                      repeats=10, seed=0, split_name="test"):
    """``evaluate_item_rec``'s protocol by the key draw, scoring every candidate."""
    k_list, users, positives, _, take, warnings = _item_eval_setup(
        split, k_list, n_negatives, repeats, split_name)
    base = split.base
    table = item_visual_table(params, cfg, dataset=base)
    ranks = np.empty((repeats, len(users)), dtype=np.int64)
    for r, seq in enumerate(np.random.SeedSequence(seed).spawn(repeats)):
        rng = np.random.default_rng(seq)
        mask = np.zeros((len(users), base.num_items), dtype=bool)
        for row, u in enumerate(users.tolist()):
            mask[row, base.items_of_user[u]] = True
        negs, valid = draw_negatives(rng, mask, take)
        cands = np.column_stack([positives, negs])
        scores = score_pairs(users[:, None], cands, params, cfg, base, table=table)
        valid = np.column_stack([np.ones(len(users), dtype=bool), valid])
        ranks[r] = rank_of_first(np.where(valid, scores, -np.inf))
    return evaluation._report("item", split_name, k_list, ranks, warnings, n_negatives)


def catalog_counts(params, cfg, split, split_name="test"):
    """(counts, pools): per sorted pair, its unrated items scoring at least the
    positive, by ``score_pairs`` over the whole pool, and the pool's size."""
    base = split.base
    table = item_visual_table(params, cfg, dataset=base)
    counts, sizes = [], []
    for u, i in split.pairs(split_name).tolist():
        pool = np.setdiff1d(np.arange(base.num_items), base.items_of_user[u])
        s = score_pairs(np.full(len(pool) + 1, u), np.r_[i, pool], params, cfg, base,
                        table=table)
        counts.append(int(np.sum(s[1:] >= s[0])))
        sizes.append(len(pool))
    return np.array(counts, dtype=np.int64), np.array(sizes, dtype=np.int64)


def protocol_item_eval(params, cfg, split, k_list=(5, 10, 15, 20), n_negatives=1000,
                       repeats=10, seed=0, split_name="test"):
    """``evaluate_item_rec``'s draws, one pair at a time."""
    k_list, users, positives, pools, take, warnings = _item_eval_setup(
        split, k_list, n_negatives, repeats, split_name)
    base = split.base
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(repeats)]
    if repeats * (take + 1) > base.num_items:
        counts, sizes = catalog_counts(params, cfg, split, split_name)
        drawn = np.minimum(take, sizes)
        ranks = 1 + np.array([rng.hypergeometric(counts, sizes - counts, drawn)
                              for rng in rngs])
        return evaluation._report("item", split_name, k_list, ranks, warnings, n_negatives)
    table = item_visual_table(params, cfg, dataset=base)
    ranks = np.empty((repeats, len(users)), dtype=np.int64)
    for r, rng in enumerate(rngs):
        for row, (u, i, pool) in enumerate(zip(users.tolist(), positives.tolist(), pools)):
            if len(pool) <= take:
                picked = list(range(len(pool)))
            else:
                picked = []
                for step, x in enumerate(rng.random(take).tolist()):
                    j = len(pool) - take + step
                    t = int(x * (j + 1))
                    picked.append(j if t in picked else t)
            cands = np.r_[i, pool[picked]].astype(np.int64)
            s = score_pairs(np.full(len(cands), u), cands, params, cfg, base, table=table)
            ranks[r, row] = 1 + int(np.sum(s[1:] >= s[0]))
    return evaluation._report("item", split_name, k_list, ranks, warnings, n_negatives)


def records(path) -> Iterator:
    """Yield (line_no, line) for non-empty, non-comment lines; ParseError on bad UTF-8."""
    # surrogateescape keeps a bad byte as a lone surrogate, which does not re-encode
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(path, line_no, "not valid UTF-8") from None
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield line_no, line


def parse_pair_file(path) -> list:
    """Parse a two-column TSV into (line_no, left, right) tuples."""
    out = []
    for line_no, line in records(path):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ParseError(path, line_no, f"expected two tab-separated ids, got {line!r}")
        if line.split() != parts:  # str.split breaks at exactly the str.isspace characters
            raise ParseError(path, line_no, "ids must not contain whitespace")
        out.append((line_no, parts[0], parts[1]))
    return out


def pair_array(pairs: np.ndarray) -> np.ndarray:
    """(R, 2) integer rows lexsorted by (first, second) column, repeats dropped."""
    arr = pairs.astype(np.int64)[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    return arr[np.r_[True, (arr[1:] != arr[:-1]).any(axis=1)]] if len(arr) else arr


def write_pairs(path, pairs: np.ndarray, left_ids, right_ids) -> None:
    """Write (left id, right id) rows as their tokens, one line each, in token order."""
    rows = sorted((left_ids[a], right_ids[b]) for a, b in pairs.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{a}\t{b}\n" for a, b in rows)


def write_frames(path, dataset) -> None:
    """Write ``frames.tsv``: each frame and its item, item by item, each item's in id order."""
    ids, mask, _ = dataset.frame_table
    frames = ids[mask]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{dataset.frame_ids[f]}\t{dataset.item_ids[i]}\n"
                      for f, i in zip(frames.tolist(), dataset.frame_parent[frames].tolist()))


def sample_epoch(split, neg_ratio: int, rng: np.random.Generator) -> np.ndarray:
    """``training.sample_epoch``'s triples through (n, 2) repeated pairs and a stacked copy."""
    base = split.base
    train = split.pairs("train")
    pool = base.num_items - np.bincount(base.ratings[:, 0], minlength=base.num_users)
    reps = np.repeat(train, neg_ratio, axis=0)
    k = (rng.random(len(reps)) * pool[reps[:, 0]]).astype(np.int64)
    negs = base.unrated_items(reps[:, 0], k)
    triples = np.column_stack([reps, negs])
    return triples.take(rng.permutation(len(triples)), axis=0)


def ablation_table(split, base_cfg, tcfg, item_k, frame_k, negatives, repeats, seed) -> str:
    """The ablation table's text: off/sum, then the four visual cells, each trained from
    ``base_cfg`` with its modes, with item HR and NDCG at ``item_k``, frame HR and NDCG
    at ``frame_k`` and the item HR's change against avg/sum in percent."""
    reports = []
    for visual, fusion in (("off", "sum"), ("avg", "sum"), ("avg", "att"), ("att", "sum"),
                           ("att", "att")):
        cfg = replace(base_cfg, visual_mode=visual, fusion_mode=fusion)
        params, _ = training.fit(split, cfg, tcfg)
        item = evaluation.evaluate_item_rec(params, cfg, split, k_list=(item_k,),
                                            n_negatives=negatives, repeats=repeats, seed=seed)
        frame = (None if visual == "off"
                 else evaluation.evaluate_frame_rec(params, cfg, split, k_list=(frame_k,)))
        reports.append((visual, fusion, item, frame))
    ref_hr = next(item.hr[item_k] for visual, fusion, item, _ in reports
                  if (visual, fusion) == ("avg", "sum"))
    lines = [f"visual\tfusion\titem_HR@{item_k}\titem_NDCG@{item_k}"
             f"\tframe_HR@{frame_k}\tframe_NDCG@{frame_k}\tHR_vs_avg_sum%"]
    for visual, fusion, item, frame in reports:
        hr = item.hr[item_k]
        impr = 100.0 * (hr - ref_hr) / ref_hr if ref_hr else float("nan")
        frame_cols = ("-\t-" if frame is None
                      else f"{frame.hr[frame_k]!r}\t{frame.ndcg[frame_k]!r}")
        lines.append(f"{visual}\t{fusion}\t{hr!r}\t{item.ndcg[item_k]!r}\t{frame_cols}"
                     f"\t{impr:+.1f}")
    return "\n".join(lines) + "\n"
