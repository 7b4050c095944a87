"""Pairwise ranking training with hand-derived gradients.

The loss for a batch of (user, positive, negative) triples is

    mean_or_sum over triples of softplus(s_neg - s_pos)  +  reg

where s is the model score.  The regulariser penalises the squared norms of
the embedding matrices (user/item collaborative factors and, when the visual
pathway is on, user visual factors).  Its gradient touches only the rows a
batch actually uses, each at most once per batch; the read-out loss reports
the full norms by default.

Everything is plain numpy: the backward pass is derived by hand and verified
against central finite differences of the batch objective restricted to the
touched rows, so analytic and numeric gradients agree coordinate by
coordinate.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import SplitDataset
from .errors import ConfigError, SamplingError
from .evaluation import evaluate_item_rec
from .model import (
    FUSION_ATT,
    VISUAL_ATT,
    VISUAL_AVG,
    VISUAL_OFF,
    ModelConfig,
    ModelParams,
    active_param_names,
    init_params,
    item_visual_table,
    score_pairs,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation hyperparameters."""

    lr: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 512
    epochs: int = 50
    neg_ratio: int = 10
    patience: int = 10
    valid_negatives: int = 100
    valid_k: int = 10
    loss_reduction: str = "mean"
    seed: int = 0

    def __post_init__(self):
        if self.loss_reduction not in ("mean", "sum"):
            raise ConfigError(f"unknown loss_reduction {self.loss_reduction!r}")
        if min(self.batch_size, self.epochs, self.neg_ratio, self.valid_negatives,
               self.valid_k) < 1:
            raise ConfigError(
                "batch_size, epochs, neg_ratio, valid_negatives, valid_k must be >= 1"
            )
        if self.lr <= 0:
            raise ConfigError("lr must be > 0")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ConfigError("adam betas must lie in [0, 1)")


def bpr_pair_loss(pos_scores, neg_scores) -> np.ndarray:
    """Per-triple softplus(neg - pos), computed without overflow."""
    return np.logaddexp(0.0, -(np.asarray(pos_scores) - np.asarray(neg_scores)))


def _sigmoid_neg(x: np.ndarray) -> np.ndarray:
    """sigma(-x) = exp(-softplus(x)), stable for large |x|."""
    return np.exp(-np.logaddexp(0.0, x))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_epoch(split: SplitDataset, neg_ratio: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one epoch of (user, pos_item, neg_item) training triples.

    Every training rating contributes ``neg_ratio`` triples.  Negatives are
    uniform over the items the user never rated in any portion, drawn with
    replacement; the returned rows are shuffled.  Raises SamplingError if a
    training user has rated every item.
    """
    base = split.base
    train = split.train_array
    if train.size == 0:
        raise SamplingError("training split is empty")
    all_items = np.arange(base.num_items, dtype=np.int64)
    pool_of_user = {}
    for u in np.unique(train[:, 0]):
        pool = np.setdiff1d(all_items, base.items_of_user[u], assume_unique=True)
        if len(pool) == 0:
            raise SamplingError(
                f"user {base.user_ids[u]!r} has rated every item; "
                "cannot sample negatives"
            )
        pool_of_user[int(u)] = pool

    reps = np.repeat(train, neg_ratio, axis=0)
    negs = np.empty(len(reps), dtype=np.int64)
    for u, pool in pool_of_user.items():
        rows = np.nonzero(reps[:, 0] == u)[0]
        negs[rows] = pool[rng.integers(0, len(pool), size=len(rows))]
    triples = np.column_stack([reps, negs])
    return triples[rng.permutation(len(triples))]


# ---------------------------------------------------------------------------
# Loss and gradients
# ---------------------------------------------------------------------------


def _touched_rows(batch: np.ndarray):
    """Unique user rows and item rows referenced by a batch of triples."""
    users = np.unique(batch[:, 0])
    items = np.unique(batch[:, 1:3])
    return users, items


def _reg_value(params: ModelParams, cfg: ModelConfig, batch, scope: str) -> float:
    names = [n for n in ("user_collab", "item_collab", "user_visual")
             if n in active_param_names(cfg)]
    if scope == "full":
        return float(sum(np.sum(params.tensors()[n] ** 2) for n in names))
    if scope != "batch":
        raise ConfigError(f"unknown reg scope {scope!r}")
    users, items = _touched_rows(np.asarray(batch))
    total = float(np.sum(params.user_collab[users] ** 2))
    total += float(np.sum(params.item_collab[items] ** 2))
    if "user_visual" in names:
        total += float(np.sum(params.user_visual[users] ** 2))
    return total


def batch_loss(
    params: ModelParams,
    cfg: ModelConfig,
    dataset,
    batch,
    reduction: str = "mean",
    reg_scope: str = "full",
    table=None,
) -> float:
    """Ranking loss of a batch plus the weighted regulariser.

    ``reg_scope`` "full" reports the whole-matrix norms (the quantity the
    training log shows); "batch" restricts the penalty to the rows the batch
    touches, which is the exact objective the analytic gradient
    differentiates.
    """
    batch = np.asarray(batch, dtype=np.int64)
    b = len(batch)
    users = np.concatenate([batch[:, 0], batch[:, 0]])
    items = np.concatenate([batch[:, 1], batch[:, 2]])
    scores = score_pairs(users, items, params, cfg, dataset, table=table)
    losses = bpr_pair_loss(scores[:b], scores[b:])
    data = losses.mean() if reduction == "mean" else losses.sum()
    return float(data + cfg.lambda1 * _reg_value(params, cfg, batch, reg_scope))


def batch_gradients(
    params: ModelParams,
    cfg: ModelConfig,
    dataset,
    batch,
    reduction: str = "mean",
    table=None,
):
    """Hand-derived gradients of the batch objective for the active tensors.

    Returns (data_loss, grads) where grads maps each active tensor name to a
    dense array and already includes the touched-row regularisation.  The
    returned loss is the reduced ranking term without the regulariser.
    """
    batch = np.asarray(batch, dtype=np.int64)
    b = len(batch)
    if b == 0:
        raise ValueError("empty batch")
    if table is None and cfg.visual_mode != VISUAL_OFF:
        table = item_visual_table(params, cfg, dataset)

    users = np.concatenate([batch[:, 0], batch[:, 0]])
    items = np.concatenate([batch[:, 1], batch[:, 2]])
    scores, cache = score_pairs(
        users, items, params, cfg, dataset, table=table, want_cache=True
    )
    margin = scores[:b] - scores[b:]
    losses = np.logaddexp(0.0, -margin)
    data = losses.mean() if reduction == "mean" else losses.sum()

    w = _sigmoid_neg(margin)
    if reduction == "mean":
        w = w / b
    g = np.concatenate([-w, w])  # d(loss)/d(score) per pair

    active = active_param_names(cfg)
    grads = {name: np.zeros_like(params.tensors()[name]) for name in active}
    d1, d2 = cfg.d1, cfg.d2
    uu = params.user_collab[users]
    vt = params.item_collab[items]

    if cfg.visual_mode == VISUAL_OFF:
        dcf = g
        np.add.at(grads["user_collab"], users, dcf[:, None] * vt)
        np.add.at(grads["item_collab"], items, dcf[:, None] * uu)
    else:
        wu = params.user_visual[users]
        xt = table.x[items]
        gx = np.zeros_like(table.x)  # d(loss)/d(item visual embedding)

        if cfg.fusion_mode == FUSION_ATT:
            beta1, beta2 = cache.beta1, cache.beta2
            dcf = g * beta1
            dvs = g * beta2
            gamma = g * (cache.collab - cache.visual) * beta1 * beta2
            act1 = np.maximum(cache.h1_pre, 0.0)
            act2 = np.maximum(cache.h2_pre, 0.0)
            grads["fusion_out"] += act1.T @ gamma - act2.T @ gamma
            live = params.fusion_out
            dh1 = gamma[:, None] * (live * (cache.h1_pre > 0))
            dh2 = -gamma[:, None] * (live * (cache.h2_pre > 0))
            grads["fusion_hidden"] += dh1.T @ cache.z1 + dh2.T @ cache.z2
            if cfg.attention_bias:
                grads["fusion_hidden_bias"] += dh1.sum(axis=0) + dh2.sum(axis=0)
            dz1 = dh1 @ params.fusion_hidden
            dz2 = dh2 @ params.fusion_hidden
            np.add.at(grads["user_collab"], users, dz1[:, :d1])
            np.add.at(grads["item_collab"], items, dz1[:, d1:])
            np.add.at(grads["user_visual"], users, dz2[:, :d2])
            np.add.at(gx, items, dz2[:, d2:])
        else:
            dcf = g
            dvs = g

        np.add.at(grads["user_collab"], users, dcf[:, None] * vt)
        np.add.at(grads["item_collab"], items, dcf[:, None] * uu)
        np.add.at(grads["user_visual"], users, dvs[:, None] * xt)
        np.add.at(gx, items, dvs[:, None] * wu)
        _table_backward(params, cfg, dataset, table, gx, grads)

    lam = cfg.lambda1
    if lam:
        t_users, t_items = _touched_rows(batch)
        grads["user_collab"][t_users] += 2.0 * lam * params.user_collab[t_users]
        grads["item_collab"][t_items] += 2.0 * lam * params.item_collab[t_items]
        if "user_visual" in grads:
            grads["user_visual"][t_users] += 2.0 * lam * params.user_visual[t_users]
    return float(data), grads


def _table_backward(params, cfg, dataset, table, gx, grads) -> None:
    """Push gradients w.r.t. per-item visual embeddings into the tensors.

    gx is (N, d2).  For the mean pathway only the projection receives
    gradient; attention additionally feeds its weight network, the key
    reduction, and the item factors (which act as attention queries).
    """
    ids, mask, counts = table.ids, table.mask, table.counts
    feats = dataset.frame_features[ids]  # (N, m, F)
    if cfg.visual_mode == VISUAL_AVG:
        safe = np.maximum(counts, 1).astype(gx.dtype)
        mean_feats = (feats * mask[:, :, None]).sum(axis=1) / safe[:, None]
        grads["visual_proj"] += gx.T @ mean_feats
        return

    alpha = table.alpha  # (N, m), zero at padding
    emb = table.frame_emb[ids]  # (N, m, d2)
    grads["visual_proj"] += gx.T @ np.einsum("nm,nmf->nf", alpha, feats)

    s = np.einsum("nmd,nd->nm", emb, gx)
    sbar = (alpha * s).sum(axis=1, keepdims=True)
    tau = alpha * (s - sbar)  # gradient w.r.t. the attention logits

    hidden_pre = table.hidden_pre  # (N, m, h)
    act = np.maximum(hidden_pre, 0.0)
    grads["attn_out"] += np.einsum("nm,nmh->h", tau, act)
    dh = tau[:, :, None] * (params.attn_out * (hidden_pre > 0))
    grads["attn_hidden"] += np.einsum("nmh,nmz->hz", dh, table.z)
    if cfg.attention_bias:
        grads["attn_hidden_bias"] += dh.sum(axis=(0, 1))
    dz = dh @ params.attn_hidden  # (N, m, d1 + d0)
    grads["item_collab"] += dz[:, :, : cfg.d1].sum(axis=1)
    dkey = np.einsum("nmk,nmf->kf", dz[:, :, cfg.d1:], feats)
    if cfg.share_visual_projection:
        grads["visual_proj"] += dkey
    else:
        grads["attn_reduce"] += dkey


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment accumulators for the active tensors."""

    m: dict
    v: dict
    step: int = 0


def init_adam_state(params: ModelParams, cfg: ModelConfig) -> AdamState:
    tensors = params.tensors()
    active = active_param_names(cfg)
    return AdamState(
        m={n: np.zeros_like(tensors[n]) for n in active},
        v={n: np.zeros_like(tensors[n]) for n in active},
    )


def adam_step(
    params: ModelParams, grads: dict, state: AdamState, tcfg: TrainConfig
) -> None:
    """One bias-corrected Adam update, in place, active tensors only."""
    state.step += 1
    t = state.step
    b1, b2 = tcfg.adam_beta1, tcfg.adam_beta2
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t
    tensors = params.tensors()
    for name, grad in grads.items():
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        update = (m / corr1) / (np.sqrt(v / corr2) + tcfg.adam_eps)
        tensors[name] -= tcfg.lr * update


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    valid_hr: float
    valid_ndcg: float
    seconds: float


@dataclass
class TrainLog:
    """Per-epoch trace of a fit run.

    ``best_epoch`` is -1 when no validation was possible (empty validation
    split), in which case the final parameters are simply the last epoch's.
    """

    epochs: list = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False

    def to_tsv(self) -> str:
        lines = ["epoch\ttrain_loss\tvalid_hr\tvalid_ndcg\tseconds"]
        for r in self.epochs:
            lines.append(
                f"{r.epoch}\t{r.train_loss!r}\t{r.valid_hr!r}"
                f"\t{r.valid_ndcg!r}\t{r.seconds:.3f}"
            )
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_tsv(), encoding="utf-8")


def fit(
    split: SplitDataset,
    cfg: ModelConfig,
    tcfg: TrainConfig,
    params: ModelParams = None,
):
    """Train a model on a split; returns (params, TrainLog).

    Parameters default to a fresh initialisation from cfg.seed.  Each epoch
    resamples negatives, then validation hit rate at ``valid_k`` (fixed
    candidate sets across epochs) drives early stopping: after ``patience``
    epochs without improvement training stops and the best epoch's snapshot
    is returned.
    """
    base = split.base
    if params is None:
        params = init_params(cfg, base)
    state = init_adam_state(params, cfg)
    root = np.random.SeedSequence(tcfg.seed)
    sample_seq, valid_seq = root.spawn(2)
    sample_rng = np.random.default_rng(sample_seq)
    valid_seed = int(valid_seq.generate_state(1)[0])
    can_validate = bool(split.validation)

    log = TrainLog()
    best_params = None
    best_hr = -np.inf
    bad_epochs = 0
    for epoch in range(1, tcfg.epochs + 1):
        started = time.perf_counter()
        triples = sample_epoch(split, tcfg.neg_ratio, sample_rng)
        loss_total = 0.0
        for lo in range(0, len(triples), tcfg.batch_size):
            chunk = triples[lo: lo + tcfg.batch_size]
            loss, grads = batch_gradients(
                params, cfg, base, chunk, reduction=tcfg.loss_reduction
            )
            adam_step(params, grads, state, tcfg)
            loss_total += loss * (len(chunk) if tcfg.loss_reduction == "mean" else 1.0)
        denom = len(triples) if tcfg.loss_reduction == "mean" else 1.0
        train_loss = loss_total / denom

        valid_hr = float("nan")
        valid_ndcg = float("nan")
        if can_validate:
            report = evaluate_item_rec(
                params, cfg, split,
                k_list=(tcfg.valid_k,),
                n_negatives=tcfg.valid_negatives,
                repeats=1,
                seed=valid_seed,
                split_name="validation",
            )
            valid_hr = report.hr[tcfg.valid_k]
            valid_ndcg = report.ndcg[tcfg.valid_k]

        seconds = time.perf_counter() - started
        log.epochs.append(EpochRecord(epoch, train_loss, valid_hr, valid_ndcg, seconds))
        logger.info(
            "epoch %d: loss %.5f, valid HR@%d %.4f (%.2fs)",
            epoch, train_loss, tcfg.valid_k, valid_hr, seconds,
        )
        if can_validate:
            if valid_hr > best_hr:
                best_hr = valid_hr
                best_params = params.copy()
                log.best_epoch = epoch
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= tcfg.patience:
                    log.stopped_early = True
                    logger.info("early stop at epoch %d (best %d)", epoch, log.best_epoch)
                    break

    if best_params is not None:
        params = best_params
    return params, log


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradCheckReport:
    """Per-tensor worst relative error between analytic and numeric grads."""

    per_param: dict
    max_rel_err: float
    checked_coords: int
    h: float

    def worst(self) -> str:
        name = max(self.per_param, key=self.per_param.get)
        return f"{name}: {self.per_param[name]:.3e}"


def finite_diff_check(
    params: ModelParams,
    cfg: ModelConfig,
    dataset,
    batch,
    h: float = 1e-5,
    max_coords: int = 200,
    seed: int = 0,
    reduction: str = "mean",
) -> GradCheckReport:
    """Compare analytic gradients against central differences.

    The numeric side differences the batch objective with the regulariser
    restricted to touched rows, matching what the analytic gradient computes.
    Large tensors are subsampled to ``max_coords`` coordinates.  Relative
    error uses max(1e-8, |analytic| + |numeric|) as the denominator.
    """
    if h <= 0:
        raise ValueError(f"step size h must be > 0, got {h}")
    if cfg.precision != "f64":
        raise ConfigError("finite differences need precision='f64'")
    batch = np.asarray(batch, dtype=np.int64)
    _, grads = batch_gradients(params, cfg, dataset, batch, reduction=reduction)
    rng = np.random.default_rng(seed)

    def objective() -> float:
        return batch_loss(
            params, cfg, dataset, batch, reduction=reduction, reg_scope="batch"
        )

    per_param = {}
    checked = 0
    for name in active_param_names(cfg):
        tensor = params.tensors()[name]
        flat = tensor.reshape(-1)
        gflat = grads[name].reshape(-1)
        if flat.size <= max_coords:
            coords = np.arange(flat.size)
        else:
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        worst = 0.0
        for c in coords:
            keep = flat[c]
            flat[c] = keep + h
            up = objective()
            flat[c] = keep - h
            down = objective()
            flat[c] = keep
            numeric = (up - down) / (2.0 * h)
            analytic = gflat[c]
            denom = max(1e-8, abs(analytic) + abs(numeric))
            worst = max(worst, abs(analytic - numeric) / denom)
        per_param[name] = worst
        checked += len(coords)
    return GradCheckReport(
        per_param=per_param,
        max_rel_err=max(per_param.values()),
        checked_coords=checked,
        h=h,
    )


def gradcheck_instance(
    seed: int = 0,
    visual_mode: str = VISUAL_ATT,
    fusion_mode: str = FUSION_ATT,
    lambda1: float = 0.001,
    attention_bias: bool = False,
    share_visual_projection: bool = False,
):
    """A small random model/dataset/batch for gradient verification.

    5 users, 8 items with uneven frame counts (20 frames total), feature
    dimension 6, factor dimensions 4.  Returns (params, cfg, dataset, batch).
    """
    from .data import Dataset, check_dataset

    rng = np.random.default_rng(seed)
    m, n, l, fd = 5, 8, 20, 6
    counts = rng.multinomial(l - n, np.full(n, 1.0 / n)) + 1  # every item >= 1
    frames_of_item = []
    parent = []
    start = 0
    for i, c in enumerate(counts):
        frames_of_item.append(tuple(range(start, start + int(c))))
        parent.extend([i] * int(c))
        start += int(c)
    ratings = set()
    for u in range(m):
        rated = rng.choice(n, size=rng.integers(2, n - 1), replace=False)
        ratings.update((u, int(i)) for i in rated)
    dataset = Dataset(
        num_users=m,
        num_items=n,
        num_frames=l,
        feature_dim=fd,
        ratings=frozenset(ratings),
        frames_of_item=tuple(frames_of_item),
        frame_parent=np.array(parent, dtype=np.int64),
        frame_features=rng.normal(0.0, 1.0, (l, fd)),
        user_ids=tuple(f"u{k}" for k in range(m)),
        item_ids=tuple(f"i{k}" for k in range(n)),
        frame_ids=tuple(f"f{k:02d}" for k in range(l)),
    )
    check_dataset(dataset)
    cfg = ModelConfig(
        d1=4,
        d2=4,
        attn_hidden_visual=4,
        attn_hidden_rating=4,
        reduced_visual_dim=4 if share_visual_projection else 3,
        visual_mode=visual_mode,
        fusion_mode=fusion_mode,
        lambda1=lambda1,
        init_scale=0.3,
        seed=seed,
        attention_bias=attention_bias,
        share_visual_projection=share_visual_projection,
    )
    params = init_params(cfg, dataset)
    if attention_bias:
        # zero biases are a ReLU kink hazard for finite differences
        brng = np.random.default_rng(seed + 1)
        params.attn_hidden_bias[:] = brng.normal(0.0, 0.3, params.attn_hidden_bias.shape)
        params.fusion_hidden_bias[:] = brng.normal(0.0, 0.3, params.fusion_hidden_bias.shape)
    triples = []
    for u in range(m):
        rated = sorted(i for uu, i in ratings if uu == u)
        unrated = sorted(set(range(n)) - set(rated))
        for _ in range(3):
            triples.append(
                (u, int(rng.choice(rated)), int(rng.choice(unrated)))
            )
    batch = np.array(triples, dtype=np.int64)
    return params, cfg, dataset, batch
