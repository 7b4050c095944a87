"""Pairwise ranking training with hand-derived gradients.

The loss for a batch of (user, positive, negative) triples is

    mean_or_sum over triples of softplus(s_neg - s_pos)  +  reg

where s is the model score.  The regulariser penalises the squared norms of
the embedding matrices (user/item collaborative factors and, when the visual
pathway is on, user visual factors), restricted to the rows a batch
actually uses, each counted once per batch.

Everything is plain numpy: the backward pass is derived by hand and verified
against central finite differences of the batch objective restricted to the
touched rows, so analytic and numeric gradients agree coordinate by
coordinate.

A step is row-sparse in the three embedding tensors (``EMBEDDINGS``): the
gradient holds only the rows the batch touches, and Adam updates only those
rows of the tensor and of both moments (the "lazy" Adam of TensorFlow's
``LazyAdamOptimizer`` and PyTorch's ``SparseAdam``).  An untouched row's
moments do not decay, and momentum does not move it.  The other tensors are
small and get dense gradients and updates, all in one pass over one flat
vector (``AdamState``).

The rows a batch touches, the sorted users and items it names and each
pair's position among them, come from ``_row_set``: a presence mask and a
slot map over the catalog, without a sort.  The regulariser and the gradient
read the same row sets.  The backward pass reads the embedding rows the
forward gathered for each pair (``PairCache``) instead of gathering them
again.  It sums each entity's per-pair gradients, one array per channel
(collaborative, then visual), into the entity's touched rows in one
``_row_sums`` call, which forms the flat bin index once for the channels.
Rows of 2-D and 3-D arrays are gathered with ``take(rows, axis=0)``, which
copies the same values as fancy indexing in about a third of the time; 1-D
gathers keep fancy indexing, which is faster there.

Two pieces of a step run in blocks on up to one thread per CPU, through
the forward's runner (``model._run_blocks``), which sizes every block: the
visual table's backward, a block of touched items at a time, and
``sample_epoch``'s negative lookup and column fills, a block of training
pairs or triples at a time.  A block writes only its own rows; a sum
across blocks adds the blocks' partial results in block order on the
calling thread, so no bit depends on the thread count.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, SplitDataset, atomic_writer, check_dataset
from .errors import (ConfigError, EmptyDatasetError, NonFiniteError, SamplingError,
                     check_integers, check_reals, check_seed)
from .evaluation import evaluate_item_rec
from .model import (
    FUSION_ATT,
    VISUAL_ATT,
    VISUAL_OFF,
    ModelConfig,
    ModelParams,
    _attention_mlp_backward,
    _run_blocks,
    active_param_names,
    init_params,
    item_visual_table,
    score_pairs,
)

logger = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LOSS_REDUCTIONS = ("mean", "sum")
# The tensors with one row per user or item, whose gradients are (rows, values) pairs.
EMBEDDINGS = ("user_collab", "item_collab", "user_visual")


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation hyperparameters."""

    lr: float = 0.001
    batch_size: int = 512
    epochs: int = 50
    neg_ratio: int = 10
    patience: int = 10
    valid_negatives: int = 100
    valid_k: int = 10
    loss_reduction: str = "mean"
    seed: int = 0

    def __post_init__(self):
        check_integers(self, ("batch_size", "epochs", "neg_ratio", "patience",
                              "valid_negatives", "valid_k", "seed"))
        check_reals(self, ("lr",))
        if self.loss_reduction not in LOSS_REDUCTIONS:
            raise ConfigError(f"unknown loss_reduction {self.loss_reduction!r}")
        if min(self.batch_size, self.epochs, self.neg_ratio, self.patience,
               self.valid_negatives, self.valid_k) < 1:
            raise ConfigError("batch_size, epochs, neg_ratio, patience, valid_negatives "
                              "and valid_k must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        check_seed(self.seed)


def bpr_pair_loss(pos_scores, neg_scores) -> np.ndarray:
    """Per-triple softplus(neg - pos), computed without overflow; NaN gives NaN silently."""
    with np.errstate(invalid="ignore"):
        return np.logaddexp(0.0, -(np.asarray(pos_scores) - np.asarray(neg_scores)))


def _sigmoid_neg(x: np.ndarray) -> np.ndarray:
    """sigma(-x) = exp(-softplus(x)), stable for large |x|."""
    with np.errstate(invalid="ignore"):
        return np.exp(-np.logaddexp(0.0, x))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_epoch(split: SplitDataset, neg_ratio: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one epoch of (user, pos_item, neg_item) training triples.

    Every training rating contributes ``neg_ratio`` triples.  Negatives are
    uniform over the items the user never rated in any portion, drawn with
    replacement: one uniform per triple, drawn in one call, picks an index
    into the user's unrated pool (``Dataset.unrated_items``).  The returned
    rows are shuffled.  Raises SamplingError, before any draw, if a training
    user has rated every item.

    The two draws, the uniforms and then the permutation, are made whole on
    the calling thread.  The rest runs in blocks spread over the CPUs
    (``_run_blocks``): first the lookups, ``CACHE_BLOCK // neg_ratio``
    training pairs a block (a row of ``neg_ratio``, one per triple) in
    training-pair order, where a block's users ascend and the search keeps
    to a small part of the ratings (in the permuted order the whole draw
    took twice as long at M), then the rows, ``CACHE_BLOCK`` triples a
    block (a row of 1), filled from the permutation.
    Each block writes only its own slice, so the bytes are those of the
    permuted whole-epoch draw at any block size or thread count.
    """
    base = split.base
    train = split.pairs("train")
    if train.size == 0:
        raise SamplingError("training split is empty")
    pool = base.num_items - np.bincount(base.ratings[:, 0], minlength=base.num_users)
    full = np.flatnonzero(pool[train[:, 0]] == 0)
    if len(full):
        raise SamplingError(
            f"user {base.user_ids[train[full[0], 0]]!r} has rated every item; "
            "cannot sample negatives"
        )
    n = len(train) * neg_ratio  # triple j is from training pair j // neg_ratio
    draws = rng.random(n)
    negs = np.empty(n, dtype=np.int64)

    def lookup(b):  # a block of training pairs and their neg_ratio times as many triples
        span = slice(b.start * neg_ratio, b.stop * neg_ratio)
        users = np.repeat(train[b, 0], neg_ratio)
        k = (draws[span] * pool[users]).astype(np.int64)  # below the pool size
        negs[span] = base.unrated_items(users, k)

    _run_blocks(lookup, len(train), neg_ratio)
    perm = rng.permutation(n)
    triples = np.empty((n, 3), dtype=np.int64)

    def fill(b):
        source = perm[b]
        pair = source // neg_ratio
        triples[b, 0] = train[:, 0].take(pair)
        triples[b, 1] = train[:, 1].take(pair)
        triples[b, 2] = negs.take(source)

    _run_blocks(fill, n, 1)
    return triples


# ---------------------------------------------------------------------------
# Loss and gradients
# ---------------------------------------------------------------------------


def _score_batch(params: ModelParams, cfg: ModelConfig, dataset, batch, reduction, table):
    """Score a batch's 2b pairs, every (user, positive) then every (user, negative).

    Returns (users, items, scores, cache, reduced ranking loss).
    """
    users = np.concatenate([batch[:, 0], batch[:, 0]])
    items = np.concatenate([batch[:, 1], batch[:, 2]])
    scores, cache = score_pairs(
        users, items, params, cfg, dataset, table=table, want_cache=True
    )
    losses = bpr_pair_loss(scores[:len(batch)], scores[len(batch):])
    data = losses.mean() if reduction == "mean" else losses.sum()
    return users, items, scores, cache, data


def batch_loss(
    params: ModelParams,
    cfg: ModelConfig,
    dataset,
    batch,
    reduction: str = "mean",
) -> float:
    """Ranking loss of a batch plus the weighted regulariser.

    The penalty covers the rows the batch touches, so this is the exact
    objective the analytic gradient differentiates.
    """
    batch = np.asarray(batch, dtype=np.int64)
    data = _score_batch(params, cfg, dataset, batch, reduction, None)[-1]
    users = _row_set(batch[:, 0], dataset.num_users)[0]
    items = _row_set(batch[:, 1:3].ravel(), dataset.num_items)[0]
    reg = float(np.sum(params.user_collab[users] ** 2))
    reg += float(np.sum(params.item_collab[items] ** 2))
    if cfg.visual_mode != VISUAL_OFF:
        reg += float(np.sum(params.user_visual[users] ** 2))
    return float(data + cfg.lambda1 * reg)


def batch_gradients(
    params: ModelParams,
    cfg: ModelConfig,
    dataset,
    batch,
    reduction: str = "mean",
    table=None,
):
    """Hand-derived gradients of the batch objective for the active tensors.

    Returns (data_loss, grads) where grads maps each active tensor name, in
    ``active_param_names`` order, to its gradient, which already includes
    the touched-row regularisation.  For the tensors in ``EMBEDDINGS`` the
    gradient is a pair (rows, values): the sorted ids of the users or items
    the batch touches and their gradient rows; every other row's gradient
    is zero.  The other tensors get dense arrays (``dense_gradient`` turns
    either form into a dense array).  The returned loss is the reduced
    ranking term without the regulariser.  ``table``, if passed, is a
    training table from ``item_visual_table``; one without the arrays the
    table's backward reads (``pooled``, and in attention mode ``alpha`` and
    ``hidden_relu``), such as a table built for scoring, raises ValueError.
    Raises EmptyDatasetError for a batch without triples.
    """
    batch = np.asarray(batch, dtype=np.int64)
    b = len(batch)
    if b == 0:
        raise EmptyDatasetError("empty batch")
    if cfg.visual_mode != VISUAL_OFF:
        if table is None:
            table = item_visual_table(params, cfg, dataset)
        needed = ["pooled"] + (["alpha", "hidden_relu"] if cfg.visual_mode == VISUAL_ATT else [])
        missing = [name for name in needed if getattr(table, name, None) is None]
        if missing:
            raise ValueError(f"batch_gradients needs a training table from item_visual_table; "
                             f"this one holds no {', '.join(missing)}")

    users, items, scores, cache, data = _score_batch(
        params, cfg, dataset, batch, reduction, table
    )
    w = _sigmoid_neg(scores[:b] - scores[b:])
    if reduction == "mean":
        w = w / b
    g = np.concatenate([-w, w])  # d(loss)/d(score) per pair

    # Per pair, the gradient w.r.t. the user's and the item's row of each
    # channel's embedding, from the rows the forward gathered; each entity's
    # channels are summed into the rows the batch touches in one call.
    dcf = dvs = g  # d(loss)/d(collaborative and visual channel score)
    visual = cfg.visual_mode != VISUAL_OFF
    fused = visual and cfg.fusion_mode == FUSION_ATT
    grads = {name: np.zeros_like(getattr(params, name))
             for name in active_param_names(cfg) if name not in EMBEDDINGS}
    if fused:
        beta1, beta2 = cache.beta1, cache.beta2
        dcf, dvs = g * beta1, g * beta2
        gamma = g * (cache.collab - cache.visual) * beta1 * beta2  # d(loss)/d(g1) = -d/d(g2)
        k = cfg.d1
        w_user, w_item = params.fusion_hidden[:, :k], params.fusion_hidden[:, k:]
        g_user, g_item = grads["fusion_hidden"][:, :k], grads["fusion_hidden"][:, k:]

    def pair_grads(user_rows, item_rows, dscore, hidden_relu, sign):
        """One channel's per-pair gradients w.r.t. its user and item rows."""
        du, di = dscore[:, None] * item_rows, dscore[:, None] * user_rows
        if fused:
            dhu, dhi = _attention_mlp_backward(
                params.fusion_out, hidden_relu, sign * gamma, grads["fusion_out"],
                ((user_rows, g_user), (item_rows, g_item)),
            )
            du += dhu @ w_user
            di += dhi @ w_item
        return du, di

    channels = [pair_grads(cache.user_collab, cache.item_collab, dcf, cache.h1_relu, 1.0)]
    if visual:
        channels.append(
            pair_grads(cache.user_visual, cache.item_visual, dvs, cache.h2_relu, -1.0))
    user_grads, item_grads = zip(*channels)  # [du, dv] and [di, dx]
    user_rows, user_of = _row_set(users, dataset.num_users)
    rows, item_of = _row_set(items, dataset.num_items)
    user_sums = _row_sums(user_of, user_grads, len(user_rows))
    item_sums = _row_sums(item_of, item_grads, len(rows))
    decay = 2.0 * cfg.lambda1  # d(lambda1 * |row|^2)/d(row) = decay * row
    grads["user_collab"] = (
        user_rows, user_sums[0] + decay * params.user_collab.take(user_rows, axis=0))
    gi = item_sums[0] + decay * params.item_collab.take(rows, axis=0)
    if visual:
        grads["user_visual"] = (
            user_rows, user_sums[1] + decay * params.user_visual.take(user_rows, axis=0))
        gi += _table_backward(params, cfg, dataset, table, rows, item_sums[1], grads)
    grads["item_collab"] = (rows, gi)
    return float(data), {name: grads[name] for name in active_param_names(cfg)}


def dense_gradient(param: np.ndarray, grad) -> np.ndarray:
    """A gradient as a dense array shaped like ``param``: a (rows, values) pair
    scattered into zeros, a dense gradient as it is."""
    if not isinstance(grad, tuple):
        return grad
    rows, values = grad
    dense = np.zeros_like(param)
    dense[rows] = values
    return dense


def _row_set(ids, size: int):
    """(rows, inverse) for 1-D ``ids`` below ``size``, as ``np.unique(ids, return_inverse=True)``.

    ``rows`` are the sorted distinct ids and ``inverse`` each id's position
    among them, found without a sort: a presence mask over the ``size``
    ids, ``rows = flatnonzero(mask)``, and a slot map, ``slot[rows] =
    arange(len(rows))``, read at ``ids``.  Its cost grows with ``size``,
    ``np.unique``'s with ``len(ids)``: for 1,024 ids it took 4.4 us against
    21 us over 300 ids, 12.5 against 19 over 40,000, but 66 against 19 over
    400,000 (one core of a 2-vCPU host).
    """
    mask = np.zeros(size, dtype=bool)
    mask[ids] = True
    rows = np.flatnonzero(mask)
    slot = np.empty(size, dtype=np.int64)
    slot[rows] = np.arange(len(rows))
    return rows, slot[ids]


def _row_sums(index, values, num_rows) -> list:
    """Per (n, d) array of ``values``, the (num_rows, d) array whose row r
    sums its rows with index r.

    The sums run through ``np.bincount`` over one flat bin index, formed
    once per width and shared by the arrays of that width, since forming it
    costs more than a bincount.  Adds in input order, like ``np.add.at``
    into zeros, so the bits agree.
    """
    flat = {}
    sums = []
    for v in values:
        d = v.shape[1]
        if d not in flat:
            flat[d] = (index[:, None] * d + np.arange(d)).ravel()
        sums.append(np.bincount(flat[d], weights=v.ravel(),
                                minlength=num_rows * d).reshape(num_rows, d))
    return sums


def _table_backward(params, cfg, dataset, table, rows, gx, grads):
    """Push gradients w.r.t. the visual embeddings of items ``rows`` into the tensors.

    gx is (len(rows), d2); every other item's gradient is zero, so only the
    frames of ``rows`` take part.  The rows are worked in blocks, ``m *
    max(h, F)`` floats a row, spread over the CPUs (``_run_blocks``; 128
    rows a block at M, one block at S): each block gathers its own rows'
    pooled features, weights, frames and ``hidden_relu`` rows, and the
    attention backward works in the buffer of its gathered hidden layer.
    In both modes ``x`` is ``table.pooled @ visual_proj.T``, so a block's
    part of the projection's gradient is ``gx[b].T @ table.pooled[rows[b]]``.
    Attention additionally feeds its weight network: a block forms ``s``
    and ``tau``, writes its rows of the query half's pre-activation
    gradient, and returns its parts of the ``attn_out`` and query-half
    gradients and of the key half's, which acts on raw features through the
    folded weight ``attn_hidden[:, d1:] @ attn_reduce``, as one (h, F)
    array, each in zeros of its own.  The calling thread adds each tensor's
    parts in block order once every block is done, so no bit depends on the
    thread count, then chains the folded key's sum into both factors.  The
    two row-wise products that lead to the item factors' gradient, ``gx @
    visual_proj`` and the query gradient times its weight half, run over
    all the rows at once: in a block of one row they would go through a
    matrix-vector kernel, which rounds apart, so this way the item factors'
    gradient has the same bits at any block size.
    Returns the (len(rows), d1) gradient w.r.t. the rows' item factors,
    which act as attention queries (0.0 in mean mode).
    """
    _, m, f = dataset.padded_features.shape
    h, k = params.attn_hidden.shape[0], cfg.d1
    attention = cfg.visual_mode == VISUAL_ATT
    if attention:
        dpooled = gx @ params.visual_proj  # d(loss)/d(pooled), (len(rows), F)
        dh_query = np.empty((len(rows), h))

    def block(b):
        r, g = rows[b], gx[b]
        dproj = g.T @ table.pooled.take(r, axis=0)
        if not attention:
            return (dproj,)
        alpha = table.alpha.take(r, axis=0)
        feats = dataset.padded_features.take(r, axis=0)  # (R, m, F)
        s = (feats @ dpooled[b, :, None])[:, :, 0]  # d(loss)/d(alpha)
        sbar = (alpha * s).sum(axis=1, keepdims=True)
        tau = alpha * (s - sbar)  # gradient w.r.t. the attention logits
        dout, dq, dfold = np.zeros(h), np.zeros((h, k)), np.zeros((h, f))
        dh_query[b] = _attention_mlp_backward(
            params.attn_out, table.hidden_relu.take(r, axis=0), tau, dout,
            ((params.item_collab.take(r, axis=0)[:, None], dq), (feats, dfold)),
        )[0][:, 0]
        return dproj, dout, dq, dfold

    parts = _run_blocks(block, len(rows), m * max(h, f))
    totals = [grads["visual_proj"]]
    if attention:
        dfold = np.zeros((h, f))
        totals += [grads["attn_out"], grads["attn_hidden"][:, :k], dfold]
    for part in parts:  # in block order
        for total, p in zip(totals, part):
            total += p
    if not attention:
        return 0.0
    grads["attn_hidden"][:, k:] += dfold @ params.attn_reduce.T
    grads["attn_reduce"] += params.attn_hidden[:, k:].T @ dfold
    return dh_query @ params.attn_hidden[:, :k]


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment accumulators for the active tensors.

    ``m`` and ``v`` map each active tensor's name to its moments.  The
    moments of the active tensors outside ``EMBEDDINGS``, named in ``dense``
    in that order, are reshaped views of the flat vectors ``flat_m`` and
    ``flat_v``, so that one pass of Adam's operations updates them all.
    """

    m: dict
    v: dict
    dense: tuple
    flat_m: np.ndarray
    flat_v: np.ndarray
    step: int = 0


def init_adam_state(params: ModelParams, cfg: ModelConfig) -> AdamState:
    """Zero moments for the active tensors, laid out as ``AdamState`` says."""
    tensors = params.tensors()
    active = active_param_names(cfg)
    dense = tuple(n for n in active if n not in EMBEDDINGS)
    size = sum(tensors[n].size for n in dense)
    state = AdamState(m={}, v={}, dense=dense, flat_m=np.zeros(size), flat_v=np.zeros(size))
    lo = 0
    for name in active:
        t = tensors[name]
        if name in EMBEDDINGS:
            state.m[name], state.v[name] = np.zeros_like(t), np.zeros_like(t)
        else:
            state.m[name] = state.flat_m[lo: lo + t.size].reshape(t.shape)
            state.v[name] = state.flat_v[lo: lo + t.size].reshape(t.shape)
            lo += t.size
    return state


def _adam_update(m, v, grad, t: int, lr: float) -> np.ndarray:
    """Advance the moments ``m`` and ``v`` by ``grad`` in place; return step t's update."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    square = (1.0 - ADAM_BETA2) * grad
    square *= grad
    v += square
    # square's buffer, added to v already
    denom = np.divide(v, 1.0 - ADAM_BETA2 ** t, out=square)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    update = m / (1.0 - ADAM_BETA1 ** t)
    update /= denom
    update *= lr
    return update


def adam_step(
    params: ModelParams, grads: dict, state: AdamState, tcfg: TrainConfig
) -> None:
    """One bias-corrected Adam update, in place, of the tensors in ``grads``.

    The tensors of ``state.dense`` are updated as one flat vector: their
    gradients are concatenated once, one pass of Adam's operations runs
    over ``state.flat_m`` and ``state.flat_v``, and each tensor subtracts
    its slice of the update.  The operations are elementwise and in the
    same order, so the bits are those of a per-tensor update.  ``grads``
    holds all of those tensors or none (``batch_gradients`` gives all),
    else ValueError.

    Every other gradient is applied on its own.  A dense gradient updates
    its whole tensor and both moments.  A (rows, values) gradient, as
    ``batch_gradients`` gives for ``EMBEDDINGS``, updates only those rows
    (which must not repeat) of the tensor and of both moments, through one
    gather (``take``) and one scatter each; every other row keeps its bits.
    From a fresh state this equals the dense update bit for bit, since at
    step one a dense update leaves a zero-gradient row in place.
    """
    state.step += 1
    t, lr = state.step, tcfg.lr
    tensors = params.tensors()
    given = [name for name in state.dense if name in grads]
    if given:
        if len(given) != len(state.dense):
            raise ValueError(f"adam_step takes gradients for all of {state.dense} or none, "
                             f"got {given}")
        grad = np.concatenate([grads[name].ravel() for name in state.dense])
        update = _adam_update(state.flat_m, state.flat_v, grad, t, lr)
        lo = 0
        for name in state.dense:
            param = tensors[name]
            param -= update[lo: lo + param.size].reshape(param.shape)
            lo += param.size
    for name, grad in grads.items():
        if name in state.dense:
            continue
        if not isinstance(grad, tuple):
            tensors[name] -= _adam_update(state.m[name], state.v[name], grad, t, lr)
            continue
        rows, grad = grad  # gathered rows are copies: update them, then scatter them back
        m, v, param = (a.take(rows, axis=0) for a in (state.m[name], state.v[name], tensors[name]))
        param -= _adam_update(m, v, grad, t, lr)
        state.m[name][rows], state.v[name][rows], tensors[name][rows] = m, v, param


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
        with atomic_writer(path) as fh:
            fh.write(self.to_tsv())


# every batch's loss and gradients and every validation score are checked for
# non-finite values, so numpy's overflow warnings would only repeat that check
@np.errstate(over="ignore", invalid="ignore")
def fit(
    split: SplitDataset,
    cfg: ModelConfig,
    tcfg: TrainConfig,
    params: ModelParams = None,
):
    """Train a model on a split; returns (params, TrainLog).

    Parameters default to a fresh initialisation from cfg.seed.  Each epoch
    resamples negatives.  Each batch takes one ``batch_gradients`` and one
    row-sparse ``adam_step``, so the embedding rows a batch does not touch
    stay as they are.  A non-finite batch loss or gradient (of an embedding,
    its touched rows are read) raises NonFiniteError before the update,
    naming the epoch, batch and first such tensor, and so does a non-finite
    validation score.  One test per batch, whether the loss plus every
    gradient's sum of squares is finite, looks for such a value; only when
    it fails are the tensors scanned, in the order ``batch_gradients`` gives
    them (the active order), for the first bad one.  Then validation hit rate at
    ``valid_k`` (fixed candidate sets across epochs) drives early stopping:
    after ``patience`` epochs without improvement training stops and the
    best epoch's snapshot is returned.
    """
    base = split.base
    if params is None:
        params = init_params(cfg, base)
    state = init_adam_state(params, cfg)
    root = np.random.SeedSequence(tcfg.seed)
    sample_seq, valid_seq = root.spawn(2)
    sample_rng = np.random.default_rng(sample_seq)
    valid_seed = int(valid_seq.generate_state(1)[0])
    can_validate = len(split.pairs("validation")) > 0

    log = TrainLog()
    best_params = None
    best_hr = -np.inf
    for epoch in range(1, tcfg.epochs + 1):
        started = time.perf_counter()
        triples = sample_epoch(split, tcfg.neg_ratio, sample_rng)
        loss_total = 0.0
        for batch, lo in enumerate(range(0, len(triples), tcfg.batch_size), start=1):
            chunk = triples[lo: lo + tcfg.batch_size]
            loss, grads = batch_gradients(
                params, cfg, base, chunk, reduction=tcfg.loss_reduction
            )
            values = [g[1] if isinstance(g, tuple) else g for g in grads.values()]
            # finite when every value is; a sum of squares that overflows only costs the scan
            if not math.isfinite(loss + sum([np.vdot(v, v) for v in values])):
                bad = next((n for n, v in zip(grads, values) if not np.isfinite(v).all()), None)
                if bad is not None or not np.isfinite(loss):
                    raise NonFiniteError(
                        f"training diverged at epoch {epoch}, batch {batch}: loss {loss!r}, "
                        f"first non-finite gradient {bad}"
                    )
            adam_step(params, grads, state, tcfg)
            loss_total += loss * (len(chunk) if tcfg.loss_reduction == "mean" else 1.0)
        denom = len(triples) if tcfg.loss_reduction == "mean" else 1.0
        train_loss = loss_total / denom

        valid_hr = float("nan")
        valid_ndcg = float("nan")
        if can_validate:
            try:
                report = evaluate_item_rec(
                    params, cfg, split,
                    k_list=(tcfg.valid_k,),
                    n_negatives=tcfg.valid_negatives,
                    repeats=1,
                    seed=valid_seed,
                    split_name="validation",
                )
            except NonFiniteError as exc:
                raise NonFiniteError(f"training diverged at epoch {epoch}: {exc}") from None
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
            elif epoch - log.best_epoch >= tcfg.patience:
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
    The analytic side is each gradient scattered to dense (``dense_gradient``),
    so an embedding row the batch does not touch compares 0 with 0.
    Large tensors are subsampled to ``max_coords`` coordinates.  Relative
    error uses max(1e-8, |analytic| + |numeric|) as the denominator.  Raises
    NonFiniteError if either side of a compared coordinate is not finite.
    """
    if not (math.isfinite(h) and h > 0):
        raise ConfigError(f"step size h must be finite and > 0, got {h}")
    if max_coords < 1:
        raise ConfigError(f"max_coords must be >= 1, got {max_coords}")
    check_seed(seed)
    batch = np.asarray(batch, dtype=np.int64)
    _, grads = batch_gradients(params, cfg, dataset, batch, reduction=reduction)
    rng = np.random.default_rng(seed)

    def objective() -> float:
        return batch_loss(params, cfg, dataset, batch, reduction=reduction)

    per_param = {}
    checked = 0
    for name in active_param_names(cfg):
        param = getattr(params, name)
        flat = param.reshape(-1)
        gflat = dense_gradient(param, grads[name]).reshape(-1)
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
            if not (math.isfinite(numeric) and math.isfinite(analytic)):
                raise NonFiniteError(
                    f"gradient check: {name}[{c}] has analytic {analytic}, numeric {numeric}"
                )
            denom = max(1e-8, abs(analytic) + abs(numeric))
            worst = max(worst, abs(analytic - numeric) / denom)
        per_param[name] = worst
        checked += len(coords)
    return GradCheckReport(
        per_param=per_param,
        max_rel_err=max(per_param.values()),
        checked_coords=checked,
    )


def gradcheck_instance(
    seed: int = 0,
    visual_mode: str = VISUAL_ATT,
    fusion_mode: str = FUSION_ATT,
    lambda1: float = 0.001,
):
    """A small random model/dataset/batch for gradient verification.

    5 users, 8 items with uneven frame counts (20 frames total), feature
    dimension 6, factor dimensions 4.  Returns (params, cfg, dataset, batch).
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    m, n, l, fd = 5, 8, 20, 6
    counts = rng.multinomial(l - n, np.full(n, 1.0 / n)) + 1  # every item >= 1
    picks = [rng.choice(n, size=rng.integers(2, n - 1), replace=False) for _ in range(m)]
    dataset = Dataset(
        ratings=[(u, i) for u, items in enumerate(picks) for i in items],
        frame_parent=np.repeat(np.arange(n, dtype=np.int64), counts),
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
        reduced_visual_dim=3,
        visual_mode=visual_mode,
        fusion_mode=fusion_mode,
        lambda1=lambda1,
        init_scale=0.3,
        seed=seed,
    )
    params = init_params(cfg, dataset)
    triples = []
    for u, rated in enumerate(dataset.items_of_user):
        unrated = np.setdiff1d(np.arange(n), rated)
        triples += [(u, rng.choice(rated), rng.choice(unrated)) for _ in range(3)]
    batch = np.array(triples, dtype=np.int64)
    return params, cfg, dataset, batch
