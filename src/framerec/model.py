"""Model parameters and forward scoring.

Two latent spaces are learned from item-level implicit feedback alone: a
collaborative space (free user/item factors) and a visual space (user visual
factors plus projected frame features).  An item's visual embedding is either
the mean of its projected frame features or an attention-weighted sum, and
the two per-pair preference channels are combined either by plain addition or
by a learned two-way attention.
"""

from __future__ import annotations

import hashlib
import json
import math
import zipfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import Dataset, atomic_writer
from .errors import (ConfigError, IntegrityError, MissingFramesError, UnsupportedTaskError,
                     check_seed)

VISUAL_OFF = "off"
VISUAL_AVG = "avg"
VISUAL_ATT = "att"
FUSION_SUM = "sum"
FUSION_ATT = "att"
VISUAL_MODES = (VISUAL_OFF, VISUAL_AVG, VISUAL_ATT)
FUSION_MODES = (FUSION_SUM, FUSION_ATT)

CHECKPOINT_FORMAT = "framerec-checkpoint-v4"


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions, mode switches and initialisation settings.

    d1 is the collaborative dimension, d2 the visual dimension.  When
    ``fusion_mode`` is "att" the same fusion network scores both channel
    inputs, which forces d1 == d2.  Frame attention keys are the frame
    features reduced by their own projection to ``reduced_visual_dim``.
    """

    d1: int = 32
    d2: int = 32
    attn_hidden_visual: int = 32
    attn_hidden_rating: int = 32
    reduced_visual_dim: int = 32
    visual_mode: str = VISUAL_ATT
    fusion_mode: str = FUSION_ATT
    lambda1: float = 0.001
    init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("d1", "d2", "attn_hidden_visual", "attn_hidden_rating",
                     "reduced_visual_dim", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # a numpy integer becomes an int
        check_seed(self.seed)
        if min(self.d1, self.attn_hidden_visual, self.attn_hidden_rating,
               self.reduced_visual_dim) < 1:
            raise ConfigError("d1, hidden sizes and reduced_visual_dim must be >= 1")
        if self.visual_mode not in VISUAL_MODES:
            raise ConfigError(f"unknown visual_mode {self.visual_mode!r}")
        if self.fusion_mode not in FUSION_MODES:
            raise ConfigError(f"unknown fusion_mode {self.fusion_mode!r}")
        if self.visual_mode != VISUAL_OFF and self.d2 < 1:
            raise ConfigError(f"d2 must be >= 1 with visual_mode={self.visual_mode}")
        if self.fusion_mode == FUSION_ATT and self.d1 != self.d2:
            raise ConfigError(
                "fusion attention applies one shared network to both channels, "
                f"which requires d1 == d2 (got {self.d1} != {self.d2})"
            )
        if not all(math.isfinite(v) and v >= 0 for v in (self.lambda1, self.init_scale)):
            raise ConfigError("lambda1 and init_scale must be finite and >= 0")


@dataclass
class ModelParams:
    """All trainable tensors, row-major with one row per entity.

    Tensors for pathways disabled by the config are still allocated (so the
    same seed yields the same arrays across mode switches) but stay frozen.
    """

    user_collab: np.ndarray      # (M, d1)
    item_collab: np.ndarray      # (N, d1)
    user_visual: np.ndarray      # (M, d2)
    visual_proj: np.ndarray      # (d2, F)   frame feature -> visual space
    attn_reduce: np.ndarray      # (d0, F)   frame feature -> attention key
    attn_hidden: np.ndarray      # (h_c, d1 + d0)
    attn_out: np.ndarray         # (h_c,)
    fusion_hidden: np.ndarray    # (h_r, 2 * d1)
    fusion_out: np.ndarray       # (h_r,)

    def names(self) -> tuple:
        return tuple(f.name for f in fields(self))

    def tensors(self) -> dict:
        return {name: getattr(self, name) for name in self.names()}

    def copy(self) -> "ModelParams":
        return ModelParams(**{k: v.copy() for k, v in self.tensors().items()})


def param_shapes(cfg: ModelConfig, num_users: int, num_items: int, feature_dim: int) -> dict:
    """Tensor shapes implied by a config and a dataset's sizes."""
    return {
        "user_collab": (num_users, cfg.d1),
        "item_collab": (num_items, cfg.d1),
        "user_visual": (num_users, cfg.d2),
        "visual_proj": (cfg.d2, feature_dim),
        "attn_reduce": (cfg.reduced_visual_dim, feature_dim),
        "attn_hidden": (cfg.attn_hidden_visual, cfg.d1 + cfg.reduced_visual_dim),
        "attn_out": (cfg.attn_hidden_visual,),
        "fusion_hidden": (cfg.attn_hidden_rating, 2 * cfg.d1),
        "fusion_out": (cfg.attn_hidden_rating,),
    }


def active_param_names(cfg: ModelConfig) -> tuple:
    """Names of the tensors that are trainable under the config's modes."""
    names = ["user_collab", "item_collab"]
    if cfg.visual_mode != VISUAL_OFF:
        names += ["user_visual", "visual_proj"]
        if cfg.visual_mode == VISUAL_ATT:
            names += ["attn_reduce", "attn_hidden", "attn_out"]
        if cfg.fusion_mode == FUSION_ATT:
            names += ["fusion_hidden", "fusion_out"]
    return tuple(names)


def init_params(cfg: ModelConfig, dataset: Dataset) -> ModelParams:
    """Sample fresh parameters, N(0, init_scale), deterministic in cfg.seed.

    Every tensor is drawn in a fixed order regardless of the mode switches,
    so configs differing only in modes share identical arrays.
    """
    rng = np.random.default_rng(cfg.seed)
    shapes = param_shapes(cfg, dataset.num_users, dataset.num_items, dataset.feature_dim)
    return ModelParams(**{
        name: rng.normal(0.0, cfg.init_scale, size=shape) for name, shape in shapes.items()
    })


# ---------------------------------------------------------------------------
# Vectorised forward tables
# ---------------------------------------------------------------------------


@dataclass
class VisualTable:
    """Per-item visual embeddings plus the intermediates backprop needs.

    ``x`` is (N, d2) and ``alpha`` (N, m) the weights that pool each item's
    frames (``dataset.frame_table`` order), zero at padding: 1 / count in
    mean mode, the attention softmax in attention mode.  ``x`` is the
    alpha-pooled raw frame features times ``visual_proj.T`` (in mean mode up
    to rounding: there ``x`` is the exact mean of the projected frames).  In
    attention mode ``hidden_pre`` is the (N, m, h) pre-activation of the
    attention network.
    """

    x: np.ndarray
    alpha: np.ndarray
    hidden_pre: np.ndarray = None


def _linear(a, weight):
    """``a @ weight.T`` over the last axis, as one 2-D product at any rank of ``a``."""
    return (a.reshape(-1, a.shape[-1]) @ weight.T).reshape(*a.shape[:-1], weight.shape[0])


def _attention_mlp(query, key, w_query, w_key, out):
    """(pre-activation, logits) of the one-hidden-layer ReLU attention network.

    The first layer is the two weight halves ``w_query`` and ``w_key``,
    applied to the query and the key apart, before they broadcast against
    each other.  Serves the frame attention and the fusion.
    """
    hidden_pre = _linear(query, w_query) + _linear(key, w_key)
    return hidden_pre, np.maximum(hidden_pre, 0.0) @ out


def _attention_mlp_backward(out, hidden_pre, dlogits, gout, halves):
    """Backward of ``_attention_mlp`` for the logit gradients ``dlogits``.

    ``halves`` holds one (input, weight gradient) pair per first-layer half;
    each input has the rank of ``hidden_pre``.  Adds the weight gradients
    into ``gout`` and each half's gradient array in place, and returns the
    pre-activation gradient once per half, summed over the axes along which
    that half was broadcast.  A half's input gradient is its pre-activation
    gradient times its weight half; callers form only the ones they need.
    """
    h = hidden_pre.shape[-1]
    gout += np.maximum(hidden_pre, 0.0).reshape(-1, h).T @ dlogits.reshape(-1)
    dh = dlogits[..., None] * (out * (hidden_pre > 0))
    dh_halves = []
    for x, gweight in halves:
        axes = tuple(a for a, n in enumerate(x.shape[:-1]) if n < dh.shape[a])
        dh_half = dh.sum(axis=axes, keepdims=True) if axes else dh
        gweight += dh_half.reshape(-1, h).T @ x.reshape(-1, x.shape[-1])
        dh_halves.append(dh_half)
    return tuple(dh_halves)


def _pool(alpha, feats):
    """(N, F) sums of each item's (N, m, F) frame features weighted by (N, m) ``alpha``."""
    return (alpha[:, None, :] @ feats)[:, 0]


def item_visual_table(params: ModelParams, cfg: ModelConfig, dataset: Dataset):
    """Compute visual embeddings for every item at once.

    Returns None when the visual pathway is off.  Items without frames get a
    zero row; scoring such an item raises at the call site.  Mean mode
    averages the projected frames.  Attention mode pools the raw frame
    features before it projects them, so it multiplies each frame's features
    by one weight only: the attention's key half folded with the key
    reduction, ``attn_hidden[:, d1:] @ attn_reduce`` (h, F), formed once here.
    """
    if cfg.visual_mode == VISUAL_OFF:
        return None
    ids, mask, counts = dataset.frame_table
    if cfg.visual_mode == VISUAL_AVG:
        safe = np.maximum(counts, 1).astype(dataset.frame_features.dtype)
        frame_emb = dataset.frame_features @ params.visual_proj.T  # (L, d2)
        # the exact sum / count, not the pooled projection, which rounds apart
        x = (frame_emb[ids] * mask[:, :, None]).sum(axis=1) / safe[:, None]
        return VisualTable(x=x, alpha=mask / safe[:, None])

    feats = dataset.frame_features[ids]  # (N, m, F), padding holds a real frame
    hidden_pre, logits = _attention_mlp(  # (N, m, h), (N, m)
        params.item_collab[:, None, :], feats, params.attn_hidden[:, :cfg.d1],
        params.attn_hidden[:, cfg.d1:] @ params.attn_reduce, params.attn_out,
    )
    neg_inf = np.finfo(logits.dtype).min
    shifted = np.where(mask, logits, neg_inf)
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    expd = np.where(mask, np.exp(shifted), 0.0)
    denom = expd.sum(axis=1, keepdims=True)
    # divide wherever the item has frames, so a NaN logit reaches the scores
    alpha = np.divide(expd, denom, out=np.zeros_like(expd), where=counts[:, None] > 0)
    return VisualTable(x=_pool(alpha, feats) @ params.visual_proj.T, alpha=alpha,
                       hidden_pre=hidden_pre)


@dataclass
class PairCache:
    """Per-pair intermediates for one vectorised scoring call."""

    collab: np.ndarray
    visual: np.ndarray = None
    h1_pre: np.ndarray = None
    h2_pre: np.ndarray = None
    beta1: np.ndarray = None
    beta2: np.ndarray = None


def _two_way_softmax(g1: np.ndarray, g2: np.ndarray):
    top = np.maximum(g1, g2)
    e1 = np.exp(g1 - top)
    e2 = np.exp(g2 - top)
    beta1 = e1 / (e1 + e2)
    return beta1, 1.0 - beta1


def _checked_ids(ids, size: int, kind: str) -> np.ndarray:
    """ids as int64, or IntegrityError naming the first one outside 0..size-1.

    Negative ids would otherwise wrap around silently in the gathers.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        bad = int(ids[(ids < 0) | (ids >= size)][0])
        raise IntegrityError(f"{kind} id {bad} is outside 0..{size - 1}")
    return ids


def score_pairs(
    users,
    items,
    params: ModelParams,
    cfg: ModelConfig,
    dataset: Dataset,
    table: VisualTable = None,
    want_cache: bool = False,
):
    """Score (user, item) pairs in bulk.

    ``users`` and ``items`` are id arrays that broadcast together; the
    scores have their broadcast shape, so ``users[:, None]`` against a
    (U, C) item block scores each user's row of candidates.  ``table`` may
    be passed to reuse a precomputed visual table; otherwise it is built on
    the fly.  With want_cache=True also returns the PairCache consumed by
    the training backward pass.
    """
    users = _checked_ids(users, dataset.num_users, "user")
    items = _checked_ids(items, dataset.num_items, "item")
    user_collab, item_collab = params.user_collab[users], params.item_collab[items]
    collab = np.einsum("...d,...d->...", user_collab, item_collab)
    if cfg.visual_mode == VISUAL_OFF:
        cache = PairCache(collab=collab)
        return (collab, cache) if want_cache else collab

    if table is None:
        table = item_visual_table(params, cfg, dataset)
    counts = dataset.frame_table[2][items]
    if counts.size and counts.min() == 0:
        raise MissingFramesError(f"item {items.flat[np.argmin(counts)]} has no frames")
    user_visual, item_visual = params.user_visual[users], table.x[items]
    visual = np.einsum("...d,...d->...", user_visual, item_visual)

    if cfg.fusion_mode == FUSION_SUM:
        scores = collab + visual
        cache = PairCache(collab=collab, visual=visual)
        return (scores, cache) if want_cache else scores

    k = cfg.d1
    mlp = (params.fusion_hidden[:, :k], params.fusion_hidden[:, k:], params.fusion_out)
    h1_pre, g1 = _attention_mlp(user_collab, item_collab, *mlp)
    h2_pre, g2 = _attention_mlp(user_visual, item_visual, *mlp)
    beta1, beta2 = _two_way_softmax(g1, g2)
    scores = beta1 * collab + beta2 * visual
    cache = PairCache(collab=collab, visual=visual, h1_pre=h1_pre, h2_pre=h2_pre,
                      beta1=beta1, beta2=beta2)
    return (scores, cache) if want_cache else scores


# score_catalog scores CATALOG_BLOCK // (N * attn_hidden_rating) users at a
# time (at least one), so the (rows, N, h) fusion hidden intermediate holds
# at most this many elements and stays in cache.  Scores do not depend on it.
CATALOG_BLOCK = 1 << 18


def score_catalog(users, params: ModelParams, cfg: ModelConfig, dataset: Dataset,
                  table: VisualTable = None, keep=None):
    """Score each of ``users`` against every item, a block of users at a time.

    Returns the (len(users), N) scores, which equal ``score_pairs`` of
    ``users[:, None]`` against every item up to rounding.  Each fusion half
    is formed once per call, the user half for all ``users`` and the item
    half for all items, so the blocks change no bit.  With ``keep``, returns
    ``keep(block)`` stacked over the blocks instead, so that only what it
    keeps of each block is held.  Raises as ``score_pairs`` does: an
    IntegrityError for a user id out of range, and, in a visual model, a
    MissingFramesError for the first item without frames.
    """
    users = _checked_ids(users, dataset.num_users, "user")
    n = dataset.num_items
    user_collab, item_collab = params.user_collab[users], params.item_collab
    if cfg.visual_mode != VISUAL_OFF:
        if table is None:
            table = item_visual_table(params, cfg, dataset)
        counts = dataset.frame_table[2]
        if counts.size and counts.min() == 0:
            raise MissingFramesError(f"item {np.argmin(counts)} has no frames")
        user_visual, item_visual = params.user_visual[users], table.x
    fused = cfg.visual_mode != VISUAL_OFF and cfg.fusion_mode == FUSION_ATT
    if fused:
        w_user, w_item = params.fusion_hidden[:, :cfg.d1].T, params.fusion_hidden[:, cfg.d1:].T
        halves = ((user_collab @ w_user, item_collab @ w_item),
                  (user_visual @ w_user, item_visual @ w_item))
    rows = max(1, CATALOG_BLOCK // (n * cfg.attn_hidden_rating))
    blocks = []
    for lo in range(0, max(len(users), 1), rows):  # one empty block when there are no users
        b = slice(lo, lo + rows)
        scores = np.einsum("...d,...d->...", user_collab[b, None, :], item_collab[None])
        if cfg.visual_mode != VISUAL_OFF:
            visual = np.einsum("...d,...d->...", user_visual[b, None, :], item_visual[None])
            if fused:
                hidden = [u[b, None, :] + i[None] for u, i in halves]
                g1, g2 = (np.maximum(h, 0.0, out=h) @ params.fusion_out for h in hidden)
                beta1, beta2 = _two_way_softmax(g1, g2)
                scores = beta1 * scores + beta2 * visual
            else:
                scores = scores + visual
        blocks.append(scores if keep is None else keep(scores))
    return np.concatenate(blocks)


def score_frames(users, frames, params: ModelParams, cfg: ModelConfig, dataset: Dataset):
    """Visual-only frame scores for (user, frame) pairs in bulk."""
    if cfg.visual_mode == VISUAL_OFF:
        raise UnsupportedTaskError(
            "frame scoring needs the visual pathway; visual_mode is off"
        )
    users = _checked_ids(users, dataset.num_users, "user")
    frames = _checked_ids(frames, dataset.num_frames, "frame")
    frame_emb = dataset.frame_features[frames] @ params.visual_proj.T
    return np.einsum("bd,bd->b", params.user_visual[users], frame_emb)


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def dataset_digest(dataset: Dataset) -> str:
    """Stable hex digest of the dataset's id mappings and dimensions."""
    h = hashlib.sha256()
    h.update(
        f"{dataset.num_users},{dataset.num_items},{dataset.num_frames},"
        f"{dataset.feature_dim}\n".encode()
    )
    for tokens in (dataset.user_ids, dataset.item_ids, dataset.frame_ids):
        for t in tokens:
            h.update(t.encode())
            h.update(b"\x00")
        h.update(b"\x01")
    return h.hexdigest()


def save_checkpoint(path, params: ModelParams, cfg: ModelConfig, digest: str) -> None:
    """Write config + parameters as one uncompressed ``.npz`` archive at exactly ``path``.

    The archive holds one float64 ``.npy`` member per tensor, which a load
    reproduces bit-for-bit, and a 0-d unicode member ``meta``: the JSON text
    of the format, the config and the dataset digest.  Handed an open file,
    ``np.savez`` adds no ``.npz`` suffix; it stamps every member 1980-01-01,
    so the same inputs give the same bytes.
    """
    meta = {"format": CHECKPOINT_FORMAT, "config": asdict(cfg), "dataset_digest": digest}
    with atomic_writer(path, binary=True) as fh:
        np.savez(fh, meta=np.array(json.dumps(meta, sort_keys=True)), **params.tensors())


def load_checkpoint(path):
    """Read a checkpoint; returns (params, config, dataset_digest).

    Raises IntegrityError, in one line naming ``path``, unless the file is a
    zip archive of pickle-free ``.npy`` members: ``meta``, naming this format
    and exactly this version's config keys, and exactly the tensors, each
    float64 with the shape the config implies for the sizes read from
    ``user_collab``, ``item_collab`` and ``visual_proj``, and finite.  A
    JSON checkpoint (v3 or older) is told apart by its first byte.
    """
    def broken(why):
        return IntegrityError(f"{path}: {why}")

    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic[:1] == b"{":
        raise broken(f"a JSON checkpoint (v3 or older), which {CHECKPOINT_FORMAT} "
                     "cannot read: retrain the model")
    try:
        if magic != b"PK\x03\x04":
            raise ValueError("no zip header")
        with np.load(path, allow_pickle=False) as z:
            data = {name: z[name] for name in z.files}
        meta = np.asarray(data.pop("meta", None))
        doc = json.loads(str(meta)) if meta.dtype.kind == "U" and meta.ndim == 0 else None
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise broken(f"not a readable .npz archive: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise broken(f"not a {CHECKPOINT_FORMAT} archive")
    config = doc.get("config")
    for what, got, cls in (("config", config, ModelConfig), ("tensors", data, ModelParams)):
        if not isinstance(got, dict):
            raise broken(f"{what} is not a JSON object")
        want = {f.name for f in fields(cls)}
        unknown, missing = sorted(set(got) - want), sorted(want - set(got))
        if unknown or missing:
            raise broken(f"{what}: unknown keys {unknown}, missing keys {missing}")
    for name, tensor in data.items():
        if np.asarray(tensor).dtype != np.float64:
            raise broken(f"tensor {name} is not a float64 array")
    try:
        cfg = ModelConfig(**config)
        expected = param_shapes(cfg, len(data["user_collab"]), len(data["item_collab"]),
                                data["visual_proj"].shape[-1])
    except (ConfigError, IndexError, TypeError) as exc:
        raise broken(f"bad config or tensor entry: {exc!r}") from None
    for name, shape in expected.items():
        if data[name].shape != shape:
            raise broken(f"tensor {name} has shape {list(data[name].shape)}, not {list(shape)}")
        if not np.isfinite(data[name]).all():
            raise broken(f"tensor {name} holds non-finite values")
    return ModelParams(**data), cfg, doc.get("dataset_digest")
