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
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import Dataset
from .errors import ConfigError, IntegrityError, MissingFramesError, UnsupportedTaskError

VISUAL_OFF = "off"
VISUAL_AVG = "avg"
VISUAL_ATT = "att"
FUSION_SUM = "sum"
FUSION_ATT = "att"

CHECKPOINT_FORMAT = "framerec-checkpoint-v1"

_DTYPES = {"f32": np.float32, "f64": np.float64}


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions, mode switches and initialisation settings.

    d1 is the collaborative dimension, d2 the visual dimension.  When
    ``fusion_mode`` is "att" the same fusion network scores both channel
    inputs, which forces d1 == d2.  ``share_visual_projection`` reuses the
    visual value projection as the attention key reduction (requires
    reduced_visual_dim == d2).
    """

    d1: int = 32
    d2: int = 32
    attn_hidden_visual: int = 32
    attn_hidden_rating: int = 32
    reduced_visual_dim: int = 32
    visual_mode: str = VISUAL_ATT
    fusion_mode: str = FUSION_ATT
    activation: str = "relu"
    lambda1: float = 0.001
    init_scale: float = 0.1
    seed: int = 0
    share_visual_projection: bool = False
    attention_bias: bool = False
    precision: str = "f64"

    def __post_init__(self):
        if self.d1 < 1:
            raise ConfigError(f"d1 must be >= 1, got {self.d1}")
        if self.visual_mode not in (VISUAL_OFF, VISUAL_AVG, VISUAL_ATT):
            raise ConfigError(f"unknown visual_mode {self.visual_mode!r}")
        if self.fusion_mode not in (FUSION_SUM, FUSION_ATT):
            raise ConfigError(f"unknown fusion_mode {self.fusion_mode!r}")
        if self.activation != "relu":
            raise ConfigError(f"unsupported activation {self.activation!r}")
        if self.precision not in _DTYPES:
            raise ConfigError(f"precision must be one of {sorted(_DTYPES)}")
        if self.visual_mode != VISUAL_OFF and self.d2 < 1:
            raise ConfigError(f"d2 must be >= 1 with visual_mode={self.visual_mode}")
        if self.fusion_mode == FUSION_ATT and self.d1 != self.d2:
            raise ConfigError(
                "fusion attention applies one shared network to both channels, "
                f"which requires d1 == d2 (got {self.d1} != {self.d2})"
            )
        if self.share_visual_projection and self.reduced_visual_dim != self.d2:
            raise ConfigError(
                "share_visual_projection requires reduced_visual_dim == d2"
            )
        if self.lambda1 < 0:
            raise ConfigError("lambda1 must be >= 0")

    @property
    def dtype(self):
        return _DTYPES[self.precision]


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
    attn_hidden_bias: np.ndarray    # (h_c,)
    fusion_hidden_bias: np.ndarray  # (h_r,)

    def names(self) -> tuple:
        return tuple(f.name for f in fields(self))

    def tensors(self) -> dict:
        return {name: getattr(self, name) for name in self.names()}

    def copy(self) -> "ModelParams":
        return ModelParams(**{k: v.copy() for k, v in self.tensors().items()})

    @property
    def dtype(self):
        return self.user_collab.dtype


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
        "attn_hidden_bias": (cfg.attn_hidden_visual,),
        "fusion_hidden_bias": (cfg.attn_hidden_rating,),
    }


def active_param_names(cfg: ModelConfig) -> tuple:
    """Names of the tensors that are trainable under the config's modes."""
    names = ["user_collab", "item_collab"]
    if cfg.visual_mode != VISUAL_OFF:
        names += ["user_visual", "visual_proj"]
        if cfg.visual_mode == VISUAL_ATT:
            if not cfg.share_visual_projection:
                names.append("attn_reduce")
            names += ["attn_hidden", "attn_out"]
            if cfg.attention_bias:
                names.append("attn_hidden_bias")
        if cfg.fusion_mode == FUSION_ATT:
            names += ["fusion_hidden", "fusion_out"]
            if cfg.attention_bias:
                names.append("fusion_hidden_bias")
    return tuple(names)


def init_params(cfg: ModelConfig, dataset: Dataset) -> ModelParams:
    """Sample fresh parameters, N(0, init_scale), deterministic in cfg.seed.

    Every tensor is drawn in a fixed order regardless of the mode switches,
    so configs differing only in modes share identical arrays.  Bias vectors
    start at zero.
    """
    rng = np.random.default_rng(cfg.seed)
    shapes = param_shapes(cfg, dataset.num_users, dataset.num_items, dataset.feature_dim)
    tensors = {}
    for name, shape in shapes.items():
        if name.endswith("_bias"):
            tensors[name] = np.zeros(shape, dtype=cfg.dtype)
        else:
            tensors[name] = rng.normal(0.0, cfg.init_scale, size=shape).astype(
                cfg.dtype, copy=False
            ) if cfg.init_scale > 0 else np.zeros(shape, dtype=cfg.dtype)
    return ModelParams(**tensors)


# ---------------------------------------------------------------------------
# Vectorised forward tables
# ---------------------------------------------------------------------------


@dataclass
class VisualTable:
    """Per-item visual embeddings plus the intermediates backprop needs.

    ``x`` is (N, d2).  In attention mode ``alpha`` holds the per-item frame
    weights (zero at padding), ``z`` the (N, m, d1 + d0) attention MLP input
    (item factor beside each frame's reduced key) and ``hidden_pre`` its
    pre-activation.
    """

    x: np.ndarray
    frame_emb: np.ndarray
    ids: np.ndarray
    mask: np.ndarray
    counts: np.ndarray
    alpha: np.ndarray = None
    z: np.ndarray = None
    hidden_pre: np.ndarray = None


def _attention_mlp(z, hidden, out, bias):
    """(pre-activation, logits) of the one-hidden-layer ReLU attention network.

    Serves the frame attention and the fusion; ``bias`` may be None.
    """
    hidden_pre = z @ hidden.T
    if bias is not None:
        hidden_pre = hidden_pre + bias
    return hidden_pre, np.maximum(hidden_pre, 0.0) @ out


def item_visual_table(params: ModelParams, cfg: ModelConfig, dataset: Dataset):
    """Compute visual embeddings for every item at once.

    Returns None when the visual pathway is off.  Items without frames get a
    zero row; scoring such an item raises at the call site.
    """
    if cfg.visual_mode == VISUAL_OFF:
        return None
    ids, mask, counts = dataset.frame_table
    frame_emb = dataset.frame_features @ params.visual_proj.T  # (L, d2)
    gathered = frame_emb[ids] * mask[:, :, None]  # (N, m, d2)
    if cfg.visual_mode == VISUAL_AVG:
        safe = np.maximum(counts, 1).astype(frame_emb.dtype)
        x = gathered.sum(axis=1) / safe[:, None]
        return VisualTable(x=x, frame_emb=frame_emb, ids=ids, mask=mask, counts=counts)

    key_matrix = params.visual_proj if cfg.share_visual_projection else params.attn_reduce
    keys = dataset.frame_features @ key_matrix.T  # (L, d0)
    n, m = ids.shape
    z = np.concatenate(
        [
            np.broadcast_to(params.item_collab[:, None, :], (n, m, cfg.d1)),
            keys[ids],
        ],
        axis=2,
    )
    hidden_pre, logits = _attention_mlp(
        z, params.attn_hidden, params.attn_out,
        params.attn_hidden_bias if cfg.attention_bias else None,
    )  # logits (N, m)
    neg_inf = np.finfo(logits.dtype).min
    shifted = np.where(mask, logits, neg_inf)
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    expd = np.where(mask, np.exp(shifted), 0.0)
    denom = expd.sum(axis=1, keepdims=True)
    alpha = np.divide(expd, denom, out=np.zeros_like(expd), where=denom > 0)
    x = (alpha[:, :, None] * gathered).sum(axis=1)
    return VisualTable(
        x=x, frame_emb=frame_emb, ids=ids, mask=mask, counts=counts,
        alpha=alpha, z=z, hidden_pre=hidden_pre,
    )


@dataclass
class PairCache:
    """Per-pair intermediates for one vectorised scoring call."""

    users: np.ndarray
    items: np.ndarray
    collab: np.ndarray
    visual: np.ndarray = None
    z1: np.ndarray = None
    z2: np.ndarray = None
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

    ``table`` may be passed to reuse a precomputed visual table; otherwise it
    is built on the fly.  With want_cache=True also returns the PairCache
    consumed by the training backward pass.
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    collab = np.einsum("bd,bd->b", params.user_collab[users], params.item_collab[items])
    if cfg.visual_mode == VISUAL_OFF:
        cache = PairCache(users=users, items=items, collab=collab)
        return (collab, cache) if want_cache else collab

    if table is None:
        table = item_visual_table(params, cfg, dataset)
    if items.size and table.counts[items].min() == 0:
        bad = int(items[np.argmin(table.counts[items])])
        raise MissingFramesError(f"item {bad} has no frames")
    visual = np.einsum("bd,bd->b", params.user_visual[users], table.x[items])

    if cfg.fusion_mode == FUSION_SUM:
        scores = collab + visual
        cache = PairCache(users=users, items=items, collab=collab, visual=visual)
        return (scores, cache) if want_cache else scores

    z1 = np.concatenate([params.user_collab[users], params.item_collab[items]], axis=1)
    z2 = np.concatenate([params.user_visual[users], table.x[items]], axis=1)
    bias = params.fusion_hidden_bias if cfg.attention_bias else None
    h1_pre, g1 = _attention_mlp(z1, params.fusion_hidden, params.fusion_out, bias)
    h2_pre, g2 = _attention_mlp(z2, params.fusion_hidden, params.fusion_out, bias)
    beta1, beta2 = _two_way_softmax(g1, g2)
    scores = beta1 * collab + beta2 * visual
    cache = PairCache(
        users=users, items=items, collab=collab, visual=visual,
        z1=z1, z2=z2, h1_pre=h1_pre, h2_pre=h2_pre, beta1=beta1, beta2=beta2,
    )
    return (scores, cache) if want_cache else scores


def score_frames(users, frames, params: ModelParams, cfg: ModelConfig, dataset: Dataset):
    """Visual-only frame scores for (user, frame) pairs in bulk."""
    if cfg.visual_mode == VISUAL_OFF:
        raise UnsupportedTaskError(
            "frame scoring needs the visual pathway; visual_mode is off"
        )
    users = np.asarray(users, dtype=np.int64)
    frames = np.asarray(frames, dtype=np.int64)
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
    """Write config + parameters as a self-describing JSON text document.

    Values are serialised with full repr precision so that a load reproduces
    every score bit-for-bit.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(cfg),
        "dataset_digest": digest,
        "params": {
            name: {
                "shape": list(tensor.shape),
                "data": [float(x) for x in tensor.ravel()],
            }
            for name, tensor in params.tensors().items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path):
    """Read a checkpoint; returns (params, config, dataset_digest)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise IntegrityError(f"{path}: not a {CHECKPOINT_FORMAT} document")
    cfg = ModelConfig(**doc["config"])
    tensors = {}
    for name, entry in doc["params"].items():
        arr = np.array(entry["data"], dtype=cfg.dtype).reshape(entry["shape"])
        tensors[name] = arr
    params = ModelParams(**tensors)
    return params, cfg, doc["dataset_digest"]
