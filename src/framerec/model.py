"""Model parameters and forward scoring.

Two latent spaces are learned from item-level implicit feedback alone: a
collaborative space (free user/item factors) and a visual space (user visual
factors plus projected frame features).  An item's visual embedding is either
the mean of its projected frame features or an attention-weighted sum, and
the two per-pair preference channels are combined either by plain addition or
by a learned two-way attention.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import math
import os
import threading
import zipfile
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import Dataset, atomic_writer
from .errors import (ConfigError, IntegrityError, MissingFramesError, UnsupportedTaskError,
                     check_integers, check_reals, check_seed)

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
        check_integers(self, ("d1", "d2", "attn_hidden_visual", "attn_hidden_rating",
                              "reduced_visual_dim", "seed"))
        check_reals(self, ("lambda1", "init_scale"))
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


# The floats one block may hold, 512 KiB, so that it stays in one core's L2
# while the products that read it run; _run_blocks sizes every block by it.
CACHE_BLOCK = 1 << 16


def _cpus() -> int:
    """The CPUs this process may run on: its affinity set, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pin_blas() -> bool:
    """Pin numpy's bundled OpenBLAS to one thread; True if it now runs one.

    The blocks of a call run on one thread per CPU (``_run_blocks``), so a
    BLAS that ran threads of its own would compete with them for the same
    CPUs, and its products would round by its thread count.  numpy's wheel
    bundles its OpenBLAS under ``numpy.libs``, with the thread setter and
    getter exported under build-specific names, looked up here.  Without
    that library or those symbols (another BLAS, another build) BLAS keeps
    its own threads, as the environment sets them, and the call returns
    False.  The setting is the process's: it holds for every caller of
    numpy's BLAS, and in a forked child.
    """
    libs = os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas64_*")
    for path in sorted(glob.glob(libs)):
        try:
            lib = ctypes.CDLL(path)  # the library numpy loaded, not a second copy
            set_threads = lib.scipy_openblas_set_num_threads64_
            get_threads = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads(1)
        return get_threads() == 1
    return False


# Pinned at import, not at the first parallel call, so that every product,
# in a single block or in many, rounds alike from the first call on.
_blas_pinned = _pin_blas()


_workers = None  # this process's block threads, made by its first parallel call
_workers_lock = threading.Lock()
_in_worker = threading.local()


def _forget_workers():
    """Drop the parent's pool in a forked child, which has none of its threads."""
    global _workers, _workers_lock
    _workers, _workers_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # no fork, and so no hook, on Windows
    os.register_at_fork(after_in_child=_forget_workers)


def _mark_worker():
    _in_worker.flag = True


def _run_blocks(run, size, row, per_cpu=False):
    """``[run(b) for b in blocks]``, the blocks being ``slice(lo, lo + step)`` for lo in
    ``range(0, size, step)``, spread over the CPUs.

    The one place that sizes blocks.  ``row`` is the number of floats one row
    of the caller's block holds, and a block holds ``step = CACHE_BLOCK //
    row`` rows (at least one, and ``CACHE_BLOCK`` when ``row`` is 0), so
    that it stays in its core's L2 while the products that read it run.
    With ``per_cpu``, and more than one row, a block also holds at most
    ``ceil(size / CPUs)`` rows, so that a call with enough rows has a block
    for each CPU.  Since the blocks of a call run on up to one thread per
    CPU, the memory in flight is one block per thread, and the budget is per
    core, not shared.  The callers, with their rows a block at M (3,000
    items, m = 8 frames, F = 64, d2 = 32, both hidden sizes h = 32, 101
    candidates a user; timings on one core of a 2-vCPU host):

    - ``item_visual_table``, ``m * h``: 256 items.  A block's (items, m, h)
      hidden layer stays in L2 while its ReLU and its logits read it, and
      its logits are one 2-D product: numpy computes a 3-D hidden layer
      times ``attn_out`` as one small product per item, 276 us for the
      table against about 95 us in 256-item blocks.  At S the whole table
      is one block.
    - ``score_catalog`` against C candidates, ``C * attn_hidden_rating``: 20
      users, whose (users, C, h) gathered fusion half fits; gathering a
      user's rows took about 1.5 us in 81-user blocks and under 1 us in
      20-user ones.
    - ``score_catalog`` against every item, ``N`` with ``per_cpu``: 21
      users (100 of S's 200 on two CPUs).  A block forms the fusion logits
      one hidden unit at a time in (users, N) planes, so a plane, not h,
      sizes it.  The CPU term was measured on one and two CPUs only: on
      many more it makes the planes small again (S's 200 users on 64 CPUs
      would run 4 a block), and whether those still pay is unmeasured.
    - ``score_frames``, ``m * d2``: 256 pairs, whose (pairs, m, d2) gathered
      frame rows fit.
    - ``_table_backward``, ``m * max(h, F)``: 128 items (one block at S).
    - ``sample_epoch``, ``neg_ratio`` for its lookups (training pairs, and
      their triples) and 1 for its fills (``CACHE_BLOCK`` triples).

    The blocks are split into contiguous parts, one per CPU (``_cpus``): the
    calling thread runs the first part, and a pool of ``cpus - 1`` threads,
    made by the process's first parallel call, runs the others.  Each part
    runs its blocks in order and stops at the first that raises.  Only after
    every part has finished, so that no thread still writes into the call's
    arrays, does the call return the results in block order, or raise the
    first failing block's exception.  A block is a whole computation of its
    own rows, so its bits do not depend on the thread that runs it or on
    the number of parts.  A sum across blocks is left to the caller, which
    adds the blocks' partial results in block order on its own thread, so
    that sum's bits do not depend on them either.  Runs serially on one
    CPU, for a single block (without reading the CPU count, which costs a
    system call), and inside a pool thread (a ``run`` that itself runs
    blocks), which would otherwise wait on the pool it occupies.
    """
    global _workers
    step = max(1, CACHE_BLOCK // max(row, 1))  # an empty row, as of no candidates, takes no room
    if per_cpu and size > 1:  # a single row cannot split, so needs no CPU count
        step = min(step, -(-size // _cpus()))
    blocks = [slice(lo, lo + step) for lo in range(0, size, step)]
    cpus = 1 if len(blocks) < 2 or getattr(_in_worker, "flag", False) else _cpus()
    parts = min(cpus, len(blocks))
    if parts < 2:
        return [run(b) for b in blocks]
    with _workers_lock:
        if _workers is None:
            _workers = ThreadPoolExecutor(cpus - 1, thread_name_prefix="framerec-blocks",
                                          initializer=_mark_worker)
        pool = _workers
    cuts = [len(blocks) * p // parts for p in range(parts + 1)]
    part = lambda p: [run(b) for b in blocks[cuts[p]: cuts[p + 1]]]
    futures = [pool.submit(part, p) for p in range(1, parts)]
    try:
        first = part(0)
    finally:
        wait(futures)
    return first + [result for f in futures for result in f.result()]


@dataclass
class VisualTable:
    """Per-item visual embeddings plus the intermediates backprop needs.

    ``x`` is (N, d2) and ``alpha`` (N, m) the weights that pool each item's
    frames (``dataset.frame_table`` order), zero at padding: 1 / count in
    mean mode, the attention softmax in attention mode.  ``pooled`` is the
    (N, F) alpha-pooled raw frame features (in mean mode each item's exact
    mean frame), and ``x`` is ``pooled @ visual_proj.T``; the backward reads
    ``visual_proj``'s gradient from ``pooled``.  In attention mode
    ``hidden_relu`` is the (N, m, h) hidden layer of the attention network,
    after its ReLU, filled a block of items at a time (``_run_blocks``), so
    that a block stays in its core's cache between its products.
    """

    x: np.ndarray
    alpha: np.ndarray
    pooled: np.ndarray
    hidden_relu: np.ndarray = None


def _linear(a, weight, out=None):
    """``a @ weight.T`` over the last axis, as one 2-D product at any rank of ``a``.

    Writes into ``out``, a C-contiguous array of the result's shape, if given.
    """
    if out is None:
        out = np.empty((*a.shape[:-1], weight.shape[0]))
    np.matmul(a.reshape(-1, a.shape[-1]), weight.T, out=out.reshape(-1, weight.shape[0]))
    return out


def _attention_mlp(query, key, w_query, w_key, out, hidden=None):
    """(hidden layer after the ReLU, logits) of the one-hidden-layer ReLU attention network.

    The first layer is the two weight halves ``w_query`` and ``w_key``,
    applied to the query and the key apart, before they broadcast against
    each other.  Serves the frame attention and the fusion.  The key half
    has the hidden layer's full shape (the (B, m) frame keys take (B, 1)
    queries, and ``score_pairs`` hands over keys and queries of one shape),
    so the query half is added, and the ReLU applied, in the key half's own
    buffer: ``hidden`` if given (a C-contiguous array of that shape, which
    ``item_visual_table`` passes one block of its table at a time), a new
    array otherwise.  The logits are one 2-D product over the flattened
    leading axes, not one small product per leading index.
    """
    relu = _linear(key, w_key, out=hidden)
    relu += _linear(query, w_query)
    np.maximum(relu, 0.0, out=relu)
    return relu, (relu.reshape(-1, relu.shape[-1]) @ out).reshape(relu.shape[:-1])


def _attention_mlp_backward(out, relu, dlogits, gout, halves):
    """Backward of ``_attention_mlp`` for the logit gradients ``dlogits``.

    ``relu`` is the hidden layer after its ReLU, as ``_attention_mlp``
    returns it.  ``halves`` holds one (input, weight gradient) pair per
    first-layer half; each input has the rank of ``relu``.  Adds the weight
    gradients into ``gout`` and each half's gradient array in place, and
    returns the pre-activation gradient once per half, summed over the axes
    along which that half was broadcast (the frame axis, for the frame
    attention's (R, 1, d1) queries).  The sum is an ``np.einsum``, which
    adds in the same order as ``ndarray.sum`` and so gives its bits, in
    under half its time at M (55 against 130 us for a (768, 8, 32)
    layer).  A half's input gradient is its pre-activation gradient times
    its weight half; callers form only the ones they need.  The
    pre-activation gradient is formed in ``relu``'s own buffer, which so
    ends up overwritten: callers pass a hidden layer they no longer need.
    """
    h = relu.shape[-1]
    gout += relu.reshape(-1, h).T @ dlogits.reshape(-1)
    dh = np.multiply(out, relu > 0, out=relu)
    dh *= dlogits[..., None]
    dh_halves = []
    for x, gweight in halves:
        axes = [a for a, n in enumerate(x.shape[:-1]) if n < dh.shape[a]]
        dh_half = dh if not axes else np.einsum(
            dh, range(dh.ndim), [a for a in range(dh.ndim) if a not in axes]
        ).reshape(x.shape[:-1] + (h,))
        gweight += dh_half.reshape(-1, h).T @ x.reshape(-1, x.shape[-1])
        dh_halves.append(dh_half)
    return tuple(dh_halves)


def _frame_max(a):
    """Each row's max of an (N, m) array, as a running ``np.maximum`` over its m columns.

    It has ``a.max(axis=1)``'s bits, a NaN included, but with few columns
    runs in about a tenth of its time: at M, 14 against 135 us for the
    (3000, 8) frame logits (one core of a 2-vCPU host), since numpy reduces
    each short row on its own.
    """
    top = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(top, a[:, j], out=top)
    return top


def _pool(alpha, feats):
    """(N, F) sums of each item's (N, m, F) frame features weighted by (N, m) ``alpha``."""
    return (alpha[:, None, :] @ feats)[:, 0]


def item_visual_table(params: ModelParams, cfg: ModelConfig, dataset: Dataset):
    """Compute visual embeddings for every item at once.

    Returns None when the visual pathway is off.  Items without frames get a
    zero row; scoring such an item raises at the call site.  Both modes pool
    each item's raw frame features into ``pooled`` and project it once, ``x =
    pooled @ visual_proj.T``, one product over the whole table: at M's
    shape (3,000 items, F=64, d2=32; OpenBLAS 0.3.31, one thread) row blocks
    of 64, 128, 256 or 512 items gave its bytes, but blocks of 1 to 39 items
    and most sizes up to 63 did not.  Mean mode
    pools each item's exact mean frame: a masked sum over the frame slots,
    then one division.  Attention mode multiplies each frame's features by
    one weight only: the attention's key half folded with the key
    reduction, ``attn_hidden[:, d1:] @ attn_reduce`` (h, F), formed once
    here.  Both read the frames as ``dataset.padded_features``, which the
    dataset holds, so a call copies no frame features.  Attention mode
    builds its table in blocks of items, ``m * h`` floats an item, spread
    over the CPUs (``_run_blocks``): per block, the key product, the
    query half, the ReLU and the logits, one 2-D product, then the masked
    softmax and the pooling, while the block is in its core's cache.  Every
    step of a block is a per-item computation, so the threads move no bit.
    """
    if cfg.visual_mode == VISUAL_OFF:
        return None
    _, mask, counts = dataset.frame_table
    feats = dataset.padded_features  # (N, m, F), padding holds a real frame
    if cfg.visual_mode == VISUAL_AVG:
        count = np.maximum(counts, 1).astype(feats.dtype)[:, None]
        alpha, hidden_relu = mask / count, None
        pooled = feats.sum(axis=1, where=mask[:, :, None]) / count
    else:
        w_query = params.attn_hidden[:, :cfg.d1]
        w_key = params.attn_hidden[:, cfg.d1:] @ params.attn_reduce
        (n, m, f), h = feats.shape, len(w_key)
        hidden_relu, alpha, pooled = np.empty((n, m, h)), np.zeros((n, m)), np.empty((n, f))
        neg_inf = np.finfo(alpha.dtype).min

        def block(b):
            _, logits = _attention_mlp(params.item_collab[b, None, :], feats[b], w_query, w_key,
                                       params.attn_out, hidden=hidden_relu[b])
            shifted = np.where(mask[b], logits, neg_inf)
            shifted -= _frame_max(shifted)[:, None]
            expd = np.where(mask[b], np.exp(shifted), 0.0)
            denom = expd.sum(axis=1, keepdims=True)
            # divide wherever the item has frames, so a NaN logit reaches the scores
            np.divide(expd, denom, out=alpha[b], where=counts[b, None] > 0)
            pooled[b] = _pool(alpha[b], feats[b])

        _run_blocks(block, n, m * h)
    return VisualTable(x=pooled @ params.visual_proj.T, alpha=alpha, pooled=pooled,
                       hidden_relu=hidden_relu)


@dataclass
class PairCache:
    """Per-pair intermediates for one vectorised scoring call.

    ``user_collab``, ``item_collab``, ``user_visual`` and ``item_visual``
    are the rows the call gathered for its pairs, so that the backward pass
    reads them without gathering them again.
    """

    collab: np.ndarray
    user_collab: np.ndarray
    item_collab: np.ndarray
    visual: np.ndarray = None
    user_visual: np.ndarray = None
    item_visual: np.ndarray = None
    h1_relu: np.ndarray = None
    h2_relu: np.ndarray = None
    beta1: np.ndarray = None
    beta2: np.ndarray = None


def _two_way_softmax(g1: np.ndarray, g2: np.ndarray):
    """(beta1, beta2), the two-way softmax of the fusion logits ``g1`` and ``g2``,
    formed in their buffers, which it overwrites: each caller passes logits
    it no longer needs, so a call allocates only the running max.  The
    operations and so the bits are those of ``exp(g - max)`` over the sum.
    """
    top = np.maximum(g1, g2)
    e1 = np.exp(np.subtract(g1, top, out=g1), out=g1)
    e2 = np.exp(np.subtract(g2, top, out=g2), out=g2)
    beta1 = np.divide(e1, np.add(e1, e2, out=top), out=e1)
    return beta1, np.subtract(1.0, beta1, out=e2)


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
    (U, C) item block scores each user's row of candidates.  Ids of
    different shapes are broadcast to one shape up front, so every gathered
    row array has the scores' shape plus one axis.  Rows are gathered with
    ``take``, which copies the same values as fancy indexing in about a
    third of the time.  ``table`` may be passed to reuse a precomputed
    visual table; otherwise it is built on the fly.  With want_cache=True
    also returns the PairCache consumed by the training backward pass.
    """
    users = _checked_ids(users, dataset.num_users, "user")
    items = _checked_ids(items, dataset.num_items, "item")
    if users.shape != items.shape:
        users, items = np.broadcast_arrays(users, items)
    user_collab = params.user_collab.take(users, axis=0)
    item_collab = params.item_collab.take(items, axis=0)
    collab = np.einsum("...d,...d->...", user_collab, item_collab)
    cache = PairCache(collab=collab, user_collab=user_collab, item_collab=item_collab)
    if cfg.visual_mode == VISUAL_OFF:
        return (collab, cache) if want_cache else collab

    if table is None:
        table = item_visual_table(params, cfg, dataset)
    counts = dataset.frame_table[2][items]
    if counts.size and counts.min() == 0:
        raise MissingFramesError(f"item {items.flat[np.argmin(counts)]} has no frames")
    user_visual, item_visual = params.user_visual.take(users, axis=0), table.x.take(items, axis=0)
    visual = np.einsum("...d,...d->...", user_visual, item_visual)
    cache.visual, cache.user_visual, cache.item_visual = visual, user_visual, item_visual

    if cfg.fusion_mode == FUSION_SUM:
        scores = collab + visual
        return (scores, cache) if want_cache else scores

    k = cfg.d1
    mlp = (params.fusion_hidden[:, :k], params.fusion_hidden[:, k:], params.fusion_out)
    cache.h1_relu, g1 = _attention_mlp(user_collab, item_collab, *mlp)
    cache.h2_relu, g2 = _attention_mlp(user_visual, item_visual, *mlp)
    cache.beta1, cache.beta2 = _two_way_softmax(g1, g2)
    scores = cache.beta1 * collab + cache.beta2 * visual
    return (scores, cache) if want_cache else scores


def score_catalog(users, params: ModelParams, cfg: ModelConfig, dataset: Dataset,
                  table: VisualTable = None, keep=None, items=None):
    """Score each of ``users`` against every item, a block of users at a time.

    Returns the (len(users), N) scores, which equal ``score_pairs`` of
    ``users[:, None]`` against every item up to rounding.  With ``items``, a
    (len(users), C) candidate matrix, scores each user against its own row
    of candidates instead, as ``score_pairs(users[:, None], items)`` does up
    to rounding, and returns (len(users), C) scores.  Each fusion half is
    formed once per call, the user half of each user from its own row and
    the item half for all items, and every score is a per-row computation
    with a fixed summation order: neither the blocks nor the other users in
    the call change a bit of a user's scores.  Against every item, the
    item-side arrays are transposed once to item-major form and a block
    works on (rows, N) planes, forming each fusion logit one hidden unit at
    a time; a block of candidates gathers the item rows it needs.
    ``_run_blocks`` sizes the blocks and spreads them over the CPUs: a user
    is ``N`` floats against every item, with a block for each CPU when
    there are enough users, and ``C * attn_hidden_rating`` against
    candidates.  With
    ``keep``, returns ``keep(block, rows)`` stacked over the blocks instead,
    ``rows`` being the slice of ``users`` the block scores, so that only
    what it keeps of each block is held.  ``keep`` runs on several threads
    at once, each block on one of them and in no fixed order across
    threads, so it must not write to state another block reads or writes.
    If it raises, the call raises the first failing block's exception once
    every thread is done.  Raises as ``score_pairs`` does: an
    IntegrityError for a user or candidate id out of range, and, in a visual
    model, a MissingFramesError for the first item without frames, or with
    ``items`` the first such candidate in row-major order.
    """
    users = _checked_ids(users, dataset.num_users, "user")
    if items is not None:
        items = _checked_ids(items, dataset.num_items, "item")
        if items.ndim != 2 or len(items) != len(users):
            raise ValueError(f"items must be ({len(users)}, C), got {items.shape}")
    channels = [(params.user_collab[users], params.item_collab)]
    if cfg.visual_mode != VISUAL_OFF:
        if table is None:
            table = item_visual_table(params, cfg, dataset)
        counts = dataset.frame_table[2] if items is None else dataset.frame_table[2][items]
        if counts.size and counts.min() == 0:
            first = np.argmin(counts)
            raise MissingFramesError(
                f"item {first if items is None else items.flat[first]} has no frames")
        channels.append((params.user_visual[users], table.x))
    halves = None
    if len(channels) == 2 and cfg.fusion_mode == FUSION_ATT:
        # an einsum, not a product over all the call's users, keeps each user's half its own
        w_user, w_item = params.fusion_hidden[:, :cfg.d1].T, params.fusion_hidden[:, cfg.d1:].T
        halves = [(np.einsum("ud,dh->uh", u, w_user), i @ w_item) for u, i in channels]
    if items is None:
        row, per_cpu = dataset.num_items, True
        dots, logits = _every_item_blocks(channels, halves, params.fusion_out)
    else:
        row, per_cpu = items.shape[1] * cfg.attn_hidden_rating, False
        dots, logits = _candidate_blocks(items, channels, halves, params.fusion_out)

    def score(b):
        collab, *visual = dots(b)
        if not visual:
            return collab
        if halves is None:
            return collab + visual[0]
        beta1, beta2 = _two_way_softmax(*logits(b))
        # beta1 * collab + beta2 * visual, in the block's own dot arrays
        collab *= beta1
        visual[0] *= beta2
        collab += visual[0]
        return collab

    run = score if keep is None else lambda b: keep(score(b), b)
    # one empty block when there are no users
    return np.concatenate(_run_blocks(run, max(len(users), 1), row, per_cpu))


def _every_item_blocks(channels, halves, fusion_out):
    """``score_catalog``'s per-block (channel dots, fusion logits) against every item.

    Each is a function of a block's slice of users.  The item-side arrays
    are transposed once to item-major form, (d, N) and (h, N), so that a
    block works on (rows, N) planes: the channel dots are
    ``einsum("rd,dn->rn")``, and each fusion logit plane is the sum over the
    hidden units k, in order, of ``fusion_out[k] * relu(user_half[:, k] +
    item_half[k])``, formed one unit at a time in planes the block allocates.
    """
    item_major = lambda pairs: [(u, np.ascontiguousarray(i.T)) for u, i in pairs]
    channels = item_major(channels)
    dots = lambda b: [np.einsum("rd,dn->rn", u[b], i) for u, i in channels]
    if halves is None:
        return dots, None
    halves = item_major(halves)

    def logits(b):
        shape = (len(halves[0][0][b]), halves[0][1].shape[1])  # (rows, N)
        unit, planes = np.empty(shape), [np.zeros(shape) for _ in halves]
        for (u, i), logit in zip(halves, planes):
            for k in range(len(fusion_out)):
                np.add(u[b, k, None], i[k], out=unit)
                np.maximum(unit, 0.0, out=unit)
                unit *= fusion_out[k]
                logit += unit
        return planes
    return dots, logits


def _candidate_blocks(items, channels, halves, fusion_out):
    """``score_catalog``'s per-block (channel dots, fusion logits) against candidates.

    Each is a function of a block's slice of users; a block gathers the item
    rows its candidates ``items[b]`` name.
    """
    dots = lambda b: [(np.take(i, items[b], axis=0) @ u[b, :, None])[..., 0]  # stacked matvecs
                      for u, i in channels]

    def logits(b):
        out = []
        for u, i in halves:
            # the gathered rows are the block's own, so the sum overwrites them
            gathered = np.take(i, items[b], axis=0)
            h = np.add(u[b, None, :], gathered, out=gathered)
            out.append(np.maximum(h, 0.0, out=h) @ fusion_out)
        return out
    return dots, logits


def score_frames(users, items, params: ModelParams, cfg: ModelConfig, dataset: Dataset,
                 keep=None):
    """Visual-only scores of each (user, item) pair's frames, (len(users), m).

    Row r holds ``users[r]``'s scores of ``items[r]``'s frames in
    ``dataset.frame_table`` order (ascending frame id), ``-inf`` in the
    item's padding slots.  Projects the frame table once, then scores the
    pairs in blocks, ``m * d2`` floats a pair, spread over the CPUs
    (``_run_blocks``): each block gathers only its own user rows and (pairs,
    m, d2) projected frame rows, which stay in its core's L2 while the dots
    read them.  A score is a per-pair dot, so neither the blocks nor the
    threads change a bit.  With ``keep``, returns ``keep(block, rows)``
    stacked over the blocks instead, as ``score_catalog`` does: ``rows`` is
    the slice of the pairs the block scores, no pairs give one empty block,
    ``keep`` runs on several threads at once, and if it raises, the call
    raises the first failing block's exception once every thread is done.
    """
    if cfg.visual_mode == VISUAL_OFF:
        raise UnsupportedTaskError(
            "frame scoring needs the visual pathway; visual_mode is off"
        )
    users = _checked_ids(users, dataset.num_users, "user")
    items = _checked_ids(items, dataset.num_items, "item")
    if users.ndim != 1 or users.shape != items.shape:
        raise ValueError(f"users and items must be two 1-D arrays of one length, "
                         f"got {users.shape} and {items.shape}")
    ids, mask, _ = dataset.frame_table
    projected = dataset.frame_features @ params.visual_proj.T

    def score(b):
        rows = np.einsum("pd,pmd->pm", params.user_visual.take(users[b], axis=0),
                         np.take(projected, ids[items[b]], axis=0))
        return np.where(mask[items[b]], rows, -np.inf)

    run = score if keep is None else lambda b: keep(score(b), b)
    return np.concatenate(_run_blocks(run, max(len(users), 1), ids.shape[1] * cfg.d2))


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

    with open(path, "rb") as fh:  # np.load reads this handle, so every path closes it
        magic = fh.read(4)
        if magic[:1] == b"{":
            raise broken(f"a JSON checkpoint (v3 or older), which {CHECKPOINT_FORMAT} "
                         "cannot read: retrain the model")
        try:
            if magic != b"PK\x03\x04":
                raise ValueError("no zip header")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as z:
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
