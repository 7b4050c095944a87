"""The scalar forward path: an independent oracle for the bulk scoring code.

The package scores in bulk (``item_visual_table``, ``score_pairs``,
``score_frames``).  These functions score one instance at a time, straight
from the model's definition, sharing no code with the package beyond its
errors.  Tests compare the package's outputs against them.
"""

from __future__ import annotations

import numpy as np

from framerec.errors import ConfigError, MissingFramesError, UnsupportedTaskError


def _check_item(item_id: int, dataset) -> None:
    if not 0 <= item_id < dataset.num_items:
        raise IndexError(f"item id {item_id} out of range")


def _check_user(user_id: int, dataset) -> None:
    if not 0 <= user_id < dataset.num_users:
        raise IndexError(f"user id {user_id} out of range")


def _item_frames(item_id: int, dataset) -> np.ndarray:
    _check_item(item_id, dataset)
    frames = dataset.frames_of_item[item_id]
    if not frames:
        raise MissingFramesError(f"item {item_id} has no frames")
    return np.array(frames, dtype=np.int64)


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
