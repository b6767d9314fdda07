"""Skill-selection controller: context MLP, match logits, ordered sampling.

The trunk is a two-layer tanh MLP over the 520-dim context (256 span text,
8 numeric, 256 pooled memory). Its normalized output is matched against
skill-description embeddings at temperature 0.1 to produce logits over the
active bank; a linear value head shares the trunk. Ordered K-subsets are
drawn by Gumbel perturbation and scored with the exact sequential
without-replacement log-probability. All gradients are hand-derived and
checked against finite differences in the tests.

The six parameters, and their gradients, are views into one contiguous
float64 vector in PARAM_KEYS order, so the optimizer and gradient clipping
each make one pass over it. Checkpoints keep one array per key.
"""

from __future__ import annotations

import itertools
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from . import embed

IN_DIM = 520
HIDDEN = 256
TAU = 0.1

CHECKPOINT_VERSION = 1

PARAM_KEYS = ("w1", "b1", "w2", "b2", "wv", "bv")
PARAM_SHAPES = {
    "w1": (IN_DIM, HIDDEN),
    "b1": (HIDDEN,),
    "w2": (HIDDEN, HIDDEN),
    "b2": (HIDDEN,),
    "wv": (HIDDEN,),
    "bv": (1,),
}
# offsets of each parameter in the flat vector, and its total length
_STARTS = tuple(
    itertools.accumulate((math.prod(PARAM_SHAPES[k]) for k in PARAM_KEYS), initial=0)
)
N_PARAMS = _STARTS[-1]


class NumericError(RuntimeError):
    """Non-finite quantity inside an update."""


def _tree(flat: np.ndarray) -> dict:
    """The six parameters as views into one owned flat float64 vector."""
    return {
        k: flat[_STARTS[i] : _STARTS[i + 1]].reshape(PARAM_SHAPES[k])
        for i, k in enumerate(PARAM_KEYS)
    }


def flat_view(tree: dict) -> np.ndarray:
    """The flat vector behind a parameter or gradient tree built by this module.

    Raises TypeError for any other dict, such as one of separate arrays.
    """
    flat = tree["w1"].base
    ok = (
        isinstance(flat, np.ndarray)
        and flat.shape == (N_PARAMS,)
        and flat.dtype == np.float64
    )
    if ok:
        start = flat.ctypes.data
        ok = all(
            tree[k].base is flat
            and tree[k].shape == PARAM_SHAPES[k]
            and tree[k].ctypes.data == start + 8 * _STARTS[i]
            for i, k in enumerate(PARAM_KEYS)
        )
    if not ok:
        raise TypeError("parameters are not views into one flat float64 vector")
    return flat


def init_params(rng: np.random.Generator) -> dict:
    params = _tree(np.zeros(N_PARAMS))
    for k, fan_in in (("w1", IN_DIM), ("w2", HIDDEN), ("wv", HIDDEN)):
        params[k][...] = rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=PARAM_SHAPES[k])
    return params


def save_checkpoint(path: str, params: dict, seed: int) -> None:
    np.savez(
        path,
        version=np.array([CHECKPOINT_VERSION]),
        seed=np.array([seed]),
        **{k: params[k] for k in PARAM_KEYS},
    )


def load_checkpoint(path: str) -> tuple[dict, int]:
    """The parameters and seed save_checkpoint wrote; any other file raises
    ValueError naming ``path``."""
    try:
        with np.load(path) as data:  # an .npy array has no context manager
            arrays = {k: data[k] for k in data.files}
    except (ValueError, TypeError, EOFError, zipfile.BadZipFile):
        raise ValueError(f"{path}: not an npz checkpoint") from None
    missing = [k for k in ("version", "seed", *PARAM_KEYS) if k not in arrays]
    if missing:
        raise ValueError(f"{path}: checkpoint lacks {', '.join(missing)}")
    if int(arrays["version"][0]) != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: checkpoint version {arrays['version'][0]} unsupported")
    params = _tree(np.empty(N_PARAMS))
    for k in PARAM_KEYS:
        if arrays[k].shape != PARAM_SHAPES[k]:
            raise ValueError(
                f"{path}: checkpoint {k} has shape {arrays[k].shape}, expected {PARAM_SHAPES[k]}"
            )
        params[k][...] = arrays[k]
    return params, int(arrays["seed"][0])


def pool_memory(span_emb: np.ndarray, entry_embs: list[np.ndarray]) -> np.ndarray:
    """Similarity-weighted softmax pooling of retrieved-entry embeddings."""
    if not entry_embs:
        return np.zeros(embed.TEXT_DIM)
    sims = np.array([embed.cosine(span_emb, e) for e in entry_embs])
    w = np.exp(sims - sims.max())
    w /= w.sum()
    pooled = np.zeros(embed.TEXT_DIM)
    for wi, e in zip(w, entry_embs):
        pooled += wi * e
    return pooled


def build_context(
    span_emb: np.ndarray, numeric: np.ndarray, entry_embs: list[np.ndarray]
) -> np.ndarray:
    return np.concatenate([span_emb, numeric, pool_memory(span_emb, entry_embs)])


def encode_context(params: dict, contexts: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Context rows of a batch of episodes and one forward pass over them.

    ``contexts[i]`` is (span_emb, numeric, entry_embs) for a live slot, or
    None for a finished one, whose row stays zero. The batch height is
    always ``len(contexts)``: a row's bits depend on the height of the
    matrix product, not on the other rows' values. Returns (x, h, v).
    """
    x = np.zeros((len(contexts), IN_DIM))
    for row, ctx in zip(x, contexts):
        if ctx is not None:
            row[...] = build_context(*ctx)
    fwd = forward_batch(params, x)
    return x, fwd["h"], fwd["v"]


def skill_logits(h: np.ndarray, u_matrix: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Match logits of match vectors h (..., 256) against skills u (S, 256)."""
    return (h @ u_matrix.T) / TAU + bias


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def sample_topk(z: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    """Ordered without-replacement sample: the top k of Gumbel-perturbed z."""
    u = np.clip(rng.random(z.shape[0]), 1e-300, 1.0 - 1e-16)
    return greedy_topk(z - np.log(-np.log(u)), k)


def greedy_topk(z: np.ndarray, k: int) -> list[int]:
    """The k largest entries of z in descending order, ties to the lower index."""
    n = z.shape[0]
    if k > n:
        raise ValueError(f"K={k} exceeds action count {n}")
    order = np.lexsort((np.arange(n), -z))
    return [int(i) for i in order[:k]]


def action_logprob(z: np.ndarray, action: list[int]) -> float:
    """Exact ordered without-replacement log-probability under softmax(z)."""
    p = softmax(z)
    lp = 0.0
    consumed = 0.0
    for a in action:
        denom = max(1.0 - consumed, 1e-300)
        lp += math.log(max(p[a], 1e-300)) - math.log(denom)
        consumed += p[a]
    return lp


def _ordered_logprob_rows(
    p: np.ndarray, actions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ordered without-replacement log-probability and its gradient
    in the logits, for probabilities p (B, S) and ordered picks (B, K)."""
    b, k = actions.shape
    rows = np.arange(b)[:, None]
    p_act = p[rows, actions]
    # s[:, j]: probability consumed by the picks before pick j
    s = np.zeros((b, k))
    for j in range(1, k):
        s[:, j] = s[:, j - 1] + p_act[:, j - 1]
    denom = np.maximum(1.0 - s, 1e-300)
    lp = (np.log(np.maximum(p_act, 1e-300)) - np.log(denom)).sum(axis=1)
    # d/dz_i of -sum_j log(1 - s_j) = sum_j t_j * d s_j/dz_i
    # with d p_a/dz_i = p_a (delta_ai - p_i); w[:, l] sums t_j over j > l
    t = 1.0 / denom
    w = np.zeros((b, k))
    for j in range(k - 2, -1, -1):
        w[:, j] = w[:, j + 1] + t[:, j + 1]
    grad = -k * p
    grad[rows, actions] += 1.0
    grad -= p * (t * s).sum(axis=1, keepdims=True)
    grad[rows, actions] += w * p_act
    return lp, grad


def logprob_grad_z(z: np.ndarray, action: list[int]) -> np.ndarray:
    """d action_logprob / dz (see tests for the FD check)."""
    _, grad = _ordered_logprob_rows(softmax(z)[None, :], np.array([action]))
    return grad[0]


def first_pick_entropy(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropy of softmax(z) along the last axis, and its gradient in z."""
    p = softmax(z)
    logp = np.log(np.maximum(p, 1e-300))
    h = -np.sum(p * logp, axis=-1)
    dh = -p * (logp + h[..., None])
    return h, dh


def forward_batch(params: dict, x: np.ndarray) -> dict:
    t1 = np.tanh(x @ params["w1"] + params["b1"])
    t2 = np.tanh(t1 @ params["w2"] + params["b2"])
    norms = np.sqrt(np.sum(t2 * t2, axis=1, keepdims=True))
    safe = np.where(norms > 0.0, norms, 1.0)
    h = t2 / safe
    v = t2 @ params["wv"] + params["bv"][0]
    return {"x": x, "t1": t1, "t2": t2, "norms": safe, "h": h, "v": v}


def zero_grads() -> dict:
    return _tree(np.zeros(N_PARAMS))


def backward_batch(
    params: dict, cache: dict, d_h: np.ndarray, d_v: np.ndarray, out: dict | None = None
) -> dict:
    """Backprop d loss/d params given gradients at h (rows) and v.

    The gradients are written straight into the views of one flat vector:
    those of ``out`` when given (a tree from zero_grads), else a new one.
    """
    t1, t2, norms, h = cache["t1"], cache["t2"], cache["norms"], cache["h"]
    # h = t2/||t2||: project out the radial component
    inner = np.sum(d_h * h, axis=1, keepdims=True)
    d_t2 = (d_h - h * inner) / norms
    d_t2 = d_t2 + d_v[:, None] * params["wv"][None, :]
    grads = _tree(np.empty(N_PARAMS)) if out is None else out
    np.matmul(t2.T, d_v, out=grads["wv"])
    grads["bv"][0] = d_v.sum()
    d_a2 = d_t2 * (1.0 - t2 * t2)
    np.matmul(t1.T, d_a2, out=grads["w2"])
    d_a2.sum(axis=0, out=grads["b2"])
    d_t1 = d_a2 @ params["w2"].T
    d_a1 = d_t1 * (1.0 - t1 * t1)
    np.matmul(cache["x"].T, d_a1, out=grads["w1"])
    d_a1.sum(axis=0, out=grads["b1"])
    return grads


@dataclass
class PPOBatch:
    """Minibatch of one inner epoch's transitions, which share one skill bank."""

    x: np.ndarray  # (B, 520)
    u_mat: np.ndarray  # skill embedding matrix (S, 256)
    bias: np.ndarray  # logit bias (S,)
    actions: np.ndarray  # ordered picks (B, K)
    logprob_old: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray


def ppo_loss_and_grads(
    params: dict,
    batch: PPOBatch,
    clip: float,
    value_coef: float,
    entropy_coef: float,
    out: dict | None = None,
) -> tuple[float, dict, dict]:
    """Clipped-surrogate loss, value loss and first-pick entropy bonus of one
    minibatch, with gradients as one flat tree (``out`` when given). Raises
    NumericError on non-finite advantages or loss."""
    if not np.isfinite(batch.advantages).all():
        raise NumericError("non-finite advantages in a PPO minibatch")
    b = batch.x.shape[0]
    cache = forward_batch(params, batch.x)
    h, v = cache["h"], cache["v"]
    u_mat = batch.u_mat

    z = skill_logits(h, u_mat, batch.bias)
    lp, g_lp = _ordered_logprob_rows(softmax(z), batch.actions)
    ent, d_ent = first_pick_entropy(z)
    ratios = np.exp(lp - batch.logprob_old)
    adv = batch.advantages
    m1 = ratios * adv
    m2 = np.maximum(np.minimum(ratios, 1.0 + clip), 1.0 - clip) * adv
    d_lp = np.where(m1 <= m2, -adv * ratios, 0.0)
    d_z = (d_lp / b)[:, None] * g_lp - (entropy_coef / b) * d_ent
    d_h = (d_z @ u_mat) / TAU

    err = v - batch.returns
    d_v = value_coef * 2.0 * err / b

    surr_total = float(-np.minimum(m1, m2).sum())
    v_total = float(np.dot(err, err))
    ent_total = float(ent.sum())
    loss = surr_total / b + value_coef * (v_total / b) - entropy_coef * (ent_total / b)
    if not math.isfinite(loss):
        raise NumericError(f"non-finite PPO loss {loss}")
    clipped = np.count_nonzero(~((1.0 - clip < ratios) & (ratios < 1.0 + clip)))
    stats = {
        "mean_ratio": float(ratios.mean()),
        "clip_fraction": clipped / b,
        "approx_kl": float((batch.logprob_old - lp).sum() / b),
        "entropy": ent_total / b,
        "value_loss": v_total / b,
    }
    grads = backward_batch(params, cache, d_h, d_v, out)
    return loss, grads, stats


def clip_grads_(flat: np.ndarray, max_norm: float) -> float:
    """Scale the flat gradient vector in place to an L2 norm of at most
    max_norm; returns the norm before scaling."""
    norm = math.sqrt(float(np.dot(flat, flat)))
    if norm > max_norm and norm > 0.0:
        flat *= max_norm / norm
    return norm
