"""Skill-selection controller: context MLP, match logits, ordered sampling.

The trunk is a two-layer tanh MLP over the 520-dim context (256 span text,
8 numeric, 256 pooled memory). Its normalized output is matched against
skill-description embeddings at temperature 0.1 to produce logits over the
active bank; a linear value head shares the trunk. Ordered K-subsets are
drawn by Gumbel perturbation and scored with the exact sequential
without-replacement log-probability. All gradients are hand-derived and
checked against finite differences in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import embed

IN_DIM = 520
HIDDEN = 256
TAU = 0.1

CHECKPOINT_VERSION = 1

PARAM_KEYS = ("w1", "b1", "w2", "b2", "wv", "bv")


class NumericError(RuntimeError):
    """Non-finite quantity inside an update."""


def init_params(rng: np.random.Generator) -> dict:
    def layer(fan_in, shape):
        return rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=shape)

    return {
        "w1": layer(IN_DIM, (IN_DIM, HIDDEN)),
        "b1": np.zeros(HIDDEN),
        "w2": layer(HIDDEN, (HIDDEN, HIDDEN)),
        "b2": np.zeros(HIDDEN),
        "wv": layer(HIDDEN, (HIDDEN,)),
        "bv": np.zeros(1),
    }


def save_checkpoint(path: str, params: dict, seed: int) -> None:
    np.savez(
        path,
        version=np.array([CHECKPOINT_VERSION]),
        seed=np.array([seed]),
        **{k: params[k] for k in PARAM_KEYS},
    )


def load_checkpoint(path: str) -> tuple[dict, int]:
    data = np.load(path)
    if int(data["version"][0]) != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version {data['version'][0]} unsupported")
    params = {k: np.array(data[k]) for k in PARAM_KEYS}
    return params, int(data["seed"][0])


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


def forward_vec(params: dict, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Rollout-path forward: (match vector h, value)."""
    t1 = np.tanh(np.dot(x, params["w1"]) + params["b1"])
    t2 = np.tanh(np.dot(t1, params["w2"]) + params["b2"])
    v = float(np.dot(t2, params["wv"])) + float(params["bv"][0])
    norm = math.sqrt(float(np.dot(t2, t2)))
    h = t2 / norm if norm > 0.0 else np.zeros_like(t2)
    return h, v


def encode_context(
    params: dict,
    span_emb: np.ndarray,
    numeric: np.ndarray,
    entry_embs: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, float]:
    x = build_context(span_emb, numeric, entry_embs)
    h, v = forward_vec(params, x)
    return x, h, v


def skill_logits(h: np.ndarray, u_matrix: np.ndarray, bias: np.ndarray) -> np.ndarray:
    return (u_matrix @ h) / TAU + bias


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def sample_topk(z: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    """Ordered without-replacement sample via Gumbel perturbation."""
    n = z.shape[0]
    if k > n:
        raise ValueError(f"K={k} exceeds action count {n}")
    u = np.clip(rng.random(n), 1e-300, 1.0 - 1e-16)
    keys = z - np.log(-np.log(u))
    order = np.lexsort((np.arange(n), -keys))
    return [int(i) for i in order[:k]]


def greedy_topk(z: np.ndarray, k: int) -> list[int]:
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


def logprob_grad_z(z: np.ndarray, action: list[int]) -> np.ndarray:
    """d action_logprob / dz (see tests for the FD check)."""
    p = softmax(z)
    k = len(action)
    grad = -k * p
    for a in action:
        grad[a] += 1.0
    # denominators: for pick j, s_j = sum of p over earlier picks
    s = 0.0
    t_vals = []
    s_vals = []
    for j, a in enumerate(action):
        s_vals.append(s)
        t_vals.append(1.0 / max(1.0 - s, 1e-300))
        s += p[a]
    # d/dz_i of -sum_j log(1 - s_j) = sum_j T_j * d s_j/dz_i
    # with d p_a/dz_i = p_a (delta_ai - p_i)
    coef = sum(t * sv for t, sv in zip(t_vals, s_vals))
    grad -= p * coef
    for l, a in enumerate(action):
        w = sum(t_vals[j] for j in range(l + 1, k))
        grad[a] += w * p[a]
    return grad


def first_pick_entropy(z: np.ndarray) -> tuple[float, np.ndarray]:
    p = softmax(z)
    logp = np.log(np.maximum(p, 1e-300))
    h = -float(np.dot(p, logp))
    dh = -p * (logp + h)
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
    return {
        "w1": np.zeros((IN_DIM, HIDDEN)),
        "b1": np.zeros(HIDDEN),
        "w2": np.zeros((HIDDEN, HIDDEN)),
        "b2": np.zeros(HIDDEN),
        "wv": np.zeros(HIDDEN),
        "bv": np.zeros(1),
    }


def backward_batch(params: dict, cache: dict, d_h: np.ndarray, d_v: np.ndarray) -> dict:
    """Backprop d loss/d params given gradients at h (rows) and v."""
    t1, t2, norms, h = cache["t1"], cache["t2"], cache["norms"], cache["h"]
    # h = t2/||t2||: project out the radial component
    inner = np.sum(d_h * h, axis=1, keepdims=True)
    d_t2 = (d_h - h * inner) / norms
    d_t2 = d_t2 + d_v[:, None] * params["wv"][None, :]
    grads = {}
    grads["wv"] = t2.T @ d_v
    grads["bv"] = np.array([d_v.sum()])
    d_a2 = d_t2 * (1.0 - t2 * t2)
    grads["w2"] = t1.T @ d_a2
    grads["b2"] = d_a2.sum(axis=0)
    d_t1 = d_a2 @ params["w2"].T
    d_a1 = d_t1 * (1.0 - t1 * t1)
    grads["w1"] = cache["x"].T @ d_a1
    grads["b1"] = d_a1.sum(axis=0)
    return grads


@dataclass
class PPOBatch:
    """Minibatch view: arrays plus per-sample logits context."""

    x: np.ndarray  # (B, 520)
    u_mats: list  # per-sample skill embedding matrix (S_i, 256)
    biases: list  # per-sample bias vector (S_i,)
    actions: list  # per-sample ordered index lists
    logprob_old: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray


def ppo_loss_and_grads(
    params: dict,
    batch: PPOBatch,
    clip: float,
    value_coef: float,
    entropy_coef: float,
) -> tuple[float, dict | None, dict]:
    b = batch.x.shape[0]
    cache = forward_batch(params, batch.x)
    h, v = cache["h"], cache["v"]

    d_h = np.zeros_like(h)
    d_v = np.zeros(b)
    surr_total = 0.0
    v_total = 0.0
    ent_total = 0.0
    ratios = np.empty(b)
    clipped = 0
    kl_total = 0.0

    for i in range(b):
        u_mat = batch.u_mats[i]
        z = (u_mat @ h[i]) / TAU + batch.biases[i]
        lp = action_logprob(z, batch.actions[i])
        ratio = math.exp(lp - batch.logprob_old[i])
        ratios[i] = ratio
        adv = batch.advantages[i]
        m1 = ratio * adv
        m2 = max(min(ratio, 1.0 + clip), 1.0 - clip) * adv
        surr_total += -min(m1, m2)
        kl_total += batch.logprob_old[i] - lp
        if not (1.0 - clip < ratio < 1.0 + clip):
            clipped += 1

        d_lp = (-adv * ratio) if m1 <= m2 else 0.0
        ent, d_ent = first_pick_entropy(z)
        ent_total += ent
        d_z = (d_lp / b) * logprob_grad_z(z, batch.actions[i]) - (
            entropy_coef / b
        ) * d_ent
        d_h[i] = (u_mat.T @ d_z) / TAU

        err = v[i] - batch.returns[i]
        v_total += err * err
        d_v[i] = value_coef * 2.0 * err / b

    loss = surr_total / b + value_coef * (v_total / b) - entropy_coef * (ent_total / b)
    stats = {
        "mean_ratio": float(ratios.mean()),
        "clip_fraction": clipped / b,
        "approx_kl": float(kl_total / b),
        "entropy": float(ent_total / b),
        "value_loss": float(v_total / b),
    }
    if not math.isfinite(loss):
        stats["non_finite"] = True
        return loss, None, stats
    grads = backward_batch(params, cache, d_h, d_v)
    return loss, grads, stats


def global_grad_norm(grads: dict) -> float:
    total = 0.0
    for k in PARAM_KEYS:
        g = grads[k]
        total += float(np.sum(g * g))
    return math.sqrt(total)


def clip_grads_(grads: dict, max_norm: float) -> float:
    norm = global_grad_norm(grads)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for k in PARAM_KEYS:
            grads[k] *= scale
    return norm
