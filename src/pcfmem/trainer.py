"""PPO training loops: reward plumbing, inner loop, closed-loop evolution.

The inner loop trains the controller against a frozen skill bank; the outer
loop alternates training with designer proposals that are kept only when
validation return does not drop (acceptance with rollback).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import designer, evalsuite, policy, rollout, skills
from .datagen import Query, Trace
from .physics import CallCounter

ABLATIONS = ("full", "wo_designer", "wo_redistribution", "wo_new_action_bias", "wo_controller")
VAL_SUBSET_SIZE = 32


@dataclass
class PPOConfig:
    gamma_d: float = 0.99
    gae_lambda: float = 0.95
    clip: float = 0.2
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    epochs_per_update: int = 4
    minibatch: int = 32
    grad_clip: float = 0.5
    learning_rate: float = 1e-4
    weight_decay: float = 0.01
    gamma_r: float = 0.9
    beta: float = 0.5
    inner_epochs: int = 50
    outer_epochs: int = 10
    batch: int = 32
    k_retrieve: int = 5
    top_k: int = 2
    designer_cadence: int = 1
    max_skills: int = 12
    bias_b0: float = 1.0


def redistribute(r_final: float, t_len: int, gamma_r: float, beta: float) -> np.ndarray:
    """Exponential-decay spread of the terminal reward, conserving the sum."""
    if t_len < 1:
        raise ValueError("episode length must be >= 1")
    exps = np.array([gamma_r ** (t_len - t) for t in range(1, t_len + 1)])
    out = (1.0 - beta) * r_final * exps / exps.sum()
    out[-1] += beta * r_final
    return out


def compose_step_rewards(r_proc: list[float], r_tilde: np.ndarray) -> np.ndarray:
    if len(r_proc) != len(r_tilde):
        raise ValueError("process and redistributed rewards must align")
    return np.asarray(r_proc, dtype=float) + r_tilde


def compute_gae(
    rewards: np.ndarray, values: np.ndarray, gamma_d: float, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Raw (unnormalized) advantages and returns; terminal value is 0."""
    if len(rewards) == 0:
        raise ValueError("empty episode")
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    t_len = rewards.shape[0]
    adv = np.empty(t_len, dtype=np.float64)
    running = 0.0
    for t in range(t_len - 1, -1, -1):
        next_v = values[t + 1] if t + 1 < t_len else 0.0
        delta = rewards[t] + gamma_d * next_v - values[t]
        running = delta + gamma_d * lam * running
        adv[t] = running
    return adv, adv + values


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    if len(adv) < 2:
        return np.zeros_like(adv)
    std = adv.std()
    if std < 1e-12:
        return np.zeros_like(adv)
    return (adv - adv.mean()) / std


# elements per block of the optimizer pass; a block of its six vectors
# (params, grads, two moments, two scratch) stays in a core's L2 cache
ADAM_BLOCK = 1 << 15


class AdamW:
    """Decoupled weight decay Adam over the flat policy parameter vector."""

    def __init__(self, lr: float, weight_decay: float, b1: float = 0.9, b2: float = 0.999):
        self.lr = lr
        self.wd = weight_decay
        self.b1, self.b2 = b1, b2
        self.eps = 1e-8
        self.t = 0
        # flat first and second moments, and two block-sized scratch vectors
        self.m = np.zeros(policy.N_PARAMS)
        self.v = np.zeros(policy.N_PARAMS)
        self._a = np.empty(ADAM_BLOCK)
        self._b = np.empty(ADAM_BLOCK)

    def step(self, p_all: np.ndarray, g_all: np.ndarray) -> None:
        """One in-place pass over the flat parameter and gradient vectors
        (`policy.flat_view` of the trees).

        The operations and their order are those of the textbook update
            m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g g,
            p = p - lr (m_hat / (sqrt(v_hat) + eps) + wd p),
        so the result is bitwise equal to evaluating it array by array. They
        run block by block, so each block stays in cache for all of them.
        """
        self.t += 1
        c1, c2 = 1 - self.b1**self.t, 1 - self.b2**self.t
        for s in range(0, policy.N_PARAMS, ADAM_BLOCK):
            blk = slice(s, s + ADAM_BLOCK)
            p, g, m, v = p_all[blk], g_all[blk], self.m[blk], self.v[blk]
            a, b = self._a[: len(p)], self._b[: len(p)]
            m *= self.b1
            np.multiply(g, 1 - self.b1, out=a)
            m += a
            v *= self.b2
            np.multiply(g, 1 - self.b2, out=a)
            a *= g
            v += a
            np.divide(v, c2, out=a)
            np.sqrt(a, out=a)
            a += self.eps
            np.divide(m, c1, out=b)
            np.divide(b, a, out=a)
            np.multiply(p, self.wd, out=b)
            a += b
            a *= self.lr
            p -= a


def ppo_update(
    params: dict,
    transitions: list[rollout.Transition],
    advantages: np.ndarray,
    returns: np.ndarray,
    cfg: PPOConfig,
    opt: AdamW,
    rng: np.random.Generator,
    u_mat: np.ndarray,
    bias: np.ndarray,
) -> dict:
    """Four clipped-surrogate epochs over shuffled minibatches.

    Every transition comes from one inner epoch, so all share the skill
    matrix u_mat (S, 256) and the logit bias (S,). Raises NumericError when a
    step leaves a non-finite parameter.
    """
    n = len(transitions)
    x = np.stack([tr.x for tr in transitions])
    actions = np.array([tr.action for tr in transitions], dtype=np.intp)
    logprob_old = np.array([tr.logprob for tr in transitions])
    if bias.shape != (u_mat.shape[0],) or actions.max() >= len(bias):
        raise ValueError(
            f"actions {actions.shape} do not fit a bank of {u_mat.shape[0]} skills "
            f"with bias {bias.shape}"
        )
    flat = policy.flat_view(params)
    # one gradient tree, rewritten by every minibatch, and its flat vector
    grads = policy.zero_grads()
    g_flat = policy.flat_view(grads)
    # "skipped" is always 0, since a non-finite minibatch raises; the key stays
    # in results.json for its readers
    stats_acc: dict = {"updates": 0, "skipped": 0}
    last_stats: dict = {}
    for _ in range(cfg.epochs_per_update):
        order = rng.permutation(n)
        for s in range(0, n, cfg.minibatch):
            idx = order[s : s + cfg.minibatch]
            batch = policy.PPOBatch(
                x=x[idx],
                u_mat=u_mat,
                bias=bias,
                actions=actions[idx],
                logprob_old=logprob_old[idx],
                advantages=advantages[idx],
                returns=returns[idx],
            )
            _, _, stats = policy.ppo_loss_and_grads(
                params, batch, cfg.clip, cfg.value_coef, cfg.entropy_coef, grads
            )
            policy.clip_grads_(g_flat, cfg.grad_clip)
            opt.step(flat, g_flat)
            if not np.isfinite(flat).all():
                raise policy.NumericError("non-finite policy parameter after a PPO step")
            stats_acc["updates"] += 1
            last_stats = stats
    stats_acc.update({f"last_{k}": v for k, v in last_stats.items()})
    return stats_acc


@dataclass
class InnerLog:
    epochs: list[dict] = field(default_factory=list)
    failed_attempts: list[designer.DesignAttempt] = field(default_factory=list)

    def mean_return(self) -> float:
        if not self.epochs:
            return 0.0
        return float(np.mean([e["mean_return"] for e in self.epochs]))


def run_inner_loop(
    bank: skills.SkillBank,
    train_traces: list[Trace],
    queries_by_trace: dict[str, list[Query]],
    params: Optional[dict],
    cfg: PPOConfig,
    master_seed: int,
    outer_epoch: int,
    opt: Optional[AdamW],
    cache: rollout.FeatureCache,
    counter: CallCounter,
    mode: str = "sample",
    use_bias: bool = True,
) -> InnerLog:
    """Train (or just roll, in random mode) against a frozen bank.

    Episode = one trace span-by-span; terminal reward is the fraction of the
    trace's queries answered correctly from the episode's memory bank.
    """
    log = InnerLog()
    n_traces = len(train_traces)
    for inner in range(cfg.inner_epochs):
        if use_bias and mode != "random":
            bias = cfg.bias_b0 * designer.new_action_bias(bank, outer_epoch, inner)
        else:
            bias = np.zeros(len(bank.skills))
        pick_rng = np.random.default_rng(
            np.random.SeedSequence(master_seed, spawn_key=(10, outer_epoch, inner))
        )
        picks = pick_rng.integers(0, n_traces, cfg.batch)

        transitions: list[rollout.Transition] = []
        adv_parts: list[np.ndarray] = []
        ret_parts: list[np.ndarray] = []
        returns_log: list[float] = []
        success_log: list[float] = []
        queries_answered = 0
        calls_before = counter.total_calls

        batch_traces = [train_traces[int(t_i)] for t_i in picks]
        played = evalsuite.play_traces(
            batch_traces, bank, params, cache, mode, master_seed,
            [(10, outer_epoch, inner, slot) for slot in range(len(picks))],
            queries_by_trace, counter, cfg.k_retrieve, cfg.top_k, bias,
        )
        for ep, r_final, answered in played:
            queries_answered += len(answered)
            log.failed_attempts.extend(
                a.attempt for _, a in answered if a.attempt is not None and not a.passed
            )
            success_log.append(r_final)

            t_len = len(ep.transitions)
            if t_len == 0:
                continue
            beta = cfg.beta
            r_tilde = redistribute(r_final, t_len, cfg.gamma_r, beta)
            step_rewards = compose_step_rewards(ep.r_proc, r_tilde)
            returns_log.append(float(step_rewards.sum()))
            if mode == "random":
                continue
            values = np.array([tr.value for tr in ep.transitions])
            adv, ret = compute_gae(step_rewards, values, cfg.gamma_d, cfg.gae_lambda)
            transitions.extend(ep.transitions)
            adv_parts.append(adv)
            ret_parts.append(ret)

        entry = {
            "outer": outer_epoch,
            "inner": inner,
            "mean_return": float(np.mean(returns_log)) if returns_log else 0.0,
            "success_rate": float(np.mean(success_log)) if success_log else 0.0,
            "calls_per_query": (
                (counter.total_calls - calls_before) / queries_answered
                if queries_answered
                else 0.0
            ),
        }
        if mode != "random" and transitions:
            advantages = normalize_advantages(np.concatenate(adv_parts))
            returns = np.concatenate(ret_parts)
            upd_rng = np.random.default_rng(
                np.random.SeedSequence(master_seed, spawn_key=(11, outer_epoch, inner))
            )
            stats = ppo_update(
                params, transitions, advantages, returns, cfg, opt, upd_rng,
                rollout.skill_matrix(bank, cache.texts), bias,
            )
            entry["ppo"] = {
                k: stats[k]
                for k in ("updates", "skipped", "last_approx_kl", "last_entropy")
                if k in stats
            }
        log.epochs.append(entry)
    return log


def j_val(
    bank: skills.SkillBank,
    params: Optional[dict],
    val_traces: list[Trace],
    queries_by_trace: dict[str, list[Query]],
    cfg: PPOConfig,
    counter: CallCounter,
    cache: rollout.FeatureCache,
    mode: str = "greedy",
    master_seed: int = 0,
) -> float:
    """Mean episode R_final over the fixed, non-empty validation subset
    (greedy policy)."""
    played = evalsuite.play_traces(
        val_traces, bank, params, cache, mode, master_seed,
        [(13, i) for i in range(len(val_traces))], queries_by_trace, counter,
        cfg.k_retrieve, cfg.top_k,
    )
    total = 0.0
    for _, r_final, _ in played:
        total += r_final
    return total / len(val_traces)


def run_closed_loop(
    traces_by_id: dict[str, Trace],
    queries: list[Query],
    splits: dict,
    cfg: PPOConfig,
    master_seed: int,
    ablation: str = "full",
) -> dict:
    """Alternate inner-loop PPO with designer proposals under rollback.

    Returns a run report: per-epoch logs, bank version history, final params
    and bank (callers persist them).
    """
    if ablation not in ABLATIONS:
        raise ValueError(f"unknown ablation {ablation!r}")
    cfg = PPOConfig(**{**asdict(cfg)})
    if ablation == "wo_redistribution":
        cfg.beta = 1.0
    use_bias = ablation != "wo_new_action_bias"
    mode = "random" if ablation == "wo_controller" else "sample"
    gate_mode = "random" if mode == "random" else "greedy"
    for name in ("train", "val"):
        # the designer gate needs val traces to compare a candidate against
        if not splits[name]:
            raise ValueError(f"split {name!r} is empty")

    queries_by_trace: dict[str, list[Query]] = {}
    for q in queries:
        queries_by_trace.setdefault(q.trace_ids[0], []).append(q)

    train_traces = [traces_by_id[i] for i in splits["train"]]
    val_ids = list(splits["val"])
    sub_rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(12,)))
    if len(val_ids) > VAL_SUBSET_SIZE:
        keep = sub_rng.choice(len(val_ids), VAL_SUBSET_SIZE, replace=False)
        val_ids = [val_ids[i] for i in sorted(keep)]
    val_traces = [traces_by_id[i] for i in val_ids]

    if mode == "random":
        params, opt = None, None
    else:
        params = policy.init_params(
            np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(9,)))
        )
        opt = AdamW(cfg.learning_rate, cfg.weight_decay)
    bank = skills.initial_bank()
    cache = rollout.FeatureCache()
    train_counter = CallCounter()
    designer_counter = CallCounter()
    val_counter = CallCounter()

    epochs_report = []
    version_history = [bank.bank_version]
    # outer_epochs=0 degenerates to a single inner loop with no evolution
    evolve = cfg.outer_epochs > 0
    for outer in range(cfg.outer_epochs if evolve else 1):
        log = run_inner_loop(
            bank,
            train_traces,
            queries_by_trace,
            params,
            cfg,
            master_seed,
            outer,
            opt,
            cache,
            train_counter,
            mode=mode,
            use_bias=use_bias,
        )
        entry = {
            "outer": outer,
            "bank_version": bank.bank_version,
            "n_skills": len(bank.skills),
            "mean_return": log.mean_return(),
            "success_rate": (
                float(np.mean([e["success_rate"] for e in log.epochs]))
                if log.epochs
                else 0.0
            ),
            "inner": log.epochs,
        }

        run_designer = (
            evolve
            and ablation != "wo_designer"
            and (outer + 1) % cfg.designer_cadence == 0
        )
        if run_designer:
            buf = designer.collect_failures(log.failed_attempts, designer_counter)
            clusters = designer.cluster_failures(buf)
            changes = designer.propose_changes(
                bank, clusters, epoch=outer + 1, max_skills=cfg.max_skills
            )
            candidate = skills.mutate(bank, changes)
            j_before, j_after = (
                j_val(
                    b, params, val_traces, queries_by_trace, cfg,
                    val_counter, cache, gate_mode, master_seed,
                )
                for b in (bank, candidate)
            )
            accepted = j_after - j_before >= 0.0
            if accepted:
                bank = candidate
            entry["designer"] = {
                "buffer_size": len(buf),
                "clusters": [
                    {"type": c.failure_type, "regime": c.regime, "size": c.size}
                    for c in clusters
                ],
                "proposed_changes": [
                    {"op": ch.op, "skill": ch.skill.id if ch.skill else None,
                     "target": ch.target_id}
                    for ch in changes
                ],
                "j_before": j_before,
                "j_after": j_after,
                "accepted": accepted,
            }
            version_history.append(bank.bank_version)
        epochs_report.append(entry)

    return {
        "ablation": ablation,
        "seed": master_seed,
        "config": asdict(cfg),
        "epochs": epochs_report,
        "bank_version_history": version_history,
        "train_calls": train_counter.total_calls,
        "designer_calls": designer_counter.total_calls,
        "val_calls": val_counter.total_calls,
        "final_bank": bank.as_dict(),
        "_params": params,
        "_bank": bank,
    }
