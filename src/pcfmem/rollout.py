"""Episode mechanics: walk a trace span-by-span, edit memory, log transitions.

One episode processes one trace: retrieve from the growing per-trace memory
bank, encode the context, pick an ordered skill subset (sampled, greedy, or
uniform-random depending on mode), execute, and apply the edits. Terminal
rewards are attached later by the trainer once the trace's queries are
answered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import embed, executor, memory, policy
from .datagen import Trace
from .skills import SkillBank


class FeatureCache:
    """Per-run feature cache: text vectors of spans and skill descriptions,
    and the numeric block of each span."""

    def __init__(self) -> None:
        self.texts = embed.TextVectors()
        self._numeric: dict = {}

    def span_text(self, trace: Trace, idx: int) -> np.ndarray:
        return self.texts[trace.spans[idx].text]

    def span_numeric(self, trace: Trace, idx: int) -> np.ndarray:
        key = (trace.id, idx)
        vec = self._numeric.get(key)
        if vec is None:
            span = trace.spans[idx]
            vec = embed.embed_numeric(span.geom_after, span.sim_after)
            self._numeric[key] = vec
        return vec


def skill_matrix(bank: SkillBank, texts: embed.TextVectors) -> np.ndarray:
    """Embedding matrix of the bank's skill descriptions, one row per skill."""
    return np.stack([texts[s.description] for s in bank.skills])


@dataclass
class Transition:
    x: Optional[np.ndarray]
    action: list[int]
    logprob: float
    value: float
    reward: float = 0.0


@dataclass
class EpisodeRollout:
    trace_id: str
    mem_bank: memory.MemoryBank
    transitions: list[Transition] = field(default_factory=list)
    r_proc: list[float] = field(default_factory=list)


def run_episode(
    trace: Trace,
    bank: SkillBank,
    params: Optional[dict],
    cache: FeatureCache,
    k_retrieve: int,
    top_k: int,
    mode: str,
    rng: Optional[np.random.Generator],
    bias: Optional[np.ndarray] = None,
) -> EpisodeRollout:
    """mode: 'sample' | 'greedy' | 'random' (uniform, controller-free)."""
    u_mat = skill_matrix(bank, cache.texts)
    n_skills = len(bank.skills)
    if bias is None:
        bias = np.zeros(n_skills)
    k_pick = min(top_k, n_skills)
    mem = memory.MemoryBank()
    out = EpisodeRollout(trace_id=trace.id, mem_bank=mem)

    for idx in range(len(trace.spans)):
        span = trace.spans[idx]
        span_emb = cache.span_text(trace, idx)
        retrieved = memory.retrieve(mem, span_emb, k_retrieve)

        if mode == "random":
            perm = rng.permutation(n_skills)
            action = [int(i) for i in perm[:k_pick]]
            x, logprob, value = None, 0.0, 0.0
        else:
            numeric = cache.span_numeric(trace, idx)
            entry_embs = [mem.embedding_of(e) for e in retrieved]
            x, h, value = policy.encode_context(params, span_emb, numeric, entry_embs)
            z = policy.skill_logits(h, u_mat, bias)
            if mode == "greedy":
                action = policy.greedy_topk(z, k_pick)
            else:
                action = policy.sample_topk(z, k_pick, rng)
            logprob = policy.action_logprob(z, action)

        selected = [bank.skills[i] for i in action]
        ctx = executor.SpanContext(
            span=span, retrieved=retrieved, selected=selected, target=trace.target
        )
        edits, skip_events = executor.execute(ctx)
        _, outcomes = memory.apply_edits(mem, edits)
        events = skip_events + executor.events_from_outcomes(edits, outcomes)
        r_proc = executor.process_reward(events)

        out.transitions.append(
            Transition(
                x=x,
                action=action,
                logprob=logprob,
                value=value,
                reward=r_proc,
            )
        )
        out.r_proc.append(r_proc)
    return out
