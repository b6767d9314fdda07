"""Episode mechanics: walk traces span by span, edit memory, log transitions.

One call runs one episode per trace, and the episodes advance together,
span position by span position, like PPO's parallel actors. At each
position every live slot retrieves from its own memory bank; then one
forward pass over the batch's context rows gives one logit matrix, and
each slot picks an ordered skill subset (sampled with its own generator, or
greedy; uniform-random when there are no controller parameters), executes
it and applies the edits to its bank. Terminal rewards are attached later
by the trainer once each trace's queries are answered.
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
    and the numeric block and executor evidence of each span."""

    def __init__(self) -> None:
        self.texts = embed.TextVectors()
        self._numeric: dict = {}
        self._evidence: dict = {}

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

    def span_evidence(self, trace: Trace, idx: int) -> executor.SpanEvidence:
        """The span's evidence against the trace's target; rules only read it."""
        key = (trace.id, idx)
        ev = self._evidence.get(key)
        if ev is None:
            ev = executor.span_evidence(trace.spans[idx], trace.target)
            self._evidence[key] = ev
        return ev


def skill_matrix(bank: SkillBank, texts: embed.TextVectors) -> np.ndarray:
    """Embedding matrix of the bank's skill descriptions, one row per skill."""
    return np.stack([texts[s.description] for s in bank.skills])


@dataclass
class Transition:
    x: np.ndarray
    action: list[int]
    logprob: float
    value: float


@dataclass
class EpisodeRollout:
    mem_bank: memory.MemoryBank
    transitions: list[Transition] = field(default_factory=list)
    r_proc: list[float] = field(default_factory=list)


def run_episode(
    traces: list[Trace],
    bank: SkillBank,
    params: Optional[dict],
    cache: FeatureCache,
    k_retrieve: int,
    top_k: int,
    rngs: list[Optional[np.random.Generator]],
    bias: Optional[np.ndarray] = None,
    greedy: bool = False,
) -> list[EpisodeRollout]:
    """One episode per trace, stepped in lockstep; slot i draws from rngs[i].

    Without params, each slot draws a uniform permutation and logs no
    transitions; with them, it samples from the controller's logits, or
    takes their top k when greedy. Each slot has its own memory bank, and a
    slot whose trace has ended keeps a zero context row, so the forward pass
    always has len(traces) rows and a slot's episode does not depend on its
    neighbours' trace lengths.
    """
    u_mat = skill_matrix(bank, cache.texts)
    n_skills = len(bank.skills)
    if bias is None:
        bias = np.zeros(n_skills)
    k_pick = min(top_k, n_skills)
    eps = [EpisodeRollout(memory.MemoryBank()) for _ in traces]

    for idx in range(max((len(t.spans) for t in traces), default=0)):
        live = [i for i, t in enumerate(traces) if idx < len(t.spans)]
        span_embs = {i: cache.span_text(traces[i], idx) for i in live}
        retrieved = {
            i: memory.retrieve(eps[i].mem_bank, span_embs[i], k_retrieve) for i in live
        }
        if params is not None:
            contexts: list = [None] * len(traces)
            for i in live:
                contexts[i] = (
                    span_embs[i],
                    cache.span_numeric(traces[i], idx),
                    [eps[i].mem_bank.embedding_of(e) for e in retrieved[i]],
                )
            x, h, values = policy.encode_context(params, contexts)
            z = policy.skill_logits(h, u_mat, bias)

        for i in live:
            if params is None:
                action = [int(a) for a in rngs[i].permutation(n_skills)[:k_pick]]
            else:
                if greedy:
                    action = policy.greedy_topk(z[i], k_pick)
                else:
                    action = policy.sample_topk(z[i], k_pick, rngs[i])
                eps[i].transitions.append(Transition(
                    x=x[i].copy(),
                    action=action,
                    logprob=policy.action_logprob(z[i], action),
                    value=float(values[i]),
                ))
            edits = executor.execute(
                cache.span_evidence(traces[i], idx),
                retrieved[i],
                [bank.skills[a] for a in action],
            )
            _, outcomes = memory.apply_edits(eps[i].mem_bank, edits)
            categories = executor.events_from_outcomes(edits, outcomes)
            eps[i].r_proc.append(executor.process_reward(categories))
    return eps
