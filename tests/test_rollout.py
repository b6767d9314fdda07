"""Episode mechanics: per-span transitions, modes and feature caching."""

import numpy as np
import pytest

from pcfmem import embed, memory, policy, rollout, skills


@pytest.fixture()
def one_trace(small_corpus):
    return small_corpus["traces"][0]


def _run(trace, bank, params, mode, seed=0, top_k=2):
    (ep,) = rollout.run_episode(
        [trace], bank, params,
        rollout.FeatureCache(), k_retrieve=5, top_k=top_k,
        mode=mode, rngs=[np.random.default_rng(seed)],
    )
    return ep


def test_episode_shape_and_reward_bounds(one_trace):
    bank = skills.initial_bank()
    params = policy.init_params(np.random.default_rng(9))
    ep = _run(one_trace, bank, params, "sample")
    assert ep.trace_id == one_trace.id
    assert len(ep.transitions) == len(one_trace.spans)
    assert ep.r_proc == [t.reward for t in ep.transitions]
    for t in ep.transitions:
        assert len(t.action) == 2
        assert len(set(t.action)) == 2
        assert all(0 <= a < len(bank.skills) for a in t.action)
        assert -0.2 <= t.reward <= 0.2
        assert np.isfinite(t.logprob)
        assert t.x.shape == (policy.IN_DIM,)


def test_random_mode_needs_no_params(one_trace):
    bank = skills.initial_bank()
    ep = _run(one_trace, bank, None, "random", seed=4)
    for t in ep.transitions:
        assert t.x is None
        assert t.logprob == 0.0
        assert t.value == 0.0
    # memory still gets written by whatever skills were drawn
    assert isinstance(ep.mem_bank.entries, list)


def test_greedy_mode_is_rng_free(one_trace):
    bank = skills.initial_bank()
    params = policy.init_params(np.random.default_rng(9))
    eps = [
        rollout.run_episode(
            [one_trace], bank, params, rollout.FeatureCache(),
            k_retrieve=5, top_k=2, mode="greedy", rngs=[None],
        )[0]
        for _ in range(2)
    ]
    acts = [[t.action for t in ep.transitions] for ep in eps]
    assert acts[0] == acts[1]


def test_sample_mode_seed_determinism(one_trace):
    bank = skills.initial_bank()
    params = policy.init_params(np.random.default_rng(9))
    a = _run(one_trace, bank, params, "sample", seed=7)
    b = _run(one_trace, bank, params, "sample", seed=7)
    c = _run(one_trace, bank, params, "sample", seed=8)
    assert [t.action for t in a.transitions] == [t.action for t in b.transitions]
    assert memory.snapshot(a.mem_bank) == memory.snapshot(b.mem_bank)
    diff = [t.action for t in a.transitions] != [t.action for t in c.transitions]
    assert diff or memory.snapshot(a.mem_bank) == memory.snapshot(c.mem_bank)


def test_top_k_clamps_to_bank_size(one_trace):
    bank = skills.initial_bank()
    params = policy.init_params(np.random.default_rng(9))
    ep = _run(one_trace, bank, params, "greedy", top_k=99)
    assert all(len(t.action) == len(bank.skills) for t in ep.transitions)


def test_bias_steers_first_pick(one_trace):
    bank = skills.initial_bank()
    params = policy.init_params(np.random.default_rng(9))
    for want in range(len(bank.skills)):
        bias = np.zeros(len(bank.skills))
        bias[want] = 1e6
        (ep,) = rollout.run_episode(
            [one_trace], bank, params, rollout.FeatureCache(),
            k_retrieve=5, top_k=1, mode="greedy", rngs=[None], bias=bias,
        )
        assert all(t.action[0] == want for t in ep.transitions)


def test_skill_matrix_rows_track_the_bank():
    bank = skills.initial_bank()
    texts = embed.TextVectors()
    u = rollout.skill_matrix(bank, texts)
    expect = np.stack([embed.embed_text(s.description) for s in bank.skills])
    assert np.array_equal(u, expect)
    mutated = skills.mutate(
        bank, [skills.BankChange(op="retire", target_id=bank.skills[1].id)]
    )
    u3 = rollout.skill_matrix(mutated, texts)
    assert u3.shape == (len(bank.skills) - 1, embed.TEXT_DIM)


def test_skill_matrix_tells_apart_banks_that_share_ids():
    # both catalogue deletes are named delete_invalid_assumption_v2
    base = skills.initial_bank()
    target = next(s.id for s in base.skills if s.template_id == "delete_invalid")
    banks = [
        skills.mutate(base, [skills.BankChange(
            op="replace", target_id=target,
            skill=skills.make_catalog_skill(name, 2, 1),
        )])
        for name in ("cross_verified_delete", "rollback_safe_delete")
    ]
    assert banks[0].ids() == banks[1].ids()
    assert banks[0].bank_version == banks[1].bank_version
    texts = embed.TextVectors()
    u0, u1 = rollout.skill_matrix(banks[0], texts), rollout.skill_matrix(banks[1], texts)
    assert not np.array_equal(u0, u1)
    for bank, u in zip(banks, (u0, u1)):
        expect = np.stack([embed.embed_text(s.description) for s in bank.skills])
        assert np.array_equal(u, expect)


def test_feature_cache_returns_identical_objects(one_trace):
    cache = rollout.FeatureCache()
    a = cache.span_text(one_trace, 0)
    b = cache.span_text(one_trace, 0)
    assert a is b
    n1 = cache.span_numeric(one_trace, 0)
    n2 = cache.span_numeric(one_trace, 0)
    assert n1 is n2
    assert n1.shape == (8,)


@pytest.mark.parametrize("mode", ["sample", "greedy"])
def test_episode_does_not_depend_on_its_neighbours_lengths(small_corpus, mode):
    # slot 0 runs the same trace beside the shortest traces, then beside the
    # longest: finished slots must not change the batch seen by live ones
    traces = sorted(small_corpus["traces"], key=lambda t: (len(t.spans), t.id))
    middle = traces[len(traces) // 2]
    bank = skills.initial_bank()
    params = policy.init_params(np.random.default_rng(9))
    n = 8
    runs = []
    for neighbours in (traces[: n - 1], traces[-(n - 1):]):
        rngs = [np.random.default_rng(100 + slot) for slot in range(n)]
        eps = rollout.run_episode(
            [middle, *neighbours], bank, params, rollout.FeatureCache(),
            k_retrieve=5, top_k=2, mode=mode, rngs=rngs,
        )
        runs.append(eps[0])
    assert len(traces[0].spans) < len(middle.spans) < len(traces[-1].spans)
    a, b = runs
    assert [t.action for t in a.transitions] == [t.action for t in b.transitions]
    for ta, tb in zip(a.transitions, b.transitions):
        assert ta.x.tobytes() == tb.x.tobytes()
        assert ta.logprob == tb.logprob
        assert ta.value == tb.value
        assert ta.reward == tb.reward
    assert memory.snapshot(a.mem_bank) == memory.snapshot(b.mem_bank)


def test_transition_rows_are_copies(one_trace, small_corpus):
    bank = skills.initial_bank()
    params = policy.init_params(np.random.default_rng(9))
    eps = rollout.run_episode(
        [one_trace, small_corpus["traces"][1]], bank, params, rollout.FeatureCache(),
        k_retrieve=5, top_k=2, mode="greedy", rngs=[None, None],
    )
    rows = [t.x for ep in eps for t in ep.transitions]
    assert all(r.base is None for r in rows)
