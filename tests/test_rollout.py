"""Episode mechanics: per-span transitions, pick rules and feature caching."""

import dataclasses
import hashlib

import numpy as np
import pytest

from pcfmem import embed, executor, memory, policy, rollout, skills


@pytest.fixture()
def one_trace(small_corpus):
    return small_corpus["traces"][0]


def _run(trace, bank, params, greedy=False, seed=0, top_k=2):
    (ep,) = rollout.run_episode(
        [trace], bank, params,
        rollout.FeatureCache(), k_retrieve=5, top_k=top_k,
        rngs=[np.random.default_rng(seed)], greedy=greedy,
    )
    return ep


def test_episode_shape_and_reward_bounds(one_trace):
    bank = skills.initial_bank()
    params = policy.init_params(np.random.default_rng(9))
    ep = _run(one_trace, bank, params)
    assert len(ep.transitions) == len(one_trace.spans)
    assert len(ep.r_proc) == len(one_trace.spans)
    for t, reward in zip(ep.transitions, ep.r_proc):
        assert len(t.action) == 2
        assert len(set(t.action)) == 2
        assert all(0 <= a < len(bank.skills) for a in t.action)
        assert -0.2 <= reward <= 0.2
        assert t.logits.shape == (len(bank.skills),)
        assert np.isfinite(t.logits).all()
        assert t.x.shape == (policy.IN_DIM,)


def test_random_mode_needs_no_params(one_trace):
    bank = skills.initial_bank()
    ep = _run(one_trace, bank, None, seed=4)
    # uniform picks log no transitions, but every span still gets its reward
    assert ep.transitions == []
    assert len(ep.r_proc) == len(one_trace.spans)
    # memory still gets written by whatever skills were drawn
    assert isinstance(ep.mem_bank.entries, list)


def test_uniform_picks_ignore_greedy(small_corpus, monkeypatch):
    # without params there are no logits to be greedy about
    traces = small_corpus["traces"][:4]
    bank = skills.initial_bank()
    execute = executor.execute
    picks = {False: [], True: []}
    runs = []
    for greedy in (False, True):
        def spy(evidence, retrieved, selected, _log=picks[greedy]):
            _log.append([s.id for s in selected])
            return execute(evidence, retrieved, selected)

        monkeypatch.setattr(executor, "execute", spy)
        runs.append(rollout.run_episode(
            traces, bank, None, rollout.FeatureCache(), k_retrieve=5, top_k=2,
            rngs=[np.random.default_rng(s) for s in range(len(traces))], greedy=greedy,
        ))
    assert picks[False] == picks[True]
    assert len(picks[False]) == sum(len(t.spans) for t in traces)
    for a, b in zip(*runs):
        assert a.transitions == b.transitions == []
        assert a.r_proc == b.r_proc
        assert memory.snapshot(a.mem_bank) == memory.snapshot(b.mem_bank)


def test_greedy_mode_is_rng_free(one_trace):
    bank = skills.initial_bank()
    params = policy.init_params(np.random.default_rng(9))
    eps = [
        rollout.run_episode(
            [one_trace], bank, params, rollout.FeatureCache(),
            k_retrieve=5, top_k=2, rngs=[None], greedy=True,
        )[0]
        for _ in range(2)
    ]
    acts = [[t.action for t in ep.transitions] for ep in eps]
    assert acts[0] == acts[1]


def test_sample_mode_seed_determinism(one_trace):
    bank = skills.initial_bank()
    params = policy.init_params(np.random.default_rng(9))
    a = _run(one_trace, bank, params, seed=7)
    b = _run(one_trace, bank, params, seed=7)
    c = _run(one_trace, bank, params, seed=8)
    assert [t.action for t in a.transitions] == [t.action for t in b.transitions]
    assert memory.snapshot(a.mem_bank) == memory.snapshot(b.mem_bank)
    diff = [t.action for t in a.transitions] != [t.action for t in c.transitions]
    assert diff or memory.snapshot(a.mem_bank) == memory.snapshot(c.mem_bank)


def test_top_k_clamps_to_bank_size(one_trace):
    bank = skills.initial_bank()
    params = policy.init_params(np.random.default_rng(9))
    ep = _run(one_trace, bank, params, greedy=True, top_k=99)
    assert all(len(t.action) == len(bank.skills) for t in ep.transitions)


def test_bias_steers_first_pick(one_trace):
    bank = skills.initial_bank()
    params = policy.init_params(np.random.default_rng(9))
    for want in range(len(bank.skills)):
        bias = np.zeros(len(bank.skills))
        bias[want] = 1e6
        (ep,) = rollout.run_episode(
            [one_trace], bank, params, rollout.FeatureCache(),
            k_retrieve=5, top_k=1, rngs=[None], bias=bias, greedy=True,
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
    # two deletes named delete_invalid_assumption_v2 that differ in description
    base = skills.initial_bank()
    target = next(s.id for s in base.skills if s.template_id == "delete_invalid")
    hardened = skills.make_catalog_skill("cross_verified_delete", 2, 1)
    reworded = dataclasses.replace(hardened, description="delete a contradicted trend")
    banks = [
        skills.mutate(base, [skills.BankChange(op="replace", target_id=target, skill=sk)])
        for sk in (hardened, reworded)
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
            k_retrieve=5, top_k=2, rngs=rngs, greedy=mode == "greedy",
        )
        runs.append(eps[0])
    assert len(traces[0].spans) < len(middle.spans) < len(traces[-1].spans)
    a, b = runs
    assert [t.action for t in a.transitions] == [t.action for t in b.transitions]
    for ta, tb in zip(a.transitions, b.transitions):
        assert ta.x.tobytes() == tb.x.tobytes()
        assert ta.logits.tobytes() == tb.logits.tobytes()
        assert ta.value == tb.value
    assert a.r_proc == b.r_proc
    assert memory.snapshot(a.mem_bank) == memory.snapshot(b.mem_bank)


def test_transition_rows_are_copies(one_trace, small_corpus):
    bank = skills.initial_bank()
    params = policy.init_params(np.random.default_rng(9))
    eps = rollout.run_episode(
        [one_trace, small_corpus["traces"][1]], bank, params, rollout.FeatureCache(),
        k_retrieve=5, top_k=2, rngs=[None, None], greedy=True,
    )
    rows = [r for ep in eps for t in ep.transitions for r in (t.x, t.logits)]
    assert all(r.base is None for r in rows)


# sha256 of every slot's process rewards and final memory bank. A span's
# reward sums its skip categories first, then its other edits' categories,
# each group in edit order; summing in plain edit order moves these bits
PER_SPAN_GOLDEN = {
    "seed": "4ff55702af63e8e0fe2843d4c461a703e7724e714973bb0f5668e555951f1faa",
    "all_templates": "38b06777ea95b2a6632d32577355ca73d3d74b0db0e1689556a8e30b4cbaf238",
}


@pytest.mark.parametrize("bank_name", sorted(PER_SPAN_GOLDEN))
def test_per_span_rewards_and_banks_match_golden(small_corpus, bank_name):
    bank = skills.initial_bank()
    if bank_name == "all_templates":
        bank = skills.mutate(bank, [skills.BankChange(
            op="add", skill=skills.make_catalog_skill("failure_boundary_insert", 1, 1),
        )])
        assert len({s.template_id for s in bank.skills}) == 5
    params = policy.init_params(np.random.default_rng(9))
    traces = small_corpus["traces"][:16]
    digest = hashlib.sha256()
    # sampled, greedy, then uniform picks
    for run_params, greedy in ((params, False), (params, True), (None, False)):
        eps = rollout.run_episode(
            traces, bank, run_params, rollout.FeatureCache(), k_retrieve=5, top_k=3,
            rngs=[np.random.default_rng(s) for s in range(len(traces))], greedy=greedy,
        )
        for ep in eps:
            digest.update(np.asarray(ep.r_proc, dtype=np.float64).tobytes())
            digest.update(memory.snapshot(ep.mem_bank).encode())
    assert digest.hexdigest() == PER_SPAN_GOLDEN[bank_name]
