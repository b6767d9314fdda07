"""Reward plumbing and optimizer math for the training loop."""

import dataclasses

import numpy as np
import pytest

from pcfmem import designer, evalsuite, memory, physics, policy, rollout, trainer
from pcfmem.trainer import AdamW, PPOConfig


def test_redistribute_closed_form():
    # T=3, gamma 0.5, beta 0: weights 0.25, 0.5, 1 normalized over 1.75
    out = trainer.redistribute(7.0, 3, 0.5, 0.0)
    assert np.allclose(out, [1.0, 2.0, 4.0])


def test_redistribute_terminal_only_at_beta_one():
    out = trainer.redistribute(3.0, 4, 0.9, 1.0)
    assert np.allclose(out, [0.0, 0.0, 0.0, 3.0])


def test_redistribute_conserves_sum():
    rng = np.random.default_rng(21)
    for _ in range(200):
        r = float(rng.uniform(-2.0, 2.0))
        t = int(rng.integers(1, 65))
        gamma = float(rng.uniform(0.05, 0.999))
        beta = float(rng.uniform(0.0, 1.0))
        out = trainer.redistribute(r, t, gamma, beta)
        assert len(out) == t
        assert abs(float(out.sum()) - r) < 1e-9


def test_redistribute_rejects_empty_episode():
    with pytest.raises(ValueError):
        trainer.redistribute(1.0, 0, 0.9, 0.5)


def test_compose_step_rewards():
    out = trainer.compose_step_rewards([0.1, -0.2], np.array([1.0, 2.0]))
    assert np.allclose(out, [1.1, 1.8])
    with pytest.raises(ValueError):
        trainer.compose_step_rewards([0.1], np.array([1.0, 2.0]))


def _gae_reference(rewards, values, gamma, lam):
    # backward recursion with zero terminal value
    expected = np.zeros(len(rewards))
    run = 0.0
    for i in reversed(range(len(rewards))):
        nxt = values[i + 1] if i + 1 < len(rewards) else 0.0
        delta = rewards[i] + gamma * nxt - values[i]
        run = delta + gamma * lam * run
        expected[i] = run
    return expected


def test_gae_matches_reference_recursion():
    rng = np.random.default_rng(22)
    for _ in range(20):
        t = int(rng.integers(1, 30))
        rewards = rng.normal(0.0, 1.0, t)
        values = rng.normal(0.0, 1.0, t)
        adv, ret = trainer.compute_gae(rewards, values, 0.99, 0.95)
        expected = _gae_reference(rewards, values, 0.99, 0.95)
        assert np.allclose(adv, expected, atol=1e-12)
        assert np.allclose(ret, expected + values, atol=1e-12)
    with pytest.raises(ValueError):
        trainer.compute_gae(np.array([]), np.array([]), 0.99, 0.95)


def test_gae_matches_recursion_at_random_discounts():
    rng = np.random.default_rng(3)
    for _ in range(25):
        t = int(rng.integers(1, 40))
        rewards = rng.normal(0.0, 1.0, t)
        values = rng.normal(0.0, 1.0, t)
        gamma, lam = float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.5, 1.0))
        adv, ret = trainer.compute_gae(rewards, values, gamma, lam)
        expected = _gae_reference(rewards, values, gamma, lam)
        assert np.allclose(adv, expected, atol=1e-12)
        assert np.allclose(ret, expected + values, atol=1e-12)


def test_normalize_advantages_edges():
    assert np.allclose(trainer.normalize_advantages(np.array([5.0])), [0.0])
    assert np.allclose(trainer.normalize_advantages(np.array([2.0, 2.0, 2.0])), 0.0)
    out = trainer.normalize_advantages(np.array([1.0, 2.0, 3.0, 4.0]))
    assert abs(out.mean()) < 1e-12
    assert out.std() == pytest.approx(1.0)


def test_adamw_decouples_weight_decay():
    # zero gradient: a step must still shrink weights by lr * wd exactly
    params = policy.init_params(np.random.default_rng(23))
    before = {k: params[k].copy() for k in policy.PARAM_KEYS}
    opt = AdamW(lr=0.1, weight_decay=0.01)
    opt.step(policy.flat_view(params), policy.flat_view(policy.zero_grads()))
    for k in policy.PARAM_KEYS:
        assert np.allclose(params[k], before[k] * (1.0 - 0.1 * 0.01), atol=1e-15)


def test_adamw_first_step_magnitude():
    # with a constant gradient the first Adam step has size ~lr
    params = policy.zero_grads()  # all-zero parameters, laid out flat
    grads = policy.zero_grads()
    grads["wv"][:] = 0.7
    opt = AdamW(lr=1e-3, weight_decay=0.0)
    opt.step(policy.flat_view(params), policy.flat_view(grads))
    assert np.allclose(params["wv"], -1e-3, atol=1e-9)
    assert np.all(params["w1"] == 0.0)


def test_flat_adamw_is_bitwise_equal_to_the_per_key_formula():
    rng = np.random.default_rng(25)
    params = policy.init_params(rng)
    ref = {k: params[k].copy() for k in policy.PARAM_KEYS}
    m = {k: np.zeros_like(v) for k, v in ref.items()}
    v = {k: np.zeros_like(a) for k, a in ref.items()}
    lr, wd, b1, b2, eps = 3e-3, 0.01, 0.9, 0.999, 1e-8
    opt = AdamW(lr=lr, weight_decay=wd, b1=b1, b2=b2)
    for t in range(1, 21):
        grads = policy.zero_grads()
        policy.flat_view(grads)[:] = rng.normal(0.0, 0.1, policy.N_PARAMS)
        opt.step(policy.flat_view(params), policy.flat_view(grads))
        for k in policy.PARAM_KEYS:
            g = grads[k]
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            mhat = m[k] / (1 - b1**t)
            vhat = v[k] / (1 - b2**t)
            ref[k] = ref[k] - lr * (mhat / (np.sqrt(vhat) + eps) + wd * ref[k])
            assert np.array_equal(params[k], ref[k]), (t, k)


def _toy_transitions(rng, n, n_sk, k):
    params = policy.init_params(rng)
    u = rng.normal(0.0, 1.0, (n_sk, policy.HIDDEN))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    trs = [
        rollout.Transition(
            x=rng.normal(0.0, 1.0, policy.IN_DIM),
            action=[int(a) for a in rng.permutation(n_sk)[:k]],
            logits=np.zeros(n_sk),
            value=0.0,
        )
        for _ in range(n)
    ]
    return params, u, trs


def test_ppo_update_raises_on_non_finite_parameters():
    rng = np.random.default_rng(27)
    params, u, trs = _toy_transitions(rng, 8, 4, 2)
    # one minibatch, one step: only the parameter check can see it
    cfg = PPOConfig(epochs_per_update=1, minibatch=8)
    with pytest.raises(policy.NumericError, match="parameter"):
        trainer.ppo_update(
            params, trs, rng.normal(0.0, 1.0, 8), rng.normal(0.0, 1.0, 8), cfg,
            AdamW(lr=np.inf, weight_decay=0.0), rng, u, np.zeros(4),
        )


def test_ppo_update_counts_minibatches_and_checks_the_skill_matrix():
    rng = np.random.default_rng(28)
    params, u, trs = _toy_transitions(rng, 10, 5, 3)
    cfg = PPOConfig(epochs_per_update=2, minibatch=4)
    stats = trainer.ppo_update(
        params, trs, rng.normal(0.0, 1.0, 10), rng.normal(0.0, 1.0, 10), cfg,
        AdamW(lr=1e-3, weight_decay=0.01), rng, u, np.zeros(5),
    )
    assert (stats["updates"], stats["skipped"]) == (6, 0)
    assert np.isfinite(stats["last_approx_kl"])
    with pytest.raises(ValueError):
        trainer.ppo_update(
            params, trs, np.zeros(10), np.zeros(10), cfg,
            AdamW(lr=1e-3, weight_decay=0.01), rng, u[:2], np.zeros(2),
        )
    # logits logged against another bank: a ValueError, not an IndexError
    for width in (3, 6):
        mislogged = [dataclasses.replace(t, logits=np.zeros(width)) for t in trs]
        with pytest.raises(ValueError, match="logits"):
            trainer.ppo_update(
                params, mislogged, np.zeros(10), np.zeros(10), cfg,
                AdamW(lr=1e-3, weight_decay=0.01), rng, u, np.zeros(5),
            )


def test_ppo_config_defaults():
    cfg = PPOConfig()
    assert cfg.gamma_d == 0.99
    assert cfg.gae_lambda == 0.95
    assert cfg.clip == 0.2
    assert cfg.epochs_per_update == 4
    assert cfg.minibatch == 32
    assert cfg.learning_rate == 1e-4
    assert cfg.gamma_r == 0.9
    assert cfg.beta == 0.5
    assert (cfg.inner_epochs, cfg.outer_epochs, cfg.batch) == (50, 10, 32)
    assert (cfg.k_retrieve, cfg.top_k) == (5, 2)
    assert cfg.max_skills == 12
    assert cfg.bias_b0 == 1.0


def test_run_closed_loop_rejects_unknown_ablation(small_corpus, traces_by_id):
    cfg = PPOConfig(inner_epochs=1, outer_epochs=0, batch=2)
    with pytest.raises(ValueError):
        trainer.run_closed_loop(
            traces_by_id, small_corpus["queries"], small_corpus["splits"],
            cfg, 0, ablation="wo_everything",
        )


@pytest.mark.parametrize("empty", ["train", "val"])
def test_run_closed_loop_rejects_an_empty_split(small_corpus, traces_by_id, empty):
    # with no val traces the designer gate would have nothing to compare
    cfg = PPOConfig(inner_epochs=1, outer_epochs=1, batch=2)
    splits = {**small_corpus["splits"], empty: []}
    with pytest.raises(ValueError, match=repr(empty)):
        trainer.run_closed_loop(traces_by_id, small_corpus["queries"], splits, cfg, 0)


def test_tiny_closed_loop_report_shape(small_corpus, traces_by_id):
    cfg = PPOConfig(inner_epochs=2, outer_epochs=1, batch=4)
    report = trainer.run_closed_loop(
        traces_by_id, small_corpus["queries"], small_corpus["splits"], cfg, 5
    )
    assert report["ablation"] == "full"
    assert report["seed"] == 5
    assert len(report["epochs"]) == 1
    entry = report["epochs"][0]
    assert len(entry["inner"]) == 2
    assert "designer" in entry
    des = entry["designer"]
    assert set(des) >= {"j_before", "j_after", "accepted", "proposed_changes"}
    # acceptance rule: greater-or-equal validation score keeps the mutation
    assert des["accepted"] == (des["j_after"] - des["j_before"] >= 0.0)
    hist = report["bank_version_history"]
    assert hist[0] == 0
    assert len(hist) == 2
    assert hist[-1] == report["final_bank"]["bank_version"]
    # terminal rewards answer each episode's queries: at most one
    # verification per query, charged to the training ledger
    for inner_entry in entry["inner"]:
        assert 0.0 <= inner_entry["calls_per_query"] <= 1.0
    assert report["train_calls"] > 0
    assert report["designer_calls"] >= 0
    ppo_stats = entry["inner"][0]["ppo"]
    assert ppo_stats["updates"] > 0
    assert ppo_stats["skipped"] == 0


def test_wo_controller_runs_without_params(small_corpus, traces_by_id):
    cfg = PPOConfig(inner_epochs=1, outer_epochs=1, batch=4)
    report = trainer.run_closed_loop(
        traces_by_id, small_corpus["queries"], small_corpus["splits"],
        cfg, 3, ablation="wo_controller",
    )
    assert report["_params"] is None
    assert len(report["epochs"]) == 1


def test_wo_redistribution_forces_terminal_beta(small_corpus, traces_by_id):
    cfg = PPOConfig(inner_epochs=1, outer_epochs=0, batch=2, beta=0.5)
    report = trainer.run_closed_loop(
        traces_by_id, small_corpus["queries"], small_corpus["splits"],
        cfg, 3, ablation="wo_redistribution",
    )
    assert report["config"]["beta"] == 1.0


def _refuse(*args, **kwargs):
    raise AssertionError("training built an output row")


def test_training_and_validation_build_no_rows(small_corpus, traces_by_id, monkeypatch):
    # run_inner_loop, j_val and the designer read typed answers; F1, rows and
    # entry snapshots are built only for the files eval and baseline write
    monkeypatch.setattr(evalsuite, "token_f1", _refuse)
    monkeypatch.setattr(evalsuite, "answer_row", _refuse)
    monkeypatch.setattr(memory.MemoryEntry, "as_dict", _refuse)
    cfg = PPOConfig(inner_epochs=2, outer_epochs=1, batch=4)
    report = trainer.run_closed_loop(
        traces_by_id, small_corpus["queries"], small_corpus["splits"], cfg, 5
    )
    assert "designer" in report["epochs"][0]
    assert report["val_calls"] > 0


def test_designer_reads_failed_attempts_as_answered(small_corpus, traces_by_id, monkeypatch):
    snapshots = {}
    answer_query = evalsuite.answer_query

    def spy_answer(*args):
        ans = answer_query(*args)
        if ans.attempt is not None:
            snapshots[id(ans.attempt)] = (ans, [e.as_dict() for e in ans.attempt.retrieved])
        return ans

    seen = []
    collect_failures = designer.collect_failures

    def spy_collect(attempts, counter):
        # every failed design answer of the training rollouts, in answer order
        failed = [ans.attempt for ans, _ in snapshots.values() if not ans.passed]
        assert [id(a) for a in attempts] == [id(a) for a in failed]
        # the entries are the answering banks' own, unchanged since answering
        for a in attempts:
            ans, entries = snapshots[id(a)]
            assert ans.attempt is a and not ans.passed
            assert [e.as_dict() for e in a.retrieved] == entries
            assert physics.miss(a.sim, a.target) >= 1.0
        seen.append(len(attempts))
        return collect_failures(attempts, counter)

    monkeypatch.setattr(evalsuite, "answer_query", spy_answer)
    monkeypatch.setattr(designer, "collect_failures", spy_collect)
    cfg = PPOConfig(inner_epochs=2, outer_epochs=1, batch=8)
    trainer.run_closed_loop(
        traces_by_id, small_corpus["queries"], small_corpus["splits"], cfg, 5
    )
    assert seen and seen[0] > 0


def test_wo_new_action_bias_is_a_full_run_without_the_bias(small_corpus, traces_by_id):
    # the ablation is one setting: a zero bias scale on the same controller
    def run(ablation, **settings):
        cfg = PPOConfig(inner_epochs=2, outer_epochs=2, batch=4, **settings)
        return trainer.run_closed_loop(
            traces_by_id, small_corpus["queries"], small_corpus["splits"],
            cfg, 5, ablation=ablation,
        )

    ablated, unbiased, biased = (
        run("wo_new_action_bias"), run("full", bias_b0=0.0), run("full")
    )
    assert ablated["config"]["bias_b0"] == 0.0
    assert ablated["config"] == unbiased["config"]
    for key in ("epochs", "bank_version_history", "train_calls", "designer_calls",
                "val_calls", "final_bank"):
        assert ablated[key] == unbiased[key], key
    for name, value in ablated["_params"].items():
        assert value.tobytes() == unbiased["_params"][name].tobytes(), name
    # the bias does steer a full run, so the equality above is not vacuous
    assert biased["epochs"] != unbiased["epochs"]
