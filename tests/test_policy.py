"""Controller math: exact ordered sampling probabilities and hand gradients."""

import itertools
import math

import numpy as np
import pytest

from pcfmem import policy


def brute_logprob(z, action):
    """Sequential softmax-without-replacement, written independently."""
    p = np.exp(z - z.max())
    p = p / p.sum()
    lp, rest = 0.0, 1.0
    for a in action:
        lp += math.log(p[a] / rest)
        rest -= p[a]
    return lp


def test_logprob_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(n, 4) + 1))
        z = rng.normal(0.0, 2.0, n)
        action = [int(a) for a in rng.permutation(n)[:k]]
        assert policy.action_logprob(z, action) == pytest.approx(
            brute_logprob(z, action), abs=1e-12
        )


def test_ordered_subset_probabilities_sum_to_one():
    rng = np.random.default_rng(1)
    for n in range(2, 7):
        for k in range(1, min(3, n) + 1):
            z = rng.normal(0.0, 1.5, n)
            total = sum(
                math.exp(policy.action_logprob(z, list(t)))
                for t in itertools.permutations(range(n), k)
            )
            assert abs(total - 1.0) < 1e-10


def test_uniform_logits_give_uniform_ordered_pairs():
    # 4 skills, 2 picks: 12 ordered pairs, each 1/12 under flat logits
    z = np.zeros(4)
    for t in itertools.permutations(range(4), 2):
        assert math.exp(policy.action_logprob(z, list(t))) == pytest.approx(1.0 / 12.0)


def test_single_pick_is_log_softmax():
    z = np.array([0.3, -1.2, 2.0, 0.0])
    p = policy.softmax(z)
    for i in range(4):
        assert policy.action_logprob(z, [i]) == pytest.approx(math.log(p[i]), abs=1e-12)


def test_logprob_shift_invariance():
    rng = np.random.default_rng(2)
    z = rng.normal(0.0, 1.0, 6)
    action = [4, 1, 3]
    a = policy.action_logprob(z, action)
    b = policy.action_logprob(z + 123.4, action)
    assert a == pytest.approx(b, abs=1e-9)


def test_sampler_and_greedy_validate_k():
    z = np.zeros(3)
    with pytest.raises(ValueError):
        policy.sample_topk(z, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        policy.greedy_topk(z, 4)
    assert policy.greedy_topk(np.array([0.1, 3.0, 1.0]), 2) == [1, 2]


def test_greedy_tie_breaks_by_index():
    assert policy.greedy_topk(np.zeros(5), 3) == [0, 1, 2]


def test_logprob_grad_z_matches_fd():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, min(n, 3) + 1))
        z = rng.normal(0.0, 1.5, n)
        action = [int(a) for a in rng.permutation(n)[:k]]
        grad = policy.logprob_grad_z(z, action)
        eps = 1e-6
        for i in range(n):
            zp, zm = z.copy(), z.copy()
            zp[i] += eps
            zm[i] -= eps
            fd = (
                policy.action_logprob(zp, action) - policy.action_logprob(zm, action)
            ) / (2 * eps)
            assert grad[i] == pytest.approx(fd, abs=5e-6)


def test_first_pick_entropy_and_gradient():
    z = np.array([0.5, -0.3, 1.7, 0.0, -2.0])
    h, dh = policy.first_pick_entropy(z)
    p = policy.softmax(z)
    assert h == pytest.approx(-float(np.sum(p * np.log(p))), abs=1e-12)
    eps = 1e-6
    for i in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[i] += eps
        zm[i] -= eps
        fd = (policy.first_pick_entropy(zp)[0] - policy.first_pick_entropy(zm)[0]) / (
            2 * eps
        )
        assert dh[i] == pytest.approx(fd, abs=5e-6)


def test_gumbel_sampler_is_seed_deterministic():
    z = np.random.default_rng(5).normal(0.0, 1.0, 6)
    a = policy.sample_topk(z, 2, np.random.default_rng(77))
    b = policy.sample_topk(z, 2, np.random.default_rng(77))
    assert a == b


def test_forward_vec_output_is_unit_or_zero():
    params = policy.init_params(np.random.default_rng(9))
    x = np.random.default_rng(10).normal(0.0, 1.0, policy.IN_DIM)
    h, v = policy.forward_vec(params, x)
    assert h.shape == (policy.HIDDEN,)
    assert np.linalg.norm(h) == pytest.approx(1.0, abs=1e-12)
    assert isinstance(v, float)


def test_forward_vec_matches_numpy_reference_with_biases():
    # init_params zeroes every bias, so draw non-zero ones here
    rng = np.random.default_rng(4)
    params = {
        "w1": rng.normal(0.0, 0.05, (policy.IN_DIM, policy.HIDDEN)),
        "b1": rng.normal(0.0, 0.05, policy.HIDDEN),
        "w2": rng.normal(0.0, 0.05, (policy.HIDDEN, policy.HIDDEN)),
        "b2": rng.normal(0.0, 0.05, policy.HIDDEN),
        "wv": rng.normal(0.0, 0.05, policy.HIDDEN),
        "bv": np.array([0.17]),
    }
    x = rng.normal(0.0, 1.0, policy.IN_DIM)
    h, v = policy.forward_vec(params, x)
    t1_ref = np.tanh(x @ params["w1"] + params["b1"])
    t2_ref = np.tanh(t1_ref @ params["w2"] + params["b2"])
    assert np.allclose(h, t2_ref / np.linalg.norm(t2_ref), atol=1e-12)
    assert v == pytest.approx(t2_ref @ params["wv"] + 0.17, abs=1e-12)


def test_forward_batch_agrees_with_forward_vec():
    params = policy.init_params(np.random.default_rng(11))
    rng = np.random.default_rng(12)
    x = rng.normal(0.0, 1.0, (5, policy.IN_DIM))
    cache = policy.forward_batch(params, x)
    for i in range(5):
        h, v = policy.forward_vec(params, x[i])
        assert np.allclose(cache["h"][i], h, atol=1e-12)
        assert cache["v"][i] == pytest.approx(v, abs=1e-12)


def test_checkpoint_round_trip(tmp_path):
    params = policy.init_params(np.random.default_rng(13))
    path = str(tmp_path / "checkpoint.npz")
    policy.save_checkpoint(path, params, seed=42)
    loaded, seed = policy.load_checkpoint(path)
    assert seed == 42
    for k in policy.PARAM_KEYS:
        assert np.array_equal(loaded[k], params[k])


def test_checkpoint_version_guard(tmp_path):
    params = policy.init_params(np.random.default_rng(14))
    path = str(tmp_path / "checkpoint.npz")
    np.savez(
        path,
        version=np.array([99]),
        seed=np.array([0]),
        **{k: params[k] for k in policy.PARAM_KEYS},
    )
    with pytest.raises(ValueError):
        policy.load_checkpoint(path)


def test_clip_grads_scales_to_max_norm():
    grads = policy.zero_grads()
    grads["w1"][0, 0] = 3.0
    grads["wv"][0] = 4.0
    norm = policy.clip_grads_(grads, max_norm=0.5)
    assert norm == pytest.approx(5.0)
    assert policy.global_grad_norm(grads) == pytest.approx(0.5)
    # below the cap nothing changes
    norm2 = policy.clip_grads_(grads, max_norm=10.0)
    assert norm2 == pytest.approx(0.5)
    assert policy.global_grad_norm(grads) == pytest.approx(0.5)


def test_ppo_loss_reports_stats_and_nonfinite_guard():
    rng = np.random.default_rng(15)
    params = policy.init_params(np.random.default_rng(16))
    n_sk = 5
    rows = []
    for _ in range(3):
        x = rng.normal(0.0, 1.0, policy.IN_DIM)
        u = rng.normal(0.0, 1.0, (n_sk, policy.HIDDEN))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        b = np.zeros(n_sk)
        action = [int(a) for a in rng.permutation(n_sk)[:2]]
        cache = policy.forward_batch(params, x[None, :])
        z = (u @ cache["h"][0]) / policy.TAU + b
        rows.append((x, u, b, action, policy.action_logprob(z, action)))
    batch = policy.PPOBatch(
        x=np.stack([r[0] for r in rows]),
        u_mats=[r[1] for r in rows],
        biases=[r[2] for r in rows],
        actions=[r[3] for r in rows],
        logprob_old=np.array([r[4] for r in rows]),
        advantages=np.array([0.5, -0.2, 1.0]),
        returns=np.array([0.1, 0.4, -0.3]),
    )
    loss, grads, stats = policy.ppo_loss_and_grads(params, batch, 0.2, 0.5, 0.01)
    assert math.isfinite(loss)
    assert grads is not None
    assert stats["mean_ratio"] == pytest.approx(1.0, abs=1e-9)
    assert stats["clip_fraction"] == 0.0
    assert stats["approx_kl"] == pytest.approx(0.0, abs=1e-9)

    bad = policy.PPOBatch(
        x=batch.x,
        u_mats=batch.u_mats,
        biases=batch.biases,
        actions=batch.actions,
        logprob_old=batch.logprob_old,
        advantages=np.array([np.nan, -0.2, 1.0]),
        returns=batch.returns,
    )
    loss2, grads2, stats2 = policy.ppo_loss_and_grads(params, bad, 0.2, 0.5, 0.01)
    assert grads2 is None
    assert stats2.get("non_finite") is True
