"""Controller math: exact ordered sampling probabilities and hand gradients."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from pcfmem import embed, memory, policy, trainer


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


def test_forward_batch_output_is_unit_or_zero():
    params = policy.init_params(np.random.default_rng(9))
    x = np.random.default_rng(10).normal(0.0, 1.0, (3, policy.IN_DIM))
    x[1] = 0.0  # zero biases map a zero row to t2 = 0, hence h = 0
    fwd = policy.forward_batch(params, x)
    assert fwd["h"].shape == (3, policy.HIDDEN)
    assert fwd["v"].shape == (3,)
    norms = np.linalg.norm(fwd["h"], axis=1)
    assert norms[0] == pytest.approx(1.0, abs=1e-12)
    assert norms[2] == pytest.approx(1.0, abs=1e-12)
    assert np.all(fwd["h"][1] == 0.0)


def test_forward_batch_matches_numpy_reference_with_biases():
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
    x = rng.normal(0.0, 1.0, (3, policy.IN_DIM))
    fwd = policy.forward_batch(params, x)
    for i in range(3):
        t1_ref = np.tanh(x[i] @ params["w1"] + params["b1"])
        t2_ref = np.tanh(t1_ref @ params["w2"] + params["b2"])
        assert np.allclose(fwd["h"][i], t2_ref / np.linalg.norm(t2_ref), atol=1e-12)
        assert fwd["v"][i] == pytest.approx(t2_ref @ params["wv"] + 0.17, abs=1e-12)


def test_encode_context_leaves_finished_slots_zero():
    params = policy.init_params(np.random.default_rng(11))
    rng = np.random.default_rng(12)
    span_emb = rng.normal(0.0, 1.0, 256)
    entries = [rng.normal(0.0, 1.0, 256) for _ in range(3)]
    live = (span_emb, rng.normal(0.0, 1.0, 8), entries, [0.3, -0.1, 0.7])
    x, h, v = policy.encode_context(params, [None, live, None])
    assert x.shape == (3, policy.IN_DIM)
    assert np.all(x[[0, 2]] == 0.0)
    assert np.array_equal(x[1], policy.build_context(*live))
    fwd = policy.forward_batch(params, x)
    assert np.array_equal(h, fwd["h"]) and np.array_equal(v, fwd["v"])


def _pool_with_fresh_cosines(span_emb, entry_embs):
    """Memory pooling that computes each cosine itself, as a reference."""
    if not entry_embs:
        return np.zeros(embed.TEXT_DIM)
    sims = np.array([embed.cosine(span_emb, e) for e in entry_embs])
    w = np.exp(sims - sims.max())
    w /= w.sum()
    pooled = np.zeros(embed.TEXT_DIM)
    for wi, e in zip(w, entry_embs):
        pooled += wi * e
    return pooled


def test_context_from_retrieved_scores_matches_fresh_cosines(small_corpus):
    rng = np.random.default_rng(5)
    trace, other = small_corpus["traces"][:2]
    bank = memory.MemoryBank()
    for i, span in enumerate(other.spans):
        entry = memory.MemoryEntry(
            id=0,
            key=memory.MemoryKey("pitch", "loss", "1.55-band", f"regime{i}"),
            kind="trend",
            statement=span.text,
            direction=1,
            slope=0.0,
        )
        memory.apply_edits(bank, [memory.MemoryEdit(op="INSERT", entry=entry)])
    for k in (1, 3, len(bank.entries)):
        for span in trace.spans:
            span_emb = embed.embed_text(span.text)
            numeric = rng.random(embed.NUMERIC_DIM)
            entries, sims = memory.retrieve(bank, span_emb, k)
            embs = [bank.embedding_of(e) for e in entries]
            row = policy.build_context(span_emb, numeric, embs, sims)
            want = np.concatenate([span_emb, numeric, _pool_with_fresh_cosines(span_emb, embs)])
            assert row.tobytes() == want.tobytes()
    empty = policy.build_context(span_emb, numeric, [], [])
    assert empty.tobytes() == np.concatenate([span_emb, numeric, np.zeros(256)]).tobytes()


def test_checkpoint_round_trip(tmp_path):
    params = policy.init_params(np.random.default_rng(13))
    path = str(tmp_path / "checkpoint.npz")
    policy.save_checkpoint(path, params, seed=42)
    loaded, seed = policy.load_checkpoint(path)
    assert seed == 42
    for k in policy.PARAM_KEYS:
        assert np.array_equal(loaded[k], params[k])
    # the loaded arrays are views of one flat vector, which the optimizer takes
    assert np.array_equal(policy.flat_view(loaded), policy.flat_view(params))
    trainer.AdamW(lr=1e-3, weight_decay=0.01).step(
        policy.flat_view(loaded), policy.flat_view(policy.zero_grads())
    )


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
    norm = policy.clip_grads_(policy.flat_view(grads), max_norm=0.5)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(policy.flat_view(grads)) == pytest.approx(0.5)
    # below the cap nothing changes
    norm2 = policy.clip_grads_(policy.flat_view(grads), max_norm=10.0)
    assert norm2 == pytest.approx(0.5)
    assert np.linalg.norm(policy.flat_view(grads)) == pytest.approx(0.5)


def test_ppo_loss_reports_stats_and_nonfinite_guard():
    rng = np.random.default_rng(15)
    params = policy.init_params(np.random.default_rng(16))
    n_sk = 5
    u = rng.normal(0.0, 1.0, (n_sk, policy.HIDDEN))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    b = np.zeros(n_sk)
    rows = []
    for _ in range(3):
        x = rng.normal(0.0, 1.0, policy.IN_DIM)
        action = [int(a) for a in rng.permutation(n_sk)[:2]]
        cache = policy.forward_batch(params, x[None, :])
        z = (u @ cache["h"][0]) / policy.TAU + b
        rows.append((x, action, policy.action_logprob(z, action)))
    batch = policy.PPOBatch(
        x=np.stack([r[0] for r in rows]),
        u_mat=u,
        bias=b,
        actions=np.array([r[1] for r in rows]),
        logprob_old=np.array([r[2] for r in rows]),
        advantages=np.array([0.5, -0.2, 1.0]),
        returns=np.array([0.1, 0.4, -0.3]),
    )
    loss, grads, stats = policy.ppo_loss_and_grads(params, batch, 0.2, 0.5, 0.01)
    assert math.isfinite(loss)
    assert grads is not None
    assert stats["mean_ratio"] == pytest.approx(1.0, abs=1e-9)
    assert stats["clip_fraction"] == 0.0
    assert stats["approx_kl"] == pytest.approx(0.0, abs=1e-9)

    bad = dataclasses.replace(batch, advantages=np.array([np.nan, -0.2, 1.0]))
    with pytest.raises(policy.NumericError, match="advantages"):
        policy.ppo_loss_and_grads(params, bad, 0.2, 0.5, 0.01)
    bad_returns = dataclasses.replace(batch, returns=np.array([np.inf, 0.4, -0.3]))
    with pytest.raises(policy.NumericError, match="loss"):
        policy.ppo_loss_and_grads(params, bad_returns, 0.2, 0.5, 0.01)


def _loop_logprob_grad_z(z, action):
    """The ordered without-replacement log-probability gradient, one row."""
    p = policy.softmax(z)
    k = len(action)
    grad = -k * p
    for a in action:
        grad[a] += 1.0
    s, t_vals, s_vals = 0.0, [], []
    for a in action:
        s_vals.append(s)
        t_vals.append(1.0 / max(1.0 - s, 1e-300))
        s += p[a]
    grad -= p * sum(t * sv for t, sv in zip(t_vals, s_vals))
    for pos, a in enumerate(action):
        grad[a] += sum(t_vals[j] for j in range(pos + 1, k)) * p[a]
    return grad


def _loop_ppo_loss(params, batch, clip, value_coef, entropy_coef):
    """Per-row reference of the PPO loss: one row of the minibatch at a time."""
    b = batch.x.shape[0]
    cache = policy.forward_batch(params, batch.x)
    d_h = np.zeros_like(cache["h"])
    d_v = np.zeros(b)
    surr_total = v_total = ent_total = kl_total = 0.0
    ratios, branches = [], set()
    for i in range(b):
        z = (batch.u_mat @ cache["h"][i]) / policy.TAU + batch.bias
        action = [int(a) for a in batch.actions[i]]
        lp = brute_logprob(z, action)
        ratio = math.exp(lp - batch.logprob_old[i])
        ratios.append(ratio)
        adv = batch.advantages[i]
        m1 = ratio * adv
        m2 = max(min(ratio, 1.0 + clip), 1.0 - clip) * adv
        branches.add(m1 <= m2)
        surr_total += -min(m1, m2)
        kl_total += batch.logprob_old[i] - lp
        p = policy.softmax(z)
        ent = -float(np.dot(p, np.log(p)))
        d_ent = -p * (np.log(p) + ent)
        ent_total += ent
        d_lp = (-adv * ratio) if m1 <= m2 else 0.0
        d_z = (d_lp / b) * _loop_logprob_grad_z(z, action) - (entropy_coef / b) * d_ent
        d_h[i] = (batch.u_mat.T @ d_z) / policy.TAU
        err = cache["v"][i] - batch.returns[i]
        v_total += err * err
        d_v[i] = value_coef * 2.0 * err / b
    loss = surr_total / b + value_coef * (v_total / b) - entropy_coef * (ent_total / b)
    stats = {
        "mean_ratio": float(np.mean(ratios)),
        "approx_kl": kl_total / b,
        "entropy": ent_total / b,
        "value_loss": v_total / b,
    }
    return loss, policy.backward_batch(params, cache, d_h, d_v), stats, branches, ratios


@pytest.mark.parametrize("n_sk,k", [(6, 1), (7, 2), (8, 3), (1, 1), (2, 2), (3, 3)])
def test_vectorised_ppo_loss_matches_per_row_loop(n_sk, k):
    clip = 0.2
    seen_branches, seen_clipped, seen_inside = set(), False, False
    for inst in range(4):
        rng = np.random.default_rng(100 * n_sk + 10 * k + inst)
        params = policy.init_params(rng)
        bsz = 16
        u = rng.normal(0.0, 1.0, (n_sk, policy.HIDDEN))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        bias = rng.normal(0.0, 0.5, n_sk)
        x = rng.normal(0.0, 1.0, (bsz, policy.IN_DIM))
        actions = np.array([rng.permutation(n_sk)[:k] for _ in range(bsz)])
        z = (policy.forward_batch(params, x)["h"] @ u.T) / policy.TAU + bias
        lp_now = np.array(
            [policy.action_logprob(z[i], list(actions[i])) for i in range(bsz)]
        )
        # old log-probabilities off by up to 0.5 put ratios on both sides of the clip
        batch = policy.PPOBatch(
            x=x,
            u_mat=u,
            bias=bias,
            actions=actions,
            logprob_old=lp_now + rng.uniform(-0.5, 0.5, bsz),
            advantages=rng.normal(0.0, 1.0, bsz),
            returns=rng.normal(0.0, 1.0, bsz),
        )
        loss, grads, stats = policy.ppo_loss_and_grads(params, batch, clip, 0.5, 0.01)
        ref_loss, ref_grads, ref_stats, branches, ratios = _loop_ppo_loss(
            params, batch, clip, 0.5, 0.01
        )
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-15)
        for key in policy.PARAM_KEYS:
            diff = np.linalg.norm(grads[key] - ref_grads[key])
            assert diff <= 1e-12 * np.linalg.norm(ref_grads[key]) + 1e-300, key
        for name, value in ref_stats.items():
            assert stats[name] == pytest.approx(value, rel=1e-12, abs=1e-15), name
        clipped = sum(not (1.0 - clip < r < 1.0 + clip) for r in ratios)
        assert stats["clip_fraction"] == clipped / bsz
        seen_branches |= branches
        seen_clipped |= clipped > 0
        seen_inside |= clipped < bsz
    assert seen_branches == {True, False}
    assert seen_clipped and seen_inside


def test_parameters_and_gradients_are_views_of_one_flat_vector():
    params = policy.init_params(np.random.default_rng(17))
    flat = policy.flat_view(params)
    assert flat.shape == (policy.N_PARAMS,)
    assert np.array_equal(
        flat, np.concatenate([params[k].ravel() for k in policy.PARAM_KEYS])
    )
    flat[-1] = 2.5
    assert params["bv"][0] == 2.5
    policy.flat_view(policy.zero_grads())
    with pytest.raises(TypeError):
        policy.flat_view({k: v.copy() for k, v in params.items()})


def test_checkpoint_shape_guard(tmp_path):
    params = policy.init_params(np.random.default_rng(18))
    arrays = {k: params[k] for k in policy.PARAM_KEYS}
    arrays["w1"] = params["w1"][:-1]  # (IN_DIM - 1, HIDDEN)
    path = str(tmp_path / "checkpoint.npz")
    np.savez(path, version=np.array([policy.CHECKPOINT_VERSION]), seed=np.array([0]), **arrays)
    with pytest.raises(ValueError, match="w1"):
        policy.load_checkpoint(path)


def test_checkpoint_errors_name_the_file(tmp_path):
    params = policy.init_params(np.random.default_rng(19))
    arrays = {k: params[k] for k in policy.PARAM_KEYS}
    version = np.array([policy.CHECKPOINT_VERSION])
    cases = {
        "lacks": dict(version=version, **arrays),
        "version": dict(version=np.array([99]), seed=np.array([0]), **arrays),
        "shape": dict(version=version, seed=np.array([0]), **{**arrays, "w2": params["w2"][:-1]}),
    }
    for name, contents in cases.items():
        path = str(tmp_path / f"{name}.npz")
        np.savez(path, **contents)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: checkpoint .*{name}"):
            policy.load_checkpoint(path)
    for name, data in (("one_byte", b"x"), ("empty", b""), ("bad_zip", b"PK\x03\x04")):
        path = tmp_path / f"{name}.npz"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not an npz checkpoint$"):
            policy.load_checkpoint(str(path))
    path = tmp_path / "array.npz"
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))  # an .npy file under an .npz name
    with pytest.raises(ValueError, match="not an npz checkpoint"):
        policy.load_checkpoint(str(path))
