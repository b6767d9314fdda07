"""Acceptance gate: ten end-to-end checks, one test per criterion.

Each test is independent and prints a single summary line on success; a
verbose pytest run therefore reads as a checklist. The two expensive
fixtures (a 500-trace corpus and the trained-versus-untrained contrast
runs) are built once per module and shared.
"""

import itertools
import json
import math
import time

import mpmath as mp
import numpy as np
import pytest

from pcfmem import (
    baselines,
    cli,
    datagen,
    designer,
    evalsuite,
    physics,
    policy,
    skills,
    trainer,
)
from pcfmem.physics import CallCounter, Geometry

# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def corpus500():
    counter = CallCounter()
    traces = datagen.gen_corpus(500, 0, counter)
    queries = datagen.gen_queries(traces, 0, counter)
    splits = datagen.split(traces, 0)
    return {
        "traces": traces,
        "queries": queries,
        "splits": splits,
        "by_id": {t.id: t for t in traces},
        "gen_calls": counter.total_calls,
    }


def _eval_arm(corpus, report, master_seed):
    test_ids = set(corpus["splits"]["test"])
    test_traces = [corpus["by_id"][i] for i in corpus["splits"]["test"]]
    test_queries = [q for q in corpus["queries"] if q.trace_ids[0] in test_ids]
    mode = "random" if report["_params"] is None else "greedy"
    out = evalsuite.evaluate_agent(
        test_traces, test_queries, report["_bank"], report["_params"],
        mode=mode, master_seed=master_seed,
    )
    return out["rows"], evalsuite.aggregate(out["rows"])


@pytest.fixture(scope="module")
def loop_runs(corpus500):
    """Full closed-loop runs: the trained/untrained contrast plus ablations."""
    cfg = trainer.PPOConfig()
    assert (cfg.outer_epochs, cfg.inner_epochs, cfg.batch) == (10, 50, 32)
    plan = [
        ("full", 0), ("full", 1), ("full", 2),
        ("wo_controller", 0), ("wo_controller", 1), ("wo_controller", 2),
        ("wo_designer", 0), ("wo_redistribution", 0), ("wo_new_action_bias", 0),
    ]
    runs = {}
    t0 = time.monotonic()
    contrast_elapsed = None
    for ablation, seed in plan:
        report = trainer.run_closed_loop(
            corpus500["by_id"], corpus500["queries"], corpus500["splits"],
            trainer.PPOConfig(), seed, ablation=ablation,
        )
        rows, agg = _eval_arm(corpus500, report, seed)
        runs[(ablation, seed)] = {
            "agg": agg,
            "query_ids": [r["query_id"] for r in rows],
            "bank_versions": report["bank_version_history"],
        }
        if (ablation, seed) == ("wo_controller", 2):
            contrast_elapsed = time.monotonic() - t0
    runs["contrast_elapsed"] = contrast_elapsed
    return runs


# ---------------------------------------------------------------- criteria


def test_criterion_01_reward_redistribution_conserves_return():
    rng = np.random.default_rng(17)
    t0 = time.monotonic()
    worst = 0.0
    for t_len in range(1, 65):
        for gamma_r in (0.5, 0.9, 0.99):
            for beta in (0.0, 0.5, 1.0):
                r_final = float(rng.uniform(-5.0, 5.0))
                shaped = trainer.redistribute(r_final, t_len, gamma_r, beta)
                assert shaped.shape == (t_len,)
                worst = max(worst, abs(float(np.sum(shaped)) - r_final))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-9
    assert elapsed < 1.0
    print(f"criterion 1: PASS (worst |sum-R| {worst:.2e}, {elapsed * 1e3:.0f} ms)")


def test_criterion_02_subset_sampler_matches_its_density():
    rng = np.random.default_rng(3)
    t0 = time.monotonic()
    worst_gap = 0.0
    for n in range(2, 7):
        for k in range(1, min(3, n) + 1):
            z = rng.normal(0.0, 1.0, n)
            total = sum(
                math.exp(policy.action_logprob(z, list(perm)))
                for perm in itertools.permutations(range(n), k)
            )
            worst_gap = max(worst_gap, abs(total - 1.0))
    assert worst_gap <= 1e-10

    z = np.random.default_rng(42).normal(0.0, 1.0, 5)
    k, n_draws = 2, 100_000
    draw_rng = np.random.default_rng(0)
    counts = {}
    for _ in range(n_draws):
        action = tuple(policy.sample_topk(z, k, draw_rng))
        counts[action] = counts.get(action, 0) + 1
    violations = []
    for perm in itertools.permutations(range(5), k):
        p = math.exp(policy.action_logprob(z, list(perm)))
        emp = counts.get(perm, 0) / n_draws
        sigma = math.sqrt(p * (1.0 - p) / n_draws)
        if abs(emp - p) > 3.0 * sigma:
            violations.append(perm)
    elapsed = time.monotonic() - t0
    assert violations == []
    assert elapsed < 10.0
    print(
        f"criterion 2: PASS (enumeration gap {worst_gap:.1e}, "
        f"0/20 frequency violations, {elapsed:.1f} s)"
    )


def _flat(params):
    return np.concatenate([params[key].ravel() for key in policy.PARAM_KEYS])


def _unflat(vec, like):
    out, pos = {}, 0
    for key in policy.PARAM_KEYS:
        size = like[key].size
        out[key] = vec[pos : pos + size].reshape(like[key].shape).copy()
        pos += size
    return out


def test_criterion_03_analytic_gradients_match_finite_differences():
    eps = 1e-6
    t0 = time.monotonic()
    worst = {"logprob": 0.0, "value": 0.0, "ppo": 0.0}
    for inst in range(20):
        rng = np.random.default_rng(1000 + inst)
        params = policy.init_params(np.random.default_rng(9 + inst))
        flat0 = _flat(params)
        n_sk = int(rng.integers(4, 9))
        k = int(rng.integers(1, 3))
        u_mat = rng.normal(0.0, 1.0, (n_sk, policy.HIDDEN))
        u_mat /= np.linalg.norm(u_mat, axis=1, keepdims=True)
        bias = rng.normal(0.0, 0.5, n_sk)
        xs = rng.normal(0.0, 1.0, (4, policy.IN_DIM))
        actions, lps = [], []
        for row in xs:
            cache = policy.forward_batch(params, row[None, :])
            z = policy.skill_logits(cache["h"][0], u_mat, bias)
            action = policy.sample_topk(z, k, rng)
            actions.append(action)
            lps.append(policy.action_logprob(z, action))
        batch = policy.PPOBatch(
            x=xs,
            u_mat=u_mat,
            bias=bias,
            actions=np.array(actions),
            logprob_old=np.array(lps),
            advantages=rng.normal(0.0, 1.0, 4),
            returns=rng.normal(0.0, 1.0, 4),
        )
        direction = rng.normal(0.0, 1.0, flat0.size)
        direction /= np.linalg.norm(direction)

        def scalar_fns(vec):
            p = _unflat(vec, params)
            cache = policy.forward_batch(p, xs[0][None, :])
            z = policy.skill_logits(cache["h"][0], u_mat, bias)
            lp = policy.action_logprob(z, actions[0])
            value = float(cache["v"][0])
            loss, _, _ = policy.ppo_loss_and_grads(p, batch, 0.2, 0.5, 0.01)
            return lp, value, loss

        cache = policy.forward_batch(params, xs[0][None, :])
        z = policy.skill_logits(cache["h"][0], u_mat, bias)
        d_z = policy.logprob_grad_z(z, actions[0])
        d_h = (u_mat.T @ d_z) / policy.TAU
        g_lp = policy.backward_batch(params, cache, d_h[None, :], np.zeros(1))
        g_val = policy.backward_batch(
            params, cache, np.zeros((1, policy.HIDDEN)), np.ones(1)
        )
        _, g_ppo, _ = policy.ppo_loss_and_grads(params, batch, 0.2, 0.5, 0.01)

        plus, minus = flat0 + eps * direction, flat0 - eps * direction
        f_plus, f_minus = scalar_fns(plus), scalar_fns(minus)
        for name, grads, hi, lo in (
            ("logprob", g_lp, f_plus[0], f_minus[0]),
            ("value", g_val, f_plus[1], f_minus[1]),
            ("ppo", g_ppo, f_plus[2], f_minus[2]),
        ):
            numeric = (hi - lo) / (2.0 * eps)
            analytic = float(np.dot(_flat(grads), direction))
            rel = abs(analytic - numeric) / max(abs(numeric), 1e-8)
            worst[name] = max(worst[name], rel)
    elapsed = time.monotonic() - t0
    assert all(v <= 1e-4 for v in worst.values()), worst
    assert elapsed < 30.0
    print(
        "criterion 3: PASS (worst rel err logprob %.1e value %.1e ppo %.1e, %.1f s)"
        % (worst["logprob"], worst["value"], worst["ppo"], elapsed)
    )


def test_criterion_04_dispersion_stencil_matches_richardson_extrapolation():
    mp.mp.dps = 30
    b = (mp.mpf("0.6961663"), mp.mpf("0.4079426"), mp.mpf("0.8974794"))
    c = (mp.mpf("0.0684043") ** 2, mp.mpf("0.1162414") ** 2, mp.mpf("9.896161") ** 2)
    fill_a = mp.mpf("0.08")
    pref = mp.mpf(10000) / mp.mpf("2.99792458")

    def n_eff_ref(pitch, dratio, lam):
        l2 = lam * lam
        s = b[0] * l2 / (l2 - c[0]) + b[1] * l2 / (l2 - c[1]) + b[2] * l2 / (l2 - c[2])
        return mp.sqrt(1 + s) - fill_a * dratio ** mp.mpf("1.5") * (lam / pitch) ** 2

    def disp_ref(vals, lam, h):
        d2 = (
            -vals[2 * h] + 16 * vals[h] - 30 * vals[0.0] + 16 * vals[-h] - vals[-2 * h]
        ) / (12 * mp.mpf(h) ** 2)
        return -pref * lam * d2

    t0 = time.monotonic()
    worst_rel, min_abs, orders = 0.0, np.inf, []
    for pitch in np.linspace(1.2, 3.8, 10):
        for frac in np.linspace(0.1, 0.88, 10):
            geom = Geometry(float(pitch), float(frac * pitch), 6)
            p_mp, r_mp = mp.mpf(geom.pitch_um), mp.mpf(geom.dratio)
            for lam in np.linspace(1.3, 1.6, 4):
                lam = float(lam)
                pkg = physics.dispersion(geom, lam)
                lam_mp = mp.mpf(lam)
                vals = {
                    s: n_eff_ref(p_mp, r_mp, lam_mp + mp.mpf(s))
                    for s in (0.0, 5e-4, -5e-4, 1e-3, -1e-3, 2e-3, -2e-3, 4e-3, -4e-3)
                }
                d_h = disp_ref(vals, lam_mp, 1e-3)
                d_h2 = disp_ref(vals, lam_mp, 5e-4)
                d_2h = disp_ref(vals, lam_mp, 2e-3)
                richardson = (16 * d_h2 - d_h) / 15
                min_abs = min(min_abs, abs(float(richardson)))
                worst_rel = max(
                    worst_rel, abs(pkg - float(richardson)) / abs(float(richardson))
                )
                orders.append(float(mp.log(abs((d_2h - d_h) / (d_h - d_h2)), 2)))
    elapsed = time.monotonic() - t0
    orders = np.array(orders)
    assert worst_rel <= 1e-4
    assert min_abs > 1.0  # no dispersion zero-crossing pollutes the relative error
    assert orders.min() >= 3.5
    assert elapsed < 5.0
    print(
        "criterion 4: PASS (worst rel %.2e, order min %.3f mean %.3f, %d points, %.1f s)"
        % (worst_rel, orders.min(), orders.mean(), len(orders), elapsed)
    )


def test_criterion_05_simulation_call_budgets(corpus500):
    t0 = time.monotonic()
    splits = corpus500["splits"]
    assert splits == datagen.split(corpus500["traces"], 0)  # split is seeded
    test_ids = set(splits["test"])
    test_traces = [corpus500["by_id"][i] for i in splits["test"]]
    test_queries = [q for q in corpus500["queries"] if q.trace_ids[0] in test_ids]
    n_param = sum(q.qtype == "parameter_adjustment" for q in test_queries)

    agent = evalsuite.evaluate_agent(
        test_traces, test_queries, skills.initial_bank(),
        policy.init_params(np.random.default_rng(9)), mode="greedy", master_seed=0,
    )
    agg = evalsuite.aggregate(agent["rows"])
    assert agg["calls_per_query"] <= 1.05
    param_rows = [r for r in agent["rows"] if r["qtype"] == "parameter_adjustment"]
    assert len(param_rows) == n_param
    assert all(r["calls"] == 1 for r in param_rows)

    random_out = baselines.run_baseline("random_search", test_queries, 0)
    assert random_out["total_calls"] == 100 * n_param
    rand_cpq = evalsuite.aggregate(random_out["rows"])["calls_per_query"]
    assert rand_cpq == 100.0

    nm_out = baselines.run_baseline("nelder_mead", test_queries, 0)
    assert all(r["calls"] <= 135 for r in nm_out["rows"])

    train_traces = [corpus500["by_id"][i] for i in splits["train"]]
    sur_out = baselines.run_baseline(
        "surrogate", test_queries, 0, train_traces=train_traces
    )
    assert sur_out["training_calls"] == 2000
    assert all(r["calls"] == 1 for r in sur_out["rows"])
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(
        "criterion 5: PASS (agent %.4f/query, random 100.0, nelder-mead max %d, "
        "surrogate 1 + 2000 training, %.0f s)"
        % (agg["calls_per_query"], max(r["calls"] for r in nm_out["rows"]), elapsed)
    )


def test_criterion_06_validation_gate_rejects_and_rolls_back(
    small_corpus, monkeypatch
):
    t0 = time.monotonic()
    traces_by_id = {t.id: t for t in small_corpus["traces"]}
    cfg = trainer.PPOConfig(outer_epochs=1, inner_epochs=6, batch=16)

    def adversarial(bank, clusters, epoch, max_skills):
        return [
            skills.BankChange(op="retire", target_id=s.id)
            for s in bank.skills
            if s.action_type in ("INSERT", "UPDATE")
        ]

    monkeypatch.setattr(designer, "propose_changes", adversarial)
    report = trainer.run_closed_loop(
        traces_by_id, small_corpus["queries"], small_corpus["splits"], cfg, 0,
        ablation="full",
    )
    gate = report["epochs"][-1]["designer"]
    assert gate["j_after"] < gate["j_before"]
    assert gate["accepted"] is False
    assert report["bank_version_history"] == [0, 0]
    # bitwise rollback: the surviving bank is the pre-proposal bank
    assert json.dumps(report["final_bank"], sort_keys=True) == json.dumps(
        skills.initial_bank().as_dict(), sort_keys=True
    )

    monkeypatch.setattr(
        designer, "propose_changes", lambda bank, clusters, epoch, max_skills: []
    )
    report2 = trainer.run_closed_loop(
        traces_by_id, small_corpus["queries"], small_corpus["splits"], cfg, 0,
        ablation="full",
    )
    gate2 = report2["epochs"][-1]["designer"]
    assert gate2["j_after"] == gate2["j_before"]
    assert gate2["accepted"] is True
    assert report2["bank_version_history"] == [0, 1]
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(
        "criterion 6: PASS (harmful dJ %.3f rejected with rollback; "
        "neutral dJ 0 accepted, %.0f s)"
        % (gate["j_after"] - gate["j_before"], elapsed)
    )


def test_criterion_07_trained_controller_beats_uniform_selection(loop_runs):
    seeds = (0, 1, 2)
    full = [loop_runs[("full", s)]["agg"]["succ"] for s in seeds]
    wo = [loop_runs[("wo_controller", s)]["agg"]["succ"] for s in seeds]
    wins = sum(f > w for f, w in zip(full, wo))
    margin = float(np.mean(full) - np.mean(wo))
    assert wins >= 2
    assert margin >= 5.0
    assert loop_runs["contrast_elapsed"] < 1800.0
    print(
        "criterion 7: PASS (wins %d/3, pooled success %.2f vs %.2f, "
        "margin %.2f points, %.0f s)"
        % (wins, np.mean(full), np.mean(wo), margin, loop_runs["contrast_elapsed"])
    )


def test_criterion_08_ablation_table_is_complete_and_uniform(loop_runs):
    ablations = (
        "full", "wo_controller", "wo_designer",
        "wo_redistribution", "wo_new_action_bias",
    )
    table = {}
    reference_ids = loop_runs[("full", 0)]["query_ids"]
    for name in ablations:
        run = loop_runs[(name, 0)]
        agg = run["agg"]
        for column in evalsuite.RATE_COLUMNS:
            assert column in agg, (name, column)
        assert agg["missing_metrics"] == list(evalsuite.MISSING_METRICS)
        assert agg["n_queries"] == len(reference_ids)
        assert run["query_ids"] == reference_ids  # identical protocol and queries
        table[cli.ABLATION_LABELS[name]] = {
            col: agg[col] for col in evalsuite.RATE_COLUMNS
        }
    assert len(table) == 5
    succ_by_name = {n: loop_runs[(n, 0)]["agg"]["succ"] for n in ablations}
    print("criterion 8: PASS (5 ablation rows, shared protocol; succ %s)" % (
        {k: round(v, 2) for k, v in succ_by_name.items()},
    ))


def test_criterion_09_corpus_statistics_are_in_band(corpus500):
    t0 = time.monotonic()
    stats = {}
    for seed in (0, 1, 2):
        if seed == 0:
            traces = corpus500["traces"]
        else:
            traces = datagen.gen_corpus(500, seed, CallCounter())
        mean_spans = float(np.mean([len(t.spans) for t in traces]))
        success = float(np.mean([t.success for t in traces]))
        assert 4.5 <= mean_spans <= 6.5, (seed, mean_spans)
        assert 0.65 <= success <= 0.85, (seed, success)
        stats[seed] = (mean_spans, success)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(
        "criterion 9: PASS (%s, %.0f s)"
        % (
            "; ".join(
                f"seed {s}: spans {m:.2f}, success {p:.3f}"
                for s, (m, p) in stats.items()
            ),
            elapsed,
        )
    )


def test_criterion_10_full_runs_are_byte_deterministic(tmp_path, capsys):
    data_dir = tmp_path / "data"
    code = cli.dispatch(
        ["gen-data", "--n-traces", "80", "--seed", "11", "--out", str(data_dir)]
    )
    assert code == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "seed": 11,
                "data_dir": str(data_dir),
                "outer_epochs": 2,
                "inner_epochs": 3,
                "batch": 16,
            }
        )
    )
    outputs = []
    for run_dir in (tmp_path / "run_a", tmp_path / "run_b"):
        code = cli.dispatch(
            ["evolve", "--config", str(cfg_path), "--out", str(run_dir)]
        )
        assert code == 0
        outputs.append(
            (
                (run_dir / "results.json").read_bytes(),
                (run_dir / "bank.json").read_bytes(),
            )
        )
    capsys.readouterr()
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    print(
        "criterion 10: PASS (results.json identical, %d bytes; bank.json identical)"
        % len(outputs[0][0])
    )
