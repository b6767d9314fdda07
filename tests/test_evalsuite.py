"""Protocol metrics and the per-type answering paths."""

import dataclasses
import random

import numpy as np
import pytest

from pcfmem import datagen, embed, evalsuite, physics, rollout, skills
from pcfmem.datagen import Query
from pcfmem.embed import TextVectors
from pcfmem.memory import MemoryBank, MemoryEntry, MemoryKey
from pcfmem.physics import CallCounter, Geometry, SimResult, TargetSpec

LAM = 1.55


def test_token_f1():
    assert evalsuite.token_f1("a b c", "b c d") == pytest.approx(2.0 / 3.0)
    assert evalsuite.token_f1("same words", "same words") == 1.0
    assert evalsuite.token_f1("", "anything") == 0.0
    assert evalsuite.token_f1("anything", "") == 0.0
    # multiset: repeated tokens must not inflate the overlap
    # overlap 1, precision 1/4, recall 1/2 -> f1 = 1/3
    assert evalsuite.token_f1("a a a a", "a b") == pytest.approx(1 / 3)


def test_concept_coverage():
    assert evalsuite.concept_coverage("raise the pitch to cut loss") == pytest.approx(2 / 7)
    assert evalsuite.concept_coverage("widen the hole diameter") == pytest.approx(1 / 7)
    assert evalsuite.concept_coverage(
        "the design targets dispersion and loss at wavelength 1 55 um"
    ) == pytest.approx(3 / 7)
    assert evalsuite.concept_coverage("") == 0.0


def _coverage_reference(pred: str) -> float:
    """The windowed scan: each form against every token window of its length."""
    tokens = embed.tokenize(pred)

    def contains(form):
        n = len(form)
        return any(tuple(tokens[i : i + n]) == form for i in range(len(tokens) - n + 1))

    hit = sum(1 for forms in evalsuite.CONCEPT_FORMS.values() if any(map(contains, forms)))
    return hit / len(evalsuite.CONCEPT_FORMS)


def test_concept_coverage_matches_the_windowed_scan():
    forms = [f for fs in evalsuite.CONCEPT_FORMS.values() for f in fs]
    assert all(len(f) in (1, 2) for f in forms)
    words = sorted({w for f in forms for w in f}) + ["the", "a", "of", "to", "pitch2", "neff"]
    rng = random.Random(20)
    for _ in range(2000):
        pred = rng.choice(["", " ", "; "]).join(
            rng.choice(words).upper() if rng.random() < 0.1 else rng.choice(words)
            for _ in range(rng.randint(0, 12))
        )
        assert evalsuite.concept_coverage(pred) == _coverage_reference(pred), pred


def test_param_accuracy_strict_band():
    truth = {"pitch_um": 2.0, "hole_d_um": 1.0, "n_rings": 6}
    exact = physics.geometry_from_dict(truth)
    assert evalsuite.param_accuracy(exact, truth) == 1.0
    one_off = Geometry(2.19, 1.0, 6)  # 9.5% off
    assert evalsuite.param_accuracy(one_off, truth) == pytest.approx(1.0)
    too_far = Geometry(2.2, 1.0, 6)  # exactly 10%
    assert evalsuite.param_accuracy(too_far, truth) == pytest.approx(2 / 3)
    assert evalsuite.param_accuracy(Geometry(3.0, 2.0, 9), truth) == 0.0


def test_success_quality():
    target = TargetSpec(50.0, 0.02, LAM)
    res_half = SimResult(
        n_eff=1.43, dispersion_ps_nm_km=0.0, loss_db_km=0.02, lambda_um=LAM
    )
    ok, q = evalsuite.success_quality(res_half, target)
    assert not ok
    assert q == pytest.approx(0.5, abs=1e-6)
    res_exact = SimResult(
        n_eff=1.43, dispersion_ps_nm_km=50.0, loss_db_km=0.02, lambda_um=LAM
    )
    ok, q = evalsuite.success_quality(res_exact, target)
    assert ok
    assert q == pytest.approx(1.0, abs=1e-9)


def _mk_query(qtype, gt, qid="t00000-q0", text="question text", answer="answer"):
    return Query(
        id=qid, trace_ids=["t00000"], qtype=qtype, text=text,
        ground_truth=gt, answer_text=answer, difficulty="easy",
    )


def _trend_entry(eid, direction, param="pitch", metric="dispersion"):
    return MemoryEntry(
        id=eid,
        key=MemoryKey(param, metric, "1.55-band", "mid"),
        kind="trend",
        statement=f"{metric} moves with {param} case {eid}",
        direction=direction,
        slope=direction * 10.0,
    )


def _answer(bank, query, counter=None):
    """The Answer answer_query gives, with a fresh text memo."""
    return evalsuite.answer_query(bank, query, counter or CallCounter(), TextVectors())


def test_answer_trend_majority_vote():
    query = _mk_query(
        "trend_prediction",
        {"direction": 1, "param": "pitch", "metric": "dispersion", "lambda_um": LAM},
        text="if pitch increases does dispersion increase or decrease",
        answer="dispersion will increase when pitch increases",
    )
    bank = MemoryBank()
    bank.entries = [_trend_entry(1, 1), _trend_entry(2, 1), _trend_entry(3, -1)]
    bank.next_id = 4
    ans = _answer(bank, query)
    assert ans.passed is True
    assert ans.rates["trend"] == 1.0
    assert ans.rates["phys"] == 1.0
    assert "increase" in ans.text

    bank.entries = [_trend_entry(1, -1), _trend_entry(2, -1), _trend_entry(3, 1)]
    ans = _answer(bank, query)
    assert ans.passed is False
    assert "decrease" in ans.text

    ans = _answer(MemoryBank(), query)
    assert ans.passed is False
    assert "unknown" in ans.text


def test_answer_param_uses_stored_design_and_charges_once():
    goal = Geometry(2.6, 1.43, 7)
    res = physics.simulate(goal, LAM, CallCounter())
    target = TargetSpec(res.dispersion_ps_nm_km, res.loss_db_km, LAM)
    bank = MemoryBank()
    bank.entries = [
        MemoryEntry(
            id=1,
            key=MemoryKey("pitch", "dispersion", "1.55-band", "mid"),
            kind="param_map",
            statement="stored design near the target",
            direction=1,
            slope=5.0,
            geom=goal.as_dict(),
            observed={
                "dispersion": res.dispersion_ps_nm_km,
                "loss": res.loss_db_km,
                "n_eff": res.n_eff,
                "miss": 0.0,
            },
        )
    ]
    bank.next_id = 2
    query = _mk_query(
        "parameter_adjustment",
        {"reference_geometry": goal.as_dict(), "target": target.as_dict()},
    )
    counter = CallCounter()
    ans = _answer(bank, query, counter)
    assert counter.total_calls == 1  # exactly one verification
    assert ans.calls == 1
    assert ans.rates["succ"] == 1.0
    assert ans.rates["param"] == 1.0
    assert ans.passed is True
    assert ans.attempt.geom == goal
    assert ans.attempt.retrieved == bank.entries  # the bank's own entries
    assert evalsuite.answer_row(query, ans)["succ"] == 1.0


def test_answer_param_fallback_is_single_call():
    res = physics.simulate(Geometry(2.6, 1.43, 7), LAM, CallCounter())
    target = TargetSpec(res.dispersion_ps_nm_km + 40.0, res.loss_db_km, LAM)
    query = _mk_query(
        "parameter_adjustment",
        {
            "reference_geometry": Geometry(2.6, 1.43, 7).as_dict(),
            "target": target.as_dict(),
        },
    )
    counter = CallCounter()
    ans = _answer(MemoryBank(), query, counter)
    assert counter.total_calls == 1
    assert ans.attempt is not None
    assert physics.geometry_valid(ans.attempt.geom)


def test_answer_param_slope_correction():
    # stored point misses the dispersion target; a slope entry fixes it
    base = Geometry(2.3, 1.15, 6)
    c = CallCounter()
    res = physics.simulate(base, LAM, c)
    # true local slope of dispersion wrt pitch
    res_hi = physics.simulate(base.with_param("pitch", 2.35), LAM, c)
    slope = (res_hi.dispersion_ps_nm_km - res.dispersion_ps_nm_km) / 0.05
    want_d = res.dispersion_ps_nm_km + slope * 0.2  # reachable by pitch + 0.2
    target = TargetSpec(want_d, res.loss_db_km, LAM, tol_loss=1.0)
    bank = MemoryBank()
    bank.entries = [
        MemoryEntry(
            id=1,
            key=MemoryKey("pitch", "dispersion", "1.55-band", "mid"),
            kind="param_map",
            statement="observed design some way from target",
            direction=int(np.sign(slope)),
            slope=slope,
            geom=base.as_dict(),
            observed={
                "dispersion": res.dispersion_ps_nm_km,
                "loss": res.loss_db_km,
                "n_eff": res.n_eff,
                "miss": abs(want_d - res.dispersion_ps_nm_km) / 5.0,
            },
        )
    ]
    bank.next_id = 2
    query = _mk_query(
        "parameter_adjustment",
        {"reference_geometry": base.as_dict(), "target": target.as_dict()},
    )
    counter = CallCounter()
    ans = _answer(bank, query, counter)
    assert counter.total_calls == 1
    assert ans.attempt.geom.pitch_um == pytest.approx(2.5, abs=0.02)


def test_answer_reasoning_coverage_gate():
    bank = MemoryBank()
    bank.entries = [
        MemoryEntry(
            id=1,
            key=MemoryKey("pitch", "dispersion", "1.55-band", "mid"),
            kind="param_map",
            statement="larger pitch lowers dispersion and raises loss",
            direction=-1,
            slope=-10.0,
        ),
        MemoryEntry(
            id=2,
            key=MemoryKey("n_rings", "loss", "1.55-band", "mid"),
            kind="param_map",
            statement="more rings cut loss while n_eff stays put",
            direction=-1,
            slope=-0.01,
        ),
    ]
    bank.next_id = 3
    query = _mk_query(
        "design_reasoning",
        {"concepts": list(datagen.CONCEPT_KEYS)},
        text="explain the design at 1.55 um",
    )
    ans = _answer(bank, query)
    # pitch, dispersion, loss, rings, n_eff from memory + wavelength context
    assert ans.rates["design"] >= 6 / 7 - 1e-9
    assert ans.passed is True
    assert "wavelength" in ans.text

    ans = _answer(MemoryBank(), query)
    assert ans.rates["design"] < 0.5
    assert ans.passed is False


def test_answer_failure_uses_bank_evidence():
    planted = {
        "kind": "trend",
        "direction": -1,
        "key": {
            "param": "pitch", "metric": "n_eff",
            "lambda_bucket": "1.55-band", "regime": "mid",
        },
        "contradictions": 0,
        "geom": Geometry(2.3, 1.15, 6).as_dict(),
        "support_count": 3,
        "confidence": 0.6,
    }
    query = _mk_query(
        "failure_analysis",
        {"failure_type": "wrong_trend", "planted_entry": planted},
        answer="the note is a wrong trend",
    )
    informed = MemoryBank()
    informed.entries = [_trend_entry(1, 1, metric="n_eff")]
    informed.next_id = 2
    ans = evalsuite._answer_failure(informed, query)
    assert ans.passed is True
    assert "wrong trend" in ans.text
    # an empty bank cannot corroborate, so the note reads as spurious
    ans = evalsuite._answer_failure(MemoryBank(), query)
    assert ans.passed is False


def test_answer_query_dispatch_and_row_tagging():
    query = _mk_query(
        "trend_prediction",
        {"direction": 1, "param": "pitch", "metric": "dispersion", "lambda_um": LAM},
    )
    row = evalsuite.answer_row(query, _answer(MemoryBank(), query))
    assert row["query_id"] == query.id
    assert row["trace_id"] == "t00000"
    assert row["qtype"] == "trend_prediction"
    bogus = _mk_query("oracle_request", {})
    with pytest.raises(ValueError):
        _answer(MemoryBank(), bogus)


def test_answers_embed_each_query_text_once(monkeypatch):
    embedded = []
    embed_text = embed.embed_text
    monkeypatch.setattr(
        embed, "embed_text", lambda text: embedded.append(text) or embed_text(text)
    )
    query = _mk_query(
        "trend_prediction",
        {"direction": 1, "param": "pitch", "metric": "dispersion", "lambda_um": LAM},
    )
    bank = MemoryBank()
    bank.entries = [_trend_entry(1, 1)]
    bank.next_id = 2
    texts = TextVectors()
    answers = [evalsuite.answer_query(bank, query, CallCounter(), texts) for _ in range(2)]
    assert answers[0] == answers[1]
    assert answers[0].passed is True
    assert embedded.count(query.text) == 1
    assert texts[query.text] is texts[query.text]


def test_episode_queries_counts_and_fraction():
    goal = Geometry(2.6, 1.43, 7)
    res = physics.simulate(goal, LAM, CallCounter())
    target = TargetSpec(res.dispersion_ps_nm_km, res.loss_db_km, LAM)
    queries = [
        _mk_query(
            "trend_prediction",
            {"direction": 1, "param": "pitch", "metric": "dispersion", "lambda_um": LAM},
            qid="t00000-q0",
        ),
        _mk_query(
            "parameter_adjustment",
            {"reference_geometry": goal.as_dict(), "target": target.as_dict()},
            qid="t00000-q1",
        ),
    ]
    counter = CallCounter()
    r_final, answered = evalsuite.episode_queries(
        MemoryBank(), queries, counter, TextVectors()
    )
    assert len(answered) == 2
    assert [q.id for q, _ in answered] == ["t00000-q0", "t00000-q1"]
    assert answered[0][1].calls == 0  # trend answers are free
    assert answered[1][1].calls == 1  # one verification
    assert counter.total_calls == 1
    assert r_final in (0.0, 0.5, 1.0)
    assert evalsuite.episode_queries(MemoryBank(), [], CallCounter(), TextVectors())[0] == 0.0


def test_evaluate_agent_rows_sorted_and_deterministic(small_corpus, traces_by_id):
    test_ids = small_corpus["splits"]["test"][:6]
    traces = [traces_by_id[i] for i in test_ids]
    queries = [q for q in small_corpus["queries"] if q.trace_ids[0] in test_ids]
    bank = skills.initial_bank()
    out1 = evalsuite.evaluate_agent(traces, queries, bank, None, master_seed=9)
    out2 = evalsuite.evaluate_agent(traces, queries, bank, None, master_seed=9)
    assert out1["rows"] == out2["rows"]
    assert out1["total_calls"] == out2["total_calls"]
    ids = [r["query_id"] for r in out1["rows"]]
    assert ids == sorted(ids)
    assert len(ids) == len(queries)


def test_eval_seeds_each_trace_id_apart(small_corpus, traces_by_id, monkeypatch):
    base = traces_by_id[small_corpus["splits"]["test"][0]]
    traces = [dataclasses.replace(base, id=i) for i in ("a", "b", "t00007")]
    states = {}
    real_run_episode = rollout.run_episode

    def spy(batch, *args, **kwargs):
        for trace, rng in zip(batch, kwargs["rngs"]):
            states[trace.id] = rng.bit_generator.state
        return real_run_episode(batch, *args, **kwargs)

    monkeypatch.setattr(rollout, "run_episode", spy)
    evalsuite.evaluate_agent(
        traces, [], skills.initial_bank(), None, master_seed=9
    )
    # non-numeric ids must not share one stream
    assert states["a"] != states["b"]
    # t<digits> ids keep their numeric key, so eval outputs do not move
    ref = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(4, 7)))
    assert states["t00007"] == ref.bit_generator.state


def test_aggregate_scaling_and_none_columns():
    rows = [
        {"f1": 0.5, "design": None, "param": 1.0, "trend": None, "succ": 1.0,
         "qual": 0.75, "phys": 1.0, "calls": 1},
        {"f1": 0.25, "design": None, "param": None, "trend": 1.0, "succ": None,
         "qual": None, "phys": 0.0, "calls": 0},
    ]
    report = evalsuite.aggregate(rows)
    assert report["f1"] == pytest.approx(37.5)
    assert report["design"] is None
    assert report["param"] == pytest.approx(100.0)
    assert report["trend"] == pytest.approx(100.0)
    assert report["succ"] == pytest.approx(100.0)
    assert report["qual"] == pytest.approx(75.0)
    assert report["phys"] == pytest.approx(50.0)
    assert report["calls_per_query"] == pytest.approx(0.5)
    assert report["n_queries"] == 2
    assert report["missing_metrics"] == ["judge", "human"]
    empty = evalsuite.aggregate([])
    assert empty["f1"] is None
    assert empty["calls_per_query"] == 0.0
    assert empty["n_queries"] == 0
