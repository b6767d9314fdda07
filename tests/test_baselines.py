"""Reference optimizers: call budgets and the shared evaluation harness."""

import hashlib

import numpy as np
import pytest

from pcfmem import baselines, datagen, evalsuite, physics, skills
from pcfmem.embed import TextVectors
from pcfmem.memory import MemoryBank
from pcfmem.physics import CallCounter, Geometry, TargetSpec

LAM = 1.55


def _target(seed=0, shift=0.0):
    rng = np.random.default_rng(seed)
    geom = Geometry(
        float(rng.uniform(1.8, 3.0)), 0.0, int(rng.integers(4, 9))
    )
    geom = Geometry(geom.pitch_um, 0.5 * geom.pitch_um, geom.n_rings)
    res = physics.simulate(geom, LAM, CallCounter())
    return TargetSpec(res.dispersion_ps_nm_km + shift, res.loss_db_km, LAM)


def test_random_search_spends_exactly_its_budget():
    counter = CallCounter()
    counter.begin_query()
    geom, res = baselines.random_search_query(
        _target(1), counter, np.random.default_rng(7)
    )
    assert counter.total_calls == baselines.RANDOM_BUDGET == 100
    assert physics.geometry_valid(geom)
    assert res.lambda_um == LAM


def test_random_search_is_seed_deterministic():
    target = _target(2)
    out = []
    for _ in range(2):
        geom, res = baselines.random_search_query(
            target, CallCounter(), np.random.default_rng(3)
        )
        out.append((geom, res.dispersion_ps_nm_km))
    assert out[0] == out[1]


def test_nelder_mead_respects_budget_and_can_converge():
    counter = CallCounter()
    geom, res, ok = baselines.nelder_mead_query(
        _target(3), counter, np.random.default_rng(11)
    )
    assert counter.total_calls <= baselines.NM_BUDGET == 135
    assert physics.geometry_valid(geom)
    assert isinstance(ok, bool)
    # a zero-shift target sits on the simplex start's manifold; across a few
    # seeds the optimizer should land at least one verified hit
    hits = 0
    for seed in range(4):
        _, _, got = baselines.nelder_mead_query(
            _target(seed), CallCounter(), np.random.default_rng(seed)
        )
        hits += got
    assert hits >= 1


def _charged_calls(monkeypatch):
    """Record every (geometry, result) the simulator is charged for."""
    calls = []
    simulate = physics.simulate

    def spy(geom, lambda_um, counter):
        res = simulate(geom, lambda_um, counter)
        calls.append((geom, res))
        return res

    monkeypatch.setattr(physics, "simulate", spy)
    return calls


# (target seed, dispersion shift, rng seed, charged calls): the first run
# converges before the cap; the last reaches the cap on the second of a
# shrink step's three calls
@pytest.mark.parametrize("case", [(1, 0.0, 2, 131), (0, 0.0, 0, 135), (5, 0.0, 4, 135)])
def test_nelder_mead_charges_the_cap_exactly_and_keeps_its_best_call(case, monkeypatch):
    target_seed, shift, seed, expected = case
    target = _target(target_seed, shift)
    calls = _charged_calls(monkeypatch)
    counter = CallCounter()
    geom, res, exhausted = baselines.nelder_mead_query(
        target, counter, np.random.default_rng(seed)
    )
    assert counter.total_calls == len(calls) == expected
    assert exhausted is (expected == baselines.NM_BUDGET == 135)
    # the answer is the first call with the lowest 1 - quality
    objective = [1.0 - physics.quality(r, target) for _, r in calls]
    assert (geom, res) == calls[objective.index(min(objective))]


# sha256 over repr((geometry, result, exhausted, calls)) of every run below;
# 3 of the 24 runs converge before the cap
NELDER_MEAD_DIGEST = "a0c09fc9d603f78b08a03953d5a62a043ce7325052fd41aaf1525b0bdbde48c9"


def test_nelder_mead_keeps_its_recorded_bits():
    reprs = []
    for target_seed in range(4):
        for shift in (0.0, 40.0):
            target = _target(target_seed, shift)
            for seed in range(3):
                counter = CallCounter()
                geom, res, exhausted = baselines.nelder_mead_query(
                    target, counter, np.random.default_rng(seed)
                )
                reprs.append(repr((geom, res, exhausted, counter.total_calls)))
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert digest == NELDER_MEAD_DIGEST


@pytest.fixture(scope="module")
def surrogate_model(small_corpus, traces_by_id):
    train = [traces_by_id[i] for i in small_corpus["splits"]["train"]]
    counter = CallCounter()
    model = baselines.train_surrogate(train, master_seed=6, counter=counter)
    return model, counter.total_calls


def test_surrogate_training_budget(surrogate_model):
    _, training_calls = surrogate_model
    assert training_calls == baselines.SURROGATE_TRAIN_SAMPLES == 2000


# sha256 of the surrogate trained at master seed 6 on the small corpus: its
# trained arrays, running statistics and y scaling, then predict on fixed inputs
SURROGATE_DIGEST = "5c72e126c8d34beaeed1a11dc37a40b6174f0e8164969ec6ba60662599cb53e3"


def _arrays(obj):
    """Every array the model holds, in whatever structure it keeps them."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)
    elif hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            yield from _arrays(value)


def test_surrogate_keeps_its_recorded_bits(surrogate_model):
    # the argmin picks in baseline_surrogate.json can hide a last-bit change
    model, _ = surrogate_model
    arrays = list(_arrays(model))
    # per layer w, b, gamma, beta and two running statistics; the head's w, b;
    # y_mean and y_std
    assert len(arrays) == 4 * 6 + 2 + 2
    # one digest per array, sorted, so moving an array between fields moves nothing
    parts = sorted(
        hashlib.sha256(f"{a.dtype}{a.shape}".encode() + a.tobytes()).hexdigest()
        for a in arrays
    )
    x = np.random.default_rng(9).uniform(0.0, 1.0, (50, 4))
    parts.append(hashlib.sha256(model.predict(x).tobytes()).hexdigest())
    assert hashlib.sha256("".join(parts).encode()).hexdigest() == SURROGATE_DIGEST


def test_trained_surrogate_keeps_its_parameter_layout():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 1.0, (40, 4))
    y = rng.normal(0.0, 1.0, (40, 3))
    model = baselines.SurrogateModel(np.random.default_rng(5))
    initial = [p.copy() for p in model.params]
    model.train(x, y, np.random.default_rng(6))
    hidden = baselines.SurrogateModel.HIDDEN
    shapes = []
    for fan_in in (4, hidden, hidden, hidden):  # w, b, gamma, beta per layer
        shapes += [(fan_in, hidden), (hidden,), (hidden,), (hidden,)]
    assert [p.shape for p in model.params] == shapes + [(hidden, 3), (3,)]
    assert all(not np.array_equal(p, q) for p, q in zip(model.params, initial))
    # predict reads the trained entries themselves
    before = model.predict(x)
    model.params[-1] += 1.0
    assert np.allclose(model.predict(x), before + model.y_std, rtol=0, atol=1e-12)


def test_surrogate_query_costs_one_call(surrogate_model):
    model, _ = surrogate_model
    counter = CallCounter()
    counter.begin_query()
    geom, res = baselines.surrogate_query(
        model, _target(4), counter, np.random.default_rng(5)
    )
    assert counter.total_calls == 1  # candidates are free; one true verification
    assert counter.per_query_calls == 1
    assert physics.geometry_valid(geom)


def test_surrogate_predictions_track_physics(surrogate_model):
    model, _ = surrogate_model
    rng = np.random.default_rng(8)
    rel_errs = []
    for _ in range(50):
        pitch = float(rng.uniform(1.4, 3.6))
        geom = Geometry(pitch, float(rng.uniform(0.15, 0.85)) * pitch,
                        int(rng.integers(3, 11)))
        lam = float(rng.uniform(1.25, 1.65))
        true = physics.simulate(geom, lam, CallCounter())
        x = baselines._features(geom.pitch_um, geom.dratio, geom.n_rings, lam)
        pred_d = float(model.predict(x)[0][2])
        rel_errs.append(abs(pred_d - true.dispersion_ps_nm_km)
                        / max(abs(true.dispersion_ps_nm_km), 1.0))
    assert float(np.median(rel_errs)) < 0.25


def test_run_baseline_filters_and_orders_param_queries(small_corpus):
    queries = [
        q for q in small_corpus["queries"]
        if q.trace_ids[0] in set(small_corpus["splits"]["test"][:8])
    ]
    out = baselines.run_baseline("random_search", queries, master_seed=0)
    param_ids = sorted(
        q.id for q in queries if q.qtype == "parameter_adjustment"
    )
    assert [r["query_id"] for r in out["rows"]] == param_ids
    assert all(r["qtype"] == "parameter_adjustment" for r in out["rows"])
    assert all(r["design"] is None and r["trend"] is None for r in out["rows"])
    assert out["total_calls"] == 100 * len(param_ids)
    assert out["training_calls"] == 0


def test_run_baseline_guards(small_corpus):
    queries = small_corpus["queries"][:3]
    with pytest.raises(ValueError):
        baselines.run_baseline("simulated_annealing", queries, master_seed=0)
    with pytest.raises(ValueError):
        baselines.run_baseline("surrogate", queries, master_seed=0)


def test_run_baseline_is_deterministic(small_corpus):
    queries = [
        q for q in small_corpus["queries"]
        if q.trace_ids[0] in set(small_corpus["splits"]["test"][:4])
    ]
    a = baselines.run_baseline("nelder_mead", queries, master_seed=2)
    b = baselines.run_baseline("nelder_mead", queries, master_seed=2)
    assert a["rows"] == b["rows"]
    assert a["total_calls"] == b["total_calls"]
    assert a["total_calls"] <= baselines.NM_BUDGET * len(a["rows"])


def test_agent_and_baseline_rows_share_one_schema(
    small_corpus, traces_by_id, surrogate_model, monkeypatch
):
    shared = set(evalsuite.RATE_COLUMNS) | {
        "answer_text", "passed", "query_id", "trace_id", "qtype",
    }
    first = {}
    for q in small_corpus["queries"]:
        first.setdefault(q.qtype, q)
    assert sorted(first) == sorted(datagen.QUERY_TYPES)
    agent_rows = {
        qtype: evalsuite.answer_row(
            q, evalsuite.answer_query(MemoryBank(), q, CallCounter(), TextVectors())
        )
        for qtype, q in first.items()
    }
    for row in agent_rows.values():
        assert shared <= row.keys()
    agent_design = agent_rows["parameter_adjustment"].keys()
    # eval_*.json design rows add the attempt; baseline rows add nothing
    q = first["parameter_adjustment"]
    evaluated = evalsuite.evaluate_agent(
        [traces_by_id[q.trace_ids[0]]], [q], skills.initial_bank(), None
    )["rows"]
    assert evaluated[0].keys() == agent_design | {"proposal", "sim", "target", "retrieved"}

    monkeypatch.setattr(baselines, "train_surrogate", lambda *a: surrogate_model[0])
    test_ids = set(small_corpus["splits"]["test"][:3])
    queries = [q for q in small_corpus["queries"] if q.trace_ids[0] in test_ids]
    train = [traces_by_id[small_corpus["splits"]["train"][0]]]
    for kind in baselines.BASELINE_KINDS:
        rows = baselines.run_baseline(kind, queries, 0, train)["rows"]
        assert rows
        for row in rows:
            assert shared <= row.keys()
            assert row.keys() == agent_design
