"""Failure taxonomy, clustering order, and change proposals."""

import numpy as np
import pytest

from pcfmem import datagen, designer, memory, skills
from pcfmem.designer import DesignAttempt, FailureBuffer, FailureCase, FailureCluster
from pcfmem.memory import MemoryEntry, MemoryKey
from pcfmem.physics import CallCounter, Geometry, SimResult, TargetSpec

PROPOSAL = Geometry(2.3, 1.15, 6)
TARGET = TargetSpec(
    dispersion_ps_nm_km=60.0,
    loss_db_km=0.02,
    lambda_um=1.55,
    tol_dispersion=5.0,
    tol_loss=1e-3,
)
SIM = SimResult(n_eff=1.44, dispersion_ps_nm_km=100.0, loss_db_km=0.02, lambda_um=1.55)


def _trend(direction, param="pitch", metric="n_eff", kind="trend", **kw):
    """A planted note as the corpus stores it."""
    return {
        "kind": kind,
        "direction": direction,
        "key": {"param": param, "metric": metric, "lambda_bucket": "1.55-band", "regime": "mid"},
        "contradictions": kw.get("contradictions", 0),
    }


def _entry(direction, param="pitch", metric="n_eff", kind="trend", contradictions=0):
    return MemoryEntry(
        id=1,
        key=MemoryKey(param, metric, "1.55-band", "mid"),
        kind=kind,
        statement=f"{metric} moves with {param}",
        direction=direction,
        slope=0.0,
        contradictions=contradictions,
    )


def _attempt(retrieved):
    return DesignAttempt(PROPOSAL, SIM, TARGET, retrieved)


def test_classify_failure_wrong_trend_probes_env():
    c = CallCounter()
    # claims n_eff falls with pitch; the simulator disagrees
    got = designer.classify_failure(_attempt([_entry(-1)]), c)
    assert got == "wrong_trend"
    assert c.total_calls == 2  # one central probe


def test_classify_failure_missing_constraint():
    c = CallCounter()
    got = designer.classify_failure(_attempt([_entry(+1)]), c)
    assert got == "missing_constraint"  # trend agrees, no constraint retrieved
    assert c.total_calls == 2
    assert designer.classify_failure(_attempt([]), CallCounter()) == (
        "missing_constraint"
    )


def test_classify_failure_outdated_and_spurious():
    stale = _entry(0, kind="boundary", contradictions=2)
    fresh = _entry(0, kind="boundary")
    assert (
        designer.classify_failure(_attempt([stale]), CallCounter())
        == "outdated_knowledge"
    )
    assert (
        designer.classify_failure(_attempt([fresh]), CallCounter())
        == "spurious_memory"
    )


def test_classify_planted_four_ways():
    bank = memory.MemoryBank()
    memory.apply_edits(
        bank,
        [
            memory.MemoryEdit(
                op="INSERT",
                entry=memory.MemoryEntry(
                    id=0,
                    key=memory.MemoryKey("pitch", "n_eff", "1.55-band", "mid"),
                    kind="param_map",
                    statement="n_eff rises with pitch",
                    direction=1,
                    slope=0.0,
                ),
            )
        ],
    )
    wrong = _trend(-1)
    assert designer.classify_planted(wrong, bank) == "wrong_trend"
    # without corroborating memory the inversion is undetectable
    assert designer.classify_planted(wrong, memory.MemoryBank()) != "wrong_trend"

    invalid_geom = dict(
        _trend(+1), geom={"pitch_um": 2.0, "hole_d_um": 1.9, "n_rings": 6}
    )
    assert designer.classify_planted(invalid_geom, bank) == "missing_constraint"

    contradicted = dict(_trend(+1), contradictions=2)
    assert designer.classify_planted(contradicted, bank) == "outdated_knowledge"

    bland = _trend(+1)
    assert designer.classify_planted(bland, bank) == "spurious_memory"


def test_classify_planted_reads_a_geometry_of_no_numbers_as_invalid():
    # a null coordinate raised TypeError out of eval
    geom = {"pitch_um": None, "hole_d_um": 1.15, "n_rings": 6}
    assert designer.classify_planted(dict(_trend(+1), geom=geom), memory.MemoryBank()) == (
        "missing_constraint"
    )


def test_buffer_evicts_easiest_case():
    buf = FailureBuffer(capacity=3)

    for d in (5.0, 1.0, 3.0, 9.0):
        buf.add(FailureCase(failure_type="spurious_memory", regime="mid", difficulty=d))
    assert len(buf) == 3
    assert sorted(c.difficulty for c in buf.cases) == [3.0, 5.0, 9.0]


def test_collect_failures_classifies_in_order():
    counter = CallCounter()
    attempts = [_attempt([]), _attempt([_entry(-1)])]
    buf = designer.collect_failures(attempts, counter)
    assert len(buf) == 2
    case = buf.cases[0]
    assert case.failure_type == "missing_constraint"
    assert case.difficulty == pytest.approx(8.0)  # 40 / 5 dispersion tolerance units
    assert case.regime == "mid"
    assert buf.cases[1].failure_type == "wrong_trend"
    assert counter.total_calls == 2  # only the trend entry is probed


def _mk_cluster(ftype, regime, difficulties):
    cases = [
        FailureCase(failure_type=ftype, regime=regime, difficulty=d) for d in difficulties
    ]
    return FailureCluster(failure_type=ftype, regime=regime, cases=cases)


def test_cluster_ordering():
    buf = FailureBuffer()
    specs = [
        ("wrong_trend", "mid", [2.0, 2.0, 2.0]),
        ("missing_constraint", "low", [9.0, 9.0, 9.0]),
        ("spurious_memory", "high", [30.0]),
    ]
    for ftype, regime, diffs in specs:
        for d in diffs:
            buf.add(FailureCase(failure_type=ftype, regime=regime, difficulty=d))
    clusters = designer.cluster_failures(buf)
    # size first, then total difficulty breaks the 3-3 tie
    assert [(c.failure_type, c.size) for c in clusters] == [
        ("missing_constraint", 3),
        ("wrong_trend", 3),
        ("spurious_memory", 1),
    ]


def test_change_mapping_wrong_trend():
    bank = skills.initial_bank()
    ch = designer._change_for_cluster(bank, "wrong_trend", epoch=1, pending=[])
    assert ch.op == "replace"
    assert ch.target_id == "update_performance_trend_v1"
    assert ch.skill.params["regime_aware"] == 1
    assert ch.skill.id == "update_performance_trend_v2"
    # once regime-aware, no further proposal
    upgraded = skills.mutate(bank, [ch])
    assert designer._change_for_cluster(upgraded, "wrong_trend", 2, []) is None


def test_change_mapping_missing_constraint():
    bank = skills.initial_bank()
    ch = designer._change_for_cluster(bank, "missing_constraint", 1, [])
    assert ch.op == "add"
    assert ch.skill.template_id == "insert_boundary"
    with_boundary = skills.mutate(bank, [ch])
    assert designer._change_for_cluster(with_boundary, "missing_constraint", 2, []) is None


def test_change_mapping_outdated():
    bank = skills.initial_bank()
    ch = designer._change_for_cluster(bank, "outdated_knowledge", 1, [])
    assert ch.op == "replace"
    assert ch.target_id == "delete_invalid_assumption_v1"
    assert ch.skill.params["theta_del"] == 2
    hardened = skills.mutate(bank, [ch])
    assert designer._change_for_cluster(hardened, "outdated_knowledge", 2, []) is None


def test_change_mapping_spurious_escalates_then_adds_skip():
    bank = skills.initial_bank()
    theta_seen = []
    for _ in range(4):
        ch = designer._change_for_cluster(bank, "spurious_memory", 1, [])
        assert ch.op == "replace"
        theta_seen.append(ch.skill.params["theta_sig"])
        bank = skills.mutate(bank, [ch])
    assert theta_seen == [0.5, 1.0, 1.5, 2.0]
    # cap reached: next remedy is a second NOOP skill
    ch = designer._change_for_cluster(bank, "spurious_memory", 2, [])
    assert ch.op == "add"
    assert ch.skill.action_type == "NOOP"
    bank = skills.mutate(bank, [ch])
    # with two NOOPs and a capped threshold, nothing is left to propose
    assert designer._change_for_cluster(bank, "spurious_memory", 3, []) is None


def test_designer_can_propose_every_catalog_entry():
    # the catalog holds only what an evolving bank can reach from the seed
    name_of = {r.description: name for name, r in skills.CATALOG.items()}
    bank = skills.initial_bank()
    reached = set()
    for epoch in range(1, 6):
        for ftype in datagen.FAILURE_TYPES:
            ch = designer._change_for_cluster(bank, ftype, epoch, [])
            if ch is not None:
                reached.add(name_of[ch.skill.description])
                bank = skills.mutate(bank, [ch])
    assert reached == set(skills.CATALOG_NAMES)


def test_propose_changes_respects_top_clusters_and_cap():
    bank = skills.initial_bank()
    clusters = [
        _mk_cluster("wrong_trend", "mid", [3.0, 3.0]),
        _mk_cluster("missing_constraint", "low", [2.0]),
        _mk_cluster("outdated_knowledge", "high", [1.0]),  # rank 3: ignored
    ]
    changes = designer.propose_changes(bank, clusters, epoch=1)
    assert len(changes) == 2
    assert {c.op for c in changes} == {"replace", "add"}
    # additions respect the bank size cap
    capped = designer.propose_changes(bank, clusters, epoch=1, max_skills=4)
    assert all(c.op != "add" for c in capped)


def test_propose_changes_identity_for_empty_clusters():
    assert designer.propose_changes(skills.initial_bank(), [], epoch=1) == []


def test_new_action_bias_decays_and_targets_new_skills():
    bank = skills.initial_bank()
    ch = designer._change_for_cluster(bank, "missing_constraint", 1, [])
    bank2 = skills.mutate(bank, [ch])
    idx = bank2.ids().index(ch.skill.id)

    b0 = designer.new_action_bias(bank2, epoch=1, inner_epoch=0)
    b3 = designer.new_action_bias(bank2, epoch=1, inner_epoch=3)
    assert b0[idx] == pytest.approx(1.0)
    assert b3[idx] == pytest.approx(0.125)
    assert np.count_nonzero(b0) == 1
    # other epochs get no bias
    assert np.all(designer.new_action_bias(bank2, epoch=2, inner_epoch=0) == 0.0)
    assert np.all(designer.new_action_bias(bank, epoch=1, inner_epoch=0) == 0.0)
