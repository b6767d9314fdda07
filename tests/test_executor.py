"""Rule-based skill execution on real simulator spans, and process rewards."""

import pytest

from pcfmem import datagen, executor, memory, physics, skills
from pcfmem.memory import MemoryBank, MemoryEntry, MemoryKey
from pcfmem.physics import CallCounter, Geometry, TargetSpec

LAM = 1.55


def make_span(param="pitch", start=Geometry(2.3, 1.15, 6), step=0.05, lam=LAM):
    c = CallCounter()
    g0 = start
    g1 = g0.with_param(param, g0.param(param) + step)
    s0 = physics.simulate(g0, lam, c)
    s1 = physics.simulate(g1, lam, c)
    text = f"step: move {param} from {g0.param(param):.4g} to {g1.param(param):.4g}"
    return datagen.Span(0, text, param, g0.param(param), g1.param(param), g0, g1, s0, s1)


def on_target(span):
    """Target met exactly at the span's end state."""
    return TargetSpec(
        span.sim_after.dispersion_ps_nm_km, span.sim_after.loss_db_km, span.sim_after.lambda_um
    )


def execute(span, retrieved, selected, target):
    """The executor's edits for ``span`` judged against ``target``."""
    return executor.execute(executor.span_evidence(span, target), retrieved, selected)


def skill_by_template(template_id, bank=None):
    bank = bank or skills.initial_bank()
    for s in bank.skills:
        if s.template_id == template_id:
            return s
    raise KeyError(template_id)


def test_span_evidence_signs_follow_simulation():
    span = make_span("pitch")
    ev = executor.span_evidence(span, on_target(span))
    # at this operating point a pitch increase raises n_eff and loss and
    # lowers dispersion; the evidence must mirror the simulated deltas
    assert ev.signs == {"dispersion": -1, "loss": 1, "n_eff": 1}
    assert ev.regime == "mid"
    assert ev.bucket == "1.55-band"
    assert ev.miss_after == 0.0
    assert not ev.at_bound
    for m in physics.METRICS:
        assert ev.slopes[m] == pytest.approx(ev.deltas[m] / 0.05, rel=1e-12)


def test_span_evidence_detects_bounds():
    span = make_span("n_rings", start=Geometry(2.3, 1.15, 9), step=1.0)
    ev = executor.span_evidence(span, on_target(span))
    assert ev.at_bound  # landed on the ring cap


def test_insert_rule_emits_one_edit_per_moved_metric():
    span = make_span("pitch")
    edits = execute(
        span=span,
        retrieved=[],
        selected=[skill_by_template("insert_param_map")],
        target=on_target(span),
    )
    assert not any(e.op == "NOOP" for e in edits)  # no skip categories
    assert len(edits) == 3
    by_metric = {e.entry.key.metric: e.entry for e in edits}
    assert set(by_metric) == {"dispersion", "loss", "n_eff"}
    assert by_metric["dispersion"].direction == -1
    assert by_metric["loss"].direction == 1
    assert by_metric["n_eff"].direction == 1
    for e in edits:
        assert e.op == "INSERT"
        assert e.entry.kind == "param_map"
        assert e.entry.key.param == "pitch"
        assert e.entry.geom == span.geom_after.as_dict()
        assert e.entry.observed["miss"] == 0.0


def test_duplicate_insert_reward_arithmetic():
    span = make_span("pitch")
    ev = executor.span_evidence(span, on_target(span))
    mem = MemoryBank()
    # pre-seed one of the three keys so exactly one insert collides
    memory.apply_edits(
        mem,
        [
            memory.MemoryEdit(
                op="INSERT",
                entry=MemoryEntry(
                    id=0,
                    key=MemoryKey("pitch", "n_eff", ev.bucket, ev.regime),
                    kind="param_map",
                    statement="already known",
                    direction=1,
                    slope=0.0,
                ),
            )
        ],
    )
    edits = execute(
        span=span,
        retrieved=[],
        selected=[skill_by_template("insert_param_map")],
        target=on_target(span),
    )
    _, outcomes = memory.apply_edits(mem, edits)
    categories = executor.events_from_outcomes(edits, outcomes)
    assert sorted(categories) == ["accepted", "accepted", "duplicate"]
    # 2 * 0.05 - 0.05
    assert executor.process_reward(categories) == pytest.approx(0.05)


def test_skip_rule_correct_and_incorrect():
    span = make_span("pitch")
    base = skill_by_template("skip_span")
    quiet = skills.Skill(
        id="skip_hi_v1", name="Skip", action_type="NOOP", description="d",
        template_id="skip_span", params={"theta_noise": 1e9},
    )
    loud = skills.Skill(
        id="skip_lo_v1", name="Skip", action_type="NOOP", description="d",
        template_id="skip_span", params={"theta_noise": 0.0},
    )
    for sk, correct in ((quiet, True), (loud, False)):
        edits = execute(span=span, retrieved=[], selected=[sk], target=on_target(span))
        assert len(edits) == 1 and edits[0].op == "NOOP"
        assert edits[0].skip_correct is correct
        _, outcomes = memory.apply_edits(MemoryBank(), edits)
        categories = executor.events_from_outcomes(edits, outcomes)
        assert categories == ["correct_skip" if correct else "incorrect_skip"]
        want = 0.02 if correct else -0.02
        assert executor.process_reward(categories) == pytest.approx(want)
    assert base.params["theta_noise"] == 1.0


def test_update_rule_supports_and_halves():
    span = make_span("pitch")
    ev = executor.span_evidence(span, on_target(span))
    agree = MemoryEntry(
        id=1,
        key=MemoryKey("pitch", "dispersion", ev.bucket, ev.regime),
        kind="param_map",
        statement="pitch lowers dispersion",
        direction=-1,
        slope=-10.0,
        support_count=1,
        confidence=0.5,
    )
    disagree = MemoryEntry(
        id=2,
        key=MemoryKey("pitch", "loss", ev.bucket, ev.regime),
        kind="trend",
        statement="pitch lowers loss",
        direction=-1,  # simulation says +1 here
        slope=-1.0,
        support_count=2,
        confidence=0.8,
    )
    edits = execute(
        span=span,
        retrieved=[agree, disagree],
        selected=[skill_by_template("update_trend")],
        target=on_target(span),
    )
    assert len(edits) == 2
    up_agree = next(e for e in edits if e.target_id == 1)
    up_disagree = next(e for e in edits if e.target_id == 2)
    assert up_agree.op == "UPDATE"
    assert up_agree.changes["support_count"] == 2
    assert up_agree.changes["slope"] == pytest.approx((-10.0 + ev.slopes["dispersion"]) / 2.0)
    assert up_agree.changes["confidence"] == pytest.approx(2.0 / 5.0)
    assert up_disagree.changes == {"confidence": pytest.approx(0.4)}  # halved from 0.8


def test_delete_rule_contradiction_ladder():
    span = make_span("pitch")
    ev = executor.span_evidence(span, on_target(span))

    def stale_entry(contradictions):
        return MemoryEntry(
            id=5,
            key=MemoryKey("pitch", "loss", ev.bucket, ev.regime),
            kind="trend",
            statement="pitch lowers loss",
            direction=-1,  # contradicted by the span
            slope=-1.0,
            contradictions=contradictions,
        )

    strict = skills.Skill(
        id="delete_x_v1", name="D", action_type="DELETE", description="d",
        template_id="delete_invalid", params={"theta_del": 2},
    )
    # first contradiction only records the strike
    edits = execute(
        span=span, retrieved=[stale_entry(0)], selected=[strict], target=on_target(span)
    )
    assert len(edits) == 1
    assert edits[0].op == "UPDATE"
    assert edits[0].changes == {"contradictions": 1}
    # second contradiction crosses theta_del and deletes, with a reason
    edits = execute(
        span=span, retrieved=[stale_entry(1)], selected=[strict], target=on_target(span)
    )
    assert edits[0].op == "DELETE"
    assert edits[0].target_id == 5
    assert "contradicted" in edits[0].rationale
    # the default bank deletes on the first strike (theta_del = 1)
    edits = execute(
        span=span,
        retrieved=[stale_entry(0)],
        selected=[skill_by_template("delete_invalid")],
        target=on_target(span),
    )
    assert edits[0].op == "DELETE"


def test_boundary_rule_fires_on_missed_target():
    span = make_span("pitch")
    far = TargetSpec(
        span.sim_after.dispersion_ps_nm_km + 100.0,
        span.sim_after.loss_db_km,
        span.sim_after.lambda_um,
    )
    boundary_skill = skills.make_catalog_skill("failure_boundary_insert", 1, 1)
    edits = execute(span=span, retrieved=[], selected=[boundary_skill], target=far)
    assert len(edits) == 1
    assert edits[0].op == "INSERT"
    entry = edits[0].entry
    assert entry.kind == "boundary"
    assert entry.key.metric == "dispersion"  # the worse-missed metric
    assert entry.slope == pytest.approx(20.0)  # 100 / tol_D
    # on-target span produces nothing
    edits = execute(
        span=span, retrieved=[], selected=[boundary_skill], target=on_target(span)
    )
    assert edits == []


def test_every_template_has_a_rule():
    assert set(executor._RULES) == set(skills.TEMPLATES)


def test_process_reward_clamps():
    plus = ["accepted"] * 8
    minus = ["rejected"] * 8
    assert executor.process_reward(plus) == pytest.approx(0.2)
    assert executor.process_reward(minus) == pytest.approx(-0.2)
    assert executor.process_reward([]) == 0.0


def test_unknown_template_raises():
    span = make_span("pitch")
    bogus = skills.Skill(
        id="x_v1", name="X", action_type="INSERT", description="d",
        template_id="mystery", params={},
    )
    with pytest.raises(skills.SkillConfigError):
        execute(span=span, retrieved=[], selected=[bogus], target=on_target(span))


def test_reward_categories_put_skips_first():
    edits = [
        memory.MemoryEdit(op="INSERT"),
        memory.MemoryEdit(op="NOOP", skip_correct=True),
        memory.MemoryEdit(op="UPDATE"),
        memory.MemoryEdit(op="NOOP", skip_correct=False),
        memory.MemoryEdit(op="DELETE"),
    ]
    statuses = ["applied", "noop", "duplicate", "noop", "rejected"]
    outcomes = [memory.EditOutcome(status) for status in statuses]
    assert executor.events_from_outcomes(edits, outcomes) == [
        "correct_skip", "incorrect_skip", "accepted", "duplicate", "rejected",
    ]
