"""Rule-based skill executor: spans + retrieved memory + skills -> edits.

Each selected skill dispatches on its template id to a deterministic rule
evaluated against the span's evidence (the one edited parameter and the
resulting metric changes). The executor never touches the physics env; all
numbers come from the span itself. Edits are emitted in skill order and the
memory bank resolves conflicts at apply time, so process rewards follow the
per-edit statuses.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import memory, physics
from .datagen import Span
from .memory import EditOutcome, MemoryEdit, MemoryEntry, MemoryKey
from .physics import TargetSpec
from .skills import Skill, SkillConfigError

TOLS = {
    "dispersion": physics.TOL_DISPERSION,
    "loss": physics.TOL_LOSS,
    "n_eff": physics.TOL_NEFF,
}

REWARD_MAP = {
    "accepted": 0.05,
    "duplicate": -0.05,
    "rejected": -0.05,
    "correct_skip": 0.02,
    "incorrect_skip": -0.02,
}
REWARD_CLAMP = 0.2

# reward category of a non-NOOP edit's apply status; any other is "rejected"
_STATUS_CATEGORY = {"applied": "accepted", "duplicate": "duplicate"}


@dataclass
class SpanEvidence:
    """Digested numeric view of one span."""

    param: str
    deltas: dict
    slopes: dict
    norm_deltas: dict
    signs: dict
    bucket: str
    regime: str
    geom_after: dict
    observed: dict
    miss_after: float
    d_err: float  # |D_after - D_target| / tol_D
    a_err: float  # |alpha_after - alpha_target| / tol_alpha
    step: int
    at_bound: bool


def span_evidence(span: Span, target: TargetSpec) -> SpanEvidence:
    dp = span.new_value - span.old_value
    deltas, slopes, norm_deltas, signs = {}, {}, {}, {}
    for m in physics.METRICS:
        dm = span.sim_after.metric(m) - span.sim_before.metric(m)
        deltas[m] = dm
        slopes[m] = dm / dp if dp != 0.0 else 0.0
        norm_deltas[m] = abs(dm) / TOLS[m]
        signs[m] = 0 if dm == 0.0 or dp == 0.0 else (1 if (dm / dp) > 0 else -1)
    geom = span.geom_after
    at_bound = (
        geom.dratio > physics.DRATIO_MAX - 0.005
        or geom.pitch_um < physics.PITCH_MIN_UM + 0.005
        or geom.pitch_um > physics.PITCH_MAX_UM - 0.005
        or geom.n_rings in (physics.N_RINGS_MIN, physics.N_RINGS_MAX)
    )
    d_err, a_err = physics.target_errors(span.sim_after, target)
    miss_after = max(d_err, a_err)
    observed = {
        "dispersion": span.sim_after.dispersion_ps_nm_km,
        "loss": span.sim_after.loss_db_km,
        "n_eff": span.sim_after.n_eff,
        "miss": miss_after,
    }
    return SpanEvidence(
        param=span.param,
        deltas=deltas,
        slopes=slopes,
        norm_deltas=norm_deltas,
        signs=signs,
        bucket=memory.lambda_bucket(span.sim_after.lambda_um),
        regime=memory.dratio_regime(geom.dratio),
        geom_after=geom.as_dict(),
        observed=observed,
        miss_after=miss_after,
        d_err=d_err,
        a_err=a_err,
        step=span.index,
        at_bound=at_bound,
    )


def _entry_statement(ev: SpanEvidence, metric: str) -> str:
    word = "rises" if ev.signs[metric] > 0 else "falls"
    return (
        f"{metric} {word} as {ev.param} increases, slope {ev.slopes[metric]:.4g} per unit, "
        f"{ev.regime} fill regime"
    )


def _insert(
    ev: SpanEvidence,
    metric: str,
    kind: str,
    statement: str,
    direction: int,
    slope: float,
) -> MemoryEdit:
    """A new entry keyed on the span's parameter, bucket and regime.

    It starts at support 1 and confidence 0.5, at the span's geometry, and
    records the span's observed metrics.
    """
    entry = MemoryEntry(
        id=0,
        key=MemoryKey(ev.param, metric, ev.bucket, ev.regime),
        kind=kind,
        statement=statement,
        direction=direction,
        slope=slope,
        created_step=ev.step,
        geom=ev.geom_after,
        observed=dict(ev.observed),
    )
    return MemoryEdit(op="INSERT", entry=entry)


def _rule_insert_param_map(skill: Skill, ev: SpanEvidence, retrieved) -> list[MemoryEdit]:
    theta = float(skill.params["theta_sig"])
    edits = []
    for m in physics.METRICS:
        if theta == 0.0:
            fire = ev.deltas[m] != 0.0
        else:
            fire = ev.norm_deltas[m] >= theta
        if not fire or ev.signs[m] == 0:
            continue
        statement = _entry_statement(ev, m)
        edits.append(_insert(ev, m, "param_map", statement, ev.signs[m], ev.slopes[m]))
    return edits


def _rule_update_trend(skill: Skill, ev: SpanEvidence, retrieved) -> list[MemoryEdit]:
    regime_aware = bool(skill.params["regime_aware"])
    edits = []
    for e in retrieved:
        if e.kind not in ("param_map", "trend"):
            continue
        if e.key.param != ev.param or e.key.lambda_bucket != ev.bucket:
            continue
        m = e.key.metric
        if ev.signs.get(m, 0) == 0:
            continue
        same_regime = e.key.regime == ev.regime
        if not regime_aware and not same_regime:
            continue
        if e.direction == ev.signs[m]:
            support = e.support_count + 1
            slope = (e.slope * e.support_count + ev.slopes[m]) / support
            conf = min(1.0, support / 5.0)
            changes = {"slope": slope, "support_count": support, "confidence": conf}
            if ev.miss_after < (e.observed or {}).get("miss", float("inf")):
                changes.update(geom=ev.geom_after, observed=dict(ev.observed))
            edits.append(MemoryEdit(op="UPDATE", target_id=e.id, changes=changes))
        elif regime_aware and not same_regime:
            statement = _entry_statement(ev, m)
            edits.append(_insert(ev, m, "trend", statement, ev.signs[m], ev.slopes[m]))
        else:
            changes = {"confidence": e.confidence / 2.0}
            edits.append(MemoryEdit(op="UPDATE", target_id=e.id, changes=changes))
    return edits


def _rule_delete_invalid(skill: Skill, ev: SpanEvidence, retrieved) -> list[MemoryEdit]:
    theta_del = int(skill.params["theta_del"])
    edits = []
    for e in retrieved:
        if e.kind not in ("param_map", "trend"):
            continue
        if e.key.param != ev.param or e.key.lambda_bucket != ev.bucket:
            continue
        if e.key.regime != ev.regime:
            continue
        m = e.key.metric
        sign = ev.signs.get(m, 0)
        if sign == 0 or e.direction == 0 or e.direction == sign:
            continue
        count = e.contradictions + 1
        if count >= theta_del:
            reason = (
                f"direction {e.direction:+d} for {e.key.param}->{m} contradicted "
                f"{count} time(s) by observed sign {sign:+d}"
            )
            edits.append(MemoryEdit(op="DELETE", target_id=e.id, rationale=reason))
        else:
            edits.append(
                MemoryEdit(op="UPDATE", target_id=e.id, changes={"contradictions": count})
            )
    return edits


def _rule_skip(skill: Skill, ev: SpanEvidence, retrieved) -> list[MemoryEdit]:
    theta = float(skill.params["theta_noise"])
    change = max(ev.norm_deltas["dispersion"], ev.norm_deltas["loss"])
    return [MemoryEdit(op="NOOP", skip_correct=change < theta)]


def _rule_insert_boundary(skill: Skill, ev: SpanEvidence, retrieved) -> list[MemoryEdit]:
    if ev.miss_after < 1.0 and not ev.at_bound:
        return []
    # the worse-missed metric names the violated interval
    metric = "dispersion" if ev.d_err >= ev.a_err else "loss"
    if ev.at_bound and ev.miss_after < 1.0:
        cause = "geometry bound reached"
    else:
        cause = f"target band missed by {ev.miss_after:.3g} tolerance units"
    return [
        _insert(
            ev,
            metric,
            "boundary",
            f"failure boundary on {metric}: {cause} after moving "
            f"{ev.param} in the {ev.regime} fill regime",
            1,
            ev.miss_after,
        )
    ]


_RULES = {
    "insert_param_map": _rule_insert_param_map,
    "update_trend": _rule_update_trend,
    "delete_invalid": _rule_delete_invalid,
    "skip_span": _rule_skip,
    "insert_boundary": _rule_insert_boundary,
}


def execute(
    evidence: SpanEvidence, retrieved: list[MemoryEntry], selected: list[Skill]
) -> list[MemoryEdit]:
    """The edits of the selected skills, in skill order."""
    edits: list[MemoryEdit] = []
    for skill in selected:
        rule = _RULES.get(skill.template_id)
        if rule is None:
            raise SkillConfigError(f"unknown template {skill.template_id!r}")
        edits.extend(rule(skill, evidence, retrieved))
    return edits


def events_from_outcomes(edits: list[MemoryEdit], outcomes: list[EditOutcome]) -> list[str]:
    """Reward categories of a span's applied edits.

    The NOOP edits' skip categories come first, then one category per other
    edit from its apply status, each group in edit order: the reward sums
    them in this order.
    """
    skips = [
        "correct_skip" if edit.skip_correct else "incorrect_skip"
        for edit in edits
        if edit.op == "NOOP"
    ]
    return skips + [
        _STATUS_CATEGORY.get(out.status, "rejected")
        for edit, out in zip(edits, outcomes)
        if edit.op != "NOOP"
    ]


def process_reward(categories: list[str]) -> float:
    total = sum(REWARD_MAP[c] for c in categories)
    return max(-REWARD_CLAMP, min(REWARD_CLAMP, total))
