"""Versioned skill bank: four base primitives plus an evolution catalog.

Each skill pairs a controller-facing description with a template id that the
rule-based executor dispatches on, plus named threshold parameters. Mutation
is retire+add, so a newly introduced skill always carries the outer epoch it
appeared in (this drives the exploration bias).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

ACTION_TYPES = ("INSERT", "UPDATE", "DELETE", "NOOP")

# template_id -> (action_type, required params)
TEMPLATES = {
    "insert_param_map": ("INSERT", ("theta_sig", "lambda_scoped")),
    "update_trend": ("UPDATE", ("regime_aware", "conf_calibrated")),
    "delete_invalid": ("DELETE", ("theta_del", "rollback_safe")),
    "skip_span": ("NOOP", ("theta_noise",)),
    "insert_boundary": ("INSERT", ()),
    "insert_hotspot": ("INSERT", ("theta_hot",)),
    "update_frontier": ("UPDATE", ()),
}


class SkillConfigError(ValueError):
    """Skill references an unknown template or misses required params."""


@dataclass(frozen=True)
class Skill:
    id: str
    name: str
    action_type: str
    description: str
    template_id: str
    params: dict
    version: int = 1
    introduced_epoch: int = 0

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "action_type": self.action_type,
            "description": self.description,
            "template_id": self.template_id,
            "params": dict(self.params),
            "version": self.version,
            "introduced_epoch": self.introduced_epoch,
        }


def skill_from_dict(d: dict) -> Skill:
    return Skill(
        id=d["id"],
        name=d["name"],
        action_type=d["action_type"],
        description=d["description"],
        template_id=d["template_id"],
        params=dict(d["params"]),
        version=int(d["version"]),
        introduced_epoch=int(d["introduced_epoch"]),
    )


def validate_skill(skill: Skill) -> None:
    if skill.template_id not in TEMPLATES:
        raise SkillConfigError(f"unknown template {skill.template_id!r}")
    action, required = TEMPLATES[skill.template_id]
    if skill.action_type != action:
        raise SkillConfigError(
            f"{skill.id}: template {skill.template_id} is {action}, "
            f"got {skill.action_type}"
        )
    if not skill.description:
        raise SkillConfigError(f"{skill.id}: empty description")
    missing = [p for p in required if p not in skill.params]
    if missing:
        raise SkillConfigError(f"{skill.id}: missing params {missing}")


@dataclass
class SkillBank:
    skills: list[Skill] = field(default_factory=list)
    bank_version: int = 0
    retired: list[dict] = field(default_factory=list)  # audit ledger

    def ids(self) -> list[str]:
        return [s.id for s in self.skills]

    def as_dict(self) -> dict:
        return {
            "bank_version": self.bank_version,
            "skills": [s.as_dict() for s in self.skills],
            "retired": list(self.retired),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))


def bank_from_dict(d: dict) -> SkillBank:
    try:
        bank = SkillBank(
            skills=[skill_from_dict(s) for s in d["skills"]],
            bank_version=int(d["bank_version"]),
            retired=list(d.get("retired", [])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SkillConfigError(f"malformed skill bank: {type(exc).__name__}: {exc}") from exc
    seen: set[str] = set()
    for s in bank.skills:
        validate_skill(s)
        if s.id in seen:
            raise SkillConfigError(f"duplicate skill id {s.id}")
        seen.add(s.id)
    if not any(s.action_type == "NOOP" for s in bank.skills):
        raise SkillConfigError("skill bank has no NOOP skill")
    return bank


def bank_from_json(text: str) -> SkillBank:
    return bank_from_dict(json.loads(text))


def initial_bank() -> SkillBank:
    skills = [
        Skill(
            id="insert_topology_feature_v1",
            name="InsertTopologyFeature",
            action_type="INSERT",
            description=(
                "insert a new parameter to property mapping from this step: "
                "record the direction and slope of the dispersion loss or "
                "n_eff change when pitch hole_d or n_rings moves, with "
                "wavelength band and fill regime context"
            ),
            template_id="insert_param_map",
            params={"theta_sig": 0.0, "lambda_scoped": 0},
        ),
        Skill(
            id="update_performance_trend_v1",
            name="UpdatePerformanceTrend",
            action_type="UPDATE",
            description=(
                "update an existing trend entry with fresh evidence: on "
                "agreement reinforce support refine the slope estimate and "
                "raise confidence, on disagreement halve confidence"
            ),
            template_id="update_trend",
            params={"regime_aware": 0, "conf_calibrated": 0},
        ),
        Skill(
            id="delete_invalid_assumption_v1",
            name="DeleteInvalidAssumption",
            action_type="DELETE",
            description=(
                "delete an invalid assumption: archive a stored trend whose "
                "claimed direction is contradicted by the observed change"
            ),
            template_id="delete_invalid",
            params={"theta_del": 1, "rollback_safe": 0},
        ),
        Skill(
            id="skip_v1",
            name="Skip",
            action_type="NOOP",
            description=(
                "skip this step: the change is small noise and no memory "
                "update is needed"
            ),
            template_id="skip_span",
            params={"theta_noise": 1.0},
        ),
    ]
    for s in skills:
        validate_skill(s)
    return SkillBank(skills=skills, bank_version=0)


# Evolution catalog: ten parameterized refinements the designer picks from.
# Factories take (version, epoch) so replacement ids stay unique.


def _catalog_entries() -> dict:
    return {
        "evidence_gated_insert": lambda v, e, theta=0.5: Skill(
            id=f"insert_topology_feature_v{v}",
            name="InsertTopologyFeature",
            action_type="INSERT",
            description=(
                "insert a mapping only when the normalized metric change is "
                "significant beyond the evidence threshold, avoiding weak "
                "noisy entries"
            ),
            template_id="insert_param_map",
            params={"theta_sig": theta, "lambda_scoped": 0},
            version=v,
            introduced_epoch=e,
        ),
        "wavelength_scoped_insert": lambda v, e: Skill(
            id=f"insert_topology_feature_v{v}",
            name="InsertTopologyFeature",
            action_type="INSERT",
            description=(
                "insert a mapping bound to its wavelength band so trends "
                "near 1.31 and 1.55 um stay separate"
            ),
            template_id="insert_param_map",
            params={"theta_sig": 0.0, "lambda_scoped": 1},
            version=v,
            introduced_epoch=e,
        ),
        "regime_aware_update": lambda v, e: Skill(
            id=f"update_performance_trend_v{v}",
            name="UpdatePerformanceTrend",
            action_type="UPDATE",
            description=(
                "update trends per fill regime: on disagreement across d "
                "over pitch regimes split the entry by regime instead of "
                "halving confidence"
            ),
            template_id="update_trend",
            params={"regime_aware": 1, "conf_calibrated": 0},
            version=v,
            introduced_epoch=e,
        ),
        "confidence_calibrated_update": lambda v, e: Skill(
            id=f"update_performance_trend_v{v}",
            name="UpdatePerformanceTrend",
            action_type="UPDATE",
            description=(
                "update trend confidence calibrated by support count and "
                "evidence spread rather than a fixed ladder"
            ),
            template_id="update_trend",
            params={"regime_aware": 0, "conf_calibrated": 1},
            version=v,
            introduced_epoch=e,
        ),
        "cross_verified_delete": lambda v, e, theta=2: Skill(
            id=f"delete_invalid_assumption_v{v}",
            name="DeleteInvalidAssumption",
            action_type="DELETE",
            description=(
                "delete only after repeated cross verified contradictions "
                "so a single noisy step cannot erase knowledge"
            ),
            template_id="delete_invalid",
            params={"theta_del": theta, "rollback_safe": 0},
            version=v,
            introduced_epoch=e,
        ),
        "rollback_safe_delete": lambda v, e: Skill(
            id=f"delete_invalid_assumption_v{v}",
            name="DeleteInvalidAssumption",
            action_type="DELETE",
            description=(
                "archive entries reversibly keeping the deletion reason so "
                "removals can be audited and undone"
            ),
            template_id="delete_invalid",
            params={"theta_del": 1, "rollback_safe": 1},
            version=v,
            introduced_epoch=e,
        ),
        "noise_threshold_skip": lambda v, e, theta=1.0: Skill(
            id=f"skip_v{v}",
            name="Skip",
            action_type="NOOP",
            description=(
                "skip steps whose tolerance normalized metric change is "
                "within the calibrated noise threshold"
            ),
            template_id="skip_span",
            params={"theta_noise": theta},
            version=v,
            introduced_epoch=e,
        ),
        "failure_boundary_insert": lambda v, e: Skill(
            id=f"insert_failure_boundary_v{v}",
            name="InsertFailureBoundary",
            action_type="INSERT",
            description=(
                "insert an explicit failure boundary when the step leaves "
                "the target tolerance band or hits a geometry bound, "
                "recording the violated interval"
            ),
            template_id="insert_boundary",
            params={},
            version=v,
            introduced_epoch=e,
        ),
        "sensitivity_hotspot_insert": lambda v, e, theta=25.0: Skill(
            id=f"insert_sensitivity_hotspot_v{v}",
            name="InsertSensitivityHotspot",
            action_type="INSERT",
            description=(
                "mark a high sensitivity hotspot when the local slope is "
                "unusually steep, advising smaller moves nearby"
            ),
            template_id="insert_hotspot",
            params={"theta_hot": theta},
            version=v,
            introduced_epoch=e,
        ),
        "tradeoff_frontier_update": lambda v, e: Skill(
            id=f"update_tradeoff_frontier_v{v}",
            name="UpdateTradeoffFrontier",
            action_type="UPDATE",
            description=(
                "keep a trade off frontier of non dominated dispersion "
                "error loss error points and archive dominated points"
            ),
            template_id="update_frontier",
            params={},
            version=v,
            introduced_epoch=e,
        ),
    }


CATALOG = _catalog_entries()
CATALOG_NAMES = tuple(sorted(CATALOG))


def make_catalog_skill(name: str, version: int, epoch: int, **kw) -> Skill:
    if name not in CATALOG:
        raise SkillConfigError(f"unknown catalog template {name!r}")
    skill = CATALOG[name](version, epoch, **kw)
    validate_skill(skill)
    return skill


@dataclass
class BankChange:
    op: str  # add | replace | retire
    skill: Skill | None = None
    target_id: str | None = None


def mutate(bank: SkillBank, changes: list[BankChange]) -> SkillBank:
    """Return a new bank (version+1) with changes applied; input untouched."""
    skills = list(bank.skills)
    retired = list(bank.retired)
    for ch in changes:
        if ch.op == "add":
            if ch.skill is None:
                raise SkillConfigError("add without a skill")
            validate_skill(ch.skill)
            if any(s.id == ch.skill.id for s in skills):
                raise SkillConfigError(f"duplicate skill id {ch.skill.id}")
            skills.append(ch.skill)
        elif ch.op == "retire":
            match = [s for s in skills if s.id == ch.target_id]
            if not match:
                raise SkillConfigError(f"retire: no skill {ch.target_id}")
            skills = [s for s in skills if s.id != ch.target_id]
            retired.append(
                {"skill": match[0].as_dict(), "retired_at_version": bank.bank_version + 1}
            )
        elif ch.op == "replace":
            if ch.skill is None or ch.target_id is None:
                raise SkillConfigError("replace needs target_id and skill")
            match = [s for s in skills if s.id == ch.target_id]
            if not match:
                raise SkillConfigError(f"replace: no skill {ch.target_id}")
            validate_skill(ch.skill)
            skills = [s for s in skills if s.id != ch.target_id]
            retired.append(
                {"skill": match[0].as_dict(), "retired_at_version": bank.bank_version + 1}
            )
            skills.append(ch.skill)
        else:
            raise SkillConfigError(f"unknown change op {ch.op!r}")
    if not skills:
        raise SkillConfigError("mutation would empty the bank")
    if not any(s.action_type == "NOOP" for s in skills):
        raise SkillConfigError("mutation would remove the last NOOP skill")
    return SkillBank(skills=skills, bank_version=bank.bank_version + 1, retired=retired)
