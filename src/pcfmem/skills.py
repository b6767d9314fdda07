"""Versioned skill bank: four base primitives plus an evolution catalog.

Each skill pairs a controller-facing description with a template id that the
rule-based executor dispatches on, plus named threshold parameters. Seed and
catalog skills are rows of one recipe table built by one constructor, which
alone forms the `<stem>_v<version>` ids. Mutation is retire+add, so a newly
introduced skill always carries the outer epoch it appeared in (this drives
the exploration bias).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

ACTION_TYPES = ("INSERT", "UPDATE", "DELETE", "NOOP")

# template_id -> (action_type, its params: a skill carries exactly these)
TEMPLATES = {
    "insert_param_map": ("INSERT", ("theta_sig",)),
    "update_trend": ("UPDATE", ("regime_aware",)),
    "delete_invalid": ("DELETE", ("theta_del",)),
    "skip_span": ("NOOP", ("theta_noise",)),
    "insert_boundary": ("INSERT", ()),
}


class SkillConfigError(ValueError):
    """Skill references an unknown template or carries other params than it."""


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
        raise SkillConfigError(f"{skill.id}: unknown template {skill.template_id!r}")
    action, required = TEMPLATES[skill.template_id]
    if skill.action_type != action:
        raise SkillConfigError(
            f"{skill.id}: template {skill.template_id} is {action}, "
            f"got {skill.action_type}"
        )
    if not skill.description:
        raise SkillConfigError(f"{skill.id}: empty description")
    if set(skill.params) != set(required):
        raise SkillConfigError(
            f"{skill.id}: params {sorted(skill.params)}, "
            f"template {skill.template_id} takes {sorted(required)}"
        )


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


@dataclass(frozen=True)
class _Recipe:
    """One row of the skill table; `theta` names the param a caller may set."""

    stem: str
    template_id: str
    description: str
    params: dict
    theta: str | None = None


def _skill(recipe: _Recipe, version: int, epoch: int, theta=None) -> Skill:
    """The one constructor: every id is `<stem>_v<version>`."""
    params = dict(recipe.params)
    if theta is not None:
        if recipe.theta is None:
            raise SkillConfigError(f"{recipe.stem} has no theta parameter")
        params[recipe.theta] = theta
    skill = Skill(
        id=f"{recipe.stem}_v{version}",
        name="".join(w.capitalize() for w in recipe.stem.split("_")),
        action_type=TEMPLATES[recipe.template_id][0],
        description=recipe.description,
        template_id=recipe.template_id,
        params=params,
        version=version,
        introduced_epoch=epoch,
    )
    validate_skill(skill)
    return skill


_SEED = (
    _Recipe(
        "insert_topology_feature",
        "insert_param_map",
        "insert a new parameter to property mapping from this step: "
        "record the direction and slope of the dispersion loss or "
        "n_eff change when pitch hole_d or n_rings moves, with "
        "wavelength band and fill regime context",
        {"theta_sig": 0.0},
    ),
    _Recipe(
        "update_performance_trend",
        "update_trend",
        "update an existing trend entry with fresh evidence: on "
        "agreement reinforce support refine the slope estimate and "
        "raise confidence, on disagreement halve confidence",
        {"regime_aware": 0},
    ),
    _Recipe(
        "delete_invalid_assumption",
        "delete_invalid",
        "delete an invalid assumption: archive a stored trend whose "
        "claimed direction is contradicted by the observed change",
        {"theta_del": 1},
    ),
    _Recipe(
        "skip",
        "skip_span",
        "skip this step: the change is small noise and no memory "
        "update is needed",
        {"theta_noise": 1.0},
    ),
)


def initial_bank() -> SkillBank:
    return SkillBank(skills=[_skill(r, 1, 0) for r in _SEED], bank_version=0)


# Evolution catalog: five parameterized refinements the designer picks from.
CATALOG = {
    "evidence_gated_insert": _Recipe(
        "insert_topology_feature",
        "insert_param_map",
        "insert a mapping only when the normalized metric change is "
        "significant beyond the evidence threshold, avoiding weak "
        "noisy entries",
        {"theta_sig": 0.5},
        theta="theta_sig",
    ),
    "regime_aware_update": _Recipe(
        "update_performance_trend",
        "update_trend",
        "update trends per fill regime: on disagreement across d "
        "over pitch regimes split the entry by regime instead of "
        "halving confidence",
        {"regime_aware": 1},
    ),
    "cross_verified_delete": _Recipe(
        "delete_invalid_assumption",
        "delete_invalid",
        "delete only after repeated cross verified contradictions "
        "so a single noisy step cannot erase knowledge",
        {"theta_del": 2},
        theta="theta_del",
    ),
    "noise_threshold_skip": _Recipe(
        "skip",
        "skip_span",
        "skip steps whose tolerance normalized metric change is "
        "within the calibrated noise threshold",
        {"theta_noise": 1.0},
        theta="theta_noise",
    ),
    "failure_boundary_insert": _Recipe(
        "insert_failure_boundary",
        "insert_boundary",
        "insert an explicit failure boundary when the step leaves "
        "the target tolerance band or hits a geometry bound, "
        "recording the violated interval",
        {},
    ),
}
CATALOG_NAMES = tuple(sorted(CATALOG))


def _recipe(name: str) -> _Recipe:
    if name not in CATALOG:
        raise SkillConfigError(f"unknown catalog template {name!r}")
    return CATALOG[name]


def make_catalog_skill(name: str, version: int, epoch: int, theta=None) -> Skill:
    return _skill(_recipe(name), version, epoch, theta)


def next_version(bank: SkillBank, name: str) -> int:
    """Next free version of the catalog entry's id stem, counting retired ids."""
    pat = re.compile(re.escape(_recipe(name).stem) + r"_v(\d+)$")
    ids = bank.ids() + [r["skill"]["id"] for r in bank.retired]
    return 1 + max((int(m.group(1)) for m in map(pat.match, ids) if m), default=0)


@dataclass
class BankChange:
    op: str  # add | replace | retire
    skill: Skill | None = None
    target_id: str | None = None


def mutate(bank: SkillBank, changes: list[BankChange]) -> SkillBank:
    """Return a new bank (version+1) with changes applied; input untouched.

    A replace is a retire of target_id followed by an add of skill.
    """
    skills = list(bank.skills)
    retired = list(bank.retired)
    for ch in changes:
        if ch.op not in ("add", "retire", "replace"):
            raise SkillConfigError(f"unknown change op {ch.op!r}")
        if ch.op != "add":
            match = [s for s in skills if s.id == ch.target_id]
            if not match:
                raise SkillConfigError(f"{ch.op}: no skill {ch.target_id}")
            skills = [s for s in skills if s.id != ch.target_id]
            retired.append(
                {"skill": match[0].as_dict(), "retired_at_version": bank.bank_version + 1}
            )
        if ch.op != "retire":
            if ch.skill is None:
                raise SkillConfigError(f"{ch.op} without a skill")
            validate_skill(ch.skill)
            if any(s.id == ch.skill.id for s in skills):
                raise SkillConfigError(f"duplicate skill id {ch.skill.id}")
            skills.append(ch.skill)
    if not skills:
        raise SkillConfigError("mutation would empty the bank")
    if not any(s.action_type == "NOOP" for s in skills):
        raise SkillConfigError("mutation would remove the last NOOP skill")
    return SkillBank(skills=skills, bank_version=bank.bank_version + 1, retired=retired)
