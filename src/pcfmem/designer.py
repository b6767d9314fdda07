"""Outer-loop skill evolution: failure harvesting, clustering, proposals.

Failed design verifications from training rollouts are classified into four
failure modes, clustered by (mode, fill regime), and the dominant clusters
are mapped onto catalog skill mutations. A twin of the classifier that uses
only bank-local corroboration (no env probes) answers failure-analysis
queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import memory, physics, skills
from .physics import CallCounter

BUFFER_CAPACITY = 256
TOP_CLUSTERS = 2
THETA_SIG_CAP = 2.0


@dataclass
class FailureCase:
    failure_type: str
    regime: str
    difficulty: float  # normalized miss, >= 1 for any verify failure


@dataclass
class FailureBuffer:
    capacity: int = BUFFER_CAPACITY
    cases: list[FailureCase] = field(default_factory=list)

    def add(self, case: FailureCase) -> None:
        self.cases.append(case)
        if len(self.cases) > self.capacity:
            weakest = min(range(len(self.cases)), key=lambda i: self.cases[i].difficulty)
            self.cases.pop(weakest)

    def __len__(self) -> int:
        return len(self.cases)


@dataclass(frozen=True)
class DesignAttempt:
    """A verified design proposal and the memory it was drawn from.

    ``retrieved`` holds the answering bank's own entries, in citation order;
    an episode's bank is not edited once its rollout ends.
    """

    geom: physics.Geometry
    sim: physics.SimResult
    target: physics.TargetSpec
    retrieved: list[memory.MemoryEntry]


def classify_failure(attempt: DesignAttempt, counter: CallCounter) -> str:
    """Order: wrong_trend, missing_constraint, outdated, spurious (fallback).

    wrong_trend probes the env's finite-difference sign at the proposal and
    charges the probe calls to the given (designer-phase) counter.
    """
    retrieved = attempt.retrieved
    for e in retrieved:
        if e.kind not in ("trend", "param_map") or e.direction == 0:
            continue
        try:
            sign = physics.metric_sign(
                attempt.geom, e.key.param, e.key.metric, attempt.target.lambda_um, counter
            )
        except (physics.InvalidGeometry, physics.BandError):
            continue
        if sign != 0 and e.direction != sign:
            return "wrong_trend"
    if not any(e.kind == "boundary" for e in retrieved):
        return "missing_constraint"
    if retrieved and retrieved[0].contradictions >= 2:
        return "outdated_knowledge"
    return "spurious_memory"


def classify_planted(entry: dict, bank: memory.MemoryBank) -> str:
    """Bank-local twin of classify_failure for planted notes (0 env calls).

    Same rule order; corroboration comes from the trace's own memory instead
    of env probes, so an empty bank cannot detect an inverted trend. The
    entry's field types are the ones ``datagen.query_from_dict`` checks.
    """
    key = entry.get("key", {})
    direction = entry.get("direction", 0)
    if direction != 0 and entry.get("kind") in ("trend", "param_map"):
        for e in bank.active():
            if e.kind not in ("trend", "param_map"):
                continue
            if (
                e.key.param == key.get("param")
                and e.key.metric == key.get("metric")
                and e.key.lambda_bucket == key.get("lambda_bucket")
                and e.direction != 0
                and e.direction != direction
            ):
                return "wrong_trend"
    geom = entry.get("geom") or {}
    if geom:
        try:
            physics.validate_geometry(physics.geometry_from_dict(geom))
        except (physics.InvalidGeometry, KeyError, TypeError, ValueError):
            return "missing_constraint"
    if entry.get("contradictions", 0) >= 2:
        return "outdated_knowledge"
    return "spurious_memory"


def collect_failures(attempts: list[DesignAttempt], counter: CallCounter) -> FailureBuffer:
    """Classify failed design verifications from training rollouts, in order."""
    buf = FailureBuffer()
    for a in attempts:
        ftype = classify_failure(a, counter)
        regime = memory.dratio_regime(a.geom.dratio)
        buf.add(FailureCase(ftype, regime, physics.miss(a.sim, a.target)))
    return buf


@dataclass
class FailureCluster:
    failure_type: str
    regime: str
    cases: list[FailureCase]

    @property
    def size(self) -> int:
        return len(self.cases)

    @property
    def total_difficulty(self) -> float:
        return sum(c.difficulty for c in self.cases)


def cluster_failures(buf: FailureBuffer) -> list[FailureCluster]:
    groups: dict = {}
    for case in buf.cases:
        groups.setdefault((case.failure_type, case.regime), []).append(case)
    clusters = [
        FailureCluster(failure_type=ft, regime=rg, cases=cases)
        for (ft, rg), cases in groups.items()
    ]
    clusters.sort(
        key=lambda c: (-c.size, -c.total_difficulty, c.failure_type, c.regime)
    )
    return clusters


def _find_template(bank: skills.SkillBank, template_id: str) -> Optional[skills.Skill]:
    return next((s for s in bank.skills if s.template_id == template_id), None)


def _change_for_cluster(
    bank: skills.SkillBank, ftype: str, epoch: int, pending: list[skills.BankChange]
) -> Optional[skills.BankChange]:
    """The catalog change that answers a failure mode, or None when the bank
    already has it or a pending change touches the same skill."""

    def replace(cur: skills.Skill, name: str, theta=None) -> Optional[skills.BankChange]:
        if any(c.target_id == cur.id for c in pending):
            return None
        sk = skills.make_catalog_skill(name, skills.next_version(bank, name), epoch, theta)
        return skills.BankChange(op="replace", target_id=cur.id, skill=sk)

    def add(name: str, theta=None) -> Optional[skills.BankChange]:
        sk = skills.make_catalog_skill(name, skills.next_version(bank, name), epoch, theta)
        if any(c.skill is not None and c.skill.id == sk.id for c in pending):
            return None
        return skills.BankChange(op="add", skill=sk)

    if ftype == "wrong_trend":
        cur = _find_template(bank, "update_trend")
        if cur is not None and not cur.params["regime_aware"]:
            return replace(cur, "regime_aware_update")
    elif ftype == "missing_constraint":
        if _find_template(bank, "insert_boundary") is None:
            return add("failure_boundary_insert")
    elif ftype == "outdated_knowledge":
        cur = _find_template(bank, "delete_invalid")
        if cur is not None and int(cur.params["theta_del"]) < 2:
            return replace(cur, "cross_verified_delete", theta=2)
    elif ftype == "spurious_memory":
        cur = _find_template(bank, "insert_param_map")
        if cur is not None and float(cur.params["theta_sig"]) < THETA_SIG_CAP:
            return replace(cur, "evidence_gated_insert", float(cur.params["theta_sig"]) + 0.5)
        if sum(1 for s in bank.skills if s.action_type == "NOOP") < 2:
            return add("noise_threshold_skip", theta=0.5)
    return None


def propose_changes(
    bank: skills.SkillBank,
    clusters: list[FailureCluster],
    epoch: int,
    max_skills: int = 12,
) -> list[skills.BankChange]:
    """Map the top clusters to bank changes; empty list = identity proposal."""
    changes: list[skills.BankChange] = []
    for cluster in clusters[:TOP_CLUSTERS]:
        ch = _change_for_cluster(bank, cluster.failure_type, epoch, changes)
        if ch is None:
            continue
        if ch.op == "add":
            adds = sum(1 for c in changes if c.op == "add")
            if len(bank.skills) + adds + 1 > max_skills:
                continue
        changes.append(ch)
    return changes


def new_action_bias(bank: skills.SkillBank, epoch: int, inner_epoch: int) -> np.ndarray:
    bias = np.zeros(len(bank.skills))
    scale = 2.0 ** -inner_epoch
    for i, s in enumerate(bank.skills):
        if s.introduced_epoch == epoch:
            bias[i] = scale
    return bias
