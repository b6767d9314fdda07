"""Outer-loop skill evolution: failure harvesting, clustering, proposals.

Failed design verifications from training rollouts are classified into four
failure modes, clustered by (mode, fill regime), and the dominant clusters
are mapped onto catalog skill mutations. A twin of the classifier that uses
only bank-local corroboration (no env probes) answers failure-analysis
queries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import memory, physics, skills
from .physics import CallCounter, Geometry

FAILURE_ORDER = (
    "wrong_trend",
    "missing_constraint",
    "outdated_knowledge",
    "spurious_memory",
)

BUFFER_CAPACITY = 256
TOP_CLUSTERS = 2
THETA_SIG_CAP = 2.0


@dataclass
class FailureCase:
    trace_id: str
    query_id: str
    proposed: dict
    retrieved: list[dict]
    sim: dict
    target: dict
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


def classify_failure(
    proposal: dict,
    retrieved: list[dict],
    target: dict,
    counter: CallCounter,
) -> str:
    """Order: wrong_trend, missing_constraint, outdated, spurious (fallback).

    wrong_trend probes the env's finite-difference sign at the proposal and
    charges the probe calls to the given (designer-phase) counter.
    """
    geom = Geometry(
        float(proposal["pitch_um"]), float(proposal["hole_d_um"]), int(proposal["n_rings"])
    )
    lam = float(target["lambda_um"])
    for e in retrieved:
        if e.get("kind") not in ("trend", "param_map"):
            continue
        direction = int(e.get("direction", 0))
        if direction == 0:
            continue
        key = e.get("key", {})
        try:
            sign = physics.metric_sign(geom, key["param"], key["metric"], lam, counter)
        except (physics.InvalidGeometry, physics.BandError, KeyError):
            continue
        if sign != 0 and direction != sign:
            return "wrong_trend"
    has_constraint = any(e.get("kind") in ("constraint", "boundary") for e in retrieved)
    if not has_constraint:
        return "missing_constraint"
    if retrieved:
        decisive = retrieved[0]
        if int(decisive.get("contradictions", 0)) >= 2:
            return "outdated_knowledge"
    return "spurious_memory"


def classify_planted(entry: dict, bank: memory.MemoryBank) -> str:
    """Bank-local twin of classify_failure for planted notes (0 env calls).

    Same rule order; corroboration comes from the trace's own memory instead
    of env probes, so an empty bank cannot detect an inverted trend.
    """
    key = entry.get("key", {})
    direction = int(entry.get("direction", 0))
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
            physics.validate_geometry(
                Geometry(
                    float(geom["pitch_um"]),
                    float(geom["hole_d_um"]),
                    int(geom["n_rings"]),
                )
            )
        except (physics.InvalidGeometry, KeyError, ValueError):
            return "missing_constraint"
    if int(entry.get("contradictions", 0)) >= 2:
        return "outdated_knowledge"
    return "spurious_memory"


def collect_failures(query_records: list[dict], counter: CallCounter) -> FailureBuffer:
    """Harvest failed design verifications from rollout query records.

    Each record needs: trace_id, query_id, qtype, passed, proposal, sim,
    target, retrieved (list of entry dicts, citation order).
    """
    buf = FailureBuffer()
    for rec in query_records:
        if rec.get("qtype") != "parameter_adjustment" or rec.get("passed"):
            continue
        proposal = rec.get("proposal")
        sim = rec.get("sim")
        if proposal is None or sim is None:
            continue
        target = rec["target"]
        d_err = abs(sim["dispersion_ps_nm_km"] - target["dispersion_ps_nm_km"]) / target[
            "tol_dispersion"
        ]
        a_err = abs(sim["loss_db_km"] - target["loss_db_km"]) / target["tol_loss"]
        difficulty = max(d_err, a_err)
        retrieved = rec.get("retrieved", [])
        ftype = classify_failure(proposal, retrieved, target, counter)
        dratio = proposal["hole_d_um"] / proposal["pitch_um"]
        buf.add(
            FailureCase(
                trace_id=rec["trace_id"],
                query_id=rec["query_id"],
                proposed=proposal,
                retrieved=retrieved,
                sim=sim,
                target=target,
                failure_type=ftype,
                regime=memory.dratio_regime(dratio),
                difficulty=difficulty,
            )
        )
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


def _stem_version(bank: skills.SkillBank, stem: str) -> int:
    """Next free version number for a skill-id stem across active + retired."""
    pat = re.compile(re.escape(stem) + r"_v(\d+)$")
    best = 0
    ids = [s.id for s in bank.skills] + [r["skill"]["id"] for r in bank.retired]
    for sid in ids:
        m = pat.match(sid)
        if m:
            best = max(best, int(m.group(1)))
    return best + 1


def _find_template(bank: skills.SkillBank, template_id: str) -> Optional[skills.Skill]:
    for s in bank.skills:
        if s.template_id == template_id:
            return s
    return None


def _change_for_cluster(
    bank: skills.SkillBank, ftype: str, epoch: int, pending: list[skills.BankChange]
) -> Optional[skills.BankChange]:
    pending_ids = {c.skill.id for c in pending if c.skill is not None}
    pending_targets = {c.target_id for c in pending if c.target_id is not None}

    if ftype == "wrong_trend":
        cur = _find_template(bank, "update_trend")
        if cur is None or cur.params.get("regime_aware") or cur.id in pending_targets:
            return None
        v = _stem_version(bank, "update_performance_trend")
        return skills.BankChange(
            op="replace",
            target_id=cur.id,
            skill=skills.make_catalog_skill("regime_aware_update", v, epoch),
        )
    if ftype == "missing_constraint":
        if _find_template(bank, "insert_boundary") is not None:
            return None
        v = _stem_version(bank, "insert_failure_boundary")
        sk = skills.make_catalog_skill("failure_boundary_insert", v, epoch)
        if sk.id in pending_ids:
            return None
        return skills.BankChange(op="add", skill=sk)
    if ftype == "outdated_knowledge":
        cur = _find_template(bank, "delete_invalid")
        if cur is None or int(cur.params.get("theta_del", 1)) >= 2:
            return None
        if cur.id in pending_targets:
            return None
        v = _stem_version(bank, "delete_invalid_assumption")
        return skills.BankChange(
            op="replace",
            target_id=cur.id,
            skill=skills.make_catalog_skill("cross_verified_delete", v, epoch, theta=2),
        )
    if ftype == "spurious_memory":
        cur = _find_template(bank, "insert_param_map")
        if cur is not None and float(cur.params.get("theta_sig", 0.0)) < THETA_SIG_CAP:
            if cur.id in pending_targets:
                return None
            v = _stem_version(bank, "insert_topology_feature")
            theta = float(cur.params.get("theta_sig", 0.0)) + 0.5
            return skills.BankChange(
                op="replace",
                target_id=cur.id,
                skill=skills.make_catalog_skill(
                    "evidence_gated_insert", v, epoch, theta=theta
                ),
            )
        if sum(1 for s in bank.skills if s.action_type == "NOOP") < 2:
            v = _stem_version(bank, "skip")
            sk = skills.make_catalog_skill("noise_threshold_skip", v, epoch, theta=0.5)
            if sk.id in pending_ids:
                return None
            return skills.BankChange(op="add", skill=sk)
        return None
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
