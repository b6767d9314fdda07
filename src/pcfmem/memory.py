"""Trace-specific memory bank: typed entries, retrieval, transactional edits.

Entries carry a typed key (parameter, metric, wavelength bucket, d/pitch
regime) plus quantitative payload. DELETE archives rather than removes, so
every deletion stays auditable. At most one non-archived entry may exist per
(key, kind).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import embed

KINDS = ("param_map", "trend", "constraint", "boundary", "hotspot", "frontier_point")
LAMBDA_BUCKETS = ("1.31-band", "1.55-band")
REGIMES = ("low", "mid", "high")

REGIME_LOW_MAX = 0.45
REGIME_MID_MAX = 0.70
BUCKET_SPLIT_UM = 1.45


def lambda_bucket(lambda_um: float) -> str:
    return "1.31-band" if lambda_um < BUCKET_SPLIT_UM else "1.55-band"


def dratio_regime(dratio: float) -> str:
    if dratio < REGIME_LOW_MAX:
        return "low"
    if dratio < REGIME_MID_MAX:
        return "mid"
    return "high"


@dataclass(frozen=True)
class MemoryKey:
    param: str
    metric: str
    lambda_bucket: str
    regime: str

    def as_dict(self) -> dict:
        return {
            "param": self.param,
            "metric": self.metric,
            "lambda_bucket": self.lambda_bucket,
            "regime": self.regime,
        }


@dataclass
class MemoryEntry:
    id: int
    key: MemoryKey
    kind: str
    statement: str
    direction: int
    slope: float
    support_count: int = 1
    confidence: float = 0.5
    created_step: int = 0
    archived: bool = False
    archive_reason: Optional[str] = None
    contradictions: int = 0
    geom: Optional[dict] = None
    observed: Optional[dict] = None

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "key": self.key.as_dict(),
            "kind": self.kind,
            "statement": self.statement,
            "direction": self.direction,
            "slope": self.slope,
            "support_count": self.support_count,
            "confidence": self.confidence,
            "created_step": self.created_step,
            "archived": self.archived,
            "archive_reason": self.archive_reason,
            "contradictions": self.contradictions,
            "geom": self.geom,
            "observed": self.observed,
        }


@dataclass
class MemoryEdit:
    op: str  # INSERT | UPDATE | DELETE | NOOP
    key: Optional[MemoryKey] = None
    kind: Optional[str] = None
    target_id: Optional[int] = None
    statement: str = ""
    direction: int = 0  # 0 = unset for UPDATE
    slope: Optional[float] = None
    support_count: Optional[int] = None
    confidence: Optional[float] = None
    contradictions: Optional[int] = None
    geom: Optional[dict] = None
    observed: Optional[dict] = None
    created_step: int = 0
    rationale: str = ""
    skip_correct: Optional[bool] = None  # NOOP only


@dataclass
class EditOutcome:
    status: str  # applied | duplicate | rejected | noop
    detail: str = ""


class MemoryBank:
    def __init__(self) -> None:
        self.entries: list[MemoryEntry] = []
        self.next_id: int = 1
        self.texts = embed.TextVectors()

    def active(self) -> list[MemoryEntry]:
        return [e for e in self.entries if not e.archived]

    def active_by_key(self, key: MemoryKey, kind: str) -> Optional[MemoryEntry]:
        for e in self.entries:
            if not e.archived and e.kind == kind and e.key == key:
                return e
        return None

    def by_id(self, id_: int) -> Optional[MemoryEntry]:
        for e in self.entries:
            if e.id == id_:
                return e
        return None

    def embedding_of(self, entry: MemoryEntry) -> np.ndarray:
        return self.texts[entry.statement]


def retrieve(bank: MemoryBank, query: np.ndarray, k: int = 5) -> list[MemoryEntry]:
    """Top-k active entries by cosine similarity, ascending-id tie-break."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scored = []
    for e in bank.entries:
        if e.archived:
            continue
        sim = embed.cosine(query, bank.embedding_of(e))
        scored.append((-sim, e.id, e))
    scored.sort(key=lambda t: (t[0], t[1]))
    return [e for _, _, e in scored[:k]]


def _target(bank: MemoryBank, edit: MemoryEdit) -> Optional[MemoryEntry]:
    """The active entry an UPDATE or DELETE names, by id or by (key, kind)."""
    if edit.target_id is not None:
        entry = bank.by_id(edit.target_id)
        return None if entry is None or entry.archived else entry
    if edit.key is not None and edit.kind is not None:
        return bank.active_by_key(edit.key, edit.kind)
    return None


def _apply_one(bank: MemoryBank, edit: MemoryEdit) -> EditOutcome:
    if edit.op == "NOOP":
        return EditOutcome("noop", detail=edit.rationale)

    if edit.op == "INSERT":
        if edit.key is None or edit.kind is None or edit.kind not in KINDS:
            return EditOutcome("rejected", detail="malformed insert")
        if bank.active_by_key(edit.key, edit.kind) is not None:
            return EditOutcome("duplicate", detail="active key+kind exists")
        entry = MemoryEntry(
            id=bank.next_id,
            key=edit.key,
            kind=edit.kind,
            statement=edit.statement,
            direction=edit.direction,
            slope=edit.slope if edit.slope is not None else 0.0,
            support_count=edit.support_count if edit.support_count is not None else 1,
            confidence=edit.confidence if edit.confidence is not None else 0.5,
            created_step=edit.created_step,
            contradictions=edit.contradictions or 0,
            geom=edit.geom,
            observed=edit.observed,
        )
        bank.entries.append(entry)
        bank.next_id += 1
        return EditOutcome("applied")

    if edit.op == "UPDATE":
        target = _target(bank, edit)
        if target is None:
            return EditOutcome("rejected", detail="update target missing")
        if edit.statement:
            target.statement = edit.statement
        if edit.direction != 0:
            target.direction = edit.direction
        if edit.slope is not None:
            target.slope = edit.slope
        if edit.support_count is not None:
            target.support_count = edit.support_count
        if edit.confidence is not None:
            target.confidence = min(1.0, max(0.0, edit.confidence))
        if edit.contradictions is not None:
            target.contradictions = edit.contradictions
        if edit.geom is not None:
            target.geom = edit.geom
        if edit.observed is not None:
            target.observed = edit.observed
        return EditOutcome("applied")

    if edit.op == "DELETE":
        target = _target(bank, edit)
        if target is None:
            return EditOutcome("rejected", detail="delete target missing")
        if not edit.rationale:
            return EditOutcome("rejected", detail="delete requires a reason")
        target.archived = True
        target.archive_reason = edit.rationale
        return EditOutcome("applied")

    return EditOutcome("rejected", detail=f"unknown op {edit.op!r}")


def apply_edits(
    bank: MemoryBank, edits: list[MemoryEdit]
) -> tuple[MemoryBank, list[EditOutcome]]:
    """Apply edits in order; later edits observe earlier effects."""
    outcomes = [_apply_one(bank, e) for e in edits]
    return bank, outcomes


def snapshot(bank: MemoryBank) -> str:
    doc = {
        "next_id": bank.next_id,
        "entries": [e.as_dict() for e in sorted(bank.entries, key=lambda e: e.id)],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
