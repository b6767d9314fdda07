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

KINDS = ("param_map", "trend", "boundary")
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


# the fields an UPDATE may set: never id, key, kind or the archive fields, so
# one active entry per (key, kind) and "only DELETE archives" hold by construction
UPDATABLE = frozenset(
    ("statement", "direction", "slope", "support_count", "confidence",
     "contradictions", "geom", "observed")
)


@dataclass
class MemoryEdit:
    """One edit, carrying only what its operation uses."""

    op: str  # INSERT | UPDATE | DELETE | NOOP
    entry: Optional[MemoryEntry] = None  # INSERT; its id is assigned on apply
    target_id: Optional[int] = None  # UPDATE and DELETE
    changes: Optional[dict] = None  # UPDATE: field name -> new value
    rationale: str = ""  # DELETE: the archive reason
    skip_correct: Optional[bool] = None  # NOOP


@dataclass
class EditOutcome:
    status: str  # applied | duplicate | rejected | noop


class _StatementVectors(embed.TextVectors):
    """A bank's statement vectors, each with its norm as ``embed.cosine``
    computes it in ``norms[statement]``; only ``retrieve`` reads norms."""

    def __init__(self) -> None:
        super().__init__()
        self.norms: dict[str, float] = {}

    def __missing__(self, text: str) -> np.ndarray:
        vec = super().__missing__(text)
        self.norms[text] = embed.norm(vec)
        return vec


class MemoryBank:
    def __init__(self) -> None:
        self.entries: list[MemoryEntry] = []
        self.next_id: int = 1
        self.texts = _StatementVectors()

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


def retrieve(bank: MemoryBank, query: np.ndarray, k: int = 5) -> tuple[list, list[float]]:
    """Top-k active entries by cosine similarity, ascending-id tie-break,
    and their similarities to ``query``, in the same order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if query.shape != (embed.TEXT_DIM,):
        raise ValueError(f"dimension mismatch: {query.shape} vs {(embed.TEXT_DIM,)}")
    q_norm = embed.norm(query)
    scored = []
    for e in bank.entries:
        if e.archived:
            continue
        vec = bank.embedding_of(e)
        sim = embed.cosine_from_norms(query, q_norm, vec, bank.texts.norms[e.statement])
        scored.append((sim, e.id, e))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [e for _, _, e in scored[:k]], [sim for sim, _, _ in scored[:k]]


def _apply_one(bank: MemoryBank, edit: MemoryEdit) -> EditOutcome:
    if edit.op == "NOOP":
        return EditOutcome("noop")

    if edit.op == "INSERT":
        entry = edit.entry
        if entry is None or entry.kind not in KINDS:
            return EditOutcome("rejected")
        if bank.active_by_key(entry.key, entry.kind) is not None:
            return EditOutcome("duplicate")
        entry.id = bank.next_id
        bank.entries.append(entry)
        bank.next_id += 1
        return EditOutcome("applied")

    target = None if edit.target_id is None else bank.by_id(edit.target_id)
    if target is None or target.archived:
        return EditOutcome("rejected")

    if edit.op == "UPDATE":
        changes = edit.changes or {}
        if not UPDATABLE.issuperset(changes):
            return EditOutcome("rejected")
        for name, value in changes.items():
            setattr(target, name, value)
        if "confidence" in changes:
            target.confidence = min(1.0, max(0.0, target.confidence))
        return EditOutcome("applied")

    if edit.op == "DELETE" and edit.rationale:
        target.archived = True
        target.archive_reason = edit.rationale
        return EditOutcome("applied")

    return EditOutcome("rejected")


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
