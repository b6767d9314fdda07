"""Memory bank semantics: edits, retrieval ordering, auditable snapshots."""

import json

import numpy as np
import pytest

from pcfmem import embed, memory
from pcfmem.memory import MemoryBank, MemoryEdit, MemoryEntry, MemoryKey


def _key(param="pitch", metric="dispersion", bucket="1.55-band", regime="mid"):
    return MemoryKey(param, metric, bucket, regime)


def _insert(statement, key=None, kind="param_map", **kw):
    entry = MemoryEntry(
        id=0,
        key=key or _key(),
        kind=kind,
        statement=statement,
        direction=kw.pop("direction", 1),
        slope=kw.pop("slope", 0.0),
        **kw,
    )
    return MemoryEdit(op="INSERT", entry=entry)


def test_bucket_and_regime_boundaries():
    assert memory.lambda_bucket(1.31) == "1.31-band"
    assert memory.lambda_bucket(1.45) == "1.55-band"
    assert memory.lambda_bucket(1.55) == "1.55-band"
    assert memory.dratio_regime(0.30) == "low"
    assert memory.dratio_regime(0.45) == "mid"
    assert memory.dratio_regime(0.70) == "high"
    assert memory.dratio_regime(0.85) == "high"


def test_insert_then_duplicate():
    bank = MemoryBank()
    _, outs = memory.apply_edits(
        bank,
        [
            _insert("pitch raises dispersion"),
            _insert("pitch raises dispersion again"),  # same key + kind
            _insert("pitch raises loss", key=_key(metric="loss")),
        ],
    )
    assert [o.status for o in outs] == ["applied", "duplicate", "applied"]
    assert len(bank.active()) == 2
    assert bank.next_id == 3


def test_insert_takes_the_next_id():
    bank = MemoryBank()
    memory.apply_edits(bank, [_insert("a"), _insert("b", key=_key(regime="low"))])
    edit = _insert("c", key=_key(regime="high"))
    _, outs = memory.apply_edits(bank, [edit])
    assert outs[0].status == "applied"
    assert bank.entries[-1] is edit.entry
    assert edit.entry.id == 3
    assert bank.next_id == 4
    # an entry of no known kind is not stored
    _, outs = memory.apply_edits(bank, [_insert("d", kind="rumour")])
    assert outs[0].status == "rejected"
    assert bank.next_id == 4


def test_update_paths():
    bank = MemoryBank()
    memory.apply_edits(bank, [_insert("pitch raises dispersion", slope=2.0)])
    entry = bank.active()[0]

    _, outs = memory.apply_edits(
        bank,
        [
            MemoryEdit(op="UPDATE", target_id=entry.id, changes={"slope": 3.0, "confidence": 0.8}),
            MemoryEdit(op="UPDATE", target_id=entry.id, changes={"support_count": 4}),
            MemoryEdit(op="UPDATE", target_id=999),
        ],
    )
    assert [o.status for o in outs] == ["applied", "applied", "rejected"]
    assert entry.slope == 3.0
    assert entry.confidence == 0.8
    assert entry.support_count == 4


@pytest.mark.parametrize(
    "target_id, changes",
    [
        (1, {"kind": "trend"}),
        (1, {"key": _key(regime="low")}),
        (1, {"archived": True}),
        (1, {"confidence": 0.9, "bogus": 1}),
        (None, {"confidence": 0.9}),
    ],
)
def test_update_rejects_fixed_or_unknown_fields_and_no_target(target_id, changes):
    bank = MemoryBank()
    memory.apply_edits(bank, [_insert("pitch raises dispersion")])
    entry = bank.by_id(1)
    before = entry.as_dict()
    edit = MemoryEdit(op="UPDATE", target_id=target_id, changes=changes)
    _, outs = memory.apply_edits(bank, [edit])
    assert outs[0].status == "rejected"
    assert entry.as_dict() == before


def test_update_clamps_confidence():
    bank = MemoryBank()
    memory.apply_edits(bank, [_insert("x")])
    entry = bank.active()[0]
    memory.apply_edits(
        bank, [MemoryEdit(op="UPDATE", target_id=entry.id, changes={"confidence": 7.0})]
    )
    assert entry.confidence == 1.0


def test_delete_requires_rationale_and_archives():
    bank = MemoryBank()
    memory.apply_edits(bank, [_insert("pitch raises dispersion")])
    entry = bank.active()[0]

    _, outs = memory.apply_edits(bank, [MemoryEdit(op="DELETE", target_id=entry.id)])
    assert outs[0].status == "rejected"
    assert not entry.archived

    _, outs = memory.apply_edits(
        bank,
        [MemoryEdit(op="DELETE", target_id=entry.id, rationale="contradicted twice")],
    )
    assert outs[0].status == "applied"
    assert entry.archived
    assert entry.archive_reason == "contradicted twice"
    # archived entries stay in the bank for audit, but are no longer active
    assert bank.active() == []
    assert bank.by_id(entry.id) is entry

    # a second delete finds no active target
    _, outs = memory.apply_edits(
        bank, [MemoryEdit(op="DELETE", target_id=entry.id, rationale="again")]
    )
    assert outs[0].status == "rejected"


def test_insert_reuses_key_after_archive():
    bank = MemoryBank()
    memory.apply_edits(bank, [_insert("old claim")])
    eid = bank.active()[0].id
    memory.apply_edits(bank, [MemoryEdit(op="DELETE", target_id=eid, rationale="stale")])
    _, outs = memory.apply_edits(bank, [_insert("new claim")])
    assert outs[0].status == "applied"
    assert len(bank.entries) == 2


def test_unknown_op_rejected():
    bank = MemoryBank()
    _, outs = memory.apply_edits(bank, [MemoryEdit(op="MERGE")])
    assert outs[0].status == "rejected"


def test_retrieve_ranking_and_tie_break():
    bank = MemoryBank()
    memory.apply_edits(
        bank,
        [
            _insert("pitch raises dispersion strongly"),
            _insert("pitch raises dispersion strongly", key=_key(regime="low")),
            _insert("loss falls with more rings", key=_key("n_rings", "loss")),
        ],
    )
    query = embed.embed_text("pitch raises dispersion strongly")
    got, sims = memory.retrieve(bank, query, k=3)
    # identical statements tie on similarity; ascending id breaks the tie
    assert [e.id for e in got[:2]] == [1, 2]
    assert got[2].id == 3
    assert sims[0] == sims[1] > sims[2]

    with pytest.raises(ValueError):
        memory.retrieve(bank, query, k=0)


def test_retrieve_skips_archived():
    bank = MemoryBank()
    memory.apply_edits(bank, [_insert("pitch raises dispersion")])
    eid = bank.active()[0].id
    memory.apply_edits(bank, [MemoryEdit(op="DELETE", target_id=eid, rationale="x")])
    query = embed.embed_text("pitch raises dispersion")
    assert memory.retrieve(bank, query, k=5) == ([], [])


def _bank_of(statements):
    """A bank with one active entry per statement, each under its own key."""
    keys = [
        MemoryKey(p, m, b, r)
        for p in ("pitch", "hole_d", "n_rings")
        for m in ("dispersion", "loss", "n_eff")
        for b in memory.LAMBDA_BUCKETS
        for r in memory.REGIMES
    ]
    assert len(statements) <= len(keys)
    bank = MemoryBank()
    _, outs = memory.apply_edits(
        bank, [_insert(text, key=key) for text, key in zip(statements, keys)]
    )
    assert all(o.status == "applied" for o in outs)
    return bank


def test_retrieve_scores_are_the_cosines_it_ranks_by(small_corpus):
    traces = small_corpus["traces"]
    statements = [s.text for s in traces[0].spans + traces[1].spans][:20]
    bank = _bank_of(statements)
    memory.apply_edits(bank, [MemoryEdit(op="DELETE", target_id=3, rationale="x")])
    queries = [s.text for t in traces[2:6] for s in t.spans]
    queries += [q.text for q in small_corpus["queries"][:40]]
    for text in queries:
        query = embed.embed_text(text)
        got, sims = memory.retrieve(bank, query, k=len(statements))
        fresh = [embed.cosine(query, embed.embed_text(e.statement)) for e in got]
        assert np.array(sims).tobytes() == np.array(fresh).tobytes(), text
        want = sorted(
            bank.active(), key=lambda e: (-embed.cosine(query, bank.embedding_of(e)), e.id)
        )
        assert got == want
        top, top_sims = memory.retrieve(bank, query, k=5)
        assert top == got[:5] and top_sims == sims[:5]


def test_retrieve_scores_a_statement_without_tokens_zero():
    bank = _bank_of(["!!!", "loss falls fast", "", "-- ..", "loss falls"])
    got, sims = memory.retrieve(bank, embed.embed_text("loss falls"), k=5)
    assert [e.id for e in got] == [5, 2, 1, 3, 4]
    assert sims[1] > 0.0 and sims[2:] == [0.0] * 3
    # a query without tokens scores every entry 0.0 and ranks them by id
    got, sims = memory.retrieve(bank, embed.embed_text("?!"), k=5)
    assert [e.id for e in got] == [1, 2, 3, 4, 5]
    assert sims == [0.0] * 5


def test_retrieve_rejects_a_query_of_the_wrong_dimension():
    bank = _bank_of(["pitch raises dispersion"])
    with pytest.raises(ValueError, match="dimension mismatch"):
        memory.retrieve(bank, np.ones(embed.TEXT_DIM + 1), k=5)
    with pytest.raises(ValueError, match="dimension mismatch"):
        memory.retrieve(bank, np.ones(8), k=5)


def test_snapshot_round_trip():
    bank = MemoryBank()
    memory.apply_edits(
        bank,
        [
            _insert("pitch raises dispersion", slope=2.5, geom={"pitch_um": 2.3}),
            _insert("loss falls with rings", key=_key("n_rings", "loss"), direction=-1),
        ],
    )
    memory.apply_edits(
        bank, [MemoryEdit(op="DELETE", target_id=1, rationale="superseded")]
    )
    text = memory.snapshot(bank)
    assert json.loads(text) == {
        "next_id": bank.next_id,
        "entries": [e.as_dict() for e in bank.entries],
    }
    assert json.loads(text)["entries"][0]["archive_reason"] == "superseded"


def test_embedding_cache_invalidated_on_statement_update():
    bank = MemoryBank()
    memory.apply_edits(bank, [_insert("pitch raises dispersion")])
    entry = bank.active()[0]
    before = bank.embedding_of(entry).copy()
    memory.apply_edits(
        bank,
        [
            MemoryEdit(
                op="UPDATE", target_id=entry.id, changes={"statement": "rings cut loss fast"}
            )
        ],
    )
    after = bank.embedding_of(entry)
    assert not np.array_equal(before, after)
    assert np.array_equal(after, embed.embed_text("rings cut loss fast"))


def test_entry_ids_are_stable_and_monotone():
    bank = MemoryBank()
    memory.apply_edits(bank, [_insert("a"), _insert("b", key=_key(regime="low"))])
    memory.apply_edits(bank, [MemoryEdit(op="DELETE", target_id=1, rationale="x")])
    memory.apply_edits(bank, [_insert("c", key=_key(regime="high"))])
    assert [e.id for e in bank.entries] == [1, 2, 3]
