"""Skill bank invariants: templates, validation, guarded mutation."""

import dataclasses
import hashlib
import json

import pytest

from pcfmem import designer, skills
from pcfmem.skills import BankChange, Skill, SkillConfigError


def test_initial_bank_covers_every_action_type():
    bank = skills.initial_bank()
    assert bank.bank_version == 0
    assert bank.retired == []
    assert sorted(s.action_type for s in bank.skills) == [
        "DELETE",
        "INSERT",
        "NOOP",
        "UPDATE",
    ]
    assert bank.ids() == [
        "insert_topology_feature_v1",
        "update_performance_trend_v1",
        "delete_invalid_assumption_v1",
        "skip_v1",
    ]
    for s in bank.skills:
        skills.validate_skill(s)
        assert s.introduced_epoch == 0


def test_bank_json_round_trip():
    bank = skills.initial_bank()
    clone = skills.bank_from_json(bank.to_json())
    assert clone.to_json() == bank.to_json()


def test_validate_skill_errors():
    ok = skills.initial_bank().skills[0]
    wrong_template = Skill(
        id="x_v1", name="X", action_type="INSERT", description="d",
        template_id="made_up", params={},
    )
    with pytest.raises(SkillConfigError):
        skills.validate_skill(wrong_template)
    wrong_action = Skill(
        id="x_v1", name="X", action_type="DELETE", description="d",
        template_id=ok.template_id, params=dict(ok.params),
    )
    with pytest.raises(SkillConfigError):
        skills.validate_skill(wrong_action)
    no_desc = Skill(
        id="x_v1", name="X", action_type=ok.action_type, description="",
        template_id=ok.template_id, params=dict(ok.params),
    )
    with pytest.raises(SkillConfigError):
        skills.validate_skill(no_desc)
    missing_param = Skill(
        id="x_v1", name="X", action_type=ok.action_type, description="d",
        template_id=ok.template_id, params={},
    )
    with pytest.raises(SkillConfigError):
        skills.validate_skill(missing_param)
    extra_param = Skill(
        id="x_v1", name="X", action_type=ok.action_type, description="d",
        template_id=ok.template_id, params={**ok.params, "lambda_scoped": 0},
    )
    with pytest.raises(SkillConfigError, match=r"\['lambda_scoped', 'theta_sig'\].*\['theta_sig'\]"):
        skills.validate_skill(extra_param)
    for value in (True, "0.5", None, float("nan"), float("inf")):
        bad_value = dataclasses.replace(ok, params={"theta_sig": value})
        with pytest.raises(SkillConfigError, match=f"{ok.id}: param theta_sig"):
            skills.validate_skill(bad_value)


def test_catalog_constructs_valid_skills():
    assert len(skills.CATALOG_NAMES) == 5
    for name in skills.CATALOG_NAMES:
        sk = skills.make_catalog_skill(name, version=3, epoch=2)
        skills.validate_skill(sk)
        assert sk.id.endswith("_v3")
        assert sk.version == 3
        assert sk.introduced_epoch == 2
    with pytest.raises(SkillConfigError):
        skills.make_catalog_skill("nonexistent", 1, 0)
    with pytest.raises(SkillConfigError):
        skills.make_catalog_skill("failure_boundary_insert", 1, 0, theta=1.0)


def test_seed_and_catalog_skills_keep_their_recorded_bytes():
    # digest recorded when the catalog shrank to the five entries the designer
    # proposes and the seed skills lost three params that were always 0
    h = hashlib.sha256()
    for name in skills.CATALOG_NAMES:
        for version, epoch in ((1, 0), (3, 2)):
            sk = skills.make_catalog_skill(name, version, epoch)
            h.update(json.dumps(sk.as_dict(), sort_keys=True).encode())
    h.update(json.dumps(skills.initial_bank().as_dict(), sort_keys=True).encode())
    assert h.hexdigest() == (
        "5e390fd61e66baa5259bfbb2587e6b66612ae1f7f3a358ff8dc51305c3fbde6b"
    )


def test_next_version_counts_retired_ids():
    bank = skills.initial_bank()
    assert skills.next_version(bank, "regime_aware_update") == 2
    ch = designer._change_for_cluster(bank, "wrong_trend", 1, [])
    bank2 = skills.mutate(bank, [ch])
    # v1 now sits in the retired ledger, v2 is active
    assert skills.next_version(bank2, "regime_aware_update") == 3
    # a catalog entry whose stem the bank has never held starts at 1
    assert skills.next_version(bank, "failure_boundary_insert") == 1
    with pytest.raises(SkillConfigError):
        skills.next_version(bank, "nonexistent")


def test_mutate_add_retire_replace():
    bank = skills.initial_bank()
    new = skills.make_catalog_skill("failure_boundary_insert", 1, 1)
    upgraded = skills.make_catalog_skill("regime_aware_update", 2, 1)
    out = skills.mutate(
        bank,
        [
            BankChange(op="add", skill=new),
            BankChange(op="replace", target_id="update_performance_trend_v1", skill=upgraded),
            BankChange(op="retire", target_id="delete_invalid_assumption_v1"),
        ],
    )
    # input bank untouched
    assert bank.bank_version == 0
    assert len(bank.skills) == 4
    assert out.bank_version == 1
    assert new.id in out.ids()
    assert upgraded.id in out.ids()
    assert "update_performance_trend_v1" not in out.ids()
    assert "delete_invalid_assumption_v1" not in out.ids()
    retired_ids = [r["skill"]["id"] for r in out.retired]
    assert retired_ids == ["update_performance_trend_v1", "delete_invalid_assumption_v1"]
    assert all(r["retired_at_version"] == 1 for r in out.retired)


def test_mutate_guards():
    bank = skills.initial_bank()
    dup = skills.initial_bank().skills[0]
    with pytest.raises(SkillConfigError):
        skills.mutate(bank, [BankChange(op="add", skill=dup)])
    with pytest.raises(SkillConfigError):
        skills.mutate(bank, [BankChange(op="retire", target_id="ghost_v1")])
    with pytest.raises(SkillConfigError):
        skills.mutate(bank, [BankChange(op="replace", target_id="skip_v1", skill=None)])
    with pytest.raises(SkillConfigError):
        skills.mutate(bank, [BankChange(op="frobnicate")])
    # a replace must not bring in an id the bank already holds, or the bank
    # would be one that bank_from_json rejects
    clash = skills.make_catalog_skill("evidence_gated_insert", 1, 1)
    with pytest.raises(SkillConfigError, match="duplicate"):
        skills.mutate(
            bank,
            [BankChange(op="replace", target_id="update_performance_trend_v1", skill=clash)],
        )
    # retiring the only NOOP skill must fail
    with pytest.raises(SkillConfigError):
        skills.mutate(bank, [BankChange(op="retire", target_id="skip_v1")])
    # emptying the bank must fail before the NOOP check can pass
    everything = [BankChange(op="retire", target_id=i) for i in bank.ids()]
    with pytest.raises(SkillConfigError):
        skills.mutate(bank, everything)


def test_mutate_versions_accumulate():
    bank = skills.initial_bank()
    b1 = skills.mutate(
        bank, [BankChange(op="add", skill=skills.make_catalog_skill("failure_boundary_insert", 1, 1))]
    )
    b2 = skills.mutate(b1, [])
    assert (b1.bank_version, b2.bank_version) == (1, 2)
    # identity mutation copies content
    assert {s.id for s in b2.skills} == {s.id for s in b1.skills}
