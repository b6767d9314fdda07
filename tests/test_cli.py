"""Command line surface: exit codes, file outputs and determinism."""

import csv
import dataclasses
import json
import os

import numpy as np
import pytest

from pcfmem import cli, datagen, skills, trainer
from pcfmem.datagen import CorpusFormatError


def _run(argv, capsys):
    code = cli.dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors_exit_one(capsys):
    code, _, err = _run([], capsys)
    assert code == cli.EXIT_USAGE == 1
    assert "usage" in err
    code, _, err = _run(["frobnicate"], capsys)
    assert code == 1
    assert "invalid choice" in err
    code, _, err = _run(["gen-data", "--workers", "2"], capsys)
    assert code == 1
    assert "unrecognized arguments" in err


def test_bad_baseline_kind_is_a_data_error(tmp_path, capsys):
    code, _, err = _run(
        ["baseline", "--kind", "hillclimb", "--out", str(tmp_path)], capsys
    )
    assert code == cli.EXIT_DATA == 2
    assert "unknown baseline" in err


def test_config_validation(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"zzz_bogus": 1}))
    code, _, err = _run(
        ["gen-data", "--config", str(cfg), "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert "unknown config keys" in err
    cfg.write_text(json.dumps([1, 2]))
    code, _, err = _run(
        ["gen-data", "--config", str(cfg), "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert "JSON object" in err
    # the retired key is accepted only with the one value eval supports
    cfg.write_text(json.dumps({"workers": 2}))
    code, _, err = _run(
        ["gen-data", "--config", str(cfg), "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert "one process" in err


def _bank_doc(edit):
    doc = skills.initial_bank().as_dict()
    edit(doc)
    return doc


MALFORMED_BANKS = {
    "empty_object": {},
    "array": [],
    "skill_without_name": _bank_doc(lambda d: d["skills"][0].pop("name")),
    "duplicate_id": _bank_doc(lambda d: d["skills"].append(dict(d["skills"][0]))),
    "no_noop": _bank_doc(
        lambda d: d.update(skills=[s for s in d["skills"] if s["action_type"] != "NOOP"])
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_BANKS))
def test_malformed_bank_is_a_data_error(name, tmp_path, capsys, small_corpus):
    paths = cli._data_paths(str(tmp_path))
    datagen.save_traces(paths["traces"], small_corpus["traces"])
    datagen.save_queries(paths["queries"], small_corpus["queries"])
    (tmp_path / "splits.json").write_text(json.dumps(small_corpus["splits"]))
    (tmp_path / "bank.json").write_text(json.dumps(MALFORMED_BANKS[name]))
    code, _, err = _run(
        ["eval", "--ablate", "wo_controller", "--out", str(tmp_path)], capsys
    )
    assert code == cli.EXIT_DATA
    assert "data error" in err


def test_eval_missing_corpus(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data_dir": str(tmp_path / "nowhere")}))
    code, _, err = _run(
        ["eval", "--config", str(cfg), "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert "missing corpus file" in err


def test_gen_data_outputs_are_byte_deterministic(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code, out, _ = _run(
            ["gen-data", "--n-traces", "80", "--seed", "5", "--out", str(d)],
            capsys,
        )
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["n_traces"] == 80
        assert summary["n_queries"] == 240
        # 10 per family: 7 train, remainder seat goes to val ahead of test
        assert summary["splits"] == {"test": 8, "train": 56, "val": 16}
    for name in ("traces.jsonl", "queries.jsonl", "splits.json", "gen_summary.json"):
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, name


def test_report_merges_and_formats_none(tmp_path, capsys):
    rep_a = {
        "f1": 41.2, "design": None, "param": 66.0, "trend": None,
        "succ": 80.0, "qual": 72.5, "phys": None, "calls_per_query": 100.0,
        "n_queries": 10, "missing_metrics": ["judge", "human"],
    }
    rep_b = dict(rep_a, f1=55.0, calls_per_query=0.25)
    (tmp_path / "baseline_random_search.json").write_text(
        json.dumps({"method": "random_search", "report": rep_a})
    )
    (tmp_path / "eval_full.json").write_text(
        json.dumps({"method": "agent_full", "report": rep_b})
    )
    code, out, _ = _run(["report", "--out", str(tmp_path)], capsys)
    assert code == 0
    merged = json.loads((tmp_path / "results.json").read_text())
    assert [r["method"] for r in merged["table"]] == ["agent_full", "random_search"]
    assert merged["missing_metrics"] == ["judge", "human"]
    printed = json.loads(out.strip().splitlines()[-1])
    assert printed == merged
    with open(tmp_path / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == cli.CSV_COLUMNS
    assert rows[1][0] == "agent_full"
    by_col = dict(zip(rows[0], rows[2]))
    assert by_col["design"] == ""  # None renders as an empty cell
    assert by_col["calls_per_query"] == "100.0"


def test_report_keeps_the_training_report(tmp_path, capsys):
    training = {
        "ablation": "full",
        "epochs": [{"outer": 0, "mean_return": 0.5}],
        "bank_version_history": [0, 1],
        "train_calls": 120,
        "designer_calls": 7,
        "val_calls": 64,
    }
    (tmp_path / "results.json").write_text(json.dumps(training))
    rep = {"f1": 50.0, "calls_per_query": 0.5, "n_queries": 4}
    (tmp_path / "eval_full.json").write_text(
        json.dumps({"method": "agent", "report": rep})
    )
    code, _, _ = _run(["report", "--out", str(tmp_path)], capsys)
    assert code == 0
    merged = json.loads((tmp_path / "results.json").read_text())
    for key, value in training.items():
        assert merged[key] == value, key
    assert [r["method"] for r in merged["table"]] == ["agent"]
    assert merged["missing_metrics"] == ["judge", "human"]

    (tmp_path / "results.json").write_text("[1, 2]")
    code, _, err = _run(["report", "--out", str(tmp_path)], capsys)
    assert code == cli.EXIT_DATA
    assert "JSON object" in err


def test_canonical_ablation_names():
    assert cli._canonical_ablation("full") == "full"
    assert cli._canonical_ablation("wo-controller") == "wo_controller"
    assert cli._canonical_ablation("no_designer") == "wo_designer"
    assert cli._canonical_ablation("wo_new_action_bias") == "wo_new_action_bias"
    with pytest.raises(CorpusFormatError):
        cli._canonical_ablation("bogus_mode")


def test_run_config_round_trip(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "inner_epochs": 2, "beta": 1.0}))
    loaded = cli.load_config(str(cfg))
    assert loaded.seed == 3
    assert loaded.inner_epochs == 2
    assert loaded.beta == 1.0
    default = cli.load_config(None)
    assert default.outer_epochs == 10
    ppo = loaded.ppo()
    assert ppo.inner_epochs == 2
    assert ppo.beta == 1.0
    assert cli.RunConfig().ppo() == trainer.PPOConfig()
    cfg.write_text(json.dumps({"workers": 1}))
    assert cli.load_config(str(cfg)) == cli.RunConfig()
    assert {f.name for f in dataclasses.fields(cli.RunConfig)} == {
        "seed", "n_traces", "ablation", "data_dir",
        "gamma_d", "gae_lambda", "clip", "entropy_coef", "value_coef",
        "epochs_per_update", "minibatch", "grad_clip", "learning_rate",
        "weight_decay", "gamma_r", "beta", "inner_epochs", "outer_epochs",
        "batch", "k_retrieve", "top_k", "designer_cadence", "max_skills", "bias_b0",
    }


def test_evolve_exits_three_on_non_finite_training(tmp_path, capsys, monkeypatch):
    code, _, _ = _run(
        ["gen-data", "--n-traces", "80", "--seed", "5", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    monkeypatch.setattr(
        trainer, "normalize_advantages", lambda adv: np.full_like(adv, np.nan)
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"batch": 2}))
    code, _, err = _run(
        ["evolve", "--config", str(cfg), "--outer", "1", "--inner", "1",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == cli.EXIT_NUMERIC == 3
    assert "numeric failure" in err
    assert not (tmp_path / "results.json").exists()


def test_sweep_writes_one_cell_per_axis_value(tmp_path, capsys):
    code, _, _ = _run(
        ["gen-data", "--n-traces", "80", "--seed", "5", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"batch": 2}))
    code, _, _ = _run(
        ["sweep", "--config", str(cfg), "--outer", "1", "--inner", "1",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    cells = json.loads((tmp_path / "sweep.json").read_text())["cells"]
    assert [(c["axis"], c["value"]) for c in cells] == [
        (axis, value) for axis, values in cli.SWEEP_AXES.items() for value in values
    ]
    assert len(cells) == 18
