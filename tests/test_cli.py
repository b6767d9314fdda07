"""Command line surface: exit codes, file outputs and determinism."""

import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pcfmem
from pcfmem import cli, datagen, policy, skills, trainer
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
    # text that does not parse names the file it came from
    cfg.write_text("{seed: 1}")
    code, _, err = _run(
        ["gen-data", "--config", str(cfg), "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert f"data error: {cfg}: " in err
    # the retired key is accepted only with the one value eval supports
    cfg.write_text(json.dumps({"workers": 2}))
    code, _, err = _run(
        ["gen-data", "--config", str(cfg), "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert "one process" in err
    # values are checked against the type of each field's default
    bad_values = [
        ("baseline", {"seed": "x"}, "'seed'"),
        ("eval", {"batch": "8"}, "'batch'"),
        ("eval", {"learning_rate": True}, "'learning_rate'"),
        ("eval", {"data_dir": 3}, "'data_dir'"),
        ("eval", {"ablation": "bogus"}, "unknown ablation"),
        # count settings below their least value name the key
        ("evolve", {"designer_cadence": 0}, "'designer_cadence'"),
        ("evolve", {"batch": 0}, "'batch'"),
        ("evolve", {"epochs_per_update": 0}, "'epochs_per_update'"),
        ("evolve", {"minibatch": 0}, "'minibatch'"),
        ("evolve", {"top_k": 0}, "'top_k'"),
        ("eval", {"k_retrieve": 0}, "'k_retrieve'"),
        ("train", {"inner_epochs": 0}, "'inner_epochs'"),
        ("evolve", {"outer_epochs": -1}, "'outer_epochs'"),
    ]
    for command, raw, message in bad_values:
        cfg.write_text(json.dumps(raw))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path)]
        if command == "baseline":
            argv += ["--kind", "random_search"]
        code, _, err = _run(argv, capsys)
        assert code == 2, raw
        assert message in err, raw
    code, _, err = _run(["evolve", "--inner", "0", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "'inner_epochs'" in err
    cfg.write_text(json.dumps({"ablation": "no-controller", "learning_rate": 1}))
    loaded = cli.load_config(str(cfg))
    assert loaded.ablation == "wo_controller"
    assert loaded.learning_rate == 1


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"grad_clip": NaN}', "'grad_clip'"),
        ('{"grad_clip": -1.0}', "'grad_clip'"),
        ('{"grad_clip": 0}', "'grad_clip'"),
        ('{"learning_rate": Infinity}', "'learning_rate'"),
        ('{"bias_b0": -Infinity}', "'bias_b0'"),
    ],
)
def test_non_finite_or_non_positive_clip_config_is_a_data_error(
    text, key, tmp_path, capsys, small_corpus
):
    paths = cli._data_paths(str(tmp_path))
    datagen.save_traces(paths["traces"], small_corpus["traces"])
    datagen.save_queries(paths["queries"], small_corpus["queries"])
    (tmp_path / "splits.json").write_text(json.dumps(small_corpus["splits"]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text[:-1] + ', "batch": 2}')
    code, _, err = _run(
        ["evolve", "--config", str(cfg), "--outer", "1", "--inner", "1", "--out", str(tmp_path)],
        capsys,
    )
    assert code == cli.EXIT_DATA, text
    assert f"config key {key}" in err, text
    assert not (tmp_path / "results.json").exists()


MALFORMED_SPLITS = {
    "unknown_test_id": (
        ["eval", "--ablate", "wo_controller"],
        lambda s: json.dumps(dict(s, test=s["test"] + ["t99999"])),
    ),
    "array": (["baseline", "--kind", "random_search"], lambda s: "[]"),
    "not_json": (["evolve", "--outer", "1", "--inner", "1"], lambda s: json.dumps(s)[:-1]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SPLITS))
def test_malformed_splits_is_a_data_error(name, tmp_path, capsys, small_corpus):
    argv, edit = MALFORMED_SPLITS[name]
    paths = cli._data_paths(str(tmp_path))
    datagen.save_traces(paths["traces"], small_corpus["traces"])
    datagen.save_queries(paths["queries"], small_corpus["queries"])
    (tmp_path / "splits.json").write_text(edit(small_corpus["splits"]))
    code, _, err = _run(argv + ["--out", str(tmp_path)], capsys)
    assert code == cli.EXIT_DATA
    assert f"data error: {tmp_path / 'splits.json'}" in err


@pytest.mark.parametrize("empty", ["train", "val", "test"])
def test_empty_split_is_a_data_error(empty, tmp_path, capsys, small_corpus):
    paths = cli._data_paths(str(tmp_path))
    datagen.save_traces(paths["traces"], small_corpus["traces"])
    datagen.save_queries(paths["queries"], small_corpus["queries"])
    (tmp_path / "splits.json").write_text(json.dumps(dict(small_corpus["splits"], **{empty: []})))
    for argv in (
        ["evolve", "--outer", "1", "--inner", "1"],
        ["eval", "--ablate", "wo_controller"],
        ["baseline", "--kind", "random_search"],
    ):
        code, _, err = _run(argv + ["--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_DATA, argv
        assert f"splits.json: '{empty}' is empty" in err, argv


def test_empty_queries_file_is_a_data_error(tmp_path, capsys, small_corpus):
    paths = cli._data_paths(str(tmp_path))
    datagen.save_traces(paths["traces"], small_corpus["traces"])
    (tmp_path / "queries.jsonl").write_text("")
    (tmp_path / "splits.json").write_text(json.dumps(small_corpus["splits"]))
    code, _, err = _run(["eval", "--ablate", "wo_controller", "--out", str(tmp_path)], capsys)
    assert code == cli.EXIT_DATA
    assert "queries.jsonl:1: no records" in err


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
    # a template and a param that no catalog entry has any more
    "unknown_template": _bank_doc(
        lambda d: d["skills"][0].update(template_id="insert_hotspot", params={"theta_hot": 25.0})
    ),
    "dropped_param": _bank_doc(lambda d: d["skills"][0]["params"].update(lambda_scoped=1)),
    # a NaN threshold never fires, so eval exited 0 with every insert skipped
    "nan_param": _bank_doc(lambda d: d["skills"][0]["params"].update(theta_sig=float("nan"))),
    "string_param": _bank_doc(lambda d: d["skills"][0]["params"].update(theta_sig="abc")),
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
    assert "bank.json" in err


def _write_corpus(tmp_path, small_corpus):
    paths = cli._data_paths(str(tmp_path))
    datagen.save_traces(paths["traces"], small_corpus["traces"])
    datagen.save_queries(paths["queries"], small_corpus["queries"])
    (tmp_path / "splits.json").write_text(json.dumps(small_corpus["splits"]))
    return paths


def _append_line(path, line):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


def _repeat_trace(paths, splits):
    # a later record with a test trace's id, one span long
    t = next(t for t in datagen.load_traces(paths["traces"]) if t.id == splits["test"][0])
    doc = t.as_dict()
    doc["spans"] = doc["spans"][:1]
    _append_line(paths["traces"], json.dumps(doc, sort_keys=True))


def _repeat_query(paths, splits):
    with open(paths["queries"], encoding="utf-8") as fh:
        lines = fh.readlines()
    test_ids = set(splits["test"])
    line = next(l for l in lines[1:] if json.loads(l)["trace_ids"][0] in test_ids)
    _append_line(paths["queries"], line.rstrip("\n"))


def _unknown_param(paths, splits):
    with open(paths["traces"], encoding="utf-8") as fh:
        text = fh.read()
    with open(paths["traces"], "w", encoding="utf-8") as fh:
        fh.write(text.replace('"param": "pitch"', '"param": "girth"'))


def _resplit(**edit):
    def apply(paths, splits):
        with open(paths["splits"], "w", encoding="utf-8") as fh:
            json.dump({**splits, **{k: f(splits) for k, f in edit.items()}}, fh)

    return apply


BROKEN_IDENTITIES = {
    # each corpus exits 0 with changed scores unless the loader refuses it
    "repeated_trace_id": (_repeat_trace, "traces.jsonl:", "repeated id"),
    "repeated_query_id": (_repeat_query, "queries.jsonl:", "repeated id"),
    "unknown_span_param": (_unknown_param, "traces.jsonl:2:", "'girth'"),
    "id_twice_in_a_split": (
        _resplit(test=lambda s: s["test"] + s["test"][:1]),
        "splits.json:", "is listed in 'test' and in 'test'",
    ),
    "id_in_two_splits": (
        _resplit(test=lambda s: s["test"] + s["train"][:1]),
        "splits.json:", "is listed in 'train' and in 'test'",
    ),
}


@pytest.mark.parametrize("name", sorted(BROKEN_IDENTITIES))
def test_broken_corpus_identities_are_data_errors(name, tmp_path, capsys, small_corpus):
    edit, where, message = BROKEN_IDENTITIES[name]
    paths = _write_corpus(tmp_path, small_corpus)
    edit(paths, small_corpus["splits"])
    code, _, err = _run(["eval", "--ablate", "wo_controller", "--out", str(tmp_path)], capsys)
    assert code == cli.EXIT_DATA
    assert f"data error: {tmp_path / where}" in err
    assert message in err


def test_design_query_without_ground_truth_is_a_data_error(tmp_path, capsys, small_corpus):
    # both commands answer design queries from ground_truth["target"]
    paths = _write_corpus(tmp_path, small_corpus)
    docs = [q.as_dict() for q in small_corpus["queries"]]
    for doc in docs:
        if doc["type"] == "parameter_adjustment":
            doc["ground_truth"] = {}
    with open(paths["queries"], "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": datagen.QUERY_FORMAT, "version": 1}) + "\n")
        fh.writelines(json.dumps(doc) + "\n" for doc in docs)
    for argv in (["baseline", "--kind", "nelder_mead"], ["eval", "--ablate", "wo_controller"]):
        code, _, err = _run(argv + ["--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_DATA, argv
        assert f"data error: {tmp_path / 'queries.jsonl'}:" in err, argv
        assert "ground_truth lacks target, reference_geometry" in err, argv


BAD_RECORD_VALUES = {
    # (file, query type or None for a trace, field, value, message); each
    # corpus loaded, and eval exited 0 with changed scores or crashed with a
    # message that named no file, before the loader checked the value
    "direction_word": ("queries", "trend_prediction", "direction", "up", "'up' is not -1, 0 or 1"),
    "direction_five": ("queries", "trend_prediction", "direction", 5, "5 is not -1, 0 or 1"),
    "direction_bool": ("queries", "trend_prediction", "direction", True, "True is not -1"),
    "trend_param": ("queries", "trend_prediction", "param", "girth", "trend param 'girth'"),
    "trend_metric": ("queries", "trend_prediction", "metric", "girth", "trend metric 'girth'"),
    "failure_type": ("queries", "failure_analysis", "failure_type", "typo", "failure type 'typo'"),
    "planted_text": ("queries", "failure_analysis", "planted_entry", "oops", "planted_entry"),
    "planted_key": ("queries", "failure_analysis", "planted_entry", {"key": []}, "planted_entry"),
    "no_spans": ("traces", None, "spans", [], "has no spans"),
    "fractional_reference_rings": (
        "queries", "parameter_adjustment", "reference_geometry",
        {"pitch_um": 2.3, "hole_d_um": 1.15, "n_rings": 6.5}, "n_rings 6.5 is not an integer",
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_RECORD_VALUES))
def test_bad_record_values_are_data_errors(name, tmp_path, capsys, small_corpus):
    kind, qtype, field, value, message = BAD_RECORD_VALUES[name]
    paths = _write_corpus(tmp_path, small_corpus)
    test_ids = set(small_corpus["splits"]["test"])
    with open(paths[kind], encoding="utf-8") as fh:
        lines = fh.readlines()
    # break the first record of a test trace that has the field
    for lineno, line in enumerate(lines[1:], start=2):
        doc = json.loads(line)
        if qtype is None and doc["id"] in test_ids:
            doc[field] = value
            break
        if qtype is not None and doc["type"] == qtype and doc["trace_ids"][0] in test_ids:
            doc["ground_truth"][field] = value
            break
    lines[lineno - 1] = json.dumps(doc) + "\n"
    with open(paths[kind], "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    commands = (["eval", "--ablate", "wo_controller"], ["evolve", "--outer", "1", "--inner", "1"])
    for argv in commands:
        code, _, err = _run(argv + ["--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_DATA, argv
        assert f"data error: {paths[kind]}:{lineno}: " in err, argv
        assert message in err, argv


BAD_TARGETS = {
    # (file, field, value, message); each corpus loaded before the reader
    # checked targets, and a NaN loss target scored every baseline answer 0
    "query_nan_loss": ("queries", "loss_db_km", float("nan"), "target loss_db_km nan is not finite"),
    "query_infinite_dispersion": (
        "queries", "dispersion_ps_nm_km", float("inf"), "target dispersion_ps_nm_km inf is not finite",
    ),
    "query_out_of_band": ("queries", "lambda_um", 1.1, "wavelength 1.1 um outside [1.2, 1.7]"),
    "query_zero_tolerance": ("queries", "tol_loss", 0.0, "tolerances 5.0 and 0.0 must be above 0"),
    "trace_nan_loss": ("traces", "loss_db_km", float("nan"), "target loss_db_km nan is not finite"),
    "trace_negative_tolerance": (
        "traces", "tol_dispersion", -5.0, "tolerances -5.0 and 0.001 must be above 0",
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_TARGETS))
def test_non_finite_or_impossible_target_is_a_data_error(name, tmp_path, capsys, small_corpus):
    kind, field, value, message = BAD_TARGETS[name]
    paths = _write_corpus(tmp_path, small_corpus)
    test_ids = set(small_corpus["splits"]["test"])
    with open(paths[kind], encoding="utf-8") as fh:
        lines = fh.readlines()
    # break the target of the first test-split record that has one
    for lineno, line in enumerate(lines[1:], start=2):
        doc = json.loads(line)
        if kind == "traces" and doc["id"] in test_ids:
            doc["target"][field] = value
            break
        if kind == "queries" and doc["type"] == "parameter_adjustment" and (
            doc["trace_ids"][0] in test_ids
        ):
            doc["ground_truth"]["target"][field] = value
            break
    lines[lineno - 1] = json.dumps(doc) + "\n"
    with open(paths[kind], "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    for argv in (["baseline", "--kind", "random_search"], ["eval", "--ablate", "wo_controller"]):
        code, _, err = _run(argv + ["--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_DATA, argv
        assert f"data error: {paths[kind]}:{lineno}: " in err, argv
        assert message in err, argv


BAD_SPANS = {
    # (field, key, value, message); before spans were checked, eval and
    # evolve both exited 0 on each of these corpora
    "nan_dispersion": (
        "sim_after", "dispersion_ps_nm_km", float("nan"), "sim dispersion_ps_nm_km nan is not finite",
    ),
    "negative_pitch": ("geom_after", "pitch_um", -3.0, "pitch -3.0 um outside"),
    "nan_hole": ("geom_before", "hole_d_um", float("nan"), "hole diameter nan um must be > 0"),
    "out_of_band": ("sim_before", "lambda_um", 2.0, "wavelength 2.0 um outside"),
    "fractional_rings": ("geom_after", "n_rings", 6.7, "n_rings 6.7 is not an integer"),
}


@pytest.mark.parametrize("name", sorted(BAD_SPANS))
def test_non_finite_or_impossible_span_is_a_data_error(name, tmp_path, capsys, small_corpus):
    field, key, value, message = BAD_SPANS[name]
    paths = _write_corpus(tmp_path, small_corpus)
    test_ids = set(small_corpus["splits"]["test"])
    with open(paths["traces"], encoding="utf-8") as fh:
        lines = fh.readlines()
    # break the first span of the first test trace
    lineno, doc = next(
        (n, doc) for n, doc in enumerate(map(json.loads, lines[1:]), start=2)
        if doc["id"] in test_ids
    )
    doc["spans"][0][field][key] = value
    lines[lineno - 1] = json.dumps(doc) + "\n"
    with open(paths["traces"], "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    commands = (["eval", "--ablate", "wo_controller"], ["evolve", "--outer", "1", "--inner", "1"])
    for argv in commands:
        code, _, err = _run(argv + ["--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_DATA, argv
        assert f"data error: {paths['traces']}:{lineno}: " in err, argv
        assert message in err, argv


def test_non_finite_checkpoint_is_a_data_error(tmp_path, capsys, small_corpus):
    _write_corpus(tmp_path, small_corpus)
    ckpt = tmp_path / "checkpoint.npz"
    params = policy.init_params(np.random.default_rng(0))
    policy.save_checkpoint(str(ckpt), params, 0)
    code, _, _ = _run(["eval", "--out", str(tmp_path)], capsys)
    assert code == 0
    # NaN logits pick skills in index order, so this evaluated with exit 0
    params["w1"][0, 0] = np.nan
    policy.save_checkpoint(str(ckpt), params, 0)
    code, _, err = _run(["eval", "--out", str(tmp_path)], capsys)
    assert code == cli.EXIT_DATA
    assert err.startswith(f"data error: {ckpt}: checkpoint w1 is not finite")


@pytest.mark.parametrize("kind", ["queries", "traces"])
def test_record_that_is_no_object_is_a_data_error(kind, tmp_path, capsys, small_corpus):
    # valid JSON but not an object: a data error naming the line, in either file
    paths = _write_corpus(tmp_path, small_corpus)
    with open(paths[kind], encoding="utf-8") as fh:
        lines = fh.readlines()
    lines[1] = "[1]\n"
    with open(paths[kind], "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    code, _, err = _run(["eval", "--ablate", "wo_controller", "--out", str(tmp_path)], capsys)
    assert code == cli.EXIT_DATA
    assert f"data error: {paths[kind]}:2: bad record: TypeError: list, not an object" in err


UNREADABLE_RUN_FILES = {
    # (file, bytes, --ablate); each message starts with the file's path
    "bank_not_json": ("bank.json", b"{\n", "wo_controller"),
    "bank_not_utf8": ("bank.json", b"\xff\xfe", "wo_controller"),
    "checkpoint_one_byte": ("checkpoint.npz", b"x", "full"),
    "checkpoint_empty": ("checkpoint.npz", b"", "full"),
    "checkpoint_bad_zip": ("checkpoint.npz", b"PK\x03\x04garbage", "full"),
}


@pytest.mark.parametrize("name", sorted(UNREADABLE_RUN_FILES))
def test_eval_names_the_run_file_it_cannot_read(name, tmp_path, capsys, small_corpus):
    filename, data, ablation = UNREADABLE_RUN_FILES[name]
    _write_corpus(tmp_path, small_corpus)
    (tmp_path / filename).write_bytes(data)
    code, _, err = _run(["eval", "--ablate", ablation, "--out", str(tmp_path)], capsys)
    assert code == cli.EXIT_DATA
    assert err.startswith(f"data error: {tmp_path / filename}: ")
    assert "allow_pickle" not in err


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


@pytest.mark.parametrize("text", ['{"rows": []}', "[1]", '{"method": 3, "report": {}}', "{"])
def test_report_rejects_a_malformed_result_file(text, tmp_path, capsys):
    (tmp_path / "eval_full.json").write_text(text)
    code, _, err = _run(["report", "--out", str(tmp_path)], capsys)
    assert code == cli.EXIT_DATA
    assert str(tmp_path / "eval_full.json") in err
    assert not (tmp_path / "results.json").exists()


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


def test_sweep_refuses_an_ablation_it_would_not_run(tmp_path, capsys, small_corpus):
    # every cell trains and evaluates the full method
    paths = cli._data_paths(str(tmp_path))
    datagen.save_traces(paths["traces"], small_corpus["traces"])
    datagen.save_queries(paths["queries"], small_corpus["queries"])
    (tmp_path / "splits.json").write_text(json.dumps(small_corpus["splits"]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"batch": 2, "ablation": "wo_controller"}))
    code, _, err = _run(
        ["sweep", "--config", str(cfg), "--outer", "1", "--inner", "1",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == cli.EXIT_DATA
    assert "'ablation'" in err
    assert not (tmp_path / "sweep.json").exists()


def test_run_directory_holds_one_ablation(tmp_path, capsys):
    # a second evolve into the same --out would replace the bank and results
    # of the first but keep its checkpoint, and eval would score the mix
    code, _, _ = _run(
        ["gen-data", "--n-traces", "120", "--seed", "3", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"batch": 8}))
    common = ["--config", str(cfg), "--seed", "3", "--out", str(tmp_path)]
    code, _, _ = _run(["evolve", "--outer", "1", "--inner", "2"] + common, capsys)
    assert code == 0
    names = ("bank.json", "results.json", "checkpoint.npz")
    first = [(tmp_path / name).read_bytes() for name in names]
    for command in (["evolve", "--outer", "1", "--inner", "2"], ["eval"], ["train"]):
        code, _, err = _run(command + ["--ablate", "wo_controller"] + common, capsys)
        assert code == cli.EXIT_DATA, command
        assert "results.json" in err and "'full'" in err and "'wo_controller'" in err
        assert [(tmp_path / name).read_bytes() for name in names] == first
    assert not (tmp_path / "eval_wo_controller.json").exists()
    code, _, _ = _run(["eval"] + common, capsys)
    assert code == 0


def test_evolve_bytes_do_not_depend_on_blas_threads(tmp_path, capsys):
    # the BLAS thread count changes the bits of a matrix product, and through
    # them the gate decisions of training; pcfmem pins its BLAS to one thread
    data_dir = tmp_path / "data"
    assert cli.dispatch(
        ["gen-data", "--n-traces", "80", "--seed", "11", "--out", str(data_dir)]
    ) == 0
    capsys.readouterr()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 11, "data_dir": str(data_dir), "batch": 8}))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    names = ("results.json", "bank.json", "checkpoint.npz")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"run_{threads}"
        subprocess.run(
            [sys.executable, "-m", "pcfmem.cli", "evolve", "--config", str(cfg_path),
             "--outer", "2", "--inner", "3", "--out", str(out)],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src),
            check=True, capture_output=True,
        )
        outputs.append([(out / name).read_bytes() for name in names])
    for name, one, two in zip(names, *outputs):
        assert one == two, name


# sha256 of every file the pipeline writes at 80 traces, seed 11; a change
# that moves output bytes on purpose records the new digests here
PIPELINE_DIGESTS = {
    "data/gen_summary.json": "185555d00fc6b1c22a960b01e0a0eafdbbfa0886ae05ef4d81d99fbc8df60526",
    "data/queries.jsonl": "1edbb31a65e556c31112048c61c3c66c6dd3fbea2342f04f52d41a70f9ad0c48",
    "data/splits.json": "e01620a1496bac68f153e0516b5f9f008ac06727e10774ee49737e52464c0e58",
    "data/traces.jsonl": "6dcb6800a9b9505d81f1fd505ade34ed0f41ab2abed3f8275144577aa28d3ea3",
    "full/bank.json": "7c0d70fae3939b6c4d57b48ec8a7e99a57e84d3c42c8a24b44bba0e71ededde5",
    "full/checkpoint.npz": "78f145f80d740b071833c10097faebaabf0f4dc85ca8da7f82a07d16f55bafbc",
    "full/eval_full.json": "cc70e9ca9aa047154310272836dbaf9599c7855cb06f506a43b95b9118b52937",
    "full/results.json": "03ed39537d20aa8304d220980c20c0b63f29d5cb66baf41e599267004d067078",
    "wo_controller/eval_wo_controller.json":
        "020927c57f433ec0f0b0303b7845d7faa258d2dd77b194c7a328adde8a556e23",
    "baselines/baseline_nelder_mead.json":
        "ae86df41fca5d3f7517c10817acd37a790c7be9f434ea35ac7bdf0ea024e9508",
    "baselines/baseline_random_search.json":
        "e0e780481846560824d3318ed567615014c2718381dc3527647145bb5228fe2e",
    "baselines/baseline_surrogate.json":
        "1c5d9bb9cb2483673b98f0d8b1000c4f928fe0a9c04b5481131bc942117f0958",
}


def test_pipeline_bytes_match_recorded_digests(tmp_path, capsys):
    data = tmp_path / "data"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"batch": 8, "data_dir": str(data)}))
    common = ["--config", str(cfg), "--seed", "11"]
    steps = [
        ["gen-data", "--n-traces", "80", "--out", str(data)],
        ["evolve", "--outer", "2", "--inner", "3", "--out", str(tmp_path / "full")],
        ["eval", "--out", str(tmp_path / "full")],
        ["eval", "--ablate", "wo_controller", "--out", str(tmp_path / "wo_controller")],
    ] + [
        ["baseline", "--kind", kind, "--out", str(tmp_path / "baselines")]
        for kind in ("random_search", "nelder_mead", "surrogate")
    ]
    for argv in steps:
        code, _, err = _run(argv + common, capsys)
        assert code == 0, (argv, err)
    digests = {
        f"{d}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for d in ("data", "full", "wo_controller", "baselines")
        for path in (tmp_path / d).iterdir()
    }
    assert digests == PIPELINE_DIGESTS


def test_blas_pin_warns_without_bundled_openblas(monkeypatch, capsys):
    # a numpy built against another BLAS exports no scipy-openblas symbol
    monkeypatch.setattr(pcfmem.ctypes, "CDLL", lambda path: object())
    pcfmem.pin_blas_threads()
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "cannot set the BLAS thread count" in err
