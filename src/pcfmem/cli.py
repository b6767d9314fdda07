"""Command-line entry point.

Subcommands: gen-data, evolve, eval, baseline, report, sweep.
``evolve --outer 0`` trains the inner loop alone on the initial skill bank.
Exit codes: 0 success, 1 usage, 2 data error, 3 numeric failure.
Configuration comes from an optional JSON file plus flag overrides; runs
with the same config are byte-identical on disk.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import glob
import json
import math
import os
import sys

import numpy as np

from . import baselines, datagen, evalsuite, physics, policy, skills, trainer
from .datagen import CorpusFormatError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

ABLATION_LABELS = {
    "full": "full",
    "wo_designer": "w/o designer evolution",
    "wo_redistribution": "w/o reward redistribution",
    "wo_new_action_bias": "w/o new-action bias",
    "wo_controller": "w/o skill controller",
}

SWEEP_AXES = {
    "k_retrieve": (3, 5, 7),
    "learning_rate": (3e-5, 1e-4, 3e-4),
    "entropy_coef": (0.0, 0.01, 0.05),
    "designer_cadence": (1, 2, 5),
    "max_skills": (4, 8, 12),
    "top_k": (1, 2, 3),
}

# count settings and their least values; a 0 would train nothing or divide
# by zero deep inside the loop
COUNT_MINIMUMS = {
    "inner_epochs": 1, "batch": 1, "minibatch": 1, "epochs_per_update": 1,
    "k_retrieve": 1, "top_k": 1, "designer_cadence": 1, "outer_epochs": 0,
}

CSV_COLUMNS = ("method", "f1", "design", "param", "trend", "succ", "qual", "phys", "calls_per_query")


@dataclasses.dataclass
class RunConfig(trainer.PPOConfig):
    """Training settings (``trainer.PPOConfig``) plus the run's own."""

    seed: int = 0
    n_traces: int = 500
    ablation: str = "full"
    data_dir: str = ""

    def ppo(self) -> trainer.PPOConfig:
        return trainer.PPOConfig(
            **{f.name: getattr(self, f.name) for f in dataclasses.fields(trainer.PPOConfig)}
        )


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise CorpusFormatError("config must be a JSON object")
    # retired key that existing configs still carry: eval runs in one process
    if raw.pop("workers", 1) != 1:
        raise CorpusFormatError("config key 'workers' must be 1: eval runs in one process")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise CorpusFormatError(f"unknown config keys: {', '.join(unknown)}")
    defaults = RunConfig()
    for name, value in raw.items():
        want = type(getattr(defaults, name))
        accepted = (int, float) if want is float else want
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise CorpusFormatError(
                f"config key {name!r} must be of type {want.__name__}, got {value!r}"
            )
        # json reads NaN and +-Infinity
        if isinstance(value, float) and not math.isfinite(value):
            raise CorpusFormatError(f"config key {name!r} must be finite, got {value!r}")
    if raw.get("grad_clip", 1.0) <= 0.0:
        raise CorpusFormatError(f"config key 'grad_clip' must be above 0, got {raw['grad_clip']!r}")
    if "ablation" in raw:
        raw["ablation"] = _canonical_ablation(raw["ablation"])
    return RunConfig(**raw)


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "ablate", None) is not None:
        cfg.ablation = _canonical_ablation(args.ablate)
    if getattr(args, "outer", None) is not None:
        cfg.outer_epochs = args.outer
    if getattr(args, "inner", None) is not None:
        cfg.inner_epochs = args.inner
    for name, least in COUNT_MINIMUMS.items():
        value = getattr(cfg, name)
        if value < least:
            raise CorpusFormatError(f"config key {name!r} must be at least {least}, got {value}")
    return cfg


def _canonical_ablation(name: str) -> str:
    norm = name.strip().lower().replace("-", "_")
    if norm.startswith("no_"):
        norm = "wo_" + norm[3:]
    if norm not in trainer.ABLATIONS:
        raise CorpusFormatError(
            f"unknown ablation {name!r}; expected one of {', '.join(trainer.ABLATIONS)}"
        )
    return norm


def _read_json(path: str):
    """The JSON value in ``path``; a parse error is a data error that names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from None


def _write_json(path: str, payload: dict) -> None:
    clean = {k: v for k, v in payload.items() if not k.startswith("_")}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(clean, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _data_paths(base: str) -> dict:
    return {
        "traces": os.path.join(base, "traces.jsonl"),
        "queries": os.path.join(base, "queries.jsonl"),
        "splits": os.path.join(base, "splits.json"),
    }


def _load_corpus(data_dir: str):
    """(traces by id, queries, splits) of the corpus in ``data_dir``."""
    paths = _data_paths(data_dir)
    for p in paths.values():
        if not os.path.exists(p):
            raise CorpusFormatError(f"missing corpus file: {p}")
    traces = datagen.load_traces(paths["traces"])
    queries = datagen.load_queries(paths["queries"])
    splits = _read_json(paths["splits"])
    by_id = {t.id: t for t in traces}
    for q in queries:
        for i in q.trace_ids:
            if i not in by_id:
                raise CorpusFormatError(
                    f"{paths['queries']}: query {q.id!r} names trace {i!r}, "
                    f"which is not in {paths['traces']}"
                )
    split_of: dict[str, str] = {}
    for name in ("train", "val", "test"):
        ids = splits.get(name) if isinstance(splits, dict) else None
        if not (isinstance(ids, list) and all(isinstance(i, str) and i in by_id for i in ids)):
            raise CorpusFormatError(
                f"{paths['splits']}: {name!r} must be a list of ids from {paths['traces']}"
            )
        # an empty val split would make the designer gate compare 0 with 0
        # and accept every proposal
        if not ids:
            raise CorpusFormatError(f"{paths['splits']}: {name!r} is empty")
        for i in ids:
            if i in split_of:
                raise CorpusFormatError(
                    f"{paths['splits']}: id {i!r} is listed in {split_of[i]!r} and in {name!r}"
                )
            split_of[i] = name
    return by_id, queries, splits


def _read_results(out: str) -> dict:
    """The ``results.json`` in ``out``, or {} when there is none."""
    path = os.path.join(out, "results.json")
    if not os.path.exists(path):
        return {}
    results = _read_json(path)
    if not isinstance(results, dict):
        raise CorpusFormatError(f"{path} must hold a JSON object")
    return results


def _check_run_ablation(cfg: RunConfig, out: str) -> None:
    """Refuse to mix two ablations' outputs in one run directory.

    Otherwise a second evolve would replace the bank and results of the
    first but keep its checkpoint, and eval would score a mixed run.
    """
    found = _read_results(out).get("ablation", cfg.ablation)
    if found != cfg.ablation:
        raise CorpusFormatError(
            f"{os.path.join(out, 'results.json')} holds the run of ablation {found!r}, "
            f"not {cfg.ablation!r}; use another --out"
        )


def _split_queries(queries, trace_ids) -> list:
    ids = set(trace_ids)
    return [q for q in queries if q.trace_ids[0] in ids]


# --- subcommands ----------------------------------------------------------


def cmd_gen_data(cfg: RunConfig, out: str) -> int:
    os.makedirs(out, exist_ok=True)
    counter = physics.CallCounter()
    traces = datagen.gen_corpus(cfg.n_traces, cfg.seed, counter)
    queries = datagen.gen_queries(traces, cfg.seed, counter)
    splits = datagen.split(traces, cfg.seed)
    paths = _data_paths(out)
    datagen.save_traces(paths["traces"], traces)
    datagen.save_queries(paths["queries"], queries)
    _write_json(paths["splits"], splits)
    spans = [len(t.spans) for t in traces]
    summary = {
        "n_traces": len(traces),
        "n_queries": len(queries),
        "mean_spans": round(float(np.mean(spans)), 4),
        "success_rate": round(float(np.mean([t.success for t in traces])), 4),
        "gen_calls": counter.total_calls,
        "splits": {k: len(v) for k, v in splits.items()},
    }
    _write_json(os.path.join(out, "gen_summary.json"), summary)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _run_loop(cfg: RunConfig, out: str) -> int:
    _check_run_ablation(cfg, out)
    data_dir = cfg.data_dir or out
    traces_by_id, queries, splits = _load_corpus(data_dir)
    report = trainer.run_closed_loop(
        traces_by_id, queries, splits, cfg.ppo(), cfg.seed, ablation=cfg.ablation
    )
    os.makedirs(out, exist_ok=True)
    params = report["_params"]
    bank = report["_bank"]
    if params is not None:
        policy.save_checkpoint(os.path.join(out, "checkpoint.npz"), params, cfg.seed)
        report["checkpoint"] = "checkpoint.npz"
    with open(os.path.join(out, "bank.json"), "w", encoding="utf-8") as fh:
        fh.write(bank.to_json())
        fh.write("\n")
    _write_json(os.path.join(out, "results.json"), report)
    last = report["epochs"][-1] if report["epochs"] else {}
    print(
        json.dumps(
            {
                "ablation": report["ablation"],
                "bank_version": report["bank_version_history"][-1],
                "mean_return": last.get("mean_return"),
                "success_rate": last.get("success_rate"),
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


def cmd_eval(cfg: RunConfig, out: str) -> int:
    _check_run_ablation(cfg, out)
    data_dir = cfg.data_dir or out
    traces_by_id, queries, splits = _load_corpus(data_dir)
    test_traces = [traces_by_id[i] for i in splits["test"]]
    test_queries = _split_queries(queries, splits["test"])

    ckpt = os.path.join(out, "checkpoint.npz")
    bank_path = os.path.join(out, "bank.json")
    if os.path.exists(bank_path):
        try:
            with open(bank_path, encoding="utf-8") as fh:
                bank = skills.bank_from_json(fh.read())
        except ValueError as exc:  # undecodable, not JSON, or not a skill bank
            raise CorpusFormatError(f"{bank_path}: {exc}") from None
    else:
        bank = skills.initial_bank()
    # a run without a controller has no checkpoint, and picks uniformly
    params = None
    if cfg.ablation != "wo_controller":
        if not os.path.exists(ckpt):
            raise CorpusFormatError(f"missing checkpoint: {ckpt}")
        params, _ = policy.load_checkpoint(ckpt)

    result = evalsuite.evaluate_agent(
        test_traces,
        test_queries,
        bank,
        params,
        master_seed=cfg.seed,
        k_retrieve=cfg.k_retrieve,
        top_k=cfg.top_k,
    )
    report = evalsuite.aggregate(result["rows"])
    label = ABLATION_LABELS[cfg.ablation]
    payload = {
        "method": "agent" if cfg.ablation == "full" else f"agent ({label})",
        "ablation": cfg.ablation,
        "seed": cfg.seed,
        "report": report,
        "rows": result["rows"],
        "total_calls": result["total_calls"],
    }
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, f"eval_{cfg.ablation}.json"), payload)
    print(json.dumps({"method": payload["method"], **report}, sort_keys=True))
    return EXIT_OK


def cmd_baseline(cfg: RunConfig, out: str, kind: str) -> int:
    if kind not in baselines.BASELINE_KINDS:
        raise CorpusFormatError(
            f"unknown baseline {kind!r}; expected one of {', '.join(baselines.BASELINE_KINDS)}"
        )
    data_dir = cfg.data_dir or out
    traces_by_id, queries, splits = _load_corpus(data_dir)
    test_queries = _split_queries(queries, splits["test"])
    train_traces = [traces_by_id[i] for i in splits["train"]]
    result = baselines.run_baseline(kind, test_queries, cfg.seed, train_traces)
    report = evalsuite.aggregate(result["rows"])
    payload = {
        "method": kind,
        "seed": cfg.seed,
        "report": report,
        "rows": result["rows"],
        "total_calls": result["total_calls"],
        "training_calls": result["training_calls"],
    }
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, f"baseline_{kind}.json"), payload)
    print(json.dumps({"method": kind, **report}, sort_keys=True))
    return EXIT_OK


def cmd_report(out: str) -> int:
    rows = []
    for path in sorted(
        glob.glob(os.path.join(out, "eval_*.json"))
        + glob.glob(os.path.join(out, "baseline_*.json"))
    ):
        payload = _read_json(path)
        method = payload.get("method") if isinstance(payload, dict) else None
        if not (isinstance(method, str) and isinstance(payload.get("report"), dict)):
            raise CorpusFormatError(
                f"{path} must hold an object with a string 'method' and an object 'report'"
            )
        row = {"method": method}
        row.update(payload["report"])
        rows.append(row)
    rows.sort(key=lambda r: r["method"])
    merged = {"table": rows, "missing_metrics": list(evalsuite.MISSING_METRICS)}
    # keep the training report that evolve wrote into the same file
    results = _read_results(out)
    _write_json(os.path.join(out, "results.json"), {**results, **merged})
    with open(os.path.join(out, "results.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in CSV_COLUMNS})
    print(json.dumps(merged, sort_keys=True))
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, out: str) -> int:
    """One-axis-at-a-time grid; each cell is a full run plus test eval."""
    if cfg.ablation != "full":
        raise CorpusFormatError(
            f"config key 'ablation' must be 'full' for sweep, got {cfg.ablation!r}"
        )
    data_dir = cfg.data_dir or out
    traces_by_id, queries, splits = _load_corpus(data_dir)
    test_traces = [traces_by_id[i] for i in splits["test"]]
    test_queries = _split_queries(queries, splits["test"])

    cells = []
    for axis, values in SWEEP_AXES.items():
        for value in values:
            run_cfg = dataclasses.replace(cfg)
            setattr(run_cfg, axis, value)
            ppo = run_cfg.ppo()
            report = trainer.run_closed_loop(
                traces_by_id, queries, splits, ppo, run_cfg.seed, ablation="full"
            )
            result = evalsuite.evaluate_agent(
                test_traces,
                test_queries,
                report["_bank"],
                report["_params"],
                master_seed=run_cfg.seed,
                k_retrieve=run_cfg.k_retrieve,
                top_k=run_cfg.top_k,
            )
            agg = evalsuite.aggregate(result["rows"])
            cells.append(
                {
                    "axis": axis,
                    "value": value,
                    "succ": agg["succ"],
                    "f1": agg["f1"],
                    "phys": agg["phys"],
                    "calls_per_query": agg["calls_per_query"],
                    "bank_version": report["bank_version_history"][-1],
                }
            )
            print(json.dumps(cells[-1], sort_keys=True))
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "sweep.json"), {"cells": cells})
    return EXIT_OK


# --- dispatch -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pcfmem", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="runs", help="output directory")

    p = sub.add_parser("gen-data", help="generate traces, queries and splits")
    common(p)
    p.add_argument("--n-traces", type=int, default=None)

    p = sub.add_parser(
        "evolve", help="full closed loop with skill evolution (--outer 0: inner loop only)"
    )
    common(p)
    p.add_argument("--outer", type=int, default=None)
    p.add_argument("--inner", type=int, default=None)
    p.add_argument("--ablate", default=None)

    p = sub.add_parser("eval", help="evaluate the agent on the test split")
    common(p)
    p.add_argument("--ablate", default=None)

    p = sub.add_parser("baseline", help="run one classical baseline")
    common(p)
    p.add_argument("--kind", required=True)

    p = sub.add_parser("report", help="merge eval/baseline results into a table")
    common(p)

    p = sub.add_parser("sweep", help="one-axis hyperparameter sweep")
    common(p)
    p.add_argument("--outer", type=int, default=None)
    p.add_argument("--inner", type=int, default=None)
    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or EXIT_OK)
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        if getattr(args, "n_traces", None) is not None:
            cfg.n_traces = args.n_traces
        out = args.out
        if args.command == "gen-data":
            return cmd_gen_data(cfg, out)
        if args.command == "evolve":
            return _run_loop(cfg, out)
        if args.command == "eval":
            return cmd_eval(cfg, out)
        if args.command == "baseline":
            return cmd_baseline(cfg, out, args.kind)
        if args.command == "report":
            return cmd_report(out)
        if args.command == "sweep":
            return cmd_sweep(cfg, out)
        raise CorpusFormatError(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (policy.NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
