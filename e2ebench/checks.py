"""Correctness checks on the files the pcfmem pipeline writes.

Every check compares an output with an independent computation or with a
property the method must have, never with a stored copy of an earlier
output:

* the corpus index (which queries belong to the test split, and of which
  type) is read here from ``queries.jsonl`` and ``splits.json`` with plain
  JSON, not through ``pcfmem.datagen``;
* each simulated property is recomputed at 40 significant digits from the
  documented closed-form model (fused-silica Sellmeier index, air-fill
  correction, ring-count loss law) with the dispersion taken from the
  analytic second derivative, and compared within the 5-point stencil's
  truncation and rounding error;
* pass flags, quality scores and aggregate rates are recomputed from the
  rows; call budgets, designer gate decisions and bank versions are held to
  the rules the method states.

A failed check raises ``CheckError`` naming the file and the reason.
"""

from __future__ import annotations

import json
import math
import os

import mpmath

mpmath.mp.dps = 40


class CheckError(AssertionError):
    """An output of the pipeline breaks a property it must have."""


def expect(cond: bool, where: str, what: str) -> None:
    if not cond:
        raise CheckError(f"{where}: {what}")


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_jsonl(path: str) -> list[dict]:
    """Records of a pcfmem JSONL file; the first line is a format header."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    return [json.loads(ln) for ln in lines[1:]]


def file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# --- corpus -----------------------------------------------------------------

PARAM_QTYPE = "parameter_adjustment"
QTYPES = ("trend_prediction", PARAM_QTYPE, "design_reasoning", "failure_analysis")


class CorpusIndex:
    """Which queries the test split holds, read straight from the corpus files."""

    def __init__(self, data_dir: str) -> None:
        self.where = data_dir
        self.trace_ids = [t["id"] for t in read_jsonl(os.path.join(data_dir, "traces.jsonl"))]
        self.queries = read_jsonl(os.path.join(data_dir, "queries.jsonl"))
        self.splits = read_json(os.path.join(data_dir, "splits.json"))
        test = set(self.splits["test"])
        self.test_qtypes = {
            q["id"]: q["type"] for q in self.queries if q["trace_ids"][0] in test
        }
        self.test_param_ids = sorted(
            qid for qid, kind in self.test_qtypes.items() if kind == PARAM_QTYPE
        )

    def check(self, n_traces: int) -> None:
        where, ids = self.where, self.trace_ids
        expect(len(ids) == n_traces, where, f"{len(ids)} traces, asked for {n_traces}")
        expect(len(set(ids)) == n_traces, where, "duplicate trace ids")
        parts = [self.splits[k] for k in ("train", "val", "test")]
        expect(sorted(sum(parts, [])) == sorted(ids), where, "splits do not partition the traces")
        per_trace: dict = {}
        for q in self.queries:
            expect(q["type"] in QTYPES, where, f"query {q['id']} has type {q['type']!r}")
            per_trace.setdefault(q["trace_ids"][0], []).append(q["type"])
        for tid in ids:
            kinds = per_trace.get(tid, [])
            expect(
                len(kinds) == 3 and len(set(kinds)) == 3,
                where,
                f"trace {tid} has query types {kinds}, expected three distinct",
            )


def check_gen_summary(summary: dict, index: CorpusIndex, n_traces: int, where: str) -> None:
    expect(summary["n_traces"] == n_traces, where, "n_traces differs from the request")
    expect(
        summary["n_queries"] == len(index.queries) == 3 * n_traces,
        where,
        "not 3 queries per trace",
    )


# --- the documented physics model at high precision --------------------------

_MPF = mpmath.mpf
_SELLMEIER_B = (_MPF("0.6961663"), _MPF("0.4079426"), _MPF("0.8974794"))
_SELLMEIER_C = tuple(_MPF(c) ** 2 for c in ("0.0684043", "0.1162414", "9.896161"))
_FILL_A = _MPF("0.08")
_FILL_P = _MPF("1.5")
_LOSS_ALPHA_MAX = _MPF(1000)
_LOSS_KAPPA = _MPF(3)
_LOSS_S = 4
_DISP_PREF = _MPF(10) ** 4 / _MPF("2.99792458")
FD_STEP_UM = 1e-3
_UNIT_ROUNDOFF = 2.0**-53
# |-1| + 16 + 30 + 16 + |-1|: sum of the stencil's coefficient magnitudes
_STENCIL_WEIGHT = 64.0
# each stencil sample carries a few rounding errors (sums, divisions, sqrt)
_ULPS_PER_SAMPLE = 8.0


def _sellmeier(lam):
    return mpmath.sqrt(1 + sum(b * lam**2 / (lam**2 - c) for b, c in zip(_SELLMEIER_B, _SELLMEIER_C)))


def model(pitch: float, hole_d: float, n_rings: int, lam: float) -> dict:
    """n_eff, dispersion, loss and the dispersion tolerance of the stencil."""
    pitch, hole_d, lam_m = _MPF(pitch), _MPF(hole_d), _MPF(lam)
    r = hole_d / pitch
    fill = _FILL_A * r**_FILL_P / pitch**2
    n_s = _sellmeier(lam_m)
    n_eff = n_s - fill * lam_m**2
    # S(l) = sum B l^2/(l^2 - C): S' = sum -2 B C l/(l^2-C)^2,
    # S'' = sum 2 B C (3 l^2 + C)/(l^2-C)^3; n = sqrt(1+S)
    s1 = sum(-2 * b * c * lam_m / (lam_m**2 - c) ** 2 for b, c in zip(_SELLMEIER_B, _SELLMEIER_C))
    s2 = sum(
        2 * b * c * (3 * lam_m**2 + c) / (lam_m**2 - c) ** 3
        for b, c in zip(_SELLMEIER_B, _SELLMEIER_C)
    )
    d2n = s2 / (2 * n_s) - s1**2 / (4 * n_s**3) - 2 * fill
    dispersion = -_DISP_PREF * lam_m * d2n
    loss = _LOSS_ALPHA_MAX * mpmath.exp(-_LOSS_KAPPA * n_rings * r) * (lam_m / pitch) ** _LOSS_S
    # 5-point stencil: truncation h^4/90 |f^(6)| (the fill term is quadratic
    # in lambda, so f^(6) is the Sellmeier index's), plus rounding of the
    # five samples amplified by 1/(12 h^2); both doubled for margin.
    h = FD_STEP_UM
    f6 = abs(mpmath.diff(_sellmeier, lam_m, 6))
    truncation = h**4 / 90.0 * float(f6)
    rounding = _STENCIL_WEIGHT * _ULPS_PER_SAMPLE * _UNIT_ROUNDOFF * float(n_eff) / (12.0 * h * h)
    tol = 2.0 * float(_DISP_PREF * lam_m) * (truncation + rounding)
    return {
        "n_eff": float(n_eff),
        "dispersion_ps_nm_km": float(dispersion),
        "loss_db_km": float(loss),
        "tol_dispersion": tol,
    }


def check_sim(sim: dict, proposal: dict, lam: float, where: str) -> None:
    want = model(proposal["pitch_um"], proposal["hole_d_um"], proposal["n_rings"], lam)
    expect(sim["lambda_um"] == lam, where, "simulated at another wavelength than the target")
    expect(
        abs(sim["n_eff"] - want["n_eff"]) <= 1e-12,
        where,
        f"n_eff {sim['n_eff']!r} != model {want['n_eff']!r}",
    )
    expect(
        abs(sim["loss_db_km"] - want["loss_db_km"]) <= 1e-12 * abs(want["loss_db_km"]),
        where,
        f"loss {sim['loss_db_km']!r} != model {want['loss_db_km']!r}",
    )
    expect(
        abs(sim["dispersion_ps_nm_km"] - want["dispersion_ps_nm_km"]) <= want["tol_dispersion"],
        where,
        f"dispersion {sim['dispersion_ps_nm_km']!r} != model "
        f"{want['dispersion_ps_nm_km']!r} within {want['tol_dispersion']:.3g}",
    )


# --- per-query rows and their aggregate ---------------------------------------

RATE_COLUMNS = ("f1", "design", "param", "trend", "succ", "qual", "phys")
QUALITY_EPS = 1e-9


def _strict_pass(sim: dict, target: dict) -> bool:
    return (
        abs(sim["dispersion_ps_nm_km"] - target["dispersion_ps_nm_km"]) < target["tol_dispersion"]
        and abs(sim["loss_db_km"] - target["loss_db_km"]) < target["tol_loss"]
    )


def _quality(sim: dict, target: dict) -> float:
    q = 1.0 - 0.5 * (
        abs(sim["dispersion_ps_nm_km"] - target["dispersion_ps_nm_km"])
        / (abs(target["dispersion_ps_nm_km"]) + QUALITY_EPS)
        + abs(sim["loss_db_km"] - target["loss_db_km"]) / (abs(target["loss_db_km"]) + QUALITY_EPS)
    )
    return min(1.0, max(0.0, q))


def _flag(row: dict) -> float:
    return 1.0 if row["passed"] else 0.0


def check_agent_row(row: dict, where: str) -> None:
    qtype = row["qtype"]
    where = f"{where} {row['query_id']}"
    expect(0.0 <= row["f1"] <= 1.0, where, "f1 outside [0, 1]")
    if qtype == PARAM_QTYPE:
        expect(row["calls"] == 1, where, f"costs {row['calls']} calls, expected exactly 1")
        target = row["target"]
        check_sim(row["sim"], row["proposal"], target["lambda_um"], where)
        expect(row["passed"] == _strict_pass(row["sim"], target), where, "passed breaks the strict-tolerance rule")
        expect(row["succ"] == row["phys"] == _flag(row), where, "succ/phys disagree with passed")
        expect(
            abs(row["qual"] - _quality(row["sim"], target)) <= 1e-12,
            where,
            "quality differs from its definition",
        )
        return
    expect(row["calls"] == 0, where, f"costs {row['calls']} calls, expected 0")
    if qtype == "trend_prediction":
        expect(row["trend"] == row["phys"] == _flag(row), where, "trend/phys disagree with passed")
    elif qtype == "design_reasoning":
        expect(row["passed"] == (row["design"] >= 0.5), where, "passed disagrees with concept coverage")
    else:
        expect(row["phys"] == _flag(row), where, "phys disagrees with passed")


def check_report(report: dict, rows: list[dict], where: str) -> None:
    """Rates are 100 x the mean of the rows' column, rounded to 4 places."""
    for col in RATE_COLUMNS:
        vals = [r[col] for r in rows if r.get(col) is not None]
        if not vals:
            expect(report[col] is None, where, f"{col} reported without contributing rows")
            continue
        mean = 100.0 * math.fsum(vals) / len(vals)
        expect(abs(report[col] - mean) <= 5e-5 + 1e-12 * abs(mean), where, f"{col} {report[col]} != mean {mean}")
    calls = math.fsum(r["calls"] for r in rows) / len(rows)
    expect(abs(report["calls_per_query"] - calls) <= 5e-5, where, "calls_per_query != mean calls")
    expect(report["n_queries"] == len(rows), where, "n_queries != number of rows")


def check_eval(payload: dict, index: CorpusIndex, where: str) -> None:
    rows = payload["rows"]
    ids = [r["query_id"] for r in rows]
    expect(len(ids) == len(set(ids)), where, "a query is answered twice")
    expect(set(ids) == set(index.test_qtypes), where, "rows are not exactly the test split's queries")
    for r in rows:
        expect(r["qtype"] == index.test_qtypes[r["query_id"]], where, f"{r['query_id']} has the wrong type")
        check_agent_row(r, where)
    n_param = len(index.test_param_ids)
    expect(payload["total_calls"] == n_param, where, f"total_calls {payload['total_calls']} != {n_param}")
    check_report(payload["report"], rows, where)


# --- training report ---------------------------------------------------------

VAL_SUBSET_SIZE = 32


def check_evolve(results: dict, bank: dict, outer: int, inner: int, ablation: str, where: str) -> None:
    """Training report of an evolve whose designer runs after every outer epoch."""
    epochs = results["epochs"]
    expect(len(epochs) == outer, where, f"{len(epochs)} outer epochs, asked for {outer}")
    history = results["bank_version_history"]
    version = history[0]
    decisions = 0
    for e in epochs:
        expect(len(e["inner"]) == inner, where, f"outer {e['outer']}: {len(e['inner'])} inner epochs")
        expect(e["bank_version"] == version, where, f"outer {e['outer']} trained on a stale bank")
        for it in e["inner"]:
            expect(0.0 <= it["success_rate"] <= 1.0, where, "success rate outside [0, 1]")
            expect(0.0 <= it["calls_per_query"] <= 1.0, where, "agent spends more than 1 call per query")
            if ablation == "wo_controller":
                expect("ppo" not in it, where, "PPO ran without a controller")
            else:
                minibatches = it["ppo"]["updates"] + it["ppo"]["skipped"]
                expect(
                    minibatches > 0 and minibatches % results["config"]["epochs_per_update"] == 0,
                    where,
                    "PPO epochs saw different minibatch counts",
                )
        d = e["designer"]
        decisions += 1
        expect(d["accepted"] == (d["j_after"] >= d["j_before"]), where, "gate decision breaks j_after >= j_before")
        new = history[decisions]
        if d["accepted"]:
            expect(new == version + 1, where, "accepted proposal did not bump the bank version")
        else:
            expect(new == version, where, "bank version changed after a rejection")
        version = new
    expect(len(history) == decisions + 1, where, "bank history length != designer decisions + 1")
    expect(bank["bank_version"] == version, where, "bank.json is not the final bank")
    expect(results["final_bank"] == bank, where, "final_bank differs from bank.json")
    # both j_val calls of a decision answer the same validation queries, each
    # parameter query with exactly one call
    per_gate = results["val_calls"] / (2 * decisions)
    expect(
        per_gate == int(per_gate) and per_gate <= VAL_SUBSET_SIZE,
        where,
        f"val_calls {results['val_calls']} do not split evenly over {decisions} gates",
    )


# --- baselines ---------------------------------------------------------------

BASELINE_CALLS = {"random_search": (100, 100), "nelder_mead": (1, 135), "surrogate": (1, 1)}
SURROGATE_TRAIN_CALLS = 2000


def check_baseline(kind: str, payload: dict, index: CorpusIndex, where: str) -> None:
    rows = payload["rows"]
    expect(
        [r["query_id"] for r in rows] == index.test_param_ids,
        where,
        "rows are not exactly the test split's parameter-adjustment queries",
    )
    lo, hi = BASELINE_CALLS[kind]
    for r in rows:
        expect(lo <= r["calls"] <= hi, where, f"{r['query_id']} costs {r['calls']} calls, budget [{lo}, {hi}]")
        expect(r["succ"] == r["phys"] == _flag(r), where, f"{r['query_id']}: succ/phys disagree with passed")
        expect(0.0 <= r["qual"] <= 1.0, where, f"{r['query_id']}: quality outside [0, 1]")
    expect(payload["total_calls"] == sum(r["calls"] for r in rows), where, "total_calls != sum of row calls")
    train = SURROGATE_TRAIN_CALLS if kind == "surrogate" else 0
    expect(payload["training_calls"] == train, where, f"training_calls {payload['training_calls']} != {train}")
    check_report(payload["report"], rows, where)
