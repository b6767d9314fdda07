"""Metrics, the rule-based query answerer, and test-split evaluation.

Metric families: text overlap (F1), design reasoning (concept coverage,
parameter accuracy, trend agreement), and inverse design (success rate,
quality, physics verification, calls per query). All rates are reported
x100 by aggregate(). Judge and human panels need people or hosted models,
so those columns are declared in MISSING_METRICS instead of being faked.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import datagen, designer, embed, memory, physics, rollout
from .datagen import Query, Trace
from .physics import CallCounter, Geometry, SimResult, TargetSpec

MISSING_METRICS = ("judge", "human")
ANSWER_K = 8
QUALITY_EPS = 1e-9

# canonical surface forms per concept key, as token tuples
CONCEPT_FORMS: dict[str, tuple[tuple[str, ...], ...]] = {
    "pitch": (("pitch",),),
    "hole_d": (("hole", "d"), ("hole", "diameter")),
    "rings": (("rings",), ("ring",)),
    "dispersion": (("dispersion",),),
    "loss": (("loss",),),
    "wavelength": (("wavelength",),),
    "n_eff": (("n", "eff"), ("effective", "index")),
}

RATE_COLUMNS = ("f1", "design", "param", "trend", "succ", "qual", "phys")


def token_f1(pred: str, truth: str) -> float:
    p = embed.tokenize(pred)
    t = embed.tokenize(truth)
    if not p and not t:
        return 1.0
    if not p or not t:
        return 0.0
    overlap = sum((Counter(p) & Counter(t)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(p)
    recall = overlap / len(t)
    return 2 * precision * recall / (precision + recall)


def _contains(tokens: list[str], form: tuple[str, ...]) -> bool:
    n = len(form)
    return any(tuple(tokens[i : i + n]) == form for i in range(len(tokens) - n + 1))


def concept_coverage(pred: str) -> float:
    tokens = embed.tokenize(pred)
    hit = sum(
        1
        for forms in CONCEPT_FORMS.values()
        if any(_contains(tokens, f) for f in forms)
    )
    return hit / len(CONCEPT_FORMS)


def param_accuracy(pred: Geometry, true_geom: dict) -> float:
    """Share of pitch, hole diameter and ring count within 10% of the reference."""
    keys = ("pitch_um", "hole_d_um", "n_rings")
    hits = 0
    for k in keys:
        b = float(true_geom[k])
        if abs(getattr(pred, k) - b) < 0.1 * abs(b):
            hits += 1
    return hits / len(keys)


def success_quality(res: SimResult, spec: TargetSpec) -> tuple[bool, float]:
    ok = physics.verify(res, spec)
    q = 1.0 - 0.5 * (
        abs(res.dispersion_ps_nm_km - spec.dispersion_ps_nm_km)
        / (abs(spec.dispersion_ps_nm_km) + QUALITY_EPS)
        + abs(res.loss_db_km - spec.loss_db_km) / (abs(spec.loss_db_km) + QUALITY_EPS)
    )
    return ok, float(min(1.0, max(0.0, q)))


def _clamp_geometry(pitch: float, hole_d: float, rings: float) -> Geometry:
    pitch = float(min(physics.PITCH_MAX_UM, max(physics.PITCH_MIN_UM, pitch)))
    # keep d/pitch strictly inside the overlap bound despite roundoff
    lo, hi = 0.05 * pitch, (physics.DRATIO_MAX - 1e-9) * pitch
    hole_d = float(min(hi, max(lo, hole_d)))
    n = int(round(min(physics.N_RINGS_MAX, max(physics.N_RINGS_MIN, rings))))
    return Geometry(pitch, hole_d, n)


@dataclass(frozen=True)
class Answer:
    """The verdict on one query: the rate columns that apply, the env calls
    charged to it, and for parameter_adjustment the verified design."""

    passed: bool
    text: str
    rates: dict
    calls: int = 0
    attempt: Optional[designer.DesignAttempt] = None


def answer_row(query: Query, answer: Answer) -> dict:
    """The output row of ``answer``: rate columns that do not apply are None,
    and F1 scores the answer text against the reference answer."""
    row = dict.fromkeys(RATE_COLUMNS)
    row.update(answer.rates, f1=token_f1(answer.text, query.answer_text))
    row.update(answer_text=answer.text, passed=answer.passed, calls=answer.calls)
    row.update(query_id=query.id, trace_id=query.trace_ids[0], qtype=query.qtype)
    return row


def score_design(query: Query, attempt: designer.DesignAttempt, calls: int) -> Answer:
    """Score a proposed geometry for a parameter_adjustment query.

    The agent and every baseline are scored here, so both are judged on the
    same success, quality and parameter-accuracy columns.
    """
    geom, res = attempt.geom, attempt.sim
    ok, qual = success_quality(res, attempt.target)
    text = datagen.design_answer(
        geom, res.dispersion_ps_nm_km, res.loss_db_km, attempt.target.lambda_um
    )
    hit = 1.0 if ok else 0.0
    param = param_accuracy(geom, query.ground_truth["reference_geometry"])
    rates = {"param": param, "succ": hit, "qual": qual, "phys": hit}
    return Answer(ok, text, rates, calls, attempt)


def _answer_trend(query: Query, retrieved: list[memory.MemoryEntry]) -> Answer:
    gt = query.ground_truth
    votes = 0
    for e in retrieved:
        if e.kind not in ("trend", "param_map"):
            continue
        if e.key.param != gt["param"] or e.key.metric != gt["metric"]:
            continue
        if e.direction == 0:
            continue
        votes += e.direction
    sign = int(np.sign(votes))
    if sign == 0:
        text = f"unknown how {gt['metric']} responds to {gt['param']}"
    else:
        word = "increase" if sign > 0 else "decrease"
        text = f"{gt['metric']} will {word} when {gt['param']} increases"
    passed = sign == int(gt["direction"])
    hit = 1.0 if passed else 0.0
    return Answer(passed, text, {"trend": hit, "phys": hit})


def _slope_entries(entries: list[memory.MemoryEntry], metric: str):
    out = [
        e
        for e in entries
        if e.kind in ("trend", "param_map") and e.key.metric == metric and e.slope != 0.0
    ]
    out.sort(key=lambda e: (-abs(e.slope) * e.confidence, e.id))
    return out


def _answer_param(
    query: Query, retrieved: list[memory.MemoryEntry], counter: CallCounter
) -> Answer:
    gt = query.ground_truth
    target = physics.target_from_dict(gt["target"])
    best = None
    for e in retrieved:
        if not e.geom or not e.observed or "miss" not in e.observed:
            continue
        if best is None or e.observed["miss"] < best.observed["miss"]:
            best = e
    if best is not None:
        g = best.geom
        pitch, hole_d, rings = g["pitch_um"], g["hole_d_um"], float(g["n_rings"])
        if best.observed["miss"] >= 1.0:
            vals = {"pitch": pitch, "hole_d": hole_d, "n_rings": rings}
            used_param = None
            d_slopes = _slope_entries(retrieved, "dispersion")
            if d_slopes:
                e = d_slopes[0]
                step = (target.dispersion_ps_nm_km - best.observed["dispersion"]) / e.slope
                vals[e.key.param] += step
                used_param = e.key.param
            a_slopes = [
                e for e in _slope_entries(retrieved, "loss") if e.key.param != used_param
            ]
            if a_slopes:
                e = a_slopes[0]
                step = (target.loss_db_km - best.observed["loss"]) / e.slope
                vals[e.key.param] += step
            pitch, hole_d, rings = vals["pitch"], vals["hole_d"], vals["n_rings"]
        geom = _clamp_geometry(pitch, hole_d, rings)
    else:
        geom = _clamp_geometry(2.0, 1.0, 6)

    res = physics.simulate(geom, target.lambda_um, counter)
    attempt = designer.DesignAttempt(geom, res, target, retrieved)
    return score_design(query, attempt, counter.per_query_calls)


def _answer_reasoning(query: Query, retrieved: list[memory.MemoryEntry]) -> Answer:
    parts = [e.statement for e in retrieved]
    tokens = embed.tokenize(query.text)
    context = "the design targets dispersion and loss at wavelength"
    if "um" in tokens:
        j = tokens.index("um")
        lead = [t for t in tokens[max(0, j - 2) : j] if t.isdigit()]
        context += " " + " ".join(lead + ["um"])
    text = "; ".join(parts + [context])
    design = concept_coverage(text)
    return Answer(design >= 0.5, text, {"design": design})


def _answer_failure(bank: memory.MemoryBank, query: Query) -> Answer:
    gt = query.ground_truth
    pred = designer.classify_planted(gt["planted_entry"], bank)
    text = f"the note is a {pred.replace('_', ' ')}"
    passed = pred == gt["failure_type"]
    return Answer(passed, text, {"phys": 1.0 if passed else 0.0})


def answer_query(
    bank: memory.MemoryBank, query: Query, counter: CallCounter, texts: embed.TextVectors
) -> Answer:
    """Answer one query from a trace's memory bank.

    failure_analysis reads the bank directly; the other types answer from
    the ANSWER_K entries retrieved for the query text, whose vector comes
    from ``texts``. Only parameter_adjustment charges the env (exactly one
    verification).
    """
    if query.qtype == "failure_analysis":
        return _answer_failure(bank, query)
    retrieved = memory.retrieve(bank, texts[query.text], ANSWER_K)
    if query.qtype == "trend_prediction":
        return _answer_trend(query, retrieved)
    if query.qtype == "parameter_adjustment":
        return _answer_param(query, retrieved, counter)
    if query.qtype == "design_reasoning":
        return _answer_reasoning(query, retrieved)
    raise ValueError(f"unknown query type: {query.qtype}")


def episode_queries(
    mem_bank: memory.MemoryBank,
    queries: list[Query],
    counter: CallCounter,
    texts: embed.TextVectors,
) -> tuple[float, list[tuple[Query, Answer]]]:
    """Answer a trace's queries by id; return (fraction passed, (query, answer) pairs)."""
    answered = []
    for q in sorted(queries, key=lambda q: q.id):
        counter.begin_query()
        answered.append((q, answer_query(mem_bank, q, counter, texts)))
    r_final = sum(a.passed for _, a in answered) / len(queries) if queries else 0.0
    return r_final, answered


def play_traces(
    traces: list[Trace],
    skill_bank,
    params: Optional[dict],
    cache: rollout.FeatureCache,
    master_seed: int,
    seed_keys: list[tuple[int, ...]],
    queries_by_trace: dict[str, list[Query]],
    counter: CallCounter,
    k_retrieve: int,
    top_k: int,
    bias: Optional[np.ndarray] = None,
    greedy: bool = False,
) -> list[tuple[rollout.EpisodeRollout, float, list[tuple[Query, Answer]]]]:
    """Roll the traces out together, then answer each one's queries from
    its episode's memory, slot by slot; without params the picks are uniform.

    Slot i draws from the stream ``SeedSequence(master_seed, seed_keys[i])``.
    Returns one (episode, fraction of queries passed, (query, answer) pairs)
    per trace.
    """
    rngs = [
        np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))
        for key in seed_keys
    ]
    eps = rollout.run_episode(
        traces, skill_bank, params, cache, k_retrieve, top_k,
        rngs=rngs, bias=bias, greedy=greedy,
    )
    out = []
    for trace, ep in zip(traces, eps):
        r_final, answered = episode_queries(
            ep.mem_bank, queries_by_trace.get(trace.id, []), counter, cache.texts
        )
        out.append((ep, r_final, answered))
    return out


def _eval_seed_key(trace_id: str) -> tuple[int, int]:
    """Per-trace eval stream: ``t<digits>`` ids by number, others by id hash."""
    if re.fullmatch(r"t[0-9]+", trace_id):
        return (4, int(trace_id[1:]))
    return (4, embed.fnv1a64(trace_id))


def evaluate_agent(
    traces: list[Trace],
    queries: list[Query],
    skill_bank,
    params: Optional[dict],
    master_seed: int = 0,
    k_retrieve: int = 5,
    top_k: int = 2,
) -> dict:
    """Greedy rollout of all traces together (uniform picks without params),
    then answer each trace's queries.

    Returns {"rows": per-query rows sorted by query id, "total_calls": int}.
    Design rows add the proposal, its simulation, the target and the
    retrieved entries.
    """
    queries_by_trace: dict[str, list[Query]] = {}
    for q in queries:
        queries_by_trace.setdefault(q.trace_ids[0], []).append(q)
    counter = CallCounter()
    played = play_traces(
        traces, skill_bank, params, rollout.FeatureCache(), master_seed,
        [_eval_seed_key(t.id) for t in traces], queries_by_trace, counter,
        k_retrieve, top_k, greedy=True,
    )
    rows = []
    for _, _, answered in played:
        for q, a in answered:
            row = answer_row(q, a)
            at = a.attempt
            if at is not None:
                row.update(proposal=at.geom.as_dict(), sim=at.sim.as_dict())
                row["target"] = at.target.as_dict()
                row["retrieved"] = [e.as_dict() for e in at.retrieved]
            rows.append(row)
    rows.sort(key=lambda r: r["query_id"])
    return {"rows": rows, "total_calls": counter.total_calls}


def aggregate(rows: list[dict]) -> dict:
    """Mean x100 for rate columns (None when no query contributes), raw calls/q."""
    report: dict = {}
    for col in RATE_COLUMNS:
        vals = [r[col] for r in rows if r.get(col) is not None]
        report[col] = round(100.0 * float(np.mean(vals)), 4) if vals else None
    calls = [r.get("calls", 0) for r in rows]
    report["calls_per_query"] = round(float(np.mean(calls)), 4) if calls else 0.0
    report["n_queries"] = len(rows)
    report["missing_metrics"] = list(MISSING_METRICS)
    return report
