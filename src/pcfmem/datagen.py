"""Synthetic design-trace corpus: scripted designer walks, queries, splits.

A trace is born feasible: a goal geometry is sampled from the family prior,
its simulated properties (plus sub-tolerance jitter) become the target, and
the scripted agent starts a few quantized coordinate steps away and walks
greedily back, so success depends only on walk length, the step cap, and
random-move luck. Queries are generated with env-recomputable ground truth.
All generation-phase env calls go to a dedicated counter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import memory, physics
from .physics import CallCounter, Geometry, SimResult, TargetSpec

TRACE_FORMAT = "pcfmem-traces"
QUERY_FORMAT = "pcfmem-queries"
FORMAT_VERSION = 1

# each query type and the ground-truth fields its answerer reads
GROUND_TRUTH_FIELDS = {
    "trend_prediction": ("param", "metric", "direction"),
    "parameter_adjustment": ("target", "reference_geometry"),
    "design_reasoning": (),
    "failure_analysis": ("planted_entry", "failure_type"),
}
QUERY_TYPES = tuple(GROUND_TRUTH_FIELDS)

FAILURE_TYPES = (
    "wrong_trend",
    "missing_constraint",
    "outdated_knowledge",
    "spurious_memory",
)
# observed error-type mix used as plant weights
FAILURE_WEIGHTS = (0.34, 0.31, 0.18, 0.17)

# (param, metric) pairs with a nonzero derivative in the surrogate
TREND_PAIRS = (
    ("pitch", "dispersion"),
    ("hole_d", "dispersion"),
    ("pitch", "loss"),
    ("hole_d", "loss"),
    ("n_rings", "loss"),
    ("pitch", "n_eff"),
    ("hole_d", "n_eff"),
)

MOVE_STEPS = {"pitch": 0.05, "hole_d": 0.05, "n_rings": 1.0}
MAX_STEPS = 12
RANDOM_MOVE_PROB = 0.2

N_FAMILIES = 8


class CorpusFormatError(ValueError):
    """Malformed or version-mismatched corpus file."""


@dataclass
class Span:
    index: int
    text: str
    param: str
    old_value: float
    new_value: float
    geom_before: Geometry
    geom_after: Geometry
    sim_before: SimResult
    sim_after: SimResult

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "text": self.text,
            "edit": {
                "param": self.param,
                "old_value": self.old_value,
                "new_value": self.new_value,
            },
            "geom_before": self.geom_before.as_dict(),
            "geom_after": self.geom_after.as_dict(),
            "sim_before": self.sim_before.as_dict(),
            "sim_after": self.sim_after.as_dict(),
        }


def _check_choice(what: str, value, choices: tuple) -> None:
    if value not in choices:
        raise ValueError(f"{what} {value!r} is not one of {', '.join(choices)}")


def _check_direction(what: str, value) -> None:
    # a bool is an int to isinstance, and 1.0 == 1
    if type(value) is not int or value not in (-1, 0, 1):
        raise ValueError(f"{what} {value!r} is not -1, 0 or 1")


def span_from_dict(d: dict) -> Span:
    """The Span ``d`` describes; an invalid geometry or a sim value that is
    not finite or in band raises ValueError."""
    param = d["edit"]["param"]
    _check_choice("edit param", param, physics.PARAMS)
    span = Span(
        index=int(d["index"]),
        text=d["text"],
        param=param,
        old_value=float(d["edit"]["old_value"]),
        new_value=float(d["edit"]["new_value"]),
        geom_before=physics.geometry_from_dict(d["geom_before"]),
        geom_after=physics.geometry_from_dict(d["geom_after"]),
        sim_before=physics.sim_from_dict(d["sim_before"]),
        sim_after=physics.sim_from_dict(d["sim_after"]),
    )
    physics.validate_geometry(span.geom_before)
    physics.validate_geometry(span.geom_after)
    return span


@dataclass
class Trace:
    id: str
    family: int
    target: TargetSpec
    goal_geometry: Geometry
    spans: list[Span]
    success: bool

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "family": self.family,
            "target": self.target.as_dict(),
            "goal_geometry": self.goal_geometry.as_dict(),
            "spans": [s.as_dict() for s in self.spans],
            "success": self.success,
        }


def trace_from_dict(d: dict) -> Trace:
    spans = [span_from_dict(s) for s in d["spans"]]
    if not spans:
        # an episode is its spans; one without any has nothing to roll out
        raise ValueError(f"trace {d['id']!r} has no spans")
    return Trace(
        id=d["id"],
        family=int(d["family"]),
        target=physics.target_from_dict(d["target"]),
        goal_geometry=physics.geometry_from_dict(d["goal_geometry"]),
        spans=spans,
        success=bool(d["success"]),
    )


@dataclass
class Query:
    id: str
    trace_ids: list[str]
    qtype: str
    text: str
    ground_truth: dict
    answer_text: str
    difficulty: str

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "trace_ids": list(self.trace_ids),
            "type": self.qtype,
            "text": self.text,
            "ground_truth": self.ground_truth,
            "answer_text": self.answer_text,
            "difficulty": self.difficulty,
        }


def query_from_dict(d: dict) -> Query:
    qtype = d.get("type")
    if qtype not in QUERY_TYPES:
        raise CorpusFormatError(f"query {d.get('id')}: bad type {qtype!r}")
    trace_ids = d["trace_ids"]
    if not (trace_ids and isinstance(trace_ids, list) and all(type(i) is str for i in trace_ids)):
        raise ValueError(f"trace_ids {trace_ids!r} is not a non-empty list of trace ids")
    query = Query(
        id=d["id"],
        trace_ids=list(trace_ids),
        qtype=qtype,
        text=d["text"],
        ground_truth=dict(d["ground_truth"]),
        answer_text=d["answer_text"],
        difficulty=d["difficulty"],
    )
    gt = query.ground_truth
    missing = [k for k in GROUND_TRUTH_FIELDS[qtype] if k not in gt]
    if missing:
        raise CorpusFormatError(f"query {query.id}: ground_truth lacks {', '.join(missing)}")
    if qtype == "trend_prediction":
        _check_direction("trend direction", gt["direction"])
        _check_choice("trend param", gt["param"], physics.PARAMS)
        _check_choice("trend metric", gt["metric"], physics.METRICS)
    elif qtype == "parameter_adjustment":
        # the fields the answerer and scorer read; a missing one raises KeyError
        physics.target_from_dict(gt["target"])
        physics.geometry_from_dict(gt["reference_geometry"])
    elif qtype == "failure_analysis":
        _check_choice("failure type", gt["failure_type"], FAILURE_TYPES)
        entry = gt["planted_entry"]
        if not (isinstance(entry, dict) and isinstance(entry.get("key"), dict)):
            raise ValueError("planted_entry must be an object with an object 'key'")
        # the fields designer.classify_planted reads
        _check_choice("planted kind", entry.get("kind"), memory.KINDS)
        _check_direction("planted direction", entry.get("direction"))
        contradictions = entry.get("contradictions")
        if type(contradictions) is not int or contradictions < 0:
            raise ValueError(f"planted contradictions {contradictions!r} is not a count")
        if not isinstance(entry.get("geom"), dict):
            raise ValueError(f"planted geom {entry.get('geom')!r} is not an object")
    return query


# Family priors: disjoint boxes in (pitch, d/pitch, rings); wavelength
# alternates between the two telecom bands every second family.
_DRATIO_BOXES = ((0.32, 0.42), (0.50, 0.62), (0.72, 0.84))
_RING_BOXES = ((4, 7), (6, 9))


def family_prior(family: int) -> dict:
    if not (0 <= family < N_FAMILIES):
        raise ValueError(f"family {family} outside 0..{N_FAMILIES - 1}")
    pitch_lo = 1.05 + 0.355 * family
    return {
        "pitch": (pitch_lo, pitch_lo + 0.28),
        "dratio": _DRATIO_BOXES[family % 3],
        "n_rings": _RING_BOXES[family % 2],
        "lambda_um": 1.55 if (family // 2) % 2 == 0 else 1.31,
    }


def _render_span(
    index: int,
    param: str,
    old: float,
    new: float,
    before: SimResult,
    after: SimResult,
    regime: str,
) -> str:
    verb = "increased" if new > old else "decreased"
    unit = "" if param == "n_rings" else " um"
    return (
        f"step {index}: {verb} {param} from {old:.4g} to {new:.4g}{unit}; "
        f"dispersion moved from {before.dispersion_ps_nm_km:.5g} to "
        f"{after.dispersion_ps_nm_km:.5g} ps per nm km, loss from "
        f"{before.loss_db_km:.4g} to {after.loss_db_km:.4g} db per km, "
        f"n_eff from {before.n_eff:.7g} to {after.n_eff:.7g} "
        f"at {after.lambda_um:.3g} um in the {regime} fill regime"
    )


def _candidate_moves(geom: Geometry) -> list[tuple[str, Geometry]]:
    moves = []
    for param in physics.PARAMS:
        step = MOVE_STEPS[param]
        for sign in (1.0, -1.0):
            cand = geom.with_param(param, geom.param(param) + sign * step)
            if physics.geometry_valid(cand):
                moves.append((param, cand))
    return moves


def gen_trace(rng: np.random.Generator, family: int, trace_id: str, counter: CallCounter) -> Trace:
    prior = family_prior(family)
    lam = prior["lambda_um"]

    while True:
        pitch = float(rng.uniform(*prior["pitch"]))
        dratio = float(rng.uniform(*prior["dratio"]))
        n_rings = int(rng.integers(prior["n_rings"][0], prior["n_rings"][1] + 1))
        goal = Geometry(pitch, dratio * pitch, n_rings)
        if not physics.geometry_valid(goal):
            continue

        goal_sim = physics.simulate(goal, lam, counter)
        target = TargetSpec(
            dispersion_ps_nm_km=goal_sim.dispersion_ps_nm_km
            + float(rng.uniform(-0.5, 0.5)) * physics.TOL_DISPERSION,
            loss_db_km=max(
                0.0,
                goal_sim.loss_db_km
                + float(rng.uniform(-0.5, 0.5)) * physics.TOL_LOSS,
            ),
            lambda_um=lam,
        )

        start = _sample_start(rng, goal)
        if start is None:
            continue

        spans = _walk(rng, start, target, lam, counter)
        if spans is None or len(spans) < 2:
            continue

        success = physics.verify(spans[-1].sim_after, target)
        return Trace(
            id=trace_id,
            family=family,
            target=target,
            goal_geometry=goal,
            spans=spans,
            success=success,
        )


def _sample_start(rng: np.random.Generator, goal: Geometry) -> Optional[Geometry]:
    for _ in range(16):
        kp = int(rng.integers(-3, 4))
        kd = int(rng.integers(-3, 4))
        kn = int(rng.integers(-2, 3))
        total = abs(kp) + abs(kd) + abs(kn)
        if not (2 <= total <= 6):
            continue
        start = Geometry(
            goal.pitch_um + kp * MOVE_STEPS["pitch"],
            goal.hole_d_um + kd * MOVE_STEPS["hole_d"],
            goal.n_rings + kn,
        )
        if physics.geometry_valid(start):
            return start
    return None


def _walk(
    rng: np.random.Generator,
    start: Geometry,
    target: TargetSpec,
    lam: float,
    counter: CallCounter,
) -> Optional[list[Span]]:
    geom = start
    sim = physics.simulate(geom, lam, counter)
    spans: list[Span] = []
    for step_idx in range(MAX_STEPS):
        if physics.miss(sim, target) < 1.0:
            break
        moves = _candidate_moves(geom)
        if not moves:
            return None
        if rng.random() < RANDOM_MOVE_PROB:
            param, cand = moves[int(rng.integers(len(moves)))]
            cand_sim = physics.simulate(cand, lam, counter)
        else:
            best = None
            for param_i, cand_i in moves:
                sim_i = physics.simulate(cand_i, lam, counter)
                m = physics.miss(sim_i, target)
                if best is None or m < best[0]:
                    best = (m, param_i, cand_i, sim_i)
            _, param, cand, cand_sim = best
        spans.append(
            Span(
                index=len(spans),
                text=_render_span(
                    len(spans),
                    param,
                    geom.param(param),
                    cand.param(param),
                    sim,
                    cand_sim,
                    memory.dratio_regime(cand.dratio),
                ),
                param=param,
                old_value=geom.param(param),
                new_value=cand.param(param),
                geom_before=geom,
                geom_after=cand,
                sim_before=sim,
                sim_after=cand_sim,
            )
        )
        geom, sim = cand, cand_sim
    return spans


def gen_corpus(
    n_traces: int, master_seed: int, counter: CallCounter
) -> list[Trace]:
    traces = []
    for i in range(n_traces):
        rng = np.random.default_rng(
            np.random.SeedSequence(master_seed, spawn_key=(1, i))
        )
        family = i % N_FAMILIES
        traces.append(gen_trace(rng, family, f"t{i:05d}", counter))
    return traces


# --- queries ---------------------------------------------------------------

CONCEPT_KEYS = ("pitch", "hole_d", "rings", "dispersion", "loss", "wavelength", "n_eff")


def _difficulty_tag(n_spans: int) -> str:
    if n_spans <= 3:
        return "easy"
    if n_spans <= 6:
        return "medium"
    if n_spans <= 9:
        return "hard"
    return "extreme"


# what a query maker returns: the query's text, ground truth and answer
QueryParts = tuple[str, dict, str]


def _probe_trend(
    trace: Trace, rng: np.random.Generator, counter: CallCounter
) -> tuple[str, str, int]:
    """A trend pair whose param the trace edited (any pair if none), drawn
    from ``rng``, and the sign the env gives it at the trace's final design."""
    edited = {s.param for s in trace.spans}
    pairs = tuple(p for p in TREND_PAIRS if p[0] in edited) or TREND_PAIRS
    param, metric = pairs[int(rng.integers(len(pairs)))]
    geom = trace.spans[-1].geom_after
    return param, metric, physics.metric_sign(geom, param, metric, trace.target.lambda_um, counter)


def _trend_query(trace: Trace, rng: np.random.Generator, counter: CallCounter) -> QueryParts:
    param, metric, sign = _probe_trend(trace, rng, counter)
    geom = trace.spans[-1].geom_after
    lam = trace.target.lambda_um
    direction = "increase" if sign > 0 else "decrease"
    text = (
        f"for the current design near pitch {geom.pitch_um:.4g} um and fill "
        f"{geom.dratio:.3g}, if {param} increases, does {metric} increase or "
        f"decrease at {lam:.3g} um?"
    )
    ground_truth = {
        "direction": int(sign),
        "param": param,
        "metric": metric,
        "lambda_um": lam,
        "geom": geom.as_dict(),
    }
    return text, ground_truth, f"{metric} will {direction} when {param} increases"


def design_answer(geom: Geometry, dispersion: float, loss: float, lambda_um: float) -> str:
    """The parameter_adjustment answer: a geometry and the dispersion and loss
    it gives. Reference and predicted answers both use it, so token F1
    compares like with like."""
    return (
        f"parameters pitch {geom.pitch_um:.5g} um hole_d {geom.hole_d_um:.5g} um "
        f"n_rings {geom.n_rings} yield dispersion {dispersion:.5g} "
        f"ps per nm km and loss {loss:.4g} db per km at wavelength "
        f"{lambda_um:.3g} um"
    )


def _param_query(trace: Trace, rng: np.random.Generator, counter: CallCounter) -> QueryParts:
    t = trace.target
    goal = trace.goal_geometry
    text = (
        f"propose pitch, hole_d and n_rings reaching dispersion "
        f"{t.dispersion_ps_nm_km:.5g} ps per nm km and loss {t.loss_db_km:.4g} "
        f"db per km at wavelength {t.lambda_um:.3g} um"
    )
    ground_truth = {"reference_geometry": goal.as_dict(), "target": t.as_dict()}
    return text, ground_truth, design_answer(goal, t.dispersion_ps_nm_km, t.loss_db_km, t.lambda_um)


def _reasoning_query(trace: Trace, rng: np.random.Generator, counter: CallCounter) -> QueryParts:
    lam = trace.target.lambda_um
    text = (
        f"explain how pitch, hole diameter and ring count control dispersion "
        f"and loss for this design at {lam:.3g} um"
    )
    answer = (
        f"pitch sets the lattice scale, larger hole_d raises dispersion and "
        f"confines light cutting loss, more rings cut loss further, n_eff "
        f"falls with fill, all at wavelength {lam:.3g} um"
    )
    return text, {"concepts": list(CONCEPT_KEYS)}, answer


def _failure_query(trace: Trace, rng: np.random.Generator, counter: CallCounter) -> QueryParts:
    geom = trace.spans[-1].geom_after
    lam = trace.target.lambda_um
    regime = memory.dratio_regime(geom.dratio)
    # drawn before the trend pair; the draw order fixes the corpus bytes
    ftype = FAILURE_TYPES[int(rng.choice(len(FAILURE_TYPES), p=FAILURE_WEIGHTS))]
    param, metric, sign = _probe_trend(trace, rng, counter)
    if sign == 0:
        sign = 1

    direction = sign
    support, conf, contradictions = 3, 0.6, 0
    kind = "trend"
    plant_geom = geom.as_dict()
    if ftype == "wrong_trend":
        direction = -sign
    elif ftype == "missing_constraint":
        kind = "param_map"
        plant_geom = Geometry(geom.pitch_um, geom.pitch_um * 1.05, geom.n_rings).as_dict()
    elif ftype == "outdated_knowledge":
        contradictions = 2
    else:  # spurious_memory
        support, conf = 1, 0.2

    dirword = "rises" if direction > 0 else "falls"
    statement = (
        f"{metric} {dirword} as {param} increases near pitch "
        f"{plant_geom['pitch_um']:.4g} um hole_d {plant_geom['hole_d_um']:.4g} um "
        f"in the {regime} regime at {lam:.3g} um"
    )
    entry = {
        "key": {
            "param": param,
            "metric": metric,
            "lambda_bucket": memory.lambda_bucket(lam),
            "regime": regime,
        },
        "kind": kind,
        "statement": statement,
        "direction": int(direction),
        "slope": 0.0,
        "support_count": support,
        "confidence": conf,
        "contradictions": contradictions,
        "geom": plant_geom,
    }
    text = (
        f"a remembered note reads: {statement}. decide whether this note is a "
        f"wrong trend, a missing constraint, outdated knowledge, or a spurious "
        f"memory"
    )
    ground_truth = {"failure_type": ftype, "planted_entry": entry}
    return text, ground_truth, f"the note is a {ftype.replace('_', ' ')}"


# each query type's maker; gen_queries builds the record around its parts
QUERY_MAKERS = {
    "trend_prediction": _trend_query,
    "parameter_adjustment": _param_query,
    "design_reasoning": _reasoning_query,
    "failure_analysis": _failure_query,
}


def gen_queries(
    traces: list[Trace], master_seed: int, counter: CallCounter
) -> list[Query]:
    """Three queries per trace, distinct types drawn from the four."""
    queries = []
    for t_idx, trace in enumerate(traces):
        rng = np.random.default_rng(
            np.random.SeedSequence(master_seed, spawn_key=(2, t_idx))
        )
        difficulty = _difficulty_tag(len(trace.spans))
        for j, type_idx in enumerate(rng.permutation(len(QUERY_TYPES))[:3]):
            qtype = QUERY_TYPES[type_idx]
            text, ground_truth, answer = QUERY_MAKERS[qtype](trace, rng, counter)
            queries.append(
                Query(f"{trace.id}-q{j}", [trace.id], qtype, text, ground_truth, answer, difficulty)
            )
    return queries


# --- splits ----------------------------------------------------------------


def split(traces: list[Trace], master_seed: int) -> dict:
    """Family-stratified 70/15/15 split with largest-remainder rounding."""
    by_family: dict[int, list[str]] = {}
    for t in traces:
        by_family.setdefault(t.family, []).append(t.id)
    rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(3,)))
    out = {"train": [], "val": [], "test": []}
    for family in range(N_FAMILIES):
        ids = sorted(by_family.get(family, []))
        if len(ids) < 10:
            raise ValueError(f"family {family} has {len(ids)} traces; need >= 10")
        perm = rng.permutation(len(ids))
        ids = [ids[i] for i in perm]
        n = len(ids)
        fracs = (0.70, 0.15, 0.15)
        floors = [int(np.floor(f * n)) for f in fracs]
        remainders = [f * n - fl for f, fl in zip(fracs, floors)]
        leftover = n - sum(floors)
        order = sorted(range(3), key=lambda i: (-remainders[i], i))
        for i in order[:leftover]:
            floors[i] += 1
        a, b, _ = floors
        out["train"].extend(ids[:a])
        out["val"].extend(ids[a : a + b])
        out["test"].extend(ids[a + b :])
    for k in out:
        out[k] = sorted(out[k])
    return out


# --- persistence -----------------------------------------------------------


def _write_jsonl(path: str, fmt: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": fmt, "version": FORMAT_VERSION}) + "\n")
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _read_jsonl(path: str, fmt: str, build: Callable[[dict], Trace | Query]) -> list:
    """Check the format header on line 1, then ``build`` one record per line.

    A file without the header or without records, a record ``build``
    cannot read (missing field, wrong type or value), or a record whose id
    an earlier line holds raises CorpusFormatError naming the file and line.
    """
    records = []
    id_lines: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line and lineno > 1:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: bad JSON: {exc.msg}") from exc
            if lineno == 1:
                header = doc if isinstance(doc, dict) else {}
                if header.get("format") != fmt or header.get("version") != FORMAT_VERSION:
                    raise CorpusFormatError(
                        f"{path}:1: expected {fmt} v{FORMAT_VERSION}, "
                        f"got {header.get('format')!r} v{header.get('version')!r}"
                    )
                continue
            try:
                if not isinstance(doc, dict):
                    raise TypeError(f"{type(doc).__name__}, not an object")
                rec = build(doc)
                first = id_lines.setdefault(rec.id, lineno)
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusFormatError(
                    f"{path}:{lineno}: bad record: {type(exc).__name__}: {exc}"
                ) from exc
            if first != lineno:
                raise CorpusFormatError(
                    f"{path}:{lineno}: repeated id {rec.id!r}, first on line {first}"
                )
            records.append(rec)
    if not records:
        raise CorpusFormatError(f"{path}:1: no records")
    return records


def save_traces(path: str, traces: list[Trace]) -> None:
    _write_jsonl(path, TRACE_FORMAT, [t.as_dict() for t in traces])


def load_traces(path: str) -> list[Trace]:
    return _read_jsonl(path, TRACE_FORMAT, trace_from_dict)


def save_queries(path: str, queries: list[Query]) -> None:
    _write_jsonl(path, QUERY_FORMAT, [q.as_dict() for q in queries])


def load_queries(path: str) -> list[Query]:
    return _read_jsonl(path, QUERY_FORMAT, query_from_dict)
