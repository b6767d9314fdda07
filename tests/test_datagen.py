"""Corpus generator invariants: physical consistency, determinism, formats."""

import json

import numpy as np
import pytest

from pcfmem import datagen, physics
from pcfmem.physics import CallCounter


def test_trace_structure(small_corpus):
    traces = small_corpus["traces"]
    assert len(traces) == 96
    assert [t.family for t in traces] == [i % 8 for i in range(96)]
    assert [t.id for t in traces] == [f"t{i:05d}" for i in range(96)]
    for t in traces:
        assert 2 <= len(t.spans) <= datagen.MAX_STEPS
        for i, s in enumerate(t.spans):
            assert s.index == i
            assert physics.geometry_valid(s.geom_before)
            assert physics.geometry_valid(s.geom_after)
            assert s.new_value == pytest.approx(s.geom_after.param(s.param))
            assert s.old_value == pytest.approx(s.geom_before.param(s.param))
            assert s.sim_before.lambda_um == t.target.lambda_um
        # the walk is a chain: each step starts where the previous ended
        for a, b in zip(t.spans, t.spans[1:]):
            assert a.geom_after == b.geom_before
            assert a.sim_after == b.sim_before


def test_trace_success_matches_simulator(small_corpus):
    c = CallCounter()
    for t in small_corpus["traces"][:24]:
        last = t.spans[-1]
        res = physics.simulate(last.geom_after, t.target.lambda_um, c)
        assert res == last.sim_after  # stored results are replayable bit-exact
        assert t.success == physics.verify(res, t.target)


def test_spans_record_real_simulations(small_corpus):
    c = CallCounter()
    rng = np.random.default_rng(0)
    spans = [s for t in small_corpus["traces"] for s in t.spans]
    for i in rng.choice(len(spans), 40, replace=False):
        s = spans[int(i)]
        redo = physics.simulate(s.geom_after, s.sim_after.lambda_um, c)
        assert redo == s.sim_after


def test_corpus_is_deterministic():
    c1, c2 = CallCounter(), CallCounter()
    a = datagen.gen_corpus(16, 7, c1)
    b = datagen.gen_corpus(16, 7, c2)
    assert [t.as_dict() for t in a] == [t.as_dict() for t in b]
    assert c1.total_calls == c2.total_calls
    other = datagen.gen_corpus(16, 8, CallCounter())
    assert [t.as_dict() for t in other] != [t.as_dict() for t in a]


def test_queries_three_distinct_types_per_trace(small_corpus):
    traces, queries = small_corpus["traces"], small_corpus["queries"]
    assert len(queries) == 3 * len(traces)
    by_trace = {}
    for q in queries:
        by_trace.setdefault(q.trace_ids[0], []).append(q)
    for t in traces:
        qs = by_trace[t.id]
        assert len(qs) == 3
        assert len({q.qtype for q in qs}) == 3
        assert [q.id for q in qs] == [f"{t.id}-q{j}" for j in range(3)]
        for q in qs:
            assert q.qtype in datagen.QUERY_TYPES
            assert q.difficulty in ("easy", "medium", "hard", "extreme")


def test_one_maker_per_query_type(small_corpus):
    # gen_queries builds every record; a maker returns only its parts
    assert set(datagen.QUERY_MAKERS) == set(datagen.QUERY_TYPES)
    trace = small_corpus["traces"][0]
    for qtype, make in datagen.QUERY_MAKERS.items():
        text, ground_truth, answer = make(trace, np.random.default_rng(0), CallCounter())
        assert isinstance(text, str) and isinstance(answer, str), qtype
        assert set(datagen.GROUND_TRUTH_FIELDS[qtype]) <= set(ground_truth), qtype


def test_query_ground_truth_shapes(small_corpus):
    for q in small_corpus["queries"]:
        gt = q.ground_truth
        if q.qtype == "trend_prediction":
            assert gt["direction"] in (-1, 1)
            assert gt["param"] in physics.PARAMS
            assert gt["metric"] in physics.METRICS
            word = "increase" if gt["direction"] > 0 else "decrease"
            assert word in q.answer_text
        elif q.qtype == "parameter_adjustment":
            geom = physics.geometry_from_dict(gt["reference_geometry"])
            assert physics.geometry_valid(geom)
            assert set(gt["target"]) >= {
                "dispersion_ps_nm_km", "loss_db_km", "lambda_um",
            }
        elif q.qtype == "design_reasoning":
            assert gt["concepts"] == list(datagen.CONCEPT_KEYS)
        else:
            assert gt["failure_type"] in datagen.FAILURE_TYPES
            entry = gt["planted_entry"]
            assert entry["kind"] in ("trend", "param_map")
            assert entry["direction"] in (-1, 1)


def test_planted_failure_notes_are_self_consistent(small_corpus, traces_by_id):
    # each planted note carries the signature its label claims
    c = CallCounter()
    seen = set()
    for q in small_corpus["queries"]:
        if q.qtype != "failure_analysis":
            continue
        gt = q.ground_truth
        entry = gt["planted_entry"]
        seen.add(gt["failure_type"])
        if gt["failure_type"] == "wrong_trend":
            lam = traces_by_id[q.trace_ids[0]].target.lambda_um
            geom = physics.geometry_from_dict(entry["geom"])
            sign = physics.metric_sign(
                geom, entry["key"]["param"], entry["key"]["metric"], lam, c
            )
            if sign != 0:
                assert entry["direction"] == -sign
        elif gt["failure_type"] == "missing_constraint":
            geom = physics.geometry_from_dict(entry["geom"])
            assert not physics.geometry_valid(geom)
        elif gt["failure_type"] == "outdated_knowledge":
            assert entry["contradictions"] >= 2
        else:
            assert entry["support_count"] == 1
            assert entry["confidence"] < 0.5
    assert seen == set(datagen.FAILURE_TYPES)


def test_split_is_stratified_and_disjoint(small_corpus):
    splits = small_corpus["splits"]
    traces = {t.id: t for t in small_corpus["traces"]}
    assert set(splits) == {"train", "val", "test"}
    all_ids = splits["train"] + splits["val"] + splits["test"]
    assert sorted(all_ids) == sorted(traces)
    assert len(set(all_ids)) == len(all_ids)
    assert len(splits["train"]) == 64
    assert len(splits["val"]) == 16
    assert len(splits["test"]) == 16
    # every family appears in every split
    for part in splits.values():
        assert {traces[i].family for i in part} == set(range(8))


def test_split_determinism_and_minimum_size(small_corpus):
    again = datagen.split(small_corpus["traces"], 123)
    assert again == small_corpus["splits"]
    tiny = datagen.gen_corpus(16, 3, CallCounter())
    with pytest.raises(ValueError, match="has 2 traces; need >= 10"):
        datagen.split(tiny, 3)
    # no family may be absent, so an empty corpus fails the same way
    with pytest.raises(ValueError, match="family 0 has 0 traces; need >= 10"):
        datagen.split([], 3)


def test_jsonl_round_trip(tmp_path, small_corpus):
    tpath = str(tmp_path / "traces.jsonl")
    qpath = str(tmp_path / "queries.jsonl")
    datagen.save_traces(tpath, small_corpus["traces"][:10])
    datagen.save_queries(qpath, small_corpus["queries"][:30])
    traces = datagen.load_traces(tpath)
    queries = datagen.load_queries(qpath)
    assert [t.as_dict() for t in traces] == [
        t.as_dict() for t in small_corpus["traces"][:10]
    ]
    assert [q.as_dict() for q in queries] == [
        q.as_dict() for q in small_corpus["queries"][:30]
    ]
    with open(tpath) as fh:
        header = json.loads(fh.readline())
    assert header == {"format": datagen.TRACE_FORMAT, "version": datagen.FORMAT_VERSION}


def test_jsonl_rejects_corruption(tmp_path, small_corpus):
    path = str(tmp_path / "traces.jsonl")
    datagen.save_traces(path, small_corpus["traces"][:2])
    with open(path) as fh:
        lines = fh.readlines()

    wrong_header = str(tmp_path / "wrong_header.jsonl")
    with open(wrong_header, "w") as fh:
        fh.write('{"format": "other", "version": 1}\n')
        fh.writelines(lines[1:])
    with pytest.raises(datagen.CorpusFormatError):
        datagen.load_traces(wrong_header)
    with open(wrong_header, "w") as fh:
        fh.write("[1]\n")
    with pytest.raises(datagen.CorpusFormatError, match=":1: expected"):
        datagen.load_traces(wrong_header)

    truncated = str(tmp_path / "truncated.jsonl")
    with open(truncated, "w") as fh:
        fh.writelines(lines[:-1])
        fh.write(lines[-1][: len(lines[-1]) // 2])
    with pytest.raises(datagen.CorpusFormatError):
        datagen.load_traces(truncated)

    bad_query = str(tmp_path / "bad_query.jsonl")
    q = small_corpus["queries"][0].as_dict()
    q["type"] = "essay"
    with open(bad_query, "w") as fh:
        fh.write(json.dumps({"format": datagen.QUERY_FORMAT, "version": 1}) + "\n")
        fh.write(json.dumps(q) + "\n")
    with pytest.raises(datagen.CorpusFormatError):
        datagen.load_queries(bad_query)

    # a record missing a field names its file and line
    no_spans = str(tmp_path / "no_spans.jsonl")
    t = json.loads(lines[1])
    del t["spans"]
    with open(no_spans, "w") as fh:
        fh.writelines([lines[0], json.dumps(t) + "\n"])
    with pytest.raises(datagen.CorpusFormatError, match=r"no_spans\.jsonl:2: .*KeyError"):
        datagen.load_traces(no_spans)
    no_text = str(tmp_path / "no_text.jsonl")
    del q["text"]
    q["type"] = "trend_prediction"
    with open(no_text, "w") as fh:
        fh.write(json.dumps({"format": datagen.QUERY_FORMAT, "version": 1}) + "\n")
        fh.write(json.dumps(q) + "\n")
    with pytest.raises(datagen.CorpusFormatError, match=r"no_text\.jsonl:2: .*KeyError"):
        datagen.load_queries(no_text)

    # a query's ground truth holds every field its answerer reads
    first = {}
    for query in small_corpus["queries"]:
        first.setdefault(query.qtype, query.as_dict())
    cases = [
        ("trend_prediction", ("param",)),
        ("trend_prediction", ("metric",)),
        ("trend_prediction", ("direction",)),
        ("parameter_adjustment", ("target",)),
        ("parameter_adjustment", ("reference_geometry",)),
        ("parameter_adjustment", ("target", "dispersion_ps_nm_km")),
        ("parameter_adjustment", ("target", "loss_db_km")),
        ("parameter_adjustment", ("target", "lambda_um")),
        ("failure_analysis", ("planted_entry",)),
        ("failure_analysis", ("failure_type",)),
    ]
    for qtype, path in cases:
        doc = json.loads(json.dumps(first[qtype]))
        holder = doc["ground_truth"]
        for key in path[:-1]:
            holder = holder[key]
        del holder[path[-1]]
        no_field = tmp_path / f"no_{'_'.join(path)}.jsonl"
        with open(no_field, "w") as fh:
            fh.write(json.dumps({"format": datagen.QUERY_FORMAT, "version": 1}) + "\n")
            fh.write(json.dumps(doc) + "\n")
        with pytest.raises(
            datagen.CorpusFormatError, match=rf"{no_field.name}:2: .*{path[-1]}"
        ):
            datagen.load_queries(str(no_field))

    # and each value the answerer compares against is one it can match
    bad_values = [
        ("trend_prediction", "direction", "up", "'up' is not -1, 0 or 1"),
        ("trend_prediction", "direction", 5, "5 is not -1, 0 or 1"),
        ("trend_prediction", "direction", 1.0, "1.0 is not -1, 0 or 1"),
        ("trend_prediction", "direction", True, "True is not -1, 0 or 1"),
        ("trend_prediction", "param", "girth", "trend param 'girth'"),
        ("trend_prediction", "metric", "girth", "trend metric 'girth'"),
        ("failure_analysis", "failure_type", "typo", "failure type 'typo'"),
        ("failure_analysis", "planted_entry", "oops", "planted_entry must be an object"),
        ("failure_analysis", "planted_entry", {"kind": "trend"}, "with an object 'key'"),
        ("failure_analysis", "planted_entry", {"key": "pitch"}, "with an object 'key'"),
    ]
    for n, (qtype, field, value, message) in enumerate(bad_values):
        doc = json.loads(json.dumps(first[qtype]))
        doc["ground_truth"][field] = value
        bad_value = tmp_path / f"bad_value_{n}.jsonl"
        with open(bad_value, "w") as fh:
            fh.write(json.dumps({"format": datagen.QUERY_FORMAT, "version": 1}) + "\n")
            fh.write(json.dumps(doc) + "\n")
        with pytest.raises(datagen.CorpusFormatError, match=rf"{bad_value.name}:2: .*{message}"):
            datagen.load_queries(str(bad_value))

    # a trace has at least one span
    empty = str(tmp_path / "empty.jsonl")
    t = json.loads(lines[1])
    t["spans"] = []
    with open(empty, "w") as fh:
        fh.writelines([lines[0], lines[2], json.dumps(t) + "\n"])
    with pytest.raises(datagen.CorpusFormatError, match=r"empty\.jsonl:3: .*has no spans"):
        datagen.load_traces(empty)

    # a span edits one of the simulator's parameters
    girth = str(tmp_path / "girth.jsonl")
    t = json.loads(lines[1])
    t["spans"][0]["edit"]["param"] = "girth"
    with open(girth, "w") as fh:
        fh.writelines([lines[0], json.dumps(t) + "\n"])
    with pytest.raises(datagen.CorpusFormatError, match=r"girth\.jsonl:2: .*'girth'"):
        datagen.load_traces(girth)

    # ids are unique within a file; the repeat is named, not the first
    repeated = str(tmp_path / "repeated.jsonl")
    with open(repeated, "w") as fh:
        fh.writelines([lines[0], lines[1], lines[2], lines[1]])
    with pytest.raises(
        datagen.CorpusFormatError, match=r"repeated\.jsonl:4: repeated id .*line 2"
    ):
        datagen.load_traces(repeated)
    repeated_query = str(tmp_path / "repeated_query.jsonl")
    q = small_corpus["queries"][0].as_dict()
    with open(repeated_query, "w") as fh:
        fh.write(json.dumps({"format": datagen.QUERY_FORMAT, "version": 1}) + "\n")
        fh.write(json.dumps(q) + "\n" + json.dumps(q) + "\n")
    with pytest.raises(datagen.CorpusFormatError, match=r"repeated_query\.jsonl:3: repeated id"):
        datagen.load_queries(repeated_query)

    # line 1 is the header, and a file holds at least one record
    for name, text in (
        ("empty", ""),
        ("blank", "\n"),
        ("blank_then_header", "\n" + lines[0] + lines[1]),
        ("header_only", lines[0]),
    ):
        path = tmp_path / f"{name}.jsonl"
        path.write_text(text)
        with pytest.raises(datagen.CorpusFormatError, match=rf"{name}\.jsonl:1: "):
            datagen.load_traces(str(path))


def test_family_priors_are_boxes_in_band():
    lams = set()
    for fam in range(8):
        prior = datagen.family_prior(fam)
        assert set(prior) == {"pitch", "dratio", "n_rings", "lambda_um"}
        lo, hi = prior["pitch"]
        assert physics.PITCH_MIN_UM <= lo < hi <= physics.PITCH_MAX_UM
        rlo, rhi = prior["dratio"]
        assert 0.0 < rlo < rhi <= physics.DRATIO_MAX
        nlo, nhi = prior["n_rings"]
        assert physics.N_RINGS_MIN <= nlo < nhi <= physics.N_RINGS_MAX
        lams.add(prior["lambda_um"])
    assert lams == {1.31, 1.55}
    with pytest.raises(ValueError):
        datagen.family_prior(8)
