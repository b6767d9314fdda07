"""The benchmark tracer's layer names must resolve on the current package,
and the results it reads from them must keep their shape."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from pcfmem import memory, rollout, skills

TRACER_PATH = Path(__file__).resolve().parents[1] / "e2ebench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("pcfmem_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(mod_name: str, fn_name: str):
    owner = importlib.import_module(f"pcfmem.{mod_name}")
    for part in fn_name.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_name_is_callable_and_restored():
    tracer = _load_tracer()
    names = [(m, f) for m, fns in tracer.LAYER_FUNCTIONS.items() for f in fns]
    before = {name: _resolve(*name) for name in names}
    t = tracer.Tracer().install()
    try:
        for name in names:
            wrapped = _resolve(*name)
            assert callable(before[name]) and callable(wrapped), name
            assert wrapped.__wrapped__ is before[name], name
    finally:
        t.uninstall()
    for name in names:
        assert _resolve(*name) is before[name], name


def test_tracer_counts_the_status_of_every_applied_edit(small_corpus, monkeypatch):
    # the tracer reads the statuses from the second item that
    # memory.apply_edits returns
    tracer = _load_tracer()
    n_edits = []
    apply_edits = memory.apply_edits

    def counting(bank, edits):
        n_edits.append(len(edits))
        return apply_edits(bank, edits)

    monkeypatch.setattr(memory, "apply_edits", counting)
    t = tracer.Tracer().install()
    try:
        rollout.run_episode(
            small_corpus["traces"][:2], skills.initial_bank(), None, rollout.FeatureCache(),
            k_retrieve=5, top_k=3, mode="random",
            rngs=[np.random.default_rng(0), np.random.default_rng(1)],
        )
    finally:
        t.uninstall()
    assert set(t.edit_outcomes) <= set(tracer.EDIT_STATUSES)
    assert sum(t.edit_outcomes.values()) == sum(n_edits) > 0
    traced = {span[2] for span in t.spans}
    assert {"executor.events_from_outcomes", "executor.process_reward"} <= traced
