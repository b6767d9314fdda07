"""The benchmark tracer's layer names must resolve on the current package."""

import importlib
import importlib.util
from pathlib import Path

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
