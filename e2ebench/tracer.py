"""Wall-clock spans around the public functions of each pcfmem layer.

The tracer swaps module attributes (and a few methods on classes) for
wrappers that record one span per call: its name, start, end, the span
that caused it, and the pipeline phase the benchmark was in. Every pcfmem
module reaches its neighbours through module attributes
(``memory.retrieve``, ``embed.embed_text``), and a module's own bare-name
calls look up the same globals, so a wrapper sees every call. Nothing in
the package changes; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import collections
import functools
import importlib
import time

# The layer boundaries that are traced, per module. "Class.method" entries
# are wrapped on the class. Leaf helpers called thousands of times per
# episode (fnv1a64, tokenize, cosine) stay unwrapped: their time counts as
# self time of the traced function that calls them.
LAYER_FUNCTIONS = {
    "cli": ("dispatch", "cmd_gen_data", "_run_loop", "cmd_eval", "cmd_baseline"),
    "datagen": (
        "gen_corpus",
        "gen_queries",
        "split",
        "save_traces",
        "save_queries",
        "load_traces",
        "load_queries",
    ),
    "physics": ("simulate", "metric_sign"),
    "embed": ("embed_text", "embed_numeric"),
    "memory": ("retrieve", "apply_edits"),
    "skills": ("mutate", "bank_from_json"),
    "executor": ("execute", "events_from_outcomes", "process_reward"),
    "policy": (
        "encode_context",
        "skill_logits",
        "sample_topk",
        "action_logprob",
        "ppo_loss_and_grads",
        "clip_grads_",
    ),
    "rollout": (
        "run_episode",
        "skill_matrix",
        "FeatureCache.span_text",
        "FeatureCache.span_numeric",
    ),
    "trainer": (
        "run_closed_loop",
        "run_inner_loop",
        "ppo_update",
        "AdamW.step",
        "j_val",
        "compute_gae",
    ),
    "designer": (
        "collect_failures",
        "cluster_failures",
        "propose_changes",
        "new_action_bias",
        "classify_planted",
    ),
    "evalsuite": ("evaluate_agent", "episode_queries", "answer_query", "aggregate"),
    "baselines": (
        "run_baseline",
        "train_surrogate",
        "random_search_query",
        "nelder_mead_query",
        "surrogate_query",
    ),
}

EDIT_STATUSES = ("applied", "duplicate", "rejected", "noop")


class Tracer:
    """Records spans while installed; ``phase`` tags every span it opens."""

    def __init__(self, layers: dict = LAYER_FUNCTIONS) -> None:
        self.layers = layers
        # (id, parent id or -1, name, phase, start, end)
        self.spans: list[tuple] = []
        self.phase = ""
        self.edit_outcomes: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        count_edits = name == "memory.apply_edits"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, self.phase, start, end))
            if count_edits:
                self.edit_outcomes.update(o.status for o in result[1])
            return result

        return traced

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, fns in self.layers.items():
            module = importlib.import_module(f"pcfmem.{mod_name}")
            for fn_name in fns:
                owner, attr = module, fn_name
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".")
                    owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(f"{mod_name}.{fn_name}", original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- summaries ---------------------------------------------------------

    def durations(self, name: str, phase: str | None = None) -> list[float]:
        """Durations of the spans of one function, in call order."""
        spans = sorted(s for s in self.spans if s[2] == name and phase in (None, s[3]))
        return [s[5] - s[4] for s in spans]

    def table(self) -> dict:
        """Per traced function: calls and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so self times of nested spans add up to the time that
        the outermost spans cover.
        """
        child_time: dict = collections.defaultdict(float)
        for s in self.spans:
            if s[1] >= 0:
                child_time[s[1]] += s[5] - s[4]
        out = {
            f"{mod}.{fn}": {"calls": 0, "self_s": 0.0}
            for mod, fns in self.layers.items()
            for fn in fns
        }
        for s in self.spans:
            row = out[s[2]]
            row["calls"] += 1
            row["self_s"] += s[5] - s[4] - child_time[s[0]]
        return out

    def feature_cache(self, phase: str | None = None) -> tuple[int, int]:
        """(lookups, lookups that embedded) of FeatureCache.span_text."""
        lookup_ids = {
            s[0]
            for s in self.spans
            if s[2] == "rollout.FeatureCache.span_text" and phase in (None, s[3])
        }
        misses = sum(1 for s in self.spans if s[2] == "embed.embed_text" and s[1] in lookup_ids)
        return len(lookup_ids), misses

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tphase\tstart\tend\n")
            for s in sorted(self.spans):
                fh.write("%d\t%d\t%s\t%s\t%.9f\t%.9f\n" % s)
