"""End-to-end benchmark of the pcfmem pipeline, run in one process.

    python3 e2ebench/run.py --workload closed_loop --seed 0 --seconds 50 --trace 0
    python3 e2ebench/run.py --smoke

Each workload generates its corpus from ``--seed`` and drives the program's
own command line (``pcfmem.cli.dispatch``) in this process, with
``workers=1`` and BLAS pinned to one thread. After set-up it repeats whole
rounds of the same commands until ``--seconds`` have passed (at least two
rounds, so that two identically configured runs can be compared byte for
byte), checks every output, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. An operation is one
pcfmem command; it fails when the command does not exit with 0.

``--trace 1`` runs one untraced round and then one traced round on the same
inputs, and reports per-layer call counts and self times instead. See
README.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads: results.json bytes and the
# timings both depend on the thread count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
from tracer import EDIT_STATUSES, LAYER_FUNCTIONS, Tracer  # noqa: E402

WORKLOADS = ("closed_loop", "uniform_rollout", "baselines")
BASELINE_KINDS = ("random_search", "nelder_mead", "surrogate")
SEED_MODULUS = 2**32


@dataclasses.dataclass(frozen=True)
class Size:
    n_traces: int  # corpus size; the test split holds 15% of it
    outer: int  # evolve: outer (designer) epochs
    inner: int  # evolve: inner PPO epochs per outer epoch
    batch: int  # evolve: episodes per inner epoch
    answers_per_round: int  # evals (or random-search + Nelder-Mead pairs) per round


FULL = Size(n_traces=500, outer=2, inner=5, batch=32, answers_per_round=3)
SMOKE = Size(n_traces=80, outer=2, inner=1, batch=4, answers_per_round=1)
# two rounds at least, so that every run compares two identical configurations
MIN_ROUNDS = 2
CORPUS_FILES = ("traces.jsonl", "queries.jsonl", "splits.json", "gen_summary.json")

# functions timed in every run; the end-to-end metrics come from them
TIMED = {
    "trainer": ("run_closed_loop",),
    "evalsuite": ("evaluate_agent",),
    "baselines": ("run_baseline", "train_surrogate"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "queries_per_s": "queries/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_program() -> None:
    """Import pcfmem from this checkout's src/, or fail without a result."""
    sys.path.insert(0, SRC)
    spec = importlib.util.find_spec("pcfmem")
    if spec is None or not os.path.abspath(spec.origin).startswith(SRC + os.sep):
        raise SystemExit(f"pcfmem not found under {SRC}")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "numba": importlib.util.find_spec("numba") is not None,
    }


class Bench:
    """One workload at one seed: set-up, timed rounds, checks, metrics."""

    def __init__(self, workload: str, seed: int, size: Size, work: str, tracer) -> None:
        self.workload = workload
        self.seed = seed
        self.size = size
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.corpus_digests: list[dict] = []
        self.pipeline_s: list[float] = []
        self.rounds = 0
        self.data = os.path.join(work, "data0")
        self.config = os.path.join(work, "config.json")

    # --- commands --------------------------------------------------------

    def command(self, argv: list[str], phase: str) -> bool:
        """Run one pcfmem command in this process; True if it exited with 0."""
        from pcfmem import cli

        self.attempted += 1
        self.tracer.phase = phase
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.dispatch(argv)
        except Exception:  # a crash counts as a failed operation
            traceback.print_exc()
            code = -1
        if code != 0:
            self.failed += 1
            log(f"pcfmem {' '.join(argv)} exited with {code}")
        return code == 0

    def setup(self) -> None:
        """Generate the corpus and load it back; one sample of setup_s.

        Every round is preceded by a set-up, so the samples spread over the
        whole run. The first corpus is the one every round uses; later
        ones are kept only as digests, to check that they are identical.
        """
        from pcfmem import datagen

        out = os.path.join(self.work, f"data{len(self.setup_s)}")
        start = time.perf_counter()
        argv = ["gen-data", "--n-traces", str(self.size.n_traces), "--seed", str(self.seed)]
        if not self.command(argv + ["--out", out], "gen-data"):
            raise RuntimeError("corpus generation failed")
        datagen.load_traces(os.path.join(out, "traces.jsonl"))
        datagen.load_queries(os.path.join(out, "queries.jsonl"))
        with open(os.path.join(out, "splits.json"), encoding="utf-8") as fh:
            json.load(fh)
        self.setup_s.append(time.perf_counter() - start)
        self.corpus_digests.append(
            {name: hashlib.sha256(checks.file_bytes(os.path.join(out, name))).hexdigest() for name in CORPUS_FILES}
        )
        if out != self.data:
            shutil.rmtree(out)
            return
        config = {
            "seed": self.seed,
            "data_dir": self.data,
            "n_traces": self.size.n_traces,
            "outer_epochs": self.size.outer,
            "inner_epochs": self.size.inner,
            "batch": self.size.batch,
            "workers": 1,
        }
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        self.index = checks.CorpusIndex(self.data)

    def ablation(self) -> str:
        return "wo_controller" if self.workload == "uniform_rollout" else "full"

    def round(self, r: int) -> None:
        out = os.path.join(self.work, f"round{r}")
        common = ["--config", self.config, "--out", out]
        start = time.perf_counter()
        if self.workload == "baselines":
            for _ in range(self.size.answers_per_round):
                for kind in BASELINE_KINDS[:2]:
                    self.command(["baseline", "--kind", kind] + common, kind)
            self.command(["baseline", "--kind", "surrogate"] + common, "surrogate")
        else:
            common += ["--ablate", self.ablation()]
            self.command(["evolve"] + common, "evolve")
            for _ in range(self.size.answers_per_round):
                self.command(["eval"] + common, "eval")
        self.pipeline_s.append(time.perf_counter() - start)
        self.rounds += 1

    def run_rounds(self, seconds: float) -> None:
        """Whole rounds until about ``seconds`` have passed.

        A round starts only while it is expected to end less than half a
        round past the deadline, so a run measures ``seconds`` on average.
        """
        start = time.perf_counter()
        while self.rounds < MIN_ROUNDS or (
            time.perf_counter() - start + statistics.median(self.pipeline_s) / 2 < seconds
        ):
            if self.rounds:
                self.setup()
            self.round(self.rounds)

    # --- outputs ---------------------------------------------------------

    def round_files(self) -> list[str]:
        if self.workload == "baselines":
            return [f"baseline_{k}.json" for k in BASELINE_KINDS]
        return ["results.json", "bank.json", f"eval_{self.ablation()}.json"]

    def check(self) -> bool:
        """Check round 0's outputs, then that every later round repeats them."""
        try:
            self._check()
        except (checks.CheckError, OSError, KeyError, ValueError) as exc:
            log(f"check failed: {exc!r}")
            return False
        return True

    def _check(self) -> None:
        n = self.size.n_traces
        for i, digest in enumerate(self.corpus_digests):
            checks.expect(
                digest == self.corpus_digests[0],
                f"data{i}",
                "differs from the first set-up's corpus at the same seed",
            )
        index = self.index
        index.check(n)
        checks.check_gen_summary(
            checks.read_json(os.path.join(self.data, "gen_summary.json")), index, n, "gen_summary.json"
        )
        first = os.path.join(self.work, "round0")
        if self.workload == "baselines":
            for kind in BASELINE_KINDS:
                name = f"baseline_{kind}.json"
                checks.check_baseline(kind, checks.read_json(os.path.join(first, name)), index, name)
        else:
            ablation = self.ablation()
            results = checks.read_json(os.path.join(first, "results.json"))
            bank = checks.read_json(os.path.join(first, "bank.json"))
            checks.check_evolve(results, bank, self.size.outer, self.size.inner, ablation, "results.json")
            name = f"eval_{ablation}.json"
            checks.check_eval(checks.read_json(os.path.join(first, name)), index, name)
        for r in range(1, self.rounds):
            for name in self.round_files():
                checks.expect(
                    checks.file_bytes(os.path.join(self.work, f"round{r}", name))
                    == checks.file_bytes(os.path.join(first, name)),
                    f"round{r}/{name}",
                    "differs from round 0 under the same configuration",
                )

    # --- metrics ---------------------------------------------------------

    def samples(self) -> dict:
        """Every sample behind the end-to-end metrics, in the order taken."""
        t = self.tracer
        if self.workload == "baselines":
            train = t.durations("baselines.train_surrogate")
            searches = [t.durations("baselines.run_baseline", kind) for kind in BASELINE_KINDS[:2]]
            n = 2 * len(self.index.test_param_ids)
            answer = [n / (rs + nm) for rs, nm in zip(*searches)]
        else:
            train = t.durations("trainer.run_closed_loop")
            n = len(self.index.test_qtypes)
            answer = [n / d for d in t.durations("evalsuite.evaluate_agent")]
        return {
            "setup_s": self.setup_s,
            "train_s": train,
            "queries_per_s": answer,
            "pipeline_s": self.pipeline_s,
        }

    def end_to_end(self) -> dict:
        values = {k: statistics.median(v) for k, v in self.samples().items()}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(bench: Bench, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of the traced round (see README.md)."""
    t = bench.tracer
    metrics: dict = {}
    for name, row in t.table().items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    for phase in (None, "evolve", "eval"):
        lookups, misses = t.feature_cache(phase)
        key = "rollout.feature_cache" + (f".{phase}" if phase else "") + ".hit_ratio"
        metrics[key] = ((lookups - misses) / lookups if lookups else 0.0, "ratio")
    for status in EDIT_STATUSES:
        metrics[f"memory.edits.{status}"] = (t.edit_outcomes[status], "count")
    # counts the program writes itself, from the traced round's results.json
    report = {}
    if bench.workload != "baselines":
        report = checks.read_json(os.path.join(bench.work, "round0", "results.json"))
    gates = [e["designer"] for e in report.get("epochs", []) if "designer" in e]
    ppo = [i["ppo"] for e in report.get("epochs", []) for i in e["inner"] if "ppo" in i]
    metrics["designer.accepted"] = (sum(g["accepted"] for g in gates), "count")
    metrics["designer.proposals"] = (len(gates), "count")
    metrics["trainer.ppo_update.skipped"] = (sum(p["skipped"] for p in ppo), "count")
    metrics["trainer.ppo_update.minibatches"] = (
        sum(p["updates"] + p["skipped"] for p in ppo),
        "count",
    )
    for phase in ("train", "designer", "val"):
        metrics[f"physics.{phase}_calls"] = (report.get(f"{phase}_calls", 0), "count")
    cli_self = sum(v[0] for k, v in metrics.items() if k.startswith("cli.") and k.endswith(".self_s"))
    all_self = sum(v[0] for k, v in metrics.items() if k.endswith(".self_s"))
    metrics["trace.coverage"] = ((all_self - cli_self) / traced_wall, "ratio")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: Size, out_root: str) -> dict:
    work = os.path.join(out_root, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    seed %= SEED_MODULUS

    if not trace:
        bench = Bench(workload, seed, size, work, Tracer(TIMED))
        with bench.tracer:
            bench.setup()
            bench.run_rounds(seconds)
        metrics = bench.end_to_end()
        correct = bench.check()
    else:
        # the untraced pass runs first in both: module-level caches of the
        # program are then equally warm, and the traced counts repeat
        passes = []
        for label, layers in (("untraced", TIMED), ("traced", LAYER_FUNCTIONS)):
            bench = Bench(workload, seed, size, os.path.join(work, label), Tracer(layers))
            os.makedirs(bench.work)
            with bench.tracer:
                start = time.perf_counter()
                bench.setup()
                bench.round(0)
                passes.append((time.perf_counter() - start, bench))
        (untraced_wall, untraced), (traced_wall, bench) = passes
        metrics = per_layer(bench, traced_wall, untraced_wall)
        bench.tracer.write_spans(os.path.join(work, "spans.tsv"))
        correct = untraced.check() and bench.check()
        bench.attempted += untraced.attempted
        bench.failed += untraced.failed
    summary = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    with open(os.path.join(work, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                **summary,
                "workload": workload,
                "seed": seed,
                "rounds": bench.rounds,
                "size": dataclasses.asdict(size),
                "environment": environment(),
                "samples": bench.samples(),
            },
            fh,
            indent=1,
        )
    for path in os.listdir(work):
        if os.path.isdir(os.path.join(work, path)):
            shutil.rmtree(os.path.join(work, path))
    return summary


def smoke(out_root: str) -> int:
    """Every workload at minimal size, traced and untraced, all checks on."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            start = time.perf_counter()
            result = run_workload(workload, 0, 0.0, trace, SMOKE, out_root)
            good = result["correct"] and result["failed"] == 0
            ok &= good
            log(
                f"smoke {workload} trace={int(trace)}: {'ok' if good else 'FAILED'} "
                f"({result['attempted']} commands, {time.perf_counter() - start:.1f} s)"
            )
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="all workloads at minimal size, with every check")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    import_program()
    out_root = os.path.join(HERE, "out")
    if args.smoke:
        return smoke(os.path.join(out_root, "smoke"))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), FULL, out_root)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
