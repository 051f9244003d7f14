"""Pipeline benchmark: seeded corpora through `pipeline.run_end_to_end`.

    python3 bench/run.py --workload fit-shared --seed 1 --seconds 36 --trace 0

Run from the repository root.  The program is imported from ./src; the
benchmark writes only under ./.bench_work (scratch, removed on exit) and
./bench_results (one JSON result per invocation, with the machine record).

--trace 0 repeats whole pipeline runs while at least half of the next one
fits in --seconds (so it can overrun by half a run) and prints the
end-to-end metrics (medians over runs).  --trace 1 makes a warm-up, a
traced and an untraced run whatever --seconds says, and prints the
per-layer metrics.  Every run
starts from a fresh output directory and an empty embedding store, and is
checked afterwards; a run that raises or fails its check counts as failed.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  --workload all runs each workload in turn, one process each.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True   # leave the checkout as it was

import numpy as np  # noqa: E402

import corpus  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from stub import EmbeddingStub  # noqa: E402

STAGES = ("curate", "split", "embed", "train", "eval", "ablate")
# Re-running these stages on a run's own outputs does the same work and
# writes the same files (the check compares them), so each run also times
# STAGE_REPEATS re-runs of them: short stages then get several samples per
# run.  embed and ablate would find a warm store, and train is too long.
REPEATED_STAGES = ("curate", "split", "eval")
STAGE_REPEATS = 2
SETUP_REPEATS = 5
MAX_RUNS = 50
# files whose digests must repeat across runs of one workload (the files the
# end-to-end acceptance test compares; run_manifest.json embeds the stub port)
DIGESTED = ("curated.tsv", "split_manifest.tsv", "boxcox.json",
            "model_classification.ckpt.bin", "model_regression.ckpt.bin",
            "metrics.json", "importance.json", "fig_importance.csv")
REQUIRED = DIGESTED + ("validation.json", "embed_stats.json",
                       "model_classification.ckpt",
                       "model_regression.ckpt", "history_classification.json",
                       "fig_metrics.csv", "run_manifest.json")
PROGRAM_MODULES = ("autodiff", "schema", "curation", "boxcox", "splits",
                   "prompts", "providers", "cache", "remote", "model",
                   "metrics", "encode", "importance", "pipeline")


@dataclass(frozen=True)
class Workload:
    shape: corpus.CorpusShape
    model: dict
    ablation: dict
    provider: str


PAPER_MODEL = {"d_shared": 1024, "tokens": 8, "heads": 8,
               "mlp_hidden": [512, 128], "batch_size": 32}
SMALL_MODEL = {**PAPER_MODEL, "d_shared": 64}

# Each workload makes a different layer do most of the work; see the `why`
# lines in BENCHMARK.json.
WORKLOADS = {
    # few rows, paper-size model: training dominates.  Groups list about 30
    # proteins and fill grows 360 raw rows to 600, not the real corpus's ~60
    # and ~6x: training time grows with the rows, and several runs must fit
    # in one measurement
    "fit-shared": Workload(
        shape=corpus.CorpusShape(studies=4, groups_per_study=3,
                                 private_pool=32, listed_b=8,
                                 common_pool=8, common_per_study=6,
                                 unknown_every=5),
        model={**PAPER_MODEL, "max_epochs": 1},
        ablation={"features": ["core", "modification_type"],
                  "pairs": [["core", "modification_type"]]},
        provider="synthetic"),
    # many rows per prompt, small model, every feature ablated
    "ablate-shared": Workload(
        shape=corpus.CorpusShape(studies=4, groups_per_study=4,
                                 private_pool=40, listed_b=12,
                                 common_pool=8, common_per_study=6,
                                 unknown_every=6),
        model={**SMALL_MODEL, "max_epochs": 1},
        ablation={"features": [],
                  "pairs": [["core", "modification_type"],
                            ["core", "shape"],
                            ["dls_size", "zeta_potential"]]},
        provider="synthetic"),
    # about one prompt per two rows, remote provider, cold store.  No common
    # pool: a protein global fill may add goes to nearly every group, which
    # would double the rows per prompt; global fill still scans every row
    "ingest-distinct": Workload(
        shape=corpus.CorpusShape(studies=200, groups_per_study=4,
                                 private_pool=2, listed_b=1,
                                 common_pool=0, common_per_study=0,
                                 unknown_every=5),
        model={**SMALL_MODEL, "max_epochs": 1},
        ablation={"features": ["core", "modification_type"], "pairs": []},
        provider="remote"),
}


class SourceMissing(Exception):
    pass


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------


def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def _commit(root: str):
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(src: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "nanocorona", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def machine_record(root: str, src: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(root),
        "src_sha256": _source_digest(src),
    }


# ---------------------------------------------------------------------------
# set-up, runs, checks
# ---------------------------------------------------------------------------


def import_program(src: str) -> dict:
    """(Re-)import every program module from src; returns name -> module."""
    if not os.path.isfile(os.path.join(src, "nanocorona", "pipeline.py")):
        raise SourceMissing(f"no program sources under {src}")
    for name in [m for m in sys.modules
                 if m == "nanocorona" or m.startswith("nanocorona.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(f"nanocorona.{name}")
            for name in PROGRAM_MODULES}
    if not os.path.abspath(mods["pipeline"].__file__).startswith(src):
        raise SourceMissing("nanocorona imported from outside ./src")
    return mods


# The program's own set-up, as a fresh interpreter pays it: import every
# program module (numpy and the other dependencies included) and build the
# default schema.  Interpreter start-up is outside the timed span.
SETUP_SCRIPT = """
import importlib, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
for name in sys.argv[2:]:
    importlib.import_module("nanocorona." + name)
sys.modules["nanocorona.schema"].default_schema()
print(repr(time.perf_counter() - start))
"""


def setup_seconds(src: str) -> float:
    """Median over SETUP_REPEATS fresh interpreters of the program's set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-B", "-c", SETUP_SCRIPT, src, *PROGRAM_MODULES],
            capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def setup(src: str, wl: Workload, seed: int, inputs_dir: str):
    """Import the program and write the workload's inputs; returns
    (modules, expected counts, input paths, seconds the inputs took)."""
    nc = import_program(src)
    start = time.perf_counter()
    schema = nc["schema"].default_schema()
    generated = corpus.generate(wl.shape, schema, seed)
    paths = corpus.write(generated, schema, inputs_dir)
    return nc, generated.expected, paths, time.perf_counter() - start


def make_config(nc, wl: Workload, paths, run_dir: str, endpoint) -> dict:
    """Write the run's config file and load it as the CLI would."""
    user = {
        "paths": {"corpus": paths[0], "catalog": paths[1],
                  "cache": os.path.join(run_dir, "embeddings.bin"),
                  "out_dir": os.path.join(run_dir, "out")},
        "provider": {"kind": wl.provider, "seed": 0, "endpoint": endpoint},
        "model": dict(wl.model),
        "ablation": {**wl.ablation, "epsilon": 0.01},
    }
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(user, fh)
    return nc["pipeline"].load_config(path)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _finite_tree(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_tree(v) for v in value.values())
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    return True


def check_run(nc, config: dict, expected: dict, stub_requests) -> tuple:
    """Problems found in one run's outputs, and its artifact digests."""
    out = config["paths"]["out_dir"]
    problems = [f"missing {name}" for name in REQUIRED
                if not os.path.exists(os.path.join(out, name))]
    if problems:
        return problems, {}
    with open(os.path.join(out, "embed_stats.json"), encoding="utf-8") as fh:
        stats = json.load(fh)
    for key in ("unique_sequences", "unique_prompts"):
        if stats.get(key) != expected[key]:
            problems.append(f"{key} {stats.get(key)} != {expected[key]}")
    with open(os.path.join(out, "curated.tsv"), encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != expected["curated_rows"]:
        problems.append(f"curated rows {rows} != {expected['curated_rows']}")
    with open(os.path.join(out, "metrics.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)
    if not _finite_tree(metrics):
        problems.append("non-finite value in metrics.json")
    auc = metrics.get("classification/test", {}).get("auc")
    if auc is None:
        problems.append("no classification/test auc")
    if stub_requests is not None:
        entries = len(nc["cache"].EmbeddingStore(config["paths"]["cache"]))
        # one request per stored entry: each unique input fetched once and
        # no request retried
        if stub_requests != entries:
            problems.append(f"stub requests {stub_requests} != store "
                            f"entries {entries}")
    digests = {name: _sha256(os.path.join(out, name)) for name in DIGESTED}
    return problems, {"digests": digests, "test_auc": auc}


class Runner:
    """Runs and checks whole pipelines of one workload."""

    def __init__(self, nc, wl, expected, paths, work, stub):
        self.nc, self.wl, self.expected = nc, wl, expected
        self.paths, self.work, self.stub = paths, work, stub
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.problems: list[str] = []

    def run(self, tracer: Tracer | None = None, repeats: int = 0):
        """One checked run, plus `repeats` re-runs of REPEATED_STAGES;
        returns (run_s, {stage: [seconds, ...]}, test_auc) or None when the
        run raised or failed its check."""
        self.attempted += 1
        run_dir = os.path.join(self.work, f"run{self.attempted}")
        config = make_config(self.nc, self.wl, self.paths, run_dir,
                             self.stub.url if self.stub else None)
        pipeline = self.nc["pipeline"]
        stage_timer = Tracer()
        stage_timer.patch_function([pipeline], pipeline, "run_stage",
                                   lambda name, *a, **k: name)
        requests_before = self.stub.requests if self.stub else 0
        try:
            start = time.perf_counter()
            pipeline.run_end_to_end(config)
            run_s = time.perf_counter() - start
            manifest = pipeline.RunManifest(config, run_dir)
            for _ in range(repeats):
                for stage in REPEATED_STAGES:
                    pipeline.run_stage(stage, config, manifest)
        except Exception:  # a failed run is a measured outcome
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.problems.append(f"run {self.attempted} raised")
            return None
        finally:
            stage_timer.uninstall()
            if tracer is not None:
                tracer.uninstall()
        stages = stage_timer.durations()
        requests = self.stub.requests - requests_before if self.stub else None
        problems, facts = check_run(self.nc, config, self.expected, requests)
        if facts and self.reference is None:
            self.reference = facts["digests"]
        elif facts and facts["digests"] != self.reference:
            problems += [f"digest of {name} differs from first run"
                         for name in DIGESTED
                         if facts["digests"][name] != self.reference[name]]
        shutil.rmtree(run_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems += [f"run {self.attempted}: {p}" for p in problems]
            return None
        return run_s, stages, facts["test_auc"]


def measure(runner: Runner, seconds: float) -> dict:
    """Repeat runs while at least half of the next one is expected to fit
    in `seconds`, so the run count is `seconds` over the run time, rounded.
    Stage times are medians over every timed execution of the stage."""
    start = time.perf_counter()
    results, durations = [], []
    while len(durations) < MAX_RUNS:
        began = time.perf_counter()
        result = runner.run(repeats=STAGE_REPEATS)
        durations.append(time.perf_counter() - began)
        if result is not None:
            results.append(result)
        if time.perf_counter() + max(durations) / 2 > start + seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not results:
        return {}
    metrics = {"run_s": (statistics.median(r[0] for r in results), "s")}
    for stage in STAGES:
        metrics[f"{stage}_s"] = (statistics.median(
            t for r in results for t in r[1][stage]), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    metrics["test_auc"] = (statistics.median(r[2] for r in results), "ratio")
    metrics["runs"] = [{"run_s": r[0], **{f"{k}_s": v
                                          for k, v in r[1].items()}}
                       for r in results]   # stage values are lists
    return metrics


def traced(runner: Runner) -> dict:
    """A warm-up run, then a traced and an untraced run.  Per-layer metrics
    come from the traced run; tracing overhead is its run_s minus the
    untraced one's.  The first run of a process is the slowest, so it is
    neither of the two compared."""
    warm = runner.run()
    tracer = Tracer()
    counters = layers.LayerCounters()
    layers.install(tracer, runner.nc, counters)
    requests_before = runner.stub.requests if runner.stub else 0
    spanned = runner.run(tracer)
    requests = runner.stub.requests - requests_before if runner.stub else 0
    counters.close_bundle()
    plain = runner.run()
    if None in (warm, spanned, plain):
        return {}
    summary = tracer.summary()
    metrics = layers.per_layer(summary, counters)
    remote_calls = summary.get("remote.call", {}).get("calls", 0)
    metrics["remote.retries"] = (requests - remote_calls, "count")
    metrics.update(layers.microtimings(runner.nc, runner.wl.model))
    metrics["trace.untraced_run_s"] = (plain[0], "s")
    metrics["trace.traced_run_s"] = (spanned[0], "s")
    metrics["trace.overhead_s"] = (spanned[0] - plain[0], "s")
    metrics["trace.spans"] = (len(tracer), "count")
    metrics["spans"] = {name: {k: v for k, v in entry.items()
                               if k != "children"}
                        for name, entry in sorted(summary.items())}
    metrics["stage_self_s"] = tracer.self_by_root("stage.")
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    os.environ["NO_PROXY"] = "127.0.0.1,localhost"
    wl = WORKLOADS[name]
    work = os.path.join(root, ".bench_work", f"{name}-{seed}-{os.getpid()}")
    stub = None
    try:
        nc, expected, paths, corpus_s = setup(src, wl, seed,
                                              os.path.join(work, "inputs"))
        setup_s = None if trace else setup_seconds(src)
        if wl.provider == "remote":
            stub = EmbeddingStub()
            stub.start()
        runner = Runner(nc, wl, expected, paths, work, stub)
        measured = traced(runner) if trace else measure(runner, seconds)
    except SourceMissing as exc:
        print(f"error: {exc}; run from the repository root",
              file=sys.stderr)
        return 2
    finally:
        if stub is not None:
            stub.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # other invocations may share it
            os.rmdir(os.path.dirname(work))
    if not trace and measured:
        measured["setup_s"] = (setup_s, "s")
        measured["success_rate"] = (
            (runner.attempted - runner.failed) / runner.attempted, "ratio")
    extra = {k: measured.pop(k) for k in ("runs", "spans", "stage_self_s")
             if k in measured}
    correct = runner.failed == 0 and bool(measured)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in measured.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "expected": expected,
              "corpus_s": corpus_s,
              "problems": runner.problems,
              "machine": machine_record(root, src), **extra, **result}
    results_dir = os.path.join(root, "bench_results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir,
                           f"{name}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    for key, (value, unit) in sorted(measured.items()):
        print(f"{name:16s} {key:30s} {value:14.6g} {unit}")
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1]) if lines else {"correct": False}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result.get("attempted", 0)
        combined["failed"] += result.get("failed", 0)
        for key, metric in result.get("metrics", {}).items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
