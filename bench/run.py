"""Train/evaluate benchmark of disembed, end to end or traced layer by layer.

    python3 bench/run.py --workload triplet_train --seed 0 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/``.

``--trace 0`` sets the workload up 3 to 5 times (fewer when set-up is slow),
then repeats one ``run_benchmark`` over the workload's variants until
``--seconds`` have passed, and reports the end-to-end metrics (timings as
medians).
``--trace 1`` sets up once with probes on, runs an untraced, a traced and
another untraced iteration, and reports the per-layer metrics; the tracing
overhead compares the traced wall time with the mean of the two untraced ones,
which cancels a steady drift of the host's speed.  The spans go to
``.bench_out/trace-<workload>-seed<seed>.jsonl``.

Every iteration's report, with wall-clock fields stripped, must equal the
first one's, and every quality value must be finite and in [0, 1]; otherwise
the result says ``"correct": false`` and the exit code is 1.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
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
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("triplet_train", "bce_train", "eval_heavy")
# set-up repeats: at least SETUP_MIN, then up to SETUP_MAX until SETUP_SECONDS
# have been measured, so a slow set-up does not eat the run's time budget
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 5, 3.0

# declared in BENCHMARK.json, in this order
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("train_s", "s"),
    ("train_items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("r_at_1", "frac"),
    ("tag_auc", "frac"),
    ("triplet_acc", "frac"),
    ("triplet_acc_sub", "frac"),
]
# printed but not declared: evaluation is under a tenth of the training
# workloads' wall time and, on a shared host, its seed-to-seed spread there
# exceeds any allowed bound; eval_heavy's wall_s carries evaluation speed
PRINTED_ONLY = [("eval_s", "s")]


@dataclass
class Iteration:
    """One timed ``run_benchmark`` and its report."""

    wall: float
    cpu: float
    eval_s: float
    out: dict

    @property
    def reports(self) -> list[dict]:
        return self.out["reports"]

    @property
    def train_s(self) -> float:
        return sum(r["timing"]["wall_seconds"] or 0.0 for r in self.reports)

    def items_per_s(self, n_train: int) -> float:
        epochs = sum(r["epochs"] or 0 for r in self.reports)
        return epochs * n_train / self.train_s if self.train_s else 0.0


@dataclass
class Run:
    """What a timed or traced run hands to ``main`` for checking and output."""

    metrics: dict
    units: dict  # metric name -> unit, in output order
    iterations: list
    lines: list
    prepared: object


def run_iteration(prepared, benchmark, probes) -> Iteration:
    gc.collect()
    evals: list[float] = []
    with probes.reuse_setup(prepared.splits, prepared.eval_triplets), \
            probes.stopwatch(benchmark, "evaluate_model", evals):
        c0, t0 = time.process_time(), time.perf_counter()
        out = benchmark.run_benchmark(prepared.config)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return Iteration(wall, cpu, sum(evals), out)


def quality(reports: list[dict]) -> dict[str, float]:
    """Quality metrics as means over the variants that did not fail."""
    ok = [r for r in reports if r["error"] is None]
    sub = [r for r in ok if r["variant"]["disentanglement"]]

    def mean(values):
        return statistics.fmean(values) if values else math.nan

    return {
        "r_at_1": mean([r["recall_at"]["1"] for r in ok]),
        "tag_auc": mean([r["auc"] for r in ok]),
        "triplet_acc": mean([r["triplet_accuracy"]["full/overall"] for r in ok]),
        "triplet_acc_sub": mean(
            [r["triplet_accuracy"]["sub/overall"] for r in sub]
        ),
    }


def failed_frac(reports: list[dict]) -> float:
    """Variants that raised, over variants attempted."""
    return sum(r["error"] is not None for r in reports) / len(reports)


def check(iterations: list[Iteration], variant_names, ks, strip_timing) -> list[str]:
    """Problems with the outputs; empty when they are correct."""
    problems = []
    first = strip_timing(iterations[0].out)
    for i, it in enumerate(iterations[1:], start=1):
        if strip_timing(it.out) != first:
            problems.append(f"run {i}: report differs from run 0")
    reports = iterations[0].reports
    if len(reports) != len(variant_names):
        problems.append("report does not list every variant once")
    for name, r in zip(variant_names, reports):
        if r["error"] is not None:
            continue
        values = [*r["recall_at"].values(), r["auc"],
                  *r["triplet_accuracy"].values()]
        if not all(isinstance(x, (int, float)) and math.isfinite(x)
                   and 0.0 <= x <= 1.0 for x in values):
            problems.append(f"{name}: a quality value is not finite in [0, 1]")
        recalls = [r["recall_at"][str(k)] for k in ks]
        if recalls != sorted(recalls):
            problems.append(f"{name}: R@K decreases with K")
    if all(r["error"] is not None for r in reports):
        problems.append("every variant failed")
    return problems


def environment(np, scipy) -> dict:
    """BLAS, threads, CPU, versions and source identity of this run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for fname in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, fname)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _plain(value):
    """Whole-number floats (counts) as ints; everything else unchanged."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _line(name, value, unit, note="") -> str:
    return f"  {name:<50} {value!r:>22} {unit:<10} {note}".rstrip()


def timed_run(args, deps) -> Run:
    workloads, benchmark, probes = deps
    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    setups = []
    while len(setups) < SETUP_MIN or (
            len(setups) < SETUP_MAX and sum(setups) < SETUP_SECONDS):
        gc.collect()
        t0 = time.perf_counter()
        prepared = workloads.setup(args.workload, args.seed, workdir)
        setups.append(time.perf_counter() - t0)
    iterations = []
    t0 = time.perf_counter()
    while not iterations or time.perf_counter() - t0 < args.seconds:
        iterations.append(run_iteration(prepared, benchmark, probes))
    shutil.rmtree(workdir, ignore_errors=True)

    n_train = len(prepared.splits[0])
    samples = {
        "setup_s": setups,
        "wall_s": [it.wall for it in iterations],
        "cpu_s": [it.cpu for it in iterations],
        "train_s": [it.train_s for it in iterations],
        "train_items_per_s": [it.items_per_s(n_train) for it in iterations],
        "eval_s": [it.eval_s for it in iterations],
    }
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics.update(quality(iterations[0].reports))
    lines = [f"{args.workload} seed {args.seed}: {len(setups)} set-ups, "
             f"{len(iterations)} timed runs of {len(prepared.variant_names)} "
             f"variants ({', '.join(prepared.variant_names)}), "
             f"{n_train} training items"]
    for name, unit in END_TO_END + PRINTED_ONLY:
        note = ""
        if name in samples:
            note = (f"median of {len(samples[name])}: "
                    + " ".join(f"{x:.4g}" for x in samples[name]))
        lines.append(_line(name, metrics[name], unit, note))
    return Run(metrics, dict(END_TO_END), iterations, lines, prepared)


def traced_run(args, deps) -> Run:
    workloads, benchmark, probes = deps
    from disembed.trainer import paper_variants
    from spans import Tracer

    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    tracer = Tracer(args.workload)
    with probes.traced(tracer):
        prepared = workloads.setup(args.workload, args.seed, workdir)
    before = run_iteration(prepared, benchmark, probes)
    with probes.traced(tracer):
        traced = run_iteration(prepared, benchmark, probes)
    after = run_iteration(prepared, benchmark, probes)
    shutil.rmtree(workdir, ignore_errors=True)

    untraced_wall = (before.wall + after.wall) / 2
    overhead = traced.wall / untraced_wall - 1
    metrics = probes.layer_metrics(tracer, overhead)
    all_variants = [v.name for v in paper_variants()]
    per_variant, tails = probes.variant_metrics(tracer, all_variants)
    metrics.update(per_variant)
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(trace_path)

    units = {name: unit for name, unit, _ in probes.LAYER_METRICS}
    units.update({f"{name}.{probes.metric_suffix(v)}": unit
                  for name, unit, _ in probes.PER_VARIANT_METRICS
                  for v in all_variants})
    root = next(s for s in tracer.spans if s.name == "benchmark.run")
    layers = probes.self_by_layer(tracer, "benchmark.run")
    lines = [
        f"{args.workload} seed {args.seed}: traced run, spans in {trace_path}",
        f"  untraced wall {before.wall:.4f} s and {after.wall:.4f} s, "
        f"traced wall {traced.wall:.4f} s "
        f"(overhead {100 * overhead:.2f}%), benchmark.run span "
        f"{root.seconds:.4f} s = sum of layer self times "
        f"{sum(layers.values()):.4f} s:",
        "  " + ", ".join(f"{k} {v:.4f} s ({100 * v / root.seconds:.1f}%)"
                         for k, v in sorted(layers.items(), key=lambda kv: -kv[1])),
    ]
    notes = {f"trainer.step_ms_p98.{probes.metric_suffix(v)}": f"p{p} of {n} steps"
             for v, (p, n) in tails.items()}
    for name in units:
        lines.append(_line(name, _plain(metrics[name]), units[name],
                           notes.get(name, "")))
    return Run(metrics, units, [before, traced, after], lines, prepared)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "disembed", "__init__.py")):
        print(f"error: no disembed package under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread for this process only; numpy reads it when first imported
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, SRC)
    import numpy as np
    import scipy

    import probes
    import workloads
    from disembed import benchmark
    from disembed.evaluation import strip_timing

    deps = (workloads, benchmark, probes)
    print("environment " + json.dumps(environment(np, scipy), sort_keys=True))
    run = traced_run(args, deps) if args.trace else timed_run(args, deps)
    reports = [r for it in run.iterations for r in it.reports]
    failed = sum(r["error"] is not None for r in reports)
    run.lines.append(_line("failed_frac", failed_frac(reports), "frac",
                           f"{failed} of {len(reports)} variant runs raised"))
    problems = check(run.iterations, run.prepared.variant_names,
                     run.prepared.config.eval_ks, strip_timing)
    run.lines.append(
        "correctness: " + ("ok" if not problems else "; ".join(problems)))
    print("\n".join(run.lines))

    def value(name):
        v = _plain(run.metrics[name])
        return None if isinstance(v, float) and not math.isfinite(v) else v

    result = {
        "correct": not problems,
        "attempted": len(reports),
        "failed": failed,
        "metrics": {name: {"value": value(name), "unit": unit}
                    for name, unit in run.units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
