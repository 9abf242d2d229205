"""Probes that time calls into disembed from outside the package.

Each probe replaces a name where its caller looks it up (a module global or a
class attribute) and restores it on exit, so nothing under ``src/`` changes.
``traced`` installs every layer probe; ``reuse_setup`` and ``stopwatch`` are
the two light probes the untraced run needs.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

from disembed import autodiff, benchmark, data, model, trainer

from spans import Tracer, metric_suffix, outermost, self_seconds, tail_percentile


@contextmanager
def patched(install):
    """Call ``install(patch)``, where ``patch(owner, attr, value)`` replaces an
    attribute, and restore every replaced attribute when the block exits."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        install(patch)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def reuse_setup(splits, eval_triplets):
    """Make ``run_benchmark`` use splits and evaluation triplets already built,
    so a timed iteration covers only training and evaluation."""

    def install(patch):
        patch(benchmark, "load_or_generate", lambda config: splits)
        patch(benchmark, "sample_eval_triplets", lambda *a, **k: eval_triplets)

    return patched(install)


def stopwatch(owner, attr, seconds: list):
    """Append the duration of every call of ``owner.attr`` to ``seconds``."""
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds.append(time.perf_counter() - t0)

    return patched(lambda patch: patch(owner, attr, wrapper))


def _rows(x) -> int:
    return int(np.shape(getattr(x, "values", x))[0])


def traced(tracer: Tracer):
    """Record a span around every public call the benchmark path makes."""
    return patched(lambda patch: _install(tracer, patch))


def _install(tracer: Tracer, patch) -> None:
    def span(name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    def wrap(owner, attr, name, after=None):
        patch(owner, attr, span(name, getattr(owner, attr), after))

    # data
    def count_items(parts, *a, **k):
        tracer.count("data.items", sum(len(ds) for ds in parts))

    for owner in (data, benchmark):
        wrap(owner, "generate_splits", "data.generate", count_items)
    wrap(data, "save_dataset", "data.save")
    wrap(benchmark, "load_dataset", "data.load",
         lambda ds, *a, **k: tracer.count("data.items", len(ds)))

    # sampling
    wrap(benchmark, "sample_eval_triplets", "sampling.eval_triplets")
    patch(trainer, "batch_iterator", _batches(tracer, trainer.batch_iterator))

    # model: graph forwards count rows once per outermost call; head_blocks
    # continues a forward whose rows backbone already counted
    def forward(fn, counts_rows):
        @functools.wraps(fn)
        def wrapper(net, x):
            outer = not tracer.inside("model.forward")
            sid = tracer.open("model.forward")
            try:
                return fn(net, x)
            finally:
                tracer.close(sid)
                if outer and counts_rows:
                    tracer.count("model.forward_rows", _rows(x))

        return wrapper

    for attr, counts_rows in (
        ("full_embedding", True), ("backbone", True), ("head_blocks", False)
    ):
        patch(model.EmbeddingNet, attr,
              forward(getattr(model.EmbeddingNet, attr), counts_rows))
    for owner in (trainer, model):
        wrap(owner, "score_blocks", "model.score")
    for attr in ("embed", "class_scores"):
        wrap(benchmark, attr, "model.embed")

    # losses
    wrap(trainer, "triplet_batch_loss", "losses.triplet")
    wrap(trainer, "bce_sum", "losses.bce")

    # autodiff; a trainer step ends with its optimizer update
    wrap(autodiff, "grad", "autodiff.backward")
    sized = set()
    adam_step = autodiff.Adam.step

    @functools.wraps(adam_step)
    def step(adam, grads):
        sid = tracer.open("autodiff.adam")
        try:
            adam_step(adam, grads)
        finally:
            tracer.close(sid)
        if tracer.variant not in sized:
            sized.add(tracer.variant)
            tracer.count(
                "autodiff.params", sum(q.values.size for q in adam.params.values())
            )
        top = tracer.top()
        if top is not None and top.name == "trainer.step":
            tracer.close(tracer.stack[-1])

    patch(autodiff.Adam, "step", step)

    # trainer
    def per_variant(name, fn, variant_of, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            variant = variant_of(*args).name
            prev, tracer.variant = tracer.variant, variant
            sid = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
                tracer.variant = prev
            if after is not None:
                after(out, variant)
            return out

        return wrapper

    patch(benchmark, "train", per_variant(
        "trainer.train", benchmark.train, lambda v, *a: v,
        lambda result, v: tracer.count(f"trainer.epochs.{v}", result.epochs)))
    wrap(trainer, "validation_loss", "trainer.validate")

    # evaluation
    wrap(benchmark, "retrieval_recall", "evaluation.recall",
         lambda out, E, *a, **k: tracer.count("evaluation.recall_bytes",
                                              16 * len(E) ** 2))
    wrap(benchmark, "triplet_accuracy", "evaluation.triplet_acc",
         lambda out, E, triplets, *a, **k: tracer.count(
             "evaluation.triplets_scored", len(triplets)))
    wrap(benchmark, "auc_tags", "evaluation.auc")
    wrap(benchmark, "build_prototypes", "evaluation.prototypes")

    # benchmark
    patch(benchmark, "evaluate_model",
          per_variant("benchmark.evaluate", benchmark.evaluate_model,
                      lambda m, *a: m.variant))
    wrap(benchmark, "run_benchmark", "benchmark.run")


def _batches(tracer: Tracer, batch_iterator):
    """Wrap the trainer's batch iterator: each ``next`` is batch wait inside a
    new ``trainer.step`` span, which the step's optimizer update closes."""

    @functools.wraps(batch_iterator)
    def wrapper(*args, **kwargs):
        mode = kwargs["mode"] if "mode" in kwargs else args[2]
        wait = "sampling.triplet_wait" if mode == "triplet" else "sampling.sample_wait"
        it = batch_iterator(*args, **kwargs)
        while True:
            step = tracer.open("trainer.step")
            sid = tracer.open(wait)
            try:
                batch = next(it)
            except StopIteration:
                tracer.spans[step].name = "trainer.epoch_end"
                tracer.close(step)
                return
            tracer.close(sid)
            if mode == "triplet":
                triplets = [t for part in batch if part is not None for t in part]
                rows = {i for t in triplets for i in (t.anchor, t.positive, t.negative)}
                tracer.count("sampling.triplets", len(triplets))
                tracer.count("sampling.rows_embedded", 3 * len(triplets))
                tracer.count("sampling.rows_distinct", len(rows))
            yield batch

    return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics from one traced iteration

LAYER_METRICS = [
    ("data.generate_s", "s", "lower"),
    ("data.save_s", "s", "lower"),
    ("data.load_s", "s", "lower"),
    ("data.items", "count", "higher"),
    ("sampling.batch_wait_s", "s", "lower"),
    ("sampling.triplets", "count", "higher"),
    ("sampling.us_per_triplet", "us", "lower"),
    ("sampling.unique_row_frac", "frac", "higher"),
    ("sampling.eval_triplets_s", "s", "lower"),
    ("model.forward_s", "s", "lower"),
    ("model.forward_rows", "count", "lower"),
    ("model.score_s", "s", "lower"),
    ("model.embed_s", "s", "lower"),
    ("losses.triplet_s", "s", "lower"),
    ("losses.bce_s", "s", "lower"),
    ("losses.bce_calls_per_step", "calls/step", "lower"),
    ("autodiff.backward_s", "s", "lower"),
    ("autodiff.backward_ms_p50", "ms", "lower"),
    ("autodiff.adam_s", "s", "lower"),
    ("autodiff.adam_ms_p50", "ms", "lower"),
    ("autodiff.steps", "count", "higher"),
    ("autodiff.params", "count", "lower"),
    ("trainer.validate_s", "s", "lower"),
    ("trainer.self_s", "s", "lower"),
    ("evaluation.recall_s", "s", "lower"),
    ("evaluation.recall_bytes", "bytes", "lower"),
    ("evaluation.triplet_acc_s", "s", "lower"),
    ("evaluation.triplets_scored", "count", "higher"),
    ("evaluation.us_per_triplet", "us", "lower"),
    ("evaluation.auc_s", "s", "lower"),
    ("evaluation.prototypes_s", "s", "lower"),
    ("benchmark.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]

PER_VARIANT_METRICS = [
    ("trainer.train_s", "s", "lower"),
    ("trainer.epochs", "count", "higher"),
    ("trainer.step_ms_p50", "ms", "lower"),
    ("trainer.step_ms_p98", "ms", "lower"),
    ("benchmark.evaluate_s", "s", "lower"),
]

# spans whose self time is the trainer's or the benchmark module's own work
TRAINER_SPANS = ("trainer.train", "trainer.step", "trainer.epoch_end")
BENCHMARK_SPANS = ("benchmark.run", "benchmark.evaluate")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, float]:
    """Every LAYER_METRICS value from the spans and counts of one run."""
    spans, counts = tracer.spans, tracer.counts

    def total(name):
        return sum(s.seconds for s in outermost(spans, name))

    def p50_ms(name):
        durs = [s.seconds for s in spans if s.name == name]
        return 1e3 * float(np.median(durs)) if durs else 0.0

    selfs = self_seconds(spans)

    def self_of(names):
        return sum(t for s, t in zip(spans, selfs) if s.name in names)

    triplet_wait = total("sampling.triplet_wait")
    # BCE calls made by training steps, per step that made any
    bce_by_step = {}
    for s in spans:
        if (s.name == "losses.bce" and s.parent >= 0
                and spans[s.parent].name == "trainer.step"):
            bce_by_step[s.parent] = bce_by_step.get(s.parent, 0) + 1
    calls, steps = sum(bce_by_step.values()), len(bce_by_step)
    triplet_acc_s = total("evaluation.triplet_acc")
    return {
        "data.generate_s": total("data.generate"),
        "data.save_s": total("data.save"),
        "data.load_s": total("data.load"),
        "data.items": counts["data.items"],
        "sampling.batch_wait_s": triplet_wait + total("sampling.sample_wait"),
        "sampling.triplets": counts["sampling.triplets"],
        "sampling.us_per_triplet": 1e6 * _ratio(triplet_wait,
                                                counts["sampling.triplets"]),
        "sampling.unique_row_frac": _ratio(counts["sampling.rows_distinct"],
                                           counts["sampling.rows_embedded"]),
        "sampling.eval_triplets_s": total("sampling.eval_triplets"),
        "model.forward_s": total("model.forward"),
        "model.forward_rows": counts["model.forward_rows"],
        "model.score_s": total("model.score"),
        "model.embed_s": total("model.embed"),
        "losses.triplet_s": total("losses.triplet"),
        "losses.bce_s": total("losses.bce"),
        "losses.bce_calls_per_step": _ratio(calls, steps),
        "autodiff.backward_s": total("autodiff.backward"),
        "autodiff.backward_ms_p50": p50_ms("autodiff.backward"),
        "autodiff.adam_s": total("autodiff.adam"),
        "autodiff.adam_ms_p50": p50_ms("autodiff.adam"),
        "autodiff.steps": sum(1 for s in spans if s.name == "autodiff.adam"),
        "autodiff.params": counts["autodiff.params"],
        "trainer.validate_s": total("trainer.validate"),
        "trainer.self_s": self_of(TRAINER_SPANS),
        "evaluation.recall_s": total("evaluation.recall"),
        "evaluation.recall_bytes": counts["evaluation.recall_bytes"],
        "evaluation.triplet_acc_s": triplet_acc_s,
        "evaluation.triplets_scored": counts["evaluation.triplets_scored"],
        "evaluation.us_per_triplet": 1e6 * _ratio(
            triplet_acc_s, counts["evaluation.triplets_scored"]),
        "evaluation.auc_s": total("evaluation.auc"),
        "evaluation.prototypes_s": total("evaluation.prototypes"),
        "benchmark.self_s": self_of(BENCHMARK_SPANS),
        "trace.overhead_frac": overhead_frac,
    }


def variant_metrics(tracer: Tracer, variant_names) -> tuple[dict, dict]:
    """PER_VARIANT_METRICS for each variant name, zero where it did not run.

    Also returns, per variant, the percentile and step count behind its tail
    metric: the highest percentile with TAIL_SAMPLES steps beyond it, capped
    at 98 (the default config's 750 steps give exactly 98).
    """
    out, tails = {}, {}
    for v in variant_names:
        suffix = metric_suffix(v)
        steps = [1e3 * s.seconds for s in tracer.spans
                 if s.name == "trainer.step" and s.variant == v]
        tail = tail_percentile(len(steps))
        if tail is not None:
            tail = min(tail, 98)
            tails[v] = (tail, len(steps))

        def total(name):
            return sum(s.seconds for s in tracer.spans
                       if s.name == name and s.variant == v)

        out[f"trainer.train_s.{suffix}"] = total("trainer.train")
        out[f"trainer.epochs.{suffix}"] = tracer.counts[f"trainer.epochs.{v}"]
        out[f"trainer.step_ms_p50.{suffix}"] = (
            float(np.median(steps)) if steps else 0.0)
        out[f"trainer.step_ms_p98.{suffix}"] = (
            float(np.percentile(steps, tail)) if tail is not None
            else max(steps, default=0.0))
        out[f"benchmark.evaluate_s.{suffix}"] = total("benchmark.evaluate")
    return out, tails


def self_by_layer(tracer: Tracer, root: str) -> dict[str, float]:
    """Self time per layer (a span name's prefix) under root spans ``root``.

    The self times of a properly nested tree add up to its root span.
    """
    spans = tracer.spans
    top: list[int] = []
    for i, s in enumerate(spans):  # a parent precedes its children
        top.append(i if s.parent < 0 else top[s.parent])
    out: dict[str, float] = {}
    for s, t, r in zip(spans, self_seconds(spans), top):
        if spans[r].name == root:
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
    return out
