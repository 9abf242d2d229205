"""Tests of the benchmark's own helpers.

    python3 -m pytest bench/test_bench.py
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from spans import (  # noqa: E402
    Span,
    Tracer,
    metric_suffix,
    outermost,
    self_seconds,
    tail_percentile,
    union_seconds,
)


def test_union_merges_overlaps_and_gaps():
    assert union_seconds([]) == 0.0
    assert union_seconds([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_seconds([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a by 1 s
        Span("c", 9.0, 12.0, parent=0),  # outlives the parent: clipped to 1 s
        Span("a.child", 1.5, 2.0, parent=1),
    ]
    selfs = self_seconds(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)


def test_self_times_partition_a_properly_nested_tree():
    clock = iter(range(100)).__next__
    tracer = Tracer("w", clock=clock)
    root = tracer.open("root")
    for _ in range(3):
        sid = tracer.open("child")
        tracer.close(tracer.open("grandchild"))
        tracer.close(sid)
    tracer.close(root)
    assert sum(self_seconds(tracer.spans)) == tracer.spans[root].seconds


def test_close_unwinds_spans_left_open_by_an_exception():
    clock = iter(range(100)).__next__
    tracer = Tracer("w", clock=clock)
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(outer)
    assert tracer.stack == []
    assert tracer.spans[inner].end == tracer.spans[outer].end
    assert tracer.spans[inner].parent == outer
    with pytest.raises(ValueError):
        tracer.close(inner)


def test_outermost_skips_nested_spans_of_the_same_name():
    spans = [
        Span("model.forward", 0, 4),
        Span("model.forward", 1, 3, parent=0),
        Span("model.score", 5, 9),
        Span("model.forward", 6, 8, parent=2),
    ]
    assert [s.start for s in outermost(spans, "model.forward")] == [0, 6]


def test_tail_percentile_leaves_at_least_ten_samples_beyond():
    assert tail_percentile(750) == 98  # 15 beyond; p99 would leave 7.5
    assert tail_percentile(1000) == 99
    assert tail_percentile(58) == 84
    assert tail_percentile(10) is None
    for n in (11, 12, 20, 58, 99, 100, 101, 750, 1000, 3750):
        p = tail_percentile(n)
        xs = list(range(n))
        assert sum(x > np.percentile(xs, p) for x in xs) >= 10
        if p < 99:
            assert sum(x > np.percentile(xs, p + 1) for x in xs) < 10


def test_variant_names_become_metric_names():
    assert metric_suffix("triplet+norm+disent+trackreg") == (
        "triplet-norm-disent-trackreg")
    assert metric_suffix("classification") == "classification"


def _report(disent, error=None, r1=0.5):
    return {
        "variant": {"family": "proxy", "disentanglement": disent},
        "recall_at": {"1": r1, "2": 0.75},
        "auc": 0.8,
        "triplet_accuracy": {"full/overall": 0.6,
                             **({"sub/overall": 0.7} if disent else {})},
        "epochs": 2,
        "error": error,
        "timing": {"wall_seconds": 1.0, "training_time_ratio": 1.0},
    }


def test_failed_frac_counts_the_variant_that_raised():
    reports = [_report(False), _report(True, error="diverged"), _report(True)]
    assert run.failed_frac(reports) == pytest.approx(1 / 3)
    q = run.quality(reports)
    assert q["r_at_1"] == 0.5 and q["triplet_acc_sub"] == 0.7


def _strip(d):
    return {**d, "reports": [{k: v for k, v in r.items() if k != "timing"}
                             for r in d["reports"]]}


def _iteration(report):
    return run.Iteration(1.0, 1.0, 0.1, {"reports": [report]})


def test_check_flags_nondeterminism_and_out_of_range_values():
    def problems(*reports):
        return run.check([_iteration(r) for r in reports], ["a"], (1, 2), _strip)

    assert problems(_report(False), _report(False)) == []
    assert problems(_report(False), _report(False, r1=0.4)) == [
        "run 1: report differs from run 0"]
    assert "not finite" in problems(_report(False, r1=math.nan))[0]
    assert "decreases" in problems(_report(False, r1=0.9))[0]
    assert problems(_report(False, "x")) == ["every variant failed"]


def test_probes_trace_a_tiny_run_and_restore_every_name():
    import probes
    from disembed import autodiff, benchmark, model, trainer
    from disembed.config import default_config
    from disembed.trainer import paper_variants

    config = default_config(seed=1, max_epochs=1)
    config.synthetic.tracks = 40
    config.triplets_per_notion = 20
    names = [getattr(benchmark, n) for n in ("train", "evaluate_model")]
    before = (trainer.batch_iterator, autodiff.grad, autodiff.Adam.step,
              model.EmbeddingNet.full_embedding, model.score_blocks, *names)
    tracer = Tracer("tiny")
    with probes.traced(tracer):
        out = benchmark.run_benchmark(config)
    after = (trainer.batch_iterator, autodiff.grad, autodiff.Adam.step,
             model.EmbeddingNet.full_embedding, model.score_blocks,
             *[getattr(benchmark, n) for n in ("train", "evaluate_model")])
    assert before == after
    assert all(r["error"] is None for r in out["reports"])
    assert tracer.stack == [] and all(s.end is not None for s in tracer.spans)

    metrics = probes.layer_metrics(tracer, 0.0)
    assert [m for m, _, _ in probes.LAYER_METRICS] == list(metrics)
    steps = sum(1 for s in tracer.spans if s.name == "trainer.step")
    assert metrics["autodiff.steps"] == steps > 0
    assert 0 < metrics["sampling.unique_row_frac"] <= 1
    variants = [v.name for v in paper_variants()]
    per_variant, tails = probes.variant_metrics(tracer, variants)
    assert all(per_variant[f"trainer.epochs.{metric_suffix(v)}"] == 1
               for v in variants)
    roots = [s for s in tracer.spans if s.parent < 0]
    assert [s.name for s in roots] == ["benchmark.run"]
    assert sum(probes.self_by_layer(tracer, "benchmark.run").values()) == pytest.approx(
        roots[0].seconds)


def test_benchmark_json_lists_every_metric_the_run_emits():
    import probes
    from disembed.trainer import paper_variants
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]] and len(w["why"]) <= 200
               for w in spec["workloads"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    per_layer = [(n, u, b) for n, u, b in probes.LAYER_METRICS] + [
        (f"{n}.{metric_suffix(v.name)}", u, b)
        for n, u, b in probes.PER_VARIANT_METRICS for v in paper_variants()]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == per_layer
