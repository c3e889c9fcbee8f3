"""Span arithmetic and attribute restoration of the benchmark's tracer."""

from collections import Counter

import pytest

import tracing
import workloads
from ctrlab import train
from ctrlab.errors import MetricError
from tracing import Span


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("train", 0.0, 10.0, None),
        Span("selection.round", 1.0, 4.0, 0),
        Span("metrics.auc", 2.0, 3.0, 1),
        Span("nn.sgd", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_split_the_selection_round():
    spans = [
        Span("train", 0.0, 20.0, None),
        Span("selection.round", 1.0, 11.0, 0),
        Span("data.sampler", 1.0, 2.0, 1, note=8),
        Span("backbone.forward", 2.0, 3.0, 1, note=4),
        Span("nn.mlp_forward", 2.0, 2.5, 3, note=1),
        Span("prototype.distance_round", 3.0, 4.0, 1),
        Span("backbone.predict", 4.0, 6.0, 1),
        Span("backbone.forward", 4.0, 6.0, 6, note=10),
        Span("metrics.auc", 6.0, 9.0, 1, note=10),
        Span("backbone.forward", 12.0, 13.0, 0, note=4),
    ]
    trace = [{"chosen_subsets": [[0], [0, 1]], "explored": [True, False]}]
    got = tracing.layer_metrics(spans, Counter(metrics=2), 2, trace)
    assert got["selection.round.calls"] == 1
    assert got["selection.round.total_s"] == 10.0
    assert got["selection.round.self_s"] == 2.0
    assert got["selection.reward_s"] == 5.0
    assert got["selection.distance_s"] == 2.0
    assert got["backbone.forward.calls"] == 3
    assert got["backbone.forward.rows"] == 18
    assert got["backbone.experts_evaluated"] == 1
    assert got["backbone.active_expert_share"] == 1 / 6
    assert got["data.sampler.rows"] == 8
    assert got["metrics.auc.rows"] == 10
    assert got["train.self_s"] == 20.0 - 10.0 - 1.0
    assert got["selection.explored_share"] == 0.5
    assert got["selection.mean_subset_size"] == 1.5
    assert got["metrics.errors"] == 2 and got["train.errors"] == 0


def test_wrapper_counts_errors_raised_through_each_boundary():
    tracer = tracing.Tracer()

    def inner():
        raise MetricError("single-class labels")

    outer = tracer.wrap("train.evaluate_partition",
                        tracer.wrap("metrics.auc", inner, None), None)
    with pytest.raises(MetricError):
        outer()
    assert tracer.errors == Counter(metrics=1, train=1)
    assert [s.parent for s in tracer.spans] == [None, 0]


def _originals():
    return {(id(owner), attr): vars(owner)[attr]
            for owner, attr, _, _ in tracing.TARGETS}


def test_traced_run_restores_every_attribute(tmp_path):
    config = workloads.build("sdsp-blocks8-csv", 3, str(tmp_path),
                             scale=0.02)
    before = _originals()
    tracer = tracing.Tracer()
    with tracing.traced(tracer), tracer.span("train"):
        train.train(config.replace(epochs=1))
    assert _originals() == before
    assert all(not hasattr(v, "__wrapped__") for v in before.values())
    recorded = len(tracer.spans)
    assert {s.name for s in tracer.spans} >= {
        name for _, _, name, _ in tracing.TARGETS}
    train.train(config.replace(epochs=1))
    assert len(tracer.spans) == recorded


def test_restores_when_the_body_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            raise RuntimeError("boom")
    assert _originals() == before
