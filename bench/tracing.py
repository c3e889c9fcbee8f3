"""Spans around ``ctrlab``'s layer entry points, kept by the benchmark.

``traced(tracer)`` swaps each entry point in ``TARGETS`` for a wrapper that
records a span (name, start, end, parent) and restores every original
attribute on exit, so untraced timings never pass through a wrapper. Each
name is patched where its caller looks it up: ``train.py`` binds
``sdsp_round``, ``distance_round`` and ``load_dataset`` into its own
namespace, so those are patched on ``ctrlab.train``.

Spans stay in memory; ``write_spans`` stores them once the run has ended.
``layer_metrics`` turns a span list into the per-layer metrics, where a
span's self time is its duration minus the durations of its direct
children (spans nest strictly because the program is single-threaded).
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from ctrlab import data, metrics, nn, train
from ctrlab.backbone import Backbone
from ctrlab.errors import LabError
from ctrlab.prototype import ProtoCoder


def _batch_rows(args, result):
    return sum(len(labels) for _, labels in result)


def _feature_rows(args, result):
    return len(args[1])


def _score_rows(args, result):
    return len(args[0])


def _is_expert(args, result):
    return int(args[0].name.startswith("expert."))


# (owner, attribute, span name, note): ``note(args, result)`` gives the
# span's integer annotation (rows handled, or 1 for an expert network).
TARGETS = [
    (data.QuotaSampler, "next_batch", "data.sampler", _batch_rows),
    (train, "load_dataset", "data.load", None),
    (data, "split", "data.split", None),
    (Backbone, "forward_domain", "backbone.forward", _feature_rows),
    (Backbone, "backward_domain", "backbone.backward", None),
    (Backbone, "embed", "backbone.embed", None),
    (Backbone, "predict", "backbone.predict", None),
    (nn.Mlp, "forward", "nn.mlp_forward", _is_expert),
    (nn.Mlp, "backward", "nn.mlp_backward", None),
    (nn, "sgd_step", "nn.sgd", None),
    (nn, "bce_loss", "nn.bce", None),
    (ProtoCoder, "reconstruction", "prototype.reconstruction", None),
    (ProtoCoder, "backward", "prototype.backward", None),
    (train, "distance_round", "prototype.distance_round", None),
    (train, "sdsp_round", "selection.round", None),
    (metrics, "auc", "metrics.auc", _score_rows),
    (metrics, "logloss", "metrics.logloss", None),
    (train, "evaluate_partition", "train.evaluate_partition", None),
    (train, "measure_distances", "train.measure_distances", None),
]

LAYERS = ("data", "backbone", "nn", "prototype", "selection", "metrics",
          "train")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    note: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.errors: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around the body; yields its Span."""
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        except LabError:
            self.errors[name.split(".", 1)[0]] += 1
            raise
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, note):
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if note is not None:
                    record.note = note(args, result)
                return result
        wrapper.__wrapped__ = fn
        return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Patch every target with a span-recording wrapper; always restore."""
    saved = []
    try:
        for owner, attr, name, note in TARGETS:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, note))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list) -> list:
    """Per span: its duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans: list, errors: Counter, num_experts: int,
                  trace: list) -> dict:
    """Per-layer metrics from one traced training run.

    ``trace`` is the run's selection trace; ``num_experts`` the size of the
    expert bank, the base of ``backbone.active_expert_share``.
    """
    own = self_times(spans)
    calls, total, self_s, notes = Counter(), Counter(), Counter(), Counter()
    for s, own_s in zip(spans, own):
        calls[s.name] += 1
        total[s.name] += s.duration
        self_s[s.name] += own_s
        notes[s.name] += s.note
    reward_s = distance_s = 0.0
    for s in spans:
        if s.parent is None or spans[s.parent].name != "selection.round":
            continue
        if s.name in ("backbone.predict", "metrics.auc", "metrics.logloss"):
            reward_s += s.duration
        elif s.name in ("backbone.forward", "prototype.distance_round"):
            distance_s += s.duration
    forwards = calls["backbone.forward"]
    experts = notes["nn.mlp_forward"]
    decisions = [(len(c), e) for line in trace
                 for c, e in zip(line["chosen_subsets"], line["explored"])]
    out = {
        "data.load_s": total["data.load"],
        "data.split_s": total["data.split"],
        "data.sampler.calls": calls["data.sampler"],
        "data.sampler.rows": notes["data.sampler"],
        "data.sampler.self_s": self_s["data.sampler"],
        "backbone.forward.calls": forwards,
        "backbone.forward.rows": notes["backbone.forward"],
        "backbone.forward.self_s": self_s["backbone.forward"],
        "backbone.embed.self_s": self_s["backbone.embed"],
        "backbone.backward.calls": calls["backbone.backward"],
        "backbone.backward.self_s": self_s["backbone.backward"],
        "backbone.predict.calls": calls["backbone.predict"],
        "backbone.experts_evaluated": experts,
        "backbone.active_expert_share":
            experts / (forwards * num_experts) if forwards else 0.0,
        "nn.mlp_forward.calls": calls["nn.mlp_forward"],
        "nn.mlp_forward.self_s": self_s["nn.mlp_forward"],
        "nn.mlp_backward.calls": calls["nn.mlp_backward"],
        "nn.mlp_backward.self_s": self_s["nn.mlp_backward"],
        "nn.sgd.self_s": self_s["nn.sgd"],
        "nn.bce.self_s": self_s["nn.bce"],
        "prototype.reconstruction.self_s": self_s["prototype.reconstruction"],
        "prototype.backward.self_s": self_s["prototype.backward"],
        "prototype.distance_round.calls": calls["prototype.distance_round"],
        "prototype.distance_round.self_s": self_s["prototype.distance_round"],
        "selection.round.calls": calls["selection.round"],
        "selection.round.total_s": total["selection.round"],
        "selection.round.self_s": self_s["selection.round"],
        "selection.reward_s": reward_s,
        "selection.distance_s": distance_s,
        "selection.explored_share":
            sum(e for _, e in decisions) / len(decisions) if decisions else 0.0,
        "selection.mean_subset_size":
            sum(n for n, _ in decisions) / len(decisions) if decisions else 0.0,
        "metrics.auc.calls": calls["metrics.auc"],
        "metrics.auc.rows": notes["metrics.auc"],
        "metrics.auc.self_s": self_s["metrics.auc"],
        "metrics.logloss.self_s": self_s["metrics.logloss"],
        "train.evaluate_partition.calls": calls["train.evaluate_partition"],
        "train.evaluate_partition.total_s": total["train.evaluate_partition"],
        "train.measure_distances.total_s": total["train.measure_distances"],
        "train.self_s": self_s["train"],
    }
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors[layer]
    return out


def write_spans(spans: list, path: str) -> None:
    """One JSON object per span, times in seconds from the first span."""
    origin = spans[0].start if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "name": s.name, "parent": s.parent,
                "start": s.start - origin, "end": s.end - origin,
                "note": s.note}) + "\n")
