"""Benchmark of ``ctrlab`` training, measured from outside the package.

Usage, from the repository root:

    python3 bench/run.py --workload sdsp-chain4 --seed 1 --seconds 36 --trace 0

Each invocation derives ``workloads.JOBS`` job seeds from ``--seed``; each
job seed is the ``RunConfig.seed`` and the synthetic-data seed of one
training job. ``--trace 0`` times untraced public calls on every job in
CPU seconds, rescales them to a reference speed with ``speed.Sampler``
(the host is shared and its speed drifts), and prints the end-to-end
metrics; ``--trace 1`` runs the first job under the
span wrappers of ``tracing.py`` and prints the per-layer metrics, the
tracing overhead and the kernel timings. ``--workload all`` runs every
workload, each in its own process. The last stdout line is the result
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it is the full record (environment, decision digest per job seed, raw
samples), which is also appended to ``.bench_out/results.jsonl``. A traced
run writes its spans to ``.bench_out/spans-<workload>-seed<seed>.jsonl``.

Correctness gate: within one invocation every repeat of a job, and the
traced run of a ``--trace 1`` invocation, must give the same report apart
from ``timing`` and the same selection trace (the determinism contract of
``ctrlab.train``); the test AUC must beat chance; the number of selection
rounds must match the mode; and every evaluation call must reproduce the
report's ``val``/``test`` sections exactly. Each violation, like each
exception, counts as a failed operation.
"""

import os

# One BLAS thread, set before numpy loads: each workload is a closed loop
# of one single-threaded process, and multi-threaded BLAS on a small
# machine made wall times swing by a third between identical runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUPS_PER_ROUND = 3
SAMPLE_INTERVAL_S = 0.03
EVALS_PER_ROUND = 30


class Ops:
    """Attempted and failed operations (training runs and eval calls)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what: str, fn):
        """Call fn(); an exception counts as a failure and yields None."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failed += 1
            print(f"{what} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, what: str, problems: list) -> None:
        """Count the last operation as failed if any check failed."""
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"{what}: {problem}", file=sys.stderr)


def decision_digest(result) -> str:
    """Hash of the report minus ``timing`` plus the selection trace."""
    report = {k: v for k, v in result.report.items() if k != "timing"}
    blob = json.dumps([report, result.trace], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_problems(result, digest: str, reference: str) -> list:
    report, cfg = result.report, result.config
    problems = []
    if digest != reference:
        problems.append("report or selection trace differs from the first run")
    if not report["test"]["overall_auc"] > 0.5:
        problems.append(f"test AUC {report['test']['overall_auc']} is not "
                        "above chance")
    iterations = report["epochs_run"] * report["steps_per_epoch"]
    rounds = (math.ceil(iterations / cfg.selection_interval)
              if cfg.mode == "sdsp" else 0)
    if report["selection"]["rounds"] != rounds:
        problems.append(f"{report['selection']['rounds']} selection rounds, "
                        f"expected {rounds}")
    return problems


def timed_train(ops: Ops, config, reference=None, sampler=None):
    """One training run, checked against the reference digest (its own when
    None); returns (CPU seconds, wall seconds, result, digest), or None if
    it raised. CPU seconds leave out the steps of ``sampler``, if any."""
    import speed
    from ctrlab import train

    start = time.perf_counter()
    result, cpu = speed.cpu_seconds(
        lambda: ops.run("train", lambda: train.train(config)), sampler)
    wall = time.perf_counter() - start
    if result is None:
        return None
    digest = decision_digest(result)
    ops.check("train", run_problems(result, digest, reference or digest))
    return cpu, wall, result, digest


def set_up(config) -> None:
    """Config to a model ready to train, through the public calls."""
    import numpy as np
    from ctrlab import data
    from ctrlab.backbone import Backbone
    from ctrlab.config import load_dataset
    from ctrlab.prototype import ProtoCoder

    dataset = data.split(load_dataset(config), config.split_fractions,
                         seed=config.seed)
    rng = np.random.default_rng(config.seed)
    Backbone(dataset.schema.vocab_sizes, config.embedding_dim,
             config.expert_counts, config.expert_hidden, config.repr_dim,
             config.tower_hidden, rng)
    for d in range(config.domains):
        ProtoCoder(d, config.quotas[d], config.num_prototypes, rng)


def measure_end_to_end(configs: list, seconds: float, ops: Ops):
    """End-to-end metrics over the workload's jobs, one config per job
    seed; returns (metrics, raw samples, digest per job seed).

    After an untimed warm-up, each round takes the next job in turn: it
    sets up SETUPS_PER_ROUND times, trains once and evaluates
    EVALS_PER_ROUND times. Every job runs at least once; after that,
    rounds continue while another is expected to end within ``seconds``.

    The sdsp jobs do different amounts of work, because each seed's
    exploration picks subsets of different sizes (43 +- 6 thousand layer
    calls per sdsp-chain4 run across seeds), and evaluation uses the
    final subsets. So ``run_s``, ``eval_rows_per_s`` and ``test_auc`` are
    means over the jobs, which shrinks the part of their spread across
    ``--seed`` values that comes from the seed rather than from the
    program by a factor of sqrt(JOBS). A job's ``run_s`` and
    ``eval_rows_per_s`` are medians over its rounds, a round's rate being
    rows over CPU seconds summed over its calls; ``setup_s`` is the median
    of all set-ups.

    Times are process CPU seconds, less the steps of a ``speed.Sampler``
    that runs through every round, rescaled to the sampler's reference
    speed: each phase of a round (set-ups, train, evaluations) by the
    steps taken during it. The program is single-threaded (BLAS is pinned
    to one thread) and reads only files it has just written, so its CPU
    time is its wall time less the time the host gave this CPU to other
    guests. The raw CPU seconds, the train calls' wall seconds and every
    scale factor are kept in the record.
    """
    import speed
    from ctrlab import train

    # The first calls in a process pay one-off costs (allocator growth,
    # lazy imports) that later calls do not.
    set_up(configs[0])
    ops.run("warm-up train",
            lambda: train.train(configs[0].replace(epochs=1)))
    setup = []
    run_s = [[] for _ in configs]
    eval_rate = [[] for _ in configs]
    results = [None] * len(configs)
    digests = [None] * len(configs)
    rounds = []
    sampler = speed.Sampler(SAMPLE_INTERVAL_S)
    started = time.perf_counter()
    with sampler:
        while True:
            done = len(rounds)
            elapsed = time.perf_counter() - started
            if (done >= len(configs)
                    and elapsed * (done + 1) / done > seconds):
                break
            job = done % len(configs)
            config = configs[job]
            mark = len(sampler.times)
            times = [speed.cpu_seconds(lambda: set_up(config), sampler)[1]
                     for _ in range(SETUPS_PER_ROUND)]
            scales = [sampler.scale(mark)]
            setup += [scales[0] * t for t in times]
            mark = len(sampler.times)
            timed = timed_train(ops, config, digests[job], sampler)
            scales.append(sampler.scale(mark))
            rate = None
            if timed is not None:
                run_s[job].append(scales[1] * timed[0])
                if results[job] is None:
                    results[job], digests[job] = timed[2], timed[3]
                mark = len(sampler.times)
                rate = timed_evals(ops, results[job], sampler)
                scales.append(sampler.scale(mark))
                if rate is not None:
                    eval_rate[job].append(rate / scales[2])
            rounds.append({"job": job, "scales": scales,
                           "cpu_setup_s": times,
                           "cpu_train_s": timed and timed[0],
                           "wall_train_s": timed and timed[1],
                           "cpu_eval_rows_per_s": rate})
            if len(rounds) == len(configs):
                # The high-water mark after every job has run once; later
                # rounds only repeat work, and how many fit depends on
                # speed.
                rss_mb = peak_rss_mb()
    by_seed = {config.seed: digest
               for config, digest in zip(configs, digests)}
    if not all(run_s) or not all(eval_rate):
        return None, {}, by_seed

    mean_run = statistics.fmean(statistics.median(r) for r in run_s)
    median_setup = statistics.median(setup)
    samples = statistics.fmean(
        r.report["epochs_run"] * r.report["steps_per_epoch"]
        * r.config.batch_size for r in results)
    metrics = {
        "run_s": mean_run,
        "setup_s": median_setup,
        "train_samples_per_s": samples / (mean_run - median_setup),
        "eval_rows_per_s": statistics.fmean(statistics.median(r)
                                            for r in eval_rate),
        "test_auc": statistics.fmean(r.report["test"]["overall_auc"]
                                     for r in results),
        "peak_rss_mb": rss_mb,
    }
    raw = {"rounds": rounds, "sampled_steps": len(sampler.times),
           "test_auc": [r.report["test"]["overall_auc"] for r in results]}
    return metrics, raw, by_seed


def timed_evals(ops: Ops, result, sampler=None):
    """Rows per CPU second over EVALS_PER_ROUND evaluations, of ``val``
    and ``test`` in turn, each checked against the report; None if every
    call failed."""
    import speed
    from ctrlab import train

    config, report = result.config, result.report

    def evaluate(part):
        return ops.run("evaluate_partition", lambda: train.evaluate_partition(
            result.backbone, result.dataset, part, result.masks,
            config.overall_metric))

    rows = seconds = 0
    for call in range(EVALS_PER_ROUND):
        part = ("val", "test")[call % 2]
        scored, elapsed = speed.cpu_seconds(lambda: evaluate(part), sampler)
        if scored is None:
            continue
        rows += sum(len(result.dataset.domain(part, d))
                    for d in range(config.domains))
        seconds += elapsed
        ops.check("evaluate_partition",
                  [f"{part} differs from the report"]
                  if scored != report[part] else [])
    return rows / seconds if seconds else None


def measure_layers(name: str, config, seed: int, scale: float, ops: Ops):
    """Per-layer metrics from one traced run beside one untraced run."""
    import kernels
    import tracing
    from ctrlab import train

    first = timed_train(ops, config)
    if first is None:
        return None, {}, None
    _, untraced_s, _, digest = first
    tracer = tracing.Tracer()

    def traced_train():
        with tracing.traced(tracer), tracer.span("train"):
            return train.train(config)

    traced_result = ops.run("traced train", traced_train)
    if traced_result is None:
        return None, {}, digest
    ops.check("traced train", run_problems(
        traced_result, decision_digest(traced_result), digest))
    traced_s = tracer.spans[0].duration
    metrics = tracing.layer_metrics(tracer.spans, tracer.errors,
                                    sum(config.expert_counts),
                                    traced_result.trace)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics.update(kernels.kernel_metrics(seed, scale))
    OUT_DIR.mkdir(exist_ok=True)
    tracing.write_spans(tracer.spans,
                        str(OUT_DIR / f"spans-{name}-seed{seed}.jsonl"))
    raw = {"untraced_run_s": untraced_s, "traced_run_s": traced_s}
    return metrics, raw, digest


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "seed": seed,
    }


def metric_units(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def run_one(args) -> int:
    import workloads

    units = metric_units(args.trace)
    ops = Ops()
    # A relative path, the same in every checkout, keeps the CSV workload's
    # config, and so its decision digest, comparable across commits.
    workdir = os.path.join(OUT_DIR.name, "data")
    os.makedirs(workdir, exist_ok=True)
    try:
        seeds = workloads.job_seeds(args.seed)
        configs = [workloads.build(args.workload, seed, workdir, args.scale)
                   for seed in (seeds[:1] if args.trace else seeds)]
        if args.trace:
            metrics, raw, digest = measure_layers(
                args.workload, configs[0], args.seed, args.scale, ops)
            digest = {configs[0].seed: digest}
            if metrics is not None:
                metrics["failed_share"] = ops.failed / ops.attempted
        else:
            metrics, raw, digest = measure_end_to_end(configs, args.seconds,
                                                      ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if metrics is not None and set(metrics) != set(units):
        raise SystemExit(
            f"metrics {sorted(set(metrics) ^ set(units))} are not both "
            "measured and declared in BENCHMARK.json")
    shown = {name: {"value": metrics[name], "unit": unit}
             for name, unit in units.items()} if metrics else {}
    correct = metrics is not None and ops.failed == 0
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "scale": args.scale,
              "env": environment(args.seed), "digests": digest,
              "correct": correct, "attempted": ops.attempted,
              "failed": ops.failed, "samples": raw, "metrics": shown}
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for name, item in shown.items():
        print(f"{args.workload:18s} {name:36s} {item['value']:14.6g} "
              f"{item['unit']}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": shown}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink rows and batches (smoke tests only)")
    args = parser.parse_args(argv)
    if not (SRC / "ctrlab" / "__init__.py").is_file():
        print(f"no ctrlab sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES + ("all",):
        parser.error(f"--workload must be one of {workloads.NAMES} or all")
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__,
                                 "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace),
                                 "--scale", str(args.scale)]).returncode
                 for name in workloads.NAMES]
        return max(codes)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
