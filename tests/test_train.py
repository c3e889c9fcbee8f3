import io
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from ctrlab import backbone, data, metrics, nn, prototype, train
from ctrlab.config import RunConfig, load_dataset
from ctrlab.errors import ConfigError, LabError, NumericError, UsageError
from helpers import CHAIN3, FIXED, same_bits, tiny_config
import reference as ref


def json_edit(change):
    """An edit of checkpoint meta bytes: change(meta) on the decoded JSON."""
    def edit(raw: bytes) -> bytes:
        meta = json.loads(raw.decode())
        change(meta)
        return json.dumps(meta).encode()
    return edit


def npy_bytes(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def results():
    """Two runs of each mode."""
    return {mode: (train.train(tiny_config(mode)),
                   train.train(tiny_config(mode)))
            for mode in ("sdsp", "full-share", "fixed-subset")}


def decisions(result, skip=("timing",)) -> tuple:
    """A run's report apart from the ``skip`` keys, and its selection
    trace, as JSON."""
    report = {k: v for k, v in result.report.items() if k not in skip}
    return (json.dumps(report, sort_keys=True),
            json.dumps(result.trace, sort_keys=True))


@pytest.mark.parametrize("mode", ["sdsp", "full-share", "fixed-subset"])
class TestTrain:
    def test_report_deterministic_apart_from_timing(self, results, mode):
        first, second = results[mode]
        assert decisions(first) == decisions(second)

    def test_selection_round_count(self, results, mode):
        result, _ = results[mode]
        report = result.report
        assert report["epochs_run"] == 3
        iterations = report["epochs_run"] * report["steps_per_epoch"]
        expected = (math.ceil(iterations / result.config.selection_interval)
                    if mode == "sdsp" else 0)
        assert report["selection"]["rounds"] == expected
        assert len(result.trace) == expected
        # A round follows the train step of every selection_interval-th
        # iteration, starting at iteration 0.
        assert ([line["iteration"] for line in result.trace]
                == list(range(0, iterations,
                              result.config.selection_interval))[:expected])

    def test_outputs_reproduce_val_report(self, results, mode, tmp_path):
        result, _ = results[mode]
        train.write_outputs(result, tmp_path)
        with open(tmp_path / "report.json", encoding="utf-8") as fh:
            assert json.load(fh) == result.report
        _, backbone, _, masks, _ = train.load_checkpoint(
            tmp_path / "checkpoint.npz")
        val = train.evaluate_partition(backbone, result.dataset, "val", masks,
                                       result.config.overall_metric)
        assert val == result.report["val"]


def test_evaluate_partition_reports_domains_in_order():
    """At 11 domains the report lists domains 0, 1, 2, ..., 10, not in the
    order of their keys as strings; domain d holds 20 + d rows."""
    sizes = [20 + d for d in range(11)]
    dataset = data.synth_generate(
        data.SynthSpec(11, np.eye(11), np.zeros(11), sizes), seed=0)
    net = backbone.Backbone(dataset.schema.vocab_sizes, 2, [1] * 11, 2, 2, 2,
                            np.random.default_rng(0))
    report = train.evaluate_partition(net, dataset, "all", np.zeros((11, 11)))
    assert list(report["domains"]) == [str(d) for d in range(11)]
    assert [f["count"] for f in report["domains"].values()] == sizes


def test_evaluate_partition_refuses_another_domain_count():
    """A 2-domain backbone on a 3-domain dataset would report on part of
    it: refused, naming both counts."""
    dataset = data.synth_generate(
        data.SynthSpec(3, np.eye(3), np.zeros(3), [20] * 3), seed=0)
    net = backbone.Backbone(dataset.schema.vocab_sizes, 2, [1] * 2, 2, 2, 2,
                            np.random.default_rng(0))
    with pytest.raises(UsageError,
                       match=r"^dataset has 3 domains, backbone 2$"):
        train.evaluate_partition(net, dataset, "all", np.zeros((2, 2)))


def test_evaluate_partition_names_an_empty_domain():
    """load_csv gives a domain without rows an empty block; evaluating it
    raises the UsageError of an empty score array, naming the domain."""
    dataset = data.synth_generate(
        data.SynthSpec(3, np.eye(3), np.zeros(3), [20] * 3), seed=0)
    datas = dataset.partition("all")
    datas[1] = data.DomainData.empty(dataset.schema)
    dataset = data.DomainDataset(dataset.schema, {"all": datas})
    net = backbone.Backbone(dataset.schema.vocab_sizes, 2, [1] * 3, 2, 2, 2,
                            np.random.default_rng(0))
    with pytest.raises(UsageError, match=r"^domain 1: empty score array$"):
        train.evaluate_partition(net, dataset, "all", np.zeros((3, 3)))


def test_zero_proto_loss_weight_leaves_the_coders_untrained():
    """With proto_loss_weight 0 the reconstruction loss is still measured,
    but no gradient reaches a prototype coder."""
    config = tiny_config("sdsp").replace(proto_loss_weight=0.0)
    initial = train.Run(config).coders
    first, second = train.train(config), train.train(config)
    for before, after in zip(initial, first.coders):
        for p, q in zip(before.params(), after.params()):
            assert p.values.tobytes() == q.values.tobytes(), p.name
    assert all(np.isfinite(h["l_rec"]) for h in first.report["history"])
    assert decisions(first) == decisions(second)


def test_zero_proto_loss_weight_step_leaves_no_coder_cache():
    """The coders' backward runs on every train step, at proto_loss_weight
    0 too, so no coder keeps its forward's cache past the step."""
    run = train.Run(tiny_config("sdsp").replace(proto_loss_weight=0.0))
    run.train_step()
    assert [coder._cache for coder in run.coders] == [None] * 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("seed, domain", [(5, 0), (6, 1)])
def test_diverged_run_is_numeric_error(seed, domain):
    """At learning rate 500 the parameters blow up in a step whose loss is
    still finite; the next selection round's reward pass meets them and
    the run stops with a NumericError naming the domain, not with the AUC's
    MetricError."""
    config = tiny_config("sdsp", seed).replace(learning_rate=500.0)
    with pytest.raises(NumericError, match=rf"^domain {domain}: non-finite "
                       "predictions; reduce the learning rate"):
        train.train(config)


def test_fixed_subset_keeps_configured_subsets(results):
    result, _ = results["fixed-subset"]
    assert result.report["selection"]["active_subsets"] == FIXED
    assert result.subsets == [tuple(s) for s in FIXED]


def test_full_share_activates_every_expert(results):
    result, _ = results["full-share"]
    assert result.report["selection"]["active_subsets"] == [[0, 1, 2]] * 3
    assert np.array_equal(result.masks, np.zeros((3, 4)))


def test_best_epoch_params_are_restored(results):
    """The report's val section is the best epoch's, also where that epoch
    is not the last: the snapshot is a copy, not a view of the live
    parameters."""
    for mode, (result, _) in results.items():
        report = result.report
        best = report["history"][report["best_epoch"]]
        assert report["val"]["domains"] == best["val_domains"], mode
        assert report["val"]["overall_auc"] == best["val_overall_auc"], mode
    assert results["full-share"][0].report["best_epoch"] == 0


def test_best_epoch_masks_are_restored(monkeypatch):
    """The returned Run's masks are the ones the best epoch's val pass
    read, rebuilt from its subsets, although a later epoch's differ."""
    val_masks = []
    evaluate = train.evaluate_partition

    def recording(backbone, dataset, partition, masks, *args):
        if partition == "val":
            val_masks.append(masks.copy())
        return evaluate(backbone, dataset, partition, masks, *args)

    monkeypatch.setattr(train, "evaluate_partition", recording)
    run = train.train(tiny_config("sdsp"))
    assert isinstance(run, train.Run)
    best = run.report["best_epoch"]
    assert len(val_masks) == run.report["epochs_run"]
    assert best < len(val_masks) - 1
    assert not np.array_equal(val_masks[-1], val_masks[best])
    assert run.masks.tobytes() == val_masks[best].tobytes()
    assert np.array_equal(run.masks, backbone.build_mask(
        run.subsets, run.config.expert_counts))


@pytest.mark.parametrize("mode", ["sdsp", "full-share"])
def test_val_is_evaluated_once_per_epoch_plus_test(mode, monkeypatch):
    """The report's val section is the best epoch's kept report, not a
    second pass over the val rows: one evaluation per epoch plus the test
    partition's."""
    calls = []
    evaluate = train.evaluate_partition

    def counting(*args, **kwargs):
        calls.append(args[2])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(train, "evaluate_partition", counting)
    config = tiny_config(mode).replace(epochs=4, early_stop_patience=1)
    report = train.train(config).report
    assert calls == ["val"] * report["epochs_run"] + ["test"]


@pytest.mark.parametrize("decay", [0.9, 1.0])
def test_p_decays_once_per_earlier_round(results, decay):
    """Each round explores with explore_init multiplied by explore_decay
    once per earlier round, and final_p is that product after the last
    round: the same bits, not merely close. A decay of 1 keeps p."""
    result = (results["sdsp"][0] if decay == 0.9 else train.train(
        tiny_config("sdsp").replace(explore_init=0.5, explore_decay=decay)))
    p = result.config.explore_init
    assert result.config.explore_decay == decay
    for line in result.trace:
        assert line["p"].hex() == p.hex()
        p *= decay
    assert result.report["selection"]["final_p"].hex() == p.hex()
    if decay == 1.0:
        assert p == 0.5


def test_round_masks_follow_chosen_subsets(monkeypatch):
    """After every round the gate masks are the chosen subsets' masks."""
    seen = []
    selection_round = train.Run.selection_round

    def recording(run, iteration):
        selection_round(run, iteration)
        seen.append((run.trace[-1]["chosen_subsets"], run.masks.copy()))

    monkeypatch.setattr(train.Run, "selection_round", recording)
    result = train.train(tiny_config("sdsp"))
    assert len(seen) == result.report["selection"]["rounds"]
    for chosen, masks in seen:
        assert np.array_equal(
            masks, backbone.build_mask(chosen, result.config.expert_counts))
    # Some round leaves an expert out, so the masks are not all zero.
    assert any(np.isneginf(masks).any() for _, masks in seen)


def test_round_distances_are_the_step_prototypes(monkeypatch):
    """Each round's distance matrix is, bit for bit, distance_matrix of
    the prototypes that its iteration's train step got back from each
    domain's reconstruction; those arrays still hold their values after
    the run's later SGD updates."""
    returned = []
    reconstruction = prototype.ProtoCoder.reconstruction

    def recording(coder, h):
        loss, protos = reconstruction(coder, h)
        returned.append((protos, protos.copy()))
        return loss, protos

    monkeypatch.setattr(prototype.ProtoCoder, "reconstruction", recording)
    result = train.train(tiny_config("sdsp"))
    domains = result.config.domains
    report = result.report
    assert len(returned) == (report["epochs_run"] * report["steps_per_epoch"]
                             * domains)
    for kept, copied in returned:
        assert kept.tobytes() == copied.tobytes()
    assert len(result.trace) > 1
    for line in result.trace:
        i = line["iteration"]
        step = [kept for kept, _ in returned[i * domains:(i + 1) * domains]]
        want = prototype.distance_matrix(step)
        assert np.array(line["distance_matrix"]).tobytes() == want.tobytes()


def test_one_sampler_draw_per_step_plus_the_report(monkeypatch):
    """A run draws one quota batch per train step and one for the report's
    final distance matrix; selection rounds draw none."""
    draws = []
    next_batch = data.QuotaSampler.next_batch

    def counting(sampler):
        draws.append(sampler)
        return next_batch(sampler)

    monkeypatch.setattr(data.QuotaSampler, "next_batch", counting)
    result = train.train(tiny_config("sdsp"))
    report = result.report
    assert report["selection"]["rounds"] > 1
    assert len(draws) == report["epochs_run"] * report["steps_per_epoch"] + 1


def test_every_auc_goes_through_metrics_auc(monkeypatch):
    """A selection round scores each domain once, and an evaluation (one
    per epoch, then the test partition's) scores each domain and the
    pooled rows, all through metrics.auc."""
    calls = []
    auc = metrics.auc

    def counting(scores, labels):
        calls.append(len(scores))
        return auc(scores, labels)

    monkeypatch.setattr(metrics, "auc", counting)
    config = tiny_config("sdsp")
    report = train.train(config).report
    rounds, d = report["selection"]["rounds"], config.domains
    assert rounds > 1
    assert len(calls) == rounds * d + (report["epochs_run"] + 1) * (d + 1)


def test_selection_round_before_any_train_step_is_usage_error():
    """Without a train step there are no prototypes to measure: the round
    raises and leaves the subsets, trace and p as they were."""
    run = train.Run(tiny_config("sdsp"))
    subsets, p = list(run.subsets), run.p
    with pytest.raises(UsageError, match="needs a train step before it"):
        run.selection_round(0)
    assert run.trace == [] and run.subsets == subsets and run.p == p


def test_timing_has_every_stage(results):
    stages = {"train_seconds", "train_step_s", "selection_distance_s",
              "selection_reward_s", "epoch_eval_s"}
    for mode, (result, _) in results.items():
        timing = result.report["timing"]
        assert set(timing) == stages, mode
        assert all(v >= 0.0 for v in timing.values()), mode
        assert timing["train_step_s"] > 0.0
    sdsp = results["sdsp"][0].report["timing"]
    assert sdsp["selection_distance_s"] > 0.0
    assert sdsp["selection_reward_s"] > 0.0


def test_same_decisions_as_loop_references(monkeypatch):
    """The rank sum read off one unstable sort and the slice draws change
    no report or trace byte.

    Domain 2's train split (48 rows) is a little larger than its quota (40),
    so most of its batches wrap and go through de-duplication."""
    config = tiny_config("sdsp").replace(
        dataset={"kind": "synth", "affinity": CHAIN3, "noise": [0.0] * 3,
                 "sizes": [240, 200, 60]},
        batch_size=56, quotas=[8, 8, 40])
    shipped = train.train(config)

    samplers = []

    class RecordingLoopSampler(ref.LoopSampler):
        def __init__(self, *args):
            super().__init__(*args)
            samplers.append(self)

    monkeypatch.setattr(metrics, "auc", ref.loop_auc)
    monkeypatch.setattr(data, "QuotaSampler", RecordingLoopSampler)
    reference = train.train(config)

    assert sum(s.swaps for s in samplers) > 0
    assert decisions(shipped) == decisions(reference)


def test_same_decisions_as_per_call_references(results, monkeypatch):
    """The single-gather embed, the flat embedding gradient, the softmax
    over active columns, the one-array SGD step and the one-pass-per-source
    distance matrix change no report or trace byte. Every batch the coders
    encode, in every mode, gets the same row order from its first column
    as from a lexicographic sort of all its columns."""
    monkeypatch.setattr(backbone.Backbone, "embed", ref.loop_embed)
    monkeypatch.setattr(backbone.Backbone, "_embed_backward",
                        ref.loop_embed_backward)
    monkeypatch.setattr(backbone, "masked_softmax", ref.loop_masked_softmax)
    monkeypatch.setattr(nn, "sgd_step", ref.loop_sgd_step)
    monkeypatch.setattr(prototype, "distance_matrix", ref.loop_distance_matrix)
    monkeypatch.setattr(train, "distance_matrix", ref.loop_distance_matrix)
    encode = prototype.ProtoCoder._encode
    encoded = []

    def spy(coder, h):
        out = encode(coder, h)
        encoded.append(out[0].tobytes() == ref.lexsort_order(h).tobytes())
        return out

    monkeypatch.setattr(prototype.ProtoCoder, "_encode", spy)
    for mode, (shipped, _) in results.items():
        encoded.clear()
        reference = train.train(tiny_config(mode))
        assert decisions(shipped) == decisions(reference), mode
        assert encoded and all(encoded), mode


def test_same_decisions_as_separate_bias_reference(monkeypatch):
    """Every dense layer's bias folded into its weight's last row and read
    through the input's ones column changes no report or trace byte: the
    reference adds each bias after the product of the weight rows and
    reduces its gradient by ndarray.sum.

    The gate has 8 experts, as the benchmark's do. Which kernel OpenBLAS
    runs depends on the shapes, and for some (tiny_config's 4-expert gate
    over 24 inputs among them) the folded product rounds some sums
    differently in the last bit."""
    config = tiny_config("sdsp").replace(expert_counts=[3, 3, 2])
    shipped = train.train(config)
    monkeypatch.setattr(nn.Mlp, "forward", ref.mlp_forward)
    monkeypatch.setattr(nn.Mlp, "backward", ref.mlp_backward)
    reference = train.train(config)

    assert decisions(shipped) == decisions(reference)


@pytest.mark.parametrize("mode,part,label", [
    ("sdsp", "val", 0.0), ("full-share", "val", 0.0),
    ("fixed-subset", "test", 1.0)])
def test_single_class_partition_is_config_error(mode, part, label,
                                                monkeypatch):
    """Domain 1's val or test rows carry one label, so its AUC there is
    undefined: the run stops before training and says where, instead of
    failing at the first selection round or evaluation."""
    split = data.split

    def one_class(*args, **kwargs):
        dataset = split(*args, **kwargs)
        dataset.domain(part, 1).labels[...] = label
        return dataset

    monkeypatch.setattr(data, "split", one_class)
    with pytest.raises(ConfigError, match=rf"^{part} partition of domain 1 "
                       rf"holds only label {label:g}; its AUC is undefined$"):
        train.train(tiny_config(mode))


def test_csv_dataset_run_equals_synth_run(results, tmp_path):
    """The synthetic dataset written out as CSV trains to the same report
    (apart from the dataset spec it names) and the same trace, and the CSV
    run's checkpoint takes its vocabulary sizes from the schema."""
    synth, _ = results["sdsp"]
    dataset = load_dataset(synth.config)
    data.save_csv(dataset, tmp_path / "data.csv")
    dataset.schema.save(tmp_path / "schema.json")
    config = synth.config.replace(dataset={
        "kind": "csv", "path": str(tmp_path / "data.csv"),
        "schema": str(tmp_path / "schema.json")})
    csv = train.train(config, out_dir=tmp_path / "run")
    skip = ("timing", "config", "config_hash")
    assert decisions(csv, skip) == decisions(synth, skip)
    loaded, backbone, *_ = train.load_checkpoint(
        tmp_path / "run" / "checkpoint.npz")
    assert loaded == config
    assert backbone.vocab_sizes == dataset.schema.vocab_sizes


READOUT = {"fields_per_concept": 3, "vocab_size": 8, "feature_noise": 0.1}


def test_synth_options_reach_the_run():
    """A synthetic spec's readout options shape the run's fields and
    vocabularies, and its split dataset is the spec's, bit for bit."""
    config = tiny_config("sdsp")
    config = config.replace(dataset=dict(config.dataset, **READOUT))
    run = train.Run(config)
    assert run.backbone.vocab_sizes == (8,) * 9
    spec = data.SynthSpec(3, CHAIN3, [0.0] * 3, config.dataset["sizes"],
                          **READOUT)
    want = data.split(data.synth_generate(spec, config.seed),
                      config.split_fractions, config.seed)
    for name in data.PARTITIONS:
        for d in range(3):
            got, ref = run.dataset.domain(name, d), want.domain(name, d)
            assert same_bits(got.features, ref.features)
            assert same_bits(got.labels, ref.labels)


@pytest.fixture(scope="module")
def mean_run():
    """An sdsp run with split fractions and an overall metric that are not
    the defaults."""
    return train.train(tiny_config("sdsp").replace(
        split_fractions=[0.6, 0.2, 0.2], overall_metric="mean"))


def test_split_fractions_reach_the_run(mean_run):
    """Each domain's train, val and test rows are its largest-remainder
    shares of the configured fractions, and the report counts them."""
    sizes = [data._largest_remainder(n, [0.6, 0.2, 0.2])
             for n in mean_run.config.dataset["sizes"]]
    assert [[len(mean_run.dataset.domain(name, d)) for name in data.PARTITIONS]
            for d in range(3)] == sizes
    for i, part in ((1, "val"), (2, "test")):
        counts = [mean_run.report[part]["domains"][str(d)]["count"]
                  for d in range(3)]
        assert counts == [s[i] for s in sizes]


def test_overall_metric_reaches_the_run(mean_run):
    """The val and test reports combine their domains by the configured
    overall metric: the mean of the per-domain AUCs."""
    for part in ("val", "test"):
        section = mean_run.report[part]
        assert section["overall_mode"] == "mean"
        aucs = [section["domains"][str(d)]["auc"] for d in range(3)]
        assert section["overall_auc"] == float(np.mean(aucs))


# Two blocks of two domains: each domain borrows from its block partner
# and from no other domain.
BLOCKS4 = [[1.0, 0.8, 0.0, 0.0], [0.8, 1.0, 0.0, 0.0],
           [0.0, 0.0, 1.0, 0.8], [0.0, 0.0, 0.8, 1.0]]
PARTNERS4 = [1, 0, 3, 2]


def partner_recovery(trace) -> float:
    """The share of (round, domain) pairs in the last quarter of a run's
    selection rounds whose distance ranking puts the domain's planted
    block partner right after the domain itself."""
    last = trace[3 * len(trace) // 4:]
    return float(np.mean([ranking[1] == PARTNERS4[d] for line in last
                          for d, ranking in enumerate(line["rankings"])]))


def test_distance_ranking_recovers_planted_partners():
    """With two planted blocks of two domains, the rounds' rankings name
    each domain's partner right after it far more often than the 1/3 of a
    ranking that ignores the data."""
    scores = []
    for seed in (1, 2, 3, 4):
        config = RunConfig(
            domains=4,
            dataset={"kind": "synth", "affinity": BLOCKS4,
                     "noise": [0.0] * 4, "sizes": [3000] * 4},
            seed=seed, mode="sdsp", expert_counts=[1] * 4, batch_size=256,
            learning_rate=1.0, epochs=10, early_stop_patience=10)
        scores.append(partner_recovery(train.train(config).trace))
    assert min(scores) > 1 / 3, scores
    assert np.mean(scores) >= 0.6, scores


def out_in_draws(config: RunConfig, vocab_sizes, rng) -> list:
    """The (fan_out, fan_in) draws of the backbone's expert, gate and tower
    weights from ``rng``, in the backbone's draw order: the embedding
    table, each expert's layers, each gate, each tower's layers."""
    x_dim = len(vocab_sizes) * config.embedding_dim
    nn.uniform_init(rng, (sum(vocab_sizes), config.embedding_dim),
                    config.embedding_dim)
    experts = sum(config.expert_counts)
    shapes = ([(config.expert_hidden, x_dim),
               (config.repr_dim, config.expert_hidden)] * experts
              + [(experts, x_dim)] * config.domains
              + [(config.tower_hidden, config.repr_dim),
                 (1, config.tower_hidden)] * config.domains)
    return [nn.uniform_init(rng, shape, shape[1]) for shape in shapes]


def assert_in_out(params, draws):
    """The expert, gate and tower weights among ``params``, hidden or not,
    are C-contiguous (fan_in + 1, fan_out) arrays, with C-contiguous
    gradients: the transpose of their (fan_out, fan_in) draw above a zero
    bias row."""
    weights = [p for p in params if p.name.endswith(".w")
               and p.name.startswith(("expert.", "gate.", "tower."))]
    assert len(weights) == len(draws)
    for p, draw in zip(weights, draws):
        out, fan_in = draw.shape
        assert p.values.shape == (fan_in + 1, out), p.name
        assert p.values.flags.c_contiguous, p.name
        assert p.grad.flags.c_contiguous, p.name
        assert p.values[:-1].tobytes() == draw.T.tobytes(), p.name
        assert not p.values[-1].any(), p.name


class TestWeightLayout:
    """Every dense weight is input-major, before and after the ParamStore
    packs it, and the initial model is the one the (out, in) layout drew."""

    VOCAB = [5, 7, 3]

    @pytest.fixture
    def unpacked(self, monkeypatch):
        """The params handed to each ParamStore, as they were before it
        rebound them to views of its flat arrays."""
        stores = []
        pack = nn.ParamStore

        def packing(params):
            params = list(params)
            stores.append([SimpleNamespace(name=p.name, values=p.values,
                                           grad=p.grad) for p in params])
            return pack(params)

        monkeypatch.setattr(nn, "ParamStore", packing)
        return stores

    def test_built_model(self, unpacked):
        config = tiny_config("sdsp")
        backbone, _, _ = train._build_model(config, self.VOCAB,
                                            np.random.default_rng(11))
        draws = out_in_draws(config, self.VOCAB, np.random.default_rng(11))
        assert_in_out(unpacked[0], draws)
        assert_in_out(backbone.params(), draws)

    def test_loaded_checkpoint(self, unpacked, tmp_path):
        config = tiny_config("sdsp")
        backbone, _, store = train._build_model(config, self.VOCAB,
                                                np.random.default_rng(11))
        path = tmp_path / "checkpoint.npz"
        train.save_checkpoint(SimpleNamespace(
            config=config, backbone=backbone, store=store,
            subsets=[[0, 1, 2]] * 3), path)
        _, loaded, *_ = train.load_checkpoint(path)
        # The loader draws its model from generator 0, packs it, then
        # copies the stored values in.
        assert_in_out(unpacked[1], out_in_draws(config, self.VOCAB,
                                                np.random.default_rng(0)))
        assert_in_out(loaded.params(), out_in_draws(
            config, self.VOCAB, np.random.default_rng(11)))


class TestCheckpoint:
    """The one checkpoint format: train.save_checkpoint/load_checkpoint."""

    @pytest.fixture
    def saved(self, results, tmp_path):
        result, _ = results["fixed-subset"]
        path = tmp_path / "checkpoint.npz"
        train.save_checkpoint(result, path)
        return result, path

    @staticmethod
    def rewrite(path, change):
        """Re-save the checkpoint's arrays after change(arrays)."""
        with np.load(path) as zf:
            arrays = {key: zf[key] for key in zf.files}
        change(arrays)
        np.savez(path, **arrays)

    @classmethod
    def rewrite_entry(cls, path, result, name, entry, value):
        """Re-save the checkpoint with ``value`` at ``entry`` (an index of
        the param's shape, negative entries allowed) of param ``name``."""
        start = 0
        for p in result.store.params:
            if p.name == name:
                break
            start += p.values.size
        flat = start + np.ravel_multi_index(
            tuple(i % n for i, n in zip(entry, p.values.shape)),
            p.values.shape)

        def change(arrays):
            values = arrays["values"].copy()
            assert not values[flat] == value
            values[flat] = value
            arrays["values"] = values

        cls.rewrite(path, change)

    def test_path_is_written_as_given(self, results, tmp_path):
        """A path without the .npz suffix gets none appended: the file is
        written at that path, and nowhere else, and loads from it."""
        result, _ = results["fixed-subset"]
        path = tmp_path / "checkpoint"
        train.save_checkpoint(result, path)
        assert list(tmp_path.iterdir()) == [path]
        _, backbone, coders, _, _ = train.load_checkpoint(path)
        loaded = backbone.params() + [p for c in coders for p in c.params()]
        assert (b"".join(p.values.tobytes() for p in loaded)
                == result.store.values.tobytes())

    def test_round_trip_bit_exact(self, saved):
        result, path = saved
        config, backbone, coders, masks, subsets = train.load_checkpoint(path)
        before = list(result.backbone.params())
        after = list(backbone.params())
        for old, new in zip(result.coders, coders):
            before += old.params()
            after += new.params()
        assert len(before) == len(after)
        for p, q in zip(before, after):
            assert p.name == q.name
            assert p.values.shape == q.values.shape
            assert p.values.tobytes() == q.values.tobytes(), p.name
        assert np.array_equal(masks, result.masks)
        assert subsets == result.subsets

    def test_round_trip_predicts_the_same_bits(self, saved):
        result, path = saved
        _, backbone, _, masks, _ = train.load_checkpoint(path)
        for d in range(result.config.domains):
            features = result.dataset.domain("test", d).features
            assert (backbone.predict(features, d, masks).tobytes()
                    == result.backbone.predict(features, d,
                                               result.masks).tobytes())

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name, entry", [
        ("gate.d1.l0.w", (2, 1)), ("gate.d2.l0.w", (-1, -1)),
        ("proto.d0.enc_w", (0, 0)), ("proto.d2.dec_b", (-1,))])
    def test_non_finite_value_rejected(self, saved, name, entry, value):
        """A NaN or infinite parameter entry is refused, naming the file
        and the param that holds it."""
        result, path = saved
        self.rewrite_entry(path, result, name, entry, value)
        with pytest.raises(ConfigError) as err:
            train.load_checkpoint(path)
        assert str(err.value) == (f"{path}: non-finite value in parameter "
                                  f"{name!r}")

    def test_first_non_finite_param_named(self, saved):
        """Of two params holding a non-finite entry, the first in the
        store's order is named, also when its entry is a hidden layer's
        last column."""
        result, path = saved
        self.rewrite_entry(path, result, "proto.d0.enc_w", (0, 0), np.nan)
        self.rewrite_entry(path, result, "tower.d1.l0.w", (0, -1), -np.inf)
        with pytest.raises(ConfigError, match="'tower.d1.l0.w'"):
            train.load_checkpoint(path)

    def test_config_travels_with_the_file(self, saved):
        result, path = saved
        config, *_ = train.load_checkpoint(path)
        assert config == result.config
        assert config.config_hash() == result.config.config_hash()

    def test_file_holds_exactly_values_and_meta(self, saved):
        result, path = saved
        with np.load(path) as zf:
            assert sorted(zf.files) == ["meta", "values"]
            meta = json.loads(bytes(zf["meta"]).decode())
            values = zf["values"]
        assert meta == {"config": result.config.to_dict(),
                        "vocab_sizes": list(result.backbone.vocab_sizes),
                        "subsets": [list(s) for s in result.subsets],
                        "weight_layout": "in_bias_out"}
        params = result.backbone.params() + [
            p for c in result.coders for p in c.params()]
        assert values.dtype == np.float64
        assert values.shape == (sum(p.values.size for p in params),)
        assert values.tobytes() == np.concatenate(
            [p.values.ravel() for p in params]).tobytes()

    @pytest.mark.parametrize("key", ["meta", "values"])
    def test_missing_array_rejected(self, saved, key):
        _, path = saved
        self.rewrite(path, lambda arrays: arrays.pop(key))
        with pytest.raises(ConfigError, match="checkpoint holds arrays"):
            train.load_checkpoint(path)

    def test_old_style_param_key_rejected(self, saved):
        """A per-tensor array beside the two, as the earlier format stored
        them, is refused rather than ignored."""
        result, path = saved
        self.rewrite(path, lambda arrays: arrays.update(
            {"param:embedding": result.backbone.embedding.values}))
        with pytest.raises(ConfigError, match="param:embedding"):
            train.load_checkpoint(path)

    @pytest.mark.parametrize("change, named", [
        (lambda values: values[:-1], "shape"),
        (lambda values: values.astype(np.float32), "float32")],
        ids=["truncated", "float32"])
    def test_values_of_another_shape_or_dtype_rejected(self, saved, change,
                                                       named):
        _, path = saved
        self.rewrite(path, lambda arrays: arrays.update(
            values=change(arrays["values"])))
        with pytest.raises(ConfigError, match=named):
            train.load_checkpoint(path)

    @pytest.mark.parametrize("edit, named", [
        (json_edit(lambda meta: meta.pop("config")), "checkpoint meta holds"),
        (json_edit(lambda meta: meta.pop("weight_layout")),
         "checkpoint meta holds ['config', 'subsets', 'vocab_sizes'], "
         "expected ['config', 'subsets', 'vocab_sizes', 'weight_layout']"),
        (json_edit(lambda meta: meta.update(weight_layout="out_in")),
         "checkpoint weight layout is 'out_in', expected 'in_bias_out'"),
        (json_edit(lambda meta: meta.update(weight_layout="in_out")),
         "checkpoint weight layout is 'in_out', expected 'in_bias_out'"),
        (json_edit(lambda meta: meta.update(weight_layout="in_out_bias_row")),
         "checkpoint weight layout is 'in_out_bias_row', expected "
         "'in_bias_out'"),
        (json_edit(lambda meta: meta["config"].update(reward_metric="auc")),
         "unknown config keys"),
        (json_edit(lambda meta: meta.update(subsets=[[1], [0, 1], [1, 2]])),
         "subsets[0] must contain domain 0"),
        (json_edit(lambda meta: meta.update(subsets=["ab", [0, 1], [1, 2]])),
         "subsets[0] must be a list, got 'ab'"),
        (json_edit(lambda meta: meta.update(
            vocab_sizes=[-3] + meta["vocab_sizes"][1:])),
         "vocab_sizes[0] must be >= 1, got -3"),
        (json_edit(lambda meta: meta.update(vocab_sizes=8)),
         "vocab_sizes must be a list, got 8"),
        (json_edit(lambda meta: meta.update(config=[])),
         "config must be an object, got list"),
        (lambda raw: b"\xff" + raw, "not a checkpoint file"),
        (lambda raw: b"[1, 2]", "checkpoint meta holds [1, 2]"),
        (lambda raw: json.dumps(train.META_KEYS).encode(),
         "expected a JSON object of the keys"),
        (json_edit(lambda meta: meta.update(subsets=[[0], [0, 1, 1], [1, 2]])),
         "subsets[1] names a domain twice: [0, 1, 1]")],
        ids=["no-config", "written-before-the-in-out-layout",
             "out-in-layout", "in-out-layout-with-separate-biases",
             "in-out-bias-row-layout-with-carry-columns",
             "unknown-config-key",
             "subset-without-its-domain", "subset-not-a-list", "negative-vocab-size", "vocab-not-a-list",
             "config-not-an-object", "not-utf8", "not-an-object",
             "a-list-of-the-keys", "subset-naming-a-domain-twice"])
    def test_bad_meta_rejected(self, saved, edit, named):
        """Malformed meta fails with a ConfigError that names the file."""
        _, path = saved
        self.rewrite(path, lambda arrays: arrays.update(meta=np.frombuffer(
            edit(bytes(arrays["meta"])), dtype=np.uint8)))
        with pytest.raises(ConfigError) as err:
            train.load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ")
        assert named in str(err.value)

    @pytest.mark.parametrize("content", [
        b"values,meta\n", npy_bytes(np.zeros(3)), b"PK\x03\x04 truncated",
        None], ids=["text", "npy", "truncated-zip", "missing"])
    def test_file_that_is_not_an_npz_rejected(self, tmp_path, content):
        path = tmp_path / "checkpoint.npz"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ConfigError) as err:
            train.load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: not a checkpoint file (")


# Every loader of a file, called on a path; the first three read text.
FILE_LOADERS = {
    "load_csv": lambda path: data.load_csv(
        path, data.Schema(2, (data.FeatureField("a", 3),))),
    "Schema.load": data.Schema.load,
    "RunConfig.load": RunConfig.load,
    "load_checkpoint": train.load_checkpoint,
}
TEXT_LOADERS = ("load_csv", "Schema.load", "RunConfig.load")


def causes(exc) -> list:
    """The types along ``exc``'s chain of causes, ``exc``'s own first."""
    chain = []
    while exc is not None:
        chain.append(type(exc))
        exc = exc.__cause__
    return chain


@pytest.mark.parametrize("loader", FILE_LOADERS)
def test_missing_file_is_a_lab_error_naming_it(tmp_path, loader):
    path = tmp_path / "absent"
    with pytest.raises(LabError) as err:
        FILE_LOADERS[loader](path)
    assert str(err.value).startswith(f"{path}: ")
    assert FileNotFoundError in causes(err.value)


@pytest.mark.parametrize("loader", TEXT_LOADERS)
def test_text_that_is_not_utf8_is_a_lab_error_naming_it(tmp_path, loader):
    path = tmp_path / "latin1"
    path.write_bytes('{"domains": 2, "fields": [{"name": "f\xe9"}]}'
                     .encode("latin-1"))
    with pytest.raises(LabError) as err:
        FILE_LOADERS[loader](path)
    assert str(err.value).startswith(f"{path}: not UTF-8 text (")
    assert causes(err.value)[1] is UnicodeDecodeError
