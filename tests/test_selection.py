import itertools
import json

import numpy as np
import pytest

from ctrlab import selection as sel
from ctrlab import train
from ctrlab.errors import MetricError, UsageError
from helpers import tiny_config


class TestCandidateStates:
    def test_three_domain_prefixes(self):
        assert sel.candidate_states([0, 1, 2]) == [(0,), (0, 1), (0, 1, 2)]

    def test_canonicalized(self):
        assert sel.candidate_states([2, 0, 1]) == [(2,), (0, 2), (0, 1, 2)]

    def test_single_domain(self):
        assert sel.candidate_states([0]) == [(0,)]

    def test_linear_vs_exponential_enumeration(self):
        for d_count in range(2, 7):
            ranking = list(range(d_count))
            states = sel.candidate_states(ranking)
            assert len(states) == d_count
            # enumeration oracle: subsets of the other domains, plus d itself
            others = [j for j in ranking if j != 0]
            unrestricted = [frozenset({0} | set(c))
                            for k in range(len(others) + 1)
                            for c in itertools.combinations(others, k)]
            assert len(set(unrestricted)) == 2 ** (d_count - 1)
            assert set(map(frozenset, states)) <= set(unrestricted)

    def test_prefix_sizes_and_membership(self):
        states = sel.candidate_states([3, 1, 0, 2])
        assert [len(s) for s in states] == [1, 2, 3, 4]
        assert all(3 in s for s in states)

    def test_malformed_ranking(self):
        with pytest.raises(UsageError):
            sel.candidate_states([0, 0, 1])
        with pytest.raises(UsageError):
            sel.candidate_states([0, 2])


class TestValueTable:
    def test_first_reward(self):
        t = sel.ValueTable(2)
        t.update(0, (0,), 0.8)
        assert t.value(0, (0,)) == pytest.approx(0.8)
        assert t.snapshot()[0]["0"][1] == 1

    def test_running_mean(self):
        t = sel.ValueTable(1)
        t.update(0, (0, 1), 0.8)
        t.update(0, (0, 1), 0.9)
        assert t.value(0, (0, 1)) == pytest.approx(0.85)
        assert t.snapshot()[0]["0,1"][1] == 2
        t.update(0, (0, 1), 0.7)
        assert t.value(0, (0, 1)) == pytest.approx(0.8)
        assert t.snapshot()[0]["0,1"][1] == 3

    def test_isolation(self):
        t = sel.ValueTable(2)
        t.update(0, (0,), 0.8)
        t.update(1, (1,), 0.3)
        assert t.value(0, (0, 1)) is None
        assert t.value(1, (0, 1)) is None
        assert t.value(0, (0,)) == pytest.approx(0.8)

    def test_canonical_key_reuse(self):
        t = sel.ValueTable(1)
        t.update(0, [1, 0], 0.6)
        t.update(0, (0, 1), 0.8)
        assert t.value(0, {0, 1}) == pytest.approx(0.7)

    def test_non_finite_reward(self):
        t = sel.ValueTable(1)
        with pytest.raises(MetricError):
            t.update(0, (0,), float("nan"))

    def test_snapshot_is_json_friendly(self):
        t = sel.ValueTable(2)
        t.update(0, (0, 1), 0.5)
        json.dumps(t.snapshot())

    @pytest.mark.parametrize("d", [-1, 2, 5])
    def test_domain_outside_the_table(self, d):
        """A domain outside [0, D) raises a UsageError naming it, from
        every entry point, and credits no domain."""
        t = sel.ValueTable(2)
        t.update(1, (1,), 0.5)
        bound = ">= 0" if d < 0 else "<= 1"
        message = rf"^domain must be {bound}, got {d}$"
        with pytest.raises(UsageError, match=message):
            t.update(d, (1,), 0.9)
        with pytest.raises(UsageError, match=message):
            t.value(d, (1,))
        with pytest.raises(UsageError, match=message):
            sel.greedy(d, [(1,)], t)
        assert t.snapshot() == [{}, {"1": [0.5, 1]}]

    @pytest.mark.parametrize("count, message", [
        (0, "num_domains must be >= 1, got 0"),
        (-2, "num_domains must be >= 1, got -2"),
        (1.5, "num_domains must be an integer, got 1.5"),
        (True, "num_domains must be an integer, got True")])
    def test_bad_domain_count(self, count, message):
        with pytest.raises(UsageError) as info:
            sel.ValueTable(count)
        assert str(info.value) == message


class TestPolicyState:
    """The exploration policy's state as the training run keeps it: the
    probability p of the next round and the iterations a round follows.
    A round measures the prototypes of the train step before it."""

    @staticmethod
    def _run(**changes):
        return train.Run(tiny_config("sdsp").replace(
            explore_init=1.0, explore_decay=0.9, selection_interval=2,
            **changes))

    def test_single_decay(self):
        run = self._run()
        run.train_step()
        run.selection_round(0)
        assert run.trace[0]["p"] == 1.0
        assert run.p == pytest.approx(0.9)
        assert len(run.trace) == 1

    def test_geometric_decay(self):
        run = self._run()
        run.train_step()
        for i in range(7):
            run.selection_round(2 * i)
        assert run.p == pytest.approx(0.9 ** 7, rel=1e-12)

    def test_due_every_period(self, monkeypatch):
        fired = []
        selection_round = train.Run.selection_round

        def recording(run, iteration):
            fired.append(iteration)
            selection_round(run, iteration)

        monkeypatch.setattr(train.Run, "selection_round", recording)
        config = tiny_config("sdsp").replace(selection_interval=2)
        report = train.train(config).report
        iterations = report["epochs_run"] * report["steps_per_epoch"]
        assert iterations >= 7
        assert fired[:4] == [0, 2, 4, 6]
        assert fired == list(range(0, iterations, 2))


class TestSelect:
    def _cands(self):
        return [(0,), (0, 1), (0, 1, 2)]

    def test_pure_exploration_is_uniform(self):
        table = sel.ValueTable(1)
        rng = np.random.default_rng(0)
        counts = {c: 0 for c in self._cands()}
        n = 10_000
        for _ in range(n):
            choice, explored = sel.select(0, self._cands(), table, 1.0, rng)
            assert explored
            counts[choice] += 1
        for c, k in counts.items():
            assert abs(k / n - 1 / 3) < 0.05, c

    def test_pure_greedy_takes_best(self):
        table = sel.ValueTable(1)
        for subset, r in zip(self._cands(), (0.7, 0.9, 0.8)):
            table.update(0, subset, r)
        choice, explored = sel.select(0, self._cands(), table, 0.0,
                                      np.random.default_rng(1))
        assert choice == (0, 1)
        assert not explored
        assert sel.greedy(0, self._cands(), table) == (0, 1)

    def test_optimism_prefers_unvisited(self):
        table = sel.ValueTable(1)
        table.update(0, (0,), 0.99)
        table.update(0, (0, 1, 2), 0.98)
        choice, _ = sel.select(0, self._cands(), table, 0.0,
                               np.random.default_rng(2))
        assert choice == (0, 1)

    def test_tie_breaks_to_smallest(self):
        table = sel.ValueTable(1)
        for subset in self._cands():
            table.update(0, subset, 0.5)
        choice, _ = sel.select(0, self._cands(), table, 0.0,
                               np.random.default_rng(3))
        assert choice == (0,)

    def test_exploration_frequency_tracks_p(self):
        table = sel.ValueTable(1)
        for subset in self._cands():
            table.update(0, subset, 0.5)
        for p_target in (0.25, 0.5, 0.75):
            rng = np.random.default_rng(4)
            hits = sum(sel.select(0, self._cands(), table, p_target, rng)[1]
                       for _ in range(10_000))
            assert abs(hits / 10_000 - p_target) < 0.02

    def test_empty_candidates(self):
        with pytest.raises(UsageError):
            sel.select(0, [], sel.ValueTable(1), 0.0,
                       np.random.default_rng(0))
        with pytest.raises(UsageError):
            sel.greedy(0, [], sel.ValueTable(1))

    @pytest.mark.parametrize("p, draws", [(0.0, 1), (0.5, 1), (1.0, 2)])
    def test_draws_one_number_unless_exploring(self, p, draws):
        """select draws one uniform number, plus the random pick when it
        explores (seed 7's first draw is about 0.63); greedy draws none."""
        rng = np.random.default_rng(7)
        _, explored = sel.select(0, self._cands(), sel.ValueTable(1), p, rng)
        assert explored == (draws == 2)
        reference = np.random.default_rng(7)
        reference.random()
        if explored:
            reference.integers(3)
        assert rng.random() == reference.random()


class TestStationaryBanditConvergence:
    def test_settles_on_best_prefix(self):
        cands = [(0,), (0, 1), (0, 1, 2)]
        means = {(0,): 0.70, (0, 1): 0.82, (0, 1, 2): 0.75}
        hits = 0
        total = 0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            table = sel.ValueTable(1)
            p = 1.0
            active = (0, 1, 2)
            history = []
            for _ in range(1000):
                reward = means[active] + rng.normal(0.0, 0.02)
                table.update(0, active, reward)
                active, _ = sel.select(0, cands, table, p, rng)
                p *= 0.9
                history.append(active)
            hits += sum(1 for c in history[-100:] if c == (0, 1))
            total += 100
        assert hits / total >= 0.90


class FakeRewards:
    def __init__(self, values):
        self.values = values
        self.calls = []

    def __call__(self, d):
        self.calls.append(d)
        return self.values[d]


class TestSdspRound:
    def _matrix(self):
        return np.array([[0.0, 1.0, 2.0],
                         [1.0, 0.0, 2.0],
                         [2.0, 1.0, 0.0]])

    def test_full_flow(self):
        table = sel.ValueTable(3)
        rewards = FakeRewards([0.6, 0.7, 0.8])
        active = [(0, 1, 2)] * 3
        rng = np.random.default_rng(5)
        line = sel.sdsp_round(iteration=4, distance_fn=self._matrix,
                              reward_fn=rewards, active_subsets=active,
                              table=table, p=1.0, rng=rng)
        assert line["iteration"] == 4
        assert line["p"] == 1.0                  # probability used this round
        assert line["distance_matrix"] == self._matrix().tolist()
        assert line["rankings"][0] == [0, 1, 2]
        assert line["rankings"][2] == [2, 1, 0]
        assert line["rewards"] == [0.6, 0.7, 0.8]
        assert rewards.calls == [0, 1, 2]
        assert line["credited_subsets"] == [[0, 1, 2]] * 3
        assert line["explored"] == [True] * 3
        for d in range(3):
            assert table.value(d, (0, 1, 2)) == pytest.approx([0.6, 0.7, 0.8][d])
            assert d in line["chosen_subsets"][d]
        assert json.loads(json.dumps(line)) == line

    def test_greedy_round_uses_accumulated_values(self):
        table = sel.ValueTable(3)
        rankings = ([0, 1, 2], [1, 0, 2], [2, 1, 0])  # from self._matrix()
        for d in range(3):
            for subset in sel.candidate_states(rankings[d]):
                table.update(d, subset, 0.5)
            table.update(d, (d,), 0.9)  # singleton clearly best
        line = sel.sdsp_round(iteration=0, distance_fn=self._matrix,
                              reward_fn=FakeRewards([0.5, 0.5, 0.5]),
                              active_subsets=[(0,), (1,), (2,)],
                              table=table, p=0.0,
                              rng=np.random.default_rng(6))
        assert line["chosen_subsets"] == [[0], [1], [2]]
        assert line["explored"] == [False, False, False]

    def test_subset_count_mismatch(self):
        with pytest.raises(UsageError):
            sel.sdsp_round(0, self._matrix, FakeRewards([0.5] * 3),
                           [(0,)], sel.ValueTable(3), 1.0,
                           np.random.default_rng(0))
