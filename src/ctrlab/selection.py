"""Dynamic similar-domain selection.

Instead of searching all 2^(D-1) subsets that contain a domain, each domain
considers only the D prefixes of its distance ranking: {d}, {d, nearest},
..., everything. A per-domain value table scores each subset by the
running mean of the rewards (validation AUC) observed while it was active,
and an epsilon-greedy choice picks the next subset each selection round.

Reward attribution: a round first credits the reward measured now to the
subset that was active during the interval just ended, then selects anew.
A round returns its JSON-ready trace line; the caller owns the exploration
probability (decaying it once per round) and turns the chosen subsets into
gate masks. ``greedy`` alone is the pick without exploration, and draws no
random numbers.
"""

from __future__ import annotations

import numpy as np

from .data import as_int
from .errors import MetricError, UsageError
from .prototype import rank_domains

__all__ = ["candidate_states", "ValueTable", "greedy", "select",
           "sdsp_round", "canonical"]


def canonical(subset) -> tuple:
    """Canonical value-table key: sorted member tuple."""
    return tuple(sorted(int(s) for s in subset))


def candidate_states(ranking) -> list:
    """The D prefix subsets of a distance ranking, canonicalized.

    ranking must be a permutation of all domain ids starting with the
    domain itself; prefixes are returned smallest first.
    """
    ranking = [int(r) for r in ranking]
    if sorted(ranking) != list(range(len(ranking))):
        raise UsageError(
            f"ranking {ranking} is not a permutation of 0..{len(ranking) - 1}")
    return [canonical(ranking[:k + 1]) for k in range(len(ranking))]


class ValueTable:
    """Per-domain subset values: the running mean of credited rewards.

    The domain count is an integer >= 1 (``as_int``); a domain outside
    [0, count) raises a UsageError naming it.
    """

    def __init__(self, num_domains: int):
        self.num_domains = as_int(num_domains, "num_domains", UsageError,
                                  minimum=1)
        self._tables = [dict() for _ in range(self.num_domains)]

    def _table(self, d: int) -> dict:
        if not 0 <= d < self.num_domains:
            raise UsageError(f"domain {d} outside [0, {self.num_domains})")
        return self._tables[d]

    def update(self, d: int, subset, reward: float) -> None:
        """Fold one reward into the subset's running mean."""
        table = self._table(d)
        if not np.isfinite(reward):
            raise MetricError(f"reward for domain {d} is not finite: {reward}")
        key = canonical(subset)
        value, count = table.get(key, (0.0, 0))
        value = value + (float(reward) - value) / (count + 1)
        table[key] = (value, count + 1)

    def value(self, d: int, subset) -> float | None:
        entry = self._table(d).get(canonical(subset))
        return None if entry is None else entry[0]

    def snapshot(self) -> list:
        """JSON-friendly dump: per domain, {subset string: [value, count]}."""
        return [{",".join(map(str, k)): [v, c] for k, (v, c) in t.items()}
                for t in self._tables]


def greedy(d: int, candidates: list, table: ValueTable) -> tuple:
    """The candidate with the highest value.

    Unvisited subsets count as infinitely valuable, so every prefix gets
    tried even after exploration has decayed; ties go to the smallest
    subset (candidates arrive smallest first).
    """
    if not candidates:
        raise UsageError(f"domain {d} has no candidate subsets")
    best, best_value = None, -np.inf
    for subset in candidates:
        v = table.value(d, subset)
        v = np.inf if v is None else v
        if v > best_value:
            best, best_value = subset, v
    return best


def select(d: int, candidates: list, table: ValueTable, p: float,
           rng: np.random.Generator) -> tuple:
    """One epsilon-greedy choice; returns (subset, explored_flag).

    Draws one uniform number, and one more to pick a random candidate
    when that number falls within the exploration probability p.
    """
    rnd = rng.random()
    if p > 0.0 and rnd <= p:
        return candidates[int(rng.integers(len(candidates)))], True
    return greedy(d, candidates, table), False


def sdsp_round(iteration: int, distance_fn, reward_fn, active_subsets: list,
               table: ValueTable, p: float, rng: np.random.Generator) -> dict:
    """One selection round, in measurement order; returns its trace line.

    distance_fn() -> the domain-distance matrix of the latest prototypes;
    reward_fn(d) -> the domain's current validation metric. Credits each
    reward to the subset active until now, then picks each domain's next
    subset with exploration probability p.
    """
    matrix = distance_fn()
    num_domains = len(matrix)
    if len(active_subsets) != num_domains:
        raise UsageError(
            f"{len(active_subsets)} active subsets for {num_domains} domains")
    rankings = [rank_domains(matrix, d) for d in range(num_domains)]
    rewards = [float(reward_fn(d)) for d in range(num_domains)]
    credited = [canonical(s) for s in active_subsets]
    for d in range(num_domains):
        table.update(d, credited[d], rewards[d])
    picks = [select(d, candidate_states(rankings[d]), table, p, rng)
             for d in range(num_domains)]
    return {
        "iteration": iteration,
        "p": p,
        "distance_matrix": [[float(v) for v in row] for row in matrix],
        "rankings": rankings,
        "rewards": rewards,
        "credited_subsets": [list(s) for s in credited],
        "chosen_subsets": [list(s) for s, _ in picks],
        "explored": [e for _, e in picks],
    }
