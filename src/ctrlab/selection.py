"""Dynamic similar-domain selection.

Instead of searching all 2^(D-1) subsets that contain a domain, each domain
considers only the D prefixes of its distance ranking: {d}, {d, nearest},
..., everything. A per-domain value table scores each subset by the
running mean of the rewards (validation AUC) observed while it was active,
and a decaying epsilon-greedy policy picks the next subset each selection
round. Chosen subsets are turned into gate masks by the backbone.

Reward attribution: a round first credits the reward measured now to the
subset that was active during the interval just ended, then selects anew.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backbone import build_mask
from .errors import ConfigError, MetricError, UsageError
from .prototype import rank_domains

__all__ = ["candidate_states", "ValueTable", "PolicyState", "select",
           "RoundRecord", "sdsp_round", "canonical"]


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
    """Per-domain subset values: the running mean of credited rewards."""

    def __init__(self, num_domains: int):
        self.num_domains = int(num_domains)
        self._tables = [dict() for _ in range(self.num_domains)]

    def update(self, d: int, subset, reward: float) -> None:
        """Fold one reward into the subset's running mean."""
        if not np.isfinite(reward):
            raise MetricError(f"reward for domain {d} is not finite: {reward}")
        key = canonical(subset)
        value, count = self._tables[d].get(key, (0.0, 0))
        value = value + (float(reward) - value) / (count + 1)
        self._tables[d][key] = (value, count + 1)

    def value(self, d: int, subset) -> float | None:
        entry = self._tables[d].get(canonical(subset))
        return None if entry is None else entry[0]

    def count(self, d: int, subset) -> int:
        entry = self._tables[d].get(canonical(subset))
        return 0 if entry is None else entry[1]

    def snapshot(self) -> list:
        """JSON-friendly dump: per domain, {subset string: [value, count]}."""
        return [{",".join(map(str, k)): [v, c] for k, (v, c) in t.items()}
                for t in self._tables]


@dataclass
class PolicyState:
    """Decaying epsilon-greedy state; p never increases."""

    p: float
    decay_rate: float
    period: int
    rounds: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"exploration probability must be in [0,1]: {self.p}")
        if not 0.0 < self.decay_rate <= 1.0:
            raise ConfigError(f"decay rate must be in (0,1]: {self.decay_rate}")
        if self.period < 1:
            raise ConfigError(f"selection period must be >= 1: {self.period}")

    def due(self, iteration: int) -> bool:
        return iteration % self.period == 0

    def decay(self) -> None:
        self.p *= self.decay_rate
        self.rounds += 1


def select(d: int, candidates: list, table: ValueTable, policy: PolicyState,
           rng: np.random.Generator) -> tuple:
    """One epsilon-greedy choice; returns (subset, explored_flag).

    Greedy treats unvisited subsets as infinitely valuable so every prefix
    gets tried even after exploration has decayed; ties go to the smallest
    subset (candidates arrive smallest first).
    """
    if not candidates:
        raise UsageError(f"domain {d} has no candidate subsets")
    rnd = rng.random()
    if policy.p > 0.0 and rnd <= policy.p:
        return candidates[int(rng.integers(len(candidates)))], True
    best, best_value = None, -np.inf
    for subset in candidates:
        v = table.value(d, subset)
        v = np.inf if v is None else v
        if v > best_value:
            best, best_value = subset, v
    return best, False


@dataclass
class RoundRecord:
    """Everything one selection round measured and decided."""

    iteration: int
    p: float
    matrix: np.ndarray
    rankings: list
    rewards: list
    credited: list
    chosen: list
    explored: list
    masks: np.ndarray

    def trace_line(self) -> dict:
        return {
            "iteration": self.iteration,
            "p": self.p,
            "distance_matrix": [[float(v) for v in row] for row in self.matrix],
            "rankings": [list(map(int, r)) for r in self.rankings],
            "rewards": [float(r) for r in self.rewards],
            "credited_subsets": [list(s) for s in self.credited],
            "chosen_subsets": [list(s) for s in self.chosen],
            "explored": [bool(e) for e in self.explored],
        }


def sdsp_round(iteration: int, distance_fn, reward_fn, active_subsets: list,
               table: ValueTable, policy: PolicyState, rng: np.random.Generator,
               expert_counts) -> RoundRecord:
    """One selection round, in measurement order.

    distance_fn() -> fresh domain-distance matrix; reward_fn(d) -> the
    domain's current validation metric. Credits each reward to the subset
    active until now, then picks new subsets, rebuilds masks, and decays p.
    """
    num_domains = len(expert_counts)
    if len(active_subsets) != num_domains:
        raise UsageError(
            f"{len(active_subsets)} active subsets for {num_domains} domains")
    matrix = distance_fn()
    rankings = [rank_domains(matrix, d) for d in range(num_domains)]
    candidates = [candidate_states(r) for r in rankings]
    rewards = [float(reward_fn(d)) for d in range(num_domains)]
    credited = [canonical(s) for s in active_subsets]
    for d in range(num_domains):
        table.update(d, credited[d], rewards[d])
    p_used = policy.p
    chosen, explored = [], []
    for d in range(num_domains):
        subset, was_random = select(d, candidates[d], table, policy, rng)
        chosen.append(subset)
        explored.append(was_random)
    masks = build_mask(chosen, expert_counts)
    policy.decay()
    return RoundRecord(iteration=iteration, p=p_used, matrix=matrix,
                       rankings=rankings, rewards=rewards, credited=credited,
                       chosen=chosen, explored=explored, masks=masks)
