"""Bag-forming algorithms: how to group jobs before true speeds are known.

The pipeline has two stages.  Stage one (this module) sees only *predicted*
speeds and must commit to a partition of the jobs into ``m`` bags.  Stage two
(:mod:`speedsched.solvers`) places those bags, unsplit, on the machines once
true speeds are revealed.  A partition that blindly trusts the predictions is
unbeatable when they are right and unboundedly bad when they are wrong; a
speed-oblivious LPT split is safely mediocre either way.  The iterative
partial rebalancing algorithm (:func:`ipr`) interpolates: it starts from the
prediction-trusting partition and evens out bag loads until either the bags
are balanced to within a factor ``rho`` or further evening would cost more
than a ``(1 + alpha)`` factor under the predicted speeds.

All tie-breaks are by lowest index so every routine is deterministic.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .model import Assignment, Bag, IprState, Partition, bag_load, finite_floats, left_sum
from .solvers import DEFAULT_NODE_BUDGET, SolveResult, schedule


@dataclass(frozen=True)
class IprConfig:
    """Knobs for :func:`ipr`.

    ``alpha`` bounds the tolerated loss under predicted speeds: the final
    assignment's predicted-speed makespan never exceeds ``(1 + alpha)`` times
    the initial prediction-trusting one.  ``rho`` is the bag-balance target the
    rebalance loop drives toward (4 in general; 2 suffices when all jobs are
    equal).
    """

    alpha: float
    rho: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha!r}")
        if not self.rho >= 1.0:
            raise ValueError(f"rho must be >= 1, got {self.rho!r}")


class ConsistentPartition(NamedTuple):
    partition: Partition
    opt_c_bar: float


class IprResult(NamedTuple):
    partition: Partition
    state: IprState


def _lpt_split(items: Sequence[tuple[float, int]], k: int) -> list[Bag]:
    """Split (load, job-index) items into ``k`` bags: items in non-increasing
    load order, each to the currently least-loaded bag, ties to the lowest
    bag index.  Bags may come out empty when there are fewer items than bags.

    The bags sit in a heap of ``(load, bag index)``, so the pick costs
    O(log k) and equal loads still go to the lowest index; each new load is
    the old one plus the item, as in a plain scan."""
    if k < 1:
        raise ValueError("bag count must be at least 1")
    bags: list[list[int]] = [[] for _ in range(k)]
    heap = [(0.0, i) for i in range(k)]
    for load, j in sorted(items, key=lambda t: (-t[0], t[1])):
        least, target = heap[0]
        bags[target].append(j)
        heapq.heapreplace(heap, (least + load, target))
    return [tuple(sorted(b)) for b in bags]


def lpt_partition(jobs: Sequence[float], k: int) -> Partition:
    """Speed-oblivious baseline: LPT-split all jobs into ``k`` bags.

    The resulting bags are balanced to within a factor 2 (largest multi-job
    bag over smallest bag), which is what makes the baseline robust no matter
    how wrong the speed predictions were.
    """
    loads = finite_floats(jobs, "job processing times", allow_zero=True, allow_empty=True)
    return Partition(tuple(_lpt_split([(p, j) for j, p in enumerate(loads)], k)))


def consistent_partition(
    jobs: Sequence[float],
    predicted_speeds: Sequence[float],
    solver: str = "exact",
    node_budget: int = DEFAULT_NODE_BUDGET,
    solves: dict[tuple, SolveResult] | None = None,
) -> ConsistentPartition:
    """Partition that trusts the predictions: one bag per machine, computed by
    scheduling the jobs on the *predicted* speeds (memoised in ``solves``, see
    :func:`~speedsched.solvers.schedule`).

    Bags are reordered so loads are non-increasing, paired with the predicted
    speeds sorted non-increasing; this pairing never increases the makespan, so
    ``opt_c_bar`` (the makespan of the returned pairing under predicted speeds)
    equals the solver's value — exactly optimal for ``solver="exact"``.  This
    doubles as the prediction-trusting benchmark in experiments.
    """
    speeds = finite_floats(predicted_speeds, "predicted speeds")
    m = len(speeds)
    result = schedule(jobs, speeds, solver, node_budget, solves)
    groups: list[list[int]] = [[] for _ in range(m)]
    for j, i in enumerate(result.schedule.bag_to_machine):
        groups[i].append(j)
    bags = [tuple(sorted(g)) for g in groups]
    loads = [bag_load(b, jobs) for b in bags]
    order = sorted(range(m), key=lambda i: (-loads[i], i))
    bags_desc = tuple(bags[i] for i in order)
    loads_desc = [loads[i] for i in order]
    speeds_desc = sorted(speeds, reverse=True)
    opt_c_bar = max(
        load / s for load, s in zip(loads_desc, speeds_desc)
    )
    return ConsistentPartition(Partition(bags_desc), opt_c_bar)


def _global_min_bag(
    collections: Sequence[Sequence[Bag]], load_of: Callable[[Bag], float]
) -> tuple[int, int, float]:
    min_ci = min_bi = -1
    min_load = math.inf
    for ci, coll in enumerate(collections):
        for bi, bag in enumerate(coll):
            load = load_of(bag)
            if load < min_load:
                min_load, min_ci, min_bi = load, ci, bi
    if min_ci < 0:
        raise ValueError("no bags to rebalance")
    return min_ci, min_bi, min_load


def _rebalance_once(
    collections: list[list[Bag]], jobs: Sequence[float], load_of: Callable[[Bag], float]
) -> tuple[list[list[Bag]], float, int]:
    """One rebalance step; returns (new collections, receiving-collection load, bag count).

    Moves the globally smallest bag into the collection holding the largest
    multi-job bag, then re-splits that collection's jobs into as many bags as
    it now holds via LPT.  Only those two collections change; the total bag
    count is conserved.  ``load_of(bag)`` is the bag's load,
    ``bag_load(bag, jobs)``.
    """
    min_ci, min_bi, _ = _global_min_bag(collections, load_of)
    max_ci = -1
    max_load = -1.0
    for ci, coll in enumerate(collections):
        for bag in coll:
            if len(bag) >= 2:
                load = load_of(bag)
                if load > max_load:
                    max_load, max_ci = load, ci
    if max_ci < 0:
        raise ValueError("rebalance requires a bag with at least two jobs")
    new = [list(coll) for coll in collections]
    moved = new[min_ci].pop(min_bi)
    new[max_ci].append(moved)
    ell = len(new[max_ci])
    items = [(float(jobs[j]), j) for bag in new[max_ci] for j in bag]
    total = left_sum(load for load, _ in items)
    new[max_ci] = _lpt_split(items, ell)
    return new, total, ell


def ipr(
    jobs: Sequence[float],
    predicted_speeds: Sequence[float],
    config: IprConfig,
    initial: ConsistentPartition,
) -> IprResult:
    """Iterative partial rebalancing.

    Starts from ``initial``, the prediction-trusting partition
    ``consistent_partition(jobs, predicted_speeds, solver)`` under whichever
    solver the caller chose (one bag per machine, machines taken in
    non-increasing predicted-speed order), and repeatedly
    applies the rebalance step while some multi-job bag is more than
    ``config.rho`` times heavier than the smallest bag.  Each tentative step is
    vetted under the predicted speeds: if it would push the assignment's
    makespan beyond ``(1 + alpha)`` times the initial value, the step is
    discarded and the loop stops, so the consistency guarantee holds by
    construction no matter how unbalanced the bags remain.

    Each bag's load is computed once per call: bags are immutable and every
    job sits in exactly one bag, so a bag's load is looked up by the bag.

    Returns the final partition plus an :class:`~speedsched.model.IprState`
    trace (iteration count, minimum-bag-load history, last rebalance stats).
    """
    speeds = finite_floats(predicted_speeds, "predicted speeds")
    speeds_desc = sorted(speeds, reverse=True)
    collections: list[list[Bag]] = [[bag] for bag in initial.partition.bags]
    guard = (1.0 + config.alpha) * initial.opt_c_bar

    history: list[float] = []
    iterations = 0
    last_load: float | None = None
    last_count: int | None = None
    safety = 16 * len(speeds) * len(speeds) + 64
    known: dict[Bag, float] = {}

    def load_of(bag: Bag) -> float:
        load = known.get(bag)
        if load is None:
            load = known[bag] = bag_load(bag, jobs)
        return load

    while True:
        all_loads = [load_of(bag) for coll in collections for bag in coll]
        multi_loads = [load_of(bag) for coll in collections for bag in coll if len(bag) >= 2]
        b_min = min(all_loads)
        history.append(b_min)
        if not multi_loads or max(multi_loads) <= config.rho * b_min:
            break
        iterations += 1
        if iterations > safety:
            raise RuntimeError(
                f"rebalance loop exceeded safety bound {safety}; this indicates a bug"
            )
        tentative, moved_load, moved_count = _rebalance_once(collections, jobs, load_of)
        last_load, last_count = moved_load, moved_count
        tentative_makespan = max(
            left_sum(load_of(bag) for bag in coll) / s
            for coll, s in zip(tentative, speeds_desc)
        )
        if tentative_makespan > guard:
            break
        collections = tentative

    assignment = Assignment(tuple(tuple(coll) for coll in collections))
    state = IprState(
        assignment=assignment,
        opt_c_bar=initial.opt_c_bar,
        iterations=iterations,
        b_min_history=tuple(history),
        last_rebalance_load=last_load,
        last_rebalance_count=last_count,
    )
    return IprResult(assignment.to_partition(), state)


def fluid_ipr(
    total_load: float,
    predicted_speeds: Sequence[float],
    alpha: float,
    rho: float = 2.0,
) -> list[float]:
    """Continuous-load analogue of :func:`ipr` for infinitesimal jobs.

    The workload is a single divisible quantity, so bags are just positive
    loads and every bag is splittable.  Starts from loads proportional to the
    predicted speeds (which is prediction-optimal), then rebalances with the
    same move/re-split/guard structure, with the balance condition taken over
    all bags.  Returns the final bag loads in collection order.
    """
    speeds = finite_floats(predicted_speeds, "predicted speeds")
    (total_load,) = finite_floats([total_load], "total_load")
    IprConfig(alpha=alpha, rho=rho)  # validates ranges
    speeds_desc = sorted(speeds, reverse=True)
    total_speed = left_sum(speeds_desc)
    collections: list[list[float]] = [[total_load * s / total_speed] for s in speeds_desc]
    guard = (1.0 + alpha) * (total_load / total_speed)
    safety = 16 * len(speeds) * len(speeds) + 64
    iterations = 0

    while True:
        flat = [(load, ci, bi) for ci, coll in enumerate(collections) for bi, load in enumerate(coll)]
        b_min = min(load for load, _, _ in flat)
        b_max = max(load for load, _, _ in flat)
        if b_max <= rho * b_min:
            break
        iterations += 1
        if iterations > safety:
            raise RuntimeError(
                f"fluid rebalance loop exceeded safety bound {safety}; this indicates a bug"
            )
        min_ci, min_bi = next((ci, bi) for load, ci, bi in flat if load == b_min)
        max_ci = next(ci for load, ci, _ in flat if load == b_max)
        tentative = [list(coll) for coll in collections]
        moved = tentative[min_ci].pop(min_bi)
        tentative[max_ci].append(moved)
        ell = len(tentative[max_ci])
        within = left_sum(tentative[max_ci])
        tentative[max_ci] = [within / ell] * ell
        tentative_makespan = max(
            left_sum(coll) / s for coll, s in zip(tentative, speeds_desc)
        )
        if tentative_makespan > guard:
            break
        collections = tentative

    return [load for coll in collections for load in coll]


def binary_speed_partition(
    jobs: Sequence[float],
    m: int,
    m_hat: int,
    solver: str = "exact",
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Partition:
    """Partition for all-or-nothing speeds: ``m_hat`` of the ``m`` machines are
    predicted usable, the rest predicted dead.

    Stage one splits the jobs into ``m_hat`` subsets as if scheduling on
    ``m_hat`` identical machines (exactly optimal with ``solver="exact"``);
    subsets are taken in non-increasing load order.  Each subset is then
    LPT-split into either ``ceil(m / m_hat)`` or ``floor(m / m_hat)`` bags —
    the first ``m mod m_hat`` (heaviest) subsets get the extra bag — for ``m``
    bags total.  Stage two places the bags with the chosen scheduler on the
    machines that turn out usable, however many there are.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 1 <= m_hat <= m:
        raise ValueError(f"m_hat must be in 1..{m}, got {m_hat}")
    initial = consistent_partition(jobs, [1.0] * m_hat, solver, node_budget)
    quotient, remainder = divmod(m, m_hat)
    bags: list[Bag] = []
    for idx, subset in enumerate(initial.partition.bags):
        count = quotient + 1 if idx < remainder else quotient
        items = [(float(jobs[j]), j) for j in subset]
        bags.extend(_lpt_split(items, count))
    return Partition(tuple(bags))
