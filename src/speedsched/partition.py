"""Bag-forming algorithms: how to group jobs before true speeds are known.

The pipeline has two stages.  Stage one (this module) sees only *predicted*
speeds and must commit to a partition of the jobs into ``m`` bags.  Stage two
(:mod:`speedsched.solvers`) places those bags, unsplit, on the machines once
true speeds are revealed.  A partition that blindly trusts the predictions is
unbeatable when they are right and unboundedly bad when they are wrong; a
speed-oblivious LPT split is safely mediocre either way.  Iterative partial
rebalancing interpolates: from the prediction-trusting bags, one per machine,
one loop repeatedly moves the smallest bag into the collection holding the
heaviest splittable bag and re-splits that collection, until the bags are
balanced to within a factor ``rho`` or a step would cost more than a
``(1 + alpha)`` factor under the predicted speeds.  :func:`ipr` runs it on
bags of jobs, :func:`fluid_ipr` on divisible loads (infinitesimal jobs).

No partitioner here calls a solver: each is handed its solved start, which
the caller computes and may share (see
:func:`speedsched.harness.make_partition`).  All tie-breaks are by lowest
index so every routine is deterministic.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import itemgetter, truediv
from typing import Callable, NamedTuple, Sequence, TypeVar

from .model import Assignment, Bag, IprState, Partition, bag_load, finite_floats, left_sum
from .solvers import SolveResult

_BagT = TypeVar("_BagT")


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


class IprResult(NamedTuple):
    """What :func:`ipr` returns: the final partition, its trace, and each
    final bag's load in partition order, bit for bit ``bag_load`` of the bag."""

    partition: Partition
    state: IprState
    loads: tuple[float, ...]


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
    # By index, then stably by load, largest first: the order of the key
    # (-load, index), as reverse=True keeps equal loads in index order.
    for load, j in sorted(sorted(items, key=itemgetter(1)), key=itemgetter(0), reverse=True):
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
    return Partition._of_sorted(tuple(_lpt_split([(p, j) for j, p in enumerate(loads)], k)))


def consistent_partition(
    jobs: Sequence[float], predicted_speeds: Sequence[float], placed: SolveResult
) -> Partition:
    """Partition that trusts the predictions: one bag per machine, the bags
    of ``placed``, a solve of the jobs on the *predicted* speeds.  A placement
    of another item or machine count, or naming a machine outside ``0..m-1``,
    raises ``ValueError``.

    Bags are reordered so loads are non-increasing, for :func:`ipr` to pair
    with the predicted speeds sorted non-increasing; this pairing never
    increases the makespan, so its makespan, ``ipr``'s ``opt_c_bar``, is
    exactly optimal for an exact solve.  This doubles as the
    prediction-trusting benchmark in experiments.
    """
    jobs = finite_floats(jobs, "job processing times", allow_zero=True, allow_empty=True)
    speeds = finite_floats(predicted_speeds, "predicted speeds")
    m = len(speeds)
    placement = placed.bag_to_machine
    if (len(placement), placed.m) != (len(jobs), m):
        raise ValueError(f"placement of {len(placement)} items on {placed.m} "
                         f"machines for {len(jobs)} jobs on {m} predicted speeds")
    if placement and not 0 <= min(placement) <= max(placement) < m:
        i = next(i for i in placement if not 0 <= i < m)
        raise ValueError(f"machine index {i} out of range for m={m}")
    # Each bag's jobs, and its load summed in that order, as bag_load would.
    bags: list[list[int]] = [[] for _ in range(m)]
    loads = [0.0] * m
    for j, i in enumerate(placement):
        bags[i].append(j)
        loads[i] += jobs[j]
    order = sorted(range(m), key=lambda i: (-loads[i], i))
    return Partition._of_sorted(tuple(tuple(bags[i]) for i in order))


def _check_start_jobs(bags: Sequence[Bag], n: int) -> None:
    """Reject a start formed for other jobs: its ``bags`` must hold each job
    index ``0..n-1`` once.  A count, each sorted bag's ends and one set union
    keep it cheap at a thousand jobs."""
    held = sum(map(len, bags))
    if held != n:
        raise ValueError(f"initial partition holds {held} jobs, not {n}")
    if any(bag and not 0 <= bag[0] <= bag[-1] < n for bag in bags) or len(set().union(*bags)) != n:
        raise ValueError(f"initial partition does not hold each of jobs 0..{n - 1} once")


def _rebalance(
    collections: list[list[_BagT]],
    loads: list[list[float]],
    speeds_desc: Sequence[float],
    rho: float,
    guard: float,
    load_of: Callable[[_BagT], float],
    splittable: Callable[[_BagT], bool],
    resplit: Callable[[list[_BagT]], list[_BagT]],
) -> tuple[list[list[_BagT]], list[list[float]], int, list[float]]:
    """The rebalance loop of :func:`ipr` and :func:`fluid_ipr`.

    ``collections[i]`` holds the bags of the machine with predicted speed
    ``speeds_desc[i]``, and ``loads[i]`` their loads, which the caller has
    summed already.  Each pass finds the first smallest bag and the
    collection holding the first heaviest ``splittable`` bag ("first" in
    collection order, then bag order), and stops when there is no
    splittable bag or it is at most ``rho`` times the smallest.  Otherwise
    it moves the smallest bag into that collection and ``resplit``s the
    collection into as many bags as it now holds.  Only
    those two collections change; the step is kept if the makespan under
    ``speeds_desc`` stays within ``guard``, and otherwise discarded, which
    ends the loop.

    Each collection's load sum, least load and greatest load are kept
    between steps, and recomputed only for the collections a step changes:
    the smallest bag's and the receiving one, the same collection when the
    step stays inside one.  So a pass finds its bags by scans in C: the
    first collection holding the least (greatest) of the kept loads, and the
    first bag of that load in it.  The loads are never NaN, so that is the
    bag a walk over every bag, keeping the first strictly smaller (larger)
    load, would find.  Only when that heaviest bag is not splittable does
    such a walk, in Python, look for the first heaviest splittable one.

    Returns the final collections and their bags' loads (a discarded
    step's loads are dropped with it), the steps tried (a discarded one
    included) and the smallest bag load at the start of each pass.
    """
    sums = [left_sum(coll_loads) for coll_loads in loads]
    # An empty collection has no bag, so it never holds the first smallest
    # or the first heaviest one.
    lows = [min(coll_loads, default=math.inf) for coll_loads in loads]
    highs = [max(coll_loads, default=-math.inf) for coll_loads in loads]
    history: list[float] = []
    iterations = 0
    safety = 16 * len(speeds_desc) * len(speeds_desc) + 64
    while True:
        min_load = min(lows)
        min_ci = lows.index(min_load)
        min_bi = loads[min_ci].index(min_load)
        max_load = max(highs)
        max_ci = highs.index(max_load)
        if not splittable(collections[max_ci][loads[max_ci].index(max_load)]):
            max_load, max_ci = -math.inf, -1
            for ci, coll_loads in enumerate(loads):
                for bi, load in enumerate(coll_loads):
                    if load > max_load and splittable(collections[ci][bi]):
                        max_load, max_ci = load, ci
        history.append(min_load)
        if max_ci < 0 or max_load <= rho * min_load:
            break
        iterations += 1
        if iterations > safety:
            raise RuntimeError(
                f"rebalance loop exceeded safety bound {safety}; this indicates a bug"
            )
        # Shallow copies: the tentative step rebuilds only the two collections.
        tentative, tentative_loads, tentative_sums = collections[:], loads[:], sums[:]
        source = collections[min_ci]
        tentative[min_ci] = source[:min_bi] + source[min_bi + 1 :]
        tentative_loads[min_ci] = loads[min_ci][:min_bi] + loads[min_ci][min_bi + 1 :]
        receiving = tentative[max_ci] + [source[min_bi]]
        tentative[max_ci] = resplit(receiving)
        tentative_loads[max_ci] = [load_of(bag) for bag in tentative[max_ci]]
        tentative_sums[min_ci] = left_sum(tentative_loads[min_ci])
        tentative_sums[max_ci] = left_sum(tentative_loads[max_ci])
        if max(map(truediv, tentative_sums, speeds_desc)) > guard:
            break
        collections, loads, sums = tentative, tentative_loads, tentative_sums
        for ci in (min_ci, max_ci):
            lows[ci] = min(loads[ci], default=math.inf)
            highs[ci] = max(loads[ci], default=-math.inf)
    return collections, loads, iterations, history


def ipr(
    jobs: Sequence[float],
    predicted_speeds: Sequence[float],
    config: IprConfig,
    initial: Partition,
) -> IprResult:
    """Iterative partial rebalancing.

    Starts from ``initial``, one bag per machine paired in order with the
    predicted speeds sorted fastest first, as :func:`consistent_partition`
    forms it from the caller's solve.  ``opt_c_bar`` is that pairing's
    makespan, and the rebalance loop runs with ``rho = config.rho`` and the
    guard ``(1 + alpha) * opt_c_bar``.  A bag is splittable when it holds at
    least two jobs, and a receiving collection's jobs are LPT-split into its
    bags.  A step the guard discards is undone, so the consistency guarantee
    holds by construction no matter how unbalanced the bags remain.  A start
    whose bag count is not the speed count, or whose bags do not hold each of
    the ``len(jobs)`` jobs once, raises ``ValueError``.

    Returns the final partition, an :class:`~speedsched.model.IprState`
    trace (iteration count and minimum-bag-load history), and the final
    bags' loads in partition order, as the rebalance loop kept them: each
    is ``bag_load`` of its bag, bit for bit, so stage two need not sum the
    bags again.  Every final bag is a start bag or one that the LPT split
    formed, canonical either way, so the result holds them without sorting
    them again.
    """
    jobs = finite_floats(jobs, "job processing times", allow_zero=True, allow_empty=True)
    speeds = finite_floats(predicted_speeds, "predicted speeds")
    start = initial.bags
    if len(start) != len(speeds):
        raise ValueError(f"initial partition has {len(start)} bags for {len(speeds)} speeds")
    _check_start_jobs(start, len(jobs))
    speeds_desc = sorted(speeds, reverse=True)

    def lpt_resplit(bags: list[Bag]) -> list[Bag]:
        return _lpt_split([(jobs[j], j) for bag in bags for j in bag], len(bags))

    # Each start bag is summed once, for the guard and the loop.
    start_loads = [bag_load(bag, jobs) for bag in start]
    opt_c_bar = max(map(truediv, start_loads, speeds_desc))
    collections, loads, iterations, history = _rebalance(
        [[bag] for bag in start],
        [[load] for load in start_loads],
        speeds_desc,
        config.rho,
        (1.0 + config.alpha) * opt_c_bar,
        lambda bag: bag_load(bag, jobs),
        lambda bag: len(bag) >= 2,
        lpt_resplit,
    )
    assignment = Assignment._of_sorted(tuple(map(tuple, collections)))
    state = IprState(
        assignment=assignment,
        opt_c_bar=opt_c_bar,
        iterations=iterations,
        b_min_history=tuple(history),
    )
    final_loads = tuple(load for coll_loads in loads for load in coll_loads)
    return IprResult(assignment.to_partition(), state, final_loads)


def fluid_ipr(
    total_load: float,
    predicted_speeds: Sequence[float],
    alpha: float,
    rho: float = 2.0,
) -> list[float]:
    """Continuous-load analogue of :func:`ipr` for infinitesimal jobs.

    The workload is a single divisible quantity, so bags are just positive
    loads.  Starts from loads proportional to the predicted speeds (which is
    prediction-optimal) and runs :func:`ipr`'s rebalance loop on them with the
    guard ``(1 + alpha)`` times that optimum: every bag is splittable, and a
    receiving collection's load is split into equal shares.  Returns the final
    bag loads in collection order.  Speeds whose sum overflows a float raise
    ``ValueError``: no share of the load could be computed from them.
    """
    speeds = finite_floats(predicted_speeds, "predicted speeds")
    (total_load,) = finite_floats([total_load], "total_load")
    IprConfig(alpha=alpha, rho=rho)  # validates ranges
    speeds_desc = sorted(speeds, reverse=True)
    total_speed = left_sum(speeds_desc)
    if total_speed == math.inf:
        raise ValueError("predicted speeds must have a finite sum")

    def equal_shares(bags: list[float]) -> list[float]:
        return [left_sum(bags) / len(bags)] * len(bags)

    shares = [total_load * s / total_speed for s in speeds_desc]
    collections, _, _, _ = _rebalance(
        [[share] for share in shares],
        [[share] for share in shares],
        speeds_desc,
        rho,
        (1.0 + alpha) * (total_load / total_speed),
        lambda load: load,
        lambda load: True,
        equal_shares,
    )
    return [load for coll in collections for load in coll]


def binary_speed_partition(
    jobs: Sequence[float], m: int, initial: Partition
) -> Partition:
    """Partition for all-or-nothing speeds: ``m_hat`` of the ``m`` machines are
    predicted usable, the rest predicted dead.

    ``initial`` is stage one's split of the jobs into ``m_hat`` subsets,
    :func:`consistent_partition` on ``m_hat`` unit speeds (exactly optimal
    for an exact solve), its subsets in non-increasing load order; ``m_hat``
    must be in ``1..m``, and the subsets must hold each of the ``len(jobs)``
    jobs once (else ``ValueError``).  Each subset is then LPT-split into either
    ``ceil(m / m_hat)`` or ``floor(m / m_hat)`` bags — the first
    ``m mod m_hat`` (heaviest) subsets get the extra bag — for ``m`` bags
    total.  Stage two places the bags with the chosen scheduler on the
    machines that turn out usable, however many there are.
    """
    m_hat = len(initial.bags)
    if not 1 <= m_hat <= m:
        raise ValueError(f"initial partition has {m_hat} subsets for {m} machines; need 1..{m}")
    _check_start_jobs(initial.bags, len(jobs))
    quotient, remainder = divmod(m, m_hat)
    bags: list[Bag] = []
    for idx, subset in enumerate(initial.bags):
        count = quotient + 1 if idx < remainder else quotient
        items = [(float(jobs[j]), j) for j in subset]
        bags.extend(_lpt_split(items, count))
    return Partition._of_sorted(tuple(bags))
