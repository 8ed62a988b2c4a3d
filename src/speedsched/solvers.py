"""Schedulers for placing indivisible load items onto machines with speeds.

The two workhorses are :func:`lpt_schedule` (longest-processing-time greedy,
fast, ratio at most 2 on related machines) and :func:`exact_schedule` (a
depth-first branch and bound after Horowitz & Sahni, JACM 1976, with incumbent
pruning, an early stop at the trivial lower bound and symmetry skips; optimal
on small inputs, it raises :class:`BudgetExceededError` rather than silently
degrading); :func:`schedule` runs the one named in :data:`SCHEDULERS`.
Items may be raw jobs or whole bags; the solvers only see loads.

Also here: the trivial makespan lower bound, a full-enumeration oracle used by
tests and the verification harness, a capacity-guarded greedy that turns any
sufficiently balanced partition into a schedule with a certified makespan
ratio, and the smallest-pair bag merge of the paper's all-or-nothing lemma
(checked by the verification harness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .model import Partition, bag_load, beta_ratio, finite_floats, left_sum

DEFAULT_NODE_BUDGET = 20_000_000
SCHEDULERS = ("exact", "lpt")


class BudgetExceededError(RuntimeError):
    """Raised when the exact solver's node budget runs out.

    The solver never returns a possibly sub-optimal answer: hitting the budget
    is an error the caller must handle (retry with a bigger budget or switch to
    the greedy scheduler).
    """

    def __init__(self, message: str, nodes_explored: int = 0) -> None:
        super().__init__(message)
        self.nodes_explored = nodes_explored


class CapacityInfeasibleError(RuntimeError):
    """Internal-invariant failure: the capacity-guarded greedy found no feasible machine."""


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a scheduling call: item ``k`` on machine
    ``bag_to_machine[k]`` of ``0..m-1``, and the makespan.  ``optimal`` is
    True only for the exact solver; ``nodes_explored`` counts branch-and-bound
    nodes (0 for greedy results).
    """

    bag_to_machine: tuple[int, ...]
    m: int
    makespan: float
    optimal: bool
    nodes_explored: int = 0


def opt_lower_bound(loads: Sequence[float], speeds: Sequence[float]) -> float:
    """Cheap makespan lower bound: total work over total speed, and the largest
    item on the fastest machine.  Exact solutions can never beat this."""
    loads = finite_floats(loads, "item loads", allow_zero=True, allow_empty=True)
    speeds = finite_floats(speeds, "machine speeds")
    if not loads:
        return 0.0
    return max(left_sum(loads) / left_sum(speeds), max(loads) / max(speeds))


def lpt_schedule(loads: Sequence[float], speeds: Sequence[float]) -> SolveResult:
    """Greedy: items in non-increasing load order, each to the machine where it
    finishes earliest given current loads; ties break to the lowest machine
    index.  Deterministic, never optimal-flagged.  The scan over machines is
    a plain loop with a strict ``<`` over a prebuilt tuple of indices: at the
    50-machine experiment shape it is faster than a list or ``map`` argmin,
    or than a ``range`` built per item."""
    loads = finite_floats(loads, "item loads", allow_zero=True, allow_empty=True)
    speeds = finite_floats(speeds, "machine speeds")
    m = len(speeds)
    assign = [0] * len(loads)
    machine = [0.0] * m
    rest = tuple(range(1, m))
    first_speed = speeds[0]
    # A reverse sort is stable: equal loads keep their index order.
    for j in sorted(range(len(loads)), key=loads.__getitem__, reverse=True):
        p = loads[j]
        best_i = 0
        best_v = (machine[0] + p) / first_speed
        for i in rest:
            v = (machine[i] + p) / speeds[i]
            if v < best_v:
                best_v = v
                best_i = i
        machine[best_i] += p
        assign[j] = best_i
    mk = max(machine[i] / speeds[i] for i in range(m))
    return SolveResult(tuple(assign), m, mk, optimal=False, nodes_explored=0)


def exact_schedule(
    loads: Sequence[float],
    speeds: Sequence[float],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SolveResult:
    """Minimum-makespan placement by depth-first branch and bound.

    Intended for small inputs (roughly <= 15 items, <= 5 machines).  The
    incumbent starts as the greedy solution; a child is searched only if its
    partial makespan stays strictly below the incumbent's, and the search stops
    once the incumbent meets :func:`opt_lower_bound`; when the greedy
    incumbent meets it already, it is returned before any search set-up is
    built.  There is no capacity bound: a child that passes the incumbent
    test leaves room for all unplaced work whenever the incumbent exceeds
    total work over total speed.  Two symmetry reductions keep regular inputs
    (equal items, equal machines) tractable without affecting the optimal
    value: a machine is skipped when a lower-index machine of equal speed had
    the same load when this node tried it, and runs of equal-size items use
    non-decreasing machine indices.

    The loop is built for cost per node.  The last item's children, the
    complete placements, are handled inside their parent's loop rather than
    by a call each; each still counts as a node against the budget.  A node
    reads its item, flags and tried loads from one tuple per level, and scans
    a tuple of machine indices from its first index on, built by the first
    node that starts there.  Its incumbent test reads the child's ratio
    alone: the node's own partial makespan stays below the incumbent,
    because the node returns once the incumbent falls to it.  That test runs
    before the twin test, and the loads tried per node are kept, and twins
    scanned, only when two speeds are equal.  Every node, leaf or not, adds
    its item to the machine and subtracts it again afterwards: the
    subtraction's rounding can leave the load a few ulps off, and the
    placements, makespan bits and node counts of later branches depend on
    that, so skipping the pair at a leaf would change results.
    On the default experiment's calls this searches about 1.0-1.6M nodes/s
    (the solver alone on one CPU of a 2-CPU Xeon, Python 3.11).

    Raises :class:`BudgetExceededError` after ``node_budget`` node expansions.
    Ties in the returned placement are resolved deterministically (items in
    non-increasing load order, lowest machine index first).
    """

    loads = finite_floats(loads, "item loads", allow_zero=True, allow_empty=True)
    speeds = finite_floats(speeds, "machine speeds")
    m = len(speeds)
    n = len(loads)
    if n == 0:
        return SolveResult((), m, 0.0, optimal=True, nodes_explored=0)

    incumbent = lpt_schedule(loads, speeds)
    static_lb = opt_lower_bound(loads, speeds)
    if incumbent.makespan <= static_lb:
        return SolveResult(incumbent.bag_to_machine, m, incumbent.makespan, optimal=True)

    # Equal loads keep their index order, as in lpt_schedule.
    order = [j for j in sorted(range(n), key=loads.__getitem__, reverse=True) if loads[j] > 0.0]
    sorted_loads = [loads[j] for j in order]
    k = len(order)
    # Symmetric machines: per machine, the indices of every machine of its
    # speed in ascending order, one list shared by the group, so that set-up
    # is O(m) however many speeds are equal.
    same_speed: dict[float, list[int]] = {}
    for i, speed in enumerate(speeds):
        same_speed.setdefault(speed, []).append(i)
    twins = [same_speed[speed] for speed in speeds]
    symmetric = len(same_speed) < m
    # Per level: the item; whether it equals the one before (its run takes
    # machine indices from the previous item's on); whether it is the last;
    # and, when two speeds are equal, the loads its node tried.
    levels = [
        (p, idx > 0 and p == sorted_loads[idx - 1], idx == k - 1, [0.0] * m if symmetric else None)
        for idx, p in enumerate(sorted_loads)
    ]
    # The machines a node scans, from each first index on, built by the first
    # node to scan them: the set-up never costs more than the search.
    spans: list[tuple[int, ...] | None] = [None] * m

    best_val = incumbent.makespan
    best_assign: list[int] | None = None
    machine = [0.0] * m
    path = [0] * k
    nodes = 0

    def dfs(idx: int, cur_max: float) -> bool:
        nonlocal nodes, best_val, best_assign
        p, repeat, leaf, tried = levels[idx]
        start = path[idx - 1] if repeat else 0
        span = spans[start]
        if span is None:
            span = spans[start] = tuple(range(start, m))
        for i in span:
            load = machine[i]
            if symmetric:
                # The load each machine had when this node reached it: rounding
                # in the restoring subtraction below can move it before a later
                # twin is reached.
                tried[i] = load
            # cur_max < best_val holds here (see the return below), so the
            # child's partial makespan reaches the incumbent iff its ratio does.
            ratio = (load + p) / speeds[i]
            if ratio >= best_val:
                continue
            if symmetric:
                twin_tried = False
                for j in twins[i]:
                    if j >= i:
                        break
                    if j >= start and tried[j] == load:
                        twin_tried = True
                        break
                if twin_tried:
                    continue
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError(
                    f"exact solver exceeded node budget {node_budget} "
                    f"({n} items, {m} machines)",
                    nodes_explored=nodes,
                )
            new_max = ratio if ratio > cur_max else cur_max
            machine[i] = load + p
            path[idx] = i
            if leaf:
                # A complete placement below the incumbent: it becomes the
                # incumbent, searched no further.
                best_val = new_max
                best_assign = path.copy()
                finished = new_max <= static_lb
            else:
                finished = dfs(idx + 1, new_max)
            # Not ``machine[i] = load``, and not skipped at a leaf: results,
            # and so the pinned experiment digests, depend on this
            # subtraction's rounding.
            machine[i] -= p
            if finished:
                return True
            if cur_max >= best_val:
                # The incumbent fell to this node's own partial makespan:
                # no later child can get below it.
                return False
        return False

    # Some item is positive here: all-zero items meet the bound at 0.0.
    dfs(0, 0.0)

    if best_assign is None:
        assign = list(incumbent.bag_to_machine)
        best_val = incumbent.makespan
    else:
        assign = [0] * n
        for idx, j in enumerate(order):
            assign[j] = best_assign[idx]
    return SolveResult(tuple(assign), m, best_val, optimal=True, nodes_explored=nodes)


def schedule(
    loads: Sequence[float],
    speeds: Sequence[float],
    scheduler: str,
    node_budget: int,
) -> SolveResult:
    """Place the items with the named scheduler: ``"exact"`` is
    :func:`exact_schedule` within ``node_budget`` nodes, ``"lpt"`` is
    :func:`lpt_schedule`.  Any other name raises ``ValueError``."""
    if scheduler == "exact":
        return exact_schedule(loads, speeds, node_budget)
    if scheduler == "lpt":
        return lpt_schedule(loads, speeds)
    raise ValueError(f"scheduler must be one of {SCHEDULERS}")


def brute_force_makespan(loads: Sequence[float], speeds: Sequence[float]) -> float:
    """Minimum makespan by full ``m**k`` enumeration.  Test oracle only: shares
    no search code with :func:`exact_schedule`.  Each item goes on each
    machine in turn, carrying the largest ratio so far; a load is restored by
    assignment, so it is always its items' left-to-right sum from 0.0."""
    loads = finite_floats(loads, "item loads", allow_zero=True, allow_empty=True)
    speeds = finite_floats(speeds, "machine speeds")
    m = len(speeds)
    k = len(loads)
    if k == 0:
        return 0.0
    if m**k > 50_000_000:
        raise ValueError(f"enumeration of {m}**{k} assignments is too large")
    if m == 1:  # the one assignment, without recursing once per item
        return left_sum(loads) / speeds[0]
    machine = [0.0] * m
    last = k - 1

    def best(j: int, worst: float) -> float:
        value = math.inf
        for i in range(m):
            before = machine[i]
            ratio = (before + loads[j]) / speeds[i]
            if ratio < worst:
                ratio = worst
            if j < last:
                machine[i] = before + loads[j]
                ratio = best(j + 1, ratio)
                machine[i] = before
            if ratio < value:
                value = ratio
        return value

    return best(0, 0.0)


def merge_to_fit(loads: Sequence[float], m0: int) -> list[float]:
    """Repeatedly merge the two smallest non-empty bag loads until at most
    ``m0`` non-empty loads remain.

    Each merge removes the two smallest positive loads (ties broken by lower
    index) and puts their sum at the earlier of the two positions, so a list
    that already fits comes back unchanged.  Total load is preserved and the
    maximum load never decreases.
    """
    if m0 < 1:
        raise ValueError("m0 must be at least 1")
    merged = finite_floats(loads, "item loads", allow_zero=True, allow_empty=True)
    while sum(1 for x in merged if x > 0.0) > m0:
        first, second = sorted(
            (i for i, x in enumerate(merged) if x > 0.0),
            key=lambda i: (merged[i], i),
        )[:2]
        lo, hi = min(first, second), max(first, second)
        merged[lo] = merged[first] + merged[second]
        del merged[hi]
    return merged


def capacity_robust_schedule(
    partition: Partition,
    jobs: Sequence[float],
    speeds: Sequence[float],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SolveResult:
    """Schedule a partition's bags under per-machine capacities that certify a
    makespan within ``max(2, beta)`` of the optimal job-level schedule, where
    ``beta`` is the partition's balance ratio.

    Construction: speeds are rescaled so total speed equals total work; the
    oversized singleton bags (single jobs larger than every multi-job bag) are
    placed first, by the exact solver on those bags alone; every machine gets
    capacity ``max(2, beta) * scaled_speed``, raised by its oversized-singleton
    load when that alone exceeds the capacity; remaining bags go largest-first
    to the least-loaded machine with room.  Failure to fit is an internal-invariant
    violation and raises :class:`CapacityInfeasibleError` loudly.

    The returned makespan is measured under the original (unscaled) speeds.
    """
    jobs = finite_floats(jobs, "job processing times", allow_zero=True, allow_empty=True)
    speeds = finite_floats(speeds, "machine speeds")
    m = len(speeds)
    n_bags = partition.m
    loads = [bag_load(bag, jobs) for bag in partition.bags]

    total_p = left_sum(jobs)
    total_s = left_sum(speeds)
    scale = total_p / total_s
    scaled = [s * scale for s in speeds]

    beta = beta_ratio(partition, jobs)
    factor = beta if beta > 2.0 else 2.0

    max_multi = 0.0
    for bag, load in zip(partition.bags, loads):
        if len(bag) >= 2 and load > max_multi:
            max_multi = load
    big_singletons = [
        k for k, bag in enumerate(partition.bags) if len(bag) == 1 and loads[k] > max_multi
    ]

    machine = [0.0] * m
    place: list[int | None] = [None] * n_bags
    nodes = 0
    if big_singletons:
        sub = exact_schedule([loads[k] for k in big_singletons], speeds, node_budget)
        nodes = sub.nodes_explored
        for k, i in zip(big_singletons, sub.bag_to_machine):
            place[k] = i
            machine[i] += loads[k]

    caps = []
    for i in range(m):
        base = factor * scaled[i]
        caps.append(base if machine[i] <= base else base + machine[i])

    rest = sorted(
        (k for k in range(n_bags) if place[k] is None),
        key=lambda k: (-loads[k], k),
    )
    for k in rest:
        best_i = -1
        for i in range(m):
            if machine[i] + loads[k] <= caps[i] and (best_i < 0 or machine[i] < machine[best_i]):
                best_i = i
        if best_i < 0:
            raise CapacityInfeasibleError(
                f"no machine can take bag {k} (load {loads[k]!r}) under capacities"
            )
        machine[best_i] += loads[k]
        place[k] = best_i

    final = tuple(int(i) for i in place)  # type: ignore[arg-type]
    mk = max(machine[i] / speeds[i] for i in range(m)) if n_bags else 0.0
    return SolveResult(final, m, mk, optimal=False, nodes_explored=nodes)
