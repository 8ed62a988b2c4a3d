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
from bisect import insort
from dataclasses import dataclass
from operator import truediv
from typing import Sequence

from .model import CheckedFloats, Partition, bag_load, beta_ratio, finite_floats, left_sum

DEFAULT_NODE_BUDGET = 20_000_000
SCHEDULERS = ("exact", "lpt")
# The most items of positive load the exact solver searches: its search
# recurses once per item, and Python's default recursion limit of 1000
# frames must leave room for the caller's own.
MAX_EXACT_ITEMS = 500


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
    return _lower_bound(loads, speeds)


def _lower_bound(loads: list[float], speeds: list[float]) -> float:
    """:func:`opt_lower_bound`'s formula on loads and speeds the caller has
    validated with ``finite_floats``."""
    if not loads:
        return 0.0
    return max(left_sum(loads) / left_sum(speeds), max(loads) / max(speeds))


def lpt_schedule(loads: Sequence[float], speeds: Sequence[float]) -> SolveResult:
    """Greedy: items in non-increasing load order, each to the machine where it
    finishes earliest given current loads, ``(machine[i] + p) / speeds[i]``;
    ties break to the lowest machine index.  Deterministic, never
    optimal-flagged.

    The choice skips machines that provably cannot win, with no slack.  The
    items are taken in rounds of ``m``; at a round's start each machine gets
    the bound ``(machine[i] + low) / speeds[i]``, ``low`` being the round's
    last, smallest item.  Float addition and division by a positive speed
    round monotonically, so every item of the round finishes on machine ``i``
    at no less than its bound, bit for bit.  An item walks the machines in
    ``(bound, index)`` order, keeping the least ``(finish time, index)``, and
    stops at the first machine whose ``(bound, index)`` exceeds it: the index
    clause ends a run of equal bounds, as equal speeds make, at once.  Only the
    chosen machine's bound changes: it is recomputed from the new load and
    re-inserted in order.  The round's last item finishes at exactly its
    bound, so it takes the first machine unscanned.  At 1000 items on 50
    machines an item evaluates about 5 machines instead of 50; on a few items
    and at most 5 machines, as the exact solver's incumbent has, a call costs
    a few microseconds more than a plain scan of every machine.  Loads given
    as a :class:`~speedsched.model.CheckedFloats`, as an instance's jobs
    are, keep their order between calls, so the jobs of a sweep's instances
    are sorted once for all its points."""
    order = loads.descending() if type(loads) is CheckedFloats else None
    loads = finite_floats(loads, "item loads", allow_zero=True, allow_empty=True)
    speeds = finite_floats(speeds, "machine speeds")
    if order is None:
        # A reverse sort is stable: equal loads keep their index order.
        order = sorted(range(len(loads)), key=loads.__getitem__, reverse=True)
    m = len(speeds)
    assign = [0] * len(loads)
    machine = [0.0] * m
    ranked = list(zip(machine, range(m)))
    for start in range(0, len(order), m):
        *items, last = order[start : start + m]
        low = loads[last]
        # Built in the last round's order, which is nearly this one's.
        ranked = [((machine[i] + low) / speeds[i], i) for _, i in ranked]
        ranked.sort()
        for j in items:
            p = loads[j]
            # (inf, m) is above every (finish time, index), so the first
            # machine is always evaluated.
            best_v = math.inf
            best_i = m
            for entry in ranked:
                bound, i = entry
                if bound >= best_v and (bound > best_v or i > best_i):
                    break
                v = (machine[i] + p) / speeds[i]
                if v <= best_v and (v < best_v or i < best_i):
                    best_v = v
                    best_i = i
                    chosen = entry
            load = machine[best_i] + p
            machine[best_i] = load
            assign[j] = best_i
            # Found by value: cheaper than counting positions in the scan.
            ranked.remove(chosen)
            insort(ranked, ((load + low) / speeds[best_i], best_i))
        i = ranked[0][1]
        machine[i] += low
        assign[last] = i
    mk = max(map(truediv, machine, speeds))
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
    value: runs of equal-size items use non-decreasing machine indices, and
    a node skips a machine when a lower-index machine of the same speed had
    the same load when the node reached it.

    The second rule is kept as the ``(speed, load)`` pairs of the children a
    node has searched, each load read before its visit, and a child that
    passes the incumbent test is skipped when its pair is among them.  That
    skips the same children.  Take the lowest twin that had the child's
    load: the same load, item and speed give the same ratio, bit for bit,
    and the incumbent only falls, so the twin passed the incumbent test; no
    lower twin had that load, so the twin was not skipped; so it was
    searched and its pair recorded.  A machine whose speed no other machine
    has can have no twin, so its pairs are never kept.

    The loop is built for cost per node.  The last item's children, the
    complete placements, are handled inside their parent's loop rather than
    by a call each; each still counts as a node against the budget.  A node
    reads its item, its scan and whether it is last from one tuple per
    level; the scan is a tuple of ``(index, speed)`` pairs, every machine's
    for a level whose item differs from the one before, otherwise from the
    previous item's machine on, built by the first node that starts there.
    The incumbent is passed down and returned, everything a node reads is
    bound as a local, and a child's load plus its item is added once, as
    the ratio's numerator and the stored load.  The incumbent test reads the
    child's ratio alone: a node returns as soon as the incumbent falls to
    its floor, the larger of its own partial makespan (no later child can
    get below it) and the lower bound (the search is over), so its partial
    makespan stays below the incumbent.  Every node, leaf or not, adds its
    item to the machine and subtracts it again afterwards: the subtraction's
    rounding can leave the load a few ulps off, and the placements, makespan
    bits and node counts of later branches depend on that, so skipping the
    pair at a leaf would change results.  On the default experiment's calls
    this searches about 1.5-2.0M nodes/s (the solver alone on one CPU of a
    2-CPU Xeon, Python 3.11).

    Raises :class:`BudgetExceededError` after ``node_budget`` node expansions.
    The search recurses once per item of positive load, so an input whose
    greedy incumbent does not meet the lower bound and that has more than
    :data:`MAX_EXACT_ITEMS` (500) such items raises ``ValueError`` before
    any search; the recursion limit is never raised.
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
    static_lb = _lower_bound(loads, speeds)
    if incumbent.makespan <= static_lb:
        return SolveResult(incumbent.bag_to_machine, m, incumbent.makespan, optimal=True)

    # Equal loads keep their index order, as in lpt_schedule.
    order = [j for j in sorted(range(n), key=loads.__getitem__, reverse=True) if loads[j] > 0.0]
    k = len(order)
    if k > MAX_EXACT_ITEMS:
        raise ValueError(f"exact solver takes at most {MAX_EXACT_ITEMS} items of positive load, "
                         f"got {k} ({n} items, {m} machines)")
    sorted_loads = [loads[j] for j in order]
    # Per machine: whether another machine has its speed, as only then can
    # it have a twin.
    counts: dict[float, int] = {}
    for speed in speeds:
        counts[speed] = counts.get(speed, 0) + 1
    shared = [counts[speed] > 1 for speed in speeds]
    # The scans from each first index on: every machine's at once, the
    # others built by the first node that starts there, so that set-up is
    # O(m) however many speeds are equal.
    spans: list[tuple[tuple[int, float], ...] | None] = [None] * m
    full = spans[0] = tuple(enumerate(speeds))
    # Per level: the item; its scan, or None when it equals the item before
    # (its run takes machine indices from the previous item's on); whether
    # it is the last.
    levels = [
        (p, None if idx > 0 and p == sorted_loads[idx - 1] else full, idx == k - 1)
        for idx, p in enumerate(sorted_loads)
    ]

    best_assign: list[int] | None = None
    machine = [0.0] * m
    path = [0] * k
    nodes = 0

    # What every node reads is bound as a default: a local is read faster
    # than a variable of the enclosing call.
    def dfs(
        idx: int,
        cur_max: float,
        best: float,
        machine: list[float] = machine,
        path: list[int] = path,
        levels: list[tuple[float, tuple[tuple[int, float], ...] | None, bool]] = levels,
        spans: list[tuple[tuple[int, float], ...] | None] = spans,
        full: tuple[tuple[int, float], ...] = full,
        shared: list[bool] = shared,
        static_lb: float = static_lb,
        node_budget: int = node_budget,
    ) -> float:
        """Search below a node whose partial makespan is ``cur_max``; give
        back the incumbent, lowered or not."""
        nonlocal nodes, best_assign
        p, span, leaf = levels[idx]
        if span is None:
            start = path[idx - 1]
            span = spans[start]
            if span is None:
                span = spans[start] = full[start:]
        floor = cur_max if cur_max > static_lb else static_lb
        explored = None
        for i, speed in span:
            # q is both the ratio's numerator and the child's load.  cur_max
            # < best holds here (see the return below), so the child's
            # partial makespan reaches the incumbent iff its ratio does.
            q = machine[i] + p
            ratio = q / speed
            if ratio >= best:
                continue
            if shared[i]:
                # Keyed on the load before the visit: rounding in the
                # restoring subtraction below can move it before a later
                # twin is reached.
                twin = (speed, machine[i])
                if explored is None:
                    explored = {twin}
                elif twin in explored:
                    continue
                else:
                    explored.add(twin)
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError(
                    f"exact solver exceeded node budget {node_budget} "
                    f"({n} items, {m} machines)",
                    nodes_explored=nodes,
                )
            machine[i] = q
            path[idx] = i
            if leaf:
                # A complete placement below the incumbent: it becomes the
                # incumbent, searched no further.
                best = ratio if ratio > cur_max else cur_max
                best_assign = path.copy()
            else:
                best = dfs(idx + 1, ratio if ratio > cur_max else cur_max, best)
            # Not ``machine[i] = q - p``, and not skipped at a leaf: results,
            # and so the pinned experiment digests, depend on this
            # subtraction's rounding.
            machine[i] -= p
            if best <= floor:
                return best
        return best

    # Some item is positive here: all-zero items meet the bound at 0.0.
    best_val = dfs(0, 0.0, incumbent.makespan)

    if best_assign is None:
        assign = list(incumbent.bag_to_machine)
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
