"""Tests for the scheduling solvers: greedy, exact, merge, capacity-robust."""

import hashlib
import itertools
import math
import pickle
import sys
import time
import tracemalloc

import pytest

from speedsched.gen import SplitMix64, SyntheticConfig, gen_synthetic
from speedsched.model import Partition, bag_load, beta_ratio
from speedsched.solvers import (
    MAX_EXACT_ITEMS,
    BudgetExceededError,
    CapacityInfeasibleError,
    SolveResult,
    brute_force_makespan,
    capacity_robust_schedule,
    exact_schedule,
    lpt_schedule,
    merge_to_fit,
    opt_lower_bound,
    schedule,
)


def random_loads_speeds(rng, n_max=6, m_max=3):
    n = 1 + rng.next_u64() % n_max
    m = 1 + rng.next_u64() % m_max
    loads = [1.0 + 9.0 * rng.next_float() for _ in range(n)]
    speeds = [0.5 + 4.0 * rng.next_float() for _ in range(m)]
    return loads, speeds


# ---------------------------------------------------------------------------
# opt_lower_bound
# ---------------------------------------------------------------------------


def test_opt_lower_bound_examples():
    assert opt_lower_bound([3.0, 2.0, 2.0], (2.0, 1.0)) == pytest.approx(7.0 / 3.0)
    assert opt_lower_bound([1.0], (1.0, 1.0)) == 1.0
    assert opt_lower_bound([9.0], (2.0, 1.0)) == 4.5
    assert opt_lower_bound([], (1.0,)) == 0.0


def test_opt_lower_bound_never_exceeds_exact():
    rng = SplitMix64(301)
    for _ in range(100):
        loads, speeds = random_loads_speeds(rng)
        lb = opt_lower_bound(loads, speeds)
        opt = exact_schedule(loads, speeds).makespan
        assert lb <= opt + 1e-9 * max(1.0, opt)


# ---------------------------------------------------------------------------
# lpt_schedule
# ---------------------------------------------------------------------------


def test_lpt_schedule_example():
    res = lpt_schedule([4.0, 3.0, 2.0], (2.0, 1.0))
    assert res.bag_to_machine == (0, 1, 0)
    assert res.makespan == 3.0
    assert res.optimal is False


def test_lpt_schedule_ties_to_lowest_machine_index():
    res = lpt_schedule([1.0], (1.0, 1.0))
    assert res.bag_to_machine == (0,)


def test_lpt_schedule_reports_consistent_makespan():
    rng = SplitMix64(302)
    for _ in range(100):
        loads, speeds = random_loads_speeds(rng)
        res = lpt_schedule(loads, speeds)
        machine = [0.0] * len(speeds)
        for j, i in enumerate(res.bag_to_machine):
            machine[i] += loads[j]
        recomputed = max(l / s for l, s in zip(machine, speeds))
        assert res.makespan == pytest.approx(recomputed, rel=1e-12)


def plain_scan_lpt(loads, speeds):
    """LPT with a plain strict-``<`` scan of every machine: the reference
    :func:`lpt_schedule`'s pruned scan must match bit for bit."""
    machine = [0.0] * len(speeds)
    assign = [0] * len(loads)
    for j in sorted(range(len(loads)), key=loads.__getitem__, reverse=True):
        best_i, best_v = 0, (machine[0] + loads[j]) / speeds[0]
        for i in range(1, len(speeds)):
            v = (machine[i] + loads[j]) / speeds[i]
            if v < best_v:
                best_i, best_v = i, v
        machine[best_i] += loads[j]
        assign[j] = best_i
    return tuple(assign), max(x / s for x, s in zip(machine, speeds))


def lpt_reference_inputs():
    """Seeded inputs where a pruned scan can go wrong: ties everywhere, zero
    loads, one machine, fewer, as many and more items than machines, and a
    speed of 5e-324, on which every non-zero load finishes at ``inf``.  Then
    the shapes of the first round, where every machine starts empty: at most
    as many items as machines on many distinct speeds, runs of equal speeds,
    speeds one ulp apart (0.1 / 3.0 and 0.1 / 3.0000000000000004 round to
    the same finish time), and zero loads among positive ones."""
    rng = SplitMix64(306)

    def pick(values):
        return values[rng.next_u64() % len(values)]

    for case in range(3000):
        m = pick([1, 1, 2, 3, 4, 5, 8, 13, 40])
        n = max(pick([0, 1, m - 1, m, m + 1, 2 * m, 3 * m + 2, int(rng.next_u64() % 60)]), 0)
        kind = case % 5
        if kind == 0:  # integers: equal loads, equal speeds, equal finish times
            loads = [float(rng.next_u64() % 4) for _ in range(n)]
            speeds = [float(1 + rng.next_u64() % 3) for _ in range(m)]
        elif kind == 1:
            loads = [10.0 * rng.next_float() for _ in range(n)]
            speeds = [0.1 + 5.0 * rng.next_float() for _ in range(m)]
        elif kind == 2:  # finish times of inf, and ties among them
            loads = [float(rng.next_u64() % 3) for _ in range(n)]
            speeds = [pick([5e-324, 5e-324, 1e-300, 1.0, 2.0]) for _ in range(m)]
        elif kind == 3:  # loads that sum past the largest float
            loads = [pick([0.0, 1.0, 3.0, 1e308]) for _ in range(n)]
            speeds = [pick([1e-300, 0.5, 1.0]) for _ in range(m)]
        else:  # decimals, whose sums round
            loads = [pick([0.0, 0.1, 0.2, 0.3, 0.7]) for _ in range(n)]
            speeds = [pick([0.1, 0.3, 1.0, 3.0]) for _ in range(m)]
        yield loads, speeds

    rng = SplitMix64(307)
    for case in range(1200):
        m = pick([2, 3, 5, 8, 13, 40, 90])
        n = pick([1, m // 2, m - 1, m, m, m + 1, 2 * m + 1])
        kind = case % 4
        if kind == 0:  # many distinct speeds
            loads = [10.0 * rng.next_float() for _ in range(n)]
            speeds = [0.1 + 5.0 * rng.next_float() for _ in range(m)]
        elif kind == 1:  # runs of equal speeds, and equal loads
            speeds = []
            while len(speeds) < m:
                speeds += [pick([0.5, 1.0, 2.0, 3.0])] * (1 + rng.next_u64() % 6)
            speeds = speeds[:m]
            loads = [float(1 + rng.next_u64() % 5) for _ in range(n)]
        elif kind == 2:  # distinct speeds on which a load finishes at one time
            speeds = [pick([1.0, 1.0000000000000002, 3.0, 3.0000000000000004, 2.9999999999999996])
                      for _ in range(m)]
            loads = [pick([0.1, 0.2, 0.3, 1.0, 5e-324, 1e-323]) for _ in range(n)]
        else:  # zero loads among positive ones
            loads = [pick([0.0, -0.0, 0.0, 0.1, 1.0, 2.5, 7.0]) for _ in range(n)]
            speeds = [pick([0.5, 1.0, 0.1 + 5.0 * rng.next_float()]) for _ in range(m)]
        yield loads, speeds


def test_lpt_schedule_matches_plain_scan():
    for loads, speeds in lpt_reference_inputs():
        res = lpt_schedule(loads, speeds)
        assign, makespan = plain_scan_lpt(loads, speeds)
        assert (res.bag_to_machine, res.makespan.hex()) == (assign, makespan.hex()), (loads, speeds)


def test_lpt_schedule_on_many_equal_machines():
    # A shape gen.MAX_SHAPE admits.  Every item is in the first round: it
    # evaluates the lowest-index empty machine, skips the other 99,999 of
    # that speed at once, and stops at the first loaded machine's bound,
    # where a plain scan would evaluate all of them.
    res = lpt_schedule([1.0] * 200, [1.0] * 100_000)
    assert res.bag_to_machine == tuple(range(200))
    assert res.makespan == 1.0


def test_lpt_schedule_places_many_bags_on_many_speeds_in_near_linear_time():
    # Stage two's shape in the many-machine regime: as many varied bags as
    # distinct speeds, one round.  A scan that bounds each empty machine by
    # the round's smallest bag evaluates about half of them per bag and took
    # 17 s here on a 2-CPU Xeon VM; the speed-ordered scan takes 0.04 s.  The
    # digest is of the placement and makespan bits that scan returned.
    rng = SplitMix64(308)
    loads = [1.0 + 9.0 * rng.next_float() for _ in range(20_000)]
    speeds = [0.5 + 4.0 * rng.next_float() for _ in range(20_000)]
    assert len(set(speeds)) == 20_000
    start = time.perf_counter()
    res = lpt_schedule(loads, speeds)
    assert time.perf_counter() - start < 2.0
    digest = hashlib.sha256(repr((res.bag_to_machine, res.makespan.hex())).encode()).hexdigest()
    assert digest == "eb547f98737167bc1b86ac70526f08efe323ed3d4b3c97279950e6b38dff3cf2"


# ---------------------------------------------------------------------------
# exact_schedule
# ---------------------------------------------------------------------------


def test_exact_schedule_examples():
    assert exact_schedule([3.0, 2.0, 2.0], (2.0, 1.0)).makespan == pytest.approx(2.5)
    assert exact_schedule([1.0], (1.0, 1.0)).makespan == 1.0
    assert exact_schedule([1.0, 1.0, 1.0, 1.0], (1.0, 1.0)).makespan == 2.0


def test_exact_schedule_empty_input():
    res = exact_schedule([], (1.0, 1.0))
    assert res.makespan == 0.0
    assert res.optimal is True
    assert res.bag_to_machine == ()


def test_exact_schedule_result_is_self_consistent():
    rng = SplitMix64(303)
    for _ in range(100):
        loads, speeds = random_loads_speeds(rng)
        res = exact_schedule(loads, speeds)
        assert res.optimal is True
        machine = [0.0] * len(speeds)
        for j, i in enumerate(res.bag_to_machine):
            machine[i] += loads[j]
        recomputed = max(l / s for l, s in zip(machine, speeds))
        assert res.makespan == pytest.approx(recomputed, rel=1e-12)


def test_exact_schedule_matches_brute_force():
    rng = SplitMix64(304)
    for _ in range(150):
        loads, speeds = random_loads_speeds(rng)
        opt = exact_schedule(loads, speeds).makespan
        ref = brute_force_makespan(loads, speeds)
        assert opt == pytest.approx(ref, rel=1e-12)


def milp_makespan(jobs, speeds):
    """Makespan of an optimal assignment found by an independent MILP (HiGHS):
    binary ``x[j, i]`` puts job ``j`` on machine ``i``; ``C`` bounds every
    machine's finishing time and is minimised.  The makespan is recomputed
    from the assignment, so solver tolerances cannot leak into it."""
    optimize = pytest.importorskip("scipy.optimize")
    import numpy as np

    n, m = len(jobs), len(speeds)
    assign = np.zeros((n, n * m + 1))
    capacity = np.zeros((m, n * m + 1))
    for j in range(n):
        assign[j, j * m:(j + 1) * m] = 1.0
        for i in range(m):
            capacity[i, j * m + i] = jobs[j]
    capacity[:, -1] = [-s for s in speeds]
    cost = np.zeros(n * m + 1)
    cost[-1] = 1.0
    res = optimize.milp(
        cost,
        constraints=[
            optimize.LinearConstraint(assign, 1.0, 1.0),
            optimize.LinearConstraint(capacity, -np.inf, 0.0),
        ],
        integrality=[1] * (n * m) + [0],
        bounds=optimize.Bounds(0.0, [1.0] * (n * m) + [np.inf]),
        options={"mip_rel_gap": 0.0},
    )
    assert res.success, res.message
    loads = [0.0] * m
    for j in range(n):
        loads[int(np.argmax(res.x[j * m:(j + 1) * m]))] += jobs[j]
    return max(load / s for load, s in zip(loads, speeds))


@pytest.mark.parametrize("n, m, seeds", [(12, 4, range(20)), (15, 5, range(3))])
def test_exact_schedule_matches_independent_milp(n, m, seeds):
    # The experiments' shapes, far beyond what brute force can enumerate.
    for seed in seeds:
        inst = gen_synthetic(SyntheticConfig(n=n, m=m, seed=seed))
        opt = exact_schedule(inst.jobs, inst.true_speeds).makespan
        ref = milp_makespan(inst.jobs, inst.true_speeds)
        assert opt == pytest.approx(ref, rel=1e-9), seed


def test_exact_schedule_never_beaten_by_greedy():
    rng = SplitMix64(305)
    for _ in range(150):
        loads, speeds = random_loads_speeds(rng)
        opt = exact_schedule(loads, speeds).makespan
        greedy = lpt_schedule(loads, speeds).makespan
        assert opt <= greedy + 1e-9 * max(1.0, greedy)


def test_exact_schedule_handles_many_equal_items():
    # Symmetry reductions keep regular inputs cheap; the value must still be
    # the obvious one.
    res = exact_schedule([1.0] * 12, (1.0, 1.0, 1.0, 1.0))
    assert res.makespan == 3.0


@pytest.mark.parametrize(
    "loads, speeds, makespan, searched, peak_mb",
    [
        # Distinct speeds: the search runs, on the three fastest machines.
        ([1.0] * 3, [2.0 - i / 20_000 for i in range(20_000)], 1.0 / (2.0 - 2 / 20_000), True, 32),
        # Equal speeds: greedy meets the lower bound, so no search runs.
        ([3.0, 2.0], [1.0] * 5_000, 3.0, False, 32),
        # The same with many items: search set-up, one list of m tried loads
        # per item, would take 5.2 MB here; greedy alone takes 0.6 MB.
        ([1.0] * 60, [1.0] * 10_000, 1.0, False, 2),
    ],
    ids=["distinct-speeds", "equal-speeds", "equal-speeds-many-items"],
)
def test_exact_schedule_set_up_is_linear_in_machines(loads, speeds, makespan, searched, peak_mb):
    # A few items on many machines: the search is tiny, so set-up sized m^2
    # would dominate.  A tuple of machine indices for every first index, or
    # for every machine the lower-index machines of its speed, would take
    # gigabytes or a hundred megabytes here, and comparing every pair of
    # speeds seconds; this takes megabytes and milliseconds.
    tracemalloc.start()
    try:
        res = exact_schedule(loads, speeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.nodes_explored > 0) == searched
    assert res.makespan == makespan
    assert peak < peak_mb * 2**20


def pinned_exact_inputs():
    for err_sigma in (0.0, 8.0, 20.0):
        for seed in range(30):
            inst = gen_synthetic(SyntheticConfig(n=12, m=4, err_sigma=err_sigma, seed=seed))
            yield inst.jobs, inst.true_speeds
            yield inst.jobs, inst.predicted_speeds
    for seed in range(6):
        inst = gen_synthetic(SyntheticConfig(n=15, m=5, err_sigma=8.0, seed=seed))
        yield inst.jobs, inst.true_speeds
        yield inst.jobs, inst.predicted_speeds
    # Integer jobs on speeds 1 and 2: equal-speed machines with equal loads,
    # so the symmetry rules decide which branches are searched.
    rng = SplitMix64(77)
    for _ in range(300):
        n = 1 + rng.next_u64() % 10
        m = 1 + rng.next_u64() % 4
        jobs = [float(1 + rng.next_u64() % 9) for _ in range(n)]
        speeds = [(1.0, 2.0)[rng.next_u64() % 2] for _ in range(m)]
        yield jobs, speeds
    # Float jobs on identical machines: a restoring subtraction can leave a
    # machine's load a few ulps off, so which twins compare equal depends on it.
    rng = SplitMix64(78)
    for _ in range(100):
        n = 1 + rng.next_u64() % 9
        m = 2 + rng.next_u64() % 2
        yield [100.0 * rng.next_float() for _ in range(n)], [1.0] * m


def test_exact_schedule_results_pinned():
    # Placements, makespans to the last bit and node counts on a fixed corpus:
    # a change to the search order, its pruning or its float rounding shows
    # here even where the experiment CSVs round it away.  Change the digest
    # only together with a deliberate change to the solver's results.
    digest = hashlib.sha256()
    for loads, speeds in pinned_exact_inputs():
        res = exact_schedule(loads, speeds)
        key = (res.bag_to_machine, res.makespan.hex(), res.nodes_explored)
        digest.update(repr(key).encode())
    assert digest.hexdigest() == (
        "961f5260449b19613f5a34b2ce9f2fdd1f5df5aed5dc1642b2f48ff9abf05c71"
    )


def test_exact_schedule_rejects_more_items_than_its_search_recurses_through():
    # The search recurses once per item of positive load: past
    # MAX_EXACT_ITEMS it raises ValueError (no node searched), not a
    # RecursionError, and the recursion limit stays as it was.
    limit = sys.getrecursionlimit()
    message = (f"^exact solver takes at most {MAX_EXACT_ITEMS} items of positive load, "
               r"got 1000 \(1000 items, 3 machines\)$")
    with pytest.raises(ValueError, match=message):
        exact_schedule([50.0] * 1000, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="got 501 \\(503 items"):
        exact_schedule([50.0] * 501 + [0.0, 0.0], [1.0, 2.0, 3.0], node_budget=1)
    # At the limit the search runs, as deep as there are items, until the
    # budget stops it.
    with pytest.raises(BudgetExceededError):
        exact_schedule([50.0] * MAX_EXACT_ITEMS, [1.0, 2.0, 3.0], node_budget=2 * MAX_EXACT_ITEMS)
    # The greedy incumbent's check comes first: when it meets the lower
    # bound, any number of items is solved without a search.
    res = exact_schedule([50.0] * 1000, [1.0] * 50)
    assert (res.makespan, res.nodes_explored, res.optimal) == (1000.0, 0, True)
    assert sys.getrecursionlimit() == limit


def test_exact_schedule_budget_error():
    with pytest.raises(BudgetExceededError) as excinfo:
        exact_schedule([3.0, 2.0, 2.0], (2.0, 1.0), node_budget=1)
    assert excinfo.value.nodes_explored > 1
    # Every searched input of the pinned corpus again, on half its nodes: the
    # search is cut mid-way, so the message and the node at which the budget
    # trips are pinned for the paths that ran out, and the result for those
    # of one node.  Change the digest only together with
    # test_exact_schedule_results_pinned's.
    digest = hashlib.sha256()
    tripped = 0
    for loads, speeds in pinned_exact_inputs():
        nodes = exact_schedule(loads, speeds).nodes_explored
        if nodes == 0:
            continue
        try:
            res = exact_schedule(loads, speeds, node_budget=max(1, nodes // 2))
            key = (res.bag_to_machine, res.makespan.hex(), res.nodes_explored)
        except BudgetExceededError as exc:
            tripped += 1
            key = (str(exc), exc.nodes_explored)
        digest.update(repr(key).encode())
    assert tripped == 377
    assert digest.hexdigest() == (
        "9cc27085bf5e52a97cacf8e07a762c2904f51d68baa453da320577123ff3cbdd"
    )


SYNTHETIC_12X4 = gen_synthetic(SyntheticConfig(n=12, m=4, err_sigma=8.0, seed=1))


@pytest.mark.parametrize(
    "loads, speeds, searched",
    [
        (SYNTHETIC_12X4.jobs, SYNTHETIC_12X4.true_speeds, True),
        # The greedy incumbent puts a single item on the fastest machine,
        # which meets the lower bound, so no node is searched at all.
        ([0.0, 5.0, 0.0], (1.0, 2.0), False),
        ([0.0, 3.0, 0.0, 2.0], (2.0, 1.0), True),
        ([1.0] * 7, (1.0, 1.0, 1.0), True),
    ],
    ids=["synthetic-12x4", "one-positive-item", "two-positive-items", "equal-items-and-speeds"],
)
def test_exact_schedule_budget_counts_every_node(loads, speeds, searched):
    # Complete placements are searched inside their parent's loop, yet each
    # still counts as a node: a budget of exactly the nodes explored suffices,
    # and one fewer fails on the last of them.
    res = exact_schedule(loads, speeds)
    n_nodes = res.nodes_explored
    assert exact_schedule(loads, speeds, node_budget=n_nodes) == res
    assert (n_nodes > 0) == searched
    if searched:
        with pytest.raises(BudgetExceededError) as excinfo:
            exact_schedule(loads, speeds, node_budget=n_nodes - 1)
        assert excinfo.value.nodes_explored == n_nodes


def test_solve_result_fields():
    res = SolveResult((0,), 1, 2.0, optimal=True, nodes_explored=5)
    assert (res.bag_to_machine, res.m, res.makespan) == ((0,), 1, 2.0)
    assert res.nodes_explored == 5


# ---------------------------------------------------------------------------
# merge_to_fit
# ---------------------------------------------------------------------------


def test_merge_to_fit_examples():
    assert merge_to_fit([4.0, 3.0, 2.0, 1.0], 2) == [4.0, 6.0]
    assert merge_to_fit([4.0, 3.0], 2) == [4.0, 3.0]
    assert merge_to_fit([1.0, 1.0, 1.0], 1) == [3.0]
    assert merge_to_fit([0.0, 4.0, 3.0], 2) == [0.0, 4.0, 3.0]
    assert merge_to_fit([5.0, 1.0, 0.0, 1.0, 4.0], 3) == [5.0, 2.0, 0.0, 4.0]


def test_merge_to_fit_rejects_bad_m0():
    with pytest.raises(ValueError):
        merge_to_fit([1.0], 0)


def test_merge_to_fit_properties():
    rng = SplitMix64(306)
    for _ in range(100):
        n = 1 + rng.next_u64() % 8
        m0 = 1 + rng.next_u64() % 4
        loads = [float(rng.next_u64() % 5) for _ in range(n)]
        merged = merge_to_fit(loads, m0)
        assert sum(merged) == pytest.approx(sum(loads), rel=1e-12)
        assert sum(1 for x in merged if x > 0.0) <= max(m0, 0)
        if loads:
            assert max(merged, default=0.0) >= max(loads)


def test_budget_error_pickles_with_its_message_and_node_count():
    try:
        try:
            exact_schedule([5.0, 4.0, 3.0, 3.0, 2.0], (1.0, 1.0), node_budget=2)
        except BudgetExceededError as exc:
            raise BudgetExceededError(f"{exc} [where]", nodes_explored=exc.nodes_explored) from exc
    except BudgetExceededError as exc:
        error = exc
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is BudgetExceededError
    assert (str(copy), copy.nodes_explored) == (str(error), error.nodes_explored)
    assert str(copy).endswith(" [where]") and copy.nodes_explored > 2


# ---------------------------------------------------------------------------
# brute_force_makespan
# ---------------------------------------------------------------------------


def test_brute_force_examples():
    assert brute_force_makespan([3.0, 2.0, 2.0], (2.0, 1.0)) == pytest.approx(2.5)
    assert brute_force_makespan([], (1.0,)) == 0.0


def product_brute_force(loads, speeds):
    """The plain ``m**k`` enumeration: every assignment from
    ``itertools.product``, each machine's load summed from 0.0 in item order."""
    m = len(speeds)
    if not loads:
        return 0.0
    best = math.inf
    for assign in itertools.product(range(m), repeat=len(loads)):
        machine = [0.0] * m
        for j, i in enumerate(assign):
            machine[i] += loads[j]
        best = min(best, max(machine[i] / speeds[i] for i in range(m)))
    return best


def test_brute_force_has_the_bits_of_the_product_enumeration():
    rng = SplitMix64(309)
    for _ in range(300):
        k = 1 + rng.next_u64() % 8
        m = 1 + rng.next_u64() % 3
        loads = [0.0 if rng.next_u64() % 5 == 0 else 100.0 * rng.next_float() for _ in range(k)]
        speeds = [0.5 + 4.0 * rng.next_float() for _ in range(m)]
        if rng.next_u64() % 3 == 0:
            speeds = [speeds[0]] * m
        got = brute_force_makespan(loads, speeds)
        assert got.hex() == product_brute_force(loads, speeds).hex(), (loads, speeds)
    loads = [0.1 * (j % 7) for j in range(3000)]
    assert brute_force_makespan(loads, (3.0,)).hex() == product_brute_force(loads, (3.0,)).hex()


def test_brute_force_rejects_huge_enumeration():
    with pytest.raises(ValueError):
        brute_force_makespan([1.0] * 9, (1.0,) * 10)


# ---------------------------------------------------------------------------
# capacity_robust_schedule
# ---------------------------------------------------------------------------


def test_capacity_robust_balanced_example():
    part = Partition(bags=((0, 1), (2, 3), (4, 5)))
    jobs = [2.0, 2.0, 2.0, 1.0, 2.0, 1.0]
    res = capacity_robust_schedule(part, jobs, (4.0, 3.0, 3.0))
    assert res.makespan == 1.0
    assert res.bag_to_machine == (0, 1, 2)


def test_capacity_robust_unit_example():
    part = Partition(bags=((0, 1), (2,), (3,)))
    res = capacity_robust_schedule(part, [1.0, 1.0, 1.0, 1.0], (2.0, 1.0, 1.0))
    assert res.makespan == 1.0
    assert res.bag_to_machine == (0, 1, 2)


def test_capacity_robust_single_bag():
    part = Partition(bags=((0,),))
    res = capacity_robust_schedule(part, [5.0], (1.0,))
    assert res.makespan == 5.0


def test_capacity_robust_within_factor_of_optimal():
    """The certificate: makespan <= max(2, beta) * optimal job-level makespan."""
    rng = SplitMix64(307)
    for _ in range(100):
        n = 2 + rng.next_u64() % 6
        m = 1 + rng.next_u64() % 3
        jobs = [1.0 + 9.0 * rng.next_float() for _ in range(n)]
        speeds = [0.5 + 4.0 * rng.next_float() for _ in range(m)]
        # Random partition into m non-empty-or-empty bags.
        bags = [[] for _ in range(m)]
        for j in range(n):
            bags[rng.next_u64() % m].append(j)
        part = Partition(bags=tuple(tuple(b) for b in bags))
        beta = beta_ratio(part, jobs)
        if beta == float("inf"):
            continue
        res = capacity_robust_schedule(part, jobs, speeds)
        opt = exact_schedule(jobs, speeds).makespan
        bound = max(2.0, beta) * opt
        assert res.makespan <= bound + 1e-9 * max(1.0, bound)
        loads = [0.0] * m
        for bag, i in zip(part.bags, res.bag_to_machine):
            loads[i] += bag_load(bag, jobs)
        assert sum(loads) == pytest.approx(sum(jobs), rel=1e-12)




def test_capacity_robust_handles_oversized_singletons():
    rng = SplitMix64(308)
    for _ in range(50):
        m = 2 + rng.next_u64() % 2
        small = [0.5 + rng.next_float() for _ in range(3)]
        big = [20.0 + 10.0 * rng.next_float() for _ in range(m - 1)]
        jobs = big + small
        bags = [(k,) for k in range(len(big))] + [tuple(range(len(big), len(jobs)))]
        part = Partition(bags=tuple(bags))
        speeds = [0.5 + 4.0 * rng.next_float() for _ in range(m)]
        res = capacity_robust_schedule(part, jobs, speeds)
        opt = exact_schedule(jobs, speeds).makespan
        beta = beta_ratio(part, jobs)
        bound = max(2.0, beta) * opt
        assert res.makespan <= bound + 1e-9 * max(1.0, bound)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


def test_schedule_runs_the_named_scheduler():
    loads, speeds = [3.0, 2.0, 2.0, 1.0], [1.5, 1.0]
    assert schedule(loads, speeds, "exact", 1000) == exact_schedule(loads, speeds, 1000)
    assert schedule(loads, speeds, "lpt", 1) == lpt_schedule(loads, speeds)
    with pytest.raises(BudgetExceededError):
        schedule(loads, speeds, "exact", 1)
    with pytest.raises(ValueError, match=r"^scheduler must be one of \('exact', 'lpt'\)$"):
        schedule(loads, speeds, "greedy", 1000)
