"""Tests for bag-building: baselines, iterative rebalancing, binary speeds."""

import builtins
import hashlib
import math

import pytest

from speedsched import partition
from speedsched.gen import SplitMix64, SyntheticConfig, gen_synthetic
from speedsched.model import (
    Assignment,
    Partition,
    bag_load,
    beta_ratio,
    left_sum,
    validate_partition,
)
from speedsched.partition import (
    IprConfig,
    _lpt_split,
    _rebalance,
    binary_speed_partition,
    consistent_partition,
    fluid_ipr,
    lpt_partition,
)
from speedsched.solvers import DEFAULT_NODE_BUDGET, SolveResult, lpt_schedule, schedule

UNIT = 1.0


def bag_loads(part, jobs):
    return [bag_load(b, jobs) for b in part.bags]


def trusting(jobs, speeds, solver="exact"):
    """The prediction-trusting partition of the jobs, solved by ``solver``."""
    return consistent_partition(jobs, speeds, schedule(jobs, speeds, solver, DEFAULT_NODE_BUDGET))[0]


def predicted_makespan(part, jobs, speeds):
    """The bags' makespan with bag ``k`` on the ``k``-th fastest speed."""
    return max(bag_load(b, jobs) / s for b, s in zip(part.bags, sorted(speeds, reverse=True)))


def ipr(jobs, speeds, config):
    """:func:`speedsched.partition.ipr` from the exact prediction-trusting
    partition."""
    return partition.ipr(jobs, speeds, config, trusting(jobs, speeds))


def binary(jobs, m, m_hat):
    """:func:`binary_speed_partition` from the exact split into ``m_hat`` subsets."""
    return binary_speed_partition(jobs, m, trusting(jobs, [1.0] * m_hat))


# ---------------------------------------------------------------------------
# IprConfig validation
# ---------------------------------------------------------------------------


def test_ipr_config_defaults():
    cfg = IprConfig(alpha=0.5)
    assert cfg.rho == 4.0


def test_ipr_config_rejects_bad_alpha():
    for alpha in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            IprConfig(alpha=alpha)


def test_ipr_config_rejects_bad_rho():
    with pytest.raises(ValueError):
        IprConfig(alpha=0.5, rho=0.5)


# ---------------------------------------------------------------------------
# lpt_partition
# ---------------------------------------------------------------------------


def test_lpt_partition_example():
    part = lpt_partition([5.0, 4.0, 3.0, 3.0, 3.0], 2)
    assert part.bags == ((0, 3), (1, 2, 4))
    assert bag_loads(part, [5.0, 4.0, 3.0, 3.0, 3.0]) == [8.0, 10.0]


def test_lpt_partition_unit_jobs():
    part = lpt_partition([UNIT] * 5, 2)
    assert part.bags == ((0, 2, 4), (1, 3))


def test_lpt_split_equal_items_fill_bags_in_index_order():
    items = [(2.0, j) for j in range(7)]
    assert _lpt_split(items, 3) == [(0, 3, 6), (1, 4), (2, 5)]


def test_lpt_partition_single_bag():
    assert lpt_partition([2.0, 1.0], 1).bags == ((0, 1),)


def test_lpt_partition_more_bags_than_jobs():
    part = lpt_partition([3.0], 3)
    assert part.bags == ((0,), (), ())


def test_lpt_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        lpt_partition([1.0], 0)
    with pytest.raises(ValueError):
        lpt_partition([-1.0], 2)


def test_lpt_partition_balance_within_two():
    """Largest multi-job bag never exceeds twice the smallest bag."""
    rng = SplitMix64(401)
    for _ in range(200):
        n = 2 + rng.next_u64() % 10
        k = 1 + rng.next_u64() % 4
        jobs = [0.5 + 9.5 * rng.next_float() for _ in range(n)]
        part = lpt_partition(jobs, k)
        validate_partition(part, n, k)
        beta = beta_ratio(part, jobs)
        if beta != math.inf:
            assert beta <= 2.0 + 1e-9


# ---------------------------------------------------------------------------
# consistent_partition
# ---------------------------------------------------------------------------


def test_consistent_partition_pairs_heavy_bags_with_fast_machines():
    result = trusting([UNIT] * 9, (8.0, 1.0))
    assert [len(b) for b in result.bags] == [8, 1]
    assert predicted_makespan(result, [UNIT] * 9, (8.0, 1.0)) == 1.0


def test_consistent_partition_small_example():
    result = trusting([3.0, 2.0, 2.0], (2.0, 1.0))
    assert result.bags == ((0, 2), (1,))
    assert predicted_makespan(result, [3.0, 2.0, 2.0], (2.0, 1.0)) == 2.5


def test_consistent_partition_single_machine():
    result = trusting([4.0, 1.0], (2.0,))
    assert result.bags == ((0, 1),)
    assert predicted_makespan(result, [4.0, 1.0], (2.0,)) == 2.5


def test_consistent_partition_lpt_solver_close_to_exact():
    rng = SplitMix64(402)
    for _ in range(50):
        n = 2 + rng.next_u64() % 8
        m = 1 + rng.next_u64() % 3
        jobs = [0.5 + 9.5 * rng.next_float() for _ in range(n)]
        speeds = [0.5 + 4.0 * rng.next_float() for _ in range(m)]
        exact = predicted_makespan(trusting(jobs, speeds, "exact"), jobs, speeds)
        greedy_part = trusting(jobs, speeds, "lpt")
        validate_partition(greedy_part, n, m)
        greedy = predicted_makespan(greedy_part, jobs, speeds)
        assert exact <= greedy + 1e-9 * max(1.0, greedy)


def test_consistent_partition_takes_its_placement_as_given():
    # The bags are the placement's, whatever solved it.
    jobs, speeds = [3.0, 2.0, 2.0], (2.0, 1.0)
    placed = SolveResult((1, 1, 0), 2, 5.0, optimal=False)
    result, _ = consistent_partition(jobs, speeds, placed)
    assert result.bags == ((0, 1), (2,))
    assert predicted_makespan(result, jobs, speeds) == 2.5


def test_consistent_partition_returns_each_bags_load_bit_for_bit():
    # Stage one hands these loads to stage two without summing the bags
    # again, so each must be bag_load of its bag, bit for bit, in order.
    rng = SplitMix64(407)
    for _ in range(300):
        n = 1 + rng.next_u64() % 12
        m = 1 + rng.next_u64() % 5
        jobs = [0.1 + 1e6 * rng.next_float() ** 3 for _ in range(n)]
        speeds = [0.5 + 4.0 * rng.next_float() for _ in range(m)]
        for solver in ("exact", "lpt"):
            part, loads = consistent_partition(jobs, speeds, schedule(jobs, speeds, solver, 10**6))
            assert [x.hex() for x in loads] == [bag_load(b, jobs).hex() for b in part.bags]


@pytest.mark.parametrize("items, machines", [(2, 2), (4, 2), (3, 1), (3, 3), (0, 2)])
def test_consistent_partition_rejects_a_placement_of_another_shape(items, machines):
    placed = lpt_schedule([1.0] * items, [1.0] * machines)
    with pytest.raises(ValueError, match=rf"^placement of {items} items on {machines} machines "
                                         r"for 3 jobs on 2 predicted speeds$"):
        consistent_partition([3.0, 2.0, 2.0], (2.0, 1.0), placed)


def test_consistent_partition_rejects_out_of_range_machine():
    with pytest.raises(ValueError, match="^machine index 2 out of range for m=2$"):
        consistent_partition([1.0, 1.0], (1.0, 1.0), SolveResult((0, 2), 2, 1.0, optimal=False))
    # A placement on no machines is of another shape for one speed.
    with pytest.raises(ValueError, match="^placement of 1 items on 0 machines"):
        consistent_partition([1.0], (1.0,), SolveResult((0,), 0, 1.0, optimal=False))


@pytest.mark.parametrize("placement, named", [((0, 5, -1), 5), ((0, -1, 5), -1), ((1, 3, 3), 3)])
def test_consistent_partition_names_the_first_out_of_range_index(placement, named):
    # A negative index would otherwise pick a bag from the end.
    placed = SolveResult(placement, 3, 1.0, optimal=False)
    with pytest.raises(ValueError) as info:
        consistent_partition([1.0, 1.0, 1.0], (1.0, 1.0, 1.0), placed)
    assert str(info.value) == f"machine index {named} out of range for m=3"


def test_consistent_partition_rejects_bad_speeds():
    with pytest.raises(ValueError):
        consistent_partition([1.0], (0.0,), lpt_schedule([1.0], [1.0]))
    with pytest.raises(ValueError):
        consistent_partition([1.0], (), lpt_schedule([1.0], [1.0]))


# ---------------------------------------------------------------------------
# _rebalance: the loop ipr and fluid_ipr share, here on bags of jobs
# ---------------------------------------------------------------------------


def collection_loads(collections, jobs):
    """Each collection's bag loads, as ``_rebalance`` takes them."""
    return [[bag_load(bag, jobs) for bag in coll] for coll in collections]


def lpt_rebalance(assignment, jobs, rho):
    """Run the rebalance loop on ``assignment`` as :func:`ipr` does (multi-job
    bags are splittable, a receiving collection is LPT-split), with equal
    speeds and an infinite guard; returns (assignment, iterations)."""

    def lpt_resplit(bags):
        return _lpt_split([(jobs[j], j) for bag in bags for j in bag], len(bags))

    collections, _, iterations, _ = _rebalance(
        [list(coll) for coll in assignment.collections],
        collection_loads(assignment.collections, jobs),
        [1.0] * len(assignment.collections),
        rho,
        math.inf,
        lambda bag: bag_load(bag, jobs),
        lambda bag: len(bag) >= 2,
        lpt_resplit,
    )
    return Assignment(tuple(tuple(coll) for coll in collections)), iterations


def test_lpt_rebalance_moves_min_bag_into_heaviest_collection():
    asg = Assignment(collections=((tuple(range(8)),), ((8,),)))
    out, iterations = lpt_rebalance(asg, [UNIT] * 9, rho=4.0)
    assert out.collections == (((0, 2, 4, 6, 8), (1, 3, 5, 7)), ())
    assert iterations == 1


def test_lpt_rebalance_within_one_collection():
    asg = Assignment(collections=(((0, 1), (2,)), ()))
    out, iterations = lpt_rebalance(asg, [2.0, 2.0, 1.0], rho=2.0)
    assert out.collections == (((0, 2), (1,)), ())
    assert iterations == 1


def test_rebalance_step_inside_one_collection_then_across_under_a_guard():
    # Pass 1's smallest bag (1,) and heaviest splittable bag (2, 3) are both
    # in collection 0; pass 2 moves a bag into collection 1, and pass 3's
    # step, (1, 3) into collection 1, would load it to 28 / 2 = 14 > 11, so
    # the guard undoes it.  Recorded before the kept per-collection sums.
    jobs = [4.0, 7.0, 9.0, 2.0, 6.0]

    def lpt_resplit(bags):
        return _lpt_split([(jobs[j], j) for bag in bags for j in bag], len(bags))

    start = [[(2, 3), (1,)], [(0, 4)]]
    collections, loads, iterations, history = _rebalance(
        start,
        collection_loads(start, jobs),
        [2.0, 2.0],
        1.0,
        11.0,
        lambda bag: bag_load(bag, jobs),
        lambda bag: len(bag) >= 2,
        lpt_resplit,
    )
    assert collections == [[(1, 3)], [(2,), (0, 4)]]
    assert (iterations, history) == (3, [7.0, 9.0, 9.0])
    assert loads == collection_loads(collections, jobs)


def test_rebalance_guard_reads_the_source_collections_new_sum():
    # The step leaves collection 0 with job 0 alone, 8 / 2 = 4.0, exactly
    # the guard; its old sum, 9 / 2 = 4.5, would undo the step.
    jobs = [8.0, 1.0, 6.0, 3.0, 4.0]

    def lpt_resplit(bags):
        return _lpt_split([(jobs[j], j) for bag in bags for j in bag], len(bags))

    start = [[(1,), (0,)], [(3, 4)], [(2,)]]
    collections, loads, iterations, history = _rebalance(
        start,
        collection_loads(start, jobs),
        [2.0, 2.0, 2.0],
        1.5,
        4.0,
        lambda bag: bag_load(bag, jobs),
        lambda bag: len(bag) >= 2,
        lpt_resplit,
    )
    assert collections == [[(0,)], [(4,), (1, 3)], [(2,)]]
    assert (iterations, history) == (1, [1.0, 4.0])
    assert loads == collection_loads(collections, jobs)


def test_lpt_rebalance_three_collections():
    asg = Assignment(collections=(((0,),), ((1, 2),), ((3,),)))
    out, iterations = lpt_rebalance(asg, [6.0, 3.0, 3.0, 1.0], rho=2.0)
    assert out.collections == (((0,),), ((1, 3), (2,)), ())
    assert iterations == 1


def test_lpt_rebalance_requires_a_multi_job_bag():
    # Single-job bags cannot be split, however unbalanced: nothing moves.
    asg = Assignment(collections=(((0,),), ((1,),)))
    out, iterations = lpt_rebalance(asg, [2.0, 1.0], rho=1.0)
    assert out == asg
    assert iterations == 0


def reference_rebalance(collections, loads, speeds_desc, rho, guard, load_of, splittable, resplit):
    """The rebalance loop with the plain scan: every pass walks every bag in
    Python, keeping the first strictly smaller load and the first strictly
    larger splittable one, and the guard re-sums every collection."""
    history, iterations = [], 0
    safety = 16 * len(speeds_desc) * len(speeds_desc) + 64
    while True:
        min_load, min_ci, min_bi = math.inf, -1, -1
        max_load, max_ci = -math.inf, -1
        for ci, coll_loads in enumerate(loads):
            for bi, load in enumerate(coll_loads):
                if load < min_load:
                    min_load, min_ci, min_bi = load, ci, bi
                if load > max_load and splittable(collections[ci][bi]):
                    max_load, max_ci = load, ci
        history.append(min_load)
        if max_ci < 0 or max_load <= rho * min_load:
            break
        iterations += 1
        if iterations > safety:
            raise RuntimeError("safety bound")
        tentative = [list(coll) for coll in collections]
        moved = tentative[min_ci].pop(min_bi)
        tentative[max_ci] = resplit(tentative[max_ci] + [moved])
        tentative_loads = [[load_of(bag) for bag in coll] for coll in tentative]
        if max(left_sum(coll) / s for coll, s in zip(tentative_loads, speeds_desc)) > guard:
            break
        collections, loads = tentative, tentative_loads
    return collections, loads, iterations, history


def tie_rich_rebalance_inputs():
    """About 2,000 seeded starts for the rebalance loop, heavy in ties: jobs
    from a few small integers, zeros among them; empty bags and empty
    collections; equal speeds; and a single-job bag that holds the largest
    load, so that the first heaviest bag is often not splittable."""
    rng = SplitMix64(3101)
    for _ in range(2000):
        m = 1 + rng.next_u64() % 5
        n = rng.next_u64() % 13
        jobs = [float(rng.next_u64() % 4) for _ in range(n)]
        if n and rng.next_u64() % 3 == 0:
            jobs[rng.next_u64() % n] = 9.0
        bag_count = 1 + rng.next_u64() % 7
        bags = [[] for _ in range(bag_count)]
        for j in range(n):
            if jobs[j] == 9.0:
                bags.append([j])  # alone in a bag of its own
            else:
                bags[rng.next_u64() % bag_count].append(j)
        collections = [[] for _ in range(m)]
        for bag in bags:
            collections[rng.next_u64() % m].append(tuple(bag))
        speeds = sorted((float(1 + rng.next_u64() % 2) for _ in range(m)), reverse=True)
        rho = (1.0, 1.5, 2.0, 4.0)[rng.next_u64() % 4]
        guard = math.inf if rng.next_u64() % 2 else float(1 + rng.next_u64() % 12)
        yield jobs, collections, speeds, rho, guard


def test_rebalance_finds_the_bags_a_plain_scan_finds():
    # The loop's scans in C pick the same first smallest bag and first
    # heaviest splittable bag as a walk over every bag, ties, zero loads,
    # empty collections and unsplittable heaviest bags included.
    fallbacks = steps = 0
    for jobs, start, speeds, rho, guard in tie_rich_rebalance_inputs():

        def lpt_resplit(bags):
            return _lpt_split([(jobs[j], j) for bag in bags for j in bag], len(bags))

        def run(loop):
            try:
                collections, loads, iterations, history = loop(
                    [list(coll) for coll in start], collection_loads(start, jobs), speeds, rho,
                    guard, lambda bag: bag_load(bag, jobs), lambda bag: len(bag) >= 2, lpt_resplit,
                )
            except RuntimeError:
                return "safety bound"
            return ([list(coll) for coll in collections], [[x.hex() for x in c] for c in loads],
                    iterations, [x.hex() for x in history])

        got = run(_rebalance)
        assert got == run(reference_rebalance), (jobs, start, speeds, rho, guard)
        # The first heaviest start bag holds one job (or none): the walk
        # over every bag runs.
        flat_loads = sum(collection_loads(start, jobs), [])
        fallbacks += len(sum(start, [])[flat_loads.index(max(flat_loads))]) < 2
        steps += got[2] if got != "safety bound" else 0
    assert fallbacks > 500 and steps > 1000


# ---------------------------------------------------------------------------
# ipr
# ---------------------------------------------------------------------------


def test_ipr_rebalances_skewed_prediction():
    res = ipr([UNIT] * 9, (8.0, 1.0), IprConfig(alpha=0.5))
    assert res.partition.bags == ((0, 2, 4, 6, 8), (1, 3, 5, 7))
    assert res.state.opt_c_bar == 1.0
    assert res.state.iterations == 1
    assert res.state.b_min_history == (1.0, 4.0)


@pytest.mark.parametrize("bags, opt_c_bar", [
    ((tuple(range(8)), (8,)), 1.0),  # 8 / 8 and 1 / 1
    (((8,), tuple(range(8))), 8.0),  # 1 / 8 and 8 / 1: the bags in the order given
])
def test_ipr_guard_is_its_starts_predicted_makespan(bags, opt_c_bar):
    res = partition.ipr([UNIT] * 9, (1.0, 8.0), IprConfig(alpha=0.5), Partition(bags))
    assert res.state.opt_c_bar == opt_c_bar


def test_ipr_guard_is_computed_for_any_start():
    # An LPT split is no prediction-trusting start; its makespan is the guard's base all the same.
    rng = SplitMix64(406)
    for _ in range(50):
        n = 2 + rng.next_u64() % 10
        m = 1 + rng.next_u64() % 4
        jobs = [0.5 + 9.5 * rng.next_float() for _ in range(n)]
        speeds = [0.5 + 4.0 * rng.next_float() for _ in range(m)]
        start = lpt_partition(jobs, m)
        res = partition.ipr(jobs, speeds, IprConfig(alpha=0.5), start)
        assert res.state.opt_c_bar == predicted_makespan(start, jobs, speeds)


def test_ipr_already_balanced_is_untouched():
    res = ipr([UNIT] * 4, (3.0, 1.0), IprConfig(alpha=0.5))
    assert sorted(len(b) for b in res.partition.bags) == [1, 3]
    assert res.state.iterations == 0
    assert res.state.b_min_history == (1.0,)


def test_ipr_commits_when_guard_allows():
    res = ipr([UNIT] * 10, (9.0, 1.0), IprConfig(alpha=0.5))
    assert sorted(len(b) for b in res.partition.bags) == [5, 5]
    assert res.state.iterations == 1


def test_ipr_consistency_guard_aborts():
    """A tight alpha rejects the rebalance and keeps the prediction-optimal
    bags; the attempted move is still recorded in the trace."""
    res = ipr([UNIT] * 9, (8.0, 1.0), IprConfig(alpha=0.01))
    assert sorted(len(b) for b in res.partition.bags) == [1, 8]
    assert res.state.iterations == 1
    assert res.state.b_min_history == (1.0,)


def test_ipr_output_is_valid_partition():
    rng = SplitMix64(403)
    for _ in range(100):
        n = 2 + rng.next_u64() % 10
        m = 1 + rng.next_u64() % 4
        jobs = [0.5 + 9.5 * rng.next_float() for _ in range(n)]
        speeds = [0.5 + 4.0 * rng.next_float() for _ in range(m)]
        res = ipr(jobs, speeds, IprConfig(alpha=0.5))
        validate_partition(res.partition, n, m)
        assert len(res.state.b_min_history) >= 1


def test_ipr_deterministic():
    jobs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
    speeds = (5.0, 2.0, 1.0)
    a = ipr(jobs, speeds, IprConfig(alpha=0.3))
    b = ipr(jobs, speeds, IprConfig(alpha=0.3))
    assert a.partition == b.partition
    assert a.state.b_min_history == b.state.b_min_history


def test_ipr_rejects_initial_with_wrong_bag_count():
    # Not a one-bag partition for two machines.
    initial = Partition(((0, 1, 2),))
    with pytest.raises(ValueError, match="1 bags for 2 speeds"):
        partition.ipr([UNIT] * 3, (1.0, 1.0), IprConfig(alpha=0.5), initial)


@pytest.mark.parametrize("jobs", [[3.0, 2.0], [3.0, 2.0, 2.0, 9.0]])
def test_ipr_rejects_a_start_formed_for_other_jobs(jobs):
    # The start of [3, 2, 2] on two unit speeds has the right bag count but
    # holds three jobs: with two, job 2 is no job; with four, job 3 is in no
    # bag.
    initial = trusting([3.0, 2.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError, match=rf"^initial partition holds 3 jobs, not {len(jobs)}$"):
        partition.ipr(jobs, (1.0, 1.0), IprConfig(alpha=0.5), initial)


# Starts whose bags hold three job indices for three jobs, but not each once:
# a repeated index, one past the end (once an IndexError) and a negative one.
BAD_STARTS = [((0, 0), (1,)), ((0, 5), (1,)), ((-1, 0), (1,))]
NOT_EACH_ONCE = r"^initial partition does not hold each of jobs 0\.\.2 once$"


@pytest.mark.parametrize("bags", BAD_STARTS, ids=["repeated", "past-end", "negative"])
def test_ipr_rejects_a_start_without_each_job_once(bags):
    initial = Partition(bags)
    with pytest.raises(ValueError, match=NOT_EACH_ONCE):
        partition.ipr([3.0, 2.0, 2.0], (1.0, 1.0), IprConfig(alpha=0.5), initial)


@pytest.mark.parametrize("bags", BAD_STARTS, ids=["repeated", "past-end", "negative"])
def test_binary_partition_rejects_a_start_without_each_job_once(bags):
    initial = Partition(bags)
    with pytest.raises(ValueError, match=NOT_EACH_ONCE):
        binary_speed_partition([3.0, 2.0, 2.0], 2, initial)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_ipr_rejects_bad_jobs(bad):
    # Rejected before the loop: no negative load in b_min_history, no NaN
    # comparisons inside it.
    initial = Partition(((0, 1), (2,)))
    with pytest.raises(ValueError, match="job processing times"):
        partition.ipr([5.0, 5.0, bad], (1.0, 1.0), IprConfig(alpha=0.5), initial)


def pinned_greedy_inputs():
    """(jobs, true speeds, predicted speeds): experiment-shaped random
    instances, then tie-heavy integer ones where equal bag loads decide which
    bag or machine gets the next job."""
    for n, m in ((1000, 50), (200, 20)):
        for sigma in (0.0, 8.0, 20.0):
            inst = gen_synthetic(SyntheticConfig(n=n, m=m, err_sigma=sigma, seed=7))
            yield inst.jobs, inst.true_speeds, inst.predicted_speeds
    rng = SplitMix64(405)
    for _ in range(60):
        n = 4 + rng.next_u64() % 40
        m = 2 + rng.next_u64() % 6
        jobs = [float(1 + rng.next_u64() % 5) for _ in range(n)]
        true = [float(1 + rng.next_u64() % 3) for _ in range(m)]
        pred = [float(1 + rng.next_u64() % 8) for _ in range(m)]
        yield jobs, true, pred


GREEDY_RESULTS_DIGEST = "280eb46da7afc9d555d9904693d87754c3e5c07b69564bfd9dee1ef36144ec25"


def greedy_results_digest():
    # Placements, bags, makespans to the last bit and the ipr trace of the
    # greedy layer on a fixed corpus: a change to a tie-break or to the order
    # of float additions in lpt_schedule, _lpt_split or ipr shows here even
    # where the experiment CSVs round it away.  Change the digest only
    # together with a deliberate change to these results.
    digest = hashlib.sha256()
    for jobs, true, pred in pinned_greedy_inputs():
        res = lpt_schedule(jobs, true)
        digest.update(repr((res.bag_to_machine, res.makespan.hex())).encode())
        digest.update(repr(lpt_partition(jobs, len(true)).bags).encode())
        initial, _ = consistent_partition(jobs, pred, lpt_schedule(jobs, pred))
        outs = [partition.ipr(jobs, pred, IprConfig(alpha=0.5, rho=rho), initial)
                for rho in (2.0, 4.0)]
        digest.update(repr((initial.bags, outs[0].state.opt_c_bar.hex())).encode())
        for out in outs:
            state = out.state
            key = (out.partition.bags, state.iterations, tuple(b.hex() for b in state.b_min_history))
            digest.update(repr(key).encode())
    return digest.hexdigest()


def test_greedy_results_pinned():
    assert greedy_results_digest() == GREEDY_RESULTS_DIGEST


def neumaier_sum(values, start=0, exact_sum=sum):
    """Compensated summation of floats, as CPython 3.12's ``sum()`` does;
    integers still add exactly."""
    values = list(values)
    if isinstance(start, int) and all(isinstance(x, int) for x in values):
        return exact_sum(values, start)
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


def test_greedy_results_pinned_under_compensated_sum(monkeypatch):
    # The float sums behind the digest add left to right explicitly, so a
    # compensated builtin sum() (CPython 3.12 and later) gives the same bits.
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert greedy_results_digest() == GREEDY_RESULTS_DIGEST


# ---------------------------------------------------------------------------
# fluid_ipr
# ---------------------------------------------------------------------------


def reference_fluid_ipr(total_load, predicted_speeds, alpha, rho=2.0):
    """A reference for :func:`fluid_ipr` that shares no code with ``ipr``:
    every pass flattens the bags, takes the first smallest and the first
    largest, and splits the receiving collection's load into equal shares."""
    speeds_desc = sorted(predicted_speeds, reverse=True)
    total_speed = left_sum(speeds_desc)
    collections = [[total_load * s / total_speed] for s in speeds_desc]
    guard = (1.0 + alpha) * (total_load / total_speed)
    while True:
        flat = [(load, ci, bi) for ci, coll in enumerate(collections) for bi, load in enumerate(coll)]
        b_min = min(load for load, _, _ in flat)
        b_max = max(load for load, _, _ in flat)
        if b_max <= rho * b_min:
            break
        min_ci, min_bi = next((ci, bi) for load, ci, bi in flat if load == b_min)
        max_ci = next(ci for load, ci, _ in flat if load == b_max)
        tentative = [list(coll) for coll in collections]
        moved = tentative[min_ci].pop(min_bi)
        tentative[max_ci].append(moved)
        ell = len(tentative[max_ci])
        within = left_sum(tentative[max_ci])
        tentative[max_ci] = [within / ell] * ell
        if max(left_sum(coll) / s for coll, s in zip(tentative, speeds_desc)) > guard:
            break
        collections = tentative
    return [load for coll in collections for load in coll]


def test_fluid_ipr_matches_reference_loop_bit_for_bit():
    rng = SplitMix64(406)
    cases = [(7.0, (1.0,), 0.5, 2.0), (12.0, (3.0, 3.0, 3.0), 0.5, 1.0), (9.0, (8.0, 1.0), 0.5, 1.0)]
    for t in range(3000):
        m = 1 + rng.next_u64() % 6
        if t % 3 == 0:
            speeds = [0.5 + 4.0 * rng.next_float()] * m
        else:
            speeds = [max(40.0 * rng.next_float(), 1e-3) for _ in range(m)]
        total = 1.0 + 999.0 * rng.next_float()
        alpha = 0.01 + 0.98 * rng.next_float()
        rho = (1.0, 2.0, 4.0, 1.0 + 4.0 * rng.next_float())[t % 4]
        cases.append((total, speeds, alpha, rho))
    assert any(len(c[1]) == 1 for c in cases)
    for total, speeds, alpha, rho in cases:
        got = [x.hex() for x in fluid_ipr(total, speeds, alpha, rho)]
        want = [x.hex() for x in reference_fluid_ipr(total, speeds, alpha, rho)]
        assert got == want, (total, speeds, alpha, rho)


def test_fluid_ipr_rebalances_to_equal_loads():
    assert fluid_ipr(9.0, (8.0, 1.0), alpha=0.5) == [4.5, 4.5]


def test_fluid_ipr_balanced_input_unchanged():
    assert fluid_ipr(3.0, (2.0, 1.0), alpha=0.5) == [2.0, 1.0]
    assert fluid_ipr(12.0, (3.0, 3.0, 3.0), alpha=0.5) == [4.0, 4.0, 4.0]


def test_fluid_ipr_guard_aborts():
    assert fluid_ipr(5.0, (4.0, 1.0), alpha=0.1) == [4.0, 1.0]


def test_fluid_ipr_conserves_load():
    rng = SplitMix64(404)
    for _ in range(100):
        m = 1 + rng.next_u64() % 5
        total = 1.0 + 99.0 * rng.next_float()
        speeds = [0.5 + 4.0 * rng.next_float() for _ in range(m)]
        alpha = 0.05 + 0.9 * rng.next_float()
        loads = fluid_ipr(total, speeds, alpha)
        assert sum(loads) == pytest.approx(total, rel=1e-9)
        assert all(x >= 0.0 for x in loads)


def test_fluid_ipr_rejects_bad_input():
    with pytest.raises(ValueError):
        fluid_ipr(0.0, (1.0,), alpha=0.5)
    with pytest.raises(ValueError):
        fluid_ipr(math.inf, (1.0,), alpha=0.5)
    with pytest.raises(ValueError):
        fluid_ipr(1.0, (1.0,), alpha=1.0)
    with pytest.raises(ValueError):
        fluid_ipr(1.0, (1.0,), alpha=0.5, rho=0.9)
    with pytest.raises(ValueError):
        fluid_ipr(1.0, (0.0,), alpha=0.5)


def test_fluid_ipr_rejects_speeds_whose_sum_overflows():
    # Their total is inf, and each share total_load * s / inf would be NaN
    # or 0.0, not a share of the load.
    for total in (1e308, 1.0):
        with pytest.raises(ValueError, match="^predicted speeds must have a finite sum$"):
            fluid_ipr(total, (1e308, 1e308, 1.0), alpha=0.5)


# ---------------------------------------------------------------------------
# binary_speed_partition
# ---------------------------------------------------------------------------


def test_binary_partition_example():
    jobs = [4.0, 3.0, 2.0, 1.0]
    part = binary(jobs, m=4, m_hat=2)
    assert part.bags == ((0,), (3,), (1,), (2,))
    assert bag_loads(part, jobs) == [4.0, 1.0, 3.0, 2.0]


def test_binary_partition_uneven_split():
    jobs = [UNIT] * 6
    part = binary(jobs, m=5, m_hat=2)
    assert bag_loads(part, jobs) == [1.0, 1.0, 1.0, 2.0, 1.0]


def test_binary_partition_full_prediction_is_plain_split():
    jobs = [4.0, 3.0, 2.0, 1.0]
    part = binary(jobs, m=2, m_hat=2)
    validate_partition(part, 4, 2)
    assert sorted(bag_loads(part, jobs)) == [5.0, 5.0]


@pytest.mark.parametrize("m, m_hat", [(0, 1), (2, 0), (2, 3)])
def test_binary_partition_rejects_bad_counts(m, m_hat):
    # m_hat is the initial partition's subset count, which must be in 1..m.
    initial = Partition(((),) * m_hat)
    with pytest.raises(ValueError, match=rf"^initial partition has {m_hat} subsets for {m} "):
        binary_speed_partition([1.0], m, initial)


def test_binary_partition_rejects_a_start_formed_for_other_jobs():
    initial = trusting([3.0, 2.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError, match=r"^initial partition holds 3 jobs, not 4$"):
        binary_speed_partition([3.0, 2.0, 2.0, 9.0], 2, initial)


def test_binary_partition_covers_all_jobs():
    rng = SplitMix64(405)
    for _ in range(100):
        n = 1 + rng.next_u64() % 10
        m = 1 + rng.next_u64() % 5
        m_hat = 1 + rng.next_u64() % m
        jobs = [0.5 + 9.5 * rng.next_float() for _ in range(n)]
        part = binary(jobs, m, m_hat)
        validate_partition(part, n, m)
