"""Tests for the core data model: instances, partitions, placements, metrics."""

import dataclasses
import enum
import json
import math

import pytest

import speedsched
from speedsched import cli
from speedsched.gen import SplitMix64, SyntheticConfig, gen_synthetic
from speedsched.model import (
    Assignment,
    CheckedFloats,
    Instance,
    IprState,
    Partition,
    bag_load,
    beta_ratio,
    finite_floats,
    prediction_error,
    validate_partition,
)
from speedsched.harness import oracle_value
from speedsched.partition import IprConfig, consistent_partition, fluid_ipr, ipr, lpt_partition
from speedsched.solvers import (
    DEFAULT_NODE_BUDGET,
    SCHEDULERS,
    SolveResult,
    brute_force_makespan,
    capacity_robust_schedule,
    exact_schedule,
    lpt_schedule,
    merge_to_fit,
    opt_lower_bound,
    schedule,
)


def test_every_exported_name_resolves():
    assert len(set(speedsched.__all__)) == len(speedsched.__all__)
    for name in speedsched.__all__:
        assert hasattr(speedsched, name), name


# A placement of two items on two machines, for consistent_partition.
_PLACED = lpt_schedule([2.0, 3.0], [1.0, 2.0])

# Each entry point that takes jobs or speeds, with one value replaced by ``x``.
_VALIDATING_CALLS = {
    "Instance-job": lambda x: Instance(jobs=(2.0, x), true_speeds=(1.0, 2.0),
                                       predicted_speeds=(1.0, 2.0)),
    "Instance-true-speed": lambda x: Instance(jobs=(2.0, 3.0), true_speeds=(1.0, x),
                                              predicted_speeds=(1.0, 2.0)),
    "Instance-predicted-speed": lambda x: Instance(jobs=(2.0, 3.0), true_speeds=(1.0, 2.0),
                                                   predicted_speeds=(1.0, x)),
    "exact_schedule-load": lambda x: exact_schedule([2.0, x], [1.0, 2.0]),
    "exact_schedule-speed": lambda x: exact_schedule([2.0, 3.0], [1.0, x]),
    "lpt_schedule-load": lambda x: lpt_schedule([2.0, x], [1.0, 2.0]),
    "lpt_schedule-speed": lambda x: lpt_schedule([2.0, 3.0], [1.0, x]),
    "lpt_partition-job": lambda x: lpt_partition([2.0, x], 2),
    "consistent_partition-job": lambda x: consistent_partition([2.0, x], [1.0, 2.0], _PLACED),
    "consistent_partition-speed": lambda x: consistent_partition([2.0, 3.0], [1.0, x], _PLACED),
    "prediction_error-predicted": lambda x: prediction_error([1.0, x], [1.0, 2.0]),
    "prediction_error-true": lambda x: prediction_error([1.0, 2.0], [1.0, x]),
    "ipr-job": lambda x: ipr([2.0, x], [1.0, 2.0], IprConfig(0.5), Partition(((0,), (1,)))),
    "ipr-speed": lambda x: ipr([2.0, 3.0], [1.0, x], IprConfig(0.5), Partition(((0,), (1,)))),
    "opt_lower_bound-load": lambda x: opt_lower_bound([2.0, x], [1.0, 2.0]),
    "opt_lower_bound-speed": lambda x: opt_lower_bound([2.0, 3.0], [1.0, x]),
    "merge_to_fit-load": lambda x: merge_to_fit([2.0, x], 1),
    "brute_force_makespan-load": lambda x: brute_force_makespan([2.0, x], [1.0, 2.0]),
    "brute_force_makespan-speed": lambda x: brute_force_makespan([2.0, 3.0], [1.0, x]),
    "capacity_robust_schedule-job": lambda x: capacity_robust_schedule(
        Partition(((0,), (1,))), [2.0, x], [1.0, 2.0]),
    "capacity_robust_schedule-speed": lambda x: capacity_robust_schedule(
        Partition(((0,), (1,))), [2.0, 3.0], [1.0, x]),
    "fluid_ipr-total": lambda x: fluid_ipr(x, [1.0, 2.0], 0.5),
    "fluid_ipr-speed": lambda x: fluid_ipr(5.0, [1.0, x], 0.5),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, None], ids=repr)
@pytest.mark.parametrize("call", sorted(_VALIDATING_CALLS))
def test_entry_points_reject_non_finite_negative_and_missing_numbers(call, bad):
    with pytest.raises(ValueError):
        _VALIDATING_CALLS[call](bad)


@pytest.mark.parametrize("bad", [-math.inf, -1e-300, "x", "1.0", b"1"], ids=repr)
@pytest.mark.parametrize("call", sorted(_VALIDATING_CALLS))
def test_entry_points_reject_minus_infinity_and_non_numeric_values(call, bad):
    with pytest.raises(ValueError):
        _VALIDATING_CALLS[call](bad)


def test_checked_vectors_are_taken_as_checked_only_in_their_range():
    # An instance's vectors are CheckedFloats, which a second check copies
    # without scanning; a zero in one still fails where zeros are not taken.
    inst = Instance(jobs=(2.0, 1.0, 3.0), true_speeds=(1.0, 0.0), predicted_speeds=(1.0, 1.0))
    assert type(inst.jobs) is CheckedFloats and inst.jobs.positive
    assert inst.jobs == (2.0, 1.0, 3.0) and hash(inst.jobs) == hash((2.0, 1.0, 3.0))
    assert not inst.true_speeds.positive
    assert Instance(inst.jobs, inst.true_speeds, inst.predicted_speeds).jobs is inst.jobs
    assert finite_floats(inst.jobs, "jobs") == [2.0, 1.0, 3.0]
    assert finite_floats(inst.true_speeds, "speeds", allow_zero=True) == [1.0, 0.0]
    with pytest.raises(ValueError, match="^speeds must be positive finite, got 0.0$"):
        finite_floats(inst.true_speeds, "speeds")
    for call in (lambda: lpt_schedule(inst.jobs, inst.true_speeds),
                 lambda: exact_schedule(inst.jobs, inst.true_speeds),
                 lambda: consistent_partition(inst.jobs, inst.true_speeds, _PLACED),
                 lambda: ipr(inst.jobs, inst.true_speeds, IprConfig(0.5), Partition(((0, 1), (2,)))),
                 lambda: Instance(inst.jobs, inst.true_speeds, (1.0, 2.0)),
                 lambda: Instance(inst.true_speeds, inst.predicted_speeds, inst.predicted_speeds)):
        with pytest.raises(ValueError):
            call()
    assert inst.usable_speeds == (1.0,)
    related = Instance(jobs=(2.0,), true_speeds=(1.0, 2.0), predicted_speeds=(1.0, 2.0))
    assert related.usable_speeds is related.true_speeds


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, "x", None], ids=repr)
def test_gen_synthetic_checks_every_instance_when_its_draws_are_kept(bad):
    # The draws of a seed are kept from one sweep point to the next, and
    # with them the checked jobs and true speeds; the predicted speeds of
    # each point are checked again.  A bad err_sigma is rejected by the
    # config, and one forced past it still fails in the instance.
    config = SyntheticConfig(n=1000, m=50, err_sigma=8.0, seed=7)
    first = gen_synthetic(config)
    with pytest.raises(ValueError):
        SyntheticConfig(n=1000, m=50, err_sigma=bad, seed=7)
    if isinstance(bad, float) and not math.isfinite(bad):
        forced = dataclasses.replace(config)
        object.__setattr__(forced, "err_sigma", bad)
        with pytest.raises(ValueError, match="^predicted speeds must be non-negative finite"):
            gen_synthetic(forced)
    again = gen_synthetic(dataclasses.replace(config, err_sigma=4.0))
    assert again.jobs is first.jobs and again.true_speeds is first.true_speeds


@pytest.mark.parametrize("values, named", [
    ([1.0, -2.0, math.nan], "-2.0"),
    ([1.0, math.nan, -2.0], "nan"),
    ([2.0, math.inf, -math.inf], "inf"),
    ([3.0, 0.0, -1.0], "0.0"),
])
def test_finite_floats_names_the_first_bad_value(values, named):
    with pytest.raises(ValueError) as info:
        finite_floats(values, "loads")
    assert str(info.value) == f"loads must be positive finite, got {named}"


def test_finite_floats_accepts_finite_values_whose_sum_overflows():
    assert finite_floats([1e308, 1e308], "loads") == [1e308, 1e308]
    assert finite_floats((1.7e308, 0.0, 1.7e308), "loads", allow_zero=True) == [1.7e308, 0.0, 1.7e308]


@pytest.mark.parametrize("zero", [0.0, -0.0], ids=repr)
def test_finite_floats_takes_a_zero_only_under_allow_zero(zero):
    out = finite_floats([2.0, zero, 1], "speeds", allow_zero=True)
    assert out == [2.0, 0.0, 1.0] and math.copysign(1.0, out[1]) == math.copysign(1.0, zero)
    with pytest.raises(ValueError) as info:
        finite_floats([2.0, zero], "speeds")
    assert str(info.value) == f"speeds must be positive finite, got {zero!r}"
    with pytest.raises(ValueError) as info:
        finite_floats([zero, -1.0], "speeds", allow_zero=True)
    assert str(info.value) == "speeds must be non-negative finite, got -1.0"


def test_finite_floats_empty_and_non_numbers():
    assert finite_floats([], "jobs", allow_empty=True) == []
    with pytest.raises(ValueError, match="^jobs must not be empty$"):
        finite_floats([], "jobs")
    # float() would parse each of these; bytes would read as their byte values.
    for text in ([1.0, "x"], [1.0, "2"], (b"2",), iter([bytearray(b"2")]), "12", b"12"):
        with pytest.raises(ValueError, match="^jobs must be a sequence of numbers$"):
            finite_floats(text, "jobs")


def make_instance(jobs, true_speeds, predicted_speeds, **kwargs):
    return Instance(
        jobs=tuple(jobs),
        true_speeds=tuple(true_speeds),
        predicted_speeds=tuple(predicted_speeds),
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Instance validation
# ---------------------------------------------------------------------------


def test_instance_basic_properties():
    inst = make_instance([2.0, 3.0, 5.0], [1.0, 2.0], [1.5, 2.5], name="tiny", seed=7)
    assert inst.n == 3
    assert inst.m == 2
    assert inst.jobs == (2.0, 3.0, 5.0)
    assert inst.name == "tiny"
    assert inst.seed == 7


def test_instance_rejects_nonpositive_jobs():
    with pytest.raises(ValueError):
        make_instance([2.0, 0.0], [1.0], [1.0])
    with pytest.raises(ValueError):
        make_instance([-1.0], [1.0], [1.0])


def test_instance_rejects_nonfinite_values():
    with pytest.raises(ValueError):
        make_instance([math.inf], [1.0], [1.0])
    with pytest.raises(ValueError):
        make_instance([1.0], [math.nan], [1.0])
    with pytest.raises(ValueError):
        make_instance([1.0], [1.0], [math.inf])


def test_instance_rejects_nonpositive_true_speeds():
    with pytest.raises(ValueError):
        make_instance([1.0], [0.0], [1.0])
    with pytest.raises(ValueError):
        make_instance([1.0], [-2.0], [1.0])


def test_instance_allows_zero_true_speed_only_when_all_or_nothing():
    # 0.0 marks an unusable machine when every speed is 0.0 or 1.0.
    inst = make_instance([1.0, 1.0], [1.0, 0.0], [1.0, 1.0])
    assert inst.true_speeds == (1.0, 0.0)
    assert inst.all_or_nothing
    for true, predicted in (((2.0, 0.0), (1.0, 1.0)),
                            ((1.0, 0.0), (1.0, 0.5)),
                            ((0.0, 0.0), (1.0, 1.0))):
        with pytest.raises(ValueError):
            make_instance([1.0], true, predicted)


def test_usable_machines_are_those_with_a_nonzero_true_speed():
    inst = make_instance([1.0, 1.0], [0.0, 1.0, 0.0, 1.0], [1.0, 1.0, 0.0, 1.0])
    assert inst.usable_machines == (1, 3)
    assert inst.usable_speeds == (1.0, 1.0)
    # A zero prediction does not make a machine unusable.
    related = make_instance([1.0], [2.0, 0.5], [0.0, 1.0])
    assert related.usable_machines == (0, 1) and related.usable_speeds == (2.0, 0.5)


def test_instance_allows_zero_predicted_speed():
    # Predictions may declare a machine unusable in any instance.
    inst = make_instance([1.0, 1.0], [1.0, 1.0], [1.0, 0.0])
    assert inst.predicted_speeds == (1.0, 0.0)
    with pytest.raises(ValueError):
        make_instance([1.0], [1.0], [-0.5])


def test_instance_rejects_speed_length_mismatch():
    with pytest.raises(ValueError):
        make_instance([1.0], [1.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        make_instance([1.0], [1.0], [1.0, 1.0])


def test_instance_rejects_empty_vectors():
    with pytest.raises(ValueError):
        make_instance([], [1.0], [1.0])
    with pytest.raises(ValueError):
        make_instance([1.0], [], [])


# ---------------------------------------------------------------------------
# Partition / Assignment containers
# ---------------------------------------------------------------------------


def test_partition_canonicalizes_bag_order():
    part = Partition(bags=((2, 0), (1,)))
    assert part.bags == ((0, 2), (1,))
    assert part.m == 2


def test_partition_allows_empty_bags():
    part = Partition(bags=((0, 1), ()))
    assert part.bags == ((0, 1), ())
    assert part.m == 2


def test_assignment_flattens_in_collection_order():
    asg = Assignment(collections=(((0, 1), (2,)), ((3,),)))
    assert asg.to_partition().bags == ((0, 1), (2,), (3,))


class _Job(enum.IntEnum):
    FIRST = 0
    SECOND = 1
    THIRD = 2


def _canonical_bag_inputs():
    """Bags of every shape a caller may pass, each as a factory, since a
    generator can be read once: exact ints sorted or not, duplicates, empty
    bags, bools, ``IntEnum`` members, digit strings, mixed types, lists and
    generators."""
    shapes = [
        (), (0,), (3, 1, 2), (0, 1, 2), (5, 5, 1), [4, 0, 2], (True, False, 3),
        (_Job.THIRD, _Job.FIRST), (_Job.SECOND, 0, True), ("3", "1", "20"),
        (1, "0"), ("7", 2.0, True), (2**70, -1, 0),
    ]
    for shape in shapes:
        yield lambda shape=shape: shape
        yield lambda shape=shape: list(shape)
        yield lambda shape=shape: (x for x in shape)
    rng = SplitMix64(11)
    for _ in range(200):
        size = rng.next_u64() % 12
        bag = [int(rng.next_u64() % 6) for _ in range(size)]
        yield lambda bag=bag: tuple(bag)
        yield lambda bag=bag: (x for x in bag)


def test_partition_and_assignment_canonicalise_as_the_converting_sort():
    # Whatever the members' types, a bag comes out as the old conversion
    # made it: every member converted with int, then sorted.
    for make in _canonical_bag_inputs():
        want = tuple(sorted(map(int, make())))
        for got in (
            Partition((make(), ())).bags[0],
            Assignment(((make(),), ((),))).collections[0][0],
            Assignment(((make(),),)).to_partition().bags[0],
        ):
            assert got == want
            assert all(type(j) is int for j in got)
    assert Partition(((1, "0"),)).bags == ((0, 1),)
    assert Assignment((((1, "0"),),)).collections == (((0, 1),),)


def test_a_mixed_bag_is_converted_before_it_is_compared():
    # int("x") raises ValueError; comparing 1 with "x" would raise TypeError.
    with pytest.raises(ValueError):
        Partition(((1, "x"),))
    with pytest.raises(ValueError):
        Assignment((((1, "x"),),))


@pytest.mark.parametrize("member", [1.7, -0.5, math.inf, -math.inf, math.nan], ids=repr)
def test_a_float_member_that_is_not_whole_names_no_job(member):
    # int() would truncate 1.7 to job 1 and raise OverflowError on inf.
    message = f"^job index must be a whole number, got {member!r}$"
    with pytest.raises(ValueError, match=message):
        Partition(((0, member),))
    with pytest.raises(ValueError, match=message):
        Assignment((((member,),),))
    assert Partition(((3.0, -0.0),)).bags == ((0, 3),)


def test_ipr_state_holds_trace_fields():
    asg = Assignment(collections=(((0,),),))
    state = IprState(
        assignment=asg,
        opt_c_bar=1.0,
        iterations=0,
        b_min_history=(1.0,),
    )
    assert state.opt_c_bar == 1.0
    assert state.b_min_history == (1.0,)


# ---------------------------------------------------------------------------
# bag_load
# ---------------------------------------------------------------------------


def test_bag_load_examples():
    jobs = [2.0, 3.0, 5.0]
    assert bag_load((0, 1), jobs) == 5.0
    assert bag_load((), jobs) == 0.0
    assert bag_load((2,), jobs) == 5.0


def test_bag_load_rejects_bad_index():
    with pytest.raises(IndexError):
        bag_load((3,), [2.0, 3.0, 5.0])


# ---------------------------------------------------------------------------
# Makespan of a placement: a solver's schedule, its machine loads, the oracle
# ---------------------------------------------------------------------------


def _placed_loads(result, loads):
    """Per-machine load of a solver result, summed from its schedule."""
    per_machine = [0.0] * result.m
    for k, i in enumerate(result.bag_to_machine):
        per_machine[i] += loads[k]
    return per_machine


def test_machine_loads_and_makespan_example():
    # Bags of load 5 and 2 on machines of speed 2 and 1.
    inst = make_instance([5.0, 2.0], [2.0, 1.0], [2.0, 1.0])
    part = Partition(bags=((0,), (1,)))
    loads = [bag_load(bag, inst.jobs) for bag in part.bags]
    for scheduler in SCHEDULERS:
        result = schedule(loads, inst.true_speeds, scheduler, DEFAULT_NODE_BUDGET)
        assert (result.bag_to_machine, result.m) == ((0, 1), 2)
        assert _placed_loads(result, loads) == [5.0, 2.0]
        assert result.makespan == 2.5


def test_makespan_single_machine_is_total_load():
    inst = make_instance([3.0, 4.0, 5.0], [2.0], [2.0])
    for scheduler in SCHEDULERS:
        result = schedule(inst.jobs, inst.true_speeds, scheduler, DEFAULT_NODE_BUDGET)
        assert result.makespan == 12.0 / 2.0
    assert oracle_value(inst) == 6.0
    assert oracle_value(inst, oracle="lower_bound") == 6.0


def test_makespan_empty_machine_contributes_zero():
    # The second machine is four times slower and stays empty.
    for solve in (exact_schedule, lpt_schedule):
        result = solve([4.0], [1.0, 0.25])
        assert _placed_loads(result, [4.0]) == [4.0, 0.0]
        assert result.makespan == 4.0
    # An unusable machine of an all-or-nothing instance hosts nothing either.
    assert oracle_value(make_instance([4.0], [1.0, 0.0], [1.0, 1.0])) == 4.0


def test_makespan_use_predicted_switches_speeds():
    # The oracle places the jobs on the true speeds, never on the predicted ones.
    inst = make_instance([6.0], [2.0], [3.0])
    assert exact_schedule(inst.jobs, inst.true_speeds).makespan == 3.0
    assert exact_schedule(inst.jobs, inst.predicted_speeds).makespan == 2.0
    assert oracle_value(inst) == 3.0
    assert oracle_value(inst, oracle="lower_bound") == 3.0


def test_makespan_rejects_zero_predicted_speed():
    inst = make_instance([1.0], [1.0], [0.0])
    for scheduler in SCHEDULERS:
        with pytest.raises(ValueError, match="machine speeds must be positive"):
            schedule(inst.jobs, inst.predicted_speeds, scheduler, DEFAULT_NODE_BUDGET)


def test_makespan_rejects_zero_true_speed():
    for scheduler in SCHEDULERS:
        with pytest.raises(ValueError, match="machine speeds must be positive"):
            schedule([1.0], [1.0, 0.0], scheduler, DEFAULT_NODE_BUDGET)
    with pytest.raises(ValueError, match="machine speeds must be positive"):
        opt_lower_bound([1.0], [1.0, 0.0])


def test_makespan_rejects_machine_count_mismatch():
    # Predicted and true speeds must describe the same machines.
    with pytest.raises(ValueError, match="predicted_speeds has 2 entries, true_speeds has 1"):
        make_instance([1.0], [1.0], [1.0, 1.0])
    # A placement names only machines that exist.
    with pytest.raises(ValueError, match="^machine index 1 out of range for m=1$"):
        consistent_partition([1.0, 1.0], [1.0], SolveResult((0, 1), 1, 2.0, optimal=False))


def test_makespan_invariances_random_trials():
    """The reported makespan is the largest placed load over its machine's
    speed; scaling all speeds by c divides it by c; relabeling the machines
    leaves it unchanged."""
    rng = SplitMix64(2024)
    for _ in range(50):
        n = 2 + rng.next_u64() % 5
        m = 1 + rng.next_u64() % 3
        jobs = [1.0 + 9.0 * rng.next_float() for _ in range(n)]
        speeds = [0.5 + 4.0 * rng.next_float() for _ in range(m)]
        c = 0.5 + 3.0 * rng.next_float()
        scaled = [s * c for s in speeds]
        perm = sorted(range(m), key=lambda i: rng.next_u64())
        permuted = [speeds[perm[i]] for i in range(m)]
        for solve in (exact_schedule, lpt_schedule):
            base = solve(jobs, speeds)
            placed = max(load / s for load, s in zip(_placed_loads(base, jobs), speeds))
            assert placed == pytest.approx(base.makespan, rel=1e-12)
            assert solve(jobs, scaled).makespan == pytest.approx(base.makespan / c, rel=1e-12)
            assert solve(jobs, permuted).makespan == pytest.approx(base.makespan, rel=1e-12)


# ---------------------------------------------------------------------------
# beta_ratio
# ---------------------------------------------------------------------------


def test_beta_ratio_example():
    part = Partition(bags=((0,), (1, 2), (3,)))
    assert beta_ratio(part, [5.0, 2.0, 2.0, 3.0]) == pytest.approx(4.0 / 3.0)


def test_beta_ratio_all_singletons_is_zero():
    part = Partition(bags=((0,), (1,)))
    assert beta_ratio(part, [5.0, 1.0]) == 0.0


def test_beta_ratio_equal_units():
    part = Partition(bags=((0, 1), (2,)))
    assert beta_ratio(part, [1.0, 1.0, 1.0]) == 2.0


def test_beta_ratio_empty_bag_with_multi_bag_is_inf():
    part = Partition(bags=((0, 1), ()))
    assert beta_ratio(part, [1.0, 1.0]) == math.inf


# ---------------------------------------------------------------------------
# prediction_error
# ---------------------------------------------------------------------------


def test_prediction_error_examples():
    assert prediction_error((4.0, 2.0), (2.0, 2.0)) == pytest.approx(2.0)
    assert prediction_error((2.0, 1.0), (1.0, 2.0)) == pytest.approx(2.0)
    assert prediction_error((3.0, 6.0), (1.0, 2.0)) == pytest.approx(1.0)


def test_prediction_error_exact_is_one():
    assert prediction_error((1.0, 5.0, 2.5), (1.0, 5.0, 2.5)) == 1.0


def test_prediction_error_scale_invariant_random_trials():
    rng = SplitMix64(11)
    for _ in range(100):
        m = 1 + rng.next_u64() % 5
        true = tuple(0.2 + 5.0 * rng.next_float() for _ in range(m))
        pred = tuple(0.2 + 5.0 * rng.next_float() for _ in range(m))
        eta = prediction_error(pred, true)
        assert eta >= 1.0
        c = 0.1 + 10.0 * rng.next_float()
        scaled = prediction_error(tuple(p * c for p in pred), true)
        assert scaled == pytest.approx(eta, rel=1e-12)


def test_prediction_error_rejects_bad_input():
    with pytest.raises(ValueError):
        prediction_error((1.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        prediction_error((1.0,), (1.0, 1.0))
    with pytest.raises(ValueError):
        prediction_error((), ())


# ---------------------------------------------------------------------------
# validate_partition
# ---------------------------------------------------------------------------


def test_validate_partition_accepts_exact_cover():
    validate_partition(Partition(bags=((0, 2), (1,))), n=3, m=2)


def test_validate_partition_rejects_wrong_bag_count():
    with pytest.raises(ValueError):
        validate_partition(Partition(bags=((0, 1, 2),)), n=3, m=2)


def test_validate_partition_rejects_duplicate_job():
    with pytest.raises(ValueError):
        validate_partition(Partition(bags=((0, 1), (1,))), n=3, m=2)


def test_validate_partition_rejects_missing_job():
    with pytest.raises(ValueError):
        validate_partition(Partition(bags=((0,), (2,))), n=3, m=2)


def test_validate_partition_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        validate_partition(Partition(bags=((0, 3), (1, 2))), n=3, m=2)


# ---------------------------------------------------------------------------
# JSON round-trips
# ---------------------------------------------------------------------------


def test_instance_json_round_trip_is_bit_exact():
    inst = make_instance(
        [2.0, 1.0 / 3.0, 5.000000000000001],
        [1.0, 0.1],
        [1.0, 0.30000000000000004],
        name="round-trip",
        seed=123,
    )
    again = Instance.from_json_dict(json.loads(json.dumps(inst.to_json_dict())))
    assert again == inst
    assert again.jobs[1] == inst.jobs[1]
    assert again.predicted_speeds[1] == inst.predicted_speeds[1]


def test_instance_json_is_pretty_printed_dict():
    inst = make_instance([1.0], [1.0], [1.0])
    doc = inst.to_json_dict()
    assert doc["jobs"] == [1.0]
    assert doc["true_speeds"] == [1.0]
    assert doc["predicted_speeds"] == [1.0]


def test_instance_from_json_rejects_missing_key():
    with pytest.raises(ValueError, match=r"^instance missing keys: \['predicted_speeds'\]$"):
        Instance.from_json_dict({"jobs": [1.0], "true_speeds": [1.0]})


def test_instance_file_round_trip(tmp_path):
    inst = make_instance([4.0, 3.0], [2.0, 1.0], [2.5, 0.5], name="disk", seed=9)
    path = str(tmp_path / "inst.json")
    cli._write(cli._json(inst.to_json_dict()), path)
    assert cli._read(path, Instance) == inst


def test_partition_json_round_trip(tmp_path):
    part = Partition(bags=((0, 2), (1,), ()))
    assert Partition.from_json_dict(json.loads(json.dumps(part.to_json_dict()))) == part
    path = str(tmp_path / "part.json")
    cli._write(cli._json(part.to_json_dict()), path)
    assert cli._read(path, Partition) == part
