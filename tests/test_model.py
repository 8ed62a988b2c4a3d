"""Tests for the core data model: instances, partitions, schedules, metrics."""

import json
import math

import pytest

import speedsched
from speedsched.gen import SplitMix64
from speedsched.model import (
    Assignment,
    Instance,
    IprState,
    Partition,
    Schedule,
    bag_load,
    beta_ratio,
    instance_from_json,
    instance_to_json,
    load_instance,
    load_partition,
    machine_loads,
    makespan,
    partition_from_json,
    partition_to_json,
    prediction_error,
    save_instance,
    save_partition,
    validate_partition,
)
from speedsched.partition import consistent_partition, lpt_partition
from speedsched.solvers import exact_schedule, lpt_schedule


def test_every_exported_name_resolves():
    assert len(set(speedsched.__all__)) == len(speedsched.__all__)
    for name in speedsched.__all__:
        assert hasattr(speedsched, name), name


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
    "consistent_partition-job": lambda x: consistent_partition([2.0, x], [1.0, 2.0]),
    "consistent_partition-speed": lambda x: consistent_partition([2.0, 3.0], [1.0, x]),
    "prediction_error-predicted": lambda x: prediction_error([1.0, x], [1.0, 2.0]),
    "prediction_error-true": lambda x: prediction_error([1.0, 2.0], [1.0, x]),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, None], ids=repr)
@pytest.mark.parametrize("call", sorted(_VALIDATING_CALLS))
def test_entry_points_reject_non_finite_negative_and_missing_numbers(call, bad):
    with pytest.raises(ValueError):
        _VALIDATING_CALLS[call](bad)


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
# Partition / Assignment / Schedule containers
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
    assert asg.m == 2
    assert asg.bags() == ((0, 1), (2,), (3,))
    assert asg.bag_to_machine() == (0, 0, 1)
    assert asg.to_partition().bags == ((0, 1), (2,), (3,))
    sched = asg.to_schedule()
    assert sched.bag_to_machine == (0, 0, 1)
    assert sched.m == 2


def test_schedule_rejects_out_of_range_machine():
    with pytest.raises(ValueError):
        Schedule(bag_to_machine=(0, 2), m=2)
    with pytest.raises(ValueError):
        Schedule(bag_to_machine=(0,), m=0)


def test_ipr_state_holds_trace_fields():
    asg = Assignment(collections=(((0,),),))
    state = IprState(
        assignment=asg,
        opt_c_bar=1.0,
        iterations=0,
        b_min_history=(1.0,),
        last_rebalance_load=0.0,
        last_rebalance_count=0,
    )
    assert state.opt_c_bar == 1.0
    assert state.b_min_history == (1.0,)


# ---------------------------------------------------------------------------
# bag_load / machine_loads / makespan
# ---------------------------------------------------------------------------


def test_bag_load_examples():
    jobs = [2.0, 3.0, 5.0]
    assert bag_load((0, 1), jobs) == 5.0
    assert bag_load((), jobs) == 0.0
    assert bag_load((2,), jobs) == 5.0


def test_bag_load_rejects_bad_index():
    with pytest.raises(IndexError):
        bag_load((3,), [2.0, 3.0, 5.0])


def test_machine_loads_and_makespan_example():
    # Bags of load 5 and 2 on machines of speed 2 and 1.
    inst = make_instance([5.0, 2.0], [2.0, 1.0], [2.0, 1.0])
    part = Partition(bags=((0,), (1,)))
    sched = Schedule(bag_to_machine=(0, 1), m=2)
    assert machine_loads(sched, part, inst.jobs) == [5.0, 2.0]
    assert makespan(sched, part, inst) == 2.5


def test_makespan_single_machine_is_total_load():
    inst = make_instance([3.0, 4.0, 5.0], [2.0], [2.0])
    part = Partition(bags=((0, 1, 2),))
    sched = Schedule(bag_to_machine=(0,), m=1)
    assert makespan(sched, part, inst) == 12.0 / 2.0


def test_makespan_empty_machine_contributes_zero():
    inst = make_instance([4.0], [1.0, 100.0], [1.0, 100.0])
    part = Partition(bags=((0,),))
    sched = Schedule(bag_to_machine=(0,), m=2)
    assert makespan(sched, part, inst) == 4.0


def test_makespan_use_predicted_switches_speeds():
    inst = make_instance([6.0], [2.0], [3.0])
    part = Partition(bags=((0,),))
    sched = Schedule(bag_to_machine=(0,), m=1)
    assert makespan(sched, part, inst) == 3.0
    assert makespan(sched, part, inst, use_predicted=True) == 2.0


def test_makespan_rejects_zero_predicted_speed():
    inst = make_instance([1.0], [1.0], [0.0])
    part = Partition(bags=((0,),))
    sched = Schedule(bag_to_machine=(0,), m=1)
    with pytest.raises(ValueError):
        makespan(sched, part, inst, use_predicted=True)


def test_makespan_rejects_zero_true_speed():
    inst = make_instance([1.0], [1.0, 0.0], [1.0, 1.0])
    part = Partition(bags=((0,), ()))
    sched = Schedule(bag_to_machine=(0, 1), m=2)
    with pytest.raises(ValueError):
        makespan(sched, part, inst)


def test_makespan_rejects_machine_count_mismatch():
    inst = make_instance([1.0], [1.0], [1.0])
    part = Partition(bags=((0,),))
    sched = Schedule(bag_to_machine=(0,), m=2)
    with pytest.raises(ValueError):
        makespan(sched, part, inst)


def test_makespan_invariances_random_trials():
    """Scaling all speeds by c divides the makespan by c; relabeling machines
    together with the schedule leaves it unchanged."""
    rng = SplitMix64(2024)
    for _ in range(50):
        n = 2 + rng.next_u64() % 5
        m = 1 + rng.next_u64() % 3
        jobs = tuple(1.0 + 9.0 * rng.next_float() for _ in range(n))
        speeds = tuple(0.5 + 4.0 * rng.next_float() for _ in range(m))
        assignment = tuple(rng.next_u64() % m for _ in range(n))
        part = Partition(bags=tuple((j,) for j in range(n)))
        sched = Schedule(bag_to_machine=assignment, m=m)
        inst = make_instance(jobs, speeds, speeds)
        base = makespan(sched, part, inst)

        c = 0.5 + 3.0 * rng.next_float()
        scaled = make_instance(jobs, tuple(s * c for s in speeds), speeds)
        assert makespan(sched, part, scaled) == pytest.approx(base / c, rel=1e-12)

        perm = sorted(range(m), key=lambda i: rng.next_u64())
        permuted_speeds = tuple(speeds[perm[i]] for i in range(m))
        inverse = [0] * m
        for new_idx, old_idx in enumerate(perm):
            inverse[old_idx] = new_idx
        relabeled = Schedule(bag_to_machine=tuple(inverse[i] for i in assignment), m=m)
        permuted = make_instance(jobs, permuted_speeds, permuted_speeds)
        assert makespan(relabeled, part, permuted) == pytest.approx(base, rel=1e-12)


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
    again = instance_from_json(instance_to_json(inst))
    assert again == inst
    assert again.jobs[1] == inst.jobs[1]
    assert again.predicted_speeds[1] == inst.predicted_speeds[1]


def test_instance_json_is_pretty_printed_dict():
    inst = make_instance([1.0], [1.0], [1.0])
    doc = json.loads(instance_to_json(inst))
    assert doc["jobs"] == [1.0]
    assert doc["true_speeds"] == [1.0]
    assert doc["predicted_speeds"] == [1.0]


def test_instance_from_json_rejects_missing_key():
    with pytest.raises((KeyError, ValueError)):
        instance_from_json(json.dumps({"jobs": [1.0], "true_speeds": [1.0]}))


def test_instance_file_round_trip(tmp_path):
    inst = make_instance([4.0, 3.0], [2.0, 1.0], [2.5, 0.5], name="disk", seed=9)
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    assert load_instance(str(path)) == inst


def test_partition_json_round_trip(tmp_path):
    part = Partition(bags=((0, 2), (1,), ()))
    assert partition_from_json(partition_to_json(part)) == part
    path = tmp_path / "part.json"
    save_partition(part, str(path))
    assert load_partition(str(path)) == part
