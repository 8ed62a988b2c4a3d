"""Tests for the evaluation harness: specs, ratios, experiments, verification."""

import dataclasses
import functools
import json
import math
import multiprocessing
import os
import signal
import threading
import time

import pytest

from speedsched import cli, gen, harness, solvers
from speedsched.gen import (
    Dist,
    SplitMix64,
    SyntheticConfig,
    gen_binary_lb_instance,
    gen_prop1_instance,
    gen_synthetic,
    substream,
)
from speedsched.harness import (
    ALGORITHMS,
    AlgorithmSpec,
    CurveRow,
    ExperimentConfig,
    ExperimentRow,
    PropertyCheck,
    WorkerDiedError,
    evaluate,
    make_partition,
    oracle_value,
    parse_algorithm,
    random_small_instance,
    run_experiment,
    theory_curve,
    verify_properties,
)
from speedsched.model import Instance, beta_ratio, validate_partition
from speedsched.partition import IprConfig, binary_speed_partition, consistent_partition, ipr, lpt_partition
from speedsched.solvers import BudgetExceededError, exact_schedule, lpt_schedule, opt_lower_bound

EXPECTED_PROPERTY_NAMES = [
    "gen-valid-instances",
    "lpt-partition-beta-le-2",
    "balanced-min-bag-load",
    "prediction-error-symmetric",
    "ipr-bmin-monotone-rho4",
    "ipr-iterations-le-m-squared",
    "ipr-beta-le-robust-bound",
    "ipr-consistency-guard",
    "ipr-robust-ratio-le-6",
    "unit-ipr-rho2-beta-bound",
    "unit-ipr-rho2-bmin-monotone",
    "fluid-rho2-balance-bound",
    "fluid-conserves-load",
    "binary-stage1-max-bag-le-2opt",
    "binary-merge-ratio-le-2",
    "merge-preserves-total",
    "capacity-certificate",
    "exact-matches-enumeration",
    "exact-le-lpt",
    "lower-bound-le-exact",
    "trap-family-exact-ratio",
    "tradeoff-family-ipr-bound",
    "binary-family-benchmark-floor",
]


def small_instance(jobs, true_speeds, predicted_speeds, **kwargs):
    return Instance(
        jobs=tuple(jobs),
        true_speeds=tuple(true_speeds),
        predicted_speeds=tuple(predicted_speeds),
        **kwargs,
    )


# ---------------------------------------------------------------------------
# AlgorithmSpec / parse_algorithm
# ---------------------------------------------------------------------------


def test_algorithm_name_aliases():
    # Each algorithm has exactly one name; the old alias spellings are rejected.
    for name in ("one-consistent", "ipr", "lpt"):
        assert parse_algorithm(name).name == name
    for alias in ("consistent_partition", "consistent", "lpt_partition", "lpt-partition"):
        with pytest.raises(ValueError, match="unknown algorithm"):
            parse_algorithm(alias)
        with pytest.raises(ValueError, match="unknown algorithm"):
            ExperimentConfig.from_json_dict({"algorithms": [alias]})


def test_algorithm_labels():
    assert AlgorithmSpec("one-consistent").label == "one-consistent"
    assert AlgorithmSpec("lpt").label == "lpt"
    assert AlgorithmSpec("ipr", alpha=0.5, rho=4.0).label == "ipr(alpha=0.5,rho=4)"
    assert AlgorithmSpec("ipr", alpha=0.25, rho=2.0).label == "ipr(alpha=0.25,rho=2)"


def test_pinned_scheduler_shows_in_label():
    assert AlgorithmSpec("ipr", scheduler="lpt").label == "ipr(alpha=0.5,rho=4,scheduler=lpt)"
    assert AlgorithmSpec("one-consistent", scheduler="lpt").label == "one-consistent(scheduler=lpt)"
    assert AlgorithmSpec("lpt", scheduler="exact").label == "lpt(scheduler=exact)"


def test_algorithm_spec_validation():
    with pytest.raises(ValueError):
        AlgorithmSpec("round-robin")
    with pytest.raises(ValueError):
        AlgorithmSpec("ipr", alpha=0.0)
    with pytest.raises(ValueError):
        AlgorithmSpec("ipr", rho=0.5)
    with pytest.raises(ValueError):
        AlgorithmSpec("lpt", scheduler="greedy")
    assert AlgorithmSpec("lpt", scheduler="exact").scheduler == "exact"
    assert AlgorithmSpec("lpt").scheduler is None


@pytest.mark.parametrize("name", ["one-consistent", "lpt", "binary"])
def test_algorithm_spec_takes_alpha_and_rho_only_for_ipr(name):
    for key, value in (("alpha", 7.0), ("alpha", 0.5), ("rho", 4.0)):
        with pytest.raises(ValueError, match=rf"^algorithm {name!r} takes no {key!r}; only 'ipr' does$"):
            AlgorithmSpec(name, **{key: value})
        with pytest.raises(ValueError, match=rf"^algorithm {name!r} takes no {key!r}"):
            parse_algorithm({"name": name, key: value})
    assert (AlgorithmSpec(name).alpha, AlgorithmSpec(name).rho) == (None, None)
    ipr_spec = AlgorithmSpec("ipr")
    assert (ipr_spec.alpha, ipr_spec.rho) == (0.5, 4.0)
    assert ipr_spec == AlgorithmSpec("ipr", alpha=0.5, rho=4) == parse_algorithm("ipr")
    # null is the default, as for "scheduler".
    assert parse_algorithm({"name": "ipr", "alpha": None, "rho": None}) == ipr_spec


def test_parse_algorithm_dict_form():
    spec = parse_algorithm({"name": "ipr", "alpha": 0.25, "rho": 2.0, "scheduler": "lpt"})
    assert spec == AlgorithmSpec("ipr", alpha=0.25, rho=2.0, scheduler="lpt")
    assert parse_algorithm({"name": "lpt"}) == AlgorithmSpec("lpt")


def test_parse_algorithm_rejects_bad_dicts():
    with pytest.raises(ValueError):
        parse_algorithm({"name": "ipr", "beta": 1.0})
    with pytest.raises(ValueError):
        parse_algorithm({"alpha": 0.5})
    with pytest.raises(ValueError):
        parse_algorithm(42)
    with pytest.raises(ValueError, match="algorithm 'rho' must be a number, got '2'"):
        parse_algorithm({"name": "ipr", "rho": "2"})


def test_parse_algorithm_passes_spec_through():
    spec = AlgorithmSpec("ipr", alpha=0.3)
    assert parse_algorithm(spec) is spec


# ---------------------------------------------------------------------------
# All-or-nothing speeds: 0.0 is an unusable machine, 1.0 a usable one
# ---------------------------------------------------------------------------


def test_binary_detection_on_lb_family():
    inst = gen_binary_lb_instance(1)
    assert inst.all_or_nothing
    assert inst.predicted_speeds.count(1.0) == 3
    assert inst.true_speeds.count(1.0) == 2


def test_binary_detection_mixed_values():
    inst = small_instance([1.0, 1.0], (1.0, 0.0), (0.0, 1.0))
    assert inst.all_or_nothing
    assert inst.predicted_speeds.count(1.0) == 1
    assert inst.true_speeds.count(1.0) == 1


def test_binary_detection_rejects_intermediate_speed():
    # Any speed other than 0.0 or 1.0 makes a related-speed instance, however
    # small it is.
    for slow in (1e-3, 0.4, 0.5, 0.7):
        assert not small_instance([1.0, 1.0], (1.0, slow), (1.0, 1.0)).all_or_nothing
        assert not small_instance([1.0, 1.0], (1.0, 1.0), (1.0, slow)).all_or_nothing


def test_binary_detection_needs_usable_machine_on_both_sides():
    # All machines predicted dead is not the all-or-nothing regime.
    assert not small_instance([1.0], (1.0,), (0.0,)).all_or_nothing
    # All machines truly dead is not an instance at all.
    with pytest.raises(ValueError):
        small_instance([1.0], (0.0, 0.0), (1.0, 1.0))


def test_plain_synthetic_is_not_binary():
    inst = gen_synthetic(SyntheticConfig(n=6, m=3, seed=1))
    assert not inst.all_or_nothing


def test_near_one_half_speed_is_a_related_speed():
    # A slow machine is not a dead one: the reference optimum uses it.
    inst = small_instance([3.0, 3.0, 2.0, 2.0], (1.0, 0.5), (1.0, 1.0))
    assert not inst.all_or_nothing
    assert oracle_value(inst, "exact") == 7.0
    for algo in ALGORITHMS:
        if algo == "binary":
            with pytest.raises(ValueError, match="^binary partitions all-or-nothing instances"):
                evaluate(inst, algo)
        else:
            assert evaluate(inst, algo) == pytest.approx(10.0 / 7.0)


# ---------------------------------------------------------------------------
# _solve, and make_partition routing
# ---------------------------------------------------------------------------


def test_solve_memo_keys_on_scheduler_and_item_order():
    solves = {}
    first = harness._solve(solves, [3.0, 2.0, 2.0], [2.0, 1.0], "exact", 1000)
    assert first == exact_schedule([3.0, 2.0, 2.0], [2.0, 1.0], 1000)
    assert harness._solve(solves, (3.0, 2.0, 2.0), (2.0, 1.0), "exact", 1000) is first
    # The schedule maps item positions, so another order is another key.
    reordered = harness._solve(solves, [2.0, 3.0, 2.0], [2.0, 1.0], "exact", 1000)
    assert reordered is not first and reordered.makespan == first.makespan
    greedy = harness._solve(solves, [3.0, 2.0, 2.0], [2.0, 1.0], "lpt", 1000)
    assert greedy == lpt_schedule([3.0, 2.0, 2.0], [2.0, 1.0])
    assert len(solves) == 3
    for _ in range(2):
        with pytest.raises(BudgetExceededError):
            harness._solve(solves, [3.0, 2.0, 2.0, 1.0], [1.5, 1.0], "exact", 1)
    assert len(solves) == 3


def test_make_partition_lpt_ignores_speeds():
    inst = small_instance([5.0, 4.0, 3.0, 3.0, 3.0], (1.0, 9.0), (9.0, 1.0))
    assert make_partition(inst, "lpt") == lpt_partition(inst.jobs, inst.m)


def test_make_partition_one_consistent_uses_predictions():
    inst = small_instance([3.0, 2.0, 2.0], (1.0, 1.0), (2.0, 1.0))
    placed = exact_schedule(inst.jobs, inst.predicted_speeds)
    expected = consistent_partition(inst.jobs, inst.predicted_speeds, placed)
    assert make_partition(inst, "one-consistent") == expected


def test_make_partition_routes_binary_instances():
    # m_hat, the machines predicted usable, is 3 of 3, then 2 of 3: the
    # split into m_hat subsets, then into three bags.
    for inst, m_hat in ((gen_binary_lb_instance(1), 3),
                        (small_instance([4.0, 3.0, 2.0, 1.0], (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)), 2)):
        speeds = [1.0] * m_hat
        initial = consistent_partition(inst.jobs, speeds, exact_schedule(inst.jobs, speeds))
        expected = binary_speed_partition(inst.jobs, inst.m, initial)
        assert make_partition(inst, "binary") == expected


def test_make_partition_rejects_binary_on_related_instances(monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("solved before rejecting")

    monkeypatch.setattr(harness, "schedule", unexpected)
    monkeypatch.setattr(harness, "consistent_partition", unexpected)
    monkeypatch.setattr(harness, "binary_speed_partition", unexpected)
    related = small_instance([3.0, 2.0, 2.0], (2.0, 1.0), (1.0, 1.0), name="rel", seed=5)
    # A 0/1 prediction is not enough: the true speeds must be 0.0 or 1.0 too.
    for inst in (related, small_instance([3.0, 2.0], (1.0, 0.5), (1.0, 0.0), name="half")):
        assert not inst.all_or_nothing
        with pytest.raises(
            ValueError, match=rf"^binary partitions .* instance name={inst.name!r} seed="
        ):
            make_partition(inst, "binary")


def test_binary_equals_one_consistent_when_every_prediction_is_one():
    # With every predicted speed 1.0, m_hat = m, so binary splits the
    # prediction-trusting partition's m subsets into one bag each: the same
    # partition, the identity that keeps a 0/1 instance's bytes.
    rng = SplitMix64(23)
    for _ in range(200):
        n = 1 + rng.next_u64() % 9
        m = 1 + rng.next_u64() % 4
        jobs = [max(100.0 * rng.next_float(), 1e-3) for _ in range(n)]
        true = [float(rng.next_u64() % 2) for _ in range(m)]
        true[rng.next_u64() % m] = 1.0
        inst = small_instance(jobs, true, [1.0] * m)
        assert inst.all_or_nothing
        for scheduler in ("exact", "lpt"):
            solves = {}
            trusted = make_partition(inst, "one-consistent", scheduler, solves=solves)
            assert make_partition(inst, "binary", scheduler) == trusted
            # Shared, not solved twice.
            assert make_partition(inst, "binary", scheduler, solves=solves) == trusted
            assert len(solves) == 2


def test_make_partition_ipr_matches_direct_call():
    inst = gen_synthetic(SyntheticConfig(n=10, m=3, err_sigma=8.0, seed=4))
    placed = exact_schedule(inst.jobs, inst.predicted_speeds)
    initial = consistent_partition(inst.jobs, inst.predicted_speeds, placed)
    expected = ipr(inst.jobs, inst.predicted_speeds, IprConfig(alpha=0.5, rho=4.0), initial)
    assert make_partition(inst, "ipr") == expected.partition


def test_make_partition_rejects_ipr_on_predicted_unusable_machines(monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("solved before rejecting")

    monkeypatch.setattr(harness, "schedule", unexpected)
    monkeypatch.setattr(harness, "consistent_partition", unexpected)
    inst = small_instance([3.0, 3.0, 2.0, 2.0], (1.0, 1.0, 0.0), (1.0, 0.0, 1.0))
    assert inst.all_or_nothing
    # An all-or-nothing instance: binary takes it, and one-consistent, which
    # partitions on positive predicted speeds, rejects it like ipr.
    for algorithm in ("one-consistent", "ipr"):
        with pytest.raises(ValueError, match=rf"^{algorithm} .* machines \[1\] unusable"):
            make_partition(inst, algorithm)
    monkeypatch.undo()
    assert evaluate(inst, "binary") == 1.0
    assert evaluate(inst, "lpt") == pytest.approx(1.2)


def test_make_partition_rejects_one_consistent_on_predicted_unusable_machines(monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("solved before rejecting")

    monkeypatch.setattr(harness, "schedule", unexpected)
    monkeypatch.setattr(harness, "consistent_partition", unexpected)
    inst = small_instance([3.0, 3.0, 2.0, 2.0], (1.0, 1.0, 2.0), (1.0, 0.0, 2.0))
    assert not inst.all_or_nothing
    for algorithm in ("one-consistent", "ipr"):
        with pytest.raises(ValueError, match=rf"^{algorithm} .* machines \[1\] unusable"):
            make_partition(inst, algorithm)
    monkeypatch.undo()
    assert evaluate(inst, "lpt") == 1.0


def test_make_partition_shares_trusting_partition_per_scheduler(monkeypatch):
    calls = []

    def counting(jobs, speeds, placed):
        calls.append("exact" if placed.optimal else "lpt")
        return consistent_partition(jobs, speeds, placed)

    inst = gen_synthetic(SyntheticConfig(n=10, m=3, err_sigma=8.0, seed=4))
    unshared = make_partition(inst, "ipr")
    monkeypatch.setattr(harness, "consistent_partition", counting)
    solves = {}
    trusted = make_partition(inst, "one-consistent", solves=solves)
    assert make_partition(inst, "ipr", solves=solves) == unshared
    make_partition(inst, AlgorithmSpec("ipr", scheduler="lpt"), solves=solves)
    make_partition(inst, "one-consistent", scheduler="lpt", solves=solves)
    assert calls == ["exact", "lpt"]
    kept = {key[1]: value for key, value in solves.items() if key[0] == "consistent_partition"}
    assert kept["exact"] == trusted
    assert set(kept) == {"exact", "lpt"}


def test_evaluate_under_perfect_predictions_solves_each_problem_once(monkeypatch):
    # With exact predictions the prediction-trusting solve is the oracle's
    # problem, and evaluate's one memo solves it once.
    exact_calls = []

    def exact(loads, speeds, node_budget):
        exact_calls.append((tuple(loads), tuple(speeds)))
        return exact_schedule(loads, speeds, node_budget)

    inst = gen_synthetic(SyntheticConfig(n=8, m=3, err_sigma=0.0, seed=2))
    expected = evaluate(inst, "one-consistent")
    monkeypatch.setattr(solvers, "exact_schedule", exact)
    assert evaluate(inst, "one-consistent") == expected
    assert len(exact_calls) == len(set(exact_calls)) == 2


def test_make_partition_validates_the_pinned_scheduler():
    inst = small_instance([3.0, 2.0, 2.0], (1.0, 1.0), (2.0, 1.0))
    pinned = AlgorithmSpec("one-consistent", scheduler="lpt")
    assert make_partition(inst, pinned, scheduler="greedy") == make_partition(inst, pinned)


def test_make_partition_rejects_bad_scheduler():
    inst = small_instance([1.0], (1.0,), (1.0,))
    with pytest.raises(ValueError):
        make_partition(inst, "lpt", scheduler="greedy")


def test_make_partition_output_always_valid():
    rng = SplitMix64(601)
    for _ in range(30):
        inst = random_small_instance(rng)
        for algo in ("lpt", "one-consistent", "ipr"):
            part = make_partition(inst, algo)
            validate_partition(part, inst.n, inst.m)


# ---------------------------------------------------------------------------
# oracle_value / evaluate
# ---------------------------------------------------------------------------


def test_oracle_value_exact_and_lower_bound():
    inst = small_instance([3.0, 2.0, 2.0], (2.0, 1.0), (2.0, 1.0))
    assert oracle_value(inst, "exact") == pytest.approx(2.5)
    assert oracle_value(inst, "lower_bound") == pytest.approx(7.0 / 3.0)
    with pytest.raises(ValueError):
        oracle_value(inst, "brute")


def test_oracle_value_binary_uses_usable_machines():
    # 6 unit jobs, 2 usable machines: optimal makespan 3 regardless of the
    # third (dead) machine.
    inst = gen_binary_lb_instance(1)
    assert oracle_value(inst, "exact") == 3.0


def test_evaluate_consistency_trap_trio():
    inst = gen_prop1_instance(10, 2)
    assert evaluate(inst, "one-consistent") == pytest.approx(1.8)
    assert evaluate(inst, AlgorithmSpec("ipr", alpha=0.5, rho=4.0)) == pytest.approx(1.0)
    assert evaluate(inst, "lpt") == pytest.approx(1.0)


def test_evaluate_binary_lb_family():
    assert evaluate(gen_binary_lb_instance(2), "binary") == pytest.approx(4.0 / 3.0)


def test_evaluate_binary_schedules_bags_on_usable_machines():
    # Stage two places the bags with the scheduler on the usable machines, as
    # `speedsched schedule` does: bags {4} {3} {2} {1} on two machines give
    # 5 and 5, and bags {3} {3} {2} {2} {2} give 6 and 6, each the optimum.
    inst = small_instance(
        [4.0, 3.0, 2.0, 1.0],
        (1.0, 1.0, 0.0, 0.0),
        (1.0, 1.0, 1.0, 1.0),
    )
    assert evaluate(inst, "binary") == 1.0
    inst = small_instance(
        [3.0, 3.0, 2.0, 2.0, 2.0],
        (1.0, 1.0, 0.0, 0.0, 0.0),
        (1.0, 1.0, 1.0, 1.0, 1.0),
    )
    assert evaluate(inst, "binary") == 1.0


def test_evaluate_never_below_one_with_exact_oracle():
    rng = SplitMix64(602)
    for _ in range(40):
        inst = random_small_instance(rng, n_max=8, m_max=3)
        for algo in ("lpt", "one-consistent", "ipr"):
            assert evaluate(inst, algo) >= 1.0 - 1e-9


def test_evaluate_budget_error_names_instance():
    inst = small_instance([3.0, 2.0, 2.0], (2.0, 1.0), (2.0, 1.0), name="tiny-budget")
    with pytest.raises(BudgetExceededError) as excinfo:
        evaluate(inst, "one-consistent", node_budget=1)
    assert "tiny-budget" in str(excinfo.value)


def test_evaluate_rejects_bad_scheduler():
    inst = gen_prop1_instance(10, 2)
    for algo in ("one-consistent", "ipr", "lpt"):
        with pytest.raises(ValueError, match="scheduler must be one of"):
            evaluate(inst, algo, scheduler="greedy")


def test_evaluate_scheduler_override_beats_argument():
    """A scheduler pinned on the algorithm wins over the call-site scheduler."""
    inst = gen_synthetic(SyntheticConfig(n=12, m=4, seed=0))
    via_argument = evaluate(inst, "ipr", scheduler="lpt")
    via_spec = evaluate(inst, AlgorithmSpec("ipr", scheduler="lpt"), scheduler="exact")
    plain = evaluate(inst, "ipr", scheduler="exact")
    assert via_spec == via_argument
    assert via_argument == pytest.approx(1.1729189564364197, rel=1e-12)
    assert plain == pytest.approx(1.059459555563328, rel=1e-12)
    assert via_spec != plain


# ---------------------------------------------------------------------------
# ExperimentConfig
# ---------------------------------------------------------------------------


def test_experiment_config_defaults():
    cfg = ExperimentConfig()
    assert cfg.n == 12 and cfg.m == 4
    assert cfg.instances_per_point == 100
    assert [a.label for a in cfg.algorithms] == ["one-consistent", "ipr(alpha=0.5,rho=4)", "lpt"]
    assert cfg.scheduler == "exact" and cfg.oracle == "exact"


def test_experiment_config_default_sweep_is_error_grid():
    cfg = ExperimentConfig()
    values = [value for value, _ in cfg.points]
    assert len(values) == 11
    assert values[0] == 0.0
    assert values[-1] == pytest.approx(20.0)  # mean of uniform(0, 40)
    assert values[5] == pytest.approx(10.0)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(sweep_param="speed")
    with pytest.raises(ValueError):
        ExperimentConfig(instances_per_point=0)
    with pytest.raises(ValueError):
        ExperimentConfig(scheduler="greedy")
    with pytest.raises(ValueError):
        ExperimentConfig(oracle="brute")
    with pytest.raises(ValueError):
        ExperimentConfig(algorithms=("lpt", "lpt"))
    # Built only, never run: a run at the bound draws a million instances.
    ExperimentConfig(instances_per_point=gen.MAX_SHAPE, sweep_values=[0.0])
    with pytest.raises(ValueError, match="'instances_per_point' must be at most"):
        ExperimentConfig(instances_per_point=gen.MAX_SHAPE + 1)


def test_experiment_config_bounds_the_instances_of_a_sweep():
    # Built only, never run.  The bound holds for the sweep as a whole, the
    # default grid's 11 points included, and is checked before any sweep
    # value is resolved: 6.5 is no job count, but the size is found first.
    half = gen.MAX_SHAPE // 2
    ExperimentConfig(sweep_param="n", sweep_values=[4, 8], instances_per_point=half)
    for doc, points in (({"sweep_values": [0.0, 1.0, 2.0]}, 3), ({}, 11),
                        ({"sweep_param": "n", "sweep_values": [12, 6.5, 8]}, 3)):
        with pytest.raises(ValueError, match=r"^experiment config 'sweep_values' times "
                           rf"'instances_per_point' must be at most \d+, got {points} \* {half}$"):
            ExperimentConfig(instances_per_point=half, **doc)


def test_experiment_config_non_default_sweep_needs_values():
    cfg = ExperimentConfig(sweep_param="n", sweep_values=(4.0, 8.0))
    assert [value for value, _ in cfg.points] == [4.0, 8.0]
    with pytest.raises(ValueError, match="'sweep_values' must be given for 'sweep_param' 'n'"):
        ExperimentConfig(sweep_param="n")


def test_experiment_config_points_apply_sweep():
    cfg = ExperimentConfig(seed=3, sweep_values=(7.5,))
    ((value, syn),) = cfg.points
    assert value == 7.5
    assert syn.err_sigma == 7.5
    assert syn.seed == 3
    assert syn.n == 12 and syn.m == 4

    ncfg = ExperimentConfig(sweep_param="n", sweep_values=(6.0,))
    assert ncfg.points[0][1].n == 6
    with pytest.raises(ValueError, match="'sweep_values' entry 6.5 for 'sweep_param' 'n'"):
        ExperimentConfig(sweep_param="n", sweep_values=(6.0, 6.5))


def test_experiment_config_sigma_sweeps_need_normal_dists():
    with pytest.raises(ValueError, match="'sweep_param' 'sigma_s' needs a normal 'speed_dist'"):
        ExperimentConfig(sweep_param="sigma_s", sweep_values=(1.0,))
    ok = ExperimentConfig(
        sweep_param="sigma_s",
        sweep_values=(1.0,),
        speed_dist=Dist.normal(20.0, 4.0),
    )
    assert ok.points[0][1].speed_dist == Dist.normal(20.0, 1.0)


def test_experiment_config_from_json():
    doc = {
        "n": 6,
        "m": 2,
        "job_dist": {"kind": "normal", "mu": 50.0, "sigma": 5.0},
        "speed_dist": {"kind": "uniform", "lo": 0.0, "hi": 40.0},
        "err_sigma": 0.0,
        "sweep_param": "err_sigma",
        "sweep_values": [0.0, 10],
        "algorithms": [
            "one-consistent",
            {"name": "ipr", "alpha": 0.5, "rho": 4.0, "scheduler": "lpt"},
            "lpt",
        ],
        "instances_per_point": 5,
        "scheduler": "exact",
        "oracle": "lower_bound",
        "seed": 3,
        "node_budget": 1000,
    }
    assert ExperimentConfig.from_json_dict(doc) == ExperimentConfig(
        n=6,
        m=2,
        job_dist=Dist.normal(50.0, 5.0),
        algorithms=(
            AlgorithmSpec("one-consistent"),
            AlgorithmSpec("ipr", scheduler="lpt"),
            AlgorithmSpec("lpt"),
        ),
        instances_per_point=5,
        sweep_values=(0.0, 10.0),
        oracle="lower_bound",
        seed=3,
        node_budget=1000,
    )


def test_experiment_config_from_json_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ExperimentConfig.from_json_dict({"bogus": 1})
    with pytest.raises(ValueError):
        ExperimentConfig.from_json_dict([])
    with pytest.raises(ValueError, match=r"unknown experiment config keys: \['points'\]"):
        ExperimentConfig.from_json_dict({"points": []})


@pytest.mark.parametrize(
    "doc",
    [
        {"n": True},
        {"n": 2.5},
        {"n": 0},
        {"m": -1},
        {"seed": 1.5},
        {"instances_per_point": 0},
        {"node_budget": 0},
        {"node_budget": -5},
        {"err_sigma": "1"},
        {"err_sigma": -1.0},
        {"err_sigma": math.nan},
        {"sweep_param": "speed"},
        {"scheduler": "greedy"},
        {"oracle": None},
        {"sweep_values": "12"},
        {"sweep_values": [0, "1"]},
        {"sweep_values": [0.0, True]},
        {"algorithms": "lpt"},
        {"algorithms": [5]},
        {"algorithms": ["lpt", "lpt"]},
        {"job_dist": 5},
        {"job_dist": {"kind": "normal", "mu": math.inf, "sigma": 1}},
        # The default err_sigma grid runs from 0 to the speed distribution's mean.
        {"speed_dist": {"kind": "uniform", "lo": -5, "hi": -1}},
        {"speed_dist": {"kind": "uniform", "lo": 1e308, "hi": 1.7e308}},
        {"sweep_param": "n"},
        {"sweep_param": "n", "sweep_values": [12, 6.5]},
        {"sweep_param": "m", "sweep_values": [2, 0]},
        {"sweep_param": "sigma_p", "sweep_values": [1.0]},
        {"sweep_param": "sigma_s", "sweep_values": [1.0, -2.0],
         "speed_dist": {"kind": "normal", "mu": 20, "sigma": 1}},
    ],
)
def test_experiment_config_constructor_and_json_reader_reject_alike(doc):
    # One rule set: the same error, naming a key, whichever way the config is built.
    with pytest.raises(ValueError) as built:
        ExperimentConfig(**doc)
    with pytest.raises(ValueError) as read:
        ExperimentConfig.from_json_dict(doc)
    assert str(built.value) == str(read.value)
    assert str(read.value).startswith("experiment config '")
    assert any(repr(key) in str(read.value) for key in doc)


def test_experiment_config_accepts_distributions_as_json_objects():
    doc = {"kind": "normal", "mu": 20, "sigma": 4}
    assert ExperimentConfig(speed_dist=doc) == ExperimentConfig(speed_dist=Dist.normal(20.0, 4.0))


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


def small_sweep_config():
    return ExperimentConfig(
        n=6, m=2, instances_per_point=25, sweep_values=(0.0, 20.0), seed=0
    )


def test_run_experiment_row_shape():
    rows = run_experiment(small_sweep_config())
    assert len(rows) == 6  # 2 sweep points x 3 algorithms
    assert [r.sweep_value for r in rows] == [0.0, 0.0, 0.0, 20.0, 20.0, 20.0]
    for row in rows:
        assert row.sweep_param == "err_sigma"
        assert row.n_instances == 25
        assert row.oracle_kind == "exact"
        assert row.mean_ratio >= 1.0 - 1e-9
        assert row.std_ratio >= 0.0


def test_run_experiment_trends():
    rows = run_experiment(small_sweep_config())
    by_cell = {(r.sweep_value, r.algorithm): r.mean_ratio for r in rows}
    oc0 = by_cell[(0.0, "one-consistent")]
    oc20 = by_cell[(20.0, "one-consistent")]
    lpt0 = by_cell[(0.0, "lpt")]
    lpt20 = by_cell[(20.0, "lpt")]
    # Exact predictions: trusting them fully is exactly optimal.
    assert oc0 == pytest.approx(1.0, abs=1e-9)
    # The speed-oblivious baseline cannot see the swept parameter at all.
    assert lpt0 == lpt20
    # Wrong predictions hurt the trusting algorithm.
    assert oc20 > oc0 + 0.05


def test_run_experiment_is_deterministic():
    assert run_experiment(small_sweep_config()) == run_experiment(small_sweep_config())


def test_run_experiment_reports_pinned_and_unpinned_ipr_apart():
    config = ExperimentConfig(
        n=6,
        m=2,
        instances_per_point=5,
        sweep_values=(5.0,),
        algorithms=(AlgorithmSpec("ipr"), AlgorithmSpec("ipr", scheduler="lpt")),
    )
    rows = run_experiment(config)
    assert [r.algorithm for r in rows] == [
        "ipr(alpha=0.5,rho=4)",
        "ipr(alpha=0.5,rho=4,scheduler=lpt)",
    ]
    via_config = ExperimentConfig(
        n=6, m=2, instances_per_point=5, sweep_values=(5.0,), algorithms=("ipr",), scheduler="lpt"
    )
    assert rows[1].mean_ratio == run_experiment(via_config)[0].mean_ratio


def test_run_experiment_honours_per_algorithm_scheduler():
    base = ExperimentConfig(
        n=6,
        m=2,
        instances_per_point=10,
        sweep_values=(5.0,),
        algorithms=(AlgorithmSpec("ipr"),),
    )
    pinned = ExperimentConfig(
        n=6,
        m=2,
        instances_per_point=10,
        sweep_values=(5.0,),
        algorithms=(AlgorithmSpec("ipr", scheduler="lpt"),),
    )
    via_config = ExperimentConfig(
        n=6,
        m=2,
        instances_per_point=10,
        sweep_values=(5.0,),
        algorithms=(AlgorithmSpec("ipr"),),
        scheduler="lpt",
    )
    assert run_experiment(pinned)[0].mean_ratio == run_experiment(via_config)[0].mean_ratio
    assert run_experiment(pinned)[0].mean_ratio >= run_experiment(base)[0].mean_ratio


@pytest.mark.parametrize(
    "algorithms, solves_per_instance",
    [
        ((), 1),  # the defaults: one-consistent, ipr, lpt
        (("one-consistent", {"name": "ipr", "alpha": 0.25, "scheduler": "lpt"}, "ipr"), 2),
    ],
)
def test_run_experiment_solves_consistent_partition_once_per_scheduler(
    monkeypatch, algorithms, solves_per_instance
):
    use_cpus(monkeypatch, 1)  # the seeds run in this process, where the calls are counted
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return consistent_partition(*args, **kwargs)

    monkeypatch.setattr(harness, "consistent_partition", counting)
    config = ExperimentConfig(
        n=6, m=2, instances_per_point=4, sweep_values=(0.0, 10.0), algorithms=algorithms
    )
    run_experiment(config)
    assert len(calls) == solves_per_instance * 2 * 4


def assert_no_child_processes():
    """This process has no child left, running or unreaped; the check does
    not wait."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def use_cpus(monkeypatch, count):
    """Make ``run_experiment`` see ``count`` usable CPUs: with one it runs every
    seed in this process, with more it forks a pool of that many workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def record_pids(monkeypatch, path):
    """Append the id of the process behind every ``gen_synthetic`` call to ``path``."""

    def recording(config):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return gen_synthetic(config)

    monkeypatch.setattr(harness, "gen_synthetic", recording)
    return lambda: set(path.read_text(encoding="utf-8").split()) if path.exists() else set()


POOL_CONFIGS = [
    ExperimentConfig(
        n=7, m=3, instances_per_point=4, sweep_values=(0.0, 10.0, 20.0), seed=5,
        algorithms=("one-consistent", "ipr", {"name": "ipr", "scheduler": "lpt"}, "lpt"),
    ),
    ExperimentConfig(
        sweep_param="n", sweep_values=(5, 8), m=3, instances_per_point=3, oracle="lower_bound",
        algorithms=({"name": "one-consistent", "scheduler": "lpt"}, "ipr", "lpt"),
    ),
    ExperimentConfig(
        sweep_param="m", sweep_values=(2, 3, 4), n=9, instances_per_point=5, err_sigma=8.0,
        algorithms=("one-consistent", {"name": "ipr", "alpha": 0.25, "scheduler": "lpt"}),
    ),
    ExperimentConfig(
        sweep_param="sigma_p", sweep_values=(0.0, 6.0, 0.0, 20.0), n=8, m=3,
        job_dist=Dist.normal(30.0, 1.0), err_sigma=5.0, instances_per_point=3, seed=2,
    ),
    ExperimentConfig(
        sweep_param="sigma_s", sweep_values=(0.0, 4.0, 12.0, 4.0), n=7, m=3,
        speed_dist=Dist.normal(20.0, 1.0), err_sigma=6.0, instances_per_point=4,
        oracle="lower_bound", algorithms=("one-consistent", "ipr", "lpt"),
    ),
]


@pytest.mark.parametrize("config", POOL_CONFIGS, ids=list(harness.SWEEP_PARAMS))
def test_run_experiment_pool_gives_the_in_process_rows(monkeypatch, tmp_path, config):
    pids = record_pids(monkeypatch, tmp_path / "in-process")
    use_cpus(monkeypatch, 1)
    in_process = run_experiment(config)
    assert pids() == {str(os.getpid())}
    pids = record_pids(monkeypatch, tmp_path / "pooled")
    use_cpus(monkeypatch, 3)
    assert run_experiment(config) == in_process
    assert_no_child_processes()
    if "fork" in multiprocessing.get_all_start_methods():
        assert pids() and str(os.getpid()) not in pids()


def test_run_experiment_forks_no_worker_from_a_threaded_process(monkeypatch, tmp_path):
    pids = record_pids(monkeypatch, tmp_path / "pids")
    use_cpus(monkeypatch, 3)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        run_experiment(POOL_CONFIGS[0])
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert pids() == {str(os.getpid())}


def test_run_experiment_raises_the_first_failure_in_serial_order(monkeypatch, capsys, tmp_path):
    # Seed 4 runs out of nodes at m=4, seed 6 already at m=3; a serial run
    # meets seed 6's failure first, and so must a pooled one.
    doc = {"sweep_param": "m", "sweep_values": [2, 3, 4], "n": 10, "instances_per_point": 3,
           "seed": 4, "node_budget": 200}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    outcomes = []
    for cpus in (1, 3):
        use_cpus(monkeypatch, cpus)
        with pytest.raises(BudgetExceededError) as excinfo:
            run_experiment(ExperimentConfig.from_json_dict(doc))
        code = cli.main(["experiment", "--config", str(path)])
        outcomes.append((str(excinfo.value), excinfo.value.nodes_explored, code,
                         capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]
    message, nodes, code, err = outcomes[0]
    assert message.endswith(" [m=3.0 seed=6]") and nodes > 200
    assert (code, err) == (3, f"error: {message}\n")


def test_run_experiment_runs_no_instance_after_the_first_failure(monkeypatch):
    # Seed 0 runs out of nodes at the first sweep point, where a serial run
    # stops; its error is raised as it was met, and no other seed runs.
    seeds = []

    def recording(config):
        seeds.append(config.seed)
        return gen_synthetic(config)

    monkeypatch.setattr(harness, "gen_synthetic", recording)
    use_cpus(monkeypatch, 1)
    config = ExperimentConfig(n=6, m=2, instances_per_point=4, sweep_values=(0.0, 10.0),
                              node_budget=1)
    with pytest.raises(BudgetExceededError, match=r"\[err_sigma=0.0 seed=0\]$"):
        run_experiment(config)
    assert seeds == [0]


def record_instances(monkeypatch, path):
    """Append ``seed err_sigma`` of every generated instance to ``path``, from
    whichever process generates it."""

    def recording(config):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{config.seed} {config.err_sigma}\n")
        return gen_synthetic(config)

    monkeypatch.setattr(harness, "gen_synthetic", recording)
    return lambda: path.read_text(encoding="utf-8").splitlines()


def test_pooled_run_experiment_solves_its_failing_instance_once(monkeypatch, tmp_path):
    # Every instance runs out of nodes at the first sweep point; the workers
    # return their errors, and none is solved again to raise it.
    instances = record_instances(monkeypatch, tmp_path / "instances")
    use_cpus(monkeypatch, 3)
    config = ExperimentConfig(n=6, m=2, instances_per_point=4, sweep_values=(0.0, 10.0),
                              node_budget=1)
    with pytest.raises(BudgetExceededError, match=r"\[err_sigma=0.0 seed=0\]$") as excinfo:
        run_experiment(config)
    assert excinfo.value.nodes_explored > 1
    assert instances().count("0 0.0") == 1
    assert len(instances()) == len(set(instances()))
    assert_no_child_processes()


def test_run_experiment_solves_each_subproblem_once_per_seed(monkeypatch):
    # The seeds run in this process, where the calls are counted.  Every
    # instance of a seed has the same jobs and true speeds, so the oracle,
    # lpt's partition and lpt's stage two are solved once per seed, and the
    # err_sigma=0 trusting solve is the oracle's subproblem.
    use_cpus(monkeypatch, 1)
    exact_calls, lpt_partitions = [], []

    def exact(loads, speeds, node_budget):
        exact_calls.append((tuple(loads), tuple(speeds)))
        return exact_schedule(loads, speeds, node_budget)

    def lpt_split(jobs, k):
        lpt_partitions.append(tuple(jobs))
        return lpt_partition(jobs, k)

    monkeypatch.setattr(solvers, "exact_schedule", exact)
    monkeypatch.setattr(harness, "lpt_partition", lpt_split)
    config = ExperimentConfig(n=7, m=3, instances_per_point=3, sweep_values=(0.0, 0.0, 10.0))
    rows = run_experiment(config)
    assert len(exact_calls) == len(set(exact_calls))
    assert len(lpt_partitions) == len(set(lpt_partitions)) == 3
    # Per seed: the oracle and lpt's stage two once; the trusting solve once
    # for err_sigma=10 (at err_sigma=0 it is the oracle's); the stage two of
    # one-consistent and of ipr once for each of the two predictions.
    assert len(exact_calls) <= 3 * (2 + 1 + 2 * 2)
    monkeypatch.undo()
    use_cpus(monkeypatch, 1)
    assert rows == run_experiment(config)


@pytest.mark.parametrize("cpus", [1, 3])
def test_run_experiment_draws_each_seed_once(monkeypatch, tmp_path, cpus):
    # Every point of the default sweep draws the same jobs, true speeds and
    # unit-normal errors for a seed; the generator keeps the last draws, and
    # a process runs a seed's points back to back, so it draws them once in
    # each process that runs the seed's points.  On one CPU that is one
    # process; in a pool a worker left without an unstarted seed joins a
    # started one and draws it again, so a seed is drawn once per worker
    # that runs it, and only a seed still running when the last one starts
    # is shared.  A draw, not a kept one, opens the seed's job stream.
    path = tmp_path / "draws"
    substream = gen.substream

    def recording(seed, tag):
        if tag == gen._JOBS_TAG:
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {seed}\n")
        return substream(seed, tag)

    monkeypatch.setattr(gen, "substream", recording)
    gen._draws.cache_clear()
    use_cpus(monkeypatch, cpus)
    run_experiment(ExperimentConfig())
    lines = path.read_text(encoding="utf-8").splitlines()
    records = [tuple(map(int, line.split())) for line in lines]
    seeds = sorted(seed for _, seed in records)
    if cpus == 1:
        assert seeds == list(range(100))
    else:
        assert set(seeds) == set(range(100))
        assert len(records) == len(set(records))
        assert sum(seeds.count(seed) > 1 for seed in set(seeds)) <= cpus * (cpus - 1)
    assert_no_child_processes()


NO_FAILURE = math.inf


def test_claim_keeps_its_item_then_starts_the_next_unstarted_one():
    indexes = [[0, 3, 6], [1, 4, 7], [2, 5, 8]]
    counters = [NO_FAILURE, 2, 1, 1, 0]  # items 0 and 1 started, one step each claimed
    assert harness._claim(counters, indexes, 0) == (0, 1)
    assert harness._claim(counters, indexes, 0) == (0, 2)
    assert harness._claim(counters, indexes, 0) == (2, 0)
    assert counters == [NO_FAILURE, 3, 3, 1, 1]


def test_claim_joins_the_started_item_with_the_most_steps_left():
    indexes = [[0, 3, 6, 9], [1, 4, 7, 10], [2, 5, 8, 11]]
    counters = [NO_FAILURE, 3, 4, 2, 2]  # all started; items 1 and 2 have two steps left
    assert harness._claim(counters, indexes, 0) == (1, 2)  # a tie goes to the lowest item
    assert harness._claim(counters, indexes, -1) == (2, 2)  # item 2 has more left now
    assert harness._claim(counters, indexes, 1) == (1, 3)  # a joiner stays on its item
    assert harness._claim(counters, indexes, 1) == (2, 3)
    assert harness._claim(counters, indexes, 2) is None
    assert counters == [NO_FAILURE, 3, 4, 4, 4]


def test_claim_takes_no_step_past_the_first_failure():
    indexes = [[0, 3, 6], [1, 4, 7], [2, 5, 8]]
    counters = [4, 1, 1, 0, 0]  # a step at index 4 failed
    assert harness._claim(counters, indexes, 0) == (0, 1)
    assert harness._claim(counters, indexes, 0) == (1, 0)  # item 0's next index is 6
    assert harness._claim(counters, indexes, 1) == (1, 1)
    assert harness._claim(counters, indexes, 1) == (2, 0)
    assert harness._claim(counters, indexes, 2) is None  # item 2 goes on at index 5
    assert counters == [4, 3, 2, 2, 1]


def test_claim_skips_items_without_steps_and_runs_one_worker_in_serial_order():
    assert harness._claim([NO_FAILURE, 0, 0, 0], [[], [0]], -1) == (1, 0)
    indexes = [[0, 2, 4], [], [1, 3]]
    counters, own, claims = [NO_FAILURE, 0, 0, 0, 0], -1, []
    while (claimed := harness._claim(counters, indexes, own)) is not None:
        own = claimed[0]
        claims.append(claimed)
    assert claims == [(0, 0), (0, 1), (0, 2), (2, 0), (2, 1)]


def test_two_workers_on_three_seeds_give_the_in_process_rows(monkeypatch, tmp_path):
    # Three seeds on two workers: the worker that finishes first joins the
    # last seed started, and the rows stay those of one CPU.
    config = ExperimentConfig(n=8, m=3, instances_per_point=3)
    use_cpus(monkeypatch, 1)
    in_process = run_experiment(config)
    pids = record_pids(monkeypatch, tmp_path / "pooled")
    use_cpus(monkeypatch, 2)
    assert run_experiment(config) == in_process
    assert_no_child_processes()
    if "fork" in multiprocessing.get_all_start_methods():
        assert pids() and str(os.getpid()) not in pids()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_a_failure_in_a_shared_seed_is_the_serial_one(monkeypatch, tmp_path):
    # Seed 0's points are quick and seed 1's slow in a worker, so the worker
    # done with seed 0 joins seed 1.  Seed 0 fails at err_sigma=18 (index
    # 18) and seed 1 at err_sigma=10 (index 11): a serial run meets seed 0's
    # error first and seed 1's later, and raises seed 1's; so must the pool,
    # whichever worker runs that point.
    parent, path = os.getpid(), tmp_path / "instances"

    def failing(config):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {config.seed} {config.err_sigma}\n")
        if config.seed == 1 and os.getpid() != parent:
            time.sleep(0.1)
        if (config.seed, config.err_sigma) in ((0, 18.0), (1, 10.0)):
            raise ValueError(f"seed {config.seed} failed at err_sigma={config.err_sigma}")
        return gen_synthetic(config)

    monkeypatch.setattr(harness, "gen_synthetic", failing)
    config = ExperimentConfig(n=6, m=2, instances_per_point=2)
    errors = []
    for cpus in (1, 2):
        path.unlink(missing_ok=True)
        use_cpus(monkeypatch, cpus)
        with pytest.raises(ValueError) as excinfo:
            run_experiment(config)
        errors.append(str(excinfo.value))
    assert errors == ["seed 1 failed at err_sigma=10.0"] * 2
    assert_no_child_processes()
    records = [line.split() for line in path.read_text(encoding="utf-8").splitlines()]
    instances = [(seed, sigma) for _, seed, sigma in records]
    assert len(instances) == len(set(instances))
    assert len({pid for pid, seed, _ in records if seed == "1"}) == 2


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize("cpus", [1, 2])
def test_map_tasks_leaves_no_open_fd(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    before = sorted(os.listdir("/proc/self/fd"))
    run_experiment(ExperimentConfig(n=6, m=2, instances_per_point=3, sweep_values=(0.0, 10.0)))
    with pytest.raises(BudgetExceededError):
        run_experiment(ExperimentConfig(n=6, m=2, instances_per_point=3, node_budget=1))
    assert sorted(os.listdir("/proc/self/fd")) == before


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_more_workers_than_cpus_run_every_step_once(monkeypatch, tmp_path):
    # Six workers on this machine's CPUs: five items have one step and the
    # last 2000, so five workers join it at once and claim its steps side by
    # side; still every step runs once.  An alarm ends a run that hangs.
    path = tmp_path / "runs"
    indexes = [[item] for item in range(5)] + [list(range(5, 2005))]
    runs = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)

    def task(item):
        def step(index):
            os.write(runs, b"%d\n" % index)
            return index * index

        return [(index, functools.partial(step, index)) for index in indexes[item]]

    def timeout(signum, frame):
        raise TimeoutError

    use_cpus(monkeypatch, 6)
    previous = signal.signal(signal.SIGALRM, timeout)
    try:
        signal.setitimer(signal.ITIMER_REAL, 30.0)
        results = harness._map_tasks(task, range(6))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        os.close(runs)
    assert results == {index: index * index for index in range(2005)}
    assert sorted(map(int, path.read_text(encoding="utf-8").split())) == list(range(2005))
    assert_no_child_processes()


def test_run_experiment_bounds_each_seed_once(monkeypatch):
    # The lower-bound oracle reads a seed's jobs and true speeds, the same at
    # every err_sigma point; the seed's memo computes it once.
    use_cpus(monkeypatch, 1)
    bounds = []

    def bound(loads, speeds):
        bounds.append((tuple(loads), tuple(speeds)))
        return opt_lower_bound(loads, speeds)

    config = ExperimentConfig(n=9, m=3, instances_per_point=4, sweep_values=(0.0, 5.0, 10.0),
                              oracle="lower_bound", scheduler="lpt")
    expected = run_experiment(config)
    monkeypatch.setattr(harness, "opt_lower_bound", bound)
    assert run_experiment(config) == expected
    assert len(bounds) == len(set(bounds)) == 4


@pytest.mark.parametrize("section", [harness._check_all_or_nothing, harness._check_families])
def test_verify_section_solves_each_problem_once(monkeypatch, section):
    # An all-or-nothing trial solves its jobs on m_hat, m and m_zero identical
    # machines, and the fixed families share subproblems between instances;
    # each problem is solved once per section run, and the report is unchanged.
    exact_calls = []

    def exact(loads, speeds, node_budget):
        exact_calls.append((tuple(loads), tuple(speeds)))
        return exact_schedule(loads, speeds, node_budget)

    def checks():
        [(_, step)] = harness._section_checks(0, 20, solvers.DEFAULT_NODE_BUDGET, section)
        return step()

    expected = checks()
    monkeypatch.setattr(solvers, "exact_schedule", exact)
    monkeypatch.setattr(harness, "exact_schedule", exact)
    got = checks()
    assert 20 < len(exact_calls) == len(set(exact_calls))
    assert got == expected


def test_verify_section_reports_first_counterexample(monkeypatch):
    # The LPT section's beta check fails at trials 2 and 4 only: both count,
    # and the counterexample describes trial 2, the first, as redrawn from
    # the section's substream.
    betas = []

    def beta(part, jobs):
        betas.append(3.0 if len(betas) in (2, 4) else beta_ratio(part, jobs))
        return betas[-1]

    monkeypatch.setattr(harness, "beta_ratio", beta)
    [(_, step)] = harness._section_checks(
        5, 7, solvers.DEFAULT_NODE_BUDGET, harness._check_lpt_partition
    )
    checks = {check.name: check for check in step()}
    rng = substream(5, 102)
    trial_2 = [random_small_instance(rng) for _ in range(3)][2]
    assert len(betas) == 7
    assert checks["lpt-partition-beta-le-2"] == PropertyCheck(
        "lpt-partition-beta-le-2", 5, 7, harness._dump(trial_2, "beta=3.0")
    )
    assert all(check.ok for name, check in checks.items() if name != "lpt-partition-beta-le-2")


def test_evaluate_matches_run_experiment():
    algorithms = (
        AlgorithmSpec("one-consistent"),
        AlgorithmSpec("ipr", alpha=0.25, rho=2.0),
        AlgorithmSpec("ipr", scheduler="lpt"),
        AlgorithmSpec("lpt"),
    )
    for seed in range(3):
        config = ExperimentConfig(
            n=8, m=3, instances_per_point=1, sweep_values=(0.0, 12.0), algorithms=algorithms,
            seed=seed,
        )
        points = dict(config.points)
        for row in run_experiment(config):
            inst = gen_synthetic(dataclasses.replace(points[row.sweep_value], seed=seed))
            spec = next(a for a in algorithms if a.label == row.algorithm)
            assert evaluate(inst, spec) == row.mean_ratio


def test_experiment_csv_format():
    rows = [
        ExperimentRow("err_sigma", 0.0, "lpt", 1.25, 0.5, 10, "exact"),
        ExperimentRow("err_sigma", 2.5, "ipr(alpha=0.5,rho=4)", 1.0, 0.0, 10, "exact"),
    ]
    text = cli._table(ExperimentRow, rows)
    lines = text.split("\n")
    assert lines[0] == (
        "sweep_param,sweep_value,algorithm,mean_ratio,std_ratio,n_instances,oracle_kind"
    )
    assert lines[1] == "err_sigma,0.0,lpt,1.25,0.5,10,exact"
    # The parameterised label contains a comma, so the CSV writer quotes it.
    assert lines[2] == 'err_sigma,2.5,"ipr(alpha=0.5,rho=4)",1.0,0.0,10,exact'
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# Theory curves
# ---------------------------------------------------------------------------


def test_theory_curve_values():
    row = theory_curve(0.5)
    assert row == CurveRow(
        alpha=0.5,
        consistency=1.5,
        robustness_general=6.0,
        robustness_equal_jobs=4.0,
        robustness_fluid=3.0,
    )
    assert theory_curve(0.25).robustness_general == 10.0


def test_theory_curve_validation():
    with pytest.raises(ValueError):
        theory_curve(0.0)
    with pytest.raises(ValueError):
        theory_curve(1.0)


def test_curves_csv_format():
    text = cli._table(CurveRow, [theory_curve(0.5)])
    lines = text.strip().split("\n")
    assert lines[0] == "alpha,consistency,robustness_general,robustness_equal_jobs,robustness_fluid"
    assert lines[1] == "0.5,1.5,6.0,4.0,3.0"


# ---------------------------------------------------------------------------
# Property verification
# ---------------------------------------------------------------------------


def test_property_check_ok():
    assert PropertyCheck("x", passed=5, trials=5).ok
    assert not PropertyCheck("x", passed=4, trials=5, counterexample="boom").ok


def test_verify_report_aggregation(monkeypatch, capsys, tmp_path):
    good = PropertyCheck("a", 2, 2)
    bad = PropertyCheck("b", 1, 2, counterexample="c\n  d")
    out = tmp_path / "report.json"
    for checks, code in (((good,), 0), ((good, bad), 1)):
        monkeypatch.setattr(cli, "verify_properties", lambda **kwargs: checks)
        assert cli.main(["verify", "--out", str(out)]) == code
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is (code == 0)
        assert doc["properties"] == list(map(dataclasses.asdict, checks))
    assert capsys.readouterr().out.endswith(
        "PASS a (2/2)\nFAIL b (1/2)\n  counterexample: c d\n1/2 properties passed\n"
    )


def test_random_small_instance_ranges():
    rng = SplitMix64(603)
    for _ in range(100):
        inst = random_small_instance(rng)
        assert 2 <= inst.n <= 12
        assert 2 <= inst.m <= 4
        assert all(p > 0 for p in inst.jobs)
        assert all(s > 0 for s in inst.true_speeds)


def test_random_small_instance_unit_jobs():
    rng = SplitMix64(604)
    inst = random_small_instance(rng, unit_jobs=True)
    assert inst.jobs == (1.0,) * inst.n
    assert inst.name.startswith("unit-")


def test_verify_properties_covers_every_check():
    report = verify_properties(seed=0, trials=10)
    names = [p.name for p in report]
    assert names == EXPECTED_PROPERTY_NAMES
    failing = [p.name for p in report if not p.ok]
    assert failing == []


def test_verify_properties_rejects_bad_trials():
    with pytest.raises(ValueError):
        verify_properties(trials=0)
    for budget in (0, -5):
        with pytest.raises(ValueError, match="node_budget must be at least 1"):
            verify_properties(trials=1, node_budget=budget)


VERIFY_RUNS = [(0, 3), (4, 7), (11, 12)]


def verify_cli(capsys, tmp_path, seed, trials, *extra):
    """The exit code, stdout, stderr and ``--out`` bytes of ``speedsched verify``."""
    out = tmp_path / f"verify-{seed}-{trials}.json"
    out.unlink(missing_ok=True)
    code = cli.main(["verify", "--seed", str(seed), "--trials", str(trials), "--out", str(out),
                     *extra])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("seed, trials", VERIFY_RUNS)
def test_verify_pool_gives_the_in_process_report(monkeypatch, capsys, tmp_path, seed, trials):
    pids = record_pids(monkeypatch, tmp_path / "in-process")
    use_cpus(monkeypatch, 1)
    in_process = verify_properties(seed=seed, trials=trials)
    in_process_cli = verify_cli(capsys, tmp_path, seed, trials)
    assert pids() == {str(os.getpid())}
    pids = record_pids(monkeypatch, tmp_path / "pooled")
    use_cpus(monkeypatch, 3)
    assert verify_properties(seed=seed, trials=trials) == in_process
    assert verify_cli(capsys, tmp_path, seed, trials) == in_process_cli
    assert_no_child_processes()
    assert [p.name for p in in_process] == EXPECTED_PROPERTY_NAMES
    assert in_process_cli[0] == 0
    if "fork" in multiprocessing.get_all_start_methods():
        assert pids() and str(os.getpid()) not in pids()


def test_verify_forks_no_worker_from_a_threaded_process(monkeypatch, tmp_path):
    pids = record_pids(monkeypatch, tmp_path / "pids")
    use_cpus(monkeypatch, 3)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        report = verify_properties(seed=2, trials=3)
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert all(p.ok for p in report)
    assert pids() == {str(os.getpid())}


def test_verify_budget_failure_is_the_serial_one(monkeypatch, capsys, tmp_path):
    # The ipr-trace section comes before perfect predictions in the report,
    # but a pool starts the latter first; both run out of nodes, and the
    # ipr-trace error is the one raised either way.
    outcomes = []
    for cpus in (1, 3):
        use_cpus(monkeypatch, cpus)
        with pytest.raises(BudgetExceededError) as excinfo:
            verify_properties(seed=1, trials=5, node_budget=3)
        outcomes.append((str(excinfo.value), excinfo.value.nodes_explored,
                         verify_cli(capsys, tmp_path, 1, 5, "--node-budget", "3")))
    assert outcomes[0] == outcomes[1]
    message, nodes, (code, out, err, report) = outcomes[0]
    assert message.startswith("exact solver exceeded node budget 3") and nodes > 3
    assert message.endswith(" [verify section ipr_trace seed=1]")
    assert (code, out, err, report) == (3, "", f"error: {message}\n", None)


def test_verify_raises_the_first_failing_section_in_report_order(monkeypatch, capsys, tmp_path):
    # The fluid section is handed to the workers last, the oracle-agreement
    # section sixth; a serial run meets the fluid error first.
    def failing(what):
        def fail(*args, **kwargs):
            raise ValueError(f"{what} failed")

        return fail

    monkeypatch.setattr(harness, "fluid_ipr", failing("fluid"))
    monkeypatch.setattr(harness, "brute_force_makespan", failing("enumeration"))
    outcomes = []
    for cpus in (1, 3):
        use_cpus(monkeypatch, cpus)
        with pytest.raises(ValueError, match="^fluid failed$"):
            verify_properties(seed=0, trials=2)
        outcomes.append(verify_cli(capsys, tmp_path, 0, 2))
    assert outcomes[0] == outcomes[1] == (2, "", "error: fluid failed\n", None)


def test_pooled_verify_runs_its_failing_section_once(monkeypatch, tmp_path):
    calls = tmp_path / "calls"

    def failing(*args, **kwargs):
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        raise ValueError("fluid failed")

    monkeypatch.setattr(harness, "fluid_ipr", failing)
    use_cpus(monkeypatch, 3)
    with pytest.raises(ValueError, match="^fluid failed$"):
        verify_properties(seed=0, trials=2)
    assert len(calls.read_text(encoding="utf-8").split()) == 1
    assert_no_child_processes()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_a_dying_worker_ends_the_run_and_leaves_no_process(monkeypatch):
    parent = os.getpid()

    def dying(config):
        if os.getpid() != parent and config.seed == POOL_CONFIGS[0].seed + 1:
            os._exit(9)
        return gen_synthetic(config)

    monkeypatch.setattr(harness, "gen_synthetic", dying)
    use_cpus(monkeypatch, 2)
    with pytest.raises(WorkerDiedError, match="terminated abruptly"):
        run_experiment(POOL_CONFIGS[0])
    assert_no_child_processes()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_a_worker_that_exits_0_mid_step_died(monkeypatch):
    # A worker's exit status 0 does not mean it finished: one that leaves in
    # the middle of a step, before it was sent None, died.
    parent = os.getpid()

    def task(item):
        def step():
            if os.getpid() != parent and item == 1:
                os._exit(0)
            return item

        return [(item, step)]

    use_cpus(monkeypatch, 2)
    with pytest.raises(WorkerDiedError, match=r"terminated abruptly \(exit status 0\)"):
        harness._map_tasks(task, range(3))
    assert_no_child_processes()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_a_claim_sent_to_a_dead_worker_reports_its_death(monkeypatch):
    # Both workers are killed after the first result is read and before the
    # claim that answers it is written.  That write, and any that answers a
    # result already in a pipe, meets a broken pipe, which must not escape as
    # an OSError (a usage error at the command line); the death is reported
    # instead.
    parent, forked, writes = os.getpid(), [], []
    fork, write = os.fork, os.write

    def forking():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def writing(fd, data):
        if os.getpid() == parent:
            writes.append(fd)
            if len(writes) == 3:  # after one claim to each worker
                for pid in forked:
                    os.kill(pid, signal.SIGKILL)
                    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        return write(fd, data)

    def task(item):
        return [(3 * item + step, functools.partial(int, step)) for step in range(3)]

    monkeypatch.setattr(os, "fork", forking)
    monkeypatch.setattr(os, "write", writing)
    use_cpus(monkeypatch, 2)
    with pytest.raises(WorkerDiedError, match=r"terminated abruptly \(exit status -9\)"):
        harness._map_tasks(task, range(3))
    assert_no_child_processes()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_an_interrupted_pool_leaves_no_process(monkeypatch):
    # The workers hang; an interrupt arrives while this process waits for
    # them, and every worker is killed and reaped before it propagates.  The
    # interrupt repeats every 5 s, so that a run left waiting ends too.
    parent = os.getpid()

    def hanging(config):
        if os.getpid() != parent:
            time.sleep(60)
        return gen_synthetic(config)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "gen_synthetic", hanging)
    use_cpus(monkeypatch, 2)
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5, 5.0)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(POOL_CONFIGS[0])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    assert_no_child_processes()
