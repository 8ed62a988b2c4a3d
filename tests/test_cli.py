"""End-to-end tests for the command-line interface (in-process main)."""

import dataclasses
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from speedsched import cli, harness
from speedsched.cli import main
from speedsched.gen import MAX_SHAPE, Dist, SyntheticConfig, gen_prop1_instance, gen_synthetic
from speedsched.harness import ExperimentConfig, ExperimentRow, run_experiment
from speedsched.model import Instance, Partition


def write_json(path, value):
    """Write ``value`` (an instance or partition) as the JSON file the CLI reads."""
    path.write_text(json.dumps(value.to_json_dict()), encoding="utf-8")


def read_instance(text):
    return Instance.from_json_dict(json.loads(text))


def write_instance(tmp_path, name, jobs, true_speeds, predicted_speeds):
    inst = Instance(
        jobs=tuple(jobs),
        true_speeds=tuple(true_speeds),
        predicted_speeds=tuple(predicted_speeds),
        name=name,
    )
    path = tmp_path / f"{name}.json"
    write_json(path, inst)
    return path


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_synthetic_to_file(tmp_path):
    out = tmp_path / "inst.json"
    assert main(["gen", "--kind", "synthetic", "--n", "4", "--m", "2", "--seed", "5",
                 "--out", str(out)]) == 0
    assert read_instance(out.read_text()) == gen_synthetic(SyntheticConfig(n=4, m=2, seed=5))


def test_gen_synthetic_to_stdout(capsys):
    assert main(["gen", "--n", "3", "--m", "2", "--seed", "1"]) == 0
    inst = read_instance(capsys.readouterr().out)
    assert inst == gen_synthetic(SyntheticConfig(n=3, m=2, seed=1))


def test_a_seed_that_draws_the_top_open_float_runs(tmp_path, capsys):
    # This seed's first error draw is the top 53-bit integer, which once gave
    # the inverse normal CDF exactly 1.0.
    assert main(["gen", "--seed", "12926587775233257026"]) == 0
    assert read_instance(capsys.readouterr().out).seed == 12926587775233257026
    config = experiment_config_file(tmp_path, instances_per_point=1, sweep_values=[1.0])
    assert main(["experiment", "--config", str(config), "--seed", "12926587775233257026"]) == 0


def test_gen_respects_distribution_flags(tmp_path):
    out = tmp_path / "inst.json"
    assert main(["gen", "--n", "5", "--m", "2", "--job-dist", "normal(50,5)",
                 "--speed-dist", "normal(20,4)", "--err-sigma", "3.5",
                 "--seed", "2", "--out", str(out)]) == 0
    expected = gen_synthetic(
        SyntheticConfig(
            n=5, m=2,
            job_dist=Dist.normal(50.0, 5.0),
            speed_dist=Dist.normal(20.0, 4.0),
            err_sigma=3.5,
            seed=2,
        )
    )
    assert read_instance(out.read_text()) == expected


def test_gen_adversarial_kinds(tmp_path, capsys):
    assert main(["gen", "--kind", "prop1", "--n", "10", "--m", "2"]) == 0
    assert read_instance(capsys.readouterr().out) == gen_prop1_instance(10, 2)

    assert main(["gen", "--kind", "tradeoff", "--m", "3"]) == 0
    inst = read_instance(capsys.readouterr().out)
    assert inst.name == "tradeoff-m3"

    assert main(["gen", "--kind", "binary-lb", "--k", "1"]) == 0
    inst = read_instance(capsys.readouterr().out)
    assert inst.name == "binary-lb-k1"


def test_gen_count_writes_seed_template(tmp_path, capsys):
    template = str(tmp_path / "inst-{seed}.json")
    assert main(["gen", "--n", "4", "--m", "2", "--seed", "10", "--count", "3",
                 "--out", template]) == 0
    paths = capsys.readouterr().out.strip().split("\n")
    assert len(paths) == 3
    for seed in (10, 11, 12):
        inst = read_instance((tmp_path / f"inst-{seed}.json").read_text())
        assert inst.seed == seed


def test_gen_count_requires_template(tmp_path, capsys):
    assert main(["gen", "--count", "2", "--out", str(tmp_path / "x.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_count_only_for_synthetic(capsys):
    assert main(["gen", "--kind", "prop1", "--count", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_rejects_bad_distribution(capsys):
    assert main(["gen", "--job-dist", "poisson(3)"]) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_rejects_bad_family_shape(capsys):
    assert main(["gen", "--kind", "prop1", "--n", "2", "--m", "2"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags, error", [
    (["--kind", "prop1", "--n", str(MAX_SHAPE + 1)], f"need n <= {MAX_SHAPE}"),
    (["--kind", "prop1", "--n", str(10**20)], f"need n <= {MAX_SHAPE}"),
    (["--kind", "tradeoff", "--m", str((MAX_SHAPE + 1) // 2 + 1)],
     f"need m <= {(MAX_SHAPE + 1) // 2} (2m - 1 jobs)"),
    (["--kind", "tradeoff", "--m", str(10**20)], f"need m <= {(MAX_SHAPE + 1) // 2} (2m - 1 jobs)"),
    (["--kind", "binary-lb", "--k", str(MAX_SHAPE // 6 + 1)],
     f"need k <= {MAX_SHAPE // 6} (6k jobs)"),
    (["--kind", "binary-lb", "--k", str(10**20)], f"need k <= {MAX_SHAPE // 6} (6k jobs)"),
], ids=["prop1-past", "prop1-huge", "tradeoff-past", "tradeoff-huge", "binary-lb-past",
        "binary-lb-huge"])
def test_gen_rejects_a_family_over_max_shape(capsys, flags, error):
    # Rejected before any tuple is built: no OverflowError, no MemoryError.
    assert main(["gen", *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------


def test_seed_defaults_to_zero(tmp_path):
    out = tmp_path / "zero.json"
    assert main(["gen", "--n", "3", "--m", "2", "--out", str(out)]) == 0
    assert read_instance(out.read_text()).seed == 0


def test_environment_does_not_choose_the_seed(tmp_path, monkeypatch, capsys):
    # Only --seed and a config's seed choose the draws: the same command line
    # prints the same bytes with or without an environment variable that an
    # older release read as the default seed.
    cfg_path = experiment_config_file(tmp_path, instances_per_point=2, sweep_values=[0.0])
    commands = (["gen", "--n", "3", "--m", "2"], ["experiment", "--config", str(cfg_path)])
    printed = []
    for _ in range(2):
        for argv in commands:
            assert main(argv) == 0
            printed.append(capsys.readouterr().out)
        monkeypatch.setenv("SPEEDSCHED_SEED", "9")
    assert printed[2:] == printed[:2]


# ---------------------------------------------------------------------------
# partition / schedule
# ---------------------------------------------------------------------------


def test_partition_ipr_on_skewed_prediction(tmp_path):
    inst = write_instance(tmp_path, "nine", [1.0] * 9, [1.0, 1.0], [8.0, 1.0])
    out = tmp_path / "part.json"
    assert main(["partition", "--in", str(inst), "--algo", "ipr", "--alpha", "0.5",
                 "--out", str(out)]) == 0
    part = Partition.from_json_dict(json.loads(out.read_text()))
    assert part.bags == ((0, 2, 4, 6, 8), (1, 3, 5, 7))


def test_partition_one_consistent_trusts_prediction(tmp_path, capsys):
    inst = write_instance(tmp_path, "nine", [1.0] * 9, [1.0, 1.0], [8.0, 1.0])
    assert main(["partition", "--in", str(inst), "--algo", "one-consistent"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(len(b) for b in doc["bags"]) == [1, 8]


@pytest.mark.parametrize("command, algo, flags, named", [
    ("evaluate", "lpt", ["--alpha", "0.99", "--rho", "1000"], "--alpha"),
    ("evaluate", "binary", ["--rho", "4"], "--rho"),  # even its default value
    ("partition", "one-consistent", ["--alpha", "0.5"], "--alpha"),
    ("partition", "lpt", ["--rho", "2"], "--rho"),
])
def test_ipr_flags_for_another_algorithm_are_a_usage_error(
    tmp_path, capsys, monkeypatch, command, algo, flags, named
):
    # Rejected before the instance is read, not accepted and ignored.
    inst = write_instance(tmp_path, "nine", [1.0] * 9, [1.0, 1.0], [8.0, 1.0])
    monkeypatch.setattr(cli, "_read", lambda *args: pytest.fail("read the instance"))
    assert main([command, "--in", str(inst), "--algo", algo, *flags]) == 2
    assert capsys.readouterr().err == f"error: {named} applies only to --algo ipr\n"


def test_ipr_flags_reach_ipr(tmp_path, capsys):
    inst = write_instance(tmp_path, "nine", [1.0] * 9, [1.0, 1.0], [8.0, 1.0])
    assert main(["evaluate", "--in", str(inst), "--algo", "ipr", "--alpha", "0.25",
                 "--rho", "2", "--format", "csv"]) == 0
    assert '"ipr(alpha=0.25,rho=2)"' in capsys.readouterr().out


def test_schedule_round_trip(tmp_path, capsys):
    inst = write_instance(tmp_path, "abc", [4.0, 3.0, 2.0], [2.0, 1.0], [2.0, 1.0])
    part_path = tmp_path / "part.json"
    write_json(part_path, Partition(bags=((0,), (1, 2))))
    assert main(["schedule", "--in", str(inst), "--partition", str(part_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["makespan"] == 4.0
    assert doc["bag_to_machine"] == [1, 0]
    assert doc["optimal"] is True


def test_schedule_lpt_variant(tmp_path, capsys):
    inst = write_instance(tmp_path, "abc", [4.0, 3.0, 2.0], [2.0, 1.0], [2.0, 1.0])
    part_path = tmp_path / "part.json"
    write_json(part_path, Partition(bags=((0,), (1, 2))))
    assert main(["schedule", "--in", str(inst), "--partition", str(part_path),
                 "--scheduler", "lpt"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["optimal"] is False
    assert doc["makespan"] >= 4.0


def test_schedule_rejects_mismatched_partition(tmp_path, capsys):
    inst = write_instance(tmp_path, "abc", [4.0, 3.0, 2.0], [2.0, 1.0], [2.0, 1.0])
    part_path = tmp_path / "part.json"
    write_json(part_path, Partition(bags=((0, 1, 2),)))
    assert main(["schedule", "--in", str(inst), "--partition", str(part_path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, error",
    [
        ({"bags": [[0], [1, 2]], "bag": 3}, "unknown partition keys: ['bag']"),
        ({"bags": [[0], [1, 10**400]]}, "partition 'bags' job index must be an integer, got 1000"),
        ({"bags": [[0], [1, 2.0]]}, "partition 'bags' job index must be an integer, got 2.0"),
        ({"bag": [[0], [1, 2]]}, "partition missing keys: ['bags']"),
    ],
    ids=["stray-key", "huge-index", "float-index", "missing-key"],
)
def test_schedule_rejects_partition_with_stray_key_or_bad_index(tmp_path, capsys, doc, error):
    # A usage error naming the key, not a misspelt key ignored or an index
    # that no float holds accepted.
    inst = write_instance(tmp_path, "abc", [4.0, 3.0, 2.0], [2.0, 1.0], [2.0, 1.0])
    part_path = tmp_path / "part.json"
    part_path.write_text(json.dumps(doc))
    assert main(["schedule", "--in", str(inst), "--partition", str(part_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {error}")


@pytest.mark.parametrize("reader", [
    ["experiment", "--config", "{deep}"],
    ["evaluate", "--in", "{deep}", "--algo", "lpt"],
    ["partition", "--in", "{deep}"],
    ["schedule", "--in", "{instance}", "--partition", "{deep}"],
], ids=["experiment-config", "evaluate-in", "partition-in", "schedule-partition"])
def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys, reader):
    # The decoder's RecursionError is a RuntimeError, which would exit 4.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    instance = write_instance(tmp_path, "abc", [4.0, 3.0, 2.0], [2.0, 1.0], [2.0, 1.0])
    argv = [arg.format(deep=deep, instance=instance) for arg in reader]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {deep}: JSON nested too deeply to read\n")


@pytest.mark.parametrize("reader, text, key", [
    (["evaluate", "--in", "{doc}", "--algo", "lpt"],
     '{"jobs": [4.0, 3.0], "true_speeds": [1.0], "predicted_speeds": [1.0], "jobs": [1.0]}',
     "jobs"),
    (["schedule", "--in", "{instance}", "--partition", "{doc}"],
     '{"bags": [[0, 1], [2]], "bags": [[0], [1], [2]]}', "bags"),
    (["experiment", "--config", "{doc}"], '{"n": 4, "m": 2, "n": 5}', "n"),
    (["experiment", "--config", "{doc}"],
     '{"n": 4, "m": 2, "speed_dist": {"kind": "uniform", "lo": 1, "hi": 2, "lo": 0}}', "lo"),
    (["experiment", "--config", "{doc}"],
     '{"algorithms": ["lpt", {"name": "ipr", "alpha": 0.5, "name": "lpt"}]}', "name"),
], ids=["instance", "partition", "config", "config-distribution", "config-algorithm"])
def test_a_repeated_json_key_is_a_usage_error(tmp_path, capsys, monkeypatch, reader, text, key):
    # json keeps a repeated key's last value; every reader rejects it, at any depth.
    def never(*args, **kwargs):
        raise AssertionError("a document with a repeated key was read")

    for name in ("evaluate", "schedule", "run_experiment"):
        monkeypatch.setattr(cli, name, never)
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    instance = write_instance(tmp_path, "abc", [4.0, 3.0, 2.0], [2.0, 1.0], [2.0, 1.0])
    argv = [arg.format(doc=doc, instance=instance) for arg in reader]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {doc}: JSON object repeats key {key!r}\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--trials", "30", "--out", "{missing}/r.json"],
    ["experiment", "--out", "{missing}/r.csv"],
    ["curves", "--out", "{missing}/c.csv"],
    ["gen", "--out", "{missing}/i.json"],
    ["gen", "--count", "2", "--seed", "5", "--out", "{missing}/i-{{seed}}.json"],
], ids=["verify", "experiment", "curves", "gen", "gen-count"])
def test_out_into_a_missing_directory_fails_before_any_work(tmp_path, capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(cli, "verify_properties", never)
    monkeypatch.setattr(cli, "run_experiment", never)
    monkeypatch.setattr(cli, "theory_curve", never)
    monkeypatch.setattr(cli, "gen_synthetic", never)
    missing = tmp_path / "missing"
    argv = [arg.format(missing=missing) for arg in argv]
    path = argv[-1].replace("{seed}", "5")
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: --out {path}: no such directory {missing}\n")
    assert not missing.exists()


def write_all_or_nothing_instance(tmp_path, true_speeds):
    # Written by hand, as a user would: 0.0 marks an unusable machine.
    doc = {"jobs": [4.0, 3.0, 2.0, 1.0], "true_speeds": list(true_speeds),
           "predicted_speeds": [1.0, 1.0, 1.0, 1.0]}
    path = tmp_path / "dead.json"
    path.write_text(json.dumps(doc))
    return path


def test_schedule_skips_unusable_machines(tmp_path, capsys):
    part_path = tmp_path / "part.json"
    part = Partition(bags=((0,), (1,), (2,), (3,)))
    write_json(part_path, part)
    for true_speeds, usable in (((1.0, 1.0, 0.0, 0.0), {0, 1}),
                                ((0.0, 1.0, 0.0, 1.0), {1, 3})):
        inst = write_all_or_nothing_instance(tmp_path, true_speeds)
        assert main(["schedule", "--in", str(inst), "--partition", str(part_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["makespan"] == 5.0
        assert set(doc["bag_to_machine"]) == usable


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_all_or_nothing_instance(tmp_path, capsys):
    inst = write_all_or_nothing_instance(tmp_path, (1.0, 1.0, 0.0, 0.0))
    assert main(["evaluate", "--in", str(inst), "--algo", "binary"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0)


@pytest.mark.parametrize("command", ["evaluate", "partition"])
def test_binary_rejects_related_instance(tmp_path, capsys, command):
    inst = write_instance(tmp_path, "related", [3.0, 2.0, 2.0], [2.0, 1.0], [1.0, 1.0])
    assert main([command, "--in", str(inst), "--algo", "binary"]) == 2
    assert capsys.readouterr().err == (
        "error: binary partitions all-or-nothing instances (every speed 0.0 or 1.0, some 1.0 "
        "in each vector), but instance name='related' seed=None is not\n"
    )


def test_evaluate_ipr_rejects_predicted_unusable_machines(tmp_path, capsys):
    inst = write_instance(tmp_path, "dead", [3.0, 3.0, 2.0, 2.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0])
    assert main(["evaluate", "--in", str(inst), "--algo", "ipr"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ipr ") and "machines [1] unusable" in err


def test_exact_oracle_on_a_thousand_items_exits_2_naming_the_item_limit(tmp_path, capsys):
    # Both once ran the exact solver's recursion past Python's limit and
    # exited 4; the solver now rejects the input, an instance it does not
    # take, before any search, and the message names the instance.
    inst = write_instance(tmp_path, "big", [50.0] * 1000, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert main(["evaluate", "--in", str(inst), "--algo", "lpt"]) == 2
    assert capsys.readouterr().err == ("error: exact solver takes at most 500 items of positive "
                                       "load, got 1000 (1000 items, 3 machines) "
                                       "[instance name='big' seed=None]\n")
    config = tmp_path / "big-config.json"
    config.write_text(json.dumps({"n": 1000, "m": 50, "scheduler": "lpt", "oracle": "exact",
                                  "instances_per_point": 1, "sweep_values": [0.0]}))
    assert main(["experiment", "--config", str(config)]) == 2
    assert capsys.readouterr() == ("", "error: exact solver takes at most 500 items of positive "
                                       "load, got 1000 (1000 items, 50 machines) "
                                       "[err_sigma=0.0 seed=0]\n")


def test_evaluate_one_consistent_rejects_predicted_unusable_machines(tmp_path, capsys):
    # one-consistent partitions on positive predicted speeds whatever the
    # true speeds are, related (2.0) or all-or-nothing, which is binary's
    # input; the error names the algorithm and machine.
    for true_speeds, predicted in (([1.0, 1.0, 2.0], [1.0, 0.0, 2.0]),
                                   ([1.0, 1.0, 0.0], [1.0, 0.0, 1.0])):
        inst = write_instance(tmp_path, "dead", [3.0, 3.0, 2.0, 2.0], true_speeds, predicted)
        assert main(["evaluate", "--in", str(inst), "--algo", "one-consistent"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: one-consistent ") and "machines [1] unusable" in err
    assert main(["evaluate", "--in", str(inst), "--algo", "binary"]) == 0


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"jobs": [True, "2", 3], "true_speeds": [1, 2], "predicted_speeds": ["1", 2]}, "'jobs'"),
        ({"jobs": [1, 2, 3], "true_speeds": [1, True], "predicted_speeds": [1, 2]},
         "'true_speeds'"),
        ({"jobs": [1, 2, 3], "true_speeds": [1, 2], "predicted_speeds": ["1", 2]},
         "'predicted_speeds'"),
        ({"jobs": [1, math.nan], "true_speeds": [1, 2], "predicted_speeds": [1, 2]}, "'jobs'"),
        ({"jobs": [1, 2], "true_speeds": [1, 10**400], "predicted_speeds": [1, 2]},
         "'true_speeds'"),
        ({"jobs": [1, 2, 3], "true_speeds": [1, 2], "predicted_speeds": [1, 2], "seed": True},
         "seed"),
    ],
)
def test_evaluate_rejects_instance_value_that_is_not_a_json_number(tmp_path, capsys, doc, key):
    # A usage error naming the key, not "2" read as 2.0, true read as 1, or
    # an OverflowError traceback (exit 1) for an integer too large for a float.
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert main(["evaluate", "--in", str(path), "--algo", "ipr"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: instance {key} must be")


def test_evaluate_rejects_instance_with_a_stray_key(tmp_path, capsys):
    # A misspelt key is a usage error naming it, not a key silently dropped.
    doc = {"jobs": [1.0], "true_speeds": [1.0], "predicted_speeds": [1.0], "true_speed": [5.0]}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert main(["evaluate", "--in", str(path), "--algo", "ipr"]) == 2
    assert capsys.readouterr().err == "error: unknown instance keys: ['true_speed']\n"


def test_evaluate_bare_ratio(tmp_path, capsys):
    inst = write_instance(tmp_path, "trap", [1.0] * 10, [1.0, 1.0], [9.0, 1.0])
    assert main(["evaluate", "--in", str(inst), "--algo", "one-consistent"]) == 0
    assert capsys.readouterr().out == "1.8\n"


def test_evaluate_json_format(tmp_path, capsys):
    inst = write_instance(tmp_path, "trap", [1.0] * 10, [1.0, 1.0], [9.0, 1.0])
    assert main(["evaluate", "--in", str(inst), "--algo", "ipr", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["instance"] == "trap"
    assert doc["algorithm"] == "ipr(alpha=0.5,rho=4)"
    assert doc["oracle_kind"] == "exact"
    assert doc["ratio"] == pytest.approx(1.0)


def test_evaluate_csv_format(tmp_path, capsys):
    inst = write_instance(tmp_path, "trap", [1.0] * 10, [1.0, 1.0], [9.0, 1.0])
    assert main(["evaluate", "--in", str(inst), "--algo", "lpt", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "instance,algorithm,scheduler,oracle_kind,ratio"
    assert lines[1] == "trap,lpt,exact,exact,1.0"


def test_evaluate_lower_bound_oracle(tmp_path, capsys):
    inst = write_instance(tmp_path, "lb", [3.0, 2.0, 2.0], [2.0, 1.0], [2.0, 1.0])
    assert main(["evaluate", "--in", str(inst), "--algo", "one-consistent",
                 "--oracle", "lower_bound"]) == 0
    ratio = float(capsys.readouterr().out)
    assert ratio == pytest.approx(2.5 / (7.0 / 3.0))


def test_evaluate_writes_file(tmp_path):
    inst = write_instance(tmp_path, "trap", [1.0] * 10, [1.0, 1.0], [9.0, 1.0])
    out = tmp_path / "ratio.txt"
    assert main(["evaluate", "--in", str(inst), "--algo", "one-consistent",
                 "--out", str(out)]) == 0
    assert out.read_text() == "1.8\n"


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def experiment_config_file(tmp_path, **overrides):
    doc = {"n": 6, "m": 2, "instances_per_point": 5, "sweep_values": [0.0, 10.0]}
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def rows_csv(rows):
    """The CSV of experiment ``rows``, spelled out: the row fields' names, then
    one line per row, a float as its ``repr`` and a label with a comma quoted."""
    lines = [",".join(f.name for f in dataclasses.fields(ExperimentRow))]
    for row in rows:
        lines.append(",".join(f'"{v}"' if "," in str(v) else str(v)
                              for v in dataclasses.astuple(row)))
    return "".join(line + "\n" for line in lines)


def test_experiment_csv_matches_library(tmp_path):
    cfg_path = experiment_config_file(tmp_path)
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    expected = rows_csv(
        run_experiment(
            ExperimentConfig(n=6, m=2, instances_per_point=5, sweep_values=(0.0, 10.0))
        )
    )
    assert out.read_text() == expected


def test_experiment_seed_override(tmp_path):
    cfg_path = experiment_config_file(tmp_path)
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--config", str(cfg_path), "--seed", "7",
                 "--out", str(out)]) == 0
    expected = rows_csv(
        run_experiment(
            ExperimentConfig(n=6, m=2, instances_per_point=5, sweep_values=(0.0, 10.0), seed=7)
        )
    )
    assert out.read_text() == expected


def test_experiment_json_format(tmp_path, capsys):
    cfg_path = experiment_config_file(tmp_path, instances_per_point=2, sweep_values=[0.0])
    assert main(["experiment", "--config", str(cfg_path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 3
    assert doc[0]["sweep_param"] == "err_sigma"
    assert doc[0]["n_instances"] == 2


def test_experiment_runs_are_reproducible(tmp_path):
    cfg_path = experiment_config_file(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_experiment_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"bogus": 1}))
    assert main(["experiment", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"n": "5"},
        {"n": True},
        {"sweep_values": 3},
        {"algorithms": 5},
        {"seed": "x"},
        {"instances_per_point": 2.5},
        {"err_sigma": "1"},
        {"node_budget": "9"},
        {"sweep_values": [{}]},
        {"sweep_values": [0, "1"]},
        {"sweep_values": [True]},
        {"sweep_values": [math.nan]},
        {"err_sigma": math.inf},
    ],
)
def test_experiment_rejects_config_value_of_wrong_type(tmp_path, capsys, doc):
    # A usage error naming the key: not a TypeError traceback, a failed
    # evaluation (exit 4), or true read as n = 1.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(path)]) == 2
    (key,) = doc
    assert f"error: experiment config {key!r} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "dist, error",
    [
        ({"kind": "normal", "mu": 20, "sigma": [1]}, "distribution 'sigma' must be a number"),
        ({"kind": "normal", "mu": "50", "sigma": 1}, "distribution 'mu' must be a number"),
        ({"kind": "uniform", "lo": True, "hi": 40}, "distribution 'lo' must be a number"),
        ({"kind": "uniform", "lo": 0, "hi": math.inf}, "distribution 'hi' must be a number"),
        ({"kind": "uniform", "lo": 0, "hi": 10**400}, "distribution 'hi' must be a number"),
        ({"kind": "uniform", "lo": 0, "hi": 40, "extra": 1},
         "unknown uniform distribution keys: ['extra']"),
    ],
)
def test_experiment_rejects_distribution_value_that_is_not_a_json_number(
    tmp_path, capsys, dist, error
):
    # A usage error naming the key: not a TypeError or OverflowError traceback
    # (exit 1), "50" read as 50.0, true read as 1.0, or an unknown key ignored.
    path = experiment_config_file(tmp_path, speed_dist=dist)
    assert main(["experiment", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: experiment config 'speed_dist': {error}")


def test_experiment_rejects_algorithm_parameter_of_wrong_type(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"algorithms": [{"name": "ipr", "alpha": []}]}))
    assert main(["experiment", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: experiment config 'algorithms': algorithm 'alpha' must be a number, got []\n"
    )


@pytest.mark.parametrize("algorithm, key", [
    ({"name": "lpt", "alpha": 7.0, "rho": 0.1}, "alpha"),
    ({"name": "binary", "rho": 4.0, "scheduler": "lpt"}, "rho"),
])
def test_experiment_rejects_an_ipr_parameter_for_another_algorithm(tmp_path, capsys, algorithm, key):
    path = experiment_config_file(tmp_path, algorithms=[algorithm])
    assert main(["experiment", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: experiment config 'algorithms': algorithm {algorithm['name']!r} takes no "
        f"{key!r}; only 'ipr' does\n"
    )


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["curves", "--alphas", "0.5"]) == 0
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    # Not at import either: the benchmark's setup time covers import and one build.
    code = "import speedsched.cli as cli; print(cli._parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "0\n"


def test_import_and_one_cpu_experiment_leave_multiprocessing_unloaded(tmp_path):
    # Importing multiprocessing would add about a quarter to the package's
    # import time and 1.5 MB of memory, so only a pooled experiment loads it.
    code = (
        "import os, sys\n"
        "import speedsched.cli\n"
        "print('multiprocessing' in sys.modules)\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "speedsched.cli.main(['experiment', '--config', sys.argv[1], '--out', os.devnull])\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(experiment_config_file(tmp_path))],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == ["False", "False"]


def test_one_cpu_verify_leaves_multiprocessing_unloaded():
    code = (
        "import os, sys\n"
        "import speedsched.cli\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "speedsched.cli.main(['verify', '--trials', '1'])\n"
        "print('multiprocessing' in sys.modules, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stderr.split() == ["False"]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_experiment_fails_when_a_worker_process_dies(tmp_path):
    # A worker killed from outside (say by the out-of-memory killer) must end
    # the run with an internal error, not leave it waiting forever.
    code = (
        "import os, sys\n"
        "from speedsched import cli, harness\n"
        "parent, generate = os.getpid(), harness.gen_synthetic\n"
        "def dying(config):\n"
        "    if os.getpid() != parent and config.seed == 1:\n"
        "        os._exit(9)\n"
        "    return generate(config)\n"
        "harness.gen_synthetic = dying\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "sys.exit(cli.main(['experiment', '--config', sys.argv[1]]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(experiment_config_file(tmp_path))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 4
    assert proc.stderr.startswith("error: ") and "terminated abruptly" in proc.stderr


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_verify_fails_when_a_worker_process_dies():
    code = (
        "import os, sys\n"
        "from speedsched import cli, harness\n"
        "parent, fluid = os.getpid(), harness.fluid_ipr\n"
        "def dying(*args, **kwargs):\n"
        "    if os.getpid() != parent:\n"
        "        os._exit(9)\n"
        "    return fluid(*args, **kwargs)\n"
        "harness.fluid_ipr = dying\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "sys.exit(cli.main(['verify', '--trials', '2']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 4
    assert proc.stderr.startswith("error: ") and "terminated abruptly" in proc.stderr


def running(pid):
    """Whether process ``pid`` exists and is not a zombie (an exited process
    its new parent has not reaped yet)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="no /proc")
def test_workers_leave_when_the_experiment_process_is_killed(tmp_path):
    # Each step sleeps 0.05 s, so the run would last about half a minute; a
    # SIGKILL of the parent closes its ends of the pipes, and each worker
    # leaves as its step ends, instead of waiting for a claim forever.
    code = (
        "import os, sys, time\n"
        "from speedsched import cli, harness\n"
        "parent, generate = os.getpid(), harness.gen_synthetic\n"
        "def slow(config):\n"
        "    if os.getpid() != parent:\n"
        "        with open(sys.argv[2], 'a') as fh:\n"
        "            fh.write(f'{os.getpid()}\\n')\n"
        "        time.sleep(0.05)\n"
        "    return generate(config)\n"
        "harness.gen_synthetic = slow\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "sys.exit(cli.main(['experiment', '--config', sys.argv[1]]))\n"
    )
    config = experiment_config_file(tmp_path, instances_per_point=100, sweep_values=None)
    pids_path = tmp_path / "pids"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-c", code, str(config), str(pids_path)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers = set()
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            if pids_path.exists():
                workers = set(map(int, pids_path.read_text(encoding="utf-8").split()))
        assert len(workers) == 2
        proc.kill()
        proc.wait(timeout=60)
        deadline = time.monotonic() + 5
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, workers))
    finally:
        proc.kill()
        proc.wait(timeout=60)
        for pid in filter(running, workers):
            os.kill(pid, signal.SIGKILL)


# ---------------------------------------------------------------------------
# verify / curves
# ---------------------------------------------------------------------------


def test_verify_small_run_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--trials", "3", "--seed", "0", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS gen-valid-instances (3/3)" in text
    assert "23/23 properties passed" in text
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is True
    assert len(doc["properties"]) == 23


def test_curves_default_grid(capsys):
    assert main(["curves"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("alpha,consistency")
    assert len(lines) == 10  # header + nine alphas


def test_curves_single_alpha(capsys):
    assert main(["curves", "--alphas", "0.5"]) == 0
    assert "0.5,1.5,6.0,4.0,3.0" in capsys.readouterr().out


def test_curves_rejects_bad_alphas(capsys):
    assert main(["curves", "--alphas", "abc"]) == 2
    capsys.readouterr()
    assert main(["curves", "--alphas", "1.5"]) == 2
    capsys.readouterr()
    assert main(["curves", "--alphas", ""]) == 2


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", "--algo", "lpt"])
    assert excinfo.value.code == 2


def test_missing_input_file_is_usage_error(tmp_path, capsys):
    assert main(["evaluate", "--in", str(tmp_path / "nope.json"), "--algo", "lpt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_internal_error_exit_code(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("invariant broken")

    monkeypatch.setitem(cli._HANDLERS, "curves", broken)
    assert main(["curves"]) == 4
    assert capsys.readouterr().err == "error: invariant broken\n"


@pytest.mark.parametrize("error, code", [(ValueError, 2), (RuntimeError, 4)])
def test_experiment_evaluation_failure_exit_code(tmp_path, monkeypatch, capsys, error, code):
    # An input an algorithm rejects is a usage error, as through evaluate;
    # any other error is internal.  Both name the point, algorithm and seed.
    def broken(jobs, k):
        raise error("boom")

    monkeypatch.setattr(harness, "lpt_partition", broken)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"n": 4, "m": 2, "sweep_values": [0.0], "instances_per_point": 1, "algorithms": ["lpt"]}
    ))
    assert main(["experiment", "--config", str(path)]) == code
    assert capsys.readouterr().err == (
        "error: evaluation failed at err_sigma=0.0, algorithm=lpt, seed=0: boom\n"
    )


def test_experiment_binary_on_related_sweep_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 6, "m": 2, "instances_per_point": 2, "sweep_values": [0, 5],
                                "algorithms": ["binary"]}))
    assert main(["experiment", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: evaluation failed at err_sigma=0.0, algorithm=binary, seed=0: binary partitions "
        "all-or-nothing instances (every speed 0.0 or 1.0, some 1.0 in each vector), but "
        "instance name='synthetic-n6-m2-seed0' seed=0 is not\n"
    )


def test_budget_exhaustion_exit_code(tmp_path, capsys):
    inst = write_instance(tmp_path, "budget", [3.0, 2.0, 2.0], [2.0, 1.0], [2.0, 1.0])
    assert main(["evaluate", "--in", str(inst), "--algo", "one-consistent",
                 "--node-budget", "1"]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["-5", "0"])
@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--trials", "1"],
        ["partition", "--in", "x.json"],
        ["schedule", "--in", "x.json", "--partition", "p.json"],
        ["evaluate", "--in", "x.json", "--algo", "lpt"],
    ],
    ids=lambda args: args[0],
)
def test_node_budget_flag_below_one_is_a_usage_error(capsys, args, budget):
    # Rejected as malformed (exit 2), not run until the budget is exhausted (exit 3).
    with pytest.raises(SystemExit) as excinfo:
        main([*args, "--node-budget", budget])
    assert excinfo.value.code == 2
    assert f"argument --node-budget: must be at least 1, got {budget}\n" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--seed", "--out"])
def test_flag_given_an_end_of_options_marker_is_a_usage_error(capsys, flag):
    # argparse drops "--" as the end-of-options marker; the flag must not
    # then run with an empty list in place of its value.
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", f"{flag}=--"])
    assert excinfo.value.code == 2
    assert f"argument {flag}: expected one argument\n" in capsys.readouterr().err


MALFORMED_CONFIGS = [
    ({"sweep_param": "n", "sweep_values": [12, 6.5]},
     "experiment config 'sweep_values' entry 6.5 for 'sweep_param' 'n': not a whole number"),
    ({"speed_dist": {"kind": "uniform", "lo": -5, "hi": -1}},
     "experiment config 'speed_dist' has mean -3.0, but the default 'sweep_values' grid runs "
     "err_sigma from 0 to that mean, which must be finite and non-negative"),
    ({"speed_dist": {"kind": "uniform", "lo": 1e308, "hi": 1.7e308}},
     "experiment config 'speed_dist' has mean inf, but the default 'sweep_values' grid runs "
     "err_sigma from 0 to that mean, which must be finite and non-negative"),
    ({"node_budget": -5}, "experiment config 'node_budget' must be at least 1, got -5"),
    ({"node_budget": 0}, "experiment config 'node_budget' must be at least 1, got 0"),
    ({"n": 3, "m": 3, "instances_per_point": 2, "sweep_values": [1.0, 1.7e308]},
     "experiment config 'sweep_values' entry 1.7e+308 for 'sweep_param' 'err_sigma': "
     "'err_sigma' must keep every predicted speed finite, got 1.7e+308 with true speeds up to 40.0"),
    ({"job_dist": {"kind": "uniform", "lo": -1.7e308, "hi": 1.7e308}},
     "experiment config 'job_dist': uniform needs a finite hi - lo, got (-1.7e+308, 1.7e+308)"),
    # Shapes whose draws would not fit in memory.
    ({"n": 4, "m": 2, "instances_per_point": 1, "sweep_param": "m", "sweep_values": [1e300]},
     "experiment config 'sweep_values' entry 1e+300 for 'sweep_param' 'm': "
     f"'m' must be at most {MAX_SHAPE}, got {int(1e300)}"),
    ({"n": MAX_SHAPE + 1}, f"experiment config 'n' must be at most {MAX_SHAPE}, got {MAX_SHAPE + 1}"),
    ({"instances_per_point": 10**30},
     f"experiment config 'instances_per_point' must be at most {MAX_SHAPE}, got {10**30}"),
    ({"instances_per_point": 500000, "sweep_values": [0, 5, 10]},
     "experiment config 'sweep_values' times 'instances_per_point' must be at most "
     f"{MAX_SHAPE}, got 3 * 500000"),
]


@pytest.mark.parametrize("doc, error", MALFORMED_CONFIGS)
def test_malformed_config_exits_2_before_any_instance_is_drawn(
    tmp_path, monkeypatch, capsys, doc, error
):
    # The whole config is checked when it is built: no worker starts and no
    # instance is drawn, so a bad sweep value cannot fail after earlier points ran.
    def never(*args, **kwargs):
        raise AssertionError("a malformed config reached the run")

    monkeypatch.setattr(harness, "_map_tasks", never)
    monkeypatch.setattr(harness, "gen_synthetic", never)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("oracle", ["exact", "lower_bound"])
def test_experiment_budget_exhaustion_names_the_cell(tmp_path, capsys, oracle):
    # The algorithms run before the oracle, so with either oracle their own
    # exact solve runs out first.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"node_budget": 50, "oracle": oracle, "seed": 3,
                                "sweep_values": [4.0], "instances_per_point": 2}))
    assert main(["experiment", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: exact solver exceeded node budget 50")
    assert err.endswith(" [err_sigma=4.0 seed=3]\n")
