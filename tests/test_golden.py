"""Golden bytes: the exact text each CLI writer prints or writes, on fixed inputs.

Every subcommand's output format is pinned here, through ``cli.main`` alone,
so that moving or rewriting a writer cannot change a byte unnoticed.  A JSON
document is pinned as ``json.dumps(doc, indent=2)`` plus a newline of the
literal ``doc`` below (keys in the order given, floats as their ``repr``).
"""

import json

import pytest

from speedsched.cli import main

INPUTS = {
    "five.json": '{"jobs": [4.0, 3.0, 2.0, 2.0, 1.5], "true_speeds": [2.0, 1.0], '
                 '"predicted_speeds": [1.5, 1.0], "name": "five", "seed": 3}\n',
    "unnamed.json": '{"jobs": [4.0, 3.0, 2.0, 2.0, 1.5], "true_speeds": [2.0, 1.0], '
                    '"predicted_speeds": [1.5, 1.0]}\n',
    "part.json": '{"bags": [[0, 4], [1, 2, 3]]}\n',
    "config.json": '{"n": 4, "m": 2, "instances_per_point": 2, "sweep_values": [0.0, 5.0]}\n',
    "empty.json": '{"sweep_values": []}\n',
}


def pretty(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def unit_instance(jobs, true_speeds, predicted_speeds, name):
    return pretty({"jobs": [1.0] * jobs, "true_speeds": true_speeds,
                   "predicted_speeds": predicted_speeds, "name": name})


EXPERIMENT_HEADER = "sweep_param,sweep_value,algorithm,mean_ratio,std_ratio,n_instances,oracle_kind\n"
EXPERIMENT_ROWS = [
    ("err_sigma", 0.0, "one-consistent", 1.0, 0.0, 2, "exact"),
    ("err_sigma", 0.0, "ipr(alpha=0.5,rho=4)", 1.0, 0.0, 2, "exact"),
    ("err_sigma", 0.0, "lpt", 1.1495929938261498, 0.16004203941572673, 2, "exact"),
    ("err_sigma", 5.0, "one-consistent", 1.0138330125118113, 0.019562833902680325, 2, "exact"),
    ("err_sigma", 5.0, "ipr(alpha=0.5,rho=4)", 1.0138330125118113, 0.019562833902680325, 2,
     "exact"),
    ("err_sigma", 5.0, "lpt", 1.1495929938261498, 0.16004203941572673, 2, "exact"),
]
EXPERIMENT_KEYS = EXPERIMENT_HEADER.strip().split(",")
CURVES_HEADER = "alpha,consistency,robustness_general,robustness_equal_jobs,robustness_fluid\n"

# (argv with {tmp} for the input directory, stdout, {written file: text})
CASES = [
    ("gen --n 3 --m 2 --seed 1", pretty({
        "jobs": [15.379589227267932, 0.2226937391440531, 93.1024769660176],
        "true_speeds": [21.23730828236087, 39.015534888321916],
        "predicted_speeds": [21.23730828236087, 39.015534888321916],
        "name": "synthetic-n3-m2-seed1",
        "seed": 1,
    }), {}),
    ("gen --n 2 --m 2 --seed 4 --count 2 --out {tmp}/inst-{seed}.json",
     "{tmp}/inst-4.json\n{tmp}/inst-5.json\n", {
        "inst-4.json": pretty({
            "jobs": [57.37550423502482, 52.04337518247561],
            "true_speeds": [39.0898054126538, 3.5591177581345335],
            "predicted_speeds": [39.0898054126538, 3.5591177581345335],
            "name": "synthetic-n2-m2-seed4",
            "seed": 4,
        }),
        "inst-5.json": pretty({
            "jobs": [74.06435215789227, 8.72854136630663],
            "true_speeds": [16.94848496710138, 38.78809828243001],
            "predicted_speeds": [16.94848496710138, 38.78809828243001],
            "name": "synthetic-n2-m2-seed5",
            "seed": 5,
        }),
    }),
    ("gen --kind prop1 --n 4 --m 2",
     unit_instance(4, [1.0, 1.0], [3.0, 1.0], "consistency-trap-n4-m2"), {}),
    ("gen --kind tradeoff --m 3",
     unit_instance(5, [1.0, 1.0, 1.0], [3.0, 1.0, 1.0], "tradeoff-m3"), {}),
    ("gen --kind binary-lb --k 1",
     unit_instance(6, [1.0, 1.0, 0.0], [1.0, 1.0, 1.0], "binary-lb-k1"), {}),
    ("partition --in {tmp}/five.json --algo ipr", pretty({"bags": [[0, 2, 4], [1, 3]]}), {}),
    ("partition --in {tmp}/five.json --algo lpt --out {tmp}/out.json", "",
     {"out.json": pretty({"bags": [[0, 3], [1, 2, 4]]})}),
    ("schedule --in {tmp}/five.json --partition {tmp}/part.json",
     pretty({"makespan": 5.5, "bag_to_machine": [1, 0], "optimal": True}), {}),
    ("schedule --in {tmp}/five.json --partition {tmp}/part.json --scheduler lpt "
     "--out {tmp}/out.json", "",
     {"out.json": pretty({"makespan": 5.5, "bag_to_machine": [1, 0], "optimal": False})}),
    ("evaluate --in {tmp}/five.json --algo ipr", "1.1764705882352942\n", {}),
    ("evaluate --in {tmp}/five.json --algo ipr --format csv",
     'instance,algorithm,scheduler,oracle_kind,ratio\n'
     'five,"ipr(alpha=0.5,rho=4)",exact,exact,1.1764705882352942\n', {}),
    ("evaluate --in {tmp}/five.json --algo ipr --format json", pretty({
        "instance": "five",
        "algorithm": "ipr(alpha=0.5,rho=4)",
        "scheduler": "exact",
        "oracle_kind": "exact",
        "ratio": 1.1764705882352942,
    }), {}),
    ("evaluate --in {tmp}/unnamed.json --algo one-consistent --oracle lower_bound --format csv",
     "instance,algorithm,scheduler,oracle_kind,ratio\n,one-consistent,exact,lower_bound,1.2\n",
     {}),
    ("evaluate --in {tmp}/unnamed.json --algo lpt --scheduler lpt --format json "
     "--out {tmp}/out.json", "", {"out.json": pretty({
        "instance": None,
        "algorithm": "lpt",
        "scheduler": "lpt",
        "oracle_kind": "exact",
        "ratio": 1.411764705882353,
    })}),
    ("experiment --config {tmp}/config.json",
     EXPERIMENT_HEADER
     + "err_sigma,0.0,one-consistent,1.0,0.0,2,exact\n"
     + 'err_sigma,0.0,"ipr(alpha=0.5,rho=4)",1.0,0.0,2,exact\n'
     + "err_sigma,0.0,lpt,1.1495929938261498,0.16004203941572673,2,exact\n"
     + "err_sigma,5.0,one-consistent,1.0138330125118113,0.019562833902680325,2,exact\n"
     + 'err_sigma,5.0,"ipr(alpha=0.5,rho=4)",1.0138330125118113,0.019562833902680325,2,exact\n'
     + "err_sigma,5.0,lpt,1.1495929938261498,0.16004203941572673,2,exact\n", {}),
    ("experiment --config {tmp}/config.json --format json",
     pretty([dict(zip(EXPERIMENT_KEYS, row)) for row in EXPERIMENT_ROWS]), {}),
    ("experiment --config {tmp}/empty.json", EXPERIMENT_HEADER, {}),
    ("experiment --config {tmp}/empty.json --format json --out {tmp}/out.json", "",
     {"out.json": "[]\n"}),
    ("curves --alphas 0.5,0.25",
     CURVES_HEADER + "0.5,1.5,6.0,4.0,3.0\n0.25,1.25,10.0,6.0,5.0\n", {}),
    ("curves --alphas 0.3 --out {tmp}/out.csv", "", {
        "out.csv": CURVES_HEADER
        + "0.3,1.3,8.666666666666668,5.333333333333334,4.333333333333334\n",
    }),
]

# The properties of `verify --trials 1`, in report order, with their trial counts.
VERIFY_COUNTS = [
    ("gen-valid-instances", 1),
    ("lpt-partition-beta-le-2", 1),
    ("balanced-min-bag-load", 1),
    ("prediction-error-symmetric", 1),
    ("ipr-bmin-monotone-rho4", 1),
    ("ipr-iterations-le-m-squared", 1),
    ("ipr-beta-le-robust-bound", 1),
    ("ipr-consistency-guard", 3),
    ("ipr-robust-ratio-le-6", 1),
    ("unit-ipr-rho2-beta-bound", 1),
    ("unit-ipr-rho2-bmin-monotone", 1),
    ("fluid-rho2-balance-bound", 1),
    ("fluid-conserves-load", 1),
    ("binary-stage1-max-bag-le-2opt", 1),
    ("binary-merge-ratio-le-2", 1),
    ("merge-preserves-total", 1),
    ("capacity-certificate", 2),
    ("exact-matches-enumeration", 1),
    ("exact-le-lpt", 1),
    ("lower-bound-le-exact", 1),
    ("trap-family-exact-ratio", 19),
    ("tradeoff-family-ipr-bound", 9),
    ("binary-family-benchmark-floor", 3),
]
CASES.append((
    "verify --trials 1 --out {tmp}/report.json",
    "".join(f"PASS {name} ({k}/{k})\n" for name, k in VERIFY_COUNTS)
    + "23/23 properties passed\n",
    {"report.json": pretty({
        "all_passed": True,
        "properties": [
            {"name": name, "passed": k, "trials": k, "counterexample": None}
            for name, k in VERIFY_COUNTS
        ],
    })},
))


@pytest.mark.parametrize("command, stdout, files", CASES, ids=[c[0] for c in CASES])
def test_cli_writes_the_golden_bytes(tmp_path, capsys, command, stdout, files):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in command.split()]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.replace(str(tmp_path), "{tmp}") == stdout
    assert captured.err == ""
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name not in INPUTS}
    assert written == {name: text.encode() for name, text in files.items()}
