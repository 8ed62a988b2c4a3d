"""Seeded fuzz of the JSON readers: the experiment config (with its
distributions and algorithm objects), the instance file and the partition
file; and of the CLI's integer flags.

Each case substitutes a generated JSON value for one key of a valid
document, adds a generated unknown key to one of its objects, or drops one
of its keys; then it only parses and constructs, and never runs an
experiment, so no case can draw a huge instance.  Every case must either
construct or raise ``ValueError`` (exit code 2 from the CLI); a config error
must name the top-level key it was given, and a key error the key.
"""

import copy
import json
import math
from dataclasses import fields

import pytest

from speedsched import cli
from speedsched.gen import SplitMix64
from speedsched.harness import ExperimentConfig
from speedsched.model import Instance, Partition

STRINGS = ("", "x", "1", "NaN", "uniform", "normal", "kind", "name", "exact", "lpt",
           "lower_bound", "ipr", "one-consistent", "binary", "err_sigma", "n", "m", "sigma_p",
           "sigma_s")
NUMBERS = (0, 1, -1, 2, 3, -5, 6.5, 0.0, -0.0, 0.5, 1e-300, 2**53 + 1, 2**63, 10**400,
           -(10**400), 1e300, 1.7e308, -1.7e308, math.nan, math.inf, -math.inf)


def json_value(rng: SplitMix64, depth: int = 0) -> object:
    """A JSON value drawn from ``rng``: null, a boolean, an edge-case or
    random number, a string, a list of numbers, or (above depth 2 only
    scalars) a list or object of further values."""
    kind = rng.next_u64() % (8 if depth < 2 else 5)
    if kind == 0:
        return None
    if kind == 1:
        return bool(rng.next_u64() & 1)
    if kind == 2:
        return NUMBERS[rng.next_u64() % len(NUMBERS)]
    if kind == 3:  # a random number of any sign and magnitude, integer or not
        x = (rng.next_float() - 0.25) * 10.0 ** (rng.next_u64() % 40 - 8)
        return round(x) if rng.next_u64() & 1 else x
    if kind == 4:
        return STRINGS[rng.next_u64() % len(STRINGS)]
    size = rng.next_u64() % 4
    if kind == 5:
        return [json_value(rng, 2) for _ in range(size)]
    if kind == 6:
        return [json_value(rng, depth + 1) for _ in range(size)]
    return {STRINGS[rng.next_u64() % len(STRINGS)]: json_value(rng, depth + 1) for _ in range(size)}


BASE_CONFIGS = [
    {"n": 6, "m": 2, "job_dist": {"kind": "uniform", "lo": 0, "hi": 100},
     "speed_dist": {"kind": "uniform", "lo": 0, "hi": 40}, "err_sigma": 1.0,
     "sweep_param": "err_sigma", "sweep_values": None,
     "algorithms": ["one-consistent", {"name": "ipr", "alpha": 0.5, "rho": 4.0,
                                       "scheduler": "lpt"}, "lpt"],
     "instances_per_point": 2, "scheduler": "exact", "oracle": "exact", "seed": 0,
     "node_budget": 1000},
    {"n": 6, "m": 2, "sweep_param": "n", "sweep_values": [3, 5]},
    {"sweep_param": "m", "sweep_values": [2, 4.0], "algorithms": [{"name": "lpt"}]},
    {"sweep_param": "sigma_p", "sweep_values": [0.0, 8.0],
     "job_dist": {"kind": "normal", "mu": 40, "sigma": 15}},
    {"sweep_param": "sigma_s", "sweep_values": [0.0, 5.0],
     "speed_dist": {"kind": "normal", "mu": 10, "sigma": 6}},
]


def substitutions(doc: object, rng: SplitMix64, path: tuple = ()):
    """``(path, document)`` pairs: for each key and list item inside ``doc``,
    a copy of ``doc`` with a generated value at that place."""
    places = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in list(places):
        for _ in range(6):
            changed = copy.deepcopy(doc)
            changed[key] = json_value(rng)
            yield (*path, key), changed
        if isinstance(value, (dict, list)):
            for inner_path, inner in substitutions(value, rng, (*path, key)):
                changed = copy.deepcopy(doc)
                changed[key] = inner
                yield inner_path, changed


def build(reader, doc):
    """``reader`` on ``doc`` after a JSON round trip: the object, or the
    ``ValueError`` it raised; any other exception fails the test."""
    doc = json.loads(json.dumps(doc))
    try:
        return reader(doc)
    except ValueError as exc:
        return exc


def test_config_reader_constructs_or_names_the_key():
    rng = SplitMix64(20240611)
    outcomes = []
    for _ in range(24):
        for base in BASE_CONFIGS:
            for path, doc in substitutions(base, rng):
                got = build(ExperimentConfig.from_json_dict, doc)
                outcomes.append(type(got))
                if isinstance(got, ValueError):
                    message = str(got)
                    assert message.startswith("experiment config '"), (path, doc, message)
                    assert repr(path[0]) in message, (path, doc, message)
    assert outcomes.count(ExperimentConfig) > 300 and outcomes.count(ValueError) > 3000


BASE_INSTANCE = {"jobs": [3.0, 2, 1e-3], "true_speeds": [1.0, 0.0],
                 "predicted_speeds": [1.0, 1.0], "name": "fuzz", "seed": 4}
BASE_PARTITION = {"bags": [[0, 2], [], [1]]}


def test_instance_reader_constructs_or_raises_value_error():
    rng = SplitMix64(7)
    outcomes = []
    for _ in range(80):
        for _, doc in substitutions(BASE_INSTANCE, rng):
            outcomes.append(type(build(Instance.from_json_dict, doc)))
    assert outcomes.count(Instance) > 100 and outcomes.count(ValueError) > 1000


def test_partition_reader_constructs_or_raises_value_error():
    rng = SplitMix64(11)
    outcomes = []
    for _ in range(40):
        for _, doc in substitutions(BASE_PARTITION, rng):
            outcomes.append(type(build(Partition.from_json_dict, doc)))
    assert outcomes.count(Partition) > 50 and outcomes.count(ValueError) > 500


# Every key that some reader knows.  A generated unknown key is none of them.
KNOWN_KEYS = {f.name for f in fields(ExperimentConfig) if f.init} | {
    "kind", "lo", "hi", "mu", "sigma", "name", "alpha", "rho", "scheduler", *BASE_INSTANCE,
    *BASE_PARTITION}
# The keys the readers require, wherever they appear in the base documents;
# an algorithm object requires only its "name".
REQUIRED_KEYS = {"kind", "lo", "hi", "mu", "sigma", "jobs", "true_speeds", "predicted_speeds",
                 "bags"}


def unknown_key(rng: SplitMix64) -> str:
    """A key that no reader knows: a known key or a fuzz string with one
    letter dropped, doubled or capitalised, or an underscore put in."""
    words = sorted(KNOWN_KEYS) + list(STRINGS)
    while True:
        word = words[rng.next_u64() % len(words)]
        cut = rng.next_u64() % (len(word) + 1)
        head, tail = word[:cut], word[cut:]
        edited = (tail[1:], tail[:1] * 2 + tail[1:], tail[:1].upper() + tail[1:],
                  "_" + tail)[rng.next_u64() % 4]
        if head + edited not in KNOWN_KEYS:
            return head + edited


def objects(doc: object, path: tuple = ()):
    """The path of every object inside ``doc``, ``doc`` included."""
    if isinstance(doc, dict):
        yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from objects(value, (*path, key))


def doc_at(doc: object, path: tuple) -> object:
    """The value at ``path`` inside ``doc``."""
    for step in path:
        doc = doc[step]
    return doc


def key_changes(doc: dict, rng: SplitMix64):
    """``(path, key, added, document)`` tuples: for each object inside
    ``doc``, at ``path``, a copy with a generated unknown ``key`` added, and a
    copy with each of its keys dropped."""
    for path in objects(doc):
        key = unknown_key(rng)
        added = copy.deepcopy(doc)
        doc_at(added, path)[key] = json_value(rng)
        yield path, key, True, added
        for key in doc_at(doc, path):
            dropped = copy.deepcopy(doc)
            del doc_at(dropped, path)[key]
            yield path, key, False, dropped


@pytest.mark.parametrize(
    "reader, bases",
    [(ExperimentConfig.from_json_dict, BASE_CONFIGS), (Instance.from_json_dict, [BASE_INSTANCE]),
     (Partition.from_json_dict, [BASE_PARTITION])],
    ids=["config", "instance", "partition"],
)
def test_readers_reject_an_unknown_key_and_name_a_dropped_one(reader, bases):
    # An unknown key, such as "true_speed" for "true_speeds", is an error
    # that names it, never a key silently ignored.  A dropped key is an error
    # that names it when the reader requires it; otherwise the document
    # either constructs from the default or the error names the key.
    rng = SplitMix64(20261020)
    outcomes = []
    for _ in range(10):
        for base in bases:
            for path, key, added, doc in key_changes(base, rng):
                got = build(reader, doc)
                required = key == "name" if path[:1] == ("algorithms",) else key in REQUIRED_KEYS
                if added or required or isinstance(got, ValueError):
                    assert isinstance(got, ValueError) and repr(key) in str(got), (path, doc, got)
                outcomes.append((added, type(got)))
    assert outcomes.count((True, ValueError)) >= 10 * len(bases)
    assert outcomes.count((False, ValueError)) >= 10 * len(bases)


@pytest.mark.parametrize("seed", range(3))
def test_json_values_cover_every_json_type(seed):
    rng = SplitMix64(seed)
    types = {type(json_value(rng)) for _ in range(200)}
    assert types == {type(None), bool, int, float, str, list, dict}


# The CLI's integer flags, each with the other arguments its command requires.
INT_FLAGS = [
    (["gen"], "--count"),
    (["gen"], "--seed"),
    (["experiment"], "--seed"),
    (["verify"], "--trials"),
    (["verify"], "--seed"),
    (["verify"], "--node-budget"),
    (["partition", "--in", "i.json"], "--node-budget"),
    (["schedule", "--in", "i.json", "--partition", "p.json"], "--node-budget"),
    (["evaluate", "--in", "i.json", "--algo", "lpt"], "--node-budget"),
]
FLAG_TEXTS = ("", " ", "-", "--", "+", "0", "-0", "1", "+1", " 7 ", "-1", "-5", "1.0", "1e3",
              "0x10", "1_000", "nan", "inf", "-inf", "true", "None", "٣", "½",
              str(2**63), str(2**64 + 1), str(-(2**64)), "9" * 400, "9" * 5000, "--trials")


def flag_text(rng: SplitMix64) -> str:
    """A command-line value drawn from ``rng``: an edge case, a random
    integer of any sign and length, or an integer with junk around it."""
    kind = rng.next_u64() % 3
    if kind == 0:
        return FLAG_TEXTS[rng.next_u64() % len(FLAG_TEXTS)]
    number = str((rng.next_u64() >> (rng.next_u64() % 64)) * (1 if rng.next_u64() & 1 else -1))
    if kind == 1:
        return number
    junk = STRINGS[rng.next_u64() % len(STRINGS)]
    return junk + number if rng.next_u64() & 1 else number + junk


def test_cli_int_flags_parse_in_range_or_exit_2(capsys):
    # Only the parser runs, never a command: each value either parses to an
    # int in the flag's range (seeds: any int, reduced mod 2**64 by the
    # generator; the rest: at least 1) or exits 2 with argparse's message.
    parser = cli.build_parser()
    rng = SplitMix64(20261019)
    parsed = exits = 0
    for _ in range(150):
        for command, flag in INT_FLAGS:
            text = flag_text(rng)
            # The "--flag=value" form hands a leading "-" to the type too.
            args = [f"{flag}={text}"] if rng.next_u64() & 1 else [flag, text]
            try:
                ns = parser.parse_args([*command, *args])
            except SystemExit as exc:
                err = capsys.readouterr().err
                assert exc.code == 2, (command, args, err)
                assert err.startswith("usage: ") and "error: " in err, (command, args, err)
                assert "Traceback" not in err, (command, args, err)
                exits += 1
                continue
            value = getattr(ns, flag[2:].replace("-", "_"))
            assert type(value) is int, (command, args, value)
            assert flag == "--seed" or value >= 1, (command, args, value)
            parsed += 1
    assert parsed > 300 and exits > 300
