"""Core data types and measurements for two-stage scheduling with speed predictions.

An :class:`Instance` carries job processing times together with two speed vectors
for the same machines: the speeds that were *predicted* when jobs had to be
grouped, and the *true* speeds revealed afterwards.  Jobs are first partitioned
into bags (one future machine-load unit each); bags are later placed on machines
without being split.  This module defines the containers (:class:`Partition`,
:class:`Assignment`, :class:`IprState`), the measurements on them (bag
loads, the bag-balance ratio, the prediction-error factor), and the JSON
objects of instances and partitions (``to_json_dict`` / ``from_json_dict``,
bit-exact: a float's ``repr`` parses back equal); the CLI reads and writes
the files.  A placement of bags on machines is a plain tuple, a solver's
``bag_to_machine`` (see :class:`speedsched.solvers.SolveResult`).

All validation is eager: malformed data raises ``ValueError`` (or ``IndexError``
for out-of-range job indices) before it can enter a computation.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Sequence

# A bag is a tuple of job indices, kept sorted ascending for determinism.
Bag = tuple[int, ...]


def left_sum(values: Iterable[float]) -> float:
    """Float sum added strictly left to right from 0.0.

    CPython 3.12 made ``sum()`` of floats compensated, which changes the last
    bits; this fold gives the bits of ``sum()`` on 3.10-3.11 on every version,
    so the sums behind pinned outputs use it.
    """
    return reduce(operator.add, values, 0.0)


def is_json_number(value: object) -> bool:
    """Whether a parsed JSON value is a number that a float holds: ``true``
    and ``"1"`` are not, nor the ``NaN`` and ``Infinity`` that :mod:`json`
    also parses, nor an integer too large for a float.

    Every JSON reader checks its numeric fields with this one test, so that
    no reader coerces a string or a boolean into a number.
    """
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def json_object(
    doc: object, what: str, required: Sequence[str], optional: Iterable[str] = ()
) -> dict:
    """``doc``, if it is a JSON object with every ``required`` key and no key
    outside ``required`` and ``optional``; else ``ValueError`` naming ``what``
    and the keys.  Every JSON reader checks its objects with this one test."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValueError(f"{what} missing keys: {missing}")
    extra = doc.keys() - {*required, *optional}
    if extra:
        raise ValueError(f"unknown {what} keys: {sorted(extra)}")
    return doc


def finite_floats(
    values: Sequence[float], what: str, allow_zero: bool = False, allow_empty: bool = False
) -> list[float]:
    """``values`` as a list of floats, each finite and positive (or, with
    ``allow_zero``, non-negative); at least one unless ``allow_empty``.

    Every layer validates jobs, loads and speeds through this one check.  Raises
    ``ValueError`` naming ``what`` for the first value that is not a number, is
    NaN or infinite, or is out of range.

    A list whose ``min`` is in range and whose ``sum`` is below ``inf`` is
    accepted at once, both scans in C: a NaN or an infinity makes the sum NaN
    or ``inf``, and the sum is only a test, never part of the output.  Any
    other list, one whose finite values overflow the sum included, goes
    through the per-value check, which names the first bad value.
    """
    try:
        out = list(map(float, values))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be a sequence of numbers") from exc
    if not out:
        if not allow_empty:
            raise ValueError(f"{what} must not be empty")
        return out
    low = min(out)
    if (low > 0.0 or (allow_zero and low == 0.0)) and sum(out) < math.inf:
        return out
    for v in out:
        if not 0.0 <= v < math.inf or (v == 0.0 and not allow_zero):
            sign = "non-negative" if allow_zero else "positive"
            raise ValueError(f"{what} must be {sign} finite, got {v!r}")
    return out


@dataclass(frozen=True)
class Instance:
    """A scheduling instance: jobs plus predicted and true machine speeds.

    Parameters
    ----------
    jobs:
        Processing times, one per job; all must be strictly positive.
    true_speeds:
        True machine speeds; defines the machine count ``m``.  Strictly
        positive, except that 0.0 (an unusable machine) is allowed in an
        :attr:`all_or_nothing` instance.
    predicted_speeds:
        Predicted machine speeds, non-negative (0.0 means predicted unusable),
        same length as ``true_speeds``.
    name, seed:
        Optional provenance labels carried through JSON round-trips.
    """

    jobs: tuple[float, ...]
    true_speeds: tuple[float, ...]
    predicted_speeds: tuple[float, ...]
    name: str | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        jobs = finite_floats(self.jobs, "job processing times")
        true_speeds = finite_floats(self.true_speeds, "true speeds", allow_zero=True)
        predicted_speeds = finite_floats(self.predicted_speeds, "predicted speeds", allow_zero=True)
        if len(predicted_speeds) != len(true_speeds):
            raise ValueError(
                f"predicted_speeds has {len(predicted_speeds)} entries, "
                f"true_speeds has {len(true_speeds)}"
            )
        object.__setattr__(self, "jobs", tuple(jobs))
        object.__setattr__(self, "true_speeds", tuple(true_speeds))
        object.__setattr__(self, "predicted_speeds", tuple(predicted_speeds))
        if 0.0 in self.true_speeds and not self.all_or_nothing:
            raise ValueError(
                "true speeds must be positive finite, got 0.0 "
                "(a zero true speed needs every speed to be 0.0 or 1.0)"
            )

    @property
    def all_or_nothing(self) -> bool:
        """Whether this is an all-or-nothing speed instance: every predicted
        and true speed is 0.0 (unusable machine) or 1.0 (usable machine), with
        at least one usable machine in each vector."""
        return (
            {*self.predicted_speeds, *self.true_speeds} <= {0.0, 1.0}
            and 1.0 in self.predicted_speeds
            and 1.0 in self.true_speeds
        )

    @property
    def usable_machines(self) -> tuple[int, ...]:
        """The indices of the machines with a nonzero true speed: 0.0 marks an
        unusable machine of an :attr:`all_or_nothing` instance."""
        return tuple(i for i, s in enumerate(self.true_speeds) if s != 0.0)

    @property
    def usable_speeds(self) -> tuple[float, ...]:
        """The true speeds of :attr:`usable_machines`, in the same order."""
        return tuple(self.true_speeds[i] for i in self.usable_machines)

    @property
    def n(self) -> int:
        return len(self.jobs)

    @property
    def m(self) -> int:
        return len(self.true_speeds)

    def to_json_dict(self) -> dict:
        doc: dict = {
            "jobs": list(self.jobs),
            "true_speeds": list(self.true_speeds),
            "predicted_speeds": list(self.predicted_speeds),
        }
        if self.name is not None:
            doc["name"] = self.name
        if self.seed is not None:
            doc["seed"] = self.seed
        return doc

    @classmethod
    def from_json_dict(cls, doc: object) -> "Instance":
        arrays = ("jobs", "true_speeds", "predicted_speeds")
        doc = json_object(doc, "instance", arrays, ("name", "seed"))
        for key in arrays:
            if not isinstance(doc[key], list) or not all(map(is_json_number, doc[key])):
                raise ValueError(f"instance {key!r} must be a list of numbers, got {doc[key]!r}")
        name = doc.get("name")
        if name is not None and not isinstance(name, str):
            raise ValueError("instance name must be a string")
        seed = doc.get("seed")
        if seed is not None and not (is_json_number(seed) and isinstance(seed, int)):
            raise ValueError(f"instance seed must be an integer, got {seed!r}")
        return cls(
            jobs=doc["jobs"],
            true_speeds=doc["true_speeds"],
            predicted_speeds=doc["predicted_speeds"],
            name=name,
            seed=seed,
        )


@dataclass(frozen=True)
class Partition:
    """Disjoint bags of job indices; bags may be empty, order is significant."""

    bags: tuple[Bag, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bags", tuple(tuple(sorted(map(int, bag))) for bag in self.bags))

    @property
    def m(self) -> int:
        return len(self.bags)

    def to_json_dict(self) -> dict:
        return {"bags": [list(bag) for bag in self.bags]}

    @classmethod
    def from_json_dict(cls, doc: object) -> "Partition":
        bags = json_object(doc, "partition", ("bags",))["bags"]
        if not isinstance(bags, list) or not all(isinstance(b, list) for b in bags):
            raise ValueError("partition 'bags' must be a list of lists of job indices")
        for j in (j for b in bags for j in b):
            if not (is_json_number(j) and isinstance(j, int)):
                raise ValueError(f"partition 'bags' job index must be an integer, got {j!r}")
        return cls(bags=tuple(tuple(b) for b in bags))


@dataclass(frozen=True)
class Assignment:
    """Bags grouped into per-machine collections (machine ``i`` runs ``collections[i]``).

    Flattening the collections in order yields a :class:`Partition`.
    """

    collections: tuple[tuple[Bag, ...], ...]

    def __post_init__(self) -> None:
        canon = tuple(
            tuple(tuple(sorted(map(int, bag))) for bag in coll) for coll in self.collections
        )
        object.__setattr__(self, "collections", canon)

    def to_partition(self) -> Partition:
        return Partition(bags=tuple(bag for coll in self.collections for bag in coll))


@dataclass(frozen=True)
class IprState:
    """Trace of one iterative-rebalancing run.

    Attributes
    ----------
    assignment:
        Final per-machine collections of bags (machines ordered by predicted
        speed, fastest first).
    opt_c_bar:
        Makespan of the start under the predicted speeds, its bags paired in
        order with the speeds sorted fastest first; the rebalancing guard is
        relative to this value.
    iterations:
        Number of rebalance steps attempted (including one aborted by the guard).
    b_min_history:
        Minimum bag load at each evaluation of the rebalance-loop condition;
        the last entry is the returned partition's minimum bag load.
    """

    assignment: Assignment
    opt_c_bar: float
    iterations: int
    b_min_history: tuple[float, ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------


def bag_load(bag: Sequence[int], jobs: Sequence[float]) -> float:
    """Total processing time of the jobs in ``bag`` (0.0 for an empty bag)."""
    total = 0.0
    n = len(jobs)
    for j in bag:
        if not 0 <= j < n:
            raise IndexError(f"job index {j} out of range for {n} jobs")
        total += jobs[j]
    return total


def beta_ratio(partition: Partition, jobs: Sequence[float]) -> float:
    """Balance ratio: largest multi-job bag load over smallest bag load.

    Returns ``0.0`` when no bag holds two or more jobs.  Returns ``inf`` when a
    multi-job bag exists but some bag is empty (load zero), the degenerate
    "unbalanceable" sentinel.
    """
    loads = [bag_load(bag, jobs) for bag in partition.bags]
    multi = [load for bag, load in zip(partition.bags, loads) if len(bag) >= 2]
    if not multi:
        return 0.0
    b_min = min(loads)
    if b_min <= 0.0:
        return math.inf
    return max(multi) / b_min


def prediction_error(predicted: Sequence[float], true: Sequence[float]) -> float:
    """Worst per-machine speed distortion after aligning the prediction scale.

    Predictions are rescaled multiplicatively so their maximum matches the
    maximum true speed (the measure ignores a global speed-unit mismatch); the
    result is the largest factor ``max(pred_i, true_i) / min(pred_i, true_i)``
    over machines, always >= 1.  Exact predictions give exactly 1.0.
    """
    predicted = finite_floats(predicted, "predicted speeds")
    true = finite_floats(true, "true speeds")
    if len(predicted) != len(true):
        raise ValueError("predicted and true speed vectors must have equal length")
    scale = max(true) / max(predicted)
    eta = 1.0
    for p_hat, s in zip(predicted, true):
        aligned = p_hat * scale
        eta = max(eta, aligned / s if aligned >= s else s / aligned)
    return eta


def validate_partition(partition: Partition, n: int, m: int) -> None:
    """Check that ``partition`` covers job indices ``0..n-1`` exactly once with ``m`` bags.

    Raises ``ValueError`` describing the first violation; returns ``None`` when valid.
    """
    if partition.m != m:
        raise ValueError(f"partition has {partition.m} bags, expected {m}")
    seen: set[int] = set()
    for k, bag in enumerate(partition.bags):
        for j in bag:
            if not 0 <= j < n:
                raise ValueError(f"bag {k} references job {j}, outside 0..{n - 1}")
            if j in seen:
                raise ValueError(f"job {j} appears in more than one bag")
            seen.add(j)
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise ValueError(f"jobs missing from partition: {missing[:8]}")
