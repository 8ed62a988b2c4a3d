"""Experiment runner, metric aggregation, and the property-verification suite.

``evaluate`` measures one (instance, algorithm) pair end to end: partition on
predicted speeds, schedule the bags on true speeds, divide by an oracle value.
``run_experiment`` sweeps a parameter over instance seeds in worker processes,
to which the calling process hands out the work one sweep point of one seed at
a time, receiving each result as its step ends, and aggregates mean/std
ratios into deterministic rows; a seed solves every scheduling
subproblem once in each worker that runs its points (one, unless a worker with
no seed left to start joins it).  Both, and ``verify``'s fixed families,
compute their ratios through one function, ``_instance_ratios``: stage one and
stage two for every algorithm, then the oracle, each solving through
``_solve`` with one ``solves`` memo that also holds the prediction-trusting
partition the other algorithms share.  Its stage one is ``make_partition``,
the one place that decides, by name alone, which partition each algorithm
builds on, and that solves its start.  ``verify_properties`` re-checks every
structural guarantee the algorithms are supposed to satisfy (balance bounds,
monotone rebalancing, iteration caps, consistency/robustness envelopes,
certificate feasibility, oracle agreement) over seeded random instances, one
section per worker process, and reports the first counterexample when one
exists.  Both pooled runs go through ``_map_tasks``, which alone hands out
the steps and keeps the failure protocol, and give the bytes of a serial run.
``theory_curve`` gives the guarantee envelopes at one value of the
consistency knob alpha.  The module returns values; the CLI writes them as
CSV or JSON.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import json
import math
import os
import threading
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Iterable, Iterator, Sequence

from .gen import (
    CLAMP_FLOOR,
    MAX_SHAPE,
    Dist,
    SplitMix64,
    SyntheticConfig,
    gen_binary_lb_instance,
    gen_prop1_instance,
    gen_synthetic,
    gen_tradeoff_instance,
    substream,
)
from .model import (
    Instance,
    Partition,
    bag_load,
    beta_ratio,
    is_json_number,
    json_object,
    left_sum,
    prediction_error,
    validate_partition,
)
from .partition import (
    IprConfig,
    binary_speed_partition,
    consistent_partition,
    fluid_ipr,
    ipr,
    lpt_partition,
)
from .solvers import (
    DEFAULT_NODE_BUDGET,
    SCHEDULERS,
    BudgetExceededError,
    SolveResult,
    brute_force_makespan,
    capacity_robust_schedule,
    exact_schedule,
    lpt_schedule,
    merge_to_fit,
    opt_lower_bound,
    schedule,
)

ALGORITHMS = ("one-consistent", "ipr", "lpt", "binary")
ORACLES = ("exact", "lower_bound")
SWEEP_PARAMS = ("err_sigma", "n", "m", "sigma_p", "sigma_s")


@dataclass(frozen=True)
class AlgorithmSpec:
    """A partitioning algorithm choice: name plus parameters where relevant.

    Only ``ipr`` takes ``alpha`` and ``rho`` (``None``: 0.5 and 4.0); any
    other algorithm given one raises ``ValueError`` naming it.  ``scheduler``
    optionally pins this algorithm's solver (both the inner partitioning
    solve and the bag-scheduling stage); ``None`` inherits the caller's
    scheduler.  The published experiment protocol handicaps the rebalancing
    algorithm with the greedy scheduler while the benchmarks get exact
    scheduling, which this field expresses.
    """

    name: str
    alpha: float | None = None
    rho: float | None = None
    scheduler: str | None = None

    def __post_init__(self) -> None:
        if self.name not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.name!r}; expected one of {sorted(ALGORITHMS)}"
            )
        for key, default in (("alpha", 0.5), ("rho", 4.0)):
            value = getattr(self, key)
            if self.name != "ipr":
                if value is not None:
                    raise ValueError(f"algorithm {self.name!r} takes no {key!r}; only 'ipr' does")
            elif value is None or is_json_number(value):
                object.__setattr__(self, key, default if value is None else float(value))
            else:
                raise ValueError(f"algorithm {key!r} must be a number, got {value!r}")
        if self.name == "ipr":
            IprConfig(alpha=self.alpha, rho=self.rho)  # validates ranges
        if self.scheduler is not None and self.scheduler not in SCHEDULERS:
            raise ValueError(f"algorithm scheduler must be one of {SCHEDULERS} or None")

    @property
    def label(self) -> str:
        """The name, with ``alpha`` and ``rho`` for ``ipr`` and the pinned
        scheduler if any: ``ipr(alpha=0.5,rho=4,scheduler=lpt)``."""
        params = [f"alpha={self.alpha:g}", f"rho={self.rho:g}"] if self.name == "ipr" else []
        if self.scheduler is not None:
            params.append(f"scheduler={self.scheduler}")
        return f"{self.name}({','.join(params)})" if params else self.name


def parse_algorithm(spec: "AlgorithmSpec | str | dict") -> AlgorithmSpec:
    if isinstance(spec, AlgorithmSpec):
        return spec
    if isinstance(spec, str):
        return AlgorithmSpec(name=spec)
    return AlgorithmSpec(**json_object(spec, "algorithm", ("name",), ("alpha", "rho", "scheduler")))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _memoised(solves: dict[tuple, Any] | None, key: tuple, compute: Callable[[], Any]) -> Any:
    """``compute()``, kept in ``solves`` under ``key`` when a memo is given;
    a failed ``compute()`` is not kept."""
    if solves is None:
        return compute()
    if key not in solves:
        solves[key] = compute()
    return solves[key]


def _solve(
    solves: dict[tuple, Any] | None, loads: Sequence[float], speeds: Sequence[float],
    scheduler: str, node_budget: int,
) -> SolveResult:
    """:func:`~speedsched.solvers.schedule`, memoised in ``solves`` under
    ``(scheduler, tuple(loads), tuple(speeds))``: in the items' own order,
    because the schedule maps item positions.  Stage one, stage two and the
    oracle of every evaluation solve through here."""
    key = (scheduler, tuple(loads), tuple(speeds))
    return _memoised(solves, key, lambda: schedule(loads, speeds, scheduler, node_budget))


def make_partition(
    instance: Instance,
    algorithm: "AlgorithmSpec | str | dict",
    scheduler: str = "exact",
    node_budget: int = DEFAULT_NODE_BUDGET,
    solves: dict[tuple, Any] | None = None,
) -> Partition:
    """Run the named partitioner on (jobs, predicted speeds).

    This is the one place that decides which partition an algorithm builds
    on, by its name alone, and it solves the partitioner's start.  The
    algorithm's pinned scheduler, if any, replaces ``scheduler``, whose name
    is checked; the partition is returned as the partitioner built it, not
    passed through :func:`~speedsched.model.validate_partition`.  ``lpt``
    ignores the speeds.  ``binary`` is
    :func:`~speedsched.partition.binary_speed_partition` from the
    prediction-trusting partition on one unit speed per predicted usable
    machine (speed 1.0), and rejects an instance that is not
    :attr:`~speedsched.model.Instance.all_or_nothing`.  ``one-consistent`` is
    the prediction-trusting partition, and ``ipr`` starts from it and derives
    its guard from it; both reject a prediction with a zero speed.  Every
    rejection comes before any solve.
    ``solves``, when given, memoises across algorithms and instances: the
    schedules (see :func:`_solve`), the LPT partitions, keyed by
    ``("lpt_partition", jobs, m)``, and the prediction-trusting partitions,
    keyed by ``("consistent_partition", scheduler, jobs, speeds)``, so that
    ``one-consistent`` and ``ipr`` share one, and ``binary`` shares it too
    when every prediction is 1.0.
    """
    spec = parse_algorithm(algorithm)
    if spec.scheduler is not None:
        scheduler = spec.scheduler
    if scheduler not in SCHEDULERS:
        raise ValueError(f"scheduler must be one of {SCHEDULERS}")
    jobs, predicted = instance.jobs, instance.predicted_speeds

    def trusting(speeds: tuple[float, ...]) -> Partition:
        def start() -> Partition:
            placed = _solve(solves, jobs, speeds, scheduler, node_budget)
            return consistent_partition(jobs, speeds, placed)

        return _memoised(solves, ("consistent_partition", scheduler, jobs, speeds), start)

    if spec.name == "lpt":
        return _memoised(
            solves, ("lpt_partition", jobs, instance.m), lambda: lpt_partition(jobs, instance.m)
        )
    if spec.name == "binary":
        if not instance.all_or_nothing:
            raise ValueError(f"binary partitions all-or-nothing instances (every speed 0.0 or 1.0, "
                             f"some 1.0 in each vector), but instance name={instance.name!r} "
                             f"seed={instance.seed!r} is not")
        return binary_speed_partition(jobs, instance.m, trusting((1.0,) * predicted.count(1.0)))
    if 0.0 in predicted:
        unusable = [i for i, s in enumerate(predicted) if s == 0.0]
        raise ValueError(
            f"{spec.name} partitions on positive predicted speeds, but the prediction marks "
            f"machines {unusable} unusable (speed 0.0)"
        )
    start = trusting(predicted)
    if spec.name == "one-consistent":
        return start
    config = IprConfig(alpha=spec.alpha, rho=spec.rho)
    return ipr(jobs, predicted, config, start).partition


def oracle_value(
    instance: Instance,
    oracle: str = "exact",
    node_budget: int = DEFAULT_NODE_BUDGET,
    solves: dict[tuple, Any] | None = None,
) -> float:
    """Reference makespan for ratio computation: the jobs scheduled on the
    :attr:`~speedsched.model.Instance.usable_speeds`.  ``oracle="lower_bound"``
    substitutes the cheap bound, making reported ratios upper bounds on the
    true approximation ratio.  ``solves`` memoises the exact solve (see
    :func:`_solve`) and the bound, keyed by ``("lower_bound", jobs, speeds)``.
    """
    if oracle not in ORACLES:
        raise ValueError(f"oracle must be one of {ORACLES}")
    jobs, speeds = instance.jobs, instance.usable_speeds
    if oracle == "exact":
        return _solve(solves, jobs, speeds, "exact", node_budget).makespan
    return _memoised(solves, ("lower_bound", jobs, speeds), lambda: opt_lower_bound(jobs, speeds))


@contextlib.contextmanager
def _budget_failure_names(where: str) -> Iterator[None]:
    """Re-raise an exhausted node budget with ``[where]`` appended, so the
    message says which instance ran out."""
    try:
        yield
    except BudgetExceededError as exc:
        raise BudgetExceededError(f"{exc} [{where}]", nodes_explored=exc.nodes_explored) from exc


def _instance_ratios(
    instance: Instance,
    algorithms: Sequence[AlgorithmSpec],
    scheduler: str,
    oracle: str,
    node_budget: int,
    solves: dict[tuple, Any],
    where: str,
    failure_context: Callable[[AlgorithmSpec], str] | None = None,
) -> list[float]:
    """The ratio of each algorithm on one instance, in order: its stage-two
    makespan over :func:`oracle_value`.

    Stage one is :func:`make_partition`.  Stage two places the bags with the
    scheduler stage one ran with (the algorithm's pinned one, else
    ``scheduler``) on the :attr:`~speedsched.model.Instance.usable_speeds`.
    Both stages run for every algorithm before the oracle, and all three
    solve through :func:`_solve`, sharing ``solves``.  An exhausted node
    budget names ``where``.  With the exact oracle, a ratio below ``1 - 1e-9``
    fails loudly: the oracle would not be one.  With ``failure_context``, an
    algorithm's error other than an exhausted node budget is re-raised with
    a message that names ``failure_context(spec)``: a ``ValueError`` (an
    input the algorithm rejects) as a ``ValueError``, any other as a
    :class:`RuntimeError`.
    """
    speeds = instance.usable_speeds
    makespans = []
    with _budget_failure_names(where):
        for spec in algorithms:
            try:
                part = make_partition(instance, spec, scheduler, node_budget, solves)
                loads = [bag_load(bag, instance.jobs) for bag in part.bags]
                stage2 = spec.scheduler or scheduler
                makespans.append(_solve(solves, loads, speeds, stage2, node_budget).makespan)
            except Exception as exc:
                if failure_context is None or isinstance(exc, BudgetExceededError):
                    raise
                kind = ValueError if isinstance(exc, ValueError) else RuntimeError
                raise kind(f"evaluation failed at {failure_context(spec)}: {exc}") from exc
        ref = oracle_value(instance, oracle, node_budget, solves)
    ratios = [alg / ref for alg in makespans]
    for ratio in ratios:
        if oracle == "exact" and ratio < 1.0 - 1e-9:
            raise RuntimeError(f"ratio {ratio} below 1 with exact oracle ({where}); solver bug")
    return ratios


def evaluate(
    instance: Instance,
    algorithm: "AlgorithmSpec | str | dict",
    scheduler: str = "exact",
    oracle: str = "exact",
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> float:
    """Approximation ratio of one algorithm on one instance.

    Partitions on predicted speeds, places the bags with the chosen scheduler
    on the true speeds of the usable machines, and divides by
    :func:`oracle_value` (see :func:`_instance_ratios`), with one fresh memo
    of ``solves``: under perfect predictions the oracle reuses the
    prediction-trusting solve.
    """
    spec = parse_algorithm(algorithm)
    where = f"instance name={instance.name!r} seed={instance.seed!r}"
    return _instance_ratios(instance, [spec], scheduler, oracle, node_budget, {}, where)[0]


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


_DEFAULT_ALGORITHMS = (AlgorithmSpec("one-consistent"), AlgorithmSpec("ipr"), AlgorithmSpec("lpt"))


@dataclass(frozen=True)
class ExperimentConfig:
    """A parameter sweep over synthetic instances.

    ``sweep_param`` selects what varies: the prediction-error scale
    (``err_sigma``), instance shape (``n``/``m``), or a normal distribution's
    spread (``sigma_p``/``sigma_s``).  For ``err_sigma`` the default grid is 11
    evenly spaced points from 0 to the speed distribution's mean; other sweeps
    must list ``sweep_values`` explicitly.  Per sweep point,
    ``instances_per_point`` instances are drawn with seeds ``seed + rep`` —
    the same seeds across points, so algorithms that ignore the swept
    parameter produce identical columns.

    The constructor checks every key and :meth:`from_json_dict` calls it, so
    both accept the same values (a distribution may be its JSON object); a
    bad value raises ``ValueError`` naming its key.  ``points``, resolved
    here, pairs each sweep value with its instance parameters.
    """

    n: int = 12
    m: int = 4
    job_dist: Dist = Dist.uniform(0.0, 100.0)
    speed_dist: Dist = Dist.uniform(0.0, 40.0)
    err_sigma: float = 0.0
    sweep_param: str = "err_sigma"
    sweep_values: tuple[float, ...] | None = None
    algorithms: tuple[AlgorithmSpec, ...] = ()
    instances_per_point: int = 100
    scheduler: str = "exact"
    oracle: str = "exact"
    seed: int = 0
    node_budget: int = DEFAULT_NODE_BUDGET
    points: tuple[tuple[float, SyntheticConfig], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        def require(key: str, holds: bool, want: str) -> None:
            if not holds:
                value = getattr(self, key)
                raise ValueError(f"experiment config {key!r} must be {want}, got {value!r}")

        def named(what: str, make: Callable[[], Any]) -> Any:
            try:
                return make()
            except ValueError as exc:
                raise ValueError(f"experiment config {what}: {exc}") from None

        for key in ("n", "m", "instances_per_point", "seed", "node_budget"):
            value = getattr(self, key)
            require(key, is_json_number(value) and isinstance(value, int), "an integer")
        for key in ("instances_per_point", "node_budget"):
            require(key, getattr(self, key) >= 1, "at least 1")
        require("instances_per_point", self.instances_per_point <= MAX_SHAPE,
                f"at most {MAX_SHAPE}")
        require("err_sigma", is_json_number(self.err_sigma), "a number")
        for key, allowed in zip(
            ("sweep_param", "scheduler", "oracle"), (SWEEP_PARAMS, SCHEDULERS, ORACLES)
        ):
            require(key, getattr(self, key) in allowed, f"one of {allowed}")
        param, values, algorithms = self.sweep_param, self.sweep_values, self.algorithms
        require("sweep_values", values is None or isinstance(values, (list, tuple))
                and all(map(is_json_number, values)), "a list of numbers or null")
        require("algorithms", algorithms is None or isinstance(algorithms, (list, tuple)),
                "a list or null")
        for key in ("job_dist", "speed_dist"):
            doc = getattr(self, key)
            if not isinstance(doc, Dist):
                object.__setattr__(self, key, named(repr(key), lambda: Dist.from_json_dict(doc)))
        specs = named("'algorithms'", lambda: tuple(map(parse_algorithm, algorithms or ())))
        object.__setattr__(self, "algorithms", specs or _DEFAULT_ALGORITHMS)
        labels = [a.label for a in self.algorithms]
        if len(set(labels)) != len(labels):
            raise ValueError(f"experiment config 'algorithms' has duplicate labels: {labels}")
        count = 11 if values is None else len(values)  # the default grid has 11 points
        if count * self.instances_per_point > MAX_SHAPE:
            raise ValueError(f"experiment config 'sweep_values' times 'instances_per_point' must "
                             f"be at most {MAX_SHAPE}, got {count} * {self.instances_per_point}")

        # The sweep points.  A SyntheticConfig error names its field, the config key.
        try:
            base = SyntheticConfig(self.n, self.m, self.job_dist, self.speed_dist,
                                   self.err_sigma, self.seed)
        except ValueError as exc:
            raise ValueError(f"experiment config {exc}") from None
        dist_key = {"sigma_p": "job_dist", "sigma_s": "speed_dist"}.get(param)
        if dist_key and getattr(base, dist_key).kind != "normal":
            raise ValueError(
                f"experiment config 'sweep_param' {param!r} needs a normal {dist_key!r}, "
                f"got {getattr(base, dist_key).kind}"
            )
        if values is not None:
            values = tuple(map(float, values))
            object.__setattr__(self, "sweep_values", values)
        elif param != "err_sigma":
            raise ValueError(
                f"experiment config 'sweep_values' must be given for 'sweep_param' {param!r}"
            )
        else:
            mu = self.speed_dist.mean
            values = tuple(i * mu / 10.0 for i in range(11))
            if not all(0.0 <= v < math.inf for v in values):
                raise ValueError(f"experiment config 'speed_dist' has mean {mu!r}, but the default "
                                 "'sweep_values' grid runs err_sigma from 0 to that mean, which "
                                 "must be finite and non-negative")

        def point(value: float) -> SyntheticConfig:
            if dist_key:
                return replace(base, **{dist_key: Dist.normal(getattr(base, dist_key).a, value)})
            if param != "err_sigma" and value != int(value):
                raise ValueError("not a whole number")
            return replace(base, **{param: value if param == "err_sigma" else int(value)})

        points = []
        for value in values:
            what = f"'sweep_values' entry {value!r} for 'sweep_param' {param!r}"
            points.append((value, named(what, functools.partial(point, value))))
        object.__setattr__(self, "points", tuple(points))

    @classmethod
    def from_json_dict(cls, doc: object) -> "ExperimentConfig":
        """The config a parsed JSON object states, checked by the constructor."""
        keys = [f.name for f in fields(cls) if f.init]
        return cls(**json_object(doc, "experiment config", (), keys))


@dataclass(frozen=True)
class ExperimentRow:
    sweep_param: str
    sweep_value: float
    algorithm: str
    mean_ratio: float
    std_ratio: float
    n_instances: int
    oracle_kind: str


def _seed_ratios(
    config: ExperimentConfig, inst_seed: int
) -> Iterator[tuple[int, Callable[[], list[float]]]]:
    """A :func:`_map_tasks` task: one step per sweep point, which computes the
    ratios of every algorithm on the instance of seed ``inst_seed`` there (its
    serial index is ``point * instances_per_point + rep``).  Each call has
    one memo of ``solves`` for the seed, which solves each subproblem the
    steps it runs share once, the oracle included.
    An exhausted node budget names the sweep point and the seed.
    """
    rep = inst_seed - config.seed
    solves: dict[tuple, Any] = {}

    def ratios(value: float, point: SyntheticConfig) -> list[float]:
        return _instance_ratios(
            gen_synthetic(replace(point, seed=inst_seed)),
            config.algorithms,
            config.scheduler,
            config.oracle,
            config.node_budget,
            solves,
            f"{config.sweep_param}={value} seed={inst_seed}",
            lambda spec: f"{config.sweep_param}={value}, algorithm={spec.label}, seed={inst_seed}",
        )

    for index, (value, point) in enumerate(config.points):
        yield index * config.instances_per_point + rep, functools.partial(ratios, value, point)


class WorkerDiedError(RuntimeError):
    """A worker process of :func:`_map_tasks` exited without its results."""


def _claim(
    counters: list[float], indexes: Sequence[Sequence[int]], own: int
) -> tuple[int, int] | None:
    """The ``(item, step)`` a worker on item ``own`` (``-1`` for none) runs
    next, claimed by advancing that item's counter; ``None`` when no step is
    left to claim.

    ``counters`` holds the lowest failing index met so far (``math.inf``
    before any), the first item no worker has started, then each item's next
    unclaimed step; ``indexes`` holds each item's step indexes, increasing.
    A step past the lowest failing index is never claimed.  The worker stays
    on its own item while that has a step left, then starts the next
    unstarted item; once every item is started, it joins the one with the
    most steps left, the lowest on a tie.
    """
    failure, items = counters[0], len(indexes)

    def left(item: int) -> int:
        start = counters[2 + item]
        return bisect.bisect_right(indexes[item], failure, start) - start

    if own < 0 or not left(own):
        while counters[1] < items and not left(counters[1]):
            counters[1] += 1
        if counters[1] < items:
            own = counters[1]
            counters[1] += 1
        else:
            own = max(range(items), key=lambda item: (left(item), -item), default=-1)
            if own < 0 or not left(own):
                return None
    step = counters[2 + own]
    counters[2 + own] = step + 1
    return own, step


def _map_tasks(
    task: Callable[[Any], Iterable[tuple[int, Callable[[], Any]]]], items: Sequence[Any]
) -> dict[int, Any]:
    """The result of every step of ``task(item)`` for every item, keyed by
    the step's serial index; or the error a serial run meets first.

    A task yields ``(index, step)`` pairs in increasing index order, ``index``
    being the step's place in a serial run and ``step`` a function of no
    arguments.  ``task(item)`` is called once for its indexes, before any
    step runs, and again by each process that runs its steps.  This function
    alone keeps the failure protocol: a step's error is caught, the lowest
    failing index is kept, no step past it is claimed, and the error with the
    lowest index is raised.

    This process alone holds the counters :func:`_claim` reads, and hands out
    every step by it: a worker runs its item's steps in order, then starts
    the next unstarted item, and once every item is started joins the one
    with the most steps left, one step at a time.  A joiner runs them from
    its own call of ``task(item)``: for :func:`_seed_ratios`, with its own
    memo of the seed, so the subproblems its steps share may be solved once
    in each worker that runs them.  The workers are forked from this
    process, one per CPU it may use and at most one per item.  Each reads its
    claims, pickled, from a pipe of its own and, as each step ends, sends
    back its index, result and error over a second pipe (an error keeps its
    message and attributes, not its ``__cause__``).  This process records
    the result and replies with the worker's next claim, or ``None``, on
    which the worker leaves through ``os._exit`` and is reaped.  A worker
    whose pipe closes before it is sent ``None``, or that exits with a status
    other than 0, raises :class:`WorkerDiedError`; on any error the workers
    are killed and reaped.  With one such CPU, without ``fork``, or when this
    process runs other threads (whose locks a child would inherit, held
    forever), the same claims run here, in order.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(items))
    indexes = [[index for index, _ in task(item)] for item in items]
    counters: list[float] = [math.inf, 0] + [0] * len(items)
    results: dict[int, Any] = {}
    failures: list[tuple[int, Exception]] = []

    @functools.lru_cache(maxsize=1)
    def steps(item: int) -> list[tuple[int, Callable[[], Any]]]:
        return list(task(items[item]))

    def run(item: int, step: int) -> tuple[int, Any, Exception | None]:
        """Step ``step`` of ``item``, run in this process: its index, result and error."""
        index, call = steps(item)[step]
        try:
            return index, call(), None
        except Exception as exc:
            return index, None, exc

    def record(index: int, result: Any, error: Exception | None) -> None:
        if error is None:
            results[index] = result
        else:
            failures.append((index, error))
            counters[0] = min(counters[0], index)

    pool: dict[int, tuple[int, int, Any]] = {}  # a live worker's result fd: pid, claim fd, reader
    owns: dict[int, int] = {}  # a live worker's result fd: the item of its last claim
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        own = -1
        while (claimed := _claim(counters, indexes, own)) is not None:
            own = claimed[0]
            record(*run(*claimed))
    else:
        # Imported here, not at module level: they slow every import.
        import pickle
        import select
        import signal

        poller = select.poll()

        def reap(fd: int) -> int:
            """Wait for a worker to exit, close its pipes, and give its exit code."""
            pid, to_worker, reader = pool[fd]
            status = os.waitpid(pid, 0)[1]  # first: if interrupted, ``finally`` reaps it
            del pool[fd]
            poller.unregister(fd)
            os.close(to_worker)
            reader.close()
            return os.waitstatus_to_exitcode(status)

        def hand_out(fd: int) -> None:
            """Send a worker its next claim; reap it once that is ``None``."""
            claimed = _claim(counters, indexes, owns[fd])
            # A dead worker cannot take its claim; its EOF or exit status reports it.
            with contextlib.suppress(BrokenPipeError):
                os.write(pool[fd][1], pickle.dumps(claimed, pickle.HIGHEST_PROTOCOL))
            if claimed is not None:
                owns[fd] = claimed[0]
            elif (code := reap(fd)) != 0:
                raise WorkerDiedError(f"a worker process terminated abruptly (exit status {code})")

        try:
            for _ in range(workers):
                from_parent, to_worker = os.pipe()
                from_worker, to_parent = os.pipe()
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        # The parent's ends: held here, they would keep a
                        # worker waiting for claims after the parent died.
                        for fd in (to_worker, from_worker, *pool, *(w[1] for w in pool.values())):
                            os.close(fd)
                        with open(from_parent, "rb") as inbox, open(to_parent, "wb") as outbox:
                            while (claimed := pickle.load(inbox)) is not None:
                                pickle.dump(run(*claimed), outbox, pickle.HIGHEST_PROTOCOL)
                                outbox.flush()
                        status = 0
                    finally:
                        os._exit(status)
                os.close(from_parent)
                os.close(to_parent)
                pool[from_worker] = pid, to_worker, open(from_worker, "rb")
                owns[from_worker] = -1
                poller.register(from_worker, select.POLLIN)
                hand_out(from_worker)
            while pool:
                for fd, _ in poller.poll():
                    try:
                        outcome = pickle.load(pool[fd][2])
                    except (EOFError, pickle.UnpicklingError):
                        raise WorkerDiedError(
                            f"a worker process terminated abruptly (exit status {reap(fd)})"
                        ) from None
                    record(*outcome)
                    hand_out(fd)
        finally:
            for pid, to_worker, reader in pool.values():
                os.close(to_worker)
                reader.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def run_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    """Evaluate every (sweep point, algorithm) cell; deterministic given config.

    Each instance seed is a :func:`_seed_ratios` task of :func:`_map_tasks`,
    whose steps are its sweep points, in parallel on the CPUs this process
    may use (``taskset -c 0`` runs them here, in order), and each instance
    goes through :func:`_instance_ratios`, as in :func:`evaluate`.  This
    process hands out every step and receives each result as its step ends:
    a worker runs whole seeds while any is unstarted, then joins the seed
    with the most points left; the joiner redraws the seed and keeps its own
    memo, so the seed's sweep-blind subproblems (the oracle, ``lpt``'s partition
    and its stage two) may be solved once per worker.  Means and sample standard
    deviations are added in seed order, so the CSV bytes do not depend on the
    number of CPUs.  A failure raises the error that a serial run over sweep
    points, and seeds within a point, meets first; no instance is solved
    twice.
    """
    count = config.instances_per_point
    seeds = [config.seed + rep for rep in range(count)]
    results = _map_tasks(functools.partial(_seed_ratios, config), seeds)
    rows: list[ExperimentRow] = []
    for point, (value, _) in enumerate(config.points):
        for j, spec in enumerate(config.algorithms):
            values_list = [results[point * count + rep][j] for rep in range(count)]
            mean = left_sum(values_list) / len(values_list)
            if len(values_list) > 1:
                var = left_sum((x - mean) ** 2 for x in values_list) / (len(values_list) - 1)
                std = math.sqrt(var)
            else:
                std = 0.0
            rows.append(ExperimentRow(
                sweep_param=config.sweep_param, sweep_value=value, algorithm=spec.label,
                mean_ratio=mean, std_ratio=std, n_instances=count, oracle_kind=config.oracle,
            ))
    return rows


# ---------------------------------------------------------------------------
# Theory curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveRow:
    alpha: float
    consistency: float
    robustness_general: float
    robustness_equal_jobs: float
    robustness_fluid: float


def theory_curve(alpha: float) -> CurveRow:
    """The guarantee envelopes at one alpha: consistency ``1 + a``; worst-case
    ratio ``2 + 2/a`` in general, ``2 + 1/a`` for equal-size jobs, ``1 + 1/a``
    for infinitesimal jobs.  ``verify`` checks its bounds against these."""
    a = float(alpha)
    IprConfig(alpha=a)  # validates the range
    return CurveRow(
        alpha=a,
        consistency=1.0 + a,
        robustness_general=2.0 + 2.0 / a,
        robustness_equal_jobs=2.0 + 1.0 / a,
        robustness_fluid=1.0 + 1.0 / a,
    )


# ---------------------------------------------------------------------------
# Property verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: int
    trials: int
    counterexample: str | None = None

    @property
    def ok(self) -> bool:
        return self.passed == self.trials


def _le(a: float, b: float) -> bool:
    """a <= b up to 1e-9 relative-ish slack (bounds are mathematical, loads are FP)."""
    return a <= b + 1e-9 * max(1.0, abs(a), abs(b))


_ALPHA_CYCLE = (0.25, 0.5, 0.75)


def random_small_instance(
    rng: SplitMix64,
    n_max: int = 12,
    m_max: int = 4,
    unit_jobs: bool = False,
) -> Instance:
    """Small random instance in the experiment-section style: n in 2..n_max,
    m in 2..m_max, jobs/speeds from one of the four distribution pairings,
    error scale uniform in [0, speed mean]."""
    n = 2 + rng.next_u64() % (n_max - 1)
    m = 2 + rng.next_u64() % (m_max - 1)
    combo = rng.next_u64() % 4
    job_dist = Dist.uniform(0.0, 100.0) if combo & 1 else Dist.normal(50.0, 5.0)
    speed_dist = Dist.uniform(0.0, 40.0) if combo & 2 else Dist.normal(20.0, 4.0)
    err_sigma = speed_dist.mean * rng.next_float()
    config = SyntheticConfig(
        n=n,
        m=m,
        job_dist=job_dist,
        speed_dist=speed_dist,
        err_sigma=err_sigma,
        seed=rng.next_u64(),
    )
    instance = gen_synthetic(config)
    if unit_jobs:
        instance = replace(instance, jobs=(1.0,) * n, name=f"unit-{instance.name}")
    return instance


def _dump(instance: Instance, extra: str = "") -> str:
    text = json.dumps(instance.to_json_dict(), indent=2)
    return f"{extra + '; ' if extra else ''}instance: {text}"


# A verify section's verdict on one trial: the property's name, whether it
# held, and a function of no arguments that describes the trial.
_Verdict = tuple[str, bool, Callable[[], str]]


def _check_generator(seed: int, trials: int, node_budget: int) -> Iterator[_Verdict]:
    """Generated instances are valid: eta >= 1 and every job at the floor."""
    rng = substream(seed, 101)
    for _ in range(trials):
        inst = random_small_instance(rng)
        try:
            eta = prediction_error(inst.predicted_speeds, inst.true_speeds)
            ok = eta >= 1.0 and all(p >= CLAMP_FLOOR for p in inst.jobs)
            detail = f"eta={eta}"
        except ValueError as exc:
            ok, detail = False, str(exc)
        yield "gen-valid-instances", ok, lambda: _dump(inst, detail)


def _check_lpt_partition(seed: int, trials: int, node_budget: int) -> Iterator[_Verdict]:
    """LPT partition balance, the min-bag bound and eta symmetry."""
    rng = substream(seed, 102)
    for _ in range(trials):
        inst = random_small_instance(rng)
        part = lpt_partition(inst.jobs, inst.m)
        beta = beta_ratio(part, inst.jobs)
        yield "lpt-partition-beta-le-2", _le(beta, 2.0), lambda: _dump(inst, f"beta={beta}")
        loads = [bag_load(b, inst.jobs) for b in part.bags]
        balanced = min(loads) > 0.0 and max(loads) <= 2.0 * min(loads)
        bound = sum(inst.jobs) / (2 * inst.m - 1)
        yield (
            "balanced-min-bag-load",
            not balanced or _le(bound, min(loads)),
            lambda: _dump(inst, f"min={min(loads)} bound={bound}"),
        )
        eta_ab = prediction_error(inst.predicted_speeds, inst.true_speeds)
        eta_ba = prediction_error(inst.true_speeds, inst.predicted_speeds)
        yield (
            "prediction-error-symmetric",
            math.isclose(eta_ab, eta_ba, rel_tol=1e-9),
            lambda: _dump(inst, f"eta={eta_ab} vs {eta_ba}"),
        )


def _bmin_monotone(hist: Sequence[float]) -> bool:
    """An ``ipr`` trace's smallest bag load never falls from its first
    positive entry on."""
    start = next((i for i, v in enumerate(hist) if v > 0.0), len(hist))
    return all(_le(hist[i], hist[i + 1]) for i in range(start, len(hist) - 1))


def _check_ipr_trace(seed: int, trials: int, node_budget: int) -> Iterator[_Verdict]:
    """The ``ipr`` trace with rho = 4: monotone b_min, at most m^2
    iterations, beta within the robust bound."""
    rng = substream(seed, 103)
    for t in range(trials):
        inst = random_small_instance(rng)
        alpha = _ALPHA_CYCLE[t % len(_ALPHA_CYCLE)]
        initial = make_partition(inst, "one-consistent", "exact", node_budget)
        result = ipr(inst.jobs, inst.predicted_speeds, IprConfig(alpha=alpha, rho=4.0), initial)
        state = result.state
        hist = state.b_min_history
        yield (
            "ipr-bmin-monotone-rho4",
            _bmin_monotone(hist),
            lambda: _dump(inst, f"alpha={alpha} history={hist}"),
        )
        yield (
            "ipr-iterations-le-m-squared",
            state.iterations <= inst.m * inst.m,
            lambda: _dump(inst, f"iterations={state.iterations}"),
        )
        beta = beta_ratio(result.partition, inst.jobs)
        yield (
            "ipr-beta-le-robust-bound",
            _le(beta, theory_curve(alpha).robustness_general),
            lambda: _dump(inst, f"alpha={alpha} beta={beta}"),
        )
        validate_partition(result.partition, inst.n, inst.m)


def _check_perfect_predictions(seed: int, trials: int, node_budget: int) -> Iterator[_Verdict]:
    """Consistency: under perfect predictions ``ipr`` stays within
    ``(1 + alpha)`` of the prediction-trusting makespan."""
    rng = substream(seed, 104)
    for t in range(trials):
        base = random_small_instance(rng)
        inst = replace(base, predicted_speeds=base.true_speeds)
        initial = make_partition(inst, "one-consistent", "exact", node_budget)
        for alpha in _ALPHA_CYCLE:
            result = ipr(inst.jobs, inst.predicted_speeds, IprConfig(alpha=alpha, rho=4.0), initial)
            speeds_desc = sorted(inst.predicted_speeds, reverse=True)
            final = max(
                sum(bag_load(b, inst.jobs) for b in coll) / s
                for coll, s in zip(result.state.assignment.collections, speeds_desc)
            )
            bound = theory_curve(alpha).consistency * result.state.opt_c_bar
            yield (
                "ipr-consistency-guard",
                _le(final, bound),
                lambda: _dump(inst, f"alpha={alpha} makespan={final} bound={bound}"),
            )


def _check_adversarial_speeds(seed: int, trials: int, node_budget: int) -> Iterator[_Verdict]:
    """Robustness: ``ipr`` at alpha = 0.5 within ratio 6 on adversarial true
    speeds."""
    rng = substream(seed, 105)
    bound = theory_curve(0.5).robustness_general  # 6.0
    for _ in range(trials):
        base = random_small_instance(rng)
        adversarial = tuple(max(40.0 * rng.next_float(), CLAMP_FLOOR) for _ in range(base.m))
        inst = replace(base, true_speeds=adversarial, name=f"adversarial-{base.name}")
        ratio = evaluate(inst, AlgorithmSpec("ipr", alpha=0.5, rho=4.0), "exact", "exact", node_budget)
        yield "ipr-robust-ratio-le-6", _le(ratio, bound), lambda: _dump(inst, f"ratio={ratio}")


def _check_unit_jobs(seed: int, trials: int, node_budget: int) -> Iterator[_Verdict]:
    """Unit jobs with rho = 2: the equal-size beta bound and monotone b_min."""
    rng = substream(seed, 106)
    for t in range(trials):
        inst = random_small_instance(rng, unit_jobs=True)
        alpha = _ALPHA_CYCLE[t % len(_ALPHA_CYCLE)]
        initial = make_partition(inst, "one-consistent", "exact", node_budget)
        result = ipr(inst.jobs, inst.predicted_speeds, IprConfig(alpha=alpha, rho=2.0), initial)
        beta = beta_ratio(result.partition, inst.jobs)
        yield (
            "unit-ipr-rho2-beta-bound",
            _le(beta, theory_curve(alpha).robustness_equal_jobs),
            lambda: _dump(inst, f"alpha={alpha} beta={beta}"),
        )
        hist = result.state.b_min_history
        yield (
            "unit-ipr-rho2-bmin-monotone",
            _bmin_monotone(hist),
            lambda: _dump(inst, f"history={hist}"),
        )


def _check_fluid(seed: int, trials: int, node_budget: int) -> Iterator[_Verdict]:
    """The fluid variant: balance bound with rho = 2, and load conserved."""
    rng = substream(seed, 107)
    for t in range(trials):
        m = 2 + rng.next_u64() % 3
        speeds = [max(40.0 * rng.next_float(), CLAMP_FLOOR) for _ in range(m)]
        total = 1.0 + 999.0 * rng.next_float()
        alpha = _ALPHA_CYCLE[t % len(_ALPHA_CYCLE)]
        loads = fluid_ipr(total, speeds, alpha, rho=2.0)
        yield (
            "fluid-rho2-balance-bound",
            _le(max(loads), theory_curve(alpha).robustness_fluid * min(loads)),
            lambda: f"alpha={alpha} speeds={speeds} loads={loads}",
        )
        yield (
            "fluid-conserves-load",
            math.isclose(sum(loads), total, rel_tol=1e-9),
            lambda: f"speeds={speeds} loads={loads} total={total}",
        )


def _check_all_or_nothing(seed: int, trials: int, node_budget: int) -> Iterator[_Verdict]:
    """All-or-nothing speeds: the stage-one bag bound of ``binary``, its
    partition formed by :func:`make_partition` as the CLI forms it, and the
    merge lemma."""
    rng = substream(seed, 108)
    for _ in range(trials):
        n = 1 + rng.next_u64() % 12
        m = 1 + rng.next_u64() % 5
        m_hat = 1 + rng.next_u64() % m
        m_zero = 1 + rng.next_u64() % m
        dist = Dist.uniform(0.0, 100.0)
        jrng = SplitMix64(rng.next_u64())
        jobs = [max(dist.sample(jrng), CLAMP_FLOOR) for _ in range(n)]
        true, predicted = ((1.0,) * k + (0.0,) * (m - k) for k in (m_zero, m_hat))
        inst = Instance(tuple(jobs), true, predicted)
        # Up to three solves on identical machines (m_hat, m and m_zero of
        # them), one per distinct machine count.
        solves: dict[tuple, Any] = {}
        part = make_partition(inst, "binary", "exact", node_budget, solves)
        loads = [bag_load(b, jobs) for b in part.bags]
        opt_m = _solve(solves, jobs, [1.0] * m, "exact", node_budget).makespan
        yield (
            "binary-stage1-max-bag-le-2opt",
            _le(max(loads), 2.0 * opt_m),
            lambda: f"jobs={jobs} loads={loads} opt_m={opt_m}",
        )
        merged = merge_to_fit(loads, m_zero)
        alg = max(merged) if merged else 0.0
        opt0 = _solve(solves, jobs, [1.0] * m_zero, "exact", node_budget).makespan
        yield (
            "binary-merge-ratio-le-2",
            _le(alg, 2.0 * opt0),
            lambda: f"(m,m_hat,m_zero)={(m, m_hat, m_zero)} jobs={jobs} alg={alg} opt={opt0}",
        )
        yield (
            "merge-preserves-total",
            math.isclose(sum(merged), sum(loads), rel_tol=1e-9)
            and (not merged or max(merged) >= max(loads) - 1e-9 * max(1.0, max(loads))),
            lambda: f"loads={loads} merged={merged}",
        )


def _check_capacity(seed: int, trials: int, node_budget: int) -> Iterator[_Verdict]:
    """The capacity certificate on LPT and random partitions."""
    rng = substream(seed, 109)
    for _ in range(trials):
        inst = random_small_instance(rng)
        opt = exact_schedule(inst.jobs, inst.true_speeds, node_budget).makespan
        parts = [lpt_partition(inst.jobs, inst.m)]
        random_bags: list[list[int]] = [[] for _ in range(inst.m)]
        for j in range(inst.n):
            random_bags[rng.next_u64() % inst.m].append(j)
        parts.append(Partition(tuple(tuple(b) for b in random_bags)))
        for part in parts:
            beta = beta_ratio(part, inst.jobs)
            factor = max(2.0, beta)
            try:
                result = capacity_robust_schedule(
                    part, inst.jobs, inst.true_speeds, node_budget=node_budget
                )
                ok = _le(result.makespan, factor * opt) if math.isfinite(factor) else True
                detail = f"beta={beta} makespan={result.makespan} opt={opt}"
            except Exception as exc:  # infeasibility would be an invariant bug
                ok, detail = False, f"error: {exc}"
            yield "capacity-certificate", ok, lambda: _dump(inst, f"{detail} bags={part.bags}")


def _check_oracle_agreement(seed: int, trials: int, node_budget: int) -> Iterator[_Verdict]:
    """The exact solver against enumeration, LPT and the lower bound."""
    rng = substream(seed, 110)
    for _ in range(trials):
        inst = random_small_instance(rng, n_max=8, m_max=3)
        exact = exact_schedule(inst.jobs, inst.true_speeds, node_budget).makespan
        greedy = lpt_schedule(inst.jobs, inst.true_speeds).makespan
        brute = brute_force_makespan(inst.jobs, inst.true_speeds)
        yield (
            "exact-matches-enumeration",
            math.isclose(exact, brute, rel_tol=1e-12, abs_tol=1e-12),
            lambda: _dump(inst, f"exact={exact} brute={brute}"),
        )
        yield (
            "exact-le-lpt",
            exact <= greedy * (1.0 + 1e-12),
            lambda: _dump(inst, f"exact={exact} lpt={greedy}"),
        )
        yield (
            "lower-bound-le-exact",
            opt_lower_bound(inst.jobs, inst.true_speeds) <= exact * (1.0 + 1e-12),
            lambda: _dump(inst),
        )


def _check_families(seed: int, trials: int, node_budget: int) -> Iterator[_Verdict]:
    """The fixed trap, tradeoff and binary lower-bound families (no seed, no
    trials), with one memo of solves and partitions for the whole section."""
    solves: dict[tuple, Any] = {}

    def ratios_on(inst: Instance, specs: Sequence[AlgorithmSpec]) -> list[float]:
        where = f"instance name={inst.name!r} seed={inst.seed!r}"
        return _instance_ratios(inst, specs, "exact", "exact", node_budget, solves, where)

    consistent = [AlgorithmSpec("one-consistent")]
    binary = [AlgorithmSpec("binary")]
    for m in (2, 3):
        for n in range(m + 1, 13):
            inst = gen_prop1_instance(n, m)
            expected = (n - m + 1) / math.ceil(n / m)
            ratio = ratios_on(inst, consistent)[0]
            yield (
                "trap-family-exact-ratio",
                math.isclose(ratio, expected, rel_tol=1e-9),
                lambda: _dump(inst, f"ratio={ratio} expected={expected}"),
            )
    for m in (2, 3, 4):
        inst = gen_tradeoff_instance(m)
        specs = [AlgorithmSpec("ipr", alpha=alpha, rho=4.0) for alpha in _ALPHA_CYCLE]
        ratios = ratios_on(inst, specs)
        for alpha, ratio in zip(_ALPHA_CYCLE, ratios):
            yield (
                "tradeoff-family-ipr-bound",
                _le(ratio, theory_curve(alpha).robustness_general),
                lambda: _dump(inst, f"alpha={alpha} ratio={ratio}"),
            )
    for k in (1, 2, 3):
        inst = gen_binary_lb_instance(k)
        ratio = ratios_on(inst, binary)[0]
        yield (
            "binary-family-benchmark-floor",
            ratio >= 4.0 / 3.0 - 1e-9,
            lambda: _dump(inst, f"ratio={ratio}"),
        )


_VerifySection = Callable[[int, int, int], Iterator[_Verdict]]

# The sections in report order; each draws from its own substream of the seed.
_VERIFY_SECTIONS: tuple[_VerifySection, ...] = (
    _check_generator,
    _check_lpt_partition,
    _check_ipr_trace,
    _check_perfect_predictions,
    _check_adversarial_speeds,
    _check_unit_jobs,
    _check_fluid,
    _check_all_or_nothing,
    _check_capacity,
    _check_oracle_agreement,
    _check_families,
)

# The order the sections are handed to the workers: by their share of the
# time of ``verify --trials 20`` over seeds 0-11 on one CPU, largest first
# (33%, 24%, 13%, 8%, 8%, 6%, then 3% or less each), so that no long section
# starts last.
_HEAVIEST_FIRST: tuple[_VerifySection, ...] = (
    _check_perfect_predictions,
    _check_adversarial_speeds,
    _check_capacity,
    _check_all_or_nothing,
    _check_ipr_trace,
    _check_oracle_agreement,
    _check_unit_jobs,
    _check_families,
    _check_lpt_partition,
    _check_generator,
    _check_fluid,
)


def _section_checks(
    seed: int, trials: int, node_budget: int, section: _VerifySection
) -> Iterator[tuple[int, Callable[[], list[PropertyCheck]]]]:
    """A :func:`_map_tasks` task: one step at the section's report position,
    which computes the checks of one verify section.  An exhausted budget
    names section and seed.

    A section is a generator ``section(seed, trials, node_budget)`` that
    yields one :data:`_Verdict` ``(name, ok, detail)`` per property per trial.
    The checks count them per name, in the order each name first appears;
    ``detail()`` is called once, for each name's first failing verdict, while
    the section is suspended at that ``yield``, so a plain closure over the
    trial's variables describes that trial.
    """

    def checks() -> list[PropertyCheck]:
        counts: dict[str, list] = {}  # name -> [passed, trials, counterexample]
        with _budget_failure_names(
            f"verify section {section.__name__.removeprefix('_check_')} seed={seed}"
        ):
            for name, ok, detail in section(seed, trials, node_budget):
                entry = counts.setdefault(name, [0, 0, None])
                entry[1] += 1
                if ok:
                    entry[0] += 1
                elif entry[2] is None:
                    entry[2] = detail()
        return [PropertyCheck(name, *entry) for name, entry in counts.items()]

    yield _VERIFY_SECTIONS.index(section), checks


def verify_properties(
    seed: int = 0,
    trials: int = 200,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[PropertyCheck, ...]:
    """Check every structural property over ``trials`` random small instances
    each, plus the fixed adversarial families.  Failures are reported as data
    (one :class:`PropertyCheck` per property: pass count and first
    counterexample), never raised.

    The properties come in sections, each with its own substream of ``seed``,
    run as :func:`_section_checks` tasks of :func:`_map_tasks`, heaviest
    first, on the CPUs this process may use (``taskset -c 0`` runs them here,
    in order).  The checks come in report order, so it does not
    depend on the number of CPUs, and an error a section raises (an exhausted
    node budget, an invalid partition) is the one a serial run meets first.
    The families section computes its ratios through
    :func:`_instance_ratios`, as :func:`evaluate` does.
    """
    for name, value in (("trials", trials), ("node_budget", node_budget)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    results = _map_tasks(
        functools.partial(_section_checks, seed, trials, node_budget), _HEAVIEST_FIRST
    )
    return tuple(c for position in sorted(results) for c in results[position])
