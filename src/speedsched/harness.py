"""Experiment runner, metric aggregation, and the property-verification suite.

``evaluate`` measures one (instance, algorithm) pair end to end: partition on
predicted speeds, schedule the bags on true speeds, divide by an oracle value.
``run_experiment`` sweeps a parameter, one instance seed per worker process,
and aggregates mean/std ratios into deterministic CSV rows; each seed solves
every scheduling subproblem once.  Both evaluate an instance through one
function whose stage one is ``make_partition``, the one place that decides
which partition each algorithm builds on; it solves the prediction-trusting
partition once per scheduler and shares it between ``one-consistent`` and
``ipr``.  ``verify_properties`` re-checks every structural guarantee the
algorithms are supposed to satisfy (balance bounds, monotone rebalancing,
iteration caps, consistency/robustness envelopes, certificate feasibility,
oracle agreement) over seeded random instances, one section per worker
process, and reports the first counterexample when one exists.  Both pooled
runs go through ``_map_tasks`` and give the bytes of a serial run.
``theory_curves`` tabulates the guarantee envelopes as functions of the
consistency knob alpha.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import os
import threading
from dataclasses import astuple, dataclass, fields
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator, Sequence

from .gen import (
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
    instance_to_json,
    left_sum,
    prediction_error,
    validate_partition,
)
from .partition import (
    ConsistentPartition,
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
    brute_force_makespan,
    capacity_robust_schedule,
    exact_schedule,
    lpt_schedule,
    merge_to_fit,
    opt_lower_bound,
    schedule,
)

ALGORITHMS = ("one-consistent", "ipr", "lpt")
ORACLES = ("exact", "lower_bound")
SWEEP_PARAMS = ("err_sigma", "n", "m", "sigma_p", "sigma_s")


@dataclass(frozen=True)
class AlgorithmSpec:
    """A partitioning algorithm choice: name plus parameters where relevant.

    ``scheduler`` optionally pins this algorithm's solver (both the inner
    partitioning solve and the bag-scheduling stage); ``None`` inherits the
    caller's scheduler.  The published experiment protocol handicaps the
    rebalancing algorithm with the greedy scheduler while the benchmarks get
    exact scheduling, which this field expresses.
    """

    name: str
    alpha: float = 0.5
    rho: float = 4.0
    scheduler: str | None = None

    def __post_init__(self) -> None:
        if self.name not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.name!r}; expected one of {sorted(ALGORITHMS)}"
            )
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
    if isinstance(spec, dict):
        extra = spec.keys() - {"name", "alpha", "rho", "scheduler"}
        if extra:
            raise ValueError(f"unknown algorithm keys: {sorted(extra)}")
        if "name" not in spec:
            raise ValueError('algorithm object needs a "name"')
        return AlgorithmSpec(
            name=spec["name"],
            alpha=float(spec.get("alpha", 0.5)),
            rho=float(spec.get("rho", 4.0)),
            scheduler=spec.get("scheduler"),
        )
    raise ValueError(f"cannot parse algorithm spec {spec!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def make_partition(
    instance: Instance,
    algorithm: "AlgorithmSpec | str | dict",
    scheduler: str = "exact",
    node_budget: int = DEFAULT_NODE_BUDGET,
    trusting: dict[str, ConsistentPartition] | None = None,
    solves: dict[tuple, Any] | None = None,
) -> Partition:
    """Run the named partitioner on (jobs, predicted speeds).

    This is the one place that decides which partition an algorithm builds
    on.  The algorithm's pinned scheduler, if any, replaces ``scheduler``, and
    the result is validated.  ``lpt`` ignores the speeds.  On
    :attr:`~speedsched.model.Instance.all_or_nothing` instances
    ``one-consistent`` routes to
    :func:`~speedsched.partition.binary_speed_partition` with the predicted
    usable count (the predicted speeds equal to 1.0).  Otherwise
    ``one-consistent`` is the prediction-trusting partition and ``ipr`` starts
    from it; both reject a prediction with a zero speed before any solve.
    ``trusting``, when given, memoises that partition per scheduler:
    it is read before solving and filled after, so callers running several
    algorithms on one instance solve it once per scheduler.  ``solves``, when
    given, memoises across instances: the schedules (see
    :func:`~speedsched.solvers.schedule`) and the LPT partitions, keyed by
    ``("lpt_partition", jobs, m)``.
    """
    spec = parse_algorithm(algorithm)
    if spec.scheduler is not None:
        scheduler = spec.scheduler
    if scheduler not in SCHEDULERS:
        raise ValueError(f"scheduler must be one of {SCHEDULERS}")
    if spec.name == "lpt":
        if solves is None:
            return lpt_partition(instance.jobs, instance.m)
        key = ("lpt_partition", instance.jobs, instance.m)
        if key not in solves:
            solves[key] = lpt_partition(instance.jobs, instance.m)
        return solves[key]
    if spec.name == "one-consistent" and instance.all_or_nothing:
        m_hat = instance.predicted_speeds.count(1.0)
        return binary_speed_partition(
            instance.jobs, instance.m, m_hat, scheduler, node_budget, solves
        )
    if 0.0 in instance.predicted_speeds:
        unusable = [i for i, s in enumerate(instance.predicted_speeds) if s == 0.0]
        raise ValueError(
            f"{spec.name} partitions on positive predicted speeds, but the prediction marks "
            f"machines {unusable} unusable (speed 0.0)"
        )
    if trusting is None:
        trusting = {}
    if scheduler not in trusting:
        trusting[scheduler] = consistent_partition(
            instance.jobs,
            instance.predicted_speeds,
            solver=scheduler,
            node_budget=node_budget,
            solves=solves,
        )
    start = trusting[scheduler]
    if spec.name == "one-consistent":
        return start.partition
    config = IprConfig(alpha=spec.alpha, rho=spec.rho)
    return ipr(instance.jobs, instance.predicted_speeds, config, start).partition


def oracle_value(
    instance: Instance,
    oracle: str = "exact",
    node_budget: int = DEFAULT_NODE_BUDGET,
    solves: dict[tuple, Any] | None = None,
) -> float:
    """Reference makespan for ratio computation: the jobs scheduled on the
    true speeds of the usable machines (a zero true speed marks an unusable
    machine of an all-or-nothing instance).  ``oracle="lower_bound"``
    substitutes the cheap bound, making reported ratios upper bounds on the
    true approximation ratio.  ``solves`` memoises the exact solve (see
    :func:`~speedsched.solvers.schedule`).
    """
    if oracle not in ORACLES:
        raise ValueError(f"oracle must be one of {ORACLES}")
    speeds = [s for s in instance.true_speeds if s != 0.0]
    if oracle == "exact":
        return schedule(instance.jobs, speeds, "exact", node_budget, solves).makespan
    return opt_lower_bound(instance.jobs, speeds)


def _instance_makespans(
    instance: Instance,
    algorithms: Sequence[AlgorithmSpec],
    scheduler: str = "exact",
    node_budget: int = DEFAULT_NODE_BUDGET,
    failure_context: Callable[[AlgorithmSpec], str] | None = None,
    solves: dict[tuple, Any] | None = None,
) -> list[float]:
    """Stage-two makespan of each algorithm on one instance, in order.

    Stage one is :func:`make_partition`, sharing one memo of the
    prediction-trusting partition across the algorithms.  Stage two places the
    bags with the scheduler stage one ran with (the algorithm's pinned one, else
    ``scheduler``) on the true speeds of the usable machines (a zero true
    speed marks an unusable machine).  ``solves`` is handed to both stages.

    With ``failure_context``, an algorithm's error other than an exhausted node
    budget is re-raised as a :class:`RuntimeError` that names
    ``failure_context(spec)``.
    """
    trusting: dict[str, ConsistentPartition] = {}
    speeds = [s for s in instance.true_speeds if s != 0.0]
    makespans = []
    for spec in algorithms:
        try:
            part = make_partition(instance, spec, scheduler, node_budget, trusting, solves)
            loads = [bag_load(bag, instance.jobs) for bag in part.bags]
            stage2 = spec.scheduler or scheduler
            makespans.append(schedule(loads, speeds, stage2, node_budget, solves).makespan)
        except BudgetExceededError:
            raise
        except Exception as exc:
            if failure_context is None:
                raise
            raise RuntimeError(f"evaluation failed at {failure_context(spec)}: {exc}") from exc
    return makespans


@contextlib.contextmanager
def _budget_failure_names(where: str) -> Iterator[None]:
    """Re-raise an exhausted node budget with ``[where]`` appended, so the
    message says which instance ran out."""
    try:
        yield
    except BudgetExceededError as exc:
        raise BudgetExceededError(f"{exc} [{where}]", nodes_explored=exc.nodes_explored) from exc


def _evaluate_all(
    instance: Instance,
    algorithms: Sequence[AlgorithmSpec],
    scheduler: str,
    oracle: str,
    node_budget: int,
) -> list[float]:
    """:func:`_instance_makespans` over :func:`oracle_value`, which is computed
    after the algorithms; an exhausted node budget names the instance."""
    with _budget_failure_names(f"instance name={instance.name!r} seed={instance.seed!r}"):
        makespans = _instance_makespans(instance, algorithms, scheduler, node_budget)
        ref = oracle_value(instance, oracle, node_budget)
    return [alg / ref for alg in makespans]


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
    :func:`oracle_value` (see :func:`_instance_makespans`).
    """
    spec = parse_algorithm(algorithm)
    return _evaluate_all(instance, [spec], scheduler, oracle, node_budget)[0]


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _default_algorithms() -> tuple[AlgorithmSpec, ...]:
    return (
        AlgorithmSpec("one-consistent"),
        AlgorithmSpec("ipr", alpha=0.5, rho=4.0),
        AlgorithmSpec("lpt"),
    )


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

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be at least 1")
        if self.err_sigma < 0.0:
            raise ValueError("err_sigma must be non-negative")
        if self.sweep_param not in SWEEP_PARAMS:
            raise ValueError(f"sweep_param must be one of {SWEEP_PARAMS}")
        if self.instances_per_point < 1:
            raise ValueError("instances_per_point must be at least 1")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"scheduler must be one of {SCHEDULERS}")
        if self.oracle not in ORACLES:
            raise ValueError(f"oracle must be one of {ORACLES}")
        if not self.algorithms:
            object.__setattr__(self, "algorithms", _default_algorithms())
        else:
            object.__setattr__(
                self, "algorithms", tuple(parse_algorithm(a) for a in self.algorithms)
            )
        labels = [a.label for a in self.algorithms]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate algorithm labels: {labels}")
        if self.sweep_values is not None:
            object.__setattr__(
                self, "sweep_values", tuple(float(v) for v in self.sweep_values)
            )

    def resolved_sweep_values(self) -> tuple[float, ...]:
        if self.sweep_values is not None:
            return self.sweep_values
        if self.sweep_param == "err_sigma":
            mu = self.speed_dist.mean
            return tuple(i * mu / 10.0 for i in range(11))
        raise ValueError(f"sweep_values must be given for sweep_param={self.sweep_param!r}")

    def synthetic_config_at(self, value: float, seed: int) -> SyntheticConfig:
        n, m = self.n, self.m
        job_dist, speed_dist = self.job_dist, self.speed_dist
        err_sigma = self.err_sigma
        if self.sweep_param == "err_sigma":
            err_sigma = value
        elif self.sweep_param in ("n", "m"):
            if value != int(value) or int(value) < 1:
                raise ValueError(f"swept {self.sweep_param} must be a positive integer, got {value}")
            if self.sweep_param == "n":
                n = int(value)
            else:
                m = int(value)
        elif self.sweep_param == "sigma_p":
            if job_dist.kind != "normal":
                raise ValueError("sigma_p sweep requires a normal job distribution")
            job_dist = Dist.normal(job_dist.a, value)
        else:  # sigma_s
            if speed_dist.kind != "normal":
                raise ValueError("sigma_s sweep requires a normal speed distribution")
            speed_dist = Dist.normal(speed_dist.a, value)
        return SyntheticConfig(
            n=n, m=m, job_dist=job_dist, speed_dist=speed_dist, err_sigma=err_sigma, seed=seed
        )

    @classmethod
    def from_json_dict(cls, doc: object) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValueError("experiment config must be a JSON object")
        known = {
            "n", "m", "job_dist", "speed_dist", "err_sigma", "sweep_param",
            "sweep_values", "algorithms", "instances_per_point", "scheduler",
            "oracle", "seed", "node_budget",
        }
        extra = doc.keys() - known
        if extra:
            raise ValueError(f"unknown experiment config keys: {sorted(extra)}")
        kwargs: dict = {}
        for key in ("n", "m", "err_sigma", "sweep_param", "instances_per_point",
                    "scheduler", "oracle", "seed", "node_budget"):
            if key in doc:
                kwargs[key] = doc[key]
        if "job_dist" in doc:
            kwargs["job_dist"] = Dist.from_json_dict(doc["job_dist"])
        if "speed_dist" in doc:
            kwargs["speed_dist"] = Dist.from_json_dict(doc["speed_dist"])
        if doc.get("sweep_values") is not None:
            kwargs["sweep_values"] = tuple(doc["sweep_values"])
        if "algorithms" in doc:
            kwargs["algorithms"] = tuple(parse_algorithm(a) for a in doc["algorithms"])
        return cls(**kwargs)


@dataclass(frozen=True)
class ExperimentRow:
    sweep_param: str
    sweep_value: float
    algorithm: str
    mean_ratio: float
    std_ratio: float
    n_instances: int
    oracle_kind: str


EXPERIMENT_CSV_HEADER = tuple(f.name for f in fields(ExperimentRow))


def _seed_ratios(config: ExperimentConfig, inst_seed: int) -> Iterator[list[float]]:
    """The ratios of every algorithm on the instances of seed ``inst_seed``, one
    list per sweep point, in sweep order.

    The seed's instances share the same jobs and true speeds at every sweep
    point that does not change them, so one memo of ``solves``, kept for the
    whole seed, solves each scheduling subproblem (oracle, prediction-trusting
    partition, stage two) and each LPT partition once.  With the exact
    oracle, any ratio below ``1 - 1e-9`` aborts loudly — it would mean the
    oracle is not an oracle.  An exhausted node budget names the sweep point
    and the seed.
    """
    solves: dict[tuple, Any] = {}
    for value in config.resolved_sweep_values():
        instance = gen_synthetic(config.synthetic_config_at(value, inst_seed))
        with _budget_failure_names(f"{config.sweep_param}={value} seed={inst_seed}"):
            ref = oracle_value(instance, config.oracle, config.node_budget, solves)
            makespans = _instance_makespans(
                instance,
                config.algorithms,
                config.scheduler,
                config.node_budget,
                lambda spec: (
                    f"{config.sweep_param}={value}, algorithm={spec.label}, seed={inst_seed}"
                ),
                solves,
            )
        ratios = [alg / ref for alg in makespans]
        for ratio in ratios:
            if config.oracle == "exact" and ratio < 1.0 - 1e-9:
                raise RuntimeError(
                    f"ratio {ratio} below 1 with exact oracle "
                    f"({config.sweep_param}={value}, seed={inst_seed}); solver bug"
                )
        yield ratios


def _completed_points(
    config: ExperimentConfig, first_failure: Any, inst_seed: int
) -> list[list[float]]:
    """:func:`_seed_ratios` over the sweep points a serial run reaches.

    A serial run goes sweep point by sweep point, and seed by seed within a
    point, so instance ``(point, rep)`` has the serial index
    ``point * instances_per_point + rep``.  ``first_failure.value``, shared
    by all seeds, is the lowest index known to fail; this seed stops before
    any point past it, and a failure here lowers it.  The error itself is
    dropped: it would not survive the trip back from a worker process
    (pickling loses ``BudgetExceededError.nodes_explored`` and
    ``__cause__``).
    """
    rep = inst_seed - config.seed
    points = _seed_ratios(config, inst_seed)
    done: list[list[float]] = []
    for point in range(len(config.resolved_sweep_values())):
        index = point * config.instances_per_point + rep
        if index > first_failure.value:
            break
        try:
            done.append(next(points))
        except Exception:
            with first_failure.get_lock():
                first_failure.value = min(first_failure.value, index)
            break
    return done


_worker_task: Callable[[Any], Any] | None = None  # set in each worker process


def _start_worker(task: Callable[[Any], Any]) -> None:
    global _worker_task
    _worker_task = task


def _run_worker_task(item: Any) -> Any:
    return _worker_task(item)


def _map_tasks(
    task: Callable[[Any, Any], Any], items: Sequence[Any], no_failure: int
) -> tuple[list[Any], int]:
    """``task(first_failure, item)`` for every item, results in item order,
    and the final ``first_failure.value``, which starts at ``no_failure``.

    The items run on a pool of workers forked from this process, one per CPU
    it may use and at most one per item, which share ``first_failure`` and
    take the items in order.  With one such CPU, where ``fork`` is
    unavailable, or when this process runs other threads (a forked child
    would inherit the locks they hold, held forever), they run here, in
    order, and no process is started.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(items))
    if workers > 1 and threading.active_count() == 1:
        # Imported here, not at module level: they slow every import.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
            first_failure = ctx.Value("q", no_failure)
            # The workers inherit the task and the shared value when forked;
            # neither could be pickled with each item.  A worker that dies
            # raises BrokenProcessPool here instead of leaving the run hung.
            with ProcessPoolExecutor(
                workers,
                mp_context=ctx,
                initializer=_start_worker,
                initargs=(functools.partial(task, first_failure),),
            ) as pool:
                results = list(pool.map(_run_worker_task, items))
            return results, first_failure.value
    first_failure = SimpleNamespace(value=no_failure, get_lock=contextlib.nullcontext)
    results = [task(first_failure, item) for item in items]
    return results, first_failure.value


def run_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    """Evaluate every (sweep point, algorithm) cell; deterministic given config.

    Each instance seed goes through every sweep point in :func:`_seed_ratios`,
    and each instance through :func:`_instance_makespans`, so its
    prediction-trusting partition is solved once for all algorithms.  The
    seeds run in parallel on the CPUs this process may use (see
    :func:`_map_tasks`); ``taskset -c 0`` gives a serial run in this process.
    Either way the rows are the same: means and sample standard deviations
    are added in seed order, so the CSV bytes do not depend on the number of
    CPUs.  A failure raises the error that a serial run over sweep points,
    and seeds within a point, meets first: the seeds stop short of the sweep
    points such a run would not reach, and the failing seed runs again here
    to raise it.
    """
    values = config.resolved_sweep_values()
    seeds = [config.seed + rep for rep in range(config.instances_per_point)]
    no_failure = len(values) * len(seeds)
    results, first_failure = _map_tasks(
        functools.partial(_completed_points, config), seeds, no_failure
    )
    if first_failure < no_failure:
        point, rep = divmod(first_failure, len(seeds))
        for _ in _seed_ratios(config, seeds[rep]):
            pass
        raise RuntimeError(
            f"seed {seeds[rep]} failed at sweep point {values[point]} but not when run again"
        )
    rows: list[ExperimentRow] = []
    for point, value in enumerate(values):
        for j, spec in enumerate(config.algorithms):
            values_list = [done[point][j] for done in results]
            mean = left_sum(values_list) / len(values_list)
            if len(values_list) > 1:
                var = left_sum((x - mean) ** 2 for x in values_list) / (len(values_list) - 1)
                std = math.sqrt(var)
            else:
                std = 0.0
            rows.append(
                ExperimentRow(
                    sweep_param=config.sweep_param,
                    sweep_value=value,
                    algorithm=spec.label,
                    mean_ratio=mean,
                    std_ratio=std,
                    n_instances=len(values_list),
                    oracle_kind=config.oracle,
                )
            )
    return rows


def csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """CSV text: ``header``, then one line per row of ``rows``, each line ending
    in a bare newline.  Floats are written as their ``repr``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def rows_to_csv(rows: Sequence[ExperimentRow]) -> str:
    return csv_text(EXPERIMENT_CSV_HEADER, map(astuple, rows))


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


CURVES_CSV_HEADER = tuple(f.name for f in fields(CurveRow))


def theory_curves(alphas: Sequence[float]) -> list[CurveRow]:
    """Guarantee envelopes per alpha: consistency ``1 + a``; worst-case ratio
    ``2 + 2/a`` in general, ``2 + 1/a`` for equal-size jobs, ``1 + 1/a`` for
    infinitesimal jobs."""
    rows = []
    for a in alphas:
        a = float(a)
        IprConfig(alpha=a)  # validates the range
        rows.append(
            CurveRow(
                alpha=a,
                consistency=1.0 + a,
                robustness_general=2.0 + 2.0 / a,
                robustness_equal_jobs=2.0 + 1.0 / a,
                robustness_fluid=1.0 + 1.0 / a,
            )
        )
    return rows


def curves_to_csv(rows: Sequence[CurveRow]) -> str:
    return csv_text(CURVES_CSV_HEADER, map(astuple, rows))


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


@dataclass(frozen=True)
class MetricsReport:
    """The property verdicts of one :func:`verify_properties` run."""

    properties: tuple[PropertyCheck, ...] = ()

    @property
    def all_passed(self) -> bool:
        return all(p.ok for p in self.properties)

    def to_json_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "properties": [
                {
                    "name": p.name,
                    "passed": p.passed,
                    "trials": p.trials,
                    "counterexample": p.counterexample,
                }
                for p in self.properties
            ],
        }


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
        instance = Instance(
            jobs=(1.0,) * n,
            true_speeds=instance.true_speeds,
            predicted_speeds=instance.predicted_speeds,
            name=f"unit-{instance.name}",
            seed=instance.seed,
        )
    return instance


class _Recorder:
    """Per-property pass counting with first-counterexample capture."""

    def __init__(self) -> None:
        self._acc: dict[str, list] = {}
        self._order: list[str] = []

    def record(self, name: str, ok: bool, detail: Callable[[], str]) -> None:
        if name not in self._acc:
            self._acc[name] = [0, 0, None]
            self._order.append(name)
        entry = self._acc[name]
        entry[1] += 1
        if ok:
            entry[0] += 1
        elif entry[2] is None:
            entry[2] = detail()

    def checks(self) -> list[PropertyCheck]:
        return [
            PropertyCheck(name=n, passed=e[0], trials=e[1], counterexample=e[2])
            for n, e in ((n, self._acc[n]) for n in self._order)
        ]


def _dump(instance: Instance, extra: str = "") -> str:
    text = instance_to_json(instance).strip()
    return f"{extra + '; ' if extra else ''}instance: {text}"


def _check_generator(rec: _Recorder, seed: int, trials: int, node_budget: int) -> None:
    """Generated instances are valid: eta >= 1 and every job at the floor."""
    rng = substream(seed, 101)
    for _ in range(trials):
        inst = random_small_instance(rng)
        ok = True
        detail = ""
        try:
            eta = prediction_error(inst.predicted_speeds, inst.true_speeds)
            ok = eta >= 1.0 and all(p >= 1e-3 for p in inst.jobs)
            detail = f"eta={eta}"
        except ValueError as exc:
            ok, detail = False, str(exc)
        rec.record("gen-valid-instances", ok, lambda i=inst, d=detail: _dump(i, d))


def _check_lpt_partition(rec: _Recorder, seed: int, trials: int, node_budget: int) -> None:
    """LPT partition balance, the min-bag bound and eta symmetry."""
    rng = substream(seed, 102)
    for _ in range(trials):
        inst = random_small_instance(rng)
        part = lpt_partition(inst.jobs, inst.m)
        beta = beta_ratio(part, inst.jobs)
        rec.record(
            "lpt-partition-beta-le-2",
            _le(beta, 2.0),
            lambda i=inst, b=beta: _dump(i, f"beta={b}"),
        )
        loads = [bag_load(b, inst.jobs) for b in part.bags]
        all_ratio_ok = min(loads) > 0.0 and max(loads) <= 2.0 * min(loads)
        if all_ratio_ok:
            bound = sum(inst.jobs) / (2 * inst.m - 1)
            rec.record(
                "balanced-min-bag-load",
                _le(bound, min(loads)),
                lambda i=inst, lo=min(loads), bd=bound: _dump(i, f"min={lo} bound={bd}"),
            )
        else:
            rec.record("balanced-min-bag-load", True, lambda: "")
        eta_ab = prediction_error(inst.predicted_speeds, inst.true_speeds)
        eta_ba = prediction_error(inst.true_speeds, inst.predicted_speeds)
        rec.record(
            "prediction-error-symmetric",
            math.isclose(eta_ab, eta_ba, rel_tol=1e-9),
            lambda i=inst, x=eta_ab, y=eta_ba: _dump(i, f"eta={x} vs {y}"),
        )


def _check_ipr_trace(rec: _Recorder, seed: int, trials: int, node_budget: int) -> None:
    """The ``ipr`` trace with rho = 4: monotone b_min, at most m^2
    iterations, beta within the robust bound."""
    rng = substream(seed, 103)
    for t in range(trials):
        inst = random_small_instance(rng)
        alpha = _ALPHA_CYCLE[t % len(_ALPHA_CYCLE)]
        initial = consistent_partition(inst.jobs, inst.predicted_speeds, "exact", node_budget)
        result = ipr(inst.jobs, inst.predicted_speeds, IprConfig(alpha=alpha, rho=4.0), initial)
        state = result.state
        hist = state.b_min_history
        start = next((i for i, v in enumerate(hist) if v > 0.0), len(hist))
        monotone = all(_le(hist[i], hist[i + 1]) for i in range(start, len(hist) - 1))
        rec.record(
            "ipr-bmin-monotone-rho4",
            monotone,
            lambda i=inst, h=hist, a=alpha: _dump(i, f"alpha={a} history={h}"),
        )
        rec.record(
            "ipr-iterations-le-m-squared",
            state.iterations <= inst.m * inst.m,
            lambda i=inst, it=state.iterations: _dump(i, f"iterations={it}"),
        )
        beta = beta_ratio(result.partition, inst.jobs)
        rec.record(
            "ipr-beta-le-robust-bound",
            _le(beta, 2.0 + 2.0 / alpha),
            lambda i=inst, b=beta, a=alpha: _dump(i, f"alpha={a} beta={b}"),
        )
        validate_partition(result.partition, inst.n, inst.m)


def _check_perfect_predictions(rec: _Recorder, seed: int, trials: int, node_budget: int) -> None:
    """Consistency: under perfect predictions ``ipr`` stays within
    ``(1 + alpha)`` of the prediction-trusting makespan."""
    rng = substream(seed, 104)
    for t in range(trials):
        base = random_small_instance(rng)
        inst = Instance(
            jobs=base.jobs,
            true_speeds=base.true_speeds,
            predicted_speeds=base.true_speeds,
            name=base.name,
            seed=base.seed,
        )
        initial = consistent_partition(inst.jobs, inst.predicted_speeds, "exact", node_budget)
        for alpha in _ALPHA_CYCLE:
            result = ipr(inst.jobs, inst.predicted_speeds, IprConfig(alpha=alpha, rho=4.0), initial)
            speeds_desc = sorted(inst.predicted_speeds, reverse=True)
            final = max(
                sum(bag_load(b, inst.jobs) for b in coll) / s
                for coll, s in zip(result.state.assignment.collections, speeds_desc)
            )
            bound = (1.0 + alpha) * result.state.opt_c_bar
            rec.record(
                "ipr-consistency-guard",
                _le(final, bound),
                lambda i=inst, f=final, bd=bound, a=alpha: _dump(
                    i, f"alpha={a} makespan={f} bound={bd}"
                ),
            )


def _check_adversarial_speeds(rec: _Recorder, seed: int, trials: int, node_budget: int) -> None:
    """Robustness: ``ipr`` at alpha = 0.5 within ratio 6 on adversarial true
    speeds."""
    rng = substream(seed, 105)
    for _ in range(trials):
        base = random_small_instance(rng)
        adversarial = tuple(
            max(40.0 * rng.next_float(), 1e-3) for _ in range(base.m)
        )
        inst = Instance(
            jobs=base.jobs,
            true_speeds=adversarial,
            predicted_speeds=base.predicted_speeds,
            name=f"adversarial-{base.name}",
            seed=base.seed,
        )
        ratio = evaluate(inst, AlgorithmSpec("ipr", alpha=0.5, rho=4.0), "exact", "exact", node_budget)
        rec.record(
            "ipr-robust-ratio-le-6",
            _le(ratio, 6.0),
            lambda i=inst, r=ratio: _dump(i, f"ratio={r}"),
        )


def _check_unit_jobs(rec: _Recorder, seed: int, trials: int, node_budget: int) -> None:
    """Unit jobs with rho = 2: the equal-size beta bound and monotone b_min."""
    rng = substream(seed, 106)
    for t in range(trials):
        inst = random_small_instance(rng, unit_jobs=True)
        alpha = _ALPHA_CYCLE[t % len(_ALPHA_CYCLE)]
        initial = consistent_partition(inst.jobs, inst.predicted_speeds, "exact", node_budget)
        result = ipr(inst.jobs, inst.predicted_speeds, IprConfig(alpha=alpha, rho=2.0), initial)
        beta = beta_ratio(result.partition, inst.jobs)
        rec.record(
            "unit-ipr-rho2-beta-bound",
            _le(beta, 2.0 + 1.0 / alpha),
            lambda i=inst, b=beta, a=alpha: _dump(i, f"alpha={a} beta={b}"),
        )
        hist = result.state.b_min_history
        start = next((i for i, v in enumerate(hist) if v > 0.0), len(hist))
        rec.record(
            "unit-ipr-rho2-bmin-monotone",
            all(_le(hist[i], hist[i + 1]) for i in range(start, len(hist) - 1)),
            lambda i=inst, h=hist: _dump(i, f"history={h}"),
        )


def _check_fluid(rec: _Recorder, seed: int, trials: int, node_budget: int) -> None:
    """The fluid variant: balance bound with rho = 2, and load conserved."""
    rng = substream(seed, 107)
    for t in range(trials):
        m = 2 + rng.next_u64() % 3
        speeds = [max(40.0 * rng.next_float(), 1e-3) for _ in range(m)]
        total = 1.0 + 999.0 * rng.next_float()
        alpha = _ALPHA_CYCLE[t % len(_ALPHA_CYCLE)]
        loads = fluid_ipr(total, speeds, alpha, rho=2.0)
        ok_ratio = _le(max(loads), (1.0 + 1.0 / alpha) * min(loads))
        rec.record(
            "fluid-rho2-balance-bound",
            ok_ratio,
            lambda s=speeds, ld=loads, a=alpha: f"alpha={a} speeds={s} loads={ld}",
        )
        rec.record(
            "fluid-conserves-load",
            math.isclose(sum(loads), total, rel_tol=1e-9),
            lambda s=speeds, ld=loads, w=total: f"speeds={s} loads={ld} total={w}",
        )


def _check_all_or_nothing(rec: _Recorder, seed: int, trials: int, node_budget: int) -> None:
    """All-or-nothing speeds: the stage-one bag bound and the merge lemma."""
    rng = substream(seed, 108)
    for _ in range(trials):
        n = 1 + rng.next_u64() % 12
        m = 1 + rng.next_u64() % 5
        m_hat = 1 + rng.next_u64() % m
        m_zero = 1 + rng.next_u64() % m
        dist = Dist.uniform(0.0, 100.0)
        jrng = SplitMix64(rng.next_u64())
        jobs = [max(dist.sample(jrng), 1e-3) for _ in range(n)]
        # Up to three solves on identical machines (m_hat, m and m_zero of
        # them), one per distinct machine count.
        solves: dict[tuple, Any] = {}
        part = binary_speed_partition(jobs, m, m_hat, "exact", node_budget, solves)
        loads = [bag_load(b, jobs) for b in part.bags]
        opt_m = schedule(jobs, [1.0] * m, "exact", node_budget, solves).makespan
        rec.record(
            "binary-stage1-max-bag-le-2opt",
            _le(max(loads), 2.0 * opt_m),
            lambda j=jobs, ld=loads, o=opt_m: f"jobs={j} loads={ld} opt_m={o}",
        )
        merged = merge_to_fit(loads, m_zero)
        alg = max(merged) if merged else 0.0
        opt0 = schedule(jobs, [1.0] * m_zero, "exact", node_budget, solves).makespan
        rec.record(
            "binary-merge-ratio-le-2",
            _le(alg, 2.0 * opt0),
            lambda j=jobs, a=alg, o=opt0, mm=(m, m_hat, m_zero): (
                f"(m,m_hat,m_zero)={mm} jobs={j} alg={a} opt={o}"
            ),
        )
        rec.record(
            "merge-preserves-total",
            math.isclose(sum(merged), sum(loads), rel_tol=1e-9)
            and (not merged or max(merged) >= max(loads) - 1e-9 * max(1.0, max(loads))),
            lambda ld=loads, mg=merged: f"loads={ld} merged={mg}",
        )


def _check_capacity(rec: _Recorder, seed: int, trials: int, node_budget: int) -> None:
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
            rec.record(
                "capacity-certificate",
                ok,
                lambda i=inst, d=detail, p=part: _dump(i, f"{d} bags={p.bags}"),
            )


def _check_oracle_agreement(rec: _Recorder, seed: int, trials: int, node_budget: int) -> None:
    """The exact solver against enumeration, LPT and the lower bound."""
    rng = substream(seed, 110)
    for _ in range(trials):
        inst = random_small_instance(rng, n_max=8, m_max=3)
        exact = exact_schedule(inst.jobs, inst.true_speeds, node_budget)
        greedy = lpt_schedule(inst.jobs, inst.true_speeds)
        brute = brute_force_makespan(inst.jobs, inst.true_speeds)
        rec.record(
            "exact-matches-enumeration",
            math.isclose(exact.makespan, brute, rel_tol=1e-12, abs_tol=1e-12),
            lambda i=inst, e=exact.makespan, b=brute: _dump(i, f"exact={e} brute={b}"),
        )
        rec.record(
            "exact-le-lpt",
            exact.makespan <= greedy.makespan * (1.0 + 1e-12),
            lambda i=inst, e=exact.makespan, g=greedy.makespan: _dump(i, f"exact={e} lpt={g}"),
        )
        rec.record(
            "lower-bound-le-exact",
            opt_lower_bound(inst.jobs, inst.true_speeds) <= exact.makespan * (1.0 + 1e-12),
            lambda i=inst: _dump(i),
        )


def _check_families(rec: _Recorder, seed: int, trials: int, node_budget: int) -> None:
    """The fixed trap, tradeoff and binary lower-bound families (no seed, no
    trials)."""
    for m in (2, 3):
        for n in range(m + 1, 13):
            inst = gen_prop1_instance(n, m)
            expected = (n - m + 1) / math.ceil(n / m)
            ratio = evaluate(inst, "one-consistent", "exact", "exact", node_budget)
            rec.record(
                "trap-family-exact-ratio",
                math.isclose(ratio, expected, rel_tol=1e-9),
                lambda i=inst, r=ratio, e=expected: _dump(i, f"ratio={r} expected={e}"),
            )
    for m in (2, 3, 4):
        inst = gen_tradeoff_instance(m)
        specs = [AlgorithmSpec("ipr", alpha=alpha, rho=4.0) for alpha in _ALPHA_CYCLE]
        ratios = _evaluate_all(inst, specs, "exact", "exact", node_budget)
        for alpha, ratio in zip(_ALPHA_CYCLE, ratios):
            rec.record(
                "tradeoff-family-ipr-bound",
                _le(ratio, 2.0 + 2.0 / alpha),
                lambda i=inst, r=ratio, a=alpha: _dump(i, f"alpha={a} ratio={r}"),
            )
    for k in (1, 2, 3):
        inst = gen_binary_lb_instance(k)
        ratio = evaluate(inst, "one-consistent", "exact", "exact", node_budget)
        rec.record(
            "binary-family-benchmark-floor",
            ratio >= 4.0 / 3.0 - 1e-9,
            lambda i=inst, r=ratio: _dump(i, f"ratio={r}"),
        )


_VerifySection = Callable[[_Recorder, int, int, int], None]

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
# time of ``verify --trials 20`` over seeds 0-11, largest first (26%, 19%,
# 17%, 14%, 12%, 7%, then 2% or less each), so that no long section starts
# last.
_HEAVIEST_FIRST: tuple[_VerifySection, ...] = (
    _check_perfect_predictions,
    _check_adversarial_speeds,
    _check_oracle_agreement,
    _check_all_or_nothing,
    _check_capacity,
    _check_ipr_trace,
    _check_families,
    _check_unit_jobs,
    _check_lpt_partition,
    _check_generator,
    _check_fluid,
)


def _section_checks(
    seed: int, trials: int, node_budget: int, first_failure: Any, section: _VerifySection
) -> list[PropertyCheck]:
    """The checks of one verify section, or none when it does not complete.

    ``first_failure.value``, shared by all sections, is the report position
    of the earliest section known to raise; a section past it is skipped, and
    a section that raises lowers it.  As in :func:`_completed_points`, the
    error itself is dropped.
    """
    position = _VERIFY_SECTIONS.index(section)
    if position > first_failure.value:
        return []
    rec = _Recorder()
    try:
        section(rec, seed, trials, node_budget)
    except Exception:
        with first_failure.get_lock():
            first_failure.value = min(first_failure.value, position)
        return []
    return rec.checks()


def verify_properties(
    seed: int = 0,
    trials: int = 200,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> MetricsReport:
    """Check every structural property over ``trials`` random small instances
    each, plus the fixed adversarial families.  Failures are reported as data
    (pass counts + first counterexample), never raised.

    The properties come in sections, each with its own random substream of
    ``seed`` (see ``_VERIFY_SECTIONS``), which run in parallel on the CPUs
    this process may use, heaviest first (see :func:`_map_tasks`);
    ``taskset -c 0`` gives a serial run in this process.  The report lists
    the sections' checks in report order, so it does not depend on the
    number of CPUs.  An error a section raises (an exhausted node budget, an
    invalid partition) is the one a serial run in report order meets first:
    later sections are skipped, and the earliest failing section runs again
    here to raise it, an exhausted node budget naming the section and seed.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    no_failure = len(_VERIFY_SECTIONS)
    results, first_failure = _map_tasks(
        functools.partial(_section_checks, seed, trials, node_budget), _HEAVIEST_FIRST, no_failure
    )
    if first_failure < no_failure:
        section = _VERIFY_SECTIONS[first_failure]
        where = f"verify section {section.__name__.removeprefix('_check_')} seed={seed}"
        with _budget_failure_names(where):
            section(_Recorder(), seed, trials, node_budget)
        raise RuntimeError(f"{where} failed but not when run again")
    checks = dict(zip(_HEAVIEST_FIRST, results))
    return MetricsReport(properties=tuple(c for s in _VERIFY_SECTIONS for c in checks[s]))
