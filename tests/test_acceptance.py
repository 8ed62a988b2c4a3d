"""Acceptance gate: the ten release criteria, one test per criterion.

Each test prints a single ``[criterion NN] PASS/FAIL: ...`` line with the
measured numbers (visible with ``pytest -s``) and then asserts.  The heavy
shared work — the 1000-trial property-verification run and the full default
experiment sweep — happens once per module in fixtures.
"""

import hashlib
import time

import pytest

from speedsched import cli
from speedsched.gen import gen_binary_lb_instance, gen_prop1_instance
from speedsched.harness import (
    AlgorithmSpec,
    ExperimentConfig,
    ExperimentRow,
    evaluate,
    run_experiment,
    verify_properties,
)

VERIFY_TRIALS = 1000
# sha256 of the default sweep's CSV (`speedsched experiment` with no config).
DEFAULT_CSV_SHA256 = "286e946f6b7658b003d2c0fd27506ff611628d24103917d6527dc858ffea32b8"


@pytest.fixture(scope="module")
def verify_report():
    t0 = time.perf_counter()
    report = verify_properties(seed=0, trials=VERIFY_TRIALS)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def default_experiment():
    t0 = time.perf_counter()
    rows = run_experiment(ExperimentConfig())
    return rows, time.perf_counter() - t0


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:02d}] {status}: {detail}")
    assert ok, f"criterion {criterion:02d}: {detail}"


def _prop(report, name: str):
    for p in report:
        if p.name == name:
            return p
    raise AssertionError(f"property {name!r} missing from verification report")


def _fmt(p) -> str:
    return f"{p.name} {p.passed}/{p.trials}"


def test_criterion_01_trap_family_exact_ratios():
    """The fixed consistency-trap instance separates the benchmarks exactly:
    full prediction trust pays 1.8, the rebalancing algorithm recovers 1.0."""
    t0 = time.perf_counter()
    inst = gen_prop1_instance(10, 2)
    trusting = evaluate(inst, "one-consistent")
    rebalanced = evaluate(inst, AlgorithmSpec("ipr", alpha=0.5, rho=4.0))
    elapsed = time.perf_counter() - t0
    ok = (
        abs(trusting - 1.8) <= 1e-9
        and abs(rebalanced - 1.0) <= 1e-9
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"one-consistent={trusting!r} (want 1.8), "
        f"ipr={rebalanced!r} (want 1.0), {elapsed:.3f}s (< 1s)",
    )


def test_criterion_02_consistency_guard_holds(verify_report):
    """With exact predictions, the rebalanced assignment's predicted-speed
    makespan stays within (1+alpha) of optimal for alpha in {0.25, 0.5, 0.75}."""
    report, elapsed = verify_report
    p = _prop(report, "ipr-consistency-guard")
    ok = p.ok and p.trials >= 1500 and elapsed < 120.0
    _report(2, ok, f"{_fmt(p)} (>= 500 instances x 3 alphas), {elapsed:.1f}s (< 120s)")


def test_criterion_03_robustness_bound_holds(verify_report):
    """Against adversarial true speeds, the alpha=0.5 rebalanced bags scheduled
    exactly never exceed ratio 2 + 2/alpha = 6."""
    report, elapsed = verify_report
    p = _prop(report, "ipr-robust-ratio-le-6")
    ok = p.ok and p.trials >= 500 and elapsed < 300.0
    _report(3, ok, f"{_fmt(p)} (>= 500 pairs), {elapsed:.1f}s (< 300s)")


def test_criterion_04_structural_invariants(verify_report):
    """Partition-shape invariants, 1000 randomized trials each: the greedy
    baseline's balance ratio is at most 2; the smallest bag load never shrinks
    once every bag is non-empty; the rebalance loop terminates within m^2
    attempts; the final balance ratio respects 2 + 2/alpha; balanced
    partitions keep every bag at least the fluid fair share of 1/(2m-1)."""
    report, _ = verify_report
    names = (
        "lpt-partition-beta-le-2",
        "ipr-bmin-monotone-rho4",
        "ipr-iterations-le-m-squared",
        "ipr-beta-le-robust-bound",
        "balanced-min-bag-load",
    )
    props = [_prop(report, name) for name in names]
    ok = all(p.ok and p.trials >= 1000 for p in props)
    _report(4, ok, "; ".join(_fmt(p) for p in props))


def test_criterion_05_special_case_bounds(verify_report):
    """Tighter regimes: equal-size jobs with rho=2 keep the balance ratio
    within 2 + 1/alpha; the divisible-load variant with rho=2 keeps max/min
    load within 1 + 1/alpha."""
    report, _ = verify_report
    unit = _prop(report, "unit-ipr-rho2-beta-bound")
    fluid = _prop(report, "fluid-rho2-balance-bound")
    ok = unit.ok and fluid.ok and unit.trials >= 500 and fluid.trials >= 500
    _report(5, ok, f"{_fmt(unit)}; {_fmt(fluid)}")


def test_criterion_06_binary_speed_bounds(verify_report):
    """All-or-nothing speeds: the two-level split plus merge scheduling stays
    within ratio 2 of the usable-machine optimum; and the fixed lower-bound
    family forces the prediction-trusting benchmark to at least 4/3."""
    report, _ = verify_report
    p = _prop(report, "binary-merge-ratio-le-2")
    floor_ratio = evaluate(gen_binary_lb_instance(2), "one-consistent")
    # The family's prediction is every machine usable, so the binary
    # algorithm forms the same bags and meets the same floor.
    binary_ratio = evaluate(gen_binary_lb_instance(2), "binary")
    ok = p.ok and p.trials >= 300 and floor_ratio >= 4.0 / 3.0 - 1e-9
    ok = ok and binary_ratio == floor_ratio
    _report(6, ok, f"{_fmt(p)} (>= 300 tuples); lb-family ratio={floor_ratio!r} (>= 4/3), "
                   f"binary {binary_ratio!r}")


def test_criterion_07_capacity_certificate(verify_report):
    """The capacity-based bag scheduler always finds a placement and lands
    within max(2, beta) of the job-level optimum."""
    report, _ = verify_report
    p = _prop(report, "capacity-certificate")
    ok = p.ok and p.trials >= 300
    _report(7, ok, f"{_fmt(p)} (>= 300 partitions)")


def test_criterion_08_experiment_trends(default_experiment):
    """Desk-scale sweep (n=12, m=4, exact oracle, 100 instances/point): with
    exact predictions the trusting benchmark is the best curve; at error scale
    mu_s it is worse than the speed-oblivious baseline; and at both endpoints
    the rebalancing algorithm stays inside the band the two benchmarks span."""
    rows, elapsed = default_experiment
    values = [value for value, _ in ExperimentConfig().points]
    sigma_lo, sigma_hi = values[0], values[-1]
    cell = {(r.sweep_value, r.algorithm): r.mean_ratio for r in rows}
    oc_lo = cell[(sigma_lo, "one-consistent")]
    oc_hi = cell[(sigma_hi, "one-consistent")]
    ipr_lo = cell[(sigma_lo, "ipr(alpha=0.5,rho=4)")]
    ipr_hi = cell[(sigma_hi, "ipr(alpha=0.5,rho=4)")]
    lpt_lo = cell[(sigma_lo, "lpt")]
    lpt_hi = cell[(sigma_hi, "lpt")]

    check1 = oc_lo <= ipr_lo + 1e-9 and oc_lo <= lpt_lo + 1e-9
    check2 = oc_hi > lpt_hi
    band = (oc_lo, oc_hi, lpt_lo, lpt_hi)
    band_lo, band_hi = min(band), max(band)
    check3 = all(
        band_lo - 1e-9 <= v <= band_hi + 1e-9 for v in (ipr_lo, ipr_hi)
    )
    ok = check1 and check2 and check3 and elapsed < 600.0
    _report(
        8,
        ok,
        f"sigma=0: oc={oc_lo:.4f} ipr={ipr_lo:.4f} lpt={lpt_lo:.4f} | "
        f"sigma={sigma_hi:g}: oc={oc_hi:.4f} ipr={ipr_hi:.4f} lpt={lpt_hi:.4f} | "
        f"best-at-zero={check1} trusting-overtaken={check2} "
        f"ipr-in-band={check3} | {elapsed:.1f}s (< 600s)",
    )


def test_criterion_09_exact_solver_oracle_equivalence(verify_report):
    """The branch-and-bound optimum equals full enumeration on every random
    small instance (<= 8 items, <= 3 machines)."""
    report, _ = verify_report
    p = _prop(report, "exact-matches-enumeration")
    ok = p.ok and p.trials >= 200
    _report(9, ok, f"{_fmt(p)} (>= 200 trials)")


def test_criterion_10_deterministic_csv(default_experiment, tmp_path):
    """Re-running the default sweep with the same seed, as plain
    ``speedsched experiment``, reproduces the results CSV byte for byte, and
    those bytes are the recorded ones."""
    rows, _ = default_experiment
    out = tmp_path / "default.csv"
    assert cli.main(["experiment", "--out", str(out)]) == 0
    csv_a = cli._table(ExperimentRow, rows)
    csv_b = out.read_text(encoding="utf-8")
    digest = hashlib.sha256(csv_a.encode()).hexdigest()
    ok = csv_a == csv_b and digest == DEFAULT_CSV_SHA256
    _report(
        10,
        ok,
        f"{len(csv_a)} CSV bytes identical across two runs: {csv_a == csv_b}; "
        f"sha256 {digest[:12]}... (want {DEFAULT_CSV_SHA256[:12]}...)",
    )
