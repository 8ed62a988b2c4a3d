"""Tests for the deterministic PRNG and the instance generators."""

import dataclasses
import math

import pytest

from speedsched.gen import (
    CLAMP_FLOOR,
    Dist,
    SplitMix64,
    SyntheticConfig,
    gen_binary_lb_instance,
    gen_prop1_instance,
    gen_synthetic,
    gen_tradeoff_instance,
    mix64,
    normal_inv_cdf,
    substream,
    synthetic_batch,
)
from speedsched.harness import SWEEP_PARAMS, ExperimentConfig
from speedsched.solvers import exact_schedule


# ---------------------------------------------------------------------------
# PRNG: golden vectors and ranges
# ---------------------------------------------------------------------------


def test_splitmix64_reference_vectors():
    """First outputs of the well-known splitmix64 stream for seed 0."""
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_seed_42():
    rng = SplitMix64(42)
    assert rng.next_u64() == 0xBDD732262FEB6E95
    assert rng.next_u64() == 0x28EFE333B266F103


def test_mix64_golden_value():
    assert mix64(1) == 0x5692161D100B05E5


def test_substream_golden_value():
    assert substream(0, 1).next_u64() == 0x4181B152FB77616F


def test_substreams_are_distinct():
    seen = {substream(0, tag).next_u64() for tag in range(1, 9)}
    assert len(seen) == 8


def test_next_float_golden_values():
    rng = SplitMix64(7)
    assert rng.next_float() == 0.3898297483912715
    assert rng.next_float() == 0.01678829452815611


def test_next_open_float_golden_value():
    assert SplitMix64(7).next_open_float() == 0.38982974839127155


def test_next_open_float_maps_only_the_top_integer_below_one():
    # 2**53 - 1 + 0.5 rounds to 2**53, which would scale to exactly 1.0; that
    # integer alone gives the largest double below 1, and its neighbour keeps
    # its own value.
    assert SplitMix64(17685126244420568887).next_u64() >> 11 == 2**53 - 1
    assert SplitMix64(17685126244420568887).next_open_float() == 1.0 - 2.0**-53
    assert (2**53 - 2 + 0.5) * 2.0**-53 == 1.0 - 2.0**-52


def test_float_ranges():
    rng = SplitMix64(99)
    for _ in range(2000):
        x = rng.next_float()
        assert 0.0 <= x < 1.0
    rng = SplitMix64(99)
    for _ in range(2000):
        x = rng.next_open_float()
        assert 0.0 < x < 1.0


def test_same_seed_same_stream():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


# ---------------------------------------------------------------------------
# normal_inv_cdf
# ---------------------------------------------------------------------------


def erf_inv_cdf_reference(p: float, tol: float = 1e-13) -> float:
    """Slow, independent inverse-normal oracle: bisection on the CDF computed
    from ``math.erf``; the reference :func:`normal_inv_cdf` is checked against."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_normal_inv_cdf_matches_bisection_oracle_on_grid():
    # Grid straddles both rational-approximation branches.
    for p in (0.001, 0.01, 0.02, 0.024, 0.025, 0.1, 0.3, 0.5, 0.7, 0.9, 0.975, 0.99, 0.999):
        ref = erf_inv_cdf_reference(p)
        assert normal_inv_cdf(p) == pytest.approx(ref, abs=2e-7)


def test_normal_inv_cdf_matches_oracle_on_random_points():
    rng = SplitMix64(500)
    for _ in range(200):
        p = rng.next_open_float()
        assert normal_inv_cdf(p) == pytest.approx(erf_inv_cdf_reference(p), abs=2e-7)


def test_normal_inv_cdf_known_quantiles():
    assert normal_inv_cdf(0.5) == pytest.approx(0.0, abs=1e-12)
    assert normal_inv_cdf(0.975) == pytest.approx(1.959963984540054, abs=1e-7)


def test_normal_inv_cdf_antisymmetric():
    for p in (0.01, 0.1, 0.25, 0.4):
        assert normal_inv_cdf(1.0 - p) == pytest.approx(-normal_inv_cdf(p), abs=2e-7)


def test_normal_inv_cdf_rejects_boundaries():
    for p in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            normal_inv_cdf(p)


def test_erf_reference_rejects_boundaries():
    with pytest.raises(ValueError):
        erf_inv_cdf_reference(0.0)
    with pytest.raises(ValueError):
        erf_inv_cdf_reference(1.0)


# ---------------------------------------------------------------------------
# Dist
# ---------------------------------------------------------------------------


def test_dist_constructors_and_mean():
    u = Dist.uniform(0.0, 100.0)
    assert u.mean == 50.0
    n = Dist.normal(20.0, 4.0)
    assert n.mean == 20.0


def test_dist_validation():
    with pytest.raises(ValueError):
        Dist.uniform(5.0, 5.0)
    with pytest.raises(ValueError):
        Dist.uniform(5.0, 1.0)
    with pytest.raises(ValueError):
        Dist.normal(0.0, -1.0)
    with pytest.raises(ValueError):
        Dist("poisson", 1.0, 2.0)


@pytest.mark.parametrize(
    "dist, error",
    [
        (("uniform", -1.7e308, 1.7e308), r"uniform needs a finite hi - lo"),
        (("normal", 1.7e308, 1e307), r"normal needs a finite \|mu\| \+ 8\.29 \* sigma"),
        (("normal", -1.7e308, 1e307), r"normal needs a finite \|mu\| \+ 8\.29 \* sigma"),
        (("normal", 0.0, 1.7e308), r"normal needs a finite \|mu\| \+ 8\.29 \* sigma"),
    ],
)
def test_dist_rejects_parameters_whose_draws_overflow(dist, error):
    with pytest.raises(ValueError, match=error):
        Dist(*dist)


def test_dist_accepts_the_largest_parameters_whose_draws_are_finite():
    # A unit-normal draw lies in [-8.30, 8.21], the inverse CDF at the ends
    # of next_open_float's range.
    assert -8.30 < normal_inv_cdf(2.0**-54) < -8.29 and 8.20 < normal_inv_cdf(1 - 2.0**-53) < 8.21
    for dist in (Dist.uniform(-8e307, 8e307), Dist.normal(1.7e308, 0.0), Dist.normal(0.0, 2e307)):
        for seed in range(20):
            assert math.isfinite(dist.sample(SplitMix64(seed)))


def test_synthetic_config_rejects_an_err_sigma_whose_predictions_overflow():
    with pytest.raises(ValueError, match="'err_sigma' must keep every predicted speed finite"):
        SyntheticConfig(n=1, m=1, err_sigma=1.7e308)
    with pytest.raises(ValueError, match="true speeds up to 1.7e"):
        SyntheticConfig(n=1, m=1, speed_dist=Dist.uniform(1e308, 1.7e308), err_sigma=1e307)
    SyntheticConfig(n=1, m=1, speed_dist=Dist.uniform(1e308, 1.7e308), err_sigma=1e306)


def test_dist_parse():
    assert Dist.parse("uniform(0,100)") == Dist.uniform(0.0, 100.0)
    assert Dist.parse("normal(50, 5)") == Dist.normal(50.0, 5.0)
    assert Dist.parse("  uniform(0, 40)  ") == Dist.uniform(0.0, 40.0)


def test_dist_parse_rejects_garbage():
    for text in ("gaussian(0,1)", "uniform(1)", "uniform(a,b)", "uniform(0,1", ""):
        with pytest.raises(ValueError):
            Dist.parse(text)


def test_dist_from_json():
    for doc, dist in (
        ({"kind": "uniform", "lo": -3.0, "hi": 7.5}, Dist.uniform(-3.0, 7.5)),
        ({"kind": "normal", "mu": 50, "sigma": 5.0}, Dist.normal(50.0, 5.0)),
        ({"kind": "normal", "mu": 0.0, "sigma": 0.0}, Dist.normal(0.0, 0.0)),
    ):
        assert Dist.from_json_dict(doc) == dist


def test_dist_from_json_rejects_bad_docs():
    with pytest.raises(ValueError):
        Dist.from_json_dict({"kind": "uniform", "lo": 0.0})
    with pytest.raises(ValueError):
        Dist.from_json_dict({"kind": "exotic", "a": 1.0, "b": 2.0})
    with pytest.raises(ValueError):
        Dist.from_json_dict([1, 2, 3])


def test_dist_sampling_is_deterministic_and_in_range():
    u = Dist.uniform(10.0, 20.0)
    draws = [u.sample(SplitMix64(k)) for k in range(20)]
    again = [u.sample(SplitMix64(k)) for k in range(20)]
    assert draws == again
    assert all(10.0 <= x < 20.0 for x in draws)

    g = Dist.normal(50.0, 5.0)
    rng = SplitMix64(77)
    samples = [g.sample(rng) for _ in range(500)]
    mean = sum(samples) / len(samples)
    assert abs(mean - 50.0) < 1.5  # ~6 standard errors


# ---------------------------------------------------------------------------
# SyntheticConfig / gen_synthetic
# ---------------------------------------------------------------------------


def test_synthetic_config_defaults():
    cfg = SyntheticConfig(n=12, m=4)
    assert cfg.job_dist == Dist.uniform(0.0, 100.0)
    assert cfg.speed_dist == Dist.uniform(0.0, 40.0)
    assert cfg.err_sigma == 0.0
    assert cfg.seed == 0


def test_synthetic_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(n=0, m=1)
    with pytest.raises(ValueError):
        SyntheticConfig(n=1, m=0)
    with pytest.raises(ValueError):
        SyntheticConfig(n=1, m=1, err_sigma=-0.1)


def test_gen_synthetic_shape_and_name():
    inst = gen_synthetic(SyntheticConfig(n=12, m=4, seed=3))
    assert inst.n == 12
    assert inst.m == 4
    assert inst.name == "synthetic-n12-m4-seed3"
    assert inst.seed == 3


def test_gen_synthetic_is_deterministic():
    cfg = SyntheticConfig(n=8, m=3, err_sigma=5.0, seed=11)
    assert gen_synthetic(cfg) == gen_synthetic(cfg)


def test_gen_synthetic_zero_error_predicts_exactly():
    inst = gen_synthetic(SyntheticConfig(n=10, m=4, seed=5))
    assert inst.predicted_speeds == inst.true_speeds


def test_gen_synthetic_clamps_nonpositive_draws():
    cfg = SyntheticConfig(n=6, m=2, job_dist=Dist.uniform(-10.0, -5.0), seed=0)
    inst = gen_synthetic(cfg)
    assert inst.jobs == (CLAMP_FLOOR,) * 6


def test_gen_synthetic_floors_small_positive_draws():
    tiny = Dist.uniform(0.0, CLAMP_FLOOR)
    cfg = SyntheticConfig(n=6, m=2, job_dist=tiny, speed_dist=tiny, seed=0)
    inst = gen_synthetic(cfg)
    assert inst.jobs == (CLAMP_FLOOR,) * 6
    assert inst.true_speeds == inst.predicted_speeds == (CLAMP_FLOOR,) * 2


def test_gen_synthetic_error_stream_is_independent():
    """Changing err_sigma must not disturb the jobs or the true speeds."""
    base = gen_synthetic(SyntheticConfig(n=9, m=3, seed=21))
    noisy = gen_synthetic(SyntheticConfig(n=9, m=3, err_sigma=10.0, seed=21))
    assert noisy.jobs == base.jobs
    assert noisy.true_speeds == base.true_speeds
    assert noisy.predicted_speeds != base.predicted_speeds


def test_gen_synthetic_job_stream_is_independent():
    """Changing n must not disturb the true speeds."""
    a = gen_synthetic(SyntheticConfig(n=5, m=3, seed=8))
    b = gen_synthetic(SyntheticConfig(n=15, m=3, seed=8))
    assert a.true_speeds == b.true_speeds
    assert a.jobs == b.jobs[:5]


def test_gen_synthetic_normal_distributions():
    cfg = SyntheticConfig(
        n=40, m=10, job_dist=Dist.normal(50.0, 5.0), speed_dist=Dist.normal(20.0, 4.0), seed=2
    )
    inst = gen_synthetic(cfg)
    assert all(p > 0 for p in inst.jobs)
    assert 30.0 < sum(inst.jobs) / len(inst.jobs) < 70.0


# ---------------------------------------------------------------------------
# Adversarial families
# ---------------------------------------------------------------------------


def test_gen_prop1_instance_contents():
    inst = gen_prop1_instance(10, 2)
    assert inst.jobs == (1.0,) * 10
    assert inst.true_speeds == (1.0, 1.0)
    assert inst.predicted_speeds == (9.0, 1.0)
    assert inst.name == "consistency-trap-n10-m2"


def test_gen_prop1_instance_validation():
    with pytest.raises(ValueError):
        gen_prop1_instance(10, 1)
    with pytest.raises(ValueError):
        gen_prop1_instance(2, 2)


def test_gen_tradeoff_instance_contents():
    inst = gen_tradeoff_instance(4)
    assert inst.jobs == (1.0,) * 7
    assert inst.true_speeds == (1.0,) * 4
    assert inst.predicted_speeds == (4.0, 1.0, 1.0, 1.0)
    assert inst.name == "tradeoff-m4"
    # 2m-1 unit jobs on m equal machines pack into bags of at most 2.
    assert exact_schedule(inst.jobs, inst.true_speeds).makespan == 2.0


def test_gen_tradeoff_instance_validation():
    with pytest.raises(ValueError):
        gen_tradeoff_instance(1)


def test_gen_binary_lb_instance_contents():
    inst = gen_binary_lb_instance(2)
    assert inst.jobs == (1.0,) * 12
    assert inst.true_speeds == (1.0, 1.0, 0.0)
    assert inst.predicted_speeds == (1.0, 1.0, 1.0)
    assert inst.name == "binary-lb-k2"
    # All work ends up on the two usable machines: optimal makespan 3k.
    assert exact_schedule(inst.jobs, (1.0, 1.0)).makespan == 6.0


def test_gen_binary_lb_instance_validation():
    with pytest.raises(ValueError):
        gen_binary_lb_instance(0)


def test_synthetic_batch_strides_seeds():
    cfg = SyntheticConfig(n=4, m=2, seed=10)
    batch = synthetic_batch(cfg, count=3)
    assert [inst.seed for inst in batch] == [10, 11, 12]
    assert batch[0] == gen_synthetic(dataclasses.replace(cfg, seed=10))
    assert batch[2] == gen_synthetic(dataclasses.replace(cfg, seed=12))
    with pytest.raises(ValueError):
        synthetic_batch(cfg, count=0)


def _hexes(inst):
    vectors = (inst.jobs, inst.true_speeds, inst.predicted_speeds)
    return [[x.hex() for x in values] for values in vectors]


SWEEPS = {
    "err_sigma": (0.0, 3.5, 0.0, 12.0, 3.5),
    "n": (5, 9, 5, 1),
    "m": (2, 4, 1, 2),
    "sigma_p": (0.0, 8.0, 0.0, 40.0),
    "sigma_s": (0.0, 5.0, 0.0, 25.0),
}


@pytest.mark.parametrize("param", SWEEP_PARAMS)
@pytest.mark.parametrize("err_sigma", [0.0, 7.0])
def test_gen_synthetic_with_a_memo_draws_what_fresh_calls_draw(param, err_sigma):
    # One memo across every point and seed of a sweep, repeats included:
    # each instance equals a fresh draw to the last bit.
    config = ExperimentConfig(
        n=6, m=3, job_dist=Dist.normal(40.0, 15.0), speed_dist=Dist.normal(10.0, 6.0),
        err_sigma=err_sigma, sweep_param=param, sweep_values=SWEEPS[param],
    )
    solves = {}
    assert [value for value, _ in config.points] == list(SWEEPS[param])
    for seed in (0, 1, 17, 2**40 + 3):
        for _, point in config.points:
            synthetic = dataclasses.replace(point, seed=seed)
            got, want = gen_synthetic(synthetic, solves), gen_synthetic(synthetic)
            assert _hexes(got) == _hexes(want)
            assert (got.name, got.seed) == (want.name, want.seed)
