"""Deterministic instance generators.

Reproducibility contract
------------------------
Experiment CSVs must be reproducible from seeds alone, across machines and —
if this package is ever ported — across languages.  The generator algorithm is
therefore part of the package's external contract and is fixed here:

* Base generator: **SplitMix64** — state advances by the 64-bit golden-ratio
  constant ``0x9E3779B97F4A7C15``; output is the state passed through the
  ``mix64`` finalizer (xor-shift 30 / multiply ``0xBF58476D1CE4E5B9`` /
  xor-shift 27 / multiply ``0x94D049BB133111EB`` / xor-shift 31).
* Stream splitting: field ``tag`` (jobs = 1, speeds = 2, errors = 3) gives the
  substream seed ``mix64(seed XOR mix64(tag))``.  Adding a field never
  perturbs the draws of existing fields.
* Uniform double in [0, 1): ``(next_u64() >> 11) * 2**-53``.  The open-interval
  variant used for normals adds 0.5 to the 53-bit integer before scaling, so
  it never returns 0.0.  The sum rounds to even, so the top integer,
  ``2**53 - 1``, would give exactly 1.0; it alone gives ``1 - 2**-53``, the
  largest double below 1, which no other integer gives.  Every draw lies in
  [2**-54, 1 - 2**-53].
* Standard normal: Acklam's rational approximation of the inverse normal CDF
  applied to an open-interval uniform draw (max relative error ~1.15e-9, which
  is far below the experiment tolerances and identical on every platform).

Sampled values below ``CLAMP_FLOOR`` (1e-3) are raised to it, so every value
is at least the floor; that applies to job sizes, true speeds, and predicted
speeds (after the additive error).  Predicted speeds are ``true + err`` with
``err ~ normal(0, err_sigma)`` drawn from the error stream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .model import CheckedFloats, Instance, check_int, is_json_number, json_object

CLAMP_FLOOR = 1e-3
# The largest job or machine count of a generated instance, so that it fits
# in memory: a shape asking for more is rejected before any draw or tuple.
MAX_SHAPE = 1_000_000

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

_JOBS_TAG = 1
_SPEEDS_TAG = 2
_ERRORS_TAG = 3


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective scrambler."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Minimal deterministic 64-bit generator (see module docstring)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def next_float(self) -> float:
        """Uniform in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_open_float(self) -> float:
        """Uniform in (0, 1) — safe input for the inverse normal CDF."""
        return min(((self.next_u64() >> 11) + 0.5) * 2.0**-53, 1.0 - 2.0**-53)


def substream(seed: int, tag: int) -> SplitMix64:
    """Independent per-field stream: seed ``mix64(seed XOR mix64(tag))``."""
    return SplitMix64(mix64((seed & _MASK64) ^ mix64(tag)))


# Acklam's inverse-normal-CDF coefficients (central rational approximation
# plus symmetric tail approximations; |relative error| < 1.15e-9 on (0, 1)).
_ICDF_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_ICDF_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_ICDF_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_ICDF_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_ICDF_P_LOW = 0.02425


def normal_inv_cdf(p: float) -> float:
    """Inverse standard-normal CDF via Acklam's rational approximation."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"inverse normal CDF needs p in (0, 1), got {p!r}")
    a, b, c, d = _ICDF_A, _ICDF_B, _ICDF_C, _ICDF_D
    if not _ICDF_P_LOW <= p <= 1.0 - _ICDF_P_LOW:  # the upper tail is the lower at 1 - p, negated
        q = math.sqrt(-2.0 * math.log(p if p < _ICDF_P_LOW else 1.0 - p))
        tail = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
        return tail if p < _ICDF_P_LOW else -tail
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


# The largest magnitude of a unit-normal draw: the inverse CDF at the ends of
# ``next_open_float``'s range.
_Z_MAX = max(-normal_inv_cdf(2.0**-54), normal_inv_cdf(1.0 - 2.0**-53))


def _dist_params(kind: object) -> tuple[str, str]:
    """The names of a distribution kind's two parameters in JSON."""
    if kind == "uniform":
        return ("lo", "hi")
    if kind == "normal":
        return ("mu", "sigma")
    raise ValueError(f"unknown distribution kind {kind!r}")


@dataclass(frozen=True)
class Dist:
    """A sampling distribution: ``uniform(lo, hi)`` or ``normal(mu, sigma)``."""

    kind: str
    a: float
    b: float

    def __post_init__(self) -> None:
        for key, field in zip(_dist_params(self.kind), "ab"):
            value = getattr(self, field)
            if not is_json_number(value):
                raise ValueError(f"distribution {key!r} must be a number, got {value!r}")
            object.__setattr__(self, field, float(value))
        if self.kind == "uniform" and not self.b > self.a:
            raise ValueError(f"uniform needs hi > lo, got ({self.a}, {self.b})")
        if self.kind == "uniform" and not math.isfinite(self.b - self.a):
            raise ValueError(f"uniform needs a finite hi - lo, got ({self.a}, {self.b})")
        if self.kind == "normal" and self.b < 0.0:
            raise ValueError(f"normal needs sigma >= 0, got {self.b}")
        if self.kind == "normal" and not math.isfinite(abs(self.a) + _Z_MAX * self.b):
            raise ValueError(f"normal needs a finite |mu| + {_Z_MAX:.2f} * sigma, "
                             f"got ({self.a}, {self.b})")

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "Dist":
        return cls("uniform", lo, hi)

    @classmethod
    def normal(cls, mu: float, sigma: float) -> "Dist":
        return cls("normal", mu, sigma)

    @property
    def mean(self) -> float:
        return (self.a + self.b) / 2.0 if self.kind == "uniform" else self.a

    def sample(self, rng: SplitMix64) -> float:
        if self.kind == "uniform":
            return self.a + (self.b - self.a) * rng.next_float()
        return self.a + self.b * normal_inv_cdf(rng.next_open_float())

    @classmethod
    def from_json_dict(cls, doc: object) -> "Dist":
        # The kind names the other keys, so it is read first, letting any key through.
        kind = json_object(doc, "distribution", ("kind",), optional=doc)["kind"]
        params = _dist_params(kind)
        json_object(doc, f"{kind} distribution", ("kind", *params))
        return cls(kind, *(doc[key] for key in params))

    @classmethod
    def parse(cls, text: str) -> "Dist":
        """Parse the compact CLI form ``uniform(lo,hi)`` / ``normal(mu,sigma)``."""
        text = text.strip()
        for kind in ("uniform", "normal"):
            if text.startswith(kind + "(") and text.endswith(")"):
                inner = text[len(kind) + 1 : -1]
                parts = inner.split(",")
                if len(parts) != 2:
                    raise ValueError(f"expected two parameters in {text!r}")
                try:
                    x, y = float(parts[0]), float(parts[1])
                except ValueError as exc:
                    raise ValueError(f"bad distribution parameters in {text!r}") from exc
                return cls(kind, x, y)
        raise ValueError(
            f"cannot parse distribution {text!r}; expected uniform(lo,hi) or normal(mu,sigma)"
        )


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters for one synthetic instance (see :func:`gen_synthetic`).
    An out-of-range value raises ``ValueError`` naming its field, and so
    does a shape or seed that is not an integer, or an ``err_sigma`` that
    is not a number."""

    n: int
    m: int
    job_dist: Dist = Dist.uniform(0.0, 100.0)
    speed_dist: Dist = Dist.uniform(0.0, 40.0)
    err_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_int(self.n, "'n'", 1, MAX_SHAPE)
        check_int(self.m, "'m'", 1, MAX_SHAPE)
        check_int(self.seed, "'seed'")
        if not is_json_number(self.err_sigma):
            raise ValueError(f"'err_sigma' must be a number, got {self.err_sigma!r}")
        if not 0.0 <= self.err_sigma < math.inf:
            raise ValueError(f"'err_sigma' must be non-negative finite, got {self.err_sigma!r}")
        speeds = self.speed_dist
        top = speeds.b if speeds.kind == "uniform" else speeds.a + speeds.b * _Z_MAX
        if not math.isfinite(top + self.err_sigma * _Z_MAX):
            raise ValueError(f"'err_sigma' must keep every predicted speed finite, got "
                             f"{self.err_sigma!r} with true speeds up to {top!r}")


def _clamp(x: float) -> float:
    return max(x, CLAMP_FLOOR)


@functools.lru_cache(maxsize=1)
def _draws(
    seed: int, n: int, m: int, job_dist: Dist, speed_dist: Dist
) -> tuple[CheckedFloats, CheckedFloats, tuple[float, ...]]:
    """The jobs, the true speeds and the ``m`` unit-normal error draws of a
    config; ``err_sigma`` only scales the last, so it is not read.  The last
    draws are kept, so the instances of one seed at every point of an
    ``err_sigma`` sweep, run back to back, share them and differ only in the
    predicted speeds.  The jobs and true speeds are checked here, once, as
    :class:`~speedsched.model.CheckedFloats`: every instance built from
    them keeps the same two objects, and checks only its predicted
    speeds."""
    jobs_rng = substream(seed, _JOBS_TAG)
    speeds_rng = substream(seed, _SPEEDS_TAG)
    err_rng = substream(seed, _ERRORS_TAG)
    jobs = [_clamp(job_dist.sample(jobs_rng)) for _ in range(n)]
    true_speeds = [_clamp(speed_dist.sample(speeds_rng)) for _ in range(m)]
    normals = tuple(normal_inv_cdf(err_rng.next_open_float()) for _ in range(m))
    return (CheckedFloats.check(jobs, "job processing times"),
            CheckedFloats.check(true_speeds, "true speeds"), normals)


def gen_synthetic(config: SyntheticConfig) -> Instance:
    """Draw an instance: i.i.d. jobs and true speeds from the configured
    distributions; predicted speeds are true speeds plus additive
    ``normal(0, err_sigma)`` noise.  Draws below ``CLAMP_FLOOR`` are raised
    to it.  Fully determined by ``config`` (see module docstring for
    the stream layout).
    """
    jobs, true_speeds, normals = _draws(config.seed, config.n, config.m, config.job_dist,
                                        config.speed_dist)
    sigma = config.err_sigma
    return Instance(
        jobs=jobs,
        true_speeds=true_speeds,
        predicted_speeds=tuple(_clamp(s + sigma * z) for s, z in zip(true_speeds, normals)),
        name=f"synthetic-n{config.n}-m{config.m}-seed{config.seed}",
        seed=config.seed,
    )


def gen_prop1_instance(n: int, m: int) -> Instance:
    """Consistency-trap family: unit jobs with one machine predicted to be
    ``n - m + 1`` times faster than the rest, while the bundled true speeds are
    all ones.  Any partition that fully trusts the prediction piles
    ``n - m + 1`` jobs into one bag and pays ratio ``(n-m+1) / ceil(n/m)``
    when the speeds turn out equal."""
    if m < 2:
        raise ValueError("need m >= 2")
    if n <= m:
        raise ValueError("need n > m")
    if n > MAX_SHAPE:
        raise ValueError(f"need n <= {MAX_SHAPE}")
    return Instance(
        jobs=(1.0,) * n,
        true_speeds=(1.0,) * m,
        predicted_speeds=(float(n - m + 1),) + (1.0,) * (m - 1),
        name=f"consistency-trap-n{n}-m{m}",
    )


def gen_tradeoff_instance(m: int) -> Instance:
    """Trade-off family: ``2m - 1`` unit jobs, one machine predicted ``m``
    times faster, true speeds all ones.  The optimal equal-speed makespan is 2,
    and doing well under the prediction forces a large bag, so no algorithm is
    simultaneously near-consistent and near-robust on it."""
    if m < 2:
        raise ValueError("need m >= 2")
    if 2 * m - 1 > MAX_SHAPE:
        raise ValueError(f"need m <= {(MAX_SHAPE + 1) // 2} (2m - 1 jobs)")
    return Instance(
        jobs=(1.0,) * (2 * m - 1),
        true_speeds=(1.0,) * m,
        predicted_speeds=(float(m),) + (1.0,) * (m - 1),
        name=f"tradeoff-m{m}",
    )


def gen_binary_lb_instance(k: int) -> Instance:
    """All-or-nothing-speed family: ``6k`` unit jobs on 3 machines, all three
    predicted usable (speed 1.0) but only the first two actually usable (true
    speeds 1.0, 1.0, 0.0)."""
    if k < 1:
        raise ValueError("need k >= 1")
    if 6 * k > MAX_SHAPE:
        raise ValueError(f"need k <= {MAX_SHAPE // 6} (6k jobs)")
    return Instance(
        jobs=(1.0,) * (6 * k),
        true_speeds=(1.0, 1.0, 0.0),
        predicted_speeds=(1.0, 1.0, 1.0),
        name=f"binary-lb-k{k}",
    )

