"""Distribution samplers and the Type I / Type II error-rate Monte Carlo harness.

Trials run serially. Each (dist, n, trial) draws its score samples once, from a
stream derived by hashing (master seed, trial index), and every test reads that
one draw: before each test the stream is rewound to the state right after the
draw, so a test's own resampling is the same whichever tests run beside it, and
adding trials never reshuffles earlier ones. Each test computes its statistic
once per trial (eps_min for ASO, the p-value otherwise); the statistic is then
compared with every requested threshold, since the draws never depend on the
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .seeds import derive_rng
from .significance import CLASSIC_TEST_KINDS, aso, classic_test


@dataclass(frozen=True)
class Normal:
    mean: float
    std: float

    def __post_init__(self):
        if not self.std > 0:
            raise ValueError("std must be positive")

    def label(self) -> str:
        return f"normal:{self.mean:g}:{self.std:g}"


@dataclass(frozen=True)
class NormalMixture:
    components: tuple[tuple[float, float], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.components) != len(self.weights) or not self.components:
            raise ValueError("components and weights must be non-empty and equal-length")
        if any(std <= 0 for _, std in self.components):
            raise ValueError("std must be positive")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    def label(self) -> str:
        parts = ":".join(f"{m:g}:{s:g}:{w:g}" for (m, s), w in zip(self.components, self.weights))
        return f"mixture:{parts}"


@dataclass(frozen=True)
class Laplace:
    loc: float
    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    def label(self) -> str:
        return f"laplace:{self.loc:g}:{self.scale:g}"


@dataclass(frozen=True)
class Rayleigh:
    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    def label(self) -> str:
        return f"rayleigh:{self.scale:g}"


DistSpec = Normal | NormalMixture | Laplace | Rayleigh


def sample_dist(spec: DistSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the specified distribution."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(spec, Normal):
        return rng.normal(spec.mean, spec.std, size=n)
    if isinstance(spec, NormalMixture):
        weights = np.asarray(spec.weights)
        choice = rng.choice(len(spec.components), size=n, p=weights / weights.sum())
        means = np.asarray([m for m, _ in spec.components])
        stds = np.asarray([s for _, s in spec.components])
        return rng.normal(means[choice], stds[choice])
    if isinstance(spec, Laplace):
        return rng.laplace(spec.loc, spec.scale, size=n)
    if isinstance(spec, Rayleigh):
        return rng.rayleigh(spec.scale, size=n)
    raise ValueError(f"unknown distribution spec: {spec!r}")


@dataclass(frozen=True)
class TestSpec:
    """A test plus its decision threshold.

    For kind "aso" the threshold is the eps_min cutoff tau; for the classical
    tests it is the p-value cutoff.
    """

    __test__ = False  # not a pytest class despite the name

    kind: str
    threshold: float
    alpha: float = 0.05          # ASO confidence level
    num_bootstrap: int = 1000    # ASO bootstrap iterations
    resamples: int = 1000        # bootstrap/permutation test resamples

    def __post_init__(self):
        if self.kind != "aso" and self.kind not in CLASSIC_TEST_KINDS:
            raise ValueError(f"unknown test kind: {self.kind!r}")

    def statistic(self, a: np.ndarray, b: np.ndarray, rng: np.random.Generator) -> float:
        """eps_min for ASO, the one-sided p-value otherwise; small values reject."""
        if self.kind == "aso":
            return aso(a, b, alpha=self.alpha, num_bootstrap=self.num_bootstrap,
                       rng=rng).eps_min
        return classic_test(self.kind, a, b, resamples=self.resamples, rng=rng).p_value

    def rejects(self, a: np.ndarray, b: np.ndarray, rng: np.random.Generator) -> bool:
        return self.statistic(a, b, rng) < self.threshold


@dataclass(frozen=True)
class ErrorRateReport:
    """Aggregated rejection (Type I) or non-rejection (Type II) rate."""

    test: str
    dist: str
    n: int
    threshold: float
    trials: int
    rate: float
    se: float
    seed: int
    error_kind: str = "type1"
    dist_b: str = field(default="")


def error_rates(tests: list[TestSpec], dist_a: DistSpec, dist_b: DistSpec | None, n: int,
                thresholds: list[float], trials: int, seed: int) -> list[ErrorRateReport]:
    """Error rates of every test at each threshold, one report per (test, threshold).

    With dist_b None both samples come from dist_a and the rate is the fraction
    of rejections (Type I); otherwise `a` comes from dist_a, `b` from dist_b,
    and the rate is the fraction of non-rejections (Type II). `test.threshold`
    is not used here: each trial's statistic is compared with every entry of
    `thresholds`.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    stats = np.empty((len(tests), trials))
    for trial in range(trials):
        rng = derive_rng(seed, trial)
        a = sample_dist(dist_a, n, rng)
        b = sample_dist(dist_a if dist_b is None else dist_b, n, rng)
        a.flags.writeable = b.flags.writeable = False  # every test reads the same arrays
        drawn = rng.bit_generator.state
        for i, test in enumerate(tests):
            rng.bit_generator.state = drawn
            stats[i, trial] = test.statistic(a, b, rng)

    reports = []
    for test, test_stats in zip(tests, stats):
        for threshold in thresholds:
            rejected = test_stats < threshold
            rate = float((rejected if dist_b is None else ~rejected).mean())
            reports.append(ErrorRateReport(
                test=test.kind, dist=dist_a.label(), n=n, threshold=threshold, trials=trials,
                rate=rate, se=float(np.sqrt(rate * (1 - rate) / trials)), seed=seed,
                error_kind="type1" if dist_b is None else "type2",
                dist_b="" if dist_b is None else dist_b.label()))
    return reports


def type1_rate(test: TestSpec, dist: DistSpec, n: int, trials: int, seed: int) -> ErrorRateReport:
    """Fraction of rejections when both samples come from the same distribution."""
    return error_rates([test], dist, None, n, [test.threshold], trials, seed)[0]


def type2_rate(test: TestSpec, dist_a: DistSpec, dist_b: DistSpec, n: int, trials: int,
               seed: int) -> ErrorRateReport:
    """Fraction of non-rejections when dist_a stochastically dominates dist_b."""
    return error_rates([test], dist_a, dist_b, n, [test.threshold], trials, seed)[0]
