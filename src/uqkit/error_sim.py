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

from typing import NamedTuple

import numpy as np

from .seeds import derive_rng
from .significance import CLASSIC_TEST_KINDS, aso, classic_test

TEST_KINDS = ("aso", *CLASSIC_TEST_KINDS)
_MAX_PARAM = 1e100
_ARITY = {"normal": 2, "laplace": 2, "rayleigh": 1}  # a mixture has (mean, std, weight) triples


def _param(x: float) -> str:
    """A spec parameter as `:g` prints it when that reads back as `x`, else as `repr`."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


class DistSpec:
    """A score distribution `kind:p1:p2...`: `normal:MEAN:STD`, `laplace:LOC:SCALE`,
    `rayleigh:SCALE` or `mixture:M1:S1:W1:M2:S2:W2[...]` (two or more normal components).

    Every parameter must be finite with magnitude <= 1e100, so that the sums
    and squares of the draws, and hence every test's means and variances, stay
    finite at any sample size. Specs with equal kind and parameters are equal
    and hash alike.
    """

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, params: tuple[float, ...]):
        params = tuple(float(x) for x in params)
        self.kind, self.params = kind, params
        if not all(abs(x) <= _MAX_PARAM for x in params):  # written so that NaN fails it
            raise ValueError(f"parameters must be finite with magnitude <= {_MAX_PARAM:g}")
        mixture, count = kind == "mixture", len(params)
        if not (count == _ARITY.get(kind) or mixture and count >= 6 and count % 3 == 0):
            raise ValueError("unknown kind or wrong number of parameters")
        scale = "std" if kind in ("normal", "mixture") else "scale"
        if not all(s > 0 for s in (params[1::3] if mixture else params[-1:])):
            raise ValueError(f"{scale} must be positive")
        weights = params[2::3] if mixture else (1.0,)  # one component has weight 1
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    def __eq__(self, other):
        if not isinstance(other, DistSpec):
            return NotImplemented
        return (self.kind, self.params) == (other.kind, other.params)

    def __hash__(self) -> int:
        return hash((self.kind, self.params))

    def __repr__(self) -> str:
        return f"DistSpec({self.kind!r}, {self.params!r})"

    @classmethod
    def parse(cls, text: str) -> DistSpec:
        """The spec `text` names; `label` prints the text back."""
        kind, *fields = text.split(":")
        return cls(kind, tuple(float(field) for field in fields))

    def label(self) -> str:
        return ":".join([self.kind, *map(_param, self.params)])


def Normal(mean: float, std: float) -> DistSpec:
    return DistSpec("normal", (mean, std))


def Laplace(loc: float, scale: float) -> DistSpec:
    return DistSpec("laplace", (loc, scale))


def Rayleigh(scale: float) -> DistSpec:
    return DistSpec("rayleigh", (scale,))


def NormalMixture(components: tuple[tuple[float, float], ...],
                  weights: tuple[float, ...]) -> DistSpec:
    """A mixture of normal (mean, std) components with the given weights."""
    if len(components) != len(weights) or not components:
        raise ValueError("components and weights must be non-empty and equal-length")
    return DistSpec("mixture", tuple(x for (mean, std), w in zip(components, weights)
                                     for x in (mean, std, w)))


def sample_dist(spec: DistSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the specified distribution."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p = spec.params
    if spec.kind == "normal":
        return rng.normal(p[0], p[1], size=n)
    if spec.kind == "laplace":
        return rng.laplace(p[0], p[1], size=n)
    if spec.kind == "rayleigh":
        return rng.rayleigh(p[0], size=n)
    means, stds, weights = (np.asarray(p[i::3]) for i in range(3))
    choice = rng.choice(weights.size, size=n, p=weights / weights.sum())
    return rng.normal(means[choice], stds[choice])


class TestSpec:
    """A test plus its decision threshold.

    For kind "aso" the threshold is the eps_min cutoff tau; for the classical
    tests it is the p-value cutoff. `alpha` is the ASO confidence level,
    `num_bootstrap` the ASO bootstrap iterations, and `resamples` the
    bootstrap/permutation test resamples.
    """

    __test__ = False  # not a pytest class despite the name
    __slots__ = ("kind", "threshold", "alpha", "num_bootstrap", "resamples")

    def __init__(self, kind: str, threshold: float, alpha: float = 0.05,
                 num_bootstrap: int = 1000, resamples: int = 1000):
        if kind not in TEST_KINDS:
            raise ValueError(f"unknown test kind: {kind!r}")
        self.kind, self.threshold, self.alpha = kind, threshold, alpha
        self.num_bootstrap, self.resamples = num_bootstrap, resamples

    def statistic(self, a: np.ndarray, b: np.ndarray, rng: np.random.Generator) -> float:
        """eps_min for ASO, the one-sided p-value otherwise; small values reject."""
        if self.kind == "aso":
            return aso(a, b, alpha=self.alpha, num_bootstrap=self.num_bootstrap,
                       rng=rng).eps_min
        return classic_test(self.kind, a, b, resamples=self.resamples, rng=rng).p_value

    def rejects(self, a: np.ndarray, b: np.ndarray, rng: np.random.Generator) -> bool:
        return self.statistic(a, b, rng) < self.threshold


class ErrorRateReport(NamedTuple):
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
    dist_b: str = ""


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
