"""Distribution toolkit for statistical workload generation.

The shape follows SCSF's ``Machine`` class (SNIPPETS.md snippet 1):
fit probability distributions to observed data, then draw synthetic
workloads from them — except the "observed data" here is the paper's
§5 primitive-frequency measurements and the simulator's own traces,
and every draw comes from an **explicit seeded generator** so a
scenario is a pure function of its seed (the statistical-reporting
discipline of Becker & Chakraborty 2018: seeded replications with
confidence intervals, never one run).

Three distribution families cover what OS-event modelling needs:

* :class:`ProbabilityMap` — an empirical histogram reduced to a
  normalized (value, probability) map with inverse-CDF sampling;
  built by :meth:`Histogram.probability_map`;
* :class:`Exponential` — memoryless inter-arrival times (the default
  renewal process for primitive-frequency rates);
* :class:`Lognormal` — heavy-tailed durations (think times, service
  bursts), fit by log-moments.

Every family also draws in blocks: ``sample_many(rng, n)`` returns the
same ``n`` floats, bit for bit, as ``n`` successive ``sample(rng)``
calls and leaves ``rng`` in the same state, so the chunked scenario
pipeline reproduces the per-event stream exactly.  The block draws
need numpy; ``sample`` and everything else here are standard library
only, so the per-event path runs without it.

Nothing here touches module-global RNG state: every ``sample`` takes
a :class:`random.Random` the caller owns, and :func:`rng_for` derives
one deterministically from a seed plus a scope string (the same
string-seeding idiom ``repro.explore.strategies`` uses).
``tests/test_rng_hygiene.py`` enforces the no-global-RNG rule
tree-wide.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

try:  # numpy is optional: only the block draws (``sample_many``) need it
    import numpy as np
except ImportError:  # pragma: no cover - numpy-less environments
    np = None


def rng_for(seed: int, *scope: str) -> random.Random:
    """A deterministic generator for (seed, scope).

    Scoping the seed by a content string (a model digest, an event-kind
    name) gives independent-but-reproducible streams: two event kinds
    inside one scenario never share a stream, yet the whole scenario is
    replayable from one integer.  String seeding hashes via SHA-512 in
    CPython, so the stream is stable across runs and platforms.
    """
    return random.Random(f"{seed}:" + ":".join(scope))


def uniforms(rng: random.Random, n: int) -> np.ndarray:
    """``n`` successive ``rng.random()`` draws as a float64 array.

    CPython's ``random()`` takes two 32-bit Mersenne words ``a, b`` and
    returns ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``.  One
    ``getrandbits(64 * n)`` consumes exactly those ``2 n`` words, least
    significant first, so rebuilding the doubles from its bytes gives
    the same floats (every step is exact in float64) and the same final
    generator state, at a fraction of the per-call cost.
    """
    if n <= 0:
        return np.empty(0)
    words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"),
                          dtype="<u4")
    return (((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6))
            * (1.0 / 9007199254740992.0))


# ----------------------------------------------------------------------
# empirical: histogram -> probability map -> inverse-CDF sampling
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Histogram:
    """A fixed-bin empirical histogram of one observed quantity."""

    #: ascending bin edges; bin ``i`` covers ``[edges[i], edges[i+1])``.
    edges: Tuple[float, ...]
    #: occupancy per bin (``len(edges) - 1`` entries).
    counts: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.edges) < 2:
            raise ValueError("histogram needs at least one bin (two edges)")
        if list(self.edges) != sorted(self.edges):
            raise ValueError("bin edges must be ascending")
        if len(self.counts) != len(self.edges) - 1:
            raise ValueError("need exactly one count per bin")
        if any(c < 0 for c in self.counts):
            raise ValueError("bin counts cannot be negative")

    @classmethod
    def from_samples(cls, samples: Sequence[float], bins: int = 20) -> "Histogram":
        """Equal-width binning over the sample range.

        A degenerate sample set (all values equal) still produces a
        usable one-bin histogram rather than a zero-width crash.
        """
        if not samples:
            raise ValueError("cannot build a histogram from no samples")
        if bins < 1:
            raise ValueError("bins must be >= 1")
        lo, hi = min(samples), max(samples)
        if hi <= lo:
            hi = lo + 1.0
        width = (hi - lo) / bins
        counts = [0] * bins
        for value in samples:
            index = min(int((value - lo) / width), bins - 1)
            counts[index] += 1
        edges = tuple(lo + i * width for i in range(bins + 1))
        return cls(edges=edges, counts=tuple(counts))

    @property
    def total(self) -> int:
        return sum(self.counts)

    def probability_map(self) -> "ProbabilityMap":
        """Normalize occupancy into a sampleable probability map.

        Each non-empty bin contributes its midpoint with probability
        ``count / total`` — the SCSF histogram → probability-map step.
        """
        total = self.total
        if total == 0:
            raise ValueError("cannot normalize an empty histogram")
        values: List[float] = []
        probabilities: List[float] = []
        for i, count in enumerate(self.counts):
            if count == 0:
                continue
            values.append((self.edges[i] + self.edges[i + 1]) / 2.0)
            probabilities.append(count / total)
        return ProbabilityMap(values=tuple(values),
                              probabilities=tuple(probabilities))


@dataclass(frozen=True)
class ProbabilityMap:
    """A discrete distribution sampled by inverse CDF.

    ``values[i]`` is drawn with ``probabilities[i]``; construction
    normalizes the weights (so callers may pass raw counts) and
    precomputes the cumulative table :func:`sample` bisects.
    """

    values: Tuple[float, ...]
    probabilities: Tuple[float, ...]
    _cdf: Tuple[float, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.values or len(self.values) != len(self.probabilities):
            raise ValueError("need one probability per value (and at least one)")
        if any(p < 0 for p in self.probabilities):
            raise ValueError("probabilities cannot be negative")
        total = sum(self.probabilities)
        if total <= 0:
            raise ValueError("probabilities must sum to a positive total")
        normalized = tuple(p / total for p in self.probabilities)
        object.__setattr__(self, "probabilities", normalized)
        acc, cdf = 0.0, []
        for p in normalized:
            acc += p
            cdf.append(acc)
        cdf[-1] = 1.0  # guard the last bucket against float drift
        object.__setattr__(self, "_cdf", tuple(cdf))

    def sample(self, rng: random.Random) -> float:
        """One inverse-CDF draw from the caller's generator."""
        return self.values[bisect.bisect_left(self._cdf, rng.random())]

    def sample_many(self, rng: random.Random, n: int) -> np.ndarray:
        """``n`` draws; ``searchsorted(side="left")`` is ``bisect_left``."""
        index = np.searchsorted(np.asarray(self._cdf), uniforms(rng, n),
                                side="left")
        return np.asarray(self.values)[index]

    def mean(self) -> float:
        return sum(v * p for v, p in zip(self.values, self.probabilities))

    def variance(self) -> float:
        mu = self.mean()
        return sum(p * (v - mu) ** 2
                   for v, p in zip(self.values, self.probabilities))


# ----------------------------------------------------------------------
# parametric fits
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Exponential:
    """Memoryless inter-arrival times at ``rate`` events per unit."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    @classmethod
    def fit(cls, samples: Sequence[float]) -> "Exponential":
        """Maximum-likelihood fit: rate = 1 / sample mean."""
        if not samples:
            raise ValueError("cannot fit an exponential to no samples")
        mean = sum(samples) / len(samples)
        if mean <= 0:
            raise ValueError("exponential samples must have a positive mean")
        return cls(rate=1.0 / mean)

    def sample(self, rng: random.Random) -> float:
        # inverse CDF: -ln(1 - u) / rate; 1 - u avoids log(0).
        return -math.log(1.0 - rng.random()) / self.rate

    def sample_many(self, rng: random.Random, n: int) -> np.ndarray:
        """``n`` draws.  The log is ``math.log`` mapped over the block:
        ``np.log`` rounds differently on some inputs, which would break
        bit identity with :meth:`sample`."""
        logs = list(map(math.log, (1.0 - uniforms(rng, n)).tolist()))
        return -np.array(logs, dtype=np.float64) / self.rate

    def mean(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        return 1.0 / (self.rate * self.rate)


@dataclass(frozen=True)
class Lognormal:
    """exp(Normal(mu, sigma)) — heavy-tailed positive durations."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma cannot be negative")

    @classmethod
    def fit(cls, samples: Sequence[float]) -> "Lognormal":
        """Moment fit in log space (all samples must be positive)."""
        if not samples:
            raise ValueError("cannot fit a lognormal to no samples")
        if any(s <= 0 for s in samples):
            raise ValueError("lognormal samples must be positive")
        logs = [math.log(s) for s in samples]
        mu = sum(logs) / len(logs)
        var = sum((x - mu) ** 2 for x in logs) / len(logs)
        return cls(mu=mu, sigma=math.sqrt(var))

    def sample(self, rng: random.Random) -> float:
        return math.exp(rng.gauss(self.mu, self.sigma))

    def sample_many(self, rng: random.Random, n: int) -> np.ndarray:
        """``n`` draws, one at a time: ``gauss`` caches every second
        normal on the generator, so it cannot be drawn in a block."""
        sample = self.sample
        return np.array([sample(rng) for _ in range(n)], dtype=np.float64)

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma ** 2 / 2.0)

    def variance(self) -> float:
        s2 = self.sigma ** 2
        return (math.exp(s2) - 1.0) * math.exp(2.0 * self.mu + s2)


#: anything with ``sample(rng) -> float``, ``sample_many(rng, n)`` and
#: ``mean()``; the three classes above all qualify (structural, no ABC
#: needed).
Distribution = object


def distribution_payload(dist: object) -> Dict[str, object]:
    """JSON-safe description of a distribution (for digests and WALs)."""
    if isinstance(dist, Exponential):
        return {"family": "exponential", "rate": dist.rate}
    if isinstance(dist, Lognormal):
        return {"family": "lognormal", "mu": dist.mu, "sigma": dist.sigma}
    if isinstance(dist, ProbabilityMap):
        return {"family": "pmap", "values": list(dist.values),
                "probabilities": list(dist.probabilities)}
    raise TypeError(f"unknown distribution type {type(dist).__name__}")


def distribution_from_payload(payload: Dict[str, object]):
    """Invert :func:`distribution_payload` (wire/WAL round trip)."""
    family = payload.get("family")
    if family == "exponential":
        return Exponential(rate=float(payload["rate"]))
    if family == "lognormal":
        return Lognormal(mu=float(payload["mu"]), sigma=float(payload["sigma"]))
    if family == "pmap":
        return ProbabilityMap(
            values=tuple(float(v) for v in payload["values"]),
            probabilities=tuple(float(p) for p in payload["probabilities"]))
    raise ValueError(f"unknown distribution family {family!r}")
