"""Deterministic 64-bit generator (SplitMix64) plus the samplers the scenario needs.

Chosen over the stdlib Mersenne Twister so that traces are trivially
reproducible from a single 64-bit state word in any language.  Exponential
draws use the inverse CDF; Poisson draws use Knuth's product method, which
is exact and fast for the small means used here.
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1
# Seeds are one 64-bit state word: the valid ones are range(SEED_LIMIT).
SEED_LIMIT = 1 << 64
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 stream seeded from one 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN_GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX_1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX_2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in the open interval (0, 1), 53-bit resolution."""
        return (float(self.next_u64() >> 11) + 0.5) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def expovariate(self, rate: float) -> float:
        """Exponential draw -ln(u) / rate; infinite when the rate is zero."""
        if rate < 0.0:
            raise ValueError("rate must be >= 0")
        if rate == 0.0:
            return math.inf
        return -math.log(self.random()) / rate

    def poisson(self, mean: float) -> int:
        """Poisson draw by Knuth's product method; draws nothing for mean 0."""
        if mean < 0.0:
            raise ValueError("mean must be >= 0")
        if mean == 0.0:
            return 0
        threshold = math.exp(-mean)
        count = 0
        product = self.random()
        while product > threshold:
            count += 1
            product *= self.random()
        return count

    def randrange(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("n must be >= 1")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % n
