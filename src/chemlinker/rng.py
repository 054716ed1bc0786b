"""Deterministic 64-bit random stream used everywhere randomness is part of
an external contract (token sampling, dataset subsampling).

The generator is splitmix64: state advances by the golden-ratio increment and
each output is a finalizer mix of the new state. Uniforms take the top 53
bits, so every draw is exactly representable as a double and the stream is
bit-identical across platforms and languages.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """splitmix64 stream; one `uniform()` consumes one 64-bit output."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53-bit mantissa resolution."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), by partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} distinct indices from {n}")
        pool = list(range(n))
        for i in range(k):
            j = i + int(self.uniform() * (n - i))
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
