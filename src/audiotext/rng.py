"""Deterministic 64-bit RNG (SplitMix64).

A single tiny generator is used for every random decision in the
package (parameter init, epoch shuffling, imposter sampling) so that
runs are reproducible bit-for-bit from one integer seed, independent
of platform and numpy version.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix64 generator.

    State advances by the golden-ratio increment; outputs are the
    standard finalizer of the advanced state. Seed 0 produces
    0xE220A8397B1DCDAF as its first output (published test vector).
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def bounded(self, n: int) -> int:
        """Uniform integer in [0, n) via multiply-shift: (x * n) >> 64.

        Rejection-free; the modulo bias is below 2**-64 per draw, which
        is irrelevant at the draw counts used here and keeps the draw
        count independent of n (important for reproducibility).
        """
        if n <= 0:
            raise ValueError(f"bounded() needs n >= 1, got {n}")
        return (self.next_u64() * n) >> 64

    def uniform_array(self, n: int):
        """n uniforms in [0, 1): the i-th is (x_i >> 11) * 2**-53, the top 53
        bits of x_i, the i-th of the next n next_u64() outputs.

        SplitMix64's state walk is affine, so a batch is computed as
        finalize(state + i*gamma) for i = 1..n with numpy uint64
        arithmetic (wrapping mod 2**64).
        """
        import numpy as np

        if n == 0:
            return np.empty(0, dtype=np.float64)
        idx = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self.state) + idx * np.uint64(_GAMMA)
        self.state = int(z[-1])
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        return (z >> np.uint64(11)).astype(np.float64) * (2.0**-53)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, high index down to 1."""
        for i in range(len(items) - 1, 0, -1):
            j = self.bounded(i + 1)
            items[i], items[j] = items[j], items[i]
