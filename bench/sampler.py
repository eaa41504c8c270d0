"""Seeded inputs for the ``large_n`` workload.

Partitions are drawn uniformly at each size with Fristedt's conditioned
geometric sampler, using only ``random.Random``, so one seed always gives
the same inputs.  Sizes, moduli and the graph grid are fixed; the seed
chooses the partition shapes and the regularisation slopes.

Seeds 1-10 are the tuning seeds.  ``HELD_OUT_SEED`` is kept back: a claimed
gain must also hold on it.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

HELD_OUT_SEED = 2105063

E_CYCLE = (3, 4, 5, 6)
SAMPLE_COUNT = 100
SAMPLE_SIZES = (50, 400)
CHAIN_COUNT = 30
CHAIN_SIZES = (30, 60)

# (e, slope, variant, size) for build_graph; every size lies in 18..26.
GRAPH_GRID = (
    (3, Fraction(1), "-", 18),
    (3, Fraction(1), "+", 20),
    (3, Fraction(3, 2), "-", 22),
    (3, Fraction(3, 2), "+", 19),
    (3, Fraction(2), "+", 26),
    (3, Fraction(2), "-", 18),
    (3, Fraction(4, 3), "+", 19),
    (3, Fraction(5, 3), "-", 18),
    (3, Fraction(7, 4), "+", 20),
    (4, Fraction(1), "-", 18),
    (4, Fraction(2), "+", 20),
    (4, Fraction(3), "+", 19),
    (4, Fraction(3, 2), "-", 19),
    (4, Fraction(5, 2), "+", 18),
    (4, Fraction(5, 3), "-", 18),
    (4, Fraction(7, 3), "+", 20),
    (5, Fraction(2), "+", 18),
    (5, Fraction(3), "-", 19),
    (6, Fraction(5, 2), "-", 18),
    (6, Fraction(4), "+", 18),
)


def random_partition(rng: random.Random, n: int) -> tuple[int, ...]:
    """A uniformly random partition of n, as a weakly decreasing tuple.

    Part i occurs Z_i times, with Z_i independent and P(Z_i >= k) = x**(i*k)
    for x = exp(-pi / sqrt(6n)); conditioned on sum(i * Z_i) = n the result
    is uniform (Fristedt).  Parts >= 2 are drawn first, the number of ones
    is forced to the remainder r, and the draw is kept with probability
    P(Z_1 = r) / P(Z_1 = 0) = x**r, which leaves the law exactly uniform
    (Arratia and DeSalvo's deterministic second half).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return ()
    x = math.exp(-math.pi / math.sqrt(6 * n))
    log_x = math.log(x)
    while True:
        counts = {}
        total = 0
        for i in range(n, 1, -1):
            z = int(math.log(1.0 - rng.random()) / (i * log_x))
            if z:
                counts[i] = z
                total += i * z
                if total > n:
                    break
        r = n - total
        if r >= 0 and rng.random() < x**r:
            return tuple(p for p in sorted(counts, reverse=True) for _ in range(counts[p])) + (1,) * r


def _spread(k: int, count: int, lo: int, hi: int) -> int:
    """The k-th of count sizes spaced evenly from lo to hi inclusive."""
    return lo + ((hi - lo) * k) // (count - 1)


@dataclass(frozen=True)
class LargeNInputs:
    """Raw inputs: (parts, e, slope) triples, (parts, e) chain inputs and the graph grid.

    ``samples`` hold arbitrary partitions; the workload makes them
    e-regular.  ``chains`` hold partitions that the workload restrictises at
    slope e - 1 so they are regular for the chain's source prefix.
    """

    samples: tuple[tuple[tuple[int, ...], int, Fraction], ...]
    chains: tuple[tuple[tuple[int, ...], int], ...]
    graphs: tuple[tuple[int, Fraction, str, int], ...] = GRAPH_GRID

    def digest(self) -> str:
        """Short hash of every input, to show two runs used the same ones."""
        text = repr((self.samples, self.chains, self.graphs))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def large_n_inputs(seed: int) -> LargeNInputs:
    """The seeded inputs of the large_n workload."""
    rng = random.Random(seed)
    samples = []
    for k in range(SAMPLE_COUNT):
        n = _spread(k, SAMPLE_COUNT, *SAMPLE_SIZES)
        e = E_CYCLE[k % len(E_CYCLE)]
        q = rng.randint(1, 4)
        slope = Fraction(rng.randint(q, (e - 1) * q), q)
        samples.append((random_partition(rng, n), e, slope))
    chains = []
    for k in range(CHAIN_COUNT):
        n = _spread(k, CHAIN_COUNT, *CHAIN_SIZES)
        chains.append((random_partition(rng, n), E_CYCLE[k % len(E_CYCLE)]))
    return LargeNInputs(tuple(samples), tuple(chains))
