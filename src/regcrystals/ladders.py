"""Ladders for rational slopes, regularisation and restrictisation.

A slope y = p/q with 1 <= y <= e-1 scales to the integer pair
(E, Y) = (e*q, p).  The ladder through a node (r, c) is the set
{(r + k*(Y - E), c + k*Y) : k in Z}; all nodes of a ladder share the depth
Y*r + (E - Y)*c and the residue mod e.  Two partitions are equivalent when
every ladder meets them in the same number of nodes, and each equivalence
class holds a unique (E, Y)-regular partition (its dominance maximum, the
regularisation) and a unique (E, Y)-restricted one (the minimum, the
restrictisation).

Each map is the last item of its step generator: regularise of
regularise_steps (one partition per abacus move), restrictise of
restrictise_steps (the conjugated steps at the conjugate slope e - y).

Every hook predicate (here, is_A_regular and the Mullineux slopes) reads the
bead set through hooks_divisible_by, one runner of the E- or e-abacus at a time.

All slope arithmetic is exact via fractions.Fraction; nothing here touches
floating point.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterator

from .partitions import Node, Partition, beta_numbers, enumerate_partitions, from_beta_numbers


class LadderParams:
    """Ladder parameters for modulus e and exact rational slope y."""

    __slots__ = ("e", "y", "E", "Y")

    e: int
    y: Fraction
    E: int
    Y: int

    def __init__(self, e: int, y):
        e = int(e)
        y = Fraction(y)
        if e < 2:
            raise ValueError("e must be at least 2")
        if not 1 <= y <= e - 1:
            raise ValueError(f"slope {y} outside [1, {e - 1}]")
        self.e = e
        self.y = y
        self.E = e * y.denominator
        self.Y = y.numerator

    def pair(self) -> tuple[int, int]:
        return (self.E, self.Y)

    def conjugate_params(self) -> "LadderParams":
        """Parameters for the conjugate slope e - y."""
        return LadderParams(self.e, self.e - self.y)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LadderParams) and (self.e, self.y) == (other.e, other.y)

    def __hash__(self) -> int:
        return hash((self.e, self.y))

    def __repr__(self) -> str:
        return f"LadderParams(e={self.e}, y={self.y})"


def ladder_id(node: Node, params: LadderParams) -> Node:
    """Canonical ladder representative: the member with minimal column >= 1."""
    r, c = node
    em, ym = params.E, params.Y
    k = -((c - 1) // ym)
    return (r + k * (ym - em), c + k * ym)


def depth(node: Node, params: LadderParams) -> int:
    """Y*row + (E - Y)*col; constant on ladders."""
    r, c = node
    return params.Y * r + (params.E - params.Y) * c


def fingerprint(la: Partition, params: LadderParams) -> Counter:
    """Node count of la in each ladder, keyed by canonical representative."""
    cnt: Counter = Counter()
    for r, row_len in enumerate(la.parts, start=1):
        for c in range(1, row_len + 1):
            cnt[ladder_id((r, c), params)] += 1
    return cnt


def hooks_divisible_by(la: Partition, m: int) -> list[tuple[int, int]]:
    """(t, arm) for every hook of la of length m*t.

    On the bead set of la, a hook is a bead over a gap below it:
    its length is their distance and its arm the number of gaps strictly
    between.  A hook of length m*t pairs a bead with a gap on the same
    runner of the m-runner abacus, so the walk up the positions keeps the
    gaps seen so far by runner, visits at most |la|/m hooks and never
    builds the conjugate.  No runner list is allocated when m exceeds the
    largest hook length la_1 + len(la) - 1 (the empty partition has no hooks).
    """
    parts = la.parts
    if not parts or m > parts[0] + len(parts) - 1:
        return []
    runners: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    out = []
    pos = gaps = 0
    for part in reversed(parts):  # beads from the bottom; each has `part` gaps below
        while gaps < part:
            runners[pos % m].append((pos, gaps))
            pos += 1
            gaps += 1
        for gap, below in runners[pos % m]:
            out.append(((pos - gap) // m, part - 1 - below))
        pos += 1
    return out


def is_regular(la: Partition, params: LadderParams) -> bool:
    """True if la has no hook of length E*t with arm length Y*t - 1."""
    ym = params.Y
    return all(arm != ym * t - 1 for t, arm in hooks_divisible_by(la, params.E))


def is_restricted(la: Partition, params: LadderParams) -> bool:
    """True if la has no hook of length E*t with arm length Y*t."""
    ym = params.Y
    return all(arm != ym * t for t, arm in hooks_divisible_by(la, params.E))


def bad_count(la: Partition, params: LadderParams) -> int:
    """Number of hooks of length t*e with arm floor(y*t), t not divisible by
    the slope denominator.  Defined only for non-integer slopes."""
    z, num = params.y.denominator, params.y.numerator
    if z == 1:
        raise ValueError("bad hooks are defined only for slopes with denominator > 1")
    return sum(1 for t, arm in hooks_divisible_by(la, params.e) if t % z and arm == num * t // z)


def _largest_singular_t(la: Partition, em: int, ym: int) -> int | None:
    """Largest t such that la has a hook of length em*t with arm ym*t - 1."""
    return max((t for t, arm in hooks_divisible_by(la, em) if arm == ym * t - 1), default=None)


def _abacus_step(la: Partition, em: int, ym: int) -> Partition:
    """One regularisation move at integer parameters (em, ym), assuming the
    singular hooks of la at these parameters all have t = 1.

    Take the largest occupied position b with b - em empty and exactly ym
    empty positions in [b - em, b].  Let the class union F collect the
    congruence classes mod em of those empty positions, let b_1 < ... < b_m
    be the occupied positions in F after b - em and t_1 < t_2 < ... the
    empty positions outside F after b.  With d minimal such that
    t_d < b_{d+1} or d = m, move each bead b_i down to b_i - em and each
    bead t_i - em up to t_i, for i = 1..d in turn.
    """
    occ = beta_numbers(la, len(la.parts))

    def empties_in(lo: int, hi: int) -> int:
        return sum(1 for p in range(lo, hi + 1) if p not in occ)

    b = max(
        (
            p
            for p in occ
            if p >= em and p - em not in occ and empties_in(p - em, p) == ym
        ),
        default=None,
    )
    if b is None:
        raise ValueError("no singular position on the abacus")
    classes = {p % em for p in range(b - em, b + 1) if p not in occ}
    bs = sorted(p for p in occ if p > b - em and p % em in classes)
    assert bs and bs[0] == b
    m = len(bs)
    ts: list[int] = []
    p = b + 1
    while len(ts) < m:
        if p not in occ and p % em not in classes:
            ts.append(p)
        p += 1
    d = next(i for i in range(1, m + 1) if i == m or ts[i - 1] < bs[i])
    for i in range(d):
        assert bs[i] in occ and bs[i] - em not in occ
        occ.remove(bs[i])
        occ.add(bs[i] - em)
        assert ts[i] - em in occ and ts[i] not in occ
        occ.remove(ts[i] - em)
        occ.add(ts[i])
    return from_beta_numbers(occ)


def regularise_steps(la: Partition, params: LadderParams) -> Iterator[Partition]:
    """Yield the partition after each move of the abacus regularisation of la.

    Each step scales (E, Y) by the largest t for which a singular hook
    occurs, then performs the single move at the scaled parameters; it gives
    a strictly more dominant partition in the same ladder class.  Nothing is
    yielded when la is already (E, Y)-regular.
    """
    while (t := _largest_singular_t(la, params.E, params.Y)) is not None:
        kappa = _abacus_step(la, params.E * t, params.Y * t)
        assert kappa != la
        la = kappa
        yield la


def regularise_step(la: Partition, params: LadderParams) -> Partition:
    """The first step of regularise_steps.

    Raises ValueError if la is already (E, Y)-regular.
    """
    kappa = next(regularise_steps(la, params), None)
    if kappa is None:
        raise ValueError(f"{la.parts} is already ({params.E},{params.Y})-regular")
    return kappa


def regularise(la: Partition, params: LadderParams) -> Partition:
    """The unique (E, Y)-regular partition in the ladder class of la: the
    last step of regularise_steps, or la itself when there is none."""
    for la in regularise_steps(la, params):
        pass
    return la


def restrictise_steps(la: Partition, params: LadderParams) -> Iterator[Partition]:
    """Yield each step of the restrictisation of la: the conjugates of the
    steps of regularise_steps(la', params.conjugate_params())."""
    for kappa in regularise_steps(la.conjugate(), params.conjugate_params()):
        yield kappa.conjugate()


def restrictise(la: Partition, params: LadderParams) -> Partition:
    """The unique (E, Y)-restricted partition in the ladder class of la.

    Computed by conjugating, regularising at the conjugate slope e - y and
    conjugating back; equal to the last step of restrictise_steps, which
    conjugates every step on the way.
    """
    return regularise(la.conjugate(), params.conjugate_params()).conjugate()


def ladder_class(la: Partition, params: LadderParams, bound: int = 14) -> list[Partition]:
    """Brute-force ladder class of la: all equal-size partitions with the
    same fingerprint, most dominant first."""
    if la.size > bound:
        raise ValueError(f"|la| = {la.size} exceeds the oracle bound {bound}")
    target = fingerprint(la, params)
    return [mu for mu in enumerate_partitions(la.size) if fingerprint(mu, params) == target]
