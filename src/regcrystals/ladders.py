"""Ladders for rational slopes, regularisation and restrictisation.

A slope y = p/q with 1 <= y <= e-1 scales to the integer pair
(E, Y) = (e*q, p).  The ladder through a node (r, c) is the set
{(r + k*(Y - E), c + k*Y) : k in Z}; all nodes of a ladder share the depth
Y*r + (E - Y)*c and the residue mod e.  Two partitions are equivalent when
every ladder meets them in the same number of nodes, and each equivalence
class holds a unique (E, Y)-regular partition (its dominance maximum, the
regularisation) and a unique (E, Y)-restricted one (the minimum, the
restrictisation).  fingerprint counts la's nodes on each ladder; class_key
is its integer form, a sorted tuple of one int per Y-column block of a row,
and every class equality test here and in verify compares class_keys.

Each map is the last item of its step generator: regularise of
regularise_steps (one partition per abacus move), restrictise of
restrictise_steps (the conjugated steps at the conjugate slope e - y).

regularise_steps, the Mullineux loop and the crystal chains share one step
loop, _steps, on one carried bead set: per move, one walk of the kernel
partitions._bead_walk (_top_hook) finds the bead that _abacus_step moves in
place.  The maps encode and decode once.  The predicates walk each row by
partitions._row_avoids, whose legs (E - Y)*t or (E - Y)*t - 1 rise as Y < E.

All slope arithmetic is exact via fractions.Fraction; nothing here touches
floating point.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, count, groupby, pairwise
from operator import sub
from typing import Iterator

from .abacus import conjugate_display
from .partitions import (Node, Partition, _bead_walk, _row_avoids, beta_numbers, enumerate_partitions,
                         from_beta_numbers, hooks_divisible_by)


class LadderParams:
    """Ladder parameters for modulus e and exact rational slope y."""

    __slots__ = ("e", "y", "E", "Y")

    e: int
    y: Fraction
    E: int
    Y: int

    def __init__(self, e: int, y):
        e = int(e)
        y = y if type(y) is Fraction else Fraction(y)
        if e < 2:
            raise ValueError("e must be at least 2")
        if not y.denominator <= y.numerator <= (e - 1) * y.denominator:
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
    """Node count of la in each ladder, keyed by canonical representative.

    The key of node (r, c) is ladder_id((r, c), params), computed inline:
    k = (c - 1) // Y ladder steps back lead to (r + k*(E - Y), c - k*Y),
    written below with j = c - 1.
    """
    ym, drop = params.Y, params.E - params.Y
    return Counter(
        (r + j // ym * drop, j % ym + 1)
        for r, row_len in enumerate(la.parts, start=1)
        for j in range(row_len)
    )


def class_key(la: Partition, params: LadderParams) -> tuple[int, ...]:
    """An integer form of fingerprint: class_key(la) == class_key(mu) exactly
    when fingerprint(la) == fingerprint(mu), so it decides ladder-class
    equality without building a Counter.

    With drop = E - Y, cut row r of part p into blocks of Y columns.  Block
    k covers fingerprint keys (R, 1), ..., (R, Y) of the ladder row
    R = r + k*drop when it is full, and (R, 1), ..., (R, rem) when it is
    the last, partial block of rem = p % Y > 0 columns.  A full block gives
    the integer R*Y and a partial one R*Y + rem; with 0 <= rem < Y these
    are distinct for distinct (R, rem).  The key is the sorted list of
    these integers over all blocks.

    It is a bijection with the fingerprint fp: a full block at R adds one to
    every fp(R, s) and a partial block of rem columns one to fp(R, s) for
    s <= rem, so fp(R, Y) counts the keys R*Y and, for 1 <= t < Y,
    fp(R, t) - fp(R, t + 1) counts the keys R*Y + t.  Either determines
    the other, so equal keys mean equal fingerprints and conversely.
    """
    ym = params.Y
    step = (params.E - ym) * ym
    keys: list[int] = []
    ry = 0  # r*Y for row r
    for row_len in la.parts:
        ry += ym
        top = ry + row_len // ym * step  # R*Y past the last full block
        keys.extend(range(ry, top, step))
        if rem := row_len % ym:
            keys.append(top + rem)
    keys.sort()
    return tuple(keys)


def is_regular(la: Partition, params: LadderParams) -> bool:
    """True if la has no hook of length E*t with arm length Y*t - 1."""
    parts, em, ym = la.parts, params.E, params.Y
    return all(_row_avoids(parts, r, em, count(ym - 1, ym)) for r in range(1, len(parts) + 1))


def is_restricted(la: Partition, params: LadderParams) -> bool:
    """True if la has no hook of length E*t with arm length Y*t."""
    parts, em, ym = la.parts, params.E, params.Y
    return all(_row_avoids(parts, r, em, count(ym, ym)) for r in range(1, len(parts) + 1))


def bad_count(la: Partition, params: LadderParams) -> int:
    """Number of hooks of length t*e with arm floor(y*t), t not divisible by
    the slope denominator.  Defined only for non-integer slopes."""
    z, num = params.y.denominator, params.y.numerator
    if z == 1:
        raise ValueError("bad hooks are defined only for slopes with denominator > 1")
    return sum(1 for t, arm, _ in hooks_divisible_by(la, params.e) if t % z and arm == num * t // z)


def _top_hook(occ: set[int], e: int, p: int, q: int) -> tuple[int, int, int] | None:
    """(arm + 1, t, b) of the longest hook of length e*t of the bead set occ,
    with bead b, whose slope (arm + 1)/t is the largest in [1, p/q] (the
    last walked of ties), or None; one walk, keeping the best so far.
    With a = arm + 1, a/t = Y/q' in lowest terms exactly when the hook is
    singular at (E, Y) = (e*q', Y) scaled by a/Y: the move is at (e*t, a)."""
    best_a, best_t, best_b = 0, 1, 0
    for b, part, gaps in _bead_walk(map(sub, sorted(occ), range(len(occ))), e):
        for g, below in gaps:
            t, a = (b - g) // e, part - below  # slope a/t in [1, p/q], then by slope and length
            if a * q <= p * t and (x := a * best_t) >= (y := best_a * t) and t <= a and (x > y or t >= best_t):
                best_a, best_t, best_b = a, t, b
    return (best_a, best_t, best_b) if best_a else None


def _abacus_step(occ: set[int], em: int, ym: int, b: int) -> int:
    """One regularisation move at integer parameters (em, ym) on the bead set
    occ, in place, assuming its singular hooks there all have t = 1; returns d.

    The bead b (from _top_hook's walk) is the largest occupied position
    with b - em empty and exactly ym empty positions in [b - em, b].  Let
    the class union F collect the congruence classes mod em of those empty
    positions, let b_1 < ... < b_m be the occupied positions in F after
    b - em and t_1 < t_2 < ... the empty positions outside F after b.  With
    d minimal such that t_d < b_{d+1} or d = m, move each bead b_i down to
    b_i - em and each bead t_i - em up to t_i, for i = 1..d in turn.
    """
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
    return d


def _steps(occ: set[int], e: int, p: int, q: int, descend: bool,
           floor: tuple[int, int] | None = None) -> Iterator[tuple[int, int]]:
    """Regularise the bead set occ in place at slope p/q, yielding (p, q) before each move.

    Each step scales (E, Y) by the largest t for which a singular hook
    occurs, then performs the single move at the scaled parameters; it gives
    a strictly more dominant partition in the same ladder class.  Once occ
    is p/q-regular the loop ends, or with descend set goes on at the top
    slope a/t of _top_hook, which p/q then holds unreduced, until a/t is at
    or below the strict floor slope fp/fq, when one is given."""
    if not occ or e > max(occ):  # no hook is longer than the last bead: no walk of e runners
        return
    while (top := _top_hook(occ, e, p, q)) is not None:
        a, t, b = top
        if floor and a * floor[1] <= floor[0] * t:
            return
        if a * q < p * t:
            if not descend:
                return
            p, q = a, t
        yield p, q
        d = _abacus_step(occ, e * t, a, b)
        assert d >= 1


def _hold_ends(moves: Iterator[tuple[int, int]], start, end) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """(hi, lo) for each hold of a _steps loop while the bead set is still
    the one held: the start slope or a round's, then the next round's or end."""
    return pairwise(chain([start], (slope for slope, _ in groupby(moves)), [end]))


def regularise_steps(la: Partition, params: LadderParams) -> Iterator[Partition]:
    """Yield the partition after each move of the abacus regularisation of la
    (pairwise reads one move ahead of _steps); none when la is regular."""
    occ = beta_numbers(la, len(la))
    for _ in pairwise(chain(_steps(occ, params.e, params.Y, params.y.denominator, False), [None])):
        yield from_beta_numbers(occ)


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
    occ = beta_numbers(la, len(la))
    moves = sum(1 for _ in _steps(occ, params.e, params.Y, params.y.denominator, False))
    return from_beta_numbers(occ) if moves else la


def restrictise_steps(la: Partition, params: LadderParams) -> Iterator[Partition]:
    """Yield each step of the restrictisation of la: the conjugates of the
    steps of regularise_steps(la', params.conjugate_params())."""
    for kappa in regularise_steps(la.conjugate(), params.conjugate_params()):
        yield kappa.conjugate()


def restrictise(la: Partition, params: LadderParams) -> Partition:
    """The unique (E, Y)-restricted partition in the ladder class of la: the
    last step of restrictise_steps, or la itself when there is none.  The
    steps run on conjugate_display of la's bead set, at the conjugate slope
    e - p/q = (E - Y)/q, and the result is conjugated back the same way."""
    occ = conjugate_display(beta_numbers(la, len(la)), 1, la.part(1) + len(la))
    if not sum(1 for _ in _steps(occ, params.e, params.E - params.Y, params.y.denominator, False)):
        return la
    return from_beta_numbers(conjugate_display(occ, 1, max(occ) + 1))


def ladder_class(la: Partition, params: LadderParams, bound: int = 14) -> list[Partition]:
    """Brute-force ladder class of la: all equal-size partitions with the
    same class_key (so the same fingerprint), most dominant first."""
    if la.size > bound:
        raise ValueError(f"|la| = {la.size} exceeds the oracle bound {bound}")
    target = class_key(la, params)
    return [mu for mu in enumerate_partitions(la.size) if class_key(mu, params) == target]
