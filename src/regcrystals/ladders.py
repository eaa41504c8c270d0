"""Ladders for rational slopes, regularisation and restrictisation.

A slope y = p/q with 1 <= y <= e-1 scales to the integer pair
(E, Y) = (e*q, p).  The ladder through a node (r, c) is the set
{(r + k*(Y - E), c + k*Y) : k in Z}; all nodes of a ladder share the depth
Y*r + (E - Y)*c and the residue mod e.  Two partitions are equivalent when
every ladder meets them in the same number of nodes, and each equivalence
class holds a unique (E, Y)-regular partition (its dominance maximum, the
regularisation) and a unique (E, Y)-restricted one (the minimum, the
restrictisation).  fingerprint is the class key: a sorted tuple of one int
per Y-column block of a row, which determines la's node count on every
ladder and is determined by it, and every class equality test here and in
verify compares fingerprints.  Its one kernel, _rows_key, reads row lengths
from the top, so a bead set's key is read off partitions._bead_rows with no
Partition built.

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

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, count, groupby, pairwise
from operator import sub
from typing import Iterable, Iterator

from .abacus import conjugate_display
from .partitions import (Node, Partition, _bead_walk, _row_avoids, beta_numbers, enumerate_partitions,
                         from_beta_numbers, hooks_divisible_by)


@dataclass(frozen=True, slots=True)
class LadderParams:
    """Ladder parameters for modulus e and exact rational slope y."""

    e: int
    y: Fraction
    E: int = field(init=False, repr=False, compare=False)
    Y: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        e = int(self.e)
        y = self.y if type(self.y) is Fraction else Fraction(self.y)
        if e < 2:
            raise ValueError("e must be at least 2")
        if not y.denominator <= y.numerator <= (e - 1) * y.denominator:
            raise ValueError(f"slope {y} outside [1, {e - 1}]")
        for name, value in (("e", e), ("y", y), ("E", e * y.denominator), ("Y", y.numerator)):
            object.__setattr__(self, name, value)

    def pair(self) -> tuple[int, int]:
        return (self.E, self.Y)

    def conjugate_params(self) -> "LadderParams":
        """Parameters for the conjugate slope e - y."""
        return LadderParams(self.e, self.e - self.y)

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


def fingerprint(la: Partition, params: LadderParams) -> tuple[int, ...]:
    """The ladder-class key of la: fingerprint(la) == fingerprint(mu) exactly
    when every ladder meets la and mu in the same number of nodes.  It is
    _rows_key of la's parts.

    With drop = E - Y, cut row r of part p into blocks of Y columns.  Block
    k covers the ladders (R, 1), ..., (R, Y), keyed by ladder_id, of the
    ladder row R = r + k*drop when it is full, and (R, 1), ..., (R, rem)
    when it is the last, partial block of rem = p % Y > 0 columns.  A full
    block gives the integer R*Y and a partial one R*Y + rem; with
    0 <= rem < Y these are distinct for distinct (R, rem).  The key is the
    sorted list of these integers over all blocks.

    It is a bijection with the node counts fp per ladder: a full block at R
    adds one to every fp(R, s) and a partial block of rem columns one to
    fp(R, s) for s <= rem, so fp(R, Y) counts the keys R*Y and, for
    1 <= t < Y, fp(R, t) - fp(R, t + 1) counts the keys R*Y + t.  Either
    determines the other, so equal keys mean equal counts and conversely.
    """
    return _rows_key(la.parts, params)


def _rows_key(rows: Iterable[int], params: LadderParams) -> tuple[int, ...]:
    """The fingerprint kernel, on a partition's row lengths from the top: its
    parts, or partitions._bead_rows of a bead set, whose zero rows end the
    walk (a zero row adds no key)."""
    ym = params.Y
    step = (params.E - ym) * ym
    keys: list[int] = []
    ry = 0  # r*Y for row r
    for row_len in rows:
        if not row_len:
            break
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

    Each class of F meets (b - em, b) only in an empty position, so b_1 = b,
    and one walk up from b collects the b_i and t_i in order.  When it
    reaches t_i with only b_1..b_i found, t_i < b_{i+1} (or i = m), and that
    first such i is d: before it, b_{i+1} came first at every i.
    """
    classes = {p % em for p in range(b - em, b + 1) if p not in occ}
    assert b in occ and b % em in classes
    bs, ts = [b], []
    p, ahead = b, 1  # len(bs) - len(ts)
    while ahead:
        p += 1
        if p % em not in classes:
            if p not in occ:
                ts.append(p)
                ahead -= 1
        elif p in occ:
            bs.append(p)
            ahead += 1
    for bi, ti in zip(bs, ts):
        assert bi in occ and bi - em not in occ
        occ.remove(bi)
        occ.add(bi - em)
        assert ti - em in occ and ti not in occ
        occ.remove(ti - em)
        occ.add(ti)
    return len(ts)


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
    same fingerprint, most dominant first."""
    if la.size > bound:
        raise ValueError(f"|la| = {la.size} exceeds the oracle bound {bound}")
    target = fingerprint(la, params)
    return [mu for mu in enumerate_partitions(la.size) if fingerprint(mu, params) == target]
