"""Arm-sequence crystals on partitions.

An arm prefix A = (A_1, ..., A_n) with t-1 <= A_t <= (e-1)t and
A_{t+u} - A_t - A_u in {0, 1} determines a finite crystal: vertices are
the A-regular partitions of size at most n*e (no hook of length e*t with
arm exactly A_t), and the operators remove the good i-node / add the
cogood i-node read off from the reduced i-signature in the A-dependent
node order.  That order comes from the values alone: every prefix is the
start of the arm sequence floor(y*t) of its slope y = max A_t / t =
Y / (E/e), and two i-nodes compare as their keys (Y*r + (E - Y)*c, r - c),
the ladder depth first, by the integer weights (Y, E - Y) a prefix keeps.
One row walk, _signed_nodes, sorts the signed nodes of every residue, or
of one, by residue and that key, reduces their signatures in one pass and
names each node by its row, which it ends or is added to.  build_graph,
one size layer at a time, takes each residue's first '+' row, and the
peel the '-' rows of its first residue.  One kernel, _move, places and
checks each node, in place: only the shape of its row and the hooks of its
row and column, one cell per arm A_t (partitions._row_avoids), so the
moves build their images unchecked; e_op/f_op check their input in full.

Crystals for any two prefixes are isomorphic via a chain of ladder
regularisations at the Farey slopes of order n between them.  A chain runs
ladders._steps as mullineux does, on one bead set that moves only at the
singular slopes, stops reading the loop at its target's slope and checks
its images by one hook walk per hold.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import takewhile
from operator import sub
from typing import Iterator, NamedTuple

from .abacus import conjugate_display
from .ladders import LadderParams, _hold_ends, _steps
from .ladders import regularise  # noqa: F401  unused here; bench/test_bench.py checks that the tracer wraps it here
from .partitions import (Partition, _bead_hooks, _brief, _Frozen, _row_avoids, beta_numbers, format_partition,
                         from_beta_numbers)


class ArmPrefix(_Frozen):
    """The first n values (A_1, ..., A_n) of an arm sequence for modulus e.

    The values alone fix the crystal: the operators read their node order
    off the slope y = max A_t / t = Y / (E/e), which __init__ derives from
    the values with its integer weights (Y, E - Y), which a walk reads, and
    A_t = floor(y*t) for every t.  A prefix holds nothing else: == and the
    repr read e and the values alone.  _of is the trusted constructor, for
    values and slope valid by construction.

    s*A_t < t*(A_s + 1) for all s, t <= n follows from the two axioms by
    induction on s + t, as in Euclid's algorithm, so A_t <= y*t < A_t + 1.
    Conversely, if A_t = floor(y*t) for every t, then A_{t+u} - A_t - A_u
    = floor(y*t + y*u) - floor(y*t) - floor(y*u) lies in {0, 1}, as
    floor(a + b) - floor(a) - floor(b) does for any reals a, b.  So values
    within their bounds satisfy the axiom exactly when they equal
    floor(y*t) for this y, and __init__ tests that in O(n); the O(n^2)
    pair loop runs only on rejected values, to name the first failing pair.
    """

    __slots__ = ("e", "values", "slope", "weights")

    e: int
    values: tuple[int, ...]
    slope: Fraction
    weights: tuple[int, int]

    def __init__(self, e: int, values):
        e = int(e)
        vals = tuple(int(v) for v in values)
        if e < 2:
            raise ValueError("e must be at least 2")
        if not vals:
            raise ValueError("need at least one value")
        num, den = 0, 1
        for t, v in enumerate(vals, start=1):
            if not t - 1 <= v <= (e - 1) * t:
                raise ValueError(f"A_{t} = {v} outside [{t - 1}, {(e - 1) * t}]")
            if v * den > num * t:
                num, den = v, t
        n = len(vals)
        if vals != tuple(num * t // den for t in range(1, n + 1)):
            # the values are not floor(slope*t), so some pair fails: name the first
            for t in range(1, n):
                for u in range(1, n - t + 1):
                    gap = vals[t + u - 1] - vals[t - 1] - vals[u - 1]
                    if gap not in (0, 1):
                        raise ValueError(
                            f"A_{t + u} - A_{t} - A_{u} = {gap} violates the arm-sequence axiom"
                        )
        weights = (num, e * den - num)
        for name, value in (("e", e), ("values", vals), ("slope", Fraction(num, den)), ("weights", weights)):
            object.__setattr__(self, name, value)

    def _args(self) -> tuple[int, tuple[int, ...]]:
        return (self.e, self.values)

    def __repr__(self) -> str:
        return f"ArmPrefix(e={self.e!r}, values={self.values!r})"

    @classmethod
    def _of(cls, e: int, values: tuple[int, ...], slope: Fraction) -> "ArmPrefix":
        """The prefix of values with that slope, unchecked: for values valid
        by construction, as in mullineux_oracle's A_t = t - 1 of slope (n - 1)/n."""
        prefix = object.__new__(cls)
        weights = (slope.numerator, e * slope.denominator - slope.numerator)
        for name, value in (("e", e), ("values", values), ("slope", slope), ("weights", weights)):
            object.__setattr__(prefix, name, value)
        return prefix

    @classmethod
    def from_slope(cls, e: int, y, n: int, variant: str = "+") -> "ArmPrefix":
        """Prefix of the arm sequence floor(y*t) ('+') or ceil(y*t - 1) ('-'):
        with y = p/q, the latter is ceil((p*t - q)/q) = floor((p*t - 1)/q)."""
        y = LadderParams(e, y).y
        if variant not in ("+", "-"):
            raise ValueError("variant must be '+' or '-'")
        p, q, drop = y.numerator, y.denominator, variant == "-"
        return cls(e, tuple((p * t - drop) // q for t in range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def bound(self) -> int:
        """Largest partition size the prefix can handle: n*e."""
        return self.n * self.e


def _signed_nodes(parts, prefix: ArmPrefix, i: int | None = None) -> dict[int, tuple[list[int], list[int]]]:
    """residue -> (minus, plus), the reduced signature of parts by rows:
    the rows ended by a removable ('-') node and those with an addable
    ('+') one past their end, in order, that survive deleting adjacent
    '+-' pairs, so the good node ends row minus[-1] and the cogood one is
    added to row plus[0].  Residue i alone (always a key), or every
    residue with a signed node when i is None.

    One walk down the rows finds the nodes, residue i's alone when i is
    given: where row r + 1 is shorter than row r (or absent), row r ends in
    a removable node and row r + 1 has an addable one after its end.  A
    node (r, c) sorts by its key (Y*r + (E - Y)*c, r - c) for the prefix
    weights (Y, E - Y), which at equal depth orders r as r - c, so the flat
    tuples ((c - r) mod e, depth, r, grow), sorted, list each residue's
    nodes together and in order, and one pass reduces them, with a stack
    per residue that occurs.
    """
    e = prefix.e
    wr, wc = prefix.weights
    keyed = []
    push = keyed.append
    above = r = 0  # row r and its length
    for p in parts:
        if above != p:
            if r and (i is None or (above - r) % e == i):
                push(((above - r) % e, wr * r + wc * above, r, False))
            if i is None or (p - r) % e == i:
                push(((p - r) % e, wr * (r + 1) + wc * (p + 1), r + 1, True))
            above = p
        r += 1
    if r and (i is None or (above - r) % e == i):
        push(((above - r) % e, wr * r + wc * above, r, False))
    if i is None or -r % e == i:
        push((-r % e, wr * (r + 1) + wc, r + 1, True))
    keyed.sort(reverse=True)
    last, minus, plus = i, [], []  # a query for residue i fills these
    signed = {} if i is None else {i: (minus, plus)}
    for res, _, r, grow in keyed:
        if res != last:
            last = res
            minus, plus = signed[res] = ([], [])
        if grow:
            plus.append(r)
        elif plus:
            plus.pop()
        else:
            minus.append(r)
    return signed


def is_A_regular(la: Partition, prefix: ArmPrefix) -> bool:
    """True if la has no hook of length e*t with arm length exactly A_t.

    One _row_avoids walk per row, which needs A_t never to fall and the leg
    e*t - A_t - 1 to rise strictly.  Both hold: A_t = floor(y*t) with
    0 <= y <= e - 1, and floor(a + y) - floor(a) <= ceil(y) for real a, so
    A_{t+1} - A_t <= ceil(y) <= e - 1.  Hooks of la are no longer than
    |la| <= n*e, so the n stored arms are all there are to test.
    """
    if la.size > prefix.bound:
        raise ValueError(f"|la| = {la.size} exceeds the crystal bound {prefix.bound}")
    parts, e, arms = la.parts, prefix.e, prefix.values
    return all(_row_avoids(parts, r, e, arms) for r in range(1, len(parts) + 1))


def _not_regular(parts, prefix: ArmPrefix) -> ValueError:
    """The error of a partition, or of a move's result, outside the crystal."""
    return ValueError(f"{_brief(parts)} is not regular for {prefix!r}")


def _move(parts: list[int], prefix: ArmPrefix, rows, grow: bool) -> int:
    """Add (grow) or remove the node at the end of each of the rows of
    parts, in place and in turn, checking each move as it is made, and
    return how many moved; ValueError, naming parts as the failing move
    left them, if a move fails its check.  A move that passes leaves an
    A-regular partition, so the crystal moves may build it unchecked.

    The node (r, c) was there to move, and parts is again a partition,
    exactly when row r is a row (one past the last, if added), lies between
    its neighbours after the move, and is positive unless it was the last.
    Moving the node moves one bead of the bead set, and the only hooks it
    changes are those of the moved bead (the hooks of row r) and of the
    gap it leaves (the hooks of column c above row r).  Row r is walked by
    _row_avoids, and column c, ending at row foot = r or r - 1, tests for
    each t the one row foot - (e*t - A_t - 1) whose hook has that leg.
    """
    e, arms = prefix.e, prefix.values
    for r in rows:
        if r > (last := len(parts)) + grow:  # no node to move at the end of row r
            raise _not_regular(parts, prefix)
        if r > last:
            parts.append(0)
        c = parts[r - 1] + grow  # the node's column
        pr = parts[r - 1] = c if grow else c - 1
        if not parts[-1]:  # a removal emptied the last row
            parts.pop()
        if r > 1 and parts[r - 2] < pr or r < len(parts) and pr < parts[r] or pr and not _row_avoids(parts, r, e, arms):
            raise _not_regular(parts, prefix)
        top = r + grow  # foot + 1
        for arm in arms:
            top -= e
            if (row := top + arm) < 1:
                break
            if parts[row - 1] - c == arm:
                raise _not_regular(parts, prefix)
    return len(rows)


def _move_string(parts: list[int], prefix: ArmPrefix, i: int, grow: bool, k: int) -> int:
    """Move up to k i-nodes of parts in place after one walk, and return how
    many moved: the cogood nodes in turn (f_i applied k times) if grow, else
    the good ones, last first (e_i applied k times).

    Moving an i-node changes no other i-node's sign, so the reduced
    signature -^a +^b just loses its last '-' to its '+'s (or its first '+'
    to its '-'s), and the next node to move is the next one it kept.
    """
    minus, plus = _signed_nodes(parts, prefix, i)[i]
    return _move(parts, prefix, plus[:k] if grow else minus[::-1][:k], grow)


def _image(la: Partition, prefix: ArmPrefix, i: int, grow: bool) -> Partition | None:
    """f_op (grow) or e_op past the bound check: la checked in full."""
    if not is_A_regular(la, prefix):
        raise _not_regular(la.parts, prefix)
    parts = list(la.parts)
    return Partition._of(tuple(parts)) if _move_string(parts, prefix, i, grow, 1) else None


def e_op(la: Partition, prefix: ArmPrefix, i: int) -> Partition | None:
    """Remove the good i-node (the last '-' of the reduced signature), or None."""
    return _image(la, prefix, i, False)


def f_op(la: Partition, prefix: ArmPrefix, i: int) -> Partition | None:
    """Add the cogood i-node (the first '+' of the reduced signature), or None."""
    if la.size + 1 > prefix.bound:
        raise ValueError(f"|la| + 1 = {la.size + 1} exceeds the crystal bound {prefix.bound}")
    return _image(la, prefix, i, True)


class CrystalGraph(NamedTuple):
    """The finite crystal on A-regular partitions of size at most the bound."""

    arm: ArmPrefix
    bound: int
    vertices: tuple[Partition, ...]
    edges: tuple[tuple[Partition, int, Partition], ...]


def build_graph(prefix: ArmPrefix, max_size: int | None = None) -> CrystalGraph:
    """All A-regular partitions of size <= max_size with their f-operator edges,
    built one size layer at a time from the empty partition.  The vertices of
    a layer are keyed by their part tuples and walked in sorted order, so the
    vertices and the edges (by source, then residue) come out sorted.  One
    all-residue _signed_nodes walk per vertex below the bound gives each
    residue's reduced signature; its first '+' row gives an edge to the
    vertex with that cogood node added, whose key is sliced from this one's.
    A new vertex is checked once, shape and hooks, by _move on a copy of
    the first vertex that reaches it, and then built unchecked."""
    bound = prefix.bound if max_size is None else max_size
    if bound < 0:
        raise ValueError(f"max_size {bound} is negative")
    if bound > prefix.bound:
        raise ValueError(f"max_size {bound} exceeds the prefix bound {prefix.bound}")
    vertices, edges = [], []
    layer = {(): Partition()}
    for size in range(bound + 1):
        keys = sorted(layer)
        vertices += (layer[key] for key in keys)
        if size == bound:
            break
        above, layer = layer, {}
        for key in keys:
            la = above[key]
            for i, (_, plus) in sorted(_signed_nodes(key, prefix).items()):
                if not plus:
                    continue
                r = plus[0]
                child = key[:r - 1] + (key[r - 1] + 1,) + key[r:] if r <= len(key) else key + (1,)
                if (mu := layer.get(child)) is None:
                    parts = list(key)
                    try:
                        _move(parts, prefix, (r,), True)
                    except ValueError:
                        mu = Partition._of(tuple(parts))
                        raise RuntimeError(f"operator left the A-regular set: {la} -{i}-> {mu}") from None
                    mu = layer[child] = Partition._of(child)
                edges.append((la, i, mu))
    return CrystalGraph(prefix, bound, tuple(vertices), tuple(edges))


def to_dot(graph: CrystalGraph) -> str:
    """Deterministic DOT rendering: node label = partition, edge label = residue."""
    lines = ["digraph crystal {"]
    for v in graph.vertices:
        lines.append(f'  "{format_partition(v)}";')
    for a, i, b in graph.edges:
        lines.append(f'  "{format_partition(a)}" -> "{format_partition(b)}" [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _farey_predecessor(y: Fraction, n: int) -> Fraction:
    """The largest fraction below y = p/q with denominator at most n >= q:
    r/s with p*s - q*r = 1 for the largest s <= n with s = p^-1 (mod q)."""
    p, q = y.numerator, y.denominator
    s = n - (n - pow(p, -1, q)) % q
    return Fraction((p * s - 1) // q, s)


class Chain(_Frozen):
    """A regularisation chain from the arm prefix source to target.  Each
    prefix is the '+' prefix of its slope, so the ends fix the chain: it
    regularises at every slope of order n from the larger end's down to just
    above the smaller's; an inverse chain, whose source is the smaller end,
    applies the steps in reverse order as restrictisations.  The ends are
    all that == and the repr read; inverse and steps are cached on first
    read."""

    source: ArmPrefix
    target: ArmPrefix

    def __init__(self, source: ArmPrefix, target: ArmPrefix):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)

    def _args(self) -> tuple[ArmPrefix, ArmPrefix]:
        return (self.source, self.target)

    def __repr__(self) -> str:
        return f"Chain(source={self.source!r}, target={self.target!r})"

    @cached_property
    def inverse(self) -> bool:
        return self.source.slope < self.target.slope

    @cached_property
    def steps(self) -> tuple[LadderParams, ...]:
        """The ladder parameters of each step in descending slope order, by
        the Farey-predecessor recurrence of order n; built on first read."""
        upper, lower = (self.target, self.source) if self.inverse else (self.source, self.target)
        steps, y = [], upper.slope
        while y > lower.slope:
            steps.append(LadderParams(upper.e, y))
            y = _farey_predecessor(y, upper.n)
        return tuple(steps)


def iso_chain(a: ArmPrefix, b: ArmPrefix) -> Chain:
    """The regularisation chain realising the crystal isomorphism a -> b:
    forward when slope a >= slope b, else inverse.  Each value is
    floor(slope*t), so two prefixes of one (e, n) are always comparable
    value by value, in the order of their slopes."""
    if a.e != b.e or a.n != b.n:
        raise ValueError("arm prefixes must share e and length")
    return Chain(a, b)


def _holds(la: Partition, chain: Chain) -> Iterator[tuple[tuple[int, int], set[int]]]:
    """Apply chain to la on one bead set, yielding (lo, occ) as each hold of
    the step loop ends, once checked: the steps at loop slopes above lo not
    yet passed map la to occ (to la' on an inverse chain).  A forward chain
    regularises at the singular slopes in (slope target, slope source]: the
    loop until its slope falls to the target's, whose move is not made.  An
    inverse chain restrictises at them ascending: the loop on the conjugate
    display at slopes e - y, down to e - slope target inclusive.

    A hook (t, arm) of length e*t breaks the prefix of slope z exactly when
    arm/t <= z < (arm + 1)/t.  A hold keeps the bead set from the moves at
    slope hi (or the start) to those at the next slope lo (or the floor), so
    its steps reach the prefixes of the slopes z of order n in [lo, hi), and
    one such z lies in [arm/t, (arm + 1)/t) exactly when arm/t < hi and
    (arm + 1)/t > lo: arm/t (denominator t <= n) does if arm/t >= lo, else
    lo does.  On the conjugate display, with arms e*t - 1 - arm, the same
    test says some e - z in (lo, hi] lies in (arm/t, (arm + 1)/t].  At the
    start slope it meets only hooks that the source check rejects.
    """
    source, target, e = chain.source, chain.target, chain.source.e
    if not is_A_regular(la, source):
        raise ValueError(f"{_brief(la.parts)} is not regular for the chain source")
    occ = beta_numbers(la, len(la))
    if chain.inverse:
        occ = conjugate_display(occ, 1, la.part(1) + len(la))
        start, end = e - source.slope, _farey_predecessor(e - target.slope, source.n)
    else:
        start, end = source.slope, target.slope
    start, end = start.as_integer_ratio(), end.as_integer_ratio()
    hooked = occ and e <= max(occ)  # else no hook has length e or more and nothing moves
    moves = takewhile(lambda slope: slope[0] * end[1] > end[0] * slope[1], _steps(occ, e, *start, True))
    for (hp, hq), (lp, lq) in _hold_ends(moves, start, end):
        hooks = _bead_hooks(map(sub, sorted(occ), range(len(occ))), e) if hooked else ()
        if any(arm * hq < hp * t and (arm + 1) * lq > lp * t for t, arm, _, _ in hooks):
            low, high = Fraction(lp, lq), Fraction(hp, hq)
            at = f"[{e - high}, {e - low})" if chain.inverse else f"[{low}, {high})"
            raise ValueError(f"chain left the regular set at a slope in {at}")
        yield (lp, lq), occ


def _decode(occ: set[int], chain: Chain) -> Partition:
    return from_beta_numbers(conjugate_display(occ, 1, max(occ) + 1) if chain.inverse else occ)


def chain_steps(la: Partition, chain: Chain) -> Iterator[tuple[LadderParams, Partition]]:
    """Yield (params, image) for each step of the chain applied to la: the
    steps in order, or in reverse as restrictisations on an inverse chain.
    Each hold of _holds, which checks the images, is decoded once."""
    steps, e, k = chain.steps[::-1] if chain.inverse else chain.steps, chain.source.e, 0
    for held, ((lp, lq), occ) in enumerate(_holds(la, chain)):
        mu = _decode(occ, chain) if held else la
        while k < len(steps) and (e - steps[k].y if chain.inverse else steps[k].y) * lq > lp:
            yield steps[k], mu
            k += 1


def apply_chain(la: Partition, chain: Chain) -> Partition:
    """Image of la under the chain: one encode, the step loop of _holds and
    one decode, or la itself when nothing moves."""
    holds = list(_holds(la, chain))
    return _decode(holds[-1][1], chain) if len(holds) > 1 else la
