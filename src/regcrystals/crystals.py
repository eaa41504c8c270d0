"""Arm-sequence crystals on partitions.

An arm prefix A = (A_1, ..., A_n) with t-1 <= A_t <= (e-1)t and
A_{t+u} - A_t - A_u in {0, 1} determines a finite crystal: vertices are
the A-regular partitions of size at most n*e (no hook of length e*t with
arm exactly A_t), and the operators remove the good i-node / add the
cogood i-node read off from the reduced i-signature in the A-dependent
node order.  That order comes from the values alone: every prefix is the
start of the arm sequence floor(y*t) of its slope y = max A_t / t =
Y / (E/e), and two i-nodes compare as their keys (Y*r + (E - Y)*c, r - c),
the ladder depth first.  A-regularity reads the hooks of length
divisible by e off the bead set.  The i-string kernel walks the rows once
for residue i, then moves good i-nodes (last first) or cogood ones (first
first) of a row list in place, checking only the hooks of each moved row
and column as it moves; moving an i-node changes no other i-node's sign,
so one walk serves the whole string.  e_op/f_op check their input in full
on every call, with no memo, and move one node; mullineux.peel_and_rebuild
moves whole strings, one walk each.  build_graph grows the crystal one size
layer at a time, keyed by part tuples in sorted order; _cogood_nodes walks
each vertex once and reduces every residue's signature in one pass, and
each residue's cogood node gives an edge.  Crystals for any two prefixes
are isomorphic via a chain of ladder regularisations at the slope of each
prefix in turn; apply_chain is the last image of chain_steps, which yields
each step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .ladders import LadderParams, regularise, restrictise
from .partitions import Node, Partition, format_partition, hooks_divisible_by


def arm_plus(y, t: int) -> int:
    """floor(y*t), exactly."""
    if t < 1:
        raise ValueError("t must be positive")
    y = Fraction(y)
    return (y.numerator * t) // y.denominator


def arm_minus(y, t: int) -> int:
    """ceil(y*t - 1), exactly."""
    if t < 1:
        raise ValueError("t must be positive")
    y = Fraction(y)
    return -((-(y.numerator * t - y.denominator)) // y.denominator)


class ArmPrefix:
    """The first n values of an arm sequence for modulus e.

    The values alone fix the crystal: the operators read their node order
    off the slope, which __init__ derives from the values.  A prefix holds
    nothing else; e_op/f_op keep no memo on it.
    """

    __slots__ = {
        "e": "The modulus.",
        "values": "(A_1, ..., A_n).",
        "slope": """y = max A_t / t, set once from the values; A_t = floor(y*t) for every t.

        s*A_t < t*(A_s + 1) for all s, t <= n follows from the two axioms by
        induction on s + t, as in Euclid's algorithm, so A_t <= y*t < A_t + 1.
        Conversely, if A_t = floor(y*t) for every t, then A_{t+u} - A_t - A_u
        = floor(y*t + y*u) - floor(y*t) - floor(y*u) lies in {0, 1}, as
        floor(a + b) - floor(a) - floor(b) does for any reals a, b.  So values
        within their bounds satisfy the axiom exactly when they equal
        floor(y*t) for this y, and __init__ tests that in O(n); the O(n^2)
        pair loop runs only on rejected values, to name the first failing pair.
        """,
    }

    e: int
    values: tuple[int, ...]
    slope: Fraction

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
        self.e = e
        self.values = vals
        self.slope = Fraction(num, den)

    @classmethod
    def from_slope(cls, e: int, y, n: int, variant: str = "+") -> "ArmPrefix":
        """Prefix of the arm sequence floor(y*t) ('+') or ceil(y*t - 1) ('-')."""
        y = Fraction(y)
        if not 1 <= y <= e - 1:
            raise ValueError(f"slope {y} outside [1, {e - 1}]")
        if variant not in ("+", "-"):
            raise ValueError("variant must be '+' or '-'")
        fn = arm_plus if variant == "+" else arm_minus
        return cls(e, tuple(fn(y, t) for t in range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def bound(self) -> int:
        """Largest partition size the prefix can handle: n*e."""
        return self.n * self.e

    def arm(self, t: int) -> int:
        if t == 0:
            return 0
        if not 1 <= t <= self.n:
            raise ValueError(f"A_{t} lies beyond the stored prefix of length {self.n}")
        return self.values[t - 1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ArmPrefix) and (self.e, self.values) == (
            other.e,
            other.values,
        )

    def __hash__(self) -> int:
        return hash((self.e, self.values))

    def __repr__(self) -> str:
        return f"ArmPrefix(e={self.e}, values={self.values})"


def _signed_i_nodes(parts, prefix: ArmPrefix, i: int) -> list[tuple[Node, str]]:
    """Addable (+) and removable (-) i-nodes of parts, sorted descending in the node order.

    One walk down the rows finds them: row r ends in a removable node when
    the row below is shorter, and has an addable node after its end when the
    row above is longer.  A node (r, c) sorts by its key
    (Y*r + (E - Y)*c, r - c) for the prefix slope y = Y / (E/e).
    """
    e, y = prefix.e, prefix.slope
    wr = y.numerator
    wc = e * y.denominator - wr
    before = (i - 1) % e  # (c - r) mod e of the last node of a row with an addable i-node
    keyed = []
    above = None
    for r, (p, below) in enumerate(zip(parts, (*parts[1:], 0)), start=1):
        res = (p - r) % e
        if res == i and below < p:
            keyed.append((wr * r + wc * p, r - p, (r, p), "-"))
        elif res == before and above != p:
            keyed.append((wr * r + wc * (p + 1), r - p - 1, (r, p + 1), "+"))
        above = p
    r = len(parts) + 1
    if (1 - r) % e == i:
        keyed.append((wr * r + wc, r - 1, (r, 1), "+"))
    keyed.sort(reverse=True)
    return [(node, sign) for _, _, node, sign in keyed]


def _cogood_nodes(parts, prefix: ArmPrefix) -> dict[int, Node]:
    """The cogood i-node of parts for every residue i that has one, from one
    walk down the rows and one sort of every addable and removable node
    (the residue of a node is -(r - c) mod e, read off its key), then one
    pass in descending order that keeps a stack of the unmatched '+' nodes
    of each residue: a '-' pops its residue's last '+', and the bottom of
    each stack is the first '+' of its reduced signature."""
    e, y = prefix.e, prefix.slope
    wr = y.numerator
    wc = e * y.denominator - wr
    keyed = []
    above = None
    for r, (p, below) in enumerate(zip(parts, (*parts[1:], 0)), start=1):
        if below < p:
            keyed.append((wr * r + wc * p, r - p, None))
        if above != p:
            keyed.append((wr * r + wc * (p + 1), r - p - 1, (r, p + 1)))
        above = p
    r = len(parts) + 1
    keyed.append((wr * r + wc, r - 1, (r, 1)))
    keyed.sort(reverse=True)
    plus = {}
    for _, d, node in keyed:
        if node:
            plus.setdefault(-d % e, []).append(node)
        elif stack := plus.get(-d % e):
            stack.pop()
    return {i: stack[0] for i, stack in plus.items() if stack}


def i_signature(la: Partition, prefix: ArmPrefix, i: int) -> str:
    """Signs of the addable/removable i-nodes, greatest node first."""
    if la.size > prefix.bound:
        raise ValueError(f"|la| = {la.size} exceeds the crystal bound {prefix.bound}")
    return "".join(sign for _, sign in _signed_i_nodes(la.parts, prefix, i))


def _reduce(signed) -> tuple[list, list]:
    """The items of the '-' and of the '+' signs, in order, that survive
    deleting adjacent '+-' pairs to a fixpoint from the (item, sign) pairs."""
    minus, plus = [], []
    for item, sign in signed:
        if sign == "+":
            plus.append(item)
        elif plus:
            plus.pop()
        else:
            minus.append(item)
    return minus, plus


def reduce_signature(s: str) -> str:
    """Delete adjacent '+-' pairs to a fixpoint; the result is -...-+...+."""
    if any(ch not in "+-" for ch in s):
        raise ValueError(f"signature must be over '+'/'-': {s!r}")
    minus, plus = _reduce(enumerate(s))
    return "-" * len(minus) + "+" * len(plus)


def is_A_regular(la: Partition, prefix: ArmPrefix) -> bool:
    """True if la has no hook of length e*t with arm length exactly A_t."""
    if la.size > prefix.bound:
        raise ValueError(f"|la| = {la.size} exceeds the crystal bound {prefix.bound}")
    arms = prefix.values
    return all(arm != arms[t - 1] for t, arm, _ in hooks_divisible_by(la, prefix.e))


def _place(parts: list[int], node: Node, grow: bool) -> None:
    """Add (grow) or remove the addable or removable node of parts, in place."""
    r = node[0]
    if r > len(parts):
        parts.append(1)
    else:
        parts[r - 1] += 1 if grow else -1
        if not parts[-1]:  # a removable node in column 1 ends the last row
            parts.pop()


def _move_ok(parts: list[int], node: Node, prefix: ArmPrefix) -> bool:
    """True if no hook that moving node changed has length e*t and arm A_t,
    for parts just moved by _place from an A-regular partition.

    Adding or removing the node (r, c) moves one bead of the bead set, and
    the only hooks it changes are those of the moved bead (the hooks of row
    r) and of the gap it leaves (the hooks of column c above row r).
    """
    (r, c), e, arms, rows = node, prefix.e, prefix.values, len(parts)
    pr = parts[r - 1] if r <= rows else 0
    # row r: the columns in (parts[j], parts[j-1]] have leg j - r (j >= r, 0-based)
    upper = pr
    for j in range(r, rows + 1):
        lower = parts[j] if j < rows else 0
        if lower == upper:
            continue
        leg = j - r
        arm = pr - upper
        arm += -(arm + leg + 1) % e
        while arm < pr - lower:
            if arms[(arm + leg + 1) // e - 1] == arm:
                return False
            arm += e
        upper = lower
    # column c above row r, which ends at row r when (r, c) is a node of parts
    foot = r if pr >= c else r - 1
    for row in range(1, r):
        arm = parts[row - 1] - c
        length = arm + foot - row + 1
        if length % e == 0 and arms[length // e - 1] == arm:
            return False
    return True


def _move_string(parts: list[int], prefix: ArmPrefix, i: int, grow: bool, k: int | None = None) -> int:
    """Move up to k i-nodes of parts in place after one walk, and return how
    many moved: the cogood nodes in turn (f_i applied k times) if grow, else
    the good ones, last first (e_i applied k times); k None moves them all.

    Moving an i-node changes no other i-node's sign, so the reduced
    signature -^a +^b just loses its last '-' to its '+'s (or its first '+'
    to its '-'s), and the next node to move is the next one it kept.  Each
    move is checked as it is made; ValueError if one fails.
    """
    minus, plus = _reduce(_signed_i_nodes(parts, prefix, i))
    nodes = plus[:k] if grow else minus[::-1][:k]
    for node in nodes:
        _place(parts, node, grow)
        if not _move_ok(parts, node, prefix):
            raise ValueError(f"{tuple(parts)} is not regular for {prefix!r}")
    return len(nodes)


def _image(la: Partition, prefix: ArmPrefix, i: int, grow: bool) -> Partition | None:
    """f_op (grow) or e_op past the bound check: la checked in full."""
    if not is_A_regular(la, prefix):
        raise ValueError(f"{la.parts} is not regular for {prefix!r}")
    parts = list(la.parts)
    return Partition(parts) if _move_string(parts, prefix, i, grow, 1) else None


def e_op(la: Partition, prefix: ArmPrefix, i: int) -> Partition | None:
    """Remove the good i-node (the last '-' of the reduced signature), or None."""
    return _image(la, prefix, i, False)


def f_op(la: Partition, prefix: ArmPrefix, i: int) -> Partition | None:
    """Add the cogood i-node (the first '+' of the reduced signature), or None."""
    if la.size + 1 > prefix.bound:
        raise ValueError(f"|la| + 1 = {la.size + 1} exceeds the crystal bound {prefix.bound}")
    return _image(la, prefix, i, True)


@dataclass(frozen=True)
class CrystalGraph:
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
    _cogood_nodes pass per vertex below the bound gives each residue's
    cogood node, and each one gives an edge to the vertex with it added.
    Each vertex is built and checked once, by the move check from the first
    vertex that reaches it."""
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
            for i, node in sorted(_cogood_nodes(key, prefix).items()):
                parts = list(key)
                _place(parts, node, True)
                mu = layer.get(tuple(parts))
                if mu is None:
                    mu = Partition(parts)
                    if not _move_ok(parts, node, prefix):
                        raise RuntimeError(f"operator left the A-regular set: {la} -{i}-> {mu}")
                    layer[mu.parts] = mu
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


@dataclass(frozen=True)
class Chain:
    """A regularisation chain between two arm prefixes.

    ``prefixes`` descend from the larger prefix to the smaller; step k is
    the ladder regularisation at the slope of prefixes[k], which carries it
    to prefixes[k + 1].  With ``inverse`` set, the chain represents the map
    from prefixes[-1] up to prefixes[0], applied as restrictisations in
    reverse order.
    """

    prefixes: tuple[ArmPrefix, ...]
    inverse: bool = False

    @property
    def steps(self) -> tuple[LadderParams, ...]:
        """The ladder parameters of each step: the slope of every prefix but the last."""
        return tuple(LadderParams(p.e, p.slope) for p in self.prefixes[:-1])

    @property
    def source(self) -> ArmPrefix:
        return self.prefixes[-1] if self.inverse else self.prefixes[0]

    @property
    def target(self) -> ArmPrefix:
        return self.prefixes[0] if self.inverse else self.prefixes[-1]


def _descending_chain(a: ArmPrefix, b: ArmPrefix) -> tuple[ArmPrefix, ...]:
    """The prefixes from a down to b, each the arm_minus prefix of the last one's slope."""
    prefixes = [a]
    cur = a
    while cur.values != b.values:
        p, q = cur.slope.numerator, cur.slope.denominator
        nxt_vals = tuple((p * t - 1) // q for t in range(1, a.n + 1))  # arm_minus inline
        if any(nv < bv for nv, bv in zip(nxt_vals, b.values)):
            raise AssertionError("chain step descended past the target prefix")
        cur = ArmPrefix(a.e, nxt_vals)
        prefixes.append(cur)
    return tuple(prefixes)


def iso_chain(a: ArmPrefix, b: ArmPrefix) -> Chain:
    """The regularisation chain realising the crystal isomorphism a -> b.

    Each step regularises at the slope max(A_t / t) of the current prefix,
    replacing it by the matching lower arm prefix, until b is
    reached.  For a < b the chain is built from b down to a and marked
    inverse (applied as restrictisations in reverse order).
    """
    if a.e != b.e or a.n != b.n:
        raise ValueError("arm prefixes must share e and length")
    if all(x >= y for x, y in zip(a.values, b.values)):
        return Chain(_descending_chain(a, b), inverse=False)
    if all(x <= y for x, y in zip(a.values, b.values)):
        return Chain(_descending_chain(b, a), inverse=True)
    raise ValueError("arm prefixes are not comparable")


def chain_steps(la: Partition, chain: Chain) -> Iterator[tuple[LadderParams, Partition]]:
    """Yield (params, image) for each step of the chain applied to la.

    A forward chain regularises at its steps in order; an inverse chain
    restrictises at them in reverse.  la is checked regular for the chain
    source, and each image for the prefix its step reaches.
    """
    if not is_A_regular(la, chain.source):
        raise ValueError(f"{la.parts} is not regular for the chain source")
    op, pairs = regularise, zip(chain.steps, chain.prefixes[1:])
    if chain.inverse:
        op, pairs = restrictise, zip(reversed(chain.steps), reversed(chain.prefixes[:-1]))
    for params, target in pairs:
        la = op(la, params)
        if not is_A_regular(la, target):
            raise ValueError(f"chain left the regular set at {params!r}")
        yield params, la


def apply_chain(la: Partition, chain: Chain) -> Partition:
    """Image of la under the chain: the last image of chain_steps, or la
    itself for a chain of no steps."""
    for _, la in chain_steps(la, chain):
        pass
    return la
