"""Arm-sequence crystals on partitions.

An arm prefix A = (A_1, ..., A_n) with t-1 <= A_t <= (e-1)t and
A_{t+u} - A_t - A_u in {0, 1} determines a finite crystal: vertices are
the A-regular partitions of size at most n*e (no hook of length e*t with
arm exactly A_t), and the operators remove the good i-node / add the
cogood i-node read off from the reduced i-signature in the A-dependent
node order.  A-regularity reads the hooks of length divisible by e off the
bead set; build_graph searches from the empty partition through f_op, and
`verify crystal` checks it against the enumerate-and-filter route.  Crystals
for any two prefixes are isomorphic via a chain of ladder regularisations
obtained by repeatedly splitting off the largest slope max(A_t / t);
apply_chain is the last image of chain_steps, which yields each step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterator

from .ladders import LadderParams, hooks_divisible_by, regularise, restrictise
from .partitions import Node, Partition, format_partition, residue


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
    """The first n values of an arm sequence for modulus e."""

    # _checked: the partition e_op/f_op last verified A-regular (both types are immutable)
    __slots__ = ("e", "values", "_checked")

    e: int
    values: tuple[int, ...]

    def __init__(self, e: int, values):
        e = int(e)
        vals = tuple(int(v) for v in values)
        if e < 2:
            raise ValueError("e must be at least 2")
        if not vals:
            raise ValueError("need at least one value")
        for t, v in enumerate(vals, start=1):
            if not t - 1 <= v <= (e - 1) * t:
                raise ValueError(f"A_{t} = {v} outside [{t - 1}, {(e - 1) * t}]")
        n = len(vals)
        for t in range(1, n):
            for u in range(1, n - t + 1):
                gap = vals[t + u - 1] - vals[t - 1] - vals[u - 1]
                if gap not in (0, 1):
                    raise ValueError(
                        f"A_{t + u} - A_{t} - A_{u} = {gap} violates the arm-sequence axiom"
                    )
        self.e = e
        self.values = vals
        self._checked = None

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


def node_compare(prefix: ArmPrefix, a: Node, b: Node) -> int:
    """-1, 0 or 1: the total order on nodes of equal residue.

    With (s - r) + (c - d) = e*t oriented so t >= 0, the node (r, c)
    precedes (s, d) exactly when c - d <= A_t (A_0 read as 0).
    """
    if a == b:
        return 0
    (r, c), (s, d) = a, b
    diff = (s - r) + (c - d)
    if diff % prefix.e:
        raise ValueError(f"nodes {a} and {b} differ in residue mod {prefix.e}")
    if diff < 0:
        return -node_compare(prefix, b, a)
    return -1 if c - d <= prefix.arm(diff // prefix.e) else 1


def _signed_i_nodes(la: Partition, prefix: ArmPrefix, i: int) -> list[tuple[Node, str]]:
    """Addable (+) and removable (-) i-nodes sorted descending in the node order."""
    e = prefix.e
    pairs = [(nd, "+") for nd in la.addable_nodes() if residue(nd, e) == i]
    pairs += [(nd, "-") for nd in la.removable_nodes() if residue(nd, e) == i]
    pairs.sort(key=cmp_to_key(lambda x, y: node_compare(prefix, x[0], y[0])), reverse=True)
    return pairs


def i_signature(la: Partition, prefix: ArmPrefix, i: int) -> str:
    """Signs of the addable/removable i-nodes, greatest node first."""
    if la.size > prefix.bound:
        raise ValueError(f"|la| = {la.size} exceeds the crystal bound {prefix.bound}")
    return "".join(sign for _, sign in _signed_i_nodes(la, prefix, i))


def _surviving_indices(signs: list[str]) -> list[int]:
    stack: list[int] = []
    for idx, s in enumerate(signs):
        if s == "-" and stack and signs[stack[-1]] == "+":
            stack.pop()
        else:
            stack.append(idx)
    return stack


def reduce_signature(s: str) -> str:
    """Delete adjacent '+-' pairs to a fixpoint; the result is -...-+...+."""
    signs = list(s)
    if any(ch not in "+-" for ch in signs):
        raise ValueError(f"signature must be over '+'/'-': {s!r}")
    return "".join(signs[k] for k in _surviving_indices(signs))


def is_A_regular(la: Partition, prefix: ArmPrefix) -> bool:
    """True if la has no hook of length e*t with arm length exactly A_t."""
    if la.size > prefix.bound:
        raise ValueError(f"|la| = {la.size} exceeds the crystal bound {prefix.bound}")
    arms = prefix.values
    return all(arm != arms[t - 1] for t, arm in hooks_divisible_by(la, prefix.e))


def _checked_regular(la: Partition, prefix: ArmPrefix) -> bool:
    """is_A_regular(la, prefix), skipped when la is the partition last verified."""
    if la is not prefix._checked:
        if not is_A_regular(la, prefix):
            return False
        prefix._checked = la
    return True


def e_op(la: Partition, prefix: ArmPrefix, i: int) -> Partition | None:
    """Remove the good i-node (the last '-' of the reduced signature), or None."""
    if not _checked_regular(la, prefix):
        raise ValueError(f"{la.parts} is not regular for {prefix!r}")
    pairs = _signed_i_nodes(la, prefix, i)
    surviving = _surviving_indices([sign for _, sign in pairs])
    minus = [k for k in surviving if pairs[k][1] == "-"]
    if not minus:
        return None
    return la.remove_node(pairs[minus[-1]][0])


def f_op(la: Partition, prefix: ArmPrefix, i: int) -> Partition | None:
    """Add the cogood i-node (the first '+' of the reduced signature), or None."""
    if la.size + 1 > prefix.bound:
        raise ValueError(f"|la| + 1 = {la.size + 1} exceeds the crystal bound {prefix.bound}")
    if not _checked_regular(la, prefix):
        raise ValueError(f"{la.parts} is not regular for {prefix!r}")
    pairs = _signed_i_nodes(la, prefix, i)
    surviving = _surviving_indices([sign for _, sign in pairs])
    plus = [k for k in surviving if pairs[k][1] == "+"]
    if not plus:
        return None
    return la.add_node(pairs[plus[0]][0])


@dataclass(frozen=True)
class CrystalGraph:
    """The finite crystal on A-regular partitions of size at most the bound."""

    e: int
    arm: ArmPrefix
    bound: int
    vertices: tuple[Partition, ...]
    edges: tuple[tuple[Partition, int, Partition], ...]


def build_graph(prefix: ArmPrefix, max_size: int | None = None) -> CrystalGraph:
    """All A-regular partitions of size <= max_size with their f-operator edges,
    found breadth-first from the empty partition; each vertex is tested once."""
    bound = prefix.bound if max_size is None else max_size
    if bound < 0:
        raise ValueError(f"max_size {bound} is negative")
    if bound > prefix.bound:
        raise ValueError(f"max_size {bound} exceeds the prefix bound {prefix.bound}")
    vertices = [Partition()]
    reached_by = {vertices[0]: None}
    edges = []
    for la in vertices:
        if not _checked_regular(la, prefix):
            src, i = reached_by[la]
            raise RuntimeError(f"operator left the A-regular set: {src} -{i}-> {la}")
        if la.size == bound:
            continue
        for i in range(prefix.e):
            mu = f_op(la, prefix, i)
            if mu is not None:
                if mu not in reached_by:
                    reached_by[mu] = (la, i)
                    vertices.append(mu)
                edges.append((la, i, mu))
    vertices.sort(key=lambda p: (p.size, p.parts))
    edges.sort(key=lambda t: (t[0].size, t[0].parts, t[1]))
    return CrystalGraph(prefix.e, prefix, bound, tuple(vertices), tuple(edges))


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
    the ladder regularisation carrying prefixes[k] to prefixes[k + 1].
    With ``inverse`` set, the chain represents the map from prefixes[-1]
    up to prefixes[0], applied as restrictisations in reverse order.
    """

    prefixes: tuple[ArmPrefix, ...]
    steps: tuple[LadderParams, ...]
    inverse: bool = False

    @property
    def source(self) -> ArmPrefix:
        return self.prefixes[-1] if self.inverse else self.prefixes[0]

    @property
    def target(self) -> ArmPrefix:
        return self.prefixes[0] if self.inverse else self.prefixes[-1]


def _descending_chain(a: ArmPrefix, b: ArmPrefix) -> tuple[tuple[ArmPrefix, ...], tuple[LadderParams, ...]]:
    e, n = a.e, a.n
    prefixes = [a]
    steps = []
    cur = a
    while cur.values != b.values:
        y = max(Fraction(cur.values[t - 1], t) for t in range(1, n + 1))
        if cur.values != tuple(arm_plus(y, t) for t in range(1, n + 1)):
            raise AssertionError("prefix does not match its extremal slope")
        nxt_vals = tuple(arm_minus(y, t) for t in range(1, n + 1))
        if any(nv < bv for nv, bv in zip(nxt_vals, b.values)):
            raise AssertionError("chain step descended past the target prefix")
        steps.append(LadderParams(e, y))
        cur = ArmPrefix(e, nxt_vals)
        prefixes.append(cur)
    return tuple(prefixes), tuple(steps)


def iso_chain(a: ArmPrefix, b: ArmPrefix) -> Chain:
    """The regularisation chain realising the crystal isomorphism a -> b.

    Each step regularises at the largest slope max(A_t / t) of the current
    prefix, replacing it by the matching lower arm prefix, until b is
    reached.  For a < b the chain is built from b down to a and marked
    inverse (applied as restrictisations in reverse order).
    """
    if a.e != b.e or a.n != b.n:
        raise ValueError("arm prefixes must share e and length")
    if all(x >= y for x, y in zip(a.values, b.values)):
        prefixes, steps = _descending_chain(a, b)
        return Chain(prefixes, steps, inverse=False)
    if all(x <= y for x, y in zip(a.values, b.values)):
        prefixes, steps = _descending_chain(b, a)
        return Chain(prefixes, steps, inverse=True)
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
