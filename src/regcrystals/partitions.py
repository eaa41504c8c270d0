"""Integer partitions and Young-diagram combinatorics.

Partitions are stored as weakly decreasing tuples of positive integers with
trailing zeros dropped.  Young diagrams follow the English convention: the
node ``(r, c)`` sits in row ``r`` (growing downward) and column ``c``, both
indexed from 1.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Iterator
from typing import NamedTuple

Node = tuple[int, int]

_PART_TOKEN = re.compile(r"(\d+)(?:\^(\d+))?")

MAX_PARSE_SIZE = 100_000  # largest size parse_partition accepts, checked before expanding ^


class PartitionParseError(ValueError):
    """Raised for malformed partition strings."""


class Hook(NamedTuple):
    """Hook of a diagram node: corner, extent and end nodes."""

    corner: Node
    length: int
    arm: int
    leg: int
    hand: Node
    foot: Node


class Partition:
    """Immutable weakly decreasing sequence of positive integers."""

    __slots__ = ("parts", "size")

    parts: tuple[int, ...]
    size: int

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(int(p) for p in parts)
        for i, p in enumerate(ps):
            if p <= 0:
                raise ValueError(f"parts must be positive, got {ps}")
            if i and ps[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {ps}")
        self.parts = ps
        self.size = sum(ps)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def __str__(self) -> str:
        return format_partition(self)

    def part(self, r: int) -> int:
        """The r-th part (1-indexed), zero beyond the last row."""
        return self.parts[r - 1] if 1 <= r <= len(self.parts) else 0

    def __contains__(self, node: Node) -> bool:
        r, c = node
        return r >= 1 and c >= 1 and c <= self.part(r)

    def conjugate(self) -> "Partition":
        """Reflect the Young diagram in the main diagonal."""
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for c in range(p):
                cols[c] += 1
        return Partition(cols)

    def dominates(self, other: "Partition") -> bool:
        """True if every prefix sum of this partition is >= other's.

        Defined only for partitions of equal size; raises ValueError
        otherwise rather than answering False.
        """
        if self.size != other.size:
            raise ValueError(
                f"dominance is defined only for equal sizes: {self.size} != {other.size}"
            )
        acc_s = acc_o = 0
        for r in range(1, max(len(self), len(other)) + 1):
            acc_s += self.part(r)
            acc_o += other.part(r)
            if acc_s < acc_o:
                return False
        return True

    def hook(self, corner: Node) -> Hook:
        """The hook with the given corner node."""
        if corner not in self:
            raise ValueError(f"{corner} is not a node of {self.parts}")
        r, c = corner
        conj = self.conjugate()
        arm = self.part(r) - c
        leg = conj.part(c) - r
        return Hook(corner, arm + leg + 1, arm, leg, (r, self.part(r)), (conj.part(c), c))

    def hooks(self) -> list[Hook]:
        """All hooks, one per node, in row-major order."""
        conj = self.conjugate().parts
        out = []
        for r, row_len in enumerate(self.parts, start=1):
            for c in range(1, row_len + 1):
                arm = row_len - c
                leg = conj[c - 1] - r
                out.append(
                    Hook((r, c), arm + leg + 1, arm, leg, (r, row_len), (conj[c - 1], c))
                )
        return out

    def remove_rim_hook(self, corner: Node) -> "Partition":
        """Remove the rim hook corresponding to the hook at ``corner``.

        On beta-numbers this is a single bead move: the bead for the
        corner's row slides down by the hook length.
        """
        hk = self.hook(corner)
        betas = beta_numbers(self, len(self.parts))
        bead = sorted(betas, reverse=True)[corner[0] - 1]  # row r holds the r-th largest
        target = bead - hk.length
        if target < 0 or target in betas:
            raise AssertionError("rim hook removal produced an invalid bead move")
        betas.remove(bead)
        betas.add(target)
        return from_beta_numbers(betas)

    def addable_nodes(self) -> list[Node]:
        """Nodes whose addition yields a partition, top to bottom."""
        if not self.parts:
            return [(1, 1)]
        out = [(1, self.parts[0] + 1)]
        for i in range(1, len(self.parts)):
            if self.parts[i] < self.parts[i - 1]:
                out.append((i + 1, self.parts[i] + 1))
        out.append((len(self.parts) + 1, 1))
        return out

    def removable_nodes(self) -> list[Node]:
        """Nodes whose removal yields a partition, top to bottom."""
        out = []
        for i, p in enumerate(self.parts):
            if i + 1 == len(self.parts) or self.parts[i + 1] < p:
                out.append((i + 1, p))
        return out

    def add_node(self, node: Node) -> "Partition":
        r, c = node
        if node not in self.addable_nodes():
            raise ValueError(f"{node} is not an addable node of {self.parts}")
        ps = list(self.parts)
        if r == len(ps) + 1:
            ps.append(1)
        else:
            ps[r - 1] += 1
        return Partition(ps)

    def remove_node(self, node: Node) -> "Partition":
        r, c = node
        if node not in self.removable_nodes():
            raise ValueError(f"{node} is not a removable node of {self.parts}")
        ps = list(self.parts)
        ps[r - 1] -= 1
        if ps[-1] == 0:
            ps.pop()
        return Partition(ps)

    def e_content(self, e: int) -> Counter:
        """Multiset of node residues (c - r) mod e."""
        if e < 2:
            raise ValueError("e must be at least 2")
        cnt: Counter = Counter()
        for r, row_len in enumerate(self.parts, start=1):
            for c in range(1, row_len + 1):
                cnt[(c - r) % e] += 1
        return cnt

    def is_e_regular(self, e: int) -> bool:
        """True if no e parts are equal (for e = 1: only the empty partition)."""
        if e < 1:
            raise ValueError("e must be positive")
        if e == 1:
            return not self.parts
        run = 1
        for i in range(1, len(self.parts)):
            run = run + 1 if self.parts[i] == self.parts[i - 1] else 1
            if run >= e:
                return False
        return True

    def is_e_restricted(self, e: int) -> bool:
        """True if all consecutive part differences are < e."""
        if e < 1:
            raise ValueError("e must be positive")
        if e == 1:
            return not self.parts
        return all(
            self.part(r) - self.part(r + 1) < e for r in range(1, len(self.parts) + 1)
        )


def residue(node: Node, e: int) -> int:
    """Canonical representative of (col - row) mod e."""
    if e < 2:
        raise ValueError("e must be at least 2")
    r, c = node
    return (c - r) % e


def beta_numbers(la: Partition, n: int) -> set[int]:
    """The n beta-numbers lambda_r + n - r (r = 1..n) of la.

    This is the bead set of the n-bead abacus display; from_beta_numbers
    decodes it.  Raises ValueError when n < len(la).
    """
    parts = la.parts
    rows = len(parts)
    if n < rows:
        raise ValueError(f"need at least {rows} beads, got {n}")
    return {p + n - r for r, p in enumerate(parts, start=1)}.union(range(n - rows))


def from_beta_numbers(positions: Iterable[int]) -> Partition:
    """Partition decoded from a finite set of distinct beta-numbers.

    With beads at positions b_1 > ... > b_n, the partition is
    lambda_r = b_r + r - n.
    """
    occ = sorted(set(positions), reverse=True)
    n = len(occ)
    if occ and occ[-1] < 0:
        raise ValueError("beta-numbers must be non-negative")
    parts = []
    for i, b in enumerate(occ):
        p = b + i + 1 - n
        if p <= 0:
            break
        parts.append(p)
    return Partition(parts)


def parse_partition(text: str) -> Partition:
    """Parse "9,3^3,2" style text; "-" or the empty string mean the empty partition."""
    s = text.strip()
    if s in ("", "-"):
        return Partition()
    runs = []
    for tok in s.split(","):
        tok = tok.strip()
        m = _PART_TOKEN.fullmatch(tok)
        if not m:
            raise PartitionParseError(f"bad partition component {tok!r} in {text!r}")
        runs.append((int(m.group(1)), int(m.group(2) or 1)))
    size = sum(val * mult for val, mult in runs)
    if size > MAX_PARSE_SIZE:
        raise PartitionParseError(f"partition of size {size} exceeds the limit {MAX_PARSE_SIZE}")
    parts = [val for val, mult in runs for _ in range(mult)]
    try:
        return Partition(parts)
    except ValueError as exc:
        raise PartitionParseError(str(exc)) from None


def format_partition(la: Partition) -> str:
    """Comma-separated parts, "-" for the empty partition."""
    return ",".join(str(p) for p in la.parts) if la.parts else "-"


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, each once, in lexicographically decreasing order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        yield Partition()
        return
    parts = [n]
    while True:
        yield Partition(parts)
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        rem = len(parts) - i
        parts[i] -= 1
        cap = parts[i]
        del parts[i + 1 :]
        while rem > 0:
            take = min(cap, rem)
            parts.append(take)
            rem -= take
