"""Integer partitions and Young-diagram combinatorics.

Partitions are stored as weakly decreasing tuples of positive integers with
trailing zeros dropped.  Young diagrams follow the English convention: the
node ``(r, c)`` sits in row ``r`` (growing downward) and column ``c``, both
indexed from 1.

Hook data comes from one pass over a display, _bead_hooks, which lists
the hooks of length divisible by m as flat tuples.  hooks() reads it at
m = 1, hooks_divisible_by for the Lyle report and the ladder counts, and
crystals._holds on the bead set a chain carries; none of them builds a
conjugate.  The regularisation loop keeps only its best hook, in its own
pass (ladders._top_hook).  The regularity predicates test one column per
arm A_t instead (_row_avoids).  A bead set has one reader, _bead_rows:
from_beta_numbers keeps its nonzero rows, and ladders._rows_key keys them
with no Partition built.  _beads_restricted tests a bead set for
restrictedness.  The e-content is a tuple of e residue counts (e_content).
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from itertools import accumulate, count, groupby, islice
from operator import ge, gt, sub
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
    """Immutable weakly decreasing sequence of positive integers; the
    constructor checks its input in full, and _of is the trusted one."""

    __slots__ = ("parts", "size")

    parts: tuple[int, ...]
    size: int

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(map(int, parts))
        if ps and (ps[-1] <= 0 or not all(map(ge, ps, ps[1:]))):
            for i, p in enumerate(ps):  # the first bad index names the fault
                if p <= 0:
                    raise ValueError(f"parts must be positive, got {_brief(ps)}")
                if i and ps[i - 1] < p:
                    raise ValueError(f"parts must be weakly decreasing, got {_brief(ps)}")
        self.parts = ps
        self.size = sum(ps)

    @classmethod
    def _of(cls, parts: tuple[int, ...]) -> "Partition":
        """The partition of parts, unchecked: for tuples valid by construction,
        as in conjugate, remove_node and the moves crystals._move passed."""
        la = object.__new__(cls)
        la.parts, la.size = parts, sum(parts)
        return la

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
        cols: list[int] = []
        for r in range(len(self.parts), 0, -1):  # columns ending in row r
            cols += [r] * (self.parts[r - 1] - len(cols))
        return Partition._of(tuple(cols))

    def dominates(self, other: "Partition") -> bool:
        """True if every prefix sum of this partition is >= other's.

        Defined only for partitions of equal size; raises ValueError
        otherwise rather than answering False.
        """
        if self.size != other.size:
            raise ValueError(
                f"dominance is defined only for equal sizes: {self.size} != {other.size}"
            )
        # map stops at the shorter, where one side's sum is the full size
        return all(map(ge, accumulate(self.parts), accumulate(other.parts)))

    def hooks(self) -> list[Hook]:
        """All hooks, one per node, in row-major order: _bead_hooks at
        m = 1, whose t is the hook length."""
        parts, n = self.parts, len(self.parts)
        hooks = []
        for length, arm, b, part in _bead_hooks(reversed(parts), 1):
            r = n - b + part
            c, leg = part - arm, length - 1 - arm
            hooks.append(Hook((r, c), length, arm, leg, (r, part), (r + leg, c)))
        return sorted(hooks)

    def remove_rim_hook(self, corner: Node) -> "Partition":
        """Remove the rim hook corresponding to the hook at ``corner``.

        On beta-numbers this is a single bead move: the bead of row r, at
        position lambda_r + n - r on n = len(self) beads, has lambda_r empty
        positions below it, and the hook at (r, c) pairs it with the c-th
        of them from the bottom (c - 1 of them lie below, as the arm
        lambda_r - c counts those between).  The bead slides there.
        """
        if corner not in self:
            raise ValueError(f"{corner} is not a node of {_brief(self.parts)}")
        r, c = corner
        n = len(self.parts)
        betas = beta_numbers(self, n)
        betas.remove(self.parts[r - 1] + n - r)
        gaps = (p for p in count() if p not in betas)
        betas.add(next(islice(gaps, c - 1, None)))
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

    def remove_node(self, node: Node) -> "Partition":
        r, c = node
        if node not in self.removable_nodes():
            raise ValueError(f"{node} is not a removable node of {_brief(self.parts)}")
        ps = list(self.parts)
        ps[r - 1] -= 1
        if ps[-1] == 0:
            ps.pop()
        return Partition._of(tuple(ps))

    def e_content(self, e: int) -> tuple[int, ...]:
        """The number of nodes of each residue (c - r) mod e = 0, ..., e - 1,
        so two partitions have equal e-content exactly when their tuples are
        equal."""
        if e < 2:
            raise ValueError("e must be at least 2")
        counts = [0] * e
        for r, p in enumerate(self.parts):  # the nodes of row r + 1 have contents -r, ..., p - 1 - r
            for k in range(-r, p - r):
                counts[k % e] += 1
        return tuple(counts)

    def is_e_regular(self, e: int) -> bool:
        """True if no e parts are equal (for e = 1: only the empty partition)."""
        if e < 1:
            raise ValueError("e must be positive")
        return all(map(gt, self.parts, self.parts[e - 1:]))

    def is_e_restricted(self, e: int) -> bool:
        """True if all consecutive part differences are < e."""
        if e < 1:
            raise ValueError("e must be positive")
        return all(a - b < e for a, b in zip(self.parts, self.parts[1:] + (0,)))


def _bead_hooks(parts: Iterable[int], m: int) -> list[tuple[int, int, int, int]]:
    """(t, arm, b, part) for every hook of length m*t of a display, given
    the gap counts below its beads from the bottom up (zeros allowed): b is
    the bead over the hook's gap g, part the bead's gap count and arm the
    gaps strictly between.  b and g share a runner of the m-runner abacus,
    so one pass up the positions files each gap under its runner with its
    own gap count, and pairs each bead with the gaps filed there before it:
    bead by bead from the bottom, each bead's gaps upward."""
    runners: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    hooks = []
    pos = gaps = 0  # the next position, and the gaps below it
    for part in parts:
        while gaps < part:
            runners[pos % m].append((pos, gaps))
            pos += 1
            gaps += 1
        if run := runners[pos % m]:
            edge = part - 1
            for g, below in run:
                hooks.append(((pos - g) // m, edge - below, pos, part))
        pos += 1
    return hooks


def hooks_divisible_by(la: Partition, m: int) -> list[tuple[int, int, int]]:
    """(t, arm, r) for every hook of la of length m*t, with r its row.

    On the bead set of la, a hook is a bead over a gap below it:
    its length is their distance and its arm the number of gaps strictly
    between.  A hook of length m*t pairs a bead with a gap on the same
    runner of the m-runner abacus, so _bead_hooks lists at most |la|/m
    hooks and never builds the conjugate.  No pass starts when m exceeds
    the largest hook length la_1 + len(la) - 1 (the empty partition has no
    hooks).  m must be positive.
    """
    if m < 1:
        raise ValueError("m must be positive")
    parts = la.parts
    if not parts or m > parts[0] + len(parts) - 1:
        return []
    n = len(parts)  # the bead b of row r has part = b - (n - r) gaps below it
    return [(t, arm, n - b + part) for t, arm, b, part in _bead_hooks(reversed(parts), m)]


def _row_avoids(parts, r: int, m: int, arms: Iterable[int]) -> bool:
    """True when no hook of row r <= len(parts) has length m*t and arm A_t,
    for arms A_1, A_2, ... that never fall with legs m*t - A_t - 1 that rise.

    For each t one column is tested, parts[r-1] - A_t, which must end at
    exactly row r + m*t - A_t - 1; once A_t reaches the row's length or that
    row passes the last, every later t is out too, so at most
    len(parts) - r + 1 columns are tested, and none past the last arm.
    """
    pr, rows, end = parts[r - 1], len(parts), r - 1
    for arm in arms:
        end += m
        foot = end - arm  # the hook's foot row, 1-indexed
        if arm >= pr or foot > rows:
            return True
        c = pr - arm
        if parts[foot - 1] >= c and (foot == rows or parts[foot] < c):
            return False
    return True


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
    """Partition decoded from a finite set of distinct beta-numbers: the
    nonzero rows that _bead_rows reads off it."""
    occ = positions if isinstance(positions, (set, frozenset)) else set(positions)
    return Partition._of(tuple([p for p in _bead_rows(occ) if p]))


def _bead_rows(occ: Iterable[int]) -> Iterator[int]:
    """The row lengths of the bead set occ from the top, one per bead: with
    beads at b_1 > ... > b_n, row r has length b_r + r - n.  They fall
    weakly, and each bead below the partition's rows reads as a zero row.
    The one reader of a bead set: from_beta_numbers keeps the nonzero rows,
    and ladders._rows_key stops at the first zero."""
    beads = sorted(occ, reverse=True)
    if beads and beads[-1] < 0:
        raise ValueError("beta-numbers must be non-negative")
    return map(sub, beads, range(len(beads) - 1, -1, -1))


def _beads_restricted(occ: Iterable[int], c: int) -> bool:
    """True when no two consecutive beads of the bead set occ, counting a
    bead at -1, lie more than c apart: b_r - b_(r+1) = la_r - la_(r+1) + 1,
    so this is la.is_e_restricted(c) for the partition la of occ, on any
    bead count (the beads below la's rows are one apart)."""
    beads = sorted(occ)
    return max(map(sub, beads, [-1, *beads]), default=1) <= c


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


def _brief(parts) -> str:
    """The name of a partition in a message: the CLI's comma form with ^
    runs, which parse_partition reads, "-" if empty; past 200 characters,
    the runs that end by then, ",..." and the counts of parts and nodes."""
    text = ",".join(f"{p}^{k}" if (k := len(list(run))) > 1 else str(p) for p, run in groupby(parts)) or "-"
    cut = text.rfind(",", 0, 201)
    return text if len(text) <= 200 else f"{text[:cut]},... ({len(parts)} parts, size {sum(parts)})"


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, each once, in lexicographically decreasing order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        yield Partition()
        return
    parts = [n]
    while True:
        yield Partition._of(tuple(parts))
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
