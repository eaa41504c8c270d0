"""Abacus displays: bead configurations encoding partitions on e runners.

Positions 0, 1, 2, ... run left to right along successive rows of an
e-runner abacus, so position p sits on runner p mod e.  The n-bead display
of a partition puts beads at its n beta-numbers; conjugation truncates at a
multiple m of e and places beads at m - 1 - t for every empty position t < m.

The bead set has one codec: partitions.beta_numbers encodes and
partitions.from_beta_numbers decodes.  The positions on a union of runners
are renumbered by one pair, to_local and to_global, and from_runners is the
one assembly of a display from per-runner bead counts and quotient
components.  These work on plain position sets; only encode,
conjugate_display and restrict_to_classes build an Abacus.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .partitions import Partition, beta_numbers, from_beta_numbers


class Abacus:
    """A finite set of occupied positions on an e-runner abacus."""

    __slots__ = ("e", "occupied")

    e: int
    occupied: frozenset[int]

    def __init__(self, e: int, occupied: Iterable[int]):
        e = int(e)
        check_runners(e)
        occ = frozenset(int(p) for p in occupied)
        if any(p < 0 for p in occ):
            raise ValueError("positions must be non-negative")
        self.e = e
        self.occupied = occ

    @property
    def n(self) -> int:
        """Number of beads."""
        return len(self.occupied)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Abacus)
            and self.e == other.e
            and self.occupied == other.occupied
        )

    def __hash__(self) -> int:
        return hash((self.e, self.occupied))

    def __repr__(self) -> str:
        return f"Abacus(e={self.e}, occupied={sorted(self.occupied)})"


def check_runners(e: int) -> None:
    """Raise ValueError unless an e-runner abacus has at least one runner."""
    if e < 1:
        raise ValueError("an abacus needs at least one runner")


def default_beads(la: Partition, e: int) -> int:
    """Smallest multiple of e that is >= len(la) + e."""
    check_runners(e)
    rows = len(la.parts)
    return -(-(rows + e) // e) * e


def encode(la: Partition, n: int, e: int) -> Abacus:
    """The n-bead display for la: beads at its n beta-numbers."""
    return Abacus(e, beta_numbers(la, n))


def decode(ab: Abacus) -> Partition:
    """The partition encoded by the display."""
    return from_beta_numbers(ab.occupied)


def conjugate_display(ab: Abacus, m: int) -> Abacus:
    """Truncate at position m and swap beads with gaps, rotated through 180 degrees.

    Decodes to the conjugate of decode(ab).  Requires m to be a multiple of
    the runner count and larger than every occupied position.
    """
    if m % ab.e:
        raise ValueError(f"m = {m} is not a multiple of e = {ab.e}")
    if ab.occupied and m <= max(ab.occupied):
        raise ValueError(f"m = {m} does not exceed the last bead")
    return Abacus(ab.e, {m - 1 - t for t in range(m) if t not in ab.occupied})


def runner_counts(positions: Iterable[int], e: int) -> list[int]:
    """Bead count on each runner 0..e-1 of a position set."""
    counts = [0] * e
    for p in positions:
        counts[p % e] += 1
    return counts


def runner_profile(ab: Abacus) -> dict[int, int]:
    """Bead count on each runner, keyed by runner label 0..e-1."""
    return dict(enumerate(runner_counts(ab.occupied, ab.e)))


def from_runners(quotient: Sequence[Partition], counts: Sequence[int]) -> Partition:
    """The partition whose display has counts[i] beads on runner i, read as quotient[i].

    Runner i of the e = len(quotient) runners holds i + e*k for each
    beta-number k of quotient[i] on counts[i] beads; empty components give
    the core.  Raises ValueError when some counts[i] < len(quotient[i]).
    """
    e = len(quotient)
    return from_beta_numbers(
        i + e * k for i, (q, u) in enumerate(zip(quotient, counts)) for k in beta_numbers(q, u)
    )


def e_core(la: Partition, e: int, n: int | None = None) -> Partition:
    """The partition left after sliding every bead fully up its runner."""
    if n is None:
        n = default_beads(la, e)
    return from_runners([Partition()] * e, runner_counts(beta_numbers(la, n), e))


def e_quotient(la: Partition, e: int, n: int | None = None) -> list[Partition]:
    """Each runner read as a 1-runner display; component i comes from runner i.

    n must be a multiple of e so that runner labels agree with position
    residues; the components are then independent of the choice of n.
    """
    if n is None:
        n = default_beads(la, e)
    if n % e:
        raise ValueError(f"bead count {n} must be a multiple of e = {e}")
    occ = beta_numbers(la, n)
    return [from_beta_numbers(to_local(occ, e, (i,))) for i in range(e)]


def from_core_and_quotient(core: Partition, quotient: list[Partition], e: int) -> Partition:
    """The unique partition with the given e-core and e-quotient."""
    if len(quotient) != e:
        raise ValueError(f"need {e} quotient components, got {len(quotient)}")
    if e_core(core, e) != core:
        raise ValueError(f"{core.parts} is not an {e}-core")
    counts = runner_counts(beta_numbers(core, default_beads(core, e)), e)
    # e more beads put one more on every runner; add rows until each component fits
    extra = max(0, max(len(q) - u for q, u in zip(quotient, counts)))
    return from_runners(quotient, [u + extra for u in counts])


def grow_first_columns(la: Partition, m: int, e: int) -> Partition:
    """Lengthen each of the first m columns of la by e.

    Realised on the abacus by moving the bead at t - e up to t for the
    first m empty positions t, taken in increasing order; the display is
    sized so every such move is valid.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if m == 0:
        return la
    occ = beta_numbers(la, len(la.parts) + m * e)
    targets = []
    p = 0
    while len(targets) < m:
        if p not in occ:
            targets.append(p)
        p += 1
    for t in targets:
        assert t - e in occ and t not in occ
        occ.remove(t - e)
        occ.add(t)
    return from_beta_numbers(occ)


def _classes(e: int, residues: Iterable[int]) -> list[int]:
    res = sorted(set(map(int, residues)))
    if not res:
        raise ValueError("need at least one residue class")
    if any(i < 0 or i >= e for i in res):
        raise ValueError(f"residues must lie in [0, {e})")
    return res


def to_local(positions: Iterable[int], e: int, residues: Iterable[int]) -> set[int]:
    """The positions on the given runners, renumbered 0, 1, 2, ... in order.

    Position k of the result is the k-th position of the e-runner abacus
    whose residue is in the set, so the result is a display with one runner
    per kept residue class.
    """
    res = _classes(e, residues)
    rank = {r: k for k, r in enumerate(res)}
    c = len(res)
    return {(p // e) * c + rank[p % e] for p in positions if p % e in rank}


def to_global(local: Iterable[int], e: int, residues: Iterable[int]) -> set[int]:
    """Inverse of to_local: the k-th position whose residue is in the set, for each k."""
    res = _classes(e, residues)
    c = len(res)
    return {(k // c) * e + res[k % c] for k in local}


def restrict_to_classes(ab: Abacus, residues: Iterable[int]) -> Abacus:
    """Keep only the positions on the given runners, renumbered 0, 1, 2, ...

    The result is a display with one runner per kept residue class.
    """
    res = _classes(ab.e, residues)
    return Abacus(len(res), to_local(ab.occupied, ab.e, res))


def render(ab: Abacus) -> str:
    """Text grid with runner headers: 'b' marks a bead, '.' a gap."""
    width = len(str(ab.e - 1))
    rows = (max(ab.occupied) // ab.e + 1) if ab.occupied else 1
    lines = [" ".join(str(i).rjust(width) for i in range(ab.e))]
    for row in range(rows):
        lines.append(
            " ".join(
                ("b" if row * ab.e + i in ab.occupied else ".").rjust(width)
                for i in range(ab.e)
            )
        )
    return "\n".join(lines)
