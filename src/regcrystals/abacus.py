"""Abacus displays: bead configurations encoding partitions on e runners.

Positions 0, 1, 2, ... run left to right along successive rows of an
e-runner abacus, so position p sits on runner p mod e.  The n-bead display
of a partition puts beads at its n beta-numbers; conjugation truncates at a
multiple m of e and places beads at m - 1 - t for every empty position t < m.

A display is its bead set, a plain set of positions, with the runner count
e passed alongside wherever it matters.  The bead set has one codec:
partitions.beta_numbers encodes and partitions.from_beta_numbers decodes
(encode and decode name them here).  The e-quotient reads each runner's
positions directly, position p becoming p // e; the positions on a union of
runners are renumbered 0, 1, 2, ... by to_local (separation places its
halves back through its own tables of those positions), and from_runners
is the one assembly of a display from per-runner bead counts and quotient
components.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .partitions import Partition, _brief, beta_numbers, from_beta_numbers


def check_runners(e: int) -> None:
    """Raise ValueError unless an e-runner abacus has at least one runner."""
    if e < 1:
        raise ValueError("an abacus needs at least one runner")


def default_beads(la: Partition, e: int) -> int:
    """Smallest multiple of e that is >= len(la) + e."""
    check_runners(e)
    rows = len(la.parts)
    return -(-(rows + e) // e) * e


def encode(la: Partition, n: int, e: int) -> set[int]:
    """The bead set of la's n-bead display on e runners: its n beta-numbers."""
    check_runners(e)
    return beta_numbers(la, n)


def decode(occupied: Iterable[int]) -> Partition:
    """The partition whose display has beads at the occupied positions."""
    return from_beta_numbers(occupied)


def conjugate_display(occupied: set[int], e: int, m: int) -> set[int]:
    """Truncate at position m and swap beads with gaps, rotated through 180 degrees.

    Decodes to the conjugate of decode(occupied).  Requires m to be a
    multiple of the runner count e and larger than every occupied position.
    """
    if m % e:
        raise ValueError(f"m = {m} is not a multiple of e = {e}")
    if occupied and m <= max(occupied):
        raise ValueError(f"m = {m} does not exceed the last bead")
    return {m - 1 - t for t in range(m) if t not in occupied}


def runner_counts(positions: Iterable[int], e: int) -> list[int]:
    """Bead count on each runner 0..e-1 of a position set."""
    counts = [0] * e
    for p in positions:
        counts[p % e] += 1
    return counts


def from_runners(quotient: Sequence[Partition], counts: Sequence[int]) -> Partition:
    """The partition whose display has counts[i] beads on runner i, read as quotient[i].

    Runner i of the e = len(quotient) runners holds i + e*k for each
    beta-number k of quotient[i] on counts[i] beads; empty components give
    the core.  Raises ValueError when some counts[i] < len(quotient[i]).
    """
    return from_beta_numbers(_runner_beads(quotient, counts))


def _runner_beads(quotient: Sequence[Partition], counts: Sequence[int]) -> set[int]:
    """The bead set that from_runners decodes, built as one set: runner i
    holds i + e*k for the u beta-numbers k of q = quotient[i], namely
    k = 0 .. u - len(q) - 1 and k = q_r + u - r for each row r of q."""
    e = len(quotient)
    beads = []
    for i, (q, u) in enumerate(zip(quotient, counts)):
        rows = len(q.parts)
        if u < rows:
            raise ValueError(f"need at least {rows} beads, got {u}")
        top = i + e * u
        beads += range(i, i + e * (u - rows), e)
        beads += [top + e * (p - r) for r, p in enumerate(q.parts, start=1)]
    return set(beads)


def e_core(la: Partition, e: int, n: int | None = None) -> Partition:
    """The partition left after sliding every bead fully up its runner."""
    if n is None:
        n = default_beads(la, e)
    return from_runners([Partition._of(())] * e, runner_counts(beta_numbers(la, n), e))


def e_quotient(la: Partition, e: int, n: int | None = None) -> list[Partition]:
    """Each runner read as a 1-runner display; component i comes from runner i.

    n must be a multiple of e so that runner labels agree with position
    residues; the components are then independent of the choice of n.
    """
    if n is None:
        n = default_beads(la, e)
    if n % e:
        raise ValueError(f"bead count {n} must be a multiple of e = {e}")
    return _quotient(beta_numbers(la, n), e)


def _quotient(occ: set[int], e: int) -> list[Partition]:
    """e_quotient on a bead set whose size is a multiple of e, bucketing
    the beads by runner in one pass."""
    runners = [set() for _ in range(e)]
    for p in occ:
        runners[p % e].add(p // e)
    return list(map(from_beta_numbers, runners))


def from_core_and_quotient(core: Partition, quotient: list[Partition], e: int) -> Partition:
    """The unique partition with the given e-core and e-quotient."""
    if len(quotient) != e:
        raise ValueError(f"need {e} quotient components, got {len(quotient)}")
    if e_core(core, e) != core:
        raise ValueError(f"{_brief(core.parts)} is not an {e}-core")
    return _fit_runners(quotient, runner_counts(beta_numbers(core, default_beads(core, e)), e))


def _fit_runners(quotient: Sequence[Partition], counts: Sequence[int]) -> Partition:
    """from_runners after giving every runner the fewest extra beads that let
    each component fit.  e more beads put one more on every runner and
    leave the partition unchanged, so counts may come from any display of
    the core whose bead count is a multiple of e."""
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
    return _to_local(positions, e, {r: k for k, r in enumerate(_classes(e, residues))})


def _to_local(positions: Iterable[int], e: int, rank: dict[int, int]) -> set[int]:
    """to_local for the rank table of the kept residues: each one's index
    among them, sorted and checked as _classes returns them."""
    c = len(rank)
    return {(p // e) * c + rank[p % e] for p in positions if p % e in rank}


# The name under which the bench gives to_local a span.
restrict_to_classes = to_local


def render(occupied: set[int], e: int) -> str:
    """Text grid of the bead set on e runners, with runner headers: 'b' marks
    a bead, '.' a gap."""
    width = len(str(e - 1))
    rows = (max(occupied) // e + 1) if occupied else 1
    lines = [" ".join(str(i).rjust(width) for i in range(e))]
    for row in range(rows):
        lines.append(
            " ".join(("b" if row * e + i in occupied else ".").rjust(width) for i in range(e))
        )
    return "\n".join(lines)
