"""The Mullineux involution via descending-slope regularisations.

Starting from the conjugate of an e-regular partition, repeatedly
regularise at the largest hook slope (arm + 1) / r not exceeding the last
slope used, where the hook has length r*e.  The loop ends when no slope in
[1, x] remains; the result is the Mullineux image.  The loop is
ladders._steps on one bead set, whose one kernel walk per move finds the
next slope and bead; the image is decoded once.  _loop takes la' on any
number of beads, so separation.verify_split runs it on the display it
holds and never decodes it.
An independent check walks the e-regular crystal: peel to the empty
partition by good-node removals and rebuild with negated residues.  A
caller that walks many partitions in increasing size may pass the oracle
(or peel_and_rebuild) a ``known`` table of part tuple -> image that the same
(src, dst, order, sign) gave before; the peel then stops at the first vertex
in the table and rebuilds from its image, and records la's image there.
The table holds only the oracle's own images, so it stays a route
independent of the ladder loop; by the crystal commutation
m(e_i la) = e_{-i} m(la) (Kleshchev) the images equal the untabled ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator

from .crystals import ArmPrefix, _move, _move_string, _signed_nodes, e_op
from .ladders import LadderParams, _hold_ends, _steps, regularise
from .partitions import (Hook, Partition, _beads_restricted, _sorted_hooks, beta_numbers, from_beta_numbers,
                         hooks_divisible_by)


def slopes(mu: Partition, e: int) -> set[Fraction]:
    """Slopes (arm + 1) / r over the hooks of mu of length r*e (not used by mullineux)."""
    if e < 2:
        raise ValueError("e must be at least 2")
    return {Fraction(arm + 1, t) for t, arm, _ in hooks_divisible_by(mu, e)}


def _loop(occ: set[int], e: int) -> Iterator[tuple[int, int]]:
    """The loop's moves on the bead set occ of mu = la', made in place;
    ValueError unless mu is e-restricted, that is, la is e-regular, which
    partitions._beads_restricted reads off occ.  Beads added at the bottom
    shift every hook alike, so every bead count of mu gives the same moves;
    occ is decoded only for the error message."""
    if e < 1 or not _beads_restricted(occ, e):
        if e < 1:
            raise ValueError("e must be positive")
        if e == 1:
            raise ValueError("only the empty partition is 1-regular")
        raise ValueError(f"{from_beta_numbers(occ).conjugate().parts} is not {e}-regular")
    return _steps(occ, e, e - 1, 1, True)


def _conjugate_image(mu: Partition, e: int) -> Partition:
    """mullineux(mu', e), run from mu without building mu'."""
    occ = beta_numbers(mu, len(mu))
    return from_beta_numbers(occ) if sum(1 for _ in _loop(occ, e)) else mu


def mullineux_steps(la: Partition, e: int) -> Iterator[tuple[Fraction, Partition]]:
    """Yield each (slope, regularised partition) pair of the descending loop.

    The loop starts from la' with ceiling x = e - 1; each round takes the
    largest hook slope y in [1, x], regularises at y, and lowers x to y.
    The bead set is decoded once per round; the first hold, of la', is skipped.
    """
    mu = la.conjugate()
    occ = beta_numbers(mu, len(mu))
    for (p, q), _ in islice(_hold_ends(_loop(occ, e), None, None), 1, None):
        yield Fraction(p, q), from_beta_numbers(occ)


def mullineux(la: Partition, e: int) -> Partition:
    """The Mullineux image of an e-regular partition."""
    return _conjugate_image(la.conjugate(), e)


def mullineux_oracle(
    la: Partition, e: int, residue_choice: str = "min", *, known: dict | None = None
) -> Partition:
    """Independent Mullineux computation through the e-regular crystal.

    Peel la down to the empty partition by good-node removals, recording
    the residues, then rebuild from the empty partition by cogood
    additions at the negated residues in reverse order, both in the
    crystal of the slope-1 '-' prefix A_t = t - 1 for t = 1..n, with
    n = max(1, ceil(|la|/e)).  Its slope is (n - 1)/n, and it is built
    trusted, as its values are valid by construction.  The
    ``residue_choice`` picks which good residue to peel when several exist
    ('min' or 'max'); the result is independent of the choice.  ``known``
    is peel_and_rebuild's table, kept by the caller for one (e,
    residue_choice).
    """
    if e == 1:
        if la:
            raise ValueError("only the empty partition is 1-regular")
        return la
    if not la.is_e_regular(e):
        raise ValueError(f"{la.parts} is not {e}-regular")
    if residue_choice not in ("min", "max"):
        raise ValueError("residue_choice must be 'min' or 'max'")
    n = max(1, -(-la.size // e))
    prefix = ArmPrefix._of(e, tuple(range(n)), Fraction(n - 1, n))
    order = range(e) if residue_choice == "min" else range(e - 1, -1, -1)
    return peel_and_rebuild(la, prefix, prefix, order, -1, known=known)


def peel_and_rebuild(
    la: Partition, src: ArmPrefix, dst: ArmPrefix, order, sign: int, *, known: dict | None = None
) -> Partition:
    """Walk la to the empty partition, or to a vertex in ``known``, in the
    src crystal and back up in dst.

    The peel removes whole good strings: the first residue i in ``order``
    with a good node loses all of them (e_i applied epsilon_i times), and
    the run (i, count) is recorded.  The rebuild adds, last run first, count
    cogood nodes in dst at the residue sign*i mod e (f applied count times).
    The crystal is connected from the empty partition, so every path to it
    gives the same image.  One walk of every residue of la picks the first
    string; its first node is removed by the one e_op call, which checks la
    in full, and the rest as that walk listed them.  After it, each string
    moves on one row list in place, each node checked as it moves (shape
    and hooks), raising ValueError if it fails.  Each later peeled string
    takes one walk of every residue, and each rebuilt string one walk of
    its residue.

    ``known`` maps part tuples to the images that this same (src, dst,
    order, sign) gave them, and defaults to {(): Partition()}.  The peel
    stops after the first string that ends at a vertex in the table and
    rebuilds from that vertex's image; la's image is then recorded in the
    table.  The first removal is still e_op's full check of la.  A caller
    that walks the crystal's vertices in increasing size finds e_i^max la
    in the table, so each instance peels and rebuilds one string.
    """
    if not la:
        return la
    if known is None:
        known = {(): Partition()}
    if la.size > dst.bound:
        raise ValueError(f"|la| = {la.size} exceeds the crystal bound {dst.bound}")
    signed = _signed_nodes(la.parts, src)
    i = next((i for i in order if i in signed and signed[i][0]), None)
    # e_op checks la in full, so a singular la raises even if no residue has a good node
    mu = e_op(la, src, next(iter(order)) if i is None else i)
    if i is None or mu is None:
        raise AssertionError(f"no good node on {la.parts}")
    parts = list(mu.parts)
    runs = [(i, 1 + _move(parts, src, signed[i][0][-2::-1], False))]
    while (vertex := tuple(parts)) not in known:
        signed = _signed_nodes(parts, src)
        i = next((i for i in order if i in signed and signed[i][0]), None)
        if i is None:
            raise AssertionError(f"no good node on {vertex}")
        runs.append((i, _move(parts, src, signed[i][0][::-1], False)))
    parts = list(known[vertex].parts)
    for i, count in reversed(runs):
        i = sign * i % src.e
        if _move_string(parts, dst, i, True, count) < count:
            raise AssertionError(f"no cogood {i}-node on {tuple(parts)}")
    image = known[la.parts] = Partition._of(tuple(parts))
    return image


def james_regularise(la: Partition, e: int) -> Partition:
    """Slope-1 regularisation: push nodes to the tops of their ladders."""
    return regularise(la, LadderParams(e, 1))


def hook_class(arm: int, leg: int, e: int) -> str:
    """'steep' (leg >= (e-1)*arm), 'shallow' (arm >= (e-1)*leg), 'both' or 'neither'."""
    steep = leg >= (e - 1) * arm
    shallow = arm >= (e - 1) * leg
    if steep and shallow:
        return "both"
    if steep:
        return "steep"
    if shallow:
        return "shallow"
    return "neither"


def classify_hooks(la: Partition, e: int) -> list[tuple[Hook, str]]:
    """Steep/shallow classification of every hook of length divisible by e."""
    if e < 2:
        raise ValueError("e must be at least 2")
    return [(h, hook_class(h.arm, h.leg, e)) for h in _sorted_hooks(la, e)]


@dataclass(frozen=True)
class LyleReport:
    """Comparison of the Mullineux image of la^reg with (la')^reg."""

    partition: Partition
    e: int
    regularised: Partition
    mullineux_image: Partition
    conjugate_regularised: Partition
    dominates: bool
    equal: bool
    all_steep_or_shallow: bool

    @property
    def criterion_matches(self) -> bool:
        return self.equal == self.all_steep_or_shallow


def lyle_check(la: Partition, e: int) -> LyleReport:
    """Check that m_e(la^reg) dominates (la')^reg, with equality exactly when
    every e-divisible hook of la is steep or shallow.  The report is
    _lyle_report's on the three images computed here; verify's lyle suite
    passes it the same images from its per-run tables."""
    reg = james_regularise(la, e)
    return _lyle_report(la, e, reg, mullineux(reg, e), james_regularise(la.conjugate(), e))


def _lyle_report(la: Partition, e: int, reg: Partition, image: Partition, conj_reg: Partition) -> LyleReport:
    """The LyleReport of la given reg = la^reg, image = m_e(reg) and
    conj_reg = (la')^reg, which the caller has computed.  Each e-divisible
    hook is classified from its (t, arm) in hooks_divisible_by, with leg
    e*t - 1 - arm; no Hook is built or sorted."""
    hooks = ((arm, e * t - 1 - arm) for t, arm, _ in hooks_divisible_by(la, e))
    return LyleReport(
        partition=la,
        e=e,
        regularised=reg,
        mullineux_image=image,
        conjugate_regularised=conj_reg,
        dominates=image.dominates(conj_reg),
        equal=image == conj_reg,
        all_steep_or_shallow=all(hook_class(arm, leg, e) != "neither" for arm, leg in hooks),
    )
