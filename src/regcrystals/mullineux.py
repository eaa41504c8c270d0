"""The Mullineux involution via descending-slope regularisations.

Starting from the conjugate of an e-regular partition, repeatedly
regularise at the largest hook slope (arm + 1) / r not exceeding the last
slope used, where the hook has length r*e.  The loop ends when no slope in
[1, x] remains; the result is the Mullineux image.  An independent check
walks the e-regular crystal: peel to the empty partition by good-node
removals and rebuild with negated residues.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .crystals import ArmPrefix, _move_string, e_op
from .ladders import LadderParams, hooks_divisible_by, regularise
from .partitions import Hook, Partition


def slopes(mu: Partition, e: int) -> set[Fraction]:
    """Slopes (arm + 1) / r over the hooks of mu of length r*e."""
    if e < 2:
        raise ValueError("e must be at least 2")
    return {Fraction(arm + 1, t) for t, arm in hooks_divisible_by(mu, e)}


def mullineux_steps(la: Partition, e: int) -> Iterator[tuple[Fraction, Partition]]:
    """Yield each (slope, regularised partition) pair of the descending loop.

    The loop starts from la' with ceiling x = e - 1; each round takes the
    largest hook slope y in [1, x], regularises at y, and lowers x to y.
    """
    if e == 1:
        if la:
            raise ValueError("only the empty partition is 1-regular")
        return
    if not la.is_e_regular(e):
        raise ValueError(f"{la.parts} is not {e}-regular")
    mu = la.conjugate()
    x = Fraction(e - 1)
    while True:
        active = [s for s in slopes(mu, e) if 1 <= s <= x]
        if not active:
            return
        y = max(active)
        mu = regularise(mu, LadderParams(e, y))
        x = y
        yield y, mu


def mullineux(la: Partition, e: int) -> Partition:
    """The Mullineux image of an e-regular partition."""
    mu = la.conjugate()
    for _, mu in mullineux_steps(la, e):
        pass
    return mu


def mullineux_oracle(la: Partition, e: int, residue_choice: str = "min") -> Partition:
    """Independent Mullineux computation through the e-regular crystal.

    Peel la down to the empty partition by good-node removals, recording
    the residues, then rebuild from the empty partition by cogood
    additions at the negated residues in reverse order.  The
    ``residue_choice`` picks which good residue to peel when several exist
    ('min' or 'max'); the result is independent of the choice.
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
    prefix = ArmPrefix.from_slope(e, 1, n, "-")
    order = range(e) if residue_choice == "min" else range(e - 1, -1, -1)
    return peel_and_rebuild(la, prefix, prefix, order, -1)


def peel_and_rebuild(la: Partition, src: ArmPrefix, dst: ArmPrefix, order, sign: int) -> Partition:
    """Walk la to the empty partition in the src crystal and back up in dst.

    The peel removes whole good strings: the first residue i in ``order``
    with a good node loses all of them (e_i applied epsilon_i times), and
    the run (i, count) is recorded.  The rebuild adds, last run first, count
    cogood nodes in dst at the residue sign*i mod e (f applied count times).
    Removing i-nodes changes only the i-1, i and i+1 signatures, so a
    residue found without a good node is skipped until a string of a
    neighbouring residue is removed.  The crystal is connected from the
    empty partition, so every path to it gives the same image.  The first
    removal is e_op's, which checks la in full; after it, each string moves
    on one row list in place, one walk per run, and each node is checked as
    it moves, raising ValueError if it fails.
    """
    if not la:
        return la
    if la.size > dst.bound:
        raise ValueError(f"|la| = {la.size} exceeds the crystal bound {dst.bound}")
    e, bare = src.e, set()  # bare: residues with no good node on parts
    for i in order:
        mu = e_op(la, src, i)
        if mu is not None:
            break
        bare.add(i)
    else:
        raise AssertionError(f"no good node on {la.parts}")
    parts = list(mu.parts)
    runs = [(i, 1 + _move_string(parts, src, i, False))]
    while parts:
        bare = bare - {(i - 1) % e, (i + 1) % e} | {i}
        for i in order:
            if i not in bare:
                count = _move_string(parts, src, i, False)
                if count:
                    break
                bare.add(i)
        else:
            raise AssertionError(f"no good node on {tuple(parts)}")
        runs.append((i, count))
    for i, count in reversed(runs):
        i = sign * i % e
        if _move_string(parts, dst, i, True, count) < count:
            raise AssertionError(f"no cogood {i}-node on {tuple(parts)}")
    return Partition(parts)


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
    return [(h, hook_class(h.arm, h.leg, e)) for h in la.hooks() if h.length % e == 0]


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
    every e-divisible hook of la is steep or shallow."""
    reg = james_regularise(la, e)
    image = mullineux(reg, e)
    conj_reg = james_regularise(la.conjugate(), e)
    return LyleReport(
        partition=la,
        e=e,
        regularised=reg,
        mullineux_image=image,
        conjugate_regularised=conj_reg,
        dominates=image.dominates(conj_reg),
        equal=image == conj_reg,
        all_steep_or_shallow=all(cls != "neither" for _, cls in classify_hooks(la, e)),
    )
