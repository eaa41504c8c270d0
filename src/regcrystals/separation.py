"""Separated partitions on the abacus and the Mullineux splitting theorems.

Fix a union I of residue classes mod e with complement Ibar, c = |I| and
cbar = e - c, and an n-bead display (e | n).  Reading only the I-positions
(in order, renumbered from 0) gives a c-runner display for a partition
la_I, and likewise la_Ibar on the complement.  A partition is I-separated
when its first empty I-position comes after its last occupied
Ibar-position.  The splitting theorem computes m_e(la') for separated
partitions from m_c and m_cbar on the two halves; iterating it over
runners gives the quotient-separated description of the Mullineux map.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count
from typing import NamedTuple

from .abacus import (
    default_beads,
    e_core,
    e_quotient,
    encode,  # noqa: F401  unused here; bench/test_bench.py checks that the tracer wraps it here
    from_core_and_quotient,
    runner_counts,
    to_global,
    to_local,
)
from .mullineux import mullineux
from .partitions import Partition, beta_numbers, from_beta_numbers


@dataclass(frozen=True)
class SplitContext:
    """Runner split data: modulus e, residue set I, bead count n and the
    number u of beads on I-positions (None when not yet pinned)."""

    e: int
    residues: frozenset[int]
    n: int
    u: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "residues", frozenset(int(i) for i in self.residues))
        if self.e < 2:
            raise ValueError("e must be at least 2")
        if not self.residues or any(i < 0 or i >= self.e for i in self.residues):
            raise ValueError(f"I must be a nonempty subset of [0, {self.e})")
        if len(self.residues) >= self.e:
            raise ValueError("I must be a proper subset of the residue classes")
        if self.n <= 0 or self.n % self.e:
            raise ValueError(f"bead count {self.n} must be a positive multiple of {self.e}")
        if self.u is not None and not 0 <= self.u <= self.n:
            raise ValueError(f"u = {self.u} outside [0, {self.n}]")

    @property
    def c(self) -> int:
        return len(self.residues)

    @property
    def c_bar(self) -> int:
        return self.e - len(self.residues)

    @property
    def complement(self) -> frozenset[int]:
        return frozenset(range(self.e)) - self.residues

    def with_u(self, u: int) -> "SplitContext":
        return replace(self, u=u)


class SplitResult(NamedTuple):
    lambda_I: Partition
    lambda_Ibar: Partition
    u: int


def is_separated(la: Partition, ctx: SplitContext) -> bool:
    """True if the first empty I-position comes after the last occupied
    complement position (read as -1 when no complement position is occupied)."""
    e, res = ctx.e, ctx.residues
    occ = beta_numbers(la, ctx.n)
    last_bar = max((p for p in occ if p % e not in res), default=-1)
    return all(p in occ for p in range(last_bar) if p % e in res)


def split(la: Partition, ctx: SplitContext) -> SplitResult:
    """Read off (la_I, la_Ibar, u) from the n-bead display."""
    occ = beta_numbers(la, ctx.n)
    local_i = to_local(occ, ctx.e, ctx.residues)
    local_ibar = to_local(occ, ctx.e, ctx.complement)
    return SplitResult(from_beta_numbers(local_i), from_beta_numbers(local_ibar), len(local_i))


def combine(beta: Partition, gamma: Partition, ctx: SplitContext) -> Partition:
    """The unique partition with exactly u beads on I-positions whose halves
    are beta (on I) and gamma (on the complement)."""
    if ctx.u is None:
        raise ValueError("the context must fix u to combine")
    occ = to_global(beta_numbers(beta, ctx.u), ctx.e, ctx.residues)
    occ |= to_global(beta_numbers(gamma, ctx.n - ctx.u), ctx.e, ctx.complement)
    return from_beta_numbers(occ)


def box_row(alpha: Partition, beta: Partition, c_bar: int) -> Partition:
    """Row-wise combination: r-th part = c_bar * alpha_r + beta_r."""
    rows = max(len(alpha), len(beta))
    return Partition(
        c_bar * alpha.part(r) + beta.part(r) for r in range(1, rows + 1)
    )


def box_col(alpha: Partition, beta: Partition, c: int) -> Partition:
    """Column-wise combination: the parts of beta together with c copies of
    each part of alpha, sorted decreasing."""
    parts = list(beta.parts)
    for p in alpha.parts:
        parts.extend([p] * c)
    return Partition(sorted(parts, reverse=True))


def build_split_pair(
    alpha: Partition, beta: Partition, gamma: Partition, ctx: SplitContext
) -> tuple[Partition, Partition]:
    """The pair (la, mu) of the splitting theorem.

    la has la_I = beta and la_Ibar = cbar*alpha + gamma row-wise; mu has
    mu_I = the parts of m_c(beta') with c copies of each part of alpha',
    and mu_Ibar = m_cbar(gamma').  beta must be c-restricted and gamma
    cbar-restricted (forced empty when c or cbar is 1).
    """
    c, cb = ctx.c, ctx.c_bar
    if not beta.is_e_restricted(c):
        raise ValueError(f"beta = {beta.parts} is not {c}-restricted")
    if not gamma.is_e_restricted(cb):
        raise ValueError(f"gamma = {gamma.parts} is not {cb}-restricted")
    la = combine(beta, box_row(alpha, gamma, cb), ctx)
    mu = combine(
        box_col(alpha.conjugate(), mullineux(beta.conjugate(), c), c),
        mullineux(gamma.conjugate(), cb),
        ctx,
    )
    return la, mu


@dataclass(frozen=True)
class SplitReport:
    """Outcome of one splitting-theorem instance."""

    verdict: str  # "holds" | "hypothesis-not-met" | "falsified"
    la: Partition
    mu: Partition
    la_separated: bool
    mu_separated: bool
    mullineux_image: Partition | None


def verify_split(
    alpha: Partition, beta: Partition, gamma: Partition, ctx: SplitContext
) -> SplitReport:
    """Check one instance: when both la and mu are I-separated, assert that
    m_e(la') = mu; otherwise report that the hypothesis is not met."""
    la, mu = build_split_pair(alpha, beta, gamma, ctx)
    la_sep = is_separated(la, ctx)
    mu_sep = is_separated(mu, ctx)
    if not (la_sep and mu_sep):
        return SplitReport("hypothesis-not-met", la, mu, la_sep, mu_sep, None)
    image = mullineux(la.conjugate(), ctx.e)
    verdict = "holds" if image == mu else "falsified"
    return SplitReport(verdict, la, mu, la_sep, mu_sep, image)


def _box_step(nu: Partition, ctx: SplitContext) -> Partition:
    """One column-box move towards the (e, cbar)-regularisation of an
    I-separated partition nu whose complement half is not cbar-restricted.

    Internal diagnostic for the single-step equivalence test.
    """
    cb = ctx.c_bar
    nu_i, nu_ibar, u = split(nu, ctx)
    s = next(
        (r for r in range(1, len(nu_ibar) + 1) if nu_ibar.part(r) - nu_ibar.part(r + 1) >= cb),
        None,
    )
    if s is None:
        raise ValueError(f"{nu_ibar.parts} is already {cb}-restricted")
    reduced = [p - cb if r < s else p for r, p in enumerate(nu_ibar.parts)]
    tau = Partition(p for p in reduced if p > 0)
    xi_i = box_col(Partition([s]), nu_i, ctx.c)
    return combine(xi_i, tau, ctx.with_u(u))


def quotient_sigma(la: Partition, e: int) -> tuple[int, ...]:
    """Runners ordered by (bead count, left-to-right position).  e more beads
    put one more on every runner, so the order does not depend on the bead
    count."""
    counts = runner_counts(beta_numbers(la, default_beads(la, e)), e)
    return tuple(sorted(range(e), key=lambda i: (counts[i], i)))


def is_quotient_separated(la: Partition, e: int) -> bool:
    """True if, for every pair of runners in sigma order, the last bead of
    the earlier runner precedes the first gap of the later one.  e more
    beads shift every runner alike, so the bead count does not matter."""
    sigma = quotient_sigma(la, e)
    occ = beta_numbers(la, default_beads(la, e))
    last_bead = [max((p for p in occ if p % e == i), default=-1) for i in range(e)]
    first_gap = [next(p for p in count(i, e) if p not in occ) for i in range(e)]
    return all(
        last_bead[sigma[k]] < first_gap[sigma[l]] for k in range(e) for l in range(k + 1, e)
    )


def paget_mu(la: Partition, e: int) -> Partition:
    """The quotient-shifted partner of an e-restricted, e-quotient-separated
    partition: same e-core, empty first quotient component in sigma order,
    and each later component the conjugate of its predecessor in la.  The
    result is the same for every bead count, so none is taken."""
    if not la.is_e_restricted(e):
        raise ValueError(f"{la.parts} is not {e}-restricted")
    if not is_quotient_separated(la, e):
        raise ValueError(f"{la.parts} is not {e}-quotient separated")
    sigma = quotient_sigma(la, e)
    quot = e_quotient(la, e)
    new_quot: list[Partition] = [Partition()] * e
    for k in range(2, e + 1):
        new_quot[sigma[k - 1]] = quot[sigma[k - 2]].conjugate()
    return from_core_and_quotient(e_core(la, e), new_quot, e)
