"""Separated partitions on the abacus and the Mullineux splitting theorems.

Fix a union I of residue classes mod e with complement Ibar, c = |I| and
cbar = e - c, and an n-bead display (e | n).  Reading only the I-positions
(in order, renumbered from 0) gives a c-runner display for a partition
la_I, and likewise la_Ibar on the complement.  A partition is I-separated
when its first empty I-position comes after its last occupied
Ibar-position.  A SplitContext holds (e, I, n); combine, build_split_pair
and verify_split take the number u of beads on I-positions as an argument.
The splitting theorem computes m_e(la') for separated partitions from m_c
and m_cbar on the two halves; iterating it over runners gives the
quotient-separated description of the Mullineux map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import NamedTuple

from .abacus import (
    _fit_runners,
    _quotient,
    _to_global,
    _to_local,
    default_beads,
    encode,  # noqa: F401  unused here; bench/test_bench.py checks that the tracer wraps it here
    runner_counts,
)
from .mullineux import _conjugate_image
from .partitions import Partition, beta_numbers, from_beta_numbers


@dataclass(frozen=True)
class SplitContext:
    """Runner split data: modulus e, residue set I and bead count n.  The
    number u of beads on I-positions is an argument of each function that
    places two halves on the n beads."""

    e: int
    residues: frozenset[int]
    n: int

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

    @property
    def c(self) -> int:
        return len(self.residues)

    @property
    def c_bar(self) -> int:
        return self.e - len(self.residues)

    @property
    def complement(self) -> frozenset[int]:
        return frozenset(range(self.e)) - self.residues


class SplitResult(NamedTuple):
    lambda_I: Partition
    lambda_Ibar: Partition
    u: int


def is_separated(la: Partition, ctx: SplitContext) -> bool:
    """True if the first empty I-position comes after the last occupied
    complement position (read as -1 when no complement position is occupied)."""
    return _separated(beta_numbers(la, ctx.n), ctx)


def _separated(occ: set[int], ctx: SplitContext) -> bool:
    """is_separated on the n-bead set of the partition."""
    e, res = ctx.e, ctx.residues
    last_bar = max((p for p in occ if p % e not in res), default=-1)
    return all(p in occ for p in range(last_bar) if p % e in res)


def split(la: Partition, ctx: SplitContext) -> SplitResult:
    """Read off (la_I, la_Ibar, u) from the n-bead display."""
    occ = beta_numbers(la, ctx.n)
    res, res_bar = _runners(ctx)
    local_i = _to_local(occ, ctx.e, res)
    local_ibar = _to_local(occ, ctx.e, res_bar)
    return SplitResult(from_beta_numbers(local_i), from_beta_numbers(local_ibar), len(local_i))


def combine(beta: Partition, gamma: Partition, ctx: SplitContext, u: int) -> Partition:
    """The unique partition with exactly u beads on I-positions whose halves
    are beta (on I) and gamma (on the complement)."""
    return from_beta_numbers(_combined_beads(beta, gamma, ctx, u))


def _combined_beads(beta: Partition, gamma: Partition, ctx: SplitContext, u: int) -> set[int]:
    """The n-bead set that combine decodes."""
    if not 0 <= u <= ctx.n:
        raise ValueError(f"u = {u} outside [0, {ctx.n}]")
    res, res_bar = _runners(ctx)
    occ = _to_global(beta_numbers(beta, u), ctx.e, res)
    occ |= _to_global(beta_numbers(gamma, ctx.n - u), ctx.e, res_bar)
    return occ


def _runners(ctx: SplitContext) -> tuple[list[int], list[int]]:
    """The residues of I and of its complement, each sorted: the runner
    lists that the unchecked renumberings read, checked once by SplitContext."""
    return sorted(ctx.residues), [i for i in range(ctx.e) if i not in ctx.residues]


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


class _Halves(NamedTuple):
    lambda_I: Partition
    lambda_Ibar: Partition
    mu_I: Partition
    mu_Ibar: Partition


@lru_cache(maxsize=1024)
def _split_halves(
    alpha: Partition, beta: Partition, gamma: Partition, c: int, c_bar: int
) -> _Halves:
    """The four halves of the splitting pair, which do not depend on u, the
    residues or the bead count: each is computed once for every u."""
    if not beta.is_e_restricted(c):
        raise ValueError(f"beta = {beta.parts} is not {c}-restricted")
    if not gamma.is_e_restricted(c_bar):
        raise ValueError(f"gamma = {gamma.parts} is not {c_bar}-restricted")
    return _Halves(
        beta,
        box_row(alpha, gamma, c_bar),
        box_col(alpha.conjugate(), _conjugate_image(beta, c), c),
        _conjugate_image(gamma, c_bar),
    )


def _split_pair_beads(
    alpha: Partition, beta: Partition, gamma: Partition, ctx: SplitContext, u: int
) -> tuple[set[int], set[int]]:
    """The n-bead sets of the pair (la, mu) of build_split_pair."""
    h = _split_halves(alpha, beta, gamma, ctx.c, ctx.c_bar)
    return (
        _combined_beads(h.lambda_I, h.lambda_Ibar, ctx, u),
        _combined_beads(h.mu_I, h.mu_Ibar, ctx, u),
    )


def build_split_pair(
    alpha: Partition, beta: Partition, gamma: Partition, ctx: SplitContext, u: int
) -> tuple[Partition, Partition]:
    """The pair (la, mu) of the splitting theorem.

    la has la_I = beta and la_Ibar = cbar*alpha + gamma row-wise; mu has
    mu_I = the parts of m_c(beta') with c copies of each part of alpha',
    and mu_Ibar = m_cbar(gamma').  beta must be c-restricted and gamma
    cbar-restricted (forced empty when c or cbar is 1).
    """
    la_occ, mu_occ = _split_pair_beads(alpha, beta, gamma, ctx, u)
    return from_beta_numbers(la_occ), from_beta_numbers(mu_occ)


def split_u_range(
    alpha: Partition, beta: Partition, gamma: Partition, ctx: SplitContext
) -> range:
    """The u for which build_split_pair can place both pairs of halves on
    ctx.n beads: from max(len(la_I), len(mu_I)) to
    n - max(len(la_Ibar), len(mu_Ibar))."""
    h = _split_halves(alpha, beta, gamma, ctx.c, ctx.c_bar)
    low = max(len(h.lambda_I), len(h.mu_I))
    return range(low, ctx.n - max(len(h.lambda_Ibar), len(h.mu_Ibar)) + 1)


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
    alpha: Partition, beta: Partition, gamma: Partition, ctx: SplitContext, u: int
) -> SplitReport:
    """Check one instance: when both la and mu are I-separated, assert that
    m_e(la') = mu; otherwise report that the hypothesis is not met.

    la and mu are those of build_split_pair.  Their four halves do not
    depend on u, so they are computed once per (alpha, beta, gamma, c) and
    kept in a bounded memo; each u then only places them on the n beads,
    and separation is read off those bead sets before they are decoded.
    """
    la_occ, mu_occ = _split_pair_beads(alpha, beta, gamma, ctx, u)
    la, mu = from_beta_numbers(la_occ), from_beta_numbers(mu_occ)
    la_sep = _separated(la_occ, ctx)
    mu_sep = _separated(mu_occ, ctx)
    if not (la_sep and mu_sep):
        return SplitReport("hypothesis-not-met", la, mu, la_sep, mu_sep, None)
    image = _conjugate_image(la, ctx.e)
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
    return combine(xi_i, tau, ctx, u)


def quotient_sigma(la: Partition, e: int) -> tuple[int, ...]:
    """Runners ordered by (bead count, left-to-right position).  e more beads
    put one more on every runner, so the order does not depend on the bead
    count."""
    return _sigma(runner_counts(beta_numbers(la, default_beads(la, e)), e))


def _sigma(counts: list[int]) -> tuple[int, ...]:
    """quotient_sigma from the runner counts of a display."""
    return tuple(sorted(range(len(counts)), key=lambda i: (counts[i], i)))


def is_quotient_separated(la: Partition, e: int) -> bool:
    """True if, for every pair of runners in sigma order, the last bead of
    the earlier runner precedes the first gap of the later one.  e more
    beads shift every runner alike, so the bead count does not matter."""
    occ = beta_numbers(la, default_beads(la, e))
    return _quotient_separated(occ, e, _sigma(runner_counts(occ, e)))


def _quotient_separated(occ: set[int], e: int, sigma: tuple[int, ...]) -> bool:
    """is_quotient_separated on a bead set whose size is a multiple of e."""
    last_bead = [max((p for p in occ if p % e == i), default=-1) for i in range(e)]
    first_gap = [next(p for p in count(i, e) if p not in occ) for i in range(e)]
    return all(
        last_bead[sigma[k]] < first_gap[sigma[l]] for k in range(e) for l in range(k + 1, e)
    )


def paget_mu(la: Partition, e: int) -> Partition:
    """The quotient-shifted partner of an e-restricted, e-quotient-separated
    partition: same e-core, empty first quotient component in sigma order,
    and each later component the conjugate of its predecessor in la.  The
    result is the same for every bead count, so none is taken; the bead
    set of la is encoded once and every step reads it."""
    if not la.is_e_restricted(e):
        raise ValueError(f"{la.parts} is not {e}-restricted")
    occ = beta_numbers(la, default_beads(la, e))
    counts = runner_counts(occ, e)
    sigma = _sigma(counts)
    if not _quotient_separated(occ, e, sigma):
        raise ValueError(f"{la.parts} is not {e}-quotient separated")
    quot = _quotient(occ, e)
    new_quot: list[Partition] = [Partition()] * e
    for k in range(2, e + 1):
        new_quot[sigma[k - 1]] = quot[sigma[k - 2]].conjugate()
    return _fit_runners(new_quot, counts)
