"""Separated partitions on the abacus and the Mullineux splitting theorems.

Fix a union I of residue classes mod e with complement Ibar, c = |I| and
cbar = e - c, and an n-bead display (e | n).  Reading only the I-positions
(in order, renumbered from 0) gives a c-runner display for a partition
la_I, and likewise la_Ibar on the complement.  A partition is I-separated
when its first empty I-position comes after its last occupied
Ibar-position.  A SplitContext holds (e, I, n); combine, build_split_pair
and verify_split take the number u of beads on I-positions as an argument.

The four halves of the splitting theorem's pair (la, mu) depend on its
pieces (alpha, beta, gamma) and c only: split_pair builds them as one
SplitPair, which the caller passes with a context to each function that
places the pair on n beads, so nothing is kept between calls.

The checks run on n-bead sets, decoded only where a Partition is read:
_separated and _split take the set that is_separated and split encode
(_split gives the halves as local bead sets, which split decodes), and
verify_split runs the Mullineux loop on la's set and keeps la, mu and the
image as sets, which its SplitReport decodes on read.  A SplitContext
keeps the first n positions of I and of Ibar in order (its places), so
_combined_beads places a half's beads below its rows as one slice of them,
and _separated reads the I-positions below the last Ibar bead as a prefix.

Separation is monotone in u for fixed halves.  With u beads on I the
first empty I-position is local I-position u - len(la_I), which rises with
u; with n - u beads on Ibar the last occupied Ibar-position is local
position la_Ibar_1 + (n - u) - 1 (none when u = n), which falls.  So the u
at which a pair of halves is separated form a suffix of every u range, and
separation_thresholds reads where each suffix starts without building a
bead set.

The splitting theorem computes m_e(la') for separated partitions from m_c
and m_cbar on the two halves; iterating it over runners gives the
quotient-separated description of the Mullineux map.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple

from .abacus import (
    _fit_runners,
    _quotient,
    _to_local,
    default_beads,
    encode,  # noqa: F401  unused here; bench/test_bench.py checks that the tracer wraps it here
    runner_counts,
)
from .mullineux import _conjugate_image, _loop
from .partitions import Partition, beta_numbers, from_beta_numbers


@dataclass(frozen=True)
class SplitContext:
    """Runner split data: modulus e, residue set I and bead count n.  The
    number u of beads on I-positions is an argument of each function that
    places two halves on the n beads.  Three derived fields are built once
    from the checked fields and left out of repr, == and hashing: runners
    holds the residues of I and of its complement, each sorted, places
    the first n global positions of I and of the complement, in order
    (the k-th is k // c * e + runners[k % c]), which the placement and the
    separation test read by index, and ranks maps each residue of a side
    to its index in runners, by which _split renumbers."""

    e: int
    residues: frozenset[int]
    n: int
    runners: tuple[tuple[int, ...], tuple[int, ...]] = field(init=False, repr=False, compare=False)
    places: tuple[tuple[int, ...], tuple[int, ...]] = field(init=False, repr=False, compare=False)
    ranks: tuple[dict[int, int], dict[int, int]] = field(init=False, repr=False, compare=False)

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
        bar = tuple(i for i in range(self.e) if i not in self.residues)
        runners = (tuple(sorted(self.residues)), bar)
        object.__setattr__(self, "runners", runners)
        object.__setattr__(self, "places", tuple(
            tuple(k // len(res) * self.e + res[k % len(res)] for k in range(self.n)) for res in runners
        ))
        object.__setattr__(self, "ranks", tuple({r: k for k, r in enumerate(res)} for res in runners))

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
    """is_separated on the n-bead set of the partition: the beads are
    walked down to the last complement bead last_bar, and the I-places
    below it are a prefix of ctx.places[0].  If last_bar lies past every
    stored I-place, the prefix asks for all n beads on I, which an n-bead
    set holding a complement bead cannot have."""
    e, res = ctx.e, ctx.residues
    for last_bar in sorted(occ, reverse=True):
        if last_bar % e not in res:
            break
    else:
        last_bar = -1
    i_places = ctx.places[0]
    return occ.issuperset(i_places[:bisect_left(i_places, last_bar)])


def split(la: Partition, ctx: SplitContext) -> SplitResult:
    """Read off (la_I, la_Ibar, u) from the n-bead display: the display is
    encoded, and the two local bead sets of _split are decoded, u being
    the size of the first."""
    local_i, local_ibar = _split(beta_numbers(la, ctx.n), ctx)
    return SplitResult(from_beta_numbers(local_i), from_beta_numbers(local_ibar), len(local_i))


def _split(occ: set[int], ctx: SplitContext) -> tuple[set[int], set[int]]:
    """The bead sets of la_I and la_Ibar on the n-bead set occ of the
    partition: its beads on I and on the complement, each renumbered 0, 1,
    2, ... in order by the context's rank tables.  Nothing is decoded."""
    rank, rank_bar = ctx.ranks
    return _to_local(occ, ctx.e, rank), _to_local(occ, ctx.e, rank_bar)


def combine(beta: Partition, gamma: Partition, ctx: SplitContext, u: int) -> Partition:
    """The unique partition with exactly u beads on I-positions whose halves
    are beta (on I) and gamma (on the complement)."""
    return from_beta_numbers(_combined_beads(beta, gamma, ctx, u))


def _combined_beads(beta: Partition, gamma: Partition, ctx: SplitContext, u: int) -> set[int]:
    """The n-bead set that combine decodes: beta on the u beads of I and
    gamma on the n - u beads of the complement, each placed by _placed."""
    if not 0 <= u <= ctx.n:
        raise ValueError(f"u = {u} outside [0, {ctx.n}]")
    occ = _placed(beta, u, ctx, 0)
    occ |= _placed(gamma, ctx.n - u, ctx, 1)
    return occ


def _placed(half: Partition, b: int, ctx: SplitContext, side: int) -> set[int]:
    """The global positions of half's b beta-numbers on side 0 (I) or 1
    (the complement): the b - len(half) beads below its rows are the
    first places of the side, read off ctx.places, and the bead of row r,
    local position half_r + b - r, is renumbered on its own."""
    rows = len(half.parts)
    if b < rows:
        raise ValueError(f"need at least {rows} beads, got {b}")
    e, res = ctx.e, ctx.runners[side]
    c = len(res)
    occ = set(ctx.places[side][:b - rows])
    for r, p in enumerate(half.parts, start=1):
        k = p + b - r
        occ.add(k // c * e + res[k % c])
    return occ


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


class SplitPair(NamedTuple):
    """The halves of the splitting pair (la, mu), built by split_pair: one
    value serves every residue set I of size c, bead count and u."""

    lambda_I: Partition
    lambda_Ibar: Partition
    mu_I: Partition
    mu_Ibar: Partition


def split_pair(alpha: Partition, beta: Partition, gamma: Partition, c: int, c_bar: int) -> SplitPair:
    """The halves of the pair (la, mu) of the splitting theorem.

    la has la_I = beta and la_Ibar = cbar*alpha + gamma row-wise; mu has
    mu_I = the parts of m_c(beta') with c copies of each part of alpha',
    and mu_Ibar = m_cbar(gamma').  beta must be c-restricted and gamma
    cbar-restricted (forced empty when c or cbar is 1).
    """
    if not beta.is_e_restricted(c):
        raise ValueError(f"beta = {beta.parts} is not {c}-restricted")
    if not gamma.is_e_restricted(c_bar):
        raise ValueError(f"gamma = {gamma.parts} is not {c_bar}-restricted")
    return SplitPair(
        beta,
        box_row(alpha, gamma, c_bar),
        box_col(alpha.conjugate(), _conjugate_image(beta, c), c),
        _conjugate_image(gamma, c_bar),
    )


def build_split_pair(pair: SplitPair, ctx: SplitContext, u: int) -> tuple[Partition, Partition]:
    """The pair (la, mu) of the splitting theorem, with u beads on the
    I-positions of ctx.n; pair must be split_pair(..., ctx.c, ctx.c_bar)."""
    return combine(pair.lambda_I, pair.lambda_Ibar, ctx, u), combine(pair.mu_I, pair.mu_Ibar, ctx, u)


def split_u_range(pair: SplitPair, ctx: SplitContext) -> range:
    """The u for which build_split_pair can place both pairs of halves on
    ctx.n beads: from max(len(la_I), len(mu_I)) to
    n - max(len(la_Ibar), len(mu_Ibar)).  Within it the u at which la (or
    mu) is I-separated form a suffix: see the module docstring."""
    low = max(len(pair.lambda_I), len(pair.mu_I))
    return range(low, ctx.n - max(len(pair.lambda_Ibar), len(pair.mu_Ibar)) + 1)


def separation_thresholds(pair: SplitPair, ctx: SplitContext) -> tuple[int, int]:
    """(u_la, u_both): the least u in split_u_range at which la is
    I-separated, and the least at which both la and mu are.  Each is the
    range's stop when no u qualifies; la (and mu) are separated exactly at
    the u of the range from there on."""
    us = split_u_range(pair, ctx)
    u_la = _least_separated_u(pair.lambda_I, pair.lambda_Ibar, ctx, us)
    return u_la, max(u_la, _least_separated_u(pair.mu_I, pair.mu_Ibar, ctx, us))


def _least_separated_u(
    half_i: Partition, half_ibar: Partition, ctx: SplitContext, us: range
) -> int:
    """The least u in us at which combine(half_i, half_ibar, ctx, u) is
    I-separated, or us.stop: the first empty I-position against the last
    occupied Ibar-position, each renumbered as _placed does.  At u = n
    there is no Ibar bead: local position -1 renumbers below 0."""
    e, c, cb, n = ctx.e, ctx.c, ctx.c_bar, ctx.n
    res, res_bar = ctx.runners
    top = half_ibar.part(1) - 1
    for u in us:
        k, j = u - len(half_i), top + n - u
        if (k // c) * e + res[k % c] > (j // cb) * e + res_bar[j % cb]:
            return u
    return us.stop


@dataclass(frozen=True)
class SplitReport:
    """Outcome of one splitting-theorem instance, on the n-bead sets of la,
    mu and the Mullineux image m_e(la'); la, mu and mullineux_image decode
    them on each read.  The sets belong to the report: do not change them."""

    verdict: str  # "holds" | "hypothesis-not-met" | "falsified"
    la_beads: set[int]
    mu_beads: set[int]
    la_separated: bool
    mu_separated: bool
    image_beads: set[int] | None

    @property
    def la(self) -> Partition:
        return from_beta_numbers(self.la_beads)

    @property
    def mu(self) -> Partition:
        return from_beta_numbers(self.mu_beads)

    @property
    def mullineux_image(self) -> Partition | None:
        return None if self.image_beads is None else from_beta_numbers(self.image_beads)


def verify_split(pair: SplitPair, ctx: SplitContext, u: int) -> SplitReport:
    """Check one instance: when both la and mu are I-separated, assert that
    m_e(la') = mu; otherwise report that the hypothesis is not met.

    la and mu are those of build_split_pair, kept as bead sets: each u only
    places the pair's halves on the n beads, separation is read off those
    sets, and the Mullineux loop runs on a copy of la's set, whose result
    is compared with mu's.  Nothing is decoded.
    """
    la_occ = _combined_beads(pair.lambda_I, pair.lambda_Ibar, ctx, u)
    mu_occ = _combined_beads(pair.mu_I, pair.mu_Ibar, ctx, u)
    la_sep = _separated(la_occ, ctx)
    mu_sep = _separated(mu_occ, ctx)
    if not (la_sep and mu_sep):
        return SplitReport("hypothesis-not-met", la_occ, mu_occ, la_sep, mu_sep, None)
    image = set(la_occ)
    for _ in _loop(image, ctx.e):
        pass
    verdict = "holds" if image == mu_occ else "falsified"
    return SplitReport(verdict, la_occ, mu_occ, la_sep, mu_sep, image)


def _box_halves(nu_i: Partition, nu_ibar: Partition, c: int, cb: int) -> tuple[Partition, Partition]:
    """The halves (xi_I, tau) after one column-box move towards the (e, cbar)-regularisation
    of an I-separated nu with halves (nu_I, nu_Ibar), nu_Ibar not cbar-restricted: they
    depend on c and cbar only, so one pair serves every I and u."""
    s = next(
        (r for r in range(1, len(nu_ibar) + 1) if nu_ibar.part(r) - nu_ibar.part(r + 1) >= cb),
        None,
    )
    if s is None:
        raise ValueError(f"{nu_ibar.parts} is already {cb}-restricted")
    reduced = [p - cb if r < s else p for r, p in enumerate(nu_ibar.parts)]
    return box_col(Partition([s]), nu_i, c), Partition(p for p in reduced if p > 0)


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
    the earlier runner precedes the first gap of the later one: the bead
    set of la is encoded once and separated_quotients asked about its own
    quotient.  e more beads shift every runner alike, so the bead count
    does not matter."""
    occ = beta_numbers(la, default_beads(la, e))
    return bool(separated_quotients([[q] for q in _quotient(occ, e)], runner_counts(occ, e)))


def separated_quotients(choices: list[list[Partition]], counts: list[int]) -> list[tuple[Partition, ...]]:
    """The tuples of product(*choices), one component per runner, whose
    display with counts[i] >= len(q) beads on runner i is e-quotient
    separated (e = len(counts)), in product order: the one test of
    quotient separation.  Runner i holding q on u beads has its last bead
    at i + e*(q_1 + u - 1) (< 0 if u = 0) and its first gap at
    i + e*(u - len q); separation compares them pairwise in sigma order, so
    each runner extends only the prefixes it suits."""
    for qs, u in zip(choices, counts):
        if any(len(q) > u for q in qs):
            raise ValueError(f"runner bead count {u} is less than a component's length")
    e = len(counts)
    found = [((), ())]  # each separated prefix, with its runners' (last bead, first gap)
    for j, (qs, u) in enumerate(zip(choices, counts)):
        ends = [(q, j + e * (q.part(1) + u - 1), j + e * (u - len(q))) for q in qs]
        found = [
            ((*prefix, q), (*seen, (last, gap)))
            for prefix, seen in found
            for q, last, gap in ends
            # runner i < j comes before j in sigma order exactly when counts[i] <= u
            if all(a < gap if counts[i] <= u else last < b for i, (a, b) in enumerate(seen))
        ]
    return [prefix for prefix, _ in found]


def paget_mu(la: Partition, e: int) -> Partition:
    """The quotient-shifted partner of an e-restricted, e-quotient-separated
    partition: _paget_partner of the quotient and runner counts of la's
    bead set, encoded once.  No bead count is taken, as none matters."""
    if not la.is_e_restricted(e):
        raise ValueError(f"{la.parts} is not {e}-restricted")
    occ = beta_numbers(la, default_beads(la, e))
    quot, counts = _quotient(occ, e), runner_counts(occ, e)
    if not separated_quotients([[q] for q in quot], counts):
        raise ValueError(f"{la.parts} is not {e}-quotient separated")
    return _paget_partner(quot, counts)


def _paget_partner(quot: list[Partition], counts: list[int]) -> Partition:
    """paget_mu of the display with quotient quot on counts[i] beads on
    runner i, unchecked: same e-core, empty first quotient component in
    sigma order, and each later component the conjugate of its
    predecessor.  The counts of any display whose bead count is a multiple
    of e give the same partner."""
    e = len(counts)
    sigma = _sigma(counts)
    new_quot: list[Partition] = [Partition._of(())] * e
    for k in range(2, e + 1):
        new_quot[sigma[k - 1]] = quot[sigma[k - 2]].conjugate()
    return _fit_runners(new_quot, counts)
