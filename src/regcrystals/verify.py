"""Exhaustive desk-scale verification suites.

Each suite is a generator of instances: it walks a family of properties
over bounded enumerations and yields one ``(property, ok, describe)``
triple per instance, where ``describe`` is called only for a property's
first failure; ``ok`` is None for an instance whose hypothesis is not met,
which counts as checked and as skipped and tests nothing.  The ``_SUITES``
table gives each suite its default size bound, its default moduli and its
properties in report order, and ``iter_suites`` drives every suite through
that table, yielding each suite's results as it finishes.  A suite with
default moduli takes any e >= 2, up to MAX_SPLIT_E for split and
MAX_PAGET_E for paget, checked before any suite runs; the others run fixed
moduli and reject e when named.  It reports one result per property: the number of instances
checked (and of those skipped, when any were) and the first
counterexample found, if any.  A property that checked nothing, or only
skipped instances, is reported as VACUOUS and counts as a failure.

A suite walks each (modulus or parameter set, partition) pair once,
builds what that pair needs once (the conjugate, the core and quotient,
the Mullineux image and oracle, the crystal graph) and yields every
property that reads it.  Each property still sees its instances in
enumeration order: e or the ladder parameters outermost, then partitions
in increasing size, so a reported counterexample is minimal only within
the first e or parameter set that fails.

A map that several instances apply to the same partition (regularise and
restrictise in the ladder suite and the crystal commutation block,
james_regularise and mullineux in the lyle and mullineux suites) is read
through a per-run table, _images: a dict by part tuple that the suite call
creates and drops, so each image is computed once per run and no image
outlives the run.  A table reads its function when it is created, inside
the run, so a wrapper or a fault installed on that function before the run
sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby, product
from typing import Callable, Iterator

from . import abacus as ab
from . import crystals as cr
from . import ladders as ld
from .mullineux import (_conjugate_image, _lyle_report, james_regularise, mullineux as _mullineux, mullineux_oracle,
                        peel_and_rebuild)
from . import separation as sp
from .partitions import (Partition, _bead_rows, _beads_restricted, beta_numbers, enumerate_partitions,
                         from_beta_numbers)


# What a suite yields: (property, ok, describe), one triple per instance;
# ok is None when the instance's hypothesis is not met.
Instances = Iterator[tuple[str, bool | None, Callable[[], str]]]


@dataclass
class CheckResult:
    suite: str
    name: str
    checked: int = 0
    failure: str | None = None
    skipped: int = 0  # of the checked instances, those whose hypothesis was not met

    @property
    def ok(self) -> bool:
        return self.failure is None and self.checked > self.skipped

    def line(self) -> str:
        counts = f"checked={self.checked}" + (f" skipped={self.skipped}" if self.skipped else "")
        if self.failure is not None:
            return f"FAIL {self.suite}.{self.name} {counts} counterexample: {self.failure}"
        if not self.ok:
            return f"VACUOUS {self.suite}.{self.name} {counts}"
        return f"PASS {self.suite}.{self.name} {counts}"


def _all_partitions(max_size: int):
    for n in range(max_size + 1):
        yield from enumerate_partitions(n)


def _images(fn: Callable[..., Partition], *args) -> Callable[[Partition], Partition]:
    """la -> fn(la, *args), computed once per part tuple of la: a per-run
    table, made by the suite call that reads it and dropped with it."""
    table: dict[tuple[int, ...], Partition] = {}

    def image(la: Partition) -> Partition:
        out = table.get(la.parts)
        if out is None:
            out = table[la.parts] = fn(la, *args)
        return out

    return image


def suite_core(max_size: int, e_values: tuple[int, ...]) -> Instances:
    for n in range(max_size + 1):
        from_n = list(enumerate_partitions(n))
        conjugates = [la.conjugate() for la in from_n]
        for la, conj in zip(from_n, conjugates):
            yield "conjugate_involution", conj.conjugate() == la, lambda: str(la)
            for nd in la.removable_nodes():
                smaller = la.remove_node(nd)
                ok = smaller.size == la.size - 1 and nd in smaller.addable_nodes()
                yield "node_removal_inverts_addition", ok, lambda: f"{la} node {nd}"
            for hook in la.hooks():
                ok = la.remove_rim_hook(hook.corner).size == la.size - hook.length
                yield "rim_hook_removal_size_drop", ok, lambda: f"{la} corner {hook.corner}"
        if n <= 15:
            for la, la_conj in zip(from_n, conjugates):
                for mu, mu_conj in zip(from_n, conjugates):
                    ok = la.dominates(mu) == mu_conj.dominates(la_conj)
                    yield "dominance_reversed_by_conjugation", ok, lambda: f"{la} vs {mu}"

    for e in e_values:
        for n in range(max_size + 1):
            from_n = list(enumerate_partitions(n))
            for la in from_n:
                conj, n0 = la.conjugate(), ab.default_beads(la, e)
                core, quot = ab.e_core(la, e, n0), ab.e_quotient(la, e, n0)
                where = lambda: f"{la} e={e}"
                ok = la.is_e_regular(e) == conj.is_e_restricted(e)
                yield "regular_iff_conjugate_restricted", ok, where
                for beads in (len(la.parts), len(la.parts) + 1, n0):
                    ok = ab.decode(ab.encode(la, beads, e)) == la
                    yield "abacus_round_trip", ok, lambda: f"{la} n={beads} e={e}"
                occupied = ab.encode(la, n0, e)
                m = ((max(occupied, default=0) + e + 1) // e) * e
                ok = ab.decode(ab.conjugate_display(occupied, e, m)) == conj
                yield "conjugate_display_matches_conjugate", ok, lambda: f"{la} e={e} m={m}"
                ok = core == ab.e_core(la, e, n0 + e) and quot == ab.e_quotient(la, e, n0 + e)
                yield "core_quotient_bead_invariance", ok, where
                ok = la.size == core.size + e * sum(q.size for q in quot)
                yield "core_quotient_size_identity", ok, where
                yield "core_quotient_rebuild", ab.from_core_and_quotient(core, quot, e) == la, where
                if n <= 12:
                    for m in range(4):
                        via_beads = ab.grow_first_columns(la, m, e)
                        taller = Partition._of(
                            tuple(conj.part(r) + e for r in range(1, m + 1)) + conj.parts[m:]
                        )
                        ok = via_beads == taller.conjugate()
                        yield "grow_columns_two_routes_agree", ok, lambda: f"{la} m={m} e={e}"
            if n <= 12:
                beads = max((len(la.parts) for la in from_n), default=0) + e
                profiles = [ab.runner_counts(ab.encode(la, beads, e), e) for la in from_n]
                contents = [la.e_content(e) for la in from_n]
                for i in range(len(from_n)):
                    for j in range(i + 1, len(from_n)):
                        if contents[i] == contents[j]:
                            yield (
                                "equal_content_equal_runner_profile",
                                profiles[i] == profiles[j],
                                lambda: f"{from_n[i]} vs {from_n[j]} e={e}",
                            )


_LADDER_PARAM_SET = (
    ld.LadderParams(3, 2),
    ld.LadderParams(4, 3),
    ld.LadderParams(5, 2),
    ld.LadderParams(3, Fraction(4, 3)),
    ld.LadderParams(4, Fraction(3, 2)),
)


def suite_ladder(max_size: int, e_values: tuple[int, ...]) -> Instances:
    """Runs the fixed parameters _LADDER_PARAM_SET; e_values is unused.  The
    node-pair loop reads each node's ladder_id, depth and residue, computed
    once per parameter set.

    Each parameter set keeps one _images table of regularise and one of
    restrictise, so every partition is regularised and restrictised once:
    a class's rep and low are its first member's images, and the facts
    regularise(low) == rep and restrictise(rep) == low are read once per
    class from the tables, not once per member."""
    window = 12
    nodes = [(r, c) for r in range(1, window + 1) for c in range(1, window + 1)]
    for params in _LADDER_PARAM_SET:
        data = [(a, ld.ladder_id(a, params), (ld.depth(a, params), (a[1] - a[0]) % params.e)) for a in nodes]
        for a, ladder_a, depth_res_a in data:
            for b, ladder_b, depth_res_b in data:
                yield (
                    "depth_and_residue_classify_ladders",
                    (ladder_a == ladder_b) == (depth_res_a == depth_res_b),
                    lambda: f"{a} {b} {params!r}",
                )

        conj_params = params.conjugate_params()
        reg, res = _images(ld.regularise, params), _images(ld.restrictise, params)
        for n in range(max_size + 1):
            by_key: dict = {}
            for la in enumerate_partitions(n):
                key = ld.fingerprint(la, params)
                by_key.setdefault(key, []).append(la)
                where = lambda: f"{la} at {params!r}"
                if not ld.is_regular(la, params):
                    kappa = ld.regularise_step(la, params)
                    ok = kappa.dominates(la) and kappa != la and ld.fingerprint(kappa, params) == key
                    yield "step_ascends_and_preserves_fingerprint", ok, where
                ok = ld.is_restricted(la, params) == ld.is_regular(la.conjugate(), conj_params)
                yield "restricted_iff_conjugate_regular_for_conjugate_slope", ok, where
            for key, cls in by_key.items():
                regs = [la for la in cls if ld.is_regular(la, params)]
                rests = [la for la in cls if ld.is_restricted(la, params)]
                rep, low = reg(cls[0]), res(cls[0])
                ends_ok = reg(low) == rep and res(rep) == low
                of_class = lambda: f"class of {cls[0]} at {params!r}"
                ok = regs == [rep] and all(rep.dominates(mu) for mu in cls)
                yield "regularise_is_unique_class_maximum", ok, of_class
                ok = rests == [low] and all(mu.dominates(low) for mu in cls)
                yield "restrictise_is_unique_class_minimum", ok, of_class
                for la in cls:
                    la_reg = reg(la)
                    where = lambda: f"{la} at {params!r}"
                    ok = ld.fingerprint(la_reg, params) == key
                    yield "regularise_preserves_fingerprint", ok, where
                    ok = la_reg == rep and res(la) == low and ends_ok
                    yield "regularise_restrictise_idempotent_inverse", ok, where
                if params.y.denominator > 1:
                    counts = {ld.bad_count(la, params) for la in cls}
                    yield "bad_count_constant_on_classes", len(counts) == 1, of_class


_CRYSTAL_PREFIXES = (
    cr.ArmPrefix.from_slope(3, 1, 3, "-"),
    cr.ArmPrefix.from_slope(3, 2, 3, "+"),
    cr.ArmPrefix.from_slope(3, Fraction(3, 2), 3, "-"),
    cr.ArmPrefix.from_slope(4, 1, 3, "-"),
    cr.ArmPrefix.from_slope(4, 3, 3, "+"),
    cr.ArmPrefix.from_slope(4, Fraction(5, 3), 3, "+"),
)


def suite_crystal(max_size: int, e_values: tuple[int, ...]) -> Instances:
    """Runs the fixed prefixes _CRYSTAL_PREFIXES; e_values is unused."""
    first_layers = {}  # e -> layer counts of the first crystal with that e
    for prefix in _CRYSTAL_PREFIXES:
        bound = min(prefix.bound, max_size)
        regulars = [la for la in _all_partitions(bound) if cr.is_A_regular(la, prefix)]
        regular_set = set(regulars)
        for la in regulars:
            for i in range(prefix.e):
                down = cr.e_op(la, prefix, i)
                if down is not None:
                    where = lambda: f"e_{i} {la} {prefix!r}"
                    yield "closure_under_operators", down in regular_set, where
                    yield "adjointness", cr.f_op(down, prefix, i) == la, where
                if la.size + 1 <= bound:
                    up = cr.f_op(la, prefix, i)
                    if up is not None:
                        where = lambda: f"f_{i} {la} {prefix!r}"
                        yield "closure_under_operators", up in regular_set, where
                        yield "adjointness", cr.e_op(up, prefix, i) == la, where

        # build_graph searches from the empty partition, so that is the unique source
        # exactly when the search reaches every A-regular partition found above.
        graph = cr.build_graph(prefix, bound)
        yield (
            "empty_is_unique_source",
            set(graph.vertices) == regular_set,
            lambda: f"{prefix!r}: {len(graph.vertices)} reached of {len(regular_set)}",
        )

        if prefix.e == 3:
            for la, i, mu in graph.edges:
                added = next(
                    nd for nd in mu.removable_nodes() if nd not in la and mu.remove_node(nd) == la
                )
                grown = [b - a for a, b in zip(la.e_content(3), mu.e_content(3))]
                ok = (added[1] - added[0]) % 3 == i and grown == [int(j == i) for j in range(3)]
                yield "edge_labels_match_added_residue", ok, lambda: f"{la} -{i}-> {mu}"

        layers = {}
        for v in graph.vertices:
            layers[v.size] = layers.get(v.size, 0) + 1
        base = first_layers.setdefault(prefix.e, layers)
        yield (
            "layer_counts_agree_between_prefixes",
            layers == base,
            lambda: f"e={prefix.e}: {layers} != {base}",
        )

    for e, y in ((4, Fraction(2)), (3, Fraction(3, 2)), (4, Fraction(5, 3))):
        n = -(-(max_size + 1) // e)
        upper = cr.ArmPrefix.from_slope(e, y, n, "+")
        lower = cr.ArmPrefix.from_slope(e, y, n, "-")
        params = ld.LadderParams(e, y)
        # the f_i images of one layer are vertices of the next: one table serves both
        reg = _images(ld.regularise, params)
        for size in range(max_size + 1):
            upper_layer = [
                la for la in enumerate_partitions(size) if cr.is_A_regular(la, upper)
            ]
            lower_layer = {
                la for la in enumerate_partitions(size) if cr.is_A_regular(la, lower)
            }
            images = [reg(la) for la in upper_layer]
            ok = (
                set(images) == lower_layer and len(set(images)) == len(images)
                and all(ld.restrictise(mu, params) == la
                        for la, mu in zip(upper_layer, images))
            )
            yield "regularisation_bijects_regular_sets", ok, lambda: f"e={e} y={y} size {size}"
            for la, mu in zip(upper_layer, images):
                for i in range(e):
                    up_a = cr.f_op(la, upper, i)
                    up_b = cr.f_op(mu, lower, i)
                    ok = (up_a is None) == (up_b is None) and (
                        up_a is None or reg(up_a) == up_b
                    )
                    yield (
                        "regularisation_commutes_with_operators",
                        ok,
                        lambda: f"f_{i} on {la} at e={e} y={y}",
                    )

    for e, top, bottom in (
        (3, (2, 4, 6), (0, 1, 2)),
        (4, (3, 6, 9), (0, 1, 2)),
        (4, (2, 4, 6), (1, 2, 4)),
    ):
        a = cr.ArmPrefix(e, top)
        b = cr.ArmPrefix(e, bottom)
        direct = cr.iso_chain(a, b)
        # the prefix halfway along the chain's prefixes, one per step and the end b
        mid = cr.ArmPrefix.from_slope(e, direct.steps[(len(direct.steps) + 1) // 2].y, a.n)
        to_mid, from_mid = cr.iso_chain(a, mid), cr.iso_chain(mid, b)
        # slopes with denominator > bound/e have no singular partitions within
        # the truncation, so padding the chain with one more step moves nothing
        pad = ld.LadderParams(e, 1 + Fraction(1, a.bound + 1))
        known = {(): Partition()}  # the peel's images for this pair, by part tuple
        for la in _all_partitions(min(a.bound, max_size)):
            if not cr.is_A_regular(la, a):
                continue
            image = cr.apply_chain(la, direct)
            ok = (
                cr.apply_chain(cr.apply_chain(la, to_mid), from_mid) == image
                and ld.regularise(image, pad) == image
                and peel_and_rebuild(la, a, b, range(e), 1, known=known) == image
            )
            yield (
                "chain_factorisations_induce_same_map",
                ok,
                lambda: f"{la} chain {top}->{bottom} e={e}",
            )


def suite_mullineux(max_size: int, e_values: tuple[int, ...]) -> Instances:
    """Runs each e of e_values on every partition of size at most max_size,
    but the residue-choice property stops at size 10, the content property
    at 14 and the core property at 12.  identity_for_e_2 ignores e_values
    and any max_size below 18: it runs e = 2 up to size max(max_size, 18),
    so `verify mullineux --max 0` still reports identity_for_e_2 checked=253.

    The oracle keeps one table of its images per (e, residue choice), and
    partitions come in increasing size, so each oracle call peels one
    string to a vertex already in the table and rebuilds one string.  The
    algorithm's images are kept in one _images table per e, for this run
    only."""
    mull = {e: _images(_mullineux, e) for e in {*e_values, 2}}
    for e in e_values:
        known_min, known_max = {(): Partition()}, {(): Partition()}
        for la in _all_partitions(max_size):
            where = lambda: f"{la} e={e}"
            if la.is_e_regular(e):
                image, oracle = mull[e](la), mullineux_oracle(la, e, known=known_min)
                yield "algorithm_equals_crystal_oracle", image == oracle, where
                ok = image.size == la.size and image.is_e_regular(e)
                yield "image_is_e_regular_of_same_size", ok, where
                yield "involution", mull[e](image) == la, where
                if la.size <= 10:
                    ok = oracle == mullineux_oracle(la, e, "max", known=known_max)
                    yield "oracle_residue_choice_is_irrelevant", ok, where
            if la.size <= 14 and la.is_e_restricted(e):
                image = mull[e](la.conjugate())
                ok = image.e_content(e) == la.e_content(e)
                yield "composite_preserves_content_on_restricted", ok, where
                if la.size <= 12:
                    yield "image_shares_e_core", ab.e_core(image, e) == ab.e_core(la, e), where

    for la in _all_partitions(max(max_size, 18)):
        if la.is_e_regular(2):
            yield "identity_for_e_2", mull[2](la) == la, lambda: str(la)


def suite_lyle(max_size: int, e_values: tuple[int, ...]) -> Instances:
    """Runs each e of e_values on every partition la of size at most
    max_size: the report of mullineux.lyle_check, built by its
    _lyle_report from per-run _images tables of james_regularise and
    mullineux for that e.  la and la' both run through the enumeration and
    many la share la^reg, so each image is computed once per e."""
    for e in e_values:
        reg, mull = _images(james_regularise, e), _images(_mullineux, e)
        for la in _all_partitions(max_size):
            la_reg = reg(la)
            report = _lyle_report(la, e, la_reg, mull(la_reg), reg(la.conjugate()))
            where = lambda: f"{la} e={e}"
            yield "dominance_always_holds", report.dominates, where
            yield "equality_iff_all_hooks_steep_or_shallow", report.criterion_matches, where


def _split_contexts(e: int, piece_bound: int):
    """All proper residue subsets, by increasing size, with bead counts sized per the grids."""
    max_parts = piece_bound * (e - 1) + piece_bound  # parts of mu_I in the worst case
    n = e * (-(-(max_parts + e) // e))
    for k in range(1, e):
        for combo in combinations(range(e), k):
            yield sp.SplitContext(e, frozenset(combo), n)


def suite_split(max_size: int, e_values: tuple[int, ...]) -> Instances:
    """The first three properties run e = 4 and 5 whatever e_values holds;
    the splitting theorem and the box step run each e >= 3 of e_values on
    pieces of size at most max(1, max_size // 4), so e = 2 leaves them
    VACUOUS.

    The two separated_*_iff_half_restricted properties encode each
    partition once per e, on the bead count that every residue set of that
    e shares, and test and split that bead set for each I; each half's
    restrictedness is read off its local bead set by
    partitions._beads_restricted, so no half is decoded.

    The halves of the splitting pair and of the box step depend on (alpha,
    beta, gamma) and c = |I| only, and _split_contexts yields the residue
    sets grouped by c: each c builds one list of separation.split_pair and
    box halves, read by every I of that size.  For each I, split_u_range
    reads the u range off the halves' lengths, and separation_thresholds
    the least u at which la, and both la and mu, are I-separated.  Below
    the joint threshold an instance is yielded as skipped and nothing is
    built; la's bead set alone is built from la's threshold on when the box
    step reads it.  From the joint threshold on verify_split checks the
    theorem on bead sets, and a report that the hypothesis is not met there
    fails the instance.  The box step places xi's halves on the n beads and
    takes nu's bead set from the report (or la's own below the joint
    threshold); it compares their c-bar ladders.fingerprint, read off the
    bead sets by its kernel ladders._rows_key, and decodes nu only to print
    a failure."""
    for e in (4, 5):
        for residues in (frozenset({0}), frozenset({0, 2}), frozenset(range(1, e))):
            n = e * ((min(max_size, 14) + e) // e + 1)
            ctx = sp.SplitContext(e, residues, n)
            for la in _all_partitions(min(max_size, 14)):
                res = sp.split(la, ctx)
                ok = sp.combine(res.lambda_I, res.lambda_Ibar, ctx, res.u) == la
                yield "split_combine_round_trip", ok, lambda: f"{la} I={sorted(residues)} e={e}"

    for e in (4, 5):
        n = e * ((max_size + e) // e + 1)
        displays = [(la, beta_numbers(la, n)) for la in _all_partitions(max_size)]
        for k in range(1, e):
            for combo in combinations(range(e), k):
                residues = frozenset(combo)
                ctx = sp.SplitContext(e, residues, n)
                c, cb = ctx.c, ctx.c_bar
                params = ld.LadderParams(e, cb)
                for la, occ in displays:
                    if not sp._separated(occ, ctx):
                        continue
                    half_i, half_ibar = sp._split(occ, ctx)
                    where = lambda: f"{la} I={sorted(residues)} e={e}"
                    ok = ld.is_regular(la, params) == _beads_restricted(half_ibar, cb)
                    yield "separated_regular_iff_half_restricted", ok, where
                    ok = la.is_e_restricted(e) == _beads_restricted(half_i, c)
                    yield "separated_restricted_iff_half_restricted", ok, where

    piece_bound = max(1, max_size // 4)
    pieces = list(_all_partitions(piece_bound))
    for e in (e for e in e_values if e >= 3):
        for c, contexts in groupby(_split_contexts(e, piece_bound), key=lambda ctx: ctx.c):
            cb = e - c
            betas = [p for p in pieces if p.is_e_restricted(c)]
            gammas = [p for p in pieces if p.is_e_restricted(cb)]
            instances = []  # (alpha, beta, gamma, pair, box halves or None)
            for alpha in pieces:
                for beta in betas:
                    for gamma in gammas:
                        pair = sp.split_pair(alpha, beta, gamma, c, cb)
                        bar = pair.lambda_Ibar
                        box = None if bar.is_e_restricted(cb) else sp._box_halves(beta, bar, c, cb)
                        instances.append((alpha, beta, gamma, pair, box))
            params = ld.LadderParams(e, cb)
            for ctx in contexts:
                for alpha, beta, gamma, pair, box in instances:
                    u_la, u_both = sp.separation_thresholds(pair, ctx)
                    where = lambda: (
                        f"alpha={alpha} beta={beta} gamma={gamma} "
                        f"I={sorted(ctx.residues)} e={e} n={ctx.n} u={u}"
                    )
                    for u in sp.split_u_range(pair, ctx):
                        if u < u_both:
                            yield "splitting_theorem", None, where
                            if u < u_la or box is None:
                                continue
                            nu = sp._combined_beads(pair.lambda_I, pair.lambda_Ibar, ctx, u)
                        else:
                            report = sp.verify_split(pair, ctx, u)
                            if report.verdict == "hypothesis-not-met":
                                yield "splitting_theorem", False, lambda: (
                                    f"{where()} not separated at or above u = {u_both}"
                                )
                            else:
                                yield "splitting_theorem", report.verdict == "holds", where
                            if box is None:
                                continue
                            nu = report.la_beads
                        xi = sp._combined_beads(*box, ctx, u)
                        ok = ld._rows_key(_bead_rows(xi), params) == ld._rows_key(_bead_rows(nu), params)
                        yield (
                            "box_step_preserves_cbar_fingerprint",
                            ok,
                            lambda: f"nu={from_beta_numbers(nu)} I={sorted(ctx.residues)} e={e} u={u}",
                        )


def suite_paget(max_size: int, e_values: tuple[int, ...]) -> Instances:
    """Runs each e of e_values on quotients whose components have size at
    most b = max(1, min(2, max_size // 4)), with b + 3 + d_i beads on runner
    i for each d in [-2, 2]^e summing to 0.  Only quotient-separated tuples
    are built, and only those with e-restricted bead sets are decoded (read
    off the bead set by partitions._beads_restricted) and given the partner
    that _paget_partner builds from the tuple itself."""
    quotient_bound = max(1, min(2, max_size // 4))
    components = [p for s in range(quotient_bound + 1) for p in enumerate_partitions(s)]
    for e in e_values:
        for deltas in product(range(-2, 3), repeat=e):
            if sum(deltas):
                continue
            counts = [quotient_bound + 3 + d for d in deltas]
            core = ab.from_runners([Partition._of(())] * e, counts)
            for quot in sp.separated_quotients([components] * e, counts):
                beads = ab._runner_beads(quot, counts)
                if not _beads_restricted(beads, e):
                    continue
                la = ab.decode(beads)
                mu = sp._paget_partner(quot, counts)
                where = lambda: f"{la} e={e}"
                yield "partner_shares_core", ab.e_core(mu, e) == core, where
                if sp.is_quotient_separated(mu, e):
                    ok = _conjugate_image(la, e) == mu
                    yield "theorem_on_quotient_separated_partitions", ok, where


# name -> (suite, default max_size, default e values, properties in report
# order).  An empty e tuple marks a suite that runs fixed moduli.
_SUITES = {
    "core": (suite_core, 12, (2, 3, 4, 5), (
        "conjugate_involution",
        "dominance_reversed_by_conjugation",
        "node_removal_inverts_addition",
        "rim_hook_removal_size_drop",
        "regular_iff_conjugate_restricted",
        "abacus_round_trip",
        "conjugate_display_matches_conjugate",
        "equal_content_equal_runner_profile",
        "core_quotient_bead_invariance",
        "core_quotient_size_identity",
        "core_quotient_rebuild",
        "grow_columns_two_routes_agree",
    )),
    "ladder": (suite_ladder, 10, (), (
        "depth_and_residue_classify_ladders",
        "regularise_is_unique_class_maximum",
        "restrictise_is_unique_class_minimum",
        "regularise_preserves_fingerprint",
        "regularise_restrictise_idempotent_inverse",
        "bad_count_constant_on_classes",
        "step_ascends_and_preserves_fingerprint",
        "restricted_iff_conjugate_regular_for_conjugate_slope",
    )),
    "crystal": (suite_crystal, 12, (), (
        "adjointness",
        "closure_under_operators",
        "empty_is_unique_source",
        "edge_labels_match_added_residue",
        "layer_counts_agree_between_prefixes",
        "regularisation_commutes_with_operators",
        "regularisation_bijects_regular_sets",
        "chain_factorisations_induce_same_map",
    )),
    "mullineux": (suite_mullineux, 16, (2, 3, 4, 5, 6), (
        "algorithm_equals_crystal_oracle",
        "involution",
        "image_is_e_regular_of_same_size",
        "identity_for_e_2",
        "composite_preserves_content_on_restricted",
        "oracle_residue_choice_is_irrelevant",
        "image_shares_e_core",
    )),
    "lyle": (suite_lyle, 14, (2, 3, 4, 5), (
        "dominance_always_holds",
        "equality_iff_all_hooks_steep_or_shallow",
    )),
    "split": (suite_split, 12, (4, 5, 6), (
        "split_combine_round_trip",
        "separated_regular_iff_half_restricted",
        "separated_restricted_iff_half_restricted",
        "splitting_theorem",
        "box_step_preserves_cbar_fingerprint",
    )),
    "paget": (suite_paget, 8, (3, 4), (
        "theorem_on_quotient_separated_partitions",
        "partner_shares_core",
    )),
}

SUITES = tuple(_SUITES)

# Largest e split and paget accept: they walk the 2^e - 2 proper residue
# subsets and the 5^e runner-offset vectors.  At default bounds on a 2-core box
# split takes about 30 s at e = 7, paget 2.1 s at e = 5 and 13 s at 6 (Python 3.11).
MAX_SPLIT_E = 7
MAX_PAGET_E = 5
_MAX_E = {"split": MAX_SPLIT_E, "paget": MAX_PAGET_E}


def iter_suites(
    names, max_size: int | None = None, e_values=None
) -> Iterator[list[CheckResult]]:
    """Check the names and moduli, then return an iterator that runs the named
    suites (or all of them) in table order and yields each suite's results,
    one per property, as that suite finishes.  A property counts its
    instances up to its first failure.  An exception raised inside a suite
    carries that suite's results so far as its suite_results.

    Raises ValueError at once for an unknown name, for e values given to a
    suite named explicitly that runs fixed moduli, or for e < 2 (or above
    the suite's _MAX_E bound) when a chosen suite takes e.
    """
    unknown = set(names) - set(SUITES) - {"all"}
    if unknown:
        raise ValueError(f"unknown suite(s): {sorted(unknown)}")
    chosen = [name for name in SUITES if name in names or "all" in names]
    low = [e for e in e_values or () if e < 2]
    for name in chosen:
        if e_values and name in names and not _SUITES[name][2]:
            raise ValueError(f"suite {name} runs fixed moduli and takes no e values")
        if low and _SUITES[name][2]:
            raise ValueError(f"suite {name} runs e >= 2, got e = {low[0]}")
        high = [e for e in e_values or () if e > _MAX_E.get(name, e)]
        if high:
            raise ValueError(f"suite {name} runs e <= {_MAX_E[name]}, got e = {high[0]}")
    return (_run_suite(name, max_size, e_values) for name in chosen)


def _run_suite(name: str, max_size: int | None, e_values) -> list[CheckResult]:
    """The suite's results, one per property; on an exception inside the
    suite, the results so far ride on it as suite_results."""
    suite, default_size, default_e, properties = _SUITES[name]
    by_name = {prop: CheckResult(name, prop) for prop in properties}
    size = default_size if max_size is None else max_size
    try:
        for prop, ok, describe in suite(size, e_values or default_e):
            res = by_name[prop]
            if res.failure is None:
                res.checked += 1
                if not ok:
                    if ok is None:
                        res.skipped += 1
                    else:
                        res.failure = describe()
    except Exception as exc:
        exc.suite_results = list(by_name.values())
        raise
    return list(by_name.values())


def run_suites(
    names, max_size: int | None = None, e_values=None
) -> list[CheckResult]:
    """The results of iter_suites, all suites together."""
    return [res for results in iter_suites(names, max_size, e_values) for res in results]
