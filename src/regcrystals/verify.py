"""Exhaustive desk-scale verification suites.

Each suite is a generator of instances: it walks a family of properties
over bounded enumerations and yields one ``(property, ok, describe)``
triple per instance, where ``describe`` is called only for a property's
first failure.  The ``_SUITES`` table gives each suite its default size
bound, its default moduli and its properties in report order, and
``run_suites`` drives every suite through that table.  It reports one
result per property: the number of instances checked and the first
counterexample found, if any.  A property that checked nothing is
reported as VACUOUS and counts as a failure.  Partitions are enumerated in
increasing size, but most properties loop over e or the ladder
parameters outside size, so a reported counterexample is minimal only
within the first e or parameter set that fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Callable, Iterator

from . import abacus as ab
from . import crystals as cr
from . import ladders as ld
from .mullineux import lyle_check, mullineux as _mullineux, mullineux_oracle, peel_and_rebuild
from . import separation as sp
from .partitions import Partition, enumerate_partitions


# What a suite yields: (property, ok, describe), one triple per instance.
Instances = Iterator[tuple[str, bool, Callable[[], str]]]


@dataclass
class CheckResult:
    suite: str
    name: str
    checked: int = 0
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None and self.checked > 0

    def line(self) -> str:
        if self.failure is not None:
            return f"FAIL {self.suite}.{self.name} checked={self.checked} counterexample: {self.failure}"
        if not self.checked:
            return f"VACUOUS {self.suite}.{self.name} checked=0"
        return f"PASS {self.suite}.{self.name} checked={self.checked}"


def _all_partitions(max_size: int):
    for n in range(max_size + 1):
        yield from enumerate_partitions(n)


@lru_cache(maxsize=None)
def _mull(parts: tuple[int, ...], e: int) -> Partition:
    return _mullineux(Partition(parts), e)


def suite_core(max_size: int, e_values: tuple[int, ...]) -> Instances:
    for la in _all_partitions(max_size):
        yield "conjugate_involution", la.conjugate().conjugate() == la, lambda: str(la)

    for n in range(min(max_size, 15) + 1):
        from_n = list(enumerate_partitions(n))
        for la in from_n:
            for mu in from_n:
                ok = la.dominates(mu) == mu.conjugate().dominates(la.conjugate())
                yield "dominance_reversed_by_conjugation", ok, lambda: f"{la} vs {mu}"

    for la in _all_partitions(max_size):
        for nd in la.removable_nodes():
            smaller = la.remove_node(nd)
            ok = smaller.size == la.size - 1 and nd in smaller.addable_nodes()
            yield "node_removal_inverts_addition", ok, lambda: f"{la} node {nd}"

    for la in _all_partitions(max_size):
        for hook in la.hooks():
            ok = la.remove_rim_hook(hook.corner).size == la.size - hook.length
            yield "rim_hook_removal_size_drop", ok, lambda: f"{la} corner {hook.corner}"

    for e in e_values:
        for la in _all_partitions(max_size):
            ok = la.is_e_regular(e) == la.conjugate().is_e_restricted(e)
            yield "regular_iff_conjugate_restricted", ok, lambda: f"{la} e={e}"

    for e in e_values:
        for la in _all_partitions(max_size):
            for n in (len(la.parts), len(la.parts) + 1, ab.default_beads(la, e)):
                ok = ab.decode(ab.encode(la, n, e)) == la
                yield "abacus_round_trip", ok, lambda: f"{la} n={n} e={e}"

    for e in e_values:
        for la in _all_partitions(max_size):
            disp = ab.encode(la, ab.default_beads(la, e), e)
            m = ((max(disp.occupied, default=0) + e + 1) // e) * e
            ok = ab.decode(ab.conjugate_display(disp, m)) == la.conjugate()
            yield "conjugate_display_matches_conjugate", ok, lambda: f"{la} e={e} m={m}"

    for e in e_values:
        for n in range(min(max_size, 12) + 1):
            from_n = list(enumerate_partitions(n))
            beads = max((len(la.parts) for la in from_n), default=0) + e
            profiles = [ab.runner_profile(ab.encode(la, beads, e)) for la in from_n]
            contents = [la.e_content(e) for la in from_n]
            for i in range(len(from_n)):
                for j in range(i + 1, len(from_n)):
                    if contents[i] == contents[j]:
                        yield (
                            "equal_content_equal_runner_profile",
                            profiles[i] == profiles[j],
                            lambda: f"{from_n[i]} vs {from_n[j]} e={e}",
                        )

    for e in e_values:
        for la in _all_partitions(max_size):
            n0 = ab.default_beads(la, e)
            ok = (ab.e_core(la, e, n0) == ab.e_core(la, e, n0 + e)
                  and ab.e_quotient(la, e, n0) == ab.e_quotient(la, e, n0 + e))
            yield "core_quotient_bead_invariance", ok, lambda: f"{la} e={e}"

    for e in e_values:
        for la in _all_partitions(max_size):
            core = ab.e_core(la, e)
            quot = ab.e_quotient(la, e)
            ok = la.size == core.size + e * sum(q.size for q in quot)
            yield "core_quotient_size_identity", ok, lambda: f"{la} e={e}"

    for e in e_values:
        for la in _all_partitions(max_size):
            rebuilt = ab.from_core_and_quotient(ab.e_core(la, e), ab.e_quotient(la, e), e)
            yield "core_quotient_rebuild", rebuilt == la, lambda: f"{la} e={e}"

    for e in e_values:
        for la in _all_partitions(min(max_size, 12)):
            for m in range(4):
                via_beads = ab.grow_first_columns(la, m, e)
                conj = la.conjugate()
                taller = Partition(
                    [conj.part(r) + e for r in range(1, m + 1)]
                    + list(conj.parts[m:])
                )
                ok = via_beads == taller.conjugate()
                yield "grow_columns_two_routes_agree", ok, lambda: f"{la} m={m} e={e}"


_LADDER_PARAM_SET = (
    ld.LadderParams(3, 2),
    ld.LadderParams(4, 3),
    ld.LadderParams(5, 2),
    ld.LadderParams(3, Fraction(4, 3)),
    ld.LadderParams(4, Fraction(3, 2)),
)


def suite_ladder(max_size: int, e_values: tuple[int, ...]) -> Instances:
    """Runs the fixed parameters _LADDER_PARAM_SET; e_values is unused."""
    window = 12
    for params in _LADDER_PARAM_SET:
        nodes = [(r, c) for r in range(1, window + 1) for c in range(1, window + 1)]
        for a in nodes:
            for b in nodes:
                same_ladder = ld.ladder_id(a, params) == ld.ladder_id(b, params)
                same_depth_res = ld.depth(a, params) == ld.depth(b, params) and (
                    (a[1] - a[0]) % params.e == (b[1] - b[0]) % params.e
                )
                yield (
                    "depth_and_residue_classify_ladders",
                    same_ladder == same_depth_res,
                    lambda: f"{a} {b} {params!r}",
                )

    for params in _LADDER_PARAM_SET:
        for n in range(max_size + 1):
            by_fp: dict = {}
            for la in enumerate_partitions(n):
                key = frozenset(ld.fingerprint(la, params).items())
                by_fp.setdefault(key, []).append(la)
            for cls in by_fp.values():
                regs = [la for la in cls if ld.is_regular(la, params)]
                rests = [la for la in cls if ld.is_restricted(la, params)]
                rep = ld.regularise(cls[0], params)
                low = ld.restrictise(cls[0], params)
                of_class = lambda: f"class of {cls[0]} at {params!r}"
                ok = regs == [rep] and all(rep.dominates(mu) for mu in cls)
                yield "regularise_is_unique_class_maximum", ok, of_class
                ok = rests == [low] and all(mu.dominates(low) for mu in cls)
                yield "restrictise_is_unique_class_minimum", ok, of_class
                for la in cls:
                    reg = ld.regularise(la, params)
                    where = lambda: f"{la} at {params!r}"
                    ok = ld.fingerprint(reg, params) == ld.fingerprint(la, params)
                    yield "regularise_preserves_fingerprint", ok, where
                    ok = (
                        reg == rep
                        and ld.restrictise(la, params) == low
                        and ld.regularise(low, params) == rep
                        and ld.restrictise(rep, params) == low
                    )
                    yield "regularise_restrictise_idempotent_inverse", ok, where
                if params.y.denominator > 1:
                    counts = {ld.bad_count(la, params) for la in cls}
                    yield "bad_count_constant_on_classes", len(counts) == 1, of_class

    for params in _LADDER_PARAM_SET:
        for la in _all_partitions(max_size):
            if ld.is_regular(la, params):
                continue
            kappa = ld.regularise_step(la, params)
            ok = (
                kappa.dominates(la)
                and kappa != la
                and ld.fingerprint(kappa, params) == ld.fingerprint(la, params)
            )
            yield "step_ascends_and_preserves_fingerprint", ok, lambda: f"{la} at {params!r}"

    for params in _LADDER_PARAM_SET:
        conj_params = params.conjugate_params()
        for la in _all_partitions(max_size):
            yield (
                "restricted_iff_conjugate_regular_for_conjugate_slope",
                ld.is_restricted(la, params) == ld.is_regular(la.conjugate(), conj_params),
                lambda: f"{la} at {params!r}",
            )


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
    regular_sets = []
    for prefix in _CRYSTAL_PREFIXES:
        bound = min(prefix.bound, max_size)
        regulars = [la for la in _all_partitions(bound) if cr.is_A_regular(la, prefix)]
        regular_sets.append(regular_set := set(regulars))
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
    for prefix, regular_set in zip(_CRYSTAL_PREFIXES, regular_sets):
        graph = cr.build_graph(prefix, min(prefix.bound, max_size))
        yield (
            "empty_is_unique_source",
            set(graph.vertices) == regular_set,
            lambda: f"{prefix!r}: {len(graph.vertices)} reached of {len(regular_set)}",
        )

    for prefix in _CRYSTAL_PREFIXES[:3]:
        graph = cr.build_graph(prefix, min(prefix.bound, max_size))
        for la, i, mu in graph.edges:
            added = next(
                nd for nd in mu.removable_nodes() if nd not in la and mu.remove_node(nd) == la
            )
            ok = (added[1] - added[0]) % prefix.e == i
            yield "edge_labels_match_added_residue", ok, lambda: f"{la} -{i}-> {mu}"

    for e in (3, 4):
        prefixes = [p for p in _CRYSTAL_PREFIXES if p.e == e]
        graphs = [cr.build_graph(p, min(p.bound, max_size)) for p in prefixes]
        base = None
        for g in graphs:
            layers = {}
            for v in g.vertices:
                layers[v.size] = layers.get(v.size, 0) + 1
            if base is None:
                base = layers
            yield (
                "layer_counts_agree_between_prefixes",
                layers == base,
                lambda: f"e={e}: {layers} != {base}",
            )

    for e, y in ((4, Fraction(2)), (3, Fraction(3, 2)), (4, Fraction(5, 3))):
        n = -(-(max_size + 1) // e)
        upper = cr.ArmPrefix.from_slope(e, y, n, "+")
        lower = cr.ArmPrefix.from_slope(e, y, n, "-")
        params = ld.LadderParams(e, y)
        for size in range(max_size + 1):
            upper_layer = [
                la for la in enumerate_partitions(size) if cr.is_A_regular(la, upper)
            ]
            lower_layer = {
                la for la in enumerate_partitions(size) if cr.is_A_regular(la, lower)
            }
            images = [ld.regularise(la, params) for la in upper_layer]
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
                        up_a is None or ld.regularise(up_a, params) == up_b
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
        mid = direct.prefixes[len(direct.prefixes) // 2]
        to_mid, from_mid = cr.iso_chain(a, mid), cr.iso_chain(mid, b)
        # slopes with denominator > bound/e have no singular partitions within
        # the truncation, so padding with one gives a distinct equivalent chain
        pad = ld.LadderParams(e, 1 + Fraction(1, a.bound + 1))
        padded = cr.Chain(direct.prefixes + direct.prefixes[-1:], direct.steps + (pad,))
        for la in _all_partitions(min(a.bound, max_size)):
            if not cr.is_A_regular(la, a):
                continue
            image = cr.apply_chain(la, direct)
            ok = (
                cr.apply_chain(cr.apply_chain(la, to_mid), from_mid) == image
                and cr.apply_chain(la, padded) == image
                and peel_and_rebuild(la, a, b, range(e), 1) == image
            )
            yield (
                "chain_factorisations_induce_same_map",
                ok,
                lambda: f"{la} chain {top}->{bottom} e={e}",
            )


def suite_mullineux(max_size: int, e_values: tuple[int, ...]) -> Instances:
    for e in e_values:
        for la in _all_partitions(max_size):
            if not la.is_e_regular(e):
                continue
            image = _mull(la.parts, e)
            where = lambda: f"{la} e={e}"
            yield "algorithm_equals_crystal_oracle", image == mullineux_oracle(la, e), where
            ok = image.size == la.size and image.is_e_regular(e)
            yield "image_is_e_regular_of_same_size", ok, where
            yield "involution", _mull(image.parts, e) == la, where

    for la in _all_partitions(max(max_size, 18)):
        if la.is_e_regular(2):
            yield "identity_for_e_2", _mull(la.parts, 2) == la, lambda: str(la)

    for e in e_values:
        for la in _all_partitions(min(max_size, 14)):
            if not la.is_e_restricted(e):
                continue
            image = _mull(la.conjugate().parts, e)
            ok = image.e_content(e) == la.e_content(e)
            yield "composite_preserves_content_on_restricted", ok, lambda: f"{la} e={e}"

    for e in e_values:
        for la in _all_partitions(min(max_size, 10)):
            if not la.is_e_regular(e):
                continue
            ok = mullineux_oracle(la, e, "min") == mullineux_oracle(la, e, "max")
            yield "oracle_residue_choice_is_irrelevant", ok, lambda: f"{la} e={e}"

    for e in e_values:
        for la in _all_partitions(min(max_size, 12)):
            if not la.is_e_restricted(e):
                continue
            image = _mull(la.conjugate().parts, e)
            ok = ab.e_core(image, e) == ab.e_core(la, e)
            yield "image_shares_e_core", ok, lambda: f"{la} e={e}"


def suite_lyle(max_size: int, e_values: tuple[int, ...]) -> Instances:
    for e in e_values:
        for la in _all_partitions(max_size):
            report = lyle_check(la, e)
            where = lambda: f"{la} e={e}"
            yield "dominance_always_holds", report.dominates, where
            yield "equality_iff_all_hooks_steep_or_shallow", report.criterion_matches, where


def _split_contexts(e: int, piece_bound: int):
    """All proper residue subsets with bead counts sized per the grids."""
    max_parts = piece_bound * (e - 1) + piece_bound  # parts of mu_I in the worst case
    n = e * (-(-(max_parts + e) // e))
    for k in range(1, e):
        for combo in combinations(range(e), k):
            yield sp.SplitContext(e, frozenset(combo), n)


def suite_split(max_size: int, e_values: tuple[int, ...]) -> Instances:
    """The first three properties run e = 4 and 5 whatever e_values holds;
    the splitting theorem and the box step run each e >= 3 of e_values on
    pieces of size at most max(1, max_size // 4)."""
    for e in (4, 5):
        for residues in (frozenset({0}), frozenset({0, 2}), frozenset(range(1, e))):
            n = e * ((min(max_size, 14) + e) // e + 1)
            ctx = sp.SplitContext(e, residues, n)
            for la in _all_partitions(min(max_size, 14)):
                res = sp.split(la, ctx)
                ok = sp.combine(res.lambda_I, res.lambda_Ibar, ctx.with_u(res.u)) == la
                yield "split_combine_round_trip", ok, lambda: f"{la} I={sorted(residues)} e={e}"

    for e in (4, 5):
        for k in range(1, e):
            for combo in combinations(range(e), k):
                residues = frozenset(combo)
                n = e * ((max_size + e) // e + 1)
                ctx = sp.SplitContext(e, residues, n)
                params = ld.LadderParams(e, ctx.c_bar)
                for la in _all_partitions(max_size):
                    if not sp.is_separated(la, ctx):
                        continue
                    halves = sp.split(la, ctx)
                    where = lambda: f"{la} I={sorted(residues)} e={e}"
                    ok = ld.is_regular(la, params) == halves.lambda_Ibar.is_e_restricted(ctx.c_bar)
                    yield "separated_regular_iff_half_restricted", ok, where
                    ok = la.is_e_restricted(e) == halves.lambda_I.is_e_restricted(ctx.c)
                    yield "separated_restricted_iff_half_restricted", ok, where

    piece_bound = max(1, max_size // 4)
    pieces = list(_all_partitions(piece_bound))
    box_ok = True  # once the box step fails it is not computed again
    for e in (e for e in e_values if e >= 3):
        for ctx0 in _split_contexts(e, piece_bound):
            c, cb = ctx0.c, ctx0.c_bar
            betas = [p for p in pieces if p.is_e_restricted(c)]
            gammas = [p for p in pieces if p.is_e_restricted(cb)]
            params = ld.LadderParams(e, cb)
            for alpha in pieces:
                for beta in betas:
                    for gamma in gammas:
                        min_u = max(
                            len(beta),
                            len(_mull(beta.conjugate().parts, c)) + c * len(alpha.conjugate()),
                        )
                        max_u = ctx0.n - max(
                            max(len(alpha), len(gamma)),
                            len(_mull(gamma.conjugate().parts, cb)),
                        )
                        for u in range(min_u, max_u + 1):
                            ctx = ctx0.with_u(u)
                            report = sp.verify_split(alpha, beta, gamma, ctx)
                            yield (
                                "splitting_theorem",
                                report.verdict != "falsified",
                                lambda: f"alpha={alpha} beta={beta} gamma={gamma} "
                                f"I={sorted(ctx.residues)} e={e} n={ctx.n} u={u}",
                            )
                            if report.la_separated and box_ok:
                                nu = report.la
                                halves = sp.split(nu, ctx)
                                if not halves.lambda_Ibar.is_e_restricted(cb):
                                    xi = sp._box_step(nu, ctx)
                                    fp = ld.fingerprint(nu, params)
                                    box_ok = ld.fingerprint(xi, params) == fp
                                    yield (
                                        "box_step_preserves_cbar_fingerprint",
                                        box_ok,
                                        lambda: f"nu={nu} I={sorted(ctx.residues)} e={e} u={u}",
                                    )


def suite_paget(max_size: int, e_values: tuple[int, ...]) -> Instances:
    """Runs each e >= 2 of e_values on quotients whose components have size
    at most max(1, min(2, max_size // 4))."""
    quotient_bound = max(1, min(2, max_size // 4))
    offset = 2
    small = [list(enumerate_partitions(s)) for s in range(quotient_bound + 1)]
    components = [p for group in small for p in group]
    for e in (e for e in e_values if e >= 2):
        m = offset + quotient_bound + 1
        n = e * m
        offsets = range(-offset, offset + 1)
        for deltas in product(offsets, repeat=e):
            if sum(deltas):
                continue
            # every runner holds more beads than any component has parts
            counts = [m + d for d in deltas]
            core = ab.from_runners([Partition()] * e, counts)
            for quot in product(components, repeat=e):
                la = ab.from_runners(quot, counts)
                if not la.is_e_restricted(e) or not sp.is_quotient_separated(la, e, n):
                    continue
                mu = sp.paget_mu(la, e, n)
                yield "partner_shares_core", ab.e_core(mu, e) == core, lambda: f"{la} e={e}"
                if sp.is_quotient_separated(mu, e, n):
                    ok = _mullineux(la.conjugate(), e) == mu
                    where = lambda: f"{la} e={e} n={n}"
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


def run_suites(
    names, max_size: int | None = None, e_values=None
) -> list[CheckResult]:
    """Run the named suites (or all of them) and return one result per
    property; a property counts its instances up to its first failure."""
    unknown = set(names) - set(SUITES) - {"all"}
    if unknown:
        raise ValueError(f"unknown suite(s): {sorted(unknown)}")
    results: list[CheckResult] = []
    for name in SUITES:
        if name not in names and "all" not in names:
            continue
        suite, default_size, default_e, properties = _SUITES[name]
        by_name = {prop: CheckResult(name, prop) for prop in properties}
        size = default_size if max_size is None else max_size
        for prop, ok, describe in suite(size, e_values or default_e):
            res = by_name[prop]
            if res.failure is None:
                res.checked += 1
                if not ok:
                    res.failure = describe()
        results += by_name.values()
    return results
