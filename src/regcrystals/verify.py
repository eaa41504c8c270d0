"""Exhaustive desk-scale verification suites.

Each suite runs a family of properties over bounded enumerations and
reports one result per property: the number of instances checked and the
first counterexample found, if any.  A property that checked nothing is
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

from . import abacus as ab
from . import crystals as cr
from . import ladders as ld
from .mullineux import lyle_check, mullineux as _mullineux, mullineux_oracle, peel_and_rebuild
from . import separation as sp
from .partitions import Partition, enumerate_partitions

SUITES = ("core", "ladder", "crystal", "mullineux", "lyle", "split", "paget")


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
def _partition_list(max_size: int) -> tuple[Partition, ...]:
    return tuple(_all_partitions(max_size))


@lru_cache(maxsize=None)
def _mull(parts: tuple[int, ...], e: int) -> Partition:
    return _mullineux(Partition(parts), e)


class _Check:
    """Accumulates instances for one property; stops at the first failure."""

    def __init__(self, suite: str, name: str):
        self.result = CheckResult(suite, name)

    def tick(self, ok: bool, describe) -> bool:
        if self.result.failure is not None:
            return False
        self.result.checked += 1
        if not ok:
            self.result.failure = describe() if callable(describe) else str(describe)
        return ok


def suite_core(max_size: int = 12, e_values=(2, 3, 4, 5)) -> list[CheckResult]:
    out = []

    chk = _Check("core", "conjugate_involution")
    for la in _all_partitions(max_size):
        chk.tick(la.conjugate().conjugate() == la, lambda: str(la))
    out.append(chk.result)

    chk = _Check("core", "dominance_reversed_by_conjugation")
    for n in range(min(max_size, 15) + 1):
        from_n = list(enumerate_partitions(n))
        for la in from_n:
            for mu in from_n:
                chk.tick(
                    la.dominates(mu) == mu.conjugate().dominates(la.conjugate()),
                    lambda: f"{la} vs {mu}",
                )
    out.append(chk.result)

    chk = _Check("core", "node_removal_inverts_addition")
    for la in _all_partitions(max_size):
        for nd in la.removable_nodes():
            smaller = la.remove_node(nd)
            chk.tick(
                smaller.size == la.size - 1 and nd in smaller.addable_nodes(),
                lambda: f"{la} node {nd}",
            )
    out.append(chk.result)

    chk = _Check("core", "rim_hook_removal_size_drop")
    for la in _all_partitions(max_size):
        for hook in la.hooks():
            chk.tick(
                la.remove_rim_hook(hook.corner).size == la.size - hook.length,
                lambda: f"{la} corner {hook.corner}",
            )
    out.append(chk.result)

    chk = _Check("core", "regular_iff_conjugate_restricted")
    for e in e_values:
        for la in _all_partitions(max_size):
            chk.tick(
                la.is_e_regular(e) == la.conjugate().is_e_restricted(e),
                lambda: f"{la} e={e}",
            )
    out.append(chk.result)

    chk = _Check("core", "abacus_round_trip")
    for e in e_values:
        for la in _all_partitions(max_size):
            for n in (len(la.parts), len(la.parts) + 1, ab.default_beads(la, e)):
                chk.tick(
                    ab.decode(ab.encode(la, n, e)) == la,
                    lambda: f"{la} n={n} e={e}",
                )
    out.append(chk.result)

    chk = _Check("core", "conjugate_display_matches_conjugate")
    for e in e_values:
        for la in _all_partitions(max_size):
            disp = ab.encode(la, ab.default_beads(la, e), e)
            m = ((max(disp.occupied, default=0) + e + 1) // e) * e
            chk.tick(
                ab.decode(ab.conjugate_display(disp, m)) == la.conjugate(),
                lambda: f"{la} e={e} m={m}",
            )
    out.append(chk.result)

    chk = _Check("core", "equal_content_equal_runner_profile")
    for e in e_values:
        for n in range(min(max_size, 12) + 1):
            from_n = list(enumerate_partitions(n))
            beads = max((len(la.parts) for la in from_n), default=0) + e
            profiles = [ab.runner_profile(ab.encode(la, beads, e)) for la in from_n]
            contents = [la.e_content(e) for la in from_n]
            for i in range(len(from_n)):
                for j in range(i + 1, len(from_n)):
                    if contents[i] == contents[j]:
                        chk.tick(
                            profiles[i] == profiles[j],
                            lambda: f"{from_n[i]} vs {from_n[j]} e={e}",
                        )
    out.append(chk.result)

    chk = _Check("core", "core_quotient_bead_invariance")
    for e in e_values:
        for la in _all_partitions(max_size):
            n0 = ab.default_beads(la, e)
            chk.tick(
                ab.e_core(la, e, n0) == ab.e_core(la, e, n0 + e)
                and ab.e_quotient(la, e, n0) == ab.e_quotient(la, e, n0 + e),
                lambda: f"{la} e={e}",
            )
    out.append(chk.result)

    chk = _Check("core", "core_quotient_size_identity")
    for e in e_values:
        for la in _all_partitions(max_size):
            core = ab.e_core(la, e)
            quot = ab.e_quotient(la, e)
            chk.tick(
                la.size == core.size + e * sum(q.size for q in quot),
                lambda: f"{la} e={e}",
            )
    out.append(chk.result)

    chk = _Check("core", "core_quotient_rebuild")
    for e in e_values:
        for la in _all_partitions(max_size):
            rebuilt = ab.from_core_and_quotient(ab.e_core(la, e), ab.e_quotient(la, e), e)
            chk.tick(rebuilt == la, lambda: f"{la} e={e}")
    out.append(chk.result)

    chk = _Check("core", "grow_columns_two_routes_agree")
    for e in e_values:
        for la in _all_partitions(min(max_size, 12)):
            for m in range(4):
                via_beads = ab.grow_first_columns(la, m, e)
                conj = la.conjugate()
                taller = Partition(
                    [conj.part(r) + e for r in range(1, m + 1)]
                    + list(conj.parts[m:])
                )
                chk.tick(
                    via_beads == taller.conjugate(),
                    lambda: f"{la} m={m} e={e}",
                )
    out.append(chk.result)

    return out


_LADDER_PARAM_SET = (
    ld.LadderParams(3, 2),
    ld.LadderParams(4, 3),
    ld.LadderParams(5, 2),
    ld.LadderParams(3, Fraction(4, 3)),
    ld.LadderParams(4, Fraction(3, 2)),
)


def suite_ladder(max_size: int = 10, params_set=_LADDER_PARAM_SET) -> list[CheckResult]:
    out = []

    chk = _Check("ladder", "depth_and_residue_classify_ladders")
    window = 12
    for params in params_set:
        nodes = [(r, c) for r in range(1, window + 1) for c in range(1, window + 1)]
        for a in nodes:
            for b in nodes:
                same_ladder = ld.ladder_id(a, params) == ld.ladder_id(b, params)
                same_depth_res = ld.depth(a, params) == ld.depth(b, params) and (
                    (a[1] - a[0]) % params.e == (b[1] - b[0]) % params.e
                )
                chk.tick(same_ladder == same_depth_res, lambda: f"{a} {b} {params!r}")
    out.append(chk.result)

    chk_max = _Check("ladder", "regularise_is_unique_class_maximum")
    chk_min = _Check("ladder", "restrictise_is_unique_class_minimum")
    chk_fp = _Check("ladder", "regularise_preserves_fingerprint")
    chk_idem = _Check("ladder", "regularise_restrictise_idempotent_inverse")
    chk_bad = _Check("ladder", "bad_count_constant_on_classes")
    for params in params_set:
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
                chk_max.tick(
                    regs == [rep] and all(rep.dominates(mu) for mu in cls),
                    lambda: f"class of {cls[0]} at {params!r}",
                )
                chk_min.tick(
                    rests == [low] and all(mu.dominates(low) for mu in cls),
                    lambda: f"class of {cls[0]} at {params!r}",
                )
                for la in cls:
                    chk_fp.tick(
                        ld.fingerprint(ld.regularise(la, params), params)
                        == ld.fingerprint(la, params),
                        lambda: f"{la} at {params!r}",
                    )
                    chk_idem.tick(
                        ld.regularise(la, params) == rep
                        and ld.restrictise(la, params) == low
                        and ld.regularise(low, params) == rep
                        and ld.restrictise(rep, params) == low,
                        lambda: f"{la} at {params!r}",
                    )
                if params.y.denominator > 1:
                    counts = {ld.bad_count(la, params) for la in cls}
                    chk_bad.tick(len(counts) == 1, lambda: f"class of {cls[0]} at {params!r}")
    out += [chk_max.result, chk_min.result, chk_fp.result, chk_idem.result, chk_bad.result]

    chk = _Check("ladder", "step_ascends_and_preserves_fingerprint")
    for params in params_set:
        for la in _all_partitions(max_size):
            if ld.is_regular(la, params):
                continue
            kappa = ld.regularise_step(la, params)
            chk.tick(
                kappa.dominates(la)
                and kappa != la
                and ld.fingerprint(kappa, params) == ld.fingerprint(la, params),
                lambda: f"{la} at {params!r}",
            )
    out.append(chk.result)

    chk = _Check("ladder", "restricted_iff_conjugate_regular_for_conjugate_slope")
    for params in params_set:
        conj_params = params.conjugate_params()
        for la in _all_partitions(max_size):
            chk.tick(
                ld.is_restricted(la, params)
                == ld.is_regular(la.conjugate(), conj_params),
                lambda: f"{la} at {params!r}",
            )
    out.append(chk.result)

    return out


_CRYSTAL_PREFIXES = (
    cr.ArmPrefix.from_slope(3, 1, 3, "-"),
    cr.ArmPrefix.from_slope(3, 2, 3, "+"),
    cr.ArmPrefix.from_slope(3, Fraction(3, 2), 3, "-"),
    cr.ArmPrefix.from_slope(4, 1, 3, "-"),
    cr.ArmPrefix.from_slope(4, 3, 3, "+"),
    cr.ArmPrefix.from_slope(4, Fraction(5, 3), 3, "+"),
)


def suite_crystal(max_size: int = 12) -> list[CheckResult]:
    out = []

    chk = _Check("crystal", "adjointness")
    chk_cl = _Check("crystal", "closure_under_operators")
    regular_sets = []
    for prefix in _CRYSTAL_PREFIXES:
        bound = min(prefix.bound, max_size)
        regulars = [la for la in _all_partitions(bound) if cr.is_A_regular(la, prefix)]
        regular_sets.append(regular_set := set(regulars))
        for la in regulars:
            for i in range(prefix.e):
                down = cr.e_op(la, prefix, i)
                if down is not None:
                    chk_cl.tick(down in regular_set, lambda: f"e_{i} {la} {prefix!r}")
                    chk.tick(
                        cr.f_op(down, prefix, i) == la,
                        lambda: f"e_{i} {la} {prefix!r}",
                    )
                if la.size + 1 <= bound:
                    up = cr.f_op(la, prefix, i)
                    if up is not None:
                        chk_cl.tick(up in regular_set, lambda: f"f_{i} {la} {prefix!r}")
                        chk.tick(
                            cr.e_op(up, prefix, i) == la,
                            lambda: f"f_{i} {la} {prefix!r}",
                        )
    out += [chk.result, chk_cl.result]

    # build_graph searches from the empty partition, so that is the unique source
    # exactly when the search reaches every A-regular partition found above.
    chk = _Check("crystal", "empty_is_unique_source")
    for prefix, regular_set in zip(_CRYSTAL_PREFIXES, regular_sets):
        graph = cr.build_graph(prefix, min(prefix.bound, max_size))
        chk.tick(
            set(graph.vertices) == regular_set,
            lambda: f"{prefix!r}: {len(graph.vertices)} reached of {len(regular_set)}",
        )
    out.append(chk.result)

    chk = _Check("crystal", "edge_labels_match_added_residue")
    for prefix in _CRYSTAL_PREFIXES[:3]:
        graph = cr.build_graph(prefix, min(prefix.bound, max_size))
        for la, i, mu in graph.edges:
            added = next(
                nd for nd in mu.removable_nodes() if nd not in la and mu.remove_node(nd) == la
            )
            chk.tick((added[1] - added[0]) % prefix.e == i, lambda: f"{la} -{i}-> {mu}")
    out.append(chk.result)

    chk = _Check("crystal", "layer_counts_agree_between_prefixes")
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
            chk.tick(layers == base, lambda: f"e={e}: {layers} != {base}")
    out.append(chk.result)

    chk = _Check("crystal", "regularisation_commutes_with_operators")
    chk_bij = _Check("crystal", "regularisation_bijects_regular_sets")
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
            chk_bij.tick(
                set(images) == lower_layer and len(set(images)) == len(images)
                and all(ld.restrictise(mu, params) == la
                        for la, mu in zip(upper_layer, images)),
                lambda: f"e={e} y={y} size {size}",
            )
            for la, mu in zip(upper_layer, images):
                for i in range(e):
                    up_a = cr.f_op(la, upper, i)
                    up_b = cr.f_op(mu, lower, i)
                    ok = (up_a is None) == (up_b is None) and (
                        up_a is None or ld.regularise(up_a, params) == up_b
                    )
                    chk.tick(ok, lambda: f"f_{i} on {la} at e={e} y={y}")
    out += [chk.result, chk_bij.result]

    chk = _Check("crystal", "chain_factorisations_induce_same_map")
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
            chk.tick(
                cr.apply_chain(cr.apply_chain(la, to_mid), from_mid) == image
                and cr.apply_chain(la, padded) == image
                and peel_and_rebuild(la, a, b, range(e), 1) == image,
                lambda: f"{la} chain {top}->{bottom} e={e}",
            )
    out.append(chk.result)

    return out


def suite_mullineux(max_size: int = 16, e_values=(2, 3, 4, 5, 6)) -> list[CheckResult]:
    out = []

    chk_or = _Check("mullineux", "algorithm_equals_crystal_oracle")
    chk_inv = _Check("mullineux", "involution")
    chk_reg = _Check("mullineux", "image_is_e_regular_of_same_size")
    for e in e_values:
        for la in _all_partitions(max_size):
            if not la.is_e_regular(e):
                continue
            image = _mull(la.parts, e)
            chk_or.tick(
                image == mullineux_oracle(la, e), lambda: f"{la} e={e}"
            )
            chk_reg.tick(
                image.size == la.size and image.is_e_regular(e),
                lambda: f"{la} e={e}",
            )
            chk_inv.tick(_mull(image.parts, e) == la, lambda: f"{la} e={e}")
    out += [chk_or.result, chk_inv.result, chk_reg.result]

    chk = _Check("mullineux", "identity_for_e_2")
    for la in _all_partitions(max(max_size, 18)):
        if la.is_e_regular(2):
            chk.tick(_mull(la.parts, 2) == la, lambda: str(la))
    out.append(chk.result)

    chk = _Check("mullineux", "composite_preserves_content_on_restricted")
    for e in e_values:
        for la in _all_partitions(min(max_size, 14)):
            if not la.is_e_restricted(e):
                continue
            image = _mull(la.conjugate().parts, e)
            chk.tick(
                image.e_content(e) == la.e_content(e),
                lambda: f"{la} e={e}",
            )
    out.append(chk.result)

    chk = _Check("mullineux", "oracle_residue_choice_is_irrelevant")
    for e in e_values:
        for la in _all_partitions(min(max_size, 10)):
            if not la.is_e_regular(e):
                continue
            chk.tick(
                mullineux_oracle(la, e, "min") == mullineux_oracle(la, e, "max"),
                lambda: f"{la} e={e}",
            )
    out.append(chk.result)

    chk = _Check("mullineux", "image_shares_e_core")
    for e in e_values:
        for la in _all_partitions(min(max_size, 12)):
            if not la.is_e_restricted(e):
                continue
            image = _mull(la.conjugate().parts, e)
            chk.tick(
                ab.e_core(image, e) == ab.e_core(la, e),
                lambda: f"{la} e={e}",
            )
    out.append(chk.result)

    return out


def suite_lyle(max_size: int = 14, e_values=(2, 3, 4, 5)) -> list[CheckResult]:
    chk_dom = _Check("lyle", "dominance_always_holds")
    chk_eq = _Check("lyle", "equality_iff_all_hooks_steep_or_shallow")
    for e in e_values:
        for la in _all_partitions(max_size):
            report = lyle_check(la, e)
            chk_dom.tick(report.dominates, lambda: f"{la} e={e}")
            chk_eq.tick(report.criterion_matches, lambda: f"{la} e={e}")
    return [chk_dom.result, chk_eq.result]


def _split_contexts(e: int, piece_bound: int):
    """All proper residue subsets with bead counts sized per the grids."""
    max_parts = piece_bound * (e - 1) + piece_bound  # parts of mu_I in the worst case
    n = e * (-(-(max_parts + e) // e))
    for k in range(1, e):
        for combo in combinations(range(e), k):
            yield sp.SplitContext(e, frozenset(combo), n)


def suite_split(piece_bound: int = 3, e_values=(4, 5, 6), max_size: int = 12) -> list[CheckResult]:
    out = []

    chk = _Check("split", "split_combine_round_trip")
    for e in (4, 5):
        for residues in (frozenset({0}), frozenset({0, 2}), frozenset(range(1, e))):
            n = e * ((min(max_size, 14) + e) // e + 1)
            ctx = sp.SplitContext(e, residues, n)
            for la in _all_partitions(min(max_size, 14)):
                res = sp.split(la, ctx)
                chk.tick(
                    sp.combine(res.lambda_I, res.lambda_Ibar, ctx.with_u(res.u)) == la,
                    lambda: f"{la} I={sorted(residues)} e={e}",
                )
    out.append(chk.result)

    chk_reg = _Check("split", "separated_regular_iff_half_restricted")
    chk_rest = _Check("split", "separated_restricted_iff_half_restricted")
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
                    chk_reg.tick(
                        ld.is_regular(la, params)
                        == halves.lambda_Ibar.is_e_restricted(ctx.c_bar),
                        lambda: f"{la} I={sorted(residues)} e={e}",
                    )
                    chk_rest.tick(
                        la.is_e_restricted(e)
                        == halves.lambda_I.is_e_restricted(ctx.c),
                        lambda: f"{la} I={sorted(residues)} e={e}",
                    )
    out += [chk_reg.result, chk_rest.result]

    chk_box = _Check("split", "box_step_preserves_cbar_fingerprint")
    chk_thm = _Check("split", "splitting_theorem")
    pieces = list(_all_partitions(piece_bound))
    for e in e_values:
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
                            chk_thm.tick(
                                report.verdict != "falsified",
                                lambda: f"alpha={alpha} beta={beta} gamma={gamma} "
                                f"I={sorted(ctx.residues)} e={e} n={ctx.n} u={u}",
                            )
                            if report.la_separated and chk_box.result.failure is None:
                                nu = report.la
                                halves = sp.split(nu, ctx)
                                if not halves.lambda_Ibar.is_e_restricted(cb):
                                    xi = sp._box_step(nu, ctx)
                                    chk_box.tick(
                                        ld.fingerprint(xi, params)
                                        == ld.fingerprint(nu, params),
                                        lambda: f"nu={nu} I={sorted(ctx.residues)} e={e} u={u}",
                                    )
    out += [chk_thm.result, chk_box.result]

    return out


def suite_paget(e_values=(3, 4), quotient_bound: int = 2, offset: int = 2) -> list[CheckResult]:
    chk_sep = _Check("paget", "theorem_on_quotient_separated_partitions")
    chk_core = _Check("paget", "partner_shares_core")
    small = [list(enumerate_partitions(s)) for s in range(quotient_bound + 1)]
    components = [p for group in small for p in group]
    for e in e_values:
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
                chk_core.tick(
                    ab.e_core(mu, e) == core, lambda: f"{la} e={e}"
                )
                if sp.is_quotient_separated(mu, e, n):
                    chk_sep.tick(
                        _mullineux(la.conjugate(), e) == mu,
                        lambda: f"{la} e={e} n={n}",
                    )
    return [chk_sep.result, chk_core.result]


def run_suites(
    names, max_size: int | None = None, e_values=None
) -> list[CheckResult]:
    """Run the named suites (or all of them) and return every result."""
    chosen = list(SUITES) if "all" in names else [n for n in SUITES if n in names]
    unknown = set(names) - set(SUITES) - {"all"}
    if unknown:
        raise ValueError(f"unknown suite(s): {sorted(unknown)}")
    results: list[CheckResult] = []
    for name in chosen:
        if name == "core":
            kwargs = {} if max_size is None else {"max_size": max_size}
            if e_values:
                kwargs["e_values"] = e_values
            results += suite_core(**kwargs)
        elif name == "ladder":
            results += suite_ladder(**({} if max_size is None else {"max_size": max_size}))
        elif name == "crystal":
            results += suite_crystal(**({} if max_size is None else {"max_size": max_size}))
        elif name == "mullineux":
            kwargs = {} if max_size is None else {"max_size": max_size}
            if e_values:
                kwargs["e_values"] = e_values
            results += suite_mullineux(**kwargs)
        elif name == "lyle":
            kwargs = {} if max_size is None else {"max_size": max_size}
            if e_values:
                kwargs["e_values"] = e_values
            results += suite_lyle(**kwargs)
        elif name == "split":
            kwargs = {}
            if max_size is not None:
                kwargs["piece_bound"] = max(1, max_size // 4)
                kwargs["max_size"] = max_size
            if e_values:
                kwargs["e_values"] = tuple(e for e in e_values if e >= 3)
            results += suite_split(**kwargs)
        elif name == "paget":
            kwargs = {}
            if e_values:
                kwargs["e_values"] = tuple(e for e in e_values if e >= 2)
            if max_size is not None:
                kwargs["quotient_bound"] = max(1, min(2, max_size // 4))
            results += suite_paget(**kwargs)
    return results
