import random
from itertools import combinations, product

import pytest

from oracles import (
    quotient_separated_by_beads,
    separated_by_scan,
    split_report_oracle,
    to_global,
)
from regcrystals import abacus as ab
from regcrystals import separation as sp
from regcrystals import verify
from regcrystals.ladders import LadderParams, fingerprint
from regcrystals.mullineux import _conjugate_image, mullineux
from regcrystals.partitions import Partition, beta_numbers, enumerate_partitions, parse_partition
from regcrystals.separation import SplitContext

P = parse_partition


def all_up_to(n):
    for s in range(n + 1):
        yield from enumerate_partitions(s)


class TestContext:
    def test_validation(self):
        with pytest.raises(ValueError):
            SplitContext(5, frozenset(), 10)
        with pytest.raises(ValueError):
            SplitContext(5, frozenset(range(5)), 10)
        with pytest.raises(ValueError):
            SplitContext(5, frozenset({0}), 12)  # n not a multiple of e
        with pytest.raises(ValueError):
            SplitContext(5, frozenset({7}), 10)

    def test_counts(self):
        ctx = SplitContext(5, frozenset({0, 2}), 10)
        assert ctx.c == 2 and ctx.c_bar == 3
        assert ctx.complement == frozenset({1, 3, 4})

    def test_runner_lists_are_built_once_and_not_compared(self):
        # and so are the tables of places, the first n positions of I and of
        # Ibar, and the rank tables by which _split renumbers
        ctx = SplitContext(5, {4, 1}, 15)
        assert ctx.runners == ((1, 4), (0, 2, 3))
        assert ctx.places == tuple(tuple(sorted(to_global(range(15), 5, res))) for res in ctx.runners)
        assert ctx.places[0][:5] == (1, 4, 6, 9, 11) and ctx.places[1][:4] == (0, 2, 3, 5)
        assert ctx.ranks == ({1: 0, 4: 1}, {0: 0, 2: 1, 3: 2})
        assert repr(ctx) == "SplitContext(e=5, residues=frozenset({1, 4}), n=15)"
        other = SplitContext(5, frozenset({1, 4}), 15)
        object.__setattr__(other, "runners", ((), ()))
        object.__setattr__(other, "places", ((), ()))
        object.__setattr__(other, "ranks", ((), ()))
        assert ctx == other and hash(ctx) == hash(other)

    def test_u_outside_the_bead_count_is_rejected(self):
        ctx = SplitContext(5, frozenset({1, 4}), 15)
        pieces = (P("2^2,1"), P("2,1^2"), P("1^3"))
        for u in (-1, 16):
            message = rf"^u = {u} outside \[0, 15\]$"
            with pytest.raises(ValueError, match=message):
                sp.combine(Partition(), Partition(), ctx, u)
            for build in (sp.build_split_pair, sp.verify_split):
                with pytest.raises(ValueError, match=message):
                    build(sp.split_pair(*pieces, ctx.c, ctx.c_bar), ctx, u)


class TestSeparated:
    def test_counterexample_pair(self):
        ctx = SplitContext(6, frozenset({0, 3, 5}), 12)
        assert sp.is_separated(P("2^5"), ctx)
        assert not sp.is_separated(P("5,2,2,1"), ctx)

    def test_splitting_example(self):
        ctx = SplitContext(5, frozenset({1, 4}), 15)
        assert sp.is_separated(P("15,11,9,7^3,6,4^3,2,1"), ctx)

    def test_first_display_is_not_separated(self):
        # first empty position on {0,2}-runners is 5, after the bead at 14
        ctx = SplitContext(5, frozenset({0, 2}), 10)
        assert not sp.is_separated(P("5,3^2,2,1"), ctx)

    def test_empty_partition_separated(self):
        for e, res in ((5, {0, 2}), (4, {3}), (3, {0, 1})):
            assert sp.is_separated(Partition(), SplitContext(e, frozenset(res), 2 * e))

    def test_independent_of_beads(self):
        ctx12 = SplitContext(6, frozenset({0, 3, 5}), 12)
        ctx18 = SplitContext(6, frozenset({0, 3, 5}), 18)
        for la in all_up_to(10):
            assert sp.is_separated(la, ctx12) == sp.is_separated(la, ctx18)


def proper_contexts(n_of):
    """A SplitContext for every proper residue set I at e = 2..6, on
    n_of(e) beads."""
    for e in range(2, 7):
        for mask in range(1, 2 ** e - 1):
            yield SplitContext(e, frozenset(i for i in range(e) if mask >> i & 1), n_of(e))


def outcome(build, *args):
    """build(*args), or the message of the ValueError it raises."""
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc)


class TestPlacesTable:
    """_combined_beads and _separated read ctx.places; the references
    renumber every bead on its own and scan every bead."""

    def test_combined_beads_equal_the_renumbering(self):
        # each half's reference placement is made once per bead count and side
        halves = list(all_up_to(5))
        checked = raised = 0
        for ctx in proper_contexts(lambda e: e * -(-6 // e)):
            sides = (ctx.residues, ctx.complement)
            ref = {(half, b, side): outcome(lambda: to_global(beta_numbers(half, b), ctx.e, sides[side]))
                   for half in halves for b in range(ctx.n + 1) for side in (0, 1)}
            for u in range(ctx.n + 1):
                for beta in halves:
                    on_i = ref[beta, u, 0]
                    for gamma in halves:
                        on_ibar = ref[gamma, ctx.n - u, 1]
                        want = next((r for r in (on_i, on_ibar) if isinstance(r, str)), None)
                        got = outcome(sp._combined_beads, beta, gamma, ctx, u)
                        assert got == (want or on_i | on_ibar), (beta, gamma, ctx, u)
                        checked += 1
                        raised += want is not None
        assert checked > raised > 0

    def test_both_messages_are_kept(self):
        ctx = SplitContext(4, frozenset({0, 3}), 8)
        for u in (-1, 9):
            with pytest.raises(ValueError) as exc:
                sp._combined_beads(Partition(), Partition(), ctx, u)
            assert str(exc.value) == f"u = {u} outside [0, 8]"
        cases = ((P("1^3"), Partition(), 2, "need at least 3 beads, got 2"),
                 (Partition(), P("1^7"), 2, "need at least 7 beads, got 6"),
                 (P("1^3"), P("1^7"), 2, "need at least 3 beads, got 2"))
        for beta, gamma, u, message in cases:
            with pytest.raises(ValueError) as exc:
                sp._combined_beads(beta, gamma, ctx, u)
            assert str(exc.value) == message

    def test_separated_equals_the_bead_scan(self):
        displays = list(all_up_to(12))
        checked = separated = 0
        for ctx in proper_contexts(lambda e: e * (12 // e + 1)):
            for la in displays:
                occ = beta_numbers(la, ctx.n)
                got = sp._separated(occ, ctx)
                assert got == separated_by_scan(occ, ctx), (la, ctx)
                checked += 1
                separated += got
        assert checked > separated > 0

    def test_separated_with_no_complement_bead_or_one_past_the_table(self):
        for ctx in proper_contexts(lambda e: e):
            empty = beta_numbers(Partition(), ctx.n)
            assert sp._separated(empty, ctx) == separated_by_scan(empty, ctx)
            all_on_i = to_global(range(ctx.n), ctx.e, ctx.residues)  # no complement bead
            assert sp._separated(all_on_i, ctx) and separated_by_scan(all_on_i, ctx)
            # the last complement bead lies past every stored I-place
            far = set(range(ctx.n - 1)) | {ctx.e * (ctx.n + 1) + min(ctx.complement)}
            assert not sp._separated(far, ctx) and not separated_by_scan(far, ctx)


class TestNoDisplayObjects:
    def test_separation_builds_no_abacus(self):
        # the abacus layer defines no display class: a display is its bead set
        assert not [v for v in vars(ab).values() if isinstance(v, type) and v.__module__ == ab.__name__]
        ctx = SplitContext(5, frozenset({1, 4}), 15)
        la = P("15,11,9,7^3,6,4^3,2,1")
        halves = sp.split(la, ctx)
        assert sp.combine(halves.lambda_I, halves.lambda_Ibar, ctx, halves.u) == la
        assert sp.is_separated(la, ctx)
        pair = sp.split_pair(P("1"), Partition(), Partition(), ctx.c, ctx.c_bar)
        assert sp.verify_split(pair, ctx, 6).verdict != "falsified"
        assert sp.paget_mu(P("11,10,9,8,7,5^2,4,3,2,1^5"), 4) == P("19,10,9,8,7,4,3,3,3,2,1")


class TestSplitCombine:
    def test_paper_split(self):
        res = sp.split(P("5,3^2,2,1"), SplitContext(5, frozenset({0, 2}), 10))
        assert res == sp.SplitResult(P("2"), P("2,1"), 3)

    def test_combine_empty(self):
        ctx = SplitContext(5, frozenset({0, 2}), 10)
        assert sp.combine(Partition(), Partition(), ctx, 4) == Partition()

    def test_round_trip(self):
        for e, residues in ((4, {0, 2}), (5, {1, 4}), (5, {0}), (4, {1, 2, 3})):
            ctx = SplitContext(e, frozenset(residues), 4 * e)
            for la in all_up_to(14):
                got = sp.split(la, ctx)
                back = sp.combine(got.lambda_I, got.lambda_Ibar, ctx, got.u)
                assert back == la

    def test_split_renumbers_each_side_by_its_rank_table(self):
        # the two local bead sets, taken back to global positions by the
        # oracle's per-class renumbering, are the beads on I and on Ibar
        for e in range(2, 7):
            for k in range(1, e):
                for residues in combinations(range(e), k):
                    ctx = SplitContext(e, frozenset(residues), 3 * e)
                    bar = set(range(e)) - set(residues)
                    for la in all_up_to(10):
                        if len(la) > ctx.n:
                            continue
                        occ = beta_numbers(la, ctx.n)
                        local_i, local_ibar = sp._split(occ, ctx)
                        assert to_global(local_i, e, residues) == {p for p in occ if p % e in residues}
                        assert to_global(local_ibar, e, bar) == {p for p in occ if p % e in bar}

    def test_capacity_errors(self):
        ctx = SplitContext(4, frozenset({0}), 8)
        with pytest.raises(ValueError):
            sp.combine(P("1,1"), Partition(), ctx, 1)
        with pytest.raises(ValueError):
            sp.combine(Partition(), P("1^8"), ctx, 1)


class TestBoxOperations:
    def test_box_row(self):
        assert sp.box_row(P("2,2,1"), P("1,1,1"), 3) == P("7,7,4")
        assert sp.box_row(Partition(), P("3,1"), 3) == P("3,1")
        assert sp.box_row(P("1"), Partition(), 2) == P("2")

    def test_box_col(self):
        assert sp.box_col(P("3,2"), P("3,1"), 2) == P("3,3,3,2,2,1")
        assert sp.box_col(Partition(), P("3,1"), 2) == P("3,1")

    def test_box_col_size(self):
        for alpha in all_up_to(4):
            for beta in all_up_to(4):
                for c in (1, 2, 3):
                    assert sp.box_col(alpha, beta, c).size == beta.size + c * alpha.size


class TestSplitPair:
    CTX5 = SplitContext(5, frozenset({1, 4}), 15)

    def test_first_example(self):
        la, mu = sp.build_split_pair(sp.split_pair(P("2^2,1"), P("2,1^2"), P("1^3"), 2, 3), self.CTX5, 10)
        assert la == P("15,11,9,7^3,6,4^3,2,1")
        assert mu == P("17,16,14,10,9,5,2^2,1^2")

    def test_first_example_halves(self):
        la, mu = sp.build_split_pair(sp.split_pair(P("2^2,1"), P("2,1^2"), P("1^3"), 2, 3), self.CTX5, 10)
        halves_la = sp.split(la, self.CTX5)
        halves_mu = sp.split(mu, self.CTX5)
        assert halves_la.lambda_I == P("2,1^2") and halves_la.lambda_Ibar == P("7^2,4")
        assert halves_mu.lambda_I == P("3^3,2^2,1") and halves_mu.lambda_Ibar == P("2,1")
        assert halves_la.u == halves_mu.u == 10

    def test_counterexample_pair(self):
        ctx = SplitContext(6, frozenset({0, 3, 5}), 12)
        la, mu = sp.build_split_pair(sp.split_pair(Partition(), Partition(), P("2,2"), 3, 3), ctx, 7)
        assert la == P("2^5") and mu == P("5,2^2,1")

    def test_restriction_preconditions(self):
        with pytest.raises(ValueError):
            sp.split_pair(P("1"), P("3"), P("1"), 2, 3)  # beta not 2-restricted
        with pytest.raises(ValueError):
            sp.split_pair(P("1"), P("1"), P("1"), 1, 4)  # c = 1 forces beta empty


class TestVerifySplit:
    def test_holds(self):
        rep = sp.verify_split(sp.split_pair(P("2^2,1"), P("2,1^2"), P("1^3"), 2, 3), self.ctx5(), 10)
        assert rep.verdict == "holds"
        assert rep.la_separated and rep.mu_separated
        assert rep.mullineux_image == rep.mu

    def test_hypothesis_not_met(self):
        ctx = SplitContext(6, frozenset({0, 3, 5}), 12)
        rep = sp.verify_split(sp.split_pair(Partition(), Partition(), P("2,2"), 3, 3), ctx, 7)
        assert rep.verdict == "hypothesis-not-met"
        assert rep.la_separated and not rep.mu_separated
        assert rep.mullineux_image is None
        assert mullineux(rep.la.conjugate(), 6) != rep.mu

    def test_empty_inputs(self):
        ctx = SplitContext(5, frozenset({1, 4}), 15)
        rep = sp.verify_split(sp.split_pair(Partition(), Partition(), Partition(), 2, 3), ctx, 6)
        assert rep.verdict == "holds"

    def test_image_is_taken_without_conjugating(self, monkeypatch):
        # m_e(la') runs from la itself; the halves are built before the count starts
        args = (sp.split_pair(P("2^2,1"), P("2,1^2"), P("1^3"), 2, 3), self.ctx5(), 10)
        assert sp.verify_split(*args).verdict == "holds"
        calls, real = [], Partition.conjugate
        monkeypatch.setattr(Partition, "conjugate", lambda la: calls.append(la) or real(la))
        rep = sp.verify_split(*args)
        assert rep.verdict == "holds" and calls == []
        assert rep.mullineux_image == mullineux(rep.la.conjugate(), 5)

    @staticmethod
    def ctx5():
        return SplitContext(5, frozenset({1, 4}), 15)


class TestHalvesOncePerTriple:
    """verify_split places the halves of one SplitPair, built once per
    (alpha, beta, gamma, c), at every u and tests separation on bead sets;
    the oracle rebuilds everything for each u."""

    @pytest.mark.parametrize("e", [3, 4])
    def test_reports_equal_the_oracle_for_every_u(self, e):
        pieces = list(all_up_to(2))
        checked = met = 0
        for ctx0 in verify._split_contexts(e, 2):
            c, cb = ctx0.c, ctx0.c_bar
            for alpha in pieces:
                for beta in (p for p in pieces if p.is_e_restricted(c)):
                    for gamma in (p for p in pieces if p.is_e_restricted(cb)):
                        low = max(
                            len(beta),
                            len(mullineux(beta.conjugate(), c)) + c * len(alpha.conjugate()),
                        )
                        high = ctx0.n - max(
                            len(alpha), len(gamma), len(mullineux(gamma.conjugate(), cb))
                        )
                        pair = sp.split_pair(alpha, beta, gamma, c, cb)
                        u_range = sp.split_u_range(pair, ctx0)
                        assert u_range == range(low, high + 1)
                        for u in u_range:
                            report = sp.verify_split(pair, ctx0, u)
                            fields = (
                                report.verdict, report.la, report.mu,
                                report.la_separated, report.mu_separated, report.mullineux_image,
                            )
                            assert fields == split_report_oracle(alpha, beta, gamma, ctx0, u), (
                                alpha, beta, gamma, ctx0, u)
                            assert (report.la, report.mu) == sp.build_split_pair(pair, ctx0, u)
                            checked += 1
                            met += report.verdict != "hypothesis-not-met"
        assert checked > met > 0

    def test_u_range_ends_where_combine_fails(self):
        ctx0 = SplitContext(5, frozenset({1, 4}), 15)
        pair = sp.split_pair(P("2^2,1"), P("2,1^2"), P("1^3"), ctx0.c, ctx0.c_bar)
        u_range = sp.split_u_range(pair, ctx0)
        assert 10 in u_range
        for u in (u_range.start - 1, u_range.stop):
            with pytest.raises(ValueError, match="need at least"):
                sp.build_split_pair(pair, ctx0, u)

    def test_unrestricted_pieces_are_rejected_every_time(self):
        for _ in range(2):  # nothing is kept between calls
            with pytest.raises(ValueError, match=r"^beta = \(3,\) is not 2-restricted$"):
                sp.split_pair(P("1"), P("3"), P("1"), 2, 3)


class TestBeadRoute:
    """verify_split runs the Mullineux loop on a copy of la's n-bead set and
    compares it with mu's; the partition route decodes la and runs
    _conjugate_image on it."""

    @staticmethod
    def check_held(pair, ctx, u_both):
        held = 0
        for u in range(u_both, sp.split_u_range(pair, ctx).stop):
            report = sp.verify_split(pair, ctx, u)
            la, mu = sp.build_split_pair(pair, ctx, u)
            where = (pair, ctx, u)
            assert (report.la, report.mu) == (la, mu), where
            assert report.mullineux_image == _conjugate_image(la, ctx.e), where
            assert report.verdict == "holds", where
            held += 1
        return held

    def test_every_held_instance_at_e_4_max_12(self):
        # the instances of verify split --e 4 --max 12: pieces of size <= 3
        pieces = list(all_up_to(3))
        held = 0
        for ctx in verify._split_contexts(4, 3):
            c, cb = ctx.c, ctx.c_bar
            for alpha in pieces:
                for beta in (p for p in pieces if p.is_e_restricted(c)):
                    for gamma in (p for p in pieces if p.is_e_restricted(cb)):
                        pair = sp.split_pair(alpha, beta, gamma, c, cb)
                        held += self.check_held(pair, ctx, sp.separation_thresholds(pair, ctx)[1])
        assert held == 6174

    @pytest.mark.parametrize("e", [5, 6])
    def test_seeded_instances(self, e):
        rng = random.Random(2105 + e)
        pieces = list(all_up_to(3))
        contexts = list(verify._split_contexts(e, 3))
        held = 0
        for _ in range(150):
            ctx = rng.choice(contexts)
            alpha = rng.choice(pieces)
            beta = rng.choice([p for p in pieces if p.is_e_restricted(ctx.c)])
            gamma = rng.choice([p for p in pieces if p.is_e_restricted(ctx.c_bar)])
            pair = sp.split_pair(alpha, beta, gamma, ctx.c, ctx.c_bar)
            held += self.check_held(pair, ctx, sp.separation_thresholds(pair, ctx)[1])
        assert held > 300

    def test_report_decodes_only_what_is_read(self, monkeypatch):
        decodes = []
        real = sp.from_beta_numbers
        monkeypatch.setattr(sp, "from_beta_numbers", lambda occ: decodes.append(occ) or real(occ))
        report = sp.verify_split(sp.split_pair(P("2^2,1"), P("2,1^2"), P("1^3"), 2, 3), self.CTX5, 10)
        assert report.verdict == "holds" and decodes == []
        assert report.mullineux_image == report.mu == P("17,16,14,10,9,5,2^2,1^2")
        assert len(decodes) == 2

    CTX5 = SplitContext(5, frozenset({1, 4}), 15)


class TestSeparationThresholds:
    """separation_thresholds against the separation that verify_split reads
    off the bead sets, and against is_separated on the decoded pair."""

    @pytest.mark.parametrize("e", [3, 4, 5])
    def test_thresholds_match_verify_split_on_the_suite_instances(self, e):
        # the instances of the split suite at --max 8: pieces of size <= 2
        pieces = list(all_up_to(2))
        below = inside = 0
        for ctx0 in verify._split_contexts(e, 2):
            c, cb = ctx0.c, ctx0.c_bar
            for alpha in pieces:
                for beta in (p for p in pieces if p.is_e_restricted(c)):
                    for gamma in (p for p in pieces if p.is_e_restricted(cb)):
                        pair = sp.split_pair(alpha, beta, gamma, c, cb)
                        u_la, u_both = sp.separation_thresholds(pair, ctx0)
                        u_range = sp.split_u_range(pair, ctx0)
                        assert u_range.start <= u_la <= u_both <= u_range.stop
                        for u in u_range:
                            report = sp.verify_split(pair, ctx0, u)
                            where = (alpha, beta, gamma, ctx0, u, u_la, u_both)
                            assert (u >= u_la) == report.la_separated, where
                            assert (u >= u_both) == (report.la_separated and report.mu_separated), where
                        below += u_range.start < u_both
                        inside += u_range.start < u_both < u_range.stop
        assert below > inside > 0

    def test_thresholds_match_is_separated_on_seeded_pieces(self):
        rng = random.Random(20)
        pieces = list(all_up_to(6))
        seen = {"la below": 0, "mu below": 0, "met": 0}
        for _ in range(300):
            e = rng.randint(3, 7)
            residues = frozenset(rng.sample(range(e), rng.randint(1, e - 1)))
            ctx0 = next(
                ctx for ctx in verify._split_contexts(e, 6) if ctx.residues == residues
            )
            alpha = rng.choice(pieces)
            beta = rng.choice([p for p in pieces if p.is_e_restricted(ctx0.c)])
            gamma = rng.choice([p for p in pieces if p.is_e_restricted(ctx0.c_bar)])
            pair = sp.split_pair(alpha, beta, gamma, ctx0.c, ctx0.c_bar)
            u_la, u_both = sp.separation_thresholds(pair, ctx0)
            for u in sp.split_u_range(pair, ctx0):
                la, mu = sp.build_split_pair(pair, ctx0, u)
                la_sep, mu_sep = sp.is_separated(la, ctx0), sp.is_separated(mu, ctx0)
                where = (alpha, beta, gamma, ctx0, u, u_la, u_both)
                assert (u >= u_la) == la_sep, where
                assert (u >= u_both) == (la_sep and mu_sep), where
                seen["la below"] += not la_sep
                seen["mu below"] += la_sep and not mu_sep
                seen["met"] += la_sep and mu_sep
        assert all(seen.values()), seen

    def test_none_separated_gives_the_range_stop(self):
        # with gamma = 1^2 on runners 1, 2 the last Ibar bead lies above the
        # first gap on runner 0: position 5 against 0 at u = 0, 4 against 3 at u = 1
        ctx0 = SplitContext(3, frozenset({0}), 3)
        args = (sp.split_pair(Partition(), Partition(), P("1^2"), 1, 2), ctx0)
        u_range = sp.split_u_range(*args)
        assert u_range == range(0, 2)
        assert sp.separation_thresholds(*args) == (u_range.stop, u_range.stop)
        assert not any(sp.verify_split(*args, u).la_separated for u in u_range)


def box_step(nu, ctx):
    """One column-box move on nu, composed as the split suite makes it."""
    nu_i, nu_ibar, u = sp.split(nu, ctx)
    return sp.combine(*sp._box_halves(nu_i, nu_ibar, ctx.c, ctx.c_bar), ctx, u)


class TestBoxStep:
    def test_preserves_cbar_fingerprint(self):
        checked = 0
        for e, residues in ((5, {1, 4}), (4, {0, 2}), (6, {0, 3, 5})):
            ctx0 = SplitContext(e, frozenset(residues), 4 * e)
            params = LadderParams(e, ctx0.c_bar)
            for la in all_up_to(12):
                if not sp.is_separated(la, ctx0):
                    continue
                halves = sp.split(la, ctx0)
                if halves.lambda_Ibar.is_e_restricted(ctx0.c_bar):
                    continue
                xi = box_step(la, ctx0)
                assert fingerprint(xi, params) == fingerprint(la, params)
                checked += 1
        assert checked > 0

    def test_restricted_input_rejected(self):
        ctx = SplitContext(5, frozenset({1, 4}), 10)
        with pytest.raises(ValueError):
            box_step(P("1"), ctx)


class TestQuotientSeparation:
    PAGET_LA = P("11,10,9,8,7,5^2,4,3,2,1^5")
    PAGET_MU = P("19,10,9,8,7,4,3^3,2,1")

    def test_sigma(self):
        assert sp.quotient_sigma(self.PAGET_LA, 4) == (1, 3, 0, 2)

    def test_sigma_of_empty(self):
        assert sp.quotient_sigma(Partition(), 4) == (0, 1, 2, 3)
        assert sp.is_quotient_separated(Partition(), 4)

    def test_separated_examples(self):
        assert sp.is_quotient_separated(self.PAGET_LA, 4)
        assert sp.is_quotient_separated(self.PAGET_MU, 4)

    @pytest.mark.parametrize("e", [2, 3, 4])
    def test_separated_quotients_are_the_separated_product_tuples(self, e):
        components = [p for s in range(3) for p in enumerate_partitions(s)]
        # the paget suite's runner counts, and for e <= 3 short runners down
        # to none; each bead total is a multiple of e, so the runner labels
        # agree with those of is_quotient_separated's own display
        vectors = [[5 + d for d in ds] for ds in product(range(-2, 3), repeat=e) if not sum(ds)]
        if e < 4:
            vectors += [list(cs) for cs in product(range(4), repeat=e) if sum(cs) % e == 0]
        for counts in vectors:
            fits = [q for q in components if len(q) <= min(counts)]
            expected = [
                quot for quot in product(fits, repeat=e)
                if sp.is_quotient_separated(ab.from_runners(quot, counts), e)
            ]
            assert sp.separated_quotients([fits] * e, counts) == expected, counts

    def test_separated_quotients_need_room_for_every_component(self):
        with pytest.raises(ValueError, match="^runner bead count 1 is less than a component's length$"):
            sp.separated_quotients([[Partition(), P("1,1")]] * 3, [1, 3, 2])

    @pytest.mark.parametrize("e", [2, 3, 4, 5])
    def test_is_quotient_separated_matches_the_bead_scan(self, e):
        for la in all_up_to(14):
            assert sp.is_quotient_separated(la, e) == quotient_separated_by_beads(la, e), la

    @pytest.mark.parametrize("e", [2, 3, 4])
    def test_separated_quotients_with_a_choice_list_per_runner(self, e):
        # each runner gets its own seeded sample of the components that fit
        # on it; the bead totals are multiples of e, as in the paget suite
        rng = random.Random(2105 + e)
        components = [p for s in range(4) for p in enumerate_partitions(s)]
        for _ in range(40):
            counts = [rng.randrange(5) for _ in range(e - 1)]
            counts.append(rng.randrange(5) * e + (-sum(counts)) % e)
            choices = [rng.sample(fit, min(len(fit), 4)) for fit in
                       ([q for q in components if len(q) <= u] for u in counts)]
            expected = [
                quot for quot in product(*choices)
                if quotient_separated_by_beads(ab.from_runners(quot, counts), e)
            ]
            assert sp.separated_quotients(choices, counts) == expected, (choices, counts)


class TestPaget:
    def test_paper_example(self):
        la = TestQuotientSeparation.PAGET_LA
        mu = sp.paget_mu(la, 4)
        assert mu == TestQuotientSeparation.PAGET_MU
        assert mullineux(la.conjugate(), 4) == mu

    def test_core_fixed_point(self):
        core = P("2,1")  # a 4-core
        assert ab.e_core(core, 4) == core
        assert sp.paget_mu(core, 4) == core

    def test_bead_set_is_encoded_once(self, monkeypatch):
        la = TestQuotientSeparation.PAGET_LA
        encoded = []
        for module in (sp, ab):
            real = module.beta_numbers

            def counting(mu, n, real=real):
                encoded.append(mu)
                return real(mu, n)

            monkeypatch.setattr(module, "beta_numbers", counting)
        assert sp.paget_mu(la, 4) == TestQuotientSeparation.PAGET_MU
        assert encoded.count(la) == 1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            sp.paget_mu(P("4"), 4)  # not 4-restricted
        with pytest.raises(ValueError):
            sp.paget_mu(P("2,1,1"), 2)  # not quotient separated
