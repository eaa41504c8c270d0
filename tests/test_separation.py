import pytest

from oracles import split_report_oracle
from regcrystals import abacus as ab
from regcrystals import separation as sp
from regcrystals import verify
from regcrystals.ladders import LadderParams, fingerprint
from regcrystals.mullineux import mullineux
from regcrystals.partitions import Partition, enumerate_partitions, parse_partition
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

    def test_u_outside_the_bead_count_is_rejected(self):
        ctx = SplitContext(5, frozenset({1, 4}), 15)
        pieces = (P("2^2,1"), P("2,1^2"), P("1^3"))
        for u in (-1, 16):
            message = rf"^u = {u} outside \[0, 15\]$"
            with pytest.raises(ValueError, match=message):
                sp.combine(Partition(), Partition(), ctx, u)
            for build in (sp.build_split_pair, sp.verify_split):
                with pytest.raises(ValueError, match=message):
                    build(*pieces, ctx, u)


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


class TestNoDisplayObjects:
    def test_separation_builds_no_abacus(self):
        # the abacus layer defines no display class: a display is its bead set
        assert not [v for v in vars(ab).values() if isinstance(v, type) and v.__module__ == ab.__name__]
        ctx = SplitContext(5, frozenset({1, 4}), 15)
        la = P("15,11,9,7^3,6,4^3,2,1")
        halves = sp.split(la, ctx)
        assert sp.combine(halves.lambda_I, halves.lambda_Ibar, ctx, halves.u) == la
        assert sp.is_separated(la, ctx)
        assert sp.verify_split(P("1"), Partition(), Partition(), ctx, 6).verdict != "falsified"
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
        la, mu = sp.build_split_pair(P("2^2,1"), P("2,1^2"), P("1^3"), self.CTX5, 10)
        assert la == P("15,11,9,7^3,6,4^3,2,1")
        assert mu == P("17,16,14,10,9,5,2^2,1^2")

    def test_first_example_halves(self):
        la, mu = sp.build_split_pair(P("2^2,1"), P("2,1^2"), P("1^3"), self.CTX5, 10)
        halves_la = sp.split(la, self.CTX5)
        halves_mu = sp.split(mu, self.CTX5)
        assert halves_la.lambda_I == P("2,1^2") and halves_la.lambda_Ibar == P("7^2,4")
        assert halves_mu.lambda_I == P("3^3,2^2,1") and halves_mu.lambda_Ibar == P("2,1")
        assert halves_la.u == halves_mu.u == 10

    def test_counterexample_pair(self):
        ctx = SplitContext(6, frozenset({0, 3, 5}), 12)
        la, mu = sp.build_split_pair(Partition(), Partition(), P("2,2"), ctx, 7)
        assert la == P("2^5") and mu == P("5,2^2,1")

    def test_restriction_preconditions(self):
        ctx = SplitContext(5, frozenset({1, 4}), 15)
        with pytest.raises(ValueError):
            sp.build_split_pair(P("1"), P("3"), P("1"), ctx, 10)  # beta not 2-restricted
        ctx1 = SplitContext(5, frozenset({1}), 15)
        with pytest.raises(ValueError):
            sp.build_split_pair(P("1"), P("1"), P("1"), ctx1, 5)  # c = 1 forces beta empty


class TestVerifySplit:
    def test_holds(self):
        rep = sp.verify_split(P("2^2,1"), P("2,1^2"), P("1^3"), self.ctx5(), 10)
        assert rep.verdict == "holds"
        assert rep.la_separated and rep.mu_separated
        assert rep.mullineux_image == rep.mu

    def test_hypothesis_not_met(self):
        ctx = SplitContext(6, frozenset({0, 3, 5}), 12)
        rep = sp.verify_split(Partition(), Partition(), P("2,2"), ctx, 7)
        assert rep.verdict == "hypothesis-not-met"
        assert rep.la_separated and not rep.mu_separated
        assert rep.mullineux_image is None
        assert mullineux(rep.la.conjugate(), 6) != rep.mu

    def test_empty_inputs(self):
        ctx = SplitContext(5, frozenset({1, 4}), 15)
        rep = sp.verify_split(Partition(), Partition(), Partition(), ctx, 6)
        assert rep.verdict == "holds"

    def test_image_is_taken_without_conjugating(self, monkeypatch):
        # m_e(la') runs from la itself; the halves are memoised by the first call
        args = (P("2^2,1"), P("2,1^2"), P("1^3"), self.ctx5(), 10)
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
    """verify_split reads the u-invariant halves from a memo and tests
    separation on bead sets; the oracle rebuilds everything for each u."""

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
                        u_range = sp.split_u_range(alpha, beta, gamma, ctx0)
                        assert u_range == range(low, high + 1)
                        for u in u_range:
                            report = sp.verify_split(alpha, beta, gamma, ctx0, u)
                            assert report == split_report_oracle(alpha, beta, gamma, ctx0, u), (
                                alpha, beta, gamma, ctx0, u)
                            assert (report.la, report.mu) == sp.build_split_pair(
                                alpha, beta, gamma, ctx0, u)
                            checked += 1
                            met += report.verdict != "hypothesis-not-met"
        assert checked > met > 0

    def test_u_range_ends_where_combine_fails(self):
        ctx0 = SplitContext(5, frozenset({1, 4}), 15)
        alpha, beta, gamma = P("2^2,1"), P("2,1^2"), P("1^3")
        u_range = sp.split_u_range(alpha, beta, gamma, ctx0)
        assert 10 in u_range
        for u in (u_range.start - 1, u_range.stop):
            with pytest.raises(ValueError, match="need at least"):
                sp.build_split_pair(alpha, beta, gamma, ctx0, u)

    def test_unrestricted_pieces_are_rejected_every_time(self):
        ctx = SplitContext(5, frozenset({1, 4}), 15)
        for _ in range(2):  # a raise leaves nothing in the memo
            with pytest.raises(ValueError, match="is not 2-restricted"):
                sp.verify_split(P("1"), P("3"), P("1"), ctx, 10)


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
                xi = sp._box_step(la, ctx0)
                assert fingerprint(xi, params) == fingerprint(la, params)
                checked += 1
        assert checked > 0

    def test_restricted_input_rejected(self):
        ctx = SplitContext(5, frozenset({1, 4}), 10)
        with pytest.raises(ValueError):
            sp._box_step(P("1"), ctx)


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
