import pytest

from regcrystals import abacus as ab
from regcrystals import separation as sp
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
    def test_separation_builds_no_abacus(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("separation built an Abacus")

        monkeypatch.setattr(ab.Abacus, "__init__", refuse)
        ctx = SplitContext(5, frozenset({1, 4}), 15)
        la = P("15,11,9,7^3,6,4^3,2,1")
        halves = sp.split(la, ctx)
        assert sp.combine(halves.lambda_I, halves.lambda_Ibar, ctx.with_u(halves.u)) == la
        assert sp.is_separated(la, ctx)
        assert sp.verify_split(P("1"), Partition(), Partition(), ctx.with_u(6)).verdict != "falsified"
        assert sp.paget_mu(P("11,10,9,8,7,5^2,4,3,2,1^5"), 4) == P("19,10,9,8,7,4,3,3,3,2,1")


class TestSplitCombine:
    def test_paper_split(self):
        res = sp.split(P("5,3^2,2,1"), SplitContext(5, frozenset({0, 2}), 10))
        assert res == sp.SplitResult(P("2"), P("2,1"), 3)

    def test_combine_empty(self):
        ctx = SplitContext(5, frozenset({0, 2}), 10, u=4)
        assert sp.combine(Partition(), Partition(), ctx) == Partition()

    def test_round_trip(self):
        for e, residues in ((4, {0, 2}), (5, {1, 4}), (5, {0}), (4, {1, 2, 3})):
            ctx = SplitContext(e, frozenset(residues), 4 * e)
            for la in all_up_to(14):
                got = sp.split(la, ctx)
                back = sp.combine(got.lambda_I, got.lambda_Ibar, ctx.with_u(got.u))
                assert back == la

    def test_capacity_errors(self):
        ctx = SplitContext(4, frozenset({0}), 8, u=1)
        with pytest.raises(ValueError):
            sp.combine(P("1,1"), Partition(), ctx)
        with pytest.raises(ValueError):
            sp.combine(Partition(), P("1^8"), ctx)

    def test_combine_requires_u(self):
        ctx = SplitContext(4, frozenset({0}), 8)
        with pytest.raises(ValueError):
            sp.combine(P("1"), P("1"), ctx)


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
    CTX5 = SplitContext(5, frozenset({1, 4}), 15, 10)

    def test_first_example(self):
        la, mu = sp.build_split_pair(P("2^2,1"), P("2,1^2"), P("1^3"), self.CTX5)
        assert la == P("15,11,9,7^3,6,4^3,2,1")
        assert mu == P("17,16,14,10,9,5,2^2,1^2")

    def test_first_example_halves(self):
        la, mu = sp.build_split_pair(P("2^2,1"), P("2,1^2"), P("1^3"), self.CTX5)
        halves_la = sp.split(la, self.CTX5)
        halves_mu = sp.split(mu, self.CTX5)
        assert halves_la.lambda_I == P("2,1^2") and halves_la.lambda_Ibar == P("7^2,4")
        assert halves_mu.lambda_I == P("3^3,2^2,1") and halves_mu.lambda_Ibar == P("2,1")
        assert halves_la.u == halves_mu.u == 10

    def test_counterexample_pair(self):
        ctx = SplitContext(6, frozenset({0, 3, 5}), 12, 7)
        la, mu = sp.build_split_pair(Partition(), Partition(), P("2,2"), ctx)
        assert la == P("2^5") and mu == P("5,2^2,1")

    def test_restriction_preconditions(self):
        ctx = SplitContext(5, frozenset({1, 4}), 15, 10)
        with pytest.raises(ValueError):
            sp.build_split_pair(P("1"), P("3"), P("1"), ctx)  # beta not 2-restricted
        ctx1 = SplitContext(5, frozenset({1}), 15, 5)
        with pytest.raises(ValueError):
            sp.build_split_pair(P("1"), P("1"), P("1"), ctx1)  # c = 1 forces beta empty


class TestVerifySplit:
    def test_holds(self):
        rep = sp.verify_split(P("2^2,1"), P("2,1^2"), P("1^3"), self.ctx5())
        assert rep.verdict == "holds"
        assert rep.la_separated and rep.mu_separated
        assert rep.mullineux_image == rep.mu

    def test_hypothesis_not_met(self):
        ctx = SplitContext(6, frozenset({0, 3, 5}), 12, 7)
        rep = sp.verify_split(Partition(), Partition(), P("2,2"), ctx)
        assert rep.verdict == "hypothesis-not-met"
        assert rep.la_separated and not rep.mu_separated
        assert rep.mullineux_image is None
        assert mullineux(rep.la.conjugate(), 6) != rep.mu

    def test_empty_inputs(self):
        ctx = SplitContext(5, frozenset({1, 4}), 15, 6)
        rep = sp.verify_split(Partition(), Partition(), Partition(), ctx)
        assert rep.verdict == "holds"

    @staticmethod
    def ctx5():
        return SplitContext(5, frozenset({1, 4}), 15, 10)


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
        assert sp.quotient_sigma(self.PAGET_LA, 4, 20) == (1, 3, 0, 2)
        assert sp.quotient_sigma(self.PAGET_LA, 4) == (1, 3, 0, 2)

    def test_sigma_of_empty(self):
        assert sp.quotient_sigma(Partition(), 4) == (0, 1, 2, 3)
        assert sp.is_quotient_separated(Partition(), 4)

    def test_separated_examples(self):
        assert sp.is_quotient_separated(self.PAGET_LA, 4)
        assert sp.is_quotient_separated(self.PAGET_MU, 4)

    def test_bead_invariance(self):
        for la in all_up_to(10):
            for e in (2, 3, 4):
                n0 = ab.default_beads(la, e)
                assert sp.is_quotient_separated(la, e, n0) == sp.is_quotient_separated(la, e, n0 + e)


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

    def test_preconditions(self):
        with pytest.raises(ValueError):
            sp.paget_mu(P("4"), 4)  # not 4-restricted
        with pytest.raises(ValueError):
            sp.paget_mu(P("2,1,1"), 2)  # not quotient separated
