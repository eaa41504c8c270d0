import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grow_columns_by_conjugate, quotient_runner_by_runner, runner_beads_by_runner_sets, to_global
from regcrystals import abacus as ab
from regcrystals import separation as sp
from regcrystals.partitions import (
    Partition,
    beta_numbers,
    enumerate_partitions,
    from_beta_numbers,
    parse_partition,
)
from test_ladders import largest_parts_within

P = parse_partition


def all_up_to(n):
    for s in range(n + 1):
        yield from enumerate_partitions(s)


class TestEncodeDecode:
    def test_paper_display(self):
        assert sorted(ab.encode(P("6,4,2,1,1"), 7, 5)) == [0, 1, 3, 4, 6, 9, 12]

    def test_empty(self):
        assert ab.encode(Partition(), 6, 3) == set(range(6))

    def test_second_display(self):
        assert sorted(ab.encode(P("9,3^3,2"), 5, 5)) == [2, 4, 5, 6, 13]

    def test_decode_examples(self):
        assert ab.decode({2, 4, 5, 6, 13}) == P("9,3,3,3,2")
        assert ab.decode({0, 1, 3, 4, 6, 9, 12}) == P("6,4,2,1,1")
        assert ab.decode(range(4)) == Partition()

    def test_needs_a_runner(self):
        with pytest.raises(ValueError, match="^an abacus needs at least one runner$"):
            ab.encode(P("2,1"), 3, 0)

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            ab.decode({-1, 2})

    def test_too_few_beads(self):
        with pytest.raises(ValueError):
            ab.encode(P("2,1,1"), 2, 3)

    def test_round_trip(self):
        for e in (2, 3, 4, 5):
            for la in all_up_to(12):
                for n in (len(la.parts), len(la.parts) + 2, ab.default_beads(la, e)):
                    assert ab.decode(ab.encode(la, n, e)) == la


class TestConjugateDisplay:
    def test_paper_display(self):
        disp = ab.conjugate_display(ab.encode(P("6,4,2,1,1"), 7, 5), 5, 15)
        assert sorted(disp) == [0, 1, 3, 4, 6, 7, 9, 12]
        assert ab.decode(disp) == P("5,3,2^2,1^2")

    def test_empty_stays_empty(self):
        disp = ab.conjugate_display(ab.encode(Partition(), 5, 5), 5, 5)
        assert ab.decode(disp) == Partition()
        assert ab.conjugate_display(set(), 3, 6) == set(range(6))

    def test_m_validation(self):
        disp = ab.encode(P("3,1"), 4, 2)
        with pytest.raises(ValueError, match="^m = 7 is not a multiple of e = 2$"):
            ab.conjugate_display(disp, 2, 7)
        with pytest.raises(ValueError, match="^m = 6 does not exceed the last bead$"):
            ab.conjugate_display(disp, 2, 6)

    def test_decodes_to_conjugate(self):
        for e in (2, 3, 5):
            for la in all_up_to(10):
                disp = ab.encode(la, ab.default_beads(la, e), e)
                m = ((max(disp) + e + 1) // e) * e
                assert ab.decode(ab.conjugate_display(disp, e, m)) == la.conjugate()


class TestRunnerProfile:
    # a display's runner profile is its list of runner_counts
    def test_example(self):
        assert ab.runner_counts(ab.encode(P("9,3^3,2"), 5, 5), 5) == [1] * 5
        assert ab.runner_counts(ab.encode(P("6,4,2,1,1"), 7, 5), 5) == [1, 2, 1, 1, 2]

    def test_empty_display(self):
        assert ab.runner_counts(ab.encode(Partition(), 4, 4), 4) == [1] * 4
        assert ab.runner_counts(set(), 3) == [0, 0, 0]

    def test_equal_content_equal_profile(self):
        for e in (2, 3):
            for n in range(9):
                layer = list(enumerate_partitions(n))
                beads = e * ((max(len(la.parts) for la in layer) + e) // e)
                groups = {}
                for la in layer:
                    key = la.e_content(e)
                    groups.setdefault(key, []).append(
                        tuple(ab.runner_counts(ab.encode(la, beads, e), e))
                    )
                for profiles in groups.values():
                    assert len(set(profiles)) == 1


class TestCoreQuotient:
    def test_paper_quotient(self):
        la = P("11,10,9,8,7,5,5,4,3,2,1,1,1,1,1")
        for n in (16, 20):
            quot = ab.e_quotient(la, 4, n)
            assert [q.parts for q in quot] == [(1, 1), (1,), (), (2,)]

    def test_core_of_empty(self):
        assert ab.e_core(Partition(), 3) == Partition()

    def test_size_identity(self):
        for e in (2, 3, 4):
            for la in all_up_to(15):
                core = ab.e_core(la, e)
                quot = ab.e_quotient(la, e)
                assert la.size == core.size + e * sum(q.size for q in quot)

    def test_bead_count_invariance(self):
        for e in (2, 3, 4):
            for la in all_up_to(10):
                n0 = ab.default_beads(la, e)
                assert ab.e_quotient(la, e, n0) == ab.e_quotient(la, e, n0 + e)
                assert ab.e_core(la, e, n0) == ab.e_core(la, e, n0 + e)

    def test_rebuild(self):
        for e in (2, 3, 4):
            for la in all_up_to(15):
                rebuilt = ab.from_core_and_quotient(ab.e_core(la, e), ab.e_quotient(la, e), e)
                assert rebuilt == la

    def test_rebuild_rejects_non_core(self):
        with pytest.raises(ValueError):
            ab.from_core_and_quotient(P("3"), [Partition()] * 3, 3)

    def test_quotient_needs_multiple_of_e(self):
        with pytest.raises(ValueError):
            ab.e_quotient(P("2,1"), 3, 5)


class TestGrowColumns:
    def test_example(self):
        assert ab.grow_first_columns(P("2,1"), 2, 3) == P("2,2,2,2,1")

    def test_zero_columns(self):
        assert ab.grow_first_columns(P("4,2"), 0, 3) == P("4,2")

    def test_agrees_with_column_route(self):
        for e in (2, 3, 4, 5):
            for la in all_up_to(12):
                for m in range(4):
                    assert ab.grow_first_columns(la, m, e) == grow_columns_by_conjugate(la, m, e)


class TestRestrictToClasses:
    def test_paper_split(self):
        disp = ab.encode(P("5,3,3,2,1"), 10, 5)
        assert ab.decode(ab.restrict_to_classes(disp, 5, {0, 2})) == P("2")
        assert ab.decode(ab.restrict_to_classes(disp, 5, {1, 3, 4})) == P("2,1")

    def test_full_residue_set_is_identity(self):
        for la in all_up_to(8):
            disp = ab.encode(la, ab.default_beads(la, 4), 4)
            assert ab.restrict_to_classes(disp, 4, range(4)) == disp

    def test_empty_residues_rejected(self):
        with pytest.raises(ValueError, match="^need at least one residue class$"):
            ab.restrict_to_classes(ab.encode(P("2"), 4, 4), 4, set())


class TestRenumbering:
    def test_paper_split(self):
        occ = beta_numbers(P("5,3,3,2,1"), 10)
        assert ab.to_local(occ, 5, {0, 2}) == {0, 1, 4}
        assert ab.to_local(occ, 5, {1, 3, 4}) == {0, 1, 2, 3, 4, 6, 8}

    def test_to_global_inverts_to_local(self):
        for residues in ({0}, {1, 3}, {0, 2, 3}, range(5)):
            positions = set(range(0, 40, 3))
            local = ab.to_local(positions, 5, residues)
            kept = {p for p in positions if p % 5 in set(residues)}
            assert to_global(local, 5, residues) == kept
            assert ab.to_local(to_global(set(range(12)), 5, residues), 5, residues) == set(range(12))

    def test_global_positions_are_the_kth_in_the_classes(self):
        ordered = [p for p in range(30) if p % 6 in (1, 4, 5)]
        assert [min(to_global({k}, 6, {5, 1, 4})) for k in range(len(ordered))] == ordered

    def test_bad_residues_rejected(self):
        with pytest.raises(ValueError):
            to_global({0}, 4, set())
        with pytest.raises(ValueError):
            ab.to_local({0}, 4, {4})


class TestFromRunners:
    def test_empty_components_give_the_core(self):
        for e in (2, 3, 4):
            for la in all_up_to(10):
                counts = ab.runner_counts(beta_numbers(la, ab.default_beads(la, e)), e)
                assert ab.from_runners([Partition()] * e, counts) == ab.e_core(la, e)

    def test_agrees_with_core_and_quotient(self):
        for e in (2, 3, 5):
            for la in all_up_to(10):
                n = ab.default_beads(la, e)
                counts = ab.runner_counts(beta_numbers(la, n), e)
                assert ab.from_runners(ab.e_quotient(la, e, n), counts) == la

    def test_component_longer_than_its_runner_rejected(self):
        with pytest.raises(ValueError):
            ab.from_runners([P("1,1"), Partition()], [1, 3])


class TestOnePassRunners:
    """The one-pass quotient and the one-set runner beads against the
    runner-by-runner routes they replaced."""

    def test_quotient_and_runner_beads_equal_the_runner_by_runner_routes(self):
        for e in range(2, 7):
            for la in all_up_to(12):
                for n in (ab.default_beads(la, e), ab.default_beads(la, e) + e):
                    occ = beta_numbers(la, n)
                    quot = ab._quotient(occ, e)
                    assert quot == quotient_runner_by_runner(occ, e), (la, e, n)
                    counts = ab.runner_counts(occ, e)
                    for extra in (0, 1):
                        padded = [u + extra for u in counts]
                        beads = ab._runner_beads(quot, padded)
                        assert beads == runner_beads_by_runner_sets(quot, padded), (la, e, n)
                    assert beads == {p + e for p in occ} | set(range(e))

    def test_short_runner_raises_the_beta_number_message(self):
        for quot, counts in (([P("1,1"), Partition()], [1, 3]), ([Partition(), P("3,2,1")], [4, 2])):
            with pytest.raises(ValueError) as new:
                ab._runner_beads(quot, counts)
            with pytest.raises(ValueError) as old:
                runner_beads_by_runner_sets(quot, counts)
            assert str(new.value) == str(old.value)


# Seeded partitions up to size 400, far past what enumeration reaches.
large_partitions = st.lists(st.integers(1, 90), max_size=60).map(
    lambda xs: largest_parts_within(xs, 400)
)


class TestRoundTripsUpTo400:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(large_partitions, st.integers(0, 7))
    def test_beta_numbers(self, la, pad):
        assert from_beta_numbers(beta_numbers(la, len(la) + pad)) == la

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(large_partitions, st.integers(2, 9))
    def test_core_and_quotient(self, la, e):
        assert ab.from_core_and_quotient(ab.e_core(la, e), ab.e_quotient(la, e), e) == la

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(large_partitions)
    def test_split_combine(self, la):
        ctx = sp.SplitContext(5, frozenset({1, 4}), 5 * (len(la) // 5 + 1))
        halves = sp.split(la, ctx)
        assert sp.combine(halves.lambda_I, halves.lambda_Ibar, ctx, halves.u) == la


class TestRender:
    def test_grid(self):
        text = ab.render(ab.encode(P("6,4,2,1,1"), 7, 5), 5)
        assert text.splitlines() == [
            "0 1 2 3 4",
            "b b . b b",
            ". b . . b",
            ". . b . .",
        ]
