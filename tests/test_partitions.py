from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (add_node, dominates_by_prefix_sums, hook_data_by_beads, hooks_by_node_scan, partition_count,
                     remove_rim_hook_by_rows)
from regcrystals.mullineux import classify_hooks
from regcrystals.partitions import (
    MAX_PARSE_SIZE,
    Partition,
    PartitionParseError,
    _bead_rows,
    _bead_walk,
    _beads_restricted,
    _residue_counts,
    beta_numbers,
    enumerate_partitions,
    format_partition,
    from_beta_numbers,
    parse_partition,
    residue,
)

P = lambda text: parse_partition(text)

partitions = st.lists(st.integers(1, 9), max_size=8).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


def all_up_to(n):
    for s in range(n + 1):
        yield from enumerate_partitions(s)


class TestConstruction:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([1, 2])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition([3, 0])

    @pytest.mark.parametrize("parts, fault", [
        ((3, 0), "positive"),
        ((1, 2), "weakly decreasing"),
        ((2, 0, 3), "positive"),
        ((1, 2, 0), "weakly decreasing"),
        ((2, -1, -3), "positive"),
    ])
    def test_first_bad_index_names_the_fault(self, parts, fault):
        with pytest.raises(ValueError) as exc:
            Partition(parts)
        assert str(exc.value) == f"parts must be {fault}, got {parts}"

    def test_size_cached(self):
        assert P("9,3^3,2").size == 20
        assert Partition().size == 0


class TestParseFormat:
    def test_exponent_notation(self):
        assert P("9,3^3,2").parts == (9, 3, 3, 3, 2)

    def test_empty_forms(self):
        assert P("-") == Partition()
        assert P("") == Partition()
        assert format_partition(Partition()) == "-"

    def test_bad_tokens(self):
        for text in ("3,a", "3,-1", "1,2", "3^"):
            with pytest.raises(PartitionParseError):
                parse_partition(text)

    def test_size_capped_before_expansion(self):
        assert parse_partition(f"{MAX_PARSE_SIZE}").size == MAX_PARSE_SIZE
        for text in (f"1^{MAX_PARSE_SIZE + 1}", f"{MAX_PARSE_SIZE},1", f"3,2^{MAX_PARSE_SIZE // 2}"):
            with pytest.raises(PartitionParseError, match="exceeds the limit"):
                parse_partition(text)

    @settings(max_examples=200, derandomize=True)
    @given(partitions)
    def test_round_trip(self, la):
        assert parse_partition(format_partition(la)) == la


class TestConjugate:
    def test_paper_example(self):
        assert P("6,4,2,1,1").conjugate() == P("5,3,2^2,1^2")

    def test_empty(self):
        assert Partition().conjugate() == Partition()

    def test_staircase_self_conjugate(self):
        assert P("3,2,1").conjugate() == P("3,2,1")

    def test_involution_exhaustive(self):
        for la in all_up_to(25):
            assert la.conjugate().conjugate() == la


class TestDominance:
    def test_examples(self):
        assert P("5,1").dominates(P("3,2,1"))
        assert P("3,2,1").dominates(P("3,2,1"))
        assert not P("3,3").dominates(P("4,1,1"))
        assert not P("4,1,1").dominates(P("3,3"))

    def test_size_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            P("2,1").dominates(P("2,2"))

    def test_matches_prefix_sum_oracle(self):
        for n in range(9):
            layer = list(enumerate_partitions(n))
            for la in layer:
                for mu in layer:
                    assert la.dominates(mu) == dominates_by_prefix_sums(la.parts, mu.parts)

    def test_conjugation_reverses(self):
        for n in range(16):
            layer = list(enumerate_partitions(n))
            for la in layer:
                for mu in layer:
                    assert la.dominates(mu) == mu.conjugate().dominates(la.conjugate())


class TestHooks:
    def test_paper_hook(self):
        hk = P("4,4,4,3,1").hook((2, 3))
        assert (hk.length, hk.arm, hk.leg) == (4, 1, 2)
        assert hk.hand == (2, 4) and hk.foot == (4, 3)

    def test_single_node(self):
        hk = P("1").hook((1, 1))
        assert (hk.length, hk.arm, hk.leg) == (1, 0, 0)

    def test_hook_length_multiset(self):
        # direct count over the 6-node diagram of (5,1)
        assert sorted(h.length for h in P("5,1").hooks()) == [1, 1, 2, 3, 4, 6]

    def test_matches_bead_oracle(self):
        for la in all_up_to(12):
            assert sorted((h.length, h.arm, h.leg) for h in la.hooks()) == hook_data_by_beads(la)

    def test_bead_walk_matches_bead_oracle(self):
        for la in all_up_to(12):
            beads = sorted(beta_numbers(la, len(la)))
            for m in range(1, 6):
                walk = [(b, part, list(gaps)) for b, part, gaps in _bead_walk(reversed(la.parts), m)]
                expected = []
                for i, b in enumerate(beads):
                    gaps = [(g, g - sum(c < g for c in beads)) for g in range(b % m, b, m) if g not in beads]
                    if gaps:
                        expected.append((b, b - i, gaps))
                assert walk == expected, (la, m)
                hooks = []
                for b, part, gaps in walk:
                    for g, below in gaps:
                        arm = part - 1 - below
                        hooks.append((b - g, arm, b - g - 1 - arm))
                assert sorted(hooks) == [h for h in hook_data_by_beads(la) if h[0] % m == 0], (la, m)

    def test_outside_node_rejected(self):
        with pytest.raises(ValueError):
            P("2,1").hook((1, 3))

    def test_walk_equals_the_node_scan(self):
        for la in all_up_to(12):
            expected = hooks_by_node_scan(la)
            assert la.hooks() == expected, la
            assert [la.hook(h.corner) for h in expected] == expected, la

    def test_no_conjugate_is_built(self, monkeypatch):
        la = P("4,4,4,3,1")
        expected = hooks_by_node_scan(la)

        def refuse(self):
            raise AssertionError("conjugate called")

        monkeypatch.setattr(Partition, "conjugate", refuse)
        assert la.hooks() == expected
        assert [la.hook(h.corner) for h in expected] == expected
        assert [h for h, _ in classify_hooks(la, 4)] == [h for h in expected if h.length % 4 == 0] != []


class TestRimHooks:
    def test_paper_example(self):
        assert P("4,4,4,3,1").remove_rim_hook((2, 3)) == P("4,3,2^2,1")

    def test_whole_column(self):
        assert P("1,1,1").remove_rim_hook((1, 1)) == Partition()

    def test_two_node_rim(self):
        assert P("3,1").remove_rim_hook((1, 2)) == P("1,1")

    def test_size_drop_everywhere(self):
        for la in all_up_to(12):
            for hk in la.hooks():
                assert la.remove_rim_hook(hk.corner).size == la.size - hk.length

    def test_bead_move_equals_the_row_route_at_every_corner(self):
        corners = 0
        for la in all_up_to(14):
            for r, p in enumerate(la.parts, start=1):
                for c in range(1, p + 1):
                    assert la.remove_rim_hook((r, c)) == remove_rim_hook_by_rows(la, (r, c)), (la, r, c)
                    corners += 1
        assert corners == 5849

    def test_walks_no_hook(self, monkeypatch):
        la = P("4,4,4,3,1")
        corners = [hk.corner for hk in la.hooks()]
        expected = [remove_rim_hook_by_rows(la, nd) for nd in corners]

        def refuse(*args):
            raise AssertionError("hook walk")

        monkeypatch.setattr("regcrystals.partitions._bead_walk", refuse)
        assert [la.remove_rim_hook(nd) for nd in corners] == expected

    @pytest.mark.parametrize("corner", [(1, 4), (2, 2), (4, 1), (0, 1), (1, 0)])
    def test_non_node_rejected(self, corner):
        with pytest.raises(ValueError) as exc:
            P("3,1,1").remove_rim_hook(corner)
        assert str(exc.value) == f"{corner} is not a node of (3, 1, 1)"


class TestNodes:
    def test_removable(self):
        assert P("5,2,1,1").removable_nodes() == [(1, 5), (2, 2), (4, 1)]

    def test_addable(self):
        assert P("5,2,1,1").addable_nodes() == [(1, 6), (2, 3), (3, 2), (5, 1)]
        assert Partition().addable_nodes() == [(1, 1)]

    def test_removal_inverts_addition(self):
        for la in all_up_to(10):
            for nd in la.removable_nodes():
                smaller = la.remove_node(nd)
                assert smaller.size == la.size - 1
                assert nd in smaller.addable_nodes()
                assert add_node(smaller, nd) == la


class TestResidues:
    def test_values(self):
        assert residue((1, 1), 4) == 0
        assert residue((2, 1), 5) == 4
        assert residue((1, 5), 4) == 0

    def test_content_empty(self):
        assert P("-").e_content(3) == Counter()

    def test_content_examples(self):
        # residues of (1,1), (1,2), (2,1) mod 2 are 0, 1, 1
        assert P("2,1").e_content(2) == Counter({0: 1, 1: 2})
        assert P("3").e_content(3) == Counter({0: 1, 1: 1, 2: 1})

    def test_residue_counts_are_the_node_counts(self):
        for e in range(2, 7):
            for la in all_up_to(12):
                by_node = Counter(residue((r, c), e) for r, p in enumerate(la.parts, 1) for c in range(1, p + 1))
                assert _residue_counts(la.parts, e) == tuple(by_node[i] for i in range(e)), (la, e)
                assert la.e_content(e) == by_node and 0 not in la.e_content(e).values(), (la, e)

    def test_equal_residue_counts_iff_equal_content(self):
        # the verify suites compare residue-count tuples in place of Counters
        equal = 0
        for e in range(2, 6):
            for n in range(11):
                same_size = list(enumerate_partitions(n))
                for a, b in combinations(same_size, 2):
                    same = _residue_counts(a.parts, e) == _residue_counts(b.parts, e)
                    assert same == (a.e_content(e) == b.e_content(e)), (a, b, e)
                    equal += same
        assert equal > 0


class TestRegularRestricted:
    def test_regular_iff_conjugate_restricted(self):
        for e in (2, 3, 4, 5):
            for la in all_up_to(20):
                assert la.is_e_regular(e) == la.conjugate().is_e_restricted(e)

    def test_e_1_convention(self):
        assert Partition().is_e_regular(1)
        assert not P("1").is_e_regular(1)

    def test_bead_set_predicate_is_restrictedness(self):
        # on len(la) to len(la) + 3 beads; the empty partition on no beads
        # is the empty set
        for la in all_up_to(14):
            for n in range(len(la), len(la) + 4):
                occ = beta_numbers(la, n)
                for c in range(1, 7):
                    assert _beads_restricted(occ, c) == la.is_e_restricted(c), (la, n, c)


class TestEnumeration:
    def test_zero(self):
        assert list(enumerate_partitions(0)) == [Partition()]

    def test_small_counts(self):
        assert len(list(enumerate_partitions(4))) == 5
        assert len(list(enumerate_partitions(10))) == 42

    def test_counts_match_recurrence(self):
        for n in range(16):
            assert len(list(enumerate_partitions(n))) == partition_count(n)

    def test_descending_lex_and_distinct(self):
        for n in range(12):
            layer = [la.parts for la in enumerate_partitions(n)]
            assert layer == sorted(layer, reverse=True)
            assert len(set(layer)) == len(layer)


class TestBetaNumbers:
    def test_paper_display(self):
        assert from_beta_numbers({0, 1, 3, 4, 6, 9, 12}) == P("6,4,2,1,1")

    def test_pushes_trailing_zeros(self):
        assert from_beta_numbers(set(range(7))) == Partition()

    def test_encoder_paper_display(self):
        assert beta_numbers(P("6,4,2,1,1"), 7) == {0, 1, 3, 4, 6, 9, 12}
        assert beta_numbers(Partition(), 3) == {0, 1, 2}
        assert beta_numbers(P("3,1"), 2) == {4, 1}

    def test_rows_read_zero_for_the_beads_below(self):
        assert list(_bead_rows({0, 1, 3, 4, 6, 9, 12})) == [6, 4, 2, 1, 1, 0, 0]
        assert list(_bead_rows(set())) == []
        with pytest.raises(ValueError, match="beta-numbers must be non-negative"):
            _bead_rows({-1, 2})

    def test_encoder_needs_a_bead_per_row(self):
        with pytest.raises(ValueError, match="need at least 3 beads, got 2"):
            beta_numbers(P("2,1,1"), 2)

    @settings(max_examples=200, derandomize=True)
    @given(partitions, st.integers(0, 4))
    def test_encoder_matches_definition(self, la, pad):
        n = len(la.parts) + pad
        assert beta_numbers(la, n) == {la.part(r) + n - r for r in range(1, n + 1)}

    @settings(max_examples=200, derandomize=True)
    @given(partitions, st.integers(0, 4))
    def test_round_trip(self, la, pad):
        n = len(la.parts) + pad
        assert from_beta_numbers({la.part(r) + n - r for r in range(1, n + 1)}) == la
