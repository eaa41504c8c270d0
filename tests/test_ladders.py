import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcrystals import ladders as ld
from regcrystals.ladders import LadderParams
from regcrystals.partitions import Partition, enumerate_partitions, parse_partition

P = parse_partition


def all_up_to(n):
    for s in range(n + 1):
        yield from enumerate_partitions(s)


def classes_of_size(n, params):
    groups = {}
    for la in enumerate_partitions(n):
        key = frozenset(ld.fingerprint(la, params).items())
        groups.setdefault(key, []).append(la)
    return list(groups.values())


class TestParams:
    def test_scaling(self):
        assert LadderParams(3, 2).pair() == (3, 2)
        assert LadderParams(3, Fraction(4, 3)).pair() == (9, 4)
        assert LadderParams(4, Fraction(7, 4)).pair() == (16, 7)

    def test_slope_bounds(self):
        with pytest.raises(ValueError):
            LadderParams(3, 3)
        with pytest.raises(ValueError):
            LadderParams(3, Fraction(1, 2))

    def test_conjugate_params(self):
        assert LadderParams(3, 2).conjugate_params() == LadderParams(3, 1)
        assert LadderParams(4, Fraction(5, 3)).conjugate_params() == LadderParams(4, Fraction(7, 3))


class TestLadderGeometry:
    def test_shared_ladder(self):
        params = LadderParams(3, 2)
        assert ld.ladder_id((1, 3), params) == ld.ladder_id((2, 1), params)
        assert ld.ladder_id((1, 3), params) != ld.ladder_id((1, 2), params)

    def test_id_is_canonical(self):
        params = LadderParams(3, 2)
        for node in ((1, 1), (2, 5), (4, 2)):
            rep = ld.ladder_id(node, params)
            assert rep[1] >= 1
            assert ld.ladder_id(rep, params) == rep

    def test_depth_formula(self):
        params = LadderParams(3, 2)
        assert ld.depth((1, 1), params) == 3
        assert ld.depth((2, 1), params) == ld.depth((1, 3), params) == 5

    def test_depth_and_residue_characterise_ladders(self):
        for params in (LadderParams(3, 2), LadderParams(3, Fraction(5, 3)), LadderParams(3, Fraction(4, 3))):
            nodes = [(r, c) for r in range(1, 13) for c in range(1, 13)]
            for a in nodes:
                for b in nodes:
                    same = ld.ladder_id(a, params) == ld.ladder_id(b, params)
                    expected = (
                        ld.depth(a, params) == ld.depth(b, params)
                        and (a[1] - a[0]) % params.e == (b[1] - b[0]) % params.e
                    )
                    assert same == expected


def node_route_hooks(la, m):
    """(t, arm) of the hooks of length m*t, read off the node-by-node hook list."""
    return sorted((h.length // m, h.arm) for h in la.hooks() if h.length % m == 0)


def largest_parts_within(xs, cap):
    """The partition of the largest values of xs whose running sum stays <= cap."""
    parts, total = [], 0
    for x in sorted(xs, reverse=True):
        total += x
        if total > cap:
            break
        parts.append(x)
    return Partition(parts)


class TestHooksDivisibleBy:
    def test_matches_node_route_up_to_14(self):
        for la in all_up_to(14):
            for m in range(1, 9):
                assert sorted(ld.hooks_divisible_by(la, m)) == node_route_hooks(la, m), (la, m)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        st.lists(st.integers(1, 90), max_size=60).map(lambda xs: largest_parts_within(xs, 400)),
        st.integers(1, 12),
    )
    def test_matches_node_route_up_to_400(self, la, m):
        assert sorted(ld.hooks_divisible_by(la, m)) == node_route_hooks(la, m)

    def test_modulus_above_every_hook_allocates_no_runners(self):
        # the largest hook of 3,2,1 has length 5; m runner lists would take megabytes
        tracemalloc.start()
        try:
            assert ld.hooks_divisible_by(P("3,2,1"), 10**5) == []
            assert ld.hooks_divisible_by(Partition(), 10**5) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestFingerprint:
    def test_class_of_5_1(self):
        params = LadderParams(3, 2)
        fp = ld.fingerprint(P("5,1"), params)
        assert ld.fingerprint(P("3,2,1"), params) == fp
        assert ld.fingerprint(P("4,1,1"), params) == fp
        assert ld.fingerprint(P("3,3"), params) == fp
        assert ld.fingerprint(P("4,2"), params) != fp

    def test_empty(self):
        assert not ld.fingerprint(Partition(), LadderParams(3, 2))

    def test_total_count(self):
        for la in all_up_to(10):
            assert sum(ld.fingerprint(la, LadderParams(4, 3)).values()) == la.size


class TestRegularityPredicates:
    def test_paper_class_regularity(self):
        params = LadderParams(3, 2)
        assert ld.is_regular(P("5,1"), params)
        assert not ld.is_regular(P("4,1,1"), params)
        assert not ld.is_regular(P("3,3"), params)
        assert ld.is_restricted(P("3,2,1"), params)
        assert not ld.is_restricted(P("5,1"), params)

    def test_restricted_iff_conjugate_regular(self):
        for params in (LadderParams(3, 2), LadderParams(4, 3), LadderParams(3, Fraction(4, 3))):
            conj = params.conjugate_params()
            for la in all_up_to(12):
                assert ld.is_restricted(la, params) == ld.is_regular(la.conjugate(), conj)

    def test_conjugate_hook_correspondence(self):
        # a hook of length L with arm a conjugates to one of length L with arm L-1-a
        for la in all_up_to(10):
            mine = sorted((h.length, h.length - 1 - h.arm) for h in la.hooks())
            theirs = sorted((h.length, h.arm) for h in la.conjugate().hooks())
            assert mine == theirs


class TestBadCount:
    def test_examples(self):
        assert ld.bad_count(P("5,1"), LadderParams(3, Fraction(4, 3))) == 0
        assert ld.bad_count(Partition(), LadderParams(3, Fraction(4, 3))) == 0

    def test_integer_slope_rejected(self):
        with pytest.raises(ValueError):
            ld.bad_count(P("2,1"), LadderParams(3, 2))

    def test_constant_on_classes(self):
        for params in (LadderParams(3, Fraction(4, 3)), LadderParams(4, Fraction(3, 2))):
            for n in range(11):
                for cls in classes_of_size(n, params):
                    counts = {ld.bad_count(la, params) for la in cls}
                    assert len(counts) == 1


class TestRegularisationStep:
    def test_paper_step(self):
        assert ld.regularise_step(P("9,3^3,2"), LadderParams(5, 3)) == P("9,6,5")

    def test_regular_input_rejected(self):
        with pytest.raises(ValueError):
            ld.regularise_step(P("5,1"), LadderParams(3, 2))

    def test_regularise_walks_the_hooks_once_per_step(self, monkeypatch):
        params = LadderParams(3, 2)
        la = P("4,3,2,1")
        steps = 0
        while not ld.is_regular(la, params):
            la, steps = ld.regularise_step(la, params), steps + 1
        walks = []
        walk = ld._largest_singular_t
        monkeypatch.setattr(ld, "_largest_singular_t", lambda *a: walks.append(a) or walk(*a))
        assert ld.regularise(P("4,3,2,1"), params) == la
        assert steps > 1 and len(walks) == steps + 1

    def test_ascends_and_preserves_fingerprint(self):
        for params in (LadderParams(3, 2), LadderParams(4, 3), LadderParams(3, Fraction(4, 3))):
            for la in all_up_to(12):
                if ld.is_regular(la, params):
                    continue
                kappa = ld.regularise_step(la, params)
                assert kappa != la and kappa.dominates(la)
                assert ld.fingerprint(kappa, params) == ld.fingerprint(la, params)


class TestStepGenerators:
    PARAMS = (LadderParams(3, 2), LadderParams(4, 3), LadderParams(3, Fraction(4, 3)))

    def test_regularise_is_the_last_of_strictly_ascending_steps(self):
        for params in self.PARAMS:
            for la in all_up_to(10):
                walk = [la, *ld.regularise_steps(la, params)]
                assert walk[-1] == ld.regularise(la, params)
                assert ld.is_regular(walk[-1], params)
                for prev, nxt in zip(walk, walk[1:]):
                    assert nxt != prev and nxt.dominates(prev)

    def test_restrictise_is_the_last_of_strictly_descending_steps(self):
        for params in self.PARAMS:
            for la in all_up_to(10):
                walk = [la, *ld.restrictise_steps(la, params)]
                assert walk[-1] == ld.restrictise(la, params)
                assert ld.is_restricted(walk[-1], params)
                for prev, nxt in zip(walk, walk[1:]):
                    assert nxt != prev and prev.dominates(nxt)
                    assert ld.fingerprint(nxt, params) == ld.fingerprint(prev, params)


class TestRegularise:
    def test_class_examples(self):
        params = LadderParams(3, 2)
        for text in ("4,1,1", "3,3", "3,2,1", "5,1"):
            assert ld.regularise(P(text), params) == P("5,1")

    def test_james_case(self):
        assert ld.regularise(P("1^4"), LadderParams(3, 1)) == P("2,2")

    def test_fixpoint(self):
        params = LadderParams(5, 3)
        assert ld.regularise(P("9,6,5"), params) == P("9,6,5")


class TestRestrictise:
    def test_class_minimum(self):
        assert ld.restrictise(P("5,1"), LadderParams(3, 2)) == P("3,2,1")

    def test_fixpoint(self):
        assert ld.restrictise(P("3,2,1"), LadderParams(3, 2)) == P("3,2,1")

    def test_two_runner_case(self):
        assert ld.restrictise(P("2,2"), LadderParams(2, 1)) == P("2,1,1")
        assert ld.regularise(P("2,2"), LadderParams(2, 1)) == P("3,1")


class TestLadderClass:
    def test_paper_class(self):
        members = ld.ladder_class(P("5,1"), LadderParams(3, 2))
        assert [m.parts for m in members] == [(5, 1), (4, 1, 1), (3, 3), (3, 2, 1)]

    def test_empty(self):
        assert ld.ladder_class(Partition(), LadderParams(3, 2)) == [Partition()]

    def test_bound_guard(self):
        with pytest.raises(ValueError):
            ld.ladder_class(P("9,6"), LadderParams(3, 2), bound=10)

    def test_extrema_against_brute_force(self):
        param_set = (
            LadderParams(3, 2),
            LadderParams(4, 3),
            LadderParams(5, 2),
            LadderParams(3, Fraction(4, 3)),
        )
        for params in param_set:
            for n in range(9):
                for cls in classes_of_size(n, params):
                    regs = [la for la in cls if ld.is_regular(la, params)]
                    rests = [la for la in cls if ld.is_restricted(la, params)]
                    assert len(regs) == 1 and len(rests) == 1
                    top, bottom = regs[0], rests[0]
                    assert all(top.dominates(mu) for mu in cls)
                    assert all(mu.dominates(bottom) for mu in cls)
                    for la in cls:
                        assert ld.regularise(la, params) == top
                        assert ld.restrictise(la, params) == bottom
