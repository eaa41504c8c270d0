import importlib
import pickle
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    abacus_step_by_scan,
    add_node,
    fingerprint_by_ladder_id,
    fingerprint_from_class_key,
    is_regular_by_hooks,
    is_restricted_by_hooks,
    largest_singular_position,
    node_route_hooks,
    random_partition,
    regularise_steps_by_scale,
    restrictise_steps_by_scale,
    top_hook_by_hooks,
)
from regcrystals import crystals as cr
from regcrystals import ladders as ld
from regcrystals import partitions as pt
from regcrystals.ladders import LadderParams
from regcrystals.mullineux import mullineux, mullineux_steps
from regcrystals.partitions import Partition, beta_numbers, enumerate_partitions, parse_partition

P = parse_partition
# the package exports the function mullineux under the module's name
mx = importlib.import_module("regcrystals.mullineux")


def all_up_to(n):
    for s in range(n + 1):
        yield from enumerate_partitions(s)


def classes_of_size(n, params):
    groups = {}
    for la in enumerate_partitions(n):
        key = frozenset(fingerprint_by_ladder_id(la, params).items())
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

    @pytest.mark.parametrize("e, y, message", [
        (3, 3, "slope 3 outside [1, 2]"),
        (3, Fraction(1, 2), "slope 1/2 outside [1, 2]"),
        (4, Fraction(7, 2), "slope 7/2 outside [1, 3]"),
        (2, Fraction(3, 2), "slope 3/2 outside [1, 1]"),
        (1, 1, "e must be at least 2"),
    ])
    def test_rejection_messages(self, e, y, message):
        with pytest.raises(ValueError) as exc:
            LadderParams(e, y)
        assert str(exc.value) == message

    def test_fraction_slope_kept_and_bounds_inclusive(self):
        y = Fraction(5, 3)
        assert LadderParams(4, y).y is y
        assert LadderParams(3, "3/2").pair() == (6, 3)
        assert LadderParams(3, 1).y == 1 and LadderParams(3, Fraction(2)).y == 2

    def test_conjugate_params(self):
        assert LadderParams(3, 2).conjugate_params() == LadderParams(3, 1)
        assert LadderParams(4, Fraction(5, 3)).conjugate_params() == LadderParams(4, Fraction(7, 3))

    def test_frozen_and_compared_on_e_and_y(self):
        # (E, Y) is derived once and left out of ==, hashing and the repr
        params = LadderParams(4, Fraction(5, 3))
        assert repr(params) == "LadderParams(e=4, y=5/3)"
        with pytest.raises(AttributeError, match="^cannot assign to field 'y'$"):
            params.y = Fraction(2)
        with pytest.raises(AttributeError, match="^cannot delete field 'E'$"):
            del params.E
        other = LadderParams(4, "5/3")
        object.__setattr__(other, "E", 0)
        object.__setattr__(other, "Y", 0)
        assert params == other and hash(params) == hash(other) and repr(other) == repr(params)
        assert params != LadderParams(4, Fraction(7, 3)) and pickle.loads(pickle.dumps(params)).pair() == (12, 5)


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


E_HUGE = 10**5
HUGE_CHAIN = cr.iso_chain(cr.ArmPrefix(E_HUGE, (2, 4, 6)), cr.ArmPrefix(E_HUGE, (1, 2, 3)))


@pytest.mark.parametrize("call, image", [
    (lambda la: mullineux(la, E_HUGE), "2,1,1"),
    (lambda la: ld.regularise(la, LadderParams(E_HUGE, 2)), "3,1"),
    (lambda la: ld.restrictise(la, LadderParams(E_HUGE, 2)), "3,1"),
    (lambda la: cr.apply_chain(la, HUGE_CHAIN), "3,1"),
], ids=["mullineux", "regularise", "restrictise", "apply_chain"])
def test_step_loop_walks_no_runners_when_e_exceeds_every_hook(call, image):
    # the largest hook of 3,1 has length 4; e runner lists would take megabytes
    tracemalloc.start()
    try:
        assert call(P("3,1")) == P(image)
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
        params = LadderParams(4, 3)
        for la in all_up_to(10):
            assert sum(fingerprint_from_class_key(ld.fingerprint(la, params), params).values()) == la.size

    @pytest.mark.parametrize("e", [3, 4, 5])
    def test_keys_are_ladder_ids(self, e):
        # the key, read back block by block, counts la's nodes on each ladder
        slopes = [Fraction(p, q) for q in (1, 2, 3) for p in range(q, (e - 1) * q + 1)]
        assert any(y.denominator > 1 for y in slopes)
        for y in sorted(set(slopes)):
            params = LadderParams(e, y)
            for la in all_up_to(12):
                expanded = fingerprint_from_class_key(ld.fingerprint(la, params), params)
                assert expanded == fingerprint_by_ladder_id(la, params), (la, y)


def slope_grid(e):
    """Every slope p/q in [1, e - 1] with q <= 3."""
    return sorted({Fraction(p, q) for q in (1, 2, 3) for p in range(q, (e - 1) * q + 1)})


def move_one_node(rng, la):
    """la with a random removable node moved to a random addable node."""
    r, _ = rng.choice(la.removable_nodes())
    parts = list(la.parts)
    parts[r - 1] -= 1
    kappa = Partition([p for p in parts if p])
    return add_node(kappa, rng.choice(kappa.addable_nodes()))


class TestClassKey:
    """fingerprint, the integer class key, against the oracle's node count
    per ladder: equal keys exactly when equal counts, and the key expands
    back to the counts."""

    def test_equality_is_fingerprint_equality_on_equal_size_pairs(self):
        # up to n = 11: a partial-block key one too high first merges two
        # classes there, 8,2,1 and 6,5 at e = 4, y = 2
        pairs = same_class = 0
        for e in range(2, 7):
            for y in slope_grid(e):
                params = LadderParams(e, y)
                for n in range(12):
                    both = [(ld.fingerprint(la, params), fingerprint_by_ladder_id(la, params))
                            for la in enumerate_partitions(n)]
                    for (k1, f1), (k2, f2) in combinations(both, 2):
                        assert (k1 == k2) == (f1 == f2), (k1, k2, params)
                        pairs += 1
                        same_class += f1 == f2
        assert (pairs, same_class) == (146_790, 1215)

    def test_expansion_is_the_fingerprint(self):
        for e in range(2, 7):
            for y in slope_grid(e):
                params = LadderParams(e, y)
                for la in all_up_to(12):
                    expanded = fingerprint_from_class_key(ld.fingerprint(la, params), params)
                    assert expanded == fingerprint_by_ladder_id(la, params), (la, params)

    def test_bead_set_key_is_the_key_of_its_partition(self):
        # on len(la) to len(la) + 2e beads: the zero rows of the beads below
        # la's rows add no key
        for e in range(2, 7):
            for y in slope_grid(e):
                params = LadderParams(e, y)
                for la in all_up_to(12):
                    for n in range(len(la), len(la) + 2 * e + 1):
                        occ = beta_numbers(la, n)
                        key = ld._rows_key(pt._bead_rows(occ), params)
                        assert key == ld.fingerprint(pt.from_beta_numbers(occ), params), (la, n, params)

    def test_seeded_large_partitions(self):
        # the key expands to the oracle's counts and is constant on la, its
        # regularisation and restrictisation; on one-node moves and random
        # same-size pairs its equality agrees with the oracle's
        rng = random.Random(20261019)
        moved_apart = 0
        for n in range(50, 401, 25):
            for e in (3, 4, 5, 6):
                params = LadderParams(e, rng.choice((Fraction(3, 2), Fraction(5, 3), Fraction(e - 1))))
                la = random_partition(rng, n)
                key, fp = ld.fingerprint(la, params), fingerprint_by_ladder_id(la, params)
                assert fingerprint_from_class_key(key, params) == fp
                assert ld.fingerprint(ld.regularise(la, params), params) == key
                assert ld.fingerprint(ld.restrictise(la, params), params) == key
                for mu in (move_one_node(rng, la), move_one_node(rng, la), random_partition(rng, n)):
                    same = fingerprint_by_ladder_id(mu, params) == fp
                    assert (ld.fingerprint(mu, params) == key) == same, (la, mu, params)
                    moved_apart += not same
        assert moved_apart > 100


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

    @pytest.mark.parametrize("e", range(2, 9))
    def test_equal_the_hook_walks(self, e):
        # every slope p/q in [1, e - 1] with q <= 4, on every partition of
        # size at most 14: one row, one column and e = 2 among them
        slopes = {Fraction(p, q) for q in range(1, 5) for p in range(q, (e - 1) * q + 1)}
        for params in map(LadderParams, [e] * len(slopes), sorted(slopes)):
            for la in all_up_to(14):
                assert ld.is_regular(la, params) == is_regular_by_hooks(la, params), (la, params)
                assert ld.is_restricted(la, params) == is_restricted_by_hooks(la, params), (la, params)

    def test_equal_the_hook_walks_at_large_n(self):
        # seeded n = 50..400, e = 2..8 and slopes p/q with q <= 4: a random
        # partition, its regularisation and restrictisation, one row and one column
        rng = random.Random(20261019)
        regular = restricted = 0
        for k in range(15):
            n, e, q = 50 + 25 * k, 2 + k % 7, 1 + k % 4
            params = LadderParams(e, Fraction(rng.randint(q, (e - 1) * q), q))
            la = random_partition(rng, n)
            for mu in (la, ld.regularise(la, params), ld.restrictise(la, params), Partition([n]), Partition([1] * n)):
                regular += (is_regular := is_regular_by_hooks(mu, params))
                restricted += (is_restricted := is_restricted_by_hooks(mu, params))
                assert (ld.is_regular(mu, params), ld.is_restricted(mu, params)) == (is_regular, is_restricted)
        assert 15 <= regular < 75 and 15 <= restricted < 75

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
        walk = ld._top_hook
        monkeypatch.setattr(ld, "_top_hook", lambda *a: walks.append(a) or walk(*a))
        assert ld.regularise(P("4,3,2,1"), params) == la
        assert steps > 1 and len(walks) == steps + 1

    def test_top_hook_row_holds_the_largest_singular_position(self):
        for e in range(2, 6):
            for p, q in ((e - 1, 1), (3, 2)):
                for la in all_up_to(12):
                    top = ld._top_hook(beta_numbers(la, len(la)), e, p, q)
                    if top is None:
                        continue
                    a, t, bead = top
                    assert bead == largest_singular_position(la, e * t, a), (la, e, p, q)

    def test_top_hook_equals_the_pick_from_every_hook(self):
        # on len(la) beads and on three more, at the top slope e - 1, at 1,
        # and at 3/2 and 5/3 where they are slopes for e
        compared = found = 0
        for e in range(2, 7):
            ceilings = [(e - 1, 1), (1, 1)] + [(p, q) for p, q in ((3, 2), (5, 3)) if p <= (e - 1) * q]
            for la in all_up_to(12):
                for n in (len(la), len(la) + 3):
                    occ = beta_numbers(la, n)
                    for p, q in ceilings:
                        top = ld._top_hook(occ, e, p, q)
                        assert top == top_hook_by_hooks(occ, e, p, q), (la, n, e, p, q)
                        compared += 1
                        found += top is not None
        assert compared == 272 * 2 * (2 + 4 * 4) and 0 < found < compared

    def test_abacus_step_moves_as_the_scan_of_every_bead(self, monkeypatch):
        # every move of the step loops on seeded n = 50..400 (regularise and
        # restrictise at a random slope p/q with q <= 4, and mullineux),
        # made on a copy by the sorted scan of the whole bead set
        compared = []
        real = ld._abacus_step

        def both(occ, em, ym, b):
            copy = set(occ)
            d = real(occ, em, ym, b)
            assert (abacus_step_by_scan(copy, em, ym, b), copy) == (d, occ), (em, ym, b)
            compared.append(d)
            return d

        monkeypatch.setattr(ld, "_abacus_step", both)
        rng = random.Random(2105063)
        for k in range(15):
            n, e, q = 50 + 25 * k, 2 + k % 5, 1 + k % 4
            params = LadderParams(e, Fraction(rng.randint(q, (e - 1) * q), q))
            la = random_partition(rng, n)
            ld.regularise(la, params)
            ld.restrictise(la, params)
            mullineux(ld.regularise(la, LadderParams(e, 1)), e)
        assert len(compared) > 200 and sum(d > 1 for d in compared) > 50

    def test_ascends_and_preserves_fingerprint(self):
        for params in (LadderParams(3, 2), LadderParams(4, 3), LadderParams(3, Fraction(4, 3))):
            for la in all_up_to(12):
                if ld.is_regular(la, params):
                    continue
                kappa = ld.regularise_step(la, params)
                assert kappa != la and kappa.dominates(la)
                assert ld.fingerprint(kappa, params) == ld.fingerprint(la, params)


class TestOperationCounts:
    """One encode and one decode per call, one kernel walk per move plus
    one that finds nothing, and no Partition.conjugate in restrictise."""

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = {"encode": 0, "decode": 0, "walk": 0, "conjugate": 0}

        def counting(key, real):
            def wrapper(*args):
                seen[key] += 1
                return real(*args)
            return wrapper

        for name, key in (("beta_numbers", "encode"), ("from_beta_numbers", "decode")):
            real = getattr(pt, name)
            fake = counting(key, real)
            for module in (pt, ld, mx):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, fake)
        monkeypatch.setattr(ld, "_top_hook", counting("walk", ld._top_hook))
        monkeypatch.setattr(Partition, "conjugate", counting("conjugate", Partition.conjugate))
        return seen

    @pytest.mark.parametrize("name, text", [
        ("regularise", "4,3,2,1"),
        ("restrictise", "5,1"),
        ("restrictise", "6,2,1"),
    ])
    def test_regularise_and_restrictise(self, counts, name, text):
        la, params = P(text), LadderParams(3, 2)
        walk = list(getattr(ld, f"{name}_steps")(la, params))
        assert len(walk) >= 2
        counts.update(encode=0, decode=0, walk=0, conjugate=0)
        assert getattr(ld, name)(la, params) == walk[-1]
        assert counts == {"encode": 1, "decode": 1, "walk": len(walk) + 1, "conjugate": 0}

    def test_mullineux(self, counts):
        la = P("6,2,1")
        moves = sum(1 for _ in ld._steps(beta_numbers(la.conjugate(), len(la.conjugate())), 3, 2, 1, True))
        assert moves >= 2 and [mu for _, mu in mullineux_steps(la, 3)][-1] == P("5,2,2")
        counts.update(encode=0, decode=0, walk=0, conjugate=0)
        assert mullineux(la, 3) == P("5,2,2")
        assert (counts["encode"], counts["decode"], counts["walk"]) == (1, 1, moves + 1)


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

    def test_steps_equal_the_scaled_walk_route(self):
        for params in self.PARAMS:
            for la in all_up_to(10):
                assert list(ld.regularise_steps(la, params)) == list(regularise_steps_by_scale(la, params))
                assert list(ld.restrictise_steps(la, params)) == list(restrictise_steps_by_scale(la, params))


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


def glaisher_counts(E, size):
    """The number of E-regular partitions of n = 0..size, the coefficients of
    prod_{k >= 1} (1 - q^(E*k)) / (1 - q^k) = prod_{E does not divide k}
    1 / (1 - q^k): no part repeated E times, or no part divisible by E
    (Glaisher).  Written out here, so it shares no code with the package."""
    series = [1] + [0] * size
    for k in range(1, size + 1):
        if k % E:
            for s in range(k, size + 1):
                series[s] += series[s - k]
    return series


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_ladder_counts_are_glaisher_counts(e):
    # for every slope p/q with q <= 4 and every n <= 14, the ladder classes
    # (distinct fingerprints), the (E, Y)-regular partitions and the
    # (E, Y)-restricted ones of n each number the E-regular partitions of n,
    # E = e*q: each class holds one of each, and the classes are counted
    # whole, so a key that merges or splits classes fails here.  The
    # arm-prefix crystal of each slope and variant is isomorphic to the
    # e-regular one, so its layer n holds as many vertices as there are
    # e-regular partitions of n
    slopes = sorted({Fraction(p, q) for q in range(1, 5) for p in range(q, (e - 1) * q + 1)})
    regular = glaisher_counts(e, 14)
    triples = layers = 0
    for y in slopes:
        params = LadderParams(e, y)
        counts = glaisher_counts(params.E, 14)
        for n in range(15):
            partitions = list(enumerate_partitions(n))
            assert len({ld.fingerprint(la, params) for la in partitions}) == counts[n], (y, n)
            assert sum(ld.is_regular(la, params) for la in partitions) == counts[n], (y, n)
            assert sum(ld.is_restricted(la, params) for la in partitions) == counts[n], (y, n)
            triples += 1
        for v in "+-":
            graph = cr.build_graph(cr.ArmPrefix.from_slope(e, y, ceil(14 / e), v), 14)
            sizes = Counter(la.size for la in graph.vertices)
            assert [sizes[n] for n in range(15)] == regular, (y, v)
            layers += 15
    assert triples == 15 * {2: 1, 3: 7, 4: 13, 5: 19}[e]
    assert layers == 2 * triples
