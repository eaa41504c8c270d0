import pickle
import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import product, takewhile
from math import floor

import pytest

from oracles import (add_node, arm_axioms_hold, build_graph_by_search, by_rows, chain_steps_by_step,
                     descending_prefixes, is_A_regular_by_hooks, node_compare, random_partition, reduce_signature,
                     signed_nodes_by_walk)
from regcrystals import crystals as cr
from regcrystals import ladders as ld
from regcrystals import partitions as pt
from regcrystals import verify
from regcrystals.crystals import ArmPrefix
from regcrystals.mullineux import peel_and_rebuild
from regcrystals.partitions import Partition, enumerate_partitions, parse_partition

P = parse_partition


def all_up_to(n):
    for s in range(n + 1):
        yield from enumerate_partitions(s)


def arms(y, n, variant):
    """The values of the slope-y prefix of length n at e = 4."""
    return list(ArmPrefix.from_slope(4, y, n, variant).values)


class TestArmValues:
    def test_integer_slope(self):
        assert arms(2, 4, "+") == [2, 4, 6, 8]
        assert arms(2, 4, "-") == [1, 3, 5, 7]
        assert arms(1, 5, "-") == [0, 1, 2, 3, 4]

    def test_figure_slopes(self):
        assert arms(Fraction(7, 4), 4, "+") == [1, 3, 5, 7]
        assert arms(Fraction(7, 4), 4, "-") == [1, 3, 5, 6]
        assert arms(Fraction(5, 3), 4, "+") == [1, 3, 5, 6]
        assert arms(Fraction(5, 3), 4, "-") == [1, 3, 4, 6]
        assert arms(Fraction(3, 2), 4, "+") == [1, 3, 4, 6]
        assert arms(Fraction(3, 2), 4, "-") == [1, 2, 4, 5]


class TestArmPrefix:
    def test_axioms_enforced(self):
        with pytest.raises(ValueError):
            ArmPrefix(4, (4,))  # above (e-1)t
        with pytest.raises(ValueError):
            ArmPrefix(4, (2, 6))  # gap of 2
        with pytest.raises(ValueError):
            ArmPrefix(4, (1, 0))  # below t-1

    def test_from_slope_matches_values(self):
        assert ArmPrefix.from_slope(4, 2, 4, "+").values == (2, 4, 6, 8)
        assert ArmPrefix.from_slope(4, Fraction(3, 2), 4, "-").values == (1, 2, 4, 5)

    def test_frozen_and_compared_on_e_and_values(self):
        # the slope and weights are derived once and left out of ==, hashing and the repr
        prefix = ArmPrefix(4, [1, 3, 5])
        assert repr(prefix) == "ArmPrefix(e=4, values=(1, 3, 5))"
        with pytest.raises(AttributeError, match="^cannot assign to field 'values'$"):
            prefix.values = (0,)
        other = ArmPrefix(4, (1, 3, 5))
        object.__setattr__(other, "slope", Fraction(0))
        object.__setattr__(other, "weights", (0, 0))
        assert prefix == other and hash(prefix) == hash(other) and repr(other) == repr(prefix)
        assert prefix != ArmPrefix(5, (1, 3, 5)) and pickle.loads(pickle.dumps(prefix)).weights == (5, 7)


TABLE_PREFIXES = {
    0: ArmPrefix(4, (0, 1, 2)),
    2: ArmPrefix(4, (2, 5, 7)),
    3: ArmPrefix(4, (3, 6, 9)),
}


class TestNodeOrder:
    def test_table_orders(self):
        la_nodes = [(1, 5), (2, 2), (5, 1)]
        expected = {
            0: [(1, 5), (2, 2), (5, 1)],
            2: [(5, 1), (1, 5), (2, 2)],
            3: [(5, 1), (2, 2), (1, 5)],
        }
        for a1, prefix in TABLE_PREFIXES.items():
            pairs = signed_nodes_by_walk(P("5,2,1,1").parts, prefix, 0)[0]
            assert [nd for nd, _ in pairs] == expected[a1]
            assert set(nd for nd, _ in pairs) == set(la_nodes)

    def test_equal_nodes(self):
        prefix = ArmPrefix(4, (2,))
        assert node_compare(prefix, (2, 2), (2, 2)) == 0

    def test_antisymmetry(self):
        prefix = ArmPrefix(4, (2, 5))
        for a in ((1, 5), (2, 2), (5, 1), (3, 3)):
            for b in ((1, 5), (2, 2), (5, 1), (3, 3)):
                assert node_compare(prefix, a, b) == -node_compare(prefix, b, a)

    def test_residue_mismatch(self):
        with pytest.raises(ValueError):
            node_compare(ArmPrefix(4, (2,)), (1, 1), (1, 2))


def valid_prefixes(e, n):
    """Every value tuple of length n that satisfies the arm-sequence axioms,
    built value by value from the axioms alone."""
    found = [()]
    for t in range(1, n + 1):
        found = [
            vals + (v,)
            for vals in found
            for v in range(t - 1, (e - 1) * t + 1)
            if all(v - vals[u - 1] - vals[t - u - 1] in (0, 1) for u in range(1, t))
        ]
    return found


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_every_valid_prefix_has_a_slope(e):
    for n in range(1, 9):
        prefixes = valid_prefixes(e, n)
        assert prefixes
        for vals in prefixes:
            prefix = ArmPrefix(e, vals)
            assert prefix.slope == max(Fraction(v, t) for t, v in enumerate(vals, start=1))
            assert tuple(floor(prefix.slope * t) for t in range(1, n + 1)) == vals


def valueerror_text(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("e, n", [(2, 6), (3, 6), (4, 5), (5, 5)])
def test_linear_prefix_check_equals_the_pair_loop(e, n):
    # every value tuple up to length n with A_t in [t - 2, (e - 1)t + 1], one
    # past each bound: accepted by both or rejected with the same message
    accepted = 0
    for length in range(1, n + 1):
        for vals in product(*(range(t - 2, (e - 1) * t + 2) for t in range(1, length + 1))):
            text = valueerror_text(ArmPrefix, e, vals)
            assert text == valueerror_text(arm_axioms_hold, e, vals), vals
            accepted += text is None
    assert accepted == sum(len(valid_prefixes(e, length)) for length in range(1, n + 1))


def rim_pairs(e, bound):
    """Each same-residue pair of addable or removable nodes of a partition of
    size <= bound, with the smallest such partition and the residue."""
    pairs = {}
    for size in range(bound + 1):
        for la in enumerate_partitions(size):
            nodes = la.addable_nodes() + la.removable_nodes()
            for a in nodes:
                for b in nodes:
                    if a < b and (a[1] - a[0] - b[1] + b[0]) % e == 0:
                        pairs.setdefault((a, b), (la, (a[1] - a[0]) % e))
    return pairs


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_key_order_equals_node_compare(e):
    # both orders are functions of the two nodes, so every pair is checked
    # once, in the smallest partition that has it, and for every prefix whose
    # bound reaches that partition
    pairs = rim_pairs(e, 6 * e)
    checked = 0
    for n in range(1, 7):
        for vals in valid_prefixes(e, n):
            prefix = ArmPrefix(e, vals)
            for (a, b), (la, i) in pairs.items():
                if la.size > prefix.bound:
                    continue
                order = [nd for nd, _ in signed_nodes_by_walk(la.parts, prefix, i)[i]]
                assert (order.index(a) < order.index(b)) == (node_compare(prefix, a, b) > 0)
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("variant", "+-")
def test_key_sort_matches_comparator_sort_on_slope_prefixes(variant):
    # the walk of every residue gives each residue the reduced signature its
    # own walk gives, and that is the reduction of the reference walk, whose
    # order is the comparator's
    for e in (2, 3, 4):
        for y in {Fraction(p, q) for q in (1, 2, 3) for p in range(q, (e - 1) * q + 1)}:
            prefix = ArmPrefix.from_slope(e, y, 3, variant)
            for la in all_up_to(prefix.bound):
                every = cr._signed_nodes(la.parts, prefix)
                assert set(every) <= set(range(e))
                for i in range(e):
                    reduced = cr._signed_nodes(la.parts, prefix, i)
                    assert list(reduced) == [i]
                    assert every.get(i, ([], [])) == reduced[i], (la, i)
                    pairs = signed_nodes_by_walk(la.parts, prefix, i).get(i, [])
                    assert reduced[i] == reduce_signature(by_rows(pairs)), (la, i)
                    by_compare = cmp_to_key(lambda x, z: node_compare(prefix, x[0], z[0]))
                    assert pairs == sorted(pairs, key=by_compare, reverse=True)
                    assert sorted(nd for nd, _ in pairs) == sorted(
                        nd for nd in la.addable_nodes() + la.removable_nodes()
                        if (nd[1] - nd[0]) % e == i
                    )


def test_derived_order_matches_comparator_sort_at_large_n():
    # the exhaustive order checks stop at size 6e; these prefixes reach length 67
    rng = random.Random(20210514)
    for e in (3, 4, 5, 6):
        for y in sorted({Fraction(1), Fraction(3, 2), Fraction(5, 3), Fraction(e - 1)}):
            for variant in "+-":
                for n in range(50, 201, 30):
                    prefix = ArmPrefix.from_slope(e, y, -(-n // e), variant)
                    floors = tuple(floor(prefix.slope * t) for t in range(1, prefix.n + 1))
                    assert prefix.values == floors
                    la = random_partition(rng, rng.randint(n, prefix.bound))
                    by_compare = cmp_to_key(lambda x, z: node_compare(prefix, x[0], z[0]))
                    for i in range(e):
                        pairs = signed_nodes_by_walk(la.parts, prefix, i).get(i, [])
                        assert pairs == sorted(pairs, key=by_compare, reverse=True), (la, i)
                        assert cr._signed_nodes(la.parts, prefix, i)[i] == reduce_signature(by_rows(pairs)), (la, i)


class TestSignatures:
    def test_table_signatures(self):
        # the 0-signature of 5,2,1,1 and the rows of the nodes its reduction
        # keeps: (1, 5), (2, 2) and (5, 1) at A_1 = 0, (2, 2) at 2, (1, 5) at 3
        la = P("5,2,1,1")
        expected = {
            0: ("--+", ([1, 2], [5])),
            2: ("+--", ([2], [])),
            3: ("+--", ([1], [])),
        }
        for a1, prefix in TABLE_PREFIXES.items():
            signed = signed_nodes_by_walk(la.parts, prefix, 0)[0]
            assert "".join(sign for _, sign in signed) == expected[a1][0]
            assert cr._signed_nodes(la.parts, prefix, 0) == {0: expected[a1][1]}

    def test_reduce(self):
        # the reference reduction: the positions of the signs that survive,
        # '-' items then '+' items
        assert reduce_signature(enumerate("+-")) == ([], [])
        assert reduce_signature(enumerate("++--")) == ([], [])
        assert reduce_signature(enumerate("-+-+")) == ([0], [3])
        assert reduce_signature(enumerate("")) == ([], [])


class TestOperators:
    def test_table_operators(self):
        la = P("5,2,1,1")
        expected = {
            0: (P("5,1,1,1"), P("5,2,1,1,1")),
            2: (P("5,1,1,1"), None),
            3: (P("4,2,1,1"), None),
        }
        for a1, prefix in TABLE_PREFIXES.items():
            assert cr.e_op(la, prefix, 0) == expected[a1][0]
            assert cr.f_op(la, prefix, 0) == expected[a1][1]

    def test_empty_has_no_removals(self):
        prefix = ArmPrefix(3, (0, 1))
        for i in range(3):
            assert cr.e_op(Partition(), prefix, i) is None

    def test_non_regular_rejected(self):
        prefix = ArmPrefix(3, (0, 1))  # slope-1 minus: 3-regular partitions
        with pytest.raises(ValueError):
            cr.e_op(P("2,2,2"), prefix, 0)

    def test_checked_partition_admits_no_other(self):
        # e_op/f_op check every input in full, whatever they checked before
        prefix = ArmPrefix.from_slope(3, 1, 3, "-")
        regular = P("3,1")
        for la in all_up_to(prefix.bound - 1):
            if cr.is_A_regular(la, prefix):
                continue
            for op in (cr.e_op, cr.f_op):
                cr.e_op(regular, prefix, 0)
                with pytest.raises(ValueError):
                    op(la, prefix, 0)
                with pytest.raises(ValueError):
                    op(Partition(la.parts), prefix, 1)

    def test_adjointness(self):
        for prefix in (ArmPrefix(3, (0, 1, 2)), ArmPrefix(3, (2, 4, 6)), ArmPrefix(4, (2, 5, 7))):
            bound = prefix.bound
            for la in all_up_to(bound):
                if not cr.is_A_regular(la, prefix):
                    continue
                for i in range(prefix.e):
                    down = cr.e_op(la, prefix, i)
                    if down is not None:
                        assert cr.f_op(down, prefix, i) == la
                    if la.size < bound:
                        up = cr.f_op(la, prefix, i)
                        if up is not None:
                            assert cr.e_op(up, prefix, i) == la


RECHECK_PREFIXES = verify._CRYSTAL_PREFIXES + (ArmPrefix(3, (1, 3, 5)), ArmPrefix(4, (2, 5, 7)))


def move_passes(parts, prefix, row, grow):
    """True if _move moves the node at the end of the row of parts (the one
    just past it, if grow) in place and passes its check; False if it
    raises its ValueError, leaving parts as the failed move made them."""
    try:
        return cr._move(parts, prefix, [row], grow) == 1
    except ValueError as error:
        assert str(error).endswith(f" is not regular for {prefix!r}"), error
        return False


def arm_walks_equal_the_hook_walk(prefix, partitions):
    """Check is_A_regular against the hook walk on each partition, and on
    each A-regular one, _move against the hook walk of every one-node
    move within the bound, which it makes in place; return the number of
    moves checked."""
    moves = 0
    for la in partitions:
        regular = is_A_regular_by_hooks(la, prefix)
        assert cr.is_A_regular(la, prefix) == regular, (la, prefix)
        if not regular:
            continue
        moved = [(la.remove_node(nd), nd, False) for nd in la.removable_nodes()]
        if la.size < prefix.bound:
            moved += [(add_node(la, nd), nd, True) for nd in la.addable_nodes()]
        for mu, nd, grow in moved:
            parts = list(la.parts)
            assert move_passes(parts, prefix, nd[0], grow) == is_A_regular_by_hooks(mu, prefix), (la, mu)
            assert tuple(parts) == mu.parts, (la, mu)
            moves += 1
    return moves


@pytest.mark.parametrize("prefix", RECHECK_PREFIXES, ids=repr)
def test_one_move_recheck_equals_full_check(prefix):
    # from every A-regular partition, every one-node move is judged by
    # _move as the full hook walk judges it, and so is every partition
    # by is_A_regular
    assert arm_walks_equal_the_hook_walk(prefix, all_up_to(prefix.bound)) > 0


@pytest.mark.parametrize("e", range(2, 9))
def test_arm_walks_equal_the_hook_walk_on_every_slope_prefix(e):
    # every prefix of a slope in [1, e - 1] whose bound first reaches 14
    # (the slopes p/q with q <= 4 among them), on every partition of size
    # at most 14 and each one-node move from the regular ones
    for prefix in slope_prefixes(e, -(-14 // e)):
        assert arm_walks_equal_the_hook_walk(prefix, all_up_to(14)) > 0


def hook_partitions(size):
    """The hooks (a, 1^(size - a)) for a = 1..size: one row, one column and
    every hook between; each has a hook of length size at (1, 1)."""
    return [Partition([a] + [1] * (size - a)) for a in range(1, size + 1)]


@pytest.mark.parametrize("prefix", [ArmPrefix.from_slope(2, 1, 6, "-"), ArmPrefix.from_slope(2, 1, 6, "+"),
                                    ArmPrefix(4, (0, 1, 2)), ArmPrefix.from_slope(3, Fraction(3, 2), 4, "+"),
                                    ArmPrefix.from_slope(5, 4, 3, "+")], ids=repr)
def test_arm_walks_reach_the_last_arm(prefix):
    # at the bound, (A_n + 1, 1^(n*e - A_n - 1)) has a hook of length n*e
    # with arm A_n at (1, 1), so the walks must test t = n; one row, one
    # column and the other hooks of sizes bound and bound - 1 agree too,
    # with each move from the regular ones, into the bound among them
    bound, last_arm = prefix.bound, prefix.values[-1]
    assert not cr.is_A_regular(Partition([last_arm + 1] + [1] * (bound - last_arm - 1)), prefix)
    assert arm_walks_equal_the_hook_walk(prefix, hook_partitions(bound) + hook_partitions(bound - 1)) > 0


def random_f_walk(rng, prefix, size):
    """A seeded vertex of size size in the prefix's crystal: f_i from the
    empty partition at a random residue with a cogood node, each step moved
    by the string kernel (which checks it) and checked by the hook walk."""
    parts = []
    while sum(parts) < size:
        i = rng.choice(sorted(i for i, (_, plus) in cr._signed_nodes(parts, prefix).items() if plus))
        assert cr._move_string(parts, prefix, i, True, 1) == 1
        assert is_A_regular_by_hooks(Partition(parts), prefix), parts
    return Partition(parts)


def test_arm_walks_equal_the_hook_walk_at_large_n():
    # seeded n = 50..400, e = 2..8 and slopes p/q with q <= 4: a random
    # partition, one row and one column of n, each regular or not, and a
    # random crystal vertex with every move from it
    rng = random.Random(20261019)
    moves = 0
    for k in range(15):
        n, e, q = 50 + 25 * k, 2 + k % 7, 1 + k % 4
        prefix = ArmPrefix.from_slope(e, Fraction(rng.randint(q, (e - 1) * q), q), n // e + 1, rng.choice("+-"))
        shapes = [random_partition(rng, n), Partition([n]), Partition([1] * n), random_f_walk(rng, prefix, n)]
        moves += arm_walks_equal_the_hook_walk(prefix, shapes)
    assert moves > 0


@pytest.mark.parametrize("prefix", RECHECK_PREFIXES, ids=repr)
def test_string_kernel_equals_the_operators(prefix):
    # from every A-regular partition and at every residue, removing the good
    # string is e_op to exhaustion, and adding k cogood nodes is f_op applied
    # k times; asked for more, the kernel adds the cogood nodes there are
    strings = 0
    for la in all_up_to(prefix.bound):
        if not cr.is_A_regular(la, prefix):
            continue
        for i in range(prefix.e):
            minus, plus = cr._signed_nodes(la.parts, prefix, i)[i]
            parts, mu = list(la.parts), la
            assert cr._move_string(parts, prefix, i, False, len(minus)) == len(minus)
            while (nu := cr.e_op(mu, prefix, i)) is not None:
                mu = nu
            assert tuple(parts) == mu.parts, (la, i)
            phi, mu = len(plus), la
            for k in range(1, min(phi, prefix.bound - la.size) + 1):
                mu, parts = cr.f_op(mu, prefix, i), list(la.parts)
                assert cr._move_string(parts, prefix, i, True, k) == k
                assert tuple(parts) == mu.parts, (la, i, k)
            if la.size + phi <= prefix.bound:
                assert cr._move_string(list(la.parts), prefix, i, True, phi + 1) == phi
            strings += 1
    assert strings > 0


def report_a_wrong_node_of_3_2_2(replace_walk):
    """Make the walk report the end (1, 3) of row 1 as the one good node of
    3,2,2 at every residue it is asked for; removing it leaves 2,2,2, which
    is not 3-regular."""

    def faulty(real, parts, prefix, i):
        if list(parts) != [3, 2, 2]:
            return real(parts, prefix, i)
        return {r: ([1], []) for r in (range(prefix.e) if i is None else [i])}

    replace_walk(faulty)


def test_peel_raises_when_a_move_fails_its_check(replace_walk):
    # the wrong node is removed at the first removal, e_op's
    report_a_wrong_node_of_3_2_2(replace_walk)
    prefix = ArmPrefix.from_slope(3, 1, 3, "-")
    with pytest.raises(ValueError, match=r"^2\^3 is not regular for ArmPrefix"):
        peel_and_rebuild(P("3,2,2"), prefix, prefix, range(3), -1)


def test_peel_run_raises_when_a_move_fails_its_check(replace_walk):
    # from 4,2,2,1 the second run starts on 3,2,2, and the all-residue walk
    # of that run reports the wrong node
    report_a_wrong_node_of_3_2_2(replace_walk)
    prefix = ArmPrefix.from_slope(3, 1, 3, "-")
    with pytest.raises(ValueError, match=r"^2\^3 is not regular for ArmPrefix"):
        peel_and_rebuild(P("4,2,2,1"), prefix, prefix, range(3), -1)


def report_a_misplaced_node_of_3_2_2(replace_walk, grow):
    """Make the walk report, at every residue it is asked for, a node of
    3,2,2 that is not there to move: row 3's as the one cogood node if grow,
    (3, 3), which is not addable and leaves 3,2,3, else row 2's as the one
    good node, (2, 2), which is not removable and leaves 3,1,2."""

    def faulty(real, parts, prefix, i):
        if list(parts) != [3, 2, 2]:
            return real(parts, prefix, i)
        signature = ([], [3]) if grow else ([2], [])
        return {r: signature for r in (range(prefix.e) if i is None else [i])}

    replace_walk(faulty)


SHAPE_PREFIX = ArmPrefix.from_slope(3, 1, 3, "-")

# Each run meets the misplaced node of 3,2,2: grow, the error and its message.
# Before the move check tested shapes, e_op, the peel's first removal and
# build_graph raised through Partition's validation of the image (build_graph
# a ValueError), and f_op and the rebuild through the hook check; the peel's
# later string carried 3,1,2 on and raised only in its rebuild ("no cogood
# 1-node on (3, 1, 1)").  Now the move check's shape test rejects each move.
REMOVED, ADDED = r"^3,1,2 is not regular for ArmPrefix", r"^3,2,3 is not regular for ArmPrefix"
SHAPE_FAULTS = {
    "e_op": (False, ValueError, REMOVED, lambda: cr.e_op(P("3,2,2"), SHAPE_PREFIX, 0)),
    "peel_first_removal": (False, ValueError, REMOVED,
                           lambda: peel_and_rebuild(P("3,2,2"), SHAPE_PREFIX, SHAPE_PREFIX, range(3), -1)),
    "peel_later_string": (False, ValueError, REMOVED,
                          lambda: peel_and_rebuild(P("4,2,2,1"), SHAPE_PREFIX, SHAPE_PREFIX, range(3), -1)),
    "f_op": (True, ValueError, ADDED, lambda: cr.f_op(P("3,2,2"), SHAPE_PREFIX, 0)),
    # the rebuild of 1 from a table that maps the empty partition to 3,2,2
    "rebuild": (True, ValueError, ADDED, lambda: peel_and_rebuild(P("1"), SHAPE_PREFIX, SHAPE_PREFIX, range(3), 1,
                                                                  known={(): P("3,2,2")})),
    "build_graph": (True, RuntimeError, r"^operator left the A-regular set: 3,2,2 -\d-> 3,2,3$",
                    lambda: cr.build_graph(SHAPE_PREFIX)),
}


@pytest.mark.parametrize("run", SHAPE_FAULTS)
def test_a_misplaced_node_fails_the_shape_check(replace_walk, run):
    grow, error, message, call = SHAPE_FAULTS[run]
    report_a_misplaced_node_of_3_2_2(replace_walk, grow)
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("prefix", RECHECK_PREFIXES, ids=repr)
def test_peel_rejects_a_singular_partition(prefix):
    # e_op's full check raises on every singular la, also on those with no
    # good node at any residue, which the peel's walk would not pick a string on
    no_good = 0
    for la in all_up_to(prefix.bound):
        if not cr.is_A_regular(la, prefix):
            no_good += not any(minus for minus, _ in cr._signed_nodes(la.parts, prefix).values())
            with pytest.raises(ValueError, match="is not regular for ArmPrefix"):
                peel_and_rebuild(la, prefix, prefix, range(prefix.e), 1)
    assert no_good > 0


@pytest.mark.parametrize("prefix", RECHECK_PREFIXES, ids=repr)
def test_a_passed_move_leaves_a_regular_partition(prefix):
    # from every A-regular partition, _move at every row to two past the
    # last, either way: whatever it passes, the public constructor accepts
    # and the full check finds regular, so the crystal moves may build it
    # unchecked; and some misplaced moves are rejected by the shape
    rejected = 0
    for la in all_up_to(prefix.bound - 1):
        if not cr.is_A_regular(la, prefix):
            continue
        for row, grow in product(range(1, len(la) + 3), (True, False)):
            parts = list(la.parts)
            if move_passes(parts, prefix, row, grow):
                assert is_A_regular_by_hooks(Partition(parts), prefix), (la, row, grow)
            else:
                rejected += valueerror_text(Partition, parts) is not None
    assert rejected > 0


def test_rebuild_checks_its_last_image(replace_kernel):
    # a placement whose last addition leaves 2,2,2 (the rebuild of 3,2,1
    # ends with a string of one node): that addition is moved as row 3's on
    # 2,2,1, and no operator follows it, so only the check of that move
    # itself can catch it

    def faulty(parts, prefix, rows, grow):
        for r in rows:
            if grow and sum(parts) == 5:
                parts[:], r = [2, 2, 1], 3
            real(parts, prefix, [r], grow)
        return len(rows)

    real = replace_kernel("_move", faulty)
    prefix = ArmPrefix.from_slope(3, 1, 2, "-")
    with pytest.raises(ValueError, match=r"^2\^3 is not regular for ArmPrefix"):
        peel_and_rebuild(P("3,2,1"), prefix, prefix, range(3), -1)


def test_rebuild_without_enough_cogood_nodes_raises():
    # sign 0 sends both runs of 1,1 to residue 0, and 1 has no addable 0-node
    prefix = ArmPrefix.from_slope(3, 1, 2, "-")
    with pytest.raises(AssertionError, match=r"^no cogood 0-node on 1$"):
        peel_and_rebuild(P("1,1"), prefix, prefix, range(3), 0)


def test_walk_rejects_a_partition_beyond_the_target_bound():
    src, dst = ArmPrefix.from_slope(3, 1, 3, "-"), ArmPrefix.from_slope(3, 1, 2, "-")
    with pytest.raises(ValueError, match=r"^\|la\| = 7 exceeds the crystal bound 6$"):
        peel_and_rebuild(P("4,3"), src, dst, range(3), -1)


def test_operator_images_pass_the_move_check(replace_kernel):
    # e_op and f_op raise rather than return an image outside the crystal:
    # here every move makes its placement and fails its check

    def failing(parts, prefix, rows, grow):
        for r in rows:
            real(parts, prefix, [r], grow)
        raise ValueError(f"{parts} is not regular for {prefix!r}")

    real = replace_kernel("_move", failing)
    prefix = ArmPrefix.from_slope(3, 1, 3, "-")
    for op, i in ((cr.e_op, 2), (cr.f_op, 0)):
        with pytest.raises(ValueError, match="not regular for"):
            op(P("3,1"), prefix, i)


class TestARegular:
    def test_example_prefix_families(self):
        la = P("5,2,1,1")
        assert cr.is_A_regular(la, ArmPrefix(4, (0, 1, 2)))
        assert cr.is_A_regular(la, ArmPrefix(4, (2, 5, 7)))
        assert cr.is_A_regular(la, ArmPrefix(4, (3, 6, 9)))
        assert not cr.is_A_regular(la, ArmPrefix(4, (1, 3, 5)))
        assert not cr.is_A_regular(la, ArmPrefix(4, (2, 4, 6)))

    def test_empty_always_regular(self):
        assert cr.is_A_regular(Partition(), ArmPrefix(5, (0,)))

    def test_slope_one_minus_is_e_regular(self):
        for e in (2, 3, 4):
            prefix = ArmPrefix.from_slope(e, 1, 4, "-")
            for la in all_up_to(min(12, prefix.bound)):
                assert cr.is_A_regular(la, prefix) == la.is_e_regular(e)

    def test_bound_guard(self):
        with pytest.raises(ValueError):
            cr.is_A_regular(P("5,4"), ArmPrefix(4, (2,)))


class TestGraphs:
    def test_empty_vertex_out_degree(self):
        graph = cr.build_graph(ArmPrefix(3, (1, 2)))
        outgoing = [e for e in graph.edges if e[0] == Partition()]
        assert len(outgoing) == 1 and outgoing[0][1] == 0

    def test_prefix_determines_graph(self):
        direct = cr.build_graph(ArmPrefix(4, (2, 4, 6, 8)))
        via_slope = cr.build_graph(ArmPrefix.from_slope(4, 2, 4, "+"))
        assert direct.vertices == via_slope.vertices
        assert direct.edges == via_slope.edges

    def test_layer_counts_agree(self):
        for e in (3, 4):
            base = None
            for y, variant in ((1, "-"), (e - 1, "+"), (Fraction(2 * e - 3, 2), "-")):
                graph = cr.build_graph(ArmPrefix.from_slope(e, y, 3, variant))
                layers = {}
                for v in graph.vertices:
                    layers[v.size] = layers.get(v.size, 0) + 1
                if base is None:
                    base = layers
                assert layers == base

    def test_negative_size_bound_is_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            cr.build_graph(ArmPrefix(3, (0, 1)), -1)

    def test_dot_output_stable(self):
        graph = cr.build_graph(ArmPrefix(2, (1, 2)))
        dot = cr.to_dot(graph)
        assert dot == cr.to_dot(graph)
        assert dot.startswith("digraph crystal {")
        assert '"-" -> "1" [label="0"];' in dot


def test_graph_of_a_huge_modulus_walks_once_per_vertex(count_walks):
    # no loop or allocation of size e: one walk for the empty partition, and
    # none for the vertex at the bound
    walks = count_walks("_signed_nodes")
    graph = cr.build_graph(ArmPrefix(10**8, (0,)), 1)
    assert graph.vertices == (Partition(), P("1"))
    assert graph.edges == ((Partition(), 0, P("1")),)
    assert walks == [((), graph.arm)]


def filter_route_graph(prefix, bound):
    """Vertices and f-edges found by enumerating every partition up to bound."""
    vertices = [la for la in all_up_to(bound) if cr.is_A_regular(la, prefix)]
    edges = [
        (la, i, cr.f_op(la, prefix, i))
        for la in vertices
        if la.size < bound
        for i in range(prefix.e)
    ]
    return set(vertices), {edge for edge in edges if edge[2] is not None}


@pytest.mark.parametrize(
    "prefix, max_size",
    [(p, None) for p in verify._CRYSTAL_PREFIXES] + [(verify._CRYSTAL_PREFIXES[4], 8)],
)
def test_search_graph_equals_filter_route(prefix, max_size, count_walks):
    walks = count_walks("_signed_nodes")
    graph = cr.build_graph(prefix, max_size)
    bound = prefix.bound if max_size is None else max_size
    assert len(walks) == sum(v.size < bound for v in graph.vertices)
    vertices, edges = filter_route_graph(prefix, bound)
    assert graph.bound == bound
    assert set(graph.vertices) == vertices and len(graph.vertices) == len(vertices)
    assert set(graph.edges) == edges and len(graph.edges) == len(edges)
    assert list(graph.vertices) == sorted(vertices, key=lambda p: (p.size, p.parts))


def slope_prefixes(e, n):
    """Every distinct from_slope prefix of length n: each valid prefix is the
    '+' prefix of its slope, whose denominator is at most n."""
    return sorted(
        {ArmPrefix.from_slope(e, Fraction(p, q), n, v)
         for q in range(1, n + 1) for p in range(q, (e - 1) * q + 1) for v in "+-"},
        key=lambda prefix: prefix.values,
    )


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_layered_graph_equals_the_search(e):
    # the same vertex and edge tuples in the same order: at every size bound
    # up to length 3, and at the full bound for length 4
    for n in range(1, 5):
        for prefix in slope_prefixes(e, n):
            for max_size in range(prefix.bound + 1) if n < 4 else (None,):
                assert cr.build_graph(prefix, max_size) == build_graph_by_search(prefix, max_size)


@pytest.mark.parametrize(
    "prefix, max_size",
    [(p, None) for p in verify._CRYSTAL_PREFIXES]
    + [(ArmPrefix.from_slope(3, 2, 7, "+"), 20), (ArmPrefix.from_slope(4, Fraction(5, 2), 5, "+"), 18)],
)
def test_layered_graph_equals_the_search_on_larger_graphs(prefix, max_size):
    assert cr.build_graph(prefix, max_size) == build_graph_by_search(prefix, max_size)


def iso_chain(a, b):
    """cr.iso_chain(a, b), whose steps must be the slopes of the oracle's
    walk of prefixes from the larger end down to the smaller, but the last."""
    chain = cr.iso_chain(a, b)
    upper, lower = (b, a) if chain.inverse else (a, b)
    assert chain.steps == tuple(ld.LadderParams(a.e, p.slope) for p in descending_prefixes(upper, lower)[:-1])
    return chain


class TestChains:
    def test_figure_chain(self):
        chain = iso_chain(ArmPrefix(4, (2, 4, 6, 8)), ArmPrefix(4, (1, 2, 4, 5)))
        assert [p.pair() for p in chain.steps] == [(4, 2), (16, 7), (12, 5), (8, 3)]
        assert not chain.inverse

    def test_recomputed_chain(self):
        chain = iso_chain(ArmPrefix(3, (2, 4, 6)), ArmPrefix(3, (0, 1, 2)))
        assert [p.pair() for p in chain.steps] == [(3, 2), (9, 5), (6, 3), (9, 4), (3, 1)]

    def test_frozen_and_compared_on_its_ends(self):
        # inverse and steps are cached on first read and left out of ==, hashing and the repr
        a, b = ArmPrefix(3, (1, 2)), ArmPrefix(3, (0, 1))
        chain, other = cr.iso_chain(a, b), cr.iso_chain(a, b)
        assert repr(chain) == "Chain(source=ArmPrefix(e=3, values=(1, 2)), target=ArmPrefix(e=3, values=(0, 1)))"
        with pytest.raises(AttributeError, match="^cannot assign to field 'source'$"):
            chain.source = b
        assert chain.steps == (ld.LadderParams(3, 1),) and "steps" not in vars(other)
        assert chain == other and hash(chain) == hash(other) and repr(other) == repr(chain)
        assert chain != cr.iso_chain(b, a) and pickle.loads(pickle.dumps(chain)) == chain

    def test_identity_chain(self):
        a = ArmPrefix(3, (1, 2))
        chain = iso_chain(a, a)
        assert chain.steps == ()
        assert cr.apply_chain(P("2"), chain) == P("2")

    def test_figure_images(self):
        chain = iso_chain(ArmPrefix(4, (2, 4, 6, 8)), ArmPrefix(4, (1, 2, 4, 5)))
        la = P("4,3^2,2,1^4")
        first = ld.regularise(la, chain.steps[0])
        assert first == P("5,4,2,1^5")
        assert cr.apply_chain(la, chain) == P("6,4,2,1^4")

    def test_prefixes_are_ordered_by_slope(self):
        # every pair of valid prefixes of one (e, n), e = 2..5 and n <= 5, is
        # comparable value by value, in slope order, which picks the direction
        pairs = 0
        for e in range(2, 6):
            grown = [()]  # the valid prefixes of length n, grown by one value at a time
            for n in range(1, 6):
                grown = [vals + (v,) for vals in grown for v in range(n - 1, (e - 1) * n + 1)
                         if valueerror_text(arm_axioms_hold, e, vals + (v,)) is None]
                prefixes = [ArmPrefix(e, vals) for vals in grown]
                for a, b in product(prefixes, repeat=2):
                    above = all(x >= y for x, y in zip(a.values, b.values))
                    assert above or all(x <= y for x, y in zip(a.values, b.values)), (a, b)
                    assert above == (a.slope >= b.slope) == (not cr.iso_chain(a, b).inverse), (a, b)
                    pairs += 1
        assert pairs == 2830

    def test_inverse_chain_roundtrip(self):
        a = ArmPrefix(4, (2, 4, 6, 8))
        b = ArmPrefix(4, (1, 2, 4, 5))
        forward = iso_chain(a, b)
        backward = iso_chain(b, a)
        assert backward.inverse
        for la in all_up_to(10):
            if not cr.is_A_regular(la, a):
                continue
            image = cr.apply_chain(la, forward)
            assert cr.apply_chain(image, backward) == la

    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    def test_chain_steps_end_at_apply_chain(self, inverse):
        a, b = ArmPrefix(4, (2, 4, 6, 8)), ArmPrefix(4, (1, 2, 4, 5))
        chain = iso_chain(b, a) if inverse else iso_chain(a, b)
        op, order = (ld.restrictise, chain.steps[::-1]) if inverse else (ld.regularise, chain.steps)
        checked = 0
        for la in all_up_to(10):
            if not cr.is_A_regular(la, chain.source):
                continue
            steps = list(cr.chain_steps(la, chain))
            assert len(steps) == len(chain.steps)
            assert tuple(params for params, _ in steps) == order
            image = la
            for params, mu in steps:
                image = op(image, params)
                assert mu == image
            assert steps[-1][1] == cr.apply_chain(la, chain)
            checked += 1
        assert checked > 0

    def test_incompatible_prefixes(self):
        with pytest.raises(ValueError):
            iso_chain(ArmPrefix(3, (1, 2)), ArmPrefix(4, (1, 2)))

    def test_source_regularity_checked(self):
        chain = iso_chain(ArmPrefix(3, (2, 4, 6)), ArmPrefix(3, (0, 1, 2)))
        with pytest.raises(ValueError):
            cr.apply_chain(P("3"), chain)  # has a 3-hook with arm 2
        with pytest.raises(ValueError, match="not regular for the chain source"):
            cr.apply_chain(P("3"), iso_chain(chain.source, chain.source))


# the prefix pairs of verify crystal's chain_factorisations_induce_same_map
VERIFY_CHAIN_PAIRS = ((3, (2, 4, 6), (0, 1, 2)), (4, (3, 6, 9), (0, 1, 2)), (4, (2, 4, 6), (1, 2, 4)))


def chain_ends(e, n):
    """The slope-(e-1) '+' and slope-1 '-' prefixes of length n: the ends of the longest chain."""
    return ArmPrefix.from_slope(e, e - 1, n, "+"), ArmPrefix.from_slope(e, 1, n, "-")


def long_chains():
    """The e = 3, n = 10 chain of 33 steps, forward and inverse, each with a
    partition it moves 4 times."""
    top, bottom = chain_ends(3, 10)
    return ((cr.iso_chain(top, bottom), P("5,4,3,2,1^4")), (cr.iso_chain(bottom, top), P("9,5,2^2")))


def moves(la, steps):
    images = [mu for _, mu in steps]
    return sum(mu != nu for mu, nu in zip([la, *images], images))


def route_moves(la, chain):
    """The steps of chain_steps that move la, after checking chain_steps and
    apply_chain against the per-step route of the oracle."""
    steps, expected = list(cr.chain_steps(la, chain)), list(chain_steps_by_step(la, chain))
    assert steps == expected, (la, chain)
    assert cr.apply_chain(la, chain) == (expected[-1][1] if expected else la), (la, chain)
    return moves(la, steps)


class TestOneWalkPerMove:
    @pytest.mark.parametrize("e, top, bottom", VERIFY_CHAIN_PAIRS)
    def test_equals_the_per_step_route_on_every_source_partition(self, e, top, bottom):
        a, b = ArmPrefix(e, top), ArmPrefix(e, bottom)
        for chain in (cr.iso_chain(a, b), cr.iso_chain(b, a)):
            checked = moved = 0
            for la in all_up_to(chain.source.bound):
                if cr.is_A_regular(la, chain.source):
                    checked += 1
                    moved += route_moves(la, chain)
            assert checked > 0 and moved > 0

    def test_equals_the_per_step_route_at_large_n(self):
        # seeded partitions with n = 30..60 and e = 3..6 on the longest chain,
        # made regular for its source: restricted at slope e - 1 for the
        # slope-(e-1) '+' prefix, regular at slope 1 for the slope-1 '-' one
        rng = random.Random(20210515)
        moved = 0
        for k in range(16):
            e, n = 3 + k % 4, 30 + 30 * k // 15
            top, bottom = chain_ends(e, -(-n // e))
            la = random_partition(rng, n)
            for chain, mu in (
                (cr.iso_chain(top, bottom), ld.restrictise(la, ld.LadderParams(e, e - 1))),
                (cr.iso_chain(bottom, top), ld.regularise(la, ld.LadderParams(e, 1))),
            ):
                moved += route_moves(mu, chain)
        assert moved > 0

    def test_equals_the_per_step_route_on_random_prefix_pairs(self):
        # seeded comparable prefix pairs, e = 3..5 and lengths 2..5, each
        # chain run both ways on every regular partition of size <= 16
        rng = random.Random(20210521)
        moved = 0
        for k in range(12):
            e, n = 3 + k % 3, 2 + k % 4
            ends = sorted((ArmPrefix.from_slope(e, Fraction(rng.randint(q, (e - 1) * q), q), n, rng.choice("+-"))
                           for q in (rng.randint(1, n), rng.randint(1, n))), key=lambda p: p.slope)
            for chain in (cr.iso_chain(ends[1], ends[0]), cr.iso_chain(ends[0], ends[1])):
                for la in all_up_to(min(16, chain.source.bound)):
                    if cr.is_A_regular(la, chain.source):
                        moved += route_moves(la, chain)
        assert moved > 100

    def test_walks_once_per_move(self, monkeypatch):
        # one _top_hook walk per abacus move plus one that finds nothing, and
        # one check walk per hold: of the source and after each round of
        # moves at one slope; the source check walks the arm sequence, not
        # the bead set
        walks, moved = [], []
        real_top, real_hooks, real_steps = ld._top_hook, pt._bead_hooks, cr._steps
        monkeypatch.setattr(ld, "_top_hook", lambda *a: walks.append(a) or real_top(*a))
        monkeypatch.setattr(cr, "_bead_hooks", lambda *a: walks.append(a) or real_hooks(*a))
        monkeypatch.setattr(cr, "_steps", lambda *a: (moved.append(m) or m for m in real_steps(*a)))
        counts = []
        for chain, la in long_chains():
            walks.clear()
            moved.clear()
            steps = list(cr.chain_steps(la, chain))
            rounds = len(set(moved))
            assert len(walks) == (len(moved) + 1) + (1 + rounds)
            counts.append((len(steps), moves(la, steps), rounds, len(moved), len(walks)))
        assert counts == [(33, 4, 4, 7, 13), (33, 4, 4, 5, 11)]

    @pytest.mark.parametrize("op", ["regularise", "restrictise"])
    def test_a_step_that_does_not_move_fails_its_target_check(self, monkeypatch, op):
        # a step loop that stops after its first slope leaves la unmoved at the
        # chain's later singular steps, forward (regularise) and inverse (restrictise)
        real_steps = cr._steps

        def first_slope_only(*args):
            moves = real_steps(*args)
            first = next(moves, None)
            if first:
                yield first
                yield from takewhile(lambda move: move == first, moves)

        monkeypatch.setattr(cr, "_steps", first_slope_only)
        chain, la = long_chains()[1 if op == "restrictise" else 0]
        with pytest.raises(ValueError, match="chain left the regular set"):
            list(cr.chain_steps(la, chain))
        with pytest.raises(ValueError, match="chain left the regular set"):
            cr.apply_chain(la, chain)

    def test_descending_chain_takes_the_arm_minus_prefix_of_each_slope(self):
        # the oracle's walk of prefixes, and the Farey-predecessor recurrence
        # of Chain.steps against its (E, Y) pairs
        pairs = [(ArmPrefix(e, top), ArmPrefix(e, bottom)) for e, top, bottom in VERIFY_CHAIN_PAIRS]
        pairs += [chain_ends(e, n) for e in range(3, 7) for n in (1, 5, 12, 20)]
        for a, b in pairs:
            prefixes = descending_prefixes(a, b)
            assert prefixes[0] == a and prefixes[-1] == b
            for previous, prefix in zip(prefixes, prefixes[1:]):
                assert prefix == ArmPrefix.from_slope(a.e, previous.slope, a.n, "-")
            expected = [ld.LadderParams(a.e, p.slope).pair() for p in prefixes[:-1]]
            for chain in (cr.iso_chain(a, b), cr.iso_chain(b, a)):
                assert [params.pair() for params in chain.steps] == expected
            # from a lower prefix than a, the first step already falls below a
            with pytest.raises(AssertionError, match="descended past the target prefix"):
                descending_prefixes(prefixes[1], a)

    def test_steps_are_built_once(self, monkeypatch):
        chain = cr.iso_chain(*chain_ends(3, 10))
        built = []
        real = ld.LadderParams.__init__
        monkeypatch.setattr(ld.LadderParams, "__init__", lambda self, *a: built.append(a) or real(self, *a))
        for _ in range(3):
            assert len(chain.steps) == 33
            cr.apply_chain(P("5,4,3,2,1^4"), chain)
        assert len(built) == 33
        assert cr.iso_chain(*chain_ends(3, 10)).steps == chain.steps


def diagram_node_counts(parts, e, i):
    """The addable and the removable i-nodes of parts, (c - r) mod e = i,
    counted on the diagram: row r + 1 takes a node where row r is longer or
    r = 0, and ends in a removable one where it is longer than row r + 2."""
    rows = [*parts, 0]
    addable = sum((rows[r] - r) % e == i for r in range(len(rows)) if r == 0 or rows[r - 1] > rows[r])
    removable = sum((rows[r] - r - 1) % e == i for r in range(len(parts)) if rows[r] > rows[r + 1])
    return addable, removable


def string_length(step, la, i):
    """How many times step, a dict (vertex, i) -> vertex, applies from la."""
    k = 0
    while (la := step.get((la, i))) is not None:
        k += 1
    return k


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_string_lengths_differ_by_the_node_counts(e):
    # phi_i - epsilon_i = (addable i-nodes) - (removable i-nodes) on every
    # vertex of the crystals of slopes 1, 3/2 and e - 1, both variants, to
    # bound 12 or more, with phi_i and epsilon_i read off the graph's edges and
    # the nodes counted on the diagram, which shares no code with the
    # reduction; phi_i is seen whole where the addable i-nodes fit the bound
    instances = 0
    for y in sorted(y for y in {Fraction(1), Fraction(3, 2), Fraction(e - 1)} if y <= e - 1):
        for variant in "+-":
            graph = cr.build_graph(ArmPrefix.from_slope(e, y, -(-12 // e), variant))
            up = {(la, i): mu for la, i, mu in graph.edges}
            down = {(mu, i): la for la, i, mu in graph.edges}
            assert len(up) == len(down) == len(graph.edges)
            for la in graph.vertices:
                for i in range(e):
                    addable, removable = diagram_node_counts(la.parts, e, i)
                    if la.size + addable <= graph.bound:
                        phi, eps = string_length(up, la, i), string_length(down, la, i)
                        assert phi - eps == addable - removable, (la, i, graph.arm)
                        instances += 1
    assert instances == {2: 198, 3: 1952, 4: 3617, 5: 12972}[e]
