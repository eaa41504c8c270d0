import importlib
import random
from fractions import Fraction

import pytest

from oracles import (
    fingerprint_by_ladder_id,
    hooks_by_node_scan,
    mullineux_steps_by_rounds,
    peel_and_rebuild_by_operators,
    random_partition,
    regularise_steps_by_scale,
    restrictise_steps_by_scale,
)
from regcrystals import abacus as ab
from regcrystals import ladders as ld
from regcrystals.crystals import ArmPrefix, apply_chain, is_A_regular, iso_chain
from regcrystals.ladders import LadderParams
from regcrystals.mullineux import (
    _conjugate_image,
    hook_class,
    james_regularise,
    lyle_check,
    mullineux,
    mullineux_oracle,
    mullineux_steps,
    peel_and_rebuild,
    slopes,
)
from regcrystals.partitions import (Partition, beta_numbers, enumerate_partitions, from_beta_numbers, hooks_divisible_by,
                                   parse_partition)

P = parse_partition
mx = importlib.import_module("regcrystals.mullineux")


def all_up_to(n):
    for s in range(n + 1):
        yield from enumerate_partitions(s)


class TestSlopes:
    def test_worked_example(self):
        assert slopes(P("3,2,1,1,1,1"), 3) == {Fraction(2), Fraction(1)}

    def test_second_diagram(self):
        got = slopes(P("4,1,1,1,1,1"), 3)
        assert Fraction(4, 3) in got and Fraction(3) in got

    def test_empty(self):
        assert slopes(Partition(), 4) == set()


class TestMullineux:
    def test_worked_example(self):
        assert mullineux(P("6,2,1"), 3) == P("5,2,2")

    def test_worked_example_trace(self):
        steps = [(y, mu) for y, mu in mullineux_steps(P("6,2,1"), 3)]
        assert [(str(y), mu.parts) for y, mu in steps] == [
            ("2", (4, 1, 1, 1, 1, 1)),
            ("4/3", (5, 1, 1, 1, 1)),
            ("1", (5, 2, 2)),
        ]

    def test_small_values(self):
        assert mullineux(P("3,1"), 2) == P("3,1")
        assert mullineux(P("3"), 3) == P("2,1")
        assert mullineux(Partition(), 4) == Partition()

    def test_e_1_convention(self):
        assert mullineux(Partition(), 1) == Partition()
        with pytest.raises(ValueError):
            mullineux(P("1"), 1)

    def test_rejects_singular_input(self):
        with pytest.raises(ValueError):
            mullineux(P("2,2,2"), 3)

    def test_matches_oracle(self):
        for e in (2, 3, 4):
            for la in all_up_to(11):
                if la.is_e_regular(e):
                    assert mullineux(la, e) == mullineux_oracle(la, e)

    def test_involution_and_regularity(self):
        for e in (3, 4):
            for la in all_up_to(10):
                if not la.is_e_regular(e):
                    continue
                image = mullineux(la, e)
                assert image.size == la.size and image.is_e_regular(e)
                assert mullineux(image, e) == la

    def test_identity_for_e_2(self):
        for la in all_up_to(12):
            if la.is_e_regular(2):
                assert mullineux(la, 2) == la

    def test_composite_preserves_content(self):
        for e in (2, 3):
            for la in all_up_to(9):
                if la.is_e_restricted(e):
                    image = mullineux(la.conjugate(), e)
                    assert image.e_content(e) == la.e_content(e)
                    assert ab.e_core(image, e) == ab.e_core(la, e)


def distinct_part_counts(allowed, max_n):
    """Coefficients of prod over k <= max_n with allowed(k) of (1 + q^k):
    the partitions of each n <= max_n into distinct allowed parts."""
    coeffs = [1] + [0] * max_n
    for k in range(1, max_n + 1):
        if allowed(k):
            for n in range(max_n, k - 1, -1):
                coeffs[n] += coeffs[n - k]
    return coeffs


@pytest.mark.parametrize("e", [2, 3, 4, 5, 6, 8])
def test_fixed_points_are_counted_by_distinct_parts(e):
    # the e-regular fixed points of the Mullineux map of each size number
    # the partitions into distinct parts that are odd and prime to e (odd e:
    # Andrews-Olsson, J. reine angew. Math. 1991, for odd prime e) or that
    # are odd or divisible by e (even e), a count that shares no code with
    # the map
    max_n = 20
    allowed = (lambda k: k % 2 and k % e) if e % 2 else (lambda k: k % 2 or k % e == 0)
    fixed = [sum(la.is_e_regular(e) and mullineux(la, e) == la for la in enumerate_partitions(n))
             for n in range(max_n + 1)]
    assert fixed == distinct_part_counts(allowed, max_n)


def random_regular_partition(rng, n, e):
    """A seeded e-regular partition of n: random row lengths, then e-regularised."""
    return james_regularise(random_partition(rng, n), e)


def large_inputs():
    """20 seeded (e, la) with n = 50..200 and e = 3..6; exhaustive checks stop near n = 16."""
    rng = random.Random(20210513)
    for k in range(20):
        e, n = 3 + k % 4, 50 + 150 * k // 19
        la = random_regular_partition(rng, n, e)
        assert la.size == n and la.is_e_regular(e)
        yield e, la


def test_two_routes_agree_at_large_n():
    for e, la in large_inputs():
        image = mullineux(la, e)
        assert image == mullineux_oracle(la, e, "min") == mullineux_oracle(la, e, "max"), la
        assert mullineux(image, e) == la


def test_walk_equals_the_operator_walk_at_large_n(count_walks):
    # seeded inputs with n = 50..200 and e = 3..6, on the e-regular crystal
    # (the oracle's walk) and from the slope-(e-1) "+" crystal to it (a chain
    # pair, as in verify's chain_factorisations_induce_same_map); the string
    # walks take fewer row walks in all than the nodes they move, though not
    # each one: every string of a one-row partition has one node
    walks = count_walks("_signed_nodes")
    rng = random.Random(20210518)
    walked = moved = 0
    for k in range(12):
        e, n = 3 + k % 4, 50 + 150 * k // 11
        la = random_regular_partition(rng, n, e)
        top = ArmPrefix.from_slope(e, e - 1, -(-n // e), "+")
        bottom = ArmPrefix.from_slope(e, 1, -(-n // e), "-")
        for mu, src, dst, order, sign in (
            (la, bottom, bottom, range(e), -1),
            (la, bottom, bottom, range(e - 1, -1, -1), -1),
            (la.conjugate(), top, bottom, range(e), 1),
        ):
            expected = peel_and_rebuild_by_operators(mu, src, dst, order, sign)
            walks.clear()
            assert peel_and_rebuild(mu, src, dst, order, sign) == expected, (mu, e)
            walked, moved = walked + len(walks), moved + 2 * mu.size
    assert walked < moved


@pytest.mark.parametrize("n, e, walks", [(12, 3, 25), (20, 4, 41)])
def test_oracle_walks_on_one_row(count_walks, n, e, walks):
    # every string of (n) has one node: the peel takes the one walk of
    # e_op's check at the first residue of order, one all-residue walk of
    # (n), which finds the good node at residue n - 1, and one all-residue
    # walk for each of the n - 1 later strings; the rebuild takes one walk
    # per string
    counted = count_walks("_signed_nodes")
    assert mullineux_oracle(Partition([n]), e) == mullineux(Partition([n]), e)
    assert len(counted) == walks == 1 + 1 + (n - 1) + n


class TestKnownTable:
    """peel_and_rebuild's table of images, kept by a caller that walks the
    crystal in increasing size, against the untabled route."""

    @pytest.mark.parametrize("choice, bound", [("min", 16), ("max", 12)])
    def test_tabled_oracle_equals_the_untabled_one(self, choice, bound):
        for e in range(2, 7):
            known = {(): Partition()}
            for la in all_up_to(bound):
                if la.is_e_regular(e):
                    tabled = mullineux_oracle(la, e, choice, known=known)
                    assert tabled == mullineux_oracle(la, e, choice) == known[la.parts], (la, e)

    @pytest.mark.parametrize(
        "e, top, bottom", [(3, (2, 4, 6), (0, 1, 2)), (4, (3, 6, 9), (0, 1, 2)), (4, (2, 4, 6), (1, 2, 4))]
    )
    def test_tabled_chain_pair_equals_the_untabled_one(self, e, top, bottom):
        # the chain pairs of verify's chain_factorisations_induce_same_map
        a, b = ArmPrefix(e, top), ArmPrefix(e, bottom)
        known = {(): Partition()}
        for la in all_up_to(min(a.bound, 12)):
            if is_A_regular(la, a):
                tabled = peel_and_rebuild(la, a, b, range(e), 1, known=known)
                assert tabled == peel_and_rebuild(la, a, b, range(e), 1), (la, e)

    @pytest.mark.parametrize("n, e", [(12, 3), (20, 4)])
    def test_a_known_first_vertex_takes_no_all_residue_walk(self, count_walks, n, e):
        # the string of (n) has one node, so its first peeled vertex is (n - 1),
        # which is known: the all-residue walk of (n) itself, the walk of the
        # one e_op call and one rebuild walk; the untabled peel walks every
        # residue once more for each of the n - 1 later strings
        walks = count_walks("_signed_nodes")
        known = {(): Partition(), (n - 1,): mullineux_oracle(Partition([n - 1]), e)}
        walks.clear()
        tabled = mullineux_oracle(Partition([n]), e, known=known)
        assert len(walks) == 1 + 1 + 1
        assert [args[0] for args in walks if len(args) == 2] == [(n,)]
        walks.clear()
        assert mullineux_oracle(Partition([n]), e) == tabled
        assert len(walks) == 1 + 1 + (n - 1) + n
        assert sum(len(args) == 2 for args in walks) == 1 + (n - 1)

    @pytest.mark.parametrize("choice, first", [("min", 0), ("max", 2)])
    def test_a_known_input_takes_only_the_check_walk(self, count_walks, choice, first):
        # la itself in the table: e_op's check walks la once, at the first
        # residue of order, and the peel neither walks nor moves; the entry is
        # returned as the table holds it, a planted one too
        la, e = P("5,3,1"), 3
        image = mullineux(la, e)
        walks = count_walks("_signed_nodes")
        assert mullineux_oracle(la, e, choice, known={(): Partition(), la.parts: image}) == image
        assert [(tuple(args[0]), args[2:]) for args in walks] == [(la.parts, (first,))]
        assert mullineux_oracle(la, e, choice, known={(): Partition(), la.parts: P("9")}) == P("9")

    def test_a_singular_input_in_the_table_still_raises(self):
        # the one check comes before the table is read
        la, e = P("1,1,1"), 3
        prefix = ArmPrefix(e, (0,))
        known = {(): Partition(), la.parts: Partition()}
        with pytest.raises(ValueError, match=r"^1\^3 is not regular for ArmPrefix"):
            peel_and_rebuild(la, prefix, prefix, range(e), -1, known=known)
        with pytest.raises(ValueError, match=r"^1\^3 is not 3-regular$"):
            mullineux_oracle(la, e, known=known)

    def test_walking_up_in_size_takes_one_all_residue_walk_per_call(self, count_walks):
        # the walk of each input itself, which picks its first string
        walks = count_walks("_signed_nodes")
        known = {(): Partition()}
        inputs = [la for la in all_up_to(10) if la and la.is_e_regular(3)]
        for la in inputs:
            mullineux_oracle(la, 3, known=known)
        assert [args[0] for args in walks if len(args) == 2] == [la.parts for la in inputs]


class TestOracle:
    def test_residue_choice_is_irrelevant(self):
        for e in (2, 3, 4):
            for la in all_up_to(9):
                if la.is_e_regular(e):
                    assert mullineux_oracle(la, e, "min") == mullineux_oracle(la, e, "max")

    def test_rejects_singular_input(self):
        with pytest.raises(ValueError):
            mullineux_oracle(P("1,1"), 2)

    def test_prefix_is_the_slope_1_minus_prefix(self):
        # the oracle builds its prefix as the values t - 1 directly
        for e in range(2, 7):
            for n in range(1, 31):
                assert ArmPrefix(e, range(n)) == ArmPrefix.from_slope(e, 1, n, "-")


class TestJamesRegularise:
    def test_examples(self):
        assert james_regularise(P("1^4"), 3) == P("2,2")
        assert james_regularise(P("2,2"), 2) == P("3,1")

    def test_regular_fixed(self):
        for la in all_up_to(10):
            if la.is_e_regular(3):
                assert james_regularise(la, 3) == la

    def test_is_class_maximum(self):
        params = LadderParams(3, 1)
        for n in range(9):
            groups = {}
            for la in enumerate_partitions(n):
                groups.setdefault(frozenset(fingerprint_by_ladder_id(la, params).items()), []).append(la)
            for cls in groups.values():
                top = james_regularise(cls[0], 3)
                assert all(james_regularise(la, 3) == top for la in cls)
                assert all(top.dominates(la) for la in cls)


class TestHookClassification:
    def test_forced_cases(self):
        assert hook_class(0, 2, 3) == "steep"
        assert hook_class(2, 0, 3) == "shallow"
        assert hook_class(1, 1, 2) == "both"
        assert hook_class(2, 3, 4) == "neither"

    def test_diagram_examples(self):
        def classes(la, e):
            return {h.corner: (h.length, hook_class(h.arm, h.leg, e)) for h in la.hooks() if h.length % e == 0}

        assert classes(P("1,1,1"), 3) == {(1, 1): (3, "steep")}
        assert classes(P("3"), 3) == {(1, 1): (3, "shallow")}
        assert classes(P("4,2,1,1,1"), 4)[(1, 1)] == (8, "neither")
        assert not mx._lyle_report(P("4,2,1,1,1"), 4, *[Partition()] * 3).all_steep_or_shallow

    def test_equals_the_node_scan(self):
        # the Lyle report's (t, arm) with leg e*t - 1 - arm are the node
        # scan's e-divisible hooks
        for e in range(2, 6):
            for la in all_up_to(12):
                expected = sorted((h.length, h.arm, h.leg) for h in hooks_by_node_scan(la) if h.length % e == 0)
                walked = sorted((e * t, arm, e * t - 1 - arm) for t, arm, _ in hooks_divisible_by(la, e))
                assert walked == expected, (la, e)


class TestLyle:
    def test_staircase_example(self):
        report = lyle_check(P("1,1,1"), 3)
        assert report.regularised == P("2,1")
        assert report.mullineux_image == P("3")
        assert report.conjugate_regularised == P("3")
        assert report.equal and report.dominates
        assert report.all_steep_or_shallow and report.criterion_matches

    def test_empty(self):
        report = lyle_check(Partition(), 4)
        assert report.equal and report.dominates and report.criterion_matches

    def test_exhaustive_small(self):
        for e in (2, 3, 4):
            for la in all_up_to(9):
                report = lyle_check(la, e)
                assert report.dominates
                assert report.criterion_matches

    def test_criterion_equals_the_classified_hooks(self):
        # the report reads steep-or-shallow off (t, arm) with leg e*t - 1 - arm;
        # the node scan's hooks, each arm and leg read off the diagram, give the same verdict
        for e in range(2, 7):
            for la in all_up_to(14):
                report = mx._lyle_report(la, e, la, la, la)
                hooks = [h for h in hooks_by_node_scan(la) if h.length % e == 0]
                expected = all(hook_class(h.arm, h.leg, e) != "neither" for h in hooks)
                assert report.all_steep_or_shallow == expected, (la, e)


class TestSharedLoop:
    """mullineux_steps runs the regularisation loop of ladders, one hook walk
    per abacus move plus one that finds nothing, where the round-by-round
    route walks once more per step and once per round for its slopes."""

    def test_steps_equal_the_round_by_round_route(self):
        for e in range(2, 7):
            for la in all_up_to(12):
                if la.is_e_regular(e):
                    assert list(mullineux_steps(la, e)) == list(mullineux_steps_by_rounds(la, e)), (la, e)

    def test_steps_equal_the_round_by_round_route_at_large_n(self):
        moved = 0
        for e, la in large_inputs():
            assert list(mullineux_steps(la, e)) == list(mullineux_steps_by_rounds(la, e)), (la, e)
            for y in {Fraction(p, q) for q in (1, 2, 3) for p in range(q, (e - 1) * q + 1)}:
                params = LadderParams(e, y)
                for mu in (la, la.conjugate()):
                    steps = list(ld.regularise_steps(mu, params))
                    assert steps == list(regularise_steps_by_scale(mu, params)), (mu, params)
                    assert list(ld.restrictise_steps(mu, params)) == list(restrictise_steps_by_scale(mu, params))
                    moved += len(steps)
        assert moved > 100

    def test_restrictise_equals_the_scaled_walk_route_at_n_50_to_400(self):
        # restrictise conjugates on the bead set; the oracle route conjugates partitions
        rng = random.Random(20210519)
        moved = 0
        for k in range(20):
            e, n = 3 + k % 4, 50 + 350 * k // 19
            la = random_regular_partition(rng, n, e)
            for mu in (la, la.conjugate()):
                y = Fraction(rng.randint(2, 3 * (e - 1)), rng.choice((2, 3)))
                params = LadderParams(e, max(1, min(e - 1, y)))
                steps = list(restrictise_steps_by_scale(mu, params))
                assert ld.restrictise(mu, params) == (steps[-1] if steps else mu), (mu, params)
                moved += len(steps)
        assert moved > 60

    def test_image_of_a_conjugate_runs_from_the_restricted_partition(self):
        for e in (2, 3, 4):
            for la in all_up_to(9):
                if la.is_e_restricted(e):
                    assert _conjugate_image(la, e) == mullineux(la.conjugate(), e)
        for e, la in ((3, P("3")), (2, P("4,1")), (1, P("1"))):
            with pytest.raises(ValueError) as expected:
                mullineux(la.conjugate(), e)
            with pytest.raises(ValueError) as got:
                _conjugate_image(la, e)
            assert str(got.value) == str(expected.value)

    def test_loop_makes_the_same_moves_on_every_bead_count(self):
        # beads added at the bottom shift every hook alike
        for e in (2, 3, 4, 5):
            for mu in all_up_to(9):
                if not mu.is_e_restricted(e):
                    continue
                short = beta_numbers(mu, len(mu))
                moves = list(mx._loop(short, e))
                for extra in (1, e, 2 * e + 1):
                    occ = beta_numbers(mu, len(mu) + extra)
                    assert list(mx._loop(occ, e)) == moves, (mu, e, extra)
                    assert from_beta_numbers(occ) == from_beta_numbers(short) == _conjugate_image(mu, e)

    @pytest.mark.parametrize(
        "mu, e, message",
        [
            ("3", 3, r"^1\^3 is not 3-regular$"),
            ("4,1", 2, r"^2,1\^3 is not 2-regular$"),
            ("5,5,1", 4, r"^3,2\^4 is not 4-regular$"),
            ("1", 1, r"^only the empty partition is 1-regular$"),
            ("-", 0, r"^e must be positive$"),
        ],
        ids=["e3", "e2", "e4", "e1", "e0"],
    )
    def test_unrestricted_bead_set_raises_the_loop_message(self, mu, e, message):
        # on any bead count, before any bead moves; the partition route says the same
        mu = P(mu)
        for n in (len(mu), len(mu) + 1, len(mu) + 3):
            occ = beta_numbers(mu, n)
            with pytest.raises(ValueError, match=message):
                mx._loop(occ, e)
            assert occ == beta_numbers(mu, n)
        with pytest.raises(ValueError, match=message):
            _conjugate_image(mu, e)

    def test_one_walk_per_step_plus_one(self, monkeypatch):
        walks, moves = [], []
        walk, move = ld._top_hook, ld._abacus_step
        monkeypatch.setattr(ld, "_top_hook", lambda *a: walks.append(a) or walk(*a))
        monkeypatch.setattr(ld, "_abacus_step", lambda *a: moves.append(a) or move(*a))
        assert mullineux(P("6,2,1"), 3) == P("5,2,2")
        assert (len(walks), len(moves)) == (4, 3)
        rounds = steps = 0
        for e, la in large_inputs():
            walks.clear()
            moves.clear()
            rounds += len(list(mullineux_steps(la, e)))
            steps += len(moves)
            assert len(walks) == 1 + len(moves), (la, e)
        assert steps > rounds > 20

    def test_trace_decodes_once_per_round(self, monkeypatch):
        decodes = []
        real = mx.from_beta_numbers
        monkeypatch.setattr(mx, "from_beta_numbers", lambda occ: decodes.append(occ) or real(occ))
        rounds = moves = 0
        for e, la in large_inputs():
            decodes.clear()
            steps = list(mullineux_steps(la, e))
            assert len(decodes) == len(steps), (la, e)
            rounds += len(steps)
            moves += sum(1 for _ in ld._steps(ab.encode(la.conjugate(), len(la.conjugate()), e), e, e - 1, 1, True))
        assert moves > rounds > 20


def chain_image(la, e):
    """mullineux(la, e) as the paper factors it: the chain of crystal
    isomorphisms from the slope-(e-1) '+' crystal down to the slope-1 '-'
    one, at prefix length ceil(|la|/e) (at least 1), applied to la'."""
    k = max(1, -(-la.size // e))
    top, bottom = ArmPrefix.from_slope(e, e - 1, k, "+"), ArmPrefix.from_slope(e, 1, k, "-")
    return apply_chain(la.conjugate(), iso_chain(top, bottom))


class TestChainFactorisation:
    def test_every_regular_partition_up_to_14(self):
        checked = 0
        for e in range(2, 6):
            for la in all_up_to(14):
                if la.is_e_regular(e):
                    assert chain_image(la, e) == mullineux(la, e), (la, e)
                    checked += 1
        assert checked > 1000

    def test_seeded_partitions_at_n_50_to_400(self):
        rng = random.Random(20210523)
        for k in range(100):
            e, n = 3 + k % 4, 50 + 350 * k // 99
            la = random_regular_partition(rng, n, e)
            assert chain_image(la, e) == mullineux(la, e), (la, e)
